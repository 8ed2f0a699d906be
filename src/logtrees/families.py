"""Tree families and their structural parameters.

Three families of random log-trees are supported:

* ``mary``     -- m-ary search trees, branching factor m >= 3.  Tracked
  quantities: space requirement S, key path length K, node path length N.
* ``fbbst``    -- fringe-balanced binary search trees (median-of-(2t+1)
  quicksort), t >= 1.  Tracked: partitioning stages S and total path
  length X.
* ``quadtree`` -- d-dimensional point quadtrees, d >= 1.  Tracked:
  leaves L and internal path length Xi.

m-ary trees and fringe-balanced BSTs are the cases t = 0 and m = 2 of one
(m,t) split law: a node of size n >= m(t+1)-1 samples m(t+1)-1 keys and
splits at every (t+1)-th of them, so one subtree size I has
P(I = j) = C(j,t) C(n-1-j, (m-1)(t+1)-1) / C(n, m(t+1)-1).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Family(str, Enum):
    MARY = "mary"
    FBBST = "fbbst"
    QUADTREE = "quadtree"


_MIN_PARAM = {Family.MARY: 3, Family.FBBST: 1, Family.QUADTREE: 1}


@dataclass(frozen=True)
class Measure:
    """An additive tree measure X_n = sum_l (X + P)(I_l) + c + s n over the
    subtrees of a splitting node, P being the measure named ``plus`` (or
    nothing; a measure named there has no ``plus`` of its own).  Below the
    first split size it is ``initial`` for n >= 1 and 0 at n = 0."""

    name: str                 # as reported by Monte Carlo
    row: str                  # name of its mean row in a moment table
    initial: int
    toll: tuple[int, int]     # (c, s)
    plus: str | None = None


@dataclass(frozen=True)
class FamilyInstance:
    """A concrete tree family: the family tag plus its integer parameter."""

    family: Family
    parameter: int

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if not isinstance(self.parameter, int):
            raise TypeError(f"parameter must be an int, got {type(self.parameter).__name__}")
        lo = _MIN_PARAM[fam]
        if self.parameter < lo:
            raise ValueError(f"{fam.value} requires parameter >= {lo}, got {self.parameter}")

    @property
    def branches(self) -> int:
        """Number of subtrees below a splitting node."""
        if self.family is Family.MARY:
            return self.parameter
        if self.family is Family.FBBST:
            return 2
        return 2 ** self.parameter

    @property
    def split_threshold(self) -> int:
        """Smallest subtree size that splits into children."""
        if self.family is Family.MARY:
            return self.parameter
        if self.family is Family.FBBST:
            return 2 * self.parameter + 1
        return 2

    @property
    def split_law(self) -> tuple[int, int] | None:
        """(m, t) of the binomial split law; None for quadtrees, whose cell
        counts follow a multinomial over random volumes instead."""
        if self.family is Family.MARY:
            return self.parameter, 0
        if self.family is Family.FBBST:
            return 2, self.parameter
        return None

    @property
    def measures(self) -> tuple[Measure, ...]:
        """S, K, N (nodes, key and node path length) for mary; S, X
        (partitioning stages, path length) for fbbst; L, Xi (leaves,
        internal path length) for quadtree."""
        if self.family is Family.MARY:
            m = self.parameter
            return (Measure("S", "mu", 1, (1, 0)), Measure("K", "kappa", 0, (1 - m, 1)),
                    Measure("N", "nu", 0, (0, 0), plus="S"))
        if self.family is Family.FBBST:
            return (Measure("S", "s_mean", 0, (1, 0)), Measure("X", "x_mean", 0, (-1, 1)))
        return (Measure("L", "l_mean", 1, (0, 0)), Measure("Xi", "xi_mean", 0, (-1, 1)))

    @property
    def covariance_rows(self) -> tuple[tuple[str, str, str], ...]:
        """(row, measure, measure) of each second-order moment table row; a
        row comes after the rows its ``plus`` terms read.  Quadtrees have
        none: their pairwise cell-count law has no scalar recurrence."""
        if self.family is Family.MARY:
            return (("VS", "S", "S"), ("VSK", "S", "K"), ("VK", "K", "K"),
                    ("VSN", "S", "N"), ("VN", "N", "N"), ("VKN", "K", "N"))
        if self.family is Family.FBBST:
            return (("VS", "S", "S"), ("VSX", "S", "X"), ("VX", "X", "X"))
        return ()

    @property
    def row_names(self) -> tuple[str, ...]:
        return (tuple(meas.row for meas in self.measures)
                + tuple(row for row, _, _ in self.covariance_rows))

    @property
    def cauchy_schwarz_triples(self) -> tuple[tuple[str, str, str], ...]:
        """(covariance, variance, variance) row names, one per pair of
        distinct measures."""
        var = {a: row for row, a, b in self.covariance_rows if a == b}
        return tuple((row, var[a], var[b]) for row, a, b in self.covariance_rows if a != b)

    def __str__(self) -> str:
        return f"{self.family.value}({self.parameter})"


def mary(m: int) -> FamilyInstance:
    return FamilyInstance(Family.MARY, m)


def fbbst(t: int) -> FamilyInstance:
    return FamilyInstance(Family.FBBST, t)


def quadtree(d: int) -> FamilyInstance:
    return FamilyInstance(Family.QUADTREE, d)


def harmonic(m: int, order: int = 1) -> Fraction:
    """Exact harmonic number H_m (order 1) or H_m^(r) for higher orders."""
    if m < 0:
        raise ValueError("harmonic number needs m >= 0")
    return sum((Fraction(1, k**order) for k in range(1, m + 1)), Fraction(0))


def occupancy_constant(instance: FamilyInstance) -> Fraction:
    """Exact linear-mean coefficient: 1/(2(H_m - 1)) for m-ary trees,
    1/(2(t+1)(H_{2t+2} - H_{t+1})) for fringe-balanced BSTs."""
    if instance.family is Family.MARY:
        m = instance.parameter
        return 1 / (2 * (harmonic(m) - 1))
    if instance.family is Family.FBBST:
        t = instance.parameter
        return 1 / (2 * (t + 1) * (harmonic(2 * t + 2) - harmonic(t + 1)))
    raise ValueError("occupancy constant is defined for mary and fbbst only")
