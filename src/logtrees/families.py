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
P(I = j) = C(j,t) C(n-1-j, (m-1)(t+1)-1) / C(n, m(t+1)-1).  Every family
has one Mellin signature ``shifts``: a coefficient V (a subtree's share, a
cell's volume) has E[V^x] = prod_s (s+1)/(s+1+x), which the indicial
equation branches E[V^(z-1)] = 1 of ``roots`` and the periodic factors read.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .gammafn import log_gamma


class RegimeMismatchError(ValueError):
    """A periodic factor, fixed-point map or regime requested outside the
    parameter range where it holds."""


class Family(str, Enum):
    MARY = "mary"
    FBBST = "fbbst"
    QUADTREE = "quadtree"


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
    """A concrete tree family: the family tag plus its integer parameter.  Its
    phases are not stated here: ``roots.classify_regime`` reads them from its spectrum."""

    family: Family
    parameter: int

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if not isinstance(self.parameter, int):
            raise TypeError(f"parameter must be an int, got {type(self.parameter).__name__}")
        lo = _DATA[fam].min_param
        if self.parameter < lo:
            raise ValueError(f"{fam.value} requires parameter >= {lo}, got {self.parameter}")

    @property
    def branches(self) -> int:
        """Number of subtrees below a splitting node: m, or 2^d cells."""
        law = self.split_law
        return 2 ** self.parameter if law is None else law[0]

    @property
    def shifts(self) -> tuple[int, ...]:
        """Mellin signature of one coefficient V, E[V^x] = prod_s (s+1)/(s+1+x):
        t .. m(t+1)-2 for the (m,t) law (V ~ Beta(t+1, (m-1)(t+1))), d zeros for
        a quadtree (V a product of d uniforms)."""
        law = self.split_law
        if law is None:
            return (0,) * self.parameter
        m, t = law
        return tuple(range(t, m * (t + 1) - 1))

    def coefficient_moment(self, x):
        """E[V^x] of one coefficient V (x real or complex) as the finite
        product over ``shifts``."""
        return math.prod((s + 1) / (s + 1 + x) for s in self.shifts)

    @property
    def split_threshold(self) -> int:
        """Smallest subtree size that splits: m for mary, not the law's m-1, so
        that size m-1 (one full node) is a point mass with no Monte Carlo draw."""
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
        none: their pairwise cell-count law is not implemented (ROADMAP item
        3)."""
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

    @property
    def periodic_factors(self) -> tuple[str, str]:
        """Names of the ``asymptotics.periodic`` factors of Var(S) and of
        Cov(S, path length)."""
        return _DATA[self.family].periodic_factors

    @property
    def correlation_factor(self) -> str | None:
        """Name of the correlation factor f_cov / sqrt(C f_var) of S and the
        path length where the family has one by name (Frho for m-ary
        trees); it turns periodic with the distribution."""
        return _DATA[self.family].correlation_factor

    @property
    def fixed_point_maps(self) -> tuple[str, str]:
        """The periodic and the normal bivariate fixed-point maps."""
        return _DATA[self.family].fixed_point_maps

    @property
    def variance_constant(self) -> float:
        """Var(path length) / n^2 in the limit: C_K, D_X or E_X."""
        return _DATA[self.family].variance_constant(self.parameter)

    @property
    def harmonics(self) -> tuple[Fraction, Fraction]:
        """H_m, H_m^(2) (mary); H_d, H_d^(2) (quadtree); H_{2t+2} - H_{t+1},
        H_{2t+2}^(2) (fbbst): the harmonic numbers its constants use."""
        return _DATA[self.family].harmonics(self.parameter)

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


def occupancy_constant(instance: FamilyInstance | tuple[int, int]) -> Fraction:
    """Exact linear-mean coefficient 1/(2(t+1)(H_{m(t+1)} - H_{t+1})) of the
    (m,t) law of an instance, or of an (m, t) pair such as quicksort's (2, 0):
    1/(2(H_m - 1)) for m-ary trees, 1/(2(t+1)(H_{2t+2} - H_{t+1})) for
    fringe-balanced BSTs."""
    law = instance if isinstance(instance, tuple) else instance.split_law
    if law is None:
        raise ValueError("occupancy constant is defined for (m,t) split laws only")
    m, t = law
    return 1 / (2 * (t + 1) * (harmonic(m * (t + 1)) - harmonic(t + 1)))


def dirichlet_moment(m: int, t: int, a, b=None):
    """E[V_1^a], or E[V_1^a V_2^b] when b is given, for the (m,t) split coefficients
    V ~ Dirichlet(t+1, ..., t+1), in log space: Gamma(M) / Gamma(M + a (+ b)), M = m(t+1),
    times Gamma(t+1+e) / Gamma(t+1) per exponent e.  Real gamma arguments take
    math.lgamma, complex ones ``gammafn.log_gamma``."""
    exps = (a,) if b is None else (a, b)
    if min((t + 1 + e).real for e in exps) <= 0:
        raise ValueError(f"Dirichlet moment diverges at exponents {exps} for t = {t}")
    k = m * (t + 1)
    log = (sum(_lgamma(t + 1 + e) for e in exps) + math.lgamma(k) - _lgamma(k + sum(exps))
           - len(exps) * math.lgamma(t + 1))
    return cmath.exp(log) if any(isinstance(e, complex) for e in exps) else math.exp(log)


def _lgamma(z) -> float | complex:
    return log_gamma(z) if z.imag else math.lgamma(z.real)


def kpl_variance_constant(m: int) -> float:
    """C_K: quadratic variance constant of the key path length, m >= 2."""
    if m < 2:
        raise ValueError("m >= 2 required")
    h2 = float(harmonic(m, 2))
    phi = float(occupancy_constant((m, 0)))
    return 4 * phi * phi * (((m + 1) * h2 - 2) / (m - 1) - math.pi * math.pi / 6)


def fbbst_tpl_variance_constant(t: int) -> float:
    """D_X: quadratic variance constant of the fringe-balanced total path
    length, t >= 0 (t = 0 is plain quicksort)."""
    if t < 0:
        raise ValueError("t >= 0 required")
    h = float(harmonic(2 * t + 2) - harmonic(t + 1))
    bracket = ((2 * t + 3) / (t + 1) * float(harmonic(2 * t + 2, 2))
               - (t + 2) / (t + 1) * float(harmonic(t + 1, 2)) - math.pi * math.pi / 6)
    return bracket / (h * h)


def quadtree_ipl_variance_constant(d: int) -> float:
    """E_X: quadratic variance constant of the quadtree internal path
    length, d >= 1 (d = 1 is again quicksort)."""
    if d < 1:
        raise ValueError("d >= 1 required")
    # the ratio exactly: 3.0**d overflows a double from d = 647 on
    return float(Fraction(3**d, 3**d - 2**d)) * (21 - 2 * math.pi * math.pi) / (9 * d)


class _FamilyData(NamedTuple):
    """What a family knows beyond its split law and measures."""

    min_param: int
    periodic_factors: tuple[str, str]
    fixed_point_maps: tuple[str, str]
    variance_constant: Callable[[int], float]
    harmonics: Callable[[int], tuple[Fraction, Fraction]]
    correlation_factor: str | None = None


_DATA = {
    Family.MARY: _FamilyData(3, ("F1", "F2"), ("TN_periodic", "TNprime_normal"),
                             kpl_variance_constant, lambda m: (harmonic(m), harmonic(m, 2)),
                             "Frho"),
    Family.FBBST: _FamilyData(1, ("G1", "G2"), ("Tmed_periodic", "Tmed_normal"),
                              fbbst_tpl_variance_constant,
                              lambda t: (harmonic(2 * t + 2) - harmonic(t + 1),
                                         harmonic(2 * t + 2, 2))),
    Family.QUADTREE: _FamilyData(1, ("P1", "P2"), ("Tquad_periodic", "Tquad_normal"),
                                 quadtree_ipl_variance_constant,
                                 lambda d: (harmonic(d), harmonic(d, 2))),
}

# every fixed-point map, and the family of every periodic factor
FIXED_POINT_MAPS = ("uniK", *(kind for data in _DATA.values() for kind in data.fixed_point_maps))
PERIODIC_KINDS = {kind: fam for fam, data in _DATA.items()
                  for kind in (*data.periodic_factors, data.correlation_factor) if kind}
