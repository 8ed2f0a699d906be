"""Exact and floating-point moment tables for the tree recurrences.

Every tracked quantity solves a recurrence of the shape

    a_n = (branches) * sum_j pi_{n,j} a_j + b_n

where pi is the law of one subtree size, and ``_recurrence`` is the one
loop that solves it.  The law enters only as a marginal operator:
push the next value of a, then read sum_j pi_{n,j} a_j.  It has two
implementations.

m-ary trees (t = 0) and fringe-balanced BSTs (m = 2) share the (m,t)
split law pi_{n,j} = C(j,t) C(n-1-j, D-1) / C(n, K), D = (m-1)(t+1),
K = m(t+1)-1.  C(., D-1) is a binomial difference kernel, so the sum over
g_j = C(j,t) a_j is a cascade of D running sums, O(D) work per step; the
same cascade fed C(j,t) must reproduce C(n, K), which is the float-mode
drift check.  Quadtree cell counts are a d-fold iterated uniform thinning
of n-1, so the operator is d nested prefix averages.

Mean rows are recurrence runs with each measure's toll and initial
segment (``FamilyInstance.measures``); a measure that also collects a
second measure of its subtrees (N gets S) adds m sum pi mu_S = mu_S - b_S
to its toll.  Second-order rows are runs with centred tolls: with
w_a(j) the subtree contribution to measure a and M_a = E sum_l w_a(I_l),

    b[V_ab] = E sum_l w_a(I_l) sum_r w_b(I_r) - M_a M_b
            = m sum pi w_a w_b + m(m-1) sum pi2 w_a w_b - M_a M_b,

plus m sum pi V of the rows the ``plus`` measures bring in.  The pair law
pi2_{n}(j,k) = C(j,t) C(k,t) C(n-2-j-k, D2-1) / C(n, K), D2 = (m-2)(t+1),
turns the double sum into a self-convolution of the C(j,t)-weighted rows
pushed through a pair cascade of depth D2.  Depth 0 is fbbst, whose two
subtree sizes determine each other: the pair sum is the convolution at
n-1.  Quadtree second moments need the pairwise cell-count law, whose
pair sums an exact O(d n^2) identity gives (ROADMAP item 3); that route is
not implemented, so they are refused here; use Monte Carlo.
"""
from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .families import FamilyInstance, mary
from .treesim import build_mary_tree

EXACT_CAP_DEFAULT = 300
FLOAT_CAP_DEFAULT = 20_000
FLOAT_DRIFT_TOL = 1e-8

MARY_ROWS = mary(3).row_names  # the same for every m
_CONV_CHUNK = 1024


class TableModeError(ValueError):
    pass


class FloatDriftError(ArithmeticError):
    """Float-mode weight normalisation drifted beyond 1e-8, or overflowed."""


class UnsupportedTableError(NotImplementedError):
    pass


# ---------------------------------------------------------------------------
# split laws as online marginal operators
# ---------------------------------------------------------------------------

class _Cascade:
    """After pushing a_0..a_F in order, level k-1 holds
    sum_j C(F-j+k-1, k-1) a_j; ``push`` returns the top level, which at
    depth 0 is the value just pushed."""

    __slots__ = ("levels",)

    def __init__(self, depth: int, zero):
        self.levels = [zero] * depth

    def push(self, value):
        acc = value
        levels = self.levels
        for i in range(len(levels)):
            levels[i] += acc
            acc = levels[i]
        return acc


def _check_caps(n_max: int, mode: str, cap: int | None):
    if mode not in ("exact", "float"):
        raise TableModeError(f"mode must be 'exact' or 'float', got {mode!r}")
    limit = cap if cap is not None else (
        EXACT_CAP_DEFAULT if mode == "exact" else FLOAT_CAP_DEFAULT)
    if n_max > limit:
        raise TableModeError(
            f"n_max = {n_max} exceeds the {mode}-mode cap {limit}; "
            "pass cap explicitly to override")


class _Law:
    """What both split laws share: the number field and the row type."""

    def __init__(self, exact: bool):
        self.exact = exact
        self.zero = Fraction(0) if exact else 0.0

    def row(self, values) -> Sequence:
        """A table row: a list in exact mode, packed doubles in float mode
        (a quarter of the memory of a list of floats)."""
        return list(values) if self.exact else array("d", values)


class _SplitLaw(_Law):
    """The (m,t) split law of a size-n node, n >= K = m(t+1)-1."""

    def __init__(self, m: int, t: int, n_max: int, exact: bool):
        super().__init__(exact)
        self.branches = m
        self.start = m * (t + 1) - 1
        self.depth = (m - 1) * (t + 1)
        self.pair_depth = (m - 2) * (t + 1)
        if not exact and math.comb(n_max, self.start) > sys.float_info.max:
            sizes = range(self.start, n_max + 1)
            n = sizes[bisect_left(sizes, True, key=lambda n: math.comb(
                n, self.start) > sys.float_info.max)]
            raise FloatDriftError(
                f"normaliser C(n, {self.start}) overflows a double from n = {n}; "
                "use exact mode")
        # C(j,t) for every size a subtree can take below n_max; zero beyond,
        # where each term of both laws vanishes anyway, so the weights stay
        # below C(n_max, K) and therefore finite in float mode
        last = n_max - self.depth
        self.weight = self.row(math.comb(j, t) if j <= last else 0 for j in range(n_max + 1))
        self.ones = self.row([1] * (n_max + 1))
        self.denoms = self.row(math.comb(n, self.start) for n in range(n_max + 1))
        if not exact:
            op = self.marginal()
            for n in range(self.start, n_max + 1):
                rel = abs(op(self.ones, n) - 1.0)
                if rel > FLOAT_DRIFT_TOL:
                    raise FloatDriftError(f"weight normalisation drift {rel:.2e} at n = {n}")

    def _operator(self, depth: int, lag: int, weight: list):
        casc, denoms = _Cascade(depth, self.zero), self.denoms

        def op(row, n):
            s = n - lag
            return casc.push(weight[s] * row[s]) / denoms[n]
        return op

    def marginal(self):
        """Operator called with (row, n) for n = start, start+1, ...: pushes
        row[n-D] and returns sum_j pi_{n,j} row[j]."""
        return self._operator(self.depth, self.depth, self.weight)

    def pair_marginal(self):
        """Operator over ``convolve``'s output: returns the pair sum
        sum_{j,k} pi2_{n}(j,k) f(j) g(k)."""
        return self._operator(self.pair_depth, self.pair_depth + 1, self.ones)

    def convolve(self, f: list, g: list) -> list:
        """c_s = sum_j C(j,t) f_j C(s-j,t) g_{s-j} for every s the pair
        operator reads; numpy in float mode."""
        length = max(0, len(f) - 1 - self.pair_depth)
        cf = self.row(c * x for c, x in zip(self.weight, f))
        cg = cf if f is g else self.row(c * x for c, x in zip(self.weight, g))
        if not self.exact:
            # np.convolve takes one BLAS dot product per output; past ~10^4
            # terms OpenBLAS splits a dot across threads, which made a
            # 20001-row convolution up to 100x slower on a busy machine.
            # Chunks of f keep every dot short and skip unread outputs.
            f_arr, g_arr, out = np.asarray(cf), np.asarray(cg), np.zeros(length)
            for k in range(0, length, _CONV_CHUNK):
                out[k:] += np.convolve(f_arr[k:k + _CONV_CHUNK], g_arr[:length - k])[:length - k]
            return self.row(out)
        if f is not g:
            return [sum((cf[j] * cg[s - j] for j in range(s + 1)), self.zero)
                    for s in range(length)]
        out = []
        for s in range(length):
            half = sum((cf[j] * cf[s - j] for j in range((s + 1) // 2)), self.zero)
            out.append(2 * half + (cf[s // 2] ** 2 if s % 2 == 0 else 0))
        return out


class _QuadtreeLaw(_Law):
    """Law of one cell count of a d-dimensional quadtree node: a d-fold
    iterated uniform thinning of n-1, so sum_j P(J=j) a_j = (T^d a)(n-1)
    with T the prefix-average operator; each T is one running sum."""

    start = 2

    def __init__(self, d: int, exact: bool):
        super().__init__(exact)
        self.d = d
        self.branches = 2 ** d

    def marginal(self):
        """Operator called with (row, n) for n = 2, 3, ...: pushes row[n-1]
        (and row[0] first) and returns (T^d row)(n-1)."""
        sums = [self.zero] * self.d
        pushed = 0

        def op(row, n):
            nonlocal pushed
            while pushed < n:
                acc = row[pushed]
                pushed += 1
                for i in range(len(sums)):
                    sums[i] += acc
                    acc = sums[i] / pushed
            return acc
        return op


def _law(instance: FamilyInstance, n_max: int, exact: bool):
    law = instance.split_law
    if law is None:
        return _QuadtreeLaw(instance.parameter, exact)
    return _SplitLaw(*law, n_max, exact)


def _recurrence(law, toll: Sequence, initial: Sequence, n_max: int) -> list:
    """a_n = branches * sum_j pi_{n,j} a_j + toll[n] for n >= law.start."""
    a = law.row(initial[n] if n < law.start else law.zero for n in range(n_max + 1))
    op, m = law.marginal(), law.branches
    for n in range(law.start, n_max + 1):
        a[n] = m * op(a, n) + toll[n]
    return a


# ---------------------------------------------------------------------------
# moment rows
# ---------------------------------------------------------------------------

def _mean_rows(instance: FamilyInstance, law, n_max: int) -> dict[str, list]:
    """Mean row of every measure, keyed by measure name."""
    means, tolls = {}, {}
    for meas in instance.measures:
        c, slope = meas.toll
        tolls[meas.name] = toll = law.row(c + slope * n for n in range(n_max + 1))
        if meas.plus:
            toll = law.row(b + mean - bp for b, mean, bp in
                           zip(toll, means[meas.plus], tolls[meas.plus]))
        initial = [law.zero] + [law.zero + meas.initial] * (law.start - 1)
        means[meas.name] = _recurrence(law, toll, initial, n_max)
    return means


def _covariance_rows(instance: FamilyInstance, law, means, n_max: int):
    """Second-order rows by centred tolls (module docstring)."""
    plus = {meas.name: meas.plus for meas in instance.measures}
    w = {a: row if plus[a] is None else law.row(x + y for x, y in zip(row, means[plus[a]]))
         for a, row in means.items()}
    m, zero = law.branches, law.zero
    first = {}  # M_a, through the same operator as the sums it is taken from
    for a, row in w.items():
        op = law.marginal()
        first[a] = law.row(m * op(row, n) if n >= law.start else zero
                           for n in range(n_max + 1))
    name = {frozenset((a, b)): row for row, a, b in instance.covariance_rows}
    rows = {}
    for row, a, b in instance.covariance_rows:
        prod = law.row(x * y for x, y in zip(w[a], w[b]))
        conv = law.convolve(w[a], w[b])
        sq_op, pair_op = law.marginal(), law.pair_marginal()
        # the rows whose m sum pi V the plus measures bring in
        extra = [(law.marginal(), rows[name[frozenset((a2, b2))]])
                 for a2 in (a, plus[a]) for b2 in (b, plus[b])
                 if None not in (a2, b2) and (a2, b2) != (a, b)]
        toll = law.row(zero if n < law.start else
                       m * sq_op(prod, n) + m * (m - 1) * pair_op(conv, n)
                       - first[a][n] * first[b][n] + m * sum(op(v, n) for op, v in extra)
                       for n in range(n_max + 1))
        rows[row] = _recurrence(law, toll, [zero] * law.start, n_max)
    return rows


# ---------------------------------------------------------------------------
# public tables
# ---------------------------------------------------------------------------

@dataclass
class MomentTable:
    """Per-n exact or floating moment rows for one family instance."""

    instance: FamilyInstance
    n_max: int
    mode: str
    columns: dict[str, list] = field(repr=False)

    @property
    def row_names(self) -> tuple[str, ...]:
        return self.instance.row_names

    def column(self, name: str) -> list:
        return self.columns[name]

    def cauchy_schwarz_ok(self) -> bool:
        for cov, va, vb in self.instance.cauchy_schwarz_triples:
            c, a, b = self.columns[cov], self.columns[va], self.columns[vb]
            for n in range(self.n_max + 1):
                bound = a[n] * b[n]
                slack = 0 if self.mode == "exact" else 1e-9 * (1.0 + abs(bound))
                if c[n] * c[n] > bound + slack:
                    return False
        return True

    def write_csv(self, fh) -> None:
        names = self.row_names
        fh.write("n," + ",".join(names) + "\n")
        for n in range(self.n_max + 1):
            cells = [str(n)]
            for name in names:
                v = self.columns[name][n]
                if isinstance(v, Fraction):
                    cells.append(f"{v.numerator}/{v.denominator}")
                else:
                    cells.append(f"{float(v):.17g}")
            fh.write(",".join(cells) + "\n")


def mean_tables(instance: FamilyInstance, n_max: int, mode: str = "exact",
                cap: int | None = None):
    """Family mean rows: (mu, kappa, nu) for mary, (s_mean, x_mean) for
    fbbst, (l_mean, xi_mean) for quadtree."""
    _check_caps(n_max, mode, cap)
    return tuple(_mean_rows(instance, _law(instance, n_max, mode == "exact"), n_max).values())


def second_moment_tables(instance: FamilyInstance, n_max: int, mode: str = "exact",
                         cap: int | None = None) -> MomentTable:
    """Full moment table (means plus all second-order rows)."""
    _check_caps(n_max, mode, cap)
    if instance.split_law is None:
        raise UnsupportedTableError(
            "quadtree second moments need the pairwise cell-count law, which "
            "is not implemented (ROADMAP item 3); use treesim.monte_carlo")
    law = _law(instance, n_max, mode == "exact")
    means = _mean_rows(instance, law, n_max)
    columns = {meas.row: means[meas.name] for meas in instance.measures}
    columns.update(_covariance_rows(instance, law, means, n_max))
    return MomentTable(instance=instance, n_max=n_max, mode=mode, columns=columns)


# ---------------------------------------------------------------------------
# permutation oracle
# ---------------------------------------------------------------------------

ORACLE_LIMIT = 9


@dataclass(frozen=True)
class OracleMoments:
    """Exact joint moments of (S, K, N) over all n! permutations."""

    n: int
    m: int
    mu: Fraction
    kappa: Fraction
    nu: Fraction
    VS: Fraction
    VSK: Fraction
    VK: Fraction
    VSN: Fraction
    VN: Fraction
    VKN: Fraction


def permutation_oracle(n: int, m: int) -> OracleMoments:
    """Ground truth by exhaustive tree construction over every permutation
    of {1..n}.  Refuses n > 9 (9! = 362880 trees is the budget)."""
    from itertools import permutations

    if n > ORACLE_LIMIT:
        raise ValueError(f"permutation oracle supports n <= {ORACLE_LIMIT}")
    if n == 0:
        zero = Fraction(0)
        return OracleMoments(n, m, *([zero] * 9))
    tot = [0] * 9  # S K N S2 SK K2 SN N2 KN
    for perm in permutations(range(1, n + 1)):
        meas = build_mary_tree(perm, m)
        s, k, nn = meas.S, meas.K, meas.N
        tot[0] += s; tot[1] += k; tot[2] += nn
        tot[3] += s * s; tot[4] += s * k; tot[5] += k * k
        tot[6] += s * nn; tot[7] += nn * nn; tot[8] += k * nn
    cnt = math.factorial(n)
    es, ek, en = (Fraction(tot[i], cnt) for i in range(3))
    return OracleMoments(
        n=n, m=m, mu=es, kappa=ek, nu=en,
        VS=Fraction(tot[3], cnt) - es * es,
        VSK=Fraction(tot[4], cnt) - es * ek,
        VK=Fraction(tot[5], cnt) - ek * ek,
        VSN=Fraction(tot[6], cnt) - es * en,
        VN=Fraction(tot[7], cnt) - en * en,
        VKN=Fraction(tot[8], cnt) - ek * en,
    )


# ---------------------------------------------------------------------------
# growth-exponent fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual: float            # max |log residual| of the fit
    detrended_amplitude: float  # (max - min)/2 of fit residuals


def growth_exponent(values, n_grid) -> GrowthFit:
    """Least-squares slope of log(value) against log(n) on the grid.

    ``values`` is indexable by n (a table column).  Non-positive entries
    abort with the first offending n named.
    """
    xs, ys = [], []
    for n in n_grid:
        v = float(values[n])
        if not v > 0.0:
            raise ValueError(f"non-positive value {v} at n = {n}")
        xs.append(math.log(n))
        ys.append(math.log(v))
    A = np.vstack([xs, np.ones(len(xs))]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    resid = np.array(ys) - A @ np.array([slope, intercept])
    return GrowthFit(
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.abs(resid).max()),
        detrended_amplitude=float((resid.max() - resid.min()) / 2.0),
    )
