"""Exact and floating-point moment tables for the tree recurrences.

Every tracked quantity solves a recurrence a_n = branches * sum_j
pi_{n,j} a_j + b_n, pi the law of one subtree size.  The law enters only
as a marginal operator: push the next value of a, then read
sum_j pi_{n,j} a_j.  ``_recurrence`` is the one causal loop that calls it
per n, since a_n reads its own row; every other operator reads a finished
row, and ``_SplitLaw.run`` gives all its values at once, bit for bit.

Every family runs on the (m,t) split law pi_{n,j} = C(j,t)
C(n-1-j, D-1) / C(n, K), D = (m-1)(t+1), K = m(t+1)-1: m-ary trees are
t = 0, fringe-balanced BSTs m = 2.  C(., D-1) is a binomial difference
kernel, so the sum over g_j = C(j,t) a_j is a cascade of D running sums
(over a finished row, D cumulative sums); fed C(j,t), it must reproduce
C(n, K), the float-mode drift check.  A quadtree(d) cell count chains
the (2,0) split (a uniform size 0..n-1) once per coordinate.

Mean rows solve the recurrence with each measure's toll and initial
segment (``FamilyInstance.measures``); a measure that also collects a
second measure of its subtrees (N gets S) adds m sum pi mu_S = mu_S - b_S
to its toll.  Second-order rows solve it with centred tolls: with w_a(j)
the subtree contribution to measure a and M_a = E sum_l w_a(I_l),

    b[V_ab] = E sum_l w_a(I_l) sum_r w_b(I_r) - M_a M_b
            = m sum pi w_a w_b + m(m-1) sum pi2 w_a w_b - M_a M_b,

plus m sum pi V of the rows the ``plus`` measures bring in.  The pair law
pi2_{n}(j,k) = C(j,t) C(k,t) C(n-2-j-k, D2-1) / C(n, K), D2 = (m-2)(t+1),
turns the double sum into a self-convolution of the C(j,t)-weighted rows
pushed through a pair cascade of depth D2 (depth 0, fbbst: the
convolution at n-1).  Quadtree second moments need the pairwise
cell-count law (ROADMAP item 3, not implemented); they are refused here.
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

EXACT_CAP = 300
FLOAT_CAP = 20_000
FLOAT_DRIFT_TOL = 1e-8

MARY_ROWS = mary(3).row_names  # the same for every m
_CONV_CHUNK = 1024


class TableModeError(ValueError):
    pass


class FloatDriftError(ArithmeticError):
    """Float-mode weight normalisation drifted beyond 1e-8, or overflowed
    (the normaliser, or the branch count)."""


class UnsupportedTableError(NotImplementedError):
    pass


# ---------------------------------------------------------------------------
# split laws as marginal operators
# ---------------------------------------------------------------------------

class _SplitLaw:
    """The (m,t) split law of a size-n node, n >= K = m(t+1)-1, applied
    ``chain`` times (quadtree(d): once per coordinate, 2^d branches).
    Operator specs (depth, lag, weight, chain): ``marginal`` reads
    sum_j pi_{n,j} row[j], ``pair`` sum_{j,k} pi2_{n}(j,k) f(j) g(k)
    from ``convolve``'s output."""

    def __init__(self, m: int, t: int, n_max: int, exact: bool, chain: int = 1):
        self.exact, self.zero, self.branches = exact, Fraction(0) if exact else 0.0, m ** chain
        # the operators are fed from n = K, the recurrence starts there too
        # but at 2 at the least: a size-1 node is a leaf with its initial value
        self.size = m * (t + 1) - 1
        self.start = max(self.size, 2)
        depth, self.pair_depth = (m - 1) * (t + 1), (m - 2) * (t + 1)
        if not exact and math.comb(n_max, self.size) > sys.float_info.max:
            n = bisect_left(range(n_max + 1), True, self.size,
                            key=lambda n: math.comb(n, self.size) > sys.float_info.max)
            raise FloatDriftError(f"normaliser C(n, {self.size}) overflows a double "
                                  f"from n = {n}; use exact mode")
        # C(j,t) for every size a subtree can take below n_max; zero beyond,
        # where each term of both laws vanishes anyway, so the weights stay
        # below C(n_max, K) and therefore finite in float mode
        self.weight = self.row(math.comb(j, t) if j <= n_max - depth else 0
                               for j in range(n_max + 1))
        ones = self.row([1] * (n_max + 1))
        self.denoms = self.row(math.comb(n, self.size) for n in range(n_max + 1))
        self.marginal = (depth, depth, self.weight, chain)
        self.pair = (self.pair_depth, self.pair_depth + 1, ones, 1)
        if not exact:  # the drift check
            rel = np.abs(self.run(self.marginal, ones, self.size)[self.size:] - 1.0)
            for i in np.flatnonzero(rel > FLOAT_DRIFT_TOL)[:1]:
                raise FloatDriftError(
                    f"weight normalisation drift {rel[i]:.2e} at n = {self.size + i}")

    def row(self, values) -> Sequence:
        """A table row: a list in exact mode, packed doubles (a quarter of a
        float list's memory) in float mode.  ``_recurrence`` reads it by n."""
        return list(values) if self.exact else array("d", values)

    def array(self, row) -> np.ndarray:
        """A row as numpy numbers of the mode (float: a view, no copy)."""
        return np.asarray(row, dtype=object if self.exact else float)

    def operator(self, spec):
        """Operator called with (row, n) for n = K, K+1, ...: pushes
        weight[n-lag] row[n-lag] into a cascade of ``depth`` running sums and
        returns the top level over C(n, K), which a chained law pushes into
        its next cascade.  Cascade invariant: after pushing a_0..a_F, level
        k-1 holds sum_j C(F-j+k-1, k-1) a_j (depth 0: the value pushed)."""
        depth, lag, weight, chain = spec
        stages, denoms = [[self.zero] * depth for _ in range(chain)], self.denoms

        def op(row, n):
            s = n - lag
            acc = row[s]
            for levels in stages:
                acc = weight[s] * acc
                for i in range(depth):
                    levels[i] += acc
                    acc = levels[i]
                acc = acc / denoms[n]
            return acc
        return op

    def run(self, spec, row: Sequence, n0: int) -> np.ndarray:
        """What a fresh ``operator(spec)`` returns for the finished ``row`` at
        n = n0..n_max (zero below n0), by whole-row operations: cumsum adds
        left to right as the running sums do.  A running sum's first value is
        0 + x, which turns -0.0 into 0.0, so each cumsum's first term gets + 0."""
        depth, lag, weight, chain = spec
        n_max = len(self.denoms) - 1
        acc, weight = (self.array(x)[n0 - lag:n_max + 1 - lag] for x in (row, weight))
        for _ in range(chain):
            acc = weight * acc
            for _ in range(depth):
                acc[:1] += self.zero
                acc = np.cumsum(acc)
            acc = acc / self.array(self.denoms)[n0:]
        out = np.full(n_max + 1, self.zero, dtype=acc.dtype)
        out[n0:] = acc
        return out

    def convolve(self, f: Sequence, g: Sequence) -> Sequence:
        """c_s = sum_j C(j,t) f_j C(s-j,t) g_{s-j} for each s the pair operator reads."""
        length = max(0, len(f) - 1 - self.pair_depth)
        weight = self.array(self.weight)
        cf = weight * self.array(f)
        cg = cf if f is g else weight * self.array(g)
        if not self.exact:
            # np.convolve takes one BLAS dot per output, which OpenBLAS threads past
            # ~10^4 terms (a 20001-row convolution ran up to 100x slower on a busy
            # machine); chunks of f keep every dot short and skip unread outputs.
            out = np.zeros(length)
            for k in range(0, length, _CONV_CHUNK):
                out[k:] += np.convolve(cf[k:k + _CONV_CHUNK], cg[:length - k])[:length - k]
            return out
        cf, cg = cf.tolist(), cg.tolist()
        if f is not g:
            return [sum((cf[j] * cg[s - j] for j in range(s + 1)), self.zero)
                    for s in range(length)]
        out = []
        for s in range(length):
            half = sum((cf[j] * cf[s - j] for j in range((s + 1) // 2)), self.zero)
            out.append(2 * half + (cf[s // 2] ** 2 if s % 2 == 0 else 0))
        return out


def _law(instance: FamilyInstance, n_max: int, mode: str) -> _SplitLaw:
    """The split law of ``instance`` in ``mode`` up to n_max within the mode's cap."""
    if mode not in ("exact", "float"):
        raise TableModeError(f"mode must be 'exact' or 'float', got {mode!r}")
    limit = EXACT_CAP if mode == "exact" else FLOAT_CAP
    if n_max > limit:
        raise TableModeError(f"n_max = {n_max} exceeds the {mode}-mode cap {limit}")
    if mode == "float" and instance.branches > sys.float_info.max:  # quadtree(d), d >= 1024
        raise FloatDriftError(f"the branch count of {instance} exceeds the double range; "
                              "use exact mode")
    if instance.split_law is None:  # quadtree(d)
        return _SplitLaw(2, 0, n_max, mode == "exact", chain=instance.parameter)
    return _SplitLaw(*instance.split_law, n_max, mode == "exact")


def _recurrence(law, toll: Sequence, initial: Sequence, n_max: int) -> Sequence:
    """a_n = branches * sum_j pi_{n,j} a_j + toll[n] for n >= law.start."""
    a = law.row(initial[n] if n < law.start else law.zero for n in range(n_max + 1))
    op, m, toll = law.operator(law.marginal), law.branches, law.array(toll).tolist()
    for n in range(law.size, law.start):  # initial values the operator still reads
        op(a, n)
    for n in range(law.start, n_max + 1):
        a[n] = m * op(a, n) + toll[n]
    return a


# ---------------------------------------------------------------------------
# moment rows
# ---------------------------------------------------------------------------

def _mean_rows(instance: FamilyInstance, law, n_max: int) -> dict[str, Sequence]:
    """Mean row of every measure, keyed by measure name."""
    means, tolls = {}, {}
    for meas in instance.measures:
        c, slope = meas.toll
        tolls[meas.name] = toll = law.row(c + slope * n for n in range(n_max + 1))
        if meas.plus:
            toll = law.array(toll) + law.array(means[meas.plus]) - law.array(tolls[meas.plus])
        initial = [law.zero] + [law.zero + meas.initial] * (law.start - 1)
        means[meas.name] = _recurrence(law, toll, initial, n_max)
    return means


def _covariance_rows(instance: FamilyInstance, law, means, n_max: int):
    """Second-order rows by centred tolls (module docstring), each term a run."""
    plus = {meas.name: meas.plus for meas in instance.measures}
    w = {a: law.array(row) if plus[a] is None else law.array(row) + law.array(means[plus[a]])
         for a, row in means.items()}
    m, start = law.branches, law.start
    # M_a, through the same operator as the sums it is taken from
    first = {a: m * law.run(law.marginal, row, start) for a, row in w.items()}
    name = {frozenset((a, b)): row for row, a, b in instance.covariance_rows}
    rows = {}
    for row, a, b in instance.covariance_rows:
        # the rows whose m sum pi V the plus measures bring in
        extra = [rows[name[frozenset((a2, b2))]]
                 for a2 in (a, plus[a]) for b2 in (b, plus[b])
                 if None not in (a2, b2) and (a2, b2) != (a, b)]
        toll = (m * law.run(law.marginal, w[a] * w[b], start)
                + m * (m - 1) * law.run(law.pair, law.convolve(w[a], w[b]), start)
                - first[a] * first[b] + m * sum(law.run(law.marginal, v, start) for v in extra))
        rows[row] = _recurrence(law, toll, [law.zero] * start, n_max)
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


def mean_tables(instance: FamilyInstance, n_max: int, mode: str = "exact"):
    """Family mean rows: (mu, kappa, nu) for mary, (s_mean, x_mean) for
    fbbst, (l_mean, xi_mean) for quadtree."""
    return tuple(_mean_rows(instance, _law(instance, n_max, mode), n_max).values())


def second_moment_tables(instance: FamilyInstance, n_max: int, mode: str = "exact") -> MomentTable:
    """Full moment table (means plus all second-order rows)."""
    if instance.split_law is None:
        raise UnsupportedTableError(
            "quadtree second moments need the pairwise cell-count law, which "
            "is not implemented (ROADMAP item 3); use treesim.monte_carlo")
    law = _law(instance, n_max, mode)
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

    from .treesim import build_mary_tree

    if n > ORACLE_LIMIT:
        raise ValueError(f"permutation oracle supports n <= {ORACLE_LIMIT}")
    if n == 0:
        return OracleMoments(n, m, *([Fraction(0)] * 9))
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
    residual: float  # max |log residual| of the fit


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
    return GrowthFit(slope=float(slope), residual=float(np.abs(resid).max()))
