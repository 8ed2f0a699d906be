"""Monte Carlo simulation of random search trees.

Two routes are provided and cross-checked: explicit m-ary tree construction
from a permutation (the insertion procedure), and split-size recursion that
samples subtree sizes directly from each family's split law

    mary, fbbst:  the (m,t) law with t = 0 and m = 2 respectively: m(t+1)-1
                  distinct key ranks out of n, of which every (t+1)-th,
                  from the (t+1)-st on, is a split key,
    quadtree:     the cell counts from a uniform rank of the node's point in
                  each coordinate and a chain of hypergeometric draws.

The recursion stops at a cutoff size K: a subtree of size k < K draws its
whole measure tuple at once from a table of its exact joint law, built by
running the split law on distributions (``small_laws``).  The table build
is capped by a fixed amount of work, so K depends on the family instance
only; it is built once per process and holds no randomness.

Replicates are simulated level-synchronously in fixed blocks of 1024, each
block on its own counter-based Philox stream keyed by (seed, block index),
so results are bit-identical for a given seed regardless of thread count.
Statistics accumulate as exact integer power sums and merge associatively.

A level of a block is held in flat arrays that grow with n.  Replicate
indices are int32 (a block holds 1024 replicates); subtree sizes, and the
key ranks and cell counts drawn from them, are int32 when n + 1 < 2^31 and
int64 otherwise, a choice made from n alone.  The dtype moves no draw: the
generator is always asked for int64 values.  The leaves of a level draw
and sum their measures LEAF_SLICE at a time, so those temporaries stop
growing with the level.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_right, insort
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .families import FamilyInstance

BLOCK = 1024  # replicates per RNG stream; fixed so --threads cannot change draws

# The sampling routes draw the cells of many splits at once, as (rows, 2^d)
# arrays of 8-byte volumes, or of counts of at most 8 bytes, with at most
# CELL_ROWS rows: a fixed-point chunk, or a chunk of a Monte Carlo level.  One
# must fit MAX_CELL_BYTES.
CELL_ROWS = 16_384
MAX_CELL_BYTES = 64 * 2**20


class DepthCapError(RuntimeError):
    """Recursion exceeded 64 log2(n) + 64 levels (pathological stream guard)."""


class TreeMeasures(NamedTuple):
    """Shape measures of one m-ary search tree: node count S, key path
    length K, node path length N."""

    S: int
    K: int
    N: int


def build_mary_tree(permutation, m: int) -> TreeMeasures:
    """Insert the keys in order and measure (S, K, N).

    A node stores up to m-1 sorted keys; once full it routes new keys into
    one of its m child intervals.  Measures accumulate incrementally: a key
    stored at depth delta adds delta to K, a node created at depth delta
    adds delta to N and one to S.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    keys_seen = set()
    cap = m - 1
    root = None
    S = K = N = 0
    for x in permutation:
        if x in keys_seen:
            raise ValueError(f"duplicate key {x!r}")
        keys_seen.add(x)
        if root is None:
            root = [[x], None]
            S += 1
            continue
        node = root
        depth = 0
        while True:
            keys = node[0]
            if len(keys) < cap:
                insort(keys, x)
                K += depth
                break
            if node[1] is None:
                node[1] = [None] * m
            idx = bisect_right(keys, x)
            depth += 1
            child = node[1][idx]
            if child is None:
                node[1][idx] = [[x], None]
                S += 1
                K += depth
                N += depth
                break
            node = child
    return TreeMeasures(S, K, N)


# ---------------------------------------------------------------------------
# split sampling
# ---------------------------------------------------------------------------

def _floyd_distinct(rng, n_arr: np.ndarray, k: int) -> np.ndarray:
    """Floyd's algorithm, vectorised across rows: k distinct uniform values
    from {1..n_arr[i]} per row (unsorted), of n_arr's dtype."""
    rows = n_arr.shape[0]
    chosen = np.zeros((rows, k), dtype=n_arr.dtype)
    for i in range(k):
        j = n_arr - k + 1 + i
        t = rng.integers(1, j + 1)
        if i:
            dup = (chosen[:, :i] == t[:, None]).any(axis=1)
            chosen[:, i] = np.where(dup, j, t)
        else:
            chosen[:, 0] = t
    return chosen


# Rows of at most SMALL_ROW values are sorted by compare-exchanges of whole
# columns (np.minimum and np.maximum give the values np.sort gives, ties
# included), longer ones by np.sort(axis=1), which costs 30-60 ns a row at
# any length.  On 16,384 rows (2-core x86-64, numpy 2.4.6) the network took
# 0.07 ms for 2 columns and 0.10-0.18 ms for 3, np.sort 0.5-1.3 ms; at 26
# columns np.sort took 1.5 ms and the network 5.4 ms.  Rows of 2 and 3 values
# (mary(3), fbbst(1)) and of 26 (mary(27)) are the ones a benchmark workload
# runs, so the crossover between 4 and 25 values is not measured, and the
# network is kept to the rows measured.
SMALL_ROW = 3


def sorted_small_rows(a: np.ndarray) -> np.ndarray:
    """np.sort(a, axis=1).T as a contiguous array, for a of at most
    SMALL_ROW columns."""
    cols = a.T.copy()
    for end in reversed(range(cols.shape[0])):
        for i in range(end):
            low = np.minimum(cols[i], cols[i + 1])
            np.maximum(cols[i], cols[i + 1], out=cols[i + 1])
            cols[i] = low
    return cols


def sorted_gaps(a: np.ndarray, low, high, step: int = 1) -> np.ndarray:
    """Gaps between consecutive keys of each row of a, with ``low`` before
    and ``high`` after them: the keys are columns step-1, 2 step-1, ... of
    the row sorted.  Returns (rows, a.shape[1] // step + 1) of a's dtype;
    rows longer than SMALL_ROW are sorted in a itself."""
    if a.shape[1] > SMALL_ROW:
        a.sort(axis=1)
        cols = a.T
    else:
        cols = sorted_small_rows(a)
    keys = cols[step - 1 :: step]
    out = np.empty((a.shape[0], keys.shape[0] + 1), dtype=a.dtype)
    np.subtract(keys[0], low, out=out[:, 0])
    np.subtract(keys[1:], keys[:-1], out=out[:, 1:-1].T)
    np.subtract(high, keys[-1], out=out[:, -1])
    return out


def _law_splits(rng, m: int, t: int, sizes: np.ndarray) -> np.ndarray:
    """Subtree sizes below splitting nodes of the (m,t) law: gaps between
    the split keys, which are columns t, 2t+1, ... of m(t+1)-1 sorted
    distinct key ranks.  Returns (rows, m) array of sizes' dtype."""
    gaps = sorted_gaps(_floyd_distinct(rng, sizes, m * (t + 1) - 1), 0, sizes + 1, t + 1)
    gaps -= 1
    return gaps


def sample_volumes(d: int, rng, size: int) -> np.ndarray:
    """Cell volumes of a uniform point of [0,1]^d: (size, 2^d) rows.  Factor l
    turns the first 2^l columns into (those times x_l, those times 1 - x_l)."""
    x = rng.random((size, d))
    while ((x <= 0.0) | (x >= 1.0)).any():
        bad = ((x <= 0.0) | (x >= 1.0)).any(axis=1)
        x[bad] = rng.random((int(bad.sum()), d))
    vol = np.empty((size, 2 ** d))
    vol[:, 0] = 1.0
    for l in range(d):
        xl = x[:, l : l + 1]
        block = vol[:, : 2 ** l]
        np.multiply(block, 1.0 - xl, out=vol[:, 2 ** l : 2 ** (l + 1)])
        np.multiply(block, xl, out=block)
    return vol


def check_cells(instance: FamilyInstance) -> None:
    """Reject, before any draw, a quadtree whose (CELL_ROWS, 2^d) cell array
    would exceed MAX_CELL_BYTES, i.e. d > 9.  The (m,t) laws always pass."""
    max_d = (MAX_CELL_BYTES // (8 * CELL_ROWS)).bit_length() - 1
    if instance.split_law is None and instance.parameter > max_d:
        raise ValueError(
            f"{instance}: sampling draws {CELL_ROWS} rows of 2^d cells at once, over the "
            f"{MAX_CELL_BYTES >> 20} MiB cell-array limit for d > {max_d}")


def _cell_splits(rng, d: int, sizes: np.ndarray) -> np.ndarray:
    """Cell counts of the size - 1 other points around a d-dimensional
    quadtree node, from coordinate ranks: a (rows, 2^d) view of sizes' dtype,
    columns laid out as ``sample_volumes`` lays out the volumes.

    In coordinate l the node's point has a uniform rank, so a_l ~ U{0..size-1}
    of the other points lie below it, and they form a uniform a_l-subset,
    independent across coordinates.  Coordinate l therefore splits each of
    the 2^l cells so far into its points below (cell c) and above (cell
    2^l + c) by a multivariate hypergeometric draw of a_l, chained over the
    cells (``left`` of the a_l points are still to place, among the ``rest``
    points of the cells not yet split); the last cell takes what is left.
    Cells are filled as contiguous rows of a (2^d, rows) array.  numpy's
    hypergeometric takes counts below 10^9, so sizes may reach 10^9."""
    cells = np.empty((2 ** d, sizes.shape[0]), dtype=sizes.dtype)
    cells[0] = sizes - 1
    for l in range(d):
        width = 2 ** l
        left, rest = rng.integers(0, sizes), sizes - 1
        for count, above in zip(cells[:width - 1], cells[width:]):
            low = rng.hypergeometric(count, rest - count, left)
            np.subtract(count, low, out=above)
            rest -= count
            left -= low
            count[...] = low
        np.subtract(cells[width - 1], left, out=cells[2 * width - 1])
        cells[width - 1] = left
    return cells.T


def _splits(instance: FamilyInstance, rng, sizes: np.ndarray) -> np.ndarray:
    """Subtree sizes below splitting nodes of the given sizes, one row each."""
    law = instance.split_law
    if law is not None:
        return _law_splits(rng, *law, sizes)
    return _cell_splits(rng, instance.parameter, sizes)


def _children(instance: FamilyInstance, rng, sizes: np.ndarray, rep: np.ndarray):
    """Sizes and replicate indices of the non-empty subtrees below splitting
    nodes of the given sizes.  Quadtree rows are split CELL_ROWS at a time,
    so no cell array of a level outgrows MAX_CELL_BYTES, whatever n is."""
    chunk = CELL_ROWS if instance.split_law is None else sizes.size
    parts = []
    for lo in range(0, sizes.size, chunk):
        gaps = _splits(instance, rng, sizes[lo:lo + chunk])
        flat = gaps.ravel()  # row by row: each node's subtrees in turn
        keep = np.flatnonzero(flat)
        parts.append((flat.take(keep), rep[lo:lo + chunk].take(keep // gaps.shape[1])))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(col) for col in zip(*parts))


# ---------------------------------------------------------------------------
# exact laws of small subtrees
# ---------------------------------------------------------------------------

# A table build stops before the convolution that would take its products
# of table entries past TABLE_WORK (about 0.2 s of one core), a convolution
# counting CALL_WORK more on its own; it tabulates at most CUTOFF_SPAN sizes
# from the split threshold on.  The cutoff is therefore a function of the
# instance alone.
TABLE_WORK = 300_000
CALL_WORK = 10
CUTOFF_SPAN = 64


class _OverBudget(Exception):
    pass


class _Work:
    def __init__(self, units: int):
        self.left = units

    def spend(self, units: int) -> None:
        if units > self.left:
            raise _OverBudget
        self.left -= units


def _convolve_into(out: dict, a: dict, b: dict, weight: int, work: _Work) -> None:
    """out += weight * (a * b): laws are counts keyed by packed measure
    tuples, so the key of a sum of two tuples is the sum of their keys."""
    work.spend(len(a) * len(b) + CALL_WORK)
    b = [(key, count * weight) for key, count in b.items()]
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b:
            out[ka + kb] = get(ka + kb, 0) + ca * cb


def _law_counts(m: int, t: int, start: int, laws: list, lift, point, work: _Work):
    """Yields the laws of sizes k = 0, 1, ... of the (m,t) law as counts
    over k!: the point mass ``point(k)`` below ``start``, and from there
    the law of the summed lifted tuples of the subtrees, to which the
    caller adds the toll.

    P(I = j) = prod_l C(j_l,t) / C(k,M), M = m(t+1)-1, so k! P_k is
    M!/t!^m times the m-fold binomial convolution over i_l = j_l - t of
    the counts (j_l)! P_{j_l}: casc[r][s] folds r+1 subtrees holding
    s + (r+1)t keys in all."""
    big_m = m * (t + 1) - 1
    scale = math.factorial(big_m) // math.factorial(t) ** m
    casc = [[] for _ in range(m)]
    for k in range(start):
        yield {point(k): math.factorial(k)}
    for k in itertools.count(start):
        while len(casc[0]) <= k - big_m:
            s = len(casc[0])
            casc[0].append(lift(laws[s + t]))
            for r in range(1, m):
                acc = {}
                for i in range(s + 1):
                    _convolve_into(acc, casc[r - 1][s - i], casc[0][i], math.comb(s, i), work)
                casc[r].append(acc)
        yield {key: count * scale for key, count in casc[m - 1][k - big_m].items()}


def _cell_counts(d: int, laws: list, lift, point, work: _Work):
    """Yields the laws of sizes k = 0, 1, ... of the d-dimensional quadtree
    as counts over k!^d: point masses at k = 0 and 1, and from there the
    law of the summed tuples of the 2^d cells, to which the caller adds
    the toll.

    The k-1 other points fall in the cells of the root point x by a
    multinomial over its cell volumes; integrating each coordinate x_l out
    gives the Beta integral a_l! b_l! / k! of the a_l points below x_l and
    the b_l above it.  groups[r][s] maps the low counts of the r last
    coordinates to the law of a block of 2^r cells holding s points, as
    counts over s!^(d+1); two halves of a block join with weight
    C(s, s_low)^(d+1).  The node sums groups[d][k-1] over the low counts a
    with weight 1 / prod_l C(k-1, a_l), which leaves integers over k!^d."""
    groups = [[] for _ in range(d + 1)]
    for k in range(2):
        yield {point(k): 1}
    for k in itertools.count(2):
        s = k - 1
        while len(groups[0]) <= s:
            j = len(groups[0])
            groups[0].append({(): lift(laws[j])})
            for r in range(1, d + 1):
                acc = {}
                for low in range(j + 1):
                    weight = math.comb(j, low) ** (d + 1)
                    for a_lo, lo in groups[r - 1][low].items():
                        for a_hi, hi in groups[r - 1][j - low].items():
                            key = (low, *map(operator.add, a_lo, a_hi))
                            _convolve_into(acc.setdefault(key, {}), lo, hi, weight, work)
                groups[r].append(acc)
        whole = math.factorial(s) ** d
        law = {}
        for lows, counts in groups[d][s].items():
            weight = whole // math.prod(math.comb(s, a) for a in lows)
            for key, count in counts.items():
                law[key] = law.get(key, 0) + count * weight
        yield {key: count // whole for key, count in law.items()}


# Draws are searched in the CDF through a guide table: bucket b holds the
# draws x with floor(x 2^GUIDE_BITS) = b, and guide[b] is the number of CDF
# entries <= b / 2^GUIDE_BITS.  One probe from there finds the entry of every
# draw whose bucket holds at most one entry (measured faster than two probes);
# the few others fall back to a binary search.  Scaling by a power of two and
# flooring are exact, so the entry is the one a binary search of the whole
# CDF returns.
GUIDE_BITS = 12

# SmallLaws.sums draws and sums the leaves of a level this many at a time.
# Generator.random continues one stream across calls and the per-replicate
# totals are exact integer sums, so the slice moves no draw and no bit.
LEAF_SLICE = 2**16


def _size_plus_uniform(rng, k: np.ndarray) -> np.ndarray:
    """k + u, u ~ U[0,1), as float64 below k + 1: the sum rounds up to k + 1
    for u within an ulp of k of 1, and is then taken down to the largest
    double below the integer k + 1, which is (k + 1)(1 - 2^-53)."""
    x = rng.random(k.size)
    k = k.astype(np.float64)
    x += k
    k += 1.0
    k *= np.nextafter(1.0, 0.0)
    return np.minimum(x, k, out=x)


class SmallLaws(NamedTuple):
    """Exact joint laws of ``instance.measures`` for the subtree sizes
    k < cutoff: ``counts[k]`` maps a measure tuple to an integer count, out
    of the sum of its counts.  ``cdf`` and ``columns`` hold the same laws for
    sampling: the entries of size k, in tuple order, carry k plus their
    cumulative probability, so one search for k + u, u ~ U[0,1), draws
    from the law of k, and k itself finds its point mass.  ``columns[i]``
    holds measure i of every entry, as float64 (exact: small integers), and
    ``guide`` the guide table of the searched sizes threshold <= k < cutoff."""

    cutoff: int
    threshold: int
    counts: tuple[Mapping[tuple[int, ...], int], ...]
    cdf: np.ndarray
    columns: np.ndarray
    guide: np.ndarray

    def search(self, x: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cdf, x, "right")`` for draws threshold <= x < cutoff.
        The CDF ends in the entry cutoff, which no draw reaches, so a probe
        never runs past it."""
        entry = self.guide.take((x * 2.0**GUIDE_BITS).astype(np.intp)
                                - (self.threshold << GUIDE_BITS))
        entry += self.cdf.take(entry) <= x
        slow = np.flatnonzero(self.cdf.take(entry) <= x)
        if slow.size:
            entry[slow] = np.searchsorted(self.cdf, x.take(slow), side="right")
        return entry

    def sums(self, rng, sizes: np.ndarray, rep: np.ndarray, reps: int) -> np.ndarray:
        """Draw the measures of subtrees of the given sizes (< cutoff) and
        add them up per replicate: (measures, reps) int64.  Sizes below the
        split threshold have point-mass laws and take no draw."""
        total = np.zeros((len(self.columns), reps))
        for lo in range(0, sizes.size, LEAF_SLICE):
            part = sizes[lo:lo + LEAF_SLICE]
            # each size k below the threshold holds one entry, the k-th
            entry = part.astype(np.intp)
            drawn = np.flatnonzero(part >= self.threshold)
            if drawn.size:
                entry[drawn] = self.search(_size_plus_uniform(rng, part.take(drawn)))
            for out, col in zip(total, self.columns):
                out += np.bincount(rep[lo:lo + LEAF_SLICE], weights=col.take(entry),
                                   minlength=reps)
        return total.astype(np.int64)


@functools.lru_cache(maxsize=None)
def small_laws(instance: FamilyInstance, span: int = CUTOFF_SPAN) -> SmallLaws:
    """The exact small-subtree laws of an instance, built once per process.

    Sizes are added in turn from the split threshold on, up to ``span`` of
    them, until the next one would pass TABLE_WORK; the cutoff K is the
    first size left out.  A subtree hands its parent X + P for a measure X
    with ``plus`` P (``lift``), and the parent adds its toll.  Laws are
    keyed by the measure tuple packed into one integer while they are
    built, so that adding keys adds tuples."""
    measures = instance.measures
    names = [meas.name for meas in measures]
    start = instance.split_threshold
    width = 2 * (start + span).bit_length() + 1  # bits of one measure in a key
    mask = (1 << width) - 1
    shifts = [width * i for i in reversed(range(len(measures)))]  # keys sort as tuples
    plus = [(shifts[i], shifts[names.index(meas.plus)])
            for i, meas in enumerate(measures) if meas.plus]

    def pack(values):
        return sum(v << shift for v, shift in zip(values, shifts))

    def unpack(key):
        return tuple((key >> shift) & mask for shift in shifts)

    def lift(law):
        if not plus:
            return law
        return {key + sum(((key >> src) & mask) << dst for dst, src in plus): count
                for key, count in law.items()}

    def point(k):
        return pack(meas.initial if k else 0 for meas in measures)

    laws, work = [], _Work(TABLE_WORK)
    split_law = instance.split_law
    steps = (_cell_counts(instance.parameter, laws, lift, point, work) if split_law is None
             else _law_counts(*split_law, start, laws, lift, point, work))
    try:
        for k in range(start + span):
            counts = next(steps)
            if k >= start:
                toll = pack(c + s * k for c, s in (meas.toll for meas in measures))
                counts = {key + toll: count for key, count in counts.items()}
            laws.append(counts)
    except _OverBudget:
        pass
    # the cache hands the same tables to every caller: make them read-only
    tables = tuple(MappingProxyType({unpack(key): law[key] for key in sorted(law)})
                   for law in laws)
    cdf, values = [], []
    for k, law in enumerate(tables):
        total, acc = sum(law.values()), 0
        for value, count in law.items():
            acc += count
            cdf.append(k + acc / total)
            values.append(value)
    cdf = np.array(cdf)
    columns = np.array(values, dtype=np.float64).reshape(len(values), len(measures)).T.copy()
    edges = np.arange(start << GUIDE_BITS, len(tables) << GUIDE_BITS) / 2.0**GUIDE_BITS
    guide = np.searchsorted(cdf, edges, side="right")
    cdf.flags.writeable = columns.flags.writeable = guide.flags.writeable = False
    return SmallLaws(len(tables), start, tables, cdf, columns, guide)


# ---------------------------------------------------------------------------
# split-size recursion
# ---------------------------------------------------------------------------

def _select(mask: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The elements of each array where mask holds, in order: one index
    array and a take each, faster than boolean indexing by a scattered mask."""
    at = np.flatnonzero(mask)
    return tuple(a.take(at) for a in arrays)


def _depth_cap(n: int) -> int:
    return 64 * max(1, math.ceil(math.log2(max(2, n)))) + 64


def _simulate_block(instance: FamilyInstance, n: int, reps: int, rng):
    """Level-synchronous split recursion for a block of replicates.
    Returns the per-replicate measure columns as int64 arrays, in the order
    of ``instance.measures``.

    A subtree smaller than the cutoff of ``small_laws`` draws all its
    measures from their exact joint law; a larger one adds its toll c + s n
    and splits.  A measure with ``plus`` also adds depth times the
    increment of that measure, since each node counts once in every
    enclosing subtree.
    """
    laws = small_laws(instance)
    cap = _depth_cap(n)
    measures = instance.measures
    names = [meas.name for meas in measures]
    plus = [(i, names.index(meas.plus)) for i, meas in enumerate(measures) if meas.plus]
    c, s = (np.array(col, dtype=np.int64)[:, None] for col in zip(*(m.toll for m in measures)))
    cols = np.zeros((len(measures), reps), dtype=np.int64)
    if n == 0:
        return tuple(cols)

    sizes = np.full(reps, n, dtype=np.int32 if n + 1 < 2**31 else np.int64)
    rep = np.arange(reps, dtype=np.int32)
    depth = 0
    while True:
        if depth > cap:
            raise DepthCapError(f"depth {depth} exceeded cap {cap} at n={n}")
        small = sizes < laws.cutoff
        step = laws.sums(rng, *_select(small, sizes, rep), reps)
        sizes, rep = _select(~small, sizes, rep)  # from here on: the splitting nodes
        if sizes.size:
            splits = np.bincount(rep, minlength=reps)
            keys = np.bincount(rep, weights=sizes, minlength=reps).astype(np.int64)
            step += c * splits + s * keys
        cols += step
        for i, p in plus:
            cols[i] += depth * step[p]
        if not sizes.size:
            return tuple(cols)
        sizes, rep = _children(instance, rng, sizes, rep)
        depth += 1


# ---------------------------------------------------------------------------
# streaming statistics
# ---------------------------------------------------------------------------

class SimStats:
    """Joint moments of integer-valued measures, kept as exact integer power
    sums so that merging is associative and bit-reproducible.  Means,
    (co)variances, and correlations are materialised on demand."""

    def __init__(self, names):
        self.names = tuple(names)
        self.count = 0
        self._sum = {a: 0 for a in self.names}
        self._prod = {}
        for i, x in enumerate(self.names):
            for y in self.names[i:]:
                self._prod[(x, y)] = 0

    def update_arrays(self, columns) -> None:
        cols = {a: np.asarray(col).astype(object) for a, col in zip(self.names, columns)}
        counts = {len(col) for col in cols.values()}
        if len(counts) != 1:
            raise ValueError("measure columns must share a length")
        self.count += counts.pop()
        for a in self.names:
            self._sum[a] += int(cols[a].sum())
        for (x, y) in self._prod:
            self._prod[(x, y)] += int((cols[x] * cols[y]).sum())

    def merge(self, other: "SimStats") -> "SimStats":
        if self.names != other.names:
            raise ValueError("cannot merge stats over different measures")
        out = SimStats(self.names)
        out.count = self.count + other.count
        out._sum = {a: self._sum[a] + other._sum[a] for a in self.names}
        out._prod = {k: self._prod[k] + other._prod[k] for k in self._prod}
        return out

    def _pair(self, x, y):
        return self._prod[(x, y) if (x, y) in self._prod else (y, x)]

    def mean(self, a) -> float:
        if self.count == 0:
            raise ValueError("no samples")
        return self._sum[a] / self.count

    def mean_exact(self, a) -> Fraction:
        return Fraction(self._sum[a], self.count)

    def cov(self, x, y) -> float:
        if self.count < 2:
            raise ValueError("need at least 2 replicates for (co)variance")
        c = self.count
        num = Fraction(self._pair(x, y)) - Fraction(self._sum[x] * self._sum[y], c)
        return float(num / (c - 1))

    def var(self, a) -> float:
        return self.cov(a, a)

    def corr(self, x, y) -> float:
        vx, vy = self.var(x), self.var(y)
        if vx == 0.0 or vy == 0.0:
            return 0.0
        r = self.cov(x, y) / math.sqrt(vx * vy)
        return max(-1.0, min(1.0, r))

    def sem(self, a) -> float:
        return math.sqrt(max(self.var(a), 0.0) / self.count)

    def to_dict(self) -> dict:
        d = {"count": self.count, "measures": list(self.names), "mean": {}, "sem": {},
             "var": {}, "cov": {}, "corr": {}}
        for a in self.names:
            d["mean"][a] = self.mean(a)
            if self.count >= 2:
                d["var"][a] = self.var(a)
                d["sem"][a] = self.sem(a)
        for i, x in enumerate(self.names):
            for y in self.names[i + 1:]:
                if self.count >= 2:
                    d["cov"][f"{x},{y}"] = self.cov(x, y)
                    d["corr"][f"{x},{y}"] = self.corr(x, y)
        return d


def _block_stats(instance, n, reps, seed, block_idx):
    rng = np.random.Generator(np.random.Philox(key=[seed, block_idx]))
    stats = SimStats([meas.name for meas in instance.measures])
    stats.update_arrays(_simulate_block(instance, n, reps, rng))
    return stats


def monte_carlo(instance: FamilyInstance, n: int, reps: int, seed: int,
                threads: int = 1) -> SimStats:
    """Replicated split-recursion simulation with exact merged statistics.

    The replicate set is partitioned into fixed blocks of 1024; block i
    draws from Philox key (seed, i) and blocks merge in index order, so the
    result is independent of ``threads``.
    """
    if n < 0:
        raise ValueError(f"tree size n must be >= 0, got {n}")
    if reps < 2:
        raise ValueError("reps must be >= 2 for variance estimates")
    check_cells(instance)
    small_laws(instance)  # built here, not by the first worker thread to need it
    blocks = [(i, min(BLOCK, reps - i * BLOCK)) for i in range((reps + BLOCK - 1) // BLOCK)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_block_stats, instance, n, size, seed, i)
                       for i, size in blocks]
            parts = [f.result() for f in futures]
    else:
        parts = [_block_stats(instance, n, size, seed, i) for i, size in blocks]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    return merged


def corr_profile(instance: FamilyInstance, n_grid, reps: int, seed: int,
                 threads: int = 1) -> list[dict]:
    """Empirical-vs-predicted profile rows over a grid of sizes.

    Each row: n, stat name, empirical value, standard error (when available),
    prediction from the asymptotics module, and the regime label.
    """
    from . import asymptotics  # deferred: avoid import cycle at module load

    sizes = [int(n) for n in n_grid]
    small = [n for n in sizes if n < 2]
    if small:  # the predictions divide by n (n log n for quadtrees): check before any run
        raise ValueError(f"corr-profile sizes must be >= 2, got {small[0]}")
    rows = []
    for n in sizes:
        stats = monte_carlo(instance, n, reps, seed, threads)
        rows.extend(asymptotics.profile_rows(instance, n, stats))
    return rows
