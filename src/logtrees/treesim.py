"""Monte Carlo simulation of random search trees.

Two routes are provided and cross-checked: explicit m-ary tree construction
from a permutation (the insertion procedure), and split-size recursion that
samples subtree sizes directly from each family's split law

    mary, fbbst:  the (m,t) law with t = 0 and m = 2 respectively: m(t+1)-1
                  distinct key ranks out of n, of which every (t+1)-th,
                  from the (t+1)-st on, is a split key,
    quadtree:     multinomial over the 2^d cell volumes of a uniform point.

Replicates are simulated level-synchronously in fixed blocks of 1024, each
block on its own counter-based Philox stream keyed by (seed, block index),
so results are bit-identical for a given seed regardless of thread count.
Statistics accumulate as exact integer power sums and merge associatively.
"""
from __future__ import annotations

import math
from bisect import bisect_right, insort
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .families import FamilyInstance

BLOCK = 1024  # replicates per RNG stream; fixed so --threads cannot change draws

# The sampling routes draw the cells of many splits at once, as (rows, 2^d)
# float arrays: a fixed-point chunk has CELL_ROWS rows, a Monte Carlo level
# at least the roots of a block.  One such array must fit MAX_CELL_BYTES.
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
    from {1..n_arr[i]} per row (unsorted)."""
    rows = n_arr.shape[0]
    chosen = np.zeros((rows, k), dtype=np.int64)
    for i in range(k):
        j = n_arr - k + 1 + i
        t = rng.integers(1, j + 1)
        if i:
            dup = (chosen[:, :i] == t[:, None]).any(axis=1)
            chosen[:, i] = np.where(dup, j, t)
        else:
            chosen[:, 0] = t
    return chosen


def _law_splits(rng, m: int, t: int, sizes: np.ndarray) -> np.ndarray:
    """Subtree sizes below splitting nodes of the (m,t) law: gaps between
    the split keys, which are columns t, 2t+1, ... of m(t+1)-1 sorted
    distinct key ranks.  Returns (rows, m) array."""
    ranks = np.sort(_floyd_distinct(rng, sizes, m * (t + 1) - 1), axis=1)
    rows = sizes.shape[0]
    bounds = np.empty((rows, m + 1), dtype=np.int64)
    bounds[:, 0] = 0
    bounds[:, 1:m] = ranks[:, t :: t + 1]
    bounds[:, m] = sizes + 1
    return np.diff(bounds, axis=1) - 1


def sample_volumes(d: int, rng, size: int) -> np.ndarray:
    """Cell volumes of a uniform point of [0,1]^d: (size, 2^d) rows."""
    x = rng.random((size, d))
    while ((x <= 0.0) | (x >= 1.0)).any():
        bad = ((x <= 0.0) | (x >= 1.0)).any(axis=1)
        x[bad] = rng.random((int(bad.sum()), d))
    vol = np.ones((size, 1))
    for l in range(d):
        xl = x[:, l : l + 1]
        vol = np.hstack([vol * xl, vol * (1.0 - xl)])
    return vol


def check_cells(instance: FamilyInstance) -> None:
    """Reject, before any draw, a quadtree whose (CELL_ROWS, 2^d) cell array
    would exceed MAX_CELL_BYTES, i.e. d > 9.  The (m,t) laws always pass."""
    max_d = (MAX_CELL_BYTES // (8 * CELL_ROWS)).bit_length() - 1
    if instance.split_law is None and instance.parameter > max_d:
        raise ValueError(
            f"{instance}: sampling draws {CELL_ROWS} rows of 2^d cells at once, over the "
            f"{MAX_CELL_BYTES >> 20} MiB cell-array limit for d > {max_d}")


def _multinomial_rows(rng, counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Multinomial per row via a chain of binomials (works on any numpy
    version, deterministic draw order)."""
    rows, cells = probs.shape
    out = np.zeros((rows, cells), dtype=np.int64)
    rem = counts.astype(np.int64).copy()
    remp = np.ones(rows)
    for h in range(cells - 1):
        p = np.clip(probs[:, h] / np.maximum(remp, 1e-300), 0.0, 1.0)
        c = rng.binomial(rem, p)
        out[:, h] = c
        rem -= c
        remp -= probs[:, h]
    out[:, cells - 1] = rem
    return out


def fbbst_split_pmf(n: int, t: int, as_printed: bool = False) -> dict[int, Fraction]:
    """Left-subtree-size law of the median-of-(2t+1) split, exact rationals.

    The law in use is P(left = j) = C(j,t) C(n-1-j,t) / C(n,2t+1) for
    t <= j <= n-1-t (the root key is the sample median at rank j+1), which
    sums to one.  The sometimes-quoted index shift C(j-1,t) C(n-j,t) on the
    same range fails to normalise (its total is 0 at n = 3, t = 1); it is
    kept behind ``as_printed`` so the defect can be demonstrated.
    """
    if n < 2 * t + 1:
        raise ValueError(f"n = {n} below the splitting threshold {2 * t + 1}")
    denom = math.comb(n, 2 * t + 1)
    out = {}
    for j in range(t, n - t):
        if as_printed:
            num = math.comb(j - 1, t) * math.comb(n - j, t)
        else:
            num = math.comb(j, t) * math.comb(n - 1 - j, t)
        out[j] = Fraction(num, denom)
    return out


def sample_split(instance: FamilyInstance, n: int, rng) -> tuple[int, ...]:
    """One draw of subtree sizes below a size-n splitting node."""
    if n < instance.split_threshold:
        raise ValueError(
            f"n = {n} below the splitting threshold {instance.split_threshold} of {instance}")
    return tuple(int(v) for v in _splits(instance, rng, np.array([n], dtype=np.int64))[0])


def _splits(instance: FamilyInstance, rng, sizes: np.ndarray) -> np.ndarray:
    """Subtree sizes below splitting nodes of the given sizes, one row each."""
    law = instance.split_law
    if law is not None:
        return _law_splits(rng, *law, sizes)
    vols = sample_volumes(instance.parameter, rng, sizes.shape[0])
    return _multinomial_rows(rng, sizes - 1, vols)


# ---------------------------------------------------------------------------
# split-size recursion
# ---------------------------------------------------------------------------

def _depth_cap(n: int) -> int:
    return 64 * max(1, math.ceil(math.log2(max(2, n)))) + 64


def _simulate_block(instance: FamilyInstance, n: int, reps: int, rng):
    """Level-synchronous split recursion for a block of replicates.
    Returns the per-replicate measure columns as int64 arrays, in the order
    of ``instance.measures``.

    A measure adds ``initial`` at every non-empty node and, at a splitting
    node of size n, c - initial + s n more (its toll c + s n in all); a
    measure with ``plus`` also adds depth times the increment of that
    measure, since each node counts once in every enclosing subtree.  So
    three counts per level serve every measure: nodes, splitting nodes and
    the keys held by splitting nodes.
    """
    thresh = instance.split_threshold
    cap = _depth_cap(n)
    measures = instance.measures
    cols = {meas.name: np.zeros(reps, dtype=np.int64) for meas in measures}
    if n == 0:
        return tuple(cols.values())
    need_nodes = any(meas.initial for meas in measures)
    need_splits = any(meas.toll[0] != meas.initial for meas in measures)
    need_keys = any(meas.toll[1] for meas in measures)

    sizes = np.full(reps, n, dtype=np.int64)
    rep = np.arange(reps, dtype=np.int64)
    depth = 0
    while sizes.size:
        if depth > cap:
            raise DepthCapError(f"depth {depth} exceeded cap {cap} at n={n}")
        nodes = np.bincount(rep, minlength=reps) if need_nodes else 0
        split = sizes >= thresh
        rep, sizes = rep[split], sizes[split]  # from here on: the splitting nodes
        splits = np.bincount(rep, minlength=reps) if need_splits else 0
        keys = (np.bincount(rep, weights=sizes, minlength=reps).astype(np.int64)
                if need_keys else 0)
        step = {meas.name: meas.initial * nodes + (meas.toll[0] - meas.initial) * splits
                + meas.toll[1] * keys for meas in measures}
        for meas in measures:
            cols[meas.name] += step[meas.name]
            if meas.plus and depth:
                cols[meas.name] += depth * step[meas.plus]
        if not sizes.size:
            break
        gaps = _splits(instance, rng, sizes)

        branches = gaps.shape[1]
        child_rep = np.repeat(rep, branches).reshape(-1, branches)
        keep = gaps > 0
        sizes = gaps[keep]
        rep = child_rep[keep]
        depth += 1
    return tuple(cols.values())


def simulate_recursion(instance: FamilyInstance, n: int, rng) -> tuple[int, ...]:
    """One replicate of the split-size recursion: the measures of
    ``instance.measures`` in order, (S, K, N) for mary, (stages,
    path_length) for fbbst, and (leaves, internal_path_length) for
    quadtree."""
    return tuple(int(col[0]) for col in _simulate_block(instance, n, 1, rng))


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

    rows = []
    for n in n_grid:
        stats = monte_carlo(instance, int(n), reps, seed, threads)
        rows.extend(asymptotics.profile_rows(instance, int(n), stats))
    return rows
