"""Test oracles: exact laws and samplers that only the tests use, kept apart
from the routes in ``logtrees`` that they check."""
import math
from fractions import Fraction

import numpy as np

from logtrees.families import FamilyInstance
from logtrees.treesim import _splits


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


def median_quicksort(keys, t):
    """(S, X) of median-of-(2t+1) quicksort run on ``keys`` in input order:
    the pivot is the median of the first 2t+1 keys, each partitioning stage
    adds 1 to S and size-1 to X, and shorter sublists are left alone."""
    if len(keys) < 2 * t + 1:
        return 0, 0
    pivot = sorted(keys[: 2 * t + 1])[t]
    s_lo, x_lo = median_quicksort([k for k in keys if k < pivot], t)
    s_hi, x_hi = median_quicksort([k for k in keys if k > pivot], t)
    return 1 + s_lo + s_hi, len(keys) - 1 + x_lo + x_hi


def serial_iterate(spec, pool_size: int, generations: int, seed: int,
                   full_bivariate: bool = False):
    """The fixed-point iteration as one serial loop: every chunk is drawn
    and combined in turn on the calling thread.  ``fixpoint.iterate`` must
    reproduce its pools and traces bit for bit at any thread count."""
    from logtrees import fixpoint
    from logtrees.treesim import CELL_ROWS

    rng0 = np.random.Generator(np.random.Philox(key=[seed, 2**32]))
    x = np.zeros(pool_size)
    w = None
    if spec.is_periodic:
        w = np.full(pool_size, complex(spec.mean_constraint[1]), dtype=complex)
    elif spec.bivariate:
        x = rng0.standard_normal(pool_size)
        w = rng0.standard_normal(pool_size)

    pool = fixpoint.SamplePool(spec=spec, x=x, w=w, generation=0)
    pool.trace.append(pool.moments())
    branches = spec.instance.branches
    exponent = None if spec.lambda2 is None else spec.lambda2 - 1.0

    for gen in range(1, generations + 1):
        rng = np.random.Generator(np.random.Philox(key=[seed, gen]))
        new_x = np.empty(pool_size)
        new_w = None if w is None else np.empty_like(w)
        for lo in range(0, pool_size, CELL_ROWS):
            hi = min(lo + CELL_ROWS, pool_size)
            size = hi - lo
            idx = rng.integers(0, pool_size, (size, branches))
            coef = fixpoint._split_rows(spec, rng, size)
            tolls = fixpoint.toll(spec, coef)
            new_x[lo:hi] = (coef * pool.x[idx]).sum(axis=1) + tolls
            if new_w is None:
                continue
            if spec.is_periodic:
                powers = np.exp(exponent * np.log(coef))
                new_w[lo:hi] = (powers * pool.w[idx]).sum(axis=1)
            elif full_bivariate:
                new_w[lo:hi] = (np.sqrt(coef) * pool.w[idx]).sum(axis=1)
            else:
                fresh = rng.standard_normal((size, branches))
                new_w[lo:hi] = (np.sqrt(coef) * fresh).sum(axis=1)
        if new_w is not None and not spec.is_periodic and full_bivariate:
            new_w = (new_w - new_w.mean()) / new_w.std()
        pool = fixpoint.SamplePool(spec=spec, x=new_x, w=new_w,
                                   generation=gen, trace=pool.trace)
        pool.trace.append(pool.moments())
        if gen >= 5 and pool.x.var() < 1e-12 * (1.0 + spec.scale_constant):
            raise fixpoint.PoolDegeneracyError(
                f"pool variance collapsed at generation {gen}")
    return pool


def distance_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Distance correlation of two samples, double-centring each distance
    matrix in one expression."""
    A = np.abs(a[:, None] - a[None, :])
    B = np.abs(b[:, None] - b[None, :])
    A = A - A.mean(axis=0) - A.mean(axis=1)[:, None] + A.mean()
    B = B - B.mean(axis=0) - B.mean(axis=1)[:, None] + B.mean()
    dcov2 = (A * B).mean()
    dvar_a = (A * A).mean()
    dvar_b = (B * B).mean()
    if dvar_a <= 0 or dvar_b <= 0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / math.sqrt(dvar_a * dvar_b))


def small_law_sums(laws, rng, sizes: np.ndarray, rep: np.ndarray, reps: int) -> np.ndarray:
    """``SmallLaws.sums`` with one search of the whole CDF for every size,
    the point masses below the split threshold included."""
    x = sizes.astype(np.float64)
    drawn = sizes >= laws.threshold
    count = int(np.count_nonzero(drawn))
    if count:
        top = np.nextafter(x[drawn] + 1, 0)
        x[drawn] = np.minimum(x[drawn] + rng.random(count), top)
    vals = laws.values[np.searchsorted(laws.cdf, x, side="right")]
    return np.array([np.bincount(rep, weights=col, minlength=reps) for col in vals.T],
                    dtype=np.int64)
