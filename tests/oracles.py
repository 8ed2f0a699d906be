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
