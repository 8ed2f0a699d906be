"""Population-dynamics approximation of the limit-law fixed points.

A pool of samples is pushed through the distributional map of the family:
each new sample combines `branches` uniform-with-replacement draws from the
previous pool with a fresh split sample,

    x' = sum_r V_r x^(r) + toll(V),

and for the bivariate maps a second slot

    periodic:  w' = sum_r V_r^(lambda_2 - 1) w^(r)      (complex)
    normal:    w' = sum_r V_r^(1/2) N_r                 (fresh standard
               normals; the normal law is closed under this combination,
               so the slot is injected exactly instead of iterated).

One entropy toll serves every map (natural logarithm throughout):

    b = 1 + kappa sum_r V_r log V_r,  kappa = 2 (t+1) phi for the (m,t) law
                                              (2 phi for m-ary trees,
                                              1/(H_{2t+2} - H_{t+1}) for
                                              fringe-balanced BSTs),
                                      kappa = 2/d for d-dimensional quadtrees,

scaled for the bivariate maps by the growth of the toll of the measure they
follow (phi for the m-ary node path length N, 1 for the fbbst and quadtree
path lengths) and divided by the square root of the limit variance for the
normal maps.

The maps are strict L2 contractions (factors asserted numerically before
iterating), so generation error decays geometrically; pool-resampling bias
is O(1/pool).  Periodic pools start at the mean-constraint point (0, theta);
normalised (normal-map) pools start from iid standard normals, because the
point-mass start has zero variance and the normalised map preserves it.

Every random draw is made on the calling thread, chunk by chunk, from one
Philox stream per generation.  The arithmetic of each chunk (toll, weights,
gathers from the previous pool and row sums) may run on worker threads,
which start on a chunk's toll and weights while the previous generation is
still being combined; a pool is bit-identical at any thread count.  The
resampling indices are drawn as 32-bit integers (the values and the stream
position of 64-bit draws), and the gathers, products and row sums of a
chunk run on row sub-blocks of WEIGHT_BLOCK elements, so a chunk in flight
holds 28 bytes a cell and no gathered copy of its rows.

The periodic weights V^(lambda_2 - 1) = exp((a + ib) log V) do not go
through numpy's complex exp, which runs a scalar exp, cos and sin an
element: ``_periodic_weights`` takes exp(a log V) from the vectorised real
exp, reduces the phase b log V to k 2 pi / 1024 + r with a two-part
(Cody-Waite) constant, and multiplies the table entry cis(2 pi k / 1024) by
the Taylor polynomial of cis(r), on sub-blocks that stay in cache.  The
weights are within a few ulps of ``np.exp`` (README, "Limits and accuracy").

The distance correlation of ``diagnose`` streams its two n x n distance
matrices through sub-blocks in numpy's summation order, so it returns the
bits of the matrix formulas without holding either matrix.
"""
from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .families import FIXED_POINT_MAPS, FamilyInstance, RegimeMismatchError, occupancy_constant
from .roots import DistributionPhase, require_phase, solve_spectrum
from .roots import theta as spectrum_theta
from .treesim import CELL_ROWS, check_draws, sample_volumes, sorted_gaps


class PoolDegeneracyError(RuntimeError):
    pass


class ContractionError(RuntimeError):
    pass


@dataclass(frozen=True)
class FixedPointSpec:
    """A fixed-point map bound to an instance, with the mean theta of its
    periodic slot and the data needed to evaluate coefficients."""

    instance: FamilyInstance
    map_kind: str
    theta: complex | None
    lambda2: complex | None
    phi: float | None
    scale_constant: float  # C_K / D_X / E_X of the family

    @property
    def bivariate(self) -> bool:
        return self.map_kind != "uniK"

    @property
    def is_periodic(self) -> bool:
        return self.map_kind == self.instance.fixed_point_maps[0]


def fixed_point_spec(instance: FamilyInstance, map_kind: str,
                     theta: complex | None = None) -> FixedPointSpec:
    """Build a FixedPointSpec, enforcing regime consistency: a bivariate map
    needs its distribution phase in the spectrum of the instance.

    The periodic maps take lambda_2, and for the (m,t) law theta, from the
    spectrum.  For the quadtree periodic map theta depends on an amplitude
    the theory leaves to external work; supply ``theta`` (default 1) there.
    """
    if map_kind not in FIXED_POINT_MAPS:
        raise ValueError(f"unknown map kind {map_kind!r}")
    periodic_map, normal_map = instance.fixed_point_maps
    if map_kind not in ("uniK", periodic_map, normal_map):
        raise RegimeMismatchError(f"{map_kind} is not a map of {instance}")
    if theta is not None and (map_kind != periodic_map or instance.split_law is not None):
        raise ValueError(f"{map_kind} of {instance} takes no theta; only Tquad_periodic does")

    lam2 = None
    phi = None if instance.split_law is None else float(occupancy_constant(instance))
    if map_kind != "uniK":
        spectrum = solve_spectrum(instance)
        require_phase(spectrum, DistributionPhase.PERIODIC if map_kind == periodic_map
                      else DistributionPhase.GAUSSIAN, map_kind)
    if map_kind == periodic_map:
        lam2 = spectrum.lambda2
        if instance.split_law is not None:
            theta = spectrum_theta(spectrum)
        theta = complex(1.0 if theta is None else theta)
    return FixedPointSpec(
        instance=instance, map_kind=map_kind, theta=theta,
        lambda2=lam2, phi=phi, scale_constant=instance.variance_constant)


# ---------------------------------------------------------------------------
# split samplers
# ---------------------------------------------------------------------------

def sample_spacings(m: int, rng, size: int) -> np.ndarray:
    """Spacings of m-1 iid uniforms: (size, m) rows summing to 1."""
    for _ in range(8):
        out = sorted_gaps(rng.random((size, m - 1)), 0.0, 1.0)
        if out.min() > 0.0:
            return out
        # resample rows hit by floating ties (probability-zero event)
        bad = (out <= 0.0).any(axis=1)
        out[bad] = sorted_gaps(rng.random((int(bad.sum()), m - 1)), 0.0, 1.0)
        if out.min() > 0.0:
            return out
    raise RuntimeError("persistent zero spacing; broken RNG stream?")


def sample_median(t: int, rng, size: int) -> np.ndarray:
    """Median of 2t+1 iid uniforms, i.e. Beta(t+1, t+1)."""
    v = rng.beta(t + 1, t + 1, size)
    while ((v <= 0.0) | (v >= 1.0)).any():
        bad = (v <= 0.0) | (v >= 1.0)
        v[bad] = rng.beta(t + 1, t + 1, int(bad.sum()))
    return v


# ---------------------------------------------------------------------------
# tolls
# ---------------------------------------------------------------------------

def toll(spec: FixedPointSpec, split_sample: np.ndarray,
         log_sample: np.ndarray | None = None) -> np.ndarray:
    """Toll of the map for a batch of (size, branches) coefficient rows;
    ``log_sample``, when given, holds their logarithms."""
    law = spec.instance.split_law
    kappa = 2.0 / spec.instance.parameter if law is None else 2.0 * (law[1] + 1) * spec.phi
    if log_sample is None:
        log_sample = np.log(split_sample)
    b = 1.0 + kappa * (split_sample * log_sample).sum(axis=1)
    scale = 1.0
    if spec.bivariate:
        # the bivariate maps follow the family's last measure, whose toll grows
        # like s n, or like phi n when it collects the node count (mary N)
        path = spec.instance.measures[-1]
        scale = spec.phi if path.plus else float(path.toll[1])
        b = scale * b
    if spec.bivariate and not spec.is_periodic:
        return b / math.sqrt(scale ** 2 * spec.scale_constant)
    return b


# ---------------------------------------------------------------------------
# contraction factors
# ---------------------------------------------------------------------------

def contraction_factor(spec: FixedPointSpec) -> float:
    """L2 contraction factor branches * E[V^s] = branches * E[|V^e|^2] of the
    slot ``iterate`` contracts, asserted < 1 before iterating: for the
    periodic maps their second slot w' = sum_r V_r^(lambda_2 - 1) w_r
    (s = 2 alpha - 2), for every other map x' = sum_r V_r x_r (s = 2).  The
    normal maps' w slot is injected exactly, so it needs no gate."""
    s = 2 * spec.lambda2.real - 2 if spec.is_periodic else 2.0
    return spec.instance.branches * spec.instance.coefficient_moment(s)


# ---------------------------------------------------------------------------
# pool iteration
# ---------------------------------------------------------------------------

@dataclass
class SamplePool:
    spec: FixedPointSpec
    x: np.ndarray
    w: np.ndarray | None
    generation: int
    trace: list = field(default_factory=list)

    def moments(self) -> dict:
        out = {"mean_x": float(self.x.mean()), "var_x": float(self.x.var())}
        if self.w is not None:
            mw = complex(self.w.mean())
            out.update({
                "mean_re_w": mw.real, "mean_im_w": mw.imag,
                "var_w": float(np.mean(np.abs(self.w - mw) ** 2)),
                "cov": float(np.mean((self.x - self.x.mean())
                                     * (self.w.real - mw.real))),
            })
        else:
            out.update({"mean_re_w": 0.0, "mean_im_w": 0.0, "var_w": 0.0, "cov": 0.0})
        return out

    def write_pool_csv(self, fh) -> None:
        fh.write("x,re_w,im_w\n")
        if self.w is None:
            for xv in self.x:
                fh.write(f"{xv:.17g},0,0\n")
        else:
            for xv, wv in zip(self.x, self.w):
                wc = complex(wv)
                fh.write(f"{xv:.17g},{wc.real:.17g},{wc.imag:.17g}\n")

    def write_trace_csv(self, fh) -> None:
        fh.write("generation,mean_x,var_x,mean_re_w,mean_im_w,var_w,cov\n")
        for i, row in enumerate(self.trace):
            fh.write(",".join([str(i)] + [f"{row[k]:.17g}" for k in
                                          ("mean_x", "var_x", "mean_re_w",
                                           "mean_im_w", "var_w", "cov")]) + "\n")


def _split_rows(spec: FixedPointSpec, rng, size: int) -> np.ndarray:
    """(size, branches) coefficient rows of the split law: spacings for
    t = 0, (V, 1-V) with V ~ Beta(t+1, t+1) for m = 2, cell volumes for
    quadtrees."""
    law = spec.instance.split_law
    if law is None:
        return sample_volumes(spec.instance.parameter, rng, size)
    m, t = law
    if t == 0:
        return sample_spacings(m, rng, size)
    v = sample_median(t, rng, size)
    return np.stack([v, 1.0 - v], axis=1)


# The chunks of a generation run on worker threads while the calling thread
# draws the next ones.  A chunk in flight holds its index, coefficient and
# weight rows (at most 28 bytes a cell: a 32-bit index, a float and a
# complex); at most 2 x threads chunks, and at most WINDOW_BYTES of them, are
# in flight at once.
WINDOW_BYTES = 256 * 2**20


@dataclass
class _Generation:
    """The arrays the chunks of generation ``gen`` write, and its pool once
    the calling thread has finished it; ``done`` is set then, or when the
    iteration stops early, with ``pool`` left None."""

    gen: int
    x: np.ndarray
    w: np.ndarray | None
    pool: SamplePool | None = None
    done: threading.Event = field(default_factory=threading.Event)


# The periodic weights (``_periodic_weights``) read cis(2 pi k / TURN_STEPS)
# from a table; the Taylor polynomial of the rest, |r| <= pi / TURN_STEPS,
# is within 1e-21 of cis(r).
TURN_STEPS = 1024
_TWO_PI_HI, _TWO_PI_LO = 6.283185307179586, 2.4492935982947064e-16  # 2 pi = HI + LO
_LOG_TINY = math.log(math.ldexp(1.0, -1074))  # log of the smallest positive double
# x + _ROUND_SHIFT - _ROUND_SHIFT rounds |x| < 2^51 to an integer, and the low
# bits of x + _ROUND_SHIFT hold that integer modulo every power of two
_ROUND_SHIFT = 1.5 * 2.0 ** 52
WEIGHT_BLOCK = 2 ** 14  # elements of a sub-block: its temporaries stay in L2


def _turn_step(bits: int) -> tuple[float, float]:
    """2 pi / TURN_STEPS as hi + lo (Cody-Waite): hi keeps the leading
    ``bits`` bits, so k hi is exact for |k| < 2^(53 - bits), and lo carries
    the rest of 2 pi to about 1e-32."""
    step = _TWO_PI_HI / TURN_STEPS
    mantissa, exp2 = math.frexp(step)
    hi = math.ldexp(math.floor(math.ldexp(mantissa, bits)), exp2 - bits)
    return hi, (step - hi) + _TWO_PI_LO / TURN_STEPS


def _turn_table() -> np.ndarray:
    """cis(2 pi k / TURN_STEPS), k < TURN_STEPS, within an ulp: the libm
    cos and sin at the exact double k hi, moved to first order by the k lo
    that hi leaves out (|k lo| < 1e-12)."""
    hi, lo = _turn_step(53 - TURN_STEPS.bit_length())
    k = np.arange(TURN_STEPS, dtype=np.float64)
    cos, sin = np.cos(k * hi), np.sin(k * hi)
    table = np.empty(TURN_STEPS, complex)
    table.real = cos - k * lo * sin
    table.imag = sin + k * lo * cos
    table.setflags(write=False)
    return table


_TURNS = _turn_table()


def _periodic_weights(exponent: complex, logs: np.ndarray) -> np.ndarray:
    """exp(exponent * logs), a complex array of the shape of ``logs``, within
    a few ulps of ``np.exp`` (which runs a scalar complex exp an element),
    from array operations on sub-blocks of WEIGHT_BLOCK elements.

    The magnitude is exp(a L).  The phase theta = b L, the same double
    ``np.exp`` takes, is reduced to theta = k 2 pi / TURN_STEPS + r by
    k = rint(theta TURN_STEPS / 2 pi) and r = (theta - k hi) - k lo, where
    k hi is exact for every |k| that L >= log(smallest positive double) can
    give; cis(r) is the degree-6 Taylor polynomial of e^(ir), its real and
    imaginary parts by Horner in r^2, times the magnitude, turned by the
    table entry of k mod TURN_STEPS."""
    a, b = exponent.real, exponent.imag
    k_max = abs(b) * -_LOG_TINY * TURN_STEPS / _TWO_PI_HI + 2
    hi, lo = _turn_step(53 - math.ceil(math.log2(k_max)))
    per_radian = TURN_STEPS / _TWO_PI_HI
    flat = logs.reshape(-1)
    out = np.empty(logs.shape, complex)
    out_flat = out.reshape(-1)
    pairs = out_flat.view(np.float64).reshape(-1, 2)  # (re, im) rows of out
    size = min(WEIGHT_BLOCK, flat.size)
    theta, k, tmp, cos, sin = (np.empty(size) for _ in range(5))
    for lo_el in range(0, flat.size, WEIGHT_BLOCK):
        L = flat[lo_el:lo_el + WEIGHT_BLOCK]
        n = L.size
        th, kk, t, c, s = theta[:n], k[:n], tmp[:n], cos[:n], sin[:n]
        np.multiply(L, b, out=th)
        np.multiply(th, per_radian, out=kk)
        kk += _ROUND_SHIFT
        turn = kk.view(np.int64) & (TURN_STEPS - 1)
        kk -= _ROUND_SHIFT
        th -= np.multiply(kk, hi, out=t)
        th -= np.multiply(kk, lo, out=t)  # r
        r2 = np.multiply(th, th, out=kk)
        np.multiply(r2, -1 / 720, out=c)
        c += 1 / 24
        c *= r2
        c -= 1 / 2
        c *= r2
        c += 1.0
        np.multiply(r2, 1 / 120, out=s)
        s -= 1 / 6
        s *= r2
        s += 1.0
        s *= th
        magnitude = np.exp(np.multiply(L, a, out=t), out=t)
        np.multiply(c, magnitude, out=pairs[lo_el:lo_el + n, 0])
        np.multiply(s, magnitude, out=pairs[lo_el:lo_el + n, 1])
        block = out_flat[lo_el:lo_el + n]
        block *= _TURNS.take(turn)
    return out


def _row_blocks(lo: int, rows: int, branches: int):
    """(chunk rows, pool rows) slices of the sub-blocks of a chunk of
    ``rows`` rows written from pool row ``lo`` on: whole rows, at most
    WEIGHT_BLOCK elements (one row when a row is longer)."""
    step = max(1, WEIGHT_BLOCK // branches)
    for r in range(0, rows, step):
        stop = min(r + step, rows)
        yield slice(r, stop), slice(lo + r, lo + stop)


def _combine(spec: FixedPointSpec, exponent, source: _Generation, target: _Generation,
             lo: int, idx: np.ndarray, coef: np.ndarray, fresh: np.ndarray | None) -> None:
    """The arithmetic of one chunk: rows lo:lo+len(idx) of ``target``.  The
    toll and the weights of the w slot need no pool; the gathers from the
    source pool and the row sums wait until that generation is finished.
    Products and row sums run on row sub-blocks (``_row_blocks``); each
    value is made per element or per row, so the sub-blocks change no bit
    of it, and no gathered array of a whole chunk is held."""
    logs = np.log(coef)
    tolls = toll(spec, coef, logs)
    weights = _periodic_weights(exponent, logs) if spec.is_periodic else None
    if fresh is not None:  # the injected normal slot: the normals scaled in place
        fresh *= np.sqrt(coef)
        for rows, out in _row_blocks(lo, *idx.shape):
            target.w[out] = fresh[rows].sum(axis=1)
    del logs  # not held while the chunk waits for its source generation
    source.done.wait()
    prev = source.pool
    if prev is None:  # the iteration stopped
        return
    for rows, out in _row_blocks(lo, *idx.shape):
        gathered = prev.x.take(idx[rows])
        gathered *= coef[rows]
        target.x[out] = gathered.sum(axis=1) + tolls[rows]
        if weights is not None:
            # pool values first: numpy's complex product can round differently
            # with its operands swapped, so the order is part of the pool's bits
            gathered = prev.w.take(idx[rows])
            gathered *= weights[rows]
            target.w[out] = gathered.sum(axis=1)


def _start_generation(spec: FixedPointSpec, pool_size: int, seed: int) -> _Generation:
    """Generation 0, finished: its pool, whose trace holds its moments.
    Nothing else keeps it, so it is freed once generation 1 has read it."""
    rng0 = np.random.Generator(np.random.Philox(key=[seed, 2**32]))
    x = np.zeros(pool_size)
    w = None
    if spec.is_periodic:
        w = np.full(pool_size, spec.theta, dtype=complex)
    elif spec.bivariate:
        # normalised map: the point-mass start is a fixed point of the
        # normalisation with zero variance; start from the constraint set
        x = rng0.standard_normal(pool_size)
        w = rng0.standard_normal(pool_size)
    pool = SamplePool(spec=spec, x=x, w=w, generation=0)
    pool.trace.append(pool.moments())
    start = _Generation(0, x, w, pool)
    start.done.set()
    return start


def iterate(spec: FixedPointSpec, pool_size: int, generations: int, seed: int,
            threads: int = 1) -> SamplePool:
    """Evolve a sample pool through the map.

    Each generation resamples the previous pool with replacement;
    generation g draws from Philox key (seed, g), in chunks of CELL_ROWS
    rows: the resampling indices (32-bit, so ``pool_size`` < 2**31), the
    coefficient rows, then the fresh normals of the injected normal slot.
    Every draw is made on the calling thread in that order.  With
    ``threads`` > 1 the arithmetic of each chunk runs on a worker thread:
    its toll and weights at once, its gathers and row sums once the
    previous generation is finished, while the calling thread draws ahead,
    at most 2 x ``threads`` chunks (and WINDOW_BYTES of their rows) in
    flight.  Each element sees the same operations in the same order at
    any thread count, so pools and traces are bit-identical for a given
    seed.
    """
    if pool_size < 1000:
        raise ValueError("pool_size must be >= 1000")
    if pool_size >= 2**31:  # the resampling indices are 32-bit
        raise ValueError(f"pool_size must be < 2**31, got {pool_size}")
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    check_draws(spec.instance, seed)
    factor = contraction_factor(spec)
    if not factor < 1.0:
        raise ContractionError(f"contraction factor {factor:.4f} >= 1 for {spec.map_kind}")

    source = _start_generation(spec, pool_size, seed)
    trace = source.pool.trace
    branches = spec.instance.branches
    exponent = None if spec.lambda2 is None else spec.lambda2 - 1.0
    injected = spec.bivariate and not spec.is_periodic

    def finish(target: _Generation) -> None:
        finished = SamplePool(spec=spec, x=target.x, w=target.w, generation=target.gen,
                              trace=trace)
        row = finished.moments()
        finished.trace.append(row)
        if target.gen >= 5 and row["var_x"] < 1e-12 * (1.0 + spec.scale_constant):
            raise PoolDegeneracyError(
                f"pool variance collapsed at generation {target.gen}")
        target.pool = finished
        target.done.set()

    # chunks in flight, oldest first: (future, or None when run inline,
    # target, whether it is the last chunk of the target generation)
    in_flight = deque()

    def retire() -> None:
        future, target, last = in_flight[0]
        if future is not None:
            future.result()
        if last:
            finish(target)
        in_flight.popleft()

    window = max(1, min(2 * threads, WINDOW_BYTES // (28 * CELL_ROWS * branches)))
    workers = (ThreadPoolExecutor(max_workers=threads, thread_name_prefix="fixpoint")
               if threads > 1 else None)
    try:
        for gen in range(1, generations + 1):
            rng = np.random.Generator(np.random.Philox(key=[seed, gen]))
            target = _Generation(gen, np.empty(pool_size),
                                 None if source.w is None else np.empty_like(source.w))
            for lo in range(0, pool_size, CELL_ROWS):
                # retire the finished chunks, and the oldest while the window is full
                while in_flight and (len(in_flight) >= window or in_flight[0][0] is None
                                     or in_flight[0][0].done()):
                    retire()
                size = min(CELL_ROWS, pool_size - lo)
                idx = rng.integers(0, pool_size, (size, branches), dtype=np.int32)
                coef = _split_rows(spec, rng, size)
                fresh = rng.standard_normal((size, branches)) if injected else None
                chunk = (spec, exponent, source, target, lo, idx, coef, fresh)
                if workers is None:
                    _combine(*chunk)
                    future = None
                else:
                    future = workers.submit(_combine, *chunk)
                in_flight.append((future, target, lo + size == pool_size))
            source = target
        while in_flight:
            retire()
    finally:
        # on an early exit, release the chunks waiting for a generation
        # that will not be finished, and drop those not started
        for _, target, _ in in_flight:
            target.done.set()
        if workers is not None:
            workers.shutdown(wait=True, cancel_futures=True)
    return source.pool


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _pairwise_sums(piece, lo: int, hi: int):
    """The sum over flat indices lo:hi of values that ``piece(lo, hi)``
    makes a range at a time, added in the order of numpy's pairwise
    summation of one contiguous array: halves cut at len // 2 - (len // 2)
    % 8 down to ranges of at most WEIGHT_BLOCK elements, which ``piece``
    hands to ``np.add.reduce`` to go on with the same tree down to its
    128-element leaves unrolled by 8.  ``piece`` may return an array of
    sums, one for each series summed side by side."""
    if hi - lo <= WEIGHT_BLOCK:
        return piece(lo, hi)
    half = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
    return _pairwise_sums(piece, lo, half) + _pairwise_sums(piece, half, hi)


def _distances(a: np.ndarray, first: int, stop: int, means: tuple | None = None) -> np.ndarray:
    """Rows first:stop of the distance matrix |a_i - a_j|, doubly centred
    when ``means`` (its column, row and grand means) are given: subtracted
    and added in that order."""
    D = np.subtract.outer(a[first:stop], a)
    np.abs(D, out=D)
    if means is not None:
        col, row, grand = means
        D -= col
        D -= row[first:stop, None]
        D += grand
    return D


def _flat_distances(a: np.ndarray, lo: int, hi: int, means: tuple | None = None) -> np.ndarray:
    """Elements lo:hi of the (centred) distance matrix of ``a`` flattened by
    rows, from the rows they touch."""
    n = a.size
    first = lo // n
    D = _distances(a, first, -(-hi // n), means)
    return D.reshape(-1)[lo - first * n:hi - first * n]


def _distance_means(a: np.ndarray) -> tuple:
    """The column, row and grand means of |a_i - a_j|, summed as numpy sums
    the whole n x n matrix: columns by adding the rows one after another,
    each row by its own pairwise sum, the grand sum by the pairwise tree
    over all n^2 elements."""
    n = a.size
    col, row = np.zeros(n), np.empty(n)
    step = max(1, WEIGHT_BLOCK // n)
    for first in range(0, n, step):
        D = _distances(a, first, first + step)
        np.add.reduce(D, axis=1, out=row[first:first + step])
        for r in D:
            col += r
    grand = _pairwise_sums(lambda lo, hi: np.add.reduce(_flat_distances(a, lo, hi)), 0, n * n)
    return col / n, row / n, grand / (n * n)


def _distance_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Distance correlation of two samples (Szekely, Rizzo and Bakirov
    2007), bit for bit the value of the n x n matrix formulas, streamed
    through sub-blocks of about WEIGHT_BLOCK elements: no n x n matrix is
    ever held.  It reproduces numpy's
    summation orders: per-row pairwise sums (row means), rows added one
    after another (column means), and the pairwise tree over the n^2 flat
    elements, with 128-element leaves unrolled by 8 (grand mean, and the
    means of A * A, A * B and B * B)."""
    n = a.size
    means_a, means_b = _distance_means(a), _distance_means(b)

    def products(lo: int, hi: int) -> np.ndarray:
        A, B = _flat_distances(a, lo, hi, means_a), _flat_distances(b, lo, hi, means_b)
        return np.array([np.add.reduce(A * A), np.add.reduce(A * B), np.add.reduce(B * B)])

    dvar_a, dcov2, dvar_b = _pairwise_sums(products, 0, n * n) / (n * n)
    if dvar_a <= 0 or dvar_b <= 0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / math.sqrt(dvar_a * dvar_b))


def diagnose(pool: SamplePool) -> dict:
    """Moments plus normality and independence screens of a converged pool."""
    from scipy import stats as sstats

    if len(pool.x) < 1000:
        raise ValueError("pool too small to diagnose")
    out = {"map_kind": pool.spec.map_kind, "generation": pool.generation,
           "pool": len(pool.x)}
    out.update(pool.moments())
    x = pool.x
    out["skew_x"] = float(sstats.skew(x))
    if pool.w is not None:
        wr = pool.w.real if np.iscomplexobj(pool.w) else pool.w
        if not pool.spec.is_periodic:
            ks = sstats.kstest(wr, "norm")
            out["ks_stat"] = float(ks.statistic)
            out["ks_pvalue"] = float(ks.pvalue)
        out["slot_correlation"] = float(np.corrcoef(x, wr)[0, 1])
        rng = np.random.Generator(np.random.Philox(key=[0, 2**40]))
        pick = rng.choice(len(x), size=min(2048, len(x)), replace=False)
        out["distance_correlation"] = _distance_correlation(x[pick], wr[pick])
    if pool.spec.is_periodic:
        th = pool.spec.theta
        mw = complex(pool.w.mean())
        out["mean_w_minus_theta"] = abs(mw - th)
        out["theta_re"], out["theta_im"] = th.real, th.imag
    return out
