"""Test oracles: exact laws and samplers that only the tests use, kept apart
from the routes in ``logtrees`` that they check."""
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import mpmath
import numpy as np

from logtrees.asymptotics import EULER_GAMMA
from logtrees.families import FamilyInstance, harmonic
from logtrees.gammafn import digamma, log_gamma
from logtrees.roots import indicial_shifts


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


@dataclass(frozen=True)
class SplitWeights:
    """Exact split law of a size-n m-ary node: the marginal pi_{n,j} of a
    single subtree size and the pairwise law pi2 of two distinct subtrees,
    as explicit sums over the compositions of n-m+1 into m parts."""

    n: int
    m: int

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("split weights need m >= 3")
        if self.n < self.m - 1:
            raise ValueError(f"n must be >= m-1 = {self.m - 1}")

    @cached_property
    def pi(self) -> dict[int, Fraction]:
        n, m = self.n, self.m
        denom = math.comb(n, m - 1)
        return {j: Fraction(math.comb(n - 1 - j, m - 2), denom)
                for j in range(0, n - m + 2)}

    @cached_property
    def pi2(self) -> dict[tuple[int, int], Fraction]:
        n, m = self.n, self.m
        denom = math.comb(n, m - 1)
        out = {}
        for j in range(0, n - m + 2):
            for k in range(0, n - m + 2 - j):
                out[(j, k)] = Fraction(math.comb(n - 2 - j - k, m - 3), denom)
        return out


def split_weights(n: int, m: int) -> SplitWeights:
    return SplitWeights(n=n, m=m)


def c1_constant_printed(m: int) -> float:
    """The sometimes-quoted c1 with plus-gamma in place of 2 phi gamma; at
    m = 2 it gives gamma - 4, not the quicksort value 2 gamma - 4."""
    phi = float(1 / (2 * (harmonic(m) - 1)))
    return -0.5 - 4 * phi + 2 * phi * phi * (float(harmonic(m, 2)) - 1) + EULER_GAMMA


def dirichlet_dudv_printed(m: int) -> float:
    """The sometimes-quoted display of the simplex integral of
    (sum x_r log x_r)^2: 4/phi^2 in place of (H_m-1)^2 = 1/(4 phi^2), and no
    1/(m-1)! normalisation."""
    h1 = float(harmonic(m))
    h2 = float(harmonic(m, 2))
    phi = 1 / (2 * (h1 - 1))
    return h2 + 4 / phi**2 - 2 / (m + 1) - (m - 1) * math.pi * math.pi / (6 * (m + 1))


def build_indicial(instance: FamilyInstance) -> list[int]:
    """Exact integer coefficients of the indicial polynomial, descending
    powers, monic leading term."""
    shifts, c = indicial_shifts(instance)
    coeffs = [1]
    for s in shifts:
        # multiply by (z + s)
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a
            nxt[i + 1] += a * s
        coeffs = nxt
    coeffs[-1] -= c
    return coeffs


def eval_indicial(instance: FamilyInstance, z: complex) -> complex:
    """branches E[V^(z-1)] - 1 for one coefficient V, zero exactly at the
    indicial roots, written from the law of V and not from the shifts of the
    polynomial the routes solve.

    (m,t) law: V ~ Beta(t+1, (m-1)(t+1)) with the Mellin moment
    E[V^s] = B(a+s, b) / B(a, b); at a root z + t in {0, -1, ...} the poles
    of Gamma(a+s) and Gamma(a+b+s) cancel, and gammaprod takes the limit.
    Since the moment is m Gamma(z+t) K! / (Gamma(z+K) t!) with K = m(t+1)-1,
    this is -P(z) / prod(z + shifts): a relative residual.  Quadtree: a cell
    volume is a product of d uniforms, E[V^(z-1)] = z^(-d), so the residual
    is 2^d z^(-d) - 1."""
    with mpmath.workdps(30):
        s = mpmath.mpc(z) - 1
        if instance.split_law is None:
            d = instance.parameter
            return complex(2 ** d * (s + 1) ** (-d) - 1)
        m, t = instance.split_law
        a, b = t + 1, (m - 1) * (t + 1)
        return complex(m * mpmath.gammaprod([a + s, a + b], [a + b + s, a]) - 1)


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
    reproduce its pools and traces bit for bit at any thread count.  It
    checks the orchestration only: it takes the periodic weights from the
    same ``fixpoint._periodic_weights``, whose accuracy is tested against
    ``np.exp`` and mpmath on its own.

    With ``full_bivariate`` the normal maps' w slot is iterated,
    w' = sum_r V_r^(1/2) w_r, and re-standardised after every generation,
    instead of injected from fresh normals as ``fixpoint.iterate`` does:
    an independent reference for the injected slot."""
    from logtrees import fixpoint
    from logtrees.treesim import CELL_ROWS

    rng0 = np.random.Generator(np.random.Philox(key=[seed, 2**32]))
    x = np.zeros(pool_size)
    w = None
    if spec.is_periodic:
        w = np.full(pool_size, spec.theta, dtype=complex)
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
                powers = fixpoint._periodic_weights(exponent, np.log(coef))
                new_w[lo:hi] = (pool.w[idx] * powers).sum(axis=1)
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
    entry = np.searchsorted(laws.cdf, x, side="right")
    return np.array([np.bincount(rep, weights=col[entry], minlength=reps)
                     for col in laws.columns], dtype=np.int64)


def amplitude_mary(m: int, lam: complex) -> complex:
    """The m-ary closed form A_k = 1 / (lam (lam-1) sum_{0<=j<=m-2} 1/(j+lam))
    at a root lam, which uses the root identity; the (m,t)
    ``roots.amplitude`` is checked against it."""
    s = sum(1.0 / (j + lam) for j in range(0, m - 1))
    return 1.0 / (lam * (lam - 1.0) * s)


def amplitude_fbbst(t: int, lam: complex) -> complex:
    """The fringe-balanced closed form C_k = t! / (2 (lam-1) lam (lam+1)...
    (lam+t-1) sum_{t<=j<=2t} 1/(j+lam)) at a root lam; the (m,t)
    ``roots.amplitude`` must reproduce its bits."""
    prod = lam - 1.0
    for i in range(0, t):
        prod *= lam + i
    s = sum(1.0 / (j + lam) for j in range(t, 2 * t + 1))
    return math.factorial(t) / (2.0 * prod * s)


def amplitude_mp(instance: FamilyInstance, lam):
    """The amplitude at a root ``lam`` of an (m,t) instance in mpmath at the
    working precision, written out per family: the m-ary A_k for t = 0, the
    fringe-balanced C_k otherwise."""
    m, t = instance.split_law
    lam = mpmath.mpc(lam)
    if t == 0:
        return 1 / (lam * (lam - 1) * mpmath.fsum(1 / (j + lam) for j in range(m - 1)))
    return mpmath.factorial(t) / (2 * (lam - 1) * mpmath.rf(lam, t)
                                  * mpmath.fsum(1 / (j + lam) for j in range(t, 2 * t + 1)))


def root_mp(instance: FamilyInstance, start: complex, prec: int = 192):
    """The indicial root of an (m,t) instance next to ``start``, Newton-solved
    at ``prec`` bits on (z+t)_(K-t) - m (t+1)_(K-t), K = m(t+1)-1, in rising
    factorials; an mpmath number that keeps those bits.  Newton stops after
    a step below 2^((16 - prec)/2) |z|: the error left is about the square of
    that step."""
    m, t = instance.split_law
    n = m * (t + 1) - 1 - t
    with mpmath.workprec(prec):
        z = mpmath.mpc(start)
        for _ in range(20):
            prod = mpmath.rf(z + t, n)
            step = (prod - m * mpmath.rf(t + 1, n)) / (prod * mpmath.fsum(1 / (z + t + j)
                                                                         for j in range(n)))
            z -= step
            if abs(step) <= mpmath.mpf(2) ** ((16 - prec) / 2) * abs(z):
                break
        return z


def inclusion_radius_mp(instance: FamilyInstance, z: complex, prec: int = 192):
    """deg |p/p'(z)| at ``prec`` bits, the double z taken exactly: the radius
    of the inclusion disk about z before any rounding.  p is the product
    form of ``root_mp``, or z^d - 2^d for a quadtree."""
    with mpmath.workprec(prec):
        z = mpmath.mpc(z)
        if instance.split_law is None:
            d = instance.parameter
            return d * abs((z ** d - 2 ** d) / (d * z ** (d - 1)))
        m, t = instance.split_law
        n = m * (t + 1) - 1 - t
        prod = mpmath.rf(z + t, n)
        return n * abs((prod - m * mpmath.rf(t + 1, n))
                       / (prod * mpmath.fsum(1 / (z + t + j) for j in range(n))))


@cache
def periodic_factors_mp(instance: FamilyInstance, dps: int = 50):
    """(c0, c2, cov) of the variance and covariance periodic factors of an
    (m,t) instance at ``dps`` digits, from lambda_2 solved at 192 bits by
    ``root_mp``: the amplitude written out per family (``amplitude_mp``),
    the Dirichlet moments as gamma products, and the covariance toll
    amplitude m E[V^(lam-1) (1 + kappa sum_r V_r log V_r)] / (1 - m E[V^lam])
    taken as it stands, without the root identity m E[V^(lam-1)] = 1.
    Cached: the variance and the covariance tests read the same instances."""
    from logtrees.families import occupancy_constant
    from logtrees.roots import solve_spectrum

    root = root_mp(instance, solve_spectrum(instance).lambda2)
    m, t = instance.split_law
    k = m * (t + 1)
    phi = occupancy_constant(instance)
    with mpmath.workdps(dps):
        lam = mpmath.mpc(root)
        amp = amplitude_mp(instance, lam)

        def moment(*exps):
            return mpmath.gammaprod([t + 1 + e for e in exps] + [k],
                                    [k + sum(exps)] + [t + 1] * len(exps))

        q = amp / mpmath.gamma(lam)
        alpha = mpmath.re(lam)
        c0 = 2 * abs(q) ** 2 * (-1 + m * (m - 1) * mpmath.re(moment(lam - 1, mpmath.conj(lam) - 1))
                                / (1 - m * moment(2 * alpha - 2)))
        c2 = q * q * (-1 + m * (m - 1) * moment(lam - 1, lam - 1) / (1 - m * moment(2 * lam - 2)))
        kappa = 2 * (t + 1) * mpmath.mpf(phi.numerator) / phi.denominator
        v_log_v = moment(lam) * (mpmath.digamma(t + 1 + lam) - mpmath.digamma(k + lam))
        cross = moment(lam - 1, 1) * (mpmath.digamma(t + 2) - mpmath.digamma(k + lam))
        cov = (q * (m * moment(lam - 1) + m * kappa * (v_log_v + (m - 1) * cross))
               / (1 - m * moment(lam)))
        return float(c0), complex(c2), complex(cov)


# ---------------------------------------------------------------------------
# the hand-derived periodic factors asymptotics.periodic used before the one
# (m,t) formula: F1/F2 for m-ary trees, G1/G2 for fringe-balanced BSTs
# ---------------------------------------------------------------------------

def _lg(z) -> complex:
    return log_gamma(complex(z))


def f1_coefficients(m: int, lam: complex, a2: complex) -> tuple[float, complex]:
    alpha = lam.real
    log_mf = math.lgamma(m + 1)
    # constant block: -1 + m!(m-1)|Gamma(lam)|^2 / (Gamma(2a+m-2) - m!Gamma(2a-1))
    r_real = math.exp(log_mf + math.lgamma(2 * alpha - 1) - math.lgamma(2 * alpha + m - 2))
    amp2 = abs(a2) ** 2 * math.exp(-2 * _lg(lam).real)
    big = (m - 1) * abs(a2) ** 2 * math.exp(log_mf - math.lgamma(2 * alpha + m - 2))
    c0 = 2 * (-amp2 + big / (1 - r_real))
    # oscillating block at frequency 2 beta
    q = a2 * cmath.exp(-_lg(lam))
    r_cplx = cmath.exp(log_mf + _lg(2 * lam - 1) - _lg(2 * lam + m - 2))
    big_c = (m - 1) * a2 * a2 * cmath.exp(log_mf - _lg(2 * lam + m - 2))
    c2 = -q * q + big_c / (1 - r_cplx)
    return c0, c2


def f2_coefficient(m: int, lam: complex, a2: complex, phi: float) -> complex:
    inner = (lam + m - 1) + 2 * phi * (
        lam * digamma(lam + 1) + (m - 1) * (1 - EULER_GAMMA)
        - (m + lam - 1) * digamma(m + lam))
    return a2 * cmath.exp(-_lg(lam)) * inner / (m - 1)


def beta_moment(s: complex, t: int) -> complex:
    """E[V^s] for V ~ Beta(t+1, t+1)."""
    return cmath.exp(_lg(t + 1 + s) + math.lgamma(2 * t + 2)
                     - _lg(2 * t + 2 + s) - math.lgamma(t + 1))


def g1_coefficients(t: int, rho: complex, c2amp: complex) -> tuple[float, complex]:
    at = rho.real
    log_b0 = 2 * math.lgamma(t + 1) - math.lgamma(2 * t + 2)
    r23 = math.exp(2 * _lg(t + rho).real - math.lgamma(2 * t + 2 * at) - log_b0)
    m_real = beta_moment(2 * at - 2, t).real
    amp2 = abs(c2amp) ** 2 * math.exp(-2 * _lg(rho).real)
    c0 = 2 * amp2 * (-1 + 2 * r23 / (1 - 2 * m_real))
    r22 = cmath.exp(2 * _lg(t + rho) - _lg(2 * t + 2 * rho) - log_b0)
    m_cplx = beta_moment(2 * rho - 2, t)
    q = c2amp * cmath.exp(-_lg(rho))
    c2 = q * q * (-1 + 2 * r22 / (1 - 2 * m_cplx))
    return c0, c2


def g2_coefficient(t: int, rho: complex, c2amp: complex) -> complex:
    h = float(harmonic(2 * t + 2) - harmonic(t + 1))
    m_rho = beta_moment(rho, t)
    e_vlogv = m_rho * (digamma(t + 1 + rho) - digamma(2 * t + 2 + rho))
    log_b0 = 2 * math.lgamma(t + 1) - math.lgamma(2 * t + 2)
    n1 = cmath.exp(_lg(t + rho) + math.lgamma(t + 2) - _lg(2 * t + 2 + rho) - log_b0)
    e_cross = n1 * (digamma(t + 2) - digamma(2 * t + 2 + rho))
    stuff = 1.0 + (2.0 / h) * (e_vlogv + e_cross)
    return c2amp * cmath.exp(-_lg(rho)) * stuff / (1 - 2 * m_rho)


def sample_volumes_hstack(d: int, rng, size: int) -> np.ndarray:
    """``treesim.sample_volumes`` as d ``np.hstack`` copies of the growing
    (size, 2^l) array; the same products in the same order."""
    x = rng.random((size, d))
    while ((x <= 0.0) | (x >= 1.0)).any():
        bad = ((x <= 0.0) | (x >= 1.0)).any(axis=1)
        x[bad] = rng.random((int(bad.sum()), d))
    vol = np.ones((size, 1))
    for l in range(d):
        xl = x[:, l : l + 1]
        vol = np.hstack([vol * xl, vol * (1.0 - xl)])
    return vol


def multinomial_rows(rng, counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Multinomial per row via a chain of binomials: the quadtree cell counts
    given the cell volumes of ``treesim.sample_volumes`` rows, the reference
    route for ``treesim._cell_splits``."""
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


def quadtree_periodic_mp(d: int, cplus: complex, dps: int = 50):
    """(c0, c2, cov) of the quadtree variance factor P1 = c0 + 2 Re(c2 e^(2iz))
    and covariance factor P2 = 2 Re(cov e^(iz)) at ``dps`` digits, evaluated
    at the exact root lambda_2 = 2 e^(2 pi i / d), u = lambda_2 - 1:

        c0  = 2 |cplus|^2 Re CL(u, conj(u)) / s(2 Re u),
        c2  = cplus^2 CL(u, u) / s(2u),
        cov = cplus CK(u) / s(u + 1),

    with s(x) = 1 - 2^d (1+x)^(-d), eta(u, v) = (1/(u+v+1) + B(u+1, v+1))^d,
    CL(u, v) = 1 - eta(0, u) - eta(0, v) + 2^d eta(u, v) and
    CK(u) = eta(0, u) + 2^(d+1)/d d/dv eta(u, v) at v = 1, the derivative
    taken by mpmath.diff."""
    with mpmath.workdps(dps):
        lam = 2 * mpmath.expjpi(mpmath.mpf(2) / d)
        u, cp = lam - 1, mpmath.mpc(cplus)

        def eta(a, b):
            return (1 / (a + b + 1) + mpmath.beta(a + 1, b + 1)) ** d

        def s(x):
            return 1 - mpmath.mpf(2) ** d * (1 + x) ** (-d)

        def cl(a, b):
            return 1 - eta(0, a) - eta(0, b) + 2 ** d * eta(a, b)

        ck = eta(0, u) + mpmath.mpf(2) ** (d + 1) / d * mpmath.diff(lambda v: eta(u, v), 1)
        c0 = 2 * abs(cp) ** 2 * mpmath.re(cl(u, mpmath.conj(u))) / s(2 * mpmath.re(u))
        c2 = cp * cp * cl(u, u) / s(2 * u)
        return float(c0), complex(c2), complex(cp * ck / s(u + 1))
