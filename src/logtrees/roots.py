"""Indicial equations of the tree families and their spectra.

The growth exponents of the moment recurrences are the zeros of
branches E[V^(z-1)] = 1, V one coefficient (a subtree's share or a cell's
volume).  With the Mellin signature E[V^x] = prod_s (s+1)/(s+1+x) of
``FamilyInstance.shifts`` that is P(z) = prod (z+s) - c, c = branches prod (s+1):

    (m,t) law:  (z+t) (z+t+1) ... (z+m(t+1)-2) - m (m(t+1)-1)!/t!
    mary:       z (z+1) ... (z+m-2) - m!                      (t = 0)
    fbbst:      (z+t) (z+t+1) ... (z+2t) - 2 (2t+1)!/t!       (m = 2)
    quadtree:   z^d - 2^d                                     (d zero shifts)

z = 2 is always a zero (the principal one); the real part alpha of the
second-largest zero decides the phase of second-order moments, and each
phase cut is decided by its certified inclusion disk (below).  The
quadtree zeros 2 e^(2 pi i k / d) are solved and certified like the others;
quadtree(1), the binary search tree, has the one root z = 2 (its formal
lambda_2).

The roots solve prod (z+s)/(s+1) = branches, whose factors stay moderate in
size however large c is.  Each upper half-plane root is the one solution of
its own branch equation sum log((z+s)/(s+1)) = log branches + 2 pi i k,
k = 1 .. (deg-1)//2; a few damped Newton steps from the circle
|z + mean shift| = c^(1/deg) solve it to 1e-8, and Newton on the ratio form
then polishes it on its own to rounding noise (its relative step below
1e-12 and no longer halving).  The negative real root (even degree) takes
the same two stages, and z = 2 is exact.  lambda_2 then takes one or two
Newton steps on p evaluated exactly (a double is a Gaussian integer over a
power of two), which makes it the correctly rounded root, whatever path the
iteration took to it.  The returned roots are the upper ones, their exact
conjugates and the real ones, so conjugate symmetry and realness hold by
construction.

Each returned root z_k carries an inclusion disk |w - z_k| <= r_k =
deg |p/p'(z_k)|, which holds at least one zero of p (Bini-Fiorentino,
Numer. Algorithms 2000); r_k includes a bound on the rounding error of
evaluating p/p' in log space.  When the disks are pairwise disjoint each
holds exactly one zero, a disk centred on the real axis holds a real zero
(the zeros of a real p come in conjugate pairs), and the roots are
certified.  r_k is the same at z and at conj(z), so it is taken at the
upper and real roots only, and an upper disk that met the real axis would
overlap its mirror and fail the certificate.

Each root lam of an (m,t) law carries the amplitude A of (1-x)^(-lam) in
the generating function A(x) of the means a_n of the first measure S
(``amplitude``); the quadtree amplitude is caller-supplied.  With
K = m(t+1)-1 and theta = (1-x) d/dx = d/du under x = 1 - e^(-u), the sum of
(1-x)^K x^n C(n,K) times the recurrence is (theta)_t P(theta) A = c K!/(1-x),
c the toll of S; its Laplace residue at e^(lam u) = (1-x)^(-lam) is
A = K! (c/(lam-1) + m acc) / ((lam)_t P'(lam)), acc holding a_j for j < K.

mpmath runs only on demand: when the caller asks for more than 64 bits, or
when the double-precision disks are too wide or overlap, the roots are
Newton-polished at twice the requested precision and certified the same
way at that precision.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .families import FamilyInstance, RegimeMismatchError
from .gammafn import reciprocal_gamma


class RootConvergenceError(RuntimeError):
    pass


class IndeterminateRegimeError(RegimeMismatchError):
    """The certified disk of lambda_2 meets a phase cut."""


class AmplitudeError(ValueError):
    pass


# largest relative inclusion radius max_k r_k / max(1, |z_k|) accepted
CERTIFIED_TOLERANCE = 1e-10
_EPS = 2.0 ** -52


def indicial_shifts(instance: FamilyInstance) -> tuple[list[int], int]:
    """Factored form P(z) = prod_i (z + s_i) - c of the indicial polynomial:
    the instance's ``shifts`` and c = branches prod (s+1), which is
    m (m(t+1)-1)! / t! for the (m,t) law and 2^d for a quadtree."""
    shifts = list(instance.shifts)
    return shifts, instance.branches * math.prod(s + 1 for s in shifts)


@dataclass(frozen=True)
class Spectrum:
    """All indicial roots of one instance, sorted by decreasing real part
    (ties by decreasing imaginary part), with their certified inclusion
    disks; alpha, beta, lambda_2 and certified_error are read from them.

    Construction checks by the disks the root order that the phase
    decisions rely on, and raises RootConvergenceError otherwise: the
    principal root's disk holds z = 2; a lambda_2 that is not real has its
    exact conjugate as the third root; and the disk of the next root lies
    strictly left of lambda_2's."""

    instance: FamilyInstance
    # Python complex from the double-precision certificate; mpmath values
    # when the roots were polished (precision > 64 or the double
    # certificate failed).  complex(r) works on every item.
    roots: tuple
    # inclusion radii r_k, one per root: |w - roots[k]| <= r_k holds exactly
    # one zero w, and the disks are pairwise disjoint
    radii: tuple = field(repr=False)

    def __post_init__(self):
        if not abs(self.roots[0] - 2) <= self.radii[0]:
            raise RootConvergenceError(
                f"principal root {self.principal_root} is not 2 for {self.instance}")
        nxt = 2
        if self.beta > 0.0:
            nxt = 3
            lam2, lam3 = complex(self.roots[1]), complex(self.roots[2])
            if lam3 != lam2.conjugate():
                raise RootConvergenceError(f"ordering violated: {lam3} is not conj({lam2})")
        if self.degree > nxt and not self._real_span(nxt)[1] < self._real_span(1)[0]:
            raise RootConvergenceError(
                f"ordering violated: root {nxt + 1} not strictly below alpha for {self.instance}")

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def principal_root(self) -> complex:
        return complex(self.roots[0])

    @property
    def lambda2(self) -> complex:
        """Second-largest root, the upper member of its pair; z = 2, the
        formal lambda_2, at degree 1.  Real roots are exactly real, and a
        certified upper root's disk does not meet the real axis (it would
        overlap its mirror), so beta = 0 exactly when lambda_2 is real."""
        z = complex(self.roots[1 if self.degree > 1 else 0])
        return complex(z.real, abs(z.imag))

    @property
    def alpha(self) -> float:
        return self.lambda2.real

    @property
    def beta(self) -> float:
        return self.lambda2.imag

    @property
    def certified_error(self) -> float:
        """max_k r_k / max(1, |z_k|) over the inclusion disks."""
        return _relative_radius(self.roots, self.radii)

    def _real_span(self, k: int) -> tuple[float, float]:
        """Doubles lo <= hi such that [lo, hi] holds Re w for every w in the
        disk of root k, and the real part of the root rounded to double.  An
        mpmath centre moves by at most eps/2 |x| in that rounding, so its
        radius grows by eps |x|; each bound is then rounded outward."""
        z, r = self.roots[k], self.radii[k]
        x = complex(z).real
        if x != z.real:
            r = math.nextafter(r + _EPS * abs(x), math.inf)
        return math.nextafter(x - r, -math.inf), math.nextafter(x + r, math.inf)


def _relative_radius(points, radii) -> float:
    """max_k r_k / max(1, |z_k|), the certified error of a set of disks."""
    return max(r / max(1.0, abs(complex(p))) for p, r in zip(points, radii))


def _branch_circle(shifts: Sequence[int], m: int) -> np.ndarray:
    """The roots of (z + mean shift)^deg = c in the upper half-plane,
    -mean + c^(1/deg) e^(2 pi i k / deg) for k = 1 .. (deg-1)//2: where the
    Newton iteration on branch k starts."""
    sh = np.asarray(shifts, dtype=float)
    deg = len(sh)
    radius = math.exp((math.log(m) + np.log(sh + 1.0).sum()) / deg)
    k = np.arange(1, (deg - 1) // 2 + 1)
    return -sh.mean() + radius * np.exp(2j * np.pi * k / deg)


def _branch_roots(shifts: Sequence[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The roots of prod (z+s)/(s+1) = m (m the number of branches) in the
    upper half-plane, one per branch, and the real roots: z = 2 and, for even
    degree, the negative one.

    On the upper half-plane F(z) = sum log((z+s)/(s+1)) is univalent (its
    derivative sum 1/(z+s) has negative imaginary part), so each branch
    F(z) = log m + 2 pi i k, k = 1 .. (deg-1)//2, has exactly one root.
    Newton steps on it from the ``_branch_circle`` point, halved while they
    would leave the half-plane, run until every relative step is below
    1e-8.  The negative real root solves sum log(-(x+s)/(s+1)) = log m by
    Newton from x = -(max shift + 1), where the product is at most 1 < m:
    the left side is concave and increasing in -x, so the steps climb
    monotonically onto the root.

    Each of these roots is then polished on its own by Newton in the ratio
    form p/p' = (1 - m/q) / sum 1/(z+s), q = prod (z+s)/(s+1), whose
    factors stay moderate in size, so no factorial constant or its
    logarithm enters.  A root stops at rounding noise: once its relative
    step is below 1e-12 and no longer halves.  z = 2 is exact."""
    sh = np.asarray(shifts, dtype=float)
    deg = len(sh)
    den = sh + 1.0
    log_den = np.log(den)
    target = math.log(m)
    z = _branch_circle(shifts, m)
    branch = 2j * np.pi * np.arange(1, z.size + 1)
    todo = np.arange(z.size)
    for _ in range(50):
        if not todo.size:
            break
        zs = z[todo, None] + sh[None, :]
        step = ((np.log(zs) - log_den).sum(axis=1) - target - branch[todo]) \
            / (1.0 / zs).sum(axis=1)
        new = z[todo] - step
        while (new.imag <= 0.0).any():
            step[new.imag <= 0.0] *= 0.5
            new = z[todo] - step
        z[todo] = new
        todo = todo[np.abs(step) > 1e-8 * (1.0 + np.abs(new))]
    if deg % 2 == 0:
        x = -sh.max() - 1.0
        for _ in range(50):
            xs = x + sh
            step = ((np.log(-xs) - log_den).sum() - target) / (1.0 / xs).sum()
            x -= step
            if abs(step) <= 1e-8 * (1.0 + abs(x)):
                break
        z = np.append(z, x)
    prev = np.full(z.size, math.inf)
    todo = np.arange(z.size)
    for _ in range(50):
        if not todo.size:
            break
        zs = z[todo, None] + sh[None, :]
        step = (1.0 - m / (zs / den).prod(axis=1)) / (1.0 / zs).sum(axis=1)
        z[todo] -= step
        rel = np.abs(step) / (1.0 + np.abs(z[todo]))
        stop = (rel == 0.0) | ((rel <= 1e-12) & (rel > 0.5 * prev[todo]))
        prev[todo] = rel
        todo = todo[~stop]
    upper = z[:(deg - 1) // 2]
    return upper, np.append(2.0, z[upper.size:])


def _newton_exact(shifts: Sequence[int], const: int, z: complex) -> complex:
    """One or two Newton steps on p(z) = prod (z+s) - c with p evaluated
    exactly.

    A double z is a Gaussian integer over a power of two D, so D^deg p(z) is
    a Gaussian integer.  The step p/p' = (1 - c/P) / sum 1/(z+s),
    P = prod (z+s), then carries only the few rounding errors of its double
    evaluation, far below an ulp of z, and z - step is the correctly
    rounded root once z is within a few ulps of it."""
    for _ in range(2):
        (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        d = max(da, db)
        a, b = a * (d // da), b * (d // db)
        re, im = 1, 0
        for s in shifts:
            u = a + s * d
            re, im = re * u - im * b, re * b + im * u
        # scale numerator and denominator alike into the double range
        scale = 1 << max(0, max(re.bit_length(), im.bit_length()) - 64)
        ratio = complex((re - const * d ** len(shifts)) / scale, im / scale) \
            / complex(re / scale, im / scale)
        new = z - ratio / sum(1.0 / (z + s) for s in shifts)
        if new == z:
            break
        z = new
    return z


def _radii_double(shifts: Sequence[int], log_c: float, points: Sequence[complex]) -> list[float]:
    """Inclusion radii deg |p/p'(z)| evaluated in double precision.

    p/p' = (1 - exp(E)) / S with E = log c - sum log(z+s) and
    S = sum 1/(z+s).  Both sums are taken with math.fsum per component.
    The rounding bound charges E with 2 eps (|log(z+s)| + 1) per log term,
    2 eps (|log c| + 1) for log c and eps |E| for the sum, exp with 2 eps,
    and S with 4 eps |1/(z+s)| per term.  A point whose S cannot be bounded
    away from 0 gets radius inf.
    """
    deg = len(shifts)
    zs = np.asarray(points, dtype=complex)[:, None] + np.asarray(shifts, dtype=float)[None, :]
    logs = np.log(zs)
    log_abs = np.abs(logs).sum(axis=1)
    inv = 1.0 / zs
    inv_abs = np.abs(inv).sum(axis=1)
    radii = []
    for k in range(len(zs)):
        e = complex(math.fsum([log_c, *(-logs[k].real).tolist()]),
                    -math.fsum(logs[k].imag.tolist()))
        slack = 2.0 * _EPS * (log_abs[k] * (1.0 + deg * _EPS) + deg + abs(log_c) + 1.0) \
            + _EPS * abs(e)
        q = cmath.exp(e)
        num = (abs(1.0 - q) + abs(q) * math.expm1(slack + 2.0 * _EPS)) * (1.0 + 4.0 * _EPS)
        s = complex(math.fsum(inv[k].real.tolist()), math.fsum(inv[k].imag.tolist()))
        den = abs(s) * (1.0 - 2.0 * _EPS) - 4.0 * _EPS * inv_abs[k] * (1.0 + deg * _EPS)
        radii.append(deg * num / den * (1.0 + 4.0 * _EPS) if den > 0.0 else math.inf)
    return radii


def _certify_mp(shifts: Sequence[int], const: int, upper, real, prec: int):
    """Newton-polish the upper half-plane and real roots with mpmath at
    ``prec`` bits, mirror the upper ones, and certify them with inclusion
    disks evaluated at that precision."""
    from mpmath import mp, mpc

    with mp.workprec(prec):
        half = []
        for z0 in [*upper, *real]:
            z = mpc(z0.real, z0.imag)
            for _ in range(6):
                prod = mpc(1)
                s1 = mpc(0)
                for s in shifts:
                    term = z + s
                    prod *= term
                    s1 += 1 / term
                step = (prod - const) / (prod * s1)
                z -= step
                if abs(step) <= 2.0 ** (-prec + 8) * (1 + abs(z)):
                    break
            half.append(z)
        return _certify(half[:len(upper)], half[len(upper):],
                        lambda pts: _radii_mp(shifts, const, pts))


def _radii_mp(shifts: Sequence[int], const: int, points) -> list[float]:
    """Inclusion radii deg |p/p'(z)| evaluated with mpmath at the current
    working precision.

    p = prod - c and p' = prod S.  Each complex operation is charged a
    relative error of 4 units in the last place, so the product and the
    sum S = sum 1/(z+s) carry at most gamma = 4 (deg+2) 2^-prec each.
    Radii are rounded up to floats.
    """
    from mpmath import mp, mpc

    deg = len(shifts)
    gamma = 4 * (deg + 2) * mp.mpf(2) ** (-mp.prec)
    radii = []
    for z in points:
        prod, s1, inv_abs = mpc(1), mpc(0), mp.mpf(0)
        for s in shifts:
            term = z + s
            prod *= term
            inv = 1 / term
            s1 += inv
            inv_abs += abs(inv)
        num = abs(prod - const) * (1 + gamma) + gamma * abs(prod) * (1 + gamma)
        den = abs(prod) * (1 - gamma) * (abs(s1) - gamma * inv_abs)
        r = deg * num / den * (1 + gamma) if den > 0 else mp.inf
        radii.append(math.nextafter(float(r), math.inf))
    return radii


def _disjoint(points, radii) -> bool:
    """Pairwise disjointness of the disks, with the rounding of the
    distances charged to each pair."""
    z = np.array([complex(p) for p in points])
    r = np.asarray(radii, dtype=float)
    slack = 2.0 * _EPS * np.abs(z)
    gap = np.abs(z[:, None] - z[None, :]) - (slack[:, None] + slack[None, :]) \
        - (r[:, None] + r[None, :])
    np.fill_diagonal(gap, np.inf)
    return bool((gap > 0.0).all())


def _certify(upper, real, radius_fn: Callable) -> tuple[list, list[float]] | None:
    """The points (the upper half-plane roots, their exact conjugates and
    the real roots) and their radii, or None when the disks are not
    pairwise disjoint (then they need not hold one root each).  r_k is the
    same at z and at conj(z), so ``radius_fn`` runs on the upper and real
    points only and the conjugates take the radii of their partners; an
    upper disk that meets the real axis overlaps its mirror."""
    radii = radius_fn([*upper, *real])
    radii = [*radii[:len(upper)], *radii[:len(upper)], *radii[len(upper):]]
    points = [*upper, *(z.conjugate() for z in upper), *real]
    if not _disjoint(points, radii):
        return None
    return points, radii


def solve_spectrum(instance: FamilyInstance, precision: int = 64) -> Spectrum:
    """Locate all indicial roots and certify them.

    ``precision`` is the working precision in bits (>= 64).  At 64 the
    branch roots are certified directly in double precision: every
    root lies within its inclusion disk, the disks are pairwise disjoint,
    and ``certified_error`` = max_k r_k / max(1, |z_k|) must not exceed
    1e-10.  Above 64 bits, or when the double-precision certificate fails,
    the roots are Newton-polished with mpmath at twice ``precision`` and
    certified by the same disks evaluated at that precision.  The
    ``Spectrum`` then checks the root order by the disks.
    """
    if precision < 64:
        raise ValueError("precision must be >= 64 bits")
    shifts, const = indicial_shifts(instance)
    deg = len(shifts)
    m = instance.branches
    if m >= 2 ** 1024:  # the ratio form reaches prod (z+s)/(s+1) = m in doubles
        raise ValueError(f"{instance}: {m} branches exceed the double range of the solver")
    upper, real = _branch_roots(shifts, m)
    # lambda_2, the root after z = 2, is the upper root of largest real part
    # (an upper z with Re z <= x, x the negative real root, would have
    # |z+s| > |x+s| for every s), or the negative real root at degree 2.
    # It alone is polished on p exactly; its partner is its conjugate.
    if upper.size:
        k = int(np.argmax(upper.real))
        upper[k] = _newton_exact(shifts, const, complex(upper[k]))
    elif deg == 2:
        real[1] = _newton_exact(shifts, const, complex(real[1]))

    # log c = log m + sum log(s+1), a sum of rounded logs: math.log of the
    # big integer c is off by up to ~1e-13 at degree 150, which the radii
    # see as a residual at every root
    log_c = math.fsum([math.log(m), *(math.log(s + 1) for s in shifts)])
    found = None
    if precision == 64:
        found = _certify(upper.tolist(), real.tolist(),
                         lambda pts: _radii_double(shifts, log_c, pts))
    if found is None or _relative_radius(*found) > CERTIFIED_TOLERANCE:
        found = _certify_mp(shifts, const, upper.tolist(), real.tolist(), 2 * precision)
    if found is None:
        raise RootConvergenceError(f"inclusion disks overlap for {instance}")
    certified = _relative_radius(*found)
    if certified > CERTIFIED_TOLERANCE:
        raise RootConvergenceError(
            f"inclusion radii not certified below {CERTIFIED_TOLERANCE} for "
            f"{instance} (best effort {certified:.3e})")

    roots, radii = zip(*sorted(zip(*found),
                               key=lambda zr: (-float(zr[0].real), -float(zr[0].imag))))
    return Spectrum(instance=instance, roots=roots, radii=radii)


@dataclass(frozen=True)
class QuadtreeExponents:
    """lambda_2 = 2 e^(2 pi i / d) = alpha_hat + 1 + i beta_hat of quadtree(d)."""

    d: int
    alpha_hat: float
    beta_hat: float


def quadtree_exponents(spectrum: Spectrum) -> QuadtreeExponents:
    """The quadtree view of a solved spectrum of z^d - 2^d."""
    return QuadtreeExponents(d=spectrum.instance.parameter, alpha_hat=spectrum.alpha - 1.0,
                             beta_hat=spectrum.beta)


class CovariancePhase(str, Enum):
    LINEAR = "linear"
    PERIODIC = "periodic"


class DistributionPhase(str, Enum):
    GAUSSIAN = "gaussian"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Regime:
    covariance_phase: CovariancePhase
    distribution_phase: DistributionPhase


def _right_of_cut(spectrum: Spectrum, cut: float, closed: bool = False) -> bool:
    """True when the certified disk of lambda_2 (widened by the rounding of
    an mpmath centre to double) lies wholly right of ``cut``, False when it
    lies wholly left.  A disk that meets the cut counts as right of a
    ``closed`` cut, and raises IndeterminateRegimeError otherwise."""
    lo, hi = spectrum._real_span(1)
    if lo > cut or (closed and hi >= cut):
        return True
    if hi < cut:
        return False
    raise IndeterminateRegimeError(
        f"{spectrum.instance}: the certified disk of lambda_2 ({lo!r} <= Re <= {hi!r}) "
        f"meets the phase cut alpha = {cut}")


def classify_regime(spectrum: Spectrum) -> Regime:
    """Phase classification: the covariance turns periodic for alpha > 1,
    the distribution for alpha > 3/2.  A cut is decided only when the
    certified disk of lambda_2 lies wholly on one side of it (for mpmath
    roots, together with the centre rounded to double); a disk that meets a
    cut raises IndeterminateRegimeError.  Two exact rules: degree 1
    (quadtree(1), the BST) is linear and Gaussian, its formal lambda_2 = 2
    being the principal root; and the quadtree covariance cut is closed (a
    disk meeting alpha = 1 is periodic), since Re lambda_2 = 2 cos(2 pi / d)
    is exactly 1 at d = 6.
    """
    if spectrum.degree == 1:
        return Regime(CovariancePhase.LINEAR, DistributionPhase.GAUSSIAN)
    cov = _right_of_cut(spectrum, 1.0, closed=spectrum.instance.split_law is None)
    dist = _right_of_cut(spectrum, 1.5)
    return Regime(
        CovariancePhase.PERIODIC if cov else CovariancePhase.LINEAR,
        DistributionPhase.PERIODIC if dist else DistributionPhase.GAUSSIAN,
    )


def require_phase(spectrum: Spectrum, phase: CovariancePhase | DistributionPhase, what: str):
    """RegimeMismatchError, naming both phases and alpha, unless the spectrum is in ``phase``."""
    name = "covariance" if isinstance(phase, CovariancePhase) else "distribution"
    if (got := getattr(classify_regime(spectrum), f"{name}_phase")) is not phase:
        why = f"alpha = {spectrum.alpha:.6g}" if spectrum.degree > 1 else "no root besides z = 2"
        raise RegimeMismatchError(f"{what} needs the {phase.value} {name} phase; {spectrum.instance}"
                                  f" is {got.value} ({why})")


def amplitude_law(spectrum: Spectrum) -> tuple[int, int]:
    """(m, t) of the split law the amplitude formulas need; AmplitudeError
    for a quadtree, whose amplitude is caller-supplied (cplus, theta)."""
    law = spectrum.instance.split_law
    if law is None:
        raise AmplitudeError(f"no amplitude formula for {spectrum.instance}: "
                             "the quadtree amplitude is caller-supplied (cplus, theta)")
    return law


def amplitude(spectrum: Spectrum, k: int = 2) -> complex:
    """Amplitude A of (1-x)^(-lam) at the k-th root lam (1-based, k >= 2) in
    the mean generating function of S (module docstring), for any (m,t):

        A = t! (m (1-lam) acc - c) / (m (1-lam) (lam)_t sum_{t<=s<K} 1/(lam+s)),
        acc = sum_{t<=j<K} a_j (t+1)_(j-t) / (lam+t)_(j-t+1)   (nested, from j = K-1),

    with a_0 = 0, a_j = S.initial and c the toll of S.  Over 1 - lam, a real
    root's zero imaginary part has the sign the per-family forms gave it."""
    m, t = amplitude_law(spectrum)
    if k < 2 or k > spectrum.degree:
        raise AmplitudeError(f"k must index a non-principal root (2..{spectrum.degree})")
    lam = complex(spectrum.roots[k - 1])
    size = m * (t + 1) - 1
    first = spectrum.instance.measures[0]
    acc = 0.0
    for j in range(size - 1, t - 1, -1):
        acc = ((first.initial if j else 0) + (j + 1) * acc) / (lam + j)
    # (1-lam) (lam)_t = prod 2^e, rescaled by powers of two (exactly) before
    # it leaves the double range; t! / 2^e is then rounded once
    prod, e = 1.0 - lam, 0
    for i in range(0, t):
        prod *= lam + i
        if abs(prod) > 2.0 ** 512:
            prod, e = prod * 2.0 ** -512, e + 512
    s = sum(1.0 / (j + lam) for j in range(t, size))
    return math.factorial(t) / 2 ** e * (m * (1.0 - lam) * acc - first.toll[0]) / (m * prod * s)


def theta(spectrum: Spectrum) -> complex:
    """Oscillation amplitude 2 A_2 / Gamma(lambda_2) of the linear-mean correction,
    A_2 the (m,t) ``amplitude`` (C_2 for fbbst).  Zero when lambda_2 is a
    negative integer, where 1/Gamma vanishes."""
    lam = spectrum.lambda2
    return 2.0 * amplitude(spectrum, 2) * reciprocal_gamma(lam)
