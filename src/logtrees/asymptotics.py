"""Closed-form asymptotic constants and periodic functions.

Linear-mean and quadratic-variance constants (phi, C_K, D_X and E_X are
computed in ``families``; ``FamilyInstance.variance_constant`` picks the
family's one):

    phi  = 1/(2(H_m - 1))                      occupancy constant
    c1   = -1/2 - 4 phi + 2 phi^2 (H_m^(2)-1) + 2 phi gamma
    C_K  = 4 phi^2 (((m+1) H_m^(2) - 2)/(m-1) - pi^2/6)
    D_X  = ((2t+3)/(t+1) H_{2t+2}^(2) - (t+2)/(t+1) H_{t+1}^(2) - pi^2/6)
           / (H_{2t+2} - H_{t+1})^2
    E_X  = 3^d/(3^d - 2^d) * (21 - 2 pi^2)/(9 d)

The c1 constant carries 2 phi gamma, not the sometimes-quoted plus-gamma:
re-deriving through the asymptotic transfer with toll n-m+1 gives the
2 phi gamma form, and at m=2 it reproduces the classical quicksort value
2 gamma - 4.  The quoted variant is kept in ``tests/oracles.py``.

Periodic second-order factors (z = beta log n):

    Var(S_n)      ~ F1(z) n^(2 alpha - 2)      (m >= 27)
    Cov(S_n, K_n) ~ F2(z) n^alpha              (m >= 14)
    rho(S_n, K_n) ~ F2(z)/sqrt(C_K F1(z))      (m >= 27)

with fbbst analogues G1 (t >= 59), G2 (t >= 29) and quadtree analogues
P1 (d >= 9), P2 (d >= 6).  F1/G1 and F2/G2 are one formula each over the
(m,t) law, V ~ Dirichlet(t+1, ..., t+1): with M = m(t+1), lam = lambda_2,
q = A_2/Gamma(lam) (A_2 the one (m,t) ``roots.amplitude``, the same expression
for mary and fbbst), s(x) = 1 - m E[V^x] and kappa = 2(t+1) phi, the variance
factor is c0 + 2 Re(c2 e^(2iz)) and the covariance factor 2 Re(c e^(iz)),

    c0 = 2|q|^2 (-1 + m(m-1) Re E[V_1^(lam-1) V_2^(conj(lam)-1)] / s(2 alpha - 2))
    c2 = q^2 (-1 + m(m-1) E[V_1^(lam-1) V_2^(lam-1)] / s(2 lam - 2))
    c  = q ((M+lam-1) + kappa ((t+lam) psi(t+1+lam) + (m-1)(t+1) psi(t+2)
         - (M+lam-1) psi(M+lam))) / ((m-1)(t+1)),

c being the toll amplitude q m E[V^(lam-1) (1 + kappa sum_r V_r log V_r)] / s(lam)
reduced with m E[V^(lam-1)] = 1 at the root.  The sometimes-quoted displays
drop the conjugate-pair factor, carry inconsistent digamma coefficients and
are rejected by the exact moment tables.  Every gamma ratio runs through
log space, so branching degrees in the hundreds stay in range.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .families import (  # RegimeMismatchError and the variance constants are re-exported
    PERIODIC_KINDS,
    FamilyInstance,
    RegimeMismatchError,
    dirichlet_moment,
    fbbst_tpl_variance_constant,
    harmonic,
    kpl_variance_constant,
    occupancy_constant,
    quadtree_ipl_variance_constant,
)
from .gammafn import digamma, gamma, log_gamma
from .roots import (CovariancePhase, DistributionPhase, Spectrum, amplitude, amplitude_law,
                    classify_regime, require_phase, solve_spectrum, theta)

EULER_GAMMA = 0.57721566490153286061
PI = 3.14159265358979323846


# ---------------------------------------------------------------------------
# scalar constants
# ---------------------------------------------------------------------------

def c1_constant(m: int) -> float:
    """Linear coefficient of E[K_n] = 2 phi n log n + c1 n + o(n).  c1 and
    c2 - phi c1 are t = 0 constants: the key path length (toll n - m + 1) and
    the uniform spacings V ~ Dirichlet(1, ..., 1) give their H_m^(2) and gamma
    terms, and no (m,t) form is derived, so t >= 1 laws have none."""
    phi = float(occupancy_constant((m, 0)))
    return -0.5 - 4 * phi + 2 * phi * phi * (float(harmonic(m, 2)) - 1) + 2 * phi * EULER_GAMMA


def c2_minus_phi_c1(spectrum: Spectrum) -> float:
    """c2 - phi c1 = 2 phi (phi - 1/(m-1) + sum_l A_l/(2 - lambda_l)) over
    the certified roots; a rational number in disguise.  A t = 0 constant
    (``c1_constant``): a spectrum with t >= 1 raises ValueError, a quadtree
    spectrum AmplitudeError."""
    m, t = amplitude_law(spectrum)
    if t != 0:
        raise ValueError("c2 - phi c1 is defined for the t = 0 (m-ary) split law only")
    phi = float(occupancy_constant(spectrum.instance))
    tot = sum(amplitude(spectrum, k) / (2.0 - spectrum.roots[k - 1])
              for k in range(2, spectrum.degree + 1))
    if abs(tot.imag) > 1e-9 * max(1.0, abs(tot.real)):
        raise ArithmeticError(f"root sum not real: {tot}")
    return 2 * phi * (phi - 1 / (m - 1) + tot.real)


# exact rational values of c2 - phi c1, m = 3..30, which the root-sum
# formula reproduces to REFERENCE_C2C1_TOL relative: the ``table c2`` match
# column and acceptance criterion 2 both test |value - ref| / ref <= it
REFERENCE_C2C1_TOL = 1e-9
REFERENCE_C2C1: dict[int, Fraction] = {
    3: Fraction(12, 125),
    4: Fraction(222, 2197),
    5: Fraction(44670, 456533),
    6: Fraction(710, 7569),
    7: Fraction(8990170, 99806103),
    8: Fraction(86959460, 1001561769),
    9: Fraction(8225243460, 97908438529),
    10: Fraction(9368632980, 114862129381),
    11: Fraction(13941168359580, 175531341607271),
    12: Fraction(15364018080180, 198165483844901),
    13: Fraction(36778736979244260, 484907780151231137),
    14: Fraction(39706104830251860, 534148059351752117),
    15: Fraction(42542306175669300, 583013664848115773),
    16: Fraction(362341148683714200, 5051607560589134719),
    17: Fraction(60809828396490973800, 861420713064800471777),
    18: Fraction(220781849887636437400, 3174476111482140491583),
    19: Fraction(1589879045909940738152200, 23180880112213178399314917),
    20: Fraction(66535629228892650939112, 982905224931956375768865),
    21: Fraction(69399644946307963559272, 1037954891250806970920625),
    22: Fraction(72191400913204902200872, 1092384284013327674677545),
    23: Fraction(911488027263952226045421464, 13945777153309079949132939375),
    24: Fraction(943834826916499599456679304, 14593082411910111966602252205),
    25: Fraction(3048229719576792424490262245800, 47603282606571951420821994029889),
    26: Fraction(3144754504512378111611222765800, 49580602253255626178697360169689),
    27: Fraction(787117453959995151898324789769400, 12523181563980976087610969389067627),
    28: Fraction(809570585901011449194661971389400, 12992983079952314295925927936613927),
    29: Fraction(20280854972612671613961769087339836600,
                 328217277361176269245342166728792498003),
    30: Fraction(20806237502125190663861808383733444600,
                 339424705221771320114642916145949390923),
}


@dataclass(frozen=True)
class FamilyConstants:
    """Bundle of closed-form asymptotic constants for one instance;
    ``harmonic_1`` and ``harmonic_2`` are ``FamilyInstance.harmonics``."""

    instance: FamilyInstance
    phi: Fraction | None
    harmonic_1: Fraction
    harmonic_2: Fraction
    c1: float | None
    c2_minus_phi_c1: float | None
    c2_minus_phi_c1_exact: Fraction | None
    cK: float
    theta: complex | None

    def to_dict(self) -> dict:
        return {
            "instance": str(self.instance),
            "phi": self.phi,
            "phi_float": None if self.phi is None else float(self.phi),
            "harmonic_1": self.harmonic_1,
            "harmonic_2": self.harmonic_2,
            "c1": self.c1,
            "c2_minus_phi_c1": self.c2_minus_phi_c1,
            "c2_minus_phi_c1_exact": self.c2_minus_phi_c1_exact,
            "cK": self.cK,
            "theta_re": None if self.theta is None else self.theta.real,
            "theta_im": None if self.theta is None else self.theta.imag,
        }


def constants(instance: FamilyInstance) -> FamilyConstants:
    """All closed-form constants of one instance (solving the spectrum for
    the root-dependent ones)."""
    law = instance.split_law
    spectrum = None if law is None else solve_spectrum(instance)
    uniform = law is not None and law[1] == 0
    return FamilyConstants(
        instance, None if law is None else occupancy_constant(instance), *instance.harmonics,
        c1=c1_constant(law[0]) if uniform else None,
        c2_minus_phi_c1=c2_minus_phi_c1(spectrum) if uniform else None,
        c2_minus_phi_c1_exact=REFERENCE_C2C1.get(law[0]) if uniform else None,
        cK=instance.variance_constant,
        theta=None if law is None else theta(spectrum),
    )


# ---------------------------------------------------------------------------
# Dirichlet integrals over the simplex
# ---------------------------------------------------------------------------

def dirichlet_I(u: complex, v: complex, m: int) -> complex:
    """The simplex integral of (sum x_l^(u-1))(sum x_r^(v-1)) from the t = 0
    Dirichlet moments: (m E[V^(u+v-2)] + m(m-1) E[V_1^(u-1) V_2^(v-1)]) / Gamma(m),
    the simplex having volume 1/Gamma(m)."""
    if m < 2:
        raise ValueError("m >= 2 required")
    return ((m * dirichlet_moment(m, 0, u + v - 2)
             + m * (m - 1) * dirichlet_moment(m, 0, u - 1, v - 1)) / math.factorial(m - 1))


def dirichlet_dv(u: complex, m: int) -> complex:
    """d/dv of dirichlet_I at v = 2: the simplex integral of
    (sum x_l^(u-1))(sum x_r log x_r)."""
    return (m * gamma(u) / gamma(u + m)
            * (u * digamma(u + 1) + (m - 1) * (1 - EULER_GAMMA)
               - (m + u - 1) * digamma(m + u)))


def dirichlet_dudv(m: int) -> float:
    """d^2/du dv of dirichlet_I at u = v = 2: the simplex integral of
    (sum x_r log x_r)^2.

    The closed form is (H_m^(2) + (H_m-1)^2 - 2/(m+1)
    - (m-1) pi^2 / (6(m+1))) / (m-1)!, which matches adaptive quadrature
    and the quadratic-toll identity behind C_K.  The sometimes-quoted
    variant with 4/phi^2 in place of (H_m-1)^2 = 1/(4 phi^2) and without
    the 1/(m-1)! normalisation is kept in ``tests/oracles.py``.
    """
    h1 = float(harmonic(m))
    h2 = float(harmonic(m, 2))
    return ((h2 + (h1 - 1) ** 2 - 2 / (m + 1) - (m - 1) * PI * PI / (6 * (m + 1)))
            / math.factorial(m - 1))


# ---------------------------------------------------------------------------
# periodic functions
# ---------------------------------------------------------------------------

def _s(instance: FamilyInstance, x):
    """s(x) = 1 - branches E[V^x], the denominator of every periodic factor.
    It is small near the phase change (5.2e-3 at fbbst(59)), so E[V^x] is the
    finite product ``coefficient_moment``, not a gamma ratio in log space,
    where logarithms up to ~500 would leave ~1e-13 of it."""
    return 1 - instance.branches * instance.coefficient_moment(x)


def _variance_factor(instance: FamilyInstance, lam: complex, amp2: complex):
    """(c0, c2) of the Var(S) factor (module docstring): both come from
    -1 + m(m-1) E[V_1^(lam-1) V_2^(mu-1)] / s(lam+mu-2), at mu = conj(lam) and mu = lam."""
    m, t = instance.split_law
    q = amp2 * cmath.exp(-log_gamma(lam))
    b0, b2 = (-1 + m * (m - 1) * dirichlet_moment(m, t, lam - 1, mu - 1)
              / _s(instance, lam + mu - 2)
              for mu in (lam.conjugate(), lam))
    return 2 * abs(q) ** 2 * b0.real, q * q * b2


def _covariance_factor(m: int, t: int, lam: complex, amp2: complex, phi: float) -> complex:
    """c of the Cov(S, path length) factor (module docstring).

    The bracket there cancels to a small value (0.25 out of terms near 1300
    at fbbst(120)).  With psi(M+lam) = psi(t+1+lam) + sum_{t<j<M} 1/(j+lam)
    and 1/kappa = H_M - H_{t+1} = sum_{t<j<M} 1/(j+1) it is taken as

        (M+lam-1) kappa (lam-1) sum_{t<j<M} 1/((j+1)(j+lam))
        + kappa (m-1)(t+1) (psi(t+2) - psi(t+1+lam)),

    whose terms are a few times the result, not a thousand times."""
    k = m * (t + 1)
    kappa = 2 * (t + 1) * phi
    psi_t2 = float(harmonic(t + 1)) - EULER_GAMMA
    inner = ((k + lam - 1) * kappa * (lam - 1) * sum(1.0 / ((j + 1) * (j + lam))
                                                       for j in range(t + 1, k))
             + kappa * (m - 1) * (t + 1) * (psi_t2 - digamma(t + 1 + lam)))
    return amp2 * cmath.exp(-log_gamma(lam)) * inner / ((m - 1) * (t + 1))


def _eta(u: complex, v: complex, d: int) -> complex:
    base = 1 / (u + v + 1) + cmath.exp(log_gamma(u + 1) + log_gamma(v + 1)
                                       - log_gamma(u + v + 2))
    return base ** d


def _eta_dv_at_one(u: complex, d: int) -> complex:
    base = 1 / (u + 2) + 1 / ((u + 1) * (u + 2))
    inner = (-1 / (u + 2) ** 2
             + (1 / ((u + 1) * (u + 2))) * (digamma(2.0) - digamma(u + 3)))
    return d * base ** (d - 1) * inner


def _quadtree_cl(u: complex, v: complex, d: int) -> complex:
    return 1 - _eta(0.0, u, d) - _eta(0.0, v, d) + 2 ** d * _eta(u, v, d)


def _quadtree_ck(u: complex, d: int) -> complex:
    # printed with two arguments but used with one; the single-argument
    # reading eta(0,u) + 2^(d+1)/d * d/dv eta(u,v)|_{v=1} is implemented
    return _eta(0.0, u, d) + (2 ** (d + 1) / d) * _eta_dv_at_one(u, d)


class PeriodicFunction:
    """Pointwise-evaluable periodic factor const + 2 Re(osc e^(i frequency z));
    real-valued, period pi or 2 pi."""

    def __init__(self, kind: str, const: float, osc: complex, frequency: int):
        self.kind = kind
        self.const = const          # non-oscillating part
        self.osc = osc              # coefficient of e^(i * frequency * z)
        self.frequency = frequency  # 1 or 2

    def __call__(self, z: float) -> float:
        return self.const + 2 * (self.osc * cmath.exp(1j * self.frequency * z)).real

    def sample(self, points: int):
        """(z, value) pairs over one full 2 pi window."""
        zs = [2 * math.pi * i / points for i in range(points)]
        return [(z, self(z)) for z in zs]


class CorrelationFactor(PeriodicFunction):
    """rho(z) = f_cov(z) / sqrt(C f_var(z)): the periodic factor of the
    correlation of S and the path length, from the family's covariance and
    variance factors and its variance constant C (Frho = F2 / sqrt(C_K F1)
    for m-ary trees)."""

    def __init__(self, kind: str, instance: FamilyInstance, spectrum: Spectrum):
        super().__init__(kind, 0.0, 0.0, 1)  # f_cov has period 2 pi
        var_kind, cov_kind = instance.periodic_factors
        self.f_var = periodic(var_kind, instance, spectrum)
        self.f_cov = periodic(cov_kind, instance, spectrum)
        self.scale = instance.variance_constant

    def __call__(self, z: float) -> float:
        denom = self.scale * self.f_var(z)
        if denom <= 0:
            raise ArithmeticError(f"{self.f_var.kind}({z}) <= 0; correlation factor undefined")
        return self.f_cov(z) / math.sqrt(denom)


def periodic(kind: str, instance: FamilyInstance,
             spectrum: Spectrum | None = None,
             cplus: complex | None = None) -> PeriodicFunction:
    """Construct one of the periodic factors, enforcing its regime: the
    spectrum (solved unless given) must put its phase in the periodic one.

    P1/P2 depend on an amplitude the theory leaves to external work; it is
    caller-supplied (default 1) and only the shape of P1/P2 is meaningful.
    """
    if kind not in PERIODIC_KINDS:
        raise ValueError(f"unknown periodic kind {kind!r}")
    p = instance.parameter
    var_kind, cov_kind = instance.periodic_factors
    if kind not in (var_kind, cov_kind, instance.correlation_factor):
        raise RegimeMismatchError(f"{kind} is not a periodic factor of {instance}")
    if cplus is not None and instance.split_law is not None:
        raise ValueError(f"{kind} of {instance} takes no cplus; only the quadtree factors do")
    if spectrum is None:
        spectrum = solve_spectrum(instance)
    require_phase(spectrum, CovariancePhase.PERIODIC if kind == cov_kind
                  else DistributionPhase.PERIODIC, kind)
    if kind == instance.correlation_factor:
        return CorrelationFactor(kind, instance, spectrum)
    lam = spectrum.lambda2
    if instance.split_law is not None:
        amp2 = amplitude(spectrum, 2)
        if kind == var_kind:
            return PeriodicFunction(kind, *_variance_factor(instance, lam, amp2), 2)
        q = _covariance_factor(*instance.split_law, lam, amp2, float(occupancy_constant(instance)))
        return PeriodicFunction(kind, 0.0, q, 1)
    u, cplus = lam - 1, 1.0 + 0.0j if cplus is None else cplus
    if kind == var_kind:
        c0 = 2 * abs(cplus) ** 2 * _quadtree_cl(u, u.conjugate(), p).real / _s(instance, 2 * u.real)
        c2 = cplus * cplus * _quadtree_cl(u, u, p) / _s(instance, 2 * u)
        return PeriodicFunction(kind, c0, c2, 2)
    return PeriodicFunction(kind, 0.0, cplus * _quadtree_ck(u, p) / _s(instance, lam), 1)


# ---------------------------------------------------------------------------
# prediction rows of the corr-profile command
# ---------------------------------------------------------------------------

def profile_rows(instance: FamilyInstance, n: int, stats) -> list[tuple]:
    """Empirical-vs-predicted rows (n, stat, empirical, standard error,
    prediction or None, regime label) for one size n of Monte Carlo
    ``stats``."""
    p = instance.parameter
    law = instance.split_law
    count = stats.count
    spectrum = solve_spectrum(instance)
    regime = classify_regime(spectrum)
    tag = f"cov={regime.covariance_phase.value},dist={regime.distribution_phase.value}"
    periodic_law = regime.distribution_phase is DistributionPhase.PERIODIC
    first, path, *others = (meas.name for meas in instance.measures)
    rows = []

    def add(stat, empirical, stderr, predicted):
        rows.append((n, stat, empirical, stderr, predicted, tag))

    def add_corr(x, y, predicted):
        rho = stats.corr(x, y)
        add(f"rho_{x}{y}", rho, (1 - rho**2) / math.sqrt(count), predicted)

    if law is None:
        scale = n * math.log(n)
        add(f"mean_{path}_over_nlogn", stats.mean(path) / scale, stats.sem(path) / scale, 2.0 / p)
    else:
        add(f"mean_{first}_over_n", stats.mean(first) / n, stats.sem(first) / n,
            float(occupancy_constant(instance)))
    var = stats.var(path) / n**2
    add(f"var_{path}_over_n2", var, var * math.sqrt(2 / (count - 1)), instance.variance_constant)
    if law is None:
        # the periodic quadtree prediction needs an externally supplied amplitude
        add_corr(path, first, None if periodic_law else 0.0)
        return rows
    pred = 0.0
    if periodic_law:
        rho = CorrelationFactor(f"rho_{first}{path}", instance, spectrum)
        pred = rho(spectrum.beta * math.log(n))
    add_corr(first, path, pred)
    for other in others:
        add_corr(path, other, 1.0)
    return rows
