import contextlib
import io
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import digamma as sdigamma
from scipy.special import gamma as sgamma
from scipy.special import loggamma as slog

from logtrees.asymptotics import (
    EULER_GAMMA,
    REFERENCE_C2C1,
    RegimeMismatchError,
    c1_constant,
    c2_minus_phi_c1,
    constants,
    dirichlet_I,
    dirichlet_dudv,
    dirichlet_dv,
    fbbst_tpl_variance_constant,
    kpl_variance_constant,
    periodic,
    quadtree_ipl_variance_constant,
)
from logtrees.families import (
    Family,
    FamilyInstance,
    dirichlet_moment,
    fbbst,
    harmonic,
    mary,
    occupancy_constant,
    quadtree,
)
from logtrees.cli import main
from logtrees.fixpoint import fixed_point_spec
from logtrees.moments import mean_tables, second_moment_tables
from logtrees.roots import amplitude, solve_spectrum
from oracles import (
    c1_constant_printed,
    dirichlet_dudv_printed,
    f1_coefficients,
    f2_coefficient,
    g1_coefficients,
    g2_coefficient,
    periodic_factors_mp,
    quadtree_periodic_mp,
)

QUICKSORT_VAR = 7 - 2 * math.pi**2 / 3


# ------------------------------ constants ---------------------------------

def test_quicksort_variance_reductions():
    assert abs(kpl_variance_constant(2) - QUICKSORT_VAR) < 1e-12
    assert abs(quadtree_ipl_variance_constant(1) - QUICKSORT_VAR) < 1e-12
    assert abs(fbbst_tpl_variance_constant(0) - QUICKSORT_VAR) < 1e-12


def test_ck_m3_value():
    want = (36 / 25) * (31 / 18 - math.pi**2 / 6)
    assert abs(kpl_variance_constant(3) - want) < 1e-13


def test_variance_constants_positive():
    for m in range(2, 40):
        assert kpl_variance_constant(m) > 0
    for t in range(0, 60):
        assert fbbst_tpl_variance_constant(t) > 0
    for d in range(1, 12):
        assert quadtree_ipl_variance_constant(d) > 0


def test_quadtree_variance_constant_takes_any_dimension():
    # 3.0**d overflows a double from d = 647; 3^d/(3^d - 2^d) -> 1
    for d in (647, 2000):
        assert math.isfinite(quadtree_ipl_variance_constant(d))
    limit = (21 - 2 * math.pi ** 2) / (9 * 2000)
    assert abs(quadtree_ipl_variance_constant(2000) / limit - 1) <= 1e-15
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["constants", "--family", "quadtree", "--param", "647"]) == 0
    assert '"cK":0.0002165191821777922,' in out.getvalue()


def test_c1_quicksort_value():
    # classical quicksort linear coefficient 2 gamma - 4
    assert abs(c1_constant(2) - (2 * EULER_GAMMA - 4)) < 1e-14
    assert abs(c1_constant_printed(2) - (EULER_GAMMA - 4)) < 1e-14


def test_c1_cross_validated_against_kappa_table():
    # fitted intercept of (kappa_n - 2 phi n H_n)/n converges to
    # c' = c1 - 2 phi gamma within 1e-3 at n = 1e4; the fit removes the
    # O(log n / n) remainder
    m = 3
    n_max = 10_000
    _, kappa, _ = mean_tables(mary(m), n_max, "float")
    phi = float(1 / (2 * (harmonic(m) - 1)))
    hn = np.zeros(n_max + 1)
    hn[1:] = np.cumsum(1.0 / np.arange(1, n_max + 1))
    grid = [512, 1024, 2048, 4096, 8192, 10_000]
    q = np.array([(kappa[n] - 2 * phi * n * hn[n]) / n for n in grid])
    ns = np.array(grid, dtype=float)
    X = np.vstack([np.ones_like(ns), 1 / ns, np.log(ns) / ns]).T
    coef, *_ = np.linalg.lstsq(X, q, rcond=None)
    want = c1_constant(m) - 2 * phi * EULER_GAMMA
    assert abs(coef[0] - want) < 1e-3


def test_c2_minus_phi_c1_small_values():
    spec3 = solve_spectrum(mary(3))
    assert abs(c2_minus_phi_c1(spec3) - 12 / 125) < 1e-12
    spec4 = solve_spectrum(mary(4))
    assert abs(c2_minus_phi_c1(spec4) - 222 / 2197) < 1e-12


def test_c2_minus_phi_c1_is_a_t0_constant():
    # c1 and c2 - phi c1 are derived for the t = 0 law only
    with pytest.raises(ValueError):
        c2_minus_phi_c1(solve_spectrum(fbbst(1)))
    for t in (1, 2, 59):
        c = constants(fbbst(t))
        assert c.c1 is None and c.c2_minus_phi_c1 is None and c.c2_minus_phi_c1_exact is None


def test_c2_minus_phi_c1_full_reference_table():
    for m in range(3, 31):
        got = c2_minus_phi_c1(solve_spectrum(mary(m)))
        want = float(REFERENCE_C2C1[m])
        assert abs(got - want) <= 1e-9 * want, m


@pytest.mark.parametrize("inst", [mary(m) for m in range(3, 61)]
                         + [fbbst(t) for t in range(1, 61)], ids=str)
def test_occupancy_constant_matches_family_forms(inst):
    # 1/(2(H_m - 1)) for mary, 1/(2(t+1)(H_{2t+2} - H_{t+1})) for fbbst
    p = inst.parameter
    if inst.family.value == "mary":
        want = 1 / (2 * (harmonic(p) - 1))
    else:
        want = 1 / (2 * (p + 1) * (harmonic(2 * p + 2) - harmonic(p + 1)))
    assert occupancy_constant(inst) == want


def test_constants_bundle_mary():
    c = constants(mary(3))
    assert c.phi == Fraction(3, 5)
    assert c.harmonic_1 == Fraction(11, 6)
    assert c.c2_minus_phi_c1_exact == Fraction(12, 125)
    assert c.theta == 0


def test_constants_bundle_fbbst_and_quadtree():
    cf = constants(fbbst(1))
    # phi_t = 1/(2(t+1)(H_{2t+2} - H_{t+1})) = 1/(4 (25/12 - 3/2)) = 3/7
    assert cf.phi == Fraction(3, 7)
    assert cf.cK == pytest.approx(fbbst_tpl_variance_constant(1))
    assert cf.theta is not None
    cq = constants(quadtree(2))
    assert cq.phi is None and cq.theta is None
    assert cq.cK == pytest.approx(quadtree_ipl_variance_constant(2))


# ------------------------------ Dirichlet ---------------------------------

def test_dirichlet_I_closed_values():
    assert abs(dirichlet_I(2, 2, 2) - 1.0) < 1e-12
    assert abs(dirichlet_I(1, 1, 2) - 4.0) < 1e-12
    assert abs(dirichlet_I(2, 3, 3) - 0.25) < 1e-12


def test_dirichlet_symmetry():
    for (u, v, m) in ((1.3, 2.7, 3), (2 + 1j, 3 - 0.5j, 4)):
        assert abs(dirichlet_I(u, v, m) - dirichlet_I(v, u, m)) < 1e-12


@pytest.mark.parametrize("m,t", [(2, 0), (3, 0), (5, 0), (2, 1), (2, 4), (3, 2)])
def test_dirichlet_moment_against_mpmath(m, t):
    k = m * (t + 1)
    with mpmath.workdps(30):
        for a, b in ((2.0, None), (0.5, 1.5), (1.3 + 0.7j, None), (0.4 + 2j, 0.4 - 2j),
                     (1 + 3j, 2 - 1j)):
            exps = (a,) if b is None else (a, b)
            want = complex(mpmath.gammaprod([t + 1 + e for e in exps] + [k],
                                            [k + sum(exps)] + [t + 1] * len(exps)))
            got = dirichlet_moment(m, t, a, b)
            assert isinstance(got, complex) == any(isinstance(e, complex) for e in exps)
            assert abs(got - want) < 1e-13 * abs(want), (a, b)


def test_dirichlet_moment_rejects_divergent_exponents():
    for t, a, b in ((0, -1, None), (0, -1.5, None), (2, 1.0, -3.0), (1, -2 + 1j, None)):
        with pytest.raises(ValueError, match="diverges"):
            dirichlet_moment(3, t, a, b)


def _quad_I(u, v, m):
    if m == 2:
        f = lambda x: (x**(u - 1) + (1 - x)**(u - 1)) * (x**(v - 1) + (1 - x)**(v - 1))
        return quad(f, 0, 1, epsabs=1e-12)[0]
    def f(y, x):
        z = 1 - x - y
        if z <= 0:
            return 0.0
        return ((x**(u - 1) + y**(u - 1) + z**(u - 1))
                * (x**(v - 1) + y**(v - 1) + z**(v - 1)))
    return dblquad(f, 0, 1, 0, lambda x: 1 - x, epsabs=1e-11)[0]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("uv", [(1, 1), (2, 2), (2, 3)])
def test_dirichlet_I_vs_quadrature(m, uv):
    u, v = uv
    got = dirichlet_I(u, v, m)
    assert abs(got.imag) < 1e-12
    assert abs(got.real - _quad_I(u, v, m)) < 1e-6


def test_dirichlet_dv_vs_finite_difference():
    h = 1e-4
    for (u, m) in ((2.0, 3), (2.0, 5), (3.5, 4)):
        fd = (dirichlet_I(u, 2 + h, m) - dirichlet_I(u, 2 - h, m)) / (2 * h)
        assert abs(dirichlet_dv(u, m) - fd) < 1e-6


def _quad_dudv(m):
    if m == 2:
        f = lambda x: (x * np.log(x) + (1 - x) * np.log(1 - x))**2 if 0 < x < 1 else 0.0
        return quad(f, 0, 1, epsabs=1e-12)[0]
    def f(y, x):
        z = 1 - x - y
        if z <= 0:
            return 0.0
        s = x * np.log(x) + y * np.log(y) + z * np.log(z)
        return s * s
    return dblquad(f, 0, 1, 0, lambda x: 1 - x, epsabs=1e-11)[0]


@pytest.mark.parametrize("m", [2, 3])
def test_dirichlet_dudv_vs_quadrature(m):
    assert abs(dirichlet_dudv(m) - _quad_dudv(m)) < 1e-6


def test_dirichlet_dudv_printed_variant_preserved():
    # the quoted display evaluates to 4.03510... at m=2; kept for comparison
    assert abs(dirichlet_dudv_printed(2) - 4.0350219777) < 1e-9
    assert abs(dirichlet_dudv(2) - 0.2850219777) < 1e-9


def test_dirichlet_dudv_consistent_with_ck():
    # C_K is the transferred quadratic toll built from these integrals
    for m in (2, 3, 5):
        phi = float(1 / (2 * (harmonic(m) - 1)))
        b_coeff = (-1 + 4 * phi**2 * math.factorial(m - 1) * dirichlet_dudv(m))
        ck = b_coeff * (m + 1) / (m - 1)
        assert abs(ck - kpl_variance_constant(m)) < 1e-11, m


# ------------------------------ periodic functions ------------------------

def test_f1_f2_periodicity_m27():
    inst = mary(27)
    spec = solve_spectrum(inst)
    f1 = periodic("F1", inst, spec)
    f2 = periodic("F2", inst, spec)
    for i in range(64):
        z = 2 * math.pi * i / 64
        assert f1(z + math.pi) == pytest.approx(f1(z), rel=1e-12, abs=1e-12)
        assert f2(z + 2 * math.pi) == pytest.approx(f2(z), rel=1e-12, abs=1e-12)


def test_f2_zero_mean_over_period():
    f2 = periodic("F2", mary(27))
    vals = [f2(2 * math.pi * i / 4096) for i in range(4096)]
    assert abs(sum(vals) / len(vals)) < 1e-10


@pytest.mark.parametrize("m", [27, 54, 270])
def test_frho_bounded_by_one(m):
    fr = periodic("Frho", mary(m))
    vals = [abs(fr(2 * math.pi * i / 1024)) for i in range(1024)]
    assert max(vals) <= 1 + 1e-6, (m, max(vals))


def test_regime_mismatch_errors():
    with pytest.raises(RegimeMismatchError):
        periodic("F1", mary(26))
    with pytest.raises(RegimeMismatchError):
        periodic("F2", mary(13))
    with pytest.raises(RegimeMismatchError):
        periodic("F1", fbbst(60))
    with pytest.raises(RegimeMismatchError):
        periodic("G1", fbbst(58))
    with pytest.raises(RegimeMismatchError):
        periodic("P1", quadtree(8))
    with pytest.raises(RegimeMismatchError):
        periodic("P2", quadtree(5))


def test_cplus_is_refused_for_the_m_t_factors():
    # the (m,t) factors take their amplitude from the spectrum, so a cplus
    # they cannot use is an error, not dropped
    for kind, inst in (("F1", mary(27)), ("F2", mary(14)), ("Frho", mary(27)),
                       ("G1", fbbst(59)), ("G2", fbbst(29))):
        with pytest.raises(ValueError, match="cplus"):
            periodic(kind, inst, cplus=5 + 1j)
    assert periodic("P1", quadtree(9)).osc == periodic("P1", quadtree(9), cplus=1 + 0j).osc


# the paper's phase changes: first parameter with a periodic covariance, and
# first with a periodic distribution (Var(S), the correlation, the limit law)
PHASE_CUTS = {"mary": (14, 27), "fbbst": (29, 59), "quadtree": (6, 9)}
PHASE_SCAN = {"mary": range(3, 41), "fbbst": range(1, 71), "quadtree": range(1, 13)}


def _accepted(build) -> bool:
    try:
        build()
    except RegimeMismatchError as exc:
        # degree 1 (quadtree(1)) has no alpha to name: its lone root is z = 2
        assert "phase" in str(exc) and ("alpha = " in str(exc) or "z = 2" in str(exc)), exc
        return False
    return True


@pytest.mark.parametrize("family", PHASE_CUTS)
def test_phase_gates_accept_exactly_the_instances_past_the_cuts(family):
    # every periodic factor and bivariate fixed-point map of each scanned
    # instance; the gates read the phase from the spectrum, not from a table
    cov_from, dist_from = PHASE_CUTS[family]
    # no alpha near a cut (nearest: mary(26), 8.6e-4 below 3/2);
    # quadtree(6) has Re lambda_2 = 1 exactly, a stated rule of classify_regime
    cuts = (1.5,) if family == "quadtree" else (1.0, 1.5)
    for p in PHASE_SCAN[family]:
        inst = FamilyInstance(Family(family), p)
        spec = solve_spectrum(inst)
        assert spec.degree == 1 or min(abs(spec.alpha - c) for c in cuts) > 5e-4, inst
        var_kind, cov_kind = inst.periodic_factors
        periodic_map, normal_map = inst.fixed_point_maps
        want = {var_kind: p >= dist_from, cov_kind: p >= cov_from}
        if inst.correlation_factor:
            want[inst.correlation_factor] = p >= dist_from
        got = {kind: _accepted(lambda: periodic(kind, inst, spec)) for kind in want}
        got[periodic_map] = _accepted(lambda: fixed_point_spec(inst, periodic_map))
        got[normal_map] = _accepted(lambda: fixed_point_spec(inst, normal_map))
        want.update({periodic_map: p >= dist_from, normal_map: p < dist_from})
        assert got == want, inst


def test_g_functions_real_and_periodic():
    inst = fbbst(59)
    spec = solve_spectrum(inst)
    g1 = periodic("G1", inst, spec)
    g2 = periodic("G2", inst, spec)
    for i in range(16):
        z = 2 * math.pi * i / 16
        assert g1(z + math.pi) == pytest.approx(g1(z), rel=1e-10, abs=1e-12)
        assert g2(z + 2 * math.pi) == pytest.approx(g2(z), rel=1e-10, abs=1e-12)
    assert g1(0.3) == g1(0.3).real


# relative errors of the (m,t) factors against a 50-digit evaluation; the
# former F1/F2/G1/G2 forms are held to the errors measured for them (G2
# reached 2.7e-10 at t = 120, 4.3e-11 at the correctly rounded lambda_2)
COV_CASES = [mary(m) for m in (14, 20, 27, 40, 60, 100)] + [fbbst(t) for t in (29, 40, 59, 80, 120)]
VAR_CASES = [mary(m) for m in (27, 40, 60, 100)] + [fbbst(t) for t in (59, 80, 120)]
# (c0, c2) bounds of the variance factor, 3e-11 where not listed: about three
# times the error measured once lambda_2 was correctly rounded and s(x) a
# finite product, where that cut the error tenfold or more (c0 of mary(27)
# 4.2e-13 -> 8.2e-15, mary(40) 1.0e-13 -> 1.4e-15, mary(100) 3.7e-12 ->
# 8.9e-14; c2 of fbbst(120) 8.7e-12 -> 8.2e-13)
VAR_BOUNDS = {"mary(27)": (2.5e-14, 3e-11), "mary(40)": (5e-15, 3e-11),
              "mary(100)": (3e-13, 3e-11), "fbbst(120)": (3e-11, 2.5e-12)}


def _rel(got, want):
    return abs(got - want) / abs(want)


def _former_forms(inst, spec):
    """((c0, c2), cov) from the former F1/F2 or G1/G2 forms."""
    p, lam, a2 = inst.parameter, spec.lambda2, amplitude(spec, 2)
    if inst.split_law[1] == 0:
        phi = float(occupancy_constant(inst))
        return f1_coefficients(p, lam, a2), f2_coefficient(p, lam, a2, phi)
    return g1_coefficients(p, lam, a2), g2_coefficient(p, lam, a2)


@pytest.mark.parametrize("inst", COV_CASES, ids=str)
def test_covariance_factor_against_mpmath(inst):
    spec = solve_spectrum(inst)
    _, _, want = periodic_factors_mp(inst)
    got = periodic(inst.periodic_factors[1], inst, spec).osc
    assert _rel(got, want) < 1e-12
    _, former = _former_forms(inst, spec)
    assert _rel(got, former) < (1e-12 if inst.split_law[1] == 0 else 5e-10)


@pytest.mark.parametrize("inst", VAR_CASES, ids=str)
def test_variance_factor_against_mpmath(inst):
    spec = solve_spectrum(inst)
    c0, c2, _ = periodic_factors_mp(inst)
    got = periodic(inst.periodic_factors[0], inst, spec)
    bound0, bound2 = VAR_BOUNDS.get(str(inst), (3e-11, 3e-11))
    assert _rel(got.const, c0) < bound0
    assert _rel(got.osc, c2) < bound2
    (f0, f2), _ = _former_forms(inst, spec)
    assert _rel(got.const, f0) < 3e-11
    assert _rel(got.osc, f2) < 3e-11


def test_p_functions_shape():
    p1 = periodic("P1", quadtree(9), cplus=0.7 + 0.2j)
    p2 = periodic("P2", quadtree(6), cplus=0.7 + 0.2j)
    for i in range(16):
        z = 2 * math.pi * i / 16
        assert p1(z + math.pi) == pytest.approx(p1(z), rel=1e-10, abs=1e-12)
        assert p2(z + 2 * math.pi) == pytest.approx(p2(z), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("d", range(6, 15))
def test_p_functions_against_mpmath(d):
    # P2 (d >= 6) and P1 (d >= 9) at the certified lambda_2 against the same
    # formulas at the exact root 2 e^(2 pi i / d) in 50 digits: 2.3e-13
    # measured (P2 of quadtree(13)), the digamma and log-gamma evaluations
    cplus = 0.7 + 0.2j
    c0, c2, cov = quadtree_periodic_mp(d, cplus)
    assert _rel(periodic("P2", quadtree(d), cplus=cplus).osc, cov) < 5e-13
    if d >= 9:
        p1 = periodic("P1", quadtree(d), cplus=cplus)
        assert _rel(p1.const, c0) < 5e-13 and _rel(p1.osc, c2) < 5e-13


# --------------------- amplitude validation against tables ----------------

def _toll_from_table(table, row, m, n_values):
    """b_n = V_n - m sum_j pi_{n,j} V_j recovered from a table column."""
    col = np.array([float(v) for v in table.column(row)])
    n_max = len(col) - 1
    cm2 = np.array([math.comb(x, m - 2) for x in range(n_max + 1)], dtype=float)
    cnm1 = np.array([math.comb(x, m - 1) for x in range(n_max + 1)], dtype=float)
    out = {}
    for n in n_values:
        js = np.arange(0, n - m + 2)
        w = cm2[n - 1 - js] / cnm1[n]
        out[n] = col[n] - m * (w @ col[js])
    return out


def _demod_single(b_map, lam):
    ns = np.array(sorted(b_map))
    y = np.array([b_map[n] for n in ns])
    ph = ns.astype(complex) ** lam
    X = np.vstack([2 * ph.real, -2 * ph.imag]).T
    c, *_ = np.linalg.lstsq(X, y, rcond=None)
    return c[0] + 1j * c[1]


def test_f2_amplitude_matches_table_m27():
    # scipy-based independent theory amplitude vs the exact-table toll
    m = 27
    inst = mary(m)
    spec = solve_spectrum(inst)
    lam = spec.lambda2
    table = second_moment_tables(inst, 8192, "float")
    ns = np.unique(np.geomspace(512, 8192, 90).astype(int))
    b = _toll_from_table(table, "VSK", m, ns)
    fitted = _demod_single(b, lam)
    # independent route: scipy gamma/digamma
    s = sum(1.0 / (j + lam) for j in range(0, m - 1))
    a2 = 1.0 / (lam * (lam - 1) * s)
    phi = float(1 / (2 * (harmonic(m) - 1)))
    stuff = 1 + 2 * phi / (lam + m - 1) * (
        lam * sdigamma(lam + 1) + (m - 1) * (1 - EULER_GAMMA)
        - (m + lam - 1) * sdigamma(m + lam))
    want = a2 / sgamma(lam) * stuff
    assert abs(fitted - want) < 0.35 * abs(want)
    # and the packaged F2 coefficient equals the toll amplitude times the
    # transfer factor (lam + m - 1)/(m - 1)
    f2 = periodic("F2", inst, spec)
    assert abs(f2.osc - want * (lam + m - 1) / (m - 1)) < 1e-10 * abs(f2.osc)


def test_f1_coefficients_match_table_m27():
    m = 27
    inst = mary(m)
    spec = solve_spectrum(inst)
    lam = spec.lambda2
    alpha, beta = spec.alpha, spec.beta
    table = second_moment_tables(inst, 8192, "float")
    ns = np.unique(np.geomspace(512, 8192, 90).astype(int))
    b = _toll_from_table(table, "VS", m, ns)
    base = ns.astype(float) ** (2 * alpha - 2)
    ph = np.exp(2j * beta * np.log(ns))
    X = np.vstack([base, 2 * base * ph.real, -2 * base * ph.imag]).T
    y = np.array([b[n] for n in ns])
    c, *_ = np.linalg.lstsq(X, y, rcond=None)
    d0_hat, d2_hat = c[0], c[1] + 1j * c[2]
    # invert the packaged F1 coefficients back to toll level via the
    # transfer multipliers
    f1 = periodic("F1", inst, spec)
    logmf = slog(m + 1).real
    r_real = math.exp(logmf + slog(2 * alpha - 1).real - slog(2 * alpha + m - 2).real)
    r_cplx = np.exp(logmf + slog(2 * lam - 1) - slog(2 * lam + m - 2))
    d0_th = f1.const * (1 - r_real)
    d2_th = f1.osc * (1 - r_cplx)
    assert abs(d0_hat - d0_th) < 0.10 * abs(d0_th)
    assert abs(d2_hat - d2_th) < 0.15 * abs(d2_th)


def test_g2_amplitude_matches_table_t29():
    t = 29
    inst = fbbst(t)
    spec = solve_spectrum(inst)
    rho = spec.lambda2
    table = second_moment_tables(inst, 8192, "float")
    col = np.array(table.column("VSX"))
    ct = np.array([math.comb(x, t) for x in range(8193)], dtype=float)
    c2t1 = np.array([math.comb(x, 2 * t + 1) for x in range(8193)], dtype=float)
    ns = np.unique(np.geomspace(1024, 8192, 90).astype(int))
    b = {}
    for n in ns:
        js = np.arange(t, n - t)
        p = ct[js] * ct[n - 1 - js] / c2t1[n]
        b[n] = col[n] - p @ (col[js] + col[n - 1 - js])
    fitted = _demod_single(b, rho)
    g2 = periodic("G2", inst, spec)
    # toll amplitude = G2 coefficient * (1 - 2 E[V^rho])
    mom = np.exp(slog(t + 1 + rho) + slog(2 * t + 2).real
                 - slog(2 * t + 2 + rho) - slog(t + 1).real)
    want = g2.osc * (1 - 2 * mom)
    assert abs(fitted - want) < 0.10 * abs(want)


def test_g1_coefficients_match_table_t59():
    t = 59
    inst = fbbst(t)
    spec = solve_spectrum(inst)
    rho = spec.lambda2
    at, bt = spec.alpha, spec.beta
    table = second_moment_tables(inst, 8192, "float")
    col = np.array(table.column("VS"))
    ct = np.array([math.comb(x, t) for x in range(8193)], dtype=float)
    c2t1 = np.array([math.comb(x, 2 * t + 1) for x in range(8193)], dtype=float)
    ns = np.unique(np.geomspace(2048, 8192, 80).astype(int))
    b = {}
    for n in ns:
        js = np.arange(t, n - t)
        p = ct[js] * ct[n - 1 - js] / c2t1[n]
        b[n] = col[n] - p @ (col[js] + col[n - 1 - js])
    base = ns.astype(float) ** (2 * at - 2)
    ph = np.exp(2j * bt * np.log(ns))
    X = np.vstack([base, 2 * base * ph.real, -2 * base * ph.imag]).T
    y = np.array([b[n] for n in ns])
    c, *_ = np.linalg.lstsq(X, y, rcond=None)
    d0_hat, d2_hat = c[0], c[1] + 1j * c[2]
    g1 = periodic("G1", inst, spec)
    mom_r = np.exp(slog(2 * at - 1 + t).real + slog(2 * t + 2).real
                   - slog(2 * t + 2 * at).real - slog(t + 1).real)
    mom_c = np.exp(slog(2 * rho - 1 + t) + slog(2 * t + 2).real
                   - slog(2 * t + 2 * rho) - slog(t + 1).real)
    d0_th = g1.const * (1 - 2 * mom_r)
    d2_th = g1.osc * (1 - 2 * mom_c)
    assert abs(d0_hat - d0_th) < 0.12 * abs(d0_th)
    assert abs(d2_hat - d2_th) < 0.15 * abs(d2_th)


def test_periodic_csv_dump(tmp_path):
    path = tmp_path / "frho.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["-o", str(path), "periodic", "--kind", "Frho", "--param", "27",
                     "--points", "64"]) == 0
    lines = [line for line in path.read_text().strip().splitlines() if not line.startswith("#")]
    assert lines[0] == "z,value"
    assert len(lines) == 65
