import cmath
import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mpmath
import pytest

import logtrees
from logtrees import roots as roots_module

from logtrees.families import fbbst, mary, quadtree
from logtrees.roots import (
    CERTIFIED_TOLERANCE,
    AmplitudeError,
    CovariancePhase,
    DistributionPhase,
    IndeterminateRegimeError,
    RootConvergenceError,
    amplitude,
    classify_regime,
    indicial_shifts,
    quadtree_exponents,
    solve_spectrum,
    theta,
)
from oracles import (
    amplitude_fbbst,
    amplitude_mary,
    amplitude_mp,
    build_indicial,
    eval_indicial,
    root_mp,
)

# Approximate alpha values as printed (truncated to 3 decimals) in the
# reference table, m = 3..26.
ALPHA_TABLE = {
    3: -3.0, 4: -2.5, 5: -1.5, 6: -0.768, 7: -0.260, 8: 0.101, 9: 0.366,
    10: 0.568, 11: 0.726, 12: 0.852, 13: 0.955, 14: 1.040, 15: 1.112,
    16: 1.173, 17: 1.226, 18: 1.272, 19: 1.313, 20: 1.348, 21: 1.380,
    22: 1.409, 23: 1.435, 24: 1.458, 25: 1.479, 26: 1.499,
}


def trunc3(x: float) -> float:
    return math.trunc(x * 1000) / 1000


def test_build_indicial_m3():
    # z(z+1) - 3! = z^2 + z - 6
    assert build_indicial(mary(3)) == [1, 1, -6]


def test_build_indicial_fbbst_t1():
    # (z+1)(z+2) - 12 = z^2 + 3z - 10
    assert build_indicial(fbbst(1)) == [1, 3, -10]


@pytest.mark.parametrize("inst", [mary(3), mary(7), mary(26), fbbst(1), fbbst(9)])
def test_two_is_always_a_root(inst):
    coeffs = build_indicial(inst)
    acc = 0
    for a in coeffs:
        acc = acc * 2 + a
    assert acc == 0
    assert eval_indicial(inst, 2.0) == pytest.approx(0.0, abs=1e-6)


def test_build_indicial_quadtree():
    # z^d - 2^d: d zero shifts and c = 2^d, from the cell-volume moment
    # 2^d E[V^(z-1)] = 2^d z^(-d) = 1
    for d in (1, 2, 3, 9, 40):
        assert build_indicial(quadtree(d)) == [1] + [0] * (d - 1) + [-2 ** d]
        assert indicial_shifts(quadtree(d)) == ([0] * d, 2 ** d)


def test_alpha_table_reproduced():
    # the printed table mixes truncation and rounding in the last digit, so
    # accept either convention but demand agreement to that digit
    for m, printed in ALPHA_TABLE.items():
        spec = solve_spectrum(mary(m))
        assert abs(spec.alpha - printed) < 1e-3, m
        assert trunc3(spec.alpha) == pytest.approx(printed, abs=1e-12) or \
            round(spec.alpha, 3) == pytest.approx(printed, abs=1e-12), m


def test_m3_spectrum_exact():
    spec = solve_spectrum(mary(3))
    assert spec.alpha == pytest.approx(-3.0, abs=1e-12)
    assert spec.beta == 0.0
    assert abs(spec.principal_root - 2.0) <= 1e-10


def test_m26_vs_m27_threshold():
    assert solve_spectrum(mary(26)).alpha < 1.5
    assert solve_spectrum(mary(27)).alpha > 1.5


def test_residual_certification():
    for inst in (mary(10), mary(27), fbbst(5), fbbst(59)):
        spec = solve_spectrum(inst)
        assert spec.certified_error < 1e-10
        # each double-precision root zeroes the split-law form m E[V^(z-1)] - 1,
        # whose residual is relative (-P(z) / prod(z + shifts))
        for r in spec.roots:
            assert abs(eval_indicial(inst, complex(r))) <= 1e-8


def test_vieta_sum():
    for inst in (mary(8), mary(20), fbbst(7)):
        spec = solve_spectrum(inst)
        coeffs = build_indicial(inst)
        got = sum(complex(r) for r in spec.roots)
        want = -coeffs[1] / coeffs[0]
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_roots_come_in_conjugate_pairs():
    spec = solve_spectrum(mary(12))
    rs = [complex(r) for r in spec.roots]
    for r in rs:
        if abs(r.imag) > 1e-9:
            assert any(abs(r.conjugate() - s) < 1e-9 for s in rs)


def test_degree_matches():
    assert solve_spectrum(mary(9)).degree == 8
    assert solve_spectrum(fbbst(4)).degree == 5


def test_sorted_by_real_then_imag():
    spec = solve_spectrum(mary(15))
    rs = [complex(r) for r in spec.roots]
    for a, b in zip(rs, rs[1:]):
        assert (a.real, a.imag) >= (b.real, b.imag)


def test_fbbst_t1_roots():
    spec = solve_spectrum(fbbst(1))
    assert spec.alpha == pytest.approx(-5.0, abs=1e-10)
    assert spec.beta == 0.0


def test_quadtree_exponents_values():
    def view(d):
        return quadtree_exponents(solve_spectrum(quadtree(d)))
    qe = view(1)
    assert qe.d == 1 and (qe.alpha_hat, qe.beta_hat) == pytest.approx((1.0, 0.0), abs=1e-12)
    qe = view(4)
    assert (qe.alpha_hat, qe.beta_hat) == pytest.approx((-1.0, 2.0), abs=1e-12)
    assert view(9).alpha_hat > 0.5
    assert view(8).alpha_hat < 0.5
    assert view(9).alpha_hat == pytest.approx(0.5321, abs=5e-5)


def test_classify_mary_thresholds():
    r13 = classify_regime(solve_spectrum(mary(13)))
    r14 = classify_regime(solve_spectrum(mary(14)))
    assert (r13.covariance_phase, r13.distribution_phase) == (
        CovariancePhase.LINEAR, DistributionPhase.GAUSSIAN)
    assert (r14.covariance_phase, r14.distribution_phase) == (
        CovariancePhase.PERIODIC, DistributionPhase.GAUSSIAN)
    r27 = classify_regime(solve_spectrum(mary(27)))
    assert (r27.covariance_phase, r27.distribution_phase) == (
        CovariancePhase.PERIODIC, DistributionPhase.PERIODIC)


def test_classify_full_sweep():
    for m in range(3, 27):
        assert classify_regime(solve_spectrum(mary(m))).distribution_phase \
            is DistributionPhase.GAUSSIAN
    for m in range(27, 61):
        assert classify_regime(solve_spectrum(mary(m))).distribution_phase \
            is DistributionPhase.PERIODIC


def test_classify_fbbst_thresholds():
    assert classify_regime(solve_spectrum(fbbst(28))).covariance_phase is CovariancePhase.LINEAR
    assert classify_regime(solve_spectrum(fbbst(29))).covariance_phase is CovariancePhase.PERIODIC
    assert classify_regime(solve_spectrum(fbbst(58))).distribution_phase is DistributionPhase.GAUSSIAN
    assert classify_regime(solve_spectrum(fbbst(59))).distribution_phase is DistributionPhase.PERIODIC


def test_classify_quadtree_thresholds():
    # d = 1 is the degenerate BST case (degree 1, formal lambda_2 = 2); at
    # d = 6 Re lambda_2 = 1 exactly, which the quadtree cut puts on the
    # periodic side
    want = {1: ("linear", "gaussian"), 2: ("linear", "gaussian"), 5: ("linear", "gaussian"),
            6: ("periodic", "gaussian"), 8: ("periodic", "gaussian"),
            9: ("periodic", "periodic")}
    for d, phases in want.items():
        regime = classify_regime(solve_spectrum(quadtree(d)))
        assert (regime.covariance_phase.value, regime.distribution_phase.value) == phases, d
    assert solve_spectrum(quadtree(6)).alpha == 1.0


def _moved(spec, k: int, z, radius: float):
    """``spec`` with root k (and its conjugate partner, when z is not real)
    moved to z with disk radius ``radius``."""
    roots, radii = list(spec.roots), list(spec.radii)
    roots[k], radii[k] = z, radius
    if z.imag:
        roots[k + 1], radii[k + 1] = z.conjugate(), radius
    return dataclasses.replace(spec, roots=tuple(roots), radii=tuple(radii))


def _phases(spec) -> tuple[str, str]:
    regime = classify_regime(spec)
    return regime.covariance_phase.value, regime.distribution_phase.value


CUT_CASES = [(mary(14), 1.0), (fbbst(29), 1.0), (mary(27), 1.5), (fbbst(59), 1.5),
             (quadtree(9), 1.5)]


@pytest.mark.parametrize("inst,cut", CUT_CASES, ids=str)
def test_regime_disk_meeting_a_cut_raises(inst, cut):
    # a lambda_2 disk that straddles or touches the cut leaves the phase
    # undecided, however close its centre
    spec = solve_spectrum(inst)
    beta = spec.beta
    for centre, radius in ((cut + 1e-9, 2e-9), (cut - 1e-9, 2e-9), (cut + 1e-9, 1e-9),
                           (cut, 1e-15)):
        with pytest.raises(IndeterminateRegimeError, match="meets the phase cut"):
            classify_regime(_moved(spec, 1, complex(centre, beta), radius))


@pytest.mark.parametrize("inst,cut", CUT_CASES, ids=str)
def test_regime_disk_clear_of_a_cut_is_decided(inst, cut):
    # 1e-9 from the cut, well inside the former fixed band of 1e-6, a disk
    # of radius 1e-12 lies wholly on one side and decides the phase
    spec = solve_spectrum(inst)
    above = _phases(_moved(spec, 1, complex(cut + 1e-9, spec.beta), 1e-12))
    below = _phases(_moved(spec, 1, complex(cut - 1e-9, spec.beta), 1e-12))
    which = 0 if cut == 1.0 else 1
    assert above[which] == "periodic" and below[which] != "periodic", (above, below)


def test_regime_decision_covers_the_rounding_of_an_mpmath_centre():
    # the disk around the 192-bit centre 3/2 + 2^-60 lies right of 3/2, but
    # the centre rounds to alpha = 1.5 exactly, so the cut is not decided
    spec = solve_spectrum(mary(27), precision=96)
    with mpmath.workprec(192):
        centre = mpmath.mpc(mpmath.mpf(1.5) + mpmath.mpf(2) ** -60, spec.beta)
    moved = _moved(spec, 1, centre, 2.0 ** -70)
    assert moved.alpha == 1.5
    with pytest.raises(IndeterminateRegimeError):
        classify_regime(moved)
    with mpmath.workprec(192):
        centre = mpmath.mpc(mpmath.mpf(1.5) + mpmath.mpf(2) ** -40, spec.beta)
    assert _phases(_moved(spec, 1, centre, 2.0 ** -70)) == ("periodic", "periodic")
    # the outward rounding of the bounds does not cover the centre's rounding
    # at every radius: the disk of radius 7.5 - 2^-50 about 8.5 - 2^-50
    # reaches the covariance cut exactly, and its centre rounds (a tie, to
    # even) to 8.5, 1 + 2^-50 from the cut at that radius
    with mpmath.workprec(192):
        centre = mpmath.mpc(mpmath.mpf(8.5) - mpmath.mpf(2) ** -50, spec.beta)
    far = _moved(spec, 1, centre, 7.5 - 2.0 ** -50)
    assert far.alpha == 8.5
    with pytest.raises(IndeterminateRegimeError, match="cut alpha = 1.0"):
        classify_regime(far)


def test_quadtree_covariance_cut_is_closed():
    # a disk meeting alpha = 1 is periodic (Re lambda_2 = 1 exactly at
    # d = 6); one wholly left of 1 is linear; the distribution cut is open
    spec = solve_spectrum(quadtree(9))
    assert _phases(_moved(spec, 1, complex(1.0 - 1e-9, spec.beta), 2e-9))[0] == "periodic"
    assert _phases(_moved(spec, 1, complex(1.0 - 1e-9, spec.beta), 1e-12))[0] == "linear"
    six = solve_spectrum(quadtree(6))
    assert six.alpha == 1.0 and _phases(six)[0] == "periodic"


def test_beta_is_the_imaginary_part_of_lambda2():
    # no tolerance sets a small imaginary part to zero: real roots are
    # exactly real, and a certified upper disk keeps off the real axis
    spec = solve_spectrum(mary(27))
    moved = _moved(spec, 1, complex(1.2, 1e-13), 1e-15)
    assert moved.beta == 1e-13 and moved.lambda2 == complex(1.2, 1e-13)
    assert solve_spectrum(mary(3)).beta == 0.0 and solve_spectrum(quadtree(2)).beta == 0.0


def test_root_after_lambda2_must_lie_strictly_left_of_its_disk():
    spec = solve_spectrum(mary(27))
    alpha, fourth = spec.alpha, complex(spec.roots[3])
    # 1e-10 below alpha was refused by the former fixed slack of 1e-9; the
    # disks decide now
    near = complex(alpha - 1e-10, fourth.imag)
    close = _moved(spec, 3, near, 1e-12)
    assert close.alpha == alpha
    for radius in (1e-10, 2e-10):
        with pytest.raises(RootConvergenceError, match="ordering violated"):
            _moved(spec, 3, near, radius)
    with pytest.raises(RootConvergenceError, match="ordering violated"):
        _moved(close, 1, spec.lambda2, 1e-10 - 1e-12)
    with pytest.raises(RootConvergenceError, match="not conj"):
        dataclasses.replace(spec, roots=(*spec.roots[:2], complex(spec.roots[3]), *spec.roots[3:]))


def test_principal_disk_must_hold_two():
    spec = solve_spectrum(mary(10))
    assert _moved(spec, 0, 2.0 + 1e-12 + 0j, 2e-12).principal_root == 2.0 + 1e-12
    with pytest.raises(RootConvergenceError, match="is not 2"):
        _moved(spec, 0, 2.0 + 1e-12 + 0j, 1e-13)


@pytest.mark.parametrize("inst", [mary(27), fbbst(59), quadtree(9), quadtree(1)], ids=str)
def test_spectrum_is_read_from_its_roots_and_disks(inst):
    assert [f.name for f in dataclasses.fields(roots_module.Spectrum)] == \
        ["instance", "roots", "radii"]
    spec = solve_spectrum(inst)
    lam2 = complex(spec.roots[1 if spec.degree > 1 else 0])
    assert (spec.alpha, spec.beta) == (lam2.real, abs(lam2.imag))
    assert spec.principal_root == complex(spec.roots[0]) == 2.0
    assert spec.certified_error == max(r / max(1.0, abs(complex(z)))
                                       for z, r in zip(spec.roots, spec.radii))


def _exact_quadtree_roots(d: int) -> list:
    with mpmath.workprec(200):
        return [2 * mpmath.expjpi(mpmath.mpf(2 * k) / d) for k in range(d)]


@pytest.mark.parametrize("d", [*range(1, 41), 300])
def test_quadtree_spectrum_is_certified_around_the_exact_roots(d):
    # every root within its certified disk of a 200-bit 2 e^(2 pi i k / d),
    # and lambda_2 that root rounded to double
    spec = solve_spectrum(quadtree(d))
    assert spec.degree == d and spec.certified_error <= CERTIFIED_TOLERANCE
    exact = _exact_quadtree_roots(d)
    with mpmath.workprec(200):
        for z, r in zip(spec.roots, spec.radii):
            assert sum(abs(w - mpmath.mpc(z)) <= r for w in exact) == 1, (z, r)
    assert spec.principal_root == 2.0
    if d == 1:
        assert spec.lambda2 == 2.0  # the formal lambda_2 of the BST
        return
    want = complex(exact[1])
    assert spec.lambda2 == complex(want.real, want.imag if d > 2 else 0.0)
    if d == 4:
        assert spec.lambda2 == 2j
    for z in spec.roots:
        assert abs(eval_indicial(quadtree(d), complex(z))) <= 1e-12


def test_amplitude_is_caller_supplied_for_quadtrees():
    from logtrees.asymptotics import c2_minus_phi_c1, constants

    spec = solve_spectrum(quadtree(9))
    for fn in (amplitude, theta, c2_minus_phi_c1):
        with pytest.raises(AmplitudeError, match="caller-supplied"):
            fn(spec)
    assert constants(quadtree(9)).theta is None


def test_amplitude_m3():
    spec = solve_spectrum(mary(3))
    a2 = amplitude(spec, 2)
    assert a2 == pytest.approx(-0.1, abs=1e-12)  # 1/(12 * (-5/6))


def test_amplitude_conjugate_symmetry():
    spec = solve_spectrum(mary(12))
    a2 = amplitude(spec, 2)
    a3 = amplitude(spec, 3)
    assert a3 == pytest.approx(a2.conjugate(), abs=1e-12)


@pytest.mark.parametrize("inst", [mary(m) for m in range(3, 41)]
                         + [fbbst(t) for t in range(1, 61)], ids=str)
def test_amplitude_matches_family_forms(inst):
    # the (m,t) amplitude against the per-family forms at every root: within
    # 5e-14 relative for mary (3.2e-14 measured, the far roots of m near 40)
    # and the same bits, signed zeros included, for fbbst
    spec = solve_spectrum(inst)
    m, t = inst.split_law
    for k in range(2, spec.degree + 1):
        lam = complex(spec.roots[k - 1])
        got = amplitude(spec, k)
        if t == 0:
            want = amplitude_mary(m, lam)
            assert abs(got - want) <= 5e-14 * abs(want), (k, got, want)
        else:
            assert repr(got) == repr(amplitude_fbbst(t, lam)), k


@pytest.mark.parametrize("inst", [mary(m) for m in (14, 27, 40, 100, 200)]
                         + [fbbst(t) for t in (29, 59, 120)], ids=str)
def test_amplitude_lambda2_against_mpmath(inst):
    # 40 digits at the same double root; measured 1.2e-15 (mary(27)) and
    # 2.7e-15 (fbbst(120), the bits of the former fbbst form)
    spec = solve_spectrum(inst)
    with mpmath.workdps(40):
        want = complex(amplitude_mp(inst, spec.roots[1]))
    assert abs(amplitude(spec, 2) - want) <= 3e-15 * abs(want)


def test_amplitude_rejects_principal():
    spec = solve_spectrum(mary(5))
    with pytest.raises(AmplitudeError):
        amplitude(spec, 1)


def test_theta_m3_vanishes():
    # lambda_2 = -3 is a gamma pole, so the oscillatory mean term is absent
    assert theta(solve_spectrum(mary(3))) == 0


def test_theta_m27_finite_nonzero():
    th = theta(solve_spectrum(mary(27)))
    assert 0 < abs(th) < 1e3


def test_theta_matches_mean_table_oscillation():
    # (mu_n - phi(n+1) + 1/(m-1)) / n^(alpha-1) ~ Re(theta n^(i beta));
    # ties together the solver, the amplitudes, and the gamma evaluation
    from logtrees.families import harmonic
    from logtrees.moments import mean_tables

    m = 27
    spec = solve_spectrum(mary(m))
    th = theta(spec)
    mu, _, _ = mean_tables(mary(m), 8192, "float")
    phi = float(1 / (2 * (harmonic(m) - 1)))
    for n in (4096, 8192):
        lhs = (mu[n] - phi * (n + 1) + 1 / (m - 1)) / n ** (spec.alpha - 1)
        rhs = (th * complex(math.cos(spec.beta * math.log(n)),
                            math.sin(spec.beta * math.log(n)))).real
        assert abs(lhs - rhs) < 0.02 * max(abs(th), abs(rhs)), (n, lhs, rhs)


def test_indicial_shifts_constants():
    sh, c = indicial_shifts(fbbst(2))
    assert sh == [2, 3, 4] and c == 2 * math.factorial(5) // 2


@pytest.mark.parametrize("inst", [mary(m) for m in range(3, 61)]
                         + [fbbst(t) for t in range(1, 61)], ids=str)
def test_indicial_shifts_match_family_forms(inst):
    # the per-family factored forms, written out apart from the (m,t) law:
    # mary z (z+1) ... (z+m-2) - m!, fbbst (z+t) ... (z+2t) - 2 (2t+1)!/t!
    p = inst.parameter
    if inst.family.value == "mary":
        shifts, const = list(range(p - 1)), math.factorial(p)
    else:
        shifts, const = list(range(p, 2 * p + 1)), 2 * math.factorial(2 * p + 1) // math.factorial(p)
    assert indicial_shifts(inst) == (shifts, const)
    poly = [1]  # descending coefficients of prod (z + s)
    for s in shifts:
        poly = [a + s * b for a, b in zip(poly + [0], [0] + poly)]
    poly[-1] -= const
    assert build_indicial(inst) == poly


def test_large_degree_instances_solve():
    spec = solve_spectrum(mary(60))
    assert spec.degree == 59
    assert abs(spec.principal_root - 2) < 1e-10


def test_precision_tightens_certification():
    lo = solve_spectrum(mary(20), precision=64)
    hi = solve_spectrum(mary(20), precision=256)
    assert hi.certified_error < lo.certified_error
    assert abs(complex(hi.roots[1]) - complex(lo.roots[1])) < 1e-12


def test_precision_floor_enforced():
    with pytest.raises(ValueError):
        solve_spectrum(mary(5), precision=32)


@pytest.mark.parametrize("inst", [mary(27), fbbst(59)])
def test_polished_roots_lie_in_disjoint_double_disks(inst):
    lo = solve_spectrum(inst)
    hi = solve_spectrum(inst, precision=128)
    assert len(lo.radii) == lo.degree
    for z, r in zip(lo.roots, lo.radii):
        assert sum(abs(complex(w) - z) <= r for w in hi.roots) == 1, (z, r)
    for i, (z, r) in enumerate(zip(lo.roots, lo.radii)):
        for w, s in zip(lo.roots[i + 1:], lo.radii[i + 1:]):
            assert abs(z - w) > r + s


@pytest.mark.parametrize("precision", [64, 128])
@pytest.mark.parametrize("inst", [mary(27), fbbst(59)])
def test_roots_exactly_conjugate_symmetric(inst, precision):
    # lambda_2 must be the upper member of its pair, or amplitudes (and the
    # G1 coefficients built from them) come out conjugated
    spec = solve_spectrum(inst, precision=precision)
    rs = [complex(r) for r in spec.roots]
    assert Counter(rs) == Counter(r.conjugate() for r in rs)
    assert rs[1].imag > 0 and rs[2] == rs[1].conjugate()
    assert spec.lambda2 == rs[1]


def _spy_certify(monkeypatch) -> list:
    """Record each certificate with the radius function it took."""
    seen = []
    certify = roots_module._certify

    def spy(upper, real, radius_fn):
        found = certify(upper, real, radius_fn)
        seen.append((found, radius_fn))
        return found
    monkeypatch.setattr(roots_module, "_certify", spy)
    return seen


def _assert_all_points_pass(seen) -> None:
    # the radii of the upper and real roots, mirrored to the conjugates, are
    # what a radius pass over every root gives, bit for bit (certified_error
    # is read from them)
    for (points, radii), radius_fn in seen:
        assert radii == radius_fn(points)


@pytest.mark.parametrize("insts", [[mary(m) for m in range(3, 301)],
                                   [fbbst(t) for t in range(1, 171)]],
                         ids=["mary(3..300)", "fbbst(1..170)"])
def test_mirrored_radii_equal_the_all_points_pass(insts, monkeypatch):
    # the double pass only: fbbst(160..170) then miss the tolerance and raise
    seen = _spy_certify(monkeypatch)
    monkeypatch.setattr(roots_module, "_certify_mp", lambda *args: None)
    for inst in insts:
        try:
            solve_spectrum(inst)
        except RootConvergenceError:
            assert inst.split_law[1] >= 160, inst
    assert len(seen) == len(insts)
    _assert_all_points_pass(seen)


@pytest.mark.parametrize("inst", [mary(3), mary(4), mary(27), fbbst(1), fbbst(8)], ids=str)
def test_mirrored_mp_radii_equal_the_all_points_pass(inst, monkeypatch):
    seen = _spy_certify(monkeypatch)
    with mpmath.workprec(256):  # the working precision of _radii_mp
        solve_spectrum(inst, precision=128)
        assert len(seen) == 1
        _assert_all_points_pass(seen)


def test_m270_certified_in_double_precision():
    spec = solve_spectrum(mary(270))
    assert spec.certified_error <= 1e-10
    assert all(type(r) is complex for r in spec.roots)  # no mpmath polish


def test_polish_fallback_when_double_certificate_fails(monkeypatch):
    monkeypatch.setattr(roots_module, "_radii_double",
                        lambda shifts, log_c, pts: [math.inf] * len(pts))
    spec = solve_spectrum(mary(27))
    assert type(spec.roots[1]) is not complex
    assert spec.certified_error < 1e-30
    assert spec.alpha == pytest.approx(1.516970121848, abs=1e-12)


@pytest.mark.parametrize("module", ["moments", "treesim", "fixpoint"])
def test_cli_import_does_not_load_mpmath(module):
    # mpmath and scipy load only on demand, so they stay out of each
    # command's start-up time
    code = (f"import sys, logtrees.cli, logtrees.{module}; "
            "print('mpmath' in sys.modules or 'scipy' in sys.modules)")
    src = str(Path(logtrees.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"


# every seventh instance of the (m, t) scan the phase table covers, with the
# instances the benchmark and the goldens solve
SWEEP_SCAN = ([mary(m) for m in sorted({*range(3, 301, 7), 27, 270})]
              + [fbbst(t) for t in sorted({*range(1, 171, 7), 59})])


@pytest.mark.parametrize("inst", SWEEP_SCAN, ids=str)
def test_aberth_converges_in_few_sweeps(inst):
    # (named for the Aberth-Ehrlich sweeps the branch roots replaced) one
    # upper root per branch and the real roots, certified in double
    shifts, _ = indicial_shifts(inst)
    deg = len(shifts)
    upper, real = roots_module._branch_roots(shifts, inst.split_law[0])
    assert upper.size == (deg - 1) // 2 and (upper.imag > 0).all()
    assert real.size == 2 - deg % 2 and real[0] == 2.0 and (real.imag == 0.0).all()
    if inst.split_law[1] >= 156:
        return  # fbbst(160..170) take the mpmath polish, as they did before
    spec = solve_spectrum(inst)
    assert all(type(r) is complex for r in spec.roots)
    assert spec.certified_error <= CERTIFIED_TOLERANCE


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want) if want else abs(got)


@pytest.mark.parametrize("inst", [mary(m) for m in range(3, 61)]
                         + [fbbst(t) for t in range(1, 61)], ids=str)
def test_lambda2_is_the_correctly_rounded_root(inst):
    # against a 192-bit Newton solution rounded to double: 0 ulps measured
    lam = solve_spectrum(inst).lambda2
    want = complex(root_mp(inst, lam))
    assert _ulps(lam.real, want.real) <= 1 and _ulps(lam.imag, want.imag) <= 1, (lam, want)


@pytest.mark.parametrize("inst,measured", [
    pytest.param(inst, measured, id=str(inst)) for inst, measured in
    [(mary(27), 7.9e-17), (mary(270), 2.3e-16), (fbbst(59), 1.8e-16), (fbbst(120), 3.3e-16)]])
def test_roots_match_the_192_bit_roots(inst, measured):
    # every root against a 192-bit Newton solution, relative: at most
    # 1.02e-15 over mary(3..300) and fbbst(1..155).  The bound is 1.5 x the
    # error measured here; the branch roots without the ratio-form polish
    # are 2-3 times as far off
    for z in solve_spectrum(inst).roots:
        want = root_mp(inst, z)
        assert abs(mpmath.mpc(z) - want) <= 1.5 * measured * abs(want), z


@pytest.mark.parametrize("inst", [mary(27), fbbst(59)], ids=str)
def test_lambda2_matches_the_192_bit_spectrum(inst):
    assert solve_spectrum(inst).lambda2 == complex(solve_spectrum(inst, precision=192).roots[1])


@pytest.mark.parametrize("inst", [mary(27), mary(100), fbbst(59), fbbst(120)], ids=str)
def test_lambda2_does_not_depend_on_the_starts(inst, monkeypatch):
    # turning the Newton starts by 0.01 rad moves the branch roots in their
    # last bits, but lambda_2 is the correctly rounded root either way
    shifts, _ = indicial_shifts(inst)
    m = inst.split_law[0]
    before, _ = roots_module._branch_roots(shifts, m)
    want = solve_spectrum(inst).lambda2
    circle = roots_module._branch_circle
    monkeypatch.setattr(roots_module, "_branch_circle",
                        lambda sh, m: circle(sh, m) * cmath.exp(0.01j))
    after, _ = roots_module._branch_roots(shifts, m)
    assert before.tolist() != after.tolist()
    assert solve_spectrum(inst).lambda2 == want


def test_fbbst_amplitude_past_the_factorial_range():
    # 171! exceeds the double range; the amplitude rescales (lam)_t by powers
    # of two instead, so the fbbst routes keep working (the spectrum itself
    # takes the mpmath polish there)
    spec = solve_spectrum(fbbst(171))
    lam = complex(spec.roots[1])
    with mpmath.workdps(40):
        want = complex(amplitude_mp(fbbst(171), lam))
    assert abs(amplitude(spec, 2) - want) <= 1e-14 * abs(want)  # 6.6e-15 measured
