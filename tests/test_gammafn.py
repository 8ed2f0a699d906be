import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logtrees.gammafn import (
    GammaPoleError,
    digamma,
    gamma,
    log_gamma,
    reciprocal_gamma,
)


def test_integer_values():
    assert abs(gamma(1) - 1) < 1e-14
    assert abs(gamma(5) - 24) < 24 * 1e-13


def test_half_integer():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-13


def test_abs_gamma_one_plus_i():
    # |Gamma(1+i)| via independent high-precision evaluation
    want = abs(complex(mpmath.gamma(mpmath.mpc(1, 1))))
    assert abs(abs(gamma(1 + 1j)) - want) < 1e-12
    assert abs(abs(gamma(1 + 1j)) - 0.521564) < 1e-6


@pytest.mark.parametrize("re", [-39.3, -17.2, -3.7, -0.4, 0.6, 2.0, 11.5, 39.8])
@pytest.mark.parametrize("im", [-40.0, -9.1, -0.5, 0.0, 0.7, 13.3, 40.0])
def test_strip_accuracy_vs_mpmath(re, im):
    z = complex(re, im)
    ours = gamma(z)
    want = complex(mpmath.gamma(mpmath.mpc(re, im)))
    assert abs(ours - want) <= 1e-12 * abs(want)


def test_recurrence_on_grid():
    # |Gamma(z+1) - z Gamma(z)| / |Gamma(z+1)| < 1e-10 on a 100-point grid
    pts = []
    for i in range(10):
        for j in range(10):
            pts.append(complex(-35 + 7.8 * i + 0.37, -36 + 8.0 * j + 0.21))
    for z in pts:
        g1 = gamma(z + 1)
        rel = abs(g1 - z * gamma(z)) / abs(g1)
        assert rel < 1e-10, (z, rel)


def test_pole_raises():
    with pytest.raises(GammaPoleError):
        gamma(0)
    with pytest.raises(GammaPoleError):
        gamma(-3)
    with pytest.raises(GammaPoleError):
        log_gamma(-7.0 + 0j)


def test_reciprocal_gamma_at_poles_is_zero():
    assert reciprocal_gamma(-3) == 0
    assert reciprocal_gamma(0) == 0
    z = 2.5 - 1.25j
    assert abs(reciprocal_gamma(z) * gamma(z) - 1) < 1e-12


@pytest.mark.parametrize("z", [0.3 + 0j, 2.0 + 0j, 1.5 - 2.5j, -4.3 + 7.7j, 30.0 + 18.0j])
def test_digamma_vs_mpmath(z):
    want = complex(mpmath.digamma(mpmath.mpc(z.real, z.imag)))
    assert abs(digamma(z) - want) <= 1e-11 * max(1.0, abs(want))


def test_digamma_pole():
    with pytest.raises(GammaPoleError):
        digamma(-2)


@given(
    st.floats(-38.0, 38.0).filter(lambda r: abs(r - round(r)) > 1e-3 or r > 0.5),
    st.floats(-38.0, 38.0),
)
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence_property(re, im):
    z = complex(re, im)
    g1 = gamma(z + 1)
    assert abs(g1 - z * gamma(z)) <= 1e-10 * abs(g1)


@given(st.floats(0.2, 30.0), st.floats(-30.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_digamma_recurrence_property(re, im):
    z = complex(re, im)
    assert abs(digamma(z + 1) - (digamma(z) + 1 / z)) < 1e-10 * (1 + abs(digamma(z)))


def test_gamma_ratio_large_arguments():
    # Gamma(m + lam - 1)/Gamma(lam) = m! at an indicial root; check the
    # log-space ratio stays finite and accurate for large first argument
    got = cmath.exp(log_gamma(130.0 + 9.0j) - log_gamma(4.0 + 9.0j))
    want = complex(mpmath.gamma(mpmath.mpc(130, 9)) / mpmath.gamma(mpmath.mpc(4, 9)))
    assert abs(got - want) < 1e-11 * abs(want)
