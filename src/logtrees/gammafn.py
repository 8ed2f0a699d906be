"""Complex gamma and digamma via Lanczos rational approximation.

The gamma function is evaluated from the Lanczos form

    Gamma(z+1) = sqrt(2 pi) (z + g + 1/2)^(z + 1/2) e^-(z + g + 1/2) A_g(z)

with g = 7 and a 9-term rational sum A_g; the reflection formula covers
Re z < 1/2.  Working through log-gamma keeps very large arguments (needed
for gamma-ratio factors at high branching degree) overflow-free.

Digamma uses the standard shift-then-asymptotic-series scheme with
Bernoulli coefficients, plus reflection for the left half-plane.
"""
from __future__ import annotations

import cmath
import math

_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.91893853320467274178032973640562

# B_{2k}/(2k) for the digamma asymptotic series, k = 1..7
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_PI = math.pi


class GammaPoleError(ValueError):
    """Raised when gamma or digamma is requested at a non-positive integer."""


def _is_nonpositive_int(z: complex) -> bool:
    return z.imag == 0 and z.real <= 0.5 and abs(z.real - round(z.real)) < 1e-12


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z); poles raise GammaPoleError."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise GammaPoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return cmath.log(_PI) - cmath.log(cmath.sin(_PI * z)) - log_gamma(1.0 - z)
    zz = z - 1.0
    acc = _LANCZOS_P[0]
    for k in range(1, len(_LANCZOS_P)):
        acc += _LANCZOS_P[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma(z: complex) -> complex:
    """Gamma(z) to >= 12 significant digits on the strip |Re z|, |Im z| <= 40."""
    return cmath.exp(log_gamma(z))


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); entire, returns exactly 0 at non-positive integers."""
    z = complex(z)
    if _is_nonpositive_int(z):
        return 0.0 + 0.0j
    return cmath.exp(-log_gamma(z))


def digamma(z: complex) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z); poles raise GammaPoleError."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise GammaPoleError(f"digamma pole at z = {z}")
    acc = 0.0 + 0.0j
    if z.real < 0.5:
        # psi(z) = psi(1-z) - pi cot(pi z)
        acc -= _PI * cmath.cos(_PI * z) / cmath.sin(_PI * z)
        z = 1.0 - z
    while z.real < 12.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0 + 0.0j
    power = inv2
    for coef in _DIGAMMA_TAIL:
        tail += coef * power
        power *= inv2
    return acc + cmath.log(z) - 0.5 / z - tail
