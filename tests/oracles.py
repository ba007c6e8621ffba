"""L(1, (d/.)), the Dirichlet L-value at 1, two ways: a test oracle for the class numbers.

l_value_exact reads it from the class number formula through
quadforms.class_number_twelfths, and l_value_series sums the truncated
Dirichlet series with a rigorous tail bound.  No command reads either:
acceptance criterion 7 and tests/test_quadforms.py check one against the
other.
"""

import math
from typing import NamedTuple

from curvecensus.arith import kronecker, require_int
from curvecensus.quadforms import _require_discriminant, class_number_twelfths


class LSeriesValue(NamedTuple):
    value: float
    tail_bound: float




def l_value_exact(d: int) -> float:
    """L(1, (d/.)) = 2*pi*h / (w*sqrt(|d|)), the class number formula; h/w = H_|d|(d)."""
    return math.pi * class_number_twelfths(d, -d) / (6.0 * math.sqrt(-d))


# Partial-summation constant: tail of sum (d/n)/n beyond X is at most
# 2*max_t |sum_{n<=t} (d/n)| / X, and Polya-Vinogradov bounds every partial
# character sum (induced characters included) by sqrt(|d|)*log|d|.
_PV_CONSTANT = 2.0


def _digamma(z: float) -> float:
    """psi(z) for z > 0: shifted up to z >= 8, then the asymptotic series.

    The series stops at the B_14 term; the first omitted term is below
    2e-15 at z = 8.
    """
    shift = 0.0
    while z < 8.0:
        shift += 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    series = w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (
        1 / 240 - w * (1 / 132 - w * (691 / 32760 - w / 12))))))
    return math.log(z) - 0.5 / z - series - shift


def l_value_series(d: int, x: int) -> LSeriesValue:
    """Partial sum of L(1, (d/.)) up to x, with a rigorous tail bound.

    tail_bound = 2 * sqrt(|d|) * log|d| / x.  The symbol (d/n) is periodic
    mod q = |d|, so the terms n = r + jq <= x of one residue class r sum to
    (psi(r/q + J_r) - psi(r/q)) / q, with J_r such terms: one digamma
    difference per class instead of x terms.
    """
    _require_discriminant(d)
    q = -d
    require_int(x, q, "series cutoff")
    total = 0.0
    for r in range(1, q):
        chi = kronecker(d, r)
        if chi:
            z = r / q
            total += chi * (_digamma(z + (x - r) // q + 1) - _digamma(z))
    tail = _PV_CONSTANT * math.sqrt(q) * math.log(q) / x
    return LSeriesValue(total / q, tail)
