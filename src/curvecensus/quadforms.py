"""Binary quadratic forms: class numbers, weighted class numbers, L-values.

A negative discriminant d (d < 0, d = 0 or 1 mod 4) has class number h(d) =
number of primitive reduced forms (a, b, c) with b^2 - 4ac = d, and unit
count w(d) = 6, 4, 2 for d = -3, -4, anything else.  The weighted class
number H(D) sums h(D/f^2)/w(D/f^2) over all f with f^2 | D and D/f^2 still a
discriminant; H_k(D) additionally requires gcd(f, k) = 1.  Every w divides
12, so class_number_twelfths returns the integer 12 H_k(D), the form window
sums add before they divide by 12 once.  H_k(D) is also
computable in a single pass over all reduced forms of discriminant D
(imprimitive ones included), weighting a form of content f by 1/4 when it is
f*(x^2 + y^2), by 1/6 when it is f*(x^2 + xy + y^2), and by 1/2 otherwise;
both routes are exposed and must agree.

L(1, (d/.)) is available two ways: exactly through the class number
formula, and as a truncated Dirichlet series with a rigorous tail bound.

Class data lives in one in-process store, the per-discriminant memo
_cache: class_data counts the primitive reduced forms of each discriminant
b by b on first use.  reduced_forms, the enumeration by a, is the
independent walk behind the weighted route.  numpy is imported only inside
the series l_value_series, a test-time oracle, so importing this module
does not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .arith import kronecker, square_divisors


class ClassData(NamedTuple):
    h: int  # class number: primitive reduced forms
    w: int  # units of the order: 6 at -3, 4 at -4, else 2


class LSeriesValue(NamedTuple):
    value: float
    tail_bound: float


# class_data refuses to scan any |d| at or above this bound.
CLASS_SCAN_CAP = 2**26

# Memoized class data, one entry per discriminant.  The package runs on one thread.
_cache: dict[int, ClassData] = {}
# Always empty: perfbench/tracer.py reads these two names to count table hits.
_h_table = None
_h_table_limit = 0


def _require_discriminant(d: int) -> None:
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant (need d < 0, d = 0,1 mod 4)")


def _unit_count(d: int) -> int:
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


def reduced_forms(d: int) -> Iterator[tuple[int, int, int]]:
    """All reduced forms (a, b, c) of discriminant d, imprimitive included.

    Reduced means -a < b <= a <= c with b >= 0 when a == c.
    """
    _require_discriminant(d)
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1 + (a + 1 + d) % 2, a + 1, 2):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            yield (a, b, c)
        a += 1


def class_data(d: int) -> ClassData:
    """Class number and unit count of the order of discriminant d, memoized.

    Counts the primitive reduced forms (a, b, c) b by b: for each
    b = d (mod 2) with 3b^2 <= |d|, every divisor a of q = (b^2 - d)/4 with
    b <= a <= q/a gives one class, or two, (a, +-b, c), unless b = 0,
    a = b or a = c (Cohen, GTM 138, Algorithm 5.3.5).  |d| at or above
    CLASS_SCAN_CAP raises ValueError before the scan.
    """
    _require_discriminant(d)
    if -d >= CLASS_SCAN_CAP:
        raise ValueError(f"class-number scan of |d| = {-d} reaches the cap {CLASS_SCAN_CAP}")
    hit = _cache.get(d)
    if hit is not None:
        return hit
    h = 0
    for b in range(d % 2, math.isqrt(-d // 3) + 1, 2):
        q = (b * b - d) // 4
        for a in range(max(b, 1), math.isqrt(q) + 1):
            if q % a == 0 and math.gcd(a, b, q // a) == 1:
                h += 1 if b == 0 or a == b or a * a == q else 2
    out = ClassData(h, _unit_count(d))
    _cache[d] = out
    return out


def kronecker_class_number(d: int) -> Fraction:
    """Weighted class number H(d): sum of h(d/f^2)/w(d/f^2) over f^2 | d."""
    return kronecker_class_number_restricted(d, 1)


def kronecker_class_number_restricted(d: int, k: int) -> Fraction:
    """H_k(d): the H(d) sum restricted to levels f with gcd(f, k) = 1."""
    return Fraction(class_number_twelfths(d, k), 12)


def class_number_twelfths(d: int, k: int) -> int:
    """12 H_k(d), an integer: each w(d/f^2) in {2, 4, 6} divides 12.

    Window sums add these and divide by 12 once, instead of adding Fractions.
    """
    _require_discriminant(d)
    if k < 1:
        raise ValueError(f"restriction parameter must be >= 1, got {k}")
    total = 0
    for f in square_divisors(-d):
        if math.gcd(f, k) != 1:
            continue
        d0 = d // (f * f)
        if d0 % 4 not in (0, 1):
            continue
        h, w = class_data(d0)
        total += h * (12 // w)
    return total


def kronecker_class_number_weighted(d: int, k: int) -> Fraction:
    """H_k(d) by direct weighted enumeration of reduced forms.

    Independent of the f-sum route: walks every reduced form of discriminant
    d once, skips contents sharing a factor with k, and weights by the shape
    of the underlying primitive form.
    """
    _require_discriminant(d)
    if k < 1:
        raise ValueError(f"restriction parameter must be >= 1, got {k}")
    total = Fraction(0)
    for a, b, c in reduced_forms(d):
        f = math.gcd(math.gcd(a, b), c)
        if math.gcd(f, k) != 1:
            continue
        if b == 0 and a == c:
            w = 4  # f * (x^2 + y^2)
        elif a == b == c:
            w = 6  # f * (x^2 + xy + y^2)
        else:
            w = 2
        total += Fraction(1, w)
    return total


def l_value_exact(d: int) -> float:
    """L(1, (d/.)) via the class number formula: 2*pi*h / (w*sqrt(|d|))."""
    h, w = class_data(d)
    return 2.0 * math.pi * h / (w * math.sqrt(-d))


# Partial-summation constant: tail of sum (d/n)/n beyond X is at most
# 2*max_t |sum_{n<=t} (d/n)| / X, and Polya-Vinogradov bounds every partial
# character sum (induced characters included) by sqrt(|d|)*log|d|.
_PV_CONSTANT = 2.0


def l_value_series(d: int, x: int) -> LSeriesValue:
    """Partial sum of L(1, (d/.)) up to x, with a rigorous tail bound.

    tail_bound = 2 * sqrt(|d|) * log|d| / x.  The symbol (d/n) is periodic
    mod |d|, so one period is tabulated.  This oracle needs numpy, which is
    a dependency of the test extra only, not of the package.
    """
    _require_discriminant(d)
    if x < -d:
        raise ValueError(f"series cutoff {x} is below |d| = {-d}")
    import numpy as np

    period = np.array([0] + [kronecker(d, n) for n in range(1, -d)], dtype=np.int8)
    n = np.arange(1, x + 1, dtype=np.int64)
    value = float(np.sum(period[n % (-d)] / n))
    tail = _PV_CONSTANT * math.sqrt(-d) * math.log(-d) / x
    return LSeriesValue(value, tail)
