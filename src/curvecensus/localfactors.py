"""Local Euler factors and explicit constants for the census main terms.

The conjectural density constant for a group shape (m, k) of order N is an
Euler product: a generic factor 1 - ((N-1/l)^2 l + 1)/((l-1)^2 (l+1)) at
primes l not dividing N, 1 - 1/l^2 at l | m, and 1 - 1/(l(l-1)) at l | k,
l not dividing m.  The order-only constant replaces the last two by
1 - 1/(l^v (l-1)) with v the l-adic valuation.

At an odd prime l dividing neither N nor N-1 the generic factor is
g(l) = 1 - 1/(l-1)^2 whatever N is, and the product of g over the odd
primes is the twin-prime constant C2.  So for N > 1 the constant is
C2 * R in closed form, R the exact product of f(l)/g(l) over the finitely
many primes l | N(N-1), with f the shape or order factor and g(2) = 1 (2
always divides N(N-1)).  At N = 1, N - 1 = 0 and every prime takes
1 - 1/((l-1)^2 (l+1)); that product is the constant A.  C2 and A are
frozen literals (H. Cohen, "High precision computation of Hardy-Littlewood
constants"; P. Moree, 2000); the tests recompute both, and compare the
closed form with the truncated product, one exact factor per prime, within
its tail bound exp(4/z) - 1 at cutoff z.

T(n), P(l) and the 2-adic constant script J are the local sums the
main-term analysis rests on.  Each has a closed form, which production
uses, and an enumeration route from the definition (for script J, the
counts J_r(v) level by level), the oracle that `verify local` and the
tests compare it with.  The enumerations and powers are bounded:
t_of_n refuses a modulus n above T_MODULUS_CAP and t_closed_form an
exponent w above T_EXPONENT_CAP, each before any loop or power, and
script_j_by_levels counts J_r(v) at the levels v <= 3 only.

Each exported function checks its arguments once, through the arith
checks, and then calls a private kernel that checks nothing; a sum over
terms (the P(l) series over T(l^w), script J over the counts J_r(v)) sums
the kernel, so a request checks each value where it enters.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (euler_phi, factorize, kronecker, require_int, require_prime, require_shape,
                    valuation)

# prod over odd primes l of 1 - 1/(l-1)^2, the twin-prime constant
C2 = 0.66016181584686957
# prod over all primes l of 1 - 1/((l-1)^2 (l+1)), the constant at N = 1
A = 0.61513265731817180
# bounds of the local sums: t_of_n walks n residues, t_closed_form builds ell^(w-1)
T_MODULUS_CAP = 2**16
T_EXPONENT_CAP = 64


def aut_order(m: int, k: int) -> int:
    """Order of the automorphism group of Z/m x Z/mk.

    #Aut / #G = m phi(m) (phi(k)/k) prod over l | m, l not | k of (1 - 1/l^2),
    so #Aut = m^3 phi(m) phi(k) times (l^2 - 1)/l^2 at each such l; every
    division is exact, as l^3 divides m^3.
    """
    require_shape(m, k)
    out = m**3 * euler_phi(m) * euler_phi(k)
    for ell, _ in factorize(m).factors:
        if k % ell:
            out = out // (ell * ell) * (ell * ell - 1)
    return out


def generic_factor(n: int, ell: int) -> Fraction:
    """Factor at a prime ell not dividing n: 1 - ((n-1/l)^2 l + 1)/((l-1)^2 (l+1))."""
    chi2 = kronecker(n - 1, ell) ** 2
    den = (ell - 1) ** 2 * (ell + 1)
    return Fraction(den - chi2 * ell - 1, den)


def group_factor(m: int, k: int, ell: int) -> Fraction:
    """The ell-factor of the shape constant K for (m, k)."""
    if m % ell == 0:
        return 1 - Fraction(1, ell * ell)
    if k % ell == 0:
        return 1 - Fraction(1, ell * (ell - 1))
    return generic_factor(m * m * k, ell)


def order_factor(n: int, ell: int) -> Fraction:
    """The ell-factor of the order constant K for n."""
    v = valuation(ell, n)
    if v:
        return 1 - Fraction(1, ell**v * (ell - 1))
    return generic_factor(n, ell)


def _closed_form(factor_at, n: int) -> float:
    """C2 * R, R the product of f(l)/g(l) over the primes l | n(n-1); A at n = 1."""
    if n == 1:
        return A
    ratio = Fraction(1)
    for ell in {ell for x in (n, n - 1) for ell, _ in factorize(x).factors}:
        generic = 1 - Fraction(1, (ell - 1) ** 2) if ell > 2 else 1
        ratio *= factor_at(ell) / generic
    return C2 * float(ratio)


def k_of_group(m: int, k: int) -> float:
    """The shape constant K(m, k) in closed form."""
    require_shape(m, k)
    return _closed_form(lambda ell: group_factor(m, k, ell), m * m * k)


def k_of_order(n: int) -> float:
    """The order constant K(n) in closed form."""
    require_int(n, 1, "order")
    return _closed_form(lambda ell: order_factor(n, ell), n)


def main_term(n: int, aut: int, constant: float) -> float:
    """constant * n^2 / (aut * log n) for a shape of order n >= 2 with aut automorphisms."""
    require_int(n, 2, "order")
    require_int(aut, 1, "#Aut")
    if type(constant) is not float:
        raise ValueError(f"constant must be a float, got {constant!r}")
    return constant * n * n / (aut * math.log(n))


# --- the local sums T, P ----------------------------------------------------


def t_of_n(n: int, m: int, k: int) -> int:
    """T(n) by enumeration: over squares d = j^2 mod n, the Kronecker symbol
    (d - 4k / n) counted at each j with N + 1 + jm coprime to n."""
    require_int(n, 1, "modulus", T_MODULUS_CAP)
    require_shape(m, k)
    big_n = m * m * k
    total = 0
    for j in range(n):
        if math.gcd(big_n + 1 + j * m, n) != 1:
            continue
        d = j * j % n
        total += kronecker(d - 4 * k, n)
    return total


def _require_local_prime(ell: int, m: int, k: int) -> None:
    """Refuse unless (m, k) is a shape and ell a prime not dividing 2k."""
    require_shape(m, k)
    require_prime(ell)
    if (2 * k) % ell == 0:
        raise ValueError(f"the local sums need ell = {ell} coprime to 2k = {2 * k}")


def t_closed_form(ell: int, w: int, m: int, k: int) -> int:
    """T(ell^w) in closed form, valid for primes ell not dividing 2k."""
    _require_local_prime(ell, m, k)
    require_int(w, 1, "exponent", T_EXPONENT_CAP)
    return _t_closed_form(ell, w, m, k)


def _t_closed_form(ell: int, w: int, m: int, k: int) -> int:
    """The kernel of t_closed_form, unchecked."""
    head = -(kronecker(m * (m * m * k - 1), ell) ** 2)
    head += ell - 1 - kronecker(k, ell) if w % 2 == 0 else -1
    return ell ** (w - 1) * head


def p_of_ell(ell: int, m: int, k: int) -> Fraction:
    """The local average P(ell) = 1 + sum of T(ell^w)/(ell^(2w-1)(ell - (m/l)^2)).

    Closed rational form; the truncated series agrees within a geometric tail.
    """
    _require_local_prime(ell, m, k)
    big_n = m * m * k
    sm = kronecker(m, ell) ** 2
    sn1 = kronecker(big_n - 1, ell) ** 2
    sk = kronecker(k, ell)
    num = ell**3 - sm * ell**2 - (1 + sm * sn1) * ell - 1 - sn1 * sk
    den = (ell**2 - 1) * (ell - sm)
    return Fraction(num, den)


def p_of_ell_series(ell: int, m: int, k: int) -> Fraction:
    """Partial sum of the P(ell) series through T(ell^12), exact."""
    _require_local_prime(ell, m, k)
    sm = kronecker(m, ell) ** 2
    return 1 + sum(Fraction(_t_closed_form(ell, w, m, k), ell ** (2 * w - 1) * (ell - sm))
                   for w in range(1, 13))


# --- 2-adic counts ----------------------------------------------------------


def _j_r_v(r: int, v: int, m: int, k: int) -> int:
    """|J_r(v)|: the count of 1 <= j <= 2^(2v+3) with (j - mk)^2 = 4k + 4^v r
    mod 2^(2v+3) and jm even, unchecked; it walks 2^(2v+3) residues."""
    modulus = 2 ** (2 * v + 3)
    target = (4 * k + 4**v * r) % modulus
    count = 0
    for j in range(1, modulus + 1):
        if (j * m) % 2 == 0 and (j - m * k) ** 2 % modulus == target:
            count += 1
    return count


def _script_j_level(v: int, m: int, k: int) -> Fraction:
    """The level-v aggregate: weighted sum of |J_r(v)| over r in {0,1,4,5}."""
    v0 = 3 if m % 2 == 0 else 2
    total = Fraction(0)
    for r in (0, 1, 4, 5):
        total += Fraction(_j_r_v(r, v, m, k), 2 - kronecker(r, 2))
    return total / 2 ** (v0 - 1)


def script_j(m: int, k: int) -> Fraction:
    """The 2-adic constant in closed form: 2/3 for m and k odd, 3/2 for both
    even, 1 otherwise.  script_j_by_levels is the enumeration it is checked
    against."""
    require_shape(m, k)
    if m % 2 == 1 and k % 2 == 1:
        return Fraction(2, 3)
    if m % 2 == 0 and k % 2 == 0:
        return Fraction(3, 2)
    return Fraction(1)


def script_j_by_levels(m: int, k: int) -> Fraction:
    """The 2-adic constant by enumeration: sum over admissible v of level aggregates / 8^v.

    The levels v >= 3 all take the v = 3 value, so that tail is geometric in
    1/8 and summed exactly.
    """
    require_shape(m, k)
    if k % 2 == 0:
        return _script_j_level(0, m, k)  # (2^v, k) = 1 forces v = 0
    head = sum((_script_j_level(v, m, k) / 8**v for v in range(3)), Fraction(0))
    return head + _script_j_level(3, m, k) * Fraction(1, 8**3) / (1 - Fraction(1, 8))
