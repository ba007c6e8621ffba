"""GL2 matrix counts mod prime powers and the Euler-factor interpretation.

C(N, n; l^e) counts invertible 2x2 matrices sigma mod l^e with
det(sigma) + 1 - tr(sigma) = N and sigma = I mod l^u, u the l-adic
valuation of n.  The count has a four-branch closed form stable in e once
e exceeds v = valuation of N, and the stabilized density
l^e #C / #GL2(Z/l^e) reproduces, prime by prime, the Euler factors of the
order constant times N/phi(N) and (as a difference of two densities) of the
shape constant times #G/#Aut.  Production uses the closed forms; the
exhaustive pure-Python scans, memoized as tuples, are the oracle that
`verify matrix` and the tests compare them with.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from fractions import Fraction

from .arith import (kronecker, require_int, require_prime, require_shape, require_torsion,
                    valuation)
from .localfactors import group_factor, order_factor

BRUTE_BUDGET = 10**8
# A prime power l^e is at most 2^MODULUS_BITS; as l >= 2, e is checked before any power
MODULUS_BITS = 64


def _require_prime_power(ell: int, e: int, lo: int) -> None:
    """Refuse unless ell is prime, e an int >= lo and ell^e <= 2^MODULUS_BITS."""
    require_prime(ell)
    require_int(e, lo, "exponent")
    if e > MODULUS_BITS or ell**e > 2**MODULUS_BITS:
        raise ValueError(f"modulus {ell}^{e} exceeds 2^{MODULUS_BITS}")


class MatrixCountQuery(namedtuple("MatrixCountQuery", "n_order n_torsion ell e")):
    """One fiber-count query: order N, torsion level n, prime power l^e.

    n plays its role only through the l-adic valuation; levels with
    valuation beyond half that of N simply give empty counts.  An immutable,
    hashable tuple (n_order, n_torsion, ell, e), checked when it is built.
    """

    __slots__ = ()

    def __new__(cls, n_order: int, n_torsion: int, ell: int, e: int):
        if not (type(n_order) is type(n_torsion) is int and n_order >= 1 and n_torsion >= 1):
            raise ValueError("order and torsion level must be >= 1")
        _require_prime_power(ell, e, 1)
        return super().__new__(cls, n_order, n_torsion, ell, e)

    @classmethod
    def _make(cls, fields):  # so that _replace checks the new fields too
        return cls(*fields)


def gl2_order(ell: int, e: int) -> int:
    """#GL2(Z/l^e) = l^(4(e-1)+1) (l+1) (l-1)^2, for a prime l and l^e <= 2^MODULUS_BITS."""
    _require_prime_power(ell, e, 1)
    return ell ** (4 * (e - 1) + 1) * (ell + 1) * (ell - 1) ** 2


def _product_histogram(entries: list[int] | range, mod: int) -> Counter:
    """Key r counts the (b, c) in entries^2 with bc = r mod `mod`."""
    return Counter(b * c % mod for b in entries for c in entries)


def count_c_brute(q: MatrixCountQuery) -> int:
    """Fiber count by full enumeration: one entry of the memoized fiber scan."""
    if type(q) is not MatrixCountQuery:
        raise ValueError(f"{q!r} is not a MatrixCountQuery")
    mod = q.ell**q.e
    u = valuation(q.ell, q.n_torsion)
    fibers = count_c_fibers(q.ell, q.e, u)  # raises past either budget
    t = q.n_order % mod
    g = q.ell ** min(2 * u, q.e)
    return 0 if t % g else fibers[t // g]


@functools.lru_cache(maxsize=None)
def count_c_fibers(ell: int, e: int, u: int) -> tuple[int, ...]:
    """All fiber counts at once: index i gives #{sigma : det+1-tr = i g mod l^e}.

    Counts sigma = I mod l^u exhaustively, using no closed form.  Writing
    a = 1 + x and d = 1 + y gives det + 1 - tr = xy - bc and det = ad - bc,
    so one histogram of (xy mod l^e, ad mod l) over the diagonal and one of
    bc mod l^e over the off-diagonal give every fiber with det a unit.  As
    x, y, b, c are multiples of l^u, only residues t divisible by
    g = l^min(2u, e) can be hit, so the tuple holds l^e / g entries, the
    fiber of t at t // g (every fiber at u = 0).  At u >= e, sigma = I is the
    only candidate and det + 1 - tr = 0 there, so the tuple is (1,) whatever
    the modulus.  Memoized per (l, e, u).
    """
    if u >= e:
        return (1,)
    mod = ell**e
    if mod > BRUTE_BUDGET:
        raise ValueError(f"fiber array too long: {ell}^{e} > {BRUTE_BUDGET}")
    g = ell ** min(2 * u, e)
    out = [0] * (mod // g)
    step = ell**u
    size = mod // step
    if size**4 > BRUTE_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {size}^4 > {BRUTE_BUDGET}")
    # x, y, b, c all run over the multiples of l^u mod l^e
    off = [step * t for t in range(size)]
    diagonal = Counter((x * y % mod, (1 + x) * (1 + y) % ell) for x in off for y in off)
    products = _product_histogram(off, mod).items()
    for (xy, ad), n_diag in diagonal.items():
        for bc, n_off in products:
            if (ad - bc) % ell:
                out[(xy - bc) % mod // g] += n_diag * n_off
    return tuple(out)


def count_c_closed(q: MatrixCountQuery) -> int:
    """Stabilized fiber count in closed form; requires e > valuation of N."""
    if type(q) is not MatrixCountQuery:
        raise ValueError(f"{q!r} is not a MatrixCountQuery")
    ell, e = q.ell, q.e
    u = valuation(ell, q.n_torsion)
    v = valuation(ell, q.n_order)
    if e <= v:
        raise ValueError(f"closed form needs e > v = {v}, got e = {e}")
    if u == 0 and v == 0:
        chi2 = kronecker(q.n_order - 1, ell) ** 2
        return ell ** (3 * (e - 1) + 1) * (ell**2 - ell - 1 - chi2)
    if u == 0:
        return ell ** (3 * e - v - 2) * (ell + 1) * (ell ** (v + 1) - ell**v - 1)
    if 2 * u <= v:
        return ell ** (3 * e - v - 2) * (ell + 1) * (ell ** (v - 2 * u + 1) - 1)
    return 0


def det_count_closed(m_det: int, ell: int, e: int) -> int:
    """#{sigma in Mat2(Z/l^e) : det sigma = M}, M > 0, via the closed form.

    With r the l-adic valuation of M and s = e - r, the count is
    l^(2(r-1)) (l^(3s)(l+1)(l^(r+1)-1) + [s = 0]); e < r is rejected.  At
    r = 0 that is l^(3e-2) (l^2 - 1), or 1 at e = 0, so it stays in integers.
    """
    require_int(m_det, 1, "determinant target")
    _require_prime_power(ell, e, 0)
    r = valuation(ell, m_det)
    if r > e:
        raise ValueError(f"valuation {r} of {m_det} exceeds exponent {e}")
    if r == 0:  # at e = 0, Mat2(Z/1) holds one matrix
        return ell ** (3 * e - 2) * (ell * ell - 1) if e else 1
    s = e - r
    return ell ** (2 * (r - 1)) * (
        ell ** (3 * s) * (ell + 1) * (ell ** (r + 1) - 1) + (1 if s == 0 else 0)
    )


def det_count_brute(m_det: int, ell: int, e: int) -> int:
    """Determinant fiber over Mat2(Z/l^e): one entry of the memoized histogram."""
    return det_fibers(ell, e)[m_det % ell**e]


@functools.lru_cache(maxsize=None)
def det_fibers(ell: int, e: int) -> tuple[int, ...]:
    """Index t gives #{sigma in Mat2(Z/l^e) : det sigma = t}, counted exhaustively.

    With P the histogram of products bc over all (b, c), the pairs with
    ad - bc = t number sum_y P[y] P[t + y].  Memoized per (l, e).
    """
    mod = ell**e
    if mod**4 > BRUTE_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {mod}^4 > {BRUTE_BUDGET}")
    prod = _product_histogram(range(mod), mod)
    return tuple(
        sum(n * prod[(t + y) % mod] for y, n in prod.items()) for t in range(mod)
    )


def _density(n: int, u: int, ell: int) -> Fraction:
    """Stabilized density l^e #C / #GL2 with torsion exponent u, at e = v + 1.

    Every branch of count_c_closed makes l^e #C / #GL2 free of e, so one
    exponent past v gives the density.
    """
    e = valuation(ell, n) + 1
    q = MatrixCountQuery(n, ell**u, ell, e)
    return Fraction(ell**e * count_c_closed(q), gl2_order(ell, e))


def euler_density(n: int, nt: int, ell: int) -> Fraction:
    """The stabilized local density for order n and torsion level nt, nt^2 | n."""
    require_torsion(n, nt)
    require_prime(ell)
    return _density(n, valuation(ell, nt), ell)


def shape_density(m: int, k: int, ell: int) -> Fraction:
    """Stabilized density of sigma = I mod l^u but not mod l^(u+1), u the valuation of m.

    The order is m^2 k.  The value is a difference of two stabilized
    densities, and kg_local_factor equals it.
    """
    require_shape(m, k)
    require_prime(ell)
    u = valuation(ell, m)
    n = m * m * k
    return _density(n, u, ell) - _density(n, u + 1, ell)


def _g_over_aut_factor(m: int, k: int, ell: int) -> Fraction:
    """The ell-factor of #G/#Aut(G) in its Euler factorization."""
    u = valuation(ell, m)
    div_m, div_k = m % ell == 0, k % ell == 0
    if not (div_m or div_k):
        return Fraction(1)
    if div_m and div_k:
        return Fraction(ell) ** (2 - 2 * u) / (ell - 1) ** 2
    if div_m:
        return Fraction(ell) ** (3 - 2 * u) / ((ell - 1) * (ell**2 - 1))
    return Fraction(ell, ell - 1)


def kn_local_factor(n: int, ell: int) -> Fraction:
    """The ell-factor of (order constant) * n / phi(n)."""
    f = order_factor(n, ell)
    if n % ell == 0:
        f *= Fraction(ell, ell - 1)
    return f


def kg_local_factor(m: int, k: int, ell: int) -> Fraction:
    """The ell-factor of (shape constant) * #G / #Aut(G)."""
    return group_factor(m, k, ell) * _g_over_aut_factor(m, k, ell)
