"""Binary quadratic forms: weighted class numbers.

A negative discriminant d (d < 0, d = 0 or 1 mod 4) has class number h(d) =
number of primitive reduced forms (a, b, c) with b^2 - 4ac = d, and unit
count w(d) = 6, 4, 2 for d = -3, -4, anything else.  The weighted class
number H(D) sums h(D/f^2)/w(D/f^2) over all f with f^2 | D and D/f^2 still a
discriminant; H_k(D) additionally requires gcd(f, k) = 1, so H_|D|(D) is
h(D)/w(D).  Every w divides 12, so class_number_twelfths_terms returns the
integers 12 H_k(d) for a list of discriminants after one check of k, the
one class-number route, of which class_number_twelfths is the case of one
d.  H_k(D) is also computable in a single pass over all reduced forms of
discriminant D (imprimitive ones included), weighting a form of content f
by 1/4 when it is f*(x^2 + y^2), by 1/6 when it is f*(x^2 + xy + y^2), and
by 1/2 otherwise; both routes are exposed and must agree.

Class numbers live in one in-process store, the per-discriminant memo
_cache of 12 H(d).  Each entry counts the reduced forms of d by leading
coefficient a, from the number of square roots of d mod 4a, which is
multiplicative in a (Cohen, GTM 138, 5.3); only a narrow band of a near
sqrt(|d|/3) scans b.  H_k(d) follows by Moebius inversion over the
levels f.  reduced_forms, the plain enumeration by a and b, is the
independent walk behind the weighted route.  A sweep over all discriminants
down to -X instead calls tabulate_twelfths(X) once, which fills the memo
from one walk over every reduced form with |d| <= min(X, TABLE_CAP); only
verify identity does, since every other command reads single windows,
where the count per discriminant is cheaper.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .arith import require_int, sieving_primes, valuation

# Every route that counts the forms of d refuses any |d| at or above this bound.
CLASS_SCAN_CAP = 2**26

# Memoized 12 H(d), one entry per discriminant.  The package runs on one thread.
_cache: dict[int, int] = {}

# tabulate_twelfths fills the memo down to -TABLE_CAP at most, which bounds its list
# before it is built: the table down to -2^18 takes about 0.6 s and 20 MB.
TABLE_CAP = 2**18


def _require_discriminant(d: int) -> None:
    """Refuse d unless it is an int d < 0, d = 0, 1 mod 4, with |d| below CLASS_SCAN_CAP:
    every route loops over the isqrt(|d|/3) leading coefficients of its forms."""
    if type(d) is not int or d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant (need d < 0, d = 0,1 mod 4)")
    if -d >= CLASS_SCAN_CAP:
        raise ValueError(f"class-number scan of |d| = {-d} reaches the cap {CLASS_SCAN_CAP}")


def reduced_forms(d: int) -> Iterator[tuple[int, int, int]]:
    """All reduced forms (a, b, c) of discriminant d, imprimitive included.

    Reduced means -a < b <= a <= c with b >= 0 when a == c.
    """
    _require_discriminant(d)
    for a in range(1, math.isqrt(-d // 3) + 1):
        m = 4 * a
        for b in [b for b in range(-a + 1 + (a + 1 + d) % 2, a + 1, 2) if (b * b - d) % m == 0]:
            c = (b * b - d) // m
            if c > a or (c == a and b >= 0):
                yield (a, b, c)


def _root_counts(d: int, top: int) -> list[int]:
    """g[a] = N_d(4a)/2 for 0 <= a <= top, and g[0] = 0.

    g[a] counts the roots b in (-a, a] of b^2 = d (mod 4a): the roots mod 4a
    come in pairs x, x + 2a.  N_d(m) is multiplicative in m and N_d(4) = 2,
    so g is multiplicative in a and is sieved one prime power at a time.
    """
    g = [1] * (top + 1)
    g[0] = 0
    for ell in sieving_primes(top):
        if ell > top:
            break
        r = d % ell
        if r and ell > 2:
            # (d/ell) = 1: two roots mod every power of ell; -1: none
            two = pow(r, ell >> 1, ell) == 1
            if 2 * ell > top:
                g[ell] = 2 * two  # ell is its own only multiple up to top
            elif two:
                g[ell::ell] = [v + v for v in g[ell::ell]]
            else:
                g[ell::ell] = [0] * (top // ell)
            continue
        # 2 and the primes dividing d, where N_d(ell^i) depends on the power i: with
        # d = ell^v u, ell not dividing u, it is ell^(i//2) up to i = v; past v it is 0
        # at odd v, else ell^(v/2) times the roots of u mod ell^(i-v), which are
        # 1 + (u/ell) at odd ell and 1, 2 [u = 1 mod 4], 4 [u = 1 mod 8] mod 2, 4, 8...
        v = valuation(ell, -d)
        u = d // ell**v
        unit = ((1, 2 * (u % 4 == 1), 4 * (u % 8 == 1)) if ell == 2
                else (2 * (pow(u % ell, ell >> 1, ell) == 1),))
        # g(q) = N_d(ell^i) / N_d(ell^(i-j)) at q = ell^j: i = j at odd ell, and i = j + 2
        # at ell = 2, over N_d(4) = 2; prev holds N_d(ell^(i-1))
        i, prev, q = (3, 2, 2) if ell == 2 else (1, 1, ell)
        while q <= top:
            cur = (ell ** (i // 2) if i <= v else 0 if v % 2
                   else ell ** (v // 2) * unit[min(i - v, len(unit)) - 1])
            if not cur:
                g[q::q] = [0] * (top // q)
                break
            if cur != prev:
                g[q::q] = [x * cur // prev for x in g[q::q]]
            prev, q, i = cur, q * ell, i + 1
    return g


def _reduced_form_count(d: int) -> int:
    """F(d): the reduced forms of discriminant d, imprimitive ones included.

    Counts by leading coefficient a <= sqrt(|d|/3) (Cohen, GTM 138, 5.3).
    For 4a^2 <= |d| every root b in (-a, a] of b^2 = d (mod 4a) gives a
    reduced form, since c = (b^2 - d)/4a >= a, so these a add g[a].  In the
    band 4a^2 > |d|, c >= a needs |b| >= s = ceil(sqrt(4a^2 - |d|)), so the
    band scans b in [s, a] for the a that have roots at all; it drops
    b = -a, and b = -s when c = a.
    """
    n = -d
    g = _root_counts(d, math.isqrt(n // 3))
    x = math.isqrt(n // 4)
    total = sum(g[:x + 1])
    for a in range(x + 1, len(g)):
        if not g[a]:
            continue
        e = 4 * a * a - n
        s = math.isqrt(e - 1) + 1
        m = 4 * a
        # b = d (mod 2), and each root b > 0 stands for the forms (a, +-b, c)
        total += 2 * [(b * b + n) % m for b in range(s + ((s ^ n) & 1), a + 1, 2)].count(0)
        total -= ((a ^ n) & 1 == 0 and (a * a + n) % m == 0) + (s * s == e and s < a)
    return total


def _is_square_multiple(n: int, k: int) -> bool:
    """Whether n = k f^2 for some integer f."""
    return n % k == 0 and math.isqrt(n // k) ** 2 == n // k


def _twelfths(d: int) -> int:
    """12 H(d) = 6 F(d) - 3 [d = -4f^2] - 4 [d = -3f^2], memoized.

    A reduced form weighs 1/2 in H(d), except f(x^2 + y^2), which weighs 1/4,
    and f(x^2 + xy + y^2), which weighs 1/6.
    """
    hit = _cache.get(d)
    if hit is None:
        n = -d
        hit = (6 * _reduced_form_count(d)
               - 3 * _is_square_multiple(n, 4) - 4 * _is_square_multiple(n, 3))
        _cache[d] = hit
    return hit


def tabulate_twelfths(bound: int) -> None:
    """Memoize 12 H(d) at every discriminant -min(bound, TABLE_CAP) <= d < 0 at once.

    One pass over the reduced forms (a, b, c) with x = 4ac - b^2 <= the bound,
    imprimitive ones included: for each a and b, the x of c = a, a + 1, ... run
    in steps of 4a.  The walk takes b >= 0, and a form with 0 < b < a and
    c > a stands for (a, -b, c) too.  Each form adds its weight in twelfths,
    as in _twelfths: 2 for (a, a, a), 3 for (a, 0, a), and 6 otherwise.
    """
    require_int(bound, 1, "table bound")
    x = min(bound, TABLE_CAP)
    t = [0] * (x + 1)
    for a in range(1, math.isqrt(x // 3) + 1):
        m = 4 * a
        for b in range(a, -1, -1):
            n = m * a - b * b  # the form (a, b, a); n grows as b falls
            if n > x:
                break
            t[n] += 2 if b == a else 3 if b == 0 else 6
            w = 12 if 0 < b < a else 6
            t[n + m::m] = [v + w for v in t[n + m::m]]
    _cache.update(zip(range(-3, -x - 1, -4), t[3::4]))
    _cache.update(zip(range(-4, -x - 1, -4), t[4::4]))


def class_number_twelfths_terms(discriminants: Iterable[int], k: int) -> list[int]:
    """12 H_k(d) at each of the discriminants d, a list of integers.

    k is checked first, then the whole list: the first bad d raises what
    class_number_twelfths(d, k) raises.  12 H_k(d) is the sum of
    mu(g) 12 H(d/g^2) over the squarefree g | k with d/g^2 a discriminant,
    so only the d with gcd(d, k) > 1 add more than their memo entry; the
    primes of k are found once per call, and a d listed twice is corrected
    twice.
    """
    require_int(k, 1, "restriction parameter")
    ds = list(discriminants)  # read more than once below
    get = _cache.get
    # the memo keeps only int d that passed the check, so an int hit needs none
    twelfths = [get(d) if type(d) is int else None for d in ds]
    if None in twelfths:
        for d in [d for d, t in zip(ds, twelfths) if t is None]:
            _require_discriminant(d)
        twelfths = [t or _twelfths(d) for d, t in zip(ds, twelfths)]
    if k > 1 and ds:
        # (mu(g) g, the i with g^2 | ds[i]) for each squarefree g | k that has such d,
        # from the primes p | k with p^2 <= |d|
        levels = [(1, range(len(ds)))]
        for p in sieving_primes(math.isqrt(-min(ds))):
            if k % p == 0:
                pp = p * p
                levels += [(-p * g, sub) for g, ii in levels
                           if (sub := [i for i in ii if ds[i] % pp == 0])]
        for g, ii in levels[1:]:
            gg = g * g
            for i, t in [(i, get(d0) or _twelfths(d0)) for i in ii if (d0 := ds[i] // gg) % 4 < 2]:
                twelfths[i] += t if g > 0 else -t
    return twelfths


def class_number_twelfths(d: int, k: int) -> int:
    """12 H_k(d), an integer, as each w(d/f^2) in {2, 4, 6} divides 12."""
    return class_number_twelfths_terms((d,), k)[0]


def kronecker_class_number_weighted(d: int, k: int) -> Fraction:
    """H_k(d) by direct weighted enumeration of reduced forms.

    Independent of the f-sum route: walks every reduced form of discriminant
    d once, skips contents sharing a factor with k, and weights by the shape
    of the underlying primitive form.  reduced_forms checks d.
    """
    require_int(k, 1, "restriction parameter")
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

