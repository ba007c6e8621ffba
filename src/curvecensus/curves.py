"""Curve census: counts of elliptic curves over prime fields by group or order.

Every group of points is of the shape (m, k), meaning Z/m x Z/mk of order
N = m^2 k.  A prime p can carry curves of order N only inside the Hasse
window (p - 1 - N)^2 < 4N; there the weighted count of classes with group
(m, k) is the restricted weighted class number H_k(d(p)) of the trace
discriminant d(p) = ((p-1)/m - mk)^2 - 4k, and the count by order alone is
H((p-1-N)^2 - 4N).  Weighted means each isomorphism class counts 1/#Aut.
The window integers are exactly those with |p - 1 - N| <= isqrt(4N - 1), so
the primes 1 mod m among them come from one sieve of that range, made where
the window is read.  As (p - 1 - N)^2 - 4N = (N - 1 - p)^2 - 4p, the same
bounds around p give the orders N of the curves over F_p.  Every count goes
through one window kernel, which hands the d(p) of a list of window primes
to one class_number_twelfths_terms call and gets 12 H_r(d(p)) back for
each p: a window sum adds them and divides by 12 once.  The routes of M(n)
read the d(p) of the window of (1, n) once, for the calls at r = 1 and r = n.

Each exported function checks its arguments once and then calls private
kernels that check nothing, and quadforms checks the restriction once per
window.  A single prime p is the window [p] or [] after one window test,
so M_p(G) is a window sum over that one-prime window.
window_terms and inclusion_exclusion_terms give M_p(G) and its
inclusion-exclusion at every prime of a window after one check, the
latter with one window sum per Moebius level, and the routes of M(n)
check n alone, as every shape of n lies inside its bounds.

brute_force_tally is the independent oracle: it enumerates Weierstrass
equations over F_p, counts points directly, reads off the group shape
Z/m x Z/mk of order n as the largest square divisor f of n with (n/f) P = O
at every point P, and applies the mass formula (each class corresponds to
(p-1)/#Aut short-Weierstrass pairs for p > 3, and to (p-1)p^3/#Aut general
quintuples for p in {2, 3}).  For p > 3 the pairs isomorphic to (a, b) are
its orbit (u^4 a, u^6 b), u in F_p*: the oracle counts the points of one
pair per orbit and weights that group by the orbit's size over p - 1.
Both scans add points by one chord-and-tangent law for the long form
y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, the short form being
a1 = a2 = a3 = 0, and divide through a table of inverses mod p built once
per prime.  Either way the weights add up to p and every shape has
m | p - 1; a scan that breaks either raises ConsistencyError, which this
module defines for every check of one route against another.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .arith import (FACTOR_BOUND, euler_phi, mobius, primes_in_ap,
                    require_int, require_prime, require_shape, square_divisors)
from .quadforms import CLASS_SCAN_CAP, class_number_twelfths_terms

ORDER_BOUND = 2**40
# candidates in the whole Hasse window of ORDER_BOUND, the widest scan allowed
_MAX_WINDOW_SCAN = 4 * math.isqrt(ORDER_BOUND) + 4
ORACLE_PRIME_CAP = 127


class ConsistencyError(ArithmeticError):
    """Two independent computation routes that must agree exactly did not.

    Raised when the M(n) routes disagree, or when the oracle's mass is not p
    or one of its shapes has m not dividing p - 1; this always signals an
    implementation bug, never bad user input.
    """


class GroupShape(NamedTuple):
    m: int
    k: int

    @property
    def order(self) -> int:
        return self.m * self.m * self.k


class CurveTally(NamedTuple):
    """Oracle output for one prime: weighted counts per group shape."""

    p: int
    entries: dict[GroupShape, Fraction]
    total: Fraction


def in_hasse_window(n: int, p: int) -> bool:
    """Integer test (p - 1 - n)^2 < 4n; no floating point at the boundary."""
    return (p - 1 - n) ** 2 < 4 * n


def _trace_discriminants(m: int, k: int, primes: list[int]) -> list[int]:
    """d(p) = ((p-1)/m - mk)^2 - 4k at each of primes, window primes p = 1 (mod m) of m^2 k.

    The one d(p) kernel, unchecked.  At the shape (nt, n/nt^2) it is
    ((p-1-n)^2 - 4n)/nt^2, the discriminant of the curves of order n with
    full nt-torsion.
    """
    # (p-1)/m - mk = (p - 1 - m^2 k)/m, one division per prime
    c, k4 = m * m * k + 1, 4 * k
    return [(t := (p - c) // m) * t - k4 for p in primes]


def _window_twelfths(m: int, k: int, primes: list[int], r: int) -> list[int]:
    """12 H_r(d(p)) at each of primes, window primes p = 1 (mod m) of m^2 k, unchecked.

    The one window kernel: every count makes one class-number call per window,
    at r = k for M(G) and at r = 1 for the count by order alone; the routes of
    M(n) call quadforms directly for the window of (1, n), at r = 1 and r = n.
    """
    return class_number_twelfths_terms(_trace_discriminants(m, k, primes), r)


def _window_test(m: int, k: int, p: int) -> list[int]:
    """[p] if p = 1 (mod m) lies in the window of m^2 k, else []: a one-prime window."""
    return [p] if p % m == 1 % m and in_hasse_window(m * m * k, p) else []


def m_p_of_group(m: int, k: int, p: int) -> Fraction:
    """Weighted count of classes over F_p with group Z/m x Z/mk: the window sum
    of m_of_group over the one-prime window of p."""
    require_shape(m, k)
    require_prime(p)
    return Fraction(sum(_window_twelfths(m, k, _window_test(m, k, p), k)), 12)


def require_scannable(k: int) -> None:
    """Refuse a window sum over discriminants |d| <= 4k before it starts.

    Applies to the shape parameter k of m_of_group and to the order n of
    m_of_order, the shape (1, n): 4k + 4 at or above quadforms.CLASS_SCAN_CAP
    raises ValueError before any class number is computed.
    """
    if 4 * k + 4 >= CLASS_SCAN_CAP:
        raise ValueError(
            f"class numbers for |d| <= {4 * k + 4} reach the scan cap {CLASS_SCAN_CAP}"
        )


def _checked_window(m: int, k: int) -> list[int]:
    """The window primes p = 1 (mod m) of m^2 k, ascending, after the checks of a
    sum over them, before any candidate is tested: the shape, the window scan
    (OverflowError), the window's reach of 2^64, then the class-number scan cap
    (ValueError)."""
    require_shape(m, k)
    lo, hi = _window_range(m * m * k, m)
    require_scannable(k)
    return primes_in_ap(lo, hi, m)


def m_of_group(m: int, k: int) -> Fraction:
    """Weighted count over all primes: sum of m_p_of_group over the window."""
    return Fraction(sum(_window_twelfths(m, k, _checked_window(m, k), k)), 12)


def window_terms(m: int, k: int) -> list[tuple[int, Fraction]]:
    """The pairs (p, m_p_of_group(m, k, p)) over the window primes p = 1 (mod m)
    of m^2 k, ascending in p, after the checks of m_of_group."""
    primes = _checked_window(m, k)
    return [(p, Fraction(t, 12)) for p, t in zip(primes, _window_twelfths(m, k, primes, k))]


def _window_range(n: int, m: int) -> tuple[int, int]:
    """Strict bounds (lo, hi) around exactly the window integers of n.

    The window integers p are those with |p - 1 - n| <= r = isqrt(4n - 1),
    so lo = n - r and hi = n + 2 + r.  A scan with more candidates than the
    whole window of ORDER_BOUND raises OverflowError; a window whose largest
    integer n + 1 + r reaches arith.FACTOR_BOUND = 2^64 raises ValueError.
    """
    if (4 * math.isqrt(n) + 4) // m > _MAX_WINDOW_SCAN:
        raise OverflowError(f"window scan of N = {n} for primes 1 mod {m} "
                            f"exceeds {_MAX_WINDOW_SCAN} candidates")
    r = math.isqrt(4 * n - 1)
    if n + 1 + r >= FACTOR_BOUND:
        raise ValueError(f"the Hasse window of N = {n} reaches 2^64")
    return n - r, n + 2 + r


def window_primes_in_class(n: int, m: int) -> list[int]:
    """Window primes of n that are 1 mod m, ascending; m = 1 gives them all.

    A fresh sieve each call.  A scan with more candidates than the whole
    window of ORDER_BOUND raises OverflowError before any candidate is tested.
    """
    return primes_in_ap(*_window_range(n, m), m)


def order_decomposition(n: int) -> list[tuple[int, int]]:
    """All shapes (m, k) with m^2 k = n, ascending in m."""
    return [(m, n // (m * m)) for m in square_divisors(n)]


def _order_routes(n: int) -> tuple[Fraction, Fraction, list[tuple[int, int, int]]]:
    """M(n) by window primes, M(n) by shapes, and the terms (m, k, 12 M(Z/m x Z/mk)).

    The window of the shape (1, n) is checked and its primes and d(p) read
    first and once, so its bounds refuse an n before any class number, and
    bound every other shape of n: its 12 H_r(d(p)) at r = 1 sum to M(n) by
    primes, and at r = n to the term at m = 1.  Every other term is the sum
    over its own window that m_of_group divides by 12.
    """
    require_int(n, 1, "order")
    ds = _trace_discriminants(1, n, _checked_window(1, n))
    by_primes = sum(class_number_twelfths_terms(ds, 1))
    terms = [(m, k, sum(class_number_twelfths_terms(ds, n) if m == 1 else
                        _window_twelfths(m, k, window_primes_in_class(n, m), k)))
             for m, k in order_decomposition(n)]
    return Fraction(by_primes, 12), Fraction(sum(t for _, _, t in terms), 12), terms


def m_of_order_routes(n: int) -> tuple[Fraction, Fraction]:
    """M(n) two ways: summed over window primes, and over group shapes."""
    return _order_routes(n)[:2]


def m_of_order_terms(n: int) -> tuple[Fraction, list[tuple[int, int, Fraction]]]:
    """M(n) and its shape terms (m, k, M(Z/m x Z/mk)), ascending in m.

    The terms must add up to the sum over window primes: ConsistencyError
    otherwise.
    """
    by_primes, by_shapes, terms = _order_routes(n)
    if by_primes != by_shapes:
        raise ConsistencyError(
            f"M({n}) routes disagree: {by_primes} by primes, {by_shapes} by shapes"
        )
    return by_primes, [(m, k, Fraction(t, 12)) for m, k, t in terms]


def m_of_order(n: int) -> Fraction:
    """M(n) = sum over shapes of M(Z/m x Z/mk); both routes must agree."""
    return m_of_order_terms(n)[0]


def _inclusion_exclusion(m: int, k: int, primes: list[int]) -> list[Fraction]:
    """Sum over r^2 | k of mu(r) M_p(m^2 k; rm) at each p of primes, window primes
    p = 1 (mod m) of m^2 k, unchecked: one window sum per level rm, over the p = 1 (mod rm)."""
    totals = dict.fromkeys(primes, 0)
    for r in square_divisors(k):
        if mu := mobius(r):
            nt = r * m
            level = [p for p in primes if p % nt == 1 % nt]
            for p, t in zip(level, _window_twelfths(nt, k // (r * r), level, 1)):
                totals[p] += mu * t
    return [Fraction(t, 12) for t in totals.values()]


def inclusion_exclusion_terms(m: int, k: int) -> list[tuple[int, Fraction]]:
    """The pairs (p, sum over r^2 | k of mu(r) M_p(N; rm)) over the primes of
    window_terms(m, k), after its checks, where M_p(N; t) counts the curves
    over F_p of order N = m^2 k with full t-torsion: M_p(G) by
    inclusion-exclusion over the torsion levels."""
    primes = _checked_window(m, k)
    return list(zip(primes, _inclusion_exclusion(m, k, primes)))


def _delta(m: int, k: int) -> float:
    """The kernel of delta_statistic and eta_statistic, unchecked."""
    n = m * m * k
    s = sum(math.sqrt(4 * n - (p - 1 - n) ** 2) for p in window_primes_in_class(n, m))
    return euler_phi(m) * math.log(2 * n) / n * s


def delta_statistic(m: int, k: int) -> float:
    """Normalized prime sum over the window for shape (m, k).

    (phi(m) log(2N) / N) * sum of sqrt(4N - (p-1-N)^2) over window primes
    p = 1 (mod m); the radicand equals (p - N^-)(N^+ - p) exactly.
    """
    require_shape(m, k)
    return _delta(m, k)


def eta_statistic(n: int) -> float:
    """Same normalized sum with every window prime counted: delta_statistic(1, n)."""
    require_int(n, 1, "order")
    return _delta(1, n)


# --- brute-force oracle ----------------------------------------------------


def _add(a1: int, a2: int, a3: int, a4: int, p: int, inv: list[int], pt1, pt2):
    """Chord-and-tangent sum on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p.

    None is the point at infinity and inv[v] is 1/v mod p; the scans bind the
    curve with functools.partial.  The law needs no a6, since
    y3 = lambda (x1 - x3) - y1 - a1 x3 - a3 (Silverman, AEC III.2.3).
    """
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2:
        # Q is P or -P = (x1, -y1 - a1 x1 - a3)
        s = a1 * x1 + a3
        if (y1 + y2 + s) % p == 0:
            return None
        lam = ((3 * x1 + 2 * a2) * x1 + a4 - a1 * y1) * inv[(2 * y1 + s) % p] % p
    else:
        lam = (y2 - y1) * inv[(x2 - x1) % p] % p
    x3 = (lam * (lam + a1) - a2 - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1 - a1 * x3 - a3) % p)


def _group_shape(points: list[tuple[int, int]], descent: list[int], add) -> GroupShape:
    """Shape (m, k) of the group of order n = len(points) + 1 = m^2 k, from its affine points.

    add(P, Q) is the curve's group law; None encodes the point at infinity.
    descent is the square divisors of n, descending.  The group Z/m x Z/mk has
    exponent mk = n/m, so (n/f) P = O at every point exactly when f | m, and m
    is itself a square divisor of n: the descent stops at f = m (Silverman,
    AEC III.6).
    """
    def mult(t: int, pt):
        acc = None
        while True:
            if t & 1:
                acc = add(acc, pt)
            t >>= 1
            if not t:
                return acc
            pt = add(pt, pt)

    n = len(points) + 1
    for f in descent:
        if f == 1 or all(mult(n // f, pt) is None for pt in points):
            return GroupShape(f, n // (f * f))


def _tally_large(p: int, inv: list[int], descents: dict[int, list[int]]) -> CurveTally:
    """Short Weierstrass scan for p > 3: y^2 = x^3 + ax + b, weight 1/(p-1).

    The first pair of each orbit {(u^4 a, u^6 b) : u in F_p*} met in the scan
    stands for the whole isomorphism class: its points are counted and its
    group shape found once, and the shape gains the orbit's size in pairs.
    """
    sqrt_of = [[] for _ in range(p)]
    for y in range(p):
        sqrt_of[y * y % p].append(y)
    counts: dict[GroupShape, int] = {}
    singular = 0
    cubes = [x * x * x % p for x in range(p)]
    scalings = {(pow(u, 4, p), pow(u, 6, p)) for u in range(1, p)}
    seen = bytearray(p * p)
    for a in range(p):
        add = functools.partial(_add, 0, 0, 0, a, p, inv)
        for b in range(p):
            if seen[a * p + b]:
                continue
            if (4 * a * a * a + 27 * b * b) % p == 0:
                singular += 1
                continue
            orbit = {s * a % p * p + t * b % p for s, t in scalings}
            for i in orbit:
                seen[i] = 1
            points = []
            for x in range(p):
                t = (cubes[x] + a * x + b) % p
                for y in sqrt_of[t]:
                    points.append((x, y))
            shape = _group_shape(points, descents[len(points) + 1], add)
            counts[shape] = counts.get(shape, 0) + len(orbit)
    return _tally(p, counts, p - 1, f"{singular} singular pairs")


def _tally_small(p: int, inv: list[int], descents: dict[int, list[int]]) -> CurveTally:
    """Full Weierstrass scan for p in {2, 3}, weight 1/((p-1) p^3)."""
    counts: dict[GroupShape, int] = {}
    nonsingular = 0
    for a1, a2, a3, a4, a6 in itertools.product(range(p), repeat=5):
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc % p == 0:
            continue
        nonsingular += 1
        points = [
            (x, y)
            for x in range(p)
            for y in range(p)
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0
        ]
        add = functools.partial(_add, a1, a2, a3, a4, p, inv)
        shape = _group_shape(points, descents[len(points) + 1], add)
        counts[shape] = counts.get(shape, 0) + 1
    return _tally(p, counts, (p - 1) * p**3, f"{nonsingular} nonsingular quintuples")


def _tally(p: int, counts: dict[GroupShape, int], scans_per_class: int,
           scanned: str) -> CurveTally:
    """Weights count / scans_per_class per shape, sorted, whose mass must be p
    and each of whose shapes (m, k) must have m | p - 1 (the Weil pairing).

    scans_per_class is the number of scanned equations a class of weight 1
    stands for; scanned says what the scan met, for the ConsistencyError.
    """
    entries = {s: Fraction(c, scans_per_class) for s, c in sorted(counts.items())}
    total = Fraction(sum(counts.values()), scans_per_class)
    if total != p:
        raise ConsistencyError(f"oracle mass {total} != {p} ({scanned})")
    for m, k in entries:
        if (p - 1) % m:
            raise ConsistencyError(f"oracle shape m={m} k={k} at p={p}: "
                                   f"m does not divide p - 1 = {p - 1}")
    return CurveTally(p, entries, total)


def brute_force_tally(p: int) -> CurveTally:
    """Exhaustive weighted census of elliptic curves over F_p (oracle).

    Every group order lies in the window of p, so the descent of each order,
    its square divisors from the largest down, is built once per prime.
    """
    require_prime(p)
    if p > ORACLE_PRIME_CAP:
        raise ValueError(f"oracle prime {p} exceeds the cap {ORACLE_PRIME_CAP}")
    inv = [0] + [pow(v, p - 2, p) for v in range(1, p)]
    lo, hi = _window_range(p, 1)
    descents = {n: square_divisors(n)[::-1] for n in range(lo + 1, hi)}
    return _tally_small(p, inv, descents) if p <= 3 else _tally_large(p, inv, descents)


def admissible_shapes(p: int) -> list[GroupShape]:
    """All shapes (m, k) a curve over F_p could realize, sorted: those with m | p - 1
    of the orders in the window of p."""
    lo, hi = _window_range(p, 1)
    return sorted(GroupShape(m, k) for n in range(lo + 1, hi)
                  for m, k in order_decomposition(n) if p % m == 1 % m)
