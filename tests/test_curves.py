import functools
import importlib.util
import itertools
import math
from fractions import Fraction

import pytest

from curvecensus import curves, matrixcounts, quadforms
from curvecensus.arith import is_prime, primes_in_ap, primes_up_to, square_divisors
from curvecensus.cli import main
from curvecensus.curves import (
    GroupShape,
    brute_force_tally,
    delta_statistic,
    eta_statistic,
    in_hasse_window,
    m_of_group,
    m_of_order,
    m_of_order_routes,
    m_p_of_group,
    window_primes_in_class,
)


def test_hasse_window_examples():
    assert window_primes_in_class(1, 1) == [2, 3]
    assert window_primes_in_class(4, 1) == [2, 3, 5, 7]
    assert window_primes_in_class(121, 1) == [101, 103, 107, 109, 113, 127, 131, 137, 139]
    window_primes_in_class(121, 1).append(0)
    assert window_primes_in_class(121, 1) == [101, 103, 107, 109, 113, 127, 131, 137, 139]


def test_hasse_window_membership_is_strict():
    for n in range(1, 400):
        primes = window_primes_in_class(n, 1)
        assert primes == sorted(primes)
        for p in primes:
            assert (p - 1 - n) ** 2 < 4 * n
        # no window prime escapes the scan
        for p in range(2, n + 2 * math.isqrt(n) + 4):
            if (p - 1 - n) ** 2 < 4 * n and is_prime(p):
                assert p in primes, (n, p)


def _window_primes_by_filter(n, m):
    # a sieve over a range that covers the window with room to spare, then a window test per prime
    lo, hi = n - 2 * math.isqrt(n) - 1, n + 3 + 2 * math.isqrt(n)
    return [p for p in primes_in_ap(lo, hi, m) if in_hasse_window(n, p)]


def test_window_bounds_hold_exactly_the_window():
    # at n = j^2 the integers with |p - 1 - n| = 2j sit just outside the window
    squares = {j * j + e for j in range(1, 201) for e in (-1, 0, 1)}
    for n in sorted(set(range(1, 3001)) | squares - {0}):
        for m in range(1, 13):
            assert window_primes_in_class(n, m) == _window_primes_by_filter(n, m), (n, m)


# d(p) has no exported entry: the kernel serves every window sum and is tested here


def test_trace_discriminant_examples():
    assert curves._trace_discriminants(1, 1, [2]) == [-4]
    assert curves._trace_discriminants(2, 1, [5]) == [-4]
    assert curves._trace_discriminants(1, 4, [3, 5, 7]) == [-12, -16, -12]
    # at the shape (nt, n/nt^2) it is ((p-1-n)^2 - 4n)/nt^2
    assert curves._trace_discriminants(2, 3, [7, 13, 19]) == [(p - 13) ** 2 // 4 - 12
                                                               for p in (7, 13, 19)]


def test_trace_discriminant_rejects():
    assert curves._window_test(2, 1, 2) == []  # 2 != 1 mod 2
    assert curves._window_test(1, 1, 11) == []  # outside the window of N=1
    assert curves._window_test(3, 1, 7) == [7]
    assert curves._window_test(1, 1, 1) == [1]  # the test reads the window, not primality


def test_trace_discriminant_is_discriminant():
    for m in range(1, 5):
        for k in range(1, 30):
            for d in curves._trace_discriminants(m, k, window_primes_in_class(m * m * k, m)):
                assert d < 0 and d % 4 in (0, 1), (m, k, d)


def test_each_window_and_level_makes_one_class_number_call(monkeypatch):
    calls = []
    real = curves.class_number_twelfths_terms
    monkeypatch.setattr(curves, "class_number_twelfths_terms",
                        lambda ds, k: calls.append(k) or real(ds, k))

    def calls_of(func, *args):
        calls.clear()
        func(*args)
        return list(calls)

    assert calls_of(m_of_group, 2, 3000) == [3000]
    assert calls_of(curves.window_terms, 2, 3000) == [3000]
    assert calls_of(m_p_of_group, 2, 3000, 11783) == [3000]
    # the window of (1, n) at r = 1 and at r = n, then one window per other shape
    assert calls_of(m_of_order_routes, 36) == [1, 36, 9, 4, 1]
    # one window per squarefree r with r^2 | k, each at r = 1
    for m, k in [(1, 1), (1, 16), (1, 36), (2, 72), (3, 2000), (1, 2310), (5, 72)]:
        levels = 2 ** sum(k % (q * q) == 0 for q in primes_up_to(math.isqrt(k)))
        assert calls_of(curves.inclusion_exclusion_terms, m, k) == [1] * levels, (m, k)


def test_m_p_of_group_examples():
    assert m_p_of_group(1, 1, 2) == Fraction(1, 4)
    assert m_p_of_group(1, 1, 3) == Fraction(1, 6)
    assert m_p_of_group(2, 1, 3) == Fraction(1, 6)
    assert m_p_of_group(1, 1, 11) == 0  # outside window
    assert m_p_of_group(3, 1, 7) == Fraction(1, 6)  # full 3-torsion over F_7
    assert m_p_of_group(3, 1, 19) == 0  # 19 = 1 mod 3 but outside window of 9
    assert m_p_of_group(2, 1, 2) == 0  # 2 != 1 mod 2


def test_m_of_group_examples():
    assert m_of_group(1, 1) == Fraction(5, 12)
    assert m_of_group(2, 1) == Fraction(7, 12)
    assert m_of_group(11, 1) == 0


def test_bad_shapes_are_refused_before_any_arithmetic():
    probes = [(m_of_group, (0, 1)), (delta_statistic, (0, 1)), (m_p_of_group, (0, 1, 5)),
              (curves.window_terms, (0, 1)), (curves.inclusion_exclusion_terms, (1, 0)),
              (m_of_group, (1, 0)), (m_of_group, (-1, 3))]
    for func, args in probes:
        with pytest.raises(ValueError, match=r"^invalid shape \(-?\d+, -?\d+\)$"):
            func(*args)
    # |GL2(Z/4)| is 96, not what the prime-power formula gives at l = 4
    with pytest.raises(ValueError, match="^4 is not prime$"):
        matrixcounts.gl2_order(4, 1)


def _admissible_shapes_by_filter(p):
    # the orders n near p that pass the window test of p as an order, then their shapes
    r = 2 * math.isqrt(p)
    return sorted(GroupShape(m, k) for n in range(max(1, p - r), p + 3 + r)
                  if in_hasse_window(n, p)
                  for m, k in curves.order_decomposition(n) if p % m == 1 % m)


def test_window_of_a_prime_holds_its_orders():
    # (p - 1 - n)^2 - 4n = (n - 1 - p)^2 - 4p: the window test is symmetric in n and p
    for n in range(1, 501):
        for p in range(1, 501):
            assert in_hasse_window(n, p) == in_hasse_window(p, n), (n, p)
    for p in primes_up_to(2000):
        assert curves.admissible_shapes(p) == _admissible_shapes_by_filter(p), p


def test_m_of_group_bound_guard():
    with pytest.raises(OverflowError):
        m_of_group(1, 2**41)


def test_m_of_group_is_the_sum_of_its_prime_terms():
    # the twelfths sum divides by 12 once; the per-prime terms are Fractions
    for m in range(1, 4):
        for k in range(1, 201):
            primes = window_primes_in_class(m * m * k, m)
            terms = [m_p_of_group(m, k, p) for p in primes]
            assert m_of_group(m, k) == sum(terms, Fraction(0)), (m, k)
            # the window forms give the per-prime values of both sides
            assert curves.window_terms(m, k) == list(zip(primes, terms)), (m, k)
            assert curves.inclusion_exclusion_terms(m, k) == list(zip(primes, terms)), (m, k)


def test_window_scan_bound(monkeypatch):
    # the whole window of ORDER_BOUND is the widest scan allowed
    lo, hi = curves.ORDER_BOUND - 2**21 - 1, curves.ORDER_BOUND + 2**21 + 3
    assert hi - lo == curves._MAX_WINDOW_SCAN

    def refuse(*args):
        raise AssertionError("a candidate was tested")

    monkeypatch.setattr(curves, "primes_in_ap", refuse)
    for n, m in [(2**41, 1), (10**14, 1), (10**14, 9)]:
        with pytest.raises(OverflowError):
            window_primes_in_class(n, m)
    with pytest.raises(OverflowError):
        m_of_order(2**41)
    with pytest.raises(OverflowError):
        eta_statistic(10**14)


def test_window_sums_check_both_bounds_before_scanning(monkeypatch):
    def refuse(*args):
        raise AssertionError("a candidate was tested")

    # (2^32 - 1)^2 is square, so its largest window integer is 2^64 - 1
    assert m_of_group(2**32 - 1, 1) == Fraction(1, 6)
    monkeypatch.setattr(curves, "primes_in_ap", refuse)
    # at k = 1 the windows of m = 2^32 and m ~ 10^30 reach 2^64, where is_prime is not proven
    for m in (2**32, 1000000000001040000000000037111):
        with pytest.raises(ValueError, match="reaches 2\\^64"):
            m_of_group(m, 1)
    # the window of 2^39 fits the scan bound, so the scan cap refuses it
    with pytest.raises(ValueError, match="scan cap"):
        m_of_group(1, 2**39)
    with pytest.raises(ValueError, match="scan cap"):
        m_of_order(2**39)
    # a window past the scan bound is refused first, as OverflowError
    with pytest.raises(OverflowError):
        m_of_group(1, 2**41)


def test_window_sums_refuse_the_scan_cap_up_front():
    k = (quadforms.CLASS_SCAN_CAP - 4) // 4  # the least k with 4k + 4 at the cap
    cached = set(quadforms._cache)
    with pytest.raises(ValueError, match="scan cap"):
        m_of_group(1, k)
    with pytest.raises(ValueError, match="scan cap"):
        m_of_order(k)
    assert set(quadforms._cache) == cached


def test_order_routes_read_each_window_once(monkeypatch):
    # 36 has the shapes (1, 36), (2, 9), (3, 4) and (6, 1): one sieve of each
    # window, the window of (1, 36) and its one d(p) list serving both the sum
    # over primes and the term at m = 1
    calls, d_lists = [], []
    real, real_ds = curves.primes_in_ap, curves._trace_discriminants
    monkeypatch.setattr(curves, "primes_in_ap",
                        lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(curves, "_trace_discriminants",
                        lambda m, k, primes: d_lists.append((m, k)) or real_ds(m, k, primes))
    by_primes, by_shapes = curves.m_of_order_routes(36)
    assert calls == [(*curves._window_range(36, m), m) for m in (1, 2, 3, 6)]
    assert d_lists == [(1, 36), (2, 9), (3, 4), (6, 1)]
    assert by_primes == by_shapes


def _m_p_of_order(n, nt, p):
    # M_p(n; nt), the curves over F_p of order n with full nt-torsion: the shapes
    # Z/m x Z/mk of order n with nt | m
    return sum((m_p_of_group(m, k, p) for m, k in curves.order_decomposition(n) if m % nt == 0),
               Fraction(0))


def test_m_p_of_order_examples():
    # M_3(4; 1) = M_3(G_{1,4}) + M_3(G_{2,1}) = 1/2 + 1/6
    assert _m_p_of_order(4, 1, 3) == Fraction(2, 3)
    assert _m_p_of_order(4, 2, 3) == Fraction(1, 6)
    assert _m_p_of_order(4, 1, 11) == 0


def test_m_of_order_examples():
    assert m_of_order(4) == Fraction(31, 12)
    assert m_of_order(1) == Fraction(5, 12)
    assert m_of_order(2) == Fraction(5, 4)


def test_m_of_order_routes_agree_small():
    for n in range(1, 301):
        a, b = m_of_order_routes(n)
        assert a == b, n


def test_m_of_order_routes_match_the_fraction_sum():
    # both integer-twelfths routes against a sum of per-prime Fractions
    for n in range(1, 401):
        want = sum((_m_p_of_order(n, 1, p) for p in _window_primes_by_filter(n, 1)), Fraction(0))
        assert m_of_order_routes(n) == (want, want), n


def test_shape_route_sums_the_window_of_each_shape(monkeypatch):
    # the routes check the values mg prints: each shape term comes from the
    # primes 1 mod m of its own window, not from a rearranged window of n
    asked = []
    real = curves.primes_in_ap
    monkeypatch.setattr(curves, "primes_in_ap", lambda *args: asked.append(args) or real(*args))
    for n in (1, 36, 1000, 4900):
        asked.clear()
        m_of_order_routes(n)
        assert sorted(set(asked)) == [(*curves._window_range(n, m), m)
                                      for m, _ in curves.order_decomposition(n)], n


def test_window_sums_bound_each_window_once(monkeypatch):
    # the checks and the sieve of a window sum read one pair of bounds
    calls = []
    real = curves._window_range
    monkeypatch.setattr(curves, "_window_range", lambda n, m: calls.append((n, m)) or real(n, m))
    for f, (m, k) in ((m_of_group, (2, 1009)), (curves.window_terms, (3, 1013)),
                      (curves.inclusion_exclusion_terms, (1, 10007))):
        calls.clear()
        f(m, k)
        assert calls == [(m * m * k, m)], f.__name__


def test_inclusion_exclusion_examples():
    assert dict(curves.inclusion_exclusion_terms(1, 4))[3] == Fraction(1, 2)
    assert m_p_of_group(1, 4, 3) == Fraction(1, 2)
    assert dict(curves.inclusion_exclusion_terms(2, 1))[5] == Fraction(1, 4)
    assert dict(curves.inclusion_exclusion_terms(1, 1))[2] == Fraction(1, 4)


def test_inclusion_exclusion_matches_group_count():
    # the (m, k, p) of every window prime p of every shape (m, k) of n <= 2000
    for n in range(1, 2001):
        for m, k in curves.order_decomposition(n):
            assert curves.inclusion_exclusion_terms(m, k) == curves.window_terms(m, k), (m, k)


def test_lower_bound_from_level_one():
    # the f=1 level alone already contributes h/w
    for m, k, p in [(1, 5, 5), (2, 3, 13), (1, 12, 11), (3, 2, 19)]:
        d, = curves._trace_discriminants(m, k, curves._window_test(m, k, p))
        # h/w = H_|d|(d)
        assert m_p_of_group(m, k, p) >= Fraction(quadforms.class_number_twelfths(d, -d), 12)


def test_delta_examples():
    assert abs(delta_statistic(1, 1) - math.log(2) * (2 + math.sqrt(3))) < 1e-12
    assert delta_statistic(11, 1) == 0
    want = math.log(8) / 4 * (math.sqrt(12) + 4 + math.sqrt(12))
    assert abs(delta_statistic(2, 1) - want) < 1e-12


def test_eta_examples():
    assert abs(eta_statistic(1) - math.log(2) * (2 + math.sqrt(3))) < 1e-12
    want = math.log(8) / 4 * (math.sqrt(7) + math.sqrt(12) + 4 + math.sqrt(12))
    assert abs(eta_statistic(4) - want) < 1e-12


def test_eta_empty_window(monkeypatch):
    # no desk-scale order has a prime-free Hasse window; force one
    monkeypatch.setattr(curves, "window_primes_in_class", lambda n, m: [])
    assert eta_statistic(10) == 0.0


def test_oracle_spot_values():
    t2 = brute_force_tally(2)
    assert t2.entries[GroupShape(1, 1)] == Fraction(1, 4)
    t5 = brute_force_tally(5)
    assert t5.entries[GroupShape(1, 6)] == 1
    t7 = brute_force_tally(7)
    assert t7.entries[GroupShape(2, 1)] == Fraction(1, 6)


def test_oracle_rejects_large_prime_and_composite():
    assert curves.ORACLE_PRIME_CAP == 127
    with pytest.raises(ValueError):
        brute_force_tally(131)
    with pytest.raises(ValueError):
        brute_force_tally(15)


def test_oracle_tally_invariants(oracle_tallies):
    for p, tally in oracle_tallies.items():
        assert tally.total == sum(tally.entries.values(), Fraction(0))
        # every curve over F_p has mass contribution; total equals the
        # direct equation count divided by the transformation-group order
        assert tally.total == p
        for (m, k), v in tally.entries.items():
            assert v > 0
            assert (p - 1) % m == 0
            assert (p - 1 - m * m * k) ** 2 < 4 * m * m * k


def test_oracle_mass_check_names_the_mass_and_the_prime():
    with pytest.raises(curves.ConsistencyError, match=r"oracle mass 3/4 != 5 \(3 pairs\)"):
        curves._tally(5, {GroupShape(1, 5): 3}, 4, "3 pairs")


def test_consistency_error_lives_in_curves():
    import curvecensus

    assert curvecensus.ConsistencyError is curves.ConsistencyError
    assert issubclass(curves.ConsistencyError, ArithmeticError)
    assert importlib.util.find_spec("curvecensus.errors") is None


def _per_pair_tally(p):
    """One group law per nonsingular pair (a, b), each weighted 1/(p - 1)."""
    counts = {}
    for a in range(p):
        def add(pt1, pt2):
            if pt1 is None:
                return pt2
            if pt2 is None:
                return pt1
            (x1, y1), (x2, y2) = pt1, pt2
            if x1 == x2 and (y1 + y2) % p == 0:
                return None
            if pt1 == pt2:
                lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
            else:
                lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
            x3 = (lam * lam - x1 - x2) % p
            return (x3, (lam * (x1 - x3) - y1) % p)

        for b in range(p):
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            points = [(x, y) for x in range(p) for y in range(p)
                      if (y * y - x**3 - a * x - b) % p == 0]
            shape = curves._group_shape(points, square_divisors(len(points) + 1)[::-1], add)
            counts[shape] = counts.get(shape, 0) + 1
    return {s: Fraction(c, p - 1) for s, c in counts.items()}


def _check_group_law(p, a1, a2, a3, a4, a6):
    """Identity, inverse, closure, commutativity and associativity of curves._add."""
    inv = [0] + [pow(v, -1, p) for v in range(1, p)]
    points = [None] + [(x, y) for x in range(p) for y in range(p)
                       if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0]
    index = {pt: i for i, pt in enumerate(points)}
    # the sum table; a sum off the curve is a KeyError
    table = [[index[curves._add(a1, a2, a3, a4, p, inv, pt1, pt2)] for pt2 in points]
             for pt1 in points]
    curve = (p, a1, a2, a3, a4, a6)
    for i, pt in enumerate(points):
        assert table[0][i] == table[i][0] == i, curve
        if pt is not None:
            x, y = pt
            assert table[i][index[(x, (-y - a1 * x - a3) % p)]] == 0, (curve, pt)
    n = len(points)
    for i in range(n):
        row = table[i]
        for j in range(n):
            assert row[j] == table[j][i], (curve, i, j)
            for k in range(n):
                assert table[row[j]][k] == row[table[j][k]], (curve, i, j, k)


def _nonsingular_curves(p):
    """Every nonsingular (a1, a2, a3, a4, a6) over F_p for p <= 3, and (0, 0, 0, a, b) above."""
    if p > 3:
        return [(0, 0, 0, a, b) for a, b in itertools.product(range(p), repeat=2)
                if (4 * a**3 + 27 * b * b) % p]
    out = []
    for a1, a2, a3, a4, a6 in itertools.product(range(p), repeat=5):
        b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        if (-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % p:
            out.append((a1, a2, a3, a4, a6))
    return out


def test_group_law_axioms_on_small_curves():
    for p in (2, 3, 5, 7):
        for curve in _nonsingular_curves(p):
            _check_group_law(p, *curve)


def test_orbit_tally_equals_per_pair_scan(oracle_tallies):
    for p in primes_up_to(31)[2:]:
        assert oracle_tallies[p].entries == _per_pair_tally(p), p


def _point_orders_shape(points, add):
    """(n / lam, lam^2 / n), lam the lcm of the point orders found by repeated addition."""
    lam = 1
    for pt in points:
        q, order = pt, 1
        while q is not None:
            q, order = add(q, pt), order + 1
        lam = math.lcm(lam, order)
    n = len(points) + 1
    return (n // lam, lam * lam // n)


def test_group_shape_matches_the_lcm_of_point_orders():
    for p in (2, 3, 5, 7, 11, 13):
        inv = [0] + [pow(v, -1, p) for v in range(1, p)]
        scanned = _nonsingular_curves(p)
        assert len(scanned) == (p - 1) * p ** (4 if p <= 3 else 1), p
        for a1, a2, a3, a4, a6 in scanned:
            points = [(x, y) for x in range(p) for y in range(p)
                      if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0]
            add = functools.partial(curves._add, a1, a2, a3, a4, p, inv)
            want = _point_orders_shape(points, add)
            descent = square_divisors(len(points) + 1)[::-1]
            assert curves._group_shape(points, descent, add) == want, (p, a1, a2, a3, a4, a6)


def test_oracle_refuses_a_shape_with_m_not_dividing_p_minus_1(monkeypatch, capsys):
    monkeypatch.setattr(curves, "_group_shape", lambda *args: GroupShape(3, 1))
    with pytest.raises(curves.ConsistencyError, match=r"m=3 k=1 at p=5: m does not divide p - 1 = 4"):
        brute_force_tally(5)
    assert main(["verify", "oracle", "--pmax", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_oracle_runs_one_group_law_per_isomorphism_class(monkeypatch):
    # F_p has 2p + 6, 2p + 2, 2p + 4 or 2p classes for p = 1, 5, 7, 11 mod 12
    calls = []
    real = curves._group_shape
    monkeypatch.setattr(curves, "_group_shape", lambda *args: calls.append(1) or real(*args))
    for p in (5, 7, 11, 13, 127):
        calls.clear()
        brute_force_tally(p)
        assert len(calls) == 2 * p + {1: 6, 5: 2, 7: 4, 11: 0}[p % 12], p

