import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvecensus import curves, quadforms
from curvecensus.quadforms import (
    class_number_twelfths,
    class_number_twelfths_terms,
    kronecker_class_number_weighted,
)
from oracles import l_value_exact, l_value_series


def _units(d):
    return {-3: 6, -4: 4}.get(d, 2)


def _reduce_form(a, b, c, d):
    """Gauss reduction to the canonical reduced representative."""
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            t = (b + a) // (2 * a) if b > 0 else -((-b + a) // (2 * a))
            b2 = b - 2 * a * t
            c = (b2 * b2 - d) // (4 * a)
            b = b2
            continue
        if a == c and b < 0:
            b = -b
            continue
        return (a, b, c)


def _class_number_oracle(d):
    """Count SL2(Z)-classes of primitive forms by reducing every candidate."""
    reps = set()
    bound = math.isqrt(-d // 3) + 2
    for a in range(1, bound + 1):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            reps.add(_reduce_form(a, b, c, d))
    return len(reps)


def test_class_data_examples():
    # h/w = H_|d|(d): h(-3) = 1, w = 6; h(-4) = 1, w = 4; h(-23) = 3, w = 2
    assert class_number_twelfths(-3, 3) == 2
    assert class_number_twelfths(-4, 4) == 3
    assert class_number_twelfths(-23, 23) == 18


def test_class_data_rejects_non_discriminants():
    for bad in (0, 5, -1, -2, -5, -6, -10):
        with pytest.raises(ValueError):
            class_number_twelfths(bad, 1)


def test_class_data_refuses_the_scan_cap():
    for d in (-quadforms.CLASS_SCAN_CAP, -(10**15)):
        with pytest.raises(ValueError, match="cap"):
            class_number_twelfths(d, -d)
        assert d not in quadforms._cache


def test_class_number_against_reduction_oracle():
    for d in range(-200, 0):
        if d % 4 in (0, 1):
            assert class_number_twelfths(d, -d) * _units(d) == 12 * _class_number_oracle(d), d


def test_class_number_matches_reduced_form_count():
    # the count from roots mod 4a against the primitive forms of the plain walk by a and b
    for d in range(-2000, 0):
        if d % 4 not in (0, 1):
            continue
        h = sum(
            1
            for a, b, c in quadforms.reduced_forms(d)
            if math.gcd(math.gcd(a, b), c) == 1
        )
        assert class_number_twelfths(d, -d) * _units(d) == 12 * h, d


def _check_against_walk(d, ks):
    # class_number_twelfths against the reduced forms of the walk by a and b
    primitive = sum(1 for a, b, c in quadforms.reduced_forms(d) if math.gcd(a, b, c) == 1)
    assert class_number_twelfths(d, -d) * _units(d) == 12 * primitive, d
    for k in ks:
        assert class_number_twelfths(d, k) == 12 * kronecker_class_number_weighted(d, k), (d, k)


def test_square_multiples_of_minus_3_and_minus_4():
    # d = -3f^2 and -4f^2 hold the forms f(x^2 + xy + y^2) and f(x^2 + y^2) of weight 1/6
    # and 1/4; k = f restricts to the levels coprime to f
    for f in range(1, 201):
        for d in (-3 * f * f, -4 * f * f):
            _check_against_walk(d, (1, f))


def test_band_edges():
    # |d| = 4a^2 ends the leading coefficients with 4a^2 <= |d| at a, with the form
    # (a, 0, a); 4a^2 + 3 puts a + 1 first in the band; 3a^2 ends the band at (a, a, a)
    for a in [*range(1, 41), 97, 250, 700]:
        for n in (4 * a * a, 4 * a * a + 3, 3 * a * a):
            _check_against_walk(-n, (1, 6))


def test_seeded_discriminants_up_to_4_million():
    # |d| = f^2 |d0| about log-uniform in [10^5, 4*10^6]; f shares primes with some k
    rng = random.Random(20141)
    ks = (1, 2, 6, 35)
    for i in range(40):
        f = rng.choice((1, 2, 3, 5, 6, 7, 10, 35))
        lo, hi = math.log(10**5 / f**2), math.log(4 * 10**6 / f**2)
        n0 = round(math.exp(rng.uniform(lo, hi)))
        n0 += (-n0) % 4 if rng.random() < 0.5 else (3 - n0) % 4
        _check_against_walk(-f * f * n0, (ks[i % 4],))


def test_kronecker_class_number_examples():
    # H(d) = H_1(d): 1/4, 2/3, 3/4, 1/2 and 1
    assert class_number_twelfths(-4, 1) == 3
    assert class_number_twelfths(-12, 1) == 8
    assert class_number_twelfths(-16, 1) == 9
    assert class_number_twelfths(-7, 1) == 6
    assert class_number_twelfths(-20, 1) == 12


def test_restricted_examples():
    # H_2(-16) = 1/2 and H_3(-12) = 2/3
    assert class_number_twelfths(-16, 2) == 6
    assert class_number_twelfths(-12, 3) == 8


def test_restriction_at_one_is_unrestricted():
    # 12 H_1(d) sums 12 h/w = 12 H_|d0|(d0) over every level d0 = d/f^2
    for d in range(-(10**4), 0):
        if d % 4 not in (0, 1):
            continue
        levels = [d // (f * f) for f in range(1, math.isqrt(-d) + 1) if d % (f * f) == 0]
        assert class_number_twelfths(d, 1) == sum(
            class_number_twelfths(d0, -d0) for d0 in levels if d0 % 4 in (0, 1)), d


def test_weighted_enumeration_agrees_with_level_sum():
    # H_k(d) is the sum of h/w = H_|d0|(d0) over the levels d0 = d/f^2 with gcd(f, k) = 1
    for d in range(-5000, 0):
        if d % 4 not in (0, 1):
            continue
        levels = [(f, d // (f * f)) for f in range(1, math.isqrt(-d) + 1) if d % (f * f) == 0]
        for k in range(1, 13):
            level_sum = sum(class_number_twelfths(d0, -d0) for f, d0 in levels
                            if d0 % 4 in (0, 1) and math.gcd(f, k) == 1)
            assert 12 * kronecker_class_number_weighted(d, k) == level_sum, (d, k)


def test_twelfths_match_the_weighted_walk():
    # reduced_forms is an independent route to the same integer 12 H_k(d)
    for d in range(-3000, 0):
        if d % 4 not in (0, 1):
            continue
        for k in (1, 2, 3, 4, 6, 12, 35):
            twelfths = class_number_twelfths(d, k)
            assert type(twelfths) is int
            assert twelfths == 12 * kronecker_class_number_weighted(d, k), (d, k)


def test_twelfths_with_many_primes_in_the_restriction():
    # gcd(k, d) with up to four primes, each k met at many d, so its primes repeat
    for d in range(-3, -501, -1):
        if d % 4 not in (0, 1):
            continue
        for k in (30, 60, 210, 420, 864):
            assert class_number_twelfths(d, k) == 12 * kronecker_class_number_weighted(d, k), (d, k)


def _window_discriminants(m, k):
    return curves._trace_discriminants(m, k, curves.window_primes_in_class(m * m * k, m))


def test_twelfths_terms_match_the_weighted_walk_over_windows():
    # window lists where k shares a square with d: k even with d = 0 mod 4, and
    # k divisible by the square of an odd q
    cases = [(1, k) for k in (1, 2, 4, 8, 12, 16, 18, 36, 45, 50, 72, 75, 98, 99, 100, 225)]
    cases += [(m, k) for m in (2, 3, 5) for k in (1, 2, 4, 9, 12, 25, 36)]
    for m, k in cases:
        ds = _window_discriminants(m, k)
        assert any(math.gcd(d, k) > 1 for d in ds) or k == 1
        for r in (k, 1, 3, 4, 9, 2 * k):
            want = [12 * kronecker_class_number_weighted(d, r) for d in ds]
            assert class_number_twelfths_terms(ds, r) == want, (m, k, r)
    # the shared squares the cases above must meet
    assert any(d % 4 == 0 for d in _window_discriminants(1, 16))
    assert any(d % 9 == 0 for d in _window_discriminants(1, 45))
    assert class_number_twelfths_terms([], 5) == []
    ds = _window_discriminants(1, 36)
    terms = class_number_twelfths_terms(ds, 36)
    assert class_number_twelfths_terms(iter(ds), 36) == terms and sum(terms) > 0


@st.composite
def _twelfths_lists(draw):
    """(ds, k, warm): k with two or three primes, discriminants |d| <= 2000 whose
    square part shares them, some listed twice, and the d to memoize first."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=3, unique=True))
    k = math.prod(primes) * draw(st.sampled_from((1, 1, 2, 3)))
    squares = sorted({g for g in (1, *primes, *(p * q for p in primes for q in primes))
                      if 3 * g * g <= 2000})
    ds = []
    for g in draw(st.lists(st.sampled_from(squares), max_size=6)):
        n0 = draw(st.integers(3, 2000 // (g * g)).filter(lambda n: n % 4 in (0, 3)))
        ds.append(-g * g * n0)
    if ds:
        ds += draw(st.lists(st.sampled_from(ds), max_size=3))  # repeated d
        ds = draw(st.permutations(ds))
    warm = draw(st.lists(st.sampled_from(ds), max_size=3)) if ds else []
    return ds, k, warm


# the fixture's memo belongs to this test, so each example empties it
@settings(derandomize=True, max_examples=150, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_twelfths_lists())
def test_twelfths_terms_are_the_one_element_calls(cold_memo, case):
    ds, k, warm = case
    quadforms._cache.clear()
    # memo hits and misses in one list
    for d in warm:
        class_number_twelfths(d, 1)
    terms = class_number_twelfths_terms(ds, k)
    assert terms == [12 * kronecker_class_number_weighted(d, k) for d in ds], (ds, k)
    assert terms == [class_number_twelfths(d, k) for d in ds], (ds, k)
    assert all(type(t) is int for t in terms)


def test_twelfths_terms_check_the_whole_list_first(cold_memo):
    for ds, k, message in [([-3, -5, -4], 1, "not a negative discriminant"),
                           ([-3, 4], 1, "not a negative discriminant"),
                           ([-4, -3], 0, "restriction parameter must be >= 1, got 0"),
                           ([-3, -quadforms.CLASS_SCAN_CAP, -7], 1, "reaches the cap"),
                           ([-quadforms.CLASS_SCAN_CAP, -5], 1, "reaches the cap"),
                           ([], 0, "restriction parameter must be >= 1, got 0")]:
        with pytest.raises(ValueError, match=message):
            class_number_twelfths_terms(ds, k)
        assert quadforms._cache == {}, ds
    # the first bad d names the error, as class_number_twelfths(d, k) would
    with pytest.raises(ValueError, match="-5 is not"):
        class_number_twelfths_terms([-4, -5, -2**30], 1)
    # memo hits need no check, but a bad d after them is still refused
    assert class_number_twelfths_terms([-3, -4], 1) == [2, 3]
    for ds, k, message in [([-3, -4, -5], 1, "-5 is not"), ([-3, -4], 0, "got 0"),
                           ([-4, -3, -quadforms.CLASS_SCAN_CAP], 2, "reaches the cap")]:
        with pytest.raises(ValueError, match=message):
            class_number_twelfths_terms(ds, k)
    assert set(quadforms._cache) == {-3, -4}


def test_table_matches_both_routes(monkeypatch, cold_memo):
    # one walk over the reduced forms against the per-discriminant count and the
    # weighted walk; the d = -3f^2 and -4f^2 entries carry the forms of weight 1/6, 1/4
    ds = [d for d in range(-3, -20001, -1) if d % 4 in (0, 1)]
    per_d = {d: quadforms._twelfths(d) for d in ds}
    quadforms._cache.clear()
    quadforms.tabulate_twelfths(20000)
    assert quadforms._cache == per_d
    for d in ds[:ds.index(-1000) + 1]:
        assert quadforms._cache[d] == 12 * kronecker_class_number_weighted(d, 1), d
    quadforms._cache.clear()
    quadforms.tabulate_twelfths(3)
    assert quadforms._cache == {-3: 2}
    with pytest.raises(ValueError, match="table bound must be >= 1, got 0"):
        quadforms.tabulate_twelfths(0)
    # the cap bounds the table before it is built
    monkeypatch.setattr(quadforms, "TABLE_CAP", 100)
    quadforms.tabulate_twelfths(10**12)
    assert quadforms._cache == {d: t for d, t in per_d.items() if d >= -100}


def test_twelfths_reject_bad_input():
    with pytest.raises(ValueError):
        class_number_twelfths(-5, 1)
    with pytest.raises(ValueError):
        class_number_twelfths(-4, 0)


def test_values_are_nonnegative_with_denominator_dividing_12():
    for d in range(-600, 0):
        if d % 4 not in (0, 1):
            continue
        for k in (1, 2, 3, 5, 12):
            # H_k(d) has a denominator dividing 12 exactly when 12 H_k(d) is an integer
            v = class_number_twelfths(d, k)
            assert type(v) is int and v >= 0


def test_l_value_exact_examples():
    assert abs(l_value_exact(-4) - math.pi / 4) < 1e-15
    assert abs(l_value_exact(-3) - math.pi / (3 * math.sqrt(3))) < 1e-15
    assert abs(l_value_exact(-23) - 2 * math.pi * 3 / (2 * math.sqrt(23))) < 1e-12


def test_l_value_series_close_to_exact():
    for d in (-4, -3, -23, -163, -48):
        value, tail = l_value_series(d, 10**6)
        assert abs(value - l_value_exact(d)) <= tail, d
    # the Leibniz partial sum tail at 10^6 is tiny
    value, tail = l_value_series(-4, 10**6)
    assert abs(value - math.pi / 4) < 5e-6
    assert tail < 1e-5


def test_l_value_series_rejects_small_cutoff():
    with pytest.raises(ValueError):
        l_value_series(-23, 10)


def test_l_value_series_consistency_small_range():
    for d in range(-200, 0):
        if d % 4 not in (0, 1):
            continue
        value, tail = l_value_series(d, 10**5)
        assert abs(value - l_value_exact(d)) <= tail, d
