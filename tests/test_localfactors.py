import functools
import math
import random
from fractions import Fraction

import pytest

from curvecensus import localfactors as lf
from curvecensus.arith import factorize, mobius, primes_up_to


def test_aut_order_examples():
    assert lf.aut_order(1, 5) == 4  # cyclic: phi(k)
    assert lf.aut_order(1, 12) == 4
    assert lf.aut_order(2, 1) == 6  # Aut(Z/2 x Z/2) = S3
    assert lf.aut_order(2, 2) == 8
    assert lf.aut_order(3, 1) == 48  # GL2(F_3)


def test_aut_order_always_integral():
    for m in range(1, 25):
        for k in range(1, 25):
            a = lf.aut_order(m, k)
            assert a >= 1
            # inversion is a nontrivial automorphism once the exponent exceeds 2
            if m * k > 2:
                assert a % 2 == 0


def _aut_order_by_count(m, k):
    """#Aut(Z/m x Z/mk): pairs (x, y) of images of the generators (1, 0) and (0, 1),
    of orders dividing m and mk, that generate the whole group."""
    mk, size = m * k, m * m * k
    elements = [(a, b) for a in range(m) for b in range(mk)]
    first = [(a, b) for a, b in elements if (m * b) % mk == 0]  # m x = 0
    count = 0
    for xa, xb in first:
        for ya, yb in elements:
            span = {((i * xa + j * ya) % m, (i * xb + j * yb) % mk)
                    for i in range(m) for j in range(mk)}
            count += len(span) == size
    return count


def test_aut_order_matches_brute_count():
    shapes = [(m, k) for m in range(1, 9) for k in range(1, 65) if m * m * k <= 64]
    assert len(shapes) == 96
    for m, k in shapes:
        assert lf.aut_order(m, k) == _aut_order_by_count(m, k), (m, k)


def test_shape_factor_branches():
    assert lf.group_factor(1, 7, 3) == Fraction(15, 16)  # N=7: 3 | N-1
    assert lf.group_factor(1, 5, 3) == Fraction(3, 4)  # 3 coprime to N(N-1)
    assert lf.group_factor(2, 1, 2) == Fraction(3, 4)  # 2 | m
    assert lf.group_factor(1, 6, 3) == Fraction(5, 6)  # 3 | k, 3 nmid m
    assert lf.group_factor(6, 2, 3) == Fraction(8, 9)  # 3 | m


def test_order_factor_branches():
    assert lf.order_factor(4, 2) == Fraction(3, 4)
    assert lf.order_factor(3, 3) == Fraction(5, 6)
    assert lf.order_factor(1, 5) == Fraction(95, 96)
    assert lf.order_factor(8, 2) == Fraction(7, 8)


def test_truncated_tables():
    # the constants are one float each, with no cutoff to choose
    assert isinstance(lf.k_of_group(1, 1), float)
    assert lf.k_of_group(1, 1) == lf.k_of_order(1) == lf.A
    assert lf.k_of_group(1, 7) == lf.k_of_order(7)  # the cyclic shape of a squarefree order
    assert all(lf.group_factor(1, 1, ell) > 0 for ell in primes_up_to(1000))
    assert lf.order_factor(4, 2) == Fraction(3, 4)
    with pytest.raises(TypeError):
        lf.k_of_group(1, 1, 1000)
    with pytest.raises(ValueError):
        lf.k_of_group(0, 1)
    with pytest.raises(ValueError):
        lf.k_of_order(0)


@functools.lru_cache(maxsize=None)
def _primes(cutoff):
    return primes_up_to(cutoff)


def _eager_product(factor_at, n, cutoff):
    """The truncated product the slow way: one exact factor per prime, in order,
    over the primes up to the cutoff and the primes of n above it."""
    ells = sorted({ell for ell, _ in factorize(n).factors} | set(_primes(cutoff)))
    value = 1.0
    for ell in ells:
        f = factor_at(ell)
        value *= f.numerator / f.denominator
    return value


def _within_tail_bound(closed, truncated, cutoff):
    # every omitted factor has |log f(l)| <= 4/l^2, and the sum of 1/l^2 over l > z is below 1/z
    return abs(closed - truncated) <= abs(truncated) * (math.exp(4 / cutoff) - 1)


def _shape_within_tail_bound(m, k, cutoff):
    truncated = _eager_product(lambda ell: lf.group_factor(m, k, ell), m * m * k, cutoff)
    return _within_tail_bound(lf.k_of_group(m, k), truncated, cutoff)


def _order_within_tail_bound(n, cutoff):
    truncated = _eager_product(lambda ell: lf.order_factor(n, ell), n, cutoff)
    return _within_tail_bound(lf.k_of_order(n), truncated, cutoff)


# the closed form C2 * R against the truncated product, at two cutoffs
@pytest.mark.parametrize(
    "m, k", [(1, 1), (1, 2), (2, 1), (1, 1009), (3, 2003), (1, 2310 + 1), (2, 7), (6, 35)]
)
def test_shape_product_bit_identical_to_eager_route(m, k):
    for cutoff in (10**3, 10**4):
        assert _shape_within_tail_bound(m, k, cutoff), cutoff


# 1010: the prime 1009 divides only N - 1, so it stays out of the truncated product
@pytest.mark.parametrize(
    "n", [1, 2, 4, 1009, 1010, 2 * 2003, 2 * 3 * 5 * 7 * 11 + 1, 720, 10**9 + 7]
)
def test_order_product_bit_identical_to_eager_route(n):
    for cutoff in (10**3, 10**4):
        assert _order_within_tail_bound(n, cutoff), cutoff


def test_closed_form_within_the_tail_bound_of_each_cutoff():
    # the first two of each also run at cutoff 10^6; sizes are log-uniform
    rng = random.Random(0)
    shapes = [(3, 2003), (6, 35), (1, 1)]
    shapes += [(rng.randint(1, 30), round(10 ** rng.uniform(0, 6))) for _ in range(997)]
    orders = [1010, 10**9 + 7, 1, 2, 4, 1009]
    orders += [round(10 ** rng.uniform(0, 12)) for _ in range(994)]
    for cutoff, count in ((10**3, 1000), (10**4, 100), (10**5, 10), (10**6, 2)):
        for m, k in shapes[:count]:
            assert _shape_within_tail_bound(m, k, cutoff), (m, k, cutoff)
        for n in orders[:count]:
            assert _order_within_tail_bound(n, cutoff), (n, cutoff)


def test_generic_factor_is_the_twin_prime_factor():
    # at an odd l dividing neither N nor N - 1 both factors are 1 - 1/(l-1)^2 exactly
    rng = random.Random(1)
    shapes = [(1, 1), (2, 3), (6, 35), (3, 2003)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 10**6)) for _ in range(8)]
    orders = [2, 4, 1009, 1010, 10**9 + 7] + [rng.randint(2, 10**12) for _ in range(8)]
    for ell in primes_up_to(10**4)[1:]:
        generic = 1 - Fraction(1, (ell - 1) ** 2)
        for m, k in shapes:
            n = m * m * k
            if n * (n - 1) % ell:
                assert lf.group_factor(m, k, ell) == generic, (m, k, ell)
        for n in orders:
            if n * (n - 1) % ell:
                assert lf.order_factor(n, ell) == generic, (n, ell)


# Bernoulli numbers B_2j / (2j)! for j = 1 .. 7
_BERNOULLI_OVER_FACTORIAL = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                             -691 / 1307674368000, 1 / 74724249600)


def _log_zeta(s):
    """log zeta(s) for real s >= 2, by Euler-Maclaurin from N = 10 (error below 1e-16)."""
    big_n = 10
    terms = [j ** -s for j in range(1, big_n)]
    terms += [big_n ** (1 - s) / (s - 1), big_n ** -s / 2]
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j, b in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        terms.append(b * rising * big_n ** (1 - s - 2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.log(math.fsum(terms))


def _prime_zeta_tail(s, small):
    """Sum of p^-s over the primes p above those in `small`, by Moebius inversion:
    sum over j of mu(j)/j log zeta_small(js), zeta_small(s) = zeta(s) prod (1 - p^-s)."""
    total = []
    for j in range(1, 12):
        mu = mobius(j)
        if mu:
            log_zeta = math.fsum([_log_zeta(j * s)] + [math.log1p(-p ** -(j * s)) for p in small])
            total.append(mu * log_zeta / j)
    return math.fsum(total)


def test_constants_recomputed():
    # C2: log(1 - 1/(p-1)^2) = -sum over n >= 2 of (2^n - 2)/(n p^n); the primes
    # up to 1000 directly, those above through prime zeta values
    small = primes_up_to(1000)
    logs = [math.log1p(-1 / (p - 1) ** 2) for p in small[1:]]
    logs += [-(2**n - 2) / n * _prime_zeta_tail(n, small) for n in range(2, 9)]
    assert abs(math.exp(math.fsum(logs)) - lf.C2) <= 1e-13 * lf.C2
    # A: the direct product up to 10^6, whose tail is below 4e-14
    logs = [math.log1p(-1 / ((p - 1) ** 2 * (p + 1))) for p in _primes(10**6)]
    assert abs(math.exp(math.fsum(logs)) - lf.A) <= 1e-13 * lf.A


def test_tail_bound_brackets_refinement():
    # the oracle's own bound: refining the cutoff moves the product by less than it
    for m, k in [(1, 1), (2, 3), (5, 4), (1, 30), (6, 6)]:
        coarse = _eager_product(lambda ell: lf.group_factor(m, k, ell), m * m * k, 1000)
        fine = _eager_product(lambda ell: lf.group_factor(m, k, ell), m * m * k, 10000)
        assert _within_tail_bound(fine, coarse, 1000), (m, k)
    coarse = _eager_product(lambda ell: lf.order_factor(36, ell), 36, 1000)
    fine = _eager_product(lambda ell: lf.order_factor(36, ell), 36, 10000)
    assert _within_tail_bound(fine, coarse, 1000)


def test_k_positive_and_bounded():
    for m in range(1, 8):
        for k in range(1, 12):
            assert 0 < lf.k_of_group(m, k) < 3


def test_main_term_examples():
    with pytest.raises(ValueError):
        lf.main_term(1, 1, lf.k_of_group(1, 1))
    value = lf.main_term(2, lf.aut_order(1, 2), lf.k_of_group(1, 2))
    want = lf.k_of_group(1, 2) * 4 / (lf.aut_order(1, 2) * math.log(2))
    assert abs(value - want) < 1e-12
    # the conjectural term stays positive for shapes the census never sees
    assert lf.main_term(121, lf.aut_order(11, 1), lf.k_of_group(11, 1)) > 0


def test_main_term_is_the_printed_float():
    # mg and grid print main_term(N, #Aut, K); the library value must be that float exactly
    for m in range(1, 4):
        for k in range(1, 400):
            n = m * m * k
            if n < 2:
                continue
            aut, constant = lf.aut_order(m, k), lf.k_of_group(m, k)
            printed = constant * n * n / (aut * math.log(n))
            assert lf.main_term(n, aut, constant) == printed, (m, k)


def test_t_examples():
    assert lf.t_of_n(1, 1, 1) == 1
    assert lf.t_of_n(5, 1, 1) == -1
    assert lf.t_of_n(25, 1, 3) == 20
    assert lf.t_closed_form(5, 1, 1, 1) == -1
    assert lf.t_closed_form(5, 2, 1, 3) == 20
    assert lf.t_closed_form(3, 1, 1, 2) == -2
    with pytest.raises(ValueError):
        lf.t_closed_form(3, 1, 1, 3)  # 3 | 2k
    with pytest.raises(ValueError):
        lf.t_closed_form(2, 1, 1, 1)  # 2 | 2k always


def test_t_enumeration_matches_closed_form():
    for ell in (3, 5):
        for w in (1, 2, 3):
            for m in range(1, ell * ell + 1):
                for k in range(1, ell * ell + 1):
                    if k % ell == 0:
                        continue
                    assert lf.t_of_n(ell**w, m, k) == lf.t_closed_form(ell, w, m, k), (ell, w, m, k)


def test_t_bounded_by_divisor_count_on_squarefree():
    for m, k in [(1, 1), (2, 3), (3, 5), (4, 9)]:
        for a in (3, 5, 7, 15, 21, 35, 105):
            if math.gcd(a, 2 * k) != 1:
                continue
            tau = len([d for d in range(1, a + 1) if a % d == 0])
            assert abs(lf.t_of_n(a, m, k)) <= tau, (a, m, k)


def test_p_of_ell_examples():
    assert lf.p_of_ell(3, 1, 1) == Fraction(7, 8)
    assert lf.p_of_ell(5, 1, 1) == Fraction(47, 48)
    assert lf.p_of_ell(3, 3, 1) == Fraction(11, 12)
    with pytest.raises(ValueError):
        lf.p_of_ell(3, 1, 3)


def test_p_of_ell_series_agrees():
    for ell in (3, 5, 7):
        for m in range(1, 8):
            for k in range(1, 8):
                if (2 * k) % ell == 0:
                    continue
                closed = lf.p_of_ell(ell, m, k)
                series = lf.p_of_ell_series(ell, m, k)
                assert abs(closed - series) <= Fraction(2, ell**12), (ell, m, k)


def test_j_r_v_examples():
    assert lf._j_r_v(5, 0, 1, 1) == 4
    assert lf._j_r_v(1, 0, 1, 1) == 0
    assert lf._j_r_v(0, 0, 2, 2) == 2


def test_script_j_branch_values():
    assert lf.script_j(1, 1) == Fraction(2, 3)
    assert lf.script_j(2, 2) == Fraction(3, 2)
    assert lf.script_j(1, 2) == Fraction(1)
    assert lf.script_j(2, 1) == Fraction(1)


def test_script_j_dual_route_full_grid():
    for m in range(1, 17):
        for k in range(1, 17):
            v = lf.script_j(m, k)
            assert v == lf.script_j_by_levels(m, k), (m, k)
            if m % 2 and k % 2:
                assert v == Fraction(2, 3)
            elif m % 2 == 0 and k % 2 == 0:
                assert v == Fraction(3, 2)
            else:
                assert v == 1


def test_level_aggregates_stabilize():
    # beyond level 3 the aggregate is constant; script_j_by_levels's tail sum relies on it
    for m in range(1, 9):
        for k in range(1, 16, 2):
            v3 = lf._script_j_level(3, m, k)
            assert v3 == lf._script_j_level(4, m, k) == lf._script_j_level(5, m, k), (m, k)
