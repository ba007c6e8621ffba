import math
from fractions import Fraction

import pytest

from curvecensus import localfactors as lf
from curvecensus.arith import factorize, primes_up_to


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
    # the product's primes are pinned by the eager-route value checks below
    assert lf.LocalFactorTable._fields == ("truncated_value", "tail_bound")
    t = lf.k_of_group(1, 1, cutoff=1000)
    assert all(lf.group_factor(1, 1, ell) > 0 for ell in primes_up_to(1000))
    assert 0 < t.truncated_value < 3
    assert lf.order_factor(4, 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        lf.k_of_group(1, 1, cutoff=99)


def _eager_product(factor_at, n, cutoff):
    """The truncated product the slow way: one exact factor per prime, in order,
    over the primes up to the cutoff and the primes of n above it."""
    ells = sorted({ell for ell, _ in factorize(n).factors} | set(primes_up_to(cutoff)))
    value = 1.0
    for ell in ells:
        f = factor_at(ell)
        value *= f.numerator / f.denominator
    return value


@pytest.mark.parametrize(
    "m, k", [(1, 1), (1, 2), (2, 1), (1, 1009), (3, 2003), (1, 2310 + 1), (2, 7), (6, 35)]
)
def test_shape_product_bit_identical_to_eager_route(m, k):
    t = lf.k_of_group(m, k, cutoff=1000)
    assert t.truncated_value == _eager_product(lambda ell: lf.group_factor(m, k, ell),
                                               m * m * k, 1000)


# 1010: the prime 1009 divides only N - 1, so it stays out of the product
@pytest.mark.parametrize(
    "n", [1, 2, 4, 1009, 1010, 2 * 2003, 2 * 3 * 5 * 7 * 11 + 1, 720, 10**9 + 7]
)
def test_order_product_bit_identical_to_eager_route(n):
    t = lf.k_of_order(n, cutoff=1000)
    assert t.truncated_value == _eager_product(lambda ell: lf.order_factor(n, ell), n, 1000)


def test_tail_bound_brackets_refinement():
    for m, k in [(1, 1), (2, 3), (5, 4), (1, 30), (6, 6)]:
        coarse = lf.k_of_group(m, k, cutoff=1000)
        fine = lf.k_of_group(m, k, cutoff=10000)
        assert abs(fine.truncated_value - coarse.truncated_value) < coarse.tail_bound
    coarse = lf.k_of_order(36, cutoff=1000)
    fine = lf.k_of_order(36, cutoff=10000)
    assert abs(fine.truncated_value - coarse.truncated_value) < coarse.tail_bound


def test_k_positive_and_bounded():
    for m in range(1, 8):
        for k in range(1, 12):
            t = lf.k_of_group(m, k, cutoff=1000)
            assert 0 < t.truncated_value < 3


def test_main_term_examples():
    with pytest.raises(ValueError):
        lf.conjectural_main_term(1, 1)
    value, tail = lf.conjectural_main_term(1, 2, cutoff=1000)
    t = lf.k_of_group(1, 2, cutoff=1000)
    want = t.truncated_value * 4 / (lf.aut_order(1, 2) * math.log(2))
    assert abs(value - want) < 1e-12
    assert tail > 0
    # the conjectural term stays positive for shapes the census never sees
    value, _ = lf.conjectural_main_term(11, 1, cutoff=1000)
    assert value > 0


def test_main_term_is_the_printed_float():
    # mg and grid print main_term(N, #Aut, K); the library value must be that float exactly
    for m in range(1, 4):
        for k in range(1, 400):
            n = m * m * k
            if n < 2:
                continue
            value, _ = lf.conjectural_main_term(m, k, cutoff=1000)
            t = lf.k_of_group(m, k, cutoff=1000)
            printed = t.truncated_value * n * n / (lf.aut_order(m, k) * math.log(n))
            assert value == printed, (m, k)


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
                series = lf.p_of_ell_series(ell, m, k, terms=12)
                assert abs(closed - series) <= Fraction(2, ell**12), (ell, m, k)


def test_j_r_v_examples():
    assert lf.j_r_v(5, 0, 1, 1) == 4
    assert lf.j_r_v(1, 0, 1, 1) == 0
    assert lf.j_r_v(0, 0, 2, 2) == 2
    with pytest.raises(ValueError):
        lf.j_r_v(2, 0, 1, 1)


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
