from collections import Counter
from fractions import Fraction

import pytest

from curvecensus import matrixcounts as mc
from curvecensus.arith import kronecker, primes_up_to, valuation
from curvecensus.matrixcounts import MatrixCountQuery as Q


def _gl2_brute(mod: int, ell: int) -> int:
    # (a, b, c, d) mod `mod` is invertible when ad - bc is a unit mod ell
    ad = Counter(a * d % ell for a in range(mod) for d in range(mod))
    bc = Counter(b * c % ell for b in range(mod) for c in range(mod))
    return sum(ad[x] * bc[y] for x in ad for y in bc if x != y)


def test_gl2_order_examples():
    assert mc.gl2_order(2, 1) == 6
    assert mc.gl2_order(3, 1) == 48
    assert mc.gl2_order(2, 2) == 96


def test_gl2_order_against_brute_force():
    for ell, emax in [(2, 6), (3, 4), (5, 2), (7, 2), (11, 1), (13, 1)]:
        for e in range(1, emax + 1):
            if ell**e > 81:
                continue
            assert mc.gl2_order(ell, e) == _gl2_brute(ell**e, ell), (ell, e)


def test_count_c_level_one():
    # e = 1: #C(N, 1; l) = l (l^2 - (N/l)^2 l - 1 - ((N - 1)/l)^2), any N
    for ell in (2, 3, 5):
        for n in range(1, 2 * ell + 1):
            level_one = ell * (ell**2 - kronecker(n, ell) ** 2 * ell - 1
                               - kronecker(n - 1, ell) ** 2)
            assert mc.count_c_brute(Q(n, 1, ell, 1)) == level_one, (ell, n)


def test_count_c_brute_examples():
    assert mc.count_c_brute(Q(1, 1, 3, 1)) == 15
    assert mc.count_c_brute(Q(2, 1, 2, 1)) == 4  # ell | N: ell (ell^2 - 2)
    assert mc.count_c_brute(Q(4, 2, 2, 3)) == mc.count_c_closed(Q(4, 2, 2, 3)) == 96


def test_count_c_closed_examples():
    assert mc.count_c_closed(Q(1, 1, 3, 2)) == 405
    assert mc.count_c_closed(Q(2, 1, 2, 2)) == 24
    assert mc.count_c_closed(Q(4, 4, 2, 3)) == 0
    with pytest.raises(ValueError):
        mc.count_c_closed(Q(4, 1, 2, 2))  # e = v not allowed


def test_query_is_a_checked_immutable_record():
    for args, message in [
        ((0, 1, 3, 1), "order and torsion level must be >= 1"),
        ((1, 1, 3, 0), "exponent must be >= 1, got 0"),
        ((1, 1, 4, 1), "4 is not prime"),
        ((1, 1, 3, 41), "modulus 3^41 exceeds 2^64"),
    ]:
        with pytest.raises(ValueError) as exc:
            Q(*args)
        assert str(exc.value) == message, args
    q = Q(4, 2, 2, 3)
    assert repr(q) == "MatrixCountQuery(n_order=4, n_torsion=2, ell=2, e=3)"
    with pytest.raises(AttributeError):
        q.e = 4
    assert {q: 1}[Q(4, 2, 2, 3)] == 1
    with pytest.raises(ValueError, match="not prime"):
        q._replace(ell=4)


def test_count_c_brute_budget():
    with pytest.raises(ValueError):
        mc.count_c_brute(Q(1, 1, 101, 2))
    with pytest.raises(ValueError):  # a 16^4 grid, but a 2^40-entry fiber array
        mc.count_c_brute(Q(1, 2**36, 2, 40))


def test_count_c_brute_reads_the_fiber_scan():
    for ell in (2, 3):
        for e in (1, 2, 3):
            mod = ell**e
            for u in range(e + 1):
                fibers = mc.count_c_fibers(ell, e, u)
                # entry i is the fiber of i * g; residues off the multiples of g are empty
                g = ell ** min(2 * u, e)
                assert len(fibers) == mod // g
                for n in range(1, mod + 1):
                    t = n % mod
                    expected = 0 if t % g else fibers[t // g]
                    assert mc.count_c_brute(Q(n, ell**u, ell, e)) == expected, (ell, e, u, n)


def test_fiber_arrays_are_read_only():
    fibers = mc.count_c_fibers(2, 2, 0)
    with pytest.raises(TypeError):
        fibers[0] = 0
    assert mc.count_c_fibers(2, 2, 0)[0] == mc.count_c_brute(Q(4, 1, 2, 2))


def test_counts_agree_on_grid():
    mc.count_c_fibers.cache_clear()
    grids = set()
    for ell in (2, 3):
        for e in (1, 2, 3, 4):
            for n in range(1, 37):
                v = valuation(ell, n)
                if e <= v:
                    continue
                for u in range(v // 2 + 1):
                    q = Q(n, ell**u, ell, e)
                    assert mc.count_c_brute(q) == mc.count_c_closed(q), (ell, e, n, u)
                    grids.add((ell, e, u))
    # one fiber scan per (l, e, u), however many orders read it
    assert mc.count_c_fibers.cache_info().misses == len(grids)


def test_level_at_or_past_the_modulus_needs_no_scan():
    # at u >= e only sigma = I qualifies, however far 2^30 is past the scan budget
    assert 2**30 > mc.BRUTE_BUDGET
    assert mc.count_c_fibers(2, 30, 30) == (1,)
    assert mc.count_c_brute(Q(2**30, 2**30, 2, 30)) == 1
    assert mc.count_c_brute(Q(4, 2**30, 2, 30)) == 0
    with pytest.raises(ValueError):  # a level below e still scans, and 2^27 is too long
        mc.count_c_fibers(2, 27, 0)


def test_identity_congruence_levels():
    # u beyond v/2 gives the empty count; u within range matches the scan
    assert mc.count_c_brute(Q(8, 2, 2, 4)) == mc.count_c_closed(Q(8, 2, 2, 4))
    assert mc.count_c_brute(Q(8, 4, 2, 4)) == 0 == mc.count_c_closed(Q(8, 4, 2, 4))


def test_det_count_examples():
    assert mc.det_count_closed(1, 2, 1) == 6  # SL2(Z/2)
    assert mc.det_count_closed(2, 2, 1) == 10
    assert mc.det_count_closed(4, 2, 3) == 672
    assert mc.det_count_closed(3, 5, 0) == 1  # Mat2(Z/1)
    with pytest.raises(ValueError):
        mc.det_count_closed(8, 2, 2)  # valuation 3 exceeds exponent 2


def test_det_count_routes_agree():
    mc.det_fibers.cache_clear()
    grids = set()
    for ell in (2, 3):
        e = 1
        while ell**e <= 27:
            for m_det in range(1, 28):
                if valuation(ell, m_det) > e:
                    continue
                closed = mc.det_count_closed(m_det, ell, e)
                assert closed == mc.det_count_brute(m_det, ell, e), (m_det, ell, e)
                grids.add((ell, e))
            e += 1
    # one determinant histogram per (l, e), however many targets read it
    assert mc.det_fibers.cache_info().misses == len(grids)


def test_det_fiber_arrays_cover_every_matrix():
    for ell, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        fibers = mc.det_fibers(ell, e)
        assert sum(fibers) == ell ** (4 * e), (ell, e)
        with pytest.raises(TypeError):
            fibers[0] = 0
    assert mc.det_count_brute(5, 3, 0) == 1  # Mat2(Z/1)
    with pytest.raises(ValueError):
        mc.det_count_brute(1, 101, 1)  # 101^4 cells exceed the budget


def test_euler_density_examples():
    assert mc.euler_density(2, 1, 3) == Fraction(3, 4)
    assert mc.euler_density(2, 1, 2) == Fraction(1)
    assert mc.euler_density(4, 2, 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        mc.euler_density(4, 3, 2)  # 9 does not divide 4


def test_density_stabilizes_in_brute_force():
    for ell in (2, 3):
        for n in range(1, 9):
            v = valuation(ell, n)
            densities = []
            for e in (v + 1, v + 2):
                if ell ** (4 * e) > mc.BRUTE_BUDGET:
                    continue
                count = mc.count_c_brute(Q(n, 1, ell, e))
                densities.append(Fraction(ell**e * count, mc.gl2_order(ell, e)))
            assert len(set(densities)) == 1, (ell, n)
            assert densities[0] == mc.euler_density(n, 1, ell)


def test_fiber_partition():
    for ell, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        assert sum(mc.count_c_fibers(ell, e, 0)) == mc.gl2_order(ell, e), (ell, e)


def test_kn_interpretation():
    assert mc.kn_local_factor(1, 5) == Fraction(95, 96)
    assert mc.euler_density(1, 1, 5) == Fraction(95, 96)
    assert mc.kn_local_factor(4, 2) == Fraction(3, 2)
    for n in range(1, 37):
        for ell in primes_up_to(13):
            assert mc.kn_local_factor(n, ell) == mc.euler_density(n, 1, ell), (n, ell)


def test_kg_interpretation():
    assert mc.shape_density(2, 1, 2) == Fraction(1, 2)
    assert mc.kg_local_factor(2, 1, 2) == Fraction(1, 2)
    for m in range(1, 5):
        for k in range(1, 10):
            for ell in primes_up_to(13):
                assert mc.kg_local_factor(m, k, ell) == mc.shape_density(m, k, ell), (m, k, ell)


def test_query_validation():
    with pytest.raises(ValueError):
        Q(0, 1, 2, 1)
    with pytest.raises(ValueError):
        Q(4, 1, 4, 1)  # 4 not prime
    with pytest.raises(ValueError):
        Q(4, 1, 2, 0)


def test_query_modulus_cap():
    assert Q(1, 1, 2, 64).e == 64  # l^e = 2^64 is the largest modulus
    for ell, e in [(2, 65), (3, 41), (2, 10**8), (2, 10**18)]:
        with pytest.raises(ValueError, match="exceeds 2\\^64"):
            Q(1, 1, ell, e)
