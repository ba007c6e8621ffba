"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything asserted here is exact unless a
tolerance is stated inline.
"""

import contextlib
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import oracles
from curvecensus import cli, curves, localfactors, matrixcounts
from curvecensus.arith import is_prime, primes_up_to, valuation
from curvecensus.curves import GroupShape
from curvecensus.matrixcounts import MatrixCountQuery as Q


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({desc}): PASS")


def test_criterion_1_oracle_equivalence(oracle_tallies):
    cap = curves.ORACLE_PRIME_CAP
    with criterion(1, f"curve oracle equals class-number formula, p <= {cap}"):
        t0 = time.time()
        compared = 0
        for p in primes_up_to(cap):
            tally = oracle_tallies[p]
            shapes = set(tally.entries) | set(curves.admissible_shapes(p))
            for s in sorted(shapes):
                oracle = tally.entries.get(s, Fraction(0))
                formula = curves.m_p_of_group(s.m, s.k, p)
                assert oracle == formula, (p, s, oracle, formula)
                compared += 1
            # supersingular shapes (N = p + 1) are part of the comparison
            assert any(s.order == p + 1 for s in shapes), p
        elapsed = time.time() - t0
        print(f"  criterion 1: {compared} (p, shape) pairs compared in {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_2_decomposition_identity():
    with criterion(2, "order-count routes agree for N <= 5000"):
        t0 = time.time()
        for n in range(1, 5001):
            by_primes, by_shapes = curves.m_of_order_routes(n)
            assert by_primes == by_shapes, n
        elapsed = time.time() - t0
        print(f"  criterion 2: 5000 orders checked in {elapsed:.1f}s")
        assert elapsed < 300.0


def test_criterion_3_spot_values():
    with criterion(3, "spot values 5/12, 7/12, 31/12, 0"):
        assert curves.m_of_group(1, 1) == Fraction(5, 12)
        assert curves.m_of_group(2, 1) == Fraction(7, 12)
        assert curves.m_of_order(4) == Fraction(31, 12)
        assert curves.m_of_group(11, 1) == 0


def test_criterion_4_matrix_counts():
    with criterion(4, "matrix fiber counts: scan equals closed form"):
        t0 = time.time()
        for ell in (2, 3):
            for e in range(1, 5):
                for n in range(1, 37):
                    v = valuation(ell, n)
                    if e <= v:
                        continue
                    for u in range(v // 2 + 1):
                        q = Q(n, ell**u, ell, e)
                        assert matrixcounts.count_c_brute(q) == matrixcounts.count_c_closed(q), (
                            ell, e, n, u,
                        )
        for ell in (2, 3):
            e = 1
            while ell**e <= 27:
                for m_det in range(1, 28):
                    if valuation(ell, m_det) > e:
                        continue
                    assert matrixcounts.det_count_brute(m_det, ell, e) == \
                        matrixcounts.det_count_closed(m_det, ell, e), (m_det, ell, e)
                e += 1
        # N = 1 (so 3 | N - 1 with symbol zero): the level-one count is 15
        assert matrixcounts.count_c_brute(Q(1, 1, 3, 1)) == 15
        elapsed = time.time() - t0
        print(f"  criterion 4: done in {elapsed:.1f}s")
        assert elapsed < 180.0


def test_criterion_5_euler_factor_interpretation():
    with criterion(5, "constants equal matrix densities prime by prime"):
        ells = primes_up_to(13)
        for n in range(1, 37):
            for ell in ells:
                assert matrixcounts.kn_local_factor(n, ell) == \
                    matrixcounts.euler_density(n, 1, ell), (n, ell)
        for m in range(1, 5):
            for k in range(1, 10):
                for ell in ells:
                    assert matrixcounts.kg_local_factor(m, k, ell) == \
                        matrixcounts.shape_density(m, k, ell), (m, k, ell)


def test_criterion_6_local_sums():
    with criterion(6, "T, P, and 2-adic constants: both routes agree"):
        for ell in (3, 5, 7):
            for w in (1, 2, 3):
                for m in range(1, ell * ell + 1):
                    for k in range(1, ell * ell + 1):
                        if k % ell == 0:
                            continue
                        assert localfactors.t_of_n(ell**w, m, k) == \
                            localfactors.t_closed_form(ell, w, m, k), (ell, w, m, k)
        allowed = {Fraction(2, 3), Fraction(1), Fraction(3, 2)}
        for m in range(1, 17):
            for k in range(1, 17):
                closed = localfactors.script_j(m, k)
                assert closed in allowed, (m, k)
                assert closed == localfactors.script_j_by_levels(m, k), (m, k)


def test_criterion_7_class_number_formula():
    with criterion(7, "L(1) series matches class number formula"):
        assert abs(oracles.l_value_exact(-4) - math.pi / 4) < 1e-10
        for d in range(-2000, 0):
            if d % 4 not in (0, 1):
                continue
            value, tail = oracles.l_value_series(d, 10**6)
            exact = oracles.l_value_exact(d)
            assert abs(exact - value) <= tail, (d, exact, value, tail)


def test_criterion_8_main_term_sanity():
    with criterion(8, "ratio to conjectural main term, seed-0 sample"):
        t0 = time.time()
        rng = random.Random(0)
        shapes = [(rng.randint(1, 3), rng.randint(10**4, 10**5)) for _ in range(50)]
        ratios = []
        for m, k in shapes:
            count = curves.m_of_group(m, k)
            main = localfactors.main_term(m * m * k, localfactors.aut_order(m, k),
                                          localfactors.k_of_group(m, k))
            ratios.append(float(count) / main)
        inside = sum(1 for r in ratios if 0.2 < r < 5.0)
        mean = sum(ratios) / len(ratios)
        elapsed = time.time() - t0
        print(f"  criterion 8: {inside}/50 ratios in (0.2, 5), mean {mean:.3f}, {elapsed:.1f}s")
        assert inside >= 48
        assert 0.7 < mean < 1.4
        assert elapsed < 600.0


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "curvecensus.cli"] + args,
        capture_output=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def test_criterion_9_byte_determinism():
    with criterion(9, "verify suites and grid are byte-identical across runs"):
        invocations = [
            ["verify", "oracle", "--pmax", "13"],
            ["verify", "matrix"],
            ["verify", "local"],
            ["verify", "constants"],
            ["verify", "identity"],
            ["verify", "classnumbers"],
            ["grid", "--mmax", "3", "--kmax", "50"],
            ["--format", "json", "--threads", "4", "grid", "--mmax", "2", "--kmax", "8"],
        ]
        for args in invocations:
            code1, out1 = _run_cli(args)
            code2, out2 = _run_cli(args)
            assert code1 == code2 == 0, (args, code1, code2)
            assert out1 == out2, args
            assert out1, args
