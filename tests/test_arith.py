import math
import random
import time

import pytest

from curvecensus import arith, curves


# Reference Kronecker symbol built independently: Euler criterion at odd
# primes, the explicit table at 2, and multiplicativity over factorizations.
def _kron_prime(a: int, p: int) -> int:
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _kron_ref(a: int, n: int) -> int:
    out = 1
    for p, e in arith.factorize(n).factors:
        out *= _kron_prime(a, p) ** e
    return out


def test_kronecker_examples():
    assert arith.kronecker(1, 3) == 1
    assert arith.kronecker(2, 2) == 0
    assert arith.kronecker(-20, 3) == 1  # -20 = 1 mod 3, a square


def test_kronecker_rejects_bad_modulus():
    with pytest.raises(ValueError):
        arith.kronecker(3, 0)
    with pytest.raises(ValueError):
        arith.kronecker(3, -7)


def test_kronecker_matches_reference():
    for a in range(-40, 41):
        for n in range(1, 61):
            assert arith.kronecker(a, n) == _kron_ref(a, n), (a, n)


def test_kronecker_multiplicative_in_numerator():
    rng = random.Random(0)
    cases = [(a, b, n) for a in range(-12, 13) for b in range(-12, 13) for n in (1, 2, 7, 12)]
    cases += [
        (rng.randint(-1000, 1000), rng.randint(-1000, 1000), rng.randint(1, 1000))
        for _ in range(3000)
    ]
    for a, b, n in cases:
        assert arith.kronecker(a, n) * arith.kronecker(b, n) == arith.kronecker(a * b, n)


def test_kronecker_multiplicative_in_denominator():
    rng = random.Random(1)
    for _ in range(3000):
        a = rng.randint(-1000, 1000)
        n1 = rng.randint(1, 100)
        n2 = rng.randint(1, 100)
        assert arith.kronecker(a, n1) * arith.kronecker(a, n2) == arith.kronecker(a, n1 * n2)


def test_kronecker_counts_square_roots():
    for ell in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]:
        for a in range(1, ell):
            roots = sum(1 for x in range(ell) if (x * x - a) % ell == 0)
            assert roots == 1 + arith.kronecker(a, ell)


def test_is_prime_against_trial_division():
    def naive(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(0, 5000):
        assert arith.is_prime(n) == naive(n), n


def test_is_prime_strong_pseudoprimes():
    # strong pseudoprime to several small bases; composite = 151 * 751 * 28351
    assert not arith.is_prime(3215031751)
    assert arith.is_prime(2**61 - 1)
    assert not arith.is_prime(2**62 - 1)


def test_factorize_examples():
    assert arith.factorize(1).factors == ()
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(121).factors == ((11, 2),)
    assert arith.factorize(2**64 - 1).factors == (
        (3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1))
    # is_prime is proven below 2^64, and rho may run for minutes above it
    for n in (2**64, 1000000000001040000000000037111):
        with pytest.raises(ValueError, match="not below 2\\^64"):
            arith.factorize(n)


def test_factorize_round_trip():
    for n in range(1, 20000):
        f = arith.factorize(n)
        assert f.value == n
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(arith.is_prime(p) for p, _ in f.factors)
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(20000, 10**6)
        f = arith.factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n


def test_factorize_reaches_rho():
    n = 1000003 * 1000033  # both prime, beyond the wheel for their product
    f = arith.factorize(n)
    assert f.factors == ((1000003, 1), (1000033, 1))
    big = (2**31 - 1) * (2**31 - 19)  # 2^31-19 = 3 * 5 * 23 * 6222437
    assert math.prod(p**e for p, e in arith.factorize(big).factors) == big
    # semiprimes up to just below FACTOR_BOUND = 2^64, one of them a square
    for p, q in ((4294967291, 4294967279), (4294967291, 4294967291),
                 (3037000493, 3037000453)):
        f = arith.factorize(p * q)
        assert f.factors == (((p, 2),) if p == q else ((q, 1), (p, 1))), (p, q)
    assert 4294967291**2 < arith.FACTOR_BOUND


def test_multiplicative_functions():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(12) == 4
    assert arith.valuation(2, 24) == 3
    assert arith.mobius(1) == 1
    assert arith.mobius(6) == 1
    assert arith.mobius(30) == -1
    assert arith.mobius(12) == 0
    for n in range(1, 300):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert sum(arith.euler_phi(d) for d in divisors) == n
        assert sum(arith.mobius(d) for d in divisors) == (1 if n == 1 else 0)


def test_square_divisors():
    assert arith.square_divisors(1) == [1]
    assert arith.square_divisors(12) == [1, 2]
    assert arith.square_divisors(144) == [1, 2, 3, 4, 6, 12]
    # memoized per n, but every call returns a list of its own
    arith.square_divisors(144).append(0)
    assert arith.square_divisors(144) == [1, 2, 3, 4, 6, 12]


def test_primes_up_to():
    assert arith.primes_up_to(1) == []
    assert arith.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = arith.primes_up_to(10000)
    assert len(ps) == 1229 and ps[-1] == 9973
    # the odd-only sieve at every bound up to 12, where its edges sit, and at 10^5
    for n in [*range(13), 10**5]:
        assert arith.primes_up_to(n) == [p for p in range(n + 1) if arith.is_prime(p)], n


def test_factorization_is_a_checked_immutable_record():
    with pytest.raises(ValueError) as exc:
        arith.Factorization(12, ((3, 1), (2, 2)))
    assert str(exc.value) == "malformed factorization of 12"
    with pytest.raises(ValueError) as exc:
        arith.Factorization(12, ((2, 2), (3, 2)))
    assert str(exc.value) == "factorization does not multiply back to 12"
    fac = arith.factorize(12)
    assert repr(fac) == "Factorization(value=12, factors=((2, 2), (3, 1)))"
    assert fac == (12, ((2, 2), (3, 1)))  # a tuple of its fields
    with pytest.raises(AttributeError):
        fac.value = 24
    with pytest.raises(AttributeError):
        fac.extra = 0
    assert {fac: 1}[arith.factorize(12)] == 1
    with pytest.raises(ValueError, match="does not multiply back"):
        fac._replace(value=24)


def test_primes_up_to_refuses_a_sieve_above_the_cap():
    # a 10^15-byte sieve: refused before the bytearray is allocated
    with pytest.raises(ValueError, match="exceeds"):
        arith.primes_up_to(10**15)
    with pytest.raises(ValueError):
        arith.primes_up_to(arith.SIEVE_CAP + 1)


def test_sieving_primes_cover_the_bound():
    for bound in range(300):
        primes = arith.sieving_primes(bound)
        assert list(primes) == arith.primes_up_to(1 << bound.bit_length()), bound
    # one sieve per bit length
    assert arith.sieving_primes(65) is arith.sieving_primes(127)
    with pytest.raises(ValueError, match="exceeds"):
        arith.sieving_primes(arith.SIEVE_CAP)


def test_primes_in_ap_examples():
    assert arith.primes_in_ap(0, 4, 1) == [2, 3]
    assert arith.primes_in_ap(1, 9, 2) == [3, 5, 7]
    assert arith.primes_in_ap(100, 144, 11) == []


def _primes_in_ap_by_scan(lo, hi, m):
    return [p for p in range(max(2, lo + 1), hi) if p % m == 1 % m and arith.is_prime(p)]


def test_primes_in_ap_against_scan():
    cases = [(0, 200, 1), (10, 40, 6), (13, 13, 3)]
    # seeded, with the draws of a residue a kept where a = 1 (mod m): ranges
    # that hold the base primes q <= sqrt(hi - 1) themselves
    rng = random.Random(3)
    for _ in range(400):
        hi = rng.randint(0, 10**4)
        lo = rng.choice([rng.randint(-3, 40), rng.randint(-3, hi)])
        m = rng.choice([1, 2, 3, 4, 6, 30, rng.randint(1, 200)])
        if rng.randint(-m, 2 * m) % m == 1 % m:
            cases.append((min(lo, hi), hi, m))
    for lo, hi, m in cases:
        assert arith.primes_in_ap(lo, hi, m) == _primes_in_ap_by_scan(lo, hi, m), (lo, hi, m)


def test_primes_in_ap_large_slices():
    # below ORDER_BOUND the slices hold fewer terms than sqrt(hi), so the sieve
    # stops short of it and is_prime confirms the survivors; around 10^10 the
    # base primes reach sqrt(hi) = 10^5 and every survivor is prime
    lo, hi = curves.ORDER_BOUND - 20001, curves.ORDER_BOUND
    cases = [(lo, hi, m) for m in (1, 2, 9, 1024)]
    cases += [(10**10 - 10**5, 10**10 + 10**5, m) for m in (1, 2)]
    for lo, hi, m in cases:
        assert arith.primes_in_ap(lo, hi, m) == _primes_in_ap_by_scan(lo, hi, m), (lo, m)


def test_primes_in_ap_on_both_sides_of_the_bisection_bound(monkeypatch):
    # ranges that end at or below 2^12 are read from the base primes, wider ones sieved
    cases = [(lo, hi, m) for m in range(1, 61)
             for lo, hi in ((3000, 2**12), (3000, 2**12 + 1), (2**12 - 100, 2**12 + 900),
                            (-1, 2**12), (0, 5000), (4000, 9000))]
    for lo, hi, m in cases:
        assert arith.primes_in_ap(lo, hi, m) == _primes_in_ap_by_scan(lo, hi, m), (lo, hi, m)
    arith.sieving_primes(2**12)

    def refuse(*args):
        raise AssertionError("a range below 2^12 was sieved")

    monkeypatch.setattr(arith, "bytearray", refuse, raising=False)
    for lo, hi, m in cases:
        if hi <= 2**12:
            assert arith.primes_in_ap(lo, hi, m) == _primes_in_ap_by_scan(lo, hi, m)


def test_primes_in_ap_sieve_proves_its_survivors(monkeypatch):
    # where sqrt(hi - 1) is below 8 times the number of terms, no survivor is left
    # to Miller-Rabin; a sparser progression hands is_prime its survivors above (B + 1)^2
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    r = math.isqrt(4 * 10**6 - 1)
    lo, hi = 10**6 - r, 10**6 + 2 + r  # the Hasse window of 10^6, sqrt(hi - 1) = 1000
    for m in (1, 2, 3, 10, 30):
        arith.primes_in_ap(lo, hi, m)
    assert calls == []
    primes = arith.primes_in_ap(lo, hi, 64)  # 63 terms, fewer than 1000 / 8
    assert calls
    assert primes == _primes_in_ap_by_scan(lo, hi, 64)


def test_factorize_tests_a_large_cofactor_before_trial_division():
    # trial division stops at 2^10, so a prime near 10^12 is proven by one is_prime call
    primes = []
    n = 10**12
    while len(primes) < 10:
        n += 1
        if arith.is_prime(n):
            primes.append(n)
    t0 = time.perf_counter()
    facs = [arith.factorize(p) for p in primes]
    elapsed = time.perf_counter() - t0
    assert [f.factors for f in facs] == [((p, 1),) for p in primes]
    assert elapsed < 0.1, elapsed
    # a prime below 2^10 is divided out, and a composite cofactor goes to rho
    assert arith.factorize(1009 * (10**12 + 39)).factors == ((1009, 1), (10**12 + 39, 1))
    assert arith.factorize(1000003 * 1000033 * 7).factors == ((7, 1), (1000003, 1), (1000033, 1))


def test_factorize_splits_composite_cofactors_by_rho():
    # cofactors with no prime below 2^10: semiprimes of the twelve largest primes
    # below 10^6, prime powers, and a product of three primes just above 2^10
    top = []
    n = 10**6
    while len(top) < 12:
        n -= 1
        if arith.is_prime(n):
            top.append(n)
    cases = {top[i] * top[i + 1]: ((top[i + 1], 1), (top[i], 1)) for i in range(0, 12, 2)}
    cases[1031**3] = ((1031, 3),)
    cases[999983**2 * 7] = ((7, 1), (999983, 2))
    cases[1031 * 1033 * 1039] = ((1031, 1), (1033, 1), (1039, 1))
    cases[2039**2 * 1000003] = ((2039, 2), (1000003, 1))
    t0 = time.perf_counter()
    got = {n: arith.factorize(n).factors for n in cases}
    elapsed = time.perf_counter() - t0
    assert got == cases
    # rho splits each in well under a millisecond
    assert elapsed < 0.1, elapsed


def test_primes_in_ap_rejects_bad_input():
    with pytest.raises(ValueError):
        arith.primes_in_ap(10, 5, 1)
    with pytest.raises(ValueError):
        arith.primes_in_ap(0, 10, 0)
