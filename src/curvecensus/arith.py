"""Integer substrate: Kronecker symbols, primality, factorization, sieves.

Everything here is pure and deterministic: primality uses a fixed
Miller-Rabin witness set valid for all 64-bit integers, and factorization
uses trial division followed by Brent's cycle method with a fixed seed
sequence; it refuses n >= FACTOR_BOUND = 2^64 before any trial division.
The require_* functions are the package's argument checks, one per kind:
each refuses a bool, a non-int or an int out of range with a one-line
ValueError.  The boundary rule: a value is checked once, where it enters
the package.  An exported function calls the checks up front and then a
private kernel that checks nothing, and package code that already holds
checked values calls the kernel, not the exported function.  kronecker,
is_prime and valuation, the hot leaves, check inline.
Primes in arithmetic progressions come from the base primes: read by
bisection below 2^12, else by a sieve of the progression by the base primes
up to its square root; is_prime serves single numbers and is the sieve's
test oracle.  sieving_primes holds the base primes, one sieve per bit
length of the bound, for primes_in_ap and for the root-count sieve of
quadforms; primes_up_to sieves afresh on each call, as each of its callers
asks once per request or keeps its own memo.  square_divisors keeps no memo
either: factorizing an order of the size the commands use takes
microseconds.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import namedtuple

# Deterministic for all n < 3.3 * 10^24, in particular all 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_TEST = 2**10  # factorize trial-divides up to here, then tests the cofactor

# is_prime is proven below this; factorize refuses n at or above it, and the
# window sums refuse a Hasse window that reaches it.
FACTOR_BOUND = 2**64

# Largest sieve bound (a 64 MiB bytearray), the same figure as quadforms.CLASS_SCAN_CAP.
SIEVE_CAP = 2**26


def require_int(value: int, lo: int, name: str, hi: int | None = None) -> None:
    """Refuse anything but an int >= lo, and <= hi when hi is given; a bool is not an int here."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")


def require_prime(p: int) -> None:
    """Refuse anything but a prime int."""
    if type(p) is not int or not is_prime(p):
        raise ValueError(f"{p} is not prime")


def require_shape(m: int, k: int) -> None:
    """Refuse a group shape (m, k) unless m and k are ints >= 1."""
    if type(m) is not int or type(k) is not int or m < 1 or k < 1:
        raise ValueError(f"invalid shape ({m}, {k})")


def require_torsion(n: int, nt: int) -> None:
    """Refuse an order n and a torsion level nt unless both are ints >= 1 with nt^2 | n."""
    require_int(n, 1, "order")
    if type(nt) is not int or nt < 1 or n % (nt * nt):
        raise ValueError(f"torsion level {nt} must satisfy nt^2 | {n}")


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1, completely multiplicative in n."""
    if n < 1:
        raise ValueError(f"kronecker: modulus must be >= 1, got {n}")
    if n == 1:
        return 1
    sign = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol (a/n) with n odd, via quadratic reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid for all 64-bit n)."""
    if type(n) is not int:
        raise ValueError(f"is_prime: n must be an int, got {n!r}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(namedtuple("Factorization", "value factors")):
    """Complete prime factorization: value == prod(p**e), primes ascending.

    An immutable, hashable tuple (value, factors), checked when it is built.
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]):
        if type(value) is not int or type(factors) is not tuple:
            raise ValueError(f"malformed factorization of {value!r}")
        prod = 1
        last = 1
        for p, e in factors:
            if type(p) is not int or type(e) is not int or p <= last or e < 1:
                raise ValueError(f"malformed factorization of {value}")
            last = p
            prod *= p**e
        if prod != value:
            raise ValueError(f"factorization does not multiply back to {value}")
        return super().__new__(cls, value, factors)

    @classmethod
    def _make(cls, fields):  # so that _replace checks the new fields too
        return cls(*fields)


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n, deterministic seeds."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    # no test meets this: the semiprimes they factor, up to 4294967291^2 just
    # below 2^64, all split at the first seed c = 1
    raise ArithmeticError(f"rho failed to factor {n}")


def factorize(n: int) -> Factorization:
    """Complete factorization of 1 <= n < FACTOR_BOUND, deterministic."""
    require_int(n, 1, "factorize: n")
    if n >= FACTOR_BOUND:
        raise ValueError(f"factorize: {n} is not below 2^64")
    value = n
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # 2,3,5-wheel trial division up to min(sqrt(n), 2^10).  What is left has no
    # prime factor below p, so each factor of it below p^2 is prime; is_prime
    # proves any other, or Brent rho splits it.
    p, i = 7, 0
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    while p * p <= n and p <= _TRIAL_TEST:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += increments[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if p * p > m or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            stack += d, m // d
    return Factorization(value, tuple(sorted(out.items())))


def euler_phi(n: int) -> int:
    """Euler totient."""
    require_int(n, 1, "euler_phi: n")
    out = n
    for p, _ in factorize(n).factors:
        out = out // p * (p - 1)
    return out


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    require_int(n, 1, "mobius: n")
    fac = factorize(n).factors
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def valuation(ell: int, n: int) -> int:
    """Exponent of the prime ell in n >= 1."""
    if n < 1:
        raise ValueError(f"valuation: n must be >= 1, got {n}")
    if ell < 2:
        raise ValueError(f"valuation: base must be >= 2, got {ell}")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def square_divisors(n: int) -> list[int]:
    """All f >= 1 with f**2 | n, ascending."""
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**j for d in out for j in range(e // 2 + 1)]
    return sorted(out)


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by an odd-only sieve of Eratosthenes, a fresh list each call.

    A bound above SIEVE_CAP raises ValueError before anything is allocated.
    """
    if n < 2:
        return []
    if n > SIEVE_CAP:
        raise ValueError(f"prime sieve up to {n} exceeds {SIEVE_CAP}")
    # odd numbers only: sieve[i] stands for 2i + 1; the odd multiples of p from
    # p*p on are 2p apart, so p apart in the index
    size = (n + 1) // 2
    sieve = bytearray([1]) * size
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, size, p)))
    return [2, *itertools.compress(range(1, n + 1, 2), sieve)]


@functools.lru_cache(maxsize=None)
def _primes_below_power_of_two(bits: int) -> tuple[int, ...]:
    return tuple(primes_up_to(1 << bits))


def sieving_primes(bound: int) -> tuple[int, ...]:
    """The primes up to 2^b, b = bound.bit_length(): every prime <= bound.

    One sieve per bit length, memoized, so every bound of that length shares
    it.  A bound of SIEVE_CAP or more raises ValueError, since its sieve
    would pass SIEVE_CAP.
    """
    return _primes_below_power_of_two(bound.bit_length())


def primes_in_ap(lo: int, hi: int, m: int) -> list[int]:
    """Primes p with lo < p < hi and p == 1 (mod m), ascending.

    Bounds are strict on both sides; the empty list is a normal result.  For
    hi <= 2^12 the primes are read by bisection from sieving_primes(hi).
    Above, the progression is sieved by the primes q <= B, taken from
    sieving_primes(B), one slice assignment per q striking the multiples of
    q other than q itself.  B is sqrt(hi - 1) when that is below both 8 times
    the number of terms and SIEVE_CAP, so the sieve proves every survivor
    prime; else B is the number of terms, since sieving on would thin the
    survivors only by a log factor, and is_prime confirms the survivors
    above (B + 1)^2.
    """
    require_int(m, 1, "primes_in_ap: modulus")
    if lo > hi:
        raise ValueError(f"primes_in_ap: lo={lo} exceeds hi={hi}")
    if hi <= 2**12:
        primes = sieving_primes(hi)
        lo, hi = bisect.bisect_right(primes, lo), bisect.bisect_left(primes, hi)
        return [p for p in primes[lo:hi] if p % m == 1 % m]
    lo = max(lo, 1)
    start = lo + 1 + -lo % m  # the first term above lo
    count = len(range(start, hi, m))
    if not count:
        return []
    bound = r if (r := math.isqrt(hi - 1)) < min(8 * count, SIEVE_CAP) else count
    alive = bytearray([1]) * count
    for q in sieving_primes(bound):
        if q > bound:
            break
        if m % q == 0:
            continue  # no term is a multiple of q, as every term is 1 mod q
        i = -start * pow(m, -1, q) % q  # first term divisible by q
        if start + i * m == q:
            i += q
        alive[i::q] = bytes(len(range(i, count, q)))
    sure = (bound + 1) ** 2
    return [p for p in itertools.compress(range(start, hi, m), alive)
            if p < sure or is_prime(p)]
