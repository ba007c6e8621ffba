"""Seeded request streams for the curvecensus CLI benchmark.

A workload is an endless sequence of blocks.  Every block of a workload
holds the same fixed mix of request kinds, in seeded order; only the
parameters are drawn from the seed.  Sizes that set a request's cost come
from an additive golden-ratio sequence with a seeded start, so any prefix
of the stream covers the size range evenly and runs of different seeds
see the same spread of sizes.  A run measures whole blocks, so the
composition is the same for every seed.

Each request carries the argv the CLI receives and the (m, k) shapes whose
M(G) the correctness check recomputes independently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

K_MAX = 3000  # largest census k: the class-number table stays below ~12k entries
ORDERS_LO, ORDERS_HI = 1_000, 200_000
ORDERS_STRATA = 21
_INV_PHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Request:
    kind: str  # grid, mg, constants, mn, verify, matrix
    argv: tuple[str, ...]
    check_shapes: tuple[tuple[int, int], ...] = ()


class Spread:
    """u_{i+1} = u_i + 1/phi (mod 1) from a seeded u_0, mapped onto a range."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def next(self) -> float:
        self.u = (self.u + _INV_PHI) % 1.0
        return self.u

    def int_between(self, lo: int, hi: int) -> int:
        return lo + min(hi - lo, int(self.next() * (hi - lo + 1)))

    def log_between(self, lo: float, hi: float) -> int:
        return round(math.exp(math.log(lo) + self.next() * (math.log(hi) - math.log(lo))))


def census_stream(rng: random.Random) -> Iterator[list[Request]]:
    """Per block: eleven --threads 2 grid rectangles, ten mg shapes, seven constants.

    All at the default Euler-product cutoff 10^5, so the localfactors
    products dominate; shapes keep k <= 3000.  Rectangles of 2 to 16 rows
    make the slowest 40% of requests a continuous range, so the tail
    percentile does not sit on the edge of one request kind.
    """
    rows, ks, kc = Spread(rng), Spread(rng), Spread(rng)
    while True:
        block = []
        for _ in range(11):
            mmax = rng.choice((1, 2, 3))
            kmax = max(1, round(rows.int_between(2, 16) / mmax))
            cells = [(m, k) for m in range(1, mmax + 1) for k in range(1, kmax + 1)]
            argv = ("--threads", "2", "grid", "--mmax", str(mmax), "--kmax", str(kmax))
            block.append(Request("grid", argv, (rng.choice(cells),)))
        for i in range(10):
            m, k = rng.choice((1, 1, 2, 3)), ks.log_between(1, K_MAX)
            shapes = ((m, k),) if i % 3 == 0 else ()
            block.append(Request("mg", ("mg", "--m", str(m), "--k", str(k)), shapes))
        for i in range(7):
            m, k = rng.randint(1, 4), kc.log_between(1, K_MAX)
            argv = ("constants", "--m", str(m), "--k", str(k))
            if i % 2:
                argv += ("--n", str(m * m * k))
            block.append(Request("constants", argv))
        rng.shuffle(block)
        yield block


def orders_stream(rng: random.Random) -> Iterator[list[Request]]:
    """mn --n N, N log-uniform over [10^3, 2*10^5].

    Each block draws one N from each of ORDERS_STRATA equal strata of log N;
    within a stratum, successive blocks step a seeded offset along the
    golden-ratio sequence, so a run's N values form a jittered lattice.
    """
    offsets = [Spread(rng) for _ in range(ORDERS_STRATA)]
    lo, hi = math.log(ORDERS_LO), math.log(ORDERS_HI)
    while True:
        block = []
        for i, offset in enumerate(offsets):
            u = (i + offset.next()) / ORDERS_STRATA
            n = round(math.exp(lo + u * (hi - lo)))
            block.append(Request("mn", ("--format", "json", "mn", "--n", str(n))))
        rng.shuffle(block)
        yield block


def verify_stream(rng: random.Random) -> Iterator[list[Request]]:
    """Per block: the five verify suites and eight matrix --l 3 --e 4 fiber queries.

    oracle and identity run twice, at sizes mirrored about the middle of
    their ranges, so every block holds the same number of identity checks.
    """
    js = ("--format", "json", "verify")
    pmax, nmax, mat, con = Spread(rng), Spread(rng), Spread(rng), Spread(rng)
    while True:
        p, n = pmax.int_between(37, 47), nmax.int_between(800, 1200)
        block = [
            Request("verify", js + ("oracle", "--pmax", str(p))),
            Request("verify", js + ("oracle", "--pmax", str(84 - p))),
            Request("verify", js + ("identity", "--nmax", str(n))),
            Request("verify", js + ("identity", "--nmax", str(2000 - n))),
            Request("verify", js + ("matrix", "--nmax", str(mat.int_between(10, 14)))),
            Request("verify", js + ("local",)),
            Request("verify", js + ("constants", "--nmax", str(con.int_between(8, 16)))),
        ]
        for _ in range(8):
            n = rng.randint(1, 200)
            block.append(Request("matrix", ("matrix", "--n", str(n), "--l", "3", "--e", "4")))
        rng.shuffle(block)
        yield block


# name -> (block stream, result unit)
WORKLOADS = {
    "census": (census_stream, "shape rows"),
    "orders": (orders_stream, "orders"),
    "verify": (verify_stream, "checks"),
}


def blocks(name: str, seed: int) -> Iterator[list[Request]]:
    """The workload's block stream for a seed; the same seed gives the same stream."""
    stream, _ = WORKLOADS[name]
    return stream(random.Random(f"{name}:{seed}"))
