import os
import sys
from pathlib import Path

import pytest

# allow running pytest from a fresh checkout without installing, also in the
# `python -m curvecensus.cli` subprocesses some tests launch
_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def oracle_tallies():
    """brute_force_tally(p) for every prime p up to the oracle cap, built once per run."""
    from curvecensus import curves
    from curvecensus.arith import primes_up_to

    return {p: curves.brute_force_tally(p) for p in primes_up_to(curves.ORACLE_PRIME_CAP)}


@pytest.fixture
def cold_memo(monkeypatch):
    """Start a test from empty memos: a class-number memo of its own, which every reader
    looks up at call time, and a cleared sieve memo."""
    from curvecensus import arith, quadforms

    monkeypatch.setattr(quadforms, "_cache", {})
    arith._primes_below_power_of_two.cache_clear()
