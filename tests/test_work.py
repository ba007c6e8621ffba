"""Counted work, pinned from one table.

Each row runs a CLI argv through `cli.main` (which must exit 0) or a library
call, and holds the calls of each function it names to an exact count or an
("<=", n) or (">", n) bound.  A name "module.function" may be followed by a
label: its count takes only the calls whose arguments pass the test that
`where` gives that label.  `cold` starts from empty memos.
"""

import contextlib
import importlib
import io
import operator
import sys
from collections import Counter
from typing import Callable, NamedTuple

import pytest

from curvecensus import arith, cli, curves

_OPS = {"==": operator.eq, "<=": operator.le, ">": operator.gt}


class Row(NamedTuple):
    run: list[str] | Callable[[], object]
    counts: dict[str, int | tuple[str, int]]  # "module.function [label]" -> bound
    where: dict[str, Callable[..., bool]] = {}
    cold: bool = False


def _bindings(obj):
    """Every (module, name) pair of a loaded curvecensus module that binds obj."""
    return [(mod, key) for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").partition(".")[0] == "curvecensus"
            for key, value in list(vars(mod).items()) if value is obj]


@contextlib.contextmanager
def counting(keys, where):
    """Count the calls to each named function, through every module that binds it,
    while the block runs; every binding is restored afterwards."""
    calls = Counter()
    replaced = []
    try:
        for name in dict.fromkeys(key.split()[0] for key in keys):
            module, _, attr = name.partition(".")
            real = getattr(importlib.import_module(f"curvecensus.{module}"), attr)
            tests = {key: where[key] if key != name else None
                     for key in keys if key.split()[0] == name}

            def counted(*args, _real=real, _tests=tests, **kwargs):
                calls.update(key for key, keep in _tests.items()
                             if keep is None or keep(*args, **kwargs))
                return _real(*args, **kwargs)

            for mod, key in _bindings(real):
                replaced.append((mod, key, real))
                setattr(mod, key, counted)
        yield calls
    finally:
        for mod, key, real in reversed(replaced):
            setattr(mod, key, real)


def check(row):
    with counting(row.counts, row.where) as calls:
        if callable(row.run):
            row.run()
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(row.run)
            assert code == 0, f"{row.run} exited {code}"
    for name, bound in row.counts.items():
        op, n = bound if isinstance(bound, tuple) else ("==", bound)
        assert _OPS[op](calls[name], n), f"{name}: {calls[name]} calls, want {op} {n}"


IDENTITY = ["verify", "identity", "--nmax", "1200"]
CLASSNUMBERS = ["verify", "classnumbers", "--nmax", "500"]
HASSE_1E6 = (10**6 - 1999, 10**6 + 2001)  # 1999 = isqrt(4 * 10^6 - 1), sqrt(hi - 1) = 1000

ROWS = {
    "oracle additions and factorizations": Row(
        ["verify", "oracle", "--pmax", "127"],
        {"curves._add": ("<=", 438_113), "arith.factorize": ("<=", 1_706)}),
    # windows below 2^12 are read from the base primes, and factorize proves its
    # cofactors by trial division
    "identity makes no primality test": Row(IDENTITY, {"arith.is_prime": 0}),
    # both columns read each window once, from the sieve
    "classnumbers makes no primality test": Row(CLASSNUMBERS, {"arith.is_prime": 0}),
    # each window and Moebius level checks its k once: 2,996 checks for the suite's
    # 1,498 twelfths rows, one per route, and 1,934 for the windows and levels
    "classnumbers checks each restriction once per window": Row(
        CLASSNUMBERS, {"arith.require_int of k": ("<=", 4_930)},
        where={"arith.require_int of k": lambda *args: args[2] == "restriction parameter"}),
    # over 1,108 T, 90 P and 64 scriptJ rows, t_closed_form, p_of_ell and
    # p_of_ell_series check their prime, and those, t_of_n, script_j and
    # script_j_by_levels their shape; series and level sums call unchecked kernels
    "local checks each argument once": Row(
        ["verify", "local"],
        {"arith.require_prime": 1108 + 90 + 90, "arith.require_shape": 2 * (1108 + 90 + 64)}),
    # the sweep tabulates every d >= -4 nmax before its first row, so no d is counted alone
    "identity reads one table": Row(
        IDENTITY, {"quadforms.tabulate_twelfths": 1, "quadforms.tabulate_twelfths to 4800": 1,
                   "quadforms._reduced_form_count": 0},
        where={"quadforms.tabulate_twelfths to 4800": lambda bound: bound == 4800}, cold=True),
    # single windows, and verify classnumbers checks the per-discriminant count
    **{f"{' '.join(argv)} builds no table": Row(argv, {"quadforms.tabulate_twelfths": 0})
       for argv in (["mn", "--n", "190000"], ["mg", "--m", "2", "--k", "2000"],
                    ["grid", "--mmax", "3", "--kmax", "16"],
                    ["verify", "classnumbers", "--nmax", "200"])},
    # F_p has 2p + 6, 2p + 2, 2p + 4 or 2p classes for p = 1, 5, 7, 11 mod 12
    **{f"oracle at {p} runs one group law per class": Row(
        lambda p=p: curves.brute_force_tally(p),
        {"curves._group_shape": 2 * p + {1: 6, 5: 2, 7: 4, 11: 0}[p % 12]})
       for p in (5, 7, 11, 13, 127)},
    # the sieve proves every survivor where sqrt(hi - 1) is below 8 times the number of
    # terms; a sparser progression (63 terms 1 mod 64) hands is_prime its survivors
    **{f"primes 1 mod {m} in the window of 10^6 make no primality test": Row(
        lambda m=m: arith.primes_in_ap(*HASSE_1E6, m), {"arith.is_prime": 0})
       for m in (1, 2, 3, 10, 30)},
    "primes 1 mod 64 in the window of 10^6 test their survivors": Row(
        lambda: arith.primes_in_ap(*HASSE_1E6, 64), {"arith.is_prime": (">", 0)}),
    # census and orders requests sieve their base primes no further than 2^12
    **{f"{argv} sieves up to 2^12": Row(
        argv.split(), {"arith.primes_up_to": (">", 0), "arith.primes_up_to past 2^12": 0},
        where={"arith.primes_up_to past 2^12": lambda n: n > 2**12}, cold=True)
       for argv in ("mg --m 1 --k 3000", "grid --mmax 3 --kmax 16",
                    "constants --m 2 --k 300 --n 1200", "mn --n 199000")},
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_counted_work(request, row):
    if row.cold:
        request.getfixturevalue("cold_memo")
    check(row)


def test_a_zero_count_row_must_exit_0():
    with pytest.raises(AssertionError, match="exited 2"):
        check(Row(["mg", "--m", "0", "--k", "1"], {"arith.is_prime": 0}))


def test_unbound_names_fail_and_every_binding_is_restored():
    real, sites = arith.is_prime, _bindings(arith.is_prime)
    assert {"curvecensus", "curvecensus.arith", "curvecensus.cli"} <= {m.__name__ for m, _ in sites}
    with pytest.raises(AttributeError):
        check(Row(["mg", "--m", "1", "--k", "2"], {"arith.is_prime": 0, "curves.no_such": 0}))
    assert _bindings(real) == sites
    with pytest.raises(RuntimeError), counting(["arith.is_prime"], {}) as calls:
        assert _bindings(real) == []
        cli.is_prime(7)  # a call through another module's binding counts
        assert calls == {"arith.is_prime": 1}
        raise RuntimeError
    assert _bindings(real) == sites
