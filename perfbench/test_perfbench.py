"""Tests of the benchmark itself.  Run with: python -m pytest perfbench

They launch real CLI processes, so they take about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _argv(name: str, seed: int, count: int = 2) -> list[list[tuple[str, ...]]]:
    stream = workloads.blocks(name, seed)
    return [[req.argv for req in next(stream)] for _ in range(count)]


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_argv_list(name):
    assert _argv(name, 7) == _argv(name, 7)
    assert _argv(name, 7) != _argv(name, 8)


@pytest.mark.parametrize("name", NAMES)
def test_traced_stdout_matches_plain_cli(name, tmp_path):
    req = next(workloads.blocks(name, 0))[0]
    plain = run.run_request(req, tmp_path)
    traced = run.run_request(req, tmp_path, "t0")
    assert plain["ok"], plain["problem"]
    assert traced["ok"], traced["problem"]
    assert traced["stdout_sha256"] == plain["stdout_sha256"]
    trace = traced["trace"]
    assert trace["exit_code"] == 0
    assert trace["counts"]["cli.main"] == 1
    assert all(trace["self_s"][layer] > 0 for layer in run.LEADS[name])


def test_cross_module_bindings_are_counted(tmp_path):
    # localfactors calls kronecker through its own binding of arith.kronecker
    req = workloads.Request("constants", ("constants", "--m", "1", "--k", "5"))
    traced = run.run_request(req, tmp_path, "t0")
    counts = traced["trace"]["counts"]
    assert counts["localfactors.group_factor"] > 9000
    assert counts["arith.kronecker"] >= counts["localfactors.generic_factor"] > 0


def test_bad_argument_counts_as_failed_not_fast(tmp_path):
    good = run.run_request(workloads.Request("mg", ("mg", "--m", "1", "--k", "1")), tmp_path)
    bad = run.run_request(workloads.Request("mg", ("mg", "--m", "0", "--k", "1")), tmp_path)
    assert good["ok"] and not bad["ok"]
    assert bad["problem"] == "exit code 2" and bad["results"] == 0
    metrics = run.end_to_end([good, bad], [0.1], "shape rows")
    assert metrics["fail_ratio"][0] == 0.5
    assert metrics["latency_p50_s"][0] == good["wall_s"]
    assert metrics["results_per_s"][0] == 1 / (good["wall_s"] + bad["wall_s"])


def test_wrong_count_fails_the_check():
    req = workloads.Request("grid", ("grid", "--mmax", "1", "--kmax", "2"), ((1, 2),))
    right = checks.m_of_group_by_forms(1, 2)
    forged = f"m,k,n,m_of_group\n1,1,1,5/12\n1,2,2,{right + 1}\n"
    problem, _ = checks.check(req, forged.encode())
    assert problem is not None and "disagrees" in problem
    honest = f"m,k,n,m_of_group\n1,1,1,5/12\n1,2,2,{right.numerator}/{right.denominator}\n"
    assert checks.check(req, honest.encode()) == (None, 2)


def test_tail_percentile_leaves_ten_beyond():
    value, q = run.tail_latency([float(i) for i in range(1, 35)])
    assert q == 70
    assert sum(x > value for x in range(1, 35)) >= 10
    assert run.tail_latency([1.0, 2.0]) == (2.0, 100)


@pytest.mark.parametrize("name", NAMES)
def test_expected_layer_leads_self_time(name, tmp_path):
    traces = []
    for i, req in enumerate(next(workloads.blocks(name, 0))):
        rec = run.run_request(req, tmp_path, f"0.{i}")
        assert rec["ok"], rec["problem"]
        traces.append(rec["trace"])
    assert run.lead_check(name, run.per_layer(traces)) is None
