"""Closed-loop benchmark of the curvecensus CLI.

Usage:
  python3 perfbench/run.py --workload census|orders|verify|all --seed N
                           --seconds S --trace 0|1

One client sends one request at a time.  Each request is its own
`python -m curvecensus.cli ...` process, as every CLI user pays interpreter
start, import and table build on every call.  The run replays whole blocks
of the seeded workload (see workloads.py) until S seconds of requests have
been measured, checks every request's output outside the timed span, and
prints each metric by name with its unit and sample count.  The last line
of stdout is one JSON object: {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every request
twice, plainly and through tracer.py, and reports the per-layer metrics
and the tracing overhead instead.  --workload all runs every workload both
ways.  Per-request records (argv, wall time, exit code, peak RSS, stdout
SHA-256) and the run context go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 11
REQUEST_TIMEOUT_S = 150
TAIL_BEYOND = 10

PER_LAYER = [
    # (metric, unit, source): source is ("self", layer), ("count", key),
    # ("total", key) or ("ratio", numerator key, denominator key)
    ("cli.self_s", "s", ("self", "cli")),
    ("arith.self_s", "s", ("self", "arith")),
    ("arith.is_prime.calls", "count", ("count", "arith.is_prime")),
    ("arith.is_prime.prime_ratio", "ratio", ("ratio", "arith.is_prime.primes", "arith.is_prime")),
    ("arith.factorize.calls", "count", ("count", "arith.factorize")),
    ("arith.kronecker.calls", "count", ("count", "arith.kronecker")),
    ("quadforms.self_s", "s", ("self", "quadforms")),
    ("quadforms.table_build_s", "s", ("total", "quadforms.table_build_s")),
    ("quadforms.table_entries", "count", ("count", "quadforms.table_entries")),
    ("quadforms.class_data.calls", "count", ("count", "quadforms.class_data")),
    ("quadforms.class_data.table_hit_ratio", "ratio",
     ("ratio", "quadforms.class_data.table_hits", "quadforms.class_data")),
    ("quadforms.reduced_form_scans", "count", ("count", "quadforms.reduced_forms")),
    ("curves.self_s", "s", ("self", "curves")),
    ("curves.window_primes", "count", ("count", "curves.window_primes")),
    ("curves.m_of_group.calls", "count", ("count", "curves.m_of_group")),
    ("curves.m_of_order_routes.calls", "count", ("count", "curves.m_of_order_routes")),
    ("curves.oracle_s", "s", ("total", "curves.oracle_s")),
    ("localfactors.self_s", "s", ("self", "localfactors")),
    ("localfactors.euler_factors", "count",
     ("count", "localfactors.group_factor", "localfactors.order_factor")),
    ("localfactors.euler_products", "count",
     ("count", "localfactors.k_of_group", "localfactors.k_of_order")),
    ("localfactors.local_sums_s", "s", ("total", "localfactors.local_sums_s")),
    ("matrixcounts.self_s", "s", ("self", "matrixcounts")),
    ("matrixcounts.cells_scanned", "count", ("count", "matrixcounts.cells_scanned")),
    ("matrixcounts.count_c_brute.calls", "count", ("count", "matrixcounts.count_c_brute")),
]

# Metrics that read 0 on some workload by construction (no oracle outside
# verify, no local sums in orders); printed and saved, but not part of the
# JSON result line, where a time must never read the same on every run.
SIDE_ONLY = {"curves.oracle_s", "localfactors.local_sums_s"}

# Layer(s) expected to lead self time on each workload.
LEADS = {
    "census": ("localfactors",),
    "orders": ("quadforms",),
    "verify": ("matrixcounts", "curves"),
}


def _python_env() -> dict:
    """The checkout's sources on the path, with bytecode caching on, as for an
    installed package, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(cmd: list[str], scratch: Path) -> dict:
    """Run one process to exit; wall time from launch to reaping, its own peak RSS."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=_python_env())
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def setup_time() -> float:
    """Wall time from launching an interpreter until `import curvecensus.cli` returns."""
    code = "import curvecensus.cli, sys; sys.stdout.write('ok'); sys.stdout.flush()"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, cwd=ROOT, env=_python_env()) as proc:
        try:
            ready = proc.stdout.read(2)
            elapsed = time.perf_counter() - start
            status = proc.wait(timeout=REQUEST_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
    if status != 0 or ready != b"ok":
        raise RuntimeError("importing curvecensus.cli failed")
    return elapsed


def run_request(req, scratch: Path, traced_id: str | None = None) -> dict:
    """Launch one request (plainly, or through the tracer) and check its output."""
    import checks  # imports curvecensus, so only after main() has found the sources

    if traced_id is None:
        cmd = [sys.executable, "-m", "curvecensus.cli", *req.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(scratch / "trace.json"),
               traced_id, *req.argv]
    rec = launch(cmd, scratch)
    if rec["exit_code"] != 0:
        problem, results = f"exit code {rec['exit_code']}", 0
    elif b"Traceback" in rec["stderr"]:
        problem, results = "traceback on stderr", 0
    else:
        problem, results = checks.check(req, rec["stdout"])
    rec.update(
        kind=req.kind,
        argv=list(req.argv),
        ok=problem is None,
        problem=problem,
        results=results if problem is None else 0,
        stdout_sha256=hashlib.sha256(rec["stdout"]).hexdigest(),
    )
    if traced_id is not None and rec["exit_code"] == 0:
        rec["trace"] = json.loads((scratch / "trace.json").read_text())
    del rec["stdout"], rec["stderr"]
    return rec


def replay(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    """Whole blocks of the workload until `seconds` of request time is measured.

    Untraced runs launch a set-up probe after every second request, up to
    SETUP_LAUNCHES, so set-up is sampled across the run, not in one burst.
    """
    records, pairs, setup, measured, nblocks = [], [], [], 0.0, 0
    if not trace:
        setup_time()  # the first launch may still be writing bytecode caches
    for block in workloads.blocks(workload, seed):
        for i, req in enumerate(block):
            rec = run_request(req, scratch)
            records.append(rec)
            measured += rec["wall_s"]
            if not trace and len(records) % 2 == 0 and len(setup) < SETUP_LAUNCHES:
                setup.append(setup_time())
            if trace:
                traced = run_request(req, scratch, f"{nblocks}.{i}")
                if traced["ok"] and traced["stdout_sha256"] != rec["stdout_sha256"]:
                    traced.update(ok=False, problem="traced stdout differs from the plain run")
                pairs.append((rec, traced))
                measured += traced["wall_s"]
        nblocks += 1
        if measured >= seconds:
            return records, pairs, setup, nblocks


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """Value and percentile of the highest percentile with >= 10 samples beyond it.

    Nearest-rank: percentile q reads the ceil(q n / 100)-th smallest value.
    With fewer than 11 samples it falls back to the maximum (percentile 100).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    q = 100 * (n - TAIL_BEYOND) // n
    return xs[math.ceil(q * n / 100) - 1], q


def end_to_end(records: list[dict], setup: list[float], unit: str) -> dict:
    good = [r for r in records if r["ok"]]
    latencies = [r["wall_s"] for r in good]
    wall = sum(r["wall_s"] for r in records)
    results = sum(r["results"] for r in good)
    failed = len(records) - len(good)
    tail, q = tail_latency(latencies) if latencies else (float("nan"), 0)
    n = len(latencies)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} launches"),
        "latency_p50_s": (statistics.median(latencies) if latencies else float("nan"), "s",
                          f"n={n}"),
        "latency_tail_s": (tail, "s", f"p{q}, n={n}, {min(TAIL_BEYOND, n - 1)} beyond"),
        "results_per_s": (results / wall, "results/s",
                          f"{results} {unit} in {wall:.2f} s over n={len(records)} requests"),
        "fail_ratio": (failed / len(records), "ratio", f"{failed}/{len(records)}"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB",
                        f"max over n={len(records)} requests"),
    }


def per_layer(traces: list[dict]) -> dict:
    """Per-layer metrics from tracer reports: means per traced request, or ratios."""
    n = max(len(traces), 1)  # no traces only when every traced request failed

    def count(key):
        return sum(t["counts"].get(key, 0) for t in traces)

    out = {}
    for name, unit, source in PER_LAYER:
        kind, keys = source[0], source[1:]
        if kind == "self":
            value = sum(t["self_s"][keys[0]] for t in traces) / n
        elif kind == "total":
            value = sum(t["totals"][keys[0]] for t in traces) / n
        elif kind == "count":
            value = sum(count(k) for k in keys) / n
        else:
            den = count(keys[1])
            value = count(keys[0]) / den if den else 0.0
        out[name] = (value, unit, f"per traced request, n={n}" if kind != "ratio" else f"n={n}")
    return out


def overhead(pairs: list[tuple[dict, dict]]) -> tuple:
    plain = sum(p["wall_s"] for p, _ in pairs)
    traced = sum(t["wall_s"] for _, t in pairs)
    return traced / plain, "ratio", f"{traced:.2f} s traced / {plain:.2f} s plain, n={len(pairs)}"


def lead_check(workload: str, layers: dict) -> str | None:
    """None when the expected layer(s) lead self time, else a one-line reason."""
    lead = LEADS[workload]
    self_s = {name.split(".")[0]: v for name, (v, _, _) in layers.items()
              if name.endswith(".self_s")}
    ours = sum(self_s[x] for x in lead)
    rival = max((v, k) for k, v in self_s.items() if k not in lead)
    if ours > rival[0]:
        return None
    return (f"{'+'.join(lead)} self time {ours:.4f} s does not lead on {workload}: "
            f"{rival[1]} has {rival[0]:.4f} s")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = OUT / f"{workload}-{seed}-{int(trace)}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = context(seed)
    records, pairs, setup, nblocks = replay(workload, seed, seconds, trace, scratch)
    ctx["loadavg_end"] = os.getloadavg()
    attempted = records + [t for _, t in pairs]
    failed = sum(not r["ok"] for r in attempted)
    unit = workloads.WORKLOADS[workload][1]
    if trace:
        metrics = per_layer([t["trace"] for _, t in pairs if t.get("trace")])
        metrics["trace.overhead_ratio"] = overhead(pairs)
        problem = lead_check(workload, metrics)
    else:
        metrics, problem = end_to_end(records, setup, unit), None
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "blocks": nblocks,
        "result_unit": unit,
        "context": ctx,
        "setup_launches_s": setup,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "lead_check": problem or "ok",
        "requests": [{k: v for k, v in r.items() if k != "trace"} for r in attempted],
        "traces": [t["trace"] for _, t in pairs if t.get("trace")],
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(doc, indent=1))

    print(f"# {workload} seed {seed} trace {int(trace)}: {len(attempted)} requests in "
          f"{nblocks} blocks, {failed} failed; nproc {ctx['nproc']}, "
          f"load {ctx['loadavg_start'][0]:.2f} -> {ctx['loadavg_end'][0]:.2f}")
    for name, (value, unit_, samples) in metrics.items():
        print(f"{workload:7s} {name:40s} {value:14.6g} {unit_:10s} ({samples})")
    for r in attempted:
        if not r["ok"]:
            print(f"FAILED {' '.join(r['argv'])}: {r['problem']}", file=sys.stderr)
    if problem:
        print(f"LAYER CHECK FAILED: {problem}", file=sys.stderr)
    return {"attempted": len(attempted), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["census", "orders", "verify", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "curvecensus" / "cli.py").is_file():
        print(f"error: no curvecensus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        plan = [(w, t) for t in (False, True) for w in ("census", "orders", "verify")]
    else:
        plan = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    metrics = {}
    for workload, trace in plan:
        res = run(workload, args.seed, args.seconds, trace)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit, _) in res["metrics"].items():
            if name not in SIDE_ONLY and name != "fail_ratio":
                metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
