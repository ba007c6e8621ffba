"""Traced entry point: one curvecensus CLI request with per-layer spans and counters.

Usage: python perfbench/tracer.py TRACE_OUT REQUEST_ID [CLI ARGS...]

It times the import of each package module, rebinds every public function
of the six layer modules in every curvecensus module that binds that name
(localfactors.kronecker is arith.kronecker, so both bindings are replaced),
calls cli.main(argv) and writes the per-layer aggregates to TRACE_OUT as
JSON.  The CLI's stdout and exit code are those of a plain
`python -m curvecensus.cli` run.

Coarse functions get spans (name, start, end, parent, request id); a
layer's self time is the duration of its spans minus the part covered by
their child spans, and includes the time to import the layer's module.
Hot leaves get call counts only, so their time falls to the calling span.
Spans are reduced as they close; the ones at depth <= 3 are also kept and
written out.
"""

from __future__ import annotations

import importlib.machinery
import inspect
import json
import sys
import threading
import time
from collections import Counter

LAYERS = ("cli", "arith", "quadforms", "curves", "localfactors", "matrixcounts")
PACKAGE = "curvecensus"
HOT_LEAVES = {"kronecker", "is_prime", "valuation", "class_data", "in_hasse_window"}
KEPT_DEPTH = 3

# Span durations summed under one name; nested members count once.
SPAN_TOTALS = {
    "quadforms.table_build_s": {"quadforms.precompute_class_numbers"},
    "curves.oracle_s": {"curves.brute_force_tally"},
    "localfactors.local_sums_s": {
        "localfactors.t_of_n", "localfactors.script_j", "localfactors.j_r_v",
    },
}
_TOTAL_OF = {name: key for key, names in SPAN_TOTALS.items() for name in names}

now = time.perf_counter


class Span:
    __slots__ = ("name", "layer", "parent", "start", "child_s", "cross", "thread", "depth")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.depth = parent.depth + 1 if parent is not None else 0
        self.child_s = 0.0  # children on the same thread never overlap
        self.cross = []  # (start, end) of children on other threads, may overlap
        self.start = now()


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


class Tracer:
    """Span stacks per thread; counters per thread, merged at the end."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.local = threading.local()
        self.all_stats = []  # one (self_s, totals, counts) triple per thread
        self.kept = []
        self.lock = threading.Lock()
        self.main_stack = self._state()[0]

    def _state(self):
        st = getattr(self.local, "state", None)
        if st is None:
            st = ([], Counter(), Counter(), Counter())
            self.local.state = st
            self.all_stats.append(st[1:])
        return st

    def open(self, name: str, layer: str | None) -> Span:
        stack, _, _, counts = self._state()
        if stack:
            parent = stack[-1]
        else:  # a pool worker: caused by whatever the main thread is running
            parent = self.main_stack[-1] if self.main_stack else None
        span = Span(name, layer, parent, threading.get_ident())
        stack.append(span)
        counts[name] += 1
        return span

    def close(self, span: Span) -> None:
        end = now()
        stack, self_s, totals, _ = self._state()
        stack.pop()
        dur = end - span.start
        covered = span.child_s + _union_length(span.cross)
        if span.layer is not None:
            self_s[span.layer] += dur - covered
        key = _TOTAL_OF.get(span.name)
        if key is not None and not self._inside(span.parent, SPAN_TOTALS[key]):
            totals[key] += dur
        parent = span.parent
        if parent is not None:
            if parent.thread == span.thread:
                parent.child_s += dur
            else:
                with self.lock:
                    parent.cross.append((span.start, end))
        if span.depth <= KEPT_DEPTH:
            with self.lock:
                self.kept.append({
                    "name": span.name,
                    "request": self.request_id,
                    "parent": parent.name if parent is not None else None,
                    "start": span.start,
                    "end": end,
                })

    @staticmethod
    def _inside(span, names) -> bool:
        while span is not None:
            if span.name in names:
                return True
            span = span.parent
        return False

    def count(self, key: str, n: int = 1) -> None:
        self._state()[3][key] += n

    def report(self) -> dict:
        self_s, totals, counts = Counter(), Counter(), Counter()
        for s, t, c in self.all_stats:
            self_s.update(s)
            totals.update(t)
            counts.update(c)
        return {
            "request": self.request_id,
            "self_s": {layer: self_s[layer] for layer in LAYERS},
            "totals": {key: totals[key] for key in SPAN_TOTALS},
            "counts": dict(counts),
            "spans": sorted(self.kept, key=lambda s: s["start"]),
        }


# --- derived counters, computed from arguments and results -------------------


def _valuation(ell: int, n: int) -> int:
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _grid_cells(ell: int, e: int, u: int) -> int:
    return 0 if u >= e else (ell ** (e - u)) ** 4


def _after_hooks():
    """Qualified name -> hook(tracer, args, result) run after a successful call."""

    def is_prime(t, args, result):
        t.count("arith.is_prime.primes", bool(result))

    def window(t, args, result):
        t.count("curves.window_primes", len(getattr(result, "primes", result)))

    def count_c_brute(t, args, result):
        q = args[0]
        t.count("matrixcounts.cells_scanned", _grid_cells(q.ell, q.e, _valuation(q.ell, q.n_torsion)))

    def count_c_fibers(t, args, result):
        ell, e = args[0], args[1]
        u = args[2] if len(args) > 2 else 0
        t.count("matrixcounts.cells_scanned", _grid_cells(ell, e, u))

    def det_count_brute(t, args, result):
        mod = args[1] ** args[2]
        t.count("matrixcounts.cells_scanned", 0 if mod == 1 else mod**4)

    return {
        "arith.is_prime": is_prime,
        "curves.hasse_window": window,
        "curves.window_primes_in_class": window,
        "matrixcounts.count_c_brute": count_c_brute,
        "matrixcounts.count_c_fibers": count_c_fibers,
        "matrixcounts.det_count_brute": det_count_brute,
    }


def _before_hooks(quadforms):
    """Qualified name -> hook(tracer, args) run before the call."""

    def class_data(t, args):
        if quadforms._h_table is not None and -args[0] <= quadforms._h_table_limit:
            t.count("quadforms.class_data.table_hits")

    def precompute(t, args):
        limit = args[0]
        if limit > quadforms._h_table_limit:
            # discriminants 0 or 1 mod 4 with 3 <= |d| <= limit
            t.count("quadforms.table_entries", (limit + 1) // 4 + limit // 4)

    return {
        "quadforms.class_data": class_data,
        "quadforms.precompute_class_numbers": precompute,
    }


# --- wrapping ----------------------------------------------------------------


def _is_leaf(name: str, fn) -> bool:
    return name in HOT_LEAVES or name.endswith("_factor") or inspect.isgeneratorfunction(fn)


def _wrap(tracer: Tracer, fn, qualname: str, layer: str, before, after):
    if _is_leaf(fn.__name__, fn):
        def counted(*args, **kwargs):
            tracer.count(qualname)
            if before is not None:
                before(tracer, args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return counted

    def spanned(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        span = tracer.open(qualname, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, args, result)
        return result

    return spanned


def instrument(tracer: Tracer) -> None:
    """Rebind every public layer function wherever a curvecensus module binds it."""
    modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
    before = _before_hooks(modules["quadforms"])
    after = _after_hooks()
    wrapped = {}
    for layer, module in modules.items():
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            qualname = f"{layer}.{name}"
            wrapped[id(fn)] = (fn, _wrap(tracer, fn, qualname, layer,
                                         before.get(qualname), after.get(qualname)))
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for name, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])


class _ImportTimer:
    """Meta-path finder that puts a span around each layer module's execution."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        layer = fullname.removeprefix(PACKAGE + ".")
        if layer not in LAYERS or not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def timed_exec(module):
            span = tracer.open(f"{layer}.import", layer)
            try:
                exec_module(module)
            finally:
                tracer.close(span)

        spec.loader.exec_module = timed_exec
        return spec


def main(argv: list[str]) -> int:
    trace_out, request_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(request_id)
    root = tracer.open("request", None)
    code = 1
    try:
        sys.meta_path.insert(0, _ImportTimer(tracer))
        import curvecensus.cli as cli

        instrument(tracer)
        code = cli.main(cli_argv)
        sys.stdout.flush()
    finally:
        tracer.close(root)
        report = tracer.report()
        report["argv"] = cli_argv
        report["exit_code"] = code
        with open(trace_out, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
