"""Command-line front end: census tables, constants, and verification suites.

Subcommands: mg (count by group shape), mn (count by order), grid (shape
table), constants (local constants for a shape/order), matrix (one matrix
count), verify (dual-route suites).  Output is CSV or JSON with a fixed
column order and floats printed to 10 significant digits, so identical
invocations are byte-identical.  Everything runs on one thread; --threads
is accepted, validated and echoed in the JSON config for compatibility, and
changes neither the work nor the output.  Class numbers are tabulated in
memory for each run; nothing is cached on disk.  Exit codes: 0 success, 1
verification mismatch or disagreeing computation routes, 2 usage error
(including an output path that cannot be written or a class-number table
above its cap).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import curves, localfactors, matrixcounts, quadforms
from .arith import is_prime, primes_up_to, valuation
from .errors import ConsistencyError

USAGE_ERROR = 2


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    format: str = "csv"
    cutoff: int = localfactors.DEFAULT_CUTOFF
    output_path: str | None = None
    threads: int = 1


def _fmt_float(x: float) -> str:
    return format(x, ".10g")


def _fmt_frac(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _emit(config: RunConfig, columns: list[str], rows: list[list],
          summary: dict | None = None, suite: str | None = None,
          mismatches: int | None = None) -> None:
    if config.format == "json":
        doc: dict = {"command": config.command}
        if suite is not None:
            doc["suite"] = suite
        doc["config"] = {
            "format": config.format,
            "cutoff": config.cutoff,
            "threads": config.threads,
            **config.parameters,
        }
        doc["columns"] = columns
        doc["rows"] = rows
        if summary is not None:
            doc["summary"] = summary
        if mismatches is not None:
            doc["checked"] = len(rows)
            doc["mismatches"] = mismatches
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if config.output_path:
        try:
            with open(config.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:  # reported as a usage error, like a bad argument
            raise ValueError(f"cannot write {config.output_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# --- subcommands ------------------------------------------------------------


def _main_term_cells(m: int, k: int, total: Fraction, cutoff: int):
    """#Aut, the K(m, k) table, and the main-term and ratio cells of a shape.

    Both cells are empty for the trivial group (log 1 = 0).  The float
    expression fixes the printed digits: conjectural_main_term groups it
    differently and can differ in the last bit.
    """
    n = m * m * k
    aut = localfactors.aut_order(m, k)
    table = localfactors.k_of_group(m, k, cutoff)
    if n < 2:
        return aut, table, "", ""
    main = table.truncated_value * n * n / (aut * math.log(n))
    return aut, table, _fmt_float(main), _fmt_float(float(total) / main)


def cmd_mg(config: RunConfig, m: int, k: int, per_prime: bool) -> int:
    n = m * m * k
    quadforms.precompute_class_numbers(max(4 * k + 4, 16))
    terms = [
        (p, curves.m_p_of_group(m, k, p)) for p in curves.window_primes_in_class(n, m)
    ]
    total = sum((t for _, t in terms), Fraction(0))
    aut, table, main_s, ratio_s = _main_term_cells(m, k, total, config.cutoff)
    summary = {
        "m": m,
        "k": k,
        "n": n,
        "m_of_group": _fmt_frac(total),
        "m_of_group_decimal": _fmt_float(float(total)),
        "delta": _fmt_float(curves.delta_statistic(m, k)),
        "aut_order": aut,
        "k_shape_truncated": _fmt_float(table.truncated_value),
        "k_shape_tail_bound": _fmt_float(table.tail_bound),
        "main_term": main_s,
        "ratio": ratio_s,
    }
    if per_prime:
        columns = ["p", "term", "term_decimal"]
        rows = [[p, _fmt_frac(t), _fmt_float(float(t))] for p, t in terms]
    else:
        columns = list(summary.keys())
        rows = [list(summary.values())]
    _emit(config, columns, rows, summary=summary)
    return 0


def cmd_mn(config: RunConfig, n: int, x: int | None) -> int:
    quadforms.precompute_class_numbers(max(4 * n + 4, 16))
    shapes = curves.order_decomposition(n)
    terms = [(m, k, curves.m_of_group(m, k)) for m, k in shapes]
    total = sum((t for _, _, t in terms), Fraction(0))
    by_primes = curves.m_of_order_by_primes(n)
    if by_primes != total:
        raise ConsistencyError(
            f"M({n}) routes disagree: {by_primes} by primes, {total} by shapes"
        )
    x_eff = x if x is not None else math.isqrt(n)
    truncated = sum((t for m, _, t in terms if m <= x_eff), Fraction(0))
    table = localfactors.k_of_order(n, config.cutoff)
    summary = {
        "n": n,
        "m_of_order": _fmt_frac(total),
        "m_of_order_decimal": _fmt_float(float(total)),
        "eta": _fmt_float(curves.eta_statistic(n)),
        "k_order_truncated": _fmt_float(table.truncated_value),
        "k_order_tail_bound": _fmt_float(table.tail_bound),
        "x": x_eff,
        "truncated_sum": _fmt_frac(truncated),
        "residual": _fmt_frac(total - truncated),
    }
    columns = ["m", "k", "term", "term_decimal"]
    rows = [[m, k, _fmt_frac(t), _fmt_float(float(t))] for m, k, t in terms]
    _emit(config, columns, rows, summary=summary)
    return 0


def cmd_grid(config: RunConfig, mmax: int, kmax: int) -> int:
    quadforms.precompute_class_numbers(max(4 * kmax + 4, 16))
    rows = []
    for m in range(1, mmax + 1):
        for k in range(1, kmax + 1):
            total = curves.m_of_group(m, k)
            aut, table, main_s, ratio_s = _main_term_cells(m, k, total, config.cutoff)
            rows.append([
                m, k, m * m * k,
                _fmt_frac(total), _fmt_float(float(total)),
                aut,
                _fmt_float(table.truncated_value),
                main_s, ratio_s,
            ])
    columns = [
        "m", "k", "n", "m_of_group", "m_of_group_decimal",
        "aut_order", "k_shape_truncated", "main_term", "ratio",
    ]
    _emit(config, columns, rows)
    return 0


def cmd_constants(config: RunConfig, m: int, k: int, n: int | None) -> int:
    shape_table = localfactors.k_of_group(m, k, config.cutoff)
    rows = [
        ["m", str(m)],
        ["k", str(k)],
        ["group_order", str(m * m * k)],
        ["aut_order", str(localfactors.aut_order(m, k))],
        ["k_shape_truncated", _fmt_float(shape_table.truncated_value)],
        ["k_shape_tail_bound", _fmt_float(shape_table.tail_bound)],
        ["two_adic_constant", _fmt_frac(localfactors.script_j(m, k))],
        ["delta", _fmt_float(curves.delta_statistic(m, k))],
    ]
    if n is not None:
        order_table = localfactors.k_of_order(n, config.cutoff)
        rows += [
            ["n", str(n)],
            ["k_order_truncated", _fmt_float(order_table.truncated_value)],
            ["k_order_tail_bound", _fmt_float(order_table.tail_bound)],
            ["eta", _fmt_float(curves.eta_statistic(n))],
        ]
    _emit(config, ["quantity", "value"], rows)
    return 0


def cmd_matrix(config: RunConfig, n: int, tor: int, ell: int, e: int) -> int:
    v = valuation(ell, n)
    q = matrixcounts.MatrixCountQuery(n, tor, ell, e)
    closed = str(matrixcounts.count_c_closed(q)) if e > v else ""
    try:
        brute = str(matrixcounts.count_c_brute(q))
    except ValueError:  # enumeration budget exceeded
        brute = ""
    density = ""
    if n % (tor * tor) == 0:
        density = _fmt_frac(matrixcounts.euler_density(n, tor, ell))
    rows = [[n, tor, ell, e, closed, brute, str(matrixcounts.gl2_order(ell, e)), density]]
    columns = ["n", "torsion", "ell", "e", "count_closed", "count_brute", "gl2_order", "density"]
    _emit(config, columns, rows)
    return 0


# --- verify suites ----------------------------------------------------------


def _suite_oracle(pmax: int) -> list[list]:
    prime_list = [p for p in range(2, pmax + 1) if is_prime(p)]
    quadforms.precompute_class_numbers(max(16 * pmax, 64))
    rows = []
    for p in prime_list:
        tally = curves.brute_force_tally(p)
        shapes = sorted(set(tally.entries) | set(curves.admissible_shapes(p)))
        for s in shapes:
            lhs = tally.entries.get(s, Fraction(0))
            rhs = curves.m_p_of_group(s.m, s.k, p)
            rows.append(
                [f"p={p} m={s.m} k={s.k}", _fmt_frac(lhs), _fmt_frac(rhs), lhs == rhs]
            )
    return rows


def _suite_matrix(lmax: int, emax: int, nmax: int) -> list[list]:
    rows = []
    for ell in primes_up_to(lmax):
        for e in range(1, emax + 1):
            fibers = matrixcounts.count_c_fibers(ell, e, 0)
            rows.append(
                [
                    f"fiber-partition l={ell} e={e}",
                    str(int(fibers.sum())),
                    str(matrixcounts.gl2_order(ell, e)),
                    int(fibers.sum()) == matrixcounts.gl2_order(ell, e),
                ]
            )
            for n in range(1, nmax + 1):
                v = valuation(ell, n)
                if e <= v:
                    continue
                for uu in range(0, v // 2 + 1):
                    q = matrixcounts.MatrixCountQuery(n, ell**uu, ell, e)
                    brute = matrixcounts.count_c_brute(q)
                    closed = matrixcounts.count_c_closed(q)
                    rows.append(
                        [
                            f"count l={ell} e={e} n={n} u={uu}",
                            str(brute),
                            str(closed),
                            brute == closed,
                        ]
                    )
    for ell in primes_up_to(lmax):
        e = 1
        while ell**e <= 27:
            for m_det in range(1, 17):
                if valuation(ell, m_det) > e:
                    continue
                brute = matrixcounts.det_count_brute(m_det, ell, e)
                closed = matrixcounts.det_count_closed(m_det, ell, e)
                rows.append(
                    [f"det l={ell} e={e} M={m_det}", str(brute), str(closed), brute == closed]
                )
            e += 1
    return rows


def _suite_local() -> list[list]:
    rows = []
    for ell in (3, 5):
        for w in (1, 2):
            for m in range(1, ell * ell + 1):
                for k in range(1, ell * ell + 1):
                    if k % ell == 0:
                        continue
                    enum = localfactors.t_of_n(ell**w, m, k)
                    closed = localfactors.t_closed_form(ell, w, m, k)
                    rows.append(
                        [f"T l={ell} w={w} m={m} k={k}", str(enum), str(closed), enum == closed]
                    )
    for ell in (3, 5, 7):
        for m in range(1, 7):
            for k in range(1, 7):
                if (2 * k) % ell == 0:
                    continue
                closed = localfactors.p_of_ell(ell, m, k)
                series = localfactors.p_of_ell_series(ell, m, k)
                ok = abs(closed - series) <= Fraction(2, ell**12)
                rows.append(
                    [f"P l={ell} m={m} k={k}", _fmt_frac(closed), _fmt_frac(series), ok]
                )
    for m in range(1, 9):
        for k in range(1, 9):
            val = localfactors.script_j(m, k)  # raises on dual-route mismatch
            ok = val in (Fraction(2, 3), Fraction(1), Fraction(3, 2))
            rows.append([f"scriptJ m={m} k={k}", _fmt_frac(val), _fmt_frac(val), ok])
    return rows


def _suite_constants(nmax: int, mmax: int, kmax: int, lmax: int) -> list[list]:
    rows = []
    for n in range(1, nmax + 1):
        for rec in matrixcounts.verify_kn_interpretation(n, lmax):
            rows.append(
                [
                    f"order n={n} l={rec['ell']}",
                    _fmt_frac(rec["constant_factor"]),
                    _fmt_frac(rec["density"]),
                    rec["equal"],
                ]
            )
    for m in range(1, mmax + 1):
        for k in range(1, kmax + 1):
            for rec in matrixcounts.verify_kg_interpretation(m, k, lmax):
                rows.append(
                    [
                        f"shape m={m} k={k} l={rec['ell']}",
                        _fmt_frac(rec["constant_factor"]),
                        _fmt_frac(rec["density_difference"]),
                        rec["equal"],
                    ]
                )
    return rows


def _suite_identity(nmax: int) -> list[list]:
    quadforms.precompute_class_numbers(4 * nmax + 16)
    rows = []
    for n in range(1, nmax + 1):
        by_primes, by_shapes = curves.m_of_order_routes(n)
        rows.append([f"n={n}", _fmt_frac(by_primes), _fmt_frac(by_shapes), by_primes == by_shapes])
    return rows


def cmd_verify(config: RunConfig, suite: str, args) -> int:
    if suite == "oracle":
        rows = _suite_oracle(args.pmax)
    elif suite == "matrix":
        rows = _suite_matrix(args.lmax, args.emax, args.nmax)
    elif suite == "local":
        rows = _suite_local()
    elif suite == "constants":
        rows = _suite_constants(args.nmax, args.mmax, args.kmax, args.lmax)
    else:
        rows = _suite_identity(args.nmax)
    mismatches = sum(1 for r in rows if not r[3])
    _emit(config, ["check", "lhs", "rhs", "equal"], rows, suite=suite, mismatches=mismatches)
    return 1 if mismatches else 0


# --- argument parsing -------------------------------------------------------


def _common_flags(top_level: bool) -> argparse.ArgumentParser:
    """Shared flags, accepted both before and after the subcommand.

    The subcommand copy suppresses defaults so it never clobbers values
    parsed at the top level.
    """
    miss = argparse.SUPPRESS
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", choices=["csv", "json"],
                   default="csv" if top_level else miss)
    p.add_argument("--cutoff", type=int,
                   default=localfactors.DEFAULT_CUTOFF if top_level else miss,
                   help="Euler product truncation (default 100000)")
    p.add_argument("--out", metavar="PATH", default=None if top_level else miss)
    p.add_argument("--threads", type=int, default=1 if top_level else miss,
                   help="accepted for compatibility; has no effect on the work or the output")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecensus",
        description="Exact weighted counts of elliptic curve groups over prime fields.",
        parents=[_common_flags(True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags(False)

    p = sub.add_parser("mg", parents=[common], help="weighted count for the group Z/m x Z/mk")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--per-prime", action="store_true")

    p = sub.add_parser("mn", parents=[common], help="weighted count for a fixed order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, default=None, help="truncation point of the shape sum")

    p = sub.add_parser("grid", parents=[common], help="table of counts over a shape rectangle")
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = sub.add_parser("constants", parents=[common],
                       help="local constants for a shape (and order)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("matrix", parents=[common], help="one matrix fiber count")
    p.add_argument("--n", type=int, required=True, help="order target of det + 1 - tr")
    p.add_argument("--tor", type=int, default=1, help="torsion level")
    p.add_argument("--l", dest="ell", type=int, required=True)
    p.add_argument("--e", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="run a dual-route verification suite")
    p.add_argument("suite", choices=["oracle", "matrix", "local", "constants", "identity"])
    p.add_argument("--pmax", type=int, default=13)
    p.add_argument("--lmax", type=int, default=3)
    p.add_argument("--emax", type=int, default=3)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--kmax", type=int, default=5)
    return parser


def _validate(args) -> str | None:
    if args.cutoff < 100:
        return "cutoff must be >= 100"
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        return f"directory of {args.out} does not exist"
    if args.threads < 1:
        return "threads must be >= 1"
    if args.command == "mg" and (args.m < 1 or args.k < 1):
        return "m and k must be >= 1"
    if args.command == "mn" and args.n < 1:
        return "n must be >= 1"
    if args.command == "grid" and (args.mmax < 1 or args.kmax < 1):
        return "mmax and kmax must be >= 1"
    if args.command == "constants" and (args.m < 1 or args.k < 1):
        return "m and k must be >= 1"
    if args.command == "matrix":
        if args.n < 1 or args.tor < 1 or args.e < 1:
            return "n, tor and e must be >= 1"
        if not is_prime(args.ell):
            return f"{args.ell} is not prime"
    if args.command == "verify":
        if args.nmax is None:
            args.nmax = {"matrix": 12, "constants": 12, "identity": 500}.get(args.suite, 12)
        if args.pmax < 2 or args.pmax > curves.ORACLE_PRIME_CAP:
            return f"pmax must be in [2, {curves.ORACLE_PRIME_CAP}]"
        if min(args.lmax, args.emax, args.nmax, args.mmax, args.kmax) < 1:
            return "suite bounds must be >= 1"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    problem = _validate(args)
    if problem is not None:
        sys.stderr.write(f"error: {problem}\n")
        return USAGE_ERROR

    config = RunConfig(
        command=args.command,
        parameters={
            key: val
            for key, val in vars(args).items()
            if key not in {"format", "cutoff", "out", "threads", "command"}
            and val is not None
        },
        format=args.format,
        cutoff=args.cutoff,
        output_path=args.out,
        threads=args.threads,
    )

    try:
        if args.command == "mg":
            code = cmd_mg(config, args.m, args.k, args.per_prime)
        elif args.command == "mn":
            code = cmd_mn(config, args.n, args.x)
        elif args.command == "grid":
            code = cmd_grid(config, args.mmax, args.kmax)
        elif args.command == "constants":
            code = cmd_constants(config, args.m, args.k, args.n)
        elif args.command == "matrix":
            code = cmd_matrix(config, args.n, args.tor, args.ell, args.e)
        else:
            code = cmd_verify(config, args.suite, args)
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except ConsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
