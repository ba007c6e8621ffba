"""Command-line front end: census tables, constants, and verification suites.

Subcommands: mg (count by group shape), mn (count by order), grid (shape
table), constants (local constants for a shape/order), matrix (one matrix
count), verify (dual-route suites).  Each quantity is computed in the
library module that owns it, and the commands format it.  The verify
suites compare the two routes here: _check tests exact equality, and
_suite_local accepts P(l) when its series lies within 2/l^12 of the closed
form; mn's two routes of M(n) are compared in curves.  Output is CSV or
JSON with a fixed column order and floats printed to 10 significant
digits, so identical invocations are byte-identical.  The k_*_truncated
cells print the constants K in closed form, the twin-prime constant times
a finite rational, so no Euler product is truncated.  Everything runs on
one thread; --threads is accepted, validated and echoed in the JSON
config for compatibility, and changes neither the work nor the output.
Class numbers are memoized in memory for the run: verify identity fills
the memo from one table of every discriminant down to -4 nmax (up to
quadforms.TABLE_CAP) before its first row, and every other command, and
any d past the cap, counts each discriminant on first use.  Nothing is
cached on disk, and no command loads a module outside the standard library.
The import loads only what a command uses: the records are named tuples,
json is imported only for JSON output, and a CSV row is its cells joined
by commas, since no cell holds a comma, quote or line break.

The argparse parser is the only place input is checked and the only
dispatch table: its type converters bound every number and path, and each
subcommand names its cmd_* function.  The global flags --format, --out
and --threads are declared once, on a parent of the top-level parser, so
they go before the subcommand; after it they are unrecognized arguments, as
is an unknown option anywhere, which the error line names.  Exit
codes: 0 success (and --help), 1 verification mismatch or disagreeing
computation routes, 2 usage error.  Every usage error, whether from the
parser, an unwritable or empty output path, a closed stdout, a
class-number scan above its cap, a prime sieve above its cap or an order at
or above 2^64, is one `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import curves, localfactors, matrixcounts, quadforms
from .arith import is_prime, primes_up_to, valuation

USAGE_ERROR = 2


def _fmt_float(x: float) -> str:
    return format(x, ".10g")


def _fmt_frac(x: Fraction | int) -> str:
    return f"{x.numerator}/{x.denominator}"  # an int is n/1


def _emit(args, columns: list[str], rows: list[list],
          summary: dict | None = None, mismatches: int | None = None) -> None:
    if args.format == "json":
        import json

        doc: dict = {"command": args.command}
        if mismatches is not None:
            doc["suite"] = args.suite
        # the parser sets format, out and threads before the subcommand's arguments
        doc["config"] = {
            key: val for key, val in vars(args).items()
            if key not in {"out", "command", "run"} and val is not None
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
        text = "".join(",".join(map(str, row)) + "\n" for row in [columns, *rows])
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # reported as a usage error, like a bad argument
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    elif sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise ValueError("cannot write stdout: Bad file descriptor")
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a closed stdout; what is still buffered goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"cannot write stdout: {exc.strerror}") from exc


# --- subcommands ------------------------------------------------------------


_SHAPE_COLUMNS = [
    "m", "k", "n", "m_of_group", "m_of_group_decimal",
    "aut_order", "k_shape_truncated", "main_term", "ratio",
]


def _shape_row(m: int, k: int) -> list:
    """The cells of _SHAPE_COLUMNS for one shape: M(G), #Aut, K(m, k), main term, ratio.

    The main-term and ratio cells are empty for the trivial group (log 1 = 0).
    """
    n = m * m * k
    total = curves.m_of_group(m, k)
    aut = localfactors.aut_order(m, k)
    constant = localfactors.k_of_group(m, k)
    main_s = ratio_s = ""
    if n > 1:
        main = localfactors.main_term(n, aut, constant)
        main_s, ratio_s = _fmt_float(main), _fmt_float(float(total) / main)
    return [m, k, n, _fmt_frac(total), _fmt_float(float(total)),
            aut, _fmt_float(constant), main_s, ratio_s]


def cmd_mg(args) -> int:
    m, k = args.m, args.k
    row = _shape_row(m, k)
    row.insert(5, _fmt_float(curves.delta_statistic(m, k)))  # after m_of_group_decimal
    summary = dict(zip([*_SHAPE_COLUMNS[:5], "delta", *_SHAPE_COLUMNS[5:]], row))
    if args.per_prime:
        columns = ["p", "term", "term_decimal"]
        rows = [[p, _fmt_frac(t), _fmt_float(float(t))] for p, t in curves.window_terms(m, k)]
    else:
        columns = list(summary)
        rows = [row]
    _emit(args, columns, rows, summary=summary)
    return 0


def cmd_mn(args) -> int:
    n = args.n
    total, terms = curves.m_of_order_terms(n)
    x_eff = args.x if args.x is not None else math.isqrt(n)
    truncated = sum((t for m, _, t in terms if m <= x_eff), Fraction(0))
    summary = {
        "n": n,
        "m_of_order": _fmt_frac(total),
        "m_of_order_decimal": _fmt_float(float(total)),
        "eta": _fmt_float(curves.eta_statistic(n)),
        "k_order_truncated": _fmt_float(localfactors.k_of_order(n)),
        "x": x_eff,
        "truncated_sum": _fmt_frac(truncated),
        "residual": _fmt_frac(total - truncated),
    }
    columns = ["m", "k", "term", "term_decimal"]
    rows = [[m, k, _fmt_frac(t), _fmt_float(float(t))] for m, k, t in terms]
    _emit(args, columns, rows, summary=summary)
    return 0


def cmd_grid(args) -> int:
    curves.require_scannable(args.kmax)  # refuse the rectangle before its first row
    rows = [_shape_row(m, k)
            for m in range(1, args.mmax + 1) for k in range(1, args.kmax + 1)]
    _emit(args, _SHAPE_COLUMNS, rows)
    return 0


def cmd_constants(args) -> int:
    m, k, n = args.m, args.k, args.n
    rows = [
        ["m", str(m)],
        ["k", str(k)],
        ["group_order", str(m * m * k)],
        ["aut_order", str(localfactors.aut_order(m, k))],
        ["k_shape_truncated", _fmt_float(localfactors.k_of_group(m, k))],
        ["two_adic_constant", _fmt_frac(localfactors.script_j(m, k))],
        ["delta", _fmt_float(curves.delta_statistic(m, k))],
    ]
    if n is not None:
        rows += [
            ["n", str(n)],
            ["k_order_truncated", _fmt_float(localfactors.k_of_order(n))],
            ["eta", _fmt_float(curves.eta_statistic(n))],
        ]
    _emit(args, ["quantity", "value"], rows)
    return 0


def cmd_matrix(args) -> int:
    n, tor, ell, e = args.n, args.tor, args.ell, args.e
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
    _emit(args, columns, rows)
    return 0


# --- verify suites ----------------------------------------------------------


def _check(label: str, lhs, rhs, fmt=_fmt_frac) -> list:
    """One verify row: the check, both routes' values, and whether they are equal."""
    return [label, fmt(lhs), fmt(rhs), lhs == rhs]


def _suite_oracle(pmax: int) -> list[list]:
    rows = []
    for p in primes_up_to(pmax):
        tally = curves.brute_force_tally(p)
        shapes = sorted(set(tally.entries) | set(curves.admissible_shapes(p)))
        for s in shapes:
            lhs = tally.entries.get(s, Fraction(0))
            rows.append(_check(f"p={p} m={s.m} k={s.k}", lhs, curves.m_p_of_group(s.m, s.k, p)))
    return rows


def _suite_matrix(lmax: int, emax: int, nmax: int) -> list[list]:
    rows = []
    for ell in primes_up_to(lmax):
        for e in range(1, emax + 1):
            total = sum(matrixcounts.count_c_fibers(ell, e, 0))
            rows.append(_check(f"fiber-partition l={ell} e={e}", total,
                               matrixcounts.gl2_order(ell, e), str))
            for n in range(1, nmax + 1):
                v = valuation(ell, n)
                if e <= v:
                    continue
                for uu in range(0, v // 2 + 1):
                    q = matrixcounts.MatrixCountQuery(n, ell**uu, ell, e)
                    rows.append(_check(f"count l={ell} e={e} n={n} u={uu}",
                                       matrixcounts.count_c_brute(q),
                                       matrixcounts.count_c_closed(q), str))
    for ell in primes_up_to(lmax):
        e = 1
        while ell**e <= 27:
            for m_det in range(1, 17):
                if valuation(ell, m_det) > e:
                    continue
                rows.append(_check(f"det l={ell} e={e} M={m_det}",
                                   matrixcounts.det_count_brute(m_det, ell, e),
                                   matrixcounts.det_count_closed(m_det, ell, e), str))
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
                    rows.append(_check(f"T l={ell} w={w} m={m} k={k}",
                                       localfactors.t_of_n(ell**w, m, k),
                                       localfactors.t_closed_form(ell, w, m, k), str))
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
            rows.append(_check(f"scriptJ m={m} k={k}", localfactors.script_j(m, k),
                               localfactors.script_j_by_levels(m, k)))
    return rows


def _suite_constants(nmax: int, mmax: int, kmax: int, lmax: int) -> list[list]:
    ells = primes_up_to(lmax)
    rows = [_check(f"order n={n} l={ell}", matrixcounts.kn_local_factor(n, ell),
                   matrixcounts.euler_density(n, 1, ell))
            for n in range(1, nmax + 1) for ell in ells]
    rows += [_check(f"shape m={m} k={k} l={ell}", matrixcounts.kg_local_factor(m, k, ell),
                    matrixcounts.shape_density(m, k, ell))
             for m in range(1, mmax + 1) for k in range(1, kmax + 1) for ell in ells]
    return rows


def _suite_identity(nmax: int) -> list[list]:
    quadforms.tabulate_twelfths(4 * nmax)  # the window of n reads -4n <= d < 0
    return [_check(f"n={n}", *curves.m_of_order_routes(n)) for n in range(1, nmax + 1)]


def _suite_classnumbers(nmax: int) -> list[list]:
    """12 H_k(d) against the weighted walk, and M_p(G) against inclusion-exclusion."""
    rows = []
    for d in range(-3, -nmax - 1, -1):
        if d % 4 not in (0, 1):
            continue
        for k in dict.fromkeys((1, 2, 3, 4, 6, -d)):
            rows.append(_check(f"twelfths d={d} k={k}", quadforms.class_number_twelfths(d, k),
                               12 * quadforms.kronecker_class_number_weighted(d, k), str))
    for n in range(1, nmax + 1):
        for m, k in curves.order_decomposition(n):
            rows += [_check(f"inclusion-exclusion m={m} k={k} p={p}", lhs, rhs)
                     for (p, lhs), (_, rhs) in zip(curves.inclusion_exclusion_terms(m, k),
                                                   curves.window_terms(m, k))]
    return rows


_SUITES = {
    "oracle": lambda a: _suite_oracle(a.pmax),
    "matrix": lambda a: _suite_matrix(a.lmax, a.emax, a.nmax),
    "local": lambda a: _suite_local(),
    "constants": lambda a: _suite_constants(a.nmax, a.mmax, a.kmax, a.lmax),
    "identity": lambda a: _suite_identity(a.nmax),
    "classnumbers": lambda a: _suite_classnumbers(a.nmax),
}


def cmd_verify(args) -> int:
    if args.nmax is None:
        args.nmax = 500 if args.suite in ("identity", "classnumbers") else 12
    rows = _SUITES[args.suite](args)
    mismatches = sum(1 for r in rows if not r[3])
    _emit(args, ["check", "lhs", "rhs", "equal"], rows, mismatches=mismatches)
    return 1 if mismatches else 0


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a ValueError, which main prints as one line.

    argparse sets an unknown option before the subcommand aside and reads the
    argument after it as the subcommand, or, with no argument after it, says
    the subcommand is missing.  Either error names the arguments the global
    flags leave over instead, up to the one read as the subcommand, if any.
    """

    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if (message.startswith("argument command: invalid choice")
                or message == "the following arguments are required: command"):
            rest = self.flags.parse_known_args(self.argv)[1]
            # the first argument that is no option, such as 0 or -3, else the end
            end = [a[:1] == "-" and not a[1:2].isdigit() for a in rest + [""]].index(False)
            if end:
                message = "unrecognized arguments: " + " ".join(rest[:end + 1])
        raise ValueError(message)


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an int >= lo, and <= hi when hi is given."""
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be {bounds}")
        return value

    return convert


def _prime(text: str) -> int:
    value = _int_in(2)(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _out_path(path: str) -> str:
    if not path:
        raise argparse.ArgumentTypeError("empty path")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"directory of {path} does not exist")
    return path


def _build_parser() -> argparse.ArgumentParser:
    flags = _Parser(add_help=False)
    flags.add_argument("--format", choices=["csv", "json"], default="csv")
    flags.add_argument("--out", metavar="PATH", type=_out_path, default=None)
    flags.add_argument("--threads", type=_int_in(1), default=1,
                       help="accepted for compatibility; has no effect on the work or the output")
    parser = _Parser(prog="curvecensus", parents=[flags], description=(
        "Exact weighted counts of elliptic curve groups over prime fields."))
    parser.flags = flags  # read alone by _Parser.error
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mg", help="weighted count for the group Z/m x Z/mk")
    p.add_argument("--m", type=_int_in(1), required=True)
    p.add_argument("--k", type=_int_in(1), required=True)
    p.add_argument("--per-prime", action="store_true")
    p.set_defaults(run=cmd_mg)

    p = sub.add_parser("mn", help="weighted count for a fixed order")
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--x", type=_int_in(1), default=None,
                   help="truncation point of the shape sum")
    p.set_defaults(run=cmd_mn)

    p = sub.add_parser("grid", help="table of counts over a shape rectangle")
    p.add_argument("--mmax", type=_int_in(1), required=True)
    p.add_argument("--kmax", type=_int_in(1), required=True)
    p.set_defaults(run=cmd_grid)

    p = sub.add_parser("constants", help="local constants for a shape (and order)")
    p.add_argument("--m", type=_int_in(1), required=True)
    p.add_argument("--k", type=_int_in(1), required=True)
    p.add_argument("--n", type=_int_in(1), default=None)
    p.set_defaults(run=cmd_constants)

    p = sub.add_parser("matrix", help="one matrix fiber count")
    p.add_argument("--n", type=_int_in(1), required=True, help="order target of det + 1 - tr")
    p.add_argument("--tor", type=_int_in(1), default=1, help="torsion level")
    p.add_argument("--l", dest="ell", type=_prime, required=True)
    p.add_argument("--e", type=_int_in(1), required=True)
    p.set_defaults(run=cmd_matrix)

    p = sub.add_parser("verify", help="run a dual-route verification suite")
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--pmax", type=_int_in(2, curves.ORACLE_PRIME_CAP), default=13)
    p.add_argument("--lmax", type=_int_in(2), default=3)
    p.add_argument("--emax", type=_int_in(1), default=3)
    p.add_argument("--nmax", type=_int_in(1), default=None)
    p.add_argument("--mmax", type=_int_in(1), default=3)
    p.add_argument("--kmax", type=_int_in(1), default=5)
    p.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help printed to stdout
        return exc.code
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except curves.ConsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
