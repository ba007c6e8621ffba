"""Correctness checks for one CLI request's stdout, run outside the timed span.

check(request, stdout) returns (problem, results): problem is None when the
output is right, else a one-line reason; results counts the result units
the request completed (shape rows, orders or checks).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from curvecensus.quadforms import kronecker_class_number_weighted


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def m_of_group_by_forms(m: int, k: int) -> Fraction:
    """M(Z/m x Z/mk) summed over the window primes p = 1 (mod m), each term
    by direct weighted enumeration of the reduced forms of the trace
    discriminant, independent of the class-number table and f-sum route."""
    n = m * m * k
    r = math.isqrt(4 * n) + 1
    total = Fraction(0)
    for p in range(max(2, n + 1 - r), n + 2 + r):
        if (p - 1 - n) ** 2 < 4 * n and p % m == 1 % m and _is_prime(p):
            total += kronecker_class_number_weighted(((p - 1) // m - m * k) ** 2 - 4 * k, k)
    return total


def _csv(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _check_shapes(rows: list[dict], shapes) -> str | None:
    by_shape = {(int(r["m"]), int(r["k"])): r for r in rows}
    for m, k in shapes:
        row = by_shape.get((m, k))
        if row is None:
            return f"shape ({m}, {k}) missing"
        if _frac(row["m_of_group"]) != m_of_group_by_forms(m, k):
            return f"M({m}, {k}) = {row['m_of_group']} disagrees with the reduced-form route"
    return None


def _grid(req, stdout):
    args = req.argv
    mmax = int(args[args.index("--mmax") + 1])
    kmax = int(args[args.index("--kmax") + 1])
    rows = _csv(stdout)
    shapes = [(int(r["m"]), int(r["k"])) for r in rows]
    if shapes != [(m, k) for m in range(1, mmax + 1) for k in range(1, kmax + 1)]:
        return "grid rows do not cover the rectangle in order", 0
    return _check_shapes(rows, req.check_shapes), len(rows)


def _mg(req, stdout):
    rows = _csv(stdout)
    if len(rows) != 1:
        return f"mg printed {len(rows)} rows", 0
    return _check_shapes(rows, req.check_shapes), 1


def _constants(req, stdout):
    args = req.argv
    m = int(args[args.index("--m") + 1])
    k = int(args[args.index("--k") + 1])
    values = {r["quantity"]: r["value"] for r in _csv(stdout)}
    if values.get("group_order") != str(m * m * k):
        return "group_order is wrong", 0
    two_adic = {(1, 1): "2/3", (0, 0): "3/2"}.get((m % 2, k % 2), "1/1")
    if values.get("two_adic_constant") != two_adic:
        return f"two_adic_constant {values.get('two_adic_constant')} != {two_adic}", 0
    if ("--n" in args) != ("k_order_truncated" in values):
        return "order constants missing or unexpected", 0
    return None, 1


def _mn(req, stdout):
    n = int(req.argv[req.argv.index("--n") + 1])
    doc = json.loads(stdout)
    rows = doc["rows"]
    if any(int(m) * int(m) * int(k) != n for m, k, _, _ in rows):
        return "a row's shape does not have order n", 0
    total = sum((_frac(t) for _, _, t, _ in rows), Fraction(0))
    if total != _frac(doc["summary"]["m_of_order"]):
        return f"rows sum to {total}, summary says {doc['summary']['m_of_order']}", 0
    return None, 1


def _verify(req, stdout):
    doc = json.loads(stdout)
    rows = doc["rows"]
    if doc.get("mismatches") != 0 or doc.get("checked") != len(rows) or not rows:
        return f"verify reports {doc.get('mismatches')} mismatches of {doc.get('checked')}", 0
    if not all(r[3] is True for r in rows):
        return "a verify row is not equal", 0
    return None, len(rows)


def _matrix(req, stdout):
    rows = _csv(stdout)
    if len(rows) != 1:
        return f"matrix printed {len(rows)} rows", 0
    row = rows[0]
    ell, e = int(row["ell"]), int(row["e"])
    if int(row["gl2_order"]) != ell ** (4 * e - 3) * (ell + 1) * (ell - 1) ** 2:
        return "gl2_order is wrong", 0
    if not row["count_brute"] or (row["count_closed"] and row["count_closed"] != row["count_brute"]):
        return f"closed {row['count_closed']} != brute {row['count_brute']}", 0
    return None, 1


_CHECKS = {
    "grid": _grid,
    "mg": _mg,
    "constants": _constants,
    "mn": _mn,
    "verify": _verify,
    "matrix": _matrix,
}


def check(req, stdout: bytes) -> tuple[str | None, int]:
    try:
        return _CHECKS[req.kind](req, stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}", 0
