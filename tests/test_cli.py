import collections
import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from curvecensus import cli, curves, localfactors, quadforms


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def load_schema():
    with resources.files("curvecensus").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def test_mg_summary(capsys):
    code, out = run_cli(capsys, ["mg", "--m", "1", "--k", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["m_of_group"] == "5/12"
    assert rows[0]["main_term"] == ""  # log 1 undefined
    assert rows[0]["ratio"] == ""


def test_mg_never_occurring_group(capsys):
    code, out = run_cli(capsys, ["mg", "--m", "11", "--k", "1"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["m_of_group"] == "0/1"
    assert row["ratio"] == "0"
    assert float(row["main_term"]) > 0


def test_mg_per_prime(capsys):
    code, out = run_cli(capsys, ["mg", "--m", "2", "--k", "1", "--per-prime"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "term", "term_decimal"]
    assert [r[:2] for r in rows[1:]] == [["3", "1/6"], ["5", "1/4"], ["7", "1/6"]]


def test_mn_table_and_summary(capsys):
    code, out = run_cli(capsys, ["--format", "json", "mn", "--n", "4", "--x", "1"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["config"] == {"format": "json", "threads": 1, "n": 4, "x": 1}
    assert doc["summary"]["m_of_order"] == "31/12"
    assert doc["summary"]["truncated_sum"] == "2/1"
    assert doc["summary"]["residual"] == "7/12"
    assert doc["rows"] == [[1, 4, "2/1", "2"], [2, 1, "7/12", "0.5833333333"]]


# SHA-256 of stdout.  The CSV mn and mg --per-prime digests are those printed at commit
# 4dd9dd4, before class numbers were counted from square roots mod 4a: the new count must
# not move a byte.  The JSON mn and grid digests print the constants K in closed form,
# C2 * R, and JSON mn has neither a tail-bound cell nor a cutoff in config.
PINNED_STDOUT = [
    (["--format", "json", "mn", "--n", "1088"],
     "66f3b5edf1d9b695798e22a66ceafa891a0f7103f39aa95ca33a059de1f16bb4"),
    (["--format", "json", "mn", "--n", "53391"],
     "f068f74f6466bc553a171745e75fbf07ba3413379f5847cca7a7f9ccbc6c6ae8"),
    (["--format", "json", "mn", "--n", "190103"],
     "248d794f463acc3abf21d6e4f64969087b1d9a71a9700d7f7d4c1e9233c08082"),
    (["mn", "--n", "1000003"],
     "12eca340db5fba5fdaac14ce442fdc11ade13f9ddd199bc7f3937f52a21fe5e7"),
    (["mg", "--m", "3", "--k", "2999", "--per-prime"],
     "58a506abefbba79912b61edf29781d62d1eb0ccc6532e7a1a647563a95b9e99d"),
    (["grid", "--mmax", "3", "--kmax", "40"],
     "c0194874ce58903bffab59e11d3ad21702fb1c16cc3994d097c20428582365ba"),
    # printed before each window sum made one class-number call
    (["--format", "json", "verify", "identity", "--nmax", "1200"],
     "acb5c96e0731183de388952c64ad6d81b512e190fc1ccf588ecc3c64210a1a12"),
]


@pytest.mark.parametrize("args,digest", PINNED_STDOUT,
                         ids=[" ".join(args) for args, _ in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(capsys, args, digest):
    code, out = run_cli(capsys, args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the argv of acceptance criterion 9, then those pinned above
CSV_ARGV = [
    ["verify", "oracle", "--pmax", "13"],
    ["verify", "matrix"],
    ["verify", "local"],
    ["verify", "constants"],
    ["verify", "identity"],
    ["verify", "classnumbers"],
    ["grid", "--mmax", "3", "--kmax", "50"],
    ["--format", "json", "--threads", "4", "grid", "--mmax", "2", "--kmax", "8"],
] + [args for args, _ in PINNED_STDOUT]


@pytest.mark.parametrize("args", CSV_ARGV, ids=[" ".join(args) for args in CSV_ARGV])
def test_csv_rows_join_as_the_csv_module_writes_them(capsys, monkeypatch, args):
    # the same rows go to JSON and CSV, so a JSON request is checked in its CSV form
    args = [a for a in args if a not in ("--format", "json")]
    emitted = []
    real_emit = cli._emit

    def spy(args, columns, rows, **kwargs):
        emitted.append([columns, *rows])
        real_emit(args, columns, rows, **kwargs)

    monkeypatch.setattr(cli, "_emit", spy)
    code, out = run_cli(capsys, args)
    assert code == 0
    (table,) = emitted
    for row in table:
        assert row != [""] and None not in row
        for cell in row:
            assert not set(str(cell)) & set(',"\r\n'), (row, cell)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    assert out == buf.getvalue()


JSON_CONFIGS = [
    (["--format", "json", "mg", "--m", "2", "--k", "1"],
     [("format", "json"), ("threads", 1), ("m", 2), ("k", 1), ("per_prime", False)]),
    (["--format", "json", "--threads", "2", "grid", "--mmax", "1", "--kmax", "2"],
     [("format", "json"), ("threads", 2), ("mmax", 1), ("kmax", 2)]),
    (["--format", "json", "constants", "--m", "1", "--k", "1"],
     [("format", "json"), ("threads", 1), ("m", 1), ("k", 1)]),
    (["--format", "json", "matrix", "--n", "4", "--tor", "2", "--l", "2", "--e", "3"],
     [("format", "json"), ("threads", 1), ("n", 4), ("tor", 2), ("ell", 2), ("e", 3)]),
    (["--format", "json", "verify", "matrix", "--lmax", "2", "--emax", "1"],
     [("format", "json"), ("threads", 1), ("suite", "matrix"),
      ("pmax", 13), ("lmax", 2), ("emax", 1), ("nmax", 12), ("mmax", 3), ("kmax", 5)]),
]


def test_json_config(capsys):
    # keys in order: the global flags, which go before the subcommand, then its own
    for args, config in JSON_CONFIGS:
        code, out = run_cli(capsys, args)
        assert code == 0, args
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert list(doc["config"].items()) == config


def test_grid(capsys):
    code, out = run_cli(capsys, ["grid", "--mmax", "2", "--kmax", "3"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    lookup = {(r["m"], r["k"]): r for r in rows}
    assert lookup[("1", "1")]["m_of_group"] == "5/12"
    assert lookup[("2", "1")]["m_of_group"] == "7/12"
    for (m, k), row in lookup.items():
        if (m, k) != ("1", "1"):
            m, k = int(m), int(k)
            value = localfactors.main_term(m * m * k, localfactors.aut_order(m, k),
                                           localfactors.k_of_group(m, k))
            assert row["main_term"] == format(value, ".10g"), (m, k)


def test_constants(capsys):
    code, out = run_cli(capsys, ["constants", "--m", "1", "--k", "1", "--n", "4"])
    assert code == 0
    rows = dict(r for r in csv.reader(io.StringIO(out)) if r[0] != "quantity")
    assert rows["two_adic_constant"] == "2/3"
    assert rows["aut_order"] == "1"
    assert "k_order_truncated" in rows


def test_matrix_command(capsys):
    code, out = run_cli(capsys, ["matrix", "--n", "4", "--tor", "2", "--l", "2", "--e", "3"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["count_closed"] == row["count_brute"] == "96"
    assert row["density"] == "1/2"


def test_matrix_brute_cell_follows_the_scan_budget(capsys):
    # 2^28 matrices mod 2^7, but only the 32^4 congruent to I mod 4 are scanned
    code, out = run_cli(capsys, ["matrix", "--n", "16", "--tor", "4", "--l", "2", "--e", "7"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["count_closed"] == row["count_brute"] == "98304"
    # 101^4 cells exceed the budget: the brute cell stays empty
    code, out = run_cli(capsys, ["matrix", "--n", "2", "--l", "101", "--e", "1"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["count_brute"] == "" and row["count_closed"] != ""


def test_verify_suites_pass(capsys):
    for args in [
        ["verify", "oracle", "--pmax", "7"],
        ["verify", "matrix", "--lmax", "3", "--emax", "2", "--nmax", "6"],
        ["verify", "local"],
        ["verify", "constants", "--nmax", "6", "--mmax", "2", "--kmax", "3", "--lmax", "7"],
        ["verify", "identity", "--nmax", "60"],
        ["verify", "classnumbers", "--nmax", "100"],
    ]:
        code, out = run_cli(capsys, args)
        assert code == 0, args
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["equal"] == "True" for r in rows)


def test_verify_json_schema_and_counts(capsys):
    code, out = run_cli(capsys, ["--format", "json", "verify", "identity", "--nmax", "20"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["suite"] == "identity"
    assert doc["checked"] == 20
    assert doc["mismatches"] == 0


def test_verify_detects_mismatch(capsys, monkeypatch):
    real = curves.m_p_of_group

    def broken(m, k, p):
        out = real(m, k, p)
        if (m, k, p) == (1, 2, 3):
            out += Fraction(1, 12)
        return out

    monkeypatch.setattr(curves, "m_p_of_group", broken)
    code, out = run_cli(capsys, ["--format", "json", "verify", "oracle", "--pmax", "3"])
    assert code == 1
    doc = json.loads(out)
    assert doc["mismatches"] == 1


def test_verify_classnumbers_detects_mismatch(capsys, monkeypatch):
    real = quadforms.class_number_twelfths
    monkeypatch.setattr(quadforms, "class_number_twelfths",
                        lambda d, k: real(d, k) + ((d, k) == (-23, 1)))
    code, out = run_cli(capsys, ["--format", "json", "verify", "classnumbers", "--nmax", "30"])
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["mismatches"] == 1
    assert [r for r in doc["rows"] if not r[3]] == [["twelfths d=-23 k=1", "19", "18", False]]


def test_verify_classnumbers_detects_an_inclusion_exclusion_mismatch(capsys, monkeypatch):
    # the M_p(G) column comes from window_terms, one call per shape
    real = curves.window_terms
    monkeypatch.setattr(curves, "window_terms", lambda m, k: [
        (p, t + Fraction((m, k, p) == (1, 2, 3), 12)) for p, t in real(m, k)])
    code, out = run_cli(capsys, ["--format", "json", "verify", "classnumbers", "--nmax", "30"])
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["mismatches"] == 1
    assert [r for r in doc["rows"] if not r[3]] == [
        ["inclusion-exclusion m=1 k=2 p=3", "1/2", "7/12", False]]


def test_verify_local_detects_a_series_mismatch(capsys, monkeypatch):
    # one P(l) series off by more than its tail bound 2/l^12
    real = localfactors.p_of_ell_series
    monkeypatch.setattr(localfactors, "p_of_ell_series", lambda ell, m, k: real(ell, m, k)
                        + Fraction((ell, m, k) == (5, 2, 3), 5**10))
    code, out = run_cli(capsys, ["--format", "json", "verify", "local"])
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["mismatches"] == 1
    [row] = [r for r in doc["rows"] if not r[3]]
    assert row[:2] == ["P l=5 m=2 k=3", cli._fmt_frac(localfactors.p_of_ell(5, 2, 3))]


def test_verify_local_detects_a_two_adic_mismatch(capsys, monkeypatch):
    real = localfactors.script_j_by_levels
    monkeypatch.setattr(localfactors, "script_j_by_levels",
                        lambda m, k: real(m, k) + ((m, k) == (3, 4)))
    code, out = run_cli(capsys, ["--format", "json", "verify", "local"])
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["mismatches"] == 1
    assert [r for r in doc["rows"] if not r[3]] == [["scriptJ m=3 k=4", "1/1", "2/1", False]]


def test_constants_runs_no_two_adic_enumeration(capsys, monkeypatch):
    def refuse(*args):
        raise RuntimeError("constants reached the 2-adic enumeration")

    # the kernel of the level sums of script_j_by_levels
    monkeypatch.setattr(localfactors, "_j_r_v", refuse)
    code, out = run_cli(capsys, ["constants", "--m", "1", "--k", "3"])
    assert code == 0
    assert ["two_adic_constant", "2/3"] in list(csv.reader(io.StringIO(out)))


USAGE_ERRORS = [
    ["mg", "--m", "0", "--k", "1"],
    ["bogus"],
    [],
    ["mg", "--m", "1"],
    ["mg", "--m", "x", "--k", "1"],
    ["--format", "xml", "mg", "--m", "1", "--k", "1"],
    ["verify", "bogus"],
    ["--threads", "0", "mg", "--m", "1", "--k", "1"],
    # the global flags go before the subcommand; after it they are unrecognized
    ["mg", "--m", "1", "--k", "1", "--threads", "0"],
    ["mg", "--m", "1", "--k", "1", "--format", "json"],
    ["mg", "--m", "1", "--k", "1", "--out", "report.csv"],
    ["mg", "--m", "1", "--k", "1", "--threads", "2"],
    # an empty --out path would otherwise fall back to stdout
    ["--out", "", "mg", "--m", "1", "--k", "1"],
    ["verify", "oracle", "--pmax", "128"],
    ["verify", "matrix", "--nmax", "0"],
    # the constants need no Euler-product cutoff, and there is no flag to set one
    ["--cutoff", "10", "mg", "--m", "1", "--k", "1"],
    ["--cutoff", "1000", "mg", "--m", "1", "--k", "2"],
    ["mg", "--m", "1", "--k", "1", "--cutoff", "1000"],
    ["matrix", "--n", "4", "--l", "4", "--e", "1"],
    ["constants", "--m", "1", "--k", "1", "--n", "0"],
    ["mn", "--n", "4", "--x", "-3"],
    ["--seed", "0", "mg", "--m", "1", "--k", "1"],
    ["--class-cache", "cache.csv", "mg", "--m", "1", "--k", "1"],
    # orders from 2^64 up: a Hasse window that reaches 2^64, and an order factorize refuses
    ["mg", "--m", "4294967296", "--k", "1"],
    ["mg", "--m", "1000000000001040000000000037111", "--k", "1"],
    ["constants", "--m", "1", "--k", "1", "--n", "1000000000001040000000000037111"],
    # a prime bound below 2 leaves nothing to check
    ["verify", "matrix", "--lmax", "1"],
    ["verify", "constants", "--lmax", "1"],
]


def test_usage_errors(capsys):
    # parser, converter and check failures alike: one stderr line, exit 2
    for args in USAGE_ERRORS:
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert code == cli.USAGE_ERROR, args
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


def test_unknown_option_before_the_subcommand_is_named(capsys):
    # argparse would read the option's value as the subcommand
    for args, named in [(["--seed", "0", "mg", "--m", "1", "--k", "1"], "--seed 0"),
                        (["--cutoff", "1000", "mg", "--m", "1", "--k", "2"], "--cutoff 1000"),
                        (["--format", "json", "--x", "-3", "mn", "--n", "4"], "--x -3"),
                        (["mg", "--m", "1", "--k", "1", "--seed", "0"], "--seed 0"),
                        # with nothing after it, argparse would say the subcommand is missing
                        (["--seed"], "--seed"),
                        (["--format", "json", "--seed"], "--seed")]:
        assert cli.main(args) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: unrecognized arguments: {named}\n", args
    # with no unknown option, the subcommand is missing
    for args in ([], ["--format", "json"]):
        assert cli.main(args) == cli.USAGE_ERROR
        assert capsys.readouterr().err == "error: the following arguments are required: command\n"
    # an argument that is no option is still the subcommand
    for args in (["bogus"], ["-3", "mg"], ["--format", "json", "0", "mg"]):
        assert cli.main(args) == cli.USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: argument command: invalid choice: ")


def test_help_exits_0(capsys):
    for args in (["--help"], ["verify", "--help"]):
        assert cli.main(args) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: curvecensus") and err == ""


def test_sieve_cap_is_a_usage_error(capsys):
    # a 10^15-byte prime sieve: refused before any allocation
    code = cli.main(["verify", "constants", "--lmax", "1000000000000000"])
    out, err = capsys.readouterr()
    assert code == cli.USAGE_ERROR
    assert out == ""
    assert err.startswith("error: prime sieve") and err.count("\n") == 1


def test_class_scan_cap_is_a_usage_error(capsys):
    # window discriminants up to 4*10^14, 4*10^13, 2^41 and 8*10^7: refused before any
    # class number, the first two by the wider window scan bound, which is checked first;
    # the window of 2^39 fits that bound and is refused by the cap before its first prime
    window, scan = "error: window scan", "error: class numbers for |d| <= "
    for args, prefix in ((["mn", "--n", "100000000000000"], window),
                         (["mg", "--m", "1", "--k", "10000000000000"], window),
                         (["mn", "--n", "549755813888"], scan),
                         (["mg", "--m", "1", "--k", "549755813888"], scan),
                         (["mn", "--n", "20000000"], scan),
                         (["mg", "--m", "1", "--k", "20000000"], scan),
                         (["grid", "--mmax", "1", "--kmax", "20000000"], scan)):
        cached = set(quadforms._cache)
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert code == cli.USAGE_ERROR, args
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1, args
        assert set(quadforms._cache) == cached, args


def test_window_scan_bound_is_a_usage_error(capsys):
    # Hasse windows of 4*10^7 candidates, ten times that of ORDER_BOUND
    for args in (["constants", "--m", "1", "--k", "1", "--n", "100000000000000"],
                 ["constants", "--m", "1", "--k", "100000000000000"]):
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert code == cli.USAGE_ERROR, args
        assert out == ""
        assert err.startswith("error: window scan") and err.count("\n") == 1


def test_matrix_modulus_cap_is_a_usage_error(capsys):
    # 2^(10^8) is refused before any power of l is built
    code = cli.main(["matrix", "--n", "1", "--l", "2", "--e", "100000000"])
    out, err = capsys.readouterr()
    assert code == cli.USAGE_ERROR
    assert out == ""
    assert err == "error: modulus 2^100000000 exceeds 2^64\n"


# Runs a statement in a fresh interpreter and prints, after its output, the top-level
# modules it loaded.  Modules loaded before the statement, such as an editable install's
# path hook or whatever site imports at start-up, are not counted.
_IMPORT_PROBE = (
    "import sys; before = set(sys.modules); code = 0; {}; "
    "print(*sorted({{m.partition('.')[0] for m in set(sys.modules) - before}})); sys.exit(code)"
)


def _new_modules(statement, *args):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(statement), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _foreign_modules(statement, *args):
    """The new modules outside the standard library and curvecensus, as a sorted list's repr."""
    new = _new_modules(statement, *args)
    return str(sorted(new - set(sys.stdlib_module_names) - {"curvecensus"}))


@pytest.mark.parametrize("args", [
    ["--help"],  # the import and the parser alone
    ["constants", "--m", "2", "--k", "5", "--n", "77"],
    ["matrix", "--n", "4", "--l", "3", "--e", "4"],
    ["verify", "matrix"],
    ["verify", "local"],
    ["verify", "constants"],
    ["verify", "oracle"],
    ["mn", "--n", "100"],
    ["mg", "--m", "2", "--k", "30", "--per-prime"],
    ["grid", "--mmax", "2", "--kmax", "4"],
    ["verify", "identity", "--nmax", "50"],
    ["verify", "classnumbers"],
])
def test_no_command_loads_a_module_outside_the_stdlib(args):
    run_main = "from curvecensus.cli import main; code = main(sys.argv[1:])"
    assert _foreign_modules(run_main, *args) == "[]"


def test_import_probe_sees_a_third_party_module():
    assert "'jsonschema'" in _foreign_modules("import curvecensus, jsonschema")


def test_the_import_loads_only_what_the_command_uses():
    # dataclasses alone brings inspect, ast, dis and tokenize
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv"}
    assert _new_modules("import curvecensus.cli") & heavy == set()
    run_main = "from curvecensus.cli import main; code = main(sys.argv[1:])"
    loaded = _new_modules(run_main, "--format", "json", "mn", "--n", "100")
    assert "json" in loaded and "csv" not in loaded
    loaded = _new_modules(run_main, "mg", "--m", "1", "--k", "2")
    assert not {"csv", "json"} & loaded


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out = run_cli(capsys, ["--out", str(path), "mg", "--m", "1", "--k", "2"])
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("m,k,n,m_of_group")


def test_out_into_missing_directory(capsys, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code = cli.main(["--out", str(path), "mg", "--m", "1", "--k", "2"])
    err = capsys.readouterr().err
    assert code == cli.USAGE_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()
    # an existing directory that cannot be opened as a file fails at write time
    code = cli.main(["--out", str(tmp_path), "mg", "--m", "1", "--k", "2"])
    err = capsys.readouterr().err
    assert code == cli.USAGE_ERROR
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_closed_stdout_is_one_usage_error():
    # the reader goes away before the report is written: a broken pipe
    proc = subprocess.Popen([sys.executable, "-m", "curvecensus.cli", "grid", "--mmax", "2",
                             "--kmax", "3"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.USAGE_ERROR, err
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err
    # fd 1 closed before the interpreter starts, so sys.stdout is None
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                           "curvecensus.cli", "mg", "--m", "1", "--k", "2"],
                          stderr=subprocess.PIPE, text=True)
    assert proc.returncode == cli.USAGE_ERROR, proc.stderr
    assert proc.stderr == "error: cannot write stdout: Bad file descriptor\n"


def test_verify_identity_past_the_table_cap(capsys, monkeypatch, cold_memo):
    # above the cap the sweep counts each discriminant on its own, with the same bytes
    args = ["--format", "json", "verify", "identity", "--nmax", "60"]
    _, full = run_cli(capsys, args)
    quadforms._cache.clear()
    monkeypatch.setattr(quadforms, "TABLE_CAP", 100)
    counted = []
    count = quadforms._reduced_form_count
    monkeypatch.setattr(quadforms, "_reduced_form_count", lambda d: counted.append(d) or count(d))
    code, capped = run_cli(capsys, args)
    assert code == 0 and capped == full
    above = {d for d in quadforms._cache if d < -100}
    assert above and above <= set(counted)
    assert all(d < -100 for d in counted)


def test_verify_local_row_kinds(capsys):
    code, out = run_cli(capsys, ["verify", "local"])
    assert code == 0
    rows = collections.Counter(line.split(" ", 1)[0] for line in out.splitlines()[1:])
    assert rows == {"T": 1108, "P": 90, "scriptJ": 64}


def test_mn_route_disagreement_exits_1(capsys, monkeypatch):
    # without the shape (1, n) the shape route misses a term of the window sum
    real = curves.order_decomposition
    monkeypatch.setattr(curves, "order_decomposition", lambda n: real(n)[1:])
    code = cli.main(["mn", "--n", "6"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: M(6) routes disagree") and err.count("\n") == 1
    assert "Traceback" not in err


def test_byte_determinism(capsys):
    for args in [
        ["grid", "--mmax", "2", "--kmax", "10"],
        ["--format", "json", "verify", "local"],
        ["--format", "json", "--threads", "2", "verify", "identity", "--nmax", "40"],
    ]:
        code1, first = run_cli(capsys, args)
        code2, second = run_cli(capsys, args)
        assert code1 == code2 == 0 and first, args
        assert first == second, args
