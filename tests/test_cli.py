import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

from echtk import __version__, cli, complexes
from echtk.cli import main
from echtk.complexes import ComplexSpec, enumerate_currents
from echtk.currents import KnotParams, ReebCurrent, degree
from echtk.exact import InfRat, render, render_fraction
from echtk.indices import _index_evaluator, ech_index
from echtk.nseq import NSeq, nk
from echtk.spectra import action_spectrum, weyl_sup
from echtk.toric import current_to_path, path_index
from gf2_oracle import admissible_exponents
from golden_tables import (
    GENERATORS_T34_300_CSV_LINES,
    GENERATORS_T34_300_CSV_SHA256,
    HOMOLOGY_D2_SHA256,
    SCAN_CSV_SHA256,
)
from nseq_oracle import nk_prefix
from weyl_oracle import weyl_error_str


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generators_csv_is_a_thin_adapter(capsys):
    code, out, _ = run(
        capsys, "generators", "--p", "3", "--q", "4", "--max-degree", "20", "--format", "csv"
    )
    assert code == 0
    kp = KnotParams(3, 4)
    expected = ["degree,generator,index"] + [
        f"{degree(c, kp)},{c.name()},{ech_index(c, kp)}"
        for c in enumerate_currents(ComplexSpec(kp, 20))
    ]
    assert out.splitlines() == expected


def test_generators_csv_matches_exponent_reference(capsys):
    # rows sorted by (index, name), each recomputed from its exponents
    for q in range(2, 7):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            kp = KnotParams(p, q)
            code, out, _ = run(
                capsys, "generators", "--p", str(p), "--q", str(q), "--max-degree", "60",
                "--format", "csv",
            )
            assert code == 0
            currents = [ReebCurrent(*e) for e in admissible_exponents(kp, 60)]
            keyed = sorted((ech_index(c, kp), c.name(), degree(c, kp)) for c in currents)
            expected = ["degree,generator,index"] + [f"{d},{n},{i}" for i, n, d in keyed]
            assert out.splitlines() == expected


def test_generators_large_window_matches_its_golden_digest(capsys):
    code, out, _ = run(
        capsys, "generators", "--p", "3", "--q", "4", "--max-degree", "300", "--format", "csv"
    )
    assert code == 0
    assert out.count("\n") == GENERATORS_T34_300_CSV_LINES
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATORS_T34_300_CSV_SHA256


@pytest.mark.parametrize("argv", sorted(SCAN_CSV_SHA256))
def test_large_scans_match_their_golden_digests(capsys, argv):
    code, out, _ = run(capsys, *argv.split(), "--format", "csv")
    assert code == 0
    digest, lines = SCAN_CSV_SHA256[argv]
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def table_text(header, rows):
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in [header, *rows])


def rendered(fmt, header, rows, meta):
    """The output for these cells: CSV joined by commas, JSON as json.dumps
    lays it out, a table as table_text aligns it."""
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in [header, *rows])
    if fmt == "json":
        return json.dumps({"meta": meta, "columns": header, "rows": rows}, indent=2) + "\n"
    return table_text(header, rows)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (1, 5), (2, 3), (3, 4)])
@pytest.mark.parametrize("max_degree", [0, 7, 30])
def test_generators_match_a_per_current_rendering(capsys, p, q, max_degree, fmt):
    kp = KnotParams(p, q)
    code, out, _ = run(capsys, "generators", "--p", str(p), "--q", str(q),
                       "--max-degree", str(max_degree), "--format", fmt)
    assert code == 0
    currents = sorted((ReebCurrent(*e) for e in admissible_exponents(kp, max_degree)),
                      key=lambda c: (ech_index(c, kp), c.name()))
    header = ["degree", "generator", "index"]
    rows = [[str(degree(c, kp)), c.name(), str(ech_index(c, kp))] for c in currents]
    meta = {"p": p, "q": q, "deltaMode": "limit", "toolVersion": __version__,
            "maxDegree": max_degree}
    assert out == rendered(fmt, header, rows, meta)


def scan_reference(command, p, q, k_max):
    """Header, rows and meta of a scan, built one k at a time from the
    brute-force NSeq and the Weyl oracle; action_spectrum must agree."""
    kp = KnotParams(p, q)
    values = NSeq(p, q).prefix(k_max)
    repeats = [values[:k + 1].count(v) for k, v in enumerate(values)]
    errors = [weyl_error_str(kp, k, v) for k, v in enumerate(values)]
    meta = {"p": p, "q": q, "deltaMode": "limit", "toolVersion": __version__, "kMax": k_max}
    if command == "nseq":
        rows = [[str(k), str(v), str(r)] for k, (v, r) in enumerate(zip(values, repeats))]
        return ["k", "N_k", "repeats"], rows, meta
    assert [e[:4] for e in action_spectrum(kp, k_max)] == [
        (k, *vre) for k, vre in enumerate(zip(values, repeats, errors))]
    if command == "spectrum":
        rows = [[str(k), render_fraction(Fraction(v, kp.pq)), render(InfRat(v, r - 1)), e]
                for k, (v, r, e) in enumerate(zip(values, repeats, errors))]
        return ["k", "c_k", "c_k_link", "e_k"], rows, meta
    meta["supAbsError"] = max((e.lstrip("-") for e in errors), key=Decimal)
    return ["k", "e_k"], [[str(k), e] for k, e in enumerate(errors)], meta


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("k_max", [0, 1, 23, 200])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 4), (5, 7)])
@pytest.mark.parametrize("command", [("nseq",), ("spectrum",), ("weyl", "--plot-data")],
                         ids=" ".join)
def test_scans_match_a_per_k_rendering(capsys, command, p, q, k_max, fmt):
    code, out, _ = run(capsys, *command, "--p", str(p), "--q", str(q), "--k-max", str(k_max),
                       "--format", fmt)
    assert code == 0
    assert out == rendered(fmt, *scan_reference(command[0], p, q, k_max))


EVERY_COMMAND = [
    ("nseq", "--p", "2", "--q", "5", "--k-max", "60"),
    ("spectrum", "--p", "3", "--q", "4", "--k-max", "60"),
    ("weyl", "--p", "2", "--q", "3", "--k-max", "60", "--plot-data"),
    ("weyl", "--p", "2", "--q", "3", "--k-max", "50"),
    ("generators", "--p", "2", "--q", "5", "--max-degree", "30"),
    ("homology", "--p", "3", "--q", "4", "--max-index", "40", "--check-d-squared"),
    ("homology", "--p", "2", "--q", "7", "--max-index", "20", "--max-degree", "30",
     "--check-d-squared"),
    ("knot-filtered", "--p", "3", "--q", "4", "--max-index", "40", "--filtration", "12+1*d"),
    ("cz-table", "--p", "3", "--q", "4"),
    ("cz-table", "--p", "2", "--q", "5", "--max-action", "7/2"),
    ("cz-table", "--p", "3", "--q", "4", "--max-action", "1/1000"),  # no rows
    ("bounds", "action-linking", "--p", "2", "--q", "3", "--Delta", "1/10", "--V", "1/10"),
    ("bounds", "action-linking", "--p", "2", "--q", "3", "--Delta", "5", "--V", "1/10"),
    ("bounds", "calabi", "--p", "2", "--q", "3", "--d=-1/20", "--calabi", "1/20"),
    ("bounds", "calabi", "--p", "3", "--q", "4", "--d=0", "--calabi", "7"),
    ("toric", "path", "--p", "3", "--q", "4", "--current", "h p q"),
    ("toric", "path", "--p", "2", "--q", "5", "--current", "b^2 p q^3"),
    ("obstruct", "--from", "2,7", "--to", "3,4", "--k-max", "100"),
    ("obstruct", "--from", "3,4", "--to", "2,7", "--k-max", "100"),
    ("obstruct", "--from", "5,7", "--to", "3,4", "--k-max", "100"),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_every_command_renders_its_csv_cells_in_every_format(capsys, argv):
    # commands hand _emit finished CSV lines, which the table splits at their
    # commas and JSON streams escaped: no cell may hold a comma, a quote, a
    # backslash or a non-ASCII or control character
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out.endswith("\n")
    header, *rows = [line.split(",") for line in out[:-1].split("\n")]
    for row in rows:
        assert len(row) == len(header)  # a comma inside a cell would add one
        for cell in row:
            assert cell.isascii() and cell.isprintable() and not set(cell) & set('"\\')
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert out == rendered("json", header, rows, json.loads(out)["meta"])
    _, out, _ = run(capsys, *argv, "--format", "table")
    assert out == rendered("table", header, rows, None)


def test_outputs_are_deterministic(capsys):
    args = ("spectrum", "--p", "2", "--q", "3", "--k-max", "30", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_nseq_csv(capsys):
    code, out, _ = run(capsys, "nseq", "--p", "3", "--q", "4", "--k-max", "12", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,N_k,repeats"
    assert lines[1] == "0,0,1"
    values = nk_prefix(3, 4, 12)
    assert [int(line.split(",")[1]) for line in lines[1:]] == values
    assert lines[11] == "10,12,2"


def test_spectrum_k0(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "2", "--q", "3", "--k-max", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,c_k,c_k_link,e_k", "0,0,0,0.000000000000"]


def test_obstruct_reports_first_violation(capsys):
    code, out, _ = run(capsys, "obstruct", "--from", "2,7", "--to", "3,4", "--k-max", "100")
    assert code == 0
    assert "obstructed at k=1" in out


def test_json_metadata_block(capsys):
    code, out, _ = run(
        capsys, "homology", "--p", "3", "--q", "4", "--max-index", "10",
        "--check-d-squared", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["p"] == 3 and doc["meta"]["q"] == 4
    assert doc["meta"]["deltaMode"] == "limit"
    assert doc["meta"]["dSquaredZero"] is True
    assert "toolVersion" in doc["meta"]
    assert doc["rows"] == [[str(i), "1" if i % 2 == 0 else "0"] for i in range(11)]


COMMON_META = [("deltaMode", "limit"), ("toolVersion", __version__)]
JSON_METAS = [
    (("nseq", "--p", "3", "--q", "4", "--k-max", "5"), [("kMax", 5)]),
    (("generators", "--p", "2", "--q", "5", "--max-degree", "6"), [("maxDegree", 6)]),
    (("cz-table", "--p", "3", "--q", "4", "--max-action", "1/2"), [("maxAction", "1/2")]),
    (("spectrum", "--p", "2", "--q", "7", "--k-max", "3"), [("kMax", 3)]),
    (("homology", "--p", "3", "--q", "4", "--max-index", "4"),
     [("maxIndex", 4), ("maxDegree", 4), ("validatedWindow", "indices 0..4")]),
    (("homology", "--p", "3", "--q", "4", "--max-index", "4", "--check-d-squared"),
     [("maxIndex", 4), ("maxDegree", 4), ("validatedWindow", "indices 0..4"),
      ("dSquaredZero", True)]),
    (("homology", "--p", "2", "--q", "7", "--max-index", "4", "--max-degree", "30"),
     [("maxIndex", 4), ("maxDegree", 30), ("validatedWindow", "indices 0..4")]),
    (("homology", "--p", "2", "--q", "7", "--max-index", "4", "--max-degree", "30",
      "--check-d-squared"),
     [("maxIndex", 4), ("maxDegree", 30), ("validatedWindow", "indices 0..4"),
      ("dSquaredZero", True)]),
    (("knot-filtered", "--p", "3", "--q", "4", "--max-index", "6", "--filtration", "24/2+1*d"),
     [("filtration", "12+1*d"), ("maxIndex", 6), ("maxDegree", 6)]),
    (("weyl", "--p", "2", "--q", "3", "--k-max", "10"),
     [("kMax", 10), ("supAbsError", "0.414213562373")]),
    (("weyl", "--p", "2", "--q", "3", "--k-max", "10", "--plot-data"),
     [("kMax", 10), ("supAbsError", "0.414213562373")]),
    (("bounds", "action-linking", "--p", "2", "--q", "3", "--Delta", "1/10", "--V", "1/10"),
     [("Delta", "1/10"), ("V", "1/10")]),
    (("bounds", "action-linking", "--p", "2", "--q", "3", "--Delta", "5", "--V", "1/10"),
     [("Delta", "5"), ("V", "1/10")]),
    (("bounds", "calabi", "--p", "2", "--q", "3", "--d=-1/20", "--calabi", "1/20"),
     [("d", "-1/20"), ("calabi", "1/20")]),
    (("bounds", "calabi", "--p", "3", "--q", "4", "--d=0", "--calabi", "7"),
     [("d", "0"), ("calabi", "7")]),
    (("toric", "path", "--p", "3", "--q", "4", "--current", "h p q"),
     [("current", "h p q"), ("label", "h"), ("segmentSteps", 1), ("index", 41),
      ("filtrationValue", 19)]),
]


@pytest.mark.parametrize("argv, fields", JSON_METAS, ids=[" ".join(a) for a, _ in JSON_METAS])
def test_every_json_meta_is_pinned_in_order(capsys, argv, fields):
    # p, q, deltaMode and toolVersion, then the command's own fields
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    p, q = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--q") + 1])
    assert list(json.loads(out)["meta"].items()) == [("p", p), ("q", q), *COMMON_META, *fields]


def test_obstruct_and_svg_json_metas_are_pinned_in_order(tmp_path, capsys):
    code, out, _ = run(capsys, "obstruct", "--from", "2,7", "--to", "3,4", "--k-max", "20",
                       "--format", "json")
    assert code == 0
    assert list(json.loads(out)["meta"].items()) == [
        ("from", [2, 7]), ("to", [3, 4]), ("kMax", 20), ("toolVersion", __version__)]
    target = str(tmp_path / "path.svg")
    code, out, _ = run(capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "h p q",
                       "--svg", target, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["meta"].items()) == [
        ("p", 3), ("q", 4), *COMMON_META, ("current", "h p q"), ("label", "h"),
        ("segmentSteps", 1), ("index", 41), ("filtrationValue", 19), ("svg", target)]


def test_knot_filtered_command(capsys):
    code, out, _ = run(
        capsys, "knot-filtered", "--p", "3", "--q", "4", "--max-index", "20",
        "--filtration", "12+1*d", "--format", "csv",
    )
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows["18"] == "1" and rows["20"] == "1" and rows["19"] == "0"
    code, out, _ = run(
        capsys, "knot-filtered", "--p", "3", "--q", "4", "--max-index", "20",
        "--filtration", "12", "--format", "csv",
    )
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows["18"] == "1" and rows["20"] == "0"


def test_negative_filtration_takes_the_equals_form(capsys):
    # argparse reads "-1/2" after a space as a flag; "--filtration=-1/2" is the value
    code, out, _ = run(capsys, "knot-filtered", "--p", "3", "--q", "4", "--max-index", "20",
                       "--filtration=-1/2", "--format", "csv")
    assert code == 0
    assert out == "index,rank\n" + "".join(f"{i},0\n" for i in range(21))


@pytest.mark.parametrize("command", [["homology"], ["knot-filtered", "--filtration", "100000"]])
def test_rank_rows_stream_without_holding_the_window(monkeypatch, command):
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main([*command, "--p", "3", "--q", "4", "--max-index", "100000",
                         "--format", "csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 10**6


def test_non_coprime_is_a_usage_error(capsys):
    code, _, err = run(capsys, "generators", "--p", "2", "--q", "4", "--max-degree", "10")
    assert code == 2
    assert "coprime" in err


def test_window_violation_surfaces(capsys):
    code, _, err = run(
        capsys, "homology", "--p", "3", "--q", "4", "--max-index", "20", "--max-degree", "5"
    )
    assert code == 1
    assert "max_degree >= 12" in err


def test_homology_refuses_an_uncertified_window_before_building_the_matrix(capsys, monkeypatch):
    def build(spec):
        raise AssertionError("the boundary matrix was built")

    monkeypatch.setattr(cli, "d_squared_is_zero", build)
    code, out, err = run(capsys, "homology", "--p", "3", "--q", "4", "--max-index", "100000",
                         "--max-degree", "800", "--check-d-squared")
    assert code == 1 and out == ""
    assert err == "error: index window up to 100000 needs max_degree >= 1092\n"


def test_homology_refuses_a_huge_window_at_once(capsys):
    # the cutoff N_k at k = 5 * 10**20 is a binary search over floor sums
    start = time.monotonic()
    code, out, err = run(capsys, "homology", "--p", "3", "--q", "4", "--max-degree", "10",
                         "--max-index", str(10**21))
    assert time.monotonic() - start < 2.0
    assert code == 1 and out == ""
    assert err == f"error: index window up to {10**21} needs max_degree >= {nk(3, 4, 5 * 10**20)}\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("max_action,rows", [
    ("1e400", 9 * 10**400),  # parsed exactly: 10**400 iterates of b and h, 3 and 4 times that of p and q
    ("10000000000", 9 * 10**10),
    ("2000007/9", 2_000_007),
])
def test_cz_table_over_the_row_budget_is_refused_before_building(capsys, fmt, max_action, rows):
    start = time.monotonic()
    code, out, err = run(capsys, "cz-table", "--p", "3", "--q", "4",
                         "--max-action", max_action, "--format", fmt)
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err == (
        f"error: the table up to this action has {rows} rows, about "
        f"{rows * 430 // 10**6} MB; at most 2000000 rows are held\n"
    )


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
BOUND = ["bounds", "action-linking", "--p", "3", "--q", "4", "--Delta", "1", "--V"]


@pytest.mark.parametrize("argv", [
    BOUND + ["1e999999999"],
    BOUND + ["1e-2000000"],
    ["cz-table", "--p", "3", "--q", "4", "--max-action", "1e-9999999"],
    BOUND + ["1" * (LIMIT + 1)],
    BOUND + [f"1e{LIMIT + 1}"],
])
def test_rational_past_the_int_string_limit_is_refused_before_parsing(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err == (
        f"error: bad rational value {argv[-1]!r}: more than {LIMIT} digits or exponent above {LIMIT}\n"
    )


@pytest.mark.parametrize("argv, flag", [
    (BOUND + [f"1e-{LIMIT}"], "--V"),  # bound_squared = 1/(12 * 10**4300)
    (["bounds", "calabi", "--p", "3", "--q", "4", "--d", "0", "--calabi", f"1e-{LIMIT - 1}"],
     "--calabi"),
])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_bound_squared_past_the_int_string_limit_is_refused(capsys, argv, flag, fmt):
    # the flag parses, but the fraction it gives has one digit too many to print
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"error: {flag} gives a bound_squared of more than {LIMIT} digits\n"


@pytest.mark.parametrize("argv", [
    BOUND + [f"1e-{LIMIT - 2}"],
    ["bounds", "calabi", "--p", "3", "--q", "4", "--d", "0", "--calabi", f"1e-{LIMIT - 2}"],
])
def test_bound_squared_at_the_int_string_limit_is_printed(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    squared = dict(line.split(",") for line in out.splitlines())["bound_squared"]
    assert squared == f"1/{12 * 10**(LIMIT - 2)}" and len(squared) == 2 + LIMIT


def test_a_closed_pipe_ends_the_run_quietly():
    # the reader takes one line and closes the pipe while rows still stream
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "echtk", "nseq", "--p", "3", "--q", "4", "--k-max", "200000",
         "--format", "csv"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"k,N_k,repeats\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 1


HUGE = "9" * LIMIT
HALF = "9" * (LIMIT // 2 + 50)  # a current whose figure has 10**(LIMIT + 100) dots or so


@pytest.mark.parametrize("argv, message", [
    (["homology", "--p", "3", "--q", "4", "--max-index", HUGE, "--max-degree", HUGE],
     f"index window up to {HUGE} has 10^{LIMIT} or more rows; at most 5000000 rows are held"),
    (["cz-table", "--p", "3", "--q", "4", "--max-action", f"1e{LIMIT}"],
     f"the table up to this action has 10^{LIMIT} or more rows; "
     "at most 2000000 rows are held"),
    (["toric", "path", "--p", "3", "--q", "4", "--current", f"p^{HALF} q^{HALF}", "--svg", "x.svg"],
     f"the figure's dot grid has 10^{LIMIT} or more dots; at most 4000000 dots are drawn"),
    (["knot-filtered", "--p", "3", "--q", "4", "--max-index", "3", "--filtration", "1" + HUGE],
     f"--filtration has a number of more than {LIMIT} digits"),
    (["toric", "path", "--p", "3", "--q", "4", "--current", "p^1" + "0" * LIMIT],
     f"--current has a number of more than {LIMIT} digits"),
], ids=["homology", "cz-table", "toric-svg", "filtration", "current"])
def test_a_number_past_the_int_string_limit_is_refused_in_words(
    capsys, monkeypatch, tmp_path, argv, message
):
    # each used to end in Python's own int/str limit text; none writes a file
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n" and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err
    assert not any(tmp_path.iterdir())


def test_an_over_budget_count_is_printed_while_python_can_print_it(capsys):
    # 1e{LIMIT - 1} gives 9 * 10**(LIMIT - 1) rows, LIMIT digits, the most
    # Python prints; one more power of ten passes the limit
    code, _, err = run(capsys, "cz-table", "--p", "3", "--q", "4", "--max-action", f"1e{LIMIT - 1}")
    rows = 9 * 10 ** (LIMIT - 1)
    assert code == 2 and err == (
        f"error: the table up to this action has {rows} rows, about "
        f"{rows * 430 // 10**6} MB; at most 2000000 rows are held\n"
    )
    code, _, err = run(capsys, "cz-table", "--p", "3", "--q", "4", "--max-action", f"1e{LIMIT}")
    assert code == 2 and err == (
        f"error: the table up to this action has 10^{LIMIT} or more rows; "
        "at most 2000000 rows are held\n"
    )


def test_rational_at_the_int_string_limit_is_parsed(capsys):
    code, out, _ = run(capsys, "cz-table", "--p", "3", "--q", "4",
                       "--max-action", f"1e-{LIMIT}", "--format", "csv")
    assert code == 0 and out == "orbit,action,cz_orb\n"
    assert cli._parse_fraction(" " + "9" * LIMIT + " ") == 10**LIMIT - 1
    assert cli._parse_fraction(f"-1E+{LIMIT}") == -(10**LIMIT)
    assert cli._parse_fraction("1e-4_0") == Fraction(1, 10**40)


@pytest.mark.parametrize("command", ["homology", "knot-filtered"])
@pytest.mark.parametrize("window", [
    ["--max-index", str(10**21)],
    ["--max-index", str(10**8), "--max-degree", "100000"],
])
def test_certified_window_over_the_row_budget_is_refused_before_allocating(capsys, command, window):
    start = time.monotonic()
    extra = ["--filtration", "5"] if command == "knot-filtered" else []
    code, out, err = run(capsys, command, "--p", "3", "--q", "4", *window, *extra)
    assert time.monotonic() - start < 2.0
    max_index = int(window[1])
    assert code == 2 and out == ""
    assert err == (
        f"error: index window up to {max_index} has {max_index + 1} rows, about "
        f"{(max_index + 1) * 85 // 10**6} MB; at most 5000000 rows are held\n"
    )


def test_row_budget_counts_rows_not_indices(capsys, monkeypatch):
    monkeypatch.setattr(complexes, "_MAX_INDEX_ROWS", 11)
    code, out, _ = run(capsys, "homology", "--p", "3", "--q", "4", "--max-index", "10",
                       "--format", "csv")
    assert code == 0 and out.count("\n") == 12
    code, out, err = run(capsys, "homology", "--p", "3", "--q", "4", "--max-index", "11")
    assert code == 2 and out == ""
    assert err.startswith("error: index window up to 11 has 12 rows,")


def test_homology_checks_d_squared_without_the_boundary_matrix(capsys):
    code, out, _ = run(capsys, "homology", "--p", "3", "--q", "4", "--max-index", "160",
                       "--max-degree", "40", "--check-d-squared", "--format", "json")
    assert code == 0
    assert '"dSquaredZero": true' in out


def test_homology_checks_d_squared_on_the_window_not_the_whole_cutoff(capsys, monkeypatch):
    # the window needs degree 4: the check walks that complex, not 10**11 degrees
    checked = []
    monkeypatch.setattr(cli, "d_squared_is_zero", lambda spec: checked.append(spec) or True)
    run(capsys, "homology", "--p", "3", "--q", "4", "--max-index", "3",
        "--max-degree", "99999999999", "--check-d-squared")
    assert checked == [ComplexSpec(KnotParams(3, 4), 4)]
    monkeypatch.undo()
    start = time.monotonic()
    code, out, err = run(capsys, "homology", "--p", "3", "--q", "4", "--max-index", "3",
                         "--max-degree", "99999999999", "--check-d-squared", "--format", "json")
    assert time.monotonic() - start < 2.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["meta"]["maxDegree"] == 99999999999 and doc["meta"]["dSquaredZero"] is True
    assert doc["rows"] == [["0", "1"], ["1", "0"], ["2", "1"], ["3", "0"]]


@pytest.mark.parametrize("argv", sorted(HOMOLOGY_D2_SHA256))
def test_homology_d_squared_output_matches_its_golden_digest(capsys, argv):
    code, out, _ = run(capsys, "homology", *argv.split(), "--check-d-squared")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HOMOLOGY_D2_SHA256[argv]


def test_homology_negative_window_is_a_usage_error(capsys):
    code, out, err = run(capsys, "homology", "--p", "3", "--q", "4", "--max-index", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max-index must be nonnegative\n"
    code, _, err = run(
        capsys, "homology", "--p", "3", "--q", "4", "--max-index", "2", "--max-degree", "-1"
    )
    assert code == 2 and err == "error: --max-degree must be nonnegative\n"


def test_knot_filtered_negative_window_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "knot-filtered", "--p", "3", "--q", "4", "--max-index", "-1", "--filtration", "12"
    )
    assert code == 2 and out == ""
    assert err == "error: --max-index must be nonnegative\n"
    code, _, err = run(
        capsys, "knot-filtered", "--p", "3", "--q", "4", "--max-index", "2", "--filtration", "12",
        "--max-degree", "-1",
    )
    assert code == 2 and err == "error: --max-degree must be nonnegative\n"


@pytest.mark.parametrize("command", [("nseq",), ("spectrum",), ("weyl",), ("weyl", "--plot-data")])
def test_negative_k_max_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--p", "2", "--q", "3", "--k-max", "-1")
    assert code == 2 and out == ""
    assert err == "error: --k-max must be nonnegative\n"


@pytest.mark.parametrize("frm, to", [("2,3", "3,4"), ("3,4", "2,3")])
def test_obstruct_negative_k_max_is_a_usage_error(capsys, frm, to):
    # refused whether or not the pair is applicable
    code, out, err = run(capsys, "obstruct", "--from", frm, "--to", to, "--k-max", "-1")
    assert code == 2 and out == ""
    assert err == "error: --k-max must be nonnegative\n"


REFUSALS = [
    (["generators", "--p", "3", "--q", "4", "--max-degree", "-1"],
     "--max-degree must be nonnegative"),
    (["obstruct", "--from", "2", "--to", "3,4", "--k-max", "5"], "expected P,Q pair, got '2'"),
    (["obstruct", "--from", "a,b", "--to", "3,4", "--k-max", "5"], "bad pair 'a,b'"),
    (["bounds", "action-linking", "--p", "3", "--q", "4", "--Delta", "1"],
     "action-linking needs --Delta and --V"),
    (["bounds", "calabi", "--p", "3", "--q", "4", "--d", "0"], "calabi needs --d and --calabi"),
    (["bounds", "calabi", "--p", "1", "--q", "3", "--d", "0", "--calabi", "1/100"],
     "the mean-action bound needs p, q >= 2"),
    (["bounds", "calabi", "--p", "2", "--q", "1", "--d", "0", "--calabi", "1/100"],
     "the mean-action bound needs p, q >= 2"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_a_bad_flag_is_refused_in_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cz-table", "--max-action", "0"), "max action must be positive"),
        (
            ("knot-filtered", "--max-index", "4", "--filtration", "1/0"),
            "zero denominator in infinitesimal-rational value: '1/0'",
        ),
        (("toric", "path", "--current", "b^0 b^2"), "orbit 'b' repeated in 'b^0 b^2'"),
    ],
)
def test_library_errors_are_usage_errors(capsys, argv, message):
    # a ValueError or ZeroDivisionError from the library is one line, not a traceback
    code, out, err = run(capsys, argv[0], "--p", "3", "--q", "4", *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_bounds_action_linking(capsys):
    code, out, _ = run(
        capsys, "bounds", "action-linking", "--p", "2", "--q", "3",
        "--Delta", "1/10", "--V", "1/10", "--format", "csv",
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["hypothesis_met"] == "true"
    assert rows["bound_squared"] == "1/60"


def test_bounds_calabi(capsys):
    code, out, _ = run(
        capsys, "bounds", "calabi", "--p", "2", "--q", "3",
        "--d=-1/20", "--calabi", "1/20", "--format", "csv",
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["hypothesis_met"] == "true"
    assert rows["bound_squared"] == "1/120"


def test_a_negative_twist_takes_the_equals_form(capsys, monkeypatch):
    # (-1/pq, 0] holds no negative integer, so argparse reads every nonzero
    # "--d" value after a space as a flag; the help gives the "=" form
    monkeypatch.setenv("COLUMNS", "200")  # the help on one line
    with pytest.raises(SystemExit) as info:
        main(["bounds", "calabi", "--p", "2", "--q", "3", "--d", "-1/20", "--calabi", "1/20"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --d: expected one argument\n")
    with pytest.raises(SystemExit):
        main(["bounds", "--help"])
    assert "as --d=-1/20" in capsys.readouterr().out


@pytest.mark.parametrize("svg", [[], ["--svg", "x.svg"]], ids=["plain", "svg"])
def test_toric_json_refuses_a_path_index_past_the_int_string_limit(
    capsys, monkeypatch, tmp_path, svg
):
    # the JSON meta prints the index, which has about twice the digits of the current
    monkeypatch.chdir(tmp_path)
    argv = ["toric", "path", "--p", "3", "--q", "4", "--current", f"p^{HALF} q^{HALF}"]
    code, out, err = run(capsys, *argv, "--format", "json", *svg)
    assert code == 2 and out == ""
    assert err == f"error: --current gives a path index of more than {LIMIT} digits\n"
    assert not any(tmp_path.iterdir())
    for fmt in ("table", "csv"):  # these print only the vertices
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == "" and len(out.splitlines()) == 5


def test_toric_json_prints_a_path_index_of_as_many_digits_as_python_prints(capsys):
    # p^P for T(3,4) has index 2 * lattice_count(4P - 1), about 4P^2/3
    P = isqrt(3 * 10**LIMIT // 4) - 10**6
    code, out, err = run(capsys, "toric", "path", "--p", "3", "--q", "4", "--current", f"p^{P}",
                         "--format", "json")
    assert code == 0 and err == ""
    index = json.loads(out)["meta"]["index"]
    assert index == path_index(current_to_path(ReebCurrent(0, 0, P, 0), KnotParams(3, 4)))
    assert len(str(index)) == LIMIT


def test_obstruct_far_out_answers_where_the_bounds_settle_the_order(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "obstruct", "--from", "5,7", "--to", "3,4",
                         "--k-max", str(10**18), "--format", "csv")
    assert time.monotonic() - start < 2.0
    assert (code, out, err) == (0, f"result\nconsistent up to k={10**18}\n", "")


def test_obstruct_with_the_same_pair_answers_at_once(capsys):
    for frm, to in [("3,4", "4,3"), ("3,4", "3,4")]:
        start = time.monotonic()
        code, out, err = run(capsys, "obstruct", "--from", frm, "--to", to,
                             "--k-max", str(10**18), "--format", "csv")
        assert time.monotonic() - start < 2.0
        assert (code, out, err) == (0, f"result\nconsistent up to k={10**18}\n", "")


def test_toric_path_vertices(capsys):
    code, out, _ = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "h p q", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["x,y", "0,4", "1,4", "5,1", "6,0"]


def test_toric_path_of_a_huge_current_reads_few_columns(capsys):
    # W/p = 1.3 * 10**11 columns; only the first and last q of each side
    # of the segment can be corners
    start = time.monotonic()
    code, out, _ = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "p^99999999999 q",
        "--format", "csv",
    )
    assert time.monotonic() - start < 2.0
    assert code == 0
    assert out.splitlines() == [
        "x,y", "0,99999999999", "1,99999999999", "133333333330,2", "133333333332,0"
    ]


def test_the_complex_commands_read_no_index_evaluator(capsys, monkeypatch):
    # the line walk grades each line by its count, the rank rows come from
    # the class count and d^2 from line membership, so none grades a current
    def refuse(p, q):
        raise AssertionError(f"the index evaluator of ({p}, {q}) was read")

    for name, module in list(sys.modules.items()):
        if name.startswith("echtk") and hasattr(module, "_index_evaluator"):
            monkeypatch.setattr(module, "_index_evaluator", refuse)
    code, out, _ = run(
        capsys, "generators", "--p", "3", "--q", "4", "--max-degree", "300", "--format", "csv"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATORS_T34_300_CSV_SHA256
    # the d^2 check walks the lines of the window under a huge cutoff
    code, out, _ = run(
        capsys, "homology", "--p", "3", "--q", "4", "--max-index", "3", "--max-degree",
        str(10**15), "--check-d-squared", "--format", "json",
    )
    meta = {"p": 3, "q": 4, "deltaMode": "limit", "toolVersion": __version__, "maxIndex": 3,
            "maxDegree": 10**15, "validatedWindow": "indices 0..3", "dSquaredZero": True}
    doc = {"meta": meta, "columns": ["index", "rank"], "rows": [["0", "1"], ["1", "0"],
                                                                ["2", "1"], ["3", "0"]]}
    assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")
    code, out, _ = run(
        capsys, "knot-filtered", "--p", "3", "--q", "4", "--max-index", "9", "--filtration", "7/2",
        "--format", "csv",
    )
    ranks = "".join(f"{i},{int(i in (0, 2))}\n" for i in range(10))  # N_0, N_1 <= 7/2 < N_2
    assert (code, out) == (0, "index,rank\n" + ranks)
    # the walk stops at the cutoff, whatever the pair
    start = time.monotonic()
    code, out, _ = run(
        capsys, "generators", "--p", "1000003", "--q", "1000033", "--max-degree", "10",
        "--format", "csv",
    )
    assert time.monotonic() - start < 2.0
    assert (code, out) == (0, "degree,generator,index\n0,1,0\n")


def test_generators_of_a_huge_pair_grow_the_prefix_sums_only_as_read(capsys):
    # the walk stops at the cutoff and grades each line by its count, so the
    # evaluator's prefix sums stay as they were, not grown through p - 1
    evaluator = _index_evaluator(1000003, 1000033)
    before = (len(evaluator.sum_p), len(evaluator.sum_q))
    code, out, _ = run(
        capsys, "generators", "--p", "1000003", "--q", "1000033", "--max-degree", "10",
        "--format", "csv",
    )
    assert code == 0
    assert out == "degree,generator,index\n0,1,0\n"
    assert len(evaluator.sum_p) < 100 and len(evaluator.sum_q) < 100
    assert (len(evaluator.sum_p), len(evaluator.sum_q)) == before


def test_toric_svg(tmp_path, capsys):
    target = tmp_path / "path.svg"
    code, _, _ = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "h", "--svg", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_toric_svg_of_a_huge_dot_grid_is_refused_before_the_file(tmp_path, capsys):
    # vertices answer at once, but the figure would draw 1.3 * 10**10 dots
    target = tmp_path / "path.svg"
    start = time.monotonic()
    code, out, err = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "p^99999 q",
        "--svg", str(target),
    )
    assert time.monotonic() - start < 2.0
    assert code == 2 and out == ""
    assert err == (
        "error: the figure's dot grid has 13333533334 dots, about 2400036 MB; "
        "at most 4000000 dots are drawn\n"
    )
    assert not target.exists()


def test_toric_svg_unwritable_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "path.svg"
    code, out, err = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "h", "--svg", str(target)
    )
    assert code == 2 and out == ""
    assert err == f"error: cannot write --svg file {target}: No such file or directory\n"
    code, out, err = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "h", "--svg", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --svg file {tmp_path}: ") and err.count("\n") == 1


def test_weyl_summary_and_rows(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_error_runs", None)  # the summary needs no per-k rows
    code, out, _ = run(capsys, "weyl", "--p", "2", "--q", "3", "--k-max", "50", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["quantity,value", f"sup|e_k|,{weyl_sup(KnotParams(2, 3), 50)}"]
    monkeypatch.undo()
    code, out, _ = run(
        capsys, "weyl", "--p", "2", "--q", "3", "--k-max", "5", "--plot-data", "--format", "csv"
    )
    assert len(out.splitlines()) == 7


def test_cz_table_default_window(capsys):
    code, out, _ = run(capsys, "cz-table", "--p", "3", "--q", "4", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 19  # header + 18 rows
