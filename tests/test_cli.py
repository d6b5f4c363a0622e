import json
from math import gcd

import pytest

from echtk import cli
from echtk.cli import main
from echtk.complexes import ComplexSpec, enumerate_currents
from echtk.currents import KnotParams, ReebCurrent, admissible_exponents, degree
from echtk.indices import ech_index
from echtk.nseq import nk_upto
from echtk.spectra import weyl_sup


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
    values = nk_upto(3, 4, 12)
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cz-table", "--max-action", "0"), "max action must be positive"),
        (
            ("knot-filtered", "--max-index", "4", "--filtration", "1/0"),
            "zero denominator in infinitesimal-rational value: '1/0'",
        ),
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


def test_toric_path_vertices(capsys):
    code, out, _ = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "h p q", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["x,y", "0,4", "1,4", "5,1", "6,0"]


def test_toric_svg(tmp_path, capsys):
    target = tmp_path / "path.svg"
    code, _, _ = run(
        capsys, "toric", "path", "--p", "3", "--q", "4", "--current", "h", "--svg", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_weyl_summary_and_rows(capsys, monkeypatch):
    monkeypatch.setattr(cli, "weyl_scan", None)  # the summary needs no per-k rows
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
