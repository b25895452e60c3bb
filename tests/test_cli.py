"""Command-line interface: outputs, schemas, and exit codes."""

import json
import math

import pytest

from fiedlertrees import canonical_code, parse_edge_list, path_tree
from fiedlertrees.cli import main

from helpers import NU_M2, dirichlet_path_nu


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("# four-vertex path\n0 1\n1 2\n2 3\n")
    return str(f)


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("0 1\n1 2\n")
    return str(f)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_alpha_path4(capsys, p4_file):
    code, doc = _run_json(capsys, ["alpha", p4_file])
    assert code == 0
    assert doc["alpha"] == pytest.approx(2 - math.sqrt(2), rel=1e-9)
    assert doc["characteristic"]["kind"] == "edge"
    assert set(doc["characteristic"]["ids"]) == {1, 2}
    assert doc["domain_pos"] == [0, 1] and doc["domain_neg"] == [2, 3]


def test_alpha_path3_vertex(capsys, p3_file):
    code, doc = _run_json(capsys, ["alpha", p3_file])
    assert code == 0
    assert doc["characteristic"] == {"kind": "vertex", "ids": [1]}


def test_alpha_rejects_cycle(capsys, tmp_path):
    f = tmp_path / "cycle.txt"
    f.write_text("0 1\n1 2\n2 0\n")
    assert main(["alpha", str(f)]) == 3
    assert "not a tree" in capsys.readouterr().err


def test_alpha_rejects_garbage(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("zero one\n")
    assert main(["alpha", str(f)]) == 2


@pytest.mark.parametrize("where", ["missing", "directory", "out"])
def test_unopenable_file_exits_2_without_traceback(capsys, tmp_path, p4_file, where):
    argv = {
        "missing": ["alpha", str(tmp_path / "missing.txt")],
        "directory": ["alpha", str(tmp_path)],
        "out": ["alpha", p4_file, "--out", str(tmp_path / "no" / "dir" / "x.json")],
    }[where]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_nu_rooted_path(capsys, p3_file):
    code, doc = _run_json(capsys, ["nu", p3_file, "--root", "0"])
    assert code == 0
    assert doc["nu"] == pytest.approx(NU_M2, rel=1e-9)
    assert doc["monotone_paths"] is True
    assert doc["interior"] == [1, 2]


def test_nu_two_path(capsys, tmp_path):
    f = tmp_path / "p2.txt"
    f.write_text("0 1\n")
    code, doc = _run_json(capsys, ["nu", str(f), "--root", "1"])
    assert code == 0
    assert doc["nu"] == pytest.approx(1.0, abs=1e-12)


def test_nu_rejects_small_w0(capsys, p3_file):
    assert main(["nu", p3_file, "--root", "0", "--w0", "0.5"]) == 4


def test_split_command(capsys, p4_file):
    code, doc = _run_json(capsys, ["split", p4_file])
    assert code == 0
    assert doc["w1"] == pytest.approx(2.0, rel=1e-9)
    assert doc["side_pos"]["residual"] <= 1e-8
    assert doc["side_neg"]["residual"] <= 1e-8
    assert doc["side_pos"]["nu"] == pytest.approx(doc["alpha"], rel=1e-8)


def test_split_rejects_weighted_tree(capsys, tmp_path):
    # the sides may weight only their boundary edge, so the input must not
    f = tmp_path / "w.txt"
    f.write_text("0 1 2.0\n1 2\n2 3\n")
    assert main(["split", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a unit-weight tree" in captured.err


def test_min_tree_command(capsys):
    code, doc = _run_json(capsys, ["min-tree", "--seq", "3,2,2,2,1,1,1"])
    assert code == 0
    assert doc["instance_count"] == 3
    assert doc["all_caterpillars"] is True
    assert doc["all_theorem1_shape"] is True


def test_min_tree_invalid_sequence(capsys):
    assert main(["min-tree", "--seq", "2,2,2"]) == 2
    assert main(["min-tree", "--seq", "2,x,2"]) == 2


# the path on 13 vertices: 11! = 39,916,800 Prufer words, over the 10^7 cap
OVER_CAP = ",".join(["2"] * 11 + ["1", "1"])


def test_min_tree_cap_exceeded(capsys):
    assert main(["min-tree", "--seq", OVER_CAP]) == 6


def test_min_rooted_cap_exceeded(capsys):
    assert main(["min-rooted", "--seq", OVER_CAP, "--w0", "1.5"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "39916800 labeled decodings exceed the cap 10000000" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["min-tree", "--seq", "2,1,1", "--cap", "3"],
        ["min-rooted", "--seq", "2,1,1", "--cap", "3"],
        ["alpha", "P4", "--tau-zero", "0.1"],
        ["nu", "P4", "--root", "0", "--tau-zero", "0.1"],
        ["split", "P4", "--tau-zero", "0.1"],
    ],
)
def test_cap_and_zero_threshold_are_not_options(capsys, p4_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([p4_file if a == "P4" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["min-cat", "explore"])
def test_spine_permutation_cap_exits_6(capsys, command):
    # spine degrees 2..13, n = 80: 12! spine permutations exceed 10^7
    seq = ",".join(str(d) for d in range(13, 1, -1)) + ",1" * 68
    assert main([command, "--seq", seq]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spine permutations exceed the cap" in captured.err


def test_min_cat_and_min_rooted(capsys):
    code, doc = _run_json(capsys, ["min-cat", "--seq", "3,2,2,2,1,1,1"])
    assert code == 0
    assert doc["instance_count"] == 2

    code, doc = _run_json(capsys, ["min-rooted", "--seq", "2,2,1,1"])
    assert code == 0
    assert doc["min_value"] == pytest.approx(dirichlet_path_nu(3), rel=1e-9)
    assert main(["min-rooted", "--seq", "2,2,1,1", "--w0", "0.2"]) == 4


def test_explore_to_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["explore", "--seq", "3,2,2,2,1,1,1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("sequence,arrangement,alpha,")
    assert len(text.strip().split("\n")) == 3


def test_verify_command(capsys):
    code, doc = _run_json(
        capsys, ["verify", "--suite", "glue", "--samples", "10", "--rng-seed", "7"]
    )
    assert code == 0
    assert doc["passed"] is True


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--suite", "theorem1", "--nmax", "1"], "nmax"),
        (["--suite", "all", "--nmax", "1"], "nmax"),
        (["--suite", "perturb", "--samples", "0"], "samples"),
        (["--suite", "glue", "--samples", "-1"], "samples"),
    ],
)
def test_verify_rejects_empty_ranges(capsys, argv, name):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be >= " in captured.err


def test_verify_all_suites_exit_zero(capsys):
    code, doc = _run_json(
        capsys, ["verify", "--suite", "all", "--nmax", "8", "--rng-seed", "7"]
    )
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["checks"]) == 6


def test_verify_failure_maps_to_exit_5(capsys, monkeypatch):
    import fiedlertrees.cli as cli

    monkeypatch.setattr(
        cli,
        "verify_suite",
        lambda *a, **k: {"suite": "glue", "passed": False, "checks": []},
    )
    assert main(["verify", "--suite", "glue"]) == 5


def test_round_trip_through_edge_list(tmp_path, capsys):
    from fiedlertrees import format_edge_list

    t = path_tree(6)
    f = tmp_path / "t.txt"
    f.write_text(format_edge_list(t))
    back = parse_edge_list(f.read_text())
    assert canonical_code(back) == canonical_code(t)


def test_float_output_has_12_significant_digits(capsys, p4_file):
    main(["alpha", p4_file])
    out = capsys.readouterr().out
    assert "0.585786437627" in out  # 2 - sqrt(2) rounded to 12 digits


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_alpha_rejects_non_finite_weight(capsys, tmp_path, weight):
    f = tmp_path / "w.txt"
    f.write_text(f"0 1 {weight}\n")
    assert main(["alpha", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not positive and finite" in captured.err


@pytest.mark.parametrize("w0", ["nan", "inf"])
def test_nu_rejects_non_finite_w0(capsys, p3_file, w0):
    assert main(["nu", p3_file, "--root", "0", "--w0", w0]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite and >= 1" in captured.err


@pytest.mark.parametrize("w0", ["nan", "inf"])
def test_min_rooted_rejects_non_finite_w0(capsys, w0):
    assert main(["min-rooted", "--seq", "2,2,1,1", "--w0", w0]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite and >= 1" in captured.err
