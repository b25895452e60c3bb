"""Command-line interface: outputs, schemas, and exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiedlertrees import canonical_code, parse_edge_list, path_tree
from fiedlertrees.cli import _json_text, main

from helpers import NU_M2, dirichlet_path_nu, report_json_by_dumps


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


# the path on 15 vertices: its 13-vertex skeleton path has 11! = 39,916,800
# Prufer words, over the 10^7 cap
OVER_CAP = ",".join(["2"] * 13 + ["1", "1"])


def test_min_tree_cap_exceeded(capsys):
    assert main(["min-tree", "--seq", OVER_CAP]) == 6


def test_min_rooted_cap_exceeded(capsys):
    assert main(["min-rooted", "--seq", OVER_CAP, "--w0", "1.5"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "39916800 skeleton words exceed the cap 10000000" in captured.err


@pytest.mark.parametrize("command", ["min-tree", "min-rooted"])
def test_cap_exceeded_by_a_count_too_long_to_print(capsys, command):
    # the 2,002-vertex path: its skeleton has 1998! (about 8.3e5728) words,
    # more digits than str() converts
    seq = ",".join(["2"] * 2000 + ["1", "1"])
    assert main([command, "--seq", seq]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "enumeration cap exceeded: at least 10^5728 skeleton words exceed the cap 10000000\n"
    )


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


BAD_W0 = "must be finite and >= 1"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["min-tree", "--seq", "3,1"], 2, "invalid tree sequence (3, 1)"),
        (["nu", "P3", "--root", "99"], 2, "root 99 out of range"),
        # the boundary weight is checked before the root
        (["nu", "P3", "--root", "99", "--w0", "0.5"], 4, f"boundary weight 0.5 {BAD_W0}"),
        # --seq is parsed before the search checks the boundary weight,
        # which it checks before the sequence
        (["min-rooted", "--seq", "x", "--w0", "nan"], 2, "could not parse degree sequence 'x'"),
        (["min-rooted", "--seq", "3,1", "--w0", "nan"], 4, f"boundary weight nan {BAD_W0}"),
    ],
)
def test_the_first_fault_found_decides_the_exit(capsys, p3_file, argv, code, message):
    assert main([p3_file if a == "P3" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    code, doc = _run_json(capsys, ["verify", "--suite", "glue", "--rng-seed", "7"])
    assert code == 0
    assert doc["passed"] is True


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--suite", "theorem1", "--nmax", "1"], "nmax"),
        (["--suite", "all", "--nmax", "1"], "nmax"),
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


def test_verify_ignores_the_rng_seed(capsys):
    # every suite checks every case up to --nmax, so the seed chooses nothing
    outputs = []
    for seed in ("1", "987654321"):
        assert main(["verify", "--suite", "all", "--nmax", "6", "--rng-seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["params"] == {"nmax": 6}


def test_verify_failure_maps_to_exit_5(capsys, monkeypatch):
    import fiedlertrees.cli as cli

    monkeypatch.setattr(
        cli,
        "verify_suite",
        lambda *a, **k: {"suite": "glue", "passed": False, "checks": []},
    )
    assert main(["verify", "--suite", "glue"]) == 5


def test_verify_lists_the_first_20_failures(capsys, monkeypatch):
    import fiedlertrees.search as search
    from fiedlertrees.search import all_tree_sequences

    # no rooted tree has the predicted shape, so lemma5 fails at every
    # sequence with n <= 6 and every boundary weight: 12 times 3 checks
    monkeypatch.setattr(search, "is_minimal_shape_rooted", lambda rbt: False)
    code, doc = _run_json(capsys, ["verify", "--suite", "lemma5", "--nmax", "6"])
    assert code == 5
    assert doc["passed"] is False
    (check,) = doc["checks"]
    assert check["checked"] == 36
    assert check["passed"] is False
    failed = [
        (list(seq), w0)
        for n in range(2, 7)
        for seq in all_tree_sequences(n)
        for w0 in (1.0, 1.5, 3.0)
    ]
    assert [(f["sequence"], f["w0"]) for f in check["failures"]] == failed[:20]


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


# floats where "%.12g" and repr part ways: non-finite, signed zero, the
# least subnormal, integers, and [1e12, 1e16), where "%.12g" prints an
# exponent and repr does not
_FLOATS = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.0, 1e-4, 1e16])
    | st.floats(1e12, 1e16, exclude_max=True)
    | st.floats(-1e16, -1e12, exclude_min=True)
    | st.integers(-(10**6), 10**6).map(float)
    | st.floats().map(np.float64)
)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(_KEYS, inner, max_size=5)
    # columns of plain scalars and rows of one length, as reports hold
    | st.lists(_FLOATS, max_size=8)
    | st.lists(st.tuples(st.integers(), st.integers(), _FLOATS), max_size=6)
    | st.lists(st.lists(inner, min_size=2, max_size=2), max_size=4),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_REPORTS)
def test_report_text_equals_json_dumps_of_the_rounded_report(report):
    assert _json_text(report) + "\n" == report_json_by_dumps(report)


@pytest.mark.parametrize(
    "report",
    [
        {},
        [],
        (),
        {"a": []},
        [[], {}],
        [[1, 2], [3]],
        [[1.5, 2], (3, 4.25)],
        "é\n\"",
        {math.nan: 1, math.inf: 2, -math.inf: 3, 0.1: 4, True: 5, None: 6, 7: 8},
        {(1, 2): 3},
        [np.int64(3)],
    ],
    ids=[
        "dict", "list", "tuple", "nested", "empties", "ragged", "rows", "string", "keys",
        "tuple-key", "numpy-int",
    ],
)
def test_report_text_edge_cases(report):
    try:
        want = report_json_by_dumps(report)
    except TypeError:
        with pytest.raises(TypeError):
            _json_text(report)
        return
    assert _json_text(report) + "\n" == want


@pytest.mark.parametrize(
    "argv",
    [
        ["alpha", "T"],
        ["split", "T"],
        ["nu", "T", "--root", "0", "--w0", "1.5"],
        ["min-tree", "--seq", "3,3,2,2,1,1,1,1"],
        ["min-cat", "--seq", "3,3,2,2,1,1,1,1"],
        ["min-rooted", "--seq", "3,3,2,2,1,1,1,1", "--w0", "1.5"],
        ["verify", "--suite", "all", "--nmax", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_report_is_written_as_json_dumps_wrote_it(capsys, tmp_path, argv, monkeypatch):
    import fiedlertrees.cli as cli

    edges = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6), (6, 7)]
    tree = tmp_path / "t.txt"
    tree.write_text("".join(f"{u} {v}\n" for u, v in edges))
    argv = [str(tree) if a == "T" else a for a in argv]
    reports = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json", lambda obj, out: reports.append(obj) or emit(obj, out))
    assert main(argv) == 0
    assert [report_json_by_dumps(r) for r in reports] == [capsys.readouterr().out]
