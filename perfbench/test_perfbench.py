"""Tests of the benchmark itself: every workload runs at reduced size and
passes its checks, the traced pass reports every layer metric, and every
checker rejects a corrupted output."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of every workload at reduced size."""
    results = tmp_path_factory.mktemp("perfbench")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_PROBES", 1)
        summaries = {
            w: run.run_workload(w, SEED, 0.5, trace=True, small=True, results=results)
            for w in workloads.WORKLOADS
        }
    return results, summaries


def _outputs(results: Path, workload: str) -> tuple[list[dict], list[str]]:
    """Operations and first-pass outputs of a traced run."""
    run_dir = results / f"{workload}-seed{SEED}-trace1"
    ops = json.loads((run_dir / "plan.json").read_text())["ops"]
    texts = [(run_dir / "passes" / "000" / op["out"]).read_text() for op in ops]
    return ops, texts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_is_correct_and_reports_every_layer(traced, workload):
    summary = traced[1][workload]
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 2
    assert set(summary["metrics"]) == set(tracing.LAYER_METRICS)
    for name, unit in tracing.LAYER_METRICS.items():
        assert summary["metrics"][name]["unit"] == unit


def test_layers_a_workload_does_not_use_read_zero(traced):
    m = {w: {k: v["value"] for k, v in s["metrics"].items()} for w, s in traced[1].items()}
    for w in ("caterpillar", "large_tree"):
        assert m[w]["enumeration.words"] == 0
    for w in ("exhaustive", "verify"):
        assert m[w]["enumeration.words"] > 0
        assert 0 < m[w]["enumeration.yield"] <= 1
    assert m["verify"]["enumeration.rooted_keys"] > 0
    assert m["exhaustive"]["enumeration.rooted_keys"] == 0
    assert m["large_tree"]["search.candidates"] == 0
    assert m["large_tree"]["spectral.order_max"] == max(workloads.RANDOM_TREE_N[True])
    assert m["caterpillar"]["search.candidates"] == 2 * sum(
        checks.arrangement_count(i) for i in workloads.CATERPILLAR_INTERIORS[True]
    )
    assert all(m[w]["cli.out_kb"] > 0 and m[w]["trees.built"] > 0 for w in m)


def test_end_to_end_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    summary = run.run_workload("caterpillar", SEED, 0.2, trace=False, small=True, results=tmp_path)
    assert summary["correct"] is True
    assert set(summary["metrics"]) == {"pass_s", "setup_s", "peak_rss_mb"}
    assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_pass_time_is_scaled_by_the_yardsticks_around_it():
    ref = yardstick.REFERENCE_S
    assert yardstick.scaled_pass_s([[[2.0, ref, ref]]]) == pytest.approx(2.0)
    # a host twice as slow doubles both the operations and the yardsticks
    assert yardstick.scaled_pass_s([[[4.0, 2 * ref, 2 * ref]]]) == pytest.approx(2.0)
    # each stretch is divided by the mean of the yardsticks around it
    fast_then_slow = [[1.5, ref, 2 * ref], [2.0, 2 * ref, 2 * ref]]
    assert yardstick.scaled_pass_s([fast_then_slow]) == pytest.approx(2.0)
    # the median over passes, so one stalled pass does not move it
    one = [[1.0, ref, ref]]
    assert yardstick.scaled_pass_s([one, one, [[9.0, ref, ref]]]) == pytest.approx(1.0)


def test_inputs_repeat_for_a_seed(tmp_path):
    for w in workloads.WORKLOADS:
        a = workloads.build(w, 3, tmp_path / "a", small=True)
        b = workloads.build(w, 3, tmp_path / "a", small=True)
        assert a == b


def _rejects(checker: checks.Checker, op: dict, text: str) -> bool:
    return bool(checker.check(op, text))


def _first(ops, texts, kind):
    return next((op, t) for op, t in zip(ops, texts) if op["kind"] == kind)


def test_exhaustive_checker_rejects_corruption(traced):
    ops, texts = _outputs(traced[0], "exhaustive")
    checker = checks.Checker()
    assert not any(checker.check(op, t) for op, t in zip(ops, texts))
    op, text = _first(ops, texts, "min-tree")
    out = json.loads(text)
    for corrupt in (
        lambda o: o.update(instance_count=o["instance_count"] + 1),
        lambda o: o.update(min_value=o["min_value"] * (1 + 1e-6)),
        lambda o: o["minimizers"][0].update(is_theorem1_shape=False),
        lambda o: o.update(minimizers=[]),
    ):
        bad = copy.deepcopy(out)
        corrupt(bad)
        assert _rejects(checker, op, json.dumps(bad))


def test_caterpillar_checkers_reject_corruption(traced):
    ops, texts = _outputs(traced[0], "caterpillar")
    checker = checks.Checker()
    assert not any(checker.check(op, t) for op, t in zip(ops, texts))
    assert not checker.check_pass(ops, texts)

    op, text = _first(ops, texts, "min-cat")
    out = json.loads(text)
    for corrupt in (
        lambda o: o.update(instance_count=o["instance_count"] - 1),
        lambda o: o.update(min_value=o["min_value"] * (1 + 1e-6)),
        lambda o: o["minimizers"][0].update(arrangement=o["minimizers"][0]["arrangement"][::-1][1:]),
    ):
        bad = copy.deepcopy(out)
        corrupt(bad)
        assert _rejects(checker, op, json.dumps(bad))
    shifted = [json.dumps(dict(out, min_value=out["min_value"] * 1.001)) if o is op else t
               for o, t in zip(ops, texts)]
    assert checker.check_pass(ops, shifted)

    op, text = _first(ops, texts, "explore")
    header, *rows = text.splitlines()
    first = rows[0].split(",")
    non_monotone = first[:5] + ["3|2", first[6]]
    for bad_rows in (
        rows[1:],  # a row missing
        rows[::-1],  # not sorted by alpha
        [",".join(non_monotone)] + rows[1:],  # non-monotone minimiser row
        [",".join(first[:2] + [str(float(first[2]) * 1.01)] + first[3:])] + rows[1:],  # shifted alpha
    ):
        assert _rejects(checker, op, "\n".join([header, *bad_rows]) + "\n")


def test_large_tree_checkers_reject_corruption(traced):
    ops, texts = _outputs(traced[0], "large_tree")
    checker = checks.Checker()
    assert not any(checker.check(op, t) for op, t in zip(ops, texts))

    op, text = _first(ops, texts, "alpha")
    out = json.loads(text)
    f = np.array(out["fiedler"])
    for bad in (
        dict(out, alpha=out["alpha"] * (1 + 1e-7)),
        dict(out, fiedler=list(f * 1.01)),
        dict(out, fiedler=list(np.abs(f) / np.linalg.norm(f))),
    ):
        assert _rejects(checker, op, json.dumps(bad))

    op, text = _first(ops, texts, "split")
    out = json.loads(text)
    bad = copy.deepcopy(out)
    bad["side_pos"]["edges"][0][2] *= 1.5
    assert _rejects(checker, op, json.dumps(bad))
    assert _rejects(checker, op, json.dumps(dict(out, alpha=out["alpha"] * 1.001)))

    op, text = _first(ops, texts, "nu")
    out = json.loads(text)
    assert _rejects(checker, op, json.dumps(dict(out, nu=out["nu"] * (1 + 1e-7))))
    assert _rejects(checker, op, json.dumps(dict(out, vector=out["vector"][::-1])))


def test_verify_checker_rejects_corruption(traced):
    ops, texts = _outputs(traced[0], "verify")
    checker = checks.Checker()
    op, text = ops[0], texts[0]
    assert not checker.check(op, text)
    out = json.loads(text)
    assert _rejects(checker, op, json.dumps(dict(out, passed=False)))
    assert _rejects(checker, op, json.dumps(dict(out, checks=out["checks"][1:])))
    bad = copy.deepcopy(out)
    bad["checks"][0]["checked"] = 0
    assert _rejects(checker, op, json.dumps(bad))


@pytest.mark.parametrize("interior", [(2,), (2, 2, 3), (2, 3, 3, 3), (2, 2, 3, 3, 4, 4, 5), (3, 3, 3, 3)])
def test_arrangement_closed_form_matches_enumeration(interior):
    assert checks.arrangement_count(interior) == len(checks.caterpillar_alphas(interior))


def test_shape_predicates():
    assert checks.is_valley([4, 2, 2, 3, 5]) and checks.is_valley([2, 3]) and checks.is_valley([5, 3])
    assert not checks.is_valley([2, 3, 2])
    import networkx as nx

    spider = nx.Graph([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert checks.spine(spider) is None
    assert checks.spine(nx.path_graph(5)) in ([1, 2, 3], [3, 2, 1])


def test_self_times():
    # root [0, 10] with children [1, 4] and [5, 6]; [2, 3] inside the first
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
