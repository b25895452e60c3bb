"""Benchmark of fiedlertrees: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed, measures set-up in separate
processes, runs one workload process (worker.py) that times whole passes
over the workload's CLI operations for about S seconds, then checks every
output of every pass and prints one JSON object as the last line.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced passes.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import LAYER_METRICS
from yardstick import scaled_pass_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 9  # set-up-only processes per run, besides the workload process
TIMEOUT_S = 170  # for the whole run, so that it ends within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(run_dir: Path, setup_only: bool, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it once it reports ready, with the
    seconds from its start until then."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--run-dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"workload process did not start (exit code {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("workload process timed out") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited with {proc.returncode}")


def _pass_s(times: list[float], segments: list[list]) -> float:
    """The median pass time, scaled to the reference host speed on the
    workloads that time the yardstick."""
    return scaled_pass_s(segments) if any(segments) else statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, results: Path = RESULTS) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    if not (ROOT / "src" / "fiedlertrees" / "cli.py").is_file():
        raise BenchmarkError(f"no fiedlertrees sources under {ROOT / 'src'}")
    run_dir = results / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workloads.build(workload, seed, run_dir / "inputs", small)
    plan = {"ops": ops, "seconds": seconds, "trace": trace,
            "yardstick": workload in workloads.HOST_SCALED}
    (run_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = _spawn(run_dir, True, deadline)
        _finish(proc, deadline)
        setups.append(setup)
    proc, setup = _spawn(run_dir, False, deadline)
    setups.append(setup)
    _finish(proc, deadline)
    worker = json.loads((run_dir / "worker.json").read_text(encoding="utf-8"))

    checker = checks.Checker()
    errors, attempted, failed = [], 0, 0
    for p, codes in enumerate(worker["codes"]):
        pass_dir = run_dir / "passes" / f"{p:03d}"
        texts = []
        for op, rc in zip(ops, codes):
            attempted += 1
            if rc != 0:
                failed += 1
                texts.append(None)
                continue
            texts.append((pass_dir / op["out"]).read_text(encoding="utf-8"))
            errors += checker.check(op, texts[-1])
        errors += checker.check_pass(ops, texts)

    if trace:
        layers = worker["layers"]
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = (_pass_s(worker["traced_pass_s"], worker["traced_segments"])
                         - _pass_s(worker["pass_s"], worker["segments"]))
            elif unit == "s":
                value = statistics.median(layer[name] for layer in layers)
            else:
                value = layers[0][name]
                if any(layer[name] != value for layer in layers):
                    errors.append(f"{name} differs between traced passes")
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "pass_s": {"value": _pass_s(worker["pass_s"], worker["segments"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    summary = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    sticks = [after for segs in worker["segments"] for _, _, after in segs]
    host = {"pass_s_unscaled": statistics.median(worker["pass_s"]),
            "yardstick_s": statistics.median(sticks) if sticks else 0.0}
    (run_dir / "result.json").write_text(json.dumps(summary | {"host": host}, indent=1),
                                         encoding="utf-8")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
