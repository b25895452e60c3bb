"""One workload process: set up, then time passes over the plan's operations
through ``fiedlertrees.cli.main``.

Run by run.py, never by hand.  It prints ``ready`` on stdout once set-up is
done (interpreter, ``import fiedlertrees`` from the checkout's ``src/``, and
one small warm-up command); with ``--setup-only`` it stops there.  Otherwise
it reads ``plan.json`` from the run directory and writes ``worker.json``.
When the plan asks for it, the yardstick (yardstick.py) is timed between
operations, so that run.py can scale the pass times to a fixed host speed.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from yardstick import yardstick

STICK_EVERY_S = 1.0  # operation seconds between yardsticks inside a pass

ROOT = Path(__file__).resolve().parent.parent
WARMUP = ["min-cat", "--seq", "3,2,2,1,1,1"]
# the wall-clock "elapsed" field of search reports is the only output whose
# length varies from run to run; its digits are not counted in cli.out_kb
_ELAPSED = re.compile(rb'"elapsed": [-+.0-9eE]+')


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash inside the program fails this operation only
        traceback.print_exc()
        return -1


def _run_passes(cli, ops, run_dir: Path, first: int, budget: float, stick=None,
                after_pass=None):
    """Whole passes until the next one would end after ``budget`` seconds
    (at least one).  With ``stick`` (the yardstick), it is timed before the
    first operation, after every operation that ends a stretch of at least
    STICK_EVERY_S seconds of operations, and after the last operation of
    each pass.  Returns the pass times (operations only), each pass's
    segments ``[seconds, yardstick before, yardstick after]`` (none without
    ``stick``) and the exit codes."""
    times, segments, codes, walls = [], [], [], []
    last = stick() if stick else None
    begin = time.perf_counter()
    while True:
        w0 = time.perf_counter()
        pass_dir = run_dir / "passes" / f"{first + len(times):03d}"
        pass_dir.mkdir(parents=True)
        rcs, segs, stretch, total = [], [], 0.0, 0.0
        for i, op in enumerate(ops):
            argv = op["argv"] + ["--out", str(pass_dir / op["out"])]
            t0 = time.perf_counter()
            rcs.append(_call(cli.main, argv))
            seconds = time.perf_counter() - t0
            stretch += seconds
            total += seconds
            if stick and (stretch >= STICK_EVERY_S or i == len(ops) - 1):
                now = stick()
                segs.append([stretch, last, now])
                last, stretch = now, 0.0
        times.append(total)
        segments.append(segs)
        codes.append(rcs)
        if after_pass is not None:
            after_pass(pass_dir)
        walls.append(time.perf_counter() - w0)
        if time.perf_counter() - begin + statistics.median(walls) > budget:
            return times, segments, codes


def _out_bytes(pass_dir: Path) -> int:
    return sum(len(_ELAPSED.sub(b"", p.read_bytes())) for p in pass_dir.iterdir())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import fiedlertrees
    from fiedlertrees import cli

    src = ROOT / "src"
    if src not in Path(fiedlertrees.__file__).resolve().parents:
        sys.exit(f"fiedlertrees was imported from {fiedlertrees.__file__}, not from {src}")
    if cli.main(WARMUP + ["--out", str(args.run_dir / "warmup.json")]) != 0:
        sys.exit("warm-up command failed")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    plan = json.loads((args.run_dir / "plan.json").read_text(encoding="utf-8"))
    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]
    stick = yardstick if plan["yardstick"] else None
    if stick:
        stick()  # its first LAPACK calls and allocations are not timed
    result = {}
    budget = seconds / 2 if trace else seconds
    result["pass_s"], result["segments"], result["codes"] = _run_passes(
        cli, ops, args.run_dir, 0, budget, stick)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        times, segments, codes = _run_passes(
            cli, ops, args.run_dir, len(result["pass_s"]), budget, stick,
            after_pass=lambda d: tracer.end_pass(_out_bytes(d)),
        )
        result["traced_pass_s"], result["traced_segments"] = times, segments
        result["codes"] += codes
        result["layers"] = [tracer.pass_metrics(p) for p in tracer.passes]
        tracer.write(args.run_dir / "spans.npz")
    (args.run_dir / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
