"""Command-line interface.

JSON (or CSV for `explore`) goes to stdout or --out; diagnostics go to
stderr, so outputs are pipeline safe.  All floating-point output is
printed with 12 significant digits.

Exit codes: 0 success, 2 parse error, invalid sequence, or an input or
--out file that cannot be opened, 3 input is not a tree (an edge weight
that is not positive and finite included), 4 boundary weight below 1 or
not finite, 5 a verification suite failed, 6 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .nodal import analyze, analysis_to_json, check_monotone_paths, geometric_split
from .search import (
    SUITES,
    EnumerationCapExceeded,
    explore_partitions,
    min_alpha_caterpillar,
    min_alpha_tree,
    min_nu_rooted,
    partition_rows_to_csv,
    verify_suite,
)
from .spectral import dirichlet_nu
from .trees import (
    EdgeListParseError,
    NotATreeError,
    read_edge_list,
    validate_tree_sequence,
    with_boundary_weight,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_A_TREE = 3
EXIT_BAD_W0 = 4
EXIT_VERIFY_FAILED = 5
EXIT_CAP = 6


def _round_floats(obj):
    """Round every float to 12 significant digits for reproducible diffs."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    _write(json.dumps(_round_floats(obj), indent=2) + "\n", out)


def _parse_seq(text: str) -> tuple[int, ...]:
    try:
        seq = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse degree sequence {text!r}") from None
    if not validate_tree_sequence(seq):
        raise ValueError(f"{text!r} is not a valid tree sequence")
    return seq


def _cmd_alpha(args) -> int:
    tree = read_edge_list(args.file)
    analysis = analyze(tree)
    _emit_json(analysis_to_json(analysis), args.out)
    return EXIT_OK


def _cmd_nu(args) -> int:
    tree = read_edge_list(args.file)
    if not 0 <= args.root < tree.n:
        print(f"error: root {args.root} out of range", file=sys.stderr)
        return EXIT_PARSE
    if not 1.0 <= args.w0 < math.inf:
        print(f"error: --w0 {args.w0} must be finite and >= 1", file=sys.stderr)
        return EXIT_BAD_W0
    rbt = with_boundary_weight(tree, args.root, args.w0)
    nu, vec = dirichlet_nu(rbt)
    _emit_json(
        {
            "nu": nu,
            "root": rbt.root,
            "w0": rbt.boundary_weight,
            "interior": list(rbt.interior()),
            "vector": [float(x) for x in vec],
            "monotone_paths": check_monotone_paths(rbt, vec),
        },
        args.out,
    )
    return EXIT_OK


def _side_json(rbt, origin) -> dict:
    nu, vec = dirichlet_nu(rbt)
    return {
        "root": rbt.root,
        "boundary_weight": rbt.boundary_weight,
        "edges": [[u, v, w] for u, v, w in rbt.tree.edges],
        "origin": list(origin),
        "nu": nu,
    }


def _cmd_split(args) -> int:
    tree = read_edge_list(args.file)
    analysis = analyze(tree)
    split = geometric_split(tree, analysis)
    pos = _side_json(split.pos, split.origin_pos)
    neg = _side_json(split.neg, split.origin_neg)
    alpha = analysis.alpha
    pos["residual"] = abs(pos["nu"] - alpha) / alpha
    neg["residual"] = abs(neg["nu"] - alpha) / alpha
    out = {
        "alpha": alpha,
        "characteristic": {
            "kind": analysis.charset.kind,
            "ids": list(analysis.charset.ids),
        },
        "side_pos": pos,
        "side_neg": neg,
    }
    if split.w1 is not None:
        out["w1"] = split.w1
        out["w2"] = split.w2
    _emit_json(out, args.out)
    return EXIT_OK


def _cmd_min_tree(args) -> int:
    seq = _parse_seq(args.seq)
    report = min_alpha_tree(seq)
    _emit_json(report.to_json(), args.out)
    return EXIT_OK


def _cmd_min_cat(args) -> int:
    seq = _parse_seq(args.seq)
    report = min_alpha_caterpillar(seq)
    _emit_json(report.to_json(), args.out)
    return EXIT_OK


def _cmd_min_rooted(args) -> int:
    if not 1.0 <= args.w0 < math.inf:
        print(f"error: --w0 {args.w0} must be finite and >= 1", file=sys.stderr)
        return EXIT_BAD_W0
    seq = _parse_seq(args.seq)
    report = min_nu_rooted(seq, args.w0)
    _emit_json(report.to_json(), args.out)
    return EXIT_OK


def _cmd_explore(args) -> int:
    seq = _parse_seq(args.seq)
    rows = explore_partitions(seq)
    _write(partition_rows_to_csv(rows), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_suite(
        args.suite,
        nmax=args.nmax,
        samples=args.samples,
        rng_seed=args.rng_seed,
    )
    _emit_json(report, args.out)
    if not report["passed"]:
        print(f"suite {args.suite} failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiedlertrees",
        description=(
            "Algebraic connectivity, Fiedler vectors, and Dirichlet "
            "eigenvalues of trees, with exhaustive extremal searches over "
            "degree sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("alpha", help="algebraic connectivity and Fiedler analysis")
    p.add_argument("file", help="edge-list file: one 'u v [w]' per line")
    add_out(p)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("nu", help="first Dirichlet eigenvalue of a rooted tree")
    p.add_argument("file")
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--w0", type=float, default=1.0, help="boundary edge weight (finite, >= 1)")
    add_out(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("split", help="split a tree at its characteristic set")
    p.add_argument("file")
    add_out(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("min-tree", help="alpha minimizers over all trees")
    p.add_argument("--seq", required=True, help="degree sequence, e.g. 3,2,2,2,1,1,1")
    add_out(p)
    p.set_defaults(func=_cmd_min_tree)

    p = sub.add_parser("min-cat", help="alpha minimizers over caterpillars")
    p.add_argument("--seq", required=True)
    add_out(p)
    p.set_defaults(func=_cmd_min_cat)

    p = sub.add_parser("min-rooted", help="nu minimizers over rooted trees")
    p.add_argument("--seq", required=True)
    p.add_argument("--w0", type=float, default=1.0)
    add_out(p)
    p.set_defaults(func=_cmd_min_rooted)

    p = sub.add_parser("explore", help="CSV of spine arrangements and partitions")
    p.add_argument("--seq", required=True)
    add_out(p)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    add_out(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotATreeError as exc:
        print(f"not a tree: {exc}", file=sys.stderr)
        return EXIT_NOT_A_TREE
    except EnumerationCapExceeded as exc:
        print(f"enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
