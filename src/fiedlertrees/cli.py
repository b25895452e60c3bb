"""Command-line interface.

JSON (or CSV for `explore`) goes to stdout or --out; diagnostics go to
stderr, so outputs are pipeline safe.  All floating-point output is
printed with 12 significant digits.

Exit codes: 0 success, 2 parse error, invalid sequence, or an input or
--out file that cannot be opened, 3 input is not a tree (an edge weight
that is not positive and finite included), 4 boundary weight below 1 or
not finite (BoundaryWeightError), 5 a verification suite failed, 6
enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .nodal import analysis_to_json, analyze, check_monotone_paths, geometric_split, verify_split
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
    BoundaryWeightError,
    EdgeListParseError,
    NotATreeError,
    read_edge_list,
    with_boundary_weight,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_A_TREE = 3
EXIT_BAD_W0 = 4
EXIT_VERIFY_FAILED = 5
EXIT_CAP = 6


# json's text of a non-finite float
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_string = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    """json's text of x rounded to 12 significant digits.  A "%.12g" text
    with a point and no exponent is already the repr of the float it
    rounds to: no other decimal of at most 15 digits rounds to that float,
    so its shortest round-trip digits are the text's own."""
    text = format(x, ".12g")
    if "." in text and "e" not in text:
        return text
    return _NONFINITE.get(text) or float.__repr__(float(text))


# the text of a scalar of each exact type json writes
_SCALARS = {
    str: _string,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key_text(key) -> str:
    """A dict key as json writes it: a str, or a float (not rounded), bool,
    None or int turned into one."""
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        text = float.__repr__(key)
        return _string(_NONFINITE.get(text, text))
    if key is True or key is False or key is None:
        return _string(_SCALARS[type(key)](key))
    if isinstance(key, int):
        return _string(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _items_text(values, pad: str) -> list[str]:
    """The text of each item of a list or tuple whose lines begin with pad:
    scalars mapped through their type's text function, rows of one length
    column by column, and anything else item by item."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS.keys():
        if len(kinds) == 1:
            return list(map(_SCALARS[kinds.pop()], values))
        return [_SCALARS[type(v)](v) for v in values]
    if kinds <= {list, tuple} and len(set(map(len, values))) == 1 and values[0]:
        inner = pad + "  "
        sep = "," + inner
        columns = [_items_text(column, inner) for column in zip(*values)]
        return ["[" + inner + sep.join(row) + pad + "]" for row in zip(*columns)]
    return [_json_text(v, pad) for v in values]


def _json_text(obj, pad: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2) writes it with every float value
    (not key) rounded to 12 significant digits, each line of its items
    beginning with pad and two spaces."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_items_text(obj, inner)) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_key_text(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    # a subclass of a scalar type, in json's order of tests
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    _write(_json_text(obj) + "\n", out)


def _parse_seq(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated --seq; the searches check that
    they are a tree sequence."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse degree sequence {text!r}") from None


def _cmd_alpha(args) -> int:
    tree = read_edge_list(args.file)
    analysis = analyze(tree)
    _emit_json(analysis_to_json(analysis), args.out)
    return EXIT_OK


def _cmd_nu(args) -> int:
    tree = read_edge_list(args.file)
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
    pos["residual"], neg["residual"] = verify_split(tree, split, alpha, (pos["nu"], neg["nu"]))
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
    report = verify_suite(args.suite, nmax=args.nmax)
    _emit_json(report, args.out)
    if not report["passed"]:
        print(f"suite {args.suite} failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
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
    p.add_argument(
        "--rng-seed",
        type=int,
        default=0,
        help="ignored: every suite checks every case up to --nmax and draws none; "
        "accepted so that older command lines still run",
    )
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
    except BoundaryWeightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_W0
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
