"""Inputs of the four workloads, made from the benchmark seed.

Each workload is a fixed list of CLI operations (one "pass").  The seed
changes the inputs but not their sizes: it shuffles the order of the
operations and of the degrees in each ``--seq``, draws the random trees of
``large_tree``, relabels its caterpillar, and sets ``verify --rng-seed``.
No input is made with fiedlertrees itself.
"""

from __future__ import annotations

import random
from pathlib import Path

import networkx as nx

WORKLOADS = ("exhaustive", "caterpillar", "large_tree", "verify")
# workloads whose pass time is scaled by the yardstick (README.md, "Host
# speed"): interpreted Python does most of their work, and its speed drifts
# with the host.  large_tree spends its time in dense LAPACK solves, which
# drift far less and which the yardstick does not follow, so its pass time
# is reported unscaled.
HOST_SCALED = ("exhaustive", "caterpillar", "verify")

# full size / reduced size used by the benchmark's own tests
EXHAUSTIVE_N = {False: 9, True: 6}
CATERPILLAR_INTERIORS = {
    False: (
        (2, 2, 3, 3, 4, 4, 5),
        (2, 3, 4, 5, 6, 7, 8),
        (2, 2, 3, 3, 4, 4, 5, 5),
        (2, 2, 2, 3, 3, 3, 4, 4, 4),
    ),
    True: ((2, 3, 4), (2, 2, 3, 3)),
}
RANDOM_TREE_N = {False: (500, 2000), True: (40, 80)}
# spine degrees of a caterpillar of the extremal shape: degrees fall from
# a hub at one end towards the middle and grow again towards the other end
HUB_SPINE = {
    False: (500, 50, 8, 4, 3, 2, 2, 3, 4, 8, 50, 300),
    True: (20, 4, 2, 2, 3, 12),
}
VERIFY_NMAX = {False: 8, True: 5}


def tree_sequences(n: int) -> list[tuple[int, ...]]:
    """Every degree multiset of a tree on n >= 3 vertices, non-increasing:
    n - 2 extra degree units spread over the vertices as a partition."""

    def partitions(k: int, top: int):
        if k == 0:
            yield ()
            return
        for first in range(min(k, top), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    return [
        tuple(p + 1 for p in parts) + (1,) * (n - len(parts))
        for parts in partitions(n - 2, n - 2)
    ]


def caterpillar_sequence(interior: tuple[int, ...]) -> tuple[int, ...]:
    """Full degree sequence of a caterpillar with the given spine degrees."""
    leaves = 2 + sum(d - 2 for d in interior)
    return tuple(sorted(interior, reverse=True)) + (1,) * leaves


def caterpillar_edges(spine: tuple[int, ...]) -> list[tuple[int, int]]:
    """Spine vertices 0..m-1 in order, then their pendant vertices."""
    m = len(spine)
    edges = [(i, i + 1) for i in range(m - 1)]
    nxt = m
    for i, d in enumerate(spine):
        inner = (i > 0) + (i < m - 1)
        for _ in range(d - inner):
            edges.append((i, nxt))
            nxt += 1
    return edges


def _seq_arg(seq: tuple[int, ...], rng: random.Random) -> str:
    degrees = list(seq)
    rng.shuffle(degrees)
    return ",".join(str(d) for d in degrees)


def _write_edges(path: Path, edges: list[tuple[int, int]], rng: random.Random) -> None:
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _exhaustive(rng, small, _inputs):
    n = EXHAUSTIVE_N[small]
    return [
        {"kind": "min-tree", "seq": list(seq), "argv": ["min-tree", "--seq", _seq_arg(seq, rng)]}
        for seq in tree_sequences(n)
    ]


def _caterpillar(rng, small, _inputs):
    ops = []
    for interior in CATERPILLAR_INTERIORS[small]:
        seq = caterpillar_sequence(interior)
        for kind in ("min-cat", "explore"):
            ops.append({"kind": kind, "seq": list(seq), "argv": [kind, "--seq", _seq_arg(seq, rng)]})
    return ops


def _large_tree(rng, small, inputs):
    ops = []
    trees = []
    for n in RANDOM_TREE_N[small]:
        word = [rng.randrange(n) for _ in range(n - 2)]
        tree = nx.from_prufer_sequence(word)
        # rooted at a leaf, nu solves one interior block of n - 1 vertices
        # whatever the seed, so its cost and memory do not depend on it
        leaf = rng.choice(sorted(v for v in tree if tree.degree(v) == 1))
        trees.append((f"random{n}.txt", n, sorted(tree.edges()), leaf))
    spine = HUB_SPINE[small]
    edges = caterpillar_edges(spine)
    n = len(edges) + 1
    relabel = list(range(n))
    rng.shuffle(relabel)
    edges = [(relabel[u], relabel[v]) for u, v in edges]
    trees.append((f"hub{n}.txt", n, edges, relabel[0]))
    for name, n, edges, root in trees:
        path = inputs / name
        _write_edges(path, edges, rng)
        for kind in ("alpha", "split"):
            ops.append({"kind": kind, "file": str(path), "argv": [kind, str(path)]})
        ops.append(
            {"kind": "nu", "file": str(path), "root": root,
             "argv": ["nu", str(path), "--root", str(root)]}
        )
    return ops


def _verify(rng, small, _inputs):
    nmax = VERIFY_NMAX[small]
    return [{
        "kind": "verify",
        "argv": ["verify", "--suite", "all", "--nmax", str(nmax),
                 "--rng-seed", str(rng.randrange(2**31))],
    }]


_WORKLOAD_OPS = {
    "exhaustive": _exhaustive,
    "caterpillar": _caterpillar,
    "large_tree": _large_tree,
    "verify": _verify,
}


def build(workload: str, seed: int, inputs: Path, small: bool = False) -> list[dict]:
    """The operations of one pass of the workload.  Each is a dict with the
    CLI ``argv`` (without ``--out``), its ``kind``, the name of its output
    file in a pass directory, and what the checks need to know about its
    input.  Input files are written to ``inputs``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    ops = _WORKLOAD_OPS[workload](rng, small, inputs)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["out"] = f"{i:03d}.{'csv' if op['kind'] == 'explore' else 'json'}"
    return ops
