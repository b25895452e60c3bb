"""Constructive moves on rooted boundary trees and the structural
predicates they certify.

The two pendant perturbations and the branch rearrangement each strictly
decrease the first Dirichlet eigenvalue when applied under their
preconditions, which is what pins down the shape of eigenvalue
minimizers: a caterpillar whose non-pendant degrees grow away from the
root.  Gluing two rooted trees at their roots bounds the algebraic
connectivity of the result by the larger of the two Dirichlet
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .nodal import FiedlerAnalysis
from .trees import (
    RootedBoundaryTree,
    Tree,
    distances_from,
    is_caterpillar,
    spine_path,
    trunk,
)


@dataclass(frozen=True)
class PerturbationRecord:
    """One applied move: kind is "P1", "P2" or "Rearrange"; moved lists the
    removed then the added edges."""

    kind: str
    before_nu: float
    after_nu: float
    moved: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "before_nu": float(self.before_nu),
            "after_nu": float(self.after_nu),
            "moved": [list(e) for e in self.moved],
        }


def perturb_p1(
    rbt: RootedBoundaryTree, w: int, vi: int, vj: int
) -> RootedBoundaryTree:
    """Move pendant w from trunk vertex vi to the deeper trunk vertex vj.

    Requires a rooted caterpillar, w a pendant other than the root attached
    to vi, and vi, vj on the trunk with height(vi) < height(vj).  The vertex
    count is unchanged; if vj was the head, the trunk lengthens.
    """
    t = rbt.tree
    line = trunk(rbt)
    pos = {v: i for i, v in enumerate(line)}
    if w == rbt.root or not t.is_pendant(w):
        raise ValueError(f"w={w} must be a pendant vertex other than the root")
    if vi not in pos or vj not in pos:
        raise ValueError(f"vi={vi} and vj={vj} must lie on the trunk")
    if not t.has_edge(w, vi):
        raise ValueError(f"pendant {w} is not attached to {vi}")
    if pos[vi] >= pos[vj]:
        raise ValueError(f"need height({vi}) < height({vj})")
    if vj == w:
        raise ValueError("cannot reattach a pendant to itself")
    if t.weight(w, vi) != 1.0:
        raise ValueError("cannot detach the weighted boundary edge from the root")
    edges = [e for e in t.edges if {e[0], e[1]} != {w, vi}]
    edges.append((min(w, vj), max(w, vj), 1.0))
    return RootedBoundaryTree(Tree(t.n, edges), rbt.root)


def perturb_p2(rbt: RootedBoundaryTree, vj: int) -> RootedBoundaryTree:
    """Attach a new pendant vertex to trunk vertex vj (vj != root)."""
    t = rbt.tree
    line = trunk(rbt)
    if vj not in line:
        raise ValueError(f"vj={vj} must lie on the trunk")
    if vj == rbt.root:
        raise ValueError("cannot attach the new pendant to the root")
    edges = list(t.edges) + [(vj, t.n, 1.0)]
    return RootedBoundaryTree(Tree(t.n + 1, edges), rbt.root)


def rearrange_branches(
    rbt: RootedBoundaryTree,
    g,
    x_path: Sequence[int],
    y_path: Sequence[int],
) -> RootedBoundaryTree:
    """Reattach everything hanging below y_i onto the pendant x_j.

    x_path and y_path are simple root paths sharing a prefix and diverging
    after some vertex; x_path ends at a pendant x_j, y_i is the first vertex
    of y_path past the divergence, and the eigenvector value at x_j must
    exceed the one at y_i.  Every edge (y_i, s) with s away from the root is
    replaced by (x_j, s), which preserves the degree multiset.
    """
    t = rbt.tree
    x_path, y_path = tuple(x_path), tuple(y_path)
    for path in (x_path, y_path):
        if not path or path[0] != rbt.root:
            raise ValueError("paths must start at the root")
        for a, b in zip(path, path[1:]):
            if not t.has_edge(a, b):
                raise ValueError(f"({a},{b}) is not an edge")
    split_at = 0
    while (
        split_at < min(len(x_path), len(y_path))
        and x_path[split_at] == y_path[split_at]
    ):
        split_at += 1
    if split_at == 0 or split_at >= min(len(x_path), len(y_path)):
        raise ValueError("paths must share a prefix and then diverge")
    if len(x_path) < split_at + 2 or len(y_path) < split_at + 2:
        raise ValueError("both paths must continue past the divergence")
    anchor = x_path[split_at - 1]
    y_i = y_path[split_at]
    x_j = x_path[-1]
    if not t.is_pendant(x_j):
        raise ValueError(f"x_path must end at a pendant vertex, got {x_j}")
    g = np.asarray(g, dtype=float)
    index = rbt.interior_index()
    if not g[index[x_j]] > g[index[y_i]]:
        raise ValueError("need g(x_j) > g(y_i); swap the roles of the two paths")
    edges = []
    for u, v, wt in t.edges:
        if y_i in (u, v) and anchor not in (u, v):
            s = v if u == y_i else u
            edges.append((min(x_j, s), max(x_j, s), wt))
        else:
            edges.append((u, v, wt))
    return RootedBoundaryTree(Tree(t.n, edges), rbt.root)


def glue(t1: RootedBoundaryTree, t2: RootedBoundaryTree) -> Tree:
    """Identify the two roots into a single interior vertex.

    The merged root becomes vertex 0; the interiors of t1 and then t2 follow
    in increasing original id order.  All edge weights are preserved, so the
    result has |V1| + |V2| - 1 vertices.
    """
    new_id_1 = {t1.root: 0}
    for i, v in enumerate(t1.interior()):
        new_id_1[v] = 1 + i
    offset = t1.tree.n
    new_id_2 = {t2.root: 0}
    for i, v in enumerate(t2.interior()):
        new_id_2[v] = offset + i
    edges = [(new_id_1[u], new_id_1[v], w) for u, v, w in t1.tree.edges]
    edges += [(new_id_2[u], new_id_2[v], w) for u, v, w in t2.tree.edges]
    return Tree(t1.tree.n + t2.tree.n - 1, edges)


def is_minimal_shape_rooted(rbt: RootedBoundaryTree) -> bool:
    """Shape of the Dirichlet-eigenvalue minimizers among all rooted trees
    with a given degree multiset.

    True iff the tree is a caterpillar, the root is a pendant vertex whose
    neighbor ends the induced non-pendant path, and the degrees along that
    path are non-decreasing moving away from the root.  Exhaustive search
    over every degree sequence with n <= 8 confirms this shape is exactly
    the set of minimizers.
    """
    t = rbt.tree
    if t.n == 2:
        return True
    spine = spine_path(t)
    if spine is None or not t.is_pendant(rbt.root):
        return False
    neighbor = t.neighbors(rbt.root)[0][0]
    if not spine:
        return True
    if neighbor not in (spine[0], spine[-1]):
        return False
    if neighbor == spine[-1]:
        spine = spine[::-1]
    degs = [t.degree(v) for v in spine]
    return all(a <= b for a, b in zip(degs, degs[1:]))


def is_theorem1_shape(t: Tree, analysis: FiedlerAnalysis) -> bool:
    """Shape of algebraic-connectivity minimizers for a degree sequence.

    True iff t is a caterpillar and, on each weak nodal domain, the degrees
    of the non-pendant vertices are non-decreasing moving away from the
    characteristic set.  A characteristic vertex is counted as the first
    element of both sides; the endpoints of a characteristic edge start
    their own sides.  Equalities are allowed throughout.
    """
    if not is_caterpillar(t):
        return False
    cs = analysis.charset
    dist = [distances_from(t, v) for v in cs.ids]
    anchor_dist = [min(d[v] for d in dist) for v in range(t.n)]

    def side_ok(members: list[int]) -> bool:
        members = sorted(members, key=lambda v: (anchor_dist[v], v))
        for a, b in zip(members, members[1:]):
            if not t.has_edge(a, b):
                return False  # non-pendant side vertices must chain up
        degs = [t.degree(v) for v in members]
        return all(x <= y for x, y in zip(degs, degs[1:]))

    non_pendant = [v for v in range(t.n) if t.degree(v) >= 2]
    pos_side = [v for v in non_pendant if v in analysis.domain_pos]
    neg_side = [v for v in non_pendant if v in analysis.domain_neg]
    return side_ok(pos_side) and side_ok(neg_side)
