"""Characteristic sets, weak nodal domains, and the geometric split of a
tree along its Fiedler vector.

A Fiedler vector of a tree changes sign across exactly one edge, or
vanishes at exactly one vertex separating the positive from the negative
vertices.  Splitting there produces two rooted boundary trees whose first
Dirichlet eigenvalues both equal the algebraic connectivity; that identity
is the workhorse the extremal searches rely on, so it is exposed here with
an explicit residual check.

Zero classification uses the relative threshold tau = TAU_FACTOR * max|f|.
The factor is a constant, 1e-7, which separates symmetry-forced zeros
from round-off at these scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import algebraic_connectivity, dirichlet_nu
from .trees import RootedBoundaryTree, Tree, branches_at

TAU_FACTOR = 1e-7


class AmbiguousCharacteristicSet(RuntimeError):
    """Zero or several characteristic candidates survived the tolerance.

    A genuine Fiedler vector admits exactly one characteristic vertex or
    edge, so ambiguity always signals numerical degeneracy worth surfacing;
    re-solve with a tighter residual instead of guessing.
    """


class DisconnectedNodalDomainError(RuntimeError):
    """A weak nodal domain came out disconnected, which means the input was
    not a Fiedler vector or the zero tolerance failed."""


@dataclass(frozen=True)
class CharacteristicSet:
    """kind is "vertex" (ids = (v,)) or "edge" (ids = (u, w) with
    f(u) < 0 < f(w))."""

    kind: str
    ids: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class FiedlerAnalysis:
    alpha: float
    fiedler: np.ndarray
    charset: CharacteristicSet
    domain_pos: frozenset[int]
    domain_neg: frozenset[int]


@dataclass(frozen=True, eq=False)
class GeometricSplit:
    """Two rooted boundary trees covering the original tree, each rooted at
    vertex 0 with its boundary edge read from its weights.

    origin_pos / origin_neg map side vertex ids to original vertex ids;
    the root maps to the characteristic vertex, or to -1 when it is the
    vertex inserted on the characteristic edge.  w1 is the boundary weight
    of the negative side and w2 of the positive side (None in the vertex
    case, where all boundary edges keep weight 1).
    """

    pos: RootedBoundaryTree
    neg: RootedBoundaryTree
    origin_pos: tuple[int, ...]
    origin_neg: tuple[int, ...]
    w1: float | None
    w2: float | None


def _tau(f: np.ndarray) -> float:
    scale = float(np.abs(f).max(initial=0.0))
    if scale == 0.0:
        raise ValueError("zero vector has no sign structure")
    return TAU_FACTOR * scale


def _separating_zeros(t: Tree, f: np.ndarray, tau: float) -> list[int]:
    """The vertices z with |f(z)| <= tau such that no component of t minus
    z holds both a vertex with f > tau and one with f < -tau, ascending.

    One BFS from vertex 0 counts the signs in every subtree; the component
    above z holds the rest of them."""
    order, parent = t.bfs(0)
    pos = [int(x > tau) for x in f]
    neg = [int(x < -tau) for x in f]
    for v in reversed(order[1:]):
        pos[parent[v]] += pos[v]
        neg[parent[v]] += neg[v]
    mixed = [False] * t.n
    for v in order[1:]:
        if pos[v] and neg[v]:
            mixed[parent[v]] = True
    return [
        z
        for z in range(t.n)
        if abs(f[z]) <= tau
        and not mixed[z]
        and not (pos[0] - pos[z] and neg[0] - neg[z])
    ]


def characteristic_set(t: Tree, f) -> CharacteristicSet:
    """Locate the unique sign-change edge or separating zero vertex of a
    Fiedler vector."""
    f = np.asarray(f, dtype=float)
    tau = _tau(f)
    sign_edges = []
    for u, v, _ in t.edges:
        if f[u] < -tau and f[v] > tau:
            sign_edges.append((u, v))
        elif f[v] < -tau and f[u] > tau:
            sign_edges.append((v, u))
    if len(sign_edges) == 1:
        return CharacteristicSet("edge", sign_edges[0])
    if len(sign_edges) > 1:
        raise AmbiguousCharacteristicSet(
            f"{len(sign_edges)} sign-change edges at tau={tau:.3e}"
        )
    candidates = _separating_zeros(t, f, tau)
    if len(candidates) != 1:
        raise AmbiguousCharacteristicSet(
            f"{len(candidates)} separating zero vertices at tau={tau:.3e}"
        )
    return CharacteristicSet("vertex", (candidates[0],))


def _caterpillar_charsets(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """characteristic_set of each row's Fiedler vector of a caterpillar in
    build_caterpillar's layout, given by its spine entries g (k, m) and the
    entry h (k, m) of every pendant of each spine vertex (0 where it has
    none), as two arrays (k,): whether it is an edge, and its first spine
    position, z for the vertex z and i for the edge {i, i + 1}.

    A pendant entry has the sign of its spine vertex, so only spine edges
    change sign.  A pendant never separates: with sum(f) = 0 the rest of
    the tree holds entries beyond tau of both signs.  A spine vertex z
    separates when neither the spine part before it nor the part after it,
    pendants included, holds both signs.
    """
    f = np.concatenate([g, h], axis=1)
    tau = TAU_FACTOR * np.abs(f).max(axis=1)
    m = g.shape[1]
    pos, neg = f > tau[:, None], f < -tau[:, None]
    spine_pos, spine_neg = pos[:, :m], neg[:, :m]
    change = (spine_pos[:, :-1] & spine_neg[:, 1:]) | (spine_neg[:, :-1] & spine_pos[:, 1:])
    pos = spine_pos | pos[:, m:]
    neg = spine_neg | neg[:, m:]

    def mixed_before(p: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Per position: the positions before it hold both signs."""
        out = np.zeros_like(p)
        out[:, 1:] = (
            np.logical_or.accumulate(p, axis=1) & np.logical_or.accumulate(n, axis=1)
        )[:, :-1]
        return out

    separates = (
        (np.abs(g) <= tau[:, None])
        & ~mixed_before(pos, neg)
        & ~mixed_before(pos[:, ::-1], neg[:, ::-1])[:, ::-1]
    )
    edges, zeros = change.sum(axis=1), separates.sum(axis=1)
    bad = np.flatnonzero((edges > 1) | ((edges == 0) & (zeros != 1)))
    if bad.size:
        row = bad[0]
        if edges[row]:
            what = f"{edges[row]} sign-change edges"
        else:
            what = f"{zeros[row]} separating zero vertices"
        raise AmbiguousCharacteristicSet(f"{what} at tau={tau[row]:.3e}")
    edge = edges == 1
    return edge, np.where(edge, change.argmax(axis=1), separates.argmax(axis=1))


def _connected(t: Tree, vertices: frozenset[int]) -> bool:
    """True iff vertices induce a subtree: a vertex set of a tree does
    exactly when it spans one edge fewer than it has vertices (so the
    empty set does not)."""
    spanned = sum(1 for u, v, _ in t.edges if u in vertices and v in vertices)
    return spanned == len(vertices) - 1


def nodal_domains(t: Tree, f) -> tuple[frozenset[int], frozenset[int]]:
    """Weak nodal domains: the vertices with f >= -tau and those with
    f <= tau.  Zero vertices belong to both.  Each must induce a connected
    subtree."""
    f = np.asarray(f, dtype=float)
    tau = _tau(f)
    pos = frozenset(v for v in range(t.n) if f[v] >= -tau)
    neg = frozenset(v for v in range(t.n) if f[v] <= tau)
    for name, dom in (("non-negative", pos), ("non-positive", neg)):
        if not _connected(t, dom):
            raise DisconnectedNodalDomainError(
                f"{name} domain is disconnected; input is not a Fiedler "
                "vector or tau is miscalibrated"
            )
    return pos, neg


def analyze(t: Tree) -> FiedlerAnalysis:
    """Full Fiedler analysis: alpha, vector, characteristic set, domains."""
    return _analysis(t, *algebraic_connectivity(t))


def _analysis(t: Tree, alpha: float, f: np.ndarray) -> FiedlerAnalysis:
    """The Fiedler analysis of t from its solved alpha and vector f."""
    return FiedlerAnalysis(alpha, f, characteristic_set(t, f), *nodal_domains(t, f))


def analysis_to_json(a: FiedlerAnalysis) -> dict:
    return {
        "alpha": float(a.alpha),
        "fiedler": [float(x) for x in a.fiedler],
        "characteristic": {"kind": a.charset.kind, "ids": list(a.charset.ids)},
        "domain_pos": sorted(a.domain_pos),
        "domain_neg": sorted(a.domain_neg),
    }


def _make_side(
    t: Tree,
    vertices: frozenset[int],
    attach: list[tuple[int, float]],
    origin_root: int,
) -> tuple[RootedBoundaryTree, tuple[int, ...]]:
    """Build one side of a split: a new root 0 joined to the listed original
    vertices with the given weights, plus all original edges inside the side.
    At most one attach weight may differ from 1; that edge becomes the
    side's boundary edge.  Returns the rooted tree and the side-id ->
    original-id map."""
    order = sorted(vertices)
    new_id = {orig: i + 1 for i, orig in enumerate(order)}
    edges: list[tuple[int, int, float]] = []
    for u, v, w in t.edges:
        if u in vertices and v in vertices:
            edges.append((new_id[u], new_id[v], w))
    for orig, w in attach:
        edges.append((0, new_id[orig], w))
    rbt = RootedBoundaryTree(Tree(len(order) + 1, edges), 0)
    return rbt, (origin_root,) + tuple(order)


def geometric_split(t: Tree, analysis: FiedlerAnalysis) -> GeometricSplit:
    """Split t at the characteristic set of its Fiedler vector.

    The sides are read from the weak nodal domains of the analysis, which
    analyze has checked to be connected, so no entry of the vector is
    thresholded again here.

    Edge case: a new vertex is inserted on the characteristic edge uw and the
    two half-edges get weights |f(w)-f(u)|/|f(u)| (negative side) and
    |f(w)-f(u)|/|f(w)| (positive side); both are >= 1 because the endpoint
    values have opposite signs.  With a single sign-change edge and both
    domains connected, no entry is zero, so the domains are the two sides
    of the edge.

    Vertex case: the characteristic vertex becomes the shared root.  A
    branch at it that leaves the non-positive domain is positive, one
    that leaves the non-negative domain is negative, and each branch on
    which f vanishes goes to the currently smaller side (ties to the
    positive side).  All boundary edges keep weight 1.

    The sides are rooted boundary trees, whose edges other than the
    boundary edge have weight 1, so t must have unit weights.
    """
    if not t.has_unit_weights():
        raise ValueError("expected a unit-weight tree")
    f = analysis.fiedler
    cs = analysis.charset
    if cs.kind == "edge":
        u, w = cs.ids  # f[u] < 0 < f[w]
        diff = abs(float(f[w]) - float(f[u]))
        w1 = diff / abs(float(f[u]))
        w2 = diff / abs(float(f[w]))
        pos_rbt, origin_pos = _make_side(t, analysis.domain_pos, [(w, w2)], -1)
        neg_rbt, origin_neg = _make_side(t, analysis.domain_neg, [(u, w1)], -1)
        return GeometricSplit(pos_rbt, neg_rbt, origin_pos, origin_neg, w1, w2)

    v0 = cs.ids[0]
    pos_branches, neg_branches, zero_branches = [], [], []
    for branch in branches_at(t, v0):
        if not branch <= analysis.domain_neg:
            pos_branches.append(branch)
        elif not branch <= analysis.domain_pos:
            neg_branches.append(branch)
        else:
            zero_branches.append(branch)
    pos_verts = frozenset().union(*pos_branches)
    neg_verts = frozenset().union(*neg_branches)
    for branch in zero_branches:
        if len(pos_verts) <= len(neg_verts):
            pos_verts |= branch
        else:
            neg_verts |= branch

    def attach_edges(side: frozenset[int]) -> list[tuple[int, float]]:
        return [(x, wt) for x, wt in t.neighbors(v0) if x in side]

    pos_rbt, origin_pos = _make_side(t, pos_verts, attach_edges(pos_verts), v0)
    neg_rbt, origin_neg = _make_side(t, neg_verts, attach_edges(neg_verts), v0)
    return GeometricSplit(pos_rbt, neg_rbt, origin_pos, origin_neg, None, None)


def verify_split(
    t: Tree, split: GeometricSplit, alpha: float, nus: tuple[float, float] | None = None
) -> tuple[float, float]:
    """Relative distances |nu(side) - alpha| / alpha for both sides.

    Small residuals (<= 1e-8 for well-conditioned inputs) confirm the first
    Dirichlet eigenvalues of the two sides coincide with alpha.  Large
    residuals are returned, not raised: they are a diagnostic.  nus, when
    given, are those eigenvalues of the positive and the negative side,
    already solved; the sides are checked to partition t either way.
    """
    covered = (split.pos.tree.n - 1) + (split.neg.tree.n - 1)
    # edge case: the interiors cover every original vertex; vertex case:
    # every original vertex except the characteristic vertex
    expected = t.n if split.w1 is not None else t.n - 1
    if covered != expected:
        raise ValueError("split sides do not partition the tree")
    if nus is None:
        nus = dirichlet_nu(split.pos)[0], dirichlet_nu(split.neg)[0]
    nu_pos, nu_neg = nus
    return abs(nu_pos - alpha) / alpha, abs(nu_neg - alpha) / alpha


def check_monotone_paths(rbt: RootedBoundaryTree, g) -> bool:
    """True iff along every root-to-leaf path the eigenvector values (with 0
    at the root) are strictly increasing with margin tau, or the whole path
    is zero within tau."""
    g = np.asarray(g, dtype=float)
    tau = _tau(g)
    t, root = rbt.tree, rbt.root
    index = rbt.interior_index()
    order, parent = t.bfs(root)
    value = [0.0] * t.n
    # per vertex: the path from the root to it is zero within tau / rises
    # by more than tau at every step
    zero = [True] * t.n
    rising = [True] * t.n
    for v in order[1:]:
        p = parent[v]
        value[v] = float(g[index[v]])
        zero[v] = zero[p] and abs(value[v]) <= tau
        rising[v] = rising[p] and value[v] - value[p] > tau
        if t.is_pendant(v) and not (zero[v] or rising[v]):
            return False
    return True
