"""Shared test oracles, independent of the library code paths they check.

Expected eigenvalues come from closed forms or small characteristic
polynomials solved by hand; isomorphism is decided by brute-force
bijection search; the Rayleigh quotient is recomputed as the weighted
edge-difference sum; the Dirichlet matrix is cut from the full
Laplacian; root-to-leaf paths come from a depth-first walk;
rooted codes come from a recursive walk over every root and root edge;
eigenvalues of tree-structured matrices come from plain bisection on the
count of negative pivots; the sides of a geometric split come from
thresholding the Fiedler vector.
"""

from __future__ import annotations

import math
import sys
from itertools import permutations, product

import numpy as np

from fiedlertrees import RootedBoundaryTree, Tree, branches_at, laplacian
from fiedlertrees.enumeration import prufer_decode
from fiedlertrees.nodal import _tau


def path_alpha(n: int) -> float:
    """Second-smallest Laplacian eigenvalue of the n-vertex path."""
    return 2.0 * (1.0 - math.cos(math.pi / n))


def dirichlet_path_nu(m: int) -> float:
    """Smallest Dirichlet eigenvalue of a root followed by m chained
    interior vertices, unit weights."""
    return 2.0 * (1.0 - math.cos(math.pi / (2 * m + 1)))


# frozen closed-form constants used across tests
ALPHA_P4 = 2.0 - math.sqrt(2.0)            # roots of x^2 - 4x + 2 shifted; equals path_alpha(4)
NU_M1 = 1.0                                # 1x1 matrix [1]
NU_M2 = (3.0 - math.sqrt(5.0)) / 2.0       # smaller root of x^2 - 3x + 1
NU_M2_W2 = 2.0 - math.sqrt(2.0)            # smaller root of x^2 - 4x + 2
NU_STAR4_LEAF = 2.0 - math.sqrt(3.0)       # smaller root of x^2 - 4x + 1


def spider(*leg_lengths: int) -> Tree:
    """Center 0 with one path leg per entry; leg vertices are numbered
    consecutively leg by leg."""
    edges = []
    next_id = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, next_id))
            prev = next_id
            next_id += 1
    return Tree(next_id, edges)


def broom(handle: int, bristles: int) -> Tree:
    """Path 0 - ... - (handle-1) with bristles pendant vertices at its far
    end."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + i) for i in range(bristles)]
    return Tree(handle + bristles, edges)


def root_to_leaf_paths(t: Tree, root: int) -> list[tuple[int, ...]]:
    """Every simple path from root to a pendant vertex other than root,
    sorted, by a depth-first walk that extends each path by every
    neighbour not yet on it."""
    paths = []
    stack = [(root,)]
    while stack:
        path = stack.pop()
        if len(path) > 1 and t.is_pendant(path[-1]):
            paths.append(path)
        stack.extend(path + (u,) for u, _ in t.neighbors(path[-1]) if u not in path)
    return sorted(paths)


def edge_rayleigh(t: Tree, f) -> float:
    """Weighted edge-difference form of the Laplacian Rayleigh quotient."""
    num = sum(w * (f[u] - f[v]) ** 2 for u, v, w in t.edges)
    den = sum(x * x for x in f)
    return num / den


def dirichlet_matrix(rbt: RootedBoundaryTree) -> np.ndarray:
    """Laplacian of the underlying tree restricted to the interior (the root
    row and column deleted).  Rows and columns follow interior() order.  The
    boundary-edge weight survives only on the diagonal of the root's
    neighbor."""
    keep = list(rbt.interior())
    return laplacian(rbt.tree)[np.ix_(keep, keep)]


def brute_force_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Bijection search; only usable for small n."""
    if t1.n != t2.n:
        return False
    if sorted(t1.degrees()) != sorted(t2.degrees()):
        return False
    e2 = {(u, v) for u, v, _ in t2.edges}
    deg1, deg2 = t1.degrees(), t2.degrees()
    for perm in permutations(range(t1.n)):
        if any(deg1[v] != deg2[perm[v]] for v in range(t1.n)):
            continue
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v, _ in t1.edges}
        if mapped == e2:
            return True
    return False


def unlabeled_count_by_brute_force(n: int) -> dict[tuple[int, ...], int]:
    """Decode every Prufer word on n vertices and count unlabeled trees per
    degree multiset using brute-force isomorphism only."""
    by_seq: dict[tuple[int, ...], list[Tree]] = {}
    for word in product(range(n), repeat=n - 2):
        t = prufer_decode(list(word), n)
        seq = tuple(sorted(t.degrees(), reverse=True))
        reps = by_seq.setdefault(seq, [])
        if not any(brute_force_isomorphic(t, r) for r in reps):
            reps.append(t)
    return {seq: len(reps) for seq, reps in by_seq.items()}


def subtree_code(t: Tree, v: int, parent: int) -> str:
    """Code of v's subtree when t hangs from parent (-1 for the root): the
    sorted child codes inside parentheses, built recursively; small n only."""
    subs = sorted(subtree_code(t, u, v) for u, _ in t.neighbors(v) if u != parent)
    return "(" + "".join(subs) + ")"


def rooted_placement_keys(t: Tree) -> set[tuple[str, str]]:
    """(rooted code, child subtree code) of every placement of a boundary
    weight on t: every root, every edge at that root."""
    return {
        (subtree_code(t, root, -1), subtree_code(t, child, root))
        for root in range(t.n)
        for child, _ in t.neighbors(root)
    }


def bisect_eigenvalue(up, diag, off, j: int) -> float:
    """The j-th smallest eigenvalue (j from 0) of the tree-structured matrix
    of spectral._tree_eigenpair (diag on the diagonal, off[i] at (i, up[i]),
    positions in BFS order) by plain bisection on the count of negative
    pivots, from the widened Gershgorin interval down to relative width eps,
    with LAPACK dstebz's floor on pivot magnitudes; the midpoint of the last
    bracket."""
    eps, k = sys.float_info.epsilon, len(diag)
    radius = [abs(w) for w in off]
    for i, p in enumerate(up):
        if p >= 0:
            radius[p] += abs(off[i])
    norm = max(abs(a) + r for a, r in zip(diag, radius))
    bb = [w * w for w in off]
    pivmin = sys.float_info.min * max(1.0, max(bb))
    slack = 2.0 * eps * norm + 4.0 * pivmin
    lo = min(a - r for a, r in zip(diag, radius)) - slack
    hi = max(a + r for a, r in zip(diag, radius)) + slack
    while hi - lo > eps * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        pivots = [mid] * k
        negative = 0
        for i in range(k - 1, -1, -1):
            d = diag[i] - pivots[i]
            if -pivmin < d < pivmin:
                d = -pivmin
            negative += d < 0.0
            if up[i] >= 0:
                pivots[up[i]] += bb[i] / d
        if negative > j:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def split_by_threshold(t: Tree, analysis) -> tuple:
    """(pos side, origin_pos, neg side, origin_neg) of the geometric split
    of the unit-weight t, with every entry of the Fiedler vector counted
    as zero within nodal._tau of it.  Edge case (u, w): the positive side
    is the branch at u that holds w, the rest is negative.  Vertex case
    v0: a branch holding an entry above tau is positive, else one below
    -tau negative, else zero; zero branches go in branch order to the
    smaller side, ties to the positive one."""
    f, cs = analysis.fiedler, analysis.charset
    tau = _tau(f)
    if cs.kind == "edge":
        u, w = cs.ids
        pos = next(b for b in branches_at(t, u) if w in b)
        neg = frozenset(range(t.n)) - pos
        diff = abs(f[w] - f[u])
        attach_pos = {w: diff / abs(f[w])}
        attach_neg = {u: diff / abs(f[u])}
        origin_root = -1
    else:
        (v0,) = cs.ids
        pos, neg, zero = set(), set(), []
        for b in branches_at(t, v0):
            if any(f[x] > tau for x in b):
                pos |= b
            elif any(f[x] < -tau for x in b):
                neg |= b
            else:
                zero.append(b)
        for b in zero:
            if len(pos) <= len(neg):
                pos |= b
            else:
                neg |= b
        nbrs = {x for x, _ in t.neighbors(v0)}
        attach_pos = dict.fromkeys(nbrs & pos, 1.0)
        attach_neg = dict.fromkeys(nbrs & neg, 1.0)
        origin_root = v0

    def side(vertices, attach):
        origin = (origin_root,) + tuple(sorted(vertices))
        new_id = {v: i for i, v in enumerate(origin) if i}
        edges = [(new_id[a], new_id[b]) for a, b, _ in t.edges if a in new_id and b in new_id]
        edges += [(0, new_id[x], wt) for x, wt in attach.items()]
        return RootedBoundaryTree(Tree(len(origin), edges), 0), origin

    return (*side(pos, attach_pos), *side(neg, attach_neg))
