"""Weighted undirected trees, degree sequences, caterpillars, and rooted
boundary trees.

Vertices are 0-based contiguous integers.  Every structure is immutable
after construction, so instances can be shared freely.  Edge weights are
positive finite reals and default to 1.  A rooted boundary tree is a tree
and a root, nothing more: which root edge is its boundary edge is read
from the weights, here and nowhere else.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


class NotATreeError(ValueError):
    """The input does not describe a connected simple tree."""


class EdgeListParseError(ValueError):
    """An edge-list file or string could not be parsed."""


class BoundaryWeightError(ValueError):
    """A boundary weight is below 1 or not finite."""


class Tree:
    """Weighted undirected tree on vertices ``0 .. n-1``.

    The constructor validates tree-ness: exactly ``n - 1`` edges, no self
    loops, no parallel edges, all weights positive and finite, connected.
    Adjacency is stored symmetrically and sorted by neighbor id so all
    traversals are deterministic.
    """

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple]) -> None:
        if n < 1:
            raise NotATreeError(f"need at least one vertex, got n={n}")
        seen = set()
        norm = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < n and 0 <= v < n):
                raise NotATreeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise NotATreeError(f"self loop at vertex {u}")
            if not 0.0 < w < math.inf:
                raise NotATreeError(f"edge ({u},{v}) has weight {w}, not positive and finite")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise NotATreeError(f"parallel edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v, w))
        if len(norm) != n - 1:
            raise NotATreeError(
                f"{len(norm)} edges for {n} vertices, a tree needs {n - 1}"
            )
        self._store(n, norm)
        # n - 1 edges and connected <=> tree
        if len(self.bfs(0)[0]) != n:
            raise NotATreeError("edge set is not connected")

    @classmethod
    def _trusted(cls, n: int, edges: list[tuple[int, int, float]]) -> Tree:
        """Tree from edges (u, v, w), u < v, that form a tree on n vertices
        by construction, without the checks of __init__; equal to
        Tree(n, edges).  Sorts edges in place."""
        t = cls.__new__(cls)
        t._store(n, edges)
        return t

    def _store(self, n: int, edges: list[tuple[int, int, float]]) -> None:
        """Set n, the sorted edges (u, v, w), u < v, and the adjacency
        lists sorted by neighbour id.  Sorts edges in place."""
        edges.sort()
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        # from sorted edges, each list comes out sorted: a vertex's smaller
        # neighbours arrive before its larger ones, each kind in id order
        for u, v, w in edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.n = n
        self._adj = tuple(map(tuple, adj))
        self._edges = tuple(edges)

    def bfs(self, src: int) -> tuple[list[int], list[int]]:
        """Breadth-first order from src, neighbours visited by increasing
        id, and each vertex's BFS parent (-1 for src and unreached ones).
        Every traversal of the package reads its walk from these two."""
        if not 0 <= src < self.n:
            raise ValueError(f"vertex {src} out of range")
        parent = [-1] * self.n
        parent[src] = src
        order = [src]
        visit = order.append
        for x in order:
            for y, _ in self._adj[x]:
                if parent[y] < 0:
                    parent[y] = x
                    visit(y)
        parent[src] = -1
        return order, parent

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Edges as (u, v, weight) with u < v, sorted."""
        return self._edges

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degrees indexed by vertex id."""
        return tuple(len(a) for a in self._adj)

    def is_pendant(self, v: int) -> bool:
        return len(self._adj[v]) == 1

    def weight(self, u: int, v: int) -> float:
        for x, w in self._adj[u]:
            if x == v:
                return w
        raise KeyError(f"no edge ({u},{v})")

    def has_edge(self, u: int, v: int) -> bool:
        return any(x == v for x, _ in self._adj[u])

    def has_unit_weights(self) -> bool:
        return all(w == 1.0 for _, _, w in self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={list(self._edges)!r})"


class RootedBoundaryTree:
    """A tree and its boundary vertex, the root.

    Every edge has weight 1 except at most one root edge, the boundary
    edge, whose weight must be >= 1.  The boundary edge is read from the
    weights: the heaviest root edge, ties to the smallest neighbour id, so
    with unit weights any root edge serves and none is stored.  The
    interior is every vertex except the root and must be nonempty.
    """

    __slots__ = ("tree", "root")

    def __init__(self, tree: Tree, root: int):
        if not 0 <= root < tree.n:
            raise ValueError(f"root {root} out of range")
        if tree.n < 2:
            raise ValueError("interior must be nonempty")
        weighted = [(u, v, w) for u, v, w in tree.edges if w != 1.0]
        for u, v, w in weighted:
            if root not in (u, v):
                raise ValueError(
                    f"edge ({u},{v}) has weight {w}; only the boundary edge "
                    "at the root may differ from 1"
                )
            _check_boundary_weight(w)
        if len(weighted) > 1:
            raise ValueError(
                f"{len(weighted)} root edges have a weight other than 1; "
                "only the boundary edge may"
            )
        self.tree = tree
        self.root = root

    @property
    def boundary_neighbor(self) -> int:
        """The root's neighbour across the boundary edge."""
        # neighbours are sorted by id and max keeps the first maximum
        return max(self.tree.neighbors(self.root), key=lambda e: e[1])[0]

    @property
    def boundary_weight(self) -> float:
        return max(w for _, w in self.tree.neighbors(self.root))

    def interior(self) -> tuple[int, ...]:
        """Interior vertex ids in increasing order."""
        return tuple(v for v in range(self.tree.n) if v != self.root)

    def interior_index(self) -> dict[int, int]:
        """Map interior vertex id -> position in interior() order."""
        return {v: i for i, v in enumerate(self.interior())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedBoundaryTree):
            return NotImplemented
        return self.tree == other.tree and self.root == other.root

    def __hash__(self) -> int:
        return hash((self.tree, self.root))

    def __repr__(self) -> str:
        return f"RootedBoundaryTree(root={self.root}, tree={self.tree!r})"


# ---------------------------------------------------------------------------
# degree sequences


def validate_tree_sequence(seq: Sequence[int]) -> bool:
    """True iff seq is realizable by a tree: n >= 2, all degrees >= 1,
    and the degree sum equals 2(n - 1)."""
    n = len(seq)
    if n < 2:
        return False
    if any(int(d) != d or d < 1 for d in seq):
        return False
    return sum(seq) == 2 * (n - 1)


def _tree_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    """seq as ints sorted non-increasing; ValueError unless
    validate_tree_sequence accepts it as given."""
    seq = tuple(seq)
    if not validate_tree_sequence(seq):
        raise ValueError(f"invalid tree sequence {seq}")
    return tuple(sorted(map(int, seq), reverse=True))


def degree_sequence(t: Tree) -> tuple[int, ...]:
    """Degree multiset of t, sorted non-increasing."""
    return tuple(sorted(t.degrees(), reverse=True))


# ---------------------------------------------------------------------------
# common shapes


def path_tree(n: int) -> Tree:
    """Path 0 - 1 - ... - (n-1) with unit weights."""
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n: int) -> Tree:
    """Star with center 0 and leaves 1 .. n-1."""
    return Tree(n, [(0, i) for i in range(1, n)])


def spine_path(t: Tree) -> list[int] | None:
    """Non-pendant vertices of t in path order, starting at the end with
    the smaller id, or None when t is not a caterpillar (they do not form
    a path).  Fewer than two non-pendant vertices are returned as is."""
    spine = [v for v in range(t.n) if t.degree(v) >= 2]
    if len(spine) <= 1:
        return spine
    keep = set(spine)
    inner = {v: [u for u, _ in t.neighbors(v) if u in keep] for v in spine}
    # the non-pendant vertices of a tree always induce a subtree, so a
    # path is equivalent to induced degree <= 2 everywhere
    if any(len(us) > 2 for us in inner.values()):
        return None
    order = [min(v for v in spine if len(inner[v]) == 1)]
    prev = -1
    while len(order) < len(spine):
        nxt = next(u for u in inner[order[-1]] if u != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def _split_spine(spine: Sequence, ids: Sequence[int]) -> tuple[Sequence, Sequence]:
    """The entries of spine before and after the characteristic set at
    spine positions ids, each ordered outward.  An edge's two ends start
    their own sides; a vertex belongs to neither."""
    return spine[: max(ids)][::-1], spine[min(ids) + 1 :]


def is_caterpillar(t: Tree) -> bool:
    """True iff deleting all pendant vertices leaves a path (possibly
    empty or a single vertex)."""
    return spine_path(t) is not None


def build_caterpillar(spine_degrees: Sequence[int]) -> Tree:
    """Build the caterpillar whose spine vertex i has degree spine_degrees[i].

    Spine vertices get ids 0 .. m-1 in order; pendant ids follow, grouped by
    spine position, so the labeling is deterministic.  An empty spine gives
    the single edge on two vertices.
    """
    spine = [int(d) for d in spine_degrees]
    if any(d < 2 for d in spine):
        raise ValueError(f"unrealizable spine {spine}: every spine degree must be >= 2")
    m = len(spine)
    if m == 0:
        return Tree(2, [(0, 1)])
    edges = [(i, i + 1) for i in range(m - 1)]
    if m == 1:
        pendant_counts = [spine[0]]
    else:
        pendant_counts = [spine[0] - 1] + [d - 2 for d in spine[1:-1]] + [spine[-1] - 1]
    next_id = m
    for i, cnt in enumerate(pendant_counts):
        for _ in range(cnt):
            edges.append((i, next_id))
            next_id += 1
    return Tree(next_id, edges)


# ---------------------------------------------------------------------------
# structure around a root


def _hang(t: Tree, src: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """BFS order from src, each vertex's BFS parent, its depth, and the
    neighbour of src it hangs from (src itself for src)."""
    order, parent = t.bfs(src)
    depth = [0] * t.n
    branch = list(range(t.n))
    for v in order[1:]:
        p = parent[v]
        depth[v] = depth[p] + 1
        if p != src:
            branch[v] = branch[p]
    return order, parent, depth, branch


def _branch_orders(t: Tree, u: int) -> tuple[list[list[int]], list[int]]:
    """branches_at's components, each in the BFS order of one walk from u,
    and the walk's parents."""
    order, parent, _, branch = _hang(t, u)
    groups: dict[int, list[int]] = {y: [] for y, _ in t.neighbors(u)}
    for v in order[1:]:
        groups[branch[v]].append(v)
    return sorted(groups.values(), key=min), parent


def branches_at(t: Tree, u: int) -> tuple[frozenset[int], ...]:
    """Components of t minus u, sorted by their smallest vertex id."""
    return tuple(map(frozenset, _branch_orders(t, u)[0]))


def distances_from(t: Tree, src: int) -> list[int]:
    """Edge-count distance from src to every vertex."""
    return _hang(t, src)[2]


def trunk(rbt: RootedBoundaryTree) -> tuple[int, ...]:
    """Longest simple path starting at the root, ending at a pendant vertex.

    Ties are broken by the lexicographically smallest vertex-id sequence.
    Requires a caterpillar in which at most one root neighbor is non-pendant.
    """
    t, r = rbt.tree, rbt.root
    if not is_caterpillar(t):
        raise ValueError("trunk requires a caterpillar")
    non_pendant_nbrs = [u for u, _ in t.neighbors(r) if t.degree(u) >= 2]
    if len(non_pendant_nbrs) > 1:
        raise ValueError("trunk requires at most one non-pendant root neighbor")
    # BFS visits each level in the lexicographic order of the root paths,
    # and the vertices of the deepest level are pendant
    order, parent = t.bfs(r)
    depth = [0] * t.n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    line = [next(v for v in order if depth[v] == depth[order[-1]])]
    while line[-1] != r:
        line.append(parent[line[-1]])
    return tuple(reversed(line))


def _check_boundary_weight(boundary_weight: float) -> None:
    """Raise BoundaryWeightError unless boundary_weight is finite and >= 1."""
    if not 1.0 <= boundary_weight < math.inf:
        raise BoundaryWeightError(f"boundary weight {boundary_weight} must be finite and >= 1")


def with_boundary_weight(t: Tree, root: int, boundary_weight: float) -> RootedBoundaryTree:
    """Root a unit-weight tree and put boundary_weight on one root edge.

    The weighted edge goes to the root neighbor with the deepest subtree
    (ties to the smallest neighbor id), which is the edge a trunk would use.
    At weight 1 no edge is chosen.
    """
    _check_boundary_weight(boundary_weight)
    if not 0 <= root < t.n:
        raise ValueError(f"root {root} out of range")
    if not t.has_unit_weights():
        raise ValueError("expected a unit-weight tree")
    if boundary_weight == 1.0:
        return RootedBoundaryTree(t, root)
    # the deepest branches are those of the last BFS level
    order, _, depth, branch = _hang(t, root)
    deepest = depth[order[-1]]
    best_u = min((branch[x] for x in order[1:] if depth[x] == deepest), default=None)
    return _weighted_root_edge(t, root, best_u, boundary_weight)


def _weighted_root_edge(
    t: Tree, root: int, neighbor: int, boundary_weight: float
) -> RootedBoundaryTree:
    """The unit-weight t rooted at root, with boundary_weight on its edge
    to neighbor."""
    edges = [
        (u, v, boundary_weight if {u, v} == {root, neighbor} else w)
        for u, v, w in t.edges
    ]
    return RootedBoundaryTree(Tree(t.n, edges), root)


# ---------------------------------------------------------------------------
# edge-list format: one edge per line, "u v [w]", '#' starts a comment line


def parse_edge_list(text: str) -> Tree:
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise EdgeListParseError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
            w = float(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError as exc:
            raise EdgeListParseError(f"line {lineno}: {exc}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {lineno}: vertex ids must be >= 0")
        edges.append((u, v, w))
        max_id = max(max_id, u, v)
    if not edges:
        raise EdgeListParseError("no edges found")
    return Tree(max_id + 1, edges)


def read_edge_list(path) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(t: Tree) -> str:
    lines = []
    for u, v, w in t.edges:
        if w == 1.0:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {w:.12g}")
    return "\n".join(lines) + "\n"
