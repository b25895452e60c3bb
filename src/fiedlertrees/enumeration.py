"""Exhaustive enumeration of unlabeled trees with a prescribed degree
sequence.

The labeled substrate is the Prufer correspondence: fixing the degree
assignment "vertex i has degree d_i" (degrees sorted non-increasing),
the labeled trees realizing it are exactly the decodings of the
multiset permutations of the word in which vertex i appears d_i - 1
times.  The permutations are streamed in lexicographic order; decoding
every one and deduplicating by a canonical code yields each unlabeled
tree exactly once.

Each word is cheap.  Every word over 0 .. n-1 decodes to a tree, so
prufer_decode checks the range and builds the Tree without re-validating
it.  One leaf peel builds every code string: it strips the leaves layer
by layer, each stripped vertex getting its subtree code from its sorted
child codes.  It stops at the center, which carries the canonical code,
or at a root kept to the end, which carries the rooted code.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Sequence
from math import factorial, inf

from .trees import RootedBoundaryTree, Tree, _weighted_root_edge, validate_tree_sequence


def prufer_decode(word: Sequence[int], n: int) -> Tree:
    """Labeled tree on n vertices from a Prufer word of length n - 2.

    Every word over 0 .. n-1 decodes to a tree, so once the range is
    checked the tree is built without re-validation."""
    if len(word) != n - 2:
        raise ValueError(f"word length {len(word)} != n - 2 = {n - 2}")
    if word and not (0 <= min(word) and max(word) < n):
        raise ValueError(f"word entries must lie in 0 .. {n - 1}")
    degree = [1] * n
    for s in word:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in word:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s, 1.0) if leaf < s else (s, leaf, 1.0))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v, 1.0))
    return Tree._trusted(n, edges)


def prufer_count(seq: Sequence[int]) -> int:
    """Number of labeled Prufer words for the fixed degree assignment,
    (n-2)! / prod (d_i - 1)!."""
    if not validate_tree_sequence(seq):
        raise ValueError(f"invalid tree sequence {tuple(seq)}")
    return _permutation_count(d - 1 for d in seq)


def _permutation_count(multiplicities: Iterable[int]) -> int:
    """Number of distinct permutations of a multiset with the given
    multiplicities, (sum m)! / prod m!."""
    ms = list(multiplicities)
    total = factorial(sum(ms))
    for m in ms:
        total //= factorial(m)
    return total


def _multiset_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every distinct permutation of items, in lexicographic order."""
    a = sorted(items)
    last = len(a) - 1
    while True:
        yield tuple(a)
        # next permutation: bump the rightmost ascent, then reverse the tail
        j = last - 1
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = last
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]


# ---------------------------------------------------------------------------
# canonical codes (rooted subtree sorting)


def _peel(t: Tree, root: int | None = None) -> tuple[list[int], list[str]]:
    """The vertices left after stripping the leaves of t layer by layer,
    and the code of the subtree every vertex carries: its sorted child
    codes concatenated inside parentheses.  Each stripped vertex gets its
    code from its children's codes, which are complete by then.

    With a root, the root is never stripped, the peel runs until only the
    root is left, and every code is rooted there.  Without one, the peel
    stops at the one or two centers, sorted; a bicentral tree stores at
    both centers the least of the codes rooted at either."""
    adj = t._adj
    degree = [len(a) for a in adj]
    left, stop = t.n, 2
    if root is not None:
        # a phantom neighbour keeps the root off the layers until it is
        # the last vertex left
        degree[root] += 1
        stop = 1
    children: list[list[str]] = [[] for _ in range(t.n)]
    codes = [""] * t.n
    layer = [v for v in range(t.n) if degree[v] <= 1]
    while left > stop:
        left -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            subs = children[v]
            subs.sort()
            code = codes[v] = "(" + "".join(subs) + ")"
            # two leaves are adjacent only when they are all that is left,
            # which the stop (or the kept root) rules out, so the one
            # neighbour still in the tree is the parent
            for u, _ in adj[v]:
                if degree[u]:
                    children[u].append(code)
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
                    break
        layer = nxt
    for c in layer:
        children[c].sort()
        codes[c] = "(" + "".join(children[c]) + ")"
    if len(layer) == 2:
        # bicentral: rooted at either center, the other is one more child
        layer.sort()
        a, b = layer
        codes[a] = codes[b] = min(
            "(" + "".join(sorted(children[c] + [codes[other]])) + ")"
            for c, other in ((a, b), (b, a))
        )
    return layer, codes


def rooted_code(t: Tree, root: int) -> str:
    """Canonical code of t rooted at root: children codes sorted and
    concatenated inside parentheses.  Equal for two rooted trees iff they
    are isomorphic as rooted trees.  Weights are ignored; unit weights
    are required so codes never silently conflate weighted trees."""
    if not t.has_unit_weights():
        raise ValueError("canonical codes are defined for unit-weight trees")
    if not 0 <= root < t.n:
        raise ValueError(f"vertex {root} out of range")
    return _peel(t, root)[1][root]


def canonical_code(t: Tree) -> str:
    """Label-invariant code: equal for two trees iff they are isomorphic.

    It is rooted_code at the center; for bicentral trees, the lexicographic
    minimum over the two center roots.
    """
    if not t.has_unit_weights():
        raise ValueError("canonical codes are defined for unit-weight trees")
    centers, codes = _peel(t)
    return codes[centers[0]]


def tree_from_code(code: str) -> Tree:
    """Rebuild the tree encoded by a (rooted or canonical) code.

    Vertex ids are assigned in preorder, children in code order, so the
    labeling depends only on the code.  The code's root becomes vertex 0.
    """
    edges = []
    open_ids: list[int] = []
    n = 0
    for i, ch in enumerate(code):
        if not open_ids:
            if n:
                raise ValueError("trailing characters after code")
            if ch != "(":
                raise ValueError(f"malformed code at position {i}")
        if ch == "(":
            if open_ids:
                edges.append((open_ids[-1], n))
            open_ids.append(n)
            n += 1
        elif ch == ")":
            open_ids.pop()
        else:
            raise ValueError(f"malformed code at position {i}")
    if open_ids or not n:
        raise ValueError(f"malformed code at position {len(code)}")
    return Tree(n, edges)


# ---------------------------------------------------------------------------
# unlabeled enumeration


def canonical_tree_codes(seq: Sequence[int]) -> set[str]:
    """Canonical codes of every unlabeled tree with degree multiset seq,
    from decoding each Prufer word of the sorted degree assignment."""
    seq_desc = tuple(sorted(seq, reverse=True))
    if not validate_tree_sequence(seq_desc):
        raise ValueError(f"invalid tree sequence {seq_desc}")
    n = len(seq_desc)
    word = [i for i, d in enumerate(seq_desc) for _ in range(d - 1)]
    codes = set()
    for w in _multiset_permutations(word):
        # a decoded word has unit weights: no check needed before the peel
        centers, subtree = _peel(prufer_decode(w, n))
        codes.add(subtree[centers[0]])
    return codes


def enumerate_trees(seq: Sequence[int]) -> Iterator[Tree]:
    """Every unlabeled tree with degree multiset seq, exactly once, in
    lexicographic canonical-code order.  Each yielded tree carries the
    deterministic labeling decoded from its own canonical code."""
    if not validate_tree_sequence(seq):
        raise ValueError(f"invalid tree sequence {tuple(seq)}")
    for code in sorted(canonical_tree_codes(seq)):
        yield tree_from_code(code)


def rooted_canonical_key(rbt: RootedBoundaryTree) -> tuple[str, str] | str:
    """Dedupe key for a rooted boundary tree.

    The key is the rooted code of the underlying tree, weights ignored;
    when the boundary weight differs from 1 the code of the child subtree
    carrying the weighted edge is appended, so inequivalent placements of
    the weighted edge count as distinct rooted trees.
    """
    codes = _peel(rbt.tree, rbt.root)[1]
    if rbt.boundary_weight == 1.0:
        return codes[rbt.root]
    return codes[rbt.root], codes[rbt.boundary_neighbor]


def _boundary_placements(
    rbt: RootedBoundaryTree, boundary_weight: float
) -> Iterator[tuple[RootedBoundaryTree, tuple[str, str]]]:
    """The inequivalent placements of boundary_weight != 1 on a root edge
    of the unit-weight rbt: one tree per distinct child subtree code, on
    the first child (by id) with that code, each with its
    rooted_canonical_key."""
    t, root = rbt.tree, rbt.root
    codes = _peel(t, root)[1]
    first: dict[str, int] = {}
    for child, _ in t.neighbors(root):
        first.setdefault(codes[child], child)
    for code, child in first.items():
        yield _weighted_root_edge(t, root, child, boundary_weight), (codes[root], code)


def enumerate_rooted_trees(
    seq: Sequence[int],
    boundary_weight: float = 1.0,
    *,
    codes: Iterable[str] | None = None,
) -> Iterator[RootedBoundaryTree]:
    """Every (unlabeled tree, root choice) pair with degree multiset seq,
    deduplicated by rooted canonical code, in rooted-code order.  Each
    tree is tree_from_code of its rooted code, rooted at vertex 0.

    With boundary_weight == 1 every edge keeps weight 1.  With
    boundary_weight > 1, each inequivalent root-incident edge placement is
    yielded as a distinct rooted tree, in child-code order.  codes, when
    given, are the canonical codes of seq (canonical_tree_codes' set, in
    any order), so a caller that already has them skips the enumeration.
    """
    if not validate_tree_sequence(seq):
        raise ValueError(f"invalid tree sequence {tuple(seq)}")
    if not 1.0 <= boundary_weight < inf:
        raise ValueError(f"boundary weight {boundary_weight} must be finite and >= 1")
    rcodes = set()
    for code in canonical_tree_codes(seq) if codes is None else codes:
        t = tree_from_code(code)
        rcodes.update(_peel(t, root)[1][root] for root in range(t.n))
    for rcode in sorted(rcodes):
        # preorder ids put the root's children in code order
        rbt = RootedBoundaryTree(tree_from_code(rcode), 0)
        if boundary_weight == 1.0:
            yield rbt
        else:
            for placed, _ in _boundary_placements(rbt, boundary_weight):
                yield placed
