"""Exhaustive enumeration of unlabeled trees with a prescribed degree
sequence.

The labeled substrate is the Prufer correspondence on the skeleton: the
tree left on the k internal vertices (degree >= 2) once every leaf of a
tree with n >= 3 is stripped.  Internal vertex i (degrees sorted
non-increasing) has skeleton degree s_i <= d_i and carries d_i - s_i
pendant leaves; its exponent e_i = s_i - 1 is how often it appears in
the skeleton's Prufer word, so 0 <= e_i <= d_i - 1 and sum e_i = k - 2.
Vertices of equal degree are interchangeable, so only the exponent
vectors that are non-increasing within each run of equal d_i are walked:
sorting any tree's internal vertices by (d_i, s_i) gives one of them.
Each vector's multiset word is streamed through its permutations in
lexicographic order, every word is decoded, and deduplicating by a
canonical code yields each unlabeled tree exactly once.  The edge and
the stars (k <= 1) decode their one full word instead.

Each word is cheap.  Every word over 0 .. k-1 decodes to a tree, so
prufer_decode checks the range and builds the Tree without re-validating
it.  One leaf peel builds every code string: it strips the leaves layer
by layer, each stripped vertex getting its subtree code from its sorted
child codes.  It stops at the center, which carries the canonical code,
or at a root kept to the end, which carries the rooted code.  Stripping
every leaf keeps the center, so the peel of a skeleton, with each
vertex's pendant leaves folded in as "()" child codes, gives the code of
the whole tree.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Sequence
from math import factorial

from .trees import RootedBoundaryTree, Tree, _tree_sequence


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


def _internal_degrees(seq: Sequence[int]) -> list[int]:
    """The degrees >= 2 of the valid tree sequence seq, non-increasing."""
    return [d for d in _tree_sequence(seq) if d >= 2]


def _exponent_vectors(inner: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every skeleton exponent vector of the k >= 2 non-increasing internal
    degrees inner: 0 <= e_i <= d_i - 1, sum e_i = k - 2, e non-increasing
    within each run of equal degrees, in decreasing lexicographic order."""
    k = len(inner)
    # after[i]: the positions after i in i's run; room[i]: the most that
    # the runs after i's can take
    after, room = [0] * k, [0] * k
    for i in range(k - 2, -1, -1):
        if inner[i + 1] == inner[i]:
            after[i], room[i] = after[i + 1] + 1, room[i + 1]
        else:
            room[i] = room[i + 1] + (inner[i + 1] - 1) * (after[i + 1] + 1)
    e = [0] * k
    rest = [0] * (k + 1)  # rest[i]: what positions i.. still have to take
    rest[0] = k - 2
    start = 0
    while True:
        # fill the tail greedily; room[] keeps every partial vector feasible,
        # so the last position takes exactly what is left
        for i in range(start, k):
            top = min(inner[i] - 1, rest[i])
            if i and inner[i] == inner[i - 1]:
                top = min(top, e[i - 1])
            e[i] = top
            rest[i + 1] = rest[i] - top
        yield tuple(e)
        # lower the last entry whose run and the runs after it still take
        # the rest when it is one less
        i = k - 1
        while i >= 0 and not (e[i] and (e[i] - 1) * (after[i] + 1) + room[i] >= rest[i]):
            i -= 1
        if i < 0:
            return
        e[i] -= 1
        rest[i + 1] += 1
        start = i + 1


def _word_counts(seq: Sequence[int]) -> Iterator[int]:
    """The number of words canonical_tree_codes(seq) decodes for each
    skeleton exponent vector, (k - 2)! / prod e_i!, or the one full word of
    the edge and the stars (k <= 1)."""
    inner = _internal_degrees(seq)
    if len(inner) <= 1:
        yield 1
        return
    for e in _exponent_vectors(inner):
        yield _permutation_count(e)


def skeleton_word_count(seq: Sequence[int]) -> int:
    """Number of Prufer words canonical_tree_codes(seq) decodes: the sum
    over the skeleton exponent vectors of (k - 2)! / prod e_i!, counted
    without walking a word."""
    return sum(_word_counts(seq))


# ---------------------------------------------------------------------------
# canonical codes (rooted subtree sorting)


def _peel(
    t: Tree, root: int | None = None, pendants: Sequence[int] | None = None
) -> tuple[list[int], list[str]]:
    """The vertices left after stripping the leaves of t layer by layer,
    and the code of the subtree every vertex carries: its sorted child
    codes concatenated inside parentheses.  Each stripped vertex gets its
    code from its children's codes, which are complete by then.

    With a root, the root is never stripped, the peel runs until only the
    root is left, and every code is rooted there.  Without one, the peel
    stops at the one or two centers, sorted; a bicentral tree stores at
    both centers the least of the codes rooted at either.

    pendants, when given, counts for each vertex the leaves already
    stripped from it: each vertex starts with that many "()" child codes,
    so the codes are those of t with those leaves hung back on."""
    adj = t._adj
    degree = [len(a) for a in adj]
    left, stop = t.n, 2
    if root is not None:
        # a phantom neighbour keeps the root off the layers until it is
        # the last vertex left
        degree[root] += 1
        stop = 1
    children = [["()"] * p for p in pendants or [0] * t.n]
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
    return Tree(*_code_edges(code))


def _code_edges(code: str) -> tuple[int, list[tuple[int, int, float]]]:
    """The order n of the tree a code encodes and its unit edges (parent,
    child, 1.0) in preorder, so parent < child; ValueError if malformed."""
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
                edges.append((open_ids[-1], n, 1.0))
            open_ids.append(n)
            n += 1
        elif ch == ")":
            open_ids.pop()
        else:
            raise ValueError(f"malformed code at position {i}")
    if open_ids or not n:
        raise ValueError(f"malformed code at position {len(code)}")
    return n, edges


# ---------------------------------------------------------------------------
# unlabeled enumeration


def canonical_tree_codes(seq: Sequence[int]) -> set[str]:
    """Canonical codes of every unlabeled tree with degree multiset seq,
    from decoding each skeleton Prufer word of each exponent vector."""
    inner = _internal_degrees(seq)
    k = len(inner)
    if k <= 1:
        # the edge and the stars: the full word puts every edge on vertex 0
        n = len(seq)
        centers, subtree = _peel(prufer_decode([0] * (n - 2), n))
        return {subtree[centers[0]]}
    codes = set()
    for e in _exponent_vectors(inner):
        pendants = [d - 1 - x for d, x in zip(inner, e)]
        word = [i for i, x in enumerate(e) for _ in range(x)]
        for w in _multiset_permutations(word):
            # a decoded word has unit weights: no check needed before the peel
            centers, subtree = _peel(prufer_decode(w, k), pendants=pendants)
            codes.add(subtree[centers[0]])
    return codes


def enumerate_trees(seq: Sequence[int]) -> Iterator[Tree]:
    """Every unlabeled tree with degree multiset seq, exactly once, in
    lexicographic canonical-code order.  Each yielded tree carries the
    deterministic labeling decoded from its own canonical code."""
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


def enumerate_rooted_trees(
    seq: Sequence[int], *, codes: Iterable[str] | None = None
) -> Iterator[RootedBoundaryTree]:
    """Every (unlabeled tree, root choice) pair with degree multiset seq,
    deduplicated by rooted canonical code, in rooted-code order.  Each
    tree is tree_from_code of its rooted code, rooted at vertex 0, with
    unit weights.  codes, when given, are the canonical codes of seq
    (canonical_tree_codes' set, in any order), so a caller that already
    has them skips the enumeration.
    """
    _tree_sequence(seq)  # raises unless seq is a tree sequence
    rcodes = set()
    for code in canonical_tree_codes(seq) if codes is None else codes:
        t = tree_from_code(code)
        rcodes.update(_peel(t, root)[1][root] for root in range(t.n))
    for rcode in sorted(rcodes):
        yield RootedBoundaryTree(tree_from_code(rcode), 0)
