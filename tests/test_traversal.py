"""Oracle checks of the traversal layer against networkx on seeded random
trees: breadth-first order, distances, branches, centers, induced-subtree
tests and canonical codes; rooted codes against a recursive walk."""

import random

import networkx as nx
import pytest

from fiedlertrees import (
    NotATreeError,
    Tree,
    branches_at,
    canonical_code,
    path_tree,
    rooted_code,
    star_tree,
)
from fiedlertrees.enumeration import _peel
from fiedlertrees.nodal import _connected
from fiedlertrees.trees import distances_from

from helpers import broom, random_tree, subtree_code


def _trees(seed: int, count: int = 40, nmax: int = 30) -> list[Tree]:
    rng = random.Random(seed)
    return [Tree(1, [])] + [random_tree(rng, rng.randint(2, nmax)) for _ in range(count)]


def _graph(t: Tree) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from((u, v) for u, v, _ in t.edges)
    return g


def test_bfs_matches_networkx_sorted_bfs():
    for t in _trees(1):
        g = _graph(t)
        for src in range(t.n):
            order, parent = t.bfs(src)
            edges = list(nx.bfs_edges(g, src, sort_neighbors=sorted))
            assert order == [src] + [v for _, v in edges]
            expected = [-1] * t.n
            for u, v in edges:
                expected[v] = u
            assert parent == expected
    for src in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            Tree(3, [(0, 1), (1, 2)]).bfs(src)


def test_distances_match_networkx():
    for t in _trees(2):
        g = _graph(t)
        for src in range(t.n):
            lengths = nx.single_source_shortest_path_length(g, src)
            assert distances_from(t, src) == [lengths[v] for v in range(t.n)]


def test_branches_match_components_without_root():
    for t in _trees(3, nmax=15):
        g = _graph(t)
        for u in range(t.n):
            rest = g.subgraph(set(g) - {u})
            comps = [frozenset(c) for c in nx.connected_components(rest)]
            assert branches_at(t, u) == tuple(sorted(comps, key=min))


def test_centers_match_networkx():
    for t in _trees(5, count=100, nmax=40):
        assert _peel(t)[0] == sorted(nx.center(_graph(t)))


def test_connected_matches_induced_subgraph():
    rng = random.Random(6)
    for t in _trees(6):
        g = _graph(t)
        subsets = [frozenset(), *(frozenset({v}) for v in range(t.n))]
        for _ in range(30):
            k = rng.randint(1, t.n)
            subsets.append(frozenset(rng.sample(range(t.n), k)))
        for s in subsets:
            expected = bool(s) and nx.is_connected(g.subgraph(s))
            assert _connected(t, s) == expected


def test_edges_with_a_cycle_are_not_connected():
    # n - 1 edges that close a cycle leave some vertex unreached
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(4, 20)
        k = rng.randint(3, n - 1)
        cycle = [(i, (i + 1) % k) for i in range(k)]
        rest = [(rng.randrange(k), v) for v in range(k, n - 1)]
        with pytest.raises(NotATreeError, match="edge set is not connected"):
            Tree(n, cycle + rest)


def test_canonical_code_invariant_under_relabelling():
    rng = random.Random(8)
    for t in _trees(8, count=60, nmax=40):
        perm = list(range(t.n))
        rng.shuffle(perm)
        relabelled = Tree(t.n, [(perm[u], perm[v]) for u, v, _ in t.edges])
        assert canonical_code(relabelled) == canonical_code(t)


def test_canonical_code_is_least_rooted_code_at_a_center():
    # the leaf peel must give what rooting at each networkx center gives
    rng = random.Random(9)
    trees = [Tree(1, []), path_tree(2), path_tree(3000), broom(300, 300), broom(301, 300)]
    trees += [random_tree(rng, rng.randint(3, 300)) for _ in range(80)]
    center_counts = set()
    for t in trees:
        centers = nx.center(_graph(t))
        center_counts.add(len(centers))
        assert canonical_code(t) == min(rooted_code(t, c) for c in centers)
    assert center_counts == {1, 2}


def test_rooted_code_matches_recursive_walk_at_every_root():
    rng = random.Random(10)
    trees = [star_tree(6), broom(5, 4)]
    trees += [random_tree(rng, rng.randint(2, 300)) for _ in range(15)]
    for t in trees:
        for root in range(t.n):
            assert rooted_code(t, root) == subtree_code(t, root, -1)
            assert _peel(t, root)[0] == [root]


def test_rooted_code_small_and_deep_trees():
    assert rooted_code(Tree(1, []), 0) == "()"
    assert rooted_code(path_tree(2), 0) == rooted_code(path_tree(2), 1) == "(())"
    assert rooted_code(star_tree(5), 0) == "(()()()())"
    assert rooted_code(star_tree(5), 3) == "((()()()))"
    # 3000 levels: far deeper than the recursion limit of a recursive code
    deep = "(" * 3000 + ")" * 3000
    assert rooted_code(path_tree(3000), 0) == rooted_code(path_tree(3000), 2999) == deep
    for root in (-1, 5):
        with pytest.raises(ValueError, match="out of range"):
            rooted_code(star_tree(5), root)
