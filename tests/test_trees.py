"""Tree construction, degree sequences, caterpillars, and rooted structure."""

import math
import random

import pytest

from fiedlertrees import (
    BoundaryWeightError,
    NotATreeError,
    RootedBoundaryTree,
    Tree,
    branches_at,
    build_caterpillar,
    degree_sequence,
    format_edge_list,
    is_caterpillar,
    parse_edge_list,
    path_tree,
    prufer_decode,
    star_tree,
    trunk,
    validate_tree_sequence,
    with_boundary_weight,
)
from fiedlertrees.trees import EdgeListParseError, distances_from, spine_path

from helpers import broom, root_to_leaf_paths, spider


@pytest.mark.parametrize(
    "seq,ok",
    [
        ((1, 1), True),
        ((3, 2, 2, 2, 1, 1, 1), True),
        ((2, 2, 2), False),
        ((1,), False),
        ((2, 1, 1), True),
        ((4, 1, 1, 1), False),
        ((0, 2, 1, 1), False),
    ],
)
def test_validate_tree_sequence(seq, ok):
    assert validate_tree_sequence(seq) is ok


def test_tree_rejects_cycle():
    with pytest.raises(NotATreeError):
        Tree(3, [(0, 1), (1, 2), (0, 2)])


def test_tree_rejects_disconnected():
    with pytest.raises(NotATreeError):
        Tree(4, [(0, 1), (2, 3), (0, 1)])  # parallel edge caught first
    with pytest.raises(NotATreeError):
        Tree(5, [(0, 1), (1, 2), (3, 4), (3, 4)])


def test_tree_rejects_self_loop_and_bad_weight():
    with pytest.raises(NotATreeError):
        Tree(2, [(0, 0)])
    with pytest.raises(NotATreeError):
        Tree(2, [(0, 1, 0.0)])
    with pytest.raises(NotATreeError):
        Tree(2, [(0, 1, -1.0)])


def test_adjacency_is_symmetric_and_sorted():
    t = Tree(4, [(2, 0, 1.5), (1, 0), (3, 1)])
    assert t.neighbors(0) == ((1, 1.0), (2, 1.5))
    assert t.weight(2, 0) == t.weight(0, 2) == 1.5
    assert t.degree(0) == 2 and t.degree(3) == 1


def test_degree_sequence_examples():
    assert degree_sequence(path_tree(4)) == (2, 2, 1, 1)
    assert degree_sequence(star_tree(4)) == (3, 1, 1, 1)
    assert degree_sequence(spider(2, 2, 2)) == (3, 2, 2, 2, 1, 1, 1)


def test_is_caterpillar_examples():
    assert is_caterpillar(path_tree(5))
    assert is_caterpillar(star_tree(5))
    assert not is_caterpillar(spider(2, 2, 2))
    assert is_caterpillar(path_tree(2))


def test_build_caterpillar_examples():
    assert degree_sequence(build_caterpillar((2, 2))) == (2, 2, 1, 1)
    assert degree_sequence(build_caterpillar((3, 2, 2, 2))) == (3, 2, 2, 2, 1, 1, 1)
    assert degree_sequence(build_caterpillar((3, 3))) == (3, 3, 1, 1, 1, 1)
    assert build_caterpillar(()) == path_tree(2)


def test_caterpillar_spine_order():
    assert spine_path(path_tree(2)) == []
    assert spine_path(star_tree(5)) == [0]
    assert spine_path(path_tree(5)) == [1, 2, 3]
    assert spine_path(spider(2, 2, 2)) is None
    # spine 0-1-2 relabeled so the path runs 4-0-2, pendants 1, 3 and 5, 6
    t = Tree(7, [(4, 0), (0, 2), (4, 1), (4, 3), (2, 5), (2, 6)])
    assert spine_path(t) == [2, 0, 4]
    assert spine_path(build_caterpillar((3, 2, 4))) == [0, 1, 2]


def test_build_caterpillar_rejects_bad_spine():
    with pytest.raises(ValueError):
        build_caterpillar((2, 1, 2))


def test_build_caterpillar_always_caterpillar():
    import random

    rng = random.Random(3)
    for _ in range(50):
        spine = [rng.randint(2, 5) for _ in range(rng.randint(0, 5))]
        assert is_caterpillar(build_caterpillar(spine))


def test_branches_at_examples():
    p4 = path_tree(4)
    assert branches_at(p4, 2) == (frozenset({0, 1}), frozenset({3}))

    s4 = star_tree(4)  # center 0, leaves 1..3
    assert branches_at(s4, 0) == (frozenset({1}), frozenset({2}), frozenset({3}))

    sp = spider(2, 2, 2)  # legs 1-2, 3-4, 5-6
    got = branches_at(sp, 0)
    assert got == (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))


def test_branches_at_partition_property():
    import random

    from helpers import random_tree

    rng = random.Random(11)
    for _ in range(30):
        t = random_tree(rng, rng.randint(3, 10))
        u = rng.randrange(t.n)
        parts = branches_at(t, u)
        union = set().union(*parts) if parts else set()
        assert all(not (a & b) for i, a in enumerate(parts) for b in parts[i + 1 :])
        assert union == set(range(t.n)) - {u}


def test_rooted_boundary_tree_validation():
    t = path_tree(3)
    rbt = RootedBoundaryTree(t, 0)
    assert rbt.boundary_weight == 1.0
    assert rbt.interior() == (1, 2)
    weighted = Tree(3, [(0, 1, 0.5), (1, 2)])
    with pytest.raises(ValueError):
        RootedBoundaryTree(weighted, 0)  # boundary weight below 1
    off_edge = Tree(3, [(0, 1), (1, 2, 2.0)])
    with pytest.raises(ValueError):
        RootedBoundaryTree(off_edge, 0)  # non-boundary edge weighted


def test_rooted_boundary_tree_reads_the_boundary_edge_from_the_weights():
    star = [(0, k) for k in range(1, 5)]
    with pytest.raises(ValueError, match="only the boundary edge"):
        RootedBoundaryTree(Tree(5, [(0, 1, 2.0)] + star[1:]), 2)  # weighted non-root edge
    with pytest.raises(ValueError, match="only the boundary edge"):
        RootedBoundaryTree(Tree(5, [(0, 1, 2.0), (0, 2, 1.5)] + star[2:]), 0)
    with pytest.raises(BoundaryWeightError, match="boundary weight 0.5 must be finite and >= 1"):
        RootedBoundaryTree(Tree(5, star[:2] + [(0, 3, 0.5), (0, 4)]), 0)
    with pytest.raises(ValueError, match="out of range"):
        RootedBoundaryTree(Tree(5, star), 5)
    with pytest.raises(ValueError, match="nonempty"):
        RootedBoundaryTree(Tree(1, []), 0)
    for k in range(1, 5):
        edges = [(0, j, 2.5 if j == k else 1.0) for j in range(1, 5)]
        rbt = RootedBoundaryTree(Tree(5, edges), 0)
        assert (rbt.boundary_neighbor, rbt.boundary_weight) == (k, 2.5)
        leaf = RootedBoundaryTree(Tree(5, edges), k)
        assert (leaf.boundary_neighbor, leaf.boundary_weight) == (0, 2.5)
    # with unit weights, the smallest neighbour id
    units = ((path_tree(4), 1, 0), (path_tree(4), 3, 2), (star_tree(5), 2, 0), (star_tree(5), 0, 1))
    for t, root, nbr in units:
        rbt = RootedBoundaryTree(t, root)
        assert (rbt.boundary_neighbor, rbt.boundary_weight) == (nbr, 1.0)
    assert rbt == RootedBoundaryTree(star_tree(5), 0)
    assert hash(rbt) == hash(RootedBoundaryTree(star_tree(5), 0))
    assert rbt != RootedBoundaryTree(star_tree(5), 1)
    assert repr(rbt) == f"RootedBoundaryTree(root=0, tree={star_tree(5)!r})"


def test_with_boundary_weight_one_is_the_plain_rooted_tree():
    rng = random.Random(29)
    trees = [star_tree(6), path_tree(7), spider(1, 3, 3, 2)]
    trees += [prufer_decode([rng.randrange(n) for _ in range(n - 2)], n) for n in range(3, 30)]
    for t in trees:
        for root in range(t.n):
            assert with_boundary_weight(t, root, 1.0) == RootedBoundaryTree(t, root)


def test_trunk_examples():
    p4 = with_boundary_weight(path_tree(4), 0, 1.0)
    assert trunk(p4) == (0, 1, 2, 3)

    star_leaf = with_boundary_weight(star_tree(4), 1, 1.0)
    assert trunk(star_leaf) == (1, 0, 2)  # tie broken toward smallest ids

    cat = build_caterpillar((2, 3))  # spine 0-1, pendants 2 (at 0), 3,4 (at 1)
    rooted = with_boundary_weight(cat, 2, 1.0)
    assert len(trunk(rooted)) == 4
    assert trunk(rooted)[0] == 2


def _trunk_by_definition(rbt):
    """The longest root-to-pendant path, ties to the smallest id sequence."""
    return min(root_to_leaf_paths(rbt.tree, rbt.root), key=lambda p: (-len(p), p))


def test_trunk_matches_the_longest_path_definition():
    rng = random.Random(17)
    rooted = []
    for _ in range(300):
        cat = build_caterpillar([rng.randint(2, 5) for _ in range(rng.randint(1, 8))])
        perm = list(range(cat.n))
        rng.shuffle(perm)
        t = Tree(cat.n, [(perm[u], perm[v]) for u, v, _ in cat.edges])
        path = spine_path(t)
        roots = [v for v in range(t.n) if t.is_pendant(v)] + path[:1] + path[-1:]
        rooted.append(with_boundary_weight(t, rng.choice(roots), 1.0))
    big = broom(2000, 2000)
    rooted += [with_boundary_weight(big, root, 1.0) for root in (0, 2000, 3999)]
    for rbt in rooted:
        assert trunk(rbt) == _trunk_by_definition(rbt)
    assert trunk(rooted[-3]) == tuple(range(2001))


def test_trunk_rejects_bad_shapes():
    sp = with_boundary_weight(spider(2, 2, 2), 2, 1.0)
    with pytest.raises(ValueError):
        trunk(sp)
    # two non-pendant root neighbors
    mid = with_boundary_weight(path_tree(5), 2, 1.0)
    with pytest.raises(ValueError):
        trunk(mid)


def test_with_boundary_weight_places_weight_on_deep_side():
    # root 1 of the 4-path: subtree {2,3} is deeper than {0}
    rbt = with_boundary_weight(path_tree(4), 1, 2.0)
    assert rbt.boundary_neighbor == 2
    assert rbt.tree.weight(1, 2) == 2.0
    assert rbt.tree.weight(0, 1) == 1.0
    with pytest.raises(ValueError):
        with_boundary_weight(path_tree(4), 1, 0.5)


def test_with_boundary_weight_matches_branch_definition():
    # the weighted edge leads into the deepest branch at the root, ties to
    # the smallest neighbor id, with branches taken from branches_at
    rng = random.Random(11)
    trees = [star_tree(6), path_tree(7), spider(1, 3, 3, 2)]
    for _ in range(40):
        n = rng.randint(3, 30)
        trees.append(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n))
    for t in trees:
        for root in range(t.n):
            dist = distances_from(t, root)
            depth = {
                min(b & {u for u, _ in t.neighbors(root)}): max(dist[x] for x in b)
                for b in branches_at(t, root)
            }
            expected = min(depth, key=lambda u: (-depth[u], u))
            rbt = with_boundary_weight(t, root, 1.5)
            assert rbt.boundary_neighbor == expected
            assert rbt.boundary_weight == 1.5


def test_edge_list_round_trip():
    t = Tree(4, [(0, 1), (1, 2, 2.5), (1, 3)])
    text = format_edge_list(t)
    assert parse_edge_list(text) == t


def test_edge_list_comments_and_errors():
    t = parse_edge_list("# a path\n0 1\n\n1 2 1.0\n")
    assert t == path_tree(3)
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 1 2 3\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("a b\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("-1 0\n")


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_tree_rejects_non_finite_weight(w):
    with pytest.raises(NotATreeError):
        Tree(2, [(0, 1, w)])


@pytest.mark.parametrize("w0", [math.nan, math.inf])
def test_with_boundary_weight_rejects_non_finite_weight(w0):
    # a ValueError subclass, which the CLI maps to exit 4 rather than 2
    assert issubclass(BoundaryWeightError, ValueError)
    with pytest.raises(BoundaryWeightError, match="must be finite and >= 1"):
        with_boundary_weight(path_tree(4), 1, w0)
