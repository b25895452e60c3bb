"""Pendant perturbations, branch rearrangement, gluing, and the shape
predicates for eigenvalue minimizers."""

import itertools
import math
import random

import networkx as nx
import pytest

from fiedlertrees import (
    PerturbationRecord,
    RootedBoundaryTree,
    Tree,
    algebraic_connectivity,
    branches_at,
    build_caterpillar,
    canonical_code,
    degree_sequence,
    dirichlet_nu,
    enumerate_trees,
    glue,
    is_caterpillar,
    is_minimal_shape_rooted,
    is_theorem1_shape,
    analyze,
    path_tree,
    perturb_p1,
    perturb_p2,
    rearrange_branches,
    star_tree,
    trunk,
    with_boundary_weight,
)
from fiedlertrees.enumeration import _peel, canonical_tree_codes
from fiedlertrees.search import (
    _legal_p1_moves,
    _rooted_trees,
    _trunk_form,
    all_tree_sequences,
    verify_suite,
)

from helpers import NU_M2, dirichlet_path_nu, random_rooted_caterpillar, spider


def _rooted_path(m, w0=1.0):
    return with_boundary_weight(path_tree(m + 1), 0, w0)


def test_p1_straightens_into_path():
    # spine (3, 2): spine ids 0, 1; pendants 2, 3 at 0 and 4 at 1
    cat = build_caterpillar((3, 2))
    rbt = with_boundary_weight(cat, 2, 1.0)
    assert trunk(rbt) == (2, 0, 1, 4)
    before, _ = dirichlet_nu(rbt)

    moved = perturb_p1(rbt, 3, 0, 4)  # head becomes vj
    assert moved.tree.n == cat.n
    assert canonical_code(moved.tree) == canonical_code(path_tree(5))
    after, _ = dirichlet_nu(moved)
    assert after == pytest.approx(dirichlet_path_nu(4), rel=1e-11)
    assert after < before


def test_p1_between_non_head_trunk_vertices():
    # spine (3, 2, 2): pendants 3, 4 at spine 0 and 5 at spine 2
    cat = build_caterpillar((3, 2, 2))
    rbt = with_boundary_weight(cat, 3, 1.0)
    before, _ = dirichlet_nu(rbt)
    moved = perturb_p1(rbt, 4, 0, 1)
    after, _ = dirichlet_nu(moved)
    assert after < before - 1e-10 * before


def test_p1_preconditions():
    rbt = with_boundary_weight(build_caterpillar((3, 2)), 2, 1.0)
    with pytest.raises(ValueError):
        perturb_p1(rbt, 0, 0, 4)  # w not pendant
    with pytest.raises(ValueError):
        perturb_p1(rbt, 3, 1, 0)  # heights not increasing
    with pytest.raises(ValueError):
        perturb_p1(rbt, 3, 0, 3)  # vj off the trunk
    with pytest.raises(ValueError):
        perturb_p1(with_boundary_weight(spider(2, 2, 2), 2, 1.0), 4, 3, 0)


def test_p1_keeps_the_weighted_boundary_edge():
    # spine (3, 3) rooted at spine end 0, the weight on its edge to pendant 2
    cat = build_caterpillar((3, 3))
    rbt = RootedBoundaryTree(
        Tree(cat.n, [(u, v, 2.0 if (u, v) == (0, 2) else w) for u, v, w in cat.edges]), 0
    )
    assert trunk(rbt) == (0, 1, 4)
    with pytest.raises(ValueError, match="cannot detach the weighted boundary edge"):
        perturb_p1(rbt, 2, 0, 1)
    assert _legal_p1_moves(rbt) == [(3, 0, 1), (3, 0, 4), (5, 1, 4)]
    moved = perturb_p1(rbt, 3, 0, 1)
    assert (moved.boundary_neighbor, moved.boundary_weight) == (2, 2.0)


def test_p1_degree_bookkeeping():
    rng = random.Random(21)
    for _ in range(60):
        rbt = random_rooted_caterpillar(rng)
        moves = _legal_p1_moves(rbt)
        if not moves:
            continue
        w, vi, vj = rng.choice(moves)
        before = rbt.tree.degrees()
        moved = perturb_p1(rbt, w, vi, vj)
        after = moved.tree.degrees()
        # one degree moves from vi to vj, everything else unchanged
        assert moved.tree.n == rbt.tree.n
        assert after[vi] == before[vi] - 1
        assert after[vj] == before[vj] + 1
        assert all(
            after[v] == before[v] for v in range(rbt.tree.n) if v not in (vi, vj)
        )


def test_p1_strictly_decreases_nu():
    rng = random.Random(22)
    checked = 0
    while checked < 60:
        rbt = random_rooted_caterpillar(rng)
        moves = _legal_p1_moves(rbt)
        if not moves:
            continue
        w, vi, vj = rng.choice(moves)
        before, _ = dirichlet_nu(rbt)
        after, _ = dirichlet_nu(perturb_p1(rbt, w, vi, vj))
        assert after < before - 1e-10 * before
        checked += 1


def test_p2_closed_forms():
    rbt = _rooted_path(2)
    head = trunk(rbt)[-1]
    grown = perturb_p2(rbt, head)
    nu, _ = dirichlet_nu(grown)
    assert nu == pytest.approx(dirichlet_path_nu(3), rel=1e-11)
    assert dirichlet_nu(rbt)[0] == pytest.approx(dirichlet_path_nu(2), rel=1e-11)

    rbt1 = _rooted_path(1)
    grown1 = perturb_p2(rbt1, 1)
    assert dirichlet_nu(rbt1)[0] == pytest.approx(1.0, abs=1e-12)
    assert dirichlet_nu(grown1)[0] == pytest.approx(NU_M2, rel=1e-11)


def test_p2_mid_trunk_beats_head_extension():
    rbt = _rooted_path(3)
    mid = trunk(rbt)[2]
    nu_mid, _ = dirichlet_nu(perturb_p2(rbt, mid))
    assert nu_mid < dirichlet_path_nu(3)


def test_p2_always_decreases():
    rng = random.Random(23)
    for _ in range(60):
        rbt = random_rooted_caterpillar(rng)
        before, _ = dirichlet_nu(rbt)
        vj = rng.choice(trunk(rbt)[1:])
        grown = perturb_p2(rbt, vj)
        assert grown.tree.n == rbt.tree.n + 1
        after, _ = dirichlet_nu(grown)
        assert after < before - 1e-10 * before
    with pytest.raises(ValueError):
        perturb_p2(rbt, rbt.root)


def _root_branch_codes(rbt):
    """The rooted codes of rbt's branches at its root, from its own peel."""
    codes = _peel(rbt.tree, rbt.root)[1]
    return sorted(codes[child] for child, _ in rbt.tree.neighbors(rbt.root))


def test_trunk_edits_render_the_moved_trees_branch_codes():
    # verify applies each pendant move as an edit of the trunk's pendant
    # counts and renders the root's branch codes from it; perturb_p1 and
    # perturb_p2 build the moved tree, whose peel must give the same codes,
    # on every rooted caterpillar with n <= 9 rooted at a pendant or a
    # spine end, for every legal P1 move and every P2 move
    forms = 0
    moves = {"P1": 0, "P2": 0}
    for n in range(2, 10):
        for seq in all_tree_sequences(n):
            for r in _rooted_trees(seq, canonical_tree_codes(seq)):
                rbt, t = r.rbt, r.rbt.tree
                inner = [u for u, _ in t.neighbors(0) if not t.is_pendant(u)]
                defined = is_caterpillar(t) and (t.is_pendant(0) or len(inner) <= 1)
                form = _trunk_form(r)
                assert (form is not None) is defined, r.code
                if form is None:
                    continue
                forms += 1
                line = trunk(rbt)
                assert form.line == line
                pos = {v: i for i, v in enumerate(line)}
                for w, vi, vj in _legal_p1_moves(rbt):
                    moved = perturb_p1(rbt, w, vi, vj)
                    got = sorted(form.branches(pos[vi], pos[vj]))
                    assert got == _root_branch_codes(moved), (r.code, w, vi, vj)
                    moves["P1"] += 1
                for vj in line[1:]:
                    got = sorted(form.branches(None, pos[vj]))
                    assert got == _root_branch_codes(perturb_p2(rbt, vj)), (r.code, vj)
                    moves["P2"] += 1
    assert forms > 0
    # the suite applies exactly these moves
    assert moves == verify_suite("perturb", nmax=9)["checks"][0]["moves"]


def test_trunk_edit_keeps_a_branch_off_the_trunk():
    # rooted at a pendant on the middle spine vertex, (((())(()))) has the
    # branch (()) off t1, which every moved tree keeps beside the trunk
    seq = (3, 2, 2, 1, 1, 1)
    (r,) = [r for r in _rooted_trees(seq, canonical_tree_codes(seq)) if r.code == "(((())(())))"]
    form = _trunk_form(r)
    assert form.line == (0, 1, 2, 3)
    assert form.pendants == [0, 0, 0, 0]
    assert form.fixed == [[], ["(())"], [], []]
    assert _legal_p1_moves(r.rbt) == []
    for j, vj in enumerate(form.line[1:], start=1):
        moved = perturb_p2(r.rbt, vj)
        assert form.branches(None, j) == _root_branch_codes(moved)
    assert form.branches(None, 3) == ["(((()))(()))"]


def test_perturb_suite_counts_every_move_at_nmax_11():
    # the counts of an independent count over every rooted caterpillar with
    # n <= 11 (root at a pendant or a spine end, one per rooted code)
    check = verify_suite("perturb", nmax=11)["checks"][0]
    assert check["passed"], check["failures"]
    assert check["moves"] == {"P1": 12_658, "P2": 6_368}
    assert check["checked"] == 19_026
    assert check["min_relative_gap"] == pytest.approx(4.39e-3, rel=0.05)


def test_rearrange_collapses_spider_branch():
    sp = spider(2, 2, 2)  # center 0; legs 1-2, 3-4, 5-6
    rbt = with_boundary_weight(sp, 2, 1.0)
    before, g = dirichlet_nu(rbt)
    out = rearrange_branches(rbt, g, (2, 1, 0, 3, 4), (2, 1, 0, 5, 6))
    assert degree_sequence(out.tree) == degree_sequence(sp)
    assert is_caterpillar(out.tree)
    after, _ = dirichlet_nu(out)
    assert after < before - 1e-10 * before


def test_rearrange_preconditions():
    sp = spider(2, 2, 2)
    rbt = with_boundary_weight(sp, 2, 1.0)
    _, g = dirichlet_nu(rbt)
    with pytest.raises(ValueError):
        rearrange_branches(rbt, g, (2, 1, 0, 3), (2, 1, 0, 5, 6))  # x end not pendant
    with pytest.raises(ValueError):
        rearrange_branches(rbt, g, (2, 1, 0, 3, 4), (2, 1, 0, 3, 4))  # no divergence
    with pytest.raises(ValueError):
        # swapped roles: g at the x endpoint is the smaller value
        rearrange_branches(rbt, g, (2, 1, 0, 5), (2, 1, 0, 3, 4))


def test_glue_equal_sides_gives_path5():
    side = _rooted_path(2)
    glued = glue(side, side)
    assert canonical_code(glued) == canonical_code(path_tree(5))
    alpha, _ = algebraic_connectivity(glued)
    nu, _ = dirichlet_nu(side)
    assert alpha == pytest.approx(NU_M2, rel=1e-11)
    assert alpha == pytest.approx(nu, abs=1e-10)


def test_glue_unequal_sides_strict():
    a, b = _rooted_path(1), _rooted_path(2)
    glued = glue(a, b)
    assert canonical_code(glued) == canonical_code(path_tree(4))
    alpha, _ = algebraic_connectivity(glued)
    nu_a, _ = dirichlet_nu(a)
    nu_b, _ = dirichlet_nu(b)
    assert alpha == pytest.approx(2 - math.sqrt(2), rel=1e-11)
    assert alpha < max(nu_a, nu_b)


def test_glue_two_single_pendants():
    a = _rooted_path(1)
    glued = glue(a, a)
    assert canonical_code(glued) == canonical_code(path_tree(3))
    alpha, _ = algebraic_connectivity(glued)
    assert alpha == pytest.approx(1.0, abs=1e-12)  # P3 spectrum {0, 1, 3}


def test_glue_preserves_weights():
    a = _rooted_path(2, w0=3.0)
    b = _rooted_path(1, w0=1.5)
    glued = glue(a, b)
    assert glued.n == a.tree.n + b.tree.n - 1 == 4
    weights = sorted(w for _, _, w in glued.edges)
    assert weights == [1.0, 1.5, 3.0]


def _side(t, v, branches):
    """v and the branches of t at v, as a tree rooted at v, renumbered to
    0, with the rest in id order."""
    ids = [v] + sorted(set().union(*branches))
    new = {x: i for i, x in enumerate(ids)}
    edges = [(new[a], new[b]) for a, b, _ in t.edges if a in new and b in new]
    return RootedBoundaryTree(Tree(len(ids), edges), 0)


def test_glue_bound_at_a_vertex_is_its_second_least_branch_nu():
    # brute force for verify's unit glue rule: at a vertex v with two or
    # more branches, every split of the branches into two sides glues back
    # into the tree, each bound max(nu1, nu2) holds, and the least of them
    # is the second-least nu of a single branch, which alpha meets
    checked = 0
    for n in range(3, 8):
        for g in nx.nonisomorphic_trees(n):
            t = Tree(n, list(g.edges()))
            alpha, _ = algebraic_connectivity(t)
            for v in range(n):
                branches = branches_at(t, v)
                if len(branches) < 2:
                    continue
                single = sorted(dirichlet_nu(_side(t, v, [b]))[0] for b in branches)
                bounds = []
                for mask in range(1, 2 ** len(branches) - 1):
                    sides = [
                        _side(t, v, [b for i, b in enumerate(branches) if (mask >> i & 1) == bit])
                        for bit in (1, 0)
                    ]
                    glued = glue(*sides)
                    assert canonical_code(glued) == canonical_code(t)
                    got, _ = algebraic_connectivity(glued)
                    assert got == pytest.approx(alpha, rel=1e-12)
                    nu1, nu2 = (dirichlet_nu(side)[0] for side in sides)
                    assert got <= max(nu1, nu2) + 1e-10
                    if abs(nu1 - nu2) > 1e-8:
                        assert got < max(nu1, nu2)
                    bounds.append(max(nu1, nu2))
                    checked += 1
                assert min(bounds) == pytest.approx(single[1], rel=1e-12)
                assert alpha <= single[1] + 1e-10
                if single[1] - single[0] > 1e-8:
                    assert alpha < single[1]
    assert checked > 0


def test_is_minimal_shape_rooted_cases():
    # spine degrees 2, 2, 2, 3 away from the pendant root 4
    assert is_minimal_shape_rooted(with_boundary_weight(build_caterpillar((2, 2, 2, 3)), 4, 1.0))
    assert is_minimal_shape_rooted(_rooted_path(3))
    assert is_minimal_shape_rooted(with_boundary_weight(path_tree(2), 0, 1.0))

    # decreasing spine degrees away from the root
    cat = build_caterpillar((3, 2))
    assert not is_minimal_shape_rooted(with_boundary_weight(cat, 2, 1.0))
    # not a caterpillar
    assert not is_minimal_shape_rooted(with_boundary_weight(spider(2, 2, 2), 2, 1.0))
    # non-pendant roots are never minimizers
    assert not is_minimal_shape_rooted(with_boundary_weight(star_tree(4), 0, 1.0))
    assert not is_minimal_shape_rooted(with_boundary_weight(path_tree(4), 1, 1.0))
    # pendant root hanging off the middle of the spine
    cat2 = build_caterpillar((2, 3, 2))  # pendant 5 attached to mid spine
    mid_pendant = next(
        v for v in range(cat2.n) if cat2.is_pendant(v) and cat2.degree(cat2.neighbors(v)[0][0]) == 3
    )
    assert not is_minimal_shape_rooted(with_boundary_weight(cat2, mid_pendant, 1.0))


def test_is_theorem1_shape_cases():
    for n in (2, 3, 4, 5, 8):
        t = path_tree(n)
        assert is_theorem1_shape(t, analyze(t))
    sp = spider(2, 2, 2)
    assert not is_theorem1_shape(sp, analyze(sp))
    best = build_caterpillar((2, 2, 2, 3))
    assert is_theorem1_shape(best, analyze(best))


def _theorem1_shape_by_networkx(t, charset_ids) -> bool:
    """The paper's statement, read directly: t is a caterpillar, and along
    every shortest path in its non-pendant subgraph that starts at the
    nearest characteristic vertex the degrees do not decrease."""
    g = nx.Graph([(u, v) for u, v, _ in t.edges])
    inner = g.subgraph([v for v in g if g.degree(v) >= 2])
    if inner and not (nx.is_connected(inner) and max(d for _, d in inner.degree()) <= 2):
        return False
    starts = [v for v in charset_ids if v in inner]
    for v in inner:
        start = min(starts, key=lambda s: nx.shortest_path_length(inner, s, v))
        degrees = [g.degree(x) for x in nx.shortest_path(inner, start, v)]
        if degrees != sorted(degrees):
            return False
    return True


def test_is_theorem1_shape_matches_networkx():
    trees = [
        t for n in range(2, 11) for seq in all_tree_sequences(n) for t in enumerate_trees(seq)
    ]
    trees += [build_caterpillar(a) for a in set(itertools.permutations((2, 2, 3, 3, 4, 4, 5)))]
    answers = set()
    for t in trees:
        analysis = analyze(t)
        expected = _theorem1_shape_by_networkx(t, analysis.charset.ids)
        assert is_theorem1_shape(t, analysis) is expected, t
        answers.add(expected)
    assert answers == {True, False}
    assert len(trees) == 200 + 630


def test_perturbation_record_json():
    rec = PerturbationRecord("P1", 0.5, 0.25, ((4, 0), (4, 2)))
    doc = rec.to_json()
    assert doc == {
        "kind": "P1",
        "before_nu": 0.5,
        "after_nu": 0.25,
        "moved": [[4, 0], [4, 2]],
    }
