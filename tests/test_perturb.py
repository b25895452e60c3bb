"""Pendant perturbations, branch rearrangement, gluing, and the shape
predicates for eigenvalue minimizers."""

import math
import random

import pytest

from fiedlertrees import (
    PerturbationRecord,
    RootedBoundaryTree,
    Tree,
    algebraic_connectivity,
    build_caterpillar,
    canonical_code,
    degree_sequence,
    dirichlet_nu,
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
from fiedlertrees.search import (
    _legal_p1_moves,
    random_rooted_caterpillar,
)

from helpers import NU_M2, dirichlet_path_nu, spider


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


def test_perturbation_record_json():
    rec = PerturbationRecord("P1", 0.5, 0.25, ((4, 0), (4, 2)))
    doc = rec.to_json()
    assert doc == {
        "kind": "P1",
        "before_nu": 0.5,
        "after_nu": 0.25,
        "moved": [[4, 0], [4, 2]],
    }
