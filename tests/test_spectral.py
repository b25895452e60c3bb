"""Laplacian assembly, the eigensolver contract, and closed-form spectra."""

import math
import random

import numpy as np
import pytest

from fiedlertrees import (
    Tree,
    algebraic_connectivity,
    dirichlet_nu,
    eig_smallest,
    laplacian,
    path_tree,
    star_tree,
    with_boundary_weight,
)

from helpers import (
    NU_M2,
    NU_M2_W2,
    dirichlet_matrix,
    dirichlet_path_nu,
    edge_rayleigh,
    path_alpha,
    random_tree,
    spider,
)


def test_laplacian_single_edge():
    assert np.array_equal(laplacian(Tree(2, [(0, 1)])), [[1, -1], [-1, 1]])
    assert np.array_equal(laplacian(Tree(2, [(0, 1, 2.0)])), [[2, -2], [-2, 2]])


def test_laplacian_three_path_spectrum():
    # closed form 2(1 - cos(k pi / 3)) gives {0, 1, 3}
    pairs = eig_smallest(laplacian(path_tree(3)), 3)
    got = [p.value for p in pairs]
    assert got == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)


def test_laplacian_row_sums_exactly_zero_for_unit_weights():
    rng = random.Random(1)
    for _ in range(50):
        t = random_tree(rng, rng.randint(2, 14))
        rows = laplacian(t).sum(axis=1)
        assert np.abs(rows).max() == 0.0


def test_laplacian_kernel_is_the_constant_vector():
    rng = random.Random(8)
    for _ in range(30):
        t = random_tree(rng, rng.randint(2, 12))
        pair = eig_smallest(laplacian(t), 1)[0]
        assert abs(pair.value) <= 1e-10
        assert np.allclose(pair.vector, pair.vector[0], atol=1e-9)
        assert pair.vector[0] > 0  # sign convention on the tied entries


def test_dirichlet_matrix_examples():
    m1 = dirichlet_matrix(with_boundary_weight(path_tree(2), 0, 1.0))
    assert np.array_equal(m1, [[1.0]])

    m2 = dirichlet_matrix(with_boundary_weight(path_tree(3), 0, 1.0))
    assert np.array_equal(m2, [[2, -1], [-1, 1]])
    assert eig_smallest(m2, 1)[0].value == pytest.approx(NU_M2, abs=1e-12)

    m2w = dirichlet_matrix(with_boundary_weight(path_tree(3), 0, 2.0))
    assert np.array_equal(m2w, [[3, -1], [-1, 1]])
    assert eig_smallest(m2w, 1)[0].value == pytest.approx(NU_M2_W2, abs=1e-12)


def test_eig_smallest_examples():
    vals = [p.value for p in eig_smallest(np.array([[1.0, -1.0], [-1.0, 1.0]]), 2)]
    assert vals == pytest.approx([0.0, 2.0], abs=1e-12)

    vals = [p.value for p in eig_smallest(laplacian(path_tree(4)), 2)]
    assert vals[1] == pytest.approx(2 - math.sqrt(2), abs=1e-12)

    vals = [p.value for p in eig_smallest(laplacian(star_tree(4)), 3)]
    assert vals == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)


def test_eig_smallest_contract():
    m = laplacian(path_tree(6))
    pairs = eig_smallest(m, 6)
    bound = 1e-10 * (1 + np.abs(m).sum(axis=1).max())
    for p in pairs:
        assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-12
        assert p.residual <= bound
        mags = np.abs(p.vector)
        assert p.vector[int(np.argmax(mags == mags.max()))] > 0
    with pytest.raises(ValueError):
        eig_smallest(m, 7)
    with pytest.raises(ValueError):
        eig_smallest(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)  # not symmetric


def test_rayleigh_examples():
    p3 = path_tree(3)
    assert edge_rayleigh(p3, [1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert edge_rayleigh(path_tree(2), [1.0, -1.0]) == pytest.approx(2.0)
    assert edge_rayleigh(p3, [1.0, 0.0, -1.0]) == pytest.approx(1.0)


def test_rayleigh_matches_edge_sum_form():
    # the Laplacian's quadratic form is the weighted edge-difference sum
    rng = random.Random(2)
    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 12))
        f = np.array([rng.uniform(-1, 1) for _ in range(t.n)])
        if all(abs(x) < 1e-12 for x in f):
            continue
        a = float(f @ laplacian(t) @ f) / float(f @ f)
        b = edge_rayleigh(t, f)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_algebraic_connectivity_paths_and_star():
    a4, f4 = algebraic_connectivity(path_tree(4))
    assert a4 == pytest.approx(2 - math.sqrt(2), rel=1e-12)
    assert abs(float(np.sum(f4))) <= 1e-10
    assert edge_rayleigh(path_tree(4), f4) == pytest.approx(a4, rel=1e-10)

    for n in range(2, 20):
        a, f = algebraic_connectivity(path_tree(n))
        assert a == pytest.approx(path_alpha(n), rel=1e-11)
        assert abs(float(np.sum(f))) <= 1e-10

    a_star, _ = algebraic_connectivity(star_tree(4))
    assert a_star == pytest.approx(1.0, rel=1e-12)


def test_alpha_positive_on_random_trees():
    rng = random.Random(3)
    for _ in range(50):
        a, _ = algebraic_connectivity(random_tree(rng, rng.randint(2, 12)))
        assert a > 1e-8


def test_dirichlet_nu_closed_forms():
    for m in (1, 2, 3, 5, 10):
        rbt = with_boundary_weight(path_tree(m + 1), 0, 1.0)
        nu, vec = dirichlet_nu(rbt)
        assert nu == pytest.approx(dirichlet_path_nu(m), rel=1e-11)
        assert nu > 0
        assert np.all(vec > 0)  # connected interior: strictly positive


def test_dirichlet_nu_eigenvector_shape():
    # two-interior path: eigenvector proportional to (1, (1 + sqrt 5)/2)
    nu, vec = dirichlet_nu(with_boundary_weight(path_tree(3), 0, 1.0))
    golden = (1 + math.sqrt(5)) / 2
    assert vec[1] / vec[0] == pytest.approx(golden, rel=1e-10)
    assert vec[1] > vec[0] > 0


def test_dirichlet_nu_disconnected_interior():
    # star rooted at the center: interior splits into 1x1 blocks, the
    # returned vector lives on exactly one of them
    rbt = with_boundary_weight(star_tree(4), 0, 1.0)
    nu, vec = dirichlet_nu(rbt)
    assert nu == pytest.approx(1.0, abs=1e-12)
    assert sorted(np.abs(vec)) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
    assert vec.sum() >= 0


def test_dirichlet_nu_never_exceeds_alpha_of_same_tree():
    # deleting the root row and column of the Laplacian interlaces the
    # spectrum, so nu always sits at or below alpha
    rng = random.Random(4)
    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 12))
        alpha, _ = algebraic_connectivity(t)
        nu, _ = dirichlet_nu(with_boundary_weight(t, rng.randrange(t.n), 1.0))
        assert nu <= alpha + 1e-10
        assert nu > 0


def test_every_queue_route_returns_a_position_of_the_public_pair():
    from fiedlertrees.spectral import TREE_SOLVER_ORDER, _Solves

    rng = random.Random(30)
    trees = [random_tree(rng, 40), random_tree(rng, TREE_SOLVER_ORDER + 44)]
    # one branch at each root: a lone vertex on a weighted edge, a dense
    # block and, from TREE_SOLVER_ORDER rows on, the tree solver
    rooted = [with_boundary_weight(path_tree(2), 0, 1.5)]
    for t in trees:
        leaf = min(v for v in range(t.n) if t.degree(v) == 1)
        rooted.append(with_boundary_weight(t, leaf, 1.0))
    solves = _Solves()
    laplacians = [solves.fiedler(t) for t in trees]
    branches = [solves.root_branches(rbt) for rbt in rooted]
    solves.run()
    sizes = [[len(verts) for verts, _ in queued] for queued in branches]
    assert sizes == [[1], [39], [TREE_SOLVER_ORDER + 43]]
    for t, at in zip(trees, laplacians):
        assert type(at) is int
        value, vector = solves.pair(at)
        want = algebraic_connectivity(t)
        assert value == want[0]
        assert np.array_equal(vector, want[1])
    for rbt, ((_, at),) in zip(rooted, branches):
        assert type(at) is int
        value, vector = solves.pair(at)
        want = dirichlet_nu(rbt)
        assert value == want[0]
        assert np.array_equal(vector, want[1])
    assert solves.pair(branches[0][0][1])[0] == 1.5


def test_root_branches_walk_the_tree_once(monkeypatch):
    from fiedlertrees import spectral
    from fiedlertrees.trees import branches_at

    # four legs of 300 vertices: each branch goes to the tree solver, and
    # one walk from the root gives every branch's BFS order
    t = spider(300, 300, 300, 300)
    rbt = with_boundary_weight(t, 0, 1.0)
    walks = []
    real_bfs = Tree.bfs

    def counted(self, src):
        walks.append(src)
        return real_bfs(self, src)

    monkeypatch.setattr(Tree, "bfs", counted)
    nu, vec = dirichlet_nu(rbt)
    monkeypatch.undo()
    assert walks == [0]

    def walked_pair(branch):
        # the tree solver's pair of one branch as a walk of the whole tree
        # for that branch alone gives it
        verts = sorted(branch)
        order, parent = t.bfs(0)
        order = [v for v in order if v in branch]
        pair = spectral._tree_eigenpair(*spectral._tree_arrays(t, order, parent), 0, False)
        x = np.empty(len(order))
        x[np.searchsorted(verts, order)] = pair.vector
        return pair.value, spectral._fix_sign(x)

    pairs = [walked_pair(branch) for branch in branches_at(t, 0)]
    solves = spectral._Solves()
    queued = solves.root_branches(rbt)
    solves.run()
    for (verts, at), branch, want in zip(queued, branches_at(t, 0), pairs, strict=True):
        assert verts == sorted(branch)
        value, vector = solves.pair(at)
        assert value == want[0]
        assert np.array_equal(vector, want[1])
    first = min(range(4), key=lambda i: pairs[i][0])
    assert nu == pairs[first][0]
    want = np.zeros(t.n - 1)
    want[300 * first : 300 * (first + 1)] = pairs[first][1]
    assert np.array_equal(vec, want)
