"""The O(n) tree eigensolver against independent oracles: numpy's dense
eigh on small trees and blocks, plain count bisection at large n,
closed-form path spectra at large n, the residual certificate on
degenerate spectra, and a guard that large trees never reach a dense
solve."""

import math
import random

import numpy as np
import pytest

from fiedlertrees import (
    Tree,
    algebraic_connectivity,
    analyze,
    all_tree_sequences,
    branches_at,
    build_caterpillar,
    dirichlet_nu,
    geometric_split,
    laplacian,
    path_tree,
    star_tree,
    verify_split,
    with_boundary_weight,
)
from fiedlertrees import spectral

from helpers import (
    bisect_eigenvalue,
    broom,
    dirichlet_matrix,
    placed_rooted_trees,
    random_tree,
    spider,
)

EPS = np.finfo(float).eps


def _check_against_eigh(arrays, m, kernel):
    """Every eigenvalue of the solver within ||M||_1 n eps of eigh, and every
    vector inside the residual certificate of the dense matrix."""
    n = m.shape[0]
    norm = float(np.abs(m).sum(axis=0).max())
    values = np.linalg.eigh(m)[0]
    for j in range(n):
        pair = spectral._tree_eigenpair(*arrays, j, kernel=kernel and j > 0)
        assert abs(pair.value - values[j]) <= norm * n * EPS
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        residual = np.linalg.norm(m @ pair.vector - pair.value * pair.vector)
        assert residual <= spectral.RESIDUAL_FACTOR * (1.0 + norm)


def _blocks(rbt):
    """Solver input and dense Dirichlet block of every branch at the root,
    both in BFS order."""
    t, root = rbt.tree, rbt.root
    order, parent = t.bfs(root)
    index = rbt.interior_index()
    full = dirichlet_matrix(rbt)
    for branch in branches_at(t, root):
        sub = [v for v in order if v in branch]
        at = [index[v] for v in sub]
        yield spectral._tree_arrays(t, sub, parent), full[np.ix_(at, at)]


def test_laplacian_spectra_match_eigh_on_random_trees():
    rng = random.Random(51)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 60))
        order, parent = t.bfs(rng.randrange(t.n))
        m = laplacian(t)[np.ix_(order, order)]
        _check_against_eigh(spectral._tree_arrays(t, order, parent), m, kernel=True)


@pytest.mark.parametrize("w0", [1.5, 3.0])
def test_weighted_dirichlet_blocks_match_eigh(w0):
    rng = random.Random(int(w0 * 10))
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 60))
        rbt = with_boundary_weight(t, rng.randrange(t.n), w0)
        for arrays, block in _blocks(rbt):
            _check_against_eigh(arrays, block, kernel=False)


def test_split_sides_with_fractional_weights_match_eigh():
    rng = random.Random(52)
    fractional = 0
    for _ in range(40):
        t = random_tree(rng, rng.randint(3, 60))
        split = geometric_split(t, analyze(t))
        for side in (split.pos, split.neg):
            fractional += side.boundary_weight != round(side.boundary_weight)
            for arrays, block in _blocks(side):
                _check_against_eigh(arrays, block, kernel=False)
    assert fractional > 20


def _weights_1e3(n):
    """A random tree whose edge weights are 10^-3 or 10^3."""
    rng = random.Random(58)
    t = random_tree(rng, n)
    return Tree(n, [(u, v, 10.0 ** rng.choice((-3, 3))) for u, v, _ in t.edges])


_ORACLE_TREES = {
    **{f"random{n}": random_tree(random.Random(n), n) for n in (256, 700, 1500, 3000)},
    "star400": star_tree(400),
    "spider3x200": spider(200, 200, 200),
    "spider4x80": spider(80, 80, 80, 80),
    "path3000": path_tree(3000),
    "broom": broom(300, 300),
    "weights1e3": _weights_1e3(3000),
}


@pytest.mark.parametrize("tree", _ORACLE_TREES.values(), ids=_ORACLE_TREES.keys())
def test_eigenvalues_match_the_bisection_oracle(tree):
    # j = 1 of the Laplacian, and j = 0 of the largest Dirichlet block at
    # the last vertex: the two eigenvalues the package asks of the solver
    order, parent = tree.bfs(0)
    laplace = spectral._tree_arrays(tree, order, parent)
    root = tree.n - 1
    order, parent = tree.bfs(root)
    branch = max(branches_at(tree, root), key=len)
    block = spectral._tree_arrays(tree, [v for v in order if v in branch], parent)
    for arrays, j, kernel in ((laplace, 1, True), (block, 0, False)):
        value = spectral._tree_eigenpair(*arrays, j, kernel=kernel).value
        assert abs(value - bisect_eigenvalue(*arrays, j)) <= 2 * EPS * value


@pytest.mark.parametrize(
    "tree, w0",
    [(star_tree(300), 2.0), (build_caterpillar((40, 3, 2, 5)), 1.5)],
    ids=["star300", "hub_caterpillar"],
)
def test_one_vertex_branches_need_no_eigensolve(tree, w0, monkeypatch):
    # rooted at the hub (vertex 0), every pendant neighbour is a one-vertex
    # branch; the star's boundary weight lands on one of them
    dense = spectral._eigh

    def no_1x1(ms):
        if ms.shape[1:] == (1, 1):
            raise AssertionError("eigensolve of a 1x1 block")
        return dense(ms)

    monkeypatch.setattr(spectral, "_eigh", no_1x1)
    rbt = with_boundary_weight(tree, 0, w0)
    nu, g = dirichlet_nu(rbt)
    m = dirichlet_matrix(rbt)
    norm = np.abs(m).sum(axis=0).max()
    assert abs(nu - np.linalg.eigh(m)[0][0]) <= norm * m.shape[0] * EPS
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(m @ g - nu * g) <= spectral.RESIDUAL_FACTOR * (1 + norm)


def test_long_path_alpha_closed_form():
    n = 5000
    alpha, f = algebraic_connectivity(path_tree(n))
    # 4 sin^2(pi / 2n) equals 2 - 2 cos(pi / n) without its cancellation
    assert abs(alpha - 4 * math.sin(math.pi / (2 * n)) ** 2) <= 4 * n * EPS
    assert abs(f.sum()) <= 1e-10
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


def test_long_end_rooted_path_nu_closed_form():
    n = 5000
    nu, g = dirichlet_nu(with_boundary_weight(path_tree(n), 0, 1.0))
    assert abs(nu - 4 * math.sin(math.pi / (2 * (2 * n - 1))) ** 2) <= 4 * n * EPS
    assert np.all(np.diff(g) > 0)  # the Dirichlet vector grows away from the root


@pytest.mark.parametrize(
    "tree",
    [star_tree(400), spider(200, 200, 200), spider(80, 80, 80, 80)],
    ids=["star400", "spider3x200", "spider4x80"],
)
def test_degenerate_alpha_passes_the_certificate(tree):
    # alpha has multiplicity n - 2 on the star and legs - 1 on the spiders
    m = laplacian(tree)
    alpha, f = algebraic_connectivity(tree)
    assert alpha == pytest.approx(np.linalg.eigh(m)[0][1], abs=tree.n * 2 * EPS * m.max())
    assert abs(f.sum()) <= 1e-10
    bound = spectral.RESIDUAL_FACTOR * (1.0 + np.abs(m).sum(axis=1).max())
    assert np.linalg.norm(m @ f - alpha * f) <= bound
    assert analyze(tree).charset.ids == (0,)


def test_verify_split_on_a_large_random_tree():
    t = random_tree(random.Random(53), 1000)
    an = analyze(t)
    residuals = verify_split(t, geometric_split(t, an), an.alpha)
    assert max(residuals) <= 1e-8


def test_large_trees_reach_no_dense_solve(monkeypatch):
    t = random_tree(random.Random(54), 20000)
    leaf = min(v for v in range(t.n) if t.is_pendant(v))

    def refuse(*_args, **_kwargs):
        raise AssertionError("dense solve on a large tree")

    monkeypatch.setattr(spectral, "_eigh", refuse)
    monkeypatch.setattr(spectral, "laplacian", refuse)
    an = analyze(t)
    split = geometric_split(t, an)
    for rbt in (split.pos, split.neg, with_boundary_weight(t, leaf, 2.0)):
        nu, g = dirichlet_nu(rbt)
        assert nu > 0 and g.shape == (rbt.tree.n - 1,)
    assert max(verify_split(t, split, an.alpha)) <= 1e-8


def _check_against_dense_blocks(rbt, exact):
    """dirichlet_nu within ||M||_1 n eps of the least eigenvalue of the
    dense Dirichlet matrix, which is the minimum over its blocks, and its
    vector inside the residual certificate.  With exact, every block below
    TREE_SOLVER_ORDER rows cut from the tree equals its dense slice."""
    nu, g = dirichlet_nu(rbt)
    m = dirichlet_matrix(rbt)
    norm = np.abs(m).sum(axis=0).max()
    assert abs(nu - np.linalg.eigh(m)[0][0]) <= norm * m.shape[0] * EPS
    assert np.linalg.norm(m @ g - nu * g) <= spectral.RESIDUAL_FACTOR * (1 + norm)
    if not exact:
        return
    index = rbt.interior_index()
    for branch in branches_at(rbt.tree, rbt.root):
        if len(branch) < spectral.TREE_SOLVER_ORDER:
            verts = sorted(branch)
            at = [index[v] for v in verts]
            block = spectral._branch_block(rbt.tree, verts)
            assert np.array_equal(block, m[np.ix_(at, at)])


def test_small_blocks_of_a_large_interior_match_the_dense_slices():
    # a 300-leaf star hung from the end of a 300-vertex path, rooted at the
    # star's center: one branch takes the tree solver, 300 stay dense
    edges = [(i, i + 1) for i in range(299)] + [(299, 300)]
    edges += [(300, 301 + i) for i in range(300)]
    _check_against_dense_blocks(with_boundary_weight(Tree(601, edges), 300, 1.0), True)


@pytest.mark.parametrize("w0", [1.0, 1.5, 3.0])
def test_small_interior_blocks_equal_the_dense_slices(w0):
    # dyadic weights make every diagonal sum exact in any order, so the
    # block cut from the tree equals the dense slice bit for bit
    rng = random.Random(int(w0 * 20))
    for n in range(2, 9):
        for seq in all_tree_sequences(n):
            for rbt in placed_rooted_trees(seq, w0):
                _check_against_dense_blocks(rbt, True)
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 60))
        _check_against_dense_blocks(with_boundary_weight(t, rng.randrange(t.n), w0), True)


def test_small_interior_nu_on_fractional_split_sides_matches_the_dense_minimum():
    rng = random.Random(56)
    fractional = 0
    for _ in range(40):
        t = random_tree(rng, rng.randint(3, 60))
        split = geometric_split(t, analyze(t))
        for side in (split.pos, split.neg):
            fractional += side.boundary_weight != round(side.boundary_weight)
            _check_against_dense_blocks(side, False)
    assert fractional > 20
