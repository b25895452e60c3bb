"""Characteristic sets, nodal domains, the geometric split, and path
monotonicity of Dirichlet eigenvectors."""

import random

import numpy as np
import pytest

from fiedlertrees import (
    AmbiguousCharacteristicSet,
    DisconnectedNodalDomainError,
    Tree,
    algebraic_connectivity,
    analysis_to_json,
    analyze,
    branches_at,
    characteristic_set,
    check_monotone_paths,
    dirichlet_nu,
    geometric_split,
    nodal_domains,
    path_tree,
    star_tree,
    verify_split,
    with_boundary_weight,
)
from fiedlertrees.nodal import _separating_zeros, _tau
from fiedlertrees.search import random_tree
from fiedlertrees.trees import distances_from

from helpers import (
    NU_M2,
    NU_M2_W2,
    broom,
    dirichlet_matrix,
    path_alpha,
    root_to_leaf_paths,
    spider,
    split_by_threshold,
)


def test_characteristic_set_path3_vertex():
    t = path_tree(3)
    _, f = algebraic_connectivity(t)
    cs = characteristic_set(t, f)
    assert cs.kind == "vertex"
    assert cs.ids == (1,)


def test_characteristic_set_path4_edge():
    t = path_tree(4)
    _, f = algebraic_connectivity(t)
    cs = characteristic_set(t, f)
    assert cs.kind == "edge"
    assert set(cs.ids) == {1, 2}
    neg, pos = cs.ids
    assert f[neg] < 0 < f[pos]
    # sign pattern (+, +, -, -) under the solver's sign convention
    assert f[0] > 0 and f[1] > 0 and f[2] < 0 and f[3] < 0


def test_characteristic_set_star_vertex():
    t = star_tree(4)
    _, f = algebraic_connectivity(t)
    cs = characteristic_set(t, f)
    assert cs.kind == "vertex"
    assert cs.ids == (0,)


def test_characteristic_set_ambiguous_on_non_fiedler_input():
    t = path_tree(5)
    with pytest.raises(AmbiguousCharacteristicSet):
        characteristic_set(t, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_nodal_domains_examples():
    t3 = path_tree(3)
    _, f = algebraic_connectivity(t3)
    pos, neg = nodal_domains(t3, f)
    assert pos == {0, 1} and neg == {1, 2}

    t4 = path_tree(4)
    _, f = algebraic_connectivity(t4)
    pos, neg = nodal_domains(t4, f)
    assert pos == {0, 1} and neg == {2, 3}

    st = star_tree(4)
    f = [0.0, 1.0, -1.0, 0.0]  # an eigenvector of the doubled eigenvalue 1
    pos, neg = nodal_domains(st, f)
    assert pos == {0, 1, 3} and neg == {0, 2, 3}


def test_nodal_domains_reject_disconnected():
    with pytest.raises(DisconnectedNodalDomainError):
        nodal_domains(path_tree(5), [1.0, -1.0, 1.0, -1.0, 1.0])


def test_geometric_split_path4():
    t = path_tree(4)
    an = analyze(t)
    sp = geometric_split(t, an)
    assert sp.w1 == pytest.approx(2.0, rel=1e-12)
    assert sp.w2 == pytest.approx(2.0, rel=1e-12)
    for side in (sp.pos, sp.neg):
        m = dirichlet_matrix(side)
        # [[3, -1], [-1, 1]] up to the interior ordering
        assert sorted(np.diag(m)) == pytest.approx([1.0, 3.0], rel=1e-12)
        assert m[0, 1] == m[1, 0] == -1.0
        nu, _ = dirichlet_nu(side)
        assert nu == pytest.approx(NU_M2_W2, rel=1e-11)
    r1, r2 = verify_split(t, sp, an.alpha)
    assert r1 <= 1e-10 and r2 <= 1e-10


def test_geometric_split_path5_vertex_case():
    t = path_tree(5)
    an = analyze(t)
    assert an.charset == an.charset.__class__("vertex", (2,))
    sp = geometric_split(t, an)
    assert sp.w1 is None and sp.w2 is None
    assert an.alpha == pytest.approx(path_alpha(5), rel=1e-11)
    for side in (sp.pos, sp.neg):
        nu, _ = dirichlet_nu(side)
        assert nu == pytest.approx(NU_M2, rel=1e-11)  # same as alpha(P5)
    r1, r2 = verify_split(t, sp, an.alpha)
    assert r1 <= 1e-10 and r2 <= 1e-10
    # interiors partition the original vertices minus the split vertex
    interiors = set(sp.origin_pos[1:]) | set(sp.origin_neg[1:])
    assert interiors == {0, 1, 3, 4}


def test_geometric_split_star():
    t = star_tree(4)
    an = analyze(t)
    sp = geometric_split(t, an)
    for side in (sp.pos, sp.neg):
        nu, _ = dirichlet_nu(side)
        assert nu == pytest.approx(an.alpha, rel=1e-10)
    r1, r2 = verify_split(t, sp, an.alpha)
    assert max(r1, r2) <= 1e-8


def test_analysis_clean_on_every_small_tree():
    # weak nodal domains connected, characteristic set unique: analyze()
    # raises on any violation, so a clean pass is the assertion
    from fiedlertrees import enumerate_trees
    from fiedlertrees.search import all_tree_sequences

    count = 0
    for n in range(2, 9):
        for seq in all_tree_sequences(n):
            for t in enumerate_trees(seq):
                an = analyze(t)
                assert an.charset.kind in ("vertex", "edge")
                count += 1
    assert count == 47  # unlabeled trees on 2..8 vertices


def test_geometric_split_residuals_random():
    rng = random.Random(9)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 10))
        an = analyze(t)
        sp = geometric_split(t, an)
        r1, r2 = verify_split(t, sp, an.alpha)
        assert max(r1, r2) <= 1e-8


def test_split_weights_at_least_one():
    # opposite signs at the endpoints force both split weights >= 1
    rng = random.Random(10)
    seen_edge_case = 0
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 11))
        an = analyze(t)
        if an.charset.kind != "edge":
            continue
        seen_edge_case += 1
        sp = geometric_split(t, an)
        assert sp.w1 >= 1.0 and sp.w2 >= 1.0
    assert seen_edge_case > 10


def test_check_monotone_paths_examples():
    rbt = with_boundary_weight(path_tree(3), 0, 1.0)
    _, vec = dirichlet_nu(rbt)
    assert check_monotone_paths(rbt, vec)
    # corrupting the deeper value breaks strict growth
    assert not check_monotone_paths(rbt, [vec[0], vec[0] * 0.5])

    center = with_boundary_weight(star_tree(4), 0, 1.0)
    _, vec = dirichlet_nu(center)
    assert check_monotone_paths(center, vec)  # zero branches are allowed


def test_analysis_json_schema():
    t = path_tree(4)
    doc = analysis_to_json(analyze(t))
    assert set(doc) == {"alpha", "fiedler", "characteristic", "domain_pos", "domain_neg"}
    assert doc["characteristic"]["kind"] in ("vertex", "edge")
    assert all(isinstance(i, int) for i in doc["characteristic"]["ids"])
    assert doc["domain_pos"] == sorted(doc["domain_pos"])
    assert isinstance(doc["alpha"], float)
    assert len(doc["fiedler"]) == t.n


def test_split_spider_vertex_case_with_zero_branch():
    # an eigenvector living on two of the three legs leaves the third leg
    # identically zero; the split must still reproduce alpha on both sides
    t = spider(2, 2, 2)
    an = analyze(t)
    assert an.charset == an.charset.__class__("vertex", (0,))
    sp = geometric_split(t, an)
    r1, r2 = verify_split(t, sp, an.alpha)
    assert max(r1, r2) <= 1e-8
    interiors = set(sp.origin_pos[1:]) | set(sp.origin_neg[1:])
    assert interiors == set(range(1, 7))


def test_split_sides_match_the_threshold_oracle():
    # the sides are read from the weak nodal domains; the oracle thresholds
    # the vector instead.  Equal-leg spiders and stars have alpha of
    # multiplicity > 1, whose Fiedler vectors can vanish on whole branches.
    rng = random.Random(73)
    trees = [random_tree(rng, rng.randint(2, 60)) for _ in range(200)]
    trees += [star_tree(n) for n in range(3, 12)] + [path_tree(n) for n in range(2, 12)]
    trees += [spider(*[length] * legs) for legs in range(3, 7) for length in range(1, 5)]
    kinds = set()
    for t in trees:
        try:
            an = analyze(t)
        except (AmbiguousCharacteristicSet, DisconnectedNodalDomainError):
            continue
        sp = geometric_split(t, an)
        assert (sp.pos, sp.origin_pos, sp.neg, sp.origin_neg) == split_by_threshold(t, an)
        zero_branch = an.charset.kind == "vertex" and any(
            b <= an.domain_pos and b <= an.domain_neg for b in branches_at(t, an.charset.ids[0])
        )
        kinds.add((an.charset.kind, zero_branch))
    assert kinds == {("edge", False), ("vertex", False), ("vertex", True)}


def _separating_zeros_by_definition(t, f, tau):
    """Zero vertices z such that no branch at z holds both signs."""
    pos = {v for v in range(t.n) if f[v] > tau}
    neg = {v for v in range(t.n) if f[v] < -tau}
    return [
        z
        for z in range(t.n)
        if abs(f[z]) <= tau
        and not any(b & pos and b & neg for b in branches_at(t, z))
    ]


def _hub_on_path():
    """A 501-vertex path with an 800-leaf hub hung from its center 250."""
    edges = [(i, i + 1) for i in range(500)] + [(250, 501)]
    edges += [(501, 502 + i) for i in range(800)]
    return Tree(1302, edges)


def test_separating_zeros_match_the_branch_definition():
    rng = random.Random(61)
    for _ in range(300):
        t = random_tree(rng, rng.randint(2, 40))
        # mostly zeros, so that many vertices are candidates
        f = np.array([rng.choice((-1, 0, 0, 0, 1)) * rng.random() for _ in range(t.n)])
        if not f.any():
            continue
        tau = _tau(f)
        assert _separating_zeros(t, f, tau) == _separating_zeros_by_definition(t, f, tau)


def test_separating_zeros_on_a_hub_hung_from_a_path():
    t = _hub_on_path()
    _, f = algebraic_connectivity(t)
    tau = _tau(f)
    assert sum(abs(x) <= tau for x in f) == 802
    expected = _separating_zeros_by_definition(t, f, tau)
    assert expected == [250]
    assert _separating_zeros(t, f, tau) == expected
    assert characteristic_set(t, f).ids == (250,)


def _monotone_by_definition(rbt, g, tau):
    """The per-path statement: along each root-to-leaf path the values,
    with 0 at the root, are all zero within tau or rise by more than tau."""
    index = rbt.interior_index()
    for path in root_to_leaf_paths(rbt.tree, rbt.root):
        values = [0.0] + [float(g[index[v]]) for v in path[1:]]
        if all(abs(x) <= tau for x in values):
            continue
        if all(b - a > tau for a, b in zip(values, values[1:])):
            continue
        return False
    return True


def test_check_monotone_paths_matches_the_per_path_definition():
    rng = random.Random(62)
    trees = [random_tree(rng, rng.randint(2, 40)) for _ in range(150)]
    trees += [broom(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(30)]
    verdicts = set()
    for t in trees:
        root = rng.randrange(t.n) if rng.random() < 0.5 else 0
        rbt = with_boundary_weight(t, root, 1.0)
        depth = distances_from(t, root)
        _, eigvec = dirichlet_nu(rbt)
        interior = rbt.interior()
        growing = np.array([depth[v] + rng.random() * 0.1 for v in interior])
        # silence whole branches, then break one entry
        for branch in branches_at(t, root):
            if rng.random() < 0.3:
                growing[[interior.index(v) for v in branch]] = 0.0
        broken = growing.copy()
        broken[rng.randrange(len(broken))] *= rng.choice((-1.0, 0.0, 0.5, 3.0))
        for g in (eigvec, growing, broken):
            if not np.any(g):
                continue
            expected = _monotone_by_definition(rbt, g, _tau(g))
            assert check_monotone_paths(rbt, g) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}
