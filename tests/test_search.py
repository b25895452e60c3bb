"""Extremal searches, the partition explorer, and verification suites."""

import json
import math
import re

import numpy as np
import pytest

from fiedlertrees import (
    Tree,
    build_caterpillar,
    canonical_code,
    canonical_tree_codes,
    dirichlet_nu,
    enumerate_rooted_trees,
    enumerate_trees,
    is_caterpillar,
    min_alpha_caterpillar,
    min_alpha_tree,
    min_nu_rooted,
    path_tree,
    rooted_canonical_key,
    rooted_code,
    skeleton_word_count,
    spine_arrangements,
    tree_from_code,
    verify_suite,
    with_boundary_weight,
)
from fiedlertrees.cli import main
from fiedlertrees.search import (
    CAP,
    CSV_HEADER,
    SUITES,
    TIE_RTOL,
    EnumerationCapExceeded,
    _argmin,
    _check_cap,
    all_tree_sequences,
    explore_partitions,
    partition_rows_to_csv,
)
from fiedlertrees.spectral import _branch_block

from helpers import (
    NU_M2,
    NU_STAR4_LEAF,
    dirichlet_path_nu,
    min_nu_rooted_by_instance,
    path_alpha,
    placed_rooted_trees,
    round_floats,
    spider,
)


def test_all_tree_sequences_counts():
    # partitions of n - 2 parameterize the degree multisets
    assert list(all_tree_sequences(2)) == [(1, 1)]
    assert list(all_tree_sequences(3)) == [(2, 1, 1)]
    assert len(list(all_tree_sequences(9))) == 15
    for n in range(2, 10):
        for seq in all_tree_sequences(n):
            assert sum(seq) == 2 * (n - 1)


def test_min_alpha_tree_path4():
    rep = min_alpha_tree((2, 2, 1, 1))
    assert rep.instance_count == 1
    assert rep.min_value == pytest.approx(2 - math.sqrt(2), rel=1e-11)
    assert len(rep.minimizers) == 1
    assert rep.all_caterpillars and rep.all_theorem1_shape


def test_min_alpha_tree_spider_sequence():
    rep = min_alpha_tree((3, 2, 2, 2, 1, 1, 1))
    assert rep.instance_count == 3
    assert rep.all_caterpillars
    codes = [m["code"] for m in rep.minimizers]
    assert canonical_code(spider(2, 2, 2)) not in codes
    for m in rep.minimizers:
        assert is_caterpillar(tree_from_code(m["code"]))


def test_min_alpha_tree_star():
    rep = min_alpha_tree((3, 1, 1, 1))
    assert rep.instance_count == 1
    assert rep.min_value == pytest.approx(1.0, abs=1e-12)


def test_min_alpha_tree_cap():
    # the path on 15 vertices: 11! = 39,916,800 skeleton words, over the cap
    with pytest.raises(EnumerationCapExceeded):
        min_alpha_tree((2,) * 13 + (1, 1))


def test_min_alpha_tree_rejects_invalid():
    with pytest.raises(ValueError):
        min_alpha_tree((2, 2, 2))


@pytest.mark.parametrize(
    "entry",
    [
        canonical_tree_codes,
        skeleton_word_count,
        lambda seq: list(enumerate_trees(seq)),
        lambda seq: list(enumerate_rooted_trees(seq)),
        min_alpha_tree,
        min_alpha_caterpillar,
        min_nu_rooted,
        explore_partitions,
    ],
    ids=[
        "canonical_tree_codes",
        "skeleton_word_count",
        "enumerate_trees",
        "enumerate_rooted_trees",
        "min_alpha_tree",
        "min_alpha_caterpillar",
        "min_nu_rooted",
        "explore_partitions",
    ],
)
def test_entry_points_refuse_a_non_integer_degree(entry):
    # truncated, the degrees would be the valid (2, 2, 1, 1)
    with pytest.raises(ValueError, match=re.escape("invalid tree sequence (2.9, 2, 1, 1)")):
        entry((2.9, 2, 1, 1))


@pytest.mark.parametrize(
    "total, count",
    [
        (CAP + 1, str(CAP + 1)),
        (10**100 - 1, str(10**100 - 1)),
        (10**100, "at least 10^100"),
        (10**100 + 1, "at least 10^100"),
        # log10 rounds this up to 5000.0
        (10**5000 - 1, "at least 10^4999"),
    ],
    ids=["cap+1", "10^100-1", "10^100", "10^100+1", "10^5000-1"],
)
def test_cap_message_counts(total, count):
    with pytest.raises(EnumerationCapExceeded) as exc:
        _check_cap(total, "words")
    assert str(exc.value) == f"{count} words exceed the cap {CAP}"


def test_spine_arrangements_counts():
    assert len(spine_arrangements((3, 2, 2, 2))) == 2
    assert len(spine_arrangements((4, 3, 2))) == 3
    assert len(spine_arrangements((3, 3))) == 1
    assert len(spine_arrangements((2, 2, 2, 2))) == 1
    assert spine_arrangements(()) == [()]
    # reversal classes of (2, 3, 2) and friends
    assert sorted(spine_arrangements((3, 2, 2))) == [(2, 2, 3), (2, 3, 2)]


def test_caterpillar_searches_refuse_too_many_spine_permutations():
    # spine degrees 2..13: n = 80 and 12! (about 4.8e8) spine permutations
    seq = tuple(range(2, 14)) + (1,) * 68
    with pytest.raises(EnumerationCapExceeded, match="479001600 spine permutations"):
        min_alpha_caterpillar(seq)
    with pytest.raises(EnumerationCapExceeded, match="479001600 spine permutations"):
        explore_partitions(seq)


def test_min_alpha_caterpillar_agrees_with_full_search():
    # Theorem 1: every alpha minimizer is a caterpillar, so restricting the
    # search to caterpillars changes neither the minimum nor the minimizers
    for n in range(2, 10):
        for seq in all_tree_sequences(n):
            full = min_alpha_tree(seq)
            cats = min_alpha_caterpillar(seq)
            assert cats.min_value == pytest.approx(full.min_value, rel=1e-10)
            assert [m["code"] for m in cats.minimizers] == [
                m["code"] for m in full.minimizers
            ]


def test_min_alpha_caterpillar_path_unique():
    rep = min_alpha_caterpillar((2, 2, 2, 2, 1, 1))
    assert rep.instance_count == 1
    assert rep.min_value == pytest.approx(path_alpha(6), rel=1e-11)


def _laplacian_code(m):
    """The canonical code of the tree whose Laplacian is m."""
    n = len(m)
    return canonical_code(Tree(n, [(u, v) for u in range(n) for v in range(u) if m[u, v]]))


def test_alpha_searches_solve_each_candidate_once(monkeypatch):
    import fiedlertrees.search as search
    import fiedlertrees.spectral as spectral

    solved = []
    built = []
    real_stack = spectral._eig_stack
    real_build = search.build_caterpillar

    def stacked(ms, k):
        solved.extend(map(_laplacian_code, ms))
        return real_stack(ms, k)

    def counted_build(spine):
        built.append(tuple(spine))
        return real_build(spine)

    # the searches solve their trees' Laplacians in stacks; every dense
    # solve, one tree's alone (eig_smallest) too, goes through _eig_stack
    monkeypatch.setattr(spectral, "_eig_stack", stacked)
    monkeypatch.setattr(search, "build_caterpillar", counted_build)
    # the minimizers' analysis reads the pair the ranking solved
    rep = min_alpha_tree((4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1))
    assert rep.instance_count == 73
    assert len(solved) == len(set(solved)) == 73
    for seq in [(3, 2, 2, 2, 1, 1, 1), (3, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1), (3, 3, 1, 1, 1, 1)]:
        solved.clear()
        built.clear()
        rep = min_alpha_caterpillar(seq)
        # one dense solve per arrangement of the band, none for the report
        assert len(solved) == len(built) >= len(rep.minimizers)


def test_min_nu_rooted_examples():
    rep = min_nu_rooted((2, 2, 1, 1))
    assert rep.instance_count == 2
    assert rep.min_value == pytest.approx(dirichlet_path_nu(3), rel=1e-11)
    assert rep.all_minimal_shape
    assert len(rep.minimizers) == 1
    assert rep.minimizers[0]["root"] == 0

    rep = min_nu_rooted((2, 1, 1))
    assert rep.min_value == pytest.approx(NU_M2, rel=1e-11)

    rep = min_nu_rooted((3, 1, 1, 1))
    assert rep.instance_count == 2
    # leaf-rooted star wins over the center-rooted blocks
    assert rep.min_value == pytest.approx(NU_STAR4_LEAF, rel=1e-11)
    assert rep.all_minimal_shape


def test_min_nu_rooted_weighted():
    rep = min_nu_rooted((2, 2, 1, 1), 1.5)
    assert rep.boundary_weight == 1.5
    assert rep.instance_count == 3  # the inner root admits two placements
    assert rep.all_minimal_shape


def test_min_nu_rooted_checks_the_boundary_weight_before_enumerating(monkeypatch):
    import re

    import fiedlertrees.enumeration as enumeration
    import fiedlertrees.search as search

    def never(seq):
        raise AssertionError("enumerated before the boundary weight was checked")

    monkeypatch.setattr(enumeration, "canonical_tree_codes", never)
    monkeypatch.setattr(search, "canonical_tree_codes", never)
    # 224 skeleton words, and the 15-vertex path, over the cap
    for seq in [(4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1), (2,) * 13 + (1, 1)]:
        for w0 in (math.nan, 0.5):
            message = f"boundary weight {w0} must be finite and >= 1"
            with pytest.raises(ValueError, match=re.escape(message)):
                min_nu_rooted(seq, w0)


def _at_the_tie_edge(keys):
    """Values for sorted keys k0 < k1 < k2: k2 holds the minimum m, k0
    exactly m + TIE_RTOL m, and k1 the next float above that."""
    least = 0.3
    edge = least + TIE_RTOL * least
    k0, k1, k2 = sorted(keys)
    return {k0: edge, k1: float(np.nextafter(edge, 2.0)), k2: least}


def test_tie_band_edge_in_min_alpha_tree(monkeypatch):
    import fiedlertrees.search as search
    import fiedlertrees.spectral as spectral

    seq = (3, 2, 2, 2, 1, 1, 1)
    values = _at_the_tie_edge(canonical_tree_codes(seq))
    real = spectral._eig_stack

    # the report analyses each minimizer from the vector the search solved
    def stacked(ms, k):
        got, vectors, res = real(ms, k)
        got[:, 1] = [values[_laplacian_code(m)] for m in ms]
        return got, vectors, res

    monkeypatch.setattr(spectral, "_eig_stack", stacked)
    # enumerated in reverse, so code order comes from the search
    monkeypatch.setattr(search, "canonical_tree_codes", lambda seq: sorted(values, reverse=True))
    rep = min_alpha_tree(seq)
    k0, _, k2 = sorted(values)
    assert rep.min_value == values[k2]
    assert [(m["code"], m["alpha"]) for m in rep.minimizers] == [
        (k0, values[k0]),
        (k2, values[k2]),
    ]


def test_tie_band_edge_in_min_nu_rooted(monkeypatch):
    import fiedlertrees.spectral as spectral

    seq = (2, 2, 2, 1, 1)  # the path on five vertices, rooted three ways
    keys = [rooted_code(path_tree(5), root) for root in range(3)]
    values = _at_the_tie_edge(keys)

    # min_nu_rooted solves branches in stacks, each one block of the
    # branch's order, and a rooted tree's nu is its least branch's: rooted
    # at i, the path has branches of i and 4 - i vertices, and the
    # one-vertex branch, which needs no solve, stays at w0 = 1 above every
    # value
    branch = {4: values[keys[0]], 3: values[keys[1]], 2: values[keys[2]]}
    monkeypatch.setattr(
        spectral,
        "_eig_stack",
        lambda ms, k: (
            np.array([[branch[len(m)]] * k for m in ms]),
            np.zeros((len(ms), k, ms.shape[1])),
            np.zeros((len(ms), k)),
        ),
    )
    rep = min_nu_rooted(seq)
    k0, _, k2 = sorted(values)
    assert rep.min_value == values[k2]
    assert [(m["code"], m["nu"]) for m in rep.minimizers] == [
        (k0, values[k0]),
        (k2, values[k2]),
    ]


def test_branch_table_reproduces_dirichlet_nu_bitwise():
    from fiedlertrees.search import _BranchTable, _instances, _nus, _rooted_pair, _rooted_trees

    table = {}  # one table for every sequence, as verify_suite keeps it
    count = 0
    for n in range(2, 10):
        for seq in all_tree_sequences(n):
            rooted = _rooted_trees(seq, canonical_tree_codes(seq))
            count += len(rooted)
            # the w0 = 1 instances read every unit branch that _rooted_pair
            # reads, so filling their keys fills the rooted trees' too
            instances = {w0: _instances(rooted, w0) for w0 in (1.0, 1.5, 3.0)}
            solves = _BranchTable(table)
            solves.entry(key for found in instances.values() for *_, keys in found for key in keys)
            solves.run()
            for r in rooted:
                nu, vec = _rooted_pair(table, r)
                want_nu, want_vec = dirichlet_nu(r.rbt)
                assert nu == want_nu
                assert np.array_equal(vec, want_vec)
            # every instance in the brute-force oracle's order and key, and
            # valued as dirichlet_nu values the tree it stands for
            for w0, found in instances.items():
                got = [(key, min(nus)) for (_, _, key, _), nus in zip(found, _nus(table, found))]
                want = [
                    (rooted_canonical_key(rbt), dirichlet_nu(rbt)[0])
                    for rbt in placed_rooted_trees(seq, w0)
                ]
                assert got == want
    assert count == sum([1, 2, 4, 9, 20, 48, 115, 286])  # A000081, n = 2..9


def test_min_nu_rooted_agrees_with_one_solve_per_instance():
    for n in range(2, 9):
        for seq in all_tree_sequences(n):
            for w0 in (1.0, 1.5, 3.0):
                doc = min_nu_rooted(seq, w0).to_json()
                del doc["elapsed"]
                assert doc == min_nu_rooted_by_instance(seq, w0)


@pytest.mark.parametrize("w0", [1.0, 1.5])
def test_min_nu_rooted_through_a_tree_solver_entry(w0, monkeypatch):
    import fiedlertrees.spectral as spectral

    # rooted at a leaf, the 300-vertex star hangs one branch of 299
    # vertices, a branch table entry that the tree solver takes
    seq = (299,) + (1,) * 299
    orders = []
    real = spectral._tree_eigenpair

    def recorded(up, diag, off, j, kernel):
        orders.append(len(diag))
        return real(up, diag, off, j, kernel)

    monkeypatch.setattr(spectral, "_tree_eigenpair", recorded)
    doc = min_nu_rooted(seq, w0).to_json()
    assert orders == [299] and 299 >= spectral.TREE_SOLVER_ORDER
    del doc["elapsed"]
    assert doc == min_nu_rooted_by_instance(seq, w0)


def test_lemma5_solves_each_branch_once_per_weight(monkeypatch):
    import fiedlertrees.spectral as spectral

    solved = []
    real = spectral._eig_stack

    def counted(ms, k):
        solved.extend(map(len, ms))
        return real(ms, k)

    monkeypatch.setattr(spectral, "_eig_stack", counted)
    assert verify_suite("lemma5", nmax=8)["passed"]
    # a branch of a rooted tree with n <= 8 is one of the 85 rooted trees
    # with at most 7 vertices (A000081), solved at w0 = 1, 1.5 and 3
    assert 0 < len(solved) <= 3 * sum([1, 1, 2, 4, 9, 20, 48])


def test_verify_solves_only_inside_its_layers(monkeypatch):
    import fiedlertrees.search as search
    import fiedlertrees.spectral as spectral

    depth, outside = [0], []
    real_add, real_layer = spectral._Solves.add, search._layer

    def add(self, m, j):
        if not depth[0]:
            outside.append(m.copy())
        return real_add(self, m, j)

    def layer(*args):
        depth[0] += 1
        try:
            return real_layer(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(spectral._Solves, "add", add)
    monkeypatch.setattr(search, "_layer", layer)
    assert verify_suite("all", nmax=8)["passed"]
    # the layer solves every entry a check reads, so no check queues a
    # block but glue's equality case, whose dirichlet_nu on the rooted
    # three-vertex path solves the 2x2 block of its one branch
    side = with_boundary_weight(path_tree(3), 0, 1.0)
    assert len(outside) == 1
    assert np.array_equal(outside[0], spectral._branch_block(side.tree, [1, 2]))


def _entry_block(code, w0):
    """The Dirichlet block of the branch with rooted code code hung from a
    fresh root by an edge of weight w0."""
    hung = with_boundary_weight(tree_from_code("(" + code + ")"), 0, w0).tree
    return _branch_block(hung, list(range(1, hung.n)))


def test_min_nu_rooted_solves_exactly_the_entries_its_instances_read(monkeypatch):
    import fiedlertrees.search as search
    import fiedlertrees.spectral as spectral

    seq, w0 = (4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1), 1.5
    handed = []
    real = spectral._Solves.add

    def recorded(self, m, j):
        handed.append((m, j))
        return real(self, m, j)

    monkeypatch.setattr(spectral._Solves, "add", recorded)
    report = min_nu_rooted(seq, w0)
    rooted = search._rooted_trees(seq, canonical_tree_codes(seq))
    instances = search._instances(rooted, w0)
    assert report.instance_count == len(instances)
    # the distinct keys the instances read, in first-read order, less the
    # lone vertices, which need no solve: the unit branch of a one-child
    # root is read by no instance above w0 = 1, so it is not solved
    read = dict.fromkeys(key for *_, keys in instances for key in keys)
    want = [_entry_block(*key) for key in read if key[0] != "()"]
    assert len(handed) == len(want) == 857
    assert all(np.array_equal(got, block) for (got, _), block in zip(handed, want))
    # each entry is read for its first Dirichlet pair
    assert {j for _, j in handed} == {0}


def test_branch_table_entries_equal_dirichlet_nu_of_the_hung_tree(monkeypatch):
    import fiedlertrees.search as search
    import fiedlertrees.spectral as spectral

    solves = []
    real_stack = spectral._eig_stack

    def stacked(ms, k):
        solves.append(ms.shape)
        return real_stack(ms, k)

    # eig_smallest solves through _eig_stack too, as a stack of one
    monkeypatch.setattr(spectral, "_eig_stack", stacked)
    trees = [
        tree_from_code(code)
        for n in range(2, 9)
        for seq in all_tree_sequences(n)
        for code in canonical_tree_codes(seq)
    ]
    codes = sorted({"()"} | {rooted_code(t, v) for t in trees for v in range(t.n)})
    assert len(codes) == sum([1, 1, 2, 4, 9, 20, 48, 115])  # A000081, n = 1..8
    # at 1.03 the hung star on 8 vertices tells w0 summed into the degree
    # from w0 - 1 added to a unit degree: the two round apart there
    for w0 in (1.0, 1.03, 1.1, 1.5, 2.0, 3.0, 7.3):
        table = {}
        for code in codes:
            del solves[:]
            queued = search._BranchTable(table)
            queued.entry([(code, w0)])
            queued.run()
            nu, vec = table[code, w0]
            # one block of the branch's order per multi-vertex entry, solved
            # in the table's stack; none for a lone vertex
            order = code.count("(")
            assert solves == ([] if order == 1 else [(1, order, order)]), (code, w0)
            hung = tree_from_code("(" + code + ")")
            want_nu, want_vec = dirichlet_nu(with_boundary_weight(hung, 0, w0))
            assert nu == want_nu, (code, w0)
            assert np.array_equal(vec, want_vec), (code, w0)


def test_explore_partitions_rows():
    rows = explore_partitions((3, 2, 2, 2, 1, 1, 1))
    assert len(rows) == 2
    assert rows[0].alpha <= rows[1].alpha
    best = rows[0]
    assert best.arrangement in ((2, 2, 2, 3), (3, 2, 2, 2))
    # spine multiset is covered by the two sides plus a characteristic vertex
    covered = list(best.left_degrees) + list(best.right_degrees)
    if best.charset_kind == "vertex":
        covered.append(
            build_caterpillar(best.arrangement).degree(int(best.charset_pos))
        )
    assert sorted(covered) == [2, 2, 2, 3]

    path_rows = explore_partitions((2, 2, 2, 2, 1, 1))
    assert len(path_rows) == 1
    assert path_rows[0].charset_kind == "edge"

    rows3 = explore_partitions((4, 3, 2, 1, 1, 1, 1, 1))
    assert len(rows3) == 3
    # a slice is a list of the rows it selects
    assert rows3[1:3] == [rows3[1], rows3[2]]
    assert rows3[::-1] == [rows3[2], rows3[1], rows3[0]]


def test_explore_argmin_matches_caterpillar_search():
    for seq in [(3, 2, 2, 2, 1, 1, 1), (3, 3, 2, 2, 1, 1, 1, 1), (4, 2, 2, 1, 1, 1, 1)]:
        rows = explore_partitions(seq)
        rep = min_alpha_caterpillar(seq)
        assert rows[0].alpha == pytest.approx(rep.min_value, rel=1e-12)
        arrangements = {tuple(m["arrangement"]) for m in rep.minimizers}
        assert rows[0].arrangement in arrangements


def test_explore_csv_shape_and_determinism():
    rows = explore_partitions((3, 2, 2, 2, 1, 1, 1))
    text = partition_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 7
    again = partition_rows_to_csv(explore_partitions((3, 2, 2, 2, 1, 1, 1)))
    assert text == again


def test_verify_suite_smoke():
    rep = verify_suite("theorem1", nmax=7)
    assert rep["passed"] and rep["checks"][0]["checked"] >= 1

    rep = verify_suite("lemma2", nmax=7)
    assert rep["passed"]

    rep = verify_suite("lemma5", nmax=6)
    assert rep["passed"]

    rep = verify_suite("perturb")
    assert rep["passed"]

    rep = verify_suite("glue")
    assert rep["passed"]

    rep = verify_suite("split", nmax=9)
    assert rep["passed"]
    assert rep["checks"][0]["worst_residual"] <= 1e-8


def test_verify_suite_all_and_determinism():
    a = verify_suite("all", nmax=5)
    b = verify_suite("all", nmax=5)
    assert a == b
    assert a["passed"]
    assert [c["suite"] for c in a["checks"]] == [
        "theorem1",
        "lemma2",
        "lemma5",
        "perturb",
        "glue",
        "split",
    ]
    with pytest.raises(ValueError):
        verify_suite("nonsense")


@pytest.mark.parametrize(
    "suite,kwargs,name",
    [
        ("theorem1", {"nmax": 1}, "nmax"),
        ("all", {"nmax": 1}, "nmax"),
    ],
)
def test_verify_suite_rejects_empty_ranges(suite, kwargs, name):
    with pytest.raises(ValueError, match=name):
        verify_suite(suite, **kwargs)


@pytest.mark.parametrize(
    "search, seq",
    [
        (min_alpha_tree, (3, 3, 2, 2, 1, 1, 1, 1)),
        (min_alpha_caterpillar, (3, 3, 2, 2, 1, 1, 1, 1)),
        (lambda seq: min_nu_rooted(seq, 1.5), (3, 3, 2, 2, 1, 1, 1, 1)),
        (min_nu_rooted, (4, 3, 2, 1, 1, 1, 1, 1)),
    ],
    ids=["min-tree", "min-cat", "min-rooted-1.5", "min-rooted"],
)
def test_report_json_equals_the_dataclass_copy(search, seq):
    from dataclasses import asdict

    report = search(seq)
    doc = report.to_json()
    assert doc == {k: v for k, v in asdict(report).items() if v is not None}
    assert list(doc) == [k for k, v in asdict(report).items() if v is not None]


def test_search_reports_are_json_ready():
    import json

    rep = min_alpha_tree((2, 2, 1, 1))
    doc = rep.to_json()
    json.dumps(doc)
    assert doc["sequence"] == [2, 2, 1, 1]
    assert "elapsed" in doc

    rep = min_nu_rooted((2, 1, 1))
    json.dumps(rep.to_json())


def test_verify_enumerates_each_sequence_once(monkeypatch):
    import fiedlertrees.enumeration as enumeration
    import fiedlertrees.search as search

    calls = []
    rooted_calls = []
    real = enumeration.canonical_tree_codes
    real_rooted = enumeration.enumerate_rooted_trees

    def counted(seq):
        calls.append(tuple(seq))
        return real(seq)

    def counted_rooted(seq, **kwargs):
        rooted_calls.append(tuple(seq))
        return real_rooted(seq, **kwargs)

    monkeypatch.setattr(enumeration, "canonical_tree_codes", counted)
    monkeypatch.setattr(search, "canonical_tree_codes", counted)
    monkeypatch.setattr(search, "enumerate_rooted_trees", counted_rooted)
    assert verify_suite("all", nmax=7)["passed"]
    expected = [seq for n in range(2, 8) for seq in all_tree_sequences(n)]
    assert sorted(calls) == sorted(expected)
    # lemma2 and lemma5 share the unit rooted trees of each sequence, and
    # lemma5 places its w0 = 1.5 and 3 weights on them
    assert sorted(rooted_calls) == sorted(expected)


def test_verify_every_suite_enumerates_each_sequence_once(monkeypatch):
    import fiedlertrees.enumeration as enumeration
    import fiedlertrees.search as search

    calls = []
    rooted_calls = []
    real = enumeration.canonical_tree_codes
    real_rooted = enumeration.enumerate_rooted_trees

    def counted(seq):
        calls.append(tuple(seq))
        return real(seq)

    def counted_rooted(seq, **kwargs):
        rooted_calls.append(tuple(seq))
        return real_rooted(seq, **kwargs)

    monkeypatch.setattr(enumeration, "canonical_tree_codes", counted)
    monkeypatch.setattr(search, "canonical_tree_codes", counted)
    monkeypatch.setattr(search, "enumerate_rooted_trees", counted_rooted)
    expected = [seq for n in range(2, 9) for seq in all_tree_sequences(n)]
    for suite in SUITES:
        calls.clear()
        rooted_calls.clear()
        assert verify_suite(suite, nmax=8)["passed"], suite
        assert calls == expected, suite
        # only theorem1 and split read no rooted tree
        reads_rooted = suite not in ("theorem1", "split")
        assert rooted_calls == (expected if reads_rooted else []), suite


@pytest.mark.parametrize("suite,seed", [("split", 8), ("perturb", 1), ("glue", 1)])
def test_verify_sampled_suites_enumerate_only_what_they_read(monkeypatch, capsys, suite, seed):
    import fiedlertrees.enumeration as enumeration
    import fiedlertrees.search as search

    # split, perturb and glue took their cases from --rng-seed; with any
    # seed they now read the stream's sequences once each, and build
    # rooted trees only where they check them
    calls = []
    rooted_calls = []
    real = enumeration.canonical_tree_codes
    real_rooted = enumeration.enumerate_rooted_trees

    def counted(seq):
        calls.append(tuple(seq))
        return real(seq)

    def counted_rooted(seq, **kwargs):
        rooted_calls.append(tuple(seq))
        return real_rooted(seq, **kwargs)

    monkeypatch.setattr(enumeration, "canonical_tree_codes", counted)
    monkeypatch.setattr(search, "canonical_tree_codes", counted)
    monkeypatch.setattr(search, "enumerate_rooted_trees", counted_rooted)
    argv = ["verify", "--suite", suite, "--nmax", "8", "--rng-seed", str(seed)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    expected = [seq for n in range(2, 9) for seq in all_tree_sequences(n)]
    assert calls == expected
    assert rooted_calls == ([] if suite == "split" else expected)


@pytest.mark.parametrize("suite", ["theorem1", "lemma2", "lemma5", "all"])
def test_verify_refuses_an_over_cap_sequence_before_decoding(monkeypatch, suite):
    import fiedlertrees.search as search

    decoded = []
    real = search.canonical_tree_codes

    def recorded(seq):
        decoded.append(tuple(seq))
        return real(seq)

    # of the sequences with n <= 7, only the path (2, 2, 2, 2, 2, 1, 1) has
    # more than 5 skeleton words (3! = 6); the stream reaches it last
    monkeypatch.setattr(search, "CAP", 5)
    monkeypatch.setattr(search, "canonical_tree_codes", recorded)
    with pytest.raises(EnumerationCapExceeded, match="6 skeleton words exceed the cap 5"):
        verify_suite(suite, nmax=7)
    expected = [seq for n in range(2, 8) for seq in all_tree_sequences(n)]
    assert decoded == expected[:-1]


@pytest.mark.parametrize("seed", [1, 9])
def test_verify_all_equals_the_single_suites(capsys, seed):
    # verify --rng-seed is accepted and ignored, so under any seed the
    # command's "all" report is the single suites' reports in turn
    assert main(["verify", "--suite", "all", "--nmax", "7", "--rng-seed", str(seed)]) == 0
    both = json.loads(capsys.readouterr().out)
    singles = [
        check
        for name in ("theorem1", "lemma2", "lemma5", "perturb", "glue", "split")
        for check in verify_suite(name, nmax=7)["checks"]
    ]
    assert both["checks"] == round_floats(singles)


def test_verify_all_equals_the_single_suites_at_each_nmax():
    for nmax in range(2, 9):
        both = verify_suite("all", nmax=nmax)
        singles = [
            check
            for name in ("theorem1", "lemma2", "lemma5", "perturb", "glue", "split")
            for check in verify_suite(name, nmax=nmax)["checks"]
        ]
        assert both["checks"] == singles, nmax
        assert all(check["checked"] > 0 for check in singles), nmax


def test_verify_stream_ranks_as_min_alpha_tree():
    from fiedlertrees.search import _alpha_band, _stream

    # theorem1 ranks the pairs the stream solved once per free tree
    for case in _stream(8):
        assert _alpha_band(case.free) == min_alpha_tree(case.seq).minimizers


def test_verify_stream_sides_are_dirichlet_nu_of_each_split_side():
    from fiedlertrees.search import _stream

    # the split sides' nus the layer queued, read by split and glue, are
    # those dirichlet_nu gives each side alone, bit for bit
    checked = 0
    for case in _stream(8):
        for i, (_, _, split) in enumerate(case.splits):
            assert case.sides[i] == (dirichlet_nu(split.pos)[0], dirichlet_nu(split.neg)[0])
            checked += 1
    assert checked == sum([1, 1, 2, 3, 6, 11, 23])  # A000055, n = 2..8


def test_verify_stream_ranks_as_min_nu_rooted():
    from fiedlertrees.search import _LEMMA5_WEIGHTS, _nu_band, _stream

    # lemma5 ranks each weight's instances from the stream's branch table,
    # which holds all three weights, and min-rooted from its own at one
    for case in _stream(8):
        for w0 in _LEMMA5_WEIGHTS:
            instances = case.lemma5[w0]
            argmin = sorted((instances[k][2] for k in _nu_band(case, w0)[2]), key=str)
            codes = [m["code"] for m in min_nu_rooted(case.seq, w0).minimizers]
            assert codes == [key if isinstance(key, str) else list(key) for key in argmin]


def test_min_alpha_tree_takes_the_tree_solver_from_its_order(monkeypatch):
    import fiedlertrees.spectral as spectral
    from fiedlertrees.spectral import TREE_SOLVER_ORDER

    orders, trees = [], []
    real_stack, real_tree = spectral._eig_stack, spectral._tree_pair

    def recorded(ms, k):
        orders.extend(map(len, ms))
        return real_stack(ms, k)

    def tree_solver(t, root, verts):
        trees.append(len(verts))
        return real_tree(t, root, verts)

    monkeypatch.setattr(spectral, "_eig_stack", recorded)
    monkeypatch.setattr(spectral, "_tree_pair", tree_solver)
    # the star on 301 vertices, whose alpha 1 has multiplicity 299: a dense
    # solve gives alpha 0.9999999999999956 and another Fiedler vector
    doc = min_alpha_tree((300,) + (1,) * 300).to_json()
    assert TREE_SOLVER_ORDER <= 301
    assert orders == [] and trees == [301]
    del doc["elapsed"]
    assert doc == {
        "sequence": [300] + [1] * 300,
        "min_value": 0.9999999999999999,
        "instance_count": 1,
        "minimizers": [
            {
                "code": "(" + "()" * 300 + ")",
                "alpha": 0.9999999999999999,
                "edges": [[0, v] for v in range(1, 301)],
                "is_caterpillar": True,
                "is_theorem1_shape": True,
            }
        ],
        "all_caterpillars": True,
        "all_theorem1_shape": True,
    }


def test_enumerate_rooted_trees_with_codes_matches_enumeration():
    def flat(rbts):
        return [(r.root, r.boundary_neighbor, r.tree.edges) for r in rbts]

    for n in range(2, 9):
        for seq in all_tree_sequences(n):
            codes = sorted(canonical_tree_codes(seq), reverse=True)
            got = flat(enumerate_rooted_trees(seq, codes=codes))
            assert got == flat(enumerate_rooted_trees(seq))


def test_verify_stream_counts_match_tree_counts():
    # OEIS A000055 (free trees) and A000081 (rooted trees) for n = 2..9
    free = [1, 1, 2, 3, 6, 11, 23, 47]
    rooted = [1, 2, 4, 9, 20, 48, 115, 286]
    sequences = sum(1 for n in range(2, 10) for _ in all_tree_sequences(n))
    checks = {c["suite"]: c for c in verify_suite("all", nmax=9)["checks"]}
    assert checks["theorem1"]["checked"] == sequences  # no ties at n <= 9
    assert checks["lemma2"]["checked"] == sum(rooted)
    assert checks["lemma5"]["checked"] == 3 * sequences
    assert checks["split"]["checked"] == sum(free)
    # a rooted tree on n vertices whose root has one child is a rooted
    # tree on n - 1 vertices below it, so the roots with two or more
    # children number A000081(n) - A000081(n - 1), which telescopes
    cases = checks["glue"]["cases"]
    assert cases["unit"] == rooted[-1] - 1
    assert checks["glue"]["checked"] == sum(cases.values())


def test_verify_perturb_counts_every_move():
    # every legal P1 move and every P2 move on the 141 rooted trees with
    # n <= 8 that are caterpillars rooted at a pendant or a spine end
    (check,) = verify_suite("perturb", nmax=8)["checks"]
    assert check["moves"] == {"P1": 691, "P2": 498}
    assert check["checked"] == 691 + 498
    assert check["min_relative_gap"] == pytest.approx(1.2e-2, rel=0.05)


def _greedy_tree_code(seq) -> str:
    """canonical_code of the greedy tree of seq: the BFS tree whose
    degrees do not increase in BFS order.  Vertex i has the i-th largest
    degree, and each vertex takes the next unused ids as its children."""
    degrees = sorted(seq, reverse=True)
    edges, nxt = [], 1
    for v, d in enumerate(degrees):
        children = d - (v > 0)
        edges += [(v, c) for c in range(nxt, nxt + children)]
        nxt += children
    return canonical_code(Tree(len(degrees), edges))


def _spectral_radii(code: str) -> tuple[float, float]:
    """Largest adjacency and Laplacian eigenvalues of tree_from_code(code),
    by numpy from its edge list."""
    t = tree_from_code(code)
    adjacency = np.zeros((t.n, t.n))
    for u, v, _ in t.edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    return np.linalg.eigvalsh(adjacency)[-1], np.linalg.eigvalsh(laplacian)[-1]


@pytest.mark.parametrize("radius", [0, 1], ids=["adjacency", "laplacian"])
def test_greedy_tree_alone_maximizes_the_spectral_radius(radius):
    # a known answer for enumerate-rank-argmin that does not come from the
    # paper under test: the greedy tree is the unique maximizer of the
    # adjacency (Biyikoglu and Leydold, Electron. J. Combin. 15 (2008)
    # R119) and the Laplacian spectral radius (Biyikoglu, Hellmuth and
    # Leydold, Electron. J. Linear Algebra 18 (2009)) among the trees of a
    # degree sequence
    checked = 0
    for n in range(3, 11):
        for seq in all_tree_sequences(n):
            codes = sorted(canonical_tree_codes(seq))
            tied = _argmin([-_spectral_radii(code)[radius] for code in codes])[1]
            assert [codes[i] for i in tied] == [_greedy_tree_code(seq)], seq
            checked += 1
    assert checked == 66
