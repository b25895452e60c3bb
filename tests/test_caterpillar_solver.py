"""The batched caterpillar solver behind min-cat and explore, against dense
numpy eigensolves and the per-tree analysis of build_caterpillar."""

import itertools
import json
import random
import sys

import numpy as np
import pytest

from fiedlertrees import (
    AmbiguousCharacteristicSet,
    Tree,
    algebraic_connectivity,
    analyze,
    build_caterpillar,
    canonical_code,
    geometric_split,
    is_theorem1_shape,
    laplacian,
    min_alpha_caterpillar,
    spine_arrangements,
)
from fiedlertrees.nodal import _caterpillar_charsets, characteristic_set
from fiedlertrees.search import TIE_RTOL, explore_partitions, partition_rows_to_csv
from fiedlertrees.spectral import RESIDUAL_FACTOR, _caterpillar_fiedler, _fix_sign


def _sequence(interior):
    return tuple(sorted(list(interior) + [1] * (sum(d - 2 for d in interior) + 2), reverse=True))


# every interior of 2 to 6 spine degrees drawn from 2..5
INTERIORS = [
    interior
    for k in range(2, 7)
    for interior in itertools.combinations_with_replacement((2, 3, 4, 5), k)
]


def _full_vector(arr, g, h):
    """The vector in build_caterpillar's layout: spine, then the pendants
    grouped by spine position."""
    counts = [d - 2 for d in arr]
    counts[0] += 1
    counts[-1] += 1
    return np.concatenate([g] + [np.full(c, x) for c, x in zip(counts, h)])


def _spines():
    rng = random.Random(10)
    spines = [(2, 3), (2, 2), *spine_arrangements((5, 2, 2, 5))]
    # palindromes with an odd number of spine vertices
    for half in [(2,), (3,), (2, 5), (4, 2), (3, 3, 2), (5, 2, 4, 3)]:
        for middle in (2, 3, 6):
            spines.append(half + (middle,) + half[::-1])
    # 1,000 of the 9! orders of 2..10
    spines.append((2, 3, 4, 5, 6, 7, 8, 9, 10))
    spines += [tuple(rng.sample(range(2, 11), 9)) for _ in range(1000)]
    return spines


SPINES = _spines()


def test_alphas_match_a_dense_eigvalsh_stack():
    for interior in sorted({tuple(sorted(s)) for s in SPINES}):
        spines = [s for s in SPINES if tuple(sorted(s)) == interior]
        n = build_caterpillar(interior).n
        laps = np.array([laplacian(build_caterpillar(s)) for s in spines])
        dense = np.linalg.eigvalsh(laps)[:, 1]
        alpha = _caterpillar_fiedler(np.array(spines))[0]
        for s, lap, a, ref in zip(spines, laps, alpha, dense):
            tol = np.abs(lap).sum(axis=0).max() * n * sys.float_info.epsilon
            assert abs(a - ref) <= tol, s


def test_every_row_passes_the_certificate_and_the_sign_rule():
    vertex_rows = 0
    for m in sorted({len(s) for s in SPINES}):
        spines = [s for s in SPINES if len(s) == m]
        alpha, g, h = _caterpillar_fiedler(np.array(spines))
        for s, a, gi, hi in zip(spines, alpha, g, h):
            lap = laplacian(build_caterpillar(s))
            f = _full_vector(s, gi, hi)
            bound = RESIDUAL_FACTOR * (1.0 + np.abs(lap).sum(axis=1).max())
            assert np.linalg.norm(lap @ f - a * f) <= bound
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-14)
            assert np.array_equal(_fix_sign(f), f)
            if s == s[::-1] and m % 2:
                # the mirror image negates a simple Fiedler vector, so it
                # vanishes at the middle spine vertex
                assert abs(gi[m // 2]) <= 1e-12
                vertex_rows += 1
    assert vertex_rows == 18


def test_charsets_match_characteristic_set_on_sign_patterns():
    # spine entries in {-1, 0, 1} times a random size, with large entries
    # of both signs as in a Fiedler vector and pendants 1.5 times their spine
    # vertex; tau is 1.5e-7 once the largest spine entry is 1, so sizes
    # 1.2e-7 (a zero spine vertex with nonzero pendants) and 2e-7 sit
    # around it
    rng = np.random.default_rng(11)
    kinds = set()
    for m in range(2, 8):
        spines = rng.integers(2, 5, size=(300, m))
        sizes = rng.choice([1.2e-7, 2e-7, 0.5, 1.0], p=[0.15, 0.15, 0.2, 0.5], size=(300, m))
        g = rng.integers(-1, 2, size=(300, m)) * sizes
        keep = (g >= 0.5).any(axis=1) & (g <= -0.5).any(axis=1)
        g, spines = g[keep], spines[keep]
        g /= np.abs(g).max(axis=1, keepdims=True)
        pendants = spines - 2
        pendants[:, [0, -1]] += 1
        h = np.where(pendants > 0, 1.5 * g, 0.0)
        for arr, gi, hi in zip(spines.tolist(), g, h):
            tree = build_caterpillar(arr)
            try:
                expected = characteristic_set(tree, _full_vector(arr, gi, hi))
            except AmbiguousCharacteristicSet:
                with pytest.raises(AmbiguousCharacteristicSet):
                    _caterpillar_charsets(gi[None], hi[None])
                kinds.add("ambiguous")
            else:
                assert _caterpillar_charsets(gi[None], hi[None]) == [expected]
                kinds.add(expected.kind)
    assert kinds == {"edge", "vertex", "ambiguous"}


def test_explore_solves_no_tree(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("dense solve or Tree built")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(Tree, "__init__", refuse)
    rows = explore_partitions(_sequence((2, 3, 4, 5, 6, 7, 8)))
    assert len(rows) == 2520


def _min_cat_by_tree(seq):
    """min_alpha_caterpillar's report, one Tree and one dense solve per
    arrangement."""
    values = []
    for arr in spine_arrangements([d for d in seq if d >= 2]):
        tree = build_caterpillar(arr)
        values.append((arr, tree, algebraic_connectivity(tree)[0]))
    minimum = min(v for _, _, v in values)
    minimizers = sorted(
        (
            {
                "code": canonical_code(tree),
                "alpha": value,
                "arrangement": list(arr),
                "edges": [[u, v] for u, v, _ in tree.edges],
                "is_caterpillar": True,
                "is_theorem1_shape": is_theorem1_shape(tree, analyze(tree)),
            }
            for arr, tree, value in values
            if value <= minimum + TIE_RTOL * abs(minimum)
        ),
        key=lambda m: m["code"],
    )
    return {
        "sequence": list(seq),
        "min_value": minimum,
        "instance_count": len(values),
        "minimizers": minimizers,
        "all_caterpillars": True,
        "all_theorem1_shape": all(m["is_theorem1_shape"] for m in minimizers),
    }


def test_min_cat_report_equals_the_per_tree_search():
    for interior in INTERIORS:
        seq = _sequence(interior)
        got = min_alpha_caterpillar(seq).to_json()
        del got["elapsed"]
        assert json.dumps(got) == json.dumps(_min_cat_by_tree(seq)), interior


def _sides_by_split(tree, analysis):
    """Spine degrees of the positive and the negative side of the
    geometric split, by distance from the side root."""
    split = geometric_split(tree, analysis)
    out = []
    for side, origin in ((split.pos, split.origin_pos), (split.neg, split.origin_neg)):
        depth = {v: 0 for v in range(side.tree.n)}
        order, parent = side.tree.bfs(side.root)
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        spine = sorted((depth[v], origin[v]) for v in order[1:] if tree.degree(origin[v]) >= 2)
        out.append(tuple(tree.degree(v) for _, v in spine))
    return tuple(out)


def test_explore_rows_match_the_per_tree_analysis():
    for interior in INTERIORS:
        for row in explore_partitions(_sequence(interior)):
            tree = build_caterpillar(row.arrangement)
            analysis = analyze(tree)
            assert row.alpha == pytest.approx(analysis.alpha, rel=1e-12)
            assert row.charset_kind == analysis.charset.kind
            assert row.charset_pos == "|".join(map(str, sorted(analysis.charset.ids)))
            sides = (row.left_degrees, row.right_degrees)
            expected = _sides_by_split(tree, analysis)
            if sides != expected:
                # _fix_sign picks the sign of the largest entry; a tie of the
                # largest positive and negative entries leaves it to rounding
                f = analysis.fiedler
                assert sides == expected[::-1]
                assert f.max() == pytest.approx(-f.min(), rel=1e-12)


def test_explore_orders_equal_printed_alphas_by_arrangement():
    rows = explore_partitions(_sequence((2, 2, 2, 3, 3, 3, 4, 4, 4)))
    lines = partition_rows_to_csv(rows).strip().split("\n")[1:]
    keys = [(float(line.split(",")[2]), rows[i].arrangement) for i, line in enumerate(lines)]
    assert keys == sorted(keys)
    tied = [r.arrangement for r in rows if f"{r.alpha:.12g}" == "0.0474364596937"]
    assert tied == [
        (3, 2, 3, 4, 2, 4, 2, 3, 4),
        (3, 2, 4, 3, 2, 4, 2, 4, 3),
        (3, 3, 2, 4, 2, 4, 3, 2, 4),
    ]


@pytest.mark.parametrize(
    "interior,alpha,kind,pos",
    [((), 2.0, "edge", "0|1"), ((2,), 1.0, "vertex", "0"), ((5,), 1.0, "vertex", "0")],
)
def test_explore_single_edge_and_star(interior, alpha, kind, pos):
    (row,) = explore_partitions(_sequence(interior))
    tree = build_caterpillar(interior)
    analysis = analyze(tree)
    assert analysis.alpha == pytest.approx(alpha, rel=1e-14)
    assert (kind, pos) == (analysis.charset.kind, "|".join(map(str, sorted(analysis.charset.ids))))
    assert (row.alpha, row.charset_kind, row.charset_pos) == (alpha, kind, pos)
    assert (row.left_degrees, row.right_degrees) == ((), ())
