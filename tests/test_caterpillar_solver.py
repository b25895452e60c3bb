"""The batched caterpillar solver behind min-cat and explore, against dense
numpy eigensolves and the per-tree analysis of build_caterpillar."""

import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter

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
    search,
    spine_arrangements,
)
from fiedlertrees.nodal import _caterpillar_charsets, characteristic_set
from fiedlertrees.search import TIE_RTOL, explore_partitions, partition_rows_to_csv
from fiedlertrees.spectral import (
    RESIDUAL_FACTOR,
    _caterpillar_alpha,
    _caterpillar_fiedler,
    _fix_sign,
)

from helpers import partition_csv_by_row, spine_arrangements_by_walk


def _sequence(interior):
    return tuple(sorted(list(interior) + [1] * (sum(d - 2 for d in interior) + 2), reverse=True))


# every interior of 2 to 6 spine degrees drawn from 2..5
INTERIORS = [
    interior
    for k in range(2, 7)
    for interior in itertools.combinations_with_replacement((2, 3, 4, 5), k)
]

#: the perfbench caterpillar workload's interiors
WORKLOAD_INTERIORS = [
    (2, 2, 3, 3, 4, 4, 5),
    (2, 3, 4, 5, 6, 7, 8),
    (2, 2, 3, 3, 4, 4, 5, 5),
    (2, 2, 2, 3, 3, 3, 4, 4, 4),
]

#: n = 18: spines (4,3,3,2,2,2,7) and (4,3,2,2,2,3,7) are 1.7e-5 relative
#: apart, the closest minimizer and runner-up found at n <= 18
NEAR_TIE = (7, 4, 3, 3, 2, 2, 2)

#: the tie-band sizes of WORKLOAD_INTERIORS and NEAR_TIE at TIE_RTOL 5e-2
WIDE_BANDS = [12, 47, 19, 19, 7]


def _full_vector(arr, g, h):
    """The vector in build_caterpillar's layout: spine, then the pendants
    grouped by spine position."""
    counts = [d - 2 for d in arr]
    counts[0] += 1
    counts[-1] += 1
    return np.concatenate([g] + [np.full(c, x) for c, x in zip(counts, h)])


def _closed_form_count(interior):
    """(permutations + palindromes) / 2: a reversal pairs each permutation
    with another but fixes a palindrome.  A palindrome puts half of each
    multiplicity on each side of the middle, so there is none when two or
    more degrees occur an odd number of times."""
    counts = Counter(interior).values()
    perms = math.factorial(len(interior)) // math.prod(map(math.factorial, counts))
    palindromes = 0
    if sum(c % 2 for c in counts) <= 1:
        palindromes = math.factorial(len(interior) // 2) // math.prod(
            math.factorial(c // 2) for c in counts
        )
    return (perms + palindromes) // 2


def test_spine_array_equals_the_tuple_walk():
    # the single edge, stars, and every interior the searches are tested on
    for interior in [(), (2,), (5,), *INTERIORS, *WORKLOAD_INTERIORS, NEAR_TIE]:
        walk = spine_arrangements_by_walk(interior)
        spines = search._spines(interior)
        assert spines.tolist() == [list(arr) for arr in walk], interior
        assert spine_arrangements(interior) == walk, interior
        assert spines.dtype == np.uint8
    assert search._spines(()).shape == (1, 0)
    # the smallest dtype that holds the largest degree
    assert search._spines((300, 2, 2)).dtype == np.uint16
    assert search._spines((300, 2, 2)).tolist() == [[2, 2, 300], [2, 300, 2]]


def test_spine_array_counts_match_the_closed_form():
    for interior in INTERIORS + [tuple(range(2, top + 1)) for top in range(2, 11)]:
        assert len(search._spines(interior)) == _closed_form_count(interior), interior
    assert _closed_form_count(range(2, 11)) == 181_440


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
        clear, expected = [], []
        for row, (arr, gi, hi) in enumerate(zip(spines.tolist(), g, h)):
            tree = build_caterpillar(arr)
            try:
                cs = characteristic_set(tree, _full_vector(arr, gi, hi))
            except AmbiguousCharacteristicSet:
                with pytest.raises(AmbiguousCharacteristicSet):
                    _caterpillar_charsets(gi[None], hi[None])
                kinds.add("ambiguous")
            else:
                clear.append(row)
                expected.append((cs.kind, tuple(sorted(cs.ids))))
                kinds.add(cs.kind)
        # the rows with one characteristic set, all in one call
        edge, first = _caterpillar_charsets(g[clear], h[clear])
        got = [
            ("edge", (z, z + 1)) if e else ("vertex", (z,))
            for e, z in zip(edge.tolist(), first.tolist())
        ]
        assert got == expected
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


def test_explore_csv_equals_the_rows_written_one_by_one():
    for interior in [(), (2,), (5,), *INTERIORS, (2, 2, 10, 10, 3), (12, 2, 11, 3)]:
        rows = explore_partitions(_sequence(interior))
        assert partition_rows_to_csv(rows) == partition_csv_by_row(rows), interior
    with pytest.raises(TypeError, match="expected the rows of explore_partitions, got list"):
        partition_rows_to_csv(list(rows))


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


def _band_slack(seq):
    """min_alpha_caterpillar's widening of the tie band."""
    return 3.0 * 2.0 * (2 * seq[0]) * len(seq) * sys.float_info.epsilon


def _band_stop_check(interior, rtol):
    """The size of the unstopped bisection's tie band, after checking that
    the band stop's survivors hold every row of it, and that each survivor,
    bracketed to rtol relative with lo at most the bound at the least hi,
    has its unstopped value within the bound that rule gives."""
    seq = _sequence(interior)
    spines = np.array(spine_arrangements(interior))
    slack = _band_slack(seq)
    full = _caterpillar_alpha(spines)
    survivors = _caterpillar_alpha(spines, (rtol, slack))
    least = full.min()
    band = np.flatnonzero(full <= least + rtol * least + slack)
    assert np.isin(band, survivors).all(), interior
    assert np.array_equal(survivors, np.unique(survivors)), interior
    # min(hi) <= least / (1 - rtol), and a survivor's hi <= lo / (1 - rtol)
    top = (least * (1 + rtol) / (1 - rtol) + slack) / (1 - rtol)
    assert (full[survivors] <= top).all(), interior
    return len(band)


def test_band_stop_changes_no_band():
    for interior in WORKLOAD_INTERIORS + [NEAR_TIE] + INTERIORS:
        _band_stop_check(interior, TIE_RTOL)
    # a wide band holds arrangements that a stop below (1 + rtol) min(hi)
    # + slack, or at the least lo, would cut off before they converge
    sizes = [_band_stop_check(i, 5e-2) for i in WORKLOAD_INTERIORS + [NEAR_TIE]]
    assert sizes == WIDE_BANDS


def test_min_cat_band_stop_changes_no_report(monkeypatch):
    calls = []

    def without_stop(spines, band):
        """The rows that the unstopped bisection puts in the band."""
        calls.append(len(spines))
        rtol, slack = band
        full = _caterpillar_alpha(spines)
        least = full.min()
        return np.flatnonzero(full <= least + rtol * least + slack)

    # the n = 18 near tie: one minimizer, the runner-up 1.7e-5 above it
    report = min_alpha_caterpillar(_sequence(NEAR_TIE))
    assert [m["arrangement"] for m in report.minimizers] == [[4, 3, 3, 2, 2, 2, 7]]
    assert f"{report.min_value:.12g}" == "0.050435039537"
    runner_up = algebraic_connectivity(build_caterpillar((4, 3, 2, 2, 2, 3, 7)))[0]
    assert 1.6e-5 < runner_up / report.min_value - 1 < 1.8e-5
    for rtol, sizes in ((TIE_RTOL, [1] * 5), (5e-2, WIDE_BANDS)):
        monkeypatch.setattr(search, "TIE_RTOL", rtol)
        for interior, size in zip(WORKLOAD_INTERIORS + [NEAR_TIE], sizes):
            seq = _sequence(interior)
            stopped = min_alpha_caterpillar(seq).to_json()
            with monkeypatch.context() as m:
                # the band stop min_alpha_caterpillar calls; a search that
                # stopped calling it would fail the count below
                m.setattr(search, "_caterpillar_alpha", without_stop)
                del calls[:]
                full = min_alpha_caterpillar(seq).to_json()
                assert calls == [len(spine_arrangements(interior))], interior
            del stopped["elapsed"], full["elapsed"]
            assert stopped == full, interior
            assert len(stopped["minimizers"]) == size, interior


#: sha256 of partition_rows_to_csv(explore_partitions(seq))
EXPLORE_SHA256 = {
    (2, 2, 3, 3, 4, 4, 5): "77f222f4429a5de60adb25bf0bc63a94d632c26e5ca4096d977b870e7070c632",
    (2, 3, 4, 5, 6, 7, 8): "513122eeb8be29488b3257bc51de8a56dfefc0bfd657af91fafc28d3154f2843",
    (2, 2, 3, 3, 4, 4, 5, 5): "fe3ec26adb569ee3e4a64120601a597d3d4427cf6f719f83a0cf16c9e3caf2e8",
    (2, 2, 2, 3, 3, 3, 4, 4, 4): "df7e5753d46c096c72c3c885e78876f5998a17037cea807410f62f1e8475efa6",
    (2, 3, 4, 5, 6, 7, 8, 9): "2bb751b279547b46a3b9352691de3a0bcd1ffb1c753d4991c8e4b1a11c3d698e",
}


@pytest.mark.parametrize("interior", list(EXPLORE_SHA256))
def test_explore_csv_is_byte_identical(interior):
    """The digests were computed before any change to the solver's layout
    or the row building, from the code that bisected a (k, m) array over
    every column and sorted the rows by (printed alpha, arrangement)
    tuples.  The CSV comes from elementwise IEEE arithmetic and Python
    formatting only, so no platform moves it."""
    csv = partition_rows_to_csv(explore_partitions(_sequence(interior)))
    assert hashlib.sha256(csv.encode()).hexdigest() == EXPLORE_SHA256[interior]
