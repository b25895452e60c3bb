"""Prufer machinery, canonical codes, and unlabeled tree enumeration."""

import itertools
import math
import random
import re

import networkx as nx
import pytest

from fiedlertrees import (
    Tree,
    build_caterpillar,
    canonical_code,
    degree_sequence,
    enumerate_rooted_trees,
    enumerate_trees,
    is_caterpillar,
    min_alpha_tree,
    min_nu_rooted,
    path_tree,
    prufer_decode,
    rooted_code,
    skeleton_word_count,
    star_tree,
    tree_from_code,
)
import fiedlertrees.enumeration as enumeration
from fiedlertrees.enumeration import (
    _exponent_vectors,
    _multiset_permutations,
    _permutation_count,
    canonical_tree_codes,
)
from fiedlertrees.search import (
    CAP,
    EnumerationCapExceeded,
    _instances,
    _rooted_trees,
    all_tree_sequences,
)

from helpers import (
    brute_force_isomorphic,
    rooted_placement_keys,
    spider,
    subtree_code,
    unlabeled_count_by_brute_force,
)


def test_prufer_decode_known_words():
    assert prufer_decode([], 2) == path_tree(2)
    # word (0, 0) is the star with center 0
    assert prufer_decode([0, 0], 4) == star_tree(4)


def test_prufer_decode_rejects_bad_words():
    with pytest.raises(ValueError, match=re.escape("word length 1 != n - 2 = 2")):
        prufer_decode([0], 4)
    for word in ([0, 4], [9, 0], [-1, 2], [3, -4]):
        with pytest.raises(ValueError, match=re.escape("word entries must lie in 0 .. 3")):
            prufer_decode(word, 4)


def test_decoded_trees_equal_validated_trees():
    # decoding skips Tree.__init__'s checks, so its trees must be
    # indistinguishable from validated trees on the networkx decoding
    words = [
        (list(w), n) for n in range(2, 8) for w in itertools.product(range(n), repeat=n - 2)
    ]
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 200)
        words.append(([rng.randrange(n) for _ in range(n - 2)], n))
    for word, n in words:
        t = prufer_decode(word, n)
        g = nx.from_prufer_sequence(word) if word else nx.path_graph(2)
        ref = Tree(n, list(g.edges()))
        assert t == ref and hash(t) == hash(ref)
        assert t.edges == ref.edges and repr(t) == repr(ref)
        assert t.degrees() == ref.degrees()
        assert all(t.neighbors(v) == ref.neighbors(v) for v in range(n))


def test_skeleton_word_count_examples():
    assert skeleton_word_count((1, 1)) == 1
    assert skeleton_word_count((3, 1, 1, 1)) == 1
    assert skeleton_word_count((2, 2, 1, 1)) == 1
    # skeleton degrees (3, 1, 1, 1), (2, 2, 1, 1) and (1, 2, 2, 1): 1 + 2 + 2
    assert skeleton_word_count((3, 2, 2, 2, 1, 1, 1)) == 5
    assert skeleton_word_count((4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1)) == 224
    assert skeleton_word_count((3, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1)) == 114
    # a path's skeleton is the path on n - 2 vertices
    assert skeleton_word_count((2,) * 13 + (1, 1)) == math.factorial(11)
    with pytest.raises(ValueError):
        skeleton_word_count((2, 2, 2))


def test_exponent_vectors_match_brute_force():
    # every vector of the product space that meets the bounds, the sum and
    # the order within each run of equal degrees, in decreasing order
    for inner in [(2, 2), (3, 2, 2, 2), (4, 3, 3, 2, 2, 2), (5, 4, 4, 3, 2, 2), (3,) * 6, (6, 2)]:
        k = len(inner)
        expected = [
            e
            for e in itertools.product(*(range(d) for d in inner))
            if sum(e) == k - 2
            and all(e[i] >= e[i + 1] for i in range(k - 1) if inner[i] == inner[i + 1])
        ]
        expected.sort(reverse=True)
        assert list(_exponent_vectors(inner)) == expected


def test_multiset_permutations_cover_all_words_once():
    for seq in [(2, 2, 1, 1), (3, 2, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1, 1)]:
        seq_desc = tuple(sorted(seq, reverse=True))
        word = [i for i, d in enumerate(seq_desc) for _ in range(d - 1)]
        words = list(_multiset_permutations(word))
        assert len(set(words)) == len(words) == _permutation_count(d - 1 for d in seq)
        assert words == sorted(words)
        # every word realizes the fixed degree assignment
        for w in words:
            t = prufer_decode(list(w), len(seq))
            assert t.degrees() == seq_desc
    assert list(_multiset_permutations([])) == [()]


def test_labeled_decode_count_matches_formula():
    # the number of words with vertex i appearing d_i - 1 times is
    # (n-2)! / prod (d_i - 1)!
    for n in range(2, 10):
        for seq in all_tree_sequences(n):
            counts = {i: d - 1 for i, d in enumerate(seq) if d >= 2}
            words = set(
                itertools.permutations(
                    [s for s, c in counts.items() for _ in range(c)]
                )
            )
            count = _permutation_count(d - 1 for d in seq)
            assert len(words) == count
            expected = math.factorial(n - 2)
            for d in seq:
                expected //= math.factorial(d - 1)
            assert count == expected


def test_canonical_code_on_relabelings():
    p = path_tree(4)
    q = Tree(4, [(2, 0), (0, 3), (3, 1)])  # the 4-path labeled 2-0-3-1
    assert canonical_code(p) == canonical_code(q)
    assert canonical_code(p) != canonical_code(star_tree(4))
    assert canonical_code(spider(2, 2, 2)) != canonical_code(
        tree_from_code(canonical_code(path_tree(7)))
    )


def test_canonical_code_matches_brute_force_isomorphism():
    rng = random.Random(5)
    pool = []
    for n in range(4, 8):
        for seq in all_tree_sequences(n):
            pool.extend(enumerate_trees(seq))
    pool8 = []
    for seq in all_tree_sequences(8):
        pool8.extend(enumerate_trees(seq))

    def check(a, b):
        # relabel b randomly so codes cannot rely on labels
        perm = list(range(b.n))
        rng.shuffle(perm)
        b2 = Tree(b.n, [(perm[u], perm[v], w) for u, v, w in b.edges])
        assert (canonical_code(a) == canonical_code(b2)) == brute_force_isomorphic(
            a, b2
        )
        assert canonical_code(b) == canonical_code(b2)

    for _ in range(150):
        check(*rng.sample(pool, 2))
    for _ in range(10):
        check(*rng.sample(pool8, 2))
    # a positive n = 8 pair: identical trees relabeled
    check(pool8[0], pool8[0])


def test_code_round_trip():
    for n in range(2, 9):
        for seq in all_tree_sequences(n):
            for code in sorted(canonical_tree_codes(seq)):
                t = tree_from_code(code)
                assert rooted_code(t, 0) == code
                assert canonical_code(t) == code


def test_codes_reject_weighted_trees():
    with pytest.raises(ValueError):
        canonical_code(Tree(2, [(0, 1, 2.0)]))


def test_codes_of_deep_trees_round_trip():
    # rooted at an end, both trees are far deeper than the default
    # recursion limit of 1,000 frames
    for t in (path_tree(3000), build_caterpillar([3] * 1499)):
        assert t.n == 3000
        code = canonical_code(t)
        back = tree_from_code(code)
        assert back.n == t.n
        assert canonical_code(back) == code
        rcode = rooted_code(t, 0)
        assert rooted_code(tree_from_code(rcode), 0) == rcode


def test_tree_from_code_rejects_malformed():
    for bad, message in [
        ("", "malformed code at position 0"),
        (")", "malformed code at position 0"),
        ("(()", "malformed code at position 3"),
        ("(x)", "malformed code at position 1"),
        ("()()", "trailing characters after code"),
        ("())", "trailing characters after code"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            tree_from_code(bad)


def test_enumerate_trees_examples():
    only = list(enumerate_trees((2, 2, 1, 1)))
    assert len(only) == 1
    assert brute_force_isomorphic(only[0], path_tree(4))

    assert len(list(enumerate_trees((3, 1, 1, 1)))) == 1

    trees = list(enumerate_trees((3, 2, 2, 2, 1, 1, 1)))
    assert len(trees) == 3
    cats = [t for t in trees if is_caterpillar(t)]
    assert len(cats) == 2
    non_cat = next(t for t in trees if not is_caterpillar(t))
    assert brute_force_isomorphic(non_cat, spider(2, 2, 2))


def test_enumerate_trees_counts_match_brute_force():
    # independent oracle: decode every labeled word, dedupe by bijection search
    for n in range(2, 7):
        oracle = unlabeled_count_by_brute_force(n)
        for seq in all_tree_sequences(n):
            assert len(list(enumerate_trees(seq))) == oracle[seq]


def test_canonical_tree_codes_match_networkx():
    # independent oracle beyond brute-force reach: the WROM free-tree
    # generator, grouped by degree multiset
    for n in range(2, 13):
        oracle: dict[tuple[int, ...], set[str]] = {}
        for g in nx.nonisomorphic_trees(n):
            t = Tree(n, list(g.edges()))
            oracle.setdefault(degree_sequence(t), set()).add(canonical_code(t))
        assert set(oracle) == set(all_tree_sequences(n))
        for seq, codes in oracle.items():
            assert canonical_tree_codes(seq) == codes


def test_decoded_words_match_skeleton_word_count(monkeypatch):
    calls = []
    real = enumeration.prufer_decode

    def counted(word, n):
        calls.append(n)
        return real(word, n)

    monkeypatch.setattr(enumeration, "prufer_decode", counted)
    for n in range(2, 11):
        for seq in all_tree_sequences(n):
            calls.clear()
            trees = len(canonical_tree_codes(seq))
            assert len(calls) == skeleton_word_count(seq) >= trees


def test_over_cap_sequences_raise_before_decoding(monkeypatch):
    def never(word, n):
        raise AssertionError("decoded a word of an over-cap sequence")

    monkeypatch.setattr(enumeration, "prufer_decode", never)
    with pytest.raises(EnumerationCapExceeded, match="39916800 skeleton words exceed the cap"):
        min_alpha_tree((2,) * 13 + (1, 1))
    # spine degrees 2..13 (n = 80): the count stops at its first partial
    # sum over the cap instead of walking all 46,683,899,639 words
    with pytest.raises(EnumerationCapExceeded) as caught:
        min_alpha_tree(tuple(range(13, 1, -1)) + (1,) * 68)
    reported = int(str(caught.value).split()[0])
    assert CAP < reported < 46_683_899_639


def test_enumerate_trees_yields_distinct_correct_trees():
    for seq in [(3, 2, 2, 2, 1, 1, 1), (3, 3, 2, 2, 1, 1, 1, 1), (2,) * 6 + (1, 1)]:
        trees = list(enumerate_trees(seq))
        for t in trees:
            assert degree_sequence(t) == tuple(sorted(seq, reverse=True))
        codes = [canonical_code(t) for t in trees]
        assert len(set(codes)) == len(trees)
        assert codes == sorted(codes)


def test_enumerate_trees_rejects_invalid():
    with pytest.raises(ValueError):
        list(enumerate_trees((2, 2, 2)))


def test_enumerate_rooted_trees_examples():
    assert len(list(enumerate_rooted_trees((2, 1, 1)))) == 2
    assert len(list(enumerate_rooted_trees((3, 1, 1, 1)))) == 2
    assert len(list(enumerate_rooted_trees((2, 2, 1, 1)))) == 2


def test_enumerate_rooted_trees_oracle_root_sweep():
    # full root sweep + rooted code dedupe, done directly
    for seq in [(2, 2, 1, 1), (3, 2, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1, 1)]:
        expected = set()
        for t in enumerate_trees(seq):
            for root in range(t.n):
                expected.add(rooted_code(t, root))
        got = list(enumerate_rooted_trees(seq))
        assert len(got) == len(expected)
        for rbt in got:
            assert rooted_code(rbt.tree, rbt.root) in expected


@pytest.mark.parametrize("w0", [1.5, 3.0])
def test_weighted_rooted_trees_match_the_placement_oracle(w0):
    # every placement of the weighted root edge on networkx's free trees
    oracle: dict[tuple[int, ...], set] = {}
    for n in range(2, 9):
        for g in nx.nonisomorphic_trees(n):
            t = Tree(n, g.edges())
            oracle.setdefault(degree_sequence(t), set()).update(rooted_placement_keys(t))
    assert set(oracle) == {seq for n in range(2, 9) for seq in all_tree_sequences(n)}

    def placed_edges(rcode, child_code):
        """The edges of tree_from_code(rcode) with w0 on the edge from the
        root to its first child by id whose subtree code is child_code."""
        unit = tree_from_code(rcode)
        first = min(c for c, _ in unit.neighbors(0) if subtree_code(unit, c, 0) == child_code)
        return first, [[u, v, w0 if (u, v) == (0, first) else 1.0] for u, v, _ in unit.edges]

    for seq, keys in oracle.items():
        rooted = _rooted_trees(seq, canonical_tree_codes(seq))
        # the instances min_nu_rooted and lemma5 rank, in key order
        instances = _instances(rooted, w0)
        assert [key for _, _, key, _ in instances] == sorted(keys)
        for i, child, key, read in instances:
            assert rooted[i].rbt.tree == tree_from_code(key[0])
            assert child == placed_edges(*key)[0]
            # the branch table keys it reads: w0 on the placed child alone
            assert read == [(code, w0 if c == child else 1.0) for c, code in rooted[i].children]
        for m in min_nu_rooted(seq, w0).minimizers:
            assert m["root"] == 0
            assert m["edges"] == placed_edges(*m["code"])[1]


def test_enumeration_deterministic():
    a = [t.edges for t in enumerate_trees((3, 2, 2, 1, 1, 1))]
    b = [t.edges for t in enumerate_trees((3, 2, 2, 1, 1, 1))]
    assert a == b
