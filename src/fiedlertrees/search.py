"""Brute-force extremal search over enumerated trees, verification
suites for the structural properties, and the degree-partition explorer.

Searches are exact: every candidate in the class is enumerated and
solved.  Minimizer values are computed from each tree's canonical
labeling, so reports do not depend on the order of enumeration.
"""

from __future__ import annotations

import math
import random
import sys
import time
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .enumeration import (
    _multiset_permutations,
    _peel,
    _permutation_count,
    _word_counts,
    canonical_code,
    canonical_tree_codes,
    enumerate_rooted_trees,
    prufer_decode,
    tree_from_code,
)
from .nodal import (
    _analysis,
    _caterpillar_charsets,
    analyze,
    check_monotone_paths,
    geometric_split,
    verify_split,
)
from .perturb import (
    PerturbationRecord,
    glue,
    is_minimal_shape_rooted,
    is_theorem1_shape,
    perturb_p1,
    perturb_p2,
)
from .spectral import (
    _caterpillar_alpha,
    _caterpillar_fiedler,
    algebraic_connectivity,
    dirichlet_nu,
)
from .trees import (
    RootedBoundaryTree,
    Tree,
    _check_boundary_weight,
    _split_spine,
    _tree_sequence,
    _weighted_root_edge,
    build_caterpillar,
    is_caterpillar,
    path_tree,
    spine_path,
    trunk,
    with_boundary_weight,
)

#: two values are co-minimal when they agree to this relative tolerance
TIE_RTOL = 1e-9

#: a perturbation must decrease nu by more than this relative margin
STRICT_MARGIN = 1e-10

#: a search refuses a class with more candidates than this to walk:
#: skeleton Prufer words to decode, or spine permutations
CAP = 10_000_000

#: random draws per sampled verify suite: trees for split and glue, and
#: moves of each kind for perturb
SAMPLES = 100

SUITES = ("theorem1", "lemma2", "lemma5", "perturb", "glue", "split", "all")


class EnumerationCapExceeded(RuntimeError):
    """The enumeration would walk more than CAP candidates."""


@dataclass(kw_only=True)
class SearchReport:
    """Result of one exhaustive search, its fields in JSON order.

    minimizers holds one dict per argmin instance carrying its canonical
    code, edge list, and the structural predicate evaluations relevant to
    the search kind.  Every minimizer value is within TIE_RTOL relative of
    min_value.  The fields that do not apply to the search kind are None.
    """

    sequence: list[int]
    min_value: float
    instance_count: int
    minimizers: list[dict]
    all_caterpillars: bool | None = None
    all_theorem1_shape: bool | None = None
    all_minimal_shape: bool | None = None
    boundary_weight: float | None = None
    elapsed: float

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class PartitionRow:
    """One caterpillar arrangement and how its spine degrees fall on the
    two sides of the characteristic set.  The characteristic vertex's own
    degree (vertex case) belongs to neither side."""

    sequence: tuple[int, ...]
    arrangement: tuple[int, ...]
    alpha: float
    charset_kind: str
    charset_pos: str
    left_degrees: tuple[int, ...]
    right_degrees: tuple[int, ...]


def _argmin(values: Sequence[float]) -> tuple[float, list[int]]:
    """The least of values and the positions, in order, of the values tied
    with it: those within TIE_RTOL relative of it."""
    minimum = min(values)
    top = minimum + TIE_RTOL * abs(minimum)
    return minimum, [i for i, value in enumerate(values) if value <= top]


def _check_cap(total: int, candidates: str) -> None:
    """Raise EnumerationCapExceeded when total is over CAP.  A total of
    10^100 or more is given as the power of ten at or below it, because
    str() refuses an int of more than 4,300 digits."""
    if total > CAP:
        count = total
        if total >= 10**100:
            power = int(math.log10(total))
            power -= 10**power > total  # log10 rounded up to the next power
            count = f"at least 10^{power}"
        raise EnumerationCapExceeded(f"{count} {candidates} exceed the cap {CAP}")


def _capped_codes(seq: tuple[int, ...]) -> set[str]:
    """canonical_tree_codes(seq).  Raises EnumerationCapExceeded before any
    word is decoded when seq has more than CAP skeleton words
    (enumeration.skeleton_word_count).  The count stops at its first
    partial sum over CAP, which the message reports."""
    total = 0
    for words in _word_counts(seq):
        total += words
        _check_cap(total, "skeleton words")
    return canonical_tree_codes(seq)


def _alpha_report(
    seq: tuple[int, ...],
    start: float,
    count: int,
    band: list[tuple[Tree, tuple[float, np.ndarray], dict]],
) -> SearchReport:
    """The report of an alpha search over count candidates of seq, begun
    at perf_counter() time start.  band holds the minimizers as (tree,
    (alpha, Fiedler vector) as algebraic_connectivity solved it, extra
    keys); their dicts, extra keys after alpha, go in code order."""
    minimizers = [
        {
            "code": canonical_code(tree),
            "alpha": alpha,
            **extra,
            "edges": [[u, v] for u, v, _ in tree.edges],
            "is_caterpillar": is_caterpillar(tree),
            "is_theorem1_shape": is_theorem1_shape(tree, _analysis(tree, alpha, f)),
        }
        for tree, (alpha, f), extra in band
    ]
    minimizers.sort(key=lambda m: m["code"])
    return SearchReport(
        sequence=list(seq),
        min_value=min(alpha for _, (alpha, _), _ in band),
        instance_count=count,
        minimizers=minimizers,
        all_caterpillars=all(m["is_caterpillar"] for m in minimizers),
        all_theorem1_shape=all(m["is_theorem1_shape"] for m in minimizers),
        elapsed=time.perf_counter() - start,
    )


def min_alpha_tree(
    seq: Sequence[int],
    *,
    codes: Iterable[str] | None = None,
) -> SearchReport:
    """Exact argmin set of the algebraic connectivity over all unlabeled
    trees with the given degree multiset.  codes, when given, are the
    canonical codes of seq (canonical_tree_codes' set, in any order), so a
    caller that already has them skips the enumeration.

    Raises EnumerationCapExceeded when the enumeration would decode more
    than CAP skeleton words; the caterpillar-restricted search
    (min_alpha_caterpillar) handles those sequences.
    """
    start = time.perf_counter()
    seq = _tree_sequence(seq)
    if codes is None:
        codes = _capped_codes(seq)
    trees = [tree_from_code(code) for code in codes]
    pairs = [algebraic_connectivity(tree) for tree in trees]
    band = [(trees[i], pairs[i], {}) for i in _argmin([alpha for alpha, _ in pairs])[1]]
    return _alpha_report(seq, start, len(trees), band)


def spine_arrangements(interior: Sequence[int]) -> list[tuple[int, ...]]:
    """Multiset permutations of the interior degrees, deduplicated under
    reversal (a caterpillar and its mirror are the same tree)."""
    seen = []
    for arr in _multiset_permutations(sorted(interior)):
        if arr <= arr[::-1]:
            seen.append(arr)
    return seen


def _capped_arrangements(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Spine arrangements of seq's non-pendant degrees.  Raises
    EnumerationCapExceeded before the walk when they have more than CAP
    permutations."""
    interior = [d for d in seq if d >= 2]
    _check_cap(_permutation_count(Counter(interior).values()), "spine permutations")
    return spine_arrangements(interior)


def min_alpha_caterpillar(seq: Sequence[int]) -> SearchReport:
    """Argmin of the algebraic connectivity over all caterpillars with the
    given degree multiset, enumerated as spine arrangements.  One batched
    bisection ranks every arrangement, to full precision only those that
    can still reach the tie band; only those within it get a Tree and the
    dense solve whose values the report carries.

    Raises EnumerationCapExceeded when the spine degrees have more than
    CAP permutations."""
    start = time.perf_counter()
    seq = _tree_sequence(seq)
    arrangements = _capped_arrangements(seq)
    band = arrangements
    if len(arrangements) > 1:  # one arrangement needs no ranking; m <= 1 has one
        slack = 3.0 * 2.0 * (2 * seq[0]) * len(seq) * sys.float_info.epsilon
        # bisection and eigh each put alpha within ||L||_1 n eps of the
        # exact value (||L||_1 = 2 max degree), so they differ by at most
        # twice that, and an arrangement tied with the eigh minimum has a
        # bisected alpha at most TIE_RTOL least + 3 times that (slack)
        # above least; the bisection stops every arrangement above that band
        approx = _caterpillar_alpha(np.array(arrangements), (TIE_RTOL, slack))
        least = float(approx.min())
        top = least + TIE_RTOL * least + slack
        band = [arr for arr, value in zip(arrangements, approx.tolist()) if value <= top]
    trees = [build_caterpillar(arr) for arr in band]
    pairs = [algebraic_connectivity(tree) for tree in trees]
    tied = [
        (trees[i], pairs[i], {"arrangement": list(band[i])})
        for i in _argmin([alpha for alpha, _ in pairs])[1]
    ]
    return _alpha_report(seq, start, len(arrangements), tied)


@dataclass(frozen=True)
class _Rooted:
    """A unit-weight rooted tree, tree_from_code of its rooted code, rooted
    at vertex 0: the tree, that code, and its children's (id, rooted code)
    in id order, which preorder ids make code order.  _placements puts
    the boundary weights on it."""

    rbt: RootedBoundaryTree
    code: str
    children: list[tuple[int, str]]


def _rooted_trees(seq: tuple[int, ...], codes: Iterable[str]) -> list[_Rooted]:
    """The w0 = 1 rooted trees of seq, whose canonical codes are codes, in
    rooted-code order, each with the codes of one leaf peel."""
    rooted = []
    for rbt in enumerate_rooted_trees(seq, codes=codes):
        sub = _peel(rbt.tree, 0)[1]
        children = [(child, sub[child]) for child, _ in rbt.tree.neighbors(0)]
        rooted.append(_Rooted(rbt, sub[0], children))
    return rooted


def _branch_pair(table: dict, code: str, w0: float) -> tuple[float, np.ndarray]:
    """dirichlet_nu of the branch with rooted code code hung from a fresh
    root by an edge of weight w0, solved once per table.

    A rooted tree's Dirichlet matrix is block diagonal, one block per
    branch at the root, and a block depends only on the branch's rooted
    code and the weight of its root edge: the table is keyed by both."""
    pair = table.get((code, w0))
    if pair is None:
        t = tree_from_code("(" + code + ")")
        hung = RootedBoundaryTree(t, 0) if w0 == 1.0 else _weighted_root_edge(t, 0, 1, w0)
        pair = table[code, w0] = dirichlet_nu(hung)
    return pair


def _rooted_pair(table: dict, r: _Rooted) -> tuple[float, np.ndarray]:
    """dirichlet_nu(r.rbt), read from the table entries of its branches.

    As in dirichlet_nu, the first least branch in child order carries the
    vector and the others are zero.  tree_from_code numbers vertices in
    preorder, so a branch's ids are contiguous from its child's, and
    interior position = id - 1."""
    best = None
    for child, code in r.children:
        nu, vec = _branch_pair(table, code, 1.0)
        if best is None or nu < best[0]:
            best = nu, vec, child - 1
    nu, branch, first = best
    vec = np.zeros(r.rbt.tree.n - 1)
    vec[first : first + len(branch)] = branch
    return nu, vec


def _placements(
    table: dict, rooted: list[_Rooted], w0: float
) -> list[tuple[int, int | None, str | tuple[str, str], float]]:
    """Every rooted tree of boundary weight w0 on the unit trees rooted, as
    (position in rooted, weighted child, key, nu), with nu from the table:
    the one enumeration of the weighted instances.

    At w0 = 1 each unit tree is one instance, with no weighted child, keyed
    by its rooted code.  Above, each distinct child code gives one, on the
    first child by id with that code, in child order, keyed (root code,
    child code), which is rooted_canonical_key of the placed tree; it is
    valued at the least of that child's entry at w0 and the other
    children's entries at weight 1."""
    out = []
    for i, r in enumerate(rooted):
        unit = [_branch_pair(table, code, 1.0)[0] for _, code in r.children]
        if w0 == 1.0:
            out.append((i, None, r.code, min(unit)))
            continue
        placed = set()
        for j, (child, code) in enumerate(r.children):
            if code not in placed:
                placed.add(code)
                nu = min([_branch_pair(table, code, w0)[0], *unit[:j], *unit[j + 1 :]])
                out.append((i, child, (r.code, code), nu))
    return out


def min_nu_rooted(seq: Sequence[int], boundary_weight: float = 1.0) -> SearchReport:
    """Argmin set of the first Dirichlet eigenvalue over every rooted tree
    with the given degree multiset.  Raises EnumerationCapExceeded when
    the enumeration would decode more than CAP skeleton words.

    Every instance is valued from one branch table (_placements): each
    distinct (branch code, boundary weight) is solved once, and a placed
    tree is built only for the minimizers."""
    _check_boundary_weight(boundary_weight)
    start = time.perf_counter()
    seq = _tree_sequence(seq)
    rooted = _rooted_trees(seq, _capped_codes(seq))
    instances = _placements({}, rooted, boundary_weight)
    minimum, tied = _argmin([nu for _, _, _, nu in instances])
    minimizers = []
    for i, child, key, nu in (instances[k] for k in tied):
        rbt = rooted[i].rbt
        if child is not None:
            rbt = _weighted_root_edge(rbt.tree, rbt.root, child, boundary_weight)
        minimizers.append(
            {
                "code": key if isinstance(key, str) else list(key),
                "nu": nu,
                "root": rbt.root,
                "edges": [[u, v, w] for u, v, w in rbt.tree.edges],
                "is_minimal_shape": is_minimal_shape_rooted(rbt),
            }
        )
    minimizers.sort(key=lambda m: str(m["code"]))
    return SearchReport(
        sequence=list(seq),
        min_value=minimum,
        instance_count=len(instances),
        minimizers=minimizers,
        all_minimal_shape=all(m["is_minimal_shape"] for m in minimizers),
        boundary_weight=float(boundary_weight),
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# degree-partition explorer


def explore_partitions(seq: Sequence[int]) -> list[PartitionRow]:
    """One row per caterpillar spine arrangement: its algebraic
    connectivity, characteristic set, and the non-pendant degrees on the two
    sides, ordered outward.  Rows are sorted by alpha as the CSV prints it
    (12 significant digits), then by arrangement.  One batched bisection
    solves every arrangement; no Tree is built.

    The explorer presents the partitions as data only; no pattern is
    assumed or checked.  Raises EnumerationCapExceeded when the spine
    degrees have more than CAP permutations.
    """
    seq = _tree_sequence(seq)
    arrangements = _capped_arrangements(seq)
    if len(arrangements[0]) < 2:
        # the single edge changes sign across itself; the star (alpha 1)
        # vanishes at its center
        arr = arrangements[0]
        alpha, kind, pos = (1.0, "vertex", "0") if arr else (2.0, "edge", "0|1")
        return [PartitionRow(seq, arr, alpha, kind, pos, (), ())]
    spines = np.array(arrangements)
    alphas, g, h = _caterpillar_fiedler(spines)
    edge, first = _caterpillar_charsets(g, h)
    printed = [float(f"{alpha:.12g}") for alpha in alphas.tolist()]
    order = np.lexsort((*spines.T[::-1], printed))
    m = spines.shape[1]
    # (kind, ids, charset_pos) of a vertex set and an edge set by position
    labels = [
        [("vertex", (z,), str(z)) for z in range(m)],
        [("edge", (z, z + 1), f"{z}|{z + 1}") for z in range(m)],
    ]
    rows = []
    for i, alpha, e, z, g0 in zip(
        order.tolist(),
        alphas[order].tolist(),
        edge[order].tolist(),
        first[order].tolist(),
        (g[order, 0] > 0).tolist(),
    ):
        kind, ids, pos = labels[e][z]
        # the part holding spine vertex 0 has the sign of its entry
        before, after = _split_spine(arrangements[i], ids)
        left, right = (before, after) if g0 else (after, before)
        rows.append(PartitionRow(seq, arrangements[i], alpha, kind, pos, left, right))
    return rows


CSV_HEADER = "sequence,arrangement,alpha,charset_kind,charset_pos,left_degrees,right_degrees"


def partition_rows_to_csv(rows: Sequence[PartitionRow]) -> str:
    """CSV with degree lists encoded as '|'-separated integers."""
    lines = [CSV_HEADER]
    last = None
    for r in rows:
        if r.sequence != last:  # explore's rows share one sequence
            last, seq = r.sequence, "|".join(map(str, r.sequence))
        lines.append(
            f"{seq},{'|'.join(map(str, r.arrangement))},{r.alpha:.12g},"
            f"{r.charset_kind},{r.charset_pos},"
            f"{'|'.join(map(str, r.left_degrees))},{'|'.join(map(str, r.right_degrees))}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sequence generation and random models


def _partitions(k: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    top = min(k, max_part) if max_part is not None else k
    for first in range(top, 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def all_tree_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Every degree multiset realizable by a tree on n vertices, sorted
    non-increasing, in deterministic order."""
    if n < 2:
        return
    for parts in _partitions(n - 2):
        degrees = [p + 1 for p in parts] + [1] * (n - len(parts))
        yield tuple(sorted(degrees, reverse=True))


def random_tree(rng: random.Random, n: int) -> Tree:
    """Uniform random labeled tree via a random Prufer word."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return path_tree(2)
    word = [rng.randrange(n) for _ in range(n - 2)]
    return prufer_decode(word, n)


def random_rooted_tree(
    rng: random.Random, n: int, boundary_weight: float = 1.0
) -> RootedBoundaryTree:
    t = random_tree(rng, n)
    return with_boundary_weight(t, rng.randrange(n), boundary_weight)


def random_rooted_caterpillar(rng: random.Random) -> RootedBoundaryTree:
    """Random caterpillar rooted at a pendant vertex or a spine end, the
    shapes on which a trunk is defined."""
    m = rng.randint(1, 4)
    spine = [rng.randint(2, 4) for _ in range(m)]
    t = build_caterpillar(spine)
    candidates = [v for v in range(t.n) if t.is_pendant(v)]
    path = spine_path(t)
    candidates.extend(path[:1] + path[-1:])  # the ends of the spine
    root = rng.choice(sorted(set(candidates)))
    return with_boundary_weight(t, root, 1.0)


def _legal_p1_moves(rbt: RootedBoundaryTree) -> list[tuple[int, int, int]]:
    t = rbt.tree
    line = trunk(rbt)
    pos = {v: i for i, v in enumerate(line)}
    moves = []
    for w in range(t.n):
        if w == rbt.root or not t.is_pendant(w):
            continue
        vi = t.neighbors(w)[0][0]
        if vi not in pos:
            continue
        if t.weight(w, vi) != 1.0:
            continue
        for vj in line:
            if pos[vj] > pos[vi] and vj != w:
                moves.append((w, vi, vj))
    return sorted(moves)


# ---------------------------------------------------------------------------
# verification suites


def _suite_rng(rng_seed: int, name: str) -> random.Random:
    return random.Random(f"{rng_seed}:{name}")


def _report(name: str, checked: int, failures: list, **extra: object) -> dict:
    """One suite's report: its first 20 failures, and passed when it has
    none."""
    return {
        "name": name,
        "checked": checked,
        **extra,
        "failures": failures[:20],
        "passed": not failures,
    }


def _stream(
    nmax: int, table: dict | None
) -> Iterator[tuple[tuple[int, ...], list[str], list | None]]:
    """Each degree sequence with n = 2..nmax once: the sequence, its
    canonical codes, sorted, and, when a branch table is given, its w0 = 1
    rooted trees with their Dirichlet pairs (_Rooted, nu, vector), else
    None.  Each pair is read from the table entries of the tree's
    branches (_rooted_pair), so every distinct branch is solved once per
    table.  Raises EnumerationCapExceeded before any word of a sequence
    is decoded when it has more than CAP skeleton words."""
    for n in range(2, nmax + 1):
        for seq in all_tree_sequences(n):
            codes = sorted(_capped_codes(seq))
            pairs = None
            if table is not None:
                pairs = [(r, *_rooted_pair(table, r)) for r in _rooted_trees(seq, codes)]
            yield seq, codes, pairs


def _check_theorem1(
    seq: tuple[int, ...], codes: list[str], rooted: list | None, table: dict | None
) -> tuple[int, list]:
    minimizers = min_alpha_tree(seq, codes=codes).minimizers
    return len(minimizers), [
        {"sequence": list(seq), "minimizer": m}
        for m in minimizers
        if not (m["is_caterpillar"] and m["is_theorem1_shape"])
    ]


def _check_lemma2(
    seq: tuple[int, ...], codes: list[str], rooted: list | None, table: dict | None
) -> tuple[int, list]:
    return len(rooted), [
        {
            "sequence": list(seq),
            "root": r.rbt.root,
            "edges": [[u, v] for u, v, _ in r.rbt.tree.edges],
        }
        for r, _, vec in rooted
        if not check_monotone_paths(r.rbt, vec)
    ]


def _check_lemma5(
    seq: tuple[int, ...], codes: list[str], rooted: list | None, table: dict | None
) -> tuple[int, list]:
    """The nu argmin at w0 = 1, 1.5 and 3, ranked as min_nu_rooted ranks
    it (_placements, from the branch table).  The predicted shape reads no
    weights, so it is decided once per w0 = 1 rooted tree."""
    trees = [r for r, _, _ in rooted]
    shaped = [is_minimal_shape_rooted(r.rbt) for r in trees]
    failures = []
    for w0 in (1.0, 1.5, 3.0):
        instances = _placements(table, trees, w0)
        tied = _argmin([nu for _, _, _, nu in instances])[1]
        argmin = {str(instances[k][2]) for k in tied}
        predicted = {str(key) for i, _, key, _ in instances if shaped[i]}
        if argmin != predicted:
            failures.append(
                {
                    "sequence": list(seq),
                    "w0": w0,
                    "argmin_only": sorted(argmin - predicted),
                    "predicted_only": sorted(predicted - argmin),
                }
            )
    return 3, failures


#: the suites that read the verify stream: each one's report name and its
#: check of one degree sequence,
#: (seq, codes, rooted, branch table) -> (checked, failures)
_STREAM_CHECKS = {
    "theorem1": ("alpha minimizers are monotone caterpillars", _check_theorem1),
    "lemma2": ("first Dirichlet eigenvectors grow along root paths", _check_lemma2),
    "lemma5": (
        "nu argmin equals the monotone pendant-rooted caterpillar shape",
        _check_lemma5,
    ),
}


def _suite_split(codes: list[str], nmax: int, rng_seed: int) -> dict:
    """The trees of codes (every tree with n <= min(nmax, 8), from the
    stream), then SAMPLES random trees with n <= nmax."""
    rng = _suite_rng(rng_seed, "split")
    trees = [tree_from_code(code) for code in codes]
    trees += [random_tree(rng, rng.randint(2, nmax)) for _ in range(SAMPLES)]
    worst = 0.0
    failures = []
    for tree in trees:
        analysis = analyze(tree)
        r1, r2 = verify_split(tree, geometric_split(tree, analysis), analysis.alpha)
        worst = max(worst, r1, r2)
        if r1 > 1e-8 or r2 > 1e-8:
            failures.append(
                {
                    "edges": [[u, v] for u, v, _ in tree.edges],
                    "alpha": analysis.alpha,
                    "residuals": [r1, r2],
                }
            )
    return _report(
        "split sides reproduce alpha as their first Dirichlet eigenvalue",
        len(trees),
        failures,
        worst_residual=worst,
    )


def _suite_perturb(rng_seed: int) -> dict:
    rng = _suite_rng(rng_seed, "perturb")
    failures = []
    records = []
    done_p1 = done_p2 = 0
    attempts = 0
    while done_p1 < SAMPLES or done_p2 < SAMPLES:
        attempts += 1
        if attempts > 100 * SAMPLES:  # pragma: no cover - sampling stall
            raise RuntimeError("could not sample enough legal perturbations")
        rbt = random_rooted_caterpillar(rng)
        before, _ = dirichlet_nu(rbt)
        if done_p1 < SAMPLES:
            moves = _legal_p1_moves(rbt)
            if moves:
                w, vi, vj = rng.choice(moves)
                after, _ = dirichlet_nu(perturb_p1(rbt, w, vi, vj))
                rec = PerturbationRecord("P1", before, after, ((w, vi), (w, vj)))
                records.append(rec)
                done_p1 += 1
                if not after < before - STRICT_MARGIN * before:
                    failures.append(rec.to_json())
        if done_p2 < SAMPLES:
            line = trunk(rbt)
            vj = rng.choice(line[1:])
            after, _ = dirichlet_nu(perturb_p2(rbt, vj))
            rec = PerturbationRecord(
                "P2", before, after, ((vj, rbt.tree.n),)
            )
            records.append(rec)
            done_p2 += 1
            if not after < before - STRICT_MARGIN * before:
                failures.append(rec.to_json())
    gaps = [(r.before_nu - r.after_nu) / r.before_nu for r in records]
    return _report(
        "pendant moves strictly decrease nu",
        len(records),
        failures,
        min_relative_gap=min(gaps),
    )


def _suite_glue(nmax: int, rng_seed: int) -> dict:
    rng = _suite_rng(rng_seed, "glue")
    failures = []
    for _ in range(SAMPLES):
        n1 = rng.randint(2, max(3, nmax // 2 + 2))
        n2 = rng.randint(2, max(3, nmax // 2 + 2))
        w0 = rng.choice([1.0, 1.5, 2.0, 3.0])
        a = random_rooted_tree(rng, n1, w0)
        b = random_rooted_tree(rng, n2, rng.choice([1.0, 1.5, 2.0, 3.0]))
        nu1, _ = dirichlet_nu(a)
        nu2, _ = dirichlet_nu(b)
        alpha, _ = algebraic_connectivity(glue(a, b))
        top = max(nu1, nu2)
        ok = alpha <= top + 1e-10
        if ok and abs(nu1 - nu2) > 1e-8:
            ok = alpha < top
        if not ok:
            failures.append(
                {"nu1": nu1, "nu2": nu2, "alpha": alpha, "n1": n1, "n2": n2}
            )
    # constructed equality case: two identical two-interior rooted paths
    # glue into the five-vertex path, alpha == nu on both sides
    side = with_boundary_weight(path_tree(3), 0, 1.0)
    nu, _ = dirichlet_nu(side)
    alpha, _ = algebraic_connectivity(glue(side, side))
    equality_ok = abs(alpha - nu) <= 1e-10 and abs(nu - (3 - math.sqrt(5)) / 2) <= 1e-10
    if not equality_ok:
        failures.append({"equality_case_alpha": alpha, "equality_case_nu": nu})
    return _report("gluing bounds alpha by the larger side nu", SAMPLES + 1, failures)


def verify_suite(suite: str, nmax: int = 8, rng_seed: int = 0) -> dict:
    """Run one named verification suite (or "all") and return a
    machine-readable report.  Deterministic for fixed arguments.

    theorem1, lemma2, lemma5 and split read one stream that enumerates
    each degree sequence once, split only up to n = min(nmax, 8); perturb,
    glue and split's random trees are drawn afterwards, each from its own
    seeded generator."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if nmax < 2:
        raise ValueError(f"nmax must be >= 2, got {nmax}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    streamed = [name for name in names if name in _STREAM_CHECKS]
    checked = dict.fromkeys(streamed, 0)
    failures: dict[str, list] = {name: [] for name in streamed}
    split_codes: list[str] = []
    # split reads the stream up to n = 8 only; perturb and glue never
    last = nmax if streamed else min(nmax, 8) if "split" in names else 1
    # one branch table per call: the rooted suites' Dirichlet pairs
    table = {} if "lemma2" in names or "lemma5" in names else None
    for seq, codes, pairs in _stream(last, table):
        for name in streamed:
            count, failed = _STREAM_CHECKS[name][1](seq, codes, pairs, table)
            checked[name] += count
            failures[name] += failed
        if "split" in names and len(seq) <= 8:
            split_codes += codes
    checks = []
    for name in names:
        if name in _STREAM_CHECKS:
            report = _report(_STREAM_CHECKS[name][0], checked[name], failures[name])
        elif name == "perturb":
            report = _suite_perturb(rng_seed)
        elif name == "glue":
            report = _suite_glue(nmax, rng_seed)
        else:
            report = _suite_split(split_codes, nmax, rng_seed)
        checks.append({"suite": name} | report)
    return {
        "suite": suite,
        "params": {"nmax": nmax, "rng_seed": rng_seed},
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
