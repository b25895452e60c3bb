"""Brute-force extremal search over enumerated trees, verification
suites for the structural properties, and the degree-partition explorer.

Searches are exact: every candidate in the class is enumerated and
solved.  Minimizer values are computed from each tree's canonical
labeling, so reports do not depend on the order of enumeration.  The
verification suites are exhaustive too: each checks every case of one
stream of all trees up to a size, and none draws a random sample.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .enumeration import (
    _code_edges,
    _multiset_permutations,
    _peel,
    _permutation_count,
    _word_counts,
    canonical_code,
    canonical_tree_codes,
    enumerate_rooted_trees,
    tree_from_code,
)
from .nodal import (
    GeometricSplit,
    _analysis,
    _caterpillar_charsets,
    check_monotone_paths,
    geometric_split,
    verify_split,
)
from .perturb import (
    PerturbationRecord,
    glue,
    is_minimal_shape_rooted,
    is_theorem1_shape,
)
from .spectral import (
    TREE_SOLVER_ORDER,
    _branch_block,
    _caterpillar_alpha,
    _caterpillar_fiedler,
    algebraic_connectivity,
    dirichlet_nu,
    eig_smallest,
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


def _minimizer_dicts(band: list[tuple[Tree, tuple[float, np.ndarray], dict]]) -> list[dict]:
    """One dict per minimizer of band, in code order.  band holds the
    minimizers as (tree, (alpha, Fiedler vector) as algebraic_connectivity
    solved it, extra keys); the extra keys go after alpha."""
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
    return minimizers


def _alpha_report(
    seq: tuple[int, ...],
    start: float,
    count: int,
    band: list[tuple[Tree, tuple[float, np.ndarray], dict]],
) -> SearchReport:
    """The report of an alpha search over count candidates of seq, begun
    at perf_counter() time start, whose minimizers are band
    (_minimizer_dicts)."""
    minimizers = _minimizer_dicts(band)
    return SearchReport(
        sequence=list(seq),
        min_value=min(alpha for _, (alpha, _), _ in band),
        instance_count=count,
        minimizers=minimizers,
        all_caterpillars=all(m["is_caterpillar"] for m in minimizers),
        all_theorem1_shape=all(m["is_theorem1_shape"] for m in minimizers),
        elapsed=time.perf_counter() - start,
    )


def min_alpha_tree(seq: Sequence[int]) -> SearchReport:
    """Exact argmin set of the algebraic connectivity over all unlabeled
    trees with the given degree multiset.

    Raises EnumerationCapExceeded when the enumeration would decode more
    than CAP skeleton words; the caterpillar-restricted search
    (min_alpha_caterpillar) handles those sequences.
    """
    start = time.perf_counter()
    seq = _tree_sequence(seq)
    trees = [tree_from_code(code) for code in _capped_codes(seq)]
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
    at vertex 0: the tree, the rooted code of every vertex's subtree from
    one leaf peel at the root, and its children's (id, rooted code) in id
    order, which preorder ids make code order.  _placements puts the
    boundary weights on it."""

    rbt: RootedBoundaryTree
    codes: list[str]
    children: list[tuple[int, str]]

    @property
    def code(self) -> str:
        return self.codes[0]


def _rooted_trees(seq: tuple[int, ...], codes: Iterable[str]) -> list[_Rooted]:
    """The w0 = 1 rooted trees of seq, whose canonical codes are codes, in
    rooted-code order, each with the codes of one leaf peel."""
    rooted = []
    for rbt in enumerate_rooted_trees(seq, codes=codes):
        sub = _peel(rbt.tree, 0)[1]
        children = [(child, sub[child]) for child, _ in rbt.tree.neighbors(0)]
        rooted.append(_Rooted(rbt, sub, children))
    return rooted


def _branch_pair(table: dict, code: str, w0: float) -> tuple[float, np.ndarray]:
    """dirichlet_nu of the branch with rooted code code hung from a fresh
    root by an edge of weight w0, solved once per table.

    A rooted tree's Dirichlet matrix is block diagonal, one block per
    branch at the root, and a block depends only on the branch's rooted
    code and the weight of its root edge: the table is keyed by both.  An
    entry's block is cut from the code's hung tree, built unchecked; a lone
    vertex, or a branch of TREE_SOLVER_ORDER or more, goes to dirichlet_nu."""
    pair = table.get((code, w0))
    if pair is None:
        n, edges = _code_edges("(" + code + ")")
        edges[0] = (0, 1, float(w0))
        if 2 < n <= TREE_SOLVER_ORDER:
            top = eig_smallest(_branch_block(Tree._trusted(n, edges), list(range(1, n))), 1)[0]
            pair = table[code, w0] = top.value, top.vector
        else:
            pair = table[code, w0] = dirichlet_nu(RootedBoundaryTree(Tree._trusted(n, edges), 0))
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
) -> list[tuple[int, int | None, str | tuple[str, str], list[float]]]:
    """Every rooted tree of boundary weight w0 on the unit trees rooted, as
    (position in rooted, weighted child, key, branch nus), with the nus
    of its branches at the root from the table, in child order; its own nu
    is their least.  The one enumeration of the weighted instances.

    At w0 = 1 each unit tree is one instance, with no weighted child, keyed
    by its rooted code.  Above, each distinct child code gives one, on the
    first child by id with that code, in child order, keyed (root code,
    child code), which is rooted_canonical_key of the placed tree; that
    child's branch is valued at w0 and the others at weight 1."""
    out = []
    for i, r in enumerate(rooted):
        unit = [_branch_pair(table, code, 1.0)[0] for _, code in r.children]
        if w0 == 1.0:
            out.append((i, None, r.code, unit))
            continue
        placed = set()
        for j, (child, code) in enumerate(r.children):
            if code not in placed:
                placed.add(code)
                nus = [*unit[:j], _branch_pair(table, code, w0)[0], *unit[j + 1 :]]
                out.append((i, child, (r.code, code), nus))
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
    minimum, tied = _argmin([min(nus) for _, _, _, nus in instances])
    minimizers = []
    for i, child, key, nus in (instances[k] for k in tied):
        rbt = rooted[i].rbt
        if child is not None:
            rbt = _weighted_root_edge(rbt.tree, rbt.root, child, boundary_weight)
        minimizers.append(
            {
                "code": key if isinstance(key, str) else list(key),
                "nu": min(nus),
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
# degree sequences


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


# ---------------------------------------------------------------------------
# verification suites


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


@dataclass
class _Case:
    """One degree sequence of the verify stream, its canonical codes,
    sorted, and the run's branch table.  The properties are computed on
    first read and shared by every suite: the free trees with their
    (alpha, Fiedler vector) pairs, one solve each; their geometric splits,
    and the first Dirichlet eigenvalues of each split's two sides
    (side_nus); and the w0 = 1 rooted trees with their Dirichlet pairs
    (_Rooted, nu, vector), read from the table entries of their branches
    (_rooted_pair), so every distinct branch is solved once per table."""

    seq: tuple[int, ...]
    codes: list[str]
    table: dict
    _sides: dict[int, tuple[float, float]] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def free(self) -> list[tuple[Tree, tuple[float, np.ndarray]]]:
        return [(t, algebraic_connectivity(t)) for t in map(tree_from_code, self.codes)]

    @cached_property
    def splits(self) -> list[tuple[Tree, float, GeometricSplit]]:
        return [
            (t, alpha, geometric_split(t, _analysis(t, alpha, f)))
            for t, (alpha, f) in self.free
        ]

    def side_nus(self, i: int) -> tuple[float, float]:
        """dirichlet_nu of the positive and the negative side of the i-th
        split, solved on first read."""
        nus = self._sides.get(i)
        if nus is None:
            split = self.splits[i][2]
            nus = self._sides[i] = dirichlet_nu(split.pos)[0], dirichlet_nu(split.neg)[0]
        return nus

    @cached_property
    def rooted(self) -> list[tuple[_Rooted, float, np.ndarray]]:
        return [(r, *_rooted_pair(self.table, r)) for r in _rooted_trees(self.seq, self.codes)]


def _stream(nmax: int, table: dict) -> Iterator[_Case]:
    """Each degree sequence with n = 2..nmax once, as a _Case on table.
    Raises EnumerationCapExceeded before any word of a sequence is decoded
    when it has more than CAP skeleton words."""
    for n in range(2, nmax + 1):
        for seq in all_tree_sequences(n):
            yield _Case(seq, sorted(_capped_codes(seq)), table)


def _check_theorem1(case: _Case, nmax: int, out: dict) -> None:
    tied = _argmin([alpha for _, (alpha, _) in case.free])[1]
    minimizers = _minimizer_dicts([(*case.free[i], {}) for i in tied])
    out["checked"] += len(minimizers)
    out["failures"] += [
        {"sequence": list(case.seq), "minimizer": m}
        for m in minimizers
        if not (m["is_caterpillar"] and m["is_theorem1_shape"])
    ]


def _check_lemma2(case: _Case, nmax: int, out: dict) -> None:
    out["checked"] += len(case.rooted)
    out["failures"] += [
        {
            "sequence": list(case.seq),
            "root": r.rbt.root,
            "edges": [[u, v] for u, v, _ in r.rbt.tree.edges],
        }
        for r, _, vec in case.rooted
        if not check_monotone_paths(r.rbt, vec)
    ]


def _check_lemma5(case: _Case, nmax: int, out: dict) -> None:
    """The nu argmin at w0 = 1, 1.5 and 3, ranked as min_nu_rooted ranks
    it (_placements, from the branch table).  The predicted shape reads no
    weights, so it is decided once per w0 = 1 rooted tree."""
    trees = [r for r, _, _ in case.rooted]
    shaped = [is_minimal_shape_rooted(r.rbt) for r in trees]
    for w0 in (1.0, 1.5, 3.0):
        instances = _placements(case.table, trees, w0)
        tied = _argmin([min(nus) for _, _, _, nus in instances])[1]
        argmin = {str(instances[k][2]) for k in tied}
        predicted = {str(key) for i, _, key, _ in instances if shaped[i]}
        out["checked"] += 1
        if argmin != predicted:
            out["failures"].append(
                {
                    "sequence": list(case.seq),
                    "w0": w0,
                    "argmin_only": sorted(argmin - predicted),
                    "predicted_only": sorted(predicted - argmin),
                }
            )


def _legal_p1_moves(
    rbt: RootedBoundaryTree, line: Sequence[int] | None = None
) -> list[tuple[int, int, int]]:
    """Every legal P1 move (w, vi, vj) of perturb_p1 on the rooted
    caterpillar rbt, sorted: pendant w, not the root, leaves trunk vertex vi
    by a unit edge for a deeper trunk vertex vj other than itself.  line is
    rbt's trunk, computed when not given."""
    t = rbt.tree
    line = trunk(rbt) if line is None else line
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


@dataclass(frozen=True)
class _TrunkForm:
    """A rooted caterpillar seen from its trunk t0 .. tL, t0 the root and tL
    a pendant: the rooted code of every vertex's subtree (_Rooted.codes),
    the count of pendant children of each ti, and the rooted codes of its
    other children off the trunk, which occur when the root is a pendant on
    an inner spine vertex.  A P1 move from ti to tj and a P2 move at tj
    change only the counts at i and j."""

    codes: list[str]
    line: tuple[int, ...]
    pendants: list[int]
    fixed: list[list[str]]

    def branches(self, src: int | None, dst: int) -> list[str]:
        """The rooted codes of the root's branches once a pendant moves from
        trunk position src to the deeper dst (P1), or is added at dst > 0
        (P2, src None).  Past dst the subtrees are unchanged and their codes
        are the peel's; from dst back to the root each ti is rendered as
        _peel renders it, from its sorted child codes."""
        line = self.line
        below = [self.codes[line[dst + 1]]] if dst + 1 < len(line) else []
        for i in range(dst, -1, -1):
            subs = ["()"] * (self.pendants[i] + (i == dst) - (i == src)) + self.fixed[i] + below
            if i == 0:
                return subs
            subs.sort()
            below = ["(" + "".join(subs) + ")"]


def _trunk_form(r: _Rooted) -> _TrunkForm | None:
    """r as a _TrunkForm, or None unless it is a caterpillar rooted at a
    pendant or a spine end, the roots that trunk (one spine walk) accepts."""
    t = r.rbt.tree
    try:
        line = trunk(r.rbt)
    except ValueError:
        return None
    on = set(line)
    pendants, fixed = [], []
    for v in line:
        off = [u for u, _ in t.neighbors(v) if u not in on]
        pendants.append(sum(map(t.is_pendant, off)))
        fixed.append([r.codes[u] for u in off if not t.is_pendant(u)])
    return _TrunkForm(r.codes, line, pendants, fixed)


def _check_perturb(case: _Case, nmax: int, out: dict) -> None:
    """Every legal P1 move and every P2 move at a trunk vertex past the
    root, on each w0 = 1 rooted caterpillar of the stream whose root is a
    pendant or a spine end (_trunk_form).  nu before a move is the
    stream's.  Each move is applied as an edit of the trunk's pendant
    counts, and nu after it is the least branch table entry over the root's
    distinct branch codes, rendered from the edit (_TrunkForm.branches):
    no moved tree is built."""
    for r, before, _ in case.rooted:
        form = _trunk_form(r)
        if form is None:
            continue
        line = form.line
        pos = {v: i for i, v in enumerate(line)}
        moves = [
            ("P1", pos[vi], pos[vj], ((w, vi), (w, vj)))
            for w, vi, vj in _legal_p1_moves(r.rbt, line)
        ]
        moves += [("P2", None, j, ((line[j], r.rbt.tree.n),)) for j in range(1, len(line))]
        for kind, src, dst, edges in moves:
            after = min(
                _branch_pair(case.table, code, 1.0)[0] for code in set(form.branches(src, dst))
            )
            out["checked"] += 1
            out["moves"][kind] += 1
            out["min_relative_gap"] = min(out["min_relative_gap"], (before - after) / before)
            if not after < before - STRICT_MARGIN * before:
                record = PerturbationRecord(kind, before, after, edges)
                out["failures"].append({"code": r.code, **record.to_json()})


def _check_glue(case: _Case, nmax: int, out: dict) -> None:
    """alpha(glue(a, b)) <= max(nu(a), nu(b)), strictly when the two nus
    differ by more than 1e-8, on four kinds of case.

    unit: a rooted tree of the stream whose root has two or more children
    is the glue of any split of its branches into two sides, and the
    least bound over those splits, the least branch alone on one side, is
    its second-least branch nu.  Both nus come from the branch table and
    alpha from its free tree, so no solve is needed.  weighted: the same
    trees with n <= nmax // 2 + 2 carrying w0 = 1.5, 2 or 3 on the edge to
    each distinct child code (_placements), each solved.  split: the two
    sides of each Type II tree's geometric split, whose boundary weights
    satisfy 1/w1 + 1/w2 = 1, with the side nus the split suite reads
    (_Case.side_nus).  equality: two rooted three-vertex paths glue
    into the five-vertex path, with alpha == nu; it is checked once, at
    the stream's first sequence."""

    def bound(kind: str, alpha: float, nu1: float, nu2: float, **where: object) -> None:
        out["checked"] += 1
        out["cases"][kind] += 1
        top = max(nu1, nu2)
        if not (alpha < top if abs(nu1 - nu2) > 1e-8 else alpha <= top + 1e-10):
            out["failures"].append({"case": kind, **where, "alpha": alpha, "nu1": nu1, "nu2": nu2})

    alphas = dict(zip(case.codes, (alpha for _, (alpha, _) in case.free)))
    trees = [r for r, _, _ in case.rooted if len(r.children) >= 2]
    for w0 in (1.0, 1.5, 2.0, 3.0):
        if w0 > 1.0 and len(case.seq) > nmax // 2 + 2:
            break
        for i, child, key, nus in _placements(case.table, trees, w0):
            tree = trees[i].rbt.tree
            if child is None:
                alpha = alphas[canonical_code(tree)]
            else:
                alpha = algebraic_connectivity(_weighted_root_edge(tree, 0, child, w0).tree)[0]
            nu1, nu2 = sorted(nus)[:2]
            bound("unit" if child is None else "weighted", alpha, nu1, nu2, code=key, w0=w0)
    for i, (tree, _, split) in enumerate(case.splits):
        if split.w1 is not None:
            alpha = algebraic_connectivity(glue(split.neg, split.pos))[0]
            nu2, nu1 = case.side_nus(i)
            edges = [[u, v] for u, v, _ in tree.edges]
            bound("split", alpha, nu1, nu2, edges=edges, w=[split.w1, split.w2])
    if len(case.seq) == 2:
        side = with_boundary_weight(path_tree(3), 0, 1.0)
        nu, _ = dirichlet_nu(side)
        alpha, _ = algebraic_connectivity(glue(side, side))
        out["checked"] += 1
        out["cases"]["equality"] += 1
        if not (abs(alpha - nu) <= 1e-10 and abs(nu - (3 - math.sqrt(5)) / 2) <= 1e-10):
            out["failures"].append({"equality_case_alpha": alpha, "equality_case_nu": nu})


def _check_split(case: _Case, nmax: int, out: dict) -> None:
    for i, (tree, alpha, split) in enumerate(case.splits):
        r1, r2 = verify_split(tree, split, alpha, case.side_nus(i))
        out["checked"] += 1
        out["worst_residual"] = max(out["worst_residual"], r1, r2)
        if r1 > 1e-8 or r2 > 1e-8:
            out["failures"].append(
                {
                    "edges": [[u, v] for u, v, _ in tree.edges],
                    "alpha": alpha,
                    "residuals": [r1, r2],
                }
            )


#: each suite's report name, its check of one stream case,
#: (case, nmax, out) -> None, which adds to out's "checked" count and
#: "failures" list, and the other report fields out starts with
_CHECKS = {
    "theorem1": ("alpha minimizers are monotone caterpillars", _check_theorem1, dict),
    "lemma2": ("first Dirichlet eigenvectors grow along root paths", _check_lemma2, dict),
    "lemma5": (
        "nu argmin equals the monotone pendant-rooted caterpillar shape",
        _check_lemma5,
        dict,
    ),
    "perturb": (
        "pendant moves strictly decrease nu",
        _check_perturb,
        lambda: {"moves": {"P1": 0, "P2": 0}, "min_relative_gap": math.inf},
    ),
    "glue": (
        "gluing bounds alpha by the larger side nu",
        _check_glue,
        lambda: {"cases": dict.fromkeys(("unit", "weighted", "split", "equality"), 0)},
    ),
    "split": (
        "split sides reproduce alpha as their first Dirichlet eigenvalue",
        _check_split,
        lambda: {"worst_residual": 0.0},
    ),
}


def verify_suite(suite: str, nmax: int = 8) -> dict:
    """Run one named verification suite (or "all") and return a
    machine-readable report.  Deterministic for fixed arguments.

    Every suite checks every case of one stream (_stream), which
    enumerates each degree sequence with n = 2..nmax once.  It solves
    each free tree once, for theorem1, split and glue, and reads each
    rooted tree's nu from one branch table, for lemma2, lemma5, perturb
    and glue.  No case is drawn at random, and a suite reports alone what
    it reports inside "all"."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if nmax < 2:
        raise ValueError(f"nmax must be >= 2, got {nmax}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    outs = {name: {"checked": 0, "failures": [], **_CHECKS[name][2]()} for name in names}
    for case in _stream(nmax, {}):
        for name in names:
            _CHECKS[name][1](case, nmax, outs[name])
    checks = [{"suite": name} | _report(_CHECKS[name][0], **outs[name]) for name in names]
    return {
        "suite": suite,
        "params": {"nmax": nmax},
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
