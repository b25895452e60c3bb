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
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

from .enumeration import (
    _code_edges,
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
    _caterpillar_alpha,
    _caterpillar_fiedler,
    _Solves,
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
        """The fields that are not None, in order; the values are the
        report's own, not copies of them."""
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}


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


def _alpha_band(
    free: list[tuple[Tree, tuple[float, np.ndarray]]], extras: list[dict] | None = None
) -> list[dict]:
    """One dict per alpha minimizer of free, a search's (tree, (alpha,
    Fiedler vector)) pairs, in code order, analysed from its pair; the keys
    of its extras entry go after alpha.  The one ranking of every alpha
    search and theorem1."""
    minimizers = []
    for i in _argmin([alpha for _, (alpha, _) in free])[1]:
        tree, (alpha, f) = free[i]
        minimizers.append(
            {
                "code": canonical_code(tree),
                "alpha": alpha,
                **(extras[i] if extras else {}),
                "edges": [[u, v] for u, v, _ in tree.edges],
                "is_caterpillar": is_caterpillar(tree),
                "is_theorem1_shape": is_theorem1_shape(tree, _analysis(tree, alpha, f)),
            }
        )
    minimizers.sort(key=lambda m: m["code"])
    return minimizers


def _alpha_report(
    seq: tuple[int, ...], start: float, count: int, minimizers: list[dict]
) -> SearchReport:
    """The report of an alpha search over count candidates of seq, begun
    at perf_counter() time start, whose minimizers are minimizers
    (_alpha_band)."""
    return SearchReport(
        sequence=list(seq),
        min_value=min(m["alpha"] for m in minimizers),
        instance_count=count,
        minimizers=minimizers,
        all_caterpillars=all(m["is_caterpillar"] for m in minimizers),
        all_theorem1_shape=all(m["is_theorem1_shape"] for m in minimizers),
        elapsed=time.perf_counter() - start,
    )


def min_alpha_tree(seq: Sequence[int]) -> SearchReport:
    """Exact argmin set of the algebraic connectivity over all unlabeled
    trees with the given degree multiset.

    The search is _layer's one case of seq, ranked as theorem1 ranks a
    case (_alpha_band).

    Raises EnumerationCapExceeded when the enumeration would decode more
    than CAP skeleton words; the caterpillar-restricted search
    (min_alpha_caterpillar) handles those sequences.
    """
    start = time.perf_counter()
    seq = _tree_sequence(seq)
    (case,) = _layer([seq], {"theorem1"}, len(seq), {})
    return _alpha_report(seq, start, len(case.free), _alpha_band(case.free))


def _spines(interior: Sequence[int]) -> np.ndarray:
    """The spine arrangements of the interior degrees, one row each, in
    lexicographic order, in the smallest unsigned integer dtype that holds
    the largest degree.

    The multiset permutations grow one position at a time: each row
    branches on every degree it still has left, in increasing order, so
    the rows stay in lexicographic order; once every row has one distinct
    degree left, the rest of each row is forced.  Of each arrangement and
    its reversal, the same tree, one comparison keeps the one no greater:
    a palindrome, or one whose first entry that differs from its
    mirror's is the smaller."""
    values, counts = np.unique(np.asarray(interior, dtype=np.int64), return_counts=True)
    m = len(interior)
    spines = np.zeros((1, m), np.min_scalar_type(max(interior, default=0)))
    left = counts[None].astype(np.min_scalar_type(m))  # each row's unplaced count per degree
    for i in range(m):
        row, col = np.nonzero(left)
        if len(row) == len(spines):  # one degree left in every row
            spines[:, i:] = values[col][:, None]
            break
        spines, left = spines[row], left[row]
        spines[:, i] = values[col]
        left[np.arange(len(row)), col] -= 1
    if m < 2:
        return spines  # one degree or none is its own reversal
    mirror = spines[:, ::-1]
    at = np.arange(len(spines)), (spines != mirror).argmax(axis=1)  # 0 for a palindrome
    return spines[spines[at] <= mirror[at]]


def spine_arrangements(interior: Sequence[int]) -> list[tuple[int, ...]]:
    """Multiset permutations of the interior degrees, deduplicated under
    reversal (a caterpillar and its mirror are the same tree): of each
    pair the one no greater, in lexicographic order.  The searches read
    them as an array (_spines); these are its rows."""
    return list(map(tuple, _spines(interior).tolist()))


def _capped_arrangements(seq: tuple[int, ...]) -> np.ndarray:
    """The spine arrangements of seq's non-pendant degrees (_spines).
    Raises EnumerationCapExceeded before they are built when they have
    more than CAP permutations."""
    interior = [d for d in seq if d >= 2]
    _check_cap(_permutation_count(Counter(interior).values()), "spine permutations")
    return _spines(interior)


def min_alpha_caterpillar(seq: Sequence[int]) -> SearchReport:
    """Argmin of the algebraic connectivity over all caterpillars with the
    given degree multiset, enumerated as spine arrangements (_spines).
    One batched bisection ranks every arrangement until each that can
    still reach the tie band is bracketed to TIE_RTOL relative; only those
    survivors get a Tree, solved as min_alpha_tree solves its trees, and
    ranked on those values, which the report carries.

    Raises EnumerationCapExceeded when the spine degrees have more than
    CAP permutations."""
    start = time.perf_counter()
    seq = _tree_sequence(seq)
    spines = band = _capped_arrangements(seq)
    if len(spines) > 1:  # one arrangement needs no ranking; m <= 1 has one
        slack = 3.0 * 2.0 * (2 * seq[0]) * len(seq) * sys.float_info.epsilon
        # bisection and eigh each put alpha within ||L||_1 n eps of the
        # exact value (||L||_1 = 2 max degree), so they differ by at most
        # twice that, and an arrangement tied with the eigh minimum has a
        # bisected alpha at most TIE_RTOL least + 3 times that (slack)
        # above least: a survivor of the band stop
        band = spines[_caterpillar_alpha(spines, (TIE_RTOL, slack))]
    band = band.tolist()
    trees = [build_caterpillar(arr) for arr in band]
    solves = _Solves()
    at = [solves.fiedler(tree) for tree in trees]
    solves.run()
    free = [(tree, solves.pair(i)) for tree, i in zip(trees, at)]
    extras = [{"arrangement": arr} for arr in band]
    return _alpha_report(seq, start, len(spines), _alpha_band(free, extras))


@dataclass(frozen=True)
class _Rooted:
    """A unit-weight rooted tree, tree_from_code of its rooted code, rooted
    at vertex 0: the tree, the rooted code of every vertex's subtree from
    one leaf peel at the root, and its children's (id, rooted code) in id
    order, which preorder ids make code order.  _instances puts the
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


class _BranchTable(_Solves):
    """The eigensolve queue (_Solves) of a layer or a search, which also
    fills the branch table: the missing entries of the keys it is given,
    each once.

    The branch table maps (branch code, w0) to dirichlet_nu of the branch
    hung from a fresh root by an edge of weight w0.  A rooted tree's
    Dirichlet matrix is block diagonal, one block per branch at the root,
    and a block depends only on those two, so each is solved once.  run is
    the table's one writer; its readers index it, so a key that was never
    queued raises KeyError instead of being solved alone."""

    def __init__(self, table: dict) -> None:
        super().__init__()
        self.table = table
        self.entries: dict[tuple[str, float], int] = {}

    def entry(self, keys: Iterable[tuple[str, float]]) -> None:
        """Queue each table entry of keys that the table lacks, once: the
        one branch, vertices 1..n - 1, of the code's hung tree, built
        unchecked (_Solves.branch)."""
        for key in keys:
            if key not in self.table and key not in self.entries:
                code, w0 = key
                n, edges = _code_edges("(" + code + ")")
                edges[0] = (0, 1, float(w0))
                self.entries[key] = self.branch(Tree._trusted(n, edges), 0, list(range(1, n)))

    def run(self) -> None:
        """Solve what is queued and enter the table's entries."""
        super().run()
        for key, at in self.entries.items():
            self.table[key] = self.pair(at)


def _rooted_pair(table: dict, r: _Rooted) -> tuple[float, np.ndarray]:
    """dirichlet_nu(r.rbt), read from the table entries of its branches.

    As in dirichlet_nu, the first least branch in child order carries the
    vector and the others are zero.  tree_from_code numbers vertices in
    preorder, so a branch's ids are contiguous from its child's, and
    interior position = id - 1."""
    best = None
    for child, code in r.children:
        nu, vec = table[code, 1.0]
        if best is None or nu < best[0]:
            best = nu, vec, child - 1
    nu, branch, first = best
    vec = np.zeros(r.rbt.tree.n - 1)
    vec[first : first + len(branch)] = branch
    return nu, vec


def _instances(
    rooted: list[_Rooted], w0: float
) -> list[tuple[int, int | None, str | tuple[str, str], list[tuple[str, float]]]]:
    """Every rooted tree of boundary weight w0 on the unit trees rooted, as
    (position in rooted, weighted child, key, branch table keys): the one
    enumeration of the weighted instances.

    At w0 = 1 each unit tree is one instance, with no weighted child, keyed
    by its rooted code.  Above, each distinct child code gives one, on the
    first child by id with that code, in child order, keyed (root code,
    child code), which is rooted_canonical_key of the placed tree.  The
    weighted child's branch is keyed at w0 and the others at weight 1; an
    instance's nu is the least of their entries (_nus)."""
    out = []
    for i, r in enumerate(rooted):
        sites = [(None, r.code)]
        if w0 != 1.0:
            first = {}  # each child code's first child by id, in child order
            for child, code in r.children:
                first.setdefault(code, child)
            sites = [(child, (r.code, code)) for code, child in first.items()]
        out += [
            (i, child, key, [(code, w0 if c == child else 1.0) for c, code in r.children])
            for child, key in sites
        ]
    return out


def _nus(table: dict, instances: list[tuple]) -> list[list[float]]:
    """The nus of each instance's branches at the root, in child order,
    from the table."""
    return [[table[key][0] for key in keys] for *_, keys in instances]


def min_nu_rooted(seq: Sequence[int], boundary_weight: float = 1.0) -> SearchReport:
    """Argmin set of the first Dirichlet eigenvalue over every rooted tree
    with the given degree multiset.  Raises EnumerationCapExceeded when
    the enumeration would decode more than CAP skeleton words.

    The search is _layer's one case of seq at boundary_weight alone,
    ranked as lemma5 ranks a case (_nu_band), and a placed tree is built
    only for the minimizers."""
    _check_boundary_weight(boundary_weight)
    start = time.perf_counter()
    seq = _tree_sequence(seq)
    (case,) = _layer([seq], {"lemma5"}, len(seq), {}, (boundary_weight,))
    instances = case.lemma5[boundary_weight]
    nus, minimum, tied = _nu_band(case, boundary_weight)
    minimizers = []
    for k in tied:
        i, child, key, _ = instances[k]
        rbt = case.rooted[i].rbt
        if child is not None:
            rbt = _weighted_root_edge(rbt.tree, rbt.root, child, boundary_weight)
        minimizers.append(
            {
                "code": key if isinstance(key, str) else list(key),
                "nu": nus[k],
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


@dataclass(frozen=True, eq=False)
class _Partitions(Sequence[PartitionRow]):
    """explore_partitions' rows as columns, in CSV order: the sequence, the
    arrangements (_spines rows), their alphas and alphas as the CSV prints
    them, and for each its characteristic set, an edge or not and its
    first spine position, and whether spine vertex 0 is positive.  A row
    is built as a PartitionRow only when it is read."""

    seq: tuple[int, ...]
    spines: np.ndarray
    alphas: np.ndarray
    printed: list[str]
    edge: np.ndarray
    first: np.ndarray
    positive: np.ndarray

    def __len__(self) -> int:
        return len(self.spines)

    def __getitem__(self, i: int | slice) -> PartitionRow | list[PartitionRow]:
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        arr = tuple(self.spines[i].tolist())
        z = int(self.first[i])
        kind, ids = ("edge", (z, z + 1)) if self.edge[i] else ("vertex", (z,))
        # the part holding spine vertex 0 has the sign of its entry
        before, after = _split_spine(arr, ids)
        left, right = (before, after) if self.positive[i] else (after, before)
        pos = "|".join(map(str, ids))
        return PartitionRow(self.seq, arr, float(self.alphas[i]), kind, pos, left, right)


def explore_partitions(seq: Sequence[int]) -> Sequence[PartitionRow]:
    """One row per caterpillar spine arrangement: its algebraic
    connectivity, characteristic set, and the non-pendant degrees on the two
    sides, ordered outward.  Rows are sorted by alpha as the CSV prints it
    (12 significant digits), then by arrangement.  One batched bisection
    solves every arrangement; no Tree is built.

    The rows are columns over the arrangement array (_spines), which is in
    arrangement order, so one stable sort on the printed alphas orders
    them; each alpha is printed once, and a row is built when it is read.

    The explorer presents the partitions as data only; no pattern is
    assumed or checked.  Raises EnumerationCapExceeded when the spine
    degrees have more than CAP permutations.
    """
    seq = _tree_sequence(seq)
    spines = _capped_arrangements(seq)
    if spines.shape[1] < 2:
        # the single edge changes sign across itself; the star (alpha 1)
        # vanishes at its center
        edge = np.array([spines.shape[1] == 0])
        alphas, first, positive = np.where(edge, 2.0, 1.0), np.zeros(1, int), np.ones(1, bool)
    else:
        alphas, g, h = _caterpillar_fiedler(spines)
        edge, first = _caterpillar_charsets(g, h)
        positive = g[:, 0] > 0
    printed = [f"{alpha:.12g}" for alpha in alphas.tolist()]
    order = np.argsort(np.fromiter(map(float, printed), float, len(printed)), kind="stable")
    return _Partitions(
        seq,
        spines[order],
        alphas[order],
        [printed[i] for i in order.tolist()],
        edge[order],
        first[order],
        positive[order],
    )


CSV_HEADER = "sequence,arrangement,alpha,charset_kind,charset_pos,left_degrees,right_degrees"


def _joined(spines: np.ndarray, cells: np.ndarray) -> list[str]:
    """Each row of spines written as its degrees, each after a '|': the
    cells row of a degree is its text, zero padded, and one pass drops the
    zeros of every row and splits the rows at newlines."""
    k = len(spines)
    text = np.zeros((k, spines.shape[1] * cells.shape[1] + 1), np.uint8)
    text[:, :-1] = cells[spines].reshape(k, -1)
    text[:, -1] = ord("\n")
    text = text.ravel()
    return text[text != 0].tobytes().decode("ascii").split("\n")[:-1]


def partition_rows_to_csv(rows: _Partitions) -> str:
    """CSV of explore_partitions' rows, with degree lists encoded as
    '|'-separated integers, written from their columns.

    A side is the arrangement's text past the characteristic set, or its
    reversal's text past the spine positions from the set on; the text
    to skip is the widths of those degrees, each with its '|'."""
    if not isinstance(rows, _Partitions):
        raise TypeError(f"expected the rows of explore_partitions, got {type(rows).__name__}")
    spines, first = rows.spines, rows.first
    tokens = [f"|{d}" for d in range(int(spines.max(initial=0)) + 1)]
    cells = np.array(tokens, dtype="S").view(np.uint8).reshape(len(tokens), -1)
    width = np.array([len(t) for t in tokens])[spines]
    at = np.arange(spines.shape[1])
    after = 1 + (width * (at <= first[:, None])).sum(axis=1)
    before = 1 + (width * (at >= (first + rows.edge)[:, None])).sum(axis=1)
    seq = "|".join(map(str, rows.seq))
    labels = [[f"vertex,{z}", f"edge,{z}|{z + 1}"] for z in range(len(at) + 1)]
    lines = [CSV_HEADER]
    for arr, rev, alpha, e, z, i, j, positive in zip(
        _joined(spines, cells),
        _joined(spines[:, ::-1], cells),
        rows.printed,
        rows.edge.tolist(),
        first.tolist(),
        after.tolist(),
        before.tolist(),
        rows.positive.tolist(),
    ):
        left, right = (rev[j:], arr[i:]) if positive else (arr[i:], rev[j:])
        lines.append(f"{seq},{arr[1:]},{alpha},{labels[z][e]},{left},{right}")
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


#: the suites that read a case's free trees, its w0 = 1 rooted trees, and
#: their Dirichlet pairs (_rooted_pair)
_FREE_READERS = frozenset({"theorem1", "glue", "split"})
_ROOTED_READERS = frozenset({"lemma2", "lemma5", "perturb", "glue"})
_PAIR_READERS = frozenset({"lemma2", "perturb"})


@dataclass
class _Case:
    """One degree sequence, its canonical codes, sorted, the branch table,
    and what the suites read of it, solved with the rest of its layer
    (_layer) and shared by every suite:

    - free: the free trees with their (alpha, Fiedler vector) pairs;
    - splits: their geometric splits, with sides[i] the first Dirichlet
      eigenvalues of the positive and the negative side of the i-th, and
      glued[i] alpha of the glue of its two sides when it is Type II;
    - rooted: the w0 = 1 rooted trees (_Rooted), and moves, each one's
      pendant moves (_moves);
    - lemma5: the instances (_instances) of the rooted trees at each
      weight the layer ranks, and forks: those of the rooted trees whose
      root has two or more children at each of glue's weights, both by w0;
    - weighted: alpha of each weighted glue instance, keyed (w0, its
      _instances key)."""

    seq: tuple[int, ...]
    codes: list[str]
    table: dict
    free: list[tuple[Tree, tuple[float, np.ndarray]]] = field(default_factory=list)
    splits: list[tuple[Tree, float, GeometricSplit]] = field(default_factory=list)
    sides: dict[int, tuple[float, float]] = field(default_factory=dict)
    glued: dict[int, float] = field(default_factory=dict)
    rooted: list[_Rooted] = field(default_factory=list)
    moves: list[list[tuple[str, tuple, set[str]]]] = field(default_factory=list)
    lemma5: dict[float, list[tuple]] = field(default_factory=dict)
    forks: dict[float, list[tuple]] = field(default_factory=dict)
    weighted: dict[tuple[float, tuple[str, str]], float] = field(default_factory=dict)


#: the boundary weights at which lemma5 ranks the rooted trees
_LEMMA5_WEIGHTS = (1.0, 1.5, 3.0)


def _layer(
    seqs: Iterable[tuple[int, ...]],
    names: Collection[str],
    nmax: int,
    table: dict,
    weights: tuple[float, ...] = _LEMMA5_WEIGHTS,
) -> list[_Case]:
    """The _Case of each degree sequence of seqs, a layer of the stream
    up to nmax or a search's one sequence, with what the suites names read
    of them solved together in two rounds of stacked solves on one queue
    each (_BranchTable).  lemma5 ranks at weights.

    The first round solves the free trees (_Solves.fiedler), every branch
    table entry that the rooted trees' pairs, if a suite reads them, their
    instances (_instances) and the pendant moves will read, and glue's
    weighted trees: no suite solves an entry.  The second needs the
    first's Fiedler vectors: it solves the blocks of the split sides and
    the Type II glued trees.  Raises EnumerationCapExceeded before any
    word of a sequence is decoded when it has more than CAP skeleton
    words, at the first partial sum over CAP."""
    cases = []
    for seq in seqs:
        for total in accumulate(_word_counts(seq)):
            _check_cap(total, "skeleton words")
        cases.append(_Case(seq, sorted(canonical_tree_codes(seq)), table))
    solves = _BranchTable(table)
    free, weighted = [], []
    for case in cases:
        if not _FREE_READERS.isdisjoint(names):
            trees = [tree_from_code(code) for code in case.codes]
            free.append((case, trees, [solves.fiedler(t) for t in trees]))
        if _ROOTED_READERS.isdisjoint(names):
            continue
        units = case.rooted = _rooted_trees(case.seq, case.codes)
        keys = []
        if not _PAIR_READERS.isdisjoint(names):
            keys = [(code, 1.0) for r in units for _, code in r.children]
        if "lemma5" in names:
            case.lemma5 = {w0: _instances(units, w0) for w0 in weights}
        if "perturb" in names:
            case.moves = [_moves(r) for r in units]
            keys += [(code, 1.0) for moves in case.moves for *_, codes in moves for code in codes]
        if "glue" in names:
            # glue's weighted instances stop above n = nmax // 2 + 2
            for w0 in (1.0, 1.5, 2.0, 3.0) if len(case.seq) <= nmax // 2 + 2 else (1.0,):
                forks = [s for s in _instances(units, w0) if len(units[s[0]].children) >= 2]
                case.forks[w0] = forks
                for i, child, key, _ in forks:
                    if child is not None:
                        placed = _weighted_root_edge(units[i].rbt.tree, 0, child, w0).tree
                        weighted.append((case, (w0, key), solves.fiedler(placed)))
        solves.entry(keys)
        for instances in (*case.lemma5.values(), *case.forks.values()):
            solves.entry(key for *_, read in instances for key in read)
    solves.run()
    for case, trees, at in free:
        case.free = [(t, solves.pair(i)) for t, i in zip(trees, at)]
    for case, key, i in weighted:
        case.weighted[key] = solves.pair(i)[0]

    if {"glue", "split"}.isdisjoint(names):
        return cases
    solves = _Solves()
    sides, glued = [], []
    for case in cases:
        case.splits = [
            (t, alpha, geometric_split(t, _analysis(t, alpha, f))) for t, (alpha, f) in case.free
        ]
        for i, (_, _, split) in enumerate(case.splits):
            type2 = "glue" in names and split.w1 is not None
            if type2:
                glued.append((case, i, solves.fiedler(glue(split.neg, split.pos))))
            if type2 or "split" in names:
                sides.append((case, i, *map(solves.root_branches, (split.pos, split.neg))))
    solves.run()
    for case, i, at in glued:
        case.glued[i] = solves.pair(at)[0]
    for case, i, *parts in sides:
        case.sides[i] = tuple(float(min(solves.pair(at)[0] for _, at in side)) for side in parts)
    return cases


def _stream(
    nmax: int, names: Collection[str] = _FREE_READERS | _ROOTED_READERS
) -> Iterator[_Case]:
    """Each degree sequence with n = 2..nmax once, as a _Case with what the
    suites names read of it, a layer at a time (_layer) on one table."""
    table = {}
    for n in range(2, nmax + 1):
        yield from _layer(all_tree_sequences(n), names, nmax, table)


def _nu_band(case: _Case, w0: float) -> tuple[list[float], float, list[int]]:
    """The nu of each instance of case.lemma5[w0], the least, and the
    positions tied with it (_argmin): min_nu_rooted's and lemma5's ranking."""
    nus = [min(branches) for branches in _nus(case.table, case.lemma5[w0])]
    return nus, *_argmin(nus)


def _check_theorem1(case: _Case, out: dict) -> None:
    minimizers = _alpha_band(case.free)
    out["checked"] += len(minimizers)
    out["failures"] += [
        {"sequence": list(case.seq), "minimizer": m}
        for m in minimizers
        if not (m["is_caterpillar"] and m["is_theorem1_shape"])
    ]


def _check_lemma2(case: _Case, out: dict) -> None:
    out["checked"] += len(case.rooted)
    out["failures"] += [
        {
            "sequence": list(case.seq),
            "root": r.rbt.root,
            "edges": [[u, v] for u, v, _ in r.rbt.tree.edges],
        }
        for r in case.rooted
        if not check_monotone_paths(r.rbt, _rooted_pair(case.table, r)[1])
    ]


def _check_lemma5(case: _Case, out: dict) -> None:
    """The nu argmin at each of _LEMMA5_WEIGHTS, ranked as min_nu_rooted
    ranks it (_nu_band).  The predicted shape reads no weights, so it is
    decided once per w0 = 1 rooted tree."""
    shaped = [is_minimal_shape_rooted(r.rbt) for r in case.rooted]
    for w0, instances in case.lemma5.items():
        argmin = {str(instances[k][2]) for k in _nu_band(case, w0)[2]}
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


def _moves(r: _Rooted) -> list[tuple[str, tuple, set[str]]]:
    """Every legal P1 move and every P2 move at a trunk vertex past the
    root on r when it is a caterpillar rooted at a pendant or a spine end
    (_trunk_form), none otherwise, as (kind, its edges, the distinct rooted
    codes of the root's branches after it).  Each move is applied as an
    edit of the trunk's pendant counts (_TrunkForm.branches): no moved
    tree is built."""
    form = _trunk_form(r)
    if form is None:
        return []
    line = form.line
    pos = {v: i for i, v in enumerate(line)}
    moves = [
        ("P1", pos[vi], pos[vj], ((w, vi), (w, vj)))
        for w, vi, vj in _legal_p1_moves(r.rbt, line)
    ]
    moves += [("P2", None, j, ((line[j], r.rbt.tree.n),)) for j in range(1, len(line))]
    return [(kind, edges, set(form.branches(src, dst))) for kind, src, dst, edges in moves]


def _check_perturb(case: _Case, out: dict) -> None:
    """Every move of _moves on each w0 = 1 rooted tree of the stream.  nu
    before a move is the stream's, and nu after it is the least branch
    table entry over the root's branch codes after it."""
    for r, moves in zip(case.rooted, case.moves):
        before = _rooted_pair(case.table, r)[0]
        for kind, edges, codes in moves:
            after = min(case.table[code, 1.0][0] for code in codes)
            out["checked"] += 1
            out["moves"][kind] += 1
            out["min_relative_gap"] = min(out["min_relative_gap"], (before - after) / before)
            if not after < before - STRICT_MARGIN * before:
                record = PerturbationRecord(kind, before, after, edges)
                out["failures"].append({"code": r.code, **record.to_json()})


def _check_glue(case: _Case, out: dict) -> None:
    """alpha(glue(a, b)) <= max(nu(a), nu(b)), strictly when the two nus
    differ by more than 1e-8, on four kinds of case.

    unit: a rooted tree of the stream whose root has two or more children
    is the glue of any split of its branches into two sides, and the
    least bound over those splits, the least branch alone on one side, is
    its second-least branch nu.  Both nus come from the branch table and
    alpha from its free tree, so no solve is needed.  weighted: the same
    trees with n <= nmax // 2 + 2 carrying w0 = 1.5, 2 or 3 on the edge to
    each distinct child code (_instances), with the alphas the layer
    solved (_Case.weighted).  split: the two sides of each Type II tree's
    geometric split, whose boundary weights satisfy 1/w1 + 1/w2 = 1, with
    the side nus the split suite reads (_Case.sides) and the glued tree's
    alpha (_Case.glued).  equality: two rooted three-vertex paths glue
    into the five-vertex path, with alpha == nu; it is checked once, at
    the stream's first sequence."""

    def bound(kind: str, alpha: float, nu1: float, nu2: float, **where: object) -> None:
        out["checked"] += 1
        out["cases"][kind] += 1
        top = max(nu1, nu2)
        if not (alpha < top if abs(nu1 - nu2) > 1e-8 else alpha <= top + 1e-10):
            out["failures"].append({"case": kind, **where, "alpha": alpha, "nu1": nu1, "nu2": nu2})

    alphas = dict(zip(case.codes, (alpha for _, (alpha, _) in case.free)))
    for w0, instances in case.forks.items():
        for (i, child, key, _), nus in zip(instances, _nus(case.table, instances)):
            if child is None:
                alpha = alphas[canonical_code(case.rooted[i].rbt.tree)]
            else:
                alpha = case.weighted[w0, key]
            nu1, nu2 = sorted(nus)[:2]
            bound("unit" if child is None else "weighted", alpha, nu1, nu2, code=key, w0=w0)
    for i, alpha in case.glued.items():
        tree, _, split = case.splits[i]
        nu2, nu1 = case.sides[i]
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


def _check_split(case: _Case, out: dict) -> None:
    for i, (tree, alpha, split) in enumerate(case.splits):
        r1, r2 = verify_split(tree, split, alpha, case.sides[i])
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
#: (case, out) -> None, which adds to out's "checked" count and
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
    for case in _stream(nmax, names):
        for name in names:
            _CHECKS[name][1](case, outs[name])
    checks = [{"suite": name} | _report(_CHECKS[name][0], **outs[name]) for name in names]
    return {
        "suite": suite,
        "params": {"nmax": nmax},
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
