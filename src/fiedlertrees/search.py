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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .enumeration import (
    _boundary_placements,
    _multiset_permutations,
    _permutation_count,
    canonical_code,
    canonical_tree_codes,
    enumerate_rooted_trees,
    prufer_count,
    prufer_decode,
    rooted_canonical_key,
    tree_from_code,
)
from .nodal import (
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
from .spectral import _caterpillar_fiedler, algebraic_connectivity, dirichlet_nu
from .trees import (
    RootedBoundaryTree,
    Tree,
    build_caterpillar,
    is_caterpillar,
    path_tree,
    spine_path,
    trunk,
    validate_tree_sequence,
    with_boundary_weight,
)

#: two values are co-minimal when they agree to this relative tolerance
TIE_RTOL = 1e-9

#: a perturbation must decrease nu by more than this relative margin
STRICT_MARGIN = 1e-10

#: a search refuses a class with more candidates than this to walk:
#: Prufer words to decode, or spine permutations
CAP = 10_000_000

SUITES = ("theorem1", "lemma2", "lemma5", "perturb", "glue", "split", "all")


class EnumerationCapExceeded(RuntimeError):
    """The enumeration would walk more than CAP candidates."""


@dataclass
class SearchReport:
    """Result of one exhaustive search.

    minimizers holds one dict per argmin instance carrying its canonical
    code, edge list, and the structural predicate evaluations relevant to
    the search kind.  Every minimizer value is within TIE_RTOL relative of
    min_value.
    """

    sequence: tuple[int, ...]
    min_value: float
    minimizers: list[dict]
    instance_count: int
    elapsed: float
    all_caterpillars: bool | None = None
    all_theorem1_shape: bool | None = None
    all_minimal_shape: bool | None = None
    boundary_weight: float | None = None

    def to_json(self) -> dict:
        out = {
            "sequence": list(self.sequence),
            "min_value": float(self.min_value),
            "instance_count": self.instance_count,
            "minimizers": self.minimizers,
        }
        for key in ("all_caterpillars", "all_theorem1_shape", "all_minimal_shape"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.boundary_weight is not None:
            out["boundary_weight"] = float(self.boundary_weight)
        out["elapsed"] = float(self.elapsed)
        return out


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


def _require_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(int(d) for d in seq)
    if not validate_tree_sequence(seq):
        raise ValueError(f"invalid tree sequence {seq}")
    return tuple(sorted(seq, reverse=True))


def _tied(value: float, minimum: float) -> bool:
    return value <= minimum + TIE_RTOL * abs(minimum)


def _check_cap(total: int, candidates: str) -> None:
    if total > CAP:
        raise EnumerationCapExceeded(f"{total} {candidates} exceed the cap {CAP}")


def _capped_codes(seq: tuple[int, ...]) -> set[str]:
    """canonical_tree_codes(seq).  Raises EnumerationCapExceeded before any
    word is decoded when seq has more than CAP Prufer words."""
    _check_cap(prufer_count(seq), "labeled decodings")
    return canonical_tree_codes(seq)


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
    than CAP Prufer words; the caterpillar-restricted search
    (min_alpha_caterpillar) handles those sequences.
    """
    start = time.perf_counter()
    seq = _require_sequence(seq)
    if codes is None:
        codes = _capped_codes(seq)
    values = {code: algebraic_connectivity(tree_from_code(code))[0] for code in codes}
    minimum = min(values.values())
    minimizers = []
    for code in sorted(c for c, v in values.items() if _tied(v, minimum)):
        tree = tree_from_code(code)
        cat = is_caterpillar(tree)
        shape = is_theorem1_shape(tree, analyze(tree))
        minimizers.append(
            {
                "code": code,
                "alpha": values[code],
                "edges": [[u, v] for u, v, _ in tree.edges],
                "is_caterpillar": cat,
                "is_theorem1_shape": shape,
            }
        )
    return SearchReport(
        sequence=seq,
        min_value=minimum,
        minimizers=minimizers,
        instance_count=len(values),
        elapsed=time.perf_counter() - start,
        all_caterpillars=all(m["is_caterpillar"] for m in minimizers),
        all_theorem1_shape=all(m["is_theorem1_shape"] for m in minimizers),
    )


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
    bisection ranks every arrangement; only those near the minimum get a
    Tree and the dense solve whose values the report carries.

    Raises EnumerationCapExceeded when the spine degrees have more than
    CAP permutations."""
    start = time.perf_counter()
    seq = _require_sequence(seq)
    arrangements = _capped_arrangements(seq)
    band = arrangements
    if len(arrangements) > 1:  # one arrangement needs no ranking; m <= 1 has one
        approx = _caterpillar_fiedler(np.array(arrangements))[0]
        least = float(approx.min())
        # bisection and eigh each put alpha within ||L||_1 n eps of the
        # exact value (||L||_1 = 2 max degree), so they differ by at most
        # twice that, and an arrangement tied with the eigh minimum has a
        # bisected alpha at most TIE_RTOL least + 3 times that above least
        slack = 3.0 * 2.0 * (2 * seq[0]) * len(seq) * sys.float_info.epsilon
        top = least + TIE_RTOL * least + slack
        band = [arr for arr, value in zip(arrangements, approx.tolist()) if value <= top]
    values: list[tuple[tuple[int, ...], Tree, float]] = []
    for arr in band:
        tree = build_caterpillar(arr)
        values.append((arr, tree, algebraic_connectivity(tree)[0]))
    minimum = min(v for _, _, v in values)
    minimizers = []
    for arr, tree, value in values:
        if not _tied(value, minimum):
            continue
        minimizers.append(
            {
                "code": canonical_code(tree),
                "alpha": value,
                "arrangement": list(arr),
                "edges": [[u, v] for u, v, _ in tree.edges],
                "is_caterpillar": True,
                "is_theorem1_shape": is_theorem1_shape(tree, analyze(tree)),
            }
        )
    minimizers.sort(key=lambda m: m["code"])
    return SearchReport(
        sequence=seq,
        min_value=minimum,
        minimizers=minimizers,
        instance_count=len(arrangements),
        elapsed=time.perf_counter() - start,
        all_caterpillars=True,
        all_theorem1_shape=all(m["is_theorem1_shape"] for m in minimizers),
    )


def min_nu_rooted(seq: Sequence[int], boundary_weight: float = 1.0) -> SearchReport:
    """Argmin set of the first Dirichlet eigenvalue over every rooted tree
    with the given degree multiset.  Raises EnumerationCapExceeded when
    the enumeration would decode more than CAP Prufer words."""
    start = time.perf_counter()
    seq = _require_sequence(seq)
    instances = []
    for rbt in enumerate_rooted_trees(seq, boundary_weight, codes=_capped_codes(seq)):
        nu, _ = dirichlet_nu(rbt)
        instances.append((rbt, nu))
    minimum = min(v for _, v in instances)
    minimizers = []
    for rbt, value in instances:
        if not _tied(value, minimum):
            continue
        key = rooted_canonical_key(rbt)
        minimizers.append(
            {
                "code": key if isinstance(key, str) else list(key),
                "nu": value,
                "root": rbt.root,
                "edges": [[u, v, w] for u, v, w in rbt.tree.edges],
                "is_minimal_shape": is_minimal_shape_rooted(rbt),
            }
        )
    minimizers.sort(key=lambda m: str(m["code"]))
    return SearchReport(
        sequence=seq,
        min_value=minimum,
        minimizers=minimizers,
        instance_count=len(instances),
        elapsed=time.perf_counter() - start,
        all_minimal_shape=all(m["is_minimal_shape"] for m in minimizers),
        boundary_weight=boundary_weight,
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
    seq = _require_sequence(seq)
    arrangements = _capped_arrangements(seq)
    if len(arrangements[0]) < 2:
        # the single edge changes sign across itself; the star (alpha 1)
        # vanishes at its center
        arr = arrangements[0]
        alpha, kind, pos = (1.0, "vertex", "0") if arr else (2.0, "edge", "0|1")
        return [PartitionRow(seq, arr, alpha, kind, pos, (), ())]
    alphas, g, h = _caterpillar_fiedler(np.array(arrangements))
    rows = []
    for arr, alpha, cs, g0 in zip(
        arrangements,
        alphas.tolist(),
        _caterpillar_charsets(g, h),
        g[:, 0].tolist(),
    ):
        # spine degrees before and after the characteristic set, outward
        # (an edge's ends belong to the sides, a vertex to neither); the
        # part holding spine vertex 0 has the sign of its entry
        before, after = arr[: max(cs.ids)][::-1], arr[min(cs.ids) + 1 :]
        left, right = (before, after) if g0 > 0 else (after, before)
        rows.append(
            PartitionRow(
                sequence=seq,
                arrangement=arr,
                alpha=alpha,
                charset_kind=cs.kind,
                charset_pos="|".join(str(i) for i in sorted(cs.ids)),
                left_degrees=left,
                right_degrees=right,
            )
        )
    rows.sort(key=lambda r: (float(f"{r.alpha:.12g}"), r.arrangement))
    return rows


CSV_HEADER = "sequence,arrangement,alpha,charset_kind,charset_pos,left_degrees,right_degrees"


def partition_rows_to_csv(rows: Sequence[PartitionRow]) -> str:
    """CSV with degree lists encoded as '|'-separated integers."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    "|".join(str(d) for d in r.sequence),
                    "|".join(str(d) for d in r.arrangement),
                    f"{r.alpha:.12g}",
                    r.charset_kind,
                    r.charset_pos,
                    "|".join(str(d) for d in r.left_degrees),
                    "|".join(str(d) for d in r.right_degrees),
                ]
            )
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


def _fail_list(failures: list, limit: int = 20) -> list:
    return failures[:limit]


class _DegreeSequence:
    """One degree sequence of the verify stream: its canonical codes,
    sorted, and the w0 = 1 rooted trees with their Dirichlet pairs, solved
    on first use.  The enumeration suites share both, and lemma5 places
    its other boundary weights on those trees; nothing outlives the
    sequence.  Raises EnumerationCapExceeded before any word is decoded
    when seq has more than CAP Prufer words."""

    def __init__(self, seq: tuple[int, ...]) -> None:
        self.seq = seq
        self.codes = sorted(_capped_codes(seq))

    @cached_property
    def rooted_unit(self) -> list[tuple[RootedBoundaryTree, float, np.ndarray]]:
        return [
            (rbt, *dirichlet_nu(rbt))
            for rbt in enumerate_rooted_trees(self.seq, 1.0, codes=self.codes)
        ]


class _EnumerationSuite:
    """A suite that checks every degree sequence with n = 2..nmax, one
    sequence at a time, as the verify stream hands them over."""

    name = ""

    def __init__(self, nmax: int, **_: object) -> None:
        self.nmax = nmax
        self.checked = 0
        self.failures: list = []

    def step(self, s: _DegreeSequence) -> None:
        raise NotImplementedError

    def report(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": _fail_list(self.failures),
            "passed": not self.failures,
        }


class _Theorem1(_EnumerationSuite):
    name = "alpha minimizers are monotone caterpillars"

    def step(self, s: _DegreeSequence) -> None:
        report = min_alpha_tree(s.seq, codes=s.codes)
        self.checked += len(report.minimizers)
        for m in report.minimizers:
            if not (m["is_caterpillar"] and m["is_theorem1_shape"]):
                self.failures.append({"sequence": list(s.seq), "minimizer": m})


class _Lemma2(_EnumerationSuite):
    name = "first Dirichlet eigenvectors grow along root paths"

    def step(self, s: _DegreeSequence) -> None:
        for rbt, _, vec in s.rooted_unit:
            self.checked += 1
            if not check_monotone_paths(rbt, vec):
                self.failures.append(
                    {
                        "sequence": list(s.seq),
                        "root": rbt.root,
                        "edges": [[u, v] for u, v, _ in rbt.tree.edges],
                    }
                )


class _Lemma5(_EnumerationSuite):
    name = "nu argmin equals the monotone pendant-rooted caterpillar shape"

    def step(self, s: _DegreeSequence) -> None:
        for w0 in (1.0, 1.5, 3.0):
            if w0 == 1.0:
                instances = [
                    (rbt, rooted_canonical_key(rbt), nu) for rbt, nu, _ in s.rooted_unit
                ]
            else:
                instances = [
                    (placed, key, dirichlet_nu(placed)[0])
                    for rbt, _, _ in s.rooted_unit
                    for placed, key in _boundary_placements(rbt, w0)
                ]
            minimum = min(v for _, _, v in instances)
            argmin = set()
            predicted = set()
            for rbt, key, nu in instances:
                key = str(key)
                if _tied(nu, minimum):
                    argmin.add(key)
                if is_minimal_shape_rooted(rbt):
                    predicted.add(key)
            self.checked += 1
            if argmin != predicted:
                self.failures.append(
                    {
                        "sequence": list(s.seq),
                        "w0": w0,
                        "argmin_only": sorted(argmin - predicted),
                        "predicted_only": sorted(predicted - argmin),
                    }
                )


class _Split(_EnumerationSuite):
    """Every tree with n <= min(nmax, 8) from the stream, then samples
    random trees with n <= nmax."""

    name = "split sides reproduce alpha as their first Dirichlet eigenvalue"

    def __init__(self, nmax: int, samples: int, rng_seed: int, **_: object) -> None:
        super().__init__(min(nmax, 8))
        self.sample_nmax = nmax
        self.samples = samples
        self.rng_seed = rng_seed
        self.worst = 0.0

    def _check(self, tree: Tree) -> None:
        analysis = analyze(tree)
        split = geometric_split(tree, analysis)
        r1, r2 = verify_split(tree, split, analysis.alpha)
        self.checked += 1
        self.worst = max(self.worst, r1, r2)
        if r1 > 1e-8 or r2 > 1e-8:
            self.failures.append(
                {
                    "edges": [[u, v] for u, v, _ in tree.edges],
                    "alpha": analysis.alpha,
                    "residuals": [r1, r2],
                }
            )

    def step(self, s: _DegreeSequence) -> None:
        for code in s.codes:
            self._check(tree_from_code(code))

    def report(self) -> dict:
        rng = _suite_rng(self.rng_seed, "split")
        for _ in range(self.samples):
            self._check(random_tree(rng, rng.randint(2, self.sample_nmax)))
        return {
            "name": self.name,
            "checked": self.checked,
            "worst_residual": self.worst,
            "failures": _fail_list(self.failures),
            "passed": not self.failures,
        }


def _run_stream(suites: Sequence[_EnumerationSuite]) -> None:
    """Enumerate each degree sequence once, for n = 2 up to the largest
    nmax of the suites, and hand it to every suite whose range holds n."""
    for n in range(2, max(s.nmax for s in suites) + 1):
        readers = [s for s in suites if n <= s.nmax]
        for seq in all_tree_sequences(n):
            item = _DegreeSequence(seq)
            for suite in readers:
                suite.step(item)


def _suite_perturb(samples: int, rng_seed: int, **_: object) -> dict:
    rng = _suite_rng(rng_seed, "perturb")
    failures = []
    records = []
    done_p1 = done_p2 = 0
    attempts = 0
    while done_p1 < samples or done_p2 < samples:
        attempts += 1
        if attempts > 100 * samples:  # pragma: no cover - sampling stall
            raise RuntimeError("could not sample enough legal perturbations")
        rbt = random_rooted_caterpillar(rng)
        before, _ = dirichlet_nu(rbt)
        if done_p1 < samples:
            moves = _legal_p1_moves(rbt)
            if moves:
                w, vi, vj = rng.choice(moves)
                after, _ = dirichlet_nu(perturb_p1(rbt, w, vi, vj))
                rec = PerturbationRecord("P1", before, after, ((w, vi), (w, vj)))
                records.append(rec)
                done_p1 += 1
                if not after < before - STRICT_MARGIN * before:
                    failures.append(rec.to_json())
        if done_p2 < samples:
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
    return {
        "name": "pendant moves strictly decrease nu",
        "checked": len(records),
        "min_relative_gap": min(gaps),
        "failures": _fail_list(failures),
        "passed": not failures,
    }


def _suite_glue(samples: int, rng_seed: int, nmax: int = 9, **_: object) -> dict:
    rng = _suite_rng(rng_seed, "glue")
    failures = []
    checked = 0
    for _ in range(samples):
        n1 = rng.randint(2, max(3, nmax // 2 + 2))
        n2 = rng.randint(2, max(3, nmax // 2 + 2))
        w0 = rng.choice([1.0, 1.5, 2.0, 3.0])
        a = random_rooted_tree(rng, n1, w0)
        b = random_rooted_tree(rng, n2, rng.choice([1.0, 1.5, 2.0, 3.0]))
        nu1, _ = dirichlet_nu(a)
        nu2, _ = dirichlet_nu(b)
        alpha, _ = algebraic_connectivity(glue(a, b))
        top = max(nu1, nu2)
        checked += 1
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
    return {
        "name": "gluing bounds alpha by the larger side nu",
        "checked": checked + 1,
        "failures": _fail_list(failures),
        "passed": not failures,
    }


_STREAM_SUITES = {
    "theorem1": _Theorem1,
    "lemma2": _Lemma2,
    "lemma5": _Lemma5,
    "split": _Split,
}
_SAMPLE_SUITES = {"perturb": _suite_perturb, "glue": _suite_glue}


def verify_suite(
    suite: str,
    nmax: int = 8,
    samples: int = 100,
    rng_seed: int = 0,
) -> dict:
    """Run one named verification suite (or "all") and return a
    machine-readable report.  Deterministic for fixed arguments.

    theorem1, lemma2, lemma5 and split read one stream that enumerates
    each degree sequence once; perturb, glue and split's random trees
    are drawn afterwards, each from its own seeded generator."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if nmax < 2:
        raise ValueError(f"nmax must be >= 2, got {nmax}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    params = {"nmax": nmax, "samples": samples, "rng_seed": rng_seed}
    stream = {
        name: _STREAM_SUITES[name](**params) for name in names if name in _STREAM_SUITES
    }
    if stream:
        _run_stream(list(stream.values()))
    checks = [
        {"suite": name}
        | (stream[name].report() if name in stream else _SAMPLE_SUITES[name](**params))
        for name in names
    ]
    return {
        "suite": suite,
        "params": params,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
