"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single pass/fail line.  Expected values come from
closed forms evaluated inline, never from the code paths under test.
"""

import math
import time

from fiedlertrees import (
    algebraic_connectivity,
    canonical_code,
    dirichlet_nu,
    glue,
    min_alpha_caterpillar,
    path_tree,
    verify_suite,
    with_boundary_weight,
)
from fiedlertrees.search import (
    explore_partitions,
    min_alpha_tree,
    partition_rows_to_csv,
)

from helpers import spider


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_acceptance_1_closed_form_spectra():
    start = time.perf_counter()
    failures = []
    for n in range(2, 51):
        alpha, _ = algebraic_connectivity(path_tree(n))
        expected = 2.0 * (1.0 - math.cos(math.pi / n))
        if abs(alpha - expected) > 1e-9 * expected:
            failures.append(("alpha", n, alpha, expected))
    a4, _ = algebraic_connectivity(path_tree(4))
    if abs(a4 - (2.0 - math.sqrt(2.0))) > 1e-9 * a4:
        failures.append(("alpha_p4", a4))
    a5, _ = algebraic_connectivity(path_tree(5))
    if abs(a5 - 2.0 * (1.0 - math.cos(math.pi / 5))) > 1e-9 * a5:
        failures.append(("alpha_p5", a5))
    for m in range(1, 26):
        nu, _ = dirichlet_nu(with_boundary_weight(path_tree(m + 1), 0, 1.0))
        expected = 2.0 * (1.0 - math.cos(math.pi / (2 * m + 1)))
        if abs(nu - expected) > 1e-9 * expected:
            failures.append(("nu", m, nu, expected))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _report(1, "closed-form path spectra", ok, f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0


def test_acceptance_2_split_identity():
    start = time.perf_counter()
    # every tree on up to 12 vertices: 986 trees (A000055, n = 2..12)
    check = verify_suite("split", nmax=12)["checks"][0]
    passed = check["passed"]
    worst = check["worst_residual"]
    elapsed = time.perf_counter() - start
    ok = passed and elapsed < 120.0
    _report(
        2,
        "geometric split reproduces alpha",
        ok,
        f"{check['checked']} trees, worst residual {worst:.2e}, {elapsed:.2f}s",
    )
    assert passed, check["failures"]
    assert worst <= 1e-8
    assert elapsed < 120.0


def test_acceptance_3_monotone_eigenvectors():
    start = time.perf_counter()
    report = verify_suite("lemma2", nmax=9)
    check = report["checks"][0]
    elapsed = time.perf_counter() - start
    ok = report["passed"] and elapsed < 120.0
    _report(
        3,
        "Dirichlet eigenvectors grow along root paths",
        ok,
        f"{check['checked']} rooted trees, {elapsed:.2f}s",
    )
    assert report["passed"], check["failures"]
    assert elapsed < 120.0


def test_acceptance_4_perturbations_strictly_decrease():
    start = time.perf_counter()
    # every legal P1 and P2 move on the rooted caterpillars with n <= 10:
    # 4,943 P1 and 2,762 P2 moves
    check = verify_suite("perturb", nmax=10)["checks"][0]
    passed = check["passed"]
    gap = check["min_relative_gap"]
    elapsed = time.perf_counter() - start
    ok = passed and elapsed < 60.0
    _report(
        4,
        "pendant moves strictly decrease nu",
        ok,
        f"{check['checked']} moves, min gap {gap:.2e}, {elapsed:.2f}s",
    )
    assert passed, check["failures"]
    assert gap > 1e-10
    assert check["moves"] == {"P1": 4943, "P2": 2762}
    assert math.isclose(gap, 5.97e-3, rel_tol=0.05)
    assert elapsed < 60.0


def test_acceptance_5_rooted_minimizer_characterization():
    start = time.perf_counter()
    report = verify_suite("lemma5", nmax=8)
    check = report["checks"][0]
    elapsed = time.perf_counter() - start
    ok = report["passed"] and elapsed < 600.0
    _report(
        5,
        "nu argmin equals the monotone rooted-caterpillar shape",
        ok,
        f"{check['checked']} (sequence, w0) classes, {elapsed:.2f}s",
    )
    assert report["passed"], check["failures"]
    assert elapsed < 600.0


def test_acceptance_6_glue_inequality():
    start = time.perf_counter()
    report = verify_suite("glue")
    check = report["checks"][0]

    side = with_boundary_weight(path_tree(3), 0, 1.0)
    nu, _ = dirichlet_nu(side)
    alpha, _ = algebraic_connectivity(glue(side, side))
    expected = (3.0 - math.sqrt(5.0)) / 2.0
    equality_ok = abs(alpha - expected) <= 1e-10 and abs(nu - expected) <= 1e-10

    elapsed = time.perf_counter() - start
    ok = report["passed"] and equality_ok and elapsed < 60.0
    _report(
        6,
        "glued alpha bounded by the larger side nu",
        ok,
        f"{check['checked']} cases, equality case alpha={alpha:.10f}, {elapsed:.2f}s",
    )
    assert report["passed"], check["failures"]
    assert equality_ok, (alpha, nu, expected)
    assert elapsed < 60.0


def test_acceptance_7_minimizers_are_monotone_caterpillars():
    start = time.perf_counter()
    report = verify_suite("theorem1", nmax=9)
    check = report["checks"][0]

    rep = min_alpha_tree((3, 2, 2, 2, 1, 1, 1))
    spider_code = canonical_code(spider(2, 2, 2))
    spider_excluded = spider_code not in [m["code"] for m in rep.minimizers]

    elapsed = time.perf_counter() - start
    ok = report["passed"] and spider_excluded and elapsed < 900.0
    _report(
        7,
        "alpha minimizers are monotone caterpillars",
        ok,
        f"{check['checked']} minimizers, spider excluded: {spider_excluded}, {elapsed:.2f}s",
    )
    assert report["passed"], check["failures"]
    assert spider_excluded
    assert elapsed < 900.0


ACCEPTANCE_8_INTERIORS = [
    (2, 2),
    (3, 2),
    (3, 3),
    (4, 2),
    (2, 2, 2),
    (3, 2, 2),
    (3, 3, 2),
    (4, 2, 2),
    (4, 3, 2),
    (3, 3, 3),
    (2, 2, 2, 2),
    (3, 2, 2, 2),
    (3, 3, 2, 2),
    (4, 2, 2, 2),
    (4, 3, 3, 2),
    (5, 2, 2, 2),
    (4, 4, 2, 2),
    (3, 3, 2, 2, 2, 2),
    (4, 3, 2, 2, 2, 2, 2),
    (3, 3, 2, 2, 2, 2, 2, 2),
]


def _sequence_for_interior(interior):
    pendants = sum(d - 2 for d in interior) + 2
    return tuple(sorted(list(interior) + [1] * pendants, reverse=True))


def test_acceptance_8_partition_explorer():
    start = time.perf_counter()
    assert len(ACCEPTANCE_8_INTERIORS) == 20
    failures = []
    for interior in ACCEPTANCE_8_INTERIORS:
        seq = _sequence_for_interior(interior)
        rows = explore_partitions(seq)
        text = partition_rows_to_csv(rows)
        lines = text.strip().split("\n")
        if lines[0] != (
            "sequence,arrangement,alpha,charset_kind,charset_pos,"
            "left_degrees,right_degrees"
        ):
            failures.append((seq, "bad header"))
        if any(len(line.split(",")) != 7 for line in lines[1:]):
            failures.append((seq, "bad row width"))
        rep = min_alpha_caterpillar(seq)
        if abs(rows[0].alpha - rep.min_value) > 1e-9 * rep.min_value:
            failures.append((seq, "argmin mismatch", rows[0].alpha, rep.min_value))
        arrangements = {tuple(m["arrangement"]) for m in rep.minimizers}
        if rows[0].arrangement not in arrangements:
            failures.append((seq, "argmin arrangement missing"))
        if text != partition_rows_to_csv(explore_partitions(seq)):
            failures.append((seq, "rerun not byte-identical"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(
        8,
        "partition explorer CSV matches the caterpillar argmin",
        ok,
        f"{len(ACCEPTANCE_8_INTERIORS)} sequences, {elapsed:.2f}s",
    )
    assert not failures, failures
    assert elapsed < 300.0
