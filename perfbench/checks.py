"""Checks of the program's outputs against computations made apart from it
(networkx trees, scipy and numpy eigensolves on Laplacians built here) and
against properties the method must have.  Nothing is compared with a
stored copy of an earlier output.

``Checker.check(op, text)`` returns a list of error strings, empty when
the output of one operation is right; ``Checker.check_pass`` adds the
checks that relate several outputs of one pass.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.linalg

from workloads import caterpillar_edges

#: two values are co-minimal when they agree to this relative tolerance
TIE_RTOL = 1e-9
#: floats in the outputs carry 12 significant digits
PRINT_RTOL = 1e-11
#: split sides reproduce alpha to this relative distance
SPLIT_RTOL = 1e-8
EPS = np.finfo(float).eps

SUITES = {"theorem1", "lemma2", "lemma5", "perturb", "glue", "split"}
CSV_FIELDS = ["sequence", "arrangement", "alpha", "charset_kind", "charset_pos",
              "left_degrees", "right_degrees"]


# ---------------------------------------------------------------------------
# independent computations


def laplacian(n: int, edges) -> np.ndarray:
    """Dense weighted Laplacian from (u, v[, w]) edges."""
    lap = np.zeros((n, n))
    for e in edges:
        u, v = int(e[0]), int(e[1])
        w = float(e[2]) if len(e) > 2 else 1.0
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def eigenvalue(m: np.ndarray, index: int) -> float:
    return float(scipy.linalg.eigh(m, eigvals_only=True, subset_by_index=[index, index])[0])


def lambda2(g: nx.Graph) -> float:
    nodes = sorted(g)
    pos = {v: i for i, v in enumerate(nodes)}
    return eigenvalue(laplacian(len(nodes), [(pos[u], pos[v]) for u, v in g.edges()]), 1)


def read_edge_file(path: str) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            u, v = line.split()[:2]
            edges.append((int(u), int(v)))
    return len(edges) + 1, edges


def spine(g: nx.Graph) -> list[int] | None:
    """Non-leaf vertices in path order, or None when g is no caterpillar."""
    inner = g.subgraph(v for v in g if g.degree(v) > 1)
    if inner.number_of_nodes() <= 1:
        return list(inner)
    if not nx.is_connected(inner) or max(d for _, d in inner.degree()) > 2:
        return None
    start = min(v for v, d in inner.degree() if d == 1)
    return list(nx.dfs_preorder_nodes(inner, start))


def is_valley(values) -> bool:
    """Non-increasing, then non-decreasing: what Theorem 1 asks of the
    spine degrees of a minimiser, read from one end to the other."""
    rising = False
    for a, b in zip(values, values[1:]):
        if b > a:
            rising = True
        elif b < a and rising:
            return False
    return True


def non_decreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def arrangement_count(interior) -> int:
    """Spine arrangements up to reversal, in closed form: multiset
    permutations plus palindromes, halved."""
    counts = Counter(interior).values()
    m = len(interior)
    perms = factorial(m) // prod(factorial(c) for c in counts)
    odd = sum(c % 2 for c in counts)
    palindromes = factorial(m // 2) // prod(factorial(c // 2) for c in counts) if odd <= m % 2 else 0
    return (perms + palindromes) // 2


def caterpillar_alphas(interior) -> dict[tuple[int, ...], float]:
    """lambda_2 of the caterpillar of every spine arrangement (one of each
    mirror pair), in one batched numpy solve."""
    arrs = sorted({min(p, p[::-1]) for p in set(permutations(sorted(interior)))})
    n = len(interior) + 2 + sum(d - 2 for d in interior)
    laps = np.zeros((len(arrs), n, n))
    for k, arr in enumerate(arrs):
        laps[k] = laplacian(n, caterpillar_edges(arr))
    values = np.linalg.eigvalsh(laps)[:, 1]
    return {arr: float(v) for arr, v in zip(arrs, values)}


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _tied(value: float, minimum: float) -> bool:
    return value <= minimum * (1 + TIE_RTOL)


# ---------------------------------------------------------------------------


class Checker:
    """Checks outputs, caching the independent reference per input."""

    def __init__(self) -> None:
        self._trees: dict[int, dict] = {}
        self._cats: dict[tuple, dict] = {}
        self._graphs: dict[str, dict] = {}
        self._verdicts: dict[tuple, list[str]] = {}

    def check(self, op: dict, text: str) -> list[str]:
        key = (json.dumps(op, sort_keys=True), text)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = getattr(self, "_" + op["kind"].replace("-", "_"))(op, text)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self._verdicts[key] = [f"malformed output: {exc!r}"]
        return [f"{' '.join(op['argv'])}: {e}" for e in self._verdicts[key]]

    def check_pass(self, ops: list[dict], texts: list[str]) -> list[str]:
        """explore's first row must carry the min-cat minimum.  The text of
        an operation that failed is None."""
        errors = []
        mins, firsts = {}, {}
        for op, text in zip(ops, texts):
            if text is None:
                continue
            try:
                if op["kind"] == "min-cat":
                    mins[tuple(op["seq"])] = json.loads(text)["min_value"]
                elif op["kind"] == "explore":
                    firsts[tuple(op["seq"])] = float(next(csv.DictReader(io.StringIO(text)))["alpha"])
            except (KeyError, ValueError, StopIteration) as exc:
                errors.append(f"{op['kind']} {op['seq']}: malformed output: {exc!r}")
        for seq, first in firsts.items():
            if seq in mins and not _close(first, mins[seq], TIE_RTOL):
                errors.append(f"explore {list(seq)}: first alpha {first} != min-cat minimum {mins[seq]}")
        return errors

    # -- exhaustive ------------------------------------------------------

    def _trees_by_sequence(self, n: int) -> dict:
        if n not in self._trees:
            groups: dict[tuple, list] = {}
            for g in nx.nonisomorphic_trees(n):
                seq = tuple(sorted((d for _, d in g.degree()), reverse=True))
                groups.setdefault(seq, []).append(lambda2(g))
            self._trees[n] = groups
        return self._trees[n]

    def _min_tree(self, op, text) -> list[str]:
        seq = tuple(op["seq"])
        out = json.loads(text)
        values = self._trees_by_sequence(len(seq))[seq]
        ref = min(values)
        errors = []
        if out["instance_count"] != len(values):
            errors.append(f"instance_count {out['instance_count']} != {len(values)} networkx trees")
        if not _close(out["min_value"], ref, TIE_RTOL):
            errors.append(f"min_value {out['min_value']} != {ref}")
        band = sum(_tied(v, ref) for v in values)
        if len(out["minimizers"]) != band:
            errors.append(f"{len(out['minimizers'])} minimizers, {band} trees tie for the minimum")
        for m in out["minimizers"]:
            g = nx.Graph([tuple(e) for e in m["edges"]])
            degrees = tuple(sorted((d for _, d in g.degree()), reverse=True))
            if not nx.is_tree(g) or degrees != seq:
                errors.append(f"minimizer {m['code']} is no tree with sequence {list(seq)}")
                continue
            lam = lambda2(g)
            if not _tied(lam, ref * (1 + PRINT_RTOL)):
                errors.append(f"minimizer {m['code']} has lambda_2 {lam} above the minimum {ref}")
            path = spine(g)
            if path is None:
                errors.append(f"minimizer {m['code']} is not a caterpillar")
            elif not is_valley([g.degree(v) for v in path]):
                errors.append(f"minimizer {m['code']} spine degrees are not monotone away from the middle")
            if m["is_theorem1_shape"] is not True:
                errors.append(f"minimizer {m['code']} reports is_theorem1_shape false")
        return errors

    # -- caterpillar -----------------------------------------------------

    def _arrangements(self, seq) -> dict:
        interior = tuple(sorted(d for d in seq if d >= 2))
        if interior not in self._cats:
            self._cats[interior] = caterpillar_alphas(interior)
        return self._cats[interior]

    def _min_cat(self, op, text) -> list[str]:
        seq = op["seq"]
        out = json.loads(text)
        ref = self._arrangements(seq)
        count = arrangement_count([d for d in seq if d >= 2])
        errors = []
        if len(ref) != count:
            errors.append(f"benchmark error: {len(ref)} arrangements enumerated, closed form {count}")
        if out["instance_count"] != count:
            errors.append(f"instance_count {out['instance_count']} != closed form {count}")
        minimum = min(ref.values())
        if not _close(out["min_value"], minimum, TIE_RTOL):
            errors.append(f"min_value {out['min_value']} != {minimum}")
        band = {a for a, v in ref.items() if _tied(v, minimum)}
        got = {tuple(m["arrangement"]) for m in out["minimizers"]}
        if got != band:
            errors.append(f"minimizer arrangements {sorted(got)} != tie band {sorted(band)}")
        for m in out["minimizers"]:
            g = nx.Graph([tuple(e) for e in m["edges"]])
            path = spine(g) if nx.is_tree(g) else None
            if path is None or [g.degree(v) for v in path] not in (m["arrangement"], m["arrangement"][::-1]):
                errors.append(f"minimizer edges do not form the caterpillar {m['arrangement']}")
            if not is_valley(m["arrangement"]):
                errors.append(f"minimizer {m['arrangement']} is not monotone away from the middle")
            if m["is_theorem1_shape"] is not True:
                errors.append(f"minimizer {m['arrangement']} reports is_theorem1_shape false")
        return errors

    def _explore(self, op, text) -> list[str]:
        ref = self._arrangements(op["seq"])
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != CSV_FIELDS:
            return [f"header {reader.fieldnames} != {CSV_FIELDS}"]
        rows = list(reader)
        errors = []
        arrs = [tuple(int(d) for d in r["arrangement"].split("|")) for r in rows]
        if len(rows) != arrangement_count([d for d in op["seq"] if d >= 2]) or set(arrs) != set(ref):
            errors.append(f"{len(rows)} rows, expected one for each of {len(ref)} arrangements")
        alphas = [float(r["alpha"]) for r in rows]
        if not non_decreasing(alphas):
            errors.append("rows are not sorted by alpha")
        wrong = [a for a, x in zip(arrs, alphas) if a in ref and not _close(x, ref[a], PRINT_RTOL)]
        if wrong:
            errors.append(f"{len(wrong)} rows have a wrong alpha, first {wrong[0]}")
        if rows and not _close(alphas[0], min(ref.values()), TIE_RTOL):
            errors.append(f"first row alpha {alphas[0]} != minimum {min(ref.values())}")
        if rows:
            for side in ("left_degrees", "right_degrees"):
                degs = [int(d) for d in rows[0][side].split("|") if d]
                if not non_decreasing(degs):
                    errors.append(f"first row {side} {degs} are not non-decreasing")
        return errors

    # -- large_tree ------------------------------------------------------

    def _graph(self, path: str) -> dict:
        if path not in self._graphs:
            n, edges = read_edge_file(path)
            lap = laplacian(n, edges)
            norm = float(np.abs(lap).sum(axis=0).max())
            self._graphs[path] = {
                "n": n,
                "lap": lap,
                "alpha": eigenvalue(lap, 1),
                # eigenvalue error allowed between two LAPACK eigensolvers
                "tol": norm * n * EPS,
                "norm": norm,
                "nu": {},
            }
        return self._graphs[path]

    def _alpha_close(self, g: dict, alpha: float) -> bool:
        return abs(alpha - g["alpha"]) <= g["tol"] + PRINT_RTOL * g["alpha"]

    def _alpha(self, op, text) -> list[str]:
        g = self._graph(op["file"])
        out = json.loads(text)
        errors = []
        if not self._alpha_close(g, out["alpha"]):
            errors.append(f"alpha {out['alpha']} != {g['alpha']} (tol {g['tol']:.2e})")
        f = np.array(out["fiedler"], dtype=float)
        if f.shape != (g["n"],):
            return errors + [f"Fiedler vector has {f.size} entries for {g['n']} vertices"]
        if abs(np.linalg.norm(f) - 1) > 1e-9:
            errors.append(f"Fiedler vector norm {np.linalg.norm(f)}")
        if abs(f.sum()) > 1e-8:
            errors.append(f"Fiedler vector is not orthogonal to ones: sum {f.sum():.3e}")
        residual = float(np.linalg.norm(g["lap"] @ f - out["alpha"] * f))
        if residual > 1e-9 * g["norm"]:
            errors.append(f"Fiedler residual {residual:.3e}")
        return errors

    def _split(self, op, text) -> list[str]:
        g = self._graph(op["file"])
        out = json.loads(text)
        errors = []
        if not self._alpha_close(g, out["alpha"]):
            errors.append(f"alpha {out['alpha']} != {g['alpha']}")
        covered = []
        for name in ("side_pos", "side_neg"):
            side = out[name]
            n = 1 + max(max(e[0], e[1]) for e in side["edges"])
            lap = laplacian(n, side["edges"])
            keep = [v for v in range(n) if v != side["root"]]
            nu = eigenvalue(lap[np.ix_(keep, keep)], 0)
            if not _close(nu, g["alpha"], SPLIT_RTOL):
                errors.append(f"{name} Dirichlet eigenvalue {nu} does not reproduce alpha {g['alpha']}")
            covered += side["origin"][1:]
        expected = g["n"] if out["characteristic"]["kind"] == "edge" else g["n"] - 1
        if len(covered) != expected or len(set(covered)) != expected:
            errors.append("split sides do not partition the tree")
        return errors

    def _nu(self, op, text) -> list[str]:
        g = self._graph(op["file"])
        out = json.loads(text)
        root = op["root"]
        keep = [v for v in range(g["n"]) if v != root]
        if root not in g["nu"]:
            g["nu"][root] = eigenvalue(g["lap"][np.ix_(keep, keep)], 0)
        ref = g["nu"][root]
        errors = []
        if out["root"] != root or out["interior"] != keep:
            errors.append("root or interior differ from the input")
        if abs(out["nu"] - ref) > g["tol"] + PRINT_RTOL * ref:
            errors.append(f"nu {out['nu']} != {ref}")
        v = np.array(out["vector"], dtype=float)
        if v.shape != (len(keep),):
            return errors + [f"vector has {v.size} entries for {len(keep)} interior vertices"]
        if abs(np.linalg.norm(v) - 1) > 1e-9:
            errors.append(f"vector norm {np.linalg.norm(v)}")
        dirichlet = g["lap"][np.ix_(keep, keep)]
        residual = float(np.linalg.norm(dirichlet @ v - out["nu"] * v))
        if residual > 1e-9 * g["norm"]:
            errors.append(f"Dirichlet residual {residual:.3e}")
        return errors

    # -- verify ----------------------------------------------------------

    def _verify(self, op, text) -> list[str]:
        out = json.loads(text)
        errors = []
        if out["passed"] is not True:
            errors.append("report is not passed")
        suites = {c["suite"] for c in out["checks"]}
        if suites != SUITES:
            errors.append(f"suites {sorted(suites)} != {sorted(SUITES)}")
        for c in out["checks"]:
            if c["passed"] is not True or not c["checked"] > 0:
                errors.append(f"suite {c['suite']}: passed {c['passed']}, checked {c['checked']}")
        return errors
