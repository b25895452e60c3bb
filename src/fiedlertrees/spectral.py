"""Laplacians, Dirichlet matrices, and a deterministic symmetric
eigensolver with certified residuals.

Matrices are plain dense float64 numpy arrays.  Eigenvectors follow a
fixed sign convention so results are reproducible across runs: the
entry of largest magnitude is positive, ties resolved to the smallest
index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import RootedBoundaryTree, Tree, branches_at

#: residual certificate: ||M x - lambda x|| <= RESIDUAL_FACTOR * (1 + ||M||_inf)
RESIDUAL_FACTOR = 1e-10


class ConvergenceError(RuntimeError):
    """The eigensolver failed its residual certificate; this indicates a bug
    rather than an expected runtime condition."""


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


def laplacian(t: Tree) -> np.ndarray:
    """Weighted Laplacian: diagonal holds incident weight sums, off-diagonal
    entries are negated edge weights.  Row sums vanish."""
    m = np.zeros((t.n, t.n))
    for u, v, w in t.edges:
        m[u, v] = m[v, u] = -w
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def dirichlet_matrix(rbt: RootedBoundaryTree) -> np.ndarray:
    """Laplacian of the underlying tree restricted to the interior (the root
    row and column deleted).  Rows and columns follow interior() order.  The
    boundary-edge weight survives only on the diagonal of the root's
    neighbor."""
    full = laplacian(rbt.tree)
    keep = list(rbt.interior())
    return full[np.ix_(keep, keep)].copy()


def _check_symmetric(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    if float(np.abs(m - m.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to working precision")


def _fix_sign(x: np.ndarray) -> np.ndarray:
    """Largest-magnitude entry positive; ties pick the smallest index."""
    mags = np.abs(x)
    idx = int(np.argmax(mags == mags.max()))
    return -x if x[idx] < 0 else x


def eig_smallest(m: np.ndarray, k: int) -> list[EigenPair]:
    """The k algebraically smallest eigenpairs of a symmetric matrix,
    ascending, with orthonormal sign-fixed vectors and certified residuals."""
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    if not 1 <= k <= m.shape[0]:
        raise ValueError(f"k={k} out of range for order {m.shape[0]}")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(str(exc)) from exc
    bound = RESIDUAL_FACTOR * (1.0 + float(np.abs(m).sum(axis=1).max()))
    out = []
    for i in range(k):
        vec = _fix_sign(vectors[:, i])
        res = float(np.linalg.norm(m @ vec - values[i] * vec))
        if res > bound:  # pragma: no cover - would signal a solver bug
            raise ConvergenceError(
                f"residual {res:.3e} exceeds certificate {bound:.3e}"
            )
        out.append(EigenPair(float(values[i]), vec, res))
    return out


def rayleigh(m: np.ndarray, f) -> float:
    """<f, M f> / <f, f>."""
    f = np.asarray(f, dtype=float)
    denom = float(f @ f)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector")
    return float(f @ (np.asarray(m, dtype=float) @ f)) / denom


def algebraic_connectivity(t: Tree) -> tuple[float, np.ndarray]:
    """Second-smallest Laplacian eigenvalue and a unit Fiedler vector."""
    pair = eig_smallest(laplacian(t), 2)[1]
    return pair.value, pair.vector


def dirichlet_nu(rbt: RootedBoundaryTree) -> tuple[float, np.ndarray]:
    """Smallest Dirichlet eigenvalue and its eigenvector over the interior.

    The interior graph may be disconnected (several branches at the root);
    the matrix is then block diagonal, the eigenvalue is the minimum over
    blocks, and the returned vector is supported on the first minimizing
    block and zero elsewhere.  The vector is unit norm and oriented so its
    entry sum is non-negative.
    """
    matrix = dirichlet_matrix(rbt)
    index = rbt.interior_index()
    best_value = None
    best_vector = None
    best_positions = None
    for branch in branches_at(rbt.tree, rbt.root, rbt.root):
        positions = [index[v] for v in sorted(branch)]
        pair = eig_smallest(matrix[np.ix_(positions, positions)], 1)[0]
        if best_value is None or pair.value < best_value:
            best_value = pair.value
            best_vector = pair.vector
            best_positions = positions
    vec = np.zeros(len(index))
    vec[best_positions] = best_vector
    if vec.sum() < 0:
        vec = -vec
    return float(best_value), vec
