"""Laplacians, Dirichlet matrices, and deterministic symmetric
eigensolvers with certified residuals.

Three solvers share one contract.  Below TREE_SOLVER_ORDER (256) rows a
matrix is a plain dense float64 numpy array and LAPACK's ``eigh``
returns all of its eigenpairs; that is the fast path for the many small
solves of the tree searches.  ``dirichlet_nu`` has one source for such a
block, whatever the interior's size: ``_branch_block`` cuts it straight
from the tree, and a one-vertex block needs no solve at all.  From
TREE_SOLVER_ORDER rows on,
``algebraic_connectivity`` and the branch blocks of ``dirichlet_nu`` use
a tree solver in O(n) memory instead: it counts eigenvalues below a
shift from the pivots of one elimination along the tree (Jacobs and
Trevisan, "Locating the eigenvalues of trees", Linear Algebra Appl. 434,
2011), and the same sweep carries each pivot's derivative in the shift.
Newton steps on the determinant propose the shifts, the count certifies
every bracket, and a final bisection narrows it to relative width eps
(count bisection safeguarding a fast root finder, as in Parlett, "The
Symmetric Eigenvalue Problem", ch. 3).  The vector comes by inverse
iteration with the same elimination.  A third
path serves the caterpillar searches: ``_caterpillar_fiedler`` solves
every spine arrangement of a degree multiset at once, with the same count
collapsed to the spine's tridiagonal (each pendant pivot is 1 - x > 0
below x = 1) and run as one numpy bisection over a (k, m) array.  Every
path's pairs pass the residual certificate.  Eigenvectors
follow a fixed sign convention so results are reproducible across runs:
the entry of largest magnitude is positive, ties resolved to the
smallest index.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .trees import RootedBoundaryTree, Tree, branches_at

#: residual certificate: ||M x - lambda x|| <= RESIDUAL_FACTOR * (1 + ||M||_inf)
RESIDUAL_FACTOR = 1e-10

#: order from which a tree or a Dirichlet branch block goes to the tree
#: solver; the measured crossover with dense eigh for one Fiedler pair
#: (order 128: dense 2.4 ms, tree 5.0 ms; 256: 10.5 and 10.7 ms; 512: 54
#: and 18 ms)
TREE_SOLVER_ORDER = 256

_EPS = sys.float_info.epsilon
_SAFE_MIN = sys.float_info.min
_INVERSE_STEPS = 3


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


def _tree_arrays(t: Tree, order: list[int], parent: list[int]):
    """The matrix of the tree solver for the vertices of order, which is a
    BFS order of one component of t (or of t minus a root): each position's
    parent position (-1 when the parent is not in order), its weighted
    degree in t, and the Laplacian entry to its parent (0.0 without one)."""
    at = {v: i for i, v in enumerate(order)}
    up, diag, off = [], [], []
    for v in order:
        p = at.get(parent[v], -1)
        degree, entry = 0.0, 0.0
        for u, w in t.neighbors(v):
            degree += w
            if u == parent[v] and p >= 0:
                entry = -w
        up.append(p)
        diag.append(degree)
        off.append(entry)
    return up, diag, off


def _tree_eigenpair(
    up: list[int], diag: list[float], off: list[float], j: int, kernel: bool
) -> EigenPair:
    """The j-th smallest eigenpair (j from 0) of the symmetric matrix with
    diag on its diagonal and off[i] at (i, up[i]), whose graph is a tree.

    Positions are in BFS order, so up[i] < i, and up[0] == -1 marks the
    root.  kernel says the matrix is a Laplacian: its zero eigenvalue is
    divided out of the Newton steps and its constant null vector projected
    out of every iterate.  The vector is unit norm but not sign-fixed, and
    is indexed by position.

    One elimination sweep at a shift x gives both the count of eigenvalues
    below x and d/dx log|det(M - x I)|.  The count decides every move of
    the bracket [lo, hi], so count(lo) <= j < count(hi) always holds;
    Newton steps from lo only propose the shifts, and a shift outside the
    bracket falls back to the midpoint.  Once Newton stalls, bisection
    narrows the bracket to relative width eps, and the value is its
    midpoint.
    """
    k = len(diag)
    a = np.asarray(diag, dtype=float)
    b = np.asarray(off, dtype=float)
    ups = np.asarray(up, dtype=np.intp)
    child = np.flatnonzero(ups >= 0)
    above = ups[child]
    radius = np.abs(b) + np.bincount(above, weights=np.abs(b[child]), minlength=k)
    norm = float((np.abs(a) + radius).max())
    bb = [x * x for x in off]
    # LAPACK's dstebz floor for counting: a smaller pivot is a tiny negative
    pivmin = _SAFE_MIN * max(1.0, max(bb))
    steps = list(range(k - 1, -1, -1))

    def eliminate(x: float, tiny: float) -> tuple[list[float], int, float]:
        """Pivots d_i of M - x I, eliminated from the leaves up, each of
        magnitude below tiny replaced by -tiny; how many are negative: the
        number of eigenvalues below x (Sylvester's law of inertia); and
        sum_i -d_i' / d_i = -d/dx log|det(M - x I)|, the sum of
        1 / (lambda - x) over all eigenvalues."""
        pivots = [x] * k  # holds x plus the children's terms until used
        slopes = [1.0] * k  # likewise -d_i' = 1 + sum_c b_c^2 (-d_c') / d_c^2
        negative = 0
        total = 0.0
        for i in steps:
            d = diag[i] - pivots[i]
            if -tiny < d < tiny:
                d = -tiny
            if d < 0.0:
                negative += 1
            pivots[i] = d
            q = slopes[i] / d
            total += q
            p = up[i]
            if p >= 0:
                r = bb[i] / d
                pivots[p] += r
                slopes[p] += r * q
        return pivots, negative, total

    # Gershgorin interval, widened so that no eigenvalue lies above hi
    slack = 2.0 * _EPS * norm + 4.0 * pivmin
    lo = float((a - radius).min()) - slack
    hi = float((a + radius).max()) + slack
    # From below the wanted eigenvalue, a Newton step on det(M - x I) never
    # passes it if no other root lies below: true for j == 0, and for j == 1
    # of a Laplacian once its zero eigenvalue is divided out.  Other j bisect
    # only.  The Laplacian starts at -w_min / k^2, less than a quarter of
    # Mohar's bound lambda_1 >= 4 w_min / (k diameter), so close below
    # lambda_1 but not so close to 0 that the division by x cancels badly.
    newton = j == (1 if kernel else 0)
    if not newton:
        x = 0.5 * (lo + hi)
    elif kernel:
        x = -min(abs(w) for w in off if w) / (k * k)
    else:
        x = lo
    count_hi = None  # eigenvalues below hi, once a count has moved hi
    reach, last, guess = 0.0, float("inf"), None
    while hi - lo > _EPS * max(abs(lo), abs(hi)):
        count, total = eliminate(x, pivmin)[1:]
        if count > j:
            hi, count_hi = x, count
        else:
            lo = max(lo, x)  # the start may lie below the Gershgorin bound
            guess = None
            # with m equal eigenvalues ahead a Newton step closes 1/m of the
            # distance, so past two of them in the bracket bisection is faster
            if newton and x != 0.0 and (count_hi is None or count_hi - j <= 2):
                s = total + 1.0 / x if kernel else total
                step = 1.0 / s if s > 0.0 else 0.0
                if _EPS * abs(x) < step < 0.5 * last:
                    reach = 0.0
                    guess = x + step
                else:
                    # Newton stalls on rounding noise or on a cluster: probe
                    # ever further ahead until a count passes the eigenvalue
                    reach = max(2.0 * reach, 2.0 * step, 2.0 * _EPS * abs(x))
                    guess = x + reach
                last = step
        if guess is not None and lo < guess < hi:
            x = guess
        else:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
    value = 0.5 * (lo + hi)

    # pivots below eps ||M|| are perturbed so the solves stay finite; the
    # growth they cause is what inverse iteration wants
    pivots = eliminate(value, _EPS * norm)[0]
    ratio = [b_i / d for b_i, d in zip(off, pivots)]

    x = np.random.default_rng(0).uniform(-1.0, 1.0, k)
    for _ in range(_INVERSE_STEPS):
        y = x.tolist()
        for i in steps:
            if up[i] >= 0:
                y[up[i]] -= ratio[i] * y[i]
        for i in range(k):
            y[i] = y[i] / pivots[i] - (ratio[i] * y[up[i]] if up[i] >= 0 else 0.0)
        x = np.asarray(y)
        if kernel:
            x -= x.mean()
        x /= np.linalg.norm(x)

    mx = a * x
    mx[child] += b[child] * x[above]
    mx += np.bincount(above, weights=b[child] * x[child], minlength=k)
    res = float(np.linalg.norm(mx - value * x))
    bound = RESIDUAL_FACTOR * (1.0 + norm)
    if not res <= bound:
        raise ConvergenceError(f"residual {res:.3e} exceeds certificate {bound:.3e}")
    return EigenPair(value, x, res)


def _caterpillar_fiedler(spines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alpha and the Fiedler vector of build_caterpillar(row) for every row
    of spines, a (k, m) array of spine degrees with m >= 2, all rows at once.

    Below x = 1 every pendant pivot of L - x I is 1 - x > 0, so after the
    pendants the count of negative pivots is that of the spine's
    tridiagonal d_i = s_i - x - p_i / (1 - x) - 1 / d_(i-1), p_i the
    pendant count of spine vertex i.  A caterpillar with two or more spine
    vertices is no star, so alpha < 1: bisection on "count > 1" over [0, 1]
    finds it.

    Returns alpha (k,), the spine entries g (k, m) and the entry
    h = g / (1 - alpha) (k, m) shared by the pendants of each spine vertex
    (0 where it has none).  Together they form a unit vector, sign-fixed
    by _fix_sign's rule in build_caterpillar's vertex order (spine first,
    then pendants grouped by spine position), whose residual on the whole
    Laplacian passes the certificate.
    """
    s = np.asarray(spines, dtype=float)
    k, m = s.shape
    p = s - 2.0
    p[:, [0, -1]] += 1.0
    norm = 2.0 * s.max(axis=1)  # ||L||_inf

    def pivots(x: np.ndarray, tiny) -> np.ndarray:
        """Spine pivots of L - x I, each of magnitude below tiny replaced
        by -tiny."""
        d = s - x[:, None] - p / (1.0 - x[:, None])
        for i in range(m):
            if i:
                d[:, i] -= 1.0 / d[:, i - 1]
            d[:, i] = np.where(np.abs(d[:, i]) < tiny, -tiny, d[:, i])
        return d

    lo, hi = np.zeros(k), np.ones(k)
    while True:
        mid = 0.5 * (lo + hi)
        active = (hi - lo > _EPS * hi) & (lo < mid) & (mid < hi)
        if not active.any():
            break
        # the unit off-diagonals make LAPACK's dstebz floor _SAFE_MIN
        above = (pivots(mid, _SAFE_MIN) < 0.0).sum(axis=1) > 1
        hi = np.where(active & above, mid, hi)
        lo = np.where(active & ~above, mid, lo)
    alpha = 0.5 * (lo + hi)

    # inverse iteration on the spine matrix at alpha, whose null vector is
    # the spine part of the Fiedler vector: T = L D L^T with unit lower
    # bidiagonal entries -1 / d_(i-1)
    d = pivots(alpha, _EPS * norm)
    # a fixed start with no mirror symmetry: a symmetric one would never
    # reach the antisymmetric Fiedler vector of a palindromic spine
    g = np.tile(np.sin(np.arange(1.0, m + 1.0)), (k, 1))
    for _ in range(_INVERSE_STEPS):
        for i in range(1, m):
            g[:, i] += g[:, i - 1] / d[:, i - 1]
        g /= d
        for i in range(m - 2, -1, -1):
            g[:, i] += g[:, i + 1] / d[:, i]
        g /= np.linalg.norm(g, axis=1, keepdims=True)
    h = np.where(p > 0, g / (1.0 - alpha)[:, None], 0.0)
    scale = np.sqrt((g * g + p * h * h).sum(axis=1))[:, None]
    g /= scale
    h /= scale

    # L f - alpha f over every vertex; the p_i pendants of spine vertex i
    # share one row value, counted p_i times
    spine = (s - alpha[:, None]) * g - p * h
    spine[:, 1:] -= g[:, :-1]
    spine[:, :-1] -= g[:, 1:]
    pendant = (1.0 - alpha[:, None]) * h - g
    res = np.sqrt((spine * spine + p * pendant * pendant).sum(axis=1))
    bound = RESIDUAL_FACTOR * (1.0 + norm)
    bad = np.flatnonzero(~(res <= bound))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(
            f"spine {s[i].astype(int).tolist()}: residual {res[i]:.3e} "
            f"exceeds certificate {bound[i]:.3e}"
        )

    mags = np.abs(np.concatenate([g, h], axis=1))
    first = np.argmax(mags == mags.max(axis=1, keepdims=True), axis=1)
    # a pendant entry has the sign of its spine vertex
    flip = g[np.arange(k), first % m] < 0.0
    g[flip] *= -1.0
    h[flip] *= -1.0
    return alpha, g, h


def algebraic_connectivity(t: Tree) -> tuple[float, np.ndarray]:
    """Second-smallest Laplacian eigenvalue and a unit Fiedler vector."""
    if t.n < TREE_SOLVER_ORDER:
        pair = eig_smallest(laplacian(t), 2)[1]
        return pair.value, pair.vector
    order, parent = t.bfs(0)
    pair = _tree_eigenpair(*_tree_arrays(t, order, parent), 1, kernel=True)
    vec = np.empty(t.n)
    vec[order] = pair.vector
    return pair.value, _fix_sign(vec)


def _branch_block(t: Tree, verts: list[int]) -> np.ndarray:
    """Rows and columns verts (sorted) of the Laplacian of t, built without
    the whole matrix: weighted degrees on the diagonal, the edges among
    verts off it."""
    at = {v: i for i, v in enumerate(verts)}
    m = np.zeros((len(verts), len(verts)))
    for i, v in enumerate(verts):
        for u, w in t.neighbors(v):
            m[i, i] += w
            if u in at:
                m[i, at[u]] = -w
    return m


def dirichlet_nu(rbt: RootedBoundaryTree) -> tuple[float, np.ndarray]:
    """Smallest Dirichlet eigenvalue and its eigenvector over the interior.

    The interior graph may be disconnected (several branches at the root);
    the matrix is then block diagonal, the eigenvalue is the minimum over
    blocks, and the returned vector is supported on the first minimizing
    block and zero elsewhere.  The vector is unit norm and oriented so its
    entry sum is non-negative.
    """
    tree, root = rbt.tree, rbt.root
    index = rbt.interior_index()
    # no matrix of the interior's order is built: a one-vertex block is the
    # weight of its edge to the root, a block below TREE_SOLVER_ORDER rows
    # is cut from the tree, a larger one is solved along it
    branches = branches_at(tree, root)
    if max(map(len, branches)) >= TREE_SOLVER_ORDER:
        order, parent = tree.bfs(root)
    best_value = None
    best_vector = None
    best_positions = None
    for branch in branches:
        verts = sorted(branch)
        positions = [index[v] for v in verts]
        if len(verts) == 1:
            pair = EigenPair(tree.neighbors(verts[0])[0][1], np.ones(1), 0.0)
        elif len(verts) >= TREE_SOLVER_ORDER:
            sub = [v for v in order if v in branch]
            pair = _tree_eigenpair(*_tree_arrays(tree, sub, parent), 0, kernel=False)
            vec = np.empty(len(verts))
            vec[np.searchsorted(verts, sub)] = pair.vector
            pair = EigenPair(pair.value, _fix_sign(vec), pair.residual)
        else:
            pair = eig_smallest(_branch_block(tree, verts), 1)[0]
        if best_value is None or pair.value < best_value:
            best_value = pair.value
            best_vector = pair.vector
            best_positions = positions
    vec = np.zeros(len(index))
    vec[best_positions] = best_vector
    if vec.sum() < 0:
        vec = -vec
    return float(best_value), vec
