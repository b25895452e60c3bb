"""Laplacians, Dirichlet matrices, and deterministic symmetric
eigensolvers with certified residuals.

Three solvers share one contract.  Below TREE_SOLVER_ORDER (256) rows a
matrix is a plain dense float64 numpy array and LAPACK's ``eigh``
returns all of its eigenpairs; that is the fast path for the many small
solves of the tree searches.  ``_eig_stack`` solves a (b, n, n) stack
of them in one LAPACK call, which gives each matrix the bits it gets
alone, and vectorizes the sign rule and the residual certificate over
the stack; ``eig_smallest`` is its one-matrix case.  Every dense solve
but ``algebraic_connectivity``'s goes through one queue, ``_Solves``,
which stacks its blocks by order, solves each chunk of a stack as it
fills, and holds the one rule that routes a block by size.  A tree's
Laplacian (``_Solves.fiedler``) is queued below TREE_SOLVER_ORDER
vertices.  A Dirichlet branch (``_Solves.branch``) that is a lone
vertex needs no solve: its value is the weight of its edge to the root.
Below TREE_SOLVER_ORDER rows it is queued as the block cut straight from
the tree (``_branch_block``).  ``dirichlet_nu`` queues every branch at
its root.  The searches and the verify suites queue a layer's
Laplacians (one sequence's for a CLI search) with every branch table
entry that its rooted instances (``search._instances``) read, so each
entry is solved before any suite reads it.  From TREE_SOLVER_ORDER rows
on, a Laplacian or a branch goes to a tree solver
in O(n) memory instead: it counts eigenvalues below a shift from the
pivots of one elimination along the tree (Jacobs and
Trevisan, "Locating the eigenvalues of trees", Linear Algebra Appl. 434,
2011), and the same sweep carries each pivot's derivative in the shift.
Newton steps on the determinant propose the shifts, the count certifies
every bracket, and a final bisection narrows it to relative width eps
(count bisection safeguarding a fast root finder, as in Parlett, "The
Symmetric Eigenvalue Problem", ch. 3).  The vector comes by inverse
iteration with the same elimination.  A third
path serves the caterpillar searches: ``_caterpillar_alpha`` ranks
every spine arrangement of a degree multiset at once, with the same count
collapsed to the spine's tridiagonal (each pendant pivot is 1 - x > 0
below x = 1) and run as one numpy bisection over an (m, k) array, one
contiguous row per spine position, from which converged arrangements
and, given a tie band, those that can no longer reach it drop out;
``_caterpillar_fiedler`` adds the vectors.  Every
path's pairs pass the residual certificate.  Eigenvectors
follow a fixed sign convention so results are reproducible across runs:
the entry of largest magnitude is positive, ties resolved to the
smallest index.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .trees import RootedBoundaryTree, Tree, branches_at

#: residual certificate: ||M x - lambda x|| <= RESIDUAL_FACTOR * (1 + ||M||_inf)
RESIDUAL_FACTOR = 1e-10

#: order from which a tree or a Dirichlet branch block goes to the tree
#: solver; the measured crossover with dense eigh for one Fiedler pair
#: (order 128: dense 2.4 ms, tree 5.0 ms; 256: 10.5 and 10.7 ms; 512: 54
#: and 18 ms)
TREE_SOLVER_ORDER = 256

#: the most bytes of matrices that one LAPACK call of _eig_stack takes
_STACK_BYTES = 1 << 20

# numpy.linalg.eigh's LAPACK call (syevd on the lower triangle) without its
# wrapper, whose checks cost more than the solve on the searches' tiny
# blocks; the bits are eigh's.  A solve that fails returns NaN, which the
# residual certificate refuses.
_eigh = _umath_linalg.eigh_lo
_max, _add, _all = np.maximum.reduce, np.add.reduce, np.logical_and.reduce

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
    top = _max(np.abs(m), axis=None, initial=0.0)
    if not top < np.inf:  # NaN fails the comparison too
        raise ValueError("matrix has a non-finite entry")
    if not _all(m == m.T, axis=None) and not (
        _max(np.abs(m - m.T), axis=None) <= 1e-12 * (1.0 + top)
    ):
        raise ValueError("matrix is not symmetric to working precision")


def _fix_sign(x: np.ndarray) -> np.ndarray:
    """Largest-magnitude entry positive, of each vector along the last axis
    of x, whatever its leading axes; ties pick the smallest index, as
    argmax does."""
    flat = x.reshape(-1, x.shape[-1])
    lead = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    # a product with -1.0 is the exact negation; only a zero vector has a
    # zero lead, and copysign may flip the signs of its zeros
    return (flat * np.copysign(1.0, lead)[:, None]).reshape(x.shape)


def _eig_stack(ms: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k algebraically smallest eigenpairs of every matrix of ms, a
    (b, n, n) stack of symmetric finite float64 matrices with 1 <= k <= n:
    values (b, k) ascending, orthonormal vectors (b, k, n) sign-fixed by
    _fix_sign, and residuals (b, k), each pair certified.

    One LAPACK call solves each chunk of at most _STACK_BYTES of matrices.
    It solves each matrix of a stack as it solves it alone, so a matrix's
    pairs are the same bits whatever stack it is in, and the bits
    numpy.linalg.eigh gives it."""
    b, n = ms.shape[:2]
    step = _stack_step(n)
    if b > step:
        parts = [_eig_stack(ms[i : i + step], k) for i in range(0, b, step)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    values, vectors = _eigh(ms)
    values = values[:, :k]
    cols = vectors[:, :, :k]
    # M x - lambda x for every pair, one column each; its norm does not
    # depend on x's sign
    r = ms @ cols - cols * values[:, None]
    res = np.sqrt(_add(r * r, axis=1))
    # every bound is at least RESIDUAL_FACTOR, so most stacks pass without it
    if not _all(res <= RESIDUAL_FACTOR, axis=None):
        bound = RESIDUAL_FACTOR * (1.0 + _max(_add(np.abs(ms), axis=2), axis=1))
        bad = np.argwhere(~(res <= bound[:, None]))
        if bad.size:
            i, j = bad[0]
            raise ConvergenceError(
                f"residual {res[i, j]:.3e} exceeds certificate {bound[i]:.3e}"
            )
    return values, _fix_sign(cols.swapaxes(1, 2)), res


def _stack_step(n: int) -> int:
    """The most matrices of order n that one LAPACK call of _eig_stack
    takes: those that fit in _STACK_BYTES, and at least one."""
    return max(1, _STACK_BYTES // (8 * n * n))


def eig_smallest(m: np.ndarray, k: int) -> list[EigenPair]:
    """The k algebraically smallest eigenpairs of a symmetric finite
    matrix, ascending, with orthonormal sign-fixed vectors and certified
    residuals: _eig_stack's one-matrix case."""
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    if not 1 <= k <= m.shape[0]:
        raise ValueError(f"k={k} out of range for order {m.shape[0]}")
    values, vectors, res = _eig_stack(m[None], k)
    return list(map(EigenPair, values[0].tolist(), vectors[0], res[0].tolist()))


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


def _spine_pivots(s: np.ndarray, p: np.ndarray, x: np.ndarray, tiny) -> np.ndarray:
    """Spine pivots of L - x I, d_i = s_i - x - p_i / (1 - x) - 1 / d_(i-1),
    for the columns of the (m, k) arrays s and p and each x (k,), each of
    magnitude below tiny replaced by -tiny; an (m, k) array."""
    d = np.subtract(s, x)
    d -= p / (1.0 - x)
    for i in range(len(d)):
        if i:
            d[i] -= 1.0 / d[i - 1]
        np.copyto(d[i], -tiny, where=np.abs(d[i]) < tiny)
    return d


def _caterpillar_alpha(spines, band: tuple[float, float] | None = None) -> np.ndarray:
    """Alpha of build_caterpillar(row) for every row of spines, a (k, m)
    array of spine degrees with m >= 2, all rows at once.

    Below x = 1 every pendant pivot of L - x I is 1 - x > 0, so after the
    pendants the count of negative pivots is that of the spine's
    tridiagonal (_spine_pivots), p_i the pendant count of spine vertex i.
    A caterpillar with two or more spine vertices is no star, so alpha <
    1: bisection on "count > 1" over [0, 1] finds it.  The count runs on
    the transposed (m, k) array, one contiguous row per spine position,
    and a row leaves the batch once its bracket stops narrowing.

    band = (rtol, slack) stops the rows that cannot reach the tie band
    min(alpha) (1 + rtol) + slack: a row leaves once its lo exceeds that
    bound taken at the least hi, which is never below min(alpha), and
    keeps the midpoint of its bracket then, a value above the band.
    Every other row bisects exactly as without band.
    """
    s = np.asarray(spines, dtype=float)
    k = len(s)
    p = s - 2.0
    p[:, [0, -1]] += 1.0
    s, p = s.T.copy(), p.T.copy()
    lo, hi = np.zeros(k), np.ones(k)  # every row's bracket once it leaves
    rows, low, high = np.arange(k), lo.copy(), hi.copy()  # the batch's
    least = 1.0
    while rows.size:
        mid = 0.5 * (low + high)
        keep = (high - low > _EPS * high) & (low < mid) & (mid < high)
        if band is not None:
            least = min(least, high.min())
            keep &= ~(low > least + band[0] * least + band[1])
        if not keep.all():
            lo[rows[~keep]], hi[rows[~keep]] = low[~keep], high[~keep]
            rows, low, high, mid = rows[keep], low[keep], high[keep], mid[keep]
            s, p = s[:, keep], p[:, keep]
        # the unit off-diagonals make LAPACK's dstebz floor _SAFE_MIN
        above = np.count_nonzero(_spine_pivots(s, p, mid, _SAFE_MIN) < 0.0, axis=0) > 1
        np.copyto(high, mid, where=above)
        np.copyto(low, mid, where=~above)
    return 0.5 * (lo + hi)


def _caterpillar_fiedler(spines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alpha and the Fiedler vector of build_caterpillar(row) for every row
    of spines, a (k, m) array of spine degrees with m >= 2.  Alpha is
    _caterpillar_alpha's, from the (m, k) layout and without a band stop,
    since every row's vector is wanted.

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
    alpha = _caterpillar_alpha(s)

    # inverse iteration on the spine matrix at alpha, whose null vector is
    # the spine part of the Fiedler vector: T = L D L^T with unit lower
    # bidiagonal entries -1 / d_(i-1)
    d = _spine_pivots(s.T, p.T, alpha, _EPS * norm).T
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

    f = _fix_sign(np.concatenate([g, h], axis=1))
    return alpha, f[:, :m], f[:, m:]


def algebraic_connectivity(t: Tree) -> tuple[float, np.ndarray]:
    """Second-smallest Laplacian eigenvalue and a unit Fiedler vector."""
    if t.n < TREE_SOLVER_ORDER:
        # one eig_smallest call, not the queue: perfbench's tracer wraps
        # only public functions, and its large_tree check reads
        # spectral.order_max from this call
        pair = eig_smallest(laplacian(t), 2)[1]
        return pair.value, pair.vector
    return _tree_fiedler(t)


def _tree_fiedler(t: Tree) -> tuple[float, np.ndarray]:
    """algebraic_connectivity's pair from the O(n) tree solver, which takes
    it from TREE_SOLVER_ORDER vertices on."""
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


class _Solves:
    """The one queue of dense eigensolves: blocks of order 2 and up, each
    with its two smallest pairs, stacked by order and solved in one
    _eig_stack call per chunk of _stack_step blocks.  A chunk is solved as
    it fills, and run solves the rest, so no order holds more than one
    unfilled chunk; each block gets the bits it gets alone.

    fiedler and branch route a tree's Laplacian and a Dirichlet branch by
    size; a block that needs no dense solve gets its pair at once, and pair
    returns it as it is."""

    def __init__(self) -> None:
        self.solved: list[tuple[list[float], np.ndarray] | None] = []
        self.chunks: dict[int, list[tuple[int, np.ndarray]]] = {}

    def add(self, m: np.ndarray) -> int:
        """Queue the block m; its position, which pair reads after run."""
        n, at = len(m), len(self.solved)
        self.solved.append(None)
        chunk = self.chunks.setdefault(n, [])
        chunk.append((at, m))
        if len(chunk) == _stack_step(n):
            self._solve(self.chunks.pop(n))
        return at

    def _solve(self, chunk: list[tuple[int, np.ndarray]]) -> None:
        """Solve the (position, block) pairs of chunk in one stack: each
        block's two values, a list, and its vectors (2, n)."""
        values, vectors, _ = _eig_stack(np.array([m for _, m in chunk]), 2)
        for (at, _), v, x in zip(chunk, values.tolist(), vectors):
            self.solved[at] = v, x

    def fiedler(self, t: Tree) -> int | tuple[float, np.ndarray]:
        """Queue t's Laplacian, whose pair(at, 1) is algebraic_connectivity(t)
        bit for bit; from TREE_SOLVER_ORDER vertices on, the tree solver's pair."""
        return self.add(laplacian(t)) if t.n < TREE_SOLVER_ORDER else _tree_fiedler(t)

    def branch(self, t: Tree, root: int, verts: list[int]) -> int | tuple[float, np.ndarray]:
        """Queue the Dirichlet block of verts, a component of t minus root,
        sorted, whose pair(at, 0) is its first Dirichlet pair, the vector
        over verts: for a lone vertex, which needs no solve, the weight of
        its edge to the root; below TREE_SOLVER_ORDER rows, the block cut
        from the tree (_branch_block); from there on, the tree solver's pair
        on the branch in BFS order from root."""
        if len(verts) == 1:
            return t.neighbors(verts[0])[0][1], np.ones(1)
        if len(verts) < TREE_SOLVER_ORDER:
            return self.add(_branch_block(t, verts))
        order, parent = t.bfs(root)
        inside = set(verts)
        sub = [v for v in order if v in inside]
        pair = _tree_eigenpair(*_tree_arrays(t, sub, parent), 0, kernel=False)
        vec = np.empty(len(verts))
        vec[np.searchsorted(verts, sub)] = pair.vector
        return pair.value, _fix_sign(vec)

    def run(self) -> None:
        """Solve every unfilled chunk."""
        for chunk in self.chunks.values():
            self._solve(chunk)
        self.chunks.clear()

    def pair(self, at: int | tuple[float, np.ndarray], j: int) -> tuple[float, np.ndarray]:
        """The j-th pair of the block queued at position at, or at itself
        when it is a pair that needed no dense solve."""
        if isinstance(at, tuple):
            return at
        values, vectors = self.solved[at]
        return values[j], vectors[j]


def dirichlet_nu(rbt: RootedBoundaryTree) -> tuple[float, np.ndarray]:
    """Smallest Dirichlet eigenvalue and its eigenvector over the interior.

    The interior graph may be disconnected (several branches at the root);
    the matrix is then block diagonal, the eigenvalue is the minimum over
    blocks, and the returned vector is supported on the first minimizing
    block and zero elsewhere.  The vector is unit norm and positive on its
    block: a block's first eigenvector is a Perron vector, of one sign,
    and _fix_sign makes it positive.  Every branch goes to one queue
    (_Solves.branch), so no matrix of the interior's order is built.
    """
    tree, root = rbt.tree, rbt.root
    solves = _Solves()
    branches = [sorted(branch) for branch in branches_at(tree, root)]
    at = [solves.branch(tree, root, verts) for verts in branches]
    solves.run()
    pairs = [solves.pair(i, 0) for i in at]
    first = min(range(len(pairs)), key=lambda i: pairs[i][0])
    index = rbt.interior_index()
    vec = np.zeros(len(index))
    vec[[index[v] for v in branches[first]]] = pairs[first][1]
    return float(pairs[first][0]), vec
