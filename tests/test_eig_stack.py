"""The stacked dense solver: _eig_stack against eig_smallest and numpy's
eigh matrix by matrix, the sign rule on stacks, the certificate on
non-finite pairs, and how verify batches its solves."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiedlertrees.search as search
import fiedlertrees.spectral as spectral
from fiedlertrees import eig_smallest, laplacian, star_tree, verify_suite
from fiedlertrees.spectral import ConvergenceError, _eig_stack, _fix_sign


def _signed(v: np.ndarray) -> np.ndarray:
    """v with its largest entry by magnitude, the first of a tie, positive."""
    lead = v[max(range(len(v)), key=lambda j: (abs(v[j]), -j))]
    return -v if lead < 0 else v


def _assert_stack_is_each_matrix_alone(ms: np.ndarray, k: int) -> None:
    """_eig_stack(ms, k) holds, matrix by matrix, the bits of
    eig_smallest(m, k) and of numpy's own eigh on m with the sign rule
    applied to each vector (_signed)."""
    values, vectors, res = _eig_stack(ms, k)
    assert values.shape == res.shape == (len(ms), k)
    assert vectors.shape == (len(ms), k, ms.shape[1])
    for m, value, vector in zip(ms, values, vectors):
        pairs = eig_smallest(m, k)
        assert np.array_equal(value, [p.value for p in pairs])
        assert np.array_equal(vector, [p.vector for p in pairs])
        w, v = np.linalg.eigh(m)
        assert np.array_equal(value, w[:k])
        for j in range(k):
            assert np.array_equal(vector[j], _signed(v[:, j]))


def test_bit_identity_on_every_verify_block(monkeypatch):
    stacks = []
    real = spectral._eig_stack

    def recorded(ms, k):
        stacks.append((ms.copy(), k))
        return real(ms, k)

    monkeypatch.setattr(spectral, "_eig_stack", recorded)
    assert verify_suite("all", nmax=7)["passed"]
    monkeypatch.undo()
    orders = Counter(ms.shape[1] for ms, _ in stacks)
    assert set(orders) == set(range(2, 9))  # Type II glued trees reach n + 1
    for ms, k in stacks:
        _assert_stack_is_each_matrix_alone(ms, k)
    assert sum(len(ms) for ms, _ in stacks) == 262


def _symmetric(draw, n: int) -> np.ndarray:
    entries = st.floats(-4.0, 4.0, allow_subnormal=False) | st.integers(-2, 2).map(float)
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    return np.triu(a) + np.triu(a, 1).T


@st.composite
def _stacks(draw) -> tuple[np.ndarray, int]:
    """A stack of symmetric matrices of one order, some with repeated
    eigenvalues: star Laplacians, scaled, and matrices of equal entries,
    whose vectors tie in magnitude."""
    n = draw(st.integers(1, 8))
    ms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "star", "flat"]))
        if kind == "star" and n > 1:
            m = laplacian(star_tree(n)) * draw(st.sampled_from([1.0, 0.5, 3.0]))
        elif kind == "flat":
            m = np.full((n, n), draw(st.sampled_from([1.0, -1.0, 0.25])))
        else:
            m = _symmetric(draw, n)
        ms.append(m)
    return np.array(ms), draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(_stacks())
def test_bit_identity_on_random_stacks(stack):
    _assert_stack_is_each_matrix_alone(*stack)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6)).flatmap(
        lambda shape: st.lists(
            st.integers(-2, 2).map(float), min_size=math.prod(shape), max_size=math.prod(shape)
        ).map(lambda xs: np.array(xs).reshape(shape))
    )
)
def test_fix_sign_on_a_stack_is_its_per_vector_result(x):
    # entries in -2..2 make ties of magnitude, of both signs, common
    fixed = _fix_sign(x)
    assert fixed.shape == x.shape
    for index in np.ndindex(*x.shape[:-1]):
        v = x[index]
        assert np.array_equal(fixed[index], _fix_sign(v))
        assert np.array_equal(fixed[index], _signed(v))


def test_chunked_stack_equals_one_stack(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 6, 6))
    ms = a + a.transpose(0, 2, 1)
    whole = _eig_stack(ms, 3)
    monkeypatch.setattr(spectral, "_STACK_BYTES", 3 * 6 * 6 * 8)
    # the queue is the one chunker: it hands _eig_stack each chunk the
    # moment it fills, so no order ever holds more than one unfilled
    # chunk, and run the rest, one LAPACK call each
    calls, stacked = [], []
    real, real_stack = spectral._eigh, spectral._eig_stack
    monkeypatch.setattr(spectral, "_eigh", lambda m: calls.append(len(m)) or real(m))
    monkeypatch.setattr(
        spectral, "_eig_stack", lambda m, k: stacked.append(len(m)) or real_stack(m, k)
    )
    step = spectral._stack_step(6)
    for j in range(2):
        calls.clear()
        stacked.clear()
        solves = spectral._Solves()
        for i, m in enumerate(ms, 1):
            assert solves.add(m, j) == i - 1
            assert stacked == [step] * (i // step)
            assert all(len(chunk) < step for chunk in solves.chunks.values())
        solves.run()
        assert calls == stacked == [3, 3, 3, 1]
        assert not solves.chunks
        for at in range(len(ms)):
            value, vector = solves.pair(at)
            assert value == whole[0][at, j]
            assert np.array_equal(vector, whole[1][at, j])


@pytest.mark.parametrize(
    "m",
    [
        [[1.0, math.nan], [math.nan, 1.0]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.inf], [math.inf, 1.0]],
        [[1.0, -math.inf], [-math.inf, 1.0]],
        [[1.0, math.inf], [5.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
    ],
    ids=["nan", "nan-diagonal", "inf", "minus-inf", "inf-one-side", "inf-diagonal"],
)
def test_eig_smallest_refuses_non_finite_input(m):
    with pytest.raises(ValueError, match="non-finite"):
        eig_smallest(np.array(m), 1)


def test_certificate_refuses_nan_and_wrong_pairs(monkeypatch):
    m = laplacian(star_tree(4))
    real = spectral._eigh
    # a NaN pair fails "not res <= bound", which "res > bound" let through
    monkeypatch.setattr(spectral, "_eigh", lambda ms: (real(ms)[0] * math.nan, real(ms)[1]))
    with pytest.raises(ConvergenceError):
        eig_smallest(m, 1)
    with pytest.raises(ConvergenceError):
        _eig_stack(m[None], 1)
    # a value off its vector by more than the bound
    monkeypatch.setattr(spectral, "_eigh", lambda ms: (real(ms)[0] + 1e-6, real(ms)[1]))
    with pytest.raises(ConvergenceError):
        eig_smallest(m, 1)


def test_verify_batches_its_solves(monkeypatch):
    calls = []
    real_eigh = spectral._eigh

    def counted(ms):
        calls.append(len(ms))
        return real_eigh(ms)

    entries = []
    real_run = search._BranchTable.run

    def run(self):
        entries.extend(self.entries)
        return real_run(self)

    monkeypatch.setattr(spectral, "_eigh", counted)
    monkeypatch.setattr(search._BranchTable, "run", run)
    assert verify_suite("all", nmax=8)["passed"]
    # one LAPACK call per block order in each of a layer's two rounds:
    # orders 2..n in the first, 2..n + 1 in the second, for n = 2..8, and
    # the glue suite's equality case solves its two matrices alone; the
    # 609 blocks are the solves one eig_smallest call each made before
    assert len(calls) <= sum((n - 1) + n for n in range(2, 9)) + 2
    assert sum(calls) == 609
    # the branch table is filled ahead of the suites, each key once
    assert len(entries) == len(set(entries)) > 0
