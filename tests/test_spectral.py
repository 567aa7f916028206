"""Eigen plumbing: stability classification, the unique unstable pair,
sign determinism, and the residual bound."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moi import (
    ComplexUnstableEigenvalue,
    ConvergenceFailure,
    MultipleUnstableEigenvalues,
    NoUnstableEigenvalue,
    canonical_sign,
    is_unstable,
    spectral_abscissa,
    unstable_count,
    unstable_eigenpair,
)
from moi import spectral
from moi.spectral import _eigvals


def test_rotation_matrix_is_marginal():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert spectral_abscissa(A) == pytest.approx(0.0, abs=1e-12)
    assert not is_unstable(A)
    with pytest.raises(NoUnstableEigenvalue):
        unstable_eigenpair(A)


def test_diagonal_saddle():
    pair = unstable_eigenpair(np.diag([1.0, -1.0]))
    assert pair.value == 1.0 + 0.0j
    assert np.allclose(pair.vector, [1.0, 0.0])
    assert pair.vector[0] > 0  # sign convention


def test_two_unstable_eigenvalues_rejected():
    with pytest.raises(MultipleUnstableEigenvalues):
        unstable_eigenpair(np.diag([1.0, 2.0]))


def test_complex_unstable_pair_rejected():
    A = np.array([[1.0, -5.0], [5.0, 1.0]])
    with pytest.raises(ComplexUnstableEigenvalue):
        unstable_eigenpair(A)


def test_stability_tolerance_margin():
    # abscissa inside (0, tol] still classifies as stable
    A = np.diag([5e-10, -1.0])
    assert not is_unstable(A, stability_tol=1e-9)
    assert unstable_count(A, stability_tol=1e-9) == 0
    assert is_unstable(A, stability_tol=1e-10)


def test_saddle_escape_direction_closed_form():
    """A mass on an inverted spring with damping: eigenpair by hand."""
    k, d = 1.2406884813580512, 0.5
    A = np.array([[0.0, 1.0], [k, -d]])
    lam = (-d + np.sqrt(d * d + 4.0 * k)) / 2.0
    v = np.array([1.0, lam])
    v = v / np.linalg.norm(v)
    pair = unstable_eigenpair(A)
    assert pair.value.real == pytest.approx(lam, rel=1e-12)
    assert pair.value.imag == 0.0
    assert np.linalg.norm(pair.vector - v) < 1e-10
    # numbers picked so this matches the pendulum saddle at its boundary
    assert pair.value.real == pytest.approx(0.8916, abs=5e-4)
    assert np.allclose(pair.vector, [0.7464, 0.6655], atol=5e-4)


def test_canonical_sign():
    v = np.array([0.1, -0.9, 0.2])
    out = canonical_sign(v)
    assert out[1] > 0
    assert np.array_equal(out, -v)
    assert np.array_equal(canonical_sign(out), out)


def test_sign_deterministic_across_calls():
    # Similarity transform of a block-diagonal seed: spectrum is known
    # (unique real unstable 0.7), the matrix itself is dense and messy.
    rng = np.random.default_rng(3)
    blocks = np.zeros((5, 5))
    blocks[0, 0] = 0.7
    blocks[1:3, 1:3] = [[-0.3, 0.9], [-0.9, -0.3]]
    blocks[3, 3] = -1.0
    blocks[4, 4] = -2.0
    Q = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    A = Q @ blocks @ np.linalg.inv(Q)
    first = unstable_eigenpair(A)
    second = unstable_eigenpair(A)
    assert np.array_equal(first.vector, second.vector)
    assert first.value == second.value
    assert first.value.real == pytest.approx(0.7, rel=1e-12)
    k = int(np.argmax(np.abs(first.vector)))
    assert first.vector[k] > 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 20),
    seed=st.integers(0, 2**31 - 1),
)
def test_residual_bound_random_matrices(n, seed):
    """The returned eigenpair satisfies ||Av - lam v|| <= 1e-9 max(1, ||A||)
    on random matrices with exactly one unstable eigenvalue: a random real
    Schur form, stable but for its first entry and with some complex pairs,
    in a random orthonormal basis."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.01, 1.0, 100.0])
    T = np.triu(rng.normal(size=(n, n)))
    T[np.diag_indices(n)] = -rng.uniform(0.1, 2.0, size=n)
    T[0, 0] = rng.uniform(0.1, 2.0)
    for k in range(1, n - 1, 3):
        # a 2x2 block with equal diagonal and off-diagonal entries of
        # opposite signs: a complex pair with real part T[k, k] < 0
        T[k + 1, k + 1] = T[k, k]
        T[k + 1, k] = -np.sign(T[k, k + 1]) * rng.uniform(0.1, 2.0)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = scale * (Q @ T @ Q.T)
    assert unstable_count(A) == 1
    pr = unstable_eigenpair(A)
    assert pr.value.real == pytest.approx(scale * T[0, 0], rel=1e-6)
    bound = 1e-9 * max(1.0, np.linalg.norm(A, 2))
    assert pr.residual <= bound
    check = np.linalg.norm(A @ pr.vector - pr.value * pr.vector)
    assert check == pytest.approx(pr.residual, abs=1e-15)


def test_unstable_count_matches_eig():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.normal(size=(6, 6))
        n_direct = unstable_count(A)
        n_pairs = int(np.sum(np.linalg.eig(A).eigenvalues.real > 1e-9))
        assert n_direct == n_pairs


@pytest.mark.parametrize("n", [2, 6, 18])
def test_eigvals_kernel_equals_numpy_eigvals_bitwise(n):
    """``_eigvals`` takes the gufunc behind ``np.linalg.eigvals`` without
    its wrapper: the same eigenvalues, bit for bit, one matrix at a time or
    as a stack (random matrices, most with complex pairs)."""
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(20, n, n))
    together = _eigvals(stack)
    assert together.shape == (20, n) and together.dtype == complex
    pairs = 0
    for A, values in zip(stack, together):
        expected = np.linalg.eigvals(A)
        pairs += np.iscomplexobj(expected)
        assert np.array_equal(_eigvals(A), expected)
        assert np.array_equal(values, expected)
        assert spectral_abscissa(A) == np.max(expected.real)
    assert pairs > 0


def test_a_non_finite_eigenvalue_raises_convergence_failure(monkeypatch):
    """A non-finite input gives nan eigenvalues, as LAPACK does where it
    does not converge: both raise ``ConvergenceFailure``."""
    with pytest.raises(ConvergenceFailure):
        spectral_abscissa(np.array([[np.nan, 1.0], [0.0, -1.0]]))
    with pytest.raises(ConvergenceFailure):
        _eigvals(np.array([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]]))

    def unconverged(a, signature):
        w = np.linalg.eigvals(a).astype(complex)
        w[..., 0] = np.nan
        return w

    monkeypatch.setattr(spectral, "_gufunc_eigvals", unconverged)
    with pytest.raises(ConvergenceFailure):
        is_unstable(np.diag([1.0, -1.0]))
