"""SymMatrix and the eigenvalue and definiteness oracles of tests/oracles.py.

The file keeps the name of the module these once lived in, so that the ids
of its tests stay stable.
"""
import numpy as np
import pytest

from heatsync import SymMatrix, evaluate_certificate

from oracles import NoConvergence, is_negative_definite, sym_eigenvalues


class TestSymMatrix:
    def test_symmetrizes(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert np.allclose(m.mat, [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))


class TestSymEigenvalues:
    def test_diagonal(self):
        spec = sym_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [-1.0, 2.0, 3.0])
        assert spec.residual <= 1e-10

    def test_known_2x2(self):
        spec = sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_boundary_feedback_kernel_2x2(self):
        # oracle: roots of l^2 - tr*l + det for [[-pi^2/2, 3], [3, -6]]
        a = np.array([[-np.pi**2 / 2, 3.0], [3.0, -6.0]])
        tr, det = a.trace(), np.linalg.det(a)
        disc = np.sqrt(tr**2 - 4 * det)
        roots = sorted([(tr - disc) / 2, (tr + disc) / 2])
        assert roots[1] < 0  # both eigenvalues negative
        spec = sym_eigenvalues(a)
        assert np.allclose(spec.eigenvalues, roots, atol=1e-12)

    def test_matches_lapack_on_randoms(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            b = rng.standard_normal((n, n))
            s = (b + b.T) / 2
            mine = sym_eigenvalues(s).eigenvalues
            ref = np.linalg.eigvalsh(s)
            assert np.max(np.abs(mine - ref)) <= 1e-9

    def test_trace_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            b = rng.standard_normal((n, n))
            s = (b + b.T) / 2
            spec = sym_eigenvalues(s)
            bound = n * 1e-10 * max(1.0, np.abs(s).max())
            assert abs(spec.eigenvalues.sum() - np.trace(s)) <= bound

    def test_no_convergence_when_capped(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NoConvergence):
            sym_eigenvalues(a, max_sweeps=0)


class TestNegativeDefinite:
    def test_minus_identity_with_margin(self):
        assert is_negative_definite(-np.eye(4), margin=0.5)

    def test_zero_matrix_not_definite(self):
        assert not is_negative_definite(np.zeros((3, 3)), margin=0.0)

    def test_agrees_with_eigenvalues(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 500:
            n = int(rng.integers(1, 13))
            b = rng.standard_normal((n, n))
            s = (b + b.T) / 2 - rng.uniform(-1, 1) * np.eye(n)
            margin = float(rng.choice([0.0, 1e-6, 0.1]))
            top = sym_eigenvalues(s).eigenvalues[-1]
            if abs(top + margin) <= 1e-8:  # boundary band excluded
                continue
            verdict = top < -margin
            assert is_negative_definite(s, margin) == verdict
            # the verdict against -margin is the verdict on s + margin I
            assert evaluate_certificate(SymMatrix(s + margin * np.eye(n))).feasible == verdict
            checked += 1

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            is_negative_definite(-np.eye(2), margin=-1.0)

