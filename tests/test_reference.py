import numpy as np
import pytest

from hhlsim.errors import NotPositiveDefinite, SingularMatrix
from hhlsim.reference import conjugate_gradient, direct_solve

A_DEMO = np.array([[1.5, 0.5], [0.5, 1.5]])


def random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


class TestDirectSolve:
    def test_demo_system(self):
        x = direct_solve(A_DEMO, [1.0, 0.0])
        assert np.max(np.abs(x - np.array([0.75, -0.25]))) < 1e-12
        assert np.linalg.norm(A_DEMO @ x - np.array([1.0, 0.0])) < 1e-10

    def test_identity(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=5)
        assert np.max(np.abs(direct_solve(np.eye(5), b) - b)) < 1e-12

    def test_eigenvector_rhs(self):
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        x = direct_solve(A_DEMO, b)
        assert np.max(np.abs(x - b / 2.0)) < 1e-12

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            direct_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 0.0])

    @pytest.mark.parametrize("k", [-150, -13, 0, 13, 150])
    def test_scaled_matrix_gives_one_direction(self, k):
        # an absolute 1e-12 pivot rule refused k = -13 and k = -150, where kappa is still 2
        x = direct_solve(10.0**k * A_DEMO, [1.0, 0.0])
        assert np.max(np.abs(x / np.linalg.norm(x) - np.array([3.0, -1.0]) / np.sqrt(10.0))) < 1e-12

    def test_overflowing_solution_is_singular(self):
        # LAPACK returns inf here without a warning
        with pytest.raises(SingularMatrix, match="not finite"):
            direct_solve(np.array([[1e-300, 0.0], [0.0, 1.0]]), [1e10, 0.0])

    def test_complex_hermitian(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = m @ m.conj().T + 6 * np.eye(6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        x = direct_solve(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10


class TestConjugateGradient:
    def test_demo_system_two_iterations(self):
        report = conjugate_gradient(A_DEMO, [1.0, 0.0], tol=1e-10)
        assert np.max(np.abs(report.solution - np.array([0.75, -0.25]))) < 1e-9
        assert report.iterations <= 2

    def test_identity_single_iteration(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=8)
        report = conjugate_gradient(np.eye(8), b, tol=1e-12)
        assert report.iterations == 1
        assert np.max(np.abs(report.solution - b)) < 1e-12

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 16)
        b = rng.normal(size=16)
        report = conjugate_gradient(a, b, tol=1e-12)
        assert np.max(np.abs(report.solution - direct_solve(a, b))) < 1e-8

    def test_residual_field_is_consistent(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 10)
        b = rng.normal(size=10)
        report = conjugate_gradient(a, b, tol=1e-10)
        assert report.residual_norm == pytest.approx(
            float(np.linalg.norm(a @ report.solution - b)), abs=1e-12
        )
        assert report.residual_norm < 1e-10

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(NotPositiveDefinite):
            conjugate_gradient(np.diag([1.0, -1.0]), [1.0, 1.0])

    def test_agreement_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            a = random_spd(rng, n)
            b = rng.normal(size=n)
            report = conjugate_gradient(a, b, tol=1e-11)
            assert np.max(np.abs(report.solution - direct_solve(a, b))) < 1e-8
            assert report.iterations <= n + 2
