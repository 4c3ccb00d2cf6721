import numpy as np
import pytest

from hhlsim import qcore
from hhlsim.errors import DimensionMismatch, EmptyKeepSet, NotHermitian
from hhlsim.qcore import (
    DensityMatrix,
    PureState,
    basis_state,
    canonical_phase,
    eig_hermitian,
    fidelity,
    matrix_exp_hermitian,
    partial_trace,
)

A_DEMO = np.array([[1.5, 0.5], [0.5, 1.5]], dtype=complex)
U1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
U2 = np.array([1.0, 1.0]) / np.sqrt(2.0)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def rebuild(s):
    """The matrix a spectral decomposition describes, V diag(w) V^dagger."""
    return (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T


def random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = m @ m.conj().T
    return DensityMatrix(m / np.trace(m))


class TestEigHermitian:
    def test_demo_matrix(self):
        s = eig_hermitian(A_DEMO)
        assert np.allclose(s.eigenvalues, [1.0, 2.0], atol=1e-12)
        assert abs(abs(np.vdot(s.eigenvectors[:, 0], U1)) - 1.0) < 1e-10
        assert abs(abs(np.vdot(s.eigenvectors[:, 1], U2)) - 1.0) < 1e-10

    def test_identity(self):
        s = eig_hermitian(np.eye(2))
        assert np.allclose(s.eigenvalues, [1.0, 1.0])
        overlaps = s.eigenvectors.conj().T @ s.eigenvectors
        assert np.allclose(overlaps, np.eye(2), atol=1e-10)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(101)
        a = random_hermitian(rng, 4)
        s = eig_hermitian(a)
        assert np.max(np.abs(rebuild(s) - a)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_round_trip_many_sizes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            a = random_hermitian(rng, n)
            s = eig_hermitian(a)
            assert np.max(np.abs(rebuild(s) - a)) < 1e-9
            overlaps = s.eigenvectors.conj().T @ s.eigenvectors
            assert np.max(np.abs(overlaps - np.eye(n))) < 1e-10
            assert np.all(np.diff(s.eigenvalues) >= -1e-12)


class TestMatrixExp:
    def test_full_period_is_identity(self):
        u = matrix_exp_hermitian(eig_hermitian(A_DEMO), 2.0 * np.pi)
        assert np.max(np.abs(u - np.eye(2))) < 1e-10

    def test_quarter_period_eigenphase(self):
        u = matrix_exp_hermitian(eig_hermitian(A_DEMO), np.pi / 2.0)
        assert np.max(np.abs(u @ U2 - (-U2))) < 1e-10

    def test_zero_generator(self):
        s = eig_hermitian(np.zeros((2, 2)))
        for t in (0.0, 1.0, 17.3):
            assert np.max(np.abs(matrix_exp_hermitian(s, t) - np.eye(2))) < 1e-12

    def test_always_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = eig_hermitian(random_hermitian(rng, 4))
            u = matrix_exp_hermitian(s, rng.normal())
            assert qcore.unitarity_defect(u) < 1e-10

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = eig_hermitian(random_hermitian(rng, int(rng.integers(2, 9))))
            s, t = rng.normal(size=2)
            left = matrix_exp_hermitian(a, s) @ matrix_exp_hermitian(a, t)
            assert np.max(np.abs(left - matrix_exp_hermitian(a, s + t))) < 1e-9


class TestFidelity:
    def test_self_fidelity(self):
        rho = basis_state(1, 0).density()
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        r0 = basis_state(1, 0).density()
        r1 = basis_state(1, 1).density()
        assert fidelity(r0, r1) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_plus(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert fidelity(basis_state(1, 0).density(), plus.density()) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            r1 = random_density(rng, 4)
            r2 = random_density(rng, 4)
            f12 = fidelity(r1, r2)
            f21 = fidelity(r2, r1)
            assert abs(f12 - f21) < 1e-12
            assert -1e-12 <= f12 <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(basis_state(1, 0).density(), basis_state(2, 0).density())

    def test_matches_trace_of_products(self):
        rng = np.random.default_rng(8)
        for n in (2, 4, 8, 16):
            r1, r2 = random_density(rng, n), random_density(rng, n)
            p1 = np.trace(r1.matrix @ r1.matrix).real
            p2 = np.trace(r2.matrix @ r2.matrix).real
            assert abs(r1.purity() - p1) < 1e-12
            expected = np.trace(r1.matrix @ r2.matrix).real / np.sqrt(p1 * p2)
            assert abs(fidelity(r1, r2) - expected) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        state = basis_state(1, 0).tensor(basis_state(1, 1))
        reduced = partial_trace(state.density(), keep=[1])
        assert np.max(np.abs(reduced.matrix - basis_state(1, 1).density().matrix)) < 1e-12

    def test_bell_state_is_maximally_mixed(self):
        bell = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        for q in (0, 1):
            reduced = partial_trace(bell.density(), keep=[q])
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) < 1e-12

    def test_four_qubit_invariants(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        reduced = partial_trace(PureState(v).density(), keep=[2, 3])
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-10
        assert qcore.hermiticity_defect(reduced.matrix) < 1e-10

    def test_empty_keep_set(self):
        with pytest.raises(EmptyKeepSet):
            partial_trace(basis_state(2, 0).density(), keep=[])


class TestStateTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_pure_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(np.array([bad, 0.0]))

    def test_pure_state_power_of_two(self):
        with pytest.raises(DimensionMismatch):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_hermiticity_enforced(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(NotHermitian):
            DensityMatrix(m)

    def test_density_positivity_enforced(self):
        m = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_arrays_are_read_only(self):
        s = basis_state(2, 1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0


class TestCanonicalPhase:
    def test_first_component_made_real_positive(self):
        v = np.array([1j, 1.0]) / np.sqrt(2.0)
        out = canonical_phase(v)
        assert out[0].imag == pytest.approx(0.0, abs=1e-12)
        assert out[0].real > 0.0

    def test_skips_negligible_leading_entries(self):
        v = np.array([1e-16, -1.0])
        out = canonical_phase(v)
        assert out[1].real > 0.0

    def test_preserves_physical_content(self):
        rng = np.random.default_rng(21)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        out = canonical_phase(v)
        assert abs(abs(np.vdot(out, v)) - 1.0) < 1e-12
