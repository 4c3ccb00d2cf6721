import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hhlsim import circuit as qc
from hhlsim import hhl, qcore, reference
from hhlsim.errors import (
    DimensionMismatch,
    EigenvalueNotEncodable,
    NotHermitian,
    NotPositiveDefinite,
    RegisterTooWide,
    WidthMismatch,
    ZeroProbabilityBranch,
)
from hhlsim.qcore import PureState, basis_state

A_DEMO = np.array([[1.5, 0.5], [0.5, 1.5]])


def demo_system(b):
    return hhl.linear_system(A_DEMO, b, normalize=True)


def traced_peak(f, *args, **kwargs):
    """Bytes that ``f(*args, **kwargs)`` allocates at its peak, above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def encodable_system(rng, dim):
    """Random Hermitian system with eigenvalues drawn from {1, 2, 3}."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lam = rng.choice([1.0, 2.0, 3.0], size=dim)
    lam[0] = rng.choice([1.0, 2.0])  # keep at least one small eigenvalue
    a = (q * lam) @ q.conj().T
    a = (a + a.conj().T) / 2.0
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return hhl.linear_system(a, b, normalize=True)


class TestLinearSystem:
    def test_rejects_non_positive_spectrum(self):
        with pytest.raises(NotPositiveDefinite):
            hhl.linear_system(np.diag([1.0, -2.0]), [1.0, 0.0])

    def test_condition_number(self):
        s = demo_system([1.0, 0.0])
        assert s.kappa == pytest.approx(2.0, abs=1e-12)

    def test_requires_unit_b(self):
        with pytest.raises(ValueError):
            hhl.linear_system(A_DEMO, [1.0, 1.0])

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("b", [[np.nan, 1.0], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]])
    def test_rejects_non_finite_b_before_decomposing(self, monkeypatch, normalize, b):
        def fail(a):
            raise AssertionError("eigendecomposition reached")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ValueError, match="non-finite"):
            hhl.linear_system(A_DEMO, b, normalize=normalize)

    def test_normalize_keeps_the_bits_of_a_plain_division_in_range(self):
        rng = np.random.default_rng(5)
        scales = 10.0 ** rng.integers(-100, 100, size=(50, 1))
        for b in (rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))) * scales:
            assert np.array_equal(hhl.linear_system(np.eye(4), b, normalize=True).b, b / np.linalg.norm(b))

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_rejects_sizes_without_a_register(self, dim):
        with pytest.raises(DimensionMismatch):
            hhl.linear_system(np.eye(dim), np.eye(dim)[0])


class TestLinearSystemConstructor:
    """``LinearSystem(a, b)`` checks A, then b, and derives the spectrum and kappa itself."""

    def fields(self):
        s = demo_system([1.0, 0.0])
        return {"a": s.a, "b": s.b}

    def test_accepts_a_checked_system(self):
        s = hhl.LinearSystem(**self.fields())
        assert s.kappa == 2.0
        assert not s.a.flags.writeable and not s.b.flags.writeable
        assert not s.spectrum.eigenvalues.flags.writeable and not s.spectrum.eigenvectors.flags.writeable

    def test_rejects_a_b_that_is_not_a_unit_vector(self):
        # unchecked, this system ran to a final state of norm 1.414 and a success probability of 0.5
        with pytest.raises(ValueError, match="unit vector"):
            hhl.LinearSystem(**{**self.fields(), "b": np.array([1.0, 1.0])})

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("a", A_DEMO + 0.1j, NotHermitian),
            ("a", np.array([[np.nan, 0.5], [0.5, 1.5]]), ValueError),
            ("a", np.eye(3), DimensionMismatch),
            ("b", np.array([1.0, 0.0, 0.0]), WidthMismatch),
            ("b", np.array([np.nan, 1.0]), ValueError),
            ("a", np.diag([-1.0, 2.0]), NotPositiveDefinite),
            # eigh returns [2.19e307, inf]; accepted, this system had kappa = inf
            ("a", np.array([[1e308, 1e308], [1e308, 1.5e308]]), EigenvalueNotEncodable),
            ("a", np.diag([1e-300, 1e10]), EigenvalueNotEncodable),
        ],
        ids=[
            "non_hermitian_a", "nan_a", "a_without_register", "b_of_other_width", "nan_b", "negative_eigenvalue",
            "infinite_eigenvalue", "kappa_overflow",
        ],
    )
    def test_rejects_each_bad_field(self, field, value, error):
        with pytest.raises(error):
            hhl.LinearSystem(**{**self.fields(), field: value})

    @pytest.mark.parametrize("derived", ["spectrum", "kappa"])
    def test_derived_fields_are_not_arguments(self, derived):
        s = demo_system([1.0, 0.0])
        with pytest.raises(TypeError):
            hhl.LinearSystem(s.a, s.b, **{derived: getattr(s, derived)})

    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_equals_linear_system_bit_for_bit(self, n_b):
        rng = np.random.default_rng(30 + n_b)
        dim = 2**n_b
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            a = (q * rng.uniform(0.5, 3.0, size=dim)) @ q.conj().T
            b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            b /= np.linalg.norm(b)
            direct, built = hhl.LinearSystem(a, b), hhl.linear_system(a, b)
            for x, y in [
                (direct.a, built.a),
                (direct.b, built.b),
                (direct.spectrum.eigenvalues, built.spectrum.eigenvalues),
                (direct.spectrum.eigenvectors, built.spectrum.eigenvectors),
            ]:
                assert x.dtype == y.dtype and np.array_equal(x, y)
            assert direct.kappa == built.kappa

    def test_linear_system_checks_a_once(self, monkeypatch):
        calls = []
        check = qcore.require_hermitian

        def counting(a):
            calls.append(np.shape(a))
            return check(a)

        monkeypatch.setattr(qcore, "require_hermitian", counting)
        demo_system([1.0, 0.0])
        assert calls == [(2, 2)]


def rebuild(s):
    """The matrix a spectral decomposition describes, V diag(w) V^dagger."""
    return (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T


def random_positive_definite(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m @ m.conj().T + np.eye(n)


class TestLinearSystemSpectrum:
    """The one eigendecomposition of A, taken by ``LinearSystem``."""

    def test_demo_matrix(self):
        s = demo_system([1.0, 0.0]).spectrum
        assert np.allclose(s.eigenvalues, [1.0, 2.0], atol=1e-12)
        assert abs(abs(np.vdot(s.eigenvectors[:, 0], [2**-0.5, -(2**-0.5)])) - 1.0) < 1e-10
        assert abs(abs(np.vdot(s.eigenvectors[:, 1], [2**-0.5, 2**-0.5])) - 1.0) < 1e-10

    def test_identity(self):
        s = hhl.LinearSystem(np.eye(2), [1.0, 0.0]).spectrum
        assert np.allclose(s.eigenvalues, [1.0, 1.0])
        overlaps = s.eigenvectors.conj().T @ s.eigenvectors
        assert np.allclose(overlaps, np.eye(2), atol=1e-10)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(101)
        a = random_positive_definite(rng, 4)
        s = hhl.LinearSystem(a, np.eye(4)[0]).spectrum
        assert np.max(np.abs(rebuild(s) - a)) < 1e-9 * np.max(np.abs(a))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hhl.LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0])

    def test_round_trip_many_sizes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = 2 ** int(rng.integers(1, 5))
            a = random_positive_definite(rng, n)
            s = hhl.LinearSystem(a, np.eye(n)[0]).spectrum
            assert np.max(np.abs(rebuild(s) - a)) < 1e-9 * np.max(np.abs(a))
            overlaps = s.eigenvectors.conj().T @ s.eigenvectors
            assert np.max(np.abs(overlaps - np.eye(n))) < 1e-10
            assert np.all(np.diff(s.eigenvalues) >= -1e-12)


class TestHermiticityScale:
    """A and 10^k A are accepted or rejected alike: the check is relative to max|A|."""

    @pytest.mark.parametrize(
        "a",
        [
            A_DEMO,
            np.array([[1.5, 0.6], [0.5, 1.5]]),
            np.array([[1.5, 0.5 + 1e-9j], [0.5, 1.5]]),
            np.array([[1.5, 0.5 + 1e-11], [0.5, 1.5]]),
        ],
        ids=["hermitian", "asymmetric", "off_by_1e-9", "off_by_1e-11"],
    )
    def test_scaled_matrices_get_one_verdict(self, a):
        verdicts = []
        for k in (-12, 0, 12):
            try:
                hhl.LinearSystem(10.0**k * a, [1.0, 0.0])
                verdicts.append("accepted")
            except NotHermitian:
                verdicts.append("rejected")
        assert len(set(verdicts)) == 1

    def test_small_asymmetric_matrix_rejected(self):
        # with an absolute 1e-10 bound this passed, and eigh solved its lower triangle, not A
        with pytest.raises(NotHermitian):
            hhl.LinearSystem(np.array([[1.5e-12, 0.6e-12], [0.5e-12, 1.5e-12]]), [1.0, 0.0])

    def test_rounding_of_a_large_matrix_accepted(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
            a = (q * np.linspace(1e6, 2e6, 8)) @ q.conj().T
            hhl.LinearSystem(a, np.eye(8)[0])


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t0": np.nan}, {"t0": np.inf}, {"c_tilde": np.nan}, {"c_tilde": np.inf}, {"r": np.inf}, {"r": 2.5},
            {"clock_qubits": 2.5}, {"clock_qubits": np.inf},
        ],
        ids=[
            "t0_nan", "t0_inf", "c_tilde_nan", "c_tilde_inf", "r_inf", "r_fraction",
            "clock_qubits_fraction", "clock_qubits_inf",
        ],
    )
    def test_rejects_non_finite_and_fractional_values(self, kwargs):
        with pytest.raises(ValueError):
            hhl.SolverConfig(**kwargs)

    def test_r_is_stored_as_int(self):
        r = hhl.SolverConfig(r=2.0).r
        assert r == 2 and type(r) is int

    def test_clock_qubits_is_stored_as_int(self):
        t = hhl.SolverConfig(clock_qubits=3.0).clock_qubits
        assert t == 3 and type(t) is int

    @pytest.mark.parametrize("r", [1024, 10**400], ids=["past_the_float_range", "past_int64"])
    def test_huge_r_leaves_no_post_selection(self, r):
        # 2**r as a float overflowed here; 2pi / 2^r now rounds to a subnormal or to 0
        with pytest.raises(ZeroProbabilityBranch):
            hhl.run_hhl(demo_system([1.0, 0.0]), hhl.SolverConfig(r=r))

    @pytest.mark.parametrize("t", [2000, 10**12], ids=["past_the_float_range", "a_trillion"])
    def test_huge_clock_is_over_budget_before_any_2_to_the_t(self, t):
        with pytest.raises(RegisterTooWide):
            hhl.resolve_config(demo_system([1.0, 0.0]), hhl.SolverConfig(clock_qubits=t))

    def test_small_r_keeps_the_bits_of_a_power_of_two_division(self):
        lam = np.array([1.0, 2.0, 3.0])
        for r in (1, 2, 17, 1023):
            theta, _, _ = hhl._inversion_rotation(hhl.SolverConfig(r=r), lam)
            assert np.array_equal(theta, (2.0 * np.pi / 2**r) / lam)


class TestPrepareB:
    def test_theta_zero(self):
        assert np.allclose(hhl.prepare_b(0.0).amplitudes, [1.0, 0.0])

    def test_theta_half_pi(self):
        amp = hhl.prepare_b(np.pi / 2.0).amplitudes
        assert np.allclose(amp, [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)

    def test_theta_pi(self):
        amp = hhl.prepare_b(np.pi).amplitudes
        assert abs(amp[1] - 1.0) < 1e-12


def clock_step(s, cfg):
    """exp(-i A t0 / 2^t), assembled independently of the package."""
    return scipy.linalg.expm(-1j * s.a * cfg.t0 / 2**cfg.clock_qubits)


class TestConditionalEvolution:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_one_single_control_power_per_clock_qubit(self, t):
        s = demo_system([1.0, 0.0])
        cfg = hhl.SolverConfig(clock_qubits=t)
        gates = hhl.conditional_evolution(s, cfg)
        assert len(gates) == t
        u1 = clock_step(s, cfg)
        for q, gate in enumerate(gates):
            assert gate.controls == ((q, 1),)
            assert gate.targets == (t,)
            assert np.max(np.abs(gate.matrix - np.linalg.matrix_power(u1, 2 ** (t - 1 - q)))) < 1e-10

    def test_build_circuit_exponentiates_once_per_clock_qubit(self, monkeypatch):
        calls = []
        exp = qcore.matrix_exp_hermitian

        def counting(spectrum, time):
            calls.append(time)
            return exp(spectrum, time)

        monkeypatch.setattr(qcore, "matrix_exp_hermitian", counting)
        s = demo_system([1.0, 0.0])
        cfg = hhl.resolve_config(s, hhl.SolverConfig(clock_qubits=5))
        hhl.build_circuit(s, cfg)
        assert len(calls) == 5

    @pytest.mark.parametrize("nb", [1, 2], ids=lambda nb: f"nb{nb}")
    @pytest.mark.parametrize("t", [1, 2, 3, 4], ids=lambda t: f"t{t}")
    def test_product_matches_summed_operator(self, t, nb):
        s = encodable_system(np.random.default_rng(10 * t + nb), 2**nb)
        cfg = hhl.SolverConfig(clock_qubits=t)
        n = t + nb
        c = qc.Circuit(n, tuple(hhl.conditional_evolution(s, cfg)))
        cols = [qc.run_circuit(basis_state(n, i), c).amplitudes for i in range(2**n)]
        got = np.array(cols).T
        # independent assembly of sum_tau |tau><tau| (x) U^tau
        u1 = clock_step(s, cfg)
        expected = np.zeros((2**n, 2**n), dtype=complex)
        for tau in range(2**t):
            proj = np.zeros((2**t, 2**t))
            proj[tau, tau] = 1.0
            expected += np.kron(proj, np.linalg.matrix_power(u1, tau))
        assert np.max(np.abs(got - expected)) < 1e-10


def lsb_first(label, t=2):
    """Clock basis index (qubit 0 = MSB) holding ``label`` read least significant bit first."""
    return int(format(label, f"0{t}b")[::-1], 2)


def inversion_angles(circuit):
    """Angles of the circuit's one label-keyed inversion rotation."""
    (rotation,) = [g for g in circuit.gates if isinstance(g, qc.MultiplexedRy)]
    return rotation.angles


def label_table(cfg):
    """The inversion's label -> angle table on a two-qubit clock, read off the
    label-keyed rotation of a system on labels {1, 3}, which the per-bit
    circuit cannot invert."""
    (rotation,) = hhl._inversion_gates(hhl.linear_system(np.diag([1.0, 3.0]), [1.0, 0.0]), cfg)
    return rotation.angles


def phase_estimate(s, b):
    """Phase estimation of the demo system on |00>_clock (x) |b>."""
    initial = basis_state(2, 0).tensor(PureState(b))
    return qc.run_circuit(initial, qc.Circuit(3, tuple(hhl._qpe_gates(s, hhl.SolverConfig()))))


class TestPhaseEstimate:
    def test_eigenvector_inputs_write_their_labels(self):
        s = demo_system([1.0, 0.0])
        for j, label in ((0, 1), (1, 2)):
            out = phase_estimate(s, s.spectrum.eigenvectors[:, j])
            clock_probs = out.probabilities().reshape(4, 2).sum(axis=1)
            assert clock_probs[lsb_first(label)] == pytest.approx(1.0, abs=1e-9)

    def test_generic_input_splits_evenly(self):
        s = demo_system([1.0, 0.0])
        out = phase_estimate(s, np.array([1.0, 0.0], dtype=complex))
        beta = s.expansion_coefficients()
        assert np.allclose(np.abs(beta), [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)
        clock_probs = out.probabilities().reshape(4, 2).sum(axis=1)
        assert clock_probs[1] == pytest.approx(0.5, abs=1e-9)
        assert clock_probs[2] == pytest.approx(0.5, abs=1e-9)
        # no mass leaks to the labels 0 and 3 that no eigenvalue encodes
        assert clock_probs[0] + clock_probs[3] < 1e-10


class TestInversionGates:
    def apply_branch(self, gates, clock_index):
        state = basis_state(2, clock_index).tensor(basis_state(1, 0)).tensor(basis_state(1, 0))
        return qc.run_circuit(state, qc.Circuit(4, tuple(gates)))

    def test_linear_mode_amplitudes(self):
        s = demo_system([1.0, 0.0])
        gates = hhl._inversion_gates(s, hhl.resolve_config(s, hhl.SolverConfig(rotation_mode="linear", r=2)))
        # clock |10> = label 1 = eigenvalue 1: theta = pi/2, amplitude sin(pi/4)
        out = self.apply_branch(gates, 0b10)
        anc1 = np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1])
        assert anc1 == pytest.approx(np.sin(np.pi / 4.0), abs=1e-12)
        # clock |01> = label 2 = eigenvalue 2: theta = pi/4, amplitude sin(pi/8)
        out = self.apply_branch(gates, 0b01)
        anc1 = np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1])
        assert anc1 == pytest.approx(np.sin(np.pi / 8.0), abs=1e-12)

    def test_exact_mode_amplitudes(self):
        s = demo_system([1.0, 0.0])
        gates = hhl._inversion_gates(s, hhl.SolverConfig(rotation_mode="exact", c_tilde=1.0))
        # the per-bit circuit is linear-mode only: exact mode keys every label
        assert [type(g) for g in gates] == [qc.MultiplexedRy]
        out = self.apply_branch(gates, lsb_first(1))
        assert np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1]) == pytest.approx(1.0, abs=1e-12)
        out = self.apply_branch(gates, lsb_first(2))
        assert np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_linear_demo_gets_one_controlled_ry_per_clock_qubit(self):
        s = demo_system([1.0, 0.0])
        cfg = hhl.resolve_config(s, hhl.SolverConfig(rotation_mode="linear"))
        table = label_table(cfg)
        gates = hhl._inversion_gates(s, cfg)
        assert [type(g) for g in gates] == [qc.ControlledUnitary, qc.ControlledUnitary]
        # label 2^q sets only clock qubit q
        for q, gate in enumerate(gates):
            assert gate.controls == ((q, 1),)
            assert np.array_equal(gate.matrix, qcore.rotation_y(table[2**q]))

    @pytest.mark.parametrize(
        "a, kwargs",
        [
            (A_DEMO, {"rotation_mode": "exact"}),
            (A_DEMO, {"rotation_mode": "linear", "clock_qubits": 3}),
            (np.diag([1.0, 3.0]), {"rotation_mode": "linear"}),
        ],
        ids=["exact", "linear-t3", "linear-labels-1-3"],
    )
    def test_other_cases_get_one_label_keyed_rotation(self, a, kwargs):
        s = hhl.linear_system(a, [1.0, 0.0])
        gates = hhl._inversion_gates(s, hhl.resolve_config(s, hhl.SolverConfig(**kwargs)))
        assert [type(g) for g in gates] == [qc.MultiplexedRy]
        assert gates[0].angles.shape == (2 ** kwargs.get("clock_qubits", 2),)

    def test_qft_without_bit_reversal_relabels_clock(self):
        s = demo_system([1.0, 0.0])
        estimated = phase_estimate(s, s.spectrum.eigenvectors[:, 0])
        clock_probs = estimated.probabilities().reshape(4, 2).sum(axis=1)
        # eigenvalue 1 lands on |10>, which read MSB first is 2 = 2/lambda_1:
        # the relabelling the paper's clock swap performs
        assert clock_probs[0b10] == pytest.approx(1.0, abs=1e-9)

    def test_label_keyed_circuit_is_quadratic_in_clock_width(self):
        s = hhl.linear_system(np.eye(2), [1.0, 0.0])
        for t in range(1, 15):
            cfg = hhl.resolve_config(s, hhl.SolverConfig(clock_qubits=t, rotation_mode="exact"))
            c = hhl.build_circuit(s, cfg)
            # t Hadamards, t evolution blocks and a t(t+1)/2-gate QFT each way, one rotation
            assert len(c) == t * t + 5 * t + 1
            assert inversion_angles(c).shape == (2**t,)

    @pytest.mark.parametrize("mode", ["linear", "exact"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_swap_and_label_keyed_paths_agree(self, mode, r):
        s = demo_system([1.0, 0.0])
        cfg = hhl.resolve_config(s, hhl.SolverConfig(rotation_mode=mode, r=r))
        keyed = [qc.MultiplexedRy((0, 1), 3, label_table(cfg))]
        per_bit = hhl._inversion_gates(s, cfg)
        # the paper's per-bit path is linear-mode only; exact mode keys every label
        assert isinstance(per_bit[0], qc.ControlledUnitary) == (mode == "linear")
        # eigenvalues 1 and 2 are encoded on clock labels 1 and 2
        for j, label in enumerate((1, 2)):
            idx = lsb_first(label)
            via_bits = self.apply_branch(per_bit, idx).amplitudes.reshape(4, 2, 2)[idx, 0]
            via_label = self.apply_branch(keyed, idx).amplitudes.reshape(4, 2, 2)[idx, 0]
            u = s.spectrum.eigenvectors[:, j]
            theory = hhl.theoretical_final_state(hhl.linear_system(A_DEMO, u), cfg)
            branch = u.conj() @ theory.amplitudes.reshape(4, 2, 2)[0]
            assert np.max(np.abs(via_bits - via_label)) < 1e-12
            assert np.max(np.abs(via_bits - branch)) < 1e-12


class TestRunHhl:
    def test_eigenvector_input_returns_itself(self):
        s = demo_system(np.array([1.0, 1.0]) / np.sqrt(2.0))
        report = hhl.run_hhl(s, hhl.SolverConfig(rotation_mode="exact"))
        assert np.max(np.abs(report.x_quantum - np.array([1.0, 1.0]) / np.sqrt(2.0))) < 1e-9

    def test_b10_exact_solution(self):
        report = hhl.run_hhl(demo_system([1.0, 0.0]), hhl.SolverConfig(rotation_mode="exact"))
        expected = np.array([3.0, -1.0]) / np.sqrt(10.0)
        assert np.max(np.abs(report.x_quantum - expected)) < 1e-9
        assert abs(np.vdot(report.x_quantum, report.x_classical)) > 1.0 - 1e-9

    def test_linear_mode_symmetric_input(self):
        s = demo_system(np.array([1.0, 1.0]) / np.sqrt(2.0))
        report = hhl.run_hhl(s, hhl.SolverConfig(rotation_mode="linear", r=2))
        assert report.solution_ratio_sq == pytest.approx(1.0, abs=1e-12)
        assert report.success_probability == pytest.approx(np.sin(np.pi / 8.0) ** 2, abs=1e-9)

    def test_uncompute_residual(self):
        for b in ([1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2.0)):
            for mode in ("linear", "exact"):
                report = hhl.run_hhl(demo_system(b), hhl.SolverConfig(rotation_mode=mode))
                assert report.clock_residual < 1e-10

    def test_postselection_matches_branch_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            s = encodable_system(rng, 2)
            cfg = hhl.SolverConfig(rotation_mode="linear", r=3)
            report = hhl.run_hhl(s, cfg)
            beta = s.expansion_coefficients()
            theta = (2.0 * np.pi / 2**cfg.r) / s.spectrum.eigenvalues
            expected = float(np.sum(np.abs(beta * np.sin(theta / 2.0)) ** 2))
            assert report.success_probability == pytest.approx(expected, abs=1e-10)

    def test_global_phase_of_b_is_irrelevant(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        b /= np.linalg.norm(b)
        r1 = hhl.run_hhl(hhl.linear_system(A_DEMO, b), hhl.SolverConfig(rotation_mode="exact"))
        r2 = hhl.run_hhl(
            hhl.linear_system(A_DEMO, np.exp(0.7j) * b), hhl.SolverConfig(rotation_mode="exact")
        )
        assert np.max(np.abs(np.abs(r1.x_quantum) - np.abs(r2.x_quantum))) < 1e-10

    def test_oracle_equivalence_small_batch(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            s = encodable_system(rng, int(rng.choice([2, 4])))
            report = hhl.run_hhl(s, hhl.SolverConfig(rotation_mode="exact"))
            assert abs(np.vdot(report.x_quantum, report.x_classical)) > 1.0 - 1e-9
            assert report.clock_residual < 1e-10

    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_pipeline_reuses_the_system_spectrum(self, monkeypatch, n_b):
        s = encodable_system(np.random.default_rng(n_b), 2**n_b)

        eigh = np.linalg.eigh

        def refuse_a(m, *args, **kwargs):
            if np.shape(m) == s.a.shape and np.array_equal(m, s.a):
                raise AssertionError("A decomposed again after linear_system")
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refuse_a)
        cfg = hhl.resolve_config(s, hhl.SolverConfig(rotation_mode="exact"))
        assert len(hhl.build_circuit(s, cfg)) > 0
        report = hhl.run_hhl(s, cfg)
        assert abs(np.vdot(report.x_quantum, report.x_classical)) > 1.0 - 1e-9

    def test_unencodable_spectrum_rejected(self):
        s = hhl.linear_system(np.diag([5.0, 2.0]), [0.6, 0.8])
        with pytest.raises(EigenvalueNotEncodable):
            hhl.run_hhl(s, hhl.SolverConfig())

    def test_c_tilde_above_lambda_min_rejected(self):
        s = demo_system([1.0, 0.0])
        with pytest.raises(ValueError):
            hhl.run_hhl(s, hhl.SolverConfig(rotation_mode="exact", c_tilde=1.5))

    def test_c_tilde_within_tolerance_is_clamped(self):
        s = demo_system([1.0, 0.0])
        cfg = hhl.SolverConfig(rotation_mode="exact", c_tilde=1.0 + 5e-10)
        default = hhl.SolverConfig(rotation_mode="exact")
        assert hhl.resolve_config(s, cfg).c_tilde == float(s.spectrum.eigenvalues.min())
        circuits = [hhl.build_circuit(s, hhl.resolve_config(s, c)) for c in (cfg, default)]
        # label 1 (eigenvalue 1) keeps its rotation by pi in both circuits
        assert [inversion_angles(c)[1] for c in circuits] == [np.pi, np.pi]
        theory = hhl.theoretical_final_state(s, cfg).amplitudes
        assert np.array_equal(theory, hhl.theoretical_final_state(s, default).amplitudes)
        report = hhl.run_hhl(s, cfg)
        assert np.max(np.abs(report.x_quantum - np.array([3.0, -1.0]) / np.sqrt(10.0))) < 1e-9

    def test_eigenvalue_within_tolerance_above_label_keeps_rotation(self):
        cfg = hhl.SolverConfig(rotation_mode="exact")
        b = np.array([0.6, 0.8])
        near = hhl.run_hhl(hhl.linear_system(np.diag([1.0 + 5e-10, 2.0]), b), cfg)
        exact = hhl.run_hhl(hhl.linear_system(np.diag([1.0, 2.0]), b), cfg)
        # c_tilde / lambda = 1 + 5e-10 on label 1 clips to a rotation by pi
        assert inversion_angles(near.circuit)[1] == np.pi
        assert near.fidelity_4q >= 1.0 - 1e-9
        assert abs(near.success_probability - exact.success_probability) < 1e-8

    def test_noisy_run_reports_band_metrics(self):
        s = demo_system(np.array([1.0, 1.0]) / np.sqrt(2.0))
        cfg = hhl.SolverConfig(rotation_mode="linear")

        def builder(c):
            events = list(qc.dephasing_schedule(c, 50.0, 500.0))
            events += list(qc.pulse_error_schedule(c, 0.0004))
            return events

        report = hhl.run_hhl(s, cfg, noise_builder=builder)
        assert 0.90 <= report.fidelity_4q < 1.0
        assert report.final_density is not None
        assert abs(np.trace(report.final_density.matrix) - 1.0) < 1e-10

    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_noisy_metrics_match_the_density_library(self, monkeypatch, n_b):
        seen = []
        dominant = hhl._dominant_vector

        def spy(rho):
            seen.append(rho.matrix)
            return dominant(rho)

        def builder(c):
            return qc.dephasing_schedule(c, 50.0, 500.0) + qc.pulse_error_schedule(c, 0.001)

        monkeypatch.setattr(hhl, "_dominant_vector", spy)
        rng = np.random.default_rng(70 + n_b)
        for mode in hhl.ROTATION_MODES:
            s = encodable_system(rng, 2**n_b)
            cfg = hhl.resolve_config(s, hhl.SolverConfig(clock_qubits=2, rotation_mode=mode, r=3))
            report = hhl.run_hhl(s, cfg, noise_builder=builder)
            rho = report.final_density
            prob, post = qc.measure_qubit(rho, rho.n_qubits - 1, 1)
            rho_b = qcore.partial_trace(post, range(2, 2 + n_b))
            fid = qcore.fidelity(hhl.theoretical_final_state(s, cfg).density(), rho)
            clock_mass = rho.populations().reshape(4, -1).sum(axis=1)
            assert abs(report.success_probability - prob) < 1e-12
            assert abs(report.clock_residual - (1.0 - clock_mass[0])) < 1e-12
            assert np.max(np.abs(seen.pop() - rho_b.matrix)) < 1e-12
            assert abs(report.fidelity_4q - fid) < 1e-12
            assert 0.0 < report.clock_residual and report.fidelity_4q < 1.0


class TestPureRunStaysStateVector:
    @pytest.mark.parametrize("mode", hhl.ROTATION_MODES)
    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_metrics_match_density_formulas(self, monkeypatch, mode, n_b):
        seen = []
        dominant = hhl._dominant_vector

        def spy(rho):
            seen.append(rho.matrix)
            return dominant(rho)

        monkeypatch.setattr(hhl, "_dominant_vector", spy)
        rng = np.random.default_rng(40 + n_b)
        for _ in range(3):
            s = encodable_system(rng, 2**n_b)
            cfg = hhl.resolve_config(s, hhl.SolverConfig(rotation_mode=mode, r=3))
            report = hhl.run_hhl(s, cfg)
            final = report.final_state
            _, post = qc.measure_qubit(final.density(), final.n_qubits - 1, 1)
            rho_b = qcore.partial_trace(post, range(2, 2 + n_b))
            theory = hhl.theoretical_final_state(s, cfg)
            fid = qcore.fidelity(theory.density(), final.density())
            assert np.max(np.abs(seen.pop() - rho_b.matrix)) < 1e-12
            assert abs(report.fidelity_4q - fid) < 1e-12

    def test_fidelities_stay_within_one(self):
        # b = (1, 0) in linear mode puts both formulas one ulp above 1 before clamping
        s = hhl.linear_system(A_DEMO, [1.0, 0.0])
        cfg = hhl.SolverConfig(rotation_mode="linear")
        report = hhl.run_hhl(s, cfg)
        assert report.fidelity_4q == 1.0
        assert qcore.fidelity(hhl.theoretical_final_state(s, cfg).density(), report.final_state.density()) == 1.0

    def test_sixteen_qubit_run_peaks_under_four_states(self):
        s = demo_system([0.6, 0.8])
        cfg = hhl.SolverConfig(clock_qubits=14, rotation_mode="exact")
        # the input, the evolved copy and the gate kernels' transients; the ideal
        # state is a clock-0 block, not a second full state
        peak = traced_peak(hhl.run_hhl, s, cfg)
        assert peak <= 4 * 16 * 2**16
        assert peak <= hhl.PURE_PEAK_STATES * 16 * 2**16

    def test_sixteen_qubit_exact_solve(self):
        s = encodable_system(np.random.default_rng(16), 16)
        report = hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=11, rotation_mode="exact"))
        assert len(report.final_state.amplitudes) == 2**16
        x = reference.direct_solve(s.a, s.b)
        assert abs(np.vdot(report.x_quantum, x / np.linalg.norm(x))) ** 2 >= 1.0 - 1e-9

    def test_no_density_wider_than_the_solution_register(self, monkeypatch):
        widths = []
        derive = qcore._derived

        def counting(cls, *values):
            if cls is qcore.DensityMatrix:
                widths.append(np.shape(values[0])[0])
            return derive(cls, *values)

        monkeypatch.setattr(qcore, "_derived", counting)
        s = encodable_system(np.random.default_rng(10), 8)
        report = hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=6, rotation_mode="exact"))
        assert report.final_state.n_qubits == 10
        assert widths and max(widths) <= 8


class TestEngineValuesAreNotRechecked:
    """Gates and densities the pipeline derives from a checked system run no
    check (qcore._derived); inputs still do (test_circuit, test_qcore)."""

    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_pure_run_makes_no_unitary_check(self, monkeypatch, n_b):
        shapes = []
        check = qcore.require_unitary

        def counting(u):
            shapes.append(np.shape(u))
            return check(u)

        monkeypatch.setattr(qcore, "require_unitary", counting)
        s = encodable_system(np.random.default_rng(50 + n_b), 2**n_b)
        for mode in hhl.ROTATION_MODES:
            hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=3, rotation_mode=mode))
        # the paper's per-bit inversion path
        hhl.run_hhl(demo_system([1.0, 0.0]), hhl.SolverConfig())
        assert shapes == []

    def test_built_circuit_runs_no_qubit_range_check(self, monkeypatch):
        def fail(self):
            raise AssertionError("Circuit checked its derived gates")

        monkeypatch.setattr(qc.Circuit, "__post_init__", fail)
        s = encodable_system(np.random.default_rng(9), 4)
        cfg = hhl.resolve_config(s, hhl.SolverConfig(rotation_mode="exact"))
        c = hhl.build_circuit(s, cfg)
        assert isinstance(c.gates, tuple) and c.registers == {"clock": (0, 1), "b": (2, 3), "ancilla": (4,)}
        # the input run_hhl writes directly is |0..0>_clock |b> |0>_ancilla
        initial = basis_state(2, 0).tensor(PureState(s.b)).tensor(basis_state(1, 0))
        assert np.array_equal(hhl.run_hhl(s, cfg).final_state.amplitudes, qc.run_circuit(initial, c).amplitudes)

    def test_noisy_run_checks_no_full_register_eigenvalues(self, monkeypatch):
        widths = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return eigvalsh(a, *args, **kwargs)

        def builder(c):
            return qc.dephasing_schedule(c, 50.0, 500.0) + qc.pulse_error_schedule(c, 0.001)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        s = encodable_system(np.random.default_rng(8), 4)
        report = hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=5, rotation_mode="exact"), noise_builder=builder)
        assert report.final_density.n_qubits == 8
        assert all(w < 2**8 for w in widths)

    @pytest.mark.parametrize("n_b", [1, 2, 3])
    def test_pure_post_selection_matches_measure_qubit(self, n_b):
        s = encodable_system(np.random.default_rng(60 + n_b), 2**n_b)
        report = hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=3, rotation_mode="exact"))
        final = report.final_state
        prob, post = qc.measure_qubit(final.density(), final.n_qubits - 1, 1)
        x = qcore.canonical_phase(hhl._dominant_vector(qcore.partial_trace(post, range(3, 3 + n_b))))
        # the density route rounds differently, so the two agree to rounding, not bit for bit
        assert report.success_probability == pytest.approx(prob, abs=1e-14)
        assert np.max(np.abs(report.x_quantum - x)) < 1e-12

    @pytest.mark.parametrize("noisy", [False, True], ids=["pure", "noisy"])
    def test_massless_post_selection_raises(self, noisy):
        # r = 30 turns the ancilla by about 6e-9 rad, a post-selection mass of 1e-17
        with pytest.raises(ZeroProbabilityBranch):
            builder = (lambda c: []) if noisy else None
            hhl.run_hhl(demo_system([1.0, 0.0]), hhl.SolverConfig(r=30), noise_builder=builder)


class TestStateBudget:
    # Widest demo registers (one solution qubit, one ancilla) that fit.  A
    # pure run is bound by its peak of PURE_PEAK_STATES 2^n * 16-byte states
    # (its circuit, 2t * 64 bytes of evolution blocks and 2^t angles, is
    # smaller), a noisy run by DENSITY_PEAK_STATES 4^n * 16-byte densities.
    PURE_MAX = int(np.log2(hhl.MAX_STATE_BYTES // (16 * hhl.PURE_PEAK_STATES)))
    DENSITY_MAX = int(np.log2(hhl.MAX_STATE_BYTES // (16 * hhl.DENSITY_PEAK_STATES))) // 2

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(sys, cfg):
            raise RuntimeError("build_circuit reached")

        monkeypatch.setattr(hhl, "build_circuit", refuse)

    @staticmethod
    def run(n_qubits, noisy):
        # the demo system has one solution qubit and one ancilla
        cfg = hhl.SolverConfig(clock_qubits=n_qubits - 2)
        hhl.run_hhl(demo_system([1.0, 0.0]), cfg, noise_builder=(lambda c: []) if noisy else None)

    @pytest.mark.parametrize("noisy", [False, True], ids=["pure", "noisy"])
    def test_widest_register_in_budget_goes_on_to_build(self, no_build, noisy):
        with pytest.raises(RuntimeError, match="build_circuit reached"):
            self.run(self.DENSITY_MAX if noisy else self.PURE_MAX, noisy)

    @pytest.mark.parametrize("noisy", [False, True], ids=["pure", "noisy"])
    def test_register_over_budget_raises_before_building(self, no_build, noisy):
        with pytest.raises(RegisterTooWide):
            self.run((self.DENSITY_MAX if noisy else self.PURE_MAX) + 1, noisy)

    def test_circuit_over_budget_raises_before_building(self, no_build):
        # a 16 MiB state vector, but 2 * 9 evolution blocks of 16 MiB each
        wide = hhl.linear_system(np.eye(1024), np.eye(1024)[0])
        with pytest.raises(RegisterTooWide, match="circuit"):
            hhl.run_hhl(wide, hhl.SolverConfig(clock_qubits=9))

    def test_resolve_config_prices_the_final_state_alone(self):
        # one 24-qubit state vector is the whole 256 MiB budget; a run's peak is four of them
        s = demo_system([1.0, 0.0])
        hhl.resolve_config(s, hhl.SolverConfig(clock_qubits=22))
        with pytest.raises(RegisterTooWide):
            hhl.resolve_config(s, hhl.SolverConfig(clock_qubits=23))
        with pytest.raises(RegisterTooWide):
            hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=22))

    def test_noisy_eight_qubit_run_stays_within_the_density_factor(self):
        s = encodable_system(np.random.default_rng(8), 4)
        cfg = hhl.SolverConfig(clock_qubits=5, rotation_mode="exact")

        def builder(c):
            return qc.dephasing_schedule(c, 50.0, 500.0) + qc.pulse_error_schedule(c, 0.001)

        density = 16 * 4**8
        assert traced_peak(hhl.run_hhl, s, cfg, noise_builder=builder) <= hhl.DENSITY_PEAK_STATES * density
        report = hhl.run_hhl(s, cfg, noise_builder=builder)
        rho, c = report.final_density, report.circuit
        assert rho.n_qubits == 8
        # evolve_density alone: its copy and the kernels' transients, without run_hhl's input density
        assert traced_peak(qc.evolve_density, rho, c, builder(c)) <= (hhl.DENSITY_PEAK_STATES - 1) * density

    def test_forty_clock_qubits_rejected(self, no_build):
        with pytest.raises(RegisterTooWide):
            self.run(42, noisy=False)
        with pytest.raises(RegisterTooWide):
            hhl.theoretical_final_state(demo_system([1.0, 0.0]), hhl.SolverConfig(clock_qubits=40))


class TestTheoreticalFinalState:
    def test_eigenvector_input_amplitudes(self):
        s = demo_system(np.array([1.0, 1.0]) / np.sqrt(2.0))
        state = hhl.theoretical_final_state(s, hhl.SolverConfig(rotation_mode="exact", c_tilde=1.0))
        amp = state.amplitudes
        expect = np.zeros(16)
        expect[0b0000] = np.sqrt(3.0 / 8.0)
        expect[0b0010] = np.sqrt(3.0 / 8.0)
        expect[0b0001] = np.sqrt(1.0 / 8.0)
        expect[0b0011] = np.sqrt(1.0 / 8.0)
        assert np.max(np.abs(np.abs(amp) - expect)) < 1e-12

    def test_matches_circuit_output(self):
        for theta in (1.7419501646378182, 1.3044332446524245, np.pi / 2.0):
            s = demo_system(hhl.prepare_b(theta).amplitudes)
            for mode in ("linear", "exact"):
                cfg = hhl.SolverConfig(rotation_mode=mode)
                report = hhl.run_hhl(s, cfg)
                ideal = hhl.theoretical_final_state(s, cfg)
                overlap = abs(np.vdot(ideal.amplitudes, report.final_state.amplitudes))
                assert overlap > 1.0 - 1e-10

    def test_requires_exact_encoding(self):
        s = demo_system([1.0, 0.0])
        with pytest.raises(EigenvalueNotEncodable):
            hhl.theoretical_final_state(s, hhl.SolverConfig(t0=5.0))

    def test_effective_rotation_constant(self):
        value = hhl.effective_rotation_constant([1.0, 2.0], 2)
        assert value == pytest.approx(0.736, abs=1e-3)
        assert value == pytest.approx(0.7362368229583636, abs=1e-12)


class TestMaxRelativeError:
    def test_identical_vectors(self):
        assert hhl.max_relative_error([0.6, 0.8], [0.6, 0.8]) == 0.0

    def test_error_formula_construction(self):
        assert hhl.max_relative_error([1.07, 1.0], [1.0, 1.0]) == pytest.approx(0.07, abs=1e-12)

    def test_zero_reference_component(self):
        # a component whose square is at most qcore.ZERO_SHARE of the reference's
        # squared norm is zero, and the error relative to it undefined
        for reference in ([1.0, 0.0], [1.0, 1e-6], [0.0, 0.0]):
            assert hhl.max_relative_error([1.0, 0.0], reference) is None
        assert hhl.max_relative_error([1.0, 0.0], [1.0, 1e-4]) == pytest.approx(1.0)

    def test_linear_vs_exact_for_b10(self):
        # The r=2 linear approximation distorts the b=(1,0) solution by
        # about 9.8% in the worst component (the 4% figure holds only for
        # the three demonstration inputs, tested in the acceptance suite).
        lin = hhl.run_hhl(demo_system([1.0, 0.0]), hhl.SolverConfig(rotation_mode="linear", r=2))
        err = hhl.max_relative_error(lin.x_quantum, lin.x_classical)
        assert 0.09 < err < 0.10


class TestSweeps:
    @pytest.mark.parametrize("b", [[1.0, 0.0], hhl.prepare_b(1.3044332446524245).amplitudes])
    def test_r_sweep_monotone(self, b):
        rows = hhl.sweep_r(demo_system(b), range(1, 9))
        errors = [row.max_rel_error for row in rows]
        probs = [row.success_probability for row in rows]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))
        assert all(p1 >= p2 - 1e-12 for p1, p2 in zip(probs, probs[1:]))
        assert errors[-1] < 1e-3

    def test_r2_error_within_budget_for_demo_inputs(self):
        for theta in (1.7419501646378182, 1.3044332446524245, np.pi / 2.0):
            rows = hhl.sweep_r(demo_system(hhl.prepare_b(theta).amplitudes), [2])
            assert rows[0].max_rel_error <= 0.04

    def test_t0_sweep_allows_approximate_encodings(self):
        s = demo_system([0.6, 0.8])
        rows = hhl.sweep_t0(s, [2.0 * np.pi, 2.5 * np.pi, 3.0 * np.pi], hhl.SolverConfig(rotation_mode="exact"))
        assert rows[0].max_rel_error < 1e-9  # exact encoding at t0 = 2*pi
        assert rows[1].max_rel_error > 1e-6  # leakage once encoding is inexact

    def test_exact_mode_insensitive_to_r(self):
        rows = hhl.sweep_r(demo_system([1.0, 0.0]), [1, 4], hhl.SolverConfig(rotation_mode="exact"))
        assert abs(rows[0].max_rel_error - rows[1].max_rel_error) < 1e-12


class TestThetaForTargetRatio:
    @pytest.mark.parametrize("ratio", [np.nan, np.inf, -1.0])
    def test_rejects_ratios_without_an_angle(self, ratio):
        with pytest.raises(ValueError, match="ratio_sq"):
            hhl.theta_for_target_ratio(demo_system([1.0, 0.0]), ratio)

    @pytest.mark.parametrize("target", [0.5, 3.0, 1.0])
    def test_round_trip(self, target):
        s = demo_system([1.0, 0.0])
        theta = hhl.theta_for_target_ratio(s, target)
        b = hhl.prepare_b(theta).amplitudes
        x = np.linalg.solve(A_DEMO, b)
        assert abs(x[0] / x[1]) ** 2 == pytest.approx(target, abs=1e-10)
