import numpy as np
import pytest
import scipy.linalg

from hhlsim import circuit as qc
from hhlsim import hhl, qcore, reference
from hhlsim.errors import (
    DimensionMismatch,
    EigenvalueNotEncodable,
    NotPositiveDefinite,
    RegisterTooWide,
    ZeroReferenceComponent,
)
from hhlsim.qcore import PureState, basis_state

A_DEMO = np.array([[1.5, 0.5], [0.5, 1.5]])


def demo_system(b):
    return hhl.linear_system(A_DEMO, b, normalize=True)


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

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_rejects_sizes_without_a_register(self, dim):
        with pytest.raises(DimensionMismatch):
            hhl.linear_system(np.eye(dim), np.eye(dim)[0])


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


class TestPrepareB:
    def test_theta_zero(self):
        assert np.allclose(hhl.prepare_b(0.0).amplitudes, [1.0, 0.0])

    def test_theta_half_pi(self):
        amp = hhl.prepare_b(np.pi / 2.0).amplitudes
        assert np.allclose(amp, [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)

    def test_theta_pi(self):
        amp = hhl.prepare_b(np.pi).amplitudes
        assert abs(amp[1] - 1.0) < 1e-12


class TestConditionalEvolution:
    def test_tau_zero_is_identity(self):
        s = demo_system([1.0, 0.0])
        gate = hhl.conditional_evolution(s, hhl.SolverConfig())[0]
        assert np.max(np.abs(gate.matrix - np.eye(2))) < 1e-12

    def test_tau_one_evolves_quarter_period(self):
        s = demo_system([1.0, 0.0])
        u2 = s.spectrum.eigenvectors[:, 1]
        gate = hhl.conditional_evolution(s, hhl.SolverConfig())[1]
        assert gate.controls == ((0, 0), (1, 1))  # clock value 1 = |01>
        assert np.max(np.abs(gate.matrix @ u2 + u2)) < 1e-10

    def test_product_matches_summed_operator(self):
        s = demo_system([0.6, 0.8])
        cfg = hhl.SolverConfig()
        gates = hhl.conditional_evolution(s, cfg)
        c = qc.Circuit(3, tuple(gates))
        cols = [qc.run_circuit(basis_state(3, i), c).amplitudes for i in range(8)]
        got = np.array(cols).T
        # independent assembly of sum_tau |tau><tau| (x) U^tau
        u1 = scipy.linalg.expm(-1j * s.a * cfg.t0 / 4.0)
        expected = np.zeros((8, 8), dtype=complex)
        for tau in range(4):
            proj = np.zeros((4, 4))
            proj[tau, tau] = 1.0
            expected += np.kron(proj, np.linalg.matrix_power(u1, tau))
        assert np.max(np.abs(got - expected)) < 1e-10


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
            assert clock_probs[label] == pytest.approx(1.0, abs=1e-9)

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
    def apply_branch(self, gates, clock_label):
        state = basis_state(2, clock_label).tensor(basis_state(1, 0)).tensor(basis_state(1, 0))
        return qc.run_circuit(state, qc.Circuit(4, tuple(gates)))

    def test_linear_mode_amplitudes(self):
        gates = hhl.eigenvalue_inversion_gates(hhl.SolverConfig(rotation_mode="linear", r=2))
        # clock |01> = eigenvalue 1: theta = pi/2, amplitude sin(pi/4)
        out = self.apply_branch(gates, 0b01)
        anc1 = np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1])
        assert anc1 == pytest.approx(np.sin(np.pi / 4.0), abs=1e-12)
        # clock |10> = eigenvalue 2: theta = pi/4, amplitude sin(pi/8)
        out = self.apply_branch(gates, 0b10)
        anc1 = np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1])
        assert anc1 == pytest.approx(np.sin(np.pi / 8.0), abs=1e-12)

    def test_exact_mode_amplitudes(self):
        cfg = hhl.SolverConfig(rotation_mode="exact", c_tilde=1.0)
        gates = hhl.eigenvalue_inversion_gates(cfg)
        out = self.apply_branch(gates, 0b01)
        assert np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1]) == pytest.approx(1.0, abs=1e-12)
        out = self.apply_branch(gates, 0b10)
        assert np.linalg.norm(out.amplitudes.reshape(8, 2)[:, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_swap_relabels_clock(self):
        s = demo_system([1.0, 0.0])
        cfg = hhl.SolverConfig()
        estimated = phase_estimate(s, s.spectrum.eigenvectors[:, 0])  # clock |01>
        with_anc = estimated.tensor(basis_state(1, 0))
        gates = hhl.eigenvalue_inversion_gates(cfg)
        state = qc.run_circuit(with_anc, qc.Circuit(4, tuple(gates)))
        clock_probs = state.probabilities().reshape(4, 4).sum(axis=1)
        # label |10> = 2 = 2/lambda_1, per the swap relabeling
        assert clock_probs[2] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mode", ["linear", "exact"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_swap_and_label_keyed_paths_agree(self, mode, r):
        s = demo_system([1.0, 0.0])
        cfg = hhl.resolve_config(s, hhl.SolverConfig(rotation_mode=mode, r=r))
        swap_path = hhl.eigenvalue_inversion_gates(cfg) + [qc.Swap(0, 1)]
        keyed = hhl._general_inversion_gates(cfg, 1)
        # eigenvalues 1 and 2 are encoded on clock labels 1 and 2
        for j, label in enumerate((1, 2)):
            via_swap = self.apply_branch(swap_path, label).amplitudes.reshape(4, 2, 2)[label, 0]
            via_label = self.apply_branch(keyed, label).amplitudes.reshape(4, 2, 2)[label, 0]
            u = s.spectrum.eigenvectors[:, j]
            theory = hhl.theoretical_final_state(hhl.linear_system(A_DEMO, u), cfg)
            branch = u.conj() @ theory.amplitudes.reshape(4, 2, 2)[0]
            assert np.max(np.abs(via_swap - via_label)) < 1e-12
            assert np.max(np.abs(via_swap - branch)) < 1e-12


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

        def refuse(a):
            raise AssertionError("A decomposed again after linear_system")

        monkeypatch.setattr(qcore, "eig_hermitian", refuse)
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
        assert len(circuits[0]) == len(circuits[1]) == 24
        theory = hhl.theoretical_final_state(s, cfg).amplitudes
        assert np.array_equal(theory, hhl.theoretical_final_state(s, default).amplitudes)
        report = hhl.run_hhl(s, cfg)
        assert np.max(np.abs(report.x_quantum - np.array([3.0, -1.0]) / np.sqrt(10.0))) < 1e-9

    def test_eigenvalue_within_tolerance_above_label_keeps_rotation(self):
        cfg = hhl.SolverConfig(rotation_mode="exact")
        b = np.array([0.6, 0.8])
        near = hhl.run_hhl(hhl.linear_system(np.diag([1.0 + 5e-10, 2.0]), b), cfg)
        exact = hhl.run_hhl(hhl.linear_system(np.diag([1.0, 2.0]), b), cfg)
        assert len(near.circuit) == 24
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
            _, post = qc.measure_qubit(final, final.n_qubits - 1, 1)
            rho_b = qcore.partial_trace(post.density(), range(2, 2 + n_b))
            theory = hhl.theoretical_final_state(s, cfg)
            fid = qcore.fidelity(theory.density(), final.density())
            assert np.max(np.abs(seen.pop() - rho_b.matrix)) < 1e-12
            assert abs(report.fidelity_4q - fid) < 1e-12

    def test_sixteen_qubit_exact_solve(self):
        s = encodable_system(np.random.default_rng(16), 16)
        report = hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=11, rotation_mode="exact"))
        assert len(report.final_state.amplitudes) == 2**16
        x = reference.direct_solve(s.a, s.b)
        assert abs(np.vdot(report.x_quantum, x / np.linalg.norm(x))) ** 2 >= 1.0 - 1e-9

    def test_no_density_wider_than_the_solution_register(self, monkeypatch):
        widths = []
        check = qcore.DensityMatrix.__post_init__

        def counting(rho):
            widths.append(np.shape(rho.matrix)[0])
            check(rho)

        monkeypatch.setattr(qcore.DensityMatrix, "__post_init__", counting)
        s = encodable_system(np.random.default_rng(10), 8)
        report = hhl.run_hhl(s, hhl.SolverConfig(clock_qubits=6, rotation_mode="exact"))
        assert report.final_state.n_qubits == 10
        assert widths and max(widths) <= 8


class TestStateBudget:
    # Widest demo registers (one solution qubit, one ancilla) that fit.  A
    # pure run is bound by its circuit, 2^t * (2 * 64 + 3 * GATE_BYTES)
    # bytes: 155 MB at t = 15.  A noisy run is bound by its 4^n * 16-byte
    # final state.
    PURE_MAX = 17
    DENSITY_MAX = int(np.log2(hhl.MAX_STATE_BYTES // 16)) // 2

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
        # a 24-qubit state vector fits, but 2^22 clock values need 20 GB of gates
        with pytest.raises(RegisterTooWide, match="circuit"):
            self.run(24, noisy=False)
        # a 16 MiB state vector, but 2 * 2^10 evolution blocks of 4 MiB each
        wide = hhl.linear_system(np.eye(512), np.eye(512)[0])
        with pytest.raises(RegisterTooWide, match="circuit"):
            hhl.run_hhl(wide, hhl.SolverConfig(clock_qubits=10))

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
        with pytest.raises(ZeroReferenceComponent):
            hhl.max_relative_error([1.0, 0.0], [1.0, 0.0])

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
    @pytest.mark.parametrize("target", [0.5, 3.0, 1.0])
    def test_round_trip(self, target):
        s = demo_system([1.0, 0.0])
        theta = hhl.theta_for_target_ratio(s, target)
        b = hhl.prepare_b(theta).amplitudes
        x = np.linalg.solve(A_DEMO, b)
        assert abs(x[0] / x[1]) ** 2 == pytest.approx(target, abs=1e-10)
