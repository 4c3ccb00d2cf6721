import numpy as np
import pytest

from hhlsim import hhl, nmr, qcore, tomography as tomo
from hhlsim.errors import InsufficientRecords, SubspaceMassTooSmall
from hhlsim.qcore import DensityMatrix, PureState, basis_state, fidelity

A_DEMO = np.array([[1.5, 0.5], [0.5, 1.5]])


def ideal_final_state(b, mode="linear"):
    s = hhl.linear_system(A_DEMO, b, normalize=True)
    return hhl.theoretical_final_state(s, hhl.SolverConfig(rotation_mode=mode))


def random_pure_density(rng):
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    return PureState(v).density()


class TestPulseCatalog:
    def test_catalog_sizes(self):
        assert len(tomo.pulse_catalog("partial")) == 5
        assert len(tomo.pulse_catalog("full")) == 44

    def test_first_partial_pulse_is_carbon_y(self):
        pulse = tomo.pulse_catalog("partial")[0]
        assert pulse.name == "YEEE"
        expected = np.kron(qcore.rotation_y(np.pi / 2.0), np.eye(8))
        assert np.max(np.abs(pulse.operator - expected)) < 1e-12

    def test_all_operators_unitary(self):
        for pulse in tomo.pulse_catalog("full"):
            assert qcore.unitarity_defect(pulse.operator) < 1e-10

    def test_swap_composes_before_letters(self):
        # rightmost segment acts first: YEEE*swap14 moves qubit 4 onto the
        # carbon spin and then applies the readout rotation
        pulse = tomo.parse_pulse("YEEE*swap14")
        swap = tomo._swap_permutation(0, 3)
        letters = np.kron(qcore.rotation_y(np.pi / 2.0), np.eye(8))
        assert np.max(np.abs(pulse.operator - letters @ swap)) < 1e-12

    def test_malformed_names_rejected(self):
        for name in ("EEE", "EEEZ", "swap15*EEEE", "swap1*EEEE"):
            with pytest.raises(ValueError):
                tomo.parse_pulse(name)

    def test_unknown_catalog_kind(self):
        with pytest.raises(ValueError):
            tomo.pulse_catalog("partial5")


class TestSimulateReadout:
    def test_identity_pulse_on_ground_state(self):
        rec = tomo.simulate_readout(basis_state(4, 0).density(), [tomo.parse_pulse("EEEE")])[0]
        assert rec.populations[0] == pytest.approx(1.0, abs=1e-12)

    def test_swap_moves_qubit4_to_carbon(self):
        rec = tomo.simulate_readout(basis_state(4, 1).density(), [tomo.parse_pulse("YEEE*swap14")])[0]
        assert rec.populations[0b0000] == pytest.approx(0.5, abs=1e-12)
        assert rec.populations[0b1000] == pytest.approx(0.5, abs=1e-12)

    def test_populations_always_sum_to_one(self):
        rng = np.random.default_rng(14)
        rho = random_pure_density(rng)
        for rec in tomo.simulate_readout(rho, tomo.pulse_catalog("full")):
            assert abs(rec.populations.sum() - 1.0) < 1e-10

    def test_y_readout_real_parts_are_population_differences(self):
        rng = np.random.default_rng(15)
        pops = rng.random(16)
        pops /= pops.sum()
        rho = DensityMatrix(np.diag(pops).astype(complex))
        rec = tomo.simulate_readout(rho, [tomo.parse_pulse("YEEE")])[0]
        for i in range(8):
            assert np.real(rec.peak_amplitudes[i]) == pytest.approx(pops[i] - pops[i + 8], abs=1e-12)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            tomo.simulate_readout(basis_state(4, 0).density(), tomo.pulse_catalog("partial"), noise_sigma=-0.01)

    def test_noise_requires_generator(self):
        with pytest.raises(ValueError):
            tomo.simulate_readout(basis_state(4, 0).density(), tomo.pulse_catalog("partial"), noise_sigma=0.01)


class TestReconstruction:
    def roundtrip(self, rho, **kwargs):
        records = tomo.simulate_readout(rho, tomo.pulse_catalog("full"), **kwargs)
        return tomo.reconstruct_density(records)

    def test_ground_state(self):
        rho = basis_state(4, 0).density()
        assert fidelity(self.roundtrip(rho), rho) > 1.0 - 1e-9

    def test_pps(self):
        rho = nmr.pps_state(1e-5)
        assert fidelity(self.roundtrip(rho), rho) > 0.999

    def test_ideal_final_state(self):
        rho = ideal_final_state(np.array([1.0, 1.0]) / np.sqrt(2.0)).density()
        assert fidelity(self.roundtrip(rho), rho) > 0.999

    def test_seeded_random_states(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            rho = random_pure_density(rng)
            assert fidelity(self.roundtrip(rho), rho) > 0.999

    def test_mildly_noisy_records(self):
        rng = np.random.default_rng(17)
        rho = ideal_final_state([1.0, 0.0]).density()
        rho_hat = self.roundtrip(rho, noise_sigma=0.005, rng=rng)
        assert fidelity(rho_hat, rho) > 0.99

    def test_incomplete_record_set_rejected(self):
        records = tomo.simulate_readout(basis_state(4, 0).density(), tomo.pulse_catalog("full")[:40])
        with pytest.raises(InsufficientRecords):
            tomo.reconstruct_density(records)

    def test_fit_routed_records_match_exact(self):
        rho = ideal_final_state([1.0, 0.0], mode="exact").density()
        exact = tomo.simulate_readout(rho, tomo.pulse_catalog("partial"))
        fitted = tomo.simulate_readout(rho, tomo.pulse_catalog("partial"), fit_via_spectrum=True)
        for a, b in zip(exact, fitted):
            assert np.max(np.abs(a.peak_amplitudes - b.peak_amplitudes)) < 1e-6


class TestPartialExtraction:
    def extract(self, rho, **kwargs):
        records = tomo.simulate_readout(rho, tomo.pulse_catalog("partial"), **kwargs)
        return tomo.extract_solution_partial(records)

    def test_experiment3_ratio_and_sign(self):
        state = ideal_final_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        result = self.extract(state.density())
        assert result.ratio == pytest.approx(1.0, abs=1e-9)
        assert result.phase_sign == 1

    def test_b10_ratio_and_sign(self):
        state = ideal_final_state([1.0, 0.0], mode="exact")
        result = self.extract(state.density())
        assert result.ratio == pytest.approx(9.0, abs=1e-9)
        assert result.phase_sign == -1

    def test_agrees_with_statevector(self):
        for theta in (1.7419501646378182, 1.3044332446524245):
            state = ideal_final_state(hhl.prepare_b(theta).amplitudes)
            result = self.extract(state.density())
            amp = state.amplitudes
            assert result.c_sq == pytest.approx(abs(amp[0b0001]) ** 2, abs=1e-9)
            assert result.d_sq == pytest.approx(abs(amp[0b0011]) ** 2, abs=1e-9)

    def test_degenerate_branch_reports_populations(self):
        amp = np.zeros(16, dtype=complex)
        amp[0b0000], amp[0b0001] = 0.8, 0.6
        result = self.extract(PureState(amp).density())
        assert result.c_sq == pytest.approx(0.36, abs=1e-9)
        assert result.d_sq == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(SubspaceMassTooSmall):
            _ = result.ratio

    def test_empty_subspace_rejected(self):
        with pytest.raises(SubspaceMassTooSmall):
            self.extract(basis_state(4, 0).density())

    def test_missing_pulses_rejected(self):
        records = tomo.simulate_readout(basis_state(4, 0).density(), tomo.pulse_catalog("partial")[:3])
        with pytest.raises(InsufficientRecords):
            tomo.extract_solution_partial(records)
