import json
from pathlib import Path

import numpy as np
import pytest

from hhlsim import config, hhl, nmr, qcore, tomography as tomo
from hhlsim.errors import HhlsimError, InconsistentRecords, InsufficientRecords, ZeroProbabilityBranch
from hhlsim.qcore import DensityMatrix, PureState, basis_state, fidelity

A_DEMO = np.array([[1.5, 0.5], [0.5, 1.5]])
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def ideal_final_state(b, mode="linear"):
    s = hhl.linear_system(A_DEMO, b, normalize=True)
    return hhl.theoretical_final_state(s, hhl.SolverConfig(rotation_mode=mode))


def random_mixed_density(rng):
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


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
        pulse = tomo.ReadoutPulse("YEEE*swap14")
        swap = tomo._swap_permutation(0, 3)
        letters = np.kron(qcore.rotation_y(np.pi / 2.0), np.eye(8))
        assert np.max(np.abs(pulse.operator - letters @ swap)) < 1e-12

    @pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(i + 1, 4)])
    def test_swap_permutation_swaps_index_bits(self, i, j):
        perm = tomo._swap_permutation(i, j)
        for m in range(16):
            bi, bj = (m >> (3 - i)) & 1, (m >> (3 - j)) & 1
            swapped = m ^ ((bi ^ bj) << (3 - i)) ^ ((bi ^ bj) << (3 - j))
            expected = np.zeros(16)
            expected[swapped] = 1.0
            assert np.array_equal(perm[:, m], expected)

    def test_malformed_names_rejected(self):
        for name in ("EEE", "EEEZ", "swap15*EEEE", "swap1*EEEE"):
            with pytest.raises(ValueError):
                tomo.ReadoutPulse(name)

    def test_operator_is_not_an_argument(self):
        with pytest.raises(TypeError):
            tomo.ReadoutPulse("EEEE", np.eye(16))

    def test_unknown_catalog_kind(self):
        with pytest.raises(ValueError):
            tomo.pulse_catalog("partial5")


class TestSimulateReadout:
    def test_identity_pulse_on_ground_state(self):
        rec = tomo.simulate_readout(basis_state(4, 0).density(), [tomo.ReadoutPulse("EEEE")])[0]
        assert rec.populations[0] == pytest.approx(1.0, abs=1e-12)

    def test_swap_moves_qubit4_to_carbon(self):
        rec = tomo.simulate_readout(basis_state(4, 1).density(), [tomo.ReadoutPulse("YEEE*swap14")])[0]
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
        rec = tomo.simulate_readout(rho, [tomo.ReadoutPulse("YEEE")])[0]
        for i in range(8):
            assert np.real(rec.peak_amplitudes[i]) == pytest.approx(pops[i] - pops[i + 8], abs=1e-12)

    @pytest.mark.parametrize("kind", ["full", "partial"])
    def test_batched_pulses_match_per_pulse_products(self, kind):
        rng = np.random.default_rng(20)
        for _ in range(3):
            rho = random_mixed_density(rng)
            records = tomo.simulate_readout(rho, tomo.pulse_catalog(kind))
            for pulse, rec in zip(tomo.pulse_catalog(kind), records):
                u = pulse.operator
                rho_p = u @ rho.matrix @ u.conj().T
                assert rec.pulse == pulse.name
                assert np.max(np.abs(rec.populations - np.real(np.diag(rho_p)))) <= 1e-15
                assert np.max(np.abs(rec.peak_amplitudes - 2.0 * np.diagonal(rho_p, 8))) <= 1e-15

    def test_readout_noise_is_drawn_per_pulse_in_order(self):
        rho = random_pure_density(np.random.default_rng(21))
        pulses = tomo.pulse_catalog("full")
        noisy = tomo.simulate_readout(rho, pulses, noise_sigma=0.01, rng=np.random.default_rng(22))
        rng = np.random.default_rng(22)
        for rec, exact in zip(noisy, tomo.simulate_readout(rho, pulses)):
            expected = exact.peak_amplitudes + rng.normal(0.0, 0.01, 8) + 1j * rng.normal(0.0, 0.01, 8)
            assert rec.peak_amplitudes.tobytes() == expected.tobytes()
            assert rec.populations.tobytes() == exact.populations.tobytes()

    def test_fitted_readout_noise_is_drawn_per_pulse_after_the_fit(self):
        rho = random_pure_density(np.random.default_rng(23))
        pulses = tomo.pulse_catalog("partial")
        rng = np.random.default_rng(24)
        noisy = tomo.simulate_readout(rho, pulses, noise_sigma=0.02, rng=rng, fit_via_spectrum=True)
        rng = np.random.default_rng(24)
        for rec, fitted in zip(noisy, tomo.simulate_readout(rho, pulses, fit_via_spectrum=True)):
            expected = fitted.peak_amplitudes + rng.normal(0.0, 0.02, 8) + 1j * rng.normal(0.0, 0.02, 8)
            assert rec.peak_amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"fit_via_spectrum": True}, {"noise_sigma": 0.01, "rng": np.random.default_rng(25)}],
        ids=["exact", "fitted", "noisy"],
    )
    def test_records_are_derived_without_checks(self, monkeypatch, kwargs):
        checks = []
        post_init = tomo.MeasurementRecord.__post_init__

        def counted(rec):
            checks.append(rec.pulse)
            post_init(rec)

        monkeypatch.setattr(tomo.MeasurementRecord, "__post_init__", counted)
        rho = random_pure_density(np.random.default_rng(26))
        records = tomo.simulate_readout(rho, tomo.pulse_catalog("full"), **kwargs)
        assert checks == []
        for rec in records:
            for values, dtype in ((rec.populations, np.float64), (rec.peak_amplitudes, np.complex128)):
                assert values.dtype == dtype
                assert values.flags.c_contiguous and not values.flags.writeable
        first = records[0]
        tomo.MeasurementRecord(pulse=first.pulse, populations=first.populations, peak_amplitudes=first.peak_amplitudes)
        assert checks == [first.pulse]

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            tomo.simulate_readout(basis_state(4, 0).density(), tomo.pulse_catalog("partial"), noise_sigma=-0.01)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, sigma):
        rho, rng = basis_state(4, 0).density(), np.random.default_rng(0)
        with pytest.raises(ValueError, match="noise_sigma"):
            tomo.simulate_readout(rho, tomo.pulse_catalog("partial"), noise_sigma=sigma, rng=rng)

    def test_noise_requires_generator(self):
        with pytest.raises(ValueError):
            tomo.simulate_readout(basis_state(4, 0).density(), tomo.pulse_catalog("partial"), noise_sigma=0.01)

class TestMeasurementRecord:
    @staticmethod
    def values():
        pops = np.zeros(16)
        pops[0] = 1.0
        return pops, np.zeros(8, dtype=complex)

    def test_checked_record_is_read_only(self):
        pops, peaks = self.values()
        rec = tomo.MeasurementRecord(pulse="EEEE", populations=list(pops), peak_amplitudes=list(peaks))
        assert rec.populations.dtype == np.float64 and rec.peak_amplitudes.dtype == np.complex128
        assert not rec.populations.flags.writeable and not rec.peak_amplitudes.flags.writeable

    @pytest.mark.parametrize("bad", ["nan_peak", "inf_peak", "nan_population", "negative_population"])
    def test_rejects_impossible_values(self, bad):
        pops, peaks = self.values()
        if bad == "nan_peak":
            peaks[3] = complex(np.nan, 0.0)
        elif bad == "inf_peak":
            peaks[0] = complex(0.0, np.inf)
        elif bad == "nan_population":
            pops[5] = np.nan
        else:
            pops[0], pops[1] = 2.0, -1.0
        with pytest.raises(ValueError, match="finite|negative"):
            tomo.MeasurementRecord(pulse="EEEE", populations=pops, peak_amplitudes=peaks)

    def test_rounding_below_zero_is_admitted(self):
        pops, peaks = self.values()
        pops[1] = -0.5 * qcore.ATOL_STRUCTURAL
        tomo.MeasurementRecord(pulse="EEEE", populations=pops, peak_amplitudes=peaks)

    def test_rejects_populations_off_one(self):
        pops, peaks = self.values()
        pops[1] = 1e-6
        with pytest.raises(ValueError, match="sum to"):
            tomo.MeasurementRecord(pulse="EEEE", populations=pops, peak_amplitudes=peaks)


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

    def test_full_rank_mixed_states_exact(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            rho = random_mixed_density(rng)
            assert np.max(np.abs(self.roundtrip(rho).matrix - rho.matrix)) < 1e-12

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

    @pytest.mark.parametrize("name", ["experiment1", "experiment2", "experiment3", "b10_exact"])
    def test_fitted_full_catalog_matches_exact(self, name):
        settings = config.load_config(CONFIG_DIR / f"{name}.ini")
        rho = hhl.theoretical_final_state(settings.system, hhl.SolverConfig(rotation_mode="exact")).density()
        exact = tomo.simulate_readout(rho, tomo.pulse_catalog("full"))
        fitted = tomo.simulate_readout(rho, tomo.pulse_catalog("full"), fit_via_spectrum=True)
        for a, b in zip(exact, fitted):
            assert np.max(np.abs(a.peak_amplitudes - b.peak_amplitudes)) < 1e-9

    def test_fit_of_broad_overlapping_lines_matches_exact(self):
        # at 300 Hz all eight lines overlap (kappa 3.2e4): readout lines
        # rendered as carbon spectra on 4096 points and fitted back with
        # nmr.lorentzian_fit are the exact lines
        molecule = nmr.MoleculeParams(linewidth=300.0)
        centers = nmr.carbon_peak_positions(molecule)
        freqs = np.linspace(centers.min() - 6000.0, centers.max() + 6000.0, 4096)
        shapes = nmr.lorentzian(freqs[:, None], centers, 1.0, 300.0)

        def fitted(lines):
            real, imag = (
                nmr.lorentzian_fit(np.column_stack([freqs, shapes @ v]), centers, 300.0) for v in (lines.real, lines.imag)
            )
            return real + 1j * imag

        settings = config.load_config(CONFIG_DIR / "experiment1.ini")
        rho = hhl.theoretical_final_state(settings.system, settings.solver).density()
        for record in tomo.simulate_readout(rho, tomo.pulse_catalog("full")):
            assert np.max(np.abs(fitted(record.peak_amplitudes) - record.peak_amplitudes)) < 1e-9
        rng = np.random.default_rng(300)
        for _ in range(3):
            for record in tomo.simulate_readout(random_pure_density(rng), tomo.pulse_catalog("full")):
                assert np.max(np.abs(fitted(record.peak_amplitudes) - record.peak_amplitudes)) < 1e-12

    def test_all_zero_line_set_is_not_fitted(self):
        lines = np.full((2, 8), complex(-0.0, -0.0))
        lines[1].imag = np.linspace(-1.0, 1.0, 8)
        values = tomo._fit_lines(lines)
        assert values[0].tobytes() == np.zeros(8, dtype=complex).tobytes()
        assert values[1].real.tobytes() == np.zeros(8).tobytes()

    def test_each_line_table_is_factored_once(self, monkeypatch):
        calls = []

        def spy(name):
            routine = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return routine(*args, **kwargs)

            return counted

        for name in ("lstsq", "svd", "pinv"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        monkeypatch.setattr(nmr, "lorentzian_fit", lambda *args, **kwargs: pytest.fail("ran the spectrum fit"))
        tomo._line_transfer.cache_clear()
        rho = ideal_final_state([1.0, 0.0], mode="exact").density()
        tomo.simulate_readout(rho, tomo.pulse_catalog("full"), fit_via_spectrum=True)
        assert calls == ["svd"]
        tomo.simulate_readout(rho, tomo.pulse_catalog("partial"), fit_via_spectrum=True)
        assert calls == ["svd"]

    def test_fit_is_the_rendered_spectra_fitted_back(self):
        # the default line table's unit lines on 4096 points, 20 linewidths to spare
        centers = nmr.carbon_peak_positions(nmr.DEFAULT_MOLECULE)
        width = nmr.DEFAULT_MOLECULE.linewidth
        freqs = np.linspace(centers.min() - 20.0 * width, centers.max() + 20.0 * width, 4096)
        shapes = nmr.lorentzian(freqs[:, None], centers, 1.0, width)
        pinv = nmr._line_pinv(shapes)
        rng = np.random.default_rng(27)
        for n in (1, 5, 44):
            lines = rng.uniform(-1.0, 1.0, (n, 8)) + 1j * rng.uniform(-1.0, 1.0, (n, 8))
            v = np.concatenate([lines.real, lines.imag]).T
            rendered = (pinv @ (shapes @ v)).T
            expected = rendered[:n] + 1j * rendered[n:]
            assert np.max(np.abs(tomo._fit_lines(lines) - expected)) < 1e-14

    def test_cached_line_transfer_is_the_identity_to_rounding(self):
        transfer = tomo._line_transfer()
        assert transfer.shape == (8, 8)
        assert np.max(np.abs(transfer - np.eye(8))) < 1e-13
        with pytest.raises(ValueError):
            transfer[0, 0] = 1.0

    def test_cached_line_table_is_read_only(self):
        transfer = tomo._line_transfer()
        assert tomo._line_transfer() is transfer
        with pytest.raises(ValueError):
            transfer[:] = 0.0
        assert np.max(np.abs(transfer - np.eye(8))) < 1e-13

    def test_fit_grid_samples_unit_lines(self):
        # the transfer is pinv @ shapes for the default molecule's unit carbon
        # lines on 4096 points spanning the centres with 20 linewidths to spare
        centers = nmr.carbon_peak_positions(nmr.DEFAULT_MOLECULE)
        width = nmr.DEFAULT_MOLECULE.linewidth
        freqs = np.linspace(centers.min() - 20.0 * width, centers.max() + 20.0 * width, 4096)
        shapes = nmr.lorentzian(freqs[:, None], centers, 1.0, width)
        assert np.array_equal(tomo._line_transfer(), nmr._line_pinv(shapes) @ shapes)

    def test_reconstruction_runs_no_eigenvalue_check(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        rho = random_mixed_density(np.random.default_rng(28))
        records = tomo.simulate_readout(rho, tomo.pulse_catalog("full"), fit_via_spectrum=True)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rho_hat = tomo.reconstruct_density(records)
        assert calls == []
        assert np.max(np.abs(rho_hat.matrix - rho.matrix)) < 1e-12
        DensityMatrix(rho_hat.matrix)
        assert calls == [(16, 16)]


def reference_records_json(records):
    """records.json as json.dumps writes the dict of records keyed by pulse name."""
    out = {
        rec.pulse: {
            "populations": [float(x) for x in rec.populations],
            "peaks_re": [float(x) for x in np.real(rec.peak_amplitudes)],
            "peaks_im": [float(x) for x in np.imag(rec.peak_amplitudes)],
        }
        for rec in records
    }
    return json.dumps(out, sort_keys=True, indent=2, allow_nan=False) + "\n"


class TestRecordsJson:
    def test_matches_json_dumps_on_both_catalogs(self):
        rng = np.random.default_rng(31)
        rho = random_mixed_density(rng)
        # alternating catalogs fills each one's cached layout again
        for kind in ("full", "partial", "full", "partial"):
            pulses = tomo.pulse_catalog(kind)
            noisy = tomo.simulate_readout(rho, pulses, noise_sigma=0.01, rng=rng)
            shuffled = [noisy[i] for i in rng.permutation(len(noisy))]
            for records in (tomo.simulate_readout(rho, pulses), noisy, shuffled):
                assert tomo.records_json(records).split("\n") == reference_records_json(records).split("\n")

    def test_signed_zeros_subnormals_and_any_pulse_name(self):
        pops = np.zeros(16)
        pops[:3] = [-0.0, 5e-324, 1.0]
        peaks = np.empty(8, dtype=complex)
        peaks.real = [-0.0, 5e-324, -5e-324, 0.0, 1.0, -1.0, 1e300, 0.1]
        peaks.imag = [0.0, -0.0, 2.5e-300, -5e-324, 1 / 3, -2.0, 0.1, -0.0]
        # '%' in a key, keys that read as the layout's null, a quote, and a repeated name (the later record wins)
        names = ["b%r", "YEEE", "%%", "null", "      null", '"null,', "YEEE", ""]
        records = [tomo.MeasurementRecord(n, pops, peaks * (k + 1)) for k, n in enumerate(names)]
        assert tomo.records_json(records) == reference_records_json(records)
        assert tomo.records_json([]) == reference_records_json([]) == "{}\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_derived_record_holding_a_non_finite_value_raises(self, bad):
        record = tomo.simulate_readout(basis_state(4, 1).density(), tomo.pulse_catalog("partial"))[2]
        peaks = record.peak_amplitudes.copy()
        peaks[3] = bad
        derived = qcore._derived(tomo.MeasurementRecord, record.pulse, record.populations, peaks)
        with pytest.raises(ValueError, match="not JSON compliant"):
            tomo.records_json([record, derived])


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

    def test_populations_equal_the_diagonal(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            rho = random_mixed_density(rng)
            result = self.extract(rho)
            assert np.max(np.abs(result.populations - np.real(np.diag(rho.matrix)))) < 1e-12

    def test_degenerate_branch_reports_populations(self):
        amp = np.zeros(16, dtype=complex)
        amp[0b0000], amp[0b0001] = 0.8, 0.6
        result = self.extract(PureState(amp).density())
        assert result.c_sq == pytest.approx(0.36, abs=1e-9)
        assert result.d_sq == pytest.approx(0.0, abs=1e-9)
        assert result.ratio is None

    def test_empty_subspace_rejected(self):
        with pytest.raises(ZeroProbabilityBranch):
            self.extract(basis_state(4, 0).density())

    def test_missing_pulses_rejected(self):
        records = tomo.simulate_readout(basis_state(4, 0).density(), tomo.pulse_catalog("partial")[:3])
        with pytest.raises(InsufficientRecords):
            tomo.extract_solution_partial(records)

    def test_records_no_state_produces_rejected(self):
        rho = ideal_final_state([1.0, 0.0], mode="exact").density()
        records = tomo.simulate_readout(rho, tomo.pulse_catalog("partial"))
        first = records[0]
        # 3.0 on each line of the first y record read as c_sq = 2.06 and populations summing to 13
        records[0] = tomo.MeasurementRecord(first.pulse, first.populations, first.peak_amplitudes + 3.0)
        with pytest.raises(InconsistentRecords, match="sum to 13"):
            tomo.extract_solution_partial(records)

    @pytest.mark.parametrize("lines", [[1e308], [-1e308], [1e308, -1e308]], ids=["positive", "negative", "alternating"])
    def test_records_at_the_float_limit_rejected(self, lines):
        rho = ideal_final_state([1.0, 0.0], mode="exact").density()
        records = [
            tomo.MeasurementRecord(rec.pulse, rec.populations, np.resize(lines, 8))
            for rec in tomo.simulate_readout(rho, tomo.pulse_catalog("partial"))
        ]
        with pytest.raises(InconsistentRecords):
            tomo.extract_solution_partial(records)

    @pytest.mark.parametrize("sigma", [0.01, 0.05])
    def test_noisy_readouts_pass_the_population_check(self, sigma):
        states = [basis_state(4, 0b0001).density(), ideal_final_state([1.0, 0.0], mode="exact").density()]
        for rho in states:
            for seed in range(25):
                rng = np.random.default_rng(seed)
                self.extract(rho, noise_sigma=sigma, rng=rng)


class TestDesignInverse:
    DESIGNS = {
        "full": (tomo._full_design, tomo._full_pinv),
        "partial": (tomo._partial_design, tomo._partial_pinv),
    }

    @pytest.mark.parametrize("kind", DESIGNS)
    @pytest.mark.parametrize("defect", ["repeated_column", "nearly_repeated_column", "zero_column"])
    def test_rank_deficient_design_rejected(self, kind, defect):
        design = self.DESIGNS[kind][0]()
        if defect == "repeated_column":
            design[:, 1] = design[:, 0]
        elif defect == "nearly_repeated_column":  # condition number 3e6 to 8e6
            design[:, 1] = design[:, 0] + 1e-6 * design[:, 1]
        else:
            design[:, 3] = 0.0
        with pytest.raises(HhlsimError, match="^defective design: design condition number"):
            tomo._design_inverse(design, "defective design")

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_matches_svd_pseudo_inverse(self, kind):
        design, inverse = self.DESIGNS[kind]
        assert np.max(np.abs(inverse() - np.linalg.pinv(design()))) < 1e-13

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_cached_inverse_is_read_only(self, kind):
        inverse = self.DESIGNS[kind][1]()
        with pytest.raises(ValueError):
            inverse[0, 0] = 1.0

    def test_each_design_is_factored_once_without_svd(self, monkeypatch):
        grams = []
        eigh = np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            if a.dtype == float:
                grams.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        for name in ("svd", "pinv", "matrix_rank"):
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, **kwargs: pytest.fail(f"ran {_name}"))
        tomo._full_pinv.cache_clear()
        tomo._partial_pinv.cache_clear()
        rho = ideal_final_state([1.0, 0.0], mode="exact").density()
        for _ in range(2):
            tomo.reconstruct_density(tomo.simulate_readout(rho, tomo.pulse_catalog("full")))
            tomo.extract_solution_partial(tomo.simulate_readout(rho, tomo.pulse_catalog("partial")))
        assert grams == [(256, 256), (16, 16)]
