import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hhlsim import hhl, nmr
from hhlsim.errors import DimensionMismatch, OutOfCalibrationRange, UnresolvedLines
from hhlsim.qcore import DensityMatrix, basis_state

A_DEMO = np.array([[1.5, 0.5], [0.5, 1.5]])


class TestPpsState:
    def test_full_polarization_is_pure(self):
        rho = nmr.pps_state(1.0)
        assert np.max(np.abs(rho.matrix - basis_state(4, 0).density().matrix)) < 1e-12

    def test_zero_polarization_is_maximally_mixed(self):
        rho = nmr.pps_state(0.0)
        assert np.max(np.abs(rho.matrix - np.eye(16) / 16.0)) < 1e-12

    def test_experimental_polarization(self):
        eps = 1e-5
        rho = nmr.pps_state(eps)
        diag = rho.populations()
        assert diag[0] == pytest.approx((1.0 - eps) / 16.0 + eps, abs=1e-15)
        assert np.allclose(diag[1:], (1.0 - eps) / 16.0, atol=1e-15)

    def test_valid_density_for_all_polarizations(self):
        for eps in (1e-6, 0.01, 0.3, 0.77, 1.0):
            rho = nmr.pps_state(eps)  # constructor validates trace/PSD
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            nmr.pps_state(1.5)


class TestChemicalShift:
    def test_anchor_values(self):
        assert nmr.chemical_shift("F1", 303.0) == pytest.approx(-33122.4, abs=1e-12)
        assert nmr.chemical_shift("F2", 303.0) == pytest.approx(-42677.7, abs=1e-12)
        assert nmr.chemical_shift("F3", 303.0) == pytest.approx(-56445.8, abs=1e-12)

    def test_off_anchor_values(self):
        assert nmr.chemical_shift("F1", 304.0) == pytest.approx(-33125.4, abs=1e-9)
        assert nmr.chemical_shift("F2", 305.0) == pytest.approx(-42677.7 - 2.6, abs=1e-9)
        assert nmr.chemical_shift("F3", 302.0) == pytest.approx(-56447.4, abs=1e-9)

    def test_out_of_calibration_window(self):
        with pytest.raises(OutOfCalibrationRange):
            nmr.chemical_shift("F1", 292.0)
        with pytest.raises(OutOfCalibrationRange):
            nmr.chemical_shift("F3", 313.5)

    def test_only_fluorines_have_formulas(self):
        with pytest.raises(ValueError):
            nmr.chemical_shift("C", 303.0)


class TestSynthesizeSpectrum:
    def test_ground_state_single_peak(self):
        spectrum = nmr.synthesize_spectrum(basis_state(4, 0).density())
        by_label = spectrum.intensity_by_label()
        assert by_label["p0-p8"] == pytest.approx(1.0, abs=1e-15)
        others = [v for k, v in by_label.items() if k != "p0-p8"]
        assert np.max(np.abs(others)) < 1e-15

    def test_maximally_mixed_is_flat(self):
        spectrum = nmr.synthesize_spectrum(DensityMatrix(np.eye(16) / 16.0))
        assert all(abs(p.intensity) < 1e-15 for p in spectrum.peaks)

    def test_experiment3_solution_ratio(self):
        s = hhl.linear_system(A_DEMO, np.array([1.0, 1.0]) / np.sqrt(2.0))
        state = hhl.theoretical_final_state(s, hhl.SolverConfig(rotation_mode="linear", r=2))
        by_label = nmr.synthesize_spectrum(state.density()).intensity_by_label()
        assert by_label["p1-p9"] / by_label["p3-p11"] == pytest.approx(1.0, abs=1e-12)

    def test_printed_peak_order(self):
        # ascending frequency must reproduce the documented left-to-right order
        spectrum = nmr.synthesize_spectrum(nmr.pps_state(0.5))
        labels = [p.label for p in spectrum.peaks]
        assert labels == [
            "p1-p9", "p0-p8", "p3-p11", "p2-p10",
            "p5-p13", "p4-p12", "p7-p15", "p6-p14",
        ]

    def test_population_difference_mapping_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pops = rng.random(16)
            pops /= pops.sum()
            rho = DensityMatrix(np.diag(pops).astype(complex))
            by_label = nmr.synthesize_spectrum(rho).intensity_by_label()
            for j in range(8):
                assert abs(by_label[f"p{j}-p{j + 8}"] - (pops[j] - pops[j + 8])) < 1e-12

    def test_linearity_in_the_state(self):
        rng = np.random.default_rng(9)
        p1, p2 = rng.random(16), rng.random(16)
        r1 = DensityMatrix(np.diag(p1 / p1.sum()).astype(complex))
        r2 = DensityMatrix(np.diag(p2 / p2.sum()).astype(complex))
        mix = DensityMatrix(0.3 * r1.matrix + 0.7 * r2.matrix)
        got = nmr.synthesize_spectrum(mix).intensity_by_label()
        a = nmr.synthesize_spectrum(r1).intensity_by_label()
        b = nmr.synthesize_spectrum(r2).intensity_by_label()
        for label, value in got.items():
            assert value == pytest.approx(0.3 * a[label] + 0.7 * b[label], abs=1e-12)

    def test_rejects_wrong_width(self):
        with pytest.raises(DimensionMismatch):
            nmr.synthesize_spectrum(basis_state(3, 0).density())


# (center, intensity, width) of two overlapping lines
TWO_PEAKS = [(0.0, 1.0, 1.0), (3.0, 0.7, 1.0)]


class TestLorentzianFit:
    def sample(self, peaks, freqs):
        total = np.zeros_like(freqs)
        for c, h, w in peaks:
            total += nmr.lorentzian(freqs, c, h, w)
        return np.column_stack([freqs, total])

    def test_single_peak_noiseless(self):
        fitted = nmr.lorentzian_fit(self.sample([(1.3, 2.0, 0.8)], np.linspace(-10.0, 10.0, 400)), [1.3], 0.8)
        assert fitted.shape == (1,)
        assert fitted[0] == pytest.approx(2.0, abs=1e-12)

    def test_two_overlapping_peaks(self):
        fitted = nmr.lorentzian_fit(self.sample(TWO_PEAKS, np.linspace(-10.0, 13.0, 600)), [0.0, 3.0], 1.0)
        assert np.max(np.abs(fitted - [1.0, 0.7])) < 1e-12

    def test_peaks_come_back_in_start_order(self):
        # in the order the centres are given, not sorted by centre
        fitted = nmr.lorentzian_fit(self.sample(TWO_PEAKS, np.linspace(-10.0, 13.0, 600)), [3.0, 0.0], 1.0)
        assert np.max(np.abs(fitted - [0.7, 1.0])) < 1e-12

    def test_one_percent_noise_ratio(self):
        rng = np.random.default_rng(12)
        data = self.sample(TWO_PEAKS, np.linspace(-10.0, 13.0, 600))
        data[:, 1] += rng.normal(0.0, 0.01, data.shape[0])
        fitted = nmr.lorentzian_fit(data, [0.0, 3.0], 1.0)
        ratio = fitted[0] / fitted[1]
        assert abs(ratio - 1.0 / 0.7) / (1.0 / 0.7) < 0.03

    @pytest.mark.parametrize("centers", [[0.0, 0.0], [0.0, 3.0, 3.0]], ids=["pair", "two_of_three"])
    def test_coinciding_centres_are_unresolved(self, centers):
        data = self.sample(TWO_PEAKS, np.linspace(-10.0, 13.0, 600))
        with pytest.raises(UnresolvedLines, match="condition number"):
            nmr.lorentzian_fit(data, centers, 1.0)

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("samples", (5, 1), np.nan),
            ("samples", (5, 0), np.inf),
            ("centers", 0, np.nan),
            ("width", (), 0.0),
            ("width", (), -1.0),
            ("width", (), np.nan),
        ],
        ids=["nan_amplitude", "inf_frequency", "nan_start", "zero_start_width", "negative_width", "nan_width"],
    )
    def test_rejects_non_finite_input_and_non_positive_start_width(self, name, index, value):
        inputs = {
            "samples": self.sample([(1.3, 2.0, 0.8)], np.linspace(-10.0, 10.0, 400)),
            "centers": np.array([1.3]),
            "width": np.array(0.8),
        }
        inputs[name][index] = value
        with pytest.raises(ValueError, match=f"^{name}"):
            nmr.lorentzian_fit(inputs["samples"], inputs["centers"], inputs["width"])

    @pytest.mark.parametrize(
        "samples, centers",
        [
            (np.ones(8), [0.0]),
            (np.ones((8, 3)), [0.0]),
            (np.ones((8, 2)), [[0.0, 1.0]]),
            (np.ones((8, 2)), []),
            (np.ones((2, 2)), [0.0, 1.0, 2.0]),
        ],
        ids=["samples_1d", "samples_three_columns", "centers_2d", "no_centers", "too_few_samples"],
    )
    def test_rejects_malformed_input(self, samples, centers):
        with pytest.raises(DimensionMismatch):
            nmr.lorentzian_fit(samples, centers, 1.0)

    def test_synthesize_then_fit_round_trip(self):
        s = hhl.linear_system(A_DEMO, [1.0, 0.0])
        state = hhl.theoretical_final_state(s, hhl.SolverConfig(rotation_mode="exact"))
        molecule = nmr.MoleculeParams()
        spectrum = nmr.synthesize_spectrum(state.density(), molecule)
        centers = np.array([p.center for p in spectrum.peaks])
        freqs = np.linspace(centers.min() - 20.0, centers.max() + 20.0, 4096)
        fitted = nmr.lorentzian_fit(np.column_stack([freqs, spectrum.sample(freqs)]), centers, molecule.linewidth)
        expected = [p.intensity for p in spectrum.peaks]
        assert np.max(np.abs(fitted - expected)) < 1e-12

    @pytest.mark.parametrize(
        "c_f, linewidth, condition",
        [
            ((0.0, 0.0, 0.0), 1.0, None),
            ((128.0, 48.0, 0.0), 1.0, None),
            ((128.0, 48.0, 1e-6), 1.0, 1.4e6),
            ((128.0, 48.0, 0.01), 1.0, 141.0),
            ((1.0, 48.0, -12.0), 1.0, 1.74),
            ((128.0, 48.0, -12.0), 300.0, 3.2e4),
            ((2.0, 1.0, 0.5), 8.0, 4.8e5),
            ((0.32, 0.16, 0.08), 8.0, 1.6e11),
        ],
        ids=[
            "all_coincide", "pairs_coincide", "1e-6_hz", "0.01_hz", "1_hz", "300_hz_lines", "8_hz_lines", "0.08_hz_at_8"
        ],
    )
    def test_condition_number_decides(self, c_f, linewidth, condition):
        # eight carbon lines on the 4096-point grid above, with 20 linewidths to
        # spare: only the shapes' condition number decides.  Coinciding lines
        # (5e47 and 1.1e16) and lines 0.08 Hz apart at 8 Hz (1.6e11, where an
        # unchecked fit erred by 9e-8) are rejected; lines 1e-6 Hz apart, well
        # inside the grid step, and 300 Hz lines that all overlap still fit
        # within 1e-9, each line on its own peak
        j = np.array(nmr._DEFAULT_J)
        j[0, 1:] = j[1:, 0] = c_f
        centers = nmr.carbon_peak_positions(nmr.MoleculeParams(j_couplings=j, linewidth=linewidth))
        freqs = np.linspace(centers.min() - 20.0 * linewidth, centers.max() + 20.0 * linewidth, 4096)
        shapes = nmr.lorentzian(freqs[:, None], centers, 1.0, linewidth)
        intensities = np.random.default_rng(8).uniform(-1.0, 1.0, 8)
        samples = np.column_stack([freqs, shapes @ intensities])
        if condition is None or condition > nmr._MAX_CONDITION:
            with pytest.raises(UnresolvedLines, match="condition number"):
                nmr.lorentzian_fit(samples, centers, linewidth)
        else:
            assert np.max(np.abs(nmr.lorentzian_fit(samples, centers, linewidth) - intensities)) < 1e-9
        if condition is not None:
            s = np.linalg.svd(shapes, compute_uv=False)
            assert s[0] / s[-1] == pytest.approx(condition, rel=0.02)


class TestMoleculeParams:
    def test_rejects_asymmetric_couplings(self):
        j = np.zeros((4, 4))
        j[0, 1] = 5.0
        with pytest.raises(DimensionMismatch):
            nmr.MoleculeParams(j_couplings=j)

    def test_rejects_non_finite_couplings(self):
        j = np.zeros((4, 4))
        j[0, 1] = j[1, 0] = np.nan
        with pytest.raises(ValueError):
            nmr.MoleculeParams(j_couplings=j)

    @pytest.mark.parametrize(
        "linewidth, j_cf",
        [(3e154, 128.0), (1e153, 128.0), (1.0, 1.7e308)],
        ids=["linewidth_3e154", "linewidth_1e153", "j_coupling_1.7e308"],
    )
    def test_rejects_a_spectrum_window_that_overflows(self, linewidth, j_cf):
        # these wrote NaN spectra, raised OverflowError or warned in lorentzian
        j = np.zeros((4, 4))
        j[0, 1] = j[1, 0] = j_cf
        with pytest.raises(ValueError, match="window"):
            nmr.MoleculeParams(j_couplings=j, linewidth=linewidth)

    def test_widest_window_renders_finite(self):
        molecule = nmr.MoleculeParams(linewidth=1e152)
        rho = DensityMatrix(np.diag(np.arange(1.0, 17.0)) / 136.0)
        spectrum = nmr.synthesize_spectrum(rho, molecule)
        centers = [p.center for p in spectrum.peaks]
        freqs = np.linspace(min(centers) - 2e153, max(centers) + 2e153, 2001)
        assert np.all(np.isfinite(spectrum.sample(freqs)))

    def test_rejects_bad_t2(self):
        with pytest.raises(ValueError):
            nmr.MoleculeParams(t2_star_ms=(1.0, 1.0, -1.0, 1.0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: nmr.MoleculeParams(linewidth=np.nan),
            lambda: nmr.MoleculeParams(carbon_shift=np.inf),
            lambda: nmr.MoleculeParams(t2_star_ms=(np.nan, 1.0, 1.0, 1.0)),
            lambda: nmr.Peak(0.0, 1.0, np.nan),
            lambda: nmr.Peak(np.nan, 1.0, 1.0),
            lambda: nmr.Peak(0.0, np.nan, 1.0),
            lambda: nmr.Peak(0.0, -np.inf, 1.0),
        ],
        ids=[
            "linewidth", "chemical_shifts", "t2_star", "peak_width", "peak_center",
            "peak_intensity_nan", "peak_intensity_inf",
        ],
    )
    def test_rejects_non_finite_values(self, build):
        with pytest.raises(ValueError):
            build()


def test_import_leaves_scipy_optimize_unloaded():
    # scipy is a test dependency only: importing the package loads no scipy module at all
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, hhlsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_source_module_imports_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []
