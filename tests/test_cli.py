import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hhlsim import cli, qcore

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


BASIC_CONFIG = """
[system]
matrix = 1.5 0.5 ; 0.5 1.5
b = 1 0

[solver]
mode = exact
r = 2
"""


class TestSolveCommand:
    def test_experiment3_ratio(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", CONFIG_DIR / "experiment3.ini", "--out", out]) == 0
        report = read_json(out / "solve_report.json")
        assert report["solution_ratio_sq"] == pytest.approx(1.0, abs=1e-9)
        assert (out / "manifest.json").exists()
        assert (out / "final_spectrum.csv").exists()

    def test_ratio_without_two_components_is_null(self, tmp_path, capsys):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        config = tmp_path / "run.ini"
        config.write_text("[system]\nmatrix = 1 0 0 0 ; 0 2 0 0 ; 0 0 1 0 ; 0 0 0 2\nb = 1 1 1 1\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", config, "--out", out]) == 0
        stdout = json.loads(capsys.readouterr().out, parse_constant=refuse)
        report = json.loads((out / "solve_report.json").read_text(), parse_constant=refuse)
        assert stdout["solution_ratio_sq"] is None
        assert report["solution_ratio_sq"] is None

    def test_b10_exact_solution(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(BASIC_CONFIG)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", config, "--out", out]) == 0
        report = read_json(out / "solve_report.json")
        x = np.array(report["x_quantum"]["re"])
        assert np.max(np.abs(x - np.array([0.9486832980505138, -0.31622776601683794]))) < 1e-9

    def test_written_circuit_round_trips(self, tmp_path):
        from hhlsim import circuit as qcirc
        from hhlsim.qcore import basis_state

        config = tmp_path / "run.ini"
        config.write_text(BASIC_CONFIG)
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", config, "--out", out]) == 0
        c = qcirc.circuit_from_text((out / "circuit.txt").read_text())
        assert c.registers == {"clock": (0, 1), "b": (2,), "ancilla": (3,)}
        final = qcirc.run_circuit(basis_state(4, 0b0010), c)  # |b> = (0, 1) input
        clock_mass = final.probabilities().reshape(4, 4).sum(axis=1)
        assert clock_mass[0] == pytest.approx(1.0, abs=1e-10)

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[system]\nmatrix = 1.5 bogus ; 0.5 1.5\nb = 1 0\n")
        assert run_cli(["solve", "--config", config, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigParseError"

    @pytest.mark.parametrize(
        "command, extra, flags",
        [
            ("solve", "c_tilde = abc", ()),
            ("solve", "t0 = nan", ()),
            ("solve", "[noise]\nenabled = on\nseed = x1", ()),
            ("solve", "[noise]\nenabled = on\ntotal_duration_ms = -5", ()),
            ("solve", "[noise]\nenabled = on\npulse_error_per_gate = 2", ()),
            ("solve", "[molecule]\nt2_star_ms = 500 abc 500 500", ()),
            ("sweep", "[sweep]\nparameter = r\nvalues = 1 nan", ()),
            ("tomography", "[noise]\nseed = -1\n[tomography]\nnoise_sigma = 0.01", ()),
            ("tomography", "[tomography]\nnoise_sigma = 0.01", ("--seed", "-1")),
            ("spectrum", "[molecule]\nj_couplings = 0 nan 0 0 ; nan 0 0 0 ; 0 0 0 0 ; 0 0 0 0", ()),
            ("tomography", "[noise]\nseed = 1\n[tomography]\nnoise_sigma = -0.01", ()),
        ],
        ids=[
            "c_tilde", "t0", "seed", "duration", "pulse_error", "t2_star", "sweep_values",
            "negative_seed", "negative_seed_flag", "j_couplings_nan", "negative_noise_sigma",
        ],
    )
    def test_bad_config_values_rejected(self, tmp_path, capsys, command, extra, flags):
        config = tmp_path / "bad.ini"
        config.write_text(BASIC_CONFIG + extra + "\n")
        assert run_cli([command, "--config", config, "--out", tmp_path / "o", *flags]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigParseError"

    @pytest.mark.parametrize(
        "system",
        ["matrix = 1 0 0 ; 0 2 0 ; 0 0 3\nb = 1 0 0", "matrix = 2\nb = 1"],
        ids=["3x3", "1x1"],
    )
    def test_system_without_a_register_rejected(self, tmp_path, capsys, system):
        config = tmp_path / "bad.ini"
        config.write_text(f"[system]\n{system}\n")
        assert run_cli(["solve", "--config", config, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigParseError"

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("solve", "clock_qubits = 40"),
            ("sweep", "clock_qubits = 40"),
            ("tomography", "clock_qubits = 40"),
            ("spectrum", "clock_qubits = 40"),
            ("solve", "clock_qubits = 11\n[noise]\nenabled = on"),
        ],
        ids=["solve", "sweep", "tomography", "spectrum", "noisy_solve"],
    )
    def test_register_over_budget_exits_2(self, tmp_path, capsys, command, extra):
        # 42 qubits overflow the state-vector budget, 13 the density budget
        config = tmp_path / "wide.ini"
        config.write_text(BASIC_CONFIG + extra + "\n[sweep]\nparameter = r\nvalues = 1 2\n")
        assert run_cli([command, "--config", config, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "RegisterTooWide"

    def test_wide_register_builds_no_full_density(self, tmp_path, monkeypatch):
        widths = []
        check = qcore.DensityMatrix.__post_init__

        def counting(rho):
            widths.append(np.shape(rho.matrix)[0])
            check(rho)

        monkeypatch.setattr(qcore.DensityMatrix, "__post_init__", counting)
        config = tmp_path / "run.ini"
        config.write_text(
            "[system]\nmatrix = 1 0 0 0 ; 0 2 0 0 ; 0 0 1 0 ; 0 0 0 2\nb = 1 1 1 1\n"
            "[solver]\nmode = exact\n[molecule]\nlinewidth = 1.0\n"
        )
        out = tmp_path / "o"
        assert run_cli(["solve", "--config", config, "--out", out]) == 0
        assert widths and max(widths) <= 4
        assert not (out / "final_spectrum.csv").exists()

    def test_mode_override(self, tmp_path):
        out_linear = tmp_path / "lin"
        out_exact = tmp_path / "ex"
        cfg = CONFIG_DIR / "experiment1.ini"
        assert run_cli(["solve", "--config", cfg, "--out", out_linear]) == 0
        assert run_cli(["solve", "--config", cfg, "--out", out_exact, "--mode", "exact"]) == 0
        lin = read_json(out_linear / "solve_report.json")
        ex = read_json(out_exact / "solve_report.json")
        assert ex["max_rel_error"] < 1e-9
        assert lin["max_rel_error"] > 1e-3

    def test_noise_override_enables_density_engine(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(
            ["solve", "--config", CONFIG_DIR / "experiment3.ini", "--out", out, "--noise", "on"]
        ) == 0
        report = read_json(out / "solve_report.json")
        assert report["noise_enabled"] is True
        assert 0.90 <= report["fidelity_4q"] < 1.0

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["solve", "--config", CONFIG_DIR / "noisy.ini", "--out", out]) == 0
        for name in ("solve_report.json", "manifest.json", "final_spectrum.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestSweepCommand:
    def test_monotone_error_column(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["sweep", "--config", CONFIG_DIR / "experiment2.ini", "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,value,max_rel_error,success_probability"
        rows = [line.split(",") for line in lines[1:]]
        errors = [float(r[2]) for r in rows]
        probs = [float(r[3]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))
        # r = 2 row stays inside the theoretical error budget
        assert errors[1] <= 0.04

    def test_single_value_matches_solve(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            (CONFIG_DIR / "experiment2.ini").read_text().replace(
                "values = 1 2 3 4 5 6 7 8", "values = 2"
            )
        )
        out = tmp_path / "o"
        assert run_cli(["sweep", "--config", config, "--out", out]) == 0
        assert run_cli(["solve", "--config", config, "--out", out / "solve"]) == 0
        sweep_row = (out / "sweep.csv").read_text().strip().splitlines()[1].split(",")
        solve = read_json(out / "solve" / "solve_report.json")
        assert float(sweep_row[2]) == pytest.approx(solve["max_rel_error"], abs=1e-15)
        assert float(sweep_row[3]) == pytest.approx(solve["success_probability"], abs=1e-15)

    def test_missing_sweep_section(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(BASIC_CONFIG)
        assert run_cli(["sweep", "--config", config, "--out", tmp_path / "o"]) == 2
        assert "sweep" in capsys.readouterr().err


class TestTomographyCommand:
    def test_noiseless_full_catalog(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["tomography", "--config", CONFIG_DIR / "experiment3.ini", "--out", out]) == 0
        report = read_json(out / "tomography_report.json")
        assert report["kind"] == "full"
        assert report["fidelity"] > 0.999
        records = read_json(out / "records.json")
        assert len(records) == 44

    def test_noise_band(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["tomography", "--config", CONFIG_DIR / "noisy.ini", "--out", out]) == 0
        report = read_json(out / "tomography_report.json")
        assert 0.90 <= report["fidelity"] < 1.0

    def test_partial_matches_solve(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["tomography", "--config", CONFIG_DIR / "b10_exact.ini", "--out", out]) == 0
        report = read_json(out / "tomography_report.json")
        assert report["kind"] == "partial"
        assert report["ratio"] == pytest.approx(report["solve_ratio"], abs=1e-6)
        assert report["phase_sign"] == -1

    def test_stochastic_readout_requires_seed(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(BASIC_CONFIG + "\n[tomography]\nkind = full\nnoise_sigma = 0.01\n")
        assert run_cli(["tomography", "--config", config, "--out", tmp_path / "o"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_unlocks_stochastic_readout(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(BASIC_CONFIG + "\n[tomography]\nkind = full\nnoise_sigma = 0.001\n")
        out = tmp_path / "o"
        assert run_cli(["tomography", "--config", config, "--out", out, "--seed", "3"]) == 0
        report = read_json(out / "tomography_report.json")
        assert report["fidelity"] > 0.99


class TestSpectrumCommand:
    def test_outputs_curve_and_peaks(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["spectrum", "--config", CONFIG_DIR / "experiment1.ini", "--out", out]) == 0
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,amplitude"
        assert len(lines) == 2002
        peaks = read_json(out / "spectrum_peaks.json")["peaks"]
        assert len(peaks) == 8
        labels = [p["label"] for p in peaks]
        assert labels[0] == "p1-p9" and labels[1] == "p0-p8"

    def test_solution_peaks_show_expected_ratio(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["spectrum", "--config", CONFIG_DIR / "experiment3.ini", "--out", out]) == 0
        by_label = {p["label"]: p["intensity"] for p in read_json(out / "spectrum_peaks.json")["peaks"]}
        assert by_label["p1-p9"] / by_label["p3-p11"] == pytest.approx(1.0, abs=1e-9)


def test_module_entry_point_runs_without_warning():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hhlsim.cli", "--help"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
