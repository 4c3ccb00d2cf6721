import errno
import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hhlsim import cli, hhl, nmr, qcore
from hhlsim.config import load_config

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


# nmr's default coupling table as a [molecule] j_couplings value
DEFAULT_J = "0 128 48 -12 ; 128 0 69 47 ; 48 69 0 -128 ; -12 47 -128 0"

# every shipped config that has the section a command needs
_NEEDED_SECTION = {"solve": "", "sweep": "[sweep]", "tomography": "[tomography]", "spectrum": ""}
RERUN_CASES = [
    (command, path.name)
    for command, section in _NEEDED_SECTION.items()
    for path in sorted(CONFIG_DIR.glob("*.ini"))
    if section in path.read_text()
]


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

    @pytest.mark.parametrize("key, value", [("t0", "6.28%"), ("linewidth", "%(x)s")], ids=["percent", "reference"])
    def test_percent_in_a_value_is_a_config_error(self, tmp_path, capsys, key, value):
        # with configparser's interpolation on, these exited 1 with its own untyped errors
        lines = (CONFIG_DIR / "experiment1.ini").read_text().splitlines()
        config = tmp_path / "pct.ini"
        config.write_text("\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines))
        assert run_cli(["solve", "--config", config, "--out", tmp_path / "o"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigParseError"

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
            ("spectrum", "[molecule]\nj_couplings = 0 128j 48 -12 ; 128j 0 69 47 ; 48 69 0 -128 ; -12 47 -128 0", ()),
            ("tomography", "[noise]\nseed = 1\n[tomography]\nnoise_sigma = -0.01", ()),
            ("solve", "t0 = 20", ()),
            ("solve", "clock_qubits = 1", ()),
            ("solve", "c_tilde = 1.5", ()),
            ("sweep", "[sweep]\nparameter = t0\nvalues = 6.283185307179586 0", ()),
            ("sweep", "[sweep]\nparameter = t0\nvalues = 6.283185307179586 20", ()),
        ],
        ids=[
            "c_tilde", "t0", "seed", "duration", "pulse_error", "t2_star", "sweep_values",
            "negative_seed", "negative_seed_flag", "j_couplings_nan", "j_couplings_complex", "negative_noise_sigma",
            "t0_not_encodable", "clock_too_narrow", "c_tilde_above_lambda_min",
            "sweep_t0_zero", "sweep_t0_not_encodable",
        ],
    )
    def test_bad_config_values_rejected(self, tmp_path, capsys, command, extra, flags):
        config = tmp_path / "bad.ini"
        config.write_text(BASIC_CONFIG + extra + "\n")
        assert run_cli([command, "--config", config, "--out", tmp_path / "o", *flags]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigParseError"

    @pytest.mark.parametrize(
        "command, rest, flags, error",
        [
            ("solve", "b_theta = 7", (), "ConfigParseError"),
            ("solve", "b = nan 1", (), "ConfigParseError"),
            ("solve", "b = 1 0\n[solver]\nc_tilde = 1.5", ("--mode", "exact"), "ConfigParseError"),
            ("solve", "b = 1 0\n[solver]\nr = 30", (), "ZeroProbabilityBranch"),
            ("tomography", "b = 1 0\n[solver]\nt0 = 6.9", (), "EigenvalueNotEncodable"),
        ],
        ids=[
            "b_theta_out_of_range", "b_not_finite", "c_tilde_under_mode_flag", "r_leaves_no_post_selection",
            "tomography_needs_exact_labels",
        ],
    )
    def test_more_config_problems_exit_2(self, tmp_path, capsys, command, rest, flags, error):
        config = tmp_path / "bad.ini"
        config.write_text(f"[system]\nmatrix = 1.5 0.5 ; 0.5 1.5\n{rest}\n")
        assert run_cli([command, "--config", config, "--out", tmp_path / "o", *flags]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == error

    @pytest.mark.parametrize(
        "b, unit", [("1e308 1e308", [0.5**0.5, 0.5**0.5]), ("1e-320 0", [1.0, 0.0])], ids=["huge", "subnormal"]
    )
    def test_b_at_the_ends_of_the_float_range_is_normalized(self, tmp_path, b, unit):
        config = tmp_path / "b.ini"
        config.write_text(f"[system]\nmatrix = 1.5 0.5 ; 0.5 1.5\nb = {b}\n")
        assert np.allclose(load_config(config).system.b, unit, rtol=0.0, atol=1e-15)
        assert run_cli(["solve", "--config", config, "--out", tmp_path / "o"]) == 0

    def test_missing_noise_section_reads_like_an_empty_one(self, tmp_path):
        reports = []
        for name, extra in (("absent", ""), ("empty", "[noise]\n")):
            config = tmp_path / f"{name}.ini"
            config.write_text(BASIC_CONFIG + extra)
            out = tmp_path / name
            assert run_cli(["solve", "--config", config, "--out", out, "--noise", "on"]) == 0
            reports.append((out / "solve_report.json").read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "extra, named",
        [
            ("clock_qubits = 3\nmdoe = exact", "mdoe"),
            ("[bogus]\nclock_qubits = 3", "[bogus]"),
            ("[noise]\nenabled = on\nclock_qubits = 3", "clock_qubits"),
            ("[DEFAULT]\nmode = exact", "[DEFAULT]"),
        ],
        ids=["misspelled_key", "unknown_section", "key_in_wrong_section", "default_section"],
    )
    def test_unknown_sections_and_keys_rejected(self, tmp_path, capsys, extra, named):
        config = tmp_path / "bad.ini"
        config.write_text(BASIC_CONFIG + extra + "\n")
        assert run_cli(["solve", "--config", config, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigParseError"
        assert named in err["error"]["message"]
        assert not (tmp_path / "o").exists()

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
        derive = qcore._derived

        def counting(cls, *values):
            if cls is qcore.DensityMatrix:
                widths.append(np.shape(values[0])[0])
            return derive(cls, *values)

        monkeypatch.setattr(qcore, "_derived", counting)
        config = tmp_path / "run.ini"
        config.write_text(
            "[system]\nmatrix = 1 0 0 0 ; 0 2 0 0 ; 0 0 1 0 ; 0 0 0 2\nb = 1 1 1 1\n"
            "[solver]\nmode = exact\n[molecule]\nlinewidth = 1.0\n"
        )
        out = tmp_path / "o"
        assert run_cli(["solve", "--config", config, "--out", out]) == 0
        assert widths and max(widths) <= 4
        assert not (out / "final_spectrum.csv").exists()

    @pytest.mark.parametrize(
        "command, key, value, error",
        [
            ("solve", "r", "1024", "ZeroProbabilityBranch"),
            ("sweep", "values", "1 2 1024", "ZeroProbabilityBranch"),
            ("solve", "clock_qubits", "2000", "RegisterTooWide"),
            ("solve", "j_couplings", DEFAULT_J.replace("128", "1.7e308", 2), "ConfigParseError"),
            ("spectrum", "j_couplings", DEFAULT_J.replace("128", "1.7e308", 2), "ConfigParseError"),
            ("spectrum", "linewidth", "3e154", "ConfigParseError"),
            ("spectrum", "linewidth", "1e153", "ConfigParseError"),
            ("solve", "matrix", "1.5e-12 0.6e-12 ; 0.5e-12 1.5e-12", "ConfigParseError"),
        ],
        ids=[
            "r_1024", "sweep_r_1024", "clock_qubits_2000", "j_coupling_overflow_solve", "j_coupling_overflow_spectrum",
            "linewidth_3e154", "linewidth_1e153", "tiny_asymmetric_matrix",
        ],
    )
    def test_extreme_values_exit_2_and_write_nothing(self, tmp_path, capsys, command, key, value, error):
        # each of these exited 1, or exited 0 with NaN or a wrong answer in its files
        lines = (CONFIG_DIR / "experiment1.ini").read_text().splitlines()
        lines.insert(lines.index("[molecule]") + 1, f"j_couplings = {DEFAULT_J}")
        # exact mode at the scale of the tiny A, where the run succeeded with a 10% error
        values = {key: value, "mode": "exact", "t0": "6.283185307179586e12"} if key == "matrix" else {key: value}
        for i, line in enumerate(lines):
            name = line.split(" =")[0]
            if name in values:
                lines[i] = f"{name} = {values[name]}"
        config = tmp_path / "extreme.ini"
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run_cli([command, "--config", config, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == error
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "matrix, j",
        [
            ("1 1.7e308 ; -1.7e308 1", DEFAULT_J),
            ("1.5 0.5 ; 0.5 1.5", DEFAULT_J.replace("0 128", "0 1.7e308", 1).replace("128 0", "-1.7e308 0", 1)),
            ("1e308 1e308 ; 1e308 1.5e308", DEFAULT_J),
        ],
        ids=["asymmetric_matrix_overflow", "asymmetric_j_overflow", "infinite_eigenvalue"],
    )
    def test_overflowing_input_leaves_one_json_line_on_stderr(self, tmp_path, matrix, j):
        # each exited 2, but after a numpy RuntimeWarning line on stderr
        config = tmp_path / "overflow.ini"
        config.write_text(f"[system]\nmatrix = {matrix}\nb = 1 0\n[molecule]\nj_couplings = {j}\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hhlsim.cli", "solve", "--config", str(config), "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"]["type"] == "ConfigParseError"

    def test_nearly_singular_scale_solves(self, tmp_path):
        # kappa = 2 at the scale 1e-13; an absolute 1e-12 pivot rule refused it with SingularMatrix, exit 1
        config = tmp_path / "tiny.ini"
        config.write_text(
            "[system]\nmatrix = 1.5e-13 0.5e-13 ; 0.5e-13 1.5e-13\nb = 1 0\n"
            "[solver]\nmode = exact\nt0 = 62831853071795.86\n"
        )
        out = tmp_path / "o"
        assert run_cli(["solve", "--config", config, "--out", out]) == 0
        report = read_json(out / "solve_report.json")
        x = np.array(report["x_classical"]["re"]) + 1j * np.array(report["x_classical"]["im"])
        assert np.max(np.abs(x / np.linalg.norm(x) - np.array([3.0, -1.0]) / np.sqrt(10.0))) < 1e-12

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

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        built = []
        init = cli.argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted_init)
        cli.build_parser.cache_clear()
        cfg = CONFIG_DIR / "experiment1.ini"
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "ex", "--mode", "exact"]) == 0
        parsers = len(built)
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "lin"]) == 0
        assert parsers > 0 and len(built) == parsers
        # the override of the first call does not stick to the shared parser
        assert read_json(tmp_path / "lin" / "solve_report.json")["max_rel_error"] > 1e-3

    def test_noise_override_enables_density_engine(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(
            ["solve", "--config", CONFIG_DIR / "experiment3.ini", "--out", out, "--noise", "on"]
        ) == 0
        report = read_json(out / "solve_report.json")
        assert report["noise_enabled"] is True
        assert 0.90 <= report["fidelity_4q"] < 1.0

    @pytest.mark.parametrize("command, config", RERUN_CASES)
    def test_byte_identical_reruns(self, tmp_path, command, config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli([command, "--config", CONFIG_DIR / config, "--out", out]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestWriteText:
    @pytest.mark.parametrize(
        "old, new", [("x" * 100, "short\n"), ("short\n", "λ = 1\n" * 100)], ids=["shorter", "longer"]
    )
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "a.txt"
        path.write_bytes(old.encode("utf-8"))
        cli._write_text(path, new)
        assert path.read_bytes() == new.encode("utf-8")

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        umask = os.umask(0o027)
        try:
            cli._write_text(tmp_path / "new.txt", "x")
            with open(tmp_path / "ref.txt", "w"):
                pass
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o666 & ~0o027
        assert stat.S_IMODE((tmp_path / "ref.txt").stat().st_mode) == 0o666 & ~0o027

    def test_failed_write_leaves_an_empty_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old bytes\n" * 100)

        def open_failing(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def write_part_then_fail(data):
                write(data[:4])
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write_part_then_fail
            return fh

        monkeypatch.setattr(cli, "open", open_failing, raising=False)
        with pytest.raises(OSError, match="No space"):
            cli._write_text(path, "new bytes\n" * 10)
        assert path.read_bytes() == b""


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

    def test_noise_switch_reaches_every_point(self, tmp_path):
        config = CONFIG_DIR / "experiment1.ini"
        for noise in ("on", "off"):
            assert run_cli(["sweep", "--config", config, "--noise", noise, "--out", tmp_path / noise]) == 0
        assert run_cli(["solve", "--config", config, "--noise", "on", "--out", tmp_path / "solve"]) == 0
        noisy = (tmp_path / "on" / "sweep.csv").read_bytes()
        noiseless = (tmp_path / "off" / "sweep.csv").read_bytes()
        assert noisy != noiseless
        settings = load_config(config)
        expected = ["parameter,value,max_rel_error,success_probability"]
        for r in settings.sweep.values:
            report = hhl.run_hhl(settings.system, replace(settings.solver, r=r))
            expected.append(f"r,{float(r)!r},{report.max_rel_error!r},{report.success_probability!r}")
        assert noiseless == ("\n".join(expected) + "\n").encode()
        noisy_r2 = noisy.decode().splitlines()[2].split(",")
        solve = read_json(tmp_path / "solve" / "solve_report.json")
        assert float(noisy_r2[2]) == solve["max_rel_error"]
        assert float(noisy_r2[3]) == solve["success_probability"]

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

    def test_partial_records_too_noisy_for_a_state_exit_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(BASIC_CONFIG + "\n[tomography]\nkind = partial\nnoise_sigma = 1.0\n")
        assert run_cli(["tomography", "--config", config, "--out", tmp_path / "o", "--seed", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "InconsistentRecords"

    def test_partial_matches_solve(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["tomography", "--config", CONFIG_DIR / "b10_exact.ini", "--out", out]) == 0
        report = read_json(out / "tomography_report.json")
        assert report["kind"] == "partial"
        assert report["ratio"] == pytest.approx(report["solve_ratio"], abs=1e-6)
        assert report["phase_sign"] == -1

    @pytest.mark.parametrize("command", ["solve", "tomography"])
    @pytest.mark.parametrize("r, code", [(18, 0), (20, 0), (21, 2)])
    def test_partial_readout_and_solve_share_the_empty_branch_threshold(self, tmp_path, capsys, command, r, code):
        # b is the eigenvector of eigenvalue 2, so the solution mass is sin^2(pi / 2^(r + 1)):
        # 3.6e-11 at r = 18, 2.2e-12 at r = 20 and 5.6e-13 at r = 21, under qcore.MIN_BRANCH_PROBABILITY
        config = tmp_path / "run.ini"
        config.write_text(
            f"[system]\nmatrix = 1.5 0.5 ; 0.5 1.5\nb = 1 1\n[solver]\nr = {r}\n[tomography]\nkind = partial\n"
        )
        assert run_cli([command, "--config", config, "--out", tmp_path / "o"]) == code
        if code:
            assert json.loads(capsys.readouterr().err)["error"]["type"] == "ZeroProbabilityBranch"

    @pytest.mark.parametrize("noise, pipeline_runs", [(None, 0), ("on", 1)])
    def test_partial_runs_the_pipeline_only_for_noise(self, tmp_path, monkeypatch, noise, pipeline_runs):
        calls, run_hhl = [], cli.run_hhl

        def counting(*args, **kwargs):
            calls.append(kwargs.get("noise_builder"))
            return run_hhl(*args, **kwargs)

        monkeypatch.setattr(cli, "run_hhl", counting)
        flags = ["--noise", noise, "--seed", "1"] if noise else []
        args = ["tomography", "--config", CONFIG_DIR / "b10_exact.ini", "--out", tmp_path / "o"]
        assert run_cli(args + flags) == 0
        assert len(calls) == pipeline_runs
        assert all(builder is not None for builder in calls)

    def test_noiseless_full_catalog_builds_the_ideal_density_once(self, tmp_path, monkeypatch):
        calls, density = [], qcore.PureState.density

        def counting(state):
            calls.append(state)
            return density(state)

        monkeypatch.setattr(qcore.PureState, "density", counting)
        assert run_cli(["tomography", "--config", CONFIG_DIR / "experiment3.ini", "--out", tmp_path / "o"]) == 0
        assert len(calls) == 1

    def test_fit_peaks_is_an_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(BASIC_CONFIG + "[tomography]\nfit_peaks = on\n")
        assert run_cli(["tomography", "--config", config, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ConfigParseError", "message": "unknown key(s) in [tomography]: fit_peaks"}

    def test_unresolvable_lines_need_no_fit(self, tmp_path):
        # lines 0.08 Hz apart at 8 Hz (condition number 1.6e11) stop only a
        # spectrum fit; no command fits lines, so the readout runs
        config = tmp_path / "run.ini"
        config.write_text(
            BASIC_CONFIG + "[molecule]\nj_couplings = 0 0.32 0.16 0.08 ; 0.32 0 0 0 ; 0.16 0 0 0 ; 0.08 0 0 0\n"
            "linewidth = 8\n[tomography]\nkind = full\n"
        )
        out = tmp_path / "o"
        assert run_cli(["tomography", "--config", config, "--out", out]) == 0
        assert read_json(out / "tomography_report.json")["fidelity"] == pytest.approx(1.0, abs=1e-9)

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


class TestSpectrumCsv:
    @staticmethod
    def reference(spectrum):
        centers = [p.center for p in spectrum.peaks]
        width = max(p.width for p in spectrum.peaks)
        freqs = np.linspace(min(centers) - 20.0 * width, max(centers) + 20.0 * width, 2001)
        lines = [f"{f!r},{a!r}" for f, a in zip(freqs.tolist(), spectrum.sample(freqs).tolist())]
        return "\n".join(["frequency_hz,amplitude"] + lines) + "\n"

    def test_matches_the_per_line_text_on_every_grid(self):
        j = np.array(
            [[0.0, 100.0, 40.0, -10.0], [100.0, 0.0, 60.0, 40.0], [40.0, 60.0, 0.0, -100.0], [-10.0, 40.0, -100.0, 0.0]]
        )
        molecules = [
            nmr.DEFAULT_MOLECULE,
            nmr.MoleculeParams(linewidth=2.5),
            nmr.MoleculeParams(carbon_shift=-300.0),
            nmr.MoleculeParams(j_couplings=j),
        ]
        v = np.random.default_rng(12).normal(size=16)
        states = [
            qcore.basis_state(4, 0b1000).density(),  # line 0 at intensity -1
            qcore.DensityMatrix(np.eye(16) / 16.0),  # every line at 0
            qcore.PureState(v / np.linalg.norm(v)).density(),
        ]
        # each molecule's grid replaces the previous one in the one-entry layout cache
        for _ in range(2):
            for molecule in molecules:
                for rho in states:
                    spectrum = nmr.synthesize_spectrum(rho, molecule)
                    # compared as lists, whose first difference pytest reports at once
                    assert cli._spectrum_csv(spectrum).split("\n") == self.reference(spectrum).split("\n")


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


# x = A^-1 b is (1, 0) or (0, 1): one reference component is zero, so the relative
# error is undefined, and so is |x1/x2|^2 when x2 is the zero one
ZERO_COMPONENT_CASES = [("1.5 0.5", None), ("0.5 1.5", 0.0)]


class TestZeroSolutionComponent:
    @staticmethod
    def run(tmp_path, command, b):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[system]\nmatrix = 1.5 0.5 ; 0.5 1.5\nb = {b}\n[solver]\nmode = exact\n"
            "[sweep]\nparameter = r\nvalues = 2 3\n[tomography]\nkind = partial\n"
        )
        out = tmp_path / "o"
        assert run_cli([command, "--config", config, "--out", out]) == 0
        return out

    @pytest.mark.parametrize("b, ratio", ZERO_COMPONENT_CASES)
    def test_solve(self, tmp_path, b, ratio):
        report = read_json(self.run(tmp_path, "solve", b) / "solve_report.json")
        assert report["max_rel_error"] is None
        assert report["solution_ratio_sq"] == (None if ratio is None else pytest.approx(ratio, abs=1e-30))
        assert report["fidelity_4q"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b, ratio", ZERO_COMPONENT_CASES)
    def test_sweep(self, tmp_path, capsys, b, ratio):
        lines = (self.run(tmp_path, "sweep", b) / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["", ""]
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["max_rel_error"] for row in rows] == [None, None]

    @pytest.mark.parametrize("b, ratio", ZERO_COMPONENT_CASES)
    def test_tomography(self, tmp_path, b, ratio):
        report = read_json(self.run(tmp_path, "tomography", b) / "tomography_report.json")
        for key in ("ratio", "solve_ratio"):
            assert report[key] == (None if ratio is None else pytest.approx(ratio, abs=1e-15))
        assert report["c_sq"] + report["d_sq"] == pytest.approx(0.4, abs=1e-12)


def test_module_entry_point_runs_without_warning():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hhlsim.cli", "--help"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
