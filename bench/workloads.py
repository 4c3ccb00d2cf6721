"""The benchmark's three workloads: inputs, warm-up, operations and checks.

Each workload is a fixed list of operations that the runner repeats in
whole passes.  An operation's ``run`` is what gets timed; its ``check``
runs after the pass, untimed, and compares the output with a computation
from ``oracle`` (numpy only) or with a property the method must have.
Inputs come from the seed alone: the scaled workloads draw their systems
from it, and the two workloads on the shipped demonstration inputs use it to
order their operations.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from hhlsim import cli, hhl, tomography

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# The demonstration configs, the paper's experiments 1-3 among them.
DEMO_CONFIGS = ("experiment1", "experiment2", "experiment3", "b10_exact", "noisy")
# CLI command -> config section it needs ([system] is always required).
COMMANDS = {"solve": None, "sweep": "sweep", "tomography": "tomography", "spectrum": None}

# (solution qubits n_b, clock qubits t); the register has n_b + t + 1 qubits.
PURE_SIZES = ((2, 3), (3, 4), (4, 5))  # 6, 8 and 10 qubits


class CheckFailed(Exception):
    """An operation's output disagrees with its independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class DemoConfig:
    """A shipped config as read by the benchmark itself."""

    name: str
    path: Path
    sections: frozenset
    a: np.ndarray
    b: np.ndarray
    clock_qubits: int
    mode: str
    r: int
    noise: bool
    noise_duration_ms: float
    pulse_error: float
    t2_star_ms: float
    sweep_values: tuple


def read_config(name: str) -> DemoConfig:
    path = CONFIG_DIR / f"{name}.ini"
    p = configparser.ConfigParser()
    p.read(path, encoding="utf-8")
    system = p["system"]
    a = np.array([[complex(x) for x in row.split()] for row in system["matrix"].split(";")])
    if "b_theta" in system:
        theta = float(system["b_theta"])
        b = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex)
    else:
        b = oracle.unit([complex(x) for x in system["b"].split()])
    solver = p["solver"] if p.has_section("solver") else {}
    sweep = p["sweep"] if p.has_section("sweep") else {}
    noise = p["noise"] if p.has_section("noise") else {}
    molecule = p["molecule"] if p.has_section("molecule") else {}
    return DemoConfig(
        name=name,
        path=path,
        sections=frozenset(p.sections()),
        a=a,
        b=b,
        clock_qubits=int(solver.get("clock_qubits", "2")),
        mode=solver.get("mode", "linear").strip(),
        r=int(solver.get("r", "2")),
        noise=noise.get("enabled", "off").strip() == "on",
        noise_duration_ms=float(noise.get("total_duration_ms", "0")),
        pulse_error=float(noise.get("pulse_error_per_gate", "0")),
        t2_star_ms=min(float(v) for v in molecule.get("t2_star_ms", "inf").split()),
        sweep_values=tuple(float(v) for v in sweep.get("values", "").split()),
    )


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _vector(d: dict) -> np.ndarray:
    return np.asarray(d["re"]) + 1j * np.asarray(d["im"])


def _digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def _random_system(rng: np.random.Generator, n_b: int):
    """Hermitian positive-definite A with eigenvalues 1..2^n_b in a random basis, and a random unit b."""
    d = 2**n_b
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a = (q * np.arange(1.0, d + 1.0)) @ q.conj().T
    a = (a + a.conj().T) / 2.0
    b = oracle.unit(rng.normal(size=d) + 1j * rng.normal(size=d))
    return a, b


class Workload:
    name = ""
    ops: list

    def warm_up(self) -> None:
        """Run each distinct code path once at its smallest size."""


# ---------------------------------------------------------------------------


class PaperDemo(Workload):
    """Every CLI command on every shipped config with the sections it needs."""

    name = "paper_demo"

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.configs = {name: read_config(name) for name in DEMO_CONFIGS}
        self.first_digest: dict = {}
        self.ideal: dict = {}
        self.noisy: dict = {}
        self.ops = [
            self._op(cfg, command)
            for cfg in self.configs.values()
            for command, section in COMMANDS.items()
            if section is None or section in cfg.sections
        ]
        random.Random(seed).shuffle(self.ops)

    def _invoke(self, command: str, cfg: DemoConfig, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([command, "--config", str(cfg.path), "--out", str(out)])

    def _op(self, cfg: DemoConfig, command: str) -> Op:
        out = self.out_dir / f"{cfg.name}-{command}"
        label = f"{command} {cfg.name}"
        checker = getattr(self, f"_check_{command}")

        def check(rc):
            require(rc == 0, f"{label}: exit code {rc}")
            checker(cfg, out)
            digest = _digest(out)
            first = self.first_digest.setdefault(label, digest)
            require(digest == first, f"{label}: artifact bytes differ from the first pass")

        return Op(label, lambda: self._invoke(command, cfg, out), check)

    def warm_up(self) -> None:
        warm = self.out_dir / "warm-up"
        for command, name in (
            ("solve", "experiment3"),
            ("sweep", "experiment3"),
            ("tomography", "experiment3"),
            ("tomography", "b10_exact"),
            ("spectrum", "experiment3"),
            ("solve", "noisy"),
        ):
            require(self._invoke(command, self.configs[name], warm) == 0, f"warm-up {command} {name} failed")

    def _ideal(self, cfg: DemoConfig) -> np.ndarray:
        if cfg.name not in self.ideal:
            self.ideal[cfg.name] = oracle.ideal_final_state(cfg.a, cfg.b, cfg.clock_qubits, cfg.mode, cfg.r)
        return self.ideal[cfg.name]

    def _noisy_final(self, cfg: DemoConfig) -> np.ndarray:
        """The noisy run's final density, evolved here with full-register Kraus products."""
        if cfg.name not in self.noisy:
            system = hhl.linear_system(cfg.a, cfg.b)
            solver = hhl.SolverConfig(clock_qubits=cfg.clock_qubits, rotation_mode=cfg.mode, r=cfg.r)
            c = hhl.build_circuit(system, hhl.resolve_config(system, solver))
            psi0 = np.kron(np.eye(2**cfg.clock_qubits)[0], np.kron(cfg.b, [1.0, 0.0]))
            self.noisy[cfg.name] = oracle.noisy_evolution(
                c.gates, c.n_qubits, psi0, cfg.noise_duration_ms, cfg.t2_star_ms, cfg.pulse_error
            )
        return self.noisy[cfg.name]

    def _check_solve(self, cfg: DemoConfig, out: Path) -> None:
        rep = _read_json(out / "solve_report.json")
        x = oracle.solution(cfg.a, cfg.b)
        xq = _vector(rep["x_quantum"])
        require(oracle.overlap_sq(_vector(rep["x_classical"]), x) >= 1.0 - 1e-12, f"{cfg.name}: x_classical != solve")
        if not cfg.noise:
            p = oracle.success_probability(cfg.a, cfg.b, cfg.mode, cfg.r)
            require(abs(rep["success_probability"] - p) <= 1e-9, f"{cfg.name}: success probability != formula")
            final = _vector(rep["final_amplitudes"])
            require(oracle.overlap_sq(final, self._ideal(cfg)) >= 1.0 - 1e-9, f"{cfg.name}: final state != ideal")
        else:
            pops = np.asarray(rep["final_populations"])
            err = np.max(np.abs(pops - np.diag(self._noisy_final(cfg)).real))
            require(err <= 1e-10, f"{cfg.name}: noisy populations off the Kraus reference by {err:.2e}")
        if cfg.name == "experiment3":
            require(abs(rep["success_probability"] - np.sin(np.pi / 8.0) ** 2) <= 1e-9, "experiment3: p != sin^2(pi/8)")
        if cfg.name == "b10_exact":
            target = np.array([3.0, -1.0]) / np.sqrt(10.0)
            require(oracle.overlap_sq(xq, target) >= 1.0 - 1e-9, "b10_exact: x != (3, -1)/sqrt(10)")
        else:
            # the paper's bound on the overlap with the exact solution
            require(oracle.overlap_sq(xq, x) >= 0.96, f"{cfg.name}: |<x_q|x_c>|^2 < 0.96")

    def _check_sweep(self, cfg: DemoConfig, out: Path) -> None:
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        require([float(r[1]) for r in rows] == list(cfg.sweep_values), f"{cfg.name}: sweep rows != config values")
        for _, value, _, success in rows:
            p = oracle.success_probability(cfg.a, cfg.b, cfg.mode, int(float(value)))
            require(abs(float(success) - p) <= 1e-9, f"{cfg.name}: sweep r={value} success probability != formula")

    def _check_tomography(self, cfg: DemoConfig, out: Path) -> None:
        rep = _read_json(out / "tomography_report.json")
        records = _read_json(out / "records.json")
        if rep["kind"] == "full" and cfg.noise:
            require(0.0 < rep["fidelity"] <= 1.0, f"{cfg.name}: noisy tomography fidelity outside (0, 1]")
            return
        psi = self._ideal(cfg)
        rho = np.outer(psi, psi.conj())
        for name, rec in records.items():
            peaks = np.asarray(rec["peaks_re"]) + 1j * np.asarray(rec["peaks_im"])
            expected = oracle.line_amplitudes(rho, oracle.pulse_unitary(name))
            require(np.max(np.abs(peaks - expected)) <= 1e-9, f"{cfg.name}: record {name} != 2<i|U rho U'|i+8>")
        if rep["kind"] == "full":
            require(len(records) == 44, f"{cfg.name}: full catalog has {len(records)} records")
            require(rep["fidelity"] >= 1.0 - 1e-9, f"{cfg.name}: noiseless reconstruction fidelity {rep['fidelity']}")
        else:
            x = oracle.solution(cfg.a, cfg.b)
            ratio = abs(x[0]) ** 2 / abs(x[1]) ** 2
            require(abs(rep["ratio"] / ratio - 1.0) <= 1e-9, f"{cfg.name}: partial ratio != |x1/x2|^2")
            require(abs(rep["solve_ratio"] / ratio - 1.0) <= 1e-9, f"{cfg.name}: solve ratio != |x1/x2|^2")
            require(rep["phase_sign"] == np.sign((x[0] * x[1].conjugate()).real), f"{cfg.name}: phase sign")

    def _check_spectrum(self, cfg: DemoConfig, out: Path) -> None:
        peaks = _read_json(out / "spectrum_peaks.json")["peaks"]
        rep = _read_json(self.out_dir / f"{cfg.name}-solve" / "solve_report.json")
        if "final_amplitudes" in rep:
            pops = np.abs(_vector(rep["final_amplitudes"])) ** 2
        else:
            pops = np.asarray(rep["final_populations"])
        require(len(peaks) == 8, f"{cfg.name}: {len(peaks)} spectrum peaks")
        for peak in peaks:
            j = int(peak["label"][1:].split("-")[0])
            require(abs(peak["intensity"] - (pops[j] - pops[j + 8])) <= 1e-12, f"{cfg.name}: peak {j} != p_j - p_j+8")


# ---------------------------------------------------------------------------


class ScaledPure(Workload):
    """Noiseless exact-mode runs on 6-, 8- and 10-qubit registers."""

    name = "scaled_pure"

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.cases = []
        for n_b, t in PURE_SIZES:
            a, b = _random_system(rng, n_b)
            self.cases.append((a, b, hhl.linear_system(a, b), hhl.SolverConfig(clock_qubits=t, rotation_mode="exact")))
        self.ops = [self._op(*case) for case in self.cases]

    def _op(self, a, b, system, cfg) -> Op:
        label = f"{system.n_solution_qubits + cfg.clock_qubits + 1} qubits"

        def check(rep):
            require(oracle.overlap_sq(rep.x_quantum, oracle.solution(a, b)) >= 1.0 - 1e-9, f"{label}: overlap")
            p = oracle.success_probability(a, b, "exact", cfg.r)
            require(abs(rep.success_probability - p) <= 1e-9, f"{label}: success probability != formula")
            require(abs(rep.clock_residual) <= 1e-9, f"{label}: clock residual {rep.clock_residual}")

        return Op(label, lambda: hhl.run_hhl(system, cfg), check)

    def warm_up(self) -> None:
        _, _, system, cfg = self.cases[0]
        hhl.run_hhl(system, cfg)


# ---------------------------------------------------------------------------


class ReadoutFit(Workload):
    """Full and partial readout with Lorentzian fitting of the demonstration final states."""

    name = "readout_fit"
    configs = ("experiment1", "experiment2", "experiment3", "b10_exact")

    def __init__(self, seed: int, out_dir: Path):
        self.ops = []
        self.states = []
        for name in self.configs:
            cfg = read_config(name)
            system = hhl.linear_system(cfg.a, cfg.b)
            rho = hhl.theoretical_final_state(system, hhl.SolverConfig(rotation_mode="exact")).density()
            psi = oracle.ideal_final_state(cfg.a, cfg.b, 2, "exact", 2)
            self.states.append(rho)
            self.ops.append(self._full_op(name, rho, np.outer(psi, psi.conj())))
            self.ops.append(self._partial_op(name, rho, cfg, np.outer(psi, psi.conj())))
        random.Random(seed).shuffle(self.ops)

    def _check_lines(self, label, records, rho_ref):
        for rec in records:
            err = np.max(np.abs(rec.peak_amplitudes - oracle.line_amplitudes(rho_ref, oracle.pulse_unitary(rec.pulse))))
            require(err <= 1e-9, f"{label}: fitted lines of {rec.pulse} off by {err:.2e}")

    def _full_op(self, name, rho, rho_ref) -> Op:
        label = f"full readout {name}"

        def run():
            records = tomography.simulate_readout(rho, tomography.pulse_catalog("full"), fit_via_spectrum=True)
            return records, tomography.reconstruct_density(records)

        def check(result):
            records, rho_hat = result
            require(len(records) == 44, f"{label}: {len(records)} records")
            self._check_lines(label, records, rho_ref)
            fid = oracle.overlap_fidelity(rho_hat.matrix, rho_ref)
            require(fid >= 1.0 - 1e-6, f"{label}: reconstruction fidelity {fid}")

        return Op(label, run, check)

    def _partial_op(self, name, rho, cfg, rho_ref) -> Op:
        label = f"partial readout {name}"
        x = oracle.solution(cfg.a, cfg.b)

        def run():
            records = tomography.simulate_readout(rho, tomography.pulse_catalog("partial"), fit_via_spectrum=True)
            return records, tomography.extract_solution_partial(records)

        def check(result):
            records, part = result
            require(len(records) == 5, f"{label}: {len(records)} records")
            self._check_lines(label, records, rho_ref)
            ratio = abs(x[0]) ** 2 / abs(x[1]) ** 2
            require(abs(part.ratio / ratio - 1.0) <= 1e-9, f"{label}: ratio {part.ratio} != |x1/x2|^2 {ratio}")
            require(part.phase_sign == np.sign((x[0] * x[1].conjugate()).real), f"{label}: phase sign")

        return Op(label, run, check)

    def warm_up(self) -> None:
        rho = self.states[0]
        tomography.reconstruct_density(tomography.simulate_readout(rho, tomography.pulse_catalog("full")))
        records = tomography.simulate_readout(rho, tomography.pulse_catalog("partial"), fit_via_spectrum=True)
        tomography.extract_solution_partial(records)


WORKLOADS = {w.name: w for w in (PaperDemo, ScaledPure, ReadoutFit)}
