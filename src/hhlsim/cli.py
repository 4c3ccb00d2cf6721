"""Experiment runner: solve, sweep, tomography and spectrum commands.

All outputs are UTF-8 JSON or CSV with LF line endings, written so a rerun
of the same manifest reproduces them byte for byte (no timestamps, floats
via repr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, nmr, tomography
from . import circuit as qcirc
from .config import RunSettings, load_config
from .errors import ConfigParseError, RegisterTooWide
from .hhl import run_hhl, sweep_r, sweep_t0, theoretical_final_state
from .qcore import fidelity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hhlsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the pipeline once and write a solve report"),
        ("sweep", "sweep r or t0 per the config's [sweep] section"),
        ("tomography", "simulate readout records and reconstruct"),
        ("spectrum", "export the final-state carbon spectrum"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--mode", choices=("linear", "exact"), default=None, help="override rotation mode")
        cmd.add_argument("--noise", choices=("on", "off"), default=None, help="override the noise switch")
    return parser


def _apply_overrides(settings: RunSettings, args) -> RunSettings:
    solver = settings.solver
    noise = settings.noise
    if args.mode is not None:
        solver = replace(solver, rotation_mode=args.mode)
    if args.noise is not None:
        noise = replace(noise, enabled=args.noise == "on")
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigParseError(f"--seed {args.seed} must be non-negative")
        noise = replace(noise, seed=args.seed)
    if settings.tomography.noise_sigma > 0.0 and noise.seed is None:
        raise ConfigParseError("stochastic readout noise requires a seed")
    return replace(settings, solver=solver, noise=noise)


def _noise_builder(settings: RunSettings):
    """Schedule factory: uniform dephasing plus per-gate depolarizing errors."""
    if not settings.noise.enabled:
        return None
    t2 = settings.molecule.t2_star_ms if settings.molecule is not None else nmr._DEFAULT_T2_STAR_MS

    def builder(c):
        t2v = t2 if len(t2) == c.n_qubits else float(min(t2))
        events = list(qcirc.dephasing_schedule(c, settings.noise.total_duration_ms, t2v))
        if settings.noise.pulse_error_per_gate > 0.0:
            events.extend(qcirc.pulse_error_schedule(c, settings.noise.pulse_error_per_gate))
        return events

    return builder


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _final_density(report):
    return report.final_density if report.final_density is not None else report.final_state.density()


def _spectrum_csv(spectrum: nmr.CarbonSpectrum) -> str:
    centers = [p.center for p in spectrum.peaks]
    width = max(p.width for p in spectrum.peaks)
    freqs = np.linspace(min(centers) - 20.0 * width, max(centers) + 20.0 * width, 2001)
    amps = spectrum.sample(freqs)
    lines = ["frequency_hz,amplitude"]
    lines.extend(f"{f!r},{a!r}" for f, a in zip(freqs.tolist(), amps.tolist()))
    return "\n".join(lines) + "\n"


def cmd_solve(settings: RunSettings, out: Path) -> tuple[dict, list[str]]:
    report = run_hhl(settings.system, settings.solver, noise_builder=_noise_builder(settings))
    payload = report.to_dict()
    payload["rotation_mode"] = settings.solver.rotation_mode
    payload["noise_enabled"] = settings.noise.enabled
    outputs = ["solve_report.json", "circuit.txt"]
    _write_json(out / "solve_report.json", payload)
    _write_text(out / "circuit.txt", qcirc.circuit_to_text(report.circuit))
    if settings.molecule is not None and report.circuit.n_qubits == 4:
        spectrum = nmr.synthesize_spectrum(_final_density(report), settings.molecule)
        _write_text(out / "final_spectrum.csv", _spectrum_csv(spectrum))
        outputs.append("final_spectrum.csv")
    return payload, outputs


def cmd_sweep(settings: RunSettings, out: Path) -> tuple[dict, list[str]]:
    if settings.sweep is None:
        raise ConfigParseError("sweep command needs a [sweep] section")
    sweep = sweep_r if settings.sweep.parameter == "r" else sweep_t0
    rows = sweep(settings.system, settings.sweep.values, settings.solver)
    lines = ["parameter,value,max_rel_error,success_probability"]
    lines.extend(
        f"{row.parameter},{row.value!r},{row.max_rel_error!r},{row.success_probability!r}" for row in rows
    )
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    payload = {
        "parameter": settings.sweep.parameter,
        "rows": [
            {
                "value": row.value,
                "max_rel_error": row.max_rel_error,
                "success_probability": row.success_probability,
            }
            for row in rows
        ],
    }
    return payload, ["sweep.csv"]


def cmd_tomography(settings: RunSettings, out: Path) -> tuple[dict, list[str]]:
    theory = theoretical_final_state(settings.system, settings.solver)
    if theory.n_qubits != 4:
        raise ConfigParseError("tomography needs the 4-qubit layout (2x2 system)")
    builder = _noise_builder(settings)
    if builder is not None:
        report = run_hhl(settings.system, settings.solver, noise_builder=builder)
        rho = _final_density(report)
    else:
        rho = theory.density()
    tset = settings.tomography
    rng = np.random.default_rng(settings.noise.seed) if tset.noise_sigma > 0.0 else None
    records = tomography.simulate_readout(
        rho,
        tomography.pulse_catalog(tset.kind),
        noise_sigma=tset.noise_sigma,
        rng=rng,
        fit_via_spectrum=tset.fit_peaks,
        molecule=settings.molecule,
    )
    _write_json(out / "records.json", tomography.records_to_json(records))
    payload: dict = {
        "kind": tset.kind,
        "noise_enabled": settings.noise.enabled,
        "noise_sigma": tset.noise_sigma,
        "fit_peaks": tset.fit_peaks,
    }
    if tset.kind == "full":
        rho_hat = tomography.reconstruct_density(records)
        payload["fidelity"] = fidelity(rho_hat, theory.density())
    else:
        partial = tomography.extract_solution_partial(records)
        solve_report = run_hhl(settings.system, settings.solver)
        payload.update(
            {
                "c_sq": partial.c_sq,
                "d_sq": partial.d_sq,
                "phase_sign": partial.phase_sign,
                "ratio": partial.ratio,
                "solve_ratio": solve_report.solution_ratio_sq,
            }
        )
    _write_json(out / "tomography_report.json", payload)
    return payload, ["records.json", "tomography_report.json"]


def cmd_spectrum(settings: RunSettings, out: Path) -> tuple[dict, list[str]]:
    report = run_hhl(settings.system, settings.solver, noise_builder=_noise_builder(settings))
    if report.circuit.n_qubits != 4:
        raise ConfigParseError("spectrum export needs the 4-qubit layout (2x2 system)")
    molecule = settings.molecule if settings.molecule is not None else nmr.MoleculeParams()
    spectrum = nmr.synthesize_spectrum(_final_density(report), molecule)
    _write_text(out / "spectrum.csv", _spectrum_csv(spectrum))
    # intensities are quoted relative to the pseudo-pure reference peak,
    # which is 1 for the deviation-scaled states simulated here
    peaks = [
        {
            "center_hz": p.center,
            "intensity": p.intensity,
            "relative_to_pps": p.intensity,
            "width_hz": p.width,
            "label": p.label,
        }
        for p in spectrum.peaks
    ]
    _write_json(out / "spectrum_peaks.json", {"peaks": peaks})
    return {"peaks": peaks}, ["spectrum.csv", "spectrum_peaks.json"]


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "tomography": cmd_tomography,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _apply_overrides(load_config(args.config), args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload, outputs = _COMMANDS[args.command](settings, out)
        manifest = {
            "version": __version__,
            "command": args.command,
            "config": settings.raw_text,
            "overrides": {"mode": args.mode, "noise": args.noise, "seed": args.seed},
            "seed": settings.noise.seed,
            "outputs": sorted(outputs + ["manifest.json"]),
        }
        _write_json(out / "manifest.json", manifest)
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
        return 0
    except (ConfigParseError, RegisterTooWide) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}), file=sys.stderr)
        return 2
    except Exception as exc:  # every failure leaves a structured payload
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
