"""Experiment runner: solve, sweep, tomography and spectrum commands.

All outputs are UTF-8 JSON or CSV with LF line endings, written so a rerun
of the same manifest reproduces them byte for byte (no timestamps, floats
via repr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from . import __version__, nmr, tomography
from . import circuit as qcirc
from .config import RunSettings, load_config
from .errors import (
    ConfigParseError,
    EigenvalueNotEncodable,
    InconsistentRecords,
    RegisterTooWide,
    ZeroProbabilityBranch,
)
from .hhl import resolve_config, run_hhl, sweep_r, sweep_t0, theoretical_final_state
from .qcore import _freeze, fidelity, mass_ratio


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main`` call."""
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


def _given(**values) -> dict:
    return {name: value for name, value in values.items() if value is not None}


def _apply_overrides(settings: RunSettings, args) -> RunSettings:
    noise_on = None if args.noise is None else args.noise == "on"
    try:
        solver = replace(settings.solver, **_given(rotation_mode=args.mode))
        noise = replace(settings.noise, **_given(enabled=noise_on, seed=args.seed))
    except ValueError as exc:
        raise ConfigParseError(f"invalid override: {exc}") from exc
    if settings.tomography.noise_sigma > 0.0 and noise.seed is None:
        raise ConfigParseError("stochastic readout noise requires a seed")
    sweep = settings.sweep
    points = [{}] if sweep is None else [{}] + [{sweep.parameter: v} for v in sweep.values]
    for point in points:
        try:
            resolve_config(settings.system, replace(solver, **point))
        except (ValueError, EigenvalueNotEncodable) as exc:
            raise ConfigParseError(f"solver settings do not fit the system: {exc}") from exc
    return replace(settings, solver=solver, noise=noise)


def _molecule(settings: RunSettings) -> nmr.MoleculeParams:
    return settings.molecule if settings.molecule is not None else nmr.DEFAULT_MOLECULE


def _noise_builder(settings: RunSettings):
    """Schedule factory: uniform dephasing plus per-gate depolarizing errors."""
    if not settings.noise.enabled:
        return None
    t2 = _molecule(settings).t2_star_ms

    def builder(c):
        t2v = t2 if len(t2) == c.n_qubits else float(min(t2))
        events = list(qcirc.dephasing_schedule(c, settings.noise.total_duration_ms, t2v))
        if settings.noise.pulse_error_per_gate > 0.0:
            events.extend(qcirc.pulse_error_schedule(c, settings.noise.pulse_error_per_gate))
        return events

    return builder


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place, then cut the file to its length.

    No ``O_TRUNC``: ext4 flushes a file truncated to zero and rewritten when it is
    closed, so a rerun into a full ``--out`` would wait on the disk for every file.
    A write that fails leaves an empty file, never old and new bytes mixed."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
        try:
            view = memoryview(data)
            while view:
                view = view[fh.write(view):]
            fh.truncate(len(data))
        except BaseException:
            fh.truncate(0)
            raise


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _final_density(report):
    return report.final_density if report.final_density is not None else report.final_state.density()


@lru_cache(maxsize=1)
def _spectrum_layout(lo: float, hi: float) -> tuple[np.ndarray, str]:
    """The 2001-point grid from ``lo`` to ``hi`` and the spectrum CSV text on it,
    with a ``%r`` slot for each amplitude.  Every shipped config shares one grid."""
    freqs = _freeze(np.linspace(lo, hi, 2001))
    return freqs, "frequency_hz,amplitude\n" + "".join(f"{f!r},%r\n" for f in freqs.tolist())


def _spectrum_csv(spectrum: nmr.CarbonSpectrum) -> str:
    centers = [p.center for p in spectrum.peaks]
    width = max(p.width for p in spectrum.peaks)
    freqs, layout = _spectrum_layout(min(centers) - 20.0 * width, max(centers) + 20.0 * width)
    return layout % tuple(spectrum.sample(freqs).tolist())


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
    rows = sweep(settings.system, settings.sweep.values, settings.solver, noise_builder=_noise_builder(settings))
    lines = ["parameter,value,max_rel_error,success_probability"]
    for row in rows:
        error = "" if row.max_rel_error is None else repr(row.max_rel_error)  # undefined: an empty field
        lines.append(f"{row.parameter},{row.value!r},{error},{row.success_probability!r}")
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
    ideal = theory.density()
    rho = ideal if builder is None else run_hhl(settings.system, settings.solver, noise_builder=builder).final_density
    tset = settings.tomography
    rng = np.random.default_rng(settings.noise.seed) if tset.noise_sigma > 0.0 else None
    pulses = tomography.pulse_catalog(tset.kind)
    records = tomography.simulate_readout(rho, pulses, noise_sigma=tset.noise_sigma, rng=rng)
    _write_text(out / "records.json", tomography.records_json(records))
    payload: dict = {
        "kind": tset.kind,
        "noise_enabled": settings.noise.enabled,
        "noise_sigma": tset.noise_sigma,
    }
    if tset.kind == "full":
        rho_hat = tomography.reconstruct_density(records)
        payload["fidelity"] = fidelity(rho_hat, ideal)
    else:
        partial = tomography.extract_solution_partial(records)
        c_sq, d_sq = theory.probabilities()[list(tomography.SOLUTION_STATES)]
        payload.update(
            {
                "c_sq": partial.c_sq,
                "d_sq": partial.d_sq,
                "phase_sign": partial.phase_sign,
                "ratio": partial.ratio,
                "solve_ratio": mass_ratio(c_sq, d_sq),
            }
        )
    _write_json(out / "tomography_report.json", payload)
    return payload, ["records.json", "tomography_report.json"]


def cmd_spectrum(settings: RunSettings, out: Path) -> tuple[dict, list[str]]:
    report = run_hhl(settings.system, settings.solver, noise_builder=_noise_builder(settings))
    if report.circuit.n_qubits != 4:
        raise ConfigParseError("spectrum export needs the 4-qubit layout (2x2 system)")
    spectrum = nmr.synthesize_spectrum(_final_density(report), _molecule(settings))
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


# Exit 2: the config itself, or problems it causes that show only while running
# (tomography needs an exact encoding, a post-selection with no mass means r is
# too large for the spectrum, and readout noise_sigma can be too large for the
# partial records to read as a state).  Any other failure exits 1.
_CONFIG_ERRORS = (ConfigParseError, RegisterTooWide, EigenvalueNotEncodable, ZeroProbabilityBranch, InconsistentRecords)


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
    except Exception as exc:  # every failure leaves a structured payload
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}), file=sys.stderr)
        return 2 if isinstance(exc, _CONFIG_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
