"""Structured run-configuration files.

One INI-style text file with sections [system], [solver], [noise],
[molecule], [sweep] and [tomography]; every number is a decimal string.
Matrices are rows split by ';' with whitespace-separated entries; complex
entries use Python literal syntax (e.g. ``0.5+0.5j``).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from . import nmr
from .errors import ConfigParseError, HhlsimError
from .hhl import LinearSystem, SolverConfig, linear_system, prepare_b


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[complex(tok) for tok in row.split()] for row in text.split(";")]
        m = np.array(rows, dtype=complex)
    except ValueError as exc:
        raise ConfigParseError(f"bad matrix entry: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigParseError(f"matrix must be square, got shape {m.shape}")
    return m


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([complex(tok) for tok in text.split()], dtype=complex)
    except ValueError as exc:
        raise ConfigParseError(f"bad vector entry: {exc}") from exc


def _to_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigParseError(f"{key} = {raw!r} is not a number") from exc
    if not np.isfinite(value):
        raise ConfigParseError(f"{key} = {raw!r} is not finite")
    return value


def _parse_float(section, key: str, default=None) -> float:
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigParseError(f"missing required value {key!r}")
        return default
    return _to_float(raw, key)


def _parse_switch(section, key: str, default: bool = False) -> bool:
    raw = section.get(key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigParseError(f"{key} = {raw!r} must be on or off")


@dataclass(frozen=True)
class NoiseSettings:
    enabled: bool
    total_duration_ms: float
    pulse_error_per_gate: float
    seed: int | None


@dataclass(frozen=True)
class TomographySettings:
    kind: str = "full"
    noise_sigma: float = 0.0
    fit_peaks: bool = False


@dataclass(frozen=True)
class SweepSettings:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class RunSettings:
    """Everything a CLI command needs, parsed from one config file."""

    system: LinearSystem
    solver: SolverConfig
    noise: NoiseSettings
    molecule: nmr.MoleculeParams | None
    sweep: SweepSettings | None
    tomography: TomographySettings
    raw_text: str


def _load_system(parser: configparser.ConfigParser) -> LinearSystem:
    if "system" not in parser:
        raise ConfigParseError("missing [system] section")
    section = parser["system"]
    if "matrix" not in section:
        raise ConfigParseError("[system] needs a matrix")
    a = _parse_matrix(section["matrix"])
    has_theta = "b_theta" in section
    has_b = "b" in section
    if has_theta == has_b:
        raise ConfigParseError("[system] needs exactly one of b or b_theta")
    if has_theta:
        if a.shape != (2, 2):
            raise ConfigParseError("b_theta only defines a 1-qubit input (2x2 system)")
        b = prepare_b(_parse_float(section, "b_theta")).amplitudes
    else:
        b = _parse_vector(section["b"])
        if b.size != a.shape[0]:
            raise ConfigParseError(f"b has length {b.size}, matrix is {a.shape[0]}x{a.shape[0]}")
    try:
        return linear_system(a, b, normalize=True)
    except HhlsimError as exc:
        raise ConfigParseError(f"invalid system: {exc}") from exc
    except ValueError as exc:
        raise ConfigParseError(f"invalid system: {exc}") from exc


def _load_solver(parser: configparser.ConfigParser) -> SolverConfig:
    section = parser["solver"] if "solver" in parser else {}
    mode = section.get("mode", "linear").strip().lower()
    if mode not in ("linear", "exact"):
        raise ConfigParseError(f"solver mode must be linear or exact, got {mode!r}")
    c_tilde_raw = section.get("c_tilde", "default")
    c_tilde = None if c_tilde_raw.strip().lower() == "default" else _to_float(c_tilde_raw, "c_tilde")
    try:
        return SolverConfig(
            clock_qubits=int(section.get("clock_qubits", "2")),
            t0=_parse_float(section, "t0", 2.0 * np.pi),
            r=int(section.get("r", "2")),
            rotation_mode=mode,
            c_tilde=c_tilde,
        )
    except ValueError as exc:
        raise ConfigParseError(f"invalid solver settings: {exc}") from exc


def _load_noise(parser: configparser.ConfigParser) -> NoiseSettings:
    if "noise" not in parser:
        return NoiseSettings(enabled=False, total_duration_ms=50.0, pulse_error_per_gate=0.0, seed=None)
    section = parser["noise"]
    duration = _parse_float(section, "total_duration_ms", 50.0)
    if duration < 0.0:
        raise ConfigParseError(f"total_duration_ms = {duration} must be non-negative")
    p = _parse_float(section, "pulse_error_per_gate", 0.0004)
    if not 0.0 <= p <= 1.0:
        raise ConfigParseError(f"pulse_error_per_gate = {p} must lie in [0, 1]")
    seed = section.get("seed")
    try:
        seed = int(seed) if seed is not None else None
    except ValueError as exc:
        raise ConfigParseError(f"seed = {seed!r} is not an integer") from exc
    if seed is not None and seed < 0:
        raise ConfigParseError(f"seed = {seed} must be non-negative")
    return NoiseSettings(
        enabled=_parse_switch(section, "enabled", False),
        total_duration_ms=duration,
        pulse_error_per_gate=p,
        seed=seed,
    )


def _load_molecule(parser: configparser.ConfigParser) -> nmr.MoleculeParams | None:
    if "molecule" not in parser:
        return None
    section = parser["molecule"]
    shifts = dict(nmr._SHIFT_ANCHORS)
    shifts["C"] = _parse_float(section, "shift_c", shifts["C"])
    t2_raw = section.get("t2_star_ms")
    t2 = tuple(_to_float(x, "t2_star_ms") for x in t2_raw.split()) if t2_raw else nmr._DEFAULT_T2_STAR_MS
    j_raw = section.get("j_couplings")
    j = _parse_matrix(j_raw).real if j_raw else None
    try:
        return nmr.MoleculeParams(
            chemical_shifts=shifts,
            t2_star_ms=t2,
            j_couplings=j,
            linewidth=_parse_float(section, "linewidth", 1.0),
        )
    except (ValueError, HhlsimError) as exc:
        raise ConfigParseError(f"invalid molecule settings: {exc}") from exc


def _load_sweep(parser: configparser.ConfigParser) -> SweepSettings | None:
    if "sweep" not in parser:
        return None
    section = parser["sweep"]
    parameter = section.get("parameter", "r").strip().lower()
    if parameter not in ("r", "t0"):
        raise ConfigParseError(f"sweep parameter must be r or t0, got {parameter!r}")
    raw = section.get("values")
    if not raw:
        raise ConfigParseError("[sweep] needs a values list")
    values = tuple(_to_float(tok, "sweep value") for tok in raw.split())
    if parameter == "r" and any(v != int(v) or v < 1 for v in values):
        raise ConfigParseError("r sweep values must be positive integers")
    return SweepSettings(parameter=parameter, values=values)


def _load_tomography(parser: configparser.ConfigParser) -> TomographySettings:
    if "tomography" not in parser:
        return TomographySettings()
    section = parser["tomography"]
    kind = section.get("kind", "full").strip().lower()
    if kind not in ("full", "partial"):
        raise ConfigParseError(f"tomography kind must be full or partial, got {kind!r}")
    noise_sigma = _parse_float(section, "noise_sigma", 0.0)
    if noise_sigma < 0.0:
        raise ConfigParseError(f"noise_sigma = {noise_sigma} must be non-negative")
    return TomographySettings(
        kind=kind,
        noise_sigma=noise_sigma,
        fit_peaks=_parse_switch(section, "fit_peaks", False),
    )


def load_config(path) -> RunSettings:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc
    return RunSettings(
        system=_load_system(parser),
        solver=_load_solver(parser),
        noise=_load_noise(parser),
        molecule=_load_molecule(parser),
        sweep=_load_sweep(parser),
        tomography=_load_tomography(parser),
        raw_text=text,
    )
