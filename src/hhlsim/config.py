"""Structured run-configuration files.

One INI-style text file with sections [system], [solver], [noise],
[molecule], [sweep] and [tomography]; every number is a decimal string.
Matrices are rows split by ';' with whitespace-separated entries; complex
entries use Python literal syntax (e.g. ``0.5+0.5j``).  Any other section,
a key its section does not take, or a key with an empty value is a
ConfigParseError; a key left out takes its settings class's default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from . import nmr
from .errors import ConfigParseError, HhlsimError
from .hhl import LinearSystem, SolverConfig, linear_system, prepare_b


def _parse_matrix(text: str) -> np.ndarray:
    return np.array([[complex(tok) for tok in row.split()] for row in text.split(";")], dtype=complex)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([complex(tok) for tok in text.split()], dtype=complex)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _word(text: str) -> str:
    return text.strip().lower()


def _switch(text: str) -> bool:
    word = _word(text)
    if word not in ("on", "true", "yes", "1", "off", "false", "no", "0"):
        raise ValueError("must be on or off")
    return word in ("on", "true", "yes", "1")


def _c_tilde(text: str) -> float | None:
    return None if _word(text) == "default" else float(text)


# Every key a config file may give: section -> key -> (settings field, converter).
# The settings classes own the defaults and range checks.
_KEYS = {
    "system": {
        "matrix": ("matrix", _parse_matrix),
        "b": ("b", _parse_vector),
        "b_theta": ("b_theta", float),
    },
    "solver": {
        "clock_qubits": ("clock_qubits", int),
        "t0": ("t0", float),
        "r": ("r", int),
        "mode": ("rotation_mode", _word),
        "c_tilde": ("c_tilde", _c_tilde),
    },
    "noise": {
        "enabled": ("enabled", _switch),
        "total_duration_ms": ("total_duration_ms", float),
        "pulse_error_per_gate": ("pulse_error_per_gate", float),
        "seed": ("seed", int),
    },
    "molecule": {
        "shift_c": ("carbon_shift", float),
        "t2_star_ms": ("t2_star_ms", _floats),
        "j_couplings": ("j_couplings", _parse_matrix),
        "linewidth": ("linewidth", float),
    },
    "sweep": {
        "parameter": ("parameter", _word),
        "values": ("values", _floats),
    },
    "tomography": {
        "kind": ("kind", _word),
        "noise_sigma": ("noise_sigma", float),
    },
}


def _reject_unknown_keys(parser: configparser.ConfigParser) -> None:
    # [DEFAULT] keys would reappear in every section; name the real culprit
    for name in ([parser.default_section] if parser.defaults() else []) + parser.sections():
        if name not in _KEYS:
            raise ConfigParseError(f"unknown section [{name}]")
        unknown = sorted(set(parser[name]) - set(_KEYS[name]))
        if unknown:
            raise ConfigParseError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")


def _fields(parser: configparser.ConfigParser, section: str) -> dict:
    """The keys the file gives in ``section``, converted, by settings field."""
    given = parser[section] if section in parser else {}
    fields = {}
    for key, (field, convert) in _KEYS[section].items():
        if key in given:
            try:
                fields[field] = convert(given[key])
            except ValueError as exc:
                raise ConfigParseError(f"[{section}] {key} = {given[key]!r}: {exc}") from exc
    return fields


def _load(parser: configparser.ConfigParser, section: str, cls):
    fields = _fields(parser, section)
    try:
        return cls(**fields)
    except (ValueError, HhlsimError) as exc:
        raise ConfigParseError(f"invalid [{section}] settings: {exc}") from exc


@dataclass(frozen=True)
class NoiseSettings:
    enabled: bool = False
    total_duration_ms: float = 50.0
    pulse_error_per_gate: float = 0.0004
    seed: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.total_duration_ms) and self.total_duration_ms >= 0.0):
            raise ValueError(f"total_duration_ms = {self.total_duration_ms} must be non-negative and finite")
        if not 0.0 <= self.pulse_error_per_gate <= 1.0:
            raise ValueError(f"pulse_error_per_gate = {self.pulse_error_per_gate} must lie in [0, 1]")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be non-negative")


@dataclass(frozen=True)
class TomographySettings:
    kind: str = "full"
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("full", "partial"):
            raise ValueError(f"tomography kind must be full or partial, got {self.kind!r}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma = {self.noise_sigma} must be non-negative and finite")


@dataclass(frozen=True)
class SweepSettings:
    """Values of one SolverConfig field; each is checked as a SolverConfig point when a run starts."""

    parameter: str = "r"
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.parameter not in ("r", "t0"):
            raise ValueError(f"sweep parameter must be r or t0, got {self.parameter!r}")
        if not self.values:
            raise ValueError("a sweep needs a values list")


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
    fields = _fields(parser, "system")
    if "matrix" not in fields:
        raise ConfigParseError("[system] needs a matrix")
    if ("b" in fields) == ("b_theta" in fields):
        raise ConfigParseError("[system] needs exactly one of b or b_theta")
    try:
        b = prepare_b(fields["b_theta"]).amplitudes if "b_theta" in fields else fields["b"]
        return linear_system(fields["matrix"], b, normalize=True)
    except (ValueError, HhlsimError) as exc:
        raise ConfigParseError(f"invalid system: {exc}") from exc


def load_config(path) -> RunSettings:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc
    _reject_unknown_keys(parser)
    return RunSettings(
        system=_load_system(parser),
        solver=_load(parser, "solver", SolverConfig),
        noise=_load(parser, "noise", NoiseSettings),
        molecule=_load(parser, "molecule", nmr.MoleculeParams) if "molecule" in parser else None,
        sweep=_load(parser, "sweep", SweepSettings) if "sweep" in parser else None,
        tomography=_load(parser, "tomography", TomographySettings),
        raw_text=text,
    )
