"""Readout-pulse tomography: pulse catalogs, record simulation, and
reconstruction of states and solution data from the records.

A pulse name like ``YEEE*swap13`` composes as an operator product read
left to right, rightmost factor applied first (the swap moves a qubit onto
the carbon spin, then the pi/2 pulse converts its populations into
observable coherences).  Letters act per qubit: E is the identity, X and Y
are pi/2 rotations about the x and y axes.

After a pulse the carbon channel records eight complex line amplitudes,
``2 * <i| rho' |i+8>`` for i = 0..7 with rho' the post-pulse state.  For a
y readout on a diagonal state the real parts equal the population
differences p_i - p_(i+8), which is exactly the peak mapping used by
nmr.synthesize_spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nmr, qcore
from .errors import (
    DimensionMismatch,
    HhlsimError,
    InsufficientRecords,
    SubspaceMassTooSmall,
)
from .qcore import DensityMatrix, _freeze

_DIM = 16
_N_QUBITS = 4

_LETTER_MATRICES = {
    "E": np.eye(2, dtype=complex),
    "X": qcore.rotation_x(np.pi / 2.0),
    "Y": qcore.rotation_y(np.pi / 2.0),
}

FULL_CATALOG_NAMES = (
    "EEEE", "EXEE", "EYEE", "EEXE", "EXXE", "EYXE", "EEYE", "EXYE", "EYYE",
    "EEEX", "EXEX", "EYEX", "EEXX", "EXXX", "EYXX", "EEYX", "EXYX", "EYYX",
    "EEEY", "EXEY", "EYEY", "EEXY", "EXXY", "EYXY", "EEYY", "EXYY", "EYYY",
    "swap12*EEYY", "swap12*EEXY", "swap12*EEEY", "swap12*EEYX", "swap12*EEXX",
    "swap12*EEEX", "swap12*EEYE", "swap12*EEXE", "swap12*EEEE",
    "swap13*EEEY", "swap13*EEEX", "swap13*EEEE",
    "swap14*EEEE",
    "YEEE", "YEEE*swap12", "YEEE*swap13", "YEEE*swap14",
)

PARTIAL_CATALOG_NAMES = (
    "YEEE", "YEEE*swap12", "YEEE*swap13", "YEEE*swap14", "XEEE*swap13",
)


def _index_swap_permutation(i: int, j: int) -> list[int]:
    """Image of each basis index when qubits i and j (0-based) of 4 are exchanged."""
    perm = []
    for m in range(_DIM):
        bits = [(m >> (3 - k)) & 1 for k in range(4)]
        bits[i], bits[j] = bits[j], bits[i]
        perm.append(sum(b << (3 - k) for k, b in enumerate(bits)))
    return perm


def _swap_permutation(i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging qubits i and j (0-based) on 4 qubits."""
    perm = np.zeros((_DIM, _DIM), dtype=complex)
    perm[_index_swap_permutation(i, j), np.arange(_DIM)] = 1.0
    return perm


def _segment_matrix(segment: str) -> np.ndarray:
    seg = segment.strip()
    low = seg.lower()
    if low.startswith("swap"):
        digits = low[4:]
        if len(digits) != 2 or not digits.isdigit():
            raise ValueError(f"malformed swap segment {segment!r}")
        i, j = int(digits[0]) - 1, int(digits[1]) - 1
        if not (0 <= i < 4 and 0 <= j < 4 and i != j):
            raise ValueError(f"swap segment {segment!r} outside qubits 1..4")
        return _swap_permutation(i, j)
    if len(seg) != 4 or any(ch.upper() not in _LETTER_MATRICES for ch in seg):
        raise ValueError(f"malformed pulse segment {segment!r}")
    m = np.array([[1.0]], dtype=complex)
    for ch in seg.upper():
        m = np.kron(m, _LETTER_MATRICES[ch])
    return m


@dataclass(frozen=True, eq=False)
class ReadoutPulse:
    """A named readout sequence and its realized 16x16 operator."""

    name: str
    operator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operator", _freeze(qcore.require_unitary(self.operator)))


def parse_pulse(name: str) -> ReadoutPulse:
    op = np.eye(_DIM, dtype=complex)
    for segment in name.split("*"):
        op = op @ _segment_matrix(segment)
    return ReadoutPulse(name=name, operator=op)


@lru_cache(maxsize=None)
def pulse_catalog(kind: str) -> tuple[ReadoutPulse, ...]:
    """The two readout sets: ``partial`` has 5 pulses, ``full`` 44 (parsed once)."""
    if kind == "partial":
        names = PARTIAL_CATALOG_NAMES
    elif kind == "full":
        names = FULL_CATALOG_NAMES
    else:
        raise ValueError(f"catalog kind must be 'full' or 'partial', got {kind!r}")
    return tuple(parse_pulse(n) for n in names)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Observables collected after one readout pulse.

    ``populations`` is the post-pulse diagonal (sums to one);
    ``peak_amplitudes`` holds the eight complex carbon line amplitudes
    2<i|rho'|i+8>, indexed by the fluorine bit pattern i.
    """

    pulse: str
    populations: np.ndarray
    peak_amplitudes: np.ndarray

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        peaks = np.asarray(self.peak_amplitudes, dtype=complex)
        if pops.shape != (_DIM,) or peaks.shape != (8,):
            raise DimensionMismatch("record needs 16 populations and 8 peak amplitudes")
        if abs(pops.sum() - 1.0) > qcore.ATOL_STRUCTURAL:
            raise ValueError(f"populations sum to {pops.sum()!r}, not 1")
        object.__setattr__(self, "populations", _freeze(pops))
        object.__setattr__(self, "peak_amplitudes", _freeze(peaks))


def _fit_peak_values(values: np.ndarray, molecule: nmr.MoleculeParams) -> np.ndarray:
    """Round-trip real peak values through a rendered spectrum and a Lorentzian fit."""
    centers = nmr.carbon_peak_positions(molecule)
    width = molecule.linewidth
    freqs = np.linspace(centers.min() - 20.0 * width, centers.max() + 20.0 * width, 4096)
    signal = np.zeros_like(freqs)
    for c, v in zip(centers, values):
        signal += nmr.lorentzian(freqs, c, v, width)
    initial = np.empty(24)
    initial[0::3] = centers
    initial[1::3] = [signal[np.argmin(np.abs(freqs - c))] for c in centers]
    initial[2::3] = width
    fitted = nmr.lorentzian_fit(np.column_stack([freqs, signal]), 8, initial=initial)
    out = np.empty(8)
    for k, c in enumerate(centers):
        nearest = min(fitted, key=lambda p: abs(p.center - c))
        out[k] = nearest.intensity
    return out


def simulate_readout(
    rho: DensityMatrix,
    pulses,
    *,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
    fit_via_spectrum: bool = False,
    molecule: nmr.MoleculeParams | None = None,
) -> list[MeasurementRecord]:
    """Apply each pulse and collect its record.

    ``noise_sigma`` adds seeded Gaussian noise to the peak amplitudes (the
    physically detected quantities; populations stay exact diagnostics).
    ``fit_via_spectrum`` renders each record's line amplitudes as
    Lorentzian spectra and recovers them with nmr.lorentzian_fit,
    exercising the full measurement chain.
    """
    if rho.n_qubits != _N_QUBITS:
        raise DimensionMismatch("readout simulation expects a 4-qubit state")
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma {noise_sigma} must be non-negative")
    if noise_sigma > 0.0 and rng is None:
        raise ValueError("noisy readout needs an explicit seeded generator")
    if fit_via_spectrum and molecule is None:
        molecule = nmr.MoleculeParams()
    records = []
    for pulse in pulses:
        u = pulse.operator
        rho_p = u @ rho.matrix @ u.conj().T
        pops = np.real(np.diag(rho_p)).copy()
        peaks = np.array([2.0 * rho_p[i, i + 8] for i in range(8)])
        if fit_via_spectrum:
            peaks = _fit_peak_values(np.real(peaks), molecule) + 1j * _fit_peak_values(np.imag(peaks), molecule)
        if noise_sigma > 0.0:
            peaks = peaks + rng.normal(0.0, noise_sigma, 8) + 1j * rng.normal(0.0, noise_sigma, 8)
        records.append(MeasurementRecord(pulse=pulse.name, populations=pops, peak_amplitudes=peaks))
    return records


# ---------------------------------------------------------------------------
# Linear-inversion reconstruction

# Real parametrization of a Hermitian rho: 16 diagonal entries, then the
# real and imaginary parts of the 120 upper-triangle entries.
_UPPER = [(i, j) for i in range(_DIM) for j in range(i + 1, _DIM)]
_N_PARAMS = _DIM + 2 * len(_UPPER)


def _observable_row(o: np.ndarray) -> np.ndarray:
    row = np.empty(_N_PARAMS)
    row[:_DIM] = np.real(np.diag(o))
    for k, (i, j) in enumerate(_UPPER):
        row[_DIM + k] = 2.0 * np.real(o[j, i])
        row[_DIM + len(_UPPER) + k] = -2.0 * np.imag(o[j, i])
    return row


def _params_to_matrix(x: np.ndarray) -> np.ndarray:
    m = np.zeros((_DIM, _DIM), dtype=complex)
    m[np.diag_indices(_DIM)] = x[:_DIM]
    for k, (i, j) in enumerate(_UPPER):
        val = x[_DIM + k] + 1j * x[_DIM + len(_UPPER) + k]
        m[i, j] = val
        m[j, i] = val.conjugate()
    return m


@lru_cache(maxsize=None)
def _full_design() -> tuple[np.ndarray, np.ndarray]:
    """Design matrix mapping rho parameters to the full catalog's observables.

    Rows: (Re, Im) of each peak amplitude for each pulse, plus the trace.
    Informational completeness is asserted here once per process.
    """
    rows = []
    for pulse in pulse_catalog("full"):
        u = pulse.operator
        for i in range(8):
            e = np.outer(u.conj()[i + 8, :], u[i, :])
            rows.append(_observable_row(e + e.conj().T))
            rows.append(_observable_row(-1j * (e - e.conj().T)))
    trace_row = np.zeros(_N_PARAMS)
    trace_row[:_DIM] = 1.0
    rows.append(trace_row)
    design = np.array(rows)
    rank = np.linalg.matrix_rank(design, tol=1e-8)
    if rank != _N_PARAMS:
        raise HhlsimError(f"full readout catalog is not informationally complete (rank {rank})")
    return design, np.linalg.pinv(design)


def reconstruct_density(records) -> DensityMatrix:
    """Least-squares inversion of a complete full-catalog record set.

    The raw estimate is projected to the nearest valid state: eigenvalues
    clipped at zero and the trace renormalized.
    """
    by_name = {rec.pulse: rec for rec in records}
    missing = [n for n in FULL_CATALOG_NAMES if n not in by_name]
    if missing:
        raise InsufficientRecords(f"missing {len(missing)} pulses, e.g. {missing[:3]}")
    observations = []
    for name in FULL_CATALOG_NAMES:
        peaks = by_name[name].peak_amplitudes
        for i in range(8):
            observations.append(float(np.real(peaks[i])))
            observations.append(float(np.imag(peaks[i])))
    observations.append(1.0)
    _, pinv = _full_design()
    params = pinv @ np.asarray(observations)
    raw = _params_to_matrix(params)
    w, v = np.linalg.eigh(raw)
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        raise HhlsimError("reconstruction produced an all-zero state")
    projected = (v * (w / w.sum())) @ v.conj().T
    return DensityMatrix(projected)


def records_to_json(records) -> dict:
    """Records keyed by pulse name, the layout of ``records.json``."""
    out = {}
    for rec in records:
        out[rec.pulse] = {
            "populations": [float(x) for x in rec.populations],
            "peaks_re": [float(x) for x in np.real(rec.peak_amplitudes)],
            "peaks_im": [float(x) for x in np.imag(rec.peak_amplitudes)],
        }
    return out


# ---------------------------------------------------------------------------
# Partial (solution-subspace) extraction


@dataclass(frozen=True)
class PartialSolution:
    """Solution-subspace data recovered from the 5-pulse catalog.

    ``c_sq`` and ``d_sq`` are the populations of the two solution basis
    states (|0001> and |0011>), ``phase_sign`` the sign of Re(c * conj(d)).
    """

    c_sq: float
    d_sq: float
    phase_sign: int
    populations: np.ndarray

    @property
    def ratio(self) -> float:
        """|c/d|^2; undefined when the d branch carries no mass."""
        if self.d_sq < 1e-10:
            raise SubspaceMassTooSmall(f"|d|^2 = {self.d_sq:.3e} too small for a ratio")
        return self.c_sq / self.d_sq


@lru_cache(maxsize=None)
def _partial_design() -> tuple[np.ndarray, np.ndarray]:
    """Map the 16 populations to the four y-readout records' real peak values.

    Each record constrains population differences along one hypercube
    direction; with the trace they pin the full diagonal (rank asserted).
    """
    swaps = {"YEEE": None, "YEEE*swap12": (0, 1), "YEEE*swap13": (0, 2), "YEEE*swap14": (0, 3)}
    rows = []
    for name in PARTIAL_CATALOG_NAMES[:4]:
        perm = list(range(_DIM)) if swaps[name] is None else _index_swap_permutation(*swaps[name])
        for i in range(8):
            row = np.zeros(_DIM)
            row[perm[i]] += 1.0
            row[perm[i + 8]] -= 1.0
            rows.append(row)
    trace_row = np.ones(_DIM)
    rows.append(trace_row)
    design = np.array(rows)
    rank = np.linalg.matrix_rank(design, tol=1e-10)
    if rank != _DIM:
        raise HhlsimError(f"partial catalog does not determine the populations (rank {rank})")
    return design, np.linalg.pinv(design)


def extract_solution_partial(records) -> PartialSolution:
    """Recover |c|^2, |d|^2 and the relative-phase sign from partial records.

    The four y pulses fix the diagonal by least squares; the fifth pulse's
    line 1 reads 2*Re(rho_13), whose sign is the relative phase of the two
    solution components (0 or pi for real systems).
    """
    by_name = {rec.pulse: rec for rec in records}
    missing = [n for n in PARTIAL_CATALOG_NAMES if n not in by_name]
    if missing:
        raise InsufficientRecords(f"missing pulses {missing}")
    observations = []
    for name in PARTIAL_CATALOG_NAMES[:4]:
        observations.extend(np.real(by_name[name].peak_amplitudes))
    observations.append(1.0)
    _, pinv = _partial_design()
    pops = pinv @ np.asarray(observations)
    pops = np.clip(pops, 0.0, None)
    c_sq, d_sq = float(pops[1]), float(pops[3])
    if c_sq + d_sq < 1e-10:
        raise SubspaceMassTooSmall(f"solution subspace mass {c_sq + d_sq:.3e} below 1e-10")
    coherence = float(np.real(by_name["XEEE*swap13"].peak_amplitudes[1])) / 2.0
    if abs(coherence) < 1e-12:
        sign = 0
    else:
        sign = 1 if coherence > 0 else -1
    return PartialSolution(c_sq=c_sq, d_sq=d_sq, phase_sign=sign, populations=pops)
