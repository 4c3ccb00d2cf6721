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

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import nmr, qcore
from .errors import DimensionMismatch, HhlsimError, InconsistentRecords, InsufficientRecords, ZeroProbabilityBranch
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

# The solution basis states |0001> and |0011>: clock 00, b = 0 or 1, ancilla 1.
SOLUTION_STATES = (0b0001, 0b0011)


def _swap_permutation(i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging qubits i and j (0-based) on 4 qubits."""
    ident = np.eye(_DIM, dtype=complex).reshape((2,) * (2 * _N_QUBITS))
    return np.swapaxes(ident, i, j).reshape(_DIM, _DIM)


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
    """A named readout sequence and the 16x16 operator its name spells (see ``_segment_matrix``)."""

    name: str
    operator: np.ndarray = field(init=False)

    def __post_init__(self):
        op = np.eye(_DIM, dtype=complex)
        for segment in self.name.split("*"):
            op = op @ _segment_matrix(segment)
        object.__setattr__(self, "operator", _freeze(op))


@lru_cache(maxsize=None)
def pulse_catalog(kind: str) -> tuple[ReadoutPulse, ...]:
    """The two readout sets: ``partial`` has 5 pulses, ``full`` 44 (parsed once)."""
    if kind == "partial":
        names = PARTIAL_CATALOG_NAMES
    elif kind == "full":
        names = FULL_CATALOG_NAMES
    else:
        raise ValueError(f"catalog kind must be 'full' or 'partial', got {kind!r}")
    return tuple(ReadoutPulse(n) for n in names)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Observables collected after one readout pulse.

    ``populations`` is the post-pulse diagonal (sums to one);
    ``peak_amplitudes`` holds the eight complex carbon line amplitudes
    2<i|rho'|i+8>, indexed by the fluorine bit pattern i.  The constructor
    is the boundary for records from outside the program: values must be
    finite and populations non-negative to ``ATOL_STRUCTURAL``.  The records
    ``simulate_readout`` makes run no check (``qcore._derived``).
    """

    pulse: str
    populations: np.ndarray
    peak_amplitudes: np.ndarray

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        peaks = np.asarray(self.peak_amplitudes, dtype=complex)
        if pops.shape != (_DIM,) or peaks.shape != (8,):
            raise DimensionMismatch("record needs 16 populations and 8 peak amplitudes")
        if not (np.all(np.isfinite(pops)) and np.all(np.isfinite(peaks))):
            raise ValueError("record populations and peak amplitudes must be finite")
        if pops.min() < -qcore.ATOL_STRUCTURAL:
            raise ValueError(f"population {pops.min()!r} is negative")
        if abs(pops.sum() - 1.0) > qcore.ATOL_STRUCTURAL:
            raise ValueError(f"populations sum to {pops.sum()!r}, not 1")
        object.__setattr__(self, "populations", _freeze(pops))
        object.__setattr__(self, "peak_amplitudes", _freeze(peaks))


@lru_cache(maxsize=None)
def _line_transfer() -> np.ndarray:
    """The read-only 8x8 line transfer ``pinv @ shapes`` (render, then fit) of
    ``nmr.DEFAULT_MOLECULE``'s line table.

    Column j of ``shapes`` is carbon line j at unit intensity, sampled on a
    4096-point grid spanning the line centres with 20 linewidths to spare;
    ``pinv`` is their pseudo-inverse (``nmr._line_pinv``, condition number
    1.01 here).  Factored once per process.
    """
    centers = nmr.carbon_peak_positions(nmr.DEFAULT_MOLECULE)
    width = nmr.DEFAULT_MOLECULE.linewidth
    freqs = np.linspace(centers.min() - 20.0 * width, centers.max() + 20.0 * width, 4096)
    shapes = nmr.lorentzian(freqs[:, None], centers, 1.0, width)
    return _freeze(nmr._line_pinv(shapes) @ shapes)


def _fit_lines(lines: np.ndarray) -> np.ndarray:
    """Round-trip (n, 8) complex line amplitudes through rendered spectra.

    Rendering the real and imaginary line sets V of all n records as
    ``shapes @ V`` and fitting their intensities back with the shapes'
    pseudo-inverse is linear, so it is one product with the cached
    ``_line_transfer``; no spectrum is rendered.  An all-zero set comes back
    as +0.0, never -0.0, so fitted records hold no negative zeros.
    """
    n = len(lines)
    fitted = (_line_transfer() @ np.concatenate([lines.real, lines.imag]).T).T + 0.0
    return fitted[:n] + 1j * fitted[n:]


def simulate_readout(
    rho: DensityMatrix,
    pulses,
    *,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
    fit_via_spectrum: bool = False,
) -> list[MeasurementRecord]:
    """Apply every pulse as one batched ``u @ rho @ u^dagger`` and collect the records.

    ``noise_sigma`` adds seeded Gaussian noise to the peak amplitudes (the
    physically detected quantities; populations stay exact diagnostics),
    drawn per pulse in the order given, real parts then imaginary parts.
    ``fit_via_spectrum`` renders every record's line amplitudes as carbon
    spectra of ``nmr.DEFAULT_MOLECULE`` and fits the line intensities back
    (``_fit_lines``).  That round trip is an identity to rounding (within
    3e-15 on the shipped configs' states) and the readout noise is added
    after it, so no CLI command uses it; it stays for the benchmark's
    ``readout_fit`` workload.  The records are derived from the checked
    state by unitary pulses, so none runs ``MeasurementRecord``'s checks
    (``qcore._derived``); their arrays are read-only rows of two blocks
    frozen once per call.
    """
    if rho.n_qubits != _N_QUBITS:
        raise DimensionMismatch("readout simulation expects a 4-qubit state")
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma {noise_sigma} must be non-negative and finite")
    if noise_sigma > 0.0 and rng is None:
        raise ValueError("noisy readout needs an explicit seeded generator")
    pulses = tuple(pulses)
    ops = np.array([p.operator for p in pulses], dtype=complex).reshape(-1, _DIM, _DIM)
    rho_p = ops @ rho.matrix @ ops.conj().transpose(0, 2, 1)
    pops = _freeze(np.real(np.diagonal(rho_p, axis1=1, axis2=2)))
    lines = 2.0 * np.diagonal(rho_p, 8, axis1=1, axis2=2)
    if fit_via_spectrum:
        lines = _fit_lines(lines)
    if noise_sigma > 0.0:
        noise = rng.normal(0.0, noise_sigma, (len(pulses), 2, 8))
        lines = lines + noise[:, 0] + 1j * noise[:, 1]
    lines = _freeze(lines)
    return [qcore._derived(MeasurementRecord, pulse.name, p, peaks) for pulse, p, peaks in zip(pulses, pops, lines)]


# ---------------------------------------------------------------------------
# Linear-inversion reconstruction


def _line_functionals(u: np.ndarray) -> np.ndarray:
    """What each carbon line reads after pulse ``u``: the (8, 16, 16) array L with
    2<i| u rho u^dagger |i+8> = sum_ab L[i, a, b] rho[a, b]."""
    return 2.0 * u[:8, :, None] * u[8:, None, :].conj()


def _in_catalog_order(records, names) -> list[MeasurementRecord]:
    by_name = {rec.pulse: rec for rec in records}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise InsufficientRecords(f"missing {len(missing)} pulses, e.g. {missing[:3]}")
    return [by_name[n] for n in names]


# Real parametrization of a Hermitian rho: 16 diagonal entries, then the
# real and imaginary parts of the 120 upper-triangle entries (row-major).
_ROW, _COL = np.triu_indices(_DIM, 1)
_N_PARAMS = _DIM * _DIM


def _params_to_matrix(x: np.ndarray) -> np.ndarray:
    m = np.diag(x[:_DIM]).astype(complex)
    upper = x[_DIM : _DIM + _ROW.size] + 1j * x[_DIM + _ROW.size :]
    m[_ROW, _COL] = upper
    m[_COL, _ROW] = upper.conj()
    return m


def _design_inverse(design: np.ndarray, what: str) -> np.ndarray:
    """Read-only least-squares inverse (D^T D)^-1 D^T of a design D.

    One ``eigh`` of the Gram matrix G = D^T D gives both the rank gate and
    the inverse.  The rule is relative, as G's eigenvalues carry rounding of
    about eps * |G|: D must have condition number below 1e4 (G's smallest
    eigenvalue above 1e-8 of its largest), else HhlsimError reports ``what``.
    """
    w, v = np.linalg.eigh(design.T @ design)
    if not w[0] > 1e-8 * w[-1]:
        kappa = np.sqrt(w[-1] / w[0]) if w[0] > 0.0 else np.inf
        raise HhlsimError(f"{what}: design condition number {kappa:.3g}, not below 1e4")
    return _freeze((v / w) @ (v.T @ design.T))


def _full_design() -> np.ndarray:
    """The (705, 256) design mapping rho parameters to the full catalog's observables.

    Rows: (Re, Im) of each line amplitude for each pulse, plus the trace.
    """
    pulses = pulse_catalog("full")
    design = np.zeros((16 * len(pulses) + 1, _N_PARAMS))
    for k, pulse in enumerate(pulses):
        f = _line_functionals(pulse.operator)
        upper, lower = f[:, _ROW, _COL], f[:, _COL, _ROW]
        diag = np.diagonal(f, axis1=1, axis2=2)
        coeff = np.concatenate([diag, upper + lower, 1j * (upper - lower)], axis=1)
        design[16 * k : 16 * (k + 1) : 2] = coeff.real
        design[16 * k + 1 : 16 * (k + 1) : 2] = coeff.imag
    design[-1, :_DIM] = 1.0
    return design


@lru_cache(maxsize=None)
def _full_pinv() -> np.ndarray:
    """Inverse of ``_full_design``, factored on first use from its 256x256 Gram
    matrix; the design's condition number, 7.48 (Gram 56), is far below the
    rank rule's 1e4, so the catalog is informationally complete."""
    return _design_inverse(_full_design(), "full readout catalog is not informationally complete")


def reconstruct_density(records) -> DensityMatrix:
    """Least-squares inversion of a complete full-catalog record set.

    The raw estimate is projected to the nearest valid state: eigenvalues
    clipped at zero and the trace renormalized.  The projection is a density
    by construction, so it runs no check (``qcore._derived``); the records
    are the input boundary.
    """
    peaks = np.array([rec.peak_amplitudes for rec in _in_catalog_order(records, FULL_CATALOG_NAMES)])
    observations = np.append(np.stack([peaks.real, peaks.imag], axis=-1).ravel(), 1.0)
    raw = _params_to_matrix(_full_pinv() @ observations)
    w, v = np.linalg.eigh(raw)
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        raise HhlsimError("reconstruction produced an all-zero state")
    projected = (v * (w / w.sum())) @ v.conj().T
    return qcore._derived(DensityMatrix, _freeze(projected))


# In the layout json.dumps writes with null for every number, each number's
# line starts with its indent and null; every other line starts with a quoted
# key or a bracket, so no pulse name can match.
_NUMBER_LINE = re.compile(r"^( +)null", re.MULTILINE)


@lru_cache(maxsize=2)
def _records_layout(names: tuple[str, ...]) -> str:
    """The ``records.json`` text of records with the sorted pulse ``names``, a
    ``%r`` slot for each number: per name, peaks_im, peaks_re, then populations."""
    fields = {"peaks_im": [None] * 8, "peaks_re": [None] * 8, "populations": [None] * _DIM}
    text = json.dumps(dict.fromkeys(names, fields), sort_keys=True, indent=2).replace("%", "%%")
    return _NUMBER_LINE.sub(r"\1%r", text) + "\n"


def records_json(records) -> str:
    """The ``records.json`` text: records keyed by pulse name (a later record
    replaces an earlier one of the same name), keys sorted, two-space indent,
    numbers as ``repr``.  Laid out once per catalog by ``_records_layout``."""
    by_name = {rec.pulse: rec for rec in records}
    names = tuple(sorted(by_name))
    peaks = np.array([by_name[n].peak_amplitudes for n in names]).reshape(-1, 8)
    pops = np.array([by_name[n].populations for n in names]).reshape(-1, _DIM)
    values = np.concatenate([peaks.imag, peaks.real, pops], axis=1)
    if not np.all(np.isfinite(values)):
        raise ValueError("Out of range float values are not JSON compliant")
    return _records_layout(names) % tuple(values.ravel().tolist())


# ---------------------------------------------------------------------------
# Partial (solution-subspace) extraction


@dataclass(frozen=True)
class PartialSolution:
    """Solution-subspace data recovered from the 5-pulse catalog.

    ``c_sq`` and ``d_sq`` are the populations of the two solution basis
    states (``SOLUTION_STATES``), ``phase_sign`` the sign of Re(c * conj(d)).
    """

    c_sq: float
    d_sq: float
    phase_sign: int
    populations: np.ndarray

    @property
    def ratio(self) -> float | None:
        """|c/d|^2; None when the d branch carries no mass (``qcore.mass_ratio``)."""
        return qcore.mass_ratio(self.c_sq, self.d_sq)


def _partial_design() -> np.ndarray:
    """The (33, 16) design mapping the 16 populations to the four y-readout
    records' real line values, plus the trace.

    Each record constrains population differences along one hypercube
    direction; with the trace they pin the full diagonal.
    """
    lines = [_line_functionals(p.operator) for p in pulse_catalog("partial")[:4]]
    return np.vstack([np.real(np.diagonal(f, axis1=1, axis2=2)) for f in lines] + [np.ones(_DIM)])


# How far the clipped populations of partial records may stray from a state's:
# their sum from 1 and each from [0, 1].  Unclipped they sum to 1 exactly, so
# the excess is the negative mass the clip removed.  Over 5,800 readouts at
# each line noise sigma of 0.01, 0.05 and 0.1 (16 basis states and 13 mixed or
# solver states, 200 seeds each) the largest excess is 5.4 sigma, and no
# population exceeds 1 by more than 1.8 sigma, so sigma up to 0.09 passes.
POPULATION_ATOL = 0.5


@lru_cache(maxsize=None)
def _partial_pinv() -> np.ndarray:
    """Inverse of ``_partial_design``, factored on first use from its 16x16 Gram
    matrix; the design's condition number, 2.83 (Gram 8), is far below the
    rank rule's 1e4, so the records determine the populations."""
    return _design_inverse(_partial_design(), "partial catalog does not determine the populations")


def extract_solution_partial(records) -> PartialSolution:
    """Recover |c|^2, |d|^2 and the relative-phase sign from partial records.

    The four y pulses fix the diagonal by least squares; the fifth pulse's
    line 1 reads 2*Re(rho_13), whose sign is the relative phase of the two
    solution components (0 or pi for real systems).  Raises
    InconsistentRecords when the clipped populations stray from a state's by
    more than ``POPULATION_ATOL``, and ZeroProbabilityBranch when the two
    solution populations sum to at most ``qcore.MIN_BRANCH_PROBABILITY``,
    the post-selection's own threshold.
    """
    ordered = _in_catalog_order(records, PARTIAL_CATALOG_NAMES)
    observations = np.append(np.real([rec.peak_amplitudes for rec in ordered[:4]]).ravel(), 1.0)
    # lines near the float limit overflow to inf or NaN here, which the check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        pops = np.clip(_partial_pinv() @ observations, 0.0, None)
        total, top = float(pops.sum()), float(pops.max())
    if not (abs(total - 1.0) <= POPULATION_ATOL and top <= 1.0 + POPULATION_ATOL):
        raise InconsistentRecords(
            f"recovered populations sum to {total:.3g}, the largest {top:.3g}: no state reads so, "
            f"within {POPULATION_ATOL:g} for readout noise"
        )
    c_sq, d_sq = (float(pops[k]) for k in SOLUTION_STATES)
    if c_sq + d_sq <= qcore.MIN_BRANCH_PROBABILITY:
        raise ZeroProbabilityBranch(f"solution subspace mass {c_sq + d_sq:.3e} below {qcore.MIN_BRANCH_PROBABILITY:g}")
    coherence = float(np.real(ordered[4].peak_amplitudes[1])) / 2.0
    if abs(coherence) < 1e-12:
        sign = 0
    else:
        sign = 1 if coherence > 0 else -1
    return PartialSolution(c_sq=c_sq, d_sq=d_sq, phase_sign=sign, populations=pops)
