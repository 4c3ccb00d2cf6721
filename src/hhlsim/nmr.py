"""Experimental-layer models: pseudo-pure states, chemical-shift drift,
carbon spectrum synthesis and the linear fit of carbon line intensities.

The four-spin register is carbon plus three fluorines, mapped to qubits
0..3 in that order.  Carbon detection resolves eight lines, one per state
of the fluorine spins; the intensity of line j equals the population
difference p_j - p_(j+8) between the carbon-down and carbon-up halves of
the register (the pi/2 carbon readout pulse is implicit in the mapping).
The J couplings fix the line centres, so a fit of the spectrum solves
only for the intensities, which are linear in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import DimensionMismatch, OutOfCalibrationRange, UnresolvedLines
from .qcore import DensityMatrix, _freeze

NUCLEI = ("C", "F1", "F2", "F3")

# Fluorine shift drift lines fitted at 303.0 K (Hz, Hz/K); carbon barely
# drifts and is pinned to the channel's transmitter offset.
_SHIFT_ANCHORS = {"C": 15479.7, "F1": -33122.4, "F2": -42677.7, "F3": -56445.8}
_DRIFT_SLOPES = {"C": 0.0, "F1": -3.0, "F2": -1.3, "F3": 1.6}
_CALIBRATION_WINDOW = (293.0, 313.0)

# Placeholder coupling table (Hz): the measured values are not available, so these
# are configuration defaults chosen to reproduce the printed left-to-right
# carbon peak order; only the first row (C-F couplings) positions the
# carbon lines.
_DEFAULT_J = np.array(
    [
        [0.0, 128.0, 48.0, -12.0],
        [128.0, 0.0, 69.0, 47.0],
        [48.0, 69.0, 0.0, -128.0],
        [-12.0, 47.0, -128.0, 0.0],
    ]
)

# 50 ms experiment at 10% of the coherence time puts T2* at 500 ms.
_DEFAULT_T2_STAR_MS = (500.0, 500.0, 500.0, 500.0)


@dataclass(frozen=True, eq=False)
class MoleculeParams:
    """Spin-system parameters of the four-qubit register.

    ``carbon_shift`` is the carbon line centre (Hz) the J splittings sit
    around, T2* is in milliseconds per qubit, J couplings a real symmetric
    Hz table over (C, F1, F2, F3).
    """

    carbon_shift: float = _SHIFT_ANCHORS["C"]
    t2_star_ms: tuple = _DEFAULT_T2_STAR_MS
    j_couplings: np.ndarray = None
    linewidth: float = 1.0

    def __post_init__(self):
        j = _DEFAULT_J if self.j_couplings is None else np.asarray(self.j_couplings)
        if not np.all(np.isfinite(j)):
            raise ValueError("J table entries must be finite")
        # compared, not subtracted: j - j.T overflows for entries of opposite sign near the float range
        if j.shape != (4, 4) or np.any(j != j.T):
            raise DimensionMismatch("J table must be a symmetric 4x4 matrix")
        if np.any(np.imag(j) != 0.0):
            raise ValueError("J table entries must be real")
        t2 = tuple(float(x) for x in self.t2_star_ms)
        if len(t2) != 4 or not all(np.isfinite(x) and x > 0.0 for x in t2):
            raise ValueError("need four positive, finite T2* values")
        if not np.isfinite(self.carbon_shift):
            raise ValueError("carbon shift must be finite")
        if not (np.isfinite(self.linewidth) and self.linewidth > 0.0):
            raise ValueError("linewidth must be positive and finite")
        # lines span sum |J_CF| and are drawn 20 linewidths beyond; lorentzian squares distances in that window
        window = sum(float(abs(x)) for x in j[0, 1:]) + 40.0 * float(self.linewidth)
        if not np.isfinite(window * window):
            raise ValueError(f"carbon spectrum window of {window:.3g} Hz overflows when squared")
        object.__setattr__(self, "j_couplings", _freeze(np.real(j).astype(float)))
        object.__setattr__(self, "t2_star_ms", t2)


# The default register, built and checked once; frozen with read-only arrays,
# so every caller shares it.
DEFAULT_MOLECULE = MoleculeParams()


def pps_state(epsilon: float) -> DensityMatrix:
    """Pseudo-pure state (1 - eps)/16 * I + eps |0000><0000|."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("polarization must lie in [0, 1]")
    m = np.eye(16, dtype=complex) * (1.0 - epsilon) / 16.0
    m[0, 0] += epsilon
    return DensityMatrix(m)


def chemical_shift(nucleus: str, temperature: float) -> float:
    """Fluorine chemical shift (Hz) at the given temperature (K).

    Linear drift around the 303.0 K anchors; only valid inside the
    calibration window 293..313 K.
    """
    if nucleus not in ("F1", "F2", "F3"):
        raise ValueError(f"drift formulas exist for F1, F2, F3; got {nucleus!r}")
    lo, hi = _CALIBRATION_WINDOW
    if not lo <= temperature <= hi:
        raise OutOfCalibrationRange(f"temperature {temperature} K outside [{lo}, {hi}]")
    return _SHIFT_ANCHORS[nucleus] + _DRIFT_SLOPES[nucleus] * (temperature - 303.0)


@dataclass(frozen=True)
class Peak:
    center: float
    intensity: float
    width: float
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.intensity)):
            raise ValueError("peak center and intensity must be finite")
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise ValueError("peak width must be positive and finite")


@dataclass(frozen=True, eq=False)
class CarbonSpectrum:
    """Carbon-channel line list; peaks are sorted by center frequency."""

    peaks: tuple

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(sorted(self.peaks, key=lambda p: p.center)))

    def sample(self, freqs) -> np.ndarray:
        f = np.asarray(freqs, dtype=float)
        total = np.zeros_like(f)
        for p in self.peaks:
            total += lorentzian(f, p.center, p.intensity, p.width)
        return total

    def intensity_by_label(self) -> dict:
        return {p.label: p.intensity for p in self.peaks}


def lorentzian(freqs, center: float, intensity: float, width: float) -> np.ndarray:
    """Lorentzian line of peak height ``intensity`` and FWHM ``width``."""
    f = np.asarray(freqs, dtype=float)
    half = width / 2.0
    return intensity * half**2 / ((f - center) ** 2 + half**2)


def carbon_peak_positions(params: MoleculeParams) -> np.ndarray:
    """Center frequency of carbon line j (j indexes the fluorine bits q2 q3 q4)."""
    base = params.carbon_shift
    j_row = params.j_couplings[0, 1:]
    centers = np.empty(8)
    for j in range(8):
        bits = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
        centers[j] = base + sum(j_row[k] * (bits[k] - 0.5) for k in range(3))
    return centers


def synthesize_spectrum(rho: DensityMatrix, params: MoleculeParams | None = None) -> CarbonSpectrum:
    """Carbon spectrum of a four-qubit state.

    Line j carries intensity p_j - p_(j+8); the four lines with the second
    qubit down are the ones displaying the solver output, the rest vanish
    for ideal final states.  Positions come from the configured C-F
    couplings, widths from the configured linewidth.  The peaks come from a
    checked state, so they run no check (``qcore._derived``).
    """
    if params is None:
        params = DEFAULT_MOLECULE
    if rho.n_qubits != 4:
        raise DimensionMismatch("carbon spectrum synthesis expects a 4-qubit state")
    pops = rho.populations()
    centers = carbon_peak_positions(params)
    peaks = [
        qcore._derived(Peak, float(centers[j]), float(pops[j] - pops[j + 8]), params.linewidth, f"p{j}-p{j + 8}")
        for j in range(8)
    ]
    return CarbonSpectrum(tuple(peaks))


_MAX_CONDITION = 1e-9 / np.finfo(float).eps  # see _line_pinv


def _line_pinv(shapes: np.ndarray) -> np.ndarray:
    """SVD pseudo-inverse of unit line shapes, one column per line.

    The shapes' condition number kappa is the only criterion: above
    ``_MAX_CONDITION`` (1e-9 / eps, about 4.5e6) raises UnresolvedLines.
    Coinciding lines have equal columns and kappa of 1e16 and above, while
    lines far closer than the sample spacing pass when their shapes stay
    distinct.  The product moves a fitted intensity by at most about
    kappa * eps * max|V| (eps the unit roundoff, V the intensities), so the
    bound holds every line within 1e-9 of max|V|; readout lines have
    |V| <= 1, since 2|rho[i, i+8]| <= p_i + p_(i+8).
    """
    u, s, vt = np.linalg.svd(shapes, full_matrices=False)
    if s[0] > _MAX_CONDITION * s[-1]:
        kappa = s[0] / s[-1] if s[-1] > 0.0 else np.inf  # equal columns can leave s[-1] exactly 0
        raise UnresolvedLines(
            f"carbon line shapes have condition number {kappa:.3g}, above the fit's {_MAX_CONDITION:.3g}"
        )
    return (vt.T / s) @ u.T


def lorentzian_fit(samples, centers, width: float) -> np.ndarray:
    """Least-squares intensities of Lorentzian lines at known centres and FWHM.

    ``samples`` is an (N, 2) array of (freq, amplitude); the intensities
    come back in the order of ``centers``.  With the centres and width
    fixed the spectrum is linear in the intensities, so the fit is one
    product with the pseudo-inverse of the unit line shapes
    (``_line_pinv``, which raises UnresolvedLines for lines the samples
    cannot tell apart).
    """
    data = np.asarray(samples, dtype=float)
    lines = np.asarray(centers, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DimensionMismatch("samples must be an (N, 2) array of (freq, amplitude)")
    if lines.ndim != 1 or lines.size == 0:
        raise DimensionMismatch("centers must be a non-empty 1-D array")
    if data.shape[0] < lines.size:
        raise DimensionMismatch(f"{data.shape[0]} samples cannot fit {lines.size} lines")
    if not np.all(np.isfinite(data)):
        raise ValueError("samples must be finite")
    if not np.all(np.isfinite(lines)):
        raise ValueError("centers must be finite")
    if not (np.isfinite(width) and width > 0.0):
        raise ValueError("width must be positive and finite")
    return _line_pinv(lorentzian(data[:, :1], lines, 1.0, width)) @ data[:, 1]
