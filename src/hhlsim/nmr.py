"""Experimental-layer models: pseudo-pure states, chemical-shift drift,
carbon spectrum synthesis and Lorentzian peak fitting.

The four-spin register is carbon plus three fluorines, mapped to qubits
0..3 in that order.  Carbon detection resolves eight lines, one per state
of the fluorine spins; the intensity of line j equals the population
difference p_j - p_(j+8) between the carbon-down and carbon-up halves of
the register (the pi/2 carbon readout pulse is implicit in the mapping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FitDiverged, OutOfCalibrationRange
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
        if j.shape != (4, 4) or np.max(np.abs(j - j.T)) > 0.0:
            raise DimensionMismatch("J table must be a symmetric 4x4 matrix")
        if not np.all(np.isfinite(j)):
            raise ValueError("J table entries must be finite")
        if np.any(np.imag(j) != 0.0):
            raise ValueError("J table entries must be real")
        t2 = tuple(float(x) for x in self.t2_star_ms)
        if len(t2) != 4 or not all(np.isfinite(x) and x > 0.0 for x in t2):
            raise ValueError("need four positive, finite T2* values")
        if not np.isfinite(self.carbon_shift):
            raise ValueError("carbon shift must be finite")
        if not (np.isfinite(self.linewidth) and self.linewidth > 0.0):
            raise ValueError("linewidth must be positive and finite")
        object.__setattr__(self, "j_couplings", _freeze(np.real(j).astype(float)))
        object.__setattr__(self, "t2_star_ms", t2)


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
        if not np.isfinite(self.center):
            raise ValueError("peak center must be finite")
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
    couplings, widths from the configured linewidth.
    """
    if params is None:
        params = MoleculeParams()
    if rho.n_qubits != 4:
        raise DimensionMismatch("carbon spectrum synthesis expects a 4-qubit state")
    pops = rho.populations()
    centers = carbon_peak_positions(params)
    peaks = [
        Peak(
            center=float(centers[j]),
            intensity=float(pops[j] - pops[j + 8]),
            width=params.linewidth,
            label=f"p{j}-p{j + 8}",
        )
        for j in range(8)
    ]
    return CarbonSpectrum(tuple(peaks))


# Budget of lorentzian_fit in residual evaluations.  MINPACK's lmder, which
# least_squares(method="lm") runs with the analytic Jacobian, makes about one
# evaluation per iteration, so this is also about 200 iterations.
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class FittedPeak:
    center: float
    intensity: float
    width: float


def _fit_residuals(params: np.ndarray, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    total = np.zeros_like(f)
    for c, h, w in params.reshape(-1, 3):
        total += lorentzian(f, c, h, w)
    return total - y


def _fit_jacobian(params: np.ndarray, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    jac = np.empty((f.size, params.size))
    for i, (c, h, w) in enumerate(params.reshape(-1, 3)):
        half = w / 2.0
        denom = (f - c) ** 2 + half**2
        jac[:, 3 * i] = h * half**2 * 2.0 * (f - c) / denom**2
        jac[:, 3 * i + 1] = half**2 / denom
        # dL/dw = dL/dhalf * 1/2; dL/dhalf = 2 h half (f-c)^2 / denom^2
        jac[:, 3 * i + 2] = h * half * (f - c) ** 2 / denom**2
    return jac


def lorentzian_fit(samples, n_peaks: int, *, initial) -> list[FittedPeak]:
    """Least-squares fit of a sum of Lorentzians to sampled (freq, amplitude) data.

    ``initial`` is the starting point, (center, intensity, width) per peak,
    and the fitted peaks come back in its order, not sorted by centre: a
    peak of zero intensity has no centre gradient and may drift past a
    neighbour.  The fit is damped least squares (Levenberg-Marquardt) with
    the analytic Jacobian; a start whose Lorentzian sum equals every sample
    exactly comes back unchanged.  Raises FitDiverged when the budget of
    ``_MAX_ITERATIONS`` residual evaluations runs out before the
    relative-change convergence threshold (1e-8) is met.
    """
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DimensionMismatch("samples must be an (N, 2) array of (freq, amplitude)")
    if not np.all(np.isfinite(data)):
        raise ValueError("samples must be finite")
    if n_peaks < 1:
        raise ValueError("n_peaks must be >= 1")
    f, y = data[:, 0], data[:, 1]
    if f.size < 3 * n_peaks:
        raise FitDiverged("fewer samples than fit parameters")
    x0 = np.asarray(initial, dtype=float).reshape(-1)
    if x0.size != 3 * n_peaks:
        raise DimensionMismatch(f"initial needs {3 * n_peaks} values for {n_peaks} peaks, got {x0.size}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial values must be finite")
    if np.any(x0[2::3] <= 0.0):
        raise ValueError("initial widths must be positive")
    # imported on first use: at module level it was most of `import hhlsim`'s time
    from scipy.optimize import least_squares

    result = least_squares(
        _fit_residuals,
        x0,
        jac=_fit_jacobian,
        args=(f, y),
        method="lm",
        ftol=1e-8,
        xtol=1e-8,
        max_nfev=_MAX_ITERATIONS,
    )
    if not result.success:
        raise FitDiverged(f"no convergence within the evaluation budget (status {result.status})")
    return [
        FittedPeak(center=float(c), intensity=float(h), width=float(abs(w)))
        for c, h, w in result.x.reshape(-1, 3)
    ]
