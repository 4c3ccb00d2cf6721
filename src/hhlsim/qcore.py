"""Complex dense linear algebra and quantum-state primitives.

Conventions used throughout the package:

* Basis states of an ``n``-qubit register are indexed with qubit 0 as the
  most significant bit, so index ``i`` spells the ket left to right:
  ``i = sum_k bit_k * 2**(n - 1 - k)``.  A printed four-qubit ket |abcd>
  is the amplitude at index ``8a + 4b + 2c + d``.
* All matrices and state vectors are complex128 numpy arrays.  Values are
  immutable after construction; arrays held by the dataclasses below are
  marked read-only.
* Inputs are checked where they enter the program: the public
  constructors run every check.  Values the engines derive from checked
  values (gates, states, densities, readout records, carbon peaks) are
  built by ``_derived``, which runs none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKeepSet,
    IndexOutOfRange,
    NotHermitian,
    NotUnitary,
)

# Structural checks (hermiticity, norms, traces) use this tolerance;
# round-trip numerical checks are allowed a looser 1e-9.
ATOL_STRUCTURAL = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and verify every entry is finite."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(a) -> np.ndarray:
    """Checked square and Hermitian relative to its scale, so that A and c*A share a verdict:
    max |A - A^dagger| <= ATOL_STRUCTURAL * max |A|, over real and imaginary parts."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {m.shape}")
    defect, tol = hermiticity_defect(m), ATOL_STRUCTURAL * max(np.max(np.abs(m.real)), np.max(np.abs(m.imag)))
    if defect > tol:
        raise NotHermitian(f"max |A - A^dagger| = {defect:.3e} > {ATOL_STRUCTURAL:.1e} * max |A| = {tol:.3e}")
    return m


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def require_unitary(u) -> np.ndarray:
    m = as_complex_matrix(u)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {m.shape}")
    defect = unitarity_defect(m)
    if defect > ATOL_STRUCTURAL:
        raise NotUnitary(f"max |U^dagger U - I| = {defect:.3e} > {ATOL_STRUCTURAL:.1e}")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _derived(cls, *values):
    """``cls(*values)`` for values derived from checked ones, field by field in
    declaration order: no ``__post_init__`` runs and nothing is copied, so
    callers pass arrays ``_freeze`` has already made read-only."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _qubit_count(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if 2**n != dim or dim < 2:
        raise DimensionMismatch(f"{what} dimension {dim} is not a power of two >= 2")
    return n


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  The constructor checks
    the shapes (n,) and (n, n), finite entries, the order and a unitarity
    defect of at most ``ATOL_STRUCTURAL``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=complex)
        if w.ndim != 1 or w.size == 0 or v.shape != (w.size, w.size):
            raise DimensionMismatch(f"eigenvalues of shape {w.shape} and eigenvectors of shape {v.shape} do not fit")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(v)):
            raise ValueError("spectrum contains non-finite entries")
        if np.any(np.diff(w) < 0.0):
            raise ValueError(f"eigenvalues {w.tolist()!r} are not ascending")
        if (defect := unitarity_defect(v)) > ATOL_STRUCTURAL:
            raise NotUnitary(f"eigenvectors: max |V^dagger V - I| = {defect:.3e} > {ATOL_STRUCTURAL:.1e}")
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "eigenvectors", _freeze(v))


def matrix_exp_hermitian(s: Spectrum, t: float) -> np.ndarray:
    """Unitary exp(-i A t) of a Hermitian generator given by its spectrum.

    Exact (to rounding) for the small dense matrices this package targets,
    which is why no product-formula approximation is used.
    """
    phases = np.exp(-1j * s.eigenvalues * float(t))
    return (s.eigenvectors * phases) @ s.eigenvectors.conj().T


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over ``n_qubits`` qubits (qubit 0 = MSB)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _qubit_count(amp.size, "state vector")
        if not np.all(np.isfinite(amp)):
            raise ValueError("state vector contains non-finite amplitudes")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > ATOL_STRUCTURAL:
            raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", _freeze(amp))

    @property
    def n_qubits(self) -> int:
        return _qubit_count(self.amplitudes.size, "state vector")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def density(self) -> "DensityMatrix":
        return _derived(DensityMatrix, _freeze(np.outer(self.amplitudes, self.amplitudes.conj())))

    def tensor(self, other: "PureState") -> "PureState":
        return _derived(PureState, _freeze(np.kron(self.amplitudes, other.amplitudes)))


def basis_state(n_qubits: int, index: int = 0) -> PureState:
    if not 0 <= index < 2**n_qubits:
        raise IndexOutOfRange(f"basis index {index} outside 0..{2**n_qubits - 1}")
    amp = np.zeros(2**n_qubits, dtype=complex)
    amp[index] = 1.0
    return PureState(amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one Hermitian positive-semidefinite operator.

    ``DensityMatrix(m)`` is the boundary for a density from outside the
    program and runs every check, the O(d^3) eigenvalue one included.  The
    engines make their densities from a checked state by positive
    trace-preserving maps (outer products, unitaries, channels, projections,
    partial traces), so those run none (see ``_derived``).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix is not square: {m.shape}")
        _qubit_count(m.shape[0], "density matrix")
        defect = hermiticity_defect(m)
        if defect > ATOL_STRUCTURAL:
            raise NotHermitian(f"density matrix hermiticity defect {defect:.3e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL_STRUCTURAL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond 1e-10")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -1e-9:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} < -1e-9")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n_qubits(self) -> int:
        return _qubit_count(self.matrix.shape[0], "density matrix")

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def purity(self) -> float:
        # Tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
        return float(np.vdot(self.matrix, self.matrix).real)


def fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Normalized state overlap Tr(r1 r2) / sqrt(Tr(r1^2) Tr(r2^2)).

    Symmetric in its arguments and equal to |<psi|phi>|^2 on pure states.
    Each trace is an elementwise sum, Tr(r1 r2) = sum conj(r1_ij) r2_ij
    for Hermitian r1, so no matrix product is formed.  The value is clamped
    to [0, 1], the Cauchy-Schwarz range, which rounding can leave by an ulp.
    """
    if rho1.matrix.shape != rho2.matrix.shape:
        raise DimensionMismatch(
            f"density matrices of different dimension: {rho1.matrix.shape} vs {rho2.matrix.shape}"
        )
    overlap = float(np.vdot(rho1.matrix, rho2.matrix).real)
    denom = np.sqrt(rho1.purity() * rho2.purity())
    return min(max(overlap / denom, 0.0), 1.0)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept qubit indices (order preserved ascending)."""
    keep = sorted(set(int(q) for q in keep))
    n = rho.n_qubits
    if not keep:
        raise EmptyKeepSet("keep set must contain at least one qubit")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionMismatch(f"keep set {keep} outside 0..{n - 1}")
    # einsum sums over the traced qubits, whose ket and bra axes share a label
    ket = list(range(n))
    bra = [n + q if q in keep else q for q in range(n)]
    reduced = np.einsum(rho.matrix.reshape([2] * (2 * n)), ket + bra, keep + [n + q for q in keep])
    d = 2 ** len(keep)
    return _derived(DensityMatrix, _freeze(reduced.reshape(d, d)))


def rotation_y(theta) -> np.ndarray:
    """Ry(theta); an array of angles gives the stack of their matrices, shape (..., 2, 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), (0, 1), (-2, -1))


def rotation_x(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


# A branch this light is numerically empty: measuring it, or post-selecting on it, raises.
MIN_BRANCH_PROBABILITY = 1e-12

ZERO_SHARE = 1e-10  # rounding leaves an exact zero at about 1e-16 of the total


def mass_ratio(num: float, den: float) -> float | None:
    """num / den for non-negative masses, or None (JSON null) when den is zero: at
    most ``ZERO_SHARE`` of num + den.  Every ratio and relative error uses this rule."""
    return float(num / den) if den > ZERO_SHARE * (num + den) else None


def canonical_phase(vec) -> np.ndarray:
    """Rotate a global phase so the first significant amplitude is real positive.

    The solver output carries an undetermined global phase; this fixes the
    gauge before states or solutions are compared component-wise.
    """
    v = np.asarray(vec, dtype=complex).reshape(-1)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return v.copy()
    for x in v:
        if abs(x) > 1e-12 * scale:
            return v * (x.conjugate() / abs(x))
    return v.copy()
