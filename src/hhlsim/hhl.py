"""Six-stage quantum linear-system pipeline and its metrics.

The stages: load |b> into the solution register, put the clock register in
a uniform superposition, run the conditional Hamiltonian evolution and a
QFT (phase estimation), rotate an ancilla conditioned on the clock
(eigenvalue inversion), invert the phase estimation (uncompute), and
post-select the ancilla on |1>.

Register layout is [clock | solution | ancilla] with the clock at qubits
0..t-1, so the four-qubit demonstration reads |q1 q2 q3 q4> =
|clock, clock, solution, ancilla> and the solution lives in the |00x1>
subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import circuit as qcirc
from . import qcore, reference
from .circuit import Circuit, ControlledUnitary, Gate, Hadamard, Swap
from .errors import (
    EigenvalueNotEncodable,
    NotPositiveDefinite,
    RegisterTooWide,
    WidthMismatch,
    ZeroProbabilityBranch,
    ZeroReferenceComponent,
)
from .qcore import DensityMatrix, PureState, Spectrum, basis_state, canonical_phase

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Hermitian system A x = b with its spectral data.

    ``b`` is a unit vector; all eigenvalues are strictly positive (the
    inversion path rejects anything else).
    """

    a: np.ndarray
    b: np.ndarray
    spectrum: Spectrum
    kappa: float

    @property
    def n_solution_qubits(self) -> int:
        return int(np.log2(len(self.b)))

    def expansion_coefficients(self) -> np.ndarray:
        """Coefficients of b in the eigenbasis, beta_j = <u_j|b>."""
        return self.spectrum.eigenvectors.conj().T @ self.b


def linear_system(a, b, *, normalize: bool = False) -> LinearSystem:
    m = qcore.require_hermitian(a)
    qcore._qubit_count(m.shape[0], "system")
    vec = np.asarray(b, dtype=complex).reshape(-1)
    if vec.size != m.shape[0]:
        raise WidthMismatch(f"matrix {m.shape} incompatible with b of length {vec.size}")
    norm = np.linalg.norm(vec)
    if normalize:
        if norm == 0.0:
            raise ValueError("b must be nonzero")
        vec = vec / norm
    elif abs(norm - 1.0) > qcore.ATOL_STRUCTURAL:
        raise ValueError(f"b must be a unit vector (norm {norm!r}); pass normalize=True to rescale")
    spectrum = qcore.eig_hermitian(m)
    lam_min = float(spectrum.eigenvalues.min())
    if lam_min <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {lam_min:.6g} <= 0")
    kappa = float(spectrum.eigenvalues.max() / lam_min)
    return LinearSystem(a=qcore._freeze(m), b=qcore._freeze(vec), spectrum=spectrum, kappa=kappa)


ROTATION_MODES = ("linear", "exact")
# clock labels within this of an integer count as exactly encoded
ENCODING_ATOL = 1e-9
# Largest final state, and largest circuit, a run may allocate: 2^n
# amplitudes (pure) or 4^n entries (density), 16 bytes each; 256 MiB is a
# 24-qubit state vector or a 12-qubit density matrix.
MAX_STATE_BYTES = 2**28
# Memory per gate beyond its matrix entries.  tracemalloc puts the 863
# gates of an n_b = 1, t = 8 circuit at 0.63 MB (0.74 KB each) and the
# 98,587 of t = 15 at 133 MB (1.34 KB each, as control tuples grow with t).
GATE_BYTES = 1536


def _is_positive_int(value) -> bool:
    return bool(np.isfinite(value) and int(value) == value and value >= 1)


@dataclass(frozen=True)
class SolverConfig:
    """Pipeline knobs.

    ``clock_qubits`` (t) sets the eigenvalue register width, ``t0`` the
    evolution time scale, ``r`` the linear-approximation rotation parameter
    and ``c_tilde`` the inversion normalization (defaults to the smallest
    eigenvalue in exact mode; unused as an input in linear mode).
    """

    clock_qubits: int = 2
    t0: float = TWO_PI
    r: int = 2
    rotation_mode: str = "linear"
    c_tilde: float | None = None

    def __post_init__(self):
        if not _is_positive_int(self.clock_qubits):
            raise ValueError("clock_qubits must be a positive integer")
        if not np.isfinite(self.t0) or self.t0 <= 0.0:
            raise ValueError("t0 must be positive and finite")
        if not _is_positive_int(self.r):
            raise ValueError("r must be a positive integer")
        if self.rotation_mode not in ROTATION_MODES:
            raise ValueError(f"rotation_mode must be one of {ROTATION_MODES}")
        if self.c_tilde is not None and not (np.isfinite(self.c_tilde) and self.c_tilde > 0.0):
            raise ValueError("c_tilde must be positive and finite when given")
        object.__setattr__(self, "clock_qubits", int(self.clock_qubits))
        object.__setattr__(self, "r", int(self.r))


def prepare_b(theta: float) -> PureState:
    """Single-qubit input state cos(theta/2)|0> + sin(theta/2)|1>."""
    if not 0.0 <= theta < TWO_PI:
        raise ValueError("theta must lie in [0, 2*pi)")
    return PureState(np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex))


def encoded_eigenvalues(sys: LinearSystem, cfg: SolverConfig) -> np.ndarray:
    """Clock labels lambda_j * t0 / (2*pi) the phase estimation writes."""
    return sys.spectrum.eigenvalues * cfg.t0 / TWO_PI


def is_exact_encoding(sys: LinearSystem, cfg: SolverConfig) -> bool:
    k = encoded_eigenvalues(sys, cfg)
    return bool(np.all(np.abs(k - np.round(k)) <= ENCODING_ATOL))


def _require_within_budget(sys: LinearSystem, cfg: SolverConfig, *, density: bool, circuit: bool) -> None:
    """Reject a run whose final state, or circuit, would exceed MAX_STATE_BYTES."""
    n = cfg.clock_qubits + sys.n_solution_qubits + 1
    kind = "density matrix" if density else "state vector"
    needs = {f"a {n}-qubit {kind}": 16 * (4**n if density else 2**n)}
    if circuit:
        # per clock value: an evolution block in the QPE, one in its inverse, about 3 gates
        per_value = 2 * 16 * 4**sys.n_solution_qubits + 3 * GATE_BYTES
        needs[f"a {cfg.clock_qubits}-qubit clock's circuit"] = 2**cfg.clock_qubits * per_value
    for what, size in needs.items():
        if size > MAX_STATE_BYTES:
            raise RegisterTooWide(f"{what} needs {size} bytes, over the {MAX_STATE_BYTES}-byte budget")


def _clock_pattern(value: int, t: int) -> tuple[tuple[int, int], ...]:
    """Controls requiring the t-qubit clock to hold ``value`` (qubit 0 = MSB)."""
    return tuple((q, (value >> (t - 1 - q)) & 1) for q in range(t))


def conditional_evolution(sys: LinearSystem, cfg: SolverConfig) -> list[Gate]:
    """Controlled blocks realizing sum_tau |tau><tau| (x) exp(-i A tau t0 / 2^t).

    One block per clock basis value tau, each conditioned on the full clock
    bit pattern of tau; their product is exactly the summed operator
    because the clock projectors are orthogonal.
    """
    t = cfg.clock_qubits
    nb = sys.n_solution_qubits
    big_t = 2**t
    targets = tuple(range(t, t + nb))
    gates: list[Gate] = []
    for tau in range(big_t):
        u = qcore.matrix_exp_hermitian(sys.spectrum, tau * cfg.t0 / big_t)
        gates.append(ControlledUnitary(_clock_pattern(tau, t), targets, u))
    return gates


def _qpe_gates(sys: LinearSystem, cfg: SolverConfig) -> list[Gate]:
    """Phase estimation: clock superposition, conditional evolution, QFT."""
    t = cfg.clock_qubits
    return [Hadamard(q) for q in range(t)] + conditional_evolution(sys, cfg) + list(qcirc.qft(t).gates)


# ---------------------------------------------------------------------------
# Eigenvalue inversion


def _inversion_rotation(cfg: SolverConfig, lam):
    """The ancilla rotation that inverts eigenvalue(s) ``lam``.

    Returns (theta, sin(theta/2), cos(theta/2)).  Linear mode sets
    theta = (2*pi/2^r)/lambda; exact mode sets sin(theta/2) =
    c_tilde/lambda.  resolve_config keeps that ratio <= 1 on every
    eigenvalue; a clock label no eigenvalue occupies may exceed it, which
    the returned sin(theta/2) reports unclipped.
    """
    if cfg.rotation_mode == "linear":
        theta = (TWO_PI / 2**cfg.r) / lam
        return theta, np.sin(theta / 2.0), np.cos(theta / 2.0)
    if cfg.c_tilde is None:
        raise ValueError("exact mode needs c_tilde (resolve_config fills the default)")
    sin_half = cfg.c_tilde / lam
    clipped = np.minimum(sin_half, 1.0)
    return 2.0 * np.arcsin(clipped), sin_half, np.sqrt(1.0 - clipped**2)


def _rotation_gates(cfg: SolverConfig, lam: float, controls, ancilla: int) -> list[Gate]:
    """Controlled Ry on the ancilla for eigenvalue ``lam``; none if c_tilde/lam > 1.

    An eigenvalue may sit up to ENCODING_ATOL above its clock label, so
    c_tilde/lam may exceed 1 by as much; that label keeps its (clipped)
    rotation.
    """
    theta, sin_half, _ = _inversion_rotation(cfg, lam)
    if sin_half > 1.0 + ENCODING_ATOL:
        return []  # no valid rotation; such labels carry no amplitude
    return [ControlledUnitary(controls, (ancilla,), qcore.rotation_y(theta))]


def eigenvalue_inversion_gates(cfg: SolverConfig, n_solution_qubits: int = 1) -> list[Gate]:
    """The swap-based fast path: clock swap, then ancilla rotations.

    Swapping the two clock qubits relabels |k> -> |2/k> for k in {1, 2},
    after which a rotation linear in the clock value implements angles
    proportional to 1/lambda.  Linear mode stacks one controlled Ry per
    clock qubit with theta_j = (2*pi/2^r)/lambda_j in total; exact mode
    rotates each relabeled clock value by 2*arcsin(c_tilde/lambda_j).

    Only a two-qubit clock supports this permutation, and only clock labels
    1 and 2 are inverted by it; build_circuit takes this path only when
    swap_path_available.
    """
    t = cfg.clock_qubits
    ancilla = t + n_solution_qubits
    gates: list[Gate] = [Swap(0, 1)]

    def swapped_eigenvalue(m: int) -> float:
        # after the swap, clock value m holds the eigenvalue encoded as 2/m
        return 2.0 * TWO_PI / (cfg.t0 * m)

    if cfg.rotation_mode == "linear":
        # theta is linear in m, so per-bit rotations weighted by place sum to it
        for q in range(t):
            gates += _rotation_gates(cfg, swapped_eigenvalue(2 ** (t - 1 - q)), ((q, 1),), ancilla)
    else:
        for m in range(1, 2**t):
            gates += _rotation_gates(cfg, swapped_eigenvalue(m), _clock_pattern(m, t), ancilla)
    return gates


def _general_inversion_gates(cfg: SolverConfig, n_solution_qubits: int) -> list[Gate]:
    """Rotations keyed directly on the clock label |k>, no swap relabeling.

    Works for any encodable spectrum (and approximately encoded ones);
    used whenever the swap fast path does not apply.
    """
    t = cfg.clock_qubits
    ancilla = t + n_solution_qubits
    gates: list[Gate] = []
    for k in range(1, 2**t):
        gates += _rotation_gates(cfg, TWO_PI * k / cfg.t0, _clock_pattern(k, t), ancilla)
    return gates


def swap_path_available(sys: LinearSystem, cfg: SolverConfig) -> bool:
    if cfg.clock_qubits != 2 or not is_exact_encoding(sys, cfg):
        return False
    labels = np.round(encoded_eigenvalues(sys, cfg)).astype(int)
    return bool(np.all(np.isin(labels, (1, 2))))


def resolve_config(sys: LinearSystem, cfg: SolverConfig) -> SolverConfig:
    """Fill the c_tilde default and check ``cfg`` against the spectrum.

    The one place a config meets a system; the pipeline stages take its
    result as given.
    """
    if cfg.rotation_mode == "exact":
        lam_min = float(sys.spectrum.eigenvalues.min())
        if cfg.c_tilde is not None and cfg.c_tilde > lam_min + 1e-9:
            raise ValueError(f"c_tilde {cfg.c_tilde} exceeds the smallest eigenvalue {lam_min}")
        if cfg.c_tilde is None or cfg.c_tilde > lam_min:
            # clamp the tolerated excess so c_tilde/lambda <= 1 on every eigenvalue
            cfg = replace(cfg, c_tilde=lam_min)
    k = encoded_eigenvalues(sys, cfg)
    top = 2**cfg.clock_qubits - 1
    nearest = np.round(k)
    if np.any(nearest < 1) or np.any(nearest > top):
        raise EigenvalueNotEncodable(
            f"encoded eigenvalues {k} must round into 1..{top} on {cfg.clock_qubits} clock qubits"
        )
    return cfg


def build_circuit(sys: LinearSystem, cfg: SolverConfig) -> Circuit:
    """Assemble the full pipeline circuit (measurement excluded).

    ``cfg`` comes from resolve_config.  The uncompute block undoes the
    inversion-stage clock swap (on the fast path), then the phase
    estimation, so the clock returns to |0..0> under exact encoding.
    """
    t, nb = cfg.clock_qubits, sys.n_solution_qubits
    n = t + nb + 1
    qpe = _qpe_gates(sys, cfg)
    if swap_path_available(sys, cfg):
        inversion = eigenvalue_inversion_gates(cfg, nb)
        inversion.append(Swap(0, 1))
    else:
        inversion = _general_inversion_gates(cfg, nb)
    gates = qpe + inversion + list(Circuit(n, qpe).inverse().gates)
    registers = {
        "clock": tuple(range(t)),
        "b": tuple(range(t, t + nb)),
        "ancilla": (n - 1,),
    }
    return Circuit(n, gates, registers)


# ---------------------------------------------------------------------------
# Ideal final state and metrics


def _ideal_final_state(sys: LinearSystem, cfg: SolverConfig) -> PureState:
    """The pre-measurement output for a resolve_config result ``cfg``."""
    t, nb = cfg.clock_qubits, sys.n_solution_qubits
    beta = sys.expansion_coefficients()
    _, sin_part, cos_part = _inversion_rotation(cfg, sys.spectrum.eigenvalues)
    clock0 = np.zeros(2**t, dtype=complex)
    clock0[0] = 1.0
    amp = np.zeros(2 ** (t + nb + 1), dtype=complex)
    for j in range(len(beta)):
        anc = np.array([cos_part[j], sin_part[j]], dtype=complex)
        amp += beta[j] * np.kron(clock0, np.kron(sys.spectrum.eigenvectors[:, j], anc))
    return PureState(amp)


def theoretical_final_state(sys: LinearSystem, cfg: SolverConfig) -> PureState:
    """Ideal pre-measurement output, the fidelity reference for noisy runs.

    Requires exactly encodable eigenvalues; each branch carries ancilla
    amplitude sin(theta_j/2) in linear mode and c_tilde/lambda_j in exact
    mode.
    """
    _require_within_budget(sys, cfg, density=False, circuit=False)
    cfg = resolve_config(sys, cfg)
    if not is_exact_encoding(sys, cfg):
        raise EigenvalueNotEncodable(f"encoded eigenvalues {encoded_eigenvalues(sys, cfg)} are not integers")
    return _ideal_final_state(sys, cfg)


def effective_rotation_constant(eigenvalues, r: int) -> float:
    """Mean over j of lambda_j * sin(theta_j / 2) with theta_j = (2*pi/2^r)/lambda_j.

    The derived normalization the linear-approximation rotations realize;
    about 0.736 for the demonstration spectrum (1, 2) at r = 2.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    _, sin_half, _ = _inversion_rotation(SolverConfig(r=r), lam)
    return float(np.mean(lam * sin_half))


def max_relative_error(x_exp, x_theory) -> float:
    """max_i |x_exp_i - x_theory_i| / |x_theory_i| after phase alignment.

    Both vectors are canonicalized (first significant component made real
    positive) before comparison; no normalization is applied.
    """
    e = canonical_phase(x_exp)
    th = canonical_phase(x_theory)
    if e.size != th.size:
        raise WidthMismatch(f"length mismatch: {e.size} vs {th.size}")
    scale = np.max(np.abs(th))
    if scale == 0.0 or np.any(np.abs(th) < 1e-15 * scale):
        raise ZeroReferenceComponent("reference vector has a zero component")
    return float(np.max(np.abs(e - th) / np.abs(th)))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Post-selected solution and the run's quality metrics."""

    x_quantum: np.ndarray
    x_classical: np.ndarray
    success_probability: float
    fidelity_4q: float
    max_rel_error: float
    clock_residual: float
    final_state: PureState | None = None
    final_density: DensityMatrix | None = None
    circuit: Circuit | None = None

    @property
    def solution_ratio_sq(self) -> float | None:
        """|x_1 / x_2|^2 for two-component solutions with x_2 != 0 (None otherwise)."""
        if len(self.x_quantum) != 2 or abs(self.x_quantum[1]) == 0.0:
            return None
        return float(abs(self.x_quantum[0]) ** 2 / abs(self.x_quantum[1]) ** 2)

    def to_dict(self) -> dict:
        out = {
            "x_quantum": _complex_vector_json(self.x_quantum),
            "x_classical": _complex_vector_json(self.x_classical),
            "success_probability": self.success_probability,
            "fidelity_4q": self.fidelity_4q,
            "max_rel_error": self.max_rel_error,
            "clock_residual": self.clock_residual,
            "solution_ratio_sq": self.solution_ratio_sq,
        }
        if self.final_state is not None:
            out["final_amplitudes"] = _complex_vector_json(self.final_state.amplitudes)
        elif self.final_density is not None:
            out["final_populations"] = [float(p) for p in self.final_density.populations()]
        return out


def _complex_vector_json(v: np.ndarray) -> dict:
    return {"re": [float(x) for x in np.real(v)], "im": [float(x) for x in np.imag(v)]}


def _dominant_vector(rho: DensityMatrix) -> np.ndarray:
    w, v = np.linalg.eigh(rho.matrix)
    return v[:, -1]


def run_hhl(
    sys: LinearSystem,
    cfg: SolverConfig,
    *,
    noise_builder=None,
) -> SolveReport:
    """Run the six-stage pipeline and compare against the direct solve.

    ``noise_builder``, a callable mapping the assembled circuit to a noise
    schedule (so schedules can depend on gate count), routes the run
    through the density-matrix engine.  Without it the run stays a state
    vector: only the solution-register density is formed.  x_quantum is
    the renormalized solution-register state conditioned on ancilla = 1
    with the clock traced out.  Raises RegisterTooWide before building
    anything when the final state or the circuit would exceed
    MAX_STATE_BYTES.
    """
    _require_within_budget(sys, cfg, density=noise_builder is not None, circuit=True)
    cfg = resolve_config(sys, cfg)
    c = build_circuit(sys, cfg)
    t, nb = cfg.clock_qubits, sys.n_solution_qubits
    n = c.n_qubits
    ancilla = n - 1
    initial = basis_state(t, 0).tensor(PureState(sys.b)).tensor(basis_state(1, 0))
    theory = _ideal_final_state(sys, cfg)

    if noise_builder is None:
        final = qcirc.run_circuit(initial, c)
        clock_mass = final.probabilities().reshape(2**t, -1).sum(axis=1)
        clock_residual = float(1.0 - clock_mass[0])
        prob, post = qcirc.measure_qubit(final, ancilla, 1)
        # rows of m are the clock values, so tracing out the clock is m^T conj(m)
        m = post.amplitudes.reshape(2**t, 2**nb, 2)[:, :, 1]
        rho_b = DensityMatrix(m.T @ m.conj())
        # qcore.fidelity of the two pure densities: |<a|f>|^2 / (<a|a> <f|f>)
        a, f = theory.amplitudes, final.amplitudes
        fid = abs(np.vdot(a, f)) ** 2 / (np.vdot(a, a).real * np.vdot(f, f).real)
        final_density = None
    else:
        rho_final = qcirc.evolve_density(initial.density(), c, noise_builder(c))
        clock_mass = rho_final.populations().reshape(2**t, -1).sum(axis=1)
        clock_residual = float(1.0 - clock_mass[0])
        prob, post_rho = qcirc.measure_qubit(rho_final, ancilla, 1)
        rho_b = qcore.partial_trace(post_rho, range(t, t + nb))
        fid = qcore.fidelity(theory.density(), rho_final)
        final = None
        final_density = rho_final

    if prob <= 1e-12:
        raise ZeroProbabilityBranch(f"post-selection probability {prob:.3e} below 1e-12")

    x_quantum = canonical_phase(_dominant_vector(rho_b))
    x_classical = reference.direct_solve(sys.a, sys.b)
    x_classical = canonical_phase(x_classical / np.linalg.norm(x_classical))
    return SolveReport(
        x_quantum=x_quantum,
        x_classical=x_classical,
        success_probability=float(prob),
        fidelity_4q=float(fid),
        max_rel_error=max_relative_error(x_quantum, x_classical),
        clock_residual=clock_residual,
        final_state=final,
        final_density=final_density,
        circuit=c,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    max_rel_error: float
    success_probability: float


def _sweep(sys: LinearSystem, parameter: str, values, cfg: SolverConfig) -> list[SweepRow]:
    rows = []
    for value in values:
        report = run_hhl(sys, replace(cfg, **{parameter: value}))
        rows.append(SweepRow(parameter, float(value), report.max_rel_error, report.success_probability))
    return rows


def sweep_r(sys: LinearSystem, r_values: Sequence[int], cfg: SolverConfig = SolverConfig()) -> list[SweepRow]:
    """One pipeline run per rotation parameter r, the rest of ``cfg`` fixed."""
    return _sweep(sys, "r", r_values, cfg)


def sweep_t0(sys: LinearSystem, t0_values: Sequence[float], cfg: SolverConfig = SolverConfig()) -> list[SweepRow]:
    """One pipeline run per evolution time scale t0 (approximate encodings allowed)."""
    return _sweep(sys, "t0", t0_values, cfg)


def theta_for_target_ratio(sys: LinearSystem, ratio_sq: float) -> float:
    """Input angle theta whose solution satisfies |x_1/x_2|^2 = ratio_sq.

    Only defined for real 2x2 systems.  Derived by inverting A on
    b(theta) = (cos(theta/2), sin(theta/2)) and solving for tan(theta/2);
    of the two sign branches the one continuous through theta = pi/2 at
    ratio 1 is returned.
    """
    if sys.a.shape != (2, 2):
        raise WidthMismatch("ratio targeting is defined for 2x2 systems")
    if np.max(np.abs(sys.a.imag)) > 1e-12:
        raise ValueError("ratio targeting assumes a real system matrix")
    minv = np.linalg.inv(sys.a.real)
    root = np.sqrt(float(ratio_sq))
    tan_half = (root * minv[1, 0] - minv[0, 0]) / (minv[0, 1] - root * minv[1, 1])
    theta = 2.0 * np.arctan(tan_half)
    return float(theta % TWO_PI)
