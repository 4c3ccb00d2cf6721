"""Six-stage quantum linear-system pipeline and its metrics.

The stages: load |b> into the solution register, put the clock register in
a uniform superposition, run the conditional Hamiltonian evolution and a
QFT (phase estimation), rotate an ancilla by an angle keyed on the clock
label (eigenvalue inversion), invert the phase estimation (uncompute), and
post-select the ancilla on |1>.

Register layout is [clock | solution | ancilla] with the clock at qubits
0..t-1, so the four-qubit demonstration reads |q1 q2 q3 q4> =
|clock, clock, solution, ancilla> and the solution lives in the |00x1>
subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import circuit as qcirc
from . import qcore, reference
from .circuit import Circuit, ControlledUnitary, Gate, Hadamard, MultiplexedRy
from .errors import (
    EigenvalueNotEncodable,
    NotPositiveDefinite,
    RegisterTooWide,
    WidthMismatch,
    ZeroProbabilityBranch,
)
from .qcore import DensityMatrix, PureState, Spectrum, canonical_phase

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Hermitian system A x = b with the spectral data A implies.

    The constructor is the boundary for a system from outside the program
    and takes only A and b.  It checks A (finite, 2^n-dimensional and
    Hermitian to ``ATOL_STRUCTURAL`` of max|A|), then b (a finite unit
    vector of A's width).  It then decomposes A once: ``spectrum`` holds its
    ascending eigenvalues, all strictly positive (the inversion path rejects
    anything else), and the finite ``kappa`` = lambda_max / lambda_min.
    """

    a: np.ndarray
    b: np.ndarray
    spectrum: Spectrum = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        m = qcore.require_hermitian(self.a)
        qcore._qubit_count(m.shape[0], "system")
        vec = np.asarray(self.b, dtype=complex).reshape(-1)
        if vec.size != m.shape[0]:
            raise WidthMismatch(f"matrix {m.shape} incompatible with b of length {vec.size}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("b contains non-finite entries")
        if abs((norm := np.linalg.norm(vec)) - 1.0) > qcore.ATOL_STRUCTURAL:
            raise ValueError(f"b must be a unit vector (norm {norm!r})")
        w, v = np.linalg.eigh(m)
        if w[0] <= 0.0:
            raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.6g} <= 0")
        # eigh of an A near the float range can return inf; so can the ratio of finite eigenvalues
        if not np.isfinite(kappa := float(w[-1]) / float(w[0])):
            raise EigenvalueNotEncodable(f"eigenvalues {w[0]:.6g} to {w[-1]:.6g} give kappa = {kappa}")
        object.__setattr__(self, "a", qcore._freeze(m))
        object.__setattr__(self, "b", qcore._freeze(vec))
        object.__setattr__(self, "spectrum", qcore._derived(Spectrum, qcore._freeze(w), qcore._freeze(v)))
        object.__setattr__(self, "kappa", kappa)

    @property
    def n_solution_qubits(self) -> int:
        return int(np.log2(len(self.b)))

    def expansion_coefficients(self) -> np.ndarray:
        """Coefficients of b in the eigenbasis, beta_j = <u_j|b>."""
        return self.spectrum.eigenvectors.conj().T @ self.b


def linear_system(a, b, *, normalize: bool = False) -> LinearSystem:
    """``LinearSystem(a, b)``; ``normalize`` first rescales a finite, nonzero b to unit norm."""
    vec = np.asarray(b, dtype=complex).reshape(-1)
    if normalize and np.all(np.isfinite(vec)) and (peak := np.max(np.abs(vec), initial=0.0)) > 0.0:
        # an exact power-of-two rescale to max|b| in [0.5, 1) keeps the norm clear of
        # overflow and underflow, and leaves the normalized bits as they were in range
        vec = np.ldexp(np.ascontiguousarray(vec).view(float), -np.frexp(peak)[1]).view(complex)
        vec = vec / np.linalg.norm(vec)
    return LinearSystem(a, vec)


ROTATION_MODES = ("linear", "exact")
# clock labels within this of an integer count as exactly encoded
ENCODING_ATOL = 1e-9
# Most memory a final state, a run's working states or its circuit may take:
# a final state is 2^n amplitudes (pure) or 4^n entries (density), 16 bytes
# each; 256 MiB is a 24-qubit state vector or a 12-qubit density matrix.
MAX_STATE_BYTES = 2**28
# Peak memory of run_hhl above its input, in final states of its engine.
# tracemalloc measured 3.64 states for a pure 16-qubit run (3.54 at 18) and
# 3.42 densities for a noisy 8-qubit one (3.05 at 10), so a pure run takes
# up to 22 qubits and a noisy one up to 11.
PURE_PEAK_STATES = 4
DENSITY_PEAK_STATES = 4


def _is_positive_int(value) -> bool:
    try:  # int() is exact on an int of any size or an integral float; nan and inf raise
        return bool(int(value) == value and value >= 1)
    except (ValueError, OverflowError):
        return False


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


def _clock_labels(sys: LinearSystem, cfg: SolverConfig) -> tuple[np.ndarray, bool]:
    """Nearest clock labels of the eigenvalues, and whether all of them are exact.

    Phase estimation writes eigenvalue lambda_j as label lambda_j * t0 / (2*pi);
    a label within ENCODING_ATOL of an integer counts as exactly encoded.
    """
    k = sys.spectrum.eigenvalues * cfg.t0 / TWO_PI
    nearest = np.round(k)
    return nearest, bool(np.all(np.abs(k - nearest) <= ENCODING_ATOL))


def _require_within_budget(sys: LinearSystem, cfg: SolverConfig, *, density: bool, run: bool) -> None:
    """Reject a final state, or with ``run`` a whole run, that would exceed MAX_STATE_BYTES.

    A run is charged its engine's peak, PURE_PEAK_STATES or
    DENSITY_PEAK_STATES final states, and its circuit.  Sizes are log2 of
    bytes (16 per entry), so a clock of any width is priced.
    """
    t, nb = cfg.clock_qubits, sys.n_solution_qubits
    n = t + nb + 1
    kind = "density matrices" if density else "state vectors"
    final = 4 + (2 * n if density else n)
    if run:
        peak = DENSITY_PEAK_STATES if density else PURE_PEAK_STATES
        needs = {f"a run's {peak} {n}-qubit {kind}": final + math.log2(peak)}
        # 2t evolution blocks of 4^nb entries, in the QPE and its inverse; the 2^t angles are smaller than the state
        needs[f"a {t}-qubit clock's circuit"] = 5 + 2 * nb + math.log2(t)
    else:
        needs = {f"a {n}-qubit final state": final}
    for what, bits in needs.items():
        if bits > math.log2(MAX_STATE_BYTES):
            raise RegisterTooWide(f"{what} would take 2^{bits:.6g} bytes, over the {MAX_STATE_BYTES}-byte budget")


def conditional_evolution(sys: LinearSystem, cfg: SolverConfig) -> list[Gate]:
    """Controlled powers realizing sum_tau |tau><tau| (x) exp(-i A tau t0 / 2^t).

    Clock qubit q (qubit 0 = MSB) carries place value 2^(t-1-q), so it
    controls exp(-i A t0 2^(t-1-q) / 2^t) = exp(-i A t0 / 2^(q+1)); the
    product of the t powers applies exp(-i A t0 tau / 2^t) on clock value tau.
    """
    t = cfg.clock_qubits
    targets = tuple(range(t, t + sys.n_solution_qubits))
    powers = (qcore._freeze(qcore.matrix_exp_hermitian(sys.spectrum, cfg.t0 / 2 ** (q + 1))) for q in range(t))
    return [qcore._derived(ControlledUnitary, ((q, 1),), targets, u) for q, u in enumerate(powers)]


def _qpe_gates(sys: LinearSystem, cfg: SolverConfig) -> tuple[Gate, ...]:
    """Phase estimation: clock superposition, conditional evolution, QFT.

    The QFT has no bit reversal, so eigenvalue label k is left on the clock
    least significant bit first, as MultiplexedRy reads its selectors.
    """
    t = cfg.clock_qubits
    return (*(Hadamard(q) for q in range(t)), *conditional_evolution(sys, cfg), *qcirc._qft_gates(t))


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
        theta = math.ldexp(TWO_PI, -cfg.r) / lam
        return theta, np.sin(theta / 2.0), np.cos(theta / 2.0)
    if cfg.c_tilde is None:
        raise ValueError("exact mode needs c_tilde (resolve_config fills the default)")
    sin_half = cfg.c_tilde / lam
    clipped = np.minimum(sin_half, 1.0)
    return 2.0 * np.arcsin(clipped), sin_half, np.sqrt(1.0 - clipped**2)


def _inversion_gates(sys: LinearSystem, cfg: SolverConfig) -> list[Gate]:
    """The ancilla rotation keyed on the clock label, from one label -> angle table.

    Label k >= 1 stands for the eigenvalue 2*pi*k/t0.  Label 0, and a label
    whose c_tilde/lambda exceeds 1 by more than ENCODING_ATOL (it carries no
    amplitude), gets angle 0; within that tolerance an eigenvalue above its
    label keeps its clipped rotation.

    Phase estimation leaves label k least significant bit first, so label
    2^q sets only clock qubit q.  In linear mode on a two-qubit clock whose
    labels are exactly 1 and 2 this gives the paper's circuit: one
    controlled Ry per clock qubit, qubit q rotating by the angle of label
    2^q (the paper reaches the same labels with a clock swap, |k> -> |2/k>).
    Every other case gets one MultiplexedRy carrying the whole table.
    """
    t = cfg.clock_qubits
    ancilla = t + sys.n_solution_qubits
    theta, sin_half, _ = _inversion_rotation(cfg, TWO_PI * np.arange(1, 2**t) / cfg.t0)
    angles = np.concatenate(([0.0], np.where(sin_half > 1.0 + ENCODING_ATOL, 0.0, theta)))
    labels, exact = _clock_labels(sys, cfg)
    if cfg.rotation_mode == "linear" and t == 2 and exact and set(labels.tolist()) <= {1.0, 2.0}:
        return [
            qcore._derived(ControlledUnitary, ((q, 1),), (ancilla,), qcore._freeze(qcore.rotation_y(angles[2**q])))
            for q in range(t)
        ]
    return [qcore._derived(MultiplexedRy, tuple(range(t)), ancilla, qcore._freeze(angles))]


def resolve_config(sys: LinearSystem, cfg: SolverConfig) -> SolverConfig:
    """Fill the c_tilde default and check ``cfg`` against the spectrum.

    The one place a config meets a system; the pipeline stages take its
    result as given.  A clock too wide for any final state raises RegisterTooWide.
    """
    _require_within_budget(sys, cfg, density=False, run=False)
    if cfg.rotation_mode == "exact":
        lam_min = float(sys.spectrum.eigenvalues.min())
        if cfg.c_tilde is not None and cfg.c_tilde > lam_min + 1e-9:
            raise ValueError(f"c_tilde {cfg.c_tilde} exceeds the smallest eigenvalue {lam_min}")
        if cfg.c_tilde is None or cfg.c_tilde > lam_min:
            # clamp the tolerated excess so c_tilde/lambda <= 1 on every eigenvalue
            cfg = replace(cfg, c_tilde=lam_min)
    labels, _ = _clock_labels(sys, cfg)
    top = 2**cfg.clock_qubits - 1
    if np.any(labels < 1) or np.any(labels > top):
        raise EigenvalueNotEncodable(f"clock labels {labels} of the eigenvalues lie outside 1..{top} at t0 = {cfg.t0}")
    return cfg


def build_circuit(sys: LinearSystem, cfg: SolverConfig) -> Circuit:
    """Assemble the full pipeline circuit (measurement excluded).

    ``cfg`` comes from resolve_config.  The uncompute block undoes the
    phase estimation, so the clock returns to |0..0> under exact encoding.
    """
    t, nb = cfg.clock_qubits, sys.n_solution_qubits
    n = t + nb + 1
    qpe = _qpe_gates(sys, cfg)
    # qpe ends with the QFT, whose inverse is cached per clock width; the rest is undone gate by gate
    prep = qpe[: len(qpe) - len(qcirc._qft_gates(t))]
    uncompute = (*qcirc._inverse_qft_gates(t), *(qcirc.gate_inverse(g) for g in reversed(prep)))
    gates = (*qpe, *_inversion_gates(sys, cfg), *uncompute)
    registers = {
        "clock": tuple(range(t)),
        "b": tuple(range(t, t + nb)),
        "ancilla": (n - 1,),
    }
    return qcore._derived(Circuit, n, gates, registers)


# ---------------------------------------------------------------------------
# Ideal final state and metrics


def _ideal_final_state(sys: LinearSystem, cfg: SolverConfig) -> np.ndarray:
    """The [b | ancilla] amplitudes of the pre-measurement output on clock label 0,
    where an exact encoding leaves all of it, for a resolve_config result ``cfg``."""
    beta = sys.expansion_coefficients()
    _, sin_part, cos_part = _inversion_rotation(cfg, sys.spectrum.eigenvalues)
    anc = np.stack([cos_part, sin_part], axis=1)
    # branch j is beta_j |u_j> |anc_j>, summed in eigenvalue order
    branches = beta[:, None, None] * (sys.spectrum.eigenvectors.T[:, :, None] * anc[:, None, :])
    return branches.sum(axis=0).ravel()


def theoretical_final_state(sys: LinearSystem, cfg: SolverConfig) -> PureState:
    """Ideal pre-measurement output, the fidelity reference for noisy runs.

    Requires exactly encodable eigenvalues; each branch carries ancilla
    amplitude sin(theta_j/2) in linear mode and c_tilde/lambda_j in exact
    mode.
    """
    cfg = resolve_config(sys, cfg)
    labels, exact = _clock_labels(sys, cfg)
    if not exact:
        raise EigenvalueNotEncodable(f"eigenvalues lie off their clock labels {labels} at t0 = {cfg.t0}")
    block = _ideal_final_state(sys, cfg)
    return qcore._derived(PureState, qcore._freeze(np.pad(block, (0, (2**cfg.clock_qubits - 1) * block.size))))


def effective_rotation_constant(eigenvalues, r: int) -> float:
    """Mean over j of lambda_j * sin(theta_j / 2) with theta_j = (2*pi/2^r)/lambda_j.

    The derived normalization the linear-approximation rotations realize;
    about 0.736 for the demonstration spectrum (1, 2) at r = 2.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    _, sin_half, _ = _inversion_rotation(SolverConfig(r=r), lam)
    return float(np.mean(lam * sin_half))


def max_relative_error(x_exp, x_theory) -> float | None:
    """max_i |x_exp_i - x_theory_i| / |x_theory_i| after phase alignment.

    Both vectors are canonicalized (first significant component made real
    positive) before comparison; no normalization is applied.  None when a
    reference component is zero by ``qcore.ZERO_SHARE`` of |x_theory|^2.
    """
    e = canonical_phase(x_exp)
    th = canonical_phase(x_theory)
    if e.size != th.size:
        raise WidthMismatch(f"length mismatch: {e.size} vs {th.size}")
    mass = np.abs(th) ** 2
    if np.any(mass <= qcore.ZERO_SHARE * mass.sum()):
        return None
    return float(np.max(np.abs(e - th) / np.abs(th)))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Post-selected solution and quality metrics, read alike from either engine's final state (see run_hhl)."""

    x_quantum: np.ndarray
    x_classical: np.ndarray
    success_probability: float
    fidelity_4q: float
    max_rel_error: float | None
    clock_residual: float
    final_state: PureState | None = None
    final_density: DensityMatrix | None = None
    circuit: Circuit | None = None

    @property
    def solution_ratio_sq(self) -> float | None:
        """|x_1 / x_2|^2 for two-component solutions (None otherwise, or when undefined: qcore.mass_ratio)."""
        if len(self.x_quantum) != 2:
            return None
        return qcore.mass_ratio(abs(self.x_quantum[0]) ** 2, abs(self.x_quantum[1]) ** 2)

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
    return np.linalg.eigh(rho.matrix)[1][:, -1]


def run_hhl(
    sys: LinearSystem,
    cfg: SolverConfig,
    *,
    noise_builder=None,
) -> SolveReport:
    """Run the six-stage pipeline and compare against the direct solve.

    ``noise_builder``, a callable mapping the assembled circuit to a noise
    schedule (so schedules can depend on gate count), routes the run
    through the density-matrix engine; without it the run stays a state
    vector.  Either final state rho is reduced to four values, and every
    metric is read from them: the mass on clock label 0, <a|rho|a> for the
    ideal clock-0 [b | ancilla] block a, Tr rho^2, and the clock-traced
    [b | ancilla] state, whose ancilla = 1 block gives x_quantum.  Raises
    RegisterTooWide before building anything when the engine's peak, or
    the circuit, would exceed MAX_STATE_BYTES.
    """
    _require_within_budget(sys, cfg, density=noise_builder is not None, run=True)
    cfg = resolve_config(sys, cfg)
    c = build_circuit(sys, cfg)
    t = cfg.clock_qubits
    a = _ideal_final_state(sys, cfg)
    # |0..0>|b>|0>: b in the even (ancilla 0) slots of the clock label 0 block
    amplitudes = np.zeros(2**t * a.size, dtype=complex)
    amplitudes[: a.size : 2] = sys.b
    initial = qcore._derived(PureState, qcore._freeze(amplitudes))

    final = final_density = None
    if noise_builder is None:
        final = qcirc.run_circuit(initial, c)
        # rows are the clock labels; a pure state's purity is its squared norm, squared
        v = final.amplitudes.reshape(2**t, a.size)
        clock0 = np.sum(np.abs(v[0]) ** 2)
        overlap = abs(np.vdot(a, v[0])) ** 2
        purity = np.vdot(v, v).real ** 2
        sigma = v.T @ v.conj()
    else:
        final_density = qcirc.evolve_density(initial.density(), c, noise_builder(c))
        r = final_density.matrix.reshape(2**t, a.size, 2**t, a.size)
        clock0 = np.trace(r[0, :, 0, :]).real
        overlap = np.vdot(a, r[0, :, 0, :] @ a).real
        purity = final_density.purity()
        sigma = np.einsum("kikj->ij", r)

    # the ancilla is the last qubit, so odd indices of sigma hold its ancilla = 1 block
    branch = sigma[1::2, 1::2]
    prob = float(np.trace(branch).real)
    if prob <= qcore.MIN_BRANCH_PROBABILITY:
        raise ZeroProbabilityBranch(f"post-selection probability {prob:.3e} below {qcore.MIN_BRANCH_PROBABILITY:g}")
    rho_b = qcore._derived(DensityMatrix, qcore._freeze(branch / prob))
    # qcore.fidelity against |a><a|, clamped to [0, 1] as there
    fid = min(max(overlap / (np.vdot(a, a).real * np.sqrt(purity)), 0.0), 1.0)
    x_quantum = canonical_phase(_dominant_vector(rho_b))
    x_classical = reference.direct_solve(sys.a, sys.b)
    x_classical = canonical_phase(x_classical / np.linalg.norm(x_classical))
    return SolveReport(
        x_quantum=x_quantum,
        x_classical=x_classical,
        success_probability=prob,
        fidelity_4q=float(fid),
        max_rel_error=max_relative_error(x_quantum, x_classical),
        clock_residual=float(1.0 - clock0),
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
    max_rel_error: float | None
    success_probability: float


def _sweep(sys: LinearSystem, parameter: str, values, cfg: SolverConfig, noise_builder) -> list[SweepRow]:
    rows = []
    for value in values:
        report = run_hhl(sys, replace(cfg, **{parameter: value}), noise_builder=noise_builder)
        rows.append(SweepRow(parameter, float(value), report.max_rel_error, report.success_probability))
    return rows


def sweep_r(
    sys: LinearSystem, r_values: Sequence[int], cfg: SolverConfig = SolverConfig(), *, noise_builder=None
) -> list[SweepRow]:
    """One pipeline run per rotation parameter r, the rest of ``cfg`` and ``noise_builder`` (see run_hhl) fixed."""
    return _sweep(sys, "r", r_values, cfg, noise_builder)


def sweep_t0(
    sys: LinearSystem, t0_values: Sequence[float], cfg: SolverConfig = SolverConfig(), *, noise_builder=None
) -> list[SweepRow]:
    """One pipeline run per evolution time scale t0 (approximate encodings allowed), as in sweep_r."""
    return _sweep(sys, "t0", t0_values, cfg, noise_builder)


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
    if not 0.0 <= ratio_sq < np.inf:
        raise ValueError(f"ratio_sq {ratio_sq!r} must be non-negative and finite")
    minv = np.linalg.inv(sys.a.real)
    root = np.sqrt(float(ratio_sq))
    tan_half = (root * minv[1, 0] - minv[0, 0]) / (minv[0, 1] - root * minv[1, 1])
    theta = 2.0 * np.arctan(tan_half)
    return float(theta % TWO_PI)
