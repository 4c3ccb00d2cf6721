"""Gate-model circuits with pure-state and density-matrix execution engines.

Gates act on a register whose qubit 0 is the most significant bit of the
basis-state index (see qcore).  Controlled gates carry explicit required
control values.  The solver's label-keyed eigenvalue inversion is one
MultiplexedRy, a rotation whose angle the clock label selects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from . import qcore
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    WidthMismatch,
    ZeroProbabilityBranch,
)
from .qcore import DensityMatrix, PureState

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class Hadamard:
    qubit: int


@dataclass(frozen=True, eq=False)
class ControlledUnitary:
    """Apply ``matrix`` to ``targets`` when every control has its required value.

    ``controls`` is a tuple of (qubit, required_bit) pairs; ``targets`` lists
    the block's qubits with the first entry as the block's most significant
    bit.
    """

    controls: tuple[tuple[int, int], ...]
    targets: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        controls = tuple((int(q), int(v)) for q, v in self.controls)
        targets = tuple(int(q) for q in self.targets)
        if any(v not in (0, 1) for _, v in controls):
            raise ValueError("control values must be 0 or 1")
        touched = [q for q, _ in controls] + list(targets)
        if len(set(touched)) != len(touched):
            raise IndexOutOfRange("control and target qubits must be distinct")
        m = qcore.require_unitary(self.matrix)
        if m.shape[0] != 2 ** len(targets):
            raise DimensionMismatch(
                f"{len(targets)} target qubits need a {2 ** len(targets)}-dim block, got {m.shape[0]}"
            )
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", qcore._freeze(m))


@dataclass(frozen=True, eq=False)
class MultiplexedRy:
    """Ry(angles[k]) on ``target`` when the ``selectors`` hold label k, read least
    significant bit first (Mottonen et al., quant-ph/0404089)."""

    selectors: tuple[int, ...]
    target: int
    angles: np.ndarray

    def __post_init__(self):
        selectors = tuple(int(q) for q in self.selectors)
        target = int(self.target)
        if not selectors or len(set(selectors + (target,))) != len(selectors) + 1:
            raise IndexOutOfRange("needs one or more selectors, all distinct from the target")
        angles = np.asarray(self.angles, dtype=float)
        if angles.shape != (2 ** len(selectors),):
            raise DimensionMismatch(f"{len(selectors)} selectors need {2 ** len(selectors)} angles, got {angles.size}")
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "selectors", selectors)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "angles", qcore._freeze(angles))


Gate = Union[Hadamard, ControlledUnitary, MultiplexedRy]


def gate_qubits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, Hadamard):
        return (g.qubit,)
    if isinstance(g, MultiplexedRy):
        return g.selectors + (g.target,)
    return tuple(q for q, _ in g.controls) + g.targets


def gate_inverse(g: Gate) -> Gate:
    if isinstance(g, Hadamard):
        return g
    if isinstance(g, MultiplexedRy):
        return qcore._derived(MultiplexedRy, g.selectors, g.target, qcore._freeze(-g.angles))
    return qcore._derived(ControlledUnitary, g.controls, g.targets, qcore._freeze(g.matrix.conj().T))


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate list over ``n_qubits`` with named register roles."""

    n_qubits: int
    gates: tuple[Gate, ...]
    registers: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "registers", dict(self.registers))
        for g in self.gates:
            qs = gate_qubits(g)
            if any(q < 0 or q >= self.n_qubits for q in qs):
                raise IndexOutOfRange(f"gate {g!r} outside 0..{self.n_qubits - 1}")

    def __len__(self) -> int:
        return len(self.gates)


@functools.lru_cache(maxsize=None)
def _plan(ndim: int, targets: tuple[int, ...], controls: tuple[tuple[int, int], ...], offset: int) -> tuple:
    """Index of the slice the controls select, and the axis order of that slice that puts the targets first."""
    idx = [slice(None)] * ndim
    for q, v in controls:
        idx[q + offset] = v
    # integer indexing removed the control axes; shift target positions
    axes = [q + offset - sum(c < q for c, _ in controls) for q in targets]
    rest = [ax for ax in range(ndim - len(controls)) if ax not in axes]
    return tuple(idx), tuple(axes + rest)


# Up to this many entries after a Hadamard's axis, one matmul of all rows by
# H (x) 1_after is faster than a matmul call per (2, after) block.
_SHORT_ROWS = 16


@functools.lru_cache(maxsize=None)
def _hadamard_rows(after: int) -> np.ndarray:
    """H (x) 1_after, which applies H to rows [x_0 | x_1] of 2 * after entries from the right (H is symmetric)."""
    return qcore._freeze(np.kron(_H, np.eye(after)))


@functools.lru_cache(maxsize=None)
def _halves(ndim: int, target: int, controls: tuple[tuple[int, int], ...], offset: int) -> tuple:
    """Indices of the target = 0 and target = 1 halves of the slice the controls select."""
    idx = [slice(None)] * ndim
    for q, v in controls:
        idx[q + offset] = v
    idx[target + offset] = 0
    zero = tuple(idx)
    idx[target + offset] = 1
    return zero, tuple(idx)


@functools.lru_cache(maxsize=None)
def _selector_plan(ndim: int, selectors: tuple[int, ...], target: int, offset: int) -> tuple:
    """Shapes and axis order that lay a MultiplexedRy's angle table over a
    target half of the tensor (the target axis indexed away).

    The table is keyed by the label, which reads ``selectors`` least
    significant bit first, so its (2,) * s reshape has axis a on
    selectors[s - 1 - a]; the permutation puts those axes in ascending qubit
    order, and the broadcast shape spreads them over the selector axes.
    """
    s = len(selectors)
    ascending = tuple(sorted(range(s), key=lambda a: selectors[s - 1 - a]))
    shape = [1] * (ndim - 1)
    for q in selectors:
        shape[q + offset - (q > target)] = 2
    return (2,) * s, ascending, tuple(shape)


def _apply_gate_tensor(tensor: np.ndarray, g: Gate, offset: int, conjugate: bool) -> None:
    """Apply a gate in place to the tensor axes [offset, offset + n).

    ``tensor`` is C-contiguous.  A Hadamard is one matmul on the
    (before, 2, after) view of its axis, or, for many short blocks, of the
    (before, 2 * after) rows by H (x) 1_after.  A diagonal single-target block
    (every QFT phase) scales the target half, or halves, it changes inside
    the slice its controls select.  A MultiplexedRy rotates the target halves
    by cosines and sines broadcast over its selector axes.  Any other block
    multiplies the slice its controls select, targets moved first.
    ``conjugate`` selects the bra side of a density matrix, where
    rho -> U rho U^dagger multiplies conj(U) into the bra indices; H and Ry
    are real.
    """
    ndim = tensor.ndim
    if isinstance(g, Hadamard):
        before, after = 2 ** (g.qubit + offset), 2 ** (ndim - 1 - g.qubit - offset)
        # a single block is one matmul call already
        if before > 1 and after <= _SHORT_ROWS:
            rows = tensor.reshape(before, 2 * after)
            np.matmul(rows, _hadamard_rows(after), out=rows)
        else:
            v = tensor.reshape(before, 2, after)
            np.matmul(_H, v, out=v)
        return
    if isinstance(g, MultiplexedRy):
        labels, ascending, shape = _selector_plan(ndim, g.selectors, g.target, offset)
        half = g.angles.reshape(labels).transpose(ascending) / 2.0
        c, s = np.cos(half).reshape(shape), np.sin(half).reshape(shape)
        zero, one = _halves(ndim, g.target, (), offset)
        a0, a1 = tensor[zero], tensor[one]
        rotated0 = a0 * c
        rotated0 -= a1 * s
        a1 *= c
        a1 += a0 * s
        a0[...] = rotated0
        return
    m = g.matrix
    if len(g.targets) == 1 and m.item(1) == 0 and m.item(2) == 0:
        for half, d in zip(_halves(ndim, g.targets[0], g.controls, offset), (m.item(0), m.item(3))):
            if d != 1:
                tensor[half] *= d.conjugate() if conjugate else d
        return
    block = m.conj() if conjugate else m
    idx, perm = _plan(ndim, g.targets, g.controls, offset)
    view = tensor[idx].transpose(perm)
    view[...] = (block @ view.reshape(block.shape[0], -1)).reshape(view.shape)


def run_circuit(state: PureState, c: Circuit) -> PureState:
    """Apply the circuit's gates left to right."""
    if state.n_qubits != c.n_qubits:
        raise WidthMismatch(f"state has {state.n_qubits} qubits, circuit {c.n_qubits}")
    # gates write in place, so the evolved tensor owns its memory
    tensor = state.amplitudes.reshape([2] * c.n_qubits).copy()
    for g in c.gates:
        _apply_gate_tensor(tensor, g, 0, False)
    return qcore._derived(PureState, qcore._freeze(tensor.reshape(-1)))


@functools.lru_cache(maxsize=None)
def _qft_gates(t: int) -> tuple[Gate, ...]:
    """Quantum Fourier transform on qubits 0..t-1, without the final bit reversal.

    Hadamards with controlled phase gates.  Their matrix is
    F[j, k] = exp(2*pi*i*j*k / 2**t) / 2**(t/2) with its output qubits
    reversed: input |k> (qubit 0 = MSB) leaves F|k> with qubit 0 as the
    least significant bit.  For t = 2 the single controlled phase is exactly
    a controlled S.
    """
    gates: list[Gate] = []
    for i in range(t):
        gates.append(Hadamard(i))
        for j in range(i + 1, t):
            phi = 2.0 * np.pi / 2 ** (j - i + 1)
            phase = qcore._freeze(np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=complex))
            gates.append(qcore._derived(ControlledUnitary, ((j, 1),), (i,), phase))
    return tuple(gates)


@functools.lru_cache(maxsize=None)
def _inverse_qft_gates(t: int) -> tuple[Gate, ...]:
    """The inverse of ``_qft_gates(t)``: its gates inverted, in reverse order."""
    return tuple(gate_inverse(g) for g in reversed(_qft_gates(t)))


# ---------------------------------------------------------------------------
# Noise channels


def _block(q: int, n: int, ket: int, bra: int) -> tuple:
    """Index of the |ket><bra| block of qubit ``q`` in a 2n-axis density tensor."""
    idx = [slice(None)] * (2 * n)
    idx[q] = ket
    idx[q + n] = bra
    return tuple(idx)


@dataclass(frozen=True, eq=False)
class Dephasing:
    """Single-qubit phase damping: off-diagonals decay by exp(-duration/t2_star)."""

    t2_star: float
    duration: float

    def __post_init__(self):
        # written so that NaN fails them
        if not self.t2_star > 0.0:
            raise ValueError("t2_star must be positive")
        if not 0.0 <= self.duration < np.inf:
            raise ValueError("duration must be non-negative and finite")

    def apply(self, tensor: np.ndarray, q: int, n: int) -> None:
        """Scale qubit ``q``'s off-diagonal blocks of ``tensor`` in place."""
        decay = np.exp(-self.duration / self.t2_star)
        tensor[_block(q, n, 0, 1)] *= decay
        tensor[_block(q, n, 1, 0)] *= decay


@dataclass(frozen=True, eq=False)
class DepolarizingPulseError:
    """Single-qubit depolarizing error of the given probability."""

    probability: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")

    def apply(self, tensor: np.ndarray, q: int, n: int) -> None:
        """rho -> (1 - p) rho + p Tr_q(rho) (x) I/2 on qubit ``q``, in place."""
        p = self.probability
        diag0, diag1 = _block(q, n, 0, 0), _block(q, n, 1, 1)
        mixed = (tensor[diag0] + tensor[diag1]) * (p / 2.0)
        tensor *= 1.0 - p
        tensor[diag0] += mixed
        tensor[diag1] += mixed


NoiseChannel = Union[Dephasing, DepolarizingPulseError]


@dataclass(frozen=True)
class NoiseEvent:
    """Apply ``channel`` to each listed qubit after gate ``after_gate`` (-1 = before the first)."""

    after_gate: int
    qubits: tuple[int, ...]
    channel: NoiseChannel


def dephasing_schedule(c: Circuit, total_duration: float, t2_star) -> tuple[NoiseEvent, ...]:
    """Spread a total dephasing duration uniformly over the circuit's gates.

    ``t2_star`` is a scalar or one value per qubit (same units as the
    duration).  Every qubit dephases after every gate, so the whole state
    sees the full duration once the circuit completes.
    """
    if len(c) == 0:
        return ()
    t2 = np.broadcast_to(np.asarray(t2_star, dtype=float), (c.n_qubits,))
    per_gate = float(total_duration) / len(c)
    events = []
    for i in range(len(c)):
        for q in range(c.n_qubits):
            events.append(NoiseEvent(i, (q,), Dephasing(float(t2[q]), per_gate)))
    return tuple(events)


def pulse_error_schedule(c: Circuit, per_gate_probability: float) -> tuple[NoiseEvent, ...]:
    """Depolarizing error on every qubit a gate touches, after each gate."""
    channel = DepolarizingPulseError(per_gate_probability)
    return tuple(NoiseEvent(i, gate_qubits(g), channel) for i, g in enumerate(c.gates))


def evolve_density(
    rho: DensityMatrix,
    c: Circuit,
    noise: Sequence[NoiseEvent] = (),
) -> DensityMatrix:
    """Evolve a density matrix through the circuit with optional noise events.

    With an empty schedule this agrees with run_circuit lifted to
    |psi><psi|; every channel is trace preserving, so the trace is conserved
    to rounding.
    """
    n = c.n_qubits
    if rho.n_qubits != n:
        raise WidthMismatch(f"state has {rho.n_qubits} qubits, circuit {n}")
    # every event is checked before the first gate runs
    by_slot: dict[int, list[NoiseEvent]] = {}
    for ev in noise:
        # a fractional slot matches no gate index, so it would silently never apply
        if not (isinstance(ev.after_gate, (int, np.integer)) and -1 <= ev.after_gate < len(c.gates)):
            raise IndexOutOfRange(f"noise event after_gate {ev.after_gate!r} is not a gate index of the circuit")
        if not all(isinstance(q, (int, np.integer)) and 0 <= q < n for q in ev.qubits):
            raise IndexOutOfRange(f"noise event qubits {ev.qubits} are not qubits of the register")
        by_slot.setdefault(ev.after_gate, []).append(ev)

    # channels write in place, so the evolved tensor owns its memory
    tensor = rho.matrix.reshape([2] * (2 * n)).copy()

    for i in range(-1, len(c.gates)):
        if i >= 0:
            _apply_gate_tensor(tensor, c.gates[i], 0, False)
            _apply_gate_tensor(tensor, c.gates[i], n, True)
        for ev in by_slot.get(i, ()):
            for q in ev.qubits:
                ev.channel.apply(tensor, q, n)
    return qcore._derived(DensityMatrix, qcore._freeze(tensor.reshape(2**n, 2**n)))


# ---------------------------------------------------------------------------
# Measurement


def measure_qubit(rho: DensityMatrix, q: int, outcome: int) -> tuple[float, DensityMatrix]:
    """Probability of ``outcome`` on qubit ``q`` and the renormalized post state.

    Raises ZeroProbabilityBranch when the requested branch has probability
    at or below ``qcore.MIN_BRANCH_PROBABILITY``.
    """
    if not isinstance(rho, DensityMatrix):
        raise TypeError("rho must be a DensityMatrix")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    n = rho.n_qubits
    if q < 0 or q >= n:
        raise IndexOutOfRange(f"qubit {q} outside 0..{n - 1}")
    tensor = rho.matrix.reshape([2] * (2 * n))
    block = _block(q, n, outcome, outcome)
    t = np.zeros_like(tensor)
    t[block] = tensor[block]
    m = t.reshape(2**n, 2**n)
    prob = float(np.real(np.trace(m)))
    if prob <= qcore.MIN_BRANCH_PROBABILITY:
        raise ZeroProbabilityBranch(f"outcome {outcome} on qubit {q} has probability {prob:.3e}")
    return prob, qcore._derived(DensityMatrix, qcore._freeze(m / prob))


# ---------------------------------------------------------------------------
# Line-oriented serialization (one gate per line, full precision)


def _fmt_complex(z: complex) -> str:
    return repr(complex(z)).replace(" ", "")


def _fmt_matrix(m: np.ndarray) -> str:
    return ";".join(",".join(_fmt_complex(z) for z in row) for row in np.asarray(m))


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[complex(tok) for tok in row.split(",")] for row in text.split(";")]
    return np.array(rows, dtype=complex)


def circuit_to_text(c: Circuit) -> str:
    lines = [f"QUBITS {c.n_qubits}"]
    for name, qs in c.registers.items():
        lines.append("REGISTER " + name + " " + " ".join(str(q) for q in qs))
    for g in c.gates:
        if isinstance(g, Hadamard):
            lines.append(f"H {g.qubit}")
        elif isinstance(g, ControlledUnitary):
            tgt = ",".join(str(q) for q in g.targets)
            if g.controls:
                ctrl = ",".join(f"{q}:{v}" for q, v in g.controls)
                lines.append(f"CU {ctrl} {tgt} {_fmt_matrix(g.matrix)}")
            else:
                lines.append(f"U {tgt} {_fmt_matrix(g.matrix)}")
        elif isinstance(g, MultiplexedRy):
            lines.append(f"MRY {','.join(map(str, g.selectors))} {g.target} {','.join(map(repr, g.angles.tolist()))}")
        else:
            raise TypeError(f"unsupported gate {g!r}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse circuit_to_text output; a malformed line raises ValueError naming it."""
    n_qubits = None
    registers: dict[str, tuple[int, ...]] = {}
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        kind = kind.upper()
        try:  # a missing or extra field fails its unpacking with ValueError
            if kind == "QUBITS":
                (n,) = fields
                n_qubits = int(n)
            elif kind == "REGISTER":
                name, *qubits = fields
                registers[name] = tuple(int(q) for q in qubits)
            elif kind == "H":
                (q,) = fields
                gates.append(Hadamard(int(q)))
            elif kind == "CU":
                ctrl, tgt, matrix = fields
                controls = [pair.split(":") for pair in ctrl.split(",")]
                gates.append(ControlledUnitary(controls, tgt.split(","), _parse_matrix(matrix)))
            elif kind == "U":
                tgt, matrix = fields
                gates.append(ControlledUnitary((), tgt.split(","), _parse_matrix(matrix)))
            elif kind == "MRY":
                sel, tgt, angles = fields
                gates.append(MultiplexedRy(sel.split(","), int(tgt), [float(a) for a in angles.split(",")]))
            else:
                raise ValueError("unknown gate kind")
        except ValueError as exc:
            raise ValueError(f"malformed circuit line {raw!r}: {exc}") from exc
    if n_qubits is None:
        raise ValueError("circuit text is missing the QUBITS header")
    return Circuit(n_qubits, tuple(gates), registers)
