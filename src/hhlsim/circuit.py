"""Gate-model circuits with pure-state and density-matrix execution engines.

Gates act on a register whose qubit 0 is the most significant bit of the
basis-state index (see qcore).  Controlled gates carry explicit required
control values, not just control-on-one, because the conditional evolution
of the solver conditions on every clock basis value.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Swap:
    qubit_a: int
    qubit_b: int

    def __post_init__(self):
        if self.qubit_a == self.qubit_b:
            raise IndexOutOfRange("swap needs two distinct qubits")


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
class ArbitraryUnitary:
    targets: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        if len(set(targets)) != len(targets):
            raise IndexOutOfRange("target qubits must be distinct")
        m = qcore.require_unitary(self.matrix)
        if m.shape[0] != 2 ** len(targets):
            raise DimensionMismatch(
                f"{len(targets)} target qubits need a {2 ** len(targets)}-dim block, got {m.shape[0]}"
            )
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", qcore._freeze(m))


Gate = Union[Hadamard, Swap, ControlledUnitary, ArbitraryUnitary]


def gate_qubits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, Hadamard):
        return (g.qubit,)
    if isinstance(g, Swap):
        return (g.qubit_a, g.qubit_b)
    if isinstance(g, ControlledUnitary):
        return tuple(q for q, _ in g.controls) + g.targets
    return g.targets


def _gate_block(g: Gate) -> tuple[tuple[int, ...], np.ndarray]:
    """Target qubits and the matrix applied to them (controls handled separately)."""
    if isinstance(g, Hadamard):
        return (g.qubit,), _H
    if isinstance(g, (ControlledUnitary, ArbitraryUnitary)):
        return g.targets, g.matrix
    raise TypeError(f"unsupported gate {g!r}")


def gate_inverse(g: Gate) -> Gate:
    if isinstance(g, (Hadamard, Swap)):
        return g
    if isinstance(g, ControlledUnitary):
        return ControlledUnitary(g.controls, g.targets, g.matrix.conj().T)
    if isinstance(g, ArbitraryUnitary):
        return ArbitraryUnitary(g.targets, g.matrix.conj().T)
    raise TypeError(f"unsupported gate {g!r}")


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

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits, tuple(gate_inverse(g) for g in reversed(self.gates)), self.registers)


def _apply_block(tensor: np.ndarray, matrix: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Multiply ``matrix`` into the given tensor axes (first axis = block MSB)."""
    n = tensor.ndim
    k = len(axes)
    rest = [ax for ax in range(n) if ax not in axes]
    perm = list(axes) + rest
    inv = np.argsort(perm)
    t = tensor.transpose(perm).reshape(2**k, -1)
    t = matrix @ t
    return t.reshape([2] * n).transpose(inv)


def _apply_gate_tensor(tensor: np.ndarray, g: Gate, offset: int, conjugate: bool) -> np.ndarray:
    """Apply a gate to the tensor axes [offset, offset + n).

    ``conjugate`` selects the bra side of a density matrix, where the entry
    transformation rho -> U rho U^dagger multiplies conj(U) into the bra
    indices.
    """
    if isinstance(g, Swap):
        return np.swapaxes(tensor, g.qubit_a + offset, g.qubit_b + offset)
    targets, block = _gate_block(g)
    if conjugate:
        block = block.conj()
    controls = g.controls if isinstance(g, ControlledUnitary) else ()
    if not controls:
        return _apply_block(tensor, block, [q + offset for q in targets])
    idx = [slice(None)] * tensor.ndim
    for q, v in controls:
        idx[q + offset] = v
    idx = tuple(idx)
    sub = tensor[idx]
    # integer indexing removed the control axes; shift target positions
    removed = sorted(q + offset for q, _ in controls)
    adj = []
    for q in targets:
        ax = q + offset
        adj.append(ax - sum(1 for r in removed if r < ax))
    out = tensor.copy()
    out[idx] = _apply_block(sub, block, adj)
    return out


def apply_gate(state: PureState, g: Gate) -> PureState:
    """Apply one gate to a pure state; preserves the norm to rounding."""
    n = state.n_qubits
    qs = gate_qubits(g)
    if any(q < 0 or q >= n for q in qs):
        raise IndexOutOfRange(f"gate {g!r} outside 0..{n - 1}")
    tensor = state.amplitudes.reshape([2] * n)
    return PureState(_apply_gate_tensor(tensor, g, 0, False).reshape(-1))


def run_circuit(state: PureState, c: Circuit) -> PureState:
    """Apply the circuit's gates left to right."""
    if state.n_qubits != c.n_qubits:
        raise WidthMismatch(f"state has {state.n_qubits} qubits, circuit {c.n_qubits}")
    tensor = state.amplitudes.reshape([2] * c.n_qubits)
    for g in c.gates:
        tensor = _apply_gate_tensor(tensor, g, 0, False)
    return PureState(tensor.reshape(-1))


def qft(t: int) -> Circuit:
    """Quantum Fourier transform on ``t`` qubits.

    The circuit's matrix is F[j, k] = exp(2*pi*i*j*k / 2**t) / 2**(t/2):
    Hadamards with controlled phase gates, then a bit reversal.  For t = 2
    the single controlled phase is exactly a controlled S.
    """
    if t < 1:
        raise DimensionMismatch("QFT needs at least one qubit")
    gates: list[Gate] = []
    for i in range(t):
        gates.append(Hadamard(i))
        for j in range(i + 1, t):
            phi = 2.0 * np.pi / 2 ** (j - i + 1)
            phase = np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)
            gates.append(ControlledUnitary(((j, 1),), (i,), phase))
    for i in range(t // 2):
        gates.append(Swap(i, t - 1 - i))
    return Circuit(t, tuple(gates))


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
        if self.t2_star <= 0.0:
            raise ValueError("t2_star must be positive")
        if self.duration < 0.0:
            raise ValueError("duration must be non-negative")

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
    by_slot: dict[int, list[NoiseEvent]] = {}
    for ev in noise:
        if not -1 <= ev.after_gate < len(c.gates):
            raise IndexOutOfRange(f"noise event after_gate {ev.after_gate} outside circuit")
        by_slot.setdefault(ev.after_gate, []).append(ev)

    # channels write in place, so the evolved tensor owns its memory
    tensor = rho.matrix.reshape([2] * (2 * n)).copy()

    def apply_events(slot: int, t: np.ndarray) -> None:
        for ev in by_slot.get(slot, ()):
            for q in ev.qubits:
                if q < 0 or q >= n:
                    raise IndexOutOfRange(f"noise event qubit {q} outside register")
                ev.channel.apply(t, q, n)

    apply_events(-1, tensor)
    for i, g in enumerate(c.gates):
        tensor = _apply_gate_tensor(tensor, g, 0, False)
        tensor = _apply_gate_tensor(tensor, g, n, True)
        apply_events(i, tensor)
    return DensityMatrix(tensor.reshape(2**n, 2**n))


# ---------------------------------------------------------------------------
# Measurement


def _measure_pure(state: PureState, q: int, outcome: int) -> tuple[float, PureState]:
    n = state.n_qubits
    tensor = state.amplitudes.reshape([2] * n)
    idx = [slice(None)] * n
    idx[q] = outcome
    branch = tensor[tuple(idx)]
    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < 1e-14:
        raise ZeroProbabilityBranch(f"outcome {outcome} on qubit {q} has probability {prob:.3e}")
    post = np.zeros_like(tensor)
    post[tuple(idx)] = branch / np.sqrt(prob)
    return prob, PureState(post.reshape(-1))


def _measure_density(rho: DensityMatrix, q: int, outcome: int) -> tuple[float, DensityMatrix]:
    n = rho.n_qubits
    tensor = rho.matrix.reshape([2] * (2 * n))
    block = _block(q, n, outcome, outcome)
    t = np.zeros_like(tensor)
    t[block] = tensor[block]
    m = t.reshape(2**n, 2**n)
    prob = float(np.real(np.trace(m)))
    if prob < 1e-14:
        raise ZeroProbabilityBranch(f"outcome {outcome} on qubit {q} has probability {prob:.3e}")
    return prob, DensityMatrix(m / prob)


def measure_qubit(state, q: int, outcome: int):
    """Probability of ``outcome`` on qubit ``q`` and the renormalized post state.

    Accepts a PureState or a DensityMatrix.  Raises ZeroProbabilityBranch
    when the requested branch has probability below 1e-14.
    """
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    n = state.n_qubits
    if q < 0 or q >= n:
        raise IndexOutOfRange(f"qubit {q} outside 0..{n - 1}")
    if isinstance(state, PureState):
        return _measure_pure(state, q, outcome)
    if isinstance(state, DensityMatrix):
        return _measure_density(state, q, outcome)
    raise TypeError("state must be a PureState or DensityMatrix")


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
        elif isinstance(g, Swap):
            lines.append(f"SWAP {g.qubit_a} {g.qubit_b}")
        elif isinstance(g, ControlledUnitary):
            ctrl = ",".join(f"{q}:{v}" for q, v in g.controls)
            tgt = ",".join(str(q) for q in g.targets)
            lines.append(f"CU {ctrl} {tgt} {_fmt_matrix(g.matrix)}")
        elif isinstance(g, ArbitraryUnitary):
            tgt = ",".join(str(q) for q in g.targets)
            lines.append(f"U {tgt} {_fmt_matrix(g.matrix)}")
        else:
            raise TypeError(f"unsupported gate {g!r}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    n_qubits = None
    registers: dict[str, tuple[int, ...]] = {}
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0].upper()
        if kind == "QUBITS":
            n_qubits = int(parts[1])
        elif kind == "REGISTER":
            registers[parts[1]] = tuple(int(p) for p in parts[2:])
        elif kind == "H":
            gates.append(Hadamard(int(parts[1])))
        elif kind == "SWAP":
            gates.append(Swap(int(parts[1]), int(parts[2])))
        elif kind == "CU":
            controls = tuple(
                (int(pair.split(":")[0]), int(pair.split(":")[1])) for pair in parts[1].split(",")
            )
            targets = tuple(int(x) for x in parts[2].split(","))
            gates.append(ControlledUnitary(controls, targets, _parse_matrix(parts[3])))
        elif kind == "U":
            targets = tuple(int(x) for x in parts[1].split(","))
            gates.append(ArbitraryUnitary(targets, _parse_matrix(parts[2])))
        else:
            raise ValueError(f"unknown gate line: {raw!r}")
    if n_qubits is None:
        raise ValueError("circuit text is missing the QUBITS header")
    return Circuit(n_qubits, tuple(gates), registers)
