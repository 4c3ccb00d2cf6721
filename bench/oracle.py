"""Reference computations for the benchmark's correctness checks.

Everything here is written with numpy alone and calls nothing in hhlsim, so
a check compares the program against a computation made apart from it: the
direct solve, the eigenbasis formulas of the method, full-register unitaries
and Kraus operators built with ``numpy.kron``, and readout-pulse unitaries
assembled from their names.  Qubit 0 is the most significant bit of a basis
index, as in the program.
"""

from __future__ import annotations

from functools import cache

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_C = 1.0 / np.sqrt(2.0)
PULSE_LETTERS = {
    "E": I2,
    "X": np.array([[_C, -1j * _C], [-1j * _C, _C]]),  # pi/2 about x
    "Y": np.array([[_C, -_C], [_C, _C]], dtype=complex),  # pi/2 about y
}


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return v / np.linalg.norm(v)


def solution(a, b) -> np.ndarray:
    """Normalized solution of A x = b by numpy's LAPACK solve."""
    return unit(np.linalg.solve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def overlap_sq(x, y) -> float:
    """|<x|y>|^2 of the two normalized vectors; 1 means equal up to phase."""
    return float(abs(np.vdot(unit(x), unit(y))) ** 2)


def _branch_sines(lam: np.ndarray, mode: str, r: int, c_tilde: float) -> np.ndarray:
    """Ancilla |1> amplitude of eigenvalue branch j after the inversion rotation."""
    if mode == "linear":
        return np.sin(((2.0 * np.pi / 2**r) / lam) / 2.0)
    return c_tilde / lam


def success_probability(a, b, mode: str, r: int, c_tilde: float | None = None) -> float:
    """sum_j |beta_j|^2 sin^2(theta_j/2) (linear) or sum_j |beta_j|^2 (c/lambda_j)^2 (exact)."""
    lam, vecs = np.linalg.eigh(np.asarray(a, dtype=complex))
    beta = vecs.conj().T @ unit(b)
    c = lam.min() if c_tilde is None else c_tilde
    return float(np.sum(np.abs(beta) ** 2 * _branch_sines(lam, mode, r, c) ** 2))


def ideal_final_state(a, b, clock_qubits: int, mode: str, r: int, c_tilde: float | None = None) -> np.ndarray:
    """|0..0>_clock (x) sum_j beta_j |u_j> (x) (cos|0> + sin|1>) for an exactly encoded spectrum."""
    lam, vecs = np.linalg.eigh(np.asarray(a, dtype=complex))
    beta = vecs.conj().T @ unit(b)
    c = lam.min() if c_tilde is None else c_tilde
    s = _branch_sines(lam, mode, r, c)
    body = np.zeros(2 * len(lam), dtype=complex)
    for j in range(len(lam)):
        body += beta[j] * np.kron(vecs[:, j], np.array([np.sqrt(1.0 - s[j] ** 2), s[j]]))
    clock0 = np.zeros(2**clock_qubits)
    clock0[0] = 1.0
    return np.kron(clock0, body)


def overlap_fidelity(rho, sigma) -> float:
    """Tr(rho sigma) / sqrt(Tr rho^2 Tr sigma^2), the program's state-overlap measure."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    cross = np.sum(rho * sigma.T).real
    return float(cross / np.sqrt(np.sum(rho * rho.T).real * np.sum(sigma * sigma.T).real))


# ---------------------------------------------------------------------------
# Full-register operators


def embed(ops: dict, n: int) -> np.ndarray:
    """Kronecker product over qubits 0..n-1 of ``ops[q]`` (identity where absent)."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, ops.get(q, I2))
    return out


def _unit_op(i: int, j: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    m[i, j] = 1.0
    return m


def controlled(controls, targets, block, n: int) -> np.ndarray:
    """(I - P) + P (x) block on ``targets``, P the projector onto the control pattern.

    ``block`` is expanded into elementary products |i><j| per target qubit,
    the first target being the block's most significant bit.
    """
    proj = {q: _unit_op(v, v) for q, v in controls}
    k = len(targets)
    u = np.eye(2**n, dtype=complex) - embed(proj, n)
    for i in range(2**k):
        for j in range(2**k):
            if block[i, j] == 0:
                continue
            ops = dict(proj)
            for pos, q in enumerate(targets):
                shift = k - 1 - pos
                ops[q] = _unit_op((i >> shift) & 1, (j >> shift) & 1)
            u = u + block[i, j] * embed(ops, n)
    return u


def gate_action(gate) -> tuple[tuple, tuple, np.ndarray]:
    """(controls, targets, block) of one of the program's gate records."""
    kind = type(gate).__name__
    if kind == "Hadamard":
        return (), (gate.qubit,), H
    if kind == "Swap":
        return (), (gate.qubit_a, gate.qubit_b), SWAP
    if kind == "ControlledUnitary":
        return tuple(gate.controls), tuple(gate.targets), np.asarray(gate.matrix)
    if kind == "ArbitraryUnitary":
        return (), tuple(gate.targets), np.asarray(gate.matrix)
    raise TypeError(f"no reference operator for gate type {kind}")


def noisy_evolution(gates, n: int, psi0, total_duration: float, t2_star: float, p_gate: float) -> np.ndarray:
    """rho after each gate U rho U^dagger, then phase damping on every qubit and
    depolarizing on the qubits the gate touched, all as full-register Kraus products.
    """
    decay = np.exp(-(total_duration / len(gates)) / t2_star)
    pz = (1.0 - decay) / 2.0
    dephase = (np.sqrt(1.0 - pz) * I2, np.sqrt(pz) * Z)
    depolarize = (np.sqrt(1.0 - 0.75 * p_gate) * I2,) + tuple(np.sqrt(p_gate / 4.0) * P for P in (X, Y, Z))

    def channel(rho, kraus, q):
        full = [embed({q: k}, n) for k in kraus]
        return sum(k @ rho @ k.conj().T for k in full)

    psi0 = np.asarray(psi0, dtype=complex)
    rho = np.outer(psi0, psi0.conj())
    for g in gates:
        controls, targets, block = gate_action(g)
        u = controlled(controls, targets, block, n)
        rho = u @ rho @ u.conj().T
        for q in range(n):
            rho = channel(rho, dephase, q)
        for q in [c for c, _ in controls] + list(targets):
            rho = channel(rho, depolarize, q)
    return rho


# ---------------------------------------------------------------------------
# Readout pulses on the four-qubit register


@cache
def pulse_unitary(name: str) -> np.ndarray:
    """Operator of a pulse name such as ``YEEE*swap13``: segments multiply left to right."""
    op = np.eye(16, dtype=complex)
    for seg in name.split("*"):
        if seg.startswith("swap"):
            i, j = int(seg[4]) - 1, int(seg[5]) - 1
            m = sum(embed({i: _unit_op(a, b), j: _unit_op(b, a)}, 4) for a in (0, 1) for b in (0, 1))
        else:
            m = embed({q: PULSE_LETTERS[ch] for q, ch in enumerate(seg)}, 4)
        op = op @ m
    return op


def line_amplitudes(rho, u) -> np.ndarray:
    """The eight carbon line amplitudes 2 <i| U rho U^dagger |i+8>."""
    post = u @ np.asarray(rho) @ u.conj().T
    return np.array([2.0 * post[i, i + 8] for i in range(8)])
