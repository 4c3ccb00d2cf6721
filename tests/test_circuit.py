import numpy as np
import pytest

from hhlsim import circuit as qc
from hhlsim.errors import (
    IndexOutOfRange,
    WidthMismatch,
    ZeroProbabilityBranch,
)
from hhlsim.qcore import DensityMatrix, PureState, basis_state

H_MAT = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
S_MAT = np.array([[1.0, 0.0], [0.0, 1.0j]])


def ry(theta):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def embed_full(gate, n):
    """Dense oracle: build the full 2^n unitary by direct index arithmetic.

    Deliberately shares no code with the engine under test.
    """
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    if isinstance(gate, qc.Swap):
        for col in range(dim):
            bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
            bits[gate.qubit_a], bits[gate.qubit_b] = bits[gate.qubit_b], bits[gate.qubit_a]
            row = sum(b << (n - 1 - k) for k, b in enumerate(bits))
            m[row, col] = 1.0
        return m
    if isinstance(gate, qc.Hadamard):
        targets, block = (gate.qubit,), H_MAT
        controls = ()
    elif isinstance(gate, qc.ControlledUnitary):
        targets, block = gate.targets, gate.matrix
        controls = gate.controls
    else:
        targets, block = gate.targets, gate.matrix
        controls = ()
    k = len(targets)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        if any(bits[q] != v for q, v in controls):
            m[col, col] = 1.0
            continue
        v = sum(bits[t] << (k - 1 - i) for i, t in enumerate(targets))
        for w in range(2**k):
            new_bits = list(bits)
            for i, t in enumerate(targets):
                new_bits[t] = (w >> (k - 1 - i)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(new_bits))
            m[row, col] = block[w, v]
    return m


def random_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 6)
        if kind == 0:
            gates.append(qc.Hadamard(int(rng.integers(n))))
        elif kind == 1:
            gates.append(qc.ArbitraryUnitary((int(rng.integers(n)),), S_MAT))
        elif kind == 2:
            gates.append(qc.ArbitraryUnitary((int(rng.integers(n)),), ry(float(rng.normal()))))
        elif kind == 3 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(qc.Swap(int(a), int(b)))
        elif kind == 4 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append(qc.ControlledUnitary(((int(a), int(rng.integers(2))),), (int(b),), q))
        else:
            t = int(rng.integers(n))
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append(qc.ArbitraryUnitary((t,), q))
    return qc.Circuit(n, tuple(gates))


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(v / np.linalg.norm(v))


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = qc.apply_gate(basis_state(1, 0), qc.Hadamard(0))
        assert np.allclose(out.amplitudes, [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)

    def test_swap_exchanges_kets(self):
        out = qc.apply_gate(basis_state(2, 0b01), qc.Swap(0, 1))
        assert np.allclose(out.amplitudes, basis_state(2, 0b10).amplitudes, atol=1e-12)

    def test_phase_s_on_one(self):
        out = qc.apply_gate(basis_state(1, 1), qc.ArbitraryUnitary((0,), S_MAT))
        assert out.amplitudes[1] == pytest.approx(1.0j, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            qc.apply_gate(basis_state(1, 0), qc.Hadamard(1))

    def test_norm_preserved_on_random_gates(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, 4)
        for g in random_circuit(rng, 4, 40).gates:
            state = qc.apply_gate(state, g)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


class TestRunCircuit:
    def test_empty_circuit_is_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 3)
        out = qc.run_circuit(state, qc.Circuit(3, ()))
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_circuit_then_inverse(self):
        rng = np.random.default_rng(2)
        c = random_circuit(rng, 4, 25)
        state = random_state(rng, 4)
        back = qc.run_circuit(qc.run_circuit(state, c), c.inverse())
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            qc.run_circuit(basis_state(2, 0), qc.Circuit(3, ()))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dense_oracle_equivalence(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            c = random_circuit(rng, n, 12)
            full = np.eye(2**n, dtype=complex)
            for g in c.gates:
                full = embed_full(g, n) @ full
            state = random_state(rng, n)
            expected = full @ state.amplitudes
            got = qc.run_circuit(state, c).amplitudes
            assert np.max(np.abs(got - expected)) < 1e-9


class TestQft:
    def dense_qft(self, t):
        big_t = 2**t
        j, k = np.meshgrid(np.arange(big_t), np.arange(big_t), indexing="ij")
        return np.exp(2j * np.pi * j * k / big_t) / np.sqrt(big_t)

    def circuit_matrix(self, c):
        cols = [qc.run_circuit(basis_state(c.n_qubits, i), c).amplitudes for i in range(2**c.n_qubits)]
        return np.array(cols).T

    def test_single_qubit_qft_is_hadamard(self):
        assert np.max(np.abs(self.circuit_matrix(qc.qft(1)) - H_MAT)) < 1e-12

    def test_two_qubit_qft_on_zero(self):
        out = qc.run_circuit(basis_state(2, 0), qc.qft(2))
        assert np.allclose(out.amplitudes, np.full(4, 0.5), atol=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matrix_matches_dft(self, t):
        assert np.max(np.abs(self.circuit_matrix(qc.qft(t)) - self.dense_qft(t))) < 1e-10

    def test_qft_then_inverse(self):
        m = self.circuit_matrix(qc.qft(2))
        mi = self.circuit_matrix(qc.qft(2).inverse())
        assert np.max(np.abs(mi @ m - np.eye(4))) < 1e-10


class TestEvolveDensity:
    def test_matches_pure_state_engine(self):
        rng = np.random.default_rng(3)
        c = random_circuit(rng, 3, 15)
        state = random_state(rng, 3)
        rho_out = qc.evolve_density(state.density(), c)
        expected = qc.run_circuit(state, c).density()
        assert np.max(np.abs(rho_out.matrix - expected.matrix)) < 1e-10

    def test_zero_duration_dephasing_is_identity(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        c = qc.Circuit(1, (qc.ArbitraryUnitary((0,), ry(0.0)),))
        noise = (qc.NoiseEvent(0, (0,), qc.Dephasing(t2_star=1.0, duration=0.0)),)
        out = qc.evolve_density(plus.density(), c, noise)
        assert np.max(np.abs(out.matrix - plus.density().matrix)) < 1e-12

    def test_dephasing_decay_factor(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        c = qc.Circuit(1, (qc.ArbitraryUnitary((0,), ry(0.0)),))
        noise = (qc.NoiseEvent(0, (0,), qc.Dephasing(t2_star=1.0, duration=0.1)),)
        out = qc.evolve_density(plus.density(), c, noise)
        assert abs(out.matrix[0, 1]) == pytest.approx(0.5 * np.exp(-0.1), abs=1e-12)

    def test_trace_preserved_under_noise(self):
        rng = np.random.default_rng(4)
        c = random_circuit(rng, 3, 10)
        noise = qc.dephasing_schedule(c, 5.0, 50.0) + qc.pulse_error_schedule(c, 0.01)
        out = qc.evolve_density(random_state(rng, 3).density(), c, noise)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def kraus_reference(channel):
    """Textbook single-qubit Kraus set of a channel (Nielsen & Chuang 8.3)."""
    if isinstance(channel, qc.Dephasing):
        p = (1.0 - np.exp(-channel.duration / channel.t2_star)) / 2.0
        return (np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * PAULI_Z)
    p = channel.probability
    return (np.sqrt(1.0 - 0.75 * p) * np.eye(2),) + tuple(np.sqrt(p / 4.0) * P for P in (PAULI_X, PAULI_Y, PAULI_Z))


class TestNoiseChannels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "channel",
        [
            qc.Dephasing(t2_star=2.0, duration=0.3),
            qc.Dephasing(t2_star=1.0, duration=5.0),
            qc.DepolarizingPulseError(0.02),
            qc.DepolarizingPulseError(1.0),
        ],
        ids=["dephasing", "dephasing_strong", "depolarizing", "depolarizing_full"],
    )
    def test_apply_matches_kraus_sum(self, channel, n):
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        for q in range(n):
            full = [np.kron(np.kron(np.eye(2**q), k), np.eye(2 ** (n - q - 1))) for k in kraus_reference(channel)]
            expected = sum(k @ rho @ k.conj().T for k in full)
            tensor = rho.reshape([2] * (2 * n)).copy()
            channel.apply(tensor, q, n)
            out = tensor.reshape(2**n, 2**n)
            assert np.max(np.abs(out - expected)) < 1e-12
            assert abs(np.trace(out) - 1.0) < 1e-12


class TestMeasureQubit:
    def test_deterministic_outcome(self):
        prob, post = qc.measure_qubit(basis_state(1, 0), 0, 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(post.amplitudes, [1.0, 0.0])

    def test_uniform_superposition(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        prob, post = qc.measure_qubit(plus, 0, 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(post.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_inversion_form_state(self):
        # two-branch state (sqrt(1-c^2/l^2)|0> + (c/l)|1>) per branch, ancilla last
        c_tilde, lams, betas = 1.0, np.array([1.0, 2.0]), np.array([0.6, 0.8])
        amp = np.zeros(4, dtype=complex)
        for j in range(2):
            amp[2 * j] = betas[j] * np.sqrt(1.0 - (c_tilde / lams[j]) ** 2)
            amp[2 * j + 1] = betas[j] * c_tilde / lams[j]
        prob, _ = qc.measure_qubit(PureState(amp), 1, 1)
        expected = sum(abs(betas[j] * c_tilde / lams[j]) ** 2 for j in range(2))
        assert prob == pytest.approx(expected, abs=1e-12)

    def test_zero_probability_branch(self):
        with pytest.raises(ZeroProbabilityBranch):
            qc.measure_qubit(basis_state(1, 0), 0, 1)

    def test_density_matrix_measurement(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        prob, post = qc.measure_qubit(plus.density(), 0, 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(post.matrix - basis_state(1, 1).density().matrix)) < 1e-12


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        c = random_circuit(rng, 4, 20)
        c = qc.Circuit(c.n_qubits, c.gates, {"clock": (0, 1), "b": (2,), "ancilla": (3,)})
        back = qc.circuit_from_text(qc.circuit_to_text(c))
        assert back.n_qubits == c.n_qubits
        assert back.registers == dict(c.registers)
        state = random_state(rng, 4)
        a = qc.run_circuit(state, c).amplitudes
        b = qc.run_circuit(state, back).amplitudes
        assert np.max(np.abs(a - b)) == 0.0  # repr round-trip is exact

    def test_rejects_unknown_lines(self):
        with pytest.raises(ValueError):
            qc.circuit_from_text("QUBITS 2\nBOGUS 0\n")
