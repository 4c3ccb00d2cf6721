import re

import numpy as np
import pytest

from hhlsim import circuit as qc
from hhlsim import qcore
from hhlsim.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotUnitary,
    WidthMismatch,
    ZeroProbabilityBranch,
)
from hhlsim.qcore import DensityMatrix, PureState, basis_state

H_MAT = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
S_MAT = np.array([[1.0, 0.0], [0.0, 1.0j]])
SWAP_MAT = np.eye(4)[[0, 2, 1, 3]]


def ry(theta):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def embed_full(gate, n):
    """Dense oracle: build the full 2^n unitary by direct index arithmetic.

    Deliberately shares no code with the engine under test.
    """
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    if isinstance(gate, qc.Hadamard):
        targets, block = (gate.qubit,), H_MAT
        controls = ()
    else:
        targets, block = gate.targets, gate.matrix
        controls = gate.controls
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
            gates.append(qc.ControlledUnitary((), (int(rng.integers(n)),), S_MAT))
        elif kind == 2:
            gates.append(qc.ControlledUnitary((), (int(rng.integers(n)),), ry(float(rng.normal()))))
        elif kind == 3 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            gates.append(qc.ControlledUnitary((), (int(a), int(b)), q))
        elif kind == 4 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append(qc.ControlledUnitary(((int(a), int(rng.integers(2))),), (int(b),), q))
        else:
            t = int(rng.integers(n))
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            gates.append(qc.ControlledUnitary((), (t,), q))
    return qc.Circuit(n, tuple(gates))


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(v / np.linalg.norm(v))


def apply_one(state, g):
    return qc.run_circuit(state, qc.Circuit(state.n_qubits, (g,)))


def inverse_circuit(c):
    """The gates of ``c`` inverted one by one, in reverse order."""
    return qc.Circuit(c.n_qubits, tuple(qc.gate_inverse(g) for g in reversed(c.gates)))


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_one(basis_state(1, 0), qc.Hadamard(0))
        assert np.allclose(out.amplitudes, [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)

    def test_swap_exchanges_kets(self):
        out = apply_one(basis_state(2, 0b01), qc.ControlledUnitary((), (0, 1), SWAP_MAT))
        assert np.allclose(out.amplitudes, basis_state(2, 0b10).amplitudes, atol=1e-12)

    def test_phase_s_on_one(self):
        out = apply_one(basis_state(1, 1), qc.ControlledUnitary((), (0,), S_MAT))
        assert out.amplitudes[1] == pytest.approx(1.0j, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            apply_one(basis_state(1, 0), qc.Hadamard(1))

    def test_norm_preserved_on_random_gates(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, 4)
        for g in random_circuit(rng, 4, 40).gates:
            state = apply_one(state, g)
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
        back = qc.run_circuit(qc.run_circuit(state, c), inverse_circuit(c))
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


def label_keyed_rotations(selectors, target, angles):
    """Reference for MultiplexedRy: one Ry per label k, controlled on the
    selectors holding k least significant bit first."""
    return tuple(
        qc.ControlledUnitary(tuple((q, (k >> i) & 1) for i, q in enumerate(selectors)), (target,), ry(theta))
        for k, theta in enumerate(angles)
    )


class TestMultiplexedRy:
    @staticmethod
    def random_gate(rng, t):
        """A t-selector rotation on t + 2 qubits in shuffled positions (one spectator)."""
        qubits = [int(q) for q in rng.permutation(t + 2)]
        angles = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=2**t)
        return qc.MultiplexedRy(qubits[:t], qubits[t], angles)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matches_label_keyed_rotations(self, t):
        rng = np.random.default_rng(40 + t)
        for _ in range(3):
            g = self.random_gate(rng, t)
            multiplexed = qc.Circuit(t + 2, (g,))
            reference = qc.Circuit(t + 2, label_keyed_rotations(g.selectors, g.target, g.angles))
            state = random_state(rng, t + 2)
            got = qc.run_circuit(state, multiplexed).amplitudes
            assert np.max(np.abs(got - qc.run_circuit(state, reference).amplitudes)) < 1e-12
            # a rank-2 mixed state, so the bra side differs from the ket side
            rho = DensityMatrix(0.7 * state.density().matrix + 0.3 * random_state(rng, t + 2).density().matrix)
            got = qc.evolve_density(rho, multiplexed).matrix
            assert np.max(np.abs(got - qc.evolve_density(rho, reference).matrix)) < 1e-12
            back = qc.run_circuit(qc.run_circuit(state, multiplexed), inverse_circuit(multiplexed))
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12

    def test_noise_schedule_counts_one_gate_on_all_its_qubits(self):
        g = qc.MultiplexedRy((2, 0), 3, np.zeros(4))
        (event,) = qc.pulse_error_schedule(qc.Circuit(4, (g,)), 0.01)
        assert event.qubits == (2, 0, 3)

    def test_rejects_bad_gates(self):
        with pytest.raises(IndexOutOfRange):
            qc.MultiplexedRy((0, 1), 1, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            qc.MultiplexedRy((0, 1), 2, np.zeros(2))
        with pytest.raises(ValueError):
            qc.MultiplexedRy((0,), 1, [0.0, np.inf])
        with pytest.raises(IndexOutOfRange):
            qc.MultiplexedRy((), 0, [0.0])


class TestQft:
    def dense_qft(self, t):
        big_t = 2**t
        j, k = np.meshgrid(np.arange(big_t), np.arange(big_t), indexing="ij")
        return np.exp(2j * np.pi * j * k / big_t) / np.sqrt(big_t)

    def bit_reversal(self, t):
        rev = [int(format(i, f"0{t}b")[::-1], 2) for i in range(2**t)]
        return np.eye(2**t)[rev]

    def circuit_matrix(self, c):
        cols = [qc.run_circuit(basis_state(c.n_qubits, i), c).amplitudes for i in range(2**c.n_qubits)]
        return np.array(cols).T

    def qft(self, t):
        return qc.Circuit(t, qc._qft_gates(t))

    def test_single_qubit_qft_is_hadamard(self):
        assert np.max(np.abs(self.circuit_matrix(self.qft(1)) - H_MAT)) < 1e-12

    def test_two_qubit_qft_on_zero(self):
        out = qc.run_circuit(basis_state(2, 0), self.qft(2))
        assert np.allclose(out.amplitudes, np.full(4, 0.5), atol=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_matrix_matches_dft(self, t):
        # the circuit has no final bit reversal: it is F with its output qubits reversed
        expected = self.bit_reversal(t) @ self.dense_qft(t)
        assert np.max(np.abs(self.circuit_matrix(self.qft(t)) - expected)) < 1e-10

    def test_qft_then_inverse(self):
        m = self.circuit_matrix(self.qft(2))
        mi = self.circuit_matrix(inverse_circuit(self.qft(2)))
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
        c = qc.Circuit(1, (qc.ControlledUnitary((), (0,), ry(0.0)),))
        noise = (qc.NoiseEvent(0, (0,), qc.Dephasing(t2_star=1.0, duration=0.0)),)
        out = qc.evolve_density(plus.density(), c, noise)
        assert np.max(np.abs(out.matrix - plus.density().matrix)) < 1e-12

    def test_dephasing_decay_factor(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        c = qc.Circuit(1, (qc.ControlledUnitary((), (0,), ry(0.0)),))
        noise = (qc.NoiseEvent(0, (0,), qc.Dephasing(t2_star=1.0, duration=0.1)),)
        out = qc.evolve_density(plus.density(), c, noise)
        assert abs(out.matrix[0, 1]) == pytest.approx(0.5 * np.exp(-0.1), abs=1e-12)

    def test_trace_preserved_under_noise(self):
        rng = np.random.default_rng(4)
        c = random_circuit(rng, 3, 10)
        noise = qc.dephasing_schedule(c, 5.0, 50.0) + qc.pulse_error_schedule(c, 0.01)
        out = qc.evolve_density(random_state(rng, 3).density(), c, noise)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10

    @pytest.mark.parametrize("after_gate, qubit", [(1, 5), (1, -1), (2, 0), (-2, 0), (0.5, 0), (0, 0.0)])
    def test_bad_noise_event_raises_before_any_gate(self, monkeypatch, after_gate, qubit):
        applied = []
        apply = qc._apply_gate_tensor

        def spy(*args):
            applied.append(args[1])
            apply(*args)

        monkeypatch.setattr(qc, "_apply_gate_tensor", spy)
        c = qc.Circuit(2, (qc.Hadamard(0), qc.Hadamard(1)))
        channel = qc.Dephasing(t2_star=1.0, duration=0.1)
        noise = (qc.NoiseEvent(0, (0,), channel), qc.NoiseEvent(after_gate, (qubit,), channel))
        with pytest.raises(IndexOutOfRange):
            qc.evolve_density(basis_state(2, 0).density(), c, noise)
        assert applied == []


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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: qc.Dephasing(t2_star=np.nan, duration=1.0),
            lambda: qc.Dephasing(t2_star=500.0, duration=np.nan),
            lambda: qc.Dephasing(t2_star=0.0, duration=1.0),
            lambda: qc.Dephasing(t2_star=1.0, duration=-0.1),
            lambda: qc.Dephasing(t2_star=1.0, duration=np.inf),
            lambda: qc.DepolarizingPulseError(np.nan),
            lambda: qc.DepolarizingPulseError(1.5),
        ],
        ids=["nan_t2_star", "nan_duration", "zero_t2_star", "negative_duration", "inf_duration", "nan_p", "p_above_one"],
    )
    def test_rejects_bad_values(self, build):
        with pytest.raises(ValueError):
            build()


class TestMeasureQubit:
    def test_deterministic_outcome(self):
        prob, post = qc.measure_qubit(basis_state(1, 0).density(), 0, 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(post.matrix, basis_state(1, 0).density().matrix)

    def test_uniform_superposition(self):
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        prob, post = qc.measure_qubit(plus.density(), 0, 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(post.matrix, basis_state(1, 1).density().matrix, atol=1e-12)

    def test_inversion_form_state(self):
        # two-branch state (sqrt(1-c^2/l^2)|0> + (c/l)|1>) per branch, ancilla last
        c_tilde, lams, betas = 1.0, np.array([1.0, 2.0]), np.array([0.6, 0.8])
        amp = np.zeros(4, dtype=complex)
        for j in range(2):
            amp[2 * j] = betas[j] * np.sqrt(1.0 - (c_tilde / lams[j]) ** 2)
            amp[2 * j + 1] = betas[j] * c_tilde / lams[j]
        prob, _ = qc.measure_qubit(PureState(amp).density(), 1, 1)
        expected = sum(abs(betas[j] * c_tilde / lams[j]) ** 2 for j in range(2))
        assert prob == pytest.approx(expected, abs=1e-12)

    def test_zero_probability_branch(self):
        with pytest.raises(ZeroProbabilityBranch):
            qc.measure_qubit(basis_state(1, 0).density(), 0, 1)

    def test_pure_state_rejected(self):
        with pytest.raises(TypeError):
            qc.measure_qubit(basis_state(1, 0), 0, 0)

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

    def test_uncontrolled_unitary_is_a_u_line(self):
        g = qc.ControlledUnitary((), (1, 0), np.kron(S_MAT, H_MAT))
        text = qc.circuit_to_text(qc.Circuit(2, (g,)))
        assert text.splitlines()[1].startswith("U 1,0 ")
        (back,) = qc.circuit_from_text(text).gates
        assert back.controls == () and back.targets == (1, 0)
        assert np.array_equal(back.matrix, g.matrix)

    def test_multiplexed_ry_is_an_mry_line(self):
        g = qc.MultiplexedRy((2, 0), 1, [0.0, -0.0, 0.1, -np.pi / 3.0])
        text = qc.circuit_to_text(qc.Circuit(3, (g,)))
        assert text.splitlines()[1] == "MRY 2,0 1 0.0,-0.0,0.1,-1.0471975511965976"
        (back,) = qc.circuit_from_text(text).gates
        assert (back.selectors, back.target) == (g.selectors, g.target)
        assert back.angles.tobytes() == g.angles.tobytes()

    def test_rejects_unknown_lines(self):
        with pytest.raises(ValueError):
            qc.circuit_from_text("QUBITS 2\nBOGUS 0\n")
        with pytest.raises(ValueError):
            qc.circuit_from_text("QUBITS 2\nSWAP 0 1\n")
        # truncated or ragged lines: a ValueError that names the line
        for line in ("QUBITS", "H", "U 1", "CU 0:1 1", "CU 0 1 1,0;0,1", "CU 0:1 1 1,0;0", "MRY 0 1 0.5,nan"):
            with pytest.raises(ValueError, match=re.escape(repr(line))):
                qc.circuit_from_text(f"QUBITS 2\n{line}\n")
        # a well-formed MRY line whose gate is invalid: the gate's own typed error
        for line, error in (("MRY 0 1 0.5", DimensionMismatch), ("MRY 0 0 0.5,0.25", IndexOutOfRange)):
            with pytest.raises(error):
                qc.circuit_from_text(f"QUBITS 2\n{line}\n")

    def test_rejects_non_unitary_cu_line(self):
        with pytest.raises(NotUnitary):
            qc.circuit_from_text("QUBITS 2\nCU 0:1 1 1,0;0,2\n")


class TestGateValidation:
    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(NotUnitary):
            qc.ControlledUnitary(((0, 1),), (1,), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_inverse_gates_are_frozen_like_checked_ones(self):
        cu = qc.gate_inverse(qc.ControlledUnitary(((0, 1),), (1,), qcore.rotation_x(0.3)))
        mry = qc.gate_inverse(qc.MultiplexedRy((0,), 1, [0.1, 0.2]))
        for array, dtype in ((cu.matrix, complex), (mry.angles, float)):
            assert array.dtype == dtype and array.flags.c_contiguous and not array.flags.writeable
        assert np.array_equal(cu.matrix, qcore.rotation_x(-0.3)) and mry.angles.tolist() == [-0.1, -0.2]

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ValueError):
            qc.ControlledUnitary((), (0,), np.array([[1.0, 0.0], [0.0, np.nan]]))
