"""Pipeline invariants over random systems of 1 to 3 solution qubits, the
invariants of engine-built gates and densities, the agreement of the two
engines on a noiseless run, the fitted readout over
random states and line positions, and a fuzzer over the shipped configs.

Each system is A = Q diag(lambda) Q^dagger with a random unitary Q and
integer eigenvalues lambda_j, so at t0 = 2*pi every eigenvalue sits exactly
on its clock label; off that grid, a closed-form spectral oracle gives the
pipeline's whole final state.  The examples are derandomized and no example
database is kept, so a run is reproducible.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from hhlsim import circuit as qc  # noqa: E402
from hhlsim import cli, hhl, qcore, reference, tomography  # noqa: E402
from hhlsim.errors import EigenvalueNotEncodable, ZeroProbabilityBranch  # noqa: E402
from hhlsim.qcore import DensityMatrix, PureState, basis_state  # noqa: E402

# Without a database Hypothesis still caches the constants it finds in
# local source files under its home directory; keep that out of the tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hhlsim-hypothesis")

PROPERTY_SETTINGS = settings(database=None, derandomize=True, max_examples=15, deadline=None)


@st.composite
def encodable_systems(draw, max_clock_qubits=3, min_clock_qubits=2):
    """(system, exact-mode config, eigenvalues, eigenvectors as columns)."""
    n_b = draw(st.integers(1, 3))
    t = draw(st.integers(min_clock_qubits, max_clock_qubits))
    dim = 2**n_b
    lam = np.array(draw(st.lists(st.integers(1, 2**t - 1), min_size=dim, max_size=dim)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    a = (q * lam) @ q.conj().T
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    system = hhl.linear_system((a + a.conj().T) / 2.0, b, normalize=True)
    return system, hhl.SolverConfig(clock_qubits=t, rotation_mode="exact"), lam, q


def pipeline(system, cfg):
    """The resolved circuit and its input |0..0>_clock |b> |0>_ancilla."""
    c = hhl.build_circuit(system, hhl.resolve_config(system, cfg))
    initial = basis_state(cfg.clock_qubits, 0).tensor(PureState(system.b)).tensor(basis_state(1, 0))
    return c, initial


@PROPERTY_SETTINGS
@given(encodable_systems())
def test_exact_mode_agrees_with_direct_solve(case):
    system, cfg, lam, q = case
    report = hhl.run_hhl(system, cfg)
    x = reference.direct_solve(system.a, system.b)
    assert abs(np.vdot(report.x_quantum, x / np.linalg.norm(x))) ** 2 >= 1.0 - 1e-9
    # the ancilla reads 1 on branch j with amplitude c_tilde / lambda_j
    beta = q.conj().T @ system.b
    expected = float(np.sum(np.abs(beta) ** 2 * (lam.min() / lam) ** 2))
    assert abs(report.success_probability - expected) < 1e-10


@PROPERTY_SETTINGS
@given(encodable_systems(), st.sampled_from(hhl.ROTATION_MODES))
def test_noiseless_density_equals_pure(case, mode):
    system, cfg, _, _ = case
    c, initial = pipeline(system, hhl.SolverConfig(clock_qubits=cfg.clock_qubits, rotation_mode=mode))
    rho = qc.evolve_density(initial.density(), c)
    psi = qc.run_circuit(initial, c).amplitudes
    assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-12


@PROPERTY_SETTINGS
@given(encodable_systems(), st.floats(0.0, 500.0), st.floats(0.0, 1.0))
def test_noise_preserves_trace(case, duration_ms, pulse_error):
    system, cfg, _, _ = case
    c, initial = pipeline(system, cfg)
    noise = qc.dephasing_schedule(c, duration_ms, 500.0) + qc.pulse_error_schedule(c, pulse_error)
    rho = qc.evolve_density(initial.density(), c, noise)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


@PROPERTY_SETTINGS
@given(encodable_systems(), st.sampled_from(hhl.ROTATION_MODES))
def test_circuit_text_round_trips(case, mode):
    system, cfg, _, _ = case
    c, _ = pipeline(system, hhl.SolverConfig(clock_qubits=cfg.clock_qubits, rotation_mode=mode))
    back = qc.circuit_from_text(qc.circuit_to_text(c))
    assert back.n_qubits == c.n_qubits and back.registers == c.registers
    assert len(back) == len(c)
    for g, h in zip(c.gates, back.gates):
        assert type(g) is type(h)
        if isinstance(g, qc.ControlledUnitary):
            assert (g.controls, g.targets) == (h.controls, h.targets)
            assert np.array_equal(g.matrix, h.matrix)
        elif isinstance(g, qc.MultiplexedRy):
            assert (g.selectors, g.target) == (h.selectors, h.target)
            assert np.array_equal(g.angles, h.angles)
        else:
            assert g == h


@PROPERTY_SETTINGS
@given(encodable_systems(max_clock_qubits=4), st.data())
def test_phase_estimation_leaves_label_lsb_first(case, data):
    system, cfg, lam, q = case
    j = data.draw(st.integers(0, len(lam) - 1))
    t = cfg.clock_qubits
    initial = basis_state(t, 0).tensor(PureState(q[:, j]))
    out = qc.run_circuit(initial, qc.Circuit(initial.n_qubits, tuple(hhl._qpe_gates(system, cfg))))
    clock_mass = out.probabilities().reshape(2**t, -1).sum(axis=1)
    # label k on qubits 0..t-1 least significant bit first
    index = int(format(int(lam[j]), f"0{t}b")[::-1], 2)
    assert clock_mass[index] >= 1.0 - 1e-9


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
@PROPERTY_SETTINGS
@given(st.data(), st.one_of(st.just(1.0), st.floats(0.7, 1.3)), st.sampled_from(hhl.ROTATION_MODES))
def test_engine_gates_and_densities_keep_their_invariants(t, data, t0_scale, mode):
    # the engines run no check on what they build (qcore._derived); t0 =
    # 2*pi puts every eigenvalue on its clock label, other scales put them
    # between labels
    system, cfg, _, _ = data.draw(encodable_systems(max_clock_qubits=t, min_clock_qubits=t))
    try:
        cfg = hhl.resolve_config(system, replace(cfg, t0=2.0 * np.pi * t0_scale, rotation_mode=mode))
    except EigenvalueNotEncodable:
        reject()
    for g in hhl.build_circuit(system, cfg).gates:
        if isinstance(g, qc.Hadamard):
            continue
        array, dtype = (g.angles, float) if isinstance(g, qc.MultiplexedRy) else (g.matrix, complex)
        assert array.dtype == dtype and array.flags.c_contiguous and not array.flags.writeable
        blocks = qcore.rotation_y(g.angles) if isinstance(g, qc.MultiplexedRy) else [g.matrix]
        for u in blocks:
            assert qcore.unitarity_defect(u) <= 1e-10

    derive, derived = qcore._derived, []

    def recording(cls, *values):
        derived.append(derive(cls, *values))
        return derived[-1]

    def noise(c):
        return qc.dephasing_schedule(c, 50.0, 500.0) + qc.pulse_error_schedule(c, 0.001)

    with mock.patch.object(qcore, "_derived", recording):
        try:
            hhl.run_hhl(system, cfg)
        except ZeroProbabilityBranch:
            reject()  # an exact-mode label below its eigenvalue rotates by 0
        hhl.run_hhl(system, cfg, noise_builder=noise)
    # the checks DensityMatrix and PureState run on their inputs hold on every derived one
    densities = [v for v in derived if isinstance(v, DensityMatrix)]
    for rho in densities:
        m = rho.matrix
        assert m.dtype == np.complex128 and m.flags.c_contiguous and not m.flags.writeable
        assert abs(np.trace(m) - 1.0) <= 1e-10
        assert qcore.hermiticity_defect(m) <= 1e-10
        assert np.linalg.eigvalsh(m).min() >= -1e-9
    states = [v for v in derived if isinstance(v, PureState)]
    assert states
    for s in states:
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-10
    # the pure run's solution-register state; the noisy run's initial state,
    # evolved state and solution-register state
    assert len(densities) == 4


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
@PROPERTY_SETTINGS
@given(st.data(), st.one_of(st.just(1.0), st.floats(0.7, 1.3)), st.sampled_from(hhl.ROTATION_MODES))
def test_noiseless_density_run_reads_like_the_pure_run(t, data, t0_scale, mode):
    # both engines' final states go through one readout, so an empty noise
    # schedule must give the pure run's metrics on and off the label grid
    system, cfg, _, _ = data.draw(encodable_systems(max_clock_qubits=t, min_clock_qubits=t))
    try:
        cfg = hhl.resolve_config(system, replace(cfg, t0=2.0 * np.pi * t0_scale, rotation_mode=mode))
        pure = hhl.run_hhl(system, cfg)
    except (EigenvalueNotEncodable, ZeroProbabilityBranch):
        reject()
    mixed = hhl.run_hhl(system, cfg, noise_builder=lambda c: [])
    for name in ("success_probability", "clock_residual", "fidelity_4q"):
        assert abs(getattr(mixed, name) - getattr(pure, name)) < 1e-12, name
    assert np.max(np.abs(mixed.x_quantum - pure.x_quantum)) < 1e-12


def spectral_final_state(lam, q, b, cfg):
    """The pipeline's pre-measurement state in closed form, for any spectrum.

    A's eigenbasis block-diagonalizes the circuit: on eigenvector u_j it acts
    on clock and ancilla alone, as W_j = QPE_j^dagger R QPE_j (Cleve et al.,
    quant-ph/9708016; Harrow, Hassidim & Lloyd, arXiv:0811.3171).  With
    T = 2^t, clock index kappa (qubit 0 most significant) and
    phi_j = lambda_j t0 / 2pi, QPE_j takes |kappa> to label m, stored least
    significant bit first, with amplitude
    G_j[m, kappa] = T^-1 sum_tau (-1)^(kappa . tau) exp(2 pi i tau (m - phi_j) / T),
    and R turns the ancilla by the angle of label m.  ``cfg`` is resolved.
    """
    t = cfg.clock_qubits
    big_t = 2**t
    tau = np.arange(big_t)
    bits = (tau[:, None] >> np.arange(t)) & 1
    signs = (-1.0) ** (bits @ bits.T)
    # label m >= 1 stands for the eigenvalue 2 pi m / t0; label 0 does not turn
    lam_m = 2.0 * np.pi * tau[1:] / cfg.t0
    if cfg.rotation_mode == "linear":
        theta = (2.0 * np.pi / 2**cfg.r) / lam_m
    else:
        sin_half = cfg.c_tilde / lam_m
        theta = np.where(sin_half > 1.0 + hhl.ENCODING_ATOL, 0.0, 2.0 * np.arcsin(np.minimum(sin_half, 1.0)))
    theta = np.concatenate(([0.0], theta))
    turn = np.stack([np.cos(theta / 2.0), np.sin(theta / 2.0)], axis=1)
    beta = q.conj().T @ b
    out = np.zeros((big_t, len(b), 2), dtype=complex)
    for j, lam_j in enumerate(lam):
        phi = lam_j * cfg.t0 / (2.0 * np.pi)
        g = np.exp(2j * np.pi * np.outer(tau - phi, tau) / big_t) @ signs / big_t
        w = g.conj().T @ (g[:, :1] * turn)
        out += beta[j] * q[:, j][None, :, None] * w[:, None, :]
    return out.ravel()


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
@PROPERTY_SETTINGS
@given(st.data(), st.floats(0.7, 1.3), st.sampled_from(hhl.ROTATION_MODES))
def test_off_grid_run_matches_the_spectral_closed_form(t, data, t0_scale, mode):
    # off the label grid every clock label carries amplitude, so each entry of
    # the inversion's angle table, and every QFT phase, shows in the result
    system, cfg, lam, q = data.draw(encodable_systems(max_clock_qubits=t, min_clock_qubits=t))
    t0 = 2.0 * np.pi * t0_scale
    phi = lam * t0_scale
    if np.all(np.abs(phi - np.round(phi)) <= hhl.ENCODING_ATOL):
        reject()
    try:
        cfg = hhl.resolve_config(system, replace(cfg, t0=t0, rotation_mode=mode))
        report = hhl.run_hhl(system, cfg)
    except (EigenvalueNotEncodable, ZeroProbabilityBranch):
        reject()
    expected = spectral_final_state(lam, q, system.b, cfg)
    assert np.max(np.abs(report.final_state.amplitudes - expected)) < 1e-12
    v = expected.reshape(2**t, -1, 2)
    assert abs(report.success_probability - np.sum(np.abs(v[..., 1]) ** 2)) < 1e-12
    assert abs(report.clock_residual - (1.0 - np.sum(np.abs(v[0]) ** 2))) < 1e-12


@st.composite
def four_qubit_densities(draw):
    """A random 4-qubit density of rank 1 (pure) to 16."""
    rank = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(16, rank)) + 1j * rng.normal(size=(16, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@PROPERTY_SETTINGS
@given(four_qubit_densities())
def test_fitted_partial_readout_matches_exact(rho):
    # the default line table's transfer is the identity to 1e-13, and so is the fit
    pulses = tomography.pulse_catalog("partial")
    exact = tomography.simulate_readout(rho, pulses)
    fitted = tomography.simulate_readout(rho, pulses, fit_via_spectrum=True)
    for a, b in zip(exact, fitted):
        assert np.max(np.abs(a.peak_amplitudes - b.peak_amplitudes)) < 1e-13


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# no token makes a slow valid run: 30 clock qubits is over the memory budget
FUZZ_TOKENS = ("", "nan", "-1", "1e400", "abc", "0", "30", "1024", "3e154", "6%", "%(x)s")
# the command that reads a section's keys; solve reads the others
SECTION_COMMAND = {"sweep": "sweep", "tomography": "tomography"}


def _key_lines():
    """(config name, line index, section) of every key line in the shipped configs."""
    keys = []
    for path in sorted(CONFIG_DIR.glob("*.ini")):
        section = None
        for i, line in enumerate(path.read_text().splitlines()):
            if line.startswith("["):
                section = line.strip("[]")
            elif "=" in line and not line.startswith("#"):
                keys.append((path.name, i, section))
    return keys


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(_key_lines()), st.sampled_from(FUZZ_TOKENS))
def test_config_with_one_bad_value_exits_0_or_2(key_line, token):
    name, i, section = key_line
    lines = (CONFIG_DIR / name).read_text().splitlines()
    lines[i] = lines[i].split("=")[0] + "= " + token
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "fuzz.ini", Path(tmp) / "out"
        config.write_text("\n".join(lines) + "\n")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([SECTION_COMMAND.get(section, "solve"), "--config", str(config), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            json.loads(stdout.getvalue(), parse_constant=_reject_constant)
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)
            # past the header, a CSV field is a number, a sweep parameter name or empty (undefined)
            for path in out.glob("*.csv"):
                for row in path.read_text().splitlines()[1:]:
                    assert all(math.isfinite(float(f)) for f in row.split(",") if f not in ("", "r", "t0")), path.name
