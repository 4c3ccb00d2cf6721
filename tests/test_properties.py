"""Pipeline invariants over random systems of 1 to 3 solution qubits.

Each system is A = Q diag(lambda) Q^dagger with a random unitary Q and
integer eigenvalues lambda_j, so at t0 = 2*pi every eigenvalue sits exactly
on its clock label.  The examples are derandomized and no example database
is kept, so a run is reproducible.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from hhlsim import circuit as qc  # noqa: E402
from hhlsim import hhl, reference  # noqa: E402
from hhlsim.qcore import PureState, basis_state  # noqa: E402

# Without a database Hypothesis still caches the constants it finds in
# local source files under its home directory; keep that out of the tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hhlsim-hypothesis")

PROPERTY_SETTINGS = settings(database=None, derandomize=True, max_examples=15, deadline=None)


@st.composite
def encodable_systems(draw):
    """(system, exact-mode config, eigenvalues, eigenvectors as columns)."""
    n_b = draw(st.integers(1, 3))
    t = draw(st.integers(2, 3))
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
        else:
            assert g == h
