"""Accuracy versus success probability as the rotation parameter r grows.

With the linear-approximation rotations, theta_j = (2*pi/2^r)/lambda_j:
larger r makes sin(theta/2) closer to theta/2 so the solution error decays
toward zero, but every ancilla amplitude shrinks too, so the
post-selection probability collapses.  r = 2 is the balanced choice the
hardware demonstration used.
"""

import numpy as np

from hhlsim import hhl

A = np.array([[1.5, 0.5], [0.5, 1.5]])
theta = hhl.theta_for_target_ratio(hhl.linear_system(A, [1.0, 0.0]), 3.0)
system = hhl.linear_system(A, hhl.prepare_b(theta).amplitudes)

print("input angle theta =", theta, "(target ratio 3:1)")
print(f"{'r':>3} {'max_rel_error':>15} {'success_prob':>14}")
rows = hhl.sweep_r(system, range(1, 9))
for row in rows:
    print(f"{int(row.value):>3} {row.max_rel_error:>15.6e} {row.success_probability:>14.6e}")

print()
print("error shrinks monotonically; success probability pays for it:")
errors = np.array([row.max_rel_error for row in rows])
probs = np.array([row.success_probability for row in rows])
print("  error ratios   :", np.round(errors[:-1] / errors[1:], 2))
print("  prob ratios    :", np.round(probs[:-1] / probs[1:], 2))

# Sweeping the evolution time t0 instead: only t0 = 2*pi encodes both
# eigenvalues exactly on the two clock qubits; elsewhere phase estimation
# leaks amplitude off the integer labels and the answer degrades.
print()
print(f"{'t0/pi':>7} {'max_rel_error':>15} {'success_prob':>14}")
exact = hhl.SolverConfig(rotation_mode="exact")
for row in hhl.sweep_t0(system, [2.0 * np.pi, 2.5 * np.pi, 3.0 * np.pi], exact):
    print(f"{row.value / np.pi:>7.2f} {row.max_rel_error:>15.6e} {row.success_probability:>14.6e}")
