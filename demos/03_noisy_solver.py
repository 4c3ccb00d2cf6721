"""Run the pipeline through the density-matrix engine with decoherence.

The noise model mirrors the experimental conditions: the whole circuit
takes 50 ms, about 10% of the 500 ms coherence time, modeled as per-layer
dephasing on every qubit, plus small per-gate depolarizing errors that
accumulate to roughly the 1% pulse-imperfection level.
"""

import numpy as np

from hhlsim import circuit as qcirc
from hhlsim import hhl
from hhlsim.qcore import fidelity

A = np.array([[1.5, 0.5], [0.5, 1.5]])
system = hhl.linear_system(A, np.array([1.0, 1.0]) / np.sqrt(2.0))
cfg = hhl.SolverConfig(rotation_mode="linear", r=2)

TOTAL_DURATION_MS = 50.0
T2_STAR_MS = 500.0
PULSE_ERROR_PER_GATE = 0.0004


def schedule(circuit):
    events = list(qcirc.dephasing_schedule(circuit, TOTAL_DURATION_MS, T2_STAR_MS))
    events += list(qcirc.pulse_error_schedule(circuit, PULSE_ERROR_PER_GATE))
    return events


ideal = hhl.run_hhl(system, cfg)
noisy = hhl.run_hhl(system, cfg, noise_builder=schedule)

print("pipeline gates:", len(ideal.circuit))
print()
print(f"{'':>24} {'ideal':>12} {'noisy':>12}")
print(f"{'solution ratio |x1/x2|^2':>24} {ideal.solution_ratio_sq:>12.6f} {noisy.solution_ratio_sq:>12.6f}")
print(f"{'success probability':>24} {ideal.success_probability:>12.6f} {noisy.success_probability:>12.6f}")
print(f"{'max relative error':>24} {ideal.max_rel_error:>12.6f} {noisy.max_rel_error:>12.6f}")
print(f"{'final-state fidelity':>24} {ideal.fidelity_4q:>12.6f} {noisy.fidelity_4q:>12.6f}")

# the purity drop shows how much coherence the schedule removed
print()
print("noisy final-state purity:", noisy.final_density.purity())
theory = hhl.theoretical_final_state(system, cfg)
print("overlap formula check   :", fidelity(theory.density(), noisy.final_density))

# stronger dephasing: push the duration toward the full coherence time
print()
print(f"{'duration/T2*':>13} {'fidelity':>10}")
for fraction in (0.1, 0.3, 0.6, 1.0):
    def stretched(circuit, f=fraction):
        return list(qcirc.dephasing_schedule(circuit, f * T2_STAR_MS, T2_STAR_MS))

    report = hhl.run_hhl(system, cfg, noise_builder=stretched)
    print(f"{fraction:>13.1f} {report.fidelity_4q:>10.6f}")
