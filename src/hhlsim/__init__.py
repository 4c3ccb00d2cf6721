"""Simulator for the four-qubit quantum linear-system solver demonstration.

Subpackages: qcore (linear algebra and state primitives), circuit (gate
model and execution engines), hhl (the solver pipeline and metrics),
reference (classical solvers), nmr (spin-system models and spectra),
tomography (readout-pulse protocols), cli/config (experiment runner).
"""

__version__ = "0.1.0"

from . import circuit, config, errors, hhl, nmr, qcore, reference, tomography
from .hhl import (
    LinearSystem,
    SolveReport,
    SolverConfig,
    linear_system,
    max_relative_error,
    prepare_b,
    run_hhl,
    sweep_r,
    theoretical_final_state,
)
from .qcore import DensityMatrix, PureState, expectation_value, fidelity, partial_trace
from .reference import conjugate_gradient, direct_solve

__all__ = [
    "circuit",
    "config",
    "errors",
    "hhl",
    "nmr",
    "qcore",
    "reference",
    "tomography",
    "LinearSystem",
    "SolveReport",
    "SolverConfig",
    "linear_system",
    "max_relative_error",
    "prepare_b",
    "run_hhl",
    "sweep_r",
    "theoretical_final_state",
    "DensityMatrix",
    "PureState",
    "expectation_value",
    "fidelity",
    "partial_trace",
    "conjugate_gradient",
    "direct_solve",
]
