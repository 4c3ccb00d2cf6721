"""Span tracing of hhlsim's modules, installed from outside the package.

The tracer wraps each traced public function or constructor and rebinds the
wrapper at every import site in the package: the defining module, every
module that imported the name, and dispatch tables such as
``cli._COMMANDS``.  A span records its name, start, end, parent span and,
for the circuit engines, how many gates and noise events the call was
given.  Spans stay in memory for one pass of the workload and are folded
into per-layer metrics when the pass ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) pairs that get a span; a dotted attribute names a method.
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_solve"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_tomography"),
    ("cli", "cmd_spectrum"),
    ("config", "load_config"),
    ("hhl", "run_hhl"),
    ("hhl", "build_circuit"),
    ("hhl", "theoretical_final_state"),
    ("hhl", "sweep_r"),
    ("hhl", "sweep_t0"),
    ("circuit", "run_circuit"),
    ("circuit", "evolve_density"),
    ("circuit", "measure_qubit"),
    ("circuit", "circuit_to_text"),
    ("circuit", "dephasing_schedule"),
    ("circuit", "pulse_error_schedule"),
    ("qcore", "DensityMatrix.__post_init__"),
    ("qcore", "fidelity"),
    ("qcore", "require_unitary"),
    ("qcore", "matrix_exp_hermitian"),
    ("qcore", "partial_trace"),
    ("reference", "direct_solve"),
    ("tomography", "pulse_catalog"),
    ("tomography", "simulate_readout"),
    ("tomography", "reconstruct_density"),
    ("tomography", "extract_solution_partial"),
    ("nmr", "lorentzian_fit"),
    ("nmr", "synthesize_spectrum"),
)


def _circuit(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["c"]


def _noise(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("noise", ())


# Work counts taken from a call's arguments.  A gate counts once per engine
# call, also in the density engine, which applies it to both ket and bra.
COUNTERS = {
    "circuit.run_circuit": lambda a, k: {"gates": len(_circuit(a, k).gates)},
    "circuit.evolve_density": lambda a, k: {
        "gates": len(_circuit(a, k).gates),
        "noise_events": len(_noise(a, k)),
    },
}

# Per-layer metric -> (what is summed, span names).  "self" is self time in
# ms, "calls" the number of spans, "counter:<key>" a work count from COUNTERS.
PER_LAYER = (
    ("cli.solve_ms", "self", ("cli.cmd_solve",)),
    ("cli.sweep_ms", "self", ("cli.cmd_sweep",)),
    ("cli.tomography_ms", "self", ("cli.cmd_tomography",)),
    ("cli.spectrum_ms", "self", ("cli.cmd_spectrum",)),
    ("cli.self_ms", "self", ("cli.main",)),
    ("config.load_config_ms", "self", ("config.load_config",)),
    ("hhl.run_hhl_calls", "calls", ("hhl.run_hhl",)),
    ("hhl.run_hhl_self_ms", "self", ("hhl.run_hhl",)),
    ("hhl.build_circuit_calls", "calls", ("hhl.build_circuit",)),
    ("hhl.build_circuit_self_ms", "self", ("hhl.build_circuit",)),
    ("hhl.theoretical_final_state_ms", "self", ("hhl.theoretical_final_state",)),
    ("hhl.sweep_self_ms", "self", ("hhl.sweep_r", "hhl.sweep_t0")),
    ("circuit.run_circuit_ms", "self", ("circuit.run_circuit",)),
    ("circuit.gates_applied", "counter:gates", ("circuit.run_circuit", "circuit.evolve_density")),
    ("circuit.circuit_to_text_ms", "self", ("circuit.circuit_to_text",)),
    ("circuit.evolve_density_ms", "self", ("circuit.evolve_density",)),
    ("circuit.noise_events", "counter:noise_events", ("circuit.evolve_density",)),
    ("circuit.noise_schedule_ms", "self", ("circuit.dephasing_schedule", "circuit.pulse_error_schedule")),
    ("circuit.measure_qubit_ms", "self", ("circuit.measure_qubit",)),
    ("qcore.density_validations", "calls", ("qcore.DensityMatrix.__post_init__",)),
    ("qcore.density_validation_ms", "self", ("qcore.DensityMatrix.__post_init__",)),
    ("qcore.fidelity_ms", "self", ("qcore.fidelity",)),
    ("qcore.unitary_checks", "calls", ("qcore.require_unitary",)),
    ("qcore.unitary_check_ms", "self", ("qcore.require_unitary",)),
    ("qcore.matrix_exp_calls", "calls", ("qcore.matrix_exp_hermitian",)),
    ("qcore.matrix_exp_ms", "self", ("qcore.matrix_exp_hermitian",)),
    ("qcore.partial_trace_ms", "self", ("qcore.partial_trace",)),
    ("reference.direct_solve_ms", "self", ("reference.direct_solve",)),
    ("tomography.pulse_catalog_calls", "calls", ("tomography.pulse_catalog",)),
    ("tomography.pulse_catalog_ms", "self", ("tomography.pulse_catalog",)),
    ("tomography.simulate_readout_self_ms", "self", ("tomography.simulate_readout",)),
    ("tomography.reconstruct_density_ms", "self", ("tomography.reconstruct_density",)),
    ("tomography.extract_solution_partial_ms", "self", ("tomography.extract_solution_partial",)),
    ("nmr.lorentzian_fit_calls", "calls", ("nmr.lorentzian_fit",)),
    ("nmr.lorentzian_fit_ms", "self", ("nmr.lorentzian_fit",)),
    ("nmr.synthesize_spectrum_ms", "self", ("nmr.synthesize_spectrum",)),
)


def metric_unit(kind: str) -> str:
    return "ms" if kind == "self" else "count"


class Tracer:
    """Records spans while ``enabled``; ``take_pass`` folds and clears them."""

    def __init__(self):
        self.enabled = False
        self._spans: list[list] = []  # [name, start, end, parent index, counters]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self._spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, counter(args, kwargs) if counter else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target and rebind the wrapper wherever hhlsim holds the original."""
        modules = [m for k, m in sys.modules.items() if k == "hhlsim" or k.startswith("hhlsim.")]
        for module_name, attr in TARGETS:
            home = sys.modules[f"hhlsim.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original, setattr))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original, setattr))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._undo.append((value, dkey, original, dict.__setitem__))
                                value[dkey] = wrapper

    def uninstall(self) -> None:
        for target, key, original, setter in reversed(self._undo):
            setter(target, key, original)
        self._undo.clear()

    def take_pass(self) -> dict:
        """Per span name: calls, total and self time (ms) and summed counters; then clear."""
        spans = self._spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "counters": defaultdict(int)})
        for i, (name, start, end, _, counters) in enumerate(spans):
            row = table[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[i]) * 1e3
            for key, value in (counters or {}).items():
                row["counters"][key] += value
        spans.clear()
        return {name: dict(row, counters=dict(row["counters"])) for name, row in table.items()}


def layer_metrics(table: dict) -> dict:
    """The PER_LAYER metrics of one pass, from a ``take_pass`` table."""
    out = {}
    for metric, kind, names in PER_LAYER:
        rows = [table[n] for n in names if n in table]
        if kind == "self":
            out[metric] = sum(r["self_ms"] for r in rows)
        elif kind == "calls":
            out[metric] = sum(r["calls"] for r in rows)
        else:
            key = kind.split(":", 1)[1]
            out[metric] = sum(r["counters"].get(key, 0) for r in rows)
    return out
