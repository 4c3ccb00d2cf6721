"""The benchmark's span targets exist in the package it traces.

bench/spans.py wraps hhlsim functions by (module, attribute) name.  A rename
or deletion there would only show when the benchmark runs; this test loads
the target list by path, without importing the benchmark as a package, and
resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr", load_targets(), ids=lambda v: v)
def test_span_target_resolves(module_name, attr):
    owner = importlib.import_module(f"hhlsim.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        # spans.py rebinds a method on its class, so the class must define it
        assert name in vars(owner)
    else:
        assert callable(getattr(owner, name))
