"""The config key table: every key it lists is parsed, has an effect and is documented."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hhlsim import cli, config

ROOT = Path(__file__).resolve().parent.parent

KEYS = [(section, key) for section, keys in config._KEYS.items() for key in keys]

# every section given; the keys it leaves out take their defaults
BASE = {
    "system": {"matrix": "1.5 0.5 ; 0.5 1.5", "b": "1 0"},
    "solver": {},
    "noise": {},
    "molecule": {},
    "sweep": {"values": "1 2"},
    "tomography": {},
}

# a valid value that differs from the one BASE gives or defaults to
CHANGED = {
    ("system", "matrix"): "2.5 0.5 ; 0.5 2.5",
    ("system", "b"): "0 1",
    ("system", "b_theta"): "1.0",
    ("solver", "clock_qubits"): "3",
    ("solver", "t0"): "3.0",
    ("solver", "r"): "3",
    ("solver", "mode"): "exact",
    ("solver", "c_tilde"): "0.5",
    ("noise", "enabled"): "on",
    ("noise", "total_duration_ms"): "20.0",
    ("noise", "pulse_error_per_gate"): "0.001",
    ("noise", "seed"): "7",
    ("molecule", "shift_c"): "15000.0",
    ("molecule", "t2_star_ms"): "400 500 500 500",
    ("molecule", "j_couplings"): "0 100 48 -12 ; 100 0 69 47 ; 48 69 0 -128 ; -12 47 -128 0",
    ("molecule", "linewidth"): "2.0",
    ("sweep", "parameter"): "t0",
    ("sweep", "values"): "1 3",
    ("tomography", "kind"): "partial",
    ("tomography", "noise_sigma"): "0.01",
}


def write_config(path, section=None, key=None, value=None):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    if section is not None:
        sections[section][key] = value
        if key == "b_theta":
            del sections["system"]["b"]
    lines = []
    for name, keys in sections.items():
        lines += [f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def loaded_value(settings, section, key):
    if section == "system":
        return settings.system.a.tolist(), settings.system.b.tolist()
    field = config._KEYS[section][key][0]
    return np.asarray(getattr(getattr(settings, section), field)).tolist()


@pytest.mark.parametrize("section, key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
def test_empty_value_exits_2(tmp_path, capsys, section, key):
    path = write_config(tmp_path / "run.ini", section, key, "")
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigParseError"


@pytest.mark.parametrize("section, key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
def test_every_key_has_an_effect(tmp_path, section, key):
    base = config.load_config(write_config(tmp_path / "base.ini"))
    changed = config.load_config(write_config(tmp_path / "run.ini", section, key, CHANGED[(section, key)]))
    assert loaded_value(changed, section, key) != loaded_value(base, section, key)


def test_readme_config_block_lists_exactly_the_key_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("### Config format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    documented, section = {}, None
    for line in block.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            section = header.group(1)
            documented[section] = set()
        elif entry := re.match(r"(?:# )?(\w+) =", line):  # a commented-out key is an alternative
            documented[section].add(entry.group(1))
    assert documented == {name: set(keys) for name, keys in config._KEYS.items()}
