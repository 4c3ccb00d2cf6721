"""Print a sha256 listing of every CLI artifact and demo output of this checkout.

The runs are the four CLI commands on each shipped config, ``solve`` and
``sweep`` again with ``--mode linear`` and with ``--mode exact`` (40 in
all), and the five demos; then the four commands again with ``--noise on``
on each config, and ``tomography`` on experiments 1 to 3 with
``fit_peaks = on`` (23 more), which reach the noise switch and the fitted
readout that the shipped configs leave off.  Each runs in its own
directory under a temporary one, against this checkout's ``src/``; a
``fit_peaks = on`` run first writes its rewritten copy of the config there
(``fit_peaks.ini``, listed with the artifacts), and the shipped configs
stay untouched.  For each run the listing has one line per artifact file,
then one line each for stdout, stderr and the exit code::

    <run> <artifact> <sha256>
    <run> stdout <sha256>
    <run> stderr <sha256>
    <run> exit <code>

Diff the listings of two checkouts to see which bytes a change moved::

    python3 tools/artifact_digests.py > after.txt
    python3 tools/artifact_digests.py --keep outputs/   # also keep the files

"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("experiment1", "experiment2", "experiment3", "b10_exact", "noisy")
COMMANDS = ("solve", "sweep", "tomography", "spectrum")


FIT_CONFIGS = ("experiment1", "experiment2", "experiment3")
FIT_CONFIG = "fit_peaks.ini"


def _cli(command: str, config: str, *extra: str) -> list[str]:
    return ["-m", "hhlsim.cli", command, "--config", config, "--out", ".", *extra]


def runs() -> list[tuple[str, list[str], str | None]]:
    """(run name, argv after the interpreter, text of a config to write into
    the run directory or None) for every run, in listing order."""
    out = []
    for config in CONFIGS:
        path = str(ROOT / "configs" / f"{config}.ini")
        for command in COMMANDS:
            out.append((f"{command}-{config}", _cli(command, path), None))
        for mode in ("linear", "exact"):
            for command in ("solve", "sweep"):
                out.append((f"{command}-{config}-{mode}", _cli(command, path, "--mode", mode), None))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demo-{demo.stem}", [str(demo)], None))
    for config in CONFIGS:
        path = str(ROOT / "configs" / f"{config}.ini")
        for command in COMMANDS:
            out.append((f"{command}-{config}-noise", _cli(command, path, "--noise", "on"), None))
    for config in FIT_CONFIGS:
        text = (ROOT / "configs" / f"{config}.ini").read_text(encoding="utf-8")
        if text.count("fit_peaks = off") != 1:
            raise SystemExit(f"{config}.ini: expected one 'fit_peaks = off' line to switch on")
        fitted = text.replace("fit_peaks = off", "fit_peaks = on")
        out.append((f"tomography-{config}-fit", _cli("tomography", FIT_CONFIG), fitted))
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(name: str, argv: list[str], workdir: Path, config_text: str | None = None) -> list[str]:
    """Run one invocation in ``workdir`` (after writing ``config_text``, if
    any, there as ``FIT_CONFIG``) and list its digests."""
    workdir.mkdir(parents=True)
    if config_text is not None:
        (workdir / FIT_CONFIG).write_text(config_text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, *argv], cwd=workdir, env=env, capture_output=True, check=False)
    files = sorted(p for p in workdir.rglob("*") if p.is_file())
    lines = [f"{name} {p.relative_to(workdir)} {_sha256(p.read_bytes())}" for p in files]
    (workdir / "stdout.txt").write_bytes(done.stdout)
    (workdir / "stderr.txt").write_bytes(done.stderr)
    lines.append(f"{name} stdout {_sha256(done.stdout)}")
    lines.append(f"{name} stderr {_sha256(done.stderr)}")
    lines.append(f"{name} exit {done.returncode}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, help="write each run's files, stdout and stderr under this new directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = args.keep if args.keep is not None else Path(tmp)
        for name, run_argv, config_text in runs():
            print("\n".join(digest_run(name, run_argv, base / name, config_text)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
