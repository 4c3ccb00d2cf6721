"""Print a sha256 listing of every CLI artifact and demo output of this checkout.

The runs are the four CLI commands on each shipped config, ``solve`` and
``sweep`` again with ``--mode linear`` and with ``--mode exact`` (40 in
all), and the five demos; then the four commands again with ``--noise on``
on each config (20 more), which reach the noise switch that the shipped
configs leave off.  Each runs in its own directory under a temporary one,
against this checkout's ``src/``.  The listing's first line names the numpy
and BLAS builds it was made with; then, for each run, it has one line per
artifact file, then one line each for stdout, stderr and the exit code::

    numpy <version> blas <name> <version>
    <run> <artifact> <sha256>
    <run> stdout <sha256>
    <run> stderr <sha256>
    <run> exit <code>

``tools/artifact_digests.txt`` is the listing of the committed tree, and
``tests/test_artifact_digests.py`` reruns its CLI runs in one process
against it.  A change that moves bytes on purpose rewrites it in the same
diff; diff the listings of two checkouts to see which bytes a change moved::

    python3 tools/artifact_digests.py > tools/artifact_digests.txt
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "tools" / "artifact_digests.txt"
CONFIGS = ("experiment1", "experiment2", "experiment3", "b10_exact", "noisy")
COMMANDS = ("solve", "sweep", "tomography", "spectrum")
CLI = ["-m", "hhlsim.cli"]


def _cli(command: str, config: str, *extra: str) -> list[str]:
    return [*CLI, command, "--config", str(ROOT / "configs" / f"{config}.ini"), "--out", ".", *extra]


def runs() -> list[tuple[str, list[str]]]:
    """(run name, argv after the interpreter) for every run, in listing order;
    a CLI run's argv starts with ``CLI`` and writes into the working directory."""
    out = []
    for config in CONFIGS:
        for command in COMMANDS:
            out.append((f"{command}-{config}", _cli(command, config)))
        for mode in ("linear", "exact"):
            for command in ("solve", "sweep"):
                out.append((f"{command}-{config}-{mode}", _cli(command, config, "--mode", mode)))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demo-{demo.stem}", [str(demo)]))
    for config in CONFIGS:
        for command in COMMANDS:
            out.append((f"{command}-{config}-noise", _cli(command, config, "--noise", "on")))
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(name: str, workdir: Path, stdout: bytes, stderr: bytes, code: int) -> list[str]:
    """The listing lines of one finished run whose artifacts are in ``workdir``."""
    files = sorted(p for p in workdir.rglob("*") if p.is_file())
    lines = [f"{name} {p.relative_to(workdir)} {_sha256(p.read_bytes())}" for p in files]
    lines.append(f"{name} stdout {_sha256(stdout)}")
    lines.append(f"{name} stderr {_sha256(stderr)}")
    lines.append(f"{name} exit {code}")
    return lines


def build() -> str:
    """The numpy and BLAS builds the digests depend on, as a listing's first line names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} blas {blas['name']} {blas['version']}"


def read_listing() -> tuple[str, list[str]]:
    """The builds the committed listing was made with, and its digest lines."""
    header, *lines = LISTING.read_text(encoding="utf-8").splitlines()
    return header, lines


def digest_run(name: str, argv: list[str], workdir: Path) -> list[str]:
    """Run one invocation in a subprocess in ``workdir`` and list its digests."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, *argv], cwd=workdir, env=env, capture_output=True, check=False)
    lines = digest_lines(name, workdir, done.stdout, done.stderr, done.returncode)
    (workdir / "stdout.txt").write_bytes(done.stdout)
    (workdir / "stderr.txt").write_bytes(done.stderr)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, help="write each run's files, stdout and stderr under this new directory")
    args = parser.parse_args(argv)
    print(build(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        base = args.keep if args.keep is not None else Path(tmp)
        for name, run_argv in runs():
            print("\n".join(digest_run(name, run_argv, base / name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
