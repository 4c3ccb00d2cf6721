"""Print a sha256 listing of every CLI artifact and demo output of this checkout.

The runs are the four CLI commands on each shipped config, ``solve`` and
``sweep`` again with ``--mode linear`` and with ``--mode exact`` (40 in
all), and the five demos.  Each runs in its own directory under a
temporary one, against this checkout's ``src/``.  For each run the listing
has one line per artifact file, then one line each for stdout, stderr and
the exit code::

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


def runs() -> list[tuple[str, list[str]]]:
    """(run name, argv after the interpreter) for every run, in listing order."""
    out = []
    for config in CONFIGS:
        path = str(ROOT / "configs" / f"{config}.ini")
        for command in COMMANDS:
            out.append((f"{command}-{config}", ["-m", "hhlsim.cli", command, "--config", path, "--out", "."]))
        for mode in ("linear", "exact"):
            for command in ("solve", "sweep"):
                argv = ["-m", "hhlsim.cli", command, "--config", path, "--out", ".", "--mode", mode]
                out.append((f"{command}-{config}-{mode}", argv))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demo-{demo.stem}", [str(demo)]))
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(name: str, argv: list[str], workdir: Path) -> list[str]:
    """Run one invocation in ``workdir`` and list its digests."""
    workdir.mkdir(parents=True)
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
        for name, run_argv in runs():
            print("\n".join(digest_run(name, run_argv, base / name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
