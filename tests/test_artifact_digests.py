"""The CLI artifacts of the shipped configs stay byte-identical to the committed listing.

``tools/artifact_digests.txt`` lists a sha256 for every artifact, stdout and
stderr and the exit code of each run in ``tools/artifact_digests.py``'s run
table.  This test reruns the table's CLI runs in one process through
``cli.main`` and names every artifact whose bytes moved, then reruns them into
the directories they filled, which must give the same bytes.  A change that moves
bytes on purpose regenerates the listing (see the tool's docstring) and
states each change.  Digests depend on the numpy and BLAS builds, so on
another build of either the test skips and names both.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from hhlsim import cli

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("artifact_digests", ROOT / "tools" / "artifact_digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def by_artifact(lines):
    """{(run, artifact): digest or exit code} of listing lines."""
    return {tuple(line.split(" ")[:2]): line.split(" ")[2] for line in lines}


def run_in_place(cli_runs, base, monkeypatch):
    """The listing lines of each CLI run, run through ``cli.main`` in ``base / run``."""
    got = []
    for name, args in cli_runs:
        workdir = base / name
        workdir.mkdir(exist_ok=True)
        monkeypatch.chdir(workdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        got += digests.digest_lines(name, workdir, stdout.getvalue().encode(), stderr.getvalue().encode(), code)
    return by_artifact(got)


def assert_same(expected, actual, when):
    moved = sorted(key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))
    assert not moved, f"moved {when}: " + ", ".join(f"{run} {artifact}" for run, artifact in moved)


def test_cli_artifacts_match_the_committed_listing(tmp_path, monkeypatch):
    listed_build, listed = digests.read_listing()
    if listed_build != digests.build():
        pytest.skip(f"listing made with {listed_build}, this is {digests.build()}")
    n = len(digests.CLI)
    cli_runs = [(name, argv[n:]) for name, argv in digests.runs() if argv[:n] == digests.CLI]
    assert len(cli_runs) == 60
    expected = by_artifact(line for line in listed if line.split(" ")[0] in dict(cli_runs))
    assert_same(expected, run_in_place(cli_runs, tmp_path, monkeypatch), "in fresh directories")
    # a rerun writes over the files of the first run; a stale tail on one artifact
    # per run checks that each rewrite is cut to its new length
    for name, _ in cli_runs:
        files = sorted(p for p in (tmp_path / name).iterdir() if p.is_file())
        if files:
            with open(files[0], "ab") as fh:
                fh.write(b"stale tail\n" * 64)
    assert_same(expected, run_in_place(cli_runs, tmp_path, monkeypatch), "on rerun")
