"""The CLI's recorded outputs: argv, exit code, stdout and stderr.

Each entry of ``golden/cli_fixtures.json`` is replayed through ``cli.main``
in process, from the repository root, with no ``ARCHREC_*`` variable set.
A change that alters any byte of these outputs is a behaviour change; to
make it, regenerate the file and commit the diff with the change::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_fixtures.json"

# One URI per route: classified-deep, primary ontology hit, secondary hit
# with no archived candidates, unclassifiable, and an IP host.
RECOMMEND_URIS = [
    "http://odu.edu/compsci",
    "http://cs.odu.edu",
    "http://odu.edu/",
    "http://qqxxyyzz.dev/",
    "http://128.82.4.1/x",
]
COMMANDS = [
    ["recommend", uri, "--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z"]
    for uri in RECOMMEND_URIS
] + [
    ["stats"],
    ["evaluate-l1"],
    ["evaluate-deep"],
    ["evaluate-deep", "--grams", "3", "--holdout", "0.3"],
    ["analyze-logs", "fixtures/access_log_sample.log"],
]
ARGVS = [
    command + ["--fixtures", "fixtures", "--output", output]
    for command in COMMANDS
    for output in ("records", "table")
]


def replay(argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` and return what it printed and its exit code."""
    from archive_recommender.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def at_root(monkeypatch):
    for name in list(os.environ):
        if name.startswith("ARCHREC_"):
            monkeypatch.delenv(name)
    monkeypatch.chdir(ROOT)


def test_file_covers_every_command():
    assert [entry["argv"] for entry in _load()] == ARGVS


@pytest.mark.parametrize(
    "number", [pytest.param(n, id=f"{n:02d}-{argv[0]}-{argv[-1]}") for n, argv in enumerate(ARGVS)]
)
def test_replay_matches(at_root, number):
    entry = _load()[number]
    assert replay(entry["argv"]) == entry


def _write() -> None:
    for name in [name for name in os.environ if name.startswith("ARCHREC_")]:
        del os.environ[name]
    os.chdir(ROOT)
    entries = [replay(argv) for argv in ARGVS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
