"""The CLI's recorded outputs: argv, exit code, stdout and stderr.

Each entry of ``golden/cli_fixtures.json`` is replayed through ``cli.main``
in process, from the repository root, with no ``ARCHREC_*`` variable set.
A change that alters any byte of these outputs is a behaviour change; to
make it, regenerate the file and commit the diff with the change::

    PYTHONPATH=src python tests/test_golden.py --write

The replay sets ``COLUMNS`` to 80, so argparse wraps usage text as it
does with no terminal. An argument holding ``{tmp}`` names a path in a
fresh temporary directory: the replay puts that directory's path in its
place, and puts ``{tmp}`` back where the path shows in stdout.

``--check`` replays every entry and exits 1 if any output differs. Like
``--write`` it needs only the standard library, so it runs on an
interpreter that has no pytest::

    PYTHONPATH=src python3.13 tests/test_golden.py --check
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_fixtures.json"
USAGE_COLUMNS = "80"  # argparse's fallback width when stdout is no terminal

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
    # Every structural pattern, first seen out of PATTERNS order, and
    # host labels in all three dictionary buckets.
    ["stats", "--index", "tests/golden/patterns_index.tsv"],
] + [
    ["evaluate-l1", "--method", method, "--variants", variants]
    for method in ("grams-tokens", "grams-uri", "tokens")
    for variants in ("", "strip-tld,strip-numbers")
] + [
    ["evaluate-l1", "--folds", "489"],
    ["recommend", RECOMMEND_URIS[0], "--grams", "3", "--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z"],
    ["recommend", RECOMMEND_URIS[0], "--top", "3", "--weights", "0.4,0.2,0.2,0.2",
     "--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z"],
    ["evaluate-deep", "--candidates", "3"],
    ["recommend", RECOMMEND_URIS[0], "--temporal-literal",
     "--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z"],
    ["evaluate-l1", "--smoothing", "0.5"],
    ["evaluate-deep", "--smoothing", "0.5"],
    ["ingest", "fixtures/corpus_500.tsv", "--index-out", "{tmp}/index.tsv"],
    ["ingest", "fixtures/dmoz_sample.rdf", "--format", "rdf", "--index-out", "{tmp}/index.tsv"],
    # Exit 3 (a usage error) and exit 4 (an unsupported scheme, a setting check).
    ["evaluate-deep", "--candidates", "0"],
    ["recommend", "ftp://example.com/"],
    ["recommend", "http://example.com/", "--top", "0"],
    # A secondary-ontology hit that ranks an archived member: its similarity
    # comes from a secondary entry's tokens.
    ["recommend", "http://mickeymantle.com/", "--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z"],
    # The shallow route: no deep category shares the query's vocabulary, so
    # every entry of the first-level category is a candidate.
    ["recommend", "http://cs-od.us/", "--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z"],
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
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
    out = stdout.getvalue().replace(tmp, "{tmp}")
    return {"argv": argv, "exit": code, "stdout": out, "stderr": stderr.getvalue()}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _at_root() -> None:
    for name in [name for name in os.environ if name.startswith("ARCHREC_")]:
        del os.environ[name]
    os.environ["COLUMNS"] = USAGE_COLUMNS
    os.chdir(ROOT)


def _write() -> int:
    _at_root()
    entries = [replay(argv) for argv in ARGVS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN.relative_to(ROOT)}")
    return 0


def _check() -> int:
    _at_root()
    recorded = _load()
    if [entry["argv"] for entry in recorded] != ARGVS:
        print(f"{GOLDEN.relative_to(ROOT)} does not record the commands this file lists")
        return 1
    differ = [entry["argv"] for entry in recorded if replay(entry["argv"]) != entry]
    for argv in differ:
        print("differs:", " ".join(argv))
    print(f"Python {sys.version.split()[0]}: {len(recorded) - len(differ)} of {len(recorded)} outputs match")
    return 1 if differ else 0


# Run as a script, the file stops here, before pytest is imported.
if __name__ == "__main__":
    modes = {"--write": _write, "--check": _check}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit(f"usage: {sys.argv[0]} --write | --check")
    sys.exit(modes[sys.argv[1]]())

import pytest  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    for name in list(os.environ):
        if name.startswith("ARCHREC_"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("COLUMNS", USAGE_COLUMNS)
    monkeypatch.chdir(ROOT)


def test_file_covers_every_command():
    assert [entry["argv"] for entry in _load()] == ARGVS


@pytest.mark.parametrize(
    "number", [pytest.param(n, id=f"{n:02d}-{argv[0]}-{argv[-1]}") for n, argv in enumerate(ARGVS)]
)
def test_replay_matches(at_root, number):
    entry = _load()[number]
    assert replay(entry["argv"]) == entry
