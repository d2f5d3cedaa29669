"""The CLI's recorded outputs: argv, exit code, stdout and stderr.

Each entry of ``golden/cli_fixtures.json`` is replayed through ``cli.main``
in process, from the repository root. An entry's ``env`` holds the
``ARCHREC_*`` variables set around its replay alone; every other replay
runs with none set.
A change that alters any byte of these outputs is a behaviour change; to
make it, regenerate the file and commit the diff with the change::

    PYTHONPATH=src python tests/test_golden.py --write

The replay sets ``COLUMNS`` to 80, so argparse wraps usage text as it
does with no terminal. An argument holding ``{tmp}`` names a path in a
fresh temporary directory: the replay puts that directory's path in its
place, and puts ``{tmp}`` back where the path shows in stdout.

An entry of ``argvs`` is a sequence: its commands run in order and share
one ``{tmp}``, so a later command reads what an earlier one wrote. After
each command the entry records every file the sequence names: a ``.jsonl``
cache line by line, with ``fetched_at`` (wall-clock time even under
``--now``) masked, and any other file as its SHA-256 and byte count.

``--check`` replays every entry and exits 1 if any output differs. Like
``--write`` it needs only the standard library, so it runs on an
interpreter that has no pytest::

    PYTHONPATH=src python3.13 tests/test_golden.py --check
"""

from __future__ import annotations

import contextlib
import io
import hashlib
import json
import os
import re
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
INSTANTS = ["--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z"]
# The stateful paths: a trained model read back, and a cache run cold and
# then warm.
SEQUENCES = [
    [
        ["train", "--model-out", "{tmp}/model"],
        ["recommend", RECOMMEND_URIS[0], "--model", "{tmp}/model", *INSTANTS],
    ],
    [["recommend", RECOMMEND_URIS[1], "--cache", "{tmp}/cache.jsonl", *INSTANTS]] * 2,
]
SEQUENCE_ARGVS = [
    [argv + ["--fixtures", "fixtures", "--output", "records"] for argv in sequence]
    for sequence in SEQUENCES
]
# Settings read from a file and from ARCHREC_* variables, each also beside
# flags that override it, as (argv, env). The file follows no TimeMap
# continuation page, which reorders the worked example's results.
SETTINGS_FILE = ["--config", "tests/golden/settings.conf"]
SETTINGS_ENV = {
    "ARCHREC_FIXTURES": "fixtures",
    "ARCHREC_MAX_PAGES": "0",
    "ARCHREC_TOP": "3",
    "ARCHREC_NOW": "2014-06-01T00:00:00Z",
    "ARCHREC_OUTPUT": "records",
}
FLAGS = ["--top", "5", "--output", "table"]
WORKED = ["recommend", RECOMMEND_URIS[0], "--datetime", "2014-03-01"]
SETTINGS = [
    (WORKED + SETTINGS_FILE, {}),
    (WORKED + SETTINGS_FILE + FLAGS, {}),
    (WORKED, SETTINGS_ENV),
    (WORKED + FLAGS, SETTINGS_ENV),
    # The file overrides the environment, which still sets what the file leaves out.
    (WORKED + SETTINGS_FILE, {"ARCHREC_TOP": "8", "ARCHREC_MAX_PAGES": "5", "ARCHREC_GRAMS": "3"}),
] + [
    # A secondary ontology of its own, in which the requested URI's group
    # holds archived members.
    (["recommend", RECOMMEND_URIS[2], "--secondary", "tests/golden/secondary_ontology.jsonl", *INSTANTS,
      "--fixtures", "fixtures", "--output", output], {})
    for output in ("records", "table")
]
_FETCHED_AT = re.compile(r'"fetched_at": [^,}]+')


def _run(argv: list[str], tmp: str) -> dict:
    """Run ``cli.main(argv)`` with ``{tmp}`` standing for ``tmp``, and
    return its exit code and what it printed."""
    from archive_recommender.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.replace("{tmp}", tmp) for arg in argv])
    return {"exit": code, "stdout": stdout.getvalue().replace(tmp, "{tmp}"), "stderr": stderr.getvalue()}


@contextlib.contextmanager
def _environment(env: dict[str, str]):
    """Set the variables of ``env`` for the block, and remove them after."""
    os.environ.update(env)
    try:
        yield
    finally:
        for name in env:
            del os.environ[name]


def replay(argv: list[str], env: dict[str, str] | None = None) -> dict:
    """Run one command in a fresh ``{tmp}``, with ``env`` set around it."""
    with tempfile.TemporaryDirectory() as tmp, _environment(env or {}):
        return {"argv": argv, **({"env": env} if env else {}), **_run(argv, tmp)}


def _file_record(path: Path) -> dict | None:
    if not path.exists():
        return None
    data = path.read_bytes()
    if path.suffix == ".jsonl":
        text = data.decode("utf-8")
        return {"lines": [_FETCHED_AT.sub('"fetched_at": "*"', line) for line in text.splitlines()]}
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def replay_sequence(argvs: list[list[str]]) -> dict:
    """Run the commands in order in one ``{tmp}``, recording after each the
    files that the sequence names."""
    named = sorted({arg for argv in argvs for arg in argv if "{tmp}" in arg})
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argvs:
            run = _run(argv, tmp)
            run["files"] = {name: _file_record(Path(name.replace("{tmp}", tmp))) for name in named}
            runs.append(run)
    return {"argvs": argvs, "runs": runs}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _commands(recorded: list[dict]) -> list:
    """Each entry's argv, or its sequence of argvs, and its environment."""
    return [(entry.get("argvs", entry.get("argv")), entry.get("env", {})) for entry in recorded]


# Every command this file lists, in the order the golden file records them.
LISTED = [(argv, {}) for argv in ARGVS + SEQUENCE_ARGVS] + SETTINGS


def _replay_entry(entry: dict) -> dict:
    return replay_sequence(entry["argvs"]) if "argvs" in entry else replay(entry["argv"], entry.get("env"))


def _at_root() -> None:
    for name in [name for name in os.environ if name.startswith("ARCHREC_")]:
        del os.environ[name]
    os.environ["COLUMNS"] = USAGE_COLUMNS
    os.chdir(ROOT)


def _write() -> int:
    _at_root()
    entries = [replay(argv) for argv in ARGVS] + [replay_sequence(argvs) for argvs in SEQUENCE_ARGVS]
    entries += [replay(argv, env) for argv, env in SETTINGS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN.relative_to(ROOT)}")
    return 0


def _check() -> int:
    _at_root()
    recorded = _load()
    if _commands(recorded) != LISTED:
        print(f"{GOLDEN.relative_to(ROOT)} does not record the commands this file lists")
        return 1
    differ = [entry for entry in recorded if _replay_entry(entry) != entry]
    for entry in differ:
        env = "".join(f"{name}={value} " for name, value in entry.get("env", {}).items())
        print("differs:", env + " then ".join(" ".join(argv) for argv in entry.get("argvs", [entry.get("argv")])))
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
    assert _commands(_load()) == LISTED


@pytest.mark.parametrize(
    "number", [pytest.param(n, id=f"{n:02d}-{argv[0]}-{argv[-1]}") for n, argv in enumerate(ARGVS)]
)
def test_replay_matches(at_root, number):
    entry = _load()[number]
    assert replay(entry["argv"]) == entry


@pytest.mark.parametrize(
    "number",
    [pytest.param(n, id=f"{n}-" + "-".join(argv[0] for argv in argvs)) for n, argvs in enumerate(SEQUENCE_ARGVS)],
)
def test_sequence_replay_matches(at_root, number):
    entry = _load()[len(ARGVS) + number]
    assert replay_sequence(entry["argvs"]) == entry


def _settings_id(n: int, argv: list[str], env: dict[str, str]) -> str:
    sources = [("--config", "config"), ("--top", "flags"), ("--secondary", "secondary")]
    return "-".join([str(n)] + ["env"] * bool(env) + [name for flag, name in sources if flag in argv])


@pytest.mark.parametrize(
    "number", [pytest.param(n, id=_settings_id(n, argv, env)) for n, (argv, env) in enumerate(SETTINGS)]
)
def test_settings_replay_matches(at_root, number):
    entry = _load()[len(ARGVS) + len(SEQUENCE_ARGVS) + number]
    assert replay(entry["argv"], entry.get("env")) == entry
