"""Shared test fixtures.

`fixtures/` at the repository root holds the bundled corpus, recorded
TimeMaps, popularity/damage tables, and the sample access log (regenerate
with `python3 tools/build_fixtures.py`). The synthetic taxonomy built here
is test-only: twelve leaf categories whose entries draw words from disjoint
two-letter alphabets, so their gram vocabularies cannot overlap.
"""

from __future__ import annotations

import os
import random
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from archive_recommender import archives, reports
from archive_recommender.archives import ArchiveFetchError
from archive_recommender.ontology import CategoryIndex, CategoryPath, OntologyEntry, load_index
from archive_recommender.uri import ParsedUri, canonicalize_surt
from archive_recommender.words import dictionary_bucket

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Four tops x three leaves; each leaf owns one alphabet pair.
TAXONOMY_PATHS = [
    "Science/Physics/Quantum",
    "Science/Physics/Optics",
    "Science/Biology/Genetics",
    "Arts/Music/Jazz",
    "Arts/Music/Opera",
    "Arts/Film/Documentary",
    "Sports/Water/Rowing",
    "Sports/Water/Surfing",
    "Sports/Track/Sprinting",
    "Society/Law/Contracts",
    "Society/Law/Patents",
    "Society/History/Medieval",
]

_ALPHABETS = [
    ("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"),
    ("i", "j"), ("k", "l"), ("m", "n"), ("o", "p"),
    ("q", "r"), ("s", "t"), ("u", "v"), ("w", "x"),
]


def _category_words(rng: random.Random, alphabet: tuple[str, str], count: int = 6) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        length = rng.randint(5, 7)
        words.add("".join(rng.choice(alphabet) for _ in range(length)))
    return sorted(words)


def build_taxonomy(entries_per_category: int = 8, seed: int = 7) -> CategoryIndex:
    """Deterministic 12-category index with fully separable vocabularies."""
    rng = random.Random(seed)
    entries: list[OntologyEntry] = []
    for path_text, alphabet in zip(TAXONOMY_PATHS, _ALPHABETS):
        path = CategoryPath.parse(path_text)
        words = _category_words(rng, alphabet)
        for i in range(entries_per_category):
            picks = rng.sample(words, 4)
            uri = f"http://{picks[0]}.zz/{picks[1]}/{picks[2]}{i}"
            entries.append(
                OntologyEntry(
                    category=path,
                    uri=uri,
                    surt=canonicalize_surt(uri),
                    title=f"{picks[3]} {picks[0]}",
                    description=f"{picks[1]} {picks[2]}",
                )
            )
    return CategoryIndex(entries)


@pytest.fixture(autouse=True)
def no_requests(monkeypatch):
    """``import requests`` fails in every test, as on an interpreter without
    it: nothing in the package may need it."""
    monkeypatch.setitem(sys.modules, "requests", None)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_index() -> CategoryIndex:
    return load_index(FIXTURES / "index.tsv")


@pytest.fixture(scope="session")
def taxonomy() -> CategoryIndex:
    return build_taxonomy()


@pytest.fixture
def archive_opens(monkeypatch) -> list:
    """Every file object that the ``archives`` module opens with ``open``."""
    opened = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(archives, "open", recording_open, raising=False)
    return opened


def host_dictionary_bucket(parsed: ParsedUri) -> str:
    """Oracle: ``dictionary_bucket`` of one parse's registrable host label
    letters (public suffix removed), with no memo, as ``analyze_uris`` and
    the deep evaluation once worked it out per URI."""
    return dictionary_bucket(reports._host_letters(parsed))


def count_calls(monkeypatch, functions: dict[str, object]) -> dict[str, list]:
    """The first argument of every call of each named function, counted
    wherever the package binds it."""
    calls: dict[str, list] = {name: [] for name in functions}
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "archive_recommender"]
    for name, original in functions.items():

        def counted(first, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(first)
            return _original(first, *args, **kwargs)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class ForeignSource:
    """A plain class over a TimeMap source. The evidence service reads
    serially over the package's fixture classes alone, so a test that must
    exercise the pool over fixture TimeMaps wraps their source in this."""

    def __init__(self, source):
        self.source = source

    def get_timemap(self, uri):
        return self.source.get_timemap(uri)

    def get_page(self, page_uri):
        return self.source.get_page(page_uri)


class FailingProvider:
    """A popularity and damage provider whose every lookup fails."""

    def __init__(self, message):
        self.message = message

    def get_rank(self, domain):
        raise ArchiveFetchError(self.message)

    def get_damage(self, memento_uri):
        raise ArchiveFetchError(self.message)


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        server = self.server
        server.paths.append(self.path)
        if server.raw is not None:
            self.wfile.write(server.raw)
            return
        status, headers, body = server.replies.get(self.path, server.reply)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # a command's stderr stays its own
        pass


class ScriptedServer(HTTPServer):
    """An HTTP server on a free local port that answers every GET with one
    scripted reply, or with the reply scripted for its path, and records
    the path of each request it was sent."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.paths: list[str] = []
        self.reply: tuple[int, dict, bytes] = (404, {}, b"")
        self.replies: dict[str, tuple[int, dict, bytes]] = {}
        self.raw: bytes | None = None

    def answer(self, status: int, body: str | bytes = b"", headers: dict | None = None, path: str | None = None):
        """Reply to a GET of ``path``, or of any path, with ``status``,
        ``headers`` and ``body`` (text is sent as UTF-8)."""
        reply = (status, headers or {}, body.encode("utf-8") if isinstance(body, str) else body)
        if path is None:
            self.reply = reply
        else:
            self.replies[path] = reply

    def answer_raw(self, data: bytes):
        """Reply to every GET with ``data`` as it stands, status line and all."""
        self.raw = data


@pytest.fixture
def http_server(monkeypatch):
    """A ScriptedServer, running until the test ends, with every proxy
    variable cleared so that a client reaches it directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = ScriptedServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def closed_port() -> int:
    """A local port that was free a moment ago and has no listener now."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
