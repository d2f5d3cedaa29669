"""Seeded input generator for the benchmark.

``generate(workload, seed, directory)`` writes the files the program reads
(category index with its SURT sidecar, TimeMaps, popularity, damage, access
log) and returns the ground truth the checks compare the program's answers
against. The program never sees the truth; it only gets the files.

The seed picks the words, dates, ranks and damage values. The shape of the
inputs (category tree, entries per category, TimeMap page counts, which
members lack a map, rank or damage, the log's line mix) is fixed, so every
seed asks the program for the same amount of work and run-to-run spread
comes from the machine, not from the inputs.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from urllib.parse import quote

TOPS = (
    "Arts", "Business", "Computers", "Games", "Health", "Home", "News",
    "Recreation", "Reference", "Science", "Shopping", "Society", "Sports",
)

# Category tree under every top-level category, by node key. Entries sit at
# depths 2 to 5, and one internal node (B) holds entries of its own.
CATEGORY_SHAPES = (
    ("A",), ("B",), ("B", "C"), ("B", "D", "E"), ("B", "D", "F", "G"), ("H", "I"), ("H", "J"),
)
ENTRIES_PER_CATEGORY = 9
WORDS_PER_CATEGORY = 6

# Word orders (indexes into a category's six words) for the site compounds
# that are indexed and for those held out as lost sites. Together the
# indexed compounds and their path words use every word of the category.
# Every URI also carries its top-level category's anchor word, so every
# category of the subtree shares vocabulary with every query and the deep
# stage weighs the same number of candidates whatever the seed.
INDEXED_COMPOUNDS = ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 0, 1), (1, 4, 5, 2))
HELD_OUT_COMPOUNDS = ((3, 0, 4, 1), (5, 2, 1, 3))

TLD_CYCLE = ("com", "org", "net", "info", "co.uk", "us", "ca", "com.au", "biz", "edu")

LOST_REQUESTS_PER_TOP = 8
INDEXED_CATEGORIES = (0, 3, 6)  # positions in CATEGORY_SHAPES asked on serve-indexed
INDEXED_ASKS = 3  # times each of those categories is asked per round

# TimeMap shape by entry position within its category; 0 means no map.
LOST_TIMEMAP_MEMENTOS = (2, 3, 4, 5, 6, 0, 3, 4, 2)
INDEXED_TIMEMAP_PAGES = (1, 2, 6, 3, 7, 0, 2, 4, 7)
MEMENTOS_PER_PAGE = 10
MAX_PAGES = 5  # EvidenceService default: continuation pages followed after the first

AGGREGATOR = "https://memgator.example.org"
WAYBACK = "https://web.archive.org"
RANK_FLOOR = 30_000_000
NOW = datetime(2021, 1, 1, tzinfo=timezone.utc)

LOG_FILES = 15
LOG_BLOCKS_PER_FILE = 5
# One block of the access log: the filter outcome of each line, in order.
LOG_BLOCK = (
    "keep", "keep", "non_200", "keep", "duplicate", "bad_extension", "keep", "ip_host",
    "keep", "non_english_tld", "keep", "bad_uri", "keep", "malformed", "keep",
    "duplicate", "non_english_tld", "keep", "non_200", "keep",
)
LOG_KEEP_TLDS = ("com", "org", "net", "us", "co.uk", "ca", "com.au", "nz", "info")
LOG_FOREIGN_TLDS = ("de", "fr", "jp", "it", "nl")
LOG_KEEP_PATHS = ("/", "/{w}", "/{w}/{v}.html", "/{w}.php", "/{w}/{v}", "/{w}/index.htm")

_ONSETS = (
    "b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l", "m",
    "n", "p", "pl", "pr", "r", "s", "sh", "sk", "sl", "sp", "st", "t", "th", "tr", "v", "z",
)
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "oa", "ou", "io")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "x", "nd", "rt")


@dataclass
class Member:
    uri: str
    surt: str
    category: str
    registered_domain: str
    tld_label: str
    depth: int
    position: int
    mementos: tuple[tuple[datetime, str], ...] = ()  # what a fetch returns, sorted


@dataclass(frozen=True)
class Request:
    uri: str
    datetime: datetime
    top: str  # top-level category the URI was drawn from
    category: str | None = None  # indexed category of the URI (serve-indexed)


@dataclass(frozen=True)
class LogFile:
    path: Path
    counters: dict[str, int]  # LogFilterStats.as_dict() the file must give
    survivors: list[str]


@dataclass
class Truth:
    workload: str
    directory: Path
    members: list[Member]
    damage: dict[str, float] = field(default_factory=dict)
    requests: list[Request] = field(default_factory=list)
    warmups: list[Request] = field(default_factory=list)
    logs: list[LogFile] = field(default_factory=list)

    @property
    def index_path(self) -> Path:
        return self.directory / "index.tsv"

    def by_category(self) -> dict[str, list[Member]]:
        out: dict[str, list[Member]] = {}
        for m in self.members:
            out.setdefault(m.category, []).append(m)
        return out


def surt(uri: str) -> str:
    """SURT key of a generated URI. Generated URIs are lowercase http(s)
    URIs with an optional port and no query, so this short form suffices."""
    scheme, _, rest = uri.partition("://")
    netloc, slash, path = rest.partition("/")
    host, _, port = netloc.partition(":")
    key = ",".join(reversed(host.split(".")))
    if port and int(port) != (80 if scheme == "http" else 443):
        key += ":" + port
    return f"{key})/{path.lower()}" if slash else f"{key})/"


def uri_depth(uri: str) -> int:
    path = uri.partition("://")[2].partition("/")[2]
    segments = [s for s in path.split("/") if s]
    if segments and segments[-1] in ("index.html", "home.html"):
        segments.pop()
    return len(segments)


def _grams4(word: str) -> set[str]:
    return {word[i : i + 4] for i in range(len(word) - 3)}


class _Words:
    """Pseudo-words whose 4-grams belong to one owner (a top-level
    category) only, so first-level vocabularies are kept apart."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.owner: dict[str, str] = {}
        self.used: set[str] = set()

    def word(self, owner: str) -> str:
        while True:
            syllables = self.rng.randint(2, 3)
            word = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) + self.rng.choice(_CODAS)
                for _ in range(syllables)
            )
            if not 5 <= len(word) <= 10 or word in self.used:
                continue
            grams = _grams4(word)
            if any(self.owner.get(g, owner) != owner for g in grams):
                continue
            self.used.add(word)
            for g in grams:
                self.owner[g] = owner
            return word


def _entry_uris(k: int, a: str, b: str, c: str, d: str, s: str, digit: int, tlds: list[str]):
    """(uri, registered domain) rows for the k-th indexed compound; ``s`` is
    the anchor word."""
    t0, t1, t2 = tlds
    rows = [(f"http://{s}.{a}{b}.{t0}", f"{a}{b}.{t0}")]
    if k == 0:
        rows += [(f"https://www.{a}{b}.{t1}/{s}/{c}", f"{a}{b}.{t1}"),
                 (f"http://{a}{b}{digit}.{t2}/{c}/{s}.html", f"{a}{b}{digit}.{t2}")]
    elif k == 1:
        rows += [(f"http://{a}{b}.{t2}/{s}/index.html", f"{a}{b}.{t2}")]
    elif k == 2:
        rows += [(f"http://{c}.{a}{b}.{t1}/{d}/{s}/{d}", f"{a}{b}.{t1}")]
    else:
        rows += [(f"http://{a}{b}{digit}.{t1}:8080/{s}", f"{a}{b}{digit}.{t1}")]
    return rows


def _lost_uri(j: int, a: str, b: str, c: str, d: str, s: str, digit: int) -> str:
    return (
        f"http://{a}{b}.com/{s}/{c}",
        f"https://{s}.{a}{b}.org",
        f"http://{a}{b}.net/{c}/{s}.html",
        f"http://{a}{b}{digit}.info/{s}/{d}",
    )[j % 4]


def _ts(dt: datetime) -> str:
    return dt.strftime("%Y%m%d%H%M%S")


def _rfc1123(dt: datetime) -> str:
    return dt.strftime("%a, %d %b %Y %H:%M:%S GMT")


def _memento_dates(rng: random.Random, count: int) -> list[datetime]:
    dt = datetime(1997, 1, 1, tzinfo=timezone.utc) + timedelta(days=rng.randrange(0, 3000))
    out = []
    for _ in range(count):
        dt += timedelta(days=rng.randrange(1, 90), seconds=2 * rng.randrange(0, 43200))
        out.append(dt)
    return out


def _timemap_page(original: str, mementos, self_uri: str, first: bool,
                  next_uri: str | None) -> str:
    lines = [
        f'<{original}>; rel="original"',
        f'<{self_uri}>; rel="self"; type="application/link-format"',
        f'<{AGGREGATOR}/timegate/{original}>; rel="timegate"',
    ]
    for i, (dt, memento) in enumerate(mementos):
        rels = ["memento"]
        if first and i == 0:
            rels.insert(0, "first")
        if next_uri is None and i == len(mementos) - 1:
            rels.insert(0, "last")
        lines.append(f'<{memento}>; rel="{" ".join(rels)}"; datetime="{_rfc1123(dt)}"')
    if next_uri is not None:
        lines.append(f'<{next_uri}>; rel="next"; type="application/link-format"')
    return ",\n".join(lines) + "\n"


def _write_timemap(directory: Path, member: Member, dates: list[datetime], pages: int) -> None:
    """Write a TimeMap of ``pages`` pages and record on the member the
    mementos a fetch following at most MAX_PAGES continuation pages sees."""
    mementos = [(dt, f"{WAYBACK}/web/{_ts(dt)}/{member.uri}") for dt in dates]
    per_page = -(-len(mementos) // pages)
    chunks = [mementos[i : i + per_page] for i in range(0, len(mementos), per_page)]
    original = member.uri
    page_uris = [f"{AGGREGATOR}/timemap/link/{original}"] + [
        f"{AGGREGATOR}/timemap/link/{original}?page={n}" for n in range(2, len(chunks) + 1)
    ]
    for n, chunk in enumerate(chunks):
        name = original if n == 0 else page_uris[n]
        next_uri = page_uris[n + 1] if n + 1 < len(chunks) else None
        text = _timemap_page(original, chunk, page_uris[n], n == 0, next_uri)
        (directory / (quote(name, safe="") + ".link")).write_text(text, "utf-8")
    member.mementos = tuple(m for chunk in chunks[: 1 + MAX_PAGES] for m in chunk)


def _build_index(rng: random.Random, words: _Words):
    """Members of the synthetic index; each top-level category's anchor
    word; and its (category, word pool) pairs."""
    members: list[Member] = []
    anchors: dict[str, str] = {}
    pools_by_top: dict[str, list[tuple[str, list[str]]]] = {}
    tld_at = 0
    for top in TOPS:
        labels = {key: words.word(top).capitalize() for key in "ABCDEFGHIJ"}
        anchor = anchors[top] = words.word(top)
        for shape in CATEGORY_SHAPES:
            category = "/".join((top,) + tuple(labels[key] for key in shape))
            pool = [words.word(top) for _ in range(WORDS_PER_CATEGORY)]
            position = 0
            for k, (ia, ib, ic, idd) in enumerate(INDEXED_COMPOUNDS):
                tlds = [TLD_CYCLE[(tld_at + i) % len(TLD_CYCLE)] for i in range(3)]
                tld_at += 1
                for uri, registered in _entry_uris(
                    k, pool[ia], pool[ib], pool[ic], pool[idd], anchor, rng.randrange(1, 99), tlds
                ):
                    members.append(Member(
                        uri=uri, surt=surt(uri), category=category,
                        registered_domain=registered, tld_label=registered.rsplit(".", 1)[-1],
                        depth=uri_depth(uri), position=position,
                    ))
                    position += 1
            assert position == ENTRIES_PER_CATEGORY
            pools_by_top.setdefault(top, []).append((category, pool))
    return members, anchors, pools_by_top


def _write_index(directory: Path, rng: random.Random, members: list[Member],
                 pools: dict[str, list[str]]) -> None:
    rows, surts = [], []
    for m in members:
        pool = pools[m.category]
        host_words = [w for w in pool if w in m.uri][:3]
        title = " ".join(w.capitalize() for w in host_words)
        description = " ".join(rng.sample(pool, 5))
        rows.append(f"{m.category}\t{m.uri}\t{title}\t{description}")
        surts.append(m.surt)
    (directory / "index.tsv").write_text("\n".join(rows) + "\n", "utf-8")
    (directory / "index.tsv.surt").write_text("\n".join(surts) + "\n", "utf-8")


def _write_popularity(directory: Path, rng: random.Random, members: list[Member]) -> None:
    ranks: dict[str, int] = {}
    for m in members:
        if m.position % 3 == 1 or m.registered_domain in ranks:
            continue
        ranks[m.registered_domain] = rng.randrange(1, RANK_FLOOR)
    lines = ["# registered domain<TAB>global rank"]
    lines += [f"{domain}\t{rank}" for domain, rank in ranks.items()]
    (directory / "popularity.tsv").write_text("\n".join(lines) + "\n", "utf-8")


def _write_damage(directory: Path, rng: random.Random, members: list[Member]) -> dict[str, float]:
    damage: dict[str, float] = {}
    for m in members:
        for i, (_, memento) in enumerate(m.mementos):
            if i % 4 != 3:
                damage[memento] = rng.randrange(0, 1000) / 1000
    lines = ["# memento URI<TAB>damage in [0,1]"]
    lines += [f"{memento}\t{value!r}" for memento, value in damage.items()]
    (directory / "damage.tsv").write_text("\n".join(lines) + "\n", "utf-8")
    return damage


def _random_datetime(rng: random.Random) -> datetime:
    return datetime(2000, 1, 1, tzinfo=timezone.utc) + timedelta(
        seconds=rng.randrange(0, 20 * 365 * 86400)
    )


def _tie_datetime(rng: random.Random, candidates: list[Member]) -> datetime:
    """A datetime exactly halfway between two consecutive mementos of an
    archived candidate, so the nearest-memento choice must break the tie
    toward the earlier capture."""
    archived = [m for m in candidates if len(m.mementos) >= 2]
    member = archived[rng.randrange(len(archived))]
    i = rng.randrange(len(member.mementos) - 1)
    a, b = member.mementos[i][0], member.mementos[i + 1][0]
    return a + (b - a) / 2


def _serve_lost(directory: Path, rng: random.Random, truth: Truth, anchors, pools_by_top) -> None:
    timemaps = directory / "timemaps"
    timemaps.mkdir()
    for m in truth.members:
        count = LOST_TIMEMAP_MEMENTOS[m.position]
        if count:
            _write_timemap(timemaps, m, _memento_dates(rng, count), 1)
    for top in TOPS:
        categories = pools_by_top[top]
        for j in range(LOST_REQUESTS_PER_TOP):
            category, pool = categories[j % len(categories)]
            ia, ib, ic, idd = HELD_OUT_COMPOUNDS[(j // len(categories)) % len(HELD_OUT_COMPOUNDS)]
            uri = _lost_uri(j, pool[ia], pool[ib], pool[ic], pool[idd], anchors[top],
                            rng.randrange(1, 99))
            truth.requests.append(Request(uri=uri, datetime=_random_datetime(rng), top=top))
    # Warm-ups: one request per top-level category, ahead of the stream.
    truth.warmups = [truth.requests[t * LOST_REQUESTS_PER_TOP] for t in range(len(TOPS))]


def _serve_indexed(directory: Path, rng: random.Random, truth: Truth) -> None:
    timemaps = directory / "timemaps"
    timemaps.mkdir()
    by_category = truth.by_category()
    asked = [
        cats[i]
        for top in TOPS
        for cats in [[c for c in by_category if c.split("/", 1)[0] == top]]
        for i in INDEXED_CATEGORIES
    ]
    for category in asked:
        for m in by_category[category]:
            pages = INDEXED_TIMEMAP_PAGES[m.position]
            if pages:
                _write_timemap(timemaps, m, _memento_dates(rng, pages * MEMENTOS_PER_PAGE), pages)
    # Each category is asked INDEXED_ASKS times for the same member at other
    # datetimes: the first ask fetches every mate's evidence, the repeats read
    # it back from the cache and fetch only the damage of newly nearest
    # mementos.
    for ask in range(INDEXED_ASKS):
        for n, category in enumerate(asked):
            members = by_category[category]
            requested = members[n % len(members)]
            others = [m for m in members if m is not requested]
            when = _tie_datetime(rng, others) if (n + ask) % 2 == 0 else _random_datetime(rng)
            truth.requests.append(Request(
                uri=requested.uri, datetime=when, top=category.split("/", 1)[0], category=category,
            ))
    per_top = len(INDEXED_CATEGORIES)
    truth.warmups = [truth.requests[t * per_top] for t in range(len(TOPS))]


def _log_word(rng: random.Random) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        for _ in range(rng.randint(2, 3))
    )


def _batch_logs(directory: Path, rng: random.Random, truth: Truth) -> None:
    """Access logs of LOG_FILES files; every block of LOG_BLOCK lines holds
    every filter outcome, and duplicates repeat a URI kept in the same block."""
    kept: set[str] = set()
    when = datetime(2012, 2, 2, tzinfo=timezone.utc)
    serial = 0
    (directory / "logs").mkdir()
    for n in range(LOG_FILES):
        counters: Counter[str] = Counter()
        survivors: list[str] = []
        lines: list[str] = []
        for block in range(n * LOG_BLOCKS_PER_FILE, (n + 1) * LOG_BLOCKS_PER_FILE):
            kept_here: list[str] = []
            for kind in LOG_BLOCK:
                serial += 1
                when += timedelta(seconds=rng.randrange(1, 90))
                w, v = _log_word(rng), _log_word(rng)
                host = f"{w}{serial}" if serial % 5 == 0 else w
                status, uri = 200, None
                if kind == "keep":
                    path = LOG_KEEP_PATHS[serial % len(LOG_KEEP_PATHS)].format(w=v, v=w)
                    prefix = "www." if serial % 3 == 0 else ""
                    tld = LOG_KEEP_TLDS[serial % len(LOG_KEEP_TLDS)]
                    uri = f"http://{prefix}{host}.{tld}{path}"
                    if uri in kept:
                        uri = f"http://{prefix}{host}{serial}.{tld}{path}"
                    kept.add(uri)
                    kept_here.append(uri)
                    survivors.append(uri)
                elif kind == "duplicate":
                    uri = kept_here[rng.randrange(len(kept_here))]
                elif kind == "non_200":
                    status = (404, 301, 500)[serial % 3]
                    uri = f"http://{host}.com/{v}"
                elif kind == "bad_extension":
                    uri = f"http://{host}.org/{v}.{('png', 'zip', 'css', 'pdf')[serial % 4]}"
                elif kind == "ip_host":
                    uri = f"http://{10 + serial % 200}.{serial % 250}.{block % 250}.{1 + serial % 9}/{v}"
                elif kind == "non_english_tld":
                    uri = f"http://{host}.{LOG_FOREIGN_TLDS[serial % len(LOG_FOREIGN_TLDS)]}/{v}"
                elif kind == "bad_uri":
                    uri = (f"/web/2010/http://{host}.com/", f"ftp://{host}.com/{v}")[serial % 2]
                counters["kept" if kind == "keep" else kind] += 1
                ip = f"198.51.{serial % 250}.{block % 250}"
                stamp = when.strftime("%Y-%m-%dT%H:%M:%SZ")
                if kind == "malformed":
                    lines.append(f"{ip} {stamp} GET http://{host}.com/ HTTP/1.1 200 31")
                    continue
                size = "-" if serial % 7 == 0 else str(rng.randrange(100, 90000))
                lines.append(f"{ip} {stamp} GET {uri} HTTP/1.1 {status} {size} - Mozilla/5.0 (X11; {v})")
        path = directory / "logs" / f"access-{n:02d}.log"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        truth.logs.append(LogFile(path, {"total_lines": len(lines), **counters}, survivors))


def generate(workload: str, seed: int, directory: Path) -> Truth:
    """Write the inputs of one workload into ``directory`` (created empty)
    and return their ground truth."""
    directory.mkdir(parents=True)
    # The index depends on the seed alone, so every workload of one seed
    # shares it; the rest of the inputs has a stream of its own.
    index_rng = random.Random(seed)
    members, anchors, pools_by_top = _build_index(index_rng, _Words(index_rng))
    pools = {category: pool for pairs in pools_by_top.values() for category, pool in pairs}
    _write_index(directory, index_rng, members, pools)
    rng = random.Random(f"{workload}:{seed}")
    truth = Truth(workload=workload, directory=directory, members=members)
    if workload == "serve-lost":
        _serve_lost(directory, rng, truth, anchors, pools_by_top)
    elif workload == "serve-indexed":
        _serve_indexed(directory, rng, truth)
    elif workload == "batch":
        _batch_logs(directory, rng, truth)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "batch":
        _write_popularity(directory, rng, members)
        truth.damage = _write_damage(directory, rng, members)
    return truth
