#!/usr/bin/env python3
"""Regenerate the recorded fixtures under fixtures/.

Everything here is deterministic (fixed seed, fixed word pools) so the
fixture files are reproducible byte-for-byte. The corpus is synthetic: each
category owns a small vocabulary, and URIs/titles/descriptions are drawn
from it, so classifiers have real signal to find without any external data.
"""
from __future__ import annotations

import json
import random
import sys
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import quote

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from archive_recommender.ontology import IngestFormat, ingest_dmoz, save_index  # noqa: E402
from archive_recommender.uri import canonicalize_surt  # noqa: E402

FIXTURES = ROOT / "fixtures"
SEED = 20140301

# ---------------------------------------------------------------------------
# Corpus: the worked-example category with its ten members, pinned verbatim.

VIRGINIA_CATEGORY = (
    "Computers/Computer_Science/Academic_Departments/North_America/United_States/Virginia"
)
VIRGINIA_ENTRIES = [
    ("http://cs.gmu.edu", "George Mason University Department of Computer Science",
     "computer science department with research and graduate degrees in fairfax virginia"),
    ("http://cs.odu.edu", "Old Dominion University Department of Computer Science",
     "computer science department in norfolk virginia offering bachelor master and doctoral degrees"),
    ("http://cs.virginia.edu", "University of Virginia Department of Computer Science",
     "charlottesville virginia computer science department for research and teaching"),
    ("http://cs.vt.edu", "Virginia Tech Department of Computer Science",
     "computer science department in blacksburg virginia within the college of engineering"),
    ("http://wm.edu/as/computerscience/?svr=web", "William and Mary Computer Science",
     "computer science department at the college of william and mary in williamsburg virginia"),
    ("http://radford.edu/content/csat/home/itec.html", "Radford University Information Technology",
     "information technology and computer science programs at radford university in virginia"),
    ("http://cs.jmu.edu", "James Madison University Department of Computer Science",
     "computer science department at james madison university in harrisonburg virginia"),
    ("https://php.radford.edu/~itec", "Radford University ITEC Department",
     "information technology department at radford university in virginia"),
    ("http://mathcs.richmond.edu", "University of Richmond Mathematics and Computer Science",
     "joint mathematics and computer science department in richmond virginia"),
    ("http://hollins.edu/academics/computersci", "Hollins University Computer Science",
     "computer science major at hollins university in roanoke virginia"),
]

# Per-category vocabularies. Kept free of substrings that overlap the
# worked-example query's character grams (comp/omps/mpsc/psci/oduc/ucom/...)
# outside the Computers tree, so first-level classification has one honest
# answer for it.
SUBCATEGORIES: list[tuple[str, int, list[str]]] = [
    ("Arts/Music/Bands", 17,
     ["music", "band", "guitar", "drums", "concert", "album", "songs", "melody",
      "jazz", "blues", "rock", "vinyl", "chorus", "tour"]),
    ("Arts/Literature/Poetry", 17,
     ["poetry", "poems", "verse", "sonnet", "writer", "novel", "story", "author",
      "prose", "haiku", "stanza", "anthology"]),
    ("Arts/Movies", 16,
     ["movies", "cinema", "film", "actor", "screen", "studio", "trailer", "drama",
      "scenes", "reel", "director", "festival"]),
    ("Business/Finance/Banking", 17,
     ["bank", "finance", "money", "loans", "credit", "invest", "capital", "market",
      "funds", "wealth", "savings", "ledger"]),
    ("Business/Marketing", 16,
     ["brand", "media", "sales", "advert", "agency", "clients", "growth", "trade",
      "campaign", "outreach", "slogan"]),
    ("Computers/Software/Databases", 17,
     ["software", "database", "server", "query", "tables", "storage", "linux",
      "code", "admin", "backup", "schema", "index"]),
    ("Computers/Hardware", 16,
     ["hardware", "chips", "memory", "devices", "circuit", "silicon", "boards",
      "gadget", "router", "sensors", "firmware"]),
    ("Computers/Internet/Protocols", 17,
     ["internet", "network", "protocol", "routing", "packets", "domain", "hosting",
      "gateway", "sockets", "headers", "caching"]),
    ("Computers/Programming/Compilers", 16,
     ["compiler", "compile", "parsing", "syntax", "linker", "bytecode", "assembler",
      "lexer", "macros", "debugger"]),
    ("Games/Video_Games/Strategy", 17,
     ["games", "gaming", "strategy", "player", "quest", "arcade", "pixel",
      "console", "levels", "missions", "empire"]),
    ("Games/Board_Games", 16,
     ["board", "chess", "dice", "tiles", "puzzle", "meeple", "checkers", "dominoes",
      "playing", "rules", "pieces"]),
    ("Health/Medicine/Cardiology", 17,
     ["health", "heart", "cardio", "doctor", "clinic", "medical", "patient",
      "nurse", "wellness", "surgery", "rhythm"]),
    ("Health/Nutrition", 16,
     ["nutrition", "diet", "vitamins", "protein", "foods", "fitness", "organic",
      "minerals", "calories", "grains"]),
    ("Home/Gardening", 17,
     ["garden", "plants", "flowers", "seeds", "lawn", "roses", "soil", "pruning",
      "shrubs", "mulch", "blooms"]),
    ("Home/Cooking/Recipes", 16,
     ["cooking", "recipes", "kitchen", "baking", "flavor", "spices", "meals",
      "chef", "oven", "sauces", "dishes"]),
    ("News/Weather", 17,
     ["weather", "forecast", "storm", "radar", "climate", "alerts", "rains",
      "winds", "fronts", "temperature"]),
    ("News/Newspapers", 16,
     ["news", "daily", "press", "herald", "times", "tribune", "journal", "editor",
      "headlines", "gazette", "bureau"]),
    ("Recreation/Travel/Lodging", 17,
     ["travel", "hotels", "resort", "lodge", "tours", "islands", "beach",
      "vacation", "suites", "hostel", "itinerary"]),
    ("Recreation/Camping", 16,
     ["camping", "trails", "hiking", "tents", "outdoors", "forest", "rivers",
      "summit", "lantern", "wilderness"]),
    ("Reference/Libraries", 17,
     ["library", "books", "archive", "catalog", "reading", "scholar", "journals",
      "stacks", "lending", "manuscripts"]),
    ("Reference/Dictionaries", 16,
     ["dictionary", "words", "glossary", "language", "meaning", "lexicon",
      "grammar", "idioms", "spelling", "usage"]),
    ("Science/Astronomy/Observatories", 17,
     ["astronomy", "stars", "planets", "telescope", "galaxy", "orbit", "cosmos",
      "nebula", "eclipse", "meteor"]),
    ("Science/Biology", 16,
     ["biology", "cells", "genetics", "species", "marine", "botany", "enzyme",
      "ecology", "fauna", "microbe"]),
    ("Shopping/Flowers", 17,
     ["shopping", "bouquet", "gifts", "tulips", "daisy", "orchid", "florist",
      "delivery", "petals", "ribbons"]),
    ("Shopping/Antiques", 16,
     ["antiques", "vintage", "auction", "dealers", "estate", "retro", "relics",
      "heirloom", "curios", "appraisal"]),
    ("Society/History/Genealogy", 17,
     ["history", "ancestry", "genealogy", "records", "heritage", "lineage",
      "census", "surnames", "pedigree", "descendants"]),
    ("Society/Philosophy", 16,
     ["philosophy", "ethics", "logic", "wisdom", "thinkers", "essays", "reason",
      "virtue", "stoic", "dialogues"]),
    ("Sports/Baseball/Teams", 17,
     ["baseball", "teams", "pitcher", "innings", "stadium", "batting", "league",
      "dugout", "mantle", "rookie", "playoff"]),
    ("Sports/Soccer", 16,
     ["soccer", "goals", "striker", "keeper", "derby", "matches", "fixtures",
      "penalty", "midfield", "referee"]),
]

TLD_POOL = ["com", "com", "com", "com", "com", "org", "org", "net", "net",
            "info", "us", "ca", "co.uk"]

FORBIDDEN = ("comp", "omps", "mpsc", "psci", "oduc", "duco", "ucom", "produ")


def _check_pools() -> None:
    for category, _, pool in SUBCATEGORIES:
        if category.startswith("Computers"):
            continue
        for word in pool:
            for bad in FORBIDDEN:
                if bad in word:
                    raise SystemExit(f"pool word {word!r} in {category} contains {bad!r}")


def synth_entries(rng: random.Random, category: str, pool: list[str], count: int,
                  used: set[str]) -> list[tuple[str, str, str, str]]:
    """Entries for one category, built from recurring site compounds.

    Each compound appears under several TLD / port / digit / www variants so
    its character grams recur across the corpus — directory dumps list the
    same site family many times, and cross-validation folds need shared
    vocabulary to have anything to measure.
    """
    rows: list[tuple[str, str, str, str]] = []
    compounds: list[tuple[str, str]] = []
    needed = (count + 4) // 5
    if needed > len(pool) * (len(pool) - 1):
        raise ValueError(
            f"{category}: {count} entries need {needed} compounds, but a pool of "
            f"{len(pool)} words makes only {len(pool) * (len(pool) - 1)}"
        )
    while len(compounds) < needed:
        a, b = rng.sample(pool, 2)
        if (a, b) not in compounds:
            compounds.append((a, b))

    made = 0
    for a, b in compounds:
        c, d = rng.sample([w for w in pool if w not in (a, b)], 2)
        tld2 = rng.choice(["co.uk", "us", "ca", "info"])
        digit = rng.randrange(1, 99)
        group = [
            f"http://{a}{b}.com",
            f"http://{a}{b}.org",
            f"http://{a}{b}{digit}.net/{c}",
            f"https://www.{a}{b}.{tld2}/{c}",
            f"http://{a}{b}.us/{c}/{d}",
        ]
        for uri in group:
            if made >= count:
                break
            surt = canonicalize_surt(uri)
            if surt in used:
                continue
            used.add(surt)
            title = " ".join(w.capitalize() for w in (a, b, c))
            description = " ".join(rng.sample(pool, min(6, len(pool))))
            rows.append((category, uri, title, description))
            made += 1
    # A little surface variety: one percent-encoded and one camel-case path
    # per category, sharing an already-seen compound so grams still recur.
    a, b = compounds[0]
    c, d = rng.sample([w for w in pool if w not in (a, b)], 2)
    for uri in (f"http://{a}{b}.org:8080/{c}%20{d}",
                f"http://{a}{b}.com/{c.capitalize()}{d.capitalize()}"):
        if made >= count:
            break
        surt = canonicalize_surt(uri)
        if surt in used:
            continue
        used.add(surt)
        rows.append((category, uri, f"{a.capitalize()} {b.capitalize()} {c.capitalize()}",
                     " ".join(rng.sample(pool, min(6, len(pool))))))
        made += 1
    return rows


def build_corpus() -> list[tuple[str, str, str, str]]:
    _check_pools()
    rng = random.Random(SEED)
    used: set[str] = set()
    rows: list[tuple[str, str, str, str]] = []
    for uri, title, description in VIRGINIA_ENTRIES:
        used.add(canonicalize_surt(uri))
        rows.append((VIRGINIA_CATEGORY, uri, title, description))
    for category, count, pool in SUBCATEGORIES:
        rows.extend(synth_entries(rng, category, pool, count, used))
    return rows


# ---------------------------------------------------------------------------
# TimeMaps

AGGREGATOR = "https://memgator.example.org"


def _rfc1123(ts: str) -> str:
    dt = datetime.strptime(ts, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    return dt.strftime("%a, %d %b %Y %H:%M:%S GMT")


def _memento_uri(archive: str, ts: str, original: str) -> str:
    return f"{archive}/web/{ts}/{original}"


def timemap_text(original: str, mementos: list[tuple[str, str]],
                 next_page: str | None = None, self_uri: str | None = None) -> str:
    self_uri = self_uri or f"{AGGREGATOR}/timemap/link/{original}"
    lines = [
        f'<{original}>; rel="original"',
        f'<{self_uri}>; rel="self"; type="application/link-format"',
        f'<{AGGREGATOR}/timegate/{original}>; rel="timegate"',
    ]
    for position, (ts, memento) in enumerate(mementos):
        rels = ["memento"]
        if position == 0:
            rels.insert(0, "first")
        if position == len(mementos) - 1 and next_page is None:
            rels.insert(0, "last")
        lines.append(f'<{memento}>; rel="{" ".join(rels)}"; datetime="{_rfc1123(ts)}"')
    if next_page is not None:
        lines.append(f'<{next_page}>; rel="next"; type="application/link-format"')
    return ",\n".join(lines) + "\n"


WAYBACK = "https://web.archive.org"
ARCHIVE_IT = "https://wayback.archive-it.org"

# (original URI, [(timestamp, archive)...]); nearest-to-2014-03-01 marked below.
TIMEMAPS: dict[str, list[tuple[str, str]]] = {
    "http://cs.gmu.edu": [
        ("20131215083000", WAYBACK),
        ("20140220103015", WAYBACK),        # nearest
        ("20140405121200", ARCHIVE_IT),
    ],
    "http://cs.virginia.edu": [
        ("20131101000000", WAYBACK),
        ("20140208043915", WAYBACK),        # nearest
    ],
    "http://cs.vt.edu": [
        ("20100704000000", WAYBACK),
        ("20140301120000", WAYBACK),        # nearest
    ],
    "http://wm.edu/as/computerscience/?svr=web": [
        ("20140110080000", WAYBACK),        # nearest (only memento)
    ],
    "http://cs.jmu.edu": [
        ("20140223213510", WAYBACK),        # nearest
        ("20140901000000", WAYBACK),
    ],
    "http://mathcs.richmond.edu": [
        ("20061119000000", WAYBACK),
        ("20140610000000", WAYBACK),        # nearest
    ],
    "http://hollins.edu/academics/computersci": [
        ("20091231235959", WAYBACK),
        ("20160101000000", WAYBACK),        # nearest (first/last only)
    ],
    # secondary-ontology member used by the pipeline tests
    "http://baseballcards.example.com/": [
        ("20110501000000", WAYBACK),
        ("20130815000000", WAYBACK),        # nearest
    ],
}

# cs.odu.edu is recorded as a paged TimeMap: two mementos per page.
ODU_PAGE_1 = [
    ("20120105090000", WAYBACK),
    ("20130610112233", WAYBACK),
]
ODU_PAGE_2 = [
    ("20140226090846", WAYBACK),            # nearest; note the :80 original form
    ("20140315000000", WAYBACK),
]

POPULARITY = [
    ("google.com", 1),
    ("odu.edu", 28455),
    ("gmu.edu", 34120),
    ("virginia.edu", 12830),
    ("vt.edu", 15990),
    ("wm.edu", 41200),
    ("radford.edu", 210450),
    ("jmu.edu", 60300),
    ("richmond.edu", 88110),
    ("example.com", 15000000),
    # hollins.edu intentionally absent: missing-rank path
]


def write_timemaps(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)

    def write(uri: str, text: str) -> None:
        (directory / (quote(uri, safe="") + ".link")).write_text(text, "utf-8")

    for original, stamps in TIMEMAPS.items():
        mementos = [(ts, _memento_uri(arc, ts, original)) for ts, arc in stamps]
        write(original, timemap_text(original, mementos))

    # Paged TimeMap for cs.odu.edu; the archive recorded the original with
    # an explicit :80 port, as aggregators commonly return it.
    original = "http://cs.odu.edu"
    recorded = "http://cs.odu.edu:80/"
    page2_uri = f"{AGGREGATOR}/timemap/link/{original}?page=2"
    page1 = timemap_text(
        original,
        [(ts, _memento_uri(arc, ts, recorded)) for ts, arc in ODU_PAGE_1],
        next_page=page2_uri,
    )
    page2 = timemap_text(
        original,
        [(ts, _memento_uri(arc, ts, recorded)) for ts, arc in ODU_PAGE_2],
        self_uri=page2_uri,
    )
    write(original, page1)
    write(page2_uri, page2)


def nearest_memento_uris() -> list[str]:
    """The memento each candidate resolves to for --datetime 2014-03-01."""
    picks = {
        "http://cs.gmu.edu": ("20140220103015", WAYBACK, "http://cs.gmu.edu"),
        "http://cs.odu.edu": ("20140226090846", WAYBACK, "http://cs.odu.edu:80/"),
        "http://cs.virginia.edu": ("20140208043915", WAYBACK, "http://cs.virginia.edu"),
        "http://cs.vt.edu": ("20140301120000", WAYBACK, "http://cs.vt.edu"),
        "http://wm.edu/as/computerscience/?svr=web":
            ("20140110080000", WAYBACK, "http://wm.edu/as/computerscience/?svr=web"),
        "http://cs.jmu.edu": ("20140223213510", WAYBACK, "http://cs.jmu.edu"),
        "http://mathcs.richmond.edu": ("20140610000000", WAYBACK, "http://mathcs.richmond.edu"),
    }
    return [_memento_uri(arc, ts, orig) for ts, arc, orig in picks.values()]


def write_damage(path: Path) -> None:
    uris = nearest_memento_uris()
    scores = [0.05, 0.13, 0.25, 0.08, 0.40, 0.27, 0.55]
    lines = ["# memento URI<TAB>damage in [0,1]"]
    lines += [f"{uri}\t{score}" for uri, score in zip(uris, scores)]
    lines.append("# hollins memento intentionally absent: default-missing path")
    path.write_text("\n".join(lines) + "\n", "utf-8")


# ---------------------------------------------------------------------------
# Access log

LOG_LINES = [
    # keep
    "128.82.5.10 2012-02-02T10:23:41Z GET http://example.com/ HTTP/1.1 200 5120 - Mozilla/5.0 (Windows NT 6.1; rv:10.0)",
    # duplicate of line 1
    "128.82.5.11 2012-02-02T10:24:02Z GET http://example.com/ HTTP/1.1 200 5120 http://search.example.com/ Mozilla/5.0 (Macintosh)",
    # non-200
    "10.0.0.7 2012-02-02T10:24:30Z GET http://missing.example.com/ HTTP/1.1 404 512 - curl/7.21.0",
    # bad extension (image)
    "128.82.5.10 2012-02-02T10:25:00Z GET http://example.com/logo.png HTTP/1.1 200 20480 http://example.com/ Mozilla/5.0",
    # IP-address host
    "172.16.9.3 2012-02-02T10:25:31Z GET http://63.135.118.69/page HTTP/1.1 200 900 - Python-urllib/2.7",
    # non-English ccTLD (.de)
    "128.82.5.12 2012-02-02T10:26:10Z GET http://zeitung.example.de/artikel HTTP/1.1 200 3100 - Mozilla/5.0 (X11; Linux)",
    # relative URI (invalid)
    "128.82.5.13 2012-02-02T10:26:44Z GET /web/20100101000000/http://example.com/ HTTP/1.1 200 7800 - Mozilla/4.0 (compatible; MSIE 8.0)",
    # redirect
    "10.0.0.9 2012-02-02T10:27:01Z GET http://moved.example.com/ HTTP/1.1 301 0 - Mozilla/5.0",
    # keep
    "198.51.100.4 2012-02-02T10:27:33Z GET http://news.example.org/stories.html HTTP/1.1 200 15000 - Mozilla/5.0 (Windows NT 5.1)",
    # keep (co.uk resolves to the uk country code)
    "198.51.100.5 2012-02-02T10:28:05Z GET http://shop.example.co.uk/items.php HTTP/1.1 200 9400 - Opera/9.80",
    # keep (.ca)
    "198.51.100.6 2012-02-02T10:28:40Z GET http://example.ca/faq.htm HTTP/1.1 200 4100 - Mozilla/5.0 (Windows)",
    # malformed: seven fields only
    "192.0.2.77 2012-02-02T10:29:02Z GET http://short.example.com/ HTTP/1.1 200 31",
    # bad extension (archive file)
    "192.0.2.78 2012-02-02T10:29:30Z GET http://files.example.com/archive.zip HTTP/1.1 200 1048576 - Wget/1.12",
    # non-English ccTLD (.fr)
    "192.0.2.79 2012-02-02T10:30:00Z GET http://example.fr/page.html HTTP/1.1 200 2200 - Mozilla/5.0 (X11)",
    # unsupported scheme (invalid URI)
    "192.0.2.80 2012-02-02T10:30:27Z GET ftp://example.com/readme HTTP/1.1 200 640 - FileZilla/3.5",
    # keep (explicit port, extension-less path)
    "203.0.113.2 2012-02-02T10:31:04Z GET http://example.com:8080/portal HTTP/1.1 200 6000 - Mozilla/5.0 (iPad)",
    # server error
    "203.0.113.3 2012-02-02T10:31:40Z GET http://example.com/error HTTP/1.1 500 300 - Mozilla/5.0",
    # non-English ccTLD (.jp)
    "203.0.113.4 2012-02-02T10:32:11Z GET http://api.example.jp/data HTTP/1.1 200 1800 - okhttp/2.0",
    # keep (.aspx is on the allowlist)
    "203.0.113.5 2012-02-02T10:32:50Z GET http://blog.example.com/post.aspx HTTP/1.1 200 8800 - Mozilla/5.0 (Windows NT 6.2)",
    # keep (.nz)
    "203.0.113.6 2012-02-02T10:33:21Z GET http://wiki.example.nz/history HTTP/1.1 200 5400 - Mozilla/5.0 (X11; FreeBSD)",
]

EXPECTED_SURVIVORS = [
    "http://example.com/",
    "http://news.example.org/stories.html",
    "http://shop.example.co.uk/items.php",
    "http://example.ca/faq.htm",
    "http://example.com:8080/portal",
    "http://blog.example.com/post.aspx",
    "http://wiki.example.nz/history",
]


# ---------------------------------------------------------------------------
# RDF sample and secondary ontology

RDF_SAMPLE = """<?xml version="1.0" encoding="UTF-8"?>
<RDF xmlns:r="http://www.w3.org/TR/RDF/"
     xmlns:d="http://purl.org/dc/elements/1.0/"
     xmlns="http://dmoz.org/rdf/">
  <ExternalPage about="http://cs.odu.edu">
    <d:Title>Old Dominion University Department of Computer Science</d:Title>
    <d:Description>Computer science department in Norfolk, Virginia.</d:Description>
    <topic>Top/Computers/Computer_Science/Academic_Departments/North_America/United_States/Virginia</topic>
  </ExternalPage>
  <ExternalPage about="http://gardenclub.example.com/roses">
    <d:Title>Rose Garden Club</d:Title>
    <d:Description>Growing roses and other garden flowers.</d:Description>
    <topic>Top/Home/Gardening</topic>
  </ExternalPage>
  <ExternalPage about="http://zeitung.example.de/">
    <d:Title>Beispiel Zeitung</d:Title>
    <d:Description>Nachrichten auf Deutsch.</d:Description>
    <topic>Top/World/Deutsch/Nachrichten</topic>
  </ExternalPage>
  <ExternalPage about="http://cities.example.com/norfolk">
    <d:Title>Norfolk City Guide</d:Title>
    <d:Description>Regional guide for Norfolk.</d:Description>
    <topic>Top/Regional/North_America/United_States/Virginia/Norfolk</topic>
  </ExternalPage>
  <ExternalPage about="http://chessclub.example.org/">
    <d:Title>Example Chess Club</d:Title>
    <d:Description>Chess puzzles, openings, and club news.</d:Description>
    <topic>Top/Games/Board_Games</topic>
  </ExternalPage>
</RDF>
"""

SECONDARY = [
    {
        "official_uri": "http://odu.edu/",
        "categories": ["Universities_in_Virginia"],
        "members": [
            "http://odu.edu/",
            "http://vt.edu/",
            "http://virginia.edu/",
            "http://gmu.edu/",
        ],
    },
    {
        "official_uri": "http://mickeymantle.com/",
        "categories": ["Baseball_Memorabilia"],
        "members": [
            "http://mickeymantle.com/",
            "http://baseballcards.example.com/",
        ],
    },
]


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    rows = build_corpus()
    corpus_path = FIXTURES / "corpus_500.tsv"
    corpus_path.write_text(
        "\n".join("\t".join(row) for row in rows) + "\n", "utf-8"
    )
    index, report = ingest_dmoz(corpus_path, IngestFormat.TSV)
    save_index(index, FIXTURES / "index.tsv")

    write_timemaps(FIXTURES / "timemaps")
    write_damage(FIXTURES / "damage.tsv")

    popularity_lines = ["# registered domain<TAB>global rank"]
    popularity_lines += [f"{domain}\t{rank}" for domain, rank in POPULARITY]
    (FIXTURES / "popularity.tsv").write_text("\n".join(popularity_lines) + "\n", "utf-8")

    (FIXTURES / "access_log_sample.log").write_text("\n".join(LOG_LINES) + "\n", "utf-8")
    (FIXTURES / "expected_log_survivors.txt").write_text(
        "\n".join(EXPECTED_SURVIVORS) + "\n", "utf-8"
    )
    (FIXTURES / "dmoz_sample.rdf").write_text(RDF_SAMPLE, "utf-8")
    (FIXTURES / "secondary_ontology.jsonl").write_text(
        "\n".join(json.dumps(record, sort_keys=True) for record in SECONDARY) + "\n", "utf-8"
    )

    print(f"corpus: {len(rows)} rows -> kept {report.kept} in {len(index.by_category)} categories")
    print(f"timemaps: {len(list((FIXTURES / 'timemaps').glob('*.link')))} files")
    print("fixtures written to", FIXTURES)


if __name__ == "__main__":
    main()
