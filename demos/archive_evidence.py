"""Inspect the archive evidence gathered for candidate URIs.

A TimeMap lists every known memento (archived snapshot) of a URI; the
evidence layer adds a popularity estimate and a capture-damage score,
fetching all three per candidate. Run from the repository root:

    python3 demos/archive_evidence.py
"""
from datetime import datetime, timezone
from pathlib import Path

from archive_recommender.archives import (
    EvidenceService,
    FixtureArchiveSource,
    FixtureDamageProvider,
    FixturePopularityProvider,
)
from archive_recommender.uri import canonicalize_surt

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

CANDIDATES = [
    "http://cs.odu.edu",        # paged TimeMap: the aggregator splits it in two
    "http://cs.gmu.edu",
    "http://radford.edu/content/csat/home/itec.html",  # never archived
]


def main() -> None:
    service = EvidenceService(
        FixtureArchiveSource(FIXTURES / "timemaps"),
        FixturePopularityProvider(FIXTURES / "popularity.tsv"),
        FixtureDamageProvider(FIXTURES / "damage.tsv"),
    )
    wanted = datetime(2014, 3, 1, tzinfo=timezone.utc)

    # Evidence is cached under each candidate's SURT; an index entry carries
    # its own, and these bare URIs are canonicalized here.
    candidates = [(uri, canonicalize_surt(uri)) for uri in CANDIDATES]
    for evidence in service.gather(candidates, wanted):
        archive = evidence.archive
        print(evidence.uri)
        if evidence.error is not None:  # a fetch failed: the pipeline drops such a candidate
            print(f"  evidence unavailable: {evidence.error}\n")
            continue
        if not archive.archived:
            print("  not archived anywhere\n")
            continue
        print(f"  mementos: {archive.memento_count}" + (" (truncated)" if archive.truncated else ""))
        for when, memento_uri in archive.mementos:
            print(f"    {when:%Y-%m-%d %H:%M:%S}  {memento_uri}")
        when, _ = evidence.memento  # the service's pick, the one ranking scores
        print(f"  nearest to {wanted:%Y-%m-%d}: {when:%Y-%m-%d %H:%M:%S}")
        rank = evidence.popularity.global_rank if evidence.popularity else None
        print(f"  popularity rank: {rank if rank is not None else 'unknown'}")
        damage = evidence.damage
        print(f"  damage: {damage.damage if damage else 'unknown'}"
              + (f" ({damage.source.value})" if damage else ""))
        print()


if __name__ == "__main__":
    main()
