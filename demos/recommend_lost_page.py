"""End-to-end: recommend archived stand-ins for a page that was never saved.

The requested URI below has no mementos in the recorded fixtures. The
pipeline classifies it, collects the category's other members, checks
each one against the (fixture) archive aggregator, and ranks whatever
actually has mementos. Run from the repository root:

    python3 demos/recommend_lost_page.py
"""
from datetime import datetime, timezone
from pathlib import Path

from archive_recommender.archives import (
    EvidenceService,
    FixtureArchiveSource,
    FixtureDamageProvider,
    FixturePopularityProvider,
)
from archive_recommender.ontology import load_index
from archive_recommender.pipeline import RecommendationRequest, Recommender

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main() -> None:
    service = EvidenceService(
        FixtureArchiveSource(FIXTURES / "timemaps"),
        FixturePopularityProvider(FIXTURES / "popularity.tsv"),
        FixtureDamageProvider(FIXTURES / "damage.tsv"),
    )
    recommender = Recommender(load_index(FIXTURES / "index.tsv"), service)

    request = RecommendationRequest(
        uri="http://odu.edu/compsci",
        datetime=datetime(2014, 3, 1, tzinfo=timezone.utc),
        top_n=5,
    )
    result = recommender.recommend(request, now=datetime(2014, 6, 1, tzinfo=timezone.utc))

    print(f"request: {request.uri} @ {request.datetime:%Y-%m-%d}")
    print(f"route:   {result.route}")
    print(f"category: {result.category}\n")

    for position, rec in enumerate(result.recommendations, start=1):
        print(f"{position}. {rec.uri}   score {rec.score:.4f}")
        print(f"   memento: {rec.memento_uri}")
        for note in rec.explanations:
            print(f"   - {note}")
        print()

    for uri, why in result.dropped:
        print(f"dropped: {uri} ({why})")
    print()
    for step in result.trace:
        print(f"trace: {step}")


if __name__ == "__main__":
    main()
