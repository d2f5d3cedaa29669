"""Refine a top-level label into a deep category path.

Matching a URI against every deep category at once is hopeless with
URI-only features, so the search is narrowed first: cosine similarity
over gram vectors proposes candidate categories, the candidates are
pruned into a small tree (keeping ancestors of isolated candidates),
and a final classifier picks the winning path. Run from the repository
root:

    python3 demos/deep_classification.py
"""
from pathlib import Path

from archive_recommender.deep import (
    GramScheme,
    build_vector_index,
    classify_deep,
    expand_query,
    prune_tree,
    top_candidates,
)
from archive_recommender.ontology import load_index
from archive_recommender.uri import TokenMethod, tokenize

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
URI = "http://odu.edu/compsci"


def main() -> None:
    index = load_index(FIXTURES / "index.tsv")
    vindex = build_vector_index(index, GramScheme.ALL_GRAM)
    print(f"vector index over {len(index.by_category)} deep categories\n")

    query = expand_query(tokenize(URI, TokenMethod.TOKENS), GramScheme.ALL_GRAM)
    candidates = top_candidates(vindex, query, 10)
    print(f"top candidate categories for {URI}:")
    for candidate in candidates:
        print(f"  {candidate.score:.4f}  {candidate.path}")
    print()

    tree = prune_tree([c.path for c in candidates])
    extras = sorted(str(node) for node in tree.nodes - tree.candidates)
    print(f"pruned tree: {len(tree.nodes)} nodes, {len(tree.candidates)} candidates")
    for node in extras:
        print(f"  ancestor kept: {node}")
    print()

    final = classify_deep(tree, vindex, query)
    print(f"deep category: {final}")


if __name__ == "__main__":
    main()
