"""Walk through the URI toolkit: parsing, canonical forms, and features.

Run from the repository root:

    python3 demos/uri_features.py
"""
from archive_recommender.uri import (
    TokenMethod,
    TokenVariant,
    canonicalize_surt,
    depth,
    detect_patterns,
    parse_uri,
    tokenize,
)
from archive_recommender.words import segment_words

URI = "https://odu.edu/compsci"


def main() -> None:
    parsed = parse_uri(URI)
    print(f"uri:        {URI}")
    print(f"host:       {parsed.host}")
    print(f"registered: {parsed.registered_domain}   tld: {parsed.tld}")
    print(f"surt:       {canonicalize_surt(URI)}")
    print(f"depth:      {depth(parsed)}")
    print()

    for method in TokenMethod:
        bag = tokenize(URI, method)
        print(f"{method.name}: {len(bag.as_set())} distinct features")
        print(f"  {sorted(bag.as_set())[:10]}{' ...' if len(bag.as_set()) > 10 else ''}")
    print()

    # variants reshape the working text before features are extracted
    noisy = "http://web2archive.co.uk/the-best-101-sites"
    plain = tokenize(noisy, TokenMethod.TOKENS)
    cleaned = tokenize(
        noisy,
        TokenMethod.TOKENS,
        {TokenVariant.STRIP_TLD, TokenVariant.STRIP_NUMBERS, TokenVariant.STRIP_STOPWORDS},
    )
    print(f"tokens, plain:    {sorted(plain.as_set())}")
    print(f"tokens, stripped: {sorted(cleaned.as_set())}")
    print()

    # structural flags help profile large URI collections
    dated = "http://news.example.com/2014/03/01/article.php?id=7"
    print(f"patterns in {dated}:")
    print(f"  {sorted(detect_patterns(parse_uri(dated)))}")
    print()

    # slugs and hostnames often glue dictionary words together
    for joined in ("mickeymantlebaseballcards", "radiotunis", "odu"):
        pieces = [piece.text for piece in segment_words(joined)]
        print(f"segment_words({joined!r}) -> {pieces}")


if __name__ == "__main__":
    main()
