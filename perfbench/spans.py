"""Spans around the program's public functions, taken from outside it.

``Tracer.install()`` replaces each listed function or method with a timing
wrapper, wherever the package binds it, and ``uninstall()`` puts the
originals back; no file of the program changes. Spans are kept in memory
and written out at the end. A layer's self time is its spans' time minus
the part of each span that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "archive_recommender"

# (module, function, span name). A function that another module imported by
# name is replaced in that module too, so it is timed where it is looked up.
FUNCTIONS = (
    ("uri", "parse_uri", "uri.parse_uri"),
    ("uri", "tokenize", "uri.tokenize"),
    ("uri", "canonicalize_surt", "uri.canonicalize_surt"),
    ("words", "segment_words", "words.segment_words"),
    ("ontology", "load_index", "ontology.load_index"),
    ("ontology", "lookup_requested", "ontology.lookup_requested"),
    ("ontology", "corpus_stats", "ontology.corpus_stats"),
    ("nbayes", "train", "nbayes.train"),
    ("nbayes", "classify", "nbayes.classify"),
    ("deep", "entry_features", "deep.entry_features"),
    ("deep", "build_vector_index", "deep.build_vector_index"),
    ("deep", "top_candidates", "deep.top_candidates"),
    ("deep", "classify_deep", "deep.classify_deep"),
    ("deep", "evaluate_deep", "deep.evaluate_deep"),
    ("archives", "fetch_timemap", "archives.fetch_timemap"),
    ("archives", "parse_timemap_links", "archives.parse_timemap_links"),
    # Called by the evidence service and again by ranking; both count.
    ("archives", "nearest_memento", "ranking.nearest_memento"),
    ("ranking", "rank", "ranking.rank"),
    ("reports", "analyze_uris", "reports.analyze_uris"),
    ("logs", "filter_access_log", "logs.filter_access_log"),
    ("logs", "filter_log_file", "logs.filter_log_file"),
    ("metrics", "cross_validate", "metrics.cross_validate"),
    ("pipeline", "evaluate_l1", "pipeline.evaluate_l1"),
)
# (module, class, method, span name)
METHODS = (
    ("pipeline", "Recommender", "recommend", "pipeline.recommend"),
    ("archives", "EvidenceService", "gather", "archives.gather"),
    ("archives", "EvidenceService", "evidence_for", "archives.evidence_for"),
    ("archives", "EvidenceCache", "get", "archives.cache.get"),
    ("archives", "EvidenceCache", "put", "archives.cache.put"),
    ("archives", "ArchiveEvidence", "from_json_dict", "archives.evidence_from_json"),
    ("archives", "FixtureArchiveSource", "get_timemap", "archives.source.get_timemap"),
    ("archives", "FixtureArchiveSource", "get_page", "archives.source.get_page"),
)
REQUEST_SPAN = "pipeline.recommend"
POOL_SPAN = "archives.gather"  # spans opened in the pool's threads hang under it
CACHE_GET_SPAN = "archives.cache.get"

# Per-layer metrics: (name, unit). Order is the order they are printed in.
LAYER_METRICS = (
    ("uri.parse_uri.calls", "count"),
    ("uri.parse_uri.self_s", "s"),
    ("uri.tokenize.calls", "count"),
    ("uri.tokenize.self_s", "s"),
    ("uri.canonicalize_surt.calls", "count"),
    ("words.segment_words.calls", "count"),
    ("words.segment_words.self_s", "s"),
    ("ontology.load_index.self_s", "s"),
    ("ontology.lookup_requested.self_s", "s"),
    ("nbayes.train.calls", "count"),
    ("nbayes.train.self_s", "s"),
    ("nbayes.classify.self_s", "s"),
    ("deep.entry_features.calls", "count"),
    ("deep.build_vector_index.self_s", "s"),
    ("deep.top_candidates.self_s", "s"),
    ("deep.classify_deep.self_s", "s"),
    ("archives.gather.self_s", "s"),
    ("archives.timemap_pages", "count"),
    ("archives.parse_timemap_links.calls", "count"),
    ("archives.parse_timemap_links.self_s", "s"),
    ("archives.evidence_from_json.self_s", "s"),
    ("archives.cache.hits", "count"),
    ("archives.cache.misses", "count"),
    ("archives.cache.hit_ratio", "ratio"),
    ("archives.cache.put.self_s", "s"),
    ("ranking.rank.self_s", "s"),
    ("ranking.nearest_memento.calls", "count"),
    ("reports.analyze_uris.self_s", "s"),
    ("logs.filter_access_log.self_s", "s"),
    ("metrics.cross_validate.self_s", "s"),
    # Whole batch commands, spans the benchmark opens around each call.
    ("batch.evaluate_l1.s", "s"),
    ("batch.evaluate_deep.s", "s"),
    ("batch.stats.s", "s"),
    ("batch.analyze_logs.s", "s"),
    ("pipeline.recommend.s", "s"),
    ("pipeline.recommend.untraced_s", "s"),
    ("tracing.overhead_s", "s"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.request_id: int | None = None
        self.pool_parent: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = stack[-1] if stack else self.pool_parent
        sid = next(self._ids)
        if name == REQUEST_SPAN:
            self.request_id = sid
        elif name == POOL_SPAN:
            self.pool_parent = sid
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, name: str, sid: int, parent: int | None, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, parent, self.request_id, name, start, end))
        if name == POOL_SPAN:
            self.pool_parent = None
        elif name == REQUEST_SPAN:
            self.request_id = None

    def wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                state = tracer._enter(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._exit(name, *state)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, *state)
            if name == CACHE_GET_SPAN:
                with tracer._lock:
                    tracer.counts["archives.cache.misses" if result is None else "archives.cache.hits"] += 1
            return result
        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        plan = []
        importlib.import_module(PACKAGE)  # imports every module of the package
        modules = [sys.modules[PACKAGE]] + [
            m for n, m in list(sys.modules.items()) if n.startswith(PACKAGE + ".")
        ]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, key, original, wrapper))
        for module_name, class_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                plan.append((cls, attr, raw, classmethod(self.wrap(name, raw.__func__))))
            else:
                plan.append((cls, attr, raw, self.wrap(name, raw)))
        return plan

    def install(self) -> None:
        """Put the wrappers in place; cheap enough to toggle per request."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (children in the evidence pool's threads may overlap one another)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer: Tracer, pass_start: int, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of everything traced: ``.calls`` counts spans,
    ``.self_s`` sums self times, ``.s`` sums whole span times.
    ``pipeline.recommend.s`` counts only the spans from index ``pass_start``
    on, the pass that was also run untraced for ``untraced_s``."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter[str] = Counter(s.name for s in spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s[s.name] += own[s.id]
        total_s[s.name] += s.end - s.start
    hits = tracer.counts["archives.cache.hits"]
    misses = tracer.counts["archives.cache.misses"]
    traced_s = sum(s.end - s.start for s in spans[pass_start:] if s.name == REQUEST_SPAN)
    values: dict[str, float] = {
        "archives.timemap_pages": calls["archives.source.get_timemap"] + calls["archives.source.get_page"],
        "archives.cache.hits": hits,
        "archives.cache.misses": misses,
        "archives.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.recommend.s": traced_s,
        "pipeline.recommend.untraced_s": untraced_s,
        "tracing.overhead_s": traced_s - untraced_s,
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            value = total_s.get(name[: -len(".s")], 0.0)
        out[name] = (value, unit)
    return out
