"""Runtime configuration.

Settings resolve from three layers — environment variables (``ARCHREC_*``),
an optional ``key = value`` config file, and command-line flags — with
flags overriding the file and the file overriding the environment.
"""
from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, fields
from datetime import datetime
from pathlib import Path
from typing import Callable, Mapping

from .archives import MAX_PAGES, PARALLELISM, RETRIES, parse_instant
from .deep import GRAMS, GramScheme
from .pipeline import TOP_N
from .ranking import EARLIEST_ARCHIVE_DATE, RankWeights
from .uri import content_lines, read_lines

__all__ = ["ENV_PREFIX", "ConfigError", "Settings", "load_settings", "parse_datetime"]

ENV_PREFIX = "ARCHREC_"


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 4 in the CLI."""


def parse_datetime(text: str) -> datetime:
    """Parse an ISO-8601 instant (date-only allowed); naive times are UTC."""
    try:
        return parse_instant(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse datetime {text!r}: {exc}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


@dataclass
class Settings:
    fixtures: str | None = None          # directory of recorded provider fixtures
    aggregator: str | None = None        # Memento aggregator base URL
    damage_service: str | None = None    # damage-scoring service base URL
    cache: str | None = None             # evidence cache path (JSON Lines)
    cache_max_age: float | None = None   # seconds before cached evidence expires
    index: str | None = None             # category index TSV
    model: str | None = None             # trained first-level model
    secondary: str | None = None         # secondary ontology JSONL
    weights: str = ",".join(map(str, astuple(RankWeights())))
    grams: str = GRAMS.value             # deep-stage feature scheme: 3 | all
    top: int = TOP_N
    temporal_literal: bool = False       # report temporal component as raw distance
    output: str = "table"                # table | records
    parallelism: int = PARALLELISM
    retries: int = RETRIES
    max_pages: int = MAX_PAGES
    now: str | None = None               # pinned "current" instant, for reproducible runs

    def weights_obj(self) -> RankWeights:
        try:
            return RankWeights.parse(self.weights)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grams_obj(self) -> GramScheme:
        try:
            return GramScheme(self.grams)
        except ValueError as exc:
            raise ConfigError(f"grams must be one of 3|all, got {self.grams!r}") from exc

    def now_obj(self) -> datetime | None:
        return None if self.now is None else parse_datetime(self.now)

    def validate(self) -> "Settings":
        self.weights_obj()
        self.grams_obj()
        try:
            now = self.now_obj()
        except ConfigError as exc:
            raise ConfigError(f"now: {exc}") from None
        if now is not None and now <= EARLIEST_ARCHIVE_DATE:
            raise ConfigError(
                f"now must fall after the earliest archive date {EARLIEST_ARCHIVE_DATE:%Y-%m-%d}, got {self.now!r}"
            )
        if self.cache_max_age is not None and not 0 <= self.cache_max_age < math.inf:
            raise ConfigError(f"cache_max_age must be finite and at least 0, got {self.cache_max_age!r}")
        if self.output not in {"table", "records"}:
            raise ConfigError(f"output must be table|records, got {self.output!r}")
        if self.top < 1:
            raise ConfigError("top must be at least 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be at least 1")
        if self.max_pages < 0:
            raise ConfigError("max_pages must be at least 0")
        if self.retries < 0:
            raise ConfigError("retries must be at least 0")
        return self


_PARSERS: dict[str, Callable[[str], object]] = {
    "cache_max_age": float,
    "top": int,
    "parallelism": int,
    "retries": int,
    "max_pages": int,
    "temporal_literal": _parse_bool,
}


def _coerce(name: str, raw: str) -> object:
    parser = _PARSERS.get(name, str)
    try:
        return parser(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def _read_config_file(path: Path) -> dict[str, object]:
    known = {f.name for f in fields(Settings)}
    values: dict[str, object] = {}
    for lineno, line in content_lines(read_lines(path)):
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = _coerce(key, value.strip())
    return values


def load_settings(
    config_path: str | Path | None = None,
    overrides: Mapping[str, object] | None = None,
    env: Mapping[str, str] = os.environ,
) -> Settings:
    """Resolve settings: defaults, then environment, then file, then flags."""
    values: dict[str, object] = {}
    for f in fields(Settings):
        env_key = ENV_PREFIX + f.name.upper()
        if env_key in env:
            values[f.name] = _coerce(f.name, env[env_key])
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(_read_config_file(path))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return Settings(**values).validate()
