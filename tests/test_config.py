"""Settings resolution: defaults, environment, config file, explicit flags."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from archive_recommender.config import (
    ENV_PREFIX,
    ConfigError,
    Settings,
    load_settings,
    parse_datetime,
)
from archive_recommender.deep import GramScheme
from archive_recommender.ranking import RankWeights


class TestParseDatetime:
    def test_zulu_suffix(self):
        parsed = parse_datetime("2014-06-01T00:00:00Z")
        assert parsed == datetime(2014, 6, 1, tzinfo=timezone.utc)

    def test_naive_becomes_utc(self):
        parsed = parse_datetime("2014-03-01T12:30:00")
        assert parsed.tzinfo == timezone.utc
        assert parsed.hour == 12

    def test_date_only(self):
        assert parse_datetime("2014-03-01").date().isoformat() == "2014-03-01"

    def test_offset_normalized_to_utc(self):
        parsed = parse_datetime("2014-03-01T02:00:00+02:00")
        assert parsed == datetime(2014, 3, 1, 0, 0, tzinfo=timezone.utc)

    def test_garbage_raises_config_error(self):
        with pytest.raises(ConfigError):
            parse_datetime("last tuesday")


class TestPrecedence:
    def test_defaults(self):
        settings = load_settings(env={})
        assert settings.weights == "0.25,0.25,0.25,0.25"
        assert settings.top == 10
        assert settings.output == "table"
        assert settings.fixtures is None

    def test_environment_layer(self):
        env = {ENV_PREFIX + "TOP": "5", ENV_PREFIX + "GRAMS": "3"}
        settings = load_settings(env=env)
        assert settings.top == 5
        assert settings.grams == "3"

    def test_file_overrides_environment(self, tmp_path):
        cfg = tmp_path / "archrec.conf"
        cfg.write_text("top = 7\n", "utf-8")
        settings = load_settings(cfg, env={ENV_PREFIX + "TOP": "5"})
        assert settings.top == 7

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "archrec.conf"
        cfg.write_text("top = 7\noutput = records\n", "utf-8")
        settings = load_settings(cfg, overrides={"top": 3}, env={})
        assert settings.top == 3
        assert settings.output == "records"  # untouched file value survives

    def test_none_overrides_are_skipped(self):
        settings = load_settings(overrides={"top": None, "grams": None}, env={})
        assert settings.top == 10


class TestConfigFile:
    def test_comments_blanks_and_dashes(self, tmp_path):
        cfg = tmp_path / "a.conf"
        cfg.write_text(
            "# comment\n\nmax-pages = 9\ntemporal-literal = yes\n", "utf-8"
        )
        settings = load_settings(cfg, env={})
        assert settings.max_pages == 9
        assert settings.temporal_literal is True

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        cfg = tmp_path / "a.conf"
        cfg.write_text("top = 3\nbogus = 1\n", "utf-8")
        with pytest.raises(ConfigError, match=r"a\.conf:2.*bogus"):
            load_settings(cfg, env={})

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "a.conf"
        cfg.write_text("just some words\n", "utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            load_settings(cfg, env={})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_settings(tmp_path / "absent.conf", env={})


class TestTypedValues:
    @pytest.mark.parametrize("raw,expected", [("1", True), ("off", False), ("TRUE", True)])
    def test_bool_spellings(self, raw, expected):
        settings = load_settings(env={ENV_PREFIX + "TEMPORAL_LITERAL": raw})
        assert settings.temporal_literal is expected

    def test_bool_garbage(self):
        with pytest.raises(ConfigError, match="boolean"):
            load_settings(env={ENV_PREFIX + "TEMPORAL_LITERAL": "maybe"})

    def test_float_field(self):
        settings = load_settings(env={ENV_PREFIX + "CACHE_MAX_AGE": "3600.5"})
        assert settings.cache_max_age == 3600.5

    def test_int_garbage(self):
        with pytest.raises(ConfigError, match="bad value for top"):
            load_settings(env={ENV_PREFIX + "TOP": "ten"})


class TestDerivedObjects:
    def test_weights_obj(self):
        settings = Settings(weights="0.5, 0.2, 0.2, 0.1")
        assert settings.weights_obj() == RankWeights(0.5, 0.2, 0.2, 0.1)

    def test_weights_obj_bad(self):
        with pytest.raises(ConfigError):
            Settings(weights="1,2").weights_obj()

    def test_grams_obj(self):
        assert Settings(grams="3").grams_obj() is GramScheme.THREE_GRAM
        assert Settings(grams="all").grams_obj() is GramScheme.ALL_GRAM

    def test_grams_obj_bad(self):
        with pytest.raises(ConfigError, match="grams"):
            Settings(grams="five").grams_obj()

    def test_now_obj(self):
        assert Settings().now_obj() is None
        assert Settings(now="2014-06-01T00:00:00Z").now_obj() == datetime(
            2014, 6, 1, tzinfo=timezone.utc
        )


class TestValidate:
    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            ({"output": "csv"}, "output"),
            ({"top": 0}, "top"),
            ({"parallelism": 0}, "parallelism"),
            ({"weights": "0.3,0.3,0.3,0.3"}, "sum"),
            ({"now": "1990-01-01T00:00:00Z"}, "now must fall after the earliest archive date 1996-01-01"),
            ({"now": "1996-01-01T00:00:00Z"}, "now must fall after"),
            ({"now": "1996-01-01T05:00:00+05:00"}, "now must fall after"),
            ({"cache_max_age": float("nan")}, "cache_max_age"),
            ({"cache_max_age": float("inf")}, "cache_max_age"),
            ({"cache_max_age": -1.0}, "cache_max_age"),
            ({"max_pages": -1}, "max_pages"),
        ],
    )
    def test_rejects(self, kwargs, pattern):
        with pytest.raises(ConfigError, match=pattern):
            Settings(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [{"now": "1996-01-01T00:00:01Z"}, {"cache_max_age": 0.0}, {"max_pages": 0}],
    )
    def test_accepts_bounds(self, kwargs):
        Settings(**kwargs).validate()

    def test_load_settings_validates(self):
        with pytest.raises(ConfigError):
            load_settings(env={ENV_PREFIX + "OUTPUT": "csv"})
