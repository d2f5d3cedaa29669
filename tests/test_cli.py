"""End-to-end command-line behavior: subcommands, exit codes, output modes."""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from archive_recommender import archives, cli
from archive_recommender.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_OK, EXIT_USAGE, main
from archive_recommender.config import Settings, load_settings
from archive_recommender.nbayes import load_model, save_model
from archive_recommender.ontology import load_index, save_index
from archive_recommender.pipeline import L1_METHOD, L1_VARIANTS
from conftest import closed_port

TSV_DUMP = (
    "Top/Computers/Computer_Science\thttp://cs.example.edu/\tCS Dept\tResearch and teaching\n"
    "Top/World/Deutsch/Computer\thttp://beispiel.de/\tBeispiel\tSeite\n"
    "Top/Sports/Baseball\thttp://baseball.example.com/\tBaseball\tCards and scores\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def fixtures_with_line(fixtures_dir, tmp_path, name: str, row: bytes):
    """A copy of the fixtures with ``row`` appended to ``name``, and its line number."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir, fixtures)
    with open(fixtures / name, "ab") as handle:
        handle.write(row + b"\n")
    return fixtures, len((fixtures / name).read_bytes().splitlines())


def flag_dests() -> tuple[set[str], dict[str, set[str]]]:
    """The dests every subcommand shares, and each subcommand's own."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {name: {a.dest for a in sub._actions} for name, sub in commands.choices.items()}
    shared = set.intersection(*dests.values())
    return shared, {name: own - shared for name, own in dests.items()}


SETTING_NAMES = {f.name for f in dataclasses.fields(Settings)}


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_missing_positional(self, capsys):
        code, _, _ = run(capsys, "recommend")
        assert code == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "recommend", "http://a.com/", "--top", "ten")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate-deep", "--candidates", "0"],
            ["evaluate-deep", "--holdout", "0"],
            ["evaluate-deep", "--holdout", "1"],
            ["evaluate-deep", "--holdout", "0.5000001"],
            ["evaluate-deep", "--holdout", "0.7"],
            ["evaluate-deep", "--holdout", "0.999"],
            ["evaluate-l1", "--folds", "1"],
            ["train", "--model-out", "unused.nb", "--smoothing", "0"],
            ["evaluate-l1", "--smoothing", "-1"],
            ["evaluate-deep", "--smoothing", "0"],
            ["evaluate-deep", "--smoothing", "inf"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a not in ("--model-out", "unused.nb")),
    )
    def test_out_of_range_number(self, capsys, fixtures_dir, argv):
        code, out, err = run(capsys, *argv, "--fixtures", str(fixtures_dir))
        assert code == EXIT_USAGE
        assert not out
        assert f"argument {argv[-2]}: {argv[-1]!r} is not " in err
        assert "Traceback" not in err

    def test_folds_above_corpus_size(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "evaluate-l1", "--fixtures", str(fixtures_dir), "--folds", "100000")
        assert code == EXIT_USAGE
        assert not out
        assert "--folds 100000 is more than the corpus of 489 items" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["train", "--smoothing", "1e308"], "smoothing 1e+308 overflows the denominator of class 'Arts'"),
            (["evaluate-l1", "--smoothing", "1e-320"],
             "smoothing 1e-320 underflows the unseen likelihood of class 'Computers'"),
            (["evaluate-deep", "--smoothing", "1e308"],
             "smoothing 1e+308 overflows the denominator of class 'Arts/Literature/Poetry'"),
            (["evaluate-deep", "--grams", "3", "--smoothing", "5e-324"],
             "smoothing 5e-324 underflows the unseen likelihood of class 'Arts/Literature/Poetry'"),
        ],
        ids=["train-overflow", "evaluate-l1-underflow", "evaluate-deep-overflow", "evaluate-deep-grams-3-underflow"],
    )
    def test_smoothing_the_corpus_cannot_take(self, capsys, fixtures_dir, tmp_path, argv, problem):
        """A smoothing that argparse accepts but that a model of the corpus
        cannot take, as ``--folds`` above the corpus size."""
        if argv[0] == "train":
            argv = [*argv, "--model-out", str(tmp_path / "l1.model")]
        code, out, err = run(capsys, *argv, "--fixtures", str(fixtures_dir))
        assert code == EXIT_USAGE
        assert not out
        assert err == f"archrec: error: --smoothing: {problem}\n"
        assert not (tmp_path / "l1.model").exists()

    def test_holdout_at_its_bounds(self, capsys, fixtures_dir):
        for holdout, held_out in (("0.5", 245), ("1e-320", 1)):
            code, out, _ = run(
                capsys, "evaluate-deep", "--fixtures", str(fixtures_dir), "--holdout", holdout, "--output", "records"
            )
            assert code == EXIT_OK
            summary = next(r for r in records_of(out) if "holdout" in r)
            assert summary["holdout"] == held_out

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert "COMMAND" in out


# The numeric flags' edge values: zero, signs, the subnormal and extreme
# floats, NaN and the infinities, and integers around SMALL_CORPUS.
EDGE_NUMBERS = [
    "0", "1", "-1", "2", "0.5", "5e-324", "1e-320", "1e-300", "1e300", "1e308", repr(sys.float_info.max),
    "nan", "inf", "-inf",
]
# A small index cut from the fixtures' one, so that each run takes milliseconds.
SMALL_INDEX = ("Computers/Computer_Science", "Business/Marketing")
SMALL_CORPUS = 26
COMMAND_FLAGS = {
    "train": ["--smoothing"],
    "evaluate-l1": ["--smoothing", "--folds"],
    "evaluate-deep": ["--smoothing", "--holdout", "--candidates"],
    "recommend": ["--top", "--weights"],
}


@st.composite
def numeric_flag_runs(draw) -> list[str]:
    """A command and some of its numeric flags, each at an edge value."""
    number = st.sampled_from(EDGE_NUMBERS + [str(SMALL_CORPUS + d) for d in (-1, 0, 1)])
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            weights = st.lists(number | st.sampled_from(["0.25", "0"]), min_size=4, max_size=4).map(",".join)
            argv += [flag, draw(weights if flag == "--weights" else number)]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=numeric_flag_runs())
@example(argv=["train", "--smoothing", "1e308"])
@example(argv=["evaluate-l1", "--smoothing", "1e-320", "--folds", str(SMALL_CORPUS + 1)])
@example(argv=["evaluate-deep", "--smoothing", "5e-324", "--holdout", "0.5", "--candidates", str(SMALL_CORPUS)])
@example(argv=["recommend", "--top", str(SMALL_CORPUS - 1), "--weights", "1,0,0,0"])
def test_numeric_flags_exit_cleanly(capsys, fixtures_dir, tmp_path, argv):
    """Every exit is one of the documented codes with no traceback, and a
    run that succeeds prints only finite numbers."""
    rows = [line for line in (fixtures_dir / "index.tsv").read_text("utf-8").splitlines()
            if line.startswith(SMALL_INDEX)]
    assert len(rows) == SMALL_CORPUS
    index = tmp_path / "small.tsv"
    index.write_text("\n".join(rows) + "\n", "utf-8")
    extra = {
        "train": ["--model-out", str(tmp_path / "l1.model")],
        "recommend": ["http://odu.edu/compsci", "--now", "2014-06-01T00:00:00Z"],
    }.get(argv[0], [])
    code, out, err = run(
        capsys, *argv, *extra, "--index", str(index), "--fixtures", str(fixtures_dir), "--output", "records"
    )
    assert code in (EXIT_OK, EXIT_EMPTY, EXIT_USAGE, EXIT_CONFIG)
    assert "Traceback" not in err
    if code == EXIT_OK:
        numbers = [v for record in records_of(out) for v in record.values() if isinstance(v, float)]
        assert all(math.isfinite(v) for v in numbers)


class TestConfigErrors:
    def test_no_archive_source(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "recommend", "http://a.com/", "--index", str(fixtures_dir / "index.tsv")
        )
        assert code == EXIT_CONFIG
        assert "no archive source" in err

    def test_bad_weights(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "recommend",
            "http://a.com/",
            "--fixtures",
            str(fixtures_dir),
            "--weights",
            "1,2,3",
        )
        assert code == EXIT_CONFIG

    def test_bad_datetime(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "recommend",
            "http://a.com/",
            "--fixtures",
            str(fixtures_dir),
            "--datetime",
            "whenever",
        )
        assert code == EXIT_CONFIG
        assert "datetime" in err

    @pytest.mark.parametrize("now", ["1990-01-01T00:00:00Z", "1996-01-01T00:00:00Z"])
    def test_now_at_or_before_earliest_archive_date(self, capsys, fixtures_dir, now):
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir), "--now", now
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err == f"archrec: error: now must fall after the earliest archive date 1996-01-01, got {now!r}\n"

    def test_now_from_environment_at_earliest_archive_date(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setenv("ARCHREC_NOW", "1996-01-01")
        code, _, err = run(capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir))
        assert code == EXIT_CONFIG
        assert "now must fall after the earliest archive date" in err

    @pytest.mark.parametrize(
        "variable, value, setting",
        [
            ("ARCHREC_CACHE_MAX_AGE", "nan", "cache_max_age"),
            ("ARCHREC_CACHE_MAX_AGE", "-1", "cache_max_age"),
            ("ARCHREC_MAX_PAGES", "-1", "max_pages"),
            ("ARCHREC_RETRIES", "-5", "retries"),
        ],
    )
    def test_setting_that_breaks_cache_or_paging(
        self, capsys, fixtures_dir, tmp_path, monkeypatch, variable, value, setting
    ):
        monkeypatch.setenv(variable, value)
        cache = tmp_path / "cache.jsonl"
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir), "--cache", str(cache)
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {setting} must be")
        assert not cache.exists()

    def test_negative_retries_in_config_file(self, capsys, fixtures_dir, tmp_path):
        conf = tmp_path / "a.conf"
        conf.write_text("retries = -1\n")
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir), "--config", str(conf)
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err == "archrec: error: retries must be at least 0\n"

    def test_unparseable_request_uri(self, capsys, fixtures_dir):
        code, _, _ = run(capsys, "recommend", "http://", "--fixtures", str(fixtures_dir))
        assert code == EXIT_CONFIG

    def test_unclosed_bracket_host(self, capsys, fixtures_dir):
        # urlsplit raises a bare ValueError here; it used to end in a traceback
        code, out, err = run(
            capsys, "recommend", "http://[::1/x", "--fixtures", str(fixtures_dir),
            "--now", "2014-06-01T00:00:00Z",
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err == "archrec: error: cannot parse host of 'http://[::1/x': Invalid IPv6 URL\n"

    def test_host_label_past_63_octets(self, capsys, fixtures_dir):
        uri = f"http://{'a' * 64}.com/"
        code, out, err = run(
            capsys, "recommend", uri, "--fixtures", str(fixtures_dir), "--now", "2014-06-01T00:00:00Z",
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err == f"archrec: error: cannot parse host of '{uri}': host label longer than 63 octets\n"

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_non_finite_weights(self, capsys, fixtures_dir, tmp_path, monkeypatch, source):
        # NaN passes the sign and sum checks; it used to rank every row with score nan
        argv = ["recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir)]
        if source == "flag":
            argv += ["--weights", "nan,0,0,1"]
        elif source == "env":
            monkeypatch.setenv("ARCHREC_WEIGHTS", "nan,0,0,1")
        else:
            conf = tmp_path / "a.conf"
            conf.write_text("weights = nan,0,0,1\n")
            argv += ["--config", str(conf)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert not out
        assert err == "archrec: error: weights must be finite, got (nan, 0.0, 0.0, 1.0)\n"

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "stats", "--config", str(tmp_path / "absent.conf")
        )
        assert code == EXIT_CONFIG
        assert "not found" in err

    def test_missing_log_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze-logs", str(tmp_path / "absent.log"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "name, row",
        [("popularity.tsv", "example.com\tnot-a-rank"), ("damage.tsv", "http://x/\tlots")],
    )
    def test_malformed_fixture_row(self, capsys, fixtures_dir, tmp_path, name, row):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(fixtures_dir, fixtures)
        table = fixtures / name
        with open(table, "a", encoding="utf-8") as handle:
            handle.write(row + "\n")
        lineno = len(table.read_text("utf-8").splitlines())
        code, out, err = run(capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures))
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {table}:{lineno}: malformed ")
        assert repr(row) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, argv, row",
        [
            ("popularity.tsv", ("recommend", "http://odu.edu/compsci"), b"caf\xe9.com\t5"),
            ("damage.tsv", ("recommend", "http://odu.edu/compsci"), b"http://x/\t0.1\xff"),
            ("index.tsv", ("stats",), b"Arts/X\thttp://caf\xe9.com\tt\td"),
            ("secondary_ontology.jsonl", ("recommend", "http://odu.edu/compsci"), b'{"x": "\xff"}'),
        ],
        ids=["popularity", "damage", "index", "secondary"],
    )
    def test_fixture_bytes_not_utf8(self, capsys, fixtures_dir, tmp_path, name, argv, row):
        fixtures, lineno = fixtures_with_line(fixtures_dir, tmp_path, name, row)
        code, out, err = run(capsys, *argv, "--fixtures", str(fixtures))
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {fixtures / name}:{lineno}: bytes that are not UTF-8 (")
        assert "Traceback" not in err

    def test_index_row_without_category(self, capsys, fixtures_dir, tmp_path):
        row = b"\thttp://x.example/\tt\td"
        fixtures, lineno = fixtures_with_line(fixtures_dir, tmp_path, "index.tsv", row)
        code, out, err = run(capsys, "stats", "--fixtures", str(fixtures))
        assert code == EXIT_CONFIG
        assert not out
        assert err == (
            f"archrec: error: {fixtures / 'index.tsv'}:{lineno}: malformed index row "
            f"{row.decode()!r}: category path needs at least one label\n"
        )

    @pytest.mark.parametrize(
        "row, why",
        [
            (b"not json", "JSONDecodeError"),
            (b'{"categories": ["A"]}', "KeyError('official_uri')"),
            (b'{"official_uri": "http://x.example/", "categories": [""]}', "not an array of non-empty strings"),
            (b'{"official_uri": "http://x.example/", "categories": [1]}', "not an array of non-empty strings"),
            (b'{"official_uri": "http://x.example/", "categories": "Arts"}', "not an array of non-empty strings"),
            (
                b'{"official_uri": "http://x.example/", "categories": ["A"], "members": "http://cs.odu.edu/"}',
                "members is not an array",
            ),
            (b'{"official_uri": 5, "categories": ["A"]}', "cannot parse uri of '5': empty input"),
            # json.loads raises RecursionError here before Python 3.13 and
            # JSONDecodeError from it, so the exception's name is not matched.
            (b"[" * 5000, ""),
        ],
        ids=[
            "not-json", "no-official-uri", "empty-category", "number-category", "string-categories",
            "string-members", "unparseable-official-uri", "nested-too-deep",
        ],
    )
    def test_malformed_secondary_ontology_line(self, capsys, fixtures_dir, tmp_path, row, why):
        fixtures, lineno = fixtures_with_line(fixtures_dir, tmp_path, "secondary_ontology.jsonl", row)
        code, out, err = run(capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures))
        assert code == EXIT_CONFIG
        assert not out
        path = fixtures / "secondary_ontology.jsonl"
        assert err.startswith(f"archrec: error: {path}:{lineno}: malformed ontology record {row.decode()!r}: ")
        assert why in err

    @pytest.mark.parametrize("content", [b"not a model\n", b"\x89PNG\r\n"], ids=["text", "binary"])
    def test_model_file_that_is_not_a_model(self, capsys, fixtures_dir, tmp_path, content):
        model = tmp_path / "l1.model"
        model.write_bytes(content)
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--model", str(model),
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {model}:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, lineno, problem",
        [
            ("archrec-nb 1\n", 2, "expected a method line"),
            ("archrec-nb 1\nmethod all_grams_uri\n", 3, "expected a variants line"),
            ("archrec-nb 1\nmethod all_grams_uri\nvariants -\nclass\tA\t1\n", 4, "expected a smoothing line"),
            ("archrec-nb 1\nmethod bigrams\nvariants -\nsmoothing 1.0\n", 2, "bad method 'bigrams'"),
            ("archrec-nb 1\nmethod -\nvariants strip-vowels\nsmoothing 1.0\n", 3, "bad variants"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing 0\n", 4, "bad smoothing '0'"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing nan\nclass\tA\t1\n", 4,
             "bad smoothing 'nan'"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing -inf\nclass\tA\t1\n", 4, "bad smoothing '-inf'"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing 1e308\nclass\tA\t1\nfeat\tA\tx\t1\nfeat\tA\ty\t1\n", 4,
             "bad smoothing '1e308': smoothing 1e+308 overflows the denominator of class 'A'"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing 5e-324\nclass\tA\t1\nfeat\tA\tx\t2\n", 4,
             "bad smoothing '5e-324': smoothing 5e-324 underflows the unseen likelihood of class 'A'"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing 1.0\nclass\tA\t2.5\n", 5, "unrecognized record"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing 1.0\nclass\tA\t1\nfeat\tA\tx\t1.5\n", 6,
             "unrecognized record"),
        ],
        ids=["header-only", "no-variants", "no-smoothing", "unknown-method", "unknown-variant",
             "zero-smoothing", "nan-smoothing", "infinite-smoothing", "overflowing-smoothing",
             "underflowing-smoothing", "class-count", "feat-count"],
    )
    def test_model_file_cut_short_or_malformed(self, capsys, fixtures_dir, tmp_path, content, lineno, problem):
        model = tmp_path / "l1.model"
        model.write_text(content, "utf-8")
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--model", str(model),
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {model}:{lineno}: {problem}")
        assert "Traceback" not in err

    def test_model_file_without_classes(self, capsys, fixtures_dir, tmp_path):
        model = tmp_path / "l1.model"
        model.write_text("archrec-nb 1\nmethod -\nvariants -\nsmoothing 1.0\n", "utf-8")
        code, _, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--model", str(model),
        )
        assert code == EXIT_CONFIG
        assert err == f"archrec: error: {model}: no class records\n"

    @pytest.fixture()
    def saved_model(self, capsys, fixtures_dir, tmp_path):
        """A model saved by ``train`` on the fixtures, and its lines."""
        model = tmp_path / "l1.model"
        code, _, _ = run(capsys, "train", "--fixtures", str(fixtures_dir), "--model-out", str(model))
        assert code == EXIT_OK
        return model, model.read_text("utf-8").splitlines()

    def test_saved_model_loads(self, capsys, fixtures_dir, saved_model):
        """``recommend --model`` with the model ``train`` saved prints the
        bytes that the same command prints when it trains its own, on a
        deep route and an indexed one, as a table and as records."""
        model, _ = saved_model
        for uri, route in (("http://odu.edu/compsci", "classified-deep"), ("http://cs.odu.edu", "ontology-hit")):
            for output in ("table", "records"):
                argv = ("recommend", uri, "--fixtures", str(fixtures_dir), "--now", "2014-06-01T00:00:00Z",
                        "--output", output)
                code, out, err = run(capsys, *argv, "--model", str(model))
                assert code == EXIT_OK
                assert "http://cs.odu.edu" in out and route in out and not err
                assert (code, out, err) == run(capsys, *argv)

    @pytest.mark.parametrize("kind", ["orphan-feat", "repeated-class", "repeated-feat"])
    def test_model_file_with_inconsistent_records(self, capsys, fixtures_dir, saved_model, kind):
        """``save_model`` writes one class record per class and one feat
        record per class and feature, each feat of a class it recorded."""
        model, lines = saved_model
        first_class = next(line for line in lines if line.startswith("class\t"))
        first_feat = next(line for line in lines if line.startswith("feat\t"))
        appended, problem = {
            "orphan-feat": ("feat\tZzz\tqqqq\t3", "feat record of class 'Zzz', which has no class record"),
            "repeated-class": (first_class.rsplit("\t", 1)[0] + "\t5", "repeated record"),
            "repeated-feat": (first_feat.rsplit("\t", 1)[0] + "\t7", "repeated record"),
        }[kind]
        model.write_text("\n".join([*lines, appended]) + "\n", "utf-8")
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--model", str(model),
        )
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {model}:{len(lines) + 1}: {problem}")
        assert "Traceback" not in err

    def test_config_file_bytes_not_utf8(self, capsys, fixtures_dir, tmp_path):
        conf = tmp_path / "a.conf"
        conf.write_bytes(b"top = 3\n\xffoutput = records\n")  # the bad byte starts line 2
        code, out, err = run(capsys, "stats", "--fixtures", str(fixtures_dir), "--config", str(conf))
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {conf}:2: bytes that are not UTF-8 (")

    def test_cache_path_is_a_directory(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--cache", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "Is a directory" in err

    def test_unwritable_cache_path(self, capsys, fixtures_dir, tmp_path):
        code, _, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--cache", str(tmp_path / "absent" / "c.jsonl"),
        )
        assert code == EXIT_CONFIG
        assert "No such file or directory" in err

    @pytest.mark.parametrize("value", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-01:00"])
    @pytest.mark.parametrize("source", ["datetime-flag", "now-flag", "now-environment", "now-config-file"])
    def test_instant_with_no_utc_value_in_years_1_to_9999(
        self, capsys, fixtures_dir, tmp_path, monkeypatch, source, value
    ):
        argv = ["recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir)]
        if source == "datetime-flag":
            argv += ["--datetime", value]
        elif source == "now-flag":
            argv += ["--now", value]
        elif source == "now-environment":
            monkeypatch.setenv("ARCHREC_NOW", value)
        else:
            conf = tmp_path / "a.conf"
            conf.write_text(f"now = {value}\n")
            argv += ["--config", str(conf)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert not out
        setting = "" if source == "datetime-flag" else "now: "
        assert err == f"archrec: error: {setting}cannot parse datetime {value!r}: no UTC value inside years 1-9999\n"

    @pytest.mark.parametrize("value", ["20140301", "2014-02-26T09:08:46.5Z"])
    def test_instant_outside_the_extended_form(self, capsys, fixtures_dir, value):
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--now", "2014-06-01T00:00:00Z", "--datetime", value,
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"archrec: error: cannot parse datetime {value!r}: Invalid isoformat string: {value!r}\n"

    def test_truncated_rdf_dump(self, capsys, fixtures_dir, tmp_path):
        dump = tmp_path / "dump.rdf"
        dump.write_bytes((fixtures_dir / "dmoz_sample.rdf").read_bytes()[:300])
        index = tmp_path / "index.tsv"
        code, out, err = run(capsys, "ingest", str(dump), "--format", "rdf", "--index-out", str(index))
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {dump}: malformed RDF (")
        assert err.count("\n") == 1
        assert not index.exists()

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    @pytest.mark.parametrize(
        "command, source, fmt",
        [
            ("ingest", "corpus_500.tsv", "tsv"),
            ("ingest", "dmoz_sample.rdf", "rdf"),
            ("analyze-logs", "access_log_sample.log", None),
        ],
    )
    def test_damaged_gzip_input(self, capsys, fixtures_dir, tmp_path, command, source, fmt, damage):
        data = gzip.compress((fixtures_dir / source).read_bytes())
        if damage == "truncated":
            data = data[: len(data) // 2]
        else:  # deflate data that no decoder accepts, behind an intact header
            data = data[:10] + b"\xff" * 16 + data[26:]
        path = tmp_path / (source + ".gz")
        path.write_bytes(data)
        argv = [command, str(path)]
        if fmt is not None:
            argv += ["--format", fmt, "--index-out", str(tmp_path / "index.tsv")]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert not out
        assert err.startswith(f"archrec: error: {path}: gzip data cut short or corrupt (")
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def worked_example(fixtures_dir):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(
            [
                "recommend",
                "http://odu.edu/compsci",
                "--datetime",
                "2014-03-01",
                "--fixtures",
                str(fixtures_dir),
                "--now",
                "2014-06-01T00:00:00Z",
                "--output",
                "records",
            ]
        )
    return code, records_of(buffer.getvalue())


class TestRecommend:
    def test_exit_ok(self, worked_example):
        code, _ = worked_example
        assert code == EXIT_OK

    def test_result_record_first(self, worked_example):
        _, records = worked_example
        head = records[0]
        assert head["type"] == "result"
        assert head["route"] == "classified-deep"
        assert head["returned"] == 8
        assert {d["why"] for d in head["dropped"]} == {"not archived"}

    def test_recommendation_records(self, worked_example):
        _, records = worked_example
        recs = [r for r in records if r["type"] == "recommendation"]
        assert [r["position"] for r in recs] == list(range(1, 9))
        assert recs[0]["uri"] == "http://cs.odu.edu"
        assert recs[0]["memento_datetime"] == "2014-02-26T09:08:46Z"
        scores = [r["score"] for r in recs]
        assert scores == sorted(scores, reverse=True)

    def test_torn_cache_gives_same_records(self, capsys, fixtures_dir, tmp_path, worked_example):
        cache = tmp_path / "c.jsonl"
        argv = (
            "recommend", "http://odu.edu/compsci", "--datetime", "2014-03-01",
            "--fixtures", str(fixtures_dir), "--now", "2014-06-01T00:00:00Z",
            "--output", "records", "--cache", str(cache),
        )
        assert run(capsys, *argv)[0] == EXIT_OK
        cache.write_bytes(cache.read_bytes()[:-40])
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert records_of(out) == worked_example[1]

    def test_non_utf8_cache_line_gives_same_records(
        self, capsys, caplog, fixtures_dir, tmp_path, worked_example
    ):
        cache = tmp_path / "c.jsonl"
        argv = (
            "recommend", "http://odu.edu/compsci", "--datetime", "2014-03-01",
            "--fixtures", str(fixtures_dir), "--now", "2014-06-01T00:00:00Z",
            "--output", "records", "--cache", str(cache),
        )
        assert run(capsys, *argv)[0] == EXIT_OK
        with open(cache, "ab") as handle:
            handle.write(b"\xff\xfe garbage\n")
        with caplog.at_level("WARNING", logger="archive_recommender"):
            code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert records_of(out) == worked_example[1]
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {cache}: skipped 1 corrupt line(s)"
        ]

    def test_cache_line_nested_past_the_decoder_limit_is_skipped(self, capsys, fixtures_dir, tmp_path):
        # json.loads raises RecursionError on such a line; it used to end the
        # command with exit 1 and a traceback
        argv = ("recommend", "http://odu.edu/compsci", "--now", "2014-06-01T00:00:00Z",
                "--fixtures", str(fixtures_dir))
        cache = tmp_path / "deep.jsonl"
        cache.write_text("[" * 5000 + "\n")
        plain = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert plain[0] == code == EXIT_OK
        assert out == plain[1]
        assert "Traceback" not in err

    def test_cache_closed_when_command_ends(
        self, capsys, fixtures_dir, tmp_path, monkeypatch, archive_opens
    ):
        closed = []

        def recording_close(cache):
            closed.append(cache)  # and so keeps it alive: only close() can close its file
            close(cache)

        close = archives.EvidenceCache.close
        monkeypatch.setattr(archives.EvidenceCache, "close", recording_close)
        code, _, _ = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--now", "2014-06-01T00:00:00Z", "--cache", str(tmp_path / "c.jsonl"),
        )
        assert code == EXIT_OK
        assert len(closed) == 1
        # One append handle on the cache; the fixture TimeMaps are read through
        # handles of their own, and every handle is closed.
        assert [h.name for h in archive_opens].count(str(tmp_path / "c.jsonl")) == 1
        assert all(handle.closed for handle in archive_opens)

    @pytest.mark.parametrize(
        "kind, corrupt",
        [
            ("timemap", lambda value: value["mementos"][0].__setitem__(0, "soon")),
            ("timemap", lambda value: value.pop("mementos")),
            ("timemap", lambda value: value.__setitem__("mementos", 7)),
            ("damage", {"damage": "x"}),
            ("damage", {}),
            ("damage", []),
            ("damage", {"damage": 2.0, "source": "fixture"}),
            ("damage", {"damage": 0.1, "source": "bogus"}),
            ("popularity", {"rank": "x"}),
            ("popularity", [1]),
            ("popularity", {"rank": float("inf")}),
        ],
        ids=[
            "bad-datetime", "no-mementos", "mementos-not-a-list",
            "damage-not-a-number", "damage-empty", "damage-a-list", "damage-above-one",
            "damage-unknown-source", "rank-not-a-number", "rank-a-list", "rank-infinite",
        ],
    )
    def test_undecodable_cached_timemap_gives_same_records(
        self, capsys, caplog, fixtures_dir, tmp_path, worked_example, kind, corrupt
    ):
        """``corrupt`` edits a TimeMap value in place, or is the malformed value."""
        cache = tmp_path / "c.jsonl"
        argv = (
            "recommend", "http://odu.edu/compsci", "--datetime", "2014-03-01",
            "--fixtures", str(fixtures_dir), "--now", "2014-06-01T00:00:00Z",
            "--output", "records", "--cache", str(cache),
        )
        assert run(capsys, *argv)[0] == EXIT_OK
        lines = [json.loads(line) for line in cache.read_text("utf-8").splitlines()]
        record = next(
            r for r in lines if r["kind"] == kind and (kind != "timemap" or r["value"]["mementos"])
        )
        if callable(corrupt):
            corrupt(record["value"])
        else:
            record["value"] = corrupt
        cache.write_text("".join(json.dumps(r) + "\n" for r in lines), "utf-8")
        with caplog.at_level("WARNING", logger="archive_recommender"):
            code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert records_of(out) == worked_example[1]
        assert len(caplog.records) == 1
        assert len(cache.read_text("utf-8").splitlines()) == len(lines) + 1

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_unparseable_memento_uri_drops_its_candidate(self, capsys, fixtures_dir, tmp_path, cached):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(fixtures_dir, fixtures)
        for timemap in (fixtures / "timemaps").iterdir():
            text = timemap.read_text("utf-8")
            timemap.write_text(text.replace("<https://web.archive.org/", "<ftp://web.archive.org/"), "utf-8")
        argv = ["recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures), "--now", "2014-06-01T00:00:00Z"]
        if cached:
            argv += ["--cache", str(tmp_path / "c.jsonl")]
        for _ in range(1 + cached):  # with a cache, once cold and once from its lines
            code, out, err = run(capsys, *argv)
            assert (code, err) == (EXIT_OK, "")
            assert (
                "dropped: http://cs.odu.edu (evidence unavailable: cannot parse scheme of "
                "'ftp://web.archive.org/web/20140315000000/http://cs.odu.edu:80/': unsupported scheme 'ftp')"
            ) in out.splitlines()
            assert " 1  0.495025  " in out  # cs.gmu.edu, archived elsewhere, is still ranked

    def test_table_output(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "recommend",
            "http://odu.edu/compsci",
            "--datetime",
            "2014-03-01",
            "--fixtures",
            str(fixtures_dir),
            "--now",
            "2014-06-01T00:00:00Z",
            "--top",
            "2",
        )
        assert code == EXIT_OK
        assert "route: classified-deep" in out
        assert "memento:" in out
        assert out.count("\n    memento:") == 2  # --top honored

    def test_empty_result_exits_two(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "recommend",
            "http://qqxxyyzz.dev/",
            "--fixtures",
            str(fixtures_dir),
            "--now",
            "2014-06-01T00:00:00Z",
        )
        assert code == EXIT_EMPTY
        assert "no recommendations" in out

    def test_env_and_file_layering(self, capsys, fixtures_dir, tmp_path, monkeypatch):
        # env asks for records; the file pins top=1; the flag wins over both
        monkeypatch.setenv("ARCHREC_OUTPUT", "records")
        conf = tmp_path / "a.conf"
        conf.write_text(f"fixtures = {fixtures_dir}\ntop = 1\n", "utf-8")
        code, out, _ = run(
            capsys,
            "recommend",
            "http://odu.edu/compsci",
            "--datetime",
            "2014-03-01",
            "--now",
            "2014-06-01T00:00:00Z",
            "--config",
            str(conf),
            "--top",
            "2",
        )
        assert code == EXIT_OK
        recs = [r for r in records_of(out) if r["type"] == "recommendation"]
        assert len(recs) == 2


class TestIngest:
    def test_tsv_roundtrip(self, capsys, tmp_path):
        dump = tmp_path / "dump.tsv"
        dump.write_text(TSV_DUMP, "utf-8")
        out_path = tmp_path / "index.tsv"
        code, out, _ = run(
            capsys, "ingest", str(dump), "--index-out", str(out_path), "--output", "records"
        )
        assert code == EXIT_OK
        head = records_of(out)[0]
        assert head["kept"] == 2
        assert head["dropped_category"] == 1
        index = load_index(out_path)
        assert len(index) == 2

    def test_rdf(self, capsys, tmp_path, fixtures_dir):
        out_path = tmp_path / "index.tsv"
        code, out, _ = run(
            capsys,
            "ingest",
            str(fixtures_dir / "dmoz_sample.rdf"),
            "--format",
            "rdf",
            "--index-out",
            str(out_path),
        )
        assert code == EXIT_OK
        assert "kept 3" in out


class TestTrainAndEvaluate:
    @pytest.fixture()
    def taxonomy_index(self, taxonomy, tmp_path):
        path = tmp_path / "taxonomy.tsv"
        save_index(taxonomy, path)
        return path

    def test_train_writes_model(self, capsys, taxonomy_index, tmp_path):
        model_path = tmp_path / "l1.json"
        code, out, _ = run(
            capsys,
            "train",
            "--index",
            str(taxonomy_index),
            "--model-out",
            str(model_path),
            "--output",
            "records",
        )
        assert code == EXIT_OK
        head = records_of(out)[0]
        assert head["documents"] == 96
        assert head["classes"] == 4
        model = load_model(model_path)
        assert set(model.classes) == {"Arts", "Science", "Society", "Sports"}

    def test_train_reports_the_vocabulary_of_its_counts(self, capsys, monkeypatch, taxonomy_index, tmp_path):
        """The summary's ``vocabulary``, the ``v`` of the smoothing
        denominator, is the number of distinct features over every class's
        counts, for the model written and for the model read back."""
        written = []

        def saving(model, path):
            written.append(model)
            save_model(model, path)

        monkeypatch.setattr(cli, "save_model", saving)
        model_path = tmp_path / "l1.model"
        code, out, _ = run(
            capsys, "train", "--index", str(taxonomy_index), "--model-out", str(model_path), "--output", "records",
        )
        assert code == EXIT_OK
        vocabulary = records_of(out)[0]["vocabulary"]
        for model in (*written, load_model(model_path)):
            assert vocabulary == len(frozenset().union(*model.feature_counts.values())) == len(model.vocabulary)
        assert len(written) == 1 and vocabulary > 0

    @pytest.mark.parametrize("argv", [["train", "--model-out", "m"], ["evaluate-l1"]], ids=["train", "evaluate-l1"])
    def test_first_level_defaults_are_the_pipeline_constants(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert (args.method, args.variants) == ("grams-uri", "strip-tld,strip-numbers")
        assert cli._METHODS[args.method] is L1_METHOD
        assert frozenset(cli._parse_variants(args.variants)) == L1_VARIANTS

    def test_train_rejects_unknown_variant(self, capsys, taxonomy_index, tmp_path):
        code, _, err = run(
            capsys,
            "train",
            "--index",
            str(taxonomy_index),
            "--model-out",
            str(tmp_path / "m.json"),
            "--variants",
            "strip-vowels",
        )
        assert code == EXIT_CONFIG
        assert "unknown variants" in err

    def test_evaluate_l1(self, capsys, taxonomy_index):
        code, out, _ = run(
            capsys,
            "evaluate-l1",
            "--index",
            str(taxonomy_index),
            "--folds",
            "4",
            "--output",
            "records",
        )
        assert code == EXIT_OK
        records = records_of(out)
        assert any(r.get("type") == "baseline" for r in records)
        summary = next(r for r in records if r.get("section") == "summary")
        assert summary["micro_f1"] == 1.0  # synthetic corpus is fully separable
        assert sum(1 for r in records if r.get("section") == "fold") == 4

    def test_evaluate_deep(self, capsys, taxonomy_index):
        code, out, _ = run(
            capsys,
            "evaluate-deep",
            "--index",
            str(taxonomy_index),
            "--output",
            "records",
        )
        assert code == EXIT_OK
        levels = [r for r in records_of(out) if r.get("section") == "level"]
        assert [r["key"] for r in levels] == [1, 2, 3]
        assert all(r["mi_f1"] == 1.0 for r in levels)


class TestEmptyIndex:
    """An index with no entries: nothing to train a first-level model on, to evaluate or to profile."""

    @pytest.fixture(params=["", "# a comment\n#\n"], ids=["empty-file", "comments-only"])
    def empty_index(self, request, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text(request.param, "utf-8")
        return path

    def expected_error(self, path):
        return f"archrec: error: {path}: the category index holds no entries to train the first-level model on\n"

    def test_train_exits_4(self, capsys, empty_index, tmp_path):
        model = tmp_path / "l1.model"
        code, out, err = run(capsys, "train", "--index", str(empty_index), "--model-out", str(model))
        assert (code, out, err) == (EXIT_CONFIG, "", self.expected_error(empty_index))
        assert not model.exists()

    def test_recommend_without_a_model_exits_4(self, capsys, fixtures_dir, empty_index):
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir), "--index", str(empty_index)
        )
        assert (code, out, err) == (EXIT_CONFIG, "", self.expected_error(empty_index))

    def test_recommend_with_a_model_finds_no_candidates(self, capsys, fixtures_dir, empty_index, tmp_path):
        model = tmp_path / "l1.model"
        assert run(capsys, "train", "--fixtures", str(fixtures_dir), "--model-out", str(model))[0] == EXIT_OK
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir), "--index", str(empty_index),
            "--model", str(model),
        )
        assert (code, err) == (EXIT_EMPTY, "")
        assert "no recommendations: no candidates" in out

    @pytest.mark.parametrize("command", [["evaluate-l1"], ["evaluate-l1", "--folds", "2"], ["evaluate-deep"]])
    def test_evaluation_exits_4_naming_the_index(self, capsys, empty_index, command):
        code, out, err = run(capsys, *command, "--index", str(empty_index))
        assert (code, out, err) == (
            EXIT_CONFIG, "", f"archrec: error: {empty_index}: the category index holds no entries to evaluate\n"
        )

    @pytest.mark.parametrize("output", ["table", "records"])
    def test_stats_exits_4_naming_the_index(self, capsys, empty_index, output):
        code, out, err = run(capsys, "stats", "--index", str(empty_index), "--output", output)
        assert (code, out, err) == (
            EXIT_CONFIG, "", f"archrec: error: {empty_index}: the category index holds no entries to profile\n"
        )

    def test_folds_past_a_corpus_with_entries_stay_a_usage_error(self, capsys, tmp_path):
        index = tmp_path / "index.tsv"
        index.write_text("Science/Computers\thttp://odu.edu/\tODU\tcomputer science\n", "utf-8")
        code, out, err = run(capsys, "evaluate-l1", "--index", str(index), "--folds", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "archrec: error: --folds 2 is more than the corpus of 1 items\n"


class TestLogsAndStats:
    def test_analyze_logs_table(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "analyze-logs", str(fixtures_dir / "access_log_sample.log"))
        assert code == EXIT_OK
        assert "filter summary" in out
        assert "kept: 7" in out

    def test_analyze_logs_records(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "analyze-logs",
            str(fixtures_dir / "access_log_sample.log"),
            "--output",
            "records",
        )
        assert code == EXIT_OK
        head = records_of(out)[0]
        assert head["type"] == "filter"
        assert head["kept"] == 7
        assert head["total_lines"] == 20

    def test_analyze_logs_counts_unreadable_status_and_time_as_malformed(self, capsys, fixtures_dir, tmp_path):
        good = (fixtures_dir / "access_log_sample.log").read_text("utf-8").splitlines()[0]
        assert " 200 5120 " in good and "2012-02-02T10:23:41Z" in good
        bad = [
            good.replace(" 200 ", " 2\u00b20 "),
            good.replace("2012-02-02T10:23:41Z", "0001-01-01T00:00:00+01:00"),
            good.replace("2012-02-02T10:23:41Z", "9999-12-31T23:59:59-01:00"),
        ]
        odd_size = good.replace(" 5120 ", " 5\u00b2 ")
        log = tmp_path / "access.log"
        log.write_text("\n".join([good, *bad, odd_size]) + "\n", "utf-8")
        code, out, err = run(capsys, "analyze-logs", str(log), "--output", "records")
        assert (code, err) == (EXIT_OK, "")
        head = records_of(out)[0]
        assert (head["total_lines"], head["malformed"], head["duplicate"], head["kept"]) == (5, 3, 1, 1)

    def test_stats(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "stats", "--fixtures", str(fixtures_dir))
        assert code == EXIT_OK
        assert "uris" in out
        assert "489" in out


class TestEvidencePool:
    def test_fixture_sources_start_no_pool(self, capsys, fixtures_dir, monkeypatch):
        started = []
        real = archives.ThreadPoolExecutor

        def recording(*args, **kwargs):
            started.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(archives, "ThreadPoolExecutor", recording)
        code, _, _ = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--now", "2014-06-01T00:00:00Z",
        )
        assert code == EXIT_OK
        assert started == []

    @pytest.mark.parametrize("flag", ["aggregator", "damage_service"])
    def test_network_sources_keep_the_setting(self, fixtures_dir, http_server, flag):
        overrides = {"fixtures": str(fixtures_dir), flag: http_server.url}
        settings = load_settings(None, overrides, env={})
        assert cli._build_evidence_service(settings).parallelism == settings.parallelism == 4
        local = load_settings(None, {"fixtures": str(fixtures_dir)}, env={})
        assert cli._build_evidence_service(local).parallelism == 1


class TestLiveServiceFailures:
    """What a failing or malformed live service does to a command: drop
    the candidates it fails for, with no traceback."""

    @pytest.mark.parametrize(
        "body, error",
        [
            ('{"total_damage": "x"}', "damage service sent total_damage 'x', not a finite number"),
            ("[1]", "damage service reply is not a JSON object"),
            ('{"total_damage": NaN}', "damage service sent total_damage nan, not a finite number"),
            ("<html>", "damage service reply is not JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["damage-a-string", "a-list", "damage-nan", "not-json"],
    )
    def test_malformed_damage_reply(self, capsys, fixtures_dir, http_server, body, error):
        http_server.answer(200, body)
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--damage-service", http_server.url, "--now", "2014-06-01T00:00:00Z",
        )
        assert code == EXIT_EMPTY
        assert err == ""
        assert out.count(f"(evidence unavailable: {error})") == 8
        assert len(http_server.paths) == 8
        assert all(path.startswith("/api/damage/https%3A%2F%2F") for path in http_server.paths)

    def test_unreachable_damage_service(self, capsys, fixtures_dir, http_server):
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--damage-service", f"http://127.0.0.1:{closed_port()}", "--now", "2014-06-01T00:00:00Z",
        )
        assert code == EXIT_EMPTY
        assert err == ""
        assert len(re.findall(r"\(evidence unavailable: damage request failed: \[Errno \d+\] Connection refused\)", out)) == 8

    @pytest.mark.parametrize(
        "aggregator, error",
        [
            ("agg.example", "aggregator request failed: unknown url type: 'agg.example/timemap/link/"),
            ("file:///srv/archive", "aggregator request failed: unknown url type: file)"),
        ],
        ids=["no-scheme", "file"],
    )
    def test_aggregator_that_is_no_http_url(self, capsys, fixtures_dir, aggregator, error):
        """Each candidate is dropped with the client's error, and the run
        exits empty-handed, with no traceback."""
        code, out, err = run(
            capsys, "recommend", "http://odu.edu/compsci", "--fixtures", str(fixtures_dir),
            "--aggregator", aggregator, "--now", "2014-06-01T00:00:00Z",
        )
        assert code == EXIT_EMPTY
        assert err == ""
        assert out.count(f"(evidence unavailable: {error}") == 10


class TestSettingFlags:
    """``main`` reads each setting's flag by the setting's field name."""

    def test_shared_flags_are_settings(self):
        shared, _ = flag_dests()
        assert shared - {"help", "config"} <= SETTING_NAMES

    def test_no_subcommand_argument_is_a_setting(self):
        _, own = flag_dests()
        assert {name: dests & SETTING_NAMES for name, dests in own.items()} == dict.fromkeys(own, set())


def test_fixture_recommend_leaves_requests_unimported(fixtures_dir):
    """Nothing imports ``requests``, only the network clients import
    ``urllib.request`` (and with it ``http.client`` and ``ssl``), only the
    RFC 1123 fallback decoder imports ``email.utils``, and only RDF ingest
    imports ``xml.etree``; a fixture run needs none, so it never pays for them."""
    script = (
        "import sys\n"
        "import archive_recommender\n"
        "from archive_recommender.cli import main\n"
        f"code = main(['recommend', 'http://odu.edu/compsci', '--fixtures', {str(fixtures_dir)!r},"
        " '--now', '2014-06-01T00:00:00Z'])\n"
        "assert code == 0, code\n"
        "assert 'requests' not in sys.modules, sorted(m for m in sys.modules if m.startswith('requests'))\n"
        "for name in ('urllib.request', 'http.client', 'ssl'):\n"
        "    assert name not in sys.modules, name\n"
        "assert 'email.utils' not in sys.modules, sorted(m for m in sys.modules if m.startswith('email'))\n"
        "assert 'xml.etree' not in sys.modules, sorted(m for m in sys.modules if m.startswith('xml'))\n"
    )
    src = Path(archives.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "http://cs.odu.edu" in done.stdout
