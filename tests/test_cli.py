"""End-to-end command-line behavior: subcommands, exit codes, output modes."""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil

import pytest

from archive_recommender import archives, cli
from archive_recommender.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_OK, EXIT_USAGE, main
from archive_recommender.config import Settings, load_settings
from archive_recommender.nbayes import load_model
from archive_recommender.ontology import load_index, save_index

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
        [(b"not json", "JSONDecodeError"), (b'{"categories": ["A"]}', "KeyError('official_uri')")],
        ids=["not-json", "no-official-uri"],
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
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing 1.0\nclass\tA\t2.5\n", 5, "unrecognized record"),
            ("archrec-nb 1\nmethod -\nvariants -\nsmoothing 1.0\nclass\tA\t1\nfeat\tA\tx\t1.5\n", 6,
             "unrecognized record"),
        ],
        ids=["header-only", "no-variants", "no-smoothing", "unknown-method", "unknown-variant",
             "zero-smoothing", "class-count", "feat-count"],
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
        assert len(archive_opens) == 1 and archive_opens[0].closed

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
    def test_network_sources_keep_the_setting(self, fixtures_dir, flag):
        overrides = {"fixtures": str(fixtures_dir), flag: "http://127.0.0.1:9"}
        settings = load_settings(None, overrides, env={})
        assert cli._build_evidence_service(settings).parallelism == settings.parallelism == 4
        local = load_settings(None, {"fixtures": str(fixtures_dir)}, env={})
        assert cli._build_evidence_service(local).parallelism == 1


class TestSettingFlags:
    """``main`` reads each setting's flag by the setting's field name."""

    def test_shared_flags_are_settings(self):
        shared, _ = flag_dests()
        assert shared - {"help", "config"} <= SETTING_NAMES

    def test_no_subcommand_argument_is_a_setting(self):
        _, own = flag_dests()
        assert {name: dests & SETTING_NAMES for name, dests in own.items()} == dict.fromkeys(own, set())
