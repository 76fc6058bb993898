"""Tests for JSONL persistence and the CLI."""

import itertools
import json
import os

import pytest

from repro import fsio
from repro.errors import DatasetError, FileFormatError
from repro.fsio import atomic_write_text, atomic_writer
from repro.io import (
    load_contexts,
    load_samples,
    read_jsonl,
    save_contexts,
    save_samples,
    write_jsonl,
)
from repro.cli import main as cli_main, resolve_kinds
from repro.pipelines.samples import ReasoningSample, TaskType
from repro.telemetry import REPORT_KIND, validate_report


@pytest.fixture
def samples(players_context):
    return [
        ReasoningSample(
            uid=f"io-{i}",
            task=TaskType.QUESTION_ANSWERING,
            context=players_context,
            sentence=f"question {i} ?",
            answer=(str(i),),
        )
        for i in range(5)
    ]


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [{"a": 1}, {"b": [1, 2]}]
        assert write_jsonl(path, records) == 2
        assert list(read_jsonl(path)) == records

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            list(read_jsonl(tmp_path / "nope.jsonl"))

    def test_read_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(DatasetError) as exc:
            list(read_jsonl(path))
        assert ":2:" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert len(list(read_jsonl(path))) == 2

    def test_samples_round_trip(self, tmp_path, samples):
        path = tmp_path / "samples.jsonl"
        assert save_samples(path, samples) == 5
        loaded = load_samples(path)
        assert [s.uid for s in loaded] == [s.uid for s in samples]
        assert loaded[0].answer == samples[0].answer

    def test_contexts_round_trip(self, tmp_path, players_context):
        path = tmp_path / "contexts.jsonl"
        save_contexts(path, [players_context])
        (loaded,) = load_contexts(path)
        assert loaded.uid == players_context.uid
        assert loaded.table.n_rows == players_context.table.n_rows

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "x.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert path.exists()

    def test_read_non_object_line_reports_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text('{"ok": 1}\n[1, 2]\n')
        with pytest.raises(FileFormatError) as exc:
            list(read_jsonl(path))
        assert exc.value.line_number == 2
        assert ":2:" in str(exc.value)

    def test_format_errors_are_dataset_errors(self, tmp_path):
        # callers that catch DatasetError keep working
        assert issubclass(FileFormatError, DatasetError)
        with pytest.raises(FileFormatError):
            list(read_jsonl(tmp_path / "nope.jsonl"))


class TestAtomicWrites:
    def test_failed_write_leaves_original_intact(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"keep": 1}])
        before = path.read_text(encoding="utf-8")

        def poisoned():
            yield {"partial": 1}
            raise RuntimeError("source died mid-iteration")

        with pytest.raises(RuntimeError):
            write_jsonl(path, poisoned())
        assert path.read_text(encoding="utf-8") == before

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "data.jsonl"

        def poisoned():
            yield {"partial": 1}
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_jsonl(path, poisoned())
        assert list(tmp_path.iterdir()) == []

    def test_successful_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"old": 1}])
        write_jsonl(path, [{"new": 1}, {"new": 2}])
        assert list(read_jsonl(path)) == [{"new": 1}, {"new": 2}]

    def test_overlapping_writers_each_commit_last_close_wins(self, tmp_path):
        path = tmp_path / "shared.txt"
        with atomic_writer(path) as outer:
            outer.write("a\n")
            with atomic_writer(path) as inner:
                inner.write("b\n")
            assert path.read_text(encoding="utf-8") == "b\n"
            outer.write("a again\n")
        assert path.read_text(encoding="utf-8") == "a\na again\n"
        assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]

    def test_leftover_temp_under_reused_pid_is_skipped(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fsio, "_TEMP_SEQUENCE", itertools.count(7))
        leftover = tmp_path / f"data.txt.{os.getpid()}.7.tmp"
        leftover.write_text("killed writer", encoding="utf-8")
        atomic_write_text(tmp_path / "data.txt", "fresh")
        assert (tmp_path / "data.txt").read_text(encoding="utf-8") == "fresh"
        assert leftover.read_text(encoding="utf-8") == "killed writer"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.txt", leftover.name,
        ]

    def test_file_mode_matches_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x", encoding="utf-8")
        path = atomic_write_text(tmp_path / "atomic.txt", "x")
        assert path.stat().st_mode == plain.stat().st_mode


class TestCli:
    def test_version_flag(self, capsys):
        from repro.cli import _package_version

        with pytest.raises(SystemExit) as caught:
            cli_main(["--version"])
        assert caught.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {_package_version()}"
        # the fallback path must report the source tree's version
        import repro

        assert _package_version() == repro.__version__

    def test_stats(self, capsys):
        assert cli_main(["stats", "semtabfacts"]) == 0
        out = capsys.readouterr().out
        assert "semtabfacts" in out
        assert "Tables" in out

    def test_generate_pipeline(self, tmp_path, players_context, capsys):
        contexts_path = tmp_path / "ctx.jsonl"
        save_contexts(contexts_path, [players_context])
        out_path = tmp_path / "synth.jsonl"
        code = cli_main([
            "generate", str(contexts_path),
            "--out", str(out_path),
            "--kinds", "sql,logic",
            "--per-context", "6",
        ])
        assert code == 0
        produced = load_samples(out_path)
        assert produced
        tasks = {s.task for s in produced}
        assert TaskType.QUESTION_ANSWERING in tasks

    def test_make_dataset(self, tmp_path, capsys, monkeypatch):
        # shrink the benchmark for test speed
        import repro.cli as cli_module
        from repro.datasets import make_semtabfacts
        from repro.datasets.semtabfacts import SemTabFactsConfig

        monkeypatch.setitem(
            cli_module._BENCHMARKS,
            "semtabfacts",
            lambda: make_semtabfacts(
                SemTabFactsConfig(train_contexts=4, dev_contexts=2,
                                  test_contexts=2)
            ),
        )
        code = cli_main(["make-dataset", "semtabfacts",
                         "--out", str(tmp_path / "stf")])
        assert code == 0
        assert (tmp_path / "stf" / "train.contexts.jsonl").exists()
        assert (tmp_path / "stf" / "dev.gold.jsonl").exists()

    def test_make_dataset_stamps_benchmark(self, tmp_path, monkeypatch):
        import repro.cli as cli_module
        from repro.datasets import make_semtabfacts
        from repro.datasets.semtabfacts import SemTabFactsConfig

        monkeypatch.setitem(
            cli_module._BENCHMARKS,
            "semtabfacts",
            lambda: make_semtabfacts(
                SemTabFactsConfig(train_contexts=4, dev_contexts=2,
                                  test_contexts=2)
            ),
        )
        cli_main(["make-dataset", "semtabfacts",
                  "--out", str(tmp_path / "stf")])
        contexts = load_contexts(tmp_path / "stf" / "train.contexts.jsonl")
        assert all(
            ctx.meta.get("benchmark") == "semtabfacts" for ctx in contexts
        )


class TestCliModels:
    def test_save_model_then_list(self, tmp_path, capsys, serve_context):
        from .conftest import verification_samples

        corpus = tmp_path / "claims.jsonl"
        save_samples(corpus, verification_samples(serve_context))
        registry = tmp_path / "registry"
        code = cli_main([
            "save-model", str(corpus),
            "--registry", str(registry),
            "--name", "verifier",
            "--task", "verify",
            "--epochs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "saved verifier@v0001" in out
        assert "train_accuracy" in out

        assert cli_main(["models", "list", "--registry", str(registry)]) == 0
        listing = capsys.readouterr().out
        assert "verifier" in listing and "v0001" in listing
        assert listing.lstrip().startswith("*")  # default marker

    def test_save_model_wrong_task_fails(self, tmp_path, capsys, serve_context):
        from .conftest import verification_samples

        corpus = tmp_path / "claims.jsonl"
        save_samples(corpus, verification_samples(serve_context))
        code = cli_main([
            "save-model", str(corpus),
            "--registry", str(tmp_path / "registry"),
            "--name", "qa", "--task", "qa",
        ])
        assert code == 1
        assert "no qa samples" in capsys.readouterr().err

    def test_serve_empty_registry_fails(self, tmp_path, capsys):
        code = cli_main([
            "serve", "--registry", str(tmp_path / "nothing"), "--port", "0",
        ])
        assert code == 1
        assert "no models registered" in capsys.readouterr().err


class TestDefaultKinds:
    """The per-benchmark program-kind defaults the paper prescribes."""

    def test_explicit_kinds_win(self):
        assert resolve_kinds("sql,arith", "feverous", []) == ("sql", "arith")

    def test_benchmark_flag_selects_paper_kinds(self):
        assert resolve_kinds(None, "wikisql", []) == ("sql",)
        assert resolve_kinds(None, "tatqa", []) == ("sql", "arith")
        assert resolve_kinds(None, "feverous", []) == ("logic",)
        assert resolve_kinds(None, "semtabfacts", []) == ("logic",)

    def test_detects_benchmark_from_context_meta(self, players_context):
        stamped = [
            players_context.with_paragraphs([]),
        ]
        stamped[0].meta["benchmark"] = "tatqa"
        assert resolve_kinds(None, None, stamped) == ("sql", "arith")

    def test_mixed_or_missing_meta_falls_back_to_logic(self, players_context):
        assert resolve_kinds(None, None, [players_context]) == ("logic",)


class TestCliReport:
    def test_generate_report_round_trip(self, tmp_path, players_context):
        contexts_path = tmp_path / "ctx.jsonl"
        save_contexts(contexts_path, [players_context])
        out_path = tmp_path / "synth.jsonl"
        report_path = tmp_path / "report.json"
        code = cli_main([
            "generate", str(contexts_path),
            "--out", str(out_path),
            "--kinds", "sql",
            "--per-context", "5",
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == REPORT_KIND
        assert validate_report(report) == []
        written = len(load_samples(out_path))
        assert report["samples_written"] == written
        emitted = sum(
            stats["emitted"] for stats in report["pipelines"].values()
        )
        assert emitted == written

    def test_generate_workers_matches_serial(self, tmp_path, players_context,
                                             finance_context):
        contexts_path = tmp_path / "ctx.jsonl"
        save_contexts(contexts_path, [players_context, finance_context])

        def run(workers, out_name):
            out_path = tmp_path / out_name
            code = cli_main([
                "generate", str(contexts_path),
                "--out", str(out_path),
                "--kinds", "sql",
                "--per-context", "4",
                "--seed", "9",
                "--workers", str(workers),
            ])
            assert code == 0
            return out_path.read_text()

        assert run(1, "serial.jsonl") == run(2, "parallel.jsonl")


class TestCliCheckpoint:
    def test_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        assert cli_main([
            "generate", str(tmp_path / "ctx.jsonl"),
            "--out", str(tmp_path / "o.jsonl"),
            "--resume",
        ]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_then_resume_matches_plain_run(
        self, tmp_path, players_context, finance_context
    ):
        contexts_path = tmp_path / "ctx.jsonl"
        save_contexts(contexts_path, [players_context, finance_context])
        common = [
            "generate", str(contexts_path),
            "--kinds", "sql", "--per-context", "4", "--seed", "9",
        ]
        plain = tmp_path / "plain.jsonl"
        assert cli_main(common + ["--out", str(plain)]) == 0
        ckpt = tmp_path / "ckpt"
        first = tmp_path / "first.jsonl"
        assert cli_main(
            common + ["--out", str(first), "--checkpoint-dir", str(ckpt),
                      "--checkpoint-every", "1"]
        ) == 0
        resumed = tmp_path / "resumed.jsonl"
        assert cli_main(
            common + ["--out", str(resumed), "--checkpoint-dir", str(ckpt),
                      "--resume"]
        ) == 0
        assert first.read_text() == plain.read_text()
        assert resumed.read_text() == plain.read_text()
