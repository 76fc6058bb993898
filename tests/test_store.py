"""Tests for the table corpus store: persistence, integrity, determinism.

The contracts under test, in ISSUE order: tamper/truncate a shard or
drop a manifest and every read path refuses with a typed
``IntegrityError``; an index rebuilt from the shards is byte-identical
to one built incrementally; query results are identical at any worker
count; and an index build killed with ``kill -9`` mid-flight resumes
from its part checkpoints to a byte-identical result.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import IntegrityError, StoreError
from repro.store import (
    Retriever,
    TableStore,
    build_index,
    doc_id_for,
    load_index,
    ordinal_for,
    synth_corpus,
    synth_table_context,
)
from repro.store.index import index_path_for, part_path_for
from repro.validate.manifest import read_manifest, write_manifest

pytestmark = pytest.mark.timeout(300)


def _contexts(n, seed=0):
    return list(synth_corpus(n, seed=seed))


class TestStoreRoundTrip:
    def test_add_get_iter_verify(self, tmp_path):
        store = TableStore.create(tmp_path / "s", shard_size=10)
        contexts = _contexts(25)
        doc_ids = store.add(contexts)
        assert doc_ids == [doc_id_for(i) for i in range(25)]
        assert len(store) == 25
        # spans three shards at shard_size=10
        assert len(store.shards()) == 3
        for i in (0, 9, 10, 24):
            assert store.get(doc_id_for(i)).uid == contexts[i].uid
        assert [
            (doc_id, context.uid)
            for doc_id, context in store.iter_docs()
        ] == [(doc_id_for(i), c.uid) for i, c in enumerate(contexts)]
        report = store.verify()
        assert report["ok"] and report["docs"] == 25

    def test_reopen_appends_continue_tail_shard(self, tmp_path):
        root = tmp_path / "s"
        TableStore.create(root, shard_size=10).add(_contexts(7))
        store = TableStore.open(root)
        store.add(_contexts(7, seed=1))
        assert len(store) == 14
        # 14 docs still fit in two shards: the tail shard was continued,
        # not abandoned.
        assert len(store.shards()) == 2
        store.verify()

    def test_doc_id_codec(self):
        assert ordinal_for(doc_id_for(123)) == 123
        for bad in ("x123", "t-1", "t", "123", "t00bad000"):
            with pytest.raises(StoreError):
                ordinal_for(bad)

    def test_unknown_doc_is_store_error(self, tmp_path):
        store = TableStore.create(tmp_path / "s")
        store.add(_contexts(3))
        with pytest.raises(StoreError):
            store.get(doc_id_for(3))

    def test_create_refuses_existing_store(self, tmp_path):
        TableStore.create(tmp_path / "s")
        with pytest.raises(StoreError):
            TableStore.create(tmp_path / "s")

    def test_open_not_a_store_is_store_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreError):
            TableStore.open(tmp_path / "empty")


class TestStoreIntegrity:
    """Physical damage is a typed refusal, never a wrong answer."""

    def _store(self, tmp_path, n=12, shard_size=5):
        root = tmp_path / "s"
        store = TableStore.create(root, shard_size=shard_size)
        store.add(_contexts(n))
        return root

    def test_flipped_byte_in_shard_refused(self, tmp_path):
        root = self._store(tmp_path)
        shard = sorted((root / "shards").glob("*.jsonl"))[0]
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        shard.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            TableStore.open(root).get(doc_id_for(0))

    def test_truncated_shard_refused(self, tmp_path):
        root = self._store(tmp_path)
        shard = sorted((root / "shards").glob("*.jsonl"))[-1]
        shard.write_bytes(shard.read_bytes()[:-20])
        store = TableStore.open(root)
        with pytest.raises(IntegrityError):
            store.verify()

    def test_dropped_sidecar_refused(self, tmp_path):
        root = self._store(tmp_path)
        sidecar = sorted((root / "shards").glob("*.manifest.json"))[0]
        sidecar.unlink()
        with pytest.raises(IntegrityError):
            TableStore.open(root).verify()

    def test_tampered_store_manifest_refused(self, tmp_path):
        root = self._store(tmp_path)
        manifest_path = root / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["shards"][0]["records"] += 1
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(IntegrityError):
            TableStore.open(root)

    def test_torn_tail_write_is_recovered_on_next_add(self, tmp_path):
        # a crash mid-append leaves bytes past the manifested length;
        # the next writer truncates them (redo-log discipline) and the
        # store stays verifiable.
        root = self._store(tmp_path, n=7, shard_size=10)
        shard = sorted((root / "shards").glob("*.jsonl"))[-1]
        with shard.open("ab") as handle:
            handle.write(b'{"torn": tr')
        store = TableStore.open(root)
        # reads of the damaged tail refuse until a writer recovers it
        with pytest.raises(IntegrityError):
            store.verify()
        store.add(_contexts(2, seed=9))
        fresh = TableStore.open(root)
        assert fresh.verify()["docs"] == 9


class TestIndexDeterminism:
    def _built(self, tmp_path, name, contexts, *, workers=1, chunks=1):
        root = tmp_path / name
        store = TableStore.create(root, shard_size=8)
        if chunks == 1:
            store.add(contexts)
        else:
            step = max(1, len(contexts) // chunks)
            for at in range(0, len(contexts), step):
                store.add(contexts[at:at + step])
        build_index(root, workers=workers)
        return root

    def test_incremental_adds_equal_scratch_build_bytes(self, tmp_path):
        contexts = _contexts(30)
        scratch = self._built(tmp_path, "scratch", contexts)
        increm = self._built(tmp_path, "increm", contexts, chunks=4)
        assert (
            index_path_for(scratch).read_bytes()
            == index_path_for(increm).read_bytes()
        )

    def test_rebuild_after_adds_reuses_clean_parts(self, tmp_path):
        root = tmp_path / "s"
        store = TableStore.create(root, shard_size=8)
        store.add(_contexts(16))
        build_index(root)
        store.add(_contexts(16, seed=1))
        summary = build_index(root)
        # the first two shards' part files are pure functions of shard
        # bytes that did not change: reused, not rebuilt.
        assert summary["parts_reused"] >= 2
        other = self._built(
            tmp_path, "other", _contexts(16) + _contexts(16, seed=1)
        )
        assert (
            index_path_for(root).read_bytes()
            == index_path_for(other).read_bytes()
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_is_invisible(self, tmp_path, workers):
        contexts = _contexts(40)
        serial = self._built(tmp_path, "serial", contexts, workers=1)
        parallel = self._built(
            tmp_path, f"w{workers}", contexts, workers=workers
        )
        assert (
            index_path_for(serial).read_bytes()
            == index_path_for(parallel).read_bytes()
        )
        # and therefore queries agree exactly, scores included
        a = Retriever.open(serial)
        b = Retriever.open(parallel)
        for i in range(10):
            question = (
                f"what is the revenue for "
                f"{synth_table_context(0, i).table.row_name(0)} ?"
            )
            assert [h.to_json() for h in a.search(question)] == [
                h.to_json() for h in b.search(question)
            ]

    def test_missing_index_is_store_error(self, tmp_path):
        root = tmp_path / "s"
        TableStore.create(root).add(_contexts(3))
        with pytest.raises(StoreError, match="repro store build"):
            load_index(root)

    def test_stale_index_is_store_error(self, tmp_path):
        root = tmp_path / "s"
        store = TableStore.create(root)
        store.add(_contexts(3))
        build_index(root)
        store.add(_contexts(3, seed=1))
        with pytest.raises(StoreError, match="stale"):
            load_index(root)

    def test_tampered_index_is_integrity_error(self, tmp_path):
        root = tmp_path / "s"
        TableStore.create(root).add(_contexts(3))
        build_index(root)
        path = index_path_for(root)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_index(root)

    @pytest.mark.parametrize(
        "damage",
        ["meta_out_of_order", "meta_offset", "posting_past_end",
         "posting_negative"],
    )
    def test_malformed_ordinals_are_store_error(self, tmp_path, damage):
        root = tmp_path / "s"
        TableStore.create(root).add(_contexts(4))
        build_index(root)
        path = index_path_for(root)
        payload = json.loads(path.read_text(encoding="utf-8"))
        meta = payload["doc_meta"]
        postings = next(iter(payload["postings"].values()))
        if damage == "meta_out_of_order":
            meta[0], meta[1] = meta[1], meta[0]
        elif damage == "meta_offset":
            for entry in meta:
                entry[0] += 1
        elif damage == "posting_past_end":
            postings.append([payload["docs"], 1.0])
        else:
            postings.insert(0, [-1, 1.0])
        # a self-consistent file: the sidecar matches the damaged bytes
        # and the shard list is current, so only the ordinal check can
        # refuse it
        path.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n",
            encoding="utf-8",
        )
        sidecar = read_manifest(path)
        write_manifest(
            path,
            record_kind=sidecar.record_kind,
            records=sidecar.records,
            generator=sidecar.generator,
        )
        with pytest.raises(StoreError, match="malformed index"):
            load_index(root)


class TestStoreCli:
    @pytest.fixture()
    def built(self, tmp_path):
        root = tmp_path / "s"
        TableStore.create(root, shard_size=8).add(_contexts(20))
        return root, build_index(root)

    def test_verify_reports_docs_and_terms(self, built, capsys):
        root, summary = built
        assert cli_main(["store", "verify", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"index ok: 20 docs / {summary['terms']} terms" in out

    def test_verify_stale_index_exits_1(self, built, capsys):
        root, _summary = built
        TableStore.open(root).add(_contexts(2, seed=1))
        assert cli_main(["store", "verify", "--store", str(root)]) == 1
        captured = capsys.readouterr()
        assert "store ok: 22 docs" in captured.out
        assert "stale" in captured.err

    def test_query_prints_json_hits(self, built, capsys):
        root, _summary = built
        context = synth_table_context(0, 3)
        question = (
            f"what is the revenue for {context.table.row_name(0)} ?"
        )
        code = cli_main(
            ["store", "query", "--store", str(root), "-k", "3", question]
        )
        assert code == 0
        hits = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert 1 <= len(hits) <= 3
        assert hits[0]["uid"] == context.uid
        assert set(hits[0]) == {"doc_id", "uid", "title", "score"}
        assert [hit["score"] for hit in hits] == sorted(
            (hit["score"] for hit in hits), reverse=True
        )

    def test_query_without_hits_exits_1(self, built, capsys):
        root, _summary = built
        code = cli_main(
            ["store", "query", "--store", str(root), "zzzz qqqq wwww"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no hits" in captured.err


_KILL_SCRIPT = """
import sys
from repro.store import build_index
build_index(sys.argv[1], workers=2)
"""


def _live_group_members(pgid: int) -> list[int]:
    """Pids of the non-zombie processes in process group ``pgid``."""
    if not Path("/proc/self/stat").exists():  # no procfs: zombies count
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after "(comm)": state, ppid, pgrp, ...
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


class TestCrashResume:
    def test_kill9_mid_build_resumes_byte_identical(self, tmp_path):
        contexts = _contexts(48)
        root = tmp_path / "victim"
        store = TableStore.create(root, shard_size=8)
        store.add(contexts)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        env["REPRO_STORE_PART_DELAY_S"] = "0.25"
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(root)], env=env,
            start_new_session=True,
        )
        try:
            # let it finish some (but, at 6 parts x 0.25s on 2 workers,
            # not all) of the per-shard checkpoints, then kill it
            # un-gracefully — the builder only, not its pool workers
            time.sleep(0.7)
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            # orphaned pool workers notice and exit on their own
            deadline = time.monotonic() + 5.0
            while _live_group_members(proc.pid):
                assert time.monotonic() < deadline, (
                    "pool workers outlived their killed parent: "
                    f"{_live_group_members(proc.pid)}"
                )
                time.sleep(0.1)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        assert not index_path_for(root).exists()
        survivors = [
            shard.name
            for shard in TableStore.open(root).shards()
            if part_path_for(root, shard.name).exists()
        ]

        summary = build_index(root, workers=1)  # resume, different count
        if survivors:
            # the checkpoints that survived the kill were reused as-is
            assert summary["parts_reused"] >= len(survivors)

        pristine = tmp_path / "pristine"
        TableStore.create(pristine, shard_size=8).add(contexts)
        build_index(pristine, workers=4)
        assert (
            index_path_for(root).read_bytes()
            == index_path_for(pristine).read_bytes()
        )
