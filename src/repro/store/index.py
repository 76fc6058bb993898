"""The inverted index over a table store, and its parallel build job.

Index schema
------------
One JSON document (``index/index.json`` + integrity sidecar) holding

* ``doc_meta`` — ``[ordinal, uid, title, length]`` per document, in
  ordinal order (``length`` is the weighted term mass BM25 normalizes
  by),
* ``postings`` — term → ``[[ordinal, weighted_tf], …]`` with ordinals
  ascending,
* ``avgdl`` / ``docs`` — the corpus statistics scoring needs,
* ``shards`` — the name + SHA-256 of every shard the index was built
  from, which is how staleness is *detected* rather than assumed.

Terms are case-folded and fielded by weight, not by namespace: caption
and title tokens count ×3, column-name tokens ×2, cell values and
paragraph text ×1.  Cell terms come from the columnar substrate's
cached canonical keys (:meth:`ColumnVector.canonical_keys`): numbers
index under one canonical spelling (``"1,000"``, ``"1000"`` and
``1e3`` all become ``1000``), dates under ``YYYY-MM-DD``, booleans
under ``true``/``false``, and text cells under their case-folded word
tokens — the same canonicalization :func:`query_terms` applies to the
question, so surface-form mismatches cannot split the vocabulary.

Determinism and resume
----------------------
The build is a per-shard map followed by an ordered merge:

1. Every shard gets a **part file** (``index/parts/<shard>.part.json``
   + sidecar) that is a pure function of that shard's bytes and its
   start ordinal.  Parts are written atomically; a ``kill -9`` leaves
   only the killed writer's ``*.tmp`` file, which nothing reads.
2. A rebuild *skips* every part whose sidecar verifies and whose
   recorded shard SHA-256 still matches the store manifest — that is
   the whole checkpoint/resume story, inherited from the atomic-file
   discipline of :mod:`repro.runtime.checkpoint` rather than
   re-implemented.
3. The merge concatenates parts in shard order, so postings lists come
   out ordinal-ascending no matter which worker built which part, and
   the final index is serialized with sorted keys — **byte-identical
   at any worker count**, and byte-identical whether the store was
   filled in one ``add`` or a hundred.

Workers are OS processes (:class:`~concurrent.futures.ProcessPoolExecutor`
with the runtime's preferred start method, each exiting if the building
process dies); each shard build runs under the runtime's
:class:`~repro.runtime.retry.RetryPolicy` so one flaky read does not
kill an hours-long build.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import IntegrityError, StoreError
from repro.fsio import atomic_write_text
from repro.models.features import extract_numbers, tokenize
from repro.runtime.retry import RetryPolicy, run_with_retry
from repro.store.store import ShardRecord, TableStore
from repro.tables.context import TableContext
from repro.validate.manifest import verify_manifest, write_manifest

#: bump when the index layout changes incompatibly.
INDEX_SCHEMA_VERSION = 1

INDEX_KIND = "uctr-table-index"
PART_KIND = "uctr-index-part"

#: ``record_kind`` in the sidecars (index = docs, part = docs in shard).
INDEX_RECORD_KIND = "table-index"
PART_RECORD_KIND = "table-index-part"

INDEX_DIR = "index"
PART_DIR = "parts"
INDEX_NAME = "index.json"

#: field weights (caption/title > column names > cells/paragraphs).
CAPTION_WEIGHT = 3.0
HEADER_WEIGHT = 2.0
CELL_WEIGHT = 1.0
TEXT_WEIGHT = 1.0

#: test-only hook: sleep this many seconds inside each part build, so
#: fault tests can land a ``kill -9`` mid-build deterministically.
PART_DELAY_ENV = "REPRO_STORE_PART_DELAY_S"


def number_term(value: float) -> str:
    """The canonical index term for a numeric value.

    ``%g`` collapses every surface spelling of the same number —
    ``1,000`` in a cell and ``1000`` in a question meet at ``"1000"``.
    """
    return format(value, "g")


def date_term(year: int, month: int, day: int) -> str:
    return f"{year:04d}-{month:02d}-{day:02d}"


def _charge(terms: dict[str, float], tokens: list[str], weight: float) -> None:
    for token in tokens:
        terms[token] = terms.get(token, 0.0) + weight


def document_terms(context: TableContext) -> dict[str, float]:
    """Weighted term frequencies for one stored context.

    Cell terms lean on the columnar substrate: each column's cached
    ``canonical_keys()`` gives the already case-folded, already typed
    per-cell keys, so indexing shares both the work and the equality
    semantics of the SQL executor's DISTINCT.
    """
    table = context.table
    terms: dict[str, float] = {}
    _charge(terms, tokenize(table.title), CAPTION_WEIGHT)
    _charge(terms, tokenize(table.caption), CAPTION_WEIGHT)
    for name in table.column_names:
        _charge(terms, tokenize(name), HEADER_WEIGHT)
    view = table.columnar()
    for vector in view.vectors():
        validity = vector.validity()
        for index, key in enumerate(vector.canonical_keys()):
            if not validity[index]:
                continue
            kind = key[0]
            if kind == "num":
                _charge(terms, [number_term(key[1])], CELL_WEIGHT)
            elif kind == "date":
                year, month, day = key[1]
                _charge(terms, [date_term(year, month, day)], CELL_WEIGHT)
            elif kind == "bool":
                _charge(
                    terms, ["true" if key[1] else "false"], CELL_WEIGHT
                )
            else:  # text: the canonical key carries the folded raw form
                _charge(terms, tokenize(key[1]), CELL_WEIGHT)
    for paragraph in context.paragraphs:
        _charge(terms, tokenize(paragraph.text), TEXT_WEIGHT)
    return terms


def query_terms(question: str) -> list[str]:
    """Index-side canonicalization of a question (dedup, order kept)."""
    seen: dict[str, None] = {}
    for token in tokenize(question):
        seen.setdefault(token)
    for value in extract_numbers(question):
        seen.setdefault(number_term(value))
    return list(seen)


# -- part files --------------------------------------------------------------


def part_path_for(root: str | Path, shard_name: str) -> Path:
    stem = shard_name.rsplit(".", 1)[0]
    return Path(root) / INDEX_DIR / PART_DIR / f"{stem}.part.json"


def _part_generator(shard: ShardRecord, start: int) -> dict[str, Any]:
    return {
        "shard": shard.name,
        "shard_sha256": shard.data_sha256,
        "start": start,
    }


def part_is_current(
    root: str | Path, shard: ShardRecord, start: int
) -> bool:
    """True when the shard's part exists, verifies, and is not stale."""
    path = part_path_for(root, shard.name)
    if not path.exists():
        return False
    try:
        manifest = verify_manifest(path, required=True)
    except IntegrityError:
        return False
    return manifest.generator == _part_generator(shard, start)


def build_part(root: str | Path, shard_name: str) -> dict[str, Any]:
    """Build one shard's index part (atomic write + sidecar).

    Pure function of the shard's bytes and its start ordinal: the same
    shard always produces the same part bytes, which is what makes the
    merged index invariant to worker count and to resume.
    """
    delay = float(os.environ.get(PART_DELAY_ENV, "0") or 0)
    if delay > 0:
        time.sleep(delay)
    store = TableStore.open(root)
    record = next(
        (shard for shard in store.shards() if shard.name == shard_name),
        None,
    )
    if record is None:
        raise StoreError(f"unknown shard {shard_name!r} in {root}")
    start = store.shard_start(shard_name)
    rows = store.read_shard(shard_name)
    doc_meta: list[list[Any]] = []
    postings: dict[str, list[list[Any]]] = {}
    for payload in rows:
        ordinal = int(payload["doc"])
        context = TableContext.from_json(payload["context"])
        terms = document_terms(context)
        length = sum(terms.values())
        doc_meta.append(
            [ordinal, context.uid, context.table.title, round(length, 4)]
        )
        for term in sorted(terms):
            postings.setdefault(term, []).append(
                [ordinal, round(terms[term], 4)]
            )
    part = {
        "schema_version": INDEX_SCHEMA_VERSION,
        "kind": PART_KIND,
        "shard": shard_name,
        "shard_sha256": record.data_sha256,
        "start": start,
        "doc_meta": doc_meta,
        "postings": postings,
    }
    path = part_path_for(root, shard_name)
    atomic_write_text(
        path,
        json.dumps(part, sort_keys=True, separators=(",", ":"),
                   ensure_ascii=False) + "\n",
    )
    write_manifest(
        path,
        record_kind=PART_RECORD_KIND,
        records=len(doc_meta),
        generator=_part_generator(record, start),
    )
    return {"shard": shard_name, "docs": len(doc_meta),
            "terms": len(postings)}


def _part_job(root: str, shard_name: str, max_attempts: int) -> str:
    """Worker entry point (picklable): build one part with retries."""
    run_with_retry(
        lambda _attempt: build_part(root, shard_name),
        RetryPolicy(max_attempts=max_attempts, backoff_base=0.05),
    )
    return shard_name


def _load_part(root: str | Path, shard: ShardRecord) -> dict[str, Any]:
    path = part_path_for(root, shard.name)
    verify_manifest(path, required=True)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("shard_sha256") != shard.data_sha256:
        raise IntegrityError(
            "index part was built from different shard bytes",
            path=str(path),
        )
    return payload


# -- the merged index --------------------------------------------------------


def index_path_for(root: str | Path) -> Path:
    return Path(root) / INDEX_DIR / INDEX_NAME


def build_index(
    root: str | Path,
    *,
    workers: int = 1,
    telemetry: Any = None,
    max_attempts: int = 3,
) -> dict[str, Any]:
    """(Re)build the inverted index for the store at ``root``.

    Naturally resumable: parts that already verify against the current
    shard bytes are reused, everything else is (re)built — so re-running
    after *any* interruption, including ``kill -9``, continues instead
    of starting over, and the final index bytes are identical either
    way.  Returns a summary dict.
    """
    if workers < 1:
        raise StoreError("workers must be >= 1")
    store = TableStore.open(root)
    root = store.root
    shards = store.shards()
    starts: dict[str, int] = {}
    start = 0
    for shard in shards:
        starts[shard.name] = start
        start += shard.records
    pending = [
        shard.name for shard in shards
        if not part_is_current(root, shard, starts[shard.name])
    ]
    reused = len(shards) - len(pending)
    started_at = time.perf_counter()
    if pending:
        if workers > 1 and len(pending) > 1:
            import multiprocessing

            from repro.parallel import exit_with_parent, pick_start_method

            context = multiprocessing.get_context(pick_start_method())
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                mp_context=context,
                initializer=exit_with_parent,
                initargs=(os.getpid(),),
            ) as executor:
                for _ in executor.map(
                    _part_job,
                    [str(root)] * len(pending),
                    pending,
                    [max_attempts] * len(pending),
                ):
                    pass
        else:
            for shard_name in pending:
                _part_job(str(root), shard_name, max_attempts)
    # ordered merge: shard order == ordinal order, any worker schedule.
    doc_meta: list[list[Any]] = []
    postings: dict[str, list[list[Any]]] = {}
    for shard in shards:
        part = _load_part(root, shard)
        doc_meta.extend(part["doc_meta"])
        for term, entries in part["postings"].items():
            postings.setdefault(term, []).extend(entries)
    docs = len(doc_meta)
    total_length = sum(entry[3] for entry in doc_meta)
    payload = {
        "schema_version": INDEX_SCHEMA_VERSION,
        "kind": INDEX_KIND,
        "docs": docs,
        "avgdl": round(total_length / docs, 6) if docs else 0.0,
        "doc_meta": doc_meta,
        "postings": postings,
        "shards": [
            {"name": shard.name, "data_sha256": shard.data_sha256}
            for shard in shards
        ],
    }
    path = index_path_for(root)
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ) + "\n"
    atomic_write_text(path, text)
    write_manifest(
        path,
        record_kind=INDEX_RECORD_KIND,
        records=docs,
        generator={"shards": payload["shards"]},
    )
    elapsed = time.perf_counter() - started_at
    if telemetry is not None:
        telemetry.increment("store", "index_builds")
        telemetry.increment("store", "parts_built", len(pending))
        telemetry.increment("store", "parts_reused", reused)
        telemetry.increment("store", "docs_indexed", docs)
    return {
        "docs": docs,
        "terms": len(postings),
        "shards": len(shards),
        "parts_built": len(pending),
        "parts_reused": reused,
        "workers": workers,
        "build_s": round(elapsed, 3),
        "index_bytes": len(text.encode("utf-8")),
    }


class StoreIndex:
    """The parsed, verified inverted index of one store, as flat arrays.

    Every term's postings are one contiguous slice of ``ordinals``
    (int64) and ``tfs`` (float64), ordinal-ascending as in the file;
    ``terms`` maps a term to its ``(start, end)`` slice.  Documents are
    addressed by ordinal: ``lengths[ordinal]`` is the weighted length
    BM25 normalizes by and ``doc_meta[ordinal]`` the ``(uid, title)``
    a hit reports.  Raises :class:`StoreError` when the payload's
    ordinals do not address exactly ``0..docs-1``.
    """

    def __init__(self, payload: dict[str, Any]):
        self.docs: int = int(payload["docs"])
        self.avgdl: float = float(payload["avgdl"])
        meta = payload["doc_meta"]
        postings: dict[str, list[list[Any]]] = payload["postings"]
        self.doc_meta: list[tuple[str, str]] = [
            (str(entry[1]), str(entry[2])) for entry in meta
        ]
        self.lengths = np.fromiter(
            (entry[3] for entry in meta), dtype=np.float64, count=len(meta)
        )
        sizes = np.fromiter(
            map(len, postings.values()), dtype=np.int64, count=len(postings)
        )
        ends = np.cumsum(sizes)
        self.terms: dict[str, tuple[int, int]] = dict(
            zip(postings, zip((ends - sizes).tolist(), ends.tolist()))
        )
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(postings.values())),
            dtype=np.float64,
            count=2 * int(ends[-1]) if len(ends) else 0,
        ).reshape(-1, 2)
        self.ordinals = pairs[:, 0].astype(np.int64)
        self.tfs = np.ascontiguousarray(pairs[:, 1])
        self.shards: list[dict[str, str]] = list(payload["shards"])
        meta_ordinals = np.fromiter(
            (entry[0] for entry in meta), dtype=np.int64, count=len(meta)
        )
        postings_in_range = self.ordinals.size == 0 or (
            self.ordinals.min() >= 0 and self.ordinals.max() < self.docs
        )
        if not (
            np.array_equal(meta_ordinals, np.arange(self.docs))
            and postings_in_range
        ):
            raise StoreError(
                "malformed index: document ordinals are not exactly "
                f"0..{self.docs - 1} (run `repro store build` to rebuild)"
            )


def load_index(root: str | Path, *, store: TableStore | None = None) -> StoreIndex:
    """Load and verify the index at ``root``; refuse stale or damaged.

    ``store`` (opened separately or passed in) provides the current
    shard fingerprints; an index built from different bytes raises
    :class:`StoreError` telling the operator to rebuild, because
    serving scores from a stale index would silently mis-rank.
    """
    store = store or TableStore.open(root)
    path = index_path_for(store.root)
    if not path.exists():
        raise StoreError(
            f"no index at {path} (run `repro store build` first)"
        )
    verify_manifest(path, required=True)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("kind") != INDEX_KIND or payload.get(
        "schema_version"
    ) != INDEX_SCHEMA_VERSION:
        raise StoreError(f"{path} is not a readable {INDEX_KIND}")
    current = [
        {"name": shard.name, "data_sha256": shard.data_sha256}
        for shard in store.shards()
    ]
    if payload.get("shards") != current:
        raise StoreError(
            f"index at {path} is stale: the store's shards changed "
            "since it was built (run `repro store build` to refresh)"
        )
    return StoreIndex(payload)
