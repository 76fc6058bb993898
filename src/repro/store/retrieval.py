"""BM25 ranked retrieval over a store's inverted index.

The scoring is textbook Okapi BM25 (k1 = 1.5, b = 0.75) with the
robust idf form ``ln(1 + (N - df + 0.5) / (df + 0.5))``, applied to
the *weighted* term frequencies the indexer recorded (caption ×3,
headers ×2, cells ×1) — so a question word that hits a table's caption
outranks the same word buried in a cell, without a separate fielded
query language.

Determinism: scores are pure arithmetic over the index, and ties break
on ascending ordinal — two stores with byte-identical indexes return
byte-identical rankings, which the worker-count property test relies
on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import StoreError
from repro.store.index import StoreIndex, load_index, query_terms
from repro.store.store import TableStore, doc_id_for
from repro.tables.context import TableContext
from repro.tables.serialize import linearize_table

#: BM25 shape parameters (the standard Robertson/Okapi defaults).
BM25_K1 = 1.5
BM25_B = 0.75

#: default result depth for /v1/ask and `repro store query`.
DEFAULT_TOP_K = 5


@dataclass(frozen=True)
class RetrievalHit:
    """One ranked retrieval result."""

    doc_id: str
    ordinal: int
    uid: str
    title: str
    score: float

    def to_json(self) -> dict[str, Any]:
        return {
            "doc_id": self.doc_id,
            "uid": self.uid,
            "title": self.title,
            "score": round(self.score, 4),
        }


class Retriever:
    """A store + its index, ready to answer ``search``/``fetch``.

    Construct via :meth:`open` (verifies the store manifest and refuses
    a stale index) or directly from an already-open pair.
    """

    def __init__(self, store: TableStore, index: StoreIndex):
        self.store = store
        self.index = index
        #: the per-document half of BM25's denominator, once per index.
        self._norm = BM25_K1 * (
            1.0 - BM25_B + BM25_B * index.lengths / max(index.avgdl, 1e-9)
        )

    @classmethod
    def open(cls, root: str | Path) -> "Retriever":
        store = TableStore.open(root)
        return cls(store, load_index(root, store=store))

    @property
    def doc_count(self) -> int:
        return self.index.docs

    def search(
        self, question: str, *, k: int = DEFAULT_TOP_K
    ) -> list[RetrievalHit]:
        """Top-``k`` tables for a question, best first.

        An empty result means no indexed table shares a single term
        with the question — the ``retrieval_miss`` case upstream.
        """
        if k < 1:
            raise StoreError("k must be >= 1")
        index = self.index
        if index.docs == 0:
            return []
        # each document sums its terms in query-term order with the
        # float operations of the scalar formula, so scores are the same
        # bits however the postings are laid out.
        scores = np.zeros(index.docs)
        touched = np.zeros(index.docs, dtype=bool)
        for term in query_terms(question):
            span = index.terms.get(term)
            if span is None:
                continue
            start, end = span
            ordinals = index.ordinals[start:end]
            tf = index.tfs[start:end]
            df = end - start
            idf = math.log(
                1.0 + (index.docs - df + 0.5) / (df + 0.5)
            )
            scores[ordinals] += idf * (
                tf * (BM25_K1 + 1.0) / (tf + self._norm[ordinals])
            )
            touched[ordinals] = True
        candidates = np.flatnonzero(touched)
        # best score first, ties on ascending ordinal
        ranked = candidates[
            np.lexsort((candidates, -scores[candidates]))[:k]
        ]
        out: list[RetrievalHit] = []
        for ordinal in ranked.tolist():
            uid, title = index.doc_meta[ordinal]
            out.append(RetrievalHit(
                doc_id=doc_id_for(ordinal), ordinal=ordinal,
                uid=uid, title=title, score=float(scores[ordinal]),
            ))
        return out

    def fetch(self, doc_id: str) -> TableContext:
        """The stored context behind a hit (verified shard read)."""
        return self.store.get(doc_id)

    def passage(self, doc_id: str, *, max_rows: int | None = 2) -> str:
        """The passage linearization of a stored table (provenance)."""
        context = self.fetch(doc_id)
        return linearize_table(
            context.table, max_rows=max_rows, style="passage"
        )
