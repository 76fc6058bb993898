"""Retrieval-quality tests and the passage linearizer's regression pins."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StoreError, TableError
from repro.store import (
    Retriever,
    TableStore,
    build_index,
    doc_id_for,
    gold_questions,
    synth_corpus,
    synth_table_context,
)
from repro.store.index import (
    document_terms,
    index_path_for,
    number_term,
    query_terms,
)
from repro.store.retrieval import BM25_B, BM25_K1
from repro.tables.serialize import linearize_table
from repro.tables.table import Table

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("retrieval") / "store"
    store = TableStore.create(root, shard_size=64)
    store.add(synth_corpus(200, seed=11))
    build_index(root, workers=2)
    return root


class TestRetrieval:
    def test_recall_on_gold_questions(self, small_corpus):
        retriever = Retriever.open(small_corpus)
        gold = gold_questions(60, corpus_size=200, seed=11)
        at1 = at5 = 0
        for question in gold:
            hits = retriever.search(question.question, k=5)
            uids = [hit.uid for hit in hits]
            at1 += uids[:1] == [question.uid]
            at5 += question.uid in uids
        # a tiny corpus with shared noise vocabulary; the company-name
        # anchor should nail nearly every question
        assert at5 / len(gold) >= 0.9
        assert at1 / len(gold) >= 0.8

    def test_ranked_and_deterministic(self, small_corpus):
        retriever = Retriever.open(small_corpus)
        question = gold_questions(
            1, corpus_size=200, seed=11
        )[0].question
        hits = retriever.search(question, k=20)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)
        # equal scores break ties by ordinal — rerun is identical
        again = retriever.search(question, k=20)
        assert [h.to_json() for h in hits] == [
            h.to_json() for h in again
        ]

    def test_k_validation_and_fetch(self, small_corpus):
        retriever = Retriever.open(small_corpus)
        with pytest.raises(StoreError):
            retriever.search("anything", k=0)
        hit = retriever.search(
            gold_questions(1, corpus_size=200, seed=11)[0].question
        )[0]
        context = retriever.fetch(hit.doc_id)
        assert context.uid == hit.uid
        passage = retriever.passage(hit.doc_id, max_rows=2)
        assert context.table.title in passage

    def test_no_overlap_is_empty(self, small_corpus):
        retriever = Retriever.open(small_corpus)
        assert retriever.search("zzzz qqqq wwww") == []

    def test_query_terms_fold_and_number(self):
        terms = query_terms("What is the REVENUE of 1,250.0 units ?")
        assert "revenue" in terms
        assert number_term(1250.0) in terms
        # deduped, original order kept
        assert len(terms) == len(set(terms))

    def test_document_terms_weight_fields(self, small_corpus):
        store = TableStore.open(small_corpus)
        context = store.get("t00000000")
        weights = document_terms(context)
        title_word = context.table.title.split()[0].lower()
        header = context.table.column_names[1]
        # caption/title outrank headers outrank cell values
        assert weights[title_word] > weights[header] >= 1.0


def _reference_search(payload, question, k):
    """Scalar BM25 over the raw index JSON: the oracle for ``search``.

    One dict accumulator, postings walked term by term in query order,
    ranked by ``(-score, ordinal)``.
    """
    docs = int(payload["docs"])
    avgdl = float(payload["avgdl"])
    meta = {
        int(entry[0]): (str(entry[1]), str(entry[2]), float(entry[3]))
        for entry in payload["doc_meta"]
    }
    scores = {}
    for term in query_terms(question):
        entries = payload["postings"].get(term)
        if not entries:
            continue
        df = len(entries)
        idf = math.log(1.0 + (docs - df + 0.5) / (df + 0.5))
        for ordinal, tf in entries:
            ordinal, tf = int(ordinal), float(tf)
            length = meta[ordinal][2]
            denom = tf + BM25_K1 * (
                1.0 - BM25_B + BM25_B * length / max(avgdl, 1e-9)
            )
            scores[ordinal] = scores.get(ordinal, 0.0) + idf * (
                tf * (BM25_K1 + 1.0) / denom
            )
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [
        (doc_id_for(ordinal), meta[ordinal][0], meta[ordinal][1],
         score.hex())
        for ordinal, score in ranked[:k]
    ]


class TestArraySearchEquivalence:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_matches_reference_bm25_bitwise(self, data):
        # few distinct tables drawn with repeats: duplicates tie exactly
        picks = data.draw(
            st.lists(st.integers(0, 5), min_size=1, max_size=8),
            label="tables",
        )
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "store"
            TableStore.create(root, shard_size=3).add(
                [synth_table_context(3, index) for index in picks]
            )
            build_index(root)
            payload = json.loads(
                index_path_for(root).read_text(encoding="utf-8")
            )
            retriever = Retriever.open(root)
        words = data.draw(
            st.lists(
                st.sampled_from(
                    sorted(payload["postings"])
                    + ["zzzabsent", "qqqnowhere", "1,000"]
                ),
                max_size=6,
            ),
            label="question words",
        )
        question = " ".join(words)
        k = data.draw(st.integers(1, len(picks) + 3), label="k")
        got = [
            (hit.doc_id, hit.uid, hit.title, hit.score.hex())
            for hit in retriever.search(question, k=k)
        ]
        assert got == _reference_search(payload, question, k)


class TestPassageLinearizer:
    @pytest.fixture()
    def table(self):
        return Table.from_rows(
            ["player", "points", "team"],
            [["bo chen", "28", "hawks"], ["ana cruz", "31", "owls"]],
            title="season scoring",
            caption="points per game leaders",
            row_name_column="player",
        )

    def test_flat_default_is_pinned(self, table):
        # the default style is the featurizers' wire format: pinned
        # byte-for-byte so retrieval work can never drift it.
        assert linearize_table(table) == (
            "title : season scoring "
            "header : player | points | team "
            "row 1 : bo chen | 28 | hawks "
            "row 2 : ana cruz | 31 | owls"
        )
        assert linearize_table(table, max_rows=1) == (
            "title : season scoring "
            "header : player | points | team "
            "row 1 : bo chen | 28 | hawks"
        )
        assert linearize_table(table, style="flat") == linearize_table(
            table
        )

    def test_passage_style(self, table):
        assert linearize_table(table, style="passage") == (
            "season scoring . points per game leaders . "
            "player is bo chen ; points is 28 ; team is hawks . "
            "player is ana cruz ; points is 31 ; team is owls ."
        )
        assert linearize_table(table, max_rows=1, style="passage") == (
            "season scoring . points per game leaders . "
            "player is bo chen ; points is 28 ; team is hawks ."
        )

    def test_unknown_style_refused(self, table):
        with pytest.raises(TableError):
            linearize_table(table, style="prose")
