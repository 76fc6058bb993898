"""Tests for the numpy MLP, featurizers, and downstream models."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import (
    CandidateGenerator,
    FactVerifier,
    MLP,
    MLPConfig,
    QAConfig,
    RandomVerifier,
    TagOpQA,
    VerificationFeaturizer,
    VerifierConfig,
    extract_numbers,
    tokenize,
)
from repro.models.baselines import MajorityVerifier
from repro.pipelines.samples import ReasoningSample, TaskType
from repro.sampling.labeler import ClaimLabel


class TestMLP:
    def _xor_data(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(n, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.int64)
        return x, y

    def test_learns_xor(self):
        x, y = self._xor_data()
        mlp = MLP(MLPConfig(input_dim=2, hidden_dims=(16,), n_classes=2,
                            epochs=200, learning_rate=5e-3, patience=50))
        mlp.fit(x, y)
        accuracy = (mlp.predict(x) == y).mean()
        assert accuracy > 0.9

    def test_predict_proba_normalized(self):
        x, y = self._xor_data(50)
        mlp = MLP(MLPConfig(input_dim=2, n_classes=2, epochs=2))
        mlp.fit(x, y)
        proba = mlp.predict_proba(x)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_scores_requires_binary(self):
        mlp = MLP(MLPConfig(input_dim=2, n_classes=3))
        with pytest.raises(ModelError):
            mlp.scores(np.zeros((1, 2)))

    def test_wrong_width_rejected(self):
        mlp = MLP(MLPConfig(input_dim=4))
        with pytest.raises(ModelError):
            mlp.fit(np.zeros((5, 3)), np.zeros(5, dtype=np.int64))

    def test_empty_data_rejected(self):
        mlp = MLP(MLPConfig(input_dim=2))
        with pytest.raises(ModelError):
            mlp.fit(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_clone_decouples_weights(self):
        x, y = self._xor_data(100)
        mlp = MLP(MLPConfig(input_dim=2, epochs=2))
        mlp.fit(x, y)
        twin = mlp.clone()
        twin.weights[0][:] = 0.0
        assert not np.allclose(mlp.weights[0], 0.0)

    def test_deterministic(self):
        x, y = self._xor_data(100)
        a = MLP(MLPConfig(input_dim=2, epochs=5, seed=4)).fit(x, y)
        b = MLP(MLPConfig(input_dim=2, epochs=5, seed=4)).fit(x, y)
        assert np.allclose(a.weights[0], b.weights[0])


class TestTextUtils:
    def test_tokenize(self):
        assert tokenize("John Smith's 31 points!") == [
            "john", "smith's", "31", "points"
        ]

    def test_extract_numbers(self):
        assert extract_numbers("revenue grew from $1,200 to 1,500") == [
            1200.0, 1500.0
        ]

    def test_extract_numbers_skips_embedded(self):
        assert extract_numbers("sample p1 and compound b2") == []


def _claim(context, sentence, label=ClaimLabel.SUPPORTED):
    return ReasoningSample(
        uid=f"c-{abs(hash(sentence)) % 10**6}",
        task=TaskType.FACT_VERIFICATION,
        context=context,
        sentence=sentence,
        label=label,
    )


class TestVerificationFeaturizer:
    def test_dimension_contract(self, players_context):
        featurizer = VerificationFeaturizer()
        features = featurizer.features(
            _claim(players_context, "john smith has a points of 31")
        )
        assert features.shape == (featurizer.dim,)

    def _dense(self, featurizer, context, sentence):
        features = featurizer.featurize(sentence, context)
        names = featurizer.DENSE_FEATURES
        return dict(zip(names, features[: len(names)]))

    def test_lookup_consistency(self, players_context):
        featurizer = VerificationFeaturizer()
        good = self._dense(
            featurizer, players_context, "john smith has a points of 31"
        )
        bad = self._dense(
            featurizer, players_context, "john smith has a points of 99"
        )
        assert good["lookup_consistent"] == 1.0
        assert bad["lookup_inconsistent"] == 1.0

    def test_text_record_lookup(self, players_context):
        """Values asserted only in the text are still checkable."""
        featurizer = VerificationFeaturizer()
        good = self._dense(
            featurizer, players_context, "dana cruz has a points of 19"
        )
        assert good["row_match"] == 1.0
        assert good["lookup_consistent"] == 1.0

    def test_superlative_signals(self, players_context):
        featurizer = VerificationFeaturizer()
        good = self._dense(
            featurizer, players_context, "john smith has the highest points"
        )
        bad = self._dense(
            featurizer, players_context, "raj patel has the highest points"
        )
        assert good["sup_max_consistent"] == 1.0
        assert bad["sup_max_inconsistent"] == 1.0

    def test_count_signals(self, players_context):
        featurizer = VerificationFeaturizer()
        good = self._dense(
            featurizer, players_context,
            "hawks appears 2 times in the team column",
        )
        assert good["count_match"] == 1.0

    def test_comparative_signals(self, players_context):
        featurizer = VerificationFeaturizer()
        good = self._dense(
            featurizer, players_context,
            "john smith has a higher points than raj patel",
        )
        bad = self._dense(
            featurizer, players_context,
            "raj patel has a higher points than john smith",
        )
        assert good["comp_consistent"] == 1.0
        assert bad["comp_inconsistent"] == 1.0

    def test_aggregation_signals(self, players_context):
        featurizer = VerificationFeaturizer()
        good = self._dense(
            featurizer, players_context, "the total points is 110"
        )
        assert good["agg_sum_match"] == 1.0

    def test_unknown_entity_signal(self, players_context):
        featurizer = VerificationFeaturizer()
        unknown = self._dense(
            featurizer, players_context,
            "zyx warbler recorded a points of 50",
        )
        known = self._dense(
            featurizer, players_context, "john smith recorded a points of 31"
        )
        assert unknown["unknown_entity"] > known["unknown_entity"]


class TestFactVerifier:
    @pytest.fixture
    def trained(self, players_context, finance_context):
        samples = []
        for context in (players_context, finance_context):
            table = context.table
            name_col = table.row_name_column
            for row in range(table.n_rows):
                name = table.row_name(row)
                for column in table.numeric_column_names():
                    cell = table.cell(row, column)
                    if cell.is_null:
                        continue
                    value = cell.raw
                    samples.append(_claim(
                        context, f"{name} has a {column} of {value}",
                        ClaimLabel.SUPPORTED,
                    ))
                    wrong = str(float(cell.as_number()) + 500)
                    samples.append(_claim(
                        context, f"{name} has a {column} of {wrong}",
                        ClaimLabel.REFUTED,
                    ))
        verifier = FactVerifier(VerifierConfig(epochs=30))
        verifier.fit(samples)
        return verifier

    def test_learns_lookup_claims(self, trained, players_context):
        predictions = trained.predict([
            _claim(players_context, "bo chen has a rebounds of 9"),
            _claim(players_context, "bo chen has a rebounds of 900"),
        ])
        assert predictions[0] is ClaimLabel.SUPPORTED
        assert predictions[1] is ClaimLabel.REFUTED

    def test_accuracy_helper(self, trained, players_context):
        samples = [
            _claim(players_context, "bo chen has a rebounds of 9",
                   ClaimLabel.SUPPORTED),
        ]
        assert 0.0 <= trained.accuracy(samples) <= 1.0

    def test_three_way_labels(self):
        verifier = FactVerifier(VerifierConfig(three_way=True))
        assert ClaimLabel.UNKNOWN in verifier.labels

    def test_no_usable_samples(self, players_context):
        verifier = FactVerifier()
        with pytest.raises(ModelError):
            verifier.fit([
                _claim(players_context, "x", ClaimLabel.UNKNOWN)
            ])  # unknown not trainable in 2-way mode


class TestCandidateGenerator:
    def test_cell_candidates(self, players_context):
        generator = CandidateGenerator()
        candidates = generator.generate(
            "what is the points of bo chen ?", players_context
        )
        answers = {c.answer for c in candidates}
        assert ("28",) in answers

    def test_text_candidates(self, players_context):
        generator = CandidateGenerator()
        candidates = generator.generate(
            "what is the points of dana cruz ?", players_context
        )
        text_answers = {
            c.answer for c in candidates if c.source == "text"
        }
        assert ("19",) in text_answers

    def test_aggregate_candidates(self, players_context):
        generator = CandidateGenerator()
        candidates = generator.generate(
            "what is the total points ?", players_context
        )
        answers = {c.answer for c in candidates}
        assert ("110",) in answers  # table-only sum

    def test_pair_candidates(self, players_context):
        generator = CandidateGenerator()
        candidates = generator.generate(
            "what is the difference in points between john smith and "
            "raj patel ?",
            players_context,
        )
        answers = {c.answer for c in candidates if c.type == "diff_pair"}
        assert ("19",) in answers

    def test_source_restriction(self, players_context):
        table_only = CandidateGenerator(answer_source="table")
        for candidate in table_only.generate("points of dana cruz", players_context):
            assert candidate.source == "table"

    def test_count_candidates(self, players_context):
        generator = CandidateGenerator()
        candidates = generator.generate(
            "how many players are on the hawks ?", players_context
        )
        count_answers = {
            c.answer for c in candidates if c.type == "count_eq"
        }
        assert ("2",) in count_answers


class TestTagOpQA:
    def _questions(self, context):
        table = context.table
        samples = []
        for row in range(table.n_rows):
            name = table.row_name(row)
            for column in table.numeric_column_names():
                cell = table.cell(row, column)
                samples.append(ReasoningSample(
                    uid=f"q-{row}-{column}",
                    task=TaskType.QUESTION_ANSWERING,
                    context=context,
                    sentence=f"what is the {column} of {name} ?",
                    answer=(cell.raw,),
                ))
        return samples

    def test_learns_lookup_questions(self, players_context):
        samples = self._questions(players_context)
        model = TagOpQA(QAConfig(epochs=20))
        model.fit(samples)
        correct = sum(
            1 for sample in samples
            if model.predict(sample) == sample.answer
        )
        assert correct / len(samples) > 0.6

    def test_untrained_fallback_runs(self, players_context):
        model = TagOpQA()
        answer = model.predict(self._questions(players_context)[0])
        assert isinstance(answer, tuple)

    def test_predict_batch(self, players_context):
        samples = self._questions(players_context)[:3]
        model = TagOpQA(QAConfig(epochs=5))
        model.fit(self._questions(players_context))
        assert len(model.predict_batch(samples)) == 3


class TestBaselines:
    def test_random_verifier_range(self, players_context):
        samples = [
            _claim(players_context, f"claim {i}",
                   ClaimLabel.SUPPORTED if i % 2 else ClaimLabel.REFUTED)
            for i in range(50)
        ]
        accuracy = RandomVerifier(seed=1).accuracy(samples)
        assert 0.2 <= accuracy <= 0.8

    def test_majority_verifier(self, players_context):
        samples = [
            _claim(players_context, f"claim {i}", ClaimLabel.REFUTED)
            for i in range(10)
        ]
        model = MajorityVerifier().fit(samples)
        assert model.accuracy(samples) == 1.0


class TestEvidenceViewMemo:
    def test_memo_is_shared_and_invisible(self, players_context):
        from repro.models.features import EvidenceView
        from repro.tables.context import TableContext

        twin = TableContext.from_json(players_context.to_json())
        before = (repr(players_context), players_context.to_json())
        view = EvidenceView.of(players_context)
        assert EvidenceView.of(players_context) is view
        # not a dataclass field: value semantics never see the memo
        assert repr(players_context) == before[0]
        assert players_context.to_json() == before[1]
        assert players_context == twin
        # keyed by instance: an equal context gets its own, equal view
        assert EvidenceView.of(twin) is not view
        assert EvidenceView.of(twin) == view

    def test_concurrent_first_use_agrees(self, players_context):
        # Engine workers may race to build one context's view; each
        # racer builds the same pure derivation, so every caller sees an
        # equal view and one of them ends up memoized.
        import sys
        import threading

        from repro.models.features import EvidenceView
        from repro.tables.context import TableContext

        payload = players_context.to_json()
        expected = EvidenceView.build(TableContext.from_json(payload))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                context = TableContext.from_json(payload)
                barrier = threading.Barrier(8, timeout=10)
                views = []

                def first_use():
                    barrier.wait()
                    views.append(EvidenceView.of(context))

                threads = [threading.Thread(target=first_use) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(views) == 8
                assert all(view == expected for view in views)
                memo = EvidenceView.of(context)
                assert any(view is memo for view in views)
        finally:
            sys.setswitchinterval(interval)
