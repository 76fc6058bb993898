"""Question answering over tables and text (TAGOP / TAPEX stand-in).

Architecture, mirroring TAGOP's tag-then-operate design:

1. **Candidate generation** — conditioned on the question, enumerate
   answer candidates: evidence cells (table rows *and* records extracted
   from the text), filtered cell sets, column aggregates, counts, and
   arithmetic combinations of question-relevant cell pairs (difference,
   percentage change, ratio, sum, average, share-of-total, comparison).
2. **Scoring** — a binary MLP over (question, candidate) features picks
   the best candidate; it must *learn* which question wordings call for
   which derivation, which is exactly what the synthetic training data
   teaches (or fails to teach, for shallow baselines like MQA-QG).

``answer_source`` restricts candidates for the weak baselines of
Table III ("Text-Span only", "Table-Cell only").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.eval.metrics import normalize_answer
from repro.models.features import (
    EvidenceView,
    extract_numbers,
    stable_hash,
    tokenize,
)
from repro.models.nn import MLP, MLPConfig
from repro.pipelines.samples import ReasoningSample
from repro.tables.context import TableContext
from repro.tables.values import format_number

CANDIDATE_TYPES = (
    "cell",
    "multi_cells",
    "count_eq",
    "count_cmp",
    "count_distinct",
    "sum_col",
    "avg_col",
    "max_col",
    "min_col",
    "range_col",
    "sup_cell",
    "diff_pair",
    "pct_pair",
    "ratio_pair",
    "ratio100_pair",
    "cagr_pair",
    "sum_pair",
    "avg_pair",
    "share",
    "greater_pair",
)

_TYPE_INDEX = {name: i for i, name in enumerate(CANDIDATE_TYPES)}

# question lexicons
_Q_LEXICONS: dict[str, frozenset[str]] = {
    "q_pct": frozenset({"percentage", "percent", "rate"}),
    "q_avg": frozenset({"average", "mean", "typical", "averaging", "averaged"}),
    "q_sum": frozenset({"total", "sum", "combined", "together", "adding",
                        "summed", "amount"}),
    "q_count": frozenset({"many", "count", "tally", "number"}),
    "q_diff": frozenset({"difference", "change", "bigger", "gap", "move",
                         "exceed", "more", "moved", "changed", "grow"}),
    "q_ratio": frozenset({"ratio", "times", "relative"}),
    "q_share": frozenset({"share", "proportion", "fraction", "belongs"}),
    "q_max": frozenset({"highest", "most", "largest", "peak", "peaks", "top",
                        "tops", "greatest", "maximum", "best", "leads"}),
    "q_min": frozenset({"lowest", "least", "smallest", "minimum", "bottom",
                        "bottoms", "trails", "floor"}),
    "q_range": frozenset({"spread", "apart", "extremes", "wide", "range"}),
    "q_yesno": frozenset({"does", "did", "is", "was", "beat", "up"}),
    "q_distinct": frozenset({"different", "unique", "distinct"}),
    "q_growth": frozenset({"growth", "expand", "increase"}),
}

_Q_FLAGS = tuple(_Q_LEXICONS)

#: (question flag, candidate type) pairs given an explicit affinity feature.
_AFFINITIES = (
    ("q_pct", "pct_pair"),
    ("q_pct", "ratio100_pair"),
    ("q_growth", "pct_pair"),
    ("q_growth", "cagr_pair"),
    ("q_avg", "avg_col"),
    ("q_avg", "avg_pair"),
    ("q_sum", "sum_col"),
    ("q_sum", "sum_pair"),
    ("q_count", "count_eq"),
    ("q_count", "count_cmp"),
    ("q_count", "count_distinct"),
    ("q_diff", "diff_pair"),
    ("q_diff", "range_col"),
    ("q_ratio", "ratio_pair"),
    ("q_share", "share"),
    ("q_max", "max_col"),
    ("q_max", "sup_cell"),
    ("q_min", "min_col"),
    ("q_min", "sup_cell"),
    ("q_range", "range_col"),
    ("q_yesno", "greater_pair"),
    ("q_distinct", "count_distinct"),
)


@dataclass(frozen=True)
class Candidate:
    """One possible answer with its derivation provenance."""

    answer: tuple[str, ...]
    type: str
    source: str = "table"  # table | text | mixed
    row_names: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()
    condition_value: str = ""
    orientation: int = 0  # for pairs: 0 = doc order, 1 = reversed

    def key(self) -> tuple[str, ...]:
        return tuple(sorted(normalize_answer(a) for a in self.answer))


@dataclass(frozen=True)
class QAConfig:
    """Hyper-parameters for the QA scorer."""

    hidden_dims: tuple[int, ...] = (48,)
    learning_rate: float = 2e-3
    epochs: int = 25
    patience: int = 5
    batch_size: int = 128
    negatives_per_positive: int = 12
    #: "all" | "table" | "text" — candidate restriction (weak baselines).
    answer_source: str = "all"
    seed: int = 0


class CandidateGenerator:
    """Question-conditioned answer candidate enumeration."""

    def __init__(self, answer_source: str = "all", max_candidates: int = 160):
        self.answer_source = answer_source
        self.max_candidates = max_candidates

    def __setstate__(self, state: dict) -> None:
        # Artifacts pickled while this class still kept an id-keyed view
        # cache carry it, training contexts and all; drop it on load.
        state.pop("_views", None)
        self.__dict__.update(state)

    def generate(self, question: str, context: TableContext) -> list[Candidate]:
        view = EvidenceView.of(context)
        question_lower = " ".join(tokenize(question))
        numbers = extract_numbers(question)
        names = view.row_names()
        matched_rows = [
            i for i, name in enumerate(names) if name and name in question_lower
        ]
        matched_columns = [
            c for c in view.columns
            if c.lower() in question_lower and c != view.name_column
        ]
        out: list[Candidate] = []
        self._cells(out, view, matched_rows, matched_columns)
        self._filtered(out, view, question_lower)
        self._aggregates(out, view, matched_columns)
        self._counts(out, view, question_lower, numbers)
        self._pairs(out, view, matched_rows, matched_columns, question_lower)
        out = self._restrict(out)
        return out[: self.max_candidates]

    # -- candidate families -------------------------------------------------
    def _cells(self, out, view, matched_rows, matched_columns) -> None:
        rows = matched_rows or range(len(view.rows))
        for row_index in rows:
            row = view.rows[row_index]
            source = view.sources[row_index]
            name = row.get(view.name_column)
            name_raw = name.raw if name is not None else ""
            columns = matched_columns or [
                c for c in view.columns if c != view.name_column
            ]
            for column in columns:
                value = row.get(column)
                if value is None or value.is_null:
                    continue
                out.append(
                    Candidate(
                        answer=(value.raw,),
                        type="cell",
                        source=source,
                        row_names=(name_raw,),
                        columns=(column,),
                    )
                )
            # the row name itself answers "which X ..." questions
            if name is not None and not name.is_null:
                out.append(
                    Candidate(
                        answer=(name.raw,),
                        type="cell",
                        source=source,
                        row_names=(name_raw,),
                        columns=(view.name_column,),
                    )
                )
        # superlative cells: value of column B in the row maximizing A
        for num_col in view.numeric_columns:
            pairs = [
                (i, view.cell_number(i, num_col)) for i in range(len(view.rows))
            ]
            pairs = [(i, v) for i, v in pairs if v is not None]
            if not pairs:
                continue
            for pick_max in (True, False):
                chooser = max if pick_max else min
                best_index, _ = chooser(pairs, key=lambda p: p[1])
                row = view.rows[best_index]
                for column in view.columns:
                    value = row.get(column)
                    if value is None or value.is_null:
                        continue
                    out.append(
                        Candidate(
                            answer=(value.raw,),
                            type="sup_cell",
                            source=view.sources[best_index],
                            row_names=(row.get(view.name_column).raw
                                       if row.get(view.name_column) else "",),
                            columns=(column, num_col),
                            orientation=0 if pick_max else 1,
                        )
                    )

    def _filtered(self, out, view, question_lower) -> None:
        """Multi-cell answers: values of col_out where col_cond = value."""
        for cond_col in view.columns:
            values_present: dict[str, list[int]] = {}
            for index, row in enumerate(view.rows):
                value = row.get(cond_col)
                if value is None or value.is_null:
                    continue
                values_present.setdefault(value.raw.lower(), []).append(index)
            for surface, indices in values_present.items():
                if surface not in question_lower or len(indices) < 2:
                    continue
                for out_col in view.columns:
                    if out_col == cond_col:
                        continue
                    answers = []
                    for index in indices:
                        value = view.rows[index].get(out_col)
                        if value is not None and not value.is_null:
                            answers.append(value.raw)
                    if len(answers) >= 2:
                        out.append(
                            Candidate(
                                answer=tuple(answers),
                                type="multi_cells",
                                source="table",
                                columns=(out_col, cond_col),
                                condition_value=surface,
                            )
                        )

    def _aggregates(self, out, view, matched_columns) -> None:
        columns = [
            c for c in (matched_columns or view.numeric_columns)
            if c in view.numeric_columns
        ]
        has_text_rows = "text" in view.sources
        for column in columns:
            scopes = [(("table",), "table")]
            if has_text_rows:
                scopes.append((None, "mixed"))
            for scope, source in scopes:
                values = view.numeric_column_values(column, sources=scope)
                if not values:
                    continue
                aggregates = {
                    "sum_col": sum(values),
                    "avg_col": sum(values) / len(values),
                    "max_col": max(values),
                    "min_col": min(values),
                    "range_col": max(values) - min(values),
                }
                for ctype, number in aggregates.items():
                    out.append(
                        Candidate(
                            answer=(format_number(number),),
                            type=ctype,
                            source=source,
                            columns=(column,),
                        )
                    )

    def _counts(self, out, view, question_lower, numbers) -> None:
        for column in view.columns:
            tally: dict[str, int] = {}
            non_null = 0
            for row in view.rows:
                value = row.get(column)
                if value is None or value.is_null:
                    continue
                non_null += 1
                tally[value.raw.lower()] = tally.get(value.raw.lower(), 0) + 1
            out.append(
                Candidate(
                    answer=(format_number(len(tally)),),
                    type="count_distinct",
                    source="table",
                    columns=(column,),
                )
            )
            for surface, count in tally.items():
                if surface in question_lower:
                    out.append(
                        Candidate(
                            answer=(format_number(count),),
                            type="count_eq",
                            source="table",
                            columns=(column,),
                            condition_value=surface,
                        )
                    )
        for column in view.numeric_columns:
            values = view.numeric_column_values(column)
            for number in numbers:
                above = sum(1 for value in values if value > number)
                below = sum(1 for value in values if value < number)
                for count, orientation in ((above, 0), (below, 1)):
                    out.append(
                        Candidate(
                            answer=(format_number(count),),
                            type="count_cmp",
                            source="table",
                            columns=(column,),
                            condition_value=format_number(number),
                            orientation=orientation,
                        )
                    )

    def _pairs(self, out, view, matched_rows, matched_columns, question_lower) -> None:
        cells: list[tuple[str, str, float, str, int]] = []
        # (row_name, column, number, source, question position)
        rows = matched_rows if len(matched_rows) >= 1 else []
        columns = [
            c for c in (matched_columns or view.numeric_columns)
            if c in view.numeric_columns
        ]
        for row_index in rows:
            row = view.rows[row_index]
            name = row.get(view.name_column)
            name_raw = name.raw if name is not None else ""
            position = question_lower.find(name_raw.lower())
            for column in columns:
                number = view.cell_number(row_index, column)
                if number is None:
                    continue
                cells.append(
                    (name_raw, column, number, view.sources[row_index], position)
                )
        if len(cells) > 8:
            cells = cells[:8]
        for i in range(len(cells)):
            for j in range(len(cells)):
                if i == j:
                    continue
                a_name, a_col, a, a_src, a_pos = cells[i]
                b_name, b_col, b, b_src, b_pos = cells[j]
                if a_name == b_name and a_col == b_col:
                    continue
                source = "mixed" if a_src != b_src else a_src
                orientation = 0 if a_pos <= b_pos else 1
                shared = (a_name, b_name)
                cols = (a_col, b_col)
                out.append(Candidate(
                    answer=(format_number(a - b),), type="diff_pair",
                    source=source, row_names=shared, columns=cols,
                    orientation=orientation,
                ))
                if abs(b) > 1e-9:
                    out.append(Candidate(
                        answer=(format_number((a - b) / b),), type="pct_pair",
                        source=source, row_names=shared, columns=cols,
                        orientation=orientation,
                    ))
                    out.append(Candidate(
                        answer=(format_number(a / b),), type="ratio_pair",
                        source=source, row_names=shared, columns=cols,
                        orientation=orientation,
                    ))
                    out.append(Candidate(
                        answer=(format_number(a / b * 100),),
                        type="ratio100_pair", source=source, row_names=shared,
                        columns=cols, orientation=orientation,
                    ))
                    if a / b > 0:
                        out.append(Candidate(
                            answer=(format_number((a / b) ** 0.5 - 1),),
                            type="cagr_pair", source=source, row_names=shared,
                            columns=cols, orientation=orientation,
                        ))
                if i < j:
                    out.append(Candidate(
                        answer=(format_number(a + b),), type="sum_pair",
                        source=source, row_names=shared, columns=cols,
                        orientation=orientation,
                    ))
                    out.append(Candidate(
                        answer=(format_number((a + b) / 2),), type="avg_pair",
                        source=source, row_names=shared, columns=cols,
                        orientation=orientation,
                    ))
                out.append(Candidate(
                    answer=("true" if a > b else "false",), type="greater_pair",
                    source=source, row_names=shared, columns=cols,
                    orientation=orientation,
                ))
        # share of total: matched cell / its column total, over both the
        # table alone and the table + text facts (either may be asked).
        for name_raw, column, number, src, _ in cells:
            scopes = [(("table",), src)]
            if "text" in view.sources:
                scopes.append((None, "mixed" if src == "table" else src))
            for scope, source in scopes:
                values = view.numeric_column_values(column, sources=scope)
                total = sum(values)
                if abs(total) > 1e-9:
                    out.append(Candidate(
                        answer=(format_number(number / total),), type="share",
                        source=source, row_names=(name_raw,), columns=(column,),
                    ))

    def _restrict(self, candidates: list[Candidate]) -> list[Candidate]:
        if self.answer_source == "all":
            return candidates
        if self.answer_source == "table":
            return [c for c in candidates if c.source == "table"]
        if self.answer_source == "text":
            return [
                c for c in candidates
                if c.source == "text" and c.type in ("cell", "sup_cell")
            ]
        raise ModelError(f"unknown answer_source {self.answer_source!r}")


#: hashed (question token x candidate type) cross-feature buckets.  This
#: is the scorer's *lexical* pathway: it must see a wording paired with a
#: derivation type during training to credit it at inference — the
#: data-hunger that makes 50-shot training weak and topic transfer lossy,
#: as in the paper's transformer models.
HASH_CROSS_DIM = 96


class TagOpQA:
    """Candidate-ranking QA model with a trained binary scorer."""

    #: dense feature width per (question, candidate) pair.
    FEATURE_DIM = (
        len(_Q_FLAGS) + len(CANDIDATE_TYPES) + len(_AFFINITIES) + 10
        + HASH_CROSS_DIM
    )

    def __init__(self, config: QAConfig | None = None):
        self.config = config or QAConfig()
        self.generator = CandidateGenerator(self.config.answer_source)
        self._mlp = MLP(
            MLPConfig(
                input_dim=self.FEATURE_DIM,
                hidden_dims=self.config.hidden_dims,
                n_classes=2,
                learning_rate=self.config.learning_rate,
                epochs=self.config.epochs,
                patience=self.config.patience,
                batch_size=self.config.batch_size,
                seed=self.config.seed,
            )
        )
        self._trained = False
        #: learned answer-source head (TAGOP's source prediction): a
        #: Naive-Bayes model of P(source | question tokens) estimated
        #: over training positives.
        self._source_head = _SourceHead()

    # -- featurization ------------------------------------------------------
    def question_flags(self, question: str) -> np.ndarray:
        tokens = set(tokenize(question))
        return np.array(
            [float(bool(tokens & _Q_LEXICONS[flag])) for flag in _Q_FLAGS]
        )

    def pair_features(
        self, question: str, q_flags: np.ndarray, candidate: Candidate
    ) -> np.ndarray:
        type_onehot = np.zeros(len(CANDIDATE_TYPES))
        type_onehot[_TYPE_INDEX[candidate.type]] = 1.0
        affinity = np.array(
            [
                q_flags[_Q_FLAGS.index(flag)] * type_onehot[_TYPE_INDEX[ctype]]
                for flag, ctype in _AFFINITIES
            ]
        )
        question_lower = " ".join(tokenize(question))
        row_overlap = _overlap(candidate.row_names, question_lower)
        col_overlap = _overlap(candidate.columns, question_lower)
        cond_in_q = float(
            bool(candidate.condition_value)
            and candidate.condition_value.lower() in question_lower
        )
        extras = np.array(
            [
                row_overlap,
                col_overlap,
                cond_in_q,
                float(candidate.source == "table"),
                float(candidate.source == "text"),
                float(candidate.source == "mixed"),
                min(len(candidate.answer) / 3.0, 1.5),
                float(candidate.orientation),
                float(candidate.type in ("cell", "sup_cell")),
                1.0,  # bias-ish constant
            ]
        )
        crossed = np.zeros(HASH_CROSS_DIM)
        for token in tokenize(question):
            bucket = stable_hash(f"{token}|{candidate.type}") % HASH_CROSS_DIM
            crossed[bucket] += 1.0
        norm = np.linalg.norm(crossed)
        if norm > 0:
            crossed /= norm
        return np.concatenate([q_flags, type_onehot, affinity, extras, crossed])

    # -- training -------------------------------------------------------------
    def fit(self, samples: list[ReasoningSample]) -> "TagOpQA":
        x, y = self._training_matrix(samples)
        if len(x) == 0:
            raise ModelError("no trainable QA pairs produced")
        self._mlp.fit(x, y)
        self._trained = True
        return self

    def fine_tune(self, samples: list[ReasoningSample], epochs: int | None = None) -> "TagOpQA":
        """Continue training on labeled samples.

        Small label budgets get a gentle pass (low LR, few epochs) so
        the synthetic pre-training survives; the source head merges the
        new observations instead of being replaced by a noisy estimate.
        """
        previous_head = self._source_head
        x, y = self._training_matrix(samples)
        if len(x) == 0:
            self._source_head = previous_head
            return self
        new_head = self._source_head
        merged = previous_head.merged_with(new_head)
        self._source_head = merged
        gentle = len(samples) < 100
        tuned = self._mlp.clone()
        tuned.config = MLPConfig(
            **{
                **tuned.config.__dict__,
                "learning_rate": self._mlp.config.learning_rate
                * (0.15 if gentle else 0.5),
                "epochs": epochs
                or (5 if gentle else max(8, self._mlp.config.epochs // 2)),
            }
        )
        tuned.fit(x, y)
        self._mlp = tuned
        self._trained = True
        return self

    def _training_matrix(self, samples) -> tuple[np.ndarray, np.ndarray]:
        rng = random.Random(self.config.seed)
        rows: list[np.ndarray] = []
        labels: list[int] = []
        head = _SourceHead()
        for sample in samples:
            gold = tuple(sorted(normalize_answer(a) for a in sample.answer))
            candidates = self.generator.generate(sample.sentence, sample.context)
            if not candidates:
                continue
            q_flags = self.question_flags(sample.sentence)
            positives = [c for c in candidates if c.key() == gold]
            negatives = [c for c in candidates if c.key() != gold]
            if not positives:
                continue  # answer out of candidate space; skip for training
            rng.shuffle(negatives)
            negatives = negatives[: self.config.negatives_per_positive]
            for candidate in positives[:2]:
                rows.append(self.pair_features(sample.sentence, q_flags, candidate))
                labels.append(1)
            head.observe(sample.sentence, positives[0].source)
            for candidate in negatives:
                rows.append(self.pair_features(sample.sentence, q_flags, candidate))
                labels.append(0)
        if not rows:
            return np.zeros((0, self.FEATURE_DIM)), np.zeros(0, dtype=np.int64)
        if head.total > 0:
            self._source_head = head
        return np.stack(rows), np.array(labels, dtype=np.int64)

    # -- inference -------------------------------------------------------------
    def predict(self, sample: ReasoningSample) -> tuple[str, ...]:
        candidates = self.generator.generate(sample.sentence, sample.context)
        if not candidates:
            return ("",)
        q_flags = self.question_flags(sample.sentence)
        features = np.stack(
            [self.pair_features(sample.sentence, q_flags, c) for c in candidates]
        )
        if self._trained:
            scores = self._mlp.scores(features)
            if self._source_head.total > 0:
                log_posterior = self._source_head.log_posterior(sample.sentence)
                prior = np.array(
                    [log_posterior.get(c.source, -4.0) for c in candidates]
                )
                scores = scores + 2.0 * prior
        else:
            # Untrained (zero-shot) back-off: lexical overlap heuristics
            # only, the analogue of applying TAPEX off the shelf.
            base = len(_Q_FLAGS) + len(CANDIDATE_TYPES) + len(_AFFINITIES)
            scores = features[:, base] * 2.0 + features[:, base + 1]
        best = int(np.argmax(scores))
        return candidates[best].answer

    def predict_batch(self, samples: list[ReasoningSample]) -> list[tuple[str, ...]]:
        """Batch inference with scores *identical* to per-sample
        :meth:`predict`.

        This is the entry point micro-batch serving and batched
        evaluation use.  Candidate scoring deliberately stays
        per-sample: concatenating all candidates into one MLP forward
        is not bitwise-stable (BLAS picks different kernels by matrix
        shape, perturbing low-order bits and, at a near-tie, the
        argmax), and the contract here is that batching can never
        change an answer.  Cross-sample amortization therefore lives in
        shared read-only state (the evidence view memoized on each
        context, the template pools), which repeated contexts in a
        batch hit for free.
        """
        return [self.predict(sample) for sample in samples]


class _SourceHead:
    """Naive-Bayes answer-source predictor: P(source | question tokens).

    Trained from the positive candidates' sources.  A source that never
    produced a training answer keeps a floor probability, so a model
    trained without text-evidence samples effectively cannot propose
    answers read from the text — the learned capability the paper
    attributes to the Table-To-Text / Text-To-Table operators.
    """

    SOURCES = ("table", "text", "mixed")

    def __init__(self) -> None:
        self.total = 0
        self._source_counts = {source: 0 for source in self.SOURCES}
        self._token_counts = {source: {} for source in self.SOURCES}
        self._token_totals = {source: 0 for source in self.SOURCES}

    def merged_with(self, other: "_SourceHead") -> "_SourceHead":
        """Pooled observations of two heads (fine-tuning accumulates)."""
        merged = _SourceHead()
        merged.total = self.total + other.total
        for source in self.SOURCES:
            merged._source_counts[source] = (
                self._source_counts[source] + other._source_counts[source]
            )
            merged._token_totals[source] = (
                self._token_totals[source] + other._token_totals[source]
            )
            counts: dict[str, int] = dict(self._token_counts[source])
            for token, count in other._token_counts[source].items():
                counts[token] = counts.get(token, 0) + count
            merged._token_counts[source] = counts
        return merged

    def observe(self, question: str, source: str) -> None:
        if source not in self._source_counts:
            return
        self.total += 1
        self._source_counts[source] += 1
        counts = self._token_counts[source]
        for token in set(tokenize(question)):
            counts[token] = counts.get(token, 0) + 1
            self._token_totals[source] += 1

    def log_posterior(self, question: str) -> dict[str, float]:
        """Normalized log P(source | question), floored at log(0.02)."""
        tokens = set(tokenize(question))
        raw: dict[str, float] = {}
        for source in self.SOURCES:
            prior = (self._source_counts[source] + 0.5) / (self.total + 1.5)
            score = float(np.log(prior))
            vocabulary = max(self._token_totals[source], 1)
            counts = self._token_counts[source]
            for token in tokens:
                likelihood = (counts.get(token, 0) + 0.1) / (vocabulary + 0.1 * 50)
                score += float(np.log(likelihood))
            raw[source] = score
        peak = max(raw.values())
        exps = {source: float(np.exp(score - peak)) for source, score in raw.items()}
        normalizer = sum(exps.values())
        floor = float(np.log(0.02))
        return {
            source: max(float(np.log(value / normalizer + 1e-12)), floor)
            if value > 0
            else floor
            for source, value in exps.items()
        }


def _overlap(parts: tuple[str, ...], question_lower: str) -> float:
    if not parts:
        return 0.0
    hits = sum(
        1 for part in parts if part and part.lower() in question_lower
    )
    return hits / len(parts)
