"""Featurizers: engineered reasoning signals + hashed lexical features.

The verification featurizer is the numpy stand-in for what a pre-trained
table transformer computes internally: candidate consistency checks
between the claim and the evidence (lookup, superlative, count,
aggregation, comparative, majority, unique, ordinal), each exposed as a
consistent/inconsistent feature pair.  The classifier on top must still
*learn* which signals predict which label for which wording — that is
what training data quality controls, and what the UCTR experiments vary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from repro.operators.text_to_table import RecordExtractor
from repro.pipelines.samples import ReasoningSample
from repro.tables.context import TableContext
from repro.tables.values import Value, coerce_number

_TOKEN_RE = re.compile(r"[a-z0-9']+")

#: number of hashed bag-of-words buckets appended to the dense block.
HASH_DIM = 192


def stable_hash(text: str) -> int:
    """Process-independent string hash (``hash()`` is salted per run)."""
    import zlib

    return zlib.crc32(text.encode("utf-8"))


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens."""
    return _TOKEN_RE.findall(text.lower())


def extract_numbers(text: str) -> list[float]:
    """All numbers mentioned in ``text`` (handles %, $, commas)."""
    out: list[float] = []
    for match in re.finditer(
        r"(?<![a-z0-9_])[-+]?\$?\d[\d,]*(?:\.\d+)?%?", text.lower()
    ):
        number = coerce_number(match.group().replace("$", ""))
        if number is not None:
            out.append(number)
    return out


# -- lexicons (cover grammar, human, and MQA-QG phrasings alike) -------------

SUP_MAX_WORDS = {
    "highest", "most", "greatest", "top", "tops", "peak", "peaks", "leads",
    "largest", "maximum", "best", "leading",
}
SUP_MIN_WORDS = {
    "lowest", "least", "smallest", "minimum", "bottom", "bottoms", "floor",
    "worst", "last",
}
COMP_MORE_WORDS = {
    "more", "higher", "greater", "exceeds", "outranks", "ahead", "beats",
    "bigger", "larger", "above",
}
COMP_LESS_WORDS = {
    "less", "lower", "fewer", "below", "smaller", "trails", "under", "short",
}
AGG_SUM_WORDS = {
    "total", "sum", "combined", "summing", "adding", "altogether", "overall",
}
AGG_AVG_WORDS = {"average", "mean", "typical", "averaged", "averaging"}
COUNT_WORDS = {
    "times", "entries", "rows", "appears", "count", "tally", "occurrences",
    "appear", "carry", "show", "shows",
}
MAJ_ALL_WORDS = {"all", "every", "exception", "none", "without"}
MAJ_MOST_WORDS = {"most", "majority", "bulk", "dominates"}
UNIQUE_WORDS = {"only", "unique", "once", "exactly"}
ORDINAL_WORDS = {
    "second", "third", "fourth", "fifth", "2nd", "3rd", "4th", "5th",
    "rank", "ranks", "ranked", "spot", "position",
}
NEG_WORDS = {"not", "no", "never", "n't", "isn't", "doesn't"}
TEXT_REF_WORDS = {"passage", "text", "stated", "states", "according"}

_ORDINAL_MAP = {"second": 2, "2nd": 2, "third": 3, "3rd": 3,
                "fourth": 4, "4th": 4, "fifth": 5, "5th": 5}

#: attribute name under which the view is memoized on the frozen context.
_VIEW_SLOT = "_evidence_memo"


@dataclass(frozen=True)
class EvidenceView:
    """Pre-digested evidence: table rows + records extracted from text.

    ``rows`` maps are ``{column: Value}``; ``source`` parallels rows with
    "table" / "text".  Built once per context by :meth:`of`.
    """

    columns: tuple[str, ...]
    numeric_columns: tuple[str, ...]
    name_column: str
    rows: tuple[dict[str, Value], ...]
    sources: tuple[str, ...]
    table_vocab: frozenset[str]
    text_vocab: frozenset[str]

    @staticmethod
    def of(context: TableContext) -> "EvidenceView":
        """The context's view, built on first use and memoized on it.

        The memo sits in the frozen context's ``__dict__``, like
        ``Value``'s ``_*_memo`` slots and ``Table``'s ``_columnar_memo``:
        it is not a dataclass field, so equality, hashing, ``repr`` and
        ``to_json`` never see it, and it is freed with its context.  The
        QA candidate generator and the verification featurizer share
        one view per context.  Keyed by instance, not ``uid``: pipelines
        derive many distinct contexts (sub-tables, stripped paragraphs)
        that share a uid.  Two threads racing on one context both build
        the same view (a pure function of the frozen context), so the
        last write is as good as the first.
        """
        view = context.__dict__.get(_VIEW_SLOT)
        if view is None:
            view = EvidenceView.build(context)
            object.__setattr__(context, _VIEW_SLOT, view)
        return view

    @staticmethod
    def build(context: TableContext) -> "EvidenceView":
        table = context.table
        name_column = table.row_name_column or (
            table.column_names[0] if table.column_names else ""
        )
        rows: list[dict[str, Value]] = []
        sources: list[str] = []
        for row in table.rows:
            rows.append(dict(zip(table.column_names, row.cells)))
            sources.append("table")
        if context.has_text and table.column_names:
            extractor = RecordExtractor(table.column_names)
            seen_names = {
                table.row_name(i).strip().lower() for i in range(table.n_rows)
            }
            for sentence in context.sentences:
                record = extractor.extract_record(sentence, name_column)
                if len(record) < 2 or name_column not in record:
                    continue
                name_key = record[name_column].raw.strip().lower()
                if name_key in seen_names:
                    # The sentence restates a table row; keep the table
                    # copy as the single source of truth.
                    continue
                seen_names.add(name_key)
                rows.append(record)
                sources.append("text")
        table_tokens: set[str] = set()
        for row in table.rows:
            for cell in row.cells:
                table_tokens.update(tokenize(cell.raw))
        table_tokens.update(tokenize(" ".join(table.column_names)))
        text_tokens = set(tokenize(context.text))
        return EvidenceView(
            columns=tuple(table.column_names),
            numeric_columns=tuple(table.numeric_column_names()),
            name_column=name_column,
            rows=tuple(rows),
            sources=tuple(sources),
            table_vocab=frozenset(table_tokens),
            text_vocab=frozenset(text_tokens),
        )

    # -- evidence queries --------------------------------------------------------
    def row_names(self) -> list[str]:
        out = []
        for row in self.rows:
            value = row.get(self.name_column)
            out.append(value.raw.lower() if value is not None else "")
        return out

    def numeric_column_values(
        self, column: str, sources: tuple[str, ...] | None = None
    ) -> list[float]:
        numbers: list[float] = []
        for row, source in zip(self.rows, self.sources):
            if sources is not None and source not in sources:
                continue
            value = row.get(column)
            if value is None or value.is_null:
                continue
            try:
                numbers.append(value.as_number())
            except Exception:
                continue
        return numbers

    def cell_number(self, row_index: int, column: str) -> float | None:
        value = self.rows[row_index].get(column)
        if value is None or value.is_null:
            return None
        try:
            return value.as_number()
        except Exception:
            return None


@dataclass
class VerificationFeaturizer:
    """Claim × evidence → feature vector for fact verification."""

    hash_dim: int = HASH_DIM

    #: dense feature names, fixed order (tests assert this contract).
    DENSE_FEATURES = (
        "claim_len",
        "table_overlap",
        "text_overlap",
        "n_numbers",
        "numbers_in_table",
        "numbers_in_text",
        "row_match",
        "lookup_consistent",
        "lookup_inconsistent",
        "sup_max_consistent",
        "sup_max_inconsistent",
        "sup_min_consistent",
        "sup_min_inconsistent",
        "agg_sum_match",
        "agg_sum_mismatch",
        "agg_avg_match",
        "agg_avg_mismatch",
        "count_match",
        "count_mismatch",
        "comp_consistent",
        "comp_inconsistent",
        "majority_match",
        "majority_mismatch",
        "unique_match",
        "unique_mismatch",
        "ordinal_match",
        "ordinal_mismatch",
        "negation",
        "unknown_entity",
        "text_reference",
    )

    @property
    def dim(self) -> int:
        return len(self.DENSE_FEATURES) + self.hash_dim

    # -- public API ---------------------------------------------------------------
    def features(self, sample: ReasoningSample) -> np.ndarray:
        return self.featurize(sample.sentence, sample.context)

    def featurize(self, claim: str, context: TableContext) -> np.ndarray:
        view = EvidenceView.of(context)
        dense = self._dense(claim, view)
        hashed = self._hashed(claim, view)
        return np.concatenate([dense, hashed])

    def matrix(self, samples: list[ReasoningSample]) -> np.ndarray:
        if not samples:
            return np.zeros((0, self.dim))
        return np.stack([self.features(sample) for sample in samples])

    def __setstate__(self, state: dict) -> None:
        # Artifacts pickled while this class still kept an id-keyed view
        # cache carry it, training contexts and all; drop it on load.
        state.pop("_cache", None)
        self.__dict__.update(state)

    # -- internals --------------------------------------------------------------
    def _hashed(self, claim: str, view: EvidenceView) -> np.ndarray:
        out = np.zeros(self.hash_dim)
        for token in tokenize(claim):
            bucket = stable_hash(token) % self.hash_dim
            out[bucket] += 1.0
            if token in view.table_vocab:
                out[(bucket * 31 + 7) % self.hash_dim] += 0.5
        norm = np.linalg.norm(out)
        return out / norm if norm > 0 else out

    def _dense(self, claim: str, view: EvidenceView) -> np.ndarray:
        tokens = tokenize(claim)
        token_set = set(tokens)
        numbers = extract_numbers(claim)
        features = dict.fromkeys(self.DENSE_FEATURES, 0.0)

        features["claim_len"] = min(len(tokens) / 20.0, 1.5)
        if tokens:
            features["table_overlap"] = sum(
                1 for token in tokens if token in view.table_vocab
            ) / len(tokens)
            features["text_overlap"] = sum(
                1 for token in tokens if token in view.text_vocab
            ) / len(tokens)
        features["n_numbers"] = min(len(numbers) / 4.0, 1.5)
        features["negation"] = min(
            sum(1 for token in tokens if token in NEG_WORDS) / 2.0, 1.5
        )
        features["text_reference"] = float(bool(token_set & TEXT_REF_WORDS))

        claim_lower = " ".join(tokens)
        matched_rows = [
            index
            for index, name in enumerate(view.row_names())
            if name and name in claim_lower
        ]
        matched_columns = [
            column
            for column in view.columns
            if column.lower() in claim_lower and column != view.name_column
        ]
        features["row_match"] = float(bool(matched_rows))

        all_cell_numbers = {
            number
            for index in range(len(view.rows))
            for column in view.numeric_columns
            if (number := view.cell_number(index, column)) is not None
        }
        if numbers:
            features["numbers_in_table"] = sum(
                1
                for number in numbers
                if any(_close(number, cell) for cell in all_cell_numbers)
            ) / len(numbers)
            text_numbers = set(extract_numbers(" ".join(sorted(view.text_vocab))))
            features["numbers_in_text"] = sum(
                1 for number in numbers if any(_close(number, t) for t in text_numbers)
            ) / len(numbers)

        self._lookup_signals(features, numbers, matched_rows, matched_columns, view)
        self._superlative_signals(features, token_set, matched_rows,
                                  matched_columns, view, numbers)
        self._aggregate_signals(features, token_set, numbers, matched_columns, view)
        self._count_signals(features, token_set, tokens, numbers, view)
        self._comparative_signals(features, token_set, claim_lower, matched_rows,
                                  matched_columns, view)
        self._majority_signals(features, token_set, tokens, numbers, view)
        self._unique_signals(features, token_set, tokens, view)
        self._ordinal_signals(features, token_set, numbers, matched_rows,
                              matched_columns, view)
        self._unknown_signal(features, tokens, view)

        return np.array([features[name] for name in self.DENSE_FEATURES])

    # -- individual signal extractors -------------------------------------------
    def _lookup_signals(self, features, numbers, matched_rows, matched_columns, view):
        if not matched_rows:
            return
        columns = matched_columns or list(view.numeric_columns)
        found_match = False
        found_mismatch = False
        for row_index in matched_rows:
            for column in columns:
                cell = view.cell_number(row_index, column)
                if cell is None:
                    continue
                if any(_close(number, cell) for number in numbers):
                    found_match = True
                elif numbers and matched_columns:
                    found_mismatch = True
        features["lookup_consistent"] = float(found_match)
        features["lookup_inconsistent"] = float(found_mismatch and not found_match)

    def _superlative_signals(self, features, token_set, matched_rows,
                             matched_columns, view, numbers=()):
        for words, prefix, pick_max in (
            (SUP_MAX_WORDS, "sup_max", True),
            (SUP_MIN_WORDS, "sup_min", False),
        ):
            if not (token_set & words):
                continue
            if not matched_rows and not numbers:
                continue
            columns = matched_columns or list(view.numeric_columns)
            consistent = False
            considered = False
            for column in columns:
                if column not in view.numeric_columns:
                    continue
                values = [
                    (index, view.cell_number(index, column))
                    for index in range(len(view.rows))
                ]
                values = [(i, v) for i, v in values if v is not None]
                if not values:
                    continue
                considered = True
                chooser = max if pick_max else min
                best_index, best_value = chooser(values, key=lambda pair: pair[1])
                if best_index in matched_rows:
                    consistent = True
                # value-based check: the claimed extreme value itself, or
                # any cell of the extreme row, matches a claim number.
                if any(_close(number, best_value) for number in numbers):
                    consistent = True
                for other in view.columns:
                    cell = view.cell_number(best_index, other)
                    if cell is not None and any(
                        _close(number, cell) for number in numbers
                    ):
                        consistent = True
            if considered:
                features[f"{prefix}_consistent"] = float(consistent)
                features[f"{prefix}_inconsistent"] = float(not consistent)

    def _aggregate_signals(self, features, token_set, numbers, matched_columns, view):
        if not numbers:
            return
        for words, prefix, reducer in (
            (AGG_SUM_WORDS, "agg_sum", sum),
            (AGG_AVG_WORDS, "agg_avg", lambda xs: sum(xs) / len(xs)),
        ):
            if not (token_set & words):
                continue
            columns = matched_columns or list(view.numeric_columns)
            matched = False
            considered = False
            for column in columns:
                # a claimed aggregate may be over the table alone or over
                # table + text facts; accept either reading.
                for scope in (("table",), None):
                    values = view.numeric_column_values(column, sources=scope)
                    if not values:
                        continue
                    considered = True
                    stat = reducer(values)
                    if any(_close(number, stat, rel=0.06) for number in numbers):
                        matched = True
            if considered:
                features[f"{prefix}_match"] = float(matched)
                features[f"{prefix}_mismatch"] = float(not matched)

    def _count_signals(self, features, token_set, tokens, numbers, view):
        if not (token_set & COUNT_WORDS) and "how" not in token_set:
            return
        candidate_counts = {
            number for number in numbers if number.is_integer() and 0 <= number <= len(view.rows) + 2
        }
        if not candidate_counts:
            return
        matched = False
        claim_text = " ".join(tokens)
        for column in view.columns:
            tally: dict[str, int] = {}
            for row in view.rows:
                value = row.get(column)
                if value is None or value.is_null:
                    continue
                key = value.raw.lower()
                tally[key] = tally.get(key, 0) + 1
            for key, count in tally.items():
                if key in claim_text and count in candidate_counts:
                    matched = True
        # Counts of threshold filters (above/below a number).
        for column in view.numeric_columns:
            values = view.numeric_column_values(column)
            for number in numbers:
                above = sum(1 for value in values if value > number)
                below = sum(1 for value in values if value < number)
                if above in candidate_counts or below in candidate_counts:
                    matched = True
        features["count_match"] = float(matched)
        features["count_mismatch"] = float(not matched)

    def _comparative_signals(self, features, token_set, claim_lower,
                             matched_rows, matched_columns, view):
        more = bool(token_set & COMP_MORE_WORDS)
        less = bool(token_set & COMP_LESS_WORDS)
        if not (more or less) or len(matched_rows) < 2:
            return
        names = view.row_names()
        ordered = sorted(
            matched_rows, key=lambda index: claim_lower.find(names[index])
        )
        first, second = ordered[0], ordered[1]
        columns = matched_columns or list(view.numeric_columns)
        consistent = False
        considered = False
        for column in columns:
            a = view.cell_number(first, column)
            b = view.cell_number(second, column)
            if a is None or b is None:
                continue
            considered = True
            if (more and a > b) or (less and a < b):
                consistent = True
        if considered:
            features["comp_consistent"] = float(consistent)
            features["comp_inconsistent"] = float(not consistent)

    def _majority_signals(self, features, token_set, tokens, numbers, view):
        is_all = bool(token_set & MAJ_ALL_WORDS)
        is_most = bool(token_set & MAJ_MOST_WORDS)
        if not (is_all or is_most):
            return
        claim_text = " ".join(tokens)
        matched = False
        considered = False
        threshold = 0.999 if is_all else 0.5
        for column in view.columns:
            cells = [row.get(column) for row in view.rows]
            cells = [cell for cell in cells if cell is not None and not cell.is_null]
            if not cells:
                continue
            # equality majority on surface values present in the claim
            for target in {cell.raw.lower() for cell in cells}:
                if target not in claim_text:
                    continue
                considered = True
                share = sum(
                    1 for cell in cells if cell.raw.lower() == target
                ) / len(cells)
                if share > threshold or (is_all and share == 1.0):
                    matched = True
        for column in view.numeric_columns:
            values = view.numeric_column_values(column)
            if not values:
                continue
            for number in numbers:
                considered = True
                above = sum(1 for value in values if value > number) / len(values)
                below = sum(1 for value in values if value < number) / len(values)
                equal = sum(
                    1 for value in values if _close(value, number)
                ) / len(values)
                if max(above, below, equal) > threshold:
                    matched = True
        if considered:
            features["majority_match"] = float(matched)
            features["majority_mismatch"] = float(not matched)

    def _unique_signals(self, features, token_set, tokens, view):
        if not (token_set & UNIQUE_WORDS):
            return
        claim_text = " ".join(tokens)
        matched = False
        considered = False
        for column in view.columns:
            tally: dict[str, int] = {}
            for row in view.rows:
                value = row.get(column)
                if value is None or value.is_null:
                    continue
                key = value.raw.lower()
                tally[key] = tally.get(key, 0) + 1
            for key, count in tally.items():
                if key and key in claim_text:
                    considered = True
                    if count == 1:
                        matched = True
        if considered:
            features["unique_match"] = float(matched)
            features["unique_mismatch"] = float(not matched)

    def _ordinal_signals(self, features, token_set, numbers, matched_rows,
                         matched_columns, view):
        if not (token_set & ORDINAL_WORDS):
            return
        ranks = {int(n) for n in numbers if n.is_integer() and 1 <= n <= 5}
        ranks |= {_ORDINAL_MAP[t] for t in token_set if t in _ORDINAL_MAP}
        if not ranks:
            return
        columns = matched_columns or list(view.numeric_columns)
        matched = False
        considered = False
        for column in columns:
            if column not in view.numeric_columns:
                continue
            pairs = [
                (index, view.cell_number(index, column))
                for index in range(len(view.rows))
            ]
            pairs = [(i, v) for i, v in pairs if v is not None]
            if not pairs:
                continue
            considered = True
            for descending in (True, False):
                ordered = sorted(pairs, key=lambda p: p[1], reverse=descending)
                for rank in ranks:
                    if rank <= len(ordered):
                        row_index, value = ordered[rank - 1]
                        if row_index in matched_rows:
                            matched = True
                        if any(_close(n, value) for n in numbers):
                            matched = True
        if considered:
            features["ordinal_match"] = float(matched)
            features["ordinal_mismatch"] = float(not matched)

    def _unknown_signal(self, features, tokens, view):
        """Content words absent from the whole evidence — NEI signal."""
        content = [
            token for token in tokens
            if len(token) > 3 and not token.isdigit()
        ]
        if not content:
            return
        missing = sum(
            1
            for token in content
            if token not in view.table_vocab and token not in view.text_vocab
        )
        features["unknown_entity"] = missing / len(content)


def _close(a: float, b: float, rel: float = 0.02) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.51)
