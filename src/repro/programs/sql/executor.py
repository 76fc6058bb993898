"""Evaluator for parsed SELECT queries, with highlighted-cell tracking.

A columnar engine over the lazily built primitive arrays of
:mod:`repro.tables.columnar`: WHERE conditions run as tight loops over
validity masks and pre-coerced numeric / interned string arrays with
every literal branch hoisted out of the loop, ORDER BY sorts row indices
on a precomputed key array, and DISTINCT counts canonical-key tuples.
``Value`` objects are touched only to materialize the result.  Results
are property-tested against stdlib ``sqlite3``
(``tests/test_prop_sql_oracle.py``,
``tests/test_prop_columnar_row_equivalence.py``).

WHERE conditions short-circuit: each successive condition scans only
the rows that survived the previous one, and the per-condition survivor
sets (not the scanned sets) are what lands in ``highlighted_cells``.
"""

from __future__ import annotations

import math
import operator

from repro.errors import ProgramExecutionError, ProgramTypeError
from repro.programs.base import ExecutionResult
from repro.programs.sql.ast import (
    Aggregate,
    ArithmeticItem,
    ColumnItem,
    CompOp,
    Condition,
    SelectQuery,
)
from repro.tables.columnar import ColumnarTable, ColumnVector, columnar_view
from repro.tables.table import Table
from repro.tables.values import Value, ValueType, format_number

_ORDER_OPS = {
    CompOp.LT: operator.lt,
    CompOp.GT: operator.gt,
    CompOp.LE: operator.le,
    CompOp.GE: operator.ge,
}


def execute_sql(table: Table, query: SelectQuery) -> ExecutionResult:
    """Execute ``query`` against ``table``.

    Returns the denotation plus the set of highlighted cells — every cell
    read while filtering, ordering, or projecting, which the
    Table-To-Text operator and the FEVEROUS score both consume.
    """
    highlighted: set[tuple[int, str]] = set()
    view = columnar_view(table)

    row_indices = _filter_columnar(view, query.conditions, highlighted)

    if query.order is not None:
        vector = view.vector(query.order.column)
        order = vector.sort_order(query.order.descending)
        if len(row_indices) == len(order):
            # no rows filtered out: the cached permutation IS the answer
            row_indices = order
        else:
            # the stable full-column permutation filtered to the
            # survivors equals a stable sort of the survivors
            members = set(row_indices)
            row_indices = [index for index in order if index in members]
        pairs = vector.highlight_pairs()
        if len(row_indices) == len(pairs):
            highlighted.update(pairs)
        else:
            highlighted.update([pairs[index] for index in row_indices])

    if query.limit is not None:
        row_indices = row_indices[: query.limit]

    values: list[Value] = []
    for item in query.items:
        values.extend(
            _evaluate_item_columnar(view, item, row_indices, highlighted)
        )

    return ExecutionResult(
        values=tuple(values), highlighted_cells=frozenset(highlighted)
    )


def _filter_columnar(
    view: ColumnarTable,
    conditions: tuple[Condition, ...],
    highlighted: set[tuple[int, str]],
) -> "range | list[int]":
    """Row indices satisfying every condition, recording touched cells.

    Conditions short-circuit: condition ``k+1`` scans only the rows that
    survived condition ``k``, and only survivors are highlighted.
    Returns the (never-mutated) ``range`` of all rows when there are no
    conditions, so the common unfiltered query allocates nothing here.
    """
    kept: "range | list[int]" = range(view.n_rows)
    for condition in conditions:
        vector = view.vector(condition.column)
        kept = _condition_survivors(vector, condition, kept)
        pairs = vector.highlight_pairs()
        if len(kept) == len(pairs):
            highlighted.update(pairs)
        else:
            highlighted.update([pairs[index] for index in kept])
    return kept


#: entries kept per column before a survivor-mask memo is reset; bounds
#: memory on long-lived tables (serving) without changing any result.
_CONDITION_MEMO_LIMIT = 256


def _condition_survivors(
    vector: ColumnVector, condition: Condition, kept: "range | list[int]"
) -> list[int]:
    """Survivors of one WHERE condition among the ``kept`` row indices.

    The full-table survivor set for a ``(operator, literal)`` pair is a
    pure function of the immutable column, so it is computed once per
    vector and memoized: repeated conditions cost one boolean-mask
    filter instead of re-running the comparison semantics per row.  The
    memo key is the literal's complete identity — ``(type, typed,
    raw)`` determines every quantity ``equals`` / ``as_number``
    consults — so distinct literals can never alias.
    """
    literal = condition.literal
    key = (condition.op, literal.type, literal.typed, literal.raw)
    cached = vector.memo.get(key)
    if cached is None:
        if condition.op is CompOp.EQ or condition.op is CompOp.NEQ:
            mask = _equality_mask(vector, condition)
        else:
            mask = _order_mask(vector, condition)
        full = [index for index, flag in enumerate(mask) if flag]
        if len(vector.memo) >= _CONDITION_MEMO_LIMIT:
            vector.memo.clear()
        cached = (mask, full)
        vector.memo[key] = cached
    mask, full = cached
    if len(kept) == len(vector.cells):
        # kept row indices are always ascending, so a full-length subset
        # is the whole table: reuse the cached list (read-only).
        return full
    return [index for index in kept if mask[index]]


def _equality_mask(vector: ColumnVector, condition: Condition) -> list[bool]:
    """Full-column ``=`` / ``!=`` survivor mask (``Value.equals`` rules)."""
    literal = condition.literal
    negate = condition.op is CompOp.NEQ
    validity = vector.validity()
    if literal.is_null:
        # equals() against a null literal is true exactly for null cells;
        # NEQ additionally requires the cell itself to be non-null.
        if negate:
            return list(validity)
        return [not valid for valid in validity]
    types, typeds, coerced, stripped = vector.equality_arrays()
    literal_type = literal.type
    literal_typed = literal.typed
    literal_number = literal._coerced()
    literal_text = literal.raw.strip().lower()
    mask = [False] * len(validity)
    for index, valid in enumerate(validity):
        if not valid:
            continue  # null cell: EQ false, NEQ false (needs non-null)
        cell_type = types[index]
        if cell_type is ValueType.DATE and literal_type is ValueType.DATE:
            matched = typeds[index] == literal_typed
        elif cell_type is ValueType.BOOL and literal_type is ValueType.BOOL:
            matched = typeds[index] == literal_typed
        else:
            number = coerced[index]
            if number is not None and literal_number is not None:
                matched = math.isclose(
                    number, literal_number, rel_tol=1e-9, abs_tol=1e-9
                )
            else:
                matched = stripped[index] == literal_text
        if matched != negate:
            mask[index] = True
    return mask


def _order_mask(vector: ColumnVector, condition: Condition) -> list[bool]:
    """Full-column ``<`` / ``>`` / ``<=`` / ``>=`` survivor mask.

    Numeric comparison when *both* sides have ``as_number`` semantics,
    case-folded string comparison otherwise, decided per cell with the
    literal hoisted.
    """
    literal = condition.literal
    compare = _ORDER_OPS[condition.op]
    validity = vector.validity()
    numbers = vector.numbers()
    try:
        literal_number = literal.as_number()
    except Exception:
        literal_number = None
    literal_text = literal.raw.lower()
    lowered: list[str] | None = None
    mask = [False] * len(validity)
    for index, valid in enumerate(validity):
        if not valid:
            continue
        number = numbers[index]
        if literal_number is not None and number is not None:
            if compare(number, literal_number):
                mask[index] = True
        else:
            if lowered is None:
                lowered = vector.lowered()
            if compare(lowered[index], literal_text):
                mask[index] = True
    return mask


def _evaluate_item_columnar(
    view: ColumnarTable,
    item: ColumnItem | ArithmeticItem,
    row_indices: list[int],
    highlighted: set[tuple[int, str]],
) -> list[Value]:
    if isinstance(item, ArithmeticItem):
        left = _scalar_columnar(view, item.left, row_indices, highlighted)
        right = _scalar_columnar(view, item.right, row_indices, highlighted)
        number = (
            left.as_number() + right.as_number()
            if item.op == "+"
            else left.as_number() - right.as_number()
        )
        return [Value.number(number)]
    return _column_item_values_columnar(view, item, row_indices, highlighted)


def _column_item_values_columnar(
    view: ColumnarTable,
    item: ColumnItem,
    row_indices: list[int],
    highlighted: set[tuple[int, str]],
) -> list[Value]:
    if item.aggregate is Aggregate.COUNT:
        if item.column == "*":
            return [Value.number(len(row_indices))]
        vector = view.vector(item.column)
        pairs = vector.highlight_pairs()
        whole_column = len(row_indices) == len(pairs)
        if whole_column:
            highlighted.update(pairs)
        else:
            highlighted.update([pairs[index] for index in row_indices])
        if item.distinct:
            # canonical_key matches Value.equals semantics, so "1,000",
            # "1000", and "$1,000" collapse to one distinct value.
            if whole_column:
                return [Value.number(vector.distinct_count())]
            validity = vector.validity()
            keys = vector.canonical_keys()
            return [
                Value.number(
                    len({keys[i] for i in row_indices if validity[i]})
                )
            ]
        if whole_column:
            return [Value.number(vector.non_null_count())]
        validity = vector.validity()
        return [
            Value.number(sum(1 for i in row_indices if validity[i]))
        ]

    if item.column == "*":
        vectors = view.vectors()
        out: list[Value] = []
        for row_index in row_indices:
            for vector in vectors:
                highlighted.add((row_index, vector.name))
                out.append(vector.cells[row_index])
        return out

    vector = view.vector(item.column)
    pairs = vector.highlight_pairs()
    if len(row_indices) == len(pairs):
        highlighted.update(pairs)
    else:
        highlighted.update([pairs[index] for index in row_indices])
    validity = vector.validity()
    cells = vector.cells
    if item.aggregate is None:
        return [cells[i] for i in row_indices if validity[i]]

    numbers = vector.numbers()
    operands: list[float] = []
    for index in row_indices:
        if not validity[index]:
            continue
        number = numbers[index]
        if number is None:
            raise ProgramTypeError(
                f"column {item.column!r} holds non-numeric value "
                f"{cells[index].raw!r}"
            )
        operands.append(number)
    if not operands:
        return []
    if item.aggregate is Aggregate.SUM:
        return [Value.number(sum(operands))]
    if item.aggregate is Aggregate.AVG:
        return [Value.number(sum(operands) / len(operands))]
    if item.aggregate is Aggregate.MIN:
        return [Value.number(min(operands))]
    if item.aggregate is Aggregate.MAX:
        return [Value.number(max(operands))]
    raise ProgramExecutionError(f"unsupported aggregate: {item.aggregate}")


def _scalar_columnar(
    view: ColumnarTable,
    item: ColumnItem,
    row_indices: list[int],
    highlighted: set[tuple[int, str]],
) -> Value:
    values = _column_item_values_columnar(view, item, row_indices, highlighted)
    if len(values) != 1:
        raise ProgramExecutionError(
            "arithmetic projection requires scalar operands, got "
            f"{len(values)} values for column {item.column!r}"
        )
    return values[0]


def render_value(value: Value) -> str:
    """Render a value the way sqlite3 would (used by oracle tests)."""
    if value.is_number:
        return format_number(value.as_number())
    return value.raw
