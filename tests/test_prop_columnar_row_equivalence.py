"""Property tests: the columnar SQL engine against its oracles.

Query results are cross-checked against stdlib ``sqlite3`` (the paper's
executor; the oracle's table space and loader live in
``test_prop_sql_oracle``) over every operator, aggregate, DISTINCT,
ORDER BY / LIMIT, ``*`` projection, and arithmetic item the grammar
supports.

The table-level columnar reroutes (``sort_by``, ``distinct_values``,
``column_values``, ``row_names``) are pinned to their naive
row-at-a-time definitions over adversarial tables: mixed numeric
surface forms (currency, thousands separators, percent), both date
syntaxes, booleans, null conventions, and whitespace-y text.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ColumnNotFoundError
from repro.programs.sql import parse_sql
from repro.tables.table import Table

from .test_prop_sql_oracle import sqlite_denotation
from .test_prop_sql_oracle import tables as oracle_tables

_COLUMNS = ["name", "amount", "day", "flag"]

_names = st.sampled_from(
    ["alpha", "beta", "Gamma", " beta ", "delta airlines", "n/a", "-"]
)
_amounts = st.sampled_from(
    ["1,000", "1000", "$1,000", "500", "0.5", "12%", "-17", "+8",
     "€75", "n/a", "zz-top"]
)
_days = st.sampled_from(
    [
        "2020-01-05",
        "January 5, 2020",
        "2021-03-01",
        "March 1, 2021",
        "2020-02-29",
        "",
    ]
)
_flags = st.sampled_from(["true", "yes", "no", "false", "n/a"])


@st.composite
def tables(draw) -> Table:
    n_rows = draw(st.integers(min_value=0, max_value=9))
    rows = [
        [draw(_names), draw(_amounts), draw(_days), draw(_flags)]
        for _ in range(n_rows)
    ]
    return Table.from_rows(_COLUMNS, rows)


@st.composite
def oracle_queries(draw) -> str:
    """The grammar beyond plain lookups, over the oracle's table space."""
    kind = draw(st.sampled_from(
        [
            "neq", "ineq", "conj", "order", "star",
            "count_col", "count_distinct", "agg", "arith",
        ]
    ))
    op = draw(st.sampled_from(["<", ">", "<=", ">="]))
    grade = draw(st.sampled_from(["a", "b", "c"]))
    threshold = draw(st.integers(min_value=-50, max_value=50))
    column = draw(st.sampled_from(["name", "grade", "score"]))
    if kind == "neq":
        return f"select name from w where grade != '{grade}'"
    if kind == "ineq":
        return f"select name from w where score {op} {threshold}"
    if kind == "conj":
        return (
            f"select name from w where score {op} {threshold} "
            f"and grade = '{grade}'"
        )
    if kind == "order":
        # sorted values, not names: ties make the chosen names ambiguous
        direction = draw(st.sampled_from(["asc", "desc"]))
        limit = draw(st.integers(min_value=1, max_value=4))
        return (
            f"select score from w order by score {direction} limit {limit}"
        )
    if kind == "star":
        return f"select * from w where score {op} {threshold}"
    if kind == "count_col":
        return f"select count ( {column} ) from w"
    if kind == "count_distinct":
        return f"select count ( distinct {column} ) from w"
    if kind == "agg":
        agg = draw(st.sampled_from(["sum", "avg", "min", "max"]))
        return f"select {agg} ( score ) from w where score {op} {threshold}"
    return "select max ( score ) - min ( score ) from w"


@settings(max_examples=300, deadline=None)
@given(table=oracle_tables(), sql=oracle_queries())
def test_columnar_matches_sqlite(table: Table, sql: str):
    ours = parse_sql(sql).execute(table).denotation()
    assert ours == sqlite_denotation(table, sql), sql


@settings(max_examples=120, deadline=None)
@given(table=tables(), column=st.sampled_from(_COLUMNS),
       descending=st.booleans())
def test_sort_by_matches_naive(table: Table, column: str, descending: bool):
    fast = table.sort_by(column, descending=descending)
    index = table.schema.index(column)
    naive = sorted(
        table.rows, key=lambda row: row[index]._key(), reverse=descending
    )
    assert fast.rows == tuple(naive)
    assert fast.schema == table.schema


@settings(max_examples=120, deadline=None)
@given(table=tables(), column=st.sampled_from(_COLUMNS))
def test_distinct_and_column_values_match_naive(table: Table, column: str):
    index = table.schema.index(column)
    naive_values = [row[index] for row in table.rows]
    assert table.column_values(column) == naive_values

    seen: set[tuple] = set()
    naive_distinct = []
    for value in naive_values:
        if value.is_null:
            continue
        key = value.canonical_key()
        if key not in seen:
            seen.add(key)
            naive_distinct.append(value)
    assert table.distinct_values(column) == naive_distinct


@settings(max_examples=80, deadline=None)
@given(table=tables())
def test_row_names_match_per_row_accessor(table: Table):
    assert table.row_names() == [
        table.row_name(index) for index in range(table.n_rows)
    ]


def test_view_is_cached_and_not_inherited_by_derived_tables():
    table = Table.from_rows(
        ["a", "b"], [["1", "x"], ["2", "y"], ["3", "x"]]
    )
    view = table.columnar()
    assert table.columnar() is view  # memoized per instance
    trimmed = table.head(2)
    assert trimmed.columnar() is not view  # derived table = fresh cache
    assert len(trimmed.columnar().vector("a").cells) == 2


@pytest.mark.parametrize("sql", [
    "select missing from w",
    "select count ( missing ) from w",
    "select name from w where missing = 'x'",
    "select name from w order by missing asc",
])
def test_unknown_columns_raise_identically(sql: str):
    table = Table.from_rows(["name", "grade", "score"], [["alpha", "a", "1"]])
    with pytest.raises(ColumnNotFoundError):
        parse_sql(sql).execute(table)
    with pytest.raises(sqlite3.OperationalError, match="no such column"):
        sqlite_denotation(table, sql)
