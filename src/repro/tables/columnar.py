"""The columnar execution substrate behind the SQL/logic hot path.

``Table`` stores rows of boxed :class:`~repro.tables.values.Value`
objects — the right shape for serialization and for the NL boundary,
but the wrong shape for program execution, where WHERE / ORDER BY /
DISTINCT / aggregate loops visit one *column* at a time and pay a
method dispatch plus several attribute loads per cell.  This module is
the column-major view of a table: each :class:`ColumnVector` exposes
the column as flat primitive arrays —

* a **validity mask** (``True`` where the cell is non-null),
* **sort keys** (``Value._key()`` tuples, so ``sorted`` runs on plain
  list indexing instead of per-element method calls),
* **canonical keys** (``Value.canonical_key()`` tuples, the
  distinct-count equivalence),
* **numeric payloads** in both flavors the executor needs
  (``Value.as_number()`` semantics for inequalities and aggregates,
  ``coerce_number(raw)`` semantics for ``equals``),
* **interned, case-folded strings** for textual comparison, and
* pre-built ``(row_index, column_name)`` **highlight pairs**, so
  evidence tracking is a ``set.update`` over existing tuples instead of
  one tuple allocation per touched cell.

Boxed ``Value`` objects are *not* abandoned: ``ColumnVector.cells``
keeps the original instances, and every result the executor emits
materializes from there — the serialize / NL boundary never sees
anything but ``Value``.

Determinism and caching contract
--------------------------------
The view is a **pure function of an immutable table**.  ``Table`` is a
frozen dataclass and every relational operation returns a *new* table,
so a view cached on an instance (``columnar_view``) can never go stale;
all arrays are derived from the frozen ``(raw, type, typed)`` fields of
the cells and are built lazily, at most once per (table, column,
array).  Nothing here consumes randomness, so execution is
deterministic — required by the serial ≡ parallel guarantee (see
docs/PERFORMANCE.md); ``tests/test_prop_columnar_row_equivalence.py``
pins the reroutes to their row-at-a-time definitions.

Array construction is timed under the ``columnar`` profiling stage
(``sampler/executor/columnar`` in a profiled generation run), which is
how the amortized cost of building a view stays visible.
"""

from __future__ import annotations

from sys import intern
from typing import TYPE_CHECKING

from repro import profiling
from repro.tables.values import Value, ValueType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tables.table import Table

#: attribute name under which the view is memoized on the frozen Table.
_VIEW_SLOT = "_columnar_memo"


class ColumnVector:
    """One table column as lazily built primitive arrays.

    All arrays are aligned with the table's row order: index ``i`` of
    every array describes the cell at row ``i``.  Each array is built
    at most once, on first demand — a query that never sorts a column
    never pays for its sort keys.
    """

    __slots__ = (
        "name",
        "cells",
        "memo",
        "_validity",
        "_sort_keys",
        "_sort_asc",
        "_sort_desc",
        "_canonical_keys",
        "_eq_arrays",
        "_numbers",
        "_lowered",
        "_highlight_pairs",
        "_non_null_count",
        "_distinct_count",
    )

    def __init__(self, name: str, cells: tuple[Value, ...]):
        self.name = name
        #: the boxed values, column-major — the materialization boundary.
        self.cells = cells
        #: executor-owned memo (e.g. WHERE survivor masks keyed by the
        #: condition's operator and literal identity).  Entries must be
        #: pure functions of the immutable column plus the key — that is
        #: what keeps cached and cache-free execution byte-identical.
        self.memo: dict = {}
        self._validity: list[bool] | None = None
        self._sort_keys: list[tuple] | None = None
        self._sort_asc: list[int] | None = None
        self._sort_desc: list[int] | None = None
        self._canonical_keys: list[tuple] | None = None
        self._eq_arrays: tuple[list, list, list, list] | None = None
        self._numbers: list[float | None] | None = None
        self._lowered: list[str] | None = None
        self._highlight_pairs: list[tuple[int, str]] | None = None
        self._non_null_count: int | None = None
        self._distinct_count: int | None = None

    def __len__(self) -> int:
        return len(self.cells)

    # -- lazy arrays -----------------------------------------------------
    def validity(self) -> list[bool]:
        """``True`` where the cell is non-null (the validity mask)."""
        built = self._validity
        if built is None:
            with profiling.stage("columnar"):
                built = [not cell.is_null for cell in self.cells]
            self._validity = built
        return built

    def sort_keys(self) -> list[tuple]:
        """Per-cell ``Value._key()`` tuples (ORDER BY / ``sort_by``)."""
        built = self._sort_keys
        if built is None:
            with profiling.stage("columnar"):
                built = [cell._key() for cell in self.cells]
            self._sort_keys = built
        return built

    def sort_order(self, descending: bool = False) -> list[int]:
        """All row indices, stably ordered by the column's sort keys.

        Cached per direction: repeated ORDER BY queries over the same
        table reuse the permutation instead of re-sorting.  Because the
        sort is stable (ties keep ascending row order, for either
        direction), the sorted form of *any* surviving-row subset is
        exactly this permutation filtered to the subset — which is how
        the executor orders WHERE survivors without sorting at all.
        Callers must treat the returned list as read-only.
        """
        built = self._sort_desc if descending else self._sort_asc
        if built is None:
            keys = self.sort_keys()
            with profiling.stage("columnar"):
                built = sorted(
                    range(len(self.cells)),
                    key=keys.__getitem__,
                    reverse=descending,
                )
            if descending:
                self._sort_desc = built
            else:
                self._sort_asc = built
        return built

    def canonical_keys(self) -> list[tuple]:
        """Per-cell ``Value.canonical_key()`` tuples (DISTINCT)."""
        built = self._canonical_keys
        if built is None:
            with profiling.stage("columnar"):
                built = [cell.canonical_key() for cell in self.cells]
            self._canonical_keys = built
        return built

    def equality_arrays(self) -> tuple[list, list, list, list]:
        """``(types, typeds, coerced_numbers, stripped_lowered)``.

        Exactly the quantities :meth:`Value.equals` consults, split into
        flat arrays so a WHERE ``=`` / ``!=`` loop can hoist the literal
        branches and compare primitives: the cell's :class:`ValueType`,
        its typed payload (date tuples, booleans), ``coerce_number`` of
        the raw string (``None`` when the surface form is not numeric),
        and the interned ``raw.strip().lower()`` fallback text.
        """
        built = self._eq_arrays
        if built is None:
            with profiling.stage("columnar"):
                types = []
                typeds = []
                coerced = []
                stripped = []
                for cell in self.cells:
                    types.append(cell.type)
                    typeds.append(cell.typed)
                    coerced.append(cell._coerced())
                    stripped.append(intern(cell.raw.strip().lower()))
                built = (types, typeds, coerced, stripped)
            self._eq_arrays = built
        return built

    def numbers(self) -> list[float | None]:
        """Per-cell ``Value.as_number()``, or ``None`` where it raises.

        The numeric payload inequality comparisons and SUM / AVG / MIN /
        MAX aggregate over: the typed float for numbers,
        ``y*10000 + m*100 + d`` for dates, 0/1 for booleans, and the
        coerced surface form for text.
        """
        built = self._numbers
        if built is None:
            with profiling.stage("columnar"):
                built = []
                for cell in self.cells:
                    kind = cell.type
                    if kind is ValueType.NUMBER:
                        built.append(float(cell.typed))
                    elif kind is ValueType.DATE:
                        year, month, day = cell.typed
                        built.append(
                            float(year * 10000 + month * 100 + day)
                        )
                    elif kind is ValueType.BOOL:
                        built.append(1.0 if cell.typed else 0.0)
                    else:
                        built.append(cell._coerced())
            self._numbers = built
        return built

    def lowered(self) -> list[str]:
        """Interned ``raw.lower()`` per cell (textual ``<``/``>`` etc.)."""
        built = self._lowered
        if built is None:
            with profiling.stage("columnar"):
                built = [intern(cell.raw.lower()) for cell in self.cells]
            self._lowered = built
        return built

    def highlight_pairs(self) -> list[tuple[int, str]]:
        """Pre-built ``(row_index, column_name)`` evidence tuples."""
        built = self._highlight_pairs
        if built is None:
            with profiling.stage("columnar"):
                name = self.name
                built = [(index, name) for index in range(len(self.cells))]
            self._highlight_pairs = built
        return built

    def non_null_count(self) -> int:
        """Number of non-null cells (full-column ``COUNT(col)``)."""
        built = self._non_null_count
        if built is None:
            built = sum(1 for flag in self.validity() if flag)
            self._non_null_count = built
        return built

    def distinct_count(self) -> int:
        """Distinct non-null canonical keys (full ``COUNT(DISTINCT)``)."""
        built = self._distinct_count
        if built is None:
            validity = self.validity()
            keys = self.canonical_keys()
            built = len(
                {keys[i] for i in range(len(keys)) if validity[i]}
            )
            self._distinct_count = built
        return built


class ColumnarTable:
    """The column-major view of one immutable :class:`Table`.

    Vectors are created on demand and keyed by schema position, so a
    query touching two of twelve columns builds exactly two.
    """

    __slots__ = ("table", "n_rows", "_vectors", "_by_name")

    def __init__(self, table: "Table"):
        self.table = table
        self.n_rows: int = table.n_rows
        self._vectors: dict[int, ColumnVector] = {}
        #: query-supplied spelling → vector, filled on first resolution
        #: so repeated lookups skip the schema's case-fold entirely.
        self._by_name: dict[str, ColumnVector] = {}

    def vector(self, column: str) -> ColumnVector:
        """The :class:`ColumnVector` for the named column (cached).

        Raises :class:`~repro.errors.ColumnNotFoundError` exactly like
        ``Schema.index``.  Lookups are cached under the
        exact spelling the caller used (lookups are case-insensitive,
        so several spellings may map to one vector).
        """
        vector = self._by_name.get(column)
        if vector is not None:
            return vector
        index = self.table.schema.index(column)
        vector = self._vectors.get(index)
        if vector is None:
            with profiling.stage("columnar"):
                name = self.table.schema.columns[index].name
                cells = tuple(
                    row.cells[index] for row in self.table.rows
                )
                vector = ColumnVector(name, cells)
            self._vectors[index] = vector
        self._by_name[column] = vector
        return vector

    def vectors(self) -> list[ColumnVector]:
        """All column vectors, in schema order."""
        return [
            self.vector(column.name) for column in self.table.schema.columns
        ]


def columnar_view(table: "Table") -> ColumnarTable:
    """The cached :class:`ColumnarTable` view of ``table``.

    Memoized on the frozen instance (like ``Schema``'s name→index map):
    the view is a pure function of the immutable table, so it can never
    go stale, and ``dataclasses.replace``-derived tables start with a
    fresh, empty cache.  Concurrent first access from two threads can
    at worst build the view twice; both results are equivalent and the
    attribute write is atomic.
    """
    view = table.__dict__.get(_VIEW_SLOT)
    if view is None:
        view = ColumnarTable(table)
        object.__setattr__(table, _VIEW_SLOT, view)
    return view
