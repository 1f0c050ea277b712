"""Schemas: ordered, named, typed columns.

Rows are plain Python tuples positionally aligned with a :class:`Schema`.
The schema computes per-row byte widths, which feed both page layout and
the byte-based unit of work U used by the progress indicator.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import StorageError
from repro.storage.types import DataType, StringType

#: Fixed per-tuple header overhead in bytes (slot pointer + header),
#: loosely modelled on PostgreSQL's ~23-byte tuple header + item pointer.
TUPLE_HEADER_BYTES = 24


class Column:
    """A named, typed column."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type_: DataType):
        self.name = name
        self.type = type_

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.type!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Column)
            and other.name == self.name
            and other.type == self.type
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type))


class Schema:
    """An ordered collection of columns.

    Column names within one schema must be unique.  Joined schemas are
    produced with :meth:`concat`, which qualifies duplicate names away at
    the binder level (the storage layer never sees duplicates).
    """

    def __init__(self, columns: Iterable[Column]):
        self.columns: tuple[Column, ...] = tuple(columns)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column names in schema: {names}")
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        # Precompute fixed widths; None marks varying-width columns.
        self._fixed: list[int | None] = []
        fixed_total = TUPLE_HEADER_BYTES
        for col in self.columns:
            if isinstance(col.type, StringType):
                self._fixed.append(None)
            else:
                w = col.type.width(None)
                self._fixed.append(w)
                fixed_total += w
        self._fixed_total = fixed_total
        self._varying = tuple([i for i, w in enumerate(self._fixed) if w is None])

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def names(self) -> list[str]:
        """Column names in schema order."""
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        """Position of column ``name``; raises StorageError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise StorageError(f"no column named {name!r}") from None

    def has_column(self, name: str) -> bool:
        """Whether a column with this name exists."""
        return name in self._index

    def column(self, name: str) -> Column:
        """The Column object for ``name``; raises StorageError when absent."""
        return self.columns[self.index_of(name)]

    # ------------------------------------------------------------------
    # byte accounting

    def row_width(self, row: Sequence[Any]) -> int:
        """Byte width of ``row`` under this schema (incl. header)."""
        width = self._fixed_total
        for i in self._varying:
            value = row[i]
            width += 1 if value is None else 1 + len(value)
        return width

    def width_parts(self) -> tuple[int, tuple[int, ...]]:
        """``row_width`` as data: fixed bytes, and the slots that add
        ``1 + len(value)`` (NULL: 1) each — for callers inlining the sum."""
        return self._fixed_total, self._varying

    def min_width(self) -> int:
        """Smallest possible row width (all strings empty/null)."""
        return self._fixed_total + len(self._varying)

    # ------------------------------------------------------------------
    # derivation

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation of a row of self with a row of other."""
        return Schema(self.columns + other.columns)

    def project(self, indexes: Sequence[int]) -> "Schema":
        """Schema containing only the columns at ``indexes`` (in order)."""
        return Schema(self.columns[i] for i in indexes)

    def validate_row(self, row: Sequence[Any]) -> None:
        """Raise StorageError unless ``row`` fits this schema."""
        if len(row) != len(self.columns):
            raise StorageError(
                f"row arity {len(row)} does not match schema arity {len(self.columns)}"
            )
        for value, col in zip(row, self.columns):
            if not col.type.validate(value):
                raise StorageError(
                    f"value {value!r} is not valid for column "
                    f"{col.name!r} of type {col.type!r}"
                )

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name} {c.type!r}" for c in self.columns)
        return f"Schema({inner})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and other.columns == self.columns

    def __hash__(self) -> int:
        return hash(self.columns)
