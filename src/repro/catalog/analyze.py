"""ANALYZE: the statistics collection program of Section 5.1.

A full cost-free scan of the heap (statistics collection happens before the
experiment clock starts, like the paper running PostgreSQL's collector
before each test).  Distinct counts are exact at this engine's scales; a
real system would sample, but the optimizer consumes only the resulting
numbers, so exactness does not change any downstream behaviour the paper
depends on — the interesting estimation *errors* come from default
selectivities and correlation, not from sampling noise.
"""

from __future__ import annotations

from repro.catalog.catalog import Table
from repro.catalog.statistics import ColumnStatistics, Histogram, TableStatistics


def analyze_table(table: Table, histogram_buckets: int = 20) -> TableStatistics:
    """Scan ``table`` and attach fresh :class:`TableStatistics` to it."""
    heap = table.heap
    schema = heap.schema
    ncols = len(schema)
    values: list[list] = [[] for _ in range(ncols)]
    nulls = [0] * ncols
    row_count = 0
    for row in heap.iter_rows():
        row_count += 1
        for i in range(ncols):
            v = row[i]
            if v is None:
                nulls[i] += 1
            else:
                values[i].append(v)

    columns: dict[str, ColumnStatistics] = {}
    for i, col in enumerate(schema.columns):
        col_values = values[i]
        null_fraction = nulls[i] / row_count if row_count else 0.0
        if col_values:
            distinct = len(set(col_values))
            width_sum = sum(col.type.width(v) for v in col_values)  # noqa: REPRO112 - int widths
            width_sum += nulls[i] * col.type.width(None)
            stats = ColumnStatistics(
                name=col.name,
                num_distinct=distinct,
                null_fraction=null_fraction,
                min_value=min(col_values),
                max_value=max(col_values),
                histogram=Histogram.from_values(col_values, histogram_buckets),
                avg_width=width_sum / row_count,
            )
        else:
            stats = ColumnStatistics(
                name=col.name,
                num_distinct=0,
                null_fraction=null_fraction,
                avg_width=col.type.width(None),
            )
        columns[col.name] = stats

    avg_width = heap.avg_tuple_width()
    table.statistics = TableStatistics(
        row_count=row_count, avg_width=avg_width, columns=columns
    )
    return table.statistics
