"""External result oracle: stdlib sqlite3 over the same generated rows.

The engines are otherwise verified only against each other, so a shared
planner or binder bug would be invisible.  At set-up (untimed, outside
``setup_s``) the benchmark starts this module as a child process: it
builds the workload's databases from the seed, copies every table into
an in-memory sqlite database, runs each distinct statement once on both
with ``keep_rows=True`` and requires equal row counts and - where the
select list has no float aggregate, whose sum order may differ - equal
row multisets.  The verdicts come back as one JSON object on stdout,
with an order-insensitive row hash for the ops that keep their rows; the
timed rounds then check every execution's row count (and, for those ops,
row hash) against them.

It runs in a child so that neither sqlite's copy of the data nor the
retained rows of a 360k-row join count toward ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import sys
from typing import Iterable, Optional

_SQLITE_TYPES = {"integer": "INTEGER", "float": "REAL", "string": "TEXT"}
_FLOAT_AGGREGATE = re.compile(r"\b(sum|avg)\s*\(", re.IGNORECASE)
_MASK = (1 << 64) - 1


def row_hash(rows: Iterable[tuple]) -> str:
    """Order-insensitive multiset hash of result rows."""
    total = 0
    for row in rows:
        digest = hashlib.blake2b(repr(tuple(row)).encode(), digest_size=8).digest()
        total = (total + int.from_bytes(digest, "big")) & _MASK
    return f"{total:016x}"


def hashable(sql: str) -> bool:
    """Whether the statement's rows can be compared bit-for-bit."""
    return _FLOAT_AGGREGATE.search(sql) is None


def load_sqlite(db) -> sqlite3.Connection:
    """Copy every table of a repro Database into in-memory sqlite."""
    conn = sqlite3.connect(":memory:")
    conn.create_function("absolute", 1, abs, deterministic=True)
    for table in db.catalog.tables():
        columns = table.schema.columns
        decl = ", ".join(
            f"{c.name} {_SQLITE_TYPES[c.type.name]}" for c in columns
        )
        conn.execute(f"create table {table.name} ({decl})")
        marks = ", ".join("?" * len(columns))
        conn.executemany(
            f"insert into {table.name} values ({marks})", table.heap.iter_rows()
        )
    return conn


def check_statement(
    db, conn: sqlite3.Connection, sql: str, want_hash: bool
) -> dict:
    """Run one statement on both systems; returns the verdict."""
    ours = db.connect().submit(sql, monitor=False, keep_rows=True).result()
    # sqlite's rows are streamed, never held: materialising a 360k-row
    # join costs seconds of page faults and nothing is learned from it.
    count, fingerprint, portable = 0, 0, []
    for row in conn.execute(sql):
        count += 1
        fingerprint += hash(row)
        if want_hash:
            portable.append(row)
    verdict: dict = {"rows": count, "hash": None, "ok": True, "detail": ""}
    if ours.row_count != count:
        verdict["ok"] = False
        verdict["detail"] = f"row count {ours.row_count} != sqlite {count}"
    elif hashable(sql):
        # Builtin hash() is only stable within one process - enough to
        # compare two multisets here; the portable hash goes to the parent.
        if sum(map(hash, ours.rows)) != fingerprint:
            verdict["ok"] = False
            verdict["detail"] = "row multiset differs from sqlite"
        if want_hash:
            verdict["hash"] = row_hash(portable)
    return verdict


def expected(workload, seed: int) -> dict[str, dict]:
    """Op name -> verdict, for every op of the workload."""
    dbs = workload.build(seed)
    conns = {label: load_sqlite(db) for label, db in dbs.items()}
    by_statement: dict[tuple[str, str], dict] = {}
    out = {}
    for op in workload.ops(seed):
        key = (op.db, op.sql)
        if key not in by_statement:
            by_statement[key] = check_statement(
                dbs[op.db], conns[op.db], op.sql, want_hash=op.keep_rows
            )
        out[op.name] = by_statement[key]
    return out


def main(argv: Optional[list[str]] = None) -> int:
    from workloads import WORKLOADS

    name, seed = (argv if argv is not None else sys.argv[1:])
    json.dump(expected(WORKLOADS[name], int(seed)), sys.stdout)
    return 0


if __name__ == "__main__":
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
    raise SystemExit(main())
