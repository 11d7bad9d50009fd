"""Arrow schemas for the change log and the materialized lake table,
plus the schema-evolution reconciler.

Reference mapping (see SURVEY.md §1):
  - change event  <-> aqueduct `Message` (pipe-api .../Message.java:14-34):
    lsn=msg_offset, doc_id=msg_key, source=type, ts=created_utc,
    op=1 (delete) <-> `data IS NULL` tombstone (SQLiteQueries.java:54-55).
  - lake row      <-> a till's materialized EVENT row after LWW compaction
    (SQLiteQueries.java:51-52), carrying `last_lsn` lineage.

Schema evolution (BASELINE.json north_rule) has no reference analog (the
reference payload is schemaless JSON); we handle added/dropped columns and
int32 -> int64 widening of `n_tok` with an explicit reconciler applied
per block inside the wave's raw tasks.
"""

from __future__ import annotations

import pyarrow as pa

OP_UPSERT = 0
OP_DELETE = 1

# The CDC event stream (FIXTURES.md §1.2).
CHANGE_EVENT = pa.schema(
    [
        pa.field("lsn", pa.int64()),          # unique, strictly increasing
        pa.field("op", pa.int8()),            # 0=upsert, 1=delete
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),  # null when op=delete
        pa.field("n_tok", pa.int32()),        # null when op=delete
        pa.field("source", pa.string()),
        pa.field("ts", pa.timestamp("us")),   # monotone non-decreasing with lsn
    ]
)

# The materialized lake table (input_hint shape + lineage column).
LAKE_ROW = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
        pa.field("last_lsn", pa.int64()),     # lineage: lsn of the winning write
    ]
)

# Columns that are part of the logical payload (everything except lineage
# and CDC envelope); used when diffing engine output against oracles.
PAYLOAD_COLUMNS = ["doc_id", "tokens", "n_tok", "source"]


def _widen(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """Pick the wider of two types for schema union (int widening only)."""
    if a.equals(b):
        return a
    ints = {pa.int8(): 8, pa.int16(): 16, pa.int32(): 32, pa.int64(): 64}
    if a in ints and b in ints:
        return a if ints[a] >= ints[b] else b
    if pa.types.is_null(a):
        return b
    if pa.types.is_null(b):
        return a
    raise TypeError(f"cannot reconcile incompatible types {a} and {b}")


def evolve_schema(current: pa.Schema, incoming: pa.Schema) -> pa.Schema:
    """Union of two schemas with int widening.

    Columns keep `current`'s order; new columns from `incoming` append in
    their incoming order. A column present in both must be identical or
    integer-widenable (e.g. n_tok int32 -> int64).
    """
    fields: list[pa.Field] = []
    incoming_by_name = {f.name: f for f in incoming}
    for f in current:
        g = incoming_by_name.get(f.name)
        if g is None:
            fields.append(f)
        else:
            fields.append(pa.field(f.name, _widen(f.type, g.type)))
    seen = {f.name for f in current}
    for g in incoming:
        if g.name not in seen:
            fields.append(pa.field(g.name, g.type))
    return pa.schema(fields)


def reconcile_batch(batch: pa.Table, target: pa.Schema) -> pa.Table:
    """Conform an Arrow batch to `target`: missing columns are filled with
    nulls, extra columns dropped (callers that want to keep them evolve the
    target first via `evolve_schema`), int columns cast wider as needed.

    Vectorized: per-column `cast` / null-array construction only — no row
    iteration. Designed to run per block inside a raw task.
    """
    n = batch.num_rows
    cols = []
    for f in target:
        if f.name in batch.column_names:
            col = batch.column(f.name)
            if not col.type.equals(f.type):
                col = col.cast(f.type)
        else:
            col = pa.nulls(n, f.type)
        cols.append(col)
    return pa.Table.from_arrays(cols, schema=target)
