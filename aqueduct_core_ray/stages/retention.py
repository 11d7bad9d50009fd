"""Log retention / compaction job (reference D2 semantics, exactly).

Reproduces the reference's two-statement compaction
(SQLiteQueries.java:51-55, driven by SQLiteStorage.compactUpTo
SQLiteStorage.java:320-331; golden fixtures incl. the 25-event complex
case SQLiteStorageIntegrationSpec.groovy:835-895):

  COMPACT:            DELETE WHERE ts <= T
                      AND lsn NOT IN (SELECT max(lsn) FROM log
                                      WHERE ts <= T GROUP BY key, type)
  COMPACT_DELETIONS:  DELETE WHERE ts <= T_del AND <is tombstone>

i.e. within the window ts<=T keep only the latest version per
(doc_id, source); then (optionally) drop tombstones older than T_del.
Events beyond T are never touched. Keying on (doc_id, source) mirrors the
reference's (msg_key, type) — same key under different sources compacts
independently.

Distributed form: the log is hash-partitioned by doc_id (the engine's one
partitioning key), each partition compacts key-locally, and the compacted
log is written to a NEW directory (the input log is immutable); a
retention run is therefore trivially resumable and never races appliers.

Tombstone-GC safety (SURVEY.md §7.5 item 4): `deletion_ts` must trail
every consumer's checkpoint — a resumed replay must never miss a delete it
has not yet applied. `guard_hwm_ts` enforces that.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..schema import OP_DELETE
from . import exchange
from .compact import compact_lww

KEYS = ("doc_id", "source")


def compact_log_table(
    t: pa.Table,
    compact_ts,
    deletion_ts=None,
    compact_deletions: bool = True,
    keys: tuple[str, ...] = KEYS,
) -> pa.Table:
    """The per-partition (or whole-table, for tests) retention kernel.
    Returns surviving events in lsn order. Thresholds compare against the
    `ts` column (pass the same type: pa.scalar timestamp or int).

    Per-message TTL (reference: the `time_to_live` column stamped by the
    writer and honored by cloud compaction, PostgresqlStorage.java:
    365-436, 473-488): when the log carries a `ttl` column (microseconds,
    null = live forever), any event whose expiry `ts + ttl` is at or
    before `compact_ts` is dropped FIRST — expiry removes the message
    outright, so an expired latest version does NOT shield older
    versions from compaction, matching the reference's delete-then-
    compact statement order."""
    if t.num_rows == 0:
        return t
    if "ttl" in t.column_names:
        ts_us = t.column("ts").cast(pa.int64())
        expiry = pc.add_checked(ts_us, t.column("ttl").cast(pa.int64()))
        limit = (compact_ts.cast(pa.int64()).as_py()
                 if isinstance(compact_ts, pa.Scalar) else int(compact_ts))
        expired = pc.and_(pc.is_valid(t.column("ttl")),
                          pc.less_equal(expiry,
                                        pa.scalar(limit, pa.int64())))
        t = t.filter(pc.invert(pc.fill_null(expired, False)))
        if t.num_rows == 0:
            return t
    in_window = pc.less_equal(t.column("ts"), compact_ts)
    window = t.filter(in_window)
    outside = t.filter(pc.invert(in_window))
    survivors = compact_lww(window, key=list(keys))
    if compact_deletions and deletion_ts is not None:
        old_tomb = pc.and_(
            pc.equal(survivors.column("op"), pa.scalar(OP_DELETE, pa.int8())),
            pc.less_equal(survivors.column("ts"), deletion_ts),
        )
        survivors = survivors.filter(pc.invert(old_tomb))
    return pa.concat_tables([survivors, outside]).sort_by("lsn")


def guard_hwm_ts(deletion_ts, min_consumer_hwm_ts) -> None:
    """Refuse to GC tombstones newer than the slowest consumer's applied
    position (else a resumed replay could re-create a deleted doc)."""
    if min_consumer_hwm_ts is not None and deletion_ts is not None:
        if not pc.less_equal(pa.scalar(deletion_ts),
                             pa.scalar(min_consumer_hwm_ts)).as_py():
            raise ValueError(
                "deletion threshold is beyond the minimum consumer HWM; "
                "GC'ing those tombstones could resurrect deleted docs on "
                "resume (reference analog: deletion-threshold guard, "
                "PostgresqlStorage.java:473-488)")


def compact_log(
    log_path: str | list[str],
    out_dir: str,
    compact_ts,
    deletion_ts=None,
    compact_deletions: bool = True,
    min_consumer_hwm_ts=None,
    keys: tuple[str, ...] = KEYS,
) -> int:
    """Distributed retention: read immutable log -> exchange keyed on
    the compaction ``keys`` -> compact each partition key-locally ->
    write the compacted log: each partition task writes its rows as
    one parquet file. Returns the number of rows written."""
    guard_hwm_ts(deletion_ts, min_consumer_hwm_ts)
    os.makedirs(out_dir, exist_ok=True)

    def per_part(g: pa.Table) -> pa.Table:
        return exchange.write_file(compact_log_table(
            g.drop_columns(["part"]), compact_ts, deletion_ts,
            compact_deletions, keys), out_dir)

    out = exchange.file_exchange_map_groups(
        exchange.leaf(log_path), per_part, keys=list(keys))
    return sum(t.column("n")[0].as_py() for t in ray.get(out.refs))
