"""Retention-job conformance: the reference's compaction golden fixtures
ported verbatim (SQLiteStorageIntegrationSpec.groovy:710-921; SQL
SQLiteQueries.java:51-55). Timestamps below are day numbers standing in
for the spec's 2000-11-25..2000-12-08 dates (same ordering)."""

import pyarrow as pa
import pytest

from aqueduct_core_ray.stages.retention import (
    compact_log,
    compact_log_table,
    guard_hwm_ts,
)

SCHEMA = pa.schema([
    pa.field("lsn", pa.int64()), pa.field("op", pa.int8()),
    pa.field("doc_id", pa.string()), pa.field("source", pa.string()),
    pa.field("ts", pa.int64()),
])


def ev(lsn, key, ts, op=0, source="T"):
    return {"lsn": lsn, "op": op, "doc_id": key, "source": source, "ts": ts}


def tbl(rows):
    return pa.Table.from_pylist(rows, schema=SCHEMA)


def lsns(t):
    return t.column("lsn").to_pylist()


def test_all_duplicates_compacted_whole_store():
    # spec :710-732 — dup A ⇒ survivors offsets [2, 3]
    t = tbl([ev(1, "A", 1), ev(2, "B", 1), ev(3, "A", 1)])
    out = compact_log_table(t, compact_ts=2)
    assert lsns(out) == [2, 3]
    assert out.column("doc_id").to_pylist() == ["B", "A"]


def test_same_key_different_type_not_compacted():
    # spec :734-755 — (key,type) compaction key
    t = tbl([ev(1, "A", 1, source="type1"), ev(2, "A", 1, source="type2")])
    out = compact_log_table(t, compact_ts=2)
    assert lsns(out) == [1, 2]


def test_threshold_bounded_compaction():
    # spec :757-777 — events beyond the threshold untouched
    t = tbl([ev(1, "A", 1), ev(2, "A", 3), ev(3, "A", 3), ev(4, "B", 3)])
    out = compact_log_table(t, compact_ts=2)
    assert lsns(out) == [1, 2, 3, 4]


def test_deletions_latest_over_threshold_removed():
    # spec :779-805 — tombstones ts<=T_del removed
    t = tbl([ev(1, "A", 1, op=1), ev(2, "B", 2, op=1),
             ev(3, "C", 3, op=1), ev(4, "D", 4, op=1)])
    out = compact_log_table(t, compact_ts=5, deletion_ts=3)
    assert lsns(out) == [4]
    assert out.column("doc_id").to_pylist() == ["D"]


def test_deletions_kept_when_flag_false():
    # spec :807-833
    t = tbl([ev(1, "A", 1, op=1), ev(2, "B", 2), ev(3, "B", 3),
             ev(4, "D", 5, op=1)])
    out = compact_log_table(t, compact_ts=4, deletion_ts=3,
                            compact_deletions=False)
    assert lsns(out) == [1, 3, 4]
    assert out.column("doc_id").to_pylist() == ["A", "B", "D"]


def test_complex_case_exact_survivors():
    # spec :835-895 — expected survivors [4,7,10,11,14,15,16,17,22,23,24,25]
    # day numbers: 11-25→25, 11-29→29, 11-30→30, 12-0X→30+X
    t = tbl([
        ev(1, "A", 31), ev(2, "A", 32, op=1),
        ev(3, "B", 34), ev(4, "B", 35, op=1),
        ev(5, "C", 30), ev(6, "C", 31, op=1), ev(7, "C", 34, op=1),
        ev(8, "D", 29), ev(9, "D", 31, op=1), ev(10, "D", 36, op=1),
        ev(11, "D", 37, op=1),
        ev(12, "E", 29), ev(13, "E", 31, op=1), ev(14, "E", 32),
        ev(15, "F", 36), ev(16, "F", 37, op=1), ev(17, "F", 38),
        ev(18, "F", 25), ev(19, "F", 29, op=1), ev(20, "F", 31),
        ev(21, "F", 32, op=1),
        ev(22, "G", 36), ev(23, "G", 37, op=1), ev(24, "G", 38),
        ev(25, "G", 38, op=1),
    ])
    out = compact_log_table(t, compact_ts=35, deletion_ts=33)
    assert lsns(out) == [4, 7, 10, 11, 14, 15, 16, 17, 22, 23, 24, 25]
    assert out.column("doc_id").to_pylist() == \
        ["B", "C", "D", "D", "E", "F", "F", "F", "G", "G", "G", "G"]


def test_duplicates_to_offset_complex():
    # spec :897-921 — survivors [1,2,4,5,6,7,8]
    t = tbl([ev(1, "A", 31), ev(2, "B", 31), ev(3, "C", 31), ev(4, "C", 31),
             ev(5, "A", 33), ev(6, "B", 33), ev(7, "B", 33), ev(8, "D", 33)])
    out = compact_log_table(t, compact_ts=32)
    assert lsns(out) == [1, 2, 4, 5, 6, 7, 8]
    assert out.column("doc_id").to_pylist() == \
        ["A", "B", "C", "A", "B", "B", "D"]


def test_guard_refuses_unsafe_deletion_threshold():
    with pytest.raises(ValueError):
        guard_hwm_ts(deletion_ts=10, min_consumer_hwm_ts=5)
    guard_hwm_ts(deletion_ts=5, min_consumer_hwm_ts=10)  # ok


def test_distributed_compact_matches_kernel(tmp_path, parts):
    """The Ray job (hash-partitioned) equals the single-table kernel."""
    import pyarrow.parquet as pq

    from aqueduct_core_ray.sources.changelog import (
        ChangelogSpec, changelog_table)
    spec = ChangelogSpec(n_docs=200, n_events=2_000, chunk_size=2_000)
    t = changelog_table(spec)
    src = tmp_path / "log"
    src.mkdir()
    pq.write_table(t, str(src / "log.parquet"))

    mid_ts = t.column("ts")[spec.n_events // 2].as_py()
    del_ts = t.column("ts")[spec.n_events // 4].as_py()

    out_dir = str(tmp_path / "compacted")
    parts(7)
    compact_log(str(src), out_dir, compact_ts=mid_ts, deletion_ts=del_ts)
    got = pq.read_table(out_dir).sort_by("lsn")

    want = compact_log_table(t, compact_ts=mid_ts, deletion_ts=del_ts)
    assert got.column("lsn").to_pylist() == want.column("lsn").to_pylist()
    got2 = got.select(want.column_names).combine_chunks()
    assert got2.equals(want.combine_chunks())


def test_compacted_log_replay_equals_full_replay(tmp_path, parts):
    """Retention ∘ replay = replay: applying the compacted log must yield
    the same final lake as applying the full log (compaction only drops
    superseded versions, never a winner). Tombstone GC is withheld
    (deletion_ts=None) so deletes still propagate."""
    import pyarrow as pa

    from aqueduct_core_ray.pipelines.replay import CDCEngine
    from aqueduct_core_ray.sources.changelog import (
        ChangelogSpec, write_changelog, write_seed_lake)
    from aqueduct_core_ray.stages.retention import compact_log

    spec = ChangelogSpec(n_docs=200, n_events=3_000, seed=13,
                         chunk_size=1_000, n_waves=1)
    log = write_changelog(spec, str(tmp_path / "log"))
    seed = write_seed_lake(spec, str(tmp_path / "seed.parquet"))

    far_future = pa.scalar(7_000_000_000_000_000, pa.timestamp("us"))  # ~2191
    compacted_dir = str(tmp_path / "log_compacted")
    parts(4)
    compact_log(log, compacted_dir, compact_ts=far_future,
                deletion_ts=None)

    lakes = []
    for name, src in (("full", log), ("compacted", compacted_dir)):
        eng = CDCEngine(str(tmp_path / f"lake_{name}"), num_partitions=4)
        eng.bootstrap(seed)
        eng.replay(src, [(0, spec.n_events)])
        lakes.append(eng.lake_table())
    assert lakes[0].equals(lakes[1])


# --------------------------------------------------------------------- #
# Per-message TTL (reference: time_to_live stamping + cloud compaction,
# PostgresqlStorage.java:365-436, 473-488; routing-guarded TTL cases
# PostgresqlStorageIntegrationSpec.groovy:249-567)
# --------------------------------------------------------------------- #
TTL_SCHEMA = pa.schema(list(SCHEMA) + [pa.field("ttl", pa.int64())])


def ttl_ev(lsn, key, ts, ttl=None, op=0, source="T"):
    return {"lsn": lsn, "op": op, "doc_id": key, "source": source,
            "ts": ts, "ttl": ttl}


def ttl_tbl(rows):
    return pa.Table.from_pylist(rows, schema=TTL_SCHEMA)


def test_ttl_expired_message_removed():
    # A stamped ttl=2 at ts=1 expires at 3 <= compact_ts -> gone even
    # though it is the key's LATEST version; B (no ttl) untouched
    t = ttl_tbl([ttl_ev(1, "A", 1, ttl=2), ttl_ev(2, "B", 1)])
    out = compact_log_table(t, compact_ts=3)
    assert lsns(out) == [2]


def test_ttl_unexpired_kept():
    t = ttl_tbl([ttl_ev(1, "A", 1, ttl=10), ttl_ev(2, "B", 1)])
    out = compact_log_table(t, compact_ts=3)
    assert lsns(out) == [1, 2]


def test_ttl_expiry_does_not_shield_older_version():
    # reference order: TTL delete FIRST, then compaction over the
    # remainder — the expired latest version vanishes and the older
    # (ttl-less) version survives as the key's remaining latest
    t = ttl_tbl([ttl_ev(1, "A", 1), ttl_ev(2, "A", 2, ttl=1)])
    out = compact_log_table(t, compact_ts=4)
    assert lsns(out) == [1]


def test_ttl_outside_window_untouched():
    # expiry beyond compact_ts: normal compaction semantics apply
    t = ttl_tbl([ttl_ev(1, "A", 1, ttl=100), ttl_ev(2, "A", 2, ttl=100)])
    out = compact_log_table(t, compact_ts=3)
    assert lsns(out) == [2]
