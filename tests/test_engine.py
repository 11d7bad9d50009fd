"""End-to-end replay equivalence vs the dict-replay oracle (FIXTURES.md
§3): token-array equality row by row, consistency sum, watermark
visibility, idempotent re-apply, subscription filter, derived DAG."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    changelog_table,
    seed_lake,
    write_changelog,
    write_seed_lake,
)

from oracle_replay import consistency_sum_oracle, oracle_table, replay_oracle

SPEC = ChangelogSpec(n_docs=400, n_events=3_000, seed=42, chunk_size=750,
                     n_waves=3)
COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("log")
    return write_changelog(SPEC, str(d))


@pytest.fixture(scope="module")
def seed_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("seed") / "seed.parquet"
    return write_seed_lake(SPEC, str(p))


def assert_equals_oracle(engine: CDCEngine, state: dict):
    got = engine.lake_table().select(COLS).to_pylist()
    want = oracle_table(state, COLS)
    assert len(got) == len(want), (len(got), len(want))
    for g, w in zip(got, want):
        assert g["doc_id"] == w["doc_id"]
        assert g["tokens"] == w["tokens"], g["doc_id"]   # token-array equality
        assert g["n_tok"] == w["n_tok"]
        assert g["source"] == w["source"]
        assert g["last_lsn"] == w["last_lsn"]


def test_full_replay_matches_oracle(log_dir, seed_path, tmp_path):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.bootstrap(seed_path)
    res = eng.replay(log_dir, SPEC.wave_bounds)
    assert all(not r.get("skipped") for r in res)
    assert eng.watermark == SPEC.n_events

    state = replay_oracle(changelog_table(SPEC), seed=seed_lake(SPEC.n_docs))
    assert_equals_oracle(eng, state)
    assert eng.consistency_sum() == consistency_sum_oracle(state)


def test_partition_count_invariance(log_dir, seed_path, tmp_path):
    """Same final state at a different parallelism/partitioning (the
    sandbox proxy for the two-cluster-size invariance)."""
    eng = CDCEngine(str(tmp_path / "lake3"), num_partitions=3)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds)
    state = replay_oracle(changelog_table(SPEC), seed=seed_lake(SPEC.n_docs))
    assert_equals_oracle(eng, state)


def test_watermark_visibility(log_dir, seed_path, tmp_path):
    """Events beyond the wave watermark are never applied
    (PostgresqlStorageIntegrationSpec.groovy:884-900)."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed_path)
    hi = SPEC.n_events // 2
    eng.apply_wave(log_dir, hi=hi)
    assert eng.watermark == hi
    t = eng.lake_table()
    assert pc.max(t.column("last_lsn")).as_py() <= hi
    state = replay_oracle(changelog_table(SPEC), seed=seed_lake(SPEC.n_docs),
                          watermark=hi)
    assert_equals_oracle(eng, state)


def test_duplicate_wave_is_noop(log_dir, seed_path, tmp_path):
    """The watermark fence: re-applying a committed wave is skipped
    (reference PK fence, SQLiteStorageIntegrationSpec.groovy:250-282)."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed_path)
    r1 = eng.apply_wave(log_dir, hi=1000)
    r2 = eng.apply_wave(log_dir, hi=1000)
    assert not r1.get("skipped") and r2.get("skipped")
    before = eng.lake_table()
    eng.apply_wave(log_dir, hi=1000)
    assert eng.lake_table().equals(before)


def test_source_subscription_filter(log_dir, seed_path, tmp_path):
    """Type-filtered subscription (T1): derived sync sees only its sources,
    including their tombstones (SQLiteQueries.java:105-112)."""
    subs = ("web", "code")
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4, sources=subs)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds)
    state = replay_oracle(changelog_table(SPEC), seed=seed_lake(SPEC.n_docs),
                          sources=set(subs))
    assert_equals_oracle(eng, state)


def test_derived_dag(log_dir, seed_path, tmp_path):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds)
    state = replay_oracle(changelog_table(SPEC), seed=seed_lake(SPEC.n_docs))

    stats = eng.derived_table("source_stats").to_pylist()
    import collections
    want = collections.defaultdict(lambda: [0, 0, 0])
    for r in state.values():
        w = want[r["source"]]
        w[0] += 1
        w[1] += r["n_tok"]
        w[2] = max(w[2], r["last_lsn"])
    assert {r["source"]: [r["n_rows"], r["sum_n_tok"], r["max_last_lsn"]]
            for r in stats} == dict(want)

    roll = eng.derived_table("corpus_rollup").to_pylist()
    assert len(roll) == 1
    assert roll[0]["sum_n_rows"] == len(state)
    assert roll[0]["sum_sum_n_tok"] == sum(r["n_tok"] for r in state.values())


def test_no_seed_replay(log_dir, tmp_path):
    """Insert-only materialization from an empty lake."""
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed_lake(0))
    eng.replay(log_dir, SPEC.wave_bounds)
    state = replay_oracle(changelog_table(SPEC))
    assert_equals_oracle(eng, state)


def test_publish_derived_tables(log_dir, seed_path, tmp_path):
    """DAG tables materialize to derived/<name>.parquet and match the
    on-demand fold."""
    import os

    import pyarrow.parquet as pq_

    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=5)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds)
    published = eng.publish_derived_tables()
    assert set(published) == {"source_stats", "corpus_rollup"}
    for name, path in published.items():
        assert os.path.exists(path)
        assert pq_.read_table(path).equals(eng.derived_table(name))


def test_partition_count_is_immutable_per_lake(log_dir, seed_path,
                                               tmp_path):
    """A mismatched num_partitions must be REJECTED (silently re-hashing
    doc_ids over a different P would split docs across partitions);
    num_partitions=None adopts the committed count."""
    import pytest as _pytest
    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=4)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds[:1])

    wrong = CDCEngine(root, num_partitions=8)
    with _pytest.raises(ValueError, match="immutable"):
        wrong.replay(log_dir, SPEC.wave_bounds)

    adopted = CDCEngine(root, num_partitions=None)
    assert adopted.num_partitions == 4
    adopted.replay(log_dir, SPEC.wave_bounds)
    assert adopted.watermark == SPEC.n_events


def test_named_offsets_maintained_across_waves(tmp_path):
    """Maintained named offsets (reference OffsetName.java:3-5): the
    MAX_OFFSET_PREVIOUS_HOUR checkpoint is folded from each wave's scan
    stats — never recomputed by a scan — and persists in the manifest
    across engine restarts. Log spans 3 hours; waves split mid-hour."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.schema import CHANGE_EVENT

    HOUR_US = 3_600_000_000
    base_ts = 1_700_000_000_000_000
    rows = []
    for lsn in range(1, 301):
        # 100 events per hour, hours 0..2
        ts = base_ts + ((lsn - 1) // 100) * HOUR_US + (lsn % 97) * 1_000
        rows.append({"lsn": lsn, "op": 0, "doc_id": f"d{lsn % 40:03d}",
                     "tokens": [lsn % 7], "n_tok": 1, "source": "web",
                     "ts": ts})
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(pa.Table.from_pylist(rows, schema=CHANGE_EVENT),
                   str(log / "seg-1.parquet"))

    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=2, derivations=())
    # wave 1 ends mid-hour-1: latest hour = hour 1, previous = hour 0
    eng.replay(str(log), [(0, 150)])
    assert eng.named_offset("GLOBAL_LATEST") == 150
    assert eng.named_offset("MAX_OFFSET_PREVIOUS_HOUR") == 100
    # wave 2 into hour 2: hours 0-1 fold in; max lsn before hour 2 = 200
    eng.replay(str(log), [(150, 250)])
    assert eng.named_offset("MAX_OFFSET_PREVIOUS_HOUR") == 200
    # persisted: a fresh engine reads the checkpoint from the manifest
    eng2 = CDCEngine(root, num_partitions=None, derivations=())
    assert eng2.named_offset("MAX_OFFSET_PREVIOUS_HOUR") == 200
    assert eng2.named_offset("GLOBAL_LATEST") == 250
    assert eng2.named_offset("NO_SUCH") == -1
    # finishing the stream doesn't regress the checkpoint
    eng2.replay(str(log), [(250, 300)])
    assert eng2.named_offset("MAX_OFFSET_PREVIOUS_HOUR") == 200


def test_max_offset_for_consumers_maintained(tmp_path):
    """MAX_OFFSET_CONSUMERS is maintained per commit from the scan
    tasks' per-type maxima — answered from the manifest checkpoint,
    never a log scan. Type/offset layout and expectations mirror the
    reference's integration spec
    (SQLiteStorageIntegrationSpec.groovy:1222-1260)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.schema import CHANGE_EVENT

    types = {1: "type1", 2: "type1", 3: "type2", 4: "type2", 5: "type1",
             6: "type1", 7: "type1", 8: "type3", 9: "type1"}
    rows = [{"lsn": lsn, "op": 0, "doc_id": f"d{lsn:03d}",
             "tokens": [lsn], "n_tok": 1, "source": ty,
             "ts": 1_700_000_000_000_000 + lsn}
            for lsn, ty in types.items()]
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(pa.Table.from_pylist(rows, schema=CHANGE_EVENT),
                   str(log / "seg-1.parquet"))

    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=2, derivations=())
    # two waves: the checkpoint must FOLD across commits
    eng.replay(str(log), [(0, 5), (5, 9)])
    assert eng.max_offset_for_consumers(["type1"]) == 9
    assert eng.max_offset_for_consumers(["type2"]) == 4
    assert eng.max_offset_for_consumers(["type3"]) == 8
    assert eng.max_offset_for_consumers(["type2", "type3"]) == 8
    assert eng.max_offset_for_consumers([]) == 0
    assert eng.max_offset_for_consumers(["no_such_type"]) == 0
    assert eng.named_offset("MAX_OFFSET_CONSUMERS") == 9
    # persisted: a fresh engine answers from the manifest alone
    eng2 = CDCEngine(root, num_partitions=None, derivations=())
    assert eng2.max_offset_for_consumers(["type2", "type3"]) == 8
    # a SUBSCRIBED engine's own checkpoint covers only its types
    sub = CDCEngine(str(tmp_path / "sub"), num_partitions=2,
                    derivations=(), sources=("type2", "type3"))
    sub.replay(str(log), [(0, 9)])
    assert sub.named_offset("MAX_OFFSET_CONSUMERS") == 8


def test_consumer_offsets_raise_without_checkpoints(tmp_path):
    """MAX_OFFSET_CONSUMERS checkpoints are folded by the raw log scan
    tasks; a lake whose log waves never folded one (every wave filtered
    empty by a sources= subscription that matches no event) must fail
    loudly instead of answering 0 as if the types were never seen."""
    import pytest as _pytest

    from aqueduct_core_ray.sources.changelog import (
        ChangelogSpec, write_changelog, write_seed_lake)
    spec = ChangelogSpec(n_docs=50, n_events=200, seed=4,
                         chunk_size=200, n_waves=1)
    log = write_changelog(spec, str(tmp_path / "log"))
    seed = write_seed_lake(spec, str(tmp_path / "seed" / "s.parquet"))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4,
                    sources=("no-such-type",))
    eng.bootstrap(seed)
    eng.replay(log, spec.wave_bounds)
    assert eng.watermark == spec.n_events
    with _pytest.raises(NotImplementedError):
        eng.max_offset_for_consumers(["type1"])
    with _pytest.raises(NotImplementedError):
        eng.named_offset("MAX_OFFSET_CONSUMERS")
    # the gate is KEY PRESENCE on the LAKE, not the reader's
    # subscription: an unfiltered engine opening the keyless lake must
    # hit the same loud error, never a silent 0
    rd = CDCEngine(str(tmp_path / "lake"), num_partitions=None)
    with _pytest.raises(NotImplementedError):
        rd.max_offset_for_consumers(["type1"])
    # an unfiltered lake still answers (sanity of the guard's scope)
    ex = CDCEngine(str(tmp_path / "lake2"), num_partitions=4)
    ex.bootstrap(seed)
    ex.replay(log, spec.wave_bounds)
    assert ex.named_offset("MAX_OFFSET_CONSUMERS") > 0


def test_reshard_lake_preserves_state_and_continues(tmp_path):
    """Cluster-resize path: reshard a half-replayed 8-partition lake to
    5 partitions; state, watermark and named offsets carry over, and
    continuing the SAME log replay on the resharded lake converges to
    the state of an uninterrupted 5-partition run."""
    from aqueduct_core_ray.sources.changelog import (
        ChangelogSpec, write_changelog, write_seed_lake)
    spec = ChangelogSpec(n_docs=200, n_events=1_600, seed=6,
                         chunk_size=400, n_waves=4)
    log = write_changelog(spec, str(tmp_path / "log"))
    seed = write_seed_lake(spec, str(tmp_path / "seed" / "s.parquet"))
    cols = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]

    eng = CDCEngine(str(tmp_path / "lake8"), num_partitions=8)
    eng.bootstrap(seed)
    eng.replay(log, spec.wave_bounds[:2])          # half the stream

    dst = eng.reshard_lake(str(tmp_path / "lake5"), num_partitions=5)
    assert dst.manifest.num_partitions == 5
    assert dst.watermark == eng.watermark
    assert dst.consistency_sum() == eng.consistency_sum()
    assert (dst.lake_table().select(cols).to_pylist()
            == eng.lake_table().select(cols).to_pylist())
    # checkpoint state carried: named offsets + hour checkpoints
    assert dst.named_offset("MAX_OFFSET_CONSUMERS") \
        == eng.named_offset("MAX_OFFSET_CONSUMERS")
    assert dst.manifest.hour_max == eng.manifest.hour_max
    # refuse to clobber a committed lake
    with pytest.raises(ValueError):
        eng.reshard_lake(str(tmp_path / "lake5"), num_partitions=3)

    # the resharded lake CONTINUES the same log exactly-once: the
    # already-applied waves skip, the rest apply
    out = dst.replay(log, spec.wave_bounds)
    assert sum(1 for w in out if w.get("skipped")) == 2
    ref = CDCEngine(str(tmp_path / "ref5"), num_partitions=5)
    ref.bootstrap(seed)
    ref.replay(log, spec.wave_bounds)
    assert dst.consistency_sum() == ref.consistency_sum()
    assert (dst.lake_table().select(cols).to_pylist()
            == ref.lake_table().select(cols).to_pylist())


def test_read_lake_filter_pushdown(tmp_path):
    """read_lake(filter=...) returns exactly the predicate's rows,
    applied after each partition-local merge: with pending sidecars and
    after absorbs, with and without a column projection."""
    spec = ChangelogSpec(n_docs=300, n_events=2_000, seed=9,
                         chunk_size=500, n_waves=4)
    log = write_changelog(spec, str(tmp_path / "log"))
    seed = write_seed_lake(spec, str(tmp_path / "seed" / "s.parquet"))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.bootstrap(seed)
    eng.replay(log, spec.wave_bounds[:2])      # leaves sidecars pending

    full = eng.read_lake().to_pandas()
    thr = int(full["n_tok"].median())
    want = full[full["n_tok"] > thr]
    got = eng.read_lake(filter=pc.field("n_tok") > thr).to_pandas()
    assert len(got) == len(want)
    assert set(got.doc_id) == set(want.doc_id)

    eng.drain_absorbs()                        # delta-free now
    got2 = eng.read_lake(filter=pc.field("n_tok") > thr).to_pandas()
    assert set(got2.doc_id) == set(want.doc_id)
    got3 = eng.read_lake(columns=["doc_id", "n_tok"],
                         filter=pc.field("n_tok") > thr).to_pandas()
    assert sorted(got3.columns) == ["doc_id", "n_tok"]
    assert set(got3.doc_id) == set(want.doc_id)
    # a filter that matches nothing returns an empty, well-typed table
    assert eng.read_lake(filter=pc.field("n_tok") < -1).count() == 0


def test_migrate_lake_rename_cast_drop(tmp_path):
    """Schema migration backfill: renamed/cast/dropped payload columns
    with watermark + state preserved; envelope columns protected."""
    spec = ChangelogSpec(n_docs=200, n_events=1_500, seed=5,
                         chunk_size=500, n_waves=3)
    log = write_changelog(spec, str(tmp_path / "log"))
    seed = write_seed_lake(spec, str(tmp_path / "seed" / "s.parquet"))
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed)
    eng.replay(log, spec.wave_bounds[:2])
    eng.drain_absorbs()

    dst = eng.migrate_lake(str(tmp_path / "lake2"),
                           rename={"n_tok": "token_count"},
                           cast={"source": pa.string()},
                           drop=["tokens"])
    assert dst.watermark == eng.watermark
    old = eng.lake_table()
    new = dst.lake_table()
    assert new.num_rows == old.num_rows
    assert "token_count" in new.column_names
    assert "n_tok" not in new.column_names
    assert "tokens" not in new.column_names
    a = old.select(["doc_id", "n_tok"]).rename_columns(
        ["doc_id", "token_count"]).sort_by("doc_id")
    b = new.select(["doc_id", "token_count"]).sort_by("doc_id")
    assert a.equals(b)

    # the migrated lake CONTINUES the same log exactly-once
    out = dst.replay(log, spec.wave_bounds)
    assert sum(1 for w in out if w.get("skipped")) == 2
    ref = CDCEngine(str(tmp_path / "ref"), num_partitions=4)
    ref.bootstrap(seed)
    ref.replay(log, spec.wave_bounds)
    # rows and per-doc last_lsn agree with an uninterrupted replay
    assert (dst.lake_table().select(["doc_id", "last_lsn"])
            .sort_by("doc_id").equals(
                ref.lake_table().select(["doc_id", "last_lsn"])
                .sort_by("doc_id")))

    # envelope columns are protected
    with pytest.raises(ValueError):
        eng.migrate_lake(str(tmp_path / "lake3"),
                         rename={"doc_id": "key"})
    with pytest.raises(ValueError):
        eng.migrate_lake(str(tmp_path / "lake3"), drop=["lsn"])
    # rename collision with an existing column is refused
    with pytest.raises(ValueError):
        eng.migrate_lake(str(tmp_path / "lake3"),
                         rename={"n_tok": "source"})


def test_checksum_sync_verification(log_dir, seed_path, tmp_path):
    """CDCEngine.checksum: (1) partitioning-invariant — two replicas with
    different shard counts produce identical bucket signatures; (2) the
    bucket counts sum to the live-row count; (3) a replica lagging one
    wave is detected (some bucket signature differs)."""
    eng = CDCEngine(str(tmp_path / "a"), num_partitions=8)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds)
    rep = CDCEngine(str(tmp_path / "b"), num_partitions=3)
    rep.bootstrap(seed_path)
    rep.replay(log_dir, SPEC.wave_bounds)

    a, b = eng.checksum(), rep.checksum()
    assert a.equals(b)
    assert sum(a.column("n_rows").to_pylist()) == eng.consistency_stats()[1]

    lag = CDCEngine(str(tmp_path / "c"), num_partitions=8)
    lag.bootstrap(seed_path)
    lag.replay(log_dir, SPEC.wave_bounds[:-1])
    c = lag.checksum()
    assert not a.equals(c)


def test_optimize_pays_down_maintenance_debt(log_dir, seed_path, tmp_path):
    """optimize(): absorbs sidecar debt (exact accounting restored),
    vacuums old generations, is idempotent, and never changes the
    logical table."""
    import pandas as pd
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8,
                    sidecar_frac=5.0, max_deltas=16, bg_absorb=False)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds)
    assert eng.dirty_pids()                  # sidecar debt exists

    def snap(e):
        return (e.lake_table().select(COLS).to_pandas()
                .sort_values("doc_id").reset_index(drop=True))

    before = snap(eng)
    r = eng.optimize(keep_generations=1)
    assert r["compacted_partitions"] > 0
    assert r["vacuumed_files"] > 0
    assert not eng.dirty_pids()
    pd.testing.assert_frame_equal(snap(eng), before)

    r2 = eng.optimize(keep_generations=1)
    assert r2["compacted_partitions"] == 0
    assert r2["vacuumed_files"] == 0
    assert r2["settled_absorbs"] == 0
