"""Hierarchical propagation: parent lake re-serves its applied change
feed (outbox) and children tail it — the reference's cloud→till→till
tree (SURVEY.md §2.11, SubNodeGroup.java:53-65) as chained lakes.

Convergence is checked with the reference's own instrument: the A4
offset-consistency sum must agree across every level (comparable
across parent/child, SQLiteQueries.java:57-64), plus full row equality.
"""

import pytest

from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    changelog_table,
    seed_lake,
    write_changelog,
    write_seed_lake,
)

from oracle_replay import oracle_table, replay_oracle

SPEC = ChangelogSpec(n_docs=250, n_events=2_500, seed=21, chunk_size=500,
                     n_waves=3)
COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    log = write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))
    seed = write_seed_lake(
        SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))
    return log, seed


def oracle():
    return oracle_table(
        replay_oracle(changelog_table(SPEC),
                      seed=seed_lake(SPEC.n_docs, seed=SPEC.seed)), COLS)


def test_parent_child_grandchild_converge(inputs, tmp_path):
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)

    # child tails the parent's outbox; grandchild tails the child's —
    # data "leaves the cloud once" and propagates down the tree
    child = CDCEngine(str(tmp_path / "till1"), num_partitions=3,
                      emit_changelog=True)
    child.tail(parent.outbox_dir, wave_size=700, poll_interval_s=0.05,
               max_idle_polls=1)
    grandchild = CDCEngine(str(tmp_path / "till2"), num_partitions=2)
    grandchild.tail(child.outbox_dir, wave_size=900, poll_interval_s=0.05,
                    max_idle_polls=1)

    want = oracle()
    for eng in (parent, child, grandchild):
        assert eng.lake_table().select(COLS).to_pylist() == want
    assert (parent.consistency_sum() == child.consistency_sum()
            == grandchild.consistency_sum())
    # the full-payload sync-verification instrument: every level's
    # bucket signature table is identical (compares O(16) rows, covers
    # value corruption the lsn-sum cannot see)
    cs = parent.checksum(columns=COLS)
    assert cs.equals(child.checksum(columns=COLS))
    assert cs.equals(grandchild.checksum(columns=COLS))


def test_child_resumes_mid_stream(inputs, tmp_path):
    """Kill the child between parent waves; it must converge after the
    parent finishes, with no dup/loss."""
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    b = SPEC.wave_bounds
    parent.replay(log, b[:1])                       # only wave 1 published

    child = CDCEngine(str(tmp_path / "till"), num_partitions=3)
    child.tail(parent.outbox_dir, wave_size=500, poll_interval_s=0.05,
               max_idle_polls=1)
    assert child.watermark == b[0][1]

    parent.replay(log, b)                           # rest of the stream
    child2 = CDCEngine(str(tmp_path / "till"), num_partitions=3)  # resumed
    child2.tail(parent.outbox_dir, wave_size=500, poll_interval_s=0.05,
                max_idle_polls=1)
    assert child2.lake_table().select(COLS).to_pylist() == oracle()
    assert child2.consistency_sum() == parent.consistency_sum()


def test_source_filtered_child(inputs, tmp_path):
    """A child subscribed to a subset of sources (the reference's
    type-filtered till, SQLiteQueries.java:105-112) materializes exactly
    the filtered oracle state."""
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)

    child = CDCEngine(str(tmp_path / "till"), num_partitions=3,
                      sources=("web", "code"))
    child.tail(parent.outbox_dir, wave_size=1_000, poll_interval_s=0.05,
               max_idle_polls=1)
    want = [r for r in oracle() if r["source"] in ("web", "code")]
    assert child.lake_table().select(COLS).to_pylist() == want


def test_outbox_watermark_gates_children(inputs, tmp_path):
    """The _WATERMARK marker (written only after commit) is authoritative
    for outbox readers: a child must never advance past it even if
    segments with higher lsns are already visible — protection against
    the per-partition publish race."""
    import os

    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)
    marker = os.path.join(parent.outbox_dir, "_WATERMARK")
    assert int(open(marker).read()) == SPEC.n_events

    # simulate mid-publication: segments visible, marker still at wave 1
    with open(marker, "w") as f:
        f.write(str(SPEC.wave_bounds[0][1]))
    child = CDCEngine(str(tmp_path / "till"), num_partitions=3)
    child.tail(parent.outbox_dir, wave_size=5_000, poll_interval_s=0.05,
               max_idle_polls=1)
    assert child.watermark == SPEC.wave_bounds[0][1]   # gated, not footer max

    # publication completes (marker advances): child catches up losslessly
    with open(marker, "w") as f:
        f.write(str(SPEC.n_events))
    child.tail(parent.outbox_dir, wave_size=5_000, poll_interval_s=0.05,
               max_idle_polls=1)
    assert child.lake_table().select(COLS).to_pylist() == oracle()


def test_schema_evolution_propagates_down_chain(tmp_path):
    """A payload column added mid-stream must reach the child through the
    outbox: parent evolves on its wave, the child's merge unifies mixed-
    vintage segments and evolves identically."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.schema import CHANGE_EVENT

    log = tmp_path / "log"
    log.mkdir()
    base = pa.Table.from_pylist([
        {"lsn": 1, "op": 0, "doc_id": "a", "tokens": [1], "n_tok": 1,
         "source": "web", "ts": 1_000_000},
        {"lsn": 2, "op": 0, "doc_id": "b", "tokens": [2], "n_tok": 1,
         "source": "web", "ts": 2_000_000},
    ], schema=CHANGE_EVENT)
    evolved_schema = pa.schema(list(CHANGE_EVENT)
                               + [pa.field("lang", pa.string())])
    evolved = pa.Table.from_pylist([
        {"lsn": 3, "op": 0, "doc_id": "a", "tokens": [9], "n_tok": 1,
         "source": "web", "ts": 3_000_000, "lang": "en"},
        {"lsn": 4, "op": 0, "doc_id": "c", "tokens": [3], "n_tok": 1,
         "source": "web", "ts": 4_000_000, "lang": "de"},
    ], schema=evolved_schema)
    pq.write_table(base, str(log / "chunk-00000.parquet"))
    pq.write_table(evolved, str(log / "chunk-00001.parquet"))

    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=2,
                       derivations=(), emit_changelog=True)
    parent.replay(str(log), [(0, 2), (2, 4)])
    child = CDCEngine(str(tmp_path / "till"), num_partitions=2,
                      derivations=())
    child.tail(parent.outbox_dir, wave_size=4, poll_interval_s=0.05,
               max_idle_polls=1)

    for eng in (parent, child):
        rows = {r["doc_id"]: r for r in eng.lake_table().to_pylist()}
        assert "lang" in eng.manifest.schema.names
        assert rows["a"]["lang"] == "en" and rows["a"]["tokens"] == [9]
        assert rows["b"]["lang"] is None          # pre-evolution row
        assert rows["c"]["lang"] == "de"
    assert parent.consistency_sum() == child.consistency_sum()


def test_pipe_state_transitions(inputs, tmp_path):
    """Reference PipeState.java:3-5: consumers learn their currency from
    the read itself. Mid-tail waves report OUT_OF_DATE, the final wave
    UP_TO_DATE; the outbox _STATE marker mirrors the emitting engine."""
    import json
    import os
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)

    child = CDCEngine(str(tmp_path / "till"), num_partitions=2,
                      emit_changelog=True)
    assert child.pipe_state() == "UNKNOWN"     # nothing polled yet
    waves = child.tail(parent.outbox_dir, wave_size=700,
                       poll_interval_s=0.05, max_idle_polls=1)
    states = [w["pipe_state"] for w in waves]
    assert states[-1] == "UP_TO_DATE"
    assert all(s == "OUT_OF_DATE" for s in states[:-1])
    assert child.pipe_state() == "UP_TO_DATE"
    with open(os.path.join(child.outbox_dir, "_STATE")) as f:
        marker = json.load(f)
    assert marker["state"] == "UP_TO_DATE"
    assert marker["watermark"] == child.watermark


def test_consumer_registration_and_chain_status(inputs, tmp_path):
    """Lag monitoring + automatic prune guard: a tailing child registers
    its HWM; the parent's chain_status reports it; prune_outbox derives
    its guard from the slowest registered consumer."""
    import pytest as _pytest
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)

    # prune with no registered consumers refuses rather than assumes
    with _pytest.raises(ValueError):
        parent.prune_outbox(below_lsn=10)

    child = CDCEngine(str(tmp_path / "till"), num_partitions=2)
    child.tail(parent.outbox_dir, wave_size=SPEC.n_events,
               poll_interval_s=0.05, max_idle_polls=1,
               consumer_id="till-1")
    status = parent.chain_status()
    assert [s["consumer_id"] for s in status] == ["till-1"]
    assert status[0]["state"] == "UP_TO_DATE"
    assert status[0]["lag_events"] == 0

    # guard now derives automatically from till-1's registered HWM
    with _pytest.raises(ValueError):
        parent.prune_outbox(below_lsn=SPEC.n_events + 10_000)
    assert parent.prune_outbox(below_lsn=SPEC.n_events // 2) > 0

    # a lagging child shows up as LAGGING (fresh) / STALLED (silent)
    parent.register_consumer_hwm(parent.outbox_dir, "till-slow",
                                 SPEC.n_events // 4)
    by_id = {s["consumer_id"]: s for s in parent.chain_status()}
    assert by_id["till-slow"]["state"] == "LAGGING"
    assert by_id["till-slow"]["lag_events"] > 0
    by_id = {s["consumer_id"]: s
             for s in parent.chain_status(stale_after_s=0.0)}
    assert by_id["till-slow"]["state"] == "STALLED"


def test_parent_initiated_bootstrap_request(inputs, tmp_path):
    """Reference NODE_REQUESTS (PostgreSQLNodeRequestStorage.java:20-68,
    SelfRegistrationTask.java:74-78): the parent flags a consumer; the
    child's next poll consumes the marker, wipes its lake and re-tails
    from scratch. Here the child's lake is CORRUPTED out-of-band (its
    manifest/state diverges silently), the parent sees it STALLED and
    requests a bootstrap; after the re-tail the A4 sums converge."""
    import os
    import shutil

    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)

    child_root = str(tmp_path / "till")
    child = CDCEngine(child_root, num_partitions=3,
                      emit_changelog=True)
    child.tail(parent.outbox_dir, wave_size=SPEC.n_events,
               poll_interval_s=0.05, max_idle_polls=1,
               consumer_id="till-1")
    assert child.consistency_sum() == parent.consistency_sum()
    child_outbox_segs = set(os.listdir(child.outbox_dir))

    # corrupt the child: nuke a committed partition file out-of-band
    victim = child.lake_files()[0]
    os.remove(victim)
    # parent decides till-1 is stalled and flags it
    parent.register_consumer_hwm(parent.outbox_dir, "till-1",
                                 SPEC.n_events // 4)  # stale heartbeat
    flagged = parent.request_stalled_bootstraps(stale_after_s=0.0)
    assert flagged == ["till-1"]
    marker = os.path.join(parent.outbox_dir, "_requests", "till-1")
    assert os.path.exists(marker)

    # a FRESH child engine (restarted process) consumes the request on
    # its next poll: wipe + full re-tail, marker gone, state converges.
    # The child's OWN outbox must survive the wipe — a grandchild
    # tailing it keeps reading published segments during the rebuild —
    # and the deterministic re-applied waves overwrite them in place.
    child2 = CDCEngine(child_root, num_partitions=3,
                       emit_changelog=True)
    child2.tail(parent.outbox_dir, wave_size=SPEC.n_events,
                poll_interval_s=0.05, max_idle_polls=1,
                consumer_id="till-1")
    assert not os.path.exists(marker)
    assert child_outbox_segs <= set(os.listdir(child2.outbox_dir))
    assert child2.watermark == SPEC.n_events
    assert child2.consistency_sum() == parent.consistency_sum()
    assert child2.lake_table().select(COLS).to_pylist() == oracle()

    # no pending request -> tail is a no-op consume (idempotent)
    assert not child2._consume_bootstrap_request(parent.outbox_dir,
                                                 "till-1")


def test_restore_rebootstraps_children(inputs, tmp_path):
    """Rolling a parent back must not leave children diverged: restore
    truncates outbox segments past the restored watermark, re-publishes
    the gate, and flags every registered consumer for wipe-and-re-tail;
    the child's next tail() re-converges to the ROLLED-BACK state
    (bucket-signature equality)."""
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)
    child = CDCEngine(str(tmp_path / "till"), num_partitions=3)
    child.tail(parent.outbox_dir, wave_size=700, poll_interval_s=0.05,
               max_idle_polls=1, consumer_id="till")
    assert child.consistency_sum() == parent.consistency_sum()

    target_wm = SPEC.wave_bounds[1][1]       # roll back past wave 3
    g = next(g for g in range(parent.manifest.generation + 1)
             if parent.manifest_at(g).watermark == target_wm)
    r = parent.restore(g)
    assert r["watermark"] == target_wm
    assert r["outbox_segments_truncated"] >= 1
    assert r["consumers_rebootstrapped"] == ["till"]
    with open(f"{parent.outbox_dir}/_WATERMARK") as f:
        assert int(f.read()) == target_wm

    child2 = CDCEngine(str(tmp_path / "till"), num_partitions=3)
    child2.tail(parent.outbox_dir, wave_size=700, poll_interval_s=0.05,
                max_idle_polls=1, consumer_id="till")
    assert child2.watermark == target_wm
    assert child2.consistency_sum() == parent.consistency_sum()
    assert parent.checksum(columns=COLS).equals(
        child2.checksum(columns=COLS))


def test_typed_bootstrap_pipe_keeps_data(inputs, tmp_path):
    """BootstrapType.PIPE analog (BootstrapService.java:55-61): the
    child consumes a kind="pipe" request by resetting IN-PROCESS state
    and reloading the durable manifest — lake files, offsets and
    watermark survive, and the same poll continues tailing new events
    from the committed watermark (no re-replay from scratch)."""
    import os

    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    b = SPEC.wave_bounds
    parent.replay(log, b[:1])

    child_root = str(tmp_path / "till")
    child = CDCEngine(child_root, num_partitions=3)
    child.tail(parent.outbox_dir, wave_size=SPEC.n_events,
               poll_interval_s=0.05, max_idle_polls=1,
               consumer_id="till-1")
    assert child.watermark == b[0][1]
    files_before = set(child.lake_files())
    gen_before = child.manifest.generation

    parent.replay(log, b)                    # rest of the stream
    parent.request_bootstrap("till-1", kind="pipe")
    marker = os.path.join(parent.outbox_dir, "_requests", "till-1")
    assert os.path.exists(marker)

    child2 = CDCEngine(child_root, num_partitions=3)
    out2 = child2.tail(parent.outbox_dir, wave_size=SPEC.n_events,
                       poll_interval_s=0.05, max_idle_polls=1,
                       consumer_id="till-1")
    assert not os.path.exists(marker)
    # data KEPT: the resumed tail applied ONLY the delta past the
    # committed watermark — a wipe would have re-applied the stream
    # from scratch (a wave ending at or below the old watermark)
    applied = [r for r in out2 if "watermark" in r]
    assert applied and min(r["watermark"] for r in applied) > b[0][1]
    assert child2.manifest.generation > gen_before
    assert child2.watermark == SPEC.n_events
    assert child2.lake_table().select(COLS).to_pylist() == oracle()
    assert child2.consistency_sum() == parent.consistency_sum()


def test_typed_bootstrap_provider_recomputes_derived(inputs, tmp_path):
    """BootstrapType.PROVIDER analog (BootstrapService.java:40-44): a
    kind="provider" request makes the child re-derive and re-publish
    its DAG outputs from the intact lake — base data, watermark and
    offsets untouched; a corrupted derived/<name>.parquet heals."""
    import os

    import pyarrow.parquet as pq

    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, SPEC.wave_bounds)

    child_root = str(tmp_path / "till")
    child = CDCEngine(child_root, num_partitions=3)
    child.tail(parent.outbox_dir, wave_size=SPEC.n_events,
               poll_interval_s=0.05, max_idle_polls=1,
               consumer_id="till-1")
    pub = child.publish_derived_tables()
    assert pub                                     # DEFAULT_DAG publishes
    name, path = next(iter(pub.items()))
    want = pq.read_table(path)
    # corrupt the published derived table out-of-band
    with open(path, "wb") as f:
        f.write(b"garbage")
    files_before = sorted(child.lake_files())
    wm_before = child.watermark

    parent.request_bootstrap("till-1", kind="provider")
    child2 = CDCEngine(child_root, num_partitions=3)
    child2.tail(parent.outbox_dir, wave_size=SPEC.n_events,
                poll_interval_s=0.05, max_idle_polls=1,
                consumer_id="till-1")
    marker = os.path.join(parent.outbox_dir, "_requests", "till-1")
    assert not os.path.exists(marker)
    # derived output healed, base lake untouched
    assert pq.read_table(path).equals(want)
    assert sorted(child2.lake_files()) == files_before
    assert child2.watermark == wm_before


def test_request_bootstrap_rejects_unknown_kind(inputs, tmp_path):
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloudk"), num_partitions=2,
                       emit_changelog=True)
    parent.bootstrap(seed)
    import pytest as _pytest
    with _pytest.raises(ValueError):
        parent.request_bootstrap("till-1", kind="pipe_with_delay")
