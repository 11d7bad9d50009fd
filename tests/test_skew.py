"""Hot-key skew conformance (north_rule: explicit handling of high-churn
doc_ids).

The engine's skew defenses, exercised here:
1. per-block LWW pre-compaction (the combiner): a block contributes at
   most ONE row per doc_id to the exchange, so a doc receiving half the
   wave's churn adds O(blocks) rows to its partition's delta, not
   O(events);
2. ``salt=S``: when a wave's scan wrote more than S blocks, S combine
   tasks fold every S-th block on (part, doc_id) first, so the hot doc
   reaches its merge task as at most S rows.

Every setting must produce the oracle state bit-for-bit under a
pathological workload (hot_set=1: ~half of all updates/deletes hit a
single doc). The scan-unit byte budget is lowered to one byte so each
log segment is its own scan task: a wave of this tiny log then writes 8
blocks, the shape of a wide production wave.
"""

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from aqueduct_core_ray.partitioning import partition_ids
from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    changelog_table,
    seed_lake,
    write_changelog,
    write_seed_lake,
)
from aqueduct_core_ray.stages.compact import ConflictPolicy

from oracle_replay import oracle_table, replay_oracle

SPEC = ChangelogSpec(n_docs=400, n_events=8_000, seed=11, chunk_size=500,
                     n_waves=2, hot_set=1, zipf_s=2.0)
COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]
EARLIEST = ConflictPolicy(keep="earliest")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    log = write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))
    seed = write_seed_lake(
        SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))
    return log, seed


@pytest.fixture()
def wide_scans(monkeypatch):
    monkeypatch.setattr(CDCEngine, "MIN_SPLIT_BYTES", 1)
    monkeypatch.setattr(CDCEngine, "TARGET_SPLIT_BYTES", 1)


def oracle():
    return oracle_table(
        replay_oracle(changelog_table(SPEC),
                      seed=seed_lake(SPEC.n_docs, seed=SPEC.seed)), COLS)


def earliest_oracle():
    """First-writer-wins over the log alone: each doc's lowest-lsn event
    wins for good; a doc whose first event is a delete stays absent."""
    first: dict[str, dict] = {}
    for r in sorted(changelog_table(SPEC).to_pylist(),
                    key=lambda r: r["lsn"]):
        first.setdefault(r["doc_id"], r)
    state = {d: {**{k: v for k, v in r.items()
                    if k not in ("lsn", "op", "ts")}, "last_lsn": r["lsn"]}
             for d, r in first.items() if r["op"] == 0}
    return oracle_table(state, COLS)


def hot_doc() -> str:
    t = changelog_table(SPEC)
    counts = (t.group_by("doc_id").aggregate([("lsn", "count")])
              .sort_by([("lsn_count", "descending")]))
    assert counts.column("lsn_count")[0].as_py() > SPEC.n_events // 10
    return counts.column("doc_id")[0].as_py()


def read_block(path: str) -> pa.Table:
    with pa.OSFile(path, "rb") as f:
        return pa.ipc.open_file(f).read_all()


@pytest.mark.parametrize("policy,salt", [
    ("lww", 0), ("lww", 4), ("earliest", 0), ("earliest", 4),
], ids=["exchange-0", "exchange-4", "earliest-0", "earliest-4"])
def test_hot_key_replay_matches_oracle(inputs, tmp_path, wide_scans,
                                       policy, salt):
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / f"lake-{policy}-{salt}"),
                    num_partitions=8, salt=salt,
                    conflict=EARLIEST if policy == "earliest" else None)
    if policy == "lww":
        eng.bootstrap(seed)
    eng.replay(log, SPEC.wave_bounds)
    want = oracle() if policy == "lww" else earliest_oracle()
    assert eng.lake_table().select(COLS).to_pylist() == want
    with open(os.path.join(eng.store.root, "metrics.jsonl")) as f:
        rows = [json.loads(line) for line in f]
    waves = [r for r in rows if r["wave_id"].startswith("wave-")]
    assert len(waves) == len(SPEC.wave_bounds)
    # 8 scan blocks per wave > salt: 4 combine tasks; none at salt=0
    assert [r["combine_tasks"] for r in waves] == [salt] * len(waves)


def test_combiner_bounds_hot_key_delta(inputs, tmp_path):
    """The exchange must carry at most one row per (block, doc_id): with
    hot_set=1, the hot doc's partition delta is bounded by the block
    count, not the event count."""
    import ray

    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.bootstrap(seed)
    scans = ray.get(eng._launch_scan(log, 0, SPEC.n_events)["refs"])
    paths = {p for r in scans
             for p in r["manifest"].column("path").to_pylist() if p}
    blocks = [read_block(p) for p in sorted(paths)]
    assert blocks
    for b in blocks:
        counts = b.group_by("doc_id").aggregate([("doc_id", "count")])
        assert pc.max(counts.column("doc_id_count")).as_py() == 1
    assert sum(b.num_rows for b in blocks) < SPEC.n_events
    hot_doc()             # sanity: the workload IS skewed


@pytest.mark.parametrize("salt", [0, 4])
def test_salt_combine_bounds_hot_doc_rows(inputs, tmp_path, wide_scans,
                                          salt):
    """salt=4 on a wave whose scan wrote 8 blocks: 4 combine tasks run
    and the hot doc's merge task reads at most 4 of its rows; salt=0
    runs no combine task and the hot doc arrives once per scan block."""
    log, _ = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8, salt=salt)
    hot = hot_doc()
    hot_pid = int(partition_ids(pa.array([hot]), 8)[0])
    p = eng._launch_scan(log, 0, SPEC.wave_bounds[0][1])
    assert len(p["refs"]) == 8
    plans, _, _, phase = eng._collect_scans(p["refs"], p["sdir"])
    n_combine = phase["combine_tasks"]
    assert n_combine == salt
    blocks = {b for pl in plans.values() for b, *_ in pl}
    assert len(blocks) == (salt or 8)
    hot_rows = 0
    for path, bi, _ in plans[hot_pid]:
        with pa.OSFile(path, "rb") as f:
            rd = pa.ipc.open_file(f)
            b = rd.get_batch(bi)
            assert set(b.column("part").to_pylist()) == {hot_pid}
            hot_rows += pc.sum(pc.equal(b.column("doc_id"),
                                        hot)).as_py() or 0
    if salt:
        assert 1 <= hot_rows <= salt
    else:
        assert hot_rows == 8
