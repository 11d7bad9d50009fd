"""Delta-sidecar staging (the north star's RocksDB-style upsert
buffers): small waves stage O(delta) sidecar segments instead of
rewriting the whole partition; readers merge base+sidecars
partition-locally; the max_deltas / sidecar_frac thresholds trigger an
absorbing rewrite. Every path must be byte-equal to a sidecar-free
engine replaying the same schedule."""

import numpy as np
import pytest

from aqueduct_core_ray.cli import main as cli_main
from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    write_changelog,
    write_seed_lake,
)

# 2000-doc seed, 10 waves of 160 events: each compacted wave delta is
# ~3-8% of a partition's base rows -> sidecar mode engages
SPEC = ChangelogSpec(n_docs=2000, n_events=1600, seed=33, chunk_size=400,
                     n_waves=10)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    log = write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))
    seed = write_seed_lake(
        SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))
    return log, seed


def wave_bounds(n_waves):
    edges = np.linspace(0, SPEC.n_events, n_waves + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(n_waves)]


def test_sidecars_engage_and_state_matches_full(inputs, tmp_path):
    log, seed = inputs
    side = CDCEngine(str(tmp_path / "side"), num_partitions=4)
    side.bootstrap(seed)
    side.replay(log, wave_bounds(10))
    full = CDCEngine(str(tmp_path / "full"), num_partitions=4,
                     sidecar_frac=0.0)
    full.bootstrap(seed)
    full.replay(log, wave_bounds(10))

    n_deltas = sum(len(p.get("deltas") or [])
                   for p in side.manifest.partitions.values())
    assert n_deltas > 0, "sidecar mode never engaged — test is vacuous"
    assert side.lake_table().equals(full.lake_table())
    assert side.consistency_sum() == full.consistency_sum()
    # sidecar waves are O(delta): manifest rows are exact only as of the
    # last full accounting; the LAZY accounting pass must reproduce the
    # full engine's exact per-partition rows for every dirty partition
    fresh = side.exact_partition_stats()
    assert set(fresh) == set(side.dirty_pids()) and fresh
    for pid, p in full.manifest.partitions.items():
        got = (fresh[int(pid)]["rows"] if int(pid) in fresh
               else side.manifest.partitions[pid]["rows"])
        assert got == p["rows"]
    assert side.logical_rows() == sum(
        int(p["rows"]) for p in full.manifest.partitions.values())
    # derived tables stay exact while sidecars are pending (stale
    # manifest partials replaced by the lazy recompute)
    for name in ("source_stats", "corpus_rollup"):
        assert side.derived_table(name).equals(full.derived_table(name))


def test_read_lake_pruned_columns_with_sidecars(inputs, tmp_path):
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    assert any(p.get("deltas") for p in eng.manifest.partitions.values())
    got = sorted(r["doc_id"] for r in
                 eng.read_lake(columns=["doc_id"]).take_all())
    want = eng.lake_table().column("doc_id").to_pylist()
    assert got == want


def _wave_metrics(eng):
    import json as _json
    import os
    with open(os.path.join(eng.store.root, "metrics.jsonl")) as f:
        return [_json.loads(line) for line in f]


def test_absorb_when_pending_crosses_threshold(inputs, tmp_path):
    """sidecar_frac small enough that pending rows cross the absorb
    threshold: full rewrites must fire, chains stay bounded, state is
    byte-equal to a sidecar-free replay."""
    log, seed = inputs
    # bg_absorb=False: this test pins the INLINE absorb contract (the
    # background-mode twin lives in test_bg_absorb)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4, max_deltas=2,
                    sidecar_frac=0.08, bg_absorb=False)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    for p in eng.manifest.partitions.values():
        assert len(p.get("deltas") or []) <= 2
    assert sum(m["full_parts"] for m in _wave_metrics(eng)) > 0
    full = CDCEngine(str(tmp_path / "full"), num_partitions=4,
                     sidecar_frac=0.0)
    full.bootstrap(seed)
    full.replay(log, wave_bounds(10))
    assert eng.lake_table().equals(full.lake_table())


def test_max_deltas_triggers_chain_compaction_not_absorb(inputs, tmp_path):
    """The 100-TB steady-state regime: chain length hits max_deltas while
    pending rows are far under the absorb threshold. Tiered compaction
    must fold the chain into ONE sidecar WITHOUT touching the base —
    base paths stay frozen across all waves — and the logical state,
    lazy accounting, and derived tables must equal a sidecar-free
    replay."""
    log, seed = inputs
    # bg_absorb=False: pins the INLINE chain-fold tier (background
    # folds are pinned by test_bg_absorb::test_bg_chain_folds)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4, max_deltas=2,
                    sidecar_frac=5.0, bg_absorb=False)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10)[:1])
    bases = {k: p["path"] for k, p in eng.manifest.partitions.items()}
    eng.replay(log, wave_bounds(10)[1:])
    # base files never rewritten after the first sidecar wave
    assert {k: p["path"]
            for k, p in eng.manifest.partitions.items()} == bases
    metrics = _wave_metrics(eng)
    assert sum(m.get("chain_parts", 0) for m in metrics) > 0
    assert sum(m["full_parts"] for m in metrics
               if m["wave_id"] != "bootstrap") == 0
    for p in eng.manifest.partitions.values():
        assert 1 <= len(p.get("deltas") or []) <= 2
    full = CDCEngine(str(tmp_path / "full"), num_partitions=4,
                     sidecar_frac=0.0)
    full.bootstrap(seed)
    full.replay(log, wave_bounds(10))
    assert eng.lake_table().equals(full.lake_table())
    assert eng.consistency_sum() == full.consistency_sum()
    fresh = eng.exact_partition_stats()
    for pid, p in full.manifest.partitions.items():
        got = (fresh[int(pid)]["rows"] if int(pid) in fresh
               else eng.manifest.partitions[pid]["rows"])
        assert got == p["rows"]
    for name in ("source_stats", "corpus_rollup"):
        assert eng.derived_table(name).equals(full.derived_table(name))


def test_vacuum_collects_superseded_chain_segments(inputs, tmp_path):
    """A chain compaction replaces N chain segment files with ONE folded
    sidecar; the superseded segments are referenced only by older
    generations, so vacuum(keep_generations=1) must collect them while
    the base + the live folded sidecar survive and the lake still
    reads."""
    import os
    log, seed = inputs
    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=4, max_deltas=2, sidecar_frac=5.0,
                    bg_absorb=False)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    assert sum(m.get("chain_parts", 0) for m in _wave_metrics(eng)) > 0
    before = eng.lake_table()
    removed = eng.store.vacuum(keep_generations=1)
    assert removed > 0
    live = set()
    for p in eng.manifest.partitions.values():
        live.add(p["path"])
        for d in p.get("deltas") or []:
            live.add(d["path"])
    for rel in live:
        assert os.path.exists(os.path.join(root, rel)), rel
    assert eng.lake_table().equals(before)


def test_fold_chains_maintenance(inputs, tmp_path, capsys):
    """`compact --fold`: every chain collapses to ONE sidecar, base
    paths untouched, watermark unchanged, lake/derived state identical;
    a second fold is a no-op."""
    import json as _json
    import os
    log, seed = inputs
    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=4, max_deltas=16, sidecar_frac=5.0)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    assert any(len(p.get("deltas") or []) >= 2
               for p in eng.manifest.partitions.values())
    before = eng.lake_table()
    wm = eng.watermark
    bases = {k: p["path"] for k, p in eng.manifest.partitions.items()}
    derived = {n: eng.derived_table(n)
               for n in ("source_stats", "corpus_rollup")}

    rc = cli_main(["compact", "--lake", root, "--fold"])
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"] and out["folded_partitions"] > 0

    eng = CDCEngine(root, num_partitions=4)   # re-read committed manifest
    assert eng.watermark == wm
    assert {k: p["path"]
            for k, p in eng.manifest.partitions.items()} == bases
    for p in eng.manifest.partitions.values():
        assert len(p.get("deltas") or []) <= 1
    assert eng.lake_table().equals(before)
    for n, t in derived.items():
        assert eng.derived_table(n).equals(t)
    assert eng.fold_chains() == 0             # idempotent: nothing ≥2
    # folded files are live; superseded segments collectable
    eng.store.vacuum(keep_generations=1)
    assert eng.lake_table().equals(before)
    for p in eng.manifest.partitions.values():
        for d in p.get("deltas") or []:
            assert os.path.exists(os.path.join(root, d["path"]))


def test_resume_mid_sidecar_schedule(inputs, tmp_path):
    """Kill after wave 4, resume in a FRESH engine: same final state as
    an uninterrupted run (the sidecar chain is part of the manifest, so
    the watermark fence covers it)."""
    log, seed = inputs
    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=4)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10)[:4])
    resumed = CDCEngine(root, num_partitions=4)
    out = resumed.replay(log, wave_bounds(10))
    assert sum(1 for r in out if r.get("skipped")) == 4
    full = CDCEngine(str(tmp_path / "full"), num_partitions=4,
                     sidecar_frac=0.0)
    full.bootstrap(seed)
    full.replay(log, wave_bounds(10))
    assert resumed.lake_table().equals(full.lake_table())


def test_verify_vacuum_rebuild_with_sidecars(inputs, tmp_path, capsys):
    import json as _json
    log, seed = inputs
    root = str(tmp_path / "lake")
    # sync mode, round-3-era threshold: this test pins the verify/
    # vacuum/rebuild interplay with INLINE absorbs (vacuum must find
    # superseded bases inside the keep window); the bg_absorb deferral
    # or a high absorb threshold can leave nothing superseded
    eng = CDCEngine(root, num_partitions=4, bg_absorb=False,
                    sidecar_frac=0.5)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    assert any(p.get("deltas") for p in eng.manifest.partitions.values())

    rc = cli_main(["verify", "--lake", root])
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"]
    csum = out["consistency_sum"]

    # vacuum must keep every live delta file
    removed = eng.store.vacuum(keep_generations=1)
    rc = cli_main(["verify", "--lake", root])
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"] and removed > 0

    # rebuild a sidecar-carrying partition -> fresh base, chain reset
    pid = next(int(k) for k, p in eng.manifest.partitions.items()
               if p.get("deltas"))
    eng.rebuild_partition(log, pid, seed=seed)
    assert eng.manifest.partitions[str(pid)]["deltas"] == []
    rc = cli_main(["verify", "--lake", root])
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"] and out["consistency_sum"] == csum


def test_get_docs_point_read(inputs, tmp_path):
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    table = eng.lake_table()
    want = {r["doc_id"]: r for r in table.to_pylist()}
    some = sorted(want)[:3] + [sorted(want)[-1]]
    got = eng.get_docs(some + ["doc-not-there"]).to_pylist()
    assert [r["doc_id"] for r in got] == some
    for r in got:
        assert r["tokens"] == want[r["doc_id"]]["tokens"]
        assert r["last_lsn"] == want[r["doc_id"]]["last_lsn"]
    # pruned point read
    slim = eng.get_docs(some, columns=["doc_id", "last_lsn"])
    assert slim.column_names == ["doc_id", "last_lsn"]
    assert slim.num_rows == len(some)


def test_compact_partitions_absorbs_sidecars(inputs, tmp_path):
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    before = eng.lake_table()
    csum = eng.consistency_sum()
    assert any(p.get("deltas") for p in eng.manifest.partitions.values())
    n = eng.compact_partitions()
    assert n > 0
    assert all(not p.get("deltas")
               for p in eng.manifest.partitions.values())
    assert eng.lake_table().equals(before)
    assert eng.consistency_sum() == csum
    # absorb restores exact manifest accounting (chain empty = clean)
    assert not eng.dirty_pids()
    assert sum(int(p["rows"]) for p in eng.manifest.partitions.values()) \
        == before.num_rows
    assert eng.watermark == SPEC.n_events       # watermark unchanged
    # idempotent: nothing left to absorb
    assert eng.compact_partitions() == 0
    # derived partials survive the compaction commit
    eng2 = CDCEngine(str(tmp_path / "lake"))
    assert eng2.manifest.generation == eng.manifest.generation


def test_sidecar_waves_still_feed_children(inputs, tmp_path):
    """Outbox emission happens from the compacted delta BEFORE the
    sidecar/full staging decision — a child tailing a sidecar-mode
    parent must converge to the identical lake."""
    log, seed = inputs
    parent = CDCEngine(str(tmp_path / "cloud"), num_partitions=4,
                       emit_changelog=True)
    parent.bootstrap(seed)
    parent.replay(log, wave_bounds(10))
    assert any(p.get("deltas") for p in parent.manifest.partitions.values())
    child = CDCEngine(str(tmp_path / "till"), num_partitions=2)
    child.tail(parent.outbox_dir, wave_size=SPEC.n_events,
               poll_interval_s=0.05, max_idle_polls=1)
    assert child.lake_table().select(
        ["doc_id", "tokens", "n_tok", "source", "last_lsn"]).equals(
        parent.lake_table().select(
            ["doc_id", "tokens", "n_tok", "source", "last_lsn"]))
    assert child.consistency_sum() == parent.consistency_sum()


def test_schema_evolution_through_sidecar_chain(tmp_path):
    """Mid-chain schema evolution: wave 2 adds a column while waves are
    small enough to stage sidecars — the chain then holds files of two
    vintages, and reads must reconcile them to the evolved manifest
    schema (nulls for pre-evolution rows)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.schema import CHANGE_EVENT

    def rows(lo, hi, extra=False):
        out = []
        for lsn in range(lo + 1, hi + 1):
            r = {"lsn": lsn, "op": 0, "doc_id": f"d{lsn % 200:04d}",
                 "tokens": [lsn % 50], "n_tok": 1, "source": "web",
                 "ts": None}
            if extra:
                r["quality"] = float(lsn % 7)
            out.append(r)
        return out

    sch2 = pa.schema(list(CHANGE_EVENT) + [pa.field("quality",
                                                    pa.float64())])
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(pa.Table.from_pylist(rows(0, 1000), schema=CHANGE_EVENT),
                   str(log / "seg-1.parquet"))
    pq.write_table(pa.Table.from_pylist(rows(1000, 1040, extra=True),
                                        schema=sch2),
                   str(log / "seg-2.parquet"))
    pq.write_table(pa.Table.from_pylist(rows(1040, 1080, extra=True),
                                        schema=sch2),
                   str(log / "seg-3.parquet"))

    # sidecar_frac high enough that BOTH small waves stay sidecars (the
    # default 0.25 would absorb on wave 3 — covered elsewhere)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=2,
                    derivations=(), sidecar_frac=0.8)
    # wave 1 big (full bases), waves 2-3 tiny (sidecars, new schema)
    eng.replay(str(log), [(0, 1000), (1000, 1040), (1040, 1080)])
    assert any(p.get("deltas") for p in eng.manifest.partitions.values())
    assert "quality" in eng.manifest.schema.names
    got = {r["doc_id"]: r for r in eng.lake_table().to_pylist()}
    assert len(got) == 200
    # docs last written pre-evolution read as NULL quality; post have it
    pre = [r for r in got.values() if r["last_lsn"] <= 1000]
    post = [r for r in got.values() if r["last_lsn"] > 1000]
    assert pre and post
    assert all(r["quality"] is None for r in pre)
    assert all(r["quality"] is not None for r in post)
    # fold the mixed-vintage chain (waves 2+3 wrote different schemas):
    # fold_chain must unify vintages exactly like the read side, and the
    # folded lake must read identically
    before = eng.lake_table()
    assert eng.fold_chains() > 0
    assert all(len(p.get("deltas") or []) <= 1
               for p in eng.manifest.partitions.values())
    assert eng.lake_table().equals(before)


def test_cli_compact_preserves_partition_count(inputs, tmp_path, capsys):
    import json as _json
    log, seed = inputs
    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=4)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10))
    assert any(p.get("deltas") for p in eng.manifest.partitions.values())
    rc = cli_main(["compact", "--lake", root])
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["compacted_partitions"] > 0
    eng2 = CDCEngine(root, num_partitions=None)
    assert eng2.num_partitions == 4            # routing unchanged
    assert eng2.manifest.num_partitions == 4
    rc = cli_main(["verify", "--lake", root])
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"]


def test_absorb_threshold_staggered():
    from aqueduct_core_ray.stages.merge_apply import _staggered_frac
    vals = {_staggered_frac(0.25, pid) for pid in range(64)}
    assert len(vals) > 16                      # thresholds actually differ
    assert all(0.25 <= v <= 0.375 + 1e-9 for v in vals)
    assert _staggered_frac(0.25, 7) == _staggered_frac(0.25, 7)

def test_chain_tier_counts_compacted_pending(inputs, tmp_path):
    """Update-heavy wave at chain-full state: the RAW delta (per-block
    combiners can't dedup ACROSS blocks, so a hot key arrives once per
    block) exceeds the absorb threshold while the COMPACTED delta is far
    under it. The tier decision must count compacted rows — counting raw
    rows would fall through to an O(base) absorb ~30x too early in the
    steady-state regime."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from aqueduct_core_ray.partitioning import add_partition
    from aqueduct_core_ray.sources.changelog import changelog_chunk
    from aqueduct_core_ray.stages.merge_apply import (
        _staggered_frac,
        merge_partition_files,
    )

    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4, max_deltas=1,
                    sidecar_frac=0.4)
    eng.bootstrap(seed)
    eng.replay(log, wave_bounds(10)[:1])
    # a partition whose sidecar chain is already at max_deltas
    pid, entry = next((int(k), p) for k, p in eng.manifest.partitions.items()
                      if len(p.get("deltas") or []) == 1)
    base_rows = int(entry.get("file_rows", entry["rows"]))
    thresh = _staggered_frac(0.4, pid) * base_rows
    existing = int(entry["deltas"][0]["rows"])

    # craft the raw delta: 30 of this partition's events tiled 12x under
    # fresh lsns (the cross-block duplicate pattern of a hot-key wave)
    ev = add_partition(changelog_chunk(SPEC, 0), 4)
    mine = ev.filter(
        pc.equal(ev.column("part"), pa.scalar(pid, pa.int32()))
    ).slice(0, 30).combine_chunks()
    li = mine.schema.get_field_index("lsn")
    copies = []
    for k in range(12):
        lsn = pa.array(100_000 + k * 30 + np.arange(30, dtype=np.int64))
        copies.append(mine.set_column(li, "lsn", lsn))
    raw = pa.concat_tables(copies).combine_chunks()
    n_unique = len(set(mine.column("doc_id").to_pylist()))
    # the straddle that makes the test non-vacuous: raw pending would
    # absorb, compacted pending must not (0.4 = the pre-jitter minimum)
    assert existing + raw.num_rows > thresh
    assert existing + n_unique < 0.4 * base_rows

    sd = tmp_path / "shuffle"
    sd.mkdir()
    blk = str(sd / "block-00000.arrow")
    with pa.OSFile(blk, "wb") as f:
        with pa.ipc.new_file(f, raw.schema) as w:
            w.write_table(raw)
    common = dict(
        old_entry=entry, lake_schema_b64=eng.manifest.schema_b64,
        derivations=eng.derivations, sidecar_frac=0.4, max_deltas=1,
    )
    res = merge_partition_files(pid, eng.store.root, "wchain", [(blk, 0)],
                                **common)
    assert res["mode"] == "chain"
    # O(pending): the folded sidecar holds at most chain + unique keys
    assert res["file_rows"] <= existing + n_unique
    # contrast: without the chain tier the same wave pays the full rewrite
    res_off = merge_partition_files(pid, eng.store.root, "wfull",
                                    [(blk, 0)], chain_compact=False,
                                    **common)
    assert res_off["mode"] == "full"
