"""Exactly-once / kill-resume conformance (FIXTURES.md §2.4).

Reference analog: PipeEntity's single-transaction write — a failure rolls
back data AND offsets together (SQLiteStorageIntegrationSpec.groovy:
215-318); a duplicate apply is fenced by the msg_offset PK (:250-282).
Here: a crash at ANY point before the manifest commit leaves CURRENT on
the previous generation; the re-run regenerates identical staged files and
converges to the identical lake.
"""

import pyarrow as pa
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

SPEC = ChangelogSpec(n_docs=300, n_events=2_000, seed=7, chunk_size=500,
                     n_waves=4)
COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))


@pytest.fixture(scope="module")
def seed_path(tmp_path_factory):
    return write_seed_lake(SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))


def final_state():
    return replay_oracle(changelog_table(SPEC),
                         seed=seed_lake(SPEC.n_docs, seed=SPEC.seed))


def run_to_end(root, log_dir, seed_path):
    eng = CDCEngine(root, num_partitions=5)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds)
    return eng


class Boom(RuntimeError):
    pass


def test_crash_before_commit_then_resume(log_dir, seed_path, tmp_path,
                                         monkeypatch):
    """Kill after staging+promotion but before the manifest commit: the
    next run must converge to the exact oracle state (no dup/loss)."""
    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=5)
    eng.bootstrap(seed_path)
    bounds = SPEC.wave_bounds
    eng.apply_wave(log_dir, hi=bounds[0][1])

    # crash during wave 2's commit (promotes happened, CURRENT not moved)
    real_commit = eng.store.commit

    def exploding_commit(man):
        raise Boom("simulated kill before manifest publish")

    monkeypatch.setattr(eng.store, "commit", exploding_commit)
    with pytest.raises(Boom):
        eng.apply_wave(log_dir, hi=bounds[1][1])
    monkeypatch.setattr(eng.store, "commit", real_commit)

    assert eng.watermark == bounds[0][1]   # CURRENT untouched by the crash

    # resume: fresh engine object (as a fresh `ray job submit` would be)
    eng2 = CDCEngine(root, num_partitions=5)
    eng2.replay(log_dir, bounds)
    got = eng2.lake_table().select(COLS).to_pylist()
    want = oracle_table(final_state(), COLS)
    assert got == want


def test_crash_mid_promotion_then_resume(log_dir, seed_path, tmp_path,
                                         monkeypatch):
    """Kill halfway through promoting staged files (some partitions
    published, manifest absent)."""
    root = str(tmp_path / "lake")
    eng = CDCEngine(root, num_partitions=5)
    eng.bootstrap(seed_path)
    bounds = SPEC.wave_bounds

    calls = {"n": 0}
    real_promote = eng.store.promote_staged

    def flaky_promote(wave_id, pid, gen):
        calls["n"] += 1
        if calls["n"] == 3:
            raise Boom("simulated kill mid-promotion")
        return real_promote(wave_id, pid, gen)

    monkeypatch.setattr(eng.store, "promote_staged", flaky_promote)
    with pytest.raises(Boom):
        eng.apply_wave(log_dir, hi=bounds[0][1])
    monkeypatch.setattr(eng.store, "promote_staged", real_promote)

    eng2 = CDCEngine(root, num_partitions=5)
    eng2.replay(log_dir, bounds)
    assert (eng2.lake_table().select(COLS).to_pylist()
            == oracle_table(final_state(), COLS))


def test_resume_equals_uninterrupted(log_dir, seed_path, tmp_path):
    """A run resumed mid-replay equals a single uninterrupted run, file
    contents included."""
    a = run_to_end(str(tmp_path / "a"), log_dir, seed_path)

    root_b = str(tmp_path / "b")
    eng = CDCEngine(root_b, num_partitions=5)
    eng.bootstrap(seed_path)
    eng.replay(log_dir, SPEC.wave_bounds[:2])      # "killed" after 2 waves
    eng_resume = CDCEngine(root_b, num_partitions=5)
    eng_resume.replay(log_dir, SPEC.wave_bounds)   # full schedule re-issued
    assert a.lake_table().equals(eng_resume.lake_table())
    assert a.consistency_sum() == eng_resume.consistency_sum()


def test_lineage_and_metrics_recorded(log_dir, seed_path, tmp_path):
    import json
    import os
    root = str(tmp_path / "lake")
    eng = run_to_end(root, log_dir, seed_path)
    man = eng.manifest
    assert [l["wave_id"] for l in man.lineage][:1] == ["bootstrap"]
    assert man.lineage[-1]["hi"] == SPEC.n_events
    assert all("wall_s" in l for l in man.lineage)
    with open(os.path.join(root, "metrics.jsonl")) as f:
        recs = [json.loads(line) for line in f]
    assert len(recs) == 1 + len(SPEC.wave_bounds)
    assert all("events_per_s" in r for r in recs)
    # per-partition HWM + lineage present (checkpoint artifacts, §1.3)
    for p in man.partitions.values():
        assert {"path", "rows", "hwm"} <= set(p)


def test_vacuum_keeps_live_files(log_dir, seed_path, tmp_path):
    root = str(tmp_path / "lake")
    eng = run_to_end(root, log_dir, seed_path)
    before = eng.lake_table()
    removed = eng.store.vacuum(keep_generations=1)
    assert removed > 0
    assert eng.lake_table().equals(before)


def test_concurrent_committer_fenced(log_dir, seed_path, tmp_path,
                                     monkeypatch):
    """Two engines racing on one lake root, loser driven through the REAL
    _apply path: it reads CURRENT before the winner commits, promotes its
    part files, and must then (a) have its commit rejected, (b) have
    touched NONE of the winner's committed files, and (c) leave no
    staged/shuffle scratch behind (reference analog: single-flight
    compaction lock, PostgresqlStorage.java:416-427)."""
    import hashlib
    import os

    root = str(tmp_path / "lake")
    a = CDCEngine(root, num_partitions=5)
    a.bootstrap(seed_path)
    bounds = SPEC.wave_bounds

    b = CDCEngine(root, num_partitions=5)
    stale_manifest = b.manifest                    # CURRENT at bootstrap gen

    a.apply_wave(log_dir, hi=bounds[0][1])         # winner commits first
    # quiesce the winner's background absorbs so _staged/ holds ONLY
    # what the loser might leak (in-flight absorb staging is legitimate
    # winner state, not scratch)
    a.drain_absorbs()
    winner_files = {p: hashlib.md5(open(a.store.abs(v["path"]), "rb")
                                   .read()).hexdigest()
                    for p, v in a.manifest.partitions.items()}

    # b entered _apply before a's commit: its in-process cache still
    # holds the stale CURRENT, while commit() re-reads the real one
    b._cached_manifest = stale_manifest
    # the loser's wave runs on the raw path: scan tasks write its
    # exchange dir, then merge + commit
    from aqueduct_core_ray.pipelines.replay import _SCAN_TASK
    hi = bounds[1][1]
    sdir = b._fresh_shuffle_dir("wave-loser")
    units, union = b._scan_plan(log_dir, 0, hi)
    scans = [_SCAN_TASK.remote(u, 0, hi, b.sources, sdir,
                               b.num_partitions, b.conflict)
             for u in units]
    with pytest.raises(RuntimeError, match="stale commit"):
        b._apply(scans, 0, hi, wave_id="wave-loser",
                 incoming_schema=union)

    # winner's committed bytes untouched by the loser's promotion
    for p, v in a.manifest.partitions.items():
        got = hashlib.md5(open(a.store.abs(v["path"]), "rb")
                          .read()).hexdigest()
        assert got == winner_files[p], f"winner partition {p} clobbered"
    # loser's scratch reclaimed
    assert os.listdir(os.path.join(root, "_staged")) == []
    assert not os.path.exists(os.path.join(root, "_shuffle", "wave-loser"))

    # loser re-reads CURRENT and proceeds normally to the oracle state
    b.replay(log_dir, bounds)
    assert b.lake_table().select(COLS).to_pylist() == \
        oracle_table(final_state(), COLS)


def test_vacuum_keeps_time_travel_window(log_dir, seed_path, tmp_path):
    """vacuum(keep_generations=K) must leave every manifest in the keep
    window fully readable — including files an untouched partition
    carries forward from older generations."""
    import json
    import os

    import pyarrow.parquet as pq_

    root = str(tmp_path / "lake")
    eng = run_to_end(root, log_dir, seed_path)
    cur = eng.manifest
    eng.store.vacuum(keep_generations=2)
    for gen in (cur.generation - 1, cur.generation):
        with open(os.path.join(root, "manifests",
                               f"manifest-{gen:06d}.json")) as f:
            man = json.load(f)
        for p in man["partitions"].values():
            assert os.path.exists(os.path.join(root, p["path"])), \
                f"gen {gen} references vacuumed file {p['path']}"
            pq_.read_metadata(os.path.join(root, p["path"]))


def test_vacuum_sweeps_orphaned_staged_dirs(log_dir, seed_path, tmp_path):
    """A writer that dies with background absorbs in flight leaks its
    _staged/absorb-* dirs; the engine-level vacuum (which knows its own
    in-flight set) collects them, while in-flight staging survives."""
    import os

    root = str(tmp_path / "lake")
    eng = run_to_end(root, log_dir, seed_path)
    before = eng.lake_table()
    staged = os.path.join(root, "_staged")
    os.makedirs(os.path.join(staged, "absorb-g000099-p000001"),
                exist_ok=True)
    with open(os.path.join(staged, "absorb-g000099-p000001",
                           "p=000001.parquet"), "wb") as f:
        f.write(b"orphan")
    # store-level default leaves _staged alone (concurrency-safe)
    eng.store.vacuum(keep_generations=1)
    assert os.path.isdir(os.path.join(staged, "absorb-g000099-p000001"))
    # engine vacuum sweeps orphans not in its in-flight set
    removed = eng.vacuum(keep_generations=1)
    assert removed >= 1
    assert not os.path.isdir(os.path.join(staged,
                                          "absorb-g000099-p000001"))
    assert eng.lake_table().equals(before)
    # an id the engine believes in-flight is kept
    os.makedirs(os.path.join(staged, "absorb-g000099-p000002"),
                exist_ok=True)
    eng._bg[999] = {"wid": "absorb-g000099-p000002"}
    try:
        eng.vacuum(keep_generations=1)
        assert os.path.isdir(os.path.join(staged,
                                          "absorb-g000099-p000002"))
    finally:
        eng._bg.pop(999, None)
        eng.store.drop_staged("absorb-g000099-p000002")
