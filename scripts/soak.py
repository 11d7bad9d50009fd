#!/usr/bin/env python
"""Steady-state SOAK: many consecutive small waves through one engine
with in-stream maintenance wired via post-commit hooks — the longevity
exhibit behind the 100-TB framing (a real CDC deployment runs thousands
of waves per day, not one replay).

Per wave: apply + maintained-checksum refresh (O(delta) off the
before-image changefeed) + ``get_docs`` point reads of seeded keys.
Every ``check_every`` waves: assert the maintained signatures equal a
full rescan, the point reads equal ``lake_table()`` filtered to their
keys, and the engine's decoded-file cache holds only files CURRENT
names, within its byte budget — so once warm it tracks the live lake
(whose inserts keep it growing) up to the budget, and never more.
At the end, ``rebuild_partition`` of one pid and a ``reshard_lake`` to
half the partitions must each leave ``lake_table()`` unchanged, and no
exchange file may remain under either lake's ``_shuffle``.
Prints one JSON line, with the cache size at each check.

Usage: python scripts/soak.py [n_waves] [events_per_wave] [work_dir]
(work_dir defaults to /tmp/aqr_soak and is removed at exit)
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> int:
    n_waves = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    per_wave = int(sys.argv[2]) if len(sys.argv) > 2 else 5_000
    check_every = max(1, n_waves // 4)

    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    import logging

    from ray.data.context import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from aqueduct_core_ray.pipelines.replay import CDCEngine
    from aqueduct_core_ray.sources.changelog import (
        ChangelogSpec,
        write_changelog,
        write_seed_lake,
    )
    from aqueduct_core_ray.state.checksums import LakeChecksumIndex

    root = sys.argv[3] if len(sys.argv) > 3 else "/tmp/aqr_soak"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    spec = ChangelogSpec(n_docs=50_000, n_events=n_waves * per_wave,
                         chunk_size=per_wave * 10, n_waves=n_waves)
    log = write_changelog(spec, os.path.join(root, "log"))
    seed = write_seed_lake(spec, os.path.join(root, "seed.parquet"))

    cols = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]
    holder: dict = {}

    def keep_fresh(eng, rec):
        holder.setdefault("idx", LakeChecksumIndex(
            eng, os.path.join(root, "cks"), columns=cols)).refresh()

    eng = CDCEngine(os.path.join(root, "lake"), num_partitions=32,
                    post_commit=(keep_fresh,))
    eng.bootstrap(seed)

    rng = np.random.default_rng(0x50AC)
    keys = [f"doc{i:08d}" for i in rng.integers(0, spec.n_docs, 4096)]
    cache = eng.file_cache
    cache_mb = []

    def check_point_reads(i: int, ids: list[str]) -> None:
        full = eng.lake_table()
        want = full.filter(pc.is_in(full.column("doc_id"),
                                    value_set=pa.array(ids)))
        assert eng.get_docs(ids).equals(want), f"point reads at wave {i}"
        assert set(cache.paths()) <= eng.live_files(), \
            f"stale cache at wave {i}"
        assert cache.nbytes <= cache.budget
        cache_mb.append(round(cache.nbytes / 2**20, 2))

    t0 = time.perf_counter()
    checks = 0
    for i, (lo, hi) in enumerate(spec.wave_bounds, 1):
        eng.replay(log, [(lo, hi)])
        ids = keys[(i * 8) % len(keys):][:8]
        eng.get_docs(ids)
        if i % check_every == 0 or i == n_waves:
            assert holder["idx"].signatures().equals(
                eng.checksum(columns=cols)), f"drift at wave {i}"
            check_point_reads(i, ids)
            checks += 1
    eng.drain_absorbs()
    assert holder["idx"].refresh()["mode"] in ("noop", "delta")
    assert holder["idx"].signatures().equals(eng.checksum(columns=cols))
    wall = time.perf_counter() - t0

    # the moved wave paths: rebuild one partition from log + seed, then
    # reshard to half the partitions; both keep the lake's state
    want = eng.lake_table()
    eng.rebuild_partition(log, 7, seed=seed)
    assert eng.lake_table().sort_by("doc_id").equals(want), "rebuild"
    half = eng.reshard_lake(os.path.join(root, "resharded"),
                            eng.num_partitions // 2)
    assert half.lake_table().sort_by("doc_id").equals(want), "reshard"
    # each exchange dir goes with its commit: no exchange block (nor an
    # index sidecar) outlives the waves, the rebuild or the reshard
    left = [os.path.join(d, f) for lake in (eng, half)
            for d, _, fs in os.walk(os.path.join(lake.store.root,
                                                 "_shuffle"))
            for f in fs]
    assert not left, f"exchange files left under _shuffle: {left[:5]}"

    m = {"metric": "soak_waves", "n_waves": n_waves,
         "events_per_wave": per_wave,
         "events_per_s": round(spec.n_events / wall),
         "wall_s": round(wall, 1), "invariant_checks": checks + 1,
         "final_generation": eng.manifest.generation,
         "lake_rows": eng.logical_rows(),
         "file_cache_mb": cache_mb,
         "file_cache_budget_mb": cache.budget / 2**20}
    print(json.dumps(m))
    shutil.rmtree(root, ignore_errors=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
