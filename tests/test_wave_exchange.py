"""The wave path's file exchange: scan tasks return slice manifests
(stages/exchange_files.py), wave rows in ``<lake>/metrics.jsonl`` carry
the exchange bytes and block count summed from them, and no index
sidecar is ever written next to the blocks."""

from __future__ import annotations

import json
import os
import shutil

import pytest
import ray

from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    write_changelog,
    write_seed_lake,
)

SPEC = ChangelogSpec(n_docs=300, n_events=3_000, seed=5, chunk_size=375,
                     n_waves=3)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    log = write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))
    seed = write_seed_lake(
        SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))
    return log, seed


@pytest.fixture()
def wide_scans(monkeypatch):
    """One scan task per log segment: a wave writes one block per
    segment."""
    monkeypatch.setattr(CDCEngine, "MIN_SPLIT_BYTES", 1)
    monkeypatch.setattr(CDCEngine, "TARGET_SPLIT_BYTES", 1)


def wave_rows(eng: CDCEngine) -> list[dict]:
    with open(os.path.join(eng.store.root, "metrics.jsonl")) as f:
        return [r for r in map(json.loads, f)
                if r["wave_id"].startswith("wave-")]


@pytest.mark.parametrize("salt,bounds", [
    (0, SPEC.wave_bounds),
    (0, [(0, SPEC.n_events)]),          # one full wave: 8 blocks
    (4, [(0, SPEC.n_events)]),          # 8 blocks > salt: 4 combines
], ids=["waves", "full-wave", "salt-4"])
def test_wave_rows_carry_exchange_bytes(inputs, tmp_path, monkeypatch,
                                        wide_scans, salt, bounds):
    log, seed = inputs
    scans: list[list[dict]] = []
    collect = CDCEngine._collect_scans

    def spy(self, refs, sdir):
        if os.path.basename(sdir).startswith("wave-"):
            scans.append(ray.get(refs))
        return collect(self, refs, sdir)

    monkeypatch.setattr(CDCEngine, "_collect_scans", spy)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8, salt=salt)
    eng.bootstrap(seed)
    eng.replay(log, bounds)
    rows = wave_rows(eng)
    assert len(rows) == len(bounds) == len(scans)
    for row, res in zip(rows, scans):
        mans = [r["manifest"] for r in res]
        slices = [m.filter([p >= 0 for p in m.column("part").to_pylist()])
                  for m in mans]
        assert row["xchg_bytes"] == sum(
            sum(s.column("bytes").to_pylist()) for s in slices) > 0
        assert row["xchg_blocks"] == len(
            {p for s in slices for p in s.column("path").to_pylist()})
        assert row["xchg_blocks"] == len(res)    # one block per segment
        assert row["combine_tasks"] == (
            salt if row["xchg_blocks"] > salt > 1 else 0)


def test_no_index_sidecars_under_shuffle(inputs, tmp_path, monkeypatch,
                                         wide_scans):
    """Bootstrap, a 3-wave replay, a salt=4 replay, a partition rebuild
    and a reshard write their exchange blocks and nothing else: the
    shuffle dirs are kept (rmtree skips them) and searched after."""
    log, seed = inputs
    real_rmtree = shutil.rmtree

    def keep_shuffle_dirs(path, *a, **k):
        if "_shuffle" in str(path):
            return None
        return real_rmtree(path, *a, **k)

    monkeypatch.setattr(shutil, "rmtree", keep_shuffle_dirs)
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=8)
    eng.bootstrap(seed)
    eng.replay(log, SPEC.wave_bounds)
    salted = CDCEngine(str(tmp_path / "salted"), num_partitions=8, salt=4)
    salted.bootstrap(seed)
    salted.replay(log, [(0, SPEC.n_events)])
    eng.rebuild_partition(log, 3, seed=seed)
    eng.reshard_lake(str(tmp_path / "rs"), 4)
    files = [os.path.join(d, f)
             for lake in ("lake", "salted", "rs")
             for d, _, fs in os.walk(tmp_path / lake / "_shuffle")
             for f in fs]
    dirs = {os.path.relpath(os.path.dirname(f), tmp_path) for f in files}
    for want in ("lake/_shuffle/bootstrap", "salted/_shuffle/" +
                 f"wave-{SPEC.n_events:012d}/salt",
                 "rs/_shuffle/reshard"):
        assert want in dirs
    assert any("rebuild-p000003" in d for d in dirs)
    assert files and all(f.endswith(".arrow") for f in files)
    assert not [f for f in files if f.endswith(".idx.json")]
