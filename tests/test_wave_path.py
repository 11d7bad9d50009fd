"""One wave path: bootstrap, replay, rebuild_partition, reshard_lake and
migrate_lake all run on raw scan/seed/reshard tasks plus the merge fan —
no Ray Data execution anywhere — and seeds of every shape (one file, a
directory of multi-row-group files, an in-memory table cut into row
slices) give the same lake."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    changelog_table,
    seed_lake,
    write_changelog,
    write_seed_lake,
)

from oracle_replay import oracle_table, replay_oracle

SPEC = ChangelogSpec(n_docs=300, n_events=2_400, seed=21, chunk_size=400,
                     n_waves=3)
COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    log = write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))
    seed = write_seed_lake(
        SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))
    return log, seed


def test_no_ray_data_execution_on_the_wave_path(inputs, tmp_path,
                                                executions):
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=6)
    eng.bootstrap(seed)
    tab = CDCEngine(str(tmp_path / "tab"), num_partitions=6)
    tab.bootstrap(seed_lake(SPEC.n_docs, seed=SPEC.seed))
    eng.replay(log, SPEC.wave_bounds)
    eng.rebuild_partition(log, 2)
    eng.rebuild_partition(log, 3, seed=seed)
    eng.reshard_lake(str(tmp_path / "rs"), 4)
    eng.migrate_lake(str(tmp_path / "mg"), rename={"n_tok": "ntok"})
    assert executions == []
    # the hook does see Ray Data work (control)
    eng.read_lake().take_all()
    assert executions


def test_bootstrap_manifest_and_wave_ids(inputs, tmp_path):
    """Seed waves fold no hour or source maxima; the wave ids perfbench
    filters on stay put."""
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=6)
    eng.bootstrap(seed)
    m = eng.manifest
    assert m.wave_id == "bootstrap"
    assert m.named_offsets == {"GLOBAL_LATEST": 0}
    assert m.hour_max == {}
    eng.replay(log, SPEC.wave_bounds)
    assert eng.rebuild_partition(log, 1)["wave_id"].startswith(
        "rebuild-p000001-g")
    assert eng.reshard_lake(str(tmp_path / "rs"), 3).manifest.wave_id \
        == "reshard"
    want = oracle_table(replay_oracle(
        changelog_table(SPEC), seed=seed_lake(SPEC.n_docs, seed=SPEC.seed)),
        COLS)
    assert eng.lake_table().select(COLS).to_pylist() == want


def test_seed_shapes_agree(inputs, tmp_path, monkeypatch):
    """A one-file seed, a directory of multi-row-group files packed into
    several units, and an in-memory table cut into several row slices
    all bootstrap the same lake; a tiny unit budget forces the cuts."""
    _, seed = inputs
    ref = CDCEngine(str(tmp_path / "ref"), num_partitions=5)
    ref.bootstrap(seed)
    want = ref.lake_table()

    monkeypatch.setattr(CDCEngine, "MIN_SPLIT_BYTES", 1)
    monkeypatch.setattr(CDCEngine, "TARGET_SPLIT_BYTES", 1 << 14)
    t = pq.read_table(seed)
    d = tmp_path / "seed_dir"
    os.makedirs(d)
    pq.write_table(t.slice(0, 120), d / "a.parquet", row_group_size=40)
    pq.write_table(t.slice(120), d / "b.parquet", row_group_size=50)
    eng = CDCEngine(str(tmp_path / "dir"), num_partitions=5)
    units = eng._pack_units(
        [p for f in ("a", "b") for p in _pieces(str(d / f"{f}.parquet"))])
    assert len(units) > 2
    eng.bootstrap(str(d))
    assert eng.lake_table().equals(want)

    mem = CDCEngine(str(tmp_path / "mem"), num_partitions=5)
    refs, schema = mem._seed_scans(t, mem._fresh_shuffle_dir("probe"))
    assert len(refs) > 1
    ray.get(refs)
    assert schema.names[:2] == ["lsn", "op"] and schema.names[-1] == "ts"
    mem.bootstrap(t)
    assert mem.lake_table().equals(want)
    empty = CDCEngine(str(tmp_path / "empty"), num_partitions=5)
    empty.bootstrap(t.schema.empty_table())
    assert empty.lake_table().num_rows == 0
    assert empty.manifest.schema.names == want.schema.names


def _pieces(path: str):
    from aqueduct_core_ray.stages.scan_units import file_pieces
    return file_pieces(path)


def test_reshard_migrate_match_source(inputs, tmp_path):
    """Pseudo events written by the reshard tasks straight into the
    destination's exchange keep the state, and the migration runs in
    the task."""
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=6)
    eng.bootstrap(seed)
    eng.replay(log, SPEC.wave_bounds)
    src = eng.lake_table()
    rs = eng.reshard_lake(str(tmp_path / "rs"), 3)
    assert rs.lake_table().equals(src)
    assert rs.manifest.named_offsets == eng.manifest.named_offsets
    mg = eng.migrate_lake(str(tmp_path / "mg"), rename={"n_tok": "ntok"},
                          cast={"n_tok": pa.int64()})
    got = mg.lake_table()
    assert got.column("ntok").type == pa.int64()
    assert got.column("ntok").to_pylist() == src.column("n_tok").to_pylist()
    assert got.column("doc_id").equals(src.column("doc_id"))
