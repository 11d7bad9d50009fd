"""The lake as block refs: ``CDCEngine.map_lake`` runs one raw task per
manifest partition over the same kernel as ``lake_table``, and every
engine-side lake read (checksums, consistency stats, the checksum and
trigram indexes, online dedup) runs on it or on ``diff_refs`` without
starting a Ray Data execution."""

import json

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from aqueduct_core_ray.functions.search import LakeTrigramIndex
from aqueduct_core_ray.pipelines.online_dedup import (
    bootstrap_dedup_index,
    online_dedup_step,
)
from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    write_changelog,
    write_seed_lake,
)
from aqueduct_core_ray.sources.jsonl import stage_jsonl_to_log
from aqueduct_core_ray.state.checksums import LakeChecksumIndex

SPEC = ChangelogSpec(n_docs=300, n_events=2_400, seed=21, chunk_size=600,
                     n_waves=4)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    log = write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))
    seed = write_seed_lake(
        SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))
    return log, seed


@pytest.fixture()
def no_execution(executions):
    """``no_execution(f)`` calls ``f`` and asserts it started no Ray
    Data execution; returns its result."""
    def call(f):
        before = len(executions)
        out = f()
        assert len(executions) == before
        return out
    return call


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by("doc_id")


def test_map_lake_is_the_lake_table_kernel(inputs, tmp_path):
    """map_lake's blocks (one per partition, sidecars pending) hold the
    lake_table rows; ``fn``, ``columns``, ``filter`` and ``generation``
    apply per partition."""
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=5)
    eng.bootstrap(seed)
    eng.replay(log, SPEC.wave_bounds)
    assert eng.dirty_pids()
    refs = eng.map_lake()
    assert len(refs) == len(eng.manifest.partitions)
    want = eng.lake_table()
    assert _sorted(pa.concat_tables(ray.get(refs))).equals(want)

    counts = ray.get(eng.map_lake(lambda t: pa.table({"n": [t.num_rows]}),
                                  columns=["doc_id"]))
    assert sum(t.column("n")[0].as_py() for t in counts) == want.num_rows

    big = pc.field("n_tok") > 5
    got = pa.concat_tables(ray.get(eng.map_lake(
        columns=["n_tok", "doc_id"], filter=big)))
    assert got.column_names == ["n_tok", "doc_id"]
    assert sorted(got.column("doc_id").to_pylist()) == \
        want.filter(big).column("doc_id").to_pylist()

    g0 = pa.concat_tables(ray.get(eng.map_lake(generation=0)))
    assert g0.num_rows == SPEC.n_docs


def test_engine_lake_reads_start_no_execution(inputs, tmp_path,
                                              no_execution):
    log, seed = inputs
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(seed)
    bounds = SPEC.wave_bounds
    eng.replay(log, bounds[:1])
    cols = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]

    ck = no_execution(lambda: eng.checksum(columns=cols))
    s, n = no_execution(eng.consistency_stats)
    lake = eng.lake_table()
    assert (s, n) == (sum(lake.column("last_lsn").to_pylist()),
                      lake.num_rows)
    assert sum(ck.column("n_rows").to_pylist()) == n

    idx = LakeChecksumIndex(eng, str(tmp_path / "cks"), columns=cols)
    assert no_execution(idx.refresh)["mode"] == "full"
    dd = str(tmp_path / "dd")
    assert no_execution(lambda: bootstrap_dedup_index(
        eng, dd, num_partitions=4)) > 0

    eng.replay(log, bounds[1:2])
    assert no_execution(idx.refresh)["mode"] == "delta"
    assert idx.signatures().equals(eng.checksum(columns=cols))
    _, g_from, g_to = no_execution(lambda: online_dedup_step(
        eng, dd, num_partitions=4))
    assert g_to > g_from

    no_execution(lambda: eng.read_lake(columns=["doc_id"]))
    no_execution(lambda: eng.diff_generations(0))
    no_execution(lambda: eng.diff_generations(g_to, g_to))

    eng.replay(log, bounds[2:])
    eng.optimize(keep_generations=1)        # vacuums the indexed gen
    assert no_execution(idx.refresh)["mode"] == "rebuild"
    assert idx.signatures().equals(eng.checksum(columns=cols))


def _msg(off, key, data):
    return {"msg_offset": off, "msg_key": key, "type": "t",
            "created_utc": f"2024-01-01T00:00:{off:02d}Z", "data": data}


def _log(tmp_path, name, recs):
    path = tmp_path / f"{name}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return stage_jsonl_to_log(str(path), str(tmp_path / name))


def test_trigram_index_starts_no_execution(tmp_path, no_execution):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.replay(_log(tmp_path, "l1", [
        _msg(1, "a", "alpha beta gamma"), _msg(2, "b", "hello world"),
        _msg(3, "c", "needle haystack")]), [(0, 3)])
    idx = LakeTrigramIndex(eng, str(tmp_path / "idx"), column="data")
    assert no_execution(idx.refresh)["mode"] == "full"
    eng.replay(_log(tmp_path, "l2", [
        _msg(4, "a", "gamma only"), _msg(5, "d", "alpha beta too")]),
        [(3, 5)])
    r = no_execution(idx.refresh)
    assert r["mode"] == "delta" and r["postings"] > 0
    c = no_execution(idx.compact)
    assert c["mode"] == "compacted" and c["dropped_segments"] == 2
    got = idx.search(("alpha beta",))
    assert sorted(got.column("doc_id").to_pylist()) == ["d"]
