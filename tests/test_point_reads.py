"""Point reads (CDCEngine.get_docs): key-filtered merge-on-read over the
engine's decoded-file cache must return exactly the rows of the full
merge-on-read (``lake_table()``) for the same keys — after every wave of
a sidecar-heavy replay, across every maintenance verb that rewrites or
drops part files, and across a wipe-and-resync that reuses part paths
with new content. The cache itself stays bounded: only files CURRENT
names, within its byte budget, and nothing at all without point reads.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    changelog_table,
    write_changelog,
)
from aqueduct_core_ray.stages import merge_apply
from aqueduct_core_ray.stages.compact import ConflictPolicy
from aqueduct_core_ray.stages.merge_apply import (
    FENCE_COL,
    FILE_CACHE_BYTES,
    FileCache,
    load_partition_table,
)

# one big first wave lays down the bases, then 12 waves of 150 events
# each stage a sidecar per partition
SPEC = ChangelogSpec(n_docs=400, n_events=3_000, seed=77, chunk_size=150)
BOUNDS = [(0, 1_200)] + [(lo, lo + 150) for lo in range(1_200, 3_000, 150)]
COLUMNS = (None, ["doc_id", "last_lsn"], ["tokens", "doc_id"])
# lsn LWW never materializes tombstones; event-time ordering keeps them
# as fence rows (ConflictPolicy.retains_tombstones)
POLICIES = {"lww": ConflictPolicy(), "ts_fence": ConflictPolicy("ts")}


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    return write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))


@pytest.fixture(scope="module")
def deleted_ids():
    ev = changelog_table(SPEC)
    return set(ev.filter(pc.equal(ev.column("op"), 1))
               .column("doc_id").to_pylist())


def check_point_reads(eng, deleted_ids):
    full = eng.lake_table()
    live = full.column("doc_id").to_pylist()
    present = live[::max(1, len(live) // 6)][:6]
    deleted = sorted(deleted_ids - set(live))[:6]
    absent = ["doc-never-a", "doc-never-b"]
    assert present and deleted
    key_sets = [present, deleted, absent, present + present[:3] + present,
                [], present[:2] + deleted[:2] + absent]
    for keys in key_sets:
        want = full.filter(pc.is_in(full.column("doc_id"),
                                    value_set=pa.array(keys, pa.string())))
        for cols in COLUMNS:
            got = eng.get_docs(keys, columns=cols)
            if not keys:
                assert got.num_rows == 0
                continue
            exp = want if cols is None else want.select(cols)
            assert got.equals(exp), (keys, cols)
    assert eng.live_files() >= set(eng.file_cache.paths())
    assert 0 < eng.file_cache.nbytes <= FILE_CACHE_BYTES


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_get_docs_equals_filtered_lake_table(log, deleted_ids, tmp_path,
                                             policy):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4,
                    derivations=(), conflict=POLICIES[policy])
    gens = {}
    for i, b in enumerate(BOUNDS):
        eng.replay(log, [b])
        check_point_reads(eng, deleted_ids)
        gens[i] = eng.manifest.generation
        if i == 6:
            assert eng.fold_chains() > 0
            check_point_reads(eng, deleted_ids)
    assert max(len(e.get("deltas") or [])
               for e in eng.manifest.partitions.values()) >= 3
    eng.drain_absorbs()
    check_point_reads(eng, deleted_ids)
    assert eng.compact_partitions() > 0
    check_point_reads(eng, deleted_ids)
    # roll back past the fold, re-read, then re-converge
    eng.restore(gens[4])
    check_point_reads(eng, deleted_ids)
    for b in BOUNDS[5:]:
        eng.replay(log, [b])
        check_point_reads(eng, deleted_ids)
    assert eng.vacuum() > 0
    check_point_reads(eng, deleted_ids)
    if POLICIES[policy].retains_tombstones:
        fences = sum(
            pc.sum(pc.equal(load_partition_table(
                eng.store.root, e, eng.manifest.schema,
                eng.conflict).column(FENCE_COL), 1)).as_py() or 0
            for e in eng.manifest.partitions.values())
        assert fences > 0, "no fence rows: the deleted keys are vacuous"


def test_get_docs_after_wipe_reusing_part_paths(log, deleted_ids,
                                                tmp_path):
    """The parent rolls back and replays a DIFFERENT history, so the
    child's wipe-and-re-tail rewrites the same part paths
    (g000001-wave-000000001350) with new content; the child's cache must
    not serve the old bytes."""
    other = write_changelog(
        ChangelogSpec(n_docs=400, n_events=3_000, seed=78, chunk_size=150),
        str(tmp_path / "other"))
    parent = CDCEngine(str(tmp_path / "parent"), num_partitions=4,
                       derivations=(), emit_changelog=True)
    parent.replay(log, BOUNDS[:1])
    child = CDCEngine(str(tmp_path / "child"), num_partitions=4,
                      derivations=())
    # one child wave per parent wave (lsns 0..1200, then 150 more), so
    # the re-tail after the wipe repeats the same wave ids
    tail_kw = dict(wave_size=1_201, poll_interval_s=0.01,
                   max_idle_polls=1, consumer_id="till-1")
    child.tail(parent.outbox_dir, **tail_kw)
    parent.replay(log, BOUNDS[1:2])
    child.tail(parent.outbox_dir, **tail_kw)
    check_point_reads(child, deleted_ids)
    before = {p: pq.read_table(p) for p in child.file_cache.paths()}

    parent.restore(0)                       # flags till-1 for bootstrap
    parent.replay(other, BOUNDS[1:2])
    child.tail(parent.outbox_dir, **tail_kw)
    assert child.watermark == parent.watermark
    rewritten = [p for p in before if p in child.live_files()
                 and not pq.read_table(p).equals(before[p])]
    assert rewritten, "no part path reused with new content: vacuous"
    check_point_reads(child, deleted_ids)
    assert child.lake_table().equals(parent.lake_table())


def test_file_cache_bounded(log, tmp_path, monkeypatch):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4,
                    derivations=())
    quiet = CDCEngine(str(tmp_path / "quiet"), num_partitions=4,
                      derivations=())
    for b in BOUNDS:
        eng.replay(log, [b])
        quiet.replay(log, [b])
        eng.get_docs(["doc00000001", "doc00000002", "doc00000003"])
    eng.drain_absorbs()
    quiet.drain_absorbs()
    eng.compact_partitions()
    eng.vacuum()
    quiet.vacuum()
    eng.get_docs(["doc00000001"])
    assert set(eng.file_cache.paths()) <= eng.live_files()
    assert 0 < eng.file_cache.nbytes <= FILE_CACHE_BYTES
    # an engine that never serves a point read decodes nothing, and
    # projected reads decode only their columns, outside the cache
    assert quiet.file_cache.paths() == [] and quiet.file_cache.nbytes == 0
    quiet.get_docs(["doc00000001"], columns=["doc_id", "last_lsn"])
    assert quiet.file_cache.paths() == [] and quiet.file_cache.nbytes == 0

    # a tight budget evicts least-recently-used files and never holds
    # more than it allows
    files = sorted(eng.live_files())
    sizes = {p: pq.read_table(p).nbytes for p in files}
    budget = sum(sorted(sizes.values())[-2:])
    monkeypatch.setattr(merge_apply, "FILE_CACHE_BYTES", budget)
    cache = FileCache()
    for p in files + files[:2]:
        cache(p)
        assert cache.nbytes <= budget
    assert files[1] in cache.paths()
    assert cache.paths()[-1] == files[1]
    monkeypatch.setattr(merge_apply, "FILE_CACHE_BYTES",
                        min(sizes.values()) - 1)
    tiny = FileCache()
    assert tiny(files[0]).equals(pq.read_table(files[0]))
    assert tiny.paths() == []


def test_file_cache_rereads_rewritten_path(tmp_path):
    """Same path, new file (a resumed wave re-promotes its own path): the
    inode/size/mtime identity misses, so the new bytes are served."""
    p = str(tmp_path / "g000001-wave.parquet")
    pq.write_table(pa.table({"doc_id": ["a"], "last_lsn": [1]}), p)
    cache = FileCache()
    assert cache(p, {"last_lsn"}).column_names == ["last_lsn"]
    tmp = p + ".tmp"
    pq.write_table(pa.table({"doc_id": ["a", "b"], "last_lsn": [2, 3]}),
                   tmp)
    os.replace(tmp, p)
    assert cache(p).column("last_lsn").to_pylist() == [2, 3]
    cache.retain(set())
    assert cache.paths() == [] and cache.nbytes == 0


def test_empty_lake_reads_project_their_columns(tmp_path):
    """A lake with no manifest reads as no rows in the projection asked
    for, as a lake with rows does: ``columns`` selects (and orders) the
    default lake schema's fields; without it every field comes back."""
    from aqueduct_core_ray.pipelines.replay import default_lake_schema
    eng = CDCEngine(str(tmp_path / "empty"), num_partitions=4)
    assert eng.manifest is None
    full = default_lake_schema()
    for cols in (["doc_id"], ["n_tok", "doc_id"]):
        want = pa.schema([full.field(c) for c in cols])
        got = eng.read_lake(columns=cols).schema()
        assert got.names == cols and got.types == want.types
        assert eng.read_lake(columns=cols).count() == 0
        for ids in (["doc-1", "doc-2"], []):
            t = eng.get_docs(ids, columns=cols)
            assert t.num_rows == 0 and t.schema == want
    assert eng.read_lake().schema().names == full.names
    assert eng.get_docs(["doc-1"]).schema == full


def test_empty_reads_of_an_evolved_lake_take_the_manifest_schema(tmp_path):
    """A lake whose manifest carries an evolved schema (an added
    ``lang``, ``n_tok`` widened to int64) but no rows to read projects
    the MANIFEST's fields, in ``columns`` order, as the same reads of a
    lake with rows do."""
    from aqueduct_core_ray.sources.changelog import seed_lake
    seed = seed_lake(10, seed=1)
    seed = seed.set_column(seed.schema.get_field_index("n_tok"), "n_tok",
                           seed.column("n_tok").cast(pa.int64()))
    seed = seed.append_column("lang", pa.array(["en"] * 10, pa.string()))
    full = CDCEngine(str(tmp_path / "full"), num_partitions=4)
    full.bootstrap(seed)
    empty = CDCEngine(str(tmp_path / "empty"), num_partitions=4)
    empty.bootstrap(seed.slice(0, 0))
    assert empty.manifest is not None and not empty.manifest.partitions
    ids = seed.column("doc_id").to_pylist()[:3]
    for cols in (["lang", "n_tok"], ["n_tok", "doc_id"]):
        want = pa.schema([full.manifest.schema.field(c) for c in cols])
        assert want.field("n_tok").type == pa.int64()
        assert full.get_docs(ids, columns=cols).schema == want
        assert full.get_docs([], columns=cols).schema == want
        assert empty.get_docs(ids, columns=cols).schema == want
        assert empty.get_docs([], columns=cols).schema == want
        assert empty.read_lake(columns=cols).schema() == \
            full.read_lake(columns=cols).schema()
    assert empty.get_docs([]).schema == full.get_docs(ids).schema
    assert empty.lake_table().schema == full.lake_table().schema
