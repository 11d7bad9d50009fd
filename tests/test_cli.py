"""CLI surface: replay (resume), tail, verify, retention, wipe — driven
in-process (Ray session provided by the test fixture)."""

import json
import os

import pytest

from aqueduct_core_ray.cli import main
from aqueduct_core_ray.sources.changelog import (
    ChangelogSpec,
    write_changelog,
    write_seed_lake,
)

SPEC = ChangelogSpec(n_docs=150, n_events=1_200, seed=9, chunk_size=400,
                     n_waves=2)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    log = write_changelog(SPEC, str(tmp_path_factory.mktemp("log")))
    seed = write_seed_lake(
        SPEC, str(tmp_path_factory.mktemp("s") / "seed.parquet"))
    return log, seed


def run(argv, capsys):
    rc = main(argv)
    out = [json.loads(line) for line in
           capsys.readouterr().out.strip().splitlines()]
    return rc, out


def _emptied_lake(tmp_path) -> str:
    """A lake whose generation 0 holds one doc and generation 1 none
    (wave 2 deletes it)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.pipelines.replay import CDCEngine
    log = tmp_path / "log1"
    log.mkdir()
    pq.write_table(pa.table({
        "lsn": pa.array([1, 2], pa.int64()),
        "op": pa.array([0, 1], pa.int8()),
        "doc_id": pa.array(["a", "a"]),
        "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1], pa.int32()),
        "source": pa.array(["web", "web"]),
        "ts": pa.array([np.datetime64("2020-01-01", "us")] * 2),
    }), str(log / "chunk-00000.parquet"))
    lake = str(tmp_path / "emptied")
    CDCEngine(lake, num_partitions=2, derivations=()).replay(
        str(log), [(0, 1), (1, 2)])
    return lake


def test_replay_verify_wipe_roundtrip(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")

    rc, out = run(["replay", "--log", log, "--lake", lake, "--seed", seed,
                   "--partitions", "6", "--waves", "2"], capsys)
    assert rc == 0
    assert out[0]["bootstrap"]["wave_id"] == "bootstrap"
    # last WAVE record (a trailing settled_absorbs line may follow now
    # that background absorbs are the default)
    assert [r for r in out if "watermark" in r][-1]["watermark"] \
        == SPEC.n_events

    # re-running the same command IS resume: all waves skip
    rc, out = run(["replay", "--log", log, "--lake", lake,
                   "--partitions", "6", "--waves", "2"], capsys)
    assert rc == 0
    assert all(w.get("skipped") for w in out)

    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 0 and out[0]["ok"] and out[0]["mismatches"] == []
    assert out[0]["watermark"] == SPEC.n_events

    rc, out = run(["bootstrap-wipe", "--lake", lake], capsys)
    assert rc == 0 and out[0]["ok"]
    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 1


def test_verify_detects_corruption(inputs, tmp_path, capsys):
    import os
    log, seed = inputs
    lake = str(tmp_path / "lake")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "1"], capsys)
    # corrupt: delete a partition file the CURRENT manifest references
    with open(os.path.join(lake, "CURRENT")) as f:
        name = f.read().strip()
    with open(os.path.join(lake, "manifests", name)) as f:
        man = json.load(f)
    victim = os.path.join(lake, next(iter(man["partitions"].values()))["path"])
    os.remove(victim)
    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 1 and out[0]["mismatches"]


def test_retention_cli(inputs, tmp_path, capsys):
    import pyarrow.parquet as pq
    log, _ = inputs
    out_dir = str(tmp_path / "compacted")
    rc, out = run(["retention", "--log", log, "--out", out_dir,
                   "--compact-ts-us", str(7_000_000_000_000_000)],
                  capsys)
    assert rc == 0
    import glob
    rows = sum(pq.read_metadata(f).num_rows
               for f in glob.glob(out_dir + "/*.parquet"))
    assert 0 < rows < SPEC.n_events          # compaction removed dups


def test_rebuild_recovers_corruption(inputs, tmp_path, capsys):
    """CORRUPTION_RECOVERY end-to-end: delete one partition file AND
    truncate another; verify flags both; `rebuild --auto` re-derives them
    from log+seed; verify passes and the consistency sum is unchanged."""
    import os

    import pyarrow.parquet as pq
    log, seed = inputs
    lake = str(tmp_path / "lake")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "2"], capsys)
    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 0
    csum_before = out[0]["consistency_sum"]
    rows_before = out[0]["rows"]

    with open(os.path.join(lake, "CURRENT")) as f:
        name = f.read().strip()
    with open(os.path.join(lake, "manifests", name)) as f:
        man = json.load(f)
    parts = sorted(man["partitions"].items(), key=lambda kv: int(kv[0]))
    victim_del = os.path.join(lake, parts[0][1]["path"])
    victim_trunc = os.path.join(lake, parts[1][1]["path"])
    os.remove(victim_del)
    t = pq.read_table(victim_trunc)
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), victim_trunc)

    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 1 and len(out[0]["mismatches"]) == 2

    rc, out = run(["rebuild", "--log", log, "--lake", lake, "--seed", seed,
                   "--partitions", "4", "--auto"], capsys)
    assert rc == 0 and len(out[0]["rebuilt"]) == 2

    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 0 and out[0]["ok"]
    assert out[0]["consistency_sum"] == csum_before
    assert out[0]["rows"] == rows_before


def test_status_and_prune_outbox(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "2"], capsys)
    rc, out = run(["status", "--lake", lake], capsys)
    assert rc == 0 and out[0]["ok"]
    assert out[0]["watermark"] == SPEC.n_events
    assert out[0]["partitions"] == 4 and out[0]["consumers"] == []

    # prune with no registered consumers must refuse
    rc, out = run(["prune-outbox", "--lake", lake,
                   "--below-lsn", "100"], capsys)
    assert rc == 1 and "consumers" in out[0]["error"]


def test_vacuum_diff_clone_cli(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")
    rc, _ = run(["replay", "--lake", lake, "--log", log,
                 "--seed", seed, "--partitions", "4"], capsys)
    assert rc == 0

    # diff: bootstrap (gen 0) -> CURRENT, counts + bounded sample
    rc, out = run(["diff", "--lake", lake, "--from-gen", "0",
                   "--sample", "3"], capsys)
    assert rc == 0 and out[-1]["ok"]
    assert sum(out[-1]["changed"].values()) > 0
    assert len(out[-1]["sample"]) <= 3

    # clone: branch, then verify the branch is a committed, equal lake
    dst = str(tmp_path / "branch")
    rc, out = run(["clone", "--lake", lake, "--dst", dst], capsys)
    assert rc == 0 and out[-1]["ok"]
    rc, out = run(["verify", "--lake", dst], capsys)
    assert rc == 0 and out[-1]["ok"]

    # vacuum: shrink to the newest generation; CURRENT stays readable
    rc, out = run(["vacuum", "--lake", lake, "--keep", "1"], capsys)
    assert rc == 0 and out[-1]["ok"] and out[-1]["removed_files"] > 0
    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 0 and out[-1]["ok"]
    # unknown lake fails loudly
    rc, out = run(["vacuum", "--lake", str(tmp_path / "nope")], capsys)
    assert rc == 1 and not out[-1]["ok"]


def test_get_point_read_cli(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")
    rc, _ = run(["replay", "--lake", lake, "--log", log,
                 "--seed", seed, "--partitions", "4"], capsys)
    assert rc == 0
    rc, out = run(["get", "--lake", lake,
                   "--ids", "doc00000001,doc00000002,missing",
                   "--columns", "doc_id,n_tok,last_lsn"], capsys)
    assert rc == 0 and out[-1]["ok"]
    docs = {d["doc_id"]: d for d in out[-1]["docs"]}
    assert "missing" not in docs
    for d in docs.values():
        assert set(d) == {"doc_id", "n_tok", "last_lsn"}


def test_diff_changefeed_export_cli(inputs, tmp_path, capsys):
    import pyarrow.parquet as pq
    log, seed = inputs
    lake = str(tmp_path / "lake")
    rc, _ = run(["replay", "--lake", lake, "--log", log,
                 "--seed", seed, "--partitions", "4"], capsys)
    assert rc == 0
    out_dir = str(tmp_path / "feed")
    rc, out = run(["diff", "--lake", lake, "--from-gen", "0",
                   "--columns", "tokens,n_tok", "--out", out_dir,
                   "--sample", "2"], capsys)
    assert rc == 0 and out[-1]["ok"]
    feed = pq.read_table(out_dir)
    assert {"doc_id", "change", "lsn_old", "lsn_new",
            "tokens", "n_tok"} <= set(feed.column_names)
    assert feed.num_rows == sum(out[-1]["changed"].values())
    df = feed.to_pandas()
    dead = df[df["change"] == "deleted"]
    assert dead["n_tok"].isna().all()
    live = df[df["change"] != "deleted"]
    assert live["n_tok"].notna().all()
    # a diff without rows reports no change and writes no file
    emptied = _emptied_lake(tmp_path)
    for cols in ([], ["--columns", "n_tok"]):
        out_dir = str(tmp_path / f"empty{len(cols)}")
        rc, out = run(["diff", "--lake", emptied, "--from-gen", "1",
                       "--to-gen", "1", *cols, "--out", out_dir], capsys)
        assert rc == 0
        assert out[-1] == {"ok": True, "from": 1, "to": 1, "changed": {},
                           "sample": []}
        assert not os.path.exists(out_dir)
    rc, out = run(["diff", "--lake", emptied, "--from-gen", "0",
                   "--to-gen", "1", "--columns", "n_tok", "--out",
                   str(tmp_path / "gone")], capsys)
    assert out[-1]["changed"] == {"deleted": 1}
    assert pq.read_table(str(tmp_path / "gone")).to_pylist() == [
        {"doc_id": "a", "change": "deleted", "lsn_old": 1,
         "lsn_new": None, "n_tok": None}]


def test_diff_changefeed_columns_validation(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")
    rc, _ = run(["replay", "--lake", lake, "--log", log,
                 "--seed", seed, "--partitions", "4"], capsys)
    assert rc == 0
    # whitespace around names is tolerated
    out_dir = str(tmp_path / "feed")
    rc, out = run(["diff", "--lake", lake, "--from-gen", "0",
                   "--columns", " tokens , n_tok ", "--out", out_dir],
                  capsys)
    assert rc == 0 and out[-1]["ok"]
    import pyarrow.parquet as pq
    assert {"tokens", "n_tok"} <= set(pq.read_table(out_dir).column_names)
    # an unknown column fails loudly instead of silently dropping
    rc, out = run(["diff", "--lake", lake, "--from-gen", "0",
                   "--columns", "tokens,nope"], capsys)
    assert rc == 1 and "nope" in out[-1]["error"]


def test_reshard_cli(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")
    rc, _ = run(["replay", "--lake", lake, "--log", log,
                 "--seed", seed, "--partitions", "4"], capsys)
    assert rc == 0
    dst = str(tmp_path / "lake6")
    rc, out = run(["reshard", "--lake", lake, "--dst", dst,
                   "--partitions", "6"], capsys)
    assert rc == 0 and out[-1]["ok"] and out[-1]["partitions"] == 6
    assert out[-1]["watermark"] == SPEC.n_events
    rc, out = run(["verify", "--lake", dst], capsys)
    assert rc == 0 and out[-1]["ok"]
    # refuses to clobber
    rc, out = run(["reshard", "--lake", lake, "--dst", dst,
                   "--partitions", "3"], capsys)
    assert rc == 1 and not out[-1]["ok"]


def test_reshard_cli_refuses_policy_marked_lake(tmp_path, capsys):
    """The CLI cannot reconstruct a non-default conflict policy; a lake
    whose schema carries fences must be refused, not silently LWW-ed."""
    from aqueduct_core_ray.pipelines.replay import CDCEngine
    from aqueduct_core_ray.stages.compact import ConflictPolicy
    import pyarrow as pa
    import pyarrow.parquet as pq
    import numpy as np
    log = tmp_path / "log"
    log.mkdir()
    t = pa.table({
        "lsn": pa.array([1, 2], pa.int64()),
        "op": pa.array([1, 0], pa.int8()),
        "doc_id": pa.array(["a", "b"]),
        "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1], pa.int32()),
        "source": pa.array(["web", "web"]),
        "ts": pa.array([np.datetime64("2020-01-01", "us")] * 2),
    })
    pq.write_table(t, str(log / "chunk-00000.parquet"))
    eng = CDCEngine(str(tmp_path / "fww"), num_partitions=2,
                    derivations=(),
                    conflict=ConflictPolicy(keep="earliest"))
    eng.replay(str(log), [(0, 2)])
    rc, out = run(["reshard", "--lake", str(tmp_path / "fww"),
                   "--dst", str(tmp_path / "dst"),
                   "--partitions", "3"], capsys)
    assert rc == 1 and "conflict policy" in out[-1]["error"]


def test_export_cli(inputs, tmp_path, capsys):
    import pyarrow.parquet as pq
    log, seed = inputs
    lake = str(tmp_path / "lake")
    rc, _ = run(["replay", "--lake", lake, "--log", log,
                 "--seed", seed, "--partitions", "4"], capsys)
    assert rc == 0
    out_dir = str(tmp_path / "export")
    rc, out = run(["export", "--lake", lake, "--out", out_dir,
                   "--columns", "doc_id, n_tok"], capsys)
    assert rc == 0 and out[-1]["ok"]
    t = pq.read_table(out_dir)
    assert t.column_names == out[-1]["columns"] == ["doc_id", "n_tok"]
    assert t.num_rows == out[-1]["rows"] > 0
    from aqueduct_core_ray.pipelines.replay import CDCEngine
    want = CDCEngine(lake, num_partitions=None).lake_table()
    assert t.sort_by("doc_id").equals(want.select(["doc_id", "n_tok"]))
    # generation 0 export = the bootstrap snapshot
    out0 = str(tmp_path / "export0")
    rc, res = run(["export", "--lake", lake, "--out", out0,
                   "--generation", "0"], capsys)
    assert rc == 0 and res[-1]["ok"]
    assert pq.read_table(out0).num_rows == SPEC.n_docs
    # unknown generation fails loudly
    rc, res = run(["export", "--lake", lake, "--out",
                   str(tmp_path / "nope"), "--generation", "99"], capsys)
    assert rc == 1 and not res[-1]["ok"]
    # a generation without rows exports none and writes no file
    emptied = _emptied_lake(tmp_path)
    for g, rows in (("0", 1), ("1", 0)):
        out_g = str(tmp_path / f"emptied{g}")
        rc, res = run(["export", "--lake", emptied, "--out", out_g,
                       "--columns", "doc_id,n_tok", "--generation", g],
                      capsys)
        assert rc == 0
        assert res[-1] == {"ok": True, "out": out_g, "rows": rows,
                           "columns": ["doc_id", "n_tok"]}
        assert (pq.read_table(out_g).num_rows if rows
                else not os.path.exists(out_g))


def test_export_diff_sql_start_no_execution(inputs, tmp_path, capsys,
                                            executions):
    """The lake-reading commands run on map_lake / diff_refs tasks: no
    Ray Data execution in the CLI process."""
    log, seed = inputs
    lake = str(tmp_path / "lake")
    run(["replay", "--lake", lake, "--log", log, "--seed", seed,
         "--partitions", "4"], capsys)
    before = len(executions)
    rc, out = run(["export", "--lake", lake, "--out",
                   str(tmp_path / "ex")], capsys)
    assert rc == 0 and out[-1]["rows"] > 0
    rc, out = run(["diff", "--lake", lake, "--from-gen", "0",
                   "--columns", "n_tok", "--out", str(tmp_path / "d")],
                  capsys)
    assert rc == 0 and sum(out[-1]["changed"].values()) > 0
    rc, out = run(["sql", "--lake", lake, "--query",
                   "select count(*) as n from lake"], capsys)
    assert rc == 0 and out[-1]["data"][0]["n"] > 0
    assert len(executions) == before


def test_search_cli(tmp_path, capsys):
    import pyarrow as pa
    import pyarrow.parquet as pq
    texts = ["alpha beta gamma", "beta alpha gamma", "nothing here"]
    t = pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet")
    rc = main(["search", "--sf-dir", str(sf),
                   "--needle", "alpha beta", "--needle", "zzz",
                   "--index-root", str(tmp_path / "idx")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["ok"] and out["matches"]["alpha beta"] == [0]
    assert out["matches"]["zzz"] == []


def test_migrate_cli(inputs, tmp_path, capsys):
    log, seed = inputs
    run(["replay", "--lake", str(tmp_path / "lake"), "--seed", seed,
         "--log", log, "--waves", "1"], capsys)
    rc = main(["migrate", "--lake", str(tmp_path / "lake"),
               "--dst", str(tmp_path / "lake2"),
               "--rename", "n_tok:token_count", "--drop", "tokens"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["ok"]
    assert "token_count" in out["columns"]
    assert "n_tok" not in out["columns"]
    assert "tokens" not in out["columns"]
    # envelope protection surfaces as a clean error, not a traceback
    rc = main(["migrate", "--lake", str(tmp_path / "lake"),
               "--dst", str(tmp_path / "lake3"),
               "--rename", "doc_id:key"])
    assert rc == 1


def test_status_detail(inputs, tmp_path, capsys):
    log, seed = inputs
    run(["replay", "--lake", str(tmp_path / "lake"), "--seed", seed,
         "--log", log, "--waves", "2"], capsys)
    rc = main(["status", "--lake", str(tmp_path / "lake"), "--detail"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    d = out["detail"]
    assert d["bytes_max"] >= d["bytes_p50"] >= d["bytes_min"] > 0
    assert sum(d["chain_depth_hist"].values()) == out["partitions"]
    assert len(d["largest_partitions"]) >= 1


def test_search_cli_lake_mode(tmp_path, capsys):
    from aqueduct_core_ray.sources.jsonl import stage_jsonl_to_log
    lines = [
        {"msg_offset": 1, "msg_key": "a", "type": "t",
         "created_utc": "2024-01-01T00:00:01Z",
         "data": "alpha beta gamma"},
        {"msg_offset": 2, "msg_key": "b", "type": "t",
         "created_utc": "2024-01-01T00:00:02Z", "data": "other text"},
    ]
    src = tmp_path / "m.jsonl"
    with open(src, "w") as f:
        for r in lines:
            f.write(json.dumps(r) + "\n")
    log = stage_jsonl_to_log(str(src), str(tmp_path / "log"))
    run(["replay", "--lake", str(tmp_path / "lake"), "--log", log,
         "--waves", "1"], capsys)
    rc = main(["search", "--lake", str(tmp_path / "lake"),
               "--needle", "alpha beta"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["ok"] and out["matches"]["alpha beta"] == ["a"]
    assert out["refresh"]["mode"] == "full"


def test_checksum_compare(inputs, tmp_path, capsys):
    """`checksum --against`: exit 0 + ok on two converged replicas
    (different partition counts), exit 1 + the diverged bucket list when
    one replica lags a wave."""
    log, seed = inputs
    a, b, c = (str(tmp_path / n) for n in ("a", "b", "c"))
    run(["replay", "--log", log, "--lake", a, "--seed", seed,
         "--partitions", "6", "--waves", "2"], capsys)
    run(["replay", "--log", log, "--lake", b, "--seed", seed,
         "--partitions", "3", "--waves", "2"], capsys)
    run(["replay", "--log", log, "--lake", c, "--seed", seed,
         "--partitions", "6", "--waves", "1",
         "--watermark", str(SPEC.n_events // 2)], capsys)

    rc, out = run(["checksum", "--lake", a], capsys)
    assert rc == 0 and len(out[0]["buckets"]) == 16

    rc, out = run(["checksum", "--lake", a, "--against", b], capsys)
    assert rc == 0 and out[0]["ok"] and not out[0]["diverged_buckets"]

    rc, out = run(["checksum", "--lake", a, "--against", c], capsys)
    assert rc == 1 and not out[0]["ok"] and out[0]["diverged_buckets"]


def test_restore_cli(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "2"], capsys)
    rc, out = run(["restore", "--lake", lake, "--to-generation", "1"],
                  capsys)
    assert rc == 0 and out[0]["restored_generation"] == 1
    rc, out = run(["restore", "--lake", lake, "--to-generation", "99"],
                  capsys)
    assert rc == 1 and "generation 99" in out[0]["error"]


def test_optimize_cli(inputs, tmp_path, capsys):
    log, seed = inputs
    lake = str(tmp_path / "lake")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "2"], capsys)
    rc, out = run(["optimize", "--lake", lake, "--keep", "1"], capsys)
    assert rc == 0 and out[0]["ok"]
    rc, out = run(["verify", "--lake", lake], capsys)
    assert rc == 0 and out[0]["ok"]


def test_checksum_maintained_index_cli(inputs, tmp_path, capsys):
    """checksum --index: first call bootstraps (full), later calls
    delta-refresh; maintained buckets equal the full-rescan buckets."""
    log, seed = inputs
    lake, idx = str(tmp_path / "lake"), str(tmp_path / "cks")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "1",
         "--watermark", str(SPEC.n_events // 2)], capsys)
    rc, out = run(["checksum", "--lake", lake, "--index", idx], capsys)
    assert rc == 0 and out[0]["refresh"]["mode"] == "full"
    run(["replay", "--log", log, "--lake", lake,
         "--partitions", "4", "--waves", "1"], capsys)
    rc, out = run(["checksum", "--lake", lake, "--index", idx], capsys)
    assert rc == 0 and out[0]["refresh"]["mode"] == "delta"
    rc, full = run(["checksum", "--lake", lake], capsys)
    assert rc == 0 and out[0]["buckets"] == full[0]["buckets"]


def test_diff_before_image_cli(inputs, tmp_path, capsys):
    import glob

    import pyarrow.dataset as pads
    log, seed = inputs
    lake, out = str(tmp_path / "lake"), str(tmp_path / "feed")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "2"], capsys)
    rc, o = run(["diff", "--lake", lake, "--from-gen", "0",
                 "--columns", "n_tok", "--before-image",
                 "--out", out], capsys)
    assert rc == 0 and o[-1]["ok"]
    t = pads.dataset(glob.glob(out + "/*.parquet")).to_table()
    assert "n_tok" in t.column_names and "n_tok_old" in t.column_names


def test_sql_console_cli(inputs, tmp_path, capsys):
    """`sql`: ad-hoc DuckDB over the live lake view, incl. time travel
    and loud SQL errors."""
    log, seed = inputs
    lake = str(tmp_path / "lake")
    run(["replay", "--log", log, "--lake", lake, "--seed", seed,
         "--partitions", "4", "--waves", "2"], capsys)
    rc, out = run(["sql", "--lake", lake, "--query",
                   "SELECT count(*) AS n, max(last_lsn) AS m FROM lake"],
                  capsys)
    assert rc == 0 and out[0]["ok"]
    assert out[0]["data"][0]["m"] == SPEC.n_events
    # time travel: generation 0 is the bootstrap (all lsn 0)
    rc, out = run(["sql", "--lake", lake, "--generation", "0",
                   "--query", "SELECT max(last_lsn) AS m FROM lake"],
                  capsys)
    assert rc == 0 and out[0]["data"][0]["m"] == 0
    rc, out = run(["sql", "--lake", lake, "--query", "SELEC nope"],
                  capsys)
    assert rc == 1 and not out[0]["ok"]
