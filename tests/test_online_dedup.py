"""Online near-dup detection over the CDC changefeed: planted
duplicates in a replayed stream must surface against the persisted
token-shingle band index, O(delta) per step, idempotently."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aqueduct_core_ray.pipelines import online_dedup as od
from aqueduct_core_ray.pipelines.replay import CDCEngine


def _tokens(seed: int, n: int = 40) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 50257, n).tolist()


def _seed_table(tok_by_doc: dict[str, list[int]]) -> pa.Table:
    ids = sorted(tok_by_doc)
    return pa.table({
        "doc_id": pa.array(ids, pa.string()),
        "tokens": pa.array([tok_by_doc[d] for d in ids],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([len(tok_by_doc[d]) for d in ids],
                          pa.int32()),
        "source": pa.array(["web"] * len(ids)),
        "last_lsn": pa.array([0] * len(ids), pa.int64()),
    })


def _log(tmp, rows):
    """rows: (lsn, op, doc_id, tokens)."""
    d = str(tmp)
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.table({
        "lsn": pa.array([r[0] for r in rows], pa.int64()),
        "op": pa.array([r[1] for r in rows], pa.int8()),
        "doc_id": pa.array([r[2] for r in rows], pa.string()),
        "tokens": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[3]) if r[3] else 0 for r in rows],
                          pa.int32()),
        "source": pa.array(["web"] * len(rows)),
        "ts": pa.array([0] * len(rows), pa.timestamp("us")),
    }), os.path.join(d, "chunk-00000.parquet"))
    return d


@pytest.fixture()
def lake(tmp_path):
    toks = {f"doc{i:04d}": _tokens(i) for i in range(12)}
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.bootstrap(_seed_table(toks))
    return eng, toks, tmp_path


def test_planted_dups_surface_per_generation(lake):
    eng, toks, tmp = lake
    idx = str(tmp / "idx")
    n = od.bootstrap_dedup_index(eng, idx)
    assert n > 0 and od._read_gen(idx) == eng.manifest.generation

    near = list(toks["doc0007"])
    near[0] = (near[0] + 1) % 50257          # 39/40 shingles shared
    log1 = _log(tmp / "log1", [
        (1, 0, "new0", toks["doc0003"]),     # exact dup of doc0003
        (2, 0, "new1", _tokens(999)),        # fresh content
        (3, 0, "doc0005", near),             # update: now near doc0007
    ])
    eng.replay(log1, [(0, 3)])
    m, g_from, g_to = od.online_dedup_step(eng, idx)
    got = {r["doc_id"]: (r["dup_of"], r["est_jaccard_pct"])
           for r in m.to_pylist()}
    assert got["new0"] == ("doc0003", 100)
    assert "new1" not in got
    dup_of, est = got["doc0005"]
    assert dup_of == "doc0007" and est >= 80
    assert g_to == eng.manifest.generation
    assert od._read_gen(idx) == g_to

    # second step: a dup of a doc that arrived ONLINE (new1) — proves
    # the index absorbed generation 1's docs
    log2 = _log(tmp / "log2", [(4, 0, "new2", _tokens(999))])
    eng.replay(log2, [(3, 4)])
    m2, _, _ = od.online_dedup_step(eng, idx)
    got2 = {r["doc_id"]: (r["dup_of"], r["est_jaccard_pct"])
            for r in m2.to_pylist()}
    assert got2["new2"] == ("new1", 100)

    # idle step: watermark current, nothing recomputed
    m3, a, b = od.online_dedup_step(eng, idx)
    assert m3.num_rows == 0 and a == b


def test_step_exchange_stays_under_the_lake(lake, monkeypatch):
    """An engine-invoked online-dedup step routes its match exchange to
    <lake>/_exchange, never the system tempdir. Exchange dirs are kept
    after use here (rmtree skips them) so the check sees where they
    were made."""
    import shutil
    import tempfile

    eng, toks, tmp = lake
    idx = str(tmp / "idx")
    od.bootstrap_dedup_index(eng, idx)
    eng.replay(_log(tmp / "log1", [(1, 0, "new0", toks["doc0003"])]),
               [(0, 1)])
    sys_tmp = tmp / "systmp"
    sys_tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(sys_tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)
    monkeypatch.delenv("AQR_EXCHANGE_ROOT", raising=False)
    assert tempfile.gettempdir() == str(sys_tmp)
    real_rmtree = shutil.rmtree

    def keep_exchange_dirs(path, *a, **k):
        if os.path.basename(str(path)).startswith("aqr_xchg_"):
            return None
        return real_rmtree(path, *a, **k)

    monkeypatch.setattr(shutil, "rmtree", keep_exchange_dirs)
    m, _, _ = od.online_dedup_step(eng, idx)
    assert m.column("doc_id").to_pylist() == ["new0"]
    assert list(sys_tmp.glob("aqr_xchg_*")) == []
    lake_xchg = os.path.join(eng.store.root, "_exchange")
    assert [d for d in os.listdir(lake_xchg) if d.startswith("aqr_xchg_")]


def test_deleted_docs_are_not_matched_or_indexed(lake):
    eng, toks, tmp = lake
    idx = str(tmp / "idx")
    od.bootstrap_dedup_index(eng, idx)
    log1 = _log(tmp / "log1", [
        (1, 1, "doc0002", None),             # tombstone
        (2, 0, "new0", _tokens(777)),
    ])
    eng.replay(log1, [(0, 2)])
    m, _, _ = od.online_dedup_step(eng, idx)
    assert "doc0002" not in m.column("doc_id").to_pylist()


def test_step_without_bootstrap_raises(lake):
    eng, _, tmp = lake
    with pytest.raises(FileNotFoundError):
        od.online_dedup_step(eng, str(tmp / "missing_idx"))


def test_crash_replay_is_idempotent(lake):
    """A crash between match and watermark replays the window: band
    rows double-append, but matches are identical and dup-collapsed."""
    eng, toks, tmp = lake
    idx = str(tmp / "idx")
    od.bootstrap_dedup_index(eng, idx)
    g0 = od._read_gen(idx)
    log1 = _log(tmp / "log1", [(1, 0, "new0", toks["doc0003"])])
    eng.replay(log1, [(0, 1)])
    m1, _, _ = od.online_dedup_step(eng, idx)
    # simulate the crash: watermark rolled back, index keeps the rows
    od._write_gen(idx, g0)
    m2, _, _ = od.online_dedup_step(eng, idx)
    assert sorted(m1.to_pylist(), key=str) == \
        sorted(m2.to_pylist(), key=str)


def test_cli_dedup_bootstrap_and_step(lake, capsys):
    import json

    from aqueduct_core_ray import cli
    eng, toks, tmp = lake
    idx = str(tmp / "idx")
    assert cli.main(["dedup", "--lake", str(tmp / "lake"),
                     "--index", idx, "--bootstrap"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["band_rows"] > 0
    log1 = _log(tmp / "log1", [(1, 0, "new0", toks["doc0003"])])
    eng.replay(log1, [(0, 1)])
    assert cli.main(["dedup", "--lake", str(tmp / "lake"),
                     "--index", idx]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_matches"] == 1
    assert out["matches"][0]["doc_id"] == "new0"
    assert out["matches"][0]["dup_of"] == "doc0003"


def test_intra_delta_dups_flagged_and_crash_stable(lake):
    """A wave carrying two copies of NEW content flags the larger id
    against the smaller, identically before and after a crash replay —
    and a doc whose best candidate is its intra-delta sibling still
    reports its cross-generation match."""
    eng, toks, tmp = lake
    idx = str(tmp / "idx")
    od.bootstrap_dedup_index(eng, idx)
    g0 = od._read_gen(idx)
    fresh = _tokens(555)
    log1 = _log(tmp / "log1", [
        (1, 0, "newa", fresh),               # new content, twice
        (2, 0, "newb", fresh),
        (3, 0, "newc", toks["doc0003"]),     # copies corpus AND newd
        (4, 0, "newd", toks["doc0003"]),
    ])
    eng.replay(log1, [(0, 4)])
    m1, _, _ = od.online_dedup_step(eng, idx)
    got = {r["doc_id"]: r["dup_of"] for r in m1.to_pylist()}
    assert got["newb"] == "newa"             # intra-delta: larger -> smaller
    assert "newa" not in got                 # keeper reports nothing
    # newc/newd both dup corpus doc0003; the intra-delta pair must not
    # shadow the cross-generation match for the smaller id
    assert got["newc"] == "doc0003"
    assert got["newd"] in ("doc0003", "newc")
    # crash replay: identical output
    od._write_gen(idx, g0)
    m2, _, _ = od.online_dedup_step(eng, idx)
    assert sorted(m1.to_pylist(), key=str) == \
        sorted(m2.to_pylist(), key=str)
