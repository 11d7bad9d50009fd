"""Composed curation pipeline: language gate, quality gate,
decontamination, exact dedup and sharded export — stage attrition and
survivor sets pinned on a crafted corpus."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aqueduct_core_ray.pipelines.curate import curate_corpus

BASE = ("the quick brown fox jumps over the lazy dog while the rain "
        "in spain falls mainly on the plain and every good boy does "
        "fine with extra filler words for stable shingles").split()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """0: en base, 1: exact dup of 0, 2: en near-dup (distinct fp),
    3: German, 4: junk (und/low-quality), 5: en unrelated."""
    rng = np.random.default_rng(3)
    near = list(BASE)
    near[-1] = "ending"
    texts = [
        " ".join(BASE),
        " ".join(BASE),
        " ".join(near),
        "der hund und die katze sind nicht hier mit einem ball",
        "123 456 789 000 111 !!",
        "a completely different english sentence about the weather and "
        "the sea with many common words that are clearly english",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "source": pa.array(["web"] * len(texts)),
    })
    d = tmp_path_factory.mktemp("cur")
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


def test_curate_stages_and_dedup(corpus, parts):
    parts(2)
    stats = {r["stage"]: r["n_docs"] for r in curate_corpus(
        corpus,
        benchmark=["benchmark text sharing nothing here"]).to_pylist()}
    assert stats["input"] == 6
    assert stats["lang"] == 4            # docs 0,1,2,5 are en
    assert stats["quality"] == 5         # doc 4 fails (no alpha)
    assert stats["decontaminated"] == 6  # unrelated benchmark
    assert stats["kept"] == 4
    assert stats["deduped"] == 3         # doc 1 is an exact dup of 0


def test_curate_decontamination_removes_benchmark_family(corpus, parts):
    base_text = " ".join(BASE)
    parts(2)
    stats = {r["stage"]: r["n_docs"] for r in curate_corpus(
        corpus, benchmark=[base_text], min_hits=3).to_pylist()}
    # docs 0,1 (exact) and 2 (near-dup) share >=3 shingles with the
    # benchmark -> only doc 5 survives of the en docs
    assert stats["kept"] == 1 and stats["deduped"] == 1


def test_curate_export_is_resumable(corpus, tmp_path, parts):
    import pyarrow.dataset as pads

    out = str(tmp_path / "curated")
    parts(2)
    curate_corpus(corpus, out_dir=out,
                  benchmark=["benchmark text sharing nothing here"],
                  n_shards=2)
    assert os.path.exists(os.path.join(out, "_EXPORTED"))
    t = pads.dataset(out, partitioning="hive").to_table()
    assert sorted(t.column("doc_id").to_pylist()) == [0, 2, 5]
    # rerun with the marker present: export untouched
    m = os.path.getmtime(os.path.join(out, "_EXPORTED"))
    parts(2)
    curate_corpus(corpus, out_dir=out,
                  benchmark=["benchmark text sharing nothing here"],
                  n_shards=2)
    assert os.path.getmtime(os.path.join(out, "_EXPORTED")) == m


def test_train_pipeline_conserves_tokens(tmp_path):
    """Composed curate->tokenize->pack->export: per-stage attrition is
    monotone, packed tokens exactly equal the surviving docs' token
    count, every doc lands in exactly one pack, and a re-run reuses the
    export with an identical manifest."""
    from aqueduct_core_ray.pipelines.curate import (
        _curated_docs,
        train_pipeline,
    )
    from aqueduct_core_ray.pipelines.events_replay import tokenize_batch

    import ray.data

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "tp")
    t = train_pipeline(sf, out_dir=out, context_len=256).to_pylist()[0]
    assert t["docs_in"] >= t["docs_kept"] >= t["docs_packed"] > 0

    refs, _ = _curated_docs(sf)
    ded = ray.data.from_arrow_refs(refs)
    want = int(ded.map_batches(tokenize_batch, batch_format="pyarrow")
               .sum("n_tok"))
    assert t["total_tokens"] == want
    assert t["n_packs"] >= -(-want // 256)
    assert t["docs_packed"] == ded.count()

    t2 = train_pipeline(sf, out_dir=out, context_len=256).to_pylist()[0]
    assert t2["reused_export"] == 1
    for k in ("docs_packed", "n_packs", "total_tokens"):
        assert t2[k] == t[k]


def test_train_pipeline_repartition_invalidates_export(tmp_path):
    """Review-finding regression: pack boundaries depend on
    num_partitions, so a re-run at a different P must rewrite the
    export, never reuse it."""
    from aqueduct_core_ray.pipelines.curate import train_pipeline

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "tp")
    a = train_pipeline(sf, out_dir=out, num_partitions=16).to_pylist()[0]
    b = train_pipeline(sf, out_dir=out, num_partitions=4).to_pylist()[0]
    assert b["reused_export"] == 0
    assert a["total_tokens"] == b["total_tokens"]   # content conserved


def test_curate_flags_each_document_once(tmp_path, monkeypatch):
    """The flag stage runs once per document: its block refs feed the
    attrition fold and both dedup exchanges."""
    from aqueduct_core_ray.pipelines import curate

    from test_analytics import SF       # the sf0.001 testdata tables

    log = tmp_path / "flagged.txt"
    real = curate._flags_stage

    def counting(*a, **k):
        flags = real(*a, **k)

        def counted(t: pa.Table) -> pa.Table:
            with open(log, "a") as f:
                f.write(f"{t.num_rows}\n")
            return flags(t)
        return counted

    monkeypatch.setattr(curate, "_flags_stage", counting)
    out = curate.curate_corpus(SF).to_pydict()
    n_docs = pq.read_metadata(os.path.join(SF, "documents.parquet")).num_rows
    assert sum(int(x) for x in log.read_text().split()) == n_docs
    assert out["n_docs"][0] == n_docs
