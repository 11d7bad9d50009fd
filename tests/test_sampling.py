"""Deterministic sampling: reproducibility, nesting, per-source rates,
mixture rebalancing toward target weights."""

import numpy as np
import pytest

from aqueduct_core_ray.functions.sampling import (
    mixture_resample,
    stratified_sample,
)

SF = "/root/testdata/sf0.01"          # 500+ docs, 4 sources


def ids(ds):
    return sorted(r["doc_id"] for r in
                  ds.select_columns(["doc_id"]).take_all())


def test_deterministic_and_nested():
    a1 = ids(stratified_sample(SF, default_frac=0.3))
    a2 = ids(stratified_sample(SF, default_frac=0.3))
    assert a1 == a2                           # reproducible
    big = set(ids(stratified_sample(SF, default_frac=0.6)))
    assert set(a1) <= big                     # nested: 30% ⊂ 60%


def test_per_source_rates():
    full = stratified_sample(SF, default_frac=1.0)
    by_src = {}
    for r in full.select_columns(["source"]).take_all():
        by_src[r["source"]] = by_src.get(r["source"], 0) + 1
    some = sorted(by_src)[0]
    kept = stratified_sample(SF, fracs={some: 0.0}, default_frac=1.0)
    got = {r["source"] for r in kept.select_columns(["source"]).take_all()}
    assert some not in got and len(got) == len(by_src) - 1

    half = stratified_sample(SF, default_frac=0.5)
    n = half.count()
    total = sum(by_src.values())
    assert 0.35 * total <= n <= 0.65 * total  # ~50% within tolerance


def test_mixture_resample_targets_weights():
    # 2:1 target between two real sources; others dropped
    out = mixture_resample(SF, {"src0": 2.0, "src1": 1.0})
    by_src = {}
    for r in out.select_columns(["source"]).take_all():
        by_src[r["source"]] = by_src.get(r["source"], 0) + 1
    assert set(by_src) <= {"src0", "src1"}    # unweighted sources dropped
    a, b = by_src.get("src0", 0), by_src.get("src1", 0)
    assert a and b
    # src0 is the constrained source (higher weight, equal counts):
    # it keeps everything; src1 downsamples to ~half
    assert a == 25
    assert 6 <= b <= 20                       # ~12.5 expected, hash noise


def test_mixture_unknown_source_rejected():
    with pytest.raises(ValueError):
        mixture_resample(SF, {"nope": 1.0, "src0": 1.0})


def test_export_training_shards(tmp_path):
    import json
    import os

    import pyarrow.dataset as pads

    from aqueduct_core_ray.functions.sampling import export_training_shards

    corpus = SF
    out = str(tmp_path / "shards")
    st = export_training_shards(corpus, out, n_shards=4, seed=9)
    assert st["skipped"] == 0 and st["shards"] == 4
    assert os.path.exists(os.path.join(out, "_EXPORTED"))
    d = pads.dataset(out, partitioning="hive")
    t = d.to_table()
    ids = sorted(t.column("doc_id").to_pylist())
    import pyarrow.parquet as pq
    want = sorted(pq.read_table(f"{corpus}/documents.parquet",
                                columns=["doc_id"])
                  .column("doc_id").to_pylist())
    assert ids == want                        # every doc exactly once
    shards = set(t.column("shard").to_pylist())
    assert len(shards) > 1                    # actually spread
    # deterministic: a second export to a fresh dir is content-identical
    out2 = str(tmp_path / "shards2")
    export_training_shards(corpus, out2, n_shards=4, seed=9)
    t2 = pads.dataset(out2, partitioning="hive").to_table()
    key = lambda tab: sorted(zip(tab.column("doc_id").to_pylist(),
                                 tab.column("shard").to_pylist()))
    assert key(t) == key(t2)
    # resumable: marker short-circuits the rerun
    again = export_training_shards(corpus, out, n_shards=4, seed=9)
    assert again["skipped"] == 1 and again["docs"] == st["docs"]
    # crashed half-export (no marker) is rewritten cleanly
    os.remove(os.path.join(out, "_EXPORTED"))
    redo = export_training_shards(corpus, out, n_shards=4, seed=9)
    assert redo["skipped"] == 0
    t3 = pads.dataset(out, partitioning="hive").to_table()
    assert key(t3) == key(t2)


def test_shard_writers_run_raw_tasks(tmp_path, executions):
    """export_training_shards and train_pipeline write their shards
    from raw tasks, with no Ray Data execution; a doc's shard is the
    keyed hash of (doc_id, seed), and the marker counts the writers'
    rows."""
    import numpy as np
    import pandas as pd
    import pyarrow.dataset as pads

    from aqueduct_core_ray.functions.sampling import export_training_shards
    from aqueduct_core_ray.pipelines.curate import train_pipeline

    out = str(tmp_path / "shards")
    st = export_training_shards(SF, out, n_shards=4, seed=9)
    t = pads.dataset(out, partitioning="hive").to_table()
    ids = t.column("doc_id").to_numpy()
    want = pd.util.hash_array(ids + np.int64(9), categorize=False) % 4
    assert (t.column("shard").to_numpy() == want).all()
    assert st["docs"] == t.num_rows
    man = train_pipeline(SF, out_dir=str(tmp_path / "train"))
    assert man.column("reused_export")[0].as_py() == 0
    assert man.column("n_packs")[0].as_py() > 0
    assert executions == []


def _aes_reference(sf_dir, k, seed, weight_col="n_chars"):
    """Whole-corpus A-ES reference: identical formula, no blocking."""
    import pandas as pd
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "source", weight_col]).to_pandas()
    h = pd.util.hash_array(t["doc_id"].to_numpy().copy(), categorize=False)
    h = (h ^ np.uint64(seed * 0x9E3779B97F4A7C15 % 2**64))
    h = (h * np.uint64(0xBF58476D1CE4E5B9)) ^ (h >> np.uint64(31))
    u = (h.astype(np.float64) + 1.0) / 2.0 ** 64
    w = np.maximum(t[weight_col].to_numpy().astype(np.float64), 1e-12)
    t["key"] = np.log(u) / w
    out = {}
    for src, g in t.groupby("source"):
        g = g.sort_values(["key", "doc_id"],
                          ascending=[False, True]).head(k)
        out[src] = list(g["doc_id"])
    return out


def test_weighted_sample_matches_reference_and_is_deterministic():
    from aqueduct_core_ray.functions.sampling import weighted_sample

    got = weighted_sample(SF, k=5, seed=7).to_pandas()
    want = _aes_reference(SF, k=5, seed=7)
    for src, g in got.groupby("source"):
        g = g.sort_values("rank")
        assert list(g["doc_id"]) == want[src], src
        assert list(g["rank"]) == list(range(1, len(g) + 1))
    # deterministic: a second run is identical
    again = weighted_sample(SF, k=5, seed=7).to_pandas()
    key = ["source", "rank"]
    assert got.sort_values(key).reset_index(drop=True).equals(
        again.sort_values(key).reset_index(drop=True))
    # the seed genuinely changes the sample
    other = weighted_sample(SF, k=5, seed=8).to_pandas()
    assert set(map(tuple, other[["source", "doc_id"]].values)) != \
        set(map(tuple, got[["source", "doc_id"]].values))


def test_weighted_sample_weight_monotonicity(tmp_path):
    """A doc with 50x the weight must be sampled far more often than a
    light one across seeds (the A-ES inclusion-probability property)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.functions.sampling import weighted_sample

    n = 40
    w = np.full(n, 10, np.int64)
    w[0] = 500                               # heavy doc 0
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "source": pa.array(["s"] * n),
                  "n_chars": pa.array(w)})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    heavy = light = 0
    for seed in range(40):
        picked = {r["doc_id"] for r in
                  weighted_sample(str(d), k=1, seed=seed).take_all()}
        heavy += 0 in picked
        light += 1 in picked
    assert heavy > light
    assert heavy >= 15          # P(pick heavy) = 500/890 ≈ 0.56


def test_epoch_shuffle_is_deterministic_permutation():
    import ray.data as ray_data

    from aqueduct_core_ray.functions.sampling import epoch_shuffle
    SF = "/root/testdata/sf0.001"
    a = epoch_shuffle(SF, seed=1).to_pandas()
    b = epoch_shuffle(SF, seed=1).to_pandas()
    c = epoch_shuffle(SF, seed=2).to_pandas()
    base = (ray_data.read_parquet(f"{SF}/documents.parquet")
            .to_pandas())
    # permutation: same multiset of doc_ids, nothing lost or duplicated
    assert sorted(a["doc_id"]) == sorted(base["doc_id"])
    # deterministic: same seed -> identical order (per partition fold);
    # compare the in-partition sequence via the doc_id column
    assert list(a["doc_id"]) == list(b["doc_id"])
    # different seed -> a genuinely different order
    assert list(a["doc_id"]) != list(c["doc_id"])
    # RANGE partitioning: the epoch order is derivable from the seed
    # ALONE — invariant to the partition count (resume on a
    # differently-sized cluster reproduces the identical order)
    p8 = epoch_shuffle(SF, seed=1, num_partitions=8).to_pandas()
    assert list(a["doc_id"]) == list(p8["doc_id"])
    # dispersion: the shuffle breaks source runs — consecutive rows
    # share a source far less often than sorted-by-source order would
    src = a["source"].to_numpy()
    same_adjacent = (src[1:] == src[:-1]).mean()
    n_sources = len(set(src))
    assert same_adjacent < 2.5 / n_sources + 0.2


def test_train_val_split_deterministic_and_row_stable():
    """Split ratios land near 90/5/5, the assignment is reproducible,
    matches a direct per-row md5 recomputation, and a doc's split never
    depends on the rest of the corpus (pure per-row math)."""
    import hashlib

    from aqueduct_core_ray.functions.sampling import train_val_split

    rows = train_val_split(SF).take_all()
    n = len(rows)
    frac = {s: sum(r["split"] == s for r in rows) / n
            for s in ("train", "val", "test")}
    assert 0.84 <= frac["train"] <= 0.96
    assert 0.01 <= frac["val"] <= 0.10
    assert 0.01 <= frac["test"] <= 0.10
    t90 = f"{(90 << 128) // 100:032x}"
    t95 = f"{(95 << 128) // 100:032x}"
    for r in rows[:50]:
        fp = hashlib.md5(f"split1|{r['doc_id']}".encode()).hexdigest()
        want = "train" if fp < t90 else ("val" if fp < t95 else "test")
        assert r["split"] == want
    again = train_val_split(SF).take_all()
    assert sorted(map(str, rows)) == sorted(map(str, again))


def test_token_budget_sample_prefix_semantics():
    """Every source's kept set is exactly the greedy md5-order prefix
    whose running token total stays within the budget — checked against
    a whole-corpus single-process reference."""
    import hashlib

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from aqueduct_core_ray.functions.sampling import token_budget_sample

    budget = 800
    got = {r["doc_id"]: r for r in
           token_budget_sample(SF, budget=budget).take_all()}
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "source", "text"])
    n_tok = pc.count_substring_regex(
        t.column("text"), r"\S+").to_pylist()
    ref = {}
    per_src = {}
    for did, src, nt in zip(t.column("doc_id").to_pylist(),
                            t.column("source").to_pylist(), n_tok):
        per_src.setdefault(src, []).append(
            (hashlib.md5(f"budget|{did}".encode()).hexdigest(), did, nt))
    for src, items in per_src.items():
        cum = 0
        for _, did, nt in sorted(items):
            cum += nt
            if cum > budget:
                break
            ref[did] = (src, nt, cum)
    assert set(got) == set(ref)
    for did, (src, nt, cum) in ref.items():
        assert (got[did]["source"], got[did]["n_tok"],
                got[did]["cum_tok"]) == (src, nt, cum)
    assert ref, "budget kept nothing — test corpus/budget mismatch"
    assert len(ref) < t.num_rows, \
        "budget excluded nothing — the cut must bite at test scale"


def test_stratified_topk_exact_quota_and_determinism(tmp_path):
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.functions.sampling import stratified_topk_sample
    n = 90
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n),
        "lang": pa.array(["en"] * n),
        "source": pa.array([f"s{i % 3}" for i in range(n)]),
        "n_chars": pa.array([1] * n, pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = stratified_topk_sample(str(d), k=4).to_pandas()
    assert len(out) == 12
    assert out.groupby("source").size().eq(4).all()
    # exact md5-order quota per source (brute-force reference)
    for g in range(3):
        ids = [i for i in range(n) if i % 3 == g]
        exp = sorted(ids, key=lambda i: (hashlib.md5(
            f"strat1|{i}".encode()).hexdigest(), i))[:4]
        got = (out[out.source == f"s{g}"].sort_values("rk")
               ["doc_id"].tolist())
        assert got == exp
    # deterministic across runs
    out2 = stratified_topk_sample(str(d), k=4).to_pandas()
    assert out.sort_values(["source", "rk"]).reset_index(drop=True) \
        .equals(out2.sort_values(["source", "rk"])
                .reset_index(drop=True))
