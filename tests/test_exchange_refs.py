"""The exchange's ref-level core: leaf reads and block refs are the two
inputs to ONE writer/planner/run core, so the same rows give the same
output whichever way they come in; neither starts a Ray Data
execution, a Dataset input is refused, and the moved library queries
make at most one (their public boundary)."""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from aqueduct_core_ray.stages import exchange as ex
from aqueduct_core_ray.stages import scan_units

from test_analytics import SF       # the sf0.001 testdata tables


def _canon(t: "pa.Table | pd.DataFrame") -> pd.DataFrame:
    df = t.to_pandas() if isinstance(t, pa.Table) else t
    cols = sorted(df.columns)
    return (df[cols].astype("object").sort_values(cols)
            .reset_index(drop=True))


def _rows(out) -> pa.Table:
    tabs = [t for t in ray.get(out.refs) if t.num_rows]
    return pa.concat_tables(tabs) if tabs else None


def _tag(P: int):
    # closures, like every library call site (pickled by value)
    def tag(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy(zero_copy_only=False)
        return t.append_column("part", pa.array((k % P).astype(np.int32)))
    return tag


def _stats():
    def fn(g: pa.Table) -> pa.Table:
        part = g.column("part").to_numpy(zero_copy_only=False)
        v = g.column("v").to_numpy(zero_copy_only=False)
        return pa.table({"part": pa.array([int(part[0])], pa.int32()),
                         "n": pa.array([len(v)], pa.int64()),
                         "s": pa.array([int(v.sum())], pa.int64()),
                         "w": pa.array([",".join(sorted(
                             g.column("w").to_pylist()))])})
    return fn


@pytest.fixture()
def table_file(tmp_path):
    rng = np.random.default_rng(101)
    n = 6_000
    t = pa.table({
        "k": pa.array(rng.integers(0, 500, n).astype(np.int64)),
        "v": pa.array(rng.integers(-1000, 1000, n).astype(np.int64)),
        "w": pa.array(rng.choice(["a", "bb", "ccc", "dddd"], n)),
        "x": pa.array(rng.random(n)),
    })
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path, row_group_size=500)       # 12 row groups
    return t, path


def test_three_inputs_give_identical_output(table_file, monkeypatch):
    """A multi-unit leaf with ``filter=`` and ``pre``, the same rows as
    hand-cut block refs, and as the refs of a ``map_blocks`` pass over
    the leaf: one output."""
    t, path = table_file
    monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
    monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)
    flt = pads.field("x") < 0.6
    lf = ex.leaf(path, ["k", "v", "w"], filter=flt)
    assert len(lf.units()) == 12                # one unit per row group
    kept = t.filter(pc.less(t.column("x"), 0.6)).select(["k", "v", "w"])
    refs = [ray.put(kept.slice(i, 700)) for i in range(0, len(kept), 700)]
    mapped = ex.map_blocks(lf, lambda t: t)

    plans = [{}, {}, {}]
    outs = [ex.file_exchange_map_groups(src, _stats(), pre=_tag(37),
                                        _plan_out=plan)
            for src, plan in zip((lf, refs, mapped), plans)]
    assert all(isinstance(o, ex.Exchanged) for o in outs)
    assert outs[0].schema.names == ["k", "v", "w", "part"]
    got = [_rows(o) for o in outs]
    # output blocks in ascending part order, whatever the input
    for g in got:
        assert g.column("part").to_pylist() == sorted(
            set((kept.column("k").to_numpy() % 37).tolist()))
    assert _canon(got[0]).equals(_canon(got[1]))
    assert _canon(got[0]).equals(_canon(got[2]))
    assert plans[0]["parts"] == plans[1]["parts"] == plans[2]["parts"]


def test_oversized_part_refolds_the_same_from_refs_and_leaf(table_file,
                                                           monkeypatch,
                                                           blocks):
    """One hot key under a tiny byte budget: chunk-fold + refold over
    a leaf and two cuts of block refs give one result."""
    t, path = table_file
    monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
    monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)
    t = t.set_column(0, "k", pa.array(np.zeros(len(t), np.int64)))
    pq.write_table(t, path, row_group_size=500)
    refs = [ray.put(t.slice(i, 1000)) for i in range(0, len(t), 1000)]
    res = []
    for src in (ex.leaf(path, ["k", "v"]), refs,
                blocks(t.select(["k", "v"]), 6)):
        plan = {}
        # ("k", "count") lands in the key's column: the row count
        res.append(_rows(ex.fx_agg_by(
            src, ["k"], [("v", "sum"), ("k", "count")],
            target_bytes=8 * 1024, _plan_out=plan)).to_pylist())
        assert plan["split"] >= 1, plan
    assert res[0] == res[1] == res[2] == [
        {"k": len(t), "v": int(t.column("v").to_numpy().sum())}]


def test_all_empty_input_typed_from_writer_schema(table_file,
                                                  monkeypatch):
    """No rows reach any part: the empty result is fn on an empty table
    of the writers' schema (``pre`` applied)."""
    _, path = table_file

    def fn(g: pa.Table) -> pa.Table:
        return g.select(["w", "part"]).slice(0, 0)

    none = pads.field("x") > 2.0
    for src in (ex.leaf(path, ["k", "w"], filter=none),
                [ray.put(pq.read_table(path, columns=["k", "w"]).slice(0, 0))
                 for _ in range(3)]):
        out = ex.file_exchange_map_groups(src, fn, pre=_tag(5))
        assert out.schema == pa.schema([("k", pa.int64()),
                                        ("w", pa.string()),
                                        ("part", pa.int32())])
        (empty,) = ray.get(out.refs)
        assert empty.num_rows == 0
        assert empty.schema == pa.schema([("w", pa.string()),
                                          ("part", pa.int32())])
    # fx_join's empty result too: both sides' columns, typed
    out = ex.fx_join(ex.leaf(path, ["k", "v"], filter=none),
                     ex.leaf(path, ["k", "w"]), on="k", how="left")
    (empty,) = ray.get(out.refs)
    assert empty.schema == pa.schema([("k", pa.int64()), ("v", pa.int64()),
                                      ("w", pa.string())])


@pytest.mark.parametrize("how", ["inner", "left", "outer", "semi", "anti"])
def test_fx_join_side_with_no_rows(tmp_path, how, parts):
    """One side has no rows: as typed empty block refs (what an
    exchange with no rows returns) the join equals the same join over
    leaves whose filter matches nothing, for the empty side on the left
    and on the right."""
    rng = np.random.default_rng(11)
    a = pa.table({"k": pa.array(rng.integers(0, 40, 300), pa.int64()),
                  "v": pa.array(rng.random(300))})
    b = pa.table({"k": pa.array(rng.integers(0, 40, 90), pa.int64()),
                  "w": pa.array(rng.integers(0, 9, 90), pa.int64())})
    ap, bp = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(a, ap, row_group_size=100)
    pq.write_table(b, bp, row_group_size=30)
    none, all_ = pc.field("k") > 1000, pc.field("k") >= 0
    for lf, rf in ((none, all_), (all_, none)):
        parts(5)
        got = ray.get(ex.fx_join(
            *[[ray.put(t.filter(f))] for t, f in ((a, lf), (b, rf))],
            on="k", how=how).refs)
        parts(5)
        want = ray.get(ex.fx_join(ex.leaf(ap, filter=lf),
                                  ex.leaf(bp, filter=rf), on="k",
                                  how=how).refs)
        got, want = pa.concat_tables(got), pa.concat_tables(want)
        assert got.schema == want.schema, (how, lf)
        assert _canon(got).equals(_canon(want)), (how, lf)


def test_fx_join_untyped_side_joins_as_empty(tmp_path):
    """A side with no schema anywhere (refs of column-less tables, as
    an exchange with no typed member returns) joins as an empty side of
    the other side's keys, not a crash."""
    a = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                  "v": pa.array([0.5, 1.5, 2.5])})
    ap = str(tmp_path / "a.parquet")
    pq.write_table(a, ap)
    untyped = [ray.put(pa.table({})), ray.put(pa.table({}))]
    typed = ex.leaf(ap)
    left = pa.concat_tables(ray.get(
        ex.fx_join(typed, untyped, on="k", how="left").refs))
    assert _canon(left).equals(_canon(a))
    outer = pa.concat_tables(ray.get(
        ex.fx_join(untyped, typed, on="k", how="outer").refs))
    assert _canon(outer).equals(_canon(a))
    inner = ray.get(ex.fx_join(untyped, typed, on="k", how="inner").refs)
    assert sum(t.num_rows for t in inner) == 0


def test_fx_join_leaf_inputs_match_datasets(tmp_path, parts):
    """Every ``how`` over two leaf inputs (one conformed by ``pre``)
    equals the same join over the block refs of Datasets (how a
    Dataset caller feeds the exchange); salt>1 too."""
    rng = np.random.default_rng(7)
    nl, nr = 900, 300
    left = pa.table({
        "lk": pa.array(rng.integers(0, 60, nl).astype(np.int64)),
        "v": pa.array(np.arange(nl, dtype=np.int64)),
        "tag": pa.array(rng.choice(["a", "b"], nl))})
    right = pa.table({
        "k": pa.array(np.where(rng.random(nr) < 0.1, None,
                               rng.integers(0, 80, nr)).tolist(),
                      pa.int64()),
        "w": pa.array(np.arange(nr, dtype=np.int64) * 10),
        "tag": pa.array(rng.choice(["x", "y"], nr))})
    lp, rp = str(tmp_path / "l.parquet"), str(tmp_path / "r.parquet")
    pq.write_table(left, lp, row_group_size=200)
    pq.write_table(right, rp, row_group_size=100)

    def conform(t: pa.Table) -> pa.Table:
        return t.rename_columns(["k", "v", "tag"])

    lds = ray.data.from_arrow(conform(left)).repartition(3) \
        .materialize().to_arrow_refs()
    rds = ray.data.from_arrow(right).materialize().to_arrow_refs()
    for how in ("inner", "left", "outer", "semi", "anti"):
        for salt in ((1, 3) if how != "outer" else (1,)):
            parts(7)
            got = _rows(ex.fx_join(ex.leaf(lp), ex.leaf(rp), on="k",
                                   how=how, salt=salt,
                                   pre=(conform, None)))
            parts(7)
            want = _rows(ex.fx_join(lds, rds, on="k", how=how, salt=salt))
            assert got.schema.names == want.schema.names, how
            assert [f.type for f in got.schema] == \
                [f.type for f in want.schema], how
            g, w = _canon(got), _canon(want)
            assert g.where(pd.notna(g), None).equals(
                w.where(pd.notna(w), None)), (how, salt)


MOVED = ["bigram_logprob_score", "tfidf_top_terms", "order_lines_join",
         "parts_unsold_in_window", "top_customers_by_return_revenue",
         "late_events", "bpe_vocab",
         # the co-group and fx_join sides of the analytics joins
         "top_orders_by_revenue", "revenue_by_nation",
         "customers_without_orders", "priority_wait_orders",
         "ship_delay_priority", "volume_shipping", "brand_revenue_by_year",
         "large_orders", "nation_market_share",
         "customer_order_distribution", "banded_part_revenue",
         "lapsed_rich_customers", "supplier_count_by_part",
         "promo_revenue_share", "min_cost_supplier", "orders_region0_left",
         "active_customers_in_window", "customer_orders_outer",
         # temporal's ordered operators on exchange.window
         "running_total", "rolling_window_sum", "lead_lag_values",
         "inter_event_gaps", "sessionize", "session_paths",
         "event_transitions", "asof_join_prior", "interval_join_pairs",
         "conversion_funnel", "cumulative_users_by_day",
         "retention_cohorts", "rolling_active_users",
         # the documents operators (text, bpe, multimodal) on leaves
         "top_tokens_by_source", "top_docs_per_source", "token_count",
         "fingerprint", "quality_score", "redact_pii", "lang_id",
         "repetition_score", "doc_frequency", "bpe_token_count",
         "unigram_logprob_score", "zipf_fit", "quantile_band_docs",
         "profile_documents", "bm25_topk", "rank_auc",
         "spearman_chars_tokens", "pmi_bigrams", "source_divergence",
         "skyline_docs", "type_token_ratio", "approx_top_tokens",
         "dsir_weights", "bpe_trained_token_count", "media_features",
         "frame_sample", "resize_media",
         # the dedup family and the blocked fuzzy join on leaves and refs
         "dedup_exact", "decontaminate", "ngram_jaccard_dedup",
         "duplicate_clusters", "near_dedup_keep",
         "remove_boilerplate_lines", "embedding_cosine_dedup",
         "dup_cluster_sizes", "dup_gram_coverage", "semdedup",
         "remove_dup_spans", "minhash_lsh_dedup", "incremental_dedup",
         "simhash_dedup", "embedding_ann_dedup", "split_leakage",
         "fuzzy_match_pairs",
         # the last Dataset-fed exchanges, and the driver folds over
         # Datasets, on leaves and refs
         "small_quantity_revenue", "top_supplier_by_revenue",
         "important_parts", "sole_late_shipper", "dominant_supplier_parts",
         "parts_bought_together", "lww_compaction", "byte_cap_prefix",
         "consistency_sum", "knn_bruteforce", "knn_ivf", "knn_ivf_recall",
         "epoch_shuffle", "token_budget_sample", "pack_sequences",
         "pack_documents", "train_pipeline", "substring_search",
         "winnow_dedup", "pricing_summary", "supplier_balance_by_nation",
         "discount_revenue_delta", "orders_weekly_gapfill"]


@pytest.fixture(scope="module")
def queries():
    import __ray_entry__ as entry
    return entry.queries()


@pytest.mark.parametrize("name", MOVED)
def test_moved_query_runs_at_most_one_execution(name, queries, executions,
                                                tmp_path, monkeypatch):
    # fresh index roots: a first call builds its index (knn_ivf's IVF
    # cells, substring_search's trigram postings) inside the count
    monkeypatch.setenv("AQR_IVF_ROOT", str(tmp_path / "ivf"))
    monkeypatch.setenv("AQR_TRIGRAM_ROOT", str(tmp_path / "trigram"))
    res = queries[name](SF)
    if isinstance(res, ray.data.Dataset):
        tabs = ray.get(res.to_arrow_refs())     # the public boundary
        assert sum(t.num_rows for t in tabs) > 0
    else:
        assert len(res) > 0                 # a table or a pandas frame
    assert len(executions) <= 1, (name, len(executions))


# the readers, staging writers and in-operator counts moved off Ray
# Data plans onto leaves and refs: each query starts no Ray Data
# execution before it returns
ON_LEAVES = ["log_scan", "routing_semijoin", "routing_semijoin_override",
             "global_latest_offset", "max_offset_for_types",
             "max_offset_before_hour", "stratified_sample",
             "mixture_resample", "train_val_split", "centroid_assign",
             "kmeans_embeddings", "pca_project", "quality_classifier",
             "cdc_replay_events", "mirror_lake", "lake_checksum",
             "restore_lake", "schema_evolution_lake",
             "generation_diff_events", "replay_documents_lake",
             "curate_corpus", "pricing_rollup"]


@pytest.mark.parametrize("name", ON_LEAVES)
def test_leaf_query_starts_no_execution_before_it_returns(
        name, queries, executions):
    res = queries[name](SF)
    assert executions == [], name
    if isinstance(res, ray.data.Dataset):
        res = pa.concat_tables(ray.get(res.to_arrow_refs()))
    assert len(res) > 0


def test_message_jsonl_writer_starts_no_execution(tmp_path, executions):
    from aqueduct_core_ray.sources.changelog import (ChangelogSpec,
                                                     write_changelog)
    from aqueduct_core_ray.sources.jsonl import write_message_jsonl
    spec = ChangelogSpec(n_docs=20, n_events=120, chunk_size=40)
    log = write_changelog(spec, str(tmp_path / "log"))
    out = write_message_jsonl(log, str(tmp_path / "jsonl"))
    assert executions == []
    lines = sum(open(tmp_path / "jsonl" / fn).read().count("\n")
                for fn in os.listdir(out))
    assert lines == spec.n_events


# Ray Data's readers, maps, writers and collects; inside the package only the
# JSON/CSV/text readers (sources/jsonl.py) use them
_PLAN_CALLS = {"read_parquet", "map_batches", "write_parquet", "take_all",
               "iter_batches", "to_arrow_refs"}
# the Ray Data names a public return may use
_RAY_DATA_NAMES = {"Dataset", "from_arrow", "from_arrow_refs"}


def test_package_builds_no_ray_data_plan():
    """A source scan, comments and docstrings aside: outside
    sources/jsonl.py nothing calls a Ray Data reader, map, writer or
    collection, ``materialize()``, a Dataset ``.max("col")`` or
    ``.count()``, or any ``ray.data`` name but a public return's
    ``from_arrow``/``from_arrow_refs``."""
    import io
    import pathlib
    import tokenize

    import aqueduct_core_ray
    root = pathlib.Path(aqueduct_core_ray.__file__).parent
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT}
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "sources/jsonl.py":
            continue
        toks = [t for t in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline) if t.type not in skip]
        for i, t in enumerate(toks[2:-2], start=2):
            if t.type != tokenize.NAME:
                continue
            prev, nxt, arg = toks[i - 1], toks[i + 1], toks[i + 2]
            call = nxt.string == "("
            bad = (t.string in _PLAN_CALLS
                   or (t.string == "materialize" and call)
                   or (prev.string == "." and call and (
                       (t.string == "max" and arg.type == tokenize.STRING)
                       or (t.string == "count" and arg.string == ")")))
                   or (prev.string == "." and toks[i - 2].string == "data"
                       and toks[i - 3].string == "ray"
                       and t.string not in _RAY_DATA_NAMES))
            if bad:
                found.append(f"{rel}:{t.start[0]} {t.string}")
    assert found == []


def test_moved_query_record_times_its_exchanges(queries, tmp_path,
                                                monkeypatch):
    """A moved operator's timed_op row times the work, not the plan: its
    wall_s covers every exchange it ran, and those rows say their input
    was a leaf or refs."""
    path = tmp_path / "ops.jsonl"
    monkeypatch.setenv("AQR_METRICS_PATH", str(path))
    queries["tfidf_top_terms"](SF)
    rows = [json.loads(x) for x in path.read_text().splitlines()]
    fx = [r for r in rows if r["op"] == "exchange"]
    (op,) = [r for r in rows if r["op"] == "tfidf_top_terms"]
    assert [r["src"] for r in fx] == ["leaf", "refs"]
    assert op["wall_s"] >= sum(r["wall_s"] for r in fx) > 0


def test_map_blocks_runs_fn_per_unit_in_order(table_file, monkeypatch,
                                              executions):
    t, path = table_file
    monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
    monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)

    def first_k(b: pa.Table) -> pa.Table:
        return pa.table({"k0": [b.column("k")[0].as_py()],
                         "n": [b.num_rows]})

    got = pa.concat_tables(ray.get(ex.map_blocks(
        ex.leaf(path, ["k"]), first_k)))
    assert got.column("n").to_pylist() == [500] * 12
    assert got.column("k0").to_pylist() == \
        t.column("k").to_pylist()[::500]
    assert executions == []


def test_unknown_input_kind_is_refused():
    with pytest.raises(TypeError):
        ex.file_exchange_map_groups(pa.table({"part": [0]}), lambda g: g)


def test_every_entry_point_refuses_a_dataset(table_file):
    """A ``ray.data.Dataset`` is no exchange input: each entry point
    raises ``TypeError`` naming the two inputs, alone or as one side."""
    _, path = table_file
    ds = ray.data.read_parquet(path)
    lf = ex.leaf(path)
    calls = [
        lambda: ex.file_exchange_map_groups(ds, lambda g: g),
        lambda: ex.file_exchange_map_groups((lf, ds), lambda a, b: a,
                                            keys=["k"]),
        lambda: ex.fx_agg_by(ds, ["k"], [("v", "sum")]),
        lambda: ex.fx_sum_by(ds, ["k"], ["v"]),
        lambda: ex.fx_count_by(ds, ["k"], "n"),
        lambda: ex.window(ds, ["k"], ["v"], lambda t, s: t),
        lambda: ex.fx_join(ds, lf, on="k"),         # broadcast-sized right
        lambda: ex.fx_join(lf, ds, on="k"),
        lambda: ex.map_blocks(ds, lambda t: t),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="leaf.*block refs"):
            call()
