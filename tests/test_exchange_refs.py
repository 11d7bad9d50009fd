"""The exchange's ref-level core: leaf reads, block refs and Datasets
are three inputs to ONE writer/planner/run core, so the same rows give
the same output whichever way they come in; leaf and refs inputs start
no Ray Data execution, and the moved library queries make at most one
(their public boundary)."""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from aqueduct_core_ray import metrics
from aqueduct_core_ray.stages import exchange as ex
from aqueduct_core_ray.stages import scan_units

from test_analytics import SF       # the sf0.001 testdata tables


def _canon(t: "pa.Table | pd.DataFrame") -> pd.DataFrame:
    df = t.to_pandas() if isinstance(t, pa.Table) else t
    cols = sorted(df.columns)
    return (df[cols].astype("object").sort_values(cols)
            .reset_index(drop=True))


def _rows(out) -> pa.Table:
    refs = out.refs if isinstance(out, ex.Exchanged) else out.to_arrow_refs()
    tabs = [t for t in ray.get(refs) if t.num_rows]
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
    block refs, and the same rows as a Dataset: one output."""
    t, path = table_file
    monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
    monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)
    flt = pads.field("x") < 0.6
    lf = ex.leaf(path, ["k", "v", "w"], filter=flt)
    assert len(lf.units()) == 12                # one unit per row group
    kept = t.filter(pc.less(t.column("x"), 0.6)).select(["k", "v", "w"])
    refs = [ray.put(kept.slice(i, 700)) for i in range(0, len(kept), 700)]
    ds = ray.data.read_parquet(path, columns=["k", "v", "w"], filter=flt)

    plans = [{}, {}, {}]
    outs = [ex.file_exchange_map_groups(src, _stats(), pre=_tag(37),
                                        _plan_out=plan)
            for src, plan in zip((lf, refs, ds), plans)]
    assert isinstance(outs[0], ex.Exchanged)
    assert isinstance(outs[1], ex.Exchanged)
    assert isinstance(outs[2], ray.data.Dataset)
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
                                                           monkeypatch):
    """One hot key under a tiny byte budget: chunk-fold + refold over
    leaf and refs inputs equals the Dataset result."""
    t, path = table_file
    monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
    monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)
    t = t.set_column(0, "k", pa.array(np.zeros(len(t), np.int64)))
    pq.write_table(t, path, row_group_size=500)
    refs = [ray.put(t.slice(i, 1000)) for i in range(0, len(t), 1000)]
    res = []
    for src in (ex.leaf(path, ["k", "v"]), refs,
                ray.data.from_arrow(t.select(["k", "v"])).repartition(6)):
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
    of the writers' schema (``pre`` applied) — no Dataset schema probe."""
    _, path = table_file

    def refuse(*a, **k):
        raise AssertionError("Dataset.schema() called")
    monkeypatch.setattr(ray.data.Dataset, "schema", refuse)

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


def _no_fetching_schema(monkeypatch):
    """Dataset.schema raises where it would run the plan to find the
    schema; a schema known from metadata is returned."""
    real = ray.data.Dataset.schema

    def guarded(self, fetch_if_missing=True):
        s = real(self, fetch_if_missing=False)
        if s is None and fetch_if_missing:
            raise AssertionError("Dataset.schema() would run the plan")
        return s
    monkeypatch.setattr(ray.data.Dataset, "schema", guarded)


def test_all_empty_dataset_input_is_typed(table_file, monkeypatch):
    """A Dataset whose blocks are all empty still types the result: its
    typed empty blocks reach the raw writers, and a pruned read (whose
    blocks carry no columns) falls back to its plan-metadata schema."""
    _, path = table_file
    _no_fetching_schema(monkeypatch)

    def fn(g: pa.Table) -> pa.Table:
        return g.select(["w", "part"]).slice(0, 0)

    e = pq.read_table(path, columns=["k", "w"]).slice(0, 0)
    for ds in (ray.data.from_arrow_refs([ray.put(e), ray.put(e)]),
               ray.data.read_parquet(path, columns=["k", "w"],
                                     filter=pads.field("x") > 2.0)):
        (empty,) = ex.collect_tables(
            ex.file_exchange_map_groups(ds, fn, pre=_tag(5)))
        assert empty.num_rows == 0
        assert empty.schema == pa.schema([("w", pa.string()),
                                          ("part", pa.int32())])


@pytest.mark.parametrize("how", ["inner", "left", "outer", "semi", "anti"])
def test_fx_join_dataset_side_with_no_rows(tmp_path, monkeypatch, how):
    """One Dataset side's filter matches nothing: the join equals the
    same join over leaves (whose empty units are typed), for the empty
    side on the left and on the right."""
    _no_fetching_schema(monkeypatch)
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
        got = ex.collect_tables(ex.fx_join(
            ray.data.read_parquet(ap, filter=lf),
            ray.data.read_parquet(bp, filter=rf), on="k", how=how,
            num_partitions=5))
        want = ray.get(ex.fx_join(ex.leaf(ap, filter=lf),
                                  ex.leaf(bp, filter=rf), on="k",
                                  how=how, num_partitions=5).refs)
        got, want = pa.concat_tables(got), pa.concat_tables(want)
        assert got.schema == want.schema, (how, lf)
        assert _canon(got).equals(_canon(want)), (how, lf)


def test_fx_join_untyped_side_joins_as_empty(tmp_path):
    """A side with no schema anywhere (a map over only empty blocks)
    joins as an empty side of the other side's keys, not a crash."""
    a = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                  "v": pa.array([0.5, 1.5, 2.5])})
    ap = str(tmp_path / "a.parquet")
    pq.write_table(a, ap)
    untyped = ray.data.read_parquet(
        ap, filter=pc.field("k") > 9).map_batches(
            lambda t: t, batch_format="pyarrow")
    typed = ray.data.read_parquet(ap)
    left = pa.concat_tables(ex.collect_tables(
        ex.fx_join(typed, untyped, on="k", how="left")))
    assert _canon(left).equals(_canon(a))
    outer = pa.concat_tables(ex.collect_tables(
        ex.fx_join(untyped, typed, on="k", how="outer")))
    assert _canon(outer).equals(_canon(a))
    inner = ex.collect_tables(
        ex.fx_join(untyped, typed, on="k", how="inner"))
    assert sum(t.num_rows for t in inner) == 0


def test_fx_join_leaf_inputs_match_datasets(tmp_path):
    """Every ``how`` over two leaf inputs (one conformed by ``pre``)
    equals the same join over Datasets; salt>1 too."""
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

    lds = ray.data.from_arrow(conform(left)).repartition(3)
    rds = ray.data.from_arrow(right)
    for how in ("inner", "left", "outer", "semi", "anti"):
        for salt in ((1, 3) if how != "outer" else (1,)):
            got = _rows(ex.fx_join(ex.leaf(lp), ex.leaf(rp), on="k",
                                   how=how, num_partitions=7, salt=salt,
                                   pre=(conform, None)))
            want = _rows(ex.fx_join(lds, rds, on="k", how=how,
                                    num_partitions=7, salt=salt))
            assert got.schema.names == want.schema.names, how
            assert [f.type for f in got.schema] == \
                [f.type for f in want.schema], how
            g, w = _canon(got), _canon(want)
            assert g.where(pd.notna(g), None).equals(
                w.where(pd.notna(w), None)), (how, salt)


MOVED = ["bigram_logprob_score", "tfidf_top_terms", "order_lines_join",
         "parts_unsold_in_window", "top_customers_by_return_revenue",
         "late_events", "bpe_vocab"]


@pytest.fixture(scope="module")
def queries():
    import __ray_entry__ as entry
    return entry.queries()


@pytest.mark.parametrize("name", MOVED)
def test_moved_query_runs_at_most_one_execution(name, queries,
                                                executions):
    res = queries[name](SF)
    if isinstance(res, ray.data.Dataset):
        tabs = ray.get(res.to_arrow_refs())     # the public boundary
        assert sum(t.num_rows for t in tabs) > 0
    else:
        assert res.num_rows > 0
    assert len(executions) <= 1, (name, len(executions))


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
    # a Dataset call still says so
    metrics.drain()
    t = pa.table({"part": pa.array([0, 1], pa.int32()),
                  "v": pa.array([1, 2], pa.int64())})
    ex.file_exchange_map_groups(ray.data.from_arrow(t), lambda g: g)
    assert metrics.recent("exchange")[-1]["src"] == "dataset"


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
