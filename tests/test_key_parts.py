"""The keyed exchange's routing rule (``exchange.key_parts``): a key's
part depends only on its logical value, whatever the Arrow type or
chunking of the block carrying it; joins refuse key columns that would
route apart; and no query left in the package runs Ray Data's
sort-based ``groupby``."""

import os
import sys

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from aqueduct_core_ray.stages.exchange import (fx_agg_by, fx_join,
                                               key_hash, key_parts)
from test_analytics import SF

INT_TYPES = [pa.int8(), pa.int16(), pa.int32(), pa.int64(),
             pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64()]

ints = st.lists(st.one_of(st.none(), st.integers(0, 127)), min_size=1,
                max_size=40)
strs = st.lists(st.one_of(st.none(), st.text(max_size=6)), min_size=1,
                max_size=40)


def _parts(arr, P=64):
    return key_parts(pa.table({"k": arr}), ["k"], P)


def _chunked(vals, typ):
    cut = len(vals) // 2
    return pa.chunked_array([pa.array(vals[:cut], typ),
                             pa.array(vals[cut:], typ)], typ)


@settings(max_examples=60, deadline=None)
@given(ints, st.integers(1, 97))
def test_int_widths_nulls_and_chunks_route_alike(vals, P):
    want = _parts(pa.array([0 if v is None else v for v in vals],
                           pa.int64()), P)
    nulls = np.array([v is None for v in vals])
    for typ in INT_TYPES:
        for arr in (pa.array(vals, typ), _chunked(vals, typ)):
            got = _parts(arr, P)
            assert (got[~nulls] == want[~nulls]).all(), typ
    # every null, of any width, in one part
    null_parts = {int(p) for typ in INT_TYPES
                  for p in _parts(pa.array(vals, typ), P)[nulls]}
    assert len(null_parts) <= 1


@settings(max_examples=60, deadline=None)
@given(strs, st.integers(1, 97))
def test_string_encodings_route_alike(vals, P):
    want = _parts(pa.array(vals, pa.string()), P)
    for arr in (pa.array(vals, pa.large_string()),
                pa.array(vals, pa.string()).dictionary_encode(),
                _chunked(vals, pa.string()),
                _chunked(vals, pa.large_string())):
        assert (_parts(arr, P) == want).all(), arr.type
    nulls = np.array([v is None for v in vals])
    assert len(set(want[nulls].tolist())) <= 1
    # a value's part does not depend on its neighbours in the block
    for i, v in enumerate(vals):
        assert _parts(pa.array([v], pa.string()), P)[0] == want[i]


def test_temporal_routes_by_int64_image():
    us = [0, 86_400_000_000, None, 5]
    ts = pa.array(us, pa.timestamp("us"))
    assert (_parts(ts)[[0, 1, 3]]
            == _parts(pa.array(us, pa.int64()))[[0, 1, 3]]).all()
    days = pa.array([0, 1, 2], pa.date32())
    assert (_parts(days) == _parts(pa.array([0, 1, 2], pa.int8()))).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 5)),
                          st.one_of(st.none(), st.sampled_from("abc"))),
                min_size=1, max_size=30))
def test_composite_keys_keep_distinct_tuples_distinct(rows):
    t = pa.table({"a": pa.array([a for a, _ in rows], pa.int32()),
                  "b": pa.array([b for _, b in rows], pa.string())})
    h = key_hash(t, ["a", "b"])
    by_tuple = {}
    for r, d in zip(rows, h.tolist()):
        by_tuple.setdefault(r, set()).add(d)
    assert all(len(ds) == 1 for ds in by_tuple.values())
    assert len({next(iter(ds)) for ds in by_tuple.values()}) \
        == len(by_tuple)
    # swapped columns are different keys
    t2 = pa.table({"a": pa.array([1, 2], pa.int64()),
                   "b": pa.array([2, 1], pa.int64())})
    assert len(set(key_hash(t2, ["a", "b"]).tolist())) == 2


def test_fx_agg_by_null_bearing_int_block_keeps_one_row_per_key(parts):
    """One block's int key column carries a null: its keys must route
    with the same keys of the null-free blocks (a float64 image of the
    null-bearing block would hash 1.0, not 1, and split the key)."""
    blocks = [pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                        "v": pa.array([1, 1, 1], pa.int64())}),
              pa.table({"k": pa.array([1, None, 3], pa.int64()),
                        "v": pa.array([10, 10, 10], pa.int64())}),
              pa.table({"k": pa.array([2, 3, 4], pa.int64()),
                        "v": pa.array([100, 100, 100], pa.int64())})]
    for P in (2, 7, 64):
        parts(P)
        plan = {}
        out = pa.concat_tables(ray.get(fx_agg_by(
            [ray.put(b) for b in blocks], ["k"], [("v", "sum")],
            _plan_out=plan).refs))
        got = dict(zip(out.column("k").to_pylist(),
                       out.column("v").to_pylist()))
        assert plan["tasks"] > 1, (P, plan)     # parts fold apart
        assert out.num_rows == 5, (P, out.to_pylist())
        assert got == {1: 11, 2: 101, 3: 111, 4: 100, None: 10}, P


def test_fx_agg_by_mixed_int_widths_keeps_one_row_per_key(parts):
    """An int32 block and an int64 block of one key column: equal
    values route to one part, whose slices are cast to the unified
    int64 before they are concatenated."""
    blocks = [pa.table({"k": pa.array([1, 2, 3], pa.int32()),
                        "v": pa.array([1, 1, 1], pa.int64())}),
              pa.table({"k": pa.array([2, 3, 4], pa.int64()),
                        "v": pa.array([10, 10, 10], pa.int64())})]
    for P in (2, 64):
        parts(P)
        out = pa.concat_tables(ray.get(fx_agg_by(
            [ray.put(b) for b in blocks], ["k"], [("v", "sum")]).refs))
        assert out.schema.field("k").type == pa.int64()
        assert sorted(out.to_pylist(), key=lambda r: r["k"]) == [
            {"k": 1, "v": 1}, {"k": 2, "v": 11}, {"k": 3, "v": 11},
            {"k": 4, "v": 10}], P


def test_fx_join_refuses_keys_of_different_families(tmp_path,
                                                   monkeypatch, blocks):
    import pyarrow.parquet as pq

    from aqueduct_core_ray.stages import exchange
    left = blocks(pa.table({"k": pa.array([1, 2]), "v": pa.array([1, 2])}))
    strs = pa.table({"k": pa.array(["1", "2"]), "w": pa.array([3, 4])})
    right = blocks(strs)
    with pytest.raises(ValueError, match="'k'"):
        fx_join(left, right, on="k")
    # a leaf right side refuses them too, routed or broadcast
    rp = str(tmp_path / "strs.parquet")
    pq.write_table(strs, rp)
    for nbytes in (0, 1 << 62):
        monkeypatch.setattr(exchange, "BROADCAST_BYTES", nbytes)
        with pytest.raises(ValueError, match="'k'.*route apart"):
            fx_join(left, exchange.leaf(rp), on="k")
    # int widths and timestamps share the int family: they still join
    r32 = blocks(pa.table({"k": pa.array([2, 3], pa.int32()),
                           "w": pa.array([3, 4])}))
    out = pa.concat_tables(ray.get(
        fx_join(left, r32, on="k").refs)).to_pandas()
    assert out["k"].tolist() == [2] and out["w"].tolist() == [3]


# the functions that ran Ray Data's sort-based groupby, by queries()
# name; each must now run without it
MOVED_FROM_GROUPBY = [
    "top_tokens_by_source", "top_docs_per_source", "profile_documents",
    "mixture_resample", "stratified_topk_sample", "distinct_users",
    "approx_quantiles", "approx_distinct_users", "count_by_type",
    "dup_cluster_sizes", "chunk_dedup", "top_supplier_by_revenue",
    "source_stats",
]


@pytest.fixture(scope="module")
def entry():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "scripts"))
    import __ray_entry__
    return __ray_entry__


@pytest.mark.parametrize("name", MOVED_FROM_GROUPBY)
def test_no_sort_shuffle_groupby_left(name, entry, monkeypatch):
    import check_correctness as cc

    orig = ray.data.Dataset.groupby

    def refuse(self, key, *a, **k):
        # a global aggregate (ds.max, ds.aggregate) is groupby(None)
        if key is not None:
            raise AssertionError(f"Ray Data groupby({key!r}) called")
        return orig(self, key, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    ours = cc.to_pandas(entry.queries()[name](SF))
    assert len(ours) > 0
    oracle = entry.oracle_sql().get(name)
    if oracle is None:
        return
    con = duckdb.connect()
    for t in cc.TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    theirs = con.execute(oracle).df()
    assert cc.compare(name, ours, theirs) == [], name
