"""file_exchange_map_groups must be a drop-in for
groupby('part').map_groups(fn): identical results on random data,
multi-block inputs and the blocks of two producers as one input; a
tuple input is a co-group (one table per member, each in its own
schema)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from aqueduct_core_ray.stages.exchange import (
    file_exchange_map_groups,
    fx_agg_by,
)


def _pd(out) -> pd.DataFrame:
    """An exchange result's rows as one pandas frame."""
    return pa.concat_tables(ray.get(out.refs),
                            promote_options="default").to_pandas()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(sorted(df.columns)).reset_index(drop=True)


def _make_fn():
    # a CLOSURE, like every library call site: Ray cloudpickles it by
    # value (a module-level test function would pickle by reference and
    # fail to import on workers)
    def fn(g: pa.Table) -> pa.Table:
        part = g.column("part").to_numpy(zero_copy_only=False)
        v = g.column("v").to_numpy(zero_copy_only=False)
        assert (part == part[0]).all()        # co-partitioned
        return pa.table({"part": pa.array([int(part[0])], pa.int32()),
                         "n": pa.array([len(v)], pa.int64()),
                         "s": pa.array([int(v.sum())], pa.int64())})
    return fn


def _ref(df: pd.DataFrame) -> pd.DataFrame:
    out = (df.groupby("part").agg(n=("v", "size"), s=("v", "sum"))
           .reset_index())
    out["part"] = out["part"].astype("int32")
    return _canon(out)


def test_file_exchange_equals_groupby_reference(blocks):
    rng = np.random.default_rng(7)
    n = 20_000
    t = pa.table({
        "part": pa.array(rng.integers(0, 13, n).astype(np.int32)),
        "v": pa.array(rng.integers(-1000, 1000, n).astype(np.int64)),
    })
    got = _canon(_pd(file_exchange_map_groups(blocks(t, 8), _make_fn())))
    assert got.equals(_ref(t.to_pandas()))


def test_file_exchange_union_of_tagged_streams(blocks):
    a = pa.table({
        "part": pa.array((np.arange(6) % 3).astype(np.int32)),
        "v": pa.array(np.arange(6, dtype=np.int64)),
    })
    b = pa.table({
        "part": pa.array(((np.arange(9) + 1) % 3).astype(np.int32)),
        "v": pa.array(10 * np.arange(9, dtype=np.int64)),
    })
    got = _canon(_pd(file_exchange_map_groups(blocks(a) + blocks(b),
                                              _make_fn())))
    want = _ref(pd.concat([a.to_pandas(), b.to_pandas()]))
    assert got.equals(want)


def test_file_exchange_sparse_parts(blocks):
    """Only parts that exist get a group (same as groupby), and a part
    spread across many blocks folds into one group."""
    t = pa.table({
        "part": pa.array(np.array([5] * 40 + [9] * 2, np.int32)),
        "v": pa.array(np.arange(42, dtype=np.int64)),
    })
    got = _pd(file_exchange_map_groups(blocks(t, 16), _make_fn()))
    assert sorted(got["part"]) == [5, 9]
    assert int(got[got["part"] == 5]["n"].iloc[0]) == 40


def test_fx_agg_by_ignores_stray_part_column(blocks):
    """An inbound non-key ``part`` column (e.g. the empty-input schema
    of an upstream exchange) must not collide with fx_agg_by's own tag
    column: result equals the same aggregate without the stray column."""
    from aqueduct_core_ray.stages.exchange import fx_agg_by
    t = pa.table({
        "k": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "v": pa.array([10, 5, 7, 1, 4], pa.int64()),
    })
    stray = t.append_column("part",
                            pa.array(np.zeros(5, np.int32)))
    want = (_pd(fx_agg_by(blocks(t), ["k"], [("v", "sum")]))
            .sort_values("k").reset_index(drop=True))
    got = (_pd(fx_agg_by(blocks(stray), ["k"], [("v", "sum")]))
           .sort_values("k").reset_index(drop=True))
    assert got.equals(want)
    assert list(want["v"]) == [15, 8, 4]


def test_fx_join_matches_pandas_all_hows(ray_session, parts, tmp_path,
                                        monkeypatch, blocks):
    """Randomized fx_join vs a pandas reference: inner/left/semi/anti,
    duplicate keys (multiplicity), null keys (SQL never-match), name
    collisions (right suffix), at two partition counts. Both sides also
    carry list<int32>, dictionary<string> and timestamp[us] payloads
    (two of them colliding by name): the output keeps each payload's
    Arrow type, and every payload value stays on its own row.

    The right side is also a parquet leaf (one unit per row group),
    whole and behind a filter that keeps no row: every non-outer how
    gives the same rows and Arrow types when it broadcasts that leaf
    (``BROADCAST_BYTES`` huge) as when it routes (0), and outer routes
    even under the huge value. So does a left side whose blocks differ
    in integer width."""
    import datetime as dt

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from aqueduct_core_ray.stages import exchange, scan_units
    from aqueduct_core_ray.stages.exchange import fx_join, leaf

    def rows(t: pa.Table) -> list:
        return sorted(t.to_pylist(), key=repr)

    def typed(t: pa.Table) -> list:
        return [(f.name, f.type) for f in t.schema]

    def leaf_runs(lds, right, how: str) -> "list[pa.Table]":
        """The join over a leaf right side with ``BROADCAST_BYTES`` 0
        (routes) and huge (broadcasts, except outer), unsalted first,
        then salted (not outer)."""
        out = []
        for salt in ((1, 3) if how != "outer" else (1,)):
            for nbytes in (0, 1 << 62):
                monkeypatch.setattr(exchange, "BROADCAST_BYTES", nbytes)
                plan = {}
                res = fx_join(lds, right, on="k", how=how, salt=salt,
                              _plan_out=plan)
                out.append(pa.concat_tables(ray.get(res.refs)))
                want = ("broadcast" if nbytes and how != "outer"
                        else "route")
                assert plan["strategy"] == want, (how, nbytes)
        return out

    def payloads(t: pa.Table, v: str, ls: str) -> pa.Table:
        # every payload is a function of the side's row id column ``v``
        ids = t.column(v).to_pylist()
        return (t.append_column(ls, pa.array(
                    [[i, i + 1] for i in ids], pa.list_(pa.int32())))
                .append_column("d", pa.array(
                    [f"d{i % 4}" for i in ids]).dictionary_encode())
                .append_column("ts", pa.array(
                    np.asarray(ids, np.int64) * 1_000_000).cast(
                        pa.timestamp("us"))))

    def payload_ok(row: dict, v: str, ls: str, sfx: str) -> bool:
        i = row[v]
        if i is None:
            return (row[ls] is None and row["d" + sfx] is None
                    and row["ts" + sfx] is None)
        return (row[ls] == [i, i + 1] and row["d" + sfx] == f"d{i % 4}"
                and row["ts" + sfx] == dt.datetime(1970, 1, 1)
                + dt.timedelta(seconds=i))

    dict_t = pa.dictionary(pa.int32(), pa.string())
    left_types = {"k": pa.int64(), "v": pa.int64(), "tag": pa.string(),
                  "ls": pa.list_(pa.int32()), "d": dict_t,
                  "ts": pa.timestamp("us")}
    right_types = {"w": pa.int64(), "tag_r": pa.string(),
                   "rs": pa.list_(pa.int32()), "d_r": dict_t,
                   "ts_r": pa.timestamp("us")}

    rng = np.random.default_rng(47)
    for trial in range(3):
        nl, nr = int(rng.integers(20, 120)), int(rng.integers(20, 120))
        lk = rng.integers(0, 15, nl).astype("float64")
        rk = rng.integers(0, 15, nr).astype("float64")
        lk[rng.random(nl) < 0.1] = np.nan          # null join keys
        rk[rng.random(nr) < 0.1] = np.nan
        ldf = pd.DataFrame({
            "k": pd.array([None if np.isnan(x) else int(x) for x in lk],
                          dtype="Int64"),
            "v": np.arange(nl, dtype=np.int64),
            "tag": rng.choice(["a", "b"], nl)})
        rdf = pd.DataFrame({
            "k": pd.array([None if np.isnan(x) else int(x) for x in rk],
                          dtype="Int64"),
            "w": np.arange(nr, dtype=np.int64) * 10,
            "tag": rng.choice(["x", "y"], nr)})   # collides with left
        lds = blocks(payloads(pa.Table.from_pandas(ldf), "v", "ls"))
        rt = payloads(pa.Table.from_pandas(rdf), "w", "rs")
        rds = blocks(rt)
        rp = str(tmp_path / f"right{trial}.parquet")
        pq.write_table(rt, rp, row_group_size=25)
        monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
        monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)
        lt = payloads(pa.Table.from_pandas(ldf), "v", "ls")
        narrow = lt.slice(0, nl // 2)
        narrow = narrow.cast(pa.schema([
            f.with_type(pa.int32()) if f.name in ("k", "v") else f
            for f in narrow.schema]))
        halves = [narrow, lt.slice(nl // 2)]
        lps = [str(tmp_path / f"left{trial}_{i}.parquet") for i in (0, 1)]
        for lp, t in zip(lps, halves):
            pq.write_table(t, lp)
        mixed_lefts = [blocks(halves[0]) + blocks(halves[1]), leaf(lps)]

        rnn = rdf.dropna(subset=["k"])
        want = {
            "inner": ldf.dropna(subset=["k"]).merge(
                rnn.rename(columns={"tag": "tag_r"}), on="k",
                how="inner"),
            # SQL FULL OUTER: null-key rows from EITHER side survive
            # unmatched (pandas alone would pair NaN keys)
            "outer": pd.concat([
                ldf.dropna(subset=["k"]).merge(
                    rnn.rename(columns={"tag": "tag_r"}), on="k",
                    how="outer"),
                ldf[ldf["k"].isna()],
                rdf[rdf["k"].isna()].rename(columns={"tag": "tag_r"})],
                ignore_index=True),
            "left": ldf.merge(
                rnn.rename(columns={"tag": "tag_r"}), on="k",
                how="left"),
            "semi": ldf.dropna(subset=["k"])[
                ldf.dropna(subset=["k"])["k"].isin(rnn["k"])],
            "anti": ldf[~ldf["k"].isin(rnn["k"])],
        }
        for how, exp in want.items():
            for P in (3, 8):
                parts(P)
                got_t = pa.concat_tables(ray.get(
                    fx_join(lds, rds, on="k", how=how).refs))
                types = dict(left_types, **(
                    {} if how in ("semi", "anti") else right_types))
                assert {f.name: f.type for f in got_t.schema} == types, \
                    (how, got_t.schema)
                for row in got_t.to_pylist():
                    assert payload_ok(row, "v", "ls", ""), (how, row)
                    if how not in ("semi", "anti"):
                        assert payload_ok(row, "w", "rs", "_r"), (how, row)
                got = got_t.drop_columns([c for c in types if c not in (
                    "k", "v", "tag", "w", "tag_r")]).to_pandas()
                cols = sorted(got.columns)
                assert cols == sorted(exp.columns), (how, cols)
                g = (got[cols].astype("object")
                     .sort_values(cols).reset_index(drop=True))
                e = (exp[cols].astype("object")
                     .sort_values(cols).reset_index(drop=True))
                assert len(g) == len(e), (trial, how, P, len(g), len(e))
                assert g.where(pd.notna(g), None).equals(
                    e.where(pd.notna(e), None)), (trial, how, P)
            for t in leaf_runs(lds, leaf(rp), how):
                assert typed(t) == typed(got_t), (how, t.schema)
                assert rows(t) == rows(got_t), (trial, how)
            routed, *others = leaf_runs(
                lds, leaf(rp, filter=pc.field("w") < 0), how)
            for t in others:
                assert typed(t) == typed(routed), (how, t.schema)
                assert rows(t) == rows(routed), (trial, how)
            if trial == 0:
                # a left side whose blocks differ in width (int32 k and
                # v in the first, int64 in the second), as two block
                # refs and a two-file leaf, joins at the unified
                # types under either strategy
                for mixed in mixed_lefts:
                    for t in leaf_runs(mixed, leaf(rp), how):
                        assert typed(t) == typed(got_t), (how, t.schema)
                        assert rows(t) == rows(got_t), (how, mixed)


def test_co_group_calls_fn_with_one_table_per_member(ray_session, parts):
    """A tuple input is a co-group: ``fn`` gets one table per member,
    each in its own schema (two members share the column name ``x`` at
    int64 and string), a member without rows arrives as a typed empty
    table, and the result does not depend on the part count."""
    rng = np.random.default_rng(5)
    a = pa.table({"k": pa.array(rng.integers(0, 40, 300), pa.int64()),
                  "x": pa.array(rng.integers(0, 100, 300), pa.int64())})
    b = pa.table({"k": pa.array(rng.integers(0, 40, 200), pa.int64()),
                  "x": pa.array([f"s{i}" for i in range(200)])})
    c = pa.table({"k": pa.array([], pa.int64()),
                  "y": pa.array([], pa.float64())})

    def fn(ta: pa.Table, tb: pa.Table, tc: pa.Table) -> pa.Table:
        assert ta.schema.field("x").type == pa.int64()
        assert tb.schema.field("x").type == pa.string()
        assert tc.num_rows == 0
        assert tc.schema.names == ["k", "y", "part"]
        ka = ta.column("k").to_numpy(zero_copy_only=False)
        kb = tb.column("k").to_numpy(zero_copy_only=False)
        keys = np.union1d(ka, kb)
        xa = ta.column("x").to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(keys, pa.int64()),
            "sum_a": pa.array([int(xa[ka == k].sum()) for k in keys],
                              pa.int64()),
            "n_b": pa.array([int((kb == k).sum()) for k in keys],
                            pa.int64())})

    src = ([ray.put(a.slice(0, 150)), ray.put(a.slice(150))],
           [ray.put(b.slice(0, 80)), ray.put(b.slice(80))], [ray.put(c)])
    got = []
    for P in (3, 8):
        parts(P)
        out = file_exchange_map_groups(src, fn, keys=["k"])
        assert [s.names for s in out.schema] == [
            ["k", "x", "part"], ["k", "x", "part"], ["k", "y", "part"]]
        got.append(pa.concat_tables(ray.get(out.refs)).sort_by("k"))
    assert got[0].equals(got[1])
    da, db = a.to_pandas(), b.to_pandas()
    want = pd.DataFrame({"k": np.union1d(da.k, db.k)})
    want["sum_a"] = [int(da.x[da.k == k].sum()) for k in want.k]
    want["n_b"] = [int((db.k == k).sum()) for k in want.k]
    assert got[0].to_pandas().equals(want)
    # the folds take one input
    with pytest.raises(TypeError):
        fx_agg_by(src[:2], ["k"], [("x", "sum")])


def test_fx_join_nullable_int_keys_one_side(ray_session, parts, blocks):
    """Regression (review finding): a block whose int64 key column
    carries a null degrades to float64 under to_numpy; dtype-dependent
    hashing would route the same key differently per block/side and
    silently drop matches. Nulls on the LEFT only, multi-block right —
    every non-null key must still match."""
    import pandas as pd
    import pyarrow as pa

    from aqueduct_core_ray.stages.exchange import fx_join

    ldf = pd.DataFrame({
        "k": pd.array([1, 2, None, 3, 4], dtype="Int64"),
        "v": [10, 20, 30, 40, 50]})
    rdf = pd.DataFrame({"k": pd.array(range(1, 5), dtype="Int64"),
                        "w": [100, 200, 300, 400]})
    lds = blocks(pa.Table.from_pandas(ldf))
    rds = blocks(pa.Table.from_pandas(rdf), 3)

    parts(5)
    inner = (_pd(fx_join(lds, rds, on="k", how="inner"))
             .sort_values("k").reset_index(drop=True))
    assert list(inner["k"]) == [1, 2, 3, 4]          # no dropped match
    assert list(inner["w"]) == [100, 200, 300, 400]
    parts(5)
    anti = _pd(fx_join(lds, rds, on="k", how="anti"))
    assert len(anti) == 1 and pd.isna(anti["k"]).all()  # null never matches


def test_fx_join_salted_output_invariant(ray_session, parts, blocks):
    """salt>1 (hot-key defusal: left sub-bucketed, right replicated)
    must produce EXACTLY the salt=1 output for every how — including a
    heavily skewed key."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from aqueduct_core_ray.stages.exchange import fx_join

    rng = np.random.default_rng(53)
    keys = np.concatenate([np.zeros(60, np.int64),     # hot key 0
                           rng.integers(1, 9, 40)])
    ldf = pd.DataFrame({"k": keys, "v": np.arange(100, dtype=np.int64)})
    rdf = pd.DataFrame({"k": np.arange(0, 9, dtype=np.int64),
                        "w": np.arange(0, 90, 10, dtype=np.int64)})
    lds = blocks(pa.Table.from_pandas(ldf), 4)
    rds = blocks(pa.Table.from_pandas(rdf))

    for how in ("inner", "left", "semi", "anti"):
        parts(4)
        base = _pd(fx_join(lds, rds, on="k", how=how))
        parts(4)
        salted = _pd(fx_join(lds, rds, on="k", how=how, salt=3))
        cols = sorted(base.columns)
        b = base[cols].sort_values(cols).reset_index(drop=True)
        s = salted[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(s, b, obj=f"how={how}")

    import pytest
    with pytest.raises(ValueError, match="outer"):
        # replicated right side would duplicate unmatched right rows
        parts(4)
        fx_join(lds, rds, on="k", how="outer", salt=3)


def test_fx_join_composite_keys(ray_session, parts, blocks):
    """Multi-column join keys: same pandas-equality law, plus the
    combined-key hash must not collapse distinct (k1,k2) pairs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from aqueduct_core_ray.stages.exchange import fx_join

    rng = np.random.default_rng(61)
    ldf = pd.DataFrame({
        "k1": rng.integers(0, 5, 80),
        "k2": rng.choice(["a", "b", "c"], 80),
        "v": np.arange(80, dtype=np.int64)})
    rdf = pd.DataFrame({
        "k1": rng.integers(0, 5, 40),
        "k2": rng.choice(["a", "b", "c"], 40),
        "w": np.arange(40, dtype=np.int64)})
    lds = blocks(pa.Table.from_pandas(ldf), 3)
    rds = blocks(pa.Table.from_pandas(rdf))
    for how in ("inner", "left", "semi", "anti"):
        parts(4)
        got = _pd(fx_join(lds, rds, on=["k1", "k2"], how=how))
        if how == "inner":
            exp = ldf.merge(rdf, on=["k1", "k2"], how="inner")
        elif how == "left":
            exp = ldf.merge(rdf, on=["k1", "k2"], how="left")
        else:
            keys = rdf[["k1", "k2"]].drop_duplicates()
            m = ldf.merge(keys, on=["k1", "k2"], how="left",
                          indicator=True)
            keep = (m["_merge"] == "both") if how == "semi" else \
                   (m["_merge"] == "left_only")
            exp = ldf[keep.to_numpy()]
        cols = sorted(got.columns)
        g = (got[cols].astype("object").sort_values(cols)
             .reset_index(drop=True))
        e = (exp[cols].astype("object").sort_values(cols)
             .reset_index(drop=True))
        assert len(g) == len(e), how
        assert g.where(pd.notna(g), None).equals(
            e.where(pd.notna(e), None)), how


def test_fx_join_salt_actually_spreads_hot_key(ray_session, parts, blocks):
    """The defusal property itself: with salt=4, one hot key's left
    rows must occupy MULTIPLE sub-buckets (a key-derived sub-bucket
    once routed them all to one task — review finding)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from aqueduct_core_ray.stages.exchange import fx_join

    # count distinct parts the hot key's rows land in by joining it
    # against a right side that tags sub-bucket via the part column…
    # simpler: drive the tag closure directly through fx_join's
    # internals is private — instead assert via task-level row counts:
    # a salted inner join of 1 hot key x 1 right row must run >1
    # partition task, observable as >1 output block.
    ldf = pd.DataFrame({"k": np.zeros(4000, np.int64),
                        "v": np.arange(4000, dtype=np.int64)})
    rdf = pd.DataFrame({"k": np.zeros(1, np.int64),
                        "w": np.array([7], np.int64)})
    lds = blocks(pa.Table.from_pandas(ldf), 2)
    rds = blocks(pa.Table.from_pandas(rdf))
    parts(2)
    out = fx_join(lds, rds, on="k", how="inner",
                  salt=4)
    outs = [t for t in ray.get(out.refs) if t.num_rows]
    assert sum(t.num_rows for t in outs) == 4000   # every pair met once
    assert len(outs) > 1        # the hot key fanned across >1 task


def test_fx_agg_by_auto_stat_driven_matches_reference(ray_session, blocks):
    """num_partitions=None (stat-driven): virtual buckets packed into
    byte-budgeted tasks from the manifest's measured slice sizes.
    Result must equal the pandas reference exactly; the plan hook must
    show packing ran."""
    from aqueduct_core_ray.stages.exchange import fx_agg_by
    rng = np.random.default_rng(11)
    n = 30_000
    t = pa.table({
        "k": pa.array(rng.integers(0, 5000, n).astype(np.int64)),
        "v": pa.array(rng.integers(-100, 100, n).astype(np.int64)),
    })
    plan = {}
    got = (_pd(fx_agg_by(blocks(t, 6), ["k"],
                         [("v", "sum"), ("v", "count")] and [("v", "sum")],
                         _plan_out=plan))
           .sort_values("k").reset_index(drop=True))
    want = (t.to_pandas().groupby("k", as_index=False)["v"].sum()
            .sort_values("k").reset_index(drop=True))
    assert plan["packed"] and plan["tasks"] >= 1
    assert got["k"].tolist() == want["k"].tolist()
    assert got["v"].tolist() == want["v"].tolist()


def test_fx_agg_by_oversized_partition_splits_and_refolds(ray_session,
                                                        blocks):
    """The memory guard: one deliberately hot key (every row hashes to
    ONE bucket) under a tiny per-task byte budget must chunk-fold +
    refold — >1 split task in the plan, per-chunk working set bounded
    by the budget, and the aggregate (incl. the count->sum refold law)
    still exact."""
    from aqueduct_core_ray.stages.exchange import fx_agg_by
    n = 50_000
    t = pa.table({
        "k": pa.array(np.zeros(n, np.int64)),          # ONE key
        "v": pa.array(np.arange(n, dtype=np.int64)),
        "w": pa.array(np.arange(n, dtype=np.int64) * 3),
    })
    plan = {}
    got = _pd(fx_agg_by(blocks(t, 8), ["k"],
                        [("v", "sum"), ("w", "max"), ("k", "count")],
                        target_bytes=64 * 1024, _plan_out=plan))
    assert plan["split"] >= 1, plan      # the guard actually engaged
    assert len(got) == 1
    assert int(got["v"].iloc[0]) == n * (n - 1) // 2
    assert int(got["w"].iloc[0]) == (n - 1) * 3
    # count refolds as SUM of partial counts, not count of partials
    assert int(got["k"].iloc[0]) == n


def test_fx_join_auto_mode_matches_explicit(ray_session, parts,
                                           monkeypatch, blocks):
    """fx_join at the default part count and packing must equal its
    output at P=7 with one task per part, for every how."""
    import pandas as pd
    from aqueduct_core_ray.stages.exchange import fx_join
    rng = np.random.default_rng(29)
    ldf = pd.DataFrame({"k": rng.integers(0, 30, 200),
                        "v": np.arange(200, dtype=np.int64)})
    rdf = pd.DataFrame({"k": rng.integers(0, 30, 50),
                        "w": np.arange(50, dtype=np.int64)})
    lds = blocks(pa.Table.from_pandas(ldf), 3)
    rds = blocks(pa.Table.from_pandas(rdf))
    for how in ("inner", "left", "semi", "anti"):
        plan = {}
        parts(7)
        base = _pd(fx_join(lds, rds, on="k", how=how))
        monkeypatch.undo()          # the auto side runs on the defaults
        auto = _pd(fx_join(lds, rds, on="k", how=how, _plan_out=plan))
        assert plan["packed"]
        cols = sorted(base.columns)
        b = base[cols].sort_values(cols).reset_index(drop=True)
        a = auto[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, obj=f"how={how}")


def test_multinode_guard_refuses_node_local_default(ray_session,
                                                    monkeypatch, blocks):
    """On a >1-node cluster a node-local default exchange/index root
    must FAIL LOUDLY (files written under one node's /tmp are invisible
    elsewhere); an explicit root (arg or env) is the operator's
    assertion that the path is shared and must pass."""
    import aqueduct_core_ray.stages.exchange as ex
    monkeypatch.delenv("AQR_EXCHANGE_ROOT", raising=False)
    monkeypatch.setattr(ex, "_alive_node_count", lambda: 3)
    t = pa.table({"part": pa.array([0, 1], pa.int32()),
                  "v": pa.array([1, 2], pa.int64())})
    ds = blocks(t)
    try:
        ex.file_exchange_map_groups(ds, _make_fn())
        assert False, "expected RuntimeError on multi-node default root"
    except RuntimeError as e:
        assert "SHARED storage" in str(e)
    # explicit root passes the guard (path itself is still local —
    # only the guard is under test here)
    got = ex.file_exchange_map_groups(ds, _make_fn(),
                                      root="/tmp/aqr_guard_ok")
    assert len(_pd(got)) == 2
    # IVF root guard: default refuses, env passes
    from aqueduct_core_ray.functions.ann import _default_index_root
    try:
        _default_index_root("unused")
        assert False, "expected RuntimeError on multi-node IVF default"
    except RuntimeError:
        pass
    monkeypatch.setenv("AQR_IVF_ROOT", "/tmp/aqr_ivf_shared")
    assert _default_index_root("unused") == "/tmp/aqr_ivf_shared"


def _part_stats_fn():
    # one output row per fn call: which parts the call saw, and how many
    def fn(g: pa.Table) -> pa.Table:
        part = g.column("part").to_numpy(zero_copy_only=False)
        return pa.table({"part": pa.array([int(part[0])], pa.int32()),
                         "n_parts": pa.array([len(set(part))], pa.int64()),
                         "n": pa.array([len(part)], pa.int64())})
    return fn


def _nonempty(out) -> "list[pa.Table]":
    return [t for t in ray.get(out.refs) if t.num_rows]


def test_cut_runs_contiguous_budgeted_and_salted():
    from aqueduct_core_ray.stages.exchange import _cut_runs
    sizes = {5: 3, 0: 3, 2: 3, 1: 3}
    assert _cut_runs(sizes, 7, 100, 1) == [[0, 1], [2, 5]]
    # a part over budget runs alone, whatever the cap
    assert _cut_runs({0: 1, 1: 50, 2: 1}, 100, 10, 1) == [[0], [1], [2]]
    # salt 3: parts 0-2 are bucket 0, 3-5 bucket 1 — no run holds two
    # sub-buckets of one bucket, different buckets may share a run
    assert _cut_runs({p: 1 for p in range(6)}, 100, 100, 3) == [
        [0], [1], [2, 3], [4], [5]]


def test_packed_exchange_calls_fn_once_per_part_alone(ray_session, blocks):
    """Many parts, fewer tasks: fn still sees every non-empty part
    exactly once, alone, with its part column — the map_groups
    contract survives packing."""
    rng = np.random.default_rng(3)
    n = 30_000
    part = rng.choice(np.arange(0, 120, 3), n).astype(np.int32)  # sparse
    t = pa.table({"part": pa.array(part),
                  "v": pa.array(rng.integers(0, 9, n).astype(np.int64))})
    plan = {}
    got = _pd(file_exchange_map_groups(blocks(t, 5), _part_stats_fn(),
                                       _plan_out=plan))
    assert plan["parts"] == 40 and plan["tasks"] < plan["parts"]
    assert plan["packed"] >= 1
    assert sorted(got["part"]) == sorted(set(part.tolist()))   # once each
    assert (got["n_parts"] == 1).all()                         # alone
    want = pd.Series(part).value_counts()
    assert all(int(r.n) == int(want[r.part]) for r in got.itertuples())


def test_packed_exchange_output_in_ascending_part_order(ray_session,
                                                        blocks):
    """Concatenated output blocks come out in ascending part order,
    whether the parts fit one run or several."""
    rng = np.random.default_rng(5)
    for n, tasks in ((2_000, 1), (400_000, 3)):
        t = pa.table({
            "part": pa.array(rng.integers(0, 64, n).astype(np.int32)),
            "v": pa.array(np.arange(n, dtype=np.int64))})
        plan = {}
        out = file_exchange_map_groups(
            blocks(t, 4), _part_stats_fn(), target_bytes=1 << 20,
            _plan_out=plan)
        parts = pa.concat_tables(_nonempty(out)).column("part").to_pylist()
        assert parts == sorted(set(t.column("part").to_pylist())), n
        assert plan["tasks"] >= tasks, (n, plan)


def test_exchange_tasks_grow_with_input_bytes(ray_session, blocks):
    """At a fixed target_bytes the task count follows the data volume,
    not the number of parts (the hash modulus)."""
    tasks = []
    for n in (50_000, 200_000, 800_000):
        t = pa.table({
            "part": pa.array((np.arange(n) % 16).astype(np.int32)),
            "v": pa.array(np.arange(n, dtype=np.int64))})
        plan = {}
        file_exchange_map_groups(blocks(t, 4), _part_stats_fn(),
                                 target_bytes=1 << 20, _plan_out=plan)
        assert plan["parts"] == 16
        tasks.append(plan["tasks"])
    assert tasks[0] < tasks[1] < tasks[2], tasks


def test_packed_run_concatenates_reordered_and_empty_outputs(ray_session,
                                                             blocks):
    """Within one run, parts whose fn outputs list columns in different
    orders, or are empty with other column types, concatenate into one
    clean block."""
    def fn(g: pa.Table) -> pa.Table:
        p = int(g.column("part")[0].as_py())
        cols = {"part": pa.array([p], pa.int32()),
                "n": pa.array([g.num_rows], pa.int64())}
        if p % 3 == 0:      # an empty output typed unlike the others
            return pa.table({"part": pa.array([], pa.int32()),
                             "n": pa.array([], pa.int32())})
        if p % 2:                               # reversed column order
            return pa.table(dict(reversed(list(cols.items()))))
        return pa.table(cols)

    t = pa.table({"part": pa.array((np.arange(300) % 12).astype(np.int32)),
                  "v": pa.array(np.arange(300, dtype=np.int64))})
    plan = {}
    out = file_exchange_map_groups(blocks(t, 3), fn, _plan_out=plan)
    outs = _nonempty(out)
    assert plan["tasks"] == 1 and len(outs) == 1
    assert sorted(outs[0].column_names) == ["n", "part"]
    assert outs[0].column("part").to_pylist() == [
        p for p in range(12) if p % 3]
    assert set(outs[0].column("n").to_pylist()) == {25}
    # a run whose parts ALL return empty yields no rows, not an error
    none = file_exchange_map_groups(blocks(t), lambda g: g.slice(0, 0))
    assert _nonempty(none) == []


def test_exchange_writes_one_metrics_row_per_call(ray_session, tmp_path,
                                                  monkeypatch, blocks):
    """Every exchange call appends one op="exchange" row (writer and
    task seconds, parts, tasks, split, bytes) to $AQR_METRICS_PATH; its
    task count is the planned one."""
    import json

    from aqueduct_core_ray import metrics
    path = tmp_path / "ops.jsonl"
    monkeypatch.setenv("AQR_METRICS_PATH", str(path))
    metrics.drain()
    t = pa.table({"part": pa.array((np.arange(500) % 7).astype(np.int32)),
                  "v": pa.array(np.arange(500, dtype=np.int64))})
    plans = []
    for _ in range(2):
        plans.append({})
        file_exchange_map_groups(blocks(t, 2), _make_fn(),
                                 _plan_out=plans[-1])
    rows = [json.loads(x) for x in path.read_text().splitlines()]
    assert [r["op"] for r in rows] == ["exchange", "exchange"]
    for r, plan in zip(rows, plans):
        assert r["fn"] == "fn" and r["ok"]
        assert r["tasks"] == plan["tasks"] and r["parts"] == 7
        assert r["split"] == 0 and r["bytes"] == plan["bytes"] > 0
        assert 0 <= r["write_s"] + r["run_s"] <= r["wall_s"] + 1e-5
    assert len(metrics.recent("exchange")) == 2


def test_exchange_metrics_row_names_its_pre(ray_session, blocks):
    """The op="exchange" row names the writers' ``pre`` beside ``fn``
    (its ``write_s`` includes the pre's time): None without one, the
    wrapped function's name for a partial, one name per member for a
    co-group."""
    import functools

    import pyarrow.compute as pc

    from aqueduct_core_ray import metrics
    from aqueduct_core_ray.stages.exchange import file_exchange_map_groups

    def double(t: pa.Table, k: int) -> pa.Table:
        return t.set_column(1, "v", pc.multiply(t.column("v"), k))

    def pair(a: pa.Table, b: pa.Table) -> pa.Table:
        return pa.table({"n": [a.num_rows + b.num_rows]})

    t = pa.table({"k": pa.array(np.arange(40) % 5),
                  "v": pa.array(np.arange(40, dtype=np.int64))})
    metrics.drain()
    file_exchange_map_groups(blocks(t, 2), _make_fn(), keys=["k"])
    file_exchange_map_groups(blocks(t, 2), _make_fn(), keys=["k"],
                             pre=functools.partial(double, k=2))
    file_exchange_map_groups((blocks(t, 2), blocks(t, 1)), pair,
                             keys=["k"],
                             pre=(functools.partial(double, k=3), None))
    rows = metrics.recent("exchange")
    assert [(r["fn"], r["pre"]) for r in rows] == [
        ("fn", None), ("fn", "double"), ("pair", ["double", None])]


def test_fx_join_records_its_strategy(ray_session, tmp_path, monkeypatch):
    """fx_join's ``_plan_out`` and its op="exchange" metrics row name the
    strategy: a leaf right side of at most ``BROADCAST_BYTES`` footer
    bytes broadcasts (``tasks`` = left tasks, ``bytes`` = the right
    footer bytes, no exchange files), one byte more routes."""
    import pyarrow.parquet as pq

    from aqueduct_core_ray import metrics
    from aqueduct_core_ray.stages import exchange as ex
    rp = str(tmp_path / "r.parquet")
    pq.write_table(pa.table({"k": pa.array(np.arange(40), pa.int64()),
                             "w": pa.array(np.arange(40) * 2)}), rp)
    nbytes = sum(b for *_, b in ex.leaf(rp).pieces())
    left = [ray.put(pa.table({"k": pa.array(np.arange(i, 60, 3), pa.int64())}))
            for i in range(3)]
    outs = {}
    for limit, strategy in ((nbytes, "broadcast"), (nbytes - 1, "route")):
        monkeypatch.setattr(ex, "BROADCAST_BYTES", limit)
        metrics.drain()
        plan = {}
        out = ex.fx_join(left, ex.leaf(rp), on="k", _plan_out=plan)
        (row,) = metrics.recent("exchange")
        assert plan["strategy"] == row["strategy"] == strategy
        assert row["fn"] == "_join_part"
        assert row["tasks"] == plan["tasks"]
        if strategy == "broadcast":
            assert row["tasks"] == 3 and row["bytes"] == nbytes
        outs[strategy] = pa.concat_tables(ray.get(out.refs)).sort_by("k")
    assert outs["broadcast"].equals(outs["route"])
    assert outs["route"].column("w").to_pylist() == [
        2 * k for k in range(40)]


def test_alive_node_count_propagates_non_ray_errors(ray_session,
                                                    monkeypatch):
    """Only a Ray shutdown race reads as one node; any other error from
    ray.nodes() must surface — silently reporting one node would turn
    the multi-node shared-root guard off."""
    import pytest

    import aqueduct_core_ray.stages.exchange as ex

    def broken():
        raise ValueError("bad node table")
    monkeypatch.setattr(ex.ray, "nodes", broken)
    with pytest.raises(ValueError):
        ex._alive_node_count()

    def shut_down():
        raise ray.exceptions.RaySystemError("shut down")
    monkeypatch.setattr(ex.ray, "nodes", shut_down)
    assert ex._alive_node_count() == 1
