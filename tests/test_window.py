"""``exchange.window``: one sort and one segment rule per task, whatever
the part count, and temporal's window queries give the same rows at any
part count."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from aqueduct_core_ray.stages import exchange as ex
from aqueduct_core_ray.stages import scan_units

from test_analytics import SF       # the sf0.001 testdata tables

_SEGS = pa.schema([("u", pa.int64()), ("n", pa.int64()),
                   ("keys", pa.list_(pa.int64())),
                   ("o1", pa.list_(pa.int64())),
                   ("o2", pa.list_(pa.string()))])


def _segment_rows():
    # a closure, like every library call site (pickled by value)
    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ends = np.append(starts[1:], t.num_rows)
        cols = {c: [t.column(c).slice(s, e - s).to_pylist()
                    for s, e in zip(starts, ends)]
                for c in ("u", "o1", "o2")}
        return pa.table([t.column("u").take(starts), ends - starts,
                         cols["u"], cols["o1"], cols["o2"]], schema=_SEGS)
    return fn


@pytest.fixture()
def hand_built(tmp_path):
    rng = np.random.default_rng(11)
    n = 3_000
    u = rng.integers(0, 200, n).astype(np.int64)
    t = pa.table({
        "u": pa.array(u, mask=rng.random(n) < 0.02),    # nulls: one key
        "o1": pa.array(rng.integers(0, 3, n).astype(np.int64)),  # ties
        "o2": pa.array([f"{x:05d}" for x in rng.permutation(n)]),
        "v": pa.array(rng.random(n)),
    })
    path = str(tmp_path / "w.parquet")
    pq.write_table(t, path, row_group_size=250)        # 12 row groups
    return t, path


def test_window_sorts_and_segments_once(hand_built, parts, monkeypatch):
    t, path = hand_built
    monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
    monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)
    want = t.to_pandas()
    want["u"] = want["u"].astype("Int64")
    got = {}
    for P in (3, 16):
        parts(P)
        # every key's rows come from several units, so from several
        # writer blocks and slices
        out = ex.window(ex.leaf(path, ["u", "o1", "o2"]), ["u"],
                        ["o1", "o2"], _segment_rows())
        segs = pa.concat_tables(ray.get(out.refs))
        assert segs.schema == _SEGS
        got[P] = segs.sort_by([("u", "ascending")]).to_pylist()
    assert got[3] == got[16]
    # one segment per key (the null key included), never two
    assert len(got[3]) == want["u"].nunique(dropna=False)
    for seg in got[3]:
        rows = want[want["u"].isna()] if seg["u"] is None \
            else want[want["u"] == seg["u"]]
        # starts at exactly the key changes: every row of the segment
        # carries its key, and the segment holds all of them
        assert seg["keys"] == [seg["u"]] * seg["n"]
        assert seg["n"] == len(rows)
        # sorted by o1, ties broken by o2
        rows = rows.sort_values(["o1", "o2"])
        assert seg["o1"] == rows["o1"].tolist()
        assert seg["o2"] == rows["o2"].tolist()


def test_window_empty_input_is_typed(hand_built):
    t, path = hand_built
    for src in ([ray.put(t.select(["u", "o1", "o2"]).slice(0, 0))],
                ex.leaf(path, ["u", "o1", "o2"],
                        filter=pads.field("v") > 2.0)):
        out = ex.window(src, ["u"], ["o1", "o2"], _segment_rows())
        tabs = ray.get(out.refs)
        assert sum(x.num_rows for x in tabs) == 0
        assert all(x.schema == _SEGS for x in tabs)


def test_segment_kernels():
    starts = np.array([0, 2, 5])
    v = np.array([1, 2, 3, 4, 5, 6, 7])
    assert ex.seg_ids(starts, 7).tolist() == [0, 0, 1, 1, 1, 2, 2]
    assert ex.seg_cumsum(v, starts).tolist() == [1, 3, 3, 7, 12, 6, 13]
    lag = ex.seg_shift(v, starts)
    assert lag.tolist() == [None, 1, None, 3, 4, None, 6]
    assert ex.seg_shift(v, starts, -1).tolist() == [2, None, 4, 5, None,
                                                     7, None]
    assert ex.seg_shift(v, starts, 2).tolist() == [None, None, None, None,
                                                    3, None, None]
    e = np.empty(0, np.int64)
    assert len(ex.seg_cumsum(e, e)) == len(ex.seg_shift(e, e)) == 0


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return (df[cols].astype("object").sort_values(cols)
            .reset_index(drop=True))


@pytest.fixture(scope="module")
def queries():
    import __ray_entry__ as entry
    return entry.queries()


# the window queries whose oracle tests do not already compare part
# counts
@pytest.mark.parametrize("name", ["asof_join_prior", "sessionize",
                                  "session_paths",
                                  "cumulative_users_by_day"])
def test_window_query_is_part_count_invariant(name, queries, parts):
    res = {}
    for P in (3, 16):
        parts(P)
        res[P] = _canon(queries[name](SF).to_pandas())
    assert len(res[3]) > 0
    assert res[3].equals(res[16])
