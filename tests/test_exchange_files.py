"""Property tests of the one exchange file format
(stages/exchange_files.py): for any table, the reader's slices of a
part concatenate to exactly that part's input rows in input order, the
planner's bytes per part are the sum of the manifests' slice bytes, the
schema row round-trips, and
a block already grouped by part (the writer's fast path) is written
exactly as the same rows reordered by the writer's stable sort."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqueduct_core_ray.stages.exchange_files import (
    MANIFEST,
    plan_slices,
    read_slices,
    write_slices,
)

SCHEMA = pa.schema([("part", pa.int32()), ("x", pa.int64()),
                    ("s", pa.string()), ("tokens", pa.list_(pa.int32()))])


@st.composite
def tables(draw):
    n = draw(st.integers(0, 60))
    nparts = draw(st.integers(1, 6))
    rows = [{"part": draw(st.integers(0, nparts - 1)), "x": i,
             "s": draw(st.one_of(st.none(), st.text(max_size=4))),
             "tokens": draw(st.one_of(st.none(), st.lists(
                 st.integers(0, 1000), max_size=5)))}
            for i in range(n)]
    t = pa.Table.from_pylist(rows, schema=SCHEMA)
    if draw(st.booleans()):                      # part-sorted input
        t = t.sort_by([("part", "ascending"), ("x", "ascending")])
    if n > 1 and draw(st.booleans()):            # multi-chunk input
        k = draw(st.integers(1, n - 1))
        t = pa.concat_tables([t.slice(0, k), t.slice(k)])
    return t


def part_rows(t: pa.Table, p: int) -> pa.Table:
    return t.filter(pc.equal(t.column("part"), pa.scalar(p, pa.int32())))


def stable_grouped(t: pa.Table) -> pa.Table:
    order = np.argsort(t.column("part").to_numpy(zero_copy_only=False),
                       kind="stable")
    return t.take(pa.array(order))


def read_part(plan, p) -> pa.Table:
    return pa.concat_tables(read_slices(plan.get(p, []))
                            or [SCHEMA.empty_table()])


@settings(max_examples=80, deadline=None)
@given(t=tables(), codec=st.sampled_from([None, "lz4"]))
def test_slices_round_trip_every_part(t, codec):
    with tempfile.TemporaryDirectory() as xdir:
        m = write_slices(t, xdir, compression=codec)
        assert m.schema == MANIFEST
        plan, schemas = plan_slices([m])
        assert schemas == [t.schema]              # the schema row
        assert sorted(plan) == sorted(set(t.column("part").to_pylist()))
        for p in range(7):
            want = part_rows(t, p)
            got = read_part(plan, p)
            assert got.equals(want.combine_chunks())
            assert all(b > 0 for *_, b in plan.get(p, []))
        # one file per non-empty block, no index sidecar
        assert len(os.listdir(xdir)) == (1 if t.num_rows else 0)


@settings(max_examples=40, deadline=None)
@given(t=tables())
def test_planner_concatenates_blocks_in_manifest_order(t):
    """Two blocks of one table: each part's plan lists the first
    block's slice before the second's, and its bytes are the sum of
    the two manifests' rows for that part."""
    k = t.num_rows // 2
    with tempfile.TemporaryDirectory() as xdir:
        ms = [write_slices(t.slice(0, k), xdir),
              write_slices(t.slice(k), xdir)]
        plan, schemas = plan_slices(ms)
        assert len(schemas) == 2
        both = pa.concat_tables(ms)
        for p in range(7):
            assert read_part(plan, p).equals(
                part_rows(t, p).combine_chunks())
            mine = both.filter(pc.equal(both.column("part"), p))
            assert sum(b for *_, b in plan.get(p, [])) == sum(
                mine.column("bytes").to_pylist())
            assert [s[0] for s in plan.get(p, [])] == \
                mine.column("path").to_pylist()


@settings(max_examples=40, deadline=None)
@given(t=tables())
def test_sorted_fast_path_matches_sorting_path(t):
    """The writer's stable sort of ``t`` written again hits the fast
    path (no take); both blocks hold the same parts, batches and slices.
    (Slice bytes count buffers as held, so they may differ by validity
    bitmaps a take materializes.)"""
    grouped = stable_grouped(t)
    with tempfile.TemporaryDirectory() as xdir:
        a = write_slices(t, xdir)
        b = write_slices(grouped, xdir)
        assert a.drop_columns(["path", "bytes"]).equals(
            b.drop_columns(["path", "bytes"]))
        pa_, _ = plan_slices([a])
        pb, _ = plan_slices([b])
        for p in pa_:
            for x, y in zip(read_slices(pa_[p]), read_slices(pb[p])):
                assert x.equals(y)


def test_typed_empty_writes_only_the_schema_row(tmp_path):
    m = write_slices(SCHEMA.empty_table(), str(tmp_path))
    assert m.num_rows == 1 and m.column("part").to_pylist() == [-1]
    plan, schemas = plan_slices([m])
    assert plan == {} and schemas == [SCHEMA]
    assert os.listdir(tmp_path) == []


def test_column_less_block_has_an_empty_manifest(tmp_path):
    m = write_slices(pa.table({}), str(tmp_path))
    assert m.num_rows == 0 and m.schema == MANIFEST
    assert plan_slices([m]) == ({}, [])
    assert os.listdir(tmp_path) == []


def test_reader_opens_each_file_once(tmp_path, monkeypatch):
    t = pa.table({"part": pa.array([0, 1, 2, 0], pa.int32()),
                  "x": [1, 2, 3, 4]})
    plan, _ = plan_slices([write_slices(t, str(tmp_path))])
    opened = []
    real = pa.OSFile

    def counting(path, *a, **k):
        opened.append(path)
        return real(path, *a, **k)

    monkeypatch.setattr(pa, "OSFile", counting)
    got = read_slices([s for p in (2, 0, 1) for s in plan[p]])
    assert [g.column("x").to_pylist() for g in got] == [[3], [1, 4], [2]]
    assert len(opened) == 1


@pytest.mark.parametrize("codec", [None, "lz4"])
def test_codec_is_the_callers(tmp_path, codec):
    t = pa.table({"part": pa.array([0] * 1000, pa.int32()),
                  "x": pa.array(np.zeros(1000, np.int64))})
    m = write_slices(t, str(tmp_path), compression=codec)
    path = m.column("path")[1].as_py()
    with pa.OSFile(path, "rb") as f:
        rb = pa.ipc.open_file(f)
        assert rb.num_record_batches == 1
    size = os.path.getsize(path)
    assert (size < 4000) == (codec == "lz4")


@pytest.mark.parametrize("hi", [0xFFFF, 0x10000, 1 << 30])
def test_part_sort_matches_int64_stable_argsort(tmp_path, hi):
    """Unsorted parts that all fit 16 bits (the writer sorts a uint16
    copy) and parts past them (it sorts the parts themselves) are
    written as the block pre-sorted by an int64 stable argsort: same
    manifest and slices."""
    rng = np.random.default_rng(hi)
    part = rng.choice([0, 1, 7, 300, hi - 1, hi], 3000).astype(np.int32)
    t = pa.table({"part": part, "x": np.arange(3000),
                  "s": pa.array([str(i % 11) for i in range(3000)])})
    order = np.argsort(part.astype(np.int64), kind="stable")
    a = write_slices(t, str(tmp_path))
    b = write_slices(t.take(pa.array(order)), str(tmp_path))
    assert a.drop_columns(["path"]).equals(b.drop_columns(["path"]))
    pa_, _ = plan_slices([a])
    pb, _ = plan_slices([b])
    assert sorted(pa_) == sorted(pb) == sorted({0, 1, 7, 300, hi - 1, hi})
    for p in pa_:
        (x,), (y,) = read_slices(pa_[p]), read_slices(pb[p])
        assert x.equals(y) and x.equals(t.take(pa.array(
            order[part[order] == p])))
