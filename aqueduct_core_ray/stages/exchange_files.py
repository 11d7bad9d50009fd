"""The exchange file format, defined once for every file exchange: the
engine's waves (stages/merge_apply.py) and the library's
``file_exchange_map_groups`` (stages/exchange.py).

- writer (``write_slices``): one Arrow-IPC file per block, one record
  batch per part present in it, in ascending part order. Returns the
  block's manifest: one (part, path, batch, bytes) row per slice plus a
  ``part = -1`` row carrying the serialized schema of the written table;
- planner (``plan_slices``): per-part slice lists from the manifests;
- reader (``read_slices``): the slices' tables, one open per file.

The codec is the caller's constant (waves lz4, the library none). No
Ray Data here: both exchanges run their writers and readers as raw
tasks.
"""

from __future__ import annotations

import os
import uuid
from typing import Iterable, Sequence

import numpy as np
import pyarrow as pa

MANIFEST = pa.schema([("part", pa.int32()), ("path", pa.string()),
                      ("batch", pa.int32()), ("bytes", pa.int64()),
                      ("schema", pa.binary())])

# (path, batch index, in-memory bytes) of one part's slice in one block
Slice = "tuple[str, int, int]"


def write_slices(t: pa.Table, xdir: str,
                 compression: "str | None" = None) -> pa.Table:
    """Write ``t`` as one exchange block under ``xdir``: EXACTLY one
    record batch per value of its int ``part`` column (the manifest
    addresses slices by batch index). A block not already grouped by
    part is reordered by one stable argsort (on 16 bits when the parts
    fit); a grouped one
    (``compact_lww`` on (part, doc_id)) skips that gather of its token
    lists. The per-slice byte count is what lets a planner pack parts
    to a byte budget. A typed empty block writes no file and returns
    only its schema row; a column-less empty block (Ray Data's
    stand-in for a pruned read or a skipped map) has no schema to
    report, so its manifest is empty."""
    if t.num_columns == 0:
        return MANIFEST.empty_table()
    head = pa.table({"part": [-1], "path": [None], "batch": [-1],
                     "bytes": [0],
                     "schema": [t.schema.serialize().to_pybytes()]},
                    schema=MANIFEST)
    if t.num_rows == 0:
        return head
    part = t.column("part").to_numpy(zero_copy_only=False)
    if (np.diff(part) < 0).any():
        # a 16-bit copy when every part fits: numpy's stable sort is a
        # radix sort there (same order, ~8x faster than on int32)
        key = (part.astype(np.uint16)
               if part.min() >= 0 and part.max() <= 0xFFFF else part)
        order = np.argsort(key, kind="stable")
        t, part = t.take(pa.array(order)), part[order]
    t = t.combine_chunks()
    starts = np.flatnonzero(np.concatenate([[True], part[1:] != part[:-1]]))
    sizes = np.diff(np.append(starts, len(part)))
    os.makedirs(xdir, exist_ok=True)
    path = os.path.join(xdir, f"block-{uuid.uuid4().hex}.arrow")
    nbytes = []
    opts = pa.ipc.IpcWriteOptions(compression=compression)
    with pa.OSFile(path + ".tmp", "wb") as sink:
        with pa.ipc.new_file(sink, t.schema, options=opts) as w:
            for s, n in zip(starts, sizes):
                sl = t.slice(int(s), int(n))
                w.write_batch(sl.to_batches()[0])  # one chunk: combined
                # nbytes respects slice offsets (referenced ranges only)
                nbytes.append(sl.nbytes)
    os.replace(path + ".tmp", path)
    return pa.concat_tables([head, pa.table({
        "part": pa.array(part[starts].astype(np.int32)),
        "path": pa.array([path] * len(starts)),
        "batch": pa.array(np.arange(len(starts), dtype=np.int32)),
        "bytes": pa.array(np.asarray(nbytes, dtype=np.int64)),
        "schema": pa.nulls(len(starts), pa.binary()),
    }, schema=MANIFEST)])


def plan_slices(manifests: "Iterable[pa.Table]"
                ) -> "tuple[dict[int, list[Slice]], list[pa.Schema]]":
    """{part: [(path, batch, bytes)]} in manifest order, and the written
    schemas (one per block that reported one)."""
    plan: "dict[int, list]" = {}
    schemas = []
    for m in manifests:
        c = m.to_pydict()
        for p, path, bi, nb, sch in zip(c["part"], c["path"], c["batch"],
                                        c["bytes"], c["schema"]):
            if p < 0:
                schemas.append(pa.ipc.read_schema(pa.py_buffer(sch)))
            else:
                plan.setdefault(p, []).append((path, bi, nb))
    return plan, schemas


def read_slices(slices: "Sequence[tuple]") -> "list[pa.Table]":
    """One table per (path, batch, ...) slice, in order. Buffered pread,
    not mmap: with many concurrent readers each mapping fresh tmpfs
    pages, per-page fault overhead under mmap_lock dominates, while
    pread into pooled Arrow memory reuses already-faulted heap pages.
    One open per file, not per slice."""
    by_path: "dict[str, list[tuple[int, int]]]" = {}
    for i, (path, bi, *_) in enumerate(slices):
        by_path.setdefault(path, []).append((i, bi))
    out: list = [None] * len(slices)
    for path, items in by_path.items():
        with pa.OSFile(path, "rb") as src:
            reader = pa.ipc.open_file(src)
            for i, bi in items:
                out[i] = pa.Table.from_batches([reader.get_batch(bi)])
    return out
