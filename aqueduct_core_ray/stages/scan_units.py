"""Parquet scan units: a file's row groups as (path, row_group, bytes)
pieces, packed in order into per-task unit lists under a byte budget.
One packer for every raw read task: the engine's log/seed scans
(pipelines/replay.py) and the library exchange's leaf reads
(stages/exchange.py)."""

from __future__ import annotations

import os
from typing import Iterable

import pyarrow.parquet as pq

Piece = "tuple[str, int | None, int]"
Unit = "list[tuple[str, list[int] | None]]"


def rg_pieces(path: str, nbytes: int, rg_bytes: list[int],
              keep: "Iterable[int] | None" = None) -> "list[Piece]":
    """(path, row_group_id | None, est. compressed bytes) scan pieces of
    one parquet file, row groups limited to ``keep``. Footer
    total_byte_size is uncompressed, so it is scaled to the file size;
    a file with no row groups is one whole-file piece."""
    if not rg_bytes:
        return [(path, None, nbytes)]
    scale = nbytes / (sum(rg_bytes) or 1)
    return [(path, i, max(1, int(rg_bytes[i] * scale)))
            for i in (range(len(rg_bytes)) if keep is None else keep)]


def file_pieces(path: str) -> "list[Piece]":
    """Every row group of one parquet file, from its footer."""
    md = pq.read_metadata(path)
    return rg_pieces(path, os.path.getsize(path),
                     [md.row_group(i).total_byte_size
                      for i in range(md.num_row_groups)])


# unit byte-budget bounds (compressed bytes): a unit is never smaller
# than MIN_UNIT_BYTES unless the input is, nor larger than
# MAX_UNIT_BYTES. ``unit_budget`` reads them at call time (the leaf
# reads' bounds); the engine's CDCEngine.MIN_SPLIT_BYTES /
# TARGET_SPLIT_BYTES class attributes are set from them.
MIN_UNIT_BYTES = 4 * 1024 * 1024
MAX_UNIT_BYTES = 64 * 1024 * 1024


def unit_budget(total: int, cpus: int, lo: "int | None" = None,
                hi: "int | None" = None) -> int:
    """Unit byte budget for ``total`` input bytes: about two units per
    CPU, clamped to [lo, hi] (default [MIN_UNIT_BYTES,
    MAX_UNIT_BYTES])."""
    lo = MIN_UNIT_BYTES if lo is None else lo
    hi = MAX_UNIT_BYTES if hi is None else hi
    return max(lo, min(hi, total // (2 * cpus) + 1))


def pack_units(pieces: "list[Piece]", unit_bytes: int) -> "list[Unit]":
    """Cut pieces, in order, into per-task unit lists
    [(file, row_group_ids | None)] of up to ``unit_bytes`` each."""
    units: list = []
    cur: list = []
    cur_b = 0
    for full, rg_id, b in pieces:
        if cur and cur_b + b > unit_bytes:
            units.append(cur)
            cur, cur_b = [], 0
        if rg_id is None:
            cur.append((full, None))
        elif cur and cur[-1][0] == full and cur[-1][1] is not None:
            cur[-1] = (full, cur[-1][1] + [rg_id])
        else:
            cur.append((full, [rg_id]))
        cur_b += b
    if cur:
        units.append(cur)
    return units
