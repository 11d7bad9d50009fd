"""Hash partitioning.

The reference routes rows by cluster/routing id (PostgresqlStorage.java:
446-467 lateral per-cluster scans); here the lake is hash-partitioned by
`doc_id` — the ONE partitioning key reused across merge, verification and
derived-table work so no stage needs a second shuffle (SURVEY.md §7.4).

Hashes are computed with pandas' vectorized siphash
(`pandas.util.hash_array`, fixed key) — deterministic across processes and
nodes, so every task and every run agrees on row placement.

Hot keys (north_rule) are handled on the exchange, not here: each scan
block's LWW pre-compaction (stages/compact.py) acts as a combiner, so at
most one row per (block, doc_id) reaches the shuffle, and the engine's
`salt=S` folds a wide wave's blocks in S combine tasks so at most S rows
of a hot doc reach its merge task (stages/merge_apply.combine_blocks).
Reference analog: none needed (per-store data small, SURVEY.md §4 skew
row).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def hash_doc_ids(doc_ids: pa.ChunkedArray | pa.Array | np.ndarray) -> np.ndarray:
    """Stable uint64 hash of a string column (vectorized siphash)."""
    if isinstance(doc_ids, (pa.ChunkedArray, pa.Array)):
        arr = doc_ids.to_numpy(zero_copy_only=False)
    else:
        arr = doc_ids
    return pd.util.hash_array(np.asarray(arr, dtype=object), categorize=False)


def partition_ids(doc_ids, num_partitions: int) -> np.ndarray:
    return (hash_doc_ids(doc_ids) % np.uint64(num_partitions)).astype(np.int32)


def add_partition(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Append `part` (hash(doc_id) % P). Runs inside a raw task."""
    part = partition_ids(batch.column("doc_id"), num_partitions)
    return batch.append_column("part", pa.array(part))
