"""Last-writer-wins compaction kernels (vectorized Arrow, no row loops).

Reference semantics (the conformance anchor): among a set of change events,
keep only the max-offset row per key — SQLiteQueries.java:51-52
(`GROUP BY msg_key, type` max-offset anti-join) with golden survivor
fixtures in SQLiteStorageIntegrationSpec.groovy:710-921. `lsn` is unique by
generator contract (reference relies on BIGSERIAL uniqueness), so LWW has
no ties.

`compact_lww` doubles as the *combiner*: applied per block in an
exchange's writer task it emits at most one row per (block, doc_id),
which is what defuses hot-key skew before the per-partition shuffle
(SURVEY.md §7.2 milestone 5) — the classic partial-aggregate pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


@dataclass(frozen=True)
class ConflictPolicy:
    """Pluggable conflict resolution (SURVEY.md §2.10 'Ours').

    order_col: the column that orders competing writes for a key
               ("lsn" = log order, "ts" = event time, ...).
    keep:      "latest" (max order wins, the reference's LWW) or
               "earliest" (min order wins — first-writer-wins).
    Ties always break by lsn (unique by generator contract), keeping
    resolution deterministic for any policy.
    """

    order_col: str = "lsn"
    keep: str = "latest"

    def __post_init__(self):
        if self.keep not in ("latest", "earliest"):
            raise ValueError(self.keep)

    @property
    def direction(self) -> str:
        return "descending" if self.keep == "latest" else "ascending"

    @property
    def lake_order_field(self) -> str | None:
        """Extra lake column needed to resolve across waves (None when
        lsn already serves: last_lsn is always stored as lineage)."""
        return None if self.order_col == "lsn" else f"last_{self.order_col}"

    @property
    def retains_tombstones(self) -> bool:
        """True when a FUTURE event could lose to a tombstone under this
        policy (first-writer-wins; any non-lsn ordering). The
        materialized partition must then keep tombstone winners as
        fence rows (last_op=1) or a later wave would resurrect the doc —
        found by the sidecar associativity property test. Default
        lsn-latest LWW never needs fences: a later event always carries
        a higher lsn and wins regardless."""
        return not (self.order_col == "lsn" and self.keep == "latest")


LWW = ConflictPolicy()


def compact_lww(t: pa.Table, key: str | list[str] = "doc_id",
                order_col: str = "lsn",
                policy: ConflictPolicy | None = None) -> pa.Table:
    """Keep only the winning row per `key` under `policy` (default: max
    `order_col`, i.e. LWW). Stable & vectorized: sort indices by
    (keys asc, order dir, lsn dir), keep the first index per run."""
    keys = [key] if isinstance(key, str) else list(key)
    if policy is None:
        policy = ConflictPolicy(order_col=order_col)
    if t.num_rows <= 1:
        return t
    t = t.combine_chunks()
    order_keys = [(policy.order_col, policy.direction)]
    if policy.order_col != "lsn":
        order_keys.append(("lsn", policy.direction))
    idx = pc.sort_indices(
        t, sort_keys=[(k, "ascending") for k in keys] + order_keys
    )
    n = len(idx)
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    for k in keys:
        ks = pc.take(t.column(k), idx).combine_chunks()
        a, b = ks.slice(1, n - 1), ks.slice(0, n - 1)
        neq = pc.not_equal(a, b)
        # null-safe grouping (SQL GROUP BY): null==null, null!=value
        va = pc.is_valid(a).to_numpy(zero_copy_only=False)
        vb = pc.is_valid(b).to_numpy(zero_copy_only=False)
        neq_np = neq.to_numpy(zero_copy_only=False)
        new_run = np.where(va & vb, neq_np.astype(bool), va != vb)
        mask[1:] |= new_run
    return t.take(idx.filter(pa.array(mask)))


def split_tombstones(delta: pa.Table) -> tuple[pa.Table, pa.Table]:
    """(upserts, deletes) from a compacted delta (`op` column: 0/1)."""
    is_del = pc.equal(delta.column("op"), pa.scalar(1, pa.int8()))
    return delta.filter(pc.invert(is_del)), delta.filter(is_del)
