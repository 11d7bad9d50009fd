"""Blocked fuzzy matching (entity resolution / record linkage).

Classic blocked-ER shape: a cheap deterministic BLOCKING KEY co-locates
candidate records, and an edit-distance verifier runs only WITHIN
blocks — never all-pairs. The match predicate here is exact and
SQL-expressible (same blocking key + levenshtein(prefix) <= max_dist),
so the whole operator is oracle-checkable against DuckDB's
``levenshtein``. Reference anchor: aqueduct-core compacts by EXACT key
equality (SQLiteQueries.java:54-55); fuzzy matching is the
approximate-key generalization every dedup/linkage pipeline needs when
keys are dirty.

Scale notes: one hash exchange on the blocking key, read from the
documents leaf with the key computed in the writers; within a partition
all pairs are generated per block and verified by ONE vectorized
multi-pair Levenshtein DP (numpy over the pair axis — L x L sequential
steps of M-wide SIMD ops, no per-pair Python). Blocking-key skew is the
real-world failure mode: a hot block of size m contributes m^2/2 pairs,
so pair generation chunks at ``pair_chunk`` to bound memory
(correctness preserved — every chunk is still verified). Pick blocking
keys selective enough that max-block m^2 is tolerable; the operator
reports only true matches, which are small by definition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .text import _docs

from ..stages import exchange

__all__ = ["levenshtein_pairs", "fuzzy_match_pairs"]


def levenshtein_pairs(a: "list[str]", b: "list[str]") -> np.ndarray:
    """Levenshtein distance for M string pairs in ONE vectorized DP:
    codepoint matrices (M, La) x (M, Lb), the DP advances row by row
    with numpy minimums over the whole pair axis, and each pair's
    answer is read at its true (len_a, len_b) cell. O(La*Lb) numpy
    steps total, independent of M."""
    M = len(a)
    if M == 0:
        return np.empty(0, np.int64)
    la = np.array([len(s) for s in a], np.int64)
    lb = np.array([len(s) for s in b], np.int64)
    La, Lb = int(la.max(initial=0)), int(lb.max(initial=0))
    A = np.zeros((M, La), np.uint32)
    B = np.zeros((M, Lb), np.uint32)
    for i, s in enumerate(a):
        A[i, :len(s)] = np.frombuffer(s.encode("utf-32-le"), np.uint32)
    for i, s in enumerate(b):
        B[i, :len(s)] = np.frombuffer(s.encode("utf-32-le"), np.uint32)
    res = np.empty(M, np.int64)
    # dp row i=0: distance from empty prefix of a = j inserts
    prev = np.tile(np.arange(Lb + 1, dtype=np.int32), (M, 1))
    done0 = la == 0
    if done0.any():
        res[done0] = lb[done0]
    for i in range(1, La + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = A[:, i - 1][:, None]                       # (M, 1)
        cost = (ai != B).astype(np.int32)               # (M, Lb)
        sub = prev[:, :-1] + cost                       # substitution
        dele = prev[:, 1:] + 1                          # delete from a
        best = np.minimum(sub, dele)
        # insertion needs the just-computed left neighbor: sequential
        # over j, vectorized over pairs
        for j in range(1, Lb + 1):
            cur[:, j] = np.minimum(best[:, j - 1], cur[:, j - 1] + 1)
        snap = la == i
        if snap.any():
            res[snap] = cur[snap, lb[snap]]
        prev = cur
    return res


def fuzzy_match_pairs(sf_dir: str, block_chars: int = 12,
                      prefix_chars: int = 24, max_dist: int = 4,
                      pair_chunk: int = 1 << 20) -> ray.data.Dataset:
    """All document pairs whose texts share the first ``block_chars``
    characters (the blocking key) and whose first ``prefix_chars``
    characters are within ``max_dist`` edits. Returns
    (doc_a, doc_b, dist) with doc_a < doc_b — exactly the SQL
    ``JOIN ON same-block AND a.doc_id < b.doc_id WHERE
    levenshtein(prefix_a, prefix_b) <= max_dist``."""

    def keyed(t: pa.Table) -> pa.Table:
        blk = pc.utf8_slice_codeunits(t.column("text"), 0, block_chars)
        pfx = pc.utf8_slice_codeunits(t.column("text"), 0, prefix_chars)
        return pa.table({
            "blk": blk,
            "pfx": pfx,
            "doc_id": t.column("doc_id"),
        })

    empty = pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
        "dist": pa.array([], pa.int64()),
    })

    def per_part(g: pa.Table) -> pa.Table:
        blk = g.column("blk").to_numpy(zero_copy_only=False)
        pfx = g.column("pfx").to_numpy(zero_copy_only=False)
        did = g.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, blk))
        blk, pfx, did = blk[order], pfx[order], did[order]
        starts = np.flatnonzero(
            np.concatenate([[True], blk[1:] != blk[:-1]]))
        sizes = np.diff(np.append(starts, len(blk)))
        ia_all, ib_all = [], []
        for s, m in zip(starts, sizes):
            if m < 2:
                continue
            iu, ju = np.triu_indices(int(m), k=1)
            ia_all.append(iu + s)
            ib_all.append(ju + s)
        if not ia_all:
            return empty
        ia = np.concatenate(ia_all)
        ib = np.concatenate(ib_all)
        outs = []
        for lo in range(0, len(ia), pair_chunk):
            sa, sb = ia[lo:lo + pair_chunk], ib[lo:lo + pair_chunk]
            d = levenshtein_pairs(list(pfx[sa]), list(pfx[sb]))
            keep = d <= max_dist
            if not keep.any():
                continue
            da, db = did[sa[keep]], did[sb[keep]]
            lo_id, hi_id = np.minimum(da, db), np.maximum(da, db)
            outs.append(pa.table({
                "doc_a": pa.array(lo_id.astype(np.int64)),
                "doc_b": pa.array(hi_id.astype(np.int64)),
                "dist": pa.array(d[keep].astype(np.int64)),
            }))
        return (pa.concat_tables(outs, promote_options="default")
                if outs else empty)

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        _docs(sf_dir, ["doc_id", "text"]), per_part, keys=["blk"],
        empty_result=empty, pre=keyed).refs)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "fuzzy_match_pairs",
))
