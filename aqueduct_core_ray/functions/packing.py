"""Sequence packing: tokenized documents -> fixed-length training
sequences (the last mile of a pretraining data pipeline over exactly
the input_hint shape ``(doc_id, tokens, n_tok, source)``).

Concat-and-chunk packing per HASH PARTITION: documents are routed by
``hash(doc_id) % P`` and packed in doc_id order within each partition,
so the output is deterministic for a corpus regardless of read
parallelism or block boundaries (block-local packing would change with
the execution plan). Everything inside a partition is vectorized: one
flatten of the token lists, one offsets arange to re-slice into
``context_len`` windows — no per-document loop.

The trailing partial pack of each partition is emitted unpadded with
its true length (callers pad or drop; emitting it keeps token counts
conserved and testable).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads

import ray.data

from ..pipelines.events_replay import _documents, tokenize_batch
from ..stages import exchange


def pack_tokenized(src: "exchange.Leaf | list", context_len: int = 512,
                   num_partitions: int = 8) -> exchange.Exchanged:
    """Concat-and-chunk packing of ALREADY-TOKENIZED rows in the
    input_hint shape, read from an exchange input (a leaf, or block
    refs such as ``map_blocks`` of ``tokenize_batch``) — the composable
    core behind ``pack_sequences`` (and the composed
    ``pipelines.curate.train_pipeline``). Returns the exchange's
    (pack_id, tokens, n_tok, n_docs) blocks; all packs are exactly
    ``context_len`` tokens except each partition's final partial."""

    def tag_part(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        part = (pd.util.hash_array(np.asarray(ids, dtype=object),
                                   categorize=False)
                % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("part", pa.array(part))

    empty = pa.table({
        "pack_id": pa.array([], pa.string()),
        "tokens": pa.array([], pa.list_(pa.int32())),
        "n_tok": pa.array([], pa.int32()),
        "n_docs": pa.array([], pa.int64()),
    })

    def pack(g: pa.Table) -> pa.Table:
        pid = int(g.column("part")[0].as_py())
        order = np.argsort(
            g.column("doc_id").to_numpy(zero_copy_only=False),
            kind="stable")
        toks = g.column("tokens").take(pa.array(order)).combine_chunks()
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        n = len(flat)
        if n == 0:
            return empty
        if n > (1 << 31) - 1:
            raise ValueError(
                f"partition holds {n} tokens — exceeds int32 list "
                "offsets; raise num_partitions so each partition stays "
                "under 2^31 tokens")
        n_packs = -(-n // context_len)
        offsets = np.minimum(
            np.arange(n_packs + 1, dtype=np.int64) * context_len, n)
        packs = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pa.array(flat.astype(np.int32), pa.int32()))
        # docs whose FIRST token falls in pack k are attributed to k —
        # a cheap, exact per-pack doc count via searchsorted
        doc_lens = g.column("n_tok").take(
            pa.array(order)).to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.zeros(len(doc_lens), dtype=np.int64)
        np.cumsum(doc_lens[:-1], out=starts[1:])
        per_pack = np.bincount(starts // context_len,
                               minlength=n_packs).astype(np.int64)
        ids = [f"p{pid:04d}-{i:08d}" for i in range(n_packs)]
        return pa.table({
            "pack_id": pa.array(ids),
            "tokens": packs,
            "n_tok": pa.array(
                (offsets[1:] - offsets[:-1]).astype(np.int32)),
            "n_docs": pa.array(per_pack),
        })

    return exchange.file_exchange_map_groups(src, pack, empty_result=empty,
                                             pre=tag_part)


def pack_sequences(sf_dir: str, context_len: int = 512,
                   num_partitions: int = 8) -> ray.data.Dataset:
    """documents.parquet -> tokenize -> pack (see pack_tokenized)."""
    return ray.data.from_arrow_refs(pack_tokenized(exchange.map_blocks(
        _documents(sf_dir), tokenize_batch), context_len,
        num_partitions).refs)


def pack_documents(sf_dir: str, context_len: int = 512,
                   num_partitions: int = 8) -> ray.data.Dataset:
    """DOCUMENT-PRESERVING packing (the SFT/instruction-tuning shape):
    no document is ever split across packs — next-fit in doc_id order
    per hash partition, a new pack opens when the next doc would
    overflow ``context_len``. Docs longer than ``context_len`` become
    singleton packs flagged ``oversize`` (callers truncate or drop).
    Returns (pack_id, doc_ids, n_tok, n_docs, waste, oversize) — no
    token payload moves; the pack manifest is the output, a later
    gather materializes token tensors from it.

    Scale shape: same hash(doc_id) partition routing as
    ``pack_sequences`` (deterministic under any read parallelism);
    inside a partition the only non-vectorized work is ONE
    ``searchsorted`` per OUTPUT pack against the doc-length cumsum —
    O(packs log docs), the same O(output-rows) concession as
    chunk_batch's final slicing. Next-fit (not first-fit-decreasing)
    is deliberate: it preserves doc_id locality so a resumed/re-run
    job reproduces identical packs, and its waste is bounded and
    reported per pack rather than hidden."""

    def tag_part(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        part = (pd.util.hash_array(np.asarray(ids, dtype=object),
                                   categorize=False)
                % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("part", pa.array(part))

    # the exchange's typed empty result: doc_ids take the documents'
    # doc_id type, read from the parquet footer (no Ray Data execution)
    doc_id = pads.dataset(f"{sf_dir}/documents.parquet").schema.field(
        "doc_id").type
    empty = pa.table({
        "pack_id": pa.array([], pa.string()),
        "doc_ids": pa.array([], pa.list_(doc_id)),
        "n_tok": pa.array([], pa.int64()),
        "n_docs": pa.array([], pa.int64()),
        "waste": pa.array([], pa.int64()),
        "oversize": pa.array([], pa.bool_()),
    })

    def pack(g: pa.Table) -> pa.Table:
        pid = int(g.column("part")[0].as_py())
        order = np.argsort(
            g.column("doc_id").to_numpy(zero_copy_only=False),
            kind="stable")
        dids = g.column("doc_id").take(pa.array(order))
        lens = g.column("n_tok").take(pa.array(order)) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(lens)
        cum = np.zeros(n + 1, np.int64)
        np.cumsum(lens, out=cum[1:])
        # next-fit: pack p covers docs [b_p, b_{p+1}); the break is the
        # last doc with cum ≤ cum[b_p] + L — ONE searchsorted per pack.
        # An oversize doc (len > L) would yield an empty range; it is
        # emitted alone and the scan resumes after it.
        breaks = [0]
        while breaks[-1] < n:
            b = breaks[-1]
            e = int(np.searchsorted(cum, cum[b] + context_len,
                                    side="right")) - 1
            if e <= b:               # doc b alone exceeds context_len
                e = b + 1
            breaks.append(e)
        b = np.asarray(breaks[:-1], np.int64)
        e = np.asarray(breaks[1:], np.int64)
        n_tok = cum[e] - cum[b]
        oversize = n_tok > context_len
        offs = np.zeros(len(b) + 1, np.int64)
        np.cumsum(e - b, out=offs[1:])
        doc_lists = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), dids.combine_chunks())
        ids = [f"p{pid:04d}-{i:08d}" for i in range(len(b))]
        return pa.table({
            "pack_id": pa.array(ids),
            "doc_ids": doc_lists,
            "n_tok": pa.array(n_tok),
            "n_docs": pa.array(e - b),
            "waste": pa.array(
                np.where(oversize, 0, context_len - n_tok)),
            "oversize": pa.array(oversize),
        })

    # tokenize in the writer and drop the token payload before the
    # exchange: the pack manifest only needs (doc_id, n_tok), so no
    # token bytes move
    def manifest_rows(t: pa.Table) -> pa.Table:
        return tag_part(tokenize_batch(t).drop_columns(["tokens"]))

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        _documents(sf_dir), pack, empty_result=empty,
        pre=manifest_rows).refs)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "pack_sequences",
    "pack_documents",
))
