"""Content-defined chunking (rolling polynomial hash) + chunk-level
dedup over the ``documents`` table — sub-document deduplication for
training corpora: two documents sharing a boilerplate paragraph get the
same chunk fingerprint for it even when the surrounding text shifts the
byte offsets (the property fixed-size blocks lack).

Vectorized rolling hash: for an odd base B, the polynomial window hash
over bytes b is

    W[i] = hash(b[i .. i+w)) = B^{i+w-1} * (S[i+w] - S[i])   (mod 2^64)
    S[k] = Σ_{j<k} b[j] * Binv^j,   Binv = B^{-1} mod 2^64

Both S and the power tables are wraparound-uint64 ``np.cumprod`` /
``cumsum`` arrays, so the WHOLE sliding-window hash sequence of a batch
is computed with no Python loop; chunk boundaries are the positions
where ``W & mask == 0`` (expected chunk length 2^k bytes). Only the
final per-chunk substring slicing is row-level — O(#chunks), not
O(bytes).

Scale shape of ``chunk_dedup``: documents stream through the chunker in
batches; only (chunk_fp, doc_id, chunk_idx, n_bytes) rows — never the
text — reach the shuffle; a native count aggregate finds fingerprints
shared across documents.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..stages import exchange

_B = np.uint64(1000003)            # odd ⇒ invertible mod 2^64
_W = 16                            # rolling window bytes


def _modinv_pow2_64(a: int) -> int:
    """Inverse of odd ``a`` mod 2^64 (Newton iteration doubles bits)."""
    x = a                          # 3-bit seed: a*a ≡ 1 (mod 8) for odd a
    for _ in range(6):
        x = (x * (2 - a * x)) % (1 << 64)
    return x


_BINV = np.uint64(_modinv_pow2_64(int(_B)))


def chunk_boundaries(data: bytes, k_bits: int = 8,
                     max_chunk: int = 4096) -> list[int]:
    """End offsets of content-defined chunks (expected length 2^k_bits,
    hard max ``max_chunk``); always ends with len(data)."""
    n = len(data)
    if n <= _W:
        return [n] if n else []
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    idx = np.arange(n + 1, dtype=np.uint64)
    powB = np.empty(n + 1, dtype=np.uint64)
    powB[0] = 1
    np.cumprod(np.full(n, _B, dtype=np.uint64), out=powB[1:])
    powBinv = np.empty(n, dtype=np.uint64)
    powBinv[0] = 1
    if n > 1:
        np.cumprod(np.full(n - 1, _BINV, dtype=np.uint64),
                   out=powBinv[1:])
    S = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(b * powBinv, out=S[1:])
    # W[i] covers bytes [i, i+W): defined for i in [0, n-W]
    i = np.arange(0, n - _W + 1)
    Wh = (S[i + _W] - S[i]) * powB[i + _W - 1]
    mask = np.uint64((1 << k_bits) - 1)
    cut = np.flatnonzero((Wh & mask) == 0) + _W     # boundary AFTER window
    out: list[int] = []
    prev = 0
    for c in cut.tolist():
        while c - prev > max_chunk:                 # hard cap
            prev += max_chunk
            out.append(prev)
        if c - prev > 0:
            out.append(c)
            prev = c
    while n - prev > max_chunk:
        prev += max_chunk
        out.append(prev)
    if prev < n:
        out.append(n)
    return out


_GOLD = np.uint64(0x9E3779B97F4A7C15)

# 16-bit split tables for geometric sequences: numpy's uint64 cumprod is
# a serial generic loop (~75 ns/element — measured 0.3 s per 5 MB batch),
# so a^i over millions of i is instead composed from two 65536-entry
# tables: a^i = lo[i & 0xffff] * hi[i >> 16] — two memory-speed gathers.
_POW_LO_N = 1 << 16


def _pow_table(a: np.uint64, n: int) -> np.ndarray:
    """[a^0, a^1, ..., a^(n-1)] mod 2^64, built via the 16-bit split."""
    lo = np.empty(min(n, _POW_LO_N), dtype=np.uint64)
    lo[0] = 1
    if len(lo) > 1:
        np.cumprod(np.full(len(lo) - 1, a, dtype=np.uint64), out=lo[1:])
    if n <= _POW_LO_N:
        return lo
    n_hi = (n - 1 >> 16) + 1
    step = np.uint64((int(lo[-1]) * int(a)) & 0xFFFFFFFFFFFFFFFF)  # a^65536
    hi = np.empty(n_hi, dtype=np.uint64)
    hi[0] = 1
    if n_hi > 1:
        np.cumprod(np.full(n_hi - 1, step, dtype=np.uint64), out=hi[1:])
    # outer(hi, lo).ravel() IS the sequence a^0..a^(n_hi*65536-1): one
    # SIMD multiply pass, no index-gather (gathers measured 70 ms/5 MB)
    return np.multiply.outer(hi, lo).ravel()[:n]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants) —
    avalanches the raw polynomial chunk hash into a well-distributed
    64-bit fingerprint."""
    x = x + _GOLD
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def chunk_batch(t: pa.Table, text_col: str = "text", k_bits: int = 8,
                max_chunk: int = 4096) -> pa.Table:
    """(doc_id, chunk_idx, chunk_fp, n_bytes) rows for one batch —
    fully vectorized across the WHOLE batch, zero interpreter work per
    doc: the Arrow string column's concatenated utf-8 buffer is used
    in place (no ``to_pylist``/``encode`` copies), ONE rolling-hash
    pass runs over all bytes, windows that straddle doc boundaries are
    masked out, and the max_chunk capping + per-chunk fingerprints are
    segmented numpy arithmetic. The polynomial window hash is
    position-invariant (W_cat[doc_start+i] ≡ W_doc[i] — the Binv
    prefix-sum construction cancels the offset), so the batch pass
    produces boundaries IDENTICAL to per-doc ``chunk_boundaries``
    (pinned by test_chunking's cross-validation test)."""
    col = t.column(text_col)
    sa = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if sa.null_count:
        sa = pc_fill_null_empty(sa)
    n_docs = len(sa)
    off_dt = np.int64 if pa.types.is_large_string(sa.type) else np.int32
    bufs = sa.buffers()
    offs = np.frombuffer(bufs[1], off_dt)[sa.offset: sa.offset + n_docs + 1]
    base = int(offs[0])
    starts = (offs[:-1].astype(np.int64) - base)
    ends = (offs[1:].astype(np.int64) - base)
    doc_len = ends - starts
    buf = np.frombuffer(bufs[2], np.uint8)[base: base + int(ends[-1])] \
        if n_docs else np.empty(0, np.uint8)
    n = len(buf)

    empty = pa.table({
        "doc_id": pa.array([], t.column("doc_id").type),
        "chunk_idx": pa.array([], pa.int64()),
        "chunk_fp": pa.array([], pa.int64()),
        "n_bytes": pa.array([], pa.int64()),
    })
    if n == 0:
        return empty

    # one rolling-hash pass over the batch's concatenated bytes
    b = buf.astype(np.uint64)
    powB = _pow_table(_B, n + 1)
    powBinv = _pow_table(_BINV, n)
    S = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(b * powBinv, out=S[1:])

    if n >= _W:
        # sliced views, not index gathers: W[j] covers [j, j+W)
        Wh = (S[_W:] - S[:n - _W + 1]) * powB[_W - 1: n]
        mask = np.uint64((1 << k_bits) - 1)
        hitj = np.flatnonzero((Wh & mask) == 0)      # window start offsets
        # window [j, j+W) is a valid cut for its doc iff fully inside it
        d_nat = np.searchsorted(starts, hitj, side="right") - 1
        ok = hitj + _W <= ends[d_nat]
        d_nat = d_nat[ok]
        c_nat = hitj[ok] + _W - starts[d_nat]        # doc-local cut
    else:
        d_nat = np.empty(0, np.int64)
        c_nat = np.empty(0, np.int64)

    # every nonempty doc ends with a cut at its own length
    nz = np.flatnonzero(doc_len > 0)
    d_all = np.concatenate([d_nat, nz])
    c_all = np.concatenate([c_nat, doc_len[nz]])
    order = np.lexsort((c_all, d_all))
    d_all, c_all = d_all[order], c_all[order]
    keep = np.ones(len(d_all), bool)                 # drop dup (doc, cut)
    keep[1:] = (d_all[1:] != d_all[:-1]) | (c_all[1:] != c_all[:-1])
    d_all, c_all = d_all[keep], c_all[keep]

    # gaps between consecutive cuts (reset per doc), then max_chunk caps:
    # a gap g yields K = (g-1)//max_chunk synthetic cuts + the cut itself
    prev = np.zeros(len(c_all), np.int64)
    same = np.zeros(len(c_all), bool)
    same[1:] = d_all[1:] == d_all[:-1]
    prev[same] = c_all[np.flatnonzero(same) - 1]
    g = c_all - prev
    K = (g - 1) // max_chunk
    counts = K + 1
    total = int(counts.sum())
    cum = np.cumsum(counts) - counts
    iw = np.arange(total) - np.repeat(cum, counts)   # index within gap
    prev_r = np.repeat(prev, counts)
    d_r = np.repeat(d_all, counts)
    c_start = prev_r + iw * max_chunk
    c_end = prev_r + np.minimum((iw + 1) * max_chunk,
                                np.repeat(g, counts))
    sizes = c_end - c_start

    # chunk_idx: grouped arange per doc
    first = np.ones(total, bool)
    first[1:] = d_r[1:] != d_r[:-1]
    doc_first = np.flatnonzero(first)
    per_doc = np.diff(np.append(doc_first, total))
    chunk_idx = np.arange(total) - np.repeat(doc_first, per_doc)

    # per-chunk fingerprints from the same prefix sums: the polynomial
    # hash of bytes [gs, ge) is (S[ge]-S[gs])·B^{ge-1} (position-
    # invariant), avalanched with the length mixed in
    gs = starts[d_r] + c_start
    ge = starts[d_r] + c_end
    h = (S[ge] - S[gs]) * powB[ge - 1]
    fp = _splitmix64(h ^ (sizes.astype(np.uint64) * _GOLD))

    return pa.table({
        "doc_id": t.column("doc_id").take(pa.array(d_r, pa.int64())),
        "chunk_idx": pa.array(chunk_idx, pa.int64()),
        "chunk_fp": pa.array(fp.view(np.int64)),
        "n_bytes": pa.array(sizes, pa.int64()),
    })


def pc_fill_null_empty(sa: pa.Array) -> pa.Array:
    import pyarrow.compute as pc
    return pc.fill_null(sa, "")


def chunk_dedup(sf_dir: str, k_bits: int = 8, max_chunk: int = 4096,
                min_docs: int = 2) -> ray.data.Dataset:
    """Chunk fingerprints appearing in at least ``min_docs`` DISTINCT
    documents: (chunk_fp, n_docs, n_occurrences) — the shared-boilerplate
    detector. The exchange moves per-block (fp, doc, count) pairs keyed
    on the fingerprint, and both aggregation stages are Arrow group_bys
    in the fingerprint's part (no per-fingerprint Python call; group
    count here is unbounded at corpus scale)."""
    import pyarrow.compute as pc

    def pair_counts(t: pa.Table) -> pa.Table:
        agg = (chunk_batch(t, k_bits=k_bits, max_chunk=max_chunk)
               .group_by(["chunk_fp", "doc_id"])
               .aggregate([([], "count_all")]))
        return pa.table({"chunk_fp": agg.column("chunk_fp"),
                         "doc_id": agg.column("doc_id"),
                         "n": agg.column("count_all")})

    def per_fp(g: pa.Table) -> pa.Table:
        agg = (g.group_by(["chunk_fp", "doc_id"]).aggregate([("n", "sum")])
               .group_by("chunk_fp")
               .aggregate([([], "count_all"), ("n_sum", "sum")]))
        out = pa.table({
            "chunk_fp": agg.column("chunk_fp"),
            "n_docs": agg.column("count_all").cast(pa.int64()),
            "n_occurrences": agg.column("n_sum_sum").cast(pa.int64()),
        })
        return out.filter(pc.greater_equal(out.column("n_docs"),
                                           min_docs))

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/documents.parquet", ["doc_id", "text"]),
        per_fp, keys=["chunk_fp"], pre=pair_counts).refs)


# --------------------------------------------------------------------- #
# Winnowing fingerprints (Schleimer, Wilkerson & Aiken, SIGMOD 2003 —
# the MOSS algorithm): k-gram hashes, sliding windows of w consecutive
# hashes, select the minimum per window (rightmost on ties). Guarantee:
# any substring match of length >= w + k - 1 shares at least one
# selected fingerprint — the local-document-fingerprinting counterpart
# to the global MinHash sketch (dedup.py) and the content-defined
# chunks above.

def _gram_hashes(data: bytes, k: int) -> np.ndarray:
    """Avalanched k-gram rolling hashes of one byte string (positions
    0..len-k) — the single-doc twin of the batch kernel, shared with
    the naive test reference so hash parity is by construction."""
    n = len(data)
    if n < k:
        return np.empty(0, np.uint64)
    b = np.frombuffer(data, np.uint8).astype(np.uint64)
    powB = _pow_table(_B, n + 1)
    powBinv = _pow_table(_BINV, n)
    S = np.zeros(n + 1, np.uint64)
    np.cumsum(b * powBinv, out=S[1:])
    return _splitmix64((S[k:] - S[: n - k + 1]) * powB[k - 1: n])


def winnow_batch(t: pa.Table, text_col: str = "text", k: int = 16,
                 w: int = 8) -> pa.Table:
    """(doc_id, pos, fp) winnowing selections for one batch — fully
    vectorized over the batch's concatenated utf-8 buffer like
    ``chunk_batch``: ONE rolling-hash pass yields every k-gram hash,
    the sliding min runs as ``w`` shifted vector compares (later shift
    wins ties = the paper's rightmost-min rule), windows straddling doc
    boundaries are masked out, and docs too short for a full window
    degrade per the paper (k <= len < k+w-1: one rightmost-min over all
    grams; 0 < len < k: one whole-text fingerprint at pos 0)."""
    col = t.column(text_col)
    sa = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if sa.null_count:
        sa = pc_fill_null_empty(sa)
    n_docs = len(sa)
    empty = pa.table({
        "doc_id": pa.array([], t.column("doc_id").type),
        "pos": pa.array([], pa.int64()),
        "fp": pa.array([], pa.int64()),
    })
    if n_docs == 0:
        return empty
    off_dt = np.int64 if pa.types.is_large_string(sa.type) else np.int32
    bufs = sa.buffers()
    offs = np.frombuffer(bufs[1], off_dt)[sa.offset: sa.offset + n_docs + 1]
    base = int(offs[0])
    starts = offs[:-1].astype(np.int64) - base
    ends = offs[1:].astype(np.int64) - base
    doc_len = ends - starts
    buf = np.frombuffer(bufs[2], np.uint8)[base: base + int(ends[-1])]
    n = len(buf)
    if n == 0:
        return empty

    powB = _pow_table(_B, n + 1)
    powBinv = _pow_table(_BINV, n)
    S = np.zeros(n + 1, np.uint64)
    np.cumsum(buf.astype(np.uint64) * powBinv, out=S[1:])
    docof = np.repeat(np.arange(n_docs, dtype=np.int64), doc_len)

    sel_doc: list[np.ndarray] = []
    sel_pos: list[np.ndarray] = []
    sel_fp: list[np.ndarray] = []

    if n >= k:
        L = n - k + 1
        Kh = _splitmix64((S[k:] - S[:L]) * powB[k - 1: n])
        gdoc = docof[:L]
        valid = np.arange(L, dtype=np.int64) + k <= ends[gdoc]
        INF = np.uint64(0xFFFFFFFFFFFFFFFF)
        Khm = np.where(valid, Kh, INF)
        if L >= w:
            Wn = L - w + 1
            best = Khm[:Wn].copy()
            besti = np.zeros(Wn, np.int64)
            for s in range(1, w):
                cand = Khm[s: Wn + s]
                take = cand <= best          # later shift wins ties
                best = np.where(take, cand, best)
                besti = np.where(take, s, besti)
            okw = (valid[:Wn] & valid[w - 1:]
                   & (gdoc[:Wn] == gdoc[w - 1:]))
            sel = np.unique((np.arange(Wn, dtype=np.int64)
                             + besti)[okw])
            if len(sel):
                d = gdoc[sel]
                sel_doc.append(d)
                sel_pos.append(sel - starts[d])
                sel_fp.append(Kh[sel])
        # docs whose gram count is in [1, w): one rightmost-min window
        shorty = np.flatnonzero((doc_len >= k) & (doc_len < k + w - 1))
        if len(shorty):
            m = doc_len[shorty] - k + 1
            cum = np.cumsum(m) - m
            idx = (np.repeat(starts[shorty], m)
                   + np.arange(int(m.sum()), dtype=np.int64)
                   - np.repeat(cum, m))
            dseg = np.repeat(shorty, m)
            order = np.lexsort((-idx, Kh[idx], dseg))
            ds_ = dseg[order]
            first = np.ones(len(order), bool)
            first[1:] = ds_[1:] != ds_[:-1]
            pick = order[first]
            sel2 = idx[pick]
            d2 = dseg[pick]
            sel_doc.append(d2)
            sel_pos.append(sel2 - starts[d2])
            sel_fp.append(Kh[sel2])

    # docs shorter than one gram: whole-text fingerprint at pos 0
    tiny = np.flatnonzero((doc_len > 0) & (doc_len < k))
    if len(tiny):
        e, s0 = ends[tiny], starts[tiny]
        h = _splitmix64((S[e] - S[s0]) * powB[e - 1]
                        ^ (doc_len[tiny].astype(np.uint64) * _GOLD))
        sel_doc.append(tiny)
        sel_pos.append(np.zeros(len(tiny), np.int64))
        sel_fp.append(h)

    if not sel_doc:
        return empty
    d_all = np.concatenate(sel_doc)
    p_all = np.concatenate(sel_pos)
    f_all = np.concatenate(sel_fp)
    order = np.lexsort((p_all, d_all))
    return pa.table({
        "doc_id": t.column("doc_id").take(pa.array(d_all[order],
                                                   pa.int64())),
        "pos": pa.array(p_all[order]),
        "fp": pa.array(f_all[order].view(np.int64)),
    })


def winnow_dedup(sf_dir: str, k: int = 16, w: int = 8,
                 min_docs: int = 2) -> ray.data.Dataset:
    """Winnowing fingerprints appearing in >= ``min_docs`` DISTINCT
    documents: (fp, n_docs, n_positions) — the MOSS shared-fragment
    detector. Scale shape: each document lives in exactly ONE block, so
    the per-block (fp -> n_docs, n_positions) partials are final for
    their docs; a single fx_sum_by file exchange folds them per fp
    (one exchange; the two-native-groupby first cut paid Ray's ~3 s
    sort-shuffle floor TWICE — 5.2 s vs 1.5 s measured at sf0.1).
    Only fingerprint partials reach the shuffle — never text."""
    import pyarrow.compute as pc

    def fp_partial(t: pa.Table) -> pa.Table:
        rows = winnow_batch(t, k=k, w=w)
        pair = rows.group_by(["fp", "doc_id"]).aggregate(
            [("pos", "count")])
        g = pair.group_by("fp").aggregate(
            [("doc_id", "count"), ("pos_count", "sum")])
        return pa.table({
            "fp": g.column("fp"),
            "n_docs": g.column("doc_id_count").cast(pa.int64()),
            "n_positions": g.column("pos_count_sum").cast(pa.int64()),
        })

    folded = exchange.fx_sum_by(
        exchange.leaf(f"{sf_dir}/documents.parquet", ["doc_id", "text"]),
        ["fp"], ["n_docs", "n_positions"], pre=fp_partial)

    def gate(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("n_docs"), min_docs))

    return ray.data.from_arrow_refs(exchange.map_blocks(folded.refs, gate))


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "chunk_dedup",
    "winnow_dedup",
))
