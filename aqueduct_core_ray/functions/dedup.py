"""Deduplication operators over the ``documents`` / ``embeddings``
tables: exact (hash-partitioned), MinHash+LSH, SimHash, exact n-gram
Jaccard verification, and embedding-cosine near-dup.

Every operator reads its table as an exchange leaf (``text._docs``,
``_embeddings``): a per-block pass is the ``pre`` of the exchange it
feeds or an ``exchange.map_blocks`` pass of raw tasks, a chained
exchange takes the refs of the one before, a driver fold ``ray.get``s
the partials, and a Dataset is built only at the return
(``from_arrow_refs``). No operator starts a Ray Data execution before
it returns.

Scale design (100 TB framing):

- exact dedup: md5(text) computed per block -> hash shuffle on the
  16-byte digest (never on the full text) -> per-group min(doc_id)
  over the file exchange (stages/exchange.py).
- MinHash/SimHash: signatures are computed fully vectorized per block
  (numpy ``minimum.reduceat`` over flattened shingle hashes — no Python
  row loop); LSH banding emits (bucket, doc_id, sig) rows — the compact
  sketch travels WITH the banding row (duplication factor = #bands), so
  bucket-local verification needs no second join; a pair found in
  several buckets collapses through ``fx_agg_by``'s min on the pair key.
- embedding near-dup / brute-force search: the comparison side is
  broadcast once via ``ray.put`` and read zero-copy in every map task —
  O(N·M) matmul per block, never an N×N shuffle join. The IVF variant in
  functions/ann.py is the scale path when M grows.

Determinism: every hash is pandas' keyed siphash or fixed odd-multiplier
mixing — stable across processes/nodes/runs.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .text import (_blocks, _docs, _per_doc, fingerprint_batch,
                   hash_str_array, words)

from ..stages import exchange

# fixed odd 64-bit mixing constants (splitmix64-flavored)
_P1, _P2, _P3 = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _embeddings(sf_dir: str) -> exchange.Leaf:
    """The embeddings table as an exchange leaf of (vec_id, embedding)."""
    return exchange.leaf(f"{sf_dir}/embeddings.parquet",
                         ["vec_id", "embedding"])


# --------------------------------------------------------------------- #
# exact dedup
# --------------------------------------------------------------------- #
def _doc_fp(t: pa.Table) -> pa.Table:
    return t.select(["doc_id", "fp"])


def exact_dedup(sf_dir: str) -> ray.data.Dataset:
    """First-writer-wins exact dedup: one surviving doc_id (the minimum)
    per distinct text, keyed by md5 so the shuffle moves digests, not
    documents. Returns (doc_id, fp).

    ``fx_agg_by(fp).min(doc_id)`` over the file exchange — hash-
    partitioned Arrow-native partial mins, no per-group Python call
    (the round-1 ``map_groups(keep_min)`` was one interpreter call per
    distinct text: a wall at 10^9 groups) and no sort-shuffle floor."""
    mins = exchange.fx_agg_by(_docs(sf_dir, ["doc_id", "text"]), ["fp"],
                              [("doc_id", "min")], pre=fingerprint_batch)
    return ray.data.from_arrow_refs(exchange.map_blocks(mins.refs, _doc_fp))


# --------------------------------------------------------------------- #
# shingling + MinHash signatures (vectorized)
# --------------------------------------------------------------------- #
def _windows(h: np.ndarray, docidx: np.ndarray, n_rows: int,
             shingle: int, short) -> tuple[np.ndarray, np.ndarray]:
    """(sh, sdoc): the mixed hash of every window of ``shingle``
    consecutive tokens within one row of the flat token-hash stream
    ``h`` (``docidx``: each token's row), and the row of each; a row
    with no full window gets one shingle, ``short(missing_rows)``."""
    n = len(h) - shingle + 1
    if n > 0:
        sh = h[:n] * np.uint64(_P1)
        for j in range(1, shingle):
            sh = sh ^ (h[j: n + j] * np.uint64(_P2 + 2 * j))
        valid = docidx[:n] == docidx[shingle - 1:]
        sh, sdoc = sh[valid], docidx[:n][valid]
    else:
        sh, sdoc = np.empty(0, np.uint64), np.empty(0, np.int64)
    missing = np.flatnonzero(np.bincount(sdoc, minlength=n_rows) == 0)
    if len(missing):
        sh = np.concatenate([sh, short(missing)])
        sdoc = np.concatenate([sdoc, missing])
        order = np.argsort(sdoc, kind="stable")
        sh, sdoc = sh[order], sdoc[order]
    return sh, sdoc


def _shingle_hashes(t: pa.Table, text_col: str, shingle: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Word-``shingle``-gram hashes for a block.

    Returns (sh, sdoc): flat shingle-hash array and the row index of each
    shingle. Rows with fewer than ``shingle`` words contribute their
    whole-text hash as a single shingle. Fully vectorized."""
    txt = pc.utf8_trim_whitespace(t.column(text_col))
    toks = words(txt)
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    return _windows(
        hash_str_array(toks.flatten()),
        np.repeat(np.arange(len(counts)), counts), t.num_rows, shingle,
        lambda missing: hash_str_array(txt.combine_chunks())[missing])


def _token_shingle_hashes(t: pa.Table, col: str, shingle: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``_shingle_hashes`` for a LIST<int> token column (the lake's
    pre-tokenized payload): windows of ``shingle`` consecutive token
    ids, mixed with the same constants as the text path; rows shorter
    than ``shingle`` contribute one whole-sequence fold shingle."""
    lists = t.column(col).combine_chunks()
    vals = lists.flatten().to_numpy(zero_copy_only=False) \
        .astype(np.uint64)
    h = ((vals + np.uint64(1)) * np.uint64(_P2)) & _MASK
    counts = pc.list_value_length(lists).fill_null(0) \
        .to_numpy(zero_copy_only=False)
    docidx = np.repeat(np.arange(len(counts)), counts)

    def fold(missing: np.ndarray) -> np.ndarray:
        folded = np.zeros(t.num_rows, np.uint64)
        np.add.at(folded, docidx, (h * np.uint64(_P1)) & _MASK)
        return (((folded + counts.astype(np.uint64) * np.uint64(_P3))
                 * np.uint64(_P2)) & _MASK)[missing]

    return _windows(h, docidx, t.num_rows, shingle, fold)


def _sigs_from_hashes(sh: np.ndarray, sdoc: np.ndarray, n_rows: int,
                      k: int, seed: int) -> np.ndarray:
    """(n_rows, k) uint64 MinHash signatures from a flat shingle-hash
    stream — the kernel shared by the text and token paths."""
    counts = np.bincount(sdoc, minlength=n_rows)
    starts = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    rng = np.random.default_rng(np.random.PCG64(seed))
    a = rng.integers(1, 1 << 63, size=k, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 1 << 63, size=k, dtype=np.uint64)
    sig = np.empty((n_rows, k), dtype=np.uint64)
    for i in range(k):                      # k kernels, each fully vectorized
        sig[:, i] = np.minimum.reduceat((sh * a[i] + b[i]) & _MASK, starts)
    return sig


def minhash_sigs(t: pa.Table, text_col: str = "text", k: int = 64,
                 shingle: int = 3, seed: int = 1337) -> np.ndarray:
    """(n_rows, k) uint64 MinHash signature matrix for one batch; a
    LIST-typed column shingles over token ids instead of words."""
    if pa.types.is_list(t.column(text_col).type) or \
            pa.types.is_large_list(t.column(text_col).type):
        sh, sdoc = _token_shingle_hashes(t, text_col, shingle)
    else:
        sh, sdoc = _shingle_hashes(t, text_col, shingle)
    return _sigs_from_hashes(sh, sdoc, t.num_rows, k, seed)


def _band_rows(doc_ids: np.ndarray, sig: np.ndarray, bands: int
               ) -> pa.Table:
    """(bucket, doc_id, sig) rows — one per (doc, band); bucket is a mixed
    hash of the band's signature slice, salted by band index."""
    n, k = sig.shape
    r = k // bands
    out_bucket = np.empty(n * bands, dtype=np.uint64)
    for b in range(bands):
        bh = np.full(n, np.uint64((_P3 * (b + 1)) & 0xFFFFFFFFFFFFFFFF),
                     dtype=np.uint64)
        for j in range(r):
            bh = (bh ^ sig[:, b * r + j]) * np.uint64(_P1) & _MASK
        out_bucket[b * n:(b + 1) * n] = bh
    flat_sig = pa.FixedSizeListArray.from_arrays(
        pa.array(np.tile(sig, (bands, 1)).reshape(-1).view(np.int64)), k)
    return pa.table({
        "bucket": pa.array(out_bucket.view(np.int64)),
        "doc_id": pa.array(np.tile(doc_ids, bands)),
        "sig": flat_sig,
    })


# Degenerate-bucket guard: a bucket of n near-identical docs (boilerplate
# text, empty pages) is O(n²) pairs — one such bucket OOMs a task. Above
# the cap we keep a deterministic evenly-spaced subsample by doc_id: the
# canonical smallest doc_id always survives, and members of a degenerate
# bucket are mutual near-dups, so sampled pairs still link the cluster.
MAX_BUCKET = 2048


def _cap_bucket(ids: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Indices (into the doc_id-sorted order) kept for pairing. Reads
    ``MAX_BUCKET`` at call time so tests/deployments can tune it."""
    n = len(ids)
    cap = MAX_BUCKET if cap is None else cap
    if n <= cap:
        return np.arange(n)
    return np.linspace(0, n - 1, cap).astype(np.int64)


def _cap_segments(seg: np.ndarray, cap: int) -> np.ndarray:
    """Row-keep mask enforcing the bucket cap over CONTIGUOUS segments
    (input sorted by segment): oversized segments keep every
    ceil(size/cap)-th row — deterministic, evenly spaced, ≤ cap rows.
    Vectorized across all segments at once."""
    _, starts, sizes = np.unique(seg, return_index=True,
                                 return_counts=True)
    ranks = np.arange(len(seg)) - np.repeat(starts, sizes)
    step = np.repeat(-(-sizes // cap), sizes)
    return ranks % step == 0


def _segmented_pairs(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) of ALL within-segment pairs (a < b by
    position) over a segment-sorted array — one vectorized construction
    for every bucket in a partition, replacing a Python call per bucket
    (the round-2 scale fix: bucket COUNT is unbounded at corpus scale
    even though each bucket is small)."""
    n = len(seg)
    _, starts, sizes = np.unique(seg, return_index=True,
                                 return_counts=True)
    ranks = np.arange(n) - np.repeat(starts, sizes)
    cnt = np.repeat(sizes, sizes) - 1 - ranks     # partners after row i
    a = np.repeat(np.arange(n), cnt)
    csum = np.concatenate([[0], np.cumsum(cnt)])
    within = np.arange(len(a)) - np.repeat(csum[:-1], cnt) + 1
    return a, a + within


def _bucket_pairs(sf_dir: str, to_bands, metric: str, score,
                  max_bucket: int | None = None) -> exchange.Exchanged:
    """(doc_id_a, doc_id_b, ``metric``) near-dup pairs, one row per pair.

    The writers band the documents leaf into (bucket, doc_id, sketch)
    rows (``to_bands``). Each part of the exchange keyed on the bucket
    sorts by (bucket, doc_id), caps oversized buckets and builds every
    within-bucket pair in ONE segmented construction — no per-bucket
    Python call (the round-2 scale fix: bucket COUNT is unbounded at
    corpus scale even though each bucket is small); ``score(t, rows,
    ii, jj)`` gives each pair's int64 metric and keep mask from the
    sketch column's ``rows``. A pair found in several buckets keeps one
    row through ``fx_agg_by``'s min on the pair key (the metric is
    sketch-derived, so min() returns the one value every bucket
    computed)."""

    def pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id_a": pa.array([], pa.int64()),
                          "doc_id_b": pa.array([], pa.int64()),
                          metric: pa.array([], pa.int64())})
        if t.num_rows < 2:
            return empty
        bucket = t.column("bucket").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bucket))
        rows = order[_cap_segments(bucket[order], max_bucket or MAX_BUCKET)]
        ii, jj = _segmented_pairs(bucket[rows])
        val, m = score(t, rows, ii, jj)
        if not m.any():
            return empty
        a, b = ids[rows[ii[m]]], ids[rows[jj[m]]]
        return pa.table({"doc_id_a": pa.array(np.minimum(a, b)),
                         "doc_id_b": pa.array(np.maximum(a, b)),
                         metric: pa.array(val[m])})

    cand = exchange.file_exchange_map_groups(
        _docs(sf_dir, ["doc_id", "text"]), pairs, keys=["bucket"],
        pre=to_bands)
    return exchange.fx_agg_by(cand.refs, ["doc_id_a", "doc_id_b"],
                              [(metric, "min")])


def _lsh_pairs(sf_dir: str, k: int, bands: int, shingle: int,
               min_est_pct: int, max_bucket: int | None
               ) -> exchange.Exchanged:
    """MinHash+LSH candidate pairs with their estimated Jaccard
    (``est_jaccard_pct``, the signatures' agreement in percent)."""

    def score(t: pa.Table, rows, ii, jj):
        sig = np.stack(t.column("sig").to_numpy(zero_copy_only=False))[rows]
        pct = np.floor((sig[ii] == sig[jj]).mean(axis=1) * 100
                       ).astype(np.int64)
        return pct, pct >= min_est_pct

    return _bucket_pairs(sf_dir, _to_bands_fn(k, bands, shingle),
                         "est_jaccard_pct", score, max_bucket)


def minhash_lsh_dedup(sf_dir: str, k: int = 64, bands: int = 16,
                      shingle: int = 3, min_est_pct: int = 50,
                      max_bucket: int | None = None) -> ray.data.Dataset:
    """MinHash+LSH near-dup candidate pairs: shingle -> minhash -> band ->
    exchange keyed on the bucket (bounded group count; every bucket in
    a part pairs in one vectorized segmented pass) -> one row per pair
    (``fx_agg_by`` on the pair key)."""
    return ray.data.from_arrow_refs(_lsh_pairs(
        sf_dir, k, bands, shingle, min_est_pct, max_bucket).refs)


# --------------------------------------------------------------------- #
# exact n-gram Jaccard verification of LSH candidates
# --------------------------------------------------------------------- #
_SH_LIST = pa.list_(pa.int64())


def _shingle_list_batch(t: pa.Table, shingle: int) -> pa.Table:
    """(doc_id, sh) rows: per-doc UNIQUE SORTED shingle hashes as a list
    column — the distributed shingle table both join passes read."""
    sh, sdoc = _shingle_hashes(t, "text", shingle)
    order = np.lexsort((sh, sdoc))
    sh, sdoc = sh[order], sdoc[order]
    first = np.ones(len(sh), bool)
    first[1:] = (sdoc[1:] != sdoc[:-1]) | (sh[1:] != sh[:-1])
    sh, sdoc = sh[first], sdoc[first]
    counts = np.bincount(sdoc, minlength=t.num_rows)
    offsets = np.zeros(t.num_rows + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    lists = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(sh.view(np.int64)))
    return pa.table({"doc_id": t.column("doc_id"), "sh": lists})


def _exact_jaccard_pct(sh_a, sh_b) -> np.ndarray:
    """Vectorized |A∩B|/|A∪B| in integer percent over PAIRS of unique-
    sorted shingle lists: flatten both sides tagged by pair index, sort,
    count adjacent duplicates — one sort, no per-pair Python."""
    a = sh_a.combine_chunks() if isinstance(sh_a, pa.ChunkedArray) else sh_a
    b = sh_b.combine_chunks() if isinstance(sh_b, pa.ChunkedArray) else sh_b
    la = pc.list_value_length(a).to_numpy(zero_copy_only=False).astype(np.int64)
    lb = pc.list_value_length(b).to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(la)
    flat = np.concatenate([a.flatten().to_numpy(zero_copy_only=False),
                           b.flatten().to_numpy(zero_copy_only=False)])
    pidx = np.concatenate([np.repeat(np.arange(n), la),
                           np.repeat(np.arange(n), lb)])
    order = np.lexsort((flat, pidx))
    f, p = flat[order], pidx[order]
    dup = (p[1:] == p[:-1]) & (f[1:] == f[:-1])
    inter = np.bincount(p[1:][dup], minlength=n)
    union = la + lb - inter
    return (100 * inter) // np.maximum(union, 1)


def _attach_shingles(pairs: "list[ray.ObjectRef]",
                     shingles: "list[ray.ObjectRef]", key_col: str,
                     carry: "list[str]", out_col: str
                     ) -> exchange.Exchanged:
    """One co-partitioned hash-join pass: the ``carry`` columns of every
    pair row plus, as ``out_col``, the shingle list of ``key_col``'s doc.

    Pairs (keyed on ``key_col``) and the (doc_id, sh) shingle blocks
    (keyed on doc_id) are a co-group; each bounded part then resolves
    pair→doc with a vectorized searchsorted over the group's (unique)
    doc keys. The shuffle moves candidate pairs + one shingle list per
    doc — never the corpus, never anything to the driver."""

    def join(prs: pa.Table, docs: pa.Table) -> pa.Table:
        out_cols = {c: prs.column(c) for c in carry}
        if prs.num_rows == 0:
            out_cols[out_col] = pa.nulls(0, _SH_LIST)
            return pa.table(out_cols)
        if docs.num_rows == 0:
            raise ValueError("candidate pairs hashed to a partition with "
                             "no shingle rows — mismatched inputs")
        dk = docs.column("doc_id").to_numpy(zero_copy_only=False)
        dorder = np.argsort(dk, kind="stable")
        dk = dk[dorder]
        dsh = docs.column("sh").take(pa.array(dorder)).combine_chunks()
        pk = prs.column(key_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(dk, pk)
        pos = np.clip(pos, 0, len(dk) - 1)
        if not (dk[pos] == pk).all():
            # loud failure beats silently attaching a neighbor's
            # shingles: candidates are generated FROM this corpus, so a
            # missing key means mismatched inputs
            raise ValueError("candidate pair references a doc_id absent "
                             "from the shingle table")
        out_cols[out_col] = dsh.take(pa.array(pos))
        return pa.table(out_cols)

    return exchange.file_exchange_map_groups(
        (pairs, shingles), join, keys=([key_col], ["doc_id"]))


def _verified_pairs(sf_dir: str, shingle: int, min_jaccard_pct: int,
                    k: int, bands: int, finish=None
                    ) -> "list[ray.ObjectRef]":
    """``ngram_jaccard_dedup``'s (doc_id_a, doc_id_b, jaccard_pct) rows
    as block refs, each block passed through ``finish`` in the verify
    task when given."""
    cand = _lsh_pairs(sf_dir, k, bands, shingle, 40, None)
    # block refs: BOTH join passes consume this table, read and
    # shingled once by raw tasks (object store holds hash lists,
    # ~8 B/word, and spills if needed)
    shingles = exchange.map_blocks(
        _docs(sf_dir, ["doc_id", "text"]),
        functools.partial(_shingle_list_batch, shingle=shingle))
    pair = ["doc_id_a", "doc_id_b"]
    with_a = _attach_shingles(cand.refs, shingles, "doc_id_a", pair, "sh_a")
    with_b = _attach_shingles(with_a.refs, shingles, "doc_id_b",
                              pair + ["sh_a"], "sh_b")

    def verify(t: pa.Table) -> pa.Table:
        pct = _exact_jaccard_pct(t.column("sh_a"), t.column("sh_b"))
        out = pa.table({"doc_id_a": t.column("doc_id_a"),
                        "doc_id_b": t.column("doc_id_b"),
                        "jaccard_pct": pa.array(pct.astype(np.int64))})
        out = out.filter(pc.greater_equal(out.column("jaccard_pct"),
                                          min_jaccard_pct))
        return out if finish is None else finish(out)

    return exchange.map_blocks(with_b.refs, verify)


def ngram_jaccard_dedup(sf_dir: str, shingle: int = 3,
                        min_jaccard_pct: int = 80, k: int = 64,
                        bands: int = 16) -> ray.data.Dataset:
    """LSH candidates re-verified with EXACT word-``shingle``-gram Jaccard.

    Scale shape (replaces round 1's driver-side whole-corpus shingle-set
    broadcast): the per-doc shingle table is block refs written once by
    raw tasks; two co-partitioned hash-join passes attach side A's then
    side B's shingle list to each candidate pair; the exact Jaccard is
    one vectorized sort-and-count over the pair-tagged shingles. Driver
    traffic: zero rows."""
    return ray.data.from_arrow_refs(_verified_pairs(
        sf_dir, shingle, min_jaccard_pct, k, bands))


# --------------------------------------------------------------------- #
# SimHash
# --------------------------------------------------------------------- #
def simhash_batch(t: pa.Table, text_col: str = "text") -> np.ndarray:
    """64-bit SimHash per row: sign of per-bit ±1 sums over word hashes
    (vectorized bit expansion + ``add.reduceat``)."""
    toks = words(t.column(text_col))
    h = hash_str_array(toks.flatten())
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    starts = np.zeros(t.num_rows, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            ).astype(np.int32) * 2 - 1                      # (m, 64) ±1
    if len(h) == 0:
        return np.zeros(t.num_rows, dtype=np.uint64)
    # reduceat only over non-empty rows (an index-clamp would corrupt the
    # row before a trailing zero-word row), scatter back into place
    nonempty = counts > 0
    sums = np.zeros((t.num_rows, 64), dtype=bits.dtype)
    sums[nonempty] = np.add.reduceat(bits, starts[nonempty], axis=0)
    return ((sums > 0).astype(np.uint64)
            << np.arange(64, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


def simhash_dedup(sf_dir: str, max_hamming: int = 3) -> ray.data.Dataset:
    """Near-dup pairs with SimHash Hamming distance <= ``max_hamming``,
    candidate generation by 16-bit band pigeonhole (4 bands: any pair
    within distance 3 shares at least one exact band). Pairing runs per
    part of an exchange keyed on the bucket, with one segmented
    vectorized pass over all buckets (``_bucket_pairs``, as
    minhash_lsh_dedup)."""

    def to_bands(t: pa.Table) -> pa.Table:
        sh = simhash_batch(t)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(ids)
        buckets = np.empty(4 * n, dtype=np.int64)
        for b in range(4):
            band = (sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            buckets[b * n:(b + 1) * n] = (band.astype(np.int64)
                                          | (np.int64(b) << 32))
        return pa.table({"bucket": pa.array(buckets),
                         "doc_id": pa.array(np.tile(ids, 4)),
                         "simhash": pa.array(np.tile(sh, 4).view(np.int64))})

    def score(t: pa.Table, rows, ii, jj):
        sh = t.column("simhash").to_numpy(zero_copy_only=False).astype(
            np.int64).view(np.uint64)[rows]
        ham = _popcount64(sh[ii] ^ sh[jj]).astype(np.int64)
        return ham, ham <= max_hamming

    return ray.data.from_arrow_refs(
        _bucket_pairs(sf_dir, to_bands, "hamming", score).refs)


# --------------------------------------------------------------------- #
# embedding-cosine near-dup
# --------------------------------------------------------------------- #
def embedding_cosine_dedup(sf_dir: str, threshold_pct: int = 35
                           ) -> ray.data.Dataset:
    """Pairs (a < b) with cosine similarity >= threshold_pct/100 over the
    ``embeddings`` table. Comparison matrix broadcast once via ray.put;
    per-batch double-precision matmul. Brute force O(N·M) — the IVF path
    (functions/ann.py) is the scale variant."""
    import pyarrow.parquet as pq

    full = pq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    ids = full.column("vec_id").to_numpy(zero_copy_only=False)
    E = np.vstack(full.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    ref = ray.put((ids, En))
    thr = threshold_pct / 100.0

    def nearpairs(t: pa.Table) -> pa.Table:
        rids, rEn = ray.get(ref)
        bids = t.column("vec_id").to_numpy(zero_copy_only=False)
        B = np.vstack(t.column("embedding").to_numpy(
            zero_copy_only=False)).astype(np.float64)
        Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
        S = Bn @ rEn.T
        ii, jj = np.nonzero((S >= thr) & (bids[:, None] < rids[None, :]))
        return pa.table({"vec_id_a": pa.array(bids[ii]),
                         "vec_id_b": pa.array(rids[jj])})

    return ray.data.from_arrow_refs(
        exchange.map_blocks(_embeddings(sf_dir), nearpairs))


def embedding_ann_dedup(sf_dir: str, threshold_pct: int = 35,
                        n_cells: int = 16, probes: int = 2,
                        index_root: str | None = None
                        ) -> ray.data.Dataset:
    """The SCALE default for embedding near-dup (the all-pairs broadcast
    above is the exact small-M tool): candidate generation by IVF cell —
    each vector is bucketed to its ``probes`` nearest centroids
    (multi-probe catches boundary pairs), pairwise cosine runs only
    WITHIN a bucket (bounded by cell size, capped like LSH buckets), and
    duplicate pairs from shared cells collapse through the native pair
    aggregate. O(Σ cell²) instead of O(N·M); no full-matrix broadcast."""
    from .ann import _normalized, build_ivf_index

    idx = build_ivf_index(sf_dir, n_cells, index_root=index_root)
    C = np.load(f"{idx}/centroids.npy")
    ref = ray.put(C)
    thr = threshold_pct / 100.0

    def to_cells(t: pa.Table) -> pa.Table:
        Cm = ray.get(ref)
        ids, Bn = _normalized(t)
        order = np.argsort(-(Bn @ Cm.T), axis=1)[:, :probes]  # (n, probes)
        n = len(ids)
        return pa.table({
            "part": pa.array(order.T.reshape(-1).astype(np.int32)),
            "vec_id": pa.array(np.tile(ids, probes)),
            "embedding": pa.concat_arrays(
                [t.column("embedding").combine_chunks()] * probes),
        })

    def cell_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({"vec_id_a": pa.array([], pa.int64()),
                          "vec_id_b": pa.array([], pa.int64()),
                          "sim_pct": pa.array([], pa.int64())})
        if g.num_rows < 2:
            return empty
        ids = g.column("vec_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        keep = _cap_bucket(ids[order])
        sub = g.take(pa.array(order)).take(pa.array(keep))
        ids, Bn = _normalized(sub)
        S = Bn @ Bn.T
        ii, jj = np.nonzero((S >= thr) & (ids[:, None] < ids[None, :]))
        if len(ii) == 0:
            return empty
        return pa.table({
            "vec_id_a": pa.array(ids[ii]),
            "vec_id_b": pa.array(ids[jj]),
            "sim_pct": pa.array(
                np.floor(S[ii, jj] * 100).astype(np.int64)),
        })

    # the IVF cell is the explicit route
    cand = exchange.file_exchange_map_groups(
        _embeddings(sf_dir), cell_pairs, pre=to_cells)
    return ray.data.from_arrow_refs(exchange.fx_agg_by(
        cand.refs, ["vec_id_a", "vec_id_b"], [("sim_pct", "min")]).refs)


# --------------------------------------------------------------------- #
# benchmark decontamination
# --------------------------------------------------------------------- #
def build_ngram_blocklist(sf_dir: str,
                          benchmark: "list[str] | None" = None,
                          shingle: int = 8) -> np.ndarray:
    """Sorted unique word-n-gram hashes of the benchmark texts — the
    broadcastable blocklist shared by ``decontaminate`` and the curation
    pipeline. ``benchmark=None`` uses the corpus's doc 0 text (the
    deterministic self-contamination demo)."""
    if benchmark is None:
        import pyarrow.parquet as _pq
        t0 = _pq.read_table(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"],
                            filters=[("doc_id", "=", 0)])
        benchmark = t0.column("text").to_pylist()
    bt = pa.table({"text": pa.array(list(benchmark))})
    return np.unique(_shingle_hashes(bt, "text", shingle)[0])


def count_blocklist_hits(t: pa.Table, bl: np.ndarray,
                         shingle: int = 8) -> np.ndarray:
    """Per-row count of the batch's n-grams present in the sorted
    blocklist (one vectorized searchsorted — no shuffle, no state)."""
    sh, sdoc = _shingle_hashes(t, "text", shingle)
    if len(sh) and len(bl):
        pos = np.clip(np.searchsorted(bl, sh), 0, len(bl) - 1)
        return np.bincount(sdoc[bl[pos] == sh], minlength=t.num_rows)
    return np.zeros(t.num_rows, np.int64)


def decontaminate(sf_dir: str, benchmark: "list[str] | None" = None,
                  shingle: int = 8, min_hits: int = 1) -> ray.data.Dataset:
    """Benchmark/eval-set decontamination — a core training-corpus step:
    flag documents sharing >= ``min_hits`` word-``shingle``-grams with
    the benchmark texts, so eval contamination can be dropped before
    training. Returns (doc_id, n_hits, contaminated).

    Scale shape: eval sets are small by nature, so the blocklist (unique
    benchmark shingle hashes) is built driver-side and broadcast ONCE via
    ``ray.put``; every batch counts membership with one vectorized
    searchsorted against the sorted blocklist — no shuffle, no joins,
    the corpus streams through untouched. When ``benchmark`` is None the
    corpus's doc 0 text is used (a deterministic self-contamination
    demo: doc 0 and its exact/near duplicates get flagged)."""
    ref = ray.put(build_ngram_blocklist(sf_dir, benchmark, shingle))

    def scan(t: pa.Table) -> pa.Table:
        n_hits = count_blocklist_hits(t, ray.get(ref), shingle)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_hits": pa.array(n_hits.astype(np.int64)),
            "contaminated": pa.array(
                (n_hits >= min_hits).astype(np.int8)),
        })

    return _per_doc(sf_dir, ["doc_id", "text"], scan)


# --------------------------------------------------------------------- #
# corpus-wide repeated-line (boilerplate) removal
# --------------------------------------------------------------------- #
def _split_lines(t: pa.Table, text_col: str, sep: str
                 ) -> tuple[pa.ListArray, np.ndarray, np.ndarray]:
    """(line lists, flat line hashes, per-row line counts) for a batch."""
    lines = pc.split_pattern(t.column(text_col), sep).combine_chunks()
    h = hash_str_array(lines.flatten())
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    return lines, h, counts


def remove_boilerplate_lines(sf_dir: str, min_docs: int = 2,
                             sep: str = "\n") -> ray.data.Dataset:
    """CCNet / RefinedWeb-style line-wise dedup: drop every line that
    occurs in >= ``min_docs`` DISTINCT documents (navigation chrome,
    cookie banners, footers), preserving the order of surviving lines.
    Returns (doc_id, text, n_kept, n_removed); a fully-boilerplate doc
    keeps its row with empty text.

    Scale shape: pass 1 pre-aggregates per block (the exchange's
    ``pre``) — per-doc DISTINCT line hashes, then a block-local doc
    count per hash — so the only shuffle is ``fx_sum_by`` on line_h
    over already-combined partials (the 64-bit hash travels, never the
    line text). The common-line set is bounded by the frequency
    threshold (boilerplate is heavy-hitter by definition), so it is
    filtered in raw tasks, collected once and broadcast via
    ``ray.put``; pass 2 streams the corpus through one vectorized
    searchsorted + Arrow list rebuild per block. At 100 TB the collected
    set is the only driver traffic; if a corpus ever produced an
    unbounded common set, raise ``min_docs`` or shard the blocklist by
    hash range.
    """

    def line_freq(t: pa.Table) -> pa.Table:
        _, h, counts = _split_lines(t, "text", sep)
        docidx = np.repeat(np.arange(len(counts)), counts)
        order = np.lexsort((h, docidx))
        h, docidx = h[order], docidx[order]
        first = np.ones(len(h), bool)
        first[1:] = (docidx[1:] != docidx[:-1]) | (h[1:] != h[:-1])
        uh, nd = np.unique(h[first], return_counts=True)
        return pa.table({"line_h": pa.array(uh.view(np.int64)),
                         "nd": pa.array(nd.astype(np.int64))})

    freq = exchange.fx_sum_by(_docs(sf_dir, ["doc_id", "text"]),
                              ["line_h"], ["nd"], pre=line_freq)

    def common_only(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t.column("nd"), min_docs)
        return pa.table({"line_h": t.filter(keep).column("line_h")})

    common = np.sort(np.concatenate([
        t.column("line_h").to_numpy(zero_copy_only=False)
        for t in ray.get(exchange.map_blocks(freq.refs, common_only))
    ]).view(np.uint64))
    ref = ray.put(common)

    def strip(t: pa.Table) -> pa.Table:
        lines, h, counts = _split_lines(t, "text", sep)
        blocked = ray.get(ref)
        if len(blocked):
            idx = np.minimum(np.searchsorted(blocked, h),
                             len(blocked) - 1)
            keep = blocked[idx] != h
        else:
            keep = np.ones(len(h), bool)
        docidx = np.repeat(np.arange(len(counts)), counts)
        kept_counts = np.bincount(docidx[keep], minlength=t.num_rows)
        offsets = np.zeros(t.num_rows + 1, np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        kept = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            lines.flatten().filter(pa.array(keep)))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "text": pc.binary_join(kept, sep),
            "n_kept": pa.array(kept_counts.astype(np.int64)),
            "n_removed": pa.array((counts - kept_counts).astype(np.int64)),
        })

    return _per_doc(sf_dir, ["doc_id", "text"], strip)


# --------------------------------------------------------------------- #
# duplicate clusters: distributed connected components over the
# verified near-dup pair graph
# --------------------------------------------------------------------- #
def _init_labels(t: pa.Table) -> pa.Table:
    """A node's first label: the smaller end of each of its edges."""
    src = t.column("src").to_numpy(zero_copy_only=False)
    dst = t.column("dst").to_numpy(zero_copy_only=False)
    return pa.table({"node": pa.array(src),
                     "lab": pa.array(np.minimum(src, dst))})


def _jump_edges(t: pa.Table) -> pa.Table:
    """Label pointers as extra edges lab -> node (skip self-labels: they
    would only echo the node's own label back)."""
    lab = t.column("lab").to_numpy(zero_copy_only=False)
    return t.filter(pa.array(lab != t.column("node").to_numpy(
        zero_copy_only=False)))


def _send(e: pa.Table, j: pa.Table, lb: pa.Table) -> pa.Table:
    """Per part: msg (node=dst, lab=label(src)) for every edge src -> dst
    and every jump edge lab -> node whose source lives here."""
    def col(t: pa.Table, c: str) -> np.ndarray:
        return t.column(c).to_numpy(zero_copy_only=False)

    ek = np.concatenate([col(e, "src"), col(j, "lab")])
    ev = np.concatenate([col(e, "dst"), col(j, "node")])
    lk, lv = col(lb, "node"), col(lb, "lab")
    order = np.argsort(lk, kind="stable")
    lk, lv = lk[order], lv[order]
    if len(ek) == 0 or len(lk) == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "lab": pa.array([], pa.int64())})
    pos = np.clip(np.searchsorted(lk, ek), 0, len(lk) - 1)
    if not (lk[pos] == ek).all():
        raise ValueError("edge src absent from label table — "
                         "labels must cover every edge endpoint")
    return pa.table({"node": pa.array(ev), "lab": pa.array(lv[pos])})


def _lab_sum(t: pa.Table) -> pa.Table:
    return pa.table({"s": pa.array([int(t.column("lab").to_numpy(
        zero_copy_only=False).sum())], pa.int64())})


def _cc_min_label(edges: "list[ray.ObjectRef]", max_iters: int = 16
                  ) -> "list[ray.ObjectRef]":
    """Connected components by min-label propagation WITH pointer
    jumping: block refs of ``(node, lab)`` where ``lab`` is the minimum
    node id in the component.

    ``edges`` are block refs of symmetric ``(src, dst)`` rows. Each
    round augments the edge set with the current label pointers
    ``(lab -> node)`` so a node reads its label's label too (pointer
    doubling, Rastogi et al., "Finding Connected Components in
    MapReduce", ICDE 2013) — rounds are O(log diameter), not
    O(diameter). Per round: one co-partitioned join (edges keyed by src
    meet labels keyed by node) plus one per-node min (``fx_agg_by``),
    each one keyed exchange. Convergence is detected by the label sum —
    labels are non-negative and only ever decrease, so an unchanged sum
    IS the fixpoint; the driver sees one scalar per block per round,
    never a row."""
    labels = exchange.fx_agg_by(edges, ["node"], [("lab", "min")],
                                pre=_init_labels).refs
    prev_sum = None
    for _ in range(max_iters):
        # a co-group: edges routed by src, jump edges by lab, labels by
        # node — each member on its own key column
        msgs = exchange.file_exchange_map_groups(  # emits (node, lab)
            (edges, labels, labels), _send,
            keys=(["src"], ["lab"], ["node"]), pre=(None, _jump_edges, None))
        labels = exchange.fx_agg_by(msgs.refs + labels, ["node"],
                                    [("lab", "min")]).refs
        s = sum(t.column("s")[0].as_py()
                for t in ray.get(exchange.map_blocks(labels, _lab_sum)))
        if s == prev_sum:
            return labels
        prev_sum = s
    raise RuntimeError(f"connected components did not converge in "
                       f"{max_iters} pointer-jumping rounds")


def _both_dirs(t: pa.Table) -> pa.Table:
    a = t.column("doc_id_a").to_numpy(zero_copy_only=False)
    b = t.column("doc_id_b").to_numpy(zero_copy_only=False)
    return pa.table({"src": pa.array(np.concatenate([a, b])),
                     "dst": pa.array(np.concatenate([b, a]))})


def _cluster_labels(sf_dir: str, shingle: int, min_jaccard_pct: int
                    ) -> "list[ray.ObjectRef]":
    """(node, lab) block refs of every doc in a verified near-dup pair:
    the verify tasks emit both edge directions, and connected components
    run on them."""
    return _cc_min_label(_verified_pairs(sf_dir, shingle, min_jaccard_pct,
                                         64, 16, finish=_both_dirs))


def _doc_cluster(t: pa.Table) -> pa.Table:
    return pa.table({"doc_id": t.column("node"),
                     "cluster_id": t.column("lab")})


def duplicate_clusters(sf_dir: str, shingle: int = 3,
                       min_jaccard_pct: int = 80) -> ray.data.Dataset:
    """``(doc_id, cluster_id)`` for every document that belongs to a
    near-duplicate cluster — the transitive closure of the VERIFIED
    exact-Jaccard pair graph from :func:`ngram_jaccard_dedup`, labeled
    with the minimum member doc_id. Singletons (docs in no pair) are
    excluded: at corpus scale they are the overwhelming majority and
    carrying a trivial self-cluster row per doc would dwarf the result.

    Pair detection is LSH-candidate + exact verify (no all-pairs stage);
    the component computation touches only the pair graph, which is a
    small fraction of the corpus by construction."""
    return ray.data.from_arrow_refs(exchange.map_blocks(
        _cluster_labels(sf_dir, shingle, min_jaccard_pct), _doc_cluster))


def _drops_only(t: pa.Table) -> pa.Table:
    """The cluster members other than the representative, as doc_id."""
    node = t.column("node").to_numpy(zero_copy_only=False)
    lab = t.column("lab").to_numpy(zero_copy_only=False)
    return pa.table({"doc_id": pa.array(node[node != lab])})


def near_dedup_keep(sf_dir: str, shingle: int = 3,
                    min_jaccard_pct: int = 80) -> ray.data.Dataset:
    """Surviving ``doc_id`` set after near-dedup: drop every cluster
    member except the representative (minimum doc_id); docs in no
    cluster survive untouched.

    The removal set (non-representative members) is cluster-graph-sized
    but unbounded in theory, so it is anti-joined against the corpus via
    an ``fx_join`` anti-join, as pipelines/curate.py semi-joins its
    survivors — never broadcast (a refs right side always routes),
    never on the driver."""
    return ray.data.from_arrow_refs(exchange.fx_join(
        _docs(sf_dir, ["doc_id"]),
        _cluster_labels(sf_dir, shingle, min_jaccard_pct), on="doc_id",
        how="anti", pre=(None, _drops_only)).refs)


# --------------------------------------------------------------------- #
# exact duplicated-substring coverage (suffix-array dedup flavor)
# --------------------------------------------------------------------- #
def _gram_rows(t: pa.Table, gram: int, stride: int) -> pa.Table:
    """(doc_id, pos, g) for every sampled ``gram``-char gram of a block,
    at every ``stride``-th char offset: one Arrow
    ``utf8_slice_codeunits`` kernel per offset, vectorized across the
    block (offsets bound by its LONGEST doc / stride, not by rows)."""
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "pos": pa.array([], pa.int64()),
                      "g": pa.array([], pa.string())})
    if t.num_rows == 0:
        return empty
    txt = t.column("text")
    nch = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    parts = []
    for k in range(0, max(int(nch.max()) - gram + 1, 0), stride):
        sel = nch >= k + gram
        if not sel.any():
            break
        parts.append(pa.table({
            "doc_id": pa.array(ids[sel]),
            "pos": pa.array(np.full(int(sel.sum()), k, np.int64)),
            "g": pc.utf8_slice_codeunits(
                txt.filter(pa.array(sel)), k, k + gram)}))
    return pa.concat_tables(parts) if parts else empty


def dup_gram_coverage(sf_dir: str, gram: int = 32, stride: int = 16
                      ) -> ray.data.Dataset:
    """Exact duplicated-substring coverage, the distributed stand-in
    for suffix-array substring dedup (Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better"): sample every
    document's character ``gram``-grams at ``stride`` offsets, mark
    grams occurring in >= 2 DISTINCT documents, and report per doc how
    many of its distinct sampled grams are duplicated (a stride <=
    gram/2 guarantees any copied run of >= gram + stride chars is
    detected). Returns (doc_id, dup_grams, total_grams); docs shorter
    than ``gram`` chars contribute no row. No reference counterpart —
    training-data curation surface (same family as exact_dedup above).

    Scale shape: gram extraction (``_gram_rows``) is one Arrow
    ``utf8_slice_codeunits`` kernel per offset, deduped per doc by one
    Arrow group_by in the writers before anything moves. ONE
    exchange keyed on the gram counts distinct docs per
    gram and collapses to per-(partition, doc) partial counts — a doc's
    distinct grams land in exactly one partition each, so the partial
    totals sum exactly; the finishing per-doc sum is a second bounded
    exchange (fx_sum_by). The gram TEXT travels the first exchange so
    duplicated-ness is exact string equality (what the SQL oracle
    computes), never hash-collision-dependent; swap the payload for its
    128-bit hash when byte volume, not exactness, is the binding
    constraint at 100 TB."""
    def grams(t: pa.Table) -> pa.Table:
        """Distinct (doc_id, gram) pairs of a block."""
        return _gram_rows(t, gram, stride).group_by(
            ["doc_id", "g"]).aggregate([])

    def mark(gp: pa.Table) -> pa.Table:
        """One gram partition: distinct-doc counts per gram ->
        per-doc (dup, total) partials. Input rows are already distinct
        (doc, gram) pairs, so a gram's row count IS its doc count."""
        enc = gp.column("g").combine_chunks().dictionary_encode()
        code = enc.indices.to_numpy(zero_copy_only=False)
        ndocs = np.bincount(code)
        dup = ndocs[code] >= 2
        uids, inv = np.unique(
            gp.column("doc_id").to_numpy(zero_copy_only=False),
            return_inverse=True)
        return pa.table({
            "doc_id": pa.array(uids.astype(np.int64)),
            "dup_grams": pa.array(np.bincount(
                inv[dup], minlength=len(uids)).astype(np.int64)),
            "total_grams": pa.array(np.bincount(
                inv, minlength=len(uids)).astype(np.int64)),
        })

    partials = exchange.file_exchange_map_groups(
        _docs(sf_dir, ["doc_id", "text"]), mark, keys=["g"], pre=grams)
    return ray.data.from_arrow_refs(exchange.fx_sum_by(
        partials.refs, ["doc_id"], ["dup_grams", "total_grams"]).refs)


# --------------------------------------------------------------------- #
# semantic dedup: k-means clustering + per-cluster cosine pruning
# --------------------------------------------------------------------- #
def _semdedup_part(g: pa.Table, tau: float, chunk: int = 2048
                   ) -> pa.Table:
    """One cluster-hash partition: within each cluster (vectors in
    ascending vec_id order), drop a vector when ANY earlier vector of
    the cluster has cosine similarity >= ``tau`` to it; ``dup_of`` is
    the earliest such vec_id. Column-chunked so the similarity buffer
    is O(cluster x chunk), never O(cluster^2)."""
    from .ann import _micro_vectors

    empty = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "cluster": pa.array([], pa.int64()),
        "keep": pa.array([], pa.int8()),
        "dup_of": pa.array([], pa.int64()),
    })
    if g.num_rows == 0:
        return empty
    cl = g.column("cluster").to_numpy(zero_copy_only=False)
    vid = g.column("vec_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((vid, cl))
    g = g.take(pa.array(order))
    cl, vid = cl[order], vid[order]
    ids, M = _micro_vectors(g.select(["vec_id", "embedding"]))
    Mf = M.astype(np.float64)
    nrm = np.linalg.norm(Mf, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0                    # zero vector: cos := 0
    Mn = Mf / nrm

    keep = np.ones(len(vid), bool)
    dup_of = np.zeros(len(vid), np.int64)
    starts = np.flatnonzero(np.concatenate([[True],
                                            cl[1:] != cl[:-1]]))
    bounds = np.append(starts, len(cl))
    for s, e in zip(bounds[:-1], bounds[1:]):
        n_c = e - s
        if n_c < 2:
            continue
        Mc = Mn[s:e]
        ri = np.arange(n_c)
        for a in range(1, n_c, chunk):
            b = min(a + chunk, n_c)
            S = Mc @ Mc[a:b].T             # n_c x (b-a)
            mask = (S >= tau) & (ri[:, None] < np.arange(a, b)[None, :])
            hit = mask.any(axis=0)
            first = np.argmax(mask, axis=0)
            keep[s + a:s + b][hit] = False
            dup_of[s + a:s + b][hit] = vid[s + first[hit]]
    return pa.table({
        "vec_id": pa.array(vid.astype(np.int64)),
        "cluster": pa.array(cl.astype(np.int64)),
        "keep": pa.array(keep.astype(np.int8)),
        "dup_of": pa.array(dup_of, pa.int64(), mask=keep),
    })


def _semdedup_tag(t: pa.Table, C: np.ndarray) -> pa.Table:
    """(cluster, vec_id, embedding): each vector's nearest centroid."""
    from .ann import _kmeans_dist2, _micro_vectors
    ids, M = _micro_vectors(t)
    assign = (np.argmin(_kmeans_dist2(M, C), axis=1) if len(ids)
              else np.empty(0))
    return pa.table({
        "cluster": pa.array(assign.astype(np.int64)),
        "vec_id": pa.array(ids.astype(np.int64)),
        "embedding": t.column("embedding"),
    })


def semdedup(sf_dir: str, k: int = 8, iters: int = 12,
             threshold_pm: int = 350) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster the
    embedding table with the module's exact-integer k-means, then
    within each cluster drop every vector whose cosine similarity to
    ANY earlier (smaller vec_id) cluster member reaches ``threshold_pm``
    permille; the survivor set is the semantically-deduplicated corpus.
    Returns (vec_id, cluster, keep, dup_of) distributed — ``dup_of``
    is the earliest too-similar vec_id, null for kept rows. No
    reference counterpart — training-data curation surface.

    Scale shape: the embeddings leaf is read once into block refs by raw
    tasks; centroids come from the shared ``ann._kmeans_fit`` (one
    raw-task fan per Lloyd's iteration over those refs, no shuffle);
    assignment is the ``pre`` of the only shuffle, ONE exchange keyed
    on the cluster over the SAME refs — a vector moves exactly once, to
    the partition that owns its cluster. The per-cluster prune is
    column-chunked (O(cluster x 2048) similarity buffer) and the
    pairwise cost is bounded by the largest CLUSTER, not the corpus:
    pick k ~ N/1000 as the paper does so clusters stay ~1e3 and the
    prune is ~1e6 flops per cluster. Result is partitioning-invariant:
    assignment is integer-exact and each cluster is pruned whole in
    ascending vec_id order (pinned by tests)."""
    from .ann import _kmeans_fit

    blocks = exchange.map_blocks(_embeddings(sf_dir), lambda t: t)
    C = _kmeans_fit(blocks, k, iters)
    if C is None:
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "keep": pa.array([], pa.int8()),
            "dup_of": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        blocks, functools.partial(_semdedup_part,
                                  tau=threshold_pm / 1000.0),
        keys=["cluster"], pre=functools.partial(_semdedup_tag, C=C)).refs)


def _cut_spans_flat(txt: pa.Array, span_doc: np.ndarray,
                    span_start: np.ndarray, span_end: np.ndarray
                    ) -> tuple[pa.Array, np.ndarray]:
    """Remove character spans from a string array in ONE flat-buffer
    pass, unicode-correct and loop-free.

    ``span_doc`` indexes rows of ``txt``; spans are [span_start,
    span_end) in CHARACTERS, non-overlapping within a doc. Returns the
    rebuilt string array and per-doc removed-char counts.

    Mechanics: UTF-8 char starts are the bytes with (b & 0xC0) != 0x80
    — one vectorized mask over the column's flat values buffer gives
    every char's byte offset; a difference-array over removed char
    ranges marks removed chars; bytes inherit their char's mark; the
    kept bytes re-slice into a new StringArray via reduceat offsets."""
    txt = txt.combine_chunks() if isinstance(txt, pa.ChunkedArray) else txt
    n = len(txt)
    bufs = txt.buffers()                      # [validity, offsets, data]
    offs_all = np.frombuffer(bufs[1], np.int32,
                             count=txt.offset + n + 1)
    offs = offs_all[txt.offset:].astype(np.int64)
    lo, hi = offs[0], offs[n]
    buf = (np.frombuffer(bufs[2], np.uint8, count=int(hi))[lo:hi]
           if bufs[2] is not None else np.zeros(0, np.uint8))
    offs = offs - lo                          # per-doc byte ranges
    is_start = (buf & 0xC0) != 0x80           # char-start bytes
    char_byte = np.flatnonzero(is_start)      # byte offset per char
    # chars before each doc = rank of its first byte among char starts
    doc_char0 = np.searchsorted(char_byte, offs[:-1])
    total_chars = len(char_byte)
    # difference array over global char indices
    diff = np.zeros(total_chars + 1, np.int64)
    gs = doc_char0[span_doc] + span_start
    ge = doc_char0[span_doc] + span_end
    np.add.at(diff, gs, 1)
    np.add.at(diff, ge, -1)
    removed_char = np.cumsum(diff[:-1]) > 0
    # bytes inherit their char's removed flag
    char_of_byte = np.cumsum(is_start) - 1
    keep_byte = ~removed_char[char_of_byte] if len(buf) else \
        np.zeros(0, bool)
    new_vals = buf[keep_byte]
    kept_per_doc = (np.add.reduceat(keep_byte, offs[:-1])
                    if len(buf) else np.zeros(n, np.int64))
    kept_per_doc[offs[:-1] == offs[1:]] = 0   # reduceat quirk: empty doc
    new_offs = np.zeros(n + 1, np.int64)
    np.cumsum(kept_per_doc, out=new_offs[1:])
    out = pa.StringArray.from_buffers(
        n, pa.py_buffer(new_offs.astype(np.int32).tobytes()),
        pa.py_buffer(new_vals.tobytes()))
    removed_c = np.zeros(n, np.int64)
    np.add.at(removed_c, span_doc, span_end - span_start)
    return out, removed_c


def remove_dup_spans(sf_dir: str, gram: int = 32, stride: int = 16
                     ) -> ray.data.Dataset:
    """The transform half of ``dup_gram_coverage`` (Lee et al. 2021
    ExactSubstr-style): every sampled ``gram``-char span whose text
    occurs at >= 2 sampled positions corpus-wide in >= 2 distinct
    documents is REMOVED except the globally-first occurrence (smallest
    (doc_id, pos)); overlapping removal spans merge before cutting.
    Returns (doc_id, text, n_chars_removed, n_spans_removed) for EVERY
    doc (uncut docs pass through unchanged). Deterministic under any
    partitioning: keeper election happens inside the gram's own
    partition, which sees all occurrences.

    Scale shape: same ONE exchange keyed on the gram as the coverage
    op, but occurrence rows carry (doc_id, pos) so the partition can
    elect the keeper; removals meet the corpus in a SECOND exchange
    keyed on doc_id — text
    moves once, spans are tiny. The cut itself is one flat-buffer pass
    (``_cut_spans_flat``): char-start mask, difference-array span
    marks, reduceat re-offsets — no per-row loop anywhere."""

    def elect(gp: pa.Table) -> pa.Table:
        """Per gram: if >= 2 distinct docs hold it, every occurrence
        except the (doc_id, pos)-minimum becomes a removal row."""
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64())})
        if gp.num_rows == 0:
            return empty
        enc = gp.column("g").combine_chunks().dictionary_encode()
        code = enc.indices.to_numpy(zero_copy_only=False)
        ids = gp.column("doc_id").to_numpy(zero_copy_only=False)
        pos = gp.column("pos").to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, ids, code))
        code, ids, pos = code[order], ids[order], pos[order]
        first = np.concatenate([[True], code[1:] != code[:-1]])
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(code)))
        newdoc = first | np.concatenate([[True], ids[1:] != ids[:-1]])
        ndocs = np.add.reduceat(newdoc.astype(np.int64), starts)
        out = np.repeat(ndocs >= 2, sizes) & ~first
        return pa.table({"doc_id": pa.array(ids[out]),
                         "pos": pa.array(pos[out])})

    def cut(docs: pa.Table, rem: pa.Table) -> pa.Table:
        n = docs.num_rows
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "n_chars_removed": pa.array([], pa.int64()),
                "n_spans_removed": pa.array([], pa.int64())})
        did = docs.column("doc_id").to_numpy(zero_copy_only=False)
        doc_order = np.argsort(did, kind="stable")
        did = did[doc_order]
        txt = docs.column("text").combine_chunks().take(
            pa.array(doc_order))
        rid = rem.column("doc_id").to_numpy(zero_copy_only=False)
        rpos = rem.column("pos").to_numpy(zero_copy_only=False)
        order = np.lexsort((rpos, rid))
        rid, rpos = rid[order], rpos[order]
        rend = rpos + gram
        # merge overlapping/adjacent spans per doc: all spans share
        # length ``gram``, so within a (doc, rpos)-sorted run rend is
        # monotone and the running max is simply the previous rend
        if len(rid):
            doc_change = np.concatenate([[True], rid[1:] != rid[:-1]])
            new_span = doc_change | (rpos > np.concatenate(
                [[np.iinfo(np.int64).min], rend[:-1]]))
            bnd = np.flatnonzero(new_span)
            span_doc_id = rid[new_span]
            s_start = rpos[new_span]
            s_end = rend[np.append(bnd[1:], len(rend)) - 1]
        else:
            span_doc_id, s_start, s_end = rid, rpos, rend
        span_doc = np.searchsorted(did, span_doc_id)
        out_txt, removed_c = _cut_spans_flat(
            txt, span_doc, s_start, s_end)
        nspans = np.bincount(span_doc, minlength=n).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(did.astype(np.int64)),
            "text": out_txt,
            "n_chars_removed": pa.array(removed_c),
            "n_spans_removed": pa.array(nspans),
        })

    docs = exchange.leaf(f"{sf_dir}/documents.parquet", ["doc_id", "text"])
    removals = exchange.file_exchange_map_groups(
        docs, elect, keys=["g"],
        pre=functools.partial(_gram_rows, gram=gram, stride=stride))
    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        (docs, removals.refs), cut, keys=["doc_id"]).refs)


# --------------------------------------------------------------------- #
# incremental MinHash dedup: delta vs a persisted corpus band index
# --------------------------------------------------------------------- #

def _to_bands_fn(k: int, bands: int, shingle: int, column: str = "text"):
    """Banding kernel shared by the one-shot LSH dedup, the index
    builder and the delta matcher — identical params MUST produce
    identical buckets or the index is useless. A LIST-typed ``column``
    (e.g. the lake's ``tokens``) shingles over token ids."""

    def to_bands(t: pa.Table) -> pa.Table:
        sig = minhash_sigs(t, text_col=column, k=k, shingle=shingle)
        return _band_rows(t.column("doc_id").to_numpy(zero_copy_only=False),
                          sig, bands)
    return to_bands


def _band_part(banded: pa.Table, num_partitions: int) -> np.ndarray:
    """The index partition ``bpart = bucket % P`` of each band row."""
    return (banded.column("bucket").to_numpy(zero_copy_only=False)
            .view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)


def _write_band_parts(t: pa.Table, to_bands, num_partitions: int,
                      index_root: str) -> pa.Table:
    """One block's (bucket, doc_id, sig) band rows appended under
    ``index_root`` as ``bpart=N/`` files (``exchange.write_parts``);
    returns its row count."""
    banded = to_bands(t)
    return exchange.write_parts(banded.append_column("bpart", pa.array(
        _band_part(banded, num_partitions))), index_root, "bpart")


def build_minhash_index(docs: "str | exchange.Leaf | list",
                        index_root: str, *, k: int = 64, bands: int = 16,
                        shingle: int = 3, num_partitions: int = 16,
                        column: str = "text") -> int:
    """Build (or APPEND to) a persisted MinHash band index: (bucket,
    doc_id, sig) rows hive-partitioned by ``bpart = bucket % P`` under
    ``index_root`` — the corpus side of incremental near-dup detection.
    A CDC lake's dedup stage calls this once over the existing corpus,
    then appends each committed wave's docs; matching a delta then
    touches only the band partitions the delta's buckets hash to (the
    same partition-pruned-index pattern as functions/ann.py IVF).
    ``docs`` is an sf dir or any exchange input; one raw task per block
    bands it and writes its files. Append-safe: files are uuid-named,
    re-appending the same docs is idempotent for MATCHING (duplicate
    index rows produce the same pairs). Returns the number of band rows
    written."""
    src = _docs(docs, ["doc_id", column]) if isinstance(docs, str) else docs
    os.makedirs(index_root, exist_ok=True)
    # rows written THIS call = docs x bands, counted by the writing
    # tasks — never walk the index root: an online step's cost must
    # track the delta, not the lifetime of the index
    return sum(t.column("n")[0].as_py() for t in ray.get(exchange.map_blocks(
        src, functools.partial(
            _write_band_parts, to_bands=_to_bands_fn(k, bands, shingle,
                                                     column),
            num_partitions=num_partitions, index_root=index_root))))


def match_minhash_index(new_docs: "str | exchange.Leaf | list",
                        index_root: str, *, k: int = 64, bands: int = 16,
                        shingle: int = 3, num_partitions: int = 16,
                        min_est_pct: int = 50,
                        max_matches: int | None = None,
                        column: str = "text",
                        fold_best: bool = True,
                        root: str | None = None) -> ray.data.Dataset:
    """Match NEW documents against a persisted band index: per new doc
    the best near-duplicate already in the corpus (max estimated
    Jaccard, ties to the smallest corpus doc_id). Returns (doc_id,
    dup_of, est_jaccard_pct) — one row per new doc that has a match
    ≥ ``min_est_pct``; clean docs emit nothing. ``new_docs`` is an sf
    dir or any exchange input.

    Scale shape: the delta is banded by raw tasks and exchanged ONCE
    on bpart; each partition task reads ONLY its own ``bpart=N`` index
    directory (partition-pruned: a small delta touches few partitions),
    pairs
    new-vs-index rows bucket-locally via two searchsorteds (never
    index-vs-index, never new-vs-new), caps per-row candidates at
    ``max_matches`` (deterministic smallest-doc_id prefix — the
    canonical keeper always survives), and folds the per-doc argmax
    with one lexsort. The index is never loaded whole anywhere.
    ``fold_best=False`` returns the raw candidate pairs (band-duplicates
    included) for callers that filter pairs before folding (the online
    keeper rule). ``root``: the exchange root (default: the system
    tempdir; an engine passes a dir under its lake)."""
    return ray.data.from_arrow_refs(_match_index(
        new_docs, index_root, k, bands, shingle, num_partitions,
        min_est_pct, max_matches, column, fold_best, root).refs)


def _match_index(new_docs, index_root: str, k: int, bands: int,
                 shingle: int, num_partitions: int, min_est_pct: int,
                 max_matches: "int | None", column: str, fold_best: bool,
                 root: "str | None") -> exchange.Exchanged:
    """``match_minhash_index``'s exchanges, returned as block refs."""
    cap = max_matches or MAX_BUCKET

    def match(t: pa.Table) -> pa.Table:
        # typed from the input: on the empty probe that is the
        # writer-reported schema of the banded delta
        empty = pa.table({"doc_id": pa.array([], t.column("doc_id").type),
                          "dup_of": pa.array([], t.column("doc_id").type),
                          "est_jaccard_pct": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        bp = int(t.column("part")[0].as_py())
        pdir = os.path.join(index_root, f"bpart={bp}")
        if not os.path.isdir(pdir):
            return empty
        import pyarrow.parquet as pq
        idx = pa.concat_tables([
            pq.read_table(os.path.join(pdir, f),
                          columns=["bucket", "doc_id", "sig"])
            for f in sorted(os.listdir(pdir)) if f.endswith(".parquet")])
        if idx.num_rows == 0:
            return empty
        ib = idx.column("bucket").to_numpy(zero_copy_only=False)
        iid = idx.column("doc_id").to_numpy(zero_copy_only=False)
        iorder = np.lexsort((iid, ib))
        ib, iid = ib[iorder], iid[iorder]
        isig = np.stack(idx.column("sig").to_numpy(
            zero_copy_only=False))[iorder]
        nb = t.column("bucket").to_numpy(zero_copy_only=False)
        nid = t.column("doc_id").to_numpy(zero_copy_only=False)
        nsig = np.stack(t.column("sig").to_numpy(zero_copy_only=False))
        lo = np.searchsorted(ib, nb, side="left")
        hi = np.searchsorted(ib, nb, side="right")
        cnt = np.minimum(hi - lo, cap)
        if cnt.sum() == 0:
            return empty
        a = np.repeat(np.arange(len(nid)), cnt)
        csum = np.concatenate([[0], np.cumsum(cnt)])
        within = np.arange(len(a)) - np.repeat(csum[:-1], cnt)
        b = np.repeat(lo, cnt) + within
        # a new doc already in the index must not match itself
        self_m = nid[a] == iid[b]
        a, b = a[~self_m], b[~self_m]
        if len(a) == 0:
            return empty
        est = (nsig[a] == isig[b]).mean(axis=1)
        pct = np.floor(est * 100).astype(np.int64)
        m = pct >= min_est_pct
        if not m.any():
            return empty
        return pa.table({"doc_id": pa.array(nid[a[m]]),
                         "dup_of": pa.array(iid[b[m]]),
                         "est_jaccard_pct": pa.array(pct[m])})

    def best_per_doc(g: pa.Table) -> pa.Table:
        d = g.column("doc_id").to_numpy(zero_copy_only=False)
        o = g.column("dup_of").to_numpy(zero_copy_only=False)
        e = g.column("est_jaccard_pct").to_numpy(zero_copy_only=False)
        order = np.lexsort((o, -e, d))
        d = d[order]
        first = np.concatenate([[True], d[1:] != d[:-1]]) \
            if len(d) else np.zeros(0, bool)
        # take keeps the input types (an empty group stays typed)
        return g.select(["doc_id", "dup_of", "est_jaccard_pct"]).take(
            pa.array(order[first], pa.int64()))

    to_bands = _to_bands_fn(k, bands, shingle, column)

    def banded(t: pa.Table) -> pa.Table:
        # the index's band partition is the explicit route
        b = to_bands(t)
        return b.append_column("part", pa.array(_band_part(
            b, num_partitions)))

    src = (_docs(new_docs, ["doc_id", column]) if isinstance(new_docs, str)
           else new_docs)
    # banded by raw tasks whatever the input kind, so the exchange takes
    # refs; typed by the writers' banded schema, empty blocks included
    pairs = exchange.file_exchange_map_groups(
        exchange.map_blocks(src, banded), match, root=root)
    if not fold_best:
        return pairs
    return exchange.file_exchange_map_groups(
        pairs.refs, best_per_doc, keys=["doc_id"], root=root)


def incremental_dedup(sf_dir: str, *, k: int = 64, bands: int = 16,
                      shingle: int = 3, min_est_pct: int = 50,
                      num_partitions: int = 16) -> ray.data.Dataset:
    """Driver-facing wrapper: docs with ``doc_id % 5 != 0`` play the
    EXISTING corpus (index side), the rest are the newly-ingested
    delta; builds the band index once per (input, params) under a
    content-keyed /tmp root, then matches the delta against it. The
    published-marker protocol mirrors functions/ann.py: build into a
    scratch dir, atomic-rename into place, losers of the publish race
    reuse the winner's index."""
    import hashlib
    import tempfile

    # content-keyed: size + mtime_ns of the source file are in the key
    # (same fingerprint as sampling.export_training_shards), so
    # regenerating the data at the same path invalidates the cache
    st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    key = hashlib.md5(f"{os.path.abspath(sf_dir)}|{st.st_size}|"
                      f"{st.st_mtime_ns}|{k}|{bands}|{shingle}|"
                      f"{num_partitions}".encode()).hexdigest()[:16]
    base = os.environ.get("AQR_MH_INDEX_ROOT")
    from ..stages.exchange import _guard_shared_root
    _guard_shared_root(base or tempfile.gettempdir(),
                       explicit=bool(base),
                       kind="minhash index root",
                       env="AQR_MH_INDEX_ROOT")
    root = os.path.join(base or tempfile.gettempdir(),
                        f"aqr_mh_index_{key}")

    def corpus_side(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(d % 5 != 0))

    def delta_side(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(d % 5 == 0))

    docs = _docs(sf_dir, ["doc_id", "text"])
    if not os.path.isdir(root):
        scratch = root + f".build-{os.getpid()}"
        build_minhash_index(
            exchange.map_blocks(docs, corpus_side), scratch, k=k,
            bands=bands, shingle=shingle, num_partitions=num_partitions)
        try:
            os.replace(scratch, root)
        except OSError:
            import shutil
            shutil.rmtree(scratch, ignore_errors=True)
    return match_minhash_index(
        exchange.map_blocks(docs, delta_side), root, k=k, bands=bands,
        shingle=shingle, min_est_pct=min_est_pct,
        num_partitions=num_partitions)


def dup_cluster_sizes(sf_dir: str, shingle: int = 3,
                      min_jaccard_pct: int = 80) -> pa.Table:
    """Duplication REPORT: the near-dup cluster-size distribution
    (size, n_clusters) — how much of the corpus duplication is pairs
    vs deep pile-ups, the number a curation run publishes next to its
    attrition table. Built on :func:`duplicate_clusters`; the fold is
    over cluster labels only (bounded by the pair graph, a small
    fraction of the corpus by construction)."""
    sizes = exchange.fx_count_by(
        _cluster_labels(sf_dir, shingle, min_jaccard_pct), ["lab"], "size")
    df = pa.concat_tables(ray.get(sizes.refs)).to_pandas()  # #clusters rows
    g = (df.groupby("size").size().reset_index(name="n_clusters")
         .sort_values("size"))
    return pa.table({
        "size": pa.array(g["size"].astype("int64")),
        "n_clusters": pa.array(g["n_clusters"].astype("int64")),
    })


def split_leakage(sf_dir: str, shingle: int = 8,
                  salt: str = "split1") -> ray.data.Dataset:
    """TRAIN->VAL SPLIT-LEAKAGE AUDIT — the split-hygiene twin of
    benchmark decontamination: per TRAIN document, count the word
    ``shingle``-grams it shares with ANY val document under the
    repo's deterministic md5 split (train_val_split's exact 90/5/5
    convention, so the SQL oracle reproduces every assignment AND
    every gram hit). A val set leaked into train silently inflates
    every eval on it. Returns (doc_id, n_hits) for leaky train docs.

    Scale shape: the val gram set folds from per-block uniques (val is
    a few percent of the corpus BY DESIGN — the same bounded-broadcast
    contract as decontaminate's benchmark list), broadcasts once, and
    scoring is one searchsorted pass per train block — no shuffle."""
    from .sampling import _md5_hex

    lo = f"{(90 << 128) // 100:032x}"
    hi = f"{(95 << 128) // 100:032x}"

    def val_grams(t: pa.Table) -> pa.Table:
        fp = _md5_hex(f"{salt}|", t.column("doc_id"))
        sub = t.filter(pa.array((fp >= lo) & (fp < hi)))
        h = (np.unique(_shingle_hashes(sub, "text", shingle)[0])
             if sub.num_rows else np.array([], np.uint64))
        return pa.table({"h": pa.array(h.view(np.int64))})

    parts = _blocks(sf_dir, ["doc_id", "text"], val_grams)
    # sort in UNSIGNED space: int64 is only the Arrow transport type —
    # a signed-sorted array breaks count_blocklist_hits' searchsorted
    bl = np.unique(np.concatenate(
        [t.column("h").to_numpy(zero_copy_only=False).view(np.uint64)
         for t in parts] or [np.array([], np.uint64)]))

    def score(t: pa.Table) -> pa.Table:
        fp = _md5_hex(f"{salt}|", t.column("doc_id"))
        sub = t.filter(pa.array(fp < lo))            # train side only
        hits = count_blocklist_hits(sub, bl, shingle)
        keep = pa.array(hits > 0)
        return pa.table({
            "doc_id": sub.column("doc_id").filter(keep),
            "n_hits": pa.array(hits[hits > 0]),
        })

    return _per_doc(sf_dir, ["doc_id", "text"], score)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "decontaminate",
    "dup_cluster_sizes",
    "dup_gram_coverage",
    "duplicate_clusters",
    "embedding_ann_dedup",
    "embedding_cosine_dedup",
    "exact_dedup",
    "incremental_dedup",
    "minhash_lsh_dedup",
    "near_dedup_keep",
    "ngram_jaccard_dedup",
    "remove_boilerplate_lines",
    "remove_dup_spans",
    "semdedup",
    "simhash_dedup",
))
