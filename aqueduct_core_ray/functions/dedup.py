"""Deduplication operators over the ``documents`` / ``embeddings``
tables: exact (hash-partitioned), MinHash+LSH, SimHash, exact n-gram
Jaccard verification, and embedding-cosine near-dup.

Scale design (100 TB framing):

- exact dedup: md5(text) computed per batch -> hash shuffle on the
  16-byte digest (never on the full text) -> per-group min(doc_id)
  over the file exchange (stages/exchange.py).
- MinHash/SimHash: signatures are computed fully vectorized per batch
  (numpy ``minimum.reduceat`` over flattened shingle hashes — no Python
  row loop); LSH banding emits (bucket, doc_id, sig) rows — the compact
  sketch travels WITH the banding row (duplication factor = #bands), so
  bucket-local verification needs no second join; candidate pairs are
  deduped by a tiny groupby on the pair key.
- embedding near-dup / brute-force search: the comparison side is
  broadcast once via ``ray.put`` and read zero-copy in every map task —
  O(N·M) matmul per batch, never an N×N shuffle join. The IVF variant in
  functions/ann.py is the scale path when M grows.

Determinism: every hash is pandas' keyed siphash or fixed odd-multiplier
mixing — stable across processes/nodes/runs.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .text import fingerprint_batch, hash_str_array, read_documents

# registers ray.data.Dataset.fx_map_groups (file exchange — skips
# Ray's ~3 s sort-shuffle floor per co-partitioned exchange)
from ..stages.exchange import collect_tables

# fixed odd 64-bit mixing constants (splitmix64-flavored)
_P1, _P2, _P3 = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


# --------------------------------------------------------------------- #
# exact dedup
# --------------------------------------------------------------------- #
def exact_dedup(sf_dir: str) -> ray.data.Dataset:
    """First-writer-wins exact dedup: one surviving doc_id (the minimum)
    per distinct text, keyed by md5 so the shuffle moves digests, not
    documents. Returns (doc_id, fp).

    ``fx_agg_by(fp).min(doc_id)`` over the file exchange — hash-
    partitioned Arrow-native partial mins, no per-group Python call
    (the round-1 ``map_groups(keep_min)`` was one interpreter call per
    distinct text: a wall at 10^9 groups) and no sort-shuffle floor."""
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    fps = ds.map_batches(fingerprint_batch, batch_format="pyarrow")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "fp": t.column("fp")})

    from ..stages.exchange import fx_agg_by
    return fx_agg_by(fps, ["fp"], [("doc_id", "min")]).map_batches(
        rename, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# shingling + MinHash signatures (vectorized)
# --------------------------------------------------------------------- #
_hash_str_array = hash_str_array     # canonical kernel lives in text.py


def _shingle_hashes(t: pa.Table, text_col: str, shingle: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Word-``shingle``-gram hashes for a batch.

    Returns (sh, sdoc): flat shingle-hash array and the row index of each
    shingle. Rows with fewer than ``shingle`` words contribute their
    whole-text hash as a single shingle. Fully vectorized."""
    txt = pc.utf8_trim_whitespace(t.column(text_col))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    h = _hash_str_array(words.flatten())
    counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    docidx = np.repeat(np.arange(len(counts)), counts)
    if len(h) >= shingle:
        sh = h[: len(h) - shingle + 1] * np.uint64(_P1)
        for j in range(1, shingle):
            sh = sh ^ (h[j: len(h) - shingle + 1 + j] * np.uint64(_P2 + 2 * j))
        valid = docidx[: len(h) - shingle + 1] == docidx[shingle - 1:]
        sh, sdoc = sh[valid], docidx[: len(h) - shingle + 1][valid]
    else:
        sh = np.empty(0, np.uint64)
        sdoc = np.empty(0, np.int64)
    # fallback: short docs get one whole-text shingle
    have = np.bincount(sdoc, minlength=t.num_rows) > 0
    if not have.all():
        missing = np.flatnonzero(~have)
        fh = _hash_str_array(txt.combine_chunks())[missing]
        sh = np.concatenate([sh, fh])
        sdoc = np.concatenate([sdoc, missing])
        order = np.argsort(sdoc, kind="stable")
        sh, sdoc = sh[order], sdoc[order]
    return sh, sdoc


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
    if len(h) >= shingle:
        sh = h[: len(h) - shingle + 1] * np.uint64(_P1)
        for j in range(1, shingle):
            sh = sh ^ (h[j: len(h) - shingle + 1 + j]
                       * np.uint64(_P2 + 2 * j))
        valid = docidx[: len(h) - shingle + 1] == docidx[shingle - 1:]
        sh, sdoc = sh[valid], docidx[: len(h) - shingle + 1][valid]
    else:
        sh = np.empty(0, np.uint64)
        sdoc = np.empty(0, np.int64)
    have = np.bincount(sdoc, minlength=t.num_rows) > 0
    if not have.all():
        # short rows: one fold shingle over the whole sequence
        missing = np.flatnonzero(~have)
        folded = np.zeros(t.num_rows, np.uint64)
        np.add.at(folded, docidx, (h * np.uint64(_P1)) & _MASK)
        fh = ((folded + counts.astype(np.uint64) * np.uint64(_P3))
              * np.uint64(_P2)) & _MASK
        sh = np.concatenate([sh, fh[missing]])
        sdoc = np.concatenate([sdoc, missing])
        order = np.argsort(sdoc, kind="stable")
        sh, sdoc = sh[order], sdoc[order]
    return sh, sdoc


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


def _bucket_pairs_fn(min_est_pct: int, max_bucket: int | None = None):
    """Pair generation over ONE bucket-hash PARTITION: sort by (bucket,
    doc_id), cap oversized buckets, then a single segmented pair
    construction + signature comparison covering every bucket in the
    partition — no per-bucket Python call."""

    def pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id_a": pa.array([], pa.int64()),
                          "doc_id_b": pa.array([], pa.int64()),
                          "est_jaccard_pct": pa.array([], pa.int64())})
        if t.num_rows < 2:
            return empty
        bucket = t.column("bucket").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bucket))
        bucket, ids = bucket[order], ids[order]
        keep = _cap_segments(bucket, max_bucket or MAX_BUCKET)
        bucket, ids = bucket[keep], ids[keep]
        if len(ids) < 2:
            return empty
        sig = np.stack(t.column("sig").to_numpy(
            zero_copy_only=False))[order][keep]
        ii, jj = _segmented_pairs(bucket)
        if len(ii) == 0:
            return empty
        est = (sig[ii] == sig[jj]).mean(axis=1)
        pct = np.floor(est * 100).astype(np.int64)
        m = pct >= min_est_pct
        if not m.any():
            return empty
        a, b = ids[ii[m]], ids[jj[m]]
        lo, hi_ = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"doc_id_a": pa.array(lo),
                         "doc_id_b": pa.array(hi_),
                         "est_jaccard_pct": pa.array(pct[m])})
    return pairs


def _dedupe_pairs(ds: ray.data.Dataset,
                  metric_col: str = "est_jaccard_pct",
                  num_partitions: int = 16) -> ray.data.Dataset:
    """Same pair can surface from several buckets — keep one (no packed
    key: int packing collides once ids pass 2^31, silently dropping
    candidate pairs). The metric is deterministic per pair
    (signature-derived), so min() returns the one value every bucket
    computed. One file exchange keyed by hash(a)^hash(b) — the native
    multi-key aggregate this replaces paid Ray's ~3 s sort-shuffle
    floor (stages/exchange.py) — then a vectorized lexsort fold per
    partition."""

    def tag(t: pa.Table) -> pa.Table:
        a = t.column("doc_id_a").to_numpy(zero_copy_only=False)
        b = t.column("doc_id_b").to_numpy(zero_copy_only=False)
        pp = ((pd.util.hash_array(a.copy(), categorize=False)
               ^ pd.util.hash_array(b.copy(), categorize=False))
              % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("part", pa.array(pp))

    def fold(g: pa.Table) -> pa.Table:
        a = g.column("doc_id_a").to_numpy(zero_copy_only=False)
        b = g.column("doc_id_b").to_numpy(zero_copy_only=False)
        m = g.column(metric_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b, m = a[order], b[order], m[order]
        first = np.flatnonzero(np.concatenate(
            [[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])]))
        return pa.table({
            "doc_id_a": pa.array(a[first]),
            "doc_id_b": pa.array(b[first]),
            metric_col: pa.array(np.minimum.reduceat(m, first)),
        })

    from ..stages.exchange import file_exchange_map_groups
    return file_exchange_map_groups(
        ds.map_batches(tag, batch_format="pyarrow"), fold)


def minhash_lsh_dedup(sf_dir: str, k: int = 64, bands: int = 16,
                      shingle: int = 3, min_est_pct: int = 50,
                      max_bucket: int | None = None,
                      num_partitions: int = 16) -> ray.data.Dataset:
    """MinHash+LSH near-dup candidate pairs: shingle -> minhash -> band ->
    bucket-HASH-partition groupby (bounded group count; every bucket in a
    partition pairs in one vectorized segmented pass) -> global pair
    dedupe. Bucket co-location is preserved: bpart = bucket % P."""

    def to_bands(t: pa.Table) -> pa.Table:
        sig = minhash_sigs(t, k=k, shingle=shingle)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        out = _band_rows(ids, sig, bands)
        bp = (out.column("bucket").to_numpy(zero_copy_only=False)
              .view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return out.append_column("bpart", pa.array(bp))

    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    banded = ds.map_batches(to_bands, batch_format="pyarrow")
    # file exchange, not groupby — skips Ray's ~3 s sort-shuffle floor
    # (stages/exchange.py); bucket co-location unchanged (bpart key)
    from ..stages.exchange import file_exchange_map_groups
    cand = file_exchange_map_groups(
        banded, _bucket_pairs_fn(min_est_pct, max_bucket),
        part_col="bpart")
    return _dedupe_pairs(cand)


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


def _int_part(ids: np.ndarray, num_partitions: int) -> pa.Array:
    return pa.array((pd.util.hash_array(ids.copy(), categorize=False)
                     % np.uint64(num_partitions)).astype(np.int32))


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


def _attach_shingles(pairs: ray.data.Dataset, shingles: ray.data.Dataset,
                     key_col: str, carry: list[str],
                     num_partitions: int) -> ray.data.Dataset:
    """One co-partitioned hash-join pass: attach the shingle list of
    ``key_col``'s doc to every pair row, as column ``sh``.

    Both sides are tagged with the SAME hash partition of the join key
    and unioned; each bounded ``part`` group then resolves pair→doc with
    a vectorized searchsorted over the group's (unique) doc keys. The
    shuffle moves candidate pairs + one shingle list per doc — never the
    corpus, never anything to the driver."""
    null_sh = _SH_LIST

    def tag_pairs(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        cols = {"part": _int_part(keys, num_partitions),
                "role": pa.array(np.zeros(t.num_rows, np.int8)),
                "key": t.column(key_col)}
        for c in carry:
            cols[c] = t.column(c)
        cols["sh"] = pa.nulls(t.num_rows, null_sh)
        return pa.table(cols)

    def tag_docs(t: pa.Table) -> pa.Table:
        keys = t.column("doc_id").to_numpy(zero_copy_only=False)
        cols = {"part": _int_part(keys, num_partitions),
                "role": pa.array(np.ones(t.num_rows, np.int8)),
                "key": t.column("doc_id")}
        for c in carry:
            cols[c] = pa.nulls(
                t.num_rows,
                null_sh if c.startswith("sh") else pa.int64())
        cols["sh"] = t.column("sh").cast(null_sh)
        return pa.table(cols)

    both = pairs.map_batches(tag_pairs, batch_format="pyarrow").union(
        shingles.map_batches(tag_docs, batch_format="pyarrow"))

    def join(g: pa.Table) -> pa.Table:
        role = g.column("role").to_numpy(zero_copy_only=False)
        docs = g.filter(pa.array(role == 1))
        prs = g.filter(pa.array(role == 0))
        out_cols = {c: prs.column(c) for c in ["key"] + carry}
        if prs.num_rows == 0:
            out_cols["sh"] = pa.nulls(0, null_sh)
            return pa.table(out_cols)
        if docs.num_rows == 0:
            raise ValueError("candidate pairs hashed to a partition with "
                             "no shingle rows — mismatched inputs")
        dk = docs.column("key").to_numpy(zero_copy_only=False)
        dorder = np.argsort(dk, kind="stable")
        dk = dk[dorder]
        dsh = docs.column("sh").take(pa.array(dorder)).combine_chunks()
        pk = prs.column("key").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(dk, pk)
        pos = np.clip(pos, 0, len(dk) - 1)
        if not (dk[pos] == pk).all():
            # loud failure beats silently attaching a neighbor's
            # shingles: candidates are generated FROM this corpus, so a
            # missing key means mismatched inputs
            raise ValueError("candidate pair references a doc_id absent "
                             "from the shingle table")
        out_cols["sh"] = dsh.take(pa.array(pos))
        return pa.table(out_cols)

    # file exchange, not groupby: Ray's sort shuffle costs ~3 s fixed
    # per exchange at ANY size (stages/exchange.py) — with two attach
    # passes per verify that floor dominated the whole pipeline
    from ..stages.exchange import file_exchange_map_groups
    return file_exchange_map_groups(both, join)


def ngram_jaccard_dedup(sf_dir: str, shingle: int = 3,
                        min_jaccard_pct: int = 80, k: int = 64,
                        bands: int = 16,
                        num_partitions: int = 16) -> ray.data.Dataset:
    """LSH candidates re-verified with EXACT word-``shingle``-gram Jaccard.

    Scale shape (replaces round 1's driver-side whole-corpus shingle-set
    broadcast): the per-doc shingle table is a distributed Dataset; two
    co-partitioned hash-join passes attach side A's then side B's shingle
    list to each candidate pair; the exact Jaccard is one vectorized
    sort-and-count over the pair-tagged shingles. Driver traffic: zero
    rows."""
    cand = minhash_lsh_dedup(sf_dir, k=k, bands=bands, shingle=shingle,
                             min_est_pct=40)

    def strip_est(t: pa.Table) -> pa.Table:
        return t.drop_columns(["est_jaccard_pct"])

    cand = cand.map_batches(strip_est, batch_format="pyarrow")
    docs = read_documents(sf_dir, columns=["doc_id", "text"])
    # materialize: BOTH join passes consume this table, and Ray
    # re-executes lazy lineage per consumer — without the pin the
    # corpus would be read and re-shingled twice (object store holds
    # hash lists, ~8 B/word, and spills if needed)
    shingles = docs.map_batches(_shingle_list_batch,
                                batch_format="pyarrow",
                                fn_kwargs={"shingle": shingle}
                                ).materialize()

    # pass A: key = doc_id_a → sh_a
    with_a = _attach_shingles(cand, shingles, "doc_id_a",
                              ["doc_id_a", "doc_id_b"], num_partitions)

    def rename_a(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id_a": t.column("doc_id_a"),
                         "doc_id_b": t.column("doc_id_b"),
                         "sh_a": t.column("sh")})

    with_a = with_a.map_batches(rename_a, batch_format="pyarrow")

    # pass B: key = doc_id_b → sh (B's list), sh_a carried through
    with_b = _attach_shingles(with_a, shingles, "doc_id_b",
                              ["doc_id_a", "doc_id_b", "sh_a"],
                              num_partitions)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id_a": pa.array([], pa.int64()),
                             "doc_id_b": pa.array([], pa.int64()),
                             "jaccard_pct": pa.array([], pa.int64())})
        pct = _exact_jaccard_pct(t.column("sh_a"), t.column("sh"))
        out = pa.table({"doc_id_a": t.column("doc_id_a"),
                        "doc_id_b": t.column("doc_id_b"),
                        "jaccard_pct": pa.array(pct.astype(np.int64))})
        return out.filter(pc.greater_equal(out.column("jaccard_pct"),
                                           min_jaccard_pct))

    return with_b.map_batches(verify, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# SimHash
# --------------------------------------------------------------------- #
def simhash_batch(t: pa.Table, text_col: str = "text") -> np.ndarray:
    """64-bit SimHash per row: sign of per-bit ±1 sums over word hashes
    (vectorized bit expansion + ``add.reduceat``)."""
    txt = pc.utf8_trim_whitespace(t.column(text_col))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    h = _hash_str_array(words.flatten())
    counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
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


def simhash_dedup(sf_dir: str, max_hamming: int = 3,
                  num_partitions: int = 16) -> ray.data.Dataset:
    """Near-dup pairs with SimHash Hamming distance <= ``max_hamming``,
    candidate generation by 16-bit band pigeonhole (4 bands: any pair
    within distance 3 shares at least one exact band). Pairing runs per
    bucket-hash PARTITION with one segmented vectorized pass over all
    buckets (same scale shape as minhash_lsh_dedup)."""

    def to_bands(t: pa.Table) -> pa.Table:
        sh = simhash_batch(t)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(ids)
        buckets = np.empty(4 * n, dtype=np.int64)
        for b in range(4):
            band = (sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            buckets[b * n:(b + 1) * n] = (band.astype(np.int64)
                                          | (np.int64(b) << 32))
        bp = (buckets % num_partitions).astype(np.int32)
        return pa.table({"bucket": pa.array(buckets),
                         "bpart": pa.array(bp),
                         "doc_id": pa.array(np.tile(ids, 4)),
                         "simhash": pa.array(np.tile(sh, 4).view(np.int64))})

    def pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id_a": pa.array([], pa.int64()),
                          "doc_id_b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int64())})
        if t.num_rows < 2:
            return empty
        bucket = t.column("bucket").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bucket))
        bucket, ids = bucket[order], ids[order]
        keep = _cap_segments(bucket, MAX_BUCKET)
        bucket, ids = bucket[keep], ids[keep]
        if len(ids) < 2:
            return empty
        sh = t.column("simhash").to_numpy(zero_copy_only=False).astype(
            np.int64).view(np.uint64)[order][keep]
        ii, jj = _segmented_pairs(bucket)
        if len(ii) == 0:
            return empty
        ham = _popcount64(sh[ii] ^ sh[jj]).astype(np.int64)
        m = ham <= max_hamming
        if not m.any():
            return empty
        a, b = ids[ii[m]], ids[jj[m]]
        return pa.table({"doc_id_a": pa.array(np.minimum(a, b)),
                         "doc_id_b": pa.array(np.maximum(a, b)),
                         "hamming": pa.array(ham[m])})

    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    cand = (ds.map_batches(to_bands, batch_format="pyarrow")
            .fx_map_groups(pairs, part_col="bpart"))
    return _dedupe_pairs(cand, "hamming")


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

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return ds.map_batches(nearpairs, batch_format="pyarrow")


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
            "cell": pa.array(order.T.reshape(-1).astype(np.int32)),
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

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    cand = (ds.map_batches(to_cells, batch_format="pyarrow")
            .fx_map_groups(cell_pairs, part_col="cell"))

    from ..stages.exchange import fx_agg_by
    return fx_agg_by(cand, ["vec_id_a", "vec_id_b"],
                     [("sim_pct", "min")])


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

    from .text import read_documents
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(scan, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# corpus-wide repeated-line (boilerplate) removal
# --------------------------------------------------------------------- #
def _split_lines(t: pa.Table, text_col: str, sep: str
                 ) -> tuple[pa.ListArray, np.ndarray, np.ndarray]:
    """(line lists, flat line hashes, per-row line counts) for a batch."""
    lines = pc.split_pattern(t.column(text_col), sep).combine_chunks()
    h = _hash_str_array(lines.flatten())
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    return lines, h, counts


def remove_boilerplate_lines(sf_dir: str, min_docs: int = 2,
                             sep: str = "\n") -> ray.data.Dataset:
    """CCNet / RefinedWeb-style line-wise dedup: drop every line that
    occurs in >= ``min_docs`` DISTINCT documents (navigation chrome,
    cookie banners, footers), preserving the order of surviving lines.
    Returns (doc_id, text, n_kept, n_removed); a fully-boilerplate doc
    keeps its row with empty text.

    Scale shape: pass 1 pre-aggregates per batch — per-doc DISTINCT line
    hashes, then a batch-local doc count per hash — so the only shuffle
    is a native ``groupby(line_h).sum`` over already-combined partials
    (the 64-bit hash travels, never the line text). The common-line set
    is bounded by the frequency threshold (boilerplate is heavy-hitter
    by definition), so it is collected once and broadcast via
    ``ray.put``; pass 2 streams the corpus through one vectorized
    searchsorted + Arrow list rebuild per batch. At 100 TB the collected
    set is the only driver traffic; if a corpus ever produced an
    unbounded common set, raise ``min_docs`` or shard the blocklist by
    hash range.
    """
    ds = read_documents(sf_dir, columns=["doc_id", "text"])

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

    from ..stages.exchange import fx_sum_by
    freq = fx_sum_by(ds.map_batches(line_freq, batch_format="pyarrow"),
                     ["line_h"], ["nd"])

    def common_only(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t.column("nd"), min_docs)
        return pa.table({"line_h": t.filter(keep).column("line_h")})

    common_df = freq.map_batches(common_only,
                                 batch_format="pyarrow").to_pandas()
    if len(common_df):           # empty Dataset.to_pandas() drops columns
        common = np.sort(common_df["line_h"].to_numpy().view(np.uint64))
    else:
        common = np.empty(0, np.uint64)
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

    return ds.map_batches(strip, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# duplicate clusters: distributed connected components over the
# verified near-dup pair graph
# --------------------------------------------------------------------- #
def _cc_min_label(edges: ray.data.Dataset, num_partitions: int = 16,
                  max_iters: int = 16) -> ray.data.Dataset:
    """Connected components by min-label propagation WITH pointer
    jumping: ``(node, cluster_id)`` where ``cluster_id`` is the minimum
    node id in the component.

    ``edges`` must be symmetric ``(src, dst)``. Each round augments the
    edge set with the current label pointers ``(lab -> node)`` so a node
    reads its label's label too (pointer doubling, Rastogi et al.,
    "Finding Connected Components in MapReduce", ICDE 2013) — rounds are
    O(log diameter), not O(diameter). Per round: one co-partitioned
    union-tag hash join (edges keyed by src meet labels keyed by node)
    plus one native ``groupby(node).min``. Convergence is detected by
    the label sum — labels are non-negative and only ever decrease, so
    an unchanged sum IS the fixpoint; the driver sees one scalar per
    round, never a row."""
    from ..stages.exchange import file_exchange_map_groups

    P = num_partitions

    def _min_by_node(ds: ray.data.Dataset) -> ray.data.Dataset:
        """groupby(node).min(lab) as ONE file exchange + a vectorized
        lexsort fold — the native aggregate pays Ray's ~3 s
        sort-shuffle floor PER ROUND of the pointer-jumping loop
        (stages/exchange.py)."""
        def tagn(t: pa.Table) -> pa.Table:
            node = t.column("node").to_numpy(zero_copy_only=False)
            return t.append_column("part", _int_part(node, P))

        def fold(g: pa.Table) -> pa.Table:
            node = g.column("node").to_numpy(zero_copy_only=False)
            lab = g.column("lab").to_numpy(zero_copy_only=False)
            order = np.lexsort((lab, node))
            node, lab = node[order], lab[order]
            first = np.flatnonzero(np.concatenate(
                [[True], node[1:] != node[:-1]]))
            return pa.table({"node": pa.array(node[first]),
                             "lab": pa.array(lab[first])})

        return file_exchange_map_groups(
            ds.map_batches(tagn, batch_format="pyarrow"), fold)

    def init_labels(t: pa.Table) -> pa.Table:
        src = t.column("src").to_numpy(zero_copy_only=False)
        dst = t.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(src),
                         "lab": pa.array(np.minimum(src, dst))})

    labels = _min_by_node(
        edges.map_batches(init_labels,
                          batch_format="pyarrow")).materialize()

    def tag_edges(t: pa.Table) -> pa.Table:
        src = t.column("src").to_numpy(zero_copy_only=False)
        return pa.table({"part": _int_part(src, P),
                         "role": pa.array(np.zeros(t.num_rows, np.int8)),
                         "key": t.column("src"),
                         "val": t.column("dst")})

    def jump_edges(t: pa.Table) -> pa.Table:
        """label pointers as extra edges lab -> node (skip self-labels:
        they would only echo the node's own label back)."""
        node = t.column("node").to_numpy(zero_copy_only=False)
        lab = t.column("lab").to_numpy(zero_copy_only=False)
        m = lab != node
        return pa.table({"part": _int_part(lab[m], P),
                         "role": pa.array(np.zeros(int(m.sum()), np.int8)),
                         "key": pa.array(lab[m]),
                         "val": pa.array(node[m])})

    def tag_labels(t: pa.Table) -> pa.Table:
        node = t.column("node").to_numpy(zero_copy_only=False)
        return pa.table({"part": _int_part(node, P),
                         "role": pa.array(np.ones(t.num_rows, np.int8)),
                         "key": t.column("node"),
                         "val": t.column("lab")})

    def send(g: pa.Table) -> pa.Table:
        """per hash partition: msg (node=dst, lab=label(src)) for every
        edge whose src lives here."""
        role = g.column("role").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        val = g.column("val").to_numpy(zero_copy_only=False)
        is_lab = role == 1
        lk, lv = key[is_lab], val[is_lab]
        order = np.argsort(lk, kind="stable")
        lk, lv = lk[order], lv[order]
        ek, ev = key[~is_lab], val[~is_lab]
        if len(ek) == 0 or len(lk) == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "lab": pa.array([], pa.int64())})
        pos = np.clip(np.searchsorted(lk, ek), 0, len(lk) - 1)
        if not (lk[pos] == ek).all():
            raise ValueError("edge src absent from label table — "
                             "labels must cover every edge endpoint")
        return pa.table({"node": pa.array(ev),
                         "lab": pa.array(lv[pos])})

    # the edge→(part, role, key, val) tagging is invariant across
    # rounds — materialize it once instead of re-running the O(E) map
    # inside every pointer-jumping iteration
    tagged_edges = (edges.map_batches(tag_edges, batch_format="pyarrow")
                    .materialize())
    prev_sum = None
    for _ in range(max_iters):
        tagged = (tagged_edges
                  .union(labels.map_batches(jump_edges,
                                            batch_format="pyarrow"))
                  .union(labels.map_batches(tag_labels,
                                            batch_format="pyarrow")))
        msgs = file_exchange_map_groups(tagged, send)  # emits (node, lab)
        labels = _min_by_node(msgs.union(labels)).materialize()
        # convergence scalar: bounded per-block partials, no aggregate
        # exchange
        s = sum(r["s"] for r in labels.map_batches(
            lambda t: pa.table({"s": pa.array(
                [int(t.column("lab").to_numpy(
                    zero_copy_only=False).sum())], pa.int64())}),
            batch_format="pyarrow").take_all())
        if s == prev_sum:
            return labels
        prev_sum = s
    raise RuntimeError(f"connected components did not converge in "
                       f"{max_iters} pointer-jumping rounds")


def duplicate_clusters(sf_dir: str, shingle: int = 3,
                       min_jaccard_pct: int = 80,
                       num_partitions: int = 16) -> ray.data.Dataset:
    """``(doc_id, cluster_id)`` for every document that belongs to a
    near-duplicate cluster — the transitive closure of the VERIFIED
    exact-Jaccard pair graph from :func:`ngram_jaccard_dedup`, labeled
    with the minimum member doc_id. Singletons (docs in no pair) are
    excluded: at corpus scale they are the overwhelming majority and
    carrying a trivial self-cluster row per doc would dwarf the result.

    Pair detection is LSH-candidate + exact verify (no all-pairs stage);
    the component computation touches only the pair graph, which is a
    small fraction of the corpus by construction."""
    pairs = ngram_jaccard_dedup(sf_dir, shingle=shingle,
                                min_jaccard_pct=min_jaccard_pct,
                                num_partitions=num_partitions)

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t.column("doc_id_a").to_numpy(zero_copy_only=False)
        b = t.column("doc_id_b").to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(np.concatenate([a, b])),
                         "dst": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(both_dirs,
                              batch_format="pyarrow").materialize()
    labels = _cc_min_label(edges, num_partitions=num_partitions)
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("node"),
                            "cluster_id": t.column("lab")}),
        batch_format="pyarrow")


def near_dedup_keep(sf_dir: str, shingle: int = 3,
                    min_jaccard_pct: int = 80,
                    num_partitions: int = 16) -> ray.data.Dataset:
    """Surviving ``doc_id`` set after near-dedup: drop every cluster
    member except the representative (minimum doc_id); docs in no
    cluster survive untouched.

    The removal set (non-representative members) is cluster-graph-sized
    but unbounded in theory, so it is anti-joined against the corpus via
    the same co-partitioned union-tag exchange as
    pipelines/curate.py — never broadcast, never on the driver."""
    clusters = duplicate_clusters(sf_dir, shingle=shingle,
                                  min_jaccard_pct=min_jaccard_pct,
                                  num_partitions=num_partitions)

    def drops_only(t: pa.Table) -> pa.Table:
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        cl = t.column("cluster_id").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(doc[doc != cl])})

    drops = clusters.map_batches(drops_only, batch_format="pyarrow")
    docs = read_documents(sf_dir, columns=["doc_id"])
    P = num_partitions

    def tag(role: int):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _int_part(ids, P),
                "role": pa.array(np.full(t.num_rows, role, np.int8)),
                "doc_id": t.column("doc_id")})
        return f

    def anti(g: pa.Table) -> pa.Table:
        role = g.column("role").to_numpy(zero_copy_only=False)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        gone = np.unique(ids[role == 1])
        keep_ids = ids[role == 0]
        if len(gone):
            pos = np.clip(np.searchsorted(gone, keep_ids), 0,
                          len(gone) - 1)
            keep_ids = keep_ids[gone[pos] != keep_ids]
        return pa.table({"doc_id": pa.array(keep_ids)})

    from ..stages.exchange import file_exchange_map_groups
    return file_exchange_map_groups(
        docs.map_batches(tag(0), batch_format="pyarrow")
        .union(drops.map_batches(tag(1), batch_format="pyarrow")), anti)


# --------------------------------------------------------------------- #
# exact duplicated-substring coverage (suffix-array dedup flavor)
# --------------------------------------------------------------------- #
def dup_gram_coverage(sf_dir: str, gram: int = 32, stride: int = 16,
                      num_partitions: int = 16) -> ray.data.Dataset:
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

    Scale shape: gram extraction is one Arrow ``utf8_slice_codeunits``
    kernel per offset (vectorized across the batch; offsets bound by
    the LONGEST doc in the batch / stride, not by row count), deduped
    per doc by one Arrow group_by before anything moves. ONE
    co-partitioned exchange on hash(gram) %% P counts distinct docs per
    gram and collapses to per-(partition, doc) partial counts — a doc's
    distinct grams land in exactly one partition each, so the partial
    totals sum exactly; the finishing per-doc sum is a second bounded
    exchange (fx_sum_by). The gram TEXT travels the first exchange so
    duplicated-ness is exact string equality (what the SQL oracle
    computes), never hash-collision-dependent; swap the payload for its
    128-bit hash when byte volume, not exactness, is the binding
    constraint at 100 TB."""
    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def grams(t: pa.Table) -> pa.Table:
        """Distinct (doc_id, gram) pairs of a batch, exchange-tagged."""
        empty = pa.table({"part": pa.array([], pa.int32()),
                          "doc_id": pa.array([], pa.int64()),
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
            sub = pc.utf8_slice_codeunits(
                txt.filter(pa.array(sel)), k, k + gram)
            parts.append(pa.table({"doc_id": pa.array(ids[sel]),
                                   "g": sub}))
        if not parts:
            return empty
        u = (pa.concat_tables(parts)
             .group_by(["doc_id", "g"]).aggregate([]))
        gh = _hash_str_array(u.column("g").combine_chunks())
        return pa.table({
            "part": pa.array((gh % np.uint64(num_partitions))
                             .astype(np.int32)),
            "doc_id": u.column("doc_id"),
            "g": u.column("g"),
        })

    def mark(gp: pa.Table) -> pa.Table:
        """One hash(gram) partition: distinct-doc counts per gram ->
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

    from ..stages.exchange import fx_sum_by
    partials = (ds.map_batches(grams, batch_format="pyarrow")
                .fx_map_groups(mark))
    return fx_sum_by(partials, ["doc_id"],
                     ["dup_grams", "total_grams"], num_partitions)


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


def _semdedup_tag_block(t: pa.Table, C: np.ndarray,
                        num_partitions: int) -> pa.Table:
    from .ann import _kmeans_dist2, _micro_vectors
    ids, M = _micro_vectors(t)
    if len(ids) == 0:
        return pa.table({
            "part": pa.array([], pa.int32()),
            "cluster": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "embedding": t.column("embedding"),
        })
    assign = np.argmin(_kmeans_dist2(M, C), axis=1).astype(np.int64)
    return pa.table({
        "part": pa.array((assign % num_partitions).astype(np.int32)),
        "cluster": pa.array(assign),
        "vec_id": pa.array(ids.astype(np.int64)),
        "embedding": t.column("embedding"),
    })


_SEMDEDUP_TAG = ray.remote(num_cpus=1)(_semdedup_tag_block)


def semdedup(sf_dir: str, k: int = 8, iters: int = 12,
             threshold_pm: int = 350,
             num_partitions: int = 16) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster the
    embedding table with the module's exact-integer k-means, then
    within each cluster drop every vector whose cosine similarity to
    ANY earlier (smaller vec_id) cluster member reaches ``threshold_pm``
    permille; the survivor set is the semantically-deduplicated corpus.
    Returns (vec_id, cluster, keep, dup_of) distributed — ``dup_of``
    is the earliest too-similar vec_id, null for kept rows. No
    reference counterpart — training-data curation surface.

    Scale shape: centroids come from the shared ``ann._kmeans_fit``
    (blocks read once, one raw-task fan per Lloyd's iteration, no
    shuffle); assignment + exchange tagging is one more raw-task fan
    over the SAME pinned blocks. The only shuffle is ONE co-partitioned
    exchange on cluster %% P — a vector moves exactly once, to the
    partition that owns its cluster. The per-cluster prune is
    column-chunked (O(cluster x 2048) similarity buffer) and the
    pairwise cost is bounded by the largest CLUSTER, not the corpus:
    pick k ~ N/1000 as the paper does so clusters stay ~1e3 and the
    prune is ~1e6 flops per cluster. Result is partitioning-invariant:
    assignment is integer-exact and each cluster is pruned whole in
    ascending vec_id order (pinned by tests)."""
    from .ann import _kmeans_fit, _read_embeddings

    blocks = _read_embeddings(sf_dir).materialize().to_arrow_refs()
    C = _kmeans_fit(blocks, k, iters)
    if C is None:
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "keep": pa.array([], pa.int8()),
            "dup_of": pa.array([], pa.int64())}))
    ref = ray.put(C)
    tagged = ray.data.from_arrow_refs(
        [_SEMDEDUP_TAG.remote(b, ref, num_partitions) for b in blocks])
    from functools import partial as _p
    return tagged.fx_map_groups(
        _p(_semdedup_part, tau=threshold_pm / 1000.0))



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


def remove_dup_spans(sf_dir: str, gram: int = 32, stride: int = 16,
                     num_partitions: int = 16) -> ray.data.Dataset:
    """The transform half of ``dup_gram_coverage`` (Lee et al. 2021
    ExactSubstr-style): every sampled ``gram``-char span whose text
    occurs at >= 2 sampled positions corpus-wide in >= 2 distinct
    documents is REMOVED except the globally-first occurrence (smallest
    (doc_id, pos)); overlapping removal spans merge before cutting.
    Returns (doc_id, text, n_chars_removed, n_spans_removed) for EVERY
    doc (uncut docs pass through unchanged). Deterministic under any
    partitioning: keeper election happens inside the gram's own hash
    partition, which sees all occurrences.

    Scale shape: same ONE hash(gram) exchange as the coverage op, but
    occurrence rows carry (doc_id, pos) so the partition can elect the
    keeper; removals return keyed by doc and meet the corpus in a
    SECOND co-partitioned union-tag exchange on hash(doc_id) — text
    moves once, spans are tiny. The cut itself is one flat-buffer pass
    (``_cut_spans_flat``): char-start mask, difference-array span
    marks, reduceat re-offsets — no per-row loop anywhere."""
    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def grams_pos(t: pa.Table) -> pa.Table:
        """(part, doc_id, pos, g) for every sampled occurrence — no
        per-doc distinct here: a within-doc repeat is itself removable
        (only the globally-first occurrence survives)."""
        empty = pa.table({"part": pa.array([], pa.int32()),
                          "doc_id": pa.array([], pa.int64()),
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
            sub = pc.utf8_slice_codeunits(
                txt.filter(pa.array(sel)), k, k + gram)
            parts.append(pa.table({
                "doc_id": pa.array(ids[sel]),
                "pos": pa.array(np.full(int(sel.sum()), k, np.int64)),
                "g": sub}))
        if not parts:
            return empty
        u = pa.concat_tables(parts)
        gh = _hash_str_array(u.column("g").combine_chunks())
        return pa.table({
            "part": pa.array((gh % np.uint64(num_partitions))
                             .astype(np.int32)),
            "doc_id": u.column("doc_id"),
            "pos": u.column("pos"),
            "g": u.column("g"),
        })

    def elect(gp: pa.Table) -> pa.Table:
        """Per gram: if >= 2 distinct docs hold it, every occurrence
        except the (doc_id, pos)-minimum becomes a removal row."""
        empty = pa.table({"part": pa.array([], pa.int32()),
                          "doc_id": pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64()),
                          "text": pa.array([], pa.string()),
                          "side": pa.array([], pa.int8())})
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
        k = int(out.sum())
        return pa.table({
            "part": _int_part(ids[out], num_partitions),
            "doc_id": pa.array(ids[out]),
            "pos": pa.array(pos[out]),
            "text": pa.nulls(k, pa.string()),
            "side": pa.array(np.ones(k, np.int8)),
        })

    def doc_side(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _int_part(ids, num_partitions),
            "doc_id": t.column("doc_id"),
            "pos": pa.nulls(t.num_rows, pa.int64()),
            "text": t.column("text"),
            "side": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    def cut(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        docs = g.filter(pa.array(side == 0))
        rem = g.filter(pa.array(side == 1))
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

    removals = (ds.map_batches(grams_pos, batch_format="pyarrow")
                .fx_map_groups(elect))
    return (ds.map_batches(doc_side, batch_format="pyarrow")
            .union(removals)
            .fx_map_groups(cut))


# --------------------------------------------------------------------- #
# incremental MinHash dedup: delta vs a persisted corpus band index
# --------------------------------------------------------------------- #

def _to_bands_fn(k: int, bands: int, shingle: int, num_partitions: int,
                 column: str = "text"):
    """Banding kernel shared by the one-shot LSH dedup, the index
    builder and the delta matcher — identical params MUST produce
    identical buckets or the index is useless. A LIST-typed ``column``
    (e.g. the lake's ``tokens``) shingles over token ids."""

    def to_bands(t: pa.Table) -> pa.Table:
        sig = minhash_sigs(t, text_col=column, k=k, shingle=shingle)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        out = _band_rows(ids, sig, bands)
        bp = (out.column("bucket").to_numpy(zero_copy_only=False)
              .view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return out.append_column("bpart", pa.array(bp))
    return to_bands


def build_minhash_index(docs: "str | ray.data.Dataset", index_root: str,
                        *, k: int = 64, bands: int = 16, shingle: int = 3,
                        num_partitions: int = 16,
                        column: str = "text") -> int:
    """Build (or APPEND to) a persisted MinHash band index: (bucket,
    doc_id, sig) rows hive-partitioned by ``bpart = bucket % P`` under
    ``index_root`` — the corpus side of incremental near-dup detection.
    A CDC lake's dedup stage calls this once over the existing corpus,
    then appends each committed wave's docs; matching a delta then
    touches only the band partitions the delta's buckets hash to (the
    same partition-pruned-index pattern as functions/ann.py IVF).
    Append-safe: files are uuid-named, re-appending the same docs is
    idempotent for MATCHING (duplicate index rows produce the same
    pairs). Returns the number of band rows written."""
    ds = (read_documents(docs, columns=["doc_id", column])
          if isinstance(docs, str) else docs)
    banded = ds.map_batches(_to_bands_fn(k, bands, shingle,
                                         num_partitions, column),
                            batch_format="pyarrow")
    banded.write_parquet(index_root, partition_cols=["bpart"])
    # rows written THIS call = docs x bands (_band_rows emits exactly one
    # row per (doc, band)) — never walk the index root: an online step's
    # cost must track the delta, not the lifetime of the index
    return int(ds.count()) * bands


def match_minhash_index(new_docs: "str | ray.data.Dataset",
                        index_root: str, *, k: int = 64, bands: int = 16,
                        shingle: int = 3, num_partitions: int = 16,
                        min_est_pct: int = 50,
                        max_matches: int | None = None,
                        column: str = "text",
                        fold_best: bool = True) -> ray.data.Dataset:
    """Match NEW documents against a persisted band index: per new doc
    the best near-duplicate already in the corpus (max estimated
    Jaccard, ties to the smallest corpus doc_id). Returns (doc_id,
    dup_of, est_jaccard_pct) — one row per new doc that has a match
    ≥ ``min_est_pct``; clean docs emit nothing.

    Scale shape: the delta is banded and exchanged ONCE on bpart; each
    partition task reads ONLY its own ``bpart=N`` index directory
    (partition-pruned: a small delta touches few partitions), pairs
    new-vs-index rows bucket-locally via two searchsorteds (never
    index-vs-index, never new-vs-new), caps per-row candidates at
    ``max_matches`` (deterministic smallest-doc_id prefix — the
    canonical keeper always survives), and folds the per-doc argmax
    with one lexsort. The index is never loaded whole anywhere."""
    cap = max_matches or MAX_BUCKET

    def match(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], t.column("doc_id").type),
                          "dup_of": pa.array([], t.column("doc_id").type),
                          "est_jaccard_pct": pa.array([], pa.int64())})
        bp = int(t.column("bpart")[0].as_py())
        pdir = os.path.join(index_root, f"bpart={bp}")
        if not os.path.isdir(pdir):
            return empty
        import pyarrow.parquet as pq
        idx = pa.concat_tables([
            pq.read_table(os.path.join(pdir, f),
                          columns=["bucket", "doc_id", "sig"])
            for f in sorted(os.listdir(pdir)) if f.endswith(".parquet")])
        if idx.num_rows == 0 or t.num_rows == 0:
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
        d, o, e = d[order], o[order], e[order]
        first = np.concatenate([[True], d[1:] != d[:-1]]) \
            if len(d) else np.zeros(0, bool)
        return pa.table({"doc_id": pa.array(d[first]),
                         "dup_of": pa.array(o[first]),
                         "est_jaccard_pct": pa.array(e[first])})

    def tag_doc(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.append_column("part", _int_part(d, num_partitions))

    ds = (read_documents(new_docs, columns=["doc_id", column])
          if isinstance(new_docs, str) else new_docs)
    banded = ds.map_batches(_to_bands_fn(k, bands, shingle,
                                         num_partitions, column),
                            batch_format="pyarrow")
    if isinstance(new_docs, str):
        id_type = pa.int64()            # the documents table's doc_id
    else:
        sch = new_docs.schema()
        id_type = (sch.base_schema.field("doc_id").type
                   if sch is not None else pa.string())
    empty = pa.table({"doc_id": pa.array([], id_type),
                      "dup_of": pa.array([], id_type),
                      "est_jaccard_pct": pa.array([], pa.int64())})
    from ..stages.exchange import file_exchange_map_groups
    pairs = file_exchange_map_groups(banded, match, part_col="bpart",
                                     empty_result=empty)
    if not fold_best:
        # raw candidate pairs (band-duplicates included) — callers that
        # filter pairs (e.g. the online keeper rule) fold afterwards
        return pairs
    return (pairs.map_batches(tag_doc, batch_format="pyarrow")
            .fx_map_groups(best_per_doc, empty_result=empty))


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

    docs = read_documents(sf_dir, columns=["doc_id", "text"])
    if not os.path.isdir(root):
        scratch = root + f".build-{os.getpid()}"
        build_minhash_index(
            docs.map_batches(corpus_side, batch_format="pyarrow"),
            scratch, k=k, bands=bands, shingle=shingle,
            num_partitions=num_partitions)
        try:
            os.replace(scratch, root)
        except OSError:
            import shutil
            shutil.rmtree(scratch, ignore_errors=True)
    return match_minhash_index(
        docs.map_batches(delta_side, batch_format="pyarrow"), root,
        k=k, bands=bands, shingle=shingle, min_est_pct=min_est_pct,
        num_partitions=num_partitions)


def dup_cluster_sizes(sf_dir: str, shingle: int = 3,
                      min_jaccard_pct: int = 80,
                      num_partitions: int = 16) -> pa.Table:
    """Duplication REPORT: the near-dup cluster-size distribution
    (size, n_clusters) — how much of the corpus duplication is pairs
    vs deep pile-ups, the number a curation run publishes next to its
    attrition table. Built on :func:`duplicate_clusters`; the fold is
    over cluster labels only (bounded by the pair graph, a small
    fraction of the corpus by construction)."""
    cc = duplicate_clusters(sf_dir, shingle, min_jaccard_pct,
                            num_partitions)
    sizes = cc.groupby("cluster_id").count()
    df = sizes.to_pandas()                 # bounded: #clusters rows
    g = (df.groupby("count()").size().reset_index(name="n_clusters")
         .rename(columns={"count()": "size"}).sort_values("size"))
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
    from .text import read_documents

    lo = f"{(90 << 128) // 100:032x}"
    hi = f"{(95 << 128) // 100:032x}"

    def val_grams(t: pa.Table) -> pa.Table:
        fp = _md5_hex(f"{salt}|", t.column("doc_id"))
        sub = t.filter(pa.array((fp >= lo) & (fp < hi)))
        h = (np.unique(_shingle_hashes(sub, "text", shingle)[0])
             if sub.num_rows else np.array([], np.uint64))
        return pa.table({"h": pa.array(h.view(np.int64))})

    parts = collect_tables(
        read_documents(sf_dir, columns=["doc_id", "text"])
        .map_batches(val_grams, batch_format="pyarrow"))
    # sort in UNSIGNED space: int64 is only the Arrow transport type —
    # a signed-sorted array breaks count_blocklist_hits' searchsorted
    bl = np.unique(np.concatenate(
        [t.column("h").to_numpy(zero_copy_only=False).view(np.uint64)
         for t in parts if t.num_rows]
        or [np.array([], np.uint64)]))

    def score(t: pa.Table) -> pa.Table:
        fp = _md5_hex(f"{salt}|", t.column("doc_id"))
        sub = t.filter(pa.array(fp < lo))            # train side only
        hits = count_blocklist_hits(sub, bl, shingle)
        keep = pa.array(hits > 0)
        return pa.table({
            "doc_id": sub.column("doc_id").filter(keep),
            "n_hits": pa.array(hits[hits > 0]),
        })

    return (read_documents(sf_dir, columns=["doc_id", "text"])
            .map_batches(score, batch_format="pyarrow"))


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
