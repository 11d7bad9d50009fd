"""Deterministic sampling operators for training-data curation:
per-source stratified sampling and mixture rebalancing.

Sampling is keyed-hash thresholding on ``doc_id`` (pandas siphash —
stable across processes, nodes and runs): a doc is IN a sample iff
``hash(doc_id, seed) / 2^64 < frac``. This makes samples reproducible,
cheaply recomputable on any worker (pure filter, no shuffle, no state),
and NESTED: the 1%% sample is a subset of the 10%% sample — the property
scaling-law runs rely on.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .text import _docs, _per_doc

from ..stages import exchange


def _accept(ids: np.ndarray, frac: float, seed: int) -> np.ndarray:
    h = pd.util.hash_array(ids + np.int64(seed), categorize=False)
    return h.astype(np.float64) < float(frac) * float(2**64)


def stratified_sample(sf_dir: str,
                      fracs: "dict[str, float] | None" = None,
                      default_frac: float = 0.5,
                      seed: int = 91) -> ray.data.Dataset:
    """Per-source sampling rates: keep each doc with its source's
    fraction (sources absent from ``fracs`` use ``default_frac``).
    Pure per-block filter: one raw task per documents unit."""
    fracs = fracs or {}

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        src = t.column("source").to_numpy(zero_copy_only=False)
        keep = np.zeros(t.num_rows, dtype=bool)
        for s in np.unique(src):
            m = src == s
            keep[m] = _accept(ids[m], fracs.get(s, default_frac), seed)
        return t.filter(pa.array(keep))

    return _per_doc(sf_dir, None, pick)


def mixture_resample(sf_dir: str,
                     weights: "dict[str, float]",
                     seed: int = 91) -> ray.data.Dataset:
    """Downsample sources toward a TARGET MIXTURE: given desired
    relative weights per source, compute per-source acceptance
    fractions (≤1 — downsampling only, the largest-feasible mixture)
    from the actual counts, then stratified-sample. Two passes: a tiny
    keyed count, then the streaming filter — the classic
    mixture-rebalancing step before tokenizer/packing."""
    counts = {s: n for t in ray.get(exchange.fx_count_by(
                  exchange.leaf(f"{sf_dir}/documents.parquet", ["source"]),
                  ["source"], "n").refs)
              for s, n in zip(t.column("source").to_pylist(),
                              t.column("n").to_pylist())}
    missing = set(weights) - set(counts)
    if missing:
        raise ValueError(f"weights name unknown sources: {sorted(missing)}")
    # scale so the most-constrained source keeps 100% of its docs
    scale = min(counts[s] / w for s, w in weights.items() if w > 0)
    fracs = {s: min(1.0, (w * scale) / counts[s])
             for s, w in weights.items()}
    # sources without a weight are dropped
    for s in counts:
        fracs.setdefault(s, 0.0)
    return stratified_sample(sf_dir, fracs, default_frac=0.0, seed=seed)


# --------------------------------------------------------------------- #
# sharded training export
# --------------------------------------------------------------------- #
def write_shards(src: "exchange.Leaf | list", out_dir: str,
                 n_shards: int, seed: int,
                 marker_payload: dict, key_col: str = "doc_id") -> dict:
    """Shared sharded-writer contract: one ``map_blocks`` pass over a
    leaf or block refs whose tasks tag each row's keyed-hash shard and
    write ``shard=<k>/`` parquet files (``exchange.write_parts``); the
    atomic ``_EXPORTED`` marker, carrying the writers' row count, is
    written only after every file lands. A present marker whose payload
    matches short-circuits; a half-written attempt (no marker) is
    cleared and rewritten idempotently. Used by
    ``export_training_shards`` and the curation pipeline."""
    import json
    import os
    import shutil

    marker = os.path.join(out_dir, "_EXPORTED")
    if os.path.exists(marker):
        with open(marker) as f:
            st = json.load(f)
        if st.get("src") == marker_payload:
            return {**st, "skipped": 1}
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        ids = t.column(key_col).to_numpy(zero_copy_only=False)
        if np.issubdtype(ids.dtype, np.integer):
            h = pd.util.hash_array(ids + np.int64(seed),
                                   categorize=False)
        else:                       # string keys (e.g. pack_id)
            h = pd.util.hash_array(np.asarray(ids, dtype=object),
                                   categorize=False) ^ np.uint64(seed)
        return exchange.write_parts(t.append_column(
            "shard", pa.array((h % np.uint64(n_shards)).astype(np.int32))),
            out_dir, "shard")

    n = sum(t.column("n")[0].as_py()
            for t in ray.get(exchange.map_blocks(src, write)))
    st = {"docs": int(n), "shards": int(n_shards), "src": marker_payload}
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(st, f)
    os.replace(tmp, marker)
    return {**st, "skipped": 0}


def export_training_shards(sf_dir: str, out_dir: str, n_shards: int = 16,
                           seed: int = 17,
                           columns: "list[str] | None" = None
                           ) -> dict[str, int]:
    """Write the corpus as ``n_shards`` hive-partitioned parquet shard
    directories (``shard=<k>/``) under ``out_dir`` — the training-export
    step: shard membership is a keyed hash of (doc_id, seed), so the
    global order is decorrelated from ingest order (inter-shard
    randomization; trainers shuffle within a shard via their own buffer)
    while remaining DETERMINISTIC across runs, nodes and cluster sizes.

    One raw-task pass over the documents leaf: each task tags its rows'
    shards and writes them — no driver materialization, no all-to-all
    (hive partitioning splits at the writer). RESUMABLE contract: the
    export publishes an ``_EXPORTED`` marker (write-then-rename) only
    after every file lands; a rerun with the marker present is a no-op,
    a crashed half-export has no marker and is rewritten into the same
    directory idempotently (deterministic content). Returns
    {"docs": N, "shards": n_shards, "skipped": 0|1}.

    Scale note: the hive writer emits one file per (input unit, shard),
    so keep ``n_shards`` modest (≤ ~1k) or repartition first — B×S tiny
    files is the failure mode at extreme shard counts."""
    import os

    src = os.path.join(sf_dir, "documents.parquet")
    stat = os.stat(src)
    cols = columns or ["doc_id", "text", "source"]
    # the marker payload fingerprints the SOURCE + export params; a
    # regenerated corpus or changed config invalidates it instead of
    # silently serving stale shards
    fp = {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns,
          "n_shards": int(n_shards), "seed": int(seed),
          "columns": sorted(cols)}
    return write_shards(_docs(sf_dir, cols), out_dir, n_shards, seed, fp)


def _grouped_topk_idx(src: np.ndarray, key: np.ndarray, ids: np.ndarray,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of each group's top-``k`` by ``key`` desc (ties by
    ``ids`` asc) plus each kept row's 0-based within-group position —
    the one grouped-top-k kernel weighted_sample's block combiner and
    driver fold both use (a drifting copy would desynchronize them)."""
    order = np.lexsort((ids, -key, src))
    src_s = src[order]
    new = np.ones(len(src_s), bool)
    new[1:] = src_s[1:] != src_s[:-1]
    pos = np.arange(len(src_s)) - np.maximum.accumulate(
        np.where(new, np.arange(len(src_s)), 0))
    keep = pos < k
    return order[keep], pos[keep]


def weighted_sample(sf_dir: str, k: int = 20, seed: int = 7,
                    weight_col: str = "n_chars") -> "ray.data.Dataset":
    """WEIGHTED sampling without replacement, ``k`` docs per source
    (Efraimidis–Spirakis A-ES): each doc draws a deterministic uniform
    ``u`` from its keyed hash and ranks by ``u^(1/w)`` — the classic
    one-pass weighted reservoir, so inclusion probability scales with
    the weight column (quality-weighted corpus subsampling). Returns
    (source, doc_id, weight, rank).

    Scale shape: the A-ES key is row-local, so each block keeps only
    its local top-k per source (bounded combiner) and the driver folds
    k·sources·blocks candidate rows — no shuffle, no sort of the
    corpus, deterministic for a fixed seed (u is a keyed hash of
    (doc_id, seed), not an RNG stream, so the sample is reproducible
    under any partitioning). Comparisons happen in log space
    (log(u)/w) for numerical stability at large weights."""
    import pandas as pd

    def keys_of(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(ids.copy(), categorize=False)
        # splitmix-style seed mix: hash_array's hash_key only applies
        # to object dtypes, so fold the seed in explicitly (pure numpy,
        # deterministic across processes/nodes)
        h = (h ^ np.uint64(seed * 0x9E3779B97F4A7C15 % 2**64))
        h = (h * np.uint64(0xBF58476D1CE4E5B9)) ^ (h >> np.uint64(31))
        u = (h.astype(np.float64) + 1.0) / 2.0 ** 64   # u in (0, 1]
        w = np.maximum(t.column(weight_col).to_numpy(
            zero_copy_only=False).astype(np.float64), 1e-12)
        return np.log(u) / w, w          # maximize log(u)/w

    def local_topk(t: pa.Table) -> pa.Table:
        key, w = keys_of(t)
        src = t.column("source").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        kept, _ = _grouped_topk_idx(src, key, ids, k)
        sel = pa.array(kept)
        return pa.table({
            "source": t.column("source").take(sel),
            "doc_id": t.column("doc_id").take(sel),
            "weight": pa.array(w[kept]),
            "key": pa.array(key[kept]),
        })

    tables = [t for t in ray.get(exchange.map_blocks(
        _docs(sf_dir, ["doc_id", "source", weight_col]), local_topk))
        if t.num_rows]
    empty = pa.table({"source": pa.array([], pa.string()),
                      "doc_id": pa.array([], pa.int64()),
                      "weight": pa.array([], pa.float64()),
                      "key": pa.array([], pa.float64())})
    t = pa.concat_tables(tables) if tables else empty
    src = t.column("source").to_numpy(zero_copy_only=False)
    key = t.column("key").to_numpy(zero_copy_only=False)
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    kept, pos = _grouped_topk_idx(src, key, ids, k)
    sel = pa.array(kept)
    return ray.data.from_arrow(pa.table({
        "source": t.column("source").take(sel),
        "doc_id": t.column("doc_id").take(sel),
        "weight": t.column("weight").take(sel),
        "rank": pa.array((pos + 1).astype(np.int64)),
    }))


def epoch_shuffle(sf_dir: str, seed: int = 0,
                  num_partitions: int = 32) -> ray.data.Dataset:
    """DETERMINISTIC epoch shuffle for training: a reproducible global
    permutation of the documents, keyed by ``hash(doc_id + seed)`` —
    epoch N's order is ``epoch_shuffle(sf_dir, seed=N)``, identical on
    every rerun/resume (a crashed training job re-derives the exact
    epoch order from the seed alone, no shuffle state to checkpoint).

    Scale shape: ONE keyed exchange — each row is tagged with a RANGE
    partition of its shuffle hash's high bits (range, not modulo: the
    global order equals the skey sort, so the epoch order is invariant
    to ``num_partitions`` — resuming on a differently-sized cluster
    reproduces the identical order), the exchange co-locates each
    range, and one in-partition argsort finishes the permutation. No
    global sort, no driver materialization; rows with colliding hashes
    tie-break by doc_id so the order is total."""
    from .text import hash_str_array

    def tag(t: pa.Table) -> pa.Table:
        col = t.column("doc_id")
        if pa.types.is_integer(col.type):
            # fast path: direct numeric siphash (the module's _accept
            # convention) — no object-array stringify on the hot path
            h = pd.util.hash_array(
                col.to_numpy(zero_copy_only=False).astype(np.int64),
                categorize=False)
        else:
            h = hash_str_array(col)
        h = (h + np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
        part = ((h >> np.uint64(48)).astype(np.uint64)
                * np.uint64(num_partitions)) >> np.uint64(16)
        return (t.append_column("skey", pa.array(h))   # uint64: the
                # in-partition sort must order the same way the
                # high-bits range tag does
                .append_column("part", pa.array(part.astype(np.int32))))

    def order_partition(g: pa.Table) -> pa.Table:
        key = g.column("skey").to_numpy(zero_copy_only=False)
        did = g.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, key))
        return g.take(pa.array(order)).drop_columns(["skey", "part"])

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        _docs(sf_dir, None), order_partition, pre=tag).refs)


# --------------------------------------------------------------------- #
def _md5_hex(prefix: str, ids: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """md5 hex of ``f"{prefix}{id}"`` per row, as a U32 numpy array.
    No Arrow md5 kernel exists (same note as text.fingerprint_batch),
    so this is a Python loop of ~1 µs a row over ~10-byte id strings:
    the cost is per row, not text-proportional, but it is the largest
    per-row cost left in the library, so a caller that needs a row's
    digest in two places carries the result as a column
    (``temporal.late_events``' ``ak``) rather than hashing twice. md5
    is the one hash DuckDB shares, which is what makes these sampling
    decisions ORACLE-CHECKABLE end to end."""
    import hashlib

    return np.array([hashlib.md5(f"{prefix}{i}".encode()).hexdigest()
                     for i in ids.to_pylist()], dtype="U32")


def train_val_split(sf_dir: str,
                    ratios: "tuple[tuple[str, int], ...]" = (
                        ("train", 90), ("val", 5), ("test", 5)),
                    salt: str = "split1") -> ray.data.Dataset:
    """Deterministic train/val/test assignment: each doc's bucket is
    md5(salt '|' doc_id) compared against cumulative-ratio thresholds
    in HEX-STRING space — md5 hex is a uniform 128-bit number and
    lexicographic order on fixed-width hex equals numeric order, so
    both engines compare the same string constants and no hex->int
    cast exists anywhere (DuckDB twin: a CASE over md5(...) < '<thr>').

    The assignment is pure per-row math: reproducible on any worker,
    stable under reshuffling/repartitioning, and independent of every
    other row — a doc keeps its split when the corpus grows, which is
    the property eval-set hygiene depends on. One raw task per documents
    unit, zero exchanges. Returns (doc_id, source, split).
    """
    if sum(p for _, p in ratios) != 100:
        raise ValueError("ratios must sum to 100")
    names, bounds, cum = [], [], 0
    for name, pct in ratios[:-1]:
        cum += pct
        names.append(name)
        bounds.append(f"{(cum << 128) // 100:032x}")
    last = ratios[-1][0]

    def assign(t: pa.Table) -> pa.Table:
        fp = _md5_hex(f"{salt}|", t.column("doc_id"))
        split = np.full(len(fp), last, dtype=object)
        unassigned = np.ones(len(fp), dtype=bool)
        for name, thr in zip(names, bounds):
            take = unassigned & (fp < thr)
            split[take] = name
            unassigned &= ~take
        return pa.table({"doc_id": t.column("doc_id"),
                         "source": t.column("source"),
                         "split": pa.array(split, pa.string())})

    return _per_doc(sf_dir, ["doc_id", "source"], assign)


def token_budget_sample(sf_dir: str, budget: int = 800,
                        salt: str = "budget") -> ray.data.Dataset:
    """Per-source token-budget sampling: greedily keep docs in
    md5(salt '|' doc_id) order (a deterministic, corpus-size-invariant
    shuffle) until each source's cumulative whitespace-token count
    reaches ``budget`` — the standard mixture-building primitive when
    a data recipe says "at most N tokens from source X".

    Scale shape: one pass computes (n_tok, order-key) per row, ONE
    exchange keyed on source co-locates each source (the
    partitioning assumption: a single source's rows fit one partition
    task, the same contract as top_docs_per_source), and a segmented
    cumsum takes the prefix. Returns (doc_id, source, n_tok, cum_tok)
    for the kept docs; ``cum_tok`` is the running total the budget was
    tested against, so downstream can audit the cut."""
    import pyarrow.compute as pc

    def prep(t: pa.Table) -> pa.Table:
        n_tok = pc.count_substring_regex(
            t.column("text"), r"\S+").cast(pa.int64())
        return pa.table({"doc_id": t.column("doc_id"),
                         "source": t.column("source"),
                         "n_tok": n_tok,
                         "ord": pa.array(
                             _md5_hex(f"{salt}|", t.column("doc_id")))})

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "source": pa.array([], pa.string()),
                      "n_tok": pa.array([], pa.int64()),
                      "cum_tok": pa.array([], pa.int64())})

    def take_prefix(g: pa.Table) -> pa.Table:
        src = g.column("source").to_numpy(zero_copy_only=False)
        okey = g.column("ord").to_numpy(zero_copy_only=False)
        did = g.column("doc_id").to_numpy(zero_copy_only=False)
        tok = g.column("n_tok").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, okey, src))
        src, did, tok = src[order], did[order], tok[order]
        # segmented cumsum: subtract each source segment's prefix base
        starts = np.flatnonzero(
            np.concatenate([[True], src[1:] != src[:-1]]))
        cum = np.cumsum(tok)
        base = np.concatenate([[0], cum[starts[1:] - 1]]) if \
            len(starts) > 1 else np.zeros(1, np.int64)
        seg = np.repeat(base, np.diff(np.append(starts, len(src))))
        cum = cum - seg
        keep = cum <= budget
        return pa.table({"doc_id": pa.array(did[keep]),
                         "source": pa.array(src[keep]),
                         "n_tok": pa.array(tok[keep]),
                         "cum_tok": pa.array(cum[keep])})

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        _docs(sf_dir, ["doc_id", "source", "text"]), take_prefix,
        keys=["source"], empty_result=empty, pre=prep).refs)


def stratified_topk_sample(sf_dir: str, k: int = 5,
                           salt: str = "strat1") -> ray.data.Dataset:
    """EXACT-k stratified sample: the k documents per source that rank
    first in md5(salt '|' doc_id) order — the deterministic,
    oracle-checkable twin of the fraction-based ``stratified_sample``
    (exact quota per group, reproducible across runs/partitionings,
    and DuckDB replays the identical per-row decisions because md5 is
    the one hash both engines share). Ties are impossible (md5 of
    distinct ids), ordering is (fp, doc_id) for determinism anyway.
    Returns (doc_id, source, rk).

    Scale shape: same bounded local-top-k fold as top_docs_per_source —
    per-block top-k per source (one lexsort), then a per-source final
    top-k; candidate volume is ≤ k x sources x blocks rows, never the
    corpus."""

    def local_topk(t: pa.Table) -> pa.Table:
        src = t.column("source").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        fp = _md5_hex(f"{salt}|", t.column("doc_id"))
        order = np.lexsort((did, fp, src))
        s = src[order]
        idx = np.arange(len(s))
        seg_start = np.ones(len(s), bool)
        seg_start[1:] = s[1:] != s[:-1]
        run_begin = np.maximum.accumulate(np.where(seg_start, idx, 0))
        keep = (idx - run_begin) < k
        sel = pa.array(order[keep])
        return pa.table({"source": t.column("source").take(sel),
                         "doc_id": t.column("doc_id").take(sel),
                         "fp": pa.array(fp[order[keep]])})

    def final_topk(t: pa.Table) -> pa.Table:
        fp = t.column("fp").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, fp))[:k]
        sel = pa.array(order)
        return pa.table({
            "doc_id": t.column("doc_id").take(sel),
            "source": t.column("source").take(sel),
            "rk": pa.array(np.arange(1, len(order) + 1,
                                     dtype=np.int64)),
        })

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/documents.parquet", ["doc_id", "source"]),
        exchange.each_group(final_topk, ["source"]), keys=["source"],
        pre=local_topk).refs)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "epoch_shuffle",
    "mixture_resample",
    "stratified_sample",
    "stratified_topk_sample",
    "token_budget_sample",
    "train_val_split",
    "weighted_sample",
    "export_training_shards",
))
