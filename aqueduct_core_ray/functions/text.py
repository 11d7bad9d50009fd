"""Text-analysis stages for a training-data pipeline over the
``documents`` table: token counting, quality scoring, fingerprinting and
language ID. All per-batch functions are vectorized Arrow kernels except
md5 (no Arrow kernel exists; it runs as a tight Python loop over one
column — documented hot-spot, ~1 µs/row, dominated by hashing itself).

These have no reference analog (aqueduct-core moves opaque payloads); they
are the §"beyond the reference" training-data operators.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

# importing the exchange registers ray.data.Dataset.fx_map_groups (file
# exchange — skips Ray's ~3 s sort-shuffle floor per co-partitioned
# exchange); hash_str_array is re-exported for the dedup family
from ..stages.exchange import (collect_tables, dict_encode,  # noqa: F401
                               hash_str_array)


def read_documents(sf_dir: str, columns: list[str] | None = None
                   ) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=columns)


# --------------------------------------------------------------------- #
def token_count_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """n_tok = number of whitespace-separated tokens (regex \\S+ matches)."""
    n = pc.count_substring_regex(t.column(text_col), r"\S+").cast(pa.int64())
    return pa.table({"doc_id": t.column("doc_id"), "n_tok": n})


def token_count(sf_dir: str) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(token_count_batch, batch_format="pyarrow")


# GPT-2-flavor pretokenizer, RE2-compatible: contractions, letter runs,
# digit runs, punctuation runs — each optionally preceded by ONE space.
# Deliberate deviation from the original GPT-2 pattern: the whitespace
# arms (`\s+(?!\S)` needs lookahead RE2 lacks; residual `\s+`) are
# DROPPED, so this counts the NON-WHITESPACE tokens of the
# pretokenization — GPT-2 itself would additionally emit one
# whitespace token per run of 2+ spaces (code / indented text), which
# this metric intentionally excludes. For single-space-separated prose
# the counts coincide exactly. Arrow's count_substring_regex and
# DuckDB's regexp_extract_all both execute RE2 with leftmost-first
# alternation, so the SQL oracle reproduces counts bit-exactly.
BPE_PATTERN = (r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+"
               r"| ?[^\sA-Za-z0-9]+")


def bpe_token_count_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace vs BPE-ish token counts per doc: ``n_tok_ws`` (\\S+
    runs) and ``n_tok_bpe`` (GPT-2-flavor pretokenizer matches). One
    RE2 pass per pattern over the whole batch, no Python row loop."""
    txt = t.column(text_col)
    ws = pc.count_substring_regex(txt, r"\S+").cast(pa.int64())
    bpe = pc.count_substring_regex(txt, BPE_PATTERN).cast(pa.int64())
    return pa.table({"doc_id": t.column("doc_id"),
                     "n_tok_ws": ws, "n_tok_bpe": bpe})


def bpe_token_count(sf_dir: str) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(bpe_token_count_batch, batch_format="pyarrow")


# --------------------------------------------------------------------- #
def quality_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Integer-valued quality metrics (floats avoided so results are
    bit-stable against a SQL oracle):

      n_chars  — unicode length
      n_bytes  — utf-8 byte length
      n_words  — whitespace token count
      n_alpha  — count of [A-Za-z] characters
      is_quality — 1 iff n_words >= 5 AND 2*n_alpha >= n_chars
                   (alpha fraction >= 0.5 without float division)
    """
    txt = t.column(text_col)
    n_chars = pc.utf8_length(txt).cast(pa.int64())
    n_bytes = pc.binary_length(txt.cast(pa.binary())).cast(pa.int64())
    n_words = pc.count_substring_regex(txt, r"\S+").cast(pa.int64())
    n_alpha = pc.count_substring_regex(txt, "[A-Za-z]").cast(pa.int64())
    ok = pc.and_(pc.greater_equal(n_words, 5),
                 pc.greater_equal(pc.multiply(n_alpha, 2), n_chars))
    return pa.table({
        "doc_id": t.column("doc_id"),
        "n_chars": n_chars, "n_bytes": n_bytes, "n_words": n_words,
        "n_alpha": n_alpha,
        "is_quality": ok.cast(pa.int64()),
    })


def quality_score(sf_dir: str) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow")


# --------------------------------------------------------------------- #
def fingerprint_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Content fingerprint: md5 hex of the utf-8 text (matches SQL md5())."""
    fps = [hashlib.md5(s.encode("utf-8")).hexdigest()
           for s in t.column(text_col).to_pylist()]
    return pa.table({"doc_id": t.column("doc_id"), "fp": pa.array(fps)})


def fingerprint(sf_dir: str) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


# --------------------------------------------------------------------- #
def top_tokens_by_source(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Per-source top-``k`` most frequent whitespace tokens (vocabulary
    heavy hitters — the corpus-stats staple). Ties break by token asc.

    Scale shape: per-block (source, token) partial counts (Arrow
    group_by combiner — the shuffle moves distinct pairs, never words),
    native distributed sum, then a top-k per source over a BOUNDED
    group count (#sources)."""

    def pair_counts(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        src = t.column("source").to_numpy(zero_copy_only=False)
        g = pa.table({
            "source": pa.array(np.repeat(src, counts)),
            "token": words.flatten(),
        })
        agg = g.group_by(["source", "token"]).aggregate([("token", "count")])
        return pa.table({          # by-name: aggregate column order is
            "source": agg.column("source"),       # version-dependent
            "token": agg.column("token"),
            "cnt": agg.column("token_count"),
        })

    def topk(t: pa.Table) -> pa.Table:
        cnt = t.column("sum(cnt)").to_numpy(zero_copy_only=False)
        tok = t.column("token").to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -cnt))[:k]
        n = len(order)
        return pa.table({
            "source": t.column("source").take(pa.array(order)),
            "token": t.column("token").take(pa.array(order)),
            "cnt": pa.array(cnt[order].astype(np.int64)),
            "rk": pa.array(np.arange(1, n + 1, dtype=np.int64)),
        })

    ds = read_documents(sf_dir, columns=["source", "text"])
    partial = ds.map_batches(pair_counts, batch_format="pyarrow")
    total = partial.groupby(["source", "token"]).sum("cnt")
    return total.groupby("source").map_groups(topk, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# Language ID — marker-stopword n-gram heuristic (rows-only check: the
# heuristic is not SQL-expressible). Stateful marker compilation happens
# once per actor in __init__ (actor-pool stage pattern).
# --------------------------------------------------------------------- #
_MARKERS: dict[str, str] = {
    "en": r"\b(the|and|of|to|in|is|that|for|with|was|are)\b",
    "de": r"\b(der|die|das|und|ist|nicht|mit|ein|eine|den|von)\b",
    "fr": r"\b(le|la|les|et|est|une|des|que|pour|dans|avec)\b",
    "es": r"\b(el|los|las|es|una|que|por|para|con|del|como)\b",
    "zh": r"[一-鿿]",
}


class LangId:
    """Actor-pool stage: scores each marker set per batch (one vectorized
    regex-count kernel per language), argmax wins, ties -> 'und'."""

    def __init__(self, markers: dict[str, str] | None = None):
        self.markers = markers or _MARKERS
        self.langs = sorted(self.markers)

    def __call__(self, t: pa.Table, text_col: str = "text") -> pa.Table:
        txt = t.column(text_col)
        scores = np.stack([
            pc.count_substring_regex(txt, self.markers[lang])
            .to_numpy(zero_copy_only=False).astype(np.int64)
            for lang in self.langs
        ])  # (L, n)
        best = np.argmax(scores, axis=0)
        hit = scores.max(axis=0) > 0
        pred = np.where(hit, np.array(self.langs, dtype=object)[best], "und")
        return pa.table({"doc_id": t.column("doc_id"),
                         "lang_pred": pa.array(pred.astype(object))})


def actor_pool_size(reserve: int = 2, cap: int | None = None
                    ) -> tuple[int, int]:
    """Default actor-pool concurrency: an AUTOSCALING (min, max) pool
    sized to the cluster instead of a hardcoded constant (round-1:
    `concurrency=2` flooded 2 actors at num_cpus=32; a FIXED cluster-
    sized pool overpaid ~2 s of actor startup on small inputs — the
    autoscaler spawns actors only while batches queue). Leaves
    ``reserve`` CPUs for the driver/IO stages."""
    import ray
    cpus = int(ray.cluster_resources().get("CPU", 4)) \
        if ray.is_initialized() else 4
    n = max(2, cpus - reserve)
    return (2, min(n, cap) if cap else n)


def lang_id(sf_dir: str,
            concurrency: "int | tuple[int, int] | None" = None
            ) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pyarrow",
                          concurrency=concurrency or actor_pool_size(),
                          max_restarts=0)   # ray#53727 warning (see
                                            # multimodal.frame_sample)


# --------------------------------------------------------------------- #
# PII redaction — core training-corpus scrubbing. RE2 patterns (Arrow's
# and DuckDB's regex engine are both RE2, so the SQL oracle replays the
# identical semantics). Applied IN ORDER: each pattern is counted on the
# text as redacted by the previous ones, then replaced — ordering is
# part of the contract (an email must not be half-eaten by the phone
# pattern).
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone",
     r"\+?\d{1,3}[-. ]?\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{2,4}\b",
     "<PHONE>"),
)


def redact_pii_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """(doc_id, text, n_email, n_ip, n_phone): text with PII replaced by
    typed placeholders + per-kind match counts. Fully vectorized Arrow
    RE2 kernels — no per-row Python."""
    txt = t.column(text_col)
    cols: dict = {"doc_id": t.column("doc_id")}
    counts = {}
    for name, pat, repl in PII_PATTERNS:
        counts[f"n_{name}"] = pc.count_substring_regex(txt, pat).cast(
            pa.int64())
        txt = pc.replace_substring_regex(txt, pat, repl)
    cols["text"] = txt
    cols.update(counts)
    return pa.table(cols)


def redact_pii(sf_dir: str) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(redact_pii_batch, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# within-document repetition metrics (Gopher-style quality signals)
# --------------------------------------------------------------------- #
def repetition_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Integer repetition metrics per doc (all ratios floor-percent, so
    the DuckDB oracle reproduces them bit-exactly):

    - ``n_words``: whitespace token count
    - ``dup_word_pct``: 100·(n_words − n_distinct_words) // n_words
    - ``top_bigram_pct``: 100·(count of the most frequent word 2-gram)
      // (total 2-grams); 0 for docs with < 2 words

    One hash pass + two lexsorts per batch — no Python row loop. Word
    identity via the same keyed siphash the dedup family uses (string
    equality <=> hash equality at ~1e-11 collision odds)."""
    txt = pc.utf8_trim_whitespace(t.column(text_col))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    h = hash_str_array(words.flatten())
    counts = pc.list_value_length(words).to_numpy(
        zero_copy_only=False).astype(np.int64)
    n = t.num_rows
    docidx = np.repeat(np.arange(n), counts)

    # distinct words per doc
    order = np.lexsort((h, docidx))
    hs, ds_ = h[order], docidx[order]
    first = np.ones(len(hs), bool)
    first[1:] = (ds_[1:] != ds_[:-1]) | (hs[1:] != hs[:-1])
    n_distinct = np.bincount(ds_[first], minlength=n)
    dup_pct = (100 * (counts - n_distinct)) // np.maximum(counts, 1)

    # most frequent 2-gram per doc
    P1, P2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9)
    top_pct = np.zeros(n, np.int64)
    if len(h) >= 2:
        bg = (h[:-1] * P1) ^ (h[1:] * P2)
        valid = docidx[:-1] == docidx[1:]
        bg, bdoc = bg[valid], docidx[:-1][valid]
        if len(bg):
            order = np.lexsort((bg, bdoc))
            bg, bdoc = bg[order], bdoc[order]
            # run lengths of identical (doc, gram)
            new_run = np.ones(len(bg), bool)
            new_run[1:] = (bdoc[1:] != bdoc[:-1]) | (bg[1:] != bg[:-1])
            run_id = np.cumsum(new_run) - 1
            run_len = np.bincount(run_id)
            run_doc = bdoc[new_run]
            mx = np.zeros(n, np.int64)
            np.maximum.at(mx, run_doc, run_len)
            tot = np.bincount(bdoc, minlength=n)
            has = tot > 0
            top_pct[has] = (100 * mx[has]) // tot[has]
    return pa.table({
        "doc_id": t.column("doc_id"),
        "n_words": pa.array(counts),
        "dup_word_pct": pa.array(dup_pct.astype(np.int64)),
        "top_bigram_pct": pa.array(top_pct),
    })


def repetition_score(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition filter signals, one row per doc."""
    ds = read_documents(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


# --------------------------------------------------------------------- #
# partitioned ranking: top-k documents per source
# --------------------------------------------------------------------- #
def top_docs_per_source(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """row_number()-over-(PARTITION BY source ORDER BY n_chars DESC,
    doc_id) <= k — the partitioned-ranking window capability.

    Scale shape: each batch emits only its LOCAL top-k per source
    (sort + segmented head — the candidate set shrinks to
    k·sources·blocks rows before any exchange), then one map_groups
    over the bounded #sources group count finalizes ranks. No global
    sort, no full-table shuffle."""

    def local_topk(t: pa.Table) -> pa.Table:
        src = t.column("source").to_numpy(zero_copy_only=False)
        nc = t.column("n_chars").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, -nc, src))
        s = src[order]
        seg_start = np.ones(len(s), bool)
        seg_start[1:] = s[1:] != s[:-1]
        # rank within source run
        idx = np.arange(len(s))
        run_begin = np.maximum.accumulate(np.where(seg_start, idx, 0))
        keep = (idx - run_begin) < k
        sel = pa.array(order[keep])
        return pa.table({"source": t.column("source").take(sel),
                         "doc_id": t.column("doc_id").take(sel),
                         "n_chars": t.column("n_chars").take(sel)})

    def final_topk(t: pa.Table) -> pa.Table:
        nc = t.column("n_chars").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, -nc))[:k]
        sel = pa.array(order)
        return pa.table({
            "source": t.column("source").take(sel),
            "doc_id": t.column("doc_id").take(sel),
            "n_chars": t.column("n_chars").take(sel),
            "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
        })

    ds = read_documents(sf_dir, columns=["doc_id", "source", "n_chars"])
    cand = ds.map_batches(local_topk, batch_format="pyarrow")
    return cand.groupby("source").map_groups(final_topk,
                                             batch_format="pyarrow")


# --------------------------------------------------------------------- #
def approx_top_tokens(sf_dir: str, k: int = 20,
                      capacity: int = 4096) -> "ray.data.Dataset":
    """APPROXIMATE corpus-wide heavy hitters with CERTIFIED bounds — the
    Misra–Gries/Space-Saving companion to the exact
    ``top_tokens_by_source``. Returns (token, count_lower, count_upper,
    rk): ``count_lower ≤ true count ≤ count_upper`` is a hard
    guarantee, and every token whose true count exceeds the summed
    truncation error is guaranteed present.

    Scale shape: each block builds an EXACT local count and truncates
    to its top-``capacity`` tokens, recording the largest dropped count
    as that block's error ε_b — a mergeable bounded summary, the same
    pattern as the HLL and the log-binned quantile sketches. The
    exchange moves ≤ capacity rows per block (the exact operator moves
    every distinct (source, token) pair — unbounded vocabulary at
    corpus scale); the driver folds counts and adds Σε_b of the blocks
    that did NOT report a token to its upper bound."""
    import ray
    import ray.data

    def summary(t: pa.Table) -> pa.Table:
        import uuid

        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        flat = words.flatten()
        g = pa.table({"token": flat}).group_by("token").aggregate(
            [("token", "count")])
        cnt = g.column("token_count").to_numpy(zero_copy_only=False)
        tok = g.column("token")
        order = np.lexsort((tok.to_numpy(zero_copy_only=False), -cnt))
        kept = order[:capacity]
        eps = int(cnt[order[capacity]]) if len(order) > capacity else 0
        n = len(kept)
        # each summary() CALL is one sketch unit and must be accounted
        # as such — map_batches fused onto a parquet read runs once per
        # READ CHUNK, so one output block can hold several summaries
        # concatenated; a unique sid keys the eps bookkeeping (relying
        # on block identity undercounted total_eps and could push
        # count_upper below the true count)
        sid = uuid.uuid4().hex
        return pa.table({
            "token": tok.take(pa.array(kept)),
            "cnt": pa.array(cnt[kept].astype(np.int64)),
            "eps": pa.array(np.full(n, eps, np.int64)),
            "sid": pa.array(np.repeat(sid, n)),
        })

    ds = read_documents(sf_dir, columns=["text"])
    parts = ds.map_batches(summary, batch_format="pyarrow")
    tables = [t for t in collect_tables(parts) if t.num_rows]
    if not tables:
        return ray.data.from_arrow(pa.table({
            "token": pa.array([], pa.string()),
            "count_lower": pa.array([], pa.int64()),
            "count_upper": pa.array([], pa.int64()),
            "rk": pa.array([], pa.int64())}))
    # driver fold over ≤ capacity × summaries rows: per-token lower =
    # Σ reported counts; upper adds ε_s for every SUMMARY (sid) that
    # truncated the token away
    all_df = pa.concat_tables(tables).to_pandas()
    total_eps = int(all_df.groupby("sid")["eps"].first().sum())
    agg = all_df.groupby("token").agg(
        count_lower=("cnt", "sum"), seen_eps=("eps", "sum"))
    agg["count_upper"] = agg["count_lower"] + (total_eps - agg["seen_eps"])
    agg = agg.sort_values(["count_lower", "token"],
                          ascending=[False, True]).head(k).reset_index()
    return ray.data.from_arrow(pa.table({
        "token": pa.array(agg["token"].to_numpy(), pa.string()),
        "count_lower": pa.array(agg["count_lower"].to_numpy()
                                .astype(np.int64)),
        "count_upper": pa.array(agg["count_upper"].to_numpy()
                                .astype(np.int64)),
        "rk": pa.array(np.arange(1, len(agg) + 1, dtype=np.int64)),
    }))


def doc_frequency(sf_dir: str, k: int = 20) -> ray.data.Dataset:
    """Corpus DOCUMENT-FREQUENCY heavy hitters: the ``k`` whitespace
    tokens present in the most documents (df = number of docs
    containing the token at least once) — the stopword-discovery /
    vocabulary-pruning staple. Ties break by token asc; returns
    (token, df, rk). EXACT (reference semantics: aqueduct-core's
    derived-table rollups, DerivedTableSync re-aggregation).

    Scale shape: per-block the (doc, token) pairs are DISTINCT-ed with
    one Arrow group_by (no per-row loops) and collapsed to (token,
    partial df) — the shuffle moves distinct tokens per block, never
    word instances. A native distributed ``groupby(token).sum``
    finishes the counts; each token then lives in exactly ONE output
    block, so a per-block local top-k bounds the driver fold at
    k x blocks rows — exact, no second exchange."""

    def df_partial(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        pairs = pa.table({
            "d": pa.array(np.repeat(np.arange(len(counts), dtype=np.int64),
                                    counts)),
            "token": words.flatten(),
        })
        distinct = pairs.group_by(["d", "token"]).aggregate([])
        agg = distinct.group_by("token").aggregate([("d", "count")])
        return pa.table({"token": agg.column("token"),
                         "df": agg.column("d_count")})

    def local_topk(t: pa.Table) -> pa.Table:
        cnt = t.column("df").to_numpy(zero_copy_only=False)
        tok = t.column("token").to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -cnt))[:k]
        return pa.table({
            "token": t.column("token").take(pa.array(order)),
            "df": pa.array(cnt[order].astype(np.int64)),
        })

    from ..stages.exchange import fx_sum_by
    total = fx_sum_by(
        read_documents(sf_dir, columns=["text"])
        .map_batches(df_partial, batch_format="pyarrow"),
        ["token"], ["df"]
    ).map_batches(local_topk, batch_format="pyarrow")
    # driver fold of <= k x blocks candidate rows: exact global top-k
    tables = [t for t in collect_tables(total) if t.num_rows]
    cand = (pa.concat_tables(tables, promote_options="default")
            if tables else None)
    if cand is None or cand.num_rows == 0:
        return ray.data.from_arrow(pa.table({
            "token": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "rk": pa.array([], pa.int64())}))
    cnt = cand.column("df").to_numpy(zero_copy_only=False)
    tok = cand.column("token").to_numpy(zero_copy_only=False)
    order = np.lexsort((tok, -cnt))[:k]
    return ray.data.from_arrow(pa.table({
        "token": cand.column("token").take(pa.array(order)),
        "df": pa.array(cnt[order].astype(np.int64)),
        "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    }))


def _codes(arr: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """Dense int codes of a column: equal values share a code."""
    return dict_encode(arr).indices.to_numpy()


def _tf_rows(t: pa.Table, num_partitions: int) -> pa.Table:
    """Per-block (doc, whitespace token, tf) counts via one Arrow
    group_by — each doc lives in one block, so the counts are final —
    tagged ``tpart`` = hash(token) %% P."""
    txt = pc.utf8_trim_whitespace(t.column("text"))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    agg = pa.table({
        "doc_id": t.column("doc_id").combine_chunks()
        .take(pc.list_parent_indices(words)),
        "token": words.flatten(),
    }).group_by(["doc_id", "token"]).aggregate([("token", "count")])
    return pa.table({
        "tpart": pa.array((hash_str_array(agg.column("token"))
                           % np.uint64(num_partitions)).astype(np.int32)),
        "doc_id": agg.column("doc_id"),
        "token": agg.column("token"),
        "tf": agg.column("token_count"),
    })


def _tfidf_scores(g: pa.Table, n_docs: int,
                  num_partitions: int) -> pa.Table:
    """Token-partition task of tfidf_top_terms: df is the row count of
    each token (the partition owns all of its rows); rows re-tagged
    ``dpart`` = hash(doc_id) %% P."""
    tok = _codes(g.column("token"))
    tf = g.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    idf = np.log((n_docs + 1.0) / (np.bincount(tok)[tok] + 1.0))
    return pa.table({
        "dpart": pa.array((hash_str_array(g.column("doc_id"))
                           % np.uint64(num_partitions)).astype(np.int32)),
        "doc_id": g.column("doc_id"),
        "token": g.column("token"),
        "tf": pa.array(tf),
        "score_permille": pa.array(
            np.floor(tf * idf * 1000.0 + 0.5).astype(np.int64)),
    })


def _tfidf_topk(g: pa.Table, k: int) -> pa.Table:
    """Doc-partition task of tfidf_top_terms: each doc's ``k`` best
    rows by (score desc, token asc) from one lexsort on int keys."""
    d = dict_encode(g.column("token"))
    # token order as code ranks: Arrow sorts strings by UTF-8 bytes,
    # which is code-point (Python str) order
    rank = np.empty(len(d.dictionary), np.int64)
    rank[pc.sort_indices(d.dictionary).to_numpy()] = np.arange(
        len(d.dictionary))
    doc = g.column("doc_id").to_numpy(zero_copy_only=False)
    sc = g.column("score_permille").to_numpy(zero_copy_only=False)
    order = np.lexsort((rank[d.indices.to_numpy()], -sc, doc))
    d_s = doc[order]
    starts = np.flatnonzero(np.concatenate([[True], d_s[1:] != d_s[:-1]]))
    pos = np.arange(len(d_s)) - np.repeat(
        starts, np.diff(np.append(starts, len(d_s))))
    keep = pa.array(order[pos < k])
    return pa.table({
        "doc_id": g.column("doc_id").take(keep),
        "token": g.column("token").take(keep),
        "tf": g.column("tf").take(keep),
        "score_permille": g.column("score_permille").take(keep),
        "rk": pa.array((pos[pos < k] + 1).astype(np.int64)),
    })


def _unigram_scores(g: pa.Table, total: float) -> pa.Table:
    """Token-partition task of unigram_logprob_score: each row scores
    ``tf x lp(token)`` from the token's corpus count."""
    tok = _codes(g.column("token"))
    tf = g.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = np.bincount(tok, weights=tf)[tok]     # exact below 2**53
    lp = np.floor(np.log(cnt / total) * 1000.0 + 0.5).astype(np.int64)
    return pa.table({
        "doc_id": g.column("doc_id"),
        "n_tok": pa.array(tf),
        "score_permille": pa.array(tf * lp),
    })


def tfidf_top_terms(sf_dir: str, k: int = 5,
                    num_partitions: int = 32) -> ray.data.Dataset:
    """Per-document KEYWORD EXTRACTION: the ``k`` whitespace tokens with
    the highest tf-idf in each document. Score is the INTEGER PERMILLE
    ``floor(tf * ln((N+1)/(df+1)) * 1000 + 0.5)`` (smoothed idf, same
    row-rounding convention as the money pipelines — both engines
    evaluate the identical float64 expression, so the SQL oracle
    matches bit-exactly). Ties rank by token asc; returns
    (doc_id, token, tf, score_permille, rk).

    Scale shape: two co-partitioned exchanges, no broadcast of the
    (unbounded) vocabulary. (1) per-block (doc, token, tf) counts via
    one Arrow group_by — each doc lives in exactly one block, so the
    counts are final — tagged hash(token) %% P; the token partition
    owns every row of its tokens, computes df as its row count per
    token and scores in place. (2) re-tag hash(doc) %% P; the doc
    partition does ONE vectorized lexsort for all its docs' top-k
    (no per-doc loops). Output is O(k x docs), streamed, never folded
    on the driver."""
    import pyarrow.parquet as pq
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    return (read_documents(sf_dir, columns=["doc_id", "text"])
            .map_batches(_tf_rows, batch_format="pyarrow",
                         fn_kwargs={"num_partitions": num_partitions})
            .fx_map_groups(functools.partial(
                _tfidf_scores, n_docs=n_docs, num_partitions=num_partitions),
                part_col="tpart")
            .fx_map_groups(functools.partial(_tfidf_topk, k=k),
                           part_col="dpart"))


def unigram_logprob_score(sf_dir: str,
                          num_partitions: int = 32) -> ray.data.Dataset:
    """Corpus-LM QUALITY SCORING: train a unigram language model on the
    whole corpus (token relative frequencies) and score every document
    by its total log-likelihood — the cheap stand-in for KenLM-style
    perplexity filtering in training-data curation pipelines (low
    scores = improbable/garbled text). Per-token log-prob is the
    INTEGER PERMILLE ``floor(ln(cnt/total) * 1000 + 0.5)`` (same shared
    float64 row-rounding convention as tfidf_top_terms, so the SQL
    oracle matches bit-exactly); a doc's score sums its tokens'
    integer permilles — order-insensitive by construction. Returns
    (doc_id, n_tok, score_permille), one row per document.

    Scale shape: the vocabulary is UNBOUNDED so it is never broadcast
    — the same two co-partitioned exchanges as tfidf_top_terms.
    (1) per-block (doc, token, tf) counts via one Arrow group_by,
    tagged hash(token) %% P; the token partition owns every row of its
    tokens, folds global counts with one bincount over token codes and
    scores each row ``tf x lp(token)`` in place. (2) a keyed sum by
    doc_id finishes the per-doc fold. The corpus-wide token total (one
    int64) is the only driver scalar, folded from per-block word counts
    in a narrow pre-pass."""

    def n_tok_partial(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+")
        n = pc.sum(pc.list_value_length(words)).as_py() or 0
        return pa.table({"n": pa.array([int(n)], pa.int64())})

    total = float(sum(
        t.column("n").to_numpy().sum()
        for t in collect_tables(
            read_documents(sf_dir, columns=["text"])
            .map_batches(n_tok_partial, batch_format="pyarrow"))
        if t.num_rows))

    from ..stages.exchange import fx_sum_by
    return fx_sum_by(
        read_documents(sf_dir, columns=["doc_id", "text"])
        .map_batches(_tf_rows, batch_format="pyarrow",
                     fn_kwargs={"num_partitions": num_partitions})
        .fx_map_groups(functools.partial(_unigram_scores, total=total),
                       part_col="tpart"),
        ["doc_id"], ["n_tok", "score_permille"])


def quantile_band_docs(sf_dir: str, lo: float = 0.05, hi: float = 0.95
                       ) -> ray.data.Dataset:
    """Per-source quantile gating: keep documents whose length sits in
    the [lo, hi] quantile band of THEIR source's n_chars distribution —
    the classic 'drop the tails' quality filter, but with thresholds
    derived from the corpus itself rather than hand-tuned constants.
    Quantiles use SQL ``quantile_disc`` semantics (the element at rank
    ceil(q·n), 1-based — same convention as
    ``temporal.exact_quantiles_by_type``). Returns (doc_id, source,
    n_chars) for surviving documents, distributed.

    Scale shape: exact per-source quantiles without a sort — n_chars is
    a bounded integer domain, so the distribution compresses into a
    (source, n_chars) histogram (per-block Arrow partials -> one native
    Sum exchange bounded by domain x sources -> driver cumsum readout);
    the thresholds table (2 ints per source) then rides into a second
    streaming pass as a broadcast, and the filter never shuffles the
    documents themselves."""
    from ray.data.aggregate import Sum

    def hist_partial(t: pa.Table) -> pa.Table:
        # null source/n_chars rows can neither anchor nor pass a band
        # (SQL: GROUP BY keeps a NULL group but JOIN USING(source) and
        # BETWEEN both reject NULLs) — drop them from the histogram
        t = t.filter(pc.and_(pc.is_valid(t.column("source")),
                             pc.is_valid(t.column("n_chars"))))
        g = pa.table({
            "source": t.column("source"),
            "n_chars": t.column("n_chars"),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
        }).group_by(["source", "n_chars"]).aggregate([("n", "sum")])
        return pa.table({
            "source": g.column("source"),
            "n_chars": g.column("n_chars"),
            "n": g.column("n_sum"),
        })

    from ..stages.exchange import fx_sum_by
    hist = fx_sum_by(
        read_documents(sf_dir, columns=["source", "n_chars"])
        .map_batches(hist_partial, batch_format="pyarrow"),
        ["source", "n_chars"], ["n"]
    ).to_pandas()                     # bounded: domain x sources rows
    bands: dict[str, tuple[int, int]] = {}
    for src, g in hist.groupby("source", sort=False):
        g = g.sort_values("n_chars")
        cum = g["n"].to_numpy().cumsum()
        vals = g["n_chars"].to_numpy()
        n = int(cum[-1])
        def rank_val(q: float) -> int:
            k = max(1, int(np.ceil(q * n)))
            return int(vals[np.searchsorted(cum, k, side="left")])
        bands[str(src)] = (rank_val(lo), rank_val(hi))

    import ray
    bands_ref = ray.put(bands)

    def band_filter(t: pa.Table, *, ref=bands_ref) -> pa.Table:
        b = ray.get(ref) if not isinstance(ref, dict) else ref
        # dictionary-encode the source column once per batch, then one
        # dict lookup per DISTINCT source — no per-row Python work.
        # Null source -> null dictionary index; null n_chars -> NaN on
        # the numpy side: both must fail the band like SQL's
        # JOIN/BETWEEN, so mask them explicitly.
        src = t.column("source").combine_chunks().dictionary_encode()
        uniq = src.dictionary.to_pylist()
        # a source may be absent from bands when every one of its rows
        # had null n_chars — same rejection as a null source
        known = np.array([s in b for s in uniq] or [False])
        lo_u = np.array([b[s][0] if s in b else 0 for s in uniq]
                        or [0], np.int64)
        hi_u = np.array([b[s][1] if s in b else -1 for s in uniq]
                        or [-1], np.int64)
        valid = pc.is_valid(src.indices).to_numpy(zero_copy_only=False)
        codes = (src.indices.fill_null(0)
                 .to_numpy(zero_copy_only=False).astype(np.int64))
        nc = t.column("n_chars").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            keep = (valid & known[codes] & (nc >= lo_u[codes])
                    & (nc <= hi_u[codes]))
        return t.filter(pa.array(keep))

    return (read_documents(sf_dir, columns=["doc_id", "source",
                                            "n_chars"])
            .map_batches(band_filter, batch_format="pyarrow"))


# --------------------------------------------------------------------- #
# DSIR data selection (hashed n-gram importance resampling)
# --------------------------------------------------------------------- #
_DSIR_P1 = np.uint64(0x9E3779B97F4A7C15)


def _dsir_features(t: pa.Table, dim: int,
                   text_col: str = "text"
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Hashed unigram+bigram feature stream for one batch: (feature id
    in [0, dim), owning doc INDEX within the batch), one entry per
    occurrence, in deterministic per-doc order (all unigrams in
    position order, then all bigrams) — the DSIR (Xie et al. 2023)
    hashed n-gram representation. One split + one hash pass; bigram ids
    mix adjacent word hashes, never crossing a document boundary."""
    txt = pc.utf8_lower(pc.utf8_trim_whitespace(t.column(text_col)))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    wh = hash_str_array(words.flatten())
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    uni = (wh % np.uint64(dim)).astype(np.int64)
    if len(wh) > 1:
        same = doc_of[1:] == doc_of[:-1]
        bg = (((wh[:-1] * _DSIR_P1) ^ wh[1:])
              % np.uint64(dim)).astype(np.int64)[same]
        bdoc = doc_of[:-1][same]
    else:
        bg = np.empty(0, np.int64)
        bdoc = np.empty(0, np.int64)
    feats = np.concatenate([uni, bg])
    fdoc = np.concatenate([doc_of, bdoc])
    order = np.lexsort((np.arange(len(fdoc)), fdoc))
    return feats[order], fdoc[order]


def dsir_weights(sf_dir: str, target_lang: str = "en",
                 dim: int = 8192) -> ray.data.Dataset:
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): score every document
    by how target-like its hashed unigram+bigram distribution is —
    ``score = Σ_occurrences ln(p_target(f)/p_raw(f))`` with add-one
    smoothing, where the target distribution is fit on the docs
    matching ``lang == target_lang`` and the raw distribution on the
    whole corpus. High scores select for the target domain; feed the
    scores to the existing weighted sampler for the resampling half.
    Returns (doc_id, n_feats, score_micro) — score in integer
    micro-nats (floor(x·1e6+0.5), the cents convention), one row per
    doc.

    Scale shape: BOTH distributions are dim-bounded vectors — per-block
    nonzero (feat, n_raw, n_tgt) count partials fold driver-side into
    two dim-length arrays (O(dim × blocks) tiny int rows, zero
    exchanges), and the log-ratio vector (dim float64s, ~64 KB) is
    broadcast into a map-only scoring pass. The corpus is read twice
    but never shuffled; per-doc float summation order is fixed by the
    feature stream (a doc lives in one batch row), so scores are
    partitioning-invariant. Hash-based => rows-only (no SQL oracle)."""

    def dist_partial(t: pa.Table) -> pa.Table:
        feats, fdoc = _dsir_features(t, dim)
        is_tgt = pc.equal(t.column("lang"),
                          target_lang).fill_null(False) \
            .to_numpy(zero_copy_only=False)
        raw = np.bincount(feats, minlength=dim).astype(np.int64)
        tm = is_tgt[fdoc]
        tgt = np.bincount(feats[tm], minlength=dim).astype(np.int64)
        nz = np.flatnonzero(raw)
        return pa.table({"feat": pa.array(nz),
                         "n_raw": pa.array(raw[nz]),
                         "n_tgt": pa.array(tgt[nz])})

    parts = (read_documents(sf_dir, columns=["text", "lang"])
             .map_batches(dist_partial, batch_format="pyarrow"))
    raw = np.zeros(dim, np.int64)
    tgt = np.zeros(dim, np.int64)
    for pt in collect_tables(parts):
        if pt.num_rows == 0:
            continue
        f = pt.column("feat").to_numpy(zero_copy_only=False)
        np.add.at(raw, f, pt.column("n_raw").to_numpy(zero_copy_only=False))
        np.add.at(tgt, f, pt.column("n_tgt").to_numpy(zero_copy_only=False))
    lam = (np.log((tgt + 1.0) / (tgt.sum() + dim))
           - np.log((raw + 1.0) / (raw.sum() + dim)))

    def score(t: pa.Table) -> pa.Table:
        feats, fdoc = _dsir_features(t, dim)
        n = t.num_rows
        nf = np.bincount(fdoc, minlength=n).astype(np.int64)
        starts = np.zeros(n, np.int64)
        np.cumsum(nf[:-1], out=starts[1:])
        vals = lam[feats]
        sums = np.zeros(n, np.float64)
        has = nf > 0
        if has.any():
            seg = np.add.reduceat(vals, starts[has]) if len(vals) else []
            sums[has] = seg
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_feats": pa.array(nf),
            "score_micro": pa.array(
                np.floor(sums * 1e6 + 0.5).astype(np.int64)),
        })

    return (read_documents(sf_dir, columns=["doc_id", "text", "lang"])
            .map_batches(score, batch_format="pyarrow"))


# --------------------------------------------------------------------- #
def bm25_topk(sf_dir: str, query: tuple[str, ...] = ("hash", "merge",
                                                     "stream"),
              k: int = 20, k1: float = 1.5, b: float = 0.75
              ) -> ray.data.Dataset:
    """Distributed BM25 RETRIEVAL: score every document against a fixed
    query-term set and return the top ``k`` — the classic sparse-IR
    capability (quality-set mining, eval-neighbor retrieval) the dense
    kNN operators (ann.py) don't cover. Okapi BM25 with the Lucene
    smoothed idf ``ln((N - df + 0.5)/(df + 0.5) + 1)``; per-(doc, term)
    contribution is the INTEGER PERMILLE
    ``floor(idf * (tf*(k1+1))/(tf + k1*((1-b) + b*dl/avgdl)) * 1000
    + 0.5)`` (both engines evaluate the identical float64 expression
    tree, so the SQL oracle matches bit-exactly — k1/b default to
    dyadic rationals so even the constants are exact); a doc's score
    sums its terms' integer permilles. Ties rank by doc_id asc.
    Returns (doc_id, score_permille, rk) for docs containing >=1 term.

    Scale shape: NO exchange at all. The query set is tiny and each doc
    lives in one block, so (1) a narrow pre-pass folds the three
    globals — total token count, per-term df — as one partial row per
    block (driver fold is O(blocks x |Q|)); n_docs comes from parquet
    metadata. (2) the scoring pass computes per-block dense tf via one
    ``index_in`` + ``np.add.at`` (docs x |Q|), scores vectorized, and
    local-top-k's to ``k`` rows per block; the driver folds
    <= k x blocks candidates. The unbounded vocabulary never moves —
    only query-term hits do."""
    import pyarrow.parquet as pq
    qterms = list(query)
    qn = len(qterms)
    qset = pa.array(qterms, pa.string())
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def globals_partial(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        qi = pc.index_in(flat, value_set=qset)
        valid = pc.is_valid(qi).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        cols = qi.to_numpy(zero_copy_only=False)
        tf = np.zeros((len(counts), qn), np.int64)
        if valid.any():
            np.add.at(tf, (rows[valid],
                           cols[valid].astype(np.int64)), 1)
        out = {"total_tok": pa.array([int(counts.sum())], pa.int64())}
        for j in range(qn):
            out[f"df_{j}"] = pa.array([int((tf[:, j] > 0).sum())],
                                      pa.int64())
        return pa.table(out)

    gparts = [t for t in collect_tables(
        read_documents(sf_dir, columns=["text"])
        .map_batches(globals_partial, batch_format="pyarrow")) if t.num_rows]
    total_tok = sum(int(t.column("total_tok").to_numpy().sum())
                    for t in gparts)
    df = np.array([sum(int(t.column(f"df_{j}").to_numpy().sum())
                       for t in gparts) for j in range(qn)], np.float64)
    avgdl = total_tok / n_docs if n_docs else 1.0
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def score_local_topk(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        qi = pc.index_in(flat, value_set=qset)
        valid = pc.is_valid(qi).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        cols = qi.to_numpy(zero_copy_only=False)
        tf = np.zeros((len(counts), qn), np.float64)
        if valid.any():
            np.add.at(tf, (rows[valid], cols[valid].astype(np.int64)), 1)
        dl = counts.astype(np.float64)
        # identical float64 expression tree as the SQL oracle:
        # (1-b) + b*dl/avgdl, tf*(k1+1), idf*tfn*1000
        norm = (1.0 - b) + b * dl[:, None] / avgdl
        tfn = (tf * (k1 + 1.0)) / (tf + k1 * norm)
        contrib = np.where(tf > 0,
                           np.floor(idf[None, :] * tfn * 1000.0 + 0.5),
                           0.0)
        score = contrib.sum(axis=1).astype(np.int64)
        hit = tf.sum(axis=1) > 0
        did = t.column("doc_id").to_numpy(zero_copy_only=False)[hit]
        sc = score[hit]
        order = np.lexsort((did, -sc))[:k]
        return pa.table({"doc_id": pa.array(did[order]),
                         "score_permille": pa.array(sc[order])})

    cand = (read_documents(sf_dir, columns=["doc_id", "text"])
            .map_batches(score_local_topk, batch_format="pyarrow"))
    tables = [t for t in collect_tables(cand) if t.num_rows]
    if not tables:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "score_permille": pa.array([], pa.int64()),
            "rk": pa.array([], pa.int64())}))
    allc = pa.concat_tables(tables, promote_options="default")
    did = allc.column("doc_id").to_numpy(zero_copy_only=False)
    sc = allc.column("score_permille").to_numpy(zero_copy_only=False)
    order = np.lexsort((did, -sc))[:k]
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(did[order].astype(np.int64)),
        "score_permille": pa.array(sc[order].astype(np.int64)),
        "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    }))


# --------------------------------------------------------------------- #
def rank_auc(sf_dir: str, label_lang: str = "en") -> ray.data.Dataset:
    """Distributed EXACT rank statistic: the Mann-Whitney U (= ROC-AUC
    numerator) of ``n_chars`` as a predictor of ``lang == label_lang``
    — the evaluation primitive behind every classifier/quality-score
    validation step, computed WITHOUT a global sort. Midrank tie
    handling, doubled to stay integer: for a tie group with ``below``
    items under it and ``n`` members, ``2*avgrank = 2*below + n + 1``;
    ``u_stat_x2 = Σ_groups np*(2*below + n + 1) - n_pos*(n_pos+1)``
    (AUC = u_stat_x2 / (2*n_pos*n_neg), left to the consumer). Returns
    one row (n_pos, n_neg, u_stat_x2). All integer arithmetic, so the
    SQL oracle matches bit-exactly; the driver fold runs in Python ints
    (arbitrary precision) — u_stat_x2 itself fits int64 up to ~2e9
    balanced rows (2·n_pos·N bound), beyond which the output column
    would need a decimal type.

    Scale shape: per-block (score -> n, n_pos) histogram partials via
    one Arrow group_by; the driver folds ≤ |distinct scores| rows per
    block (score is a bounded integer metric — same bounded-histogram
    concession as value_histogram / mad_by_type) and one cumsum gives
    every tie-group's rank. No shuffle, no sort of the data itself."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        y = pc.equal(t.column("lang"), label_lang).fill_null(False)
        tb = pa.table({
            "s": t.column("n_chars"),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "yp": y.cast(pa.int64()),
        })
        g = tb.group_by("s").aggregate([("one", "sum"), ("yp", "sum")])
        return g.rename_columns(["s", "n", "np"])

    parts = (read_documents(sf_dir, columns=["lang", "n_chars"])
             .map_batches(partial, batch_format="pyarrow"))
    hist: dict[int, list[int]] = {}
    for t in collect_tables(parts):
        if t.num_rows == 0:
            continue
        ss = t.column("s").to_numpy(zero_copy_only=False)
        nn = t.column("n").to_numpy(zero_copy_only=False)
        pp = t.column("np").to_numpy(zero_copy_only=False)
        for s, n, p in zip(ss.tolist(), nn.tolist(), pp.tolist()):
            e = hist.setdefault(s, [0, 0])
            e[0] += n
            e[1] += p
    n_pos = n_tot = sr2 = 0
    below = 0
    for s in sorted(hist):
        n, p = hist[s]
        sr2 += p * (2 * below + n + 1)
        below += n
        n_pos += p
        n_tot += n
    u2 = sr2 - n_pos * (n_pos + 1)
    return ray.data.from_arrow(pa.table({
        "n_pos": pa.array([n_pos], pa.int64()),
        "n_neg": pa.array([n_tot - n_pos], pa.int64()),
        "u_stat_x2": pa.array([u2], pa.int64()),
    }))


def spearman_chars_tokens(sf_dir: str) -> ray.data.Dataset:
    """Distributed EXACT Spearman rank-correlation components between
    ``n_chars`` and the whitespace token count — the metric-redundancy
    check a curation pipeline runs before dropping a correlated
    feature. Midrank ties doubled to stay integer (``2r = 2*below + n
    + 1``, the rank_auc convention); returns one row with the raw
    integer sums (n, s_x=Σ2rx, s_y=Σ2ry, s_xy=Σ4rxry, s_xx=Σ4rx²,
    s_yy=Σ4ry²) — rho = (n*s_xy - s_x*s_y) /
    sqrt((n*s_xx - s_x²)(n*s_yy - s_y²)) is left to the consumer.
    All integer arithmetic (driver folds in Python ints; the int64
    output columns bound n at ~1e6 via the Σ4N³ term), so the SQL
    oracle matches bit-exactly.

    Scale shape: ONE pass — per-block joint (x, y) histogram partials
    via one Arrow group_by; the driver folds distinct (x, y) pairs
    (both are bounded integer metrics, so the joint support is the
    same bounded-histogram concession as rank_auc / value_histogram),
    derives both marginal midrank maps with one cumsum each, and the
    moment sums are one vectorized pass over the folded support."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        y = pc.count_substring_regex(t.column("text"), r"\S+") \
            .cast(pa.int64())
        tb = pa.table({
            "x": t.column("n_chars"),
            "y": y,
            "one": pa.array(np.ones(t.num_rows, np.int64)),
        })
        g = tb.group_by(["x", "y"]).aggregate([("one", "sum")])
        return g.rename_columns(["x", "y", "n"])

    parts = (read_documents(sf_dir, columns=["text", "n_chars"])
             .map_batches(partial, batch_format="pyarrow"))
    joint: dict[tuple[int, int], int] = {}
    for t in collect_tables(parts):
        if t.num_rows == 0:
            continue
        for x, y, n in zip(t.column("x").to_pylist(),
                           t.column("y").to_pylist(),
                           t.column("n").to_pylist()):
            joint[(x, y)] = joint.get((x, y), 0) + n

    cols = ["n", "s_x", "s_y", "s_xy", "s_xx", "s_yy"]
    if not joint:
        return ray.data.from_arrow(pa.table(
            {c: pa.array([0], pa.int64()) for c in cols}))

    def midrank_x2(vals_counts: dict[int, int]) -> dict[int, int]:
        out, below = {}, 0
        for v in sorted(vals_counts):
            n = vals_counts[v]
            out[v] = 2 * below + n + 1
            below += n
        return out

    mx: dict[int, int] = {}
    my: dict[int, int] = {}
    for (x, y), n in joint.items():
        mx[x] = mx.get(x, 0) + n
        my[y] = my.get(y, 0) + n
    rx = midrank_x2(mx)
    ry = midrank_x2(my)
    n = s_x = s_y = s_xy = s_xx = s_yy = 0
    for (x, y), c in joint.items():
        a, b = rx[x], ry[y]
        n += c
        s_x += c * a
        s_y += c * b
        s_xy += c * a * b
        s_xx += c * a * a
        s_yy += c * b * b
    vals = [n, s_x, s_y, s_xy, s_xx, s_yy]
    return ray.data.from_arrow(pa.table(
        {c: pa.array([v], pa.int64()) for c, v in zip(cols, vals)}))


# --------------------------------------------------------------------- #
# Collocation mining — pointwise mutual information over adjacent
# whitespace-token bigrams (the phrase-discovery staple of corpus
# curation: "new york"-style units score high because their joint count
# beats the independence prediction). Reference anchor: the same
# derived-rollup family as aqueduct-core's DerivedTableSync
# re-aggregations (offset-windowed recount, never row-at-a-time).
# --------------------------------------------------------------------- #
def pmi_bigrams(sf_dir: str, k: int = 20, min_count: int = 5,
                num_partitions: int = 16) -> ray.data.Dataset:
    """Top-``k`` adjacent-token bigrams by pointwise mutual information
    ``ln( (c_xy/N_big) / ((c_x/N_tok)(c_y/N_tok)) )``, restricted to
    bigrams seen at least ``min_count`` times. PMI is emitted as the
    INTEGER PERMILLE ``floor(pmi * 1000 + 0.5)`` (the module's shared
    float64 row-rounding convention — tfidf_top_terms,
    unigram_logprob_score — so the DuckDB oracle matches bit-exactly,
    including the ratio's left-to-right float64 evaluation order).
    Ties break by (w1, w2) asc. Returns (w1, w2, cnt, pmi_permille, rk).

    Scale shape: the vocabulary AND bigram space are unbounded, so
    nothing is broadcast and no native sort-shuffle runs. One pass
    emits per-block Arrow group_by partials as a tagged union —
    unigram partials keyed hash(token)%%P, bigram partials keyed
    hash(w1)%%P — into ONE file exchange whose partition then owns
    every partial of its tokens: it folds GLOBAL unigram counts
    (sort+reduceat), folds global bigram counts, attaches c_x to each
    surviving (cnt >= min_count) bigram, and re-tags bigrams by
    hash(w2)%%P while passing its global unigram rows through. The
    second exchange attaches c_y the same way, scores PMI in place,
    and local-top-k's — the driver folds <= k x P candidate rows. The
    two corpus scalars (N_tok, N_big) fold from one narrow pre-pass
    (one int64 row per block)."""
    from ..stages.exchange import file_exchange_map_groups

    P = np.uint64(num_partitions)

    def _tok_arrays(t: pa.Table):
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        return words.flatten(), lens.astype(np.int64)

    def scalar_partial(t: pa.Table) -> pa.Table:
        _, lens = _tok_arrays(t)
        return pa.table({
            "n_tok": pa.array([int(lens.sum())], pa.int64()),
            "n_big": pa.array([int((lens - 1).clip(min=0).sum())],
                              pa.int64()),
        })

    parts = [t for t in collect_tables(
        read_documents(sf_dir, columns=["text"])
        .map_batches(scalar_partial, batch_format="pyarrow")) if t.num_rows]
    n_tok = float(sum(t.column("n_tok").to_numpy().sum() for t in parts))
    n_big = float(sum(t.column("n_big").to_numpy().sum() for t in parts))

    empty = pa.table({
        "part": pa.array([], pa.int32()),
        "kind": pa.array([], pa.int8()),
        "w1": pa.array([], pa.string()),
        "w2": pa.array([], pa.string()),
        "cnt": pa.array([], pa.int64()),
        "c1": pa.array([], pa.int64()),
    })

    def union_partials(t: pa.Table) -> pa.Table:
        tok, lens = _tok_arrays(t)
        if len(tok) == 0:
            return empty
        # unigram partial counts (one Arrow group_by, no row loops)
        uni = pa.table({"w": tok}).group_by("w").aggregate([("w", "count")])
        uw = uni.column("w")
        # adjacent pairs: tok[i], tok[i+1] masked at doc boundaries
        flat = tok.to_numpy(zero_copy_only=False)
        keep = np.ones(max(len(flat) - 1, 0), dtype=bool)
        ends = np.cumsum(lens)[:-1]            # first token of next doc
        keep[ends - 1] = False                 # pair would straddle docs
        w1, w2 = flat[:-1][keep], flat[1:][keep]
        if len(w1):
            big = (pa.table({"w1": pa.array(w1), "w2": pa.array(w2)})
                   .group_by(["w1", "w2"]).aggregate([("w2", "count")]))
        else:
            big = None
        cols = {
            "part": [(hash_str_array(uw) % P).astype(np.int32)],
            "kind": [np.zeros(len(uw), np.int8)],
            "w1": [uw],
            "w2": [pa.nulls(len(uw), pa.string())],
            "cnt": [uni.column("w_count").cast(pa.int64())],
            "c1": [np.zeros(len(uw), np.int64)],
        }
        if big is not None:
            cols["part"].append(
                (hash_str_array(big.column("w1")) % P).astype(np.int32))
            cols["kind"].append(np.full(big.num_rows, 1, np.int8))
            cols["w1"].append(big.column("w1"))
            cols["w2"].append(big.column("w2"))
            cols["cnt"].append(big.column("w2_count").cast(pa.int64()))
            cols["c1"].append(np.zeros(big.num_rows, np.int64))
        return pa.table({c: pa.chunked_array(
            [pa.array(v) if isinstance(v, np.ndarray) else v
             for v in vs]) for c, vs in cols.items()})

    def _global_counts(keys: np.ndarray, cnt: np.ndarray):
        """(sorted unique keys, global counts) via sort+reduceat."""
        order = np.argsort(keys, kind="stable")
        ks, cs = keys[order], cnt[order]
        starts = np.flatnonzero(
            np.concatenate([[True], ks[1:] != ks[:-1]]))
        return ks[starts], np.add.reduceat(cs, starts)

    def attach_c1(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        w1 = g.column("w1").to_numpy(zero_copy_only=False)
        umask = kind == 0
        ukey, ucnt = _global_counts(w1[umask], cnt[umask])
        # fold bigram partials to global counts
        bt = (g.filter(pa.array(~umask))
              .group_by(["w1", "w2"]).aggregate([("cnt", "sum")]))
        bw1 = bt.column("w1").to_numpy(zero_copy_only=False)
        bw2 = bt.column("w2").to_numpy(zero_copy_only=False)
        bcnt = bt.column("cnt_sum").to_numpy(zero_copy_only=False)
        sel = bcnt >= min_count
        bw1, bw2, bcnt = bw1[sel], bw2[sel], bcnt[sel]
        c1 = ucnt[np.searchsorted(ukey, bw1)] if len(bw1) else \
            np.empty(0, np.int64)
        out = {
            "part": [(hash_str_array(ukey) % P).astype(np.int32),
                     (hash_str_array(bw2) % P).astype(np.int32)],
            "kind": [np.zeros(len(ukey), np.int8),
                     np.full(len(bw1), 1, np.int8)],
            "w1": [pa.array(ukey.astype(object), pa.string()),
                   pa.array(bw1.astype(object), pa.string())],
            "w2": [pa.nulls(len(ukey), pa.string()),
                   pa.array(bw2.astype(object), pa.string())],
            "cnt": [ucnt.astype(np.int64), bcnt.astype(np.int64)],
            "c1": [np.zeros(len(ukey), np.int64), c1.astype(np.int64)],
        }
        return pa.table({c: pa.chunked_array(
            [pa.array(v) if isinstance(v, np.ndarray) else v
             for v in vs]) for c, vs in out.items()})

    def score_topk(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        umask = kind == 0
        # unigram rows here are ALREADY global (attach_c1 re-emitted
        # folded counts); dedupe defensively in case a token's rows
        # rode along twice (idempotent: counts identical)
        w2all = g.column("w2").to_numpy(zero_copy_only=False)
        ukey, ucnt = _global_counts(
            g.column("w1").to_numpy(zero_copy_only=False)[umask],
            cnt[umask])
        # a token seen twice folds to 2x — guard with max-dedupe via
        # unique: attach_c1 emits each token exactly once per owning
        # partition, so sums ARE the global counts; no correction.
        bm = ~umask
        if not bm.any():
            return pa.table({
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
                "pmi_permille": pa.array([], pa.int64()),
            })
        bw1 = g.column("w1").to_numpy(zero_copy_only=False)[bm]
        bw2 = w2all[bm]
        bcnt = cnt[bm].astype(np.float64)
        c1 = g.column("c1").to_numpy(zero_copy_only=False)[bm] \
            .astype(np.float64)
        c2 = ucnt[np.searchsorted(ukey, bw2)].astype(np.float64)
        # EXACT left-to-right float64 order of the SQL oracle:
        # ((cnt*n_tok)*n_tok) / ((n_big*c1)*c2)
        pmi = np.log(bcnt * n_tok * n_tok / (n_big * c1 * c2))
        pmi_pm = np.floor(pmi * 1000.0 + 0.5).astype(np.int64)
        order = np.lexsort((bw2, bw1, -pmi_pm))[:k]
        return pa.table({
            "w1": pa.array(bw1[order].astype(object), pa.string()),
            "w2": pa.array(bw2[order].astype(object), pa.string()),
            "cnt": pa.array(cnt[bm][order].astype(np.int64)),
            "pmi_permille": pa.array(pmi_pm[order]),
        })

    ds = read_documents(sf_dir, columns=["text"]) \
        .map_batches(union_partials, batch_format="pyarrow")
    ds = file_exchange_map_groups(ds, attach_c1, empty_result=empty)
    ds = file_exchange_map_groups(ds, score_topk, empty_result=pa.table({
        "w1": pa.array([], pa.string()),
        "w2": pa.array([], pa.string()),
        "cnt": pa.array([], pa.int64()),
        "pmi_permille": pa.array([], pa.int64()),
    }))
    # driver fold of <= k x P candidates: exact global top-k
    tabs = [t for t in collect_tables(ds) if t.num_rows]
    if not tabs:
        return ray.data.from_arrow(pa.table({
            "w1": pa.array([], pa.string()),
            "w2": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
            "pmi_permille": pa.array([], pa.int64()),
            "rk": pa.array([], pa.int64())}))
    cand = pa.concat_tables(tabs, promote_options="default")
    w1 = cand.column("w1").to_numpy(zero_copy_only=False)
    w2 = cand.column("w2").to_numpy(zero_copy_only=False)
    pm = cand.column("pmi_permille").to_numpy(zero_copy_only=False)
    order = np.lexsort((w2, w1, -pm))[:k]
    take = pa.array(order)
    return ray.data.from_arrow(pa.table({
        "w1": cand.column("w1").take(take),
        "w2": cand.column("w2").take(take),
        "cnt": cand.column("cnt").take(take),
        "pmi_permille": cand.column("pmi_permille").take(take),
        "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    }))


# --------------------------------------------------------------------- #
# Corpus drift — Jensen-Shannon divergence between per-source token
# distributions (the mixture-rebalancing / snapshot-drift audit: "did
# source A's vocabulary shift vs source B between crawls?").
# --------------------------------------------------------------------- #
def source_divergence(sf_dir: str,
                      num_partitions: int = 16) -> ray.data.Dataset:
    """Pairwise JSD between every pair of sources' unigram
    distributions, in INTEGER MICROS (floor(jsd * 1e6 + 0.5)) so the
    DuckDB oracle matches. JSD(P,Q) = 0.5·Σ p·ln(p/m) + 0.5·Σ q·ln(q/m)
    with m = (p+q)/2 over the UNION vocabulary (absent tokens
    contribute p·ln(2) / q·ln(2) — handled naturally by m = p/2).
    Returns (src_a, src_b, jsd_micros) with src_a < src_b.

    Scale shape: the vocabulary is unbounded so nothing is broadcast —
    per-block (source, token, cnt) Arrow group_by partials feed ONE
    hash(token) exchange; the owning partition folds each token's
    global per-source counts and emits ONE float64 JSD-contribution
    row per (pair, partition) — the driver folds <= pairs x P tiny
    rows. Per-source token totals come from the same partials' bounded
    (#sources) fx_sum_by pre-fold. The contribution term is computed
    with numpy's ln on each token (p·ln(p/m) summed per partition):
    summation order differs from SQL's only across <= P + blocks
    groups, inside the micros tolerance."""
    from ..stages.exchange import file_exchange_map_groups, fx_sum_by

    P = np.uint64(num_partitions)

    def pair_counts(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        src = t.column("source").to_numpy(zero_copy_only=False)
        g = pa.table({
            "source": pa.array(np.repeat(src, counts)),
            "token": words.flatten(),
        })
        agg = g.group_by(["source", "token"]).aggregate([("token", "count")])
        tok = agg.column("token")
        return pa.table({
            "part": pa.array((hash_str_array(tok) % P).astype(np.int32)),
            "source": agg.column("source"),
            "token": tok,
            "cnt": agg.column("token_count").cast(pa.int64()),
        })

    partials = (read_documents(sf_dir, columns=["source", "text"])
                .map_batches(pair_counts, batch_format="pyarrow"))
    # per-source totals: bounded (#sources) — driver fold
    totals_t = fx_sum_by(partials.drop_columns(["part", "token"])
                         .map_batches(lambda t: t, batch_format="pyarrow"),
                         ["source"], ["cnt"])
    tot_tabs = [t for t in collect_tables(totals_t) if t.num_rows]
    totals: dict = {}
    for t in tot_tabs:
        for r in range(t.num_rows):
            s = t.column("source")[r].as_py()
            totals[s] = totals.get(s, 0) + int(t.column("cnt")[r].as_py())
    sources = sorted(totals)
    pairs = [(a, b) for i, a in enumerate(sources)
             for b in sources[i + 1:]]

    empty = pa.table({
        "src_a": pa.array([], pa.string()),
        "src_b": pa.array([], pa.string()),
        "contrib": pa.array([], pa.float64()),
    })

    def per_token_part(g: pa.Table) -> pa.Table:
        # fold this partition's tokens to global (source, token) counts
        agg = (g.drop_columns(["part"]).group_by(["source", "token"])
               .aggregate([("cnt", "sum")]))
        src = agg.column("source").to_numpy(zero_copy_only=False)
        tok = agg.column("token").to_numpy(zero_copy_only=False)
        cnt = agg.column("cnt_sum").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        out_a, out_b, out_c = [], [], []
        # dense per-source frequency vectors over this partition's
        # distinct tokens (bounded: #sources columns)
        utok, tok_idx = np.unique(tok, return_inverse=True)
        freq = {}
        for s in sources:
            v = np.zeros(len(utok), np.float64)
            m = src == s
            v[tok_idx[m]] = cnt[m] / float(totals[s])
            freq[s] = v
        for a, b in pairs:
            p_v, q_v = freq[a], freq[b]
            m_v = (p_v + q_v) * 0.5
            pm = p_v > 0
            qm = q_v > 0
            c = 0.5 * float(np.sum(p_v[pm] * np.log(p_v[pm] / m_v[pm]))) \
                + 0.5 * float(np.sum(q_v[qm] * np.log(q_v[qm] / m_v[qm])))
            out_a.append(a)
            out_b.append(b)
            out_c.append(c)
        return pa.table({
            "src_a": pa.array(out_a, pa.string()),
            "src_b": pa.array(out_b, pa.string()),
            "contrib": pa.array(out_c, pa.float64()),
        })

    contrib = file_exchange_map_groups(partials, per_token_part,
                                       empty_result=empty)
    tabs = [t for t in collect_tables(contrib) if t.num_rows]
    acc: dict = {pr: 0.0 for pr in pairs}
    for t in tabs:
        for r in range(t.num_rows):
            key = (t.column("src_a")[r].as_py(),
                   t.column("src_b")[r].as_py())
            acc[key] += float(t.column("contrib")[r].as_py())
    return ray.data.from_arrow(pa.table({
        "src_a": pa.array([a for a, _ in pairs], pa.string()),
        "src_b": pa.array([b for _, b in pairs], pa.string()),
        "jsd_micros": pa.array(
            [int(np.floor(acc[pr] * 1e6 + 0.5)) for pr in pairs],
            pa.int64()),
    }))


# --------------------------------------------------------------------- #
# Skyline (Pareto frontier) — multi-criteria "best documents" without a
# scoring formula: keep every doc no other doc dominates on ALL axes.
# --------------------------------------------------------------------- #
def skyline_docs(sf_dir: str) -> ray.data.Dataset:
    """Pareto-optimal documents on the DENSITY frontier (n_tok max,
    n_chars MIN — "most tokens for the fewest characters"): a doc
    survives unless some other doc has n_chars <= AND n_tok >= with at
    least one strict. Duplicated coordinate pairs do not dominate each
    other, so all ties at a frontier point survive. Returns
    (doc_id, n_chars, n_tok) sorted by doc_id.

    Scale shape: the classic DISTRIBUTED SKYLINE — dominance is
    transitive-free but CLOSED under subsetting (a globally dominated
    doc is dominated by some member of any superset's skyline), so a
    per-block local skyline is a sound filter: candidates shrink to
    the union of block skylines (frontier-sized, typically O(distinct
    frontier points)), and one driver pass over that bounded set
    finishes. The local skyline itself is one sort + one running-max
    sweep — O(n log n) per block, no pairwise loop."""

    def _skyline(ch: np.ndarray, tk: np.ndarray) -> np.ndarray:
        """Boolean keep-mask: sort by n_chars desc then n_tok desc;
        sweeping in that order, a row is dominated iff some EARLIER row
        with STRICTLY larger n_chars has n_tok >= its n_tok, or an
        earlier equal-n_chars row has STRICTLY larger n_tok... both
        collapse to: running max of n_tok over rows that STRICTLY
        dominate-or-tie in a way that matters. Do it exactly: group by
        n_chars desc; a row survives iff its n_tok > max(n_tok of all
        strictly-larger n_chars groups) OR equals its own group's max
        n_tok when that max == the running max boundary... Simpler and
        still O(n log n): a row (c, t) is dominated iff
        max(n_tok over rows with n_chars > c) >= t AND NOT (that max
        == t AND no row with n_chars > c, n_tok == t ... ) — dominance
        needs (>=, >=) with one strict: a row with n_chars' > c and
        n_tok' >= t ALWAYS dominates. A row with n_chars' == c
        dominates iff n_tok' > t. So: dominated iff
        (max_tok_strictly_larger_chars >= t) OR
        (max_tok_same_chars > t)."""
        order = np.lexsort((-tk, -ch))
        ch_s, tk_s = ch[order], tk[order]
        # running max of n_tok over all STRICTLY larger n_chars groups
        grp_start = np.concatenate([[True], ch_s[1:] != ch_s[:-1]])
        gid = np.cumsum(grp_start) - 1
        n_grp = gid[-1] + 1 if len(gid) else 0
        grp_max = np.full(n_grp, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(grp_max, gid, tk_s)
        prev_max = np.full(n_grp, np.iinfo(np.int64).min, np.int64)
        if n_grp > 1:
            np.maximum.accumulate(grp_max[:-1], out=prev_max[1:])
        dominated = (prev_max[gid] >= tk_s) | (grp_max[gid] > tk_s)
        keep = np.empty(len(ch), bool)
        keep[order] = ~dominated
        return keep

    def local_skyline(t: pa.Table) -> pa.Table:
        ch = t.column("n_chars").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = pc.count_substring_regex(t.column("text"), r"\S+") \
            .cast(pa.int64())
        tk = n.to_numpy(zero_copy_only=False)
        keep = _skyline(-ch, tk)            # minimize n_chars
        sel = pa.array(np.flatnonzero(keep))
        return pa.table({
            "doc_id": t.column("doc_id").take(sel),
            "n_chars": pa.array(ch[keep]),
            "n_tok": pa.array(tk[keep]),
        })

    cand_tabs = [t for t in collect_tables(
        read_documents(sf_dir, columns=["doc_id", "text", "n_chars"])
        .map_batches(local_skyline, batch_format="pyarrow")) if t.num_rows]
    if not cand_tabs:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "n_tok": pa.array([], pa.int64())}))
    cand = pa.concat_tables(cand_tabs, promote_options="default")
    ch = cand.column("n_chars").to_numpy(zero_copy_only=False)
    tk = cand.column("n_tok").to_numpy(zero_copy_only=False)
    keep = _skyline(-ch, tk)                # minimize n_chars
    sel = np.flatnonzero(keep)
    did = cand.column("doc_id").to_numpy(zero_copy_only=False)[sel]
    order = np.argsort(did)
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(did[order]),
        "n_chars": pa.array(ch[sel][order]),
        "n_tok": pa.array(tk[sel][order]),
    }))


def type_token_ratio(sf_dir: str) -> ray.data.Dataset:
    """Per-document LEXICAL DIVERSITY: distinct whitespace tokens /
    total tokens (the type-token ratio quality signal — low TTR flags
    repetitive/templated text). Returns (doc_id, n_tok, n_types,
    ttr_micros) with floor(ratio * 1e6 + 0.5); empty docs report 0/0/0.

    Scale shape: ENTIRELY block-local (each doc's ratio needs only its
    own tokens) — one Arrow split kernel + one (doc, token) group_by
    per block, zero exchanges."""

    def per_block(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        n_tok = pc.list_value_length(words).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dids = t.column("doc_id").to_numpy(zero_copy_only=False)
        pairs = pa.table({
            "d": pa.array(np.repeat(np.arange(len(dids),
                                              dtype=np.int64), n_tok)),
            "token": words.flatten(),
        })
        distinct = pairs.group_by(["d", "token"]).aggregate([])
        types = np.zeros(len(dids), np.int64)
        dd = distinct.column("d").to_numpy(zero_copy_only=False)
        np.add.at(types, dd, 1)
        ratio = np.zeros(len(dids), np.float64)
        nz = n_tok > 0
        ratio[nz] = types[nz] / n_tok[nz]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_tok": pa.array(n_tok),
            "n_types": pa.array(types),
            "ttr_micros": pa.array(
                np.floor(ratio * 1e6 + 0.5).astype(np.int64)),
        })

    return read_documents(sf_dir, columns=["doc_id", "text"]) \
        .map_batches(per_block, batch_format="pyarrow")


# --------------------------------------------------------------------- #
def profile_documents(sf_dir: str) -> pa.Table:
    """ANALYZE-style column profile of the documents table — per column
    (doc_id, n_chars, source, text): row/null counts, EXACT distinct
    count, integer min/max (null for strings), total character length
    (null for ints). The data-quality audit every ingest pipeline
    fronts with.

    Scale shape: one column-pruned read per pass. Scalar stats are
    per-block partials folded driver-side (cols x blocks rows).
    Distinct counts shuffle per-block-DEDUPED (column, hash64) pairs —
    64-bit siphash digests move, never the values — through one
    groupby; collision odds are ~n^2/2^64 (negligible; exact at
    testdata scale, where the DuckDB oracle compare is bit-for-bit)."""
    cols = ["doc_id", "n_chars", "source", "text"]
    ds = read_documents(sf_dir, columns=cols)

    def scalar_partials(t: pa.Table) -> pa.Table:
        names, rows, nulls, mns, mxs, lens = [], [], [], [], [], []
        for c in cols:
            col = t.column(c)
            names.append(c)
            rows.append(t.num_rows)
            nulls.append(col.null_count)
            if pa.types.is_integer(col.type):
                mm = pc.min_max(col)
                mns.append(mm["min"].as_py())
                mxs.append(mm["max"].as_py())
                lens.append(None)
            else:
                mns.append(None)
                mxs.append(None)
                lens.append(pc.sum(pc.utf8_length(col)).as_py() or 0)
        return pa.table({
            "col_name": pa.array(names, pa.string()),
            "n_rows": pa.array(rows, pa.int64()),
            "n_nulls": pa.array(nulls, pa.int64()),
            "min_int": pa.array(mns, pa.int64()),
            "max_int": pa.array(mxs, pa.int64()),
            "sum_len": pa.array(lens, pa.int64()),
        })

    sc = (ds.map_batches(scalar_partials, batch_format="pyarrow")
          .to_pandas())                       # bounded: cols x blocks
    agg = sc.groupby("col_name").agg(
        n_rows=("n_rows", "sum"), n_nulls=("n_nulls", "sum"),
        min_int=("min_int", "min"), max_int=("max_int", "max"),
        sum_len=("sum_len", lambda s: s.sum(min_count=1)))

    def hash_pairs(t: pa.Table) -> pa.Table:
        outs_c, outs_h = [], []
        for c in cols:
            arr = (t.column(c).drop_null()
                   .to_numpy(zero_copy_only=False))
            if not np.issubdtype(arr.dtype, np.integer):
                arr = np.asarray(arr, dtype=object)
            h = np.unique(pd.util.hash_array(arr, categorize=False))
            outs_c.append(np.full(len(h), c, dtype=object))
            outs_h.append(h.view(np.int64))
        return pa.table({
            "col_name": pa.array(np.concatenate(outs_c), pa.string()),
            "h": pa.array(np.concatenate(outs_h), pa.int64()),
        })

    def count_unique(g: pa.Table) -> pa.Table:
        return pa.table({
            "col_name": g.column("col_name").slice(0, 1),
            "n_distinct": pa.array(
                [pc.count_distinct(g.column("h")).as_py()], pa.int64()),
        })

    nd = (read_documents(sf_dir, columns=cols)
          .map_batches(hash_pairs, batch_format="pyarrow")
          .groupby("col_name")
          .map_groups(count_unique, batch_format="pyarrow")
          .to_pandas().set_index("col_name"))

    agg = agg.join(nd).reset_index().sort_values("col_name")

    def int_col(s) -> pa.Array:
        return pa.array([None if pd.isna(x) else int(x) for x in s],
                        pa.int64())

    return pa.table({
        "col_name": pa.array(agg["col_name"].tolist(), pa.string()),
        "n_rows": int_col(agg["n_rows"]),
        "n_nulls": int_col(agg["n_nulls"]),
        "n_distinct": int_col(agg["n_distinct"]),
        "min_int": int_col(agg["min_int"]),
        "max_int": int_col(agg["max_int"]),
        "sum_len": int_col(agg["sum_len"]),
    })


def _vocab_hashes(t: pa.Table, num_partitions: int) -> pa.Table:
    """Distinct 64-bit digests of a block's whitespace tokens, tagged
    ``part`` = digest %% P for bigram_logprob_score's vocabulary count."""
    txt = pc.utf8_trim_whitespace(t.column("text"))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    h = np.unique(hash_str_array(pc.unique(words.flatten())))
    return pa.table({
        "part": pa.array((h % np.uint64(num_partitions)).astype(np.int32)),
        "h": pa.array(h.view(np.int64))})


def _n_distinct(g: pa.Table) -> pa.Table:
    return pa.table({"n": pa.array(
        [pc.count_distinct(g.column("h")).as_py()], pa.int64())})


def _bigram_grams(t: pa.Table, num_partitions: int) -> pa.Table:
    """Per-block (doc, a, b, kind, tf) rows of bigram_logprob_score:
    kind 1 = bigram (a, b), kind 0 = a doc's first token ``a`` (b = "");
    tagged ``apart`` = hash(a) %% P."""
    txt = pc.utf8_trim_whitespace(t.column("text"))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    flat = words.flatten()
    doc = pc.list_parent_indices(words).to_numpy()
    a_idx = np.flatnonzero(doc[1:] == doc[:-1])   # bigram left tokens
    first = np.flatnonzero(np.diff(doc, prepend=-1))  # doc starts
    dids = t.column("doc_id").combine_chunks()
    agg = pa.table({
        "doc_id": pa.concat_arrays([dids.take(doc[a_idx]),
                                    dids.take(doc[first])]),
        "a": pa.concat_arrays([flat.take(a_idx), flat.take(first)]),
        "b": pa.concat_arrays([flat.take(a_idx + 1), pa.repeat(
            pa.scalar("", flat.type), len(first))]),
        "kind": np.concatenate([np.ones(len(a_idx), np.int8),
                                np.zeros(len(first), np.int8)]),
        "tf": np.ones(len(a_idx) + len(first), np.int64),
    }).group_by(["doc_id", "a", "b", "kind"]).aggregate([("tf", "sum")])
    return pa.table({
        "apart": pa.array((hash_str_array(agg.column("a"))
                           % np.uint64(num_partitions)).astype(np.int32)),
        "doc_id": agg.column("doc_id"),
        "a": agg.column("a"),
        "b": agg.column("b"),
        "kind": agg.column("kind"),
        "tf": agg.column("tf_sum"),
    })


def _bigram_scores(g: pa.Table, vocab: float, n_docs: int) -> pa.Table:
    """Left-token-partition task of bigram_logprob_score: folds c(a,b),
    c(a) and c_first(a) over the partition's rows and scores each."""
    a, b = _codes(g.column("a")), _codes(g.column("b"))
    kind = g.column("kind").to_numpy(zero_copy_only=False)
    tf = g.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    sp = np.zeros(len(a), np.int64)

    def fold(codes, mask):
        """Sums of ``tf`` over the rows selected by ``mask``, grouped by
        int ``codes``, scattered back to those rows (float64 sums of
        ints: exact below 2**53)."""
        c = codes[mask]
        return np.bincount(c, weights=tf[mask])[c]

    bi = kind == 1
    if bi.any():
        ab = np.unique(a.astype(np.int64) * (int(b.max()) + 1) + b,
                       return_inverse=True)[1]
        lp = np.floor(np.log((fold(ab, bi) + 1.0) / (fold(a, bi) + vocab))
                      * 1000.0 + 0.5).astype(np.int64)
        sp[bi] = tf[bi] * lp
    ft = kind == 0
    if ft.any():
        lp = np.floor(np.log((fold(a, ft) + 1.0) / (n_docs + vocab))
                      * 1000.0 + 0.5).astype(np.int64)
        sp[ft] = tf[ft] * lp
    return pa.table({"doc_id": g.column("doc_id"),
                     "score_permille": pa.array(sp)})


def bigram_logprob_score(sf_dir: str,
                         num_partitions: int = 32) -> ray.data.Dataset:
    """Corpus-LM quality scoring, one order up from
    ``unigram_logprob_score``: train a Laplace-smoothed BIGRAM language
    model on the whole corpus and score every document by total
    log-likelihood — the KenLM-perplexity-filter shape of CCNet-style
    curation. Per-bigram log-prob is the integer permille
    ``floor(ln((c(a,b)+1)/(c(a)+V)) * 1000 + 0.5)`` (c(a) = occurrences
    of ``a`` as a bigram left element, V = exact distinct vocabulary);
    each document's FIRST token scores against the start-of-doc
    distribution ``floor(ln((c_first(a)+1)/(n_docs+V)) * 1000 + 0.5)``.
    Shared float64 row-rounding convention (tfidf_top_terms), so the
    SQL oracle matches bit-exactly. Returns (doc_id, score_permille).

    Scale shape: the bigram vocabulary is unbounded so nothing is
    broadcast — ONE exchange keyed by hash(LEFT token) co-locates every
    (a, b) bigram row AND every first-token row of ``a``; the owning
    partition folds c(a,b), c(a) and c_first(a) in place (bincounts
    over dictionary codes) and scores rows locally; a keyed sum by doc
    finishes. The only driver scalars are n_docs and V (V's distinct
    count is one exchange of 64-bit token digests, never tokens;
    collision odds ~V^2/2^64)."""
    docs = read_documents(sf_dir, columns=["doc_id", "text"])
    n_docs = docs.count()

    vocab = float(sum(
        t.column("n").to_numpy().sum() for t in collect_tables(
            read_documents(sf_dir, columns=["text"])
            .map_batches(_vocab_hashes, batch_format="pyarrow",
                         fn_kwargs={"num_partitions": num_partitions})
            .fx_map_groups(_n_distinct))))

    from ..stages.exchange import fx_sum_by
    return fx_sum_by(
        docs.map_batches(_bigram_grams, batch_format="pyarrow",
                         fn_kwargs={"num_partitions": num_partitions})
        .fx_map_groups(functools.partial(_bigram_scores, vocab=vocab,
                                         n_docs=n_docs), part_col="apart"),
        ["doc_id"], ["score_permille"])


def zipf_fit(sf_dir: str, k: int = 100) -> pa.Table:
    """Zipf's-law fit of the corpus token-frequency distribution:
    ordinary least squares of ln(count) on ln(rank) over the top-``k``
    tokens (ties rank by token asc — the doc_frequency convention). A
    healthy natural-language corpus fits slope ~ -1; a flat or cliffed
    slope flags templated/synthetic text — the corpus-health scalar
    next to source_divergence. Returns ONE row
    (k_used, slope_micro, intercept_micro): both coefficients
    floor(x * 1e6 + 0.5)-quantized — the quantum is ~1e8 times any
    float64 summation-order noise, so the SQL oracle reproduces them.

    Scale shape: identical to doc_frequency — per-block (token, count)
    partials, one native distributed sum keyed by token, per-block
    local top-k bounding the driver fold at k x blocks rows; the
    regression itself is O(k) driver arithmetic."""

    def tf_partial(t: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(t.column("text"))
        words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
        agg = pa.table({"token": words.flatten()}).group_by(
            "token").aggregate([("token", "count")])
        return pa.table({"token": agg.column("token"),
                         "cnt": agg.column("token_count")})

    def local_topk(t: pa.Table) -> pa.Table:
        cnt = t.column("cnt").to_numpy(zero_copy_only=False)
        tok = t.column("token").to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -cnt))[:k]
        return pa.table({
            "token": t.column("token").take(pa.array(order)),
            "cnt": pa.array(cnt[order].astype(np.int64)),
        })

    from ..stages.exchange import fx_sum_by
    cand_ds = fx_sum_by(
        read_documents(sf_dir, columns=["text"])
        .map_batches(tf_partial, batch_format="pyarrow"),
        ["token"], ["cnt"]
    ).map_batches(local_topk, batch_format="pyarrow")
    tables = [t for t in collect_tables(cand_ds) if t.num_rows]
    empty = pa.table({"k_used": pa.array([], pa.int64()),
                      "slope_micro": pa.array([], pa.int64()),
                      "intercept_micro": pa.array([], pa.int64())})
    if not tables:
        return empty
    cand = pa.concat_tables(tables, promote_options="default")
    cnt = cand.column("cnt").to_numpy(zero_copy_only=False)
    tok = cand.column("token").to_numpy(zero_copy_only=False)
    order = np.lexsort((tok, -cnt))[:k]
    n = len(order)
    if n < 2:
        return empty
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(cnt[order].astype(np.float64))
    # plain-sum OLS in rank order — the exact float64 expression the
    # SQL oracle evaluates over the same rank-ordered k rows
    # closed-form OLS from rank-ordered sums; the 1e-6 quantization
    # dwarfs any float64 summation-order difference vs the SQL twin
    # (~1e-14 relative over k<=100 terms)
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return pa.table({
        "k_used": pa.array([n], pa.int64()),
        "slope_micro": pa.array(
            [int(np.floor(slope * 1e6 + 0.5))], pa.int64()),
        "intercept_micro": pa.array(
            [int(np.floor(intercept * 1e6 + 0.5))], pa.int64()),
    })


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "approx_top_tokens",
    "bigram_logprob_score",
    "bm25_topk",
    "bpe_token_count",
    "doc_frequency",
    "dsir_weights",
    "fingerprint",
    "lang_id",
    "pmi_bigrams",
    "profile_documents",
    "quality_score",
    "quantile_band_docs",
    "rank_auc",
    "redact_pii",
    "repetition_score",
    "skyline_docs",
    "source_divergence",
    "spearman_chars_tokens",
    "tfidf_top_terms",
    "token_count",
    "top_docs_per_source",
    "top_tokens_by_source",
    "type_token_ratio",
    "unigram_logprob_score",
    "zipf_fit",
))
