"""Trained-BPE vocabulary build over the documents corpus — the
classic Sennrich word-frequency formulation (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units"), made
Ray-Data-first:

1. DISTRIBUTED WORD COUNT (the only corpus-scale work): the
   exchange's writer tasks read the corpus as a parquet leaf and
   pretokenize every document with the shared
   GPT-2-flavor ``BPE_PATTERN`` (functions/text.py — leading spaces
   stay attached, acting as the word-boundary marker) and emits
   per-block (word, count) partials; ONE hash exchange on the word
   lands exact counts per partition; each partition keeps only its
   local top-``max_words`` and the driver folds P small heads. The
   merge loop's input is therefore corpus-size-INDEPENDENT
   (≤ max_words rows) — the standard practical truncation, since BPE
   merge decisions are driven by the high-frequency head of the
   Zipfian word distribution.
2. MERGE LOOP (driver-side, corpus-size-independent): greedy
   highest-count pair merges over the word-frequency table with
   incremental pair-count maintenance (only the words containing the
   merged pair are touched per round). Deterministic tie-break: max
   count, then lexicographically smallest (left, right) pair — stable
   across runs, partition counts and cluster sizes.

Token counting with the trained vocabulary (``trained_token_count``)
runs as an ACTOR-POOL ``map_batches`` stage: the merge ranks load once
per actor in ``__init__`` and a per-actor memo caches the encoding of
every distinct pretoken (Zipf makes the hit rate ~1), so the per-batch
work is a dict lookup per token, not a merge loop per occurrence.

No reference analog (aqueduct-core moves opaque payloads); this is the
"beyond the reference" training-data mandate. Not SQL-expressible
(iterative greedy algorithm) — correctness is pinned against an
independent naive-recount BPE implementation in tests/test_bpe.py.
"""

from __future__ import annotations

import functools
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages import exchange
from ..stages.exchange import dict_encode
from .text import BPE_PATTERN, hash_str_array, read_documents

_PRETOKEN_RE = re.compile(BPE_PATTERN)

MERGE_SCHEMA = pa.schema([
    pa.field("rank", pa.int64()),
    pa.field("left", pa.string()),
    pa.field("right", pa.string()),
    pa.field("merged", pa.string()),
])


def _word_head(g: pa.Table, max_words: int) -> pa.Table:
    """The ``max_words`` most frequent words of a (word, count) table,
    counts summed per word; ties by word asc. Runs on dictionary codes:
    Arrow sorts strings by UTF-8 bytes, which is code-point (Python
    str) order."""
    d = dict_encode(g.column("word"))
    sums = np.bincount(d.indices.to_numpy(),       # exact below 2**53
                       weights=g.column("count").to_numpy(),
                       minlength=len(d.dictionary)).astype(np.int64)
    rank = np.empty(len(d.dictionary), np.int64)
    rank[pc.sort_indices(d.dictionary).to_numpy()] = np.arange(
        len(d.dictionary))
    head = np.lexsort((rank, -sums))[:max_words]
    return pa.table({"word": d.dictionary.take(head),
                     "count": pa.array(sums[head])})


def _word_count_table(sf_dir: str, num_partitions: int,
                      max_words: int) -> tuple[list[str], np.ndarray]:
    """(words, counts) of the corpus's ``max_words`` most frequent
    pretokens (ties broken lexicographically for determinism). One
    file exchange over the documents leaf, the partial count running
    in its writers; only P local heads come back to fold."""

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s in t.column("text").to_pylist():
            c.update(_PRETOKEN_RE.findall(s))
        words = list(c.keys())
        h = hash_str_array(np.asarray(words, dtype=object))
        return pa.table({
            "part": pa.array((h % np.uint64(num_partitions))
                             .astype(np.int32)),
            "word": pa.array(words, pa.string()),
            "count": pa.array([c[w] for w in words], pa.int64()),
        })

    tabs = [t for t in ray.get(exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/documents.parquet", ["text"]),
        functools.partial(_word_head, max_words=max_words),
        pre=partial).refs) if t.num_rows > 0]
    if not tabs:
        return [], np.empty(0, np.int64)
    # the parts hold disjoint words: the head of their heads is global
    t = _word_head(pa.concat_tables(tabs), max_words)
    return (t.column("word").to_pylist(),
            t.column("count").to_numpy().astype(np.int64))


def _merge_loop(words: list[str], counts: np.ndarray,
                num_merges: int) -> list[tuple[str, str]]:
    """Greedy BPE merges over a word-frequency table with INCREMENTAL
    pair-count maintenance: ``pair_counts`` and the pair -> word-ids
    index are updated only for words containing the merged pair —
    O(affected words) per round instead of a full recount. Tie-break:
    max count, then lexicographically smallest pair (deterministic)."""
    seqs: list[list[str]] = [list(w) for w in words]
    freqs = counts.tolist()
    pair_counts: Counter = Counter()
    where: dict[tuple[str, str], set[int]] = {}
    for i, seq in enumerate(seqs):
        f = freqs[i]
        for a, b in zip(seq, seq[1:]):
            pair_counts[(a, b)] += f
            where.setdefault((a, b), set()).add(i)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_counts:
            break
        # deterministic argmax: count desc, pair asc
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_counts[best] <= 0:
            break
        merges.append(best)
        a, b = best
        ab = a + b
        for i in list(where.get(best, ())):
            seq, f = seqs[i], freqs[i]
            # retract this word's pair contributions, rewrite, re-add
            for p in zip(seq, seq[1:]):
                pair_counts[p] -= f
                if pair_counts[p] <= 0:
                    del pair_counts[p]
                s = where.get(p)
                if s is not None:
                    s.discard(i)
                    if not s:
                        del where[p]
            out: list[str] = []
            j = 0
            while j < len(seq):
                if j + 1 < len(seq) and seq[j] == a and seq[j + 1] == b:
                    out.append(ab)
                    j += 2
                else:
                    out.append(seq[j])
                    j += 1
            seqs[i] = out
            for p in zip(out, out[1:]):
                pair_counts[p] += f
                where.setdefault(p, set()).add(i)
    return merges


def train_bpe(sf_dir: str, num_merges: int = 200,
              max_words: int = 100_000,
              num_partitions: int = 16) -> pa.Table:
    """Train a BPE merge list over the corpus; returns the ordered
    merge table (rank, left, right, merged) — deterministic for a
    given corpus/config at any partition count or cluster size."""
    words, counts = _word_count_table(sf_dir, num_partitions, max_words)
    merges = _merge_loop(words, counts, num_merges)
    return pa.table({
        "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
        "left": pa.array([a for a, _ in merges], pa.string()),
        "right": pa.array([b for _, b in merges], pa.string()),
        "merged": pa.array([a + b for a, b in merges], pa.string()),
    }, schema=MERGE_SCHEMA)


def encode_word(word: str, rank: dict[tuple[str, str], int]) -> int:
    """Length of one pretoken under the trained merges: repeatedly
    apply the lowest-rank applicable merge (the canonical BPE encode).
    Shared by the distributed counter and the test oracle."""
    seq = list(word)
    while len(seq) > 1:
        best_r, best_j = None, -1
        for j in range(len(seq) - 1):
            r = rank.get((seq[j], seq[j + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_r, best_j = r, j
        if best_r is None:
            break
        seq[best_j:best_j + 2] = [seq[best_j] + seq[best_j + 1]]
    return len(seq)


class TrainedBpeCounter:
    """Actor-pool stage: token counts under a TRAINED merge list. The
    rank table ships once via the object store and loads in __init__;
    a per-actor memo caches each distinct pretoken's encoded length
    (Zipfian corpus -> ~1 memo hit per occurrence)."""

    def __init__(self, merges_ref):
        t = ray.get(merges_ref)
        self._rank = {(l, r): i for i, (l, r) in enumerate(
            zip(t.column("left").to_pylist(),
                t.column("right").to_pylist()))}
        self._memo: dict[str, int] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        memo, rank = self._memo, self._rank
        out = np.empty(t.num_rows, np.int64)
        for i, s in enumerate(t.column("text").to_pylist()):
            n = 0
            for w in _PRETOKEN_RE.findall(s):
                v = memo.get(w)
                if v is None:
                    v = memo[w] = encode_word(w, rank)
                n += v
            out[i] = n
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_tok_trained": pa.array(out)})


def trained_token_count(sf_dir: str, num_merges: int = 200,
                        max_words: int = 100_000,
                        concurrency: "int | tuple[int, int] | None" = None
                        ) -> ray.data.Dataset:
    """Per-doc token counts under a vocabulary TRAINED on the same
    corpus (train_bpe + actor-pool encode) — the end-to-end
    tokenizer-fitting pipeline a pretraining run executes. The pool is
    AUTOSCALING by default (functions.text.actor_pool_size) — a fixed
    pool equal to the CPU count starves the read stage and wedges the
    pipeline on small clusters."""
    from .text import actor_pool_size

    merges_ref = ray.put(train_bpe(sf_dir, num_merges, max_words))
    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        TrainedBpeCounter, fn_constructor_args=(merges_ref,),
        concurrency=concurrency or actor_pool_size(),
        batch_format="pyarrow")


def bpe_vocab(sf_dir: str, num_merges: int = 120) -> pa.Table:
    """queries() entry: the trained merge table on the sf corpus."""
    return train_bpe(sf_dir, num_merges=num_merges)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "bpe_vocab",
))
