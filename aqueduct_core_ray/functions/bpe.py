"""Trained-BPE vocabulary build over the documents corpus — the
classic Sennrich word-frequency formulation (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units"), made
Ray-Data-first:

1. DISTRIBUTED WORD COUNT (the only corpus-scale work): the
   exchange's writer tasks read the corpus as a parquet leaf and
   pretokenize each block with the shared GPT-2-flavor
   ``BPE_PATTERN`` (functions/text.py — leading spaces stay attached,
   acting as the word-boundary marker) with one ``findall`` per ~1 MB
   slice of the block's "\\n"-joined texts, then count the pretokens
   with Arrow group_bys into per-block (word, count) partials (no
   per-document Python loop); ONE hash exchange on the word
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
runs as raw ``exchange.map_blocks`` tasks over the documents leaf: the
merge table ships once as an object-store ref, and each task loads the
ranks and memoizes the encoding of every distinct pretoken (Zipf makes
the hit rate ~1), so the per-block work is a dict lookup per token,
not a merge loop per occurrence.

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
from .text import BPE_PATTERN, _docs, _per_doc

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


# text bytes one findall of ``_pretoken_counts`` reads: bounds a
# writer's working set (the joined str and its list of pretoken
# objects) whatever the block's size
PRETOKEN_SLICE_BYTES = 1 << 20


def _pretoken_counts(t: pa.Table) -> pa.Table:
    """(word, count) of a block's ``BPE_PATTERN`` pretokens (a null
    text counts as empty). The texts go in slices of about
    ``PRETOKEN_SLICE_BYTES``, each ONE findall over its texts joined
    by "\\n" and counted by an Arrow group_by; one group_by sums the
    slices' counts. No pretoken can hold a "\\n" (the pattern's arms
    are literals, letters, digits or non-whitespace runs), so no match
    spans two texts and the counts are the per-text findalls'."""
    parts = []
    for col in t.column("text").chunks:
        ends = np.cumsum(pc.binary_length(col).fill_null(0).to_numpy())
        total = int(ends[-1]) if len(ends) else 0
        cuts = np.unique(np.concatenate([
            [0], np.searchsorted(ends, np.arange(
                PRETOKEN_SLICE_BYTES, total, PRETOKEN_SLICE_BYTES),
                side="right"), [len(col)]]))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            joined = pc.binary_join(pa.ListArray.from_arrays(
                pa.array([0, hi - lo], pa.int32()),
                col.slice(lo, hi - lo).fill_null("")),
                pa.scalar("\n", col.type))
            found = pa.array(_PRETOKEN_RE.findall(joined[0].as_py()),
                             pa.string())
            parts.append(pa.table({"word": found}).group_by("word")
                         .aggregate([("word", "count")]))
    g = (pa.concat_tables(parts) if parts else pa.table(
        {"word_count": pa.array([], pa.int64()),
         "word": pa.array([], pa.string())})
         ).group_by("word").aggregate([("word_count", "sum")])
    return pa.table({"word": g.column("word"),
                     "count": g.column("word_count_sum")})


def _word_count_table(sf_dir: str, max_words: int
                      ) -> tuple[list[str], np.ndarray]:
    """(words, counts) of the corpus's ``max_words`` most frequent
    pretokens (ties broken lexicographically for determinism). One
    exchange keyed on the word over the documents leaf, the partial
    count running in its writers; only P local heads come back to
    fold."""
    tabs = [t for t in ray.get(exchange.file_exchange_map_groups(
        _docs(sf_dir, ["text"]),
        functools.partial(_word_head, max_words=max_words),
        keys=["word"], pre=_pretoken_counts).refs) if t.num_rows > 0]
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
              max_words: int = 100_000) -> pa.Table:
    """Train a BPE merge list over the corpus; returns the ordered
    merge table (rank, left, right, merged) — deterministic for a
    given corpus/config at any partition count or cluster size."""
    words, counts = _word_count_table(sf_dir, max_words)
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
    """Per-block stage: token counts under a TRAINED merge list. The
    merge table ships once via the object store (``merges_ref``); each
    call (one task) loads the ranks from it, and a per-task memo caches
    each distinct pretoken's encoded length (Zipfian corpus -> ~1 memo
    hit per occurrence)."""

    def __init__(self, merges_ref):
        self._merges = merges_ref

    def __call__(self, t: pa.Table) -> pa.Table:
        m = ray.get(self._merges)
        rank = {(l, r): i for i, (l, r) in enumerate(
            zip(m.column("left").to_pylist(),
                m.column("right").to_pylist()))}
        memo: dict[str, int] = {}
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
                        max_words: int = 100_000) -> ray.data.Dataset:
    """Per-doc token counts under a vocabulary TRAINED on the same
    corpus (train_bpe + a per-block encode) — the end-to-end
    tokenizer-fitting pipeline a pretraining run executes."""
    merges_ref = ray.put(train_bpe(sf_dir, num_merges, max_words))
    return _per_doc(sf_dir, ["doc_id", "text"],
                    TrainedBpeCounter(merges_ref))


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
