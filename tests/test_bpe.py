"""Trained-BPE vocabulary build: the distributed word-count +
incremental merge loop must match an INDEPENDENT naive-recount BPE
(textbook Sennrich: full pair recount every round) on the real corpus,
be partition-count invariant, and the trained token counts must obey
the BPE contraction laws."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aqueduct_core_ray.functions.bpe import (
    _PRETOKEN_RE,
    _pretoken_counts,
    encode_word,
    train_bpe,
    trained_token_count,
)
from aqueduct_core_ray.functions.text import bpe_token_count_batch

SF = "/root/testdata/sf0.001"


def _naive_bpe(word_counts: dict[str, int],
               num_merges: int) -> list[tuple[str, str]]:
    """Textbook BPE with a FULL pair recount per round — deliberately
    different code from the engine's incremental loop. Same tie-break:
    max count, then lexicographically smallest pair."""
    seqs = {w: list(w) for w in word_counts}
    merges = []
    for _ in range(num_merges):
        pairs: Counter = Counter()
        for w, seq in seqs.items():
            f = word_counts[w]
            for p in zip(seq, seq[1:]):
                pairs[p] += f
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pairs[best] <= 0:
            break
        merges.append(best)
        a, b = best
        for w, seq in seqs.items():
            out, j = [], 0
            while j < len(seq):
                if j + 1 < len(seq) and seq[j] == a and seq[j + 1] == b:
                    out.append(a + b)
                    j += 2
                else:
                    out.append(seq[j])
                    j += 1
            seqs[w] = out
    return merges


def _corpus_word_counts() -> dict[str, int]:
    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"]).column("text").to_pylist()
    c: Counter = Counter()
    for s in texts:
        c.update(_PRETOKEN_RE.findall(s))
    return dict(c)


def test_train_bpe_matches_naive_reference():
    t = train_bpe(SF, num_merges=60, max_words=1 << 30)
    got = list(zip(t.column("left").to_pylist(),
                   t.column("right").to_pylist()))
    want = _naive_bpe(_corpus_word_counts(), 60)
    assert got == want
    # merged column is the concatenation, ranks are 0..n-1
    assert t.column("merged").to_pylist() == [a + b for a, b in got]
    assert t.column("rank").to_pylist() == list(range(len(got)))


def test_train_bpe_partition_invariant(parts):
    parts(4)
    a = train_bpe(SF, num_merges=40)
    parts(16)
    b = train_bpe(SF, num_merges=40)
    assert a.equals(b)


def test_max_words_truncation_still_deterministic(parts):
    a = train_bpe(SF, num_merges=30, max_words=500)
    parts(7)
    b = train_bpe(SF, num_merges=30, max_words=500)
    assert a.equals(b)
    assert 0 < a.num_rows <= 30


def test_trained_token_count_contracts():
    """BPE contraction laws: with 0 merges n_tok_trained equals the
    total pretoken character count; more merges never increase any
    doc's count; the distributed memoized counter agrees with a direct
    per-doc encode."""
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    base = {d: sum(len(w) for w in _PRETOKEN_RE.findall(s))
            for d, s in zip(docs.column("doc_id").to_pylist(),
                            docs.column("text").to_pylist())}

    t0 = trained_token_count(SF, num_merges=0).to_pandas() \
        .set_index("doc_id")["n_tok_trained"]
    assert {d: int(v) for d, v in t0.items()} == base

    t64 = trained_token_count(SF, num_merges=64).to_pandas() \
        .set_index("doc_id")["n_tok_trained"]
    assert (t64 <= t0.loc[t64.index]).all()
    assert (t64 < t0.loc[t64.index]).any()      # merges actually bite

    # spot-check the memoized actor path against a direct encode
    merges = train_bpe(SF, num_merges=64)
    rank = {(l, r): i for i, (l, r) in enumerate(
        zip(merges.column("left").to_pylist(),
            merges.column("right").to_pylist()))}
    rng = np.random.default_rng(7)
    ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    for i in rng.choice(len(ids), size=10, replace=False):
        want = sum(encode_word(w, rank)
                   for w in _PRETOKEN_RE.findall(texts[i]))
        assert int(t64.loc[ids[i]]) == want


@pytest.mark.parametrize("text", ["a\xa0b", "x\x0by", "p\u2003q"])
def test_pretokenizers_split_whitespace_alike(text):
    """The Python ``re`` pretokenizer (train_bpe, trained_token_count)
    and the RE2 count (``bpe_token_count_batch``, the SQL oracle's
    engine) see the same pretokens: a space RE2's ``\\s`` does not
    match is a punctuation pretoken on both sides."""
    t = pa.table({"doc_id": [0], "text": [text]})
    re2 = bpe_token_count_batch(t).column("n_tok_bpe")[0].as_py()
    assert re2 == 3
    assert len(_PRETOKEN_RE.findall(text)) == re2
    assert sum(_pretoken_counts(t).column("count").to_pylist()) == re2
