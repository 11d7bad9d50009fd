"""The text exchanges' kernels run on Arrow dictionary codes; each must
equal the object-array kernel it replaced, kept here as the oracle:
``hash_str_array`` on Arrow input (hash each distinct value once),
tf-idf / unigram / bigram partition tasks, the bigram vocabulary
digests and the BPE word head. Also pins ``collect_tables``: the same
tables as ``ray.get(ds.to_arrow_refs())`` from one execution.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from aqueduct_core_ray.functions import text
from aqueduct_core_ray.functions.bpe import _word_head
from aqueduct_core_ray.stages.exchange import collect_tables, hash_str_array


# ---------------------------------------------------------------- oracles
def old_hash(arr) -> np.ndarray:
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = arr.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np.asarray(arr, dtype=object),
                              categorize=False)


def old_tf_rows(t: pa.Table, P: int) -> pa.Table:
    txt = pc.utf8_trim_whitespace(t.column("text"))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    dids = t.column("doc_id").to_numpy(zero_copy_only=False)
    pairs = pa.table({"doc_id": pa.array(np.repeat(dids, counts)),
                      "token": words.flatten()})
    agg = pairs.group_by(["doc_id", "token"]).aggregate(
        [("token", "count")])
    return pa.table({
        "tpart": pa.array((old_hash(agg.column("token")) % np.uint64(P))
                          .astype(np.int32)),
        "doc_id": agg.column("doc_id"),
        "token": agg.column("token"),
        "tf": agg.column("token_count"),
    })


def old_tfidf_scores(g: pa.Table, n_docs: int, P: int) -> pa.Table:
    tok = g.column("token").to_numpy(zero_copy_only=False)
    tf = g.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(tok, kind="stable")
    tok_s = tok[order]
    starts = np.flatnonzero(np.concatenate([[True],
                                            tok_s[1:] != tok_s[:-1]]))
    sizes = np.diff(np.append(starts, len(tok_s)))
    df = np.empty(len(tok_s), np.int64)
    df[order] = np.repeat(sizes, sizes)
    idf = np.log((n_docs + 1.0) / (df + 1.0))
    score = np.floor(tf * idf * 1000.0 + 0.5).astype(np.int64)
    return pa.table({
        "dpart": pa.array((old_hash(g.column("doc_id")) % np.uint64(P))
                          .astype(np.int32)),
        "doc_id": g.column("doc_id"),
        "token": g.column("token"),
        "tf": pa.array(tf),
        "score_permille": pa.array(score),
    })


def old_tfidf_topk(g: pa.Table, k: int) -> pa.Table:
    doc = g.column("doc_id").to_numpy(zero_copy_only=False)
    tok = g.column("token").to_numpy(zero_copy_only=False)
    sc = g.column("score_permille").to_numpy(zero_copy_only=False)
    order = np.lexsort((tok, -sc, doc))
    d_s = doc[order]
    starts = np.flatnonzero(np.concatenate([[True], d_s[1:] != d_s[:-1]]))
    sizes = np.diff(np.append(starts, len(d_s)))
    pos = np.arange(len(d_s)) - np.repeat(starts, sizes)
    keep = order[pos < k]
    return pa.table({
        "doc_id": g.column("doc_id").take(pa.array(keep)),
        "token": g.column("token").take(pa.array(keep)),
        "tf": g.column("tf").take(pa.array(keep)),
        "score_permille": g.column("score_permille").take(pa.array(keep)),
        "rk": pa.array((pos[pos < k] + 1).astype(np.int64)),
    })


def old_unigram_scores(g: pa.Table, total: float) -> pa.Table:
    tok = g.column("token").to_numpy(zero_copy_only=False)
    tf = g.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(tok, kind="stable")
    tok_s, tf_s = tok[order], tf[order]
    starts = np.flatnonzero(np.concatenate([[True],
                                            tok_s[1:] != tok_s[:-1]]))
    cnt_per_group = np.add.reduceat(tf_s, starts)
    sizes = np.diff(np.append(starts, len(tok_s)))
    cnt = np.empty(len(tok_s), np.int64)
    cnt[order] = np.repeat(cnt_per_group, sizes)
    lp = np.floor(np.log(cnt / total) * 1000.0 + 0.5).astype(np.int64)
    return pa.table({"doc_id": g.column("doc_id"), "n_tok": pa.array(tf),
                     "score_permille": pa.array(tf * lp)})


def old_vocab_hashes(t: pa.Table) -> np.ndarray:
    txt = pc.utf8_trim_whitespace(t.column("text"))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    return np.unique(old_hash(words.flatten())).view(np.int64)


def old_bigram_grams(t: pa.Table, P: int) -> pa.Table:
    txt = pc.utf8_trim_whitespace(t.column("text"))
    words = pc.split_pattern_regex(txt, r"\s+").combine_chunks()
    cnt = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    flat = words.flatten().to_numpy(zero_copy_only=False)
    dids = t.column("doc_id").to_numpy(zero_copy_only=False)
    starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    nb = np.maximum(cnt - 1, 0)
    seg = np.arange(int(nb.sum())) - np.repeat(np.cumsum(nb) - nb, nb)
    a_idx = np.repeat(starts, nb) + seg
    first = flat[starts]
    g = pa.table({
        "doc_id": pa.array(np.concatenate([np.repeat(dids, nb), dids])),
        "a": pa.array(np.concatenate([flat[a_idx], first])),
        "b": pa.array(np.concatenate(
            [flat[a_idx + 1], np.full(len(dids), "", object)])),
        "kind": pa.array(np.concatenate([np.ones(len(a_idx), np.int8),
                                         np.zeros(len(dids), np.int8)])),
        "tf": pa.array(np.ones(len(a_idx) + len(dids), np.int64)),
    })
    agg = g.group_by(["doc_id", "a", "b", "kind"]).aggregate(
        [("tf", "sum")])
    return pa.table({
        "apart": pa.array((old_hash(agg.column("a")) % np.uint64(P))
                          .astype(np.int32)),
        "doc_id": agg.column("doc_id"),
        "a": agg.column("a"),
        "b": agg.column("b"),
        "kind": agg.column("kind"),
        "tf": agg.column("tf_sum"),
    })


def old_bigram_scores(g: pa.Table, vocab: float, n_docs: int) -> pa.Table:
    a = g.column("a").to_numpy(zero_copy_only=False)
    b = g.column("b").to_numpy(zero_copy_only=False)
    kind = g.column("kind").to_numpy(zero_copy_only=False)
    tf = g.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
    sp = np.zeros(len(a), np.int64)

    def fold(keys_tuple, vals, mask):
        idx = np.flatnonzero(mask)
        order = idx[np.lexsort(tuple(k[idx] for k in keys_tuple))]
        change = np.zeros(len(order), bool)
        change[0:1] = True
        for k in keys_tuple:
            change[1:] |= k[order][1:] != k[order][:-1]
        starts = np.flatnonzero(change)
        sums = np.add.reduceat(vals[order], starts)
        sizes = np.diff(np.append(starts, len(order)))
        full = np.zeros(len(a), np.int64)
        full[order] = np.repeat(sums, sizes)
        return full

    bi = kind == 1
    if bi.any():
        c_ab = fold((b, a), tf, bi)
        c_a = fold((a,), tf, bi)
        lp = np.floor(np.log((c_ab[bi] + 1.0) / (c_a[bi] + vocab))
                      * 1000.0 + 0.5).astype(np.int64)
        sp[bi] = tf[bi] * lp
    ft = kind == 0
    if ft.any():
        c_f = fold((a,), tf, ft)
        lp = np.floor(np.log((c_f[ft] + 1.0) / (n_docs + vocab))
                      * 1000.0 + 0.5).astype(np.int64)
        sp[ft] = tf[ft] * lp
    return pa.table({"doc_id": g.column("doc_id"),
                     "score_permille": pa.array(sp)})


def old_word_head(g: pa.Table, max_words: int) -> pa.Table:
    w = np.asarray(g.column("word").to_pylist(), dtype=object)
    n = g.column("count").to_numpy(zero_copy_only=False)
    order = np.argsort(w, kind="stable")
    w, n = w[order], n[order]
    starts = np.flatnonzero(np.concatenate([[True], w[1:] != w[:-1]]))
    words = w[starts]
    sums = np.add.reduceat(n.astype(np.int64), starts)
    head = np.lexsort((words, -sums))[:max_words]
    return pa.table({"word": pa.array(words[head], pa.string()),
                     "count": pa.array(sums[head])})


# ---------------------------------------------------------------- corpora
# non-ASCII, case-only-different and prefix-sharing tokens; Python's str
# order (code points) must survive the move to Arrow's UTF-8 byte order
VOCAB = ["word", "Word", "WORD", "wörd", "é", "e", "日本", "日", "Ω", "z",
         "a", "ab", "abc", "_", "0", "ß", "🙂", "naïve"]


def corpus_blocks(seed: int, n_docs: int = 120, n_blocks: int = 3
                  ) -> "list[pa.Table]":
    """Random documents split into blocks (one doc per block): a small
    vocabulary drawn Zipf-like gives repeated tokens and score ties;
    one-token, empty and whitespace-only texts are mixed in."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    texts = []
    for i in range(n_docs):
        r = rng.random()
        if r < 0.05:
            texts.append("")
        elif r < 0.08:
            texts.append("   ")
        elif r < 0.2:
            texts.append(str(rng.choice(VOCAB)))
        else:
            n = int(rng.integers(2, 25))
            toks = rng.choice(VOCAB, size=n, p=p / p.sum()).tolist()
            seps = rng.choice([" ", "  ", "\t", "\n"], size=n).tolist()
            texts.append(" " + "".join(t + s for t, s in zip(toks, seps)))
    doc_id = rng.permutation(10 * n_docs)[:n_docs].astype(np.int64)
    t = pa.table({"doc_id": doc_id, "text": pa.array(texts, pa.string())})
    cuts = np.linspace(0, n_docs, n_blocks + 1).astype(int)
    return [t.slice(int(a), int(b - a)) for a, b in zip(cuts, cuts[1:])]


def partitions(rows: pa.Table, col: str) -> "list[pa.Table]":
    """The exchange's view: every row of one part, part column kept,
    gathered from several block outputs (a chunked table)."""
    parts = rows.column(col).to_numpy()
    return [rows.filter(pa.array(parts == p)) for p in np.unique(parts)]


def assert_tables_equal(got: pa.Table, want: pa.Table) -> None:
    assert got.schema == want.schema
    assert got.combine_chunks().equals(want.combine_chunks())


# ---------------------------------------------------------------- hashing
@pytest.mark.parametrize("case", ["random", "distinct", "equal", "ints",
                                  "ints_nulls", "empty", "all_null"])
def test_hash_str_array_matches_per_row_hash(case):
    rng = np.random.default_rng(7)
    pool = VOCAB + ["", " ", "a b", "\x00x", "ＡＢＣ"]
    if case == "random":
        vals = [None if rng.random() < 0.1 else str(rng.choice(pool))
                for _ in range(2000)]
        arr = pa.array(vals, pa.string())
    elif case == "distinct":
        arr = pa.array([f"tok{i}é" for i in range(3000)])
    elif case == "equal":
        arr = pa.array(["same"] * 500)
    elif case == "ints":
        arr = pa.array(rng.integers(-5, 50, 1000))
    elif case == "ints_nulls":
        arr = pa.array([None if i % 7 == 0 else i % 13
                        for i in range(500)], pa.int64())
    elif case == "empty":
        arr = pa.array([], pa.string())
    else:
        arr = pa.array([None] * 9, pa.string())
    want = old_hash(arr)
    assert hash_str_array(arr).tolist() == want.tolist()
    # chunked input (empty chunks included) and slices hash the same
    n = len(arr)
    chunked = pa.chunked_array([arr.slice(0, n // 3), arr.slice(n // 3, 0),
                                arr.slice(n // 3)], arr.type)
    assert hash_str_array(chunked).tolist() == want.tolist()
    assert (hash_str_array(arr.slice(n // 2)).tolist()
            == want[n // 2:].tolist())
    # the numpy path is the per-row hash
    assert hash_str_array(arr.to_numpy(zero_copy_only=False)
                          ).tolist() == want.tolist()


def test_hash_str_array_large_string_and_null_token():
    vals = ["x", None, "", "日本", "x"]
    want = old_hash(pa.array(vals))
    assert hash_str_array(pa.array(vals, pa.large_string())
                          ).tolist() == want.tolist()
    # a null hashes to the same digest as in the object-array path
    assert want[1] == old_hash(np.array([None], object))[0]


# ---------------------------------------------------------------- tf-idf
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("P", [1, 3, 16])
def test_tfidf_and_unigram_kernels_match_oracle(seed, P):
    blocks = corpus_blocks(seed)
    n_docs = sum(b.num_rows for b in blocks)
    tf_new = [text._tf_rows(b, P) for b in blocks]
    for got, b in zip(tf_new, blocks):
        assert_tables_equal(got, old_tf_rows(b, P))
    rows = pa.concat_tables(tf_new)
    total = float(pc.sum(rows.column("tf")).as_py())
    scored = []
    for g in partitions(rows, "tpart"):
        got = text._tfidf_scores(g, n_docs=n_docs, num_partitions=P)
        assert_tables_equal(got, old_tfidf_scores(g, n_docs, P))
        assert_tables_equal(text._unigram_scores(g, total=total),
                            old_unigram_scores(g, total))
        scored.append(got)
    for k in (1, 2, 5):
        for g in partitions(pa.concat_tables(scored), "dpart"):
            assert_tables_equal(text._tfidf_topk(g, k=k),
                                old_tfidf_topk(g, k))


def test_tfidf_topk_breaks_score_ties_by_code_point_order():
    g = pa.table({
        "doc_id": pa.array([3, 3, 3, 3, 3, 1], pa.int64()),
        "token": ["é", "z", "Z", "ｚ", "e", "b"],
        "tf": pa.array([1] * 6, pa.int64()),
        "score_permille": pa.array([5, 5, 5, 5, 9, 1], pa.int64())})
    got = text._tfidf_topk(g, k=4)
    assert_tables_equal(got, old_tfidf_topk(g, 4))
    assert got.column("token").to_pylist() == ["b", "e", "Z", "z", "é"]


# ---------------------------------------------------------------- bigram
@pytest.mark.parametrize("seed", [4, 5, 6])
@pytest.mark.parametrize("P", [1, 3, 16])
def test_bigram_kernels_match_oracle(seed, P):
    blocks = corpus_blocks(seed)
    n_docs = sum(b.num_rows for b in blocks)
    grams = [text._bigram_grams(b, P) for b in blocks]
    for got, b in zip(grams, blocks):
        assert_tables_equal(got, old_bigram_grams(b, P))
        h = text._vocab_hashes(b, P)
        assert h.column("h").to_numpy().tolist() == \
            old_vocab_hashes(b).tolist()
        assert (h.column("part").to_numpy().tolist()
                == (h.column("h").to_numpy().view(np.uint64)
                    % np.uint64(P)).astype(np.int32).tolist())
    vocab = float(len(np.unique(np.concatenate(
        [old_vocab_hashes(b) for b in blocks]))))
    for g in partitions(pa.concat_tables(grams), "apart"):
        assert_tables_equal(
            text._bigram_scores(g, vocab=vocab, n_docs=n_docs),
            old_bigram_scores(g, vocab, n_docs))


def test_vocab_distinct_count_over_the_exchange(tmp_path):
    """The bigram vocabulary is the number of distinct token digests,
    counted per digest partition over the file exchange."""
    blocks = corpus_blocks(9, n_docs=300)
    want = len(np.unique(np.concatenate(
        [old_vocab_hashes(b) for b in blocks])))
    ds = ray.data.from_arrow(blocks)
    for P in (1, 5):
        n = sum(t.column("n").to_numpy().sum() for t in collect_tables(
            ds.map_batches(text._vocab_hashes, batch_format="pyarrow",
                           fn_kwargs={"num_partitions": P})
            .fx_map_groups(text._n_distinct)))
        assert n == want


# ---------------------------------------------------------------- bpe
@pytest.mark.parametrize("max_words", [1, 4, 100])
def test_word_head_matches_oracle(max_words):
    rng = np.random.default_rng(11)
    words = rng.choice(VOCAB, size=400).tolist()
    counts = rng.integers(1, 4, 400)       # small counts: many ties
    g = pa.table({"part": pa.array(np.zeros(400, np.int32)),
                  "word": pa.array(words, pa.string()),
                  "count": pa.array(counts, pa.int64())})
    assert_tables_equal(_word_head(g, max_words),
                        old_word_head(g, max_words))


# ---------------------------------------------------------------- collect
@pytest.mark.parametrize("kind", ["arrow", "pandas", "empty"])
def test_collect_tables_equals_to_arrow_refs(kind):
    ds = ray.data.range(40, override_num_blocks=4)
    if kind == "pandas":
        ds = ds.map_batches(lambda d: d.assign(y=d["id"] * 2),
                            batch_format="pandas")
    elif kind == "empty":
        ds = ds.filter(lambda r: False)
    want = ray.get(ds.to_arrow_refs())
    got = collect_tables(ds)
    assert all(isinstance(t, pa.Table) for t in got)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.equals(b)


def test_collect_tables_executes_the_plan_once(tmp_path):
    log = str(tmp_path / "calls.log")

    def logged(t):
        with open(log, "a") as fh:
            fh.write("x\n")
        return t

    ds = ray.data.range(40, override_num_blocks=4).map_batches(
        logged, batch_format="pyarrow")
    got = collect_tables(ds)
    assert sum(t.num_rows for t in got) == 40
    with open(log) as fh:
        assert fh.read().count("x") == len(got) == 4
    os.remove(log)
