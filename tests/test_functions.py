"""Tests for the training-data operators (functions/): text analysis,
dedup family, similarity search, multimodal plumbing.

Dedup recall/precision is pinned with a crafted corpus containing exact
duplicates, near-duplicates (small edits), and unrelated documents —
LSH must surface the near-dup pairs and must not pair unrelated docs.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aqueduct_core_ray.functions import ann, dedup, multimodal, text

BASE = ("the quick brown fox jumps over the lazy dog while the rain "
        "in spain falls mainly on the plain and every good boy does fine "
        "with a long tail of extra filler words to make shingles stable "
        "across small edits of the ending section").split()


def _mk_docs(tmp_path, texts):
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array([f"src{i % 3}" for i in range(len(texts))]),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """0: base, 1: exact dup of 0, 2: near-dup of 0 (2 words changed),
    3/4: unrelated, 5: near-dup of 3."""
    rng = np.random.default_rng(5)
    other = " ".join(rng.choice(
        ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
         "theta", "iota", "kappa"], size=60).tolist())
    other2 = " ".join(rng.choice(
        ["one", "two", "three", "four", "five", "six", "seven", "eight"],
        size=60).tolist())
    near = list(BASE)
    near[-1], near[-2] = "paragraph", "changed"
    near3 = other.split()
    near3[0] = "prefix"
    texts = [" ".join(BASE), " ".join(BASE), " ".join(near),
             other, other2, " ".join(near3)]
    return _mk_docs(tmp_path_factory.mktemp("corpus"), texts)


# --------------------------------------------------------------------- #
def test_token_count_matches_split(corpus):
    got = {r["doc_id"]: r["n_tok"]
           for r in text.token_count(corpus).take_all()}
    t = pq.read_table(f"{corpus}/documents.parquet")
    for did, s in zip(t.column("doc_id").to_pylist(),
                      t.column("text").to_pylist()):
        assert got[did] == len(s.split())


def test_quality_metrics():
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["Hi there world", "123 456 !!"])})
    out = text.quality_batch(t).to_pylist()
    assert out[0]["n_words"] == 3 and out[0]["n_alpha"] == 12
    assert out[0]["is_quality"] == 0          # < 5 words
    assert out[1]["n_alpha"] == 0 and out[1]["is_quality"] == 0


def test_fingerprint_is_md5(corpus):
    got = {r["doc_id"]: r["fp"] for r in text.fingerprint(corpus).take_all()}
    t = pq.read_table(f"{corpus}/documents.parquet")
    for did, s in zip(t.column("doc_id").to_pylist(),
                      t.column("text").to_pylist()):
        assert got[did] == hashlib.md5(s.encode()).hexdigest()


def test_lang_id_markers(tmp_path):
    sf = _mk_docs(tmp_path, [
        "the cat and the dog are in the house",
        "der hund und die katze sind nicht hier",
        "le chat est dans la maison avec le chien",
        "el perro es una mascota como el gato",
        "qqqq wwww rrrr",                      # no markers -> und
    ])
    got = [r["lang_pred"] for r in
           sorted(text.lang_id(sf).take_all(), key=lambda r: r["doc_id"])]
    assert got == ["en", "de", "fr", "es", "und"]


# --------------------------------------------------------------------- #
def test_exact_dedup_keeps_min_doc_id(corpus):
    rows = dedup.exact_dedup(corpus).take_all()
    by_fp = {r["fp"]: r["doc_id"] for r in rows}
    assert len(rows) == 5                      # 6 docs, one exact dup
    t = pq.read_table(f"{corpus}/documents.parquet")
    fp0 = hashlib.md5(t.column("text")[0].as_py().encode()).hexdigest()
    assert by_fp[fp0] == 0                     # min doc_id survives


def test_minhash_lsh_finds_near_dups(corpus):
    pairs = {(r["doc_id_a"], r["doc_id_b"]): r["est_jaccard_pct"]
             for r in dedup.minhash_lsh_dedup(corpus).take_all()}
    assert (0, 1) in pairs and pairs[(0, 1)] == 100    # exact dup
    assert (0, 2) in pairs or (1, 2) in pairs          # near dup
    assert (3, 5) in pairs                             # near dup
    for a, b in pairs:
        assert not (a in (0, 1, 2) and b in (3, 4, 5)) or (a, b) == (3, 5), \
            f"unrelated docs paired: {(a, b)}"


def test_ngram_jaccard_verifies(corpus):
    pairs = {(r["doc_id_a"], r["doc_id_b"]): r["jaccard_pct"]
             for r in dedup.ngram_jaccard_dedup(corpus,
                                                min_jaccard_pct=50).take_all()}
    assert pairs[(0, 1)] == 100
    assert 50 <= pairs[(0, 2)] < 100
    assert (3, 4) not in pairs


def test_cc_min_label_transitive():
    """Path graph 0-1-2-3-4-5 plus {10,11}: one propagation hop per
    round would need 5 rounds; pointer jumping must label the whole
    path with 0 regardless, and never merge the two components."""
    import ray

    a = np.array([0, 1, 2, 3, 4, 10], np.int64)
    b = np.array([1, 2, 3, 4, 5, 11], np.int64)
    edges = pa.table({"src": pa.array(np.concatenate([a, b])),
                      "dst": pa.array(np.concatenate([b, a]))})
    lab = {r["node"]: r["lab"]
           for t in ray.get(dedup._cc_min_label([ray.put(edges)]))
           for r in t.to_pylist()}
    assert lab == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 10: 10, 11: 10}


def test_duplicate_clusters_and_keep(corpus):
    """corpus: {0,1,2} one near-dup cluster, {3,5} another, 4 singleton.
    Clusters carry the min member id; keep = representatives +
    singletons; keep ∪ dropped partitions the corpus."""
    cl = {r["doc_id"]: r["cluster_id"]
          for r in dedup.duplicate_clusters(
              corpus, min_jaccard_pct=50).take_all()}
    assert cl == {0: 0, 1: 0, 2: 0, 3: 3, 5: 3}
    kept = sorted(r["doc_id"]
                  for r in dedup.near_dedup_keep(
                      corpus, min_jaccard_pct=50).take_all())
    assert kept == [0, 3, 4]


def test_simhash_near_dups(corpus):
    pairs = {(r["doc_id_a"], r["doc_id_b"]): r["hamming"]
             for r in dedup.simhash_dedup(corpus, max_hamming=6).take_all()}
    assert pairs[(0, 1)] == 0                  # identical text
    assert (0, 2) in pairs                     # small edit, small distance
    assert (3, 4) not in pairs and (0, 3) not in pairs


def test_simhash_batch_deterministic(corpus):
    t = pq.read_table(f"{corpus}/documents.parquet")
    a = dedup.simhash_batch(t)
    b = dedup.simhash_batch(t)
    assert (a == b).all() and a[0] == a[1]


# --------------------------------------------------------------------- #
SF0001 = "/root/testdata/sf0.001"


def _numpy_knn(sf_dir, nq=3, k=5):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    E = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    out = {}
    for q in range(nq):
        s = En[ids == q][0] @ En.T
        order = np.lexsort((ids, -s))[:k]
        out[q] = [int(ids[i]) for i in order]
    return out


def test_knn_bruteforce_matches_numpy():
    got = {}
    for r in ann.knn_bruteforce(SF0001).take_all():
        got.setdefault(r["query_id"], []).append((r["knn_rank"], r["vec_id"]))
    want = _numpy_knn(SF0001)
    for q, pairs in got.items():
        assert [v for _, v in sorted(pairs)] == want[q]


def test_knn_ivf_recall():
    want = _numpy_knn(SF0001)
    got = {}
    for r in ann.knn_ivf(SF0001, nprobe=8).take_all():
        got.setdefault(r["query_id"], set()).add(r["vec_id"])
    recall = np.mean([len(got.get(q, set()) & set(want[q])) / len(want[q])
                      for q in want])
    assert recall >= 0.9                       # approximate by design


def test_knn_ivf_recall_query():
    row = ann.knn_ivf_recall(SF0001, nprobe=8).to_pylist()[0]
    assert row["n_exact"] == 15
    assert row["recall_pct"] >= 90


def test_ivf_index_prunes_cells():
    idx = ann.build_ivf_index(SF0001)
    import os
    cells = [d for d in os.listdir(f"{idx}/cells") if d.startswith("cell=")]
    assert len(cells) >= 2                    # assignment actually spread
    total = 0
    for c in cells:
        for fn in os.listdir(f"{idx}/cells/{c}"):
            total += pq.read_metadata(f"{idx}/cells/{c}/{fn}").num_rows
    n = pq.read_metadata(f"{SF0001}/embeddings.parquet").num_rows
    assert total == n                          # index covers every vector


def test_embedding_cosine_dedup_symmetric_threshold():
    rows = dedup.embedding_cosine_dedup(SF0001, threshold_pct=30).take_all()
    assert all(r["vec_id_a"] < r["vec_id_b"] for r in rows)
    seen = {(r["vec_id_a"], r["vec_id_b"]) for r in rows}
    assert len(seen) == len(rows)              # no duplicate pairs


def test_embedding_ann_dedup_vs_exact():
    """IVF-bucketed near-dup: every reported pair is exact-threshold true
    (precision 1.0 — similarity is computed exactly within the bucket),
    and recall vs the brute-force tool stays high via multi-probe."""
    exact = {(r["vec_id_a"], r["vec_id_b"]) for r in
             dedup.embedding_cosine_dedup(SF0001, threshold_pct=30).take_all()}
    approx = {(r["vec_id_a"], r["vec_id_b"]) for r in
              dedup.embedding_ann_dedup(SF0001, threshold_pct=30).take_all()}
    assert approx <= exact
    if exact:
        assert len(approx & exact) / len(exact) >= 0.5


def test_degenerate_bucket_capped(tmp_path):
    """Adversarial all-identical corpus: pair emission must be bounded by
    the bucket cap (O(cap^2)), not O(n^2), and the canonical smallest
    doc_id must survive in the pair set."""
    n = 200
    sf = _mk_docs(tmp_path, [" ".join(BASE)] * n)
    pairs = {(r["doc_id_a"], r["doc_id_b"]) for r in
             dedup.minhash_lsh_dedup(sf, max_bucket=32).take_all()}
    assert 0 < len(pairs) <= 32 * 31 // 2
    assert any(a == 0 for a, _ in pairs)       # canonical survivor linked


# --------------------------------------------------------------------- #
def test_media_features_plumbing(corpus):
    rows = sorted(multimodal.media_features(corpus).take_all(),
                  key=lambda r: r["doc_id"])
    t = pq.read_table(f"{corpus}/documents.parquet")
    for r, s in zip(rows, t.column("text").to_pylist()):
        assert r["n_bytes"] == len(s.encode())
        assert len(r["feat"]) == multimodal.FEAT_DIM
    # exact dup docs -> identical payload hash & features
    assert rows[0]["payload_hash"] == rows[1]["payload_hash"]
    assert list(rows[0]["feat"]) == list(rows[1]["feat"])


def test_media_decode_stub_gated():
    ex = multimodal.MediaFeatureExtractor(real_decode=True)
    with pytest.raises(NotImplementedError):
        ex.decode_real(b"\x00")                # no decodable format


def _wav_bytes(freq=440.0, n=8000, rate=8000, amp=20000):
    import io
    import wave

    x = (np.sin(2 * np.pi * freq * np.arange(n) / rate)
         * amp).astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(x.tobytes())
    return buf.getvalue()


def _pgm_bytes(w=16, h=16, seed=3):
    px = np.random.default_rng(seed).integers(0, 256, w * h,
                                              dtype=np.uint8)
    return b"P5 %d %d 255 " % (w, h) + px.tobytes()


def test_media_real_decode_wav_and_pgm():
    """The real-decode path genuinely decodes self-describing payloads:
    WAV via stdlib wave (per-window RMS features), raw PGM via its
    header. Deterministic; distinct content -> distinct features."""
    ex = multimodal.MediaFeatureExtractor(real_decode=True)
    wav, pgm = _wav_bytes(), _pgm_bytes()
    fa = ex.decode_real(wav)
    fb = ex.decode_real(_wav_bytes(amp=4000))            # quieter signal
    assert fa.shape == (multimodal.FEAT_DIM,)
    assert np.allclose(fa, ex.decode_real(wav))          # deterministic
    assert np.all(fa > fb)          # louder -> higher RMS in every window
    fp = ex.decode_real(pgm)
    assert fp.shape == (multimodal.FEAT_DIM,)
    assert np.all((fp >= 0) & (fp <= 1))                 # mean of pixels/255
    # regression: a first pixel that IS a whitespace byte (32) must not
    # be eaten by header parsing — exactly one separator after maxval
    px = np.full(64, 200, np.uint8)
    px[0] = 32
    tricky = b"P5 8 8 255 " + px.tobytes()
    ft = ex.decode_real(tricky)
    assert np.isclose(ft[0], px[:8].mean() / 255.0)
    # regression: 8-bit WAV is unsigned with midpoint 128 — silence
    # must give ~0 RMS, not ~0.5
    import io
    import wave as _wave
    buf = io.BytesIO()
    with _wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(8000)
        w.writeframes(np.full(8000, 128, np.uint8).tobytes())
    silent = ex.decode_real(buf.getvalue())
    assert np.all(silent < 0.01)

    # through raw map_blocks tasks: real decode end to end, one
    # extractor shipped to every task
    import ray
    from aqueduct_core_ray.stages import exchange
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "payload": pa.array([wav, wav, pgm], pa.binary())})
    rows = sorted(pa.concat_tables(ray.get(exchange.map_blocks(
        [ray.put(t.slice(0, 2)), ray.put(t.slice(2))],
        multimodal.MediaFeatureExtractor(real_decode=True)))).to_pylist(),
        key=lambda r: r["doc_id"])
    assert list(rows[0]["feat"]) == list(rows[1]["feat"])   # same wav
    assert list(rows[0]["feat"]) != list(rows[2]["feat"])
    assert rows[2]["n_bytes"] == len(pgm)


@pytest.mark.skipif(
    __import__("importlib.util", fromlist=["util"]).find_spec("PIL")
    is None, reason="PIL not installed")
def test_media_real_decode_pil():                # pragma: no cover
    from PIL import Image
    import io
    img = Image.new("RGB", (8, 8), (128, 64, 32))
    buf = io.BytesIO()
    img.save(buf, format="PNG")
    ex = multimodal.MediaFeatureExtractor(real_decode=True)
    f = ex.decode_real(buf.getvalue())
    assert f.shape == (multimodal.FEAT_DIM,)


def test_frame_sample_explosion(corpus):
    rows = multimodal.frame_sample(corpus, n_frames=3).take_all()
    t = pq.read_table(f"{corpus}/documents.parquet")
    assert len(rows) == t.num_rows * 3          # 1 -> N explosion
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    for did, frames in by_doc.items():
        assert sorted(f["frame_idx"] for f in frames) == [0, 1, 2]
    # identical payloads (docs 0 and 1) -> identical frame sets
    f0 = sorted((r["frame_idx"], r["frame_hash"]) for r in by_doc[0])
    f1 = sorted((r["frame_idx"], r["frame_hash"]) for r in by_doc[1])
    assert f0 == f1
    assert all(len(r["feat"]) == multimodal.FEAT_DIM for r in rows)


def test_ivf_index_shared_root_and_atomic_marker(tmp_path):
    """Cluster contract: the index lives under an explicit SHARED root;
    a builder publishes atomically (_DONE inside the renamed dir), and a
    separate consumer (fresh call, same root) reads it without
    rebuilding."""
    import os
    import time

    root = str(tmp_path / "shared_ivf")
    idx = ann.build_ivf_index(SF0001, index_root=root)
    assert idx.startswith(root)
    assert os.path.exists(os.path.join(idx, "_DONE"))
    assert not [d for d in os.listdir(root) if ".build-" in d]
    mtime = os.path.getmtime(idx)
    # a second engine instance pointed at the shared root reuses it
    t0 = time.perf_counter()
    rows = ann.knn_ivf(SF0001, nprobe=8, index_root=root).take_all()
    assert rows and os.path.getmtime(idx) == mtime
    # recall query through the same shared root
    rec = ann.knn_ivf_recall(SF0001, nprobe=8, index_root=root)
    assert rec.to_pylist()[0]["recall_pct"] >= 90


# --------------------------------------------------------------------- #
PII_TEXTS = [
    "contact me at jane.doe+spam@example.co.uk or on +1 (555) 123-4567",
    "server at 10.0.12.255 and 192.168.1.1 rebooted; mail root@host.io",
    "no pii here at all just words",
    "overlap case: a@b.com then 1.2.3.4 then +44 (020) 794-6095",
]


def test_redact_pii_patterns(tmp_path):
    sf = _mk_docs(tmp_path, PII_TEXTS)
    rows = sorted(text.redact_pii(sf).take_all(), key=lambda r: r["doc_id"])
    assert rows[0]["n_email"] == 1 and rows[0]["n_phone"] == 1
    assert "<EMAIL>" in rows[0]["text"] and "<PHONE>" in rows[0]["text"]
    assert "jane.doe" not in rows[0]["text"]
    assert rows[1]["n_ip"] == 2 and rows[1]["n_email"] == 1
    assert rows[2]["n_email"] == rows[2]["n_ip"] == rows[2]["n_phone"] == 0
    assert rows[2]["text"] == PII_TEXTS[2]
    assert rows[3]["n_email"] == 1 and rows[3]["n_ip"] == 1 \
        and rows[3]["n_phone"] == 1


def test_redact_pii_matches_duckdb_oracle(tmp_path):
    """Arrow RE2 and DuckDB RE2 must replay IDENTICAL redaction — the
    oracle contract, exercised here on text that actually contains
    PII (the synthetic corpus has none, which would make the driver's
    check vacuous for the patterns)."""
    import sys

    import duckdb

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    sf = _mk_docs(tmp_path, PII_TEXTS)
    got = (text.redact_pii(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(entry.oracle_sql()["redact_pii"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    cols = sorted(got.columns)
    assert sorted(want.columns) == cols
    assert got[cols].equals(want[cols].astype(got[cols].dtypes))


def test_decontaminate_flags_benchmark_overlap(corpus):
    import pyarrow.parquet as _pq
    t = _pq.read_table(f"{corpus}/documents.parquet")
    bench_text = t.column("text")[0].as_py()      # doc 0 = eval set
    rows = {r["doc_id"]: r for r in
            dedup.decontaminate(corpus, benchmark=[bench_text],
                                min_hits=3).take_all()}
    assert rows[0]["contaminated"] == 1           # the benchmark itself
    assert rows[1]["contaminated"] == 1           # exact duplicate
    assert rows[2]["contaminated"] == 1           # near-dup shares grams
    assert rows[3]["contaminated"] == 0           # unrelated
    assert rows[4]["contaminated"] == 0
    assert rows[0]["n_hits"] >= rows[2]["n_hits"] > 0
    # default benchmark (doc 0) is the deterministic demo path
    auto = {r["doc_id"]: r["contaminated"]
            for r in dedup.decontaminate(corpus, min_hits=3).take_all()}
    assert auto[0] == 1 and auto[3] == 0


# --------------------------------------------------------------------- #
def test_remove_boilerplate_lines(tmp_path):
    texts = [
        "cookie banner\nunique zero\nfooter text",
        "cookie banner\nunique one line\nfooter text",
        "all original\nnothing shared here",
        "cookie banner\nfooter text",      # fully boilerplate
        "",                                # empty doc
        "unique five\n\ntrailing blank\n", # blank lines shared -> removed
        "x\n\ny\n",
    ]
    d = _mk_docs(tmp_path, texts)
    out = {r["doc_id"]: r for r in
           dedup.remove_boilerplate_lines(d).take_all()}
    # naive reference: drop lines present in >= 2 docs, order preserved
    from collections import Counter
    c = Counter()
    for t in texts:
        for ln in set(t.split("\n")):
            c[ln] += 1
    common = {ln for ln, n in c.items() if n >= 2}
    for i, t in enumerate(texts):
        kept = [ln for ln in t.split("\n") if ln not in common]
        assert out[i]["text"] == "\n".join(kept)
        assert out[i]["n_kept"] == len(kept)
        assert out[i]["n_removed"] == len(t.split("\n")) - len(kept)
    assert out[3]["text"] == "" and out[3]["n_kept"] == 0
    assert out[0]["text"] == "unique zero"


def test_remove_boilerplate_lines_no_common(tmp_path):
    # empty common set: every doc passes through byte-identical
    texts = ["a\nb", "c\nd", "e"]
    d = _mk_docs(tmp_path, texts)
    out = {r["doc_id"]: r["text"] for r in
           dedup.remove_boilerplate_lines(d).take_all()}
    assert [out[i] for i in range(3)] == texts


def test_remove_boilerplate_threshold(tmp_path):
    # min_docs=3: a line shared by only two docs survives
    texts = ["shared\nown0", "shared\nown1", "own2"]
    d = _mk_docs(tmp_path, texts)
    out = {r["doc_id"]: r["text"] for r in
           dedup.remove_boilerplate_lines(d, min_docs=3).take_all()}
    assert out[0] == "shared\nown0" and out[1] == "shared\nown1"
    out2 = {r["doc_id"]: r["text"] for r in
            dedup.remove_boilerplate_lines(d, min_docs=2).take_all()}
    assert out2[0] == "own0" and out2[1] == "own1"


# --------------------------------------------------------------------- #
def test_repetition_metrics(tmp_path):
    texts = ["a b a b a",       # 5 words, 2 distinct; bigram max 2/4
             "x",               # single word: no bigrams
             "p q r",           # all unique
             "z z z z"]         # total repetition
    d = _mk_docs(tmp_path, texts)
    rows = {r["doc_id"]: r for r in text.repetition_score(d).take_all()}
    assert rows[0]["n_words"] == 5
    assert rows[0]["dup_word_pct"] == 60          # (5-2)*100//5
    assert rows[0]["top_bigram_pct"] == 50        # "a b" twice of 4
    assert rows[1]["dup_word_pct"] == 0
    assert rows[1]["top_bigram_pct"] == 0         # <2 words
    assert rows[2]["dup_word_pct"] == 0 and rows[2]["top_bigram_pct"] == 50
    assert rows[3]["dup_word_pct"] == 75 and rows[3]["top_bigram_pct"] == 100


def test_top_docs_per_source_ranking(tmp_path):
    # 9 docs, 3 sources (i % 3 in _mk_docs); lengths descend with doc_id
    texts = ["w" * (40 - 3 * i) for i in range(9)]
    d = _mk_docs(tmp_path, texts)
    out = text.top_docs_per_source(d, k=2).take_all()
    by_src = {}
    for r in out:
        by_src.setdefault(r["source"], []).append((r["rk"], r["doc_id"]))
    # per source, the two LOWEST doc_ids are the longest docs
    assert sorted(by_src["src0"]) == [(1, 0), (2, 3)]
    assert sorted(by_src["src1"]) == [(1, 1), (2, 4)]
    assert sorted(by_src["src2"]) == [(1, 2), (2, 5)]
    # tie-break: equal n_chars ranks by ascending doc_id
    (tmp_path / "ties").mkdir()
    d2 = _mk_docs(tmp_path / "ties", ["same"] * 6)
    out2 = text.top_docs_per_source(d2, k=2).take_all()
    ranks = {(r["source"], r["rk"]): r["doc_id"] for r in out2}
    assert ranks[("src0", 1)] == 0 and ranks[("src0", 2)] == 3


def test_image_resizer_nearest_on_real_pgm():
    # 4x4 gradient PGM, resized to 2x2: nearest with the pixel-center
    # convention src = floor((dst + 0.5) * 4 / 2) picks rows/cols 1,3
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    payload = b"P5 4 4 255\n" + img.tobytes()
    rz = multimodal.ImageResizer(out_w=2, out_h=2)
    out = rz(pa.table({"doc_id": pa.array([0], pa.int64()),
                       "payload": pa.array([payload], pa.binary())}))
    want = img[np.ix_([1, 3], [1, 3])]
    assert out.column("in_w")[0].as_py() == 4
    assert out.column("in_h")[0].as_py() == 4
    assert out.column("pixel_sum")[0].as_py() == int(want.sum())
    thumb = out.column("thumb")[0].as_py()
    assert thumb.startswith(b"P5 2 2 255\n")
    got = np.frombuffer(thumb.split(b"\n", 1)[1], np.uint8).reshape(2, 2)
    assert (got == want).all()
    # a resized thumbnail re-decodes through the SAME stage (PGM out =
    # PGM in): idempotent at the target size
    out2 = rz(pa.table({"doc_id": pa.array([0], pa.int64()),
                        "payload": out.column("thumb")}))
    assert out2.column("pixel_sum")[0].as_py() == int(want.sum())
    # P6 color PPM: channel-mean then resize
    rgb = np.zeros((2, 2, 3), np.uint8)
    rgb[0, 0] = (30, 60, 90)                      # mean 60
    ppm = b"P6 2 2 255\n" + rgb.tobytes()
    out3 = multimodal.ImageResizer(out_w=1, out_h=1)(
        pa.table({"doc_id": pa.array([0], pa.int64()),
                  "payload": pa.array([ppm], pa.binary())}))
    assert out3.column("pixel_sum")[0].as_py() == 0  # nearest picks (1,1)


def test_resize_media_plumbing(corpus):
    rows = sorted(multimodal.resize_media(corpus, out_w=8, out_h=8)
                  .take_all(), key=lambda r: r["doc_id"])
    t = pq.read_table(f"{corpus}/documents.parquet")
    assert len(rows) == t.num_rows                  # 1:1, no explosion
    for r in rows:
        assert (r["out_w"], r["out_h"]) == (8, 8)
        assert len(r["thumb"]) == len(b"P5 8 8 255\n") + 64
    # deterministic: identical payloads -> identical thumbnails
    assert rows[0]["thumb"] == rows[1]["thumb"]
    assert rows[0]["pixel_sum"] == rows[1]["pixel_sum"]


def test_bpe_token_count_matches_python_re():
    import re

    from aqueduct_core_ray.functions.text import (
        BPE_PATTERN, bpe_token_count_batch)

    docs = [
        "it's Dave's 2nd run, isn't it?",
        "hello   world",          # multi-space run carries no token
        "  leading and trailing  ",
        "a1b2 x-y_z 3.14 ... don't we'll I'm",
        "", "   ",                # empty / whitespace-only -> 0
    ]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    out = bpe_token_count_batch(t)
    # Python re implements the same leftmost-first alternation as RE2
    # for this lookahead-free pattern
    want_bpe = [len(re.findall(BPE_PATTERN, d)) for d in docs]
    want_ws = [len(re.findall(r"\S+", d)) for d in docs]
    assert out.column("n_tok_bpe").to_pylist() == want_bpe
    assert out.column("n_tok_ws").to_pylist() == want_ws
    # contractions split: "it's" -> "it" + "'s"
    one = bpe_token_count_batch(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["it's"])}))
    assert one.column("n_tok_bpe")[0].as_py() == 2
    assert one.column("n_tok_ws")[0].as_py() == 1


def test_approx_top_tokens_bounds_and_recall(tmp_path, monkeypatch):
    """Misra-Gries guarantees under REAL truncation: a crafted corpus
    with a 500-word vocabulary and injected heavy hitters, capacity 32
    per block — (a) count_lower <= true <= count_upper for every
    reported token; (b) the true heavy hitters lead the ranking with
    intervals containing the truth; (c) a generous capacity degrades
    to exact counts. Checked with the corpus as one leaf unit and as
    six (one per row group), so the driver's eps accounting sums the
    truncation errors of several summaries."""
    import collections

    import pyarrow as pa
    import pyarrow.parquet as pq2

    from aqueduct_core_ray.functions.text import approx_top_tokens
    from aqueduct_core_ray.stages import scan_units

    rng = np.random.default_rng(11)
    vocab = [f"w{i:03d}" for i in range(500)]
    docs = []
    for i in range(300):
        words = list(rng.choice(vocab, size=40))
        if i % 2 == 0:
            words += ["HEAVY"] * 20            # ~3000 occurrences
        if i % 3 == 0:
            words += ["WARM"] * 10             # ~1000 occurrences
        rng.shuffle(words)
        docs.append(" ".join(words))
    d = tmp_path / "sf"
    d.mkdir()
    pq2.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs),
        "source": pa.array(["s"] * len(docs)),
    }), str(d / "documents.parquet"), row_group_size=50)
    true = collections.Counter()
    for s in docs:
        true.update(s.split())

    for units in (1, 6):
        if units > 1:
            monkeypatch.setattr(scan_units, "MIN_UNIT_BYTES", 1)
            monkeypatch.setattr(scan_units, "MAX_UNIT_BYTES", 1)
        assert len(text._docs(str(d), ["text"]).units()) == units
        got = approx_top_tokens(str(d), k=20, capacity=32).to_pandas()
        assert len(got) == 20
        assert (got["count_lower"] <= got["count_upper"]).all()
        # one summary reports exact counts; over several, truncation
        # genuinely happened: some interval is non-degenerate
        assert (got["count_upper"] > got["count_lower"]).any() == \
            (units > 1)
        for _, r in got.iterrows():
            assert (r["count_lower"] <= true[r["token"]]
                    <= r["count_upper"]), \
                (units, r["token"], true[r["token"]], r["count_lower"],
                 r["count_upper"])
        assert list(got["token"][:2]) == ["HEAVY", "WARM"]

        # generous capacity -> exact (interval collapses to the truth)
        exact = approx_top_tokens(str(d), k=20, capacity=10_000).to_pandas()
        for _, r in exact.iterrows():
            assert r["count_lower"] == r["count_upper"] == true[r["token"]]


def test_image_resizer_zero_dim_header_falls_back():
    # a payload claiming 0x0 dimensions must take the opaque-fake path,
    # not IndexError inside the actor
    rz = multimodal.ImageResizer(out_w=2, out_h=2)
    out = rz(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "payload": pa.array([b"P5 0 0 255\nabcdef",
                             b"P6 3 0 255\nxyz"], pa.binary())}))
    assert out.num_rows == 2
    assert (np.array(out.column("in_w")) > 0).all()


def test_doc_frequency_matches_duckdb():
    import duckdb
    SF = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    sq = con.execute(r"""
        WITH w AS (
          SELECT doc_id,
                 unnest(regexp_split_to_array(
                     regexp_replace(text, '^\s+|\s+$', '', 'g'),
                     '\s+')) AS token
          FROM documents),
        d AS (SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
              FROM w GROUP BY 1),
        r AS (SELECT *, row_number() OVER (ORDER BY df DESC, token)
                 AS rk FROM d)
        SELECT token, df, CAST(rk AS BIGINT) AS rk
        FROM r WHERE rk <= 20""").df()
    ry = text.doc_frequency(SF, k=20).to_pandas()
    assert sq.sort_values("rk").reset_index(drop=True).equals(
        ry.sort_values("rk").reset_index(drop=True)
        .astype(sq.dtypes.to_dict()))


def test_doc_frequency_counts_docs_not_occurrences(tmp_path):
    # "dog" appears 3x in one doc but df must count the DOC once
    sf = _mk_docs(tmp_path, ["dog dog dog cat", "dog bird", "fish"])
    ry = text.doc_frequency(sf, k=10).to_pandas().set_index("token")
    assert int(ry.loc["dog", "df"]) == 2
    assert int(ry.loc["cat", "df"]) == 1
    assert list(ry.sort_values("rk").index)[0] == "dog"


def test_tfidf_top_terms_matches_reference(tmp_path, parts):
    """Pin tf-idf against a pure-Python reference on a crafted corpus
    (shared token in all docs scores 0-ish; rare tokens win)."""
    import math
    texts = ["common alpha alpha beta", "common gamma",
             "common alpha delta delta delta"]
    sf = _mk_docs(tmp_path, texts)
    out = (text.tfidf_top_terms(sf, k=2).to_pandas()
           .sort_values(["doc_id", "rk"]).reset_index(drop=True))
    # python reference
    from collections import Counter
    docs = [t.split() for t in texts]
    n = len(docs)
    df = Counter(tok for d in docs for tok in set(d))
    exp = []
    for i, d in enumerate(docs):
        tf = Counter(d)
        scored = sorted(
            ((math.floor(c * math.log((n + 1) / (df[t] + 1)) * 1000
                         + 0.5), t, c) for t, c in tf.items()),
            key=lambda x: (-x[0], x[1]))[:2]
        for rk, (s, t, c) in enumerate(scored, 1):
            exp.append((i, t, c, s, rk))
    got = list(out[["doc_id", "token", "tf", "score_permille", "rk"]]
               .itertuples(index=False, name=None))
    assert sorted(got) == sorted(exp)
    # partition invariance of the two-exchange plan
    parts(3)
    out2 = (text.tfidf_top_terms(sf, k=2).to_pandas()
            .sort_values(["doc_id", "rk"]).reset_index(drop=True))
    assert out.equals(out2)


def test_doc_frequency_and_tfidf_random_corpora(tmp_path, parts):
    """Seeded randomized cross-check of the distributed text statistics
    against brute-force Python on small corpora (duplicate-heavy vocab
    to exercise ties and the per-block distinct path)."""
    import math
    from collections import Counter
    rng = np.random.default_rng(11)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    for trial in range(3):
        texts = [" ".join(rng.choice(vocab,
                                     size=rng.integers(1, 12)).tolist())
                 for _ in range(rng.integers(3, 10))]
        (tmp_path / f"t{trial}").mkdir()
        sf = _mk_docs(tmp_path / f"t{trial}", texts)
        docs = [t.split() for t in texts]
        n = len(docs)
        df = Counter(tok for d in docs for tok in set(d))
        # doc_frequency: full ranking (k > vocab)
        ry = (text.doc_frequency(sf, k=50).to_pandas()
              .sort_values("rk").reset_index(drop=True))
        exp = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [(r.token, r.df) for r in ry.itertuples()] == exp
        assert list(ry["rk"]) == list(range(1, len(exp) + 1))
        # tfidf: every doc's top-2 matches brute force
        parts(3)
        out = text.tfidf_top_terms(sf, k=2).to_pandas()
        got = sorted(out[["doc_id", "token", "tf", "score_permille",
                          "rk"]].itertuples(index=False, name=None))
        exp2 = []
        for i, d in enumerate(docs):
            tf = Counter(d)
            scored = sorted(
                ((math.floor(c * math.log((n + 1) / (df[t] + 1)) * 1000
                             + 0.5), t, c) for t, c in tf.items()),
                key=lambda x: (-x[0], x[1]))[:2]
            for rk, (s, t, c) in enumerate(scored, 1):
                exp2.append((i, t, c, s, rk))
        assert got == sorted(exp2)


def test_unigram_logprob_score_random_corpora(tmp_path, parts):
    """Seeded randomized cross-check of the distributed unigram-LM doc
    scoring against brute-force Python (duplicate-heavy vocab so token
    counts and the permille rounding boundary both get exercised)."""
    import math
    from collections import Counter
    rng = np.random.default_rng(23)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    for trial in range(3):
        texts = [" ".join(rng.choice(vocab,
                                     size=rng.integers(1, 15)).tolist())
                 for _ in range(rng.integers(3, 9))]
        (tmp_path / f"t{trial}").mkdir()
        sf = _mk_docs(tmp_path / f"t{trial}", texts)
        docs = [t.split() for t in texts]
        cnt = Counter(tok for d in docs for tok in d)
        total = sum(cnt.values())
        lp = {t: math.floor(math.log(c / total) * 1000 + 0.5)
              for t, c in cnt.items()}
        parts(3)
        out = (text.unigram_logprob_score(sf)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert list(out["doc_id"]) == list(range(len(docs)))
        assert list(out["n_tok"]) == [len(d) for d in docs]
        assert list(out["score_permille"]) == [
            sum(lp[t] for t in d) for d in docs]
        # log-probs are negative, so every score is too
        assert (out["score_permille"] < 0).all()


def test_label_centroids_matches_numpy():
    """Exact (label, dim) centroid stats equal a brute-force numpy fold
    over the whole embeddings table, and fold order cannot matter
    because the partials are integer micro-units."""
    t = pq.read_table(f"{SF0001}/embeddings.parquet",
                      columns=["label", "embedding"])
    lab = t.column("label").to_numpy(zero_copy_only=False)
    E = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    M = np.floor(E * 1e6 + 0.5).astype(np.int64)
    out = (ann.label_centroids(SF0001).to_pandas()
           .sort_values(["label", "dim"]).reset_index(drop=True))
    assert set(out["label"]) == set(int(v) for v in np.unique(lab))
    for g in np.unique(lab):
        rows = out[out["label"] == g]
        assert list(rows["dim"]) == list(range(E.shape[1]))
        assert (rows["n_vecs"] == int((lab == g).sum())).all()
        assert list(rows["sum_micro"]) == list(M[lab == g].sum(axis=0))
    # global conservation: per-dim sums over labels = whole-table sums
    tot = out.groupby("dim")["sum_micro"].sum()
    assert list(tot) == list(M.sum(axis=0))


def test_centroid_assign_matches_numpy():
    """Nearest-centroid assignment equals a brute-force numpy replay of
    the exact integer-micro convention (round-half-up centroids,
    squared-L2, ties to the smallest label)."""
    t = pq.read_table(f"{SF0001}/embeddings.parquet",
                      columns=["vec_id", "label", "embedding"])
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    lab = t.column("label").to_numpy(zero_copy_only=False)
    E = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    M = np.floor(E * 1e6 + 0.5).astype(np.int64)
    labels = np.unique(lab)
    C = np.stack([np.floor(M[lab == g].sum(axis=0).astype(np.float64)
                           / (lab == g).sum() + 0.5).astype(np.int64)
                  for g in labels])
    d = M[:, None, :] - C[None, :, :]
    want = labels[np.argmin(np.einsum("nld,nld->nl", d, d), axis=1)]
    out = (ann.centroid_assign(SF0001).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    order = np.argsort(ids)
    assert list(out["vec_id"]) == list(ids[order])
    assert list(out["label"]) == list(lab[order])
    assert list(out["assigned_label"]) == list(want[order])
    assert (out["is_match"]
            == (out["label"] == out["assigned_label"])).all()
    # centroids summarize their own members: matches must dominate
    # a uniform-random assignment by a wide margin
    assert out["is_match"].mean() > 2.0 / len(labels)


def test_kmeans_embeddings_matches_numpy_reference():
    """Distributed exact-integer Lloyd's equals a single-process numpy
    replay of the same convention (micro-unit vectors, round-half-up
    centroid means, squared-L2 argmin with first-index ties, k
    lowest-vec_id init, integer fixed-point stop) — bit-identical, and
    invariant to partitioning because every fold is an integer sum."""
    k, iters = 8, 12
    t = pq.read_table(f"{SF0001}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    E = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    M = np.floor(E * 1e6 + 0.5).astype(np.int64)
    order = np.argsort(ids)
    C = M[order[:k]].copy()
    for _ in range(iters):
        d2 = ((M * M).sum(1)[:, None] - 2 * (M @ C.T)
              + (C * C).sum(1)[None, :])
        assign = np.argmin(d2, axis=1)
        Cn = C.copy()
        for c in range(k):
            m = assign == c
            if m.any():
                Cn[c] = np.floor(M[m].sum(axis=0) / m.sum() + 0.5
                                 ).astype(np.int64)
        if np.array_equal(Cn, C):
            break
        C = Cn
    d2 = ((M * M).sum(1)[:, None] - 2 * (M @ C.T)
          + (C * C).sum(1)[None, :])
    want_assign = np.argmin(d2, axis=1)
    want_d2 = d2[np.arange(len(ids)), want_assign]

    out = (ann.kmeans_embeddings(SF0001, k=k, iters=iters).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    o = np.argsort(ids)
    assert list(out["vec_id"]) == list(ids[o])
    assert list(out["cluster"]) == list(want_assign[o])
    assert list(out["dist2_micro"]) == list(want_d2[o])
    # clusters are non-trivial on the labeled synthetic data
    assert out["cluster"].nunique() > 1


def test_quantile_band_docs_matches_duckdb():
    import duckdb
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF0001}/documents.parquet')")
    sq = con.execute("""
        WITH q AS (
          SELECT source,
                 quantile_disc(n_chars, 0.05) AS lo,
                 quantile_disc(n_chars, 0.95) AS hi
          FROM documents GROUP BY source)
        SELECT d.doc_id, d.source, d.n_chars
        FROM documents d JOIN q USING (source)
        WHERE d.n_chars BETWEEN q.lo AND q.hi
        ORDER BY doc_id""").df().reset_index(drop=True)
    ry = (text.quantile_band_docs(SF0001).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    assert ry[["doc_id", "source", "n_chars"]].equals(
        sq.astype(ry.dtypes.to_dict()))


def test_quantile_band_docs_degenerate_source(tmp_path):
    """A source whose docs all share one length survives whole (lo ==
    hi == the length); a two-doc source keeps only rank-ceil docs."""
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(6)]),
        "source": pa.array(["a"] * 3 + ["b"] * 3),
        "n_chars": pa.array([50, 50, 50, 10, 20, 1000], pa.int64()),
    }), str(d / "documents.parquet"))
    out = text.quantile_band_docs(str(d)).to_pandas()
    a = out[out["source"] == "a"]
    assert len(a) == 3                       # degenerate band keeps all
    b = set(out[out["source"] == "b"]["n_chars"])
    # lo = ceil(0.05*3)=rank 1 -> 10; hi = ceil(0.95*3)=rank 3 -> 1000
    assert b == {10, 20, 1000}


def test_quantile_band_docs_null_source_and_chars(tmp_path):
    """Null source / null n_chars rows are rejected exactly like SQL's
    JOIN USING(source) + BETWEEN (both NULL-reject) instead of
    crashing the band lookup (found in review)."""
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(["a", "b", "c", "d", "e"]),
        "source": pa.array(["s", "s", None, "s", "onlynull"]),
        "n_chars": pa.array([10, 20, 15, None, None], pa.int64()),
    }), str(d / "documents.parquet"))
    out = text.quantile_band_docs(str(d)).to_pandas()
    assert set(out["doc_id"]) == {"a", "b"}


# --------------------------------------------------------------------- #
def _gram_ref(texts, gram=32, stride=16):
    """Pure-Python reference for dup_gram_coverage."""
    sets = {i: {t[k:k + gram] for k in range(0, len(t) - gram + 1, stride)}
            for i, t in enumerate(texts)}
    from collections import Counter
    freq = Counter(g for s in sets.values() for g in s)
    return {i: (sum(1 for g in s if freq[g] >= 2), len(s))
            for i, s in sets.items() if s}


def test_dup_gram_coverage_crafted(tmp_path):
    shared = "X" * 10 + "the quick brown fox jumps over the lazy dog " * 3
    texts = [
        "A" * 20 + shared + "unique tail one here padded out",
        "B" * 20 + shared + "another distinct ending entirely",
        "totally unrelated document with nothing shared at all, " * 2,
        "short",                                   # < 32 chars: no row
    ]
    sf = _mk_docs(tmp_path, texts)
    got = {r["doc_id"]: (r["dup_grams"], r["total_grams"])
           for r in dedup.dup_gram_coverage(sf).take_all()}
    assert got == _gram_ref(texts)
    assert 3 not in got                            # short doc omitted
    assert got[0][0] > 0 and got[2][0] == 0


def test_dup_gram_coverage_matches_duckdb():
    import duckdb
    exp = duckdb.sql(f"""
        WITH docs AS (
          SELECT * FROM read_parquet('{SF0001}/documents.parquet')),
        pos AS (SELECT CAST(i AS INT) AS i
                FROM generate_series(1, 65536, 16) t(i)),
        g AS (SELECT DISTINCT doc_id, substr(text, i, 32) AS gram
              FROM docs JOIN pos ON i <= length(text) - 31),
        d AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= 2)
        SELECT g.doc_id,
               CAST(count(*) FILTER (
                 WHERE g.gram IN (SELECT gram FROM d)) AS BIGINT)
                 AS dup_grams,
               CAST(count(*) AS BIGINT) AS total_grams
        FROM g GROUP BY g.doc_id ORDER BY doc_id""").df()
    got = (dedup.dup_gram_coverage(SF0001).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    got = got.astype({c: exp[c].dtype for c in exp.columns})[exp.columns]
    assert got.equals(exp.reset_index(drop=True))
    assert int(exp["dup_grams"].sum()) > 0         # corpus has real dups


def test_semdedup_rule_and_invariance(parts):
    """SemDeDup over sf0.001 embeddings: keep/dup_of must equal the
    brute-force per-cluster rule (drop when ANY smaller-vec_id cluster
    member reaches tau cosine; dup_of = the earliest such id), and the
    result must be identical under a different exchange partitioning."""
    sf = SF0001
    out = (dedup.semdedup(sf).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert int((1 - out["keep"]).sum()) > 0     # corpus has semantic dups
    km = ann.kmeans_embeddings(sf).to_pandas().sort_values("vec_id")
    t = pq.read_table(f"{sf}/embeddings.parquet")
    ids, M = ann._micro_matrix(t, id_col="vec_id")
    order = np.argsort(ids)
    ids, M = ids[order], M[order].astype(np.float64)
    n = np.linalg.norm(M, axis=1, keepdims=True)
    n[n == 0] = 1
    Mn = M / n
    cl = km.set_index("vec_id")["cluster"].reindex(ids).to_numpy()
    keep_ref, dup_ref = {}, {}
    for c in np.unique(cl):
        sel = np.flatnonzero(cl == c)
        S = Mn[sel] @ Mn[sel].T
        for j in range(len(sel)):
            earlier = np.flatnonzero(S[:j, j] >= 0.35)
            keep_ref[ids[sel[j]]] = len(earlier) == 0
            if len(earlier):
                dup_ref[ids[sel[j]]] = ids[sel[earlier[0]]]
    assert dict(zip(out["vec_id"], out["keep"].astype(bool))) == keep_ref
    assert {int(r.vec_id): int(r.dup_of) for r in out.itertuples()
            if not r.keep} == dup_ref
    parts(3)
    out3 = (dedup.semdedup(sf).to_pandas()
            .sort_values("vec_id").reset_index(drop=True))
    assert out.equals(out3)


def test_dedup_rows_do_not_depend_on_part_count(parts):
    """The dedup operators keyed on a pair, a node, a gram or a bucket
    give the same rows and Arrow types over one part as over seven: a
    pair or a node whose rows sit in several parts (or chunks of one
    part) folds to one row through ``fx_agg_by``."""
    import ray

    def rows(op, P):
        parts(P)
        t = pa.concat_tables(ray.get(
            getattr(dedup, op)(SF0001).to_arrow_refs()))
        return t.sort_by([(c, "ascending") for c in t.column_names])

    pair = ["doc_id_a", "doc_id_b"]
    for op, key in (("minhash_lsh_dedup", pair), ("simhash_dedup", pair),
                    ("duplicate_clusters", ["doc_id"]),
                    ("near_dedup_keep", ["doc_id"]),
                    ("dup_gram_coverage", ["doc_id"]),
                    ("embedding_ann_dedup", ["vec_id_a", "vec_id_b"])):
        one, seven = rows(op, 1), rows(op, 7)
        assert one.num_rows > 0, op
        assert one.group_by(key).aggregate([]).num_rows == one.num_rows, op
        assert one.schema == seven.schema, op
        assert one.equals(seven), op


def test_semdedup_chunked_prune_matches_unchunked():
    """The column-chunked similarity pass must be exact: prune a
    synthetic cluster with chunk=3 and chunk=4096, identical output."""
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(40, 8)).astype(np.float64)
    vecs[25] = vecs[3] * 1.7          # exact-direction dup pair
    vecs[31] = vecs[3] * -0.5 + 0.01  # near-opposite: not a dup
    g = pa.table({
        "part": pa.array(np.zeros(40, np.int32)),
        "cluster": pa.array(np.zeros(40, np.int64)),
        "vec_id": pa.array(np.arange(40, dtype=np.int64)),
        "embedding": pa.array(list(vecs.astype(np.float32))),
    })
    a = dedup._semdedup_part(g, tau=0.8, chunk=3)
    b = dedup._semdedup_part(g, tau=0.8, chunk=4096)
    assert a.equals(b)
    keep = dict(zip(a.column("vec_id").to_pylist(),
                    a.column("keep").to_pylist()))
    assert keep[25] == 0 and keep[31] == 1


def test_dup_gram_coverage_random_and_unicode(tmp_path):
    """Randomized cross-check vs the pure-Python reference, including
    multibyte text (Arrow utf8 slicing and Python str slicing must
    agree on CHARACTER offsets) and within-doc repeats (distinct-gram
    semantics)."""
    rng = np.random.default_rng(11)
    alpha = list("abcdé漢字 ")
    base = "".join(rng.choice(alpha, size=200))
    texts = []
    for i in range(30):
        s = "".join(rng.choice(alpha, size=int(rng.integers(10, 250))))
        if i % 3 == 0:                 # splice in a shared run
            cut = int(rng.integers(0, max(len(s) - 1, 1)))
            s = s[:cut] + base[40:120] + s[cut:]
        if i % 7 == 0:
            s = s + s[:60]             # within-doc repeat
        texts.append(s)
    sf = _mk_docs(tmp_path, texts)
    got = {r["doc_id"]: (r["dup_grams"], r["total_grams"])
           for r in dedup.dup_gram_coverage(sf, gram=16, stride=8
                                            ).take_all()}
    assert got == _gram_ref(texts, gram=16, stride=8)


def _remove_ref(texts, gram=32, stride=16):
    """Pure-Python reference for remove_dup_spans (keeper = global
    (doc, pos) min; overlapping/adjacent spans merge)."""
    occ = {}
    for i, t in enumerate(texts):
        for k in range(0, len(t) - gram + 1, stride):
            occ.setdefault(t[k:k + gram], []).append((i, k))
    removals = {i: [] for i in range(len(texts))}
    for g, lst in occ.items():
        if len({d for d, _ in lst}) >= 2:
            keeper = min(lst)
            for d, p in lst:
                if (d, p) != keeper:
                    removals[d].append(p)
    out = {}
    for i, t in enumerate(texts):
        merged = []
        for p in sorted(removals[i]):
            if merged and p <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], p + gram)
            else:
                merged.append([p, p + gram])
        kept, prev, removed = [], 0, 0
        for a, b in merged:
            kept.append(t[prev:a])
            removed += b - a
            prev = b
        kept.append(t[prev:])
        out[i] = ("".join(kept), removed, len(merged))
    return out


def test_remove_dup_spans_random_unicode_and_invariance(tmp_path, parts):
    """Randomized multibyte corpus with spliced shared runs: the cut
    text, removed-char and span counts must equal the pure-Python
    reference exactly, under two different exchange partitionings."""
    rng = np.random.default_rng(5)
    alpha = list("abcdé漢字 xyz")
    base = "".join(rng.choice(alpha, size=300))
    texts = []
    for i in range(25):
        s = "".join(rng.choice(alpha, size=int(rng.integers(5, 200))))
        if i % 2 == 0:
            cut = int(rng.integers(0, max(len(s) - 1, 1)))
            s = s[:cut] + base[50:180] + s[cut:]
        if i % 5 == 0:
            s = s + base[50:120]
        texts.append(s)
    texts.append("short")
    sf = _mk_docs(tmp_path, texts)
    want = _remove_ref(texts, gram=16, stride=8)
    got = {r["doc_id"]: (r["text"], r["n_chars_removed"],
                         r["n_spans_removed"])
           for r in dedup.remove_dup_spans(sf, gram=16, stride=8
                                           ).take_all()}
    assert got == want
    assert sum(v[1] for v in want.values()) > 0
    parts(3)
    got3 = {r["doc_id"]: (r["text"], r["n_chars_removed"],
                          r["n_spans_removed"])
            for r in dedup.remove_dup_spans(sf, gram=16, stride=8
                                            ).take_all()}
    assert got3 == got


def test_remove_dup_spans_keeps_one_copy(tmp_path):
    """The globally-first occurrence survives; later docs lose the
    shared run; unrelated docs pass through byte-identical."""
    shared = "0123456789abcdefghijklmnopqrstuv"    # exactly one gram
    texts = ["AAA" + shared + "BBB" * 8,
             "CCC" * 8 + shared + "DDD",
             "nothing shared here at all padded out to length"]
    sf = _mk_docs(tmp_path, texts)
    got = {r["doc_id"]: r for r in
           dedup.remove_dup_spans(sf, gram=32, stride=1).take_all()}
    assert shared in got[0]["text"]                # keeper intact
    assert shared not in got[1]["text"]            # later copy cut
    assert got[2]["text"] == texts[2]
    assert got[2]["n_chars_removed"] == 0


def _bm25_reference(texts, query, k=20, k1=1.5, b=0.75):
    """Brute-force float64 BM25 with the operator's exact expression
    tree (left-assoc order, floor-permille per-term contributions)."""
    import math
    from collections import Counter
    # NB: '' splits to [''] under the regexp_split convention
    docs = [t.strip().split() or [""] for t in texts]
    n = len(docs)
    total = sum(len(d) for d in docs)
    avgdl = total / n
    df = Counter(t for d in docs for t in set(d) if t in query)
    scores = {}
    for i, d in enumerate(docs):
        tf = Counter(t for t in d if t in query)
        if not tf:
            continue
        s = 0
        for t, f in tf.items():
            idf = math.log((n - df[t] + 0.5) / (df[t] + 0.5) + 1.0)
            norm = (1.0 - b) + b * len(d) / avgdl
            tfn = (f * (k1 + 1.0)) / (f + k1 * norm)
            s += math.floor(idf * tfn * 1000.0 + 0.5)
        scores[i] = s
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [(doc, sc, rk) for rk, (doc, sc) in enumerate(ranked, 1)]


def test_bm25_topk_matches_reference(tmp_path):
    texts = ["hash join hash hash", "merge stream", "scan filter agg",
             "hash merge stream hash stream", "stream", ""]
    sf = _mk_docs(tmp_path, texts)
    q = ("hash", "merge", "stream")
    out = (text.bm25_topk(sf, query=q, k=10).to_pandas()
           .sort_values("rk").reset_index(drop=True))
    exp = _bm25_reference(texts, set(q), k=10)
    got = list(out[["doc_id", "score_permille", "rk"]]
               .itertuples(index=False, name=None))
    assert got == exp
    # doc 2 (no query terms) and doc 5 (empty) must be absent
    assert 2 not in set(out["doc_id"]) and 5 not in set(out["doc_id"])


def test_bm25_topk_random_corpora(tmp_path):
    rng = np.random.default_rng(23)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    q = ("aa", "cc")
    for trial in range(3):
        texts = [" ".join(rng.choice(vocab,
                                     size=rng.integers(1, 9)).tolist())
                 for _ in range(rng.integers(4, 12))]
        (tmp_path / f"t{trial}").mkdir()
        sf = _mk_docs(tmp_path / f"t{trial}", texts)
        out = (text.bm25_topk(sf, query=q, k=50).to_pandas()
               .sort_values("rk").reset_index(drop=True))
        exp = _bm25_reference(texts, set(q), k=50)
        got = list(out[["doc_id", "score_permille", "rk"]]
                   .itertuples(index=False, name=None))
        assert got == exp


# --------------------------------------------------------------------- #
def _lr_reference(table, positive_source, dim, iters, lr):
    """Single-process numpy replica of classifier.quality_classifier_score:
    same _dsir_features, same integer micro-unit residual quantization,
    same full-batch GD — must match the distributed fold BIT-EXACTLY."""
    import math  # noqa: F401

    import pyarrow.compute as pc

    from aqueduct_core_ray.functions.text import _dsir_features
    feats, fdoc = _dsir_features(table, dim)
    y = pc.equal(table.column("source"), positive_source) \
        .fill_null(False).to_numpy(zero_copy_only=False).astype(np.int8)
    n = len(y)
    w = np.zeros(dim + 1, np.float64)
    for _ in range(iters):
        z = np.bincount(fdoc, weights=w[feats], minlength=n) + w[dim]
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
        rq = np.floor((p - y) * 1e6 + 0.5).astype(np.int64)
        g = np.bincount(feats, weights=rq[fdoc].astype(np.float64),
                        minlength=dim).astype(np.int64)
        g = np.concatenate([g, [int(rq.sum())]])
        w = w - lr * (g / 1e6) / n
    z = np.bincount(fdoc, weights=w[feats], minlength=n) + w[dim]
    return np.floor(z * 1e6 + 0.5).astype(np.int64), y


def test_quality_classifier_separable(tmp_path):
    from aqueduct_core_ray.functions.classifier import (
        quality_classifier_score)
    rng = np.random.default_rng(7)
    texts, srcs = [], []
    for i in range(120):
        if i % 2 == 0:
            texts.append(" ".join(rng.choice(
                ["good", "clean", "prose", "fine"], 15).tolist()))
            srcs.append("src0")
        else:
            texts.append(" ".join(rng.choice(
                ["junk", "spam", "noise", "garble"], 15).tolist()))
            srcs.append("src1")
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts),
                  "lang": pa.array(["en"] * len(texts)),
                  "source": pa.array(srcs),
                  "n_chars": pa.array([len(s) for s in texts],
                                      pa.int64())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = (quality_classifier_score(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert len(out) == len(texts)
    # fully separable vocabulary: the trained model must classify
    # every document correctly by logit sign
    pred = (out["logit_micro"] > 0).astype(int)
    assert (pred == out["label"]).all()
    # bit-exact vs the single-process replica (proves the distributed
    # integer-gradient fold is partitioning-invariant)
    exp_logit, exp_y = _lr_reference(t, "src0", 1 << 16, 25, 2.0)
    assert np.array_equal(out["logit_micro"].to_numpy(), exp_logit)
    assert np.array_equal(out["label"].to_numpy(), exp_y.astype(np.int64))


def test_quality_classifier_single_class_stable(tmp_path):
    """All-one-class corpus: no NaN, logits saturate toward the class."""
    from aqueduct_core_ray.functions.classifier import (
        quality_classifier_score)
    sf = _mk_docs(tmp_path, ["aa bb", "bb cc", "cc aa dd"])
    # _mk_docs labels sources src0/src1/src2; use a positive_source
    # that matches NOTHING -> y all zero
    out = quality_classifier_score(
        sf, positive_source="nope").to_pandas()
    assert len(out) == 3
    assert (out["label"] == 0).all()
    assert np.isfinite(out["logit_micro"].to_numpy()).all()
    assert (out["logit_micro"] < 0).all()


def test_rank_auc_matches_bruteforce(tmp_path):
    """u_stat_x2 must equal 2x the pairwise Mann-Whitney count
    (wins + 0.5*ties over all pos x neg pairs), ties included."""
    from aqueduct_core_ray.functions.text import rank_auc
    rng = np.random.default_rng(5)
    langs = ["en" if rng.random() < 0.4 else "fr" for _ in range(60)]
    scores = rng.integers(0, 8, 60).tolist()     # heavy ties
    t = pa.table({
        "doc_id": pa.array(range(60), pa.int64()),
        "text": pa.array(["x"] * 60),
        "lang": pa.array(langs),
        "source": pa.array(["s"] * 60),
        "n_chars": pa.array(scores, pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = rank_auc(str(tmp_path)).to_pandas().iloc[0]
    pos = [s for s, l in zip(scores, langs) if l == "en"]
    neg = [s for s, l in zip(scores, langs) if l != "en"]
    u2 = sum(2 for p in pos for q in neg if p > q) \
        + sum(1 for p in pos for q in neg if p == q)
    assert int(out["n_pos"]) == len(pos)
    assert int(out["n_neg"]) == len(neg)
    assert int(out["u_stat_x2"]) == u2
    # perfectly separable corpus: AUC exactly 1
    t2 = t.set_column(t.schema.get_field_index("n_chars"), "n_chars",
                      pa.array([100 + i if l == "en" else i
                                for i, l in enumerate(langs)],
                               pa.int64()))
    d2 = tmp_path / "sep"
    d2.mkdir()
    pq.write_table(t2, str(d2 / "documents.parquet"))
    out2 = rank_auc(str(d2)).to_pandas().iloc[0]
    assert int(out2["u_stat_x2"]) == 2 * len(pos) * len(neg)


def test_spearman_matches_scipy_free_reference(tmp_path):
    """rho derived from the integer component sums must equal a direct
    midrank Spearman computed with numpy on the whole table."""
    from aqueduct_core_ray.functions.text import spearman_chars_tokens
    rng = np.random.default_rng(3)
    texts = [" ".join(["w"] * int(k)) for k in rng.integers(1, 30, 80)]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        # x correlated with y but with ties and noise
        "n_chars": pa.array([len(s) // 3 for s in texts], pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = spearman_chars_tokens(str(tmp_path)).to_pandas().iloc[0]

    def midranks(v):
        v = np.asarray(v, np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        sv = v[order]
        i = 0
        pos = 1
        while i < len(sv):
            j = i
            while j < len(sv) and sv[j] == sv[i]:
                j += 1
            r[order[i:j]] = (pos + (pos + (j - i) - 1)) / 2.0
            pos += j - i
            i = j
        return r
    x = np.array([len(s) // 3 for s in texts], np.float64)
    y = np.array([len(s.split()) for s in texts], np.float64)
    rx, ry = midranks(x), midranks(y)
    exp_rho = np.corrcoef(rx, ry)[0, 1]
    n, s_x, s_y = int(out["n"]), int(out["s_x"]), int(out["s_y"])
    s_xy, s_xx, s_yy = (int(out["s_xy"]), int(out["s_xx"]),
                        int(out["s_yy"]))
    got_rho = ((n * s_xy - s_x * s_y)
               / np.sqrt(float(n * s_xx - s_x * s_x)
                         * float(n * s_yy - s_y * s_y)))
    assert abs(got_rho - exp_rho) < 1e-12
    # the doubled midranks must sum to n*(n+1) exactly
    assert s_x == n * (n + 1) and s_y == n * (n + 1)


def test_pmi_bigrams_matches_oracle_sql():
    """pmi_bigrams must reproduce the driver oracle bit-exactly at
    sf0.001 (the permille quantization + left-to-right float64 ratio
    contract)."""
    import duckdb

    import __ray_entry__ as entry
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF0001}/documents.parquet')")
    sq = con.execute(entry.oracle_sql()["pmi_bigrams"]).df()
    ry = text.pmi_bigrams(SF0001).to_pandas()
    assert sq.sort_values("rk").reset_index(drop=True).equals(
        ry.sort_values("rk").reset_index(drop=True)
        .astype(sq.dtypes.to_dict()))


def test_pmi_bigrams_crafted_collocation(tmp_path):
    # "new york" always adjacent; "red" and "blue" never adjacent to
    # each other -> "new york" must rank first with maximal PMI
    texts = [" ".join(["new york red blue"] * 6)] * 4
    sf = _mk_docs(tmp_path, texts)
    out = text.pmi_bigrams(sf, k=5, min_count=2).to_pandas()
    top = out[out.rk == 1].iloc[0]
    # every bigram here is a deterministic chain; "blue new" misses the
    # doc-final position so its count is lower than "new york"
    assert (top.w1, top.w2) == ("new", "york")
    assert not ((out.w1 == "york") & (out.w2 == "red")).empty
    # doc-boundary guard: last token of doc i never pairs with first
    # token of doc i+1 (all docs end in "blue", start with "new";
    # counts of "blue new" must come only from WITHIN-doc adjacency)
    within = out[(out.w1 == "blue") & (out.w2 == "new")]
    if len(within):
        assert int(within.iloc[0].cnt) == 4 * 5  # 5 per doc, not 6


def test_substring_search_matches_scan(tmp_path):
    """Index-accelerated search == brute substring scan, including a
    multibyte-unicode doc and a needle absent from the corpus."""
    texts = [
        "alpha beta gamma delta",
        "beta gamma ALPHA delta",
        "the naïve café reopened – naïve café indeed",
        "nothing here",
        "gamma del",                     # trigram superset, not a match
        "xx alpha beta xx",
    ]
    sf = _mk_docs(tmp_path, texts)
    from aqueduct_core_ray.functions import search
    out = search.substring_search(
        sf, needles=("alpha beta", "naïve café", "zzz"),
        index_root=str(tmp_path / "idx")).to_pandas()
    got = {(r.needle, r.doc_id) for r in out.itertuples()}
    want = {(n, i) for n in ("alpha beta", "naïve café", "zzz")
            for i, t in enumerate(texts) if n in t}
    assert got == want
    assert ("zzz", 3) not in got


def test_substring_search_false_positive_dies_at_verify(tmp_path):
    # doc contains every trigram of "abcdef" but never the substring
    sf = _mk_docs(tmp_path, ["abcd zz cdef zz bcde", "xx abcdef xx"])
    from aqueduct_core_ray.functions import search
    out = search.substring_search(
        sf, needles=("abcdef",),
        index_root=str(tmp_path / "idx")).to_pandas()
    assert set(out.doc_id) == {1}


def test_substring_search_short_needle_raises(tmp_path):
    sf = _mk_docs(tmp_path, ["abc"])
    from aqueduct_core_ray.functions import search
    with pytest.raises(ValueError):
        search.substring_search(sf, needles=("ab",),
                                index_root=str(tmp_path / "idx"))


def test_embedding_covariance_matches_numpy():
    import pyarrow.parquet as _pq
    t = _pq.read_table(f"{SF0001}/embeddings.parquet")
    X = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    n = len(X)
    got = (ann.embedding_covariance(SF0001, dims=8).to_pandas()
           .set_index(["i", "j"]))
    for i in range(8):
        for j in range(i, 8):
            cov = (X[:, i] @ X[:, j]
                   - X[:, i].sum() * X[:, j].sum() / n) / n
            want = int(np.floor(cov * 1e6 + 0.5))
            # block-order summation may differ from whole-array order
            # by <= 1 quantum
            assert abs(int(got.loc[(i, j), "cov_micros"]) - want) <= 1


def test_pca_project_matches_whole_data_reference():
    """Distributed moment fold + broadcast projection == single-process
    PCA over the whole table (deterministic sign convention)."""
    import pyarrow.parquet as _pq
    t = _pq.read_table(f"{SF0001}/embeddings.parquet")
    X = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    mu = X.mean(axis=0)
    C = np.cov(X.T, bias=True)
    _, V = np.linalg.eigh(C)
    comps = V[:, ::-1][:, :2]
    for c in range(2):
        k = np.argmax(np.abs(comps[:, c]))
        if comps[k, c] < 0:
            comps[:, c] = -comps[:, c]
    P = (X - mu) @ comps
    ref = np.floor(P * 1e6 + 0.5).astype(np.int64)
    ids = t.column("vec_id").to_numpy()
    order = np.argsort(ids)
    got = ann.pca_project(SF0001).to_pandas().sort_values("vec_id")
    assert np.abs(got.pc1_micros.to_numpy() - ref[order, 0]).max() <= 1
    assert np.abs(got.pc2_micros.to_numpy() - ref[order, 1]).max() <= 1
    # PC1 must carry the most variance: its projected sample variance
    # >= PC2's
    assert got.pc1_micros.var() >= got.pc2_micros.var()


def test_levenshtein_pairs_matches_reference():
    import random

    from aqueduct_core_ray.functions.fuzzy import levenshtein_pairs

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                cur = min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
                prev, dp[j] = dp[j], cur
        return dp[len(b)]

    rng = random.Random(11)
    A = ["".join(rng.choices("abcd", k=rng.randint(0, 10)))
         for _ in range(200)]
    B = ["".join(rng.choices("abcd", k=rng.randint(0, 10)))
         for _ in range(200)]
    got = levenshtein_pairs(A, B)
    assert [ref(a, b) for a, b in zip(A, B)] == got.tolist()
    # unicode: multibyte chars count as single edits
    assert levenshtein_pairs(["naïve café"], ["naive cafe"])[0] == 2


def test_fuzzy_match_pairs_crafted(tmp_path):
    """Same-block near-duplicates match; different blocks never pair
    even when identical beyond the block."""
    texts = [
        "customer_0001 john smith",      # 0 and 1: one-digit edit
        "customer_0001 john smyth",
        "customer_0002 john smith",      # different block: never pairs
        "customer_0001 entirely other text beyond the edit bound",
    ]
    sf = _mk_docs(tmp_path, texts)
    from aqueduct_core_ray.functions.fuzzy import fuzzy_match_pairs
    out = fuzzy_match_pairs(sf, block_chars=13, prefix_chars=24,
                            max_dist=3).to_pandas()
    pairs = {(r.doc_a, r.doc_b): r.dist for r in out.itertuples()}
    assert (0, 1) in pairs and pairs[(0, 1)] == 1
    assert not any(2 in p for p in pairs)
    assert (0, 3) not in pairs          # same block, > max_dist


def test_source_divergence_identical_and_disjoint(tmp_path):
    """JSD = 0 for identical distributions, ln(2) for disjoint ones."""
    texts = ["apple banana apple", "apple banana apple",
             "zebra yak zebra"]
    t = pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["a", "b", "c"]),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet")
    out = (text.source_divergence(str(sf)).to_pandas()
           .set_index(["src_a", "src_b"]).jsd_micros)
    assert int(out.loc[("a", "b")]) == 0
    ln2_micros = int(np.floor(np.log(2) * 1e6 + 0.5))
    assert int(out.loc[("a", "c")]) == ln2_micros
    assert int(out.loc[("b", "c")]) == ln2_micros


def test_skyline_docs_crafted(tmp_path):
    """Density frontier: dominated docs drop, coordinate ties both
    survive, block-local skyline union is a sound candidate filter."""
    texts = [
        "a b c d e f g h",                      # 8 tok, short: frontier
        "a b c d e f g h",                      # identical: tie survives
        "a b",                                  # 2 tok, shorter: frontier
        "a b c d e f g h xxxxxxxxxxxxxxxxxxx",  # 8+1 tok but much longer
        "word " * 40,                           # 40 tok, long: frontier
    ]
    sf = _mk_docs(tmp_path, texts)
    out = text.skyline_docs(sf).to_pandas()
    got = set(out.doc_id)
    # doc 3 (longer, 9 tok) IS on the frontier unless something with
    # <= chars has >= 9 tok — doc 4 has 40 tok but more chars; check
    # via brute force instead of hand-reasoning:
    import itertools
    n_chars = [len(s) for s in texts]
    n_tok = [len(s.split()) for s in texts]
    want = set()
    for i in range(len(texts)):
        dominated = any(
            n_chars[j] <= n_chars[i] and n_tok[j] >= n_tok[i]
            and (n_chars[j] < n_chars[i] or n_tok[j] > n_tok[i])
            for j in range(len(texts)) if j != i)
        if not dominated:
            want.add(i)
    assert got == want
    assert {0, 1} <= got        # identical frontier pair both survive


def test_type_token_ratio_crafted(tmp_path):
    sf = _mk_docs(tmp_path, ["a a a a", "a b c d", "x y x y"])
    out = (text.type_token_ratio(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out.n_tok.tolist() == [4, 4, 4]
    assert out.n_types.tolist() == [1, 4, 2]
    assert out.ttr_micros.tolist() == [250000, 1000000, 500000]


def test_bigram_logprob_score_random_corpora(tmp_path, parts):
    """Seeded randomized cross-check of the distributed bigram-LM doc
    scoring (Laplace smoothing, start-of-doc distribution for the first
    token) against brute-force Python, at two partition counts."""
    import math
    from collections import Counter
    rng = np.random.default_rng(31)
    vocab = ["aa", "bb", "cc", "dd"]
    for trial in range(3):
        texts = [" ".join(rng.choice(vocab,
                                     size=rng.integers(1, 12)).tolist())
                 for _ in range(rng.integers(3, 9))]
        (tmp_path / f"t{trial}").mkdir()
        sf = _mk_docs(tmp_path / f"t{trial}", texts)
        docs = [t.split() for t in texts]
        V = len({tok for d in docs for tok in d})
        nd = len(docs)
        c_ab = Counter((d[i], d[i + 1]) for d in docs
                       for i in range(len(d) - 1))
        c_a = Counter(d[i] for d in docs for i in range(len(d) - 1))
        c_f = Counter(d[0] for d in docs)

        def score(d):
            s = math.floor(math.log((c_f[d[0]] + 1) / (nd + V))
                           * 1000 + 0.5)
            for i in range(len(d) - 1):
                s += math.floor(
                    math.log((c_ab[(d[i], d[i + 1])] + 1)
                             / (c_a[d[i]] + V)) * 1000 + 0.5)
            return s

        want = [score(d) for d in docs]
        for P in (2, 7):
            parts(P)
            out = (text.bigram_logprob_score(sf)
                   .to_pandas().sort_values("doc_id")
                   .reset_index(drop=True))
            assert list(out["doc_id"]) == list(range(len(docs)))
            assert list(out["score_permille"]) == want, (trial, P)


def test_quality_classifier_spills_features_not_object_store(tmp_path):
    """The 100-TB memory shape: features are spilled ONCE per block to
    disk files (bounded path manifest on the driver) and the GD loop
    re-reads them — nothing corpus-sized rides the object store across
    iterations. The spill must exist during the run, be cleaned up
    after, and leave the result bit-identical to the replica."""
    import glob

    from aqueduct_core_ray.functions.classifier import (
        quality_classifier_score)
    texts = [f"tok{i % 7} tok{i % 11} filler common words {i}"
             for i in range(60)]
    t = pa.table({"doc_id": pa.array(range(60), pa.int64()),
                  "text": pa.array(texts),
                  "source": pa.array(["src0" if i % 2 == 0 else "src1"
                                      for i in range(60)])})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    stats = {}
    root = str(tmp_path / "featroot")
    out = (quality_classifier_score(str(tmp_path), iters=5,
                                    feat_root=root, _stats_out=stats)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert stats["spilled"] and stats["feat_files"] >= 1
    assert stats["feat_bytes"] > 0
    # spill directory cleaned up after the run
    assert glob.glob(root + "/aqr_lrfeat_*") == []
    # bit-exact vs the single-process replica at the same iters
    exp_logit, exp_y = _lr_reference(t, "src0", 1 << 16, 5, 2.0)
    assert np.array_equal(out["logit_micro"].to_numpy(), exp_logit)
    assert np.array_equal(out["label"].to_numpy(), exp_y.astype(np.int64))

