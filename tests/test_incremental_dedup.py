"""Incremental MinHash dedup (delta vs persisted corpus band index)
and DSIR importance weights — round-4 continuation operators."""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from aqueduct_core_ray.functions import dedup, text
from aqueduct_core_ray.stages.exchange import leaf

SF = "/root/testdata/sf0.001"


def _write_docs(path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }), path)


# ------------------------------------------------------------------ #
# incremental MinHash
# ------------------------------------------------------------------ #

def test_incremental_matches_full_lsh_cross_pairs():
    """Per delta doc, the best corpus match from the one-shot LSH dedup
    (restricted to cross-side pairs) must equal the incremental path's
    verdict — same bands, same signature estimate."""
    full = dedup.minhash_lsh_dedup(SF).to_pandas()
    inc = dedup.incremental_dedup(SF).to_pandas()
    a, b = full.doc_id_a.to_numpy(), full.doc_id_b.to_numpy()
    cross = (a % 5 == 0) ^ (b % 5 == 0)
    new = np.where(a[cross] % 5 == 0, a[cross], b[cross])
    old = np.where(a[cross] % 5 == 0, b[cross], a[cross])
    est = full.est_jaccard_pct.to_numpy()[cross]
    ref = (pd.DataFrame({"doc_id": new, "dup_of": old,
                         "est_jaccard_pct": est})
           .sort_values(["doc_id", "est_jaccard_pct", "dup_of"],
                        ascending=[True, False, True])
           .groupby("doc_id", as_index=False).first())
    got = inc.sort_values("doc_id").reset_index(drop=True)
    assert got.equals(ref.astype(got.dtypes.to_dict()))


def test_planted_duplicate_is_flagged(tmp_path):
    corpus = [(i, f"unique corpus text number {i} with words " * 3)
              for i in range(1, 9)]
    _write_docs(str(tmp_path / "corpus.parquet"), corpus)
    delta = [(100, corpus[3][1]),          # exact copy of doc 4
             (101, "completely different fresh content here")]
    _write_docs(str(tmp_path / "delta.parquet"), delta)
    root = str(tmp_path / "idx")
    dedup.build_minhash_index(
        leaf(str(tmp_path / "corpus.parquet")), root)
    got = dedup.match_minhash_index(
        leaf(str(tmp_path / "delta.parquet")), root
    ).to_pandas()
    assert got.doc_id.tolist() == [100]
    assert got.dup_of.tolist() == [4]
    assert got.est_jaccard_pct.tolist() == [100]


def test_index_append_sees_both_generations(tmp_path):
    root = str(tmp_path / "idx")
    _write_docs(str(tmp_path / "a.parquet"),
                [(1, "alpha beta gamma delta epsilon zeta " * 4)])
    _write_docs(str(tmp_path / "b.parquet"),
                [(2, "one two three four five six seven " * 4)])
    dedup.build_minhash_index(
        leaf(str(tmp_path / "a.parquet")), root)
    dedup.build_minhash_index(          # append second generation
        leaf(str(tmp_path / "b.parquet")), root)
    _write_docs(str(tmp_path / "c.parquet"),
                [(10, "alpha beta gamma delta epsilon zeta " * 4),
                 (11, "one two three four five six seven " * 4)])
    got = dedup.match_minhash_index(
        leaf(str(tmp_path / "c.parquet")), root
    ).to_pandas().sort_values("doc_id")
    assert got.doc_id.tolist() == [10, 11]
    assert got.dup_of.tolist() == [1, 2]


def test_matching_corpus_against_itself_excludes_self(tmp_path):
    root = str(tmp_path / "idx")
    rows = [(i, f"totally distinct document body {i} " * 5)
            for i in range(4)]
    _write_docs(str(tmp_path / "d.parquet"), rows)
    ds = leaf(str(tmp_path / "d.parquet"))
    dedup.build_minhash_index(ds, root)
    got = dedup.match_minhash_index(
        leaf(str(tmp_path / "d.parquet")), root
    ).to_pandas()
    # near-identical bodies may legitimately cross-match, but a doc
    # must never be reported as its own duplicate (an empty frame —
    # no cross-matches at all — satisfies that trivially)
    if len(got):
        assert (got.doc_id != got.dup_of).all()


def test_delta_with_no_match_returns_typed_empty():
    """A clean delta (no pair reaches min_est_pct): every match part is
    a typed empty, and the result keeps the documented three typed
    columns instead of an untyped empty table."""
    tabs = ray.get(dedup.incremental_dedup(
        SF, min_est_pct=101).to_arrow_refs())
    assert sum(t.num_rows for t in tabs) == 0
    assert {t.schema for t in tabs} == {pa.schema([
        ("doc_id", pa.int64()), ("dup_of", pa.int64()),
        ("est_jaccard_pct", pa.int64())])}


# ------------------------------------------------------------------ #
# DSIR importance weights
# ------------------------------------------------------------------ #

def _ref_dsir(docs: pd.DataFrame, dim: int, target_lang: str):
    P1 = np.uint64(0x9E3779B97F4A7C15)

    def feats(txt: str) -> np.ndarray:
        words = re.split(r"\s+", txt.strip().lower())
        wh = text.hash_str_array(np.array(words, object))
        uni = (wh % np.uint64(dim)).astype(np.int64)
        bg = (((wh[:-1] * P1) ^ wh[1:]) % np.uint64(dim)).astype(np.int64)
        return np.concatenate([uni, bg])

    raw = np.zeros(dim, np.int64)
    tgt = np.zeros(dim, np.int64)
    per_doc = {}
    for r in docs.itertuples():
        f = feats(r.text)
        per_doc[r.doc_id] = f
        np.add.at(raw, f, 1)
        if r.lang == target_lang:
            np.add.at(tgt, f, 1)
    lam = (np.log((tgt + 1.0) / (tgt.sum() + dim))
           - np.log((raw + 1.0) / (raw.sum() + dim)))
    out = []
    for did, f in per_doc.items():
        s = 0.0
        for v in lam[f]:            # sequential, like np.add.reduceat
            s += v
        out.append((did, len(f), int(np.floor(s * 1e6 + 0.5))))
    return pd.DataFrame(out, columns=["doc_id", "n_feats",
                                      "score_micro"])


def test_dsir_matches_pure_python_reference():
    dim = 512
    got = (text.dsir_weights(SF, dim=dim).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "lang"]).to_pandas()
    ref = (_ref_dsir(docs, dim, "en")
           .sort_values("doc_id").reset_index(drop=True))
    assert got.equals(ref.astype(got.dtypes.to_dict()))


def test_dsir_target_docs_score_higher():
    got = text.dsir_weights(SF).to_pandas()
    langs = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "lang"]).to_pandas()
    m = got.merge(langs, on="doc_id")
    en = m[m.lang == "en"].score_micro.mean()
    other = m[m.lang != "en"].score_micro.mean()
    assert en > other
