"""End-to-end training-corpus curation: the composed flagship pipeline
a 100-TB pretraining-data run actually executes, built entirely from
this repo's operators —

    read -> language ID -> quality score -> PII counts ->
    benchmark decontamination -> exact dedup -> (optional) sharded export

Scale shape (every stage audited against the 100-TB lens):

- ONE flag pass: a single ``map_blocks`` pass over the documents leaf
  computes lang_pred, integer quality metrics, the md5 fingerprint, and
  blocklist n-gram hits (broadcast once) — per-stage keep flags ride
  along as int8 columns; the flagged block refs feed the stage
  attrition fold and both dedup exchanges, so no document is flagged
  twice.
- exact dedup moves fingerprints, not text: survivors (min doc_id per
  fp) are computed from a (fp, doc_id)-only projection, and the
  surviving rows are recovered with a CO-PARTITIONED semi-join (docs
  and survivor ids co-grouped in one exchange keyed on doc_id) — no
  broadcast of an O(corpus) survivor set (a refs right side, so
  ``fx_join`` always routes it), no driver materialization.
- output is the resumable sharded export (atomic ``_EXPORTED`` marker).

No reference analog (aqueduct-core moves opaque payloads); this is the
"beyond the reference" §2 mandate composed into one pipeline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..functions.dedup import build_ngram_blocklist, count_blocklist_hits

from ..stages import exchange
from ..functions.text import (
    LangId,
    fingerprint_batch,
    quality_batch,
)


def _flags_stage(block_ref, lang: str, shingle: int, min_hits: int):
    """Per-batch curation flags (vectorized; blocklist read from the
    object store once per task via the captured ref). Language scoring,
    quality metrics, fingerprint and contamination hits all come from
    ONE pass over each batch."""
    lang_id = LangId()

    def flags(t: pa.Table) -> pa.Table:
        q = quality_batch(t)
        fp = fingerprint_batch(t)
        pred = lang_id(t).column("lang_pred")
        n_hits = count_blocklist_hits(t, ray.get(block_ref), shingle)
        lang_ok = pc.equal(pred, lang).cast(pa.int8())
        qual_ok = q.column("is_quality").cast(pa.int8())
        clean = pa.array((n_hits < min_hits).astype(np.int8))
        keep = pc.multiply(pc.multiply(lang_ok, qual_ok), clean)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "text": t.column("text"),
            "source": t.column("source"),
            "fp": fp.column("fp"),
            "lang_ok": lang_ok,
            "qual_ok": qual_ok,
            "clean": clean,
            "keep": keep,
        })

    return flags


_FLAGS = ["lang_ok", "qual_ok", "clean", "keep"]


def _attrition(t: pa.Table) -> pa.Table:
    """One row: the block's row count and the sum of each keep flag."""
    return pa.table({"input": [t.num_rows], **{
        c: [pc.sum(t.column(c)).as_py() or 0] for c in _FLAGS}})


def _curated_docs(sf_dir: str, lang: str = "en", shingle: int = 8,
                  min_hits: int = 3,
                  benchmark: "list[str] | None" = None
                  ) -> "tuple[list, dict]":
    """The curation core shared by ``curate_corpus`` and
    ``train_pipeline``: returns (block refs of the deduped surviving
    docs with columns doc_id/text/source/fp, per-stage attrition counts
    keyed ``input`` and the ``_FLAGS``)."""
    block_ref = ray.put(build_ngram_blocklist(sf_dir, benchmark,
                                              shingle))

    # ONE flag pass over the documents; its block refs feed the
    # attrition fold and both exchanges, whose ``pre`` only filters and
    # projects
    flagged = exchange.map_blocks(
        exchange.leaf(f"{sf_dir}/documents.parquet",
                      ["doc_id", "text", "source"]),
        _flags_stage(block_ref, lang, shingle, min_hits))
    tot = pa.concat_tables(ray.get(exchange.map_blocks(flagged,
                                                       _attrition)))
    agg = {c: pc.sum(tot.column(c)).as_py() for c in tot.column_names}

    def kept(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("keep"), pa.scalar(
            1, pa.int8()))).select(["doc_id", "text", "source", "fp"])

    def kept_fp(t: pa.Table) -> pa.Table:
        return kept(t).select(["fp", "doc_id"])

    def survivor_ids(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id")})

    # exact dedup among the kept docs: survivors = min doc_id per fp,
    # computed over an (fp, doc_id) projection — text never shuffles;
    # then a co-partitioned semi-join keyed on doc_id keeps the docs
    # with a survivor id
    survivors = exchange.fx_agg_by(flagged, ["fp"], [("doc_id", "min")],
                                   pre=kept_fp)
    deduped = exchange.fx_join(
        flagged, survivors.refs, on="doc_id", how="semi",
        pre=(kept, survivor_ids)).refs
    return deduped, agg


def curate_corpus(sf_dir: str, out_dir: str | None = None,
                  lang: str = "en", shingle: int = 8, min_hits: int = 3,
                  benchmark: "list[str] | None" = None,
                  n_shards: int = 8) -> pa.Table:
    """Run the full curation pipeline; returns the per-stage attrition
    table (stage, n_docs) — deterministic for a given corpus/config.
    When ``out_dir`` is given the surviving corpus is also written as
    resumable training shards."""
    refs, agg = _curated_docs(sf_dir, lang, shingle, min_hits, benchmark)
    if out_dir is not None:
        # export THROUGH the shared sharded-writer contract; the row
        # count comes from the writer tasks — and a matching _EXPORTED
        # marker skips the write entirely
        from ..functions.sampling import write_shards

        # fingerprint the SOURCE alongside the params (mirrors
        # export_training_shards): params alone would let a re-run
        # after the corpus (or the flag-affecting benchmark list)
        # changed silently skip the export and report stale counts
        import os

        stat = os.stat(os.path.join(sf_dir, "documents.parquet"))
        payload = {"pipeline": "curate", "lang": lang,
                   "shingle": int(shingle), "min_hits": int(min_hits),
                   "n_shards": int(n_shards),
                   "size": stat.st_size, "mtime_ns": stat.st_mtime_ns,
                   "benchmark": sorted(benchmark) if benchmark else None}
        st = write_shards(refs, out_dir, n_shards, 17, payload)
        n_dedup = int(st["docs"])
    else:
        n_dedup = exchange.row_count(refs)

    return pa.table({
        "stage": pa.array(["input", "lang", "quality", "decontaminated",
                           "kept", "deduped"]),
        "n_docs": pa.array([agg[c] for c in ["input", *_FLAGS]]
                           + [int(n_dedup)], pa.int64()),
    })


def train_pipeline(sf_dir: str, out_dir: "str | None" = None,
                   lang: str = "en", shingle: int = 8, min_hits: int = 3,
                   benchmark: "list[str] | None" = None,
                   num_partitions: int = 16,
                   context_len: int = 256, n_shards: int = 4) -> pa.Table:
    """THE composed end-to-end training-data pipeline — every stage a
    repo operator, nothing bespoke:

        read -> language ID -> quality -> decontaminate -> exact dedup
             -> tokenize -> concat-and-chunk pack(context_len)
             -> resumable sharded export

    Returns a ONE-ROW manifest: per-stage doc attrition, pack count,
    total packed tokens (conservation: equals the surviving docs' token
    count — pinned in tests), shard count, and whether a matching
    export was reused (`skipped`).

    Scale shape: curation is `_curated_docs` (one flag pass + one
    fp-only dedup exchange), tokenization is one raw-task pass, packing
    is one hash exchange with vectorized in-partition chunking, export
    is the shared atomic-marker sharded writer keyed on pack_id; the
    summary re-reads ONLY the written shards' two int32 columns
    (~8 bytes per pack)."""
    import os

    import pyarrow.dataset as pads

    from ..functions.packing import pack_tokenized
    from ..functions.sampling import write_shards
    from .events_replay import tokenize_batch

    import json

    if out_dir is None:
        # the default dir is keyed on the FULL parameter identity so
        # differing-param runs coexist instead of thrashing each
        # other's cached export (found in review)
        import hashlib as _hl
        ident = _hl.md5(repr((lang, shingle, min_hits, num_partitions,
                              sorted(benchmark) if benchmark else None
                              )).encode()).hexdigest()[:8]
        out_dir = os.path.join(
            "/tmp/aqr_trainpipe",
            f"{os.path.basename(os.path.normpath(sf_dir))}"
            f"-c{context_len}-s{n_shards}-{ident}")
    stat = os.stat(os.path.join(sf_dir, "documents.parquet"))
    payload = {"pipeline": "train", "lang": lang, "shingle": int(shingle),
               "min_hits": int(min_hits), "context_len": int(context_len),
               "n_shards": int(n_shards),
               # pack boundaries depend on the partitioning — a re-run
               # at a different P must NOT reuse the export
               "num_partitions": int(num_partitions),
               "size": stat.st_size, "mtime_ns": stat.st_mtime_ns,
               "benchmark": sorted(benchmark) if benchmark else None}
    marker = os.path.join(out_dir, "_EXPORTED")
    man_path = os.path.join(out_dir, "_MANIFEST.json")
    if os.path.exists(marker) and os.path.exists(man_path):
        # true O(1) reuse: a matching export carries its manifest, so
        # curation/tokenization never re-execute for an unchanged
        # (source, params) identity
        with open(marker) as f:
            st0 = json.load(f)
        if st0.get("src") == payload:
            with open(man_path) as f:
                cached = json.load(f)
            cached["reused_export"] = 1
            return pa.table({k: pa.array([int(v)], pa.int64())
                             for k, v in cached.items()})

    deduped, agg = _curated_docs(sf_dir, lang, shingle, min_hits,
                                 benchmark)
    packed = pack_tokenized(exchange.map_blocks(deduped, tokenize_batch),
                            context_len, num_partitions)
    st = write_shards(packed.refs, out_dir, n_shards, 23, payload,
                      key_col="pack_id")
    meta = pads.dataset(out_dir, partitioning="hive").to_table(
        columns=["n_tok", "n_docs"])
    out = pa.table({
        "docs_in": pa.array([agg["input"]], pa.int64()),
        "docs_kept": pa.array([agg["keep"]], pa.int64()),
        "docs_packed": pa.array(
            [int(pc.sum(meta.column("n_docs")).as_py() or 0)],
            pa.int64()),
        "n_packs": pa.array([meta.num_rows], pa.int64()),
        "total_tokens": pa.array(
            [int(pc.sum(meta.column("n_tok")).as_py() or 0)], pa.int64()),
        "n_shards": pa.array([int(n_shards)], pa.int64()),
        "reused_export": pa.array([int(st.get("skipped", 0))],
                                  pa.int64()),
    })
    row = {k: int(out.column(k)[0].as_py()) for k in out.column_names
           if k != "reused_export"}
    tmp = man_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(row, f)
    os.replace(tmp, man_path)
    return out


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "curate_corpus",
    "train_pipeline",
))
