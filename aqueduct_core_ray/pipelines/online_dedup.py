"""Online near-dup detection over the CDC changefeed: the dedup half
of a training-data ingest loop, wired to the engine's time-travel diff.

The reference syncs rows and leaves curation to downstream batch jobs;
at 100-TB training-data scale the economical shape is INCREMENTAL —
each committed generation's added/updated docs are (1) matched against
a persisted MinHash band index of everything ingested before them,
then (2) appended to that index, so near-dup detection cost tracks the
DELTA, never the lake (reference analog: the till applies only its
parent's change batches, SQLiteStorage.java:133-171 — same O(delta)
contract, lifted to dedup).

Built entirely from public surface: ``CDCEngine.diff_generations``'s
changefeed (payload_columns=["tokens"]) feeds the token-shingle path of
``functions.dedup.build_minhash_index`` / ``match_minhash_index``. The
index is append-only — an UPDATED doc's old band rows stay behind and
may surface matches against its previous content (candidate-generation
semantics, documented LSH property); self-matches are excluded by
doc_id.

Ordering contract: the delta is APPENDED to the index first, then
matched against it — so intra-delta near-dups are reported too (a wave
carrying two copies flags the later doc against the earlier), with a
deterministic keeper rule: an intra-delta pair is reported only as
(larger doc_id, dup_of=smaller). Because the append happens first and
is idempotent (duplicate band rows collapse in the matcher), a crash
anywhere before the ``_GEN`` watermark write replays the window and
produces the IDENTICAL match set. Idempotent, no loss.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from ..functions.dedup import build_minhash_index, match_minhash_index
from ..stages.exchange import collect_tables

_GEN_FILE = "_GEN"
_EMPTY_MATCHES = pa.table({
    "doc_id": pa.array([], pa.string()),
    "dup_of": pa.array([], pa.string()),
    "est_jaccard_pct": pa.array([], pa.int64()),
})


def _read_gen(index_root: str) -> int | None:
    p = os.path.join(index_root, _GEN_FILE)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return int(json.load(f)["generation"])


def _write_gen(index_root: str, generation: int) -> None:
    p = os.path.join(index_root, _GEN_FILE)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"generation": int(generation)}, f)
    os.replace(tmp, p)


def bootstrap_dedup_index(engine, index_root: str, *, k: int = 64,
                          bands: int = 16, shingle: int = 3,
                          num_partitions: int = 16) -> int:
    """Seed the band index from the CURRENT lake state (one streaming
    pass over (doc_id, tokens)) and stamp the generation watermark.
    Returns the band-row count written."""
    n = build_minhash_index(
        engine.read_lake(columns=["doc_id", "tokens"]), index_root,
        k=k, bands=bands, shingle=shingle,
        num_partitions=num_partitions, column="tokens")
    _write_gen(index_root, engine.manifest.generation)
    return n


def online_dedup_step(engine, index_root: str, *, k: int = 64,
                      bands: int = 16, shingle: int = 3,
                      min_est_pct: int = 50,
                      num_partitions: int = 16
                      ) -> tuple[pa.Table, int, int]:
    """One maintenance step: match every doc added/updated since the
    index's generation watermark against the index, append the new
    docs' band rows, advance the watermark. Returns (matches table —
    (doc_id, dup_of, est_jaccard_pct), from_gen, to_gen).

    Scale shape: the changefeed fans out one diff task per TOUCHED
    partition (O(delta)); the delta is materialized ONCE (wave-bounded
    by construction) and both the match exchange and the index append
    read it; the index itself is only ever touched partition-pruned."""
    g_from = _read_gen(index_root)
    if g_from is None:
        raise FileNotFoundError(
            f"no dedup index watermark under {index_root}; run "
            "bootstrap_dedup_index first")
    m = engine.manifest
    g_to = m.generation if m else 0
    if g_to == g_from:
        return _EMPTY_MATCHES, g_from, g_to
    feed = engine.diff_generations(g_from, payload_columns=["tokens"])

    def live_side(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = pc.invert(pc.equal(t.column("change"), "deleted"))
        t = t.filter(keep)
        return pa.table({"doc_id": t.column("doc_id"),
                         "tokens": t.column("tokens")})

    delta = feed.map_batches(live_side,
                             batch_format="pyarrow").materialize()
    if delta.count() == 0:
        _write_gen(index_root, g_to)
        return _EMPTY_MATCHES, g_from, g_to
    # append FIRST (idempotent), then match: crash replays are exact,
    # and intra-delta dups surface deterministically on every run
    build_minhash_index(delta, index_root, k=k, bands=bands,
                        shingle=shingle, num_partitions=num_partitions,
                        column="tokens")
    pairs = match_minhash_index(
        delta, index_root, k=k, bands=bands, shingle=shingle,
        min_est_pct=min_est_pct, num_partitions=num_partitions,
        column="tokens", fold_best=False)
    tabs = [t for t in collect_tables(pairs) if t.num_rows]
    out = (pa.concat_tables(tabs) if tabs else _EMPTY_MATCHES)
    if out.num_rows:
        # intra-delta keeper rule BEFORE the best fold (else a doc
        # whose best candidate is a larger intra-delta sibling would
        # lose its legitimate cross-generation match): within the
        # delta only the LARGER id reports the smaller as its dup
        delta_ids = set()
        for t in collect_tables(delta):
            delta_ids.update(t.column("doc_id").to_pylist())
        d = out.column("doc_id").to_pylist()
        o = out.column("dup_of").to_pylist()
        keep = [oo not in delta_ids or oo < dd
                for dd, oo in zip(d, o)]
        out = out.filter(pa.array(keep))
    if out.num_rows:
        import numpy as np
        d = out.column("doc_id").to_numpy(zero_copy_only=False)
        o = out.column("dup_of").to_numpy(zero_copy_only=False)
        e = out.column("est_jaccard_pct").to_numpy(zero_copy_only=False)
        order = np.lexsort((o, -e, d))
        d, o, e = d[order], o[order], e[order]
        first = np.concatenate([[True], d[1:] != d[:-1]])
        out = pa.table({"doc_id": pa.array(d[first]),
                        "dup_of": pa.array(o[first]),
                        "est_jaccard_pct": pa.array(e[first])})
    _write_gen(index_root, g_to)
    return out, g_from, g_to
