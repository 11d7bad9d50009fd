"""Flagship end-to-end pipeline: an external table replayed through the
full CDC engine (waves -> hash-partitioned merge-apply -> exactly-once
manifest commit -> materialized lake), SURVEY.md §3.2.

Two front-ends:

- ``replay_events_lake``: the testdata ``events`` table as the change log
  (see pipelines/log_queries.py for the column mapping). SQL-oracle
  checkable: the final lake must equal LWW-per-key minus tombstone-latest
  keys.
- ``tokenize_documents`` + ``replay_documents_lake``: the ``documents``
  table tokenized into the input_hint shape
  (doc_id:string, tokens:list<int32>, n_tok:int32, source:string) and
  ingested as an insert-only wave stream — the "pre-tokenized training
  sequences" lake of BASELINE.json.

The changelog is staged to parquet under a scratch dir first (at real
scale it already sits in object storage as the binlog); the timing-
relevant part is the engine replay, not the staging.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.text import words
from ..sources.changelog import BASE_TS_US
from ..stages import exchange
from .log_queries import _events, _extent, events_to_changelog
from .replay import CDCEngine

VOCAB = 50257


def _scratch(prefix: str) -> str:
    d = tempfile.mkdtemp(prefix=prefix, dir="/tmp")
    return d


def _wave_bounds(max_lsn: int, n_waves: int) -> list[tuple[int, int]]:
    edges = np.linspace(0, max_lsn, n_waves + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(n_waves)]


def replay_events_engine(sf_dir: str, n_waves: int = 4,
                         num_partitions: int = 16,
                         derivations: tuple = (),
                         emit_changelog: bool = False,
                         ) -> tuple[CDCEngine, int]:
    """events -> changelog parquet -> CDCEngine.replay; returns the
    engine (lake + manifests + derived-table partials committed) and the
    stream's max lsn."""
    work = _scratch("aqr-events-")
    log_dir, lake_dir = os.path.join(work, "log"), os.path.join(work, "cloud")
    os.makedirs(log_dir, exist_ok=True)
    max_lsn = _stage_log(_events(sf_dir), events_to_changelog, log_dir)
    eng = CDCEngine(lake_dir, num_partitions=num_partitions,
                    derivations=derivations, emit_changelog=emit_changelog)
    eng.replay(log_dir, _wave_bounds(max_lsn, n_waves))
    return eng, max_lsn


def replay_events_lake(sf_dir: str, n_waves: int = 4,
                       num_partitions: int = 16,
                       keep_columns: tuple[str, ...] = (
                           "doc_id", "value", "props", "source", "last_lsn"),
                       ) -> pa.Table:
    """Materialized (test-scale) result + scratch cleanup — the driver
    may call this repeatedly and must not leak /tmp lakes."""
    eng, _ = replay_events_engine(sf_dir, n_waves, num_partitions)
    out = eng.lake_table().select(list(keep_columns))
    shutil.rmtree(os.path.dirname(eng.store.root), ignore_errors=True)
    return out


def mirror_lake(sf_dir: str, n_waves: int = 4,
                num_partitions: int = 16,
                keep_columns: tuple[str, ...] = (
                    "doc_id", "value", "props", "source", "last_lsn"),
                ) -> pa.Table:
    """Hierarchical propagation proof with a SQL oracle: replay events
    into a parent lake that emits its outbox, have a CHILD engine tail
    the outbox, return the CHILD's lake — it must equal the same LWW
    oracle as the parent (reference §2.11: every till converges to the
    cloud's state)."""
    parent, max_lsn = replay_events_engine(
        sf_dir, n_waves, num_partitions, derivations=(),
        emit_changelog=True)
    work = os.path.dirname(parent.store.root)
    child = CDCEngine(os.path.join(work, "till"),
                      num_partitions=max(2, num_partitions // 2),
                      derivations=())
    child.tail(parent.outbox_dir, wave_size=max(1, max_lsn // n_waves),
               poll_interval_s=0.05, max_idle_polls=1)
    out = child.lake_table().select(list(keep_columns))
    shutil.rmtree(work, ignore_errors=True)
    return out


def derived_source_stats(sf_dir: str, n_waves: int = 4,
                         num_partitions: int = 16) -> pa.Table:
    """A6/DAG edge with a SQL oracle: the per-source derived table
    (row count + max last_lsn over the LIVE lake state), maintained as
    partial aggregates inside the merge tasks and folded from the
    manifest — the derived table refresh never re-reads the lake."""
    from .dag import Derivation

    der = (Derivation("source_stats", key="source",
                      aggs=(("*", "count"), ("last_lsn", "max"))),)
    eng, _ = replay_events_engine(sf_dir, n_waves, num_partitions,
                               derivations=der)
    out = eng.derived_table("source_stats")
    out = out.set_column(out.schema.get_field_index("n_rows"), "n_rows",
                         out.column("n_rows").cast(pa.int64()))
    shutil.rmtree(os.path.dirname(eng.store.root), ignore_errors=True)
    return out


def schema_evolution_lake(sf_dir: str, num_partitions: int = 8
                          ) -> ray.data.Dataset:
    """Schema evolution THROUGH the engine, with a SQL oracle: wave 1's
    segments carry no `props` column and an int32 `vlen`; wave 2 adds
    `props` and widens `vlen` to int64 (the north rule's added-column +
    int32→int64 cases). The final lake must show: every row's vlen as
    int64, and props only where the winning write came from wave 2 —
    exactly what the Arrow-schema reconciler inside the merge produces."""
    import pyarrow.dataset as pads

    tag = os.path.basename(os.path.normpath(sf_dir))
    work = f"/tmp/aqr-sev-{tag}-p{num_partitions}"
    shutil.rmtree(work, ignore_errors=True)
    log_dir, lake_dir = os.path.join(work, "log"), os.path.join(work, "lake")
    os.makedirs(log_dir, exist_ok=True)
    # the wave split is fixed before either half is written
    half = (_extent(sf_dir, "event_id")[1] + 1) // 2

    def to_v1(t: pa.Table) -> pa.Table:
        e = to_v2(t).drop_columns(["props"])
        return e.set_column(e.num_columns - 1, "vlen",
                            e.column("vlen").cast(pa.int32()))

    def to_v2(t: pa.Table) -> pa.Table:
        e = events_to_changelog(t)
        return e.append_column("vlen", pc.binary_length(
            e.column("props").cast(pa.binary())).cast(pa.int64()))

    max_lsn = max(
        _stage_log(_events(sf_dir, filter=pads.field("event_id") < half),
                   to_v1, log_dir),
        _stage_log(_events(sf_dir, filter=pads.field("event_id") >= half),
                   to_v2, log_dir))

    eng = CDCEngine(lake_dir, num_partitions=num_partitions)
    eng.replay(log_dir, [(0, half), (half, max_lsn)])
    if eng.manifest.schema.field("vlen").type != pa.int64():
        raise RuntimeError("vlen was not widened to int64 by the wave-2 "
                           "schema reconciliation")
    return eng.read_lake(
        columns=["doc_id", "value", "vlen", "props", "source", "last_lsn"])


# --------------------------------------------------------------------- #
# documents -> tokenized training-sequence lake (input_hint shape)
# --------------------------------------------------------------------- #
def tokenize_batch(t: pa.Table, text_col: str = "text",
                   vocab: int = VOCAB) -> pa.Table:
    """Vectorized whitespace+hash tokenizer: text -> tokens:list<int32>.

    Words via ``text.words`` (no Python row loop); token ids are a
    stable hash of each word mod vocab (``hash_str_array``'s keyed
    siphash, each distinct word hashed once — deterministic across
    processes, same property partitioning relies on)."""
    toks = words(t.column(text_col))
    ids = (exchange.hash_str_array(toks.flatten())
           % np.uint64(vocab)).astype(np.int32)
    tokens = pa.ListArray.from_arrays(toks.offsets, pa.array(ids))
    n_tok = pc.list_value_length(tokens).cast(pa.int32())
    doc_id = pc.binary_join_element_wise(
        pa.array(np.repeat("doc", t.num_rows)),
        pc.ascii_lpad(pc.cast(t.column("doc_id"), pa.string()), 8, "0"),
        "")
    return pa.table({"doc_id": doc_id, "tokens": tokens, "n_tok": n_tok,
                     "source": t.column("source")})


def _documents(sf_dir: str) -> exchange.Leaf:
    """The (doc_id, text, source) documents leaf that is tokenized."""
    return exchange.leaf(f"{sf_dir}/documents.parquet",
                         ["doc_id", "text", "source"])


def tokenize_documents(sf_dir: str) -> ray.data.Dataset:
    return ray.data.from_arrow_refs(
        exchange.map_blocks(_documents(sf_dir), tokenize_batch))


def _stage_log(src: exchange.Leaf, to_log, log_dir: str) -> int:
    """THE log stager: every unit of ``src`` mapped to change events by
    ``to_log`` and written into ``log_dir`` as one parquet segment by
    its own raw task; returns the max lsn written (0 for none), so no
    second pass reads it."""

    def write(t: pa.Table) -> pa.Table:
        e = to_log(t)
        exchange.write_file(e, log_dir)
        return pa.table({"max_lsn": [pc.max(e.column("lsn")).as_py()]})

    return max(t.column("max_lsn")[0].as_py() or 0
               for t in ray.get(exchange.map_blocks(src, write)))


def _document_events(t: pa.Table) -> pa.Table:
    """A documents unit as tokenized insert events (lsn = doc_id + 1)."""
    lsn = pc.add(t.column("doc_id"), 1).cast(pa.int64())
    tok = tokenize_batch(t)
    return pa.table({
        "lsn": lsn,
        "op": pa.array(np.zeros(t.num_rows, np.int8)),
        "doc_id": tok.column("doc_id"),
        "tokens": tok.column("tokens"),
        "n_tok": tok.column("n_tok"),
        "source": tok.column("source"),
        "ts": pc.add(pc.multiply(lsn, 1000), BASE_TS_US).cast(
            pa.timestamp("us")),
    })


def _documents_changelog(sf_dir: str, log_dir: str) -> int:
    """Write the documents table as a tokenized insert-only changelog;
    returns the max lsn. Shared by the flagship replay and the
    online-dedup feed."""
    return _stage_log(_documents(sf_dir), _document_events, log_dir)


def replay_documents_lake(sf_dir: str, n_waves: int = 2,
                          num_partitions: int = 8,
                          columns: "list[str] | None" = None
                          ) -> ray.data.Dataset:
    """Tokenized documents ingested as an insert-only change stream through
    the engine — the flagship `entry()` pipeline.

    Returns the lake as `read_lake()`'s Dataset over the per-partition
    read tasks' blocks, not a driver materialization: the lake lives in
    a deterministic per-(sf,params) scratch root that is wiped and
    rebuilt per call and left on disk."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    work = f"/tmp/aqr-docs-{tag}-w{n_waves}-p{num_partitions}"
    shutil.rmtree(work, ignore_errors=True)
    log_dir, lake_dir = os.path.join(work, "log"), os.path.join(work, "lake")
    os.makedirs(log_dir, exist_ok=True)
    max_lsn = _documents_changelog(sf_dir, log_dir)
    eng = CDCEngine(lake_dir, num_partitions=num_partitions)
    eng.replay(log_dir, _wave_bounds(max_lsn, n_waves))
    return eng.read_lake(columns=columns)


def generation_diff_events(sf_dir: str, num_partitions: int = 16):
    """TIME-TRAVEL DIFF with a SQL oracle: replay the events changelog
    in exactly TWO waves split at ``(max_lsn) // 2`` (integer
    arithmetic, so the oracle can reproduce the schedule bit-exactly),
    then diff generation 0 (after wave 1) against generation 1
    (CURRENT) — the relational twin is the outer join of the two
    prefix-LWW states. Returns (doc_id, change, lsn_old, lsn_new).

    ``_wave_bounds(max_lsn, 2)`` yields exactly ``[(0, max_lsn // 2),
    (max_lsn // 2, max_lsn)]`` (linspace's midpoint m/2 is an exact
    double for any int64 m, truncating to m // 2), so the oracle's
    ``(max(event_id) + 1) // 2`` split reproduces the schedule."""
    eng, _ = replay_events_engine(sf_dir, n_waves=2,
                                  num_partitions=num_partitions,
                                  derivations=())
    out = pa.concat_tables(ray.get(eng.diff_refs(0, 1))).to_pandas()
    shutil.rmtree(os.path.dirname(eng.store.root), ignore_errors=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def online_dedup_feed(sf_dir: str, num_partitions: int = 8,
                      min_est_pct: int = 80) -> ray.data.Dataset:
    """ONLINE dedup demo over the flagship ingest: the documents
    changelog replays in two generations — the band index bootstraps
    from generation 1's lake, then generation 2's delta is matched
    against it and appended (pipelines/online_dedup.py). Returns the
    second generation's near-dup matches (doc_id, dup_of,
    est_jaccard_pct) — docs whose token sequences near-duplicate
    something ALREADY INGESTED. Rows-only (hash/LSH-based)."""
    from .online_dedup import bootstrap_dedup_index, online_dedup_step
    tag = os.path.basename(os.path.normpath(sf_dir))
    work = f"/tmp/aqr-odd-{tag}-p{num_partitions}"
    shutil.rmtree(work, ignore_errors=True)
    log_dir = os.path.join(work, "log")
    lake_dir = os.path.join(work, "lake")
    idx_dir = os.path.join(work, "idx")
    os.makedirs(log_dir, exist_ok=True)
    max_lsn = _documents_changelog(sf_dir, log_dir)
    bounds = _wave_bounds(max_lsn, 2)
    eng = CDCEngine(lake_dir, num_partitions=num_partitions)
    eng.replay(log_dir, bounds[:1])
    bootstrap_dedup_index(eng, idx_dir,
                          num_partitions=num_partitions)
    eng.replay(log_dir, bounds[1:])
    matches, _, _ = online_dedup_step(eng, idx_dir,
                                      min_est_pct=min_est_pct,
                                      num_partitions=num_partitions)
    return ray.data.from_arrow(matches)


def lake_checksum(sf_dir: str, n_waves: int = 4,
                  num_partitions: int = 16) -> pa.Table:
    """Replay the events changelog, then emit the lake's per-bucket
    SYNC-VERIFICATION checksums (CDCEngine.checksum): 16 md5-bucketed
    (n_rows, xor_sig) rows over the full live-row payload in the fixed
    column order doc_id|last_lsn|value|props|source. The DuckDB oracle
    re-derives every signature from the raw log's LWW state, so a hash
    match proves the materialized lake is byte-equivalent to the
    relational truth — the strongest single-table convergence check the
    engine exposes (covers value/props corruption, not just lsn drift)."""
    eng, _ = replay_events_engine(sf_dir, n_waves, num_partitions)
    out = eng.checksum(
        columns=["doc_id", "last_lsn", "value", "props", "source"])
    shutil.rmtree(os.path.dirname(eng.store.root), ignore_errors=True)
    return out


def restore_lake(sf_dir: str, num_partitions: int = 16) -> pa.Table:
    """POINT-IN-TIME RESTORE with a SQL oracle: replay the events
    changelog in TWO waves split at ``max_lsn // 2`` (the same
    bit-exact schedule as ``generation_diff_events``), then RESTORE to
    generation 0 — the returned lake must equal the LWW state of the
    log PREFIX, proving the rollback commit points at exactly the
    post-wave-1 table (no file rewritten: restore is O(partitions)
    metadata). The restored engine's watermark moves back with the
    manifest, so a re-replay would re-apply wave 2 through the normal
    fence (pinned in tests/test_timetravel.py)."""
    eng, _ = replay_events_engine(sf_dir, n_waves=2,
                                  num_partitions=num_partitions,
                                  derivations=())
    eng.restore(0)
    out = eng.lake_table().select(
        ["doc_id", "value", "props", "source", "last_lsn"])
    shutil.rmtree(os.path.dirname(eng.store.root), ignore_errors=True)
    return out


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "derived_source_stats",
    "generation_diff_events",
    "lake_checksum",
    "mirror_lake",
    "online_dedup_feed",
    "replay_documents_lake",
    "restore_lake",
    "schema_evolution_lake",
    "tokenize_documents",
))
