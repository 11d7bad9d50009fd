"""The hash-partitioned merge-apply stage: wave delta -> new lake partition.

Reference semantics being reproduced per partition (SURVEY.md D1/ST3):
  - LWW: keep only the max-lsn version per doc_id
    (SQLiteQueries.java:51-52, golden fixtures
    SQLiteStorageIntegrationSpec.groovy:710-921);
  - tombstones remove the key from the materialized table
    (SQLiteQueries.java:54-55);
  - apply is idempotent: re-applying a wave over the same committed state
    yields byte-identical output (the reference's PK fence,
    SQLiteQueries.java:22).

Execution shape: raw scan tasks (log row groups, seed row groups or
rows, or a reshard's pseudo events) run the one split core,
`split_events`: tag `part = hash(doc_id) % P`, pre-compact per block
(the combiner) and write one lz4 exchange block in the shared format
(stages/exchange_files.py: one record batch per partition, a slice
manifest returned to the driver); with `salt=S`, S combine tasks
re-fold a wide wave's blocks (`combine_blocks`). The engine plans each
partition's slices from the manifests and hands them to one merge
task. The task holds the "per-partition sorted upsert buffer" of the
north star: the compacted delta sorted by doc_id, merged against the
partition's committed state — either as a FULL rewrite or, for small
waves, a DELTA SIDECAR next to the untouched base (see
merge_partition_files).
Only the DELTA is ever shuffled — the lake itself is read and written
partition-locally.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Any, Callable, Container

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..partitioning import add_partition
from ..schema import evolve_schema, reconcile_batch
from ..state.manifest import schema_from_b64
from .compact import LWW, ConflictPolicy, compact_lww, split_tombstones
from .exchange_files import MANIFEST, plan_slices, read_slices, write_slices

# wave exchange blocks are lz4 IPC (the library's are uncompressed).
# Chosen when lz4 halved the staged-shuffle footprint on tmpfs at 32
# CPUs, where concurrent page-faulting of fresh tmpfs pages was the
# scale bottleneck; on one core and ext4 it costs write time and saves
# little (ROADMAP open perf item).
WAVE_CODEC = "lz4"

# CDC envelope columns that never land in the lake
ENVELOPE = ("lsn", "op", "ts", "part")


def payload_schema(event_schema: pa.Schema) -> pa.Schema:
    return pa.schema([f for f in event_schema if f.name not in ENVELOPE])


FENCE_COL = "last_op"      # tombstone-fence marker (retaining policies)


def delta_to_lake_rows(ups: pa.Table, lake_schema: pa.Schema,
                       policy: ConflictPolicy = LWW) -> pa.Table:
    """Project compacted winners into lake rows (payload + last_lsn,
    the policy's last_<order> column when non-lsn, and the last_op
    tombstone-fence marker when the policy retains tombstones)."""
    extra = {"last_lsn", FENCE_COL}
    if policy.lake_order_field:
        extra.add(policy.lake_order_field)
    pay = pa.schema([f for f in lake_schema if f.name not in extra])
    out = reconcile_batch(ups, pay)
    out = out.append_column("last_lsn", ups.column("lsn").cast(pa.int64()))
    if policy.lake_order_field:
        f = lake_schema.field(policy.lake_order_field)
        out = out.append_column(
            policy.lake_order_field,
            ups.column(policy.order_col).cast(f.type))
    if FENCE_COL in lake_schema.names:
        out = out.append_column(FENCE_COL,
                                ups.column("op").cast(pa.int8()))
    return out.select(lake_schema.names)   # column order = lake schema order


def _old_as_events(old: pa.Table, policy: ConflictPolicy) -> pa.Table:
    """Committed lake rows as pseudo change events so contested keys are
    resolved by the SAME compaction kernel as within-log conflicts.
    Tombstone-fence rows (last_op=1) re-enter as tombstone events — the
    mechanism that keeps a delete's blocking power across waves under
    retaining policies."""
    n = old.num_rows
    if FENCE_COL in old.column_names:
        op = pc.fill_null(old.column(FENCE_COL), 0).cast(pa.int8())
    else:
        op = pa.array(np.zeros(n, np.int8))
    cols: dict[str, Any] = {
        "lsn": old.column("last_lsn").cast(pa.int64()),
        "op": op,
    }
    if policy.lake_order_field:
        cols[policy.order_col] = old.column(policy.lake_order_field)
    for name in old.column_names:
        if name != "last_lsn" and name not in cols \
                and name != policy.lake_order_field \
                and name != FENCE_COL:
            cols[name] = old.column(name)
    return pa.table(cols)


def merge_partition(old: pa.Table, delta: pa.Table,
                    lake_schema: pa.Schema,
                    policy: ConflictPolicy = LWW
                    ) -> tuple[pa.Table, int, int]:
    """Apply a compacted delta to one partition's table.

    Unified-compaction merge: old rows become pseudo-events and compete
    with the delta under `policy` — correct for ANY ordering column,
    including out-of-order event time (where "the delta is newer" does
    not hold). Tombstone winners drop their key from the partition.

    Returns (new_table sorted by doc_id, n_applied, n_removed). Old rows
    are reconciled to the (possibly evolved) lake schema first, so e.g.
    int32 -> int64 `n_tok` widening applies lake-wide on the next touch.
    """
    old = reconcile_batch(old, lake_schema)
    n_old = old.num_rows
    old_ev = _old_as_events(old, policy)
    flag = "__from_delta"
    old_ev = old_ev.append_column(flag, pa.array(np.zeros(n_old, bool)))
    delta = delta.append_column(
        flag, pa.array(np.ones(delta.num_rows, bool)))
    union = evolve_schema(pa.schema(old_ev.schema), pa.schema(delta.schema))
    both = pa.concat_tables([reconcile_batch(old_ev, union),
                             reconcile_batch(delta, union)])
    win = compact_lww(both, "doc_id", policy=policy)
    ups, dels = split_tombstones(win)
    n_applied = int(pc.sum(ups.column(flag)).as_py() or 0)
    # n_deleted counts only TOMBSTONED existing docs — an update is one
    # applied event, not an apply + a delete (metric double-count found
    # in review)
    n_deleted = int(pc.sum(pc.is_in(
        old.column("doc_id"),
        value_set=dels.column("doc_id").combine_chunks())).as_py() or 0) \
        if dels.num_rows else 0
    # retaining policies materialize tombstone winners as fence rows
    # (see ConflictPolicy.retains_tombstones); default LWW drops them
    keep = win if FENCE_COL in lake_schema.names else ups
    # compact_lww emits winners in doc_id-ascending order (it sorts by
    # (doc_id, order) and takes the first index per run) and
    # delta_to_lake_rows is column-wise only, so the result is ALREADY
    # sorted by doc_id — a defensive re-sort here was a full extra
    # gather of the partition's token lists every wave (measured in the
    # round-1 scaling audit)
    merged = delta_to_lake_rows(keep.drop_columns([flag]), lake_schema,
                                policy)
    return merged, n_applied, n_deleted


def split_events(events: pa.Table, shuffle_dir: str, num_partitions: int,
                 policy: ConflictPolicy = LWW,
                 pid: int | None = None) -> dict[str, Any]:
    """The one split core of every wave input (log scan, seed unit,
    reshard partition): tag ``part = hash(doc_id) % P``, keep only
    ``pid``'s rows for a partition rebuild, pre-compact per block (the
    combiner), and write ONE exchange block (``write_slices``).

    Compacts on the composite key (part, doc_id): doc_id determines part,
    so the dedup semantics are identical, but the single sort leaves the
    output GROUPED BY part — the writer slices it without a second
    sort+gather of the token lists.

    Idempotent under Ray task retry: a re-executed task writes a
    duplicate block, but rows are (doc_id, lsn)-identical and the
    merge-side ``compact_lww`` keeps exactly one survivor per key —
    same fence as the reference's PK on msg_offset
    (SQLiteQueries.java:22).

    Returns the scan-result dict the engine folds — {"manifest": the
    block's slice manifest (empty when nothing is left), "hour_max",
    "source_max"}; the maxima are empty here, only log scans fill
    them."""
    out: dict[str, Any] = {"manifest": MANIFEST.empty_table(),
                           "hour_max": {}, "source_max": {}}
    if events.num_rows == 0:
        return out
    tagged = add_partition(events, num_partitions)
    if pid is not None:
        tagged = tagged.filter(pc.equal(tagged.column("part"),
                                        pa.scalar(pid, pa.int32())))
        if tagged.num_rows == 0:
            return out
    block = compact_lww(tagged, key=["part", "doc_id"], policy=policy)
    out["manifest"] = write_slices(block, shuffle_dir,
                                   compression=WAVE_CODEC)
    return out


def _read_units(units: list[tuple[str, list[int] | None]],
                each: "Callable[[pa.Table], pa.Table] | None" = None
                ) -> pa.Table:
    """Read [(parquet path, row_group_ids | None)] units into one table,
    applying ``each`` per unit before the concat; schemas of different
    vintages (mid-stream evolution) are unified."""
    tabs = []
    for path, rgs in units:
        f = pq.ParquetFile(path)
        t = f.read_row_groups(rgs) if rgs is not None else f.read()
        tabs.append(each(t) if each is not None else t)
    return tabs[0] if len(tabs) == 1 else _unify_chain(tabs)


def scan_split_segment(
    units: list[tuple[str, list[int] | None]],
    lo: int,
    hi: int,
    sources: tuple[str, ...] | None,
    shuffle_dir: str,
    num_partitions: int,
    policy: ConflictPolicy = LWW,
    pid: int | None = None,
) -> dict[str, Any]:
    """Raw-task wave scan: read the unit's log row-groups, filter the
    (lo, hi] window + source subscription, then ``split_events`` — one
    task, no Dataset.

    Why raw tasks here (same argument as the merge side): a wave's scan
    is a FIXED set of per-segment jobs with nothing to stream between
    stages; Ray Data's planner adds ~0.4 s/wave of driver-side planning
    plus per-stage block accounting, which is pure critical path at
    multi-M events/s. ``units`` = [(path, row_group_ids | None)] —
    row-group granularity keeps any task's working set under the byte
    target regardless of segment size.

    Adds the window's {hour_epoch_us (str) -> max lsn} and {source ->
    max lsn} to the result (skipped for a one-``pid`` rebuild scan) —
    they feed the maintained named offsets (OffsetName.java:3-5:
    MAX_OFFSET_PREVIOUS_HOUR and MAX_OFFSET_CONSUMERS), folded
    driver-side from data the task already had, no extra I/O."""
    def window(t: pa.Table) -> pa.Table:
        lsn = t.column("lsn")
        mask = pc.and_(pc.greater(lsn, pa.scalar(lo, pa.int64())),
                       pc.less_equal(lsn, pa.scalar(hi, pa.int64())))
        if sources:
            mask = pc.and_(mask, pc.is_in(
                t.column("source"),
                value_set=pa.array(list(sources))))
        # full-replay fast path: when the whole unit falls inside the
        # window (the common convergence wave) skip the filter's full
        # copy of the token lists
        if int(pc.sum(mask).as_py() or 0) < t.num_rows:
            t = t.filter(mask)
        return t

    block = _read_units(units, window)
    out = split_events(block, shuffle_dir, num_partitions, policy, pid)
    if pid is None and block.num_rows:
        out["hour_max"] = _hour_max_lsn(block)
        out["source_max"] = _source_max_lsn(block)
    return out


def seed_events(t: pa.Table) -> pa.Table:
    """Seed rows of LAKE_ROW shape as insert events: lsn = last_lsn (0
    when absent), op = 0, payload as-is, ts null and LAST — the regular
    change-event column order, so bootstrap outbox segments concat
    cleanly with wave segments."""
    n = t.num_rows
    cols = {
        "lsn": t.column("last_lsn").cast(pa.int64())
        if "last_lsn" in t.column_names
        else pa.array(np.zeros(n, np.int64)),
        "op": pa.array(np.zeros(n, np.int8)),
    }
    for name in t.column_names:
        if name != "last_lsn":
            cols[name] = t.column(name)
    cols["ts"] = pa.nulls(n, pa.timestamp("us"))
    return pa.table(cols)


def seed_split_segment(seed: "list[tuple[str, list[int] | None]] | pa.Table",
                       shuffle_dir: str, num_partitions: int,
                       policy: ConflictPolicy = LWW,
                       pid: int | None = None) -> dict[str, Any]:
    """Raw seed task (bootstrap, and a seeded partition rebuild): one
    byte-budgeted seed unit — parquet row groups [(path, row_group_ids)]
    or an in-memory row slice — as insert events through
    ``split_events``. No window filter (every seed row is applied) and
    no hour/source maxima: only log waves maintain those checkpoints."""
    t = seed if isinstance(seed, pa.Table) else _read_units(seed)
    return split_events(seed_events(t), shuffle_dir, num_partitions,
                        policy, pid)


def combine_blocks(manifests: "list[pa.Table]", shuffle_dir: str,
                   policy: ConflictPolicy = LWW) -> pa.Table:
    """Salt combine (``CDCEngine(salt=S)``): fold several scan blocks of
    one wave, given by their manifests, into ONE block on (part, doc_id)
    under ``policy``. The engine runs S of these over every S-th block
    when a wave wrote more than S blocks, so a hot doc reaches its merge
    task as at most S rows instead of one per scan block. Sound because
    ``compact_lww`` keeps the policy-winning EVENT per key (the same
    associativity the per-block combiner and the chain tier rely on).
    Returns the combined block's manifest."""
    plan, _ = plan_slices(manifests)
    tabs = read_slices([s for slices in plan.values() for s in slices])
    block = compact_lww(_unify_chain(tabs), key=["part", "doc_id"],
                        policy=policy)
    return write_slices(block, shuffle_dir, compression=WAVE_CODEC)


_HOUR_US = 3_600_000_000


def _hour_max_lsn(block: pa.Table) -> dict[str, int]:
    """Per-hour max lsn of a scanned window (null-ts rows skipped) —
    a handful of entries per wave, vectorized segmented max."""
    if "ts" not in block.column_names:
        return {}
    col = block.column("ts").combine_chunks()
    ok = col.is_valid().to_numpy(zero_copy_only=False)
    if not ok.any():
        return {}
    ts = pc.fill_null(col.cast(pa.int64()), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    lsn = block.column("lsn").to_numpy(zero_copy_only=False)
    hours = ts[ok] // _HOUR_US
    ls = lsn[ok]
    order = np.argsort(hours, kind="stable")
    h, start = np.unique(hours[order], return_index=True)
    mx = np.maximum.reduceat(ls[order], start)
    return {str(int(hh)): int(m) for hh, m in zip(h, mx)}


def _source_max_lsn(block: pa.Table) -> dict[str, int]:
    """Per-type max lsn of a scanned window (null-source rows skipped)
    — the per-commit partial behind the maintained MAX_OFFSET_CONSUMERS
    checkpoint (SQLiteQueries.java:114-124 computes max(msg_offset)
    per type set by scan; here the maxima are folded incrementally so
    the answer never needs a log scan). A handful of entries per wave:
    the type registry is bounded by design."""
    if "source" not in block.column_names:
        return {}
    t = pa.table({"source": block.column("source"),
                  "lsn": block.column("lsn")})
    if t.column("source").null_count:
        t = t.filter(pc.is_valid(t.column("source")))
    mx = t.group_by("source").aggregate([("lsn", "max")]).sort_by("source")
    return {str(s): int(m) for s, m in zip(mx.column("source").to_pylist(),
                                           mx.column("lsn_max").to_pylist())}


def merge_partition_files(
    pid: int,
    lake_root: str,
    wave_id: str,
    plan: "list[tuple]",
    old_entry: "dict[str, Any] | None",
    lake_schema_b64: str,
    derivations: tuple[Any, ...] = (),
    policy: ConflictPolicy = LWW,
    outbox_dir: str | None = None,
    sidecar_frac: float = 0.0,
    max_deltas: int = 8,
    chain_compact: bool = True,
    allow_absorb: bool = True,
) -> dict[str, Any]:
    """File-exchange shuffle, read side: merge ONE partition.

    Reads the partition's exchange slices (``plan``: its (path, batch,
    ...) slices, planned by the engine from the scan manifests) + its
    committed lake state, applies LWW merge (D1 semantics), stages the
    result. Runs as a raw Ray task (``ray.remote`` in the engine): the
    merge fan is a fixed set of P independent single-partition jobs,
    where a Dataset adds a scheduling layer (stage startup, block
    accounting) with nothing to stream — measured ~0.5 s/wave saved at
    P=128.

    Two staging modes (the north star's RocksDB-style upsert buffers):

    - FULL: rewrite the merged partition (base + sidecars + delta) as a
      new base file. Always used for bootstrap and for big waves.
    - DELTA sidecar: when this wave's compacted delta (plus existing
      sidecars) stays under ``sidecar_frac`` of the base's physical rows
      and fewer than ``max_deltas`` sidecars exist, stage only the
      compacted delta (envelope kept) — per-wave write cost becomes
      O(delta), not O(partition), which is the difference between a
      steady-state CDC wave touching 0.1%% of a 10^10-row lake costing
      O(10^7) vs O(10^10). Readers merge base+sidecars partition-locally
      (``load_partition_table``); a wave that pushes pending past the
      ``sidecar_frac`` threshold triggers the absorbing full rewrite.
    - CHAIN (tiered) compaction: chain length hit ``max_deltas`` but
      pending rows are still under the absorb threshold — fold chain +
      delta into ONE sidecar, never reading the base (``_compact_chain``).
      Without this tier, tiny waves on a huge base (the true steady-state
      regime: 0.1%% waves hit the count cap at ~1.6%% pending with
      ``max_deltas=16``) would force an O(base) rewrite ~30x too early."""
    lake_schema = schema_from_b64(lake_schema_b64)
    tabs = read_slices(plan)
    if not tabs:
        raise RuntimeError(f"no staged delta for partition {pid}")
    # blocks may disagree on column order/presence when a wave spans
    # source segments of different vintages (bootstrap vs regular
    # outbox, mid-wave schema evolution): unify before concat
    delta = _unify_chain(tabs)
    base_rows = int(old_entry.get("file_rows", old_entry.get("rows", 0))) \
        if old_entry else 0
    existing = (old_entry.get("deltas") or []) if old_entry else []
    # chain cap: staggered per pid (see _staggered_max). In BACKGROUND
    # mode (allow_absorb=False) the cap quadruples into a pure
    # backstop — chain folds run as post-commit background tasks
    # (fold_chain_partition) so the wave keeps staging O(delta)
    # sidecars while a fold is in flight; the inline fold only fires
    # if the background maintenance falls 4x behind.
    _cap = _staggered_max(max_deltas, pid)
    if not allow_absorb:
        _cap = 4 * max_deltas
    may_sidecar = (old_entry is not None and sidecar_frac > 0
                   and len(existing) < _cap and base_rows > 0)
    # chain tier candidacy: chain full (the only way may_sidecar is
    # False while the rest hold) but pending may still be under the
    # absorb threshold — see _compact_chain
    may_chain = (chain_compact and not may_sidecar
                 and old_entry is not None and sidecar_frac > 0
                 and base_rows > 0 and bool(existing))
    if outbox_dir is not None or may_sidecar or may_chain:
        # the outbox/sidecar/chain-tier contracts need the COMPACTED
        # applied delta (the tier THRESHOLD must count compacted rows,
        # or an update-heavy wave overstates pending and falls through
        # to an O(base) absorb); otherwise this pre-compaction is
        # skipped — the merge's unified compaction resolves cross-block
        # duplicates in the same single pass that resolves delta-vs-old
        # (one fewer full token gather)
        delta = compact_lww(delta, policy=policy)

    if outbox_dir is not None:
        # hierarchical propagation (reference: till re-serving its parent's
        # change feed to children, SubNodeGroup.java:53-65): emit the
        # compacted applied delta — tombstones included — as a new
        # changelog segment. Atomic publish (write-then-rename); content
        # is deterministic, so a retried/re-run wave overwrites an
        # identical file and children (idempotent by lsn) are unaffected.
        os.makedirs(outbox_dir, exist_ok=True)
        seg = os.path.join(outbox_dir, f"{wave_id}-p{pid:06d}.parquet")
        write_lake_file(_drop_part(delta), seg + ".tmp", "zstd")
        os.replace(seg + ".tmp", seg)
    pending = sum(int(d["rows"]) for d in existing) + delta.num_rows
    if pending <= _staggered_frac(sidecar_frac, pid) * base_rows \
            or (not allow_absorb and old_entry is not None
                and sidecar_frac > 0 and base_rows > 0
                and delta.num_rows < base_rows):
        # allow_absorb=False (the engine's BACKGROUND-absorb mode):
        # the wave never pays the O(base) rewrite — over-threshold
        # partitions stage sidecars / fold chains as usual and the
        # driver launches the absorbing rewrite asynchronously after
        # the commit (adopted by a later wave's commit). EXCEPT when
        # THIS WAVE'S OWN delta reaches the base's size: deferring then
        # is strictly worse (the sidecar write is already O(base)-sized
        # and the background absorb rewrites everything again), so a
        # convergence-style wave merges inline even in bg mode. The
        # test is on the wave's delta, NOT accumulated pending —
        # pending grows while absorbs are in flight, and an inline
        # rewrite on that trigger would stall steady-state waves the
        # background absorb exists to protect (measured: 159 inline
        # fulls across the 32-wave bench before this distinction).
        if may_sidecar:
            return _stage_sidecar(pid, delta, lake_root, wave_id, old_entry,
                                  lake_schema, derivations, policy)
        if (old_entry is not None and sidecar_frac > 0
                and base_rows > 0 and existing
                and (chain_compact or not allow_absorb)):
            # chain full (max_deltas) but pending rows are still far
            # under the absorb threshold: TIERED compaction — fold the
            # chain + this delta into ONE sidecar without reading the
            # base. O(pending), not O(base); see _compact_chain.
            return _compact_chain(pid, delta, lake_root, wave_id,
                                  old_entry, policy)
    return _merge_and_stage(pid, delta, lake_root, wave_id, old_entry,
                            lake_schema, derivations, policy)


def merge_partition_files_batch(
    pids: list[int],
    lake_root: str,
    wave_id: str,
    plans: "list[list[tuple]]",
    entries: "list[dict | None]",
    lake_schema_b64: str,
    derivations: tuple[Any, ...] = (),
    policy: ConflictPolicy = LWW,
    outbox_dir: str | None = None,
    sidecar_frac: float = 0.0,
    max_deltas: int = 8,
    chain_compact: bool = True,
    allow_absorb: bool = True,
) -> list[dict[str, Any]]:
    """Several partitions' merges in ONE Ray task. The steady-state
    merge fan is ~P tasks per wave regardless of delta size; at small
    waves each task does milliseconds of work, so per-task dispatch
    overhead becomes a fixed floor on the wave wall. The engine groups
    touched partitions round-robin into ~2 tasks per CPU and ships one
    arg list instead of P arg tuples."""
    return [merge_partition_files(p, lake_root, wave_id, pl, e,
                                  lake_schema_b64, derivations, policy,
                                  outbox_dir, sidecar_frac, max_deltas,
                                  chain_compact=chain_compact,
                                  allow_absorb=allow_absorb)
            for p, pl, e in zip(pids, plans, entries)]


def _staggered_max(max_deltas: int, pid: int) -> int:
    """Per-partition jitter on the chain-length cap (same rationale as
    ``_staggered_frac``): waves touch partitions uniformly, so an
    un-jittered cap fills every chain at the SAME wave and bunches all
    P chain folds into one spike (measured: a 3.7 s wave in the
    32-wave bench vs a 0.3 s steady floor). Jittered caps in
    [max_deltas/2, max_deltas] spread the folds — and because the
    per-partition fold PERIOD differs too, they never re-synchronize."""
    if max_deltas <= 3:
        return max_deltas
    span = max_deltas // 2
    return max_deltas - ((pid * 2654435761) % (span + 1))


def _staggered_frac(sidecar_frac: float, pid: int) -> float:
    """Deterministic per-partition jitter (1.0–1.5×) on the absorb
    threshold: partitions fill their sidecar chains at the same rate, so
    an un-jittered threshold makes EVERY partition absorb in the SAME
    wave — a periodic full-lake rewrite spike (and a cluster-wide memory
    surge at scale). Jitter staggers absorbs across waves; correctness
    is threshold-independent (the state-equality tests replay with any
    frac)."""
    return sidecar_frac * (1.0 + 0.5 * ((pid * 2654435761) % 97) / 97.0)


# byte budget of one engine's FileCache (decoded committed files kept
# for point reads); a lookup-serving node keeps its hot partitions'
# chains resident, ~10 MB for a 20k-doc lake at P=16
FILE_CACHE_BYTES = 64 << 20


def write_lake_file(table: pa.Table, path: str, compression: str) -> None:
    """The one parquet writer of every file the engine puts in a lake:
    bases (zstd), sidecars and chain segments (lz4), outbox segments
    (zstd). Flat columns keep dictionary encoding (doc_id, source and
    the ints repeat or are small); nested ones (``tokens``) drop it: a
    token-list dictionary overflows the page limit and falls back to
    plain encoding anyway, so building it only costs write time."""
    pq.write_table(table, path, compression=compression,
                   use_dictionary=[f.name for f in table.schema
                                   if not pa.types.is_nested(f.type)])


def read_columns(path: str,
                 cols: "Container[str] | None" = None) -> pa.Table:
    """One open of a parquet file: the columns named in ``cols`` (all
    when None) that the file has, in file order. The uncached file
    reader of ``load_partition_table``. Single-threaded decode: part
    and sidecar files are small and their readers already run one per
    core (merge tasks) — on a 4-vCPU VM pyarrow's thread pool made a
    13-row sidecar 3x slower to read and a 1.3k-row base ~15% slower."""
    with pq.ParquetFile(path) as f:
        names = f.schema_arrow.names
        return f.read(columns=names if cols is None
                      else [c for c in names if c in cols],
                      use_threads=False)


class FileCache:
    """Decoded committed part and sidecar files, LRU-bounded by
    ``FILE_CACHE_BYTES``: a file reader for ``load_partition_table``
    that decodes each WHOLE file once, so it serves unprojected reads
    (a projected read is cheaper through ``read_columns``, which
    decodes only its columns). Committed files are immutable, but a
    path can be rewritten (a resumed wave re-promotes its own path, a
    wipe-and-resync restarts generations at 0), so a hit also needs the
    file's inode, size and mtime to match. ``retain`` evicts files the
    current manifest no longer names (absorbed, folded, restored away,
    vacuumed). Not thread-safe: like the engine that owns it, it is
    driven from one thread."""

    def __init__(self):
        self.budget = FILE_CACHE_BYTES
        self.nbytes = 0
        # path -> ((inode, size, mtime_ns), decoded table), LRU first
        self._tabs: OrderedDict = OrderedDict()

    def paths(self) -> list[str]:
        return list(self._tabs)

    def _drop(self, path: str) -> None:
        self.nbytes -= self._tabs.pop(path)[1].nbytes

    def __call__(self, path: str,
                 cols: "Container[str] | None" = None) -> pa.Table:
        st = os.stat(path)
        ident = (st.st_ino, st.st_size, st.st_mtime_ns)
        hit = self._tabs.get(path)
        if hit is not None and hit[0] == ident:
            self._tabs.move_to_end(path)
            t = hit[1]
        else:
            if hit is not None:
                self._drop(path)
            t = read_columns(path)
            if t.nbytes <= self.budget:
                while self.nbytes + t.nbytes > self.budget:
                    self._drop(next(iter(self._tabs)))
                self._tabs[path] = (ident, t)
                self.nbytes += t.nbytes
        return t if cols is None else t.select(
            [c for c in t.column_names if c in cols])

    def retain(self, paths: "set[str]") -> None:
        for p in [p for p in self._tabs if p not in paths]:
            self._drop(p)


def _with_keys(t: pa.Table, keys: pa.Array) -> pa.Table:
    return t.filter(pc.is_in(t.column("doc_id"), value_set=keys))


def _sidecar_events(entry: dict, lake_root: str, proj: pa.Schema,
                    policy: ConflictPolicy, read: Callable,
                    keys: "pa.Array | None") -> pa.Table | None:
    """Concat of a partition's delta sidecars, projected to the envelope
    columns the merge needs plus proj's payload columns (and to the
    rows of ``keys`` when given)."""
    deltas = entry.get("deltas") or []
    if not deltas:
        return None
    want = {"lsn", "op", policy.order_col, *proj.names}
    tabs = [read(os.path.join(lake_root, d["path"]), want) for d in deltas]
    union = tabs[0].schema
    for t in tabs[1:]:
        if not t.schema.equals(union):
            union = evolve_schema(union, t.schema)
    events = pa.concat_tables(
        [t if t.schema.equals(union) else reconcile_batch(t, union)
         for t in tabs])
    return events if keys is None else _with_keys(events, keys)


def load_partition_table(lake_root: str, entry: "dict[str, Any] | None",
                         lake_schema: pa.Schema,
                         policy: ConflictPolicy = LWW,
                         columns: list[str] | None = None,
                         keys: "pa.Array | None" = None,
                         read: Callable = read_columns) -> pa.Table:
    """LOGICAL view of one partition: committed base file + delta
    sidecars merged under ``policy`` — the read side of the sidecar
    design. Partition-local: reads only this partition's files, prunes
    to ``columns`` (+ the doc_id/last_lsn/order columns the merge
    itself needs) and runs the same unified-compaction kernel the write
    side uses, so readers and writers can never disagree.

    ``keys`` (doc_ids, an Arrow array) filters the base and every
    sidecar BEFORE the merge — exact under any policy, since the merge
    resolves each key on its own — and skips the merge when no sidecar
    row matches. ``read(path, cols)`` reads one file (``FileCache``
    for a driver serving point reads)."""
    if columns is None:
        proj = lake_schema
    else:
        need = set(columns) | {"doc_id", "last_lsn"}
        if policy.lake_order_field:
            need.add(policy.lake_order_field)
        if FENCE_COL in lake_schema.names:
            need.add(FENCE_COL)
        proj = pa.schema([f for f in lake_schema if f.name in need])
    if entry is None:
        return proj.empty_table()
    # missing columns null-filled, ints widened
    base = reconcile_batch(
        read(os.path.join(lake_root, entry["path"]), set(proj.names)), proj)
    if keys is not None:
        base = _with_keys(base, keys)
    events = _sidecar_events(entry, lake_root, proj, policy, read, keys)
    if events is None or events.num_rows == 0:
        return base
    merged, _, _ = merge_partition(base, events, proj, policy)
    return merged


def _stage_sidecar(pid: int, delta: pa.Table, lake_root: str,
                   wave_id: str, old_entry: dict,
                   lake_schema: pa.Schema,
                   derivations: tuple[Any, ...],
                   policy: ConflictPolicy) -> dict[str, Any]:
    """DELTA mode: stage the compacted delta itself (envelope kept, so
    readers can order it against the base) — truly O(delta): the base
    is never read. Exact logical row counts and derivation partials
    need the OLD values of the delta's keys (membership in the base),
    which for uniformly-random keys costs an O(partition) read no
    index can avoid; instead the manifest keeps stats AS OF THE LAST
    FULL ACCOUNTING (entry with non-empty ``deltas`` = stale) and
    exact values are recomputed lazily — at absorb time (free: the
    absorbing merge reads everything anyway) or on demand by
    ``CDCEngine.exact_partition_stats`` when a derived table or
    operator report is queried while sidecars are pending. Reference
    anchor: the till maintains offsets incrementally and never
    recounts its table per batch (SQLiteStorage.java:133-171); the
    analog here is paying accounting cost per *query/absorb*, not per
    wave.

    ``n_applied``/``n_deleted`` for a sidecar wave count the staged
    delta's live/tombstone events ("events processed") rather than
    base-membership-exact applies — identical in the monotonic-lsn
    common path (a compacted delta row always beats the committed
    row), differing only for deletes of absent docs."""
    out = _drop_part(delta)
    staged_dir = os.path.join(lake_root, "_staged", wave_id)
    os.makedirs(staged_dir, exist_ok=True)
    path = os.path.join(staged_dir, f"p={pid:06d}.parquet")
    # lz4, not zstd: sidecars/chain segments are TRANSIENT (absorbed
    # into the zstd base later) and their write sits on the wave
    # critical path — measured +10-40% steady-state throughput over
    # zstd staging; base files stay zstd (they are the lake's resident
    # footprint)
    write_lake_file(out, path, "lz4")
    n_tomb = int(pc.sum(pc.equal(out.column("op"),
                                 pa.scalar(1, pa.int8()))).as_py() or 0)
    return {
        "pid": pid,
        "mode": "delta",
        "rows": -1,                      # unknown until next accounting
        "file_rows": out.num_rows,
        "bytes": os.path.getsize(path),
        "hwm": int(pc.max(delta.column("lsn")).as_py()),
        "n_applied": out.num_rows - n_tomb,
        "n_deleted": n_tomb,
        "partials_json": "",             # manifest partials stay as-of-base
    }


def _compact_chain(pid: int, delta: pa.Table, lake_root: str,
                   wave_id: str, old_entry: dict,
                   policy: ConflictPolicy) -> dict[str, Any]:
    """TIERED mode: the sidecar chain is full (``max_deltas``) but total
    pending rows are still under the absorb threshold — merge the chain
    plus this wave's delta into ONE sidecar. The base is never read:
    cost is O(pending), which at a 10^10-row lake with 0.1%% waves is
    ~30x cheaper than the O(base) absorb the count cap used to force.
    Correct because ``compact_lww`` over an event stream keeps the
    policy-winning EVENT per key (tombstones survive as events), so
    merge(base, compact(chain+delta)) == merge(base, chain+delta) — the
    associativity the sidecar property test pins. LSM analog: universal
    compaction of L0 runs into a single L1 run; the absorbing rewrite
    into the base still happens once pending crosses ``sidecar_frac``.

    ``n_applied``/``n_deleted`` keep the sidecar-wave convention: THIS
    wave's compacted-delta live/tombstone events ("events processed"),
    not the merged chain's."""
    delta = compact_lww(delta, policy=policy)
    mine = _drop_part(delta)
    tabs = [pq.read_table(os.path.join(lake_root, d["path"]))
            for d in (old_entry.get("deltas") or [])] + [mine]
    merged = compact_lww(_unify_chain(tabs), policy=policy)
    staged_dir = os.path.join(lake_root, "_staged", wave_id)
    os.makedirs(staged_dir, exist_ok=True)
    path = os.path.join(staged_dir, f"p={pid:06d}.parquet")
    write_lake_file(merged, path, "lz4")
    n_tomb = int(pc.sum(pc.equal(mine.column("op"),
                                 pa.scalar(1, pa.int8()))).as_py() or 0)
    return {
        "pid": pid,
        "mode": "chain",                 # replaces the chain, keeps base
        "rows": -1,                      # unknown until next accounting
        "file_rows": merged.num_rows,
        "bytes": os.path.getsize(path),
        "hwm": int(pc.max(delta.column("lsn")).as_py()),
        "n_applied": mine.num_rows - n_tomb,
        "n_deleted": n_tomb,
        "partials_json": "",             # manifest partials stay as-of-base
    }


def _drop_part(t: pa.Table) -> pa.Table:
    """The exchange's routing column never lands in a lake or outbox file."""
    return t.drop_columns(["part"]) if "part" in t.column_names else t


def _unify_chain(tabs: "list[pa.Table]") -> pa.Table:
    """Concat chain segments, unifying schemas when the chain spans
    waves of different schema vintages (mid-chain evolution) — exactly
    like the read side does."""
    if len({t.schema for t in tabs}) > 1:
        union = tabs[0].schema
        for t in tabs[1:]:
            union = evolve_schema(union, t.schema)
        tabs = [reconcile_batch(t, union) for t in tabs]
    return pa.concat_tables(tabs)


def fold_chain(pid: int, lake_root: str, wave_id: str,
               entry: dict, policy: ConflictPolicy) -> dict[str, Any]:
    """Maintenance fold (``compact --fold`` / ``CDCEngine.fold_chains``):
    merge a partition's sidecar chain into ONE sidecar WITHOUT reading
    the base. Readers pay an O(chain-length) merge per partition read
    (``load_partition_table``); on a huge lake an operator can shorten
    every chain to length 1 for O(pending) total I/O — the absorbing
    ``compact`` rewrite costs O(base) and is overkill when pending is
    small. Same associativity argument as ``_compact_chain``:
    ``compact_lww`` keeps the policy-winning EVENT per key, so
    merge(base, compact(chain)) == merge(base, chain)."""
    tabs = [pq.read_table(os.path.join(lake_root, d["path"]))
            for d in (entry.get("deltas") or [])]
    merged = compact_lww(_unify_chain(tabs), policy=policy)
    staged_dir = os.path.join(lake_root, "_staged", wave_id)
    os.makedirs(staged_dir, exist_ok=True)
    path = os.path.join(staged_dir, f"p={pid:06d}.parquet")
    write_lake_file(merged, path, "lz4")
    return {"pid": pid, "file_rows": merged.num_rows,
            "bytes": os.path.getsize(path)}


def partition_accounting(pid: int, lake_root: str, entry: dict,
                         lake_schema_b64: str,
                         derivations: tuple[Any, ...],
                         policy: ConflictPolicy) -> dict[str, Any]:
    """Exact logical stats for ONE partition with pending sidecars:
    narrow-projection merge of base + delta chain (token payload never
    read), live row count + derivation partials. Runs as a raw Ray task
    from ``CDCEngine.exact_partition_stats`` — the lazily-paid
    counterpart of the per-wave accounting `_stage_sidecar` no longer
    does."""
    lake_schema = schema_from_b64(lake_schema_b64)
    need = {"doc_id", "last_lsn"}
    if policy.lake_order_field:
        need.add(policy.lake_order_field)
    if FENCE_COL in lake_schema.names:
        need.add(FENCE_COL)
    for d in derivations:
        if getattr(d, "upstream", "lake") == "lake":
            if d.key:
                need.add(d.key)
            need.update(c for c, f in d.aggs if c != "*")
    table = load_partition_table(lake_root, entry, lake_schema, policy,
                                 columns=list(need))
    live = live_rows(table)
    partials = {
        d.name: d.partial_records(live)
        for d in derivations if d.upstream == "lake"
    }
    return {"pid": pid, "rows": live.num_rows,
            "partials_json": json.dumps(partials)}


def fold_chain_partition(pid: int, lake_root: str, wave_id: str,
                         entry: dict,
                         policy: ConflictPolicy) -> dict[str, Any]:
    """BACKGROUND chain fold: compact one partition's sidecar chain
    into a single staged sidecar WITHOUT reading the base — the async
    twin of ``_compact_chain``. The inline fold sits on the wave
    critical path (measured: a synchronized fold wave cost 3.7 s vs a
    0.3 s steady floor); launched post-commit like a background absorb,
    the fold's O(pending) work overlaps the next waves and its result
    is adopted by a later commit iff the basis (base path + folded
    chain prefix) is still intact. Correct by the same ``compact_lww``
    associativity the sidecar property test pins: merge(base,
    compact(chain)) == merge(base, chain). Returns ``kind='fold'`` so
    the adopter REPLACES the chain prefix instead of the base. The
    fold kernel itself is ``fold_chain`` (one copy of the compression
    / schema-unify / staging-layout choices)."""
    r = fold_chain(pid, lake_root, wave_id, entry, policy)
    return {**r, "kind": "fold", "basis_path": entry["path"],
            "absorbed": [d["path"] for d in (entry.get("deltas") or [])]}


def absorb_partition(pid: int, lake_root: str, wave_id: str,
                     entry: dict, schema_b64: str,
                     derivations: tuple[Any, ...],
                     policy: ConflictPolicy) -> dict[str, Any]:
    """ABSORB one partition's sidecar chain into a new base file, staged
    under ``wave_id`` — the worker behind both the synchronous
    ``compact_partitions`` maintenance op and the engine's BACKGROUND
    absorbs (``bg_absorb=True``: the O(base) rewrite runs off the wave
    critical path and the next wave's commit adopts the result).
    Returns exact stats plus the basis identity (base path + absorbed
    delta paths) so the adopter can verify the entry is unchanged."""
    schema = schema_from_b64(schema_b64)
    merged = load_partition_table(lake_root, entry, schema, policy)
    # fence rows INCLUDED in the staged base (they must keep blocking);
    # stats/partials exclude them
    staged_dir = os.path.join(lake_root, "_staged", wave_id)
    os.makedirs(staged_dir, exist_ok=True)
    path = os.path.join(staged_dir, f"p={pid:06d}.parquet")
    write_lake_file(merged, path, "zstd")
    live = live_rows(merged)
    partials = {d.name: d.partial_records(live)
                for d in derivations if getattr(d, "upstream",
                                                "lake") == "lake"}
    return {"pid": pid, "rows": live.num_rows,
            "file_rows": merged.num_rows,
            "bytes": os.path.getsize(path),
            "partials_json": json.dumps(partials),
            "basis_path": entry["path"],
            "absorbed": [d["path"] for d in (entry.get("deltas") or [])]}


def diff_partition(pid: int, lake_root: str,
                   old_entry: "dict[str, Any] | None",
                   new_entry: "dict[str, Any] | None",
                   old_schema_b64: str, new_schema_b64: str,
                   policy: ConflictPolicy,
                   payload_columns: "list[str] | None" = None,
                   before_image: bool = False) -> pa.Table:
    """TIME-TRAVEL DIFF of one partition between two generations:
    (doc_id, change ∈ added|updated|deleted, lsn_old, lsn_new). Runs as
    a raw Ray task from ``CDCEngine.diff_generations`` — one task per
    CHANGED partition only (the driver skips partitions whose manifest
    entry — base path + delta chain — is identical in both
    generations, so a diff after a small wave costs O(touched), not
    O(lake)). Narrow projection: only doc_id/last_lsn (+ fence) are
    read, never the payload; the compare is one vectorized outer hash
    join.

    ``payload_columns`` turns the diff into a CHANGEFEED row (the
    Delta-CDF shape): each named lake column is appended with the
    NEW-generation value for added/updated docs and null for deleted —
    the new side is read ONCE with the extra columns, there is no
    second pass. ``before_image=True`` additionally appends
    ``<col>_old`` columns carrying the OLD-generation value for
    updated/deleted docs (null for added; null throughout when the old
    schema predates the column) — the Debezium before/after envelope,
    enabling O(delta) maintenance of XOR/merge-subtractable aggregates
    downstream (see state/checksums.py)."""
    import pandas as pd

    new_schema = schema_from_b64(new_schema_b64)
    old_schema = schema_from_b64(old_schema_b64)
    pay_cols = [c for c in (payload_columns or [])
                if c in new_schema.names and c != "doc_id"]
    old_pay_cols = ([c for c in pay_cols if c in old_schema.names]
                    if before_image else [])
    new_payload: "pa.Table | None" = None

    def side(entry, b64, extra_cols=()):
        # NULLABLE Int64, not numpy int64: a plain-int64 column would be
        # upcast to float64 by the outer merge's NaN fill, collapsing
        # lsn values past 2^53 (same hazard _int_sum_by guards against)
        if entry is None:
            return (pd.DataFrame({"doc_id": pd.Series([], dtype=object),
                                  "lsn": pd.Series([], dtype="Int64")}),
                    None)
        schema = schema_from_b64(b64)
        t = live_rows(load_partition_table(
            lake_root, entry, schema, policy,
            columns=["doc_id", *extra_cols]))
        return (pd.DataFrame({
            "doc_id": t.column("doc_id").to_numpy(zero_copy_only=False),
            "lsn": pd.array(t.column("last_lsn").to_numpy(
                zero_copy_only=False).astype(np.int64), dtype="Int64"),
        }), t)

    a, old_payload = side(old_entry, old_schema_b64, old_pay_cols)
    a = a.rename(columns={"lsn": "lsn_old"})
    b, new_payload = side(new_entry, new_schema_b64, pay_cols)
    b = b.rename(columns={"lsn": "lsn_new"})
    m = a.merge(b, on="doc_id", how="outer", indicator=True)
    change = np.where(
        m["_merge"] == "right_only", "added",
        np.where(m["_merge"] == "left_only", "deleted", "updated"))
    # Kleene OR: non-'both' rows are True regardless of the NA side
    keep = ((m["_merge"] != "both")
            | (m["lsn_old"] != m["lsn_new"])).fillna(False).astype(bool)
    m = m[keep]
    out = pa.table({
        "doc_id": pa.array(m["doc_id"].to_numpy(), pa.string()),
        "change": pa.array(change[keep.to_numpy()], pa.string()),
        "lsn_old": pa.array(m["lsn_old"].to_numpy(dtype="int64",
                                                  na_value=0),
                            mask=m["lsn_old"].isna().to_numpy()),
        "lsn_new": pa.array(m["lsn_new"].to_numpy(dtype="int64",
                                                  na_value=0),
                            mask=m["lsn_new"].isna().to_numpy()),
    })
    for c in pay_cols:
        typ = new_schema.field(c).type
        if new_payload is None or new_payload.num_rows == 0:
            col: "pa.Array | pa.ChunkedArray" = pa.nulls(out.num_rows, typ)
        else:
            idx = pd.Index(new_payload.column("doc_id")
                           .to_numpy(zero_copy_only=False))
            pos = idx.get_indexer(m["doc_id"].to_numpy())
            col = new_payload.column(c).combine_chunks().take(
                pa.array(pos.astype(np.int64), mask=pos < 0))
            if col.type != typ:
                col = col.cast(typ)
        out = out.append_column(c, col)
    if before_image:
        for c in pay_cols:
            typ = new_schema.field(c).type
            if (c not in old_pay_cols or old_payload is None
                    or old_payload.num_rows == 0):
                colo: "pa.Array | pa.ChunkedArray" = pa.nulls(
                    out.num_rows, typ)
            else:
                idx = pd.Index(old_payload.column("doc_id")
                               .to_numpy(zero_copy_only=False))
                pos = idx.get_indexer(m["doc_id"].to_numpy())
                colo = old_payload.column(c).combine_chunks().take(
                    pa.array(pos.astype(np.int64), mask=pos < 0))
                if colo.type != typ:
                    colo = colo.cast(typ)
            out = out.append_column(f"{c}_old", colo)
    return out


def live_rows(t: pa.Table) -> pa.Table:
    """User-visible view: tombstone-fence rows excluded."""
    if FENCE_COL not in t.column_names:
        return t
    return t.filter(pc.not_equal(
        pc.fill_null(t.column(FENCE_COL), 0), pa.scalar(1, pa.int8())))


def _merge_and_stage(pid: int, delta: pa.Table, lake_root: str,
                     wave_id: str, old_entry: "dict[str, Any] | None",
                     lake_schema: pa.Schema,
                     derivations: tuple[Any, ...],
                     policy: ConflictPolicy) -> dict[str, Any]:
    """FULL mode: apply the delta to
    the partition's logical state (base + any sidecars — an absorbing
    rewrite resets the sidecar chain), stage the merged base, compute
    partials/stats."""
    old = load_partition_table(lake_root, old_entry, lake_schema, policy)
    merged, n_applied, n_deleted = merge_partition(old, delta, lake_schema,
                                                   policy)
    hwm = int(pc.max(delta.column("lsn")).as_py())

    staged_dir = os.path.join(lake_root, "_staged", wave_id)
    os.makedirs(staged_dir, exist_ok=True)
    path = os.path.join(staged_dir, f"p={pid:06d}.parquet")
    write_lake_file(merged, path, "zstd")

    live = live_rows(merged)
    partials = {
        d.name: d.partial_records(live)
        for d in derivations if d.upstream == "lake"
    }
    return {
        "pid": pid,
        "mode": "full",
        "rows": live.num_rows,
        "file_rows": merged.num_rows,
        "bytes": os.path.getsize(path),
        "hwm": hwm,
        "n_applied": n_applied,
        "n_deleted": n_deleted,
        "partials_json": json.dumps(partials),
    }


def reshard_partition(pid: int, lake_root: str,
                      entry: "dict[str, Any]",
                      schema_b64: str,
                      policy: ConflictPolicy,
                      shuffle_dir: str,
                      num_partitions: int,
                      migrate: "Callable[[pa.Table], pa.Table] | None"
                      = None) -> dict[str, Any]:
    """RESHARD source task: one committed partition (base + delta
    chain, merged by the unified compaction kernel) re-emitted as
    pseudo change events — ``lsn = last_lsn`` and tombstone-fence rows
    as ``op=1`` events (``_old_as_events``), so replaying them through
    a fresh engine at a DIFFERENT partition count reproduces the exact
    logical state, conflict policy included. ``migrate`` (schema
    migration) rewrites the events in-task; ``split_events`` then
    writes them straight into the destination wave's exchange dir at
    the destination's partition count. Runs as a raw Ray task from
    ``CDCEngine.reshard_lake``; no row reaches the engine's process."""
    schema = schema_from_b64(schema_b64)
    t = load_partition_table(lake_root, entry, schema, policy)
    ev = _old_as_events(t, policy)
    if "ts" not in ev.column_names:
        # null ts, appended last — the regular change-event column
        # layout (under the event-time policy order_col == "ts" already
        # carries the timestamps; a second ts would be a duplicate)
        ev = ev.append_column("ts", pa.nulls(ev.num_rows,
                                             pa.timestamp("us")))
    if migrate is not None:
        ev = migrate(ev)
    return split_events(ev, shuffle_dir, num_partitions, policy)
