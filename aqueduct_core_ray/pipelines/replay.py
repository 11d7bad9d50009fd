"""CDCEngine — the wave-replay driver loop with resume.

Mirrors the reference's till sync loop (SURVEY.md §3.2):

  poll parent for (hwm, watermark] batch     -> read_parquet(log, lsn-filter)
  single-transaction write of data+offsets   -> staged files + manifest commit
  named offsets (PIPE_OFFSET, ...)           -> manifest watermark + per-part HWM
  per-type till subscriptions / tree fanout  -> Derivation DAG refresh per wave
  compact + vacuum maintenance               -> LakeStore.vacuum()

Kill/resume (north_rule): every effect flows through LakeStore's
staged->promote->manifest chain; `replay()` consults CURRENT's watermark
and re-runs only unfinished waves, whose re-execution is deterministic and
idempotent. No dup/loss — validated by tests/test_resume.py.

Scale notes: the only exchange per wave is the indexed-file shuffle of
the *pre-compacted delta*, written by raw scan tasks over log segments,
seed units (bootstrap) or source partitions (reshard) — one wave path,
no Ray Data execution; the lake is read/written partition-locally by
the merge tasks — as full rewrites for big waves or O(delta) sidecar
segments for small ones; manifest/driver traffic is O(P) tiny rows;
promotes are O(P) renames. At 10^10 events this is a loop of bounded
waves.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data
from ray.exceptions import RayError

from ..schema import CHANGE_EVENT, evolve_schema
from ..stages.compact import LWW, ConflictPolicy
from ..stages.merge_apply import (
    FileCache,
    absorb_partition,
    combine_blocks,
    fold_chain_partition,
    diff_partition,
    reshard_partition,
    merge_partition_files,
    merge_partition_files_batch,
    partition_accounting,
    payload_schema,
    scan_split_segment,
    seed_events,
    seed_split_segment,
)
from ..stages.scan_units import (
    MAX_UNIT_BYTES,
    MIN_UNIT_BYTES,
    pack_units,
    rg_pieces,
    unit_budget,
)
from ..state.manifest import LakeStore, Manifest, schema_to_b64
from .dag import DEFAULT_DAG, Derivation, topo_check

# module-level remote functions: a fresh ray.remote(...) per wave would
# re-export the function to the cluster every wave — measured as part of
# a ~0.4 s/wave fixed scan cost in the 32-wave steady state
_SCAN_TASK = ray.remote(num_cpus=1)(scan_split_segment)
_SEED_TASK = ray.remote(num_cpus=1)(seed_split_segment)
_COMBINE_TASK = ray.remote(num_cpus=1)(combine_blocks)
_MERGE_TASK = ray.remote(num_cpus=1)(merge_partition_files)
_MERGE_BATCH_TASK = ray.remote(num_cpus=1)(merge_partition_files_batch)
_ACCT_TASK = ray.remote(num_cpus=1)(partition_accounting)
_DIFF_TASK = ray.remote(num_cpus=1)(diff_partition)
_RESHARD_TASK = ray.remote(num_cpus=1)(reshard_partition)
_ABSORB_TASK = ray.remote(num_cpus=1)(absorb_partition)
_FOLD_TASK = ray.remote(num_cpus=1)(fold_chain_partition)


def _cluster_cpus(default: int = 32) -> int:
    """The cluster's CPU count (``default`` before ray.init) — the ONE
    sizing heuristic shared by scan-split sizing, the merge-task fan,
    and the background-absorb cap; keep these in lockstep."""
    import ray as _ray
    return (int(_ray.cluster_resources().get("CPU", default))
            if _ray.is_initialized() else default)


def _adopted_entry(prev: dict, r: dict, path: str) -> dict:
    """Rewrite ONE manifest entry for an adopted background result —
    the single copy of the adoption slicing/bytes math shared by the
    wave-path read view (path = staged rel path) and ``_adopt_into``
    (path = promoted rel path); the two views must never be maintained
    by hand in lockstep. ``kind='fold'``: the file REPLACES the folded
    chain prefix, base path and its as-of-base rows/file_rows stats
    untouched. Absorb: the file replaces the base, chain = the
    post-basis suffix, stats become the absorb's exact accounting."""
    prev_deltas = prev.get("deltas") or []
    rem = prev_deltas[len(r["absorbed"]):]
    entry = dict(prev)
    if r.get("kind") == "fold":
        entry["deltas"] = [{"path": path, "rows": int(r["file_rows"]),
                            "bytes": int(r["bytes"])}] + rem
        entry["bytes"] = (int(prev.get("bytes", 0))
                          - sum(int(d["bytes"]) for d in
                                prev_deltas[:len(r["absorbed"])])
                          + int(r["bytes"]))
    else:
        entry["path"] = path
        entry["deltas"] = rem
        entry["file_rows"] = int(r["file_rows"])
        entry["bytes"] = int(r["bytes"]) + sum(int(d["bytes"])
                                               for d in rem)
        entry["rows"] = int(r["rows"])
    return entry


def _entry_files(entry: dict) -> list[str]:
    """Lake-relative paths of one partition entry: base, then chain."""
    return [entry["path"]] + [d["path"] for d in entry.get("deltas") or []]


# merge-fan tasks per CPU (1, 2 and 4 measured indistinguishable under
# box noise — BASELINE.md)
MERGE_FAN_MULT = 2


def default_lake_schema() -> pa.Schema:
    pay = payload_schema(CHANGE_EVENT)
    return pa.schema(list(pay) + [pa.field("last_lsn", pa.int64())])


class CDCEngine:
    def __init__(
        self,
        lake_root: str,
        num_partitions: "int | None" = 64,   # None = adopt the committed
                                             # lake's count (64 if new)
        derivations: tuple[Derivation, ...] = DEFAULT_DAG,
        salt: int = 0,                            # S>1: S combine tasks fold
                                                  # a wide wave's scan blocks
                                                  # (_collect_scans)
        sources: tuple[str, ...] | None = None,   # type-subscription filter (T1)
        conflict: "ConflictPolicy | None" = None, # default LWW-by-lsn
        emit_changelog: bool = False,             # write outbox/ segments
        sidecar_frac: float = 1.0,                # pending-delta/base row
                                                  # ratio under which a wave
                                                  # stages a sidecar instead
                                                  # of rewriting the
                                                  # partition. 1.0 ≈ 1 base
                                                  # row rewritten per event
                                                  # amortized — measured
                                                  # best steady-state
                                                  # throughput under the
                                                  # round-4 bg_absorb
                                                  # default (+20-30% vs the
                                                  # round-3 sync-era 0.5:
                                                  # fewer background
                                                  # rewrites stealing wave
                                                  # cores); read amp stays
                                                  # bounded at ≤2x rows per
                                                  # partition read, chains
                                                  # fold via the tier
        max_deltas: int = 16,                     # sidecars per partition
                                                  # before a forced rewrite
        chain_compact: bool = True,               # tiered compaction: fold a
                                                  # full chain into ONE
                                                  # sidecar (O(pending))
                                                  # instead of absorbing into
                                                  # the base (O(base)); False
                                                  # = pre-tiering behavior
                                                  # (A/B + escape hatch)
        bg_absorb: bool = True,                   # BACKGROUND absorbs: waves
                                                  # never pay the O(base)
                                                  # rewrite in-line — over-
                                                  # threshold partitions keep
                                                  # staging sidecars and the
                                                  # absorbing rewrite runs as
                                                  # an async task adopted by
                                                  # a later wave's commit
                                                  # (LSM background
                                                  # compaction): +23-37%
                                                  # steady-state throughput
                                                  # measured in the 32-wave
                                                  # bench, with the lazy-
                                                  # accounting staleness
                                                  # contract already
                                                  # covering the cost. Pass
                                                  # False for the strictly-
                                                  # synchronous wave
                                                  # behavior.
        post_commit: "tuple | list" = (),         # callables f(engine,
                                                  # wave_record) invoked
                                                  # after EVERY durable wave
                                                  # commit — the in-process
                                                  # CDC-consumer hook that
                                                  # keeps derived structures
                                                  # (search/dedup/checksum
                                                  # indexes) fresh in-stream.
                                                  # The commit is already
                                                  # durable when hooks run
                                                  # (a hook failure aborts
                                                  # the wave LOOP, never the
                                                  # commit); hooks must be
                                                  # idempotent — a resumed
                                                  # wave skips, so hooks
                                                  # should key off the
                                                  # committed generation
                                                  # (LakeChecksumIndex /
                                                  # LakeTrigramIndex
                                                  # .refresh() already do).
    ):
        topo_check(derivations)
        self.store = LakeStore(lake_root)
        if num_partitions is None:
            m = self.store.current_manifest()
            num_partitions = m.num_partitions if m else 64
        self.num_partitions = num_partitions
        self.derivations = derivations
        self.salt = salt
        self.sources = sources
        self.conflict = conflict if conflict is not None else LWW
        self.emit_changelog = emit_changelog
        self.sidecar_frac = sidecar_frac
        self.max_deltas = max_deltas
        self.chain_compact = chain_compact
        self.bg_absorb = bg_absorb
        self.post_commit = tuple(post_commit)
        # pid -> {"ref", "wid", "basis_path", "absorbed"} for absorbs in
        # flight; in-memory only — a crash just discards the async work
        # (staged orphans are dropped on discard, committed state is
        # never affected)
        self._bg: dict[int, dict[str, Any]] = {}
        self._cached_manifest: Manifest | None = None
        # decoded committed files behind get_docs: filled only by point
        # reads, pruned to the files of the manifest they read
        self.file_cache = FileCache()
        self._files_basis: "tuple[Manifest, pa.Schema] | None" = None
        # last watermark seen on the parent/log this engine consumes —
        # basis of the UP_TO_DATE / OUT_OF_DATE pipe state (reference:
        # PipeState.java:3-5, MessageResults.java:8-14: every read tells
        # the consumer whether it is caught up)
        self._last_parent_wm: int | None = None
        # segment index: (log_path, file) -> (min_lsn, max_lsn, bytes,
        # schema, row_groups) where row_groups = [(min_lsn, max_lsn,
        # bytes), ...] per row group — all from one parquet footer read;
        # files are immutable once published (write-then-rename
        # contract) so entries never invalidate
        self._seg_cache: dict[
            tuple[str, str],
            tuple[int, int, int, pa.Schema,
                  list[tuple[int, int, int]]]] = {}

    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> Manifest | None:
        """CURRENT's manifest, cached in-process (we are the single
        committer by deployment contract; the cache is invalidated when
        a commit is rejected, so a losing racer re-reads the truth)."""
        if self._cached_manifest is None:
            self._cached_manifest = self.store.current_manifest()
        return self._cached_manifest

    @property
    def watermark(self) -> int:
        m = self.manifest
        return m.watermark if m else -1

    # ------------------------------------------------------------------ #
    def bootstrap(self, seed: str | pa.Table) -> dict[str, Any]:
        """Materialize an initial lake from a seed table of LAKE_ROW shape
        (reference analog: initial till bootstrap — BootstrapService).
        Runs through the same wave machinery with lsn = last_lsn (0):
        raw seed tasks write the exchange blocks (``_seed_scans``)."""
        if self.manifest is not None:
            return {"skipped": True, "watermark": self.watermark}
        refs, schema = self._seed_scans(
            seed, self._fresh_shuffle_dir("bootstrap"))
        return self._apply(refs, lo=-1, hi=0, wave_id="bootstrap",
                           incoming_schema=schema)

    def _seed_scans(self, seed: str | pa.Table, sdir: str,
                    pid: int | None = None) -> tuple[list, pa.Schema]:
        """Launch the raw seed tasks into ``sdir``: seed files cut into
        row-group units by the wave scan's byte packing, an in-memory
        table ``ray.put`` in row slices under the same byte budget.
        Returns (task refs, the seed's event schema)."""
        args = (sdir, self.num_partitions, self.conflict, pid)
        if isinstance(seed, pa.Table):
            schema = seed.schema
            n = max(1, -(-seed.nbytes // self._unit_bytes(seed.nbytes)))
            rows = max(1, -(-seed.num_rows // n))
            refs = [_SEED_TASK.remote(ray.put(seed.slice(i, rows)), *args)
                    for i in range(0, seed.num_rows, rows)]
        else:
            pieces: list[tuple[str, int | None, int]] = []
            schema = None
            for path in pads.dataset(seed, format="parquet").files:
                f = pq.ParquetFile(path)
                schema = (f.schema_arrow if schema is None
                          else evolve_schema(schema, f.schema_arrow))
                md = f.metadata
                pieces += rg_pieces(
                    path, os.path.getsize(path),
                    [md.row_group(i).total_byte_size
                     for i in range(md.num_row_groups)])
            if schema is None:
                raise ValueError(f"no parquet files under seed {seed!r}")
            refs = [_SEED_TASK.remote(u, *args)
                    for u in self._pack_units(pieces)]
        return refs, seed_events(schema.empty_table()).schema

    # bytes of compressed input per scan unit at most (token lists
    # decompress ~2-3x: ~64 MB on disk ≈ 150-200 MB in heap)
    TARGET_SPLIT_BYTES = MAX_UNIT_BYTES
    # floor on scan-unit size: below this, per-task overhead dominates
    MIN_SPLIT_BYTES = MIN_UNIT_BYTES

    def _unit_bytes(self, total: int) -> int:
        """Scan-unit byte budget for a wave of ``total`` input bytes.
        ADAPTS to the wave: a full-replay wave packs ~TARGET_SPLIT_BYTES
        per task, while a small steady-state wave splits down to
        MIN_SPLIT_BYTES so its scan fans out across the cluster instead
        of decoding serially on a handful of tasks (a fixed ~0.4 s/wave
        scan floor at 32 CPUs before this)."""
        return unit_budget(total, _cluster_cpus(), self.MIN_SPLIT_BYTES,
                           self.TARGET_SPLIT_BYTES)

    def _pack_units(self, pieces: list[tuple[str, int | None, int]]
                    ) -> list[list[tuple[str, list[int] | None]]]:
        """Cut (file, row_group_id | None, bytes) pieces, in order, into
        per-task unit lists [(file, row_group_ids | None)] of up to
        ``_unit_bytes`` each."""
        return pack_units(
            pieces, self._unit_bytes(sum(b for *_, b in pieces)))

    def _scan_plan(self, log_path: str, lo: int, hi: int
                   ) -> tuple[list[list[tuple[str, list[int] | None]]],
                              pa.Schema | None]:
        """Raw-task scan plan for a wave — the visibility window
        (PostgresqlStorage.java:129-131: never read past the publish
        watermark, never re-read below the HWM): per-task unit lists of
        (file, row_group_ids|None), pruned at ROW-GROUP granularity from
        the cached footer stats (no per-wave metadata I/O), packed by
        ``_pack_units``. Also returns the wave's event schema: the UNION
        over its segments — one segment's schema would miss a column
        that first appears mid-wave, silently dropping it from the
        evolved lake schema (found via the chain schema-evolution
        test)."""
        idx = self._segment_index(log_path)
        pieces: list[tuple[str, int | None, int]] = []
        union: pa.Schema | None = None
        for fn in sorted(idx):
            mn, mx, nbytes, schema, rgs = idx[fn]
            if not (mx > lo and mn <= hi):
                continue
            union = schema if union is None else evolve_schema(union, schema)
            pieces += rg_pieces(
                os.path.join(log_path, fn), nbytes, [b for *_, b in rgs],
                keep=[i for i, (gmn, gmx, _) in enumerate(rgs)
                      if gmx > lo and gmn <= hi])
        return self._pack_units(pieces), union

    def apply_wave(self, log_path: str, hi: int,
                   lo: int | None = None,
                   _prefetched: dict | None = None) -> dict[str, Any]:
        lo = self.watermark if lo is None else lo
        p = _prefetched
        if hi <= self.watermark:
            if p is not None:
                self._discard_prefetch(p)
            return {"skipped": True, "watermark": self.watermark}
        if p is not None and (p["log"], p["lo"], p["hi"]) != (
                log_path, lo, hi):
            self._discard_prefetch(p)    # bounds shifted (resume mid-window)
            p = None
        if p is None:
            p = self._launch_scan(log_path, lo, hi)
        return self._apply(p["refs"], lo, hi, wave_id=p["wave_id"],
                           incoming_schema=p["union"])

    # ------------------------------------------------------------------ #
    def _apply(self, scans: list, lo: int, hi: int,
               wave_id: str,
               incoming_schema: pa.Schema | None,
               carry_named_offsets: "dict[str, int] | None" = None,
               carry_hour_max: "dict[str, int] | None" = None,
               lineage_note: "dict[str, Any] | None" = None,
               base_schema: "pa.Schema | None" = None) -> dict[str, Any]:
        """Merge and commit ONE wave. ``scans`` = refs of the raw tasks
        (log scan, seed, reshard) that wrote the wave's exchange blocks
        into ``_shuffle_dir(wave_id)``; each yields a ``split_events``
        result dict. ``incoming_schema`` = the wave's event schema
        (None for an empty log wave: the lake schema stays)."""
        t0 = time.perf_counter()
        self._phase_t = {}          # per-wave phase telemetry
        cur = self.manifest
        if cur is not None and cur.num_partitions != self.num_partitions:
            raise ValueError(
                f"engine configured with num_partitions="
                f"{self.num_partitions} but this lake was committed with "
                f"{cur.num_partitions}; the partition count is immutable "
                "for a lake (it defines doc_id hash routing) — construct "
                "the engine with num_partitions=None to adopt the "
                "committed value, or bootstrap a new lake")
        gen = cur.generation + 1 if cur else 0

        # schema evolution: reconcile lake schema with the wave's payload
        base = cur.schema if cur else (
            base_schema if base_schema is not None
            else default_lake_schema())
        if incoming_schema is None:
            lake_schema = base           # empty wave: keep current schema
        else:
            incoming_pay = payload_schema(incoming_schema)
            extra = [pa.field("last_lsn", pa.int64())]
            lof = self.conflict.lake_order_field
            if lof and self.conflict.order_col in incoming_schema.names:
                extra.append(pa.field(
                    lof, incoming_schema.field(self.conflict.order_col).type))
            if self.conflict.retains_tombstones:
                # tombstone winners stay materialized as fence rows so
                # a later wave cannot resurrect a deleted doc under
                # first-writer-wins / event-time ordering
                extra.append(pa.field("last_op", pa.int8()))
            lake_schema = evolve_schema(
                base, pa.schema(list(incoming_pay) + extra))

        parts_map = dict(cur.partitions) if cur else {}
        # adopt finished BACKGROUND absorbs into this wave's read view:
        # merge tasks see the absorbed base (still under _staged/, rel
        # paths resolve) with the post-basis delta suffix; the commit
        # below promotes the file and publishes the adopted entry —
        # atomicity rides the wave's own manifest commit
        adopted = (self._collect_ready_absorbs(cur)
                   if self.bg_absorb else {})
        for pid, r in adopted.items():
            staged = os.path.join("_staged", r["wid"],
                                  f"p={pid:06d}.parquet")
            parts_map[str(pid)] = _adopted_entry(parts_map[str(pid)],
                                                 r, staged)
        stats, wave_hour_max, wave_source_max = self._exchange_merge(
            scans, wave_id, parts_map, lake_schema)

        n_events = 0
        new_parts = dict(cur.partitions) if cur else {}
        new_partials = ({k: dict(v) for k, v in cur.partials.items()}
                        if cur else {})
        import json as _json
        # publish adopted absorbs FIRST (promote the staged base, rewrite
        # the entry) so a touched partition's stats row below builds on
        # the adopted entry — its sidecar append/chain fold already ran
        # against the adopted read view
        t_promote0 = time.perf_counter()
        if adopted:
            self._adopt_into(adopted, new_parts, new_partials, gen)
        for r in stats:
            pid = int(r["pid"])
            dst = self.store.promote_staged(wave_id, pid, gen)
            if r.get("mode") == "delta":
                # sidecar wave: the promoted file is a DELTA segment —
                # append it to the entry's chain, keep the base file
                # untouched. Logical stats/partials are NOT updated
                # (that would cost an O(partition) accounting pass per
                # wave — see _stage_sidecar): `rows` stays as-of the
                # last full accounting; an entry with a non-empty delta
                # chain is by definition stale, and exact values come
                # from exact_partition_stats / the next absorb.
                prev = new_parts[str(pid)]
                entry = dict(prev)
                entry["deltas"] = list(prev.get("deltas") or []) + [{
                    "path": self.store.rel(dst),
                    "rows": int(r["file_rows"]),
                    "bytes": int(r["bytes"]),
                }]
                entry["file_rows"] = int(prev.get("file_rows",
                                                  prev.get("rows", 0)))
                entry["bytes"] = int(prev.get("bytes", 0)) + int(r["bytes"])
            elif r.get("mode") == "chain":
                # tiered chain compaction: the promoted file REPLACES the
                # whole sidecar chain (base untouched) — same staleness
                # contract as delta mode (rows/partials as-of-base), the
                # superseded chain files become vacuum-collectable
                prev = new_parts[str(pid)]
                entry = dict(prev)
                old_chain = sum(int(d["bytes"])
                                for d in (prev.get("deltas") or []))
                entry["deltas"] = [{
                    "path": self.store.rel(dst),
                    "rows": int(r["file_rows"]),
                    "bytes": int(r["bytes"]),
                }]
                entry["file_rows"] = int(prev.get("file_rows",
                                                  prev.get("rows", 0)))
                entry["bytes"] = (int(prev.get("bytes", 0)) - old_chain
                                  + int(r["bytes"]))
            else:
                entry = {"path": self.store.rel(dst), "deltas": [],
                         "file_rows": int(r["file_rows"]),
                         "bytes": int(r["bytes"])}
            entry.update({
                "hwm": int(r["hwm"]),
                "n_applied": int(r["n_applied"]),
                "n_deleted": int(r["n_deleted"]),
            })
            if int(r["rows"]) >= 0:
                entry["rows"] = int(r["rows"])
            new_parts[str(pid)] = entry
            n_events += int(r["n_applied"]) + int(r["n_deleted"])
            if r["partials_json"]:
                for dname, recs in _json.loads(r["partials_json"]).items():
                    new_partials.setdefault(dname, {})[str(pid)] = recs

        t_promoted = time.perf_counter()
        wall = t_promoted - t0
        lineage = (list(cur.lineage) if cur else []) + [{
            "wave_id": wave_id, "lo": lo, "hi": hi, "generation": gen,
            "parts_touched": len(stats), "n_applied_or_deleted": n_events,
            "wall_s": round(wall, 4),
            **(lineage_note or {}),
        }]
        # maintained named offsets (reference OffsetName.java:3-5): fold
        # this wave's per-hour lsn maxima (computed inside the scan
        # tasks, no extra read) into the stored checkpoint; hours older
        # than the retention window are already folded and pruned
        hour_max = dict(cur.hour_max) if cur else {}
        named = dict(cur.named_offsets) if cur else {}
        # caller-carried checkpoint state (reshard: the source lake's
        # offsets ride the wave's OWN commit — no second patch commit,
        # no non-atomic window)
        for h, m in (carry_hour_max or {}).items():
            if int(m) > hour_max.get(h, -1):
                hour_max[h] = int(m)
        for k, v in (carry_named_offsets or {}).items():
            if int(v) > named.get(k, -1):
                named[k] = int(v)
        for h, m in wave_hour_max.items():
            if m > hour_max.get(h, -1):
                hour_max[h] = m
        named["GLOBAL_LATEST"] = hi
        # MAX_OFFSET_CONSUMERS (OffsetName.java:3-5): the per-type max
        # lsn, folded from the scan tasks' partials and stored as
        # MAX_OFFSET_CONSUMERS:<type> keys — the consumer-max answer is
        # then a checkpoint read, never a log scan
        # (SQLiteQueries.java:114-124 is the scan it replaces)
        for s, m in wave_source_max.items():
            k = f"MAX_OFFSET_CONSUMERS:{s}"
            if m > named.get(k, -1):
                named[k] = m
        if hour_max:
            latest = max(int(h) for h in hour_max)
            before = [m for h, m in hour_max.items() if int(h) < latest]
            if before and max(before) > named.get(
                    "MAX_OFFSET_PREVIOUS_HOUR", -1):
                named["MAX_OFFSET_PREVIOUS_HOUR"] = max(before)
            hour_max = {h: m for h, m in hour_max.items()
                        if int(h) >= latest - 48}
        man = Manifest(
            generation=gen, watermark=hi, wave_id=wave_id,
            schema_b64=schema_to_b64(lake_schema),
            num_partitions=self.num_partitions,
            partitions=new_parts, partials=new_partials,
            lineage=lineage[-200:],
            named_offsets=named, hour_max=hour_max,
        )
        import shutil as _shutil
        t_commit0 = time.perf_counter()
        try:
            self.store.commit(man)
        except RuntimeError:
            # lost the single-flight race: this wave is abandoned (the
            # winner advanced CURRENT, so it will never be retried under
            # this wave_id) — reclaim its scratch AND its pre-published
            # outbox segments before re-raising. Promoted part files are
            # wave-unique orphans; vacuum() collects them once their
            # generation falls out of the keep window. A plain crash (no
            # exception path) leaves staged files for the resumed
            # identical re-run, as before.
            self._cached_manifest = None       # CURRENT moved under us
            self.store.drop_staged(wave_id)
            _shutil.rmtree(self._shuffle_dir(wave_id), ignore_errors=True)
            if self.emit_changelog:
                # Two racers applying the SAME wave share wave_id, so
                # their outbox segment names are identical: if the winner
                # committed this very wave, its published segments are the
                # files we'd be deleting — a child that hasn't read them
                # yet would permanently miss events. Only clean up when
                # CURRENT moved to a DIFFERENT wave (found in review).
                winner = self.manifest
                if winner is None or winner.wave_id != wave_id:
                    import glob as _glob
                    for seg in _glob.glob(os.path.join(
                            self.outbox_dir, f"{wave_id}-p*.parquet")):
                        os.remove(seg)
            raise
        self._cached_manifest = man
        self.store.drop_staged(wave_id)
        _shutil.rmtree(self._shuffle_dir(wave_id), ignore_errors=True)
        if self.emit_changelog:
            self._publish_outbox_watermark()
        # promote + manifest commit + staging cleanup + outbox marker;
        # the promote part falls inside wall_s, the rest after it
        commit_s = (t_promoted - t_promote0
                    + time.perf_counter() - t_commit0)
        bg_launched = self._launch_absorbs(man) if self.bg_absorb else 0
        n_delta = sum(1 for r in stats if r.get("mode") == "delta")
        n_chain = sum(1 for r in stats if r.get("mode") == "chain")
        self.store.append_metrics({
            "wave_id": wave_id, "generation": gen, "lo": lo, "hi": hi,
            "parts_touched": len(stats), "events_applied": n_events,
            "wall_s": round(wall, 4),
            "events_per_s": round(n_events / wall, 1) if wall > 0 else None,
            "sidecar_parts": n_delta, "chain_parts": n_chain,
            "full_parts": len(stats) - n_delta - n_chain,
            "bg_absorbed": len(adopted), "bg_launched": bg_launched,
            **self._phase_t,
            "commit_s": round(commit_s, 4),
        })
        rec = {"wave_id": wave_id, "generation": gen, "watermark": hi,
               "parts_touched": len(stats), "events": n_events,
               "wall_s": wall}
        for cb in self.post_commit:       # commit is durable already
            cb(self, rec)
        return rec

    # ------------------------------------------------------------------ #
    @property
    def outbox_dir(self) -> str:
        """This lake's re-served change feed: compacted applied deltas
        (tombstones included, original lsns preserved) as lsn-ranged
        parquet segments a child CDCEngine can `tail()` — the reference's
        hierarchical fanout (each till re-serves the identical read API
        to its children, SURVEY.md §2.11) as chained lakes."""
        import os
        return os.path.join(self.store.root, "outbox")

    def pipe_state(self) -> str:
        """UP_TO_DATE when this engine's applied watermark has reached
        the last watermark observed on its upstream log; OUT_OF_DATE
        while behind; UNKNOWN before the first upstream poll (reference:
        PipeState.java:3-5 — consumers learn their currency from every
        read instead of diffing watermarks themselves)."""
        if self._last_parent_wm is None:
            return "UNKNOWN"
        return ("UP_TO_DATE" if self.watermark >= self._last_parent_wm
                else "OUT_OF_DATE")

    def _publish_outbox_watermark(self) -> None:
        """Advance outbox/_WATERMARK to the committed watermark. Written
        ONLY after a successful commit: children gate their reads on it,
        so a segment that appears later (slow merge task, abandoned
        racing wave) can never be skipped-over — without the marker, a
        child discovering one early segment's max lsn would advance past
        events still being published (found in review). Also called on
        replay()/tail() entry to heal a crash between commit and marker
        write.

        A `_STATE` sidecar carries this engine's own pipe state plus a
        wall-clock HEARTBEAT (refreshed on every commit AND every idle
        tail poll), so a child tailing the outbox can tell both "parent
        caught up + I reached its watermark" = chain-wide convergence
        AND "parent is alive" — the liveness signal behind follower
        failover (reference: ServiceList.java:80-110 persisted follow
        list + last-seen registry heartbeats)."""
        import json as _json
        os.makedirs(self.outbox_dir, exist_ok=True)
        self.store._atomic_write(
            os.path.join(self.outbox_dir, "_WATERMARK"),
            str(self.watermark))
        self.store._atomic_write(
            os.path.join(self.outbox_dir, "_STATE"),
            _json.dumps({"state": self.pipe_state(),
                         "watermark": self.watermark,
                         "wall_ts": time.time()}))

    def register_consumer_hwm(self, log_path: str, consumer_id: str,
                              hwm: int) -> None:
        """Record this consumer's applied watermark next to the log it
        tails (``_consumers/<id>``, atomic write). The publisher reads
        these for lag monitoring and as the automatic prune guard — the
        reference's last-seen registry heartbeat (Node.java offset+
        lastSeen, SubNodeGroup.java offline eviction) as files."""
        import json as _json
        if not os.path.isdir(log_path):
            return          # never resurrect a vanished parent's dir —
            # recreating it would defeat the _parent_alive probe
        d = os.path.join(log_path, "_consumers")
        os.makedirs(d, exist_ok=True)
        self.store._atomic_write(
            os.path.join(d, consumer_id),
            _json.dumps({"hwm": int(hwm), "wall_ts": time.time()}))

    def consumer_hwms(self) -> dict[str, dict[str, Any]]:
        """Registered consumers of THIS lake's outbox: id -> {hwm,
        wall_ts}."""
        import json as _json
        d = os.path.join(self.outbox_dir, "_consumers")
        if not os.path.isdir(d):
            return {}
        out = {}
        for fn in os.listdir(d):
            try:
                with open(os.path.join(d, fn)) as f:
                    out[fn] = _json.load(f)
            except (OSError, ValueError):
                continue
        return out

    def chain_status(self, stale_after_s: float = 300.0
                     ) -> list[dict[str, Any]]:
        """Lag report over registered consumers (reference:
        SubNodeGroup.java:53-135 monitors children via last-seen and
        evicts offline nodes; we SURFACE the stall instead of reshaping
        a tree — the DAG is static by design). A child is LAGGING when
        behind this lake's watermark, STALLED when also silent for
        ``stale_after_s``."""
        now = time.time()
        wm = self.watermark
        out = []
        for cid, rec in sorted(self.consumer_hwms().items()):
            lag = wm - int(rec["hwm"])
            silent = now - float(rec.get("wall_ts", now))
            state = ("UP_TO_DATE" if lag <= 0 else
                     "STALLED" if silent >= stale_after_s else "LAGGING")
            out.append({"consumer_id": cid, "hwm": int(rec["hwm"]),
                        "lag_events": max(0, lag),
                        "silent_s": round(silent, 1), "state": state})
        return out

    # -- parent-initiated bootstrap requests --------------------------- #
    # Reference: NODE_REQUESTS — the server stores a per-node TYPED
    # request (PostgreSQLNodeRequestStorage.java:20-68 storing a
    # BootstrapType.java:3-11 value) and the node's own sync loop
    # consumes it and runs the matching stop/reset/start sequence
    # (SelfRegistrationTask.java:74-78, BootstrapService.java:37-88).
    # Here the request is a `_requests/<consumer_id>` JSON marker
    # beside the log the child tails; the child's tail() consumes it
    # and dispatches on ``kind``:
    #   pipe_and_provider — wipe the lake and re-tail from scratch
    #       (PIPE_AND_PROVIDER: everything stops, resets, restarts)
    #   pipe              — re-tail KEEPING data: reset in-process
    #       state (caches, in-flight absorbs) and reload the durable
    #       manifest, then continue from the committed watermark
    #       (PIPE: pipe reset without touching the provider)
    #   provider          — recompute DERIVED outputs only: re-derive
    #       and atomically re-publish derived/<name>.parquet from the
    #       intact lake (PROVIDER: reset what this node provides,
    #       base data untouched)
    # The *_WITH_DELAY variants are the reference's fleet-staggering
    # sleep — pacing belongs to tail()'s poll schedule here, and
    # CORRUPTION_RECOVERY is the CLI's `rebuild --auto`.

    BOOTSTRAP_KINDS = ("pipe_and_provider", "pipe", "provider")

    def request_bootstrap(self, consumer_id: str,
                          kind: str = "pipe_and_provider") -> str:
        """Parent-side: flag ``consumer_id`` to run the ``kind``
        bootstrap sequence on its next poll (see the class comment
        above — full wipe-and-re-tail by default; ``pipe`` =
        re-tail-keep-data, ``provider`` = recompute-derived-only).
        The remedy for a child whose chain_status shows as
        corrupted/STALLED. Atomic write; repeated requests coalesce
        (one marker per consumer, latest kind wins)."""
        if kind not in self.BOOTSTRAP_KINDS:
            raise ValueError(f"unknown bootstrap kind {kind!r} "
                             f"(one of {self.BOOTSTRAP_KINDS})")
        import json as _json
        d = os.path.join(self.outbox_dir, "_requests")
        os.makedirs(d, exist_ok=True)
        p = os.path.join(d, consumer_id)
        self.store._atomic_write(p, _json.dumps({
            "request": "bootstrap", "kind": kind,
            "wall_ts": time.time(),
            "watermark": self.watermark}))
        return p

    def request_stalled_bootstraps(self, stale_after_s: float = 300.0
                                   ) -> list[str]:
        """Flag every STALLED consumer (behind AND silent — see
        chain_status) for re-bootstrap. Returns flagged consumer ids."""
        out = []
        for r in self.chain_status(stale_after_s):
            if r["state"] == "STALLED":
                self.request_bootstrap(r["consumer_id"])
                out.append(r["consumer_id"])
        return out

    def _drain_bg_for_reset(self) -> None:
        """Drop in-flight BACKGROUND absorbs before any reset: re-apply
        is deterministic, so a pre-reset absorb finishing AFTER it
        could present a basis the re-derived manifest validates — and
        its staged file is gone, crashing the adopting wave's promote.
        Wait the tasks out (so their late writes land before a wipe
        deletes _staged/), then forget them."""
        if self._bg:
            import ray as _ray
            try:
                _ray.wait([v["ref"] for v in self._bg.values()],
                          num_returns=len(self._bg))
            except RayError:
                pass     # cleanup only: the absorbs are dropped either way
            for v in self._bg.values():
                self.store.drop_staged(v["wid"])
            self._bg.clear()

    def _consume_bootstrap_request(self, log_path: str,
                                   consumer_id: str) -> bool:
        """Child-side: if the tailed log carries a pending request for
        us, run its typed sequence (see request_bootstrap). The marker
        is removed only AFTER the sequence — a crash between the two
        re-runs an (idempotent) sequence on the next poll, never loses
        the request. Returns True when a request was consumed."""
        p = os.path.join(log_path, "_requests", consumer_id)
        if not os.path.exists(p):
            return False
        import json as _json
        import shutil as _shutil
        try:
            with open(p) as f:
                kind = _json.load(f).get("kind", "pipe_and_provider")
        except (OSError, ValueError):
            kind = "pipe_and_provider"     # pre-typed marker: full wipe
        if kind == "provider":
            # recompute-derived-only: re-derive + atomically re-publish
            # the DAG outputs from the intact lake; base data, offsets
            # and watermark untouched
            if self.derivations and self.manifest is not None:
                self.publish_derived_tables()
            try:
                os.remove(p)
            except OSError:
                pass
            return True
        if kind == "pipe":
            # re-tail-keep-data: reset IN-PROCESS state (caches,
            # in-flight absorbs) and reload the durable manifest; the
            # next poll continues from the committed watermark
            self._drain_bg_for_reset()
            self.store = LakeStore(self.store.root)
            self._cached_manifest = None
            self._acct_cache = None
            try:
                os.remove(p)
            except OSError:
                pass
            return True
        self._drain_bg_for_reset()
        root = self.store.root
        if os.path.isdir(root):
            for name in os.listdir(root):
                if name == "outbox":
                    # this node's own published feed survives the wipe:
                    # children/grandchildren keep reading the immutable
                    # already-published segments while we re-derive, and
                    # the deterministic re-applied waves overwrite them
                    # with identical content (deleting the outbox left
                    # downstream tail()s crashing on a vanished dir for
                    # the whole re-bootstrap window — found in review)
                    continue
                sub = os.path.join(root, name)
                if os.path.isdir(sub):
                    _shutil.rmtree(sub, ignore_errors=True)
                else:
                    try:
                        os.remove(sub)
                    except OSError:
                        pass
        self.store = LakeStore(root)
        self._cached_manifest = None
        self._acct_cache = None
        try:
            os.remove(p)
        except OSError:
            pass
        return True

    def prune_outbox(self, below_lsn: int,
                     min_child_hwm: int | None = None) -> int:
        """Delete outbox segments whose max lsn < below_lsn. Guarded like
        tombstone GC (SURVEY.md §7.5 item 4): refuses to prune past the
        slowest child's applied watermark — a resumed child must never
        miss a delete it has not applied. When ``min_child_hwm`` is not
        given it is derived from the registered consumers
        (register_consumer_hwm); pruning with NO registered consumers
        and no explicit override is refused rather than assumed safe.
        Returns segments removed."""
        import os
        if min_child_hwm is None:
            hwms = [int(r["hwm"]) for r in self.consumer_hwms().values()]
            if not hwms:
                raise ValueError(
                    "no registered consumers and no explicit "
                    "min_child_hwm; refusing to prune blindly")
            min_child_hwm = min(hwms)
        if below_lsn > min_child_hwm + 1:
            raise ValueError(
                "outbox prune threshold is beyond the minimum child HWM; "
                "a lagging child would lose events")
        ob = self.outbox_dir
        if not os.path.isdir(ob):
            return 0
        removed = 0
        for fn, (_, mx, *_) in list(self._segment_index(ob).items()):
            if mx < below_lsn:
                os.remove(os.path.join(ob, fn))
                self._seg_cache.pop((ob, fn), None)
                removed += 1
        return removed

    def _shuffle_dir(self, wave_id: str) -> str:
        return os.path.join(self.store.root, "_shuffle", wave_id)

    def _fresh_shuffle_dir(self, wave_id: str) -> str:
        """The wave's exchange dir, emptied of any stale partial attempt
        — every launcher of a wave's scan tasks calls this first."""
        import shutil as _shutil

        sdir = self._shuffle_dir(wave_id)
        _shutil.rmtree(sdir, ignore_errors=True)
        os.makedirs(sdir, exist_ok=True)
        return sdir

    def _collect_scans(self, scans: list, sdir: str
                       ) -> tuple[dict[int, list], dict[str, int],
                                  dict[str, int], int]:
        """Fold the scan tasks' results: {pid: [(block, batch ids)]}
        read plans, the per-hour and per-source max lsn, and the number
        of salt combine tasks run. With ``salt=S>1`` and more than S
        blocks, S combine tasks first fold every S-th block on (part,
        doc_id) into one block each (``combine_blocks``), so a hot doc
        reaches its merge task as at most S rows, not one row per scan
        block. Combined blocks go to ``sdir/salt`` — the merge tasks'
        glob fallback reads the scan blocks, equally correct."""
        import ray as _ray

        res = _ray.get(scans)
        hour_max: dict[str, int] = {}
        source_max: dict[str, int] = {}
        for r in res:
            for h, m in r["hour_max"].items():
                if m > hour_max.get(h, -1):
                    hour_max[h] = m
            for src, m in r["source_max"].items():
                if m > source_max.get(src, -1):
                    source_max[src] = m
        res = [r for r in res if r["block"] is not None]
        n_combine = 0
        if self.salt > 1 and len(res) > self.salt:
            n_combine = self.salt
            res = _ray.get([_COMBINE_TASK.remote(
                [r["block"] for r in res[i::n_combine]],
                os.path.join(sdir, "salt"), self.conflict)
                for i in range(n_combine)])
        plans: dict[int, list] = {}
        for r in res:
            for pid, bids in r["idx"].items():
                plans.setdefault(int(pid), []).append((r["block"], bids))
        return plans, hour_max, source_max, n_combine

    def _exchange_merge(self, scans: list, wave_id: str,
                        parts_map: dict[str, str],
                        lake_schema: pa.Schema
                        ) -> tuple[list[dict[str, Any]], dict[str, int],
                                   dict[str, int]]:
        """File-exchange shuffle (see stages/merge_apply.py): the raw
        scan tasks split their input into indexed per-partition exchange
        blocks, then one merge task per touched partition. Both sides
        run at full parallelism with no object-store all-to-all; the
        barrier between them is the wave semantics (every delta must
        exist before a partition merges). When ``replay()`` PREFETCHED
        the scans during the previous wave's merges, they are already
        done and this side only collects. Returns (merge stats, wave
        hour maxima, wave source maxima)."""
        import ray as _ray

        t_scan0 = time.perf_counter()
        sdir = self._shuffle_dir(wave_id)
        plans, hour_max, source_max, n_combine = self._collect_scans(
            scans, sdir)
        touched = sorted(plans)
        self._phase_t = {"scan_s": round(time.perf_counter() - t_scan0, 4),
                         "combine_tasks": n_combine}
        if not touched:
            return [], hour_max, source_max
        t_merge0 = time.perf_counter()
        b64 = schema_to_b64(lake_schema)
        outbox = self.outbox_dir if self.emit_changelog else None
        # explicit plans are B×P driver-side entries; past ~2M (huge P ×
        # byte-capped B) the memory and per-task arg cost outweigh the
        # saved sidecar reads — fall back to the glob discovery path
        if sum(len(v) for v in plans.values()) > 2_000_000:
            plans = {}
        cpus = _cluster_cpus()
        n_tasks = max(1, min(len(touched), MERGE_FAN_MULT * cpus))
        if n_tasks >= len(touched):
            refs = [_MERGE_TASK.remote(p, self.store.root, wave_id, sdir,
                                      parts_map.get(str(p)), b64,
                                      self.derivations, self.conflict,
                                      outbox,
                                      self.sidecar_frac, self.max_deltas,
                                      plans.get(p),
                                      chain_compact=self.chain_compact,
                                      allow_absorb=not self.bg_absorb)
                    for p in touched]
            out = _ray.get(refs)
        else:
            # BATCHED merge fan: round-robin the touched partitions
            # into ~2 tasks per CPU — the per-task dispatch overhead of
            # P single-partition tasks is a fixed floor on small-wave
            # walls (merge work per task is milliseconds there), while
            # round-robin keeps the work balanced (partition deltas are
            # hash-uniform)
            groups = [touched[i::n_tasks] for i in range(n_tasks)]
            refs = [_MERGE_BATCH_TASK.remote(
                        g, self.store.root, wave_id, sdir,
                        [parts_map.get(str(p)) for p in g], b64,
                        self.derivations, self.conflict, outbox,
                        self.sidecar_frac, self.max_deltas,
                        [plans.get(p) for p in g] if plans else None,
                        chain_compact=self.chain_compact,
                        allow_absorb=not self.bg_absorb)
                    for g in groups]
            out = [r for chunk in _ray.get(refs) for r in chunk]
        self._phase_t["merge_s"] = round(time.perf_counter() - t_merge0, 4)
        return out, hour_max, source_max

    # ------------------------------------------------------------------ #
    def _segment_index(self, log_path: str
                       ) -> dict[str, tuple[int, int, int, pa.Schema]]:
        """Per-file (min_lsn, max_lsn, bytes, schema) from parquet
        footers — the log's segment index (Kafka-segment-style). Cached
        forever: published segments are immutable (write-then-rename
        contract). Cost: one footer read per NEW file, driver-side, no
        data read. Files without lsn statistics get (−inf, +inf) —
        always scanned."""
        import os

        def footer(fn: str) -> tuple[str, tuple]:
            full = os.path.join(log_path, fn)
            md = pq.read_metadata(full)
            arrow_schema = md.schema.to_arrow_schema()
            idx = arrow_schema.get_field_index("lsn")
            mn, mx = None, None
            rgs: list[tuple[int, int, int]] = []
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                st = g.column(idx).statistics
                if st is not None and st.has_min_max:
                    gmn, gmx = int(st.min), int(st.max)
                    mn = gmn if mn is None else min(mn, gmn)
                    mx = gmx if mx is None else max(mx, gmx)
                else:
                    gmn, gmx = -(1 << 62), 1 << 62
                rgs.append((gmn, gmx, g.total_byte_size))
            if mn is None:
                mn, mx = -(1 << 62), 1 << 62
            return fn, (mn, mx, os.path.getsize(full), arrow_schema, rgs)

        names = [fn for fn in sorted(os.listdir(log_path))
                 if fn.endswith(".parquet")]
        fresh = [fn for fn in names if (log_path, fn) not in self._seg_cache]
        if fresh:
            # footer parse is C++-side (GIL-releasing): a thread pool
            # turns a 10k-segment cold index from seconds of serial
            # driver time into one I/O round
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(min(16, len(fresh))) as ex:
                for fn, rec in ex.map(footer, fresh):
                    self._seg_cache[(log_path, fn)] = rec
        return {fn: self._seg_cache[(log_path, fn)] for fn in names}

    def discover_watermark(self, log_path: str) -> int:
        """Published watermark. A `_WATERMARK` marker (written by an
        emitting parent strictly AFTER its commit) is authoritative when
        present — it gates readers so per-partition segments published
        out of order can never be skipped past. Plain logs without a
        marker fall back to footer-stats max, which is safe there by the
        publisher's ordering contract (Writer.java:5-9: offsets arrive
        monotonically). Reference analog: the Global-Latest-Offset
        header (GlobalLatestOffsetCache.java:14-37)."""
        marker = os.path.join(log_path, "_WATERMARK")
        if os.path.exists(marker):
            with open(marker) as f:
                return int(f.read().strip())
        idx = self._segment_index(log_path)
        wm = -1
        for fn, (_, mx, *_) in idx.items():
            if mx >= (1 << 62):            # stat-less file: read the column
                t = pq.read_table(os.path.join(log_path, fn),
                                  columns=["lsn"])
                mx = int(pc.max(t.column("lsn")).as_py()) if t.num_rows else -1
            wm = max(wm, mx)
        return wm

    def _parent_alive(self, log_path: str, dead_after_s: float) -> bool:
        """Liveness probe for a tailed parent: a missing directory is
        dead; an engine outbox (carries ``_STATE``) is dead once its
        heartbeat is older than ``dead_after_s``; a plain log (no
        ``_STATE``, no liveness protocol) is always alive — failover
        only ever applies between engine outboxes."""
        import json as _json
        if not os.path.isdir(log_path):
            return False
        sp = os.path.join(log_path, "_STATE")
        if not os.path.exists(sp):
            return True
        try:
            with open(sp) as f:
                rec = _json.load(f)
        except (OSError, ValueError):
            return True                    # racing writer: assume alive
        ts = rec.get("wall_ts")
        if ts is None:
            return True                    # pre-heartbeat publisher
        return (time.time() - float(ts)) < dead_after_s

    def tail(self, log_path: "str | list[str]",
             wave_size: int = 1_000_000,
             poll_interval_s: float = 0.5, max_idle_polls: int = 3,
             consumer_id: str | None = None,
             poll_max_s: float = 8.0,
             failover_after: int = 2,
             dead_after_s: float = 30.0) -> list[dict[str, Any]]:
        """The till sync loop (reference §3.2: poll parent for the next
        batch, apply transactionally, sleep when caught up): discover the
        published watermark from footer stats, apply (hwm, hwm+wave_size]
        waves until caught up, poll again; return after `max_idle_polls`
        consecutive polls with no new data. A killed tail resumes exactly
        like replay() — the manifest watermark is the only cursor.

        ADAPTIVE PACING (reference: server-driven Retry-After,
        PostgresqlStorage.java:229-251; bootstrap fast-path
        PipeReadController.java:112-147): while behind the watermark the
        loop never sleeps (waves apply back-to-back and the next poll is
        immediate); while idle the delay backs off exponentially from
        ``poll_interval_s`` to the ``poll_max_s`` cap. Every poll
        appends a lag record to metrics.jsonl.

        FOLLOWER FAILOVER (reference: PipeLoadBalancer.java:28-40
        re-points down the requestedToFollow list;
        ServiceList.java:80-110 persists it, :151-153 defaults to
        cloud): ``log_path`` may be an ORDERED list of parent
        logs/outboxes — typically [parent till outbox, ..., root
        outbox]. When the current parent is DEAD (directory gone, or
        its outbox ``_STATE`` heartbeat older than ``dead_after_s``)
        for ``failover_after`` consecutive idle polls, the tail
        re-points to the next entry and keeps consuming from its own
        watermark — lsns are global across the chain (every outbox
        re-serves the original offsets), so the cursor carries over
        exactly. Plain logs (no ``_STATE``) are never declared dead.

        ``consumer_id``: when set, the applied HWM is registered next to
        the tailed log after every wave (and every idle poll) — the
        publisher's lag monitor + automatic prune guard input."""
        paths = [log_path] if isinstance(log_path, str) else list(log_path)
        if not paths:
            raise ValueError("tail() needs at least one parent path")
        out: list[dict[str, Any]] = []
        if self.emit_changelog:
            self._publish_outbox_watermark()   # heal crash-before-marker
        idle = stale = 0
        stale_since = 0.0                      # first dead-verdict wall ts
        pi = 0                                 # current follow-list index
        while idle < max_idle_polls:
            parent = paths[pi]
            if consumer_id and self._consume_bootstrap_request(
                    parent, consumer_id):
                idle = 0                  # wiped: re-tail from scratch
            try:
                wm = self.discover_watermark(parent)
            except OSError:
                if pi + 1 >= len(paths):
                    raise                 # sole/last parent: surface it
                wm = -1                   # vanished parent: idle + dead
            self._last_parent_wm = max(wm, self._last_parent_wm or -1)
            if wm <= self.watermark:
                # probe liveness BEFORE the consumer-HWM write: the
                # write must never precede (or mask) a dead verdict
                alive = self._parent_alive(parent, dead_after_s)
                if consumer_id:
                    self.register_consumer_hwm(parent, consumer_id,
                                               self.watermark)
                if pi + 1 < len(paths) and not alive:
                    if stale == 0:
                        stale_since = time.time()
                    stale += 1
                    # a VANISHED directory is unambiguous death; a
                    # merely-stale heartbeat can be a busy parent mid-
                    # wave (heartbeats publish on commits and idle
                    # polls only), so the dead verdict must ALSO span
                    # >= dead_after_s of this child's own observed
                    # wall time — detection is then ~2x dead_after_s
                    # and independent of poll cadence. Size
                    # dead_after_s above the parent's max wave wall.
                    hard_dead = not os.path.isdir(parent)
                    if stale >= failover_after and (
                            hard_dead or
                            time.time() - stale_since >= dead_after_s):
                        self.store.append_metrics({
                            "failover_from": parent,
                            "failover_to": paths[pi + 1],
                            "hwm": self.watermark})
                        pi += 1
                        stale = idle = 0  # fresh chance on the new parent
                        continue
                else:
                    # an alive observation resets the CONSECUTIVE-
                    # dead-polls contract (failover_after counts a run
                    # of dead verdicts, not dead verdicts ever seen)
                    stale = 0
                idle += 1
                delay = min(poll_interval_s * (2 ** (idle - 1)),
                            poll_max_s)
                if self.emit_changelog:
                    # heartbeat for OUR children even while idle
                    self._publish_outbox_watermark()
                self.store.append_metrics({
                    "poll": 1, "parent": parent, "lag_events": 0,
                    "sleep_s": round(delay, 4), "idle_polls": idle})
                time.sleep(delay)
                continue
            idle = stale = 0
            self.store.append_metrics({
                "poll": 1, "parent": parent,
                "lag_events": int(wm - self.watermark),
                "sleep_s": 0.0, "idle_polls": 0})
            while self.watermark < wm:
                hi = min(self.watermark + wave_size, wm)
                r = self.apply_wave(parent, hi=hi)
                r["pipe_state"] = self.pipe_state()
                if consumer_id:
                    self.register_consumer_hwm(parent, consumer_id,
                                               self.watermark)
                out.append(r)
        return out

    # ------------------------------------------------------------------ #
    def _launch_scan(self, log_path: str, lo: int, hi: int) -> dict:
        """Launch a log wave's raw scan fan into its fresh exchange dir;
        the handle carries (log, lo, hi), the wave id, the event schema
        and the task refs. ``replay()`` launches the NEXT wave's fan
        while the CURRENT wave's merges run: the scan is pure w.r.t.
        lake state — it reads only the immutable log window (lo, hi] and
        writes only the next wave's own exchange dir — so overlapping it
        with the previous wave's merge+commit is safe and hides the
        ~0.1 s/wave scan term in the steady-state floor. ``apply_wave``
        validates a prefetched handle's (log, lo, hi) before using it
        and discards on mismatch (e.g. a resume landing mid-window).
        Only ``replay()`` prefetches: its contract is a static log for
        the whole schedule (``tail()`` polls a growing log)."""
        units, union = self._scan_plan(log_path, lo, hi)
        wave_id = f"wave-{hi:012d}"
        sdir = self._fresh_shuffle_dir(wave_id)
        refs = [_SCAN_TASK.remote(u, lo, hi, self.sources, sdir,
                                  self.num_partitions, self.conflict)
                for u in units]
        return {"log": log_path, "lo": lo, "hi": hi, "wave_id": wave_id,
                "union": union, "refs": refs, "sdir": sdir}

    def _discard_prefetch(self, p: dict) -> None:
        """Drop an unused prefetch: wait out its in-flight tasks (so the
        rmtree does not race their writes), then remove the dir."""
        import shutil as _shutil

        import ray as _ray

        try:
            _ray.get(p["refs"])
        except RayError:
            pass     # cleanup only: a failed scan's output is discarded too
        _shutil.rmtree(p["sdir"], ignore_errors=True)

    def replay(self, log_path: str,
               wave_bounds: Iterable[tuple[int, int]]) -> list[dict[str, Any]]:
        """Apply every wave whose watermark is beyond CURRENT's — i.e.
        resume-from-checkpoint is the same code path as a fresh run.
        Wave N+1's scan fan is PREFETCHED while wave N's merges run
        (see _launch_scan)."""
        if self.emit_changelog:
            self._publish_outbox_watermark()   # heal crash-before-marker
        bounds = list(wave_bounds)
        out = []
        pre: dict | None = None
        for i, (lo, hi) in enumerate(bounds):
            cur_pre, pre = pre, None
            nxt = bounds[i + 1] if i + 1 < len(bounds) else None
            if (nxt is not None and hi > self.watermark
                    and nxt[1] > max(nxt[0], hi)):
                # this wave will run, so after it the watermark is hi —
                # the next wave's effective lo is max(its lo, hi)
                pre = self._launch_scan(log_path, max(nxt[0], hi),
                                        nxt[1])
            try:
                out.append(self.apply_wave(log_path, hi=hi,
                                           lo=max(lo, self.watermark),
                                           _prefetched=cur_pre))
            except BaseException:
                if pre is not None:
                    self._discard_prefetch(pre)
                raise
        if pre is not None:               # defensive: not consumed
            self._discard_prefetch(pre)
        return out

    # ------------------------------------------------------------------ #
    def rebuild_partition(self, log_path: str, pid: int,
                          seed: str | None = None) -> dict[str, Any]:
        """CORRUPTION_RECOVERY (reference: BootstrapService.java:37-88
        typed bootstrap sequences; SQLiteStorage.java:275-318 integrity
        check -> reindex -> bootstrap): re-derive ONE lake partition by
        replaying only its hash-slice of the log (plus the bootstrap
        seed, when the lake was seeded) and splicing the result into a
        new manifest generation at the SAME watermark.

        Scale shape: the read is the full log ≤ watermark (raw scan
        tasks, plus raw seed tasks) but every unit immediately filters
        to the 1/P hash slice and pre-compacts (combiner), so the
        exchange carries one partition's compacted history — the same
        order of work as a normal wave merge for that partition.
        Untouched partitions are not read or written."""
        cur = self.manifest
        if cur is None:
            raise RuntimeError("no CURRENT manifest — nothing to rebuild "
                               "(bootstrap/replay first)")
        if cur.num_partitions != self.num_partitions:
            raise ValueError(
                "engine/lake partition-count mismatch "
                f"({self.num_partitions} vs {cur.num_partitions}); "
                "construct with num_partitions=None to adopt")
        wm = cur.watermark
        gen = cur.generation + 1
        wave_id = f"rebuild-p{pid:06d}-g{gen:06d}"
        sdir = self._fresh_shuffle_dir(wave_id)
        units, _ = self._scan_plan(log_path, -1, wm)
        refs = [_SCAN_TASK.remote(u, -1, wm, self.sources, sdir,
                                  self.num_partitions, self.conflict, pid)
                for u in units]
        if seed is not None:
            refs += self._seed_scans(seed, sdir, pid)[0]
        import json as _json
        import shutil as _shutil

        import ray as _ray
        plan = [(r["block"], r["idx"][pid]) for r in _ray.get(refs)
                if r["block"] is not None]
        new_parts = dict(cur.partitions)
        new_partials = {k: dict(v) for k, v in cur.partials.items()}
        if plan:
            r = _ray.get(_MERGE_TASK.remote(
                pid, self.store.root, wave_id, sdir, None,
                schema_to_b64(cur.schema), self.derivations, self.conflict,
                None, plan=plan))
            dst = self.store.promote_staged(wave_id, pid, gen)
            new_parts[str(pid)] = {
                "path": self.store.rel(dst), "rows": int(r["rows"]),
                "file_rows": int(r.get("file_rows", r["rows"])),
                "deltas": [],
                "bytes": int(r["bytes"]), "hwm": int(r["hwm"]),
                "n_applied": int(r["n_applied"]),
                "n_deleted": int(r["n_deleted"]),
            }
            for dname, recs in _json.loads(r["partials_json"]).items():
                new_partials.setdefault(dname, {})[str(pid)] = recs
        else:
            # the partition holds no live docs at this watermark
            new_parts.pop(str(pid), None)
            for dname in new_partials:
                new_partials[dname].pop(str(pid), None)
        lineage = list(cur.lineage) + [{
            "wave_id": wave_id, "lo": -1, "hi": wm, "generation": gen,
            "parts_touched": 1, "rebuild": True,
        }]
        man = Manifest(
            generation=gen, watermark=wm, wave_id=wave_id,
            schema_b64=cur.schema_b64,
            num_partitions=self.num_partitions,
            partitions=new_parts, partials=new_partials,
            lineage=lineage[-200:],
            named_offsets=dict(cur.named_offsets),
            hour_max=dict(cur.hour_max),
        )
        self.store.commit(man)
        self._cached_manifest = man
        self.store.drop_staged(wave_id)
        _shutil.rmtree(sdir, ignore_errors=True)
        rows = new_parts.get(str(pid), {}).get("rows", 0)
        return {"wave_id": wave_id, "generation": gen, "pid": pid,
                "rows": rows, "watermark": wm}

    # ------------------------------------------------------------------ #
    def lake_files(self) -> list[str]:
        return [self.store.abs(p["path"]) for p in self._sorted_entries()]

    def _sorted_entries(self, m: "Manifest | None" = None
                        ) -> list[dict[str, Any]]:
        m = self.manifest if m is None else m
        if not m:
            return []
        return [p for _, p in sorted(m.partitions.items(),
                                     key=lambda kv: int(kv[0]))]

    def manifest_at(self, generation: int) -> "Manifest":
        """A historical manifest (TIME TRAVEL); raises if never
        committed. Part files are only guaranteed readable within the
        ``vacuum(keep_generations=...)`` window — see
        LakeStore.manifest_at."""
        m = (self.manifest if self.manifest is not None
             and self.manifest.generation == generation
             else self.store.manifest_at(generation))
        if m is None:
            raise ValueError(f"no manifest for generation {generation}")
        return m

    def read_lake(self, columns: list[str] | None = None,
                  generation: int | None = None,
                  filter: "pc.Expression | None" = None
                  ) -> ray.data.Dataset:
        """The materialized table as a streaming Dataset (schema reconciled
        to the current manifest — untouched partitions may lag on disk).
        ``generation`` reads the lake AS OF a past commit (time travel):
        manifests are immutable, so the historical view is byte-stable
        as long as its part files survive vacuum's keep window.

        ``filter`` is a pyarrow compute Expression over LAKE columns,
        pushed into the parquet scan on the delta-free path (row groups
        whose statistics exclude the predicate are never read) and
        applied AFTER the partition-local merge on the sidecar path
        (versions must be LWW-resolved before a value predicate may
        drop rows). With an explicit ``columns`` list on a sidecar-
        carrying lake, every column the filter references must be in
        ``columns``.

        Partitions carrying delta sidecars are merged PARTITION-LOCALLY
        inside the read tasks (one task per such partition, same unified
        compaction kernel as the write side); delta-free lakes keep the
        plain multi-file parquet scan."""
        m = (self.manifest if generation is None
             else self.manifest_at(generation))
        entries = self._sorted_entries(m) if m is not None else []
        if not entries:
            return ray.data.from_arrow(default_lake_schema().empty_table())
        fenced = "last_op" in m.schema.names
        if not any(p.get("deltas") for p in entries):
            read_cols = columns
            if fenced and columns is not None and "last_op" not in columns:
                read_cols = list(columns) + ["last_op"]
            files = [self.store.abs(p["path"]) for p in entries]
            ds = ray.data.read_parquet(files, columns=read_cols,
                                       filter=filter)
            if columns is None:
                from ..schema import reconcile_batch
                schema = m.schema

                def conform(t: pa.Table) -> pa.Table:
                    from ..stages.merge_apply import live_rows
                    return live_rows(reconcile_batch(t, schema))

                ds = ds.map_batches(conform, batch_format="pyarrow")
            elif fenced:
                keep = list(columns)

                def strip(t: pa.Table) -> pa.Table:
                    from ..stages.merge_apply import live_rows
                    return live_rows(t).select(keep)

                ds = ds.map_batches(strip, batch_format="pyarrow")
            return ds
        import json as _json
        root, b64, pol = self.store.root, m.schema_b64, self.conflict
        cols = list(columns) if columns is not None else None
        flt = filter

        def load(t: pa.Table) -> pa.Table:
            from ..stages.merge_apply import (
                live_rows as _live,
                load_partition_table,
            )
            from ..state.manifest import schema_from_b64
            schema = schema_from_b64(b64)
            outs = []
            for ej in t.column("entry_json").to_pylist():
                tab = _live(load_partition_table(root, _json.loads(ej),
                                                 schema, pol, cols))
                if flt is not None:
                    tab = tab.filter(flt)
                if cols is not None:
                    tab = tab.select(cols)
                outs.append(tab)
            return pa.concat_tables(outs)

        descs = [{"entry_json": _json.dumps(p)} for p in entries]
        return ray.data.from_items(descs).map_batches(
            load, batch_format="pyarrow", batch_size=1)

    def live_files(self) -> set[str]:
        """Absolute paths of every base and sidecar file CURRENT names."""
        m = self.manifest
        return set() if m is None else {
            self.store.abs(rel) for e in m.partitions.values()
            for rel in _entry_files(e)}

    def get_docs(self, doc_ids: list[str],
                 columns: list[str] | None = None) -> pa.Table:
        """Point reads: the live rows for ``doc_ids``, touching ONLY the
        hash partitions those keys map to (plus their sidecars) — the
        key-addressed read the doc_id partitioning exists for.
        Driver-side merge-on-read over this engine's FileCache: each
        committed base/sidecar file is decoded once and kept until
        CURRENT stops naming it. A warm lookup does no file I/O: it
        filters the touched partitions' decoded files to the keys
        (O(their rows), in memory) and merges only the matching rows —
        no merge at all when no sidecar row matches. A cold file costs
        one parquet decode. A projected read (``columns=``) bypasses
        the cache and decodes only its columns of each touched file."""
        from ..partitioning import partition_ids
        from ..stages import merge_apply
        import numpy as np

        m = self.manifest
        if m is None or not doc_ids:
            return default_lake_schema().empty_table()
        if self._files_basis is None or self._files_basis[0] is not m:
            self.file_cache.retain(self.live_files())
            self._files_basis = (m, m.schema)
        schema = self._files_basis[1]
        read = self.file_cache if columns is None else merge_apply.read_columns
        ids = np.asarray(doc_ids, dtype=object)
        pids = set(partition_ids(ids, m.num_partitions).tolist())
        tabs = []
        want = pa.array(list(doc_ids))
        for pid in sorted(pids):
            entry = m.partitions.get(str(pid))
            if entry is None:
                continue
            t = merge_apply.live_rows(merge_apply.load_partition_table(
                self.store.root, entry, schema, self.conflict, columns,
                keys=want, read=read))
            tabs.append(t if columns is None else t.select(columns))
        if not tabs:
            sch = schema if columns is None else pa.schema(
                [f for f in schema if f.name in columns])
            return sch.empty_table()
        out = pa.concat_tables(tabs)
        return out.sort_by("doc_id") if "doc_id" in out.column_names else out

    def diff_generations(self, g_old: int,
                         g_new: int | None = None,
                         payload_columns: list[str] | None = None,
                         before_image: bool = False
                         ) -> ray.data.Dataset:
        """TIME-TRAVEL DIFF: which docs changed between two committed
        generations — (doc_id, change ∈ added|updated|deleted, lsn_old,
        lsn_new), ``g_new`` defaulting to CURRENT. The CDC consumer's
        "what did I miss" query, answered from the lake alone (no log
        re-scan). ``payload_columns`` upgrades the diff to a CHANGEFEED
        (the Delta-CDF read shape): each named lake column is appended
        carrying the NEW-generation value for added/updated docs, null
        for deleted — so a downstream consumer can apply the changes
        without a second lake read. ``before_image=True`` additionally
        appends ``<col>_old`` before-image columns (the Debezium
        before/after envelope) for updated/deleted docs — what O(delta)
        maintenance of subtractable/XOR aggregates needs
        (state/checksums.py).

        Scale shape: the driver compares MANIFEST ENTRIES (base path +
        delta chain) per partition and fans out one raw diff task per
        CHANGED partition only — after a small wave the diff costs
        O(touched partitions), not O(lake). Each task reads the narrow
        (doc_id, last_lsn [+ payload]) projection of both versions ONCE
        and outer-joins them vectorized; results stay in the object
        store (``from_arrow_refs``), never gathered on the driver."""
        m_old = self.manifest_at(g_old)
        m_new = (self.manifest if g_new is None
                 else self.manifest_at(g_new))
        if m_new is None:
            raise ValueError("lake has no committed manifest")
        pay = [c for c in (payload_columns or [])
               if c in m_new.schema.names and c != "doc_id"]

        def ident(e: "dict[str, Any] | None"):
            if e is None:
                return None
            return (e["path"],
                    tuple(d["path"] for d in (e.get("deltas") or [])))

        refs = []
        for pid in sorted(set(m_old.partitions) | set(m_new.partitions),
                          key=int):
            a, b = m_old.partitions.get(pid), m_new.partitions.get(pid)
            if ident(a) == ident(b):
                continue                    # untouched partition: skip
            refs.append(_DIFF_TASK.remote(
                int(pid), self.store.root, a, b,
                m_old.schema_b64, m_new.schema_b64, self.conflict,
                pay or None, before_image))
        if not refs:
            empty = pa.table({
                "doc_id": pa.array([], pa.string()),
                "change": pa.array([], pa.string()),
                "lsn_old": pa.array([], pa.int64()),
                "lsn_new": pa.array([], pa.int64()),
            })
            for c in pay:
                empty = empty.append_column(
                    c, pa.nulls(0, m_new.schema.field(c).type))
            if before_image:
                for c in pay:
                    empty = empty.append_column(
                        f"{c}_old", pa.nulls(0, m_new.schema.field(c).type))
            return ray.data.from_arrow(empty)
        return ray.data.from_arrow_refs(refs)

    def clone_lake(self, dst_root: str,
                   generation: int | None = None) -> "CDCEngine":
        """ZERO-COPY BRANCH: materialize a new, independent lake root
        whose generation 0 is this lake's state as of ``generation``
        (default CURRENT). Part and sidecar files are HARDLINKED
        (copy fallback across filesystems), so branching a huge lake
        costs O(partitions) metadata, not O(bytes) — the lakehouse
        branch/clone primitive (curate an experimental corpus variant
        without duplicating the data). Hardlinks make the branches
        fully independent: either side's ``vacuum`` unlinks only its
        own directory entries, never the other branch's. On a shared
        object store the same shape is "copy the manifest, reference
        the immutable objects" — the path rewrite below is the only
        local-fs concession. The clone's engine can replay further
        waves immediately (generations continue from 0)."""
        import shutil as _shutil

        src = (self.manifest if generation is None
               else self.manifest_at(generation))
        if src is None:
            raise ValueError("lake has no committed manifest")
        if os.path.exists(os.path.join(dst_root, "CURRENT")):
            raise ValueError(f"{dst_root} is already a committed lake")
        dst = LakeStore(dst_root)

        def adopt(rel: str, pid: int, tag: str) -> str:
            src_p = self.store.abs(rel)
            d = os.path.join(dst.parts_dir, f"p={pid:06d}")
            os.makedirs(d, exist_ok=True)
            dst_p = os.path.join(d, f"g000000-{tag}.parquet")
            try:
                os.link(src_p, dst_p)
            except OSError:
                _shutil.copy2(src_p, dst_p)
            return dst.rel(dst_p)

        new_parts: dict[str, dict[str, Any]] = {}
        for pid_s, e in src.partitions.items():
            pid = int(pid_s)
            ne = dict(e)
            ne["path"] = adopt(e["path"], pid, "base")
            ne["deltas"] = [
                {**d, "path": adopt(d["path"], pid, f"d{i:03d}")}
                for i, d in enumerate(e.get("deltas") or [])]
            new_parts[pid_s] = ne
        man = Manifest(
            generation=0, watermark=src.watermark,
            wave_id=f"clone-{src.wave_id}", schema_b64=src.schema_b64,
            num_partitions=src.num_partitions, partitions=new_parts,
            partials={k: dict(v) for k, v in src.partials.items()},
            lineage=[{"cloned_from": self.store.root,
                      "source_generation": src.generation,
                      "source_wave_id": src.wave_id}],
            named_offsets=dict(src.named_offsets),
            hour_max=dict(src.hour_max),
        )
        dst.commit(man)
        return CDCEngine(dst_root, num_partitions=None,
                         derivations=self.derivations, salt=self.salt,
                         sources=self.sources,
                         conflict=self.conflict,
                         emit_changelog=self.emit_changelog,
                         bg_absorb=self.bg_absorb,
                         sidecar_frac=self.sidecar_frac,
                         max_deltas=self.max_deltas,
                         chain_compact=self.chain_compact)

    def reshard_lake(self, dst_root: str,
                     num_partitions: int,
                     _migrate=None,
                     _base_schema: "pa.Schema | None" = None,
                     _derivations: "tuple | None" = None
                     ) -> "CDCEngine":
        """RESHARD: rewrite this lake into a new root at a DIFFERENT
        partition count — the cluster-resize operation the immutable
        per-lake partition count otherwise forbids. The destination
        preserves the source's watermark, named offsets and hour
        checkpoints, so a ``tail()`` against the same log CONTINUES
        exactly-once from where the source stopped; logical state is
        identical under any conflict policy (tombstone fences carry
        over as op=1 pseudo events through the same unified compaction
        kernel every wave uses).

        Scale shape: one raw task per SOURCE partition re-emits its
        merged rows as pseudo change events straight into the
        destination wave's exchange dir, hash-routed into the new
        partition layout (no row passes through this process), and the
        ordinary merge fan and commit apply them; cost is one full lake
        rewrite, the floor for any reshard."""
        from ..stages.merge_apply import FENCE_COL
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}")
        src = self.manifest
        if src is None:
            raise ValueError("lake has no committed manifest")
        if os.path.exists(os.path.join(dst_root, "CURRENT")):
            raise ValueError(f"{dst_root} is already a committed lake")
        dst = CDCEngine(dst_root, num_partitions=num_partitions,
                        derivations=(self.derivations
                                     if _derivations is None
                                     else _derivations),
                        salt=self.salt,
                        sources=self.sources,
                        conflict=self.conflict,
                        emit_changelog=self.emit_changelog,
                        bg_absorb=self.bg_absorb,
                        sidecar_frac=self.sidecar_frac,
                        max_deltas=self.max_deltas,
                        chain_compact=self.chain_compact)

        # the pseudo-event schema _old_as_events emits for this lake
        fields = [pa.field("lsn", pa.int64()), pa.field("op", pa.int8())]
        have = {"lsn", "op"}
        lof = self.conflict.lake_order_field
        if lof and lof in src.schema.names:
            fields.append(pa.field(
                self.conflict.order_col, src.schema.field(lof).type))
            have.add(self.conflict.order_col)
        for f in src.schema:
            if f.name in have or f.name in ("last_lsn", FENCE_COL) \
                    or f.name == lof:
                continue
            fields.append(f)
            have.add(f.name)
        if "ts" not in have:
            # absent under the event-time policy: order_col == "ts"
            # already carries the timestamps
            fields.append(pa.field("ts", pa.timestamp("us")))
        ev_schema = pa.schema(fields)

        mig = None
        if _migrate is not None:
            mig, ev_schema = _migrate(ev_schema)
        sdir = dst._fresh_shuffle_dir("reshard")
        refs = [_RESHARD_TASK.remote(int(pid), self.store.root, e,
                                     src.schema_b64, self.conflict, sdir,
                                     num_partitions, mig)
                for pid, e in src.partitions.items()]
        # the source's checkpoint state rides the reshard wave's OWN
        # manifest commit — the whole reshard is one atomic publish
        dst._apply(refs, lo=-1, hi=src.watermark, wave_id="reshard",
                   incoming_schema=ev_schema,
                   base_schema=_base_schema,
                   carry_named_offsets=dict(src.named_offsets),
                   carry_hour_max=dict(src.hour_max),
                   lineage_note={
                       "resharded_from": self.store.root,
                       "source_generation": src.generation,
                       "source_partitions": src.num_partitions})
        return dst

    def migrate_lake(self, dst_root: str,
                     num_partitions: "int | None" = None,
                     rename: "dict[str, str] | None" = None,
                     cast: "dict[str, pa.DataType] | None" = None,
                     drop: "list[str] | None" = None) -> "CDCEngine":
        """SCHEMA MIGRATION: rewrite the lake into a new root with
        payload columns renamed / cast / dropped — the backfill half of
        schema evolution (the additive half is already automatic:
        schema.reconcile_batch widens the lake when a wave brings new
        columns). Runs through the same machinery as ``reshard_lake``
        (per-partition pseudo events -> one atomic wave), so the
        destination keeps the watermark, named offsets and tombstone
        fences, and a ``tail()`` against the same log CONTINUES
        exactly-once — the log's OLD column names keep applying because
        reconcile_batch treats them as new columns; run migrations when
        the publisher's rename ships too.

        Envelope columns (lsn/op/doc_id/ts/last_lsn and the conflict
        policy's order field) cannot be renamed, cast, or dropped."""
        if self.manifest is None:
            # keep the CLI's JSON error contract (cmd_migrate catches
            # ValueError) instead of an AttributeError traceback
            raise ValueError("lake has no committed manifest")
        rename = dict(rename or {})
        cast = dict(cast or {})
        drop = list(drop or [])
        from ..stages.merge_apply import FENCE_COL
        protected = {"lsn", "op", "doc_id", "ts", "last_lsn", FENCE_COL,
                     self.conflict.order_col}
        if self.conflict.lake_order_field:
            protected.add(self.conflict.lake_order_field)
        touched = set(rename) | set(cast) | set(drop)
        bad = touched & protected
        if bad:
            raise ValueError(f"cannot migrate envelope columns: "
                             f"{sorted(bad)}")
        clash = set(rename.values()) & (
            set(self.manifest.schema.names) - set(rename))
        if clash:
            raise ValueError(f"rename target(s) already exist: "
                             f"{sorted(clash)}")

        # the derived DAG must follow the migration: remap every
        # derivation's key/agg columns through `rename`; dropping a
        # column a derivation consumes is refused (drop the derivation
        # first, then migrate)
        from .dag import Derivation
        migrated_derivs = []
        for d in self.derivations:
            used = {c for c, _ in d.aggs if c != "*"}
            if d.key:
                used.add(d.key)
            dead = used & set(drop)
            if dead:
                raise ValueError(
                    f"cannot drop column(s) {sorted(dead)}: derivation "
                    f"{d.name!r} aggregates them")
            migrated_derivs.append(Derivation(
                name=d.name,
                key=rename.get(d.key, d.key) if d.key else None,
                aggs=tuple((rename.get(c, c), fn) for c, fn in d.aggs),
                upstream=d.upstream))

        def make(ev_schema: pa.Schema):
            fields = []
            for f in ev_schema:
                if f.name in drop:
                    continue
                name = rename.get(f.name, f.name)
                typ = cast.get(f.name, f.type)
                fields.append(pa.field(name, typ))
            out_schema = pa.schema(fields)

            def mig(t: pa.Table) -> pa.Table:
                cols = {}
                for f in ev_schema:
                    if f.name in drop:
                        continue
                    c = t.column(f.name)
                    if f.name in cast:
                        c = c.cast(cast[f.name])
                    cols[rename.get(f.name, f.name)] = c
                return pa.table(cols)

            return mig, out_schema

        # a MINIMAL base schema so dropped/renamed source columns do
        # not reappear as default-schema nulls in the fresh destination
        return self.reshard_lake(
            dst_root,
            num_partitions or self.manifest.num_partitions,
            _migrate=make, _base_schema=pa.schema([]),
            _derivations=tuple(migrated_derivs))

    # -------------------------------------------------- background absorbs
    def _collect_ready_absorbs(self, cur: "Manifest | None"
                               ) -> dict[int, dict[str, Any]]:
        """Non-blocking: pop finished background absorbs whose basis is
        still intact (base path unchanged AND the absorbed chain is
        still a prefix of the entry's chain — a chain fold or another
        absorb invalidates it); invalid results are discarded and their
        staged files dropped. A discard only wastes the async work —
        committed state is never affected."""
        if not self._bg or cur is None:
            return {}
        import ray as _ray
        ready, _ = _ray.wait([v["ref"] for v in self._bg.values()],
                             num_returns=len(self._bg), timeout=0)
        ready_set = set(ready)
        out: dict[int, dict[str, Any]] = {}
        for pid in list(self._bg):
            v = self._bg[pid]
            if v["ref"] not in ready_set:
                continue
            del self._bg[pid]
            try:
                r = _ray.get(v["ref"])
            except Exception:
                # a failed absorb (e.g. a concurrent vacuum collected
                # its superseded inputs, or a transient I/O error) only
                # discards the async work — it must never fail the
                # adopting WAVE; the threshold re-launches next commit
                self.store.drop_staged(v["wid"])
                continue
            e = cur.partitions.get(str(pid))
            chain = ([d["path"] for d in (e.get("deltas") or [])]
                     if e else [])
            if (e is None or e["path"] != r["basis_path"]
                    or chain[:len(r["absorbed"])] != r["absorbed"]):
                self.store.drop_staged(v["wid"])
                continue
            out[pid] = {**r, "wid": v["wid"]}
        return out

    def _adopt_into(self, adopted: dict[int, dict[str, Any]],
                    new_parts: dict[str, dict],
                    new_partials: dict[str, dict], gen: int) -> None:
        """Publish adopted absorbs into a manifest under construction:
        promote the staged base file under ``gen`` and rewrite the
        entry (chain = the post-basis suffix; rows/partials = the
        absorb's exact as-of-basis accounting — the documented
        'exact as of the last absorb' manifest contract)."""
        import json as _json
        for pid, r in adopted.items():
            dst = self.store.promote_staged(r["wid"], pid, gen)
            self.store.drop_staged(r["wid"])
            new_parts[str(pid)] = _adopted_entry(new_parts[str(pid)],
                                                 r, self.store.rel(dst))
            if r.get("kind") != "fold" and r["partials_json"]:
                for dname, recs in _json.loads(r["partials_json"]).items():
                    new_partials.setdefault(dname, {})[str(pid)] = recs

    def _bg_absorb_cap(self) -> int:
        """Max background absorbs in flight: HALF the cluster's CPUs
        (floor 2; cpus//4 starved the launch queue — the 32-wave bench
        needs ~13 absorb launches/wave at its delta/base ratio, and the
        backlog ballooned pendings into expensive folds). Uncapped
        launches would burst O(base) rewrites across every
        over-threshold partition at once, stealing the wave tasks'
        cores — the absorbs' whole point is to stay OFF the critical
        path. Capped launches smooth the rewrite work across commits;
        the background chain-fold tier bounds read amplification while
        a partition waits its turn."""
        return max(2, _cluster_cpus() // 2)

    def _launch_absorbs(self, man: Manifest,
                        cap_override: "int | None" = None) -> int:
        """Post-commit: start background maintenance per partition —
        an ABSORB (O(base) rewrite) where pending sidecar rows crossed
        the (staggered) absorb threshold, else a chain FOLD (O(pending)
        compaction, base never read) where the chain length crossed the
        (staggered) cap. One task in flight per partition, at most
        ``_bg_absorb_cap()`` absorbs plus as many folds in flight total
        (folds are an order cheaper); most-pending first when
        rationing. Absorbs supersede folds — an absorbed chain is
        empty, so a partition never needs both. ``cap_override`` lifts
        the ration for explicit quiescence (``settle_absorbs``): the
        cap protects the WAVE critical path, and a drain has none."""
        from ..stages.merge_apply import _staggered_frac, _staggered_max
        cap = self._bg_absorb_cap() if cap_override is None else cap_override
        budget = 2 * cap - len(self._bg)
        if budget <= 0:
            return 0
        absorbs: list[tuple[int, int, dict]] = []
        folds: list[tuple[int, int, dict]] = []
        for pid_s, e in man.partitions.items():
            pid = int(pid_s)
            if pid in self._bg or not e.get("deltas"):
                continue
            base_rows = int(e.get("file_rows", e.get("rows", 0)))
            if base_rows <= 0:
                continue
            pending = sum(int(d["rows"]) for d in e["deltas"])
            if pending > _staggered_frac(self.sidecar_frac,
                                         pid) * base_rows:
                absorbs.append((pending, pid, e))
            elif len(e["deltas"]) >= _staggered_max(self.max_deltas,
                                                    pid):
                folds.append((pending, pid, e))
        absorb_inflight = sum(1 for v in self._bg.values()
                              if v.get("kind", "absorb") == "absorb")
        n = 0
        for pending, pid, e in sorted(absorbs, reverse=True)[:min(
                budget, max(0, cap - absorb_inflight))]:
            wid = f"absorb-g{man.generation:06d}-p{pid:06d}"
            self._bg[pid] = {
                "wid": wid, "kind": "absorb",
                "ref": _ABSORB_TASK.remote(
                    pid, self.store.root, wid, e, man.schema_b64,
                    self.derivations, self.conflict),
            }
            n += 1
        for pending, pid, e in sorted(folds, reverse=True)[:budget - n]:
            wid = f"fold-g{man.generation:06d}-p{pid:06d}"
            self._bg[pid] = {
                "wid": wid, "kind": "fold",
                "ref": _FOLD_TASK.remote(
                    pid, self.store.root, wid, e, self.conflict),
            }
            n += 1
        return n

    def settle_absorbs(self) -> int:
        """Block for every in-flight background absorb and commit the
        adoptions as ONE maintenance generation at the same watermark
        (the synchronous tail of ``bg_absorb`` mode — call between
        replays or before handing the lake to a reader that wants
        chains short). Returns partitions adopted."""
        import ray as _ray
        if not self._bg:
            return 0
        _ray.wait([v["ref"] for v in self._bg.values()],
                  num_returns=len(self._bg))
        cur = self.manifest
        adopted = self._collect_ready_absorbs(cur)
        if not adopted:
            # every collected absorb was discarded (failed task or
            # invalidated basis): re-launch for partitions still over
            # threshold so drain_absorbs' quiescence contract holds
            if cur is not None:
                self._launch_absorbs(cur, cap_override=_cluster_cpus())
            return 0
        gen = cur.generation + 1
        new_parts = dict(cur.partitions)
        new_partials = {k: dict(v) for k, v in cur.partials.items()}
        self._adopt_into(adopted, new_parts, new_partials, gen)
        lineage = list(cur.lineage) + [{
            "wave_id": f"absorb-settle-g{gen:06d}", "generation": gen,
            "compaction": True, "parts_touched": len(adopted),
        }]
        man = Manifest(
            generation=gen, watermark=cur.watermark,
            wave_id=f"absorb-settle-g{gen:06d}",
            schema_b64=cur.schema_b64,
            num_partitions=cur.num_partitions,
            partitions=new_parts, partials=new_partials,
            lineage=lineage[-200:],
            named_offsets=dict(cur.named_offsets),
            hour_max=dict(cur.hour_max),
        )
        self.store.commit(man)
        self._cached_manifest = man
        if self.bg_absorb:
            # thresholds may still trip; settle is an explicit drain,
            # so launch at full width (no wave path to protect)
            self._launch_absorbs(man, cap_override=_cluster_cpus())
        return len(adopted)

    def drain_absorbs(self, max_rounds: int = 64) -> int:
        """Settle background absorbs to QUIESCENCE: each settle round
        may re-launch absorbs for partitions still over threshold after
        adoption, so iterate until a round adopts nothing and none are
        in flight. Returns total partitions adopted. The public drain
        every caller (CLI, bench, tests) should use — never poke
        ``_bg`` directly."""
        total = 0
        for _ in range(max_rounds):
            n = self.settle_absorbs()
            total += n
            if n == 0 and not self._bg:
                break
        return total

    def vacuum(self, keep_generations: int = 1) -> int:
        """GC part files outside the keep window AND staging dirs
        orphaned by a writer that exited with work in flight (a process
        death between an absorb launch and its adoption leaks its
        ``_staged/absorb-*`` dir forever — the store alone cannot tell
        an orphan from live work, but the engine knows its own
        in-flight set). Single-writer contract as everywhere else:
        only the lake's one live engine may call this."""
        return self.store.vacuum(
            keep_generations=keep_generations,
            staged_keep={v["wid"] for v in self._bg.values()})

    def compact_partitions(self, pids: list[int] | None = None) -> int:
        """Maintenance compaction: absorb delta sidecars into their base
        files (the LSM background-compaction analog), committed as one
        new manifest generation at the SAME watermark. Returns the
        number of partitions rewritten. Partition-parallel raw tasks;
        partitions without sidecars are untouched."""
        import ray as _ray

        cur = self.manifest
        if cur is None:
            return 0
        todo = [int(k) for k, p in cur.partitions.items()
                if p.get("deltas") and (pids is None or int(k) in pids)]
        if not todo:
            return 0
        gen = cur.generation + 1
        wave_id = f"compact-g{gen:06d}"
        # same worker as the BACKGROUND absorbs (merge_apply
        # .absorb_partition): materialize base+chain (fence rows kept),
        # stage as the new base, return exact stats/partials
        stats = _ray.get([
            _ABSORB_TASK.remote(p, self.store.root, wave_id,
                                cur.partitions[str(p)], cur.schema_b64,
                                self.derivations, self.conflict)
            for p in todo])
        import json as _json
        new_parts = dict(cur.partitions)
        new_partials = {k: dict(v) for k, v in cur.partials.items()}
        for r in stats:
            pid = int(r["pid"])
            dst = self.store.promote_staged(wave_id, pid, gen)
            prev = new_parts[str(pid)]
            new_parts[str(pid)] = {
                "path": self.store.rel(dst), "rows": int(r["rows"]),
                "file_rows": int(r["file_rows"]), "deltas": [],
                "bytes": int(r["bytes"]), "hwm": int(prev.get("hwm", -1)),
                "n_applied": 0, "n_deleted": 0,
            }
            for dname, recs in _json.loads(r["partials_json"]).items():
                new_partials.setdefault(dname, {})[str(pid)] = recs
        lineage = list(cur.lineage) + [{
            "wave_id": wave_id, "generation": gen, "compaction": True,
            "parts_touched": len(stats),
        }]
        man = Manifest(
            generation=gen, watermark=cur.watermark, wave_id=wave_id,
            schema_b64=cur.schema_b64,
            num_partitions=cur.num_partitions,   # maintenance commit must
                                                 # never alter routing
            partitions=new_parts, partials=new_partials,
            lineage=lineage[-200:],
            named_offsets=dict(cur.named_offsets),
            hour_max=dict(cur.hour_max),
        )
        self.store.commit(man)
        self._cached_manifest = man
        self.store.drop_staged(wave_id)
        return len(stats)

    def fold_chains(self, pids: list[int] | None = None) -> int:
        """Maintenance chain fold: merge every (selected) partition's
        sidecar chain into ONE sidecar without touching the base —
        O(total pending) I/O vs ``compact_partitions``'s O(lake).
        Shortens the per-read merge fan (readers merge base + chain) on
        lakes where pending is small relative to the base; committed as
        one new manifest generation at the SAME watermark. Returns the
        number of partitions folded (chains of length ≥2 only)."""
        import ray as _ray

        from ..stages.merge_apply import fold_chain as _fold

        cur = self.manifest
        if cur is None:
            return 0
        todo = [int(k) for k, p in cur.partitions.items()
                if len(p.get("deltas") or []) >= 2
                and (pids is None or int(k) in pids)]
        if not todo:
            return 0
        gen = cur.generation + 1
        wave_id = f"fold-g{gen:06d}"
        root, pol = self.store.root, self.conflict
        task = _ray.remote(num_cpus=1)(_fold)
        stats = _ray.get([task.remote(p, root, wave_id,
                                      cur.partitions[str(p)], pol)
                          for p in todo])
        new_parts = dict(cur.partitions)
        for r in stats:
            pid = int(r["pid"])
            dst = self.store.promote_staged(wave_id, pid, gen)
            prev = new_parts[str(pid)]
            entry = dict(prev)
            old_chain = sum(int(d["bytes"])
                            for d in (prev.get("deltas") or []))
            entry["deltas"] = [{"path": self.store.rel(dst),
                                "rows": int(r["file_rows"]),
                                "bytes": int(r["bytes"])}]
            entry["bytes"] = (int(prev.get("bytes", 0)) - old_chain
                              + int(r["bytes"]))
            new_parts[str(pid)] = entry
        lineage = list(cur.lineage) + [{
            "wave_id": wave_id, "generation": gen, "fold": True,
            "parts_touched": len(stats),
        }]
        man = Manifest(
            generation=gen, watermark=cur.watermark, wave_id=wave_id,
            schema_b64=cur.schema_b64,
            num_partitions=cur.num_partitions,
            partitions=new_parts, partials=dict(cur.partials),
            lineage=lineage[-200:],
            named_offsets=dict(cur.named_offsets),
            hour_max=dict(cur.hour_max),
        )
        self.store.commit(man)
        self._cached_manifest = man
        self.store.drop_staged(wave_id)
        return len(stats)

    def lake_table(self) -> pa.Table:
        """Whole lake as one Arrow table (live rows — tombstone fences
        excluded) — small/test scale only."""
        from ..stages.merge_apply import live_rows, load_partition_table
        m = self.manifest
        entries = self._sorted_entries()
        if not entries:
            return default_lake_schema().empty_table()
        tabs = [live_rows(load_partition_table(self.store.root, p,
                                               m.schema, self.conflict))
                for p in entries]
        return pa.concat_tables(tabs).sort_by("doc_id")

    def dirty_pids(self) -> list[int]:
        """Partitions whose manifest stats are stale: a non-empty delta
        chain means sidecar waves landed since the last full accounting
        (sidecar staging is O(delta) and does not recount — see
        _stage_sidecar)."""
        m = self.manifest
        if m is None:
            return []
        return sorted(int(k) for k, p in m.partitions.items()
                      if p.get("deltas"))

    def exact_partition_stats(self) -> dict[int, dict[str, Any]]:
        """Exact logical {rows, partials} for every DIRTY partition —
        the lazily-paid accounting pass (narrow-projection merge of
        base + sidecar chain, partition-parallel raw tasks). Cached per
        manifest generation: querying derived tables repeatedly between
        waves costs one pass, and a generation with no sidecars costs
        nothing."""
        import json as _json

        import ray as _ray

        m = self.manifest
        cache = getattr(self, "_acct_cache", None)
        if cache is not None and m is not None and cache[0] == m.generation:
            return cache[1]
        dirty = self.dirty_pids()
        out: dict[int, dict[str, Any]] = {}
        if dirty:
            res = _ray.get([
                _ACCT_TASK.remote(p, self.store.root,
                                  m.partitions[str(p)],
                                  m.schema_b64, self.derivations,
                                  self.conflict)
                for p in dirty])
            for r in res:
                out[int(r["pid"])] = {
                    "rows": int(r["rows"]),
                    "partials": _json.loads(r["partials_json"]),
                }
        if m is not None:
            self._acct_cache = (m.generation, out)
        return out

    def logical_rows(self) -> int:
        """Exact live-row count of the lake: manifest accounting for
        clean partitions + lazy accounting for dirty ones."""
        m = self.manifest
        if m is None:
            return 0
        fresh = self.exact_partition_stats()
        return sum(fresh[int(k)]["rows"] if int(k) in fresh
                   else int(p["rows"]) for k, p in m.partitions.items())

    def derived_table(self, name: str) -> pa.Table:
        """Finalize a derived table from manifest partials (DAG edge).
        Partitions carrying pending sidecars have stale manifest
        partials; their contribution is replaced by the lazily-computed
        exact partials (exact_partition_stats) so derived tables are
        always exact regardless of how many sidecar waves are
        in-flight."""
        m = self.manifest
        fresh = (self.exact_partition_stats()
                 if any(d.upstream == "lake" for d in self.derivations)
                 and self.dirty_pids() else {})
        done: dict[str, pa.Table] = {}
        for d in self.derivations:
            if d.upstream == "lake":
                by_pid = dict((m.partials or {}).get(d.name, {}))
                for pid, rec in fresh.items():
                    by_pid[str(pid)] = rec["partials"].get(d.name, [])
                done[d.name] = d.finalize(by_pid)
            else:
                done[d.name] = d.derive_from_table(done[d.upstream])
            if d.name == name:
                return done[d.name]
        raise KeyError(name)

    def publish_derived_tables(self) -> dict[str, str]:
        """Materialize every DAG table to ``derived/<name>.parquet``
        (atomic overwrite) so downstream consumers read plain parquet
        instead of calling into the engine — the reference's per-type
        till subscription output, as files. Driver-side fold of manifest
        partials: O(P × distinct keys) tiny rows, no lake read."""
        out_dir = os.path.join(self.store.root, "derived")
        os.makedirs(out_dir, exist_ok=True)
        published = {}
        for d in self.derivations:
            path = os.path.join(out_dir, f"{d.name}.parquet")
            pq.write_table(self.derived_table(d.name), path + ".tmp")
            os.replace(path + ".tmp", path)
            published[d.name] = path
        return published

    def named_offset(self, name: str) -> int:
        """Maintained named offsets (reference OffsetName.java:3-5 —
        GLOBAL_LATEST, MAX_OFFSET_PREVIOUS_HOUR as periodically-updated
        checkpoints, not per-query scans): GLOBAL_LATEST is the
        watermark; MAX_OFFSET_PREVIOUS_HOUR is the max lsn whose event
        time falls before the latest hour boundary seen in the stream,
        folded incrementally from each log wave's scan stats (the raw
        scan tasks report per-hour maxima for free) and persisted in the
        manifest; seed, reshard and rebuild waves fold none. Returns -1
        when unknown."""
        m = self.manifest
        if m is None:
            return -1
        if name == "GLOBAL_LATEST":
            return m.watermark
        if name == "MAX_OFFSET_CONSUMERS":
            # this engine's own subscription fold (all types when
            # unfiltered) — the checkpoint the reference stores under
            # the same name
            self._require_consumer_offsets(m)
            vals = [v for k, v in m.named_offsets.items()
                    if k.startswith("MAX_OFFSET_CONSUMERS:")
                    and (self.sources is None
                         or k.split(":", 1)[1] in self.sources)]
            return max((int(v) for v in vals), default=-1)
        return int(m.named_offsets.get(name, -1))

    def _require_consumer_offsets(self, m) -> None:
        """MAX_OFFSET_CONSUMERS:<type> checkpoints are maintained by the
        raw log scan tasks (which see every raw event before the
        combiner pre-compacts away losing lsns). A lake whose log waves
        never folded one — every wave filtered empty by a ``sources=``
        subscription that matched no event — fails loudly instead of
        returning 0 as if the types were never seen.

        The gate is KEY PRESENCE on the lake, not the reading engine's
        subscription — an unfiltered reader opening such a lake hits
        the same loud error (a lake that applied any log event always
        carries at least one checkpoint key, since every event has a
        source)."""
        if (m.watermark > 0
                and not any(k.startswith("MAX_OFFSET_CONSUMERS:")
                            for k in m.named_offsets)):
            raise NotImplementedError(
                "MAX_OFFSET_CONSUMERS checkpoints were never maintained "
                "on this lake (its log waves applied no event: a "
                "source-filtered subscription matched none); scan the "
                "log with max_offset_for_types")

    def max_offset_for_consumers(self, types: "Iterable[str]") -> int:
        """Max lsn among events of the given types, answered from the
        maintained MAX_OFFSET_CONSUMERS:<type> checkpoints — no log
        scan. Reference: DistributedStorage.getMaxOffsetForConsumers
        (SQLiteStorage.java:237-251; semantics pinned by
        SQLiteStorageIntegrationSpec.groovy:1222-1260): empty type list
        and unknown types return 0."""
        m = self.manifest
        types = list(types)
        if m is None or not types:
            return 0
        self._require_consumer_offsets(m)
        return max((int(m.named_offsets.get(
            f"MAX_OFFSET_CONSUMERS:{t}", 0)) for t in types), default=0)

    def consistency_sum(self) -> int:
        """Σ last_lsn over live docs — the reference's convergence checksum
        (SQLiteQueries.java:57-64): Σ over keys of max(lsn ≤ N), keys whose
        latest event is a tombstone excluded (they are not in the lake)."""
        return self.consistency_stats()[0]

    def consistency_stats(self) -> tuple[int, int]:
        """(consistency checksum, exact live rows) in ONE distributed
        lake read — verify's combined pass, so exact row counting costs
        no extra I/O over the checksum it already needs."""
        from ray.data.aggregate import Count, Sum
        ds = self.read_lake(columns=["last_lsn"])
        res = ds.aggregate(Sum("last_lsn"), Count())
        if res is None:
            return 0, 0
        return (int(res.get("sum(last_lsn)") or 0),
                int(res.get("count()") or 0))

    # ------------------------------------------------------------------ #
    def checksum(self, columns: "list[str] | None" = None,
                 n_buckets: int = 16) -> pa.Table:
        """SYNC-VERIFICATION CHECKSUM: per-bucket content signatures of
        the live lake — the pt-table-checksum shape for the reference's
        hierarchy contract (every till converges to the cloud's state,
        SyncSpec/SQLiteQueries.java:57-64). Two lakes are content-equal
        iff their checksum tables are equal, so a parent and child (or
        two replicas after failover) verify sync by exchanging
        O(n_buckets) rows instead of shipping data. Unlike
        ``consistency_sum`` (Σ last_lsn), the signature covers the FULL
        row payload — a corrupted value/props byte flips the bucket's
        XOR even when every lsn matches.

        Row signature: int64 from the first 15 hex chars of
        md5('|'.join(cell strings)) over ``columns`` in order, with the
        repo's shared stringify convention (null -> '', float -> cents
        via floor(x*100+0.5), list<int> -> comma-joined) so a DuckDB
        oracle reproduces every bit (see __ray_entry__ lake_checksum).
        Bucket: first md5 hex digit of doc_id mod ``n_buckets``. XOR is
        the bucket aggregate — order- and partitioning-insensitive, no
        overflow at any scale.

        Scale shape: one streaming lake read, per-block (bucket, count,
        xor) partials inside ``map_batches``, then a driver fold over
        the BOUNDED n_buckets x blocks partial rows — zero exchanges.
        The per-row md5 loop is inherent to a cryptographic checksum
        (this is the audit path, not the ingest hot path)."""
        m = self.manifest
        cols = list(columns) if columns is not None else [
            c for c in (m.schema.names if m else []) if c != "last_op"]
        if m is None or not cols:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "n_rows": pa.array([], pa.int64()),
                             "xor_sig": pa.array([], pa.int64())})
        read_cols = list(dict.fromkeys(cols + ["doc_id"]))
        ds = self.read_lake(columns=read_cols)
        from functools import partial as _partial
        partials = ds.map_batches(
            _partial(_checksum_partials, columns=cols,
                     n_buckets=n_buckets),
            batch_format="pyarrow")
        rows = partials.take_all()              # bounded: n_buckets x blocks
        agg: dict[int, list[int]] = {}
        for r in rows:
            b = int(r["bucket"])
            e = agg.setdefault(b, [0, 0])
            e[0] += int(r["n_rows"])
            e[1] ^= int(r["xor_sig"])
        bs = sorted(agg)
        return pa.table({
            "bucket": pa.array(bs, pa.int64()),
            "n_rows": pa.array([agg[b][0] for b in bs], pa.int64()),
            "xor_sig": pa.array([agg[b][1] for b in bs], pa.int64())})


    # ------------------------------------------------------------------ #
    def optimize(self, keep_generations: int = 2) -> "dict[str, Any]":
        """ONE-SHOT MAINTENANCE (the lakehouse OPTIMIZE verb): pay down
        every deferred cost in dependency order — (1) settle in-flight
        background absorbs, (2) absorb remaining delta sidecars into
        their bases (exact accounting restored; read fan back to one
        file per partition), (3) vacuum part files and orphaned staging
        outside the keep window, (4) prune the outbox below the slowest
        registered consumer (skipped when no consumer is registered —
        never prune blindly). Idempotent: a second call reports zeros.
        This is the between-ingest-bursts maintenance window a fleet
        scheduler runs; each step is the same code path as its
        dedicated verb (drain_absorbs / compact_partitions / vacuum /
        prune_outbox), so OPTIMIZE adds policy, not machinery."""
        settled = self.drain_absorbs()
        compacted = self.compact_partitions()
        removed = self.vacuum(keep_generations=keep_generations)
        pruned = 0
        if os.path.isdir(self.outbox_dir):    # also on a maintenance
            # reopen, where emit_changelog wasn't passed
            hwms = [int(r["hwm"]) for r in self.consumer_hwms().values()]
            if hwms:
                pruned = self.prune_outbox(min(hwms) + 1)
        return {"settled_absorbs": settled,
                "compacted_partitions": compacted,
                "vacuumed_files": removed,
                "pruned_outbox_segments": pruned,
                "generation": (self.manifest.generation
                               if self.manifest else -1)}

    # ------------------------------------------------------------------ #
    def restore(self, generation: int) -> "dict[str, Any]":
        """POINT-IN-TIME RESTORE (the lakehouse RESTORE/flashback
        primitive): commit a NEW generation whose table state, schema,
        watermark and named offsets are a PAST generation's — the
        bad-wave rollback. One O(partitions) metadata commit: no file
        is copied or rewritten (the new manifest points at the target
        generation's immutable part files), history stays readable via
        ``manifest_at`` until vacuum, and because the watermark moves
        BACK with the manifest, a subsequent ``replay`` of the same log
        re-applies the rolled-back events through the normal fence
        (deterministic merge => re-converges; or replay a FIXED log to
        take a different path — the undo story for a poisoned wave).

        Raises ValueError if any part/delta file of the target
        generation fell outside ``vacuum``'s keep window. Reference
        anchor: aqueduct's only rollback is wipe-and-resync
        (NODE_REQUESTS bootstrap, SelfRegistrationTask.java:74-78);
        retained immutable state lets the lake restore in O(metadata)
        instead of re-shipping the whole log."""
        import copy as _copy
        src = self.manifest_at(generation)
        cur = self.manifest
        if src is None or cur is None:
            raise ValueError(f"generation {generation} is not available")
        missing = [rel for e in src.partitions.values()
                   for rel in _entry_files(e)
                   if not os.path.exists(self.store.abs(rel))]
        if missing:
            raise ValueError(
                f"cannot restore g{generation}: {len(missing)} part "
                f"file(s) vacuumed away, e.g. {missing[0]}")
        # in-flight background absorbs were computed against the
        # pre-restore basis — wait them out and drop them (the same
        # stale-basis hazard as the bootstrap wipe)
        self._drain_bg_for_reset()
        wave_id = f"restore-g{generation:06d}"
        lineage = list(cur.lineage) + [{
            "wave_id": wave_id, "lo": -1, "hi": src.watermark,
            "generation": cur.generation + 1,
            "restore_of": generation,
            "rolled_back_from": cur.generation,
        }]
        man = Manifest(
            generation=cur.generation + 1, watermark=src.watermark,
            wave_id=wave_id, schema_b64=src.schema_b64,
            num_partitions=src.num_partitions,
            partitions=_copy.deepcopy(src.partitions),
            partials=_copy.deepcopy(src.partials),
            lineage=lineage[-200:],
            named_offsets=dict(src.named_offsets),
            hour_max=dict(src.hour_max),
        )
        self.store.commit(man)
        self._cached_manifest = man
        self.num_partitions = src.num_partitions
        # hierarchy contract: the outbox must not keep serving
        # rolled-back waves — truncate segments past the restored
        # watermark, re-publish the watermark marker, and flag every
        # registered consumer for wipe-and-re-tail (a child may have
        # already applied events this lake just rolled back; bootstrap
        # is the only convergent remedy, same as the reference's
        # NODE_REQUESTS path)
        n_truncated = 0
        consumers: "list[str]" = []
        if os.path.isdir(self.outbox_dir):
            ob = self.outbox_dir
            for fn, (_, mx, *_) in list(self._segment_index(ob).items()):
                if mx > man.watermark:
                    os.remove(os.path.join(ob, fn))
                    self._seg_cache.pop((ob, fn), None)
                    n_truncated += 1
            self._publish_outbox_watermark()
            consumers = sorted(self.consumer_hwms())
            for cid in consumers:
                self.request_bootstrap(cid)
        return {"wave_id": wave_id, "generation": man.generation,
                "restored_generation": generation,
                "watermark": man.watermark,
                "outbox_segments_truncated": n_truncated,
                "consumers_rebootstrapped": consumers}


# Signature kernels live in state/checksums.py (single source of truth
# shared with the O(delta)-maintained LakeChecksumIndex); re-exported
# here for the engine's map_batches closure.
from ..state.checksums import checksum_partials as _checksum_partials  # noqa: E402
