"""CLI entry points: ``python -m aqueduct_core_ray.cli <cmd>``.

Commands (SURVEY.md §7.0; the `ray job submit` surface of the engine):

  replay     apply a change log to a lake (bootstrap + waves); running it
             again after a kill IS the resume path (same watermark fence);
             --bg-absorb runs absorbing rewrites off the critical path
  tail       continuously apply a growing log (child of an outbox)
  verify     integrity check of a committed lake: per-partition row
             counts + consistency sum vs the manifest (reference analog:
             PRAGMA integrity_check, SQLiteStorage.java:204-234)
  rebuild    re-derive flagged/corrupt partitions from log+seed
  retention  compact the log + GC old tombstones into a new log dir
             (reference D2, PostgresqlStorage.java:365-436)
  compact    absorb sidecar chains (--fold: chain-only, O(pending))
  diff       time-travel diff between two generations (--columns/--out
             exports a payload-carrying changefeed to parquet)
  clone      zero-copy branch of a lake (hardlinked part files)
  reshard    rewrite the lake at a new partition count — watermark,
             named offsets and tombstone fences carry over (cluster
             resize; tailing continues exactly-once)
  export     materialize the live table (optionally --generation /
             --columns) to plain parquet for engine-less consumers
  vacuum     GC part files outside the keep window
  get        partition-pruned point reads by doc_id
  dedup      online near-dup maintenance: --bootstrap seeds the token-
             shingle band index from the lake; default step matches the
             docs added/updated since the index watermark, appends
             them, and prints the matches (pipelines/online_dedup.py)
  status     manifest + consumer-lag summary
  migrate    schema-migration backfill (rename/drop payload columns)
  search     trigram-index substring search over a documents table
  checksum   per-bucket content signatures; --against compares two
             lakes in O(16) rows (exit 1 on divergence); --index keeps
             a maintained signature set fresh O(delta)
  restore    point-in-time rollback to a past generation (one metadata
             commit; truncates the outbox + re-bootstraps consumers)
  optimize   one-shot maintenance: settle absorbs, absorb sidecar
             debt, vacuum, prune outbox — idempotent
  sql        ad-hoc DuckDB console over the live lake view (ops scale)
  prune-outbox
             GC outbox segments below the slowest child's watermark
  bootstrap-wipe
             drop a lake entirely (reference S5 deleteAll,
             SQLiteStorage.java:253-264)

CLI owns the Ray session (guarded init); library code never calls
ray.init().
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def _init_ray() -> None:
    import ray
    if not ray.is_initialized():
        # RAY_ADDRESS=local (the default here) starts a fresh local
        # cluster; a real gcs address joins an existing one — which is
        # how `ray job submit` drives this CLI on a standing cluster
        addr = os.environ.get("RAY_ADDRESS", "local")
        kwargs = {}
        if addr == "local":
            kwargs["num_cpus"] = (
                int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)
            kwargs["include_dashboard"] = False
        ray.init(address=addr, logging_level="ERROR", **kwargs)
    import logging

    from ray.data.context import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def cmd_replay(args) -> int:
    _init_ray()
    from .pipelines.replay import CDCEngine
    if args.bg_absorb and args.strategy != "exchange":
        print(json.dumps({"ok": False, "error":
                          "--bg-absorb requires --strategy exchange"}))
        return 2
    eng = CDCEngine(args.lake, num_partitions=args.partitions,
                    merge_strategy=args.strategy,
                    bg_absorb=args.bg_absorb)
    if args.seed:
        print(json.dumps({"bootstrap": eng.bootstrap(args.seed)}))
    hi = args.watermark
    if hi is None:
        # honors the _WATERMARK publish marker (visibility gate) and
        # returns -1 on an empty log, unlike a raw footer/column max
        hi = eng.discover_watermark(args.log)
        if hi < 0:
            print(json.dumps({"ok": False, "error": "log is empty"}))
            return 1
    import numpy as np
    edges = np.linspace(eng.watermark if eng.watermark > 0 else 0, hi,
                        args.waves + 1).astype(int)
    bounds = [(int(edges[i]), int(edges[i + 1])) for i in range(args.waves)]
    for r in eng.replay(args.log, bounds):
        print(json.dumps(r))
    if eng.bg_absorb:
        n = eng.drain_absorbs()            # quiesce the async tail
        if n:
            print(json.dumps({"settled_absorbs": n}))
    return 0


def cmd_tail(args) -> int:
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=args.partitions,
                    bg_absorb=args.bg_absorb)
    if args.seed:
        print(json.dumps({"bootstrap": eng.bootstrap(args.seed)}))
    logs = args.log if isinstance(args.log, list) else [args.log]
    for r in eng.tail(logs if len(logs) > 1 else logs[0],
                      wave_size=args.wave_size,
                      poll_interval_s=args.poll_interval,
                      max_idle_polls=args.max_idle_polls,
                      poll_max_s=args.poll_max,
                      dead_after_s=args.dead_after,
                      failover_after=args.failover_after):
        print(json.dumps(r))
    if eng.bg_absorb:
        n = eng.drain_absorbs()            # quiesce the async tail
        if n:
            print(json.dumps({"settled_absorbs": n}))
    return 0


def cmd_verify(args) -> int:
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake)
    man = eng.manifest
    if man is None:
        print(json.dumps({"ok": False, "error": "no CURRENT manifest"}))
        return 1
    import pyarrow.parquet as pq
    bad = []
    total = 0
    for pid, p in man.partitions.items():
        # base file: physical rows vs the manifest's file_rows (equal to
        # logical rows when no sidecars exist; older manifests lack
        # file_rows and fall back to rows)
        expect_base = int(p.get("file_rows", p["rows"]))
        path = eng.store.abs(p["path"])
        if not os.path.exists(path):
            bad.append({"pid": pid, "error": "missing file"})
            continue
        rows = pq.read_metadata(path).num_rows
        if rows != expect_base:
            bad.append({"pid": pid, "manifest_rows": expect_base,
                        "file_rows": rows})
        for i, d in enumerate(p.get("deltas") or []):
            dp = eng.store.abs(d["path"])
            if not os.path.exists(dp):
                bad.append({"pid": pid, "delta": i,
                            "error": "missing delta file"})
                continue
            drows = pq.read_metadata(dp).num_rows
            if drows != int(d["rows"]):
                bad.append({"pid": pid, "delta": i,
                            "manifest_rows": int(d["rows"]),
                            "file_rows": drows})
        total += int(p["rows"])          # accounted as of last absorb
    # the checksum itself reads every partition — only meaningful (and
    # safe) when the file inventory already checks out. The same pass
    # counts exact live rows (partitions with pending sidecars have
    # stale manifest accounting by design — see _stage_sidecar); for a
    # sidecar-free lake the accounted and exact counts must agree, a
    # stats-integrity check on top of the file inventory.
    csum = rows_exact = None
    if not bad:
        csum, rows_exact = eng.consistency_stats()
        if not eng.dirty_pids() and rows_exact != total:
            bad.append({"error": "accounted rows != exact live rows",
                        "accounted": total, "exact": rows_exact})
    print(json.dumps({
        "ok": not bad, "generation": man.generation,
        "watermark": man.watermark, "partitions": len(man.partitions),
        "rows": rows_exact if rows_exact is not None else total,
        "rows_accounted": total,
        "consistency_sum": csum, "mismatches": bad,
    }))
    return 0 if not bad else 1


def cmd_rebuild(args) -> int:
    """CORRUPTION_RECOVERY (reference BootstrapService.java:37-88): splice
    freshly re-derived partitions into a new manifest generation. With
    --auto, rebuilds exactly the partitions `verify` flags (missing or
    row-count-mismatched files)."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=args.partitions)
    man = eng.manifest
    if man is None:
        print(json.dumps({"ok": False, "error": "no CURRENT manifest"}))
        return 1
    pids = list(args.partition or [])
    if args.auto:
        import pyarrow.parquet as pq

        def file_ok(path: str, rows: int) -> bool:
            try:
                return pq.read_metadata(path).num_rows == rows
            except OSError:
                return False

        for pid, p in man.partitions.items():
            ok = file_ok(eng.store.abs(p["path"]),
                         int(p.get("file_rows", p["rows"])))
            for d in (p.get("deltas") or []):
                ok = ok and file_ok(eng.store.abs(d["path"]),
                                    int(d["rows"]))
            if not ok:
                pids.append(int(pid))
    if not pids:
        print(json.dumps({"ok": True, "rebuilt": []}))
        return 0
    out = [eng.rebuild_partition(args.log, pid, seed=args.seed)
           for pid in sorted(set(pids))]
    print(json.dumps({"ok": True, "rebuilt": out}))
    return 0


def cmd_retention(args) -> int:
    _init_ray()
    import pyarrow as pa

    from .stages.retention import compact_log
    compact_ts = pa.scalar(args.compact_ts_us, pa.timestamp("us"))
    deletion_ts = (pa.scalar(args.deletion_ts_us, pa.timestamp("us"))
                   if args.deletion_ts_us is not None else None)
    min_hwm = (pa.scalar(args.min_consumer_hwm_ts_us, pa.timestamp("us"))
               if args.min_consumer_hwm_ts_us is not None else None)
    compact_log(args.log, args.out, compact_ts, deletion_ts,
                num_partitions=args.partitions,
                min_consumer_hwm_ts=min_hwm)
    print(json.dumps({"compacted_to": args.out}))
    return 0


def cmd_compact(args) -> int:
    """Absorb delta sidecars into base files (LSM background
    compaction) as one new manifest generation; ``--fold`` instead
    merges each chain into ONE sidecar without reading the base
    (O(pending), shortens the read-side merge fan)."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    if getattr(args, "fold", False):
        n = eng.fold_chains(args.partition or None)
        print(json.dumps({"ok": True, "folded_partitions": n}))
        return 0
    n = eng.compact_partitions(args.partition or None)
    print(json.dumps({"ok": True, "compacted_partitions": n}))
    return 0


def cmd_diff(args) -> int:
    """TIME-TRAVEL DIFF between two committed generations: per-change
    counts plus a bounded sample of changed doc_ids (the CDC consumer's
    "what changed since generation G" view; one raw task per CHANGED
    partition, untouched partitions skipped by manifest-entry
    identity)."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    cols = ([c.strip() for c in args.columns.split(",") if c.strip()]
            if args.columns else None)
    if cols and eng.manifest is not None:
        # the engine drops unknown payload columns silently (by-design
        # for programmatic callers); an export CLI must fail loudly
        # instead of shipping a feed missing a requested column
        missing = [c for c in cols if c not in eng.manifest.schema.names]
        if missing:
            print(json.dumps({"ok": False,
                              "error": f"unknown columns {missing}; "
                              f"lake has {eng.manifest.schema.names}"}))
            return 1
    if getattr(args, "before_image", False) and not cols:
        print(json.dumps({"ok": False,
                          "error": "--before-image requires --columns "
                                   "(which payload to envelope)"}))
        return 2
    try:
        ds = eng.diff_generations(args.from_gen, args.to_gen,
                                  payload_columns=cols,
                                  before_image=getattr(
                                      args, "before_image", False))
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}))
        return 1
    if args.out:
        if os.path.isdir(args.out) and os.listdir(args.out):
            print(json.dumps({"ok": False,
                              "error": f"--out {args.out} is not "
                              "empty"}))
            return 1
        # changefeed export: stream the diff (with payload) to parquet
        ds = ds.materialize()
        ds.write_parquet(args.out)
    counts: dict[str, int] = {}
    sample: list[dict] = []
    for batch in ds.iter_batches(batch_format="pyarrow"):
        for ch, n in zip(*_value_counts(batch.column("change"))):
            counts[ch] = counts.get(ch, 0) + n
        if len(sample) < args.sample:
            sample.extend(batch.slice(
                0, args.sample - len(sample)).to_pylist())
    print(json.dumps({"ok": True, "from": args.from_gen,
                      "to": (args.to_gen if args.to_gen is not None
                             else eng.manifest.generation),
                      "changed": counts, "sample": sample}))
    return 0


def _value_counts(col) -> tuple[list[str], list[int]]:
    import pyarrow.compute as pc
    vc = pc.value_counts(col)
    return ([v.as_py() for v in vc.field("values")],
            [c.as_py() for c in vc.field("counts")])


def cmd_get(args) -> int:
    """Point reads: live rows for the given doc_ids, touching only the
    hash partitions those keys map to (CDCEngine.get_docs) — the
    key-addressed read the doc_id partitioning exists for."""
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    cols = args.columns.split(",") if args.columns else None
    t = eng.get_docs(args.ids.split(","), columns=cols)
    print(json.dumps({"ok": True, "rows": t.num_rows,
                      "docs": t.to_pylist()}, default=str))
    return 0


def cmd_sql(args) -> int:
    """Operator console: ad-hoc DuckDB SQL over the LIVE lake view
    (tombstones excluded, sidecars merged, optional time travel via
    --generation). The lake materializes into the console process —
    this is the test/ops-scale workbench; at data scale use `export`
    (or the distributed query surface) instead."""
    _init_ray()
    import duckdb

    from .pipelines.replay import CDCEngine
    from .stages.exchange import collect_tables
    eng = CDCEngine(args.lake, num_partitions=None)
    try:
        ds = eng.read_lake(generation=args.generation)
    except ValueError as exc:          # vacuumed / unknown generation
        print(json.dumps({"ok": False, "error": str(exc)}))
        return 1
    import pyarrow as pa
    tabs = collect_tables(ds)
    lake = (pa.concat_tables(tabs, promote_options="default")
            if tabs else None)
    if lake is None:
        print(json.dumps({"ok": False, "error": "lake is empty"}))
        return 1
    con = duckdb.connect()
    con.register("lake", lake)
    try:
        out = con.execute(args.query).arrow()
    except Exception as exc:              # surface SQL errors as JSON
        print(json.dumps({"ok": False, "error": str(exc)}))
        return 1
    print(json.dumps({"ok": True, "rows": out.num_rows,
                      "columns": out.column_names,
                      "data": out.slice(0, args.limit).to_pylist()},
                     default=str))
    return 0


def cmd_optimize(args) -> int:
    """One-shot maintenance (CDCEngine.optimize): settle absorbs,
    absorb sidecar debt, vacuum, prune outbox to the slowest consumer."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    r = eng.optimize(keep_generations=args.keep)
    print(json.dumps({"ok": True, **r}))
    return 0


def cmd_restore(args) -> int:
    """Point-in-time restore (CDCEngine.restore): one metadata commit
    that rolls the lake back to a past generation; exit 1 if the target
    generation's files fell outside vacuum's keep window."""
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    try:
        r = eng.restore(args.to_generation)
    except ValueError as exc:
        print(json.dumps({"ok": False, "error": str(exc)}))
        return 1
    print(json.dumps({"ok": True, **r}))
    return 0


def cmd_checksum(args) -> int:
    """Sync-verification checksums (CDCEngine.checksum): per-bucket
    (n_rows, xor_sig) over the live lake; with --against, compare two
    lakes bucket-by-bucket and exit 1 on divergence — the O(buckets)
    parent/child convergence audit (ship 16 rows, not the table)."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    cols = args.columns.split(",") if args.columns else None
    eng = CDCEngine(args.lake, num_partitions=None)
    if args.index:
        # maintained path: O(delta) refresh off the before-image
        # changefeed instead of an O(lake) rescan
        from .state.checksums import LakeChecksumIndex
        idx = LakeChecksumIndex(eng, args.index, columns=cols)
        r = idx.refresh()
        mine = idx.signatures()
        # an existing index pins its column set at bootstrap; any
        # comparison below must use THOSE columns, not --columns, or
        # two content-identical lakes would report divergence
        st = idx._load_state()
        if st is not None:
            cols = st["columns"]
        if not args.against:
            print(json.dumps({"ok": True, "lake": args.lake,
                              "refresh": r, "columns": cols,
                              "buckets": mine.to_pylist()}))
            return 0
    else:
        mine = eng.checksum(columns=cols)
    if not args.against:
        print(json.dumps({"ok": True, "lake": args.lake,
                          "buckets": mine.to_pylist()}))
        return 0
    theirs = CDCEngine(args.against,
                       num_partitions=None).checksum(columns=cols)
    a = {r["bucket"]: (r["n_rows"], r["xor_sig"])
         for r in mine.to_pylist()}
    b = {r["bucket"]: (r["n_rows"], r["xor_sig"])
         for r in theirs.to_pylist()}
    diverged = sorted(k for k in (a.keys() | b.keys())
                      if a.get(k) != b.get(k))
    print(json.dumps({"ok": not diverged, "lake": args.lake,
                      "against": args.against,
                      "diverged_buckets": diverged}))
    return 0 if not diverged else 1


def cmd_dedup(args) -> int:
    """Online near-dup maintenance against a persisted band index:
    --bootstrap seeds from the CURRENT lake; otherwise one
    online_dedup_step over the generations since the index watermark."""
    from .pipelines.online_dedup import (
        bootstrap_dedup_index,
        online_dedup_step,
    )
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    if args.bootstrap:
        n = bootstrap_dedup_index(eng, args.index)
        print(json.dumps({"ok": True, "band_rows": n,
                          "generation": eng.manifest.generation}))
        return 0
    matches, g_from, g_to = online_dedup_step(
        eng, args.index, min_est_pct=args.min_est_pct)
    print(json.dumps({"ok": True, "from_generation": g_from,
                      "to_generation": g_to,
                      "n_matches": matches.num_rows,
                      "matches": matches.to_pylist()}, default=str))
    return 0


def cmd_vacuum(args) -> int:
    """Garbage-collect part files outside the newest --keep generations
    (every kept manifest stays fully readable — the time-travel
    retention window; see LakeStore.vacuum)."""
    from .state.manifest import LakeStore
    store = LakeStore(args.lake)
    if store.current_manifest() is None:
        print(json.dumps({"ok": False, "error": "no CURRENT manifest"}))
        return 1
    # the CLI runs between engine sessions (single-writer contract), so
    # every _staged/ entry is an orphan from a dead writer: sweep them
    removed = store.vacuum(keep_generations=args.keep, staged_keep=set())
    print(json.dumps({"ok": True, "removed_files": removed,
                      "keep_generations": args.keep}))
    return 0


def cmd_clone(args) -> int:
    """ZERO-COPY BRANCH: new lake root at this lake's state as of
    --generation (default CURRENT); part files hardlinked, O(partitions)
    metadata. The clone replays further waves independently."""
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    try:
        dst = eng.clone_lake(args.dst, args.generation)
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}))
        return 1
    m = dst.manifest
    print(json.dumps({"ok": True, "dst": args.dst,
                      "watermark": m.watermark,
                      "partitions": len(m.partitions)}))
    return 0


def cmd_reshard(args) -> int:
    """RESHARD: rewrite the lake into a new root at a different
    partition count (cluster resize). Watermark, named offsets and
    conflict state (tombstone fences) carry over, so a tail against
    the same log continues exactly-once in the new layout."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    if eng.manifest is not None:
        # the conflict policy is not recoverable from the manifest; a
        # non-default policy leaves its marks on the schema (last_op
        # fences / a last_<order> column). Resharding such a lake under
        # the default LWW policy would merge sidecars with the wrong
        # winner and drop every tombstone fence — refuse.
        marks = [n for n in eng.manifest.schema.names
                 if n.startswith("last_") and n != "last_lsn"]
        if marks:
            print(json.dumps({
                "ok": False,
                "error": f"lake schema carries {marks}: built under a "
                         "non-default conflict policy, which the CLI "
                         "cannot reconstruct — reshard programmatically "
                         "via CDCEngine(conflict=...).reshard_lake()"}))
            return 1
    try:
        dst = eng.reshard_lake(args.dst, args.partitions)
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}))
        return 1
    m = dst.manifest
    print(json.dumps({"ok": True, "dst": args.dst,
                      "watermark": m.watermark,
                      "partitions": m.num_partitions,
                      "rows": sum(int(p["rows"])
                                  for p in m.partitions.values())}))
    return 0


def cmd_migrate(args) -> int:
    """SCHEMA MIGRATION backfill: rewrite the lake with payload columns
    renamed / dropped (CDCEngine.migrate_lake — same atomic wave
    machinery as reshard; watermark and state carry over)."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    if eng.manifest is not None:
        marks = [n for n in eng.manifest.schema.names
                 if n.startswith("last_") and n != "last_lsn"]
        if marks:
            print(json.dumps({
                "ok": False,
                "error": f"lake schema carries {marks}: built under a "
                         "non-default conflict policy — migrate "
                         "programmatically via "
                         "CDCEngine(conflict=...).migrate_lake()"}))
            return 1
    rename = {}
    for spec in (args.rename or []):
        if ":" not in spec:
            print(json.dumps({"ok": False,
                              "error": f"--rename wants old:new, "
                                       f"got {spec!r}"}))
            return 1
        old_c, new_c = spec.split(":", 1)
        rename[old_c] = new_c
    try:
        dst = eng.migrate_lake(args.dst, num_partitions=args.partitions,
                               rename=rename, drop=args.drop or [])
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}))
        return 1
    m = dst.manifest
    print(json.dumps({"ok": True, "dst": args.dst,
                      "watermark": m.watermark,
                      "columns": list(m.schema.names)}))
    return 0


def cmd_export(args) -> int:
    """EXPORT: materialize the live table (tombstones excluded, schema
    reconciled, optionally as of --generation) to a plain parquet
    directory — the hand-off format for consumers without the engine.
    Streams partition-parallel; never gathers rows on the driver."""
    _init_ray()
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    cols = ([c.strip() for c in args.columns.split(",") if c.strip()]
            if args.columns else None)
    try:
        ds = eng.read_lake(columns=cols, generation=args.generation)
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}))
        return 1
    if os.path.isdir(args.out) and os.listdir(args.out):
        # write_parquet APPENDS uuid-named files; a reused directory
        # would silently mix exports (and inflate the footer count)
        print(json.dumps({"ok": False,
                          "error": f"--out {args.out} is not empty"}))
        return 1
    # stream the write (no mid-pipeline materialize — the lake must
    # never be held whole in the object store); row count comes from
    # the written files' footers, metadata-only
    cols_out = ds.schema().names
    ds.write_parquet(args.out)
    import pyarrow.parquet as pq
    rows = sum(pq.read_metadata(os.path.join(args.out, fn)).num_rows
               for fn in os.listdir(args.out)
               if fn.endswith(".parquet"))
    print(json.dumps({"ok": True, "out": args.out, "rows": rows,
                      "columns": cols_out}))
    return 0


def cmd_status(args) -> int:
    """Operator view of a lake: manifest summary, pipe state, registered
    consumers with lag (reference: the registry's node summary +
    PipeState surface)."""
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    man = eng.manifest
    if man is None:
        print(json.dumps({"ok": False, "error": "no CURRENT manifest"}))
        return 1
    rows = sum(int(p["rows"]) for p in man.partitions.values())
    nbytes = sum(int(p["bytes"]) for p in man.partitions.values())
    pending = sum(int(d["rows"]) for p in man.partitions.values()
                  for d in (p.get("deltas") or []))
    max_chain = max((len(p.get("deltas") or [])
                     for p in man.partitions.values()), default=0)
    out = {
        "ok": True, "generation": man.generation,
        "watermark": man.watermark, "wave_id": man.wave_id,
        "partitions": len(man.partitions), "rows": rows, "bytes": nbytes,
        "pending_sidecar_rows": pending,
        "max_sidecar_chain": max_chain,   # compact --fold shortens this
        "last_waves": man.lineage[-3:],
        "consumers": eng.chain_status(stale_after_s=args.stale_after),
    }
    if getattr(args, "detail", False):
        # capacity-planning view: per-partition size skew + sidecar
        # chain depth distribution (hot partitions / compaction debt)
        sizes = sorted(int(p["bytes"]) for p in man.partitions.values())
        chains = [len(p.get("deltas") or [])
                  for p in man.partitions.values()]
        depth_hist: dict = {}
        for c in chains:
            depth_hist[str(c)] = depth_hist.get(str(c), 0) + 1
        top = sorted(man.partitions.items(),
                     key=lambda kv: -int(kv[1]["bytes"]))[:5]
        p50 = sizes[len(sizes) // 2] if sizes else 0
        out["detail"] = {
            "bytes_min": sizes[0] if sizes else 0,
            "bytes_p50": p50,
            "bytes_max": sizes[-1] if sizes else 0,
            "skew_max_over_p50": (round(sizes[-1] / p50, 2)
                                  if p50 else 0),
            "chain_depth_hist": depth_hist,
            "largest_partitions": [
                {"pid": pid, "bytes": int(e["bytes"]),
                 "rows": int(e["rows"]),
                 "chain": len(e.get("deltas") or [])}
                for pid, e in top],
            "staged_dirs": (sorted(os.listdir(
                os.path.join(args.lake, "_staged")))
                if os.path.isdir(os.path.join(args.lake, "_staged"))
                else []),
        }
    print(json.dumps(out))
    return 0


def cmd_prune_outbox(args) -> int:
    from .pipelines.replay import CDCEngine
    eng = CDCEngine(args.lake, num_partitions=None)
    try:
        removed = eng.prune_outbox(args.below_lsn,
                                   min_child_hwm=args.min_child_hwm)
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}))
        return 1
    print(json.dumps({"ok": True, "removed": removed}))
    return 0


def cmd_register(args) -> int:
    """Upsert this node in the root lake's registry and print the
    follow list its tail should use (J5; see state/registry.py)."""
    from .state.registry import NodeRegistry
    reg = NodeRegistry(args.root, args.root_outbox
                       or os.path.join(args.root, "outbox"),
                       fanout=args.fanout,
                       dead_after_s=args.dead_after)
    follow = reg.register(args.node_id, args.outbox,
                          location=args.location,
                          status=getattr(args, "status", "ok"),
                          generation=getattr(args, "generation",
                                             "strategic"))
    print(json.dumps({"ok": True, "node_id": args.node_id,
                      "follow": follow}))
    return 0


def cmd_registry_tree(args) -> int:
    """Print the current live hierarchy (O3 sort + balanced tree)."""
    from .state.registry import NodeRegistry
    reg = NodeRegistry(args.root, args.root_outbox
                       or os.path.join(args.root, "outbox"),
                       fanout=args.fanout,
                       dead_after_s=args.dead_after)
    print(json.dumps({"ok": True, "tree": reg.tree(),
                      "nodes": reg.nodes()}))
    return 0


def cmd_search(args) -> int:
    """Index-accelerated substring search. Two modes:
    --sf-dir: static documents table (one-time trigram index, reused).
    --lake:   LIVE lake column via the CDC-maintained LakeTrigramIndex
              (refresh reads only the changefeed since the indexed
              generation, then the query verifies against current
              rows)."""
    if not args.lake and not args.sf_dir:
        print(json.dumps({"ok": False,
                          "error": "one of --sf-dir or --lake is "
                                   "required"}))
        return 2
    _init_ray()
    needles = tuple(args.needle)
    if args.lake:
        from .functions.search import LakeTrigramIndex
        from .pipelines.replay import CDCEngine
        eng = CDCEngine(args.lake, num_partitions=None)
        idx_dir = args.index_root or os.path.join(args.lake, "_trigram")
        idx = LakeTrigramIndex(eng, idx_dir, column=args.column)
        r = idx.refresh()
        t = idx.search(needles)
        out = {}
        for n, d in zip(t.column("needle").to_pylist(),
                        t.column("doc_id").to_pylist()):
            out.setdefault(n, []).append(d)
        print(json.dumps({"ok": True, "refresh": r,
                          "matches": {n: out.get(n, [])
                                      for n in needles}}))
        return 0
    from .functions.search import substring_search
    df = (substring_search(args.sf_dir, needles=needles,
                           index_root=args.index_root)
          .to_pandas().sort_values(["needle", "doc_id"]))
    out = {n: [int(d) for d in g.doc_id]
           for n, g in df.groupby("needle")}
    print(json.dumps({"ok": True,
                      "matches": {n: out.get(n, []) for n in needles}}))
    return 0


def cmd_bootstrap_wipe(args) -> int:
    if not os.path.exists(os.path.join(args.lake, "CURRENT")) \
            and not args.force:
        print(json.dumps({"ok": False,
                          "error": "not a lake root (no CURRENT); "
                                   "use --force to wipe anyway"}))
        return 1
    shutil.rmtree(args.lake, ignore_errors=True)
    print(json.dumps({"ok": True, "wiped": args.lake}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="aqueduct_core_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("replay", help="apply a change log (also: resume)")
    r.add_argument("--log", required=True)
    r.add_argument("--lake", required=True)
    r.add_argument("--seed")
    r.add_argument("--partitions", type=int, default=None,
                   help="default: adopt the lake's committed count (64 if new)")
    r.add_argument("--waves", type=int, default=4)
    r.add_argument("--watermark", type=int,
                   help="highest lsn to apply (default: max in log)")
    r.add_argument("--bg-absorb", action=argparse.BooleanOptionalAction,
                   dest="bg_absorb", default=None,
                   help="absorbing rewrites run off the wave critical "
                        "path (LSM background compaction); default ON "
                        "for the exchange strategy — --no-bg-absorb for "
                        "strictly synchronous waves")
    r.add_argument("--strategy", choices=("exchange", "groupby"),
                   default="exchange")
    r.set_defaults(fn=cmd_replay)

    tl = sub.add_parser("tail", help="continuously apply a growing log")
    tl.add_argument("--log", required=True, nargs="+",
                    help="parent log/outbox; several paths form the "
                         "ordered FOLLOW LIST (failover walks it when "
                         "the current parent's heartbeat goes stale)")
    tl.add_argument("--lake", required=True)
    tl.add_argument("--seed")
    tl.add_argument("--partitions", type=int, default=None)
    tl.add_argument("--wave-size", type=int, default=1_000_000)
    tl.add_argument("--poll-interval", type=float, default=0.5)
    tl.add_argument("--poll-max", type=float, default=8.0,
                    help="idle backoff cap (exponential from "
                         "--poll-interval)")
    tl.add_argument("--max-idle-polls", type=int, default=3)
    tl.add_argument("--dead-after", type=float, default=30.0,
                    help="parent heartbeat age that counts as dead")
    tl.add_argument("--failover-after", type=int, default=2,
                    help="consecutive dead idle polls before re-pointing")
    tl.add_argument("--bg-absorb", action=argparse.BooleanOptionalAction,
                    dest="bg_absorb", default=None,
                    help="absorbing rewrites run off the wave critical "
                         "path (LSM background compaction); default ON "
                         "— --no-bg-absorb for strictly synchronous "
                         "waves")
    tl.set_defaults(fn=cmd_tail)

    v = sub.add_parser("verify", help="integrity-check a committed lake")
    v.add_argument("--lake", required=True)
    v.set_defaults(fn=cmd_verify)

    rb = sub.add_parser("rebuild",
                        help="re-derive corrupted partitions from the log")
    rb.add_argument("--log", required=True)
    rb.add_argument("--lake", required=True)
    rb.add_argument("--seed", help="bootstrap seed parquet, if the lake "
                                   "was seeded outside the log")
    rb.add_argument("--partition", type=int, action="append",
                    help="partition id to rebuild (repeatable)")
    rb.add_argument("--auto", action="store_true",
                    help="rebuild every partition verify flags")
    rb.add_argument("--partitions", type=int, default=None)
    rb.set_defaults(fn=cmd_rebuild)

    t = sub.add_parser("retention", help="compact log + GC tombstones")
    t.add_argument("--log", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--compact-ts-us", type=int, required=True)
    t.add_argument("--deletion-ts-us", type=int)
    t.add_argument("--min-consumer-hwm-ts-us", type=int,
                   help="slowest consumer's applied ts; tombstone GC "
                        "refuses to pass it (resurrection guard)")
    t.add_argument("--partitions", type=int, default=64)
    t.set_defaults(fn=cmd_retention)

    cp = sub.add_parser("compact",
                        help="absorb delta sidecars into base files")
    cp.add_argument("--lake", required=True)
    cp.add_argument("--partition", type=int, action="append")
    cp.add_argument("--fold", action="store_true",
                    help="fold chains into one sidecar each "
                         "(O(pending), base untouched) instead of "
                         "absorbing into the base")
    cp.set_defaults(fn=cmd_compact)

    df = sub.add_parser("diff",
                        help="time-travel diff between two generations")
    df.add_argument("--lake", required=True)
    df.add_argument("--from-gen", type=int, required=True,
                    dest="from_gen")
    df.add_argument("--to-gen", type=int, default=None, dest="to_gen",
                    help="defaults to CURRENT")
    df.add_argument("--sample", type=int, default=10,
                    help="changed rows to include in the output")
    df.add_argument("--columns", default=None,
                    help="comma-separated lake columns to attach as "
                         "changefeed payload (new-generation values; "
                         "null for deleted docs)")
    df.add_argument("--out", default=None,
                    help="write the (payload-carrying) changefeed to "
                         "this parquet directory")
    df.add_argument("--before-image", action="store_true",
                    dest="before_image",
                    help="also attach <col>_old before-images "
                         "(Debezium before/after envelope)")
    df.set_defaults(fn=cmd_diff)

    g = sub.add_parser("get", help="point-read live rows by doc_id")
    g.add_argument("--lake", required=True)
    g.add_argument("--ids", required=True,
                   help="comma-separated doc_ids")
    g.add_argument("--columns", default=None,
                   help="comma-separated column subset")
    g.set_defaults(fn=cmd_get)

    sq = sub.add_parser("sql",
                        help="ad-hoc DuckDB SQL over the live lake "
                             "view (table name: lake); ops/test scale")
    sq.add_argument("--lake", required=True)
    sq.add_argument("--query", required=True)
    sq.add_argument("--generation", type=int, default=None,
                    help="time-travel: query a past generation")
    sq.add_argument("--limit", type=int, default=100,
                    help="max rows printed (default 100)")
    sq.set_defaults(fn=cmd_sql)

    op = sub.add_parser("optimize",
                        help="one-shot maintenance: settle absorbs, "
                             "absorb sidecars, vacuum, prune outbox")
    op.add_argument("--lake", required=True)
    op.add_argument("--keep", type=int, default=2,
                    help="generations kept readable (default 2)")
    op.set_defaults(fn=cmd_optimize)

    rs = sub.add_parser("restore",
                        help="roll the lake back to a past generation "
                             "(O(partitions) metadata commit)")
    rs.add_argument("--lake", required=True)
    rs.add_argument("--to-generation", type=int, required=True,
                    dest="to_generation")
    rs.set_defaults(fn=cmd_restore)

    ck = sub.add_parser("checksum",
                        help="per-bucket content signatures; --against "
                             "compares two lakes (exit 1 on divergence)")
    ck.add_argument("--lake", required=True)
    ck.add_argument("--against", default=None,
                    help="second lake to compare bucket signatures with")
    ck.add_argument("--columns", default=None,
                    help="comma-separated signature columns "
                         "(default: all lake columns)")
    ck.add_argument("--index", default=None,
                    help="maintained-signature dir: O(delta) changefeed "
                         "refresh instead of a full lake rescan")
    ck.set_defaults(fn=cmd_checksum)

    dd = sub.add_parser("dedup",
                        help="online near-dup index maintenance "
                             "(--bootstrap to seed)")
    dd.add_argument("--lake", required=True)
    dd.add_argument("--index", required=True)
    dd.add_argument("--bootstrap", action="store_true")
    dd.add_argument("--min-est-pct", type=int, default=50)
    dd.set_defaults(fn=cmd_dedup)

    vc = sub.add_parser("vacuum",
                        help="GC part files outside the keep window")
    vc.add_argument("--lake", required=True)
    vc.add_argument("--keep", type=int, default=2,
                    help="generations kept fully readable (default 2)")
    vc.set_defaults(fn=cmd_vacuum)

    cl = sub.add_parser("clone",
                        help="zero-copy branch of a lake (hardlinks)")
    cl.add_argument("--lake", required=True)
    cl.add_argument("--dst", required=True)
    cl.add_argument("--generation", type=int, default=None,
                    help="source generation (default CURRENT)")
    cl.set_defaults(fn=cmd_clone)

    rs = sub.add_parser("reshard",
                        help="rewrite the lake at a new partition count "
                             "(watermark and offsets carry over)")
    rs.add_argument("--lake", required=True)
    rs.add_argument("--dst", required=True)
    rs.add_argument("--partitions", type=int, required=True)
    rs.set_defaults(fn=cmd_reshard)

    ex = sub.add_parser("export",
                        help="materialize the live table to plain "
                             "parquet (no engine needed to read it)")
    ex.add_argument("--lake", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--columns", default=None,
                    help="comma-separated column subset")
    ex.add_argument("--generation", type=int, default=None,
                    help="export AS OF this generation (time travel)")
    ex.set_defaults(fn=cmd_export)

    s = sub.add_parser("status", help="manifest + consumer-lag summary")
    s.add_argument("--lake", required=True)
    s.add_argument("--stale-after", type=float, default=300.0)
    s.add_argument("--detail", action="store_true",
                   help="per-partition size skew + sidecar-chain "
                        "depth histogram (capacity planning)")
    s.set_defaults(fn=cmd_status)

    po = sub.add_parser("prune-outbox",
                        help="GC outbox segments below an lsn (guarded "
                             "by registered consumer HWMs)")
    po.add_argument("--lake", required=True)
    po.add_argument("--below-lsn", type=int, required=True)
    po.add_argument("--min-child-hwm", type=int,
                    help="explicit override; default derives from "
                         "registered consumers")
    po.set_defaults(fn=cmd_prune_outbox)

    mg = sub.add_parser("migrate",
                        help="schema-migration backfill: rename/drop "
                             "payload columns into a new lake root")
    mg.add_argument("--lake", required=True)
    mg.add_argument("--dst", required=True)
    mg.add_argument("--partitions", type=int, default=None)
    mg.add_argument("--rename", action="append", metavar="OLD:NEW")
    mg.add_argument("--drop", action="append", metavar="COL")
    mg.set_defaults(fn=cmd_migrate)

    se = sub.add_parser("search",
                        help="trigram-index substring search over "
                             "documents.parquet")
    se.add_argument("--sf-dir", default=None)
    se.add_argument("--lake", default=None,
                    help="search a LIVE lake column via the "
                         "CDC-maintained index instead of --sf-dir")
    se.add_argument("--column", default="data")
    se.add_argument("--needle", action="append", required=True,
                    help="substring (>=3 chars); repeatable")
    se.add_argument("--index-root", default=None)
    se.set_defaults(fn=cmd_search)

    w = sub.add_parser("bootstrap-wipe", help="delete a lake root")
    w.add_argument("--lake", required=True)
    w.add_argument("--force", action="store_true")
    w.set_defaults(fn=cmd_bootstrap_wipe)

    for name, fn, hlp in (
            ("register", cmd_register,
             "upsert this node in the hierarchy registry and print "
             "its follow list"),
            ("registry-tree", cmd_registry_tree,
             "print the live hierarchy tree")):
        rg = sub.add_parser(name, help=hlp)
        rg.add_argument("--root", required=True,
                        help="root (cloud) lake directory holding the "
                             "registry")
        rg.add_argument("--root-outbox", default=None,
                        help="follow-list terminator (default "
                             "<root>/outbox)")
        rg.add_argument("--fanout", type=int, default=2)
        rg.add_argument("--dead-after", type=float, default=30.0)
        if name == "register":
            rg.add_argument("--node-id", required=True)
            rg.add_argument("--outbox", required=True,
                            help="this node's own outbox path")
            rg.add_argument("--location", default="")
            rg.add_argument("--status", default="ok",
                            choices=["ok", "following", "initialising",
                                     "pending", "offline"],
                            help="tree-sort tier: degraded statuses "
                                 "sink toward leaf positions")
            rg.add_argument("--generation", default="strategic",
                            choices=["strategic", "legacy"])
        rg.set_defaults(fn=fn)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
