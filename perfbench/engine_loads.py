"""The wave-path workload ``catchup_tail``: a till that comes online.

Phase 1, catch-up (closed loop): a seed lake catches up on a
pre-generated log in one wave, drain_absorbs included, is restored to
generation 0 and catches up again, for a share of the run's seconds.
Phase 2, tail (open loop): a publisher process renames segments into a
root log at a fixed offered rate; the client takes a turn as soon as
a segment it lacks is due (back to back while behind): a tail() of a
parent (tails the root log, re-serves it as an outbox), a tail() of a
child (tails the parent's outbox), then seeded get_docs point lookups
on the child.

Only public entry points are driven (CDCEngine, LakeStore); per-wave
phases come from the telemetry the engine writes to <lake>/metrics.jsonl.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .common import WORK, RssSampler, dir_bytes, median, pct, setup_times

P = 16                   # hash partitions of every lake
LAKE_COLS = ["doc_id", "tokens", "n_tok", "source", "last_lsn"]
SEED_DOCS = 20_000       # every lake starts from the same seed lake
CATCHUP_EVENTS = 150_000
CATCHUP_SHARE = 0.25     # of the run's seconds; the tail gets the rest
# 2 segments/s. With Ray on one CPU a tail wave takes ~0.2-0.4 s, and
# tail() returns only after a poll that finds nothing new: segments due
# more often than that keep the parent's tail() from returning and starve
# the child (at 6.25 segments/s leaf p90 reached 9-19 s). So an 18 s tail
# gives ~36 freshness samples and its p90 has ~4 beyond it, not 10.
SEG_EVENTS, TAIL_RATE = 500, 1_000
LOOKUPS_PER_TURN = 8
POLL_LAG_S = 0.01        # a turn starts this long after its segment is due
DRAIN_DEADLINE_S = 60.0


# ----------------------------------------------------------------- oracle
def lww_oracle(seed: pa.Table, events: pa.Table) -> pa.Table:
    """Live rows after applying ``events`` to ``seed`` by last-writer-wins
    on lsn (seed rows count as lsn 0 upserts), sorted by doc_id."""
    from aqueduct_core_ray.schema import OP_UPSERT
    n = seed.num_rows
    seed_ev = pa.table({
        "doc_id": seed["doc_id"], "tokens": seed["tokens"],
        "n_tok": seed["n_tok"], "source": seed["source"],
        "lsn": pa.array(np.zeros(n, np.int64)),
        "op": pa.array(np.full(n, OP_UPSERT, np.int8))})
    ev = pa.concat_tables([seed_ev, events.select(seed_ev.column_names)
                           .cast(seed_ev.schema)])
    order = pc.sort_indices(ev, [("doc_id", "ascending"),
                                 ("lsn", "ascending")])
    doc = ev["doc_id"].take(order).to_numpy(zero_copy_only=False)
    last = np.ones(len(doc), bool)
    last[:-1] = doc[1:] != doc[:-1]
    win = ev.take(pc.array_take(order, pa.array(np.flatnonzero(last))))
    win = win.filter(pc.equal(win["op"], OP_UPSERT))
    return (win.rename_columns([c if c != "lsn" else "last_lsn"
                                for c in win.column_names])
            .select(LAKE_COLS))


def check_lake(eng, want: pa.Table) -> list[str]:
    """Problems found comparing a lake with the oracle's live rows."""
    problems = []
    s, rows = eng.consistency_stats()
    want_sum = int(pc.sum(want["last_lsn"]).as_py() or 0)
    if rows != want.num_rows:
        problems.append(f"{eng.store.root}: rows {rows} != {want.num_rows}")
    if s != want_sum:
        problems.append(f"{eng.store.root}: consistency sum {s} != "
                        f"{want_sum}")
    got = eng.lake_table().select(LAKE_COLS).cast(want.schema)
    if not got.equals(want):
        problems.append(f"{eng.store.root}: live rows differ from oracle")
    return problems


# -------------------------------------------------------------- telemetry
def read_metrics(lake: str) -> list[dict]:
    path = os.path.join(lake, "metrics.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def wave_rows(lake: str) -> list[dict]:
    return [r for r in read_metrics(lake)
            if "wave_id" in r and r["wave_id"] != "bootstrap"]


def lake_disk(lake: str) -> dict[str, int]:
    out = {k: dir_bytes(os.path.join(lake, d)) for k, d in
           (("parts", "parts"), ("outbox", "outbox"),
            ("staged", "_staged"), ("manifests", "manifests"))}
    m = os.path.join(lake, "metrics.jsonl")
    out["metrics"] = os.path.getsize(m) if os.path.exists(m) else 0
    return out


def install_engine_tracing(tracer) -> None:
    """Spans around the engine's public calls; each span notes the lake
    root it ran on (apply_wave also its wave_id, load_partition_table the
    number of delta sidecars it merged on read)."""
    from aqueduct_core_ray.pipelines.replay import CDCEngine
    from aqueduct_core_ray.stages import merge_apply
    from aqueduct_core_ray.state.manifest import LakeStore

    def engine_root(a, k, r):
        return a[0].store.root

    def store_root(a, k, r):
        return a[0].root

    def wave(a, k, r):
        return (a[0].store.root, r.get("wave_id"))

    for m in ("bootstrap", "replay", "tail", "drain_absorbs", "get_docs",
              "checksum"):
        tracer.wrap(CDCEngine, m, f"engine.{m}", engine_root)
    tracer.wrap(CDCEngine, "apply_wave", "engine.apply_wave", wave)
    tracer.wrap(LakeStore, "commit", "manifest.commit", store_root)
    tracer.wrap(LakeStore, "promote_staged", "manifest.promote", store_root)
    tracer.wrap(merge_apply, "load_partition_table", "load_partition_table",
                lambda a, k, r: len(a[1].get("deltas") or []))


def engine_layers(tracer, lakes: dict[str, str], log_bytes: int,
                  parts_before: int) -> dict[str, float]:
    """Per-layer numbers of the wave path on ``lakes`` ('root' and maybe
    'leaf') from spans + metrics.jsonl. write_amp is the root lake's part
    bytes written per log byte it applied."""
    roots = set(lakes.values())

    def spans(name):
        return [s for s in tracer.spans if s[0] == name and s[4] is not None
                and (s[4][0] if isinstance(s[4], tuple) else s[4]) in roots]

    def durations(name):
        return [s[2] - s[1] for s in spans(name)]

    rows = {k: wave_rows(v) for k, v in lakes.items()}
    waves = [r for rs in rows.values() for r in rs]
    polls = [r for lake in roots for r in read_metrics(lake) if r.get("poll")]
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    driver, cover = [], []
    # the k-th applied wave of a lake wrote its k-th metrics row (a wave
    # id repeats when a restored lake re-applies the same log)
    pairs = []
    for node, lake in lakes.items():
        applied = [s for s in spans("engine.apply_wave")
                   if s[4][0] == lake and s[4][1] is not None]
        pairs += zip(applied, rows[node])
    for s, r in pairs:
        inner = sum(c[2] - c[1] for c in tracer.children_of(index[id(s)])
                    if c[0] in ("manifest.commit", "manifest.promote"))
        wall = s[2] - s[1]
        phases = float(r.get("scan_s", 0)) + float(r.get("merge_s", 0)) \
            + inner
        driver.append(wall - phases)
        cover.append(phases / wall if wall > 0 else 0.0)
    launched = sum(int(r.get("bg_launched", 0)) for r in waves)
    absorbed = sum(int(r.get("bg_absorbed", 0)) for r in waves)
    outbox = os.path.join(lakes["root"], "outbox")
    segs = ([f for f in os.listdir(outbox) if f.endswith(".parquet")]
            if os.path.isdir(outbox) else [])
    disk = {k: 0 for k in ("parts", "outbox", "staged", "manifests",
                           "metrics")}
    for lake in roots:
        for k, v in lake_disk(lake).items():
            disk[k] += v
    with open(os.path.join(lakes["root"], "CURRENT")) as f:
        man = os.path.join(lakes["root"], "manifests", f.read().strip())
    deltas = tracer.notes("load_partition_table")
    out = {
        "replay.wave_s_p50": median([float(r["wall_s"]) for r in waves]),
        "replay.driver_s": median(driver),
        "replay.phase_cover": median(cover),
        "replay.waves_root": len(rows["root"]),
        "replay.waves_leaf": len(rows.get("leaf", [])),
        "replay.events_per_wave_p50": median(
            [int(r["events_applied"]) for r in waves]),
        "replay.polls": len(polls),
        "replay.idle_polls": sum(1 for r in polls if r.get("idle_polls")),
        "replay.lag_events_max": max(
            [int(r.get("lag_events", 0)) for r in polls], default=0),
        "replay.outbox_segments": len(segs),
        "replay.outbox_mb": dir_bytes(outbox) / 2**20,
        "merge_apply.scan_s": median([float(r.get("scan_s", 0))
                                      for r in waves]),
        "merge_apply.merge_s": median([float(r.get("merge_s", 0))
                                       for r in waves]),
        "merge_apply.full_parts": sum(int(r.get("full_parts", 0))
                                      for r in waves),
        "merge_apply.sidecar_parts": sum(int(r.get("sidecar_parts", 0))
                                         for r in waves),
        "merge_apply.chain_parts": sum(int(r.get("chain_parts", 0))
                                       for r in waves),
        "merge_apply.bg_launched": launched,
        "merge_apply.bg_absorbed": absorbed,
        "merge_apply.absorb_adopt_ratio": absorbed / launched
        if launched else 0.0,
        "merge_apply.drain_s": median(durations("engine.drain_absorbs")),
        "merge_apply.partition_load_s_p50": median(tracer.durations(
            "load_partition_table")),
        "merge_apply.deltas_per_lookup": float(np.mean(deltas))
        if deltas else 0.0,
        "manifest.commit_s": median(durations("manifest.commit")),
        "manifest.promote_s": median(durations("manifest.promote")),
        "manifest.json_kb": os.path.getsize(man) / 1024,
        "manifest.write_amp": (lake_disk(lakes["root"])["parts"]
                               - parts_before) / log_bytes,
    }
    for k, v in disk.items():
        out[f"manifest.disk_mb.{k}"] = v / 2**20
    return out


# the catch-up phase's own copy of the wave-path numbers
CATCHUP_LAYERS = ("replay.wave_s_p50", "replay.driver_s",
                  "replay.phase_cover", "merge_apply.scan_s",
                  "merge_apply.merge_s", "merge_apply.full_parts",
                  "merge_apply.drain_s", "manifest.commit_s",
                  "manifest.write_amp")


# -------------------------------------------------------------- workload
def _write_segments(spec, n_seg: int, staging: str) -> None:
    from aqueduct_core_ray.sources.changelog import changelog_chunk
    os.makedirs(staging)
    for i in range(n_seg):
        pq.write_table(changelog_chunk(spec, i),
                       os.path.join(staging, f"seg-{i:06d}.parquet"))


def catchup_tail(seed: int, seconds: float, tracer) -> dict:
    from aqueduct_core_ray.pipelines.replay import CDCEngine
    from aqueduct_core_ray.sources.changelog import (
        ChangelogSpec, changelog_table, write_changelog, write_seed_lake)

    t_catchup = seconds * CATCHUP_SHARE
    interval = SEG_EVENTS / TAIL_RATE
    n_seg = max(int((seconds - t_catchup) / interval), 1)
    cu_spec = ChangelogSpec(n_docs=SEED_DOCS, n_events=CATCHUP_EVENTS,
                            seed=seed, chunk_size=CATCHUP_EVENTS // 4,
                            n_waves=1)
    tail_spec = ChangelogSpec(n_docs=SEED_DOCS, n_events=n_seg * SEG_EVENTS,
                              seed=seed, chunk_size=SEG_EVENTS)
    data = os.path.join(WORK, "data")
    cu_log = write_changelog(cu_spec, os.path.join(data, "log"))
    seed_path = write_seed_lake(cu_spec, os.path.join(data, "seed.parquet"))
    staging, root_log = (os.path.join(data, "staging"),
                         os.path.join(data, "rootlog"))
    _write_segments(tail_spec, n_seg, staging)
    os.makedirs(root_log)
    rng = np.random.default_rng(np.random.PCG64((seed, 0x100C)))
    lookup_ids = [f"doc{i:08d}" for i in rng.integers(0, SEED_DOCS, 4096)]
    lakes = {"catchup": os.path.join(WORK, "catchup"),
             "root": os.path.join(WORK, "parent"),
             "leaf": os.path.join(WORK, "child")}
    commits: dict[str, list[tuple[float, int]]] = {"root": [], "leaf": []}

    def hook(node):
        return lambda eng, rec: commits[node].append(
            (time.monotonic(), int(rec["watermark"])))

    setups = setup_times()
    if tracer is not None:
        install_engine_tracing(tracer)
    with RssSampler() as rss:
        # ---- phase 1: catch-up, closed loop
        cu = CDCEngine(lakes["catchup"], num_partitions=P)
        t = time.perf_counter()
        cu.bootstrap(seed_path)
        boot = [time.perf_counter() - t]
        cu_parts0 = lake_disk(lakes["catchup"])["parts"]
        walls: list[float] = []
        t_end = time.monotonic() + t_catchup
        while not walls or time.monotonic() < t_end:
            if walls:
                cu.restore(0)
            t = time.perf_counter()
            cu.replay(cu_log, cu_spec.wave_bounds)
            cu.drain_absorbs()
            walls.append(time.perf_counter() - t)

        # ---- phase 2: parent -> child tail, open loop
        parent = CDCEngine(lakes["root"], num_partitions=P,
                           emit_changelog=True, post_commit=(hook("root"),))
        child = CDCEngine(lakes["leaf"], num_partitions=P,
                          post_commit=(hook("leaf"),))
        t = time.perf_counter()
        parent.bootstrap(seed_path)
        boot.append(time.perf_counter() - t)
        tail_kw = dict(wave_size=10**9, poll_interval_s=0.01,
                       max_idle_polls=1)
        child.tail(parent.outbox_dir, **tail_kw)   # takes the bootstrap
        parts0 = lake_disk(lakes["root"])["parts"]
        final = n_seg * SEG_EVENTS
        pub_out = os.path.join(WORK, "published.json")
        t0 = time.monotonic() + 0.2
        due = [t0 + i * interval for i in range(n_seg)]
        lookups: list[float] = []
        backlog = None
        pub = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "publisher.py"),
             staging, root_log, repr(t0), repr(interval), pub_out])
        try:
            k = 0
            deadline = due[-1] + DRAIN_DEADLINE_S
            while child.watermark < final and time.monotonic() < deadline:
                # a turn starts just after the first segment the parent
                # lacks is due (at once when it is already due)
                nxt = min(max(parent.watermark, 0) // SEG_EVENTS, n_seg - 1)
                wait = due[nxt] + POLL_LAG_S - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                parent.tail(root_log, **tail_kw)
                child.tail(parent.outbox_dir, **tail_kw)
                for _ in range(LOOKUPS_PER_TURN):
                    t = time.perf_counter()
                    child.get_docs([lookup_ids[k % len(lookup_ids)]])
                    lookups.append(time.perf_counter() - t)
                    k += 1
                if backlog is None and time.monotonic() >= due[-1]:
                    backlog = final - child.watermark
            pub.wait(timeout=30)
        finally:
            if pub.poll() is None:
                pub.kill()
                pub.wait()
    with open(pub_out) as f:
        published = json.load(f)

    def fresh(node):
        """Per segment: its scheduled publish time to the first commit
        on ``node`` whose watermark covers it."""
        out = []
        for i in range(n_seg):
            need = (i + 1) * SEG_EVENTS
            t = next((t for t, wm in commits[node] if wm >= need), None)
            if t is not None:
                out.append(t - due[i])
        return out

    f_root, f_leaf = fresh("root"), fresh("leaf")
    t = time.perf_counter()
    ck_parent = parent.checksum()
    audit_p = time.perf_counter() - t
    t = time.perf_counter()
    ck_child = child.checksum()
    audit_c = time.perf_counter() - t

    layers = None
    if tracer is not None:
        tracer.unwrap_all()
        audit = {s[4]: s[2] - s[1] for s in tracer.spans
                 if s[0] == "engine.checksum"}
        layers = engine_layers(tracer, {"root": lakes["root"],
                                        "leaf": lakes["leaf"]},
                               dir_bytes(root_log), parts0)
        cu_layers = engine_layers(tracer, {"root": lakes["catchup"]},
                                  dir_bytes(cu_log) * len(walls), cu_parts0)
        del layers["merge_apply.drain_s"]     # only the catch-up drains
        layers.update({f"catchup.{k}": cu_layers[k] for k in CATCHUP_LAYERS})
        layers["checksums.parent_s"] = audit[lakes["root"]]
        layers["checksums.leaf_s"] = audit[lakes["leaf"]]

    seed_table = pq.read_table(seed_path)
    problems = check_lake(cu, lww_oracle(seed_table,
                                         changelog_table(cu_spec)))
    if len(f_leaf) < n_seg:
        problems.append(f"leaf applied {child.watermark} of {final} events "
                        f"within {DRAIN_DEADLINE_S}s after the last publish")
    else:
        problems += check_lake(child, lww_oracle(
            seed_table, changelog_table(tail_spec)))
        if not ck_parent.equals(ck_child):
            problems.append("parent and child checksum() differ")
    rate = [cu_spec.n_events / w for w in walls]
    report = {
        "catchup_events_per_s": (median(rate), "1/s", len(rate)),
        "bootstrap_rows_per_s": (SEED_DOCS / median(boot), "1/s", len(boot)),
        "fresh_root_p50_s": (pct(f_root, .5), "s", len(f_root)),
        "fresh_root_p90_s": (pct(f_root, .9), "s", len(f_root)),
        "fresh_leaf_p50_s": (pct(f_leaf, .5), "s", len(f_leaf)),
        "fresh_leaf_p90_s": (pct(f_leaf, .9), "s", len(f_leaf)),
        "lookup_p50_ms": (pct(lookups, .5) * 1e3, "ms", len(lookups)),
        "lookup_p90_ms": (pct(lookups, .9) * 1e3, "ms", len(lookups)),
        "audit_s": (audit_p + audit_c, "s", 1),
        "lake_disk_mb": ((dir_bytes(lakes["root"])
                          + dir_bytes(lakes["leaf"])) / 2**20, "MB", 1),
        "gen_late_max_s": (max(a - d for a, d in zip(published, due)), "s",
                           len(published)),
        "backlog_events": (final if backlog is None else backlog, "count",
                           1),
        "offered_events_per_s": (TAIL_RATE, "1/s", n_seg),
    }
    return {"setups": setups, "ops": lookups, "throughput": median(rate),
            "attempted": len(walls) + n_seg + len(lookups),
            "failed": n_seg - len(f_leaf),
            "peak_rss_mb": rss.peak_mb, "window_s": rss.elapsed_s,
            "problems": problems, "report": report, "layers": layers}
