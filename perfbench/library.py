"""The ``library`` workload: one client runs a fixed list of the
program's queries (``__ray_entry__.queries()``) back to back over seeded
tables. After the set-up's Ray starts, one untimed pass warms the last
session (a query's first calls in a session pay worker imports and
set-up: the first pass is ~1.5x slower); then whole passes, as many as
fit the run's seconds at a nominal pass time, so every run makes the
same calls and every query has the same number of them.
Results are checked against ``oracle_sql()`` through DuckDB with the
comparison of scripts/check_correctness.py."""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from .common import (ROOT, WORK, RssSampler, median, reset_caches,
                     setup_times)
from .tpch_tables import write_tables

# Slow and exchange-heavy entries of bench.BENCH_QUERIES at this scale,
# covering the text exchanges, fx_join, an analytics exchange chain,
# temporal windows and a Ray sort-shuffle (bpe_vocab); few enough that a
# run fits a warm pass and two timed ones.
# Left out: ngram_jaccard_dedup, because one call costs a third of a pass
# (and its oracle as much); queries that write under fixed /tmp paths
# the benchmark cannot redirect (events_replay scratch lakes, the
# train_pipeline cache); and media_features / resize_media, which stall
# without progress at num_cpus=1 (suspected: the min-2 actor pool of
# actor_pool_size()) — a workload must not contain operations known to
# fail.
QUERIES = [
    "bigram_logprob_score", "tfidf_top_terms",
    "order_lines_join", "parts_unsold_in_window",
    "top_customers_by_return_revenue", "late_events", "bpe_vocab",
]
# Nominal seconds of one pass with Ray on one CPU: a run times
# round(seconds / PASS_S) passes, so every run makes the same calls.
PASS_S = 12.0


def _consume(res):
    """Materialize a result, so a lazy Dataset is executed in the timed
    call, not planned."""
    import check_correctness as cc
    return cc.to_pandas(res)


def install_library_tracing(tracer, qs: dict) -> None:
    from ray.data.grouped_data import GroupedData

    from aqueduct_core_ray.stages import exchange

    def plan(args, kwargs):
        if kwargs.get("_plan_out") is None:     # callers pass None through
            kwargs["_plan_out"] = {}

    tracer.wrap(exchange, "file_exchange_map_groups", "exchange",
                note=lambda a, k, r: dict(k["_plan_out"]), prep=plan)
    tracer.wrap(GroupedData, "map_groups", "shuffle.map_groups")
    for name in QUERIES:
        tracer.wrap(qs, name, f"query.{name}")


def library_layers(tracer, ops_path: str) -> dict[str, float]:
    plans = tracer.notes("exchange")
    fx = tracer.durations("exchange")
    out = {
        "exchange.calls": len(fx),
        "exchange.s": sum(fx),
        "exchange.tasks": sum(int(p.get("tasks", 0)) for p in plans),
        "exchange.split": sum(int(p.get("split", 0)) for p in plans),
        "shuffle.sort_calls": len(tracer.durations("shuffle.map_groups")),
    }
    for name in QUERIES:
        out[f"library.{name}_s"] = median(tracer.durations(f"query.{name}"))
    walls = defaultdict(list)
    if os.path.exists(ops_path):
        with open(ops_path) as f:
            for line in f:
                r = json.loads(line)
                walls[r["op"]].append(float(r.get("wall_s") or 0.0))
    # each query records one operator of its own name in $AQR_METRICS_PATH
    # (metrics.timed_op; for an operator returning a lazy Dataset the
    # record times planning only)
    for op in QUERIES:
        out[f"ops.{op}_s"] = median(walls.get(op, []))
    return out


def library(seed: int, seconds: float, tracer) -> dict:
    sf = write_tables(seed, os.path.join(WORK, "data", "sf"))
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    import duckdb

    import __ray_entry__ as entry
    import bench
    import check_correctness as cc
    missing = set(QUERIES) - set(bench.BENCH_QUERIES)
    if missing:
        raise SystemExit(f"not in bench.BENCH_QUERIES: {sorted(missing)}")

    qs = entry.queries()
    setups = setup_times()
    calls: list[float] = []                 # one op = one query call
    times: dict[str, list[float]] = {q: [] for q in QUERIES}
    last: dict = {}
    failed: list[str] = []
    attempted = 0
    with RssSampler() as rss:
        for name in QUERIES:                # warm-up pass, untimed
            reset_caches()
            _consume(qs[name](sf))
        if tracer is not None:
            install_library_tracing(tracer, qs)
        t0 = time.perf_counter()
        for _ in range(max(1, round(seconds / PASS_S))):
            for name in QUERIES:
                attempted += 1
                reset_caches()
                t = time.perf_counter()
                try:
                    res = _consume(qs[name](sf))
                except Exception as e:          # counted, never hidden
                    failed.append(f"{name}: {type(e).__name__}: {e}")
                    continue
                calls.append(time.perf_counter() - t)
                times[name].append(calls[-1])
                last[name] = res
        window = time.perf_counter() - t0
    layers = None
    if tracer is not None:
        tracer.unwrap_all()
        layers = library_layers(tracer, os.environ["AQR_METRICS_PATH"])

    oracles = entry.oracle_sql()
    con = duckdb.connect()
    for t in cc.TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    for f in failed:
        print(f"perfbench: failed op {f}", file=sys.stderr)
    problems = []
    checked = 0
    for name, res in last.items():
        if name in oracles:
            checked += 1
            for p in cc.compare(name, res, con.execute(oracles[name]).df()):
                problems.append(f"{name}: {p}")
    con.close()
    passes = attempted // len(QUERIES)
    report = {
        "queries_total_s": (sum(median(v) for v in times.values()), "s",
                            passes),
        "oracle_checked": (checked, "count", 1),
    }
    return {"setups": setups, "ops": calls,
            "throughput": len(calls) / window,
            "attempted": attempted, "failed": len(failed),
            "peak_rss_mb": rss.peak_mb, "window_s": window,
            "problems": problems, "report": report, "layers": layers}
