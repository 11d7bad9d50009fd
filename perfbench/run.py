"""Benchmark of the CDC engine and its query library, run from the root of
a checkout:

    python3 perfbench/run.py --workload catchup_tail|library \\
        --seed N --seconds S --trace 0|1

Inputs are generated from --seed inside the checkout (under
.perfbench_run/, removed again at exit), and so are every root the
program would otherwise persist to (exchange, index and spill roots,
$TMPDIR, $AQR_METRICS_PATH, Ray's session dir): each run starts cold and
does the same work. Ray starts with num_cpus = 1 whatever the machine
has, and every load generator is one single-threaded process. The
benchmark drives only public entry points (CDCEngine, LakeStore,
__ray_entry__.queries()) and reads the telemetry users see
(<lake>/metrics.jsonl, $AQR_METRICS_PATH).

Workloads (changelogs from sources.changelog.ChangelogSpec: 70/20/10
update/insert/delete, Zipf-1.2 hot set; P = 16 partitions):

- catchup_tail: a till coming online (see engine_loads.py). First a
  closed loop catches a 20k-doc seed lake up on a 150k-event log in one
  wave plus drain_absorbs, restores generation 0 and repeats, for a
  quarter of the seconds; this stresses the scan/split fan and full
  partition rewrites. Then an open loop: a publisher process renames
  500-event segments into a root log at 1k events/s while the client
  takes a turn as soon as a segment it lacks is due: tail() of a
  parent (emit_changelog=True), tail() of a child (tails the parent's
  outbox), then 8 seeded get_docs point lookups on the child. This
  stresses many small waves: commits, sidecars, background absorbs,
  outbox fan-out and merge-on-read lookups. An op is one point lookup
  on the child while writes land; freshness (a segment's scheduled
  publish time to the first post_commit whose watermark covers it, at
  the root and at the leaf) is reported by name.
- library: a closed loop over library.QUERIES on seeded 60k-lineitem
  tables. After the set-up's Ray starts, one untimed pass warms the
  last session, then round(seconds / 12) whole passes are timed.
  Stresses stages.exchange, Ray sort-shuffles and the operator modules.
  An op is one query call.

Sizing, measured on a VM with Ray on one CPU. A 2M-event catch-up of a
200k-doc seed takes 16-18 s (scan 10-11 s, merge 6-7 s) and a 100k-doc
tail with 5k-event segments keeps leaf p90 near 1 s at 10k events/s,
3.2 s at 20k, and its backlog grows at 40k. A run here must fit about
a minute with three Ray starts (two workloads, 48 runs in under an
hour), so the catch-up is 150k events (1.2-1.9 s, ~5 per run) and the
tail offers 1k events/s in ~36 segments, two a second (more frequent
segments keep the parent's tail() from returning, see engine_loads.py),
so freshness p90 has ~4 samples beyond it. Tail waves are small and
overhead-bound, so freshness swings with machine noise: it is reported,
not gated. N -> 4N scaling and the ROADMAP's 32-CPU floors cannot be
measured with one CPU and are out of scope.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, defined the same way on every workload: setup_s (median
of three Ray starts, each with a first Ray Data pipeline), peak_rss_mb
(this process plus its Ray workers), op_p50_s / op_p90_s over every
timed op (catchup_tail: point lookup; library: query call) and
throughput_per_s (catchup_tail: log events per second of catch-up;
library: query calls per second of the timed passes). The line before
it names each workload's own metrics (catchup_events_per_s,
fresh_root_p50_s, fresh_leaf_p90_s, lookup_p90_ms, audit_s,
queries_total_s, publisher lateness, end-of-run backlog, ...) with unit
and sample count.

With --trace 1 the benchmark wraps the calls into each layer's public
functions, keeps spans (name, start, end, parent) in memory, merges them
with the metrics.jsonl phases and prints the per-layer metrics of
BENCHMARK.json instead: 0 for a layer the workload never calls, self
time per span name, trace.overhead_frac (spans times the measured cost
of one wrapper, over the measured window) and trace.op_p50_s to set
against the untraced op_p50_s.

Every run checks its outputs after the timed window: each lake against
a vectorized pyarrow last-writer-wins oracle over its applied log (live
rows, consistency sum, every row), parent and child checksum() equal,
and every library result that has an oracle_sql() against DuckDB with
scripts/check_correctness.py's comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# import the benchmark as the package perfbench and the program from the
# checkout root, never sibling files as top-level modules
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench.common import (ROOT, WORK, fresh_roots, median,  # noqa
                              pct, stop_ray)
from perfbench.spans import Tracer  # noqa: E402

ENGINE_LAYERS = ("replay.", "merge_apply.", "manifest.", "checksums.",
                 "catchup.")
LIBRARY_LAYERS = ("exchange.", "shuffle.", "library.", "ops.")
SELF_SPANS = ("engine.replay", "engine.tail", "engine.apply_wave",
              "engine.drain_absorbs", "engine.get_docs", "manifest.commit",
              "manifest.promote", "load_partition_table", "exchange",
              "shuffle.map_groups", "query")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _self_times(tracer: Tracer) -> dict[str, float]:
    st = tracer.self_times()
    out = {f"self.{n}_s": 0.0 for n in SELF_SPANS}
    for name, v in st.items():
        key = "query" if name.startswith("query.") else name
        if key in SELF_SPANS:
            out[f"self.{key}_s"] += v
    return out


def per_layer(res: dict, tracer: Tracer,
              names: list[str]) -> dict[str, float]:
    got = dict(res["layers"])
    got.update(_self_times(tracer))
    got["trace.spans"] = len(tracer.spans)
    got["trace.overhead_frac"] = (len(tracer.spans) * Tracer.cost_per_span()
                                  / res["window_s"])
    got["trace.op_p50_s"] = pct(res["ops"], .5)
    unknown = set(got) - set(names)
    if unknown:
        raise SystemExit(f"per-layer metrics not in BENCHMARK.json: "
                         f"{sorted(unknown)}")
    # the layers of the other workload are never called: 0
    other = (LIBRARY_LAYERS if any(k.startswith(ENGINE_LAYERS) for k in got)
             else ENGINE_LAYERS)
    missing = [n for n in names if n not in got and not n.startswith(other)]
    if missing:
        raise SystemExit(f"per-layer metrics not measured: {missing}")
    return {n: got.get(n, 0.0) for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catchup_tail", "library"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = _spec()
    import aqueduct_core_ray  # noqa: F401  (fails fast without the program)
    fresh_roots()
    tracer = Tracer() if args.trace else None
    try:
        if args.workload == "library":
            from perfbench.library import library as run
        else:
            from perfbench.engine_loads import catchup_tail as run
        res = run(args.seed, args.seconds, tracer)
    finally:
        stop_ray()
        shutil.rmtree(WORK, ignore_errors=True)

    for p in res["problems"]:
        print(f"perfbench: output check failed: {p}", file=sys.stderr)
    report = {k: {"value": v, "unit": u, "n": n}
              for k, (v, u, n) in res["report"].items()}
    report["setup_s"] = {"value": median(res["setups"]), "unit": "s",
                         "n": len(res["setups"])}
    report["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB",
                             "n": 1}
    report["failed_ops_frac"] = {"value": res["failed"] / res["attempted"],
                                 "unit": "ratio", "n": res["attempted"]}
    report["op_p90_s"] = {"value": pct(res["ops"], .9), "unit": "s",
                          "n": len(res["ops"])}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "report": report}))
    if args.trace:
        metrics = per_layer(res, tracer,
                            [m["name"] for m in spec["per_layer"]])
    else:
        ops = res["ops"]
        metrics = {"setup_s": median(res["setups"]),
                   "peak_rss_mb": res["peak_rss_mb"],
                   "op_p50_s": pct(ops, .5), "op_p90_s": pct(ops, .9),
                   "throughput_per_s": res["throughput"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    print(json.dumps({
        "correct": not res["problems"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
