"""Temporal operators Ray Data lacks natively (task mandate: windowed
aggregate, as-of join), composed from map_batches + multi-key groupby —
no raw Ray tasks needed.

Partitioning assumptions (documented per the task's custom-operator
rule):

- ``tumbling_window``: windows are computed row-locally (a timestamp
  truncation), so the only exchange is the final (window, type) groupby
  — pre-aggregated per block first (combiner), so the shuffle moves at
  most #blocks × #distinct-(window,type) tiny rows, never events.
- ``asof_join_prior``: correctness requires co-locating each key's full
  history — one hash shuffle on the join key into a BOUNDED number of
  partitions, then one per-partition sort + segmented ``searchsorted``
  covering all of the partition's users in a single vectorized kernel
  (never one Python call per user). Skewed keys are bounded by per-user
  history length, not stream length.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .log_queries import read_events

# every per-key exchange below is the keyed file exchange
# (stages/exchange.py)
from ..stages import exchange
from ..stages.exchange import collect_tables


def tumbling_window_counts(sf_dir: str, unit: str = "hour"
                           ) -> ray.data.Dataset:
    """Tumbling-window aggregate: events per (window, type) with the sum
    of `value` — the streaming-window staple. Window = date_trunc(unit).
    """

    def prebucket(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t.column("ts"), unit=unit)
        # integer cents: float sums are association-dependent and would
        # hash-mismatch a SQL oracle; floor(v*100 + 0.5) is deterministic
        # and identical in numpy and DuckDB
        v = t.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100 + 0.5).astype(np.int64)
        g = pa.table({
            "window_start": w,
            "event_type": t.column("event_type"),
            "cents": pa.array(cents),
        })
        # per-block combiner: partial counts/sums before the shuffle
        agg = g.group_by(["window_start", "event_type"]).aggregate(
            [("cents", "count"), ("cents", "sum")])
        return pa.table({          # by-name: aggregate column order is
            "window_start": agg.column("window_start"),  # version-dependent
            "event_type": agg.column("event_type"),
            "n_rows": agg.column("cents_count"),
            "sum_cents": agg.column("cents_sum"),
        })

    from ..stages.exchange import fx_sum_by

    ds = read_events(sf_dir, columns=["ts", "event_type", "value"])
    partial = ds.map_batches(prebucket, batch_format="pyarrow",
                             batch_size=None)
    # file-exchange multi-agg fold: the (window, type) group count
    # grows with the time range — a per-group Python call would be a
    # wall at years of hourly windows, and the native Aggregate pays
    # the sort-shuffle floor
    return fx_sum_by(partial, ["window_start", "event_type"],
                     ["n_rows", "sum_cents"])


def asof_join_prior(sf_dir: str, probe_type: str = "purchase",
                    build_type: str = "click") -> ray.data.Dataset:
    """As-of join: for every ``probe_type`` event, the most recent PRIOR
    ``build_type`` event of the same user (strictly earlier event_id),
    NULL when none exists. LEFT-join semantics.

    Scale shape: ONE exchange keyed on the join key into bounded
    groups (NOT one Python call per user — unbounded group count
    was the round-1 wall), then a per-partition sort + ONE segmented
    ``searchsorted`` over rank-composite keys covering every user in the
    partition at once. Composite = user_rank * (n_rows+1) + event_rank,
    overflow-free for any partition under ~3e9 rows."""

    def narrow(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array([probe_type, build_type]))
        return t.filter(keep)

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        typ = t.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, uid))
        uid, eid, typ = uid[order], eid[order], typ[order]
        is_probe = typ == probe_type
        # rank-composite keys: factorized user x event ranks keep the
        # int64 product bounded by n^2 regardless of raw id magnitudes
        u_uniq, u_code = np.unique(uid, return_inverse=True)
        e_rank = np.searchsorted(np.unique(eid), eid)
        comp = u_code.astype(np.int64) * np.int64(len(eid) + 1) + e_rank
        builds_comp = comp[~is_probe]
        builds_eid = eid[~is_probe]
        builds_uid = uid[~is_probe]
        probes_comp = comp[is_probe]
        n_probe = int(is_probe.sum())
        if builds_comp.size == 0:
            last = np.full(n_probe, -1, np.int64)
        else:
            pos = np.searchsorted(builds_comp, probes_comp,
                                  side="left") - 1
            safe = np.clip(pos, 0, None)
            # same-user guard: a probe whose pos lands in the previous
            # user's build run has no prior build of its own
            valid = (pos >= 0) & (builds_uid[safe] == uid[is_probe])
            last = np.where(valid, builds_eid[safe], -1)
        return pa.table({
            "event_id": pa.array(eid[is_probe]),
            "user_id": pa.array(uid[is_probe]),
            "last_prior": pa.array(last, pa.int64(), mask=last < 0),
        })

    ds = read_events(sf_dir, columns=["event_id", "user_id", "event_type"]
                     ).map_batches(narrow, batch_format="pyarrow")
    return exchange.file_exchange_map_groups(ds, per_part, keys=["user_id"])


def hopping_window_counts(sf_dir: str, window_minutes: int = 60,
                          hop_minutes: int = 15) -> ray.data.Dataset:
    """SLIDING (hopping) windows: length ``window_minutes``, advancing
    every ``hop_minutes`` — each event lands in W/S overlapping windows
    (the other half of the streaming-window pair next to
    ``tumbling_window_counts``). Row-local window assignment via a
    vectorized repeat (duplication factor W/S), per-block combiner,
    then the same native (window, type) fold — the shuffle moves
    partial counts, never the W/S-amplified events."""
    from ray.data.aggregate import Sum

    k = window_minutes // hop_minutes
    hop_us = np.int64(hop_minutes) * 60_000_000

    def prebucket(t: pa.Table) -> pa.Table:
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        base = (ts // hop_us) * hop_us           # newest window's start
        n = len(ts)
        ws = (np.repeat(base, k)
              - np.tile(np.arange(k, dtype=np.int64) * hop_us, n))
        et = t.column("event_type").take(
            pa.array(np.repeat(np.arange(n), k)))
        g = pa.table({
            "window_start": pa.array(ws).cast(pa.timestamp("us")),
            "event_type": et,
        })
        agg = g.group_by(["window_start", "event_type"]).aggregate(
            [("event_type", "count")])
        return pa.table({
            "window_start": agg.column("window_start"),
            "event_type": agg.column("event_type"),
            "n_rows": agg.column("event_type_count"),
        })

    from ..stages.exchange import fx_sum_by

    ds = read_events(sf_dir, columns=["ts", "event_type"])
    partial = ds.map_batches(prebucket, batch_format="pyarrow",
                             batch_size=None)
    return fx_sum_by(partial, ["window_start", "event_type"],
                     ["n_rows"])


# deterministic value bands for the broadcast range join (mirrored
# verbatim in the SQL oracle's VALUES clause)
VALUE_BANDS = [("micro", 0.0, 1.0), ("small", 1.0, 10.0),
               ("medium", 10.0, 50.0), ("large", 50.0, 200.0),
               ("jumbo", 200.0, 1e9)]


def range_join_value_bands(sf_dir: str) -> ray.data.Dataset:
    """Broadcast RANGE join: events matched to a small interval table
    (``value ∈ [lo, hi)``) — the canonical small-side non-equi join. The
    band table is a closure broadcast; each batch resolves membership
    with ONE vectorized searchsorted over the band edges — never a
    shuffle join, never a per-row loop."""
    edges = np.array([b[1] for b in VALUE_BANDS] + [VALUE_BANDS[-1][2]])
    labels = np.array([b[0] for b in VALUE_BANDS], dtype=object)

    def bandify(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(edges, v, side="right") - 1
        ok = (idx >= 0) & (idx < len(labels))
        lab = labels[np.clip(idx, 0, len(labels) - 1)]
        g = pa.table({"band": pa.array(lab[ok].astype(object))})
        agg = g.group_by(["band"]).aggregate([("band", "count")])
        return pa.table({"band": agg.column("band"),
                         "n_rows": agg.column("band_count")})

    from ..stages.exchange import fx_sum_by

    ds = read_events(sf_dir, columns=["value"])
    partial = ds.map_batches(bandify, batch_format="pyarrow",
                             batch_size=None)
    return fx_sum_by(partial, ["band"], ["n_rows"])


def sessionize(sf_dir: str, gap_minutes: int = 30) -> ray.data.Dataset:
    """Session windows per user: a new session starts when the gap to
    the user's previous event exceeds ``gap_minutes``. Returns
    (user_id, n_sessions, n_events) — the classic event-stream
    sessionization a training-data pipeline needs for behavioral
    filtering.

    Scale shape mirrors asof_join_prior: ONE hash shuffle on user_id
    into bounded partitions, then a single per-partition lexsort and a
    segmented np.diff — session boundaries for every user in the
    partition fall out of one vectorized pass."""

    gap_us = np.int64(gap_minutes) * 60_000_000

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        new_user = np.ones(len(uid), bool)
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.ones(len(uid), bool)
        gap[1:] = (ts[1:] - ts[:-1]) > gap_us
        starts = new_user | gap
        u_uniq, u_inv = np.unique(uid, return_inverse=True)
        n_sessions = np.bincount(u_inv, weights=starts).astype(np.int64)
        n_events = np.bincount(u_inv).astype(np.int64)
        return pa.table({
            "user_id": pa.array(u_uniq),
            "n_sessions": pa.array(n_sessions),
            "n_events": pa.array(n_events),
        })

    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts"])
    return exchange.file_exchange_map_groups(ds, per_part,
                                             keys=["user_id"])


def value_histogram(sf_dir: str, bucket_width_cents: int = 2500
                    ) -> ray.data.Dataset:
    """Equi-width histogram of `value` per event type (integer-cent
    buckets so the SQL oracle hashes identically): per-block partial
    counts (combiner), then a tiny (type, bucket) groupby — the shuffle
    moves histogram rows, never events."""

    def prebucket(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100 + 0.5).astype(np.int64)
        b = cents // bucket_width_cents
        g = pa.table({"event_type": t.column("event_type"),
                      "bucket": pa.array(b)})
        agg = g.group_by(["event_type", "bucket"]).aggregate(
            [("bucket", "count")])
        return pa.table({
            "event_type": agg.column("event_type"),
            "bucket": agg.column("bucket"),
            "n_rows": agg.column("bucket_count"),
        })

    from ..stages.exchange import fx_sum_by

    ds = read_events(sf_dir, columns=["event_type", "value"])
    partial = ds.map_batches(prebucket, batch_format="pyarrow",
                             batch_size=None)
    return fx_sum_by(partial, ["event_type", "bucket"], ["n_rows"])


def _per_type(sf_dir: str, columns: "list[str]", partial, merge
              ) -> ray.data.Dataset:
    """``partial`` over every events block, then ``merge`` once per
    event type over the type's partial rows (one exchange keyed on
    event_type; a part loops over its few types)."""
    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/events.parquet", columns),
        exchange.each_group(merge, ["event_type"]), keys=["event_type"],
        pre=partial).refs)


def distinct_users_by_type(sf_dir: str) -> ray.data.Dataset:
    """Exact distinct-count: users per event type. Per-block pair dedup
    (combiner) -> (type, user) groupby dedup is implicit in the final
    per-type group -> count unique. The shuffle moves distinct pairs,
    never events."""

    def pairs(t: pa.Table) -> pa.Table:
        g = pa.table({"event_type": t.column("event_type"),
                      "user_id": t.column("user_id")})
        return g.group_by(["event_type", "user_id"]).aggregate([])

    def count_unique(t: pa.Table) -> pa.Table:
        u = pc.count_distinct(t.column("user_id")).as_py()
        return pa.table({
            "event_type": t.column("event_type").slice(0, 1),
            "n_users": pa.array([u], pa.int64()),
        })

    return _per_type(sf_dir, ["event_type", "user_id"], pairs,
                     count_unique)


def approx_quantiles_by_type(sf_dir: str,
                             qs: tuple[float, ...] = (0.5, 0.9, 0.99),
                             n_bins: int = 4096) -> ray.data.Dataset:
    """Mergeable approximate quantiles of `value` per event type: each
    block builds a fixed LOG-SPACED histogram (cents scale, vectorized
    bincount), histograms MERGE by elementwise sum in the per-type
    group, quantiles read off the merged CDF once at the end — the same
    bounded-exchange sketch pattern as the HLL (#blocks × #types ×
    n_bins ints move, never values). Relative error is bounded by the
    log-bin width (~0.6% at 4096 bins over [1¢, 10^7¢]); approximate →
    rows-only check, accuracy pinned vs DuckDB quantile_cont in
    pytest."""
    lo_c, hi_c = 1.0, 1e7            # cents domain of the log grid
    log_lo, log_hi = np.log(lo_c), np.log(hi_c)

    def block_hist(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        cents = np.maximum(np.floor(v * 100 + 0.5), 1.0)
        b = ((np.log(cents) - log_lo) / (log_hi - log_lo)
             * (n_bins - 1)).astype(np.int64).clip(0, n_bins - 1)
        types = t.column("event_type").to_numpy(zero_copy_only=False)
        out_t, out_h = [], []
        for et in np.unique(types):
            out_t.append(et)
            out_h.append(np.bincount(b[types == et], minlength=n_bins))
        return pa.table({
            "event_type": pa.array(out_t),
            "hist": pa.FixedSizeListArray.from_arrays(
                pa.array(np.concatenate(out_h).astype(np.int64)), n_bins),
        })

    def merge_quantiles(t: pa.Table) -> pa.Table:
        h = np.stack(t.column("hist").to_numpy(zero_copy_only=False))
        merged = h.sum(axis=0)
        cdf = np.cumsum(merged)
        total = cdf[-1]
        qv = []
        for q in qs:
            bin_i = int(np.searchsorted(cdf, q * total))
            # bin center back to cents -> dollars
            c = np.exp(log_lo + (bin_i + 0.5) / (n_bins - 1)
                       * (log_hi - log_lo))
            qv.append(round(float(c) / 100.0, 4))
        return pa.table({
            "event_type": pa.concat_arrays(
                [t.column("event_type").slice(0, 1).combine_chunks()]
                * len(qs)),
            "q": pa.array(list(qs), pa.float64()),
            "value": pa.array(qv, pa.float64()),
        })

    return _per_type(sf_dir, ["event_type", "value"], block_hist,
                     merge_quantiles)


def approx_distinct_users_by_type(sf_dir: str, p_bits: int = 12
                                  ) -> ray.data.Dataset:
    """HyperLogLog distinct-count per event type — the mergeable-sketch
    pattern: each block builds a 2^p_bits register array per type
    (vectorized ufunc.at), registers MERGE with elementwise max in the
    per-type group, cardinality estimated once at the end. At 10^10
    events the shuffle moves #blocks × #types × 4 KB of registers, an
    unconditionally bounded exchange. Approximate (±~1.6% at p=12):
    rows-only check."""
    import pandas as pd

    m = 1 << p_bits

    def block_sketch(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            t.column("user_id").to_numpy(zero_copy_only=False).copy(),
            categorize=False)
        reg_idx = (h >> np.uint64(64 - p_bits)).astype(np.int64)
        rest = h << np.uint64(p_bits)
        # rank = leading zeros of the remaining bits + 1 (capped)
        nz = np.where(rest == 0, np.uint64(0), rest)
        lz = np.full(len(h), 64 - p_bits + 1, dtype=np.int64)
        nonzero = rest != 0
        # log2 via float exponent: safe for uint64 -> float64 here
        lz[nonzero] = 63 - np.floor(
            np.log2(nz[nonzero].astype(np.float64))).astype(np.int64) + 1
        types = t.column("event_type").to_numpy(zero_copy_only=False)
        out_t, out_regs = [], []
        for et in np.unique(types):
            regs = np.zeros(m, dtype=np.int8)
            sel = types == et
            np.maximum.at(regs, reg_idx[sel], lz[sel].astype(np.int8))
            out_t.append(et)
            out_regs.append(regs)
        return pa.table({
            "event_type": pa.array(out_t),
            "regs": pa.FixedSizeListArray.from_arrays(
                pa.array(np.concatenate(out_regs), pa.int8()), m),
        })

    def merge_estimate(t: pa.Table) -> pa.Table:
        regs = np.stack(t.column("regs").to_numpy(zero_copy_only=False))
        merged = regs.max(axis=0).astype(np.float64)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-merged))
        zeros = int((merged == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)        # small-range correction
        return pa.table({
            "event_type": t.column("event_type").slice(0, 1),
            "approx_users": pa.array([int(round(est))], pa.int64()),
        })

    return _per_type(sf_dir, ["event_type", "user_id"], block_sketch,
                     merge_estimate)


def running_total(sf_dir: str) -> ray.data.Dataset:
    """Ordered cumulative window: per-user running sum of ``value``
    (integer cents, floor(v*100+0.5) per row) over (ts, event_id)
    order — SQL's ``sum(...) OVER (PARTITION BY user_id ORDER BY ts,
    event_id ROWS UNBOUNDED PRECEDING)``. Returns (event_id, user_id,
    ts, value_c, running_c).

    Scale shape: ONE hash shuffle on user_id into bounded partitions;
    within a partition a single lexsort orders every user's stream and
    one global cumsum minus per-segment bases yields all running sums —
    no per-user Python loop, no global sort."""

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        val = t.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, eid = uid[order], eid[order]
        v_c = np.floor(val[order] * 100.0 + 0.5).astype(np.int64)
        cs = np.cumsum(v_c)
        new_user = np.ones(len(uid), bool)
        new_user[1:] = uid[1:] != uid[:-1]
        seg_id = np.cumsum(new_user) - 1
        starts = np.flatnonzero(new_user)
        base = cs[starts] - v_c[starts]        # prefix before each segment
        running = cs - base[seg_id]
        sel = pa.array(order)
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "ts": t.column("ts").take(sel),
            "value_c": pa.array(v_c),
            "running_c": pa.array(running),
        })

    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts",
                                      "value"])
    return exchange.file_exchange_map_groups(ds, per_part,
                                             keys=["user_id"])


def inter_event_gaps(sf_dir: str) -> ray.data.Dataset:
    """LAG-window gap statistics: per user, the count of events and the
    sum / max of the microsecond gaps between CONSECUTIVE events in
    (ts, event_id) order — SQL's ``ts - lag(ts) OVER (PARTITION BY
    user_id ORDER BY ts, event_id)`` aggregated per user. Returns
    (user_id, n_events, sum_gap_us, max_gap_us); single-event users get
    zero gaps.

    Scale shape (same as running_total): ONE hash shuffle on user_id
    into bounded partitions; within a partition one lexsort orders every
    user's stream, per-position gaps come from a single shifted
    difference (zeroed at segment starts, so a segment's first row
    contributes nothing), and per-user sum/max are one ``reduceat``
    each — no per-user Python loop, no global sort. Each user lives in
    exactly one partition, so the output needs no driver fold."""

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        new_user = np.ones(len(uid), bool)
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.zeros(len(uid), np.int64)
        gap[1:] = ts[1:] - ts[:-1]
        gap[new_user] = 0                  # first row of a user: no gap
        starts = np.flatnonzero(new_user)
        return pa.table({
            "user_id": pa.array(uid[starts]),
            "n_events": pa.array(np.diff(np.append(starts, len(uid)))
                                 .astype(np.int64)),
            "sum_gap_us": pa.array(np.add.reduceat(gap, starts)),
            "max_gap_us": pa.array(np.maximum.reduceat(gap, starts)),
        })

    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts"])
    return exchange.file_exchange_map_groups(ds, per_part,
                                             keys=["user_id"])


def exact_quantiles_by_type(sf_dir: str,
                            qs: tuple[float, ...] = (0.25, 0.5, 0.9, 0.99)
                            ) -> ray.data.Dataset:
    """EXACT grouped quantiles over integer-cent values — the exact
    companion to ``approx_quantiles_by_type``. Returns
    (event_type, q, value_c) with SQL ``quantile_disc`` semantics:
    the element at rank ``ceil(q·n)`` (1-based; verified against
    DuckDB's convention — both sides compute the same double product,
    so the rank can never disagree by an ulp).

    Scale shape: exact quantiles normally need a sort, but a MONEY
    column's domain is bounded (integer cents), so the full
    distribution compresses into a (type, value_c) histogram: per-block
    Arrow partials -> ONE native Sum exchange bounded by
    domain × types (measured: 100k event rows -> 18k distinct cents,
    sublinear; a 10^10-row lake saturates at the domain size) -> a
    driver-side cumsum readout over the bounded histogram. Events are
    never sorted and never leave their blocks."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        g = pa.table({
            "event_type": t.column("event_type"),
            "value_c": pa.array(np.floor(v * 100.0 + 0.5)
                                .astype(np.int64)),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
        })
        agg = g.group_by(["event_type", "value_c"]).aggregate(
            [("n", "sum")])
        return pa.table({           # by-name: order is version-dependent
            "event_type": agg.column("event_type"),
            "value_c": agg.column("value_c"),
            "n": agg.column("n_sum"),
        })

    from ..stages.exchange import fx_sum_by
    hist = fx_sum_by(
        read_events(sf_dir, columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "value_c"], ["n"]
    ).to_pandas()                    # bounded: domain x types rows
    out_t, out_q, out_v = [], [], []
    for et, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("value_c")
        cum = g["n"].to_numpy().cumsum()
        vals = g["value_c"].to_numpy()
        n = int(cum[-1])
        for q in qs:
            k = max(1, int(np.ceil(q * n)))
            out_t.append(et)
            out_q.append(float(q))
            out_v.append(int(vals[np.searchsorted(cum, k, side="left")]))
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "q": pa.array(out_q, pa.float64()),
        "value_c": pa.array(out_v, pa.int64()),
    }))


def user_type_sets(sf_dir: str, type_a: str = "click",
                   type_b: str = "purchase") -> ray.data.Dataset:
    """Distributed SET OPERATIONS between two event populations: each
    user that emitted ``type_a`` or ``type_b`` is classified
    ``both`` (INTERSECT), ``click_only`` (A EXCEPT B) or
    ``purchase_only`` (B EXCEPT A) — returns (user_id, status).

    Scale shape: per-block DISTINCT (user, membership-bit) partials
    shrink the stream to ≤ 2·users-per-block rows before the ONE
    hash(user) exchange; each partition folds bits with a segmented
    bitwise-OR (sort + reduceat) and classifies every user in one
    vectorized pass. Neither side is broadcast; output stays
    distributed."""

    bit_of = {type_a: np.int64(1), type_b: np.int64(2)}
    # labels derive from the parameters (defaults keep the oracle's
    # click_only / purchase_only names)
    status_of = {3: "both", 1: f"{type_a}_only", 2: f"{type_b}_only"}

    def partial(t: pa.Table) -> pa.Table:
        typ = t.column("event_type").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        bits = np.where(typ == type_a, 1, np.where(typ == type_b, 2, 0))
        m = bits > 0
        uid, bits = uid[m], bits[m].astype(np.int64)
        pairs = np.unique(np.stack([uid, bits], axis=1), axis=0)
        return pa.table({"user_id": pa.array(pairs[:, 0]),
                         "bit": pa.array(pairs[:, 1])})

    def classify(g: pa.Table) -> pa.Table:
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        bit = g.column("bit").to_numpy(zero_copy_only=False)
        order = np.argsort(uid, kind="stable")
        uid, bit = uid[order], bit[order]
        starts = np.flatnonzero(np.concatenate([[True],
                                                uid[1:] != uid[:-1]]))
        masks = np.bitwise_or.reduceat(bit, starts)
        users = uid[starts]
        out_status = np.empty(len(users), object)
        for m, s in status_of.items():
            out_status[masks == m] = s
        return pa.table({"user_id": pa.array(users),
                         "status": pa.array(out_status, pa.string())})

    ds = read_events(sf_dir, columns=["user_id", "event_type"])
    return exchange.file_exchange_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), classify,
        keys=["user_id"])


def percentile_rank(sf_dir: str) -> ray.data.Dataset:
    """Per-event PERCENTILE RANK of ``value`` within its event type, in
    integer permille: ``(1000 * (rank - 1)) // (n - 1)`` with SQL
    ``rank()`` tie semantics (ties share the minimal rank) — pure
    integer arithmetic, so the oracle reproduces it bit-exactly.
    Returns (event_id, event_type, value_c, pct_rank).

    Scale shape: the same bounded-domain trick as
    ``exact_quantiles_by_type`` — ONE native Sum exchange folds the
    (type, value_c) histogram (bounded by domain × types), the driver
    turns it into per-type cumulative-count lookup tables broadcast via
    ``ray.put``, and a second streaming pass ranks every event with one
    vectorized searchsorted per (block, type). Events are never
    sorted globally and never leave their blocks."""
    import ray
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        g = pa.table({
            "event_type": t.column("event_type"),
            "value_c": pa.array(np.floor(v * 100.0 + 0.5)
                                .astype(np.int64)),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
        })
        agg = g.group_by(["event_type", "value_c"]).aggregate(
            [("n", "sum")])
        return pa.table({
            "event_type": agg.column("event_type"),
            "value_c": agg.column("value_c"),
            "n": agg.column("n_sum"),
        })

    from ..stages.exchange import fx_sum_by
    hist = fx_sum_by(
        read_events(sf_dir, columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "value_c"], ["n"]).to_pandas()
    lut: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("value_c")
        vals = g["value_c"].to_numpy()
        cnt = g["n"].to_numpy()
        below = np.concatenate([[0], cnt.cumsum()[:-1]])  # rows < v
        lut[et] = (vals, below.astype(np.int64), int(cnt.sum()))
    ref = ray.put(lut)

    def rank_rows(t: pa.Table) -> pa.Table:
        tables = ray.get(ref)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        v = t.column("value").to_numpy(zero_copy_only=False)
        v_c = np.floor(v * 100.0 + 0.5).astype(np.int64)
        pct = np.zeros(t.num_rows, np.int64)
        for typ in np.unique(et):
            m = et == typ
            vals, below, n = tables[typ]
            pos = np.searchsorted(vals, v_c[m])
            r = below[pos] + 1                   # SQL rank(): ties -> min
            pct[m] = (1000 * (r - 1)) // max(n - 1, 1)
        return pa.table({
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
            "value_c": pa.array(v_c),
            "pct_rank": pa.array(pct),
        })

    return (read_events(sf_dir, columns=["event_id", "event_type",
                                         "value"])
            .map_batches(rank_rows, batch_format="pyarrow"))


def event_transitions(sf_dir: str) -> ray.data.Dataset:
    """Per-user event-type TRANSITION MATRIX: counts of consecutive
    (previous type -> next type) pairs in each user's (ts, event_id)
    stream order, summed over all users — the Markov-chain /
    behavioral-model input an event pipeline derives. Returns
    (from_type, to_type, n_transitions), bounded at #types^2 rows.

    Scale shape mirrors sessionize: ONE hash shuffle on user_id into
    bounded partitions co-locates each user's history; a single
    per-partition lexsort plus one shifted comparison yields every
    adjacent pair, and the pair counts collapse to <= #types^2 partial
    rows per partition before the tiny final fold (the driver never
    sees events)."""

    from .analytics import _int_sum_by

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        types, codes = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, ts, uid))
        uid_s, code_s = uid[order], codes[order]
        same_user = uid_s[1:] == uid_s[:-1]
        frm = code_s[:-1][same_user]
        to = code_s[1:][same_user]
        cell = frm.astype(np.int64) * len(types) + to
        gi, _, cnt = _int_sum_by(cell, np.ones(len(cell), np.int64))
        return pa.table({
            "from_type": pa.array(types[gi // len(types)].astype(str)),
            "to_type": pa.array(types[gi % len(types)].astype(str)),
            "n_transitions": pa.array(cnt.astype(np.int64)),
        })

    from .analytics import _fold_partials
    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts",
                                      "event_type"])
    parts = exchange.file_exchange_map_groups(ds, per_part,
                                              keys=["user_id"])
    return ray.data.from_arrow(_fold_partials(
        parts, ["from_type", "to_type"], ["n_transitions"],
        pa.table({"from_type": pa.array([], pa.string()),
                  "to_type": pa.array([], pa.string()),
                  "n_transitions": pa.array([], pa.int64())})))


def retention_cohorts(sf_dir: str) -> ray.data.Dataset:
    """Cohort RETENTION table: users are cohorted by the calendar day
    of their FIRST event; for every (cohort day, day offset) the count
    of cohort users active that day — the standard retention triangle.
    Returns (cohort_day, offset_days, n_users).

    Scale shape: ONE hash shuffle on user_id — each user's whole
    history lands in one partition, so the partition derives first-day
    and distinct (user, day) pairs locally (lexsort + np.unique) and
    its (cohort, offset) user counts are DISJOINT from every other
    partition's; a native groupby(...).sum finishes the counts with
    no distinct re-check. The driver never folds anything
    user-sized."""

    day_us = np.int64(86_400_000_000)

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // day_us
        pairs = np.unique(np.stack([uid, day], axis=1), axis=0)
        pu, pd_ = pairs[:, 0], pairs[:, 1]
        # first (= min) day per user: pairs are sorted by (user, day)
        starts = np.flatnonzero(np.concatenate([[True],
                                                pu[1:] != pu[:-1]]))
        sizes = np.diff(np.append(starts, len(pu)))
        cohort = np.repeat(pd_[starts], sizes)
        offset = pd_ - cohort
        cell = cohort * 100_000 + offset
        ucell, cnt = np.unique(cell, return_counts=True)
        return pa.table({
            "cohort_day": pa.array((ucell // 100_000) * day_us).cast(
                pa.timestamp("us")),
            "offset_days": pa.array(ucell % 100_000),
            "n_users": pa.array(cnt.astype(np.int64)),
        })

    from ..stages.exchange import fx_sum_by

    ds = read_events(sf_dir, columns=["user_id", "ts"])
    return fx_sum_by(
        exchange.file_exchange_map_groups(ds, per_part, keys=["user_id"]),
        ["cohort_day", "offset_days"], ["n_users"])


def conversion_funnel(sf_dir: str, from_type: str = "click",
                      to_type: str = "purchase",
                      window_minutes: int = 2880) -> ray.data.Dataset:
    """Ordered two-stage FUNNEL: for every user with at least one
    ``from_type`` event, the first such event, the earliest ``to_type``
    event at-or-after it, the microsecond lag, and whether the
    conversion landed within ``window_minutes`` — the standard
    click->purchase attribution table. Returns (user_id,
    first_click_us, conv_lag_us nullable, converted), one row per
    funnel entrant.

    Scale shape: ONE hash shuffle on user_id; each partition lexsorts
    once and derives both stages with two segmented min-reduceats over
    sentinel-masked int64 timestamps — every user in the partition is
    handled by the same vectorized pass, no per-user loop, and the
    output is one row per entrant (never events)."""

    window_us = np.int64(window_minutes) * 60_000_000
    BIG = np.int64(2**62)

    def narrow(t: pa.Table) -> pa.Table:
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        return t.filter(pa.array((et == from_type) | (et == to_type)))

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts, et = uid[order], ts[order], et[order]
        starts = np.flatnonzero(np.concatenate([[True],
                                                uid[1:] != uid[:-1]]))
        if len(uid) == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "first_click_us": pa.array([], pa.int64()),
                "conv_lag_us": pa.array([], pa.int64()),
                "converted": pa.array([], pa.int8()),
            })
        # stage 1: first from_type ts per user (sentinel-masked min)
        c_ts = np.where(et == from_type, ts, BIG)
        first_click = np.minimum.reduceat(c_ts, starts)
        entered = first_click < BIG
        # stage 2: earliest to_type at-or-after the user's first click
        sizes = np.diff(np.append(starts, len(uid)))
        fc_rows = np.repeat(first_click, sizes)
        p_ts = np.where((et == to_type) & (ts >= fc_rows), ts, BIG)
        conv = np.minimum.reduceat(p_ts, starts)
        users = uid[starts][entered]
        fc = first_click[entered]
        cv = conv[entered]
        lag = cv - fc
        has = cv < BIG
        return pa.table({
            "user_id": pa.array(users),
            "first_click_us": pa.array(fc),
            "conv_lag_us": pa.array(np.where(has, lag, 0), pa.int64(),
                                    mask=~has),
            "converted": pa.array(
                (has & (lag <= window_us)).astype(np.int8)),
        })

    ds = read_events(sf_dir, columns=["user_id", "ts", "event_type"])
    return exchange.file_exchange_map_groups(
        ds.map_batches(narrow, batch_format="pyarrow"), per_part,
        keys=["user_id"])


def rolling_active_users(sf_dir: str, window_days: int = 7
                         ) -> ray.data.Dataset:
    """ROLLING window engagement: for every calendar day with at least
    one event, the count of distinct users active in the trailing
    ``window_days`` (day inclusive) — the standard WAU/MAU-style
    rolling-distinct metric that a plain groupby cannot express
    (distinct is not decomposable across window positions). Returns
    (day, n_active_7d), one row per observed day.

    Scale shape: ONE hash shuffle on user_id over block-level DISTINCT
    (user, day) partials — each user's active-day set lands whole in
    one partition, so the partition merges each user's [d, d+w-1]
    coverage intervals and scatters them into a difference array over
    the partition's day span (one cumsum -> per-day user counts,
    disjoint across partitions by construction); only O(day-span) rows
    per partition reach the driver, which sums counts and masks to
    globally observed days. Calendar days are inherently bounded, so
    every fold is tiny at any data scale."""

    day_us = np.int64(86_400_000_000)
    w = np.int64(window_days)

    def pair_partial(t: pa.Table) -> pa.Table:
        """Block-level distinct (user, day) — shrinks the exchange to
        at most users x days rows per block."""
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        day = (t.column("ts").cast(pa.int64())
               .to_numpy(zero_copy_only=False) // day_us)
        pairs = np.unique(np.stack([uid, day], axis=1), axis=0)
        return pa.table({"user_id": pa.array(pairs[:, 0]),
                         "day": pa.array(pairs[:, 1])})

    def per_part(t: pa.Table) -> pa.Table:
        empty = pa.table({"day": pa.array([], pa.int64()),
                          "n_users": pa.array([], pa.int64()),
                          "observed": pa.array([], pa.int8())})
        if t.num_rows == 0:
            return empty
        pairs = np.unique(np.stack(
            [t.column("user_id").to_numpy(zero_copy_only=False),
             t.column("day").to_numpy(zero_copy_only=False)], axis=1),
            axis=0)
        pu, pd_ = pairs[:, 0], pairs[:, 1]
        # merge each user's [d, d+w-1] intervals: a day's NEW coverage
        # starts after the previous active day's window ends
        prev_end = np.concatenate([[np.int64(-2**62)], pd_[:-1] + w - 1])
        same = np.concatenate([[False], pu[1:] == pu[:-1]])
        cov_lo = np.where(same, np.maximum(pd_, prev_end + 1), pd_)
        cov_hi = pd_ + w - 1
        base = pd_.min()
        span = int(pd_.max() + w - base)
        diff = np.zeros(span + 1, np.int64)
        np.add.at(diff, (cov_lo - base).astype(np.intp), 1)
        np.add.at(diff, (cov_hi + 1 - base).astype(np.intp), -1)
        counts = np.cumsum(diff[:-1])
        days = base + np.arange(span, dtype=np.int64)
        nz = counts > 0
        obs_days = np.unique(pd_)
        observed = np.zeros(span, np.int8)
        observed[(obs_days - base).astype(np.intp)] = 1
        return pa.table({"day": pa.array(days[nz]),
                         "n_users": pa.array(counts[nz]),
                         "observed": pa.array(observed[nz])})

    from .analytics import _concat_nonempty
    ds = read_events(sf_dir, columns=["user_id", "ts"])
    parts = exchange.file_exchange_map_groups(
        ds.map_batches(pair_partial, batch_format="pyarrow"), per_part,
        keys=["user_id"])
    pt = _concat_nonempty(parts, pa.table({
        "day": pa.array([], pa.int64()),
        "n_users": pa.array([], pa.int64()),
        "observed": pa.array([], pa.int8())}))
    day = pt.column("day").to_numpy(zero_copy_only=False)
    order = np.argsort(day, kind="stable")
    day = day[order]
    n = pt.column("n_users").to_numpy(zero_copy_only=False)[order]
    ob = pt.column("observed").to_numpy(zero_copy_only=False)[order]
    starts = np.flatnonzero(np.concatenate([[True], day[1:] != day[:-1]])) \
        if len(day) else np.empty(0, np.intp)
    udays = day[starts] if len(day) else day
    sums = np.add.reduceat(n, starts) if len(day) else n
    seen = (np.maximum.reduceat(ob, starts) > 0) if len(day) \
        else np.zeros(0, bool)
    return ray.data.from_arrow(pa.table({
        "day": pa.array(udays[seen] * day_us).cast(pa.timestamp("us")),
        "n_active_7d": pa.array(sums[seen]),
    }))


def value_stats_by_type(sf_dir: str) -> ray.data.Dataset:
    """Grouped moment statistics: per event_type the count, sum, sum of
    squares, min and max of ``value`` in integer cents (floor(v*100+0.5)
    per row, the shared convention) — enough for exact mean/variance
    downstream without ever shipping a float. Returns (event_type, n,
    sum_c, sumsq_c, min_c, max_c).

    Scale shape: per-block Arrow group_by partials (≤ #types rows per
    block), driver fold of O(types × blocks) tiny rows with a second
    group_by carrying the min/max merges — zero exchanges (the
    bounded-rollup economics measured in BASELINE.md). sumsq is
    int64-exact up to ~3.7·10^9 rows per type (cents ≤ ~5·10^4 ⇒
    squares ≤ 2.5·10^9; int64 max / 2.5·10^9 ≈ 3.7·10^9) — beyond
    that a deployment must shard the fold by (type, row-range) and
    carry the partials as decimal128, which Arrow sums exactly; this
    single-fold path does not, by design, so the bound is the
    contract, not a latent surprise."""

    def partial(t: pa.Table) -> pa.Table:
        v_c = np.floor(t.column("value").to_numpy(zero_copy_only=False)
                       * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"event_type": t.column("event_type"),
                      "n": pa.array(np.ones(t.num_rows, np.int64)),
                      "sum_c": pa.array(v_c),
                      "sumsq_c": pa.array(v_c * v_c),
                      "min_c": pa.array(v_c),
                      "max_c": pa.array(v_c)})
        agg = g.group_by("event_type").aggregate(
            [("n", "sum"), ("sum_c", "sum"), ("sumsq_c", "sum"),
             ("min_c", "min"), ("max_c", "max")])
        return pa.table({"event_type": agg.column("event_type"),
                         "n": agg.column("n_sum"),
                         "sum_c": agg.column("sum_c_sum"),
                         "sumsq_c": agg.column("sumsq_c_sum"),
                         "min_c": agg.column("min_c_min"),
                         "max_c": agg.column("max_c_max")})

    from .analytics import _concat_nonempty
    ds = read_events(sf_dir, columns=["event_type", "value"])
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "sum_c": pa.array([], pa.int64()),
                      "sumsq_c": pa.array([], pa.int64()),
                      "min_c": pa.array([], pa.int64()),
                      "max_c": pa.array([], pa.int64())})
    pt = _concat_nonempty(ds.map_batches(partial, batch_format="pyarrow"),
                          empty)
    agg = pt.group_by("event_type").aggregate(
        [("n", "sum"), ("sum_c", "sum"), ("sumsq_c", "sum"),
         ("min_c", "min"), ("max_c", "max")])
    return ray.data.from_arrow(pa.table({
        "event_type": agg.column("event_type"),
        "n": agg.column("n_sum"),
        "sum_c": agg.column("sum_c_sum"),
        "sumsq_c": agg.column("sumsq_c_sum"),
        "min_c": agg.column("min_c_min"),
        "max_c": agg.column("max_c_max")}))


def rolling_window_sum(sf_dir: str, window: int = 7) -> ray.data.Dataset:
    """Bounded sliding window: per-user trailing ``window``-row sum of
    ``value`` (integer cents) in (ts, event_id) order — SQL's
    ``sum(v_c) OVER (PARTITION BY user_id ORDER BY ts, event_id ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW)``. Returns (event_id,
    user_id, ts, value_c, rolling_c).

    Scale shape (same as running_total): ONE hash shuffle on user_id;
    within a partition one lexsort orders every user's stream, the
    within-user running sum comes from one global cumsum minus segment
    bases, and the trailing window is ``running[i] - running[i-window]``
    wherever the row is ≥ window deep into its segment (vectorized mask;
    shallow rows keep the full running prefix) — no per-user loop."""

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        val = t.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, eid = uid[order], eid[order]
        v_c = np.floor(val[order] * 100.0 + 0.5).astype(np.int64)
        cs = np.cumsum(v_c)
        n = len(uid)
        new_user = np.ones(n, bool)
        new_user[1:] = uid[1:] != uid[:-1]
        seg_id = np.cumsum(new_user) - 1
        starts = np.flatnonzero(new_user)
        base = cs[starts] - v_c[starts]
        running = cs - base[seg_id]
        pos = np.arange(n) - starts[seg_id]
        rolling = running.copy()
        deep = pos >= window
        idx = np.flatnonzero(deep)
        rolling[idx] -= running[idx - window]
        sel = pa.array(order)
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "ts": t.column("ts").take(sel),
            "value_c": pa.array(v_c),
            "rolling_c": pa.array(rolling),
        })

    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts",
                                      "value"])
    return exchange.file_exchange_map_groups(ds, per_part,
                                             keys=["user_id"])


def event_type_pivot(sf_dir: str, bucket_width: int = 10,
                     types: tuple[str, ...] = ("click", "error",
                                               "purchase", "signup",
                                               "view")
                     ) -> ray.data.Dataset:
    """Wide pivot / crosstab: events bucketed by ``user_id //
    bucket_width``, one output ROW per bucket with one COLUMN per event
    type carrying that bucket's count (types outside the fixed list are
    dropped — the column set must be static for a stable schema).
    Returns (user_bucket, n_<type>...).

    Scale shape: per-block (bucket, type) count partials — the narrow
    tall form — fold driver-side (O(buckets × types × blocks) tiny
    rows) and pivot wide ONCE at the end via a searchsorted scatter into
    a dense (buckets × types) matrix. At 100 TB the bucket width is the
    knob: the driver fold holds (distinct buckets × 5) rows, so size
    bucket_width to keep that in the usual bounded-rollup regime; the
    events table itself is never exchanged."""

    def partial(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        g = pa.table({"user_bucket": pa.array(uid // bucket_width),
                      "event_type": t.column("event_type"),
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        agg = g.group_by(["user_bucket", "event_type"]).aggregate(
            [("n", "sum")])
        return pa.table({"user_bucket": agg.column("user_bucket"),
                         "event_type": agg.column("event_type"),
                         "n": agg.column("n_sum")})

    from .analytics import _concat_nonempty
    ds = read_events(sf_dir, columns=["user_id", "event_type"])
    empty = pa.table({"user_bucket": pa.array([], pa.int64()),
                      "event_type": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})
    pt = _concat_nonempty(ds.map_batches(partial, batch_format="pyarrow"),
                          empty)
    bk = pt.column("user_bucket").to_numpy(zero_copy_only=False)
    tp = pt.column("event_type").to_numpy(zero_copy_only=False)
    nn = pt.column("n").to_numpy(zero_copy_only=False)
    ubuckets = np.unique(bk)
    mat = np.zeros((len(ubuckets), len(types)), np.int64)
    for j, tname in enumerate(types):
        m = tp == tname
        if m.any():
            rows = np.searchsorted(ubuckets, bk[m])
            np.add.at(mat[:, j], rows, nn[m])
    cols = {"user_bucket": pa.array(ubuckets)}
    for j, tname in enumerate(types):
        cols[f"n_{tname}"] = pa.array(mat[:, j])
    return ray.data.from_arrow(pa.table(cols))


def lead_lag_values(sf_dir: str) -> ray.data.Dataset:
    """LAG/LEAD projection: per event, the previous and next ``value``
    (integer cents) of the SAME user in (ts, event_id) order — nulls at
    each user's stream boundaries. Returns (event_id, user_id, value_c,
    prev_value_c, next_value_c).

    Scale shape (running_total's): ONE user-hash exchange, one lexsort
    per partition, both neighbors from shifted views with segment-start
    /-end masks — no per-user loop; nulls are real Arrow nulls."""

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        val = t.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, eid = uid[order], eid[order]
        v_c = np.floor(val[order] * 100.0 + 0.5).astype(np.int64)
        n = len(uid)
        first = np.ones(n, bool)
        first[1:] = uid[1:] != uid[:-1]
        last = np.ones(n, bool)
        last[:-1] = first[1:]
        prev = np.roll(v_c, 1)
        nxt = np.roll(v_c, -1)
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "value_c": pa.array(v_c),
            "prev_value_c": pa.array(
                np.ma.masked_array(prev, mask=first)),
            "next_value_c": pa.array(
                np.ma.masked_array(nxt, mask=last)),
        })

    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts",
                                      "value"])
    return exchange.file_exchange_map_groups(ds, per_part,
                                             keys=["user_id"])


def mode_value_by_type(sf_dir: str) -> ray.data.Dataset:
    """Grouped MODE: per event_type the most frequent ``value`` in
    integer cents (ties to the smallest value) and its count. Returns
    (event_type, mode_c, n).

    Scale shape: per-block (type, v_c) count partials, ONE
    co-partitioned sum keyed by (type, v_c) — the count domain is
    bounded by distinct cent values × types, measured sublinear (the
    exact_quantiles economics) — then each output block's local argmax
    (≤ types rows) folds driver-side; the events table itself never
    shuffles."""

    def partial(t: pa.Table) -> pa.Table:
        v_c = np.floor(t.column("value").to_numpy(zero_copy_only=False)
                       * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"event_type": t.column("event_type"),
                      "v_c": pa.array(v_c),
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        agg = g.group_by(["event_type", "v_c"]).aggregate([("n", "sum")])
        return pa.table({"event_type": agg.column("event_type"),
                         "v_c": agg.column("v_c"),
                         "n": agg.column("n_sum")})

    def local_argmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "v_c": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        ty = t.column("event_type").to_numpy(zero_copy_only=False)
        v = t.column("v_c").to_numpy(zero_copy_only=False)
        n = t.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, -n, ty))
        ty, v, n = ty[order], v[order], n[order]
        first = np.ones(len(ty), bool)
        first[1:] = ty[1:] != ty[:-1]
        return pa.table({"event_type": pa.array(ty[first]),
                         "v_c": pa.array(v[first]),
                         "n": pa.array(n[first])})

    from ..stages.exchange import fx_sum_by
    from .analytics import _concat_nonempty
    ds = read_events(sf_dir, columns=["event_type", "value"])
    counts = fx_sum_by(ds.map_batches(partial, batch_format="pyarrow"),
                       ["event_type", "v_c"], ["n"])
    cand = _concat_nonempty(
        counts.map_batches(local_argmax, batch_format="pyarrow"),
        pa.table({"event_type": pa.array([], pa.string()),
                  "v_c": pa.array([], pa.int64()),
                  "n": pa.array([], pa.int64())}))
    ty = cand.column("event_type").to_numpy(zero_copy_only=False)
    v = cand.column("v_c").to_numpy(zero_copy_only=False)
    n = cand.column("n").to_numpy(zero_copy_only=False)
    order = np.lexsort((v, -n, ty))
    ty, v, n = ty[order], v[order], n[order]
    first = np.ones(len(ty), bool)
    if len(ty):
        first[1:] = ty[1:] != ty[:-1]
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(ty[first]),
        "mode_c": pa.array(v[first]),
        "n": pa.array(n[first])}))


def props_key_stats(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured extraction rollup: parse the JSON ``props``
    column (one object per event), pull the integer ``k`` field and
    aggregate per event_type — n (non-null ks), sum, min, max. Returns
    (event_type, n, sum_k, min_k, max_k).

    Scale shape: parsing is VECTORIZED — the batch's props strings are
    joined into one newline-delimited buffer with a single Arrow
    binary_join kernel and handed to pyarrow.json's C++ reader (no
    per-row Python json.loads); per-block per-type partials fold
    driver-side (bounded rollup), the events table never shuffles.
    Rows with null/malformed-for-k props contribute to no aggregate
    (SQL count(k) semantics)."""
    import pyarrow.json as pajson

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"event_type": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64()),
                          "sum_k": pa.array([], pa.int64()),
                          "min_k": pa.array([], pa.int64()),
                          "max_k": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        col = pc.fill_null(t.column("props"), "{}").combine_chunks()
        lst = pa.ListArray.from_arrays(
            pa.array([0, len(col)], pa.int32()), col)
        # join in binary space and hand the scalar's own buffer to the
        # JSON reader — no str round-trip (as_py + encode would copy
        # the whole payload twice more per batch)
        buf = pc.binary_join(
            lst.cast(pa.list_(pa.binary())), b"\n")[0].as_buffer()
        parsed = pajson.read_json(
            pa.BufferReader(buf),
            parse_options=pajson.ParseOptions(newlines_in_values=True))
        if parsed.num_rows != t.num_rows:
            raise ValueError(
                f"props JSON parse desync: {parsed.num_rows} objects "
                f"from {t.num_rows} rows (malformed props?)")
        if "k" not in parsed.column_names:
            return empty
        k = parsed.column("k")
        if not pa.types.is_integer(k.type):
            k = k.cast(pa.int64())
        valid = pc.is_valid(k)
        g = pa.table({"event_type": t.column("event_type"),
                      "k": k,
                      "one": valid.cast(pa.int64())}).filter(valid)
        if g.num_rows == 0:
            return empty
        agg = g.group_by("event_type").aggregate(
            [("one", "sum"), ("k", "sum"), ("k", "min"), ("k", "max")])
        return pa.table({"event_type": agg.column("event_type"),
                         "n": agg.column("one_sum"),
                         "sum_k": agg.column("k_sum"),
                         "min_k": agg.column("k_min"),
                         "max_k": agg.column("k_max")})

    from .analytics import _concat_nonempty
    ds = read_events(sf_dir, columns=["event_type", "props"])
    pt = _concat_nonempty(
        ds.map_batches(partial, batch_format="pyarrow"),
        pa.table({"event_type": pa.array([], pa.string()),
                  "n": pa.array([], pa.int64()),
                  "sum_k": pa.array([], pa.int64()),
                  "min_k": pa.array([], pa.int64()),
                  "max_k": pa.array([], pa.int64())}))
    agg = pt.group_by("event_type").aggregate(
        [("n", "sum"), ("sum_k", "sum"), ("min_k", "min"),
         ("max_k", "max")])
    return ray.data.from_arrow(pa.table({
        "event_type": agg.column("event_type"),
        "n": agg.column("n_sum"),
        "sum_k": agg.column("sum_k_sum"),
        "min_k": agg.column("min_k_min"),
        "max_k": agg.column("max_k_max")}))


def interval_join_pairs(sf_dir: str, left_type: str = "click",
                        right_type: str = "purchase",
                        window_minutes: int = 60) -> ray.data.Dataset:
    """INTERVAL JOIN (stream-stream windowed join, Flink semantics):
    every (left, right) event pair of the same user where the right
    event lands in ``[left.ts, left.ts + window)`` — ALL pairs, not
    just the nearest (that one is ``asof_join_prior``). Returns
    (user_id, left_id, right_id, gap_us).

    Scale shape: ONE user-hash exchange co-locates each user's full
    stream; per partition both sides sort once by composite (user rank,
    ts, event_id) and each left row finds its right-window via TWO
    segmented searchsorteds — emission is the vectorized repeat of
    window widths, so cost is O(n log n + output), no per-user loop.
    Output size is bounded by the window (pairs-per-left ≤ right events
    in one hour), the inherent interval-join blowup knob."""

    win_us = np.int64(window_minutes) * 60_000_000

    def narrow(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array([left_type, right_type]))
        return t.filter(keep)

    def per_part(t: pa.Table) -> pa.Table:
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "left_id": pa.array([], pa.int64()),
                          "right_id": pa.array([], pa.int64()),
                          "gap_us": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        typ = t.column("event_type").to_numpy(zero_copy_only=False)
        is_l = typ == left_type
        is_r = typ == right_type
        le, lt, lu = eid[is_l], ts[is_l], uid[is_l]
        re_, rt, ru = eid[is_r], ts[is_r], uid[is_r]
        if len(lt) == 0 or len(rt) == 0:
            return empty
        ro = np.lexsort((re_, rt, ru))
        re_, rt, ru = re_[ro], rt[ro], ru[ro]

        # merge-rank segmented searchsorted: position of each (user,
        # value) query among the (user, ts)-sorted rights via ONE
        # lexsort over the union — no user_rank*span composite key,
        # which overflows int64 when users-per-partition x time-span
        # is large (the 100-TB regime)
        def seg_pos(qv: np.ndarray, queries_first: bool) -> np.ndarray:
            m, q = len(ru), len(qv)
            u_all = np.concatenate([ru, lu])
            v_all = np.concatenate([rt, qv])
            # tie tag: queries sort before equal rights for side=left
            # (queries_first), after them for side=right
            tag = np.empty(m + q, dtype=np.int8)
            tag[:m] = 1 if queries_first else 0
            tag[m:] = 0 if queries_first else 1
            order = np.lexsort((tag, v_all, u_all))
            is_q = order >= m
            n_rights_before = np.cumsum(~is_q)
            out = np.empty(q, dtype=np.int64)
            out[order[is_q] - m] = n_rights_before[is_q]
            return out

        lo = seg_pos(lt, queries_first=True)           # side="left"
        hi = seg_pos(lt + win_us, queries_first=False)  # side="right"
        cnt = hi - lo
        if cnt.sum() == 0:
            return empty
        li = np.repeat(np.arange(len(lt)), cnt)
        csum = np.concatenate([[0], np.cumsum(cnt)])
        ri = np.repeat(lo, cnt) + (np.arange(len(li))
                                   - np.repeat(csum[:-1], cnt))
        return pa.table({
            "user_id": pa.array(lu[li]),
            "left_id": pa.array(le[li]),
            "right_id": pa.array(re_[ri]),
            "gap_us": pa.array(rt[ri] - lt[li]),
        })

    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts",
                                      "event_type"])
    return exchange.file_exchange_map_groups(
        ds.map_batches(narrow, batch_format="pyarrow"), per_part,
        keys=["user_id"], empty_result=pa.table({
                "user_id": pa.array([], pa.int64()),
                "left_id": pa.array([], pa.int64()),
                "right_id": pa.array([], pa.int64()),
                "gap_us": pa.array([], pa.int64())}))


def _median_mad_table(sf_dir: str) -> pa.Table:
    """(event_type, median_c, mad_c) with ``quantile_disc`` rank
    semantics: median m = element at rank ceil(n/2), MAD = median of
    |v − m|. Shared by ``mad_by_type`` and ``value_outliers``.

    Scale shape: a DEPENDENT two-pass statistic computed from ONE
    exchange — the same bounded (type, value_c) histogram as
    exact_quantiles_by_type; the second "pass" (|v−m| distribution) is
    pure driver arithmetic over the histogram rows (mirror-fold around
    m + reduceat), so the events never move twice."""
    from ..stages.exchange import fx_sum_by

    def partial(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        g = pa.table({
            "event_type": t.column("event_type"),
            "value_c": pa.array(np.floor(v * 100.0 + 0.5)
                                .astype(np.int64)),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
        })
        agg = g.group_by(["event_type", "value_c"]).aggregate(
            [("n", "sum")])
        return pa.table({
            "event_type": agg.column("event_type"),
            "value_c": agg.column("value_c"),
            "n": agg.column("n_sum"),
        })

    hist = fx_sum_by(
        read_events(sf_dir, columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "value_c"], ["n"]
    ).to_pandas()                    # bounded: domain x types rows
    out_t, out_m, out_d = [], [], []
    for et, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("value_c")
        vals = g["value_c"].to_numpy()
        cnt = g["n"].to_numpy()
        cum = cnt.cumsum()
        n = int(cum[-1])
        med = int(vals[np.searchsorted(cum, max(1, int(np.ceil(0.5 * n))),
                                       side="left")])
        dev = np.abs(vals - med)
        order = np.argsort(dev, kind="stable")
        dev, dcnt = dev[order], cnt[order]
        starts = np.flatnonzero(np.concatenate(
            [[True], dev[1:] != dev[:-1]]))
        du = dev[starts]
        dc = np.add.reduceat(dcnt, starts)
        dcum = dc.cumsum()
        mad = int(du[np.searchsorted(dcum, max(1, int(np.ceil(0.5 * n))),
                                     side="left")])
        out_t.append(et)
        out_m.append(med)
        out_d.append(mad)
    return pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "median_c": pa.array(out_m, pa.int64()),
        "mad_c": pa.array(out_d, pa.int64()),
    })


def mad_by_type(sf_dir: str) -> ray.data.Dataset:
    """Median absolute deviation per event_type (robust spread) —
    see ``_median_mad_table`` for semantics and scale shape."""
    return ray.data.from_arrow(_median_mad_table(sf_dir))


def value_outliers(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    """Robust per-type outlier detection: flag events where
    |value_c − median_c| > k·mad_c (the k-MAD rule — the
    quality-monitoring staple, robust where a z-score rule is wrecked
    by the outliers it hunts). All integer arithmetic, so the SQL
    oracle reproduces every flag bit-exactly. Returns the flagged rows
    (event_id, event_type, value_c, dev_c).

    Scale shape: the bounded-histogram exchange yields the per-type
    (median, mad) constants (#types rows — driver-held by nature);
    they ride the flag closure into ONE streaming filter pass over the
    column-pruned events read. No second exchange, no driver rows
    beyond the constants."""
    stats = _median_mad_table(sf_dir)
    types = np.array(stats.column("event_type").to_pylist())
    order = np.argsort(types)
    types = types[order]
    meds = stats.column("median_c").to_numpy()[order]
    mads = stats.column("mad_c").to_numpy()[order]

    def flag(t: pa.Table) -> pa.Table:
        v = np.floor(t.column("value").to_numpy(zero_copy_only=False)
                     * 100.0 + 0.5).astype(np.int64)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(types, et)
        dev = np.abs(v - meds[pos])
        keep = dev > k * mads[pos]
        return pa.table({
            "event_id": t.column("event_id").filter(pa.array(keep)),
            "event_type": t.column("event_type").filter(pa.array(keep)),
            "value_c": pa.array(v[keep]),
            "dev_c": pa.array(dev[keep]),
        })

    return (read_events(sf_dir, columns=["event_id", "event_type",
                                         "value"])
            .map_batches(flag, batch_format="pyarrow"))


def late_events(sf_dir: str, lateness_minutes: int = 10,
                num_partitions: int = 16,
                arrival: str = "event_id") -> ray.data.Dataset:
    """Event-time WATERMARK accounting — the Flink
    bounded-out-of-orderness semantic the reference's offset-ordered
    log implies (arrival order = event_id, event time = ts, exactly
    aqueduct-core's offset-vs-created split, Message.java:14-34): the
    watermark before event ``i`` is ``max(ts) over event_id < i``
    minus the allowed lateness; event ``i`` is LATE iff its ts falls
    below that. Returns per event_type: n_events, n_late, max_late_us
    (how far past the watermark the worst straggler arrived; 0 when
    none are late).

    ``arrival`` picks the arrival order: ``"event_id"`` (the natural
    log order — zero late rows on an already-sorted log) or ``"md5"``
    (arrival = md5('arr|' || event_id) lexicographic order — a
    DETERMINISTIC adversarial replay both engines reproduce, so the
    late path is actually exercised and oracle-checked; same md5-order
    trick as sampling.train_val_split).

    Scale shape: a GLOBAL running max over arrival order is the same
    distributed prefix scan as byte_cap_prefix — (1) one narrow pass
    folds per-arrival-range max-ts partials (bounded: ranges x blocks
    rows), (2) the driver prefix-maxes the <= P range summaries
    (exclusive), (3) one co-partitioned exchange keyed by range seeds
    each range with its prefix and computes every row's watermark with
    a single vectorized running max — no global sort, no driver data.
    Natural-order range ids come from parquet row-group statistics
    (zero data read; on the live lake the manifest's watermark supplies
    them for free); md5-order ranges are the first hex nibble (the hex
    space is uniform, so ranges are balanced by construction)."""
    import pyarrow.parquet as pq

    from ..functions.sampling import _md5_hex

    late_us = np.int64(lateness_minutes) * np.int64(60_000_000)

    if arrival == "md5":
        span = None
        n_rng = 16                          # first hex nibble

        def _rng_key(t: pa.Table):
            ak = _md5_hex("arr|", t.column("event_id"))
            rng = np.array([int(a[0], 16) for a in ak], np.int64)
            return rng, ak
    else:
        # max event_id from row-group stats — metadata only. Resolve
        # the physical column index BY NAME (writers may reorder
        # columns) and fall back to a data scan when a writer omitted
        # statistics.
        pf = pq.ParquetFile(f"{sf_dir}/events.parquet")
        ci = pf.schema_arrow.get_field_index("event_id")
        if ci < 0:
            raise ValueError("events.parquet has no event_id column")
        stats = [pf.metadata.row_group(i).column(ci).statistics
                 for i in range(pf.metadata.num_row_groups)]
        if all(s is not None and s.has_min_max for s in stats):
            max_id = max(int(s.max) for s in stats)
        else:
            import pyarrow.compute as _pc
            max_id = int(_pc.max(
                pq.read_table(f"{sf_dir}/events.parquet",
                              columns=["event_id"])
                .column("event_id")).as_py())
        span = max(1, (int(max_id) + num_partitions) // num_partitions)
        n_rng = num_partitions

        def _rng_key(t: pa.Table):
            eid = t.column("event_id").to_numpy(zero_copy_only=False)
            rng = np.minimum(eid // span, n_rng - 1)
            return rng, eid

    def range_max_partial(t: pa.Table) -> pa.Table:
        rng, _ = _rng_key(t)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.argsort(rng, kind="stable")
        r_s, t_s = rng[order], ts[order]
        starts = np.flatnonzero(
            np.concatenate([[True], r_s[1:] != r_s[:-1]]))
        return pa.table({
            "rng": pa.array(r_s[starts].astype(np.int32)),
            "mx": pa.array(np.maximum.reduceat(t_s, starts)),
        })

    events = f"{sf_dir}/events.parquet"
    parts = [t for t in ray.get(exchange.map_blocks(
        exchange.leaf(events, ["event_id", "ts"]), range_max_partial))
        if t.num_rows]
    range_max = np.full(n_rng, np.iinfo(np.int64).min, np.int64)
    for t in parts:
        r = t.column("rng").to_numpy(zero_copy_only=False)
        m = t.column("mx").to_numpy(zero_copy_only=False)
        np.maximum.at(range_max, r, m)
    # exclusive prefix max: the watermark carried INTO each range
    prefix = np.full(n_rng, np.iinfo(np.int64).min, np.int64)
    np.maximum.accumulate(range_max[:-1], out=prefix[1:])

    def tag(t: pa.Table) -> pa.Table:
        rng, _ = _rng_key(t)
        return t.append_column("part", pa.array(rng.astype(np.int32)))

    def per_range(g: pa.Table) -> pa.Table:
        _, key = _rng_key(g)
        ts = g.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.argsort(key, kind="stable")
        ts_o = ts[order]
        rng = int(g.column("part")[0].as_py())
        # watermark BEFORE each row: running max over prior rows,
        # seeded with the exclusive cross-range prefix
        wm = np.empty(len(ts_o), np.int64)
        wm[0] = prefix[rng]
        if len(ts_o) > 1:
            np.maximum.accumulate(ts_o[:-1], out=wm[1:])
            np.maximum(wm[1:], prefix[rng], out=wm[1:])
        has_wm = wm != np.iinfo(np.int64).min
        late = has_wm & (ts_o + late_us < wm)
        lag = np.where(late, wm - late_us - ts_o, 0)
        et = g.column("event_type").take(pa.array(order))
        part = pa.table({
            "event_type": et,
            "one": pa.array(np.ones(len(ts_o), np.int64)),
            "n_late": pa.array(late.astype(np.int64)),
            "max_late_us": pa.array(lag.astype(np.int64)),
        })
        agg = part.group_by("event_type").aggregate(
            [("one", "sum"), ("n_late", "sum"), ("max_late_us", "max")])
        return pa.table({
            "event_type": agg.column("event_type"),
            "n_events": agg.column("one_sum"),
            "n_late": agg.column("n_late_sum"),
            "max_late_us": agg.column("max_late_us_max"),
        })

    ranged = exchange.file_exchange_map_groups(
        exchange.leaf(events, ["event_id", "ts", "event_type"]),
        per_range, pre=tag)
    # fold the <= P x #types partials: sums re-fold, max re-folds
    return ray.data.from_arrow_refs(exchange.fx_agg_by(
        ranged.refs, ["event_type"],
        [("n_events", "sum"), ("n_late", "sum"),
         ("max_late_us", "max")]).refs)


def session_paths(sf_dir: str, gap_minutes: int = 30, k: int = 10,
                  max_len: int = 5) -> ray.data.Dataset:
    """Top-``k`` most common session JOURNEYS: each session's first
    ``max_len`` event types joined with '>' (the funnel/path-mining
    staple — "what do users actually do in a visit"). Sessions follow
    the same gap rule as ``sessionize``; ties break by path asc.
    Returns (path, cnt, rk).

    Scale shape: one hash shuffle on user_id co-locates each user's
    stream; a single per-partition lexsort + shifted-gap pass assigns
    session ids, and the path strings build in ``max_len`` VECTORIZED
    object-array concatenations (a (sessions x max_len) position
    scatter — no per-session join loop). Path counts fold over one
    hash(path) exchange; each path's final count lives in one block,
    so a per-block local top-k bounds the driver fold at k x blocks."""

    gap_us = np.int64(gap_minutes) * 60_000_000

    def per_part(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        ety = t.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts, ety = uid[order], ts[order], ety[order]
        new_user = np.ones(len(uid), bool)
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.ones(len(uid), bool)
        gap[1:] = (ts[1:] - ts[:-1]) > gap_us
        starts = new_user | gap
        sid = np.cumsum(starts) - 1            # dense session index
        # position within session: 0..len-1 via global arange minus
        # each session's start offset
        pos = np.arange(len(uid)) - np.flatnonzero(starts)[sid]
        keep = pos < max_len
        n_sess = int(sid[-1]) + 1 if len(sid) else 0
        mat = np.full((n_sess, max_len), "", object)
        mat[sid[keep], pos[keep]] = ety[keep]
        path = mat[:, 0].copy()
        for j in range(1, max_len):
            has = mat[:, j] != ""
            if has.any():
                path[has] = path[has] + ">" + mat[has, j]
        agg = (pa.table({"path": pa.array(path, pa.string())})
               .group_by("path").aggregate([("path", "count")]))
        return pa.table({"path": agg.column("path"),
                         "cnt": agg.column("path_count").cast(pa.int64())})

    def local_topk(t: pa.Table) -> pa.Table:
        cnt = t.column("cnt").to_numpy(zero_copy_only=False)
        pth = t.column("path").to_numpy(zero_copy_only=False)
        order = np.lexsort((pth, -cnt))[:k]
        sel = pa.array(order)
        return pa.table({"path": t.column("path").take(sel),
                         "cnt": t.column("cnt").take(sel)})

    from ..stages.exchange import fx_sum_by
    ds = read_events(sf_dir, columns=["event_id", "user_id", "ts",
                                      "event_type"])
    counted = fx_sum_by(
        exchange.file_exchange_map_groups(ds, per_part, keys=["user_id"]),
        ["path"], ["cnt"]).map_batches(local_topk,
                                       batch_format="pyarrow")
    tabs = [t for t in collect_tables(counted) if t.num_rows]
    if not tabs:
        return ray.data.from_arrow(pa.table({
            "path": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
            "rk": pa.array([], pa.int64())}))
    cand = pa.concat_tables(tabs, promote_options="default")
    cnt = cand.column("cnt").to_numpy(zero_copy_only=False)
    pth = cand.column("path").to_numpy(zero_copy_only=False)
    order = np.lexsort((pth, -cnt))[:k]
    sel = pa.array(order)
    return ray.data.from_arrow(pa.table({
        "path": cand.column("path").take(sel),
        "cnt": cand.column("cnt").take(sel),
        "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    }))


def cumulative_users_by_day(sf_dir: str) -> ray.data.Dataset:
    """GROWTH ACCOUNTING: for each calendar day, how many DISTINCT
    users have been seen up to and including that day (the cumulative-
    adoption curve). Exact. Returns (day, new_users, cum_users) for
    every day with at least one first-seen user.

    Scale shape: "running distinct" collapses to "first-seen day per
    user" (distinct-ness is a per-user property): one hash exchange on
    user_id, per-partition vectorized min-reduce gives each user's
    first day, per-partition (day, new_users) histogram partials are
    BOUNDED (#days), and the driver folds + cumsums <= days rows. No
    global sort, no set state."""

    def per_part(g: pa.Table) -> pa.Table:
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        day = pc.floor_temporal(g.column("ts"), unit="day") \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((day, uid))
        u_s, d_s = uid[order], day[order]
        starts = np.flatnonzero(
            np.concatenate([[True], u_s[1:] != u_s[:-1]]))
        first_day = d_s[starts]                 # min day per user
        days, counts = np.unique(first_day, return_counts=True)
        return pa.table({"day_us": pa.array(days),
                         "new_users": pa.array(counts.astype(np.int64))})

    ds = read_events(sf_dir, columns=["user_id", "ts"])
    parts = [t for t in collect_tables(exchange.file_exchange_map_groups(
        ds, per_part, keys=["user_id"])) if t.num_rows]
    acc: dict = {}
    for t in parts:
        for d, n in zip(t.column("day_us").to_pylist(),
                        t.column("new_users").to_pylist()):
            acc[d] = acc.get(d, 0) + int(n)
    days = sorted(acc)
    new = np.array([acc[d] for d in days], np.int64)
    cum = np.cumsum(new)
    return ray.data.from_arrow(pa.table({
        "day": pa.array(days, pa.int64()).cast(pa.timestamp("us")),
        "new_users": pa.array(new),
        "cum_users": pa.array(cum),
    }))


def interp_quantiles_by_type(sf_dir: str,
                             qs: "tuple[float, ...]" = (0.25, 0.5,
                                                        0.9, 0.99)
                             ) -> ray.data.Dataset:
    """INTERPOLATED grouped quantiles (SQL ``quantile_cont`` semantics:
    linear interpolation at 0-based position ``q*(n-1)``) — the
    continuous companion to ``exact_quantiles_by_type``, sharing its
    bounded (type, value_c) histogram exchange (no sort, events never
    leave their blocks). Returns (event_type, q, value_mc) with the
    interpolated cents value quantized to MILLI-CENTS
    (floor(v * 1000 + 0.5)) so the SQL oracle matches."""
    from ..stages.exchange import fx_sum_by

    def partial(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        g = pa.table({
            "event_type": t.column("event_type"),
            "value_c": pa.array(np.floor(v * 100.0 + 0.5)
                                .astype(np.int64)),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
        })
        agg = g.group_by(["event_type", "value_c"]).aggregate(
            [("n", "sum")])
        return pa.table({
            "event_type": agg.column("event_type"),
            "value_c": agg.column("value_c"),
            "n": agg.column("n_sum"),
        })

    hist = fx_sum_by(
        read_events(sf_dir, columns=["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "value_c"], ["n"]
    ).to_pandas()                    # bounded: domain x types rows
    out_t, out_q, out_v = [], [], []
    for et, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("value_c")
        cum = g["n"].to_numpy().cumsum()
        vals = g["value_c"].to_numpy().astype(np.float64)
        n = int(cum[-1])
        for q in qs:
            pos = q * (n - 1)                  # double, both engines
            lo = int(np.floor(pos))
            frac = pos - lo
            v_lo = vals[np.searchsorted(cum, lo + 1, side="left")]
            v_hi = vals[np.searchsorted(cum, min(lo + 1, n - 1) + 1,
                                        side="left")]
            interp = v_lo + (v_hi - v_lo) * frac
            out_t.append(et)
            out_q.append(float(q))
            out_v.append(int(np.floor(interp * 1000.0 + 0.5)))
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(out_t, pa.string()),
        "q": pa.array(out_q, pa.float64()),
        "value_mc": pa.array(out_v, pa.int64()),
    }))


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "approx_distinct_users_by_type",
    "approx_quantiles_by_type",
    "asof_join_prior",
    "conversion_funnel",
    "cumulative_users_by_day",
    "distinct_users_by_type",
    "event_transitions",
    "event_type_pivot",
    "exact_quantiles_by_type",
    "hopping_window_counts",
    "inter_event_gaps",
    "interp_quantiles_by_type",
    "interval_join_pairs",
    "late_events",
    "lead_lag_values",
    "mad_by_type",
    "mode_value_by_type",
    "percentile_rank",
    "props_key_stats",
    "range_join_value_bands",
    "retention_cohorts",
    "rolling_active_users",
    "rolling_window_sum",
    "running_total",
    "session_paths",
    "sessionize",
    "tumbling_window_counts",
    "user_type_sets",
    "value_histogram",
    "value_outliers",
    "value_stats_by_type",
))
