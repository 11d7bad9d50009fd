"""Temporal and windowed operators over the events table (task mandate:
windowed aggregate, as-of join).

Every operator reads ``events.parquet`` through ``exchange.leaf(path,
columns, filter=)`` (type filters push down into the read), so no Ray
Data plan runs before the public ``from_arrow_refs`` boundary. Three
shapes cover the file:

- ordered per-user operators (running and rolling sums, lag / lead,
  gaps, sessions, paths, transitions, as-of and interval joins, the
  funnel, cohorts, rolling and cumulative users) are one
  ``exchange.window(leaf, ["user_id"], order_by, fn)``: a keyed
  exchange on user_id whose task sorts its rows ONCE and hands ``fn``
  the segment starts, so ``fn`` computes every user of the task in one
  vectorized pass (``seg_ids`` / ``seg_cumsum`` / ``seg_shift``) — no
  per-user Python call, no global sort. Skew is bounded by per-user
  history length, not stream length;
- bounded rollups (window counts, histograms, quantiles) fold a
  per-block partial, passed as ``pre=``, over ``fx_sum_by``: the
  exchange moves partial rows, never events;
- map-only and driver-fold operators run their per-block function as
  ``exchange.map_blocks`` raw tasks.

``late_events`` keeps its own arrival-order range exchange: a range is
seeded with a driver-side prefix, not routed by a key hash.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray
import ray.data

from ..stages import exchange
from ..stages.exchange import seg_cumsum, seg_ids, seg_shift
from .analytics import _cents, _concat_nonempty, _fold_partials

_DAY_US = 86_400_000_000
# the ordered operators' ORDER BY: event time, ties by arrival
_BY_TIME = ["ts", "event_id"]


def _events(sf_dir: str, columns: "list[str]", filter=None
            ) -> exchange.Leaf:
    return exchange.leaf(f"{sf_dir}/events.parquet", columns, filter=filter)


def _of_types(*types: str) -> pads.Expression:
    return pads.field("event_type").isin(list(types))


def _ds(out: "exchange.Exchanged | list") -> ray.data.Dataset:
    """The public boundary: an exchange's (or map's) refs as a Dataset."""
    return ray.data.from_arrow_refs(
        out.refs if isinstance(out, exchange.Exchanged) else out)


def _np(t: pa.Table, c: str) -> np.ndarray:
    """Column ``c`` as numpy (a timestamp as its int64 microseconds)."""
    col = t.column(c)
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.int64())
    return col.to_numpy(zero_copy_only=False)


def _count_rows(t: pa.Table, keys: "list[str]", name: str) -> pa.Table:
    """``COUNT(*)`` per distinct ``keys`` of ``t`` as the int64 ``name``."""
    agg = t.group_by(keys, use_threads=False).aggregate([([], "count_all")])
    return pa.table({**{k: agg.column(k) for k in keys},
                     name: agg.column("count_all")})


def _user_days(t: pa.Table) -> pa.Table:
    """Block-distinct (user_id, day) pairs, ``day`` = ts // 1 day."""
    return pa.table({"user_id": t.column("user_id"),
                     "day": pa.array(_np(t, "ts") // _DAY_US)}).group_by(
        ["user_id", "day"], use_threads=False).aggregate([])


def tumbling_window_counts(sf_dir: str, unit: str = "hour"
                           ) -> ray.data.Dataset:
    """Tumbling-window aggregate: events per (window, type) with the sum
    of `value` — the streaming-window staple. Window = date_trunc(unit).
    Per-block (window, type) partials fold over one keyed exchange: the
    group count grows with the time range, so no driver fold."""

    def prebucket(t: pa.Table) -> pa.Table:
        # integer cents: float sums are association-dependent and would
        # hash-mismatch a SQL oracle
        g = pa.table({
            "window_start": pc.floor_temporal(t.column("ts"), unit=unit),
            "event_type": t.column("event_type"),
            "cents": pa.array(_cents(t.column("value"))),
        })
        agg = g.group_by(["window_start", "event_type"]).aggregate(
            [("cents", "count"), ("cents", "sum")])
        return pa.table({          # by-name: aggregate column order is
            "window_start": agg.column("window_start"),  # version-dependent
            "event_type": agg.column("event_type"),
            "n_rows": agg.column("cents_count"),
            "sum_cents": agg.column("cents_sum"),
        })

    return _ds(exchange.fx_sum_by(
        _events(sf_dir, ["ts", "event_type", "value"]),
        ["window_start", "event_type"], ["n_rows", "sum_cents"],
        pre=prebucket))


def asof_join_prior(sf_dir: str, probe_type: str = "purchase",
                    build_type: str = "click") -> ray.data.Dataset:
    """As-of join: for every ``probe_type`` event, the most recent PRIOR
    ``build_type`` event of the same user (strictly earlier event_id),
    NULL when none exists. LEFT-join semantics.

    A window over the two types' rows ordered by event_id: a running
    max of build-row positions gives every probe its last build, valid
    when that build lies in the probe's own segment."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        eid = _np(t, "event_id")
        probe = _np(t, "event_type") == probe_type
        last = np.maximum.accumulate(
            np.where(probe, -1, np.arange(len(eid))))
        ok = last >= starts[seg_ids(starts, len(eid))]
        return pa.table({
            "event_id": eid[probe],
            "user_id": _np(t, "user_id")[probe],
            "last_prior": pa.array(eid[last][probe], mask=~ok[probe]),
        })

    return _ds(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "event_type"],
                _of_types(probe_type, build_type)),
        ["user_id"], ["event_id"], fn))


def hopping_window_counts(sf_dir: str, window_minutes: int = 60,
                          hop_minutes: int = 15) -> ray.data.Dataset:
    """SLIDING (hopping) windows: length ``window_minutes``, advancing
    every ``hop_minutes`` — each event lands in W/S overlapping windows
    (the other half of the streaming-window pair next to
    ``tumbling_window_counts``). Row-local window assignment via a
    vectorized repeat (duplication factor W/S), per-block combiner,
    then the same (window, type) fold — the exchange moves partial
    counts, never the W/S-amplified events."""
    k = window_minutes // hop_minutes
    hop_us = np.int64(hop_minutes) * 60_000_000

    def prebucket(t: pa.Table) -> pa.Table:
        ts = _np(t, "ts")
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

    return _ds(exchange.fx_sum_by(
        _events(sf_dir, ["ts", "event_type"]),
        ["window_start", "event_type"], ["n_rows"], pre=prebucket))


# deterministic value bands for the broadcast range join (mirrored
# verbatim in the SQL oracle's VALUES clause)
VALUE_BANDS = [("micro", 0.0, 1.0), ("small", 1.0, 10.0),
               ("medium", 10.0, 50.0), ("large", 50.0, 200.0),
               ("jumbo", 200.0, 1e9)]


def range_join_value_bands(sf_dir: str) -> ray.data.Dataset:
    """Broadcast RANGE join: events matched to a small interval table
    (``value ∈ [lo, hi)``) — the canonical small-side non-equi join. The
    band table is a closure broadcast; each block resolves membership
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

    return _ds(exchange.fx_sum_by(_events(sf_dir, ["value"]), ["band"],
                                  ["n_rows"], pre=bandify))


def sessionize(sf_dir: str, gap_minutes: int = 30) -> ray.data.Dataset:
    """Session windows per user: a new session starts when the gap to
    the user's previous event exceeds ``gap_minutes``. Returns
    (user_id, n_sessions, n_events) — the classic event-stream
    sessionization a training-data pipeline needs for behavioral
    filtering. One window ordered by (ts, event_id): a row opens a
    session when its LAG gap is over the limit or it has none."""
    gap_us = np.int64(gap_minutes) * 60_000_000

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = _np(t, "ts")
        new = ((ts - seg_shift(ts, starts)) > gap_us).filled(True)
        return pa.table({
            "user_id": _np(t, "user_id")[starts],
            "n_sessions": np.add.reduceat(new.astype(np.int64), starts),
            "n_events": np.diff(np.append(starts, len(ts))),
        })

    return _ds(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts"]), ["user_id"],
        _BY_TIME, fn))


def value_histogram(sf_dir: str, bucket_width_cents: int = 2500
                    ) -> ray.data.Dataset:
    """Equi-width histogram of `value` per event type (integer-cent
    buckets so the SQL oracle hashes identically): per-block partial
    counts (combiner), then a tiny (type, bucket) fold — the exchange
    moves histogram rows, never events."""

    def prebucket(t: pa.Table) -> pa.Table:
        g = pa.table({"event_type": t.column("event_type"),
                      "bucket": pa.array(_cents(t.column("value"))
                                         // bucket_width_cents)})
        return _count_rows(g, ["event_type", "bucket"], "n_rows")

    return _ds(exchange.fx_sum_by(
        _events(sf_dir, ["event_type", "value"]),
        ["event_type", "bucket"], ["n_rows"], pre=prebucket))


def _per_type(sf_dir: str, columns: "list[str]", partial, merge
              ) -> ray.data.Dataset:
    """``partial`` over every events block, then ``merge`` once per
    event type over the type's partial rows (one exchange keyed on
    event_type; a part loops over its few types)."""
    return _ds(exchange.file_exchange_map_groups(
        _events(sf_dir, columns),
        exchange.each_group(merge, ["event_type"]), keys=["event_type"],
        pre=partial))


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
        cents = np.maximum(_cents(t.column("value")), 1)
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
    ts, value_c, running_c): one window, one ``seg_cumsum``."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        v_c = _cents(t.column("value"))
        return t.select(["event_id", "user_id", "ts"]).append_column(
            "value_c", pa.array(v_c)).append_column(
            "running_c", pa.array(seg_cumsum(v_c, starts)))

    return _ds(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts", "value"]),
        ["user_id"], _BY_TIME, fn))


def inter_event_gaps(sf_dir: str) -> ray.data.Dataset:
    """LAG-window gap statistics: per user, the count of events and the
    sum / max of the microsecond gaps between CONSECUTIVE events in
    (ts, event_id) order — SQL's ``ts - lag(ts) OVER (PARTITION BY
    user_id ORDER BY ts, event_id)`` aggregated per user. Returns
    (user_id, n_events, sum_gap_us, max_gap_us); single-event users get
    zero gaps. One window: the LAG gap (0 on a user's first row), then
    one ``reduceat`` per statistic."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = _np(t, "ts")
        gap = (ts - seg_shift(ts, starts)).filled(0)
        return pa.table({
            "user_id": _np(t, "user_id")[starts],
            "n_events": np.diff(np.append(starts, len(ts))),
            "sum_gap_us": np.add.reduceat(gap, starts),
            "max_gap_us": np.maximum.reduceat(gap, starts),
        })

    return _ds(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts"]), ["user_id"],
        _BY_TIME, fn))


def _value_hist(sf_dir: str) -> pd.DataFrame:
    """The (event_type, value_c) -> n histogram of integer-cent values,
    on the driver: per-block partials fold over one exchange, bounded
    by the cents domain × types (measured: 100k event rows -> 18k
    distinct cents, sublinear), so events never sort and never leave
    their blocks. Shared by the exact quantile family and the mode."""

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"event_type": t.column("event_type"),
                      "value_c": pa.array(_cents(t.column("value")))})
        return _count_rows(g, ["event_type", "value_c"], "n")

    return _concat_nonempty(exchange.fx_sum_by(
        _events(sf_dir, ["event_type", "value"]), ["event_type", "value_c"],
        ["n"], pre=partial), pa.table({
            "event_type": pa.array([], pa.string()),
            "value_c": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64())})).to_pandas()


def exact_quantiles_by_type(sf_dir: str,
                            qs: tuple[float, ...] = (0.25, 0.5, 0.9, 0.99)
                            ) -> ray.data.Dataset:
    """EXACT grouped quantiles over integer-cent values — the exact
    companion to ``approx_quantiles_by_type``. Returns
    (event_type, q, value_c) with SQL ``quantile_disc`` semantics:
    the element at rank ``ceil(q·n)`` (1-based; verified against
    DuckDB's convention — both sides compute the same double product,
    so the rank can never disagree by an ulp). A MONEY column's domain
    is bounded, so the distribution is ``_value_hist`` and the
    quantiles a driver cumsum readout over it."""
    hist = _value_hist(sf_dir)
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
    shrink the stream to ≤ 2·users-per-block rows before ONE window on
    user_id, which folds each user's bits with a segmented bitwise-OR
    and classifies every user in one vectorized pass. Neither side is
    broadcast; output stays distributed."""
    # labels derive from the parameters (defaults keep the oracle's
    # click_only / purchase_only names)
    status_of = {3: "both", 1: f"{type_a}_only", 2: f"{type_b}_only"}

    def partial(t: pa.Table) -> pa.Table:
        typ = t.column("event_type").to_numpy(zero_copy_only=False)
        bits = np.where(typ == type_a, 1, 2).astype(np.int64)
        return pa.table({"user_id": t.column("user_id"),
                         "bit": pa.array(bits)}).group_by(
            ["user_id", "bit"], use_threads=False).aggregate([])

    def classify(t: pa.Table, starts: np.ndarray) -> pa.Table:
        masks = np.bitwise_or.reduceat(_np(t, "bit"), starts)
        status = np.empty(len(masks), object)
        for m, s in status_of.items():
            status[masks == m] = s
        return pa.table({"user_id": _np(t, "user_id")[starts],
                         "status": pa.array(status, pa.string())})

    return _ds(exchange.window(
        _events(sf_dir, ["user_id", "event_type"],
                _of_types(type_a, type_b)),
        ["user_id"], [], classify, pre=partial))


def percentile_rank(sf_dir: str) -> ray.data.Dataset:
    """Per-event PERCENTILE RANK of ``value`` within its event type, in
    integer permille: ``(1000 * (rank - 1)) // (n - 1)`` with SQL
    ``rank()`` tie semantics (ties share the minimal rank) — pure
    integer arithmetic, so the oracle reproduces it bit-exactly.
    Returns (event_id, event_type, value_c, pct_rank).

    Scale shape: ``_value_hist`` gives per-type cumulative-count lookup
    tables, broadcast via ``ray.put``, and one ``map_blocks`` pass
    ranks every event with one vectorized searchsorted per (block,
    type). Events are never sorted globally and never leave their
    blocks."""
    lut: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
    for et, g in _value_hist(sf_dir).groupby("event_type"):
        g = g.sort_values("value_c")
        cnt = g["n"].to_numpy()
        below = np.concatenate([[0], cnt.cumsum()[:-1]])  # rows < v
        lut[et] = (g["value_c"].to_numpy(), below.astype(np.int64),
                   int(cnt.sum()))
    ref = ray.put(lut)

    def rank_rows(t: pa.Table) -> pa.Table:
        tables = ray.get(ref)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        v_c = _cents(t.column("value"))
        pct = np.zeros(t.num_rows, np.int64)
        for typ in np.unique(et):
            m = et == typ
            vals, below, n = tables[typ]
            r = below[np.searchsorted(vals, v_c[m])] + 1  # rank(): ties min
            pct[m] = (1000 * (r - 1)) // max(n - 1, 1)
        return pa.table({
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
            "value_c": pa.array(v_c),
            "pct_rank": pa.array(pct),
        })

    return _ds(exchange.map_blocks(
        _events(sf_dir, ["event_id", "event_type", "value"]), rank_rows))


def event_transitions(sf_dir: str) -> ray.data.Dataset:
    """Per-user event-type TRANSITION MATRIX: counts of consecutive
    (previous type -> next type) pairs in each user's (ts, event_id)
    stream order, summed over all users — the Markov-chain /
    behavioral-model input an event pipeline derives. Returns
    (from_type, to_type, n_transitions), bounded at #types^2 rows.

    One window pairs every row with its LAG row; the pair counts
    collapse to <= #types^2 partial rows per task before the tiny
    driver fold (the driver never sees events)."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        et = t.column("event_type")
        prev = seg_shift(np.arange(t.num_rows), starts)
        return _count_rows(pa.table({
            "from_type": et.take(prev.compressed()),
            "to_type": et.filter(~np.ma.getmaskarray(prev))}),
            ["from_type", "to_type"], "n_transitions")

    out = exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts", "event_type"]),
        ["user_id"], _BY_TIME, fn)
    return ray.data.from_arrow(_fold_partials(
        out, ["from_type", "to_type"], ["n_transitions"],
        pa.table({"from_type": pa.array([], pa.string()),
                  "to_type": pa.array([], pa.string()),
                  "n_transitions": pa.array([], pa.int64())})))


def retention_cohorts(sf_dir: str) -> ray.data.Dataset:
    """Cohort RETENTION table: users are cohorted by the calendar day
    of their FIRST event; for every (cohort day, day offset) the count
    of cohort users active that day — the standard retention triangle.
    Returns (cohort_day, offset_days, n_users).

    One window over block-distinct (user, day) pairs ordered by day: a
    user's first row is its cohort, its distinct days are the rows
    whose LAG day differs, and the (cohort, offset) counts of one task
    are DISJOINT from every other task's; one more keyed sum finishes
    them with no distinct re-check."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        day = _np(t, "day")
        cohort = day[starts][seg_ids(starts, len(day))]
        new = (seg_shift(day, starts) != day).filled(True)
        return _count_rows(pa.table({
            "cohort_day": pa.array(cohort[new] * _DAY_US).cast(
                pa.timestamp("us")),
            "offset_days": pa.array(day[new] - cohort[new])}),
            ["cohort_day", "offset_days"], "n_users")

    out = exchange.window(_events(sf_dir, ["user_id", "ts"]), ["user_id"],
                          ["day"], fn, pre=_user_days)
    return _ds(exchange.fx_sum_by(out.refs, ["cohort_day", "offset_days"],
                                  ["n_users"]))


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

    One window over the two types' rows: both stages are segmented
    min-reduceats over sentinel-masked int64 timestamps."""
    window_us = np.int64(window_minutes) * 60_000_000
    BIG = np.int64(2**62)

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts, et = _np(t, "ts"), _np(t, "event_type")
        # stage 1: first from_type ts per user; stage 2: earliest
        # to_type at-or-after it
        first = np.minimum.reduceat(np.where(et == from_type, ts, BIG),
                                    starts)
        after = (et == to_type) & (ts >= first[seg_ids(starts, len(ts))])
        conv = np.minimum.reduceat(np.where(after, ts, BIG), starts)
        entered = first < BIG
        fc, cv = first[entered], conv[entered]
        has = cv < BIG
        return pa.table({
            "user_id": _np(t, "user_id")[starts][entered],
            "first_click_us": fc,
            "conv_lag_us": pa.array(np.where(has, cv - fc, 0), pa.int64(),
                                    mask=~has),
            "converted": (has & (cv - fc <= window_us)).astype(np.int8),
        })

    return _ds(exchange.window(
        _events(sf_dir, ["user_id", "ts", "event_type"],
                _of_types(from_type, to_type)),
        ["user_id"], ["ts"], fn))


def rolling_active_users(sf_dir: str, window_days: int = 7
                         ) -> ray.data.Dataset:
    """ROLLING window engagement: for every calendar day with at least
    one event, the count of distinct users active in the trailing
    ``window_days`` (day inclusive) — the standard WAU/MAU-style
    rolling-distinct metric that a plain groupby cannot express
    (distinct is not decomposable across window positions). Returns
    (day, n_active_7d), one row per observed day.

    One window over block-distinct (user, day) pairs ordered by day:
    each row covers [d, d+w-1] from where its LAG day's coverage ends,
    and the coverages scatter into a difference array over the task's
    day span (one cumsum -> per-day user counts, disjoint across tasks
    by construction); only O(day-span) rows per task reach the driver,
    which sums counts and keeps the globally observed days."""
    w = np.int64(window_days)
    empty = pa.table({"day": pa.array([], pa.int64()),
                      "n_users": pa.array([], pa.int64()),
                      "observed": pa.array([], pa.int8())})

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        day = _np(t, "day")
        # a repeated (user, day) row starts past its own coverage: it
        # adds and removes one at the same index
        lo = np.maximum(day, (seg_shift(day, starts) + w).filled(
            np.iinfo(np.int64).min))
        base, span = day.min(), int(day.max() + w - day.min())
        diff = np.zeros(span + 1, np.int64)
        np.add.at(diff, lo - base, 1)
        np.add.at(diff, day + w - base, -1)
        counts = np.cumsum(diff[:-1])
        observed = np.zeros(span, np.int8)
        observed[day - base] = 1
        nz = np.flatnonzero(counts)
        return pa.table({"day": base + nz, "n_users": counts[nz],
                         "observed": observed[nz]})

    out = exchange.window(_events(sf_dir, ["user_id", "ts"]), ["user_id"],
                          ["day"], fn, pre=_user_days, empty_result=empty)
    agg = _concat_nonempty(out, empty).group_by("day").aggregate(
        [("n_users", "sum"), ("observed", "max")])
    agg = agg.filter(pc.greater(agg.column("observed_max"), 0)).sort_by("day")
    return ray.data.from_arrow(pa.table({
        "day": pc.multiply(agg.column("day"), _DAY_US).cast(
            pa.timestamp("us")),
        "n_active_7d": agg.column("n_users_sum")}))


def value_stats_by_type(sf_dir: str) -> ray.data.Dataset:
    """Grouped moment statistics: per event_type the count, sum, sum of
    squares, min and max of ``value`` in integer cents (floor(v*100+0.5)
    per row, the shared convention) — enough for exact mean/variance
    downstream without ever shipping a float. Returns (event_type, n,
    sum_c, sumsq_c, min_c, max_c).

    Scale shape: per-block Arrow group_by partials (≤ #types rows per
    block, ``map_blocks``), driver fold of O(types × blocks) tiny rows
    with a second group_by carrying the min/max merges — zero exchanges
    (the bounded-rollup economics measured in BASELINE.md). sumsq is
    int64-exact up to ~3.7·10^9 rows per type (cents ≤ ~5·10^4 ⇒
    squares ≤ 2.5·10^9; int64 max / 2.5·10^9 ≈ 3.7·10^9) — beyond
    that a deployment must shard the fold by (type, row-range) and
    carry the partials as decimal128, which Arrow sums exactly; this
    single-fold path does not, by design, so the bound is the
    contract, not a latent surprise."""
    aggs = [("n", "sum"), ("sum_c", "sum"), ("sumsq_c", "sum"),
            ("min_c", "min"), ("max_c", "max")]

    def fold(g: pa.Table) -> pa.Table:
        agg = g.group_by("event_type").aggregate(aggs)
        return pa.table({"event_type": agg.column("event_type"),
                         **{c: agg.column(f"{c}_{k}") for c, k in aggs}})

    def partial(t: pa.Table) -> pa.Table:
        v_c = _cents(t.column("value"))
        return fold(pa.table({"event_type": t.column("event_type"),
                              "n": pa.array(np.ones(t.num_rows, np.int64)),
                              "sum_c": v_c, "sumsq_c": v_c * v_c,
                              "min_c": v_c, "max_c": v_c}))

    empty = pa.table({"event_type": pa.array([], pa.string()),
                      **{c: pa.array([], pa.int64()) for c, _ in aggs}})
    return ray.data.from_arrow(fold(_concat_nonempty(exchange.map_blocks(
        _events(sf_dir, ["event_type", "value"]), partial), empty)))


def rolling_window_sum(sf_dir: str, window: int = 7) -> ray.data.Dataset:
    """Bounded sliding window: per-user trailing ``window``-row sum of
    ``value`` (integer cents) in (ts, event_id) order — SQL's
    ``sum(v_c) OVER (PARTITION BY user_id ORDER BY ts, event_id ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW)``. Returns (event_id,
    user_id, ts, value_c, rolling_c): the running sum minus its value
    ``window`` rows back in the same user (none: the full prefix)."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        v_c = _cents(t.column("value"))
        run = seg_cumsum(v_c, starts)
        return t.select(["event_id", "user_id", "ts"]).append_column(
            "value_c", pa.array(v_c)).append_column("rolling_c", pa.array(
                run - seg_shift(run, starts, window).filled(0)))

    return _ds(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts", "value"]),
        ["user_id"], _BY_TIME, fn))


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
    tall form, ``map_blocks`` — fold driver-side (O(buckets × types ×
    blocks) tiny rows) and pivot wide ONCE at the end via a
    searchsorted scatter into a dense (buckets × types) matrix. At 100
    TB the bucket width is the knob: the driver fold holds (distinct
    buckets × 5) rows, so size bucket_width to keep that in the usual
    bounded-rollup regime; the events table itself is never
    exchanged."""

    def partial(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        return _count_rows(pa.table({
            "user_bucket": pa.array(uid // bucket_width),
            "event_type": t.column("event_type")}),
            ["user_bucket", "event_type"], "n")

    pt = _fold_partials(exchange.map_blocks(
        _events(sf_dir, ["user_id", "event_type"]), partial),
        ["user_bucket", "event_type"], ["n"],
        pa.table({"user_bucket": pa.array([], pa.int64()),
                  "event_type": pa.array([], pa.string()),
                  "n": pa.array([], pa.int64())}))
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
    prev_value_c, next_value_c): one window, ``seg_shift`` by ±1."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        v_c = _cents(t.column("value"))
        return t.select(["event_id", "user_id"]).append_column(
            "value_c", pa.array(v_c)).append_column(
            "prev_value_c", pa.array(seg_shift(v_c, starts, 1))
        ).append_column("next_value_c", pa.array(seg_shift(v_c, starts, -1)))

    return _ds(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts", "value"]),
        ["user_id"], _BY_TIME, fn))


def mode_value_by_type(sf_dir: str) -> ray.data.Dataset:
    """Grouped MODE: per event_type the most frequent ``value`` in
    integer cents (ties to the smallest value) and its count. Returns
    (event_type, mode_c, n): a driver readout of ``_value_hist``, whose
    count domain is bounded by distinct cent values × types (the
    exact_quantiles economics); the events table itself never
    shuffles."""
    h = (_value_hist(sf_dir)
         .sort_values(["event_type", "n", "value_c"],
                      ascending=[True, False, True])
         .drop_duplicates("event_type"))
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(h["event_type"], pa.string()),
        "mode_c": pa.array(h["value_c"], pa.int64()),
        "n": pa.array(h["n"], pa.int64())}))


def props_key_stats(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured extraction rollup: parse the JSON ``props``
    column (one object per event), pull the integer ``k`` field and
    aggregate per event_type — n (non-null ks), sum, min, max. Returns
    (event_type, n, sum_k, min_k, max_k).

    Scale shape: parsing is VECTORIZED — the batch's props strings are
    joined into one newline-delimited buffer with a single Arrow
    binary_join kernel and handed to pyarrow.json's C++ reader (no
    per-row Python json.loads); per-block per-type partials
    (``map_blocks``) fold driver-side (bounded rollup), the events
    table never shuffles. Rows with null/malformed-for-k props
    contribute to no aggregate (SQL count(k) semantics)."""
    import pyarrow.json as pajson

    aggs = [("n", "sum"), ("sum_k", "sum"), ("min_k", "min"),
            ("max_k", "max")]
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      **{c: pa.array([], pa.int64()) for c, _ in aggs}})

    def fold(g: pa.Table) -> pa.Table:
        agg = g.group_by("event_type").aggregate(aggs)
        return pa.table({"event_type": agg.column("event_type"),
                         **{c: agg.column(f"{c}_{k}") for c, k in aggs}})

    def partial(t: pa.Table) -> pa.Table:
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
        g = pa.table({"event_type": t.column("event_type"), "n":
                      valid.cast(pa.int64()), "sum_k": k, "min_k": k,
                      "max_k": k}).filter(valid)
        return fold(g) if g.num_rows else empty

    return ray.data.from_arrow(fold(_concat_nonempty(exchange.map_blocks(
        _events(sf_dir, ["event_type", "props"]), partial), empty)))


def interval_join_pairs(sf_dir: str, left_type: str = "click",
                        right_type: str = "purchase",
                        window_minutes: int = 60) -> ray.data.Dataset:
    """INTERVAL JOIN (stream-stream windowed join, Flink semantics):
    every (left, right) event pair of the same user where the right
    event lands in ``[left.ts, left.ts + window]`` — ALL pairs, not
    just the nearest (that one is ``asof_join_prior``). Returns
    (user_id, left_id, right_id, gap_us).

    One window over the two types' rows ordered by (ts, event_id): each
    left row finds its rights with TWO searchsorteds over a (segment,
    ts rank) composite that is sorted like the rows and bounded by n^2
    (never user id x time span, which overflows int64 at scale);
    emission is the vectorized repeat of window widths, so cost is
    O(n log n + output). Output size is bounded by the window, the
    inherent interval-join blowup knob."""
    win_us = np.int64(window_minutes) * 60_000_000

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts, eid, et = _np(t, "ts"), _np(t, "event_id"), _np(t, "event_type")
        uniq = np.unique(ts)
        m = len(uniq) + 1
        seg = seg_ids(starts, len(ts))
        key = seg * m + np.searchsorted(uniq, ts)
        lefts, rights = np.flatnonzero(et == left_type), \
            np.flatnonzero(et == right_type)
        # rights before row position p: r_before[p]
        r_before = np.concatenate([[0], np.cumsum(et == right_type)])
        lk, lt = seg[lefts] * m, ts[lefts]
        lo = r_before[np.searchsorted(key, lk + np.searchsorted(uniq, lt))]
        hi = r_before[np.searchsorted(
            key, lk + np.searchsorted(uniq, lt + win_us, side="right"))]
        cnt = hi - lo
        li = np.repeat(lefts, cnt)
        ri = rights[np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
                    + np.arange(cnt.sum())]
        return pa.table({"user_id": _np(t, "user_id")[li],
                         "left_id": eid[li], "right_id": eid[ri],
                         "gap_us": ts[ri] - ts[li]})

    return _ds(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts", "event_type"],
                _of_types(left_type, right_type)),
        ["user_id"], _BY_TIME, fn))


def _median_mad_table(sf_dir: str) -> pa.Table:
    """(event_type, median_c, mad_c) with ``quantile_disc`` rank
    semantics: median m = element at rank ceil(n/2), MAD = median of
    |v − m|. Shared by ``mad_by_type`` and ``value_outliers``.

    Scale shape: a DEPENDENT two-pass statistic computed from ONE
    exchange — ``_value_hist``; the second "pass" (|v−m| distribution)
    is pure driver arithmetic over the histogram rows (mirror-fold
    around m + reduceat), so the events never move twice."""
    out_t, out_m, out_d = [], [], []
    for et, g in _value_hist(sf_dir).groupby("event_type", sort=True):
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
    they ride the flag closure into ONE ``map_blocks`` filter pass over
    the column-pruned events read. No second exchange, no driver rows
    beyond the constants."""
    stats = _median_mad_table(sf_dir)
    types = np.array(stats.column("event_type").to_pylist())
    order = np.argsort(types)
    types = types[order]
    meds = stats.column("median_c").to_numpy()[order]
    mads = stats.column("mad_c").to_numpy()[order]

    def flag(t: pa.Table) -> pa.Table:
        v = _cents(t.column("value"))
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

    return _ds(exchange.map_blocks(
        _events(sf_dir, ["event_id", "event_type", "value"]), flag))


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
    space is uniform, so ranges are balanced by construction). Each
    row's md5 key is computed once per pass over it: the exchange's
    writers carry it to the range tasks as a column (``ak``)."""
    import pyarrow.parquet as pq

    from ..functions.sampling import _md5_hex

    late_us = np.int64(lateness_minutes) * np.int64(60_000_000)

    if arrival == "md5":
        span = None
        n_rng = 16                          # first hex nibble

        def _rng_key(t: pa.Table):
            ak = _md5_hex("arr|", t.column("event_id"))
            # the first hex digit's code point ('0'-'9', 'a'-'f')
            c = ak.view(np.uint32).reshape(len(ak), 32)[:, 0]
            rng = np.where(c <= ord("9"), c - ord("0"), c - ord("a") + 10)
            return rng.astype(np.int64), ak
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
        rng, key = _rng_key(t)
        if arrival == "md5":    # carried: per_range sorts, never rehashes
            t = t.append_column("ak", pa.array(key, pa.string()))
        return t.append_column("part", pa.array(rng.astype(np.int32)))

    def per_range(g: pa.Table) -> pa.Table:
        ts = g.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = pc.sort_indices(g.column(
            "ak" if arrival == "md5" else "event_id")).to_numpy()  # stable
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

    One window assigns sessions by the LAG gap; the paths are one
    ``binary_join`` over list offsets at the session starts (no
    per-session loop). Path counts fold over one keyed exchange; each
    path's final count lives in one block, so a per-block local top-k
    bounds the driver fold at k x blocks."""
    gap_us = np.int64(gap_minutes) * 60_000_000

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = _np(t, "ts")
        sess = np.flatnonzero(((ts - seg_shift(ts, starts)) > gap_us)
                              .filled(True))
        pos = np.arange(len(ts)) - sess[seg_ids(sess, len(ts))]
        keep = pos < max_len
        offs = np.append(np.flatnonzero(pos[keep] == 0), keep.sum())
        paths = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()),
            t.column("event_type").filter(keep).combine_chunks()), ">")
        return _count_rows(pa.table({"path": paths}), ["path"], "cnt")

    def top(t: pa.Table) -> pa.Table:
        return t.sort_by([("cnt", "descending"),
                          ("path", "ascending")]).slice(0, k)

    counted = exchange.fx_sum_by(exchange.window(
        _events(sf_dir, ["event_id", "user_id", "ts", "event_type"]),
        ["user_id"], _BY_TIME, fn).refs, ["path"], ["cnt"])
    best = top(_concat_nonempty(exchange.map_blocks(counted.refs, top),
                                pa.table({"path": pa.array([], pa.string()),
                                          "cnt": pa.array([], pa.int64())})))
    return ray.data.from_arrow(best.append_column("rk", pa.array(
        np.arange(1, best.num_rows + 1, dtype=np.int64))))


def cumulative_users_by_day(sf_dir: str) -> ray.data.Dataset:
    """GROWTH ACCOUNTING: for each calendar day, how many DISTINCT
    users have been seen up to and including that day (the cumulative-
    adoption curve). Exact. Returns (day, new_users, cum_users) for
    every day with at least one first-seen user.

    "Running distinct" collapses to "first-seen day per user": one
    window over block-distinct (user, day) pairs ordered by day takes
    each user's first row, per-task (day, new_users) partials are
    BOUNDED (#days), and the driver folds + cumsums <= days rows. No
    global sort, no set state."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        return _count_rows(pa.table({"day": _np(t, "day")[starts]}),
                           ["day"], "new_users")

    out = exchange.window(_events(sf_dir, ["user_id", "ts"]), ["user_id"],
                          ["day"], fn, pre=_user_days)
    agg = _fold_partials(out, ["day"], ["new_users"], pa.table({
        "day": pa.array([], pa.int64()),
        "new_users": pa.array([], pa.int64())})).sort_by("day")
    return ray.data.from_arrow(pa.table({
        "day": pc.multiply(agg.column("day"), _DAY_US).cast(
            pa.timestamp("us")),
        "new_users": agg.column("new_users"),
        "cum_users": pc.cumulative_sum(agg.column("new_users"))}))


def interp_quantiles_by_type(sf_dir: str,
                             qs: "tuple[float, ...]" = (0.25, 0.5,
                                                        0.9, 0.99)
                             ) -> ray.data.Dataset:
    """INTERPOLATED grouped quantiles (SQL ``quantile_cont`` semantics:
    linear interpolation at 0-based position ``q*(n-1)``) — the
    continuous companion to ``exact_quantiles_by_type``, sharing its
    ``_value_hist`` (no sort, events never leave their blocks). Returns
    (event_type, q, value_mc) with the interpolated cents value
    quantized to MILLI-CENTS (floor(v * 1000 + 0.5)) so the SQL oracle
    matches."""
    out_t, out_q, out_v = [], [], []
    for et, g in _value_hist(sf_dir).groupby("event_type", sort=True):
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
