"""CDC log-view operators over an external change log (the testdata
``events`` table), exposing the reference's read-side operator surface
(SURVEY.md §2: S1, T1, T3, D1, A1–A5, J3), each checkable against an
ANSI-SQL oracle.

Mapping of the ``events`` table onto the reference's EVENTS log
(PostgresqlStorage.java:446-467, SQLiteQueries.java:20-42):

  event_id   -> msg_offset (lsn = event_id + 1, 1-based, unique, dense)
  user_id    -> msg_key    (doc_id = 'u' + zero-padded user_id)
  event_type -> type       (the subscription/filter dimension)
  ts         -> created_utc
  value/props-> payload    (props IS the JSON `data` analog)
  'error'    -> tombstone  (we designate event_type='error' as the
                            `data IS NULL` delete marker,
                            SQLiteQueries.java:54-55)

Scale notes: every operator reads the log as an exchange leaf
(``_events``) with its columns and row filter pushed into the parquet
scan. A per-row pass is an ``exchange.map_blocks`` of raw tasks running
vectorized Arrow kernels; the only exchanges are the ones the semantics
need (LWW co-locates by key; the byte-cap prefix sorts its one boundary
range). Watermark aggregates fold per-block extremes on the driver
(``_extent``), and a Dataset is built only at a public return
(``from_arrow_refs``), so no operator starts a Ray Data execution.
Nothing materializes the log on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray
import ray.data

from ..stages import exchange
from ..stages.compact import compact_lww

TOMBSTONE_TYPE = "error"


# --------------------------------------------------------------------- #
# events -> CHANGE_EVENT-shaped changelog batches
# --------------------------------------------------------------------- #
def events_to_changelog(t: pa.Table) -> pa.Table:
    """Vectorized projection of an events batch into the engine's change
    -event envelope: (lsn, op, doc_id, value, props, source, ts)."""
    n = t.num_rows
    lsn = pc.add(t.column("event_id"), 1).cast(pa.int64())
    uid = pc.ascii_lpad(pc.cast(t.column("user_id"), pa.string()), 6, "0")
    doc_id = pc.binary_join_element_wise(
        pa.array(np.repeat("u", n)), uid.combine_chunks(), ""
    )
    is_del = pc.equal(t.column("event_type"), TOMBSTONE_TYPE)
    op = pc.if_else(is_del, pa.scalar(1, pa.int8()), pa.scalar(0, pa.int8()))
    return pa.table(
        {
            "lsn": lsn,
            "op": op,
            "doc_id": doc_id,
            "value": t.column("value"),
            "props": t.column("props"),
            "source": t.column("event_type"),
            "ts": t.column("ts"),
        }
    )


def _events(sf_dir: str, columns: list[str] | None = None,
            filter: pads.Expression | None = None) -> exchange.Leaf:
    """The events table as an exchange leaf."""
    return exchange.leaf(f"{sf_dir}/events.parquet", columns, filter)


def _block_extent(t: pa.Table) -> pa.Table:
    """The block's min and max of its one column (no row for an empty
    block)."""
    c = t.column(0)
    return pa.table({t.column_names[0]: pa.array(
        [pc.min(c).as_py(), pc.max(c).as_py()] if len(c) else [],
        c.type)})


def _extent(sf_dir: str, col: str,
            filter: pads.Expression | None = None) -> tuple:
    """(min, max) of the events' ``col`` over the rows ``filter`` keeps,
    folded from per-block extremes; (None, None) — SQL NULL — when no
    row is kept."""
    v = pa.concat_tables(ray.get(exchange.map_blocks(
        _events(sf_dir, [col], filter), _block_extent))).column(col)
    return pc.min(v).as_py(), pc.max(v).as_py()


# --------------------------------------------------------------------- #
# S1 / T1 / T2 — offset-window scan with type filter (pushed to the read)
# --------------------------------------------------------------------- #
def log_scan(sf_dir: str, types: tuple[str, ...] = ("click", "purchase"),
             lo: int = 100, hi_frac_num: int = 1, hi_frac_den: int = 2
             ) -> ray.data.Dataset:
    """Reference read contract (PostgresqlStorage.java:60-146): rows with
    ``lo < offset <= watermark`` and ``type IN (...)``. The watermark here
    is max(event_id) * num/den so the window is meaningful at every sf;
    both bounds push down to the parquet scan (row-group pruning)."""
    hi = _extent(sf_dir, "event_id")[1] * hi_frac_num // hi_frac_den
    flt = (
        (pads.field("event_id") > lo)
        & (pads.field("event_id") <= hi)
        & pads.field("event_type").isin(list(types))
    )
    return ray.data.from_arrow_refs(
        exchange.map_blocks(_events(sf_dir, filter=flt), lambda t: t))


# --------------------------------------------------------------------- #
# T3 — byte-capped prefix of the log (running-size window)
# --------------------------------------------------------------------- #
def byte_cap_prefix(sf_dir: str, cap: int | None = None,
                    range_size: int | None = None,
                    max_ranges: int = 4096) -> ray.data.Dataset:
    """The reference's batch byte-cap: keep the longest log prefix whose
    running payload-byte sum stays within ``cap``
    (``SUM(event_size) OVER (ORDER BY msg_offset) <= maxBatchSize``,
    PostgresqlStorage.java:438-444). Default cap = half the total bytes.

    Distributed as a classic two-pass prefix sum: (1) per range-partition
    byte totals (tiny groupby), driver computes partition prefix offsets;
    (2) each range partition cumsums locally + its offset and filters.
    No global sort, no driver-side row work; ``range_size`` scales with
    the id span so the driver's offsets table stays ≤ ``max_ranges``
    entries at ANY log size (a fixed 4096-row range meant an O(n)
    driver dict at 10^10 events).

    Reference edge (PipeReadControllerBatchIntegrationSpec.groovy:49-91):
    a single over-budget first row still ships alone — the batch is
    never empty while the log isn't."""
    first_id, last_id = _extent(sf_dir, "event_id")
    if range_size is None:
        range_size = max(4096, -(-(last_id + 1) // max_ranges))

    # pass 1 — per-range byte totals with a PER-BATCH combiner: only
    # ≤ max_ranges partial rows per batch ever reach the groupby (the
    # previous per-ROW groupby shuffled the whole (rp, nbytes) table)
    def rp_partials(t: pa.Table) -> pa.Table:
        b = pc.binary_length(t.column("props").cast(pa.binary())) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        rp = (t.column("event_id").to_numpy(zero_copy_only=False)
              // range_size)
        order = np.argsort(rp, kind="stable")
        u, start = np.unique(rp[order], return_index=True)
        sums = np.add.reduceat(b[order], start)
        return pa.table({"rp": pa.array(u.astype(np.int64)),
                         "nbytes": pa.array(sums.astype(np.int64))})

    # <= max_ranges partial rows per BLOCK: fold them on the driver
    # (bounded), skipping the native aggregate's sort-shuffle floor
    per_rp = pa.concat_tables(ray.get(exchange.map_blocks(
        _events(sf_dir, ["event_id", "props"]), rp_partials))).group_by(
        "rp").aggregate([("nbytes", "sum")]).sort_by("rp")
    totals = dict(zip(per_rp.column("rp").to_pylist(),
                      per_rp.column("nbytes_sum").to_pylist()))
    offsets, run = {}, 0
    for rp_k, n in totals.items():
        offsets[rp_k] = run
        run += n
    if cap is None:
        cap = run // 2          # total folded from the same pass — the
                                # log is scanned once, not twice

    # pass 2 — range-granular decisions need NO shuffle: a range whose
    # offset+total fits the cap is kept WHOLE (streaming filter), one
    # past it is dropped whole; only the single BOUNDARY range needs
    # the per-row sort+cumsum, and it is read alone via an event_id
    # range filter (row-group pruned), so the exact prefix work is
    # O(range_size) regardless of log size. The previous version
    # sort-shuffled the ENTIRE event table by range id.
    full_keep = sorted(rp for rp, off in offsets.items()
                       if off + totals[rp] <= cap)
    boundary = sorted(rp for rp, off in offsets.items()
                      if off <= cap < off + totals[rp])
    keep_arr = pa.array(full_keep, pa.int64())

    def keep_full(t: pa.Table) -> pa.Table:
        rp = pc.divide(t.column("event_id"), range_size).cast(pa.int64())
        return t.filter(pc.is_in(rp, value_set=keep_arr))

    out = exchange.map_blocks(_events(sf_dir), keep_full)
    if not boundary:
        return ray.data.from_arrow_refs(out)
    b = boundary[0]             # prefix sums are monotone: at most one
    flt = ((pads.field("event_id") >= b * range_size)
           & (pads.field("event_id") < (b + 1) * range_size))

    def prefix_rows(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t,
                                   sort_keys=[("event_id", "ascending")]))
        nb = pc.binary_length(t.column("props").cast(pa.binary())) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        cum = np.cumsum(nb) + offsets[b]
        ids = t.column("event_id").to_numpy(zero_copy_only=False)
        keep = (cum <= cap) | (ids == first_id)  # over-budget first row
        return t.filter(pa.array(keep))

    # one explicit part: the boundary range is sorted whole
    edge = exchange.file_exchange_map_groups(
        _events(sf_dir, filter=flt),
        lambda t: prefix_rows(t.drop_columns(["part"])),
        pre=lambda t: t.append_column(
            "part", pa.array(np.zeros(t.num_rows, np.int32))))
    return ray.data.from_arrow_refs(out + edge.refs)


# --------------------------------------------------------------------- #
# D1 — distributed LWW compaction of the whole log
# --------------------------------------------------------------------- #
def lww_latest(sf_dir: str) -> ray.data.Dataset:
    """Keep only the max-lsn event per key (SQLiteQueries.java:51-52):
    per-batch partial compaction (combiner, defuses skew) -> exchange
    keyed on doc_id -> final per-partition compaction. Tombstone-latest
    keys are KEPT (compaction ≠ tombstone GC, which is the retention
    job)."""
    return ray.data.from_arrow_refs(_lww_latest(sf_dir).refs)


def _lww_latest(sf_dir: str) -> exchange.Exchanged:
    """``lww_latest``'s exchange over the events leaf."""

    def prep(t: pa.Table) -> pa.Table:
        return compact_lww(events_to_changelog(t))

    def finish(t: pa.Table) -> pa.Table:
        out = compact_lww(t).drop_columns(["part", "ts"])
        return out.set_column(out.schema.get_field_index("lsn"),
                              "last_lsn", out.column("lsn")) \
                  .set_column(out.schema.get_field_index("op"),
                              "op", out.column("op").cast(pa.int64()))

    return exchange.file_exchange_map_groups(
        _events(sf_dir), finish, keys=["doc_id"], pre=prep)


def consistency_sum(sf_dir: str) -> pa.Table:
    """A4 convergence checksum (SQLiteQueries.java:57-64): Σ over keys of
    max(lsn), excluding keys whose latest event is a tombstone. Reuses the
    LWW partitioning — no extra shuffle."""
    s = sum(t.column("s")[0].as_py() or 0 for t in ray.get(
        exchange.map_blocks(_lww_latest(sf_dir).refs, _live_lsn_sum)))
    return pa.table({"consistency_sum": pa.array([int(s)], pa.int64())})


def _live_lsn_sum(t: pa.Table) -> pa.Table:
    """One row: the block's ``last_lsn`` sum over non-tombstone rows."""
    live = t.filter(pc.equal(t.column("op"), 0))
    return pa.table({"s": [pc.sum(live.column("last_lsn")).as_py()]})


# --------------------------------------------------------------------- #
# A1 / A2 / A3 — watermark aggregates
# --------------------------------------------------------------------- #
def global_latest_offset(sf_dir: str) -> pa.Table:
    v = _extent(sf_dir, "event_id")[1]
    return pa.table({"global_latest_offset": pa.array([v], pa.int64())})


def max_offset_for_types(sf_dir: str,
                         types: tuple[str, ...] = ("click", "view")) -> pa.Table:
    """A2 — max offset over a type subscription (SQLiteQueries.java:114-124)."""
    v = _extent(sf_dir, "event_id",
                pads.field("event_type").isin(list(types)))[1]
    return pa.table({"max_offset_for_types": pa.array([v], pa.int64())})


def max_offset_before_hour(sf_dir: str) -> pa.Table:
    """A3 — max offset strictly before the last top-of-hour boundary,
    boundary = date_trunc('hour', max(ts)) (reference: boundary-bounded
    max, SQLiteQueries.java:66-67; we use strict < on both the Ray and
    the SQL side). NULL when no event precedes the boundary."""
    max_ts = _extent(sf_dir, "ts")[1]
    boundary = max_ts.replace(minute=0, second=0, microsecond=0)
    v = _extent(sf_dir, "event_id", pads.field("ts") < boundary)[1]
    return pa.table({"max_offset_before_hour": pa.array([v], pa.int64())})


# --------------------------------------------------------------------- #
# A5 — count by type (compaction visibility metric)
# --------------------------------------------------------------------- #
def count_by_type(sf_dir: str) -> ray.data.Dataset:
    """PostgresqlStorage.java:507-509: SELECT type, COUNT(*) GROUP BY type."""
    return ray.data.from_arrow_refs(exchange.fx_count_by(
        _events(sf_dir, ["event_type"]),
        ["event_type"], "n_rows").refs)


# --------------------------------------------------------------------- #
# J3 — routing semi-join of a small cluster-id list against the log
# --------------------------------------------------------------------- #
def routing_semijoin(sf_dir: str, n_clusters: int = 16,
                     clusters: tuple[int, ...] = (1, 3, 5, 7),
                     types: tuple[str, ...] = ("click", "view", "purchase"),
                     overrides: "dict[int, int] | None" = None,
                     cache=None) -> ray.data.Dataset:
    """The per-cluster routed read (PostgresqlStorage.java:446-467): rows
    whose ROUTING id is in the caller's small cluster set AND whose type
    is subscribed. The routing id defaults to the hash route
    (user_id % n_clusters) but an ``overrides`` map (user_id ->
    routing_id) takes precedence — the reference's routing_id-distinct-
    from-cluster_id model (Message.java:14-34; a clusterId≠routingId
    remap is what drives its bootstrap fast path,
    PipeReadController.java:112-147). Both the cluster set and the
    override map are tiny broadcasts — a broadcast semi-join, never a
    shuffle join (SURVEY.md J3). ``cache`` (state.routing.RoutingCache
    yielding (clusters, types) or (clusters, types, overrides)) is the
    ST2 refresh hook: per-wave callers get the current routing table
    with expiry/invalidation semantics instead of a frozen closure
    capture — an invalidation-driven remap reroutes the next wave."""
    if cache is not None:
        ref = cache.get()

        def route(t: pa.Table) -> pa.Table:
            entry = ray.get(ref)
            cl, ty = entry[0], entry[1]
            ov = entry[2] if len(entry) > 2 else None
            ok, ovl = _sorted_overrides(ov)
            return _route_filter(t, n_clusters,
                                 pa.array(list(cl), pa.int64()),
                                 pa.array(list(ty)), ok, ovl)
    else:
        cset = pa.array(list(clusters), pa.int64())
        tset = pa.array(list(types))
        okeys, ovals = _sorted_overrides(overrides)

        def route(t: pa.Table) -> pa.Table:
            return _route_filter(t, n_clusters, cset, tset, okeys, ovals)

    return ray.data.from_arrow_refs(
        exchange.map_blocks(_events(sf_dir), route))


def _sorted_overrides(overrides: "dict[int, int] | None"
                      ) -> tuple["np.ndarray | None", "np.ndarray | None"]:
    if not overrides:
        return None, None
    okeys = np.array(sorted(overrides), dtype=np.int64)
    ovals = np.array([overrides[k] for k in okeys.tolist()],
                     dtype=np.int64)
    return okeys, ovals


def _route_filter(t: pa.Table, n_clusters: int, cset: pa.Array,
                  tset: pa.Array, okeys: "np.ndarray | None" = None,
                  ovals: "np.ndarray | None" = None) -> pa.Table:
    rid = pc.subtract(
        t.column("user_id"),
        pc.multiply(pc.divide(t.column("user_id"), n_clusters),
                    n_clusters))  # integer modulo, matches SQL %
    if okeys is not None and len(okeys):
        # vectorized override: binary-search each user into the sorted
        # override keys; matches take the override routing id
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        r = rid.to_numpy(zero_copy_only=False).copy()
        pos = np.clip(np.searchsorted(okeys, u), 0, len(okeys) - 1)
        m = okeys[pos] == u
        r[m] = ovals[pos[m]]
        rid = pa.array(r)
    mask = pc.and_(pc.is_in(rid, value_set=cset),
                   pc.is_in(t.column("event_type"), value_set=tset))
    return t.filter(mask)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "byte_cap_prefix",
    "consistency_sum",
    "count_by_type",
    "global_latest_offset",
    "log_scan",
    "lww_latest",
    "max_offset_before_hour",
    "max_offset_for_types",
    "routing_semijoin",
))
