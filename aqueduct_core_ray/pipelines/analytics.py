"""Classic warehouse analytics over the TPC-H-shaped tables
(``lineitem`` / ``orders`` / ``customer``), expressed Ray-Data-first.

Money is aggregated in INTEGER CENTS, rounded per row with the explicit
``floor(x*100 + 0.5)`` convention — the same float64 expression DuckDB
evaluates — so distributed partial sums are order-insensitive and the
SQL oracles match bit-exactly (float sums would drift by reduction
order across block counts).

Scale shapes:

- ``pricing_summary`` (Q1 flavor): per-block Arrow ``group_by`` partial
  sums over the 6-key (returnflag, linestatus) space, finished by a
  DRIVER-SIDE fold of the O(6 x blocks) partial rows — zero exchanges
  (Ray's sort-based Aggregate costs ~3 s of fixed overhead at any
  scale, dwarfing a six-group fold). Same shape for the part-type and
  supplier rollups.
- ``top_orders_by_revenue`` (Q3 flavor) / ``revenue_by_nation`` (Q5):
  dimension sides are read driver-side (plain pyarrow, no Ray job) and
  broadcast once via ``ray.put``; lineitem revenue is pre-aggregated
  per (block, orderkey) and tagged with hash(orderkey) % P so the ONE
  co-partitioned union-tag ``groupby(part).map_groups`` exchange
  finishes the per-order sum AND the equi-join; per-partition heads /
  rollups leave at most k·P (Q3) or 25·P (Q5) rows for a driver fold.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_Q1_CUTOFF = np.datetime64("1998-09-02T00:00:00", "us")


# registers ray.data.Dataset.fx_map_groups — every co-partitioned
# exchange below runs over the FILE exchange (stages/exchange.py):
# Ray's sort-based groupby costs ~3 s fixed per exchange at any size,
# which dominated every one-exchange query in this module
from ..stages.exchange import collect_tables


def _cents(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """floor(x*100 + 0.5) as int64 — the shared row-rounding convention."""
    v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
    return np.floor(v * 100.0 + 0.5).astype(np.int64)


def _rev_cents(t: pa.Table) -> np.ndarray:
    """Per-line revenue in cents: floor(price·(1−disc)·100 + 0.5) — THE
    load-bearing convention every revenue oracle replays; keep single."""
    price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
    disc = t.column("l_discount").to_numpy(zero_copy_only=False)
    return np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)


def _hash_part(keys: np.ndarray, num_partitions: int) -> pa.Array:
    return pa.array((pd.util.hash_array(keys.copy(), categorize=False)
                     % np.uint64(num_partitions)).astype(np.int32))


def _concat_nonempty(ds: ray.data.Dataset,
                     fallback: pa.Table) -> pa.Table:
    """Collect a Dataset's blocks, dropping the zero-column empty blocks
    Ray emits for groupless partitions (they break concat_tables)."""
    tables = [t for t in collect_tables(ds) if t.num_rows > 0]
    return pa.concat_tables(tables) if tables else fallback


def _fold_partials(ds: ray.data.Dataset, keys: list[str],
                   sums: list[str], fallback: pa.Table) -> pa.Table:
    """Driver-side fold of BOUNDED-cardinality partial aggregates:
    collects O(groups x blocks) tiny rows and finishes with one local
    Arrow group_by. For single-digit group counts this replaces Ray's
    sort-based Aggregate exchange, whose fixed cost (~3 s at any scale)
    dwarfs the fold itself; apply only when groups x blocks stays
    driver-sized (six-ish groups x even 10^6 blocks is fine)."""
    pt = _concat_nonempty(ds, fallback)
    agg = pt.group_by(keys).aggregate([(c, "sum") for c in sums])
    return pa.table({**{k: agg.column(k) for k in keys},
                     **{c: agg.column(f"{c}_sum") for c in sums}})


def _per_order_revenue_parts(sf_dir: str,
                             num_partitions: int) -> ray.data.Dataset:
    """(part, o_orderkey, rev_c) PARTIAL per-order revenue, one row per
    (block, orderkey): per-block Arrow group_by combines line items, and
    the hash-part tag lets the downstream co-partitioned join finish the
    per-order sum itself — ONE all-to-all for aggregate+join instead of
    a global orderkey groupby followed by a second part shuffle."""

    def rev_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"o_orderkey": t.column("l_orderkey"),
                      "rev_c": pa.array(_rev_cents(t))})
        agg = g.group_by("o_orderkey").aggregate([("rev_c", "sum")])
        keys = agg.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({"part": _hash_part(keys, num_partitions),
                         "o_orderkey": agg.column("o_orderkey"),
                         "rev_c": agg.column("rev_c_sum")})

    return (ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet",
                columns=["l_orderkey", "l_extendedprice", "l_discount"])
            .map_batches(rev_partial, batch_format="pyarrow"))


def _combine_per_order(rv: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Fold partial (o_orderkey, rev_c) rows into per-order totals:
    (sorted unique orderkeys, int64 sums) via one sort + reduceat."""
    rk = rv.column("o_orderkey").to_numpy(zero_copy_only=False)
    rc = rv.column("rev_c").to_numpy(zero_copy_only=False).astype(np.int64)
    if len(rk) == 0:
        return rk, rc
    order = np.argsort(rk, kind="stable")
    rk, rc = rk[order], rc[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], rk[1:] != rk[:-1]]))
    return rk[starts], np.add.reduceat(rc, starts)


def pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-style pricing summary: per (l_returnflag, l_linestatus)
    integer-cent sums of qty / base price / discounted price / charge
    plus the line count, over lines shipped on or before 1998-09-02."""

    def partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ship <= _Q1_CUTOFF))
        if t.num_rows == 0:
            return pa.table({
                "l_returnflag": pa.array([], pa.string()),
                "l_linestatus": pa.array([], pa.string()),
                "sum_qty_c": pa.array([], pa.int64()),
                "sum_base_c": pa.array([], pa.int64()),
                "sum_disc_c": pa.array([], pa.int64()),
                "sum_charge_c": pa.array([], pa.int64()),
                "n_lines": pa.array([], pa.int64()),
            })
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        tax = t.column("l_tax").to_numpy(zero_copy_only=False)
        g = pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty_c": pa.array(_cents(t.column("l_quantity"))),
            "base_c": pa.array(np.floor(price * 100.0 + 0.5
                                        ).astype(np.int64)),
            "disc_c": pa.array(np.floor(price * (1.0 - disc) * 100.0
                                        + 0.5).astype(np.int64)),
            "charge_c": pa.array(np.floor(price * (1.0 - disc)
                                          * (1.0 + tax) * 100.0
                                          + 0.5).astype(np.int64)),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
        })
        agg = g.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_c", "sum"), ("base_c", "sum"), ("disc_c", "sum"),
             ("charge_c", "sum"), ("one", "sum")])
        return pa.table({          # by-name: aggregate column order is
            "l_returnflag": agg.column("l_returnflag"),   # version-dependent
            "l_linestatus": agg.column("l_linestatus"),
            "sum_qty_c": agg.column("qty_c_sum"),
            "sum_base_c": agg.column("base_c_sum"),
            "sum_disc_c": agg.column("disc_c_sum"),
            "sum_charge_c": agg.column("charge_c_sum"),
            "n_lines": agg.column("one_sum"),
        })

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"])
    parts = ds.map_batches(partial, batch_format="pyarrow")
    empty = pa.table({
        "l_returnflag": pa.array([], pa.string()),
        "l_linestatus": pa.array([], pa.string()),
        "sum_qty_c": pa.array([], pa.int64()),
        "sum_base_c": pa.array([], pa.int64()),
        "sum_disc_c": pa.array([], pa.int64()),
        "sum_charge_c": pa.array([], pa.int64()),
        "n_lines": pa.array([], pa.int64()),
    })
    return ray.data.from_arrow(_fold_partials(
        parts, ["l_returnflag", "l_linestatus"],
        ["sum_qty_c", "sum_base_c", "sum_disc_c", "sum_charge_c",
         "n_lines"], empty))


# rows above which a "dimension" table stops being broadcastable and
# the star joins below fall back to their co-partitioned exchange path:
# 4M (custkey, payload) int64 pairs ≈ 64 MB in the object store — a
# comfortable one-time ray.put; past that, a driver-side read of the
# build side is the 100-TB scale killer (customer scales WITH the fact
# table at ~1:40 vs lineitem, it is not a true dimension)
BROADCAST_ROW_LIMIT = 4_000_000


def _table_rows(path: str) -> int:
    """Row count from the parquet footer — the broadcast gate's probe
    (metadata only, no column read)."""
    import pyarrow.parquet as pq
    return pq.read_metadata(path).num_rows


def top_orders_by_revenue(sf_dir: str, segment: str = "BUILDING",
                          k: int = 10, num_partitions: int = 16,
                          broadcast_threshold: int = BROADCAST_ROW_LIMIT
                          ) -> ray.data.Dataset:
    """TPC-H Q3-style: the ``k`` highest-revenue orders from customers
    in ``segment`` (revenue in integer cents; ties rank by orderkey).
    Returns (o_orderkey, o_orderdate, o_orderpriority, revenue_c, rk).

    The customer side is SIZE-GATED: under ``broadcast_threshold`` rows
    it is read driver-side and broadcast once (one exchange total);
    above, it is never materialized anywhere — a co-partitioned
    union-tag semi-join on hash(custkey) %% P filters orders in a
    second bounded exchange (same machinery as
    ``top_customers_by_return_revenue``). Both paths are value-
    identical (pinned by tests/test_analytics.py)."""
    def tag_rev(t: pa.Table) -> pa.Table:
        return pa.table({
            "part": t.column("part"),
            "o_orderkey": t.column("o_orderkey"),
            "rev_c": t.column("rev_c"),
            "o_orderdate": pa.nulls(t.num_rows, pa.timestamp("us")),
            "o_orderpriority": pa.nulls(t.num_rows, pa.string()),
            "side": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    rev = _per_order_revenue_parts(sf_dir, num_partitions) \
        .map_batches(tag_rev, batch_format="pyarrow")

    ord_cols = ["o_orderkey", "o_custkey", "o_orderdate",
                "o_orderpriority"]
    if _table_rows(f"{sf_dir}/customer.parquet") <= broadcast_threshold:
        # broadcast path: filtered custkeys collected once on the driver
        import pyarrow.parquet as pq
        seg_df = pq.read_table(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_mktsegment"]).to_pandas()
        seg_keys = np.sort(seg_df.loc[seg_df["c_mktsegment"] == segment,
                                      "c_custkey"].to_numpy())
        ref = ray.put(seg_keys)

        def tag_orders(t: pa.Table) -> pa.Table:
            cust = t.column("o_custkey").to_numpy(zero_copy_only=False)
            want = ray.get(ref)
            _, hit = _map_keys(want, want, cust)
            t = t.filter(pa.array(hit))
            keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "o_orderkey": t.column("o_orderkey"),
                "rev_c": pa.nulls(t.num_rows, pa.int64()),
                "o_orderdate": t.column("o_orderdate"),
                "o_orderpriority": t.column("o_orderpriority"),
                "side": pa.array(np.ones(t.num_rows, np.int8)),
            })

        orders = (ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                        columns=ord_cols)
                  .map_batches(tag_orders, batch_format="pyarrow"))
    else:
        # exchange path: hash(custkey) % P union-tag semi-join — the
        # unbounded-build-side shape; customer rows shrink to filtered
        # distinct keys per block before the shuffle
        def cust_side(t: pa.Table) -> pa.Table:
            seg = t.column("c_mktsegment").to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(seg == segment))
            keys = t.column("c_custkey").to_numpy(zero_copy_only=False)
            n = len(keys)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "o_orderkey": pa.nulls(n, pa.int64()),
                "o_custkey": t.column("c_custkey"),
                "o_orderdate": pa.nulls(n, pa.timestamp("us")),
                "o_orderpriority": pa.nulls(n, pa.string()),
                "side": pa.array(np.zeros(n, np.int8)),
            })

        def ord_side(t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "o_orderdate": t.column("o_orderdate"),
                "o_orderpriority": t.column("o_orderpriority"),
                "side": pa.array(np.ones(t.num_rows, np.int8)),
            })

        def semi(g: pa.Table) -> pa.Table:
            side = g.column("side").to_numpy(zero_copy_only=False)
            want = np.unique(
                g.filter(pa.array(side == 0)).column("o_custkey")
                .to_numpy(zero_copy_only=False))
            od = g.filter(pa.array(side == 1))
            ck = od.column("o_custkey").to_numpy(zero_copy_only=False)
            _, hit = _map_keys(want, want, ck)
            od = od.filter(pa.array(hit))
            keys = od.column("o_orderkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "o_orderkey": od.column("o_orderkey"),
                "rev_c": pa.nulls(od.num_rows, pa.int64()),
                "o_orderdate": od.column("o_orderdate"),
                "o_orderpriority": od.column("o_orderpriority"),
                "side": pa.array(np.ones(od.num_rows, np.int8)),
            })

        cust_ds = (ray.data.read_parquet(
                       f"{sf_dir}/customer.parquet",
                       columns=["c_custkey", "c_mktsegment"])
                   .map_batches(cust_side, batch_format="pyarrow"))
        ord_ds = (ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                        columns=ord_cols)
                  .map_batches(ord_side, batch_format="pyarrow"))
        orders = (cust_ds.union(ord_ds)
                  .fx_map_groups(semi))

    def join_topk(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        rv = g.filter(pa.array(side == 0))
        od = g.filter(pa.array(side == 1))
        rk_, rc = _combine_per_order(rv)   # fold partials, sorted keys
        ok = od.column("o_orderkey").to_numpy(zero_copy_only=False)
        if len(rk_) == 0 or len(ok) == 0:
            return _TOPK_EMPTY
        pos = np.minimum(np.searchsorted(rk_, ok), len(rk_) - 1)
        hit = rk_[pos] == ok
        od = od.filter(pa.array(hit))
        rev_c = rc[pos[hit]].astype(np.int64)
        head = np.lexsort((od.column("o_orderkey").to_numpy(
            zero_copy_only=False), -rev_c))[:k]
        sel = pa.array(head)
        return pa.table({
            "o_orderkey": od.column("o_orderkey").take(sel),
            "o_orderdate": od.column("o_orderdate").take(sel),
            "o_orderpriority": od.column("o_orderpriority").take(sel),
            "rev_c": pa.array(rev_c[head]),
        })

    def final_topk(t: pa.Table) -> pa.Table:
        rev_c = t.column("rev_c").to_numpy(zero_copy_only=False)
        keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        head = np.lexsort((keys, -rev_c))[:k]
        sel = pa.array(head)
        return pa.table({
            "o_orderkey": t.column("o_orderkey").take(sel),
            "o_orderdate": t.column("o_orderdate").take(sel),
            "o_orderpriority": t.column("o_orderpriority").take(sel),
            "revenue_c": pa.array(rev_c[head].astype(np.int64)),
            "rk": pa.array(np.arange(1, len(head) + 1, dtype=np.int64)),
        })

    joined = (rev.union(orders)
              .fx_map_groups(join_topk))
    # k·P candidate rows: fold the final rank driver-side (a second
    # exchange would cost seconds to sort a few dozen rows)
    return ray.data.from_arrow(final_topk(
        _concat_nonempty(joined, _TOPK_EMPTY)))


_TOPK_EMPTY = pa.table({
    "o_orderkey": pa.array([], pa.int64()),
    "o_orderdate": pa.array([], pa.timestamp("us")),
    "o_orderpriority": pa.array([], pa.string()),
    "rev_c": pa.array([], pa.int64()),
})


def _sorted_lookup(keys: np.ndarray, vals: np.ndarray):
    """(sorted keys, vals aligned) pair for vectorized searchsorted maps."""
    order = np.argsort(keys)
    return keys[order], vals[order]


def _sorted_group_reduce(keys: np.ndarray, vals: np.ndarray,
                         ufunc=np.add) -> tuple[np.ndarray, np.ndarray]:
    """(unique keys asc, per-key ``ufunc.reduceat`` fold) — the
    sort+reduceat group kernel, EMPTY-SAFE (flatnonzero over a
    concatenated [True] sentinel yields [0] on empty input, so naked
    ``keys[starts]`` crashes) and dtype-preserving (datetime64 max
    works). Use this for sparse/unbounded keys; ``_int_sum_by`` stays
    the dense-small-group-id kernel."""
    if len(keys) == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    return k[starts], ufunc.reduceat(v, starts)


def _map_keys(sorted_keys: np.ndarray, vals: np.ndarray,
              probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mapped values, hit mask) of ``probe`` against a sorted lookup.
    ``mapped`` always has len(probe) (arbitrary values where the mask is
    False), so ``mapped[hit]`` is well-defined even for empty lookups."""
    if len(sorted_keys) == 0:
        return np.zeros(len(probe), vals.dtype), np.zeros(len(probe), bool)
    pos = np.minimum(np.searchsorted(sorted_keys, probe),
                     len(sorted_keys) - 1)
    hit = sorted_keys[pos] == probe
    return vals[pos], hit


def _int_sum_by(idx: np.ndarray, vals: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(group index, int64 sum, count) per distinct idx — an exact int64
    accumulation (np.bincount's float64 weights would lose low bits past
    2^53, breaking the module's bit-exact-sum guarantee)."""
    if len(idx) == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    acc = np.zeros(int(idx.max()) + 1, np.int64)
    np.add.at(acc, idx, vals.astype(np.int64))
    cnt = np.bincount(idx, minlength=len(acc))
    nz = np.flatnonzero(cnt)
    return nz.astype(np.int64), acc[nz], cnt[nz].astype(np.int64)


def revenue_by_nation(sf_dir: str, num_partitions: int = 16,
                      broadcast_threshold: int = BROADCAST_ROW_LIMIT
                      ) -> ray.data.Dataset:
    """TPC-H Q5-flavor star join: revenue (integer cents) rolled up to
    (r_name, n_name). nation/region are TRUE dimensions (bounded: ≤25
    rows) and always live driver-side as a nationkey -> nation-index
    map. The customer side is SIZE-GATED: under ``broadcast_threshold``
    rows it joins driver-side into one broadcast custkey -> nidx
    lookup (one fact exchange total); above, customers never leave the
    cluster — a co-partitioned union-tag exchange on hash(custkey) %% P
    attaches nidx to orders first (customer scales with the fact table
    at warehouse scale, ~1:40 vs lineitem). Either way the final
    exchange is the co-partitioned rev⋈orders equi-join on
    hash(orderkey) %% P followed by a ~25-row native sum. Both paths
    are value-identical (pinned by tests/test_analytics.py)."""
    import pyarrow.parquet as pq
    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    ndim = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    names = (ndim[["n_name", "r_name"]].drop_duplicates()
             .sort_values(["r_name", "n_name"]).reset_index(drop=True))
    ndim = ndim.merge(names.assign(nidx=names.index.to_numpy(np.int64)),
                      on=["n_name", "r_name"])   # vectorized index attach
    name_ref = ray.put((names["n_name"].to_numpy(),
                        names["r_name"].to_numpy()))

    def tag_rev(t: pa.Table) -> pa.Table:
        return pa.table({
            "part": t.column("part"),
            "o_orderkey": t.column("o_orderkey"),
            "rev_c": t.column("rev_c"),
            "nidx": pa.nulls(t.num_rows, pa.int64()),
            "side": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    rev = _per_order_revenue_parts(sf_dir, num_partitions) \
        .map_batches(tag_rev, batch_format="pyarrow")

    def _orders_out(t: pa.Table, nidx: np.ndarray) -> pa.Table:
        """(part=hash(orderkey), o_orderkey, rev_c=null, nidx, side=1) —
        the shape the rev⋈orders exchange consumes, shared by both
        customer-side paths."""
        keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "o_orderkey": t.column("o_orderkey"),
            "rev_c": pa.nulls(t.num_rows, pa.int64()),
            "nidx": pa.array(nidx.astype(np.int64)),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
        })

    if _table_rows(f"{sf_dir}/customer.parquet") <= broadcast_threshold:
        # broadcast path: custkey -> nidx joined once on the driver
        cust = pq.read_table(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey"]).to_pandas()
        dim = cust.merge(ndim[["n_nationkey", "nidx"]],
                         left_on="c_nationkey", right_on="n_nationkey")
        ck, nv = _sorted_lookup(dim["c_custkey"].to_numpy(),
                                dim["nidx"].to_numpy())
        lk_ref = ray.put((ck, nv))

        def tag_orders(t: pa.Table) -> pa.Table:
            ck_, nv_ = ray.get(lk_ref)
            cust_ = t.column("o_custkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(ck_, nv_, cust_)
            return _orders_out(t.filter(pa.array(hit)), mapped[hit])

        orders = (ray.data.read_parquet(
                      f"{sf_dir}/orders.parquet",
                      columns=["o_orderkey", "o_custkey"])
                  .map_batches(tag_orders, batch_format="pyarrow"))
    else:
        # exchange path: hash(custkey) % P union-tag join attaches nidx
        # to orders without materializing customer anywhere — only the
        # tiny nationkey -> nidx map is broadcast
        nk, nval = _sorted_lookup(
            ndim["n_nationkey"].to_numpy().astype(np.int64),
            ndim["nidx"].to_numpy())
        nk_ref = ray.put((nk, nval))

        def cust_side(t: pa.Table) -> pa.Table:
            nk_, nv_ = ray.get(nk_ref)
            nkey = t.column("c_nationkey").to_numpy(
                zero_copy_only=False).astype(np.int64)
            mapped, hit = _map_keys(nk_, nv_, nkey)
            t = t.filter(pa.array(hit))
            keys = t.column("c_custkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "o_orderkey": pa.nulls(len(keys), pa.int64()),
                "o_custkey": t.column("c_custkey"),
                "nidx": pa.array(mapped[hit].astype(np.int64)),
                "side": pa.array(np.zeros(len(keys), np.int8)),
            })

        def ord_side(t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "nidx": pa.nulls(t.num_rows, pa.int64()),
                "side": pa.array(np.ones(t.num_rows, np.int8)),
            })

        def attach_nidx(g: pa.Table) -> pa.Table:
            side = g.column("side").to_numpy(zero_copy_only=False)
            cu = g.filter(pa.array(side == 0))
            ck_, nv_ = _sorted_lookup(
                cu.column("o_custkey").to_numpy(zero_copy_only=False),
                cu.column("nidx").to_numpy(zero_copy_only=False))
            od = g.filter(pa.array(side == 1))
            probe = od.column("o_custkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(ck_, nv_, probe)
            return _orders_out(od.filter(pa.array(hit)), mapped[hit])

        cust_ds = (ray.data.read_parquet(
                       f"{sf_dir}/customer.parquet",
                       columns=["c_custkey", "c_nationkey"])
                   .map_batches(cust_side, batch_format="pyarrow"))
        ord_ds = (ray.data.read_parquet(
                      f"{sf_dir}/orders.parquet",
                      columns=["o_orderkey", "o_custkey"])
                  .map_batches(ord_side, batch_format="pyarrow"))
        orders = (cust_ds.union(ord_ds)
                  .fx_map_groups(attach_nidx))

    def join_agg(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        rv, od = g.filter(pa.array(side == 0)), g.filter(pa.array(side == 1))
        rk, rc = _combine_per_order(rv)    # fold partials, sorted keys
        ok = od.column("o_orderkey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(rk, rc, ok)
        nidx = od.column("nidx").to_numpy(zero_copy_only=False)[hit]
        gi, sums, _ = _int_sum_by(nidx, mapped[hit])
        return pa.table({"nidx": pa.array(gi),
                         "rev_c": pa.array(sums)})

    def finish(t: pa.Table) -> pa.Table:
        n_names, r_names = ray.get(name_ref)
        ni = t.column("nidx").to_numpy(zero_copy_only=False)
        return pa.table({
            "r_name": pa.array(r_names[ni]),
            "n_name": pa.array(n_names[ni]),
            "revenue_c": t.column("rev_c"),
        })

    joined = (rev.union(orders)
              .fx_map_groups(join_agg))
    # <=25 rows per partition: fold the nation rollup driver-side
    empty = pa.table({"nidx": pa.array([], pa.int64()),
                      "rev_c": pa.array([], pa.int64())})
    folded = _fold_partials(joined, ["nidx"], ["rev_c"], empty)
    return ray.data.from_arrow(finish(folded))


def revenue_by_part_type(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q14-flavor: revenue (integer cents) per part type — the
    ``part`` dimension broadcast as a sorted partkey -> type-index map;
    no shuffle beyond the 6-row per-block partials."""
    import pyarrow.parquet as pq
    part_df = pq.read_table(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_type"]).to_pandas()
    types = np.sort(part_df["p_type"].unique())
    tmap = {t: i for i, t in enumerate(types)}
    pk, tv = _sorted_lookup(
        part_df["p_partkey"].to_numpy(),
        part_df["p_type"].map(tmap).to_numpy().astype(np.int64))
    ref = ray.put((pk, tv, types))

    def partial(t: pa.Table) -> pa.Table:
        pk_, tv_, _ = ray.get(ref)
        keys = t.column("l_partkey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(pk_, tv_, keys)
        gi, sums, _ = _int_sum_by(mapped[hit], _rev_cents(t)[hit])
        return pa.table({"tidx": pa.array(gi), "rev_c": pa.array(sums)})

    def finish(t: pa.Table) -> pa.Table:
        _, _, types_ = ray.get(ref)
        ti = t.column("tidx").to_numpy(zero_copy_only=False)
        return pa.table({"p_type": pa.array(types_[ti]),
                         "revenue_c": t.column("rev_c")})

    parts = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"]
    ).map_batches(partial, batch_format="pyarrow")
    return ray.data.from_arrow(finish(
        _fold_partials(parts, ["tidx"], ["rev_c"],
                       pa.table({"tidx": pa.array([], pa.int64()),
                                 "rev_c": pa.array([], pa.int64())}))))


def top_customers_by_return_revenue(sf_dir: str, k: int = 20,
                                    num_partitions: int = 16
                                    ) -> ray.data.Dataset:
    """TPC-H Q10-flavor: the ``k`` customers with the highest revenue
    from RETURNED lines (l_returnflag = 'R'), with name and nation.
    Returns (c_custkey, c_name, n_name, revenue_c, rk).

    Scale shape — the one query in this module whose aggregate key
    (custkey) differs from its join key (orderkey), so TWO bounded
    co-partitioned exchanges are inherent:

    1. hash(orderkey) %% P: per-(block, orderkey) returned-revenue
       partials union-tagged with (o_orderkey, o_custkey) pairs; the
       map_groups finishes the per-order sum AND the orders equi-join,
       re-emitting (custkey, rev_c) partials already folded per
       partition — at most one row per custkey per partition.
    2. hash(custkey) %% P: fold per-customer totals and keep each
       partition's local top-k — k·P candidate rows to the driver.

    Customer/nation names are attached at the END, to the k winners
    only (dimension reads are driver-side pyarrow like the other
    star joins; only k rows ever need the name columns)."""
    import pyarrow.parquet as pq

    def rev_partial(t: pa.Table) -> pa.Table:
        flag = t.column("l_returnflag").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(flag == "R"))
        g = pa.table({"o_orderkey": t.column("l_orderkey"),
                      "rev_c": pa.array(_rev_cents(t))})
        agg = g.group_by("o_orderkey").aggregate([("rev_c", "sum")])
        keys = agg.column("o_orderkey").to_numpy(zero_copy_only=False)
        n = len(keys)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "o_orderkey": agg.column("o_orderkey"),
            "rev_c": agg.column("rev_c_sum"),
            "o_custkey": pa.nulls(n, pa.int64()),
            "side": pa.array(np.zeros(n, np.int8)),
        })

    rev = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"]
    ).map_batches(rev_partial, batch_format="pyarrow")

    def tag_orders(t: pa.Table) -> pa.Table:
        keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        n = len(keys)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "o_orderkey": t.column("o_orderkey"),
            "rev_c": pa.nulls(n, pa.int64()),
            "o_custkey": t.column("o_custkey"),
            "side": pa.array(np.ones(n, np.int8)),
        })

    orders = (ray.data.read_parquet(
                  f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_custkey"])
              .map_batches(tag_orders, batch_format="pyarrow"))

    cust_empty = pa.table({"part": pa.array([], pa.int32()),
                           "o_custkey": pa.array([], pa.int64()),
                           "rev_c": pa.array([], pa.int64())})

    def join_to_cust(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        rv, od = g.filter(pa.array(side == 0)), g.filter(pa.array(side == 1))
        rk, rc = _combine_per_order(rv)    # per-order totals, sorted keys
        ok = od.column("o_orderkey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(rk, rc, ok)
        ck = od.column("o_custkey").to_numpy(zero_copy_only=False)[hit]
        if len(ck) == 0:
            return cust_empty
        # fold to one row per custkey BEFORE the second exchange
        order = np.argsort(ck, kind="stable")
        cks, rcs = ck[order], mapped[hit][order].astype(np.int64)
        starts = np.flatnonzero(np.concatenate([[True],
                                                cks[1:] != cks[:-1]]))
        cu = cks[starts]
        sums = np.add.reduceat(rcs, starts)
        return pa.table({
            "part": _hash_part(cu, num_partitions),
            "o_custkey": pa.array(cu),
            "rev_c": pa.array(sums),
        })

    per_cust = (rev.union(orders)
                .fx_map_groups(join_to_cust))

    topk_empty = pa.table({"o_custkey": pa.array([], pa.int64()),
                           "rev_c": pa.array([], pa.int64())})

    def local_topk(g: pa.Table) -> pa.Table:
        ck = g.column("o_custkey").to_numpy(zero_copy_only=False)
        rc = g.column("rev_c").to_numpy(zero_copy_only=False)
        order = np.argsort(ck, kind="stable")
        cks, rcs = ck[order], rc[order].astype(np.int64)
        starts = np.flatnonzero(np.concatenate([[True],
                                                cks[1:] != cks[:-1]]))
        cu, sums = cks[starts], np.add.reduceat(rcs, starts)
        head = np.lexsort((cu, -sums))[:k]
        return pa.table({"o_custkey": pa.array(cu[head]),
                         "rev_c": pa.array(sums[head])})

    cand = (per_cust.fx_map_groups(local_topk))
    t = _concat_nonempty(cand, topk_empty)
    ck = t.column("o_custkey").to_numpy(zero_copy_only=False)
    rc = t.column("rev_c").to_numpy(zero_copy_only=False)
    head = np.lexsort((ck, -rc))[:k]
    win_keys, win_rev = ck[head], rc[head].astype(np.int64)

    # name lookup for the k WINNERS only: a predicate-pushdown point
    # read (row-group statistics prune), never a full customer scan —
    # at warehouse scale customer is a fact-sized table and only k=20
    # rows need names
    import pyarrow.dataset as pads
    cust = pads.dataset(f"{sf_dir}/customer.parquet").to_table(
        columns=["c_custkey", "c_name", "c_nationkey"],
        filter=pads.field("c_custkey").isin(win_keys.tolist())).to_pandas()
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nat, left_on="c_nationkey",
                     right_on="n_nationkey").set_index("c_custkey")
    names = dim.loc[win_keys]
    return ray.data.from_arrow(pa.table({
        "c_custkey": pa.array(win_keys.astype(np.int64)),
        "c_name": pa.array(names["c_name"].to_numpy()),
        "n_name": pa.array(names["n_name"].to_numpy()),
        "revenue_c": pa.array(win_rev),
        "rk": pa.array(np.arange(1, len(win_keys) + 1, dtype=np.int64)),
    }))


def customers_without_orders(sf_dir: str, since: str = "2000-01-01",
                             num_partitions: int = 16) -> ray.data.Dataset:
    """Distributed ANTI-JOIN: customers with NO order on or after
    ``since`` (lapsed customers). Returns (c_custkey, c_name,
    acctbal_c) — one row per lapsed customer.

    Scale shape: neither side is broadcast (at warehouse scale BOTH key
    sets are large). The orders side is row-filtered at the read, then
    shrinks to per-block DISTINCT custkey partials before the exchange;
    one co-partitioned union-tag groupby on hash(custkey) %% P lands
    every customer row with every order-key partial that could match
    it, and the per-partition anti is a single vectorized searchsorted
    miss-test. Output stays distributed (a Dataset) — the result can be
    a large fraction of customer."""
    cutoff = np.datetime64(since, "us")

    def order_keys(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(od >= cutoff))
        keys = np.unique(t.column("o_custkey").to_numpy(
            zero_copy_only=False))
        n = len(keys)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "c_custkey": pa.array(keys.astype(np.int64)),
            "c_name": pa.nulls(n, pa.string()),
            "acctbal_c": pa.nulls(n, pa.int64()),
            "side": pa.array(np.zeros(n, np.int8)),
        })

    probe = (ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey", "o_orderdate"])
             .map_batches(order_keys, batch_format="pyarrow"))

    def tag_cust(t: pa.Table) -> pa.Table:
        keys = t.column("c_custkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "c_custkey": t.column("c_custkey"),
            "c_name": t.column("c_name"),
            "acctbal_c": pa.array(_cents(t.column("c_acctbal"))),
            "side": pa.array(np.ones(len(keys), np.int8)),
        })

    cust = (ray.data.read_parquet(
                f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_name", "c_acctbal"])
            .map_batches(tag_cust, batch_format="pyarrow"))

    def anti(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        have = np.unique(g.filter(pa.array(side == 0))
                         .column("c_custkey")
                         .to_numpy(zero_copy_only=False))
        c = g.filter(pa.array(side == 1))
        keys = c.column("c_custkey").to_numpy(zero_copy_only=False)
        _, hit = _map_keys(have, have, keys)
        c = c.filter(pa.array(~hit))
        return pa.table({"c_custkey": c.column("c_custkey"),
                         "c_name": c.column("c_name"),
                         "acctbal_c": c.column("acctbal_c")})

    return (probe.union(cust)
            .fx_map_groups(anti))


def supplier_balance_by_nation(sf_dir: str) -> ray.data.Dataset:
    """Supplier account-balance rollup per nation (cents): nation is
    broadcast; supplier streams through one partial-agg pass."""
    import pyarrow.parquet as pq
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    nk, nv = _sorted_lookup(nat["n_nationkey"].to_numpy().astype(np.int64),
                            np.arange(len(nat), dtype=np.int64))
    ref = ray.put((nk, nv, nat["n_name"].to_numpy()))

    def partial(t: pa.Table) -> pa.Table:
        nk_, nv_, _ = ray.get(ref)
        keys = t.column("s_nationkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        mapped, hit = _map_keys(nk_, nv_, keys)
        gi, sums, cnts = _int_sum_by(mapped[hit],
                                     _cents(t.column("s_acctbal"))[hit])
        return pa.table({
            "nidx": pa.array(gi),
            "bal_c": pa.array(sums),
            "n_suppliers": pa.array(cnts),
        })

    def finish(t: pa.Table) -> pa.Table:
        _, _, names = ray.get(ref)
        ni = t.column("nidx").to_numpy(zero_copy_only=False)
        return pa.table({
            "n_name": pa.array(names[ni]),
            "sum_acctbal_c": t.column("bal_c"),
            "n_suppliers": t.column("n_suppliers"),
        })

    parts = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_nationkey", "s_acctbal"]
    ).map_batches(partial, batch_format="pyarrow")
    return ray.data.from_arrow(finish(
        _fold_partials(parts, ["nidx"], ["bal_c", "n_suppliers"],
                       pa.table({"nidx": pa.array([], pa.int64()),
                                 "bal_c": pa.array([], pa.int64()),
                                 "n_suppliers": pa.array([], pa.int64())}))))


def small_quantity_revenue(sf_dir: str,
                           num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q17-flavor AGGREGATE SELF-JOIN on the fact table: total
    revenue (and line count) from lineitems whose quantity is below 20%
    of their own part's average quantity. Returns one row
    (revenue_c, n_lines).

    Scale shape: the per-part average and the rows it filters live in
    the SAME table, so the fact data must meet its own aggregate — one
    union-tag exchange on hash(partkey) %% P carrying (a) per-(block,
    partkey) quantity partials (sum_qty_c, n) and (b) the narrow
    (partkey, qty_c, price_c) line triples; each partition folds its
    partials and filters its lines in one vectorized pass, emitting a
    single (revenue_c, n_lines) partial — the driver folds ≤P rows.
    The 20%%-of-average test is INTEGER-EXACT: qty < 0.2·(sum/n) ⇔
    5·qty_c·n < sum_qty_c (no float division on either side, so the
    SQL oracle reproduces the row set bit-exactly)."""

    def tag_lines(t: pa.Table) -> pa.Table:
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        qty_c = _cents(t.column("l_quantity"))
        price_c = _cents(t.column("l_extendedprice"))
        g = pa.table({"pk": t.column("l_partkey"),
                      "q": pa.array(qty_c),
                      "one": pa.array(np.ones(len(pk), np.int64))})
        agg = g.group_by("pk").aggregate([("q", "sum"), ("one", "sum")])
        apk = agg.column("pk").to_numpy(zero_copy_only=False)
        n_a, n_l = len(apk), len(pk)
        return pa.table({
            "part": pa.concat_arrays([
                _hash_part(apk, num_partitions),
                _hash_part(pk, num_partitions)]),
            "l_partkey": pa.concat_arrays(
                [agg.column("pk").combine_chunks(),
                 t.column("l_partkey").combine_chunks()]),
            "sum_qty_c": pa.concat_arrays([
                agg.column("q_sum").combine_chunks(),
                pa.nulls(n_l, pa.int64())]),
            "n": pa.concat_arrays([
                agg.column("one_sum").combine_chunks(),
                pa.nulls(n_l, pa.int64())]),
            "qty_c": pa.concat_arrays([pa.nulls(n_a, pa.int64()),
                                       pa.array(qty_c)]),
            "price_c": pa.concat_arrays([pa.nulls(n_a, pa.int64()),
                                         pa.array(price_c)]),
            "side": pa.array(np.concatenate(
                [np.zeros(n_a, np.int8), np.ones(n_l, np.int8)])),
        })

    def fold_filter(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        ag, ln = g.filter(pa.array(side == 0)), g.filter(pa.array(side == 1))
        apk = ag.column("l_partkey").to_numpy(zero_copy_only=False)
        order = np.argsort(apk, kind="stable")
        apk = apk[order]
        sq = ag.column("sum_qty_c").to_numpy(zero_copy_only=False)[order]
        nn = ag.column("n").to_numpy(zero_copy_only=False)[order]
        starts = np.flatnonzero(np.concatenate([[True],
                                                apk[1:] != apk[:-1]]))
        keys = apk[starts]
        sums = np.add.reduceat(sq.astype(np.int64), starts)
        cnts = np.add.reduceat(nn.astype(np.int64), starts)
        lpk = ln.column("l_partkey").to_numpy(zero_copy_only=False)
        # ONE binary-search pass: sums and cnts share the key array
        if len(keys) == 0:
            return pa.table({"revenue_c": pa.array([0], pa.int64()),
                             "n_lines": pa.array([0], pa.int64())})
        pos = np.minimum(np.searchsorted(keys, lpk), len(keys) - 1)
        hit = keys[pos] == lpk
        s_m, c_m = sums[pos], cnts[pos]
        qty = ln.column("qty_c").to_numpy(zero_copy_only=False)
        price = ln.column("price_c").to_numpy(zero_copy_only=False)
        keep = hit & (5 * qty * c_m < s_m)
        return pa.table({
            "revenue_c": pa.array([int(price[keep].sum())], pa.int64()),
            "n_lines": pa.array([int(keep.sum())], pa.int64()),
        })

    ds = (ray.data.read_parquet(
              f"{sf_dir}/lineitem.parquet",
              columns=["l_partkey", "l_quantity", "l_extendedprice"])
          .map_batches(tag_lines, batch_format="pyarrow")
          .fx_map_groups(fold_filter))
    empty = pa.table({"revenue_c": pa.array([], pa.int64()),
                      "n_lines": pa.array([], pa.int64())})
    t = _concat_nonempty(ds, empty)
    return ray.data.from_arrow(pa.table({
        "revenue_c": pa.array([int(t.column("revenue_c").to_numpy(
            zero_copy_only=False).sum())], pa.int64()),
        "n_lines": pa.array([int(t.column("n_lines").to_numpy(
            zero_copy_only=False).sum())], pa.int64()),
    }))


def pricing_rollup(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) over the Q1 pricing
    summary: leaf rows plus per-flag subtotals plus the grand total,
    rolled-up keys shown as the sentinel 'ALL' (deterministic across
    engines, unlike NULL group markers). The rollup is computed FROM
    the six leaf rows — distributed cost identical to
    ``pricing_summary`` (per-block partials, zero exchanges); the
    super-aggregate levels are pure driver arithmetic over ≤6 rows."""
    import pandas as pd

    leaf = pricing_summary(sf_dir).to_pandas()
    sums = ["sum_qty_c", "sum_base_c", "sum_disc_c", "sum_charge_c",
            "n_lines"]
    if leaf.empty:
        # SQL ROLLUP over zero rows still emits ONE grand-total row:
        # count 0, sums NULL (sum() over nothing is NULL, not 0)
        return ray.data.from_arrow(pa.table({
            "l_returnflag": pa.array(["ALL"]),
            "l_linestatus": pa.array(["ALL"]),
            "sum_qty_c": pa.nulls(1, pa.int64()),
            "sum_base_c": pa.nulls(1, pa.int64()),
            "sum_disc_c": pa.nulls(1, pa.int64()),
            "sum_charge_c": pa.nulls(1, pa.int64()),
            "n_lines": pa.array([0], pa.int64()),
        }))
    lvl1 = (leaf.groupby("l_returnflag", as_index=False)[sums].sum()
            .assign(l_linestatus="ALL"))
    lvl0 = pd.DataFrame([{**{c: int(leaf[c].sum()) for c in sums},
                          "l_returnflag": "ALL", "l_linestatus": "ALL"}])
    cols = ["l_returnflag", "l_linestatus"] + sums
    out = pd.concat([leaf[cols], lvl1[cols], lvl0[cols]],
                    ignore_index=True)
    for c in sums:
        out[c] = out[c].astype("int64")
    return ray.data.from_pandas(out)


def priority_wait_orders(sf_dir: str, date_from: str = "1996-01-01",
                         date_to: str = "1996-07-01",
                         late_days: int = 90,
                         num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q4-flavor EXISTS semi-join: per order priority, how many
    orders in the window have at least one LATE line item — a shipment
    ``late_days`` or more after the order date (this corpus's lineitem
    carries no commit/receipt dates, so lateness is defined against
    o_orderdate). Returns (o_orderpriority, order_count).

    Scale shape: EXISTS(l_shipdate >= o_orderdate + D) ==
    max(l_shipdate) >= o_orderdate + D, so the fact side shrinks to
    per-block per-order max-shipdate partials BEFORE the exchange; the
    orders side is date-filtered at the batch level. One co-partitioned
    union-tag groupby on hash(orderkey) %% P finishes the max and tests
    lateness per order; only (priority, count) partials leave each
    partition and the driver folds O(5 x P) rows."""
    lo = np.datetime64(date_from, "us")
    hi = np.datetime64(date_to, "us")
    late = np.timedelta64(late_days, "D")

    def line_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"k": t.column("l_orderkey"),
                      "s": t.column("l_shipdate")})
        agg = g.group_by("k").aggregate([("s", "max")])
        keys = agg.column("k").to_numpy(zero_copy_only=False)
        n = len(keys)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "okey": agg.column("k"),
            "maxship": agg.column("s_max"),
            "o_orderpriority": pa.nulls(n, pa.string()),
            "odate": pa.nulls(n, pa.timestamp("us")),
            "side": pa.array(np.zeros(n, np.int8)),
        })

    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"]
    ).map_batches(line_partial, batch_format="pyarrow")

    def order_rows(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((od >= lo) & (od < hi)))
        keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "okey": t.column("o_orderkey"),
            "maxship": pa.nulls(t.num_rows, pa.timestamp("us")),
            "o_orderpriority": t.column("o_orderpriority"),
            "odate": t.column("o_orderdate"),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(order_rows, batch_format="pyarrow")

    def late_partial(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        lp = g.filter(pa.array(side == 0))
        o = g.filter(pa.array(side == 1))
        if o.num_rows == 0:
            return pa.table({"o_orderpriority": pa.array([], pa.string()),
                             "order_count": pa.array([], pa.int64())})
        lk = lp.column("okey").to_numpy(zero_copy_only=False)
        ls = lp.column("maxship").to_numpy(zero_copy_only=False)
        # finish the per-order max over the block partials (empty-safe:
        # a partition may hold orders whose keys have no line items)
        uk, umax = _sorted_group_reduce(lk, ls, np.maximum)
        ok = o.column("okey").to_numpy(zero_copy_only=False)
        od = o.column("odate").to_numpy(zero_copy_only=False)
        ms, hit = _map_keys(uk, umax, ok)
        is_late = hit & (ms >= od + late)
        prio = o.column("o_orderpriority").to_numpy(zero_copy_only=False)
        up, pi = np.unique(prio[is_late], return_inverse=True)
        return pa.table({
            "o_orderpriority": pa.array(up),
            "order_count": pa.array(np.bincount(
                pi, minlength=len(up)).astype(np.int64)),
        })

    parts = (lines.union(orders)
             .fx_map_groups(late_partial))
    return ray.data.from_arrow(_fold_partials(
        parts, ["o_orderpriority"], ["order_count"],
        pa.table({"o_orderpriority": pa.array([], pa.string()),
                  "order_count": pa.array([], pa.int64())})))


def ship_delay_priority(sf_dir: str, date_from: str = "1996-01-01",
                        date_to: str = "1997-01-01",
                        num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q12-flavor: line items SHIPPED in the window, banded by
    ship delay (days from order date: <30 FAST, <60 NORMAL, else SLOW
    — this corpus has no l_shipmode, so the delay band plays its role),
    counting high-priority (1-URGENT / 2-HIGH) vs lower-priority lines
    per band. Returns (delay_band, high_line_count, low_line_count).

    Scale shape: the fact side is date-filtered and projected to
    (orderkey, shipdate) at the read; ONE co-partitioned union-tag
    exchange on hash(orderkey) %% P meets it with the orders dimension
    rows; the per-partition finish is a vectorized searchsorted +
    bincount over band x priority, and only (band, 2 counts) partials
    reach the driver fold."""
    lo = np.datetime64(date_from, "us")
    hi = np.datetime64(date_to, "us")
    bands = np.array(["FAST", "NORMAL", "SLOW"])

    def line_rows(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((sd >= lo) & (sd < hi)))
        keys = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "okey": t.column("l_orderkey"),
            "ship": t.column("l_shipdate"),
            "o_orderpriority": pa.nulls(t.num_rows, pa.string()),
            "odate": pa.nulls(t.num_rows, pa.timestamp("us")),
            "side": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"]
    ).map_batches(line_rows, batch_format="pyarrow")

    def order_rows(t: pa.Table) -> pa.Table:
        keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "okey": t.column("o_orderkey"),
            "ship": pa.nulls(t.num_rows, pa.timestamp("us")),
            "o_orderpriority": t.column("o_orderpriority"),
            "odate": t.column("o_orderdate"),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
        })

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(order_rows, batch_format="pyarrow")

    def band_partial(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        ln = g.filter(pa.array(side == 0))
        o = g.filter(pa.array(side == 1))
        if ln.num_rows == 0:
            return pa.table({"delay_band": pa.array([], pa.string()),
                             "high_line_count": pa.array([], pa.int64()),
                             "low_line_count": pa.array([], pa.int64())})
        ok = o.column("okey").to_numpy(zero_copy_only=False)
        order = np.argsort(ok, kind="stable")
        ok = ok[order]
        od = o.column("odate").to_numpy(zero_copy_only=False)[order]
        prio = o.column("o_orderpriority").to_numpy(
            zero_copy_only=False)[order]
        is_high = (prio == "1-URGENT") | (prio == "2-HIGH")
        lk = ln.column("okey").to_numpy(zero_copy_only=False)
        ls = ln.column("ship").to_numpy(zero_copy_only=False)
        pos, hit = _map_keys(ok, np.arange(len(ok)), lk)
        if not hit.all():
            raise ValueError("lineitem orderkey absent from orders — "
                             "mismatched inputs")
        delay = ((ls - od[pos]) // np.timedelta64(1, "D")).astype(np.int64)
        band = np.digitize(delay, [30, 60])          # 0/1/2
        cell = band * 2 + is_high[pos].astype(np.int64)
        counts = np.bincount(cell, minlength=6)
        present = np.flatnonzero(counts[0::2] + counts[1::2])
        return pa.table({
            "delay_band": pa.array(bands[present]),
            "high_line_count": pa.array(counts[1::2][present]),
            "low_line_count": pa.array(counts[0::2][present]),
        })

    parts = (lines.union(orders)
             .fx_map_groups(band_partial))
    return ray.data.from_arrow(_fold_partials(
        parts, ["delay_band"], ["high_line_count", "low_line_count"],
        pa.table({"delay_band": pa.array([], pa.string()),
                  "high_line_count": pa.array([], pa.int64()),
                  "low_line_count": pa.array([], pa.int64())})))


def _ship_years(t: pa.Table) -> np.ndarray:
    """Calendar year of l_shipdate as int64 (vectorized datetime64 math)."""
    sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
    return sd.astype("datetime64[Y]").astype(np.int64) + 1970


def _lines_with_supp_nation(sf_dir: str, lines_proj: ray.data.Dataset,
                            proj_fields: "list[tuple[str, pa.DataType]]",
                            line_partial, num_partitions: int,
                            broadcast_threshold: int
                            ) -> ray.data.Dataset:
    """Run ``line_partial(batch, s_nationkey_per_row)`` over projected
    lineitem batches with the supplier's nationkey attached — the
    SIZE-GATED dimension attach shared by the Q7/Q8-flavor queries.
    ``lines_proj`` batches must carry ``l_suppkey`` plus exactly
    ``proj_fields``; rows without a supplier match are dropped.

    Under ``broadcast_threshold`` supplier rows, the sorted
    (suppkey -> nationkey) lookup is ONE ``ray.put`` broadcast and the
    attach is a per-batch searchsorted (zero exchanges added). Above,
    supplier never leaves the cluster: a co-partitioned union-tag
    exchange on hash(suppkey) %% P meets the projected fact rows with
    the (suppkey, nationkey) pairs — one exchange added, O(supplier +
    projected-fact) rows moved."""
    import pyarrow.parquet as pq

    if _table_rows(f"{sf_dir}/supplier.parquet") <= broadcast_threshold:
        supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_nationkey"]
                             ).to_pandas()
        sk, sv = _sorted_lookup(
            supp["s_suppkey"].to_numpy(),
            supp["s_nationkey"].to_numpy().astype(np.int64))
        supp_ref = ray.put((sk, sv))

        def attach_snat_bc(t: pa.Table) -> pa.Table:
            sk_, sv_ = ray.get(supp_ref)
            keys = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(sk_, sv_, keys)
            return line_partial(t.filter(pa.array(hit)), mapped[hit])

        return lines_proj.map_batches(attach_snat_bc,
                                      batch_format="pyarrow")

    # union-tag exchange on hash(suppkey) % P — supplier stays
    # distributed; only its (suppkey, nationkey) pairs move
    def supp_side(t: pa.Table) -> pa.Table:
        keys = t.column("s_suppkey").to_numpy(zero_copy_only=False)
        cols = {
            "spart": _hash_part(keys, num_partitions),
            "l_suppkey": t.column("s_suppkey"),
            "snat": pa.array(t.column("s_nationkey").to_numpy(
                zero_copy_only=False).astype(np.int64)),
        }
        for name, typ in proj_fields:
            cols[name] = pa.nulls(t.num_rows, typ)
        cols["sside"] = pa.array(np.zeros(t.num_rows, np.int8))
        return pa.table(cols)

    def line_side(t: pa.Table) -> pa.Table:
        keys = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        cols = {
            "spart": _hash_part(keys, num_partitions),
            "l_suppkey": t.column("l_suppkey"),
            "snat": pa.nulls(t.num_rows, pa.int64()),
        }
        for name, _ in proj_fields:
            cols[name] = t.column(name)
        cols["sside"] = pa.array(np.ones(t.num_rows, np.int8))
        return pa.table(cols)

    def attach_snat_ex(g: pa.Table) -> pa.Table:
        sside = g.column("sside").to_numpy(zero_copy_only=False)
        su = g.filter(pa.array(sside == 0))
        ln = g.filter(pa.array(sside == 1))
        sk_, sv_ = _sorted_lookup(
            su.column("l_suppkey").to_numpy(zero_copy_only=False),
            su.column("snat").to_numpy(zero_copy_only=False))
        keys = ln.column("l_suppkey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(sk_, sv_, keys)
        return line_partial(ln.filter(pa.array(hit)), mapped[hit])

    supp_ds = (ray.data.read_parquet(
                   f"{sf_dir}/supplier.parquet",
                   columns=["s_suppkey", "s_nationkey"])
               .map_batches(supp_side, batch_format="pyarrow"))
    return (supp_ds.union(
                lines_proj.map_batches(line_side,
                                       batch_format="pyarrow"))
            .fx_map_groups(attach_snat_ex, part_col="spart"))


def volume_shipping(sf_dir: str, year_from: int = 1995,
                    year_to: int = 1997, num_partitions: int = 16,
                    broadcast_threshold: int = BROADCAST_ROW_LIMIT
                    ) -> ray.data.Dataset:
    """TPC-H Q7-flavor volume shipping: revenue (integer cents) between
    every (supplier nation, customer nation) pair per ship year in
    [year_from, year_to). Returns (supp_nation, cust_nation, l_year,
    revenue_c) — bounded at 25 x 25 x years rows.

    Scale shape: nation (<=25 rows) is always a driver-side broadcast
    map. supplier and customer both scale with the fact table, so each
    attach is SIZE-GATED like revenue_by_nation's: under
    ``broadcast_threshold`` rows the (key -> nationkey) lookup is one
    ``ray.put`` broadcast; above it the dimension never leaves the
    cluster — a co-partitioned union-tag exchange on hash(key) %% P
    (suppkey for lineitem, custkey for orders) attaches the nationkey.
    Either way the FINAL exchange is one co-partitioned union-tag
    groupby on hash(orderkey) %% P where per-order customer nation
    meets the per-(order, supp-nation, year) revenue partials; only
    encoded (cell, rev_c) partials — <=1250 rows per partition — reach
    the driver fold. Both gate paths are value-identical (pinned by
    tests/test_analytics.py)."""
    import pyarrow.parquet as pq
    lo = np.datetime64(f"{year_from}-01-01", "us")
    hi = np.datetime64(f"{year_to}-01-01", "us")
    n_years = year_to - year_from
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    nn = int(nat["n_nationkey"].max()) + 1
    names = np.empty(nn, object)
    names[nat["n_nationkey"].to_numpy()] = nat["n_name"].to_numpy()

    def line_project(t: pa.Table) -> pa.Table:
        """Window-filter lineitem and project to the join-ready shape
        (l_suppkey, l_orderkey, yidx, rev_c) shared by both gate paths."""
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((sd >= lo) & (sd < hi)))
        return pa.table({
            "l_suppkey": t.column("l_suppkey"),
            "l_orderkey": t.column("l_orderkey"),
            "yidx": pa.array(_ship_years(t) - year_from),
            "rev_c": pa.array(_rev_cents(t)),
        })

    def line_partial(t: pa.Table, snat: np.ndarray) -> pa.Table:
        """Per-block combine of (orderkey, supp-nation, year) revenue —
        the partials the final orderkey exchange consumes (side=0)."""
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        yi = t.column("yidx").to_numpy(zero_copy_only=False)
        rv = t.column("rev_c").to_numpy(zero_copy_only=False)
        cell = (ok * nn + snat) * n_years + yi
        ucell, sums = _sorted_group_reduce(cell, rv.astype(np.int64))
        uok = ucell // (nn * n_years)
        return pa.table({
            "part": _hash_part(uok, num_partitions),
            "o_orderkey": pa.array(uok),
            "scell": pa.array(ucell % (nn * n_years)),
            "rev_c": pa.array(sums.astype(np.int64)),
            "cnat": pa.nulls(len(uok), pa.int64()),
            "side": pa.array(np.zeros(len(uok), np.int8)),
        })

    lines_proj = (ray.data.read_parquet(
                      f"{sf_dir}/lineitem.parquet",
                      columns=["l_suppkey", "l_orderkey", "l_shipdate",
                               "l_extendedprice", "l_discount"])
                  .map_batches(line_project, batch_format="pyarrow"))
    lines = _lines_with_supp_nation(
        sf_dir, lines_proj,
        [("l_orderkey", pa.int64()), ("yidx", pa.int64()),
         ("rev_c", pa.int64())],
        line_partial, num_partitions, broadcast_threshold)

    def orders_out(t: pa.Table, cnat: np.ndarray) -> pa.Table:
        keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "o_orderkey": t.column("o_orderkey"),
            "scell": pa.nulls(t.num_rows, pa.int64()),
            "rev_c": pa.nulls(t.num_rows, pa.int64()),
            "cnat": pa.array(cnat.astype(np.int64)),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
        })

    if _table_rows(f"{sf_dir}/customer.parquet") <= broadcast_threshold:
        cust = pq.read_table(f"{sf_dir}/customer.parquet",
                             columns=["c_custkey", "c_nationkey"]
                             ).to_pandas()
        ck, cv = _sorted_lookup(
            cust["c_custkey"].to_numpy(),
            cust["c_nationkey"].to_numpy().astype(np.int64))
        cust_ref = ray.put((ck, cv))

        def tag_orders(t: pa.Table) -> pa.Table:
            ck_, cv_ = ray.get(cust_ref)
            keys = t.column("o_custkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(ck_, cv_, keys)
            return orders_out(t.filter(pa.array(hit)), mapped[hit])

        orders = (ray.data.read_parquet(
                      f"{sf_dir}/orders.parquet",
                      columns=["o_orderkey", "o_custkey"])
                  .map_batches(tag_orders, batch_format="pyarrow"))
    else:
        # union-tag exchange on hash(custkey) % P, as in revenue_by_nation
        def cust_side(t: pa.Table) -> pa.Table:
            keys = t.column("c_custkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "cpart": _hash_part(keys, num_partitions),
                "o_custkey": t.column("c_custkey"),
                "o_orderkey": pa.nulls(t.num_rows, pa.int64()),
                "cnat": pa.array(
                    t.column("c_nationkey").to_numpy(
                        zero_copy_only=False).astype(np.int64)),
                "cside": pa.array(np.zeros(t.num_rows, np.int8)),
            })

        def ord_side(t: pa.Table) -> pa.Table:
            keys = t.column("o_custkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "cpart": _hash_part(keys, num_partitions),
                "o_custkey": t.column("o_custkey"),
                "o_orderkey": t.column("o_orderkey"),
                "cnat": pa.nulls(t.num_rows, pa.int64()),
                "cside": pa.array(np.ones(t.num_rows, np.int8)),
            })

        def attach_cnat(g: pa.Table) -> pa.Table:
            cside = g.column("cside").to_numpy(zero_copy_only=False)
            cu = g.filter(pa.array(cside == 0))
            od = g.filter(pa.array(cside == 1))
            ck_, cv_ = _sorted_lookup(
                cu.column("o_custkey").to_numpy(zero_copy_only=False),
                cu.column("cnat").to_numpy(zero_copy_only=False))
            keys = od.column("o_custkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(ck_, cv_, keys)
            return orders_out(od.filter(pa.array(hit)), mapped[hit])

        cust_ds = (ray.data.read_parquet(
                       f"{sf_dir}/customer.parquet",
                       columns=["c_custkey", "c_nationkey"])
                   .map_batches(cust_side, batch_format="pyarrow"))
        ord_ds = (ray.data.read_parquet(
                      f"{sf_dir}/orders.parquet",
                      columns=["o_orderkey", "o_custkey"])
                  .map_batches(ord_side, batch_format="pyarrow"))
        orders = (cust_ds.union(ord_ds)
                  .fx_map_groups(attach_cnat, part_col="cpart"))

    def join_agg(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        ln = g.filter(pa.array(side == 0))
        od = g.filter(pa.array(side == 1))
        ok, cn = _sorted_lookup(
            od.column("o_orderkey").to_numpy(zero_copy_only=False),
            od.column("cnat").to_numpy(zero_copy_only=False))
        probe = ln.column("o_orderkey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(ok, cn, probe)
        scell = ln.column("scell").to_numpy(zero_copy_only=False)[hit]
        rv = ln.column("rev_c").to_numpy(zero_copy_only=False)[hit]
        # (snat, yidx) from scell + cnat -> one dense cell id
        cell = (scell // n_years) * (nn * n_years) \
            + mapped[hit] * n_years + scell % n_years
        gi, sums, _ = _int_sum_by(cell, rv)
        return pa.table({"cell": pa.array(gi), "rev_c": pa.array(sums)})

    joined = (lines.union(orders)
              .fx_map_groups(join_agg))
    empty = pa.table({"cell": pa.array([], pa.int64()),
                      "rev_c": pa.array([], pa.int64())})
    folded = _fold_partials(joined, ["cell"], ["rev_c"], empty)
    cell = folded.column("cell").to_numpy(zero_copy_only=False)
    return ray.data.from_arrow(pa.table({
        "supp_nation": pa.array(names[cell // (nn * n_years)]
                                .astype(str)),
        "cust_nation": pa.array(names[(cell // n_years) % nn]
                                .astype(str)),
        "l_year": pa.array((cell % n_years) + year_from),
        "revenue_c": folded.column("rev_c"),
    }))


def brand_revenue_by_year(sf_dir: str, num_partitions: int = 16,
                          broadcast_threshold: int = BROADCAST_ROW_LIMIT
                          ) -> ray.data.Dataset:
    """TPC-H Q9-flavor product profit rollup: revenue (integer cents)
    per (p_brand, ship year). Returns (p_brand, l_year, revenue_c) —
    bounded at brands x years rows.

    Scale shape: ``part`` scales with the fact table, so the brand
    attach is SIZE-GATED. Under ``broadcast_threshold`` rows the
    (partkey -> brand) lookup broadcasts once and the whole query is
    ZERO exchanges (per-block partials + driver fold of O(brands x
    years x blocks) rows). Above, ONE co-partitioned union-tag
    exchange on hash(partkey) %% P attaches the brand string to
    per-(partkey, year) revenue partials; only (brand, year, rev_c)
    rows leave each partition. Both paths value-identical (pinned by
    tests/test_analytics.py)."""
    import pyarrow.parquet as pq

    def brand_year_partial(brands: np.ndarray, years: np.ndarray,
                           rev: np.ndarray) -> pa.Table:
        """Combine (brand, year, rev) rows into one partial table."""
        ub, bi = np.unique(brands, return_inverse=True)
        cell = bi.astype(np.int64) * 4096 + (years - 1970)
        gi, sums, _ = _int_sum_by(cell, rev)
        return pa.table({
            "p_brand": pa.array(ub[gi // 4096].astype(str)),
            "l_year": pa.array((gi % 4096) + 1970),
            "revenue_c": pa.array(sums),
        })

    if _table_rows(f"{sf_dir}/part.parquet") <= broadcast_threshold:
        part = pq.read_table(f"{sf_dir}/part.parquet",
                             columns=["p_partkey", "p_brand"]).to_pandas()
        brands = np.sort(part["p_brand"].unique())
        bmap = {b: i for i, b in enumerate(brands)}
        pk, bv = _sorted_lookup(
            part["p_partkey"].to_numpy(),
            part["p_brand"].map(bmap).to_numpy().astype(np.int64))
        ref = ray.put((pk, bv, brands))

        def partial(t: pa.Table) -> pa.Table:
            pk_, bv_, brands_ = ray.get(ref)
            keys = t.column("l_partkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(pk_, bv_, keys)
            return brand_year_partial(brands_[mapped[hit]],
                                      _ship_years(t)[hit],
                                      _rev_cents(t)[hit])

        parts = (ray.data.read_parquet(
                     f"{sf_dir}/lineitem.parquet",
                     columns=["l_partkey", "l_shipdate",
                              "l_extendedprice", "l_discount"])
                 .map_batches(partial, batch_format="pyarrow"))
    else:
        def part_side(t: pa.Table) -> pa.Table:
            keys = t.column("p_partkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "pkey": t.column("p_partkey"),
                "p_brand": t.column("p_brand"),
                "l_year": pa.nulls(t.num_rows, pa.int64()),
                "revenue_c": pa.nulls(t.num_rows, pa.int64()),
                "side": pa.array(np.zeros(t.num_rows, np.int8)),
            })

        def line_side(t: pa.Table) -> pa.Table:
            """Per-block (partkey, year) revenue partials, exchange-tagged.
            Sort+reduceat, NOT _int_sum_by: the cell ids are sparse
            (partkey-scaled), so a dense accumulator would allocate
            max_partkey x 4096 int64s per block."""
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
            cell = pk * 4096 + (_ship_years(t) - 1970)
            gi, sums = _sorted_group_reduce(cell, _rev_cents(t))
            upk = gi // 4096
            return pa.table({
                "part": _hash_part(upk, num_partitions),
                "pkey": pa.array(upk),
                "p_brand": pa.nulls(len(upk), pa.string()),
                "l_year": pa.array((gi % 4096) + 1970),
                "revenue_c": pa.array(sums),
                "side": pa.array(np.ones(len(upk), np.int8)),
            })

        def attach_brand(g: pa.Table) -> pa.Table:
            side = g.column("side").to_numpy(zero_copy_only=False)
            pt = g.filter(pa.array(side == 0))
            ln = g.filter(pa.array(side == 1))
            pk_, bv_ = _sorted_lookup(
                pt.column("pkey").to_numpy(zero_copy_only=False),
                pt.column("p_brand").to_numpy(zero_copy_only=False))
            keys = ln.column("pkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(pk_, bv_, keys)
            return brand_year_partial(
                mapped[hit],
                ln.column("l_year").to_numpy(zero_copy_only=False)[hit],
                ln.column("revenue_c").to_numpy(zero_copy_only=False)[hit])

        part_ds = (ray.data.read_parquet(
                       f"{sf_dir}/part.parquet",
                       columns=["p_partkey", "p_brand"])
                   .map_batches(part_side, batch_format="pyarrow"))
        line_ds = (ray.data.read_parquet(
                       f"{sf_dir}/lineitem.parquet",
                       columns=["l_partkey", "l_shipdate",
                                "l_extendedprice", "l_discount"])
                   .map_batches(line_side, batch_format="pyarrow"))
        parts = (part_ds.union(line_ds)
                 .fx_map_groups(attach_brand))

    return ray.data.from_arrow(_fold_partials(
        parts, ["p_brand", "l_year"], ["revenue_c"],
        pa.table({"p_brand": pa.array([], pa.string()),
                  "l_year": pa.array([], pa.int64()),
                  "revenue_c": pa.array([], pa.int64())})))


def discount_revenue_delta(sf_dir: str, date_from: str = "1996-01-01",
                           date_to: str = "1997-01-01",
                           disc_lo: float = 0.05, disc_hi: float = 0.07,
                           qty_below: float = 24.0) -> ray.data.Dataset:
    """TPC-H Q6-flavor forecasting filter-aggregate: the revenue delta
    (integer cents of price x discount) that dropping the discount band
    would have yielded on small-quantity lines shipped in the window.
    Returns ONE row (promo_revenue_c, n_lines).

    Scale shape: ZERO exchanges — a pure per-block filter + two int64
    partial sums over the column-pruned read; the driver folds
    O(blocks) two-int rows. The float band tests (>=, <=, <) compare
    raw parquet float64 values identically in numpy and the SQL
    oracle; money is rounded per row with the shared floor(x*100+0.5)
    convention before summing, so partials are order-insensitive."""
    lo = np.datetime64(date_from, "us")
    hi = np.datetime64(date_to, "us")

    def partial(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        keep = ((sd >= lo) & (sd < hi) & (disc >= disc_lo)
                & (disc <= disc_hi) & (qty < qty_below))
        price = t.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[keep]
        rev = np.floor(price * disc[keep] * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "promo_revenue_c": pa.array([int(rev.sum())], pa.int64()),
            "n_lines": pa.array([int(keep.sum())], pa.int64()),
        })

    parts = (ray.data.read_parquet(
                 f"{sf_dir}/lineitem.parquet",
                 columns=["l_shipdate", "l_discount", "l_quantity",
                          "l_extendedprice"])
             .map_batches(partial, batch_format="pyarrow"))
    pt = _concat_nonempty(parts, pa.table({
        "promo_revenue_c": pa.array([], pa.int64()),
        "n_lines": pa.array([], pa.int64())}))
    n = int(pt.column("n_lines").to_numpy().sum())
    # SQL sum() over zero rows is NULL, not 0 — mirror the oracle
    rev = [int(pt.column("promo_revenue_c").to_numpy().sum())] \
        if n else [None]
    return ray.data.from_arrow(pa.table({
        "promo_revenue_c": pa.array(rev, pa.int64()),
        "n_lines": pa.array([n], pa.int64()),
    }))


def top_supplier_by_revenue(sf_dir: str, date_from: str = "1996-01-01",
                            date_to: str = "1996-04-01"
                            ) -> ray.data.Dataset:
    """TPC-H Q15-flavor top supplier: the supplier(s) with MAX revenue
    (integer cents) from lineitems shipped in the window — ALL ties
    returned, reference semantics of the Q15 view + subquery max.
    Returns (s_suppkey, s_name, total_revenue_c).

    Scale shape: per-block (suppkey, rev_c) partials (Arrow group_by
    combiner), ONE native distributed ``groupby(suppkey).sum`` — after
    which every supplier total lives in exactly one block, so a
    per-block (max, ties) shrink bounds the driver fold at
    2 x blocks rows; winner names attach via a predicate-pushdown
    point read of the <=#winners supplier rows, never a broadcast of
    the supplier table."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    lo = np.datetime64(date_from, "us")
    hi = np.datetime64(date_to, "us")

    def rev_partial(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((sd >= lo) & (sd < hi)))
        g = pa.table({"s_suppkey": t.column("l_suppkey"),
                      "rev_c": pa.array(_rev_cents(t))})
        agg = g.group_by("s_suppkey").aggregate([("rev_c", "sum")])
        return pa.table({"s_suppkey": agg.column("s_suppkey"),
                         "rev_c": agg.column("rev_c_sum")})

    def local_winners(t: pa.Table) -> pa.Table:
        rv = t.column("sum(rev_c)").to_numpy(zero_copy_only=False)
        if len(rv) == 0:
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "total_revenue_c": pa.array([], pa.int64())})
        keep = rv == rv.max()
        return pa.table({
            "s_suppkey": t.column("s_suppkey").filter(pa.array(keep)),
            "total_revenue_c": pa.array(rv[keep].astype(np.int64)),
        })

    total = (ray.data.read_parquet(
                 f"{sf_dir}/lineitem.parquet",
                 columns=["l_suppkey", "l_shipdate",
                          "l_extendedprice", "l_discount"])
             .map_batches(rev_partial, batch_format="pyarrow")
             .groupby("s_suppkey").sum("rev_c")
             .map_batches(local_winners, batch_format="pyarrow"))
    cand = _concat_nonempty(total, pa.table({
        "s_suppkey": pa.array([], pa.int64()),
        "total_revenue_c": pa.array([], pa.int64())}))
    empty = pa.table({"s_suppkey": pa.array([], pa.int64()),
                      "s_name": pa.array([], pa.string()),
                      "total_revenue_c": pa.array([], pa.int64())})
    if cand.num_rows == 0:
        return ray.data.from_arrow(empty)
    rv = cand.column("total_revenue_c").to_numpy(zero_copy_only=False)
    winners = cand.filter(pa.array(rv == rv.max()))
    keys = winners.column("s_suppkey").to_numpy(zero_copy_only=False)
    names = pads.dataset(f"{sf_dir}/supplier.parquet").to_table(
        columns=["s_suppkey", "s_name"],
        filter=pads.field("s_suppkey").isin(keys.tolist()))
    nk, nv = _sorted_lookup(
        names.column("s_suppkey").to_numpy(zero_copy_only=False),
        names.column("s_name").to_numpy(zero_copy_only=False))
    mapped, hit = _map_keys(nk, nv, keys)
    order = np.argsort(keys[hit])
    return ray.data.from_arrow(pa.table({
        "s_suppkey": pa.array(keys[hit][order]),
        "s_name": pa.array(mapped[hit][order].astype(str)),
        "total_revenue_c": pa.array(
            winners.column("total_revenue_c").to_numpy(
                zero_copy_only=False)[hit][order]),
    }))


def large_orders(sf_dir: str, min_qty_c: int = 25_000,
                 num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q18-flavor large-volume orders: orders whose TOTAL line
    quantity (integer cents, shared floor(x*100+0.5) row convention)
    exceeds ``min_qty_c``. Returns (o_orderkey, o_orderdate,
    o_orderpriority, sum_qty_c).

    Scale shape: per-block per-order quantity partials shrink the fact
    side before the ONE co-partitioned union-tag exchange on
    hash(orderkey) %% P, where the order's attributes meet its finished
    quantity sum; each partition emits only its over-threshold rows
    (the HAVING filter runs distributed, the driver never folds)."""

    def qty_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"k": t.column("l_orderkey"),
                      "q": pa.array(_cents(t.column("l_quantity")))})
        agg = g.group_by("k").aggregate([("q", "sum")])
        keys = agg.column("k").to_numpy(zero_copy_only=False)
        n = len(keys)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "okey": agg.column("k"),
            "qty_c": agg.column("q_sum"),
            "o_orderdate": pa.nulls(n, pa.timestamp("us")),
            "o_orderpriority": pa.nulls(n, pa.string()),
            "side": pa.array(np.zeros(n, np.int8)),
        })

    def order_rows(t: pa.Table) -> pa.Table:
        keys = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "okey": t.column("o_orderkey"),
            "qty_c": pa.nulls(t.num_rows, pa.int64()),
            "o_orderdate": t.column("o_orderdate"),
            "o_orderpriority": t.column("o_orderpriority"),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
        })

    def finish(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        lp = g.filter(pa.array(side == 0))
        od = g.filter(pa.array(side == 1))
        lk = lp.column("okey").to_numpy(zero_copy_only=False)
        lq = lp.column("qty_c").to_numpy(zero_copy_only=False)
        # empty-safe: an order without line items lands here alone
        uk, sums = _sorted_group_reduce(lk, lq.astype(np.int64))
        big = sums > min_qty_c
        ok = od.column("okey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(uk[big], sums[big], ok)
        sel = od.filter(pa.array(hit))
        return pa.table({
            "o_orderkey": sel.column("okey"),
            "o_orderdate": sel.column("o_orderdate"),
            "o_orderpriority": sel.column("o_orderpriority"),
            "sum_qty_c": pa.array(mapped[hit]),
        })

    lines = (ray.data.read_parquet(
                 f"{sf_dir}/lineitem.parquet",
                 columns=["l_orderkey", "l_quantity"])
             .map_batches(qty_partial, batch_format="pyarrow"))
    orders = (ray.data.read_parquet(
                  f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_orderdate",
                           "o_orderpriority"])
              .map_batches(order_rows, batch_format="pyarrow"))
    return (lines.union(orders)
            .fx_map_groups(finish))


def nation_market_share(sf_dir: str, nation: str = "NATION_0",
                        year_from: int = 1995, year_to: int = 1997,
                        num_partitions: int = 16,
                        broadcast_threshold: int = BROADCAST_ROW_LIMIT
                        ) -> ray.data.Dataset:
    """TPC-H Q8-flavor market share: per ship year in [year_from,
    year_to), the revenue (integer cents) supplied by ``nation`` next
    to the total — the share itself is the consumer's one division,
    left out so the result stays INTEGER-EXACT against the SQL oracle.
    Returns (l_year, nation_revenue_c, total_revenue_c).

    Scale shape: nation (<=25 rows) resolves to a nationkey driver-side;
    the supplier attach reuses the shared SIZE-GATED
    broadcast-vs-exchange helper (``_lines_with_supp_nation``), after
    which each block collapses to <= 2 x years partial rows
    ((year, is_target) revenue sums) — the driver folds O(years x
    blocks) four-int rows, no further exchange."""
    import pyarrow.parquet as pq
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    match = nat[nat["n_name"] == nation]
    if len(match) == 0:
        raise ValueError(f"unknown nation {nation!r}")
    target = int(match["n_nationkey"].iloc[0])
    lo = np.datetime64(f"{year_from}-01-01", "us")
    hi = np.datetime64(f"{year_to}-01-01", "us")
    n_years = year_to - year_from

    def line_project(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((sd >= lo) & (sd < hi)))
        return pa.table({
            "l_suppkey": t.column("l_suppkey"),
            "yidx": pa.array(_ship_years(t) - year_from),
            "rev_c": pa.array(_rev_cents(t)),
        })

    def line_partial(t: pa.Table, snat: np.ndarray) -> pa.Table:
        yi = t.column("yidx").to_numpy(zero_copy_only=False)
        rv = t.column("rev_c").to_numpy(zero_copy_only=False)
        cell = yi * 2 + (snat == target)
        gi, sums, _ = _int_sum_by(cell, rv)
        return pa.table({"cell": pa.array(gi), "rev_c": pa.array(sums)})

    lines_proj = (ray.data.read_parquet(
                      f"{sf_dir}/lineitem.parquet",
                      columns=["l_suppkey", "l_shipdate",
                               "l_extendedprice", "l_discount"])
                  .map_batches(line_project, batch_format="pyarrow"))
    parts = _lines_with_supp_nation(
        sf_dir, lines_proj,
        [("yidx", pa.int64()), ("rev_c", pa.int64())],
        line_partial, num_partitions, broadcast_threshold)
    folded = _fold_partials(parts, ["cell"], ["rev_c"], pa.table({
        "cell": pa.array([], pa.int64()),
        "rev_c": pa.array([], pa.int64())}))
    cell = folded.column("cell").to_numpy(zero_copy_only=False)
    rv = folded.column("rev_c").to_numpy(zero_copy_only=False)
    total = np.zeros(n_years, np.int64)
    target_rev = np.zeros(n_years, np.int64)
    seen = np.zeros(n_years, bool)
    np.add.at(total, cell // 2, rv)
    np.add.at(target_rev, cell[cell % 2 == 1] // 2,
              rv[cell % 2 == 1])
    seen[cell // 2] = True
    # group-by semantics: a year with matching lines appears even when
    # its revenue sums to exactly zero (the oracle emits a 0-total row)
    present = np.flatnonzero(seen)
    return ray.data.from_arrow(pa.table({
        "l_year": pa.array(present + year_from),
        "nation_revenue_c": pa.array(target_rev[present]),
        "total_revenue_c": pa.array(total[present]),
    }))


def customer_order_distribution(sf_dir: str, num_partitions: int = 16
                                ) -> ray.data.Dataset:
    """TPC-H Q13-flavor double aggregation with LEFT-JOIN semantics:
    the distribution of customers by how many orders they placed —
    including the ZERO-order customers an inner join would drop.
    Returns (n_orders, n_customers).

    Scale shape: orders shrink to per-block per-custkey count partials
    before the ONE co-partitioned union-tag exchange on
    hash(custkey) %% P; each partition finishes its customers' counts
    (searchsorted against the folded partials, misses = 0) and
    collapses to an (n_orders, n_customers) histogram partial — the
    driver folds O(max_orders_per_customer x P) two-int rows. Neither
    table is broadcast or materialized anywhere."""

    def order_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"k": t.column("o_custkey")})
        agg = g.group_by("k").aggregate([("k", "count")])
        keys = agg.column("k").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "ckey": agg.column("k"),
            "n": agg.column("k_count").cast(pa.int64()),
            "side": pa.array(np.zeros(len(keys), np.int8)),
        })

    def cust_rows(t: pa.Table) -> pa.Table:
        keys = t.column("c_custkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "ckey": t.column("c_custkey"),
            "n": pa.nulls(t.num_rows, pa.int64()),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
        })

    def hist_partial(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        op = g.filter(pa.array(side == 0))
        cu = g.filter(pa.array(side == 1))
        if cu.num_rows == 0:
            return pa.table({"n_orders": pa.array([], pa.int64()),
                             "n_customers": pa.array([], pa.int64())})
        uk, sums = _sorted_group_reduce(
            op.column("ckey").to_numpy(zero_copy_only=False),
            op.column("n").to_numpy(zero_copy_only=False)
            .astype(np.int64))
        probe = cu.column("ckey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(uk, sums, probe)
        counts = np.where(hit, mapped, 0)      # LEFT JOIN: miss -> 0
        un, idx = np.unique(counts, return_inverse=True)
        return pa.table({
            "n_orders": pa.array(un.astype(np.int64)),
            "n_customers": pa.array(np.bincount(
                idx, minlength=len(un)).astype(np.int64)),
        })

    orders = (ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                    columns=["o_custkey"])
              .map_batches(order_partial, batch_format="pyarrow"))
    cust = (ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                  columns=["c_custkey"])
            .map_batches(cust_rows, batch_format="pyarrow"))
    parts = (orders.union(cust)
             .fx_map_groups(hist_partial))
    return ray.data.from_arrow(_fold_partials(
        parts, ["n_orders"], ["n_customers"],
        pa.table({"n_orders": pa.array([], pa.int64()),
                  "n_customers": pa.array([], pa.int64())})))


# TPC-H Q19-flavor disjunctive predicate bands: (brand, qty window,
# max size) triples OR-ed together
Q19_BANDS = (("Brand#1", 1.0, 11.0, 5),
             ("Brand#2", 10.0, 20.0, 10),
             ("Brand#3", 20.0, 30.0, 15))


def banded_part_revenue(sf_dir: str,
                        bands: tuple = Q19_BANDS,
                        num_partitions: int = 16,
                        broadcast_threshold: int = BROADCAST_ROW_LIMIT
                        ) -> ray.data.Dataset:
    """TPC-H Q19-flavor disjunctive filter-aggregate: total revenue
    (integer cents) plus line count from lineitems matching ANY of the
    ``bands`` — each band a (p_brand, qty_lo, qty_hi inclusive,
    p_size <= max_size) conjunction over BOTH tables' attributes.
    Returns ONE row (revenue_c, n_lines).

    Scale shape: the part side reduces to (partkey, band-bitmask) —
    one int64 per part whose bit b says 'this part satisfies band b's
    part-attribute half'. Under ``broadcast_threshold`` part rows the
    mask lookup broadcasts (zero exchanges); above, ONE co-partitioned
    union-tag exchange on hash(partkey) %% P meets the narrow
    (partkey, qty, rev) line triples. Either way the quantity half
    tests vectorized against the bitmask and each partition emits one
    two-int partial."""
    import pyarrow.parquet as pq

    def part_mask(brand: np.ndarray, size: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(brand), np.int64)
        for b, (bname, _, _, max_size) in enumerate(bands):
            mask |= ((brand == bname) & (size <= max_size)) << b
        return mask

    def line_hits(qty: np.ndarray, mask: np.ndarray) -> np.ndarray:
        hit = np.zeros(len(qty), bool)
        for b, (_, q_lo, q_hi, _) in enumerate(bands):
            hit |= ((mask >> b) & 1).astype(bool) \
                & (qty >= q_lo) & (qty <= q_hi)
        return hit

    def fold(rev: np.ndarray, hit: np.ndarray) -> pa.Table:
        return pa.table({
            "revenue_c": pa.array([int(rev[hit].sum())], pa.int64()),
            "n_lines": pa.array([int(hit.sum())], pa.int64()),
        })

    line_cols = ["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"]
    if _table_rows(f"{sf_dir}/part.parquet") <= broadcast_threshold:
        part = pq.read_table(f"{sf_dir}/part.parquet",
                             columns=["p_partkey", "p_brand", "p_size"])
        mask = part_mask(
            part.column("p_brand").to_numpy(zero_copy_only=False),
            part.column("p_size").to_numpy(zero_copy_only=False))
        keep = mask != 0             # only qualifying parts ship at all
        pk, mv = _sorted_lookup(
            part.column("p_partkey").to_numpy(
                zero_copy_only=False)[keep], mask[keep])
        ref = ray.put((pk, mv))

        def partial(t: pa.Table) -> pa.Table:
            pk_, mv_ = ray.get(ref)
            keys = t.column("l_partkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(pk_, mv_, keys)
            qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
            sel = hit & line_hits(qty, np.where(hit, mapped, 0))
            return fold(_rev_cents(t), sel)

        parts = (ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                                       columns=line_cols)
                 .map_batches(partial, batch_format="pyarrow"))
    else:
        def part_side(t: pa.Table) -> pa.Table:
            mask = part_mask(
                t.column("p_brand").to_numpy(zero_copy_only=False),
                t.column("p_size").to_numpy(zero_copy_only=False))
            keep = mask != 0
            t = t.filter(pa.array(keep))
            keys = t.column("p_partkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "pkey": t.column("p_partkey"),
                "mask": pa.array(mask[keep]),
                "qty": pa.nulls(t.num_rows, pa.float64()),
                "rev_c": pa.nulls(t.num_rows, pa.int64()),
                "side": pa.array(np.zeros(t.num_rows, np.int8)),
            })

        def line_side(t: pa.Table) -> pa.Table:
            keys = t.column("l_partkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "pkey": t.column("l_partkey"),
                "mask": pa.nulls(t.num_rows, pa.int64()),
                "qty": t.column("l_quantity").cast(pa.float64()),
                "rev_c": pa.array(_rev_cents(t)),
                "side": pa.array(np.ones(t.num_rows, np.int8)),
            })

        def band_fold(g: pa.Table) -> pa.Table:
            side = g.column("side").to_numpy(zero_copy_only=False)
            pt = g.filter(pa.array(side == 0))
            ln = g.filter(pa.array(side == 1))
            pk_, mv_ = _sorted_lookup(
                pt.column("pkey").to_numpy(zero_copy_only=False),
                pt.column("mask").to_numpy(zero_copy_only=False))
            keys = ln.column("pkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(pk_, mv_, keys)
            qty = ln.column("qty").to_numpy(zero_copy_only=False)
            sel = hit & line_hits(qty, np.where(hit, mapped, 0))
            rev = ln.column("rev_c").to_numpy(zero_copy_only=False)
            return fold(rev, sel)

        part_ds = (ray.data.read_parquet(
                       f"{sf_dir}/part.parquet",
                       columns=["p_partkey", "p_brand", "p_size"])
                   .map_batches(part_side, batch_format="pyarrow"))
        line_ds = (ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                                         columns=line_cols)
                   .map_batches(line_side, batch_format="pyarrow"))
        parts = (part_ds.union(line_ds)
                 .fx_map_groups(band_fold))
    pt = _concat_nonempty(parts, pa.table({
        "revenue_c": pa.array([], pa.int64()),
        "n_lines": pa.array([], pa.int64())}))
    n = int(pt.column("n_lines").to_numpy().sum())
    rev = [int(pt.column("revenue_c").to_numpy().sum())] if n else [None]
    return ray.data.from_arrow(pa.table({
        "revenue_c": pa.array(rev, pa.int64()),
        "n_lines": pa.array([n], pa.int64()),
    }))


def lapsed_rich_customers(sf_dir: str, since: str = "1998-01-01",
                          max_orders: int = 3,
                          num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q22-flavor global-sales-opportunity report: customers whose
    account balance (integer cents) exceeds the average POSITIVE
    balance yet placed at most ``max_orders`` orders since ``since``
    (lapsed activity), rolled up per market segment. Returns
    (c_mktsegment, n_customers, sum_acctbal_c) — bounded at #segments
    rows. Reference parity: the same filter -> activity-join -> rollup
    chain as aqueduct-core's derived "lapsed tills" report
    (DerivedTableSync re-aggregation shape).

    Scale shape: pass 1 is a two-int partial sum over the column-pruned
    customer read (the positive-balance average; the threshold test is
    the INTEGER-EXACT cross-multiplication ``acctbal_c * n > sum_c`` so
    no float average ever exists). Pass 2: per-block (custkey, n)
    order-count partials from the date-filtered orders read meet
    threshold-filtered customers in ONE co-partitioned union-tag
    exchange on hash(custkey) %% P; each partition sums its key's
    partials with one sort+reduceat and collapses straight to
    (segment, n, sum) partials, so the driver folds
    O(segments x partitions) rows, never customers."""
    cutoff = np.datetime64(since, "us")

    def bal_partial(t: pa.Table) -> pa.Table:
        b = _cents(t.column("c_acctbal"))
        pos = b[b > 0]
        return pa.table({"s": pa.array([int(pos.sum())]),
                         "n": pa.array([len(pos)])})

    stats = _concat_nonempty(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_acctbal"])
        .map_batches(bal_partial, batch_format="pyarrow"),
        pa.table({"s": pa.array([], pa.int64()),
                  "n": pa.array([], pa.int64())}))
    sum_c = int(stats.column("s").to_numpy().sum())
    n_pos = int(stats.column("n").to_numpy().sum())

    def order_counts(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(od >= cutoff))
        keys, cnt = np.unique(t.column("o_custkey").to_numpy(
            zero_copy_only=False), return_counts=True)
        n = len(keys)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "c_custkey": pa.array(keys.astype(np.int64)),
            "n_orders": pa.array(cnt.astype(np.int64)),
            "c_mktsegment": pa.nulls(n, pa.string()),
            "acctbal_c": pa.nulls(n, pa.int64()),
            "side": pa.array(np.zeros(n, np.int8)),
        })

    probe = (ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_custkey", "o_orderdate"])
             .map_batches(order_counts, batch_format="pyarrow"))

    def tag_cust(t: pa.Table) -> pa.Table:
        b = _cents(t.column("c_acctbal"))
        t = t.filter(pa.array(b * n_pos > sum_c))
        keys = t.column("c_custkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "c_custkey": t.column("c_custkey"),
            "n_orders": pa.nulls(len(keys), pa.int64()),
            "c_mktsegment": t.column("c_mktsegment"),
            "acctbal_c": pa.array(_cents(t.column("c_acctbal"))),
            "side": pa.array(np.ones(len(keys), np.int8)),
        })

    cust = (ray.data.read_parquet(
                f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_mktsegment", "c_acctbal"])
            .map_batches(tag_cust, batch_format="pyarrow"))

    def lapsed_rollup(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        ob = g.filter(pa.array(side == 0))
        okeys, osums = _sorted_group_reduce(
            ob.column("c_custkey").to_numpy(zero_copy_only=False),
            ob.column("n_orders").to_numpy(
                zero_copy_only=False).astype(np.int64))
        busy = okeys[osums > max_orders]
        c = g.filter(pa.array(side == 1))
        keys = c.column("c_custkey").to_numpy(zero_copy_only=False)
        _, hit = _map_keys(busy, busy, keys)
        c = c.filter(pa.array(~hit))
        agg = pa.table({
            "c_mktsegment": c.column("c_mktsegment"),
            "acctbal_c": c.column("acctbal_c"),
        }).group_by("c_mktsegment").aggregate(
            [("acctbal_c", "sum"), ("acctbal_c", "count")])
        return pa.table({
            "c_mktsegment": agg.column("c_mktsegment"),
            "n_customers": agg.column("acctbal_c_count").cast(pa.int64()),
            "sum_acctbal_c": agg.column("acctbal_c_sum"),
        })

    parts = (probe.union(cust)
             .fx_map_groups(lapsed_rollup))
    return ray.data.from_arrow(_fold_partials(
        parts, ["c_mktsegment"], ["n_customers", "sum_acctbal_c"],
        pa.table({"c_mktsegment": pa.array([], pa.string()),
                  "n_customers": pa.array([], pa.int64()),
                  "sum_acctbal_c": pa.array([], pa.int64())})))


def important_parts(sf_dir: str, share_denom: int = 2000,
                    num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q11-flavor important-stock scan: parts whose total
    extended-price value (integer cents) exceeds ``1/share_denom`` of
    the corpus-wide total. Returns (l_partkey, value_c), one row per
    qualifying part. The share test is the INTEGER-EXACT
    cross-multiplication ``value_c * share_denom > total_c``.

    Scale shape: per-block (partkey, value_c) partials via one Arrow
    group_by, ONE co-partitioned union-free exchange on
    hash(partkey) %% P finishes the per-part sums; that intermediate
    (#parts rows, far smaller than lineitem) is MATERIALIZED in the
    object store because the global total — a driver scalar folded
    from it — must exist before the distributed filter can stream the
    winners out. No full-input materialization anywhere."""

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "l_partkey": t.column("l_partkey"),
            "value_c": pa.array(_cents(t.column("l_extendedprice"))),
        }).group_by("l_partkey").aggregate([("value_c", "sum")])
        keys = g.column("l_partkey").to_numpy(zero_copy_only=False)
        return pa.table({"part": _hash_part(keys, num_partitions),
                         "l_partkey": g.column("l_partkey"),
                         "value_c": g.column("value_c_sum")})

    def finish(g: pa.Table) -> pa.Table:
        keys = g.column("l_partkey").to_numpy(zero_copy_only=False)
        vals = g.column("value_c").to_numpy(
            zero_copy_only=False).astype(np.int64)
        gi, sums = _sorted_group_reduce(keys, vals)
        return pa.table({"l_partkey": pa.array(gi),
                         "value_c": pa.array(sums)})

    sums = (ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet",
                columns=["l_partkey", "l_extendedprice"])
            .map_batches(partial, batch_format="pyarrow")
            .fx_map_groups(finish)
            .materialize())
    total_c = int(sums.sum("value_c") or 0)

    def keep(t: pa.Table) -> pa.Table:
        v = t.column("value_c").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(v * share_denom > total_c))

    return sums.map_batches(keep, batch_format="pyarrow")


def supplier_count_by_part(sf_dir: str, exclude_brand: str = "Brand#1",
                           num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q16-flavor supplier availability: the number of DISTINCT
    suppliers that ship each (p_brand, p_size) combination, excluding
    ``exclude_brand``. Returns (p_brand, p_size, supplier_cnt).

    Scale shape: lineitem shrinks to per-block DISTINCT (partkey,
    suppkey) pairs before anything moves (one Arrow group_by). The
    part attributes attach in ONE co-partitioned union-tag exchange on
    hash(partkey) %% P — the excluded brand is filtered at the part
    read, so its pairs drop out as join misses. The per-partition
    output is the partition's DISTINCT (brand, size, suppkey) triples,
    and the SECOND exchange on hash(brand, size) %% P counts each
    group's distinct suppliers with one lexsort — the classic
    two-round distributed COUNT(DISTINCT) (pairs never fan out, no
    all-pairs stage, no driver fold)."""

    def pair_partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "pkey": t.column("l_partkey"),
            "skey": t.column("l_suppkey"),
        }).group_by(["pkey", "skey"]).aggregate([])
        keys = g.column("pkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "pkey": g.column("pkey"),
            "skey": g.column("skey"),
            "p_brand": pa.nulls(g.num_rows, pa.string()),
            "p_size": pa.nulls(g.num_rows, pa.int64()),
            "side": pa.array(np.ones(g.num_rows, np.int8)),
        })

    def part_side(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("p_brand"), exclude_brand))
        keys = t.column("p_partkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "pkey": t.column("p_partkey"),
            "skey": pa.nulls(t.num_rows, pa.int64()),
            "p_brand": t.column("p_brand"),
            "p_size": t.column("p_size").cast(pa.int64()),
            "side": pa.array(np.zeros(t.num_rows, np.int8)),
        })

    def attach(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        pt = g.filter(pa.array(side == 0))
        ln = g.filter(pa.array(side == 1))
        pk = pt.column("pkey").to_numpy(zero_copy_only=False)
        order = np.argsort(pk, kind="stable")
        pk_s = pk[order]
        keys = ln.column("pkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pk_s, keys)
        pos_c = np.minimum(pos, max(len(pk_s) - 1, 0))
        hit = (pk_s[pos_c] == keys) if len(pk_s) else np.zeros(
            len(keys), bool)
        idx = order[pos_c[hit]]
        ln = ln.filter(pa.array(hit))
        from ..functions.text import hash_str_array
        out = pa.table({
            "p_brand": pt.column("p_brand").take(pa.array(idx)),
            "p_size": pt.column("p_size").take(pa.array(idx)),
            "skey": ln.column("skey"),
        }).group_by(["p_brand", "p_size", "skey"]).aggregate([])
        bs = (hash_str_array(out.column("p_brand")).astype(np.int64)
              * np.int64(8191)
              + out.column("p_size").to_numpy(zero_copy_only=False))
        return out.append_column(
            "g2", pa.array((bs % num_partitions).astype(np.int32)))

    def count_distinct(g: pa.Table) -> pa.Table:
        agg = (pa.table({"p_brand": g.column("p_brand"),
                         "p_size": g.column("p_size"),
                         "skey": g.column("skey")})
               .group_by(["p_brand", "p_size", "skey"]).aggregate([])
               .group_by(["p_brand", "p_size"])
               .aggregate([("skey", "count")]))
        return pa.table({
            "p_brand": agg.column("p_brand"),
            "p_size": agg.column("p_size"),
            "supplier_cnt": agg.column("skey_count").cast(pa.int64()),
        })

    pairs = (ray.data.read_parquet(
                 f"{sf_dir}/lineitem.parquet",
                 columns=["l_partkey", "l_suppkey"])
             .map_batches(pair_partial, batch_format="pyarrow"))
    parts = (ray.data.read_parquet(
                 f"{sf_dir}/part.parquet",
                 columns=["p_partkey", "p_brand", "p_size"])
             .map_batches(part_side, batch_format="pyarrow"))
    return (pairs.union(parts)
            .fx_map_groups(attach)
            .fx_map_groups(count_distinct, part_col="g2"))


def promo_revenue_share(sf_dir: str, num_partitions: int = 16,
                        promo_type: str = "PROMO",
                        broadcast_threshold: int = BROADCAST_ROW_LIMIT
                        ) -> ray.data.Dataset:
    """TPC-H Q14-flavor promotion effect: per ship (year, month) the
    promo-part revenue, total revenue (both integer cents) and the
    promo share in EXACT integer permille — round-half-up computed as
    ``(2000*promo + total) // (2*total)``, pure int64 so the oracle
    matches without a float division in sight. Returns (l_year,
    l_month, promo_revenue_c, total_revenue_c, promo_permille) —
    bounded at months-in-range rows (TPC-H ships span ~84 months).

    Scale shape: same gated attach as ``brand_revenue_by_year`` —
    ``part`` scales with the fact table, so under
    ``broadcast_threshold`` rows the (partkey -> is_promo) bitmap
    broadcasts once (ZERO exchanges: per-block month partials + driver
    fold of O(months x blocks) rows); above, ONE co-partitioned
    union-tag exchange on hash(partkey) % P attaches the flag to
    per-(partkey, month) revenue partials and only (month, promo_c,
    total_c) rows leave each partition."""
    import pyarrow.parquet as pq

    def month_partial(mcell: np.ndarray, promo: np.ndarray,
                      rev: np.ndarray) -> pa.Table:
        """Fold (month cell, is_promo, rev) rows into one partial —
        sort+reduceat, NOT the dense accumulator: pre-1970 ship dates
        make mcell negative, which a dense np.add.at would wrap."""
        gi, tot = _sorted_group_reduce(mcell, rev)
        _, pro = _sorted_group_reduce(mcell, rev * promo)
        return pa.table({
            "l_year": pa.array(gi // 12 + 1970),
            "l_month": pa.array(gi % 12 + 1),
            "promo_revenue_c": pa.array(pro),
            "total_revenue_c": pa.array(tot),
        })

    def ship_mcell(t: pa.Table) -> np.ndarray:
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        m = sd.astype("datetime64[M]").astype(np.int64)  # months since 1970
        return m

    if _table_rows(f"{sf_dir}/part.parquet") <= broadcast_threshold:
        part = pq.read_table(f"{sf_dir}/part.parquet",
                             columns=["p_partkey", "p_type"])
        flag = pc.equal(part.column("p_type"), promo_type)
        pk, fv = _sorted_lookup(
            part.column("p_partkey").to_numpy(zero_copy_only=False),
            flag.to_numpy(zero_copy_only=False).astype(np.int64))
        ref = ray.put((pk, fv))

        def partial(t: pa.Table) -> pa.Table:
            pk_, fv_ = ray.get(ref)
            keys = t.column("l_partkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(pk_, fv_, keys)
            return month_partial(ship_mcell(t)[hit], mapped[hit],
                                 _rev_cents(t)[hit])

        parts = (ray.data.read_parquet(
                     f"{sf_dir}/lineitem.parquet",
                     columns=["l_partkey", "l_shipdate",
                              "l_extendedprice", "l_discount"])
                 .map_batches(partial, batch_format="pyarrow"))
    else:
        def part_side(t: pa.Table) -> pa.Table:
            keys = t.column("p_partkey").to_numpy(zero_copy_only=False)
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "pkey": t.column("p_partkey"),
                "is_promo": pc.equal(t.column("p_type"),
                                     promo_type).cast(pa.int64()),
                "mcell": pa.nulls(t.num_rows, pa.int64()),
                "rev_c": pa.nulls(t.num_rows, pa.int64()),
                "side": pa.array(np.zeros(t.num_rows, np.int8)),
            })

        def line_side(t: pa.Table) -> pa.Table:
            # sparse (partkey x month) cells: sort+reduceat, not the
            # dense accumulator (see brand_revenue_by_year's note).
            # The month lane is 2^20 wide with a 2^19 offset so the
            # packing survives ship dates in years ~-41700..45641
            # (a 4096 lane would bleed months into the partkey past
            # 2311, silently corrupting the promo flag)
            pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
            cell = pk * (1 << 20) + (ship_mcell(t) + (1 << 19))
            gi, sums = _sorted_group_reduce(cell, _rev_cents(t))
            upk = gi >> 20
            return pa.table({
                "part": _hash_part(upk, num_partitions),
                "pkey": pa.array(upk),
                "is_promo": pa.nulls(len(upk), pa.int64()),
                "mcell": pa.array((gi & ((1 << 20) - 1)) - (1 << 19)),
                "rev_c": pa.array(sums),
                "side": pa.array(np.ones(len(upk), np.int8)),
            })

        def attach_flag(g: pa.Table) -> pa.Table:
            side = g.column("side").to_numpy(zero_copy_only=False)
            pt = g.filter(pa.array(side == 0))
            ln = g.filter(pa.array(side == 1))
            pk_, fv_ = _sorted_lookup(
                pt.column("pkey").to_numpy(zero_copy_only=False),
                pt.column("is_promo").to_numpy(zero_copy_only=False))
            keys = ln.column("pkey").to_numpy(zero_copy_only=False)
            mapped, hit = _map_keys(pk_, fv_, keys)
            return month_partial(
                ln.column("mcell").to_numpy(zero_copy_only=False)[hit],
                mapped[hit],
                ln.column("rev_c").to_numpy(zero_copy_only=False)[hit])

        part_ds = (ray.data.read_parquet(
                       f"{sf_dir}/part.parquet",
                       columns=["p_partkey", "p_type"])
                   .map_batches(part_side, batch_format="pyarrow"))
        line_ds = (ray.data.read_parquet(
                       f"{sf_dir}/lineitem.parquet",
                       columns=["l_partkey", "l_shipdate",
                                "l_extendedprice", "l_discount"])
                   .map_batches(line_side, batch_format="pyarrow"))
        parts = (part_ds.union(line_ds)
                 .fx_map_groups(attach_flag))

    folded = _fold_partials(
        parts, ["l_year", "l_month"],
        ["promo_revenue_c", "total_revenue_c"],
        pa.table({"l_year": pa.array([], pa.int64()),
                  "l_month": pa.array([], pa.int64()),
                  "promo_revenue_c": pa.array([], pa.int64()),
                  "total_revenue_c": pa.array([], pa.int64())}))
    pro = folded.column("promo_revenue_c").to_numpy(zero_copy_only=False)
    tot = folded.column("total_revenue_c").to_numpy(zero_copy_only=False)
    # a month whose every rev_c rounded to 0 has no defined share:
    # SQL integer division by zero is NULL, mirror it (a naked numpy
    # floor_divide would warn and emit a bogus 0)
    safe = np.where(tot == 0, 1, tot)
    permille = (2000 * pro + tot) // (2 * safe)
    return ray.data.from_arrow(folded.append_column(
        "promo_permille", pa.array(permille, pa.int64(),
                                   mask=tot == 0)))


def sole_late_shipper(sf_dir: str,
                      num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q21-flavor blame assignment: per supplier, the number of
    MULTI-supplier orders where that supplier was the UNIQUE latest
    shipper (every max-shipdate line in the order is theirs) — the
    repo-schema analog of Q21's "suppliers who kept orders waiting"
    (lineitem carries no receipt/commit dates, so latest SHIP date is
    the lateness signal). Returns (l_suppkey, n_orders), one row per
    supplier with at least one such order.

    Scale shape: ONE hash shuffle on l_orderkey — each order's lines
    co-locate, so the partition derives per-order max shipdate,
    multi-supplier-ness (min suppkey < max suppkey over ALL lines) and
    latest-shipper uniqueness (min = max suppkey over max-date lines)
    with four sort-free reduceats over ONE lexsort; only per-supplier
    partial counts leave the partition, and the driver folds
    O(suppliers x partitions) rows (supplier is 1/10th of customer in
    TPC-H — the same documented driver bound as the supplier
    rollups)."""

    def part_col(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        return t.append_column("part", _hash_part(ok, num_partitions))

    def per_part(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        sd = t.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        empty = pa.table({"l_suppkey": pa.array([], pa.int64()),
                          "n_orders": pa.array([], pa.int64())})
        if len(ok) == 0:
            return empty
        order = np.lexsort((sd, ok))
        ok, sk, sd = ok[order], sk[order], sd[order]
        starts = np.flatnonzero(np.concatenate([[True],
                                                ok[1:] != ok[:-1]]))
        sizes = np.diff(np.append(starts, len(ok)))
        mx = np.repeat(np.maximum.reduceat(sd, starts), sizes)
        multi = (np.minimum.reduceat(sk, starts)
                 < np.maximum.reduceat(sk, starts))
        # suppkey extrema over max-shipdate lines only (sentinel-mask)
        BIG = np.int64(2**62)
        at_mx = sd == mx
        lo = np.minimum.reduceat(np.where(at_mx, sk, BIG), starts)
        hi = np.maximum.reduceat(np.where(at_mx, sk, -BIG), starts)
        win = multi & (lo == hi)
        if not win.any():
            return empty
        usk, cnt = np.unique(lo[win], return_counts=True)
        return pa.table({"l_suppkey": pa.array(usk.astype(np.int64)),
                         "n_orders": pa.array(cnt.astype(np.int64))})

    parts = (ray.data.read_parquet(
                 f"{sf_dir}/lineitem.parquet",
                 columns=["l_orderkey", "l_suppkey", "l_shipdate"])
             .map_batches(part_col, batch_format="pyarrow")
             .fx_map_groups(per_part))
    return ray.data.from_arrow(_fold_partials(
        parts, ["l_suppkey"], ["n_orders"],
        pa.table({"l_suppkey": pa.array([], pa.int64()),
                  "n_orders": pa.array([], pa.int64())})))


def dominant_supplier_parts(sf_dir: str,
                            num_partitions: int = 16) -> ray.data.Dataset:
    """TPC-H Q20-flavor supply concentration: for EVERY part, the
    supplier that shipped the largest share of the part's total
    quantity (ties break to the smallest suppkey) — the
    single-source-risk audit. All arithmetic is integer-exact over
    shared floor(x*100+0.5) centi-units; the share is exact integer
    permille ((2000q + t) // (2t), round-half-up; t > 0 because every
    part has at least one line) and ``is_majority`` is the strict
    2*supp_qty_c > part_qty_c test. Returns (l_partkey, l_suppkey,
    supp_qty_c, part_qty_c, share_permille, is_majority), exactly one
    row per part, as a DISTRIBUTED dataset (output scales with parts —
    never driver-folded).

    Scale shape: per-block native Arrow group_by collapses lines to
    (partkey, suppkey) quantity partials — no int packing, so any key
    range is safe — then ONE co-partitioned exchange on hash(partkey)
    finishes per-pair and per-part sums with two reduceats over one
    lexsort; the per-part argmax runs inside the partition, so exactly
    one row per part leaves (callers wanting only the risk list filter
    on is_majority == 1)."""

    def pair_partial(t: pa.Table) -> pa.Table:
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False)
        g = pa.table({
            "pk": t.column("l_partkey"),
            "sk": t.column("l_suppkey"),
            "qty_c": pa.array(np.floor(qty * 100.0 + 0.5)
                              .astype(np.int64)),
        }).group_by(["pk", "sk"]).aggregate([("qty_c", "sum")])
        keys = g.column("pk").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "pk": g.column("pk"),
            "sk": g.column("sk"),
            "qty_c": g.column("qty_c_sum"),
        })

    def per_part(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "l_partkey": pa.array([], pa.int64()),
            "l_suppkey": pa.array([], pa.int64()),
            "supp_qty_c": pa.array([], pa.int64()),
            "part_qty_c": pa.array([], pa.int64()),
            "share_permille": pa.array([], pa.int64()),
            "is_majority": pa.array([], pa.int8()),
        })
        if t.num_rows == 0:
            return empty
        pk = t.column("pk").to_numpy(zero_copy_only=False)
        sk = t.column("sk").to_numpy(zero_copy_only=False)
        q = t.column("qty_c").to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, pk))
        pk, sk, q = pk[order], sk[order], q[order]
        # fold duplicate (pk, sk) partials from different blocks
        new_pair = np.concatenate([[True], (pk[1:] != pk[:-1])
                                   | (sk[1:] != sk[:-1])])
        ps = np.flatnonzero(new_pair)
        pk2, sk2 = pk[ps], sk[ps]
        q2 = np.add.reduceat(q, ps)
        # per-part totals over the folded pairs
        starts = np.flatnonzero(np.concatenate([[True],
                                                pk2[1:] != pk2[:-1]]))
        tot_per_part = np.add.reduceat(q2, starts)
        # argmax supplier per part: re-sort by (part, -qty, suppkey)
        # and keep each part's first row — biggest share, tie to the
        # smallest suppkey
        win_order = np.lexsort((sk2, -q2, pk2))
        pk3, sk3, q3 = pk2[win_order], sk2[win_order], q2[win_order]
        first = np.flatnonzero(np.concatenate([[True],
                                               pk3[1:] != pk3[:-1]]))
        q4, t4 = q3[first], tot_per_part
        return pa.table({
            "l_partkey": pa.array(pk3[first].astype(np.int64)),
            "l_suppkey": pa.array(sk3[first].astype(np.int64)),
            "supp_qty_c": pa.array(q4),
            "part_qty_c": pa.array(t4),
            "share_permille": pa.array((2000 * q4 + t4) // (2 * t4)),
            "is_majority": pa.array((2 * q4 > t4).astype(np.int8)),
        })

    return (ray.data.read_parquet(
                f"{sf_dir}/lineitem.parquet",
                columns=["l_partkey", "l_suppkey", "l_quantity"])
            .map_batches(pair_partial, batch_format="pyarrow")
            .fx_map_groups(per_part))


def parts_bought_together(sf_dir: str, k: int = 20,
                          num_partitions: int = 16) -> pa.Table:
    """Market-basket co-occurrence: the ``k`` part pairs that appear
    together in the most orders (each order contributes each DISTINCT
    unordered pair once; ties break to the smaller (part_a, part_b)).
    Returns (part_a, part_b, n_orders) with part_a < part_b.

    Scale shape — within-group pair expansion bounded by order size
    (TPC-H orders hold ≤7 lines, so ≤21 pairs/order — the expansion is
    O(lines), never quadratic in the table):

    1. per-block distinct (orderkey, partkey) partials →
       hash(orderkey) %% P exchange;
    2. per order-partition group: finish the distinct, expand each
       order's pairs VECTORIZED per segment-size class (one
       triu_indices gather per distinct order size — no per-order
       Python loop), fold pair counts locally, and re-key the partials
       by hash(pair) %% P;
    3. per pair-partition group: fold the global pair count and keep
       the partition-local top-k — ≤ k·P candidate rows to the driver,
       which finishes the strict total order (n desc, part_a, part_b).
    """

    def order_part_partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "ok": t.column("l_orderkey"),
            "pk": t.column("l_partkey"),
        }).group_by(["ok", "pk"]).aggregate([])
        keys = g.column("ok").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "ok": g.column("ok"), "pk": g.column("pk"),
        })

    def expand_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "part": pa.array([], pa.int32()),
            "pa_": pa.array([], pa.int64()),
            "pb": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        })
        if t.num_rows == 0:
            return empty
        ok = t.column("ok").to_numpy(zero_copy_only=False)
        pk = t.column("pk").to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        # finish the cross-block distinct
        keep = np.concatenate([[True], (ok[1:] != ok[:-1])
                               | (pk[1:] != pk[:-1])])
        ok, pk = ok[keep], pk[keep]
        starts = np.flatnonzero(np.concatenate([[True],
                                                ok[1:] != ok[:-1]]))
        sizes = np.diff(np.append(starts, len(ok)))
        pas, pbs = [], []
        for s in np.unique(sizes):
            if s < 2:
                continue
            seg = starts[sizes == s]
            idx = seg[:, None] + np.arange(s)[None, :]
            iu, ju = np.triu_indices(int(s), 1)
            # pk ascending within each order segment -> pa_ < pb
            pas.append(pk[idx[:, iu]].ravel())
            pbs.append(pk[idx[:, ju]].ravel())
        if not pas:
            return empty
        a = np.concatenate(pas)
        b = np.concatenate(pbs)
        o2 = np.lexsort((b, a))
        a, b = a[o2], b[o2]
        first = np.flatnonzero(np.concatenate([[True], (a[1:] != a[:-1])
                                               | (b[1:] != b[:-1])]))
        a2, b2 = a[first], b[first]
        n = np.diff(np.append(first, len(a))).astype(np.int64)
        return pa.table({
            "part": _hash_part(a2 * np.int64(1_000_003) + b2,
                               num_partitions),
            "pa_": pa.array(a2.astype(np.int64)),
            "pb": pa.array(b2.astype(np.int64)),
            "n": pa.array(n),
        })

    def topk_per_partition(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "part_a": pa.array([], pa.int64()),
            "part_b": pa.array([], pa.int64()),
            "n_orders": pa.array([], pa.int64()),
        })
        if t.num_rows == 0:
            return empty
        a = t.column("pa_").to_numpy(zero_copy_only=False)
        b = t.column("pb").to_numpy(zero_copy_only=False)
        n = t.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b, n = a[order], b[order], n[order]
        first = np.flatnonzero(np.concatenate([[True], (a[1:] != a[:-1])
                                               | (b[1:] != b[:-1])]))
        a2, b2 = a[first], b[first]
        n2 = np.add.reduceat(n, first)
        top = np.lexsort((b2, a2, -n2))[:k]
        return pa.table({
            "part_a": pa.array(a2[top].astype(np.int64)),
            "part_b": pa.array(b2[top].astype(np.int64)),
            "n_orders": pa.array(n2[top]),
        })

    cands = (ray.data.read_parquet(
                 f"{sf_dir}/lineitem.parquet",
                 columns=["l_orderkey", "l_partkey"])
             .map_batches(order_part_partial, batch_format="pyarrow")
             .fx_map_groups(expand_pairs)
             .fx_map_groups(topk_per_partition))
    # <= k*P candidate rows: finish the strict total order on the driver
    pt = _concat_nonempty(cands, pa.table({
        "part_a": pa.array([], pa.int64()),
        "part_b": pa.array([], pa.int64()),
        "n_orders": pa.array([], pa.int64()),
    }))
    a = pt.column("part_a").to_numpy(zero_copy_only=False)
    b = pt.column("part_b").to_numpy(zero_copy_only=False)
    n = pt.column("n_orders").to_numpy(zero_copy_only=False)
    top = np.lexsort((b, a, -n))[:k]
    return pt.take(pa.array(top))


def min_cost_supplier(sf_dir: str, min_size: int = 25,
                      ptype: str = "STANDARD",
                      num_partitions: int = 16,
                      broadcast_threshold: int = BROADCAST_ROW_LIMIT
                      ) -> ray.data.Dataset:
    """TPC-H Q2-flavor minimum-cost supplier: for every part passing
    the (p_size >= min_size, p_type == ptype) filter, the supplier
    offering the LOWEST single-line price (integer cents of
    l_extendedprice, shared floor(x*100+0.5) convention; ties break to
    the smallest suppkey), with the winner's name and nation attached.
    The reference has no relational catalog queries — this belongs to
    the analytical surface the lake serves (SURVEY.md §2.5 analog;
    reference aggregate shape PostgresqlStorage.java:446-467 is
    key-grouped min/max like this one). Returns (p_partkey, s_suppkey,
    s_name, n_name, min_price_c), exactly one row per eligible part
    with at least one line, as a DISTRIBUTED dataset (output scales
    with parts — never driver-folded).

    Scale shape: part eligibility and the supplier attach are both
    SIZE-GATED. Under ``broadcast_threshold`` rows the eligible-partkey
    set / the (suppkey -> name, nationkey) lookup broadcast once via
    ``ray.put`` (sorted-array membership / searchsorted map per batch);
    above, each becomes ONE co-partitioned union-tag exchange —
    hash(partkey) to filter + finish the per-part argmin, hash(suppkey)
    to attach the winner's attributes — so neither table ever lands on
    the driver. Per-block native Arrow group_by collapses lines to
    (partkey, suppkey) min-price partials before anything moves;
    nation (<=25 rows) is always a driver-side name map."""
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    nn = int(nat["n_nationkey"].max()) + 1
    nat_names = np.empty(nn, object)
    nat_names[nat["n_nationkey"].to_numpy()] = nat["n_name"].to_numpy()

    def pair_partial(t: pa.Table) -> pa.Table:
        """lines -> per-block (partkey, suppkey) min-price partials."""
        g = pa.table({
            "pk": t.column("l_partkey"),
            "sk": t.column("l_suppkey"),
            "minp_c": pa.array(_cents(t.column("l_extendedprice"))),
        }).group_by(["pk", "sk"]).aggregate([("minp_c", "min")])
        keys = g.column("pk").to_numpy(zero_copy_only=False)
        return pa.table({
            "part": _hash_part(keys, num_partitions),
            "pk": g.column("pk"),
            "sk": g.column("sk"),
            "minp_c": g.column("minp_c_min"),
        })

    def argmin_per_part(t: pa.Table) -> pa.Table:
        """Fold cross-block pair partials, keep each part's cheapest
        (minp_c, suppkey) row — runs inside one hash(partkey) slice."""
        empty = pa.table({
            "pk": pa.array([], pa.int64()),
            "sk": pa.array([], pa.int64()),
            "minp_c": pa.array([], pa.int64()),
        })
        if t.num_rows == 0:
            return empty
        pk = t.column("pk").to_numpy(zero_copy_only=False)
        sk = t.column("sk").to_numpy(zero_copy_only=False)
        p = t.column("minp_c").to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, p, pk))
        pk, sk, p = pk[order], sk[order], p[order]
        # first row per part after the (part, price, suppkey) sort IS
        # the argmin with the suppkey tiebreak; duplicate (pk, sk)
        # partials from different blocks collapse for free (any later
        # duplicate cannot precede the pair's true min)
        first = np.flatnonzero(np.concatenate([[True],
                                               pk[1:] != pk[:-1]]))
        return pa.table({
            "pk": pa.array(pk[first].astype(np.int64)),
            "sk": pa.array(sk[first].astype(np.int64)),
            "minp_c": pa.array(p[first].astype(np.int64)),
        })

    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    if _table_rows(f"{sf_dir}/part.parquet") <= broadcast_threshold:
        part = pq.read_table(f"{sf_dir}/part.parquet",
                             columns=["p_partkey", "p_size", "p_type"])
        keep = pc.and_(pc.greater_equal(part.column("p_size"),
                                        min_size),
                       pc.equal(part.column("p_type"), ptype))
        elig = np.sort(part.filter(keep).column("p_partkey")
                       .to_numpy(zero_copy_only=False))
        elig_ref = ray.put(elig)

        def filt_bc(t: pa.Table) -> pa.Table:
            e = ray.get(elig_ref)
            keys = t.column("l_partkey").to_numpy(zero_copy_only=False)
            if len(e) == 0:
                hit = np.zeros(len(keys), bool)
            else:
                pos = np.searchsorted(e, keys)
                pos[pos == len(e)] = 0
                hit = e[pos] == keys
            return pair_partial(t.filter(pa.array(hit)))

        winners = (lines.map_batches(filt_bc, batch_format="pyarrow")
                   .fx_map_groups(argmin_per_part))
    else:
        # union-tag exchange on hash(partkey) % P: eligible partkeys
        # meet per-(partkey, suppkey) min-price partials
        def part_side(t: pa.Table) -> pa.Table:
            keep = pc.and_(pc.greater_equal(t.column("p_size"),
                                            min_size),
                           pc.equal(t.column("p_type"), ptype))
            t = t.filter(keep)
            keys = t.column("p_partkey").to_numpy(zero_copy_only=False)
            n = t.num_rows
            return pa.table({
                "part": _hash_part(keys, num_partitions),
                "pk": t.column("p_partkey"),
                "sk": pa.nulls(n, pa.int64()),
                "minp_c": pa.nulls(n, pa.int64()),
                "side": pa.array(np.zeros(n, np.int8)),
            })

        def line_side(t: pa.Table) -> pa.Table:
            g = pair_partial(t)
            return g.append_column(
                "side", pa.array(np.ones(g.num_rows, np.int8)))

        def filt_argmin(g: pa.Table) -> pa.Table:
            side = g.column("side").to_numpy(zero_copy_only=False)
            pt_ = g.filter(pa.array(side == 0))
            ln = g.filter(pa.array(side == 1))
            e = np.sort(pt_.column("pk").to_numpy(zero_copy_only=False))
            keys = ln.column("pk").to_numpy(zero_copy_only=False)
            if len(e) == 0:
                hit = np.zeros(len(keys), bool)
            else:
                pos = np.searchsorted(e, keys)
                pos[pos == len(e)] = 0
                hit = e[pos] == keys
            return argmin_per_part(
                ln.filter(pa.array(hit)).drop_columns(["side"]))

        part_ds = (ray.data.read_parquet(
                       f"{sf_dir}/part.parquet",
                       columns=["p_partkey", "p_size", "p_type"])
                   .map_batches(part_side, batch_format="pyarrow"))
        winners = (part_ds.union(
                       lines.map_batches(line_side,
                                         batch_format="pyarrow"))
                   .fx_map_groups(filt_argmin))

    def finish(t: pa.Table, sname: np.ndarray,
               snat: np.ndarray) -> pa.Table:
        return pa.table({
            "p_partkey": t.column("pk"),
            "s_suppkey": t.column("sk"),
            "s_name": pa.array(sname, pa.string()),
            "n_name": pa.array(nat_names[snat], pa.string()),
            "min_price_c": t.column("minp_c"),
        })

    if _table_rows(f"{sf_dir}/supplier.parquet") <= broadcast_threshold:
        supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                             columns=["s_suppkey", "s_name",
                                      "s_nationkey"])
        sk_arr = supp.column("s_suppkey").to_numpy(zero_copy_only=False)
        order = np.argsort(sk_arr, kind="stable")
        sk_s = sk_arr[order]
        names_s = supp.column("s_name").to_numpy(
            zero_copy_only=False)[order]
        nats_s = supp.column("s_nationkey").to_numpy(
            zero_copy_only=False).astype(np.int64)[order]
        supp_ref = ray.put((sk_s, names_s, nats_s))

        def attach_bc(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return finish(t, np.array([], object),
                              np.array([], np.int64))
            sk_, nm_, nt_ = ray.get(supp_ref)
            keys = t.column("sk").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(sk_, keys)
            # every winner's suppkey exists in supplier by construction
            return finish(t, nm_[pos], nt_[pos])

        return winners.map_batches(attach_bc, batch_format="pyarrow")

    # union-tag exchange on hash(suppkey) % P: winner rows meet the
    # supplier attribute rows; supplier never leaves the cluster
    def supp_side(t: pa.Table) -> pa.Table:
        keys = t.column("s_suppkey").to_numpy(zero_copy_only=False)
        n = t.num_rows
        return pa.table({
            "spart": _hash_part(keys, num_partitions),
            "sk": t.column("s_suppkey"),
            "s_name": t.column("s_name"),
            "snat": pa.array(t.column("s_nationkey").to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "pk": pa.nulls(n, pa.int64()),
            "minp_c": pa.nulls(n, pa.int64()),
            "wside": pa.array(np.zeros(n, np.int8)),
        })

    def win_side(t: pa.Table) -> pa.Table:
        keys = t.column("sk").to_numpy(zero_copy_only=False)
        n = t.num_rows
        return pa.table({
            "spart": _hash_part(keys, num_partitions),
            "sk": t.column("sk"),
            "s_name": pa.nulls(n, pa.string()),
            "snat": pa.nulls(n, pa.int64()),
            "pk": t.column("pk"),
            "minp_c": t.column("minp_c"),
            "wside": pa.array(np.ones(n, np.int8)),
        })

    def attach_ex(g: pa.Table) -> pa.Table:
        wside = g.column("wside").to_numpy(zero_copy_only=False)
        su = g.filter(pa.array(wside == 0))
        wn = g.filter(pa.array(wside == 1))
        sk_ = su.column("sk").to_numpy(zero_copy_only=False)
        order = np.argsort(sk_, kind="stable")
        sk_s_ = sk_[order]
        nm_ = su.column("s_name").to_numpy(zero_copy_only=False)[order]
        nt_ = su.column("snat").to_numpy(zero_copy_only=False)[order]
        t = pa.table({"pk": wn.column("pk"), "sk": wn.column("sk"),
                      "minp_c": wn.column("minp_c")})
        if t.num_rows == 0:
            return finish(t, np.array([], object),
                          np.array([], np.int64))
        keys = t.column("sk").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(sk_s_, keys)
        return finish(t, nm_[pos], nt_[pos])

    supp_ds = (ray.data.read_parquet(
                   f"{sf_dir}/supplier.parquet",
                   columns=["s_suppkey", "s_name", "s_nationkey"])
               .map_batches(supp_side, batch_format="pyarrow"))
    return (supp_ds.union(
                winners.map_batches(win_side, batch_format="pyarrow"))
            .fx_map_groups(attach_ex, part_col="spart"))


def orders_weekly_gapfill(sf_dir: str) -> ray.data.Dataset:
    """Calendar-filled weekly order rollup: orders bucketed to their
    ISO week start (Monday, date_trunc('week') semantics), every week
    between the global min and max emitted — missing weeks carry zero
    counts/revenue, so the output is a dense time series. Returns
    (week_start, n_orders, sum_total_c).

    Scale shape: per-block (week, n, sum_c) partials — the orders table
    never moves; the driver folds O(weeks × blocks) tiny rows and the
    calendar fill is pure driver arithmetic over the bounded week range
    (a century is ~5,200 rows). Week start is integer day math on the
    epoch-day value (1970-01-01 is a Thursday ⇒ Monday offset
    ``(d + 3) % 7``), bit-identical to SQL date_trunc."""

    def partial(t: pa.Table) -> pa.Table:
        od = t.column("o_orderdate").cast(pa.int64()) \
             .to_numpy(zero_copy_only=False)
        day = od // 86_400_000_000
        week = day - (day + 3) % 7
        tot_c = _cents(t.column("o_totalprice"))
        g = pa.table({"week": pa.array(week),
                      "n": pa.array(np.ones(t.num_rows, np.int64)),
                      "sum_c": pa.array(tot_c)})
        agg = g.group_by("week").aggregate([("n", "sum"),
                                            ("sum_c", "sum")])
        return pa.table({"week": agg.column("week"),
                         "n": agg.column("n_sum"),
                         "sum_c": agg.column("sum_c_sum")})

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderdate", "o_totalprice"])
    empty = pa.table({"week": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "sum_c": pa.array([], pa.int64())})
    pt = _fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                        ["week"], ["n", "sum_c"], empty)
    wk = pt.column("week").to_numpy(zero_copy_only=False)
    if len(wk) == 0:
        return ray.data.from_arrow(pa.table({
            "week_start": pa.array([], pa.timestamp("us")),
            "n_orders": pa.array([], pa.int64()),
            "sum_total_c": pa.array([], pa.int64())}))
    cal = np.arange(wk.min(), wk.max() + 1, 7)
    n = np.zeros(len(cal), np.int64)
    s = np.zeros(len(cal), np.int64)
    rows = np.searchsorted(cal, wk)
    n[rows] = pt.column("n").to_numpy(zero_copy_only=False)
    s[rows] = pt.column("sum_c").to_numpy(zero_copy_only=False)
    return ray.data.from_arrow(pa.table({
        "week_start": pa.array(cal * 86_400_000_000
                               ).cast(pa.timestamp("us")),
        "n_orders": pa.array(n),
        "sum_total_c": pa.array(s)}))


def order_lines_join(sf_dir: str,
                     num_partitions: int = 16) -> ray.data.Dataset:
    """The GENERIC join primitive exercised end-to-end: inner-join
    lineitem to orders on the order key via ``stages.exchange.fx_join``
    (one co-partitioned file exchange, both fact tables move exactly
    once) and return the joined line grain — proof the reusable join
    reproduces SQL join semantics on real tables, not just the
    hand-fused pipelines elsewhere in this module. Money in integer
    cents as everywhere."""
    from ..stages.exchange import fx_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"])

    def conform(t: pa.Table) -> pa.Table:
        q = t.column("l_quantity").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": t.column("l_orderkey"),
            "l_linenumber": t.column("l_linenumber"),
            "qty_c": pa.array(np.floor(q * 100.0 + 0.5)
                              .astype(np.int64)),
        })

    lines = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"]
    ).map_batches(conform, batch_format="pyarrow")
    return fx_join(lines, orders, on="o_orderkey", how="inner",
                   num_partitions=num_partitions)


def parts_unsold_in_window(sf_dir: str,
                           num_partitions: int = 16) -> ray.data.Dataset:
    """fx_join's ANTI mode on real fact tables: parts with NO lineitem
    shipped in 1997-H1 (the slow-mover report). The probe side is the
    filtered fact projection; part (the left/output side) moves once —
    the generic primitive reproducing SQL NOT IN semantics."""
    from ..stages.exchange import fx_join

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])

    def conform(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t.column("l_partkey")})

    import pyarrow.dataset as pads
    sold = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_shipdate"],
        filter=((pads.field("l_shipdate")
                 >= pa.scalar(np.datetime64("1997-01-01", "us")))
                & (pads.field("l_shipdate")
                   < pa.scalar(np.datetime64("1997-07-01", "us"))))
    ).map_batches(conform, batch_format="pyarrow")
    return fx_join(part, sold, on="p_partkey", how="anti",
                   num_partitions=num_partitions)


def active_customers_in_window(sf_dir: str,
                               num_partitions: int = 16
                               ) -> ray.data.Dataset:
    """fx_join's SEMI mode: customers with at least one 1997 order
    (IN-subquery semantics, each customer once) — the left table moves
    once, the probe side is the filtered orders key projection."""
    from ..stages.exchange import fx_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"])

    def conform(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": t.column("o_custkey")})

    import pyarrow.dataset as pads
    active = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"],
        filter=((pads.field("o_orderdate")
                 >= pa.scalar(np.datetime64("1997-01-01", "us")))
                & (pads.field("o_orderdate")
                   < pa.scalar(np.datetime64("1998-01-01", "us"))))
    ).map_batches(conform, batch_format="pyarrow")
    return fx_join(cust, active, on="c_custkey", how="semi",
                   num_partitions=num_partitions)


def orders_region0_left(sf_dir: str,
                        num_partitions: int = 16) -> ray.data.Dataset:
    """fx_join's LEFT mode with real null rows: every order, annotated
    with its customer key ONLY when that customer sits in region 0
    (nation is a 25-row dimension — folded driver-side into the probe
    filter; the probe ships bare customer keys). Orders outside the
    region carry a null — the outer-join shape the driver's
    order-insensitive hash compare must reproduce."""
    import pyarrow.parquet as pq

    from ..stages.exchange import fx_join

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    keys = set(nat.filter(
        pc.equal(nat.column("n_regionkey"), 0))
        .column("n_nationkey").to_pylist())

    def conform(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column("c_nationkey"),
                     value_set=pa.array(sorted(keys), pa.int64()))
        f = t.filter(m)
        return pa.table({"o_custkey": f.column("c_custkey"),
                         "r0_custkey": f.column("c_custkey")})

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"]
    ).map_batches(conform, batch_format="pyarrow")
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    return fx_join(orders, cust, on="o_custkey", how="left",
                   num_partitions=num_partitions)


def customer_orders_outer(sf_dir: str,
                          min_acctbal: float = 9000.0,
                          num_partitions: int = 16) -> ray.data.Dataset:
    """fx_join's FULL OUTER mode on real tables: high-balance
    customers FULL OUTER JOIN per-customer order counts — left-only
    rows are rich customers who never ordered (null n_orders),
    right-only rows are every other customer's order history (null
    c_acctbal), key coalesced exactly like SQL FULL OUTER JOIN USING.
    Returns (c_custkey, c_acctbal, n_orders).

    Scale shape: the count side folds per-block partials through one
    stat-driven fx_agg_by exchange (unbounded custkey domain — never
    broadcast); the join is one more co-partitioned exchange in which
    both sides move exactly once."""
    import pyarrow.dataset as pads

    from ..stages.exchange import fx_agg_by, fx_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal"],
        filter=pads.field("c_acctbal") > float(min_acctbal))

    def ones(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t.column("o_custkey"),
            "n_orders": pa.array(np.ones(t.num_rows, np.int64))})

    counts = fx_agg_by(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey"])
        .map_batches(ones, batch_format="pyarrow"),
        ["c_custkey"], [("n_orders", "sum")])
    return fx_join(cust, counts, on="c_custkey", how="outer",
                   num_partitions=num_partitions)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "active_customers_in_window",
    "banded_part_revenue",
    "brand_revenue_by_year",
    "customer_order_distribution",
    "customer_orders_outer",
    "customers_without_orders",
    "discount_revenue_delta",
    "dominant_supplier_parts",
    "important_parts",
    "lapsed_rich_customers",
    "large_orders",
    "min_cost_supplier",
    "nation_market_share",
    "order_lines_join",
    "orders_region0_left",
    "orders_weekly_gapfill",
    "parts_bought_together",
    "parts_unsold_in_window",
    "pricing_rollup",
    "pricing_summary",
    "priority_wait_orders",
    "promo_revenue_share",
    "revenue_by_nation",
    "revenue_by_part_type",
    "ship_delay_priority",
    "small_quantity_revenue",
    "sole_late_shipper",
    "supplier_balance_by_nation",
    "supplier_count_by_part",
    "top_customers_by_return_revenue",
    "top_orders_by_revenue",
    "top_supplier_by_revenue",
    "volume_shipping",
))
