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
  the customer attach is one ``exchange.fx_join`` with the customer
  leaf on the right; lineitem revenue is pre-aggregated per (block,
  orderkey) so the ONE co-partitioned co-group keyed on orderkey
  finishes the per-order sum AND the equi-join; per-partition heads /
  rollups leave at most k·P (Q3) or 25·P (Q5) rows for a driver fold.
- Every customer, supplier or part attach is one ``fx_join`` with the
  dimension leaf on the right, and the exchange decides from that
  leaf's size whether to broadcast it to every task over the fact side
  or to route both sides; no query carries a size gate of its own.
  The driver reads only nation and region (<=25 rows) and the k
  winners' names.

Every co-partitioned exchange here is ``exchange.
file_exchange_map_groups(src, fn, keys=[...])``: the sides of a join
are the members of a tuple ``src`` (a co-group), carry the key under
one column name, and reach ``fn`` as one table each; the exchange
routes each row by the key (P is the exchange's, never the query's),
so no query tags or pads rows itself. A part function that is a plain
join is ``exchange.fx_join``. Sides read parquet as
``exchange.leaf(path, columns, filter=)`` and take an earlier
exchange's output as its ``refs``, so neither costs a Ray Data
execution.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_Q1_CUTOFF = np.datetime64("1998-09-02T00:00:00", "us")


# every co-partitioned exchange below is the keyed file exchange
# (stages/exchange.py): ``keys=`` names the columns it routes on
from ..stages import exchange


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


def _tables(out: "exchange.Exchanged | list") -> "list[pa.Table]":
    """The blocks of an exchange result or a list of block refs, as
    Arrow tables."""
    return ray.get(out.refs if isinstance(out, exchange.Exchanged)
                   else out)


def _concat_nonempty(ds: "exchange.Exchanged | list",
                     fallback: pa.Table) -> pa.Table:
    """Collect a result's blocks, dropping the empty ones (a column-less
    empty block would break concat_tables)."""
    tables = [t for t in _tables(ds) if t.num_rows > 0]
    return pa.concat_tables(tables) if tables else fallback


def _fold_partials(ds: "exchange.Exchanged | list",
                   keys: list[str], sums: list[str],
                   fallback: pa.Table) -> pa.Table:
    """Driver-side fold of BOUNDED-cardinality partial aggregates:
    collects O(groups x blocks) tiny rows and finishes with one local
    Arrow group_by. For single-digit group counts this replaces Ray's
    sort-based Aggregate exchange, whose fixed cost (~3 s at any scale)
    dwarfs the fold itself; apply only when groups x blocks stays
    driver-sized (six-ish groups x even 10^6 blocks is fine)."""
    return _group_sums(_concat_nonempty(ds, fallback), keys, sums)


def _group_sums(t: pa.Table, keys: list[str], sums: list[str]
                ) -> pa.Table:
    """``GROUP BY keys`` summing ``sums``, columns keeping their names:
    the per-block partial fold and its driver refold."""
    agg = t.group_by(keys).aggregate([(c, "sum") for c in sums])
    return pa.table({**{k: agg.column(k) for k in keys},
                     **{c: agg.column(f"{c}_sum") for c in sums}})


def _fold_joined(joined: "exchange.Exchanged", keys: list[str],
                 sums: list[str], fallback: pa.Table) -> pa.Table:
    """``_fold_partials`` over a join's output, each block folded in
    its own task first, so only O(groups x blocks) rows reach the
    driver."""
    return _fold_partials(exchange.map_blocks(joined.refs, functools.partial(
        _group_sums, keys=keys, sums=sums)), keys, sums, fallback)


_REV_COLS = ["l_orderkey", "l_extendedprice", "l_discount"]


def _per_order_revenue(t: pa.Table) -> pa.Table:
    """(o_orderkey, rev_c) PARTIAL per-order revenue of one lineitem
    block (``_REV_COLS``), one row per (block, orderkey): the exchange
    keyed on o_orderkey that consumes it finishes the per-order sum
    itself — ONE all-to-all for aggregate+join instead of a global
    orderkey groupby followed by a second shuffle."""
    g = pa.table({"o_orderkey": t.column("l_orderkey"),
                  "rev_c": pa.array(_rev_cents(t))})
    agg = g.group_by("o_orderkey").aggregate([("rev_c", "sum")])
    return pa.table({"o_orderkey": agg.column("o_orderkey"),
                     "rev_c": agg.column("rev_c_sum")})


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
    return ray.data.from_arrow(_pricing_summary(sf_dir))


def _pricing_summary(sf_dir: str) -> pa.Table:
    """``pricing_summary``'s rows, folded on the driver."""

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

    parts = exchange.map_blocks(exchange.leaf(
        f"{sf_dir}/lineitem.parquet",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_tax", "l_shipdate"]), partial)
    empty = pa.table({
        "l_returnflag": pa.array([], pa.string()),
        "l_linestatus": pa.array([], pa.string()),
        "sum_qty_c": pa.array([], pa.int64()),
        "sum_base_c": pa.array([], pa.int64()),
        "sum_disc_c": pa.array([], pa.int64()),
        "sum_charge_c": pa.array([], pa.int64()),
        "n_lines": pa.array([], pa.int64()),
    })
    return _fold_partials(
        parts, ["l_returnflag", "l_linestatus"],
        ["sum_qty_c", "sum_base_c", "sum_disc_c", "sum_charge_c",
         "n_lines"], empty)


def top_orders_by_revenue(sf_dir: str, segment: str = "BUILDING",
                          k: int = 10) -> ray.data.Dataset:
    """TPC-H Q3-style: the ``k`` highest-revenue orders from customers
    in ``segment`` (revenue in integer cents; ties rank by orderkey).
    Returns (o_orderkey, o_orderdate, o_orderpriority, revenue_c, rk).

    Scale shape: an ``fx_join`` semi-join keyed on custkey keeps the
    segment's orders (customer rows shrink to the segment's keys at the
    read; the exchange broadcasts them or routes both sides by their
    size), then ONE co-group keyed on orderkey finishes the per-order
    revenue sum and the join, and keeps each partition's top k."""
    import pyarrow.dataset as pads

    def cust_keys(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t.column("c_custkey")})

    orders = exchange.fx_join(
        exchange.leaf(f"{sf_dir}/orders.parquet",
                      ["o_orderkey", "o_custkey", "o_orderdate",
                       "o_orderpriority"]),
        exchange.leaf(f"{sf_dir}/customer.parquet", ["c_custkey"],
                      filter=pads.field("c_mktsegment") == segment),
        on="o_custkey", how="semi", pre=(None, cust_keys)).refs

    def join_topk(rv: pa.Table, od: pa.Table) -> pa.Table:
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

    joined = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/lineitem.parquet", _REV_COLS), orders),
        join_topk, keys=["o_orderkey"], pre=(_per_order_revenue, None))
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


def revenue_by_nation(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q5-flavor star join: revenue (integer cents) rolled up to
    (r_name, n_name). nation/region are TRUE dimensions (bounded: ≤25
    rows) and live driver-side as a nationkey -> nation-index map,
    shipped inside the customer side's ``pre``. customer scales with
    the fact table (~1:40 vs lineitem), so an ``fx_join`` keyed on
    custkey with the customer leaf on the right attaches the nation
    index to orders (broadcast or routed by its size); the final
    exchange is the co-partitioned rev⋈orders co-group keyed on
    orderkey followed by a ~25-row native sum."""
    import pyarrow.parquet as pq
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    # nation ⋈ region, then one index per distinct (r_name, n_name)
    # in name order: the rollup's group id
    r_name, hit = _map_keys(*_sorted_lookup(
        reg.column("r_regionkey").to_numpy(),
        reg.column("r_name").to_numpy(zero_copy_only=False)),
        nat.column("n_regionkey").to_numpy())
    named = list(zip(r_name[hit],
                     nat.column("n_name").to_numpy(zero_copy_only=False)[hit]))
    groups = sorted(set(named))
    gidx = {g: i for i, g in enumerate(groups)}
    nk, nv = _sorted_lookup(
        nat.column("n_nationkey").to_numpy()[hit].astype(np.int64),
        np.array([gidx[g] for g in named], np.int64))

    def cust_nidx(t: pa.Table) -> pa.Table:
        nkey = t.column("c_nationkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        mapped, hit_ = _map_keys(nk, nv, nkey)
        return pa.table({
            "o_custkey": t.column("c_custkey").filter(pa.array(hit_)),
            "nidx": pa.array(mapped[hit_].astype(np.int64))})

    orders = exchange.fx_join(
        exchange.leaf(f"{sf_dir}/orders.parquet",
                      ["o_orderkey", "o_custkey"]),
        exchange.leaf(f"{sf_dir}/customer.parquet",
                      ["c_custkey", "c_nationkey"]),
        on="o_custkey", how="inner", pre=(None, cust_nidx)).refs

    def join_agg(rv: pa.Table, od: pa.Table) -> pa.Table:
        rk, rc = _combine_per_order(rv)    # fold partials, sorted keys
        ok = od.column("o_orderkey").to_numpy(zero_copy_only=False)
        mapped, hit_ = _map_keys(rk, rc, ok)
        nidx = od.column("nidx").to_numpy(zero_copy_only=False)[hit_]
        gi, sums, _ = _int_sum_by(nidx, mapped[hit_])
        return pa.table({"nidx": pa.array(gi),
                         "rev_c": pa.array(sums)})

    joined = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/lineitem.parquet", _REV_COLS), orders),
        join_agg, keys=["o_orderkey"], pre=(_per_order_revenue, None))
    # <=25 rows per partition: fold the nation rollup driver-side
    empty = pa.table({"nidx": pa.array([], pa.int64()),
                      "rev_c": pa.array([], pa.int64())})
    folded = _fold_partials(joined, ["nidx"], ["rev_c"], empty)
    ni = folded.column("nidx").to_numpy(zero_copy_only=False)
    return ray.data.from_arrow(pa.table({
        "r_name": pa.array([groups[i][0] for i in ni], pa.string()),
        "n_name": pa.array([groups[i][1] for i in ni], pa.string()),
        "revenue_c": folded.column("rev_c"),
    }))


def revenue_by_part_type(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q14-flavor: revenue (integer cents) per part type — per-
    block (partkey, revenue) partials ``fx_join`` the (partkey, type)
    part leaf (broadcast or routed by its size), each joined block folds
    to one row per type and the driver folds those."""

    def line_side(t: pa.Table) -> pa.Table:
        pk, rev = _sorted_group_reduce(
            t.column("l_partkey").to_numpy(zero_copy_only=False),
            _rev_cents(t))
        return pa.table({"p_partkey": pa.array(pk),
                         "revenue_c": pa.array(rev)})

    joined = exchange.fx_join(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_partkey", "l_extendedprice", "l_discount"]),
        exchange.leaf(f"{sf_dir}/part.parquet", ["p_partkey", "p_type"]),
        on="p_partkey", how="inner", pre=(line_side, None))
    return ray.data.from_arrow(_fold_joined(
        joined, ["p_type"], ["revenue_c"],
        pa.table({"p_type": pa.array([], pa.string()),
                  "revenue_c": pa.array([], pa.int64())})))


def top_customers_by_return_revenue(sf_dir: str, k: int = 20
                                    ) -> ray.data.Dataset:
    """TPC-H Q10-flavor: the ``k`` customers with the highest revenue
    from RETURNED lines (l_returnflag = 'R'), with name and nation.
    Returns (c_custkey, c_name, n_name, revenue_c, rk).

    Scale shape — the one query in this module whose aggregate key
    (custkey) differs from its join key (orderkey), so TWO bounded
    co-partitioned exchanges are inherent:

    1. keyed on orderkey: a co-group of per-(block, orderkey)
       returned-revenue partials and (o_orderkey, o_custkey) pairs;
       the part function finishes the per-order sum AND the orders
       equi-join, re-emitting (custkey, rev_c) partials already folded
       per partition — at most one row per custkey per partition.
    2. keyed on custkey: fold per-customer totals and keep each
       partition's local top-k — k·P candidate rows to the driver.

    Customer/nation names are attached at the END, to the k winners
    only: a driver-side point read of their customer rows and the
    <=25-row nation table, joined by index maps."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    cust_empty = pa.table({"o_custkey": pa.array([], pa.int64()),
                           "rev_c": pa.array([], pa.int64())})

    def join_to_cust(rv: pa.Table, od: pa.Table) -> pa.Table:
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
            "o_custkey": pa.array(cu),
            "rev_c": pa.array(sums),
        })

    per_cust = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/lineitem.parquet", _REV_COLS,
                       filter=pads.field("l_returnflag") == "R"),
         exchange.leaf(f"{sf_dir}/orders.parquet",
                       ["o_orderkey", "o_custkey"])),
        join_to_cust, keys=["o_orderkey"], pre=(_per_order_revenue, None))

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

    cand = exchange.file_exchange_map_groups(per_cust.refs, local_topk,
                                             keys=["o_custkey"])
    tabs = [t for t in ray.get(cand.refs) if t.num_rows]
    t = pa.concat_tables(tabs) if tabs else topk_empty
    ck = t.column("o_custkey").to_numpy(zero_copy_only=False)
    rc = t.column("rev_c").to_numpy(zero_copy_only=False)
    head = np.lexsort((ck, -rc))[:k]
    win_keys, win_rev = ck[head], rc[head].astype(np.int64)

    # name lookup for the k WINNERS only: a predicate-pushdown point
    # read (row-group statistics prune), never a full customer scan —
    # at warehouse scale customer is a fact-sized table and only k=20
    # rows need names
    cust = pads.dataset(f"{sf_dir}/customer.parquet").to_table(
        columns=["c_custkey", "c_name", "c_nationkey"],
        filter=pads.field("c_custkey").isin(win_keys.tolist()))
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])

    def rows_of(keys: pa.ChunkedArray, probe: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """(row index, hit mask) of each ``probe`` value in the ``keys``
        column."""
        return _map_keys(*_sorted_lookup(
            keys.to_numpy().astype(np.int64), np.arange(len(keys))), probe)

    # ranks are taken before the name joins, and a winner without a
    # customer or nation row drops out of them, as in SQL's inner joins
    crow, chit = rows_of(cust.column("c_custkey"), win_keys)
    win = np.flatnonzero(chit)
    nrow, nhit = rows_of(nat.column("n_nationkey"), cust.column(
        "c_nationkey").take(crow[win]).to_numpy().astype(np.int64))
    win = win[nhit]
    return ray.data.from_arrow(pa.table({
        "c_custkey": pa.array(win_keys[win].astype(np.int64)),
        "c_name": cust.column("c_name").take(crow[win]),
        "n_name": nat.column("n_name").take(nrow[nhit]),
        "revenue_c": pa.array(win_rev[win]),
        "rk": pa.array(win + 1, pa.int64()),
    }))


def customers_without_orders(sf_dir: str, since: str = "2000-01-01"
                             ) -> ray.data.Dataset:
    """Distributed ANTI-JOIN: customers with NO order on or after
    ``since`` (lapsed customers). Returns (c_custkey, c_name,
    acctbal_c) — one row per lapsed customer.

    Scale shape: the orders side is row-filtered at the read, then
    shrinks to per-block DISTINCT custkey partials; one ``fx_join``
    anti-join keyed on custkey meets every customer row with every
    order-key partial that could match it (at warehouse scale BOTH key
    sets are large and the exchange routes them; a small orders leaf
    is broadcast). Output stays
    distributed (a Dataset) — the result can be a large fraction of
    customer."""
    import pyarrow.dataset as pads

    def order_keys(t: pa.Table) -> pa.Table:
        keys = np.unique(t.column("o_custkey").to_numpy(
            zero_copy_only=False))
        return pa.table({"c_custkey": pa.array(keys.astype(np.int64))})

    def cust_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "c_name": t.column("c_name"),
            "acctbal_c": pa.array(_cents(t.column("c_acctbal"))),
        })

    return ray.data.from_arrow_refs(exchange.fx_join(
        exchange.leaf(f"{sf_dir}/customer.parquet",
                      ["c_custkey", "c_name", "c_acctbal"]),
        exchange.leaf(f"{sf_dir}/orders.parquet", ["o_custkey"],
                      filter=pads.field("o_orderdate")
                      >= pa.scalar(np.datetime64(since, "us"))),
        on="c_custkey", how="anti", pre=(cust_rows, order_keys)).refs)


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

    parts = exchange.map_blocks(exchange.leaf(
        f"{sf_dir}/supplier.parquet", ["s_nationkey", "s_acctbal"]), partial)
    return ray.data.from_arrow(finish(
        _fold_partials(parts, ["nidx"], ["bal_c", "n_suppliers"],
                       pa.table({"nidx": pa.array([], pa.int64()),
                                 "bal_c": pa.array([], pa.int64()),
                                 "n_suppliers": pa.array([], pa.int64())}))))


def small_quantity_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q17-flavor AGGREGATE SELF-JOIN on the fact table: total
    revenue (and line count) from lineitems whose quantity is below 20%
    of their own part's average quantity. Returns one row
    (revenue_c, n_lines).

    Scale shape: the per-part average and the rows it filters live in
    the SAME table, so the fact data must meet its own aggregate — one
    exchange keyed on partkey carrying (a) per-(block, partkey)
    quantity partials (sum_qty_c, n) and (b) the narrow (partkey,
    qty_c, price_c) line triples, both emitted by ONE producer per
    block (a ``side`` column tells them apart); each partition folds its
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

    ds = exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_partkey", "l_quantity", "l_extendedprice"]),
        fold_filter, keys=["l_partkey"], pre=tag_lines)
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

    leaf = _pricing_summary(sf_dir).to_pandas()
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
    return ray.data.from_arrow(
        pa.Table.from_pandas(out, preserve_index=False))


def priority_wait_orders(sf_dir: str, date_from: str = "1996-01-01",
                         date_to: str = "1996-07-01",
                         late_days: int = 90) -> ray.data.Dataset:
    """TPC-H Q4-flavor EXISTS semi-join: per order priority, how many
    orders in the window have at least one LATE line item — a shipment
    ``late_days`` or more after the order date (this corpus's lineitem
    carries no commit/receipt dates, so lateness is defined against
    o_orderdate). Returns (o_orderpriority, order_count).

    Scale shape: EXISTS(l_shipdate >= o_orderdate + D) ==
    max(l_shipdate) >= o_orderdate + D, so the fact side shrinks to
    per-block per-order max-shipdate partials BEFORE the exchange; the
    orders side is date-filtered at the read. One co-partitioned
    co-group keyed on orderkey finishes the max and tests lateness per
    order; only (priority, count) partials leave each partition and
    the driver folds O(5 x P) rows."""
    import pyarrow.dataset as pads
    lo = np.datetime64(date_from, "us")
    hi = np.datetime64(date_to, "us")
    late = np.timedelta64(late_days, "D")

    def line_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"k": t.column("l_orderkey"),
                      "s": t.column("l_shipdate")})
        agg = g.group_by("k").aggregate([("s", "max")])
        return pa.table({"okey": agg.column("k"),
                         "maxship": agg.column("s_max")})

    def late_partial(lp: pa.Table, o: pa.Table) -> pa.Table:
        if o.num_rows == 0:
            return pa.table({"o_orderpriority": pa.array([], pa.string()),
                             "order_count": pa.array([], pa.int64())})
        lk = lp.column("okey").to_numpy(zero_copy_only=False)
        ls = lp.column("maxship").to_numpy(zero_copy_only=False)
        # finish the per-order max over the block partials (empty-safe:
        # a partition may hold orders whose keys have no line items)
        uk, umax = _sorted_group_reduce(lk, ls, np.maximum)
        ok = o.column("o_orderkey").to_numpy(zero_copy_only=False)
        od = o.column("o_orderdate").to_numpy(zero_copy_only=False)
        ms, hit = _map_keys(uk, umax, ok)
        is_late = hit & (ms >= od + late)
        prio = o.column("o_orderpriority").to_numpy(zero_copy_only=False)
        up, pi = np.unique(prio[is_late], return_inverse=True)
        return pa.table({
            "o_orderpriority": pa.array(up),
            "order_count": pa.array(np.bincount(
                pi, minlength=len(up)).astype(np.int64)),
        })

    odate = pads.field("o_orderdate")
    parts = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/lineitem.parquet",
                       ["l_orderkey", "l_shipdate"]),
         exchange.leaf(f"{sf_dir}/orders.parquet",
                       ["o_orderkey", "o_orderdate", "o_orderpriority"],
                       filter=(odate >= pa.scalar(lo))
                       & (odate < pa.scalar(hi)))),
        late_partial, keys=(["okey"], ["o_orderkey"]),
        pre=(line_partial, None))
    return ray.data.from_arrow(_fold_partials(
        parts, ["o_orderpriority"], ["order_count"],
        pa.table({"o_orderpriority": pa.array([], pa.string()),
                  "order_count": pa.array([], pa.int64())})))


def ship_delay_priority(sf_dir: str, date_from: str = "1996-01-01",
                        date_to: str = "1997-01-01") -> ray.data.Dataset:
    """TPC-H Q12-flavor: line items SHIPPED in the window, banded by
    ship delay (days from order date: <30 FAST, <60 NORMAL, else SLOW
    — this corpus has no l_shipmode, so the delay band plays its role),
    counting high-priority (1-URGENT / 2-HIGH) vs lower-priority lines
    per band. Returns (delay_band, high_line_count, low_line_count).

    Scale shape: the fact side is date-filtered and projected to
    (orderkey, shipdate) at the read; ONE co-partitioned co-group
    keyed on orderkey meets it with the orders dimension rows; the
    per-partition finish is a vectorized searchsorted + bincount over
    band x priority, and only (band, 2 counts) partials reach the
    driver fold."""
    import pyarrow.dataset as pads
    lo = np.datetime64(date_from, "us")
    hi = np.datetime64(date_to, "us")
    bands = np.array(["FAST", "NORMAL", "SLOW"])

    def band_partial(ln: pa.Table, o: pa.Table) -> pa.Table:
        if ln.num_rows == 0:
            return pa.table({"delay_band": pa.array([], pa.string()),
                             "high_line_count": pa.array([], pa.int64()),
                             "low_line_count": pa.array([], pa.int64())})
        ok = o.column("o_orderkey").to_numpy(zero_copy_only=False)
        order = np.argsort(ok, kind="stable")
        ok = ok[order]
        od = o.column("o_orderdate").to_numpy(zero_copy_only=False)[order]
        prio = o.column("o_orderpriority").to_numpy(
            zero_copy_only=False)[order]
        is_high = (prio == "1-URGENT") | (prio == "2-HIGH")
        lk = ln.column("l_orderkey").to_numpy(zero_copy_only=False)
        ls = ln.column("l_shipdate").to_numpy(zero_copy_only=False)
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

    ship = pads.field("l_shipdate")
    parts = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/lineitem.parquet",
                       ["l_orderkey", "l_shipdate"],
                       filter=(ship >= pa.scalar(lo))
                       & (ship < pa.scalar(hi))),
         exchange.leaf(f"{sf_dir}/orders.parquet",
                       ["o_orderkey", "o_orderdate", "o_orderpriority"])),
        band_partial, keys=(["l_orderkey"], ["o_orderkey"]))
    return ray.data.from_arrow(_fold_partials(
        parts, ["delay_band"], ["high_line_count", "low_line_count"],
        pa.table({"delay_band": pa.array([], pa.string()),
                  "high_line_count": pa.array([], pa.int64()),
                  "low_line_count": pa.array([], pa.int64())})))


def _ship_years(t: pa.Table) -> np.ndarray:
    """Calendar year of l_shipdate as int64 (vectorized datetime64 math)."""
    sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
    return sd.astype("datetime64[Y]").astype(np.int64) + 1970


def _lines_with_supp_nation(sf_dir: str, lines: "exchange.Leaf",
                            line_project) -> "list[ray.ObjectRef]":
    """Refs of the ``line_project``-ed lineitem leaf with the supplier's
    nationkey attached as the int64 column ``snat`` — the supplier
    attach shared by the Q7/Q8-flavor queries: one ``fx_join`` keyed on
    suppkey with the supplier leaf on the right (broadcast or routed by
    its size). ``line_project`` must keep ``l_suppkey``; rows without a
    supplier match are dropped."""
    def supp_side(t: pa.Table) -> pa.Table:
        return pa.table({"l_suppkey": t.column("s_suppkey"),
                         "snat": t.column("s_nationkey").cast(pa.int64())})

    return exchange.fx_join(
        lines, exchange.leaf(f"{sf_dir}/supplier.parquet",
                             ["s_suppkey", "s_nationkey"]),
        on="l_suppkey", how="inner", pre=(line_project, supp_side)).refs


def volume_shipping(sf_dir: str, year_from: int = 1995,
                    year_to: int = 1997) -> ray.data.Dataset:
    """TPC-H Q7-flavor volume shipping: revenue (integer cents) between
    every (supplier nation, customer nation) pair per ship year in
    [year_from, year_to). Returns (supp_nation, cust_nation, l_year,
    revenue_c) — bounded at 25 x 25 x years rows.

    Scale shape: nation (<=25 rows) is a driver-side name map. supplier
    and customer both scale with the fact table, so each attach is one
    ``fx_join`` with the dimension leaf on the right (broadcast or
    routed by its size): keyed on suppkey for lineitem, on custkey for
    orders. The FINAL exchange is one co-partitioned co-group keyed on
    orderkey where per-order customer nation meets the per-(order,
    supp-nation, year) revenue partials; only encoded (cell, rev_c)
    partials — <=1250 rows per partition — reach the driver fold."""
    import pyarrow.dataset as pads
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
        """Project window-filtered lineitem to the join-ready shape
        (l_suppkey, l_orderkey, yidx, rev_c)."""
        return pa.table({
            "l_suppkey": t.column("l_suppkey"),
            "l_orderkey": t.column("l_orderkey"),
            "yidx": pa.array(_ship_years(t) - year_from),
            "rev_c": pa.array(_rev_cents(t)),
        })

    def line_partial(t: pa.Table) -> pa.Table:
        """Per-block combine of (orderkey, supp-nation, year) revenue —
        the partials the final orderkey exchange consumes."""
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        yi = t.column("yidx").to_numpy(zero_copy_only=False)
        rv = t.column("rev_c").to_numpy(zero_copy_only=False)
        snat = t.column("snat").to_numpy(zero_copy_only=False)
        cell = (ok * nn + snat) * n_years + yi
        ucell, sums = _sorted_group_reduce(cell, rv.astype(np.int64))
        return pa.table({
            "o_orderkey": pa.array(ucell // (nn * n_years)),
            "scell": pa.array(ucell % (nn * n_years)),
            "rev_c": pa.array(sums.astype(np.int64)),
        })

    ship = pads.field("l_shipdate")
    lines = _lines_with_supp_nation(
        sf_dir, exchange.leaf(
            f"{sf_dir}/lineitem.parquet",
            ["l_suppkey", "l_orderkey", "l_shipdate", "l_extendedprice",
             "l_discount"],
            filter=(ship >= pa.scalar(lo)) & (ship < pa.scalar(hi))),
        line_project)

    def cust_side(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t.column("c_custkey"),
                         "cnat": t.column("c_nationkey").cast(pa.int64())})

    orders = exchange.fx_join(
        exchange.leaf(f"{sf_dir}/orders.parquet",
                      ["o_orderkey", "o_custkey"]),
        exchange.leaf(f"{sf_dir}/customer.parquet",
                      ["c_custkey", "c_nationkey"]),
        on="o_custkey", how="inner", pre=(None, cust_side)).refs

    def join_agg(ln: pa.Table, od: pa.Table) -> pa.Table:
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

    joined = exchange.file_exchange_map_groups(
        (lines, orders), join_agg, keys=["o_orderkey"],
        pre=(line_partial, None))
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


def brand_revenue_by_year(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q9-flavor product profit rollup: revenue (integer cents)
    per (p_brand, ship year). Returns (p_brand, l_year, revenue_c) —
    bounded at brands x years rows.

    Scale shape: per-block (partkey, year) revenue partials ``fx_join``
    the (partkey, brand) part leaf (``part`` scales with the fact table;
    the exchange broadcasts it or routes both sides by its size); each
    joined block folds to (brand, year) sums and the driver folds
    O(brands x years x blocks) rows."""

    def line_side(t: pa.Table) -> pa.Table:
        """Per-block (partkey, year) revenue partials. Sort+reduceat,
        NOT _int_sum_by: the cell ids are sparse (partkey-scaled), so a
        dense accumulator would allocate max_partkey x 4096 int64s per
        block."""
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        cell = pk * 4096 + (_ship_years(t) - 1970)
        gi, sums = _sorted_group_reduce(cell, _rev_cents(t))
        return pa.table({
            "p_partkey": pa.array(gi // 4096),
            "l_year": pa.array((gi % 4096) + 1970),
            "revenue_c": pa.array(sums),
        })

    joined = exchange.fx_join(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_partkey", "l_shipdate", "l_extendedprice",
                       "l_discount"]),
        exchange.leaf(f"{sf_dir}/part.parquet", ["p_partkey", "p_brand"]),
        on="p_partkey", how="inner", pre=(line_side, None))
    return ray.data.from_arrow(_fold_joined(
        joined, ["p_brand", "l_year"], ["revenue_c"],
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

    parts = exchange.map_blocks(exchange.leaf(
        f"{sf_dir}/lineitem.parquet",
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]),
        partial)
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
    combiner), ONE ``fx_sum_by`` exchange keyed on suppkey — after
    which every supplier total lives in exactly one block, so a
    per-block (max, ties) shrink bounds the driver fold at
    2 x blocks rows; winner names attach via a predicate-pushdown
    point read of the <=#winners supplier rows, never a broadcast of
    the supplier table."""
    import pyarrow.dataset as pads
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
        rv = t.column("rev_c").to_numpy(zero_copy_only=False)
        if len(rv) == 0:
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "total_revenue_c": pa.array([], pa.int64())})
        keep = rv == rv.max()
        return pa.table({
            "s_suppkey": t.column("s_suppkey").filter(pa.array(keep)),
            "total_revenue_c": pa.array(rv[keep].astype(np.int64)),
        })

    total = exchange.fx_sum_by(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_suppkey", "l_shipdate", "l_extendedprice",
                       "l_discount"]),
        ["s_suppkey"], ["rev_c"], pre=rev_partial)
    cand = pa.concat_tables(_tables(exchange.map_blocks(total.refs,
                                                        local_winners)))
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


def large_orders(sf_dir: str, min_qty_c: int = 25_000) -> ray.data.Dataset:
    """TPC-H Q18-flavor large-volume orders: orders whose TOTAL line
    quantity (integer cents, shared floor(x*100+0.5) row convention)
    exceeds ``min_qty_c``. Returns (o_orderkey, o_orderdate,
    o_orderpriority, sum_qty_c).

    Scale shape: per-block per-order quantity partials shrink the fact
    side before the ONE co-partitioned co-group keyed on orderkey,
    where the order's attributes meet its finished quantity sum; each
    partition emits only its over-threshold rows (the HAVING filter
    runs distributed, the driver never folds)."""

    def qty_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"k": t.column("l_orderkey"),
                      "q": pa.array(_cents(t.column("l_quantity")))})
        agg = g.group_by("k").aggregate([("q", "sum")])
        return pa.table({"okey": agg.column("k"),
                         "qty_c": agg.column("q_sum")})

    def finish(lp: pa.Table, od: pa.Table) -> pa.Table:
        lk = lp.column("okey").to_numpy(zero_copy_only=False)
        lq = lp.column("qty_c").to_numpy(zero_copy_only=False)
        # empty-safe: an order without line items lands here alone
        uk, sums = _sorted_group_reduce(lk, lq.astype(np.int64))
        big = sums > min_qty_c
        ok = od.column("o_orderkey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(uk[big], sums[big], ok)
        sel = od.filter(pa.array(hit))
        return pa.table({
            "o_orderkey": sel.column("o_orderkey"),
            "o_orderdate": sel.column("o_orderdate"),
            "o_orderpriority": sel.column("o_orderpriority"),
            "sum_qty_c": pa.array(mapped[hit]),
        })

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/lineitem.parquet",
                       ["l_orderkey", "l_quantity"]),
         exchange.leaf(f"{sf_dir}/orders.parquet",
                       ["o_orderkey", "o_orderdate", "o_orderpriority"])),
        finish, keys=(["okey"], ["o_orderkey"]),
        pre=(qty_partial, None)).refs)


def nation_market_share(sf_dir: str, nation: str = "NATION_0",
                        year_from: int = 1995, year_to: int = 1997
                        ) -> ray.data.Dataset:
    """TPC-H Q8-flavor market share: per ship year in [year_from,
    year_to), the revenue (integer cents) supplied by ``nation`` next
    to the total — the share itself is the consumer's one division,
    left out so the result stays INTEGER-EXACT against the SQL oracle.
    Returns (l_year, nation_revenue_c, total_revenue_c).

    Scale shape: nation (<=25 rows) resolves to a nationkey driver-side;
    the supplier attach is the shared ``fx_join`` helper
    (``_lines_with_supp_nation``), after which each joined block
    collapses to <= 2 x years partial rows
    ((year, is_target) revenue sums) — the driver folds O(years x
    blocks) four-int rows, no further exchange."""
    import pyarrow.dataset as pads
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
        return pa.table({
            "l_suppkey": t.column("l_suppkey"),
            "yidx": pa.array(_ship_years(t) - year_from),
            "rev_c": pa.array(_rev_cents(t)),
        })

    def line_partial(t: pa.Table) -> pa.Table:
        yi = t.column("yidx").to_numpy(zero_copy_only=False)
        rv = t.column("rev_c").to_numpy(zero_copy_only=False)
        snat = t.column("snat").to_numpy(zero_copy_only=False)
        cell = yi * 2 + (snat == target)
        gi, sums, _ = _int_sum_by(cell, rv)
        return pa.table({"cell": pa.array(gi), "rev_c": pa.array(sums)})

    ship = pads.field("l_shipdate")
    parts = exchange.map_blocks(_lines_with_supp_nation(
        sf_dir, exchange.leaf(
            f"{sf_dir}/lineitem.parquet",
            ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
            filter=(ship >= pa.scalar(lo)) & (ship < pa.scalar(hi))),
        line_project), line_partial)
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


def customer_order_distribution(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q13-flavor double aggregation with LEFT-JOIN semantics:
    the distribution of customers by how many orders they placed —
    including the ZERO-order customers an inner join would drop.
    Returns (n_orders, n_customers).

    Scale shape: orders shrink to per-block per-custkey count partials
    before the ONE co-partitioned co-group keyed on custkey; each
    partition finishes its customers' counts (searchsorted against the
    folded partials, misses = 0) and collapses to an (n_orders,
    n_customers) histogram partial — the driver folds
    O(max_orders_per_customer x P) two-int rows. Neither table is
    broadcast or materialized anywhere."""

    def order_partial(t: pa.Table) -> pa.Table:
        agg = pa.table({"k": t.column("o_custkey")}).group_by("k") \
            .aggregate([("k", "count")])
        return pa.table({"ckey": agg.column("k"),
                         "n": agg.column("k_count").cast(pa.int64())})

    def hist_partial(op: pa.Table, cu: pa.Table) -> pa.Table:
        if cu.num_rows == 0:
            return pa.table({"n_orders": pa.array([], pa.int64()),
                             "n_customers": pa.array([], pa.int64())})
        uk, sums = _sorted_group_reduce(
            op.column("ckey").to_numpy(zero_copy_only=False),
            op.column("n").to_numpy(zero_copy_only=False)
            .astype(np.int64))
        probe = cu.column("c_custkey").to_numpy(zero_copy_only=False)
        mapped, hit = _map_keys(uk, sums, probe)
        counts = np.where(hit, mapped, 0)      # LEFT JOIN: miss -> 0
        un, idx = np.unique(counts, return_inverse=True)
        return pa.table({
            "n_orders": pa.array(un.astype(np.int64)),
            "n_customers": pa.array(np.bincount(
                idx, minlength=len(un)).astype(np.int64)),
        })

    parts = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/orders.parquet", ["o_custkey"]),
         exchange.leaf(f"{sf_dir}/customer.parquet", ["c_custkey"])),
        hist_partial, keys=(["ckey"], ["c_custkey"]),
        pre=(order_partial, None))
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
                        bands: tuple = Q19_BANDS) -> ray.data.Dataset:
    """TPC-H Q19-flavor disjunctive filter-aggregate: total revenue
    (integer cents) plus line count from lineitems matching ANY of the
    ``bands`` — each band a (p_brand, qty_lo, qty_hi inclusive,
    p_size <= max_size) conjunction over BOTH tables' attributes.
    Returns ONE row (revenue_c, n_lines).

    Scale shape: the part side reduces to (partkey, band-bitmask) —
    one int64 per qualifying part whose bit b says 'this part satisfies
    band b's part-attribute half' — and ``fx_join``s the narrow
    (partkey, qty, rev) line triples (broadcast or routed by the part
    leaf's size). The quantity half tests vectorized against the
    bitmask and each joined block emits one two-int partial."""

    def part_side(t: pa.Table) -> pa.Table:
        brand = t.column("p_brand").to_numpy(zero_copy_only=False)
        size = t.column("p_size").to_numpy(zero_copy_only=False)
        mask = np.zeros(len(brand), np.int64)
        for b, (bname, _, _, max_size) in enumerate(bands):
            mask |= ((brand == bname) & (size <= max_size)) << b
        keep = mask != 0             # only qualifying parts join at all
        return pa.table({
            "pkey": t.column("p_partkey").filter(pa.array(keep)),
            "mask": pa.array(mask[keep]),
        })

    def line_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "pkey": t.column("l_partkey"),
            "qty": t.column("l_quantity").cast(pa.float64()),
            "rev_c": pa.array(_rev_cents(t)),
        })

    def band_fold(t: pa.Table) -> pa.Table:
        qty = t.column("qty").to_numpy(zero_copy_only=False)
        mask = t.column("mask").to_numpy(zero_copy_only=False)
        hit = np.zeros(len(qty), bool)
        for b, (_, q_lo, q_hi, _) in enumerate(bands):
            hit |= ((mask >> b) & 1).astype(bool) \
                & (qty >= q_lo) & (qty <= q_hi)
        rev = t.column("rev_c").to_numpy(zero_copy_only=False)
        return pa.table({
            "revenue_c": pa.array([int(rev[hit].sum())], pa.int64()),
            "n_lines": pa.array([int(hit.sum())], pa.int64()),
        })

    parts = exchange.map_blocks(exchange.fx_join(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_partkey", "l_quantity", "l_extendedprice",
                       "l_discount"]),
        exchange.leaf(f"{sf_dir}/part.parquet",
                      ["p_partkey", "p_brand", "p_size"]),
        on="pkey", how="inner", pre=(line_side, part_side)).refs,
        band_fold)
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
                          max_orders: int = 3) -> ray.data.Dataset:
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
    threshold-filtered customers in ONE co-partitioned co-group keyed
    on custkey; each partition sums its key's partials with one
    sort+reduceat and collapses straight to (segment, n, sum)
    partials, so the driver folds O(segments x partitions) rows, never
    customers."""
    import pyarrow.dataset as pads

    def bal_partial(t: pa.Table) -> pa.Table:
        b = _cents(t.column("c_acctbal"))
        pos = b[b > 0]
        return pa.table({"s": pa.array([int(pos.sum())]),
                         "n": pa.array([len(pos)])})

    stats = _concat_nonempty(
        exchange.map_blocks(exchange.leaf(f"{sf_dir}/customer.parquet",
                                          ["c_acctbal"]), bal_partial),
        pa.table({"s": pa.array([], pa.int64()),
                  "n": pa.array([], pa.int64())}))
    sum_c = int(stats.column("s").to_numpy().sum())
    n_pos = int(stats.column("n").to_numpy().sum())

    def order_counts(t: pa.Table) -> pa.Table:
        keys, cnt = np.unique(t.column("o_custkey").to_numpy(
            zero_copy_only=False), return_counts=True)
        return pa.table({"c_custkey": pa.array(keys.astype(np.int64)),
                         "n_orders": pa.array(cnt.astype(np.int64))})

    def rich_cust(t: pa.Table) -> pa.Table:
        b = _cents(t.column("c_acctbal"))
        keep = b * n_pos > sum_c
        return pa.table({
            "c_custkey": t.column("c_custkey").filter(pa.array(keep)),
            "c_mktsegment": t.column("c_mktsegment").filter(
                pa.array(keep)),
            "acctbal_c": pa.array(b[keep]),
        })

    def lapsed_rollup(ob: pa.Table, c: pa.Table) -> pa.Table:
        okeys, osums = _sorted_group_reduce(
            ob.column("c_custkey").to_numpy(zero_copy_only=False),
            ob.column("n_orders").to_numpy(
                zero_copy_only=False).astype(np.int64))
        busy = okeys[osums > max_orders]
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

    parts = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/orders.parquet", ["o_custkey"],
                       filter=pads.field("o_orderdate")
                       >= pa.scalar(np.datetime64(since, "us"))),
         exchange.leaf(f"{sf_dir}/customer.parquet",
                       ["c_custkey", "c_mktsegment", "c_acctbal"])),
        lapsed_rollup, keys=["c_custkey"], pre=(order_counts, rich_cust))
    return ray.data.from_arrow(_fold_partials(
        parts, ["c_mktsegment"], ["n_customers", "sum_acctbal_c"],
        pa.table({"c_mktsegment": pa.array([], pa.string()),
                  "n_customers": pa.array([], pa.int64()),
                  "sum_acctbal_c": pa.array([], pa.int64())})))


def important_parts(sf_dir: str, share_denom: int = 2000) -> ray.data.Dataset:
    """TPC-H Q11-flavor important-stock scan: parts whose total
    extended-price value (integer cents) exceeds ``1/share_denom`` of
    the corpus-wide total. Returns (l_partkey, value_c), one row per
    qualifying part. The share test is the INTEGER-EXACT
    cross-multiplication ``value_c * share_denom > total_c``.

    Scale shape: per-block (partkey, value_c) partials via one Arrow
    group_by, ONE exchange keyed on partkey finishes the per-part
    sums; that intermediate
    (#parts rows, far smaller than lineitem) is MATERIALIZED in the
    object store because the global total — a driver scalar folded
    from it — must exist before the distributed filter can stream the
    winners out. No full-input materialization anywhere."""

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "l_partkey": t.column("l_partkey"),
            "value_c": pa.array(_cents(t.column("l_extendedprice"))),
        }).group_by("l_partkey").aggregate([("value_c", "sum")])
        return pa.table({"l_partkey": g.column("l_partkey"),
                         "value_c": g.column("value_c_sum")})

    def finish(g: pa.Table) -> pa.Table:
        keys = g.column("l_partkey").to_numpy(zero_copy_only=False)
        vals = g.column("value_c").to_numpy(
            zero_copy_only=False).astype(np.int64)
        gi, sums = _sorted_group_reduce(keys, vals)
        return pa.table({"l_partkey": pa.array(gi),
                         "value_c": pa.array(sums)})

    sums = exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_partkey", "l_extendedprice"]),
        finish, keys=["l_partkey"], pre=partial).refs
    total_c = sum(t.column("v")[0].as_py() or 0 for t in _tables(
        exchange.map_blocks(sums, lambda t: pa.table(
            {"v": [pc.sum(t.column("value_c")).as_py()]}))))

    def keep(t: pa.Table) -> pa.Table:
        v = t.column("value_c").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(v * share_denom > total_c))

    return ray.data.from_arrow_refs(exchange.map_blocks(sums, keep))


def supplier_count_by_part(sf_dir: str, exclude_brand: str = "Brand#1"
                           ) -> ray.data.Dataset:
    """TPC-H Q16-flavor supplier availability: the number of DISTINCT
    suppliers that ship each (p_brand, p_size) combination, excluding
    ``exclude_brand``. Returns (p_brand, p_size, supplier_cnt).

    Scale shape: lineitem shrinks to per-block DISTINCT (partkey,
    suppkey) pairs before anything moves (one Arrow group_by). The
    part attributes attach in ONE co-partitioned co-group keyed on
    partkey — the excluded brand is filtered at the part read, so its
    pairs drop out as join misses. The per-partition output is the
    partition's DISTINCT (brand, size, suppkey) triples, and the
    SECOND exchange keyed on brand, size counts each group's distinct
    suppliers with one lexsort — the classic two-round distributed
    COUNT(DISTINCT) (pairs never fan out, no all-pairs stage, no
    driver fold)."""
    import pyarrow.dataset as pads

    def pair_partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "pkey": t.column("l_partkey"),
            "skey": t.column("l_suppkey"),
        }).group_by(["pkey", "skey"]).aggregate([])

    def part_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "pkey": t.column("p_partkey"),
            "p_brand": t.column("p_brand"),
            "p_size": t.column("p_size").cast(pa.int64()),
        })

    def attach(pt: pa.Table, ln: pa.Table) -> pa.Table:
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
        return pa.table({
            "p_brand": pt.column("p_brand").take(pa.array(idx)),
            "p_size": pt.column("p_size").take(pa.array(idx)),
            "skey": ln.column("skey"),
        }).group_by(["p_brand", "p_size", "skey"]).aggregate([])

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

    triples = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/part.parquet",
                       ["p_partkey", "p_brand", "p_size"],
                       filter=pads.field("p_brand") != exclude_brand),
         exchange.leaf(f"{sf_dir}/lineitem.parquet",
                       ["l_partkey", "l_suppkey"])),
        attach, keys=["pkey"], pre=(part_side, pair_partial))
    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        triples.refs, count_distinct, keys=["p_brand", "p_size"]).refs)


def promo_revenue_share(sf_dir: str,
                        promo_type: str = "PROMO") -> ray.data.Dataset:
    """TPC-H Q14-flavor promotion effect: per ship (year, month) the
    promo-part revenue, total revenue (both integer cents) and the
    promo share in EXACT integer permille — round-half-up computed as
    ``(2000*promo + total) // (2*total)``, pure int64 so the oracle
    matches without a float division in sight. Returns (l_year,
    l_month, promo_revenue_c, total_revenue_c, promo_permille) —
    bounded at months-in-range rows (TPC-H ships span ~84 months).

    Scale shape: same attach as ``brand_revenue_by_year`` — per-block
    (partkey, month) revenue partials ``fx_join`` the (partkey,
    is_promo) part leaf (broadcast or routed by its size), each joined
    block folds to (month, promo_c, total_c) rows and the driver folds
    O(months x blocks) of them."""

    def part_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "pkey": t.column("p_partkey"),
            "is_promo": pc.equal(t.column("p_type"),
                                 promo_type).cast(pa.int64()),
        })

    def line_side(t: pa.Table) -> pa.Table:
        # sparse (partkey x month) cells: sort+reduceat, not the
        # dense accumulator (see brand_revenue_by_year's note).
        # The month lane is 2^20 wide with a 2^19 offset so the
        # packing survives ship dates in years ~-41700..45641
        # (a 4096 lane would bleed months into the partkey past
        # 2311, silently corrupting the promo flag)
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        sd = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        mcell = sd.astype("datetime64[M]").astype(np.int64)  # since 1970
        cell = pk * (1 << 20) + (mcell + (1 << 19))
        gi, sums = _sorted_group_reduce(cell, _rev_cents(t))
        return pa.table({
            "pkey": pa.array(gi >> 20),
            "mcell": pa.array((gi & ((1 << 20) - 1)) - (1 << 19)),
            "rev_c": pa.array(sums),
        })

    def month_partial(t: pa.Table) -> pa.Table:
        """Fold (month cell, is_promo, rev) rows into one partial —
        sort+reduceat, NOT the dense accumulator: pre-1970 ship dates
        make mcell negative, which a dense np.add.at would wrap."""
        mcell = t.column("mcell").to_numpy(zero_copy_only=False)
        rev = t.column("rev_c").to_numpy(zero_copy_only=False)
        promo = t.column("is_promo").to_numpy(zero_copy_only=False)
        gi, tot = _sorted_group_reduce(mcell, rev)
        _, pro = _sorted_group_reduce(mcell, rev * promo)
        return pa.table({
            "l_year": pa.array(gi // 12 + 1970),
            "l_month": pa.array(gi % 12 + 1),
            "promo_revenue_c": pa.array(pro),
            "total_revenue_c": pa.array(tot),
        })

    parts = exchange.map_blocks(exchange.fx_join(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_partkey", "l_shipdate", "l_extendedprice",
                       "l_discount"]),
        exchange.leaf(f"{sf_dir}/part.parquet", ["p_partkey", "p_type"]),
        on="pkey", how="inner", pre=(line_side, part_side)).refs,
        month_partial)
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


def sole_late_shipper(sf_dir: str) -> ray.data.Dataset:
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

    parts = exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_orderkey", "l_suppkey", "l_shipdate"]),
        per_part, keys=["l_orderkey"])
    return ray.data.from_arrow(_fold_partials(
        parts, ["l_suppkey"], ["n_orders"],
        pa.table({"l_suppkey": pa.array([], pa.int64()),
                  "n_orders": pa.array([], pa.int64())})))


def dominant_supplier_parts(sf_dir: str) -> ray.data.Dataset:
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
        return pa.table({
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

    return ray.data.from_arrow_refs(exchange.file_exchange_map_groups(
        exchange.leaf(f"{sf_dir}/lineitem.parquet",
                      ["l_partkey", "l_suppkey", "l_quantity"]),
        per_part, keys=["pk"], pre=pair_partial).refs)


def parts_bought_together(sf_dir: str, k: int = 20) -> pa.Table:
    """Market-basket co-occurrence: the ``k`` part pairs that appear
    together in the most orders (each order contributes each DISTINCT
    unordered pair once; ties break to the smaller (part_a, part_b)).
    Returns (part_a, part_b, n_orders) with part_a < part_b.

    Scale shape — within-group pair expansion bounded by order size
    (TPC-H orders hold ≤7 lines, so ≤21 pairs/order — the expansion is
    O(lines), never quadratic in the table):

    1. per-block distinct (orderkey, partkey) partials →
       an exchange keyed on orderkey;
    2. per order-partition group: finish the distinct, expand each
       order's pairs VECTORIZED per segment-size class (one
       triu_indices gather per distinct order size — no per-order
       Python loop), fold pair counts locally, and re-key the partials
       keying them on the pair;
    3. per pair-partition group: fold the global pair count and keep
       the partition-local top-k — ≤ k·P candidate rows to the driver,
       which finishes the strict total order (n desc, part_a, part_b).
    """

    def order_part_partial(t: pa.Table) -> pa.Table:
        g = pa.table({
            "ok": t.column("l_orderkey"),
            "pk": t.column("l_partkey"),
        }).group_by(["ok", "pk"]).aggregate([])
        return pa.table({
            "ok": g.column("ok"), "pk": g.column("pk"),
        })

    def expand_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({
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

    cands = exchange.file_exchange_map_groups(
        exchange.file_exchange_map_groups(
            exchange.leaf(f"{sf_dir}/lineitem.parquet",
                          ["l_orderkey", "l_partkey"]),
            expand_pairs, keys=["ok"], pre=order_part_partial).refs,
        topk_per_partition, keys=["pa_", "pb"])
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
                      ptype: str = "STANDARD") -> ray.data.Dataset:
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

    Scale shape: per-block native Arrow group_by collapses lines to
    (partkey, suppkey) min-price partials before anything moves. Part
    eligibility stays ONE co-group keyed on partkey, because its part
    function, the per-part argmin, needs whole part keys. The winners
    then ``fx_join`` the (suppkey, name, nation name) supplier leaf
    (broadcast or routed by its size), so neither table lands on the
    driver; nation (<=25 rows) is a driver-side name map shipped inside
    the supplier side's ``pre``."""
    import pyarrow.dataset as pads
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
        return pa.table({
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

    # co-group keyed on partkey: eligible partkeys meet
    # per-(partkey, suppkey) min-price partials
    def filt_argmin(pt_: pa.Table, ln: pa.Table) -> pa.Table:
        e = np.sort(pt_.column("p_partkey").to_numpy(
            zero_copy_only=False))
        _, hit = _map_keys(e, e, ln.column("pk").to_numpy(
            zero_copy_only=False))
        return argmin_per_part(ln.filter(pa.array(hit)))

    winners = exchange.file_exchange_map_groups(
        (exchange.leaf(f"{sf_dir}/part.parquet", ["p_partkey"],
                       filter=(pads.field("p_size") >= min_size)
                       & (pads.field("p_type") == ptype)),
         exchange.leaf(f"{sf_dir}/lineitem.parquet",
                       ["l_partkey", "l_suppkey", "l_extendedprice"])),
        filt_argmin, keys=(["p_partkey"], ["pk"]),
        pre=(None, pair_partial))

    def supp_side(t: pa.Table) -> pa.Table:
        snat = t.column("s_nationkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "sk": t.column("s_suppkey"),
            "s_name": t.column("s_name").cast(pa.string()),
            "n_name": pa.array(nat_names[snat], pa.string()),
        })

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t.column("pk"),
            "s_suppkey": t.column("sk"),
            "s_name": t.column("s_name"),
            "n_name": t.column("n_name"),
            "min_price_c": t.column("minp_c"),
        })

    # every winner's suppkey exists in supplier by construction
    return ray.data.from_arrow_refs(exchange.map_blocks(exchange.fx_join(
        winners.refs, exchange.leaf(f"{sf_dir}/supplier.parquet",
                                    ["s_suppkey", "s_name", "s_nationkey"]),
        on="sk", how="inner", pre=(None, supp_side)).refs, finish))


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

    empty = pa.table({"week": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "sum_c": pa.array([], pa.int64())})
    pt = _fold_partials(exchange.map_blocks(exchange.leaf(
        f"{sf_dir}/orders.parquet", ["o_orderdate", "o_totalprice"]),
        partial), ["week"], ["n", "sum_c"], empty)
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


def order_lines_join(sf_dir: str) -> ray.data.Dataset:
    """The GENERIC join primitive exercised end-to-end: inner-join
    lineitem to orders on the order key via ``stages.exchange.fx_join``
    (orders broadcast to the lineitem tasks while small, else one
    co-partitioned file exchange in which both move exactly once) and
    return the joined line grain — proof the reusable join
    reproduces SQL join semantics on real tables, not just the
    hand-fused pipelines elsewhere in this module. Money in integer
    cents as everywhere."""

    def conform(t: pa.Table) -> pa.Table:
        q = t.column("l_quantity").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": t.column("l_orderkey"),
            "l_linenumber": t.column("l_linenumber"),
            "qty_c": pa.array(np.floor(q * 100.0 + 0.5)
                              .astype(np.int64)),
        })

    lines = exchange.leaf(f"{sf_dir}/lineitem.parquet",
                          ["l_orderkey", "l_linenumber", "l_quantity"])
    orders = exchange.leaf(f"{sf_dir}/orders.parquet",
                           ["o_orderkey", "o_orderpriority"])
    return ray.data.from_arrow_refs(exchange.fx_join(
        lines, orders, on="o_orderkey", how="inner",
        pre=(conform, None)).refs)


def parts_unsold_in_window(sf_dir: str) -> ray.data.Dataset:
    """fx_join's ANTI mode on real fact tables: parts with NO lineitem
    shipped in 1997-H1 (the slow-mover report). The probe side is the
    filtered fact projection; part (the left/output side) moves once —
    the generic primitive reproducing SQL NOT IN semantics."""

    def conform(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t.column("l_partkey")})

    import pyarrow.dataset as pads
    part = exchange.leaf(f"{sf_dir}/part.parquet", ["p_partkey", "p_brand"])
    sold = exchange.leaf(
        f"{sf_dir}/lineitem.parquet", ["l_partkey", "l_shipdate"],
        filter=((pads.field("l_shipdate")
                 >= pa.scalar(np.datetime64("1997-01-01", "us")))
                & (pads.field("l_shipdate")
                   < pa.scalar(np.datetime64("1997-07-01", "us")))))
    return ray.data.from_arrow_refs(exchange.fx_join(
        part, sold, on="p_partkey", how="anti",
        pre=(None, conform)).refs)


def active_customers_in_window(sf_dir: str) -> ray.data.Dataset:
    """fx_join's SEMI mode: customers with at least one 1997 order
    (IN-subquery semantics, each customer once) — the left table moves
    once, the probe side is the filtered orders key projection."""
    import pyarrow.dataset as pads

    def conform(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": t.column("o_custkey")})

    odate = pads.field("o_orderdate")
    return ray.data.from_arrow_refs(exchange.fx_join(
        exchange.leaf(f"{sf_dir}/customer.parquet",
                      ["c_custkey", "c_mktsegment"]),
        exchange.leaf(f"{sf_dir}/orders.parquet", ["o_custkey"],
                      filter=(odate >= pa.scalar(
                          np.datetime64("1997-01-01", "us")))
                      & (odate < pa.scalar(
                          np.datetime64("1998-01-01", "us")))),
        on="c_custkey", how="semi", pre=(None, conform)).refs)


def orders_region0_left(sf_dir: str) -> ray.data.Dataset:
    """fx_join's LEFT mode with real null rows: every order, annotated
    with its customer key ONLY when that customer sits in region 0
    (nation is a 25-row dimension — folded driver-side into the probe
    filter; the probe ships bare customer keys). Orders outside the
    region carry a null — the outer-join shape the driver's
    order-insensitive hash compare must reproduce."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    keys = nat.filter(pc.equal(nat.column("n_regionkey"), 0)) \
        .column("n_nationkey")

    def conform(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": t.column("c_custkey"),
                         "r0_custkey": t.column("c_custkey")})

    return ray.data.from_arrow_refs(exchange.fx_join(
        exchange.leaf(f"{sf_dir}/orders.parquet",
                      ["o_orderkey", "o_custkey"]),
        exchange.leaf(f"{sf_dir}/customer.parquet", ["c_custkey"],
                      filter=pads.field("c_nationkey").isin(
                          keys.to_pylist())),
        on="o_custkey", how="left", pre=(None, conform)).refs)


def customer_orders_outer(sf_dir: str,
                          min_acctbal: float = 9000.0) -> ray.data.Dataset:
    """fx_join's FULL OUTER mode on real tables: high-balance
    customers FULL OUTER JOIN per-customer order counts — left-only
    rows are rich customers who never ordered (null n_orders),
    right-only rows are every other customer's order history (null
    c_acctbal), key coalesced exactly like SQL FULL OUTER JOIN USING.
    Returns (c_custkey, c_acctbal, n_orders).

    Scale shape: the count side is one stat-driven ``fx_count_by``
    exchange (unbounded custkey domain — never broadcast); the join is
    one more co-partitioned exchange in which both sides move exactly
    once."""
    import pyarrow.dataset as pads

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": t.column("o_custkey"),
                         "n_orders": t.column("n_orders")})

    counts = exchange.fx_count_by(
        exchange.leaf(f"{sf_dir}/orders.parquet", ["o_custkey"]),
        ["o_custkey"], "n_orders")
    return ray.data.from_arrow_refs(exchange.fx_join(
        exchange.leaf(f"{sf_dir}/customer.parquet",
                      ["c_custkey", "c_acctbal"],
                      filter=pads.field("c_acctbal") > float(min_acctbal)),
        counts.refs, on="c_custkey", how="outer",
        pre=(None, rename)).refs)


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
