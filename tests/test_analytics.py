"""Warehouse analytics over the TPC-H-shaped testdata tables:
Ray pipelines vs DuckDB run inline on the same parquet (the same
comparison the driver's correctness gate performs)."""

from __future__ import annotations

import duckdb
import pytest

from aqueduct_core_ray.pipelines import analytics
from aqueduct_core_ray.stages import exchange

SF = "/root/testdata/sf0.001"
# exchange.BROADCAST_BYTES values that make every non-outer fx_join
# with a leaf right side broadcast, and every one route
BROADCAST, ROUTE = 1 << 62, 0


def _under(monkeypatch, nbytes: int, fn, *args, **kw):
    """``fn(*args, **kw)`` as pandas with ``exchange.BROADCAST_BYTES``
    set to ``nbytes``."""
    monkeypatch.setattr(exchange, "BROADCAST_BYTES", nbytes)
    return fn(*args, **kw).to_pandas()


def _duck(sql: str):
    con = duckdb.connect()
    for tb in ("lineitem", "orders", "customer"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    return con.execute(sql).df()


def _canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(sorted(df.columns)).reset_index(drop=True)


def test_pricing_summary_matches_duckdb():
    ry = _canon(analytics.pricing_summary(SF).to_pandas())
    sq = _canon(_duck("""
        SELECT l_returnflag, l_linestatus,
               CAST(sum(floor(l_quantity*100+0.5)) AS BIGINT) AS sum_qty_c,
               CAST(sum(floor(l_extendedprice*100+0.5)) AS BIGINT) AS sum_base_c,
               CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                    AS BIGINT) AS sum_disc_c,
               CAST(sum(floor(l_extendedprice*(1-l_discount)*(1+l_tax)*100+0.5))
                    AS BIGINT) AS sum_charge_c,
               CAST(count(*) AS BIGINT) AS n_lines
        FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus"""))
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    assert len(ry) == 6                      # 3 flags x 2 statuses


def test_top_orders_by_revenue_matches_duckdb():
    ry = _canon(analytics.top_orders_by_revenue(SF).to_pandas())
    sq = _canon(_duck("""
        WITH rev AS (
          SELECT l_orderkey AS o_orderkey,
                 CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                      AS BIGINT) AS revenue_c
          FROM lineitem GROUP BY l_orderkey),
        j AS (
          SELECT o.o_orderkey, o.o_orderdate, o.o_orderpriority, r.revenue_c
          FROM orders o
          JOIN customer c ON o.o_custkey = c.c_custkey
                         AND c.c_mktsegment = 'BUILDING'
          JOIN rev r ON o.o_orderkey = r.o_orderkey)
        SELECT o_orderkey, o_orderdate, o_orderpriority, revenue_c,
               CAST(rk AS BIGINT) AS rk FROM (
          SELECT *, row_number() OVER (ORDER BY revenue_c DESC, o_orderkey)
                    AS rk FROM j)
        WHERE rk <= 10"""))
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    assert len(ry) == 10
    # ranks are a contiguous 1..10 with revenue non-increasing
    byrk = ry.sort_values("rk")
    assert list(byrk["rk"]) == list(range(1, 11))
    assert (byrk["revenue_c"].diff().dropna() <= 0).all()


def test_top_orders_partition_invariance(parts):
    parts(4)
    a = _canon(analytics.top_orders_by_revenue(SF)
               .to_pandas())
    parts(32)
    b = _canon(analytics.top_orders_by_revenue(SF)
               .to_pandas())
    assert a.equals(b)


def test_top_orders_unknown_segment_is_empty():
    out = analytics.top_orders_by_revenue(SF, segment="NOPE").take_all()
    assert out == []


def test_revenue_by_nation_matches_duckdb(parts):
    con = duckdb.connect()
    for tb in ("lineitem", "orders", "customer", "nation", "region"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        SELECT r.r_name, n.n_name,
               CAST(sum(rev.revenue_c) AS BIGINT) AS revenue_c
        FROM (SELECT l_orderkey,
                     CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                          AS BIGINT) AS revenue_c
              FROM lineitem GROUP BY l_orderkey) rev
        JOIN orders o ON o.o_orderkey = rev.l_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY r.r_name, n.n_name""").df())
    ry = _canon(analytics.revenue_by_nation(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    # partition invariance of the co-partitioned join
    parts(5)
    ry2 = _canon(analytics.revenue_by_nation(SF)
                 .to_pandas())
    assert ry.equals(ry2)


def test_revenue_by_part_type_covers_all_types():
    ry = analytics.revenue_by_part_type(SF).to_pandas()
    assert set(ry["p_type"]) == {"ECONOMY", "STANDARD", "LARGE",
                                 "MEDIUM", "SMALL", "PROMO"}
    assert (ry["revenue_c"] > 0).all()


def test_supplier_balance_by_nation_totals():
    con = duckdb.connect()
    con.execute(f"CREATE VIEW supplier AS SELECT * FROM "
                f"read_parquet('{SF}/supplier.parquet')")
    exp_n = con.execute("SELECT count(*) FROM supplier").fetchone()[0]
    ry = analytics.supplier_balance_by_nation(SF).to_pandas()
    assert int(ry["n_suppliers"].sum()) == exp_n


def test_top_customers_by_return_revenue_matches_duckdb(parts):
    con = duckdb.connect()
    for tb in ("lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        WITH rev AS (
          SELECT l_orderkey,
                 CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                      AS BIGINT) AS rev_c
          FROM lineitem WHERE l_returnflag = 'R' GROUP BY l_orderkey),
        cu AS (
          SELECT o.o_custkey, CAST(sum(r.rev_c) AS BIGINT) AS revenue_c
          FROM orders o JOIN rev r ON o.o_orderkey = r.l_orderkey
          GROUP BY o.o_custkey)
        SELECT c.c_custkey, c.c_name, n.n_name, t.revenue_c,
               CAST(t.rk AS BIGINT) AS rk
        FROM (SELECT *, row_number() OVER (
                ORDER BY revenue_c DESC, o_custkey) AS rk FROM cu) t
        JOIN customer c ON t.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        WHERE t.rk <= 20""").df())
    ry = _canon(analytics.top_customers_by_return_revenue(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    # the custkey->customer rollup must be partition-invariant (the
    # second exchange re-keys; a custkey split across partitions would
    # double-count)
    parts(3)
    ry2 = _canon(analytics.top_customers_by_return_revenue(
        SF).to_pandas())
    assert ry.equals(ry2)


def test_top_customers_drops_winners_without_names(tmp_path):
    """A winning custkey with no customer row (or whose nation has no
    row) drops out after ranking, as in the SQL's inner joins; a point
    read that finds no customer at all gives an empty result."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    d = tmp_path / "sf"
    d.mkdir()
    # order -> customer: 99 has no customer row, 2's nation 7 has no
    # nation row; revenue ranks 99 > 1 > 2 > 3
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "l_extendedprice": pa.array([30.0, 40.0, 20.0, 10.0]),
        "l_discount": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["R"] * 4),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_custkey": pa.array([1, 99, 2, 3], pa.int64()),
    }), str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_name": pa.array(["a", "b", "c"]),
        "c_nationkey": pa.array([0, 7, 1], pa.int64()),
    }), str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": pa.array(["N0", "N1"]),
    }), str(d / "nation.parquet"))
    ry = analytics.top_customers_by_return_revenue(str(d)).to_pandas()
    assert ry.to_dict("list") == {
        "c_custkey": [1, 3], "c_name": ["a", "c"], "n_name": ["N0", "N1"],
        "revenue_c": [3000, 1000], "rk": [2, 4]}
    assert analytics.top_customers_by_return_revenue(
        str(d), k=1).count() == 0


def test_customers_without_orders_anti_join(parts):
    con = duckdb.connect()
    for tb in ("orders", "customer"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        SELECT c_custkey, c_name,
               CAST(floor(c_acctbal*100+0.5) AS BIGINT) AS acctbal_c
        FROM customer
        WHERE c_custkey NOT IN (
          SELECT o_custkey FROM orders
          WHERE o_orderdate >= TIMESTAMP '2000-01-01')""").df())
    ry = _canon(analytics.customers_without_orders(SF).to_pandas())
    assert len(ry) > 0                       # non-trivial on testdata
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    parts(5)
    ry2 = _canon(analytics.customers_without_orders(
        SF).to_pandas())
    assert ry.equals(ry2)


def test_customers_without_orders_all_buyers_is_empty():
    # with the cutoff at the data's start, every customer has an order:
    # the anti side must be EXACTLY empty (no false survivors)
    out = analytics.customers_without_orders(
        SF, since="1995-01-01").take_all()
    assert out == []


def test_small_quantity_revenue_matches_duckdb(parts):
    sq = _duck("""
        WITH a AS (
          SELECT l_partkey, CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(floor(l_quantity*100+0.5)) AS BIGINT)
                   AS sum_qty_c
          FROM lineitem GROUP BY l_partkey)
        SELECT CAST(coalesce(sum(floor(l.l_extendedprice*100+0.5)), 0)
                    AS BIGINT) AS revenue_c,
               CAST(count(*) AS BIGINT) AS n_lines
        FROM lineitem l JOIN a ON l.l_partkey = a.l_partkey
        WHERE 5 * CAST(floor(l.l_quantity*100+0.5) AS BIGINT) * a.n
              < a.sum_qty_c""")
    ry = analytics.small_quantity_revenue(SF).to_pandas()
    assert len(ry) == 1
    assert int(ry["revenue_c"][0]) == int(sq["revenue_c"][0])
    assert int(ry["n_lines"][0]) == int(sq["n_lines"][0])
    assert int(ry["n_lines"][0]) > 0           # non-trivial on testdata
    # partition invariance: a partkey split across partitions would see
    # a partial average and mis-filter
    parts(3)
    ry2 = analytics.small_quantity_revenue(SF).to_pandas()
    assert ry.equals(ry2)


def test_pricing_rollup_matches_duckdb():
    sq = _canon(_duck("""
        SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
               coalesce(l_linestatus, 'ALL') AS l_linestatus,
               CAST(sum(floor(l_quantity*100+0.5)) AS BIGINT) AS sum_qty_c,
               CAST(sum(floor(l_extendedprice*100+0.5)) AS BIGINT)
                 AS sum_base_c,
               CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                 AS BIGINT) AS sum_disc_c,
               CAST(sum(floor(l_extendedprice*(1-l_discount)*(1+l_tax)
                 *100+0.5)) AS BIGINT) AS sum_charge_c,
               CAST(count(*) AS BIGINT) AS n_lines
        FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY ROLLUP(l_returnflag, l_linestatus)"""))
    ry = _canon(analytics.pricing_rollup(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    # 6 leaf + 3 per-flag + 1 grand total
    assert len(ry) == 10


def test_cents_convention_matches_duckdb_property():
    """The load-bearing cross-engine convention: numpy's
    floor(x*100+0.5) must equal DuckDB's for ARBITRARY float64 money
    values — including binary-float edge cases like 0.285 (which is
    really 0.2849999...) — because every money oracle replays this
    exact expression."""
    import numpy as np
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from aqueduct_core_ray.pipelines.analytics import _cents

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        st.decimals(min_value=0, max_value=100000, places=3)
        .map(float)), min_size=1, max_size=50))
    def check(vals):
        import pandas as pd
        con = duckdb.connect()
        df = pd.DataFrame({"x": np.asarray(vals, np.float64)})
        want = con.execute(
            "SELECT CAST(floor(x*100+0.5) AS BIGINT) AS c FROM df"
        ).df()["c"].to_numpy()
        got = _cents(pa.array(np.asarray(vals, np.float64)))
        assert (got == want).all(), (vals, got, want)

    check()


def test_small_quantity_revenue_random_property(tmp_path, parts):
    """Randomized e2e: tiny random lineitem tables (duplicate parts,
    single-line parts, rounding-edge quantities) through the real Ray
    pipeline vs DuckDB, at a partition count that forces co-location."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(123)
    for trial in range(3):
        n = int(rng.integers(1, 60))
        t = pa.table({
            "l_partkey": pa.array(rng.integers(1, 8, n), pa.int64()),
            "l_quantity": pa.array(
                np.round(rng.uniform(0.0, 50.0, n), 3)),
            "l_extendedprice": pa.array(
                np.round(rng.uniform(1.0, 9999.0, n), 2)),
        })
        d = tmp_path / f"sf{trial}"
        d.mkdir()
        pq.write_table(t, str(d / "lineitem.parquet"))
        con = duckdb.connect()
        con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                    f"read_parquet('{d}/lineitem.parquet')")
        sq = con.execute("""
            WITH a AS (
              SELECT l_partkey, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(floor(l_quantity*100+0.5)) AS BIGINT)
                       AS sum_qty_c
              FROM lineitem GROUP BY l_partkey)
            SELECT CAST(coalesce(sum(floor(l.l_extendedprice*100+0.5)),
                        0) AS BIGINT) AS revenue_c,
                   CAST(count(*) AS BIGINT) AS n_lines
            FROM lineitem l JOIN a ON l.l_partkey = a.l_partkey
            WHERE 5 * CAST(floor(l.l_quantity*100+0.5) AS BIGINT) * a.n
                  < a.sum_qty_c""").df()
        parts(3)
        ry = analytics.small_quantity_revenue(
            str(d)).to_pandas()
        assert int(ry["revenue_c"][0]) == int(sq["revenue_c"][0]), trial
        assert int(ry["n_lines"][0]) == int(sq["n_lines"][0]), trial


def test_pricing_rollup_empty_input_matches_rollup_semantics(tmp_path):
    """All lines outside the date window: SQL ROLLUP still emits ONE
    grand-total row with NULL sums and count 0 — so must we."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({
        "l_returnflag": pa.array(["N"]),
        "l_linestatus": pa.array(["O"]),
        "l_quantity": pa.array([1.0]),
        "l_extendedprice": pa.array([10.0]),
        "l_discount": pa.array([0.0]),
        "l_tax": pa.array([0.0]),
        "l_shipdate": pa.array([np.datetime64("1999-01-01", "us")]),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "lineitem.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{d}/lineitem.parquet')")
    sq = con.execute("""
        SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
               coalesce(l_linestatus, 'ALL') AS l_linestatus,
               CAST(sum(floor(l_quantity*100+0.5)) AS BIGINT) AS sum_qty_c,
               CAST(count(*) AS BIGINT) AS n_lines
        FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY ROLLUP(l_returnflag, l_linestatus)""").df()
    ry = analytics.pricing_rollup(str(d)).to_pandas()
    assert len(ry) == len(sq) == 1
    assert ry["l_returnflag"][0] == "ALL"
    assert int(ry["n_lines"][0]) == 0
    import pandas as pd
    assert pd.isna(ry["sum_qty_c"][0]) and pd.isna(sq["sum_qty_c"][0])


def test_broadcast_gate_path_equivalence(monkeypatch):
    """fx_join's two strategies for the customer attach (broadcast vs
    co-partitioned exchange) must produce identical tables: force both
    on the same input by setting ``exchange.BROADCAST_BYTES`` to
    'always broadcast' (huge) and 'never broadcast' (0)."""
    for fn in (analytics.top_orders_by_revenue,
               analytics.revenue_by_nation):
        bc = _canon(_under(monkeypatch, BROADCAST, fn, SF))
        ex = _canon(_under(monkeypatch, ROUTE, fn, SF))
        assert bc.equals(ex), fn.__name__


def test_priority_wait_orders_matches_duckdb(parts):
    sq = _canon(_duck("""
        SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
        FROM orders o
        WHERE o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate <  TIMESTAMP '1996-07-01'
          AND EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_shipdate >=
                            o.o_orderdate + INTERVAL 90 DAY)
        GROUP BY o_orderpriority"""))
    ry = _canon(analytics.priority_wait_orders(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    # partition invariance of the union-tag exchange
    parts(3)
    ry2 = _canon(analytics.priority_wait_orders(SF)
                 .to_pandas())
    assert ry.equals(ry2)


def test_ship_delay_priority_matches_duckdb(parts):
    sq = _canon(_duck("""
        SELECT CASE WHEN d < 30 THEN 'FAST'
                    WHEN d < 60 THEN 'NORMAL'
                    ELSE 'SLOW' END AS delay_band,
               CAST(sum(CASE WHEN o_orderpriority IN
                        ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END)
                    AS BIGINT) AS high_line_count,
               CAST(sum(CASE WHEN o_orderpriority IN
                        ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END)
                    AS BIGINT) AS low_line_count
        FROM (SELECT date_diff('day', o_orderdate, l_shipdate) AS d,
                     o_orderpriority
              FROM lineitem JOIN orders ON l_orderkey = o_orderkey
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate <  TIMESTAMP '1997-01-01')
        GROUP BY 1"""))
    ry = _canon(analytics.ship_delay_priority(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    # band totals conserve the windowed line count
    n = _duck("""SELECT CAST(count(*) AS BIGINT) AS n FROM lineitem
                 JOIN orders ON l_orderkey = o_orderkey
                 WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                   AND l_shipdate <  TIMESTAMP '1997-01-01'""")["n"][0]
    assert int((ry["high_line_count"] + ry["low_line_count"]).sum()) == n
    parts(3)
    ry2 = _canon(analytics.ship_delay_priority(SF)
                 .to_pandas())
    assert ry.equals(ry2)


def test_volume_shipping_matches_duckdb_both_paths(parts, monkeypatch):
    con = duckdb.connect()
    for tb in ("lineitem", "orders", "customer", "supplier", "nation"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
               CAST(year(l_shipdate) AS BIGINT) AS l_year,
               CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                    AS BIGINT) AS revenue_c
        FROM lineitem
        JOIN supplier s ON l_suppkey = s_suppkey
        JOIN nation ns ON s.s_nationkey = ns.n_nationkey
        JOIN orders o ON l_orderkey = o_orderkey
        JOIN customer c ON o_custkey = c_custkey
        JOIN nation nc ON c.c_nationkey = nc.n_nationkey
        WHERE l_shipdate >= TIMESTAMP '1995-01-01'
          AND l_shipdate <  TIMESTAMP '1997-01-01'
        GROUP BY 1, 2, 3""").df())
    # both fx_join strategies (broadcast vs co-partitioned exchange)
    bc = _canon(_under(monkeypatch, BROADCAST, analytics.volume_shipping, SF))
    ex = _canon(_under(monkeypatch, ROUTE, analytics.volume_shipping, SF))
    assert sq.equals(bc.astype(sq.dtypes.to_dict()))
    assert bc.equals(ex)
    # partition invariance
    parts(5)
    p5 = _canon(analytics.volume_shipping(SF)
                .to_pandas())
    assert bc.equals(p5)


def test_brand_revenue_by_year_matches_duckdb_both_paths(monkeypatch):
    con = duckdb.connect()
    for tb in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        SELECT p_brand, CAST(year(l_shipdate) AS BIGINT) AS l_year,
               CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                    AS BIGINT) AS revenue_c
        FROM lineitem JOIN part ON l_partkey = p_partkey
        GROUP BY 1, 2""").df())
    bc = _canon(_under(monkeypatch, BROADCAST,
                       analytics.brand_revenue_by_year, SF))
    ex = _canon(_under(monkeypatch, ROUTE,
                       analytics.brand_revenue_by_year, SF))
    assert sq.equals(bc.astype(sq.dtypes.to_dict()))
    assert bc.equals(ex)


def test_discount_revenue_delta_matches_duckdb():
    sq = _duck("""
        SELECT CAST(sum(floor(l_extendedprice*l_discount*100+0.5))
                    AS BIGINT) AS promo_revenue_c,
               CAST(count(*) AS BIGINT) AS n_lines
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate <  TIMESTAMP '1997-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24""")
    ry = analytics.discount_revenue_delta(SF).to_pandas()
    assert int(ry["promo_revenue_c"][0]) == int(sq["promo_revenue_c"][0])
    assert int(ry["n_lines"][0]) == int(sq["n_lines"][0])
    # empty window: SQL sum() is NULL over zero rows — engine mirrors
    import pandas as pd
    e = analytics.discount_revenue_delta(
        SF, date_from="2050-01-01", date_to="2051-01-01").to_pandas()
    assert int(e["n_lines"][0]) == 0 and pd.isna(e["promo_revenue_c"][0])


def test_top_supplier_by_revenue_matches_duckdb():
    con = duckdb.connect()
    for tb in ("lineitem", "supplier"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        WITH r AS (
          SELECT l_suppkey AS s_suppkey,
                 CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                      AS BIGINT) AS total_revenue_c
          FROM lineitem
          WHERE l_shipdate >= TIMESTAMP '1996-01-01'
            AND l_shipdate <  TIMESTAMP '1996-04-01'
          GROUP BY 1)
        SELECT s.s_suppkey, s.s_name, r.total_revenue_c
        FROM supplier s JOIN r USING (s_suppkey)
        WHERE r.total_revenue_c =
              (SELECT max(total_revenue_c) FROM r)""").df())
    ry = _canon(analytics.top_supplier_by_revenue(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))


def test_top_supplier_returns_all_ties(tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    d = tmp_path / "sf"
    d.mkdir()
    ship = np.datetime64("1996-02-01", "us")
    # suppliers 1 and 2 tie at 20.00, supplier 3 trails
    pq.write_table(pa.table({
        "l_suppkey": pa.array([1, 1, 2, 3], pa.int64()),
        "l_shipdate": pa.array([ship] * 4),
        "l_extendedprice": pa.array([10.0, 10.0, 20.0, 5.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0]),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["a", "b", "c"]),
    }), str(d / "supplier.parquet"))
    ry = analytics.top_supplier_by_revenue(str(d)).to_pandas()
    assert sorted(ry["s_suppkey"]) == [1, 2]
    assert (ry["total_revenue_c"] == 2000).all()


def test_large_orders_matches_duckdb(parts):
    sq = _canon(_duck("""
        SELECT o_orderkey, o_orderdate, o_orderpriority,
               CAST(q AS BIGINT) AS sum_qty_c
        FROM (SELECT l_orderkey, sum(floor(l_quantity*100+0.5)) AS q
              FROM lineitem GROUP BY 1) l
        JOIN orders ON o_orderkey = l_orderkey
        WHERE q > 25000"""))
    ry = _canon(analytics.large_orders(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    parts(3)
    ry2 = _canon(analytics.large_orders(SF).to_pandas())
    assert ry.equals(ry2)


def test_nation_market_share_matches_duckdb_both_paths(monkeypatch):
    con = duckdb.connect()
    for tb in ("lineitem", "supplier", "nation"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        SELECT CAST(year(l_shipdate) AS BIGINT) AS l_year,
               CAST(sum(CASE WHEN n_name = 'NATION_0'
                        THEN floor(l_extendedprice*(1-l_discount)*100+0.5)
                        ELSE 0 END) AS BIGINT) AS nation_revenue_c,
               CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                    AS BIGINT) AS total_revenue_c
        FROM lineitem
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        WHERE l_shipdate >= TIMESTAMP '1995-01-01'
          AND l_shipdate <  TIMESTAMP '1997-01-01'
        GROUP BY 1""").df())
    bc = _canon(_under(monkeypatch, BROADCAST,
                       analytics.nation_market_share, SF))
    ex = _canon(_under(monkeypatch, ROUTE, analytics.nation_market_share, SF))
    assert sq.equals(bc.astype(sq.dtypes.to_dict()))
    assert bc.equals(ex)
    with pytest.raises(ValueError):
        analytics.nation_market_share(SF, nation="NOPE")


def test_empty_exchange_groups_do_not_crash(tmp_path, monkeypatch):
    """Regression: the sort+reduceat group kernel must be empty-safe —
    a window filtering out every line (exchange path), and orders whose
    keys have no line items, previously raised IndexError."""
    # empty ship window, every join routed
    out = _under(monkeypatch, ROUTE,
                 analytics.volume_shipping, SF, year_from=2050, year_to=2051)
    assert len(out) == 0
    # order without line items: engine matches the oracle's inner join
    import pyarrow as pa
    import pyarrow.parquet as pq
    import numpy as np
    d = tmp_path / "sf"
    d.mkdir()
    ship = np.datetime64("1996-02-01", "us")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1], pa.int64()),
        "l_quantity": pa.array([200.0, 100.0]),
        "l_shipdate": pa.array([ship] * 2),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_orderdate": pa.array([ship - np.timedelta64(10, "D")] * 2),
        "o_orderpriority": pa.array(["1-URGENT", "3-MEDIUM"]),
    }), str(d / "orders.parquet"))
    lo = analytics.large_orders(str(d), min_qty_c=25_000).to_pandas()
    assert list(lo["o_orderkey"]) == [1]
    assert int(lo["sum_qty_c"][0]) == 30000
    pw = analytics.priority_wait_orders(
        str(d), date_from="1996-01-01", date_to="1996-07-01",
        late_days=1).to_pandas()
    assert list(pw["o_orderpriority"]) == ["1-URGENT"]
    assert int(pw["order_count"][0]) == 1


def test_nation_market_share_keeps_zero_total_years(tmp_path):
    """A year whose matched revenue rounds to exactly zero cents still
    appears (SQL GROUP BY emits the 0-total row)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import numpy as np
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "l_suppkey": pa.array([1, 1], pa.int64()),
        "l_shipdate": pa.array([np.datetime64("1995-06-01", "us"),
                                np.datetime64("1996-06-01", "us")]),
        "l_extendedprice": pa.array([10.0, 0.001]),
        "l_discount": pa.array([0.0, 0.0]),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1], pa.int64()),
        "s_nationkey": pa.array([0], pa.int64()),
    }), str(d / "supplier.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0], pa.int64()),
        "n_name": pa.array(["NATION_0"]),
    }), str(d / "nation.parquet"))
    out = (analytics.nation_market_share(str(d)).to_pandas()
           .sort_values("l_year").reset_index(drop=True))
    assert list(out["l_year"]) == [1995, 1996]
    assert list(out["total_revenue_c"]) == [1000, 0]


def test_customer_order_distribution_matches_duckdb(parts):
    sq = _canon(_duck("""
        SELECT n_orders, CAST(count(*) AS BIGINT) AS n_customers
        FROM (SELECT c_custkey,
                     CAST(count(o_orderkey) AS BIGINT) AS n_orders
              FROM customer LEFT JOIN orders ON c_custkey = o_custkey
              GROUP BY 1)
        GROUP BY 1"""))
    ry = _canon(analytics.customer_order_distribution(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    parts(3)
    ry2 = _canon(analytics.customer_order_distribution(
        SF).to_pandas())
    assert ry.equals(ry2)


def test_customer_order_distribution_counts_zero_order_customers(
        tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64())}),
        str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1], pa.int64())}),
        str(d / "orders.parquet"))
    ry = (analytics.customer_order_distribution(str(d)).to_pandas()
          .sort_values("n_orders").reset_index(drop=True))
    assert list(ry["n_orders"]) == [0, 2]
    assert list(ry["n_customers"]) == [2, 1]


def test_banded_part_revenue_matches_duckdb_both_paths(monkeypatch):
    import pandas as pd
    con = duckdb.connect()
    for tb in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = con.execute("""
        SELECT CAST(sum(floor(l_extendedprice*(1-l_discount)*100+0.5))
                    AS BIGINT) AS revenue_c,
               CAST(count(*) AS BIGINT) AS n_lines
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE (p_brand = 'Brand#1' AND p_size <= 5
               AND l_quantity BETWEEN 1 AND 11)
           OR (p_brand = 'Brand#2' AND p_size <= 10
               AND l_quantity BETWEEN 10 AND 20)
           OR (p_brand = 'Brand#3' AND p_size <= 15
               AND l_quantity BETWEEN 20 AND 30)""").df()
    for thresh in (BROADCAST, ROUTE):
        ry = _under(monkeypatch, thresh, analytics.banded_part_revenue, SF)
        assert int(ry["n_lines"][0]) == int(sq["n_lines"][0])
        if int(sq["n_lines"][0]):
            assert int(ry["revenue_c"][0]) == int(sq["revenue_c"][0])
        else:
            assert pd.isna(ry["revenue_c"][0])
    assert int(sq["n_lines"][0]) > 0      # bands actually select lines


def test_lapsed_rich_customers_matches_duckdb(parts):
    ry = _canon(analytics.lapsed_rich_customers(SF).to_pandas())
    sq = _canon(_duck("""
        WITH pos AS (
          SELECT CAST(floor(c_acctbal*100+0.5) AS BIGINT) AS b,
                 c_custkey, c_mktsegment
          FROM customer),
        stats AS (SELECT sum(b) AS s, count(*) AS n FROM pos WHERE b > 0),
        act AS (SELECT o_custkey, count(*) AS n_orders FROM orders
                WHERE o_orderdate >= TIMESTAMP '1998-01-01' GROUP BY 1),
        sel AS (SELECT p.* FROM pos p
                LEFT JOIN act a ON p.c_custkey = a.o_custkey, stats
                WHERE p.b * stats.n > stats.s
                  AND coalesce(a.n_orders, 0) <= 3)
        SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_customers,
               CAST(sum(b) AS BIGINT) AS sum_acctbal_c
        FROM sel GROUP BY 1"""))
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    assert int(ry["n_customers"].sum()) > 0   # threshold actually selects
    # partition invariance: a customer split from its order partials
    # would dodge the activity test
    parts(3)
    ry2 = _canon(analytics.lapsed_rich_customers(
        SF).to_pandas())
    assert ry.equals(ry2)


def test_important_parts_matches_duckdb():
    ry = _canon(analytics.important_parts(SF).to_pandas())
    sq = _canon(_duck("""
        WITH s AS (SELECT l_partkey,
                          CAST(sum(floor(l_extendedprice*100+0.5))
                               AS BIGINT) AS value_c
                   FROM lineitem GROUP BY 1),
        t AS (SELECT sum(value_c) AS total FROM s)
        SELECT l_partkey, value_c FROM s, t
        WHERE value_c * 2000 > t.total"""))
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    # a tight share keeps only genuinely heavy parts (non-trivial both ways)
    heavy = _canon(analytics.important_parts(SF, share_denom=150)
                   .to_pandas())
    assert 0 < len(heavy) < len(ry)


def test_supplier_count_by_part_matches_duckdb(parts):
    con = duckdb.connect()
    for tb in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        SELECT p_brand, CAST(p_size AS BIGINT) AS p_size,
               CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE p_brand <> 'Brand#1'
        GROUP BY 1, 2""").df())
    ry = _canon(analytics.supplier_count_by_part(SF).to_pandas())
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    assert "Brand#1" not in set(ry["p_brand"])
    # the two-exchange distinct count must be partition-invariant (a
    # supplier counted in two partkey partitions would double)
    parts(3)
    ry2 = _canon(analytics.supplier_count_by_part(
        SF).to_pandas())
    assert ry.equals(ry2)


def test_promo_revenue_share_matches_duckdb_both_paths(monkeypatch):
    con = duckdb.connect()
    for tb in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{SF}/{tb}.parquet')")
    sq = _canon(con.execute("""
        WITH l AS (
          SELECT CAST(year(l_shipdate) AS BIGINT) AS l_year,
                 CAST(month(l_shipdate) AS BIGINT) AS l_month,
                 CAST(floor(l_extendedprice * (1 - l_discount) * 100
                            + 0.5) AS BIGINT) AS rev_c,
                 CASE WHEN p.p_type = 'PROMO' THEN 1 ELSE 0 END AS promo
          FROM lineitem JOIN part p ON l_partkey = p.p_partkey)
        SELECT l_year, l_month,
               CAST(sum(rev_c * promo) AS BIGINT) AS promo_revenue_c,
               CAST(sum(rev_c) AS BIGINT) AS total_revenue_c,
               CAST((2000 * sum(rev_c * promo) + sum(rev_c))
                    // (2 * sum(rev_c)) AS BIGINT) AS promo_permille
        FROM l GROUP BY 1, 2""").df())
    bc = _canon(_under(monkeypatch, BROADCAST,
                       analytics.promo_revenue_share, SF))
    ex = _canon(_under(monkeypatch, ROUTE, analytics.promo_revenue_share, SF))
    assert bc.equals(sq.astype(bc.dtypes.to_dict()))
    assert bc.equals(ex)
    # shares are permille by construction
    assert (bc["promo_permille"] >= 0).all()
    assert (bc["promo_permille"] <= 1000).all()
    assert (bc["promo_revenue_c"] <= bc["total_revenue_c"]).all()


def test_sole_late_shipper_matches_duckdb(parts):
    sq = _canon(_duck("""
        WITH mx AS (
          SELECT l_orderkey, max(l_shipdate) AS mx_date,
                 count(DISTINCT l_suppkey) AS n_supp
          FROM lineitem GROUP BY 1),
        w AS (
          SELECT m.l_orderkey, min(l.l_suppkey) AS lo,
                 max(l.l_suppkey) AS hi
          FROM mx m JOIN lineitem l
            ON l.l_orderkey = m.l_orderkey
           AND l.l_shipdate = m.mx_date
          WHERE m.n_supp >= 2 GROUP BY 1)
        SELECT CAST(lo AS BIGINT) AS l_suppkey,
               CAST(count(*) AS BIGINT) AS n_orders
        FROM w WHERE lo = hi GROUP BY 1"""))
    ry = _canon(analytics.sole_late_shipper(SF).to_pandas())
    assert ry.equals(sq.astype(ry.dtypes.to_dict()))
    # an order credits at most one supplier: total credited orders
    # can never exceed the multi-supplier order count
    n_multi = _duck("""
        SELECT count(*) AS n FROM (
          SELECT l_orderkey FROM lineitem GROUP BY 1
          HAVING count(DISTINCT l_suppkey) >= 2)""")["n"][0]
    assert int(ry["n_orders"].sum()) <= int(n_multi)
    # partition invariance: split orders across fewer partitions
    parts(3)
    ry3 = _canon(analytics.sole_late_shipper(
        SF).to_pandas())
    assert ry.equals(ry3)


def test_promo_revenue_share_extreme_dates_and_zero_months(tmp_path,
                                                           monkeypatch):
    """Adversarial inputs for both join strategies: pre-1970 and far-future
    ship dates (the exchange path's packed cell must not bleed months
    into the partkey; the partial fold must not wrap negative cells)
    and a month whose every revenue rounds to 0 cents (share is NULL,
    like SQL's integer division by zero)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_type": pa.array(["PROMO", "STANDARD"]),
    }), str(d / "part.parquet"))
    ship = np.array(["1969-12-15", "1969-12-20", "2400-06-01",
                     "2400-06-02", "1996-03-01"], dtype="datetime64[us]")
    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 1, 2, 1], pa.int64()),
        "l_shipdate": pa.array(ship),
        # the 1996-03 line rounds to 0 cents -> NULL share month
        "l_extendedprice": pa.array([100.0, 50.0, 20.0, 80.0, 0.004]),
        "l_discount": pa.array([0.0, 0.1, 0.0, 0.0, 0.0]),
    }), str(d / "lineitem.parquet"))

    con = duckdb.connect()
    for tb in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {tb} AS SELECT * FROM "
                    f"read_parquet('{d}/{tb}.parquet')")
    sq = _canon(con.execute("""
        WITH l AS (
          SELECT CAST(year(l_shipdate) AS BIGINT) AS l_year,
                 CAST(month(l_shipdate) AS BIGINT) AS l_month,
                 CAST(floor(l_extendedprice * (1 - l_discount) * 100
                            + 0.5) AS BIGINT) AS rev_c,
                 CASE WHEN p.p_type = 'PROMO' THEN 1 ELSE 0 END AS promo
          FROM lineitem JOIN part p ON l_partkey = p.p_partkey)
        SELECT l_year, l_month,
               CAST(sum(rev_c * promo) AS BIGINT) AS promo_revenue_c,
               CAST(sum(rev_c) AS BIGINT) AS total_revenue_c,
               CAST((2000 * sum(rev_c * promo) + sum(rev_c))
                    // (2 * sum(rev_c)) AS BIGINT) AS promo_permille
        FROM l GROUP BY 1, 2""").df())
    bc = _canon(_under(monkeypatch, BROADCAST,
                       analytics.promo_revenue_share, str(d)))
    ex = _canon(_under(monkeypatch, ROUTE,
                       analytics.promo_revenue_share, str(d)))
    assert bc.equals(sq.astype(bc.dtypes.to_dict()))
    assert bc.equals(ex)
    # the zero-cent month exists with a NULL share
    z = bc[(bc["l_year"] == 1996) & (bc["l_month"] == 3)]
    assert len(z) == 1 and z["promo_permille"].isna().all()
    assert 1969 in set(bc["l_year"]) and 2400 in set(bc["l_year"])


def test_dominant_supplier_parts_matches_duckdb(parts):
    sq = _canon(_duck("""
        WITH p AS (
          SELECT l_partkey, l_suppkey,
                 sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
                   AS supp_qty_c
          FROM lineitem GROUP BY 1, 2),
        t AS (
          SELECT l_partkey, sum(supp_qty_c) AS part_qty_c
          FROM p GROUP BY 1),
        r AS (
          SELECT p.*, t.part_qty_c,
                 row_number() OVER (
                   PARTITION BY p.l_partkey
                   ORDER BY p.supp_qty_c DESC, p.l_suppkey ASC) AS rn
          FROM p JOIN t USING (l_partkey))
        SELECT CAST(l_partkey AS BIGINT) AS l_partkey,
               CAST(l_suppkey AS BIGINT) AS l_suppkey,
               CAST(supp_qty_c AS BIGINT) AS supp_qty_c,
               CAST(part_qty_c AS BIGINT) AS part_qty_c,
               CAST((2000 * supp_qty_c + part_qty_c)
                    // (2 * part_qty_c) AS BIGINT) AS share_permille,
               CAST(2 * supp_qty_c > part_qty_c AS TINYINT)
                 AS is_majority
        FROM r WHERE rn = 1"""))
    ry = _canon(analytics.dominant_supplier_parts(SF).to_pandas())
    assert ry.equals(sq.astype(ry.dtypes.to_dict()))
    # exactly one row per part
    assert ry["l_partkey"].is_unique
    # partition invariance
    parts(3)
    ry3 = _canon(analytics.dominant_supplier_parts(
        SF).to_pandas())
    assert ry.equals(ry3)


def test_dominant_supplier_parts_ties_and_majority(tmp_path):
    """Synthetic edges: a tie breaks to the smallest suppkey with
    is_majority=0; a strict majority and a sole supplier flag 1; the
    share permille is exact round-half-up integer arithmetic."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        # part 1: s1=6.0 vs s2=4.0 (majority); part 2: s1=5.0 == s2=5.0
        # (tie, no majority); part 3: s7 alone (share 1000)
        "l_partkey": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "l_suppkey": pa.array([1, 2, 1, 2, 1, 7], pa.int64()),
        "l_quantity": pa.array([2.0, 4.0, 4.0, 5.0, 5.0, 3.0]),
    }), str(d / "lineitem.parquet"))
    out = analytics.dominant_supplier_parts(str(d)).to_pandas()
    out = out.sort_values("l_partkey").reset_index(drop=True)
    assert out["l_partkey"].tolist() == [1, 2, 3]
    assert out["l_suppkey"].tolist() == [1, 1, 7]
    assert out["supp_qty_c"].tolist() == [600, 500, 300]
    assert out["part_qty_c"].tolist() == [1000, 1000, 300]
    assert out["share_permille"].tolist() == [600, 500, 1000]
    assert out["is_majority"].tolist() == [1, 0, 1]


def test_parts_bought_together_matches_duckdb(parts):
    sq = _canon(_duck("""
        WITH d AS (
          SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
        p AS (
          SELECT a.l_partkey AS part_a, b.l_partkey AS part_b
          FROM d a JOIN d b
            ON a.l_orderkey = b.l_orderkey
           AND a.l_partkey < b.l_partkey)
        SELECT CAST(part_a AS BIGINT) AS part_a,
               CAST(part_b AS BIGINT) AS part_b,
               CAST(count(*) AS BIGINT) AS n_orders
        FROM p GROUP BY 1, 2
        ORDER BY n_orders DESC, part_a, part_b LIMIT 20"""))
    ry = _canon(analytics.parts_bought_together(SF).to_pandas())
    assert ry.equals(sq.astype(ry.dtypes.to_dict()))
    # partition invariance
    parts(3)
    ry3 = _canon(analytics.parts_bought_together(
        SF).to_pandas())
    assert ry.equals(ry3)


def test_parts_bought_together_dedupes_within_order(tmp_path):
    """An order listing the same part on several lines contributes each
    unordered pair once; single-part orders contribute nothing; the
    pair count is the number of DISTINCT orders."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        # order 1: parts {1,2,2,3} -> pairs (1,2)(1,3)(2,3)
        # order 2: parts {1,2}     -> pair (1,2)
        # order 3: part {9}        -> nothing
        "l_orderkey": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
        "l_partkey": pa.array([1, 2, 2, 3, 2, 1, 9], pa.int64()),
    }), str(d / "lineitem.parquet"))
    out = analytics.parts_bought_together(str(d), k=10).to_pandas()
    got = {(r.part_a, r.part_b): r.n_orders
           for r in out.itertuples(index=False)}
    assert got == {(1, 2): 2, (1, 3): 1, (2, 3): 1}


def test_min_cost_supplier_matches_duckdb_and_gates(monkeypatch):
    """Q2-flavor argmin with tiebreak + dimension attach: oracle match
    at sf0.001 AND both supplier-attach strategies (broadcast vs
    co-partitioned exchange) produce identical tables."""
    con = duckdb.connect()
    sq = _canon(con.execute(f"""
        WITH elig AS (
          SELECT p_partkey FROM read_parquet('{SF}/part.parquet')
          WHERE p_size >= 25 AND p_type = 'STANDARD'),
        pairs AS (
          SELECT l_partkey pk, l_suppkey sk,
                 min(CAST(floor(l_extendedprice*100+0.5) AS BIGINT))
                   AS minp
          FROM read_parquet('{SF}/lineitem.parquet')
          JOIN elig ON p_partkey = l_partkey GROUP BY 1, 2),
        win AS (
          SELECT pk, sk, minp, row_number() OVER (
                   PARTITION BY pk ORDER BY minp, sk) AS rn
          FROM pairs)
        SELECT pk AS p_partkey, sk AS s_suppkey, s_name, n_name,
               minp AS min_price_c
        FROM win
        JOIN read_parquet('{SF}/supplier.parquet') s ON s.s_suppkey = sk
        JOIN read_parquet('{SF}/nation.parquet') n
          ON n.n_nationkey = s.s_nationkey
        WHERE rn = 1""").df())
    bc = _canon(_under(monkeypatch, BROADCAST,
                       analytics.min_cost_supplier, SF))
    ex = _canon(_under(monkeypatch, ROUTE, analytics.min_cost_supplier, SF))
    assert len(bc) == len(sq) > 0
    for col in sq.columns:
        assert list(bc[col]) == list(sq[col]), col
    assert bc.equals(ex)
