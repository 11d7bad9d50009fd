"""Log-view operators and the events-table engine replay, cross-checked
against DuckDB on /root/testdata/sf0.001 — the same oracle SQL the driver
runs at sf0.01 (__ray_entry__.oracle_sql)."""

import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, "/root/repo")

SF = "/root/testdata/sf0.001"
TABLES = ["events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.fixture(scope="module")
def entry():
    import __ray_entry__
    return __ray_entry__


def canon(df: pd.DataFrame) -> list:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    # NaN != NaN under list equality; normalize nulls to None
    return df.astype(object).where(pd.notna(df), None).values.tolist()


@pytest.mark.parametrize("name", [
    "cdc_replay_events", "lww_compaction", "log_scan", "byte_cap_prefix",
    "global_latest_offset", "max_offset_for_types",
    "max_offset_before_hour", "consistency_sum", "count_by_type",
    "routing_semijoin", "source_stats", "derived_source_stats",
    "token_count", "quality_score",
    "fingerprint", "dedup_exact", "knn_bruteforce",
    "tumbling_window", "asof_join_prior", "distinct_users",
    "sessionize", "value_histogram", "schema_evolution_lake",
    "top_tokens_by_source", "hopping_window", "range_join_bands",
])
def test_query_matches_oracle(name, con, entry):
    import pyarrow as pa

    import ray.data
    res = entry.queries()[name](SF)
    if isinstance(res, ray.data.Dataset):
        ours = res.to_pandas()
    elif isinstance(res, pa.Table):
        ours = res.to_pandas()
    else:
        ours = res
    theirs = con.execute(entry.oracle_sql()[name]).df()
    assert sorted(ours.columns) == sorted(theirs.columns)
    assert len(ours) == len(theirs)
    assert canon(ours) == canon(theirs)


def test_hll_accuracy(entry):
    """HLL estimate within 5% of the exact distinct count at p=12
    (expected error ~1.6%; sf0.001 has 150 distinct users/type max)."""
    exact = {r["event_type"]: r["n_users"]
             for r in entry.queries()["distinct_users"](SF).take_all()}
    approx = {r["event_type"]: r["approx_users"]
              for r in entry.queries()["approx_distinct_users"](SF).take_all()}
    assert set(exact) == set(approx)
    for et in exact:
        assert abs(approx[et] - exact[et]) <= max(2, 0.05 * exact[et]), \
            (et, exact[et], approx[et])


def test_entry_smoke(entry):
    ds = entry.entry()
    rows = ds.take_all()
    assert len(rows) == 500                    # sf0.001 documents
    assert {"doc_id", "tokens", "n_tok", "source", "last_lsn"} <= set(rows[0])
    assert all(r["n_tok"] == len(r["tokens"]) for r in rows[:20])


def test_asof_probe_without_build(tmp_path):
    """Regression (round-1 review): a user with probe events but NO build
    events must yield NULL last_prior, not an IndexError."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.pipelines.temporal import asof_join_prior

    base = dt.datetime(2024, 1, 1)
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([base] * 4, pa.timestamp("us")),
        "user_id": pa.array([7, 7, 9, 9], pa.int64()),
        "event_type": pa.array(
            ["purchase", "purchase", "click", "purchase"]),
        "value": pa.array([1.0] * 4),
        "props": pa.array(["{}"] * 4),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "events.parquet"))
    rows = {r["event_id"]: r["last_prior"]
            for r in asof_join_prior(str(d)).take_all()}
    assert rows == {1: None, 2: None, 4: 3}


def test_routing_cache_expiry_and_invalidation():
    """ST2 refresh semantics (ClusterStorage.java:40-65): cached within
    the TTL, reloaded on expiry, reloaded after invalidate() — and the
    cached semi-join returns exactly the closure-capture result."""
    from aqueduct_core_ray.pipelines.log_queries import routing_semijoin
    from aqueduct_core_ray.state.routing import RoutingCache

    now = [0.0]
    cache = RoutingCache(
        loader=lambda: ((1, 3, 5, 7), ("click", "view", "purchase")),
        ttl_s=10.0, clock=lambda: now[0])
    assert cache.loads == 0
    r1, r2 = cache.get(), cache.get()          # within TTL: one load
    assert r1 == r2 and cache.loads == 1
    now[0] = 11.0                              # expiry -> reload
    cache.get()
    assert cache.loads == 2
    cache.invalidate()                         # writer flipped validity
    cache.get()
    assert cache.loads == 3 and cache.version == 3

    plain = routing_semijoin(SF).to_pandas()
    cached = routing_semijoin(SF, cache=cache).to_pandas()
    assert canon(plain) == canon(cached)


def test_approx_quantiles_accuracy(entry, con):
    """Log-binned histogram quantiles within ~2% relative error of the
    exact DuckDB quantile_disc per type."""
    got = {(r["event_type"], r["q"]): r["value"]
           for r in entry.queries()["approx_quantiles"](SF).take_all()}
    # quantile_disc (an actual sample, ceil semantics) matches the
    # sketch's CDF readout; interpolating quantile_cont is
    # ill-conditioned at sf0.001's per-type tail sample sizes
    want = con.execute("""
        SELECT event_type,
               quantile_disc(value, 0.5)  AS q50,
               quantile_disc(value, 0.9)  AS q90,
               quantile_disc(value, 0.99) AS q99
        FROM events GROUP BY event_type""").df()
    for _, row in want.iterrows():
        for q, col in ((0.5, "q50"), (0.9, "q90"), (0.99, "q99")):
            exact = row[col]
            approx = got[(row["event_type"], q)]
            assert abs(approx - exact) <= max(0.02 * exact, 0.02), \
                (row["event_type"], q, exact, approx)


def test_byte_cap_over_budget_first_row(tmp_path):
    """Reference edge (PipeReadControllerBatchIntegrationSpec.groovy:
    49-91): a single over-budget row still ships alone — the batch is
    never empty while the log isn't."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.pipelines.log_queries import byte_cap_prefix

    base = dt.datetime(2024, 1, 1)
    t = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "ts": pa.array([base] * 3, pa.timestamp("us")),
        "user_id": pa.array([1, 2, 3], pa.int64()),
        "event_type": pa.array(["click"] * 3),
        "value": pa.array([1.0] * 3),
        "props": pa.array(["X" * 10_000, "y", "z"]),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "events.parquet"))
    got = sorted(r["event_id"]
                 for r in byte_cap_prefix(str(d), cap=100).take_all())
    assert got == [1]                          # huge first row ships alone


def test_routing_override_remap_through_cache():
    """routing_id override (reference Message.java:14-34,
    PostgresqlStorageIntegrationSpec.groovy:901-922): an override map
    takes precedence over the hash route, and an invalidation-driven
    remap through RoutingCache reroutes the next read."""
    from aqueduct_core_ray.pipelines.log_queries import routing_semijoin
    from aqueduct_core_ray.state.routing import RoutingCache

    base = routing_semijoin(SF).to_pandas()
    users = set(base["user_id"])
    # pick one user currently routed IN and one routed OUT
    uin = min(users)
    import pyarrow.parquet as pq
    all_users = set(pq.read_table(f"{SF}/events.parquet",
                                  columns=["user_id"])
                    .column("user_id").to_pylist())
    uout = min(all_users - users)
    ov = {uin: 0, uout: 1}            # kick uin out, pull uout in
    got = routing_semijoin(SF, overrides=ov).to_pandas()
    assert uin not in set(got["user_id"])
    assert uout in set(got["user_id"])
    # everything else unaffected
    assert (set(base["user_id"]) - {uin}) == (set(got["user_id"]) - {uout})

    # invalidation-driven remap: same cache object, new overrides honored
    # only after invalidate()
    table = {"entry": ((1, 3, 5, 7),
                       ("click", "view", "purchase"), None)}
    cache = RoutingCache(lambda: table["entry"], ttl_s=3600)
    first = routing_semijoin(SF, cache=cache).to_pandas()
    assert set(first["user_id"]) == users
    table["entry"] = ((1, 3, 5, 7), ("click", "view", "purchase"), ov)
    same = routing_semijoin(SF, cache=cache).to_pandas()   # TTL valid
    assert set(same["user_id"]) == users                   # not reloaded
    cache.invalidate()
    remapped = routing_semijoin(SF, cache=cache).to_pandas()
    assert uout in set(remapped["user_id"])
    assert uin not in set(remapped["user_id"])


def test_running_total_matches_duckdb_window(parts):
    from aqueduct_core_ray.pipelines.temporal import running_total
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        SELECT event_id, user_id, ts,
          CAST(floor(value*100+0.5) AS BIGINT) AS value_c,
          CAST(sum(CAST(floor(value*100+0.5) AS BIGINT)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_c
        FROM events""").df()
    ry = running_total(SF).to_pandas()
    cols = sorted(sq.columns)
    sq = sq[cols].sort_values(cols).reset_index(drop=True)
    ry = ry[cols].sort_values(cols).reset_index(drop=True)
    assert sq.equals(ry.astype(sq.dtypes.to_dict()))
    # partition invariance of the user_id hash shuffle
    parts(3)
    ry2 = running_total(SF).to_pandas()
    ry2 = ry2[cols].sort_values(cols).reset_index(drop=True)
    assert ry.equals(ry2)


def test_inter_event_gaps_matches_duckdb(parts):
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import inter_event_gaps

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        WITH o AS (
          SELECT user_id, ts,
                 lag(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
          FROM events)
        SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
               CAST(coalesce(sum(epoch_us(ts) - epoch_us(prev)), 0)
                    AS BIGINT) AS sum_gap_us,
               CAST(coalesce(max(epoch_us(ts) - epoch_us(prev)), 0)
                    AS BIGINT) AS max_gap_us
        FROM o GROUP BY user_id""").df()
    ry = inter_event_gaps(SF).to_pandas()
    a = sq.sort_values("user_id").reset_index(drop=True)
    b = ry.sort_values("user_id").reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    # partition invariance: each user's history must be co-located
    parts(3)
    ry2 = inter_event_gaps(SF).to_pandas()
    b2 = ry2.sort_values("user_id").reset_index(drop=True)[a.columns]
    assert b.equals(b2)


def test_exact_quantiles_matches_duckdb():
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import exact_quantiles_by_type

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        SELECT event_type,
               unnest([0.25, 0.5, 0.9, 0.99]) AS q,
               unnest(quantile_disc(
                   CAST(floor(value * 100 + 0.5) AS BIGINT),
                   [0.25, 0.5, 0.9, 0.99])) AS value_c
        FROM events GROUP BY event_type""").df()
    ry = exact_quantiles_by_type(SF).to_pandas()
    key = ["event_type", "q"]
    a = sq.sort_values(key).reset_index(drop=True)
    b = ry.sort_values(key).reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    # exact-vs-approx sanity: the log-binned sketch's p50 (dollars)
    # must sit within a 5% band of the exact answer
    from aqueduct_core_ray.pipelines.temporal import (
        approx_quantiles_by_type)
    ap = approx_quantiles_by_type(SF).to_pandas()
    m = b[b["q"] == 0.5].merge(ap[ap["q"] == 0.5], on="event_type")
    assert len(m) > 0
    exact_dollars = m["value_c"] / 100.0
    rel = (m["value"] - exact_dollars).abs() / exact_dollars.clip(lower=0.01)
    assert (rel <= 0.05).all()


def test_user_type_sets_matches_duckdb(parts):
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import user_type_sets

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        WITH c AS (SELECT DISTINCT user_id FROM events
                   WHERE event_type = 'click'),
             p AS (SELECT DISTINCT user_id FROM events
                   WHERE event_type = 'purchase')
        SELECT user_id, 'both' AS status FROM
          (SELECT user_id FROM c INTERSECT SELECT user_id FROM p)
        UNION ALL
        SELECT user_id, 'click_only' FROM
          (SELECT user_id FROM c EXCEPT SELECT user_id FROM p)
        UNION ALL
        SELECT user_id, 'purchase_only' FROM
          (SELECT user_id FROM p EXCEPT SELECT user_id FROM c)""").df()
    ry = user_type_sets(SF).to_pandas()
    a = sq.sort_values("user_id").reset_index(drop=True)
    b = ry.sort_values("user_id").reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    assert set(b["status"]) <= {"both", "click_only", "purchase_only"}
    # partition invariance: a user split across partitions would see a
    # partial bitmask and misclassify
    parts(3)
    ry2 = user_type_sets(SF).to_pandas()
    b2 = ry2.sort_values("user_id").reset_index(drop=True)[a.columns]
    assert b.equals(b2)


def test_percentile_rank_matches_duckdb():
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import percentile_rank

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        SELECT event_id, event_type,
               CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c,
               CAST((1000 * (rank() OVER (
                      PARTITION BY event_type
                      ORDER BY CAST(floor(value * 100 + 0.5) AS BIGINT))
                    - 1))
                    // greatest(count(*) OVER (
                      PARTITION BY event_type) - 1, 1) AS BIGINT)
                 AS pct_rank
        FROM events""").df()
    ry = percentile_rank(SF).to_pandas()
    a = sq.sort_values("event_id").reset_index(drop=True)
    b = ry.sort_values("event_id").reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    # extremes: minima rank 0‰, maxima ≤1000‰ and = 1000 when untied
    assert b["pct_rank"].min() == 0
    assert b["pct_rank"].max() <= 1000


def test_event_transitions_matches_duckdb(parts):
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import event_transitions

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        WITH o AS (
          SELECT user_id, event_type,
                 lag(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
          FROM events)
        SELECT prev AS from_type, event_type AS to_type,
               CAST(count(*) AS BIGINT) AS n_transitions
        FROM o WHERE prev IS NOT NULL GROUP BY 1, 2""").df()
    keys = ["from_type", "to_type"]
    a = sq.sort_values(keys).reset_index(drop=True)
    ry = event_transitions(SF).to_pandas()
    b = ry.sort_values(keys).reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    # transitions conserve events: sum = total events - #users
    n_events = con.execute("SELECT count(*) FROM events").fetchone()[0]
    n_users = con.execute(
        "SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert int(b["n_transitions"].sum()) == n_events - n_users
    # partition invariance: a user split across partitions would lose
    # its cross-block adjacencies
    parts(3)
    b2 = (event_transitions(SF).to_pandas()
          .sort_values(keys).reset_index(drop=True)[a.columns])
    assert b.equals(b2)


def test_retention_cohorts_matches_duckdb(parts):
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import retention_cohorts

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        WITH f AS (SELECT user_id, date_trunc('day', min(ts)) AS cohort
                   FROM events GROUP BY 1),
        a AS (SELECT DISTINCT e.user_id, f.cohort,
                     date_diff('day', f.cohort,
                               date_trunc('day', e.ts)) AS offset_days
              FROM events e JOIN f USING (user_id))
        SELECT cohort AS cohort_day,
               CAST(offset_days AS BIGINT) AS offset_days,
               CAST(count(*) AS BIGINT) AS n_users
        FROM a GROUP BY 1, 2""").df()
    keys = ["cohort_day", "offset_days"]
    a = sq.sort_values(keys).reset_index(drop=True)
    ry = retention_cohorts(SF).to_pandas()
    b = ry.sort_values(keys).reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    # day-0 of every cohort counts each cohort member exactly once:
    # summing offset-0 rows over cohorts = total distinct users
    n_users = con.execute(
        "SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert int(b[b["offset_days"] == 0]["n_users"].sum()) == n_users
    assert (b["offset_days"] >= 0).all()
    parts(3)
    b2 = (retention_cohorts(SF).to_pandas()
          .sort_values(keys).reset_index(drop=True)[a.columns])
    assert b.equals(b2)


def test_conversion_funnel_matches_duckdb(parts):
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import conversion_funnel

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        WITH fc AS (
          SELECT user_id, CAST(min(epoch_us(ts)) AS BIGINT) AS first_click_us
          FROM events WHERE event_type = 'click' GROUP BY user_id),
        cv AS (
          SELECT e.user_id, CAST(min(epoch_us(e.ts)) AS BIGINT) AS conv_us
          FROM events e JOIN fc ON e.user_id = fc.user_id
          WHERE e.event_type = 'purchase'
            AND epoch_us(e.ts) >= fc.first_click_us
          GROUP BY e.user_id)
        SELECT fc.user_id, fc.first_click_us,
               CAST(cv.conv_us - fc.first_click_us AS BIGINT) AS conv_lag_us,
               CAST(coalesce(cv.conv_us - fc.first_click_us
                             <= CAST(2880 AS BIGINT) * 60 * 1000000, FALSE)
                    AS TINYINT) AS converted
        FROM fc LEFT JOIN cv ON fc.user_id = cv.user_id""").df()
    a = sq.sort_values("user_id").reset_index(drop=True)
    ry = conversion_funnel(SF).to_pandas()
    b = ry.sort_values("user_id").reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    # funnel sanity: lag is non-negative wherever a conversion exists,
    # and a converted flag implies a present lag within the window
    lag = b["conv_lag_us"].dropna()
    assert (lag >= 0).all()
    conv = b[b["converted"] == 1]["conv_lag_us"]
    assert conv.notna().all() and (conv <= 2880 * 60 * 1_000_000).all()
    # a user whose ONLY purchase precedes their first click must not
    # convert (the at-or-after gate), yet still appears as an entrant
    n_click_users = con.execute(
        "SELECT count(DISTINCT user_id) FROM events "
        "WHERE event_type = 'click'").fetchone()[0]
    assert len(b) == n_click_users
    # partition invariance: a user split across partitions would break
    # the two-stage ordering
    parts(3)
    b2 = (conversion_funnel(SF).to_pandas()
          .sort_values("user_id").reset_index(drop=True)[a.columns])
    assert b.equals(b2)


def test_rolling_active_users_matches_duckdb(parts):
    import duckdb

    from aqueduct_core_ray.pipelines.temporal import rolling_active_users

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    sq = con.execute("""
        WITH ud AS (
          SELECT DISTINCT user_id, date_trunc('day', ts) AS day
          FROM events)
        SELECT d.day AS day,
               CAST(count(DISTINCT u.user_id) AS BIGINT) AS n_active_7d
        FROM (SELECT DISTINCT day FROM ud) d
        JOIN ud u ON u.day BETWEEN d.day - INTERVAL 6 DAY AND d.day
        GROUP BY 1""").df()
    a = sq.sort_values("day").reset_index(drop=True)
    ry = rolling_active_users(SF).to_pandas()
    b = ry.sort_values("day").reset_index(drop=True)[a.columns]
    assert a.equals(b.astype(a.dtypes.to_dict()))
    # rolling counts dominate the single-day distinct counts and never
    # exceed the global user count
    daily = con.execute("""
        SELECT date_trunc('day', ts) AS day,
               count(DISTINCT user_id) AS n FROM events GROUP BY 1
    """).df().set_index("day")["n"]
    total = con.execute(
        "SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    for _, row in b.iterrows():
        assert daily[row["day"]] <= row["n_active_7d"] <= total
    # window=1 degenerates to plain daily distinct users
    w1 = (rolling_active_users(SF, window_days=1).to_pandas()
          .sort_values("day").reset_index(drop=True))
    assert list(w1["n_active_7d"]) == [
        int(daily[d]) for d in w1["day"]]
    # partition invariance
    parts(3)
    b2 = (rolling_active_users(SF).to_pandas()
          .sort_values("day").reset_index(drop=True)[a.columns])
    assert b.equals(b2)
