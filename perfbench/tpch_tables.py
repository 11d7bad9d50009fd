"""Seeded TPC-H-style tables for the library workload.

Same table names, columns and types as the repository's test fixtures
(region nation customer supplier part orders lineitem events documents
embeddings), generated from ``seed`` at 10x the smallest fixture scale
(60,000 lineitem rows, 5,000 documents). With Ray on the 4 CPUs of a VM,
a warm pass of the queries (then eight, with ngram_jaccard_dedup) took
~6.7 s at 1x, ~7.2 s at 10x, ~9.3 s at 30x and ~17.5 s at 100x (the
sf0.1 size). So at this size work on the data is under a tenth of a
pass and the library workload measures mostly per-query fixed cost
(plan, tasks, exchange barriers). 30x has ~30% data work, but with Ray
on one CPU its pass took 17-21 s, too long for two timed passes a run.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORDS = ("join hash row batch scan column customer filter small slow merge "
         "order vector line table data agg value key stream window a spark "
         "part group big sort query fast the").split()
SIZES = {"part": 2000, "orders": 15_000, "lineitem": 60_000,
         "customer": 1500, "supplier": 100, "events": 10_000,
         "documents": 5000, "embeddings": 5000}


def _days(rng, lo: str, hi: str, n: int) -> pa.Array:
    a, b = np.datetime64(lo, "D"), np.datetime64(hi, "D")
    span = int((b - a).astype(np.int64)) + 1
    d = a + rng.integers(0, span, n).astype("timedelta64[D]")
    return pa.array(d.astype("datetime64[us]"))


def _choice(rng, values, n: int) -> pa.Array:
    return pa.array(np.asarray(values, dtype=object)[
        rng.integers(0, len(values), n)].tolist(), pa.string())


def make_tables(seed: int) -> dict[str, pa.Table]:
    rng = np.random.default_rng(np.random.PCG64((seed, 0x7AB1E5)))
    n = SIZES
    t: dict[str, pa.Table] = {}
    t["region"] = pa.table({
        "r_regionkey": pa.array(range(5), pa.int32()),
        "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]})
    t["nation"] = pa.table({
        "n_nationkey": pa.array(range(25), pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32())})
    nc, ns, npart, no = (n["customer"], n["supplier"], n["part"],
                         n["orders"])
    t["customer"] = pa.table({
        "c_custkey": pa.array(np.arange(nc)),
        "c_name": [f"Customer#{i:09d}" for i in range(nc)],
        "c_nationkey": pa.array(rng.integers(0, 25, nc).astype(np.int32)),
        "c_acctbal": pa.array(np.round(rng.uniform(-999.99, 9999.99, nc),
                                       2)),
        "c_mktsegment": _choice(rng, ["AUTOMOBILE", "BUILDING", "FURNITURE",
                                      "HOUSEHOLD", "MACHINERY"], nc)})
    t["supplier"] = pa.table({
        "s_suppkey": pa.array(np.arange(ns)),
        "s_name": [f"Supplier#{i:09d}" for i in range(ns)],
        "s_nationkey": pa.array(rng.integers(0, 25, ns).astype(np.int32)),
        "s_acctbal": pa.array(np.round(rng.uniform(-999.99, 9999.99, ns),
                                       2))})
    adj = ["small", "red", "blue", "hot", "old", "large", "new", "green"]
    noun = ["ring", "widget", "bolt", "gear", "gizmo", "plate", "anvil",
            "nut"]
    t["part"] = pa.table({
        "p_partkey": pa.array(np.arange(npart)),
        "p_name": pa.array([f"{adj[a]} {noun[b]}" for a, b in zip(
            rng.integers(0, 8, npart), rng.integers(0, 8, npart))]),
        "p_brand": pa.array([f"Brand#{b}" for b in
                             rng.integers(1, 26, npart)]),
        "p_type": _choice(rng, ["ECONOMY", "SMALL", "MEDIUM", "PROMO",
                                "STANDARD", "LARGE"], npart),
        "p_size": pa.array(rng.integers(1, 51, npart).astype(np.int32)),
        "p_retailprice": pa.array(np.round(
            900 + (np.arange(npart) % 1000) * 0.1, 2))})
    t["orders"] = pa.table({
        "o_orderkey": pa.array(np.arange(no)),
        "o_custkey": pa.array(rng.integers(0, nc, no)),
        "o_orderstatus": _choice(rng, ["O", "F", "P"], no),
        "o_totalprice": pa.array(np.round(rng.uniform(1000, 500000, no), 2)),
        "o_orderdate": _days(rng, "1995-01-01", "2001-08-01", no),
        "o_orderpriority": _choice(rng, ["1-URGENT", "2-HIGH", "3-MEDIUM",
                                         "4-NOT SPECIFIED", "5-LOW"], no)})
    nl = n["lineitem"]
    okey = np.sort(rng.integers(0, no, nl))
    first = np.r_[True, okey[1:] != okey[:-1]]
    start = np.maximum.accumulate(np.where(first, np.arange(nl), 0))
    qty = rng.integers(1, 51, nl).astype(np.float64)
    t["lineitem"] = pa.table({
        "l_orderkey": pa.array(okey),
        "l_partkey": pa.array(rng.integers(0, npart, nl)),
        "l_suppkey": pa.array(rng.integers(0, ns, nl)),
        "l_linenumber": pa.array((np.arange(nl) - start + 1)
                                 .astype(np.int32)),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(
            qty * rng.uniform(900, 2100, nl), 2)),
        "l_discount": pa.array(rng.integers(0, 11, nl) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, nl) / 100.0),
        "l_returnflag": _choice(rng, ["A", "N", "R"], nl),
        "l_linestatus": _choice(rng, ["F", "O"], nl),
        "l_shipdate": _days(rng, "1995-01-02", "2001-11-04", nl)})
    ne = n["events"]
    ts = np.sort(rng.integers(0, 30 * 86400 * 10**6, ne)) + \
        np.datetime64("2024-01-01", "us").astype(np.int64)
    t["events"] = pa.table({
        "event_id": pa.array(np.arange(ne)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, max(ne // 66, 2), ne)),
        "event_type": _choice(rng, ["click", "view", "purchase", "signup",
                                    "error"], ne),
        "value": pa.array(np.round(np.maximum(rng.exponential(50, ne), 0.01),
                                   2)),
        "props": pa.array([f'{{"k": {k}}}' for k in
                           rng.integers(0, 100, ne)])})
    nd = n["documents"]
    texts: list[str] = []
    for i in range(nd):
        if i % 20 == 10:               # near-duplicate of an earlier doc
            texts.append(texts[int(rng.integers(0, i))] + " dup")
        else:
            words = np.asarray(WORDS)[rng.integers(0, len(WORDS),
                                                   rng.integers(8, 90))]
            texts.append(" ".join(words.tolist()))
    t["documents"] = pa.table({
        "doc_id": pa.array(np.arange(nd)),
        "text": texts,
        "lang": _choice(rng, ["en", "en", "en", "zh", "es", "de", "fr"], nd),
        "source": [f"src{i % 20}" for i in range(nd)],
        "n_chars": pa.array([len(s) for s in texts], pa.int64())})
    nv = n["embeddings"]
    vec = rng.normal(size=(nv, 64)).astype(np.float32)
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    t["embeddings"] = pa.table({
        "vec_id": pa.array(np.arange(nv)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(vec.ravel()), 64).cast(pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, nv).astype(np.int32))})
    return t


def write_tables(seed: int, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    for name, tab in make_tables(seed).items():
        pq.write_table(tab, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir
