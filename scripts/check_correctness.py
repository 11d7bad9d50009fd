"""Correctness sweep: run every ``queries()`` entry of the checkout this
script sits in and its ``oracle_sql()`` twin at a given sf, compare row
count, column names, and order-insensitive values. The last line counts
the sweep's ``op="exchange"`` metrics rows by input kind (``src``); the
rows are read from ``$AQR_METRICS_PATH``, or from a temp file when it
is unset.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        # NOT res.to_pandas(): Ray's to_pandas drops the schema of a
        # zero-row dataset (column-less frame), which would fail the
        # schema compare for legitimately-empty results
        import ray
        tabs = ray.get(res.to_arrow_refs())
        if tabs:
            return pa.concat_tables(
                tabs, promote_options="default").to_pandas()
        return pd.DataFrame()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ours: pd.DataFrame, theirs: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ours.columns) != sorted(theirs.columns):
        problems.append(f"columns {sorted(ours.columns)} != "
                        f"{sorted(theirs.columns)}")
        return problems
    if len(ours) != len(theirs):
        problems.append(f"rows {len(ours)} != {len(theirs)}")
        return problems
    a, b = canon(ours), canon(theirs)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(av.dtype, np.floating):
            ok = np.allclose(av.astype(float), bv.astype(float),
                             rtol=0, atol=0, equal_nan=True)
        else:
            ok = (av == bv).all()
        if not ok:
            bad = np.flatnonzero(~(av == bv)) if av.dtype == bv.dtype else []
            problems.append(f"col {c} mismatch "
                            f"(first rows: {av[:3]} vs {bv[:3]}; "
                            f"n_bad={len(bad) if len(bad) else '?'})")
    return problems


def exchange_srcs(path: str, start: int) -> "list[str]":
    """The ``src`` of every ``op="exchange"`` row written to the metrics
    file at ``path`` from byte offset ``start`` on."""
    with open(path) as f:
        f.seek(start)
        rows = [json.loads(x) for x in f if x.strip()]
    return [r["src"] for r in rows if r.get("op") == "exchange"]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        # Ray's workers import from the driver's working directory
        sf_dir = os.path.abspath(sf_dir)
        os.chdir(ROOT)
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True)

    sys.path.insert(0, ROOT)
    import __ray_entry__ as entry

    mpath = os.environ.get("AQR_METRICS_PATH")
    made = not mpath
    if made:
        fd, mpath = tempfile.mkstemp(prefix="aqr_metrics_", suffix=".jsonl")
        os.close(fd)
        os.environ["AQR_METRICS_PATH"] = mpath
    by_src: "dict[str, int]" = {}

    qs, oracles = entry.queries(), entry.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        start = os.path.getsize(mpath) if os.path.exists(mpath) else 0
        t0 = time.perf_counter()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        srcs = exchange_srcs(mpath, start) if os.path.exists(mpath) else []
        for src in srcs:
            by_src[src] = by_src.get(src, 0) + 1
        if name not in oracles:
            print(f"ok   {name}: rows-only, {len(ours)} rows ({dt:.1f}s)")
            continue
        theirs = con.execute(oracles[name]).df()
        problems = compare(name, ours, theirs)
        if problems:
            failures += 1
            print(f"FAIL {name} ({dt:.1f}s): " + "; ".join(problems))
        else:
            print(f"PASS {name}: {len(ours)} rows ({dt:.1f}s)")
    print(f"\n{failures} failures")
    print("exchange rows by src: " + ", ".join(
        f"{k}={v}" for k, v in sorted(by_src.items())))
    if made:
        os.remove(mpath)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
