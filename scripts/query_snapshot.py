"""Snapshot every ``queries()`` result as Arrow IPC, and diff two
snapshots: the before/after check of a change that must not move any
query's rows or Arrow types.

Usage:
  python scripts/query_snapshot.py write SF_DIR OUT_DIR [query ...]
  python scripts/query_snapshot.py diff A_DIR B_DIR

``write`` runs each entry of ``__ray_entry__.queries()`` (of the checkout
this script sits in) on the tables under SF_DIR and writes
``OUT_DIR/<query>.arrow``; a query that raises writes
``OUT_DIR/<query>.err`` with the exception instead. ``diff`` compares
the snapshots query by query: the Arrow schema (names and types) and
the rows, in order where the query's ``oracle_sql()`` twin ends in an
ORDER BY, as a multiset otherwise. It prints one line per query and
exits 1 if any differs or is missing from one side.
"""

from __future__ import annotations

import os
import re
import sys
import time

import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def as_table(res) -> pa.Table:
    """A query result as one Arrow table (a Dataset's blocks, a table,
    or a pandas frame)."""
    import pandas as pd

    import ray
    import ray.data

    if isinstance(res, ray.data.Dataset):
        tabs = ray.get(res.to_arrow_refs())
        tabs = [t for t in tabs if t.num_columns] or tabs
        return (pa.concat_tables(tabs, promote_options="default")
                if tabs else pa.table({}))
    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    raise TypeError(f"unsupported result type {type(res).__name__}")


def write(sf_dir: str, out_dir: str, only: "set[str]") -> int:
    import logging

    import ray
    if not ray.is_initialized():
        # Ray's workers import from the driver's working directory
        sf_dir, out_dir = os.path.abspath(sf_dir), os.path.abspath(out_dir)
        os.chdir(ROOT)
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    sys.path.insert(0, ROOT)
    import __ray_entry__ as entry

    os.makedirs(out_dir, exist_ok=True)
    errors = 0
    for name, fn in entry.queries().items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            t = as_table(fn(sf_dir))
        except Exception as e:          # recorded, compared like a result
            errors += 1
            with open(os.path.join(out_dir, f"{name}.err"), "w") as f:
                f.write(f"{type(e).__name__}: {e}\n")
            print(f"ERR  {name}: {type(e).__name__}: {e}")
            continue
        with pa.OSFile(os.path.join(out_dir, f"{name}.arrow"), "wb") as s:
            with pa.ipc.new_file(s, t.schema) as w:
                w.write_table(t)
        print(f"ok   {name}: {t.num_rows} rows "
              f"({time.perf_counter() - t0:.1f}s)")
    print(f"\n{errors} errors")
    return 0


def _read(path: str) -> "pa.Table | str":
    if path.endswith(".err"):
        with open(path) as f:
            return f.read().strip()
    with pa.OSFile(path, "rb") as s:
        return pa.ipc.open_file(s).read_all()


def _ordered_queries() -> "set[str]":
    """Queries whose oracle ends in a top-level ORDER BY (one that no
    parenthesis follows, so not a window's)."""
    sys.path.insert(0, ROOT)
    import __ray_entry__ as entry
    tail = re.compile(r"\bORDER\s+BY\b[^()]*$", re.I | re.S)
    return {n for n, sql in entry.oracle_sql().items()
            if tail.search(sql.strip().rstrip(";"))}


def _rows(t: pa.Table, ordered: bool) -> list:
    rows = [repr(tuple(r.values())) for r in t.to_pylist()]
    return rows if ordered else sorted(rows)


def _schema(t: pa.Table) -> "list[tuple[str, str]]":
    return [(f.name, str(f.type)) for f in t.schema]


def diff(a_dir: str, b_dir: str) -> int:
    def entries(d: str) -> "dict[str, str]":
        return {os.path.splitext(f)[0]: os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith((".arrow", ".err"))}

    a, b = entries(a_dir), entries(b_dir)
    ordered = _ordered_queries()
    bad = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            bad += 1
            print(f"MISSING {name}: only in "
                  f"{a_dir if name in a else b_dir}")
            continue
        ta, tb = _read(a[name]), _read(b[name])
        if isinstance(ta, str) or isinstance(tb, str):
            same = ta == tb
            problem = f"{ta!r} vs {tb!r}"
        elif _schema(ta) != _schema(tb):
            same, problem = False, f"schema {_schema(ta)} vs {_schema(tb)}"
        else:
            ra, rb = (_rows(t, name in ordered) for t in (ta, tb))
            same = ra == rb
            first = next((i for i, (x, y) in enumerate(zip(ra, rb))
                          if x != y), min(len(ra), len(rb)))
            problem = (f"rows {len(ra)} vs {len(rb)}; first difference "
                       f"at {first}: {ra[first:first + 1]} vs "
                       f"{rb[first:first + 1]}")
        if same:
            kind = ("error" if isinstance(ta, str)
                    else "ordered" if name in ordered else "multiset")
            print(f"SAME {name} ({kind})")
        else:
            bad += 1
            print(f"DIFF {name}: {problem}")
    print(f"\n{bad} differ of {len(set(a) | set(b))}")
    return 1 if bad else 0


def main(argv: "list[str]") -> int:
    if len(argv) >= 3 and argv[0] == "write":
        return write(argv[1], argv[2], set(argv[3:]))
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
