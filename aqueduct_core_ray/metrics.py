"""Per-operator timing telemetry for the library entry points — the
reference wraps every storage operation in a timing decorator
(TimedDistributedStorage.java:10-31, MetricsInterceptor.java:12-36,
DumpMetrics.java:25-29); this is that surface for the Ray library: a
decorator on each public operator recording (op, wall_s, rows) per
call, so a user debugging a slow curation run can see WHICH operator
ate the time without reaching for ds.stats().

Two sinks, both cheap:
- an in-process ring buffer (``recent()`` / ``drain()``) — always on;
- one JSON line appended per call to ``$AQR_METRICS_PATH`` when set
  (the library has no lake root of its own; the engine's per-wave
  scan_s/merge_s telemetry already lives in <lake>/metrics.jsonl).

``rows`` is filled when the result is a pyarrow Table or a pandas
DataFrame; anything else (a Dataset included) records rows=None.

Every operator runs its reads, maps and exchanges eagerly as raw tasks
on leaf reads and block refs (stages/exchange.py) and returns a Dataset
over finished blocks (``from_arrow_refs``), so its wall_s times the
execution, not a plan: it covers the ``op="exchange"`` rows it wrote
(each row's ``src`` says whether that call read a leaf or refs).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable

_RECENT: "deque[dict]" = deque(maxlen=4096)
_LOCK = threading.Lock()


def _result_rows(res: Any) -> "int | None":
    try:
        import pandas as pd
        import pyarrow as pa
        if isinstance(res, pa.Table):
            return res.num_rows
        if isinstance(res, pd.DataFrame):
            return len(res)
    except ImportError:
        pass                    # no frame library: the row count is unknown
    return None


def record(rec: dict) -> None:
    """Append one telemetry record to the ring buffer and, when
    ``$AQR_METRICS_PATH`` is set, to that jsonl file (append-only,
    one line per call — same format as the engine's metrics.jsonl)."""
    with _LOCK:
        _RECENT.append(rec)
    path = os.environ.get("AQR_METRICS_PATH")
    if path:
        try:
            with open(path, "a") as f:
                f.write(json.dumps(rec) + "\n")
        except OSError:
            pass                       # telemetry never fails the op


def recent(op: "str | None" = None) -> "list[dict]":
    """This process's recent operator timings (newest last)."""
    with _LOCK:
        out = list(_RECENT)
    return [r for r in out if op is None or r["op"] == op]


def drain() -> "list[dict]":
    """Return and clear the ring buffer."""
    with _LOCK:
        out = list(_RECENT)
        _RECENT.clear()
    return out


def timed_op(name: "str | Callable" = None):
    """Decorator: record (op, wall_s, rows, ok) for every call of a
    library entry point. Usable bare (``@timed_op``) or with an
    explicit name (``@timed_op("exact_dedup")``). Exceptions pass
    through untouched (recorded with ok=False)."""
    def deco(fn: Callable, op: "str | None" = None):
        op = op or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                record({"op": op,
                        "wall_s": round(time.perf_counter() - t0, 6),
                        "rows": None, "ok": False,
                        "wall_ts": time.time()})
                raise
            record({"op": op,
                    "wall_s": round(time.perf_counter() - t0, 6),
                    "rows": _result_rows(res), "ok": True,
                    "wall_ts": time.time()})
            return res
        wrapper.__aqr_timed__ = True
        return wrapper

    if callable(name):                       # bare @timed_op
        return deco(name)
    return lambda fn: deco(fn, name)


def instrument_entry_points(ns: dict, names: "tuple[str, ...]") -> None:
    """Wrap the named module-level functions in ``timed_op`` — called
    once at the bottom of each library module with its public operator
    surface (the explicit list doubles as the module's API index).
    Idempotent; silently skips missing/already-wrapped names so a
    refactor can't break imports over telemetry."""
    for n in names:
        f = ns.get(n)
        if callable(f) and not getattr(f, "__aqr_timed__", False):
            ns[n] = timed_op(n)(f)
