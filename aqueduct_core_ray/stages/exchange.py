"""Generic file-based hash exchange for library pipelines.

``ds.groupby("part").map_groups(fn)`` is the module-wide co-partition
idiom, but Ray Data's groupby is a SORT-based shuffle with a ~3 s fixed
floor per exchange at any data size (measured on this box; the CDC
engine's wave path hit the same wall and replaced it with an Arrow-IPC
file exchange — stages/merge_apply.py). This is that technique as a
reusable primitive: writer tasks slice each block by an existing int
``part`` column into one IPC file per block (record batch per part,
sliced zero-copy after one stable argsort), a bounded manifest of
slice sizes returns to the driver, which cuts the parts into
byte-budgeted runs, and one raw Ray task per run applies ``fn`` to each
of its parts.

Placement contract (same as the engine's lake root): ``root`` must be
on storage every worker can reach — node-local /tmp is correct in this
repo's single-node harness, a shared filesystem/object store on a real
cluster (``AQR_EXCHANGE_ROOT``). The exchange is a barrier, exactly
like the groupby it replaces; spill pressure goes to the filesystem
instead of the object store.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import uuid
from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from aqueduct_core_ray import metrics


def dict_encode(arr: "pa.Array | pa.ChunkedArray") -> pa.DictionaryArray:
    """One dictionary array over an Arrow array or chunked array (the
    chunks share one dictionary). Nulls are a dictionary entry, so the
    indices are null-free dense codes: equal values, equal codes."""
    d = pc.dictionary_encode(arr, null_encoding="encode")
    return d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d


def hash_str_array(arr: "pa.Array | pa.ChunkedArray | np.ndarray"
                   ) -> np.ndarray:
    """The canonical keyed-siphash string kernel (stable across
    processes/nodes/runs): 'string equality <=> hash equality' at
    ~1e-11 collision odds. The dedup family, the repetition metrics and
    the keyed exchanges MUST share this one definition — word/line/
    shingle identity and key routing across operators de-synchronize if
    any of them hashes differently. An Arrow input hashes each distinct
    value once and gathers by its dictionary codes (same values as the
    per-row hash); a numpy array of strings is hashed per row."""
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        d = dict_encode(arr)
        return hash_str_array(d.dictionary.to_numpy(zero_copy_only=False)
                              )[d.indices.to_numpy()]
    return pd.util.hash_array(np.asarray(arr, dtype=object),
                              categorize=False)


def collect_tables(ds: ray.data.Dataset) -> "list[pa.Table]":
    """The Dataset's blocks as Arrow tables, from ONE execution of its
    plan. ``ray.get(ds.to_arrow_refs())`` runs a lazy plan a second time
    for its schema probe, and a cut-short re-run is what trips Ray
    2.49.2's cancel race (``task_manager.cc:930``)."""
    return ray.get(ds.materialize().to_arrow_refs())


def _write_block_slices(t: pa.Table, *, xdir: str,
                        part_col: str = "part") -> pa.Table:
    """Writer side: one IPC file per input block, one record batch per
    part present in the block (zero-copy slices after a single stable
    argsort). Returns the block's manifest rows (part, path, batch,
    bytes) — the per-slice byte count is what lets the driver pack
    buckets to a byte budget and split oversized partitions."""
    empty = pa.table({"part": pa.array([], pa.int32()),
                      "path": pa.array([], pa.string()),
                      "batch": pa.array([], pa.int32()),
                      "bytes": pa.array([], pa.int64())})
    if t.num_rows == 0:
        return empty
    part = t.column(part_col).to_numpy(zero_copy_only=False)
    order = np.argsort(part, kind="stable")
    st = t.take(pa.array(order))
    sp = part[order]
    starts = np.flatnonzero(np.concatenate([[True], sp[1:] != sp[:-1]]))
    sizes = np.diff(np.append(starts, len(sp)))
    path = os.path.join(xdir, f"block-{uuid.uuid4().hex}.arrow")
    tmp = path + ".tmp"
    st = st.combine_chunks()
    nbytes = []
    with pa.OSFile(tmp, "wb") as sink:
        with pa.ipc.new_file(sink, st.schema) as w:
            for s, n in zip(starts, sizes):
                # EXACTLY one record batch per part slice — the manifest
                # addresses slices by batch index, so write_table's
                # chunk-dependent batch count would desync it
                sl = st.slice(int(s), int(n))
                batches = sl.to_batches()
                assert len(batches) == 1      # single-chunk by combine
                w.write_batch(batches[0])
                # nbytes respects slice offsets (referenced ranges only)
                nbytes.append(sl.nbytes)
    os.replace(tmp, path)
    return pa.table({
        "part": pa.array(sp[starts].astype(np.int32)),
        "path": pa.array([path] * len(starts)),
        "batch": pa.array(np.arange(len(starts), dtype=np.int32)),
        "bytes": pa.array(np.asarray(nbytes, dtype=np.int64)),
    })


def _concat(tabs: "list[pa.Table]") -> pa.Table:
    # align by NAME order when tables disagree (e.g. tagged-union
    # streams of different vintages); a Schema carrying parquet/pandas
    # metadata is unhashable, so only column names are compared
    names0 = tabs[0].column_names
    if any(t.column_names != names0 for t in tabs[1:]):
        tabs = [t.select(sorted(t.column_names)) for t in tabs]
    return pa.concat_tables(tabs, promote_options="default")


def _read_parts(run: "list[list[tuple[str, int]]]") -> "list[pa.Table]":
    """One table per part of a run, from its (path, batch) slices."""
    by_path: "dict[str, list[int]]" = {}
    for es in run:
        for path, bi in es:
            by_path.setdefault(path, []).append(bi)
    got = {}
    for path, bis in by_path.items():
        # buffered pread, not mmap — same finding as the engine's merge
        # fan (per-page fault overhead under mmap_lock dominates on
        # fresh tmpfs pages). One open per file per task, not per slice.
        with pa.OSFile(path, "rb") as src:
            reader = pa.ipc.open_file(src)
            for bi in bis:
                got[path, bi] = pa.Table.from_batches(
                    [reader.get_batch(bi)])
    return [_concat([got[e] for e in es]) for es in run]


@ray.remote(num_cpus=1)
def _run_partition(fn: Callable[[pa.Table], pa.Table],
                   run: "list[list[tuple[str, int]]]") -> pa.Table:
    """One task per run: ``fn`` once per part, in the run's (ascending)
    part order; empty outputs are dropped unless all are empty."""
    outs = [fn(t) for t in _read_parts(run)]
    return _concat([t for t in outs if t.num_rows] or outs[:1])


@ray.remote(num_cpus=1)
def _refold_partials(refold_fn: Callable[[pa.Table], pa.Table],
                     *partials: pa.Table) -> pa.Table:
    """Second fold over chunk partials of one oversized partition."""
    return refold_fn(_concat(list(partials)))


def _alive_node_count() -> int:
    """Separate function so tests can monkeypatch a multi-node view."""
    if not ray.is_initialized():
        return 1
    try:
        return sum(1 for n in ray.nodes() if n.get("Alive"))
    except ray.exceptions.RaySystemError:
        return 1                # shut down since the check: one node


def _guard_shared_root(base: str, *, explicit: bool, kind: str,
                       env: str) -> None:
    """LOUD multi-node guard: a node-local default root (under the
    system tempdir) silently produces wrong/empty exchanges on a real
    cluster — workers write files the readers can't see. Refuse to run
    rather than return garbage. An EXPLICIT root (argument or env var)
    is the operator asserting the path is shared storage."""
    if explicit or _alive_node_count() <= 1:
        return
    tmp = os.path.realpath(tempfile.gettempdir())
    if os.path.realpath(base).startswith(tmp):
        raise RuntimeError(
            f"{kind} defaults to node-local {base!r} but the cluster "
            f"has {_alive_node_count()} alive nodes — files written "
            f"there are invisible to other nodes. Set ${env} (or pass "
            f"an explicit root) to a path on SHARED storage.")


def _cluster_cpus() -> int:
    if ray.is_initialized():
        try:
            return max(1, int(ray.cluster_resources().get("CPU", 8)))
        except ray.exceptions.RaySystemError:
            pass                # shut down since the check: use the default
    return 8


def _default_target_bytes() -> int:
    return int(os.environ.get("AQR_FX_TARGET_PART_BYTES",
                              256 * 1024 * 1024))


def _auto_virtual_parts() -> int:
    """Virtual bucket count for stat-derived exchanges: enough buckets
    that byte-budget packing (not the modulus) decides task count, and
    that one bucket is a small fraction of the data. Raise
    ``AQR_FX_VIRTUAL_PARTS`` on very large clusters (task parallelism
    is capped by the bucket count)."""
    env = os.environ.get("AQR_FX_VIRTUAL_PARTS")
    if env:
        return max(1, int(env))
    return min(4096, max(64, 4 * _cluster_cpus()))


def _cut_runs(sizes: "dict[int, int]", cap: int, budget: int,
              salt: int) -> "list[list[int]]":
    """Cut the parts, ascending, into contiguous runs of at most ``cap``
    bytes. A part over ``budget`` runs alone, and no run holds two
    parts of one ``part // salt`` bucket (never binds at ``salt`` 1)."""
    runs: "list[list[int]]" = []
    used = 0
    for p in sorted(sizes):
        nb = sizes[p]
        if (not runs or used + nb > cap or max(used, nb) > budget
                or p // salt == runs[-1][-1] // salt):
            runs.append([])
            used = 0
        runs[-1].append(p)
        used += nb
    return runs


def _empty_exchange(ds: ray.data.Dataset, fn, empty_result):
    """The caller's typed empty wins (Ray's schema() is None for an
    empty mapped dataset); else fn's output on an empty input-shaped
    table, falling back to the input schema for fns that assume
    non-empty groups."""
    if empty_result is not None:
        return ray.data.from_arrow(empty_result)
    sample = ds.schema()
    if sample is None:
        return ray.data.from_arrow(pa.table({}))
    empty_in = pa.schema(sample.base_schema).empty_table()
    try:
        return ray.data.from_arrow(fn(empty_in))
    except IndexError:
        # the one legitimate empty-probe failure: a group fn indexing
        # its (never empty on the real path) group, e.g.
        # t.column(part)[0]. Anything else (KeyError, TypeError, ...)
        # is a real fn bug and must surface, not a schema-flipped empty.
        import warnings
        warnings.warn(
            f"file_exchange_map_groups: empty exchange and "
            f"{getattr(fn, '__name__', fn)!r} raised IndexError on the "
            f"empty probe; returning an INPUT-schema empty (pass "
            f"empty_result= for a typed output schema)", RuntimeWarning)
        return ray.data.from_arrow(empty_in)


def file_exchange_map_groups(
    ds: ray.data.Dataset,
    fn: Callable[[pa.Table], pa.Table],
    root: "str | None" = None,
    part_col: str = "part",
    empty_result: "pa.Table | None" = None,
    salt: int = 1,
    refold_fn: "Callable[[pa.Table], pa.Table] | None" = None,
    target_bytes: "int | None" = None,
    _plan_out: "dict | None" = None,
) -> ray.data.Dataset:
    """Drop-in replacement for ``ds.groupby("part").map_groups(fn,
    batch_format="pyarrow")`` when ``part`` is already a bounded int
    partition id (hash %% P — the module-wide idiom): ``fn`` runs once
    per NON-EMPTY part over the concatenation of that part's rows
    (part column included, exactly like map_groups), and output blocks
    come out in ascending part order. Skips Ray's sort-shuffle fixed
    floor; the exchange itself is still a barrier. Exchange files are
    deleted before returning — the result rows ride the object store.

    Task layout is STAT-DRIVEN from the manifest's slice sizes (no
    second pass over the data): the parts, ascending, are cut into
    contiguous runs of up to ``max(1 MiB, min(target_bytes, total //
    (2 * cluster CPUs)))`` bytes, and each run is one task that calls
    ``fn`` per part and concatenates the outputs — the number of parts
    (the caller's hash modulus) does not set the task count.

    - ``salt``: parts are ``bucket * salt + sub`` sub-buckets of salted
      keys (fx_join); no run holds two sub-buckets of one bucket.
    - ``refold_fn``: a partition over ``target_bytes`` (hot or
      unbounded key) runs alone, split into byte-budgeted chunks; ``fn``
      folds each chunk and ``refold_fn`` folds the concatenated
      partials, so ``refold_fn(concat(fn(c1), fn(c2), ...))`` must
      equal ``fn(c1 + c2 + ...)``.
    - ``_plan_out``: test hook, filled with the planned ``tasks``,
      ``split`` (chunk-folded parts), ``packed`` (runs of >1 part),
      ``parts`` and ``bytes``. The same counts, with writer and task
      seconds, go to one ``op="exchange"`` row of ``metrics``."""
    base = (root or os.environ.get("AQR_EXCHANGE_ROOT")
            or tempfile.gettempdir())
    _guard_shared_root(base, explicit=bool(
        root or os.environ.get("AQR_EXCHANGE_ROOT")),
        kind="exchange root", env="AQR_EXCHANGE_ROOT")
    xdir = os.path.join(base, f"aqr_xchg_{uuid.uuid4().hex}")
    os.makedirs(xdir, exist_ok=True)
    budget = target_bytes or _default_target_bytes()
    t0 = time.perf_counter()
    try:
        from functools import partial as _p
        manifest = ds.map_batches(
            _p(_write_block_slices, xdir=xdir, part_col=part_col),
            batch_format="pyarrow", batch_size=None).take_all()
        t1 = time.perf_counter()
        plan: dict[int, list[tuple[str, int, int]]] = {}
        for r in manifest:                     # bounded: blocks x parts
            plan.setdefault(int(r["part"]), []).append(
                (r["path"], int(r["batch"]), int(r["bytes"])))
        sizes = {p: sum(b for _, _, b in es) for p, es in plan.items()}
        total = sum(sizes.values())
        cap = max(1 << 20, min(budget, total // (2 * _cluster_cpus())))
        runs = _cut_runs(sizes, cap, budget, salt)
        refs, n_split = [], 0
        for run in runs:
            es = plan[run[0]]
            if refold_fn is not None and sizes[run[0]] > budget \
                    and len(es) > 1:
                # oversized partition (alone in its run): chunk-fold +
                # refold (bounded per-task working set even under a
                # single hot key); chunks are cut like runs, by slice
                chunks = _cut_runs(dict(enumerate(b for _, _, b in es)),
                                   budget, budget, 1)
                refs.append(_refold_partials.remote(refold_fn, *[
                    _run_partition.remote(fn, [[es[i][:2] for i in ch]])
                    for ch in chunks]))
                n_split += 1
            else:
                refs.append(_run_partition.remote(
                    fn, [[e[:2] for e in plan[q]] for q in run]))
        stats = dict(tasks=len(runs), split=n_split,
                     packed=sum(len(r) > 1 for r in runs),
                     parts=len(plan), bytes=total)
        if _plan_out is not None:
            _plan_out.update(stats)
        ray.wait(refs, num_returns=len(refs))  # files consumed: safe to rm
        t2 = time.perf_counter()
        out = (ray.data.from_arrow_refs(refs) if refs
               else _empty_exchange(ds, fn, empty_result))
    finally:
        shutil.rmtree(xdir, ignore_errors=True)
    name = getattr(getattr(fn, "func", fn), "__name__", str(fn))  # partial
    metrics.record({"op": "exchange", "fn": name,
                    "ok": True, "wall_s": round(time.perf_counter() - t0, 6),
                    "write_s": round(t1 - t0, 6),
                    "run_s": round(t2 - t1, 6), **stats})
    return out


def _ds_fx_map_groups(self: ray.data.Dataset, fn, part_col: str = "part",
                      empty_result: "pa.Table | None" = None
                      ) -> ray.data.Dataset:
    """``ds.fx_map_groups(fn)`` == ``ds.groupby(part).map_groups(fn,
    batch_format="pyarrow")`` over the file exchange — an EXTENSION
    method (new attribute, nothing overridden) so the module-wide
    groupby chain shape survives the swap verbatim."""
    return file_exchange_map_groups(self, fn, part_col=part_col,
                                    empty_result=empty_result)


ray.data.Dataset.fx_map_groups = _ds_fx_map_groups


def fx_agg_by(ds: ray.data.Dataset, keys: "list[str]",
              aggs: "list[tuple[str, str]]",
              num_partitions: "int | None" = None,
              target_bytes: "int | None" = None,
              _plan_out: "dict | None" = None) -> ray.data.Dataset:
    """``ds.groupby(keys).aggregate(...)`` over the file exchange —
    for UNBOUNDED-cardinality grouped aggregates where a driver fold
    (analytics._fold_partials) would not be scale-safe and the native
    Aggregate pays the sort-shuffle floor. ``aggs`` are Arrow group_by
    (column, kind) pairs with kind in {sum, min, max, count}; kinds
    must be re-foldable over partials (they are — callers feed
    per-block partials of the same kind). Output columns keep the
    input names (no "sum(x)" renames).

    ``num_partitions`` is only the hash modulus (default
    ``_auto_virtual_parts()`` virtual buckets): the exchange packs
    whole buckets into byte-budgeted tasks from the manifest's measured
    slice sizes, so task count scales with data volume, and a single
    oversized bucket (hot/low-cardinality key) is chunk-folded then
    re-folded so no task's working set exceeds ``target_bytes``."""
    P = num_partitions or _auto_virtual_parts()

    def tag(t: pa.Table) -> pa.Table:
        # a stray inbound "part" (e.g. the empty-input schema of an
        # upstream exchange) would collide with the tag column below.
        # Keys are hashed at their numpy dtype: callers feed NON-NULL
        # engine-generated keys (tokens/fps/types), so the nullable-int
        # float64 degradation fx_join guards against cannot arise here.
        if "part" in t.column_names and "part" not in keys:
            t = t.drop_columns(["part"])
        h = None
        for k in keys:
            hk = pd.util.hash_array(
                t.column(k).to_numpy(zero_copy_only=False).copy(),
                categorize=False)
            h = hk if h is None else (
                (h * np.uint64(0x9E3779B97F4A7C15)) ^ hk)
        return t.append_column(
            "part", pa.array((h % np.uint64(P)).astype(np.int32)))

    def fold(g: pa.Table) -> pa.Table:
        agg = (g.drop_columns(["part"]).group_by(keys)
               .aggregate(aggs))
        return pa.table({**{k: agg.column(k) for k in keys},
                         **{c: agg.column(f"{c}_{kind}")
                            for c, kind in aggs}})

    def refold(g: pa.Table) -> pa.Table:
        # fold of folds: count partials re-fold as SUM (a second count
        # would count partial rows, not rows) — sum/min/max idempotent
        aggs2 = [(c, "sum" if kind == "count" else kind)
                 for c, kind in aggs]
        agg = g.group_by(keys).aggregate(aggs2)
        return pa.table({**{k: agg.column(k) for k in keys},
                         **{c: agg.column(f"{c}_{k2}")
                            for (c, _), (_, k2) in zip(aggs, aggs2)}})

    return file_exchange_map_groups(
        ds.map_batches(tag, batch_format="pyarrow"), fold,
        refold_fn=refold, target_bytes=target_bytes, _plan_out=_plan_out)


def fx_sum_by(ds: ray.data.Dataset, keys: "list[str]",
              sums: "list[str]",
              num_partitions: "int | None" = None) -> ray.data.Dataset:
    """``ds.groupby(keys).sum(sums)`` over the file exchange."""
    return fx_agg_by(ds, keys, [(c, "sum") for c in sums],
                     num_partitions)


def fx_join(left: ray.data.Dataset, right: ray.data.Dataset,
            on: "list[str] | str", how: str = "inner",
            num_partitions: "int | None" = None,
            suffix: str = "_r", salt: int = 1,
            target_bytes: "int | None" = None,
            _plan_out: "dict | None" = None) -> ray.data.Dataset:
    """Generic co-partitioned hash EQUI-JOIN over the file exchange —
    the reusable primitive behind the module's hand-built join
    pipelines. Both sides are tagged ``hash(key) % num_partitions``
    and flow through ONE exchange; each partition task splits its rows
    by side and merges vectorized (arrow-backed frames, so int64 keys
    and values survive null-introduction without a float64 upcast).
    ``num_partitions`` is only the hash modulus (default
    ``_auto_virtual_parts()``); whole buckets are packed into
    byte-budgeted tasks from measured slice sizes (see fx_agg_by).

    ``how``: inner | left | outer | semi | anti. SQL null-key
    semantics on the MATCH (a null key never matches — including in
    ``outer``, where a null-key row from EITHER side survives as an
    unmatched row, exactly like SQL FULL OUTER JOIN; pandas' own merge
    would wrongly pair NaN keys, so null-key rows are split out and
    appended unmatched). ``outer`` key columns are coalesced
    (right-only rows carry the right side's key values). ``anti`` is
    NOT EXISTS, not NOT IN: a left row whose key is null or matches
    nothing is KEPT (SQL NOT IN returns zero rows when the probe list
    contains a null — use an explicit null filter on both sides if NOT
    IN semantics are wanted). Non-key right columns that collide with a
    left name get ``suffix``; semi/anti return the left columns only,
    each left row at most once per its own multiplicity. ``part`` and
    ``__side`` are the exchange's reserved column names (the
    module-wide contract) — inbound columns so named are dropped.

    Scale shape: one exchange, both sides move exactly once, join
    state is per-partition. ``salt`` > 1 is the HOT-KEY defuser (the
    north rule's salted repartitioning applied to the join): each
    LEFT row lands in one of ``salt`` sub-buckets of its key's
    partition while every RIGHT row is replicated into all ``salt``
    sub-buckets, and no exchange task holds two sub-buckets of one
    bucket — a hot key's probe side fans across ``salt`` tasks at
    the cost of ``salt``x the (small) build side, and every (l, r)
    pair still meets exactly once, so the OUTPUT is identical for any
    salt (pinned in tests)."""
    keys = [on] if isinstance(on, str) else list(on)
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    if how == "outer" and salt > 1:
        # replicating the right side into sub-buckets would emit its
        # unmatched rows once per sub-bucket, so outer joins run
        # unsalted (num_partitions spreads keys, not one hot key)
        raise ValueError("salt > 1 is not supported with how='outer'")
    num_partitions = num_partitions or _auto_virtual_parts()
    ls = pa.schema(left.schema().base_schema)
    rs = pa.schema(right.schema().base_schema)
    for k in keys:
        if k not in ls.names or k not in rs.names:
            raise ValueError(f"join key {k!r} missing from a side")
    l_cols = [c for c in ls.names if c not in ("part", "__side")]
    r_ren = {c: (c + suffix if (c in ls.names and c not in keys) else c)
             for c in rs.names if c not in ("part", "__side")}
    r_cols = [r_ren[c] for c in rs.names
              if c not in ("part", "__side") and c not in keys]
    out_left_only = how in ("semi", "anti")
    combined = pa.schema(
        [ls.field(c) for c in l_cols]
        + [pa.field(r_ren[c], rs.field(c).type) for c in rs.names
           if c not in ("part", "__side") and c not in keys]
        + [pa.field("__side", pa.int8()), pa.field("part", pa.int32())])

    inv_ren = {v: k for k, v in r_ren.items()}

    def tag(side: int):
        def _tag(t: pa.Table) -> pa.Table:
            h = None
            for k in keys:
                # hash the CANONICAL STRING of each key, not its numpy
                # dtype image: a block whose int64 key column carries
                # one null degrades to float64 under to_numpy, and
                # pandas hashes int64(1) and float64(1.0) differently —
                # dtype-dependent hashing would route the same key to
                # different partitions per block/side and silently drop
                # matches (found in review)
                hk = hash_str_array(pc.cast(t.column(k), pa.string()))
                h = hk if h is None else (
                    (h * np.uint64(0x9E3779B97F4A7C15)) ^ hk)
            base = (h % np.uint64(num_partitions)).astype(np.int64)
            if salt > 1 and side == 0:
                # ROW-VARYING sub-bucket (a key-derived sub-bucket
                # would send every row of the hot key to one task —
                # found in review): cycle within the batch; ANY
                # assignment is correct (each left row joins in
                # exactly one sub-bucket, the right side is in all)
                sub = np.arange(t.num_rows, dtype=np.int64) % salt
                part = pa.array((base * salt + sub).astype(np.int32))
            elif salt > 1:
                # right side: replicate into every sub-bucket
                n = t.num_rows
                rep = pa.array(np.repeat(np.arange(n, dtype=np.int64),
                                         salt))
                t = t.take(rep)
                base = np.repeat(base, salt)
                sub = np.tile(np.arange(salt, dtype=np.int64), n)
                part = pa.array((base * salt + sub).astype(np.int32))
            else:
                part = pa.array(base.astype(np.int32))
            cols = {}
            for f in combined:
                if f.name == "__side":
                    cols[f.name] = pa.array(
                        np.full(t.num_rows, side, np.int8))
                elif f.name == "part":
                    cols[f.name] = part
                else:
                    src = f.name
                    if side == 1:
                        src = inv_ren.get(f.name, f.name)
                        have = src in rs.names and (
                            f.name in r_cols or src in keys)
                    else:
                        have = f.name in ls.names
                    cols[f.name] = (t.column(src).cast(f.type) if have
                                    else pa.nulls(t.num_rows, f.type))
            return pa.table(cols, schema=combined)
        return _tag

    def join_part(g: pa.Table) -> pa.Table:
        side = g.column("__side").to_numpy(zero_copy_only=False)
        body = g.drop_columns(["__side", "part"])
        lt = body.filter(pa.array(side == 0)).select(l_cols)
        rt = body.filter(pa.array(side == 1)).select(keys + r_cols)
        ldf = lt.to_pandas(types_mapper=pd.ArrowDtype)
        rdf = rt.to_pandas(types_mapper=pd.ArrowDtype)
        if how == "outer":
            # SQL FULL OUTER: null-key rows from EITHER side survive
            # unmatched. pandas merge would pair NA keys with each
            # other, so they are carved out and re-appended after the
            # non-null merge (concat re-nulls the absent side).
            lnull = ldf[keys].isna().any(axis=1).to_numpy()
            rnull = rdf[keys].isna().any(axis=1).to_numpy()
            out = ldf[~lnull].merge(rdf[~rnull], on=keys, how="outer")
            parts = [out]
            if lnull.any():
                parts.append(ldf[lnull])
            if rnull.any():
                parts.append(rdf[rnull])
            if len(parts) > 1:
                out = pd.concat(parts, ignore_index=True)
            want = l_cols + r_cols
            return pa.Table.from_pandas(
                out[want], preserve_index=False).cast(out_schema)
        rdf = rdf.dropna(subset=keys)          # null keys never match
        if how in ("inner", "semi", "anti"):
            lnn = ldf.dropna(subset=keys) if how != "anti" else ldf
        else:
            lnn = ldf
        if how == "inner":
            out = lnn.merge(rdf, on=keys, how="inner")
        elif how == "left":
            out = lnn.merge(rdf, on=keys, how="left")
        else:
            rk = rdf[keys].drop_duplicates()
            m = lnn.merge(rk, on=keys, how="left", indicator=True)
            keep = (m["_merge"] == "both") if how == "semi" else \
                   (m["_merge"] == "left_only")
            out = lnn[keep.to_numpy()]
        want = l_cols if out_left_only else l_cols + r_cols
        return pa.Table.from_pandas(out[want], preserve_index=False)

    out_schema = pa.schema(
        [combined.field(c)
         for c in (l_cols if out_left_only else l_cols + r_cols)])
    tagged = (left.map_batches(tag(0), batch_format="pyarrow")
              .union(right.map_batches(tag(1), batch_format="pyarrow")))
    # joins can't refold (splitting a partition would separate build
    # and probe rows of a key) — hot keys are the salt's job
    return file_exchange_map_groups(
        tagged, join_part, empty_result=out_schema.empty_table(),
        salt=salt, target_bytes=target_bytes, _plan_out=_plan_out)
