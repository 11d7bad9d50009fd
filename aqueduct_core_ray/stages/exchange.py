"""The library's keyed exchange: the one way a library operator
key-partitions its rows.

``file_exchange_map_groups(src, fn, keys=[...])`` sends every row with
equal key values to one part and runs ``fn`` once per part. Routing is
one rule, ``key_parts(t, keys, P)``, applied inside the writer tasks
with ``P = _auto_virtual_parts()`` fixed on the driver: a key's part
depends only on its logical value (every integer width and temporal
type by its int64 image, plain/large/dictionary strings by
``hash_str_array``, any other type by its string cast, nulls to one
fixed part). ``fx_agg_by``/``fx_sum_by`` and ``fx_join`` route by the
same rule. Owners whose part count defines a persisted layout (the
engine's doc_id partitions, index shards, pack partitions) pass an
explicit int ``part`` column instead of ``keys``.

It runs on the same file format as the engine's waves
(stages/exchange_files.py: one writer, one manifest, one reader):
writer tasks slice each block by part into one IPC file per block
(record batch per part), the manifests of slice sizes return to the
driver, which cuts the parts into byte-budgeted runs, and one raw Ray
task per run applies ``fn`` to each of its parts. Ray Data's
sort-based ``groupby`` (a ~3 s fixed floor per shuffle at any data
size) is not used anywhere in the package.

Inputs. An exchange reads one of two kinds:
- a leaf read (``leaf(paths, columns=, filter=)``): parquet row groups
  cut into units by the engine's scan packing (stages/scan_units.py),
  one raw writer task per unit;
- a list of block refs (``Exchanged.refs`` of an earlier exchange, the
  refs of ``map_blocks``, or any ``ObjectRef`` of a ``pa.Table``): one
  raw writer task per block;
or a tuple of them: a CO-GROUP. ``fn(t0, t1, ...)`` gets one table per
member with that member's rows of the part, so the sides of a join
never share a schema, a tag column or null padding: the one join shape
of the library. ``fx_join`` is the co-group whose part function is
Arrow's hash join. A ``ray.data.Dataset`` is not an input: every entry
point raises ``TypeError`` on one (Ray Data stays at the library's
public boundary, where results become Datasets).
``fx_join`` picks its strategy from the build side's size: a right
side that is a leaf of at most ``BROADCAST_BYTES`` parquet footer bytes
(known before any task runs; the constant is a measured crossover) is
read once and joined whole by one task per left unit or block, with no
exchange; ``outer`` and refs right sides (whose size is known only
after their tasks ran) route.
A query writes one join; the engine, not the query, chooses.
An optional per-block ``pre`` function (conform, partial fold) runs
inside the writer task before the key route and the slicing. Writers
are raw Ray tasks under a ``ray.wait`` window of 2x the cluster's
CPUs. A public call reads the cluster's CPUs once and puts each of its
functions in the object store once, for all of its tasks. Every entry
point returns ``Exchanged(refs, schema)`` (``map_blocks`` returns the
refs alone): the partition tasks' output refs, chainable straight into
the next exchange with no Ray Data execution in between, and the input
schema the writers reported.

Ordered shapes. ``window(src, partition_by, order_by, fn)`` is SQL's
``OVER (PARTITION BY ... ORDER BY ...)``: the keyed exchange whose task
sorts its rows once and calls ``fn(sorted, starts)`` with every
partition's first row, for ``fn`` to compute all of them in one
vectorized pass (``seg_ids``, ``seg_cumsum``, ``seg_shift``).
``segments`` is the one sort-and-segment rule; ``each_group`` takes its
sort and starts from it too.

Schemas come from the writers: each manifest carries the schema of the
table it wrote, the exchange unifies each member's schemas (never
across members), and every member's slices reach ``fn`` conformed to
its schema (missing columns as typed nulls). The empty-exchange probe
and ``fx_join``'s key check read them. A leaf unit's read is typed
even when its filter keeps no row, and writers report typed empty
blocks too, so a member is untyped only when none of its blocks
carries a column (refs of column-less tables, or no block at all): it
reaches ``fn`` as a column-less empty table, ``fx_join`` joins it as an
empty side, and an exchange with no typed member returns
``pa.table({})`` unless the caller passes ``empty_result``.

Placement contract (same as the engine's lake root): ``root`` must be
on storage every worker can reach — node-local /tmp is correct in this
repo's single-node harness, a shared filesystem/object store on a real
cluster (``AQR_EXCHANGE_ROOT``). The exchange is a barrier; spill
pressure goes to the filesystem instead of the object store.
"""

from __future__ import annotations

import contextvars
import functools
import os
import shutil
import tempfile
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq

import ray

from aqueduct_core_ray import metrics
from aqueduct_core_ray.stages.exchange_files import (
    plan_slices,
    read_slices,
    write_slices,
)
from aqueduct_core_ray.stages.scan_units import (
    file_pieces,
    pack_units,
    unit_budget,
)


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


# a null key's digest: every null routes to one fixed part
_NULL_HASH = np.uint64(0x6E756C6C6B657921)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def key_family(typ: pa.DataType) -> "str | None":
    """A key type's routing family: int (every integer width and the
    temporal types), float, string (plain, large, dictionary) or other;
    None for the all-null type, which routes with any family."""
    if pa.types.is_dictionary(typ):
        typ = typ.value_type
    if pa.types.is_null(typ):
        return None
    if pa.types.is_integer(typ) or pa.types.is_temporal(typ):
        return "int"
    if pa.types.is_floating(typ):
        return "float"
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return "string"
    return "other"


def _column_hash(col: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """uint64 digest per row of one key column, a function of the
    logical value only: integers and temporals by their int64 image,
    strings by ``hash_str_array``, any other type by the string cast
    of its values, nulls by one constant."""
    typ = col.type
    if pa.types.is_dictionary(typ):
        col, typ = pc.cast(col, typ.value_type), typ.value_type
    fam = key_family(typ)
    if fam == "int":
        if pa.types.is_temporal(typ):
            col = pc.cast(col, pa.int32() if typ.bit_width == 32
                          else pa.int64())
        # a copy: pandas mixes an int64 input in place
        h = pd.util.hash_array(np.array(
            pc.cast(col, pa.int64(), safe=False).fill_null(0),
            dtype=np.int64), categorize=False)
    else:
        h = hash_str_array(col if fam == "string"
                           else pc.cast(col, pa.string()))
    if col.null_count:
        h[~pc.is_valid(col).to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def key_hash(t: pa.Table, keys: "list[str]") -> np.ndarray:
    """uint64 routing digest per row of ``t`` over the ``keys`` columns
    (combined in order, so distinct tuples get distinct digests)."""
    h = None
    for k in keys:
        hk = _column_hash(t.column(k))
        h = hk if h is None else (h * _MIX) ^ hk
    return h


def key_parts(t: pa.Table, keys: "list[str]", P: int) -> np.ndarray:
    """THE routing rule of every keyed exchange: int32 part in [0, P)
    per row, ``key_hash % P``."""
    return (key_hash(t, keys) % np.uint64(P)).astype(np.int32)


# the cluster's CPU count inside one public exchange call (``_per_call``)
_CALL_CPUS: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "aqr_exchange_cpus", default=None)


def _per_call(f: Callable) -> Callable:
    """A public exchange call asks Ray for the cluster's CPUs once: the
    unit packing, the writer window, P and the run cap of the call (and
    of the calls it makes) all read that one value."""
    @functools.wraps(f)
    def call(*args, **kwargs):
        if _CALL_CPUS.get() is not None:
            return f(*args, **kwargs)
        token = _CALL_CPUS.set(_cluster_cpus())
        try:
            return f(*args, **kwargs)
        finally:
            _CALL_CPUS.reset(token)
    return call


def _put(obj: Any, tasks: int) -> Any:
    """``obj`` for ``tasks`` task submissions: in the object store when
    there are several, pickled once for all of them (a callable passed
    to ``.remote`` is pickled again per task); as itself for one task
    or none, where a put would only add its own round trip. None stays
    None."""
    return ray.put(obj) if obj is not None and tasks > 1 else obj


@dataclass(frozen=True)
class Leaf:
    """A parquet leaf read: files, projected ``columns`` and an optional
    pyarrow ``filter`` expression (its columns need not be projected)."""
    files: "tuple[str, ...]"
    columns: "tuple[str, ...] | None" = None
    filter: Any = None

    def pieces(self) -> list:
        """(file, row_group, est. compressed bytes) per row group, read
        from the footers."""
        return [p for f in self.files for p in file_pieces(f)]

    def units(self) -> list:
        """Row-group units packed like the engine's scan units: about
        two per CPU, each within scan_units' MIN/MAX_UNIT_BYTES."""
        pieces = self.pieces()
        return pack_units(pieces, unit_budget(
            sum(b for *_, b in pieces), _cluster_cpus()))


def leaf(paths: "str | list[str]", columns: "list[str] | None" = None,
         filter: Any = None) -> Leaf:
    """A leaf input over parquet file(s) or directories of them."""
    paths = [paths] if isinstance(paths, str) else list(paths)
    files = [f for p in paths for f in (
        [p] if os.path.isfile(p)
        else pads.dataset(p, format="parquet").files)]
    if not files:
        raise ValueError(f"no parquet files under {paths!r}")
    return Leaf(tuple(files), None if columns is None else tuple(columns),
                filter)


def _read_unit(unit: list, columns: "tuple[str, ...] | None",
               filter: Any) -> pa.Table:
    """One leaf unit's rows: its (file, row_group_ids | None) pieces,
    projected and filtered, concatenated in order."""
    fmt, fs = pads.ParquetFileFormat(), pafs.LocalFileSystem()
    tabs = [fmt.make_fragment(path, fs, row_groups=rgs).to_table(
                columns=None if columns is None else list(columns),
                filter=filter)
            for path, rgs in unit]
    return (tabs[0] if len(tabs) == 1
            else pa.concat_tables(tabs, promote_options="permissive"))


def _load(item: "pa.Table | tuple") -> pa.Table:
    """A raw task's input block: a leaf unit's (unit, columns, filter)
    read, or a resolved block ref's table."""
    return _read_unit(*item) if isinstance(item, tuple) else item


def _route(t: pa.Table, keys: "list[str]", P: int, salt: int
           ) -> pa.Table:
    """``t`` with its ``part`` column set to ``key_parts`` (an inbound
    ``part`` is replaced); an empty block gets an empty one. With
    ``salt`` > 1, row ``i`` of the block goes to sub-bucket ``i %
    salt`` of its key's part: a hot key's rows spread over ``salt``
    parts (fx_join repeats each build-side row ``salt`` times in a row,
    so its copies land in every sub-bucket)."""
    if "part" in t.column_names:
        t = t.drop_columns(["part"])
    parts = key_parts(t, keys, P) if t.num_rows else np.empty(0, np.int32)
    if salt > 1:
        parts = parts * salt + np.arange(len(parts), dtype=np.int32) % salt
    return t.append_column("part", pa.array(parts, pa.int32()))


def _pre(t: pa.Table, pre: "Callable[[pa.Table], pa.Table] | None"
         ) -> pa.Table:
    """``pre`` over a block, skipped on a column-less one."""
    return pre(t) if pre is not None and t.num_columns else t


@ray.remote(num_cpus=1)
def _write_task(item, xdir: str, pre, keys: "list[str] | None",
                P: int, salt: int) -> pa.Table:
    """``pre`` and the key route over the block (both skipped on a
    column-less one), then the shared slice writer, uncompressed."""
    t = _pre(_load(item), pre)
    if keys and t.num_columns:
        t = _route(t, keys, P, salt)
    return write_slices(t, xdir)


@ray.remote(num_cpus=1)
def _map_task(item, fn) -> pa.Table:
    return fn(_load(item))


def _windowed(jobs: Iterable, submit: Callable) -> list:
    """Submit ``submit(*job)`` for every job (pulled lazily, as the
    window frees), at most 2x the cluster's CPUs in flight; the refs
    come back in job order."""
    window = 2 * _cluster_cpus()
    refs, pending = [], []
    for job in jobs:
        if len(pending) >= window:
            _, pending = ray.wait(pending, num_returns=1)
        refs.append(submit(*job))
        # a multi-return task is waited on by its first return
        pending.append(refs[-1][0] if isinstance(refs[-1], list)
                       else refs[-1])
    return refs


def _kind(src: "Leaf | list") -> str:
    """An exchange input's kind, ``leaf`` or ``refs``; anything else
    (a ``ray.data.Dataset`` included) is a ``TypeError``."""
    if isinstance(src, Leaf):
        return "leaf"
    if isinstance(src, list) and all(isinstance(r, ray.ObjectRef)
                                     for r in src):
        return "refs"
    raise TypeError(f"exchange input {type(src).__name__}: expected a "
                    f"leaf (exchange.leaf(paths, columns=, filter=)) or "
                    f"a list of block refs (Exchanged.refs, map_blocks)")


def _raw_items(src: "Leaf | list") -> list:
    """An input's task items: leaf units or block refs."""
    if _kind(src) == "leaf":
        return [(u, src.columns, src.filter) for u in src.units()]
    return list(src)


@_per_call
def map_blocks(src: "Leaf | list", fn: Callable[[pa.Table], pa.Table]
               ) -> "list[ray.ObjectRef]":
    """``fn`` over every block of a leaf or refs input as raw tasks under
    the writer window — a narrow pass with no exchange and no Ray Data
    execution. Refs come back in input order."""
    items = _raw_items(src)
    fn_ref = _put(fn, len(items))
    return _windowed([(i, fn_ref) for i in items], _map_task.remote)


def _n_rows(t: pa.Table) -> pa.Table:
    return pa.table({"n": pa.array([t.num_rows], pa.int64())})


def row_count(src: "Leaf | list") -> int:
    """The rows of a leaf or refs input, counted in ``map_blocks`` tasks
    (only the counts reach the driver)."""
    return sum(t.column("n")[0].as_py()
               for t in ray.get(map_blocks(src, _n_rows)))


def write_file(t: pa.Table, out_dir: str) -> pa.Table:
    """A ``map_blocks`` writer: ``t`` as one new uuid-named parquet file
    in ``out_dir`` (made on the first write; an empty block writes
    nothing); returns the one-row table ``n`` of the rows written.
    Writers never collide, and a later call appends."""
    if t.num_rows:
        os.makedirs(out_dir, exist_ok=True)
        pq.write_table(t, os.path.join(out_dir,
                                       f"{uuid.uuid4().hex}.parquet"))
    return _n_rows(t)


def write_parts(t: pa.Table, root: str, col: str) -> pa.Table:
    """A ``map_blocks`` writer: one ``write_file`` under
    ``root/<col>=N`` per value N of ``t``'s int ``col`` column (the
    files leave ``col`` out, as a hive layout does); returns the
    one-row table ``n`` of the rows written."""
    parts = t.column(col).to_numpy(zero_copy_only=False)
    rest = t.drop_columns([col])
    for p in np.unique(parts):
        write_file(rest.filter(pa.array(parts == p)),
                   os.path.join(root, f"{col}={p}"))
    return _n_rows(t)


class Exchanged(NamedTuple):
    """A leaf/refs exchange's result: the partition tasks' output refs
    (ascending part order; one typed empty table when no part had
    rows) and the unified input schema the writers reported (a tuple
    of one per member for a co-group)."""
    refs: "list[ray.ObjectRef]"
    schema: "pa.Schema | tuple | None"


def _inputs(src, pre, keys) -> "list[tuple[str, Any, Any, Any]]":
    """(kind, input, pre, keys) per member; a tuple ``src`` is a
    co-group and takes one ``pre`` and one ``keys`` list for all
    members, or a tuple of them."""
    members = list(src) if isinstance(src, tuple) else [src]
    pres, keyss = ((list(x) if isinstance(x, tuple) else [x] * len(members))
                   for x in (pre, keys))
    if len(pres) != len(members) or len(keyss) != len(members):
        raise ValueError(f"{len(pres)} pre functions and {len(keyss)} "
                         f"key lists for {len(members)} inputs")
    return [(_kind(m), m, p, k) for m, p, k in zip(members, pres, keyss)]


def _write_inputs(inputs: list, xdir: str, salt: int
                  ) -> "list[list[pa.Table]]":
    """Every member's writer manifests: one raw writer task per leaf
    unit or block, in input order under the window. ``P`` is fixed
    here, on the driver, so every writer routes alike."""
    P = _auto_virtual_parts()
    member: "list[int]" = []

    def jobs():
        for m, (_, obj, p, k) in enumerate(inputs):
            items = _raw_items(obj)
            p = _put(p, len(items))
            for it in items:
                member.append(m)
                yield it, xdir, p, k, P, salt

    manifests = ray.get(_windowed(jobs(), _write_task.remote))
    out: "list[list[pa.Table]]" = [[] for _ in inputs]
    for m, man in zip(member, manifests):
        out[m].append(man)
    return out


def _concat(tabs: "list[pa.Table]") -> pa.Table:
    # align by NAME order when tables disagree (e.g. one producer's
    # blocks of different vintages); a Schema carrying parquet/pandas
    # metadata is unhashable, so only column names are compared
    names0 = tabs[0].column_names
    if any(t.column_names != names0 for t in tabs[1:]):
        tabs = [t.select(sorted(t.column_names)) for t in tabs]
    return pa.concat_tables(tabs, promote_options="default")


def _conform(t: pa.Table, schema: "pa.Schema | None") -> pa.Table:
    """``t`` with the exchange schema's columns in its order and types
    (an int32 slice of an int64 column is cast); a column the slice
    does not carry comes as typed nulls."""
    if schema is None or (t.column_names == schema.names
                          and t.schema.types == schema.types):
        return t
    have = set(t.column_names)
    cols = {f.name: (t.column(f.name).cast(f.type) if f.name in have
                     else pa.nulls(t.num_rows, f.type)) for f in schema}
    cols.update({c: t.column(c) for c in t.column_names if c not in cols})
    return pa.table(cols)


def _empty(schema: "pa.Schema | None") -> pa.Table:
    """A member's typed empty table (column-less when no writer typed
    it)."""
    return schema.empty_table() if schema is not None else pa.table({})


def _member(tabs: "list[pa.Table]", schema: "pa.Schema | None"
            ) -> pa.Table:
    return _concat(tabs) if tabs else _empty(schema)


@ray.remote(num_cpus=1)
def _run_partition(fn: Callable[..., pa.Table],
                   run: "list[list[list[tuple[str, int]]]]",
                   schemas: "list[pa.Schema | None]", whole: bool
                   ) -> pa.Table:
    """One task per run over its parts' (path, batch) slices, per part
    one slice list per member, each slice conformed to its member's
    schema, in the run's (ascending) part order: ``fn`` once per part,
    or once over the whole run when ``whole`` (a keyed exchange: a run
    holds whole keys, like a part), with one table per member (a member
    with no rows there as a typed empty table); empty outputs are
    dropped unless all are empty."""
    tabs = iter(read_slices([e for part in run for es in part
                             for e in es]))
    parts = [[[_conform(next(tabs), s) for _ in es]
              for es, s in zip(part, schemas)] for part in run]
    if whole:
        parts = [[t for part in parts for t in part[m]]
                 for m in range(len(schemas))]
        outs = [fn(*[_member(ts, s) for ts, s in zip(parts, schemas)])]
    else:
        outs = [fn(*[_member(ts, s) for ts, s in zip(part, schemas)])
                for part in parts]
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
    cpus = _CALL_CPUS.get()
    if cpus is not None:
        return cpus
    if ray.is_initialized():
        try:
            return max(1, int(ray.cluster_resources().get("CPU", 8)))
        except ray.exceptions.RaySystemError:
            pass                # shut down since the check: use the default
    return 8


# byte budget of one partition task (a bigger part is chunk-folded
# when the caller gives a refold, else it runs alone)
TARGET_PART_BYTES = 256 * 1024 * 1024
# floor of a run's byte cap: smaller exchanges pack into one task
MIN_RUN_BYTES = 1 << 20


def _auto_virtual_parts() -> int:
    """The keyed exchanges' part count P: enough parts that byte-budget
    packing (not the modulus) decides task count, and that one part is
    a small fraction of the data."""
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


def _empty_exchange(schemas: "list[pa.Schema | None]", fn,
                    empty_result: "pa.Table | None") -> pa.Table:
    """The caller's typed empty wins; else fn's output on one empty
    table per member of the writers' schemas, falling back to the
    (first) input schema for fns that assume non-empty groups."""
    if empty_result is not None:
        return empty_result
    if all(s is None for s in schemas):     # no writer ran: no blocks
        return pa.table({})
    empty_in = [_empty(s) for s in schemas]
    try:
        return fn(*empty_in)
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
        return empty_in[0]


@_per_call
def file_exchange_map_groups(
    src: "Leaf | list | tuple",
    fn: Callable[..., pa.Table],
    keys: "list[str] | tuple | None" = None,
    root: "str | None" = None,
    empty_result: "pa.Table | None" = None,
    salt: int = 1,
    refold_fn: "Callable[[pa.Table], pa.Table] | None" = None,
    target_bytes: "int | None" = None,
    pre: "Callable[[pa.Table], pa.Table] | tuple | None" = None,
    _check: "Callable[[list], None] | None" = None,
    _plan_out: "dict | None" = None,
) -> Exchanged:
    """The library's keyed exchange: every row with equal ``keys``
    values reaches one part and ``fn`` runs over whole parts (with the
    int32 ``part`` column); output blocks come out in ascending part
    order. The writer tasks route each row by ``key_parts(t, keys, P)``
    after ``pre``, with ``P = _auto_virtual_parts()`` fixed on the
    driver; a key's part depends only on its logical value (see
    ``key_parts``), so a query's output must not depend on P, and
    ``fn`` runs once per task over the concatenation of the task's
    parts (a task holds whole keys, like a part). Without ``keys``,
    the rows carry an explicit int ``part`` column (the owners whose
    part count defines a layout: the engine's partitions, index
    shards, pack partitions) and ``fn`` runs once per NON-EMPTY part.
    The exchange is a barrier. Exchange files are deleted before
    returning — the result rows ride the object store.

    - ``src``: a ``Leaf`` (``leaf(paths, columns=, filter=)``), a list
      of block refs, or a tuple of these: a CO-GROUP, where ``fn(t0,
      t1, ...)`` receives one table per member, each in its own schema
      (a member with no rows in the part as a typed empty table). Any
      other input (a ``ray.data.Dataset`` too) raises ``TypeError``.
      The call returns ``Exchanged(refs, schema)`` and starts no Ray
      Data execution. Writers are raw tasks, one per leaf unit or
      block, at most 2x the cluster's CPUs in flight (``ray.wait``
      window).
    - ``pre``: per-block function run inside the writer task before the
      key route (conform, partial fold); for a tuple ``src``, one
      callable for all members or a tuple with one per member (None
      for none). ``keys`` likewise: one list, or one per member.
    - schema: each writer's manifest carries the schema of the table it
      wrote, empty blocks included; a member's schemas unify on their
      own (never across members, so two members may carry one column
      name at different types) into ``Exchanged.schema`` (a tuple, one
      per member, for a co-group). They type the empty result (``fn``
      on one empty table per member, unless ``empty_result``) and every
      member's slices reach ``fn`` conformed to its schema.

    Task layout is STAT-DRIVEN from the manifest's slice sizes (no
    second pass over the data): the parts, ascending, are cut into
    contiguous runs of up to ``max(MIN_RUN_BYTES, min(target_bytes,
    total // (2 * cluster CPUs)))`` bytes, and each run is one task — the
    number of parts does not set the task count.

    - ``_check``: called on the driver with the list of member schemas
      (None for a member no writer typed) before any partition task
      starts (``fx_join``'s key check).
    - ``salt``: a keyed route spreads each part over ``salt``
      sub-buckets (``part * salt + row % salt``, see ``_route``; the
      join's hot-key defuser); no run holds two sub-buckets of one
      part.
    - ``refold_fn`` (one input): a partition over ``target_bytes``
      (hot or unbounded key) runs alone, split into byte-budgeted
      chunks; ``fn`` folds each chunk and ``refold_fn`` folds the
      concatenated partials, so ``refold_fn(concat(fn(c1), fn(c2),
      ...))`` must equal ``fn(c1 + c2 + ...)``.
    - ``_plan_out``: test hook, filled with the planned ``tasks``,
      ``split`` (chunk-folded parts), ``packed`` (runs of >1 part),
      ``parts``, ``bytes`` and ``strategy`` (``"route"``; ``fx_join``'s
      broadcast says ``"broadcast"``). The same counts, with the input
      kind ``src`` (leaf / refs), the ``fn`` and ``pre`` names and the
      writer and task seconds, go to one ``op="exchange"`` row of
      ``metrics``."""
    inputs = _inputs(src, pre, keys)
    kind = "leaf" if any(k == "leaf" for k, *_ in inputs) else "refs"
    base = (root or os.environ.get("AQR_EXCHANGE_ROOT")
            or tempfile.gettempdir())
    _guard_shared_root(base, explicit=bool(
        root or os.environ.get("AQR_EXCHANGE_ROOT")),
        kind="exchange root", env="AQR_EXCHANGE_ROOT")
    xdir = os.path.join(base, f"aqr_xchg_{uuid.uuid4().hex}")
    os.makedirs(xdir, exist_ok=True)
    budget = target_bytes or TARGET_PART_BYTES
    t0 = time.perf_counter()
    try:
        plans, schemas = [], []
        for mans in _write_inputs(inputs, xdir, salt):
            plan, sch = plan_slices(mans)
            plans.append(plan)
            # fields in order of first appearance, types promoted
            schemas.append(pa.unify_schemas(
                sch, promote_options="permissive") if sch else None)
        if _check is not None:
            _check(schemas)
        t1 = time.perf_counter()
        sizes: "dict[int, int]" = {}
        for plan in plans:
            for p, es in plan.items():
                sizes[p] = sizes.get(p, 0) + sum(b for _, _, b in es)
        total = sum(sizes.values())
        cap = max(MIN_RUN_BYTES,
                  min(budget, total // (2 * _cluster_cpus())))
        runs = _cut_runs(sizes, cap, budget, salt)
        refs, n_split = [], 0
        fn_ref, refold_ref = _put(fn, len(runs)), None
        for run in runs:
            es = plans[0].get(run[0], [])
            if refold_fn is not None and sizes[run[0]] > budget \
                    and len(es) > 1:
                # oversized partition (alone in its run): chunk-fold +
                # refold (bounded per-task working set even under a
                # single hot key); chunks are cut like runs, by slice
                chunks = _cut_runs(dict(enumerate(b for _, _, b in es)),
                                   budget, budget, 1)
                if fn_ref is fn:    # the call's one run: chunks share fn
                    fn_ref = _put(fn, len(chunks))
                if refold_ref is None:
                    refold_ref = ray.put(refold_fn)
                refs.append(_refold_partials.remote(refold_ref, *[
                    _run_partition.remote(
                        fn_ref, [[[es[i][:2] for i in ch]]], schemas, False)
                    for ch in chunks]))
                n_split += 1
            else:
                refs.append(_run_partition.remote(
                    fn_ref, [[[e[:2] for e in plan.get(q, [])]
                              for plan in plans] for q in run], schemas,
                    keys is not None))
        stats = dict(strategy="route", tasks=len(runs), split=n_split,
                     packed=sum(len(r) > 1 for r in runs),
                     parts=len(sizes), bytes=total)
        if _plan_out is not None:
            _plan_out.update(stats)
        ray.wait(refs, num_returns=len(refs))  # files consumed: safe to rm
        t2 = time.perf_counter()
        out = Exchanged(refs or [ray.put(
            _empty_exchange(schemas, fn, empty_result))],
            schemas[0] if len(schemas) == 1 else tuple(schemas))
    finally:
        shutil.rmtree(xdir, ignore_errors=True)
    _record(fn, pre, kind, t0, t1, t2, stats)
    return out


def _name(fn: "Callable | None") -> "str | None":
    """A callable's name for a metrics row (a partial by its wrapped
    function's); None stays None."""
    if fn is None:
        return None
    return getattr(getattr(fn, "func", fn), "__name__", str(fn))


def _record(fn: Callable, pre: "Callable | tuple | None", kind: str,
            t0: float, t1: float, t2: float, stats: dict) -> None:
    """One ``op="exchange"`` metrics row: the partition function and the
    writers' ``pre`` by name (one per member for a co-group; the
    writer seconds include ``pre``), the writer (or broadcast task
    submission) seconds ``t1 - t0``, the task seconds ``t2 - t1`` and
    the plan's ``stats``."""
    metrics.record({"op": "exchange", "fn": _name(fn),
                    "pre": ([_name(p) for p in pre]
                            if isinstance(pre, tuple) else _name(pre)),
                    "src": kind,
                    "ok": True, "wall_s": round(time.perf_counter() - t0, 6),
                    "write_s": round(t1 - t0, 6),
                    "run_s": round(t2 - t1, 6), **stats})


def fx_agg_by(src: "Leaf | list",
              keys: "list[str]",
              aggs: "list[tuple[str, str]]",
              target_bytes: "int | None" = None,
              pre: "Callable[[pa.Table], pa.Table] | tuple | None" = None,
              _plan_out: "dict | None" = None
              ) -> Exchanged:
    """``GROUP BY keys`` with Arrow aggregates over the keyed exchange —
    for UNBOUNDED-cardinality grouped aggregates where a driver fold
    (analytics._fold_partials) would not be scale-safe and the native
    Aggregate pays the sort-shuffle floor. ``aggs`` are Arrow group_by
    (column, kind) pairs with kind in {sum, min, max, count}; kinds
    must be re-foldable over partials (they are — callers feed
    per-block partials of the same kind). Output columns keep the
    input names (no "sum(x)" renames). ``src`` is any exchange input
    and ``pre`` its per-block function (see
    ``file_exchange_map_groups``).

    The exchange packs whole parts into byte-budgeted tasks from the
    manifest's measured slice sizes, so task count scales with data
    volume, and a single oversized part (hot/low-cardinality key) is
    chunk-folded then re-folded so no task's working set exceeds
    ``target_bytes``."""
    if isinstance(src, tuple):
        raise TypeError("fx_agg_by folds one input; join a co-group with "
                        "fx_join or file_exchange_map_groups")

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
        src, fold, keys=keys, refold_fn=refold, target_bytes=target_bytes,
        pre=pre, _plan_out=_plan_out)


def fx_sum_by(src: "Leaf | list",
              keys: "list[str]", sums: "list[str]",
              pre: "Callable[[pa.Table], pa.Table] | tuple | None" = None
              ) -> Exchanged:
    """``GROUP BY keys`` summing ``sums`` over the keyed exchange."""
    return fx_agg_by(src, keys, [(c, "sum") for c in sums], pre=pre)


def _key_ones(t: pa.Table, keys: "list[str]", name: str) -> pa.Table:
    return t.select(keys).append_column(
        name, pa.array(np.ones(t.num_rows, np.int64)))


def fx_count_by(src: "Leaf | list",
                keys: "list[str]", name: str
                ) -> Exchanged:
    """``GROUP BY keys`` with ``COUNT(*)`` as the int64 column ``name``
    (a null key is a group) over the keyed exchange."""
    return fx_sum_by(src, keys, [name], pre=functools.partial(
        _key_ones, keys=keys, name=name))


def segments(t: pa.Table, keys: "list[str]", order_by: "list[str]" = ()
             ) -> "tuple[pa.Table, np.ndarray]":
    """THE sort-and-segment rule: ``t`` sorted by ``keys`` then
    ``order_by`` (ascending, stable, nulls last) and the int64 row
    offsets where the ``keys`` values change (one per segment; equal
    values by their dictionary codes, so nulls are one value)."""
    t = t.sort_by([(c, "ascending") for c in [*keys, *order_by]])
    change = np.zeros(max(t.num_rows - 1, 0), bool)
    for k in keys:
        codes = dict_encode(t.column(k)).indices.to_numpy()
        change |= codes[1:] != codes[:-1]
    head = np.ones(min(t.num_rows, 1), bool)
    return t, np.flatnonzero(np.concatenate([head, change]))


def seg_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Each of ``n`` rows' segment index."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


def seg_cumsum(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running sum of ``v`` within each segment (the current row
    included)."""
    cs = np.cumsum(v)
    return cs - (cs - v)[starts][seg_ids(starts, len(v))]


def seg_shift(v: np.ndarray, starts: np.ndarray, k: int = 1
              ) -> np.ma.MaskedArray:
    """``v`` of the row ``k`` rows earlier (LAG; ``k`` < 0 is LEAD) in
    the same segment, masked where that row is outside the segment."""
    n = len(v)
    seg = seg_ids(starts, n)
    src = np.arange(n) - k
    ok = (src >= 0) & (src < n)
    ok[ok] = seg[src[ok]] == seg[ok]
    return np.ma.masked_array(v[np.clip(src, 0, max(n - 1, 0))], mask=~ok)


def _window_part(t: pa.Table, partition_by: "list[str]",
                 order_by: "list[str]", fn: Callable) -> pa.Table:
    if "part" in t.column_names:
        t = t.drop_columns(["part"])
    return fn(*segments(t, partition_by, order_by))


def window(src: "Leaf | list",
           partition_by: "list[str]", order_by: "list[str]",
           fn: Callable[[pa.Table, np.ndarray], pa.Table],
           pre: "Callable[[pa.Table], pa.Table] | None" = None,
           empty_result: "pa.Table | None" = None
           ) -> Exchanged:
    """SQL's ``OVER (PARTITION BY partition_by ORDER BY order_by)``: a
    keyed exchange on ``partition_by`` whose task sorts its rows once by
    ``(partition_by, order_by)`` (``segments``) and calls ``fn(sorted,
    starts)`` with the row offset of every partition's first row — one
    vectorized pass over all of the task's partitions, never a call per
    partition. ``seg_ids``/``seg_cumsum``/``seg_shift`` are the
    per-segment kernels. ``src``, ``pre`` and ``empty_result`` are the
    exchange's (``fn`` on a typed empty table types an empty result)."""
    return file_exchange_map_groups(
        src, functools.partial(_window_part, partition_by=partition_by,
                               order_by=order_by, fn=fn),
        keys=partition_by, pre=pre, empty_result=empty_result)


def _each_group(g: pa.Table, fn: Callable[[pa.Table], pa.Table],
                keys: "list[str]") -> pa.Table:
    g, starts = segments(g, keys)
    outs = [fn(g.slice(s, e - s))
            for s, e in zip(starts, np.append(starts[1:], g.num_rows))]
    return _concat(outs) if outs else fn(g)


def each_group(fn: Callable[[pa.Table], pa.Table], keys: "list[str]"
               ) -> Callable[[pa.Table], pa.Table]:
    """A part function calling ``fn`` once per distinct ``keys`` value
    of the part, in ascending key order: the ``groupby(keys)
    .map_groups(fn)`` shape for a bounded group count (types, sources,
    columns), on a ``keys=`` exchange over the same keys."""
    return functools.partial(_each_group, fn=fn, keys=keys)


_JOIN_TYPES = {"inner": "inner", "left": "left outer",
               "outer": "full outer", "semi": "left semi",
               "anti": "left anti"}


def _row_index(t: pa.Table, keys: "list[str]", name: str,
               types: "list[pa.DataType]") -> pa.Table:
    """``t``'s key columns (cast to ``types``) and an int64 row index."""
    return pa.table([t.column(k).cast(ty) for k, ty in zip(keys, types)]
                    + [pa.array(np.arange(t.num_rows, dtype=np.int64))],
                    names=keys + [name])


def _join_part(lt: pa.Table, rt: pa.Table, keys: "list[str]", how: str,
               suffix: str) -> pa.Table:
    """One part of ``fx_join``: Acero joins the two sides' key columns
    plus a row index each, then each side's payload is ``take``-n by
    its index (payloads never enter Acero, which refuses some payload
    types such as lists). Null keys never match; outer keys come out
    coalesced."""
    lt, rt = (t.drop_columns(["part"]) if "part" in t.column_names else t
              for t in (lt, rt))
    # a side no writer typed joins as an empty side of the other's keys
    if lt.num_columns == 0:
        lt = rt.select(keys).slice(0, 0)
    if rt.num_columns == 0:
        rt = lt.select(keys).slice(0, 0)
    types = [lt.schema.field(k).type for k in keys]
    # row-index names longer than any key name, so never one of them
    li, ri = ("_".join(["__row", side] + keys) for side in ("l", "r"))
    j = _row_index(lt, keys, li, types).join(
        _row_index(rt, keys, ri, types), keys=keys,
        join_type=_JOIN_TYPES[how], use_threads=False, coalesce_keys=True)
    lrows = j.column(li)
    if how in ("semi", "anti"):
        # in left row order
        return lt.take(pa.array(np.sort(lrows.to_numpy())))
    left = lt.take(lrows)
    right = rt.take(j.column(ri))
    cols = {c: (j.column(c) if c in keys else left.column(c))
            for c in lt.column_names}
    for c in rt.column_names:
        if c not in keys:
            cols[c + suffix if c in cols else c] = right.column(c)
    return pa.table(cols)


# the largest right side, in parquet footer bytes (the files' whole
# compressed size, as ``Leaf.pieces`` estimates it: a projection or a
# filter is not counted, which errs toward routing), that fx_join ships
# whole to every left task instead of routing both sides. Every left
# task hashes all of it, and a left side has about two tasks per CPU,
# so broadcast's cost grows with the cluster and routing's does not:
# measured (BASELINE.md round 16), broadcast wins past 50 MiB on one
# CPU but only up to about 7 MiB on 4 CPUs and 5 MiB on 8. One scan
# unit (scan_units.MIN_UNIT_BYTES) stays under the 8-CPU crossover
BROADCAST_BYTES = 4 << 20


def _whole(tabs: "tuple[pa.Table, ...]") -> pa.Table:
    """A broadcast side's blocks as one table, each conformed to their
    unified schema (column-less blocks dropped; none typed: column-less)."""
    typed = [t for t in tabs if t.num_columns]
    if not typed:
        return pa.table({})
    schema = pa.unify_schemas([t.schema for t in typed],
                              promote_options="permissive")
    return _concat([_conform(t, schema) for t in typed])


@ray.remote(num_cpus=1, num_returns=2)
def _broadcast_task(item, pre, join: Callable, check: Callable,
                    *right: pa.Table):
    """One left block (``pre`` applied) joined against the whole right
    side; the second return is (left schema, right schema, output rows,
    output schema) for the driver (a side's schema is None when it is
    column-less)."""
    lt, rt = _pre(_load(item), pre), _whole(right)
    schemas = [t.schema if t.num_columns else None for t in (lt, rt)]
    check(schemas)
    out = join(lt, rt)
    return out, (*schemas, out.num_rows, out.schema)


def _broadcast_join(left: "Leaf | list", right: Leaf,
                    nbytes: int, join: Callable, pre: tuple,
                    check: Callable, plan_out: "dict | None"
                    ) -> Exchanged:
    """``join`` with the right side read once (``map_blocks`` with its
    ``pre``) and handed whole to one raw task per left unit or block,
    submitted at once (each waits on the right refs, not the driver):
    no exchange files, the left side moves once. Refs come back in left
    block order, empty outputs dropped unless all are; a left side whose
    blocks differ in type gives outputs conformed to the routed path's
    output schema (the join of the unified side schemas)."""
    kind = _kind(left)
    lpre, rpre = pre
    t0 = time.perf_counter()
    rrefs = map_blocks(right, functools.partial(_pre, pre=rpre))
    items = _raw_items(left)
    args = (*(_put(f, len(items)) for f in (lpre, join, check)), *rrefs)
    pairs = (_windowed(((it, *args) for it in items),
                       _broadcast_task.remote)
             or [_broadcast_task.remote(pa.table({}), *args)])
    t1 = time.perf_counter()
    metas = ray.get([m for _, m in pairs])
    t2 = time.perf_counter()
    lsch = [m[0] for m in metas if m[0] is not None]
    schema = (pa.unify_schemas(lsch, promote_options="permissive")
              if lsch else None, metas[0][1])
    keep = [i for i, m in enumerate(metas) if m[2]] or [0]
    refs = [pairs[i][0] for i in keep]
    if any(schema):
        out = join(*(_empty(s) for s in schema)).schema
        odd = [j for j, i in enumerate(keep) if not metas[i][3].equals(out)]
        for j, r in zip(odd, map_blocks([refs[j] for j in odd],
                                        functools.partial(_conform,
                                                          schema=out))):
            refs[j] = r
    stats = dict(strategy="broadcast", tasks=len(pairs), split=0, packed=0,
                 parts=0, bytes=nbytes)
    if plan_out is not None:
        plan_out.update(stats)
    _record(join, pre, kind, t0, t1, t2, stats)
    return Exchanged(refs, schema)


@_per_call
def fx_join(left: "Leaf | list",
            right: "Leaf | list",
            on: "list[str] | str", how: str = "inner",
            suffix: str = "_r", salt: int = 1,
            target_bytes: "int | None" = None,
            pre: "tuple | None" = None,
            _plan_out: "dict | None" = None
            ) -> Exchanged:
    """Generic hash EQUI-JOIN: each part of the output is Arrow's hash
    join of matching left and right rows (``_join_part``). Key columns
    of the two sides must share a routing family (``key_family``:
    int/temporal, float, string, other), else a ``ValueError`` naming
    the key is raised (routed: before any partition task runs;
    broadcast: by the first left task). Right key columns compare at
    the left key types.

    Either side is an exchange input (``Leaf`` or block refs);
    ``pre=(left_fn, right_fn)`` conforms a side's blocks inside the
    task that reads them. Each side's schema comes from those tasks, so
    no schema is probed up front.

    ``how``: inner | left | outer | semi | anti. SQL null-key semantics
    on the MATCH: a null key never matches, and in ``outer`` a null-key
    row from EITHER side survives as an unmatched row, exactly like SQL
    FULL OUTER JOIN. ``outer`` key columns are coalesced (right-only
    rows carry the right side's key values). ``anti`` is NOT EXISTS,
    not NOT IN: a left row whose key is null or matches nothing is KEPT
    (SQL NOT IN returns zero rows when the probe list contains a null —
    use an explicit null filter on both sides if NOT IN semantics are
    wanted). Non-key right columns that collide with a left name get
    ``suffix``; semi/anti return the left columns only, each left row
    at most once per its own multiplicity. Output columns keep their
    input Arrow types. ``part`` is the exchange's reserved column name
    — an inbound column so named is dropped.

    Scale shape: the join picks its strategy from the build side's
    size, and either way the output rows and types are the same.
    - BROADCAST when ``how`` is not ``outer``, the right side is a
      ``Leaf`` and its footer bytes (``Leaf.pieces``, the bytes its
      units are cut from, so deciding runs no task) are at most
      ``BROADCAST_BYTES`` (a measured crossover; its comment says
      where): the right side is read once through ``map_blocks`` with
      its ``pre``, and one raw task per left unit or block, submitted
      with the right refs as arguments (no driver barrier), joins its
      rows against the whole right side. No exchange files; the left
      side moves once. Outputs of left blocks that differ in type are
      conformed to the routed output schema. ``outer`` routes:
      each task would emit the unmatched right rows again. A refs
      right side routes: its size is unknown before its tasks run.
    - ROUTED otherwise: the two sides are a two-member co-group keyed
      by ``key_parts`` (the keyed exchange's rule), both sides move
      exactly once, join state is per-partition. ``salt`` > 1 is the
      HOT-KEY defuser (the north rule's salted repartitioning applied
      to the join): each LEFT row lands in one of ``salt`` sub-buckets
      of its key's partition while every RIGHT row is replicated into
      all ``salt`` sub-buckets, and no exchange task holds two
      sub-buckets of one bucket — a hot key's probe side fans across
      ``salt`` tasks at the cost of ``salt``x the (small) build side,
      and every (l, r) pair still meets exactly once, so the OUTPUT is
      identical for any salt (pinned in tests). A broadcast has no
      hot bucket and ignores ``salt``.
    ``_plan_out`` and the ``op="exchange"`` metrics row carry
    ``strategy`` (``route`` or ``broadcast``); a broadcast's ``tasks``
    counts left tasks and its ``bytes`` are the right footer bytes."""
    keys = [on] if isinstance(on, str) else list(on)
    if how not in _JOIN_TYPES:
        raise ValueError(f"unsupported how={how!r}")
    if how == "outer" and salt > 1:
        # replicating the right side into sub-buckets would emit its
        # unmatched rows once per sub-bucket, so outer joins run
        # unsalted
        raise ValueError("salt > 1 is not supported with how='outer'")

    def side_pre(conform, repeat: int):
        def _pre(t: pa.Table) -> pa.Table:
            if conform is not None:
                t = conform(t)
            for k in keys:
                if k not in t.column_names:
                    raise ValueError(f"join key {k!r} missing from a side")
            if repeat > 1:
                # the salted route sends a block's row i to sub-bucket
                # i % salt (ANY assignment is correct for the left
                # side: each left row joins in exactly one sub-bucket);
                # salt copies in a row put the right side in all
                t = t.take(pa.array(np.repeat(
                    np.arange(t.num_rows, dtype=np.int64), repeat)))
            return t
        return _pre

    def check(schemas: list) -> None:
        ls, rs = schemas
        if ls is None or rs is None:
            return                      # an untyped side joins as empty
        for k in keys:
            if k not in ls.names or k not in rs.names:
                continue
            lf, rf = (key_family(s.field(k).type) for s in (ls, rs))
            if lf and rf and lf != rf:
                raise ValueError(
                    f"join key {k!r}: left {ls.field(k).type} and "
                    f"right {rs.field(k).type} route apart "
                    f"({lf} vs {rf} keys); cast one side")

    lpre, rpre = pre or (None, None)
    join = functools.partial(_join_part, keys=keys, how=how, suffix=suffix)
    if how != "outer" and isinstance(right, Leaf):
        nbytes = sum(b for *_, b in right.pieces())
        if nbytes <= BROADCAST_BYTES:
            return _broadcast_join(
                left, right, nbytes, join,
                (side_pre(lpre, 1), side_pre(rpre, 1)), check, _plan_out)
    # joins can't refold (splitting a partition would separate build
    # and probe rows of a key) — hot keys are the salt's job
    return file_exchange_map_groups(
        (left, right), join, keys=keys,
        pre=(side_pre(lpre, 1), side_pre(rpre, salt)),
        salt=salt, target_bytes=target_bytes, _check=check,
        _plan_out=_plan_out)
