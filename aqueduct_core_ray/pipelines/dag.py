"""Topologically-ordered DAG of source -> derived table syncs.

Reference analog: hierarchical propagation — each till subscribes to a set
of `type`s and re-materializes from its parent's change batches
(SubNodeGroup.java:53-65 tree shaping, SQLiteQueries.java:105-112 type
filter). Here the hierarchy is a static DAG: the lake is the root; each
`Derivation` re-derives via groupby-aggregate over the upstream's change
batches.

Scale design: derivations are computed as *partial aggregates per lake
partition inside the merge task* (the combiner), stored in the manifest,
and folded into the final table with a driver-side reduce over at most
P × distinct-keys tiny records — so a wave's derived-table refresh touches
only the partitions the wave touched and NEVER re-shuffles the lake
(SURVEY.md A6/§7.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

_MERGE_FN = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
# pandas' sum: a group whose values are all null sums to 0, not null
_SUM_OPTS = pc.ScalarAggregateOptions(min_count=0)


def _nan_as_null(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """NaN counts as missing, as in pandas. Arrow's hash min/max skip
    NaN but still report the group's extreme as -inf/inf when NaN and
    null are all it holds."""
    if not pa.types.is_floating(col.type):
        return col
    return pc.if_else(pc.is_nan(col), pa.scalar(None, col.type), col)


@dataclass(frozen=True)
class Derivation:
    """One derived table: groupby(key) -> aggregates over the upstream.

    aggs: tuple of (column, fn) with fn in {sum, count, min, max}; the
    output column is named f"{fn}_{column}" ("n_rows" for count of "*").
    key=None means a global (single-row) aggregate. upstream="lake"
    derives from the materialized lake; any other value names an earlier
    derivation in the DAG, re-derived driver-side from its (small) output.
    """

    name: str
    key: str | None
    aggs: tuple[tuple[str, str], ...]
    upstream: str = "lake"

    def out_col(self, col: str, fn: str) -> str:
        return "n_rows" if (fn == "count") else f"{fn}_{col}"

    def _group_agg(self, table: pa.Table,
                   aggs: "list[tuple[str, str, str]]") -> pa.Table:
        """groupby(key) -> aggregates as one Arrow hash aggregation.
        ``aggs`` = (column, fn, output name); fn "count" counts rows.
        Semantics are pandas' groupby defaults: null (and NaN) keys are
        dropped, a sum over only nulls is 0, a min/max over only nulls
        is null, groups come out sorted by key, and a global aggregate
        (key=None) over no rows has no rows."""
        need = {c for c, fn, _ in aggs if fn != "count"}
        if self.key:
            need.add(self.key)
        t = pa.table({c: _nan_as_null(table.column(c)) for c in need}) \
            if need else table.select([])
        if self.key and t.column(self.key).null_count:
            t = t.filter(pc.is_valid(t.column(self.key)))
        spec = [([], "count_all") if fn == "count"
                else (c, fn, _SUM_OPTS if fn == "sum" else None)
                for c, fn, _ in aggs]
        res = t.group_by([self.key] if self.key else []).aggregate(spec)
        if self.key:
            res = res.sort_by(self.key)
        elif t.num_rows == 0:
            res = res.slice(0, 0)
        vals = res.drop_columns([self.key]) if self.key else res
        out = {self.key: res.column(self.key)} if self.key else {}
        for i, (_, _, name) in enumerate(aggs):
            out[name] = vals.column(i)
        return pa.table(out)

    def _own_aggs(self) -> "list[tuple[str, str, str]]":
        return [(c, f, self.out_col(c, f)) for c, f in self.aggs]

    # -- partials over one lake partition (runs inside the merge task) ----
    def partial_records(self, part_table: pa.Table) -> list[dict]:
        if part_table.num_rows == 0:
            return []
        return self._group_agg(part_table, self._own_aggs()).to_pylist()

    # -- fold partials from all partitions into the final table -----------
    def finalize(self, partials_by_pid: dict[str, list[dict]]) -> pa.Table:
        records = [r for recs in partials_by_pid.values() for r in recs]
        if not records:
            cols = {self.key: pa.array([], pa.string())} if self.key else {}
            cols.update({self.out_col(c, f): pa.array([], pa.int64())
                         for c, f in self.aggs})
            return pa.table(cols)
        merge = [(name, _MERGE_FN[f], name) for _, f, name in self._own_aggs()]
        return self._group_agg(pa.Table.from_pylist(records), merge)

    # -- derive from another derivation's finalized table (tiny) ----------
    def derive_from_table(self, upstream: pa.Table) -> pa.Table:
        return self._group_agg(upstream, self._own_aggs())


# The default DAG shipped with the engine: per-source corpus stats, and a
# second-level global rollup proving multi-hop propagation.
DEFAULT_DAG: tuple[Derivation, ...] = (
    Derivation("source_stats", key="source",
               aggs=(("*", "count"), ("n_tok", "sum"), ("last_lsn", "max"))),
    Derivation("corpus_rollup", key=None,
               aggs=(("n_rows", "sum"), ("sum_n_tok", "sum"),
                     ("max_last_lsn", "max")),
               upstream="source_stats"),
)


def topo_check(dag: tuple[Derivation, ...]) -> None:
    """Derivations must reference 'lake' or an earlier derivation."""
    seen = {"lake"}
    for d in dag:
        if d.upstream not in seen:
            raise ValueError(f"derivation {d.name!r} references unknown "
                             f"upstream {d.upstream!r} (DAG must be "
                             f"topologically ordered)")
        seen.add(d.name)
