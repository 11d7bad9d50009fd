"""O(delta)-maintained lake content checksums.

- ``cell_strings`` / ``row_signatures``: the md5-derived int64 row
  signature + md5 doc_id bucket convention shared bit-for-bit with
  ``CDCEngine.checksum`` and the ``lake_checksum`` DuckDB oracle
  (__ray_entry__): two lakes are content-equal iff their per-bucket
  (n_rows, XOR signature) tables are equal.
- ``LakeChecksumIndex``: the MAINTAINED twin of ``CDCEngine.checksum``.
  Bootstrap pays one full lake scan; every later ``refresh()`` reads
  ONLY the changefeed since the indexed generation
  (``diff_refs(..., before_image=True)`` — the Debezium
  before/after envelope) and applies XOR deltas: added docs XOR in,
  deleted docs XOR out their before-image, updated docs XOR out the
  before-image and XOR in the after-image. XOR is self-inverse and
  commutative, so the update is order- and partitioning-insensitive;
  at 100-TB scale this keeps a continuous convergence audit priced at
  O(changed docs) per wave instead of an O(lake) rescan.

Crash-idempotent: the state file is keyed to the covered generation and
published by atomic rename — a refresh interrupted anywhere re-runs to
the same result (the diff is a pure function of two immutable
manifests).

Reference anchor: the reference re-syncs derived tables from change
batches (DerivedTableSync); here the maintained derived aggregate is
the sync-verification signature set itself (pt-table-checksum shape).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa

import ray

from ..stages import exchange


def cell_strings(col: "pa.ChunkedArray | pa.Array") -> list:
    """Stable per-type stringify shared bit-for-bit with the DuckDB
    oracle twin: null -> '', string -> raw, int/bool -> str, float ->
    integer cents (floor(x*100+0.5); NaN -> ''), list<int> ->
    comma-joined."""
    t = col.type
    if pa.types.is_floating(t):
        v = col.to_numpy(zero_copy_only=False)
        c = np.floor(v * 100.0 + 0.5)
        return ["" if x != x else str(int(cv))
                for x, cv in zip(v.tolist(), c.tolist())]
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return ["" if v is None else ",".join(str(i) for i in v)
                for v in col.to_pylist()]
    return ["" if v is None else str(v) for v in col.to_pylist()]


def row_signatures(t: pa.Table, columns: "list[str]",
                   n_buckets: int = 16
                   ) -> "tuple[np.ndarray, np.ndarray]":
    """(sigs, buckets) int64 arrays: signature = first 15 md5 hex chars
    of '|'.join(cell strings over ``columns`` in order) as int; bucket
    = first md5 hex digit of doc_id mod ``n_buckets``. The per-row md5
    loop is inherent to a cryptographic checksum (audit path, not the
    ingest hot path)."""
    cells = [cell_strings(t.column(c)) for c in columns]
    keys = cell_strings(t.column("doc_id"))
    n = t.num_rows
    sigs = np.empty(n, dtype=np.int64)
    buckets = np.empty(n, dtype=np.int64)
    md5 = hashlib.md5
    for i in range(n):
        s = "|".join(c[i] for c in cells)
        sigs[i] = int(md5(s.encode("utf-8")).hexdigest()[:15], 16)
        buckets[i] = int(md5(keys[i].encode("utf-8")).hexdigest()[0],
                         16) % n_buckets
    return sigs, buckets


def checksum_partials(t: pa.Table, columns: "list[str]",
                      n_buckets: int) -> pa.Table:
    """Per-partition full-scan partials: (bucket, n_rows, xor_sig) —
    the ``map_lake`` function behind CDCEngine.checksum."""
    if t.num_rows == 0:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "n_rows": pa.array([], pa.int64()),
                         "xor_sig": pa.array([], pa.int64())})
    sigs, buckets = row_signatures(t, columns, n_buckets)
    out_b: "list[int]" = []
    out_n: "list[int]" = []
    out_x: "list[int]" = []
    for b in np.unique(buckets):
        mask = buckets == b
        out_b.append(int(b))
        out_n.append(int(mask.sum()))
        out_x.append(int(np.bitwise_xor.reduce(sigs[mask])))
    return pa.table({"bucket": pa.array(out_b, pa.int64()),
                     "n_rows": pa.array(out_n, pa.int64()),
                     "xor_sig": pa.array(out_x, pa.int64())})


class LakeChecksumIndex:
    """Maintained per-bucket signatures of one engine's lake; state is
    O(n_buckets) JSON, refresh cost is O(changed docs)."""

    def __init__(self, engine, index_dir: str,
                 columns: "list[str] | None" = None,
                 n_buckets: int = 16):
        self.engine = engine
        self.index_dir = index_dir
        self.columns = list(columns) if columns else None
        self.n_buckets = n_buckets
        os.makedirs(index_dir, exist_ok=True)

    @property
    def _state_path(self) -> str:
        return os.path.join(self.index_dir, "_CHECKSUMS.json")

    def _load_state(self) -> "dict | None":
        try:
            with open(self._state_path) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def _save_state(self, state: dict) -> None:
        tmp = self._state_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f)
        os.replace(tmp, self._state_path)

    # ------------------------------------------------------------------
    def refresh(self) -> dict:
        m = self.engine.manifest
        if m is None:
            return {"mode": "noop", "reason": "no committed manifest"}
        gen = m.generation
        st = self._load_state()
        if st is None:
            cols = self.columns or [c for c in m.schema.names
                                    if c != "last_op"]
            full = self.engine.checksum(columns=cols,
                                        n_buckets=self.n_buckets)
            buckets = {str(r["bucket"]): [int(r["n_rows"]),
                                          int(r["xor_sig"])]
                       for r in full.to_pylist()}
            self._save_state({"generation": gen, "columns": cols,
                              "n_buckets": self.n_buckets,
                              "buckets": buckets})
            return {"mode": "full", "generation": gen,
                    "buckets": len(buckets)}
        if st["generation"] >= gen:
            return {"mode": "noop", "generation": st["generation"]}
        cols = st["columns"]
        nb = int(st["n_buckets"])
        # the delta path reads the INDEXED generation's part files;
        # vacuum may have collected them — detect staleness up front
        # and fall back to a full rebuild instead of crashing mid-diff
        try:
            m_old = self.engine.manifest_at(int(st["generation"]))
            stale = m_old is None or any(
                not os.path.exists(self.engine.store.abs(rel))
                for e in m_old.partitions.values()
                for rel in [e["path"]]
                + [d["path"] for d in (e.get("deltas") or [])])
        except (ValueError, FileNotFoundError):
            stale = True
        if stale:
            full = self.engine.checksum(columns=cols, n_buckets=nb)
            buckets = {str(r["bucket"]): [int(r["n_rows"]),
                                          int(r["xor_sig"])]
                       for r in full.to_pylist()}
            self._save_state({"generation": gen, "columns": cols,
                              "n_buckets": nb, "buckets": buckets})
            return {"mode": "rebuild", "generation": gen,
                    "reason": "indexed generation vacuumed",
                    "buckets": len(buckets)}
        pay = [c for c in cols if c != "doc_id"]
        diff = self.engine.diff_refs(
            st["generation"], gen, payload_columns=pay,
            before_image=True)

        def deltas(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"bucket": pa.array([], pa.int64()),
                                 "dn": pa.array([], pa.int64()),
                                 "dxor": pa.array([], pa.int64())})
            import pyarrow.compute as pc
            ch = t.column("change")
            rows = []
            # after-images: added/updated XOR in (+1 row for added)
            nt = t.filter(pc.is_in(ch, value_set=pa.array(
                ["added", "updated"])))
            if nt.num_rows:
                img = pa.table({c: nt.column(c) for c in cols})
                sigs, bks = row_signatures(img, cols, nb)
                dn = (nt.column("change").to_numpy(zero_copy_only=False)
                      == "added").astype(np.int64)
                rows.append((bks, dn, sigs))
            # before-images: deleted/updated XOR out (-1 row for deleted)
            ot = t.filter(pc.is_in(ch, value_set=pa.array(
                ["deleted", "updated"])))
            if ot.num_rows:
                img = pa.table({c: (ot.column(c) if c == "doc_id"
                                    else ot.column(f"{c}_old"))
                                for c in cols})
                sigs, bks = row_signatures(img, cols, nb)
                dn = -(ot.column("change").to_numpy(zero_copy_only=False)
                       == "deleted").astype(np.int64)
                rows.append((bks, dn, sigs))
            bks = np.concatenate([r[0] for r in rows])
            dns = np.concatenate([r[1] for r in rows])
            sgs = np.concatenate([r[2] for r in rows])
            out_b, out_n, out_x = [], [], []
            for b in np.unique(bks):
                mask = bks == b
                out_b.append(int(b))
                out_n.append(int(dns[mask].sum()))
                out_x.append(int(np.bitwise_xor.reduce(sgs[mask])))
            return pa.table({"bucket": pa.array(out_b, pa.int64()),
                             "dn": pa.array(out_n, pa.int64()),
                             "dxor": pa.array(out_x, pa.int64())})

        partials = [r for t in ray.get(exchange.map_blocks(diff, deltas))
                    for r in t.to_pylist()]
        buckets = {k: list(v) for k, v in st["buckets"].items()}
        changed = 0
        for r in partials:
            e = buckets.setdefault(str(int(r["bucket"])), [0, 0])
            e[0] += int(r["dn"])
            e[1] ^= int(r["dxor"])
            changed += 1
            if e == [0, 0]:
                del buckets[str(int(r["bucket"]))]
        self._save_state({"generation": gen, "columns": cols,
                          "n_buckets": nb, "buckets": buckets})
        return {"mode": "delta", "generation": gen,
                "touched_buckets": changed}

    def signatures(self) -> pa.Table:
        """Current maintained signatures — same schema/semantics as
        CDCEngine.checksum (only non-empty buckets, sorted)."""
        st = self._load_state()
        if st is None:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "n_rows": pa.array([], pa.int64()),
                             "xor_sig": pa.array([], pa.int64())})
        items = sorted((int(k), v) for k, v in st["buckets"].items())
        return pa.table({
            "bucket": pa.array([b for b, _ in items], pa.int64()),
            "n_rows": pa.array([v[0] for _, v in items], pa.int64()),
            "xor_sig": pa.array([v[1] for _, v in items], pa.int64())})
