"""Index-accelerated substring search — char-trigram posting index.

Full-corpus ``LIKE '%needle%'`` without a per-query corpus scan: a
one-time build materializes a hash-partitioned trigram posting index
(the pg_trgm / code-search design), and each query reads ONLY the
partitions owning its needle's trigrams, intersects posting lists
distributed (count-match, no driver sets), and verifies the candidate
documents with one predicate-pushdown point read. Reference anchor:
aqueduct-core's type-filtered log reads (PostgresqlStorage.java:120-180
filter CSV -> SQL ANY) are the subscription special case of "find the
rows containing X without scanning everything"; this is the content
generalization a 100-TB corpus needs.

Scale notes: the index build is one raw-task pass (per-block DISTINCT
(doc, trigram) via Arrow group_by — the shuffle-free write partitions
by trigram hash, so a query prunes to |trigrams(needle)| partitions of
P). Posting intersection never materializes a posting list on the
driver: candidates are folded per doc_id with one co-partitioned
count (docs matching ALL n trigrams), bounded by the rarest trigram's
document frequency. Only the final VERIFIED matches (true result rows)
and the candidate id list for the point read reach the driver — the
selectivity contract of substring search itself.
"""

from __future__ import annotations

import functools
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages.exchange import (file_exchange_map_groups, fx_sum_by, leaf,
                               map_blocks, write_parts)
from .text import _docs

__all__ = ["build_trigram_index", "substring_search"]

_SEP = np.uint32(0)          # '\x00' joins docs; never inside real text
_P = 16                      # index hash partitions


def _trigram_codes(texts: "list[str]") -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized char-trigram extraction for a batch of documents.
    Returns (doc_index, trigram_code) over ALL windows of all docs —
    one utf-32 decode of the joined batch, stride-free shifted views,
    no per-doc interpreter work. The code packs the 3 codepoints
    (21 bits each) into one int64 — injective, so 'trigram equality
    <=> code equality' exactly (no collision care needed)."""
    joined = "\x00".join(texts)
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    if len(cp) < 3:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    w0, w1, w2 = cp[:-2], cp[1:-1], cp[2:]
    valid = (w0 != _SEP) & (w1 != _SEP) & (w2 != _SEP)
    # doc index of each window start = #separators seen before it
    doc_idx = np.zeros(len(cp), np.int64)
    np.cumsum(cp == _SEP, out=doc_idx)
    code = ((w0.astype(np.uint64) << np.uint64(42))
            | (w1.astype(np.uint64) << np.uint64(21))
            | w2.astype(np.uint64)).view(np.int64)
    return doc_idx[:-2][valid], code[valid]


def _needle_codes(needle: str) -> np.ndarray:
    """Distinct trigram codes of a needle (>= 3 chars required)."""
    _, codes = _trigram_codes([needle])
    return np.unique(codes)


def _trigram_index_dir(sf_dir: str, index_root: "str | None") -> str:
    """(dataset identity)-keyed index dir OUTSIDE the dataset — same
    contract as ann._ivf_index_dir: abspath + documents.parquet
    (size, mtime_ns), so regenerated datasets never reuse stale
    postings and same-basename datasets never collide."""
    import hashlib

    root = (index_root or os.environ.get("AQR_TRIGRAM_ROOT")
            or "/tmp/aqr_trigram")
    from ..stages.exchange import _guard_shared_root
    _guard_shared_root(
        root, explicit=bool(index_root
                            or os.environ.get("AQR_TRIGRAM_ROOT")),
        kind="trigram index root", env="AQR_TRIGRAM_ROOT")
    doc = os.path.join(sf_dir, "documents.parquet")
    try:
        st = os.stat(doc)
        ident = f"{os.path.abspath(sf_dir)}|{st.st_size}|{st.st_mtime_ns}"
    except OSError:
        ident = os.path.abspath(sf_dir)
    h = hashlib.sha256(ident.encode()).hexdigest()[:12]
    tag = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join(root, f"{tag}-{h}-p{_P}")


def _write_postings(t: pa.Table, column: str, P: int, root: str
                    ) -> pa.Table:
    """An index writer task: the DISTINCT (tri, doc_id) postings of
    ``t``'s (doc_id, ``column``) rows as ``part=<tri hash % P>/`` files
    under ``root``; returns ``write_parts``' row count."""
    texts = ["" if x is None else x for x in t.column(column).to_pylist()]
    dids = t.column("doc_id").to_numpy(zero_copy_only=False)
    di, code = _trigram_codes(texts)
    pairs = pa.table({"tri": pa.array(code),
                      "doc_id": pa.array(dids[di])})
    distinct = pairs.group_by(["tri", "doc_id"]).aggregate([])
    part = (distinct.column("tri").to_numpy(zero_copy_only=False)
            .view(np.uint64) % np.uint64(P)).astype(np.int32)
    return write_parts(distinct.append_column("part", pa.array(part)),
                       root, "part")


def build_trigram_index(sf_dir: str, force: bool = False,
                        index_root: "str | None" = None) -> str:
    """Materialize the posting index: hive layout ``part=<h%P>/`` of
    DISTINCT (tri, doc_id) rows. Atomic publish (unique temp dir with
    its _DONE marker, renamed into place) — identical contract to
    ann.build_ivf_index: readers never see a half-built index, racing
    builders discard their identical deterministic build."""
    idx = _trigram_index_dir(sf_dir, index_root)
    done = os.path.join(idx, "_DONE")
    if os.path.exists(done) and not force:
        return idx
    if os.path.isdir(idx):
        if os.path.exists(done) and not force:
            return idx
        shutil.rmtree(idx, ignore_errors=True)
    tmp = f"{idx}.build-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    post = os.path.join(tmp, "post")

    ray.get(map_blocks(_docs(sf_dir, ["doc_id", "text"]), functools.partial(
        _write_postings, column="text", P=_P, root=post)))
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    try:
        os.rename(tmp, idx)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.exists(done):
            raise
    return idx


def substring_search(sf_dir: str,
                     needles: "tuple[str, ...]" = (
                         "window join", "batch stream", "zzqx"),
                     index_root: "str | None" = None) -> ray.data.Dataset:
    """All (needle, doc_id) pairs where the document text contains the
    needle — answered from the trigram index, verified exactly.
    Needles shorter than 3 chars raise (no trigram to prune on).

    Per needle: (1) partition-pruned read of the needle's trigram
    partitions with an ``is_in`` filter, (2) per-doc distinct-trigram
    count folded over one co-partitioned exchange — a doc survives iff
    it contains ALL |tri| distinct trigrams (superset of true matches),
    (3) one predicate-pushdown point read of the candidate docs and a
    vectorized ``match_substring`` verification. False positives (the
    trigrams present but not adjacent) die at (3); false negatives are
    impossible (every substring occurrence contributes all its
    trigrams)."""
    return ray.data.from_arrow_refs(
        _substring_refs(sf_dir, needles, index_root))


def _substring_refs(sf_dir: str, needles: "tuple[str, ...]",
                    index_root: "str | None" = None
                    ) -> "list[ray.ObjectRef]":
    """``substring_search`` as the verify tasks' block refs."""
    for n in needles:
        if len(n) < 3:
            raise ValueError(f"needle {n!r} shorter than 3 chars")
    idx = build_trigram_index(sf_dir, index_root=index_root)

    out_empty = pa.table({"needle": pa.array([], pa.string()),
                          "doc_id": pa.array([], pa.int64())})
    # ALL needles share ONE posting read and ONE exchange (a per-needle
    # exchange pays the file-exchange barrier n times for nothing: the
    # partition sets overlap and the fold is the same shape)
    codes_per = [(n, _needle_codes(n)) for n in needles]
    n_tri = {n: len(c) for n, c in codes_per}
    parts = np.unique(np.concatenate(
        [c.view(np.uint64) % np.uint64(_P) for _, c in codes_per]))
    files = []
    for p in parts:
        d = os.path.join(idx, "post", f"part={int(p)}")
        if os.path.isdir(d):
            files += [os.path.join(d, f) for f in sorted(os.listdir(d))
                      if f.endswith(".parquet")]
    if not files:
        return [ray.put(out_empty)]
    want_per = [(n, pa.array(c)) for n, c in codes_per]

    def hits(t: pa.Table) -> pa.Table:
        outs = []
        for needle, want in want_per:
            keep = pc.is_in(t.column("tri"), value_set=want)
            f = t.filter(keep)
            if f.num_rows:
                outs.append(pa.table({
                    "needle": pa.array([needle] * f.num_rows),
                    "doc_id": f.column("doc_id"),
                    "m": pa.array(np.ones(f.num_rows, np.int64)),
                }))
        return (pa.concat_tables(outs) if outs else pa.table({
            "needle": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "m": pa.array([], pa.int64())}))

    # distinct (tri, doc) rows by construction -> sum(m) == number of
    # DISTINCT needle trigrams the doc contains
    counts = fx_sum_by(leaf(files, ["tri", "doc_id"]),
                       ["needle", "doc_id"], ["m"], pre=hits)

    def full_hits(t: pa.Table) -> pa.Table:
        nd = t.column("needle").to_numpy(zero_copy_only=False)
        m = t.column("m").to_numpy(zero_copy_only=False)
        need = np.array([n_tri[x] for x in nd], np.int64)
        return t.filter(pa.array(m == need)).drop_columns(["m"])

    cand = pa.concat_tables(ray.get(map_blocks(counts.refs, full_hits)))
    per_needle: "dict[str, list[int]]" = {}
    for n, d in zip(cand.column("needle").to_pylist(),
                    cand.column("doc_id").to_pylist()):
        per_needle.setdefault(n, []).append(int(d))
    per_needle = {n: np.sort(np.array(v, np.int64))
                  for n, v in per_needle.items()}
    if not per_needle:
        return [ray.put(out_empty)]
    cand_ids = list(per_needle.values())

    allids = np.unique(np.concatenate(cand_ids))
    docs = leaf(f"{sf_dir}/documents.parquet", ["doc_id", "text"],
                filter=pc.field("doc_id").isin(pa.array(allids)))

    needle_list = sorted(per_needle)
    id_sets = ray.put(per_needle)

    def verify(t: pa.Table) -> pa.Table:
        sets = ray.get(id_sets)
        dids = t.column("doc_id").to_numpy(zero_copy_only=False)
        outs = []
        for needle in needle_list:
            ids = sets[needle]
            pos = np.searchsorted(ids, dids)
            pos[pos >= len(ids)] = len(ids) - 1
            is_cand = ids[pos] == dids
            if not is_cand.any():
                continue
            sub = t.filter(pa.array(is_cand))
            ok = pc.match_substring(sub.column("text"), needle)
            hit = sub.filter(ok)
            outs.append(pa.table({
                "needle": pa.array([needle] * hit.num_rows),
                "doc_id": hit.column("doc_id"),
            }))
        return (pa.concat_tables(outs, promote_options="default")
                if outs else out_empty)

    return map_blocks(docs, verify)


# --------------------------------------------------------------------- #
# CDC-maintained search index — the trigram index kept fresh against a
# LIVE lake in O(delta) per generation, fed by the engine's own
# changefeed (diff_refs payload read). The classic search-on-CDC
# segment design: each refresh appends ONE posting segment for the docs
# that changed; stale postings (old versions, deleted docs) are never
# eagerly purged — they surface only as candidates and die at the
# verification point read against the CURRENT lake. Reference anchor:
# the reference's derived tables re-sync from change batches
# (DerivedTableSync); this is the same contract for a search structure.
# --------------------------------------------------------------------- #
class LakeTrigramIndex:
    """Substring-search index over one STRING column of a committed
    lake, maintained incrementally:

    - ``refresh()``: first call scans the lake once (segment 0); later
      calls read ONLY the changefeed since the indexed generation and
      append one segment — O(changed docs), never O(lake).
    - ``search(needles)``: candidates from ALL segments (distinct
      trigram count per (needle, doc) == |needle trigrams|), verified
      with a partition-pruned point read of the CURRENT lake
      (``CDCEngine.get_docs``) — stale postings cost candidates, never
      wrong answers.
    - crash-idempotent: segment names are derived from the generation
      range they cover and the state file is published by atomic
      rename, so a refresh interrupted anywhere re-runs to the same
      result.
    """

    def __init__(self, engine, index_dir: str, column: str = "data",
                 num_partitions: int = _P):
        self.engine = engine
        self.index_dir = index_dir
        self.column = column
        self.P = num_partitions
        os.makedirs(index_dir, exist_ok=True)

    # -- state ---------------------------------------------------------
    @property
    def _state_path(self) -> str:
        return os.path.join(self.index_dir, "_STATE.json")

    def _load_state(self) -> "dict | None":
        import json
        try:
            with open(self._state_path) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def _save_state(self, state: dict) -> None:
        import json
        tmp = self._state_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f)
        os.replace(tmp, self._state_path)

    # -- posting build ---------------------------------------------------
    def _write_segment(self, name: str, run) -> int:
        """Build segment ``name`` under a temp name, atomic-rename into
        place; ``run(write)`` submits the writer tasks (``write`` over
        each block of (doc_id, column) rows) and returns their refs.
        Returns the posting row count (0 = no segment written)."""
        import shutil
        import uuid

        seg = os.path.join(self.index_dir, name)
        if os.path.isdir(seg):
            shutil.rmtree(seg)              # crashed predecessor rerun
        tmp = f"{seg}.build-{uuid.uuid4().hex[:8]}"
        write = functools.partial(_write_postings, column=self.column,
                                  P=self.P, root=tmp)
        try:
            n = sum(t.column("n")[0].as_py() for t in ray.get(run(write)))
            if n:
                os.rename(tmp, seg)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return n

    def _full_segment(self, gen: int) -> int:
        """Segment ``seg-full-g<gen>`` over the CURRENT lake."""
        return self._write_segment(
            f"seg-full-g{gen:06d}", lambda write: self.engine.map_lake(
                write, columns=["doc_id", self.column]))

    # -- maintenance -----------------------------------------------------
    def refresh(self) -> dict:
        m = self.engine.manifest
        if m is None:
            return {"mode": "noop", "reason": "no committed manifest"}
        gen = m.generation
        state = self._load_state()
        if state is None:
            n = self._full_segment(gen)
            segs = [f"seg-full-g{gen:06d}"] if n else []
            self._save_state({"generation": gen, "segments": segs})
            return {"mode": "full", "generation": gen, "postings": n}
        if state["generation"] >= gen:
            return {"mode": "noop", "generation": gen}
        col = self.column
        feed = self.engine.diff_refs(state["generation"], gen,
                                     payload_columns=[col])

        def changed_rows(t: pa.Table) -> pa.Table:
            keep = pc.is_in(t.column("change"),
                            value_set=pa.array(["added", "updated"]))
            f = t.filter(keep)
            return pa.table({"doc_id": f.column("doc_id"),
                             col: f.column(col)})

        name = f"seg-g{state['generation']:06d}-g{gen:06d}"
        n = self._write_segment(name, lambda write: map_blocks(
            feed, lambda t: write(changed_rows(t))))
        segs = list(state["segments"]) + ([name] if n else [])
        self._save_state({"generation": gen, "segments": segs})
        return {"mode": "delta", "generation": gen, "postings": n,
                "segments": len(segs)}

    def compact(self) -> dict:
        """Fold every segment into one full segment at the current
        indexed generation (drops all stale postings)."""
        import shutil

        state = self._load_state()
        if state is None:
            return {"mode": "noop"}
        gen = int(state["generation"])
        n = self._full_segment(gen)
        old = [s for s in state["segments"] if s != f"seg-full-g{gen:06d}"]
        self._save_state({"generation": gen,
                          "segments": [f"seg-full-g{gen:06d}"] if n
                          else []})
        for s in old:
            shutil.rmtree(os.path.join(self.index_dir, s),
                          ignore_errors=True)
        return {"mode": "compacted", "postings": n,
                "dropped_segments": len(old)}

    # -- query -----------------------------------------------------------
    def search(self, needles: "tuple[str, ...]") -> pa.Table:
        """(needle, doc_id) over the CURRENT lake state. Exact: every
        candidate is verified against the live row."""
        from .text import hash_str_array

        for n in needles:
            if len(n) < 3:
                raise ValueError(f"needle {n!r} shorter than 3 chars")
        state = self._load_state()
        out_empty = pa.table({"needle": pa.array([], pa.string()),
                              "doc_id": pa.array([], pa.string())})
        if state is None or not state["segments"]:
            return out_empty
        codes_per = [(n, _needle_codes(n)) for n in needles]
        n_tri = {n: len(c) for n, c in codes_per}
        parts = np.unique(np.concatenate(
            [c.view(np.uint64) % np.uint64(self.P) for _, c in codes_per]))
        files = []
        for seg in state["segments"]:
            for p in parts:
                d = os.path.join(self.index_dir, seg, f"part={int(p)}")
                if os.path.isdir(d):
                    files += [os.path.join(d, f)
                              for f in sorted(os.listdir(d))
                              if f.endswith(".parquet")]
        if not files:
            return out_empty
        want_per = [(n, pa.array(c)) for n, c in codes_per]
        P = np.uint64(self.P)

        def hits(t: pa.Table) -> pa.Table:
            outs = []
            for needle, want in want_per:
                keep = pc.is_in(t.column("tri"), value_set=want)
                f = t.filter(keep)
                if f.num_rows:
                    outs.append(pa.table({
                        "needle": pa.array([needle] * f.num_rows),
                        "doc_id": f.column("doc_id"),
                        "tri": f.column("tri"),
                    }))
            if not outs:
                sch = pa.schema([("needle", pa.string()),
                                 ("doc_id", t.schema.field("doc_id").type),
                                 ("tri", pa.int64())])
                return sch.empty_table()
            o = pa.concat_tables(outs)
            h = hash_str_array(
                o.column("doc_id").to_numpy(zero_copy_only=False)
                .astype(str))
            return o.append_column(
                "part", pa.array((h % P).astype(np.int32)))

        def full_hits(g: pa.Table) -> pa.Table:
            # DISTINCT (needle, doc, tri) across SEGMENTS (an updated
            # doc's postings exist in several segments), then count
            distinct = (g.drop_columns(["part"])
                        .group_by(["needle", "doc_id", "tri"])
                        .aggregate([]))
            cnt = (distinct.group_by(["needle", "doc_id"])
                   .aggregate([("tri", "count")]))
            nd = cnt.column("needle").to_numpy(zero_copy_only=False)
            m = cnt.column("tri_count").to_numpy(zero_copy_only=False)
            need = np.array([n_tri[x] for x in nd], np.int64)
            return (cnt.filter(pa.array(m == need))
                    .drop_columns(["tri_count"]))

        cand = pa.concat_tables(ray.get(file_exchange_map_groups(
            leaf(files, ["tri", "doc_id"]), full_hits,
            empty_result=pa.table({"needle": pa.array([], pa.string()),
                                   "doc_id": pa.array([], pa.string())}),
            pre=hits).refs))
        per_needle: "dict[str, list]" = {}
        for n, d in zip(cand.column("needle").to_pylist(),
                        cand.column("doc_id").to_pylist()):
            per_needle.setdefault(n, []).append(d)
        if not per_needle:
            return out_empty
        allids = sorted({d for v in per_needle.values() for d in v})
        live = self.engine.get_docs(allids, columns=["doc_id",
                                                     self.column])
        lv_ids = live.column("doc_id").to_pylist()
        lv_txt = live.column(self.column).to_pylist()
        txt_of = {i: ("" if t is None else t)
                  for i, t in zip(lv_ids, lv_txt)}
        out_n, out_d = [], []
        for needle in sorted(per_needle):
            for d in sorted(per_needle[needle]):
                if needle in txt_of.get(d, ""):
                    out_n.append(needle)
                    out_d.append(d)
        return pa.table({"needle": pa.array(out_n, pa.string()),
                         "doc_id": pa.array(out_d)})


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "substring_search",
))
