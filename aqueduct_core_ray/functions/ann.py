"""Similarity search over the ``embeddings`` table.

- ``knn_bruteforce``: exact cosine top-k. The (small) query matrix is
  broadcast once via ``ray.put``; every batch does one double-precision
  matmul and emits only its local top-k per query (nq*k tiny rows), and a
  final per-query groupby folds the partials — the classic partial-top-k
  combine, so the shuffle moves O(batches * nq * k) rows, never scores.
- ``knn_ivf``: the scale path — coarse spherical-k-means centroids
  trained on a bounded DISTRIBUTED sample (never a driver full-table
  read), cell assignment MATERIALIZED as a hive-partitioned index
  (``build_ivf_index``), and the query read pruned to the ``nprobe``
  nearest cells' partitions. Approximate: recall vs brute force is
  pinned in pytest and exposed as the ``knn_ivf_recall`` query.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..stages import exchange


def _load_queries(sf_dir: str, nq: int) -> tuple[np.ndarray, np.ndarray]:
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", nq)])
    qids = t.column("vec_id").to_numpy(zero_copy_only=False)
    Q = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    return qids, Qn


def _embeddings(paths: "str | list[str]") -> exchange.Leaf:
    """(vec_id, embedding) of embedding parquet file(s) as a leaf."""
    return exchange.leaf(paths, ["vec_id", "embedding"])


_EMPTY_TOPK = pa.schema([("query_id", pa.int64()), ("vec_id", pa.int64()),
                         ("score", pa.float64())])


def _topk_emit(qids: np.ndarray, Qn: np.ndarray, ids: np.ndarray,
               Bn: np.ndarray, k: int) -> pa.Table:
    """Shared batch-local top-k: matmul + argpartition + partial emit."""
    if len(ids) == 0:
        return _EMPTY_TOPK.empty_table()
    S = Bn @ Qn.T                                   # (n, nq)
    kk = min(k, len(ids))
    top = np.argpartition(-S, kk - 1, axis=0)[:kk]  # (kk, nq)
    nq = len(qids)
    return pa.table({
        "query_id": pa.array(np.repeat(qids, kk)),
        "vec_id": pa.array(ids[top.T.reshape(-1)]),
        "score": pa.array(S[top.T.reshape(-1),
                            np.repeat(np.arange(nq), kk)]),
    })


def _normalized(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    B = np.vstack(t.column("embedding").to_numpy(
        zero_copy_only=False)).astype(np.float64)
    return ids, B / np.linalg.norm(B, axis=1, keepdims=True)


def _batch_topk_fn(ref, k: int):
    def batch_topk(t: pa.Table) -> pa.Table:
        qids, Qn = ray.get(ref)
        ids, Bn = _normalized(t)
        return _topk_emit(qids, Qn, ids, Bn, k)
    return batch_topk


def _final_topk_fn(k: int):
    def final_topk(t: pa.Table) -> pa.Table:
        s = t.column("score").to_numpy(zero_copy_only=False)
        v = t.column("vec_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, -s))[:k]                 # score desc, id asc
        return pa.table({
            "query_id": t.column("query_id").take(pa.array(order)),
            "vec_id": pa.array(v[order]),
            "knn_rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
        })
    return final_topk


def _knn(src: exchange.Leaf, queries: tuple, k: int) -> list:
    """The partial-top-k exchange of ``queries`` (qids, normalized Q)
    over the ``src`` embeddings: block refs of (query_id, vec_id,
    knn_rank)."""
    return exchange.file_exchange_map_groups(
        src, exchange.each_group(_final_topk_fn(k), ["query_id"]),
        keys=["query_id"], pre=_batch_topk_fn(ray.put(queries), k)).refs


def knn_bruteforce(sf_dir: str, nq: int = 3, k: int = 5) -> ray.data.Dataset:
    """Exact cosine top-k for the first ``nq`` vectors as queries.
    Returns (query_id, vec_id, rank) — ties broken by vec_id asc."""
    return ray.data.from_arrow_refs(_knn(
        _embeddings(f"{sf_dir}/embeddings.parquet"),
        _load_queries(sf_dir, nq), k))


# --------------------------------------------------------------------- #
def _distributed_sample(sf_dir: str, sample: int = 2048,
                        seed: int = 7) -> np.ndarray:
    """Bounded, UNBIASED training sample without a driver full-table
    read (round 1 read the whole embedding column driver-side and took
    the FIRST 2048 rows — driver OOM + biased at scale): each batch
    keeps rows whose keyed hash falls under the target fraction, so only
    ~``sample`` rows ever reach the driver; a final hash-order truncation
    makes the result deterministic and exactly bounded."""
    import pandas as pd

    path = f"{sf_dir}/embeddings.parquet"
    n = max(1, pq.read_metadata(path).num_rows)
    frac = min(1.0, 1.5 * sample / n)
    thresh = frac * float(2**64)            # float compare avoids uint64
                                            # construction overflow

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(ids + np.int64(seed), categorize=False)
        keep = h.astype(np.float64) <= thresh
        return pa.table({
            "h": pa.array(h[keep].view(np.int64)),
            "embedding": t.column("embedding").combine_chunks().take(
                pa.array(np.flatnonzero(keep))),
        })

    rows = pa.concat_tables(ray.get(exchange.map_blocks(
        _embeddings(path), pick)))
    first = np.argsort(rows.column("h").to_numpy().view(np.uint64),
                       kind="stable")[:sample]
    X = np.stack(rows.column("embedding").take(pa.array(first)).to_numpy(
        zero_copy_only=False)).astype(np.float64)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _train_centroids(sf_dir: str, n_cells: int, sample: int = 2048,
                     iters: int = 8, seed: int = 7) -> np.ndarray:
    """Spherical k-means on the bounded distributed sample (driver-side
    training over ≤``sample`` vectors is O(sample·n_cells·dim) — tiny)."""
    Xn = _distributed_sample(sf_dir, sample, seed)
    rng = np.random.default_rng(np.random.PCG64(seed))
    C = Xn[rng.choice(len(Xn), size=min(n_cells, len(Xn)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(Xn @ C.T, axis=1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                v = Xn[m].mean(axis=0)
                C[c] = v / np.linalg.norm(v)
    return C


def _default_index_root(sf_dir: str) -> str:
    """Where IVF indexes live. Priority: explicit ``index_root`` param >
    ``$AQR_IVF_ROOT`` > ``/tmp/aqr_ivf``. The index is NEVER written
    inside (or beside) the dataset directory: a read-style query
    (knn_ivf, embedding_ann_dedup) mutating its input as a side effect
    breaks anything that snapshots, checksums, or syncs the dataset.
    The /tmp default is single-node only — on a cluster set
    ``AQR_IVF_ROOT`` (or pass ``index_root``) to a path on the SHARED
    store, since every worker must read the same index. On a
    multi-node cluster the default REFUSES to run (loud failure
    instead of an index other nodes can't see)."""
    env = os.environ.get("AQR_IVF_ROOT")
    from ..stages.exchange import _guard_shared_root
    _guard_shared_root(env or "/tmp/aqr_ivf", explicit=bool(env),
                       kind="IVF index root", env="AQR_IVF_ROOT")
    return env or "/tmp/aqr_ivf"


def _ivf_index_dir(sf_dir: str, n_cells: int, seed: int,
                   index_root: str | None = None) -> str:
    """Index directory for (dataset, n_cells, seed). Because the index
    lives OUTSIDE the dataset directory (see _default_index_root), the
    name must carry the dataset's identity — abspath plus the
    embeddings file's (size, mtime_ns) — so same-basename datasets
    never collide and a regenerated dataset never reuses a stale
    index."""
    import hashlib

    root = index_root or _default_index_root(sf_dir)
    tag = os.path.basename(os.path.normpath(sf_dir))
    emb = os.path.join(sf_dir, "embeddings.parquet")
    try:
        st = os.stat(emb)
        ident = f"{os.path.abspath(sf_dir)}|{st.st_size}|{st.st_mtime_ns}"
    except OSError:
        ident = os.path.abspath(sf_dir)
    h = hashlib.sha256(ident.encode()).hexdigest()[:12]
    return os.path.join(root, f"{tag}-{h}-c{n_cells}-s{seed}")


def build_ivf_index(sf_dir: str, n_cells: int = 16, seed: int = 7,
                    force: bool = False,
                    index_root: str | None = None) -> str:
    """Materialize the IVF index: centroids + the embeddings table
    REPARTITIONED BY CELL (hive `cell=<c>/` parquet layout), so a query
    reads only its ``nprobe`` cells — partition pruning at the read, not
    a filter over a full scan. At lake scale this is the 'cell id as a
    lake column / partition' design and the rewrite runs once per index
    build, not per query.

    Publication is ATOMIC: the index is built in a unique temp directory
    (with its ``_DONE`` marker already inside) and renamed into place —
    a reader can never observe a half-built index, and two concurrent
    builders race on the rename (the loser discards its identical,
    deterministically-seeded build). ``index_root`` must be a SHARED
    path on a cluster (see _default_index_root)."""
    import shutil
    import uuid

    idx = _ivf_index_dir(sf_dir, n_cells, seed, index_root)
    done = os.path.join(idx, "_DONE")
    if os.path.exists(done) and not force:
        return idx
    if os.path.isdir(idx):
        # re-check under the isdir branch: a concurrent builder may have
        # PUBLISHED between our _DONE probe and here — deleting its
        # valid index would leave readers with no index for the whole
        # rebuild. Only a dir still lacking _DONE (crashed/partial
        # writer) is cleared.
        if os.path.exists(done) and not force:
            return idx
        shutil.rmtree(idx, ignore_errors=True)
    tmp = f"{idx}.build-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    C = _train_centroids(sf_dir, n_cells, seed=seed)
    np.save(os.path.join(tmp, "centroids.npy"), C)
    ref = ray.put(C)
    cells = os.path.join(tmp, "cells")

    def assign(t: pa.Table) -> pa.Table:
        Cm = ray.get(ref)
        _, Bn = _normalized(t)
        cell = np.argmax(Bn @ Cm.T, axis=1).astype(np.int32)
        return exchange.write_parts(t.append_column("cell", pa.array(cell)),
                                    cells, "cell")

    ray.get(exchange.map_blocks(
        _embeddings(f"{sf_dir}/embeddings.parquet"), assign))
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    try:
        os.rename(tmp, idx)                 # atomic publish
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.exists(done):        # racer left no valid index
            raise
    return idx


def knn_ivf(sf_dir: str, nq: int = 3, k: int = 5, n_cells: int = 16,
            nprobe: int = 4, seed: int = 7,
            index_root: str | None = None) -> ray.data.Dataset:
    """IVF-pruned ANN over the materialized cell-partitioned index: the
    read touches ONLY the union of the queries' ``nprobe`` nearest cells
    (hive partition pruning), then the same broadcast-queries partial-
    top-k pipeline as brute force. Approximate: recall vs the exact
    ``knn_bruteforce`` is pinned in pytest and exposed as the
    ``knn_ivf_recall`` query."""
    return ray.data.from_arrow_refs(_knn_ivf(sf_dir, nq, k, n_cells, nprobe,
                                             seed, index_root))


def _knn_ivf(sf_dir: str, nq: int, k: int, n_cells: int, nprobe: int,
             seed: int, index_root: "str | None") -> list:
    """``knn_ivf``'s result as block refs."""
    idx = build_ivf_index(sf_dir, n_cells, seed,
                          index_root=index_root)
    C = np.load(os.path.join(idx, "centroids.npy"))
    qids, Qn = _load_queries(sf_dir, nq)
    probes = np.argsort(-(Qn @ C.T), axis=1)[:, :nprobe]     # (nq, nprobe)
    probed = np.unique(probes)
    import glob as _glob

    cell_files = [f for c in probed for f in sorted(_glob.glob(
        os.path.join(idx, "cells", f"cell={c}", "*.parquet")))]
    if not cell_files:
        return [ray.put(_EMPTY_TOPK.empty_table())]
    return _knn(_embeddings(cell_files), (qids, Qn), k)


def knn_ivf_recall(sf_dir: str, nq: int = 3, k: int = 5, n_cells: int = 16,
                   nprobe: int = 4,
                   index_root: str | None = None) -> pa.Table:
    """Recall@k of the IVF path against exact brute force (both fixed
    seed): one tiny driver-side set comparison over nq·k rows."""
    def pairs(refs: list) -> set:
        t = pa.concat_tables(ray.get(refs))
        return set(zip(t.column("query_id").to_pylist(),
                       t.column("vec_id").to_pylist()))

    exact = pairs(_knn(_embeddings(f"{sf_dir}/embeddings.parquet"),
                       _load_queries(sf_dir, nq), k))
    approx = pairs(_knn_ivf(sf_dir, nq, k, n_cells, nprobe, 7, index_root))
    hit = len(exact & approx)
    return pa.table({
        "n_exact": pa.array([len(exact)], pa.int64()),
        "n_hit": pa.array([hit], pa.int64()),
        "recall_pct": pa.array(
            [100 * hit // max(1, len(exact))], pa.int64()),
    })


def label_centroids(sf_dir: str) -> ray.data.Dataset:
    """Per-label EXACT centroid statistics over the embedding column:
    for every (label, dimension) the vector count and the component sum
    in integer MICRO-UNITS (``floor(float64(x) * 1e6 + 0.5)`` per
    element — the module's shared row-rounding convention lifted to
    vectors, so distributed partial sums are order-insensitive and the
    SQL oracle matches bit-exactly; the consumer divides sum/n for the
    float centroid). Returns (label, dim, sum_micro, n_vecs) — bounded
    at #labels x dim rows. This is the class-prototype / cluster-mean
    building block (bias probes, per-source embedding drift, IVF seed
    audits).

    Scale shape: ZERO exchanges — each block collapses to
    (labels-in-block x dim) partial rows via one np.add.at scatter over
    the contiguous list buffer (no per-row loops), and the driver folds
    O(labels x dim x blocks) integer rows."""
    return ray.data.from_arrow(_centroid_stats(sf_dir))


_CENTROID_EMPTY = pa.table({
    "label": pa.array([], pa.int64()),
    "dim": pa.array([], pa.int64()),
    "sum_micro": pa.array([], pa.int64()),
    "n_vecs": pa.array([], pa.int64()),
})


def _micro_matrix(t: pa.Table, id_col: str = "label"
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(id column, int64 micro-unit matrix) of a batch's embedding
    column — THE shared floor(x*1e6 + 0.5) vector-rounding kernel (one
    copy, so centroid_assign / label_centroids / kmeans_embeddings can
    never disagree on the convention)."""
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    if t.num_rows == 0:
        return ids, np.zeros((0, 0), np.int64)
    emb = t.column("embedding").combine_chunks()
    X = (emb.flatten().to_numpy(zero_copy_only=False)
         .astype(np.float64).reshape(t.num_rows, -1))
    return ids, np.floor(X * 1e6 + 0.5).astype(np.int64)


def _centroid_stats(sf_dir: str) -> pa.Table:
    """Folded (label, dim, sum_micro, n_vecs) table — see
    ``label_centroids`` for semantics and scale shape."""
    from ..pipelines.analytics import _fold_partials

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _CENTROID_EMPTY
        lab, M = _micro_matrix(t)
        ulab, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ulab), M.shape[1]), np.int64)
        np.add.at(sums, inv, M)
        n = np.bincount(inv).astype(np.int64)
        L, D = len(ulab), M.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(ulab.astype(np.int64), D)),
            "dim": pa.array(np.tile(np.arange(D, dtype=np.int64), L)),
            "sum_micro": pa.array(sums.reshape(-1)),
            "n_vecs": pa.array(np.repeat(n, D)),
        })

    parts = exchange.map_blocks(exchange.leaf(
        f"{sf_dir}/embeddings.parquet", ["label", "embedding"]), partial)
    return _fold_partials(parts, ["label", "dim"],
                          ["sum_micro", "n_vecs"], _CENTROID_EMPTY)


def centroid_assign(sf_dir: str) -> ray.data.Dataset:
    """Vector-quantization ASSIGNMENT: every vector is assigned to its
    nearest per-label centroid (squared L2 over the shared integer
    micro-units; centroid components are round-half-up means,
    ``floor(sum_micro/n + 0.5)``, so both the centroids and every
    distance are EXACT int64 and the SQL oracle matches bit-exactly;
    ties go to the smallest label). Returns (vec_id, label,
    assigned_label, is_match) — the confusion/purity table that audits
    label quality, spots mislabeled vectors, and seeds coarse
    quantizers.

    Scale shape: the centroid pass is ``label_centroids`` (ZERO
    exchanges, driver fold of O(labels x dim x blocks) rows); the
    bounded labels x dim int64 centroid matrix broadcasts once via
    ``ray.put`` and every batch does one (n x L x D) vectorized
    distance + argmin — a map-only second pass, zero exchanges
    total."""
    stats = _centroid_stats(sf_dir)
    lab = stats.column("label").to_numpy(zero_copy_only=False)
    dim = stats.column("dim").to_numpy(zero_copy_only=False)
    s = stats.column("sum_micro").to_numpy(zero_copy_only=False)
    n = stats.column("n_vecs").to_numpy(zero_copy_only=False)
    order = np.lexsort((dim, lab))           # rows sorted (label, dim)
    labels = np.unique(lab)
    D = int(dim.max()) + 1 if len(dim) else 0
    C = np.floor(s[order].astype(np.float64) / n[order] + 0.5) \
        .astype(np.int64).reshape(len(labels), D)
    ref = ray.put((labels, C))

    def assign(t: pa.Table) -> pa.Table:
        empty = pa.table({"vec_id": pa.array([], pa.int64()),
                          "label": pa.array([], pa.int64()),
                          "assigned_label": pa.array([], pa.int64()),
                          "is_match": pa.array([], pa.int8())})
        if t.num_rows == 0:
            return empty
        labels_, C_ = ray.get(ref)
        lab_, M = _micro_matrix(t)
        # (n, L) exact int64 squared distances via the expansion
        # |m|^2 - 2 m.c + |c|^2 — O(n x L) memory, never the
        # (n x L x D) difference tensor (a 128 MB block x 100 labels
        # x 256 dims would allocate ~27 GB). argmin takes the FIRST
        # minimum, and centroid rows are label-ascending -> ties break
        # to the smallest label like the oracle's (dist, label) order
        dist = ((M * M).sum(axis=1)[:, None]
                - 2 * (M @ C_.T)
                + (C_ * C_).sum(axis=1)[None, :])
        best = labels_[np.argmin(dist, axis=1)]
        return pa.table({
            "vec_id": t.column("vec_id"),
            "label": pa.array(lab_.astype(np.int64)),
            "assigned_label": pa.array(best.astype(np.int64)),
            "is_match": pa.array((lab_ == best).astype(np.int8)),
        })

    return ray.data.from_arrow_refs(exchange.map_blocks(exchange.leaf(
        f"{sf_dir}/embeddings.parquet", ["vec_id", "label", "embedding"]),
        assign))


def _micro_vectors(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids, int64 micro-unit matrix) — ``_micro_matrix`` keyed by
    vec_id."""
    return _micro_matrix(t, id_col="vec_id")


def _kmeans_seed_block(t: pa.Table, k: int):
    """Per-block init candidates: the k lowest-vec_id micro vectors."""
    ids, M = _micro_vectors(t)
    if len(ids) == 0:
        return None
    keep = np.argsort(ids)[:k]
    return ids[keep].astype(np.int64), M[keep]


def _kmeans_dist2(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    return ((M * M).sum(1)[:, None] - 2 * (M @ C.T)
            + (C * C).sum(1)[None, :])


def _kmeans_iter_block(t: pa.Table, C: np.ndarray):
    """One Lloyd's step over one block: (k x dim sums, k counts)."""
    ids, M = _micro_vectors(t)
    if len(ids) == 0:
        return None
    assign = np.argmin(_kmeans_dist2(M, C), axis=1)  # ties -> smallest
    sums = np.zeros((len(C), M.shape[1]), np.int64)
    np.add.at(sums, assign, M)
    return sums, np.bincount(assign, minlength=len(C)).astype(np.int64)


def _kmeans_assign_block(t: pa.Table, C: np.ndarray) -> pa.Table:
    ids, M = _micro_vectors(t)
    if len(ids) == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64()),
                         "dist2_micro": pa.array([], pa.int64())})
    d2 = _kmeans_dist2(M, C)
    assign = np.argmin(d2, axis=1)
    return pa.table({
        "vec_id": pa.array(ids.astype(np.int64)),
        "cluster": pa.array(assign.astype(np.int64)),
        "dist2_micro": pa.array(d2[np.arange(len(ids)),
                                   assign].astype(np.int64)),
    })


_KM_SEED = ray.remote(num_cpus=1)(_kmeans_seed_block)
_KM_ITER = ray.remote(num_cpus=1)(_kmeans_iter_block)
_KM_ASSIGN = ray.remote(num_cpus=1)(_kmeans_assign_block)


def kmeans_embeddings(sf_dir: str, k: int = 8, iters: int = 12
                      ) -> ray.data.Dataset:
    """Distributed Lloyd's k-means over the FULL embedding table in
    EXACT integer arithmetic — the whole-corpus semantic-clustering
    primitive (data curation by cluster, mixture balancing, near-dup
    blocking). Vectors and centroids live in the module's shared
    micro-units (floor(x*1e6 + 0.5)); centroid components are
    round-half-up means (floor(sum/n + 0.5)); assignment is squared-L2
    argmin with ties to the smallest cluster index. Because every
    reduction is an order-insensitive integer sum, the result is
    bit-identical under any partitioning/block order, and convergence
    is a clean integer fixed-point test (C_new == C_old). Returns
    (vec_id, cluster, dist2_micro) distributed.

    Scale shape: the table is read ONCE (block refs pinned in the
    object store); each iteration is one fan of RAW per-block tasks —
    a block collapses to a (k x dim) integer partial (np.add.at
    scatter, int64 matmul for the distance term; |x|<=1e6 micro-units
    x dim 64 stays far under int64), the driver folds B such partials
    and rebroadcasts the k x dim centroid matrix via ray.put. Vectors
    never leave their blocks; there is no shuffle at any step. Raw
    tasks, not per-iteration Dataset plans: a Ray Data pass costs
    ~1 s of plan/schedule overhead PER ITERATION (measured 15.8 s for
    13 passes at sf0.1), the task fan costs milliseconds. Init is
    deterministic: the k lowest-vec_id vectors (a bounded per-block
    top-k fold, no full read)."""
    import ray

    blocks = exchange.map_blocks(
        _embeddings(f"{sf_dir}/embeddings.parquet"), lambda t: t)
    C = _kmeans_fit(blocks, k, iters)
    if C is None:
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "dist2_micro": pa.array([], pa.int64())}))
    ref = ray.put(C)
    return ray.data.from_arrow_refs(
        [_KM_ASSIGN.remote(b, ref) for b in blocks])


def _kmeans_fit(blocks, k: int, iters: int) -> "np.ndarray | None":
    """The Lloyd's loop of ``kmeans_embeddings`` over pinned block
    refs: returns the converged k x dim micro-unit centroid matrix
    (None on an empty table). Shared with ``dedup.semdedup``."""
    import ray

    seed_parts = ray.get([_KM_SEED.remote(b, k) for b in blocks])
    seed_parts = [p for p in seed_parts if p is not None]
    if not seed_parts:
        return None
    ids = np.concatenate([p[0] for p in seed_parts])
    vecs = np.concatenate([p[1] for p in seed_parts])
    C = vecs[np.argsort(ids)[:k]].copy()

    for _ in range(iters):
        ref = ray.put(C)
        outs = ray.get([_KM_ITER.remote(b, ref) for b in blocks])
        outs = [o for o in outs if o is not None]
        sums = np.sum([o[0] for o in outs], axis=0)
        n = np.sum([o[1] for o in outs], axis=0)
        Cn = C.copy()
        nz = n > 0
        Cn[nz] = np.floor(sums[nz] / n[nz, None] + 0.5).astype(np.int64)
        if np.array_equal(Cn, C):
            break                              # integer fixed point
        C = Cn
    return C


# --------------------------------------------------------------------- #
# Distributed second-moment fold — covariance matrix + PCA projection.
# The covariance fold is the canonical "bounded partials" shape: each
# block contributes (n, sum-vector, X^T X) — 1 + d + d*d floats
# regardless of block size — and the driver combines B such partials.
# No shuffle, no materialization; at 100 TB the fold is the ONLY thing
# that moves. PCA itself (eigh of a d x d matrix, d = 64) is driver
# arithmetic on the folded result, then one broadcast projection pass.
# --------------------------------------------------------------------- #
def _moment_fold(sf_dir: str) -> "tuple[int, np.ndarray, np.ndarray]":
    """(n, sum, X^T X) over the whole embeddings table, folded from
    per-block partials (each a single-row table carrying flattened
    float64 moments)."""
    def partial(t: pa.Table) -> pa.Table:
        X = np.vstack(t.column("embedding").to_numpy(
            zero_copy_only=False)).astype(np.float64)
        return pa.table({
            "n": pa.array([len(X)], pa.int64()),
            "s": pa.array([X.sum(axis=0).tobytes()], pa.binary()),
            "xx": pa.array([(X.T @ X).ravel().tobytes()], pa.binary()),
        })

    tabs = [t for t in ray.get(exchange.map_blocks(
        _embeddings(f"{sf_dir}/embeddings.parquet"), partial))
        if t.num_rows]
    n = 0
    s = xx = None
    for t in tabs:
        for r in range(t.num_rows):
            n += int(t.column("n")[r].as_py())
            sv = np.frombuffer(t.column("s")[r].as_py(), np.float64)
            xv = np.frombuffer(t.column("xx")[r].as_py(), np.float64)
            s = sv if s is None else s + sv
            xx = xv if xx is None else xx + xv
    d = len(s) if s is not None else 0
    return n, (s if s is not None else np.zeros(0)), \
        (xx.reshape(d, d) if xx is not None else np.zeros((0, 0)))


def embedding_covariance(sf_dir: str, dims: int = 8) -> ray.data.Dataset:
    """Population covariance of the first ``dims`` embedding dimensions,
    quantized to INTEGER MICROS ``floor(cov * 1e6 + 0.5)`` (the shared
    row-rounding convention, micros because covariances live well below
    permille resolution). Returns (i, j, cov_micros) for i <= j —
    the exact moment formula ``(Sxy - Sx*Sy/n)/n`` in float64, matching
    the SQL oracle's expression tree."""
    n, s, xx = _moment_fold(sf_dir)
    rows_i, rows_j, rows_c = [], [], []
    for i in range(min(dims, len(s))):
        for j in range(i, min(dims, len(s))):
            cov = (xx[i, j] - s[i] * s[j] / n) / n
            rows_i.append(i)
            rows_j.append(j)
            rows_c.append(int(np.floor(cov * 1e6 + 0.5)))
    return ray.data.from_arrow(pa.table({
        "i": pa.array(rows_i, pa.int64()),
        "j": pa.array(rows_j, pa.int64()),
        "cov_micros": pa.array(rows_c, pa.int64()),
    }))


def pca_project(sf_dir: str, n_components: int = 2) -> ray.data.Dataset:
    """Project every embedding onto the top ``n_components`` principal
    axes of the folded covariance (rows-only check: eigenvectors are
    not SQL-expressible). Deterministic sign: each eigenvector's
    largest-|coordinate| entry is made positive. Projections are
    emitted as integer micros so the result hashes stably. Returns
    (vec_id, pc1_micros, ..., pcK_micros).

    Scale shape: one moment fold (bounded partials), a d x d ``eigh``
    on the driver, then ONE broadcast (ray.put of the (d, K) projection
    matrix) and a streaming matmul pass — identical wiring to
    knn_bruteforce's broadcast queries."""
    n, s, xx = _moment_fold(sf_dir)
    mu = s / n
    cov = xx / n - np.outer(mu, mu)
    w, V = np.linalg.eigh(cov)                    # ascending eigenvalues
    comps = V[:, ::-1][:, :n_components]          # top-K columns
    for c in range(comps.shape[1]):               # deterministic sign
        k = np.argmax(np.abs(comps[:, c]))
        if comps[k, c] < 0:
            comps[:, c] = -comps[:, c]
    ref = ray.put((mu, comps))

    def project(t: pa.Table) -> pa.Table:
        mu_, C = ray.get(ref)
        X = np.vstack(t.column("embedding").to_numpy(
            zero_copy_only=False)).astype(np.float64)
        P = (X - mu_) @ C
        cols = {"vec_id": t.column("vec_id")}
        for c in range(P.shape[1]):
            cols[f"pc{c + 1}_micros"] = pa.array(
                np.floor(P[:, c] * 1e6 + 0.5).astype(np.int64))
        return pa.table(cols)

    return ray.data.from_arrow_refs(exchange.map_blocks(
        _embeddings(f"{sf_dir}/embeddings.parquet"), project))


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "centroid_assign",
    "embedding_covariance",
    "kmeans_embeddings",
    "knn_bruteforce",
    "knn_ivf",
    "knn_ivf_recall",
    "label_centroids",
    "pca_project",
))
