"""Trained quality-classifier filter — the CCNet / GPT-3-style data
curation step: fit a logistic regression over hashed unigram+bigram
features (the DSIR representation, shared with ``text.dsir_weights``)
against a labeled seed (here: ``source == positive_source``), then
score EVERY document with the trained model. Downstream, the logits
feed the existing threshold / weighted-sampling operators exactly like
the reference pipelines feed fastText quality scores.

Distributed-exact training: full-batch gradient descent where each
document's residual ``sigmoid(w·x) - y`` is QUANTIZED to integer
micro-units before the feature scatter — every cross-block reduction
is an order-insensitive integer sum (floats only ever accumulate
integers < 2^53, which is exact), so the trained weights and all
scores are bit-identical under any partitioning / block order / CPU
count: the same trick as ``ann.kmeans_embeddings``.

Memory shape (the 100-TB fix): features are extracted ONCE per block
by ``map_blocks`` tasks that spill each block's arrays to a file under
the exchange root and return only a (path, n_docs) manifest — nothing
corpus-sized is ever pinned in the object store.
Each GD iteration is one fan of raw tasks that re-read their feature
file (buffered local/shared-FS read — the same placement contract as
stages/exchange.py) and fold a ``(dim+1,)`` int64 gradient; peak
object-store residency is O(in-flight gradient partials), not
O(corpus). A Ray Data pass per iteration would cost ~1 s of plan
overhead PER ITERATION (measured on the k-means twin), which is why
the iteration fan is raw tasks over the spilled files.

No reference analog (aqueduct-core moves opaque payloads); this is a
§"beyond the reference" training-data operator. Iterative => no SQL
oracle (rows-only driver check; pinned bit-exactly against a
single-process numpy replica in tests/test_functions.py).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages import exchange
from ..stages.exchange import _guard_shared_root
from .text import _docs, _dsir_features

_MICRO = 1e6


def _load_feats(path: str):
    """(feats, fdoc, y, doc_id) from one spilled block file."""
    with np.load(path) as z:
        return z["feats"], z["fdoc"], z["y"], z["did"]


def _spill_block(t: pa.Table, *, feat_dir: str, dim: int,
                 positive_source: str) -> pa.Table:
    """Featurize one block ONCE and spill its arrays to disk; only the
    bounded (path, n_docs) manifest returns to the driver."""
    empty = pa.table({"path": pa.array([], pa.string()),
                      "n_docs": pa.array([], pa.int64())})
    if t.num_rows == 0:
        return empty
    feats, fdoc = _dsir_features(t, dim)
    y = pc.equal(t.column("source"), positive_source) \
        .fill_null(False).to_numpy(zero_copy_only=False)
    did = t.column("doc_id").to_numpy(zero_copy_only=False)
    path = os.path.join(feat_dir, f"feat-{uuid.uuid4().hex}.npz")
    tmp = path + ".tmp.npz"
    np.savez(tmp, feats=feats, fdoc=fdoc,
             y=y.astype(np.int8), did=did.astype(np.int64))
    os.replace(tmp, path)
    return pa.table({"path": pa.array([path]),
                     "n_docs": pa.array([t.num_rows], pa.int64())})


def _doc_logits(prep, w: np.ndarray, dim: int) -> np.ndarray:
    """Per-doc raw logit ``bias + Σ w[f]`` — the per-doc float
    accumulation order is fixed by _dsir_features' deterministic
    per-doc feature order, so logits are partitioning-invariant."""
    feats, fdoc, y, _ = prep
    z = np.bincount(fdoc, weights=w[feats], minlength=len(y))
    return z + w[dim]


@ray.remote(num_cpus=1)
def _lr_iter(path: str, w: np.ndarray, dim: int) -> np.ndarray:
    """One block's gradient partial: integer micro-unit residuals
    scattered onto features. bincount's float accumulation only ever
    adds integers (|Σ| ≤ 1e6·occurrences < 2^53) — exact, therefore
    order-insensitive."""
    prep = _load_feats(path)
    feats, fdoc, y, _ = prep
    z = _doc_logits(prep, w, dim)
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
    rq = np.floor((p - y) * _MICRO + 0.5).astype(np.int64)
    g = np.bincount(feats, weights=rq[fdoc].astype(np.float64),
                    minlength=dim).astype(np.int64)
    return np.concatenate([g, [int(rq.sum())]])


@ray.remote(num_cpus=1)
def _lr_score(path: str, w: np.ndarray, dim: int) -> pa.Table:
    prep = _load_feats(path)
    _, _, y, did = prep
    z = _doc_logits(prep, w, dim)
    return pa.table({
        "doc_id": pa.array(did.astype(np.int64)),
        "label": pa.array(y.astype(np.int64)),
        "logit_micro": pa.array(np.floor(z * _MICRO + 0.5)
                                .astype(np.int64)),
    })


def _empty_scores() -> pa.Table:
    return pa.table({"doc_id": pa.array([], pa.int64()),
                     "label": pa.array([], pa.int64()),
                     "logit_micro": pa.array([], pa.int64())})


def _lr_fit(paths: "list[str]", n_total: int, dim: int, iters: int,
            lr: float) -> np.ndarray:
    """Full-batch quantized GD over spilled block features. The fold
    ``np.sum([int64 partials])`` is order-insensitive, so the weight
    trajectory is bit-identical under any block layout."""
    w = np.zeros(dim + 1, np.float64)
    for _ in range(iters):
        wref = ray.put(w)
        outs = ray.get([_lr_iter.remote(p, wref, dim) for p in paths])
        g = np.sum(outs, axis=0)
        w = w - lr * (g / _MICRO) / n_total
    return w


def quality_classifier_score(sf_dir: str, positive_source: str = "src0",
                             dim: int = 1 << 16, iters: int = 25,
                             lr: float = 2.0,
                             feat_root: "str | None" = None,
                             _stats_out: "dict | None" = None
                             ) -> ray.data.Dataset:
    """Train the hashed-feature logistic quality classifier on the
    corpus (label = ``source == positive_source``) and score every
    document. Returns (doc_id, label, logit_micro) — logit in integer
    micro-units (floor(z*1e6+0.5)); positive logits read as
    "looks like the positive source".

    ``feat_root``: where the once-per-block feature spill lives
    (``AQR_EXCHANGE_ROOT`` / system tempdir by default — shared FS on
    a real cluster, same contract and multi-node guard as the file
    exchange)."""
    base = (feat_root or os.environ.get("AQR_EXCHANGE_ROOT")
            or tempfile.gettempdir())
    _guard_shared_root(base, explicit=bool(
        feat_root or os.environ.get("AQR_EXCHANGE_ROOT")),
        kind="classifier feature root", env="AQR_EXCHANGE_ROOT")
    feat_dir = os.path.join(base, f"aqr_lrfeat_{uuid.uuid4().hex}")
    os.makedirs(feat_dir, exist_ok=True)
    try:
        from functools import partial as _p
        manifest = pa.concat_tables(ray.get(exchange.map_blocks(
            _docs(sf_dir, ["doc_id", "text", "source"]),
            _p(_spill_block, feat_dir=feat_dir, dim=dim,
               positive_source=positive_source))))
        paths = manifest.column("path").to_pylist()
        n_total = pc.sum(manifest.column("n_docs")).as_py() or 0
        if _stats_out is not None:
            _stats_out.update(
                spilled=True, feat_files=len(paths),
                feat_bytes=sum(os.path.getsize(p) for p in paths))
        if not paths:
            return ray.data.from_arrow(_empty_scores())
        w = _lr_fit(paths, n_total, dim, iters, lr)
        wref = ray.put(w)
        refs = [_lr_score.remote(p, wref, dim) for p in paths]
        # scores materialize (bounded: 3 int64 cols/doc) before the
        # feature spill is deleted
        ray.wait(refs, num_returns=len(refs))
        return ray.data.from_arrow_refs(refs)
    finally:
        shutil.rmtree(feat_dir, ignore_errors=True)


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "quality_classifier_score",
))
