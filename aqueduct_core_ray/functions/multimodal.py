"""Multimodal (opaque-binary) column plumbing.

Media payloads are opaque ``binary`` columns with typed metadata; decode /
feature-extract runs as an actor-pool ``map_batches`` stage (model loaded
once per actor in ``__init__``). ``real_decode=True`` genuinely decodes
self-describing payloads — PIL-supported images when PIL is importable
(probed once per actor), WAV audio and raw PGM/PPM via the stdlib — and
raises ``NotImplementedError`` only for formats this environment cannot
decode; the default path produces a deterministic fake feature vector so
the Ray-side plumbing (schema, batch sizing, actor signature, output
layout) is exercised everywhere.

Here the ``documents.text`` utf-8 bytes stand in for the media payload.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

FEAT_DIM = 8
# what PIL raises on bytes it cannot identify or decode
# (UnidentifiedImageError and truncated-file errors are OSErrors; some
# format plugins raise SyntaxError or ValueError on corrupt headers)
_PIL_DECODE_ERRORS = (OSError, SyntaxError, ValueError)


class MediaFeatureExtractor:
    """Actor-pool stage: binary payload -> (n_bytes, payload_hash, feat).

    ``__init__`` = model load (once per actor): a deterministic random
    projection matrix seeded by ``model_seed``. ``__call__`` = per batch:
    vectorized byte-length + keyed hash; the "decoded pixel" stand-in is
    the payload hash expanded to FEAT_DIM floats through the projection.
    """

    def __init__(self, model_seed: int = 11, real_decode: bool = False):
        rng = np.random.default_rng(np.random.PCG64(model_seed))
        self.proj = rng.standard_normal((FEAT_DIM, FEAT_DIM))
        self.real_decode = real_decode
        # probe-import once per ACTOR (not per batch): PIL when the
        # environment has it, else the stdlib decoders below
        self._pil = None
        if real_decode:
            try:                        # pragma: no cover - env-dependent
                from PIL import Image
                self._pil = Image
            except ImportError:
                self._pil = None

    def decode_real(self, payload: bytes) -> np.ndarray:
        """REAL decode -> FEAT_DIM feature vector for self-describing
        payloads: PIL-decodable images when PIL is importable, WAV audio
        (stdlib ``wave``) and raw PGM/PPM images (header + bytes) always.
        Payloads needing absent codec libraries still raise
        ``NotImplementedError`` — the honest gate, now only for formats
        this environment genuinely cannot decode."""
        import io

        if self._pil is not None:       # pragma: no cover - env-dependent
            try:
                img = self._pil.open(io.BytesIO(payload)).convert("L")
                px = np.asarray(img, dtype=np.float64).ravel()
                return _pooled(px / 255.0)
            except _PIL_DECODE_ERRORS:
                pass                    # fall through to stdlib decoders
        if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
            import wave
            with wave.open(io.BytesIO(payload)) as w:
                raw = w.readframes(w.getnframes())
                width = w.getsampwidth()
            dt = {1: np.uint8, 2: np.int16, 4: np.int32}.get(width)
            if dt is None:
                raise NotImplementedError(f"WAV sample width {width}")
            x = np.frombuffer(raw, dt).astype(np.float64)
            if width == 1:
                x -= 128.0          # 8-bit WAV is unsigned, midpoint 128
                x /= 127.0
            else:
                x /= float(np.abs(np.iinfo(dt).max))
            # per-window RMS over FEAT_DIM windows — a real (if tiny)
            # audio descriptor
            n = len(x) - len(x) % FEAT_DIM
            if n == 0:
                return np.zeros(FEAT_DIM)
            return np.sqrt((x[:n].reshape(FEAT_DIM, -1) ** 2).mean(axis=1))
        if payload[:2] in (b"P5", b"P6"):          # raw PGM / PPM
            # header = magic, width, height, maxval + EXACTLY ONE
            # whitespace byte before the pixels (a split() would eat
            # leading pixel bytes that happen to be whitespace values)
            import re
            m = re.match(rb"P[56]\s+\d+\s+\d+\s+\d+\s", payload)
            if m is None:
                raise NotImplementedError("truncated PGM/PPM header")
            px = np.frombuffer(payload[m.end():],
                               np.uint8).astype(np.float64)
            return _pooled(px / 255.0)
        raise NotImplementedError(
            "payload format needs codec libraries not present in this "
            "environment (PIL/av/soundfile)")

    def __call__(self, t: pa.Table) -> pa.Table:
        payload = t.column("payload")
        n_bytes = pc.binary_length(payload).cast(pa.int64())
        h = pd.util.hash_array(
            np.asarray(payload.to_numpy(zero_copy_only=False), dtype=object),
            categorize=False)
        if self.real_decode:
            # decode is inherently per-payload (each is one media file);
            # the numpy feature math inside each decode is vectorized
            feat = np.stack([self.decode_real(p)
                             for p in payload.to_pylist()]) \
                if t.num_rows else np.zeros((0, FEAT_DIM))
            feat = feat @ self.proj.T
        else:
            # fake "embedding": 8 hash-derived lanes through the model
            # matrix — the deterministic stand-in when no real decoder
            # applies
            lanes = np.stack([(h >> np.uint64(8 * i)) & np.uint64(0xFF)
                              for i in range(FEAT_DIM)],
                             axis=1).astype(np.float64)
            feat = (lanes / 255.0) @ self.proj.T
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_bytes": n_bytes,
            "payload_hash": pa.array(h.view(np.int64)),
            "feat": pa.FixedSizeListArray.from_arrays(
                pa.array(feat.reshape(-1), pa.float32()), FEAT_DIM),
        })


def _pooled(x: np.ndarray) -> np.ndarray:
    """Mean-pool a flat pixel/sample array into FEAT_DIM segments."""
    if len(x) == 0:
        return np.zeros(FEAT_DIM)
    n = len(x) - len(x) % FEAT_DIM
    if n == 0:
        out = np.zeros(FEAT_DIM)
        out[:len(x)] = x
        return out
    return x[:n].reshape(FEAT_DIM, -1).mean(axis=1)


class FrameSampler:
    """Actor-pool 1→N stage: opaque "video" payload -> ``n_frames``
    sampled frame records — the row-explosion plumbing (schema, output
    layout, batch sizing for the N× memory amplification) a real
    frame-sampling stage needs. The decode itself is STUBBED like
    MediaFeatureExtractor (no codec libs here): frames are deterministic
    keyed hashes of (payload, frame_idx), so identical payloads always
    produce identical frame sets."""

    def __init__(self, n_frames: int = 4, model_seed: int = 13):
        rng = np.random.default_rng(np.random.PCG64(model_seed))
        self.proj = rng.standard_normal((FEAT_DIM, FEAT_DIM))
        self.n_frames = n_frames

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        k = self.n_frames
        h = pd.util.hash_array(
            np.asarray(t.column("payload").to_numpy(zero_copy_only=False),
                       dtype=object), categorize=False)
        fidx = np.tile(np.arange(k, dtype=np.int64), n)
        # per-frame hash: payload hash mixed with the frame index
        fh = (np.repeat(h, k) * np.uint64(0x9E3779B97F4A7C15)
              + fidx.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
        lanes = np.stack([(fh >> np.uint64(8 * i)) & np.uint64(0xFF)
                          for i in range(FEAT_DIM)], axis=1
                         ).astype(np.float64)
        feat = (lanes / 255.0) @ self.proj.T
        return pa.table({
            "doc_id": t.column("doc_id").take(
                pa.array(np.repeat(np.arange(n), k))),
            "frame_idx": pa.array(fidx),
            "frame_hash": pa.array(fh.view(np.int64)),
            "feat": pa.FixedSizeListArray.from_arrays(
                pa.array(feat.reshape(-1), pa.float32()), FEAT_DIM),
        })


def frame_sample(sf_dir: str, n_frames: int = 4,
                 concurrency: "int | tuple[int, int] | None" = None,
                 batch_size: int = 256) -> ray.data.Dataset:
    """documents.text bytes as the opaque video payload -> ``n_frames``
    frame records per doc. ``batch_size`` is sized for the N× output
    amplification: output bytes ≈ batch_size × n_frames × frame size
    must fit the actor heap (with real frames, far smaller batches)."""
    from .text import actor_pool_size

    def to_payload(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "payload": t.column("text").cast(pa.binary())})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    # max_restarts=0: Ray Data ships fused-operator constructor state
    # through the object store, and restartable actors then warn that a
    # lost arg would break the restart (ray issue 53727); dead actors
    # are replaced by the pool and the task retried either way
    return (ds.map_batches(to_payload, batch_format="pyarrow")
            .map_batches(FrameSampler, batch_format="pyarrow",
                         batch_size=batch_size,
                         fn_constructor_kwargs={"n_frames": n_frames},
                         concurrency=concurrency or actor_pool_size(),
                         max_restarts=0))


class ImageResizer:
    """Actor-pool resize stage: binary image payload -> fixed
    (out_h × out_w) grayscale thumbnail re-encoded as raw PGM — the
    decode→resize→re-encode shape of a real image-normalization stage.

    REAL path: raw PGM/PPM payloads (and PIL-decodable images when PIL
    is importable) are actually decoded and resampled. Opaque payloads
    fall back to the deterministic fake (bytes reshaped into the
    largest square) so the plumbing — batch sizing for decoded-pixel
    memory, 1:1 schema, per-actor setup — is exercised on any corpus.

    The resample is NEAREST-NEIGHBOR with the standard pixel-center
    convention src = floor((dst + 0.5) · in/out): one precomputed index
    pair per output axis, one vectorized fancy-index gather per image —
    no per-pixel Python."""

    def __init__(self, out_w: int = 16, out_h: int = 16):
        self.out_w, self.out_h = int(out_w), int(out_h)
        try:                            # pragma: no cover - env-dependent
            from PIL import Image
            self._pil = Image
        except ImportError:
            self._pil = None

    def _decode(self, payload: bytes) -> np.ndarray:
        """payload -> 2-D uint8 grayscale array (REAL for PGM/PPM/PIL,
        deterministic square fake otherwise)."""
        import io
        import re

        if self._pil is not None:       # pragma: no cover - env-dependent
            try:
                img = self._pil.open(io.BytesIO(payload)).convert("L")
                return np.asarray(img, dtype=np.uint8)
            except _PIL_DECODE_ERRORS:
                pass                    # fall through to PGM/PPM or fake
        m = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+\d+\s", payload)
        if m is not None:
            w, h = int(m.group(2)), int(m.group(3))
            ch = 3 if m.group(1) == b"P6" else 1
            px = np.frombuffer(payload[m.end():], np.uint8)
            # zero-dim headers (w or h = 0) fall through to the opaque
            # fake below — resampling an empty axis would IndexError
            # and, with max_restarts=0, kill the pool on one bad doc
            if w > 0 and h > 0 and len(px) >= w * h * ch:
                px = px[:w * h * ch].reshape(h, w, ch)
                return px.mean(axis=2).astype(np.uint8) if ch == 3 \
                    else px[:, :, 0]
        # opaque payload: deterministic fake — largest square of bytes
        side = max(1, int(np.sqrt(len(payload))))
        px = np.frombuffer(payload, np.uint8)[:side * side]
        if len(px) < side * side:
            px = np.pad(px, (0, side * side - len(px)))
        return px.reshape(side, side)

    def _resize(self, img: np.ndarray) -> np.ndarray:
        ih, iw = img.shape
        ri = np.minimum(((np.arange(self.out_h) + 0.5) * ih
                         / self.out_h).astype(np.int64), ih - 1)
        ci = np.minimum(((np.arange(self.out_w) + 0.5) * iw
                         / self.out_w).astype(np.int64), iw - 1)
        return img[np.ix_(ri, ci)]

    def __call__(self, t: pa.Table) -> pa.Table:
        header = f"P5 {self.out_w} {self.out_h} 255\n".encode()
        in_w, in_h, out_pay, csum = [], [], [], []
        for p in t.column("payload").to_pylist():
            img = self._decode(p)
            thumb = self._resize(img)
            in_h.append(img.shape[0])
            in_w.append(img.shape[1])
            out_pay.append(header + thumb.tobytes())
            csum.append(int(thumb.astype(np.uint64).sum()))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "in_w": pa.array(in_w, pa.int32()),
            "in_h": pa.array(in_h, pa.int32()),
            "out_w": pa.array(np.full(t.num_rows, self.out_w, np.int32)),
            "out_h": pa.array(np.full(t.num_rows, self.out_h, np.int32)),
            "thumb": pa.array(out_pay, pa.binary()),
            "pixel_sum": pa.array(csum, pa.int64()),
        })


def resize_media(sf_dir: str, out_w: int = 16, out_h: int = 16,
                 concurrency: "int | tuple[int, int] | None" = None,
                 batch_size: int = 512) -> ray.data.Dataset:
    """documents.text bytes as the opaque image payload -> fixed-size
    PGM thumbnails. ``batch_size`` is sized for DECODED-pixel memory
    (batch_size × in_w × in_h bytes resident per batch), the binding
    constraint with real images, not the payload bytes."""
    from .text import actor_pool_size

    def to_payload(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "payload": t.column("text").cast(pa.binary())})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return (ds.map_batches(to_payload, batch_format="pyarrow")
            .map_batches(ImageResizer, batch_format="pyarrow",
                         batch_size=batch_size,
                         fn_constructor_kwargs={"out_w": out_w,
                                                "out_h": out_h},
                         concurrency=concurrency or actor_pool_size(),
                         max_restarts=0))   # see frame_sample note


def media_features(sf_dir: str,
                   concurrency: "int | tuple[int, int] | None" = None,
                   batch_size: int = 1024,
                   real_decode: bool = False) -> ray.data.Dataset:
    """documents.text bytes as the opaque payload -> feature extraction.
    Small ``batch_size`` on purpose: with real images, batch bytes =
    batch_size × payload size must fit the actor heap. Pool size scales
    with the cluster (see functions.text.actor_pool_size).
    ``real_decode=True`` routes payloads through the real decoders
    (PIL when importable, stdlib WAV/PGM/PPM otherwise)."""
    from .text import actor_pool_size

    def to_payload(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "payload": t.column("text").cast(pa.binary())})

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return (ds.map_batches(to_payload, batch_format="pyarrow")
            .map_batches(MediaFeatureExtractor, batch_format="pyarrow",
                         batch_size=batch_size,
                         fn_constructor_kwargs={"real_decode": real_decode},
                         concurrency=concurrency or actor_pool_size(),
                         max_restarts=0))   # see frame_sample note


# ------------------------------------------------------------------ #
# Per-operator timing telemetry (reference TimedDistributedStorage
# .java:10-31 / MetricsInterceptor.java:12-36 analog): every public
# operator above records (op, wall_s, rows) per call — see
# aqueduct_core_ray/metrics.py for the sinks.
from ..metrics import instrument_entry_points  # noqa: E402

instrument_entry_points(globals(), (
    "frame_sample",
    "media_features",
    "resize_media",
))
