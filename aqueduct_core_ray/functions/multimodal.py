"""Multimodal (opaque-binary) column plumbing.

Media payloads are opaque ``binary`` columns with typed metadata; decode /
feature-extract runs as a plain callable stage (its model built once, on
the driver, in ``__init__``) in raw ``exchange.map_blocks`` tasks over
the documents leaf, one task per leaf unit (a unit's byte cap bounds a
task's input). ``real_decode=True`` genuinely decodes self-describing
payloads — PIL-supported images when PIL is importable (probed once per
process), WAV audio and raw PGM/PPM via the stdlib — and raises
``NotImplementedError`` only for formats this environment cannot
decode; the default path produces a deterministic fake feature vector
so the Ray-side plumbing (schema, stage signature, output layout) is
exercised everywhere.

Here the ``documents.text`` utf-8 bytes stand in for the media payload.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .text import _per_doc

FEAT_DIM = 8
# what PIL raises on bytes it cannot identify or decode
# (UnidentifiedImageError and truncated-file errors are OSErrors; some
# format plugins raise SyntaxError or ValueError on corrupt headers)
_PIL_DECODE_ERRORS = (OSError, SyntaxError, ValueError)


@functools.lru_cache(maxsize=None)
def _pil_image():
    """PIL's ``Image`` module when the environment has it, else None
    (probed once per process)."""
    try:                                # pragma: no cover - env-dependent
        from PIL import Image
        return Image
    except ImportError:
        return None


def _media(sf_dir: str, stage) -> ray.data.Dataset:
    """``stage`` over every documents unit in raw tasks, the utf-8 bytes
    of ``documents.text`` as its opaque ``payload`` column."""
    return _per_doc(sf_dir, ["doc_id", "text"],
                    functools.partial(_on_payload, stage=stage))


def _on_payload(t: pa.Table, stage) -> pa.Table:
    return stage(pa.table({"doc_id": t.column("doc_id"),
                           "payload": t.column("text").cast(pa.binary())}))


class MediaFeatureExtractor:
    """Per-block stage: binary payload -> (n_bytes, payload_hash, feat).

    ``__init__`` = model load (once per call of the operator): a
    deterministic random projection matrix seeded by ``model_seed``.
    ``__call__`` = per block: vectorized byte-length + keyed hash; the
    "decoded pixel" stand-in is the payload hash expanded to FEAT_DIM
    floats through the projection.
    """

    def __init__(self, model_seed: int = 11, real_decode: bool = False):
        rng = np.random.default_rng(np.random.PCG64(model_seed))
        self.proj = rng.standard_normal((FEAT_DIM, FEAT_DIM))
        self.real_decode = real_decode

    def decode_real(self, payload: bytes) -> np.ndarray:
        """REAL decode -> FEAT_DIM feature vector for self-describing
        payloads: PIL-decodable images when PIL is importable, WAV audio
        (stdlib ``wave``) and raw PGM/PPM images (header + bytes) always.
        Payloads needing absent codec libraries still raise
        ``NotImplementedError`` — the honest gate, now only for formats
        this environment genuinely cannot decode."""
        import io

        pil = _pil_image()
        if pil is not None:             # pragma: no cover - env-dependent
            try:
                img = pil.open(io.BytesIO(payload)).convert("L")
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
    """Per-block 1→N stage: opaque "video" payload -> ``n_frames``
    sampled frame records — the row-explosion plumbing (schema, output
    layout) a real frame-sampling stage needs. The decode itself is STUBBED like
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


def frame_sample(sf_dir: str, n_frames: int = 4) -> ray.data.Dataset:
    """documents.text bytes as the opaque video payload -> ``n_frames``
    frame records per doc."""
    return _media(sf_dir, FrameSampler(n_frames=n_frames))


class ImageResizer:
    """Per-block resize stage: binary image payload -> fixed
    (out_h × out_w) grayscale thumbnail re-encoded as raw PGM — the
    decode→resize→re-encode shape of a real image-normalization stage.

    REAL path: raw PGM/PPM payloads (and PIL-decodable images when PIL
    is importable) are actually decoded and resampled. Opaque payloads
    fall back to the deterministic fake (bytes reshaped into the
    largest square) so the plumbing — 1:1 schema, stage setup — is
    exercised on any corpus.

    The resample is NEAREST-NEIGHBOR with the standard pixel-center
    convention src = floor((dst + 0.5) · in/out): one precomputed index
    pair per output axis, one vectorized fancy-index gather per image —
    no per-pixel Python."""

    def __init__(self, out_w: int = 16, out_h: int = 16):
        self.out_w, self.out_h = int(out_w), int(out_h)

    def _decode(self, payload: bytes) -> np.ndarray:
        """payload -> 2-D uint8 grayscale array (REAL for PGM/PPM/PIL,
        deterministic square fake otherwise)."""
        import io
        import re

        pil = _pil_image()
        if pil is not None:             # pragma: no cover - env-dependent
            try:
                img = pil.open(io.BytesIO(payload)).convert("L")
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
            # and fail the whole task on one bad doc
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


def resize_media(sf_dir: str, out_w: int = 16, out_h: int = 16
                 ) -> ray.data.Dataset:
    """documents.text bytes as the opaque image payload -> fixed-size
    PGM thumbnails."""
    return _media(sf_dir, ImageResizer(out_w=out_w, out_h=out_h))


def media_features(sf_dir: str, real_decode: bool = False
                   ) -> ray.data.Dataset:
    """documents.text bytes as the opaque payload -> feature extraction.
    ``real_decode=True`` routes payloads through the real decoders
    (PIL when importable, stdlib WAV/PGM/PPM otherwise)."""
    return _media(sf_dir, MediaFeatureExtractor(real_decode=real_decode))


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
