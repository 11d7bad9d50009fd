"""JSONL changelog ingress — the reference's wire format as a source.

The reference's pipe protocol moves newline-JSON `Message`s
(pipe-api .../Message.java:14-34: msg_offset, msg_key, type,
created_utc, data; `data == null` is the tombstone,
SQLiteQueries.java:54-55). Round 1 mapped JSON away at the storage
layer (S6: Arrow/Parquet everywhere internally); this module is the
INGRESS adapter, so a publisher still emitting reference-style JSONL
can feed this engine directly: `ray.data.read_json` streams the lines,
one vectorized projection conforms them to the CHANGE_EVENT envelope,
and the result replays through the normal wave machinery (the opaque
`data` string stays a payload column; schema evolution handles whatever
else the publisher adds).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages import exchange

# Message.java field names -> engine envelope
_FIELD_MAP = {
    "msg_offset": "lsn",
    "msg_key": "doc_id",
    "type": "source",
    "created_utc": "ts",
}


def conform_messages(t: pa.Table) -> pa.Table:
    """One reference-JSON batch -> CHANGE_EVENT-shaped batch.

    op derives from `data IS NULL` (the reference's tombstone contract);
    every column that is not part of the envelope rides along as
    payload, so publishers may add fields freely (schema evolution
    reconciles them lake-side)."""
    n = t.num_rows
    cols: dict[str, pa.ChunkedArray | pa.Array] = {}
    for src, dst in _FIELD_MAP.items():
        if src not in t.column_names:
            raise ValueError(f"JSONL changelog is missing required "
                             f"Message field {src!r}")
        cols[dst] = t.column(src)
    cols["lsn"] = cols["lsn"].cast(pa.int64())
    ts = cols["ts"]
    if pa.types.is_string(ts.type):
        try:
            ts = pc.strptime(ts, format="%Y-%m-%dT%H:%M:%SZ", unit="us")
        except pa.ArrowInvalid:
            # fractional seconds (Arrow %S emits them; real publishers
            # send them): pandas ISO8601 parse, still vectorized
            import pandas as pd
            parsed = pd.to_datetime(
                ts.to_pandas(), utc=True, format="ISO8601")
            ts = pa.Array.from_pandas(parsed.dt.tz_localize(None))
    cols["ts"] = ts.cast(pa.timestamp("us"))
    if "data" in t.column_names:
        data = t.column("data")
        op = pc.if_else(pc.is_null(data), pa.scalar(1, pa.int8()),
                        pa.scalar(0, pa.int8()))
        cols["data"] = data
    else:
        op = pa.array(np.zeros(n, np.int8))
    cols["op"] = op
    for name in t.column_names:
        if name not in _FIELD_MAP and name != "data":
            cols[name] = t.column(name)
    order = ["lsn", "op", "doc_id"]
    rest = [c for c in cols if c not in order + ["source", "ts"]]
    return pa.table({k: cols[k] for k in order + rest + ["source", "ts"]})


def read_jsonl_changelog(path: str | list[str],
                         compression: str | None = None
                         ) -> ray.data.Dataset:
    """Reference-style JSONL message log as a CHANGE_EVENT Dataset —
    feed it to `CDCEngine.bootstrap`/`_apply` via parquet staging or
    `replay_jsonl` below.

    ``compression``: the reference's wire codecs (T5,
    PipeReadController's brotli/gzip content negotiation) map to
    compressed JSONL segments at this ingress: 'gzip' | 'brotli' |
    None, or 'detect' to infer from the file extension
    (.gz/.gzip -> gzip, .br -> brotli). Decompression streams through
    Arrow's codec layer inside each read task — no whole-file driver
    inflate."""
    kwargs = {}
    if compression == "detect":
        p0 = path[0] if isinstance(path, list) else path
        if p0.endswith((".gz", ".gzip")):
            compression = "gzip"
        elif p0.endswith(".br"):
            compression = "brotli"
        else:
            compression = None
    if compression:
        kwargs["arrow_open_stream_args"] = {"compression": compression}
    return ray.data.read_json(path, **kwargs) \
        .map_batches(conform_messages, batch_format="pyarrow")


def stage_jsonl_to_log(path: str | list[str], out_dir: str) -> str:
    """Materialize a JSONL message stream as an lsn-ordered parquet log
    directory the engine can tail/replay (the staging step a real
    deployment runs once at the ingest edge; segment footers then give
    the engine its lsn index for free)."""
    read_jsonl_changelog(path).write_parquet(out_dir)
    return out_dir


# --------------------------------------------------------------------- #
# Dead-letter quarantine — the validation layer a real ingest edge
# needs: a publisher bug (truncated line, missing key, garbage
# timestamp) must quarantine THAT message with a reason, not kill the
# pipeline or poison the lake. Reference anchor: the pipe rejects
# malformed Messages at the codec boundary (pipe-codec; Message's
# required fields are non-null by construction) — here the reject path
# is made durable and auditable.
# --------------------------------------------------------------------- #
_DL_SCHEMA = pa.schema([("line", pa.string()), ("reason", pa.string())])


def _parse_lines(lines: "list[str]") -> "tuple[pa.Table | None, list[tuple[str, str]]]":
    """Parse a batch of JSONL lines with pyarrow's C++ JSON reader,
    BISECTING on failure to isolate bad lines — the happy path stays
    one vectorized parse; a batch with b bad lines costs O(b log n)
    extra parses, zero per-line Python in the common case."""
    import io

    from pyarrow import json as pa_json

    good = [ln for ln in lines if ln.strip()]
    if not good:
        return None, []
    try:
        t = pa_json.read_json(
            io.BytesIO(("\n".join(good)).encode("utf-8")))
        return t, []
    except pa.ArrowInvalid as e:
        if len(good) == 1:
            return None, [(good[0], f"json: {e}")]
        mid = len(good) // 2
        t1, bad1 = _parse_lines(good[:mid])
        t2, bad2 = _parse_lines(good[mid:])
        tabs = [t for t in (t1, t2) if t is not None]
        merged = (pa.concat_tables(tabs, promote_options="default")
                  if tabs else None)
        return merged, bad1 + bad2


def read_jsonl_changelog_quarantine(
        path: "str | list[str]", dead_letter_dir: str,
        compression: "str | None" = None) -> ray.data.Dataset:
    """`read_jsonl_changelog` with a DEAD-LETTER path instead of a
    poison pill: structurally-bad lines (broken JSON) and semantically-
    bad messages (missing/null msg_offset / msg_key / type, unparseable
    created_utc) are written to ``dead_letter_dir`` as parquet rows
    (original line + reason) from inside the read tasks; the good rows
    stream on as ordinary CHANGE_EVENTs. Inspect the quarantine with
    ``read_dead_letters``. Exactly-once note: re-running the same
    ingest appends duplicate dead-letter rows (the quarantine is an
    audit log, not state); the GOOD path stays exactly-once through
    the engine's ordinary wave fencing."""
    import json as _json
    import os
    import uuid

    os.makedirs(dead_letter_dir, exist_ok=True)
    kwargs = {}
    if compression == "detect":
        p0 = path[0] if isinstance(path, list) else path
        if p0.endswith((".gz", ".gzip")):
            compression = "gzip"
        elif p0.endswith(".br"):
            compression = "brotli"
        else:
            compression = None
    if compression:
        kwargs["arrow_open_stream_args"] = {"compression": compression}

    def conform_or_quarantine(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        lines = t.column("text").to_pylist()
        parsed, bad = _parse_lines(lines)
        rows_bad = list(bad)
        good = None
        if parsed is not None:
            n = parsed.num_rows
            ok = np.ones(n, bool)
            reasons = np.array([""] * n, object)
            for req in ("msg_offset", "msg_key", "type"):
                if req not in parsed.column_names:
                    ok[:] = False
                    reasons[:] = f"missing field {req}"
                    break
                nul = pc.is_null(parsed.column(req)) \
                    .to_numpy(zero_copy_only=False)
                reasons[nul & ok] = f"null {req}"
                ok &= ~nul
            if "created_utc" in parsed.column_names and ok.any():
                ts = parsed.column("created_utc")
                if pa.types.is_string(ts.type):
                    import pandas as pd
                    tss = ts.to_pandas()
                    co = pd.to_datetime(
                        tss, format="%Y-%m-%dT%H:%M:%SZ",
                        errors="coerce", utc=True)
                    badts = co.isna().to_numpy()
                    if badts.any():
                        # SAME acceptance as conform_messages' parse:
                        # fractional-second ISO8601 timestamps are valid
                        # wire values (Arrow %S emits them), not
                        # quarantine fodder — only genuinely unparseable
                        # strings dead-letter
                        retry = pd.to_datetime(
                            tss[badts], format="ISO8601",
                            errors="coerce", utc=True)
                        badts[badts] = retry.isna().to_numpy()
                    reasons[badts & ok] = "bad created_utc"
                    ok &= ~badts
            elif "created_utc" not in parsed.column_names:
                ok[:] = False
                reasons[:] = "missing field created_utc"
            if (~ok).any():
                sel = np.flatnonzero(~ok)
                recs = parsed.take(pa.array(sel)).to_pylist()
                rows_bad += [
                    (_json.dumps(r, default=str), str(reasons[i]))
                    for i, r in zip(sel, recs)]
            if ok.any():
                keep = parsed.filter(pa.array(ok))
                # pin tombstone semantics independent of block
                # boundaries: a line OMITTING the data key is the same
                # as "data": null (Message.data is the one nullable
                # field — absent == null under JSON object semantics).
                # Without this, column inference per parse block would
                # make the SAME line op=0 or op=1 depending on which
                # lines happened to share its block.
                if "data" not in keep.column_names:
                    keep = keep.append_column(
                        "data", pa.nulls(keep.num_rows, pa.string()))
                good = conform_messages(keep)
        if rows_bad:
            dl = pa.table({
                "line": pa.array([l for l, _ in rows_bad], pa.string()),
                "reason": pa.array([r for _, r in rows_bad], pa.string()),
            })
            pq.write_table(dl, os.path.join(
                dead_letter_dir, f"dl-{uuid.uuid4().hex}.parquet"))
        if good is None:
            # typed empty in the conformed envelope shape
            probe = conform_messages(pa.table({
                "msg_offset": pa.array([], pa.int64()),
                "msg_key": pa.array([], pa.string()),
                "type": pa.array([], pa.string()),
                "created_utc": pa.array([], pa.timestamp("us")),
                "data": pa.array([], pa.string()),
            }))
            return probe
        return good

    return ray.data.read_text(path, **kwargs) \
        .map_batches(conform_or_quarantine, batch_format="pyarrow")


def read_dead_letters(dead_letter_dir: str) -> pa.Table:
    """The quarantine as one (line, reason) table — empty when the
    ingest was clean."""
    import glob
    import os

    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(dead_letter_dir, "*.parquet")))
    if not files:
        return _DL_SCHEMA.empty_table()
    return pa.concat_tables([pq.read_table(f) for f in files],
                            promote_options="default")


def read_csv_changelog(path: "str | list[str]") -> ray.data.Dataset:
    """CSV flavor of the Message ingress (same field contract as the
    JSONL adapter; bulk exports and legacy publishers speak CSV). An
    UNQUOTED empty ``data`` field reads as null == tombstone
    (strings_can_be_null — the csv analog of ``data: null``); a quoted
    empty string stays a real (empty) payload."""
    from pyarrow import csv as pa_csv

    return ray.data.read_csv(
        path,
        convert_options=pa_csv.ConvertOptions(
            strings_can_be_null=True,
            quoted_strings_can_be_null=False),
    ).map_batches(conform_messages, batch_format="pyarrow")


def write_message_jsonl(log_dir: str, out_dir: str,
                        compression: "str | None" = None) -> str:
    """The INVERSE wire adapter: a parquet change log (or outbox) as
    reference-style Message JSONL segments, so reference consumers can
    tail THIS engine's output (round-trips with
    ``read_jsonl_changelog``). Each change event becomes one line with
    msg_offset/msg_key/type/created_utc, tombstones (op=1) emit
    ``data: null``, and any extra payload columns ride along as extra
    JSON fields (the reference codec ignores unknown fields).

    Vectorized: one raw task per unit of the log's leaf writes one
    segment with one pandas ``to_json(lines=True)`` (C serializer) — no
    per-row Python. With
    ``compression`` ('gzip' | 'brotli') segments stream through
    Arrow's codec layer (same wire codecs as the ingress)."""
    import os
    import uuid

    os.makedirs(out_dir, exist_ok=True)
    ext = {"gzip": ".jsonl.gz", "brotli": ".jsonl.br"}.get(
        compression, ".jsonl")

    def emit(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        iso = pc.strftime(t.column("ts").cast(pa.timestamp("us")),
                          format="%Y-%m-%dT%H:%M:%SZ")
        cols = {"msg_offset": t.column("lsn").cast(pa.int64()),
                "msg_key": t.column("doc_id"),
                "type": t.column("source"),
                "created_utc": iso}
        tomb = pc.equal(t.column("op"), pa.scalar(1, pa.int8()))
        if "data" in t.column_names:
            cols["data"] = pc.if_else(tomb, pa.nulls(t.num_rows,
                                                     pa.string()),
                                      t.column("data"))
        else:
            # no opaque payload: null marker for tombstones only; the
            # real payload columns follow as extra fields
            cols["data"] = pc.if_else(
                tomb, pa.nulls(t.num_rows, pa.string()),
                pa.array(["{}"] * t.num_rows, pa.string()))
        for name in t.column_names:
            if name not in ("lsn", "op", "doc_id", "ts", "source",
                            "data", "part"):
                cols[name] = t.column(name)
        df = pa.table(cols).to_pandas()
        path = os.path.join(out_dir,
                            f"seg-{uuid.uuid4().hex}{ext}")
        payload = df.to_json(orient="records", lines=True,
                             force_ascii=False)
        if compression:
            with pa.output_stream(path, compression=compression) as f:
                f.write(payload.encode("utf-8"))
        else:
            with open(path, "w", encoding="utf-8") as f:
                f.write(payload)
        return pa.table({"path": [path]})

    ray.get(exchange.map_blocks(exchange.leaf(log_dir), emit))
    return out_dir
