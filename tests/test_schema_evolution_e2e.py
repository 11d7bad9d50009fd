"""Schema evolution through the full engine (FIXTURES.md §2.5): dropped
column filled null, added column preserved lake-wide, int32→int64 n_tok
widening with value equality."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import seed_lake


def wave_table(rows, schema):
    return pa.Table.from_pylist(rows, schema=schema)


BASE = pa.schema([
    pa.field("lsn", pa.int64()), pa.field("op", pa.int8()),
    pa.field("doc_id", pa.string()),
    pa.field("tokens", pa.list_(pa.int32())),
    pa.field("n_tok", pa.int32()), pa.field("source", pa.string()),
    pa.field("ts", pa.timestamp("us")),
])

NO_SOURCE = pa.schema([f for f in BASE if f.name != "source"])

WITH_LANG = pa.schema(list(BASE) + [pa.field("lang", pa.string())])

WIDE_NTOK = pa.schema([
    pa.field("lsn", pa.int64()), pa.field("op", pa.int8()),
    pa.field("doc_id", pa.string()),
    pa.field("tokens", pa.list_(pa.int32())),
    pa.field("n_tok", pa.int64()), pa.field("source", pa.string()),
    pa.field("ts", pa.timestamp("us")),
])


def write_wave(tmp_path, name, table):
    d = tmp_path / name
    d.mkdir()
    pq.write_table(table, str(d / "w.parquet"))
    return str(d)


def test_dropped_added_and_widened(tmp_path):
    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=3)
    eng.bootstrap(seed_lake(10, seed=1))

    # wave 1: batches missing `source` (dropped column → null-filled)
    w1 = write_wave(tmp_path, "w1", wave_table(
        [{"lsn": 1, "op": 0, "doc_id": "newA", "tokens": [1, 2],
          "n_tok": 2, "ts": 0}], NO_SOURCE))
    eng.apply_wave(w1, hi=1)
    t = eng.lake_table()
    row = t.filter(pa.compute.equal(t["doc_id"], "newA")).to_pylist()[0]
    assert row["source"] is None and row["tokens"] == [1, 2]

    # wave 2: extra column `lang` → lake schema evolves, old rows null
    w2 = write_wave(tmp_path, "w2", wave_table(
        [{"lsn": 2, "op": 0, "doc_id": "newB", "tokens": [3],
          "n_tok": 1, "source": "web", "lang": "en", "ts": 0}], WITH_LANG))
    eng.apply_wave(w2, hi=2)
    t = eng.lake_table()
    assert "lang" in t.column_names
    by_id = {r["doc_id"]: r for r in t.to_pylist()}
    assert by_id["newB"]["lang"] == "en"
    assert by_id["newA"]["lang"] is None
    assert by_id["doc00000000"]["lang"] is None

    # wave 3: n_tok arrives int64 → widened lake-wide, values preserved
    w3 = write_wave(tmp_path, "w3", wave_table(
        [{"lsn": 3, "op": 0, "doc_id": "newC", "tokens": [4, 5, 6],
          "n_tok": 3, "source": "code", "ts": 0}], WIDE_NTOK))
    eng.apply_wave(w3, hi=3)
    t = eng.lake_table()
    assert t.schema.field("n_tok").type == pa.int64()
    by_id = {r["doc_id"]: r for r in t.to_pylist()}
    assert by_id["newC"]["n_tok"] == 3
    assert by_id["newA"]["n_tok"] == 2            # value preserved thru widen
    seed0 = seed_lake(10, seed=1).to_pylist()[0]
    assert by_id["doc00000000"]["n_tok"] == seed0["n_tok"]
    assert by_id["doc00000000"]["tokens"] == seed0["tokens"]

    # deletes still apply across an evolved schema
    w4 = write_wave(tmp_path, "w4", wave_table(
        [{"lsn": 4, "op": 1, "doc_id": "newA", "tokens": None,
          "n_tok": None, "source": "web", "ts": 0}], BASE))
    eng.apply_wave(w4, hi=4)
    assert "newA" not in {r["doc_id"] for r in eng.lake_table().to_pylist()}


def test_binary_media_payload_through_engine(tmp_path):
    """Multimodal-lake CDC: an opaque ``media: binary`` payload column
    added MID-STREAM flows through scan -> exchange -> LWW merge ->
    commit byte-exactly — updates replace blobs, deletes remove them,
    pre-evolution rows read null, and two partition counts agree on the
    content signatures."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aqueduct_core_ray.pipelines.replay import CDCEngine
    from aqueduct_core_ray.schema import CHANGE_EVENT

    blob_a0 = bytes(range(256))                 # full byte alphabet
    blob_a1 = b"\x00\x89PNG\r\n\x1a\n" * 7      # binary magic + repeats
    blob_c = b"\xff\xfe" + bytes(100)
    log = tmp_path / "log"
    log.mkdir()
    base = pa.Table.from_pylist([
        {"lsn": 1, "op": 0, "doc_id": "a", "tokens": [1], "n_tok": 1,
         "source": "web", "ts": 1_000_000},
        {"lsn": 2, "op": 0, "doc_id": "b", "tokens": [2], "n_tok": 1,
         "source": "web", "ts": 2_000_000},
    ], schema=CHANGE_EVENT)
    ev_schema = pa.schema(list(CHANGE_EVENT)
                          + [pa.field("media", pa.binary())])
    evolved = pa.Table.from_pylist([
        {"lsn": 3, "op": 0, "doc_id": "a", "tokens": [9], "n_tok": 1,
         "source": "web", "ts": 3_000_000, "media": blob_a0},
        {"lsn": 4, "op": 0, "doc_id": "c", "tokens": [3], "n_tok": 1,
         "source": "web", "ts": 4_000_000, "media": blob_c},
        {"lsn": 5, "op": 0, "doc_id": "a", "tokens": [9], "n_tok": 1,
         "source": "web", "ts": 5_000_000, "media": blob_a1},
        {"lsn": 6, "op": 1, "doc_id": "c", "tokens": None,
         "n_tok": None, "source": "web", "ts": 6_000_000, "media": None},
    ], schema=ev_schema)
    pq.write_table(base, str(log / "chunk-00000.parquet"))
    pq.write_table(evolved, str(log / "chunk-00001.parquet"))

    engines = []
    for i, P in enumerate((2, 5)):
        eng = CDCEngine(str(tmp_path / f"lake{i}"), num_partitions=P,
                        derivations=())
        eng.replay(str(log), [(0, 3), (3, 6)])
        rows = {r["doc_id"]: r for r in eng.lake_table().to_pylist()}
        assert set(rows) == {"a", "b"}            # c tombstoned
        assert rows["a"]["media"] == blob_a1      # LWW replaced blob
        assert rows["b"]["media"] is None         # pre-evolution row
        assert eng.manifest.schema.field("media").type == pa.binary()
        engines.append(eng)
    cols = ["doc_id", "tokens", "n_tok", "source", "last_lsn", "media"]
    assert engines[0].checksum(columns=cols).equals(
        engines[1].checksum(columns=cols))


def test_read_blocks_carry_the_manifest_types(tmp_path):
    """After a widening wave and ``compact_partitions``, untouched
    partitions still hold their bootstrap files (n_tok int32 on disk):
    every block of a full and of a projected ``read_lake`` has the
    manifest's field types, so the blocks concatenate."""
    import ray

    eng = CDCEngine(str(tmp_path / "lake"), num_partitions=3)
    eng.bootstrap(seed_lake(10, seed=1))
    w = write_wave(tmp_path, "w", wave_table(
        [{"lsn": 1, "op": 0, "doc_id": "newC", "tokens": [4, 5, 6],
          "n_tok": 3, "source": "code", "ts": 0}], WIDE_NTOK))
    eng.apply_wave(w, hi=1)
    eng.compact_partitions()
    schema = eng.manifest.schema
    assert schema.field("n_tok").type == pa.int64()
    for cols in (None, ["doc_id", "n_tok"]):
        want = [(f.name, f.type) for f in schema
                if cols is None or f.name in cols]
        tabs = ray.get(eng.read_lake(columns=cols).to_arrow_refs())
        for t in tabs:
            assert [(f.name, f.type) for f in t.schema] == want, cols
        assert pa.concat_tables(tabs).num_rows == 11
