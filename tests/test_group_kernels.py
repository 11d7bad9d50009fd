"""The Arrow group-by kernels of the wave path must keep the pandas
semantics they replaced: ``Derivation`` partials, finals and
table-to-table derivations (null keys dropped, all-null sums 0, all-null
maxima missing, groups sorted by key) and the scan task's per-source
max lsn. The pandas / numpy versions live here as the oracles. Also
pins the file format every engine-written lake file shares (no
dictionary page on the token lists, one on flat columns) and the phase
keys of a wave's metrics row.
"""

import json
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from aqueduct_core_ray.pipelines.dag import DEFAULT_DAG, Derivation
from aqueduct_core_ray.pipelines.replay import CDCEngine
from aqueduct_core_ray.sources.changelog import ChangelogSpec, write_changelog
from aqueduct_core_ray.stages.merge_apply import _source_max_lsn


# ---------------------------------------------------------------- oracles
def pandas_group_agg(d: Derivation, df: pd.DataFrame) -> pd.DataFrame:
    key = d.key or "__all__"
    if d.key is None:
        df = df.assign(**{key: 0})
    gb = df.groupby(key, sort=True)
    out = pd.DataFrame(index=gb.size().index)
    for col, fn in d.aggs:
        if fn == "count":
            out[d.out_col(col, fn)] = gb.size()
        else:
            out[d.out_col(col, fn)] = getattr(gb[col], fn)()
    out = out.reset_index()
    if d.key is None:
        out = out.drop(columns=[key])
    return out


def pandas_partial_records(d: Derivation, t: pa.Table) -> list[dict]:
    if t.num_rows == 0:
        return []
    cols = sorted({c for c, f in d.aggs if f != "count"}
                  | ({d.key} if d.key else set()))
    df = t.select([c for c in cols if c in t.column_names]).to_pandas()
    return pandas_group_agg(d, df).to_dict("records")


def numpy_source_max_lsn(block: pa.Table) -> dict[str, int]:
    if "source" not in block.column_names:
        return {}
    col = block.column("source").combine_chunks()
    ok = col.is_valid().to_numpy(zero_copy_only=False)
    if not ok.any():
        return {}
    src = col.to_numpy(zero_copy_only=False)[ok]
    lsn = block.column("lsn").to_numpy(zero_copy_only=False)[ok]
    order = np.argsort(src, kind="stable")
    s, start = np.unique(src[order], return_index=True)
    mx = np.maximum.reduceat(lsn[order], start)
    return {str(ss): int(m) for ss, m in zip(s, mx)}


def _missing(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


def assert_same_records(got: list[dict], want: list[dict]) -> None:
    """Row-for-row equality with null and NaN alike; float sums may
    differ by summation order (1e-9 relative)."""
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert list(g) == list(w), (g, w)
        for k in g:
            if _missing(w[k]):
                assert _missing(g[k]), (k, g, w)
            elif isinstance(w[k], str):
                assert g[k] == w[k], (k, g, w)
            else:
                assert g[k] == pytest.approx(w[k], rel=1e-9), (k, g, w)


def random_table(rng: np.random.Generator, n: int) -> pa.Table:
    """Keys with nulls and a group ("dead") whose values are all null;
    ints with nulls, floats with NaN and nulls."""
    keys = rng.choice(np.array(["web", "books", "code", "wiki", "dead"]),
                      size=n)
    key_null = rng.random(n) < 0.1
    dead = keys == "dead"
    iv = rng.integers(-50, 1000, size=n)
    iv_null = (rng.random(n) < 0.2) | dead
    fv = rng.normal(size=n)
    fv[rng.random(n) < 0.1] = np.nan
    fv_null = (rng.random(n) < 0.1) | dead
    return pa.table({
        "source": pa.array(keys, mask=key_null),
        "n_tok": pa.array(iv, pa.int64(), mask=iv_null),
        "last_lsn": pa.array(rng.permutation(n), pa.int64()),
        "score": pa.array(fv, pa.float64(), mask=fv_null),
    })


DERIVATIONS = (
    DEFAULT_DAG[0],
    Derivation("everything", key="source",
               aggs=(("*", "count"), ("n_tok", "sum"), ("n_tok", "min"),
                     ("n_tok", "max"), ("score", "sum"), ("score", "max"),
                     ("score", "min"), ("last_lsn", "max"))),
    Derivation("global", key=None,
               aggs=(("*", "count"), ("n_tok", "sum"), ("score", "max"),
                     ("last_lsn", "min"))),
)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_partial_records_and_derive_match_pandas(seed, n):
    rng = np.random.default_rng(seed)
    t = random_table(rng, n)
    if seed % 2:
        t = pa.concat_tables([t.slice(0, n // 2), t.slice(n // 2)])
    for d in DERIVATIONS:
        assert_same_records(d.partial_records(t),
                            pandas_partial_records(d, t))
        want = pandas_group_agg(d, t.to_pandas()).to_dict("records")
        assert_same_records(d.derive_from_table(t).to_pylist(), want)


def test_all_null_group_semantics():
    t = pa.table({"source": pa.array(["a", "a", None, "b"]),
                  "n_tok": pa.array([None, None, 5, 2], pa.int64()),
                  "score": pa.array([float("nan"), None, 1.0, 2.0])})
    d = Derivation("x", key="source",
                   aggs=(("*", "count"), ("n_tok", "sum"), ("n_tok", "max"),
                         ("score", "max")))
    assert d.partial_records(t) == [
        {"source": "a", "n_rows": 2, "sum_n_tok": 0, "max_n_tok": None,
         "max_score": None},
        {"source": "b", "n_rows": 1, "sum_n_tok": 2, "max_n_tok": 2,
         "max_score": 2.0},
    ]


def test_finalize_folds_partials_like_pandas():
    rng = np.random.default_rng(5)
    for d in DERIVATIONS:
        by_pid = {str(p): d.partial_records(random_table(rng, 50))
                  for p in range(5)}
        by_pid["5"] = []
        # partials round-trip the manifest as JSON
        by_pid = json.loads(json.dumps(by_pid))
        got = d.finalize(by_pid).to_pylist()
        df = pd.DataFrame.from_records(
            [r for recs in by_pid.values() for r in recs])
        key = d.key or "__all__"
        if d.key is None:
            df = df.assign(**{key: 0})
        merge = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
        want = df.groupby(key, sort=True).agg(
            {d.out_col(c, f): merge[f] for c, f in d.aggs}).reset_index()
        if d.key is None:
            want = want.drop(columns=[key])
        assert_same_records(got, want.to_dict("records"))
    empty = DEFAULT_DAG[0].finalize({})
    assert empty.num_rows == 0
    assert empty.column_names == ["source", "n_rows", "sum_n_tok",
                                  "max_last_lsn"]


@pytest.mark.parametrize("seed", range(4))
def test_source_max_lsn_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    n = 1000
    src = rng.choice(np.array(["web", "books", "code", "wiki", "é"]), n)
    block = pa.table({
        "source": pa.array(src, mask=rng.random(n) < 0.15),
        "lsn": pa.array(rng.permutation(n * 3)[:n], pa.int64()),
    })
    cases = [block, block.slice(0, 0),
             pa.concat_tables([block.slice(0, 400), block.slice(400)]),
             block.set_column(0, "source", pa.nulls(n, pa.string())),
             block.drop_columns(["source"])]
    for b in cases:
        got = _source_max_lsn(b)
        want = numpy_source_max_lsn(b)
        assert got == want and list(got) == list(want)


# ------------------------------------------------- engine-written files
SPEC = ChangelogSpec(n_docs=300, n_events=2_400, seed=91, chunk_size=150)
# a big first wave lays down the bases; small waves then stage sidecars,
# and with max_deltas=2 fold full chains into one segment
BOUNDS = [(0, 1_200)] + [(lo, lo + 150) for lo in range(1_200, 2_400, 150)]


@pytest.fixture(scope="module")
def sidecar_lake(tmp_path_factory):
    root = tmp_path_factory.mktemp("gk")
    log = write_changelog(SPEC, str(root / "log"))
    eng = CDCEngine(str(root / "lake"), num_partitions=4,
                    emit_changelog=True, sidecar_frac=5.0, max_deltas=2,
                    bg_absorb=False)
    eng.replay(log, BOUNDS)
    return eng


def wave_rows(eng) -> list[dict]:
    with open(os.path.join(eng.store.root, "metrics.jsonl")) as f:
        rows = [json.loads(line) for line in f]
    return [r for r in rows if "wave_id" in r and "lo" in r]


def test_lake_files_have_no_token_dictionary(sidecar_lake):
    eng = sidecar_lake
    rows = wave_rows(eng)
    for mode in ("full_parts", "sidecar_parts", "chain_parts"):
        assert sum(r[mode] for r in rows) > 0, mode
    files = []
    for sub in ("parts", "outbox"):
        for dirpath, _, names in os.walk(os.path.join(eng.store.root, sub)):
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith(".parquet")]
    assert any("outbox" in p for p in files)
    assert len(files) > len(BOUNDS)
    for path in files:
        md = pq.ParquetFile(path).metadata
        for rg in range(md.num_row_groups):
            cols = {md.row_group(rg).column(i).path_in_schema:
                    md.row_group(rg).column(i)
                    for i in range(md.num_columns)}
            tok = [c for p, c in cols.items() if p.startswith("tokens.")]
            assert tok and not any(c.has_dictionary_page for c in tok), path
            assert cols["source"].has_dictionary_page, path
            assert cols["doc_id"].has_dictionary_page, path


def test_wave_rows_carry_phase_keys(sidecar_lake):
    rows = wave_rows(sidecar_lake)
    assert len(rows) == len(BOUNDS)
    for r in rows:
        for k in ("scan_s", "merge_s", "commit_s", "wall_s"):
            assert isinstance(r[k], float) and r[k] >= 0, (k, r)


def test_derived_tables_equal_recomputation(sidecar_lake):
    eng = sidecar_lake
    assert eng.dirty_pids(), "no pending sidecars: partials are not lazy"
    lake = eng.lake_table()
    stats = lake.group_by("source").aggregate([
        ([], "count_all"), ("n_tok", "sum"), ("last_lsn", "max"),
    ]).sort_by("source")
    want = pa.table({"source": stats["source"],
                     "n_rows": stats["count_all"],
                     "sum_n_tok": stats["n_tok_sum"],
                     "max_last_lsn": stats["last_lsn_max"]})
    got = eng.derived_table("source_stats")
    assert got.equals(want.cast(got.schema))
    rollup = eng.derived_table("corpus_rollup")
    assert rollup.to_pylist() == [{
        "sum_n_rows": lake.num_rows,
        "sum_sum_n_tok": pc.sum(lake["n_tok"]).as_py(),
        "max_max_last_lsn": pc.max(lake["last_lsn"]).as_py(),
    }]
