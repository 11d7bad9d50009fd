"""The documents operators that used to run as Ray Data actor pools
(language ID, trained-BPE token counts, media features, frame sampling
and thumbnails) finish on a one-CPU cluster: they run as raw tasks over
the documents leaf, so no stage waits for a CPU another stage holds.
The probe starts its own one-CPU Ray in a subprocess under a timeout,
so a stall fails the test instead of hanging the suite."""

from __future__ import annotations

import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from test_analytics import SF       # the sf0.001 testdata tables

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = '''
import sys
import time

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from aqueduct_core_ray.functions import bpe, multimodal, text

sf = sys.argv[1]
for name, run, per_doc in (
        ("lang_id", lambda: text.lang_id(sf), 1),
        ("trained_token_count",
         lambda: bpe.trained_token_count(sf, num_merges=20), 1),
        ("media_features", lambda: multimodal.media_features(sf), 1),
        ("frame_sample", lambda: multimodal.frame_sample(sf, n_frames=2), 2),
        ("resize_media", lambda: multimodal.resize_media(sf), 1)):
    t0 = time.perf_counter()
    n = sum(t.num_rows for t in ray.get(run().to_arrow_refs()))
    print(name, n // per_doc, round(time.perf_counter() - t0, 3),
          flush=True)
'''

NAMES = ["lang_id", "trained_token_count", "media_features",
         "frame_sample", "resize_media"]


def test_documents_operators_finish_on_one_cpu():
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    try:
        r = subprocess.run([sys.executable, "-c", PROBE, SF], cwd=REPO,
                           capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired as e:
        pytest.fail(f"stalled on one CPU; finished before the timeout: "
                    f"{e.stdout!r}")
    assert r.returncode == 0, r.stderr[-3000:]
    done = {f[0]: int(f[1]) for f in map(str.split, r.stdout.splitlines())
            if f and f[0] in NAMES}
    assert done == {name: n_docs for name in NAMES}, r.stdout
