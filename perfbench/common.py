"""Run environment shared by the workloads: fresh per-run roots inside
the checkout, Ray start-up, memory sampling and percentiles."""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_run")
# Ray gets one CPU whatever the machine has: the workloads are sized for a
# one-core box, and a fixed degree of parallelism keeps a run's work the
# same on machines with more cores (N -> 4N scaling is out of scope).
RAY_CPUS = 1
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <tmp>/ray/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_TAIL = len("/ray/session_2026-01-01_00-00-00_000000_4194304"
                       "/sockets/plasma_store")


# program roots that can keep results or indexes across calls, by the
# environment variable that sets them
CACHE_ROOTS = {"AQR_EXCHANGE_ROOT": "x", "AQR_TRIGRAM_ROOT": "tri",
               "AQR_MH_INDEX_ROOT": "mh", "AQR_IVF_ROOT": "ivf"}
SETUP_STARTS = 3         # Ray starts per run; setup_s is their median
STOP_GRACE_S = 1.0       # wait for a stopped session's processes, then kill
RSS_INTERVAL_S = 0.25    # memory sampling period


def fresh_roots() -> None:
    """Point every root the program persists to (exchange, index and
    feature-spill roots, temp files, operator telemetry, Ray's session
    dir) at a fresh directory under WORK, so every run starts cold and
    does the same work."""
    shutil.rmtree(WORK, ignore_errors=True)
    env = {k: os.path.join(WORK, d) for k, d in CACHE_ROOTS.items()}
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    for d in list(env.values()) + [os.path.join(WORK, "data")]:
        os.makedirs(d)
    env.update({
        "AQR_METRICS_PATH": os.path.join(WORK, "ops.jsonl"),
        "PYTHONPATH": os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "")
                      .split(os.pathsep) if p]),
    })
    ray_tmp = os.path.join(WORK, "r")
    if len(ray_tmp) + _RAY_SOCKET_TAIL <= 107:
        os.makedirs(ray_tmp)
        env["RAY_TMPDIR"] = ray_tmp
    else:
        print(f"perfbench: {ray_tmp} is too long for Ray's socket paths; "
              "Ray uses its default temp dir", file=sys.stderr)
    os.environ.update(env)


def reset_caches() -> None:
    """Empty the CACHE_ROOTS, so the next call recomputes what an
    earlier one may have left there."""
    for k in CACHE_ROOTS:
        shutil.rmtree(os.environ[k], ignore_errors=True)
        os.makedirs(os.environ[k])


def _identity(batch):
    return batch


def start_ray() -> float:
    """ray.init with num_cpus = RAY_CPUS, then one tiny Ray Data pipeline so
    a worker is up and the streaming executor is loaded. Returns the
    seconds taken."""
    import logging

    import ray
    import ray.data
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=512 << 20)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ray.data.range(64, override_num_blocks=2).map_batches(
        _identity, batch_format="pyarrow").count()
    return time.perf_counter() - t0


def _run_pids() -> list[int]:
    """Live processes started by this run, other than this process and
    its parent: their environment points into WORK (Ray's agents and
    workers inherit it)."""
    mark, out = f"={WORK}".encode(), []
    me = (os.getpid(), os.getppid())
    for d in os.listdir("/proc"):
        if d.isdigit() and int(d) not in me:
            try:
                with open(f"/proc/{d}/environ", "rb") as f:
                    if mark in f.read():
                        out.append(int(d))
            except OSError:
                pass
    return out


def stop_ray() -> None:
    """ray.shutdown(), then wait until every process of the run has
    ended: the raylet's agents can outlive it by many seconds, so the
    ones still there after STOP_GRACE_S are killed."""
    import ray
    ray.shutdown()
    deadline = time.monotonic() + STOP_GRACE_S
    while (left := _run_pids()) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while _run_pids() and time.monotonic() < deadline:
        time.sleep(0.05)


def setup_times() -> list[float]:
    """Start Ray SETUP_STARTS times and leave the last session running:
    set-up cost is measured, not assumed. Every start but the last runs
    in a fresh process of its own (``python3 -m perfbench.common``),
    because ray.init after ray.shutdown in one process can abort later
    in Ray's reference counter (reference_count.cc check failure)."""
    out = []
    for _ in range(SETUP_STARTS - 1):
        r = subprocess.run([sys.executable, "-m", "perfbench.common"],
                           cwd=ROOT, check=True, stdout=subprocess.PIPE,
                           text=True)
        out.append(float(r.stdout.split()[-1]))
    out.append(start_ray())
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _ray_workers(root_pid: int) -> list[int]:
    """Descendants of root_pid whose command line starts with 'ray::'
    (Ray worker processes; the GCS, raylet and agents are excluded)."""
    parent: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    out = []
    for pid in parent:
        p, seen = pid, 0
        while p in parent and p != root_pid and seen < 64:
            p, seen = parent[p], seen + 1
        if p != root_pid or pid == root_pid:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read(5) == b"ray::":
                    out.append(pid)
        except OSError:
            pass
    return out


class RssSampler:
    """Peak resident memory of this process plus its Ray workers, sampled
    on a background thread, and the wall time of the sampled window."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            kb = _rss_kb(me) + sum(_rss_kb(p) for p in _ray_workers(me))
            self.peak_kb = max(self.peak_kb, kb)
            self._stop.wait(RSS_INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self._t.start()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = time.perf_counter() - self._t0
        self._stop.set()
        self._t.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def pct(values, q: float) -> float:
    """q-quantile (0..1) with linear interpolation; 0.0 when empty."""
    v = sorted(values)
    if not v:
        return 0.0
    k = (len(v) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(d, f))
            except OSError:
                pass
    return total


if __name__ == "__main__":
    # one set-up sample: start Ray, print the seconds taken, stop it
    try:
        print(start_ray())
    finally:
        stop_ray()
