import faulthandler
import os

import pytest
import ray

# stderr as the terminal sees it: pytest_configure runs while output
# capture is suspended, so a dup taken there outlives the capture
_STDERR: list = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "timeout(seconds): dump every thread's traceback and "
        "exit the run if the test body runs longer than seconds")
    _STDERR.append(os.dup(2))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout(n)`` with the standard library: a
    test body still running after n seconds dumps all tracebacks and
    exits the process (faulthandler), instead of hanging the suite."""
    mark = item.get_closest_marker("timeout")
    if mark is None:
        yield
        return
    faulthandler.dump_traceback_later(float(mark.args[0]), exit=True,
                                      file=_STDERR[0])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    os.environ.setdefault("RAY_DEDUP_LOGS", "0")
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture()
def executions(monkeypatch):
    """Count Ray Data streaming executions started in this process."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    calls = []
    real = StreamingExecutor.execute

    def counted(self, *a, **k):
        calls.append(1)
        return real(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


@pytest.fixture()
def parts(monkeypatch):
    """``parts(P)`` sets the keyed exchanges' part count to ``P`` for
    the rest of the test (``exchange._auto_virtual_parts`` runs on the
    driver, and the writers get its value): a query's output must not
    depend on it. It also sets the run byte caps to one byte, so each
    part runs in its own task and a key split across parts shows up as
    two groups, as it would in a large exchange, and
    ``exchange.BROADCAST_BYTES`` to 0, so every ``fx_join`` routes
    and the part count stays under test."""
    from aqueduct_core_ray.stages import exchange

    def set_parts(P: int) -> None:
        monkeypatch.setattr(exchange, "_auto_virtual_parts", lambda: P)
        monkeypatch.setattr(exchange, "MIN_RUN_BYTES", 1)
        monkeypatch.setattr(exchange, "TARGET_PART_BYTES", 1)
        monkeypatch.setattr(exchange, "BROADCAST_BYTES", 0)
    return set_parts


@pytest.fixture()
def blocks():
    """``blocks(t, n)`` puts the table ``t`` in the object store as
    ``n`` block refs of near-equal row counts: an exchange input that
    runs ``n`` writer tasks (a block is empty when ``t`` has fewer
    than ``n`` rows)."""
    import numpy as np

    def split(t, n: int = 1) -> list:
        edges = np.linspace(0, t.num_rows, n + 1).astype(int)
        return [ray.put(t.slice(a, b - a))
                for a, b in zip(edges[:-1], edges[1:])]
    return split
