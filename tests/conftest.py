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
