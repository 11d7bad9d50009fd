"""``@pytest.mark.timeout(n)`` is enforced by tests/conftest.py with the
standard library's faulthandler: a test body past its bound dumps every
thread's traceback and ends the run, a test within it leaves no timer
behind."""

from __future__ import annotations

import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))

PROBE = '''
import time

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():          # the probe needs no Ray session
    yield


@pytest.mark.timeout(2)
def test_within_bound():
    time.sleep(0.1)


def test_unmarked_after_a_marked_one():
    time.sleep(3)           # outlives the bound above: timer cancelled


@pytest.mark.timeout(1)
def test_past_bound():
    time.sleep(60)
'''


def test_timeout_mark_dumps_and_exits(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [TESTS] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
         "-p", "conftest", "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode != 0
    assert "Timeout (0:00:01)!" in r.stderr
    assert "in test_past_bound" in r.stderr
    assert "test_within_bound PASSED" in r.stdout
    assert "test_unmarked_after_a_marked_one PASSED" in r.stdout
    assert "PytestUnknownMarkWarning" not in r.stdout + r.stderr
