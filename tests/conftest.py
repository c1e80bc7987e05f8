"""Session set-up shared by the suites."""
from __future__ import annotations

import threading

import pytest


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernel into a per-session cache directory, so the
    suites exercise the build and never write to the user's cache."""
    path = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(path))
        yield path


@pytest.fixture
def thread_starts(monkeypatch) -> list:
    """The threads started while the test runs, in order."""
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(self) or start(self))
    return starts
