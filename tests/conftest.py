"""Fixtures shared by the test modules."""

import concurrent.futures
import os

import pytest

from recencysim import harness


@pytest.fixture
def pool_forced(monkeypatch):
    """Make `run_grid` start a real pool of two processes at workers >= 2 for
    any grid of two or more drawable scenarios, however few their
    replications; the returned list records each pool's `max_workers`."""
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(harness, "_REPLICATIONS_PER_WORKER", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return started
