"""The sweeps' process-pool policy: validation, worker cap, order."""

import concurrent.futures

import pytest

from magicfiber import PrecisionError, _pool


def _pair(a, b):
    return (a, b)


class _FakeExecutor:
    """Records the pool it was asked for and maps inline, in order."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        assert chunksize >= 1
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs", [0, -1])
def test_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError):
        _pool.pmap(_pair, [(1, 2)], jobs)


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakeExecutor)
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: 3)
    _FakeExecutor.seen = []
    tasks = [(i, -i) for i in range(10)]
    assert _pool.pmap(_pair, tasks, 10**6) == tasks
    assert _FakeExecutor.seen == [3]
    # fewer tasks than cores: one worker per task
    assert _pool.pmap(_pair, tasks[:2], 10**6) == tasks[:2]
    assert _FakeExecutor.seen == [3, 2]
    # one task: no pool at all
    assert _pool.pmap(_pair, tasks[:1], 10**6) == tasks[:1]
    assert _FakeExecutor.seen == [3, 2]


def test_task_cap_reads_no_further(monkeypatch):
    monkeypatch.setattr(_pool, "MAX_TASKS", 5)
    read = []

    def tasks(n):
        for i in range(n):
            read.append(i)
            yield (i, -i)

    assert _pool.pmap(_pair, tasks(5), 1) == [(i, -i) for i in range(5)]
    read.clear()
    with pytest.raises(PrecisionError, match="more than 5 tasks"):
        _pool.pmap(_pair, tasks(10**9), 1)
    assert read == list(range(6))
