"""The bound table's process pool: validation, worker cap, chunks, order."""

import concurrent.futures

import pytest

from magicfiber import PrecisionError, family, roots, upper_bound_table


class _FakeExecutor:
    """Records the pool it was asked for and maps inline, in order."""

    seen = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.seen.append((self.max_workers, chunksize))
        return map(fn, *iterables)


def _no_row(*args):
    raise AssertionError("a row was computed")


@pytest.fixture
def fake_pool(monkeypatch):
    """Three CPUs, the fake executor, and rows that are their (g, n, tol)."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakeExecutor)
    monkeypatch.setattr(family.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(family, "bound_row", lambda g, n, tol: (g, n, tol))
    _FakeExecutor.seen = []


@pytest.mark.parametrize("jobs", [0, -1, 2.0, True])
def test_rejects_fewer_than_one_job(jobs, monkeypatch):
    # 2.0 and True equal ints but are not ints, so they are refused too
    monkeypatch.setattr(family, "bound_row", _no_row)
    with pytest.raises(ValueError, match=f"^need an int jobs >= 1, not {jobs!r}$"):
        upper_bound_table(2, 3, 9, jobs=jobs)


def test_worker_count_is_capped(fake_pool):
    tol = roots.DEFAULT_TOL
    assert upper_bound_table(2, 3, 12, jobs=10**6) == [(2, n, tol) for n in range(3, 13)]
    assert _FakeExecutor.seen == [(3, 1)]
    # fewer rows than cores: one worker per row
    assert upper_bound_table(2, 3, 4, jobs=10**6) == [(2, 3, tol), (2, 4, tol)]
    assert _FakeExecutor.seen == [(3, 1), (2, 1)]
    # one row: no pool at all
    assert upper_bound_table(2, 3, 3, jobs=10**6) == [(2, 3, tol)]
    assert _FakeExecutor.seen == [(3, 1), (2, 1)]


def test_chunks_are_an_eighth_of_a_workers_share(fake_pool):
    upper_bound_table(2, 1, 100, jobs=3)
    upper_bound_table(2, 1, 100, jobs=2)
    assert _FakeExecutor.seen == [(3, 100 // 24), (2, 100 // 16)]


def test_task_cap_reads_no_further(monkeypatch):
    """More than ``roots.MAX_TASKS`` rows are refused before any row."""
    monkeypatch.setattr(roots, "MAX_TASKS", 5)
    monkeypatch.setattr(family, "bound_row", lambda g, n, tol: n)
    assert upper_bound_table(2, 3, 7) == [3, 4, 5, 6, 7]
    monkeypatch.setattr(family, "bound_row", _no_row)
    with pytest.raises(PrecisionError, match="more than 5 tasks"):
        upper_bound_table(2, 3, 8)
