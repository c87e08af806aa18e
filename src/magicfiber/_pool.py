"""The one process-pool policy of the package's sweeps."""

from __future__ import annotations

import os


def pmap(fn, tasks, jobs: int) -> list:
    """``[fn(*t) for t in tasks]``, in order, on up to ``jobs`` worker processes.

    Workers are capped at min(jobs, len(tasks), os.cpu_count()); with one
    worker or fewer the map runs inline, in this process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = list(tasks)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, *zip(*tasks), chunksize=chunk))
