"""The sweep-size guard of every sweep, and the process pool of the bound tables."""

from __future__ import annotations

import os
from itertools import islice

from .roots import PrecisionError

# A sweep holds every result until it returns.  A `bounds` row peaks at
# about 2.9 KB at tol 1e-30 and 4.4 KB at 1e-100 (json output, one worker),
# so a sweep of this many tasks stays under half a GiB.
MAX_TASKS = 100_000


def check_tasks(n: int) -> None:
    """Raise ``PrecisionError`` for a sweep of more than ``MAX_TASKS`` tasks."""
    if n > MAX_TASKS:
        raise PrecisionError(f"a sweep of more than {MAX_TASKS} tasks exceeds the memory bound")


def pmap(fn, tasks, jobs: int) -> list:
    """``[fn(*t) for t in tasks]``, in order, on up to ``jobs`` worker processes.

    Workers are capped at min(jobs, len(tasks), os.cpu_count()); with one
    worker or fewer the map runs inline, in this process.  ``tasks`` may be
    a generator: it is read no further than ``MAX_TASKS`` + 1 items, and a
    sweep with more tasks than ``MAX_TASKS`` raises ``PrecisionError``
    before any task runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = list(islice(tasks, MAX_TASKS + 1))
    check_tasks(len(tasks))
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, *zip(*tasks), chunksize=chunk))
