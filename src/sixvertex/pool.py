"""Replica-level worker pool.

Tasks must be module-level functions of one picklable argument.  Results
come back in submission order, and every task derives its randomness from
its own (seed, replica) key, so the worker count never changes any output.
"""

from __future__ import annotations

import os

WORKERS_ENV = "SIXVERTEX_WORKERS"


def resolve_workers(requested: int | None) -> int:
    """Worker count: the env override wins, then the request (>= 1), then 1."""
    if requested is not None and requested < 1:
        raise ValueError(f"--workers must be an integer >= 1, got {requested}")
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            n = int(env)
            if n < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {env!r}") from None
        return n
    return requested or 1


def run_tasks(fn, args_list, workers: int = 1) -> list:
    """Apply fn to each argument, optionally across processes, keeping order."""
    args_list = list(args_list)
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    from concurrent.futures import ProcessPoolExecutor  # ~25 ms, only when a pool starts
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as ex:
        return list(ex.map(fn, args_list))
