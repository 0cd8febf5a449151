"""Deterministic parallel map over sample indices.

Tasks are pure functions of (context, index); results always come back in
index order, so the worker count never influences the reduced numbers.
"""

from __future__ import annotations

import os

_CTX = None
_TASK = None


def _init_worker(ctx, task):
    global _CTX, _TASK
    _CTX = ctx
    _TASK = task


def _call(i):
    return _TASK(_CTX, i)


def run_indexed(task, indices, workers, ctx):
    """Evaluate ``task(ctx, i)`` for each index, in order.

    ``task`` must be a module-level function and ``ctx`` picklable when
    workers > 1.  The context is shipped once per worker process.  A pool
    starts all its workers at once: no more than tasks or cores.
    """
    indices = list(indices)
    workers = min(workers or 1, len(indices), os.cpu_count() or 1)
    if workers <= 1:
        return [task(ctx, i) for i in indices]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(indices) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(ctx, task)) as ex:
        return list(ex.map(_call, indices, chunksize=chunk))
