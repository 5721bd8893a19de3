"""Parallel evaluation helpers.

The paper (§4.7) evaluates per-group models in parallel, noting the
Python GIL forces a process-based workaround for CPU-bound work.  We
provide both modes; ``thread`` is the default because our group
evaluation spends most of its time inside numpy kernels that release the
GIL, so threads capture most of the speedup without pickling models
across process boundaries.
"""

from __future__ import annotations

import atexit
from collections.abc import Callable, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

from repro.errors import InvalidParameterError

# Persistent pools keyed by (mode, workers).  Spawning a process pool costs
# hundreds of milliseconds — more than evaluating all 57 group models of
# the paper's GROUP BY experiment — so pools are created once and reused
# for the life of the interpreter.
_POOLS: dict[tuple[str, int], Executor] = {}

_BLAS_LIMITED = False

# Symbol names used by the OpenBLAS builds numpy/scipy ship with.
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "goto_set_num_threads",
)


def limit_blas_threads(n: int = 1) -> bool:
    """Cap the loaded BLAS's internal thread pool (idempotent).

    Worker processes running DBEst queries concurrently must not each
    spin up a full-width OpenBLAS pool: P workers x C BLAS threads
    oversubscribes the machine and makes parallel execution *slower* than
    sequential.  The BLAS is already loaded when workers fork, so env
    vars are too late; instead the thread count is set through the
    library's own entry point, found via /proc/self/maps.
    """
    global _BLAS_LIMITED
    if _BLAS_LIMITED:
        return True
    import ctypes

    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                if "openblas" in line.lower() and ".so" in line:
                    paths.add(line.strip().split()[-1])
    except OSError:
        return False
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter(n)
                _BLAS_LIMITED = True
                return True
    return False


def _shutdown_pools() -> None:
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown_pools)


def get_pool(mode: str, workers: int) -> Executor:
    """A persistent worker pool for the given mode and size."""
    if mode not in ("thread", "process"):
        raise InvalidParameterError(
            f"mode must be 'thread' or 'process', got {mode!r}"
        )
    if workers < 2:
        raise InvalidParameterError(f"pools need workers >= 2, got {workers}")
    key = (mode, workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool_cls = ThreadPoolExecutor if mode == "thread" else ProcessPoolExecutor
        pool = pool_cls(max_workers=workers)
        _POOLS[key] = pool
    return pool


def map_parallel(
    fn: Callable,
    items: Sequence,
    workers: int = 1,
    mode: str = "thread",
) -> list:
    """Apply ``fn`` to every item, optionally across a worker pool.

    Results preserve input order.  ``workers <= 1`` runs sequentially in
    the calling thread (DBEst's default single-thread execution model);
    larger counts reuse a persistent pool from :func:`get_pool`.  With
    ``mode="process"`` both ``fn`` and the items must be picklable.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if mode not in ("thread", "process"):
        raise InvalidParameterError(
            f"mode must be 'thread' or 'process', got {mode!r}"
        )
    pool = get_pool(mode, workers)
    return list(pool.map(fn, items))


def chunk_bounds(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """At most ``n_chunks`` contiguous, non-empty (start, end) index ranges.

    The index form lets callers slice flat array segments (the batched
    group-by evaluator ships CSR slices to workers instead of pickled
    per-group models); :func:`chunk_items` keeps the item-list form.
    """
    if n_chunks < 1:
        raise InvalidParameterError(f"n_chunks must be >= 1, got {n_chunks}")
    if n == 0:
        return []
    n_chunks = min(n_chunks, n)
    size, rest = divmod(n, n_chunks)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < rest else 0)
        if end > start:
            bounds.append((start, end))
        start = end
    return bounds


def chunk_items(items: Sequence, n_chunks: int) -> list[list]:
    """Split items into at most ``n_chunks`` contiguous, non-empty chunks."""
    items = list(items)
    return [items[a:b] for a, b in chunk_bounds(len(items), n_chunks)]
