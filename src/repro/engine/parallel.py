"""Deterministic chunked process-pool map with adaptive serial dispatch.

The engine's parallel fan-out is deliberately boring: split the work items
into at most ``n_jobs`` contiguous chunks, farm the chunks out to a
process pool, and reassemble the results *in submission order*.  Chunks
are contiguous and ordered, so any reduction the caller performs over the
concatenated results is bit-identical to running the same function
serially — parallelism never changes a verdict, a witness, or even the
order of a violation list.

Two policies keep ``--jobs N`` from ever losing to the serial path:

* **Adaptive dispatch** (:func:`effective_jobs`): callers report an
  estimated work size (transitions to check); below :data:`PARALLEL_WORK_CUTOFF` — or on a single-core
  machine, where a process pool can only add overhead — the request is
  demoted to serial.  ``REPRO_FORCE_PARALLEL=1`` disables the demotion so
  tests and smoke benches can exercise the pool at any scale.
* **A persistent worker pool** (:func:`get_pool`): the first parallel map
  creates the :class:`~concurrent.futures.ProcessPoolExecutor` lazily and
  every later map reuses it, so repeated ``check_measure`` calls pay
  worker start-up once per process, not once per call.  The pool is resized (recreated) only when a map asks for
  more workers than it has, and is shut down at interpreter exit.

The pool is an optimisation, not a dependency: ``n_jobs=None``/``0``/``1``
runs serially in-process, and any failure to *create* the pool (sandboxes
without fork, missing ``/dev/shm``, interpreter shutdown) silently falls
back to the serial path.  Worker functions must be module-level (picklable)
and must receive picklable payloads — closures over transition systems or
assignments stay in the parent; callers ship precomputed plain data.
"""

from __future__ import annotations

import atexit
import os
import time
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.telemetry import core as telemetry
from repro.telemetry import events

T = TypeVar("T")
R = TypeVar("R")

#: Estimated work units (per-item checks, transitions, …) below which a
#: parallel request is demoted to serial.  Chunk pickling plus result
#: transfer costs on the order of milliseconds; under this cutoff the
#: serial path finishes before a pool would have received its first chunk.
PARALLEL_WORK_CUTOFF = 20_000

_FORCE_ENV = "REPRO_FORCE_PARALLEL"

_pool = None
_pool_workers = 0


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` argument to a positive worker count.

    ``None`` and ``0`` mean serial; negative values mean "all cores"
    (joblib's ``-1`` convention).
    """
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return n_jobs


def effective_jobs(n_jobs: Optional[int], work_estimate: int) -> int:
    """The worker count actually worth using for ``work_estimate`` units.

    Returns 1 (serial) when the caller asked for serial, when the machine
    has a single core (a process pool cannot beat in-process execution
    there), or when the estimated work is below
    :data:`PARALLEL_WORK_CUTOFF` — this is the guarantee behind
    "``--jobs N`` is never slower than serial": small problems simply never
    reach the pool.  Setting ``REPRO_FORCE_PARALLEL=1`` skips the demotion
    (tests use it to exercise the pool on tiny inputs).
    """
    jobs = resolve_jobs(n_jobs)
    if jobs <= 1:
        return 1
    if os.environ.get(_FORCE_ENV) == "1":
        telemetry.count("parallel.dispatch.forced")
        return jobs
    if (os.cpu_count() or 1) <= 1:
        telemetry.count("parallel.dispatch.demoted_single_core")
        return 1
    if work_estimate < PARALLEL_WORK_CUTOFF:
        telemetry.count("parallel.dispatch.demoted_small_work")
        return 1
    telemetry.count("parallel.dispatch.parallel")
    return jobs


def get_pool(workers: int):
    """The shared process pool, created lazily and grown on demand.

    Returns ``None`` when a pool cannot be created (restricted sandboxes,
    interpreter shutdown) — callers fall back to serial.  The pool persists
    across calls; a request for more workers than the current pool has
    replaces it (the old pool finishes its work and is shut down).
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers >= workers:
        return _pool
    start = time.perf_counter()
    try:
        from concurrent.futures import ProcessPoolExecutor

        new_pool = ProcessPoolExecutor(max_workers=workers)
    except (ImportError, OSError, RuntimeError, PermissionError):
        telemetry.count("parallel.pool.unavailable")
        return None
    if _pool is not None:
        _pool.shutdown(wait=False)
    _pool = new_pool
    _pool_workers = workers
    telemetry.count("parallel.pool.created")
    telemetry.gauge("parallel.pool.workers", workers)
    spinup = time.perf_counter() - start
    telemetry.observe("parallel.pool.spinup_s", spinup)
    events.emit(events.POOL_SPINUP, workers=workers, seconds=spinup)
    return _pool


def shutdown_pool() -> None:
    """Shut the persistent pool down (idempotent; re-created on next use)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


def chunk_items(items: Sequence[T], chunks: int) -> List[Sequence[T]]:
    """Split ``items`` into at most ``chunks`` contiguous, ordered parts.

    Parts differ in size by at most one, every item appears exactly once,
    and concatenating the parts yields ``items`` — the invariant all
    determinism guarantees rest on.
    """
    total = len(items)
    chunks = max(1, min(chunks, total)) if total else 1
    base, extra = divmod(total, chunks)
    parts: List[Sequence[T]] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        parts.append(items[start : start + size])
        start += size
    return parts


def _collected_call(payload):
    """Pool target when telemetry is on: run the task under worker-side
    metric collection (module-level so it pickles)."""
    fn, item = payload
    return telemetry.worker_collect(fn, item)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: Optional[int] = None,
) -> List[R]:
    """``[fn(item) for item in items]``, possibly across processes.

    Results always come back in input order.  With ``n_jobs`` ≤ 1, with
    fewer than two items, or when the process pool cannot be created, the
    map runs serially in-process; the output is identical either way.
    ``fn`` must be picklable (module-level) for the parallel path.  The
    pool is the shared persistent executor (:func:`get_pool`); a pool that
    breaks mid-map is discarded and the whole map re-runs serially, which
    computes the same thing.

    With telemetry enabled, each task is wrapped in
    :func:`repro.telemetry.core.worker_collect`: counters incremented
    inside the worker come back as a delta and are merged into the parent
    registry here — the round boundary — together with a per-task wall
    time observation (``parallel.task_s``).  Disabled, the tasks ship
    exactly as before, unwrapped.
    """
    global _pool, _pool_workers
    jobs = resolve_jobs(n_jobs)
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    pool = get_pool(min(jobs, len(items)))
    if pool is None:
        return [fn(item) for item in items]
    collect = telemetry.enabled()
    try:
        if not collect:
            return list(pool.map(fn, items))
        start = time.perf_counter()
        outs = list(pool.map(_collected_call, [(fn, item) for item in items]))
        results: List[R] = []
        for result, delta, elapsed in outs:
            telemetry.merge_worker_metrics(delta)
            telemetry.observe("parallel.task_s", elapsed)
            results.append(result)
        telemetry.count("parallel.maps")
        telemetry.count("parallel.tasks", len(items))
        telemetry.observe("parallel.map_s", time.perf_counter() - start)
        return results
    except (OSError, RuntimeError, PermissionError):
        # Broken pool (killed worker, sandbox restriction discovered late):
        # drop it so the next call starts fresh, and finish serially.
        # (Telemetry note: deltas merged before the break stay merged and
        # the serial re-run counts again — a broken pool may overcount
        # metrics, never results.)
        try:
            pool.shutdown(wait=False)
        except Exception:
            pass
        _pool = None
        _pool_workers = 0
        telemetry.count("parallel.fallback_serial")
        return [fn(item) for item in items]
