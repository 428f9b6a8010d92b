"""Parallel deterministic sweep engine: fork-server workers, byte-identical merge.

Every sweep the repo runs — partsweep's schedule x fault matrix,
crashsweep's crash-point enumeration, the netbench determinism replicas
— is a list of *independent* simulations whose merged transcript must be
byte-identical run to run.  Executed serially, sweep wall-clock scales
with scenario count; this module makes it scale with scenario-count /
cores without giving up a single byte of determinism:

* **Fork server** — :func:`run_cases` first runs the caller's ``prime``
  hook in the parent (imports, cost-model compilation, and crucially the
  :mod:`repro.sim.snapshot` boot image), then forks ``jobs`` workers.
  Each worker inherits the primed state through ``fork`` for free (COW),
  so no worker ever pays the boot again.
* **Static deterministic sharding** — worker ``k`` owns cases ``k, k +
  jobs, k + 2*jobs, ...``.  No work queue, no timing-dependent
  assignment: which worker runs which case is a pure function of
  ``(index, jobs)``.
* **Byte-identical merge** — workers stream pickled ``(index, result)``
  frames over private pipes; the parent slots results by case index, so
  the merged list — and any transcript rendered from it — is exactly
  what a serial run produces.  ``tests/test_parallel.py`` asserts the
  sha256 of partsweep/crashsweep transcripts is equal across ``--jobs``
  values.

Fork safety follows the snapshot quiescence rule: the parent must hold
no simulation token and no live sim threads of its own when it forks
(booted worlds live either inside a snapshot — thread-free by
construction — or inside the workers).  Where ``os.fork`` is unavailable
(non-POSIX), everything degrades to the serial in-process path with
identical results.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import traceback
from typing import Callable, List, Optional

__all__ = [
    "WorkerError",
    "default_jobs",
    "fork_available",
    "parse_jobs",
    "run_cases",
]


class WorkerError(RuntimeError):
    """A case raised in a worker, or a worker died; carries the detail."""


def fork_available() -> bool:
    return hasattr(os, "fork")


def default_jobs() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (= all cores)."""
    return os.cpu_count() or 1


def parse_jobs(value: str) -> int:
    """``--jobs N`` with ``0`` meaning every core."""
    jobs = int(value)
    if jobs < 0:
        raise ValueError("--jobs must be >= 0")
    return jobs if jobs else default_jobs()


# -- pipe framing -------------------------------------------------------------

_FRAME_HEADER = struct.Struct("!I")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _write_frame(fd: int, payload: object) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    _write_all(fd, _FRAME_HEADER.pack(len(blob)) + blob)


def _read_exact(fd: int, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            return None if remaining == count and not chunks else b"".join(chunks)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frames(fd: int):
    while True:
        header = _read_exact(fd, _FRAME_HEADER.size)
        if header is None:
            return
        if len(header) != _FRAME_HEADER.size:
            raise WorkerError("truncated frame header from worker")
        (length,) = _FRAME_HEADER.unpack(header)
        blob = _read_exact(fd, length)
        if blob is None or len(blob) != length:
            raise WorkerError("truncated frame body from worker")
        yield pickle.loads(blob)


# -- the worker pool ----------------------------------------------------------


def run_cases(
    count: int,
    run_case: Callable[[int], object],
    jobs: int = 1,
    prime: Optional[Callable[[], object]] = None,
) -> List[object]:
    """Run ``run_case(index)`` for every case; results in case order.

    ``prime`` (if given) runs exactly once in the parent before any case
    — build boot snapshots and warm caches there so forked workers
    inherit them.  With ``jobs <= 1``, a single case, or no ``fork``,
    everything runs serially in-process; otherwise ``jobs`` fork-server
    workers each run their static shard and the parent merges by index.
    Case results must be picklable (the sweep harnesses return plain
    strings/bools/dicts).

    A case that raises aborts that worker's remaining shard and re-raises
    in the parent as :class:`WorkerError` carrying the worker-side
    traceback — mirroring the serial behaviour where the first raising
    case ends the sweep.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if prime is not None:
        prime()
    jobs = max(1, int(jobs))
    if jobs <= 1 or count <= 1 or not fork_available():
        return [run_case(index) for index in range(count)]
    jobs = min(jobs, count)

    workers = []  # (pid, read_fd)
    for k in range(jobs):
        read_fd, write_fd = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # worker
            status = 0
            try:
                os.close(read_fd)
                for index in range(k, count, jobs):
                    try:
                        result = run_case(index)
                    except BaseException:
                        _write_frame(
                            write_fd, (index, False, traceback.format_exc())
                        )
                        status = 1
                        break
                    _write_frame(write_fd, (index, True, result))
                os.close(write_fd)
            except BaseException:
                status = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        os.close(write_fd)
        workers.append((pid, read_fd))

    results: List[object] = [None] * count
    received = [False] * count
    failure: Optional[tuple] = None
    try:
        for pid, read_fd in workers:
            for index, ok, payload in _read_frames(read_fd):
                if ok:
                    results[index] = payload
                    received[index] = True
                elif failure is None:
                    failure = (index, payload)
    finally:
        for _pid, read_fd in workers:
            try:
                os.close(read_fd)
            except OSError:
                pass
        statuses = [os.waitpid(pid, 0)[1] for pid, _fd in workers]
    if failure is not None:
        index, detail = failure
        raise WorkerError(f"case {index} raised in a worker:\n{detail}")
    missing = [index for index, got in enumerate(received) if not got]
    if missing:
        raise WorkerError(
            f"worker(s) died without reporting case(s) {missing[:8]} "
            f"(exit statuses {statuses})"
        )
    return results

