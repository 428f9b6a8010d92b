"""The flight recorder: a crash-surviving ring of recent causal events.

Real kernels keep a pstore/ramoops region — RAM that survives a panic
and even a power cycle — so the console tail leading up to a crash can
be read back after reboot.  :class:`FlightRecorder` is that region for
the simulation: a bounded deque of deterministic one-line records fed by
the :class:`~repro.obs.causal.CausalTracer` (span enter/close, flow
edges, trace begin/end, follows-from links).

On :meth:`~repro.hw.machine.Machine.panic` the kernel flushes the ring
(:meth:`flush`) into the machine-panic tombstone; when the machine has a
journaled block device the flushed tail is *also* written to the
device's ``pstore`` list — the WAL integration: a power cut destroys the
volatile journal tail but, like ramoops, never the pstore region, so
``System.reboot`` can print the pre-crash tail in the recovery log even
after total power loss.

The ring itself lives on the :class:`~repro.hw.machine.Machine` and is
deliberately *not* cleared by ``Machine.reboot`` (it is the one device
whose whole point is surviving that).  Reading the flushed tail consumes
it, exactly like ``/sys/fs/pstore`` files being deleted after read.
Nor is it the machine's :class:`~repro.sim.trace.Trace` event ring: that
ring is off by default and stamps events in whole nanoseconds, while the
recorder must hold picosecond-stamped causal lines whenever installed.

Every line is pure virtual-time + counter data — two same-seed runs
produce byte-identical tails, which the determinism CI job diffs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

DEFAULT_CAPACITY = 64


class FlightRecorder:
    """Bounded, deterministic ring of recent causal events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.ring: Deque[str] = deque(maxlen=capacity)
        #: Total records ever written (overflow = total - len(ring)).
        self.total = 0
        #: The tail captured by the last panic flush, until consumed.
        self.flushed: Optional[List[str]] = None
        self.flush_reason: Optional[str] = None

    def record(self, ts_ps: int, kind: str, detail: str) -> None:
        self.total += 1
        self.ring.append(f"{ts_ps}ps {kind} {detail}")

    def tail(self) -> List[str]:
        return list(self.ring)

    @property
    def overflowed(self) -> int:
        """Records pushed out of the ring since boot."""
        return self.total - len(self.ring)

    def flush(self, reason: str) -> List[str]:
        """Panic time: snapshot the tail into the crash-surviving slot.
        Idempotent per crash — a second flush before the tail is consumed
        keeps the first snapshot (the earliest panic is the story)."""
        if self.flushed is None:
            self.flushed = self.tail()
            self.flush_reason = reason
        return self.flushed

    def consume_flushed(self) -> Optional[List[str]]:
        """Recovery time: read-and-clear the flushed tail (pstore files
        are deleted once read)."""
        lines, self.flushed, self.flush_reason = self.flushed, None, None
        return lines

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder {len(self.ring)}/{self.capacity} "
            f"total={self.total}>"
        )
