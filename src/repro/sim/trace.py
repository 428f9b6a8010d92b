"""Structured event tracing.

A :class:`Trace` is a bounded, in-memory log of simulation events —
syscalls, persona switches, IPC messages, scheduler decisions.  Tracing is
off by default (the hot syscall path only pays a boolean test) and is
enabled per-machine for debugging and for tests that assert on behaviour
rather than timing, e.g. "exactly one persona switch happened per
diplomatic call".

Timestamps are integer nanoseconds: emission rounds the clock's exact
picosecond counter once, so rendered trace logs are byte-identical across
platforms (no float formatting in the log path).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from .errors import TraceDisabledError

#: Category for injected faults (see :mod:`repro.sim.faults`): one event
#: is emitted per injected fault — (point, rule id, chosen outcome) — so
#: tests can assert "same seed ⇒ identical fault sequence".
FAULT_CATEGORY = "fault"
#: Category for crash containment tombstones (see repro.kernel.crash).
CRASH_CATEGORY = "crash"
#: Category for scheduler-watchdog ANR reports.
WATCHDOG_CATEGORY = "watchdog"
#: Category for resource-envelope events: pressure-level transitions,
#: exhaustion verdicts, and pressure-daemon kills (repro.sim.resources).
RESOURCE_CATEGORY = "resource"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One logged event.  ``timestamp_ns`` is integer nanoseconds."""

    timestamp_ns: int
    category: str
    name: str
    detail: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.timestamp_ns:14d}] {self.category}:{self.name} {extras}"


class Trace:
    """Bounded event log with per-(category, name) counters.

    Counters are always maintained (they are cheap and power assertions
    such as "N syscalls were dispatched through the XNU table"); full event
    records are kept only while :attr:`enabled` is True.  Each event bumps
    exactly one counter; ``count(category)`` sums that category's names.
    An untraced trap does not call :meth:`emit`: ``Kernel.trap`` reads
    ``_enabled`` and bumps its persona's ``("syscall", abi)`` counter in
    ``_counters`` itself, which is all ``emit`` would have done.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        self._enabled = False
        self._ever_enabled = False
        self._capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._counters: Dict[Tuple[str, str], int] = {}

    # -- enable/disable -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if value:
            self._ever_enabled = True

    @property
    def ever_enabled(self) -> bool:
        """True once tracing has been switched on at least once."""
        return self._ever_enabled

    # -- emission -----------------------------------------------------------

    def emit(
        self,
        clock_now_ns: float,
        category: str,
        name: str,
        **detail: object,
    ) -> None:
        key = (category, name)
        self._counters[key] = self._counters.get(key, 0) + 1
        if self._enabled:
            self._events.append(
                TraceEvent(int(round(clock_now_ns)), category, name, dict(detail))
            )

    def count(self, category: str, name: Optional[str] = None) -> int:
        """Events counted for ``category`` (optionally a specific name)."""
        if name is not None:
            return self._counters.get((category, name), 0)
        return sum(
            total for (cat, _), total in self._counters.items() if cat == category
        )

    def events(
        self, category: Optional[str] = None, name: Optional[str] = None
    ) -> List[TraceEvent]:
        """Logged events, optionally filtered (requires tracing enabled).

        Raises :class:`~repro.sim.errors.TraceDisabledError` if tracing
        was never enabled on this trace: every event would have been
        dropped at emit time, so returning ``[]`` would let assertions on
        event contents vacuously pass.
        """
        if not self._ever_enabled:
            raise TraceDisabledError(
                "trace.events() on a trace that was never enabled — "
                "set trace.enabled = True before the workload runs "
                "(counters via trace.count() work without enabling)"
            )
        result = []
        for event in self._events:
            if category is not None and event.category != category:
                continue
            if name is not None and event.name != name:
                continue
            result.append(event)
        return result

    def fault_events(self) -> List[TraceEvent]:
        """Every injected-fault event (requires tracing enabled)."""
        return self.events(FAULT_CATEGORY)

    def fault_count(self) -> int:
        """Injected faults counted so far (works with tracing disabled)."""
        return self.count(FAULT_CATEGORY)

    def clear(self) -> None:
        self._events.clear()
        self._counters.clear()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(list(self._events))

    def __len__(self) -> int:
        return len(self._events)
