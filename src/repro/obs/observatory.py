"""The per-machine observability hub.

An :class:`Observatory` bundles the telemetry of one machine behind a
single install point (:meth:`repro.hw.machine.Machine.install_observatory`):
hierarchical spans and the virtual-time profiler, the typed metrics
registry, and the span-event buffer the exporters read.  Each event is
counted in one place.  A finished span lands once in the profiler's flame
tree (plus its ``<subsystem>.ns`` latency histogram), and the metrics
registry reads ``<subsystem>.calls`` from that tree and
``sim.sched.switches`` from the scheduler's own switch count, instead of
counting either again.

Disabled is the default and costs one ``is None`` test at every
instrumentation site, exactly like ``Trace.enabled`` and
``Machine.faults``; nothing here ever charges virtual time, so enabling
or disabling observability cannot change a workload's virtual-ns totals
(the zero-cost-when-off invariant, asserted by the test suite).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..sim.clock import PSEC_PER_NSEC
from .metrics import MetricsRegistry
from .profiler import Profiler
from .spans import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.machine import Machine

#: Span-event record: (phase "B"/"E", timestamp_ps, tid, thread_name,
#: subsystem, name, attrs-or-None).  Kept as tuples during the run and
#: serialised only at export time.
SpanEvent = Tuple[str, int, int, str, str, str, Optional[Dict[str, object]]]


class _SpanContext:
    """Context manager wrapping one span open/close pair."""

    __slots__ = ("_obs", "_subsystem", "_name", "_attrs", "span")

    def __init__(
        self,
        obs: "Observatory",
        subsystem: str,
        name: str,
        attrs: Optional[Dict[str, object]],
    ) -> None:
        self._obs = obs
        self._subsystem = subsystem
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._obs.enter_span(
            self._subsystem, self._name, self._attrs
        )
        return self.span

    def __exit__(self, *exc_info: object) -> bool:
        if self.span is not None:
            self._obs.exit_span(self.span)
        return False


class Observatory:
    """Spans + profiler + metrics + exportable event buffer."""

    def __init__(self, max_span_events: int = 1_000_000) -> None:
        self.metrics = MetricsRegistry()
        self.metrics.derived = self._derived_counters
        self.profiler = Profiler()
        self.profiler.on_span_closed = self._on_span_closed
        #: B/E span events for the Chrome-trace exporter, capped at
        #: ``max_span_events`` (later events are counted as dropped).
        self.max_span_events = max_span_events
        self.span_events: List[SpanEvent] = []
        self.dropped_span_events = 0
        #: Optional :class:`~repro.obs.causal.CausalTracer` — installed
        #: via :meth:`repro.hw.machine.Machine.install_causal_tracer`.
        self.causal = None
        self._machine: Optional["Machine"] = None
        #: ``clock.charged_ps`` at attach time — profiling starts here.
        self.attach_charged_ps = 0
        #: ``scheduler.switches`` at attach time.
        self._attach_switches = 0

    # -- wiring -------------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        """Bind to ``machine``: follow its scheduler token and clock."""
        self._machine = machine
        scheduler = machine.scheduler
        self.profiler.current_context = lambda: scheduler._current
        self.profiler.context_identity = self._identity
        self.attach_charged_ps = machine.clock.charged_ps
        self._attach_switches = scheduler.switches

    @staticmethod
    def _identity(context: object) -> Tuple[int, str]:
        sid = getattr(context, "sid", 0)
        name = getattr(context, "name", "controller")
        return int(sid), str(name)

    @property
    def clock(self):
        if self._machine is None:
            raise RuntimeError("observatory is not attached to a machine")
        return self._machine.clock

    # -- span API -----------------------------------------------------------

    def span(
        self, subsystem: str, name: str = "", **attrs: object
    ) -> _SpanContext:
        """``with obs.span("kernel.trap", "linux", nr=4): ...``"""
        return _SpanContext(self, subsystem, name, attrs or None)

    def enter_span(
        self,
        subsystem: str,
        name: str = "",
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        now_ps = self.clock.now_ps
        span = self.profiler.enter_span(subsystem, name, attrs, now_ps)
        if self.causal is not None:
            self.causal.on_enter(span)
        self._record_event("B", now_ps, span)
        return span

    def exit_span(self, span: Span) -> None:
        self.profiler.exit_span(span, self.clock.now_ps)

    def _on_span_closed(self, span: Span) -> None:
        """Profiler callback for every finished span (including spans
        force-closed during exception unwind)."""
        if self.causal is not None:
            self.causal.on_close(span)
        self._record_event("E", span.end_ps or 0, span)
        self.metrics.histogram(f"{span.subsystem}.ns").record(span.total_ns)

    def _record_event(self, phase: str, now_ps: int, span: Span) -> None:
        if len(self.span_events) >= self.max_span_events:
            self.dropped_span_events += 1
            return
        self.span_events.append(
            (
                phase,
                now_ps,
                span.tid,
                span.thread_name,
                span.subsystem,
                span.name,
                span.attrs,
            )
        )

    def pending_close_events(self, aborted: bool = False) -> List[SpanEvent]:
        """Synthetic ``E`` events (at the current virtual time), innermost
        first per thread, for every recorded ``B`` whose ``E`` is not in
        the buffer: spans still open — daemon service loops parked in
        ``mach_msg_receive`` hold their span across the whole run — and
        spans that closed after a full buffer dropped their ``E``.  The
        Chrome exporter appends these so the emitted trace is always
        balanced; the live spans are *not* closed.  ``aborted`` tags each
        synthetic close — used when exporting from a machine that
        panicked mid-span."""
        now_ps = self._machine.clock.now_ps if self._machine is not None else 0
        attrs = {"aborted": True} if aborted else None
        unclosed: Dict[int, List[SpanEvent]] = {}
        for event in self.span_events:
            stack = unclosed.setdefault(event[2], [])
            if event[0] == "B":
                stack.append(event)
            else:
                stack.pop()
        return [
            ("E", now_ps, tid, thread_name, subsystem, name, attrs)
            for stack in unclosed.values()
            for _, _, tid, thread_name, subsystem, name, _ in reversed(stack)
        ]

    # -- counters read from other views -------------------------------------

    def _derived_counters(self) -> Iterator[Tuple[str, int]]:
        """``<subsystem>.calls`` from the profiler's flame tree and
        ``sim.sched.switches`` from the scheduler, both since attach."""
        for stat in self.profiler.subsystem_table():
            yield f"{stat.subsystem}.calls", stat.calls
        if self._machine is not None:
            switches = self._machine.scheduler.switches - self._attach_switches
            if switches:
                yield "sim.sched.switches", switches

    # -- summary numbers ----------------------------------------------------

    def profiled_ps(self) -> int:
        """Charged ps observed since attach (== clock delta, exactly)."""
        return self.profiler.observed_ps

    def profiled_ns(self) -> float:
        return self.profiler.observed_ps / PSEC_PER_NSEC

    def __repr__(self) -> str:
        return (
            f"<Observatory metrics={len(self.metrics)} "
            f"events={len(self.span_events)} "
            f"profiled={self.profiled_ns():.0f}ns>"
        )
