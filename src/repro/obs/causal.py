"""Dapper-style causal tracing across threads, personas and machines.

A :class:`CausalTracer` rides on the :class:`~repro.obs.observatory.
Observatory` (``obs.causal``) and gives every span opened inside an
active *trace* a ``trace_id`` / ``span_id`` / ``parent_span_id``
identity.  Context lives per simulated thread and crosses every
propagation boundary the kernel has:

* **fork / posix_spawn** — the child thread inherits the parent's
  context (:meth:`CausalTracer.inherit`);
* **signal delivery** — queued :class:`~repro.kernel.signals.SigInfo`
  carries the sender's context, adopted on delivery;
* **Mach IPC** — messages carry the sender's context through the
  :class:`~repro.xnu.api.XNUKernelAPI` ``causal_carrier`` /
  ``causal_adopt`` hooks (the duct-tape layer binds them; the Mach zone
  never touches Linux types);
* **unix-domain and INET sockets** — stream and datagram payloads carry
  the writer's context in packet *metadata*, so it crosses the virtual
  NIC to another machine without charging a single picosecond.

Carriers are plain tuples ``(trace_id, span_id, flow_id)``.  Every hand
of a carrier records a ``flow.send`` event and every adoption a
``flow.recv`` event — the exporter turns these into Chrome flow arrows
(``ph: "s"``/``"f"``).  Respawns of supervised services are linked with
weaker ``follow`` edges (Dapper's *follows-from*): the respawn is caused
by the request that killed the service, but is not part of it.

Adoption is *sticky but deferential*: a thread with no context (or one
it merely adopted earlier) takes the carrier's context; a thread inside
its own root trace — e.g. the client reading the response its own
request produced — keeps its context and only the flow edge is
recorded, so request/response loops never re-parent the originator.

Everything is deterministic: ids are zero-padded per-node counters
(``client-t00001``, ``client-s00042``), never randomness or wall time.
Like every other observability surface, the tracer exists only when
installed — all instrumentation sites hide behind the ``machine.obs is
None`` one-attribute test, keeping the zero-cost-when-off invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.machine import Machine
    from .spans import Span

#: What crosses a boundary: (trace_id, span_id, flow_id).
Carrier = Tuple[str, str, str]


class CausalContext:
    """The causal identity of one simulated thread."""

    __slots__ = ("trace_id", "span_id", "adopted")

    def __init__(
        self, trace_id: str, span_id: Optional[str], adopted: bool = False
    ) -> None:
        self.trace_id = trace_id
        #: The innermost open causal span on this thread (the parent of
        #: the next span entered).  ``None`` right after ``begin_trace``:
        #: the next span becomes the trace root.
        self.span_id = span_id
        #: Adopted contexts yield to fresh carriers (service loops serve
        #: one request after another); root contexts never do.
        self.adopted = adopted


class CausalTracer:
    """Per-machine causal-context manager and trace recorder."""

    def __init__(self, machine: "Machine", node: Optional[str] = None) -> None:
        self.machine = machine
        #: Node name qualifying every id this tracer mints — distinct per
        #: machine so a cross-machine trace merge needs no renumbering.
        self.node = node if node is not None else machine.profile.name
        self._trace_seq = 0
        self._span_seq = 0
        self._flow_seq = 0
        #: Per-SimThread context (keyed by the thread object itself).
        self.contexts: Dict[object, CausalContext] = {}
        #: Closed causal spans, in close order (deterministic).
        self.spans: List[Dict[str, object]] = []
        #: Flow / trace / follow events, in emission order.
        self.events: List[Dict[str, object]] = []
        #: The most recent trace id any event on this machine touched —
        #: what respawn follow-edges attach to when the respawning
        #: supervisor itself has no context.
        self.last_trace_id: Optional[str] = None

    # -- id minting (counters only: deterministic and merge-safe) ----------

    def _next_trace(self) -> str:
        self._trace_seq += 1
        return f"{self.node}-t{self._trace_seq:05d}"

    def _next_span(self) -> str:
        self._span_seq += 1
        return f"{self.node}-s{self._span_seq:05d}"

    def _next_flow(self) -> str:
        self._flow_seq += 1
        return f"{self.node}-f{self._flow_seq:05d}"

    # -- current-thread plumbing -------------------------------------------

    def _current_thread(self) -> object:
        return self.machine.scheduler._current

    def current(self) -> Optional[CausalContext]:
        return self.contexts.get(self._current_thread())

    def _now_ps(self) -> int:
        return self.machine.clock.now_ps

    def _thread_label(self) -> str:
        return str(getattr(self._current_thread(), "name", "controller"))

    def _event(self, kind: str, trace_id: str, **fields: object) -> None:
        self.last_trace_id = trace_id
        record: Dict[str, object] = {
            "kind": kind,
            "ts_ps": self._now_ps(),
            "machine": self.node,
            "trace": trace_id,
            "thread": self._thread_label(),
            "tid": int(getattr(self._current_thread(), "sid", 0)),
        }
        record.update(fields)
        self.events.append(record)
        self._flight(
            record["ts_ps"],
            kind,
            " ".join(
                f"{key}={record[key]}"
                for key in ("trace", "span", "flow", "name")
                if record.get(key) is not None
            ),
        )

    def _flight(self, ts_ps: int, kind: str, detail: str) -> None:
        """One line in the machine's flight recorder, when installed."""
        rec = self.machine.flightrec
        if rec is not None:
            rec.record(ts_ps, kind, detail)

    # -- trace lifecycle ----------------------------------------------------

    def begin_trace(self, name: str) -> str:
        """Open a new trace rooted at the current thread.  The next span
        this thread enters becomes the trace's root span."""
        trace_id = self._next_trace()
        self.contexts[self._current_thread()] = CausalContext(trace_id, None)
        self._event("trace.begin", trace_id, name=name)
        return trace_id

    def end_trace(self) -> None:
        """Close the current thread's trace and drop its context."""
        ctx = self.contexts.pop(self._current_thread(), None)
        if ctx is not None:
            self._event("trace.end", ctx.trace_id)

    # -- carriers: what crosses a boundary ----------------------------------

    def carrier(self) -> Optional[Carrier]:
        """Snapshot the current context for injection into a message,
        packet or siginfo.  Records the ``flow.send`` half of the edge.
        Returns ``None`` (inject nothing) outside any trace."""
        ctx = self.current()
        if ctx is None:
            return None
        flow_id = self._next_flow()
        self._event("flow.send", ctx.trace_id, span=ctx.span_id, flow=flow_id)
        return (ctx.trace_id, ctx.span_id, flow_id)

    def adopt(self, carrier: Optional[Carrier]) -> None:
        """Land a carrier on the current thread: record the ``flow.recv``
        edge and — unless this thread owns a root context — adopt the
        carrier's context so subsequent spans parent under the sender."""
        if carrier is None:
            return
        trace_id, span_id, flow_id = carrier
        self._event("flow.recv", trace_id, span=span_id, flow=flow_id)
        thread = self._current_thread()
        ctx = self.contexts.get(thread)
        if ctx is None or ctx.adopted:
            self.contexts[thread] = CausalContext(
                trace_id, span_id, adopted=True
            )

    def inherit(self, parent_thread: object, child_thread: object) -> None:
        """fork/posix_spawn: the child starts inside the parent's trace."""
        ctx = self.contexts.get(parent_thread)
        if ctx is None:
            return
        self.contexts[child_thread] = CausalContext(
            ctx.trace_id, ctx.span_id, adopted=True
        )
        self._event(
            "inherit",
            ctx.trace_id,
            span=ctx.span_id,
            name=str(getattr(child_thread, "name", "?")),
        )

    def follow(self, name: str) -> None:
        """A follows-from edge: a supervised-service respawn caused by —
        but not part of — a trace.  Attaches to the current context if
        the respawner has one, else to the machine's last seen trace."""
        ctx = self.current()
        trace_id = ctx.trace_id if ctx is not None else self.last_trace_id
        if trace_id is None:
            return
        self._event(
            "follow",
            trace_id,
            span=ctx.span_id if ctx is not None else None,
            name=name,
        )

    # -- observatory hooks (every span enter/close when installed) ---------

    def on_enter(self, span: "Span") -> None:
        ctx = self.current()
        if ctx is None:
            return
        span.trace_id = ctx.trace_id
        span.span_id = self._next_span()
        span.parent_span_id = ctx.span_id
        ctx.span_id = span.span_id
        self._flight(
            span.start_ps,
            "span.enter",
            f"trace={span.trace_id} span={span.span_id} "
            f"{span.subsystem}:{span.name}",
        )

    def on_close(self, span: "Span") -> None:
        if span.span_id is None:
            return
        self.last_trace_id = span.trace_id
        self.spans.append(self._row(span))
        # Restore the enclosing span as the thread's innermost: usually
        # the closer is the owner, but tolerant unwinding may close spans
        # for other threads — scan the (tiny) context table then.
        ctx = self.current()
        if ctx is None or ctx.span_id != span.span_id:
            ctx = None
            for candidate in self.contexts.values():
                if candidate.span_id == span.span_id:
                    ctx = candidate
                    break
        if ctx is not None:
            ctx.span_id = span.parent_span_id
        self._flight(
            span.end_ps or 0,
            "span.close",
            f"trace={span.trace_id} span={span.span_id} "
            f"{span.subsystem}:{span.name} total_ps={span.total_ps}",
        )

    def _row(self, span: "Span", aborted: bool = False) -> Dict[str, object]:
        row: Dict[str, object] = {
            "machine": self.node,
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_span_id,
            "subsystem": span.subsystem,
            "name": span.name,
            "tid": span.tid,
            "thread": span.thread_name,
            "start_ps": span.start_ps,
            "end_ps": span.end_ps if span.end_ps is not None else self._now_ps(),
            "self_ps": span.self_ps,
            "total_ps": span.self_ps + span.child_ps,
        }
        if aborted:
            row["aborted"] = True
        return row

    def aborted_rows(self) -> List[Dict[str, object]]:
        """Rows for causal spans still open — a panicked machine never
        closes them; the trace assembler includes them flagged
        ``aborted`` with ``end_ps`` at the time of export."""
        obs = self.machine.obs
        if obs is None:
            return []
        rows = []
        for span in obs.profiler.open_spans():
            if span.span_id is not None:
                rows.append(self._row(span, aborted=True))
        rows.sort(key=lambda r: (r["trace"], r["span"]))
        return rows
