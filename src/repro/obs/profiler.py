"""The virtual-time profiler.

Attributes every ``VirtualClock.charge`` to the innermost open span of
the *currently running* simulated thread (or to the controller context
when no simulated thread holds the token), and aggregates each finished
span into exactly one place: a **flame tree** keyed by the span path
(root subsystem → … → leaf), rendered as a ``perf report``-style folded
table.  Every other view reads that tree:

* the **per-subsystem table** — subsystem → (calls, self-ps, total-ps) —
  sums the tree's nodes by label, and answers the paper's §6 question
  "where does the overhead come from" with hard numbers (self time sums
  exactly to the clock's charged total, see
  :meth:`Profiler.conservation_check`);
* the observatory's ``<subsystem>.calls`` counters are that table's
  ``calls`` column.

All accounting is exact integer picoseconds; nothing here ever charges
the clock.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..sim.clock import PSEC_PER_NSEC
from .spans import Span

#: Pseudo-subsystem collecting charges made with no span open.
UNATTRIBUTED = "(unattributed)"


class SubsystemStat:
    """Every finished span of one subsystem label, summed from the flame
    tree by :meth:`Profiler.subsystem_table`."""

    __slots__ = ("subsystem", "calls", "self_ps", "total_ps")

    def __init__(self, subsystem: str) -> None:
        self.subsystem = subsystem
        self.calls = 0
        self.self_ps = 0
        self.total_ps = 0

    @property
    def self_ns(self) -> float:
        return self.self_ps / PSEC_PER_NSEC

    @property
    def total_ns(self) -> float:
        return self.total_ps / PSEC_PER_NSEC

    def __repr__(self) -> str:
        return (
            f"<SubsystemStat {self.subsystem} calls={self.calls} "
            f"self={self.self_ns:.0f}ns total={self.total_ns:.0f}ns>"
        )


class FlameNode:
    """One node of the span-path tree."""

    __slots__ = ("label", "calls", "self_ps", "total_ps", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        self.calls = 0
        self.self_ps = 0
        self.total_ps = 0
        self.children: Dict[str, "FlameNode"] = {}

    def child(self, label: str) -> "FlameNode":
        node = self.children.get(label)
        if node is None:
            node = FlameNode(label)
            self.children[label] = node
        return node


class Profiler:
    """Per-thread span stacks plus charge attribution and aggregation."""

    def __init__(self) -> None:
        #: Returns an opaque, hashable "current execution context" token —
        #: wired by the observatory to ``scheduler._current`` so span
        #: stacks follow the deterministic scheduler's token holder.
        self.current_context: Callable[[], object] = lambda: None
        #: Maps a context to (tid:int, thread_name:str) for exporters.
        self.context_identity: Callable[[object], Tuple[int, str]] = (
            lambda ctx: (0, "controller")
        )
        #: Called with each finished span (the observatory records trace
        #: events and latency histograms from it).
        self.on_span_closed: Optional[Callable[[Span], None]] = None
        self._stacks: Dict[object, List[Span]] = {}
        self._flame_root = FlameNode("(root)")
        #: Exact totals (integer ps).
        self.unattributed_ps = 0
        self.observed_ps = 0

    # -- span lifecycle -----------------------------------------------------

    def enter_span(
        self,
        subsystem: str,
        name: str,
        attrs: Optional[Dict[str, object]],
        now_ps: int,
    ) -> Span:
        context = self.current_context()
        stack = self._stacks.get(context)
        if stack is None:
            stack = []
            self._stacks[context] = stack
        parent = stack[-1] if stack else None
        tid, thread_name = self.context_identity(context)
        span = Span(
            subsystem,
            name,
            attrs,
            tid,
            thread_name,
            depth=len(stack),
            start_ps=now_ps,
            parent=parent,
        )
        stack.append(span)
        return span

    def exit_span(self, span: Span, now_ps: int) -> None:
        """Close ``span``.  Tolerates unwinding: if inner spans are still
        open above it (an exception skipped their normal close), they are
        closed first so no span ever leaks open."""
        context = self.current_context()
        stack = self._stacks.get(context)
        if stack is None or span not in stack:
            # Closed from a different context than it was opened in (a
            # killed thread's stack, for instance) — locate it anywhere.
            for candidate_stack in self._stacks.values():
                if span in candidate_stack:
                    stack = candidate_stack
                    break
            else:
                return  # already closed (idempotent)
        while stack:
            top = stack.pop()
            self._finish(top, now_ps)
            if top is span:
                break

    def _finish(self, span: Span, now_ps: int) -> None:
        span.end_ps = now_ps
        if span.parent is not None and not span.parent.closed:
            span.parent.child_ps += span.total_ps
        # The one aggregate: the flame tree along the subsystem path.
        node = self._flame_root
        for label in span.path():
            node = node.child(label)
        node.calls += 1
        node.self_ps += span.self_ps
        node.total_ps += span.total_ps
        if self.on_span_closed is not None:
            self.on_span_closed(span)

    # -- charge attribution (the clock's hook) ------------------------------

    def on_charge(self, ps: int) -> None:
        """Every ``clock.charge`` lands here (exact integer ps)."""
        self.observed_ps += ps
        stack = self._stacks.get(self.current_context())
        if stack:
            stack[-1].self_ps += ps
        else:
            self.unattributed_ps += ps

    # -- tables -------------------------------------------------------------

    def _nodes(self) -> Iterator[FlameNode]:
        """Every flame-tree node below the root, depth first."""
        pending = list(self._flame_root.children.values())
        while pending:
            node = pending.pop()
            yield node
            pending.extend(node.children.values())

    def subsystem_table(self) -> List[SubsystemStat]:
        """Per-subsystem stats, heaviest self-time first (ties by name):
        the flame tree's nodes summed by label.  A label with no finished
        span (a node that only parents still-open spans) has no row."""
        stats: Dict[str, SubsystemStat] = {}
        for node in self._nodes():
            if not node.calls:
                continue
            stat = stats.get(node.label)
            if stat is None:
                stat = stats[node.label] = SubsystemStat(node.label)
            stat.calls += node.calls
            stat.self_ps += node.self_ps
            stat.total_ps += node.total_ps
        return sorted(stats.values(), key=lambda s: (-s.self_ps, s.subsystem))

    def flame_rows(self) -> List[Tuple[str, int, int, int]]:
        """Folded flame table rows ``(path, calls, self_ps, total_ps)``,
        depth-first, children sorted by label (deterministic)."""
        rows: List[Tuple[str, int, int, int]] = []

        def visit(node: FlameNode, prefix: str) -> None:
            for label in sorted(node.children):
                child = node.children[label]
                path = f"{prefix};{label}" if prefix else label
                rows.append((path, child.calls, child.self_ps, child.total_ps))
                visit(child, path)

        visit(self._flame_root, "")
        return rows

    # -- open-span accounting (leak detection) ------------------------------

    def open_spans(self) -> List[Span]:
        """Every span still open, across all thread stacks."""
        result: List[Span] = []
        for stack in self._stacks.values():
            result.extend(stack)
        return result

    def open_span_count(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())

    def open_self_ps(self) -> int:
        return sum(span.self_ps for span in self.open_spans())

    # -- conservation -------------------------------------------------------

    def attributed_ps(self) -> int:
        """Self-ps over all *closed* spans plus unattributed charges plus
        self-ps of spans still open.  By construction this equals
        :attr:`observed_ps` — every charged picosecond lands in exactly
        one bucket."""
        closed = sum(node.self_ps for node in self._nodes())
        return closed + self.unattributed_ps + self.open_self_ps()

    def conservation_check(self) -> bool:
        """True iff every observed picosecond is attributed exactly once."""
        return self.attributed_ps() == self.observed_ps
