"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a set of declarative :class:`FaultRule` objects
plus a private seeded RNG.  Named *injection points* are threaded through
the simulation's hot paths (syscall entry/exit, Mach IPC send/receive,
diplomat persona switches, dyld library resolution, VFS lookup/open, page
allocation); at each point the code asks the plan whether a fault fires
and, if so, degrades gracefully — a simulated errno, a kern_return code, a
signal, or a virtual-time delay — never a raw Python exception.

Design constraints (mirroring :class:`repro.sim.trace.Trace`):

* **Zero-fault fast path.**  A machine without a plan pays exactly one
  boolean test per injection point (``machine.faults is None``); with an
  *empty* plan attached, :meth:`FaultPlan.check` charges no virtual time,
  so all benchmarks report identical costs.
* **Determinism.**  All randomness comes from the plan's own
  ``random.Random(seed)``; given the same seed and the same simulated
  workload, two runs produce a byte-identical fault log
  (:meth:`FaultPlan.fault_log`).  The DiOS / gem5-reproducibility papers
  motivate exactly this property: error-path exploration is only useful
  if a failing run can be replayed bit-for-bit.

Rules match by injection-point name (exact or ``fnmatch`` glob), an
optional predicate over the point's detail dict, an optional
nth-occurrence trigger, an optional virtual-time window, a probability,
and a fire-count cap.  The first matching rule wins — rule order is part
of the plan and therefore part of the reproducible configuration.
"""

from __future__ import annotations

import random
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .trace import FAULT_CATEGORY

if TYPE_CHECKING:
    from ..hw.machine import Machine

#: The injection points threaded through the stack.  Custom points are
#: allowed (subsystems may grow their own); these are the documented core.
INJECTION_POINTS = (
    "syscall.enter",   # Kernel.trap, before dispatch
    "syscall.exit",    # Kernel.trap, after a successful dispatch
    "mach.send",       # MachIPC.mach_msg_send
    "mach.recv",       # MachIPC.mach_msg_receive
    "diplomat.switch",  # Diplomat.__call__, before the persona switch
    "dyld.load",       # Dyld._walk_filesystem, per-library resolution
    "vfs.open",        # Kernel.open_path
    "vfs.lookup",      # VFS.resolve
    "mm.map",          # AddressSpace.map (page allocation)
    "mm.reserve",      # AddressSpace.map, forced RAM-budget scarcity
    "vfs.write",       # RegularHandle.write, forced ENOSPC scarcity
    "ipc.qfull",       # MachIPC send with a full queue (backpressure)
    "net.connect",     # repro.net TCP handshake (ECONNREFUSED/ETIMEDOUT/delay)
    "net.send",        # repro.net transmit path (drop -> retransmit, errno)
    "net.partition",   # repro.net link blackout (SYN/segment/probe lost)
    "net.degrade",     # repro.net latency spike on a transmit flight
    "net.corrupt",     # repro.net bit-flip -> checksum drop -> retransmit
)

# -- outcomes -------------------------------------------------------------------

KIND_ERRNO = "errno"
KIND_KERN = "kern"
KIND_SIGNAL = "signal"
KIND_DELAY = "delay"
KIND_PANIC = "panic"
KIND_POWER = "power_loss"

_ALL_KINDS = (
    KIND_ERRNO, KIND_KERN, KIND_SIGNAL, KIND_DELAY, KIND_PANIC, KIND_POWER,
)


class FaultOutcome:
    """What an injected fault does at its injection point.

    Immutable; interpreted by the injection site:

    * ``errno``  — surface a simulated errno (``SyscallError``);
    * ``kern``   — return a Mach kern_return / mach_msg_return code;
    * ``signal`` — deliver a (fatal) signal to the calling process;
    * ``delay``  — charge extra virtual time (a transient stall).

    Two machine-level outcomes are interpreted by :meth:`FaultPlan.check`
    itself (so they work at *every* injection point without per-site
    support):

    * ``panic``      — kernel panic: the machine moves to the CRASHED
      state and :class:`repro.sim.errors.MachinePanic` unwinds the
      current simulated thread;
    * ``power_loss`` — panic plus sudden power cut: dirty pages and
      uncommitted journal records on the durable storage device are
      (partially, seed-determined) lost.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: object) -> None:
        if kind not in _ALL_KINDS:
            raise ValueError(f"unknown fault outcome kind {kind!r}")
        self.kind = kind
        self.value = value

    # -- constructors ------------------------------------------------------

    @classmethod
    def errno(cls, errno: int) -> "FaultOutcome":
        return cls(KIND_ERRNO, errno)

    @classmethod
    def kern(cls, code: int) -> "FaultOutcome":
        return cls(KIND_KERN, code)

    @classmethod
    def signal(cls, signum: int) -> "FaultOutcome":
        return cls(KIND_SIGNAL, signum)

    @classmethod
    def delay(cls, delay_ns: float) -> "FaultOutcome":
        return cls(KIND_DELAY, delay_ns)

    @classmethod
    def panic(cls, reason: str = "injected panic") -> "FaultOutcome":
        return cls(KIND_PANIC, reason)

    @classmethod
    def power_loss(cls, reason: str = "power loss") -> "FaultOutcome":
        return cls(KIND_POWER, reason)

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value}"


class FaultRule:
    """One declarative fault rule.

    ``point`` is an injection-point name or an ``fnmatch`` glob
    (``"mach.*"``).  ``predicate`` receives the point's detail dict.
    ``nth`` fires only on the nth *matching* occurrence (1-based);
    ``probability`` draws from the plan's seeded RNG; ``window_ns`` is a
    half-open virtual-time interval ``[start, end)``; ``max_fires`` caps
    total fires.
    """

    _next_id = 1

    def __init__(
        self,
        point: str,
        outcome: FaultOutcome,
        *,
        rule_id: Optional[str] = None,
        predicate: Optional[Callable[[Dict[str, object]], bool]] = None,
        probability: float = 1.0,
        nth: Optional[int] = None,
        window_ns: Optional[Tuple[float, float]] = None,
        max_fires: Optional[int] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        if nth is not None and nth < 1:
            raise ValueError("nth is 1-based")
        if rule_id is None:
            rule_id = f"rule{FaultRule._next_id}"
            FaultRule._next_id += 1
        self.rule_id = rule_id
        self.point = point
        self.outcome = outcome
        self.predicate = predicate
        self.probability = probability
        self.nth = nth
        self.window_ns = window_ns
        self.max_fires = max_fires
        #: Matching occurrences seen (post point/window/predicate filter).
        self.matches = 0
        #: Times this rule actually fired.
        self.fires = 0

    def _match_point(self, point: str) -> bool:
        if self.point == point:
            return True
        return fnmatchcase(point, self.point)

    def __repr__(self) -> str:
        return (
            f"<FaultRule {self.rule_id} {self.point!r} -> {self.outcome!r} "
            f"fires={self.fires}>"
        )


class FaultEvent:
    """One injected fault, as recorded in the plan's own log."""

    __slots__ = ("timestamp_ns", "point", "rule_id", "outcome", "detail")

    def __init__(
        self,
        timestamp_ns: float,
        point: str,
        rule_id: str,
        outcome: FaultOutcome,
        detail: Dict[str, object],
    ) -> None:
        self.timestamp_ns = timestamp_ns
        self.point = point
        self.rule_id = rule_id
        self.outcome = outcome
        self.detail = detail

    def format(self) -> str:
        extras = " ".join(f"{k}={self.detail[k]}" for k in sorted(self.detail))
        return (
            f"{self.timestamp_ns:.0f} {self.point} {self.rule_id} "
            f"{self.outcome!r} {extras}".rstrip()
        )

    def __repr__(self) -> str:
        return f"<FaultEvent {self.format()}>"


class FaultPlan:
    """A seeded set of fault rules attached to one machine.

    Attach with :meth:`repro.hw.machine.Machine.install_fault_plan`; the
    machine then exposes the plan as ``machine.faults`` and every
    injection point consults it.
    """

    def __init__(self, seed: int = 0, rules: Optional[List[FaultRule]] = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: List[FaultRule] = list(rules or [])
        #: Per-point occurrence counters (every check, fired or not).
        self.occurrences: Dict[str, int] = {}
        #: Every fault that fired, in order.
        self.events: List[FaultEvent] = []
        self._machine: Optional["Machine"] = None

    # -- construction ------------------------------------------------------

    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def rule(
        self,
        point: str,
        outcome: FaultOutcome,
        **kwargs: object,
    ) -> FaultRule:
        """Convenience: build and add a rule in one call."""
        return self.add_rule(FaultRule(point, outcome, **kwargs))  # type: ignore[arg-type]

    # -- attachment --------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        self._machine = machine

    @property
    def now_ns(self) -> float:
        if self._machine is None:
            return 0.0
        return self._machine.clock.now_ns

    # -- the hot-path query ------------------------------------------------

    def check(self, point: str, **detail: object) -> Optional[FaultOutcome]:
        """Should a fault fire at ``point`` now?  Charges no virtual time.

        Returns the winning rule's outcome, or None.  Also records the
        fault in the plan's log and, when tracing is enabled, emits a
        ``fault`` trace event so tests can assert "same seed ⇒ identical
        fault sequence".
        """
        self.occurrences[point] = self.occurrences.get(point, 0) + 1
        if not self.rules:
            return None
        now = self.now_ns
        for rule in self.rules:
            if not rule._match_point(point):
                continue
            if rule.window_ns is not None:
                start, end = rule.window_ns
                if not (start <= now < end):
                    continue
            if rule.predicate is not None and not rule.predicate(detail):
                continue
            rule.matches += 1
            if rule.nth is not None and rule.matches != rule.nth:
                continue
            if rule.max_fires is not None and rule.fires >= rule.max_fires:
                continue
            if rule.probability < 1.0 and self.rng.random() >= rule.probability:
                continue
            rule.fires += 1
            self._record(now, point, rule, detail)
            outcome = rule.outcome
            if outcome.kind in (KIND_PANIC, KIND_POWER):
                self._crash(point, outcome)
            return outcome
        return None

    def _crash(self, point: str, outcome: FaultOutcome) -> None:
        """Machine-level outcomes are handled here so every injection
        point — present and future — supports them without per-site code.
        Never returns: unwinds via MachinePanic."""
        from .errors import MachinePanic

        reason = f"{outcome.value} at {point}"
        if self._machine is not None:
            self._machine.panic(reason, power_loss=outcome.kind == KIND_POWER)
        raise MachinePanic(reason)

    # -- bookkeeping -------------------------------------------------------

    def _record(
        self,
        now: float,
        point: str,
        rule: FaultRule,
        detail: Dict[str, object],
    ) -> None:
        event = FaultEvent(now, point, rule.rule_id, rule.outcome, dict(detail))
        self.events.append(event)
        if self._machine is not None:
            # Detail keys chosen by injection sites must not collide with
            # Trace.emit's own parameters.
            safe = {
                (k + "_" if k in ("clock_now_ns", "category", "name") else k): v
                for k, v in detail.items()
            }
            self._machine.trace.emit(
                now,
                FAULT_CATEGORY,
                point,
                rule=rule.rule_id,
                outcome=repr(rule.outcome),
                **safe,
            )

    # -- inspection --------------------------------------------------------

    @property
    def fired(self) -> int:
        return len(self.events)

    def fault_log(self) -> bytes:
        """The canonical, byte-comparable log of every injected fault.

        Two runs of the same seeded plan over the same workload produce
        byte-identical logs; different seeds diverge as soon as a
        probabilistic rule draws differently.
        """
        return ("\n".join(e.format() for e in self.events) + "\n").encode()

    def fires_at(self, point: str) -> int:
        return sum(1 for e in self.events if e.point == point)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} rules={len(self.rules)} "
            f"fired={self.fired}>"
        )


# -- convenience builders -------------------------------------------------------


def chaos_plan(seed: int, probability: float = 0.02) -> FaultPlan:
    """A ready-made plan covering every documented injection-point family
    (``syscall``, ``mach``, ``diplomat``, ``dyld``, ``vfs``, ``mm``,
    ``ipc``, ``net`` — see :data:`INJECTION_POINTS`) with transient,
    recoverable outcomes — the "seeded chaos run" configuration used by
    ``examples/fault_injection.py`` and the determinism suite.  Mach codes
    and errnos are imported lazily to keep :mod:`repro.sim` OS-agnostic at
    import time.  Machine-level outcomes (panic / power loss) are *not*
    part of the chaos mix — see ``examples/crash_recovery.py`` and
    :mod:`repro.workloads.crashsweep` for those.

    ``dyld.load``, ``mm.map``, ``mm.reserve`` and ``vfs.lookup`` are
    checked once per library on every Mach-O exec's dyld walk, so their
    four rules share the per-call rate divided by the walk length: a
    whole exec draws about as many faults as one syscall does, and a
    client still reaches ``main``.
    """
    from ..ios.frameworks import TARGET_LIBRARY_COUNT
    from ..kernel import errno as _errno
    from ..xnu import ipc as _ipc

    per_library = probability / (4 * TARGET_LIBRARY_COUNT)
    plan = FaultPlan(seed)
    plan.rule(
        "syscall.enter",
        FaultOutcome.errno(_errno.EIO),
        rule_id="chaos-syscall",
        # Only unix-class syscalls speak the errno convention; Mach traps
        # (negative numbers on XNU) are faulted at mach.send / mach.recv
        # with kern codes instead.
        predicate=lambda d: isinstance(d.get("nr"), int) and d["nr"] >= 0,
        probability=probability,
    )
    plan.rule(
        "mach.send",
        FaultOutcome.kern(_ipc.MACH_SEND_TIMED_OUT),
        rule_id="chaos-mach-send",
        probability=probability,
    )
    plan.rule(
        "mach.recv",
        FaultOutcome.kern(_ipc.MACH_RCV_TIMED_OUT),
        rule_id="chaos-mach-recv",
        probability=probability,
    )
    plan.rule(
        "diplomat.switch",
        FaultOutcome.errno(_errno.EAGAIN),
        rule_id="chaos-diplomat",
        probability=probability,
    )
    plan.rule(
        "dyld.load",
        FaultOutcome.errno(_errno.ENOENT),
        rule_id="chaos-dyld",
        probability=per_library,
    )
    plan.rule(
        "vfs.open",
        FaultOutcome.errno(_errno.EIO),
        rule_id="chaos-vfs",
        probability=probability,
    )
    plan.rule(
        "mm.map",
        FaultOutcome.errno(_errno.ENOMEM),
        rule_id="chaos-mm",
        probability=per_library,
    )
    plan.rule(
        "ipc.qfull",
        FaultOutcome.kern(_ipc.MACH_SEND_TIMED_OUT),
        rule_id="chaos-ipc-qfull",
        probability=probability / 4,
    )
    plan.rule(
        "net.connect",
        # A transient handshake stall (delay), not ECONNREFUSED: chaos
        # outcomes must stay recoverable so the workload still completes.
        FaultOutcome.delay(2_000_000),
        rule_id="chaos-net-connect",
        probability=probability,
    )
    plan.rule(
        "net.send",
        # delay == "segment dropped": the stack logs a DROP line, pays the
        # retransmission timeout, and (for TCP) sends again.
        FaultOutcome.delay(1_000_000),
        rule_id="chaos-net-send",
        probability=probability,
    )
    plan.rule(
        "net.partition",
        # A transient blackout: the segment/SYN/keepalive probe vanishes
        # (PART log line), the caller pays the injected wait plus an RTT
        # and retransmits — recoverable as long as the next check clears.
        FaultOutcome.delay(1_500_000),
        rule_id="chaos-net-partition",
        probability=probability / 4,
    )
    plan.rule(
        "net.degrade",
        # Latency spike on one flight (charged on top of the normal
        # serialisation + propagation cost).
        FaultOutcome.delay(500_000),
        rule_id="chaos-net-degrade",
        probability=probability,
    )
    plan.rule(
        "net.corrupt",
        # Bit-flip in flight: the per-segment checksum catches it (CSUM
        # log line), the segment is dropped and retransmitted.
        FaultOutcome.delay(0),
        rule_id="chaos-net-corrupt",
        probability=probability / 4,
    )
    # Previously silently-skipped points, now exercised with transient
    # delay outcomes (every site charges a delay and proceeds, so the
    # chaos mix stays recoverable by construction).
    plan.rule(
        "syscall.exit",
        FaultOutcome.delay(50_000),
        rule_id="chaos-syscall-exit",
        probability=probability / 4,
    )
    plan.rule(
        "vfs.lookup",
        FaultOutcome.delay(20_000),
        rule_id="chaos-vfs-lookup",
        probability=per_library,
    )
    plan.rule(
        "mm.reserve",
        FaultOutcome.delay(30_000),
        rule_id="chaos-mm-reserve",
        probability=per_library,
    )
    plan.rule(
        "vfs.write",
        FaultOutcome.delay(20_000),
        rule_id="chaos-vfs-write",
        probability=probability / 4,
    )
    return plan
