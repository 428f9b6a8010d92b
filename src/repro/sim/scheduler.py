"""Deterministic cooperative scheduler.

Simulated threads are backed by real Python threads, but exactly one of
them (or the controller — the code that called :meth:`Scheduler.run`) holds
the *token* at any instant.  Control moves only at explicit points: when a
thread blocks, sleeps, yields, or exits.  Together with the virtual clock
this makes every run fully deterministic — there is no true concurrency and
therefore no data race anywhere in the simulation.

The token protocol
------------------

Every participant (each :class:`SimThread` plus the controller) owns a
*gate*: a raw ``_thread`` lock used as a binary semaphore, held while its
owner has no token.  The token holder hands off by releasing the target's
gate and then acquiring its own, which blocks until the token comes back.
A thread that exits hands the token off without waiting.  One pick
chooses every next holder: the next READY thread in strict FIFO order (or
a policy's choice); if none is ready but timers are pending it
fast-forwards the clock to the earliest and picks its waiter; otherwise
the token returns to the controller, which decides whether the run is
complete or deadlocked.

The drive loop
--------------

:meth:`Scheduler.run`, :meth:`~Scheduler.run_until_done` and
:meth:`~Scheduler.run_ready` are one controller loop with three stop
conditions.  Each pass drops finished threads, lets an armed watchdog
strike, and hands the token to the pick until it comes back.
``run_until_done`` stops when its thread finishes; ``run`` when nothing
can run and every non-daemon thread has finished; ``run_ready`` when the
ready queue drains.  ``run_ready`` drives *drain-only*: for its duration
no pick fires a timer, so a machine in a multi-machine world never jumps
its own clock past a peer that may still hold the wakeup.  Otherwise,
when nothing can run, a kill-mode watchdog expires the longest-blocked
thread, or the loop raises :class:`DeadlockError`.  The loop runs only
on the controller: a simulated thread that tries to drive its own
scheduler gets :class:`SchedulerError`.

SimThread bodies run on reusable OS worker threads kept on one
process-wide idle list.  :meth:`Scheduler.spawn` binds an idle worker,
starting a new one only when none is idle, and the SimThread's gate is
that worker's gate.  An exiting thread unbinds itself and puts its worker
back on the idle list *before* handing the token on, so the next spawn
reuses it.  A forked child inherits the idle list but none of the OS
threads behind it, so the list is emptied in the child.  Which OS thread
runs a body never reaches the simulation: virtual time, schedules and
thread ids are the same on a fresh worker as on a reused one.
"""

from __future__ import annotations

import _thread
import heapq
import os
import threading
from collections import deque
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .clock import VirtualClock
from .errors import DeadlockError, SchedulerError, ThreadKilled


class ThreadState(Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    DONE = "done"
    KILLED = "killed"


#: The states a wakeup or a timer can end.
_WAITING = (ThreadState.BLOCKED, ThreadState.SLEEPING)


def _held_gate() -> "_thread.LockType":
    """A gate at rest: held, i.e. its owner has no token."""
    gate = _thread.allocate_lock()
    gate.acquire()
    return gate


class _TokenHolder:
    """Common handoff machinery shared by SimThread and the controller."""

    def __init__(self, name: str, gate: "_thread.LockType") -> None:
        self.name = name
        self._gate = gate
        self._killed = False

    def _wake(self) -> None:
        self._gate.release()

    def _wait_for_token(self) -> None:
        self._gate.acquire()
        if self._killed:
            raise ThreadKilled(self.name)

    def __getstate__(self) -> dict:
        # A lock cannot be pickled.  A holder is only ever pickled into a
        # boot snapshot, taken at a quiescent point where the controller
        # holds the token and nobody waits on it — so the gate is dropped
        # and a fresh held one is exactly equivalent.  (SimThread
        # overrides this: a *live* thread has an OS stack no image can
        # hold.)
        state = self.__dict__.copy()
        del state["_gate"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._gate = _held_gate()


class _Worker:
    """A reusable OS thread that runs SimThread bodies, one at a time.

    ``task`` is the bound SimThread (None while idle).  The worker sleeps
    on its gate until that thread first receives the token, runs it to
    exit, and sleeps again until the next spawn binds it.
    """

    __slots__ = ("gate", "task")

    def __init__(self) -> None:
        self.gate = _held_gate()
        self.task: Optional["SimThread"] = None
        threading.Thread(
            target=self._serve, name="sim-worker", daemon=True
        ).start()

    def _serve(self) -> None:
        gate = self.gate
        while True:
            gate.acquire()
            self.task._run()


#: Workers with no SimThread bound, shared by every scheduler in the
#: process (OS threads are a process resource).
_idle_workers: List[_Worker] = []

if hasattr(os, "register_at_fork"):
    # A forked child inherits the list but none of the OS threads behind it.
    os.register_at_fork(after_in_child=_idle_workers.clear)


class _Timer:
    """A pending deadline for a sleeping or timed-blocked thread."""

    __slots__ = ("deadline_ns", "seq", "thread", "cancelled", "fired")

    def __init__(self, deadline_ns: float, seq: int, thread: "SimThread"):
        self.deadline_ns = deadline_ns
        self.seq = seq
        self.thread = thread
        self.cancelled = False
        self.fired = False

    def __lt__(self, other: "_Timer") -> bool:
        return (self.deadline_ns, self.seq) < (other.deadline_ns, other.seq)


class SimThread(_TokenHolder):
    """A simulated thread of execution.

    ``body`` runs on a pooled worker OS thread but only while this
    SimThread holds the scheduler token.  ``daemon`` threads (system
    services that block forever waiting for requests) do not keep
    :meth:`Scheduler.run` from completing.  ``sid`` numbers the threads
    of one scheduler from 1 in spawn order; 0 is the controller.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        body: Callable[[], object],
        name: str,
        daemon: bool = False,
    ) -> None:
        try:
            worker = _idle_workers.pop()
        except IndexError:
            worker = _Worker()
        super().__init__(name, worker.gate)
        worker.task = self
        self._worker: Optional[_Worker] = worker
        scheduler._last_sid += 1
        self.sid = scheduler._last_sid
        self.daemon = daemon
        self.state = ThreadState.NEW
        self.result: object = None
        self.failure: Optional[BaseException] = None
        self.wait_channel: Optional["WaitQueue"] = None
        #: Virtual time this thread last held the token (watchdog fodder).
        self.last_ran_ns: float = 0.0
        #: Virtual time it gave the token up (None while running/ready).
        self.blocked_since_ns: Optional[float] = None
        #: Set once the watchdog has reported this thread (ANR-style).
        self.anr_flagged = False
        self._scheduler = scheduler
        self._body = body
        #: The kernel thread this thread runs, if a kernel spawned it.
        self.kthread: Optional[object] = None
        #: Threads joining this one, built by the first :meth:`Scheduler.join`.
        self._joiners: Optional[WaitQueue] = None

    # -- lifecycle ---------------------------------------------------------

    def _run(self) -> None:
        """Called by the worker once this thread first holds the token."""
        sched = self._scheduler
        try:
            if self._killed:
                raise ThreadKilled(self.name)
            self.state = ThreadState.RUNNING
            self.last_ran_ns = sched.clock.now_ns
            self.result = self._body()
            self.state = ThreadState.DONE
        except ThreadKilled:
            self.state = ThreadState.KILLED
        except BaseException as exc:  # surfaced to whoever joins / runs
            self.state = ThreadState.DONE
            self.failure = exc
        finally:
            sched._on_thread_exit(self)

    @property
    def alive(self) -> bool:
        return self.state not in (ThreadState.DONE, ThreadState.KILLED)

    def __getstate__(self) -> dict:
        if self.alive:
            raise TypeError(
                f"cannot snapshot live simulated thread {self.name!r}; "
                "snapshot machines only at a quiescent point "
                "(no live SimThreads — see repro.sim.snapshot)"
            )
        # A finished thread may still be referenced (process tables,
        # joiner bookkeeping).  It loads as a tombstone: same identity and
        # result, and neither gate, worker nor body — it can never run
        # again, and nothing will ever hand it the token.
        state = self.__dict__.copy()
        del state["_gate"], state["_worker"], state["_body"]
        state["wait_channel"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._gate = self._worker = self._body = None

    def __repr__(self) -> str:
        return f"<SimThread {self.sid} {self.name!r} {self.state.value}>"


class WaitQueue:
    """A FIFO queue of blocked threads, the simulation's wait channel.

    Wakeups move threads back to the scheduler's ready queue; they run
    when the token next reaches them.
    """

    def __init__(self, name: str = "waitq") -> None:
        self.name = name
        self._waiters: deque = deque()

    def __len__(self) -> int:
        return len(self._waiters)

    def _add(self, thread: SimThread) -> None:
        self._waiters.append(thread)

    def _discard(self, thread: SimThread) -> None:
        try:
            self._waiters.remove(thread)
        except ValueError:
            pass

    def wake_one(self) -> Optional[SimThread]:
        """Make the longest-waiting thread runnable; return it, or None."""
        while self._waiters:
            thread = self._waiters.popleft()
            if thread.alive and thread._scheduler._make_ready(thread):
                return thread
        return None

    def wake_all(self) -> List[SimThread]:
        woken = []
        while self._waiters:
            thread = self._waiters.popleft()
            if thread.alive and thread._scheduler._make_ready(thread):
                woken.append(thread)
        return woken

    def __repr__(self) -> str:
        return f"<WaitQueue {self.name!r} waiters={len(self._waiters)}>"


class Scheduler:
    """Owns the token, the ready queue, and the timer wheel."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._ready: deque = deque()
        self._timers: List[_Timer] = []
        self._timer_seq = 0
        self._threads: List[SimThread] = []
        #: The most recently assigned ``SimThread.sid``.  Per scheduler,
        #: so a run numbers its threads the same way however many ran
        #: before it in the process, and a snapshot clone numbers them
        #: exactly like a fresh build.
        self._last_sid = 0
        self._controller = _TokenHolder("controller", _held_gate())
        self._current: _TokenHolder = self._controller
        self._shutdown = False
        #: True for the duration of a drain-only drive (:meth:`run_ready`):
        #: no pick fires a local timer, so a machine in a world never
        #: expires a deadline (e.g. SO_RCVTIMEO) while a peer machine
        #: still holds the wakeup; the world driver fires the globally
        #: nearest timer only when *every* machine is blocked.
        self._draining = False
        #: The armed virtual-time watchdog as ``(budget_ns, kill)``, or
        #: None: a thread blocked for ``budget_ns`` is reported ANR-style
        #: and, with ``kill``, killed.
        self._watchdog: Optional[Tuple[float, bool]] = None
        #: ANR-style reports produced by the watchdog, in order.
        self.anr_reports: List[Dict[str, object]] = []
        #: Optional hook ``fn(category, name, **detail)`` — wired to
        #: ``Machine.emit`` so watchdog events land in the trace.
        self.trace_hook: Optional[Callable[..., None]] = None
        #: Optional hook ``fn(sim_thread)`` invoked before a watchdog
        #: kill — the kernel uses it to tombstone the owning process.
        self.on_watchdog_kill: Optional[Callable[["SimThread"], None]] = None
        #: Token handoffs between holders (a thread or the controller)
        #: since this scheduler was built; an observatory reports the
        #: ones since its attach as ``sim.sched.switches``.
        self.switches = 0
        #: Pluggable schedule policy (repro.sim.explore).  None selects
        #: the historical strict-FIFO pick untouched; a policy sees every
        #: multi-candidate choice point and decides which READY thread
        #: runs next.  Policies steer *which* deterministic schedule
        #: executes — they never charge virtual time.
        self._policy: Optional[object] = None
        #: Monotonic id of the next scheduling choice point (only
        #: multi-candidate picks consume one).
        self._choice_seq = 0
        #: Happens-before monitor (repro.sim.explore.HBMonitor).  None on
        #: the fast path — spawn and wakeup pay one boolean test each.
        self.hb: Optional[object] = None

    # -- public API --------------------------------------------------------

    def spawn(
        self,
        body: Callable[[], object],
        name: str = "thread",
        daemon: bool = False,
    ) -> SimThread:
        """Create a simulated thread on an idle worker; it becomes READY
        immediately."""
        thread = SimThread(self, body, name, daemon=daemon)
        self._threads.append(thread)
        thread.state = ThreadState.READY
        self._ready.append(thread)
        if self.hb is not None:
            self.hb.on_spawn(thread)
        return thread

    def set_policy(self, policy: object) -> object:
        """Install a schedule policy (see :mod:`repro.sim.explore`).

        The policy is consulted at every choice point where more than one
        thread is READY; with ``None`` (the default) the scheduler keeps
        its historical strict-FIFO behaviour on an untouched code path.
        """
        self._policy = policy
        self._choice_seq = 0
        return policy

    def clear_policy(self) -> None:
        self._policy = None

    def current_thread(self) -> SimThread:
        """The simulated thread currently holding the token."""
        if not isinstance(self._current, SimThread):
            raise SchedulerError("no simulated thread is running")
        return self._current

    def in_sim_thread(self) -> bool:
        return isinstance(self._current, SimThread)

    def yield_control(self) -> None:
        """Round-robin: let every other READY thread run once."""
        me = self.current_thread()
        me.state = ThreadState.READY
        self._ready.append(me)
        self._dispatch(me)
        me.state = ThreadState.RUNNING

    def block_on(self, waitq: WaitQueue) -> None:
        """Park the current thread on ``waitq`` until woken."""
        me = self.current_thread()
        me.state = ThreadState.BLOCKED
        me.wait_channel = waitq
        waitq._add(me)
        self._dispatch(me)
        me.wait_channel = None
        me.state = ThreadState.RUNNING

    def block_on_timeout(self, waitq: WaitQueue, timeout_ns: float) -> bool:
        """Park on ``waitq`` with a deadline.

        Returns True if woken through the wait queue before the deadline,
        False if the deadline fired first.
        """
        return self._block((waitq,), timeout_ns)

    def block_on_any(
        self,
        waitqs: "List[WaitQueue]",
        timeout_ns: Optional[float] = None,
    ) -> bool:
        """Park on several wait queues at once (the poll/select primitive).

        Returns True if woken through any of the queues, False on timeout.
        With ``timeout_ns=None`` it blocks until woken.
        """
        return self._block(waitqs, timeout_ns)

    def sleep(self, duration_ns: float) -> None:
        """Sleep the current thread for ``duration_ns`` of virtual time."""
        me = self.current_thread()
        me.state = ThreadState.SLEEPING
        self._arm_timer(me, duration_ns)
        self._dispatch(me)
        me.state = ThreadState.RUNNING

    def join(self, thread: SimThread) -> object:
        """Block the current thread until ``thread`` finishes."""
        while thread.alive:
            if thread._joiners is None:
                thread._joiners = WaitQueue(f"join:{thread.name}")
            self.block_on(thread._joiners)
        if thread.failure is not None:
            raise thread.failure
        return thread.result

    def run(self) -> None:
        """Run until every non-daemon thread finishes and daemons quiesce.

        Raises :class:`DeadlockError` if non-daemon threads remain but
        nothing can ever run again — unless a watchdog is armed with
        ``kill=True``, in which case the longest-blocked thread is killed
        (after an ANR report) and the run continues.
        """
        self._drive()

    def run_until_done(self, thread: SimThread) -> object:
        """Run the simulation until ``thread`` completes; return its result."""
        self._drive(until=thread)
        if thread.failure is not None:
            raise thread.failure
        return thread.result

    # -- multi-machine driving ---------------------------------------------
    #
    # A world of several machines is driven round-robin by an outer loop
    # (``repro.cider.system.run_world``): each scheduler drains its own
    # ready work without ever raising DeadlockError — a machine with
    # nothing runnable may simply be waiting for a packet from a peer.
    # Only when *no* machine can run does the world fire the globally
    # nearest timer.

    def run_ready(self) -> bool:
        """Drain the ready queue (and whatever it cascades into) without
        firing timers or declaring deadlock.  Returns True if anything
        ran."""
        return self._drive(drain=True)

    def next_timer_deadline(self) -> Optional[float]:
        """Remaining virtual ns until the earliest live timer (may be
        negative if overdue), or None if no timer could ever fire."""
        for timer in sorted(self._timers):
            if not timer.cancelled and timer.thread.state in _WAITING:
                return timer.deadline_ns - self.clock.now_ns
        return None

    def fire_next_timer(self) -> bool:
        """Jump this machine's clock to its earliest live timer and make
        the waiter READY; False if no timer can fire.  The pick does this
        whenever nothing is ready, except in a drain-only drive; the
        world driver calls it on exactly one machine when every machine
        is blocked."""
        while self._timers:
            timer = heapq.heappop(self._timers)
            thread = timer.thread
            if timer.cancelled or thread.state not in _WAITING:
                continue
            self.clock.jump_to(max(timer.deadline_ns, self.clock.now_ns))
            if thread.wait_channel is not None:
                thread.wait_channel._discard(thread)
            timer.fired = True
            thread.state = ThreadState.READY
            self._ready.append(thread)
            return True
        return False

    # -- watchdog ----------------------------------------------------------

    def set_watchdog(self, budget_ns: float, kill: bool = False) -> None:
        """Arm the virtual-time watchdog: any thread blocked longer than
        ``budget_ns`` is flagged with an ANR-style report; with ``kill``
        it is also killed, turning would-be deadlocks into diagnosable
        failures of a single thread."""
        if budget_ns <= 0:
            raise SchedulerError("watchdog budget must be positive")
        self._watchdog = (budget_ns, kill)

    def _watchdog_scan(self, budget_ns: float, kill: bool) -> None:
        """Strike every app thread already past its budget at the current
        virtual time.  Daemons (system services) legitimately block
        forever waiting for requests, so the watchdog skips them."""
        now = self.clock.now_ns
        for victim in [
            t
            for t in self._threads
            if t.state is ThreadState.BLOCKED
            and not (t.daemon or t.anr_flagged or t.blocked_since_ns is None)
            and now - t.blocked_since_ns >= budget_ns
        ]:
            self._strike(victim, kill)

    def _watchdog_expire(
        self, pending: List[SimThread], watchdog: Optional[Tuple[float, bool]]
    ) -> bool:
        """Nothing can run and no timer is pending: if a kill-mode
        watchdog is armed, fast-forward virtual time to the earliest
        budget expiry among the blocked ``pending`` threads, kill that
        thread and report progress."""
        if watchdog is None or not watchdog[1]:
            return False
        blocked = [
            t
            for t in pending
            if t.state is ThreadState.BLOCKED
            and t.blocked_since_ns is not None
        ]
        if not blocked:
            return False
        victim = min(blocked, key=lambda t: (t.blocked_since_ns, t.sid))
        deadline = victim.blocked_since_ns + watchdog[0]  # type: ignore
        self.clock.jump_to(max(deadline, self.clock.now_ns))
        self._strike(victim, kill=True)
        return True

    def _strike(self, victim: SimThread, kill: bool) -> None:
        """The watchdog's one step: report ``victim`` ANR-style and, with
        ``kill``, tell the kernel (``on_watchdog_kill``) and kill it."""
        victim.anr_flagged = True
        blocked_on = repr(victim.wait_channel)
        blocked_for = self.clock.now_ns - (victim.blocked_since_ns or 0.0)
        self.anr_reports.append(
            {
                "thread": victim.name,
                "sid": victim.sid,
                "blocked_on": blocked_on,
                "blocked_since_ns": victim.blocked_since_ns,
                "blocked_for_ns": blocked_for,
                "killed": kill,
                "dump": self.thread_dump(),
            }
        )
        if self.trace_hook is not None:
            self.trace_hook(
                "watchdog",
                "anr",
                thread=victim.name,
                blocked_on=blocked_on,
                blocked_for_ns=blocked_for,
                killed=kill,
            )
        if kill:
            if self.on_watchdog_kill is not None:
                self.on_watchdog_kill(victim)
            self.kill_thread(victim)

    # -- diagnostics -------------------------------------------------------

    def thread_dump(self) -> str:
        """A per-thread diagnostic dump (name, state, wait channel,
        virtual times) — attached to DeadlockError and ANR reports so a
        fault-run failure is debuggable from the message alone."""
        now = self.clock.now_ns
        lines = []
        for t in self._threads:
            if not t.alive:
                continue
            blocked_for = (
                f" blocked_for={now - t.blocked_since_ns:.0f}ns"
                if t.blocked_since_ns is not None
                else ""
            )
            lines.append(
                f"  sid={t.sid} {t.name!r} state={t.state.value}"
                f"{' daemon' if t.daemon else ''}"
                f" on={t.wait_channel!r}"
                f" last_ran={t.last_ran_ns:.0f}ns{blocked_for}"
            )
        return "\n".join(lines) if lines else "  (no live threads)"

    def kill_thread(self, victim: SimThread) -> None:
        """Force ``victim`` to unwind with ThreadKilled the next time it
        would run.  Callable from any context (unlike shutdown)."""
        if not victim.alive:
            return
        victim._killed = True
        if victim.state in _WAITING:
            if victim.wait_channel is not None:
                victim.wait_channel._discard(victim)
            victim.state = ThreadState.READY
            self._ready.append(victim)
        if victim is self._current:
            raise ThreadKilled(victim.name)

    def shutdown(self) -> None:
        """Kill every remaining simulated thread; each returns its worker
        to the idle list as it unwinds."""
        self._shutdown = True
        for thread in [t for t in self._threads if t.alive]:
            if not thread.alive:
                continue
            thread._killed = True
            # As kill_thread does: block_on has no cleanup on unwind.
            if thread.wait_channel is not None:
                thread.wait_channel._discard(thread)
            # Hand the token directly to the victim; it unwinds via
            # ThreadKilled and hands the token straight back (see
            # _on_thread_exit's shutdown path).
            self._current = thread
            thread._wake()
            self._controller._wait_for_token()
        self._reap()
        self._ready.clear()
        self._timers.clear()

    def reopen(self) -> None:
        """Accept new threads again after :meth:`shutdown`.

        ``shutdown`` leaves the scheduler in a terminal mode where exiting
        threads bypass the normal joiner handoff; a machine reboot tears
        everything down with ``shutdown`` and then calls this before
        spawning the next boot's threads.
        """
        if any(t.alive for t in self._threads):
            raise SchedulerError("reopen with live threads")
        self._shutdown = False

    # -- internals ---------------------------------------------------------

    def _block(self, waitqs, timeout_ns: Optional[float]) -> bool:
        """Park on ``waitqs`` (the first is the wait channel) until woken
        through one of them or, with a timeout, until it fires."""
        me = self.current_thread()
        me.state = ThreadState.BLOCKED
        me.wait_channel = waitqs[0] if waitqs else None
        for waitq in waitqs:
            waitq._add(me)
        timer = None if timeout_ns is None else self._arm_timer(me, timeout_ns)
        try:
            self._dispatch(me)
        finally:
            # Also when a kill unwinds it: no queue may keep a dead thread.
            me.wait_channel = None
            for waitq in waitqs:
                waitq._discard(me)
        me.state = ThreadState.RUNNING
        if timer is None:
            return True
        timer.cancelled = True
        return not timer.fired

    def _arm_timer(self, thread: SimThread, delay_ns: float) -> _Timer:
        self._timer_seq += 1
        timer = _Timer(self.clock.now_ns + delay_ns, self._timer_seq, thread)
        heapq.heappush(self._timers, timer)
        return timer

    def _make_ready(self, thread: SimThread) -> bool:
        if thread.state in _WAITING:
            thread.state = ThreadState.READY
            self._ready.append(thread)
            if self.hb is not None:
                self.hb.on_wake(thread)
            return True
        return False

    def _reap(self) -> None:
        self._threads = [t for t in self._threads if t.alive]

    def _drive(self, until: Optional[SimThread] = None, drain=False) -> bool:
        """The controller's one loop (see the module docstring).  Each
        pass reaps finished threads, lets an armed watchdog strike and
        hands the token to the next pick until it comes back.  Stops when
        ``until`` finishes; with ``drain``, when nothing is ready; else
        when nothing can run and no non-daemon thread is left.  Returns
        True if any thread ran."""
        if self._current is not self._controller:
            raise SchedulerError("scheduler driven from a simulated thread")
        self._draining = drain
        ran = False
        try:
            while until is None or until.alive:
                self._reap()
                watchdog = self._watchdog
                if watchdog is not None:
                    self._watchdog_scan(*watchdog)
                target = self._pick()
                if target is not None:
                    ran = True
                    self.switches += 1
                    self._current = target
                    target._wake()
                    self._controller._wait_for_token()
                    continue
                if drain:
                    break
                if until is None:
                    pending = [t for t in self.live_threads() if not t.daemon]
                    if not pending:
                        break
                    what = "all threads blocked"
                else:
                    pending = [until]
                    what = f"waiting on {until!r} but nothing can run"
                if not self._watchdog_expire(pending, watchdog):
                    raise DeadlockError(
                        f"{what}; thread dump:\n" + self.thread_dump()
                    )
        finally:
            self._draining = False
        return ran

    def _pick(self) -> Optional[SimThread]:
        """Take the thread to hand the token to next: the FIFO head of
        the ready queue, or the policy's choice where more than one
        thread is READY; failing that, unless the drive is drain-only,
        the waiter of the earliest live timer, the clock jumped to its
        deadline.  None if nothing can run."""
        ready = self._ready
        if self._policy is None:
            while ready:
                thread = ready.popleft()
                if thread.state is ThreadState.READY:
                    return thread
        else:
            candidates = [t for t in ready if t.state is ThreadState.READY]
            chosen = candidates[0] if candidates else None
            # A sole candidate consumes no choice point, so a policy run
            # over a single-threaded phase records an empty trace: FIFO.
            if len(candidates) > 1:
                self._choice_seq += 1
                names = tuple(t.name for t in candidates)
                index = self._policy.choose(self._choice_seq, names)
                if 0 <= index < len(candidates):
                    chosen = candidates[index]
            ready.clear()
            if chosen is not None:
                ready.extend(t for t in candidates if t is not chosen)
                return chosen
        if not self._draining and self.fire_next_timer():
            return ready.popleft()
        return None

    def _dispatch(self, from_thread: SimThread) -> None:
        """Give up the token; regain it when rescheduled."""
        from_thread.blocked_since_ns = self.clock.now_ns
        target = self._pick() or self._controller
        if target is not from_thread:  # else the sole runnable thread
            self.switches += 1
            self._current = target
            target._wake()
            from_thread._wait_for_token()
        from_thread.blocked_since_ns = None
        from_thread.last_ran_ns = self.clock.now_ns

    def _on_thread_exit(self, thread: SimThread) -> None:
        """Final act of a dying thread: free its worker, then pass the
        token on without waiting.  The worker is idle before the token
        moves, so whoever runs next can spawn onto it.  The thread stays
        listed until the next drive pass, as the tombstone a snapshot
        keeps; dropping its body and kernel thread now lets its process
        be freed by reference count (DESIGN.md §9, "Lifetimes")."""
        worker = thread._worker
        thread._gate = thread._worker = thread._body = thread.kthread = None
        worker.task = None
        _idle_workers.append(worker)
        target = None
        if not self._shutdown:
            if thread._joiners is not None:
                thread._joiners.wake_all()
            target = self._pick()
        self._current = target or self._controller
        self._current._wake()

    # -- introspection -----------------------------------------------------

    def live_threads(self) -> Iterable[SimThread]:
        return [t for t in self._threads if t.alive]
