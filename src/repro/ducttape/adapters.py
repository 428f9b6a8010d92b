"""The duct-tape adaptation layer.

Implements the XNU kernel API (:class:`repro.xnu.api.XNUKernelAPI`) in
terms of domestic kernel primitives: lck_mtx over wait-queue mutexes,
kalloc over the kernel allocator, thread_block/thread_wakeup over the
scheduler's wait channels, XNU queues over lists.  This is the layer the
paper describes as "simple symbol mapping ... through preprocessor tokens
or small static inline functions in the duct tape zone"; the blocking
primitives are the "more complicated external foreign dependencies" that
need real implementation effort.

Because the adaptation is per-API rather than per-subsystem, one env
serves Mach IPC, pthread support, and I/O Kit alike — "the code adaptation
layer created for one subsystem is directly reusable for other
subsystems" (§4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..kernel.process import KThread
from ..sim import WaitQueue
from ..xnu.api import XNUKernelAPI

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel


class KernelPanic(Exception):
    """The foreign code called panic()."""


class _Mutex:
    """A blocking kernel mutex (Linux-side implementation)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.owner: Optional[object] = None
        self.waitq = WaitQueue(f"mtx:{name}")


class _Allocation:
    __slots__ = ("size", "freed")

    def __init__(self, size: int) -> None:
        self.size = size
        self.freed = False


class _Zone:
    def __init__(self, elem_size: int, name: str) -> None:
        self.elem_size = elem_size
        self.name = name
        self.outstanding = 0


class LinuxDuctTapeEnv(XNUKernelAPI):
    """XNU kernel API implemented over the domestic (Linux) kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._machine = kernel.machine
        self._events: Dict[int, Tuple[object, WaitQueue]] = {}
        #: Registration-order serial for wait-channel names: ``id()``
        #: values vary run to run (and across fork workers), so naming
        #: channels after them would leak address nondeterminism into
        #: thread dumps and ready-set signatures.
        self._event_seq = 0
        self.allocations_live = 0

    def shutdown(self) -> None:
        """The kernel is going down: let go of it (it holds this
        environment through every subsystem linked against it)."""
        self._kernel = None

    # -- locks -----------------------------------------------------------------

    def lck_mtx_alloc(self, name: str = "lck_mtx") -> object:
        return _Mutex(name)

    def lck_mtx_lock(self, mtx: object) -> None:
        assert isinstance(mtx, _Mutex)
        scheduler = self._machine.scheduler
        me = scheduler.current_thread() if scheduler.in_sim_thread() else None
        while mtx.owner is not None and mtx.owner is not me:
            scheduler.block_on(mtx.waitq)
        mtx.owner = me if me is not None else True
        hb = self._machine.hb
        if hb is not None:
            hb.lock_acquire(mtx, f"lck:{mtx.name}")

    def lck_mtx_unlock(self, mtx: object) -> None:
        assert isinstance(mtx, _Mutex)
        hb = self._machine.hb
        if hb is not None:
            hb.lock_release(mtx, f"lck:{mtx.name}")
        mtx.owner = None
        mtx.waitq.wake_one()

    def lck_spin_alloc(self, name: str = "lck_spin") -> object:
        return _Mutex(name)  # one-runs-at-a-time: spinlocks never spin

    def lck_spin_lock(self, spin: object) -> None:
        self.lck_mtx_lock(spin)

    def lck_spin_unlock(self, spin: object) -> None:
        self.lck_mtx_unlock(spin)

    # -- memory --------------------------------------------------------------------

    def kalloc(self, size: int) -> object:
        self.allocations_live += 1
        return _Allocation(size)

    def kfree(self, allocation: object) -> None:
        assert isinstance(allocation, _Allocation) and not allocation.freed
        allocation.freed = True
        self.allocations_live -= 1

    def zinit(self, elem_size: int, name: str) -> object:
        return _Zone(elem_size, name)

    def zalloc(self, zone: object) -> object:
        assert isinstance(zone, _Zone)
        zone.outstanding += 1
        return _Allocation(zone.elem_size)

    def zfree(self, zone: object, element: object) -> None:
        assert isinstance(zone, _Zone)
        zone.outstanding -= 1

    # -- wait / wakeup ---------------------------------------------------------------

    def _waitq_for(self, event: object) -> WaitQueue:
        key = id(event)
        entry = self._events.get(key)
        if entry is None:
            # Name by registration order, never by id(): the serial is
            # identical across runs, hash seeds and fork workers, so a
            # thread dump or ready-set signature mentioning the channel
            # is byte-stable.
            self._event_seq += 1
            entry = (event, WaitQueue(f"xnu-event:{self._event_seq}"))
            self._events[key] = entry
        return entry[1]

    def assert_wait(self, event: object) -> None:
        self._waitq_for(event)  # pre-register the channel

    def thread_block(self, event: object) -> None:
        self._kernel.wait_interruptible(self._waitq_for(event))

    def thread_block_timeout(self, event: object, timeout_ns: float) -> bool:
        return self._kernel.wait_interruptible(self._waitq_for(event), timeout_ns)

    def thread_wakeup(self, event: object) -> None:
        entry = self._events.get(id(event))
        if entry is not None:
            entry[1].wake_all()

    def thread_wakeup_one(self, event: object) -> None:
        entry = self._events.get(id(event))
        if entry is not None:
            entry[1].wake_one()

    def current_thread(self) -> KThread:
        return self._kernel.processes.current_kthread()

    def current_task(self) -> object:
        return self._kernel.processes.current_kthread().process

    # -- queues ---------------------------------------------------------------------------

    def queue_init(self) -> List[object]:
        return []

    def enqueue_tail(self, queue: List[object], element: object) -> None:
        queue.append(element)

    def dequeue_head(self, queue: List[object]) -> Optional[object]:
        if queue:
            return queue.pop(0)
        return None

    def queue_empty(self, queue: List[object]) -> bool:
        return not queue

    # -- diagnostics -----------------------------------------------------------------------

    def panic(self, message: str) -> None:
        raise KernelPanic(message)

    def kprintf(self, message: str) -> None:
        self._machine.emit("xnu", "kprintf", message=message)

    # -- time --------------------------------------------------------------------------------

    def mach_absolute_time(self) -> float:
        return self._machine.now_ns

    def charge(self, cost_name: str, times: float = 1) -> None:
        self._machine.charge(cost_name, times)

    # -- observability -----------------------------------------------------------------------

    def span(self, subsystem: str, name: str = "", **attrs: object):
        """Bind foreign tracepoints to the host machine's observatory."""
        return self._machine.span(subsystem, name, **attrs)

    def metric(self, name: str, amount: int = 1) -> None:
        """Bind foreign ledger counters to the host metrics registry."""
        self._machine.count(name, amount)

    def causal_carrier(self) -> Optional[object]:
        """Bind Mach-message trace headers to the host causal tracer."""
        obs = self._machine.obs
        if obs is None or obs.causal is None:
            return None
        return obs.causal.carrier()

    def causal_adopt(self, carrier: object) -> None:
        obs = self._machine.obs
        if obs is not None and obs.causal is not None:
            obs.causal.adopt(carrier)

    def hb_monitor(self) -> Optional[object]:
        """Bind foreign sync edges to the host happens-before monitor."""
        return self._machine.hb

    # -- resource pressure -------------------------------------------------------------------

    def pressure_level(self) -> str:
        """The host resource envelope's view (``normal`` when absent)."""
        res = self._machine.resources
        return "normal" if res is None else res.pressure_level()

    # -- fault injection ---------------------------------------------------------------------

    @property
    def fault_active(self) -> bool:  # type: ignore[override]
        return self._machine.faults is not None

    def fault(self, point: str, **detail: object) -> Optional[object]:
        """Consult the machine's fault plan.  Delay outcomes are applied
        here (virtual-time stall); signal outcomes are posted to the
        current process; only errno/kern outcomes are returned for the
        foreign code to interpret."""
        plan = self._machine.faults
        if plan is None:
            return None
        outcome = plan.check(point, **detail)
        if outcome is None:
            return None
        from ..sim.faults import KIND_DELAY, KIND_SIGNAL

        if outcome.kind == KIND_DELAY:
            self._machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
            return None
        if outcome.kind == KIND_SIGNAL:
            thread = self._kernel.current_kthread_or_none()
            if thread is not None:
                self._kernel.send_signal_to_process(
                    thread.process, int(outcome.value)  # type: ignore[call-overload]
                )
            return None
        return outcome
