"""The simulated machine.

A :class:`Machine` bundles the simulation runtime (virtual clock,
deterministic scheduler, trace, cost model) with a set of hardware device
models.  Kernels are booted *on* a machine; everything the kernel and the
simulated user space do charges time through the machine.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Union

from ..obs.observatory import Observatory, _SpanContext
from ..obs.spans import NULL_SPAN, NullSpan
from ..sim import (
    CostModel,
    FaultPlan,
    ResourceEnvelope,
    Scheduler,
    SimThread,
    Stopwatch,
    Trace,
    VirtualClock,
)
from .accelerometer import Accelerometer
from .cpu import CPU
from .display import Display
from .gpu import GPU
from .storage import FlashStorage
from .touchscreen import TouchScreen

#: Machine lifecycle states (see :meth:`Machine.panic` / ``reboot``).
MACHINE_RUNNING = "running"
MACHINE_CRASHED = "crashed"


class Machine:
    """One simulated device (a Nexus 7, an iPad mini, ...)."""

    def __init__(self, profile: "DeviceProfile") -> None:  # noqa: F821
        self.profile = profile
        self.clock = VirtualClock()
        self.scheduler = Scheduler(self.clock)
        self.trace = Trace()
        # Watchdog/ANR events from the scheduler land in the trace.
        self.scheduler.trace_hook = self.emit
        self.costs: CostModel = profile.cost_model
        #: The cost table resolved to integer picoseconds once at boot
        #: (``CostModel`` is immutable).  ``charge``'s ``times == 1`` fast
        #: path — the overwhelming majority of calls — skips the per-call
        #: float multiply and rounding entirely; the bit-identity contract
        #: is ``charge_ps(ns_to_ps(x)) == charge(x)`` (see VirtualClock).
        self._cost_ps = self.costs.compile_ps()
        self.random = random.Random(profile.seed)
        #: Deterministic fault injection: None on the zero-fault fast path
        #: (every injection point pays exactly one boolean test); install
        #: a plan with :meth:`install_fault_plan`.
        self.faults: Optional[FaultPlan] = None
        #: Observability: None on the fast path (every instrumentation
        #: site pays exactly one boolean test, mirroring ``faults``);
        #: install with :meth:`install_observatory`.
        self.obs: Optional[Observatory] = None
        #: Finite resource budget: None on the fast path (fd/mm/vfs
        #: enforcement sites pay exactly one boolean test, mirroring
        #: ``faults`` and ``obs``); install with
        #: :meth:`install_resources`.
        self.resources: Optional[ResourceEnvelope] = None
        #: Happens-before monitor (repro.sim.explore): None on the fast
        #: path (every sync-edge hook pays exactly one boolean test,
        #: mirroring ``faults``/``obs``/``resources``); install with
        #: :meth:`install_hb_monitor`.
        self.hb = None
        #: Virtual netstack (repro.net): built lazily on first use so a
        #: machine that never opens an INET socket charges nothing and
        #: allocates nothing — the same zero-cost-when-off contract as
        #: ``faults``/``obs``/``resources``.
        self._net = None
        #: Override for the netstack's on-link address (set *before* the
        #: first ``net`` access).  Lets a second machine join the same
        #: 10.0.2.0/24 segment with a distinct host IP.
        self.net_host_ip: Optional[str] = None
        #: Flight recorder (repro.obs.flightrec): None on the fast path.
        #: Deliberately NOT cleared by :meth:`reboot` — it models a
        #: pstore/ramoops region whose whole point is surviving a crash.
        self.flightrec = None
        #: Crash state.  ``crashed`` is the hot-path bool (one test at
        #: trap entry); set by :meth:`panic`, cleared by :meth:`reboot`.
        self.crashed = False
        self.state = MACHINE_RUNNING
        self.panic_reason: Optional[str] = None
        #: power_cut statistics from the most recent power-loss panic
        #: (what the recovery log reports as lost vs survived).
        self.power_cut_stats: Optional[dict] = None
        #: Incremented by every :meth:`reboot`; 0 for the first boot.
        self.boot_generation = 0
        #: The last number :meth:`next_id` gave out, per kind of object.
        self._last_ids: Dict[str, int] = {}
        #: The booted kernel and the compositor its userspace runs; both
        #: set at boot and dropped when the machine shuts down or reboots.
        self.kernel = None
        self.surfaceflinger = None

        self.cpu = CPU(profile.cpu_cores, profile.cpu_mhz)
        self.gpu = GPU(self.clock, self.costs, speed_factor=profile.gpu_speed_factor)
        self.display = Display(profile.display_width, profile.display_height)
        self.touchscreen = TouchScreen()
        self.accelerometer = Accelerometer()
        self.storage = FlashStorage(profile.flash_gb)

    # -- time accounting ----------------------------------------------------

    def charge(self, cost_name: str, times: float = 1) -> None:
        """Charge ``times`` occurrences of a named cost to the clock.

        ``times == 1`` (the hot case) uses the precompiled integer-ps
        table — identical advancement to the float path, cheaper.  Any
        other multiplier keeps the historical semantics exactly: one
        rounding of the *product* ``cost * times``.
        """
        if times == 1:
            try:
                ps = self._cost_ps[cost_name]
            except KeyError:
                # Preserve CostModel's UnknownCostError message/semantics.
                self.costs[cost_name]
                raise  # pragma: no cover - costs[...] always raises first
            self.clock.charge_ps(ps)
        else:
            self.clock.charge(self.costs[cost_name] * times)

    def cost_ps(self, cost_name: str) -> int:
        """The precompiled integer-picosecond value of a named cost.

        Subsystems hoist their per-trap costs through this at registration
        time (kernel trap entry/exit, persona checks, ABI dispatch) and
        then charge via ``clock.charge_ps`` with zero per-call lookups.
        """
        try:
            return self._cost_ps[cost_name]
        except KeyError:
            self.costs[cost_name]
            raise  # pragma: no cover - costs[...] always raises first

    def charge_ns(self, ns: float) -> None:
        self.clock.charge(ns)

    def stopwatch(self) -> Stopwatch:
        return Stopwatch(self.clock)

    @property
    def now_ns(self) -> float:
        return self.clock.now_ns

    def next_id(self, kind: str) -> int:
        """Number the objects of one ``kind`` (sockets, surfaces, graphic
        buffers ...) 1, 2, 3 ... on this machine, as pids and thread ids
        are numbered: a run numbers them the same whatever ran before it
        in the process, and a snapshot clone like a fresh boot."""
        last = self._last_ids.get(kind, 0) + 1
        self._last_ids[kind] = last
        return last

    # -- thread helpers -------------------------------------------------------

    def spawn(
        self, body: Callable[[], object], name: str, daemon: bool = False
    ) -> SimThread:
        return self.scheduler.spawn(body, name=name, daemon=daemon)

    def run(self) -> None:
        """Run until all non-daemon simulated threads complete."""
        self.scheduler.run()

    def shutdown(self) -> None:
        """Kill all simulated threads and release their OS threads, then
        let go of the booted software and cut what points back at the
        machine (the scheduler's trace hook, the journal, the netstack,
        the resource envelope), so the machine is freed by reference
        count once its holders drop it.  What callers read afterwards
        stays: the clock, the trace, the observatory, the storage, the
        packet log and the kill log (DESIGN.md §9, "Lifetimes").  A
        shut-down machine does not run or reboot again."""
        self.scheduler.shutdown()
        self._unboot()
        self.scheduler.trace_hook = None
        self.storage.shutdown()
        if self._net is not None:
            self._net.shutdown()
        if self.resources is not None:
            self.resources.detach()

    def _unboot(self) -> None:
        """Drop the kernel and the compositor, each of which lets go of
        what it built (``Kernel.shutdown``, ``SurfaceFlinger.shutdown``)."""
        for software in (self.kernel, self.surfaceflinger):
            if software is not None:
                software.shutdown()
        self.kernel = self.surfaceflinger = None

    # -- crash and reboot ------------------------------------------------------

    def panic(self, reason: str, power_loss: bool = False) -> None:
        """Take the whole machine down.  Never returns.

        Moves the machine to the CRASHED state (every subsequent trap
        raises), writes a kernel tombstone, and — for ``power_loss`` —
        tells the durable storage device the lights went out *now*, so
        dirty pages and uncommitted journal records are (seed-
        deterministically, partially) lost.  A plain panic preserves RAM:
        the reboot path writes surviving caches back before remounting.
        Unwinds via :class:`repro.sim.errors.MachinePanic`.
        """
        from ..sim.errors import MachinePanic

        if not self.crashed:
            self.crashed = True
            self.state = MACHINE_CRASHED
            self.panic_reason = reason
            if power_loss and self.storage.journal is not None:
                self.power_cut_stats = self.storage.journal.power_cut()
            kernel = self.kernel
            if kernel is not None:
                kernel.report_machine_panic(reason, power_loss=power_loss)
            else:
                self.emit("crash", "panic", reason=reason,
                          power_loss=power_loss)
        raise MachinePanic(reason)

    def reboot(self, reason: str = "reboot") -> dict:
        """Power-cycle the machine: kill every simulated thread, drop
        volatile kernel-adjacent state (netstack, fault plan — chaos does
        not survive a power cycle), and leave a clean scheduler ready for
        the next boot's threads.  The caller (``System.reboot``) rebuilds
        the kernel and user space and replays the storage journal; this
        method only models the hardware power cycle.  Virtual time keeps
        running — a reboot takes ``reboot_base`` ns of it.
        """
        info = {
            "generation": self.boot_generation + 1,
            "was_crashed": self.crashed,
            "panic_reason": self.panic_reason,
            "power_cut": self.power_cut_stats,
        }
        self.scheduler.shutdown()
        self._unboot()
        self.scheduler.reopen()
        self._net = None
        self.faults = None
        self.crashed = False
        self.state = MACHINE_RUNNING
        self.panic_reason = None
        self.power_cut_stats = None
        self.boot_generation += 1
        self.charge("reboot_base")
        self.emit(
            "machine", "reboot",
            generation=self.boot_generation, reason=reason,
        )
        return info

    # -- fault injection -------------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> FaultPlan:
        """Attach a seeded :class:`FaultPlan`; injection points consult it
        from now on.  Pass a fresh plan per run — plans carry rule state."""
        plan.attach(self)
        self.faults = plan
        return plan

    def clear_fault_plan(self) -> None:
        self.faults = None

    # -- resource budgets ---------------------------------------------------------

    def install_resources(
        self, envelope: Optional[ResourceEnvelope] = None
    ) -> ResourceEnvelope:
        """Attach a :class:`~repro.sim.resources.ResourceEnvelope`; every
        enforcement site charges it from now on.  With no envelope given,
        budgets come straight from the device profile (the machine's real
        RAM and flash, gralloc carved out as an eighth of RAM — roughly
        the ION carveout on the paper's devices)."""
        if envelope is None:
            envelope = ResourceEnvelope(
                ram_mb=self.profile.ram_mb,
                storage_mb=self.profile.flash_gb * 1024,
                gralloc_mb=max(1, self.profile.ram_mb // 8),
            )
        envelope.attach(self)
        self.resources = envelope
        return envelope

    def clear_resources(self) -> None:
        """Detach the envelope: the fast path is restored exactly."""
        self.resources = None

    # -- happens-before monitoring ------------------------------------------------

    def install_hb_monitor(self, monitor=None):
        """Attach an :class:`~repro.sim.explore.HBMonitor`: the scheduler
        and every kernel synchronization path advance vector clocks from
        now on, and shared-state accesses registered through
        ``machine.hb.access(...)`` are checked for races.  Detectors
        charge no virtual time — they observe the schedule, never steer
        it."""
        if monitor is None:
            from ..sim.explore import HBMonitor

            monitor = HBMonitor(self.scheduler)
        self.hb = monitor
        self.scheduler.hb = monitor
        return monitor

    def clear_hb_monitor(self) -> None:
        """Detach the monitor: the fast path is restored exactly."""
        self.hb = None
        self.scheduler.hb = None

    # -- observability -----------------------------------------------------------

    def install_observatory(
        self, obs: Optional[Observatory] = None
    ) -> Observatory:
        """Attach an :class:`~repro.obs.Observatory`: spans, metrics and
        the virtual-time profiler activate from this point on.  Charges
        made before installation stay unprofiled (the observatory records
        the attach baseline)."""
        obs = obs if obs is not None else Observatory()
        obs.attach(self)
        self.obs = obs
        self.clock.profiler = obs.profiler
        return obs

    def clear_observatory(self) -> None:
        """Detach telemetry: the fast path is restored exactly."""
        self.obs = None
        self.clock.profiler = None

    def count(self, metric: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``metric`` of the installed
        observatory; a no-op when none is installed."""
        obs = self.obs
        if obs is not None:
            obs.metrics.counter(metric).inc(amount)

    def install_causal_tracer(self, node: Optional[str] = None):
        """Attach a :class:`~repro.obs.causal.CausalTracer` to the
        installed observatory (required).  ``node`` names this machine in
        every id the tracer mints — give the two machines of a
        cross-machine run distinct names."""
        from ..obs.causal import CausalTracer

        if self.obs is None:
            raise RuntimeError(
                "install an observatory before the causal tracer"
            )
        tracer = CausalTracer(self, node=node)
        self.obs.causal = tracer
        return tracer

    def install_flight_recorder(self, capacity: Optional[int] = None):
        """Attach a :class:`~repro.obs.flightrec.FlightRecorder` — the
        crash-surviving ring the causal tracer feeds."""
        from ..obs.flightrec import DEFAULT_CAPACITY, FlightRecorder

        recorder = FlightRecorder(
            capacity if capacity is not None else DEFAULT_CAPACITY
        )
        self.flightrec = recorder
        return recorder

    def span(
        self, subsystem: str, name: str = "", **attrs: object
    ) -> Union[_SpanContext, NullSpan]:
        """``with machine.span("ios.dyld", lib): ...`` — a hierarchical
        profiling span, or the shared no-op when observability is off."""
        obs = self.obs
        if obs is None:
            return NULL_SPAN
        return obs.span(subsystem, name, **attrs)

    # -- networking ------------------------------------------------------------

    @property
    def net(self):
        """The machine's virtual netstack, built on first access.

        Workloads that never touch INET sockets never build it, so the
        default-config golden virtual time is untouched by the subsystem's
        existence (asserted by ``tests/integration/test_golden_virtual_time``).
        """
        stack = self._net
        if stack is None:
            from ..net.netstack import DEFAULT_HOST_IP, NetStack

            stack = self._net = NetStack(
                self, host_ip=self.net_host_ip or DEFAULT_HOST_IP
            )
        return stack

    @property
    def net_if_up(self):
        """The netstack if it was ever touched, else ``None`` (no build)."""
        return self._net

    # -- tracing ---------------------------------------------------------------

    def emit(self, category: str, name: str, **detail: object) -> None:
        self.trace.emit(self.clock.now_ns, category, name, **detail)

    def __repr__(self) -> str:
        return f"<Machine {self.profile.name!r} t={self.clock.now_ns:.0f}ns>"


class DeviceProfile:
    """Static description of a device: cost model plus hardware parameters."""

    def __init__(
        self,
        name: str,
        cost_model: CostModel,
        cpu_cores: int,
        cpu_mhz: int,
        ram_mb: int,
        flash_gb: int,
        display_width: int,
        display_height: int,
        gpu_speed_factor: float = 1.0,
        seed: int = 20140301,  # ASPLOS'14 started March 1, 2014
        quirks: Optional[frozenset] = None,
        links: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.cost_model = cost_model
        self.cpu_cores = cpu_cores
        self.cpu_mhz = cpu_mhz
        self.ram_mb = ram_mb
        self.flash_gb = flash_gb
        self.display_width = display_width
        self.display_height = display_height
        self.gpu_speed_factor = gpu_speed_factor
        self.seed = seed
        #: Free-form behavioural quirk tags consulted by kernels
        #: (e.g. "xnu_select_blowup", "dyld_shared_cache").
        self.quirks = quirks or frozenset()
        #: Per-interface :class:`~repro.hw.profiles.LinkProfile` table
        #: ("lo", "wlan0", ...); ``None`` falls back to
        #: :func:`repro.hw.profiles.default_links` when the netstack is
        #: first touched.
        self.links = links

    def has_quirk(self, tag: str) -> bool:
        return tag in self.quirks

    def boot(self) -> Machine:
        return Machine(self)

    def __repr__(self) -> str:
        return f"<DeviceProfile {self.name!r}>"
