"""The kernel object: trap path, boot, signals, and subsystem wiring.

One :class:`Kernel` is booted per :class:`~repro.hw.machine.Machine`.  The
core is personality-agnostic (paper takeaway: the ABI *is* the interface):

* A **vanilla Android** kernel registers only the Linux ABI/persona and
  the ELF loader.
* A **Cider** kernel additionally registers the iOS persona (XNU ABI +
  iOS TLS layout), the Mach-O loader, duct-taped subsystems (Mach IPC,
  psynch, I/O Kit), the signal translator, and the ``set_persona``
  syscall — and pays ``cider_persona_check`` on every syscall entry.
* The **XNU-native** kernel (the iPad mini configuration) registers only
  the iOS persona with untranslated XNU tables and the device's quirks.

That wiring lives in :mod:`repro.cider.system`; this module provides the
mechanisms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..persona import Persona, PersonaRegistry, UnknownPersonaError
from ..sim import WaitQueue
from ..sim.errors import MachinePanic
from ..sim.faults import KIND_DELAY, KIND_ERRNO, KIND_SIGNAL, FaultOutcome
from ..sim.trace import CRASH_CATEGORY
from .crash import CrashReport
from .devices import DeviceManager, EvdevDriver, FramebufferDriver, NullDriver, ZeroDriver
from .errno import EINVAL, EIO, ENOSYS, SyscallError
from .files import (
    DeviceHandle,
    DirectoryHandle,
    O_CREAT,
    O_EXCL,
    RegularHandle,
    fd_alloc,
)
from .loader import BinfmtHandler, LoaderChain, StartRoutine
from .process import KThread, Process, ProcessExited, ProcessManager, UserContext
from .signals import (
    SIG_DFL,
    SIG_IGN,
    SIGKILL,
    SIGSEGV,
    SIGSYS,
    SigAction,
    SigInfo,
    default_is_fatal,
    default_is_ignored,
)
from .vfs import VFS, DeviceNode, Directory, RegularFile

if TYPE_CHECKING:
    from ..hw.machine import Machine


class Kernel:
    """A booted kernel on a machine."""

    def __init__(self, machine: "Machine", name: str = "linux") -> None:
        self.machine = machine
        machine.kernel = self  # type: ignore[attr-defined]
        self.name = name
        self.vfs = VFS(machine)
        self.devices = DeviceManager(machine)
        self.processes = ProcessManager(self)
        self.personas = PersonaRegistry()
        self.loaders = LoaderChain()
        #: True on Cider kernels: persona checking runs on every syscall
        #: entry (the +8.5% null-syscall overhead, paper §6.2).
        self.cider_enabled = False
        #: Duct-taped subsystems attach themselves here, and the linker
        #: that linked them.
        self.ducttape_linker: Optional[object] = None
        self.mach_subsystem: Optional[object] = None
        self.psynch_subsystem: Optional[object] = None
        self.iokit: Optional[object] = None
        #: Installed by repro.compat.signals on Cider/XNU kernels.
        self.signal_translator: Optional[object] = None
        #: The user-space dyld instance on Cider/XNU kernels; the
        #: shared-cache pressure evictor invalidates launch closures
        #: through this handle.
        self.dyld: Optional[object] = None
        #: Tombstones written by crash containment (see :mod:`.crash`).
        self.crash_reports: List[CrashReport] = []
        #: Extra launchd keep-alive jobs (binary path -> bootstrap name)
        #: merged with :data:`repro.ios.services.KEEP_ALIVE_SERVICES` at
        #: launchd boot.  System builders (e.g. the in-sim HTTP origin,
        #: :mod:`repro.net.http`) add entries *before* init runs so the
        #: daemon is spawned and supervised like configd/notifyd.
        self.launchd_extra_services: Dict[str, str] = {}
        #: pid -> callback(level): processes that asked to hear about
        #: memory pressure *before* the kill daemons pick victims (UIKit
        #: registers ``didReceiveMemoryWarning`` delivery here).  Entries
        #: are dropped automatically when their process is finalized.
        self.memory_pressure_listeners: Dict[int, Callable[[str], None]] = {}
        #: Kernel-side cache evictors run by jetsam between the warning
        #: phase and the kill phase (dyld registers shared-cache
        #: eviction).  Each returns the number of bytes it released.
        self.pressure_evictors: List[Callable[[], int]] = []
        #: When True, abnormal process death (escaped SyscallError, Python
        #: oops, fatal signal, watchdog kill) is *contained*: the process
        #: is torn down with a tombstone and the rest of the machine keeps
        #: running.  Default False preserves the historical fail-fast
        #: behaviour that unit tests rely on (``run_program`` raises).
        self.contain_crashes = False
        #: Copy-on-write fork ablation (off by default — the paper's §6.2
        #: fork numbers were measured with eager PTE duplication): fork
        #: charges ``cow_fork_per_page`` instead of ``fork_per_page`` and
        #: each side pays per *touched* page on first write (mm.touch).
        self.cow_fork = False
        # Hot-path engine: the trap path's fixed costs resolved to integer
        # picoseconds once at boot (each component rounded individually,
        # so summed entry+persona-check advances the clock bit-identically
        # to the two historical ``charge`` calls).  ``cider_enabled`` flips
        # after construction (enable_cider), hence both entry variants.
        self._entry_plain_ps = machine.cost_ps("syscall_entry")
        self._entry_cider_ps = self._entry_plain_ps + machine.cost_ps(
            "cider_persona_check"
        )
        self._exit_ps = machine.cost_ps("syscall_exit")
        self._sig_persona_ps = machine.cost_ps("signal_persona_lookup")
        # open(2) and close(2) bodies shared by every ABI, resolved the same way.
        self._open_ps = machine.cost_ps("open_base")
        self._close_ps = machine.cost_ps("close_base")
        self.booted = False

    # -- boot -----------------------------------------------------------------

    def boot(self) -> "Kernel":
        """Mount the root filesystem and register core devices."""
        vfs = self.vfs
        for path in ("/dev", "/dev/input", "/tmp", "/proc", "/data"):
            vfs.makedirs(path)
        self.add_device("zero", ZeroDriver(), "mem")
        self.add_device("null", NullDriver(), "mem")
        fb = FramebufferDriver(self.machine)
        self.add_device("graphics/fb0", fb, "graphics")

        touch_evdev = EvdevDriver(self.machine)
        self.machine.touchscreen.attach_driver(touch_evdev.push_event)
        self.add_device("input/event0", touch_evdev, "input")

        accel_evdev = EvdevDriver(self.machine)
        self.machine.accelerometer.attach_driver(accel_evdev.push_event)
        self.add_device("input/event1", accel_evdev, "input")

        # Watchdog kills land here so the victim's process is tombstoned
        # and torn down rather than leaking half a process.
        self.machine.scheduler.on_watchdog_kill = self._watchdog_victim

        self.booted = True
        return self

    def shutdown(self) -> None:
        """Let go of what this kernel built once its machine powers off or
        reboots, every simulated thread already dead, so all of it is
        freed by reference count (DESIGN.md §9, "Lifetimes").  Only the
        hooks this kernel put on the machine and the cycles among its own
        objects are cut; its crash reports stay readable."""
        machine = self.machine
        machine.touchscreen.attach_driver(None)
        machine.accelerometer.attach_driver(None)
        machine.scheduler.on_watchdog_kill = None
        self.memory_pressure_listeners.clear()
        self.pressure_evictors.clear()
        self.processes.shutdown()
        if self.ducttape_linker is not None:
            self.ducttape_linker.shutdown()

    def add_device(self, name: str, driver: object, dev_class: str = "misc"):
        """Linux ``device_add``: register + /dev node + Cider hooks."""
        parts = name.split("/")
        if len(parts) > 1:
            self.vfs.makedirs("/dev/" + "/".join(parts[:-1]))
        self.vfs.add_device(f"/dev/{name}", driver)
        device = self.devices.device_add(name, driver, dev_class)
        return device

    def register_persona(self, persona: Persona, default: bool = False) -> Persona:
        # Resolve the ABI's per-dispatch cost to integer picoseconds once,
        # so the trap path never does a string cost lookup.
        cost_name = persona.abi.dispatch_cost_name
        persona._dispatch_ps = self.machine.cost_ps(cost_name) if cost_name else 0
        return self.personas.register(persona, default)

    def register_loader(self, handler: BinfmtHandler) -> None:
        self.loaders.register(handler)

    # -- the trap path -------------------------------------------------------------

    def trap(self, thread: KThread, trapno: int, args: tuple) -> object:
        """Syscall entry: the hot path every simulated syscall takes.

        Hardened: a number the persona's ABI does not bind surfaces ENOSYS;
        non-:class:`SyscallError` Python exceptions from a handler are a
        *kernel oops* — the offending process receives a fatal SIGSYS and
        the traceback is preserved in the trace — they never escape as raw
        Python errors.  Control-flow exceptions (thread/process exit,
        kills) derive from BaseException and pass through untouched, as
        does :class:`~repro.ducttape.KernelPanic` (a kernel bug is not a
        process crash).

        Observability: with an observatory installed the whole trap is a
        ``kernel.trap`` span under which persona switches, diplomats,
        VFS lookups, Mach IPC and dyld open child spans; the span is
        closed in a ``finally`` so aborted syscalls (injected faults,
        process death, kernel oopses) can never leak it open.

        The C-library facades call this method directly and the whole
        trap runs in this one frame: with no observatory, no fault plan
        and nothing pending, the path pays ``is None`` tests, and calls
        nothing that does no work.  Its entry, dispatch and exit charges
        and its syscall counter are applied here too, not by calls into
        the clock and the trace (see :class:`~repro.sim.clock.VirtualClock`).
        """
        machine = self.machine
        obs = machine.obs
        span = None
        if obs is not None:
            span = obs.enter_span(
                "kernel.trap", thread.persona.abi.name, {"nr": trapno}
            )
        try:
            if machine.crashed:
                # The machine is down: there is no kernel to trap into.
                # Every still-running simulated thread unwinds here;
                # recovery is System.reboot().
                raise MachinePanic(machine.panic_reason or "machine has crashed")
            # Each fixed charge is VirtualClock.charge_ps's body, run in
            # this frame (see VirtualClock).
            clock = machine.clock
            # Entry (+ the extra persona checking and handling code Cider
            # runs on every entry) in one pre-summed, pre-rounded charge.
            ps = self._entry_cider_ps if self.cider_enabled else self._entry_plain_ps
            clock._now_ps += ps
            clock._charged_ps += ps
            if clock.profiler is not None:
                clock.profiler.on_charge(ps)
            persona = thread.persona
            abi = persona.abi
            process = thread.process
            trace = machine.trace
            if trace._enabled:
                trace.emit(clock.now_ns, "syscall", abi.name, nr=trapno)
            else:
                # What emit counts, with the persona's cached key tuple:
                # the untraced path allocates nothing.
                counters = trace._counters
                key = persona._trace_key
                counters[key] = counters.get(key, 0) + 1
            injected = None
            if machine.faults is not None:
                injected = self.apply_fault_errno(
                    process,
                    machine.faults.check(
                        "syscall.enter", nr=trapno, abi=abi.name, pid=process.pid
                    ),
                )
            if injected is not None:
                # Faulted at entry: no dispatch and no syscall.exit check.
                result = abi.failure(injected)
            else:
                try:
                    # The dispatch cost is paid on a miss too (XNU's
                    # translation runs before the table says ENOSYS).
                    ps = persona._dispatch_ps
                    if ps:
                        clock._now_ps += ps
                        clock._charged_ps += ps
                        if clock.profiler is not None:
                            clock.profiler.on_charge(ps)
                    handler = abi.handlers.get(trapno)
                    if handler is None:
                        raise SyscallError(ENOSYS, f"{abi.name}[{trapno}]")
                    result = abi.success(handler(self, thread, *args))
                except SyscallError as error:
                    result = abi.failure(error.errno)
                except Exception as error:  # noqa: BLE001 -- oops containment
                    result = self._trap_oops(thread, abi, trapno, error)
                if machine.faults is not None:
                    injected = self.apply_fault_errno(
                        process,
                        machine.faults.check(
                            "syscall.exit", nr=trapno, abi=abi.name, pid=process.pid
                        ),
                    )
                    if injected is not None:
                        result = abi.failure(injected)
            ps = self._exit_ps
            clock._now_ps += ps
            clock._charged_ps += ps
            if clock.profiler is not None:
                clock.profiler.on_charge(ps)
            # Exit work only when there is some: a queued signal, or a
            # process that is dying or no longer running (Process.alive).
            if thread.pending.queue:
                self.deliver_pending_signals(thread)
            if process.dying is not None or process.state != "running":
                self._check_dying(thread)
            return result
        finally:
            if span is not None:
                obs.exit_span(span)

    def apply_fault_errno(
        self, process: Process, outcome: Optional[FaultOutcome]
    ) -> Optional[int]:
        """Interpret a :class:`FaultOutcome` at an errno-style injection
        point.  Returns an errno to surface, or None to continue normally
        (delays charge virtual time; signals are posted asynchronously;
        Mach kern codes degrade to EIO outside the Mach layer)."""
        if outcome is None:
            return None
        if outcome.kind == KIND_ERRNO:
            return int(outcome.value)  # type: ignore[call-overload]
        if outcome.kind == KIND_DELAY:
            self.machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
            return None
        if outcome.kind == KIND_SIGNAL:
            self.send_signal_to_process(process, int(outcome.value))  # type: ignore[call-overload]
            return None
        return EIO

    def _trap_oops(
        self, thread: KThread, abi: object, trapno: int, error: Exception
    ) -> object:
        """A syscall handler raised a non-SyscallError Python exception.

        This is a simulated-kernel bug from the process's point of view:
        tombstone the process with SIGSYS (traceback preserved), never let
        the raw exception climb out of the trap.  KernelPanic is exempt —
        it means the *machine* is toast and must propagate.
        """
        from ..ducttape.adapters import KernelPanic

        if isinstance(error, KernelPanic):
            raise error
        import traceback as _traceback

        tb = _traceback.format_exc()
        process = thread.process
        self.report_crash(
            process,
            SIGSYS,
            f"kernel oops in syscall {trapno}: {type(error).__name__}: {error}",
            syscall=str(trapno),
            traceback=tb,
        )
        self._fatal_signal(process, SIGSYS)
        # Only reached when the oops hit a *different* process's syscall
        # context (never in practice) — surface ENOSYS defensively.
        return abi.failure(ENOSYS)  # type: ignore[attr-defined]

    # -- crash containment -------------------------------------------------------

    def report_crash(
        self,
        process: Process,
        signum: int,
        reason: str,
        syscall: Optional[str] = None,
        traceback: Optional[str] = None,
        **detail: object,
    ) -> CrashReport:
        """Write a tombstone and emit one ``crash`` trace event."""
        try:
            persona = process.main_thread().persona.name
        except Exception:  # pragma: no cover - threadless corpse
            persona = "?"
        report = CrashReport(
            timestamp_ns=self.machine.now_ns,
            pid=process.pid,
            name=process.name,
            persona=persona,
            signum=signum,
            reason=reason,
            syscall=syscall,
            traceback=traceback,
            detail=dict(detail),
        )
        self.crash_reports.append(report)
        self.machine.trace.emit(
            self.machine.now_ns,
            CRASH_CATEGORY,
            "tombstone",
            pid=process.pid,
            comm=process.name,
            signum=signum,
            reason=reason,
            **detail,
        )
        return report

    def report_machine_panic(
        self, reason: str, power_loss: bool = False
    ) -> CrashReport:
        """The kernel tombstone for a whole-machine crash (pid 0).

        Written by :meth:`repro.hw.machine.Machine.panic` before the
        MachinePanic unwind begins, so the tombstone timestamps the exact
        virtual instant the machine died.
        """
        detail: Dict[str, object] = {"power_loss": power_loss}
        # Flush the flight recorder into the tombstone — and, when a WAL
        # device is present, into its pstore region, which survives even
        # the power cut that just destroyed the volatile journal tail.
        recorder = self.machine.flightrec
        if recorder is not None:
            tail = recorder.flush(reason)
            detail["flightrec_events"] = len(tail)
            journal = self.machine.storage.journal
            if journal is not None:
                journal.pstore = list(tail)
        report = CrashReport(
            timestamp_ns=self.machine.now_ns,
            pid=0,
            name="kernel",
            persona=self.name,
            signum=0,
            reason=reason,
            detail=detail,
        )
        self.crash_reports.append(report)
        self.machine.trace.emit(
            self.machine.now_ns,
            CRASH_CATEGORY,
            "panic",
            pid=0,
            comm="kernel",
            reason=reason,
            power_loss=power_loss,
        )
        return report

    def _watchdog_victim(self, sim_thread: object) -> None:
        """Scheduler watchdog decided to kill ``sim_thread``: tombstone and
        tear down the owning process (ANR-style)."""
        kthread = sim_thread.kthread
        if kthread is None:
            return
        process = kthread.process
        if not process.alive:
            return
        self.report_crash(
            process,
            SIGKILL,
            "watchdog: thread blocked past ANR budget",
            blocked_on=repr(getattr(sim_thread, "wait_channel", None)),
        )
        process.dying = SIGKILL
        self.processes.finalize_process(process, 128 + SIGKILL)

    def _check_dying(self, thread: KThread) -> None:
        process = thread.process
        if process.dying is not None:
            raise ProcessExited(128 + process.dying)
        if not process.alive:
            raise ProcessExited(process.exit_code or 0)

    # -- blocking with signal/death checks ----------------------------------------

    def wait_interruptible(self, waitq: WaitQueue) -> None:
        """Block on ``waitq``; on wake, deliver signals / honour death."""
        self.machine.scheduler.block_on(waitq)
        thread = self.current_kthread_or_none()
        if thread is not None:
            self.check_interrupted(thread)

    def check_interrupted(self, thread: KThread) -> None:
        self.deliver_pending_signals(thread)
        self._check_dying(thread)

    def current_kthread_or_none(self) -> Optional[KThread]:
        scheduler = self.machine.scheduler
        if not scheduler.in_sim_thread():
            return None
        return scheduler.current_thread().kthread

    # -- persona switching ------------------------------------------------------------

    def do_set_persona(self, thread: KThread, persona_name: str) -> int:
        """The set_persona syscall body (available from all personas)."""
        if not self.cider_enabled:
            raise SyscallError(ENOSYS, "set_persona on non-Cider kernel")
        try:
            persona = self.personas.get(persona_name)
        except UnknownPersonaError:
            raise SyscallError(EINVAL, persona_name) from None
        previous = thread.persona
        with self.machine.span(
            "persona.switch", f"{previous.name}->{persona.name}"
        ):
            self.machine.charge("set_persona")
            thread.persona = persona
            thread.tls(persona)  # materialise the TLS area pointer swap
        self.machine.emit(
            "persona", "switch", frm=previous.name, to=persona.name
        )
        return 0

    # -- signals -----------------------------------------------------------------------

    def send_signal_to_process(
        self, process: Process, signum: int, sender_pid: int = 0
    ) -> None:
        """Generate a (Linux-numbered) signal for ``process``."""
        if not process.alive:
            return
        if self.cider_enabled:
            # Determining the persona of the target thread (paper: +3%
            # on the signal benchmark even for Linux binaries) — cost
            # pre-resolved to integer picoseconds at boot.
            self.machine.clock.charge_ps(self._sig_persona_ps)
        action = process.signals.action_for(signum)
        handler = action.handler
        if signum == SIGKILL:
            handler = SIG_DFL
        if handler == SIG_IGN:
            return
        if handler == SIG_DFL:
            if default_is_ignored(signum):
                return
            if default_is_fatal(signum):
                self._fatal_signal(process, signum)
            return
        info = SigInfo(signum, sender_pid)
        obs = self.machine.obs
        if obs is not None and obs.causal is not None:
            info.causal = obs.causal.carrier()
        hb = self.machine.hb
        if hb is not None:
            # send→deliver edge, carried on the siginfo itself so even a
            # delivery deferred past the wakeup stays ordered.
            hb.release(info, "signal")
        target = process.main_thread()
        current = self.current_kthread_or_none()
        if current is target:
            self._deliver_one(target, info, action)
        else:
            target.pending.push(info)
            if target.sim_thread is not None:
                # Kick the target out of interruptible sleeps.
                sim = target.sim_thread
                if sim.wait_channel is not None:
                    sim.wait_channel._discard(sim)
                self.machine.scheduler._make_ready(sim)

    def _fatal_signal(self, process: Process, signum: int) -> None:
        current = self.current_kthread_or_none()
        if current is not None and current.process is process:
            process.dying = signum
            self.processes.do_exit(current, 128 + signum)
        else:
            process.dying = signum
            self.processes.finalize_process(process, 128 + signum)

    def deliver_pending_signals(self, thread: KThread) -> None:
        while thread.pending:
            info = thread.pending.pop()
            action = thread.process.signals.action_for(info.signum)
            if callable(action.handler):
                self._deliver_one(thread, info, action)

    def _deliver_one(
        self, thread: KThread, info: SigInfo, action: SigAction
    ) -> None:
        """Push a signal frame and run the user handler."""
        machine = self.machine
        obs = machine.obs
        if obs is None:
            self._deliver_one_body(thread, info, action)
            return
        # Land the sender's causal context first so the deliver span (and
        # everything the handler does) parents under the sending trace.
        if obs.causal is not None and info.causal is not None:
            obs.causal.adopt(info.causal)
        span = obs.enter_span(
            "kernel.signal.deliver", str(info.signum), None
        )
        try:
            self._deliver_one_body(thread, info, action)
        finally:
            obs.exit_span(span)

    def _deliver_one_body(
        self, thread: KThread, info: SigInfo, action: SigAction
    ) -> None:
        machine = self.machine
        machine.charge("signal_deliver")
        if machine.hb is not None:
            machine.hb.acquire(info)
        signum_user = info.signum
        if self.signal_translator is not None:
            signum_user = self.signal_translator.prepare_delivery(
                self, thread, info
            )
        machine.emit(
            "signal", "deliver", signum=info.signum, persona=thread.persona.name
        )
        ctx = UserContext(self, thread)
        try:
            action.handler(ctx, signum_user, info)
        except SyscallError:
            raise  # handlers may trap; the errno surfaces normally
        except Exception:  # noqa: BLE001 -- a crash *in* the handler
            import traceback as _traceback

            self.report_crash(
                thread.process,
                SIGSEGV,
                f"exception in signal handler for signal {info.signum}",
                traceback=_traceback.format_exc(),
            )
            self._fatal_signal(thread.process, SIGSEGV)
        finally:
            ctx._libc = None  # the facade points back at ctx

    # -- file opening ------------------------------------------------------------------

    def open_path(self, process: Process, path: str, flags: int = 0) -> int:
        """open(2) body shared by every ABI."""
        machine = self.machine
        machine.clock.charge_ps(self._open_ps)
        if machine.faults is not None:
            outcome = machine.faults.check(
                "vfs.open", path=path, pid=process.pid, flags=flags
            )
            injected = self.apply_fault_errno(process, outcome)
            if injected is not None:
                raise SyscallError(injected, f"fault injected: open {path!r}")
        vfs = self.vfs
        try:
            node = vfs.resolve(path, process.cwd)
            if flags & O_CREAT and flags & O_EXCL:
                from .errno import EEXIST

                raise SyscallError(EEXIST, f"O_EXCL: {path} exists")
        except SyscallError as error:
            if not flags & O_CREAT:
                raise
            node = vfs.create_file(path, cwd=process.cwd)
        if isinstance(node, Directory):
            handle = DirectoryHandle(machine, node)
        elif isinstance(node, DeviceNode):
            handle = DeviceHandle(machine, node.driver, flags)
        elif isinstance(node, RegularFile):
            handle = RegularHandle(machine, node, flags)
        else:
            raise SyscallError(EINVAL, f"unopenable node {node.kind}")
        return fd_alloc(process, handle)

    # -- exec ---------------------------------------------------------------------------

    def exec_image(
        self,
        process: Process,
        thread: KThread,
        file: RegularFile,
        argv: List[str],
    ) -> StartRoutine:
        """Probe binfmt handlers and load the image."""
        image = file.binary_image
        if image is None:
            raise SyscallError(ENOSYS, "not a binary")
        handler = self.loaders.find(image)
        return handler.load(self, process, thread, image, argv)

    # -- convenience -------------------------------------------------------------------

    def start_process(
        self,
        path: str,
        argv: Optional[List[str]] = None,
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> Process:
        return self.processes.start_process(path, argv, name, daemon=daemon)

    def spawn_kernel_daemon(
        self, body: Callable[[], object], name: str
    ) -> object:
        """A kernel-level service thread (no process context)."""
        return self.machine.spawn(body, name=f"k:{name}", daemon=True)

    def start_pressure_daemons(self) -> tuple:
        """Spawn jetsam + lowmemorykiller (see :mod:`.pressure`).

        Requires an installed resource envelope; both daemons sleep until
        the envelope reports pressure, so the zero-pressure fast path
        never runs them."""
        from .pressure import start_pressure_daemons

        return start_pressure_daemons(self)

    def run(self) -> None:
        self.machine.run()

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r} cider={self.cider_enabled}>"
