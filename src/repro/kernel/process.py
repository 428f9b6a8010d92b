"""Processes, kernel threads, and user execution contexts.

The simulated analogue of ``task_struct``:

* :class:`Process` — pid, address space, descriptor table, signal state,
  loaded binaries/libraries and their per-process state.
* :class:`KThread` — a kernel thread; carries the Cider *persona* (kernel
  ABI + TLS area pointers, one TLS area per persona it has executed in).
* :class:`UserContext` — what simulated "machine code" receives: its only
  window onto the system.  User code charges CPU work through it and
  reaches the kernel exclusively via its persona's syscall ABI.

Fork note: Python cannot clone a live stack, so ``fork`` takes the child's
continuation as a callable (the libc wrappers expose this as
``fork(child_body)``).  Everything else — address-space duplication cost,
descriptor sharing, persona inheritance, atfork/atexit behaviour — follows
the real semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..sim import WaitQueue
from ..sim.resources import RLIMIT_NPROC, Rlimits
from ..persona import Persona, TLSArea
from .errno import EAGAIN, ECHILD, ENOEXEC, ESRCH, SyscallError
from .files import FDTable
from .mm import AddressSpace
from .signals import SIGABRT, SIGSEGV, SigInfo, SignalState, PendingSignals

if TYPE_CHECKING:
    from ..binfmt import BinaryImage
    from ..hw.machine import Machine
    from .kernel import Kernel
    from .vfs import Directory, RegularFile


class ProcessExited(BaseException):
    """Control-flow unwind for exit/exec; carries the exit code."""

    def __init__(self, code: int) -> None:
        super().__init__(f"exit({code})")
        self.code = code


class ThreadExited(BaseException):
    """Control-flow unwind for a single thread's exit (pthread_exit)."""

    def __init__(self, value: object = None) -> None:
        super().__init__("thread exit")
        self.value = value


def _fork_copy_value(value: object) -> object:
    if hasattr(value, "fork_copy"):
        return value.fork_copy()  # type: ignore[union-attr]
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, set):
        return set(value)
    return value


class Process:
    """One simulated process."""

    def __init__(
        self, kernel: "Kernel", pid: int, ppid: int, name: str
    ) -> None:
        self.kernel = kernel
        self.pid = pid
        self.ppid = ppid
        self.name = name
        self.address_space = AddressSpace(kernel.machine)
        self.fd_table = FDTable()
        self.cwd: Optional["Directory"] = None
        self.signals = SignalState()
        self.threads: List[KThread] = []
        self.children: List[Process] = []
        self.state = "running"  # running | zombie | dead
        self.exit_code: Optional[int] = None
        self.child_exit_waitq = WaitQueue(f"wait:{pid}")
        self.binary: Optional["BinaryImage"] = None
        self.argv: List[str] = []
        self.loaded_libraries: Dict[str, "BinaryImage"] = {}
        self.lib_state: Dict[str, Dict[str, object]] = {}
        self.libc_factory: Optional[Callable[["UserContext"], object]] = None
        self.dying: Optional[int] = None  # fatal signal in flight
        self.mach_task: Optional[object] = None  # set by duct-taped Mach IPC
        #: POSIX resource limits (RLIMIT_AS / RLIMIT_NOFILE / RLIMIT_NPROC),
        #: inherited across fork/spawn via the getrlimit/setrlimit traps.
        self.rlimits = Rlimits()
        #: XNU jetsam priority band (higher = more important; processes in
        #: the SYSTEM band are never killed).  See repro.kernel.pressure.
        self.jetsam_priority = 3  # JETSAM_PRIORITY_DEFAULT
        #: Android lowmemorykiller badness (higher = killed first;
        #: negative = system, never killed).
        self.oom_adj = 0

    # -- state helpers ----------------------------------------------------------

    def lib_state_for(self, lib_name: str) -> Dict[str, object]:
        return self.lib_state.setdefault(lib_name, {})

    def main_thread(self) -> "KThread":
        return self.threads[0]

    def fork_lib_state(self) -> Dict[str, Dict[str, object]]:
        return {
            lib: {key: _fork_copy_value(val) for key, val in state.items()}
            for lib, state in self.lib_state.items()
        }

    @property
    def alive(self) -> bool:
        return self.state == "running"

    def __repr__(self) -> str:
        return f"<Process pid={self.pid} {self.name!r} {self.state}>"


class KThread:
    """A kernel thread: schedulable entity plus persona state.

    ``__slots__``: one KThread is touched on every trap of every
    simulated syscall (persona load, pending-signal check), and thread
    storms create thousands — keep the layout compact.
    """

    __slots__ = (
        "process",
        "tid",
        "persona",
        "tls_areas",
        "pending",
        "sim_thread",
        "exited",
    )

    def __init__(
        self, process: Process, tid: int, persona: Persona
    ) -> None:
        self.process = process
        self.tid = tid
        self.persona = persona
        self.tls_areas: Dict[str, TLSArea] = {}
        self.pending = PendingSignals()
        self.sim_thread = None  # attached by ProcessManager at spawn
        self.exited = False

    # -- TLS ------------------------------------------------------------------

    def tls(self, persona: Optional[Persona] = None) -> TLSArea:
        """The TLS area for ``persona`` (default: the current one),
        created on first use."""
        target = persona or self.persona
        area = self.tls_areas.get(target.name)
        if area is None:
            area = TLSArea(target.tls_layout)
            area.set("thread_id", self.tid)
            self.tls_areas[target.name] = area
        return area

    @property
    def errno(self) -> int:
        return self.tls().errno

    @errno.setter
    def errno(self, value: int) -> None:
        self.tls().errno = value

    # -- kernel entry ------------------------------------------------------------

    def trap(self, trapno: int, *args: object) -> object:
        """Trap into the kernel under the current persona's ABI.

        The entry for diplomats and tests; the C libraries call
        :meth:`Kernel.trap` directly."""
        return self.process.kernel.trap(self, trapno, args)

    def __repr__(self) -> str:
        return (
            f"<KThread {self.process.pid}:{self.tid} "
            f"persona={self.persona.name}>"
        )


class UserContext:
    """The execution context handed to simulated user code."""

    __slots__ = ("kernel", "thread", "process", "machine", "_libc")

    def __init__(self, kernel: "Kernel", thread: KThread) -> None:
        self.kernel = kernel
        self.thread = thread
        self.process = thread.process
        self.machine: "Machine" = kernel.machine
        self._libc: Optional[object] = None

    @property
    def libc(self) -> object:
        """The C library facade for this process's binary format."""
        if self._libc is None:
            factory = self.process.libc_factory
            if factory is None:
                raise RuntimeError(
                    f"{self.process!r} has no libc (no binary loaded?)"
                )
            self._libc = factory(self)
        return self._libc

    # -- charging CPU work -------------------------------------------------------

    def work(self, ops: float) -> None:
        """Charge ``ops`` generic native operations."""
        self.machine.charge("native_op", ops)

    def op(self, cost_name: str, times: float = 1) -> None:
        """Charge a specific operation, honouring the binary's compiler
        profile (Xcode's integer divide is slower than GCC's)."""
        factor = 1.0
        if self.process.binary is not None:
            factor = self.process.binary.compiler.factor(cost_name)
        self.machine.clock.charge(
            self.machine.costs[cost_name] * times * factor
        )

    # -- library access ------------------------------------------------------------

    def lib_state(self, lib_name: str) -> Dict[str, object]:
        return self.process.lib_state_for(lib_name)

    def dlopen(self, lib_name: str) -> "BinaryImage":
        """Find an already-loaded library image by name."""
        try:
            return self.process.loaded_libraries[lib_name]
        except KeyError:
            raise SyscallError(ENOEXEC, f"dlopen: {lib_name}") from None

    def dlsym(self, lib_name: str, symbol: str) -> Callable:
        """Resolve a function symbol; returns a callable bound to this
        context."""
        image = self.dlopen(lib_name)
        sym = image.lookup(symbol)
        if sym.fn is None:
            raise SyscallError(ENOEXEC, f"{symbol} is not a function")
        fn = sym.fn
        return lambda *args: fn(self, *args)

    def __repr__(self) -> str:
        return f"<UserContext {self.process.name}:{self.thread.tid}>"


class ProcessManager:
    """Process table and lifecycle (fork/exec/exit/wait/spawn)."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.table: Dict[int, Process] = {}
        self._next_pid = 1
        self._next_tid = 1

    # -- allocation ---------------------------------------------------------------

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def create_process(
        self, name: str, ppid: int = 0, persona: Optional[Persona] = None
    ) -> Process:
        process = Process(self.kernel, self._alloc_pid(), ppid, name)
        process.cwd = self.kernel.vfs.root
        self.table[process.pid] = process
        parent = self.table.get(ppid)
        if parent is not None:
            parent.children.append(process)
        thread = KThread(
            process,
            self._alloc_tid(),
            persona or self.kernel.personas.default,
        )
        process.threads.append(thread)
        return process

    def get(self, pid: int) -> Process:
        process = self.table.get(pid)
        if process is None or process.state == "dead":
            raise SyscallError(ESRCH, f"pid {pid}")
        return process

    # -- thread plumbing -----------------------------------------------------------

    def attach_sim_thread(
        self, thread: KThread, body: Callable[[], object], daemon: bool = False
    ) -> None:
        process = thread.process

        def runner() -> object:
            kernel = self.kernel
            try:
                return body()
            except ProcessExited as exited:
                return exited.code
            except ThreadExited as texit:
                return texit.value
            except SyscallError as error:
                # A simulated errno escaped every userspace handler: the
                # program aborted.  Tombstone it; with containment on, the
                # rest of the machine keeps running (the parent still gets
                # SIGCHLD and a wait status), otherwise fail fast so the
                # test harness sees the error.
                kernel.report_crash(
                    process,
                    SIGABRT,
                    f"uncaught syscall error: {error}",
                )
                self.finalize_process(process, 128 + SIGABRT)
                if kernel.contain_crashes:
                    return 128 + SIGABRT
                raise
            except Exception:
                # The simulated program crashed (a bug in user code).
                # Finalize the process so waiting parents are not stranded;
                # containment converts the crash into a tombstone + exit
                # code 139, fail-fast surfaces it to whoever joins.
                import traceback as _traceback

                kernel.report_crash(
                    process,
                    SIGSEGV,
                    "unhandled exception in simulated user code",
                    traceback=_traceback.format_exc(),
                )
                self.finalize_process(process, 139)
                if kernel.contain_crashes:
                    return 139
                raise

        sim = self.kernel.machine.scheduler.spawn(
            runner, name=f"{process.name}:{thread.tid}", daemon=daemon
        )
        sim.kthread = thread  # type: ignore[attr-defined]
        thread.sim_thread = sim

    def current_kthread(self) -> KThread:
        sim = self.kernel.machine.scheduler.current_thread()
        kthread = getattr(sim, "kthread", None)
        if kthread is None:
            raise RuntimeError("current sim thread has no kernel thread")
        return kthread

    def spawn_kthread(
        self,
        process: Process,
        body: Callable[[UserContext], object],
        name: str = "thread",
        persona: Optional[Persona] = None,
        daemon: Optional[bool] = None,
    ) -> KThread:
        """clone()-level thread creation within an existing process."""
        self.kernel.machine.charge("thread_create")
        if daemon is None:
            # Threads inherit their process's daemon-ness: a service
            # app's worker threads must not pin the simulation alive.
            sims = [t.sim_thread for t in process.threads if t.sim_thread]
            daemon = bool(sims and sims[0].daemon)
        thread = KThread(
            process, self._alloc_tid(), persona or process.main_thread().persona
        )
        process.threads.append(thread)
        ctx = UserContext(self.kernel, thread)

        def thread_body() -> object:
            try:
                return body(ctx)
            finally:
                thread.exited = True
                if thread in process.threads:
                    process.threads.remove(thread)

        self.attach_sim_thread(thread, thread_body, daemon=daemon)
        return thread

    # -- program startup --------------------------------------------------------------

    def start_process(
        self,
        path: str,
        argv: Optional[List[str]] = None,
        name: Optional[str] = None,
        ppid: int = 0,
        daemon: bool = False,
    ) -> Process:
        """Kernel/system-level process launch: create a process whose main
        thread execs ``path``."""
        argv = list(argv or [path])
        process = self.create_process(name or path.rsplit("/", 1)[-1], ppid)
        thread = process.main_thread()

        def body() -> object:
            code = self._exec_and_run(thread, path, argv)
            raise ProcessExited(code)

        self.attach_sim_thread(thread, body, daemon=daemon)
        return process

    def _exec_and_run(
        self, thread: KThread, path: str, argv: List[str]
    ) -> int:
        """Load ``path`` into ``thread``'s process and run it to completion.
        Returns the exit code (does not finalize)."""
        process = thread.process
        file = self._resolve_executable(path, process)
        self.kernel.machine.charge("exec_base")
        process.address_space.unmap_all()
        process.signals.exec_reset()
        process.lib_state.clear()
        process.loaded_libraries.clear()
        process.name = path.rsplit("/", 1)[-1]
        process.argv = argv
        start = self.kernel.exec_image(process, thread, file, argv)
        ctx = UserContext(self.kernel, thread)
        result = start(ctx)
        code = result if isinstance(result, int) else 0
        self.finalize_process(process, code)
        return code

    def _resolve_executable(self, path: str, process: Process) -> "RegularFile":
        from .vfs import RegularFile  # local import to avoid cycle

        node = self.kernel.vfs.resolve(path, process.cwd)
        if not isinstance(node, RegularFile) or node.binary_image is None:
            raise SyscallError(ENOEXEC, path)
        return node

    # -- fork / exec / spawn --------------------------------------------------------

    def do_fork(
        self, thread: KThread, child_body: Callable[[UserContext], object]
    ) -> int:
        """fork(2).  The child runs ``child_body`` (Python cannot clone a
        stack); kernel-side costs are fully modelled."""
        kernel = self.kernel
        machine = kernel.machine
        parent = thread.process

        self._check_nproc(parent)
        cow = kernel.cow_fork
        machine.charge("fork_base")
        pages = parent.address_space.copied_on_fork_pages
        if pages:
            # COW fork only marks the PTEs read-only instead of copying
            # them — the per-page cost drops; the copy is paid lazily by
            # mm.touch on first write.
            machine.charge(
                "cow_fork_per_page" if cow else "fork_per_page", pages
            )
        if kernel.mach_subsystem is not None:
            machine.charge("mach_fork_init")
        machine.emit(
            "process", "fork", parent=parent.pid, pages=pages, cow=cow
        )

        child = Process(kernel, self._alloc_pid(), parent.pid, parent.name)
        child.address_space = parent.address_space.fork_copy(cow=cow)
        child.fd_table = parent.fd_table.fork_copy()
        child.cwd = parent.cwd
        child.signals = parent.signals.fork_copy()
        child.binary = parent.binary
        child.argv = list(parent.argv)
        child.loaded_libraries = dict(parent.loaded_libraries)
        child.lib_state = parent.fork_lib_state()
        child.libc_factory = parent.libc_factory
        child.rlimits = parent.rlimits.fork_copy()
        child.jetsam_priority = parent.jetsam_priority
        child.oom_adj = parent.oom_adj
        self.table[child.pid] = child
        parent.children.append(child)

        child_thread = KThread(child, self._alloc_tid(), thread.persona)
        child_thread.tls_areas = {
            name: area.fork_copy() for name, area in thread.tls_areas.items()
        }
        child_thread.tls().set("thread_id", child_thread.tid)
        child.threads.append(child_thread)
        ctx = UserContext(kernel, child_thread)

        def body() -> object:
            result = child_body(ctx)
            code = result if isinstance(result, int) else 0
            # Returning from the forked continuation flows through the C
            # library's exit path, so registered atexit handlers run —
            # on iOS that is one dyld-registered callback per loaded
            # image (paper §6.2: "execution of 115 handlers on exit").
            exit_fn = getattr(ctx.libc, "exit", None)
            if exit_fn is not None and child.libc_factory is not None:
                exit_fn(code)  # raises ProcessExited via the exit trap
            self.finalize_process(child, code)
            return code

        # Daemon-ness is inherited, exactly as in do_posix_spawn: a
        # service supervisor forking its workload must not keep the
        # simulation from quiescing once everything else is done.
        parent_sim = thread.sim_thread
        daemon = bool(parent_sim is not None and parent_sim.daemon)
        self.attach_sim_thread(child_thread, body, daemon=daemon)
        self._inherit_causal(parent_sim, child_thread.sim_thread)
        return child.pid

    def _inherit_causal(self, parent_sim, child_sim) -> None:
        """fork/posix_spawn: the child joins the parent's causal trace."""
        obs = self.kernel.machine.obs
        if obs is not None and obs.causal is not None and parent_sim is not None:
            obs.causal.inherit(parent_sim, child_sim)

    def do_exec(self, thread: KThread, path: str, argv: List[str]) -> "NoReturn":  # type: ignore[name-defined]
        """execve(2): replace the image; never returns to the caller."""
        code = self._exec_and_run(thread, path, argv)
        raise ProcessExited(code)

    def do_posix_spawn(
        self, thread: KThread, path: str, argv: Optional[List[str]] = None
    ) -> int:
        """posix_spawn: built from clone+exec (paper §4.1) — a fresh child
        that immediately execs, without copying the parent's image."""
        kernel = self.kernel
        parent = thread.process
        self._check_nproc(parent)
        kernel.machine.charge("fork_base")  # the clone part (no page copy)
        child = self.create_process(
            path.rsplit("/", 1)[-1], ppid=parent.pid, persona=thread.persona
        )
        child.fd_table = parent.fd_table.fork_copy()
        child.cwd = parent.cwd
        child.rlimits = parent.rlimits.fork_copy()
        child.jetsam_priority = parent.jetsam_priority
        child.oom_adj = parent.oom_adj
        child_thread = child.main_thread()
        argv_list = list(argv or [path])

        def body() -> object:
            code = self._exec_and_run(child_thread, path, argv_list)
            raise ProcessExited(code)

        # Daemon-ness is inherited: services spawned by launchd must not
        # keep the simulation from quiescing.
        parent_sim = thread.sim_thread
        daemon = bool(parent_sim is not None and parent_sim.daemon)
        self.attach_sim_thread(child_thread, body, daemon=daemon)
        self._inherit_causal(parent_sim, child_thread.sim_thread)
        return child.pid

    def _check_nproc(self, parent: Process) -> None:
        """RLIMIT_NPROC: forks/spawns fail with EAGAIN once the live
        process count reaches the limit (no-cost when unlimited)."""
        limit = parent.rlimits.soft(RLIMIT_NPROC)
        if limit is not None and len(self.live_processes()) >= limit:
            raise SyscallError(
                EAGAIN, f"RLIMIT_NPROC: {limit} processes already live"
            )

    # -- exit / wait --------------------------------------------------------------

    def finalize_process(self, process: Process, code: int) -> None:
        """Turn the process into a zombie and notify the parent."""
        if process.state != "running":
            return
        self.kernel.machine.charge("exit_base")
        process.state = "zombie"
        process.exit_code = code
        process.fd_table.close_all()
        process.address_space.unmap_all()
        # Dead processes stop listening for memory-pressure warnings.
        self.kernel.memory_pressure_listeners.pop(process.pid, None)
        # Mach IPC teardown: the task's receive rights die, so peers
        # blocked on its ports observe dead names instead of hanging.
        mach = self.kernel.mach_subsystem
        if mach is not None:
            terminate = getattr(mach, "task_terminate", None)
            if terminate is not None and getattr(
                mach, "space_exists", lambda _t: False
            )(process):
                terminate(process)
        # Kill any remaining sibling threads of the process.
        current_sim = None
        scheduler = self.kernel.machine.scheduler
        if scheduler.in_sim_thread():
            current_sim = scheduler.current_thread()
        for other in list(process.threads):
            if other.sim_thread is not None and other.sim_thread is not current_sim:
                scheduler_kill = getattr(scheduler, "kill_thread", None)
                if scheduler_kill is not None:
                    scheduler_kill(other.sim_thread)
        parent = self.table.get(process.ppid)
        if parent is not None and parent.state == "running":
            parent.child_exit_waitq.wake_all()
            from .signals import SIGCHLD

            self.kernel.send_signal_to_process(parent, SIGCHLD, process.pid)
        self.kernel.machine.emit(
            "process", "exit", pid=process.pid, code=code
        )

    def do_exit(self, thread: KThread, code: int) -> "NoReturn":  # type: ignore[name-defined]
        self.finalize_process(thread.process, code)
        raise ProcessExited(code)

    def do_waitpid(self, thread: KThread, pid: int = -1) -> tuple:
        """waitpid(2): returns (pid, exit_code)."""
        process = thread.process
        self.kernel.machine.charge("wait_base")
        while True:
            candidates = [
                child
                for child in process.children
                if pid in (-1, child.pid)
            ]
            if not candidates:
                raise SyscallError(ECHILD, f"waitpid({pid})")
            for child in candidates:
                if child.state == "zombie":
                    child.state = "dead"
                    process.children.remove(child)
                    del self.table[child.pid]
                    return child.pid, child.exit_code
            self.kernel.wait_interruptible(process.child_exit_waitq)

    def live_processes(self) -> List[Process]:
        return [p for p in self.table.values() if p.state == "running"]
