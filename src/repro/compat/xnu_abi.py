"""The XNU kernel ABI, implemented on the domestic kernel.

"iOS apps can trap into the kernel in four different ways depending on
the system call being executed" (paper §4.1) — the four trap classes are
modelled exactly:

* **BSD/unix** syscalls: positive numbers, dispatched through the XNU BSD
  table.  Most are "a simple wrapper that maps arguments from XNU
  structures to Linux structures and then calls the Linux implementation"
  — our wrappers literally call the Linux handler functions.
* **Mach traps**: negative numbers, dispatched into the duct-taped Mach
  IPC / semaphore / I/O Kit subsystems.
* **machdep** traps (0x80000000 | n): TLS register manipulation.
* **diag** traps (0x60000000 | n): kdebug-style diagnostics.

Error convention: "many XNU syscalls return an error indication through
CPU flags where Linux would return a negative integer" — the ABI returns
``(value, carry_flag)`` pairs; libSystem decodes the carry flag.

On a Cider kernel every dispatch charges ``xnu_translate_syscall`` (the
+40% on a null syscall); the XNU-native personality (iPad mini) charges
``xnu_native_trap`` instead and applies the device's select quirk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..kernel import syscalls_linux as linux
from ..kernel.errno import EINVAL, ENOSYS, SyscallError
from ..kernel.select import do_select
from ..kernel.signals import SigAction
from ..persona.abi import DispatchTable, KernelABI

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel
    from ..kernel.process import KThread

# -- XNU BSD syscall numbers --------------------------------------------------------
SYS_exit = 1
SYS_fork = 2
SYS_read = 3
SYS_write = 4
SYS_open = 5
SYS_close = 6
SYS_wait4 = 7
SYS_unlink = 10
SYS_sync = 36
SYS_rename = 128
SYS_fsync = 95
SYS_fdatasync = 187
SYS_execve = 59
SYS_getpid = 20
SYS_recvfrom = 29
SYS_accept = 30
SYS_getsockname = 32
SYS_kill = 37
SYS_getppid = 39
SYS_pipe = 42
SYS_sigaction = 46
SYS_ioctl = 54
SYS_select = 93
SYS_socket = 97
SYS_connect = 98
SYS_bind = 104
SYS_setsockopt = 105
SYS_listen = 106
SYS_getsockopt = 118
SYS_sendto = 133
SYS_shutdown = 134
SYS_socketpair = 135
SYS_mkdir = 136
SYS_rmdir = 137
SYS_getrlimit = 194
SYS_setrlimit = 195
SYS_getdirentries = 196
SYS_lseek = 199
SYS_posix_spawn = 244
SYS_psynch_mutexwait = 301
SYS_psynch_mutexdrop = 302
SYS_psynch_cvbroad = 303
SYS_psynch_cvsignal = 304
SYS_psynch_cvwait = 305
SYS_semwait_signal = 334  # what sleep(3) uses on XNU
SYS_stat64 = 338
SYS_bsdthread_create = 360
SYS_thread_selfid = 372
#: Cider's set_persona is reachable from the iOS persona too (§4.3).
SYS_set_persona = 983045

# -- Mach trap numbers (dispatched as negative numbers) --------------------------------
TRAP_mach_port_allocate = -16
TRAP_mach_port_allocate_set = -17  # simulation: portset allocation trap
TRAP_mach_port_destroy = -18
TRAP_mach_port_deallocate = -19
TRAP_mach_port_move_member = -20
TRAP_mach_port_insert_right = -21
TRAP_mach_reply_port = -26
TRAP_task_self = -28
TRAP_mach_msg = -31
TRAP_semaphore_signal = -33
TRAP_semaphore_signal_all = -34
TRAP_semaphore_wait = -36
TRAP_semaphore_timedwait = -38
TRAP_semaphore_create = -40  # simulation: create/destroy as traps
TRAP_semaphore_destroy = -41
TRAP_swtch_pri = -59
TRAP_task_get_bootstrap_port = -85  # stands in for task_get_special_port MIG
TRAP_host_set_bootstrap_port = -86  # stands in for host_set_special_port MIG
TRAP_iokit_user_client = -100

# mach_msg option bits.
MACH_SEND_MSG = 0x1
MACH_RCV_MSG = 0x2

# -- machdep / diag -------------------------------------------------------------------
MACHDEP_BASE = 0x80000000
MACHDEP_get_cthread_self = MACHDEP_BASE | 0
MACHDEP_set_cthread_self = MACHDEP_BASE | 3

DIAG_BASE = 0x60000000
DIAG_kdebug_trace = DIAG_BASE | 1


class XNUABI(KernelABI):
    """The foreign kernel ABI (translated on Cider, native on the iPad)."""

    def __init__(self, native: bool = False) -> None:
        super().__init__()
        self.native = native
        self.name = "xnu-native" if native else "xnu"
        # Per-dispatch cost, resolved to integer picoseconds once at
        # persona registration: "translating the syscall into the
        # corresponding Linux syscall" (paper §6.2, +40% on a null
        # syscall) on Cider, the native trap cost on the iPad mini.
        self.dispatch_cost_name = (
            "xnu_native_trap" if native else "xnu_translate_syscall"
        )
        # The four trap classes share the ABI's one handler dict; their
        # number ranges are disjoint (BSD positive, Mach negative,
        # machdep/diag in high tagged ranges), and registration checks it.
        self.bsd = DispatchTable("xnu-bsd", self)
        self.mach = DispatchTable("xnu-mach", self)
        self.machdep = DispatchTable("xnu-machdep", self)
        self.diag = DispatchTable("xnu-diag", self)
        _register_bsd(self.bsd, native)
        _register_mach(self.mach)
        _register_machdep(self.machdep)
        _register_diag(self.diag)

    # The four ways into the kernel.
    def classify_trap(self, trapno: int) -> str:
        if trapno < 0:
            return "mach"
        if trapno & MACHDEP_BASE:
            return "machdep"
        if trapno & DIAG_BASE:
            return "diag"
        return "unix"

    # XNU error convention: (value, carry flag).
    def success(self, value: object) -> object:
        return value, False

    def failure(self, errno: int) -> object:
        return errno, True


# -- BSD wrappers: XNU structs in, Linux implementation underneath ---------------------


def _mach(kernel: "Kernel"):
    subsystem = kernel.mach_subsystem
    if subsystem is None:
        raise SyscallError(ENOSYS, "Mach IPC not compiled in")
    return subsystem


def _psynch(kernel: "Kernel"):
    subsystem = kernel.psynch_subsystem
    if subsystem is None:
        raise SyscallError(ENOSYS, "pthread_support not compiled in")
    return subsystem


def _sema(kernel: "Kernel"):
    subsystem = getattr(kernel, "sema_subsystem", None)
    if subsystem is None:
        raise SyscallError(ENOSYS, "sync_sema not compiled in")
    return subsystem


def xnu_sigaction(kernel: "Kernel", thread: "KThread", signum: int, handler):
    """XNU sigaction: numbers arrive in XNU numbering; store the action
    Linux-numbered, tagged with the registering persona."""
    translator = kernel.signal_translator
    linux_signum = translator.to_linux(signum) if translator else signum
    try:
        previous = thread.process.signals.set_action(
            linux_signum, SigAction(handler=handler, persona=thread.persona.name)
        )
    except ValueError as exc:
        raise SyscallError(EINVAL, str(exc)) from None
    return previous.handler


def xnu_kill(kernel: "Kernel", thread: "KThread", pid: int, signum: int):
    """XNU kill: converts the XNU signal into the corresponding Linux
    signal so it can be delivered to any persona (paper §4.1)."""
    translator = kernel.signal_translator
    linux_signum = translator.to_linux(signum) if translator else signum
    return linux.sys_kill(kernel, thread, pid, linux_signum)


def xnu_wait4(kernel: "Kernel", thread: "KThread", pid: int = -1):
    return linux.sys_waitpid(kernel, thread, pid)


def xnu_posix_spawn(
    kernel: "Kernel",
    thread: "KThread",
    path: str,
    argv: Optional[List[str]] = None,
):
    return kernel.processes.do_posix_spawn(thread, path, argv)


def xnu_select_native_quirk(
    kernel: "Kernel",
    thread: "KThread",
    read_fds: List[int],
    write_fds: Optional[List[int]] = None,
    timeout_ns: Optional[float] = 0,
):
    """XNU's select: on real XNU hardware the fd scan degrades sharply and
    the lmbench test 'simply failed to complete for 250 file descriptors'
    (paper §6.2).  The failure threshold is a device quirk flag."""
    nfds = len(read_fds) + len(write_fds or [])
    if kernel.machine.profile.has_quirk("xnu_select_blowup") and nfds >= 250:
        raise SyscallError(EINVAL, "XNU select cannot handle 250 descriptors")
    return do_select(kernel, thread, read_fds, write_fds or [], timeout_ns)


def xnu_bsdthread_create(
    kernel: "Kernel", thread: "KThread", fn: Callable, name: str = "pthread"
):
    new_thread = kernel.processes.spawn_kthread(
        thread.process, fn, name=name, persona=thread.persona
    )
    return new_thread.tid


def xnu_thread_selfid(kernel: "Kernel", thread: "KThread"):
    return thread.tid


def xnu_semwait_signal(kernel: "Kernel", thread: "KThread", duration_ns: float):
    kernel.machine.scheduler.sleep(duration_ns)
    return 0


def xnu_getdirentries(kernel: "Kernel", thread: "KThread", fd: int):
    return linux.sys_getdents(kernel, thread, fd)


def _register_bsd(table: DispatchTable, native: bool) -> None:
    table.register(SYS_exit, "exit", linux.sys_exit)
    table.register(SYS_fork, "fork", linux.sys_fork)
    table.register(SYS_read, "read", linux.sys_read)
    table.register(SYS_write, "write", linux.sys_write)
    table.register(SYS_open, "open", linux.sys_open)
    table.register(SYS_close, "close", linux.sys_close)
    table.register(SYS_wait4, "wait4", xnu_wait4)
    table.register(SYS_unlink, "unlink", linux.sys_unlink)
    # The durable-storage sync family and rename are persona-agnostic VFS
    # work: one shared kernel implementation, two trap numbers (PR 5
    # pattern — the handler never looks at the calling convention).
    table.register(SYS_rename, "rename", linux.sys_rename)
    table.register(SYS_sync, "sync", linux.sys_sync)
    table.register(SYS_fsync, "fsync", linux.sys_fsync)
    table.register(SYS_fdatasync, "fdatasync", linux.sys_fdatasync)
    table.register(SYS_execve, "execve", linux.sys_execve)
    table.register(SYS_getpid, "getpid", linux.sys_getpid)
    table.register(SYS_accept, "accept", linux.sys_accept)
    table.register(SYS_kill, "kill", xnu_kill)
    table.register(SYS_getppid, "getppid", linux.sys_getppid)
    table.register(SYS_pipe, "pipe", linux.sys_pipe)
    table.register(SYS_sigaction, "sigaction", xnu_sigaction)
    table.register(SYS_ioctl, "ioctl", linux.sys_ioctl)
    table.register(SYS_select, "select", xnu_select_native_quirk)
    # The whole BSD socket family passes straight through to the Linux
    # handlers: XNU and Linux both descend from the BSD socket
    # abstraction, so network syscalls need no diplomat — one shared
    # implementation, with the XNU side paying only the per-dispatch
    # translation cost (asserted by tests/test_net.py).  This is why the
    # paper's network-dependent iOS apps run unmodified.
    table.register(SYS_socket, "socket", linux.sys_socket)
    table.register(SYS_connect, "connect", linux.sys_connect)
    table.register(SYS_bind, "bind", linux.sys_bind)
    table.register(SYS_listen, "listen", linux.sys_listen)
    table.register(SYS_sendto, "sendto", linux.sys_sendto)
    table.register(SYS_recvfrom, "recvfrom", linux.sys_recvfrom)
    table.register(SYS_setsockopt, "setsockopt", linux.sys_setsockopt)
    table.register(SYS_getsockopt, "getsockopt", linux.sys_getsockopt)
    table.register(SYS_getsockname, "getsockname", linux.sys_getsockname)
    table.register(SYS_shutdown, "shutdown", linux.sys_shutdown)
    table.register(SYS_socketpair, "socketpair", linux.sys_socketpair)
    table.register(SYS_mkdir, "mkdir", linux.sys_mkdir)
    table.register(SYS_rmdir, "rmdir", linux.sys_rmdir)
    table.register(SYS_getdirentries, "getdirentries", xnu_getdirentries)
    # rlimits share the Linux handlers directly: the structures they sync
    # (fd table, address space) are persona-independent kernel state, so
    # no diplomat is needed — the XNU ABI only re-encodes the result.
    table.register(SYS_getrlimit, "getrlimit", linux.sys_getrlimit)
    table.register(SYS_setrlimit, "setrlimit", linux.sys_setrlimit)
    table.register(SYS_lseek, "lseek", linux.sys_lseek)
    table.register(SYS_posix_spawn, "posix_spawn", xnu_posix_spawn)
    table.register(SYS_stat64, "stat64", linux.sys_stat)
    table.register(SYS_bsdthread_create, "bsdthread_create", xnu_bsdthread_create)
    table.register(SYS_thread_selfid, "thread_selfid", xnu_thread_selfid)
    table.register(SYS_semwait_signal, "semwait_signal", xnu_semwait_signal)
    table.register(
        SYS_psynch_mutexwait,
        "psynch_mutexwait",
        lambda k, t, addr: _psynch(k).psynch_mutexwait(t.process, addr),
    )
    table.register(
        SYS_psynch_mutexdrop,
        "psynch_mutexdrop",
        lambda k, t, addr: _psynch(k).psynch_mutexdrop(t.process, addr),
    )
    table.register(
        SYS_psynch_cvbroad,
        "psynch_cvbroad",
        lambda k, t, addr: _psynch(k).psynch_cvbroad(t.process, addr),
    )
    table.register(
        SYS_psynch_cvsignal,
        "psynch_cvsignal",
        lambda k, t, addr: _psynch(k).psynch_cvsignal(t.process, addr),
    )
    table.register(
        SYS_psynch_cvwait,
        "psynch_cvwait",
        lambda k, t, cv, mtx, timeout=None: _psynch(k).psynch_cvwait(
            t.process, cv, mtx, timeout
        ),
    )


# -- Mach traps -----------------------------------------------------------------------------


def _register_mach(table: DispatchTable) -> None:
    table.register(
        TRAP_mach_port_allocate,
        "mach_port_allocate",
        lambda k, t: _mach(k).mach_port_allocate(t.process),
    )
    table.register(
        TRAP_mach_port_allocate_set,
        "mach_port_allocate_set",
        lambda k, t: _mach(k).mach_port_allocate_set(t.process),
    )
    table.register(
        TRAP_mach_port_destroy,
        "mach_port_destroy",
        lambda k, t, name: _mach(k).mach_port_destroy(t.process, name),
    )
    table.register(
        TRAP_mach_port_deallocate,
        "mach_port_deallocate",
        lambda k, t, name: _mach(k).mach_port_deallocate(t.process, name),
    )
    table.register(
        TRAP_mach_port_move_member,
        "mach_port_move_member",
        lambda k, t, port, pset: _mach(k).mach_port_move_member(
            t.process, port, pset
        ),
    )
    table.register(
        TRAP_mach_reply_port,
        "mach_reply_port",
        lambda k, t: _mach(k).mach_port_allocate(t.process)[1],
    )
    table.register(
        TRAP_task_self,
        "task_self",
        lambda k, t: _mach(k).task_self(t.process),
    )
    table.register(TRAP_mach_msg, "mach_msg", _mach_msg_trap)
    table.register(
        TRAP_semaphore_create,
        "semaphore_create",
        lambda k, t, value=0: _sema(k).semaphore_create(t.process, value),
    )
    table.register(
        TRAP_semaphore_destroy,
        "semaphore_destroy",
        lambda k, t, sid: _sema(k).semaphore_destroy(t.process, sid),
    )
    table.register(
        TRAP_semaphore_signal,
        "semaphore_signal",
        lambda k, t, sid: _sema(k).semaphore_signal(t.process, sid),
    )
    table.register(
        TRAP_semaphore_signal_all,
        "semaphore_signal_all",
        lambda k, t, sid: _sema(k).semaphore_signal_all(t.process, sid),
    )
    table.register(
        TRAP_semaphore_wait,
        "semaphore_wait",
        lambda k, t, sid: _sema(k).semaphore_wait(t.process, sid),
    )
    table.register(
        TRAP_semaphore_timedwait,
        "semaphore_timedwait",
        lambda k, t, sid, timeout: _sema(k).semaphore_wait(
            t.process, sid, timeout
        ),
    )
    table.register(
        TRAP_swtch_pri,
        "swtch_pri",
        lambda k, t: k.machine.scheduler.yield_control(),
    )
    table.register(
        TRAP_task_get_bootstrap_port,
        "task_get_bootstrap_port",
        lambda k, t: _mach(k).task_get_bootstrap_port(t.process),
    )
    table.register(
        TRAP_host_set_bootstrap_port,
        "host_set_bootstrap_port",
        lambda k, t, name: _mach(k).host_set_bootstrap_port(t.process, name),
    )
    table.register(TRAP_iokit_user_client, "iokit_user_client", _iokit_trap)


def _mach_msg_trap(
    kernel: "Kernel",
    thread: "KThread",
    option: int,
    name: int,
    msg: object = None,
    reply_name: int = 0,
    timeout_ns: Optional[float] = None,
):
    """mach_msg_trap: option bits select send and/or receive halves."""
    subsystem = _mach(kernel)
    task = thread.process
    if option & MACH_SEND_MSG and option & MACH_RCV_MSG:
        return subsystem.mach_msg_rpc(task, name, msg, timeout_ns)
    if option & MACH_SEND_MSG:
        return subsystem.mach_msg_send(task, name, msg, reply_name, timeout_ns)
    if option & MACH_RCV_MSG:
        return subsystem.mach_msg_receive(task, name, timeout_ns)
    raise SyscallError(EINVAL, "mach_msg: no option bits")


def _iokit_trap(
    kernel: "Kernel", thread: "KThread", operation: str, *args: object
):
    """iokit_user_client_trap: iOS user space reaches I/O Kit through
    opaque Mach IPC; the round trip is charged as a send+receive."""
    iokit = kernel.iokit
    if iokit is None:
        raise SyscallError(ENOSYS, "I/O Kit not compiled in")
    machine = kernel.machine
    machine.charge("mach_msg_send")
    machine.charge("mach_msg_receive")
    task = thread.process
    if operation == "get_matching_service":
        return iokit.get_matching_service(*args)
    if operation == "get_property":
        return iokit.get_property(*args)
    if operation == "open":
        return iokit.service_open(task, *args)
    if operation == "call_method":
        return iokit.connect_call_method(task, *args)
    if operation == "close":
        return iokit.service_close(task, *args)
    raise SyscallError(EINVAL, f"iokit operation {operation!r}")


# -- machdep & diag ----------------------------------------------------------------------------


def _register_machdep(table: DispatchTable) -> None:
    def set_cthread_self(kernel, thread, value):
        thread.tls().set("self", value)
        return 0

    def get_cthread_self(kernel, thread):
        return thread.tls().get("self")

    table.register(
        MACHDEP_set_cthread_self, "thread_fast_set_cthread_self", set_cthread_self
    )
    table.register(
        MACHDEP_get_cthread_self, "thread_get_cthread_self", get_cthread_self
    )


def _register_diag(table: DispatchTable) -> None:
    def kdebug_trace(kernel, thread, *args):
        kernel.machine.emit("xnu", "kdebug", args=args)
        return 0

    table.register(DIAG_kdebug_trace, "kdebug_trace", kdebug_trace)
