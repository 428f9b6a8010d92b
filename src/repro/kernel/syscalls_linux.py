"""The Linux (ARM EABI) syscall table — the domestic kernel ABI.

Syscall numbers follow the ARM EABI assignments for the calls the
simulation implements; Cider-specific additions (``set_persona``) use a
number above the native range.  Handlers raise
:class:`~repro.kernel.errno.SyscallError`; the Linux ABI converts failures
to the ``-errno`` return convention that bionic's wrappers decode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..net.sockets import AF_INET, AF_UNIX, SOCK_STREAM, INetSocket
from ..persona.abi import DispatchTable, KernelABI
from ..sim.resources import RLIMIT_AS, RLIMIT_NOFILE
from .errno import EINVAL, ENOTSOCK, ENOTTY, EOPNOTSUPP, SyscallError
from .files import (
    DeviceHandle,
    DirectoryHandle,
    FDTable,
    OpenFile,
    fd_alloc,
)
from .pipes import make_pipe
from .select import do_select
from .signals import SigAction
from .unix_sockets import UnixSocket, accept, bind, connect, socketpair

if TYPE_CHECKING:
    from .kernel import Kernel
    from .process import KThread

# -- ARM EABI syscall numbers ---------------------------------------------------
NR_exit = 1
NR_fork = 2
NR_read = 3
NR_write = 4
NR_open = 5
NR_close = 6
NR_waitpid = 7  # legacy number kept for the simulation's waitpid
NR_unlink = 10
NR_execve = 11
NR_lseek = 19
NR_getpid = 20
NR_sync = 36
NR_kill = 37
NR_rename = 38
NR_mkdir = 39
NR_rmdir = 40
NR_dup = 41
NR_pipe = 42
NR_ioctl = 54
NR_dup2 = 63
NR_setrlimit = 75
NR_getrlimit = 76
NR_fsync = 118
NR_fdatasync = 148
NR_getppid = 64
NR_sigaction = 67
NR_getdents = 141
NR_select = 142  # _newselect
NR_sched_yield = 158
NR_nanosleep = 162
NR_stat = 195  # stat64
NR_gettid = 224
NR_socket = 281
NR_bind = 282
NR_connect = 283
NR_listen = 284
NR_accept = 285
NR_getsockname = 286
NR_socketpair = 288
NR_sendto = 290
NR_recvfrom = 292
NR_shutdown = 293
NR_setsockopt = 294
NR_getsockopt = 295
NR_clone = 120
#: Cider addition — available from every persona (paper §4.3).
NR_set_persona = 983045  # above the native ARM range (__ARM_NR_* area)

#: ioctl request: read one input event object from an evdev node.
EVIOC_READ_EVENT = 0x4501
#: ioctl request: framebuffer geometry.
FBIOGET_VSCREENINFO = 0x4600


class LinuxABI(KernelABI):
    """The domestic kernel ABI: one dispatch table, -errno convention."""

    name = "linux"

    def __init__(self) -> None:
        super().__init__()
        self.table = DispatchTable("linux", self)
        _register_all(self.table)

    def classify_trap(self, trapno: int) -> str:
        return "swi"  # Linux/ARM has a single software-interrupt entry

    def success(self, value: object) -> object:
        return value

    def failure(self, errno: int) -> object:
        return -errno


# -- handlers -------------------------------------------------------------------


def sys_exit(kernel: "Kernel", thread: "KThread", code: int = 0):
    kernel.processes.do_exit(thread, code)


def sys_fork(kernel: "Kernel", thread: "KThread", child_body: Callable):
    return kernel.processes.do_fork(thread, child_body)


def sys_execve(
    kernel: "Kernel", thread: "KThread", path: str, argv: Optional[List[str]] = None
):
    kernel.processes.do_exec(thread, path, list(argv or [path]))


def sys_waitpid(kernel: "Kernel", thread: "KThread", pid: int = -1):
    return kernel.processes.do_waitpid(thread, pid)


def sys_getpid(kernel: "Kernel", thread: "KThread"):
    return thread.process.pid


def sys_getppid(kernel: "Kernel", thread: "KThread"):
    return thread.process.ppid


def sys_gettid(kernel: "Kernel", thread: "KThread"):
    return thread.tid


def sys_read(kernel: "Kernel", thread: "KThread", fd: int, nbytes: int):
    return thread.process.fd_table.get(fd).read(nbytes)


def sys_write(kernel: "Kernel", thread: "KThread", fd: int, data: bytes):
    return thread.process.fd_table.get(fd).write(data)


def sys_open(kernel: "Kernel", thread: "KThread", path: str, flags: int = 0):
    return kernel.open_path(thread.process, path, flags)


def sys_close(kernel: "Kernel", thread: "KThread", fd: int):
    kernel.machine.clock.charge_ps(kernel._close_ps)
    thread.process.fd_table.close(fd)
    return 0


def sys_lseek(
    kernel: "Kernel", thread: "KThread", fd: int, offset: int, whence: int
):
    return thread.process.fd_table.get(fd).lseek(offset, whence)


def sys_dup(kernel: "Kernel", thread: "KThread", fd: int):
    return thread.process.fd_table.dup(fd)


def sys_dup2(kernel: "Kernel", thread: "KThread", fd: int, newfd: int):
    return thread.process.fd_table.dup2(fd, newfd)


def sys_pipe(kernel: "Kernel", thread: "KThread"):
    reader, writer = make_pipe(kernel.machine)
    process = thread.process
    rfd = fd_alloc(process, reader)
    try:
        wfd = fd_alloc(process, writer)
    except SyscallError:
        # Leave no half-created pipe behind when the table fills between
        # the two descriptors (EMFILE rollback).
        process.fd_table.close(rfd)
        raise
    return rfd, wfd


def sys_ioctl(
    kernel: "Kernel", thread: "KThread", fd: int, request: int, arg: object = None
):
    handle = thread.process.fd_table.get(fd)
    if not isinstance(handle, DeviceHandle):
        raise SyscallError(ENOTTY, "ioctl on non-device")
    if request == EVIOC_READ_EVENT:
        return handle.driver.read_event(handle)
    if request == FBIOGET_VSCREENINFO:
        return {"xres": handle.driver.width, "yres": handle.driver.height}
    return handle.ioctl(request, arg)


def sys_mkdir(kernel: "Kernel", thread: "KThread", path: str):
    kernel.vfs.mkdir(path, thread.process.cwd)
    return 0


def sys_rmdir(kernel: "Kernel", thread: "KThread", path: str):
    kernel.vfs.rmdir(path, thread.process.cwd)
    return 0


def sys_unlink(kernel: "Kernel", thread: "KThread", path: str):
    kernel.vfs.unlink(path, thread.process.cwd)
    return 0


def sys_rename(kernel: "Kernel", thread: "KThread", old_path: str,
               new_path: str):
    kernel.vfs.rename(old_path, new_path, thread.process.cwd)
    return 0


def _charge_flush(machine, pages: int, records: int) -> None:
    if pages:
        machine.charge("storage_flush_per_page", pages)
    if records:
        machine.charge("journal_commit_record", records)


def sys_fsync(kernel: "Kernel", thread: "KThread", fd: int):
    """Shared by both personas (Linux NR 118 / XNU BSD trap 95).

    Flushes the file's dirty pages and commits the metadata journal tail.
    Without a journal device (or on an untracked boot-image file) it is a
    barrier that costs ``fsync_base`` and succeeds — matching fsync on a
    filesystem with nothing dirty.
    """
    handle = thread.process.fd_table.get(fd)
    machine = kernel.machine
    machine.charge("fsync_base")
    journal = machine.storage.journal
    inode = getattr(handle, "inode", None)
    ino = getattr(inode, "ino", 0)
    if journal is None or not ino:
        return 0
    with machine.span("kernel.vfs.journal", "fsync", ino=ino):
        pages, records = journal.fsync(ino)
        _charge_flush(machine, pages, records)
    return 0


def sys_fdatasync(kernel: "Kernel", thread: "KThread", fd: int):
    handle = thread.process.fd_table.get(fd)
    machine = kernel.machine
    machine.charge("fdatasync_base")
    journal = machine.storage.journal
    inode = getattr(handle, "inode", None)
    ino = getattr(inode, "ino", 0)
    if journal is None or not ino:
        return 0
    with machine.span("kernel.vfs.journal", "fdatasync", ino=ino):
        pages, records = journal.fdatasync(ino)
        _charge_flush(machine, pages, records)
    return 0


def sys_sync(kernel: "Kernel", thread: "KThread"):
    machine = kernel.machine
    machine.charge("sync_base")
    journal = machine.storage.journal
    if journal is None:
        return 0
    with machine.span("kernel.vfs.journal", "sync"):
        pages, records = journal.sync_all()
        _charge_flush(machine, pages, records)
    return 0


def sys_stat(kernel: "Kernel", thread: "KThread", path: str):
    node = kernel.vfs.resolve(path, thread.process.cwd)
    return {"kind": node.kind, "size": node.size_bytes}


def sys_getdents(kernel: "Kernel", thread: "KThread", fd: int):
    handle = thread.process.fd_table.get(fd)
    if not isinstance(handle, DirectoryHandle):
        raise SyscallError(EINVAL, "getdents on non-directory")
    return handle.readdir()


def sys_kill(kernel: "Kernel", thread: "KThread", pid: int, signum: int):
    target = kernel.processes.get(pid)
    kernel.send_signal_to_process(target, signum, sender_pid=thread.process.pid)
    return 0


def sys_sigaction(
    kernel: "Kernel", thread: "KThread", signum: int, handler: object
):
    """Returns the previous handler."""
    try:
        previous = thread.process.signals.set_action(
            signum, SigAction(handler=handler, persona=thread.persona.name)
        )
    except ValueError as exc:
        raise SyscallError(EINVAL, str(exc)) from None
    return previous.handler


def sys_select(
    kernel: "Kernel",
    thread: "KThread",
    read_fds: List[int],
    write_fds: Optional[List[int]] = None,
    timeout_ns: Optional[float] = 0,
):
    return do_select(kernel, thread, read_fds, write_fds or [], timeout_ns)


def sys_sched_yield(kernel: "Kernel", thread: "KThread"):
    kernel.machine.charge("sched_switch")
    kernel.machine.scheduler.yield_control()
    return 0


def sys_nanosleep(kernel: "Kernel", thread: "KThread", duration_ns: float):
    kernel.machine.scheduler.sleep(duration_ns)
    return 0


def sys_clone(
    kernel: "Kernel", thread: "KThread", fn: Callable, name: str = "thread"
):
    """Thread-creating clone (CLONE_VM|CLONE_THREAD)."""
    new_thread = kernel.processes.spawn_kthread(thread.process, fn, name=name)
    return new_thread.tid


def sys_socket(
    kernel: "Kernel",
    thread: "KThread",
    domain: int = AF_UNIX,
    sock_type: int = SOCK_STREAM,
):
    """The BSD socket family entry point shared by both personas.

    ``AF_UNIX`` keeps the historical local-socket behaviour;
    ``AF_INET`` mints an INET socket on the machine's virtual netstack
    (built lazily on first use).  Either way the descriptor is minted
    through the one checked ``fd_alloc`` path (RLIMIT_NOFILE => EMFILE);
    an EMFILE after the socket object exists rolls its buffers back.
    """
    if domain == AF_INET:
        sock: OpenFile = INetSocket(kernel.machine, sock_type)
    elif domain == AF_UNIX:
        sock = UnixSocket(kernel.machine)
    else:
        raise SyscallError(EINVAL, f"address family {domain}")
    try:
        return fd_alloc(thread.process, sock)
    except SyscallError:
        sock.decref()  # release socket buffers reserved from the envelope
        raise


def _sock_for(thread: "KThread", fd: int) -> UnixSocket:
    handle = thread.process.fd_table.get(fd)
    if not isinstance(handle, UnixSocket):
        raise SyscallError(EINVAL, "not a socket")
    return handle


def _any_sock_for(thread: "KThread", fd: int) -> OpenFile:
    handle = thread.process.fd_table.get(fd)
    if not isinstance(handle, (UnixSocket, INetSocket)):
        raise SyscallError(ENOTSOCK, "not a socket")
    return handle


def sys_bind(
    kernel: "Kernel", thread: "KThread", fd: int, addr: object, backlog: int = 8
):
    """Polymorphic bind: a string is an AF_UNIX path (bind+listen, the
    historical behaviour), an ``(ip, port)`` pair binds an INET socket."""
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        ip, port = addr  # type: ignore[misc]
        handle.bind((str(ip), int(port)))
        return 0
    bind(kernel.machine, handle, str(addr), backlog)
    return 0


def sys_listen(kernel: "Kernel", thread: "KThread", fd: int, backlog: int = 128):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        handle.listen(backlog)
        return 0
    # AF_UNIX bind() already listens in this model; listen() adjusts the
    # backlog of the existing listener.
    if handle.listener is None:
        raise SyscallError(EOPNOTSUPP, "listen before bind")
    handle.listener.backlog = backlog
    return 0


def sys_connect(kernel: "Kernel", thread: "KThread", fd: int, addr: object):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        ip, port = addr  # type: ignore[misc]
        handle.connect((str(ip), int(port)))
        return 0
    connect(kernel.machine, handle, str(addr))
    return 0


def sys_accept(kernel: "Kernel", thread: "KThread", fd: int):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        peer: OpenFile = handle.accept()
    else:
        peer = accept(kernel.machine, handle)
    try:
        return fd_alloc(thread.process, peer)
    except SyscallError:
        peer.decref()
        raise


def sys_sendto(
    kernel: "Kernel",
    thread: "KThread",
    fd: int,
    data: bytes,
    addr: object = None,
):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        dst = None
        if addr is not None:
            ip, port = addr  # type: ignore[misc]
            dst = (str(ip), int(port))
        return handle.sendto(data, dst)
    if addr is not None:
        raise SyscallError(EINVAL, "sendto with address on AF_UNIX stream")
    return handle.write(data)


def sys_recvfrom(kernel: "Kernel", thread: "KThread", fd: int, nbytes: int):
    """Returns ``(data, source_address)``."""
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        return handle.recvfrom(nbytes)
    return handle.read(nbytes), None


def sys_setsockopt(
    kernel: "Kernel",
    thread: "KThread",
    fd: int,
    level: int,
    option: int,
    value: object = 1,
):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        handle.setsockopt(level, option, value)
    return 0


def sys_getsockopt(
    kernel: "Kernel", thread: "KThread", fd: int, level: int, option: int
):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        return handle.getsockopt(level, option)
    return 0


def sys_getsockname(kernel: "Kernel", thread: "KThread", fd: int):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        return handle.getsockname()
    return handle.bound_path


def sys_shutdown(kernel: "Kernel", thread: "KThread", fd: int, how: int = 2):
    handle = _any_sock_for(thread, fd)
    if isinstance(handle, INetSocket):
        handle.shutdown(how)
        return 0
    # AF_UNIX: SHUT_WR/RDWR close the transmit stream (peer reads EOF),
    # SHUT_RD closes receive (our reads return EOF, peer writes EPIPE).
    if how not in (0, 1, 2):
        raise SyscallError(EINVAL, f"shutdown how={how}")
    if how >= 1 and handle._tx is not None:
        handle._tx.open = False
        handle._tx.waitq.wake_all()
    if how in (0, 2) and handle._rx is not None:
        handle._rx.open = False
        handle._rx.waitq.wake_all()
    return 0


def sys_socketpair(kernel: "Kernel", thread: "KThread"):
    left, right = socketpair(kernel.machine)
    process = thread.process
    lfd = fd_alloc(process, left)
    try:
        rfd = fd_alloc(process, right)
    except SyscallError:
        process.fd_table.close(lfd)
        raise
    return lfd, rfd


def sys_getrlimit(kernel: "Kernel", thread: "KThread", which: int):
    """Returns ``(soft, hard)``; RLIM_INFINITY for unlimited."""
    try:
        return thread.process.rlimits.get(which)
    except ValueError as exc:
        raise SyscallError(EINVAL, str(exc)) from None


def sys_setrlimit(
    kernel: "Kernel",
    thread: "KThread",
    which: int,
    soft: int,
    hard: Optional[int] = None,
):
    """Set a limit and sync the kernel structures that enforce it.

    ``RLIMIT_NOFILE`` lands in the fd table (enforced by
    :func:`~repro.kernel.files.fd_alloc` on every descriptor mint),
    ``RLIMIT_AS`` in the address space (enforced by
    :meth:`~repro.kernel.mm.AddressSpace.map`), ``RLIMIT_NPROC`` is read
    at fork/posix_spawn time.
    """
    process = thread.process
    try:
        process.rlimits.set(which, soft, hard)
    except ValueError as exc:
        raise SyscallError(EINVAL, str(exc)) from None
    if which == RLIMIT_NOFILE:
        limit = process.rlimits.soft(RLIMIT_NOFILE)
        process.fd_table.nofile_limit = (
            FDTable.MAX_FDS if limit is None else min(limit, FDTable.MAX_FDS)
        )
    elif which == RLIMIT_AS:
        process.address_space.as_limit_bytes = process.rlimits.soft(RLIMIT_AS)
    return 0


def sys_set_persona(kernel: "Kernel", thread: "KThread", persona_name: str):
    """Cider's persona-switch syscall (registered on Cider kernels only;
    on a vanilla kernel the number is unassigned and returns ENOSYS)."""
    return kernel.do_set_persona(thread, persona_name)


def _register_all(table: DispatchTable) -> None:
    table.register(NR_exit, "exit", sys_exit)
    table.register(NR_fork, "fork", sys_fork)
    table.register(NR_read, "read", sys_read)
    table.register(NR_write, "write", sys_write)
    table.register(NR_open, "open", sys_open)
    table.register(NR_close, "close", sys_close)
    table.register(NR_waitpid, "waitpid", sys_waitpid)
    table.register(NR_unlink, "unlink", sys_unlink)
    table.register(NR_rename, "rename", sys_rename)
    table.register(NR_sync, "sync", sys_sync)
    table.register(NR_fsync, "fsync", sys_fsync)
    table.register(NR_fdatasync, "fdatasync", sys_fdatasync)
    table.register(NR_execve, "execve", sys_execve)
    table.register(NR_lseek, "lseek", sys_lseek)
    table.register(NR_getpid, "getpid", sys_getpid)
    table.register(NR_kill, "kill", sys_kill)
    table.register(NR_mkdir, "mkdir", sys_mkdir)
    table.register(NR_rmdir, "rmdir", sys_rmdir)
    table.register(NR_dup, "dup", sys_dup)
    table.register(NR_pipe, "pipe", sys_pipe)
    table.register(NR_ioctl, "ioctl", sys_ioctl)
    table.register(NR_dup2, "dup2", sys_dup2)
    table.register(NR_setrlimit, "setrlimit", sys_setrlimit)
    table.register(NR_getrlimit, "getrlimit", sys_getrlimit)
    table.register(NR_getppid, "getppid", sys_getppid)
    table.register(NR_sigaction, "sigaction", sys_sigaction)
    table.register(NR_getdents, "getdents", sys_getdents)
    table.register(NR_select, "select", sys_select)
    table.register(NR_sched_yield, "sched_yield", sys_sched_yield)
    table.register(NR_nanosleep, "nanosleep", sys_nanosleep)
    table.register(NR_stat, "stat", sys_stat)
    table.register(NR_gettid, "gettid", sys_gettid)
    table.register(NR_clone, "clone", sys_clone)
    table.register(NR_socket, "socket", sys_socket)
    table.register(NR_bind, "bind", sys_bind)
    table.register(NR_connect, "connect", sys_connect)
    table.register(NR_listen, "listen", sys_listen)
    table.register(NR_accept, "accept", sys_accept)
    table.register(NR_getsockname, "getsockname", sys_getsockname)
    table.register(NR_socketpair, "socketpair", sys_socketpair)
    table.register(NR_sendto, "sendto", sys_sendto)
    table.register(NR_recvfrom, "recvfrom", sys_recvfrom)
    table.register(NR_shutdown, "shutdown", sys_shutdown)
    table.register(NR_setsockopt, "setsockopt", sys_setsockopt)
    table.register(NR_getsockopt, "getsockopt", sys_getsockopt)
