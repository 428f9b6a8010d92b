"""Bionic: the domestic (Android) C library.

A facade over the Linux syscall ABI.  Every call traps with a Linux
syscall number through the calling thread's persona; failures come back as
``-errno`` and are decoded into the *Android TLS area's* errno slot — the
exact TLS-layout contract that diplomatic functions must preserve when
they cross personas (paper §4.3, arbitration step 8).

State (atexit/atfork handler lists) lives in the process's per-library
state dictionary, so it survives across facade instances and is copied on
fork like real COW data pages.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..kernel import syscalls_linux as nr
from ..kernel.files import O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY
from ..kernel.process import UserContext

LIB_STATE_KEY = "bionic"


class Bionic:
    """The libc facade bound to one user context."""

    def __init__(self, ctx: UserContext) -> None:
        self._ctx = ctx
        self._kernel = ctx.kernel
        self._thread = ctx.thread

    # -- trap plumbing -----------------------------------------------------------

    def _state(self) -> dict:
        state = self._ctx.lib_state(LIB_STATE_KEY)
        state.setdefault("atexit", [])
        state.setdefault("atfork", [])
        return state

    def _trap(self, number: int, *args: object) -> object:
        # Kernel.trap is looked up per call, never cached, so a
        # wrapper set on the class sees every trap.
        result = self._kernel.trap(self._thread, number, args)
        if isinstance(result, int) and result < 0:
            self._thread.errno = -result
            return -1
        return result

    @property
    def errno(self) -> int:
        return self._thread.errno

    # -- identity -----------------------------------------------------------------

    def getpid(self) -> int:
        return self._trap(nr.NR_getpid)

    def getppid(self) -> int:
        return self._trap(nr.NR_getppid)

    def gettid(self) -> int:
        return self._trap(nr.NR_gettid)

    # -- files ---------------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        return self._trap(nr.NR_open, path, flags)

    def creat(self, path: str) -> int:
        return self._trap(nr.NR_open, path, O_CREAT | O_WRONLY | O_TRUNC)

    def close(self, fd: int) -> int:
        return self._trap(nr.NR_close, fd)

    def read(self, fd: int, nbytes: int) -> object:
        return self._trap(nr.NR_read, fd, nbytes)

    def write(self, fd: int, data: bytes) -> object:
        return self._trap(nr.NR_write, fd, data)

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        return self._trap(nr.NR_lseek, fd, offset, whence)

    def unlink(self, path: str) -> int:
        return self._trap(nr.NR_unlink, path)

    def rename(self, old_path: str, new_path: str) -> int:
        return self._trap(nr.NR_rename, old_path, new_path)

    def fsync(self, fd: int) -> int:
        return self._trap(nr.NR_fsync, fd)

    def fdatasync(self, fd: int) -> int:
        return self._trap(nr.NR_fdatasync, fd)

    def sync(self) -> int:
        return self._trap(nr.NR_sync)

    def mkdir(self, path: str) -> int:
        return self._trap(nr.NR_mkdir, path)

    def rmdir(self, path: str) -> int:
        return self._trap(nr.NR_rmdir, path)

    def stat(self, path: str) -> object:
        return self._trap(nr.NR_stat, path)

    def ioctl(self, fd: int, request: int, arg: object = None) -> object:
        return self._trap(nr.NR_ioctl, fd, request, arg)

    def dup(self, fd: int) -> int:
        return self._trap(nr.NR_dup, fd)

    def dup2(self, fd: int, newfd: int) -> int:
        return self._trap(nr.NR_dup2, fd, newfd)

    def pipe(self) -> object:
        return self._trap(nr.NR_pipe)

    def select(
        self,
        read_fds: List[int],
        write_fds: Optional[List[int]] = None,
        timeout_ns: Optional[float] = 0,
    ) -> object:
        return self._trap(nr.NR_select, read_fds, write_fds or [], timeout_ns)

    def readdir(self, path: str) -> List[str]:
        """opendir/readdir/closedir in one convenience call."""
        fd = self.open(path)
        if fd == -1:
            return []
        names = []
        while True:
            name = self._trap(nr.NR_getdents, fd)
            if name is None or name == -1:
                break
            names.append(name)
        self.close(fd)
        return names

    # -- sockets -------------------------------------------------------------------

    def socket(self, domain: int = 1, sock_type: int = 1) -> int:
        """``socket(2)``: AF_UNIX (1, default) or AF_INET (2) x
        SOCK_STREAM (1) / SOCK_DGRAM (2)."""
        return self._trap(nr.NR_socket, domain, sock_type)

    def bind(self, fd: int, addr: object, backlog: int = 8) -> int:
        """AF_UNIX: ``addr`` is a path (bind+listen); AF_INET: ``(ip, port)``."""
        return self._trap(nr.NR_bind, fd, addr, backlog)

    def listen(self, fd: int, backlog: int = 128) -> int:
        return self._trap(nr.NR_listen, fd, backlog)

    def connect(self, fd: int, addr: object) -> int:
        return self._trap(nr.NR_connect, fd, addr)

    def accept(self, fd: int) -> int:
        return self._trap(nr.NR_accept, fd)

    def sendto(self, fd: int, data: bytes, addr: object = None) -> object:
        return self._trap(nr.NR_sendto, fd, data, addr)

    def recvfrom(self, fd: int, nbytes: int) -> object:
        """Returns ``(data, source_address)`` or -1 with errno set."""
        return self._trap(nr.NR_recvfrom, fd, nbytes)

    def setsockopt(
        self, fd: int, level: int, option: int, value: object = 1
    ) -> int:
        return self._trap(nr.NR_setsockopt, fd, level, option, value)

    def getsockopt(self, fd: int, level: int, option: int) -> object:
        return self._trap(nr.NR_getsockopt, fd, level, option)

    def getsockname(self, fd: int) -> object:
        return self._trap(nr.NR_getsockname, fd)

    def shutdown(self, fd: int, how: int = 2) -> int:
        return self._trap(nr.NR_shutdown, fd, how)

    def socketpair(self) -> object:
        return self._trap(nr.NR_socketpair)

    def getaddrinfo(self, name: str) -> Optional[str]:
        """Deterministic stub resolver, the Bionic half.

        Encodes a plain-text query, ships it as a real UDP datagram to
        the in-sim DNS server (10.0.2.3:53) through the same sendto/
        recvfrom syscalls any app would use, and parses the answer.
        Returns the address string, or ``None`` (NXDOMAIN).

        Like a real stub resolver it retransmits on a timeout —
        ``DNS_RETRIES`` sends, ``DNS_TIMEOUT_NS`` apart — then fails
        over to the secondary server in ``DNS_SERVERS``.  Exhausting
        every server is a *typed* failure: errno is set to ETIMEDOUT
        after exactly ``servers x retries x timeout`` of virtual wait,
        so resolution under 100% loss degrades to a bounded,
        deterministic delay instead of a hang.
        """
        from ..kernel.errno import ETIMEDOUT
        from ..net.netstack import DNS_PORT, DNS_RETRIES, DNS_SERVERS, DNS_TIMEOUT_NS
        from ..net.sockets import AF_INET, SOCK_DGRAM

        self._ctx.machine.charge("net_dns_query_cpu")
        fd = self.socket(AF_INET, SOCK_DGRAM)
        if fd == -1:
            return None
        try:
            query = b"Q " + name.encode()
            for server_ip in DNS_SERVERS:
                for _attempt in range(DNS_RETRIES):
                    if self.sendto(fd, query, (server_ip, DNS_PORT)) == -1:
                        return None
                    ready = self.select([fd], timeout_ns=DNS_TIMEOUT_NS)
                    if ready == -1:
                        return None
                    if not ready[0]:
                        continue  # timed out: retransmit
                    result = self.recvfrom(fd, 512)
                    if result == -1:
                        return None
                    answer, _server = result
                    parts = answer.decode().split()
                    if parts and parts[0] == "A" and len(parts) == 3:
                        return parts[2]
                    return None  # authoritative NXDOMAIN: no failover
            self._thread.errno = ETIMEDOUT  # every server exhausted
            return None
        finally:
            self.close(fd)

    # -- processes ------------------------------------------------------------------

    def fork(self, child_body: Callable[[UserContext], object]) -> int:
        """fork(2).  Runs registered atfork handlers around the syscall;
        the child runs ``child_body`` (see :mod:`repro.kernel.process`)."""
        atfork: List[Tuple] = self._state()["atfork"]
        machine = self._ctx.machine
        if atfork:  # prepare + parent phases, charged per handler
            machine.charge("atfork_handler", len(atfork))

        def child_with_handlers(child_ctx: UserContext) -> object:
            if atfork:
                machine.charge("atfork_handler", len(atfork))
            return child_body(child_ctx)

        return self._trap(nr.NR_fork, child_with_handlers)

    def execve(self, path: str, argv: Optional[List[str]] = None) -> int:
        return self._trap(nr.NR_execve, path, argv or [path])

    def waitpid(self, pid: int = -1) -> object:
        return self._trap(nr.NR_waitpid, pid)

    def exit(self, code: int = 0) -> None:
        """Run atexit handlers, then terminate the process."""
        state = self._state()
        handlers = state["atexit"]
        if handlers:
            self._ctx.machine.charge("atexit_handler", len(handlers))
            for handler in reversed(list(handlers)):
                if callable(handler):
                    handler(self._ctx)
            handlers.clear()
        self._trap(nr.NR_exit, code)

    def atexit(self, handler: object) -> None:
        self._state()["atexit"].append(handler)

    def pthread_atfork(self, handler: object) -> None:
        self._state()["atfork"].append(handler)

    # -- threads ------------------------------------------------------------------------

    def pthread_create(
        self, fn: Callable[[UserContext], object], name: str = "pthread"
    ) -> int:
        return self._trap(nr.NR_clone, fn, name)

    def sched_yield(self) -> int:
        return self._trap(nr.NR_sched_yield)

    def nanosleep(self, duration_ns: float) -> int:
        return self._trap(nr.NR_nanosleep, duration_ns)

    # -- resource limits -----------------------------------------------------------------

    def getrlimit(self, which: int) -> object:
        """Returns ``(soft, hard)``, or -1 with errno set."""
        return self._trap(nr.NR_getrlimit, which)

    def setrlimit(
        self, which: int, soft: int, hard: Optional[int] = None
    ) -> int:
        return self._trap(nr.NR_setrlimit, which, soft, hard)

    # -- signals -------------------------------------------------------------------------

    def signal(self, signum: int, handler: object) -> object:
        """signal(2)-style registration (Linux numbering)."""
        return self._trap(nr.NR_sigaction, signum, handler)

    def kill(self, pid: int, signum: int) -> int:
        return self._trap(nr.NR_kill, pid, signum)

    def raise_(self, signum: int) -> int:
        return self.kill(self.getpid(), signum)
