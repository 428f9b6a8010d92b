"""libSystem: the iOS C library and Mach runtime.

The foreign-persona counterpart of :mod:`repro.android.bionic`.  Syscalls
trap with XNU numbers through the thread's persona; BSD calls come back as
``(value, carry_flag)`` pairs — the carry flag signals failure and the
value is the positive errno, which libSystem stores in the *iOS TLS
area's* errno slot (at a different offset than Android's; §4.3).

Also provides the Mach side: ports, mach_msg, bootstrap lookups against
launchd, semaphores, and pthreads built on the duct-taped psynch kernel
support.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..compat import xnu_abi as xnu
from ..kernel.process import UserContext
from ..xnu.ipc import KERN_SUCCESS, MACH_MSG_SUCCESS, MACH_PORT_NULL, MachMessage

LIB_STATE_KEY = "libSystem"


class IOSLibc:
    """The libSystem facade bound to one user context."""

    def __init__(self, ctx: UserContext) -> None:
        self._ctx = ctx
        self._kernel = ctx.kernel
        self._thread = ctx.thread

    # -- trap plumbing ------------------------------------------------------------

    def _state(self) -> dict:
        state = self._ctx.lib_state(LIB_STATE_KEY)
        state.setdefault("atexit", [])
        state.setdefault("atfork", [])
        state.setdefault("next_sync_addr", 0x1000)
        return state

    def _bsd(self, number: int, *args: object) -> object:
        """BSD syscall: decode the carry-flag error convention."""
        # Kernel.trap is looked up per call, never cached, so a
        # wrapper set on the class sees every trap.
        value, carry = self._kernel.trap(self._thread, number, args)
        if carry:
            self._thread.errno = value if isinstance(value, int) else 0
            return -1
        return value

    def _mach(self, number: int, *args: object) -> object:
        """Mach, machdep, diag or I/O Kit trap: the value (a kern_return
        code, for Mach) passes through undecoded; the carry flag is
        dropped."""
        value, _carry = self._kernel.trap(self._thread, number, args)
        return value

    @property
    def errno(self) -> int:
        return self._thread.errno

    # -- identity -------------------------------------------------------------------

    def getpid(self) -> int:
        return self._bsd(xnu.SYS_getpid)

    def getppid(self) -> int:
        return self._bsd(xnu.SYS_getppid)

    def thread_selfid(self) -> int:
        return self._bsd(xnu.SYS_thread_selfid)

    # -- files -----------------------------------------------------------------------

    def open(self, path: str, flags: int = 0) -> int:
        return self._bsd(xnu.SYS_open, path, flags)

    def creat(self, path: str) -> int:
        return self._bsd(xnu.SYS_open, path, 0o1101)  # O_CREAT|O_WRONLY|O_TRUNC

    def close(self, fd: int) -> int:
        return self._bsd(xnu.SYS_close, fd)

    def read(self, fd: int, nbytes: int) -> object:
        return self._bsd(xnu.SYS_read, fd, nbytes)

    def write(self, fd: int, data: bytes) -> object:
        return self._bsd(xnu.SYS_write, fd, data)

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        return self._bsd(xnu.SYS_lseek, fd, offset, whence)

    def unlink(self, path: str) -> int:
        return self._bsd(xnu.SYS_unlink, path)

    def rename(self, old_path: str, new_path: str) -> int:
        return self._bsd(xnu.SYS_rename, old_path, new_path)

    def fsync(self, fd: int) -> int:
        return self._bsd(xnu.SYS_fsync, fd)

    def fdatasync(self, fd: int) -> int:
        return self._bsd(xnu.SYS_fdatasync, fd)

    def sync(self) -> int:
        return self._bsd(xnu.SYS_sync)

    def mkdir(self, path: str) -> int:
        return self._bsd(xnu.SYS_mkdir, path)

    def rmdir(self, path: str) -> int:
        return self._bsd(xnu.SYS_rmdir, path)

    def stat(self, path: str) -> object:
        return self._bsd(xnu.SYS_stat64, path)

    def ioctl(self, fd: int, request: int, arg: object = None) -> object:
        return self._bsd(xnu.SYS_ioctl, fd, request, arg)

    def pipe(self) -> object:
        return self._bsd(xnu.SYS_pipe)

    def select(
        self,
        read_fds: List[int],
        write_fds: Optional[List[int]] = None,
        timeout_ns: Optional[float] = 0,
    ) -> object:
        return self._bsd(xnu.SYS_select, read_fds, write_fds or [], timeout_ns)

    def readdir(self, path: str) -> List[str]:
        fd = self.open(path)
        if fd == -1:
            return []
        names = []
        while True:
            name = self._bsd(xnu.SYS_getdirentries, fd)
            if name is None or name == -1:
                break
            names.append(name)
        self.close(fd)
        return names

    # -- sockets -----------------------------------------------------------------------
    # The BSD socket family is where XNU and Linux genuinely share an
    # abstraction: these wrappers trap with XNU numbers into the *same*
    # kernel handlers Bionic reaches with Linux numbers (pass-through,
    # no diplomat) — only the error convention differs at this edge.

    def socket(self, domain: int = 1, sock_type: int = 1) -> int:
        """``socket(2)``: AF_UNIX (1, default) or AF_INET (2) x
        SOCK_STREAM (1) / SOCK_DGRAM (2)."""
        return self._bsd(xnu.SYS_socket, domain, sock_type)

    def bind(self, fd: int, addr: object, backlog: int = 8) -> int:
        """AF_UNIX: ``addr`` is a path (bind+listen); AF_INET: ``(ip, port)``."""
        return self._bsd(xnu.SYS_bind, fd, addr, backlog)

    def listen(self, fd: int, backlog: int = 128) -> int:
        return self._bsd(xnu.SYS_listen, fd, backlog)

    def connect(self, fd: int, addr: object) -> int:
        return self._bsd(xnu.SYS_connect, fd, addr)

    def accept(self, fd: int) -> int:
        return self._bsd(xnu.SYS_accept, fd)

    def sendto(self, fd: int, data: bytes, addr: object = None) -> object:
        return self._bsd(xnu.SYS_sendto, fd, data, addr)

    def recvfrom(self, fd: int, nbytes: int) -> object:
        """Returns ``(data, source_address)`` or -1 with errno set."""
        return self._bsd(xnu.SYS_recvfrom, fd, nbytes)

    def setsockopt(
        self, fd: int, level: int, option: int, value: object = 1
    ) -> int:
        return self._bsd(xnu.SYS_setsockopt, fd, level, option, value)

    def getsockopt(self, fd: int, level: int, option: int) -> object:
        return self._bsd(xnu.SYS_getsockopt, fd, level, option)

    def getsockname(self, fd: int) -> object:
        return self._bsd(xnu.SYS_getsockname, fd)

    def shutdown(self, fd: int, how: int = 2) -> int:
        return self._bsd(xnu.SYS_shutdown, fd, how)

    def socketpair(self) -> object:
        return self._bsd(xnu.SYS_socketpair)

    def getaddrinfo(self, name: str) -> Optional[str]:
        """Deterministic stub resolver, the libSystem half.

        Byte-for-byte the same wire exchange as Bionic's ``getaddrinfo``
        — same query datagram to 10.0.2.3:53, same answer parse — issued
        through XNU syscall numbers instead of Linux ones.  The identical
        behaviour *is* the pass-through demonstration.  The same
        timeout-retransmit-failover policy applies (``DNS_RETRIES``
        sends ``DNS_TIMEOUT_NS`` apart per server in ``DNS_SERVERS``),
        and exhausting every server sets errno to ETIMEDOUT after
        exactly ``servers x retries x timeout`` of virtual wait — a
        typed, bounded failure on both personas.
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

    # -- processes ------------------------------------------------------------------------

    def fork(self, child_body: Callable[[UserContext], object]) -> int:
        """fork(2) with the full iOS callback storm: dyld registered one
        atfork handler set per loaded image (paper §6.2)."""
        atfork = self._state()["atfork"]
        machine = self._ctx.machine
        if atfork:  # prepare + parent phases
            machine.charge("atfork_handler", len(atfork))

        def child_with_handlers(child_ctx: UserContext) -> object:
            state = child_ctx.lib_state(LIB_STATE_KEY)
            handlers = state.get("atfork", [])
            if handlers:  # child phase
                child_ctx.machine.charge("atfork_handler", len(handlers))
            return child_body(child_ctx)

        return self._bsd(xnu.SYS_fork, child_with_handlers)

    def execve(self, path: str, argv: Optional[List[str]] = None) -> int:
        return self._bsd(xnu.SYS_execve, path, argv or [path])

    def posix_spawn(self, path: str, argv: Optional[List[str]] = None) -> int:
        """posix_spawn: child pid on success (no fork-copy of the parent)."""
        return self._bsd(xnu.SYS_posix_spawn, path, argv or [path])

    def waitpid(self, pid: int = -1) -> object:
        return self._bsd(xnu.SYS_wait4, pid)

    def exit(self, code: int = 0) -> None:
        """Run the (per-dylib) exit callbacks dyld registered, then exit."""
        state = self._state()
        handlers = state["atexit"]
        if handlers:
            self._ctx.machine.charge("atexit_handler", len(handlers))
            for handler in reversed(list(handlers)):
                if callable(handler):
                    handler(self._ctx)
            handlers.clear()
        self._bsd(xnu.SYS_exit, code)

    def atexit(self, handler: object) -> None:
        self._state()["atexit"].append(handler)

    def pthread_atfork(self, handler: object) -> None:
        self._state()["atfork"].append(handler)

    # -- resource limits -----------------------------------------------------------------

    def getrlimit(self, which: int) -> object:
        """Returns ``(soft, hard)``, or -1 with errno set.  rlimits are
        persona-independent state (one process, one limit set)."""
        return self._bsd(xnu.SYS_getrlimit, which)

    def setrlimit(
        self, which: int, soft: int, hard: Optional[int] = None
    ) -> int:
        return self._bsd(xnu.SYS_setrlimit, which, soft, hard)

    # -- signals (XNU numbering at this API) ---------------------------------------------

    def signal(self, xnu_signum: int, handler: object) -> object:
        return self._bsd(xnu.SYS_sigaction, xnu_signum, handler)

    def kill(self, pid: int, xnu_signum: int) -> int:
        return self._bsd(xnu.SYS_kill, pid, xnu_signum)

    def raise_(self, xnu_signum: int) -> int:
        return self.kill(self.getpid(), xnu_signum)

    # -- threads ------------------------------------------------------------------------------

    def pthread_create(
        self, fn: Callable[[UserContext], object], name: str = "pthread"
    ) -> int:
        return self._bsd(xnu.SYS_bsdthread_create, fn, name)

    def sleep_ns(self, duration_ns: float) -> int:
        return self._bsd(xnu.SYS_semwait_signal, duration_ns)

    def sched_yield(self) -> object:
        return self._mach(xnu.TRAP_swtch_pri)

    # pthread mutex / condvar over duct-taped psynch kernel support --------------

    def _alloc_sync_addr(self) -> int:
        state = self._state()
        addr = state["next_sync_addr"]
        state["next_sync_addr"] = addr + 0x40
        return addr

    def pthread_mutex_init(self) -> int:
        return self._alloc_sync_addr()

    def pthread_mutex_lock(self, mutex_addr: int) -> int:
        return self._bsd(xnu.SYS_psynch_mutexwait, mutex_addr)

    def pthread_mutex_unlock(self, mutex_addr: int) -> int:
        return self._bsd(xnu.SYS_psynch_mutexdrop, mutex_addr)

    def pthread_cond_init(self) -> int:
        return self._alloc_sync_addr()

    def pthread_cond_wait(
        self, cv_addr: int, mutex_addr: int, timeout_ns: Optional[float] = None
    ) -> int:
        return self._bsd(xnu.SYS_psynch_cvwait, cv_addr, mutex_addr, timeout_ns)

    def pthread_cond_signal(self, cv_addr: int) -> int:
        return self._bsd(xnu.SYS_psynch_cvsignal, cv_addr)

    def pthread_cond_broadcast(self, cv_addr: int) -> int:
        return self._bsd(xnu.SYS_psynch_cvbroad, cv_addr)

    # -- Mach ports & messages ---------------------------------------------------------------

    def mach_task_self(self) -> int:
        return self._mach(xnu.TRAP_task_self)

    def mach_reply_port(self) -> int:
        return self._mach(xnu.TRAP_mach_reply_port)

    def mach_port_allocate(self) -> Tuple[int, int]:
        return self._mach(xnu.TRAP_mach_port_allocate)

    def mach_port_allocate_set(self) -> Tuple[int, int]:
        return self._mach(xnu.TRAP_mach_port_allocate_set)

    def mach_port_move_member(self, port_name: int, set_name: int) -> int:
        return self._mach(xnu.TRAP_mach_port_move_member, port_name, set_name)

    def mach_port_destroy(self, name: int) -> int:
        return self._mach(xnu.TRAP_mach_port_destroy, name)

    def mach_port_deallocate(self, name: int) -> int:
        return self._mach(xnu.TRAP_mach_port_deallocate, name)

    def mach_msg_send(
        self,
        dest: int,
        msg: MachMessage,
        reply_name: int = MACH_PORT_NULL,
        timeout_ns: Optional[float] = None,
    ) -> int:
        return self._mach(
            xnu.TRAP_mach_msg, xnu.MACH_SEND_MSG, dest, msg, reply_name, timeout_ns
        )

    def mach_msg_receive(
        self, name: int, timeout_ns: Optional[float] = None
    ) -> Tuple[int, Optional[MachMessage]]:
        return self._mach(
            xnu.TRAP_mach_msg, xnu.MACH_RCV_MSG, name, None, 0, timeout_ns
        )

    def mach_msg_rpc(
        self,
        dest: int,
        msg: MachMessage,
        timeout_ns: Optional[float] = None,
    ) -> Tuple[int, Optional[MachMessage]]:
        return self._mach(
            xnu.TRAP_mach_msg,
            xnu.MACH_SEND_MSG | xnu.MACH_RCV_MSG,
            dest,
            msg,
            0,
            timeout_ns,
        )

    # -- bootstrap (launchd) -----------------------------------------------------------------------

    def bootstrap_port(self) -> int:
        kr, name = self._mach(xnu.TRAP_task_get_bootstrap_port)
        return name if kr == KERN_SUCCESS else MACH_PORT_NULL

    def host_set_bootstrap_port(self, port_name: int) -> int:
        """launchd-only: install the host bootstrap port."""
        return self._mach(xnu.TRAP_host_set_bootstrap_port, port_name)

    def bootstrap_register(self, service_name: str, port_name: int) -> int:
        """Register a service port with launchd."""
        bootstrap = self.bootstrap_port()
        if bootstrap == MACH_PORT_NULL:
            return -1
        from ..xnu.ipc import MACH_MSG_TYPE_MAKE_SEND

        msg = MachMessage(
            msg_id=400,
            body={"op": "register", "name": service_name},
            # The service port right rides in the header's reply slot.
            reply_disposition=MACH_MSG_TYPE_MAKE_SEND,
        )
        code = self._mach(
            xnu.TRAP_mach_msg,
            xnu.MACH_SEND_MSG,
            bootstrap,
            msg,
            port_name,
            None,
        )
        return 0 if code == MACH_MSG_SUCCESS else -1

    def bootstrap_look_up(
        self, service_name: str, timeout_ns: Optional[float] = None
    ) -> int:
        """Resolve a service name to a send right (blocking RPC).

        ``timeout_ns`` bounds the RPC so a dead launchd (or an injected
        fault) yields MACH_PORT_NULL instead of a hang."""
        bootstrap = self.bootstrap_port()
        if bootstrap == MACH_PORT_NULL:
            return MACH_PORT_NULL
        msg = MachMessage(msg_id=404, body={"op": "lookup", "name": service_name})
        code, reply = self.mach_msg_rpc(bootstrap, msg, timeout_ns)
        if code != MACH_MSG_SUCCESS or reply is None:
            return MACH_PORT_NULL
        # The service right arrives as a body-carried port right.
        return reply.body_right_name

    # -- Mach semaphores ----------------------------------------------------------------------------

    def semaphore_create(self, value: int = 0) -> Tuple[int, int]:
        return self._mach(xnu.TRAP_semaphore_create, value)

    def semaphore_destroy(self, sema_id: int) -> int:
        return self._mach(xnu.TRAP_semaphore_destroy, sema_id)

    def semaphore_signal(self, sema_id: int) -> int:
        return self._mach(xnu.TRAP_semaphore_signal, sema_id)

    def semaphore_signal_all(self, sema_id: int) -> int:
        return self._mach(xnu.TRAP_semaphore_signal_all, sema_id)

    def semaphore_wait(self, sema_id: int) -> int:
        return self._mach(xnu.TRAP_semaphore_wait, sema_id)

    def semaphore_timedwait(self, sema_id: int, timeout_ns: float) -> int:
        return self._mach(xnu.TRAP_semaphore_timedwait, sema_id, timeout_ns)

    # -- machdep TLS ---------------------------------------------------------------------------------

    def set_cthread_self(self, value: object) -> object:
        return self._bsd(xnu.MACHDEP_set_cthread_self, value)

    def get_cthread_self(self) -> object:
        return self._mach(xnu.MACHDEP_get_cthread_self)

    # -- I/O Kit user API ------------------------------------------------------------------------------

    def io_service_get_matching_service(self, matching: dict) -> int:
        return self._mach(
            xnu.TRAP_iokit_user_client, "get_matching_service", matching
        )

    def io_registry_entry_get_property(self, service_id: int, key: str):
        return self._mach(
            xnu.TRAP_iokit_user_client, "get_property", service_id, key
        )

    def io_service_open(self, service_id: int) -> Tuple[int, int]:
        return self._mach(xnu.TRAP_iokit_user_client, "open", service_id)

    def io_connect_call_method(
        self, connect_id: int, selector: int, *args: object
    ) -> Tuple[int, object]:
        return self._mach(
            xnu.TRAP_iokit_user_client, "call_method", connect_id, selector, args
        )

    def io_service_close(self, connect_id: int) -> int:
        return self._mach(xnu.TRAP_iokit_user_client, "close", connect_id)

    # -- diagnostics ------------------------------------------------------------------------------------

    def kdebug_trace(self, *args: object) -> int:
        return self._mach(xnu.DIAG_kdebug_trace, *args)

    # -- Cider-specific ------------------------------------------------------------------------------------

    def set_persona(self, persona_name: str) -> object:
        """Call Cider's set_persona syscall (used by libdiplomat)."""
        return self._bsd(xnu.SYS_set_persona, persona_name)
