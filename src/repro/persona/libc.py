"""The C-library core that both personas' facades share.

Bionic (:mod:`repro.android.bionic`) and libSystem
(:mod:`repro.ios.libsystem`) differ in their trap numbers and in how a
failure comes back (``-errno`` against the carry flag, paper §4.1).  What
sits above their numbered wrappers is one implementation, kept here so
the two C libraries cannot drift apart.  Each facade supplies its
``LIB_STATE_KEY`` and two one-line hooks: reading one directory entry,
and the exit trap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..kernel.files import O_CREAT, O_TRUNC, O_WRONLY

if TYPE_CHECKING:
    from ..kernel.process import UserContext


class LibcCore:
    """The persona-independent half of a C-library facade bound to one
    user context.  It calls the subclass's numbered wrappers (``open``,
    ``socket``, ``kill`` ...).

    The atexit and atfork lists live in the process's per-library state
    under ``LIB_STATE_KEY``, so they survive across facade instances and
    are copied on fork like real COW data pages.
    """

    #: The facade's key in the process's per-library state.
    LIB_STATE_KEY: str

    def __init__(self, ctx: "UserContext") -> None:
        self._ctx = ctx
        self._kernel = ctx.kernel
        self._thread = ctx.thread

    def _state(self) -> dict:
        state = self._ctx.lib_state(self.LIB_STATE_KEY)
        state.setdefault("atexit", [])
        state.setdefault("atfork", [])
        return state

    @property
    def errno(self) -> int:
        return self._thread.errno

    # -- the facade's hooks ---------------------------------------------------------

    def _read_dirent(self, fd: int) -> object:
        """One directory entry of ``fd``: a name, or None or -1 at the end."""
        raise NotImplementedError

    def _exit_trap(self, code: int) -> None:
        raise NotImplementedError

    # -- files ------------------------------------------------------------------------

    def creat(self, path: str) -> int:
        return self.open(path, O_CREAT | O_WRONLY | O_TRUNC)

    def readdir(self, path: str) -> List[str]:
        """opendir/readdir/closedir in one convenience call."""
        fd = self.open(path)
        if fd == -1:
            return []
        names = []
        while True:
            name = self._read_dirent(fd)
            if name is None or name == -1:
                break
            names.append(name)
        self.close(fd)
        return names

    # -- name resolution --------------------------------------------------------------

    def getaddrinfo(self, name: str) -> Optional[str]:
        """Deterministic stub resolver.

        Encodes a plain-text query, ships it as a real UDP datagram to
        the in-sim DNS server (10.0.2.3:53) through the same sendto/
        recvfrom syscalls any app would use, and parses the answer.
        Returns the address string, or ``None`` (NXDOMAIN).  Bionic and
        libSystem make byte-for-byte the same wire exchange through
        their own trap numbers: the identical behaviour *is* the
        pass-through demonstration.

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

    # -- processes --------------------------------------------------------------------

    def exit(self, code: int = 0) -> None:
        """Run the atexit handlers (on iOS, the per-dylib exit callbacks
        dyld registered), then terminate the process.  Every entry is
        charged; dyld's are names, so only callables run, last
        registered first."""
        state = self._state()
        handlers = state["atexit"]
        if handlers:
            self._ctx.machine.charge("atexit_handler", len(handlers))
            for handler in list(filter(callable, reversed(handlers))):
                handler(self._ctx)
            handlers.clear()
        self._exit_trap(code)

    def atexit(self, handler: object) -> None:
        self._state()["atexit"].append(handler)

    def pthread_atfork(self, handler: object) -> None:
        self._state()["atfork"].append(handler)

    # -- signals ----------------------------------------------------------------------

    def raise_(self, signum: int) -> int:
        """Signal the calling process, in the facade's own numbering."""
        return self.kill(self.getpid(), signum)
