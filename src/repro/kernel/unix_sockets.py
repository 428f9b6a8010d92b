"""The socket layer both families share, and AF_UNIX stream sockets.

XNU and Linux share the BSD socket abstraction, so an iOS app's socket
calls reach the domestic kernel with no diplomat (paper §4.1, §5).
Behind the two ABI doors the two families share one layer as well:

* :class:`Stream` is one direction of a connected stream socket, an
  AF_UNIX pair's or a TCP connection's: its bytes, its open flag, the one
  wait queue its reader and its writer park on, and the causal carrier.
  :meth:`Stream.put` and :meth:`Stream.take` are every stream transfer;
  each is a happens-before edge for the race detector
  (:mod:`repro.sim.explore`), hands the carrier on
  (:mod:`repro.obs.causal`) and wakes the other side.
* :class:`Listener` is the state behind a listening socket, and
  :meth:`Socket.accept` the one accept loop.
* :class:`Socket` is the base of :class:`UnixSocket` and
  :class:`repro.net.sockets.INetSocket`.  Both answer the same calls
  (``bind``, ``listen``, ``connect``, ``accept``, ``sendto``,
  ``recvfrom``, ``setsockopt``, ``getsockopt``, ``getsockname``,
  ``shutdown``), so each socket syscall is one method call on the socket
  behind the descriptor.

Each family keeps its own charges, errnos and wait-queue names
(``unix-*``, ``inet-*``; thread dumps show them).  Pipes stay apart
(:mod:`repro.kernel.pipes`): their reader and writer park on two queues,
so draining a pipe never wakes a ``select`` waiting for its input.

AF_UNIX serves lmbench's lat_unix and, centrally for Cider, the channel
between the *CiderPress* proxy app and the *eventpump* thread inside each
iOS app (paper §5.2): CiderPress forwards Android input events over a BSD
socket, and the eventpump republishes them as Mach IPC messages.  Its
``bind`` also listens (the simulation has no separate AF_UNIX listen;
``listen`` only resizes the backlog).

This module builds socket objects only; every descriptor they become —
``socket``, ``accept``, ``socketpair`` — is minted through
:func:`repro.kernel.files.fd_alloc`, the single checked allocation path
where ``RLIMIT_NOFILE`` surfaces EMFILE.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from ..sim import WaitQueue
from .errno import (
    EAGAIN,
    ECONNREFUSED,
    EINVAL,
    ENOTSOCK,
    EOPNOTSUPP,
    EPIPE,
    SyscallError,
)
from .files import O_NONBLOCK, O_RDWR, OpenFile
from .vfs import SocketNode

if TYPE_CHECKING:
    from ..hw.machine import Machine

#: Per-direction stream buffer, both families.
SOCK_CAPACITY = 65536


class Stream:
    """One direction of a connected stream socket, either family."""

    __slots__ = ("buffer", "open", "waitq", "carrier")

    def __init__(self, queue_name: str) -> None:
        self.buffer = bytearray()
        self.open = True
        self.waitq = WaitQueue(queue_name)
        #: Causal carrier (repro.obs.causal) riding as metadata: set by
        #: the last traced write, consumed by the next read.  Never
        #: serialised, never charged.
        self.carrier = None

    def put(self, machine: "Machine", data: bytes) -> None:
        """Queue ``data`` for the reader; the writer's history rides
        along with it."""
        obs = machine.obs
        if obs is not None and obs.causal is not None:
            carrier = obs.causal.carrier()
            if carrier is not None:
                self.carrier = carrier
        hb = machine.hb
        if hb is not None:
            hb.release(self)
        self.buffer.extend(data)
        self.waitq.wake_all()  # readers blocked on empty

    def take(self, machine: "Machine", nbytes: int) -> bytes:
        """Hand the reader up to ``nbytes``: the writer's history arrives
        with them (the data edge) and the causal carrier is adopted."""
        data = bytes(self.buffer[:nbytes])
        del self.buffer[: len(data)]
        hb = machine.hb
        if hb is not None:
            hb.acquire(self)
        carrier, self.carrier = self.carrier, None
        if carrier is not None:
            obs = machine.obs
            if obs is not None and obs.causal is not None:
                obs.causal.adopt(carrier)
        self.waitq.wake_all()  # writers blocked on backpressure
        return data

    def close(self) -> None:
        """No more bytes: the reader drains and sees EOF."""
        self.open = False
        self.waitq.wake_all()


class Listener:
    """The state behind a listening socket, either family."""

    __slots__ = ("backlog", "pending", "waitq", "closed")

    def __init__(self, backlog: int, queue_name: str) -> None:
        self.backlog = backlog
        self.pending: Deque["Socket"] = deque()
        self.waitq = WaitQueue(queue_name)
        self.closed = False

    def enqueue(self, server_end: "Socket") -> None:
        """A connection arrived: its server end waits for ``accept``."""
        self.pending.append(server_end)
        self.waitq.wake_all()

    def close(self) -> None:
        self.closed = True
        self.waitq.wake_all()


class Socket(OpenFile):
    """What both families' sockets share: a connected socket's two
    streams, a listening socket's :class:`Listener`, and accept."""

    #: What one accept charges.
    accept_cost = "sock_transfer"
    #: ``SO_RCVTIMEO`` (virtual ns, 0 for none); it bounds accept too.
    recv_timeout_ns = 0.0

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine, O_RDWR)
        self.listener: Optional[Listener] = None
        self._rx: Optional[Stream] = None
        self._tx: Optional[Stream] = None

    def _attach(self, rx: Stream, tx: Stream) -> None:
        self._rx, self._tx = rx, tx
        # select() and kqueue park on the OpenFile wait queues: alias
        # them to the streams' so activity on the peer wakes them here.
        self.read_waitq = rx.waitq
        self.write_waitq = tx.waitq

    def _listen(self, backlog: int, queue_name: str) -> Listener:
        listener = self.listener = Listener(backlog, queue_name)
        # select()/kqueue readiness of a listener == pending connections.
        self.read_waitq = listener.waitq
        return listener

    def accept(self) -> "Socket":
        """Take one pending connection, blocking while there is none:
        EAGAIN under ``O_NONBLOCK`` or once ``SO_RCVTIMEO`` expires."""
        listener = self.listener
        if listener is None:
            raise SyscallError(EOPNOTSUPP, "not listening")
        kernel = self.machine.kernel
        while not listener.pending:
            if listener.closed:
                raise SyscallError(EINVAL, "listener closed")
            if self.flags & O_NONBLOCK:
                raise SyscallError(EAGAIN, "no pending connections")
            if not kernel.wait_interruptible(
                listener.waitq, self.recv_timeout_ns or None
            ):
                raise SyscallError(EAGAIN, "accept deadline expired")
        self.machine.charge(self.accept_cost)
        return listener.pending.popleft()

    def poll_readable(self) -> bool:
        if self.listener is not None:
            return bool(self.listener.pending)
        rx = self._rx
        return rx is not None and (bool(rx.buffer) or not rx.open)

    def poll_writable(self) -> bool:
        tx = self._tx
        return tx is not None and (len(tx.buffer) < SOCK_CAPACITY or not tx.open)

    def on_last_close(self) -> None:
        for stream in (self._tx, self._rx):
            if stream is not None:
                stream.close()
        if self.listener is not None:
            self.listener.close()


class UnixSocket(Socket):
    """One AF_UNIX stream endpoint.  Created unconnected; becomes
    connected via connect/accept or socketpair."""

    def __init__(self, machine: "Machine") -> None:
        super().__init__(machine)
        self.bound_path: Optional[str] = None

    # -- addresses and connections -------------------------------------------

    def bind(self, path: object, backlog: int = 8) -> None:
        """Name the socket, then listen on it: a path that exists fails
        with EADDRINUSE and leaves the socket unbound."""
        path = str(path)
        node = self.machine.kernel.vfs.bind_socket(path)
        node.listener = self._listen(backlog, "unix-accept")
        self.bound_path = path

    def listen(self, backlog: int = 128) -> None:
        """Resize the backlog of the listener ``bind`` made."""
        if self.listener is None:
            raise SyscallError(EOPNOTSUPP, "listen before bind")
        self.listener.backlog = backlog

    def connect(self, path: object) -> None:
        """Connect to a bound path; the peer end waits for ``accept``."""
        path = str(path)
        node = self.machine.kernel.vfs.resolve(path)
        if not isinstance(node, SocketNode):
            raise SyscallError(ENOTSOCK, path)
        listener = node.listener
        if not isinstance(listener, Listener) or listener.closed:
            raise SyscallError(ECONNREFUSED, path)
        if len(listener.pending) >= listener.backlog:
            raise SyscallError(EAGAIN, "backlog full")
        peer = UnixSocket(self.machine)
        _pair(self, peer)
        listener.enqueue(peer)

    def getsockname(self) -> Optional[str]:
        return self.bound_path

    def setsockopt(self, level: int, option: int, value: object) -> None:
        """AF_UNIX takes every option and honours none."""

    def getsockopt(self, level: int, option: int) -> object:
        return 0

    # -- I/O ------------------------------------------------------------------

    def read(self, nbytes: int) -> bytes:
        rx = self._rx
        if rx is None:
            raise SyscallError(EINVAL, "socket not connected")
        while not rx.buffer:
            if not rx.open:
                return b""
            if self.flags & O_NONBLOCK:
                raise SyscallError(EAGAIN, "socket empty")
            self.machine.kernel.wait_interruptible(rx.waitq)
        self.machine.charge("sock_transfer")
        return rx.take(self.machine, nbytes)

    def write(self, data: bytes) -> int:
        tx = self._tx
        if tx is None:
            raise SyscallError(EINVAL, "socket not connected")
        if not tx.open:
            raise SyscallError(EPIPE, "peer closed")
        while len(tx.buffer) >= SOCK_CAPACITY:
            if self.flags & O_NONBLOCK:  # same contract as repro.net
                raise SyscallError(EAGAIN, "send buffer full")
            self.machine.kernel.wait_interruptible(tx.waitq)
            if not tx.open:
                raise SyscallError(EPIPE, "peer closed")
        self.machine.charge("sock_transfer")
        tx.put(self.machine, data)
        return len(data)

    def sendto(self, data: bytes, addr: object = None) -> int:
        if addr is not None:
            raise SyscallError(EINVAL, "sendto with address on AF_UNIX stream")
        return self.write(data)

    def recvfrom(self, nbytes: int):
        """Returns ``(data, None)``: a stream peer has no address."""
        return self.read(nbytes), None

    def shutdown(self, how: int) -> None:
        """SHUT_WR/RDWR close the transmit stream (the peer reads EOF),
        SHUT_RD/RDWR the receive one (reads here return EOF, the peer's
        writes fail with EPIPE)."""
        if how not in (0, 1, 2):
            raise SyscallError(EINVAL, f"shutdown how={how}")
        if how >= 1 and self._tx is not None:
            self._tx.close()
        if how in (0, 2) and self._rx is not None:
            self._rx.close()


def _pair(left: UnixSocket, right: UnixSocket) -> None:
    """Connect two endpoints with a stream each way."""
    left_to_right = Stream("unix-stream")
    right_to_left = Stream("unix-stream")
    left._attach(right_to_left, left_to_right)
    right._attach(left_to_right, right_to_left)


def socketpair(machine: "Machine"):
    """Create a connected pair (the simplest way CiderPress and the
    eventpump get a channel)."""
    left = UnixSocket(machine)
    right = UnixSocket(machine)
    _pair(left, right)
    return left, right
