"""INET sockets: TCP-like streams and UDP-like datagrams.

One implementation serves **both** personas.  The Linux syscall table and
the XNU BSD table (``repro.compat.xnu_abi``) register the same handler
functions for the whole socket family, so an iOS app's ``connect`` and an
Android app's ``connect`` land on the identical code below — the paper's
pass-through path.  The only per-persona difference is the ABI edge
(dispatch cost, error convention), which ``tests/test_net.py`` measures.

Cost model (all charged to the calling thread's virtual clock):

* CPU: ``net_socket_create`` / ``net_bind`` / ``net_listen`` /
  ``net_connect_cpu`` / ``net_accept_cpu`` once per call;
  ``net_tx_per_segment`` / ``net_rx_per_segment`` once per MTU-sized frame;
  ``net_tx_per_kb`` / ``net_rx_per_kb`` for the buffer copies.
* Link (from the route's :class:`~repro.hw.profiles.LinkProfile`):
  ``latency_ns`` per flight — the TCP handshake pays 1.5 RTT (SYN,
  SYN-ACK, ACK), every send flight pays one propagation delay, and a
  windowed stream pays one extra RTT each time a congestion window's worth
  (64 KB) of unacknowledged bytes accumulates; ``ns_per_kb`` serialisation
  for every byte on the wire.

Cross-cutting wiring:

* **faults** — ``net.connect`` (ECONNREFUSED / ETIMEDOUT / transient
  delay) and ``net.send`` (errno, or delay == "segment dropped, pay the
  retransmission timeout and one RTT", logged as a ``DROP`` line so the
  packet log itself witnesses the injected loss deterministically);
  plus the link-condition points ``net.partition`` (segment lost,
  ``PART`` log line, caller retransmits/gives up), ``net.degrade``
  (extra in-flight delay) and ``net.corrupt`` (bit-flip caught by the
  per-segment checksum: ``CSUM`` line, dropped, retransmitted — never
  delivered).  The same three behaviours run scheduled via
  :class:`~repro.net.conditions.LinkSchedule`;
* **deadlines** — ``SO_RCVTIMEO``/``SO_SNDTIMEO`` bound every blocking
  path with EAGAIN, ``SO_KEEPALIVE`` probes a silent peer every
  ``TCP_KEEPIDLE`` and resets after ``TCP_KEEPCNT`` losses, and
  ``TCP_USER_TIMEOUT`` plus the kernel retransmission cap bound the
  write-side retransmit loop — a partitioned peer always surfaces
  ETIMEDOUT/ECONNRESET in bounded virtual time, never a hang;
* **resources** — every socket reserves its send+receive buffers from the
  machine RAM envelope (ENOBUFS when scarce) and every descriptor is
  minted through the checked ``fd_alloc`` path (RLIMIT_NOFILE ⇒ EMFILE);
* **obs** — ``kernel.net.send`` / ``kernel.net.recv`` spans, aggregate and
  per-socket byte counters.

Blocking semantics run through the deterministic scheduler exactly like
AF_UNIX sockets: ``accept`` on an empty backlog, ``read`` on an empty
stream, ``recvfrom`` on an empty queue and ``write`` against a full peer
buffer all park on wait queues — or raise EAGAIN under ``O_NONBLOCK``.
``read_waitq`` / ``write_waitq`` are aliased to the live queues so
``select``/``poll`` and the iOS ``kqueue`` (EVFILT_READ/EVFILT_WRITE)
integrate with no socket-specific code.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from ..sim import WaitQueue
from ..kernel.errno import (
    EAGAIN,
    ECONNREFUSED,
    ECONNRESET,
    EINVAL,
    EISCONN,
    EMSGSIZE,
    ENOBUFS,
    ENOTCONN,
    EOPNOTSUPP,
    EPIPE,
    ETIMEDOUT,
    SyscallError,
)
from ..kernel.files import O_NONBLOCK, O_RDWR, OpenFile
from .netstack import DNS_PORT, DNS_SERVERS, LOOPBACK_IP, WILDCARD_IP, NetStack

if TYPE_CHECKING:
    from ..hw.machine import Machine
    from ..hw.profiles import LinkProfile

# -- address/protocol constants (Linux values) ---------------------------------
AF_UNIX = 1
AF_INET = 2
SOCK_STREAM = 1
SOCK_DGRAM = 2

SHUT_RD = 0
SHUT_WR = 1
SHUT_RDWR = 2

SOL_SOCKET = 1
SO_REUSEADDR = 2
SO_SNDBUF = 7
SO_RCVBUF = 8
SO_KEEPALIVE = 9
#: Receive/send deadlines (values are virtual nanoseconds; 0 disables —
#: the sim's analogue of ``struct timeval``).  POSIX semantics: an
#: expired deadline surfaces EAGAIN, exactly like a real SO_RCVTIMEO.
SO_RCVTIMEO = 20
SO_SNDTIMEO = 21
IPPROTO_TCP = 6
TCP_NODELAY = 1
TCP_KEEPIDLE = 4
TCP_KEEPCNT = 6
#: Abort a write whose retransmissions make no progress for this long
#: (virtual ns; Linux ``TCP_USER_TIMEOUT``).  Surfaces ETIMEDOUT and
#: resets the connection.
TCP_USER_TIMEOUT = 18

#: Per-direction stream buffer (and the congestion window).
SOCK_CAPACITY = 65536
TCP_WINDOW = 65536
#: RAM the envelope charges per socket: send + receive buffer halves.
SOCK_RAM_BYTES = SOCK_CAPACITY
#: Largest UDP payload (IPv4 65535 - 8 UDP - 20 IP).
UDP_MAX_PAYLOAD = 65507
#: Datagram receive queue depth; beyond it the stack drops (logged).
UDP_QUEUE_DEPTH = 64

#: TCP retransmission timeout paid per segment lost to a partition or a
#: checksum drop (virtual ns), and the kernel's retransmission cap: after
#: this many consecutive losses of one segment the connection is reset
#: (Linux gives up after ~15 retries too), so a permanent partition can
#: never hang a writer even without TCP_USER_TIMEOUT configured.
TCP_RTO_NS = 3_000_000
TCP_MAX_RETRANSMITS = 15
#: Handshake retry policy under a partition: SYN retransmission timeout
#: (doubles per attempt) and the retry budget before ETIMEDOUT.
TCP_SYN_RTO_NS = 2_000_000
TCP_SYN_RETRIES = 5
#: Keepalive defaults (virtual ns): probe interval while a reader blocks
#: on a silent connection, and consecutive lost probes before reset.
TCP_KEEPIDLE_NS = 50_000_000
TCP_KEEPCNT_DEFAULT = 3

Addr = Tuple[str, int]


class _NetStream:
    """One direction of a TCP connection."""

    __slots__ = ("buffer", "open", "waitq", "unacked", "carrier")

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.open = True
        self.waitq = WaitQueue("inet-stream")
        #: Bytes sent since the window model last charged an ACK RTT.
        self.unacked = 0
        #: Causal carrier riding in segment metadata (repro.obs.causal):
        #: set by the last traced write, consumed by the next read.
        #: Pure metadata — never serialised, never charged.
        self.carrier = None


class TCPConnection:
    """A full-duplex virtual TCP connection (two streams, one link)."""

    __slots__ = ("link", "a_to_b", "b_to_a", "client_addr", "server_addr",
                 "reset")

    def __init__(self, link: "LinkProfile", client_addr: Addr, server_addr: Addr) -> None:
        self.link = link
        self.a_to_b = _NetStream()  # client -> server
        self.b_to_a = _NetStream()  # server -> client
        self.client_addr = client_addr
        self.server_addr = server_addr
        #: RST state: set by keepalive/user-timeout/retransmit-cap
        #: expiry; both ends' next read raises ECONNRESET.
        self.reset = False


class TCPListener:
    """State behind a listening INET stream socket."""

    __slots__ = ("addr", "backlog", "pending", "accept_waitq", "closed")

    def __init__(self, addr: Addr, backlog: int) -> None:
        self.addr = addr
        self.backlog = backlog
        self.pending: Deque["INetSocket"] = deque()
        self.accept_waitq = WaitQueue("inet-accept")
        self.closed = False


class INetSocket(OpenFile):
    """One AF_INET endpoint (stream or datagram)."""

    def __init__(self, machine: "Machine", sock_type: int = SOCK_STREAM) -> None:
        super().__init__(machine, O_RDWR)
        if sock_type not in (SOCK_STREAM, SOCK_DGRAM):
            raise SyscallError(EINVAL, f"socket type {sock_type}")
        self.stack: NetStack = machine.net
        self.type = sock_type
        self.sock_id = machine.next_id("inet-socket")
        self.local: Optional[Addr] = None
        self.peer: Optional[Addr] = None
        self.listener: Optional[TCPListener] = None
        self.connection: Optional[TCPConnection] = None
        self._rx: Optional[_NetStream] = None
        self._tx: Optional[_NetStream] = None
        self.options: dict = {}
        self.shut_rd = False
        self.shut_wr = False
        # Deadline/keepalive policy (virtual ns; 0 = disabled), set via
        # setsockopt and honoured by every blocking path below.
        self.recv_timeout_ns = 0.0   # SO_RCVTIMEO: read/accept/recvfrom
        self.send_timeout_ns = 0.0   # SO_SNDTIMEO: write against backpressure
        self.keepalive = False       # SO_KEEPALIVE: probe idle connections
        self.user_timeout_ns = 0.0   # TCP_USER_TIMEOUT: cap retransmission
        self.keepidle_ns = float(TCP_KEEPIDLE_NS)
        self.keepcnt = TCP_KEEPCNT_DEFAULT
        #: Datagram receive queue: (payload, source address, causal
        #: carrier) triples — the carrier is packet metadata, never data.
        self._dgrams: Deque[Tuple[bytes, Addr, object]] = deque()
        if sock_type == SOCK_DGRAM:
            self.read_waitq = self._dgram_waitq = WaitQueue("inet-dgram")
        # Socket buffers are real memory: charge the machine envelope.
        self._ram_reserved = 0
        res = machine.resources
        if res is not None:
            if not res.reserve_ram(SOCK_RAM_BYTES, owner=f"net:sock{self.sock_id}"):
                raise SyscallError(ENOBUFS, "no buffer space available")
            self._ram_reserved = SOCK_RAM_BYTES
        machine.charge("net_socket_create")

    # -- helpers ------------------------------------------------------------

    def _nonblock(self) -> bool:
        return bool(self.flags & O_NONBLOCK)

    def _kernel(self):
        return self.machine.kernel  # type: ignore[attr-defined]

    def _src_ip_for(self, dst_ip: str) -> str:
        return LOOPBACK_IP if dst_ip == LOOPBACK_IP else self.stack.host_ip

    def _autobind(self, dst_ip: str) -> Addr:
        if self.local is None:
            self.local = (self._src_ip_for(dst_ip), self.stack.ephemeral_port())
            if self.type == SOCK_DGRAM:
                self.stack.claim_udp(self.local, self)
        return self.local

    def _block_interruptible(self, waitq: WaitQueue, timeout_ns: float) -> bool:
        """Deadline-bounded interruptible block: True when woken by
        activity, False when the virtual-time deadline expired first."""
        machine = self.machine
        woken = machine.scheduler.block_on_timeout(waitq, timeout_ns)
        kernel = self._kernel()
        thread = kernel.current_kthread_or_none()
        if thread is not None:
            kernel.check_interrupted(thread)
        return woken

    def _reset_connection(self, why: str) -> None:
        """RST both directions (keepalive/user-timeout/retransmit-cap
        expiry): wake every parked thread so nothing blocks forever, and
        make the peer's next read raise ECONNRESET."""
        connection = self.connection
        if connection is None or connection.reset:
            return
        connection.reset = True
        connection.a_to_b.open = False
        connection.b_to_a.open = False
        connection.a_to_b.waitq.wake_all()
        connection.b_to_a.waitq.wake_all()
        machine = self.machine
        machine.emit("net", "reset", sock=self.sock_id, why=why)
        machine.count("kernel.net.resets")

    def _keepalive_probe(self, connection: TCPConnection, misses: int) -> int:
        """One keepalive probe over an idle connection; returns the
        updated consecutive-miss count, resetting the connection and
        raising ETIMEDOUT when ``keepcnt`` probes vanish in a row."""
        machine = self.machine
        stack = self.stack
        link = connection.link
        src, dst = self.local, self.peer
        assert src is not None and dst is not None
        stack.keepalive_probes += 1
        down = False
        if machine.faults is not None:
            outcome = machine.faults.check(
                "net.partition", dst=f"{dst[0]}:{dst[1]}", sock=self.sock_id,
                phase="keepalive",
            )
            if outcome is not None:
                down = True  # any outcome here == probe lost to the void
        if not down and (stack.schedule is not None or stack.peers):
            state = stack.conditions_for(dst[0], machine.clock.now_ns)
            if state is not None and state.down:
                down = True
        machine.charge_ns(2 * link.latency_ns)  # probe + ACK round trip
        if not down:
            stack.log_segment("TCP", src, dst, 0, flag="KA")
            return 0
        stack.log_segment("TCP", src, dst, 0, flag="KA-DROP")
        stack.drops += 1
        stack.partition_drops += 1
        misses += 1
        if misses >= self.keepcnt:
            self._reset_connection("keepalive timeout")
            raise SyscallError(ETIMEDOUT, "keepalive timeout")
        return misses

    # -- address plumbing ---------------------------------------------------

    def bind(self, addr: Addr) -> None:
        if self.local is not None:
            raise SyscallError(EINVAL, "already bound")
        ip, port = addr
        if not self.stack.is_local(ip):
            raise SyscallError(EINVAL, f"cannot bind non-local address {ip}")
        if port == 0:
            port = self.stack.ephemeral_port()
        self.machine.charge("net_bind")
        addr = (ip, port)
        # Claim the port *at bind time* (EADDRINUSE surfaces here, as on
        # real stacks); listen() later promotes the TCP claim to the
        # listener object.
        if self.type == SOCK_DGRAM:
            self.stack.claim_udp(addr, self)
        else:
            self.stack.claim_tcp(addr, self)
        self.local = addr

    def listen(self, backlog: int = 128) -> None:
        if self.type != SOCK_STREAM:
            raise SyscallError(EOPNOTSUPP, "listen on datagram socket")
        if self.local is None:
            raise SyscallError(EINVAL, "listen before bind")
        if self.listener is not None:
            self.listener.backlog = backlog
            return
        self.machine.charge("net_listen")
        listener = TCPListener(self.local, backlog)
        self.stack.promote_tcp(self.local, self, listener)
        self.listener = listener
        # select()/kqueue readiness of a listener == pending connections.
        self.read_waitq = listener.accept_waitq

    def getsockname(self) -> Addr:
        return self.local if self.local is not None else (WILDCARD_IP, 0)

    def getpeername(self) -> Addr:
        if self.peer is None:
            raise SyscallError(ENOTCONN, "not connected")
        return self.peer

    def setsockopt(self, level: int, option: int, value: object) -> None:
        if level == SOL_SOCKET:
            if option == SO_RCVTIMEO:
                self.recv_timeout_ns = float(value) if value else 0.0  # type: ignore[arg-type]
            elif option == SO_SNDTIMEO:
                self.send_timeout_ns = float(value) if value else 0.0  # type: ignore[arg-type]
            elif option == SO_KEEPALIVE:
                self.keepalive = bool(value)
        elif level == IPPROTO_TCP:
            if option == TCP_USER_TIMEOUT:
                self.user_timeout_ns = float(value) if value else 0.0  # type: ignore[arg-type]
            elif option == TCP_KEEPIDLE:
                self.keepidle_ns = float(value) if value else float(TCP_KEEPIDLE_NS)  # type: ignore[arg-type]
            elif option == TCP_KEEPCNT:
                self.keepcnt = int(value) if value else TCP_KEEPCNT_DEFAULT  # type: ignore[call-overload]
        self.options[(level, option)] = value

    def getsockopt(self, level: int, option: int) -> object:
        return self.options.get((level, option), 0)

    # -- connection establishment ------------------------------------------

    def connect(self, addr: Addr) -> None:
        machine = self.machine
        dst_ip, dst_port = addr
        if self.type == SOCK_DGRAM:
            # Datagram connect only fixes the default destination.
            self.stack.route(dst_ip)
            self._autobind(dst_ip)
            self.peer = (dst_ip, dst_port)
            return
        if self.connection is not None:
            raise SyscallError(EISCONN, "already connected")
        link = self.stack.route(dst_ip)
        if machine.faults is not None:
            outcome = machine.faults.check(
                "net.connect", dst=f"{dst_ip}:{dst_port}", sock=self.sock_id
            )
            if outcome is not None:
                if outcome.kind == "delay":
                    machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
                elif outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        "fault injected: connect",
                    )
                else:
                    raise SyscallError(ETIMEDOUT, "fault injected: connect")
        # SYN blackout: while the link is partitioned (scheduled window or
        # net.partition fault), SYNs vanish.  Retransmit with exponential
        # backoff — TCP_SYN_RETRIES lost SYNs surface ETIMEDOUT, so a
        # permanent partition can never hang a connecting thread.
        stack = self.stack
        if (
            machine.faults is not None
            or stack.schedule is not None
            or stack.peers
        ):
            attempts = 0
            while True:
                down = False
                if machine.faults is not None:
                    outcome = machine.faults.check(
                        "net.partition", dst=f"{dst_ip}:{dst_port}",
                        sock=self.sock_id, phase="connect",
                    )
                    if outcome is not None:
                        if outcome.kind == "errno":
                            raise SyscallError(
                                int(outcome.value),  # type: ignore[call-overload]
                                "fault injected: partition",
                            )
                        if outcome.kind == "delay":
                            machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
                        down = True
                if not down:
                    state = stack.conditions_for(dst_ip, machine.clock.now_ns)
                    if state is not None and state.down:
                        down = True
                if not down:
                    break
                attempts += 1
                # No ephemeral port is consumed by a blacked-out SYN: the
                # probe logs with port 0 so refused/timed-out connects
                # keep today's port numbering byte-identical.
                probe_src = (self._src_ip_for(dst_ip), 0)
                stack.log_segment(
                    "TCP", probe_src, (dst_ip, dst_port), 0, flag="SYN-DROP"
                )
                stack.drops += 1
                stack.partition_drops += 1
                machine.charge_ns(TCP_SYN_RTO_NS * (2 ** (attempts - 1)))
                if attempts >= TCP_SYN_RETRIES:
                    raise SyscallError(
                        ETIMEDOUT, "connection timed out (partition)"
                    )
        # The listening socket may live on a peer machine reached over
        # the segment (NetStack.connect_peer); the server endpoint must
        # be built on the *listener's* machine so its reads/writes charge
        # that machine's clock and RAM envelope.
        remote = self.stack.stack_for(dst_ip)
        listener = remote.lookup_tcp(dst_ip, dst_port)
        if not isinstance(listener, TCPListener) or listener.closed:
            # Nothing there, or a bound-but-not-listening placeholder.
            raise SyscallError(ECONNREFUSED, f"{dst_ip}:{dst_port}")
        if len(listener.pending) >= listener.backlog:
            # SYN dropped by a full backlog => RST in this model.
            raise SyscallError(ECONNREFUSED, "backlog full")
        src = self._autobind(dst_ip)
        dst = (dst_ip, dst_port)
        # Handshake: SYN / SYN-ACK / ACK = 1.5 RTT of flight time plus
        # connect-side CPU; each control segment lands in the packet log.
        # A degraded window stretches the flight time by its latency
        # multiplier (the expression is untouched when no schedule runs).
        machine.charge("net_connect_cpu")
        handshake_ns: float = 3 * link.latency_ns
        if self.stack.schedule is not None or self.stack.peers:
            state = self.stack.conditions_for(dst_ip, machine.clock.now_ns)
            if state is not None:
                handshake_ns *= state.latency_x
        machine.charge_ns(handshake_ns)
        self.stack.log_segment("TCP", src, dst, 0, flag="SYN")
        self.stack.log_segment("TCP", dst, src, 0, flag="SYN-ACK")
        self.stack.log_segment("TCP", src, dst, 0, flag="ACK")
        connection = TCPConnection(link, src, dst)
        self._attach(connection, client_side=True)
        self.peer = dst
        server_end = INetSocket(remote.machine, SOCK_STREAM)
        server_end.local = dst
        server_end.peer = src
        server_end._attach(connection, client_side=False)
        listener.pending.append(server_end)
        listener.accept_waitq.wake_all()

    def _attach(self, connection: TCPConnection, client_side: bool) -> None:
        self.connection = connection
        if client_side:
            self._rx, self._tx = connection.b_to_a, connection.a_to_b
        else:
            self._rx, self._tx = connection.a_to_b, connection.b_to_a
        # select()/kqueue park on the OpenFile wait queues: alias them to
        # the stream queues so peer activity wakes waiters here.
        self.read_waitq = self._rx.waitq
        self.write_waitq = self._tx.waitq

    def accept(self) -> "INetSocket":
        listener = self.listener
        if listener is None:
            raise SyscallError(EOPNOTSUPP, "not listening")
        machine = self.machine
        while not listener.pending:
            if listener.closed:
                raise SyscallError(EINVAL, "listener closed")
            if self._nonblock():
                raise SyscallError(EAGAIN, "no pending connections")
            if self.recv_timeout_ns:
                if not self._block_interruptible(
                    listener.accept_waitq, self.recv_timeout_ns
                ):
                    raise SyscallError(EAGAIN, "accept deadline expired")
            else:
                self._kernel().wait_interruptible(listener.accept_waitq)
        machine.charge("net_accept_cpu")
        return listener.pending.popleft()

    # -- readiness ----------------------------------------------------------

    def poll_readable(self) -> bool:
        if self.listener is not None:
            return bool(self.listener.pending)
        if self.type == SOCK_DGRAM:
            return bool(self._dgrams)
        if self._rx is None:
            return False
        return bool(self._rx.buffer) or not self._rx.open or self.shut_rd

    def poll_writable(self) -> bool:
        if self.type == SOCK_DGRAM:
            return True
        if self._tx is None:
            return False
        return len(self._tx.buffer) < SOCK_CAPACITY or not self._tx.open

    # -- the shared transmit path (TCP and UDP both charge through here) ----

    def _charge_tx(self, link: "LinkProfile", nbytes: int, src: Addr, dst: Addr,
                   proto: str) -> bool:
        """Charge one send flight; returns False if an injected loss
        consumed it (UDP: datagram gone, TCP: caller retransmits)."""
        machine = self.machine
        stack = self.stack
        dropped = False
        if machine.faults is not None:
            outcome = machine.faults.check(
                "net.send", dst=f"{dst[0]}:{dst[1]}", size=nbytes, sock=self.sock_id
            )
            if outcome is not None:
                if outcome.kind == "delay":
                    # The segment is lost in flight: log the drop, pay the
                    # retransmission timeout plus one RTT, then (for TCP)
                    # send again.  The injected loss is *in* the packet
                    # log, so same-seed runs still diff clean.
                    stack.log_segment(proto, src, dst, nbytes, flag="DROP")
                    stack.drops += 1
                    machine.charge_ns(float(outcome.value) + 2 * link.latency_ns)  # type: ignore[arg-type]
                    dropped = True
                elif outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        "fault injected: send",
                    )
                else:
                    raise SyscallError(ECONNRESET, "fault injected: send")
        corrupted = False
        lat_x = 1.0
        bw_x = 1.0
        if machine.faults is not None and not dropped:
            detail = dict(dst=f"{dst[0]}:{dst[1]}", size=nbytes, sock=self.sock_id)
            outcome = machine.faults.check("net.partition", phase="send", **detail)
            if outcome is not None:
                if outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        "fault injected: partition",
                    )
                # The segment never crosses the wire: pay the
                # retransmission timeout (or the injected delay) plus one
                # RTT, then hand the loss back to the caller — TCP
                # retransmits (bounded), UDP gives the datagram up.
                stack.log_segment(proto, src, dst, nbytes, flag="PART")
                stack.drops += 1
                stack.partition_drops += 1
                wait_ns = (
                    float(outcome.value)  # type: ignore[arg-type]
                    if outcome.kind == "delay" and outcome.value
                    else TCP_RTO_NS
                )
                machine.charge_ns(wait_ns + 2 * link.latency_ns)
                return False
            outcome = machine.faults.check("net.degrade", phase="send", **detail)
            if outcome is not None:
                if outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        "fault injected: degrade",
                    )
                if outcome.kind == "delay" and outcome.value:
                    machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
            outcome = machine.faults.check("net.corrupt", phase="send", **detail)
            if outcome is not None:
                if outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        "fault injected: corrupt",
                    )
                corrupted = True
        if not dropped and (stack.schedule is not None or stack.peers):
            state = stack.conditions_for(dst[0], machine.clock.now_ns)
            if state is not None:
                if state.down:
                    # Scheduled partition window: same loss contract as
                    # the net.partition fault above.
                    stack.log_segment(proto, src, dst, nbytes, flag="PART")
                    stack.drops += 1
                    stack.partition_drops += 1
                    machine.charge_ns(TCP_RTO_NS + 2 * link.latency_ns)
                    return False
                lat_x = state.latency_x
                bw_x = state.bandwidth_x
                if state.corrupt_every and stack.corrupt_take(
                    dst[0], state.corrupt_every
                ):
                    corrupted = True
        segments = -(-nbytes // link.mtu) if nbytes else 1
        kb = max(1, -(-nbytes // 1024)) if nbytes else 0
        with machine.span("kernel.net.send", proto, sock=self.sock_id, bytes=nbytes):
            machine.charge("net_tx_per_segment", segments)
            if kb:
                machine.charge("net_tx_per_kb", kb)
            # Serialisation + one propagation delay for the flight (a
            # degraded window multiplies both terms; 1.0 when clean, so
            # the charge is bit-identical with conditions off).
            machine.charge_ns(
                link.ns_per_kb * bw_x * (nbytes / 1024.0) + link.latency_ns * lat_x
            )
            if dropped and self.type == SOCK_DGRAM:
                return False
            if corrupted:
                # The per-segment checksum catches the bit-flip on the
                # far side: the damaged segment is logged, counted,
                # dropped, and never delivered — the sender pays one
                # retransmission timeout and goes again.
                stack.log_segment(proto, src, dst, nbytes, flag="CSUM")
                stack.drops += 1
                stack.csum_drops += 1
                machine.charge_ns(TCP_RTO_NS)
                return False
            stack.log_segment(proto, src, dst, nbytes, flag=f"segs={segments}")
            stack.segments_sent += segments
            stack.bytes_sent += nbytes
        machine.count("kernel.net.bytes_sent", nbytes)
        return True

    def _charge_rx(self, link: "LinkProfile", nbytes: int, proto: str) -> None:
        machine = self.machine
        segments = -(-nbytes // link.mtu) if nbytes else 1
        kb = max(1, -(-nbytes // 1024)) if nbytes else 0
        with machine.span("kernel.net.recv", proto, sock=self.sock_id, bytes=nbytes):
            machine.charge("net_rx_per_segment", segments)
            if kb:
                machine.charge("net_rx_per_kb", kb)
        self.stack.bytes_received += nbytes
        machine.count("kernel.net.bytes_received", nbytes)

    # -- stream I/O ----------------------------------------------------------

    def write(self, data: bytes) -> int:
        if self.type == SOCK_DGRAM:
            if self.peer is None:
                raise SyscallError(ENOTCONN, "datagram socket not connected")
            return self.sendto(data, self.peer)
        if self._tx is None:
            raise SyscallError(ENOTCONN, "socket not connected")
        connection = self.connection
        if connection is not None and connection.reset:
            raise SyscallError(ECONNRESET, "connection reset by peer")
        if self.shut_wr or not self._tx.open:
            raise SyscallError(EPIPE, "peer closed")
        tx = self._tx
        while len(tx.buffer) >= SOCK_CAPACITY:
            if self._nonblock():
                raise SyscallError(EAGAIN, "send buffer full")
            if self.send_timeout_ns:
                if not self._block_interruptible(tx.waitq, self.send_timeout_ns):
                    raise SyscallError(EAGAIN, "send deadline expired")
            else:
                self._kernel().wait_interruptible(tx.waitq)
            if connection is not None and connection.reset:
                raise SyscallError(ECONNRESET, "connection reset by peer")
            if not tx.open:
                raise SyscallError(EPIPE, "peer closed")
        connection = self.connection
        assert connection is not None
        link = connection.link
        src, dst = (self.local, self.peer)
        assert src is not None and dst is not None
        start_ns = self.machine.clock.now_ns
        retries = 0
        while not self._charge_tx(link, len(data), src, dst, "TCP"):
            # TCP retransmits the lost segment until it lands — bounded
            # by TCP_USER_TIMEOUT and the kernel retransmission cap, so a
            # permanent partition surfaces ETIMEDOUT instead of spinning.
            if connection.reset:
                raise SyscallError(ECONNRESET, "connection reset by peer")
            retries += 1
            if (
                self.user_timeout_ns
                and self.machine.clock.now_ns - start_ns >= self.user_timeout_ns
            ):
                self._reset_connection("tcp user timeout")
                raise SyscallError(ETIMEDOUT, "tcp user timeout")
            if retries >= TCP_MAX_RETRANSMITS:
                self._reset_connection("retransmission cap")
                raise SyscallError(ETIMEDOUT, "retransmission cap reached")
        # Windowed send: one ACK round trip per congestion window's worth
        # of unacknowledged bytes.
        tx.unacked += len(data)
        stalls = tx.unacked // TCP_WINDOW
        if stalls:
            self.machine.charge_ns(stalls * 2 * link.latency_ns)
            tx.unacked -= stalls * TCP_WINDOW
        obs = self.machine.obs
        if obs is not None and obs.causal is not None:
            carrier = obs.causal.carrier()
            if carrier is not None:
                tx.carrier = carrier
        tx.buffer.extend(data)
        tx.waitq.wake_all()  # readers blocked on empty
        return len(data)

    def read(self, nbytes: int) -> bytes:
        if self.type == SOCK_DGRAM:
            data, _addr = self.recvfrom(nbytes)
            return data
        if self._rx is None:
            raise SyscallError(ENOTCONN, "socket not connected")
        rx = self._rx
        connection = self.connection
        misses = 0
        while not rx.buffer:
            if connection is not None and connection.reset:
                raise SyscallError(ECONNRESET, "connection reset by peer")
            if not rx.open or self.shut_rd:
                return b""
            if self._nonblock():
                raise SyscallError(EAGAIN, "socket empty")
            if self.keepalive and connection is not None:
                # Probe the silent peer every keepidle interval; keepcnt
                # consecutive lost probes reset the connection, so a
                # reader behind a partition unblocks with ETIMEDOUT.
                if self._block_interruptible(rx.waitq, self.keepidle_ns):
                    misses = 0
                else:
                    misses = self._keepalive_probe(connection, misses)
            elif self.recv_timeout_ns:
                if not self._block_interruptible(rx.waitq, self.recv_timeout_ns):
                    raise SyscallError(EAGAIN, "receive deadline expired")
            else:
                self._kernel().wait_interruptible(rx.waitq)
        connection = self.connection
        assert connection is not None
        data = bytes(rx.buffer[:nbytes])
        del rx.buffer[: len(data)]
        self._charge_rx(connection.link, len(data), "TCP")
        carrier, rx.carrier = rx.carrier, None
        if carrier is not None:
            obs = self.machine.obs
            if obs is not None and obs.causal is not None:
                obs.causal.adopt(carrier)
        rx.waitq.wake_all()  # writers blocked on backpressure
        return data

    # -- datagram I/O ---------------------------------------------------------

    def sendto(self, data: bytes, addr: Optional[Addr] = None) -> int:
        if self.type != SOCK_DGRAM:
            if addr is not None and addr != self.peer:
                raise SyscallError(EISCONN, "sendto with address on stream")
            return self.write(data)
        dst = addr if addr is not None else self.peer
        if dst is None:
            raise SyscallError(ENOTCONN, "sendto without address")
        if len(data) > UDP_MAX_PAYLOAD:
            raise SyscallError(EMSGSIZE, f"{len(data)} > {UDP_MAX_PAYLOAD}")
        link = self.stack.route(dst[0])
        src = self._autobind(dst[0])
        if not self._charge_tx(link, len(data), src, dst, "UDP"):
            return len(data)  # dropped in flight; UDP does not retransmit
        if dst[1] == DNS_PORT and dst[0] in DNS_SERVERS:
            self._dns_respond(bytes(data), src, link, (dst[0], DNS_PORT))
            return len(data)
        target = self.stack.stack_for(dst[0]).lookup_udp(dst[0], dst[1])
        if target is None:
            # No listener: the datagram evaporates (logged).
            self.stack.log_segment("UDP", dst, src, 0, flag="UNREACH")
            return len(data)
        if len(target._dgrams) >= UDP_QUEUE_DEPTH:
            self.stack.log_segment("UDP", src, dst, len(data), flag="QFULL")
            self.stack.drops += 1
            return len(data)
        carrier = None
        obs = self.machine.obs
        if obs is not None and obs.causal is not None:
            carrier = obs.causal.carrier()
        target._dgrams.append((bytes(data), src, carrier))
        target._dgram_waitq.wake_all()
        return len(data)

    def recvfrom(self, nbytes: int) -> Tuple[bytes, Addr]:
        if self.type != SOCK_DGRAM:
            return self.read(nbytes), self.getpeername()
        while not self._dgrams:
            if self.shut_rd:
                return b"", (WILDCARD_IP, 0)
            if self._nonblock():
                raise SyscallError(EAGAIN, "no datagram queued")
            if self.recv_timeout_ns:
                if not self._block_interruptible(
                    self._dgram_waitq, self.recv_timeout_ns
                ):
                    raise SyscallError(EAGAIN, "receive deadline expired")
            else:
                self._kernel().wait_interruptible(self._dgram_waitq)
        data, src, carrier = self._dgrams.popleft()
        link = self.stack.route(src[0]) if src[0] != WILDCARD_IP else self.stack.links["lo"]
        self._charge_rx(link, len(data), "UDP")
        if carrier is not None:
            obs = self.machine.obs
            if obs is not None and obs.causal is not None:
                obs.causal.adopt(carrier)
        return data[:nbytes], src

    # -- the deterministic stub resolver -------------------------------------

    def _dns_respond(
        self, query: bytes, client: Addr, link: "LinkProfile", server: Addr
    ) -> None:
        """The in-stack DNS servers (primary 10.0.2.3:53, secondary
        10.0.2.4:53 — ``getaddrinfo`` fails over between them).

        Wire format (plain text, deterministic): query ``b"Q <name>"``,
        answer ``b"A <name> <ip>"`` or ``b"NX <name>"``.  The reply is a
        real datagram from the queried server: logged, charged one
        reply-flight latency, queued on the asking socket.
        """
        stack = self.stack
        name = query[2:].decode() if query.startswith(b"Q ") else ""
        ip = stack.resolve_name(name)
        answer = f"A {name} {ip}".encode() if ip else f"NX {name}".encode()
        self.machine.charge_ns(link.latency_ns)  # reply propagation
        stack.log_segment("UDP", server, client, len(answer), flag="DNS")
        self._dgrams.append((answer, server, None))
        self._dgram_waitq.wake_all()

    # -- teardown -------------------------------------------------------------

    def shutdown(self, how: int) -> None:
        if how not in (SHUT_RD, SHUT_WR, SHUT_RDWR):
            raise SyscallError(EINVAL, f"shutdown how={how}")
        if self.type == SOCK_STREAM and self.connection is None and self.listener is None:
            raise SyscallError(ENOTCONN, "shutdown on unconnected socket")
        if how in (SHUT_WR, SHUT_RDWR) and self._tx is not None:
            self.shut_wr = True
            self._tx.open = False  # peer read() sees EOF
            self._tx.waitq.wake_all()
        if how in (SHUT_RD, SHUT_RDWR):
            self.shut_rd = True
            if self._rx is not None:
                self._rx.waitq.wake_all()
            if self.type == SOCK_DGRAM:
                self._dgram_waitq.wake_all()

    def on_last_close(self) -> None:
        if self._tx is not None:
            self._tx.open = False
            self._tx.waitq.wake_all()
        if self._rx is not None:
            self._rx.open = False
            self._rx.waitq.wake_all()
        if self.listener is not None:
            self.listener.closed = True
            self.stack.release_tcp(self.listener.addr, self.listener)
            self.listener.accept_waitq.wake_all()
        elif self.type == SOCK_STREAM and self.local is not None:
            # Bound-but-never-listened placeholder claim (owner-checked,
            # so accepted server-side connections never free the port).
            self.stack.release_tcp(self.local, self)
        if self.type == SOCK_DGRAM and self.local is not None:
            self.stack.release_udp(self.local)
        if self._ram_reserved:
            res = self.machine.resources
            if res is not None:
                res.release_ram(self._ram_reserved)
            self._ram_reserved = 0

    def __repr__(self) -> str:
        kind = "stream" if self.type == SOCK_STREAM else "dgram"
        return f"<INetSocket#{self.sock_id} {kind} local={self.local} peer={self.peer}>"
