"""The per-machine virtual netstack.

Cider's evaluation runs network apps *unmodified* because XNU and Linux
share the BSD socket abstraction: network syscalls pass straight through
the persona dispatch tables into one kernel implementation, with
translation only at the ABI edge (argument marshalling, error convention).
No diplomat is needed — unlike graphics or input, there is no user-space
service boundary to cross (paper §4.1/§5).

This module is that one shared implementation's substrate: a deterministic
virtual network with

* two interfaces per machine — ``lo`` (127.0.0.1) and a cost-modeled Wi-Fi
  NIC ``wlan0`` (10.0.2.x, Android-emulator-style addressing) — whose
  latency / serialisation / MTU parameters come from the device's
  :class:`~repro.hw.profiles.LinkProfile` table;
* TCP-like stream and UDP-like datagram transport (see
  :mod:`repro.net.sockets`);
* a deterministic stub DNS resolver at ``10.0.2.3:53`` answered
  synchronously from the stack's host table;
* a byte-comparable packet log: every segment (and every injected drop)
  appends one line, so two same-seed runs can be diffed and a digest can
  be printed in run summaries.

Determinism: there is no randomness anywhere in this module.  Ephemeral
ports are a counter, the packet log is append-ordered by the cooperative
scheduler, and all link parameters are profile constants — same seed ⇒
byte-identical log and bit-identical virtual time (DiOS-style reproducible
POSIX execution).

The stack is built lazily by ``Machine.net``; a run that never touches an
INET socket never constructs it, never charges a ``net_*`` cost, and keeps
the golden Figure-5 virtual time untouched.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..hw.profiles import LinkProfile, default_links
from ..kernel.errno import EADDRINUSE, EHOSTUNREACH, SyscallError
from .conditions import DIR_IN, DIR_OUT, LinkConditions, LinkSchedule

if TYPE_CHECKING:
    from ..hw.machine import Machine
    from .sockets import INetSocket, TCPListener

#: The device's own Wi-Fi address and the in-sim infrastructure addresses
#: (same scheme the Android emulator uses for its virtual network).
DEFAULT_HOST_IP = "10.0.2.15"
DNS_SERVER_IP = "10.0.2.3"
#: Secondary resolver: ``getaddrinfo`` fails over to it after the
#: primary's retry budget is exhausted (both personas' stub resolvers).
DNS_SERVER2_IP = "10.0.2.4"
DNS_SERVERS = (DNS_SERVER_IP, DNS_SERVER2_IP)
DNS_PORT = 53
#: Stub-resolver retransmission policy (both personas' ``getaddrinfo``):
#: wait this long for an answer, then resend the query — a datagram lost
#: to an injected net.send fault must not hang the resolver forever.
DNS_TIMEOUT_NS = 5_000_000
DNS_RETRIES = 3
LOOPBACK_IP = "127.0.0.1"
WILDCARD_IP = "0.0.0.0"

#: First ephemeral port (IANA suggested range start).
EPHEMERAL_BASE = 49152


class _StreamingDigest:
    """SHA-256 fed one log line at a time.

    Hashing ``line + "\\n"`` per line produces exactly the bytes of
    ``"\\n".join(lines) + "\\n"``, so the digest equals the one computed
    over the joined log — without materialising a copy of the whole log
    on every :meth:`NetStack.log_digest` call (the sweep harnesses call
    it once per case; busy logs run to thousands of lines).
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, line: str) -> None:
        self._hash.update((line + "\n").encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class NetStack:
    """One machine's virtual network: interfaces, port tables, DNS, log."""

    def __init__(self, machine: "Machine", host_ip: str = DEFAULT_HOST_IP) -> None:
        self.machine = machine
        links: Dict[str, LinkProfile] = machine.profile.links or default_links()
        self.links = links
        self.host_ip = host_ip
        #: ip -> LinkProfile used to *reach* that address from this machine.
        self._routes: Dict[str, LinkProfile] = {
            LOOPBACK_IP: links["lo"],
            host_ip: links["wlan0"],
            DNS_SERVER_IP: links["wlan0"],
            DNS_SERVER2_IP: links["wlan0"],
        }
        self.local_ips = (LOOPBACK_IP, host_ip)
        #: Deterministic name resolution (the stub resolver's zone).
        self.hosts: Dict[str, str] = {
            "localhost": LOOPBACK_IP,
            machine.profile.name: host_ip,
        }
        #: (ip, port) -> TCPListener for listening stream sockets.
        self.tcp_ports: Dict[Tuple[str, int], "TCPListener"] = {}
        #: (ip, port) -> INetSocket for bound datagram sockets.
        self.udp_ports: Dict[Tuple[str, int], "INetSocket"] = {}
        #: host_ip -> peer NetStack on the same segment (cross-machine
        #: networking; see :meth:`connect_peer`).
        self.peers: Dict[str, "NetStack"] = {}
        self._ephemeral = EPHEMERAL_BASE
        #: Byte-comparable transmission record: one line per segment
        #: flight (and one per injected drop).  Determinism contract:
        #: two same-seed runs produce identical logs.
        self._packet_log: List[str] = []
        self._packet_seq = 0
        self._log_hash = _StreamingDigest()
        # Aggregate counters surfaced by run summaries (kept even when
        # the observatory is off so the demo's digest block is cheap).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.drops = 0
        #: Resilience counters: segments lost to scripted/injected
        #: partitions, segments dropped by the receive-side checksum, and
        #: TCP keepalive probes sent by blocked readers.
        self.partition_drops = 0
        self.csum_drops = 0
        self.keepalive_probes = 0
        #: Scripted link conditions for the wlan0 path; None (the default)
        #: keeps the transmit path on its zero-cost fast branch.
        self.schedule: Optional[LinkSchedule] = None

    def shutdown(self) -> None:
        """The machine is off: let go of it and of the peer stacks, each
        of which points back.  The packet log and the counters stay
        readable."""
        self.machine = None
        self.peers.clear()

    # -- configuration ------------------------------------------------------

    def install_schedule(self, schedule: LinkSchedule) -> LinkSchedule:
        """Attach a :class:`~repro.net.conditions.LinkSchedule` to this
        stack's wlan0 link.  Loopback traffic is never scheduled."""
        self.schedule = schedule
        return schedule

    def register_host(self, name: str, ip: Optional[str] = None) -> str:
        """Add a name to the resolver's zone (defaults to this device's
        Wi-Fi address, which is where in-sim origin servers live)."""
        ip = ip or self.host_ip
        self.hosts[name] = ip
        return ip

    def resolve_name(self, name: str) -> Optional[str]:
        """Zone lookup (used by the DNS responder; libc-level
        ``getaddrinfo`` goes through real UDP datagrams to 10.0.2.3)."""
        return self.hosts.get(name)

    def connect_peer(self, other: "NetStack") -> None:
        """Join two machines' stacks on one segment (both directions):
        each routes the other's host address over its own wlan0 NIC.
        Give the machines distinct ``Machine.net_host_ip`` first."""
        if other.host_ip == self.host_ip:
            raise ValueError(
                f"peer machines share host ip {self.host_ip}; set "
                "Machine.net_host_ip before first net access"
            )
        self._routes[other.host_ip] = self.links["wlan0"]
        other._routes[self.host_ip] = other.links["wlan0"]
        self.peers[other.host_ip] = other
        other.peers[self.host_ip] = self

    def stack_for(self, ip: str) -> "NetStack":
        """The stack owning ``ip``: this one for local addresses, the
        peer's for a connected machine's address (sockets use this to
        build server endpoints on the *listener's* machine)."""
        if self.is_local(ip):
            return self
        return self.peers.get(ip, self)

    # -- routing ------------------------------------------------------------

    def route(self, dst_ip: str) -> LinkProfile:
        """The link used to reach ``dst_ip``; EHOSTUNREACH if none."""
        link = self._routes.get(dst_ip)
        if link is None:
            raise SyscallError(EHOSTUNREACH, f"no route to host {dst_ip}")
        return link

    def is_local(self, ip: str) -> bool:
        return ip in self.local_ips or ip == WILDCARD_IP

    def conditions_for(
        self, dst_ip: str, now_ns: float
    ) -> Optional[LinkConditions]:
        """The combined scripted link state for a flight toward
        ``dst_ip`` at ``now_ns``: this stack's schedule governs the
        outbound direction, the destination machine's schedule (if any)
        the inbound one — which is what makes one-way partitions
        expressible.  Machines keep independent clocks, so each side of
        the link is judged on its owner's timeline: the outbound half at
        this machine's ``now_ns``, the inbound half at the *receiver's*
        clock.  Returns None when no schedule touches the flight (the
        common, zero-cost case) and for loopback traffic."""
        if dst_ip == LOOPBACK_IP:
            return None
        state: Optional[LinkConditions] = None
        if self.schedule is not None:
            state = self.schedule.conditions_at(now_ns, DIR_OUT)
        peer = self.peers.get(dst_ip)
        if peer is not None and peer.schedule is not None:
            inbound = peer.schedule.conditions_at(
                peer.machine.clock.now_ns, DIR_IN
            )
            if state is None:
                state = inbound
            else:
                state.down = state.down or inbound.down
                state.latency_x *= inbound.latency_x
                state.bandwidth_x *= inbound.bandwidth_x
                if inbound.corrupt_every and (
                    not state.corrupt_every
                    or inbound.corrupt_every < state.corrupt_every
                ):
                    state.corrupt_every = inbound.corrupt_every
        return state

    def corrupt_take(self, dst_ip: str, every: int) -> bool:
        """Advance the corruption stride on whichever schedule scripted
        it (own first, else the destination's)."""
        if self.schedule is not None:
            return self.schedule.corrupt_take(every)
        peer = self.peers.get(dst_ip)
        if peer is not None and peer.schedule is not None:
            return peer.schedule.corrupt_take(every)
        return False

    # -- port management ----------------------------------------------------

    def ephemeral_port(self) -> int:
        """Deterministic ephemeral port allocation: a plain counter."""
        port = self._ephemeral
        self._ephemeral += 1
        return port

    def claim_tcp(self, addr: Tuple[str, int], owner: object) -> None:
        """Claim a TCP (ip, port).  ``bind`` claims with the socket as a
        placeholder; ``listen`` promotes it to the listener object."""
        if addr in self.tcp_ports:
            raise SyscallError(EADDRINUSE, f"tcp {addr[0]}:{addr[1]}")
        self.tcp_ports[addr] = owner

    def promote_tcp(
        self, addr: Tuple[str, int], owner: object, listener: "TCPListener"
    ) -> None:
        """Swap a bind-time placeholder claim for the live listener."""
        if self.tcp_ports.get(addr) is not owner:
            raise SyscallError(EADDRINUSE, f"tcp {addr[0]}:{addr[1]}")
        self.tcp_ports[addr] = listener

    def release_tcp(self, addr: Tuple[str, int], owner: object = None) -> None:
        """Release a claim; with ``owner`` given, only if it still holds
        it (a closing accepted connection must not free its listener)."""
        if owner is not None and self.tcp_ports.get(addr) is not owner:
            return
        self.tcp_ports.pop(addr, None)

    def lookup_tcp(self, ip: str, port: int) -> Optional["TCPListener"]:
        listener = self.tcp_ports.get((ip, port))
        if listener is None and ip in self.local_ips:
            # A wildcard bind accepts on every local address.
            listener = self.tcp_ports.get((WILDCARD_IP, port))
        return listener

    def claim_udp(self, addr: Tuple[str, int], sock: "INetSocket") -> None:
        if addr in self.udp_ports:
            raise SyscallError(EADDRINUSE, f"udp {addr[0]}:{addr[1]}")
        self.udp_ports[addr] = sock

    def release_udp(self, addr: Tuple[str, int]) -> None:
        self.udp_ports.pop(addr, None)

    def lookup_udp(self, ip: str, port: int) -> Optional["INetSocket"]:
        sock = self.udp_ports.get((ip, port))
        if sock is None and ip in self.local_ips:
            sock = self.udp_ports.get((WILDCARD_IP, port))
        return sock

    # -- the packet log ------------------------------------------------------

    def log_segment(
        self,
        proto: str,
        src: Tuple[str, int],
        dst: Tuple[str, int],
        length: int,
        flag: str = "",
    ) -> None:
        self._packet_seq += 1
        suffix = f" [{flag}]" if flag else ""
        line = (
            f"{self._packet_seq:06d} {proto} "
            f"{src[0]}:{src[1]} > {dst[0]}:{dst[1]} len={length}{suffix}"
        )
        self._packet_log.append(line)
        self._log_hash.update(line)

    def packet_log(self) -> str:
        """The full log as one byte-comparable string."""
        return "\n".join(self._packet_log) + ("\n" if self._packet_log else "")

    def log_digest(self) -> str:
        """SHA-256 over the packet log — the one-line determinism witness
        printed by ``examples/netstack.py`` and the netbench summary.
        Fed incrementally as segments are logged; byte-identical to
        hashing :meth:`packet_log` (``tests/test_parallel.py`` asserts
        it)."""
        return self._log_hash.hexdigest()

    def summary(self) -> Dict[str, object]:
        return {
            "packets": self._packet_seq,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "segments_sent": self.segments_sent,
            "drops": self.drops,
            "partition_drops": self.partition_drops,
            "csum_drops": self.csum_drops,
            "keepalive_probes": self.keepalive_probes,
            "packet_log_sha256": self.log_digest(),
        }

    def __repr__(self) -> str:
        return (
            f"<NetStack {self.machine.profile.name} {self.host_ip} "
            f"pkts={self._packet_seq}>"
        )
