"""Mach IPC — unmodified foreign kernel source (osfmk/ipc equivalent).

This is the paper's flagship duct-tape subsystem: "a rich and complicated
API providing inter-process communication and memory sharing ...
implementing such a subsystem from scratch in the Linux kernel would be a
daunting task" (§4.2).  The module implements Mach ports, port rights,
name spaces, port sets, message queues with queue limits, right transfer
through message headers, out-of-line (OOL) memory descriptors, and dead
names.

Zone discipline: this file references ONLY the XNU kernel API
(:mod:`repro.xnu.api`) — locks, allocation, thread_block/wakeup, queues.
The duct-tape linker binds those to domestic implementations; the same
source also runs on the XNU-native kernel configuration (the iPad mini),
which is the whole point of leaving it unmodified.

One deviation the paper itself reports: XNU's recursive message-queue
structures assumed a deeper kernel stack than Linux provides and "this
queuing was rewritten to better fit within Linux" — our queues are
likewise iterative.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .api import XNUKernelAPI

# -- kern_return_t / mach_msg_return_t codes -----------------------------------
KERN_SUCCESS = 0
KERN_NO_SPACE = 3
KERN_INVALID_ARGUMENT = 4
KERN_INVALID_NAME = 15
KERN_INVALID_TASK = 16
KERN_INVALID_RIGHT = 17

MACH_MSG_SUCCESS = 0
MACH_SEND_INVALID_DEST = 0x10000003
MACH_SEND_TIMED_OUT = 0x10000004
MACH_RCV_INVALID_NAME = 0x10004002
MACH_RCV_TIMED_OUT = 0x10004003
MACH_RCV_PORT_DIED = 0x10004008

MACH_PORT_NULL = 0

# -- port right types ---------------------------------------------------------------
RIGHT_RECEIVE = "receive"
RIGHT_SEND = "send"
RIGHT_SEND_ONCE = "send-once"
RIGHT_PORT_SET = "port-set"
RIGHT_DEAD_NAME = "dead-name"

# -- message header dispositions ------------------------------------------------------
MACH_MSG_TYPE_MOVE_SEND = 17
MACH_MSG_TYPE_COPY_SEND = 19
MACH_MSG_TYPE_MAKE_SEND = 20
MACH_MSG_TYPE_MAKE_SEND_ONCE = 21

#: Default per-port queue limit (MACH_PORT_QLIMIT_DEFAULT).
MACH_PORT_QLIMIT_DEFAULT = 5
MACH_PORT_QLIMIT_LARGE = 1024

#: Backpressure bound: under *critical* memory pressure an untimed send
#: to a full queue does not block forever — it waits at most this long
#: and then surfaces MACH_SEND_TIMED_OUT, so message queues stop growing
#: the moment jetsam is hunting (graceful degradation, not deadlock).
QFULL_BACKPRESSURE_TIMEOUT_NS = 10_000_000  # 10 ms virtual


class MachMessage:
    """One mach_msg, header plus body.

    ``body`` is an opaque payload (the simulation of inline message
    data); ``ool`` optionally references a shared out-of-line region —
    Mach's zero-copy path, which IOSurface rides on.
    """

    def __init__(
        self,
        msg_id: int,
        body: object = None,
        reply_disposition: int = 0,
        ool: object = None,
        ool_size: int = 0,
    ) -> None:
        self.msg_id = msg_id
        self.body = body
        self.reply_disposition = reply_disposition
        self.ool = ool
        self.ool_size = ool_size
        #: Optional port right carried in the message *body* (name in the
        #: sender's space on send; name in the receiver's space after
        #: receive) — how bootstrap lookups hand out service rights.
        self.body_right_name: int = MACH_PORT_NULL
        # Kernel-internal: translated port objects in flight.
        self._reply_port: Optional["IPCPort"] = None
        self._body_right_port: Optional["IPCPort"] = None
        #: After receive: the reply right's name in the *receiver's* space.
        self.reply_port_name: int = MACH_PORT_NULL
        #: After receive: name of the port the message arrived on.
        self.received_on: int = MACH_PORT_NULL
        #: Causal-trace carrier riding in the message trailer (set at
        #: send via ``XNUKernelAPI.causal_carrier``, landed at receive
        #: via ``causal_adopt``).  Opaque to the Mach zone.
        self.causal: object = None

    def __repr__(self) -> str:
        return f"<MachMessage id={self.msg_id} body={self.body!r}>"


class IPCPort:
    """A Mach port: one receive right, a message queue, N send rights.

    ``seq`` numbers the ports of one Mach IPC subsystem from 1."""

    def __init__(
        self, xnu: XNUKernelAPI, seq: int, qlimit: int = MACH_PORT_QLIMIT_LARGE
    ):
        self.seq = seq
        self._xnu = xnu
        self.messages: List[object] = xnu.queue_init()
        self.qlimit = qlimit
        self.dead = False
        self.receiver_space: Optional["IPCSpace"] = None
        self.member_of: Optional["IPCPortSet"] = None
        #: Kernel-owned ports dispatch inline instead of queueing
        #: (how I/O Kit's user clients are reached).
        self.kernel_handler = None
        # Distinct wait events for senders (queue full) and receivers.
        self.send_event = object()
        self.recv_event = object()

    @property
    def queued(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        return f"<IPCPort #{self.seq} q={self.queued} dead={self.dead}>"


class IPCPortSet:
    """A receive-right aggregation point."""

    def __init__(self, xnu: XNUKernelAPI) -> None:
        self._xnu = xnu
        self.members: List[IPCPort] = []
        self.recv_event = object()


class IPCEntry:
    """One name-table slot in a space."""

    def __init__(self, target: object, right: str) -> None:
        self.target = target  # IPCPort or IPCPortSet
        self.right = right
        self.refs = 1


class IPCSpace:
    """A task's port name space."""

    FIRST_NAME = 0x103
    NAME_STRIDE = 4

    def __init__(self, xnu: XNUKernelAPI, task: object) -> None:
        self._xnu = xnu
        self.task = task
        self.names: Dict[int, IPCEntry] = {}
        self._next_name = self.FIRST_NAME
        self.lock = xnu.lck_mtx_alloc("ipc_space")

    def _alloc_name(self) -> int:
        name = self._next_name
        self._next_name += self.NAME_STRIDE
        return name

    def insert_right(self, target: object, right: str) -> int:
        """Insert a right, coalescing send rights to the same port."""
        if right == RIGHT_SEND:
            for name, entry in self.names.items():
                if entry.target is target and entry.right == RIGHT_SEND:
                    entry.refs += 1
                    return name
        name = self._alloc_name()
        self.names[name] = IPCEntry(target, right)
        return name

    def lookup(self, name: int) -> Optional[IPCEntry]:
        return self.names.get(name)

    def remove(self, name: int) -> None:
        self.names.pop(name, None)


class MachIPC:
    """The Mach IPC subsystem instance compiled into a kernel."""

    def __init__(self, xnu: XNUKernelAPI) -> None:
        self.xnu = xnu
        self._spaces: Dict[object, IPCSpace] = {}
        #: Host special port 11: the bootstrap port (launchd's).
        self._host_bootstrap: Optional[IPCPort] = None
        self.messages_sent = 0
        self.messages_received = 0
        self._last_port_seq = 0

    # -- spaces ------------------------------------------------------------------

    def space_for_task(self, task: object) -> IPCSpace:
        space = self._spaces.get(task)
        if space is None:
            space = IPCSpace(self.xnu, task)
            self._spaces[task] = space
        return space

    def space_exists(self, task: object) -> bool:
        return task in self._spaces

    def _fault_code(self, point: str, default: int, **detail: object) -> Optional[int]:
        """Fault-injection helper: returns a mach_msg_return code to
        surface, or None.  kern outcomes carry their own code; other kinds
        degrade to ``default``."""
        outcome = self.xnu.fault(point, **detail)
        if outcome is None:
            return None
        if getattr(outcome, "kind", None) == "kern":
            return int(outcome.value)  # type: ignore[call-overload]
        return default

    # -- task teardown ----------------------------------------------------------

    def task_terminate(self, task: object) -> int:
        """Tear down a dead task's IPC state (crash containment).

        Every port the task held the receive right for dies: its name
        space is dropped, blocked receivers observe MACH_RCV_PORT_DIED,
        blocked senders observe MACH_SEND_INVALID_DEST, and send rights
        held by *other* tasks flip to dead names lazily on next use.
        """
        space = self._spaces.pop(task, None)
        if space is None:
            return KERN_SUCCESS
        for entry in list(space.names.values()):
            target = entry.target
            if entry.right != RIGHT_RECEIVE or not isinstance(target, IPCPort):
                continue
            target.dead = True
            target.receiver_space = None
            if target.member_of is not None:
                pset = target.member_of
                if target in pset.members:
                    pset.members.remove(target)
                target.member_of = None
                self.xnu.thread_wakeup(pset.recv_event)
            self.xnu.thread_wakeup(target.recv_event)
            self.xnu.thread_wakeup(target.send_event)
        task_port = getattr(space, "task_port", None)
        if task_port is not None:
            task_port.dead = True
            self.xnu.thread_wakeup(task_port.recv_event)
            self.xnu.thread_wakeup(task_port.send_event)
        space.names.clear()
        return KERN_SUCCESS

    def shutdown(self) -> None:
        """The kernel is going down: drop every task's name space.  A port
        and the space that receives on it point at each other."""
        for space in self._spaces.values():
            space.names.clear()
        self._spaces.clear()
        self._host_bootstrap = None

    # -- port allocation ------------------------------------------------------------

    def _new_port(self) -> IPCPort:
        self._last_port_seq += 1
        return IPCPort(self.xnu, self._last_port_seq)

    def mach_port_allocate(self, task: object) -> Tuple[int, int]:
        """Allocate a receive right.  Returns (kr, name)."""
        space = self.space_for_task(task)
        port = self._new_port()
        port.receiver_space = space
        name = space.insert_right(port, RIGHT_RECEIVE)
        self.xnu.charge("mach_port_alloc")
        return KERN_SUCCESS, name

    def mach_port_allocate_set(self, task: object) -> Tuple[int, int]:
        space = self.space_for_task(task)
        pset = IPCPortSet(self.xnu)
        name = space.insert_right(pset, RIGHT_PORT_SET)
        self.xnu.charge("mach_port_alloc")
        return KERN_SUCCESS, name

    def mach_port_move_member(
        self, task: object, port_name: int, set_name: int
    ) -> int:
        space = self.space_for_task(task)
        port_entry = space.lookup(port_name)
        set_entry = space.lookup(set_name)
        if port_entry is None or port_entry.right != RIGHT_RECEIVE:
            return KERN_INVALID_RIGHT
        if set_entry is None or set_entry.right != RIGHT_PORT_SET:
            return KERN_INVALID_RIGHT
        port = port_entry.target
        pset = set_entry.target
        if port.member_of is not None:
            port.member_of.members.remove(port)
        port.member_of = pset
        pset.members.append(port)
        return KERN_SUCCESS

    def mach_port_deallocate(self, task: object, name: int) -> int:
        space = self.space_for_task(task)
        entry = space.lookup(name)
        if entry is None:
            return KERN_INVALID_NAME
        entry.refs -= 1
        if entry.refs <= 0:
            space.remove(name)
        return KERN_SUCCESS

    def mach_port_destroy(self, task: object, name: int) -> int:
        """Destroy a right; destroying the receive right kills the port."""
        space = self.space_for_task(task)
        entry = space.lookup(name)
        if entry is None:
            return KERN_INVALID_NAME
        if entry.right == RIGHT_RECEIVE:
            port = entry.target
            port.dead = True
            port.receiver_space = None
            if port.member_of is not None:
                port.member_of.members.remove(port)
                port.member_of = None
            # Wake everyone; they observe the death and error out.
            self.xnu.thread_wakeup(port.recv_event)
            self.xnu.thread_wakeup(port.send_event)
        space.remove(name)
        return KERN_SUCCESS

    # -- right fabrication (kernel-internal helpers) ----------------------------------

    def make_send_right(self, task: object, port: IPCPort) -> int:
        """Insert a send right to ``port`` into ``task``'s space."""
        return self.space_for_task(task).insert_right(port, RIGHT_SEND)

    def port_of(self, task: object, name: int) -> Optional[IPCPort]:
        entry = self.space_for_task(task).lookup(name)
        if entry is None or not isinstance(entry.target, IPCPort):
            return None
        return entry.target

    def task_self(self, task: object) -> int:
        """task_self_trap: a send right to the task's kernel port."""
        space = self.space_for_task(task)
        port = getattr(space, "task_port", None)
        if port is None:
            port = self._new_port()
            space.task_port = port  # type: ignore[attr-defined]
        return self.make_send_right(task, port)

    def register_kernel_port(self, handler) -> IPCPort:
        """Create a kernel-owned port whose messages dispatch inline
        (the path I/O Kit user clients use)."""
        port = self._new_port()
        port.kernel_handler = handler
        return port

    # -- bootstrap special port ----------------------------------------------------------

    def host_set_bootstrap_port(self, task: object, name: int) -> int:
        port = self.port_of(task, name)
        if port is None:
            return KERN_INVALID_NAME
        self._host_bootstrap = port
        return KERN_SUCCESS

    def task_get_bootstrap_port(self, task: object) -> Tuple[int, int]:
        if self._host_bootstrap is None or self._host_bootstrap.dead:
            return KERN_INVALID_NAME, MACH_PORT_NULL
        return KERN_SUCCESS, self.make_send_right(task, self._host_bootstrap)

    # -- mach_msg --------------------------------------------------------------------------

    def mach_msg_send(
        self,
        task: object,
        dest_name: int,
        msg: MachMessage,
        reply_name: int = MACH_PORT_NULL,
        timeout_ns: Optional[float] = None,
    ) -> int:
        """One mach_msg send — a ``xnu.ipc.send`` profiling span (the
        KDBG-style tracepoint of the duct-taped subsystem)."""
        with self.xnu.span("xnu.ipc.send", msg_id=msg.msg_id):
            return self._mach_msg_send_body(
                task, dest_name, msg, reply_name, timeout_ns
            )

    def _mach_msg_send_body(
        self,
        task: object,
        dest_name: int,
        msg: MachMessage,
        reply_name: int = MACH_PORT_NULL,
        timeout_ns: Optional[float] = None,
    ) -> int:
        if self.xnu.fault_active:
            code = self._fault_code(
                "mach.send", MACH_SEND_TIMED_OUT,
                dest=dest_name, msg_id=msg.msg_id,
            )
            if code is not None:
                return code
        space = self.space_for_task(task)
        entry = space.lookup(dest_name)
        if entry is None or entry.right == RIGHT_DEAD_NAME:
            return MACH_SEND_INVALID_DEST
        if entry.right not in (RIGHT_SEND, RIGHT_SEND_ONCE, RIGHT_RECEIVE):
            return MACH_SEND_INVALID_DEST
        port = entry.target
        if not isinstance(port, IPCPort) or port.dead:
            entry.right = RIGHT_DEAD_NAME
            return MACH_SEND_INVALID_DEST

        # Translate the reply right out of the sender's space.
        if reply_name != MACH_PORT_NULL and msg.reply_disposition:
            reply_entry = space.lookup(reply_name)
            if reply_entry is None or not isinstance(reply_entry.target, IPCPort):
                return KERN_INVALID_NAME
            msg._reply_port = reply_entry.target
            if msg.reply_disposition == MACH_MSG_TYPE_MOVE_SEND:
                self.mach_port_deallocate(task, reply_name)

        # Translate a body-carried right out of the sender's space.
        if msg.body_right_name != MACH_PORT_NULL and msg._body_right_port is None:
            body_entry = space.lookup(msg.body_right_name)
            if body_entry is None or not isinstance(body_entry.target, IPCPort):
                return KERN_INVALID_NAME
            msg._body_right_port = body_entry.target

        self.xnu.charge("mach_msg_send")
        if msg.ool_size:
            self.xnu.charge("mach_ool_per_kb", max(1, msg.ool_size // 1024))

        if entry.right == RIGHT_SEND_ONCE:
            space.remove(dest_name)

        if port.kernel_handler is not None:
            self.messages_sent += 1
            port.kernel_handler(self, task, msg)
            return MACH_MSG_SUCCESS

        while len(port.messages) >= port.qlimit:
            if port.dead:
                return MACH_SEND_INVALID_DEST
            # Queue-full backpressure is observable (a ledger-style
            # counter) and fault-injectable (``ipc.qfull``).
            self.xnu.metric("xnu.ipc.qfull")
            if self.xnu.fault_active:
                code = self._fault_code(
                    "ipc.qfull", MACH_SEND_TIMED_OUT,
                    dest=dest_name, msg_id=msg.msg_id,
                )
                if code is not None:
                    return code
            if timeout_ns is not None:
                if not self.xnu.thread_block_timeout(port.send_event, timeout_ns):
                    self.xnu.metric("xnu.ipc.send.timed_out")
                    return MACH_SEND_TIMED_OUT
            elif self.xnu.pressure_level() == "critical":
                # Under critical memory pressure untimed sends become
                # bounded: the queue must not grow while jetsam works.
                if not self.xnu.thread_block_timeout(
                    port.send_event, QFULL_BACKPRESSURE_TIMEOUT_NS
                ):
                    self.xnu.metric("xnu.ipc.send.timed_out")
                    return MACH_SEND_TIMED_OUT
            else:
                self.xnu.thread_block(port.send_event)
        msg.causal = self.xnu.causal_carrier()
        hb = self.xnu.hb_monitor()
        if hb is not None:
            # send→receive edge: the receiver inherits the sender's
            # history along with the message.
            hb.release(port, "mach_msg")
        self.xnu.enqueue_tail(port.messages, msg)
        self.messages_sent += 1
        self.xnu.thread_wakeup_one(port.recv_event)
        if port.member_of is not None:
            self.xnu.thread_wakeup_one(port.member_of.recv_event)
        return MACH_MSG_SUCCESS

    def mach_msg_receive(
        self,
        task: object,
        name: int,
        timeout_ns: Optional[float] = None,
    ) -> Tuple[int, Optional[MachMessage]]:
        """One mach_msg receive — a ``xnu.ipc.receive`` profiling span.
        Time spent blocked waiting for a message charges nothing; only
        the receive path's own work lands in the span."""
        with self.xnu.span("xnu.ipc.receive", port=name):
            return self._mach_msg_receive_body(task, name, timeout_ns)

    def _mach_msg_receive_body(
        self,
        task: object,
        name: int,
        timeout_ns: Optional[float] = None,
    ) -> Tuple[int, Optional[MachMessage]]:
        if self.xnu.fault_active:
            code = self._fault_code("mach.recv", MACH_RCV_TIMED_OUT, port=name)
            if code is not None:
                return code, None
        space = self.space_for_task(task)
        entry = space.lookup(name)
        if entry is None:
            return MACH_RCV_INVALID_NAME, None

        if entry.right == RIGHT_PORT_SET:
            return self._receive_from_set(space, entry.target, timeout_ns)
        if entry.right != RIGHT_RECEIVE:
            return MACH_RCV_INVALID_NAME, None
        port = entry.target

        while True:
            if port.dead:
                return MACH_RCV_PORT_DIED, None
            msg = self.xnu.dequeue_head(port.messages)
            if msg is not None:
                hb = self.xnu.hb_monitor()
                if hb is not None:
                    hb.acquire(port)
                self.xnu.thread_wakeup_one(port.send_event)
                return self._finish_receive(space, name, msg)
            if timeout_ns is not None:
                if not self.xnu.thread_block_timeout(port.recv_event, timeout_ns):
                    return MACH_RCV_TIMED_OUT, None
            else:
                self.xnu.thread_block(port.recv_event)

    def _receive_from_set(
        self,
        space: IPCSpace,
        pset: IPCPortSet,
        timeout_ns: Optional[float],
    ) -> Tuple[int, Optional[MachMessage]]:
        while True:
            for port in pset.members:
                msg = self.xnu.dequeue_head(port.messages)
                if msg is not None:
                    hb = self.xnu.hb_monitor()
                    if hb is not None:
                        hb.acquire(port)
                    self.xnu.thread_wakeup_one(port.send_event)
                    port_name = self._name_in_space(space, port)
                    return self._finish_receive(space, port_name, msg)
            if timeout_ns is not None:
                if not self.xnu.thread_block_timeout(pset.recv_event, timeout_ns):
                    return MACH_RCV_TIMED_OUT, None
            else:
                self.xnu.thread_block(pset.recv_event)

    def _name_in_space(self, space: IPCSpace, port: IPCPort) -> int:
        for name, entry in space.names.items():
            if entry.target is port and entry.right == RIGHT_RECEIVE:
                return name
        return MACH_PORT_NULL

    def _finish_receive(
        self, space: IPCSpace, port_name: int, msg: MachMessage
    ) -> Tuple[int, MachMessage]:
        self.xnu.charge("mach_msg_receive")
        self.messages_received += 1
        msg.received_on = port_name
        if msg._reply_port is not None:
            right = (
                RIGHT_SEND_ONCE
                if msg.reply_disposition == MACH_MSG_TYPE_MAKE_SEND_ONCE
                else RIGHT_SEND
            )
            msg.reply_port_name = space.insert_right(msg._reply_port, right)
            msg._reply_port = None
        if msg._body_right_port is not None:
            msg.body_right_name = space.insert_right(
                msg._body_right_port, RIGHT_SEND
            )
            msg._body_right_port = None
        if msg.causal is not None:
            self.xnu.causal_adopt(msg.causal)
        return MACH_MSG_SUCCESS, msg

    # -- RPC convenience (mach_msg send+receive on a reply port) -----------------------

    def mach_msg_rpc(
        self,
        task: object,
        dest_name: int,
        msg: MachMessage,
        timeout_ns: Optional[float] = None,
    ) -> Tuple[int, Optional[MachMessage]]:
        """Send a message and await the reply on a fresh reply port."""
        kr, reply_name = self.mach_port_allocate(task)
        if kr != KERN_SUCCESS:
            return kr, None
        msg.reply_disposition = MACH_MSG_TYPE_MAKE_SEND_ONCE
        code = self.mach_msg_send(task, dest_name, msg, reply_name, timeout_ns)
        if code != MACH_MSG_SUCCESS:
            self.mach_port_destroy(task, reply_name)
            return code, None
        code, reply = self.mach_msg_receive(task, reply_name, timeout_ns)
        self.mach_port_destroy(task, reply_name)
        return code, reply


EXPORTS = {
    "MachIPC": MachIPC,
    "MachMessage": MachMessage,
    "IPCPort": IPCPort,
    "IPCPortSet": IPCPortSet,
    "IPCSpace": IPCSpace,
    # Deliberate collisions with the domestic kernel symbol table, present
    # in the real XNU ipc/osfmk sources; the duct-tape linker must remap
    # them (they become xnu_kfree / xnu_panic / xnu_current_task).
    "kfree": XNUKernelAPI.kfree,
    "panic": XNUKernelAPI.panic,
    "current_task": XNUKernelAPI.current_task,
}
