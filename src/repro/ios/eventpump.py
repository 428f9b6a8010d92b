"""The eventpump: Cider's input bridge thread.

"Cider creates a new thread in each iOS app to act as a bridge between
the Android input system and the Mach IPC port expecting input events.
This thread, the eventpump, listens for events from the Android
CiderPress app on a BSD socket.  It then pumps those events into the iOS
app via Mach IPC." (paper §5.2)

Wire format on the socket: 4-byte big-endian length followed by a pickled
event dictionary (the simulation's stand-in for the packed event structs
CiderPress would write).  Socket EOF means CiderPress is gone: the pump
delivers a terminate lifecycle event and exits.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING, Optional

from ..xnu.ipc import MachMessage
from .uikit import EVENT_MSG_ACCEL, EVENT_MSG_LIFECYCLE, EVENT_MSG_TOUCH

if TYPE_CHECKING:
    from ..kernel.process import UserContext

_KIND_TO_MSG = {
    "touch": EVENT_MSG_TOUCH,
    "accel": EVENT_MSG_ACCEL,
    "lifecycle": EVENT_MSG_LIFECYCLE,
}


def _read_exact(libc, fd: int, nbytes: int) -> Optional[bytes]:
    chunks = b""
    while len(chunks) < nbytes:
        data = libc.read(fd, nbytes - len(chunks))
        if data in (-1, b"", None):
            return None
        chunks += data
    return chunks


def eventpump_body(ctx: "UserContext", socket_path: str, event_port: int) -> int:
    """The pump thread: socket -> Mach IPC."""
    libc = ctx.libc
    fd = libc.socket()
    if libc.connect(fd, socket_path) == -1:
        return -1
    machine = ctx.machine
    pumped = 0
    while True:
        header = _read_exact(libc, fd, 4)
        if header is None:
            break
        (length,) = struct.unpack(">I", header)
        payload = _read_exact(libc, fd, length)
        if payload is None:
            break
        event = pickle.loads(payload)
        machine.charge("input_event_route")
        msg_id = _KIND_TO_MSG.get(event.get("type", "touch"), EVENT_MSG_TOUCH)
        libc.mach_msg_send(event_port, MachMessage(msg_id, body=event))
        pumped += 1
        machine.emit("eventpump", event.get("type", "touch"))
    # CiderPress hung up: tell the app to terminate.
    libc.mach_msg_send(
        event_port,
        MachMessage(EVENT_MSG_LIFECYCLE, body={"action": "terminate"}),
    )
    libc.close(fd)
    return pumped


def start_eventpump(
    ctx: "UserContext", socket_path: str, event_port: int
):
    """Spawn the bridge thread inside the current (iOS) process."""
    return ctx.libc.pthread_create(
        lambda thread_ctx: eventpump_body(thread_ctx, socket_path, event_port),
        name="eventpump",
    )
