"""libkqueue: BSD kqueue/kevent as a user-space library.

"The BSD kqueue and kevent notification mechanisms were easier to
support in Cider as user space libraries because of the availability of
existing open source user-level implementations.  Because they did not
need to be incorporated into the kernel, they did not need to be
incorporated using duct tape, but simply via API interposition."
(paper §4.2)

The implementation multiplexes registered filters over the select
syscall — exactly what the user-level libkqueue does on Linux.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..kernel.process import UserContext

EVFILT_READ = -1
EVFILT_WRITE = -2

EV_ADD = 0x0001
EV_DELETE = 0x0002

LIB_STATE_KEY = "libkqueue"


@dataclass(frozen=True)
class KEvent:
    """struct kevent."""

    ident: int  # the fd
    filter: int
    flags: int = 0
    data: int = 0


class KQueue:
    """One kqueue instance: a registration table, numbered per machine."""

    def __init__(self, kq_id: int) -> None:
        self.kq_id = kq_id
        self.filters: Dict[Tuple[int, int], KEvent] = {}


def kqueue(ctx: "UserContext") -> KQueue:
    """kqueue(2) — entirely user-level here."""
    ctx.machine.charge("gl_call_cpu", 0.1)  # negligible library work
    kq = KQueue(ctx.machine.next_id("kqueue"))
    ctx.lib_state(LIB_STATE_KEY)[f"kq:{kq.kq_id}"] = kq
    return kq


def kevent(
    ctx: "UserContext",
    kq: KQueue,
    changes: Optional[List[KEvent]] = None,
    max_events: int = 16,
    timeout_ns: Optional[float] = 0,
) -> List[KEvent]:
    """kevent(2): apply changes, then poll for triggered events."""
    for change in changes or []:
        key = (change.ident, change.filter)
        if change.flags & EV_DELETE:
            kq.filters.pop(key, None)
        elif change.flags & EV_ADD:
            kq.filters[key] = change

    read_fds = [
        ident for (ident, filt) in kq.filters if filt == EVFILT_READ
    ]
    write_fds = [
        ident for (ident, filt) in kq.filters if filt == EVFILT_WRITE
    ]
    if not read_fds and not write_fds:
        return []
    result = ctx.libc.select(read_fds, write_fds, timeout_ns)
    if result == -1:
        return []
    ready_r, ready_w = result
    events = [KEvent(fd, EVFILT_READ) for fd in ready_r]
    events += [KEvent(fd, EVFILT_WRITE) for fd in ready_w]
    return events[:max_events]


def kqueue_exports() -> Dict[str, object]:
    return {"_kqueue": kqueue, "_kevent": kevent}
