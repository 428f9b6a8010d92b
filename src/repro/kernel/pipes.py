"""Pipes: the substrate for lmbench's lat_pipe and the shell's plumbing.

:func:`make_pipe` only builds the two endpoint objects; descriptor
installation happens in the ``pipe`` syscall via
:func:`repro.kernel.files.fd_alloc`, the single checked allocation path,
so ``RLIMIT_NOFILE`` surfaces EMFILE here exactly as it does for opens
and sockets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import WaitQueue
from .errno import EAGAIN, EPIPE, SyscallError
from .files import O_RDONLY, O_WRONLY, OpenFile
from .signals import SIGPIPE

if TYPE_CHECKING:
    from ..hw.machine import Machine
    from .kernel import Kernel

PIPE_CAPACITY = 65536


class _PipeCore:
    """Shared state between the two ends."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.buffer = bytearray()
        self.reader_open = True
        self.writer_open = True


class PipeReader(OpenFile):
    def __init__(self, machine: "Machine", core: _PipeCore) -> None:
        super().__init__(machine, O_RDONLY)
        self.core = core

    def poll_readable(self) -> bool:
        return bool(self.core.buffer) or not self.core.writer_open

    def poll_writable(self) -> bool:
        return False

    def read(self, nbytes: int) -> bytes:
        while not self.core.buffer:
            if not self.core.writer_open:
                return b""  # EOF
            if self.flags & 0o4000:  # O_NONBLOCK
                raise SyscallError(EAGAIN, "pipe empty")
            self.machine.kernel.wait_interruptible(self.read_waitq)
        self.machine.charge("pipe_transfer")
        data = bytes(self.core.buffer[:nbytes])
        del self.core.buffer[: len(data)]
        hb = self.machine.hb
        if hb is not None:
            # Data edge: the writer's history arrived with the bytes.
            hb.acquire(self.core)
        self.wake_waiters("write_waitq")
        return data

    def on_last_close(self) -> None:
        self.core.reader_open = False
        self.wake_waiters("write_waitq")


class PipeWriter(OpenFile):
    def __init__(self, machine: "Machine", core: _PipeCore) -> None:
        super().__init__(machine, O_WRONLY)
        self.core = core
        self.reader: PipeReader = None  # type: ignore[assignment]

    @property
    def write_waitq(self) -> WaitQueue:
        # Both ends share one writability queue (the reader's): the reader
        # wakes it after draining, and blocked writers park on it — and so
        # does select-for-writable on this end, which would otherwise
        # park on a queue nothing ever wakes.
        return self.reader.write_waitq

    def poll_readable(self) -> bool:
        return False

    def poll_writable(self) -> bool:
        return len(self.core.buffer) < PIPE_CAPACITY or not self.core.reader_open

    def write(self, data: bytes) -> int:
        sched = self.machine.scheduler
        kernel: "Kernel" = self.machine.kernel  # type: ignore[attr-defined]
        if not self.core.reader_open:
            # POSIX: SIGPIPE to the writer, then EPIPE.
            kthread = sched.current_thread().kthread
            if kthread is not None:
                kernel.send_signal_to_process(kthread.process, SIGPIPE)
            raise SyscallError(EPIPE, "reader closed")
        while len(self.core.buffer) >= PIPE_CAPACITY:
            if self.flags & 0o4000:
                raise SyscallError(EAGAIN, "pipe full")
            self.machine.kernel.wait_interruptible(self.reader.write_waitq)
            if not self.core.reader_open:
                raise SyscallError(EPIPE, "reader closed")
        self.machine.charge("pipe_transfer")
        room = PIPE_CAPACITY - len(self.core.buffer)
        accepted = data[:room]
        self.core.buffer.extend(accepted)
        hb = self.machine.hb
        if hb is not None:
            hb.release(self.core)
        self.reader.wake_waiters("read_waitq")
        return len(accepted)

    def on_last_close(self) -> None:
        self.core.writer_open = False
        self.reader.wake_waiters("read_waitq")


def make_pipe(machine: "Machine"):
    """Create a connected (reader, writer) pair.

    The pipe's two wait queues are the reader's, built on first wait
    like any open file's; a transfer or a close wakes only a queue that
    exists, since nobody can wait on one that does not."""
    core = _PipeCore(machine)
    reader = PipeReader(machine, core)
    writer = PipeWriter(machine, core)
    writer.reader = reader
    return reader, writer
