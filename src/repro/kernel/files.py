"""Open files and descriptor tables.

The open-file layer sits between syscalls and inodes: each successful
``open`` produces an :class:`OpenFile` (offset, flags, per-open state)
which descriptor tables reference.  ``fork`` shares open-file objects
between parent and child — offsets are shared, exactly as POSIX requires.

Every open file is *pollable*: it reports instantaneous read/write
readiness and exposes wait queues so ``select`` and blocking reads can
park on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim import WaitQueue
from .errno import EBADF, EINVAL, EISDIR, EMFILE, ENOSPC, SyscallError
from .vfs import Directory, RegularFile

if TYPE_CHECKING:
    from ..hw.machine import Machine
    from .process import Process

# open(2) flag bits (Linux ARM values where they matter).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_NONBLOCK = 0o4000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class OpenFile:
    """Base open-file object (one per successful open)."""

    def __init__(self, machine: "Machine", flags: int = O_RDONLY) -> None:
        self.machine = machine
        self.flags = flags
        self.refcount = 1
        self.read_waitq = WaitQueue(f"{type(self).__name__}.read")
        self.write_waitq = WaitQueue(f"{type(self).__name__}.write")

    # readiness ---------------------------------------------------------------
    def poll_readable(self) -> bool:
        return True

    def poll_writable(self) -> bool:
        return True

    # I/O -----------------------------------------------------------------------
    def read(self, nbytes: int) -> bytes:
        raise SyscallError(EINVAL, "not readable")

    def write(self, data: bytes) -> int:
        raise SyscallError(EINVAL, "not writable")

    def lseek(self, offset: int, whence: int) -> int:
        raise SyscallError(EINVAL, "not seekable")

    # lifecycle -------------------------------------------------------------------
    def incref(self) -> "OpenFile":
        self.refcount += 1
        return self

    def decref(self) -> None:
        self.refcount -= 1
        if self.refcount == 0:
            self.on_last_close()

    def on_last_close(self) -> None:
        """Subclass hook (pipes signal EOF, sockets tear down, ...)."""


class RegularHandle(OpenFile):
    """An open regular file."""

    def __init__(
        self, machine: "Machine", inode: RegularFile, flags: int
    ) -> None:
        super().__init__(machine, flags)
        self.inode = inode
        self.offset = inode.size_bytes if flags & O_APPEND else 0
        if flags & O_TRUNC and flags & (O_WRONLY | O_RDWR):
            inode.data = bytearray()
            if inode.storage_reserved:
                res = machine.resources
                if res is not None:
                    res.release_storage(inode.storage_reserved)
                inode.storage_reserved = 0
            if inode.ino:
                journal = machine.storage.journal
                if journal is not None and not journal.replaying:
                    journal.truncate(inode)

    def read(self, nbytes: int) -> bytes:
        if self.flags & O_WRONLY:
            raise SyscallError(EBADF, "opened write-only")
        self.machine.charge("read_base")
        data = bytes(self.inode.data[self.offset : self.offset + nbytes])
        if data:
            kb = max(1, len(data) // 1024)
            self.machine.charge("file_read_per_kb", kb)
            self.machine.charge("storage_read_per_kb", kb)
            self.machine.storage.record_read(len(data))
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if not self.flags & (O_WRONLY | O_RDWR):
            raise SyscallError(EBADF, "opened read-only")
        machine = self.machine
        if machine.faults is not None:
            # ``vfs.write``: forced scarcity verdicts (ENOSPC and friends)
            # without needing a full storage budget.
            outcome = machine.faults.check("vfs.write", size=len(data))
            if outcome is not None:
                if outcome.kind == "delay":
                    machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
                elif outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        "fault injected: write",
                    )
                else:  # kern/signal degrade to ENOSPC at a scarcity point
                    raise SyscallError(ENOSPC, "fault injected: write")
        growth = self.offset + len(data) - len(self.inode.data)
        if growth > 0:
            res = machine.resources
            if res is not None:
                if not res.reserve_storage(growth):
                    raise SyscallError(
                        ENOSPC, f"no space left on device ({growth} bytes)"
                    )
                self.inode.storage_reserved += growth
        self.machine.charge("write_base")
        if data:
            kb = max(1, len(data) // 1024)
            self.machine.charge("file_write_per_kb", kb)
            self.machine.charge("storage_write_per_kb", kb)
            self.machine.storage.record_write(len(data))
        end = self.offset + len(data)
        if end > len(self.inode.data):
            self.inode.data.extend(b"\x00" * (end - len(self.inode.data)))
        self.inode.data[self.offset : end] = data
        start, self.offset = self.offset, end
        if data and self.inode.ino:
            # Dirty-page bookkeeping only (RAM state; charges nothing):
            # the bytes reach "flash" at fsync/fdatasync/sync time, or
            # survive a power cut only if the seeded writeback got there.
            journal = machine.storage.journal
            if journal is not None:
                journal.mark_dirty(self.inode, start, end)
                journal.note_size(self.inode.ino, len(self.inode.data))
        return len(data)

    def lseek(self, offset: int, whence: int) -> int:
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self.offset + offset
        elif whence == SEEK_END:
            new = self.inode.size_bytes + offset
        else:
            raise SyscallError(EINVAL, f"whence={whence}")
        if new < 0:
            raise SyscallError(EINVAL, "negative offset")
        self.offset = new
        return new


class DeviceHandle(OpenFile):
    """An open device node; I/O delegates to the driver."""

    def __init__(self, machine: "Machine", driver: object, flags: int) -> None:
        super().__init__(machine, flags)
        self.driver = driver

    def poll_readable(self) -> bool:
        poll = getattr(self.driver, "poll_readable", None)
        return poll(self) if poll else True

    def read(self, nbytes: int) -> bytes:
        return self.driver.read(self, nbytes)

    def write(self, data: bytes) -> int:
        return self.driver.write(self, data)

    def ioctl(self, request: int, arg: object) -> object:
        ioctl = getattr(self.driver, "ioctl", None)
        if ioctl is None:
            raise SyscallError(EINVAL, "driver has no ioctl")
        return ioctl(self, request, arg)


class DirectoryHandle(OpenFile):
    """An open directory (readdir only)."""

    def __init__(self, machine: "Machine", inode: Directory) -> None:
        super().__init__(machine, O_RDONLY)
        self.inode = inode
        self._cursor = 0

    def read(self, nbytes: int) -> bytes:
        raise SyscallError(EISDIR, "read on directory")

    def readdir(self) -> Optional[str]:
        names = self.inode.names()
        if self._cursor >= len(names):
            return None
        name = names[self._cursor]
        self._cursor += 1
        return name


class FDTable:
    """A process's descriptor table.

    ``nofile_limit`` is the process's effective ``RLIMIT_NOFILE`` soft
    limit (kept in sync by the setrlimit trap); :meth:`install` is the
    single checked allocation path every new descriptor flows through —
    opens, pipes, sockets, accepts and dups all surface EMFILE here.
    """

    MAX_FDS = 1024

    def __init__(self) -> None:
        self._fds: Dict[int, OpenFile] = {}
        self.nofile_limit = self.MAX_FDS
        #: Every fd below this is in use, so the lowest free fd is found
        #: by scanning up from here rather than from 0.
        self._low = 0

    def install(self, open_file: OpenFile) -> int:
        fds = self._fds
        if len(fds) >= self.nofile_limit:
            raise SyscallError(
                EMFILE, f"too many open files (RLIMIT_NOFILE={self.nofile_limit})"
            )
        fd = self._low
        while fd in fds:
            fd += 1
        if fd >= self.MAX_FDS:
            raise SyscallError(EMFILE, "fd table full")
        fds[fd] = open_file
        self._low = fd + 1
        return fd

    def get(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise SyscallError(EBADF, f"fd {fd}") from None

    def close(self, fd: int) -> None:
        open_file = self.get(fd)
        del self._fds[fd]
        if fd < self._low:
            self._low = fd
        open_file.decref()

    def dup(self, fd: int) -> int:
        return self.install(self.get(fd).incref())

    def dup2(self, fd: int, newfd: int) -> int:
        open_file = self.get(fd)
        if newfd == fd:
            return newfd
        if newfd in self._fds:
            self.close(newfd)
        self._fds[newfd] = open_file.incref()
        return newfd

    def fork_copy(self) -> "FDTable":
        child = FDTable()
        child._fds = {fd: f.incref() for fd, f in self._fds.items()}
        child.nofile_limit = self.nofile_limit
        child._low = self._low
        return child

    def close_all(self) -> None:
        for fd in list(self._fds):
            self.close(fd)

    def open_fds(self) -> List[int]:
        return sorted(self._fds)

    def __len__(self) -> int:
        return len(self._fds)


def fd_alloc(process: "Process", open_file: OpenFile) -> int:
    """THE checked descriptor-allocation helper.

    Every syscall path that mints a new descriptor — ``open``, ``pipe``,
    ``socket``, ``accept``, ``socketpair`` (see
    :mod:`repro.kernel.pipes` / :mod:`repro.kernel.unix_sockets`) — calls
    this so ``RLIMIT_NOFILE`` is enforced uniformly: one place returns
    EMFILE, no allocation path can forget the check.
    """
    return process.fd_table.install(open_file)
