"""Unit tests for descriptor tables, open-file semantics, and devices."""

import pytest

from repro.cider.system import build_vanilla_android
from repro.kernel import errno as E
from repro.kernel.files import (
    FDTable,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    OpenFile,
    RegularHandle,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.kernel.errno import SyscallError
from repro.kernel.pipes import PIPE_CAPACITY
from repro.kernel.vfs import RegularFile
from repro.sim import WaitQueue

from helpers import run_elf


@pytest.fixture(scope="module")
def system():
    system = build_vanilla_android()
    yield system
    system.shutdown()


class TestFDTable:
    def test_lowest_free_fd_allocated(self, system):
        table = FDTable()
        f = OpenFile(system.machine)
        assert table.install(f) == 0
        assert table.install(f.incref()) == 1
        table.close(0)
        assert table.install(f.incref()) == 0

    def test_bad_fd_raises(self, system):
        table = FDTable()
        with pytest.raises(SyscallError) as err:
            table.get(7)
        assert err.value.errno == E.EBADF
        with pytest.raises(SyscallError) as err:
            table.close(7)
        assert err.value.errno == E.EBADF

    def test_dup2_closes_target(self, system):
        table = FDTable()
        a = OpenFile(system.machine)
        b = OpenFile(system.machine)
        fd_a = table.install(a)
        fd_b = table.install(b)
        table.dup2(fd_a, fd_b)
        assert table.get(fd_b) is a
        assert b.refcount == 0  # closed

    def test_dup2_same_fd_is_noop(self, system):
        table = FDTable()
        a = OpenFile(system.machine)
        fd = table.install(a)
        assert table.dup2(fd, fd) == fd
        assert a.refcount == 1

    def test_fork_copy_shares_open_files(self, system):
        table = FDTable()
        a = OpenFile(system.machine)
        table.install(a)
        child = table.fork_copy()
        assert child.get(0) is a
        assert a.refcount == 2

    def test_close_all_releases_refs(self, system):
        table = FDTable()
        a = OpenFile(system.machine)
        table.install(a)
        table.install(a.incref())
        table.close_all()
        assert a.refcount == 0
        assert len(table) == 0


class TestRegularHandleSemantics:
    def test_append_mode_starts_at_end(self, system):
        inode = RegularFile(b"abc")
        handle = RegularHandle(system.machine, inode, O_WRONLY | O_APPEND)
        handle.write(b"def")
        assert bytes(inode.data) == b"abcdef"

    def test_trunc_clears_file(self, system):
        inode = RegularFile(b"old data")
        RegularHandle(system.machine, inode, O_WRONLY | O_TRUNC)
        assert bytes(inode.data) == b""

    def test_write_on_readonly_fails(self, system):
        handle = RegularHandle(system.machine, RegularFile(b"x"), 0)
        with pytest.raises(SyscallError) as err:
            handle.write(b"y")
        assert err.value.errno == E.EBADF

    def test_read_on_writeonly_fails(self, system):
        handle = RegularHandle(system.machine, RegularFile(b"x"), O_WRONLY)
        with pytest.raises(SyscallError) as err:
            handle.read(1)
        assert err.value.errno == E.EBADF

    def test_sparse_write_zero_fills(self, system):
        inode = RegularFile(b"ab")
        handle = RegularHandle(system.machine, inode, O_RDWR)
        handle.lseek(5, SEEK_SET)
        handle.write(b"z")
        assert bytes(inode.data) == b"ab\x00\x00\x00z"

    def test_seek_whence_variants(self, system):
        inode = RegularFile(b"0123456789")
        handle = RegularHandle(system.machine, inode, O_RDWR)
        assert handle.lseek(4, SEEK_SET) == 4
        assert handle.lseek(2, SEEK_CUR) == 6
        assert handle.lseek(-1, SEEK_END) == 9
        with pytest.raises(SyscallError):
            handle.lseek(-100, SEEK_SET)

    def test_read_past_eof_is_empty(self, system):
        handle = RegularHandle(system.machine, RegularFile(b"ab"), 0)
        handle.lseek(10, SEEK_SET)
        assert handle.read(4) == b""


class TestOpenFlagsThroughSyscalls:
    def test_o_excl_on_existing_file(self, system):
        def body(ctx):
            libc = ctx.libc
            libc.creat("/tmp/excl-test")
            result = libc.open("/tmp/excl-test", O_CREAT | O_EXCL)
            return result, libc.errno

        result, errno = run_elf(system, body)
        assert result == -1
        assert errno == E.EEXIST

    def test_o_creat_creates(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.open("/tmp/new-file", O_CREAT | O_WRONLY)
            libc.write(fd, b"made")
            libc.close(fd)
            return libc.stat("/tmp/new-file")

        stat = run_elf(system, body)
        assert stat["size"] == 4

    def test_open_missing_without_creat(self, system):
        def body(ctx):
            result = ctx.libc.open("/tmp/never-existed")
            return result, ctx.libc.errno

        result, errno = run_elf(system, body)
        assert result == -1
        assert errno == E.ENOENT

    def test_readdir_via_getdents(self, system):
        def body(ctx):
            libc = ctx.libc
            libc.mkdir("/tmp/listing")
            libc.creat("/tmp/listing/a")
            libc.creat("/tmp/listing/b")
            return ctx.libc.readdir("/tmp/listing")

        assert run_elf(system, body) == ["a", "b"]

    def test_storage_traffic_recorded(self, system):
        def body(ctx):
            libc = ctx.libc
            before = ctx.machine.storage.bytes_written
            fd = libc.creat("/tmp/traffic")
            libc.write(fd, b"z" * 4096)
            libc.close(fd)
            return ctx.machine.storage.bytes_written - before

        assert run_elf(system, body) == 4096


class TestWaitQueues:
    """An open file builds a wait queue only when something first waits
    on it, under the name it always had; a pipe's two queues are its
    reader's, and both ends use them."""

    @pytest.fixture
    def built(self, monkeypatch):
        names = []
        init = WaitQueue.__init__

        def counting(queue, name="waitq"):
            names.append(name)
            init(queue, name)

        monkeypatch.setattr(WaitQueue, "__init__", counting)
        return names

    def test_open_and_close_build_no_queue(self, system, built):
        def body(ctx):
            libc = ctx.libc
            libc.close(libc.creat("/tmp/noqueue"))
            del built[:]
            for path in ("/tmp/noqueue", "/dev/null"):
                libc.close(libc.open(path, O_RDWR))
            return list(built)

        assert run_elf(system, body) == []

    def test_a_pipe_builds_no_queue_until_a_wait(self, system, built):
        """A transfer and both closes wake nothing, so they build
        nothing."""

        def body(ctx):
            libc = ctx.libc
            del built[:]
            rfd, wfd = libc.pipe()
            libc.write(wfd, b"x")
            libc.read(rfd, 1)
            libc.close(rfd)
            libc.close(wfd)
            return list(built)

        assert run_elf(system, body) == []

    @staticmethod
    def _blocked(libc, wake):
        """Start a thread that takes a thread dump, then calls ``wake``;
        returns the list the dump lands in."""
        dumps = []

        def sibling(tctx):
            dumps.append(tctx.machine.scheduler.thread_dump())
            wake(tctx.libc)
            return 0

        libc.pthread_create(sibling)
        return dumps

    def test_reader_blocked_on_an_empty_pipe_wakes(self, system):
        def body(ctx):
            libc = ctx.libc
            rfd, wfd = libc.pipe()
            dumps = self._blocked(libc, lambda tlibc: tlibc.write(wfd, b"hi"))
            return libc.read(rfd, 2), dumps

        data, dumps = run_elf(system, body)
        assert data == b"hi"
        assert "on=<WaitQueue 'PipeReader.read' waiters=1>" in dumps[0]

    def test_select_blocked_on_a_pipe_wakes(self, system):
        def body(ctx):
            libc = ctx.libc
            rfd, wfd = libc.pipe()
            dumps = self._blocked(libc, lambda tlibc: tlibc.write(wfd, b"x"))
            return rfd, libc.select([rfd], [], None), dumps

        rfd, ready, dumps = run_elf(system, body)
        assert ready == ([rfd], [])
        assert "on=<WaitQueue 'PipeReader.read' waiters=1>" in dumps[0]

    def test_select_for_writing_on_a_full_pipe_wakes(self, system):
        def body(ctx):
            libc = ctx.libc
            rfd, wfd = libc.pipe()
            libc.write(wfd, b"f" * PIPE_CAPACITY)
            dumps = self._blocked(libc, lambda tlibc: tlibc.read(rfd, 1))
            return wfd, libc.select([], [wfd], None), dumps

        wfd, ready, dumps = run_elf(system, body)
        assert ready == ([], [wfd])
        assert "on=<WaitQueue 'PipeReader.write' waiters=1>" in dumps[0]

    def test_a_queue_built_on_first_wait_has_its_old_name(self, system):
        """Nothing ever makes a pipe's write end readable: a select on it
        waits on a queue of the writer's own, built for that wait."""

        def body(ctx):
            libc = ctx.libc
            rfd, wfd = libc.pipe()
            dumps = self._blocked(libc, lambda tlibc: None)
            return libc.select([wfd], [], 1_000), dumps

        ready, dumps = run_elf(system, body)
        assert ready == ([], [])
        assert "on=<WaitQueue 'PipeWriter.read' waiters=1>" in dumps[0]
