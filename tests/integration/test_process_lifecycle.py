"""End-to-end process lifecycle on the vanilla Android configuration."""

import pytest

from repro.binfmt import elf_executable, macho_executable
from repro.kernel import errno as E
from repro.kernel.signals import SIGTERM, SIGUSR1


def install_and_run(system, name, main, argv=None):
    image = elf_executable(name, main)
    system.kernel.vfs.install_binary(f"/system/bin/{name}", image)
    return system.run_program(f"/system/bin/{name}", argv)


class TestBasicExecution:
    def test_hello_world_exits_zero(self, vanilla):
        assert vanilla.run_program("/system/bin/hello") == 0

    def test_exit_code_propagates(self, vanilla):
        def main(ctx, argv):
            return 42

        assert install_and_run(vanilla, "exit42", main) == 42

    def test_virtual_time_advances(self, vanilla):
        start = vanilla.machine.now_ns
        vanilla.run_program("/system/bin/hello")
        assert vanilla.machine.now_ns > start

    def test_getpid_and_getppid(self, vanilla):
        seen = {}

        def main(ctx, argv):
            seen["pid"] = ctx.libc.getpid()
            seen["ppid"] = ctx.libc.getppid()
            return 0

        install_and_run(vanilla, "ids", main)
        assert seen["pid"] > 0
        assert seen["ppid"] == 0  # launched by the system, not a parent

    def test_macho_rejected_by_vanilla_android(self, vanilla):
        """Vanilla Android has no Mach-O binfmt handler: ENOEXEC."""
        image = macho_executable("ios-app", lambda ctx, argv: 0)
        vanilla.kernel.vfs.install_binary("/data/ios-app", image)
        with pytest.raises(Exception) as excinfo:
            vanilla.run_program("/data/ios-app")
        assert "ENOEXEC" in str(excinfo.value) or "binfmt" in str(excinfo.value)


class TestForkExecWait:
    def test_fork_returns_child_pid_and_wait_reaps(self, vanilla):
        log = {}

        def main(ctx, argv):
            def child(cctx):
                return 7

            pid = ctx.libc.fork(child)
            log["pid"] = pid
            reaped, code = ctx.libc.waitpid(pid)
            log["reaped"] = reaped
            log["code"] = code
            return 0

        install_and_run(vanilla, "forker", main)
        assert log["pid"] > 1
        assert log["reaped"] == log["pid"]
        assert log["code"] == 7

    def test_child_inherits_and_shares_open_file_offset(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            fd = libc.open("/tmp/shared.txt", 0o102)  # O_CREAT | O_RDWR
            libc.write(fd, b"abcdef")
            libc.lseek(fd, 0, 0)

            def child(cctx):
                cctx.libc.read(fd, 3)  # advances the shared offset
                return 0

            pid = libc.fork(child)
            libc.waitpid(pid)
            log["tail"] = libc.read(fd, 10)
            return 0

        install_and_run(vanilla, "sharefd", main)
        assert log["tail"] == b"def"

    def test_exec_replaces_image(self, vanilla):
        log = {}

        def main(ctx, argv):
            def child(cctx):
                cctx.libc.execve("/system/bin/hello")
                return 99  # unreachable: exec does not return

            pid = ctx.libc.fork(child)
            _, code = ctx.libc.waitpid(pid)
            log["code"] = code
            return 0

        install_and_run(vanilla, "execer", main)
        assert log["code"] == 0  # hello's exit code, not 99

    def test_fork_sh_runs_command(self, vanilla):
        log = {}

        def main(ctx, argv):
            def child(cctx):
                cctx.libc.execve(
                    "/system/bin/sh", ["sh", "-c", "/system/bin/hello"]
                )
                return 127

            pid = ctx.libc.fork(child)
            _, code = ctx.libc.waitpid(pid)
            log["code"] = code
            return 0

        install_and_run(vanilla, "shrun", main)
        assert log["code"] == 0

    def test_waitpid_no_children_fails_echild(self, vanilla):
        log = {}

        def main(ctx, argv):
            result = ctx.libc.waitpid()
            log["result"] = result
            log["errno"] = ctx.libc.errno
            return 0

        install_and_run(vanilla, "nochild", main)
        assert log["result"] == -1
        assert log["errno"] == E.ECHILD

    def test_processes_nobody_can_wait_for_leave_the_table(self, vanilla):
        """A program started by the system has no parent to wait for it,
        and an exiting parent's zombie children can no longer be waited
        for: both are reaped at exit, as init would."""
        table = vanilla.kernel.processes.table
        boot_size = len(table)

        def main(ctx, argv):
            ctx.libc.fork(lambda cctx: 0)  # never waited for
            ctx.libc.sched_yield()
            return 0

        for _ in range(5):
            assert vanilla.run_program("/system/bin/hello") == 0
            assert install_and_run(vanilla, "forkleak", main) == 0
        vanilla.run_until_idle()
        assert len(table) == boot_size

    def test_fork_charges_for_address_space_pages(self, vanilla):
        """A bigger image must make fork strictly more expensive."""
        times = {}

        def make_main(tag):
            def main(ctx, argv):
                watch = ctx.machine.stopwatch()

                def child(cctx):
                    return 0

                pid = ctx.libc.fork(child)
                ctx.libc.waitpid(pid)
                times[tag] = watch.elapsed_ns()
                return 0

            return main

        small = elf_executable("small", make_main("small"), text_kb=16)
        big = elf_executable("big", make_main("big"), text_kb=64 * 1024)
        vanilla.kernel.vfs.install_binary("/system/bin/small", small)
        vanilla.kernel.vfs.install_binary("/system/bin/big", big)
        vanilla.run_program("/system/bin/small")
        vanilla.run_program("/system/bin/big")
        assert times["big"] > times["small"] * 2


class TestPipesAndFiles:
    def test_pipe_between_parent_and_child(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            rfd, wfd = libc.pipe()

            def child(cctx):
                cctx.libc.write(wfd, b"ping")
                return 0

            pid = libc.fork(child)
            log["data"] = libc.read(rfd, 16)
            libc.waitpid(pid)
            return 0

        install_and_run(vanilla, "piper", main)
        assert log["data"] == b"ping"

    def test_pipe_eof_on_writer_close(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            rfd, wfd = libc.pipe()
            libc.write(wfd, b"x")
            libc.close(wfd)
            log["first"] = libc.read(rfd, 4)
            log["eof"] = libc.read(rfd, 4)
            return 0

        install_and_run(vanilla, "eof", main)
        assert log["first"] == b"x"
        assert log["eof"] == b""

    def test_file_create_write_read_delete(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            fd = libc.creat("/tmp/f.dat")
            libc.write(fd, b"A" * 1024)
            libc.close(fd)
            fd = libc.open("/tmp/f.dat")
            log["data_len"] = len(libc.read(fd, 4096))
            libc.close(fd)
            log["unlink"] = libc.unlink("/tmp/f.dat")
            log["reopen"] = libc.open("/tmp/f.dat")
            log["errno"] = libc.errno
            return 0

        install_and_run(vanilla, "filer", main)
        assert log["data_len"] == 1024
        assert log["unlink"] == 0
        assert log["reopen"] == -1
        assert log["errno"] == E.ENOENT

    def test_dev_zero_and_null(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            zfd = libc.open("/dev/zero")
            log["zeros"] = libc.read(zfd, 8)
            nfd = libc.open("/dev/null", 0o1)
            log["written"] = libc.write(nfd, b"discard")
            return 0

        install_and_run(vanilla, "devs", main)
        assert log["zeros"] == b"\x00" * 8
        assert log["written"] == 7


class TestSelect:
    def test_select_reports_readable_pipe(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            rfd, wfd = libc.pipe()
            log["before"] = libc.select([rfd])
            libc.write(wfd, b"data")
            log["after"] = libc.select([rfd])
            return 0

        install_and_run(vanilla, "selector", main)
        assert log["before"] == ([], [])
        assert log["after"] == ([rfd_for(log)], []) or log["after"][0]


def rfd_for(log):
    return log["after"][0][0]


class TestSignals:
    def test_handler_invoked_synchronously_on_self_kill(self, vanilla):
        log = {"handled": []}

        def main(ctx, argv):
            libc = ctx.libc

            def on_usr1(hctx, signum, info):
                log["handled"].append(signum)

            libc.signal(SIGUSR1, on_usr1)
            libc.raise_(SIGUSR1)
            log["after"] = True
            return 0

        install_and_run(vanilla, "sig", main)
        assert log["handled"] == [SIGUSR1]
        assert log["after"]

    def test_default_fatal_signal_kills_child(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc

            def child(cctx):
                # Block forever on an empty pipe; parent will SIGTERM us.
                r, _w = cctx.libc.pipe()
                cctx.libc.read(r, 1)
                return 0

            pid = libc.fork(child)
            libc.kill(pid, SIGTERM)
            _, code = libc.waitpid(pid)
            log["code"] = code
            return 0

        install_and_run(vanilla, "killer", main)
        assert log["code"] == 128 + SIGTERM

    def test_sigkill_cannot_be_caught(self, vanilla):
        from repro.kernel.signals import SIGKILL

        log = {}

        def main(ctx, argv):
            libc = ctx.libc

            def child(cctx):
                cctx.libc.signal(SIGKILL, lambda *a: None)
                r, _w = cctx.libc.pipe()
                cctx.libc.read(r, 1)
                return 0

            pid = libc.fork(child)
            libc.kill(pid, SIGKILL)
            _, code = libc.waitpid(pid)
            log["code"] = code
            return 0

        install_and_run(vanilla, "killer9", main)
        assert log["code"] == 128 + 9


class TestSockets:
    def test_socketpair_roundtrip(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            a, b = libc.socketpair()

            def child(cctx):
                data = cctx.libc.read(b, 16)
                cctx.libc.write(b, data.upper())
                return 0

            pid = libc.fork(child)
            libc.write(a, b"hello")
            log["reply"] = libc.read(a, 16)
            libc.waitpid(pid)
            return 0

        install_and_run(vanilla, "sockpair", main)
        assert log["reply"] == b"HELLO"

    def test_bind_connect_accept(self, vanilla):
        log = {}

        def main(ctx, argv):
            libc = ctx.libc
            server = libc.socket()
            libc.bind(server, "/tmp/srv.sock")

            def child(cctx):
                clibc = cctx.libc
                client = clibc.socket()
                clibc.connect(client, "/tmp/srv.sock")
                clibc.write(client, b"req")
                return 0

            pid = libc.fork(child)
            conn = libc.accept(server)
            log["request"] = libc.read(conn, 16)
            libc.waitpid(pid)
            return 0

        install_and_run(vanilla, "server", main)
        assert log["request"] == b"req"
