"""The virtual network stack: sockets, DNS, HTTP, pass-through, determinism.

The headline assertions of this file:

* **pass-through** — running the identical socket workload through XNU
  trap numbers costs exactly ``n_traps x xnu_translate_syscall`` more
  virtual time than through Linux numbers: the network path shares one
  kernel implementation and the persona edge is the *only* difference.
* **determinism** — two same-seed netbench runs (including under an
  injected-loss fault plan) produce byte-identical packet logs and
  bit-identical virtual clocks.
* **zero-cost-when-off** — a machine that never touches INET sockets
  never even builds its netstack (`net_if_up is None`).
"""

import pytest

from repro.binfmt import elf_executable, macho_executable
from repro.cider.system import build_cider, build_vanilla_android
from repro.kernel import errno as E
from repro.kernel.files import O_NONBLOCK
from repro.net.http import ORIGIN_HOST, http_get
from repro.net.netstack import DNS_PORT, DNS_SERVER_IP
from repro.net.sockets import (
    AF_INET,
    SHUT_WR,
    SOCK_DGRAM,
    SOCK_STREAM,
    UDP_MAX_PAYLOAD,
)
from repro.sim.faults import FaultOutcome, FaultPlan

from helpers import run_elf, run_macho


@pytest.fixture(scope="module")
def vanilla():
    system = build_vanilla_android()
    yield system
    system.shutdown()


@pytest.fixture(scope="module")
def cider():
    system = build_cider()
    yield system
    system.shutdown()


@pytest.fixture(scope="module")
def cider_httpd():
    system = build_cider(with_httpd=True)
    yield system
    system.shutdown()


def _set_nonblock(ctx, fd):
    ctx.thread.process.fd_table.get(fd).flags |= O_NONBLOCK


# -- basic INET behaviour -------------------------------------------------------


class TestINetStream:
    def test_tcp_echo_over_loopback(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            srv = libc.socket(AF_INET, SOCK_STREAM)
            assert libc.bind(srv, ("127.0.0.1", 7001)) == 0
            assert libc.listen(srv, 8) == 0
            cli = libc.socket(AF_INET, SOCK_STREAM)
            assert libc.connect(cli, ("127.0.0.1", 7001)) == 0
            conn = libc.accept(srv)
            assert conn >= 0
            assert libc.write(cli, b"ping") == 4
            got = libc.read(conn, 16)
            assert libc.write(conn, b"pong!") == 5
            echoed = libc.read(cli, 16)
            name = libc.getsockname(cli)
            for fd in (conn, cli, srv):
                libc.close(fd)
            return got, echoed, name

        got, echoed, name = run_elf(vanilla, body)
        assert got == b"ping"
        assert echoed == b"pong!"
        assert name[0] == "127.0.0.1" and name[1] >= 49152  # ephemeral

    def test_connect_refused_without_listener(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            fd = libc.socket(AF_INET, SOCK_STREAM)
            result = libc.connect(fd, ("127.0.0.1", 7999))
            err = libc.errno
            libc.close(fd)
            return result, err

        result, err = run_elf(vanilla, body)
        assert result == -1 and err == E.ECONNREFUSED

    def test_bind_conflict_is_eaddrinuse(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            a = libc.socket(AF_INET, SOCK_STREAM)
            b = libc.socket(AF_INET, SOCK_STREAM)
            assert libc.bind(a, ("127.0.0.1", 7002)) == 0
            assert libc.listen(a) == 0
            result = libc.bind(b, ("127.0.0.1", 7002))
            err = libc.errno
            second = libc.listen(b)
            libc.close(a)
            libc.close(b)
            return result, err, second

        result, err, _second = run_elf(vanilla, body)
        assert result == -1 and err == E.EADDRINUSE

    def test_route_to_nowhere_is_ehostunreach(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            fd = libc.socket(AF_INET, SOCK_STREAM)
            result = libc.connect(fd, ("203.0.113.9", 80))
            err = libc.errno
            libc.close(fd)
            return result, err

        result, err = run_elf(vanilla, body)
        assert result == -1 and err == E.EHOSTUNREACH

    def test_shutdown_wr_gives_peer_eof(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            srv = libc.socket(AF_INET, SOCK_STREAM)
            libc.bind(srv, ("127.0.0.1", 7003))
            libc.listen(srv)
            cli = libc.socket(AF_INET, SOCK_STREAM)
            libc.connect(cli, ("127.0.0.1", 7003))
            conn = libc.accept(srv)
            libc.write(cli, b"last")
            libc.shutdown(cli, SHUT_WR)
            first = libc.read(conn, 16)
            eof = libc.read(conn, 16)
            for fd in (conn, cli, srv):
                libc.close(fd)
            return first, eof

        first, eof = run_elf(vanilla, body)
        assert first == b"last" and eof == b""

    def test_nonblocking_accept_and_read_raise_eagain(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            srv = libc.socket(AF_INET, SOCK_STREAM)
            libc.bind(srv, ("127.0.0.1", 7004))
            libc.listen(srv)
            _set_nonblock(ctx, srv)
            a_result = libc.accept(srv)
            a_err = libc.errno
            cli = libc.socket(AF_INET, SOCK_STREAM)
            libc.connect(cli, ("127.0.0.1", 7004))
            conn = libc.accept(srv)  # pending now: succeeds even nonblock
            _set_nonblock(ctx, cli)
            r_result = libc.read(cli, 16)
            r_err = libc.errno
            for fd in (conn, cli, srv):
                libc.close(fd)
            return a_result, a_err, conn >= 0, r_result, r_err

        a_result, a_err, accepted, r_result, r_err = run_elf(vanilla, body)
        assert a_result == -1 and a_err == E.EAGAIN
        assert accepted
        assert r_result == -1 and r_err == E.EAGAIN


class TestINetDatagram:
    def test_udp_roundtrip_and_source_address(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            rx = libc.socket(AF_INET, SOCK_DGRAM)
            libc.bind(rx, ("127.0.0.1", 7010))
            tx = libc.socket(AF_INET, SOCK_DGRAM)
            assert libc.sendto(tx, b"datagram", ("127.0.0.1", 7010)) == 8
            data, src = libc.recvfrom(rx, 64)
            libc.close(tx)
            libc.close(rx)
            return data, src

        data, src = run_elf(vanilla, body)
        assert data == b"datagram"
        assert src[0] == "127.0.0.1"

    def test_oversize_datagram_is_emsgsize(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            fd = libc.socket(AF_INET, SOCK_DGRAM)
            result = libc.sendto(
                fd, b"x" * (UDP_MAX_PAYLOAD + 1), ("127.0.0.1", 7011)
            )
            err = libc.errno
            libc.close(fd)
            return result, err

        result, err = run_elf(vanilla, body)
        assert result == -1 and err == E.EMSGSIZE

    def test_dns_resolver_both_answers(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            hit = libc.getaddrinfo("localhost")
            miss = libc.getaddrinfo("no.such.host")
            return hit, miss

        hit, miss = run_elf(vanilla, body)
        assert hit == "127.0.0.1"
        assert miss is None

    def test_dns_traffic_lands_in_packet_log(self, vanilla):
        log = vanilla.machine.net.packet_log()
        assert f"{DNS_SERVER_IP}:{DNS_PORT}" in log
        assert "[DNS]" in log


# -- the satellite regression: AF_UNIX O_NONBLOCK ------------------------------


class TestUnixNonblockRegression:
    def test_unix_accept_eagain_when_backlog_empty(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            srv = libc.socket()  # AF_UNIX
            libc.bind(srv, "/tmp/nb.sock")
            _set_nonblock(ctx, srv)
            result = libc.accept(srv)
            err = libc.errno
            libc.close(srv)
            return result, err

        result, err = run_elf(vanilla, body)
        assert result == -1 and err == E.EAGAIN

    def test_unix_write_eagain_when_peer_buffer_full(self, vanilla):
        def body(ctx):
            libc = ctx.libc
            left, right = libc.socketpair()
            _set_nonblock(ctx, left)
            total = 0
            result, err = 0, 0
            while True:
                result = libc.write(left, b"z" * 4096)
                if result == -1:
                    err = libc.errno
                    break
                total += result
            libc.close(left)
            libc.close(right)
            return total, result, err

        total, result, err = run_elf(vanilla, body)
        assert total == 65536  # exactly the stream capacity
        assert result == -1 and err == E.EAGAIN


# -- transfers are happens-before edges, whatever the family -------------------


def _send_then_receive(system, family):
    """A sender thread writes ``x`` and then sends one byte; a receiver
    thread receives it and then writes ``x``.  The sender runs first, so
    the receiver never blocks: only the transfer itself can order the
    two writes.  With ``family`` None nothing is sent.  Returns the race
    reports."""

    def body(ctx):
        libc = ctx.libc
        done_r, done_w = libc.pipe()
        if family == "unix":
            tx, rx = libc.socketpair()
        elif family == "tcp":
            srv = libc.socket(AF_INET, SOCK_STREAM)
            libc.bind(srv, ("127.0.0.1", 7050))
            libc.listen(srv, 1)
            tx = libc.socket(AF_INET, SOCK_STREAM)
            libc.connect(tx, ("127.0.0.1", 7050))
            rx = libc.accept(srv)
            libc.close(srv)
        elif family == "udp":
            rx = libc.socket(AF_INET, SOCK_DGRAM)
            libc.bind(rx, ("127.0.0.1", 7051))
            tx = libc.socket(AF_INET, SOCK_DGRAM)

        def sender(tctx):
            tctx.machine.hb.access("x", True, "sender")
            if family == "udp":
                tctx.libc.sendto(tx, b"m", ("127.0.0.1", 7051))
            elif family is not None:
                tctx.libc.write(tx, b"m")
            return 0

        def receiver(tctx):
            if family == "udp":
                assert tctx.libc.recvfrom(rx, 1)[0] == b"m"
            elif family is not None:
                assert tctx.libc.read(rx, 1) == b"m"
            tctx.machine.hb.access("x", True, "receiver")
            tctx.libc.write(done_w, b"k")
            return 0

        libc.pthread_create(sender, "sender")
        libc.pthread_create(receiver, "receiver")
        libc.read(done_r, 1)
        for fd in (done_r, done_w) + ((tx, rx) if family else ()):
            libc.close(fd)

    monitor = system.machine.install_hb_monitor()
    try:
        run_elf(system, body)
    finally:
        system.machine.clear_hb_monitor()
    return monitor.race_reports()


class TestTransfersOrderAccesses:
    def test_without_a_transfer_the_writes_race(self, vanilla):
        reports = _send_then_receive(vanilla, None)
        assert len(reports) == 1 and reports[0].startswith("race on x: ")

    @pytest.mark.parametrize("family", ["unix", "tcp", "udp"])
    def test_a_transfer_orders_the_writes(self, vanilla, family):
        assert _send_then_receive(vanilla, family) == []


# -- pass-through: the XNU path costs exactly the dispatch overhead ------------


def _echo_workload(port):
    """The identical socket workload both personas run: every call here
    is one syscall through the caller's persona table."""

    def body(ctx):
        libc = ctx.libc
        clock = ctx.machine.clock
        trace = ctx.machine.trace
        start_ps = clock.charged_ps
        start_all = trace.count("syscall")
        start_xnu = trace.count("syscall", "xnu")

        srv = libc.socket(AF_INET, SOCK_STREAM)
        libc.setsockopt(srv, 1, 2, 1)  # SOL_SOCKET, SO_REUSEADDR
        libc.bind(srv, ("127.0.0.1", port))
        libc.listen(srv, 8)
        cli = libc.socket(AF_INET, SOCK_STREAM)
        libc.connect(cli, ("127.0.0.1", port))
        conn = libc.accept(srv)
        for _ in range(16):
            assert libc.write(cli, b"x" * 1024) == 1024
            assert libc.read(conn, 1024) == b"x" * 1024
        libc.getsockname(cli)
        libc.shutdown(cli, SHUT_WR)
        libc.read(conn, 1)  # EOF
        libc.close(conn)
        libc.close(cli)
        libc.close(srv)

        return (
            clock.charged_ps - start_ps,
            trace.count("syscall") - start_all,
            trace.count("syscall", "xnu") - start_xnu,
        )

    return body


class TestPassThrough:
    def test_xnu_socket_path_adds_only_dispatch_overhead(self, cider):
        linux_ps, linux_traps, linux_xnu = run_elf(
            cider, _echo_workload(7021)
        )
        ios_ps, ios_traps, ios_xnu = run_macho(cider, _echo_workload(7022))

        # Identical workload: same number of traps either way.
        assert linux_traps == ios_traps
        assert linux_xnu == 0
        assert ios_xnu == ios_traps

        # The iOS run costs *exactly* one xnu_translate_syscall dispatch
        # per trap more — nothing else differs on the shared socket path.
        dispatch_ps = cider.machine.cost_ps("xnu_translate_syscall")
        assert ios_ps - linux_ps == ios_xnu * dispatch_ps

    def test_both_personas_share_the_socket_implementation(self, cider):
        """The XNU BSD table rows dispatch to the very same handler
        objects as the Linux rows — pass-through by identity, not
        re-implementation."""
        from repro.compat import xnu_abi
        from repro.kernel import syscalls_linux as linux

        kernel = cider.kernel
        personas = kernel.personas
        ios = personas.get("ios").abi.bsd
        pairs = [
            (xnu_abi.SYS_socket, linux.NR_socket),
            (xnu_abi.SYS_bind, linux.NR_bind),
            (xnu_abi.SYS_listen, linux.NR_listen),
            (xnu_abi.SYS_accept, linux.NR_accept),
            (xnu_abi.SYS_connect, linux.NR_connect),
            (xnu_abi.SYS_sendto, linux.NR_sendto),
            (xnu_abi.SYS_recvfrom, linux.NR_recvfrom),
            (xnu_abi.SYS_setsockopt, linux.NR_setsockopt),
            (xnu_abi.SYS_getsockname, linux.NR_getsockname),
            (xnu_abi.SYS_shutdown, linux.NR_shutdown),
        ]
        android = personas.get("android").abi.table
        for xnu_nr, linux_nr in pairs:
            assert ios.lookup(xnu_nr)[1] is android.lookup(linux_nr)[1]


# -- HTTP origin + supervision --------------------------------------------------


class TestHTTPOrigin:
    def test_both_personas_fetch_same_bytes(self, cider_httpd):
        def fetch(ctx):
            return http_get(ctx, ORIGIN_HOST, "/hello")

        android = run_elf(cider_httpd, fetch)
        ios = run_macho(cider_httpd, fetch)
        assert android == ios == (200, b"hello from the origin\n")

    def test_content_routes(self, cider_httpd):
        def fetch(ctx):
            return (
                http_get(ctx, ORIGIN_HOST, "/bytes/2048"),
                http_get(ctx, ORIGIN_HOST, "/missing"),
            )

        (s1, b1), (s2, _b2) = run_elf(cider_httpd, fetch)
        assert s1 == 200 and b1 == b"x" * 2048
        assert s2 == 404

    def test_launchd_respawns_killed_httpd(self, cider_httpd):
        # SIGKILL is 9 under both numbering schemes.
        XNU_SIGKILL = 9

        kernel = cider_httpd.kernel

        def httpd_pids():
            return [
                p.pid
                for p in kernel.processes.table.values()
                if p.name == "httpd" and p.state == "running"
            ]

        before = httpd_pids()
        assert before, "launchd should have spawned httpd at boot"
        victim = before[0]

        def assassin(ctx):
            return ctx.libc.kill(victim, XNU_SIGKILL)

        run_macho(cider_httpd, assassin)
        cider_httpd.run_until_idle()  # ride out the respawn backoff

        after = httpd_pids()
        assert after and after[0] != victim, "keep-alive respawn missing"

        # And the respawned origin serves again.
        status, body = run_elf(
            cider_httpd, lambda ctx: http_get(ctx, ORIGIN_HOST, "/hello")
        )
        assert status == 200 and body == b"hello from the origin\n"

    def test_android_supervisor_respawns_killed_httpd(self):
        from repro.kernel.signals import SIGKILL

        system = build_vanilla_android(with_framework=True, with_httpd=True)
        try:
            assert "httpd" in system.android.services
            kernel = system.kernel

            def httpd_pids():
                return [
                    p.pid
                    for p in kernel.processes.table.values()
                    if p.name == "httpd" and p.state == "running"
                ]

            victim = httpd_pids()[0]
            run_elf(system, lambda ctx: ctx.libc.kill(victim, SIGKILL))
            system.run_until_idle()
            after = httpd_pids()
            assert after and after[0] != victim
            status, body = run_elf(
                system, lambda ctx: http_get(ctx, ORIGIN_HOST, "/hello")
            )
            assert status == 200 and body == b"hello from the origin\n"
        finally:
            system.shutdown()


# -- readiness interop: iOS kqueue + Android select on one connection ----------


def _interop_run():
    """One TCP connection; the iOS end waits with kevent, the Android end
    with select.  Returns the machine-global wake-order transcript."""
    from repro.ios.kqueue import EV_ADD, EVFILT_READ, EVFILT_WRITE, KEvent, kevent, kqueue

    system = build_cider()
    events = []

    def ios_server(ctx, argv):
        libc = ctx.libc
        srv = libc.socket(AF_INET, SOCK_STREAM)
        libc.bind(srv, ("127.0.0.1", 7030))
        libc.listen(srv, 4)
        events.append("ios:listening")
        conn = libc.accept(srv)
        events.append("ios:accepted")
        kq = kqueue(ctx)
        ready = kevent(
            ctx,
            kq,
            [KEvent(conn, EVFILT_READ, EV_ADD)],
            timeout_ns=None,
        )
        events.append(
            "ios:kevent:" + ",".join(
                f"{e.ident}r" if e.filter == EVFILT_READ else f"{e.ident}w"
                for e in ready
            )
        )
        data = libc.read(conn, 64)
        events.append(f"ios:read:{data.decode()}")
        libc.write(conn, b"pong")
        libc.close(conn)
        libc.close(srv)
        events.append("ios:done")
        return 0

    def android_client(ctx, argv):
        libc = ctx.libc
        fd = libc.socket(AF_INET, SOCK_STREAM)
        libc.connect(fd, ("127.0.0.1", 7030))
        events.append("android:connected")
        ready_r, ready_w = libc.select([], [fd], None)
        events.append(f"android:select-writable:{len(ready_w)}")
        libc.write(fd, b"ping")
        events.append("android:sent")
        ready_r, ready_w = libc.select([fd], [], None)
        events.append(f"android:select-readable:{len(ready_r)}")
        data = libc.read(fd, 64)
        events.append(f"android:read:{data.decode()}")
        libc.close(fd)
        return 0

    vfs = system.kernel.vfs
    vfs.makedirs("/data/interop")
    vfs.install_binary(
        "/data/interop/server", macho_executable("kq_server", ios_server)
    )
    vfs.install_binary(
        "/data/interop/client",
        elf_executable("sel_client", android_client, deps=["libc.so"]),
    )
    system.kernel.start_process(
        "/data/interop/server", name="kq_server", daemon=True
    )
    assert system.run_program("/data/interop/client") == 0
    system.run_until_idle()
    digest = system.machine.net.log_digest()
    system.shutdown()
    return events, digest


class TestKqueueSelectInterop:
    def test_wake_order_is_deterministic(self):
        first_events, first_digest = _interop_run()
        second_events, second_digest = _interop_run()
        assert first_events == second_events
        assert first_digest == second_digest

        # The transcript itself: the handshake precedes the accept (the
        # SYN queue fills before the server runs), the iOS kevent/read
        # fire only after the Android write, and the Android
        # select-readable only after the iOS echo.
        assert first_events.index("android:connected") < first_events.index(
            "ios:accepted"
        )
        assert first_events.index("android:sent") < first_events.index(
            "ios:read:ping"
        )
        assert "android:read:pong" in first_events
        kevent_line = next(e for e in first_events if e.startswith("ios:kevent:"))
        assert kevent_line.endswith("r")  # EVFILT_READ fired


# -- faults, resources, observability ------------------------------------------


class TestNetFaults:
    def test_injected_connect_errno_surfaces(self, ):
        system = build_vanilla_android()
        try:
            plan = FaultPlan(seed=7)
            plan.rule("net.connect", FaultOutcome.errno(E.ETIMEDOUT), nth=1)
            system.machine.install_fault_plan(plan)

            def body(ctx):
                libc = ctx.libc
                srv = libc.socket(AF_INET, SOCK_STREAM)
                libc.bind(srv, ("127.0.0.1", 7040))
                libc.listen(srv)
                cli = libc.socket(AF_INET, SOCK_STREAM)
                first = libc.connect(cli, ("127.0.0.1", 7040))
                first_err = libc.errno
                second = libc.connect(cli, ("127.0.0.1", 7040))
                libc.close(cli)
                libc.close(srv)
                return first, first_err, second

            first, first_err, second = run_elf(system, body)
            assert first == -1 and first_err == E.ETIMEDOUT
            assert second == 0  # transient: the retry lands
            assert plan.events and plan.events[0].point == "net.connect"
        finally:
            system.shutdown()

    def test_injected_loss_drops_then_retransmits(self):
        system = build_vanilla_android()
        try:
            plan = FaultPlan(seed=11)
            plan.rule(
                "net.send",
                FaultOutcome.delay(3_000_000.0),  # one RTO
                nth=2,
                max_fires=1,
            )
            system.machine.install_fault_plan(plan)

            def body(ctx):
                libc = ctx.libc
                srv = libc.socket(AF_INET, SOCK_STREAM)
                libc.bind(srv, ("127.0.0.1", 7041))
                libc.listen(srv)
                cli = libc.socket(AF_INET, SOCK_STREAM)
                libc.connect(cli, ("127.0.0.1", 7041))
                conn = libc.accept(srv)
                assert libc.write(cli, b"a" * 100) == 100
                assert libc.write(cli, b"b" * 100) == 100  # this one drops
                got = libc.read(conn, 200)
                for fd in (conn, cli, srv):
                    libc.close(fd)
                return got

            got = run_elf(system, body)
            assert got == b"a" * 100 + b"b" * 100  # TCP recovered
            net = system.machine.net
            assert net.drops == 1
            assert "[DROP]" in net.packet_log()
        finally:
            system.shutdown()


class TestNetResources:
    def test_socket_buffers_charge_ram_enobufs(self):
        system = build_vanilla_android()
        try:
            system.machine.install_resources()

            def body(ctx):
                libc = ctx.libc
                # Tighten the budget only once our own text/libs are
                # mapped: room for exactly two sockets' buffers on top
                # of whatever is already reserved.
                envelope = ctx.machine.resources
                envelope.ram_budget_bytes = envelope.ram_used + 2 * 65536
                fds, result, err = [], 0, 0
                for _ in range(3):
                    result = libc.socket(AF_INET, SOCK_DGRAM)
                    if result == -1:
                        err = libc.errno
                        break
                    fds.append(result)
                opened = len(fds)
                for fd in fds:
                    libc.close(fd)
                retry = libc.socket(AF_INET, SOCK_DGRAM)
                libc.close(retry)
                return opened, result, err, retry

            opened, result, err, retry = run_elf(system, body)
            assert opened == 2
            assert result == -1 and err == E.ENOBUFS
            assert retry >= 0  # closing released the reservations
        finally:
            system.shutdown()

    def test_rlimit_nofile_caps_sockets_with_emfile(self, vanilla):
        from repro.sim.resources import RLIMIT_NOFILE

        def body(ctx):
            libc = ctx.libc
            assert libc.setrlimit(RLIMIT_NOFILE, 4) == 0
            fds, result, err = [], 0, 0
            for _ in range(8):
                result = libc.socket(AF_INET, SOCK_STREAM)
                if result == -1:
                    err = libc.errno
                    break
                fds.append(result)
            for fd in fds:
                libc.close(fd)
            return len(fds), result, err

        opened, result, err = run_elf(vanilla, body)
        assert result == -1 and err == E.EMFILE
        assert 0 < opened <= 4


class TestNetObservability:
    def test_spans_and_counters_record_traffic(self):
        system = build_vanilla_android(with_httpd=True)
        try:
            obs = system.machine.install_observatory()
            status, _body = run_elf(
                system, lambda ctx: http_get(ctx, ORIGIN_HOST, "/bytes/4096")
            )
            assert status == 200
            sent = obs.metrics.counter("kernel.net.bytes_sent").value
            received = obs.metrics.counter("kernel.net.bytes_received").value
            assert sent > 4096 and received > 4096
            send_hist = obs.metrics.get("kernel.net.send.ns")
            recv_hist = obs.metrics.get("kernel.net.recv.ns")
            assert send_hist is not None and send_hist.count > 0
            assert recv_hist is not None and recv_hist.count > 0
            fetch_hist = obs.metrics.get("urlconnection.fetch.ns")
            assert fetch_hist is None  # raw http_get, no veneer: no row
        finally:
            system.shutdown()

    def test_fetch_latency_histograms_per_persona(self):
        system = build_cider(with_httpd=True)
        try:
            obs = system.machine.install_observatory()

            def android(ctx):
                from repro.android.urlconnection import url_open

                return url_open(
                    ctx, f"http://{ORIGIN_HOST}/hello"
                ).get_response_code()

            def ios(ctx):
                from repro.ios.cfnetwork import NSURLSession

                task = NSURLSession.shared(ctx).data_task_with_url(
                    f"http://{ORIGIN_HOST}/hello"
                ).resume()
                return task.response.status_code

            assert run_elf(system, android) == 200
            assert run_macho(system, ios) == 200
            a_hist = obs.metrics.get("urlconnection.fetch.ns")
            i_hist = obs.metrics.get("cfnetwork.fetch.ns")
            assert a_hist is not None and a_hist.count == 1
            assert i_hist is not None and i_hist.count == 1
        finally:
            system.shutdown()


# -- determinism ----------------------------------------------------------------


class TestNetDeterminism:
    def test_same_seed_netbench_runs_are_bit_identical(self):
        from repro.workloads.netbench import run_netbench

        first = run_netbench(fetches=2, stream_kb=32, storm_workers=2)
        second = run_netbench(fetches=2, stream_kb=32, storm_workers=2)
        assert first["packet_log_digest"] == second["packet_log_digest"]
        assert first["virtual_ns"] == second["virtual_ns"]
        assert first == second

    def test_identical_under_injected_loss_plan(self):
        from repro.workloads.netbench import run_netbench

        def plan():
            p = FaultPlan(seed=2014)
            p.rule("net.send", FaultOutcome.delay(3_000_000.0), probability=0.2)
            return p

        first = run_netbench(fetches=2, stream_kb=32, storm_workers=2,
                             fault_plan=plan())
        second = run_netbench(fetches=2, stream_kb=32, storm_workers=2,
                              fault_plan=plan())
        assert first["packet_log_digest"] == second["packet_log_digest"]
        assert first["virtual_ns"] == second["virtual_ns"]
        assert first["net"]["drops"] > 0  # the plan really did bite

    def test_netstack_is_never_built_unless_touched(self):
        system = build_cider()
        try:
            assert system.run_program("/system/bin/hello") == 0
            assert system.machine.net_if_up is None
        finally:
            system.shutdown()
