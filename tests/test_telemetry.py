"""Telemetry counters, pinned across commits.

The determinism CI recipes compare two runs of the same tree, so a
counter that drifts from one commit to the next goes unnoticed there.
These tests pin the numbers themselves:

* the committed run summary of ``examples/profile_run.py``;
* the exact value of each ``Machine.count`` counter in a scenario the
  other test files already build;
* ``sim.sched.switches`` and the ``<subsystem>.calls`` counters, which
  are read from the scheduler and the profiler, count only what happens
  after the observatory attaches.
"""

import os
import subprocess
import sys

import repro
from repro.binfmt import elf_executable, macho_executable
from repro.cider.system import build_cider, build_vanilla_android
from repro.kernel import errno as E
from repro.kernel.pressure import OOM_ADJ_BACKGROUND, OOM_ADJ_SYSTEM
from repro.net.sockets import (
    AF_INET,
    IPPROTO_TCP,
    SO_KEEPALIVE,
    SOCK_STREAM,
    SOL_SOCKET,
    TCP_KEEPCNT,
    TCP_KEEPIDLE,
)
from repro.sim import ResourceEnvelope
from repro.sim.faults import FaultOutcome, FaultPlan, FaultRule
from repro.xnu.ipc import MACH_SEND_TIMED_OUT

from .helpers import run_elf, run_macho

MS = 1_000_000.0
MB = 1 << 20

SRC = os.path.dirname(os.path.dirname(repro.__file__))
ROOT = os.path.dirname(SRC)


def test_profile_run_summary_matches_committed(tmp_path):
    """``examples/profile_run.py`` writes the committed ``summary.json``
    byte for byte: every counter, histogram and profile row."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "examples", "profile_run.py"),
            str(tmp_path / "trace.json"),
            str(tmp_path / "summary.json"),
        ],
        check=True,
        stdout=subprocess.DEVNULL,
        env=env,
        timeout=120,
    )
    with open(os.path.join(ROOT, "benchmarks", "profile_run_summary.json")) as fh:
        committed = fh.read()
    assert (tmp_path / "summary.json").read_text() == committed


# -- counters no other test reads ---------------------------------------------------


def _counters(obs):
    """Every counter of ``obs`` as ``{name: value}``."""
    return {
        name: record["value"]
        for name, record in obs.metrics.snapshot().items()
        if record["type"] == "counter"
    }


def test_keepalive_reset_counts_one_net_reset():
    from .test_resilience import _partition_now

    system = build_vanilla_android()
    try:
        obs = system.machine.install_observatory()

        def body(ctx):
            libc = ctx.libc
            machine = ctx.machine
            srv = libc.socket(AF_INET, SOCK_STREAM)
            libc.bind(srv, (machine.net.host_ip, 7204))
            libc.listen(srv, 4)
            cli = libc.socket(AF_INET, SOCK_STREAM)
            libc.connect(cli, (machine.net.host_ip, 7204))
            conn = libc.accept(srv)
            libc.setsockopt(cli, SOL_SOCKET, SO_KEEPALIVE, 1)
            libc.setsockopt(cli, IPPROTO_TCP, TCP_KEEPIDLE, 5 * MS)
            libc.setsockopt(cli, IPPROTO_TCP, TCP_KEEPCNT, 2)
            _partition_now(machine)
            try:
                result = libc.read(cli, 16)
                err = libc.errno
            finally:
                machine.net.schedule = None
            for fd in (conn, cli, srv):
                libc.close(fd)
            return result, err

        assert run_elf(system, body) == (-1, E.ETIMEDOUT)
        assert _counters(obs)["kernel.net.resets"] == 1
    finally:
        system.shutdown()


def test_exhausted_gralloc_counts_dropped_frames():
    system = build_vanilla_android()
    try:
        obs = system.machine.install_observatory()
        envelope = system.machine.install_resources(
            ResourceEnvelope(gralloc_mb=1)
        )

        def body(ctx):
            flinger = ctx.machine.surfaceflinger
            surface = flinger.create_surface("drops", 64, 64, z_order=1)
            envelope.reserve_gralloc(2 * MB)  # over budget: frames drop
            surface.post()
            surface.post()
            envelope.release_gralloc(2 * MB)
            surface.post()  # composed again
            flinger.destroy_surface(surface)
            return flinger.compositions

        composed = run_elf(system, body)
        assert composed >= 1
        assert _counters(obs)["android.sf.frames.dropped"] == 2
    finally:
        system.shutdown()


def _resilience_counters(body):
    """Run ``body`` as a Mach-O on a fresh Cider with its httpd and an
    observatory; return its result and the ``resilience.*`` counters."""
    system = build_cider(with_httpd=True)
    try:
        obs = system.machine.install_observatory()
        result = run_macho(system, body)
        counters = {
            name: value
            for name, value in _counters(obs).items()
            if name.startswith("resilience.")
        }
        return result, counters
    finally:
        system.shutdown()


def test_breaker_cycle_counts_transitions_fastfails_and_failures():
    def body(ctx):
        from repro.net.http import ORIGIN_HOST
        from repro.net.resilience import ResilienceEngine, ResiliencePolicy

        engine = ResilienceEngine.shared(
            ctx,
            ResiliencePolicy(
                max_attempts=2, breaker_threshold=2, breaker_cooldown_ns=10 * MS
            ),
        )
        engine.fetch(ctx, ORIGIN_HOST, "/hello", port=7999)  # opens
        engine.fetch(ctx, ORIGIN_HOST, "/hello", port=7999)  # fast-fails
        ctx.libc.sleep_ns(20 * MS)
        return engine.fetch(ctx, ORIGIN_HOST, "/hello").status  # probe

    status, counters = _resilience_counters(body)
    assert status == 200
    assert counters == {
        "resilience.attempt_failures": 2,
        "resilience.breaker_transitions": 3,
        "resilience.fastfails": 1,
    }


def test_hedged_retry_counts_one_hedge():
    def body(ctx):
        from repro.net.http import ORIGIN_HOST
        from repro.net.resilience import ResilienceEngine, ResiliencePolicy

        machine = ctx.machine
        engine = ResilienceEngine.shared(
            ctx,
            ResiliencePolicy(
                max_attempts=2, breaker_threshold=99, hedge_min_samples=2
            ),
        )
        for _ in range(2):
            engine.fetch(ctx, ORIGIN_HOST, "/hello")
        machine.install_fault_plan(
            FaultPlan(
                seed=1,
                rules=[FaultRule("net.connect", FaultOutcome.delay(30 * MS))],
            )
        )
        try:
            return engine.fetch(ctx, ORIGIN_HOST, "/hello", port=7999).hedged
        finally:
            machine.clear_fault_plan()

    hedged, counters = _resilience_counters(body)
    assert hedged
    assert counters == {
        "resilience.attempt_failures": 2,
        "resilience.hedges": 1,
    }


def test_jetsam_episode_counts_warnings_and_kills():
    from .test_resources import _hog_body

    def app_body(ctx, argv):
        from repro.ios.uikit import UIApplication

        app = UIApplication(ctx, object())
        ctx.process.address_space.map("photo_cache", 24 * MB, writable=True)
        return app.run()

    system = build_cider()
    try:
        kernel = system.kernel
        obs = system.machine.install_observatory()
        system.machine.install_resources(ResourceEnvelope(ram_mb=512))
        kernel.start_pressure_daemons()
        for name in ("app-a", "app-b"):
            kernel.vfs.install_binary(
                f"/bin/{name}", macho_executable(name, app_body)
            )
            kernel.start_process(f"/bin/{name}", name=name, daemon=True)
        kernel.vfs.install_binary(
            "/system/bin/hog", elf_executable("hog", _hog_body)
        )
        system.wait_for(kernel.start_process("/system/bin/hog", name="hog"))
        counters = _counters(obs)
        assert counters["resources.memory.warnings"] == 2
        assert counters["resources.jetsam.kills"] == 1
        assert "resources.lmk.kills" not in counters
    finally:
        system.shutdown()


def test_lowmemorykiller_counts_kills():
    from .test_resources import _hog_body, _parked_body

    system = build_vanilla_android()
    try:
        kernel = system.kernel
        obs = system.machine.install_observatory()
        system.machine.install_resources(ResourceEnvelope(ram_mb=128))
        kernel.start_pressure_daemons()
        for name, cache_mb, adj in (
            ("bg", 2, OOM_ADJ_BACKGROUND),
            ("fg", 32, None),
        ):
            path = f"/system/bin/{name}"
            kernel.vfs.install_binary(
                path, elf_executable(name, _parked_body(name, cache_mb))
            )
            process = kernel.start_process(path, name=name, daemon=True)
            if adj is not None:
                process.oom_adj = adj
        kernel.vfs.install_binary(
            "/system/bin/hog", elf_executable("hog", _hog_body)
        )
        hog = kernel.start_process("/system/bin/hog", name="hog")
        hog.oom_adj = OOM_ADJ_SYSTEM
        system.wait_for(hog)
        assert _counters(obs)["resources.lmk.kills"] == 2
    finally:
        system.shutdown()


def _full_port_send(system):
    """Fill a two-message Mach queue, then send once more."""
    from repro.ios.libsystem import MachMessage

    from .test_resources import _fill_port

    def body(ctx):
        libc, name = _fill_port(ctx, qlimit=2)
        return libc.mach_msg_send(name, MachMessage(0x999))

    return run_macho(system, body)


def test_injected_qfull_counts_one_full_queue():
    system = build_cider()
    try:
        obs = system.machine.install_observatory()
        plan = system.machine.install_fault_plan(FaultPlan(seed=13))
        plan.rule(
            "ipc.qfull", FaultOutcome.kern(MACH_SEND_TIMED_OUT), max_fires=1
        )
        assert _full_port_send(system) == MACH_SEND_TIMED_OUT
        counters = _counters(obs)
        assert counters["xnu.ipc.qfull"] == 1
        assert "xnu.ipc.send.timed_out" not in counters
    finally:
        system.shutdown()


def test_critical_pressure_send_counts_one_timeout():
    system = build_cider()
    try:
        obs = system.machine.install_observatory()
        envelope = system.machine.install_resources(
            ResourceEnvelope(ram_mb=2048)
        )
        envelope.reserve_ram(1900 * MB)
        assert _full_port_send(system) == MACH_SEND_TIMED_OUT
        counters = _counters(obs)
        assert counters["xnu.ipc.qfull"] == 1
        assert counters["xnu.ipc.send.timed_out"] == 1
    finally:
        system.shutdown()


# -- derived counters start at attach -----------------------------------------------


def _ping(ctx):
    """Fork a child and wait for it: the token changes hands."""
    libc = ctx.libc
    rfd, wfd = libc.pipe()
    pid = libc.fork(lambda child: child.libc.write(wfd, b"x") and 0)
    assert libc.read(rfd, 1) == b"x"
    libc.waitpid(pid)
    return 0


def _since_attach(obs):
    """``sim.sched.switches`` and every ``<subsystem>.calls`` counter."""
    return {
        name: value
        for name, value in _counters(obs).items()
        if name == "sim.sched.switches" or name.endswith(".calls")
    }


def test_counts_start_at_each_attach():
    """An observatory installed after boot counts nothing from boot, and
    one installed after ``clear_observatory()`` counts nothing from the
    previous observatory's run or the unobserved run in between: the
    same workload shows the same counts under both."""
    system = build_cider()
    try:
        machine = system.machine
        first = machine.install_observatory()
        run_macho(system, _ping)
        seen_first = _since_attach(first)
        machine.clear_observatory()
        run_macho(system, _ping)  # unobserved
        second = machine.install_observatory()
        run_macho(system, _ping)
        seen_second = _since_attach(second)
    finally:
        system.shutdown()
    assert seen_first == seen_second
    assert seen_first["sim.sched.switches"] >= 2
    assert seen_first["kernel.trap.calls"] >= 3
    # The counters agree with the profiler's own per-subsystem table.
    table = {stat.subsystem: stat.calls for stat in second.profiler.subsystem_table()}
    assert {
        name[: -len(".calls")]: value
        for name, value in seen_second.items()
        if name.endswith(".calls")
    } == table
