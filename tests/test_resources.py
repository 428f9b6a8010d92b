"""Resource exhaustion, rlimits, and the memory-pressure kill daemons.

Covers the acceptance criteria of the resource tentpole:

* ``Rlimits`` / ``ResourceEnvelope`` unit behaviour (accounting, pressure
  thresholds, refcounted shared reservations, gralloc bend-don't-break);
* kernel enforcement: RLIMIT_AS -> ENOMEM, RLIMIT_NOFILE -> EMFILE,
  RLIMIT_NPROC -> EAGAIN, storage budget -> ENOSPC (freed by unlink),
  via the getrlimit/setrlimit traps of *both* personas;
* deterministic jetsam / lowmemorykiller: same seed + workload produce a
  byte-identical kill log; victim order follows band/adj then footprint;
* the paper-shaped asymmetry (§6.2): at the same budget, the iOS app
  whose dyld walk mapped ~90 MB of libraries is reached by jetsam while
  the equivalent few-MB Android app never interests the lowmemorykiller;
* ``didReceiveMemoryWarning`` lets a well-behaved app shed state and
  survive an episode that kills an identical warning-ignoring app;
* the three scarcity fault points (``mm.reserve``, ``vfs.write``,
  ``ipc.qfull``) and Mach IPC queue-full backpressure under pressure;
* zero-cost-when-off: charged virtual time is bit-identical with no
  envelope and with a generous never-exhausted one.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cider.system import build_cider, build_vanilla_android
from repro.hw.profiles import nexus7
from repro.kernel.errno import (
    EAGAIN,
    EINVAL,
    EMFILE,
    ENOMEM,
    ENOSPC,
    SyscallError,
)
from repro.kernel.pressure import (
    JETSAM_PRIORITY_SYSTEM,
    OOM_ADJ_BACKGROUND,
    OOM_ADJ_SYSTEM,
)
from repro.sim import ResourceEnvelope
from repro.sim.faults import FaultOutcome, FaultPlan
from repro.sim.resources import (
    RLIM_INFINITY,
    RLIMIT_AS,
    RLIMIT_NOFILE,
    RLIMIT_NPROC,
    Rlimits,
)
from repro.xnu.ipc import MACH_MSG_SUCCESS, MACH_SEND_TIMED_OUT

from .helpers import run_elf, run_macho

MB = 1 << 20


# -- Rlimits unit tests -----------------------------------------------------------


class TestRlimits:
    def test_defaults_are_unlimited(self):
        limits = Rlimits()
        assert limits.get(RLIMIT_NOFILE) == (RLIM_INFINITY, RLIM_INFINITY)
        assert limits.soft(RLIMIT_NOFILE) is None

    def test_set_and_soft(self):
        limits = Rlimits()
        limits.set(RLIMIT_NOFILE, 16, 32)
        assert limits.get(RLIMIT_NOFILE) == (16, 32)
        assert limits.soft(RLIMIT_NOFILE) == 16

    def test_soft_above_hard_rejected(self):
        limits = Rlimits()
        limits.set(RLIMIT_AS, 10, 10)
        with pytest.raises(ValueError):
            limits.set(RLIMIT_AS, 20)  # hard stays 10

    def test_unknown_and_negative_rejected(self):
        limits = Rlimits()
        with pytest.raises(ValueError):
            limits.get(999)
        with pytest.raises(ValueError):
            limits.set(RLIMIT_AS, -1)

    def test_fork_copy_is_independent(self):
        parent = Rlimits()
        parent.set(RLIMIT_NPROC, 5)
        child = parent.fork_copy()
        child.set(RLIMIT_NPROC, 3)
        assert parent.soft(RLIMIT_NPROC) == 5
        assert child.soft(RLIMIT_NPROC) == 3


# -- ResourceEnvelope unit tests --------------------------------------------------


class TestEnvelope:
    def test_ram_accounting_and_failure(self):
        env = ResourceEnvelope(ram_mb=10)
        assert env.reserve_ram(6 * MB)
        assert not env.reserve_ram(5 * MB)
        assert env.ram_reserve_failures == 1
        assert env.ram_used == 6 * MB
        env.release_ram(6 * MB)
        assert env.ram_used == 0

    def test_pressure_levels(self):
        env = ResourceEnvelope(ram_mb=100)
        assert env.pressure_level() == "normal"
        env.reserve_ram(80 * MB)
        assert env.pressure_level() == "warning"
        env.reserve_ram(12 * MB)
        assert env.pressure_level() == "critical"
        env.release_ram(90 * MB)
        assert env.pressure_level() == "normal"

    def test_on_pressure_fires_on_upward_transitions_only(self):
        env = ResourceEnvelope(ram_mb=100)
        seen = []
        env.on_pressure(seen.append)
        env.reserve_ram(80 * MB)     # normal -> warning
        env.release_ram(20 * MB)     # warning -> normal: silent
        env.reserve_ram(35 * MB)     # normal -> critical
        assert seen == ["warning", "critical"]

    def test_failed_reserve_notifies(self):
        env = ResourceEnvelope(ram_mb=10)
        seen = []
        env.on_pressure(seen.append)
        assert not env.reserve_ram(11 * MB)
        assert seen == ["critical"]

    def test_shared_reservation_is_refcounted(self):
        env = ResourceEnvelope(ram_mb=100)
        assert env.reserve_shared("dyld_cache", 30 * MB)
        assert env.reserve_shared("dyld_cache", 30 * MB)
        assert env.ram_used == 30 * MB  # charged once
        assert env.shared_refs("dyld_cache") == 2
        assert env.release_shared("dyld_cache") == 0
        assert env.ram_used == 30 * MB
        assert env.release_shared("dyld_cache") == 30 * MB
        assert env.ram_used == 0

    def test_storage_budget(self):
        env = ResourceEnvelope(storage_mb=1)
        assert env.reserve_storage(600 * 1024)
        assert not env.reserve_storage(600 * 1024)
        assert env.storage_reserve_failures == 1
        env.release_storage(600 * 1024)
        assert env.reserve_storage(600 * 1024)

    def test_gralloc_bends_instead_of_breaking(self):
        env = ResourceEnvelope(gralloc_mb=1)
        assert env.reserve_gralloc(900 * 1024)
        assert not env.gralloc_exhausted
        assert not env.reserve_gralloc(900 * 1024)  # over budget: degrade
        assert env.gralloc_exhausted
        assert env.gralloc_used == 1800 * 1024  # the allocation happened
        env.release_gralloc(900 * 1024)
        assert not env.gralloc_exhausted

    def test_kill_log_format(self):
        env = ResourceEnvelope(ram_mb=10)
        env.record_kill("jetsam", 7, "app", "ios", "why", 5 * MB, band=3)
        line = env.kill_log().decode()
        assert line == (
            "0 jetsam pid=7 comm=app persona=ios "
            f"footprint={5 * MB} reason=why band=3\n"
        )
        assert len(env.kills_by("jetsam")) == 1
        assert env.kills_by("lowmemorykiller") == []


# -- machine-wide RAM enforcement --------------------------------------------------


def test_address_space_map_hits_machine_budget():
    machine = nexus7().boot()
    try:
        machine.install_resources(ResourceEnvelope(ram_mb=16))
        from repro.kernel.mm import AddressSpace

        space = AddressSpace(machine)
        space.map("a", 10 * MB)
        with pytest.raises(SyscallError) as exc:
            space.map("b", 10 * MB)
        assert exc.value.errno == ENOMEM
        vma = space.find("a")
        space.unmap(vma)
        assert machine.resources.ram_used == 0
        space.map("b", 10 * MB)  # freed budget is reusable
    finally:
        machine.shutdown()


def test_shared_cache_vmas_charge_once():
    machine = nexus7().boot()
    try:
        env = machine.install_resources(ResourceEnvelope(ram_mb=256))
        from repro.kernel.mm import AddressSpace

        a = AddressSpace(machine)
        b = AddressSpace(machine)
        a.map("dyld_shared_cache", 100 * MB, shared_cache=True)
        b.map("dyld_shared_cache", 100 * MB, shared_cache=True)
        assert env.ram_used == 100 * MB
        a.unmap_all()
        assert env.ram_used == 100 * MB
        b.unmap_all()
        assert env.ram_used == 0
    finally:
        machine.shutdown()


# -- rlimit traps (both personas) --------------------------------------------------


def test_getrlimit_setrlimit_linux_persona():
    system = build_vanilla_android()
    try:
        def body(ctx):
            libc = ctx.libc
            assert libc.getrlimit(RLIMIT_NOFILE) == (
                RLIM_INFINITY, RLIM_INFINITY
            )
            assert libc.setrlimit(RLIMIT_NOFILE, 16, 32) == 0
            assert libc.getrlimit(RLIMIT_NOFILE) == (16, 32)
            # soft above hard: EINVAL
            assert libc.setrlimit(RLIMIT_NOFILE, 64) == -1
            return libc.errno

        assert run_elf(system, body) == EINVAL
    finally:
        system.shutdown()


def test_getrlimit_setrlimit_ios_persona():
    system = build_cider()
    try:
        def body(ctx):
            libc = ctx.libc
            assert libc.setrlimit(RLIMIT_AS, 8 * MB) == 0
            assert libc.getrlimit(RLIMIT_AS) == (8 * MB, RLIM_INFINITY)
            assert libc.setrlimit(999, 1) == -1  # unknown selector
            return libc.errno

        assert run_macho(system, body) == EINVAL
    finally:
        system.shutdown()


def test_rlimit_as_enomem():
    system = build_vanilla_android()
    try:
        def body(ctx):
            base = ctx.process.address_space.total_bytes
            ctx.libc.setrlimit(RLIMIT_AS, base + 4 * MB)
            ctx.process.address_space.map("small", 2 * MB)
            try:
                ctx.process.address_space.map("big", 8 * MB)
            except SyscallError as exc:
                return exc.errno
            return 0

        assert run_elf(system, body) == ENOMEM
    finally:
        system.shutdown()


def test_rlimit_nofile_emfile_everywhere():
    """open(2), pipe(2) and socketpair(2) all flow through the one
    checked fd allocator, so every path surfaces EMFILE."""
    system = build_vanilla_android()
    try:
        def body(ctx):
            libc = ctx.libc
            libc.setrlimit(RLIMIT_NOFILE, 4)
            fds = []
            while True:
                fd = libc.open("/dev/null")
                if fd == -1:
                    break
                fds.append(fd)
            open_errno = libc.errno
            pipe_result = libc.pipe()
            pipe_errno = libc.errno
            pair_result = libc.socketpair()
            pair_errno = libc.errno
            return (
                len(fds), open_errno,
                pipe_result, pipe_errno,
                pair_result, pair_errno,
            )

        n, e1, p, e2, s, e3 = run_elf(system, body)
        assert n == 4
        assert (e1, e2, e3) == (EMFILE, EMFILE, EMFILE)
        assert p == -1 and s == -1
    finally:
        system.shutdown()


def test_rlimit_nproc_eagain():
    system = build_vanilla_android()
    try:
        def body(ctx):
            libc = ctx.libc
            live = len(ctx.kernel.processes.live_processes())
            libc.setrlimit(RLIMIT_NPROC, live)
            pid = libc.fork(lambda child_ctx: 0)
            return pid, libc.errno

        pid, errno = run_elf(system, body)
        assert pid == -1 and errno == EAGAIN
    finally:
        system.shutdown()


def test_storage_budget_enospc_and_unlink_frees():
    system = build_vanilla_android()
    try:
        system.machine.install_resources(ResourceEnvelope(storage_mb=1))

        def body(ctx):
            libc = ctx.libc
            fd = libc.creat("/tmp/big")
            assert libc.write(fd, b"x" * (600 * 1024)) == 600 * 1024
            second = libc.write(fd, b"x" * (600 * 1024))
            enospc = libc.errno
            libc.close(fd)
            libc.unlink("/tmp/big")  # returns the bytes to the budget
            fd = libc.creat("/tmp/second")
            third = libc.write(fd, b"y" * (600 * 1024))
            libc.close(fd)
            return second, enospc, third

        second, enospc, third = run_elf(system, body)
        assert second == -1 and enospc == ENOSPC
        assert third == 600 * 1024
        assert system.machine.resources.storage_used == 600 * 1024
    finally:
        system.shutdown()


# -- pressure daemons --------------------------------------------------------------


def _parked_body(cache_name, cache_mb):
    """Map a cache, then park forever on an empty pipe (timer-free)."""

    def body(ctx, argv):
        ctx.process.address_space.map(
            cache_name, cache_mb * MB, writable=True
        )
        rfd, _wfd = ctx.libc.pipe()
        ctx.libc.read(rfd, 1)
        return 0

    return body


def _hog_body(ctx, argv):
    from repro.kernel.errno import SyscallError as Err

    chunks = 0
    while True:
        try:
            ctx.process.address_space.map(f"hog_{chunks}", 4 * MB, writable=True)
        except Err:
            break
        chunks += 1
    for _ in range(4):  # let the daemons run their episodes
        ctx.libc.nanosleep(1_000_000.0)
    return chunks


def test_start_pressure_daemons_requires_envelope():
    system = build_vanilla_android()
    try:
        with pytest.raises(ValueError):
            system.kernel.start_pressure_daemons()
    finally:
        system.shutdown()


def _jetsam_scenario():
    """Two parked iOS apps + an ELF hog on a 512 MB envelope.  Returns
    (kill_log, survivors, hog_chunks, envelope)."""
    from repro.binfmt import elf_executable, macho_executable

    system = build_cider()
    try:
        kernel = system.kernel
        envelope = system.machine.install_resources(
            ResourceEnvelope(ram_mb=512)
        )
        kernel.start_pressure_daemons()
        for name, cache_mb in (("ios-big", 64), ("ios-small", 8)):
            path = f"/bin/{name}"
            kernel.vfs.install_binary(
                path, macho_executable(name, _parked_body("cache", cache_mb))
            )
            kernel.start_process(path, name=name, daemon=True)
        kernel.vfs.install_binary(
            "/system/bin/hog", elf_executable("hog", _hog_body)
        )
        hog = kernel.start_process("/system/bin/hog", name="hog")
        chunks = system.wait_for(hog)
        survivors = sorted(
            p.name for p in kernel.processes.live_processes()
            if p.name in ("ios-big", "ios-small")
        )
        return envelope.kill_log(), survivors, chunks, envelope
    finally:
        system.shutdown()


def test_jetsam_kills_largest_ios_footprint_first():
    log, survivors, chunks, envelope = _jetsam_scenario()
    assert chunks > 0
    # Same band: the bigger footprint dies, the smaller survives, and the
    # (Android-persona) hog is never jetsam's business.
    assert len(envelope.kills) == 1
    kill = envelope.kills[0]
    assert kill.daemon == "jetsam"
    assert kill.name == "ios-big"
    assert kill.persona == "ios"
    assert survivors == ["ios-small"]
    assert envelope.kills_by("lowmemorykiller") == []
    assert envelope.pressure_level() == "normal"


def test_kill_log_is_byte_identical_across_runs():
    log_a, _, _, _ = _jetsam_scenario()
    log_b, _, _, _ = _jetsam_scenario()
    assert log_a == log_b
    assert b"jetsam" in log_a


def test_launchd_is_in_the_system_band():
    system = build_cider()
    try:
        assert system.ios.launchd.jetsam_priority == JETSAM_PRIORITY_SYSTEM
    finally:
        system.shutdown()


def test_memory_warning_lets_wellbehaved_app_survive():
    """An app that sheds its cache on didReceiveMemoryWarning survives an
    episode that kills an identical app ignoring the warning (§2/§6.2)."""
    from repro.binfmt import elf_executable, macho_executable

    def app_body(heeds):
        def body(ctx, argv):
            from repro.ios.uikit import UIApplication

            class Delegate:
                cache = None

                if heeds:
                    def did_receive_memory_warning(self, app):
                        if self.cache is not None:
                            app.ctx.process.address_space.unmap(self.cache)
                            self.cache = None

            delegate = Delegate()
            app = UIApplication(ctx, delegate)
            delegate.cache = ctx.process.address_space.map(
                "photo_cache", 24 * MB, writable=True
            )
            return app.run()

        return body

    system = build_cider()
    try:
        kernel = system.kernel
        envelope = system.machine.install_resources(
            ResourceEnvelope(ram_mb=512)
        )
        kernel.start_pressure_daemons()
        for name, heeds in (("good", True), ("bad", False)):
            path = f"/bin/{name}"
            kernel.vfs.install_binary(
                path, macho_executable(name, app_body(heeds))
            )
            kernel.start_process(path, name=name, daemon=True)
        kernel.vfs.install_binary(
            "/system/bin/hog", elf_executable("hog", _hog_body)
        )
        hog = kernel.start_process("/system/bin/hog", name="hog")
        system.wait_for(hog)

        live = {p.name for p in kernel.processes.live_processes()}
        assert "good" in live and "bad" not in live
        assert [e.name for e in envelope.kills_by("jetsam")] == ["bad"]
        # The survivor paid with its cache.
        good = next(
            p for p in kernel.processes.live_processes() if p.name == "good"
        )
        assert good.address_space.find("photo_cache") is None
    finally:
        system.shutdown()


def test_lowmemorykiller_kills_background_before_foreground():
    from repro.binfmt import elf_executable

    system = build_vanilla_android()
    try:
        kernel = system.kernel
        envelope = system.machine.install_resources(
            ResourceEnvelope(ram_mb=128)
        )
        kernel.start_pressure_daemons()
        kernel.vfs.install_binary(
            "/system/bin/bg", elf_executable("bg", _parked_body("bg", 2))
        )
        bg = kernel.start_process("/system/bin/bg", name="bg", daemon=True)
        bg.oom_adj = OOM_ADJ_BACKGROUND
        kernel.vfs.install_binary(
            "/system/bin/fg", elf_executable("fg", _parked_body("fg", 32))
        )
        fg = kernel.start_process("/system/bin/fg", name="fg", daemon=True)
        kernel.vfs.install_binary(
            "/system/bin/hog", elf_executable("hog", _hog_body)
        )
        hog = kernel.start_process("/system/bin/hog", name="hog")
        # Exempt the driver itself so the ordering under test is visible.
        hog.oom_adj = OOM_ADJ_SYSTEM
        chunks = system.wait_for(hog)

        assert chunks > 0
        names = [e.name for e in envelope.kills]
        assert names == ["bg", "fg"]  # badness order, despite bg being tiny
        assert all(e.daemon == "lowmemorykiller" for e in envelope.kills)
        assert envelope.kills[0].detail["adj"] == OOM_ADJ_BACKGROUND
        assert envelope.pressure_level() == "normal"
    finally:
        system.shutdown()


# -- scarcity fault points ----------------------------------------------------------


def test_fault_point_mm_reserve():
    system = build_vanilla_android()
    try:
        plan = system.machine.install_fault_plan(FaultPlan(seed=11))
        plan.rule(
            "mm.reserve",
            FaultOutcome.errno(ENOMEM),
            predicate=lambda d: d.get("region") == "victim",
            max_fires=1,
        )

        def body(ctx):
            try:
                ctx.process.address_space.map("victim", 1 * MB)
            except SyscallError as exc:
                return exc.errno
            return 0

        assert run_elf(system, body) == ENOMEM
        assert plan.fired == 1
    finally:
        system.shutdown()


def test_fault_point_vfs_write():
    system = build_vanilla_android()
    try:
        plan = system.machine.install_fault_plan(FaultPlan(seed=12))
        plan.rule("vfs.write", FaultOutcome.errno(ENOSPC), max_fires=1)

        def body(ctx):
            fd = ctx.libc.creat("/tmp/flaky")
            n = ctx.libc.write(fd, b"data")
            errno = ctx.libc.errno
            ctx.libc.close(fd)
            return n, errno

        n, errno = run_elf(system, body)
        assert n == -1 and errno == ENOSPC
        assert plan.fired == 1
    finally:
        system.shutdown()


def _fill_port(ctx, qlimit):
    """Allocate a receive port, shrink its queue, and fill it."""
    from repro.ios.libsystem import MachMessage

    libc = ctx.libc
    _kr, name = libc.mach_port_allocate()
    mach = ctx.kernel.mach_subsystem
    port = mach.space_for_task(ctx.process).lookup(name).target
    port.qlimit = qlimit
    for i in range(qlimit):
        assert libc.mach_msg_send(name, MachMessage(0x100 + i)) == (
            MACH_MSG_SUCCESS
        )
    return libc, name


def test_fault_point_ipc_qfull():
    from repro.ios.libsystem import MachMessage

    system = build_cider()
    try:
        plan = system.machine.install_fault_plan(FaultPlan(seed=13))
        plan.rule(
            "ipc.qfull", FaultOutcome.kern(MACH_SEND_TIMED_OUT), max_fires=1
        )

        def body(ctx):
            libc, name = _fill_port(ctx, qlimit=2)
            return libc.mach_msg_send(name, MachMessage(0x999))

        assert run_macho(system, body) == MACH_SEND_TIMED_OUT
        assert plan.fired == 1
    finally:
        system.shutdown()


def test_qfull_backpressure_under_critical_pressure():
    """Under critical memory pressure an *untimed* send to a full queue
    becomes a bounded wait surfacing MACH_SEND_TIMED_OUT — the queue must
    not grow while jetsam works."""
    from repro.ios.libsystem import MachMessage

    system = build_cider()
    try:
        envelope = system.machine.install_resources(
            ResourceEnvelope(ram_mb=2048)
        )
        # Critical pressure (>= 90%), but with enough headroom left for
        # the app's own dyld walk; no daemons are running.
        envelope.reserve_ram(1900 * MB)
        assert envelope.pressure_level() == "critical"

        def body(ctx):
            libc, name = _fill_port(ctx, qlimit=2)
            return libc.mach_msg_send(name, MachMessage(0x999))

        assert run_macho(system, body) == MACH_SEND_TIMED_OUT
    finally:
        system.shutdown()


# -- zero-cost-when-off -------------------------------------------------------------


def _timed_workload(envelope):
    system = build_cider()
    try:
        if envelope is not None:
            system.machine.install_resources(envelope)

        def body(ctx):
            libc = ctx.libc
            vma = ctx.process.address_space.map("scratch", 2 * MB)
            fd = libc.creat("/tmp/zc")
            libc.write(fd, b"x" * 4096)
            libc.close(fd)
            ctx.process.address_space.unmap(vma)
            return 0

        run_elf(system, body, name="zerocost")
        run_macho(system, lambda ctx: 0, name="zerocost-ios")
        return system.machine.clock.charged_ps
    finally:
        system.shutdown()


def test_generous_envelope_charges_identical_virtual_time():
    """A never-exhausted envelope must not perturb a single picosecond."""
    plain = _timed_workload(None)
    generous = _timed_workload(
        ResourceEnvelope(ram_mb=1 << 20, storage_mb=1 << 20, gralloc_mb=1 << 20)
    )
    assert plain == generous


def test_memory_pressure_transcript_matches_committed():
    """``examples/memory_pressure.py`` prints the committed transcript
    byte for byte: the hog's chunk count, every jetsam and
    lowmemorykiller kill with its footprint and ns stamp, the survivors'
    footprints and the summary JSON.  Re-record (only for an intended
    change to memory accounting or the pressure daemons) with::

        PYTHONHASHSEED=0 PYTHONPATH=src python examples/memory_pressure.py \\
            2014 > benchmarks/memory_pressure_stdout.txt
    """
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(src)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    example = os.path.join(root, "examples", "memory_pressure.py")
    out = subprocess.run(
        [sys.executable, example, "2014"],
        check=True,
        stdout=subprocess.PIPE,
        env=env,
        timeout=120,
    ).stdout
    pinned = os.path.join(root, "benchmarks", "memory_pressure_stdout.txt")
    with open(pinned, "rb") as fh:
        assert out == fh.read()
