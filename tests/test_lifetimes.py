"""Exited processes and shut-down systems are freed by reference count.

Every reference cycle among the simulator's objects is cut where its
owner's life ends (DESIGN.md §9, "Lifetimes"): at thread exit, at reap,
when a user context's body returns, and when a system shuts down or
reboots.  So a run leaves the cyclic garbage collector nothing to find.
Each test collects first, then runs its scenario with the collector off
and ``gc.DEBUG_SAVEALL`` on, and asserts that one collection afterwards
finds no object whose type lives in a ``repro`` module.
"""

import gc
import json
import weakref
from collections import Counter

import pytest

from repro.android.framework import AndroidApp
from repro.cider.installer import decrypt_ipa, install_ipa
from repro.cider.system import build_cider, build_ipad_mini, build_vanilla_android
from repro.hw.profiles import iphone3gs
from repro.ios.sampleapps import calculator_ipa, papers_ipa
from repro.kernel.signals import SIGKILL
from repro.obs.exporters import chrome_trace
from repro.obs.report import run_summary
from repro.sim.snapshot import snapshot_systems
from repro.workloads import partsweep
from repro.workloads.lmbench import install_lmbench
from repro.workloads.passmark import install_passmark

#: Figure 5's process and IPC rows (paper §6), as hostbench's ``ipc`` runs them.
IPC_TESTS = ("pipe", "af_unix", "fork_exit", "signal")


def left_for_the_collector(scenario):
    """Run ``scenario`` with the collector off; return the ``repro``
    objects one collection afterwards finds, counted by type."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        scenario()
        gc.collect()
        return Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_exited_processes_leave_no_cycles():
    system = build_cider()
    try:
        programs = [
            path
            for fmt in ("elf", "macho")
            for test, path in install_lmbench(system.kernel, fmt).items()
            if test in IPC_TESTS
        ]
        assert len(programs) == 2 * len(IPC_TESTS)

        def scenario():
            for path in programs:
                argv = [path, {"out": {}, "iters": 3}]
                assert system.run_program(path, argv) == 0
            # One more drive pass, so the scheduler drops the last
            # finished thread it still lists.
            assert system.run_program("/system/bin/hello") == 0

        assert left_for_the_collector(scenario) == Counter()
    finally:
        system.shutdown()


def _hello_elf(system):
    assert system.run_program("/system/bin/hello") == 0


def _hello_ios(system):
    assert system.run_program("/bin/hello-ios") == 0


def _respawned_service(system):
    """launchd reaps a killed service in its SIGCHLD handler and respawns
    it from a helper thread, on a machine with a resource envelope and
    its pressure daemons."""
    system.machine.install_resources()
    kernel = system.kernel
    kernel.start_pressure_daemons()
    (configd,) = [p for p in kernel.processes.live_processes() if p.name == "configd"]
    kernel.send_signal_to_process(configd, SIGKILL)
    system.run_until_idle()
    _hello_ios(system)


def _native_gl(system):
    """A native iOS GL test opens I/O Kit connections and never closes
    them."""
    path = install_passmark(system.kernel, "ios")
    argv = [path, {"out": {}, "tests": ["gfx3d_simple"]}]
    assert system.run_program(path, argv) == 0


def _unstarted_app(system):
    """An app whose process never runs before the system goes down, next
    to the framework's supervised HTTP origin."""
    framework = system.android
    framework.install_app("idle", AndroidApp)
    framework.start_app("idle")


def _reboot(system):
    _hello_ios(system)
    system.reboot()
    _hello_ios(system)


def _android_services():
    return build_vanilla_android(with_framework=True, with_httpd=True)


def _clone():
    source = build_cider(start_services=False)
    snapshot = snapshot_systems(source)
    source.shutdown()

    def build():
        (system,) = snapshot.clone()
        system.start_services()
        return system

    return build


@pytest.mark.parametrize(
    "build, run",
    [
        (build_vanilla_android, _hello_elf),
        (_android_services, _unstarted_app),
        (build_cider, _respawned_service),
        (build_ipad_mini, _native_gl),
        ("clone", _hello_ios),
        (lambda: build_cider(durable=True), _reboot),
    ],
    ids=[
        "vanilla_android",
        "android_services",
        "cider",
        "ipad_mini",
        "snapshot_clone",
        "reboot",
    ],
)
def test_shut_down_systems_leave_no_cycles(build, run):
    if build == "clone":
        build = _clone()

    def scenario():
        system = build()
        run(system)
        system.shutdown()

    assert left_for_the_collector(scenario) == Counter()


def test_a_reboot_lets_go_of_the_old_kernels_pressure_daemons():
    """The pressure daemons wake through callbacks on the machine's
    resource envelope, which outlives a reboot: the old kernel's must go
    with it, or they keep it alive and wake beside the new ones."""
    system = build_cider(durable=True)
    try:
        envelope = system.machine.install_resources()
        system.kernel.start_pressure_daemons()
        old_kernel = weakref.ref(system.kernel)
        system.reboot()
        system.kernel.start_pressure_daemons()
        assert old_kernel() is None
        assert len(envelope._pressure_callbacks) == 2
    finally:
        system.shutdown()


def test_a_two_machine_world_leaves_no_cycles():
    """Two machines whose network stacks are peers, as the partition
    sweep runs them from a snapshot clone."""
    partsweep.record_pass()  # captures the world's snapshot once per process
    assert left_for_the_collector(partsweep.record_pass) == Counter()


def test_a_launched_ios_app_leaves_no_cycles():
    """The Android framework, CiderPress and UIKit apps shut down with
    their system: Calculator and Papers launched from the Launcher, as
    hostbench's ``launch`` does."""
    phone = iphone3gs()
    packages = [decrypt_ipa(ipa(), phone) for ipa in (calculator_ipa, papers_ipa)]

    def scenario():
        system = build_cider(with_framework=True)
        framework = system.android
        for package in packages:
            install_ipa(system, package, framework)
        framework.settle()
        framework.tap(100, 120)  # the Launcher's first cell: Calculator
        for x, y in ((150, 190), (1000, 300), (700, 300), (700, 520)):
            framework.tap(x, y)  # 7 * 6 =
        assert "42" in framework.screenshot()
        framework.home()
        framework.settle()
        framework.tap(400, 120)  # Papers, whose views have gesture recognizers
        framework.home()
        framework.settle()
        system.shutdown()

    assert left_for_the_collector(scenario) == Counter()


def test_a_shut_down_system_keeps_its_records():
    """What callers read after shutdown stays readable and unchanged: the
    clock, the trace, the observatory's exports, the storage and its
    journal, the packet log, the kill log and the crash reports."""
    system = build_vanilla_android(with_httpd=True, durable=True)
    machine = system.machine
    envelope = machine.install_resources()
    obs = machine.install_observatory()
    assert system.run_program("/system/bin/hello") == 0

    def records():
        return (
            machine.clock.charged_ps,
            machine.trace.count("syscall"),
            json.dumps(chrome_trace(obs), sort_keys=True),
            json.dumps(run_summary(machine, obs), sort_keys=True),
            machine.storage.bytes_written,
            machine.storage.journal.next_ino,
            machine.net.log_digest(),
            envelope.kill_log(),
            list(system.kernel.crash_reports),
        )

    before = records()
    system.shutdown()
    assert records() == before
