"""Tests for the Mach-O loader, dyld, and the shared-cache ablation."""

import os
import subprocess
import sys

import pytest

import repro
from repro.binfmt import Arch, BinaryFormat, macho_dylib, macho_executable
from repro.cider.system import build_cider, build_ipad_mini
from repro.ios.dyld import SHARED_CACHE_PATH, evict_shared_cache
from repro.ios.frameworks import (
    TARGET_LIBRARY_COUNT,
    TARGET_TOTAL_MB,
    install_shared_cache,
)
from repro.kernel import errno as E
from repro.kernel.errno import SyscallError
from repro.sim.snapshot import snapshot_systems

from helpers import run_macho

SRC = os.path.dirname(os.path.dirname(repro.__file__))
ROOT = os.path.dirname(SRC)


@pytest.fixture(scope="module")
def cider():
    system = build_cider()
    yield system
    system.shutdown()


class TestMachOLoader:
    def test_thread_tagged_with_ios_persona(self, cider):
        def body(ctx):
            return ctx.thread.persona.name

        assert run_macho(cider, body) == "ios"

    def test_encrypted_binary_refused(self, cider):
        image = macho_executable(
            "encrypted-app", lambda ctx, argv: 0, encrypted=True
        )
        cider.kernel.vfs.install_binary("/data/encrypted-app", image)
        with pytest.raises(Exception) as err:
            cider.run_program("/data/encrypted-app")
        assert "encrypted" in str(err.value)

    def test_wrong_architecture_refused(self, cider):
        image = macho_executable("x86-app", lambda ctx, argv: 0)
        image.arch = Arch.X86
        cider.kernel.vfs.install_binary("/data/x86-app", image)
        with pytest.raises(Exception) as err:
            cider.run_program("/data/x86-app")
        assert "architecture" in str(err.value)

    def test_ios_tls_materialised(self, cider):
        def body(ctx):
            tls = ctx.thread.tls()
            return tls.layout.name, tls.layout.offset_of("errno")

        layout, errno_offset = run_macho(cider, body)
        assert layout == "ios"
        from repro.persona import ANDROID_TLS_LAYOUT

        # "the errno pointer is at a different location in the iOS TLS
        # than in the Android TLS" (paper §4.3).
        assert errno_offset != ANDROID_TLS_LAYOUT.offset_of("errno")


class TestDyld:
    def test_full_base_closure_mapped(self, cider):
        """~115 libraries / ~90MB, regardless of what the binary uses."""

        def body(ctx):
            return (
                len(
                    [v for v in ctx.process.address_space if v.name.startswith("dylib:")]
                ),
                ctx.process.address_space.total_bytes,
            )

        libs, total = run_macho(cider, body)
        assert libs == TARGET_LIBRARY_COUNT
        assert total > TARGET_TOTAL_MB * 0.9 * 1024 * 1024

    def test_dyld_stats_no_cache_on_cider(self, cider):
        run_macho(cider, lambda ctx: 0)
        stats = cider.ios.dyld.last_stats
        assert stats.libraries_loaded == TARGET_LIBRARY_COUNT
        assert stats.from_cache == 0
        assert stats.walked_filesystem == TARGET_LIBRARY_COUNT

    def test_atfork_and_atexit_handlers_registered_per_library(self, cider):
        def body(ctx):
            state = ctx.lib_state("libSystem")
            return len(state["atfork"]), len(state["atexit"])

        atfork, atexit = run_macho(cider, body)
        assert atfork == TARGET_LIBRARY_COUNT
        assert atexit == TARGET_LIBRARY_COUNT

    def test_missing_dylib_fails(self, cider):
        image = macho_executable(
            "needy", lambda ctx, argv: 0, deps=["/usr/lib/libMissing.dylib"]
        )
        cider.kernel.vfs.install_binary("/data/needy", image)
        with pytest.raises(Exception) as err:
            cider.run_program("/data/needy")
        assert "libMissing" in str(err.value)

    def test_loaded_libraries_addressable_by_name_and_path(self, cider):
        def body(ctx):
            libs = ctx.process.loaded_libraries
            return (
                "UIKit" in libs,
                "/System/Library/Frameworks/UIKit.framework/UIKit" in libs,
            )

        by_name, by_path = run_macho(cider, body)
        assert by_name and by_path


class TestSharedCacheAblation:
    """The iPad's dyld optimisation, implementable on Cider (future work)."""

    def test_ipad_loads_everything_from_cache(self):
        ipad = build_ipad_mini()
        try:
            run_macho(ipad, lambda ctx: 0)
            stats = ipad.ios.dyld.last_stats
            assert stats.from_cache == TARGET_LIBRARY_COUNT
            assert stats.walked_filesystem == 0
        finally:
            ipad.shutdown()

    def test_cache_region_excluded_from_fork(self):
        ipad = build_ipad_mini()
        try:

            def body(ctx):
                space = ctx.process.address_space
                return space.copied_on_fork_pages, space.total_pages

            copied, total = run_macho(ipad, body)
            # The ~90MB cache is a shared submap: only the app's own
            # pages are duplicated by fork.
            assert copied < total / 10
        finally:
            ipad.shutdown()

    def test_cider_with_shared_cache_speeds_exec(self):
        slow = build_cider(shared_cache=False)
        fast = build_cider(shared_cache=True)
        try:

            def measure(system):
                watch = system.machine.stopwatch()
                system.run_program("/bin/hello-ios")
                return watch.elapsed_ns()

            slow_ns = measure(slow)
            fast_ns = measure(fast)
            assert fast_ns < slow_ns / 2
        finally:
            slow.shutdown()
            fast.shutdown()

    def test_cider_with_shared_cache_speeds_fork(self):
        slow = build_cider(shared_cache=False)
        fast = build_cider(shared_cache=True)
        try:

            def fork_time(ctx):
                watch = ctx.machine.stopwatch()
                pid = ctx.libc.fork(lambda cctx: 0)
                ctx.libc.waitpid(pid)
                return watch.elapsed_ns()

            slow_ns = run_macho(slow, fork_time)
            fast_ns = run_macho(fast, fork_time)
            assert fast_ns < slow_ns / 2
        finally:
            slow.shutdown()
            fast.shutdown()

    def test_cache_file_present_when_enabled(self):
        fast = build_cider(shared_cache=True)
        try:
            assert fast.kernel.vfs.exists(SHARED_CACHE_PATH)
        finally:
            fast.shutdown()


# -- walk plans: a replay is the cold walk -------------------------------------------

UIKIT = "/System/Library/Frameworks/UIKit.framework/UIKit"
MB = 1 << 20


def _probe_loads(system):
    """Record every dyld library load on ``system``: the paths the VFS
    resolved during it and the state it left in the process."""
    vfs, dyld = system.kernel.vfs, system.ios.dyld
    resolve, load = vfs.resolve, dyld._load_libraries
    loads = []
    inside = []

    def traced_resolve(path, cwd=None):
        if inside:
            loads[-1]["resolved"].append(path)
        return resolve(path, cwd)

    def traced_load(ctx, image):
        record = {"resolved": [], "stats": None}
        loads.append(record)
        inside.append(image)
        try:
            stats = load(ctx, image)
            record["stats"] = dict(vars(stats))
            return stats
        finally:
            inside.pop()
            process = ctx.process
            state = process.lib_state.get("libSystem", {})
            record["vmas"] = [
                (vma.name, vma.size_bytes, vma.shared_cache)
                for vma in process.address_space
            ]
            record["libs"] = [
                (key, lib.name, lib.vm_size_bytes)
                for key, lib in process.loaded_libraries.items()
            ]
            record["atfork"] = list(state.get("atfork", ()))
            record["atexit"] = list(state.get("atexit", ()))

    vfs.resolve = traced_resolve
    dyld._load_libraries = traced_load
    return loads


def _exec_hello(system, as_limit=None):
    """Exec ``/bin/hello-ios``; its exit code, or the errno it failed with."""
    process = system.kernel.start_process("/bin/hello-ios")
    process.address_space.as_limit_bytes = as_limit
    try:
        return system.wait_for(process)
    except SyscallError as err:
        return ("errno", err.errno)


def _no_change(system):
    pass


def _tmp_file_created_and_unlinked(system):
    system.kernel.vfs.create_file("/tmp/scratch", b"x")
    system.kernel.vfs.unlink("/tmp/scratch")


def _usr_lib_file_created(system):
    system.kernel.vfs.create_file("/usr/lib/libNew.dylib", b"x")


def _walked_dylib_unlinked(system):
    system.kernel.vfs.unlink(
        "/System/Library/PrivateFrameworks/CoreTelephony.framework/CoreTelephony"
    )


def _dylib_replaced(system):
    image = macho_dylib(
        "UIKit",
        deps=["/usr/lib/libobjc.A.dylib"],
        text_kb=4096,
        install_name=UIKIT,
    )
    system.kernel.vfs.install_binary(UIKIT, image)


def _framework_renamed_away(system):
    system.kernel.vfs.rename(
        "/System/Library/Frameworks/UIKit.framework", "/tmp/UIKit.framework"
    )


def _shared_cache_evicted(system):
    evict_shared_cache(system.kernel)


def _shared_cache_rebuilt(system):
    _dylib_replaced(system)
    install_shared_cache(system.kernel)


#: (build_cider kwargs, change, RLIMIT_AS of the exec, plan still valid)
TWIN_CASES = {
    "none": ({}, _no_change, None, True),
    "none-shared-cache": ({"shared_cache": True}, _no_change, None, True),
    "tmp-create-unlink": ({}, _tmp_file_created_and_unlinked, None, True),
    "usr-lib-create": ({}, _usr_lib_file_created, None, False),
    "dylib-unlinked": ({}, _walked_dylib_unlinked, None, False),
    "dylib-replaced": ({}, _dylib_replaced, None, False),
    "framework-renamed": ({}, _framework_renamed_away, None, False),
    "cache-evicted": ({"shared_cache": True}, _shared_cache_evicted, None, False),
    "cache-rebuilt": ({"shared_cache": True}, _shared_cache_rebuilt, None, False),
    "rlimit-as-enomem": ({}, _no_change, 40 * MB, True),
}


@pytest.mark.parametrize("case", sorted(TWIN_CASES))
def test_plan_replay_equals_cold_walk(case):
    """Two identical twins see the same change; one has its plans
    cleared.  The exec that follows must leave the same virtual time,
    stats, mappings, libraries, handlers and errno on both."""
    kwargs, change, as_limit, valid = TWIN_CASES[case]
    outcomes = []
    for clear in (False, True):
        system = build_cider(**kwargs)
        try:
            change(system)
            if clear:
                system.ios.dyld.plans.clear()
            loads = _probe_loads(system)
            result = _exec_hello(system, as_limit)
            outcomes.append((system.machine.clock.charged_ps, result, loads))
        finally:
            system.shutdown()
    (replay_ps, replay_result, [replay]), (cold_ps, cold_result, [cold]) = outcomes
    assert bool(replay.pop("resolved")) is not valid
    assert cold.pop("resolved")
    assert (replay_ps, replay_result, replay) == (cold_ps, cold_result, cold)
    if case == "rlimit-as-enomem":
        assert cold_result == ("errno", E.ENOMEM)
        assert 0 < len(cold["atfork"]) < TARGET_LIBRARY_COUNT


def test_booted_cider_execs_resolve_no_dylib():
    system = build_cider()
    try:
        loads = _probe_loads(system)
        for _ in range(5):
            assert _exec_hello(system) == 0
        assert [load["resolved"] for load in loads] == [[]] * 5
        assert all(
            load["stats"]["walked_filesystem"] == TARGET_LIBRARY_COUNT
            for load in loads
        )
    finally:
        system.shutdown()


def test_observed_execs_walk_cold():
    """With an observatory attached every exec walks, so spans and
    ``ios.dyld.*`` counters describe a real walk."""
    system = build_cider()
    try:
        system.machine.install_observatory()
        loads = _probe_loads(system)
        for _ in range(3):
            assert _exec_hello(system) == 0
        assert [len(load["resolved"]) for load in loads] == [
            TARGET_LIBRARY_COUNT
        ] * 3
    finally:
        system.shutdown()


def test_snapshot_clones_validate_the_plan_against_their_own_vfs():
    system = build_cider(start_services=False)
    system.run_program("/bin/hello-ios")
    snap = snapshot_systems(system)
    system.shutdown()
    clones = [clone for (clone,) in (snap.clone(), snap.clone())]
    try:
        for clone in clones:
            (plan,) = clone.ios.dyld.plans.values()
            assert next(iter(plan.dirs)) is clone.kernel.vfs.root
        clones[0].kernel.vfs.create_file("/usr/lib/libNew.dylib", b"x")
        resolved = []
        for clone in clones:
            loads = _probe_loads(clone)
            assert _exec_hello(clone) == 0
            resolved.append(len(loads[0]["resolved"]))
        assert resolved == [TARGET_LIBRARY_COUNT, 0]
    finally:
        for clone in clones:
            clone.shutdown()


def test_warm_start_transcript_matches_committed():
    """``examples/warm_start.py`` prints the committed transcript byte for
    byte: the virtual ns of three cold and three warm launches."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", "warm_start.py")],
        check=True,
        stdout=subprocess.PIPE,
        env=env,
        timeout=120,
    ).stdout
    with open(os.path.join(ROOT, "benchmarks", "warm_start_stdout.txt"), "rb") as fh:
        assert out == fh.read()
