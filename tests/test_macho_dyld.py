"""Tests for the Mach-O loader, dyld, and the shared-cache ablation."""

import os
import subprocess
import sys
from functools import lru_cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.binfmt import Arch, BinaryFormat, macho_dylib, macho_executable
from repro.cider.system import build_cider, build_ipad_mini
from repro.hw.machine import Machine
from repro.hw.profiles import nexus7
from repro.ios.binaries import LIBSYSTEM_DEP
from repro.ios.dyld import SHARED_CACHE_PATH, Dyld, WalkBook, evict_shared_cache
from repro.ios.frameworks import (
    TARGET_LIBRARY_COUNT,
    TARGET_TOTAL_MB,
    install_shared_cache,
)
from repro.kernel import errno as E
from repro.kernel.errno import SyscallError
from repro.kernel.mm import AddressSpace
from repro.sim import ResourceEnvelope
from repro.sim.clock import VirtualClock
from repro.sim.faults import FaultOutcome, FaultPlan
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

    def test_exit_runs_only_callables_and_charges_every_entry(
        self, cider, monkeypatch
    ):
        """Two callables registered after dyld's handler names run once
        each, last registered first; every entry is charged."""
        ran, charged = [], []
        charge = Machine.charge

        def traced_charge(machine, cost_name, times=1):
            if cost_name == "atexit_handler":
                charged.append(times)
            return charge(machine, cost_name, times)

        monkeypatch.setattr(Machine, "charge", traced_charge)

        def body(ctx):
            ctx.libc.atexit(lambda exit_ctx: ran.append("first"))
            ctx.libc.atexit(lambda exit_ctx: ran.append("second"))
            return len(ctx.lib_state("libSystem")["atexit"])

        assert run_macho(cider, body) == TARGET_LIBRARY_COUNT + 2
        assert ran == ["second", "first"]
        assert charged == [TARGET_LIBRARY_COUNT + 2]

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
            res = ctx.machine.resources
            record["ram_used"] = None if res is None else res.ram_used
            process = ctx.process
            space = process.address_space
            state = process.lib_state.get("libSystem", {})
            record["vmas"] = [
                (vma.name, vma.size_bytes, vma.shared_cache) for vma in space
            ]
            record["libs"] = [
                (key, lib.name, lib.vm_size_bytes)
                for key, lib in process.loaded_libraries.items()
            ]
            record["atfork"] = list(state.get("atfork", ()))
            record["atexit"] = list(state.get("atexit", ()))
            record["total_bytes"] = space.total_bytes
            record["total_pages"] = space.total_pages
            record["copied_on_fork_pages"] = space.copied_on_fork_pages

    vfs.resolve = traced_resolve
    dyld._load_libraries = traced_load
    return loads


def _exec_hello(system, as_limit=None):
    """Exec ``/bin/hello-ios``; its exit code, or the errno it failed with."""
    try:
        process = system.kernel.start_process("/bin/hello-ios")
        process.address_space.as_limit_bytes = as_limit
        return system.wait_for(process)
    except SyscallError as err:
        return ("errno", err.errno)


def _forget_walks(dyld):
    """Leave ``dyld`` nothing to replay: no plans, and an empty book of
    its own (the book itself is shared with every snapshot sibling)."""
    dyld.plans.clear()
    dyld.book = WalkBook()


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


def _envelope_installed(ram_mb, system):
    system.machine.install_resources(ResourceEnvelope(ram_mb=ram_mb))


@lru_cache(maxsize=None)
def _hello_total_bytes():
    """What the address space of an unlimited ``/bin/hello-ios`` exec
    totals when dyld returns: the image and its whole closure."""
    system = build_cider()
    try:
        loads = _probe_loads(system)
        assert _exec_hello(system) == 0
        return loads[0]["total_bytes"]
    finally:
        system.shutdown()


def _one_byte_short():
    return _hello_total_bytes() - 1


#: (build_cider kwargs, change, RLIMIT_AS of the exec or a function
#: computing it, the exec replays)
TWIN_CASES = {
    "none": ({}, _no_change, None, True),
    "none-shared-cache": ({"shared_cache": True}, _no_change, None, True),
    "tmp-create-unlink": ({}, _tmp_file_created_and_unlinked, None, True),
    "usr-lib-create": ({}, _usr_lib_file_created, None, True),
    "dylib-unlinked": ({}, _walked_dylib_unlinked, None, False),
    "dylib-replaced": ({}, _dylib_replaced, None, False),
    "framework-renamed": ({}, _framework_renamed_away, None, False),
    "cache-evicted": ({"shared_cache": True}, _shared_cache_evicted, None, False),
    "cache-rebuilt": ({"shared_cache": True}, _shared_cache_rebuilt, None, False),
    "rlimit-as-enomem": ({}, _no_change, 40 * MB, True),
    "rlimit-as-at-total": ({}, _no_change, _hello_total_bytes, True),
    "rlimit-as-one-byte-short": ({}, _no_change, _one_byte_short, True),
    "ram-envelope": ({}, partial(_envelope_installed, 512), None, True),
    "ram-envelope-enomem": ({}, partial(_envelope_installed, 40), None, True),
}

#: Cases whose exec runs out of memory partway through the libraries.
ENOMEM_CASES = ("rlimit-as-enomem", "ram-envelope-enomem", "rlimit-as-one-byte-short")


@pytest.mark.parametrize("case", sorted(TWIN_CASES))
def test_plan_replay_equals_cold_walk(case):
    """Two identical twins see the same change; one has its plans and
    book cleared.  The exec that follows must leave the same virtual time,
    stats, mappings, libraries, handlers, errno and RAM reserved on both,
    both when dyld returns and after the process is gone.  A change that
    moves a directory generation but no resolution (a new file in
    ``/usr/lib``) still replays: the book's recording re-binds."""
    kwargs, change, as_limit, replays = TWIN_CASES[case]
    if callable(as_limit):
        as_limit = as_limit()
    outcomes = []
    for clear in (False, True):
        system = build_cider(**kwargs)
        try:
            change(system)
            if clear:
                _forget_walks(system.ios.dyld)
            loads = _probe_loads(system)
            result = _exec_hello(system, as_limit)
            res = system.machine.resources
            ram_used = None if res is None else res.ram_used
            outcomes.append(
                (system.machine.clock.charged_ps, ram_used, result, loads)
            )
        finally:
            system.shutdown()
    (replay_ps, replay_ram, replay_result, [replay]) = outcomes[0]
    (cold_ps, cold_ram, cold_result, [cold]) = outcomes[1]
    assert bool(replay.pop("resolved")) is not replays
    assert cold.pop("resolved")
    assert (replay_ps, replay_ram, replay_result, replay) == (
        cold_ps,
        cold_ram,
        cold_result,
        cold,
    )
    if case in ENOMEM_CASES:
        assert cold_result == ("errno", E.ENOMEM)
        assert 0 < len(cold["atfork"]) < TARGET_LIBRARY_COUNT
    if case.startswith("ram-envelope"):
        assert cold["ram_used"] > 0
    if case == "rlimit-as-at-total":
        assert (cold_result, cold["total_bytes"]) == (0, as_limit)
    if case == "rlimit-as-one-byte-short":
        # Only the last library's map overshoots the limit.
        assert len(cold["atfork"]) == TARGET_LIBRARY_COUNT - 1


def _calls_inside_replay(monkeypatch, system, as_limit=None):
    """Exec ``/bin/hello-ios`` on ``system``; how many times
    ``AddressSpace.map_vma`` and ``VirtualClock.charge_ps`` ran inside
    ``Dyld._replay``, and how many replays there were."""
    calls = {"replays": 0, "map_vma": 0, "charge_ps": 0}
    inside = []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if inside:
                calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    replay = Dyld._replay

    def traced_replay(self, ctx, recording):
        calls["replays"] += 1
        inside.append(recording)
        try:
            return replay(self, ctx, recording)
        finally:
            inside.pop()

    monkeypatch.setattr(Dyld, "_replay", traced_replay)
    monkeypatch.setattr(AddressSpace, "map_vma", counted("map_vma", AddressSpace.map_vma))
    monkeypatch.setattr(
        VirtualClock, "charge_ps", counted("charge_ps", VirtualClock.charge_ps)
    )
    try:
        result = _exec_hello(system, as_limit)
    finally:
        monkeypatch.undo()
    return result, calls


def test_a_warm_exec_replays_in_one_step_only_where_no_map_can_fail(monkeypatch):
    """Where no map can fail, a replay maps and charges in one step each,
    whatever the closure's size; under a RAM envelope, or an RLIMIT_AS
    that the closure overshoots, it maps library by library."""
    total = _hello_total_bytes()
    system = build_cider()
    try:
        assert _exec_hello(system) == 0  # warm: the book holds the walk
        assert _calls_inside_replay(monkeypatch, system) == (
            0,
            {"replays": 1, "map_vma": 0, "charge_ps": 1},
        )
        assert _calls_inside_replay(monkeypatch, system, total) == (
            0,
            {"replays": 1, "map_vma": 0, "charge_ps": 1},
        )
        result, calls = _calls_inside_replay(monkeypatch, system, total - 1)
        assert result == ("errno", E.ENOMEM)
        assert calls["map_vma"] == TARGET_LIBRARY_COUNT
        _envelope_installed(512, system)
        result, calls = _calls_inside_replay(monkeypatch, system)
        assert (result, calls["replays"]) == (0, 1)
        assert calls["map_vma"] == TARGET_LIBRARY_COUNT
    finally:
        system.shutdown()


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
        plans = []
        for clone in clones:
            (plan,) = clone.ios.dyld.plans.values()
            assert plan.dirs[0] is clone.kernel.vfs.root
            plans.append(plan)
        clones[0].kernel.vfs.create_file("/usr/lib/libNew.dylib", b"x")
        resolved = []
        for clone in clones:
            loads = _probe_loads(clone)
            assert _exec_hello(clone) == 0
            resolved.append(len(loads[0]["resolved"]))
        assert resolved == [0, 0]
        # The changed clone's plan failed validation, so it re-bound the
        # book's recording to its own VFS; the other kept its plan.
        dyld = clones[0].ios.dyld
        ((root, rebound),) = dyld.plans.items()
        assert rebound is not plans[0]
        assert rebound.recording is dyld.book[root]
        assert next(iter(rebound.dirs)) is clones[0].kernel.vfs.root
        assert list(clones[1].ios.dyld.plans.values()) == [plans[1]]
    finally:
        for clone in clones:
            clone.shutdown()


# -- walk plans under fault plans: a replay is the cold walk ------------------------

#: What generated fault plans aim at: the two points a replay crosses only
#: by counting them, the two it crosses through ``map_vma``, points a
#: hello-world exec crosses outside dyld or never, and a glob matching all.
FAULT_POINTS = (
    "dyld.load",
    "vfs.lookup",
    "mm.map",
    "mm.reserve",
    "net.*",
    "syscall.enter",
    "*",
)

#: One rule: (point, (kind, value), nth, max_fires, window), the window
#: as (start, length) in ns after the exec starts.
_fault_rule = st.tuples(
    st.sampled_from(FAULT_POINTS),
    st.one_of(
        st.tuples(st.just("errno"), st.sampled_from((E.EIO, E.ENOENT, E.ENOMEM))),
        st.tuples(st.just("delay"), st.integers(0, 200_000)),
    ),
    st.one_of(st.none(), st.integers(1, 130)),
    st.one_of(st.none(), st.integers(1, 3)),
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 5_000_000), st.integers(0, 5_000_000)),
    ),
)


def _fault_plan(specs, base_ns):
    plan = FaultPlan(seed=0)
    for index, (point, (kind, value), nth, max_fires, window) in enumerate(specs):
        if window is not None:
            start, length = window
            window = (base_ns + start, base_ns + start + length)
        plan.rule(
            point,
            FaultOutcome.errno(value) if kind == "errno" else FaultOutcome.delay(value),
            rule_id=f"rule-{index}",
            nth=nth,
            max_fires=max_fires,
            window_ns=window,
        )
    return plan


def _hello_snapshot(**kwargs):
    """A booted Cider system that has exec'd ``/bin/hello-ios`` once."""
    system = build_cider(start_services=False, **kwargs)
    assert system.run_program("/bin/hello-ios") == 0
    snap = snapshot_systems(system)
    system.shutdown()
    return snap


@pytest.fixture(scope="module")
def hello_snapshot():
    return _hello_snapshot()


def _execs_under_fault_plan(snapshot, specs):
    """Two clones exec ``/bin/hello-ios`` under one fault plan built from
    ``specs``: one holds the recorded walk, the other has nothing to
    replay.  What each left behind."""
    outcomes = []
    for forget in (False, True):
        (system,) = snapshot.clone()
        try:
            if forget:
                _forget_walks(system.ios.dyld)
            plan = system.machine.install_fault_plan(
                _fault_plan(specs, system.machine.clock.now_ns)
            )
            loads = _probe_loads(system)
            result = _exec_hello(system)
            for load in loads:
                load.pop("resolved")
            outcomes.append(
                (
                    system.machine.clock.charged_ps,
                    result,
                    loads,
                    list(plan.occurrences.items()),
                    [event.format() for event in plan.events],
                    [(rule.matches, rule.fires) for rule in plan.rules],
                )
            )
        finally:
            system.shutdown()
    return outcomes


@settings(max_examples=40, deadline=None)
@given(st.lists(_fault_rule, max_size=3))
@example([])
@example([("dyld.load", ("errno", E.ENOENT), 3, None, None)])
@example([("vfs.lookup", ("delay", 20_000), 60, 1, None)])
@example([("mm.map", ("errno", E.ENOMEM), 40, None, None)])
@example([("mm.reserve", ("delay", 30_000), None, 2, (0, 5_000_000))])
@example([("net.*", ("errno", E.EIO), None, None, None)])
def test_walk_under_a_fault_plan_equals_cold_walk(hello_snapshot, specs):
    """Two clones exec ``/bin/hello-ios`` under one generated fault plan:
    one holds the recorded walk, the other has nothing to replay and
    walks cold.  Virtual time, the result, every load's state, the
    plan's occurrence counts (in order), its events and each rule's
    matches and fires must agree."""
    replayed, cold = _execs_under_fault_plan(hello_snapshot, specs)
    assert replayed == cold


@pytest.mark.parametrize(
    "specs",
    [[], [("mm.reserve", ("delay", 30_000), None, 3, None)]],
    ids=["empty", "mm-reserve-delay"],
)
def test_shared_cache_walk_under_a_fault_plan_equals_cold_walk(specs):
    """With the shared cache, a replay also counts the cache file's
    ``vfs.lookup``, once and first, as the cold walk checks it."""
    replayed, cold = _execs_under_fault_plan(
        _hello_snapshot(shared_cache=True), specs
    )
    assert replayed == cold


# -- recordings cross snapshot clones ------------------------------------------


def _load_state(loads):
    return [{k: v for k, v in load.items() if k != "resolved"} for load in loads]


def test_a_clone_adopts_a_siblings_recording():
    system = build_cider(start_services=False)
    # An empty book of its own, so the first clone walks cold rather than
    # replaying a recording an earlier boot in this process made.
    system.ios.dyld.book = WalkBook()
    snap = snapshot_systems(system)
    outcomes = []
    for (clone,) in (snap.clone(), snap.clone()):
        try:
            loads = _probe_loads(clone)
            assert _exec_hello(clone) == 0
            outcomes.append((clone.machine.clock.charged_ps, loads))
        finally:
            clone.shutdown()
    (first_ps, first), (second_ps, second) = outcomes
    assert len(first[0]["resolved"]) == TARGET_LIBRARY_COUNT
    assert second[0]["resolved"] == []
    assert (second_ps, _load_state(second)) == (first_ps, _load_state(first))


def _walked_directory_replaced_by_file(system):
    vfs = system.kernel.vfs
    framework = "/System/Library/PrivateFrameworks/CoreTelephony.framework"
    vfs.rename(framework, "/tmp/CoreTelephony.framework")
    vfs.create_file(framework, b"x")


@pytest.mark.parametrize(
    "change", [_dylib_replaced, _walked_directory_replaced_by_file]
)
def test_a_clone_whose_walk_would_differ_walks_cold(hello_snapshot, change):
    """The book's recording does not bind to a clone whose walk would
    find another image or fail: that clone walks cold, and ends exactly
    like a clone with nothing to replay."""
    outcomes = []
    for forget in (False, True):
        (clone,) = hello_snapshot.clone()
        try:
            change(clone)
            if forget:
                _forget_walks(clone.ios.dyld)
            loads = _probe_loads(clone)
            result = _exec_hello(clone)
            outcomes.append((clone.machine.clock.charged_ps, result, loads))
        finally:
            clone.shutdown()
    (kept_ps, kept_result, kept), (cold_ps, cold_result, cold) = outcomes
    assert kept[0]["resolved"] == cold[0]["resolved"] != []
    assert (kept_ps, kept_result, _load_state(kept)) == (
        cold_ps,
        cold_result,
        _load_state(cold),
    )


# -- recordings cross boots ------------------------------------------------------


def _slow_dyld_nexus7():
    """A Nexus 7 whose dyld and lookup costs differ but whose profile and
    cost model keep the name ``nexus7``: a book keyed by name would serve
    it the Nexus 7's recordings."""
    profile = nexus7()
    base = profile.cost_model
    profile.cost_model = base.derive(
        base.name,
        dyld_lib_open=base["dyld_lib_open"] * 1.5,
        path_lookup_component=base["path_lookup_component"] * 2,
        dyld_lib_map_per_mb=base["dyld_lib_map_per_mb"] * 1.25,
        dyld_link_per_lib=base["dyld_link_per_lib"] * 1.3,
    )
    return profile


#: Profiles whose cost tables differ.
CROSS_BOOT_PROFILES = {"nexus7": nexus7, "slow-dyld": _slow_dyld_nexus7}


def _first_exec(profile, durable, forget):
    """Boot Cider on ``profile`` without services and exec
    ``/bin/hello-ios`` under an empty fault plan, after giving dyld an
    empty book with ``forget``.  What the exec charged and left behind,
    and how many paths its dyld load resolved."""
    system = build_cider(profile(), durable=durable, start_services=False)
    try:
        if forget:
            _forget_walks(system.ios.dyld)
        plan = system.machine.install_fault_plan(FaultPlan(seed=0))
        loads = _probe_loads(system)
        assert _exec_hello(system) == 0
        (load,) = loads
        resolved = len(load.pop("resolved"))
        state = (
            system.machine.clock.charged_ps,
            load,
            list(plan.occurrences.items()),
        )
        return state, resolved
    finally:
        system.shutdown()


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
@pytest.mark.parametrize(
    "order",
    [("nexus7", "slow-dyld"), ("slow-dyld", "nexus7")],
    ids=["nexus7-first", "slow-dyld-first"],
)
def test_a_fresh_boots_first_exec_equals_a_cold_walk(order, durable):
    """Boots on two cost tables, alternating, in one process.  Each
    system's first exec, whatever earlier boots recorded, must equal the
    same exec on a twin whose dyld has an empty book: charged ps, load
    order, mapped VMAs, atfork and atexit lists and the fault plan's
    counts.  The second boot on each table replays."""
    for round_ in range(2):
        for name in order:
            profile = CROSS_BOOT_PROFILES[name]
            shared, resolved = _first_exec(profile, durable, forget=False)
            cold, walked = _first_exec(profile, durable, forget=True)
            assert shared == cold, name
            assert walked == TARGET_LIBRARY_COUNT
            if round_:
                assert resolved == 0, name


def test_a_fresh_boot_and_a_reboot_reuse_images_and_recordings(monkeypatch):
    """A second fresh boot installs the first boot's image objects and
    replays the first boot's launchd walk; so does a reboot."""
    from repro.ios.dyld import Dyld

    first = build_cider()
    try:
        libsystem = first.kernel.vfs.resolve(LIBSYSTEM_DEP).binary_image
        book = first.ios.dyld.book
    finally:
        first.shutdown()
    walks = []
    walk = Dyld._walk

    def traced(self, ctx, image, recording):
        walks.append(image.name)
        return walk(self, ctx, image, recording)

    monkeypatch.setattr(Dyld, "_walk", traced)
    second = build_cider()
    try:
        assert second.kernel.vfs.resolve(LIBSYSTEM_DEP).binary_image is libsystem
        assert second.ios.dyld.book is book
        assert second.ios.launchd is not None
        assert walks == []
        second.reboot()
        assert second.kernel.vfs.resolve(LIBSYSTEM_DEP).binary_image is libsystem
        assert second.ios.launchd is not None
        assert walks == []
    finally:
        second.shutdown()


def test_partsweep_case_after_the_record_pass_resolves_no_dylib(monkeypatch):
    """The record pass leaves its recording in the world snapshot's
    book, so a case, fault plan and all, replays it."""
    from repro.ios.dyld import Dyld
    from repro.workloads import partsweep

    occurrences, first_fetch_ns = partsweep.record_pass()
    site = partsweep.sample_sites(occurrences)[0]
    walked = []
    walk_filesystem = Dyld._walk_filesystem

    def traced(self, ctx, install_name):
        walked.append(install_name)
        return walk_filesystem(self, ctx, install_name)

    monkeypatch.setattr(Dyld, "_walk_filesystem", traced)
    line, ok = partsweep.sweep_case("clean", site, first_fetch_ns)
    assert ok, line
    assert walked == []


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
