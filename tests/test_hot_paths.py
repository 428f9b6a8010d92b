"""PR 4 — the hot-path engine.

Two kinds of change are covered here, with very different contracts:

* **Wall-clock-only** optimisations (precompiled picosecond charges,
  one flat handler dict per ABI).  Contract: virtual time is
  *bit-identical* to the unoptimised arithmetic — these tests assert
  exact equality against the historical float path.
* **Virtual-time ablations** (VFS dentry cache, dyld launch closures,
  copy-on-write fork).  They change what the simulated kernel charges and
  therefore default to off; these tests assert the warm-path semantics —
  cache invalidation, COW break accounting, envelope balance under
  ENOMEM — and that the toggles stay off by default.
"""

import pytest

from repro.cider.system import build_cider, build_vanilla_android
from repro.compat.xnu_abi import TRAP_mach_reply_port, XNUABI
from repro.hw.profiles import nexus7
from repro.kernel import errno as E
from repro.kernel.errno import SyscallError
from repro.kernel.mm import PAGE_SIZE, AddressSpace
from repro.kernel.vfs import DCACHE_ENTRY_BYTES, VFS, RegularFile
from repro.sim import ResourceEnvelope
from repro.sim.clock import VirtualClock, ns_to_ps
from repro.sim.costs import UnknownCostError

from .helpers import run_elf, run_macho

MB = 1 << 20


# -- precompiled charging (wall-clock only; bit-identical) ----------------------


class TestChargeFastPaths:
    def test_charge_ps_matches_charge(self):
        a, b = VirtualClock(), VirtualClock()
        for ns in (0.0, 90.0, 640.0, 0.3, 123.456789, 21_000.0):
            a.charge(ns)
            b.charge_ps(ns_to_ps(ns))
        assert a.now_ps == b.now_ps

    def test_machine_charge_uses_precompiled_ps(self):
        m1 = nexus7().boot()
        m2 = nexus7().boot()
        for name in ("syscall_entry", "dcache_hit", "path_lookup_component"):
            m1.charge(name)
            m2.clock.charge(m2.costs[name])
        assert m1.clock.now_ps == m2.clock.now_ps

    def test_machine_charge_times_stays_on_float_path(self):
        """``charge(name, n)`` must round the *product* once — exactly the
        historical semantics — not sum n pre-rounded singles."""
        m1 = nexus7().boot()
        m2 = nexus7().boot()
        m1.charge("fork_per_page", 115)
        m2.clock.charge(m2.costs["fork_per_page"] * 115)
        assert m1.clock.now_ps == m2.clock.now_ps

    def test_unknown_cost_still_raises(self):
        machine = nexus7().boot()
        with pytest.raises(UnknownCostError):
            machine.charge("no_such_cost")
        with pytest.raises(UnknownCostError):
            machine.charge("no_such_cost", 3)


# -- one flat handler dict per ABI ------------------------------------------------


class TestFlatDispatch:
    def test_syscall_registered_after_the_first_trap_dispatches(self):
        """A number bound after a persona has trapped dispatches on the
        next trap, on both ABIs: every table writes into the handler dict
        the trap path reads, so nothing can go stale."""
        system = build_cider()
        try:
            kernel = system.kernel
            linux = kernel.personas.get("android").abi
            xnu = kernel.personas.get("ios").abi
            trap = lambda ctx: ctx.kernel.trap(ctx.thread, 99_999, ())
            assert run_elf(system, trap) == -E.ENOSYS
            assert run_macho(system, trap) == (E.ENOSYS, True)
            linux.table.register(99_999, "late_linux", lambda *a: "linux")
            xnu.bsd.register(99_999, "late_xnu", lambda *a: "xnu")
            assert run_elf(system, trap) == "linux"
            assert run_macho(system, trap) == ("xnu", False)
        finally:
            system.shutdown()

    def test_number_bound_by_another_table_of_the_abi_is_refused(self):
        """XNU's four trap classes share one handler dict, so a number one
        table binds cannot be bound again by another."""
        xnu = XNUABI()
        handler = xnu.handlers[TRAP_mach_reply_port]
        with pytest.raises(ValueError, match="already bound"):
            xnu.bsd.register(TRAP_mach_reply_port, "shadow", lambda *a: 0)
        assert TRAP_mach_reply_port not in xnu.bsd
        assert xnu.handlers[TRAP_mach_reply_port] is handler

    def test_unknown_trap_still_enosys(self):
        # A miss in the handler dict raises ENOSYS inside the trap, and the
        # Linux ABI converts it to a ``-errno`` return.
        system = build_vanilla_android()
        try:
            body = lambda ctx: ctx.kernel.trap(ctx.thread, 77_777, ())
            assert run_elf(system, body) == -E.ENOSYS
        finally:
            system.shutdown()


# -- VFS dentry cache ------------------------------------------------------------


@pytest.fixture
def dvfs():
    vfs = VFS(nexus7().boot())
    vfs.enable_dcache()
    return vfs


class TestDentryCache:
    def test_off_by_default(self):
        vfs = VFS(nexus7().boot())
        assert not vfs.dcache_enabled
        vfs.makedirs("/a/b")
        vfs.resolve("/a/b")
        vfs.resolve("/a/b")
        assert vfs.dcache_hits == 0 and vfs.dcache_misses == 0

    def test_warm_lookup_charges_dcache_hit(self, dvfs):
        machine = dvfs._machine
        dvfs.makedirs("/deep/er/and/deeper")
        dvfs.resolve("/deep/er/and/deeper")  # miss: per-component walk
        before = machine.now_ns
        node = dvfs.resolve("/deep/er/and/deeper")
        assert machine.now_ns - before == machine.costs["dcache_hit"]
        assert node is dvfs.resolve("/deep/er/and/deeper")
        assert dvfs.dcache_hits == 2 and dvfs.dcache_misses == 1

    def test_unlink_invalidates(self, dvfs):
        dvfs.create_file("/gone")
        dvfs.resolve("/gone")
        dvfs.unlink("/gone")
        with pytest.raises(SyscallError) as err:
            dvfs.resolve("/gone")
        assert err.value.errno == E.ENOENT

    def test_rmdir_invalidates_subtree(self, dvfs):
        dvfs.makedirs("/d/sub")
        dvfs.resolve("/d/sub")
        dvfs.rmdir("/d/sub")
        dvfs.rmdir("/d")
        for path in ("/d", "/d/sub"):
            with pytest.raises(SyscallError):
                dvfs.resolve(path)

    def test_rename_invalidates_both_names(self, dvfs):
        dvfs.create_file("/old")
        dvfs.create_file("/new")
        old_node = dvfs.resolve("/old")
        dvfs.resolve("/new")  # cache the soon-to-be-replaced target
        dvfs.rename("/old", "/new")
        with pytest.raises(SyscallError):
            dvfs.resolve("/old")
        assert dvfs.resolve("/new") is old_node

    def test_rename_dir_over_nonempty_dir_enotempty(self, dvfs):
        dvfs.makedirs("/src")
        dvfs.makedirs("/dst/kid")
        with pytest.raises(SyscallError) as err:
            dvfs.rename("/src", "/dst")
        assert err.value.errno == E.ENOTEMPTY

    def test_rename_file_over_dir_eisdir(self, dvfs):
        dvfs.create_file("/f")
        dvfs.makedirs("/d")
        with pytest.raises(SyscallError) as err:
            dvfs.rename("/f", "/d")
        assert err.value.errno == E.EISDIR

    def test_drop_dcache_reports_bytes(self, dvfs):
        dvfs.makedirs("/x/y")
        dvfs.resolve("/x")
        dvfs.resolve("/x/y")
        assert dvfs.drop_dcache() == 2 * DCACHE_ENTRY_BYTES
        assert dvfs.drop_dcache() == 0

    def test_pressure_evictor_registered_on_kernel(self):
        system = build_cider(dcache=True, launch_closures=False)
        try:
            vfs = system.kernel.vfs
            assert vfs.dcache_enabled
            assert vfs.drop_dcache in system.kernel.pressure_evictors
        finally:
            system.shutdown()

    def test_relative_lookups_not_cached(self, dvfs):
        cwd = dvfs.makedirs("/home")
        dvfs.create_file("/home/file")
        node = dvfs.resolve("file", cwd)
        assert isinstance(node, RegularFile)
        assert dvfs.resolve("file", cwd) is node
        # Only the absolute walk that built /home landed in the cache.
        assert all(key.startswith("/") for key in dvfs._dcache)
        assert "/file" not in dvfs._dcache


# -- copy-on-write fork ----------------------------------------------------------


def _cow_fixture(ram_mb=64, region_bytes=MB):
    machine = nexus7().boot()
    machine.install_resources(ResourceEnvelope(ram_mb=ram_mb))
    parent = AddressSpace(machine)
    vma = parent.map("heap", region_bytes, writable=True)
    return machine, parent, vma


class TestCowFork:
    def test_cow_fork_charges_nothing_at_fork_time(self):
        machine, parent, _ = _cow_fixture()
        used = machine.resources.ram_used
        child = parent.fork_copy(cow=True)
        assert machine.resources.ram_used == used
        child_source = child._cow[child.find("heap")].source
        assert child_source is parent._cow[parent.find("heap")].source

    def test_eager_fork_still_duplicates(self):
        machine, parent, _ = _cow_fixture()
        used = machine.resources.ram_used
        parent.fork_copy()
        assert machine.resources.ram_used == 2 * used

    def test_touch_breaks_once_per_page(self):
        machine, parent, _ = _cow_fixture()
        child = parent.fork_copy(cow=True)
        cvma = child.find("heap")
        used = machine.resources.ram_used
        t0 = machine.now_ns
        assert child.touch(cvma, 3) is True
        assert machine.resources.ram_used == used + PAGE_SIZE
        assert machine.now_ns - t0 == machine.costs["cow_break_per_page"]
        # Second write to the same page: already private, free.
        t0 = machine.now_ns
        assert child.touch(cvma, 3) is False
        assert machine.now_ns == t0
        assert machine.resources.ram_used == used + PAGE_SIZE

    def test_touch_non_cow_mapping_is_noop(self):
        machine, parent, vma = _cow_fixture()
        assert parent.touch(vma, 0) is False

    def test_touch_out_of_range_rejected(self):
        _, parent, _ = _cow_fixture()
        child = parent.fork_copy(cow=True)
        with pytest.raises(ValueError):
            child.touch(child.find("heap"), 10_000)

    def test_touch_range_rolls_back_on_enomem(self):
        # Budget 1 MB, region 768 KB: the map charges 192 pages, leaving
        # 64 pages of headroom — a 100-page break must fail at page 65
        # and leave the envelope exactly as it found it.
        machine, parent, _ = _cow_fixture(ram_mb=1, region_bytes=768 * 1024)
        child = parent.fork_copy(cow=True)
        cvma = child.find("heap")
        used = machine.resources.ram_used
        with pytest.raises(SyscallError) as err:
            child.touch_range(cvma, 0, 100)
        assert err.value.errno == E.ENOMEM
        assert machine.resources.ram_used == used
        assert child._cow[cvma].broken == set()
        assert child._cow[cvma].charged_bytes == 0

    def test_touch_range_past_the_end_breaks_nothing(self):
        """A range that runs past the mapping raises before it breaks,
        reserves or charges anything."""
        machine, parent, _ = _cow_fixture(region_bytes=3 * PAGE_SIZE)
        child = parent.fork_copy(cow=True)
        cvma = child.find("heap")
        used = machine.resources.ram_used
        charged = machine.clock.charged_ps
        with pytest.raises(ValueError):
            child.touch_range(cvma, 1, 5)
        assert child._cow[cvma].broken == set()
        assert child._cow[cvma].charged_bytes == 0
        assert machine.resources.ram_used == used
        assert machine.clock.charged_ps == charged
        assert child.touch_range(cvma, 1, 2) == 2

    def test_child_teardown_releases_only_broken_pages(self):
        """The jetsam-kill contract: killing a COW child must free its
        privately broken pages but never the shared source the parent
        still reads."""
        machine, parent, _ = _cow_fixture()
        child = parent.fork_copy(cow=True)
        cvma = child.find("heap")
        child.touch_range(cvma, 0, 3)
        used = machine.resources.ram_used
        child.unmap_all()
        assert machine.resources.ram_used == used - 3 * PAGE_SIZE
        # Parent exit releases the last reference — and the source bytes.
        parent.unmap_all()
        assert machine.resources.ram_used == 0

    def test_parent_exit_before_child_keeps_source_charged(self):
        machine, parent, _ = _cow_fixture()
        child = parent.fork_copy(cow=True)
        parent.unmap_all()
        assert machine.resources.ram_used == MB  # child still reads it
        child.unmap_all()
        assert machine.resources.ram_used == 0

    def test_eager_fork_enomem_leaves_cow_source_intact(self):
        """An ENOMEM fork of a parent with live COW regions must leave the
        envelope balanced and the source refcounts untouched."""
        machine = nexus7().boot()
        machine.install_resources(ResourceEnvelope(ram_mb=2))
        parent = AddressSpace(machine)
        pvma = parent.map("heap", MB, writable=True)
        parent.map("cache", MB, shared_cache=True)
        parent.fork_copy(cow=True)  # heap → COW source (2 refs), 0 new RAM
        source = parent._cow[pvma].source
        refs = source.refs
        before = machine.resources.ram_used
        with pytest.raises(SyscallError) as err:
            # COW off: the heap copy needs 1 MB the 2 MB budget no longer
            # has (heap source + shared cache hold it all).
            parent.fork_copy(cow=False)
        assert err.value.errno == E.ENOMEM
        assert machine.resources.ram_used == before
        assert source.refs == refs

    def test_do_fork_cow_is_cheaper(self):
        def fork_cost(cow):
            system = build_vanilla_android()
            try:
                system.kernel.cow_fork = cow

                def body(ctx):
                    t0 = ctx.machine.now_ns
                    ctx.libc.fork(lambda child_ctx: 0)
                    return ctx.machine.now_ns - t0

                return run_elf(system, body)
            finally:
                system.shutdown()

        eager, cow = fork_cost(False), fork_cost(True)
        assert cow < eager

    def test_replayed_walk_keeps_cow_state_per_process(self):
        """Two runs of one Mach-O share the dyld walk plan, the second
        replaying it.  Each run COW-forks and then writes page 0 of its
        own UIKit mapping: both writes break COW and charge one page, as
        COW state belongs to each process, never to a mapping the plan
        hands out."""
        system = build_cider(cow_fork=True)
        try:

            def body(ctx):
                ctx.libc.waitpid(ctx.libc.fork(lambda child_ctx: 0))
                space = ctx.process.address_space
                clock = ctx.machine.clock
                before = clock.charged_ps
                broke = space.touch(space.find("dylib:UIKit"), 0)
                return broke, clock.charged_ps - before

            first = run_macho(system, body)
            second = run_macho(system, body)
            page = system.machine.cost_ps("cow_break_per_page")
            assert first == second == (True, page)
        finally:
            system.shutdown()

    def test_build_cider_cow_flag(self):
        system = build_cider(cow_fork=True)
        try:
            assert system.kernel.cow_fork
            assert system.kernel.cider_config["cow_fork"] is True
        finally:
            system.shutdown()


# -- dyld launch closures --------------------------------------------------------


class TestLaunchClosures:
    def test_second_exec_replays_closure(self):
        system = build_cider(launch_closures=True)
        try:
            dyld = system.ios.dyld
            t0 = system.machine.now_ns
            system.run_program("/bin/hello-ios")
            cold = system.machine.now_ns - t0
            assert not dyld.last_stats.closure_hit
            t0 = system.machine.now_ns
            system.run_program("/bin/hello-ios")
            warm = system.machine.now_ns - t0
            assert dyld.last_stats.closure_hit
            assert dyld.last_stats.from_closure == dyld.last_stats.libraries_loaded
            assert warm < cold
        finally:
            system.shutdown()

    def test_cache_eviction_invalidates_closures(self):
        from repro.ios.dyld import evict_shared_cache

        system = build_cider(shared_cache=True, launch_closures=True)
        try:
            dyld = system.ios.dyld
            system.run_program("/bin/hello-ios")
            assert dyld._closures
            generation = dyld.cache_generation
            evict_shared_cache(system.kernel)
            assert not dyld._closures
            assert dyld.cache_generation == generation + 1
            # Next launch is a cold path again (no stale replay).
            system.run_program("/bin/hello-ios")
            assert not dyld.last_stats.closure_hit
        finally:
            system.shutdown()

    def test_closures_off_by_default(self):
        system = build_cider()
        try:
            assert not system.ios.dyld.use_closures
            system.run_program("/bin/hello-ios")
            system.run_program("/bin/hello-ios")
            assert not system.ios.dyld.last_stats.closure_hit
        finally:
            system.shutdown()
