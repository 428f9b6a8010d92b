"""dyld: the iOS user-space dynamic linker.

Invoked from the kernel's Mach-O loader (paper §2), dyld resolves the
binary's dylib dependency closure, maps every image, and registers the
per-library callbacks whose cost dominates the paper's fork/exec numbers:

* without a prelinked **shared cache** (the Cider prototype), dyld "must
  walk the filesystem to load each library on every exec" — ~115
  libraries / ~90 MB even for a hello-world, each paying an open + map +
  link charge (§6.2);
* with the shared cache (iOS on real hardware; implemented here as the
  future-work ablation), the whole prelinked cache maps in one go, its
  pages live in a shared submap that fork does not copy, and handler
  registration is batched.

Each loaded image registers a pthread_atfork handler set and an exit
callback in libSystem — "resulting in the execution of 115 handlers on
exit" (§6.2).

The simulator itself need not redo a walk it has already done: a walk
nothing observes is recorded once per dependency root as a
:class:`WalkPlan` and replayed while everything it read is unchanged.
The replay charges the same picoseconds and maps the same regions in the
same order, so the simulated walk, and its virtual time, stay as above.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..binfmt import BinaryImage
from ..kernel.errno import ENOENT, SyscallError
from ..kernel.vfs import RegularFile

if TYPE_CHECKING:
    from ..kernel.process import UserContext
    from ..kernel.vfs import VFS, Directory, Inode

#: Where iOS keeps the prelinked cache.
SHARED_CACHE_PATH = (
    "/System/Library/Caches/com.apple.dyld/dyld_shared_cache_armv7"
)

#: With the cache, dyld's optimised handling batches callback
#: registration: one handler entry covers this many prelinked images.
CACHE_HANDLER_BATCH = 8

LIBSYSTEM_STATE = "libSystem"

#: The VMA name the mapped cache carries in every address space.
SHARED_CACHE_VMA = "dyld_shared_cache"


def evict_shared_cache(kernel: "object") -> int:
    """Jetsam pressure evictor: drop the shared cache's clean pages.

    Unmaps the ``dyld_shared_cache`` submap region from every live
    process; when the last reference goes the machine-wide (refcounted)
    reservation is released back to the envelope.  This models XNU
    discarding the cache's clean, re-faultable pages under pressure — the
    simulation never reads the region after mapping, so dropping it is
    behaviour-preserving.  Returns the number of bytes released.
    """
    machine = kernel.machine  # type: ignore[attr-defined]
    res = machine.resources
    before = res.ram_used if res is not None else 0
    dropped = 0
    for process in kernel.processes.live_processes():  # type: ignore[attr-defined]
        while True:
            vma = process.address_space.find(SHARED_CACHE_VMA)
            if vma is None:
                break
            dropped += vma.size_bytes
            process.address_space.unmap(vma)
    if res is not None:
        freed = before - res.ram_used
    else:
        freed = dropped
    if dropped:
        machine.emit(
            "resource", "dyld_cache_evicted", unmapped=dropped, freed=freed
        )
    # Cache generation moved on: every prebuilt launch closure was
    # validated against the old generation and must be rebuilt.
    dyld = getattr(kernel, "dyld", None)
    if dyld is not None:
        dyld.invalidate_closures()
    return freed


class LaunchClosure:
    """A dyld3-style prebuilt launch closure for one main image.

    Records the fully resolved, ordered dependency closure so a repeat
    exec of the same image skips the per-library filesystem walk: the
    closure is validated against the cache generation (one stat + hash
    check, ``dyld_closure_hit``) and then each image is replayed — map
    plus a residual fix-up (``dyld_closure_lib_replay``) instead of
    open-walk-link.
    """

    __slots__ = ("image", "generation", "plan")

    def __init__(self, image: BinaryImage, generation: int, plan: "WalkPlan") -> None:
        self.image = image
        self.generation = generation
        #: The walk this closure was built from: its ordered entries and
        #: the cache size it mapped.
        self.plan = plan


class WalkPlan:
    """A recorded cold walk of one dependency root, replayed host-side.

    Virtual time is a pure function of simulator state, so a walk that
    reads the same state charges the same picoseconds and maps the same
    regions.  The cold walk records what it did and what it read; while
    everything it read is unchanged, :meth:`Dyld._replay_plan` repeats
    the charges and maps without walking the filesystem again.  The
    simulated walk is unchanged: ``last_stats`` still reports every
    library as walked.
    """

    def __init__(self, cache_generation: int) -> None:
        #: One ``(lib, from_cache, ps, region, size)`` per loaded library
        #: in load order: the picoseconds charged since the previous map,
        #: then the region mapped (``None`` when the library maps nothing,
        #: as prelinked images after the first do).
        self.entries: List[tuple] = []
        #: Picoseconds charged after the last map.
        self.tail_ps = 0
        #: What the walk reports; every replay returns it as is.
        self.stats = DyldStats()
        #: Size of the shared-cache region the walk mapped (0 if none).
        self.cache_total_bytes = 0
        #: What the walk read: the shared-cache generation, every
        #: directory a lookup went through (with its generation at the
        #: time), each walked file with the image it held, and the cache
        #: file with the cache it held.
        self.cache_generation = cache_generation
        self.dirs: Dict[Directory, int] = {}
        self.files: List[tuple] = []
        self.cache_file: Optional[Inode] = None
        self.cache: object = None

    def read_path(self, vfs: "VFS", path: str) -> None:
        for directory in vfs.dirs_read(path):
            self.dirs.setdefault(directory, directory.generation)

    def valid(self, cache_generation: int) -> bool:
        """True while nothing the walk read has changed."""
        if cache_generation != self.cache_generation:
            return False
        for directory, generation in self.dirs.items():
            if directory.generation != generation:
                return False
        for node, image in self.files:
            if node.binary_image is not image:
                return False
        cache_file = self.cache_file
        return (
            cache_file is None
            or getattr(cache_file, "shared_cache", None) is self.cache
        )


class SharedCache:
    """The prelinked dyld shared cache: an index of contained images."""

    def __init__(self, images: List[BinaryImage]) -> None:
        self.images = list(images)
        self._by_name: Dict[str, BinaryImage] = {}
        for image in images:
            self._by_name[image.install_name] = image
            self._by_name[image.name] = image

    @property
    def total_bytes(self) -> int:
        return sum(image.vm_size_bytes for image in self.images)

    def contains(self, install_name: str) -> bool:
        return install_name in self._by_name

    def get(self, install_name: str) -> BinaryImage:
        return self._by_name[install_name]


class DyldStats:
    """What one program load cost (inspectable by tests/benches)."""

    def __init__(self) -> None:
        self.libraries_loaded = 0
        self.from_cache = 0
        self.walked_filesystem = 0
        self.from_closure = 0
        self.closure_hit = False
        self.mapped_bytes = 0

    def __repr__(self) -> str:
        return (
            f"<DyldStats libs={self.libraries_loaded} cache={self.from_cache} "
            f"closure={self.from_closure} mb={self.mapped_bytes >> 20}>"
        )


class Dyld:
    """One dyld configuration shared by every Mach-O exec on a kernel."""

    def __init__(
        self, use_shared_cache: bool = False, use_closures: bool = False
    ) -> None:
        self.use_shared_cache = use_shared_cache
        #: dyld3-style launch closures (warm-path ablation, off by
        #: default — the Cider prototype re-walked the filesystem on
        #: every exec, paper §6.2).
        self.use_closures = use_closures
        self.last_stats: Optional[DyldStats] = None
        #: True once :func:`evict_shared_cache` is on the kernel's
        #: pressure-evictor list (registered on first cache map).
        self._evictor_registered = False
        #: Shared-cache generation: closures and walk plans recorded
        #: against an older generation fail validation.
        self.cache_generation = 0
        self._closures: Dict[str, LaunchClosure] = {}
        #: Host-side walk plans, one per dependency root
        #: (``tuple(image.deps)``).  Clearing it forces the next exec of
        #: each root to walk cold.
        self.plans: Dict[tuple, WalkPlan] = {}

    def invalidate_closures(self) -> None:
        """Drop every prebuilt closure and move the cache generation on,
        which also invalidates every walk plan (called when the shared
        cache is evicted under pressure)."""
        self.cache_generation += 1
        self._closures.clear()

    # -- program startup ---------------------------------------------------------

    def bootstrap(self, ctx: "UserContext", image: BinaryImage, argv: List[str]) -> int:
        """Load libraries, run the entry point, flow through exit."""
        self.last_stats = self._load_libraries(ctx, image)
        entry = image.entry
        result = entry(ctx, list(argv))
        code = result if isinstance(result, int) else 0
        exit_fn = getattr(ctx.libc, "exit", None)
        if exit_fn is not None:
            exit_fn(code)
        return code

    # -- library loading ------------------------------------------------------------

    def _resolve_cache(
        self, ctx: "UserContext", plan: Optional[WalkPlan]
    ) -> Optional[SharedCache]:
        if not self.use_shared_cache:
            return None
        vfs = ctx.kernel.vfs
        if plan is not None:
            plan.read_path(vfs, SHARED_CACHE_PATH)
        try:
            node = vfs.resolve(SHARED_CACHE_PATH)
        except SyscallError:
            return None
        cache = getattr(node, "shared_cache", None)
        if plan is not None:
            plan.cache_file = node
            plan.cache = cache
        return cache if isinstance(cache, SharedCache) else None

    def _load_libraries(self, ctx: "UserContext", image: BinaryImage) -> DyldStats:
        """Resolve the dependency closure — a ``ios.dyld.load`` span, so
        the profiler shows exactly how much of every Mach-O exec is dyld
        walking the filesystem (the paper's §6.2 fork/exec story)."""
        machine = ctx.machine
        obs = machine.obs
        if obs is None:
            return self._load_libraries_body(ctx, image)
        span = obs.enter_span("ios.dyld.load", image.name, None)
        try:
            stats = self._load_libraries_body(ctx, image)
        finally:
            obs.exit_span(span)
        machine.count("ios.dyld.libs.loaded", stats.libraries_loaded)
        machine.count("ios.dyld.libs.walked", stats.walked_filesystem)
        machine.count("ios.dyld.libs.cached", stats.from_cache)
        machine.count("ios.dyld.libs.closure", stats.from_closure)
        obs.metrics.gauge("ios.dyld.mapped.bytes").set(stats.mapped_bytes)
        return stats

    def _load_libraries_body(
        self, ctx: "UserContext", image: BinaryImage
    ) -> DyldStats:
        if self.use_closures:
            closure = self._closures.get(image.name)
            if (
                closure is not None
                and closure.generation == self.cache_generation
                and closure.image is image
            ):
                return self._replay_closure(ctx, closure)
        machine = ctx.machine
        # Plans are only for walks nothing watches: spans, counters,
        # fault points and dcache statistics all come from a cold walk.
        planned = (
            machine.obs is None
            and machine.faults is None
            and not ctx.kernel.vfs.dcache_enabled
        )
        key = tuple(image.deps)
        plan = self.plans.get(key) if planned else None
        if plan is not None and plan.valid(self.cache_generation):
            stats = self._replay_plan(ctx, plan)
        else:
            plan = WalkPlan(self.cache_generation)
            stats = self._walk(ctx, image, plan, planned)
            if planned:
                self.plans[key] = plan
        if self.use_closures:
            self._closures[image.name] = LaunchClosure(
                image, self.cache_generation, plan
            )
        return stats

    def _walk(
        self,
        ctx: "UserContext",
        image: BinaryImage,
        plan: WalkPlan,
        record: bool,
    ) -> DyldStats:
        """The cold walk: resolve, map and link every library, noting
        each step in ``plan`` (and, when ``record``, what it read)."""
        machine = ctx.machine
        clock = machine.clock
        process = ctx.process
        space = process.address_space
        vfs = ctx.kernel.vfs
        stats = plan.stats
        mark = clock.charged_ps
        cache = self._resolve_cache(ctx, plan if record else None)
        cache_mapped = False

        loaded: Set[str] = set()
        queue: List[str] = list(image.deps)
        state = ctx.lib_state(LIBSYSTEM_STATE)
        atfork = state.setdefault("atfork", [])
        atexit = state.setdefault("atexit", [])
        entries = plan.entries

        # Breadth first: the loop also visits what ``queue.extend`` adds.
        for dep in queue:
            if dep in loaded:
                continue
            loaded.add(dep)
            region: Optional[str] = None
            ps = size = 0

            if cache is not None and cache.contains(dep):
                lib = cache.get(dep)
                from_cache = True
                if not cache_mapped:
                    # Map the entire prelinked cache once, as a shared
                    # submap fork will not copy.
                    machine.charge("dyld_shared_cache_map")
                    region, size = SHARED_CACHE_VMA, cache.total_bytes
                    ps = clock.charged_ps - mark
                    space.map(region, size, shared_cache=True)
                    mark = clock.charged_ps
                    plan.cache_total_bytes = size
                    stats.mapped_bytes += size
                    cache_mapped = True
                    if not self._evictor_registered:
                        self._evictor_registered = True
                        ctx.kernel.pressure_evictors.append(
                            partial(evict_shared_cache, ctx.kernel)
                        )
                # Prelinked: binding work is already done in the cache.
                machine.charge("dyld_link_per_lib", 0.25)
                stats.from_cache += 1
            else:
                node = self._walk_filesystem(ctx, dep)
                lib = node.binary_image
                from_cache = False
                if record:
                    plan.read_path(vfs, dep)
                    plan.files.append((node, lib))
                machine.charge("dyld_lib_map_per_mb", lib.vm_size_mb)
                machine.charge("dyld_link_per_lib")
                region, size = f"dylib:{lib.name}", lib.vm_size_bytes
                ps = clock.charged_ps - mark
                space.map(region, size)
                mark = clock.charged_ps
                stats.mapped_bytes += size
                stats.walked_filesystem += 1
                # Every individually loaded image registers fork and exit
                # callbacks.
                atfork.append(f"atfork:{lib.name}")
                atexit.append(f"atexit:{lib.name}")

            entries.append((lib, from_cache, ps, region, size))
            stats.libraries_loaded += 1
            process.loaded_libraries[lib.name] = lib
            process.loaded_libraries[lib.install_name] = lib
            queue.extend(d for d in lib.deps if d not in loaded)

        plan.tail_ps = clock.charged_ps - mark
        _register_cache_batches(atfork, atexit, stats.from_cache)
        return stats

    def _replay_plan(self, ctx: "UserContext", plan: WalkPlan) -> DyldStats:
        """Repeat a recorded walk: for each library, charge what the cold
        walk charged before its map, then map, in the cold order — so the
        clock reads the same at every map, and a map that fails leaves
        the same state behind."""
        process = ctx.process
        charge_ps = ctx.machine.clock.charge_ps
        map_region = process.address_space.map
        loaded = process.loaded_libraries
        state = ctx.lib_state(LIBSYSTEM_STATE)
        atfork = state.setdefault("atfork", [])
        atexit = state.setdefault("atexit", [])
        for lib, from_cache, ps, region, size in plan.entries:
            if region is not None:
                charge_ps(ps)
                map_region(region, size, shared_cache=from_cache)
                if not from_cache:
                    atfork.append(f"atfork:{lib.name}")
                    atexit.append(f"atexit:{lib.name}")
            loaded[lib.name] = lib
            loaded[lib.install_name] = lib
        charge_ps(plan.tail_ps)
        _register_cache_batches(atfork, atexit, plan.stats.from_cache)
        return plan.stats

    def _replay_closure(
        self, ctx: "UserContext", closure: LaunchClosure
    ) -> DyldStats:
        """Warm exec: the image is already located and its link edits
        prevalidated — validate the closure against the cache generation
        (``dyld_closure_hit``) and replay each entry (map + residual
        fix-up) instead of walking the filesystem per library."""
        machine = ctx.machine
        process = ctx.process
        stats = DyldStats()
        stats.closure_hit = True
        machine.charge("dyld_closure_hit")
        state = ctx.lib_state(LIBSYSTEM_STATE)
        atfork = state.setdefault("atfork", [])
        atexit = state.setdefault("atexit", [])
        cache_mapped = False
        cache_total_bytes = closure.plan.cache_total_bytes
        for lib, from_cache, _ps, _region, _size in closure.plan.entries:
            if from_cache:
                if not cache_mapped:
                    # The cache submap must still be mapped per process.
                    machine.charge("dyld_shared_cache_map")
                    process.address_space.map(
                        SHARED_CACHE_VMA,
                        cache_total_bytes,
                        shared_cache=True,
                    )
                    stats.mapped_bytes += cache_total_bytes
                    cache_mapped = True
                # No per-lib link charge: the closure *is* the
                # prevalidated bind state for prelinked images — the
                # single ``dyld_closure_hit`` validation covered it.
                stats.from_cache += 1
                stats.from_closure += 1
            else:
                machine.charge("dyld_lib_map_per_mb", lib.vm_size_mb)
                machine.charge("dyld_closure_lib_replay")
                process.address_space.map(f"dylib:{lib.name}", lib.vm_size_bytes)
                stats.mapped_bytes += lib.vm_size_bytes
                stats.from_closure += 1
                atfork.append(f"atfork:{lib.name}")
                atexit.append(f"atexit:{lib.name}")
            stats.libraries_loaded += 1
            process.loaded_libraries[lib.name] = lib
            process.loaded_libraries[lib.install_name] = lib
        _register_cache_batches(atfork, atexit, stats.from_cache)
        return stats

    def _walk_filesystem(self, ctx: "UserContext", install_name: str) -> RegularFile:
        """Locate one dylib by path — the non-prelinked slow path."""
        machine = ctx.machine
        obs = machine.obs
        if obs is None:
            return self._walk_filesystem_body(ctx, install_name)
        span = obs.enter_span("ios.dyld.walk", install_name, None)
        try:
            return self._walk_filesystem_body(ctx, install_name)
        finally:
            obs.exit_span(span)

    def _walk_filesystem_body(
        self, ctx: "UserContext", install_name: str
    ) -> RegularFile:
        machine = ctx.machine
        machine.charge("dyld_lib_open")
        if machine.faults is not None:
            outcome = machine.faults.check("dyld.load", library=install_name)
            injected = ctx.kernel.apply_fault_errno(ctx.process, outcome)
            if injected is not None:
                raise SyscallError(
                    injected, f"dyld: library not loaded: {install_name}"
                )
        try:
            node = ctx.kernel.vfs.resolve(install_name)
        except SyscallError:
            raise SyscallError(ENOENT, f"dyld: library not loaded: {install_name}")
        if not isinstance(node, RegularFile) or node.binary_image is None:
            raise SyscallError(ENOENT, f"dyld: not a dylib: {install_name}")
        return node


def _register_cache_batches(atfork: List[str], atexit: List[str], count: int) -> None:
    """Batched handler registration for ``count`` prelinked images."""
    for batch in range(0, count, CACHE_HANDLER_BATCH):
        atfork.append(f"atfork:cache-batch-{batch}")
        atexit.append(f"atexit:cache-batch-{batch}")
