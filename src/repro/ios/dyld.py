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

The simulator itself need not redo a walk it has already done.  A cold
walk of a dependency root leaves a :class:`WalkRecording`: what it
charged, mapped and registered, and which paths it walked.  Images and
VMAs are values (:mod:`repro.binfmt.image`, :mod:`repro.kernel.mm`), so
a recording belongs to no one system.  A :class:`WalkPlan` binds it to
one VFS: the directories and file nodes its lookups read there.  While
the binding holds, an exec replays the recording instead of walking:
the same picoseconds and the same maps in the same order, so the
simulated walk, and its virtual time, stay as above.  The recordings
are kept in a :class:`WalkBook`, one per cost table in the process,
shared by every dyld on a machine with that table: a fresh boot, a
reboot or a boot-snapshot clone re-binds what an earlier boot or a
sibling recorded to its own VFS instead of walking cold, since every
boot installs the same image objects.

Where no map can fail (no fault plan, no resource envelope, and an
``RLIMIT_AS`` that covers the whole closure), a replay is a few bulk
steps whose cost does not grow with the closure: one charge of the
recording's summed picoseconds, one :meth:`AddressSpace.map_batch
<repro.kernel.mm.AddressSpace.map_batch>` of its VMAs, and one extend of
the loaded libraries and of libSystem's atfork and atexit lists.
Otherwise it goes library by library: it crosses only ``mm.map`` and
``mm.reserve`` itself (through ``map_vma``, at the cold walk's clock
readings), so a map fails at the cold walk's library.  It only counts
the ``dyld.load`` and ``vfs.lookup`` points a cold walk checks, so it
runs under a fault plan only when no rule can match either of them.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter, is_
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..binfmt import BinaryImage
from ..kernel.errno import ENOENT, SyscallError
from ..kernel.mm import MapBatch
from ..kernel.vfs import Directory, RegularFile

if TYPE_CHECKING:
    from ..kernel.mm import VMA
    from ..kernel.process import UserContext
    from ..kernel.vfs import VFS, Inode
    from ..sim.costs import CostModel

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

    __slots__ = ("image", "generation", "recording")

    def __init__(
        self, image: BinaryImage, generation: int, recording: "WalkRecording"
    ) -> None:
        self.image = image
        self.generation = generation
        #: The walk this closure was built from: its ordered entries and
        #: the VMAs it mapped.
        self.recording = recording


class WalkRecording:
    """What one cold walk of a dependency root did.

    Virtual time is a pure function of simulator state, so a walk that
    finds the same images at the same paths charges the same picoseconds
    and maps the same regions.  The recording holds only values (images,
    VMAs, numbers and names), so it belongs to no one system; a
    :class:`WalkPlan` binds it to one VFS.
    """

    def __init__(self, cache_generation: int) -> None:
        #: One ``(lib, from_cache, ps, vma, on_fork, on_exit)`` per loaded
        #: library in load order: the picoseconds charged since the
        #: previous map, the VMA the walk mapped (``None`` when the
        #: library maps nothing, as prelinked images after the first do),
        #: and the atfork and atexit handlers it registered (``None`` for
        #: prelinked images, whose handlers are batched).
        self.entries: List[tuple] = []
        #: Picoseconds charged after the last map.
        self.tail_ps = 0
        #: What the walk reports; every replay returns it as is.  The
        #: simulated walk is unchanged, so ``walked_filesystem`` still
        #: counts every library found on the filesystem.
        self.stats = DyldStats()
        #: The path of each library the walk found on the filesystem, in
        #: walk order, and the image it found there.
        self.paths: List[str] = []
        self.images: List[BinaryImage] = []
        #: The shared-cache generation the walk ran under.
        self.cache_generation = cache_generation
        #: What the whole walk charged, mapped and registered, summed by
        #: :meth:`seal` for a replay in one step: every picosecond, the
        #: VMAs with their totals, ``loaded_libraries``' entries and
        #: libSystem's atfork and atexit names, cache batches included.
        self.total_ps = 0
        self.maps = MapBatch([])
        self.libraries: Dict[str, BinaryImage] = {}
        self.atfork: List[str] = []
        self.atexit: List[str] = []

    def seal(self) -> None:
        """Sum up the entries, once the walk has ended."""
        entries = self.entries
        self.total_ps = sum(entry[2] for entry in entries) + self.tail_ps
        self.maps = MapBatch([entry[3] for entry in entries if entry[3] is not None])
        for lib, _from_cache, _ps, _vma, on_fork, on_exit in entries:
            self.libraries[lib.name] = lib
            self.libraries[lib.install_name] = lib
            if on_fork is not None:
                self.atfork.append(on_fork)
                self.atexit.append(on_exit)
        _register_cache_batches(self.atfork, self.atexit, self.stats.from_cache)


_generation = attrgetter("generation")
_binary_image = attrgetter("binary_image")


class WalkPlan:
    """A recording bound to one VFS, replayed host-side while valid.

    The binding is what the recording's lookups read on that VFS: every
    directory with its generation, each walked file node, which held the
    recording's image, and the cache file with the cache it held.  While
    none of it changed, :meth:`Dyld._replay` repeats the recording's
    charges and maps without walking the filesystem again.
    """

    def __init__(
        self,
        recording: WalkRecording,
        dirs: Dict[Directory, int],
        nodes: List[RegularFile],
        cache_file: Optional["Inode"],
    ) -> None:
        self.recording = recording
        #: The directories, in lookup order, and their generations then.
        self.dirs = list(dirs)
        self.generations = list(dirs.values())
        #: The node of each of the recording's ``paths``.
        self.nodes = nodes
        self.cache_file = cache_file
        self.cache = getattr(cache_file, "shared_cache", None)

    def valid(self, cache_generation: int) -> bool:
        """True while nothing the walk read has changed."""
        cache_file = self.cache_file
        return (
            cache_generation == self.recording.cache_generation
            and list(map(_generation, self.dirs)) == self.generations
            and all(map(is_, map(_binary_image, self.nodes), self.recording.images))
            and (
                cache_file is None
                or getattr(cache_file, "shared_cache", None) is self.cache
            )
        )


class WalkBook(dict):
    """Dependency root -> the latest :class:`WalkRecording` of it.

    A host-side memo that no simulated state reads: every use re-binds
    the recording and checks it against the VFS at hand.  Every dyld
    without the shared cache on a machine with the same cost table
    shares one book (:func:`book_for`), and so does every boot-snapshot
    clone of such a system (fork-server workers inherit it), so a
    recording any boot, reboot or clone makes serves them all.  Its
    entries are not attributes, so the capture check does not walk them.
    """

    __slots__ = ()

    snapshot_shared = True


#: The process's books, keyed by cost table as a value: a recording's
#: picoseconds are what that table charges for its lookups, maps and links.
_BOOKS: Dict[frozenset, WalkBook] = {}


def book_for(costs: "CostModel") -> WalkBook:
    """The book every dyld on a machine charging ``costs`` shares."""
    return _BOOKS.setdefault(costs.table(), WalkBook())


def _lookup(
    vfs: "VFS", path: str, dirs: Dict[Directory, int]
) -> Optional["Inode"]:
    """What ``vfs.resolve(path)`` returns, or ``None`` where it raises,
    noting each directory it reads, with its generation, in ``dirs``.
    Charges nothing."""
    node: Inode = vfs.root
    for part in vfs.split(path):
        if not isinstance(node, Directory):
            return None
        dirs.setdefault(node, node.generation)
        node = node.entries.get(part)
        if node is None:
            return None
    return node


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
    """One dyld configuration shared by every Mach-O exec on a kernel,
    whose machine charges ``costs``."""

    def __init__(
        self,
        costs: "CostModel",
        use_shared_cache: bool = False,
        use_closures: bool = False,
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
        #: Host-side walk plans bound to this system's VFS, one per
        #: dependency root (``image.deps``).
        self.plans: Dict[tuple, WalkPlan] = {}
        #: Recordings shared with every dyld in the process on a machine
        #: with the same cost table, snapshot clones included.  With the
        #: shared cache, plans stay per system: a cache is not a value,
        #: so another system's could differ without a re-bind noticing.
        self.book = WalkBook() if use_shared_cache else book_for(costs)

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

    def _resolve_cache(self, ctx: "UserContext") -> Optional[SharedCache]:
        if not self.use_shared_cache:
            return None
        try:
            node = ctx.kernel.vfs.resolve(SHARED_CACHE_PATH)
        except SyscallError:
            return None
        cache = getattr(node, "shared_cache", None)
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
        vfs = ctx.kernel.vfs
        faults = machine.faults
        # Plans are only for walks nothing watches: spans, counters,
        # dcache statistics and the faults a replay would not check all
        # come from a cold walk.
        planned = (
            machine.obs is None
            and not vfs.dcache_enabled
            and (
                faults is None
                or not (
                    faults.can_match("dyld.load")
                    or faults.can_match("vfs.lookup")
                )
            )
        )
        key = image.deps
        plan = self._plan(vfs, key) if planned else None
        if plan is not None:
            recording = plan.recording
            stats = self._replay(ctx, recording)
        else:
            recording = WalkRecording(self.cache_generation)
            stats = self._walk(ctx, image, recording)
            if planned:
                # Nothing else ran while the walk did, so binding now
                # reads what the walk read.
                plan = self._bind(vfs, recording)
                if plan is not None:
                    self.plans[key] = plan
                    if not self.use_shared_cache:
                        self.book[key] = recording
        if self.use_closures:
            self._closures[image.name] = LaunchClosure(
                image, self.cache_generation, recording
            )
        return stats

    def _plan(self, vfs: "VFS", key: tuple) -> Optional[WalkPlan]:
        """A valid plan for ``key``: this system's own, or else the
        book's recording bound afresh to ``vfs``."""
        plan = self.plans.get(key)
        if plan is not None and plan.valid(self.cache_generation):
            return plan
        recording = self.book.get(key)
        if recording is None or recording.cache_generation != self.cache_generation:
            return None
        plan = self._bind(vfs, recording)
        if plan is not None:
            self.plans[key] = plan
        return plan

    def _bind(self, vfs: "VFS", recording: WalkRecording) -> Optional[WalkPlan]:
        """Bind ``recording`` to ``vfs``; ``None`` where a cold walk on
        ``vfs`` would fail or find another image: a walked path with a
        missing entry or a component that is not a directory, or one
        that resolves to anything but a regular file holding the
        recorded image.  Charges nothing."""
        dirs: Dict[Directory, int] = {}
        cache_file = None
        if self.use_shared_cache:
            cache_file = _lookup(vfs, SHARED_CACHE_PATH, dirs)
        nodes = []
        for path, lib in zip(recording.paths, recording.images):
            node = _lookup(vfs, path, dirs)
            if not isinstance(node, RegularFile) or node.binary_image is not lib:
                return None
            nodes.append(node)
        return WalkPlan(recording, dirs, nodes, cache_file)

    def _walk(
        self, ctx: "UserContext", image: BinaryImage, recording: WalkRecording
    ) -> DyldStats:
        """The cold walk: resolve, map and link every library, noting
        each step in ``recording``."""
        machine = ctx.machine
        clock = machine.clock
        process = ctx.process
        space = process.address_space
        stats = recording.stats
        mark = clock.charged_ps
        cache = self._resolve_cache(ctx)
        cache_mapped = False

        loaded: Set[str] = set()
        queue: List[str] = list(image.deps)
        state = ctx.lib_state(LIBSYSTEM_STATE)
        atfork = state.setdefault("atfork", [])
        atexit = state.setdefault("atexit", [])
        entries = recording.entries

        # Breadth first: the loop also visits what ``queue.extend`` adds.
        for dep in queue:
            if dep in loaded:
                continue
            loaded.add(dep)
            vma: Optional[VMA] = None
            on_fork = on_exit = None
            ps = 0

            if cache is not None and cache.contains(dep):
                lib = cache.get(dep)
                from_cache = True
                if not cache_mapped:
                    # Map the entire prelinked cache once, as a shared
                    # submap fork will not copy.
                    machine.charge("dyld_shared_cache_map")
                    ps = clock.charged_ps - mark
                    vma = space.map(
                        SHARED_CACHE_VMA, cache.total_bytes, shared_cache=True
                    )
                    mark = clock.charged_ps
                    stats.mapped_bytes += vma.size_bytes
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
                lib = self._walk_filesystem(ctx, dep).binary_image
                from_cache = False
                recording.paths.append(dep)
                recording.images.append(lib)
                machine.charge("dyld_lib_map_per_mb", lib.vm_size_mb)
                machine.charge("dyld_link_per_lib")
                ps = clock.charged_ps - mark
                vma = space.map(f"dylib:{lib.name}", lib.vm_size_bytes)
                mark = clock.charged_ps
                stats.mapped_bytes += lib.vm_size_bytes
                stats.walked_filesystem += 1
                # Every individually loaded image registers fork and exit
                # callbacks.
                on_fork, on_exit = f"atfork:{lib.name}", f"atexit:{lib.name}"
                atfork.append(on_fork)
                atexit.append(on_exit)

            entries.append((lib, from_cache, ps, vma, on_fork, on_exit))
            stats.libraries_loaded += 1
            process.loaded_libraries[lib.name] = lib
            process.loaded_libraries[lib.install_name] = lib
            queue.extend(d for d in lib.deps if d not in loaded)

        recording.tail_ps = clock.charged_ps - mark
        _register_cache_batches(atfork, atexit, stats.from_cache)
        recording.seal()
        return stats

    def _replay(self, ctx: "UserContext", recording: WalkRecording) -> DyldStats:
        """Repeat a recorded walk.  Where the address space can map all
        of its VMAs at once (:meth:`AddressSpace.map_batch
        <repro.kernel.mm.AddressSpace.map_batch>`: no map can fail), charge
        the recording's summed picoseconds and copy its libraries and
        handler names in, in one step each.  Otherwise, for each library,
        charge what the cold walk charged before its map, then map the
        cold walk's VMA, in the cold order, so the clock reads the same
        at every map, and a map that fails leaves the same state behind.
        Under a fault plan, the points the cold walk checked before each
        map are counted, in its order (no rule can match them, or the
        walk would be cold)."""
        process = ctx.process
        charge_ps = ctx.machine.clock.charge_ps
        loaded = process.loaded_libraries
        state = ctx.lib_state(LIBSYSTEM_STATE)
        atfork = state.setdefault("atfork", [])
        atexit = state.setdefault("atexit", [])
        if process.address_space.map_batch(recording.maps):
            charge_ps(recording.total_ps)
            loaded.update(recording.libraries)
            atfork.extend(recording.atfork)
            atexit.extend(recording.atexit)
            return recording.stats
        map_vma = process.address_space.map_vma
        faults = ctx.machine.faults
        if faults is not None and self.use_shared_cache:
            faults.count("vfs.lookup")  # the cache file's lookup
        for lib, _from_cache, ps, vma, on_fork, on_exit in recording.entries:
            if vma is not None:
                charge_ps(ps)
                if on_fork is not None and faults is not None:
                    faults.count("dyld.load")
                    faults.count("vfs.lookup")
                map_vma(vma)
                if on_fork is not None:
                    atfork.append(on_fork)
                    atexit.append(on_exit)
            loaded[lib.name] = lib
            loaded[lib.install_name] = lib
        charge_ps(recording.tail_ps)
        _register_cache_batches(atfork, atexit, recording.stats.from_cache)
        return recording.stats

    def _replay_closure(
        self, ctx: "UserContext", closure: LaunchClosure
    ) -> DyldStats:
        """Warm exec: the image is already located and its link edits
        prevalidated — validate the closure against the cache generation
        (``dyld_closure_hit``) and replay each entry (map + residual
        fix-up) instead of walking the filesystem per library."""
        machine = ctx.machine
        process = ctx.process
        map_vma = process.address_space.map_vma
        stats = DyldStats()
        stats.closure_hit = True
        machine.charge("dyld_closure_hit")
        state = ctx.lib_state(LIBSYSTEM_STATE)
        atfork = state.setdefault("atfork", [])
        atexit = state.setdefault("atexit", [])
        for lib, from_cache, _ps, vma, on_fork, on_exit in closure.recording.entries:
            if from_cache:
                if vma is not None:
                    # The cache submap must still be mapped per process
                    # (the walk mapped it at its first prelinked image).
                    machine.charge("dyld_shared_cache_map")
                    map_vma(vma)
                    stats.mapped_bytes += vma.size_bytes
                # No per-lib link charge: the closure *is* the
                # prevalidated bind state for prelinked images — the
                # single ``dyld_closure_hit`` validation covered it.
                stats.from_cache += 1
                stats.from_closure += 1
            else:
                machine.charge("dyld_lib_map_per_mb", lib.vm_size_mb)
                machine.charge("dyld_closure_lib_replay")
                map_vma(vma)
                stats.mapped_bytes += vma.size_bytes
                stats.from_closure += 1
                atfork.append(on_fork)
                atexit.append(on_exit)
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
