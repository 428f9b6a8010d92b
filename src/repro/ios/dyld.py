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
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..binfmt import BinaryImage
from ..kernel.errno import ENOENT, SyscallError
from ..kernel.vfs import RegularFile

if TYPE_CHECKING:
    from ..kernel.process import UserContext

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

    __slots__ = ("image", "generation", "entries", "cache_total_bytes")

    def __init__(
        self,
        image: BinaryImage,
        generation: int,
        entries: List,
        cache_total_bytes: int,
    ) -> None:
        self.image = image
        self.generation = generation
        #: Ordered ``(lib_image, from_cache)`` pairs.
        self.entries = entries
        self.cache_total_bytes = cache_total_bytes


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
        #: Shared-cache generation: closures prebuilt against an older
        #: generation fail validation and are rebuilt.
        self.cache_generation = 0
        self._closures: Dict[str, LaunchClosure] = {}

    def invalidate_closures(self) -> None:
        """Drop every prebuilt closure and move the cache generation on
        (called when the shared cache is evicted under pressure)."""
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
        machine = ctx.machine
        process = ctx.process
        if self.use_closures:
            closure = self._closures.get(image.name)
            if (
                closure is not None
                and closure.generation == self.cache_generation
                and closure.image is image
            ):
                return self._replay_closure(ctx, closure)
        stats = DyldStats()
        cache = self._resolve_cache(ctx)
        cache_mapped = False

        loaded: Set[str] = set()
        queue: List[str] = list(image.deps)
        state = ctx.lib_state(LIBSYSTEM_STATE)
        atfork = state.setdefault("atfork", [])
        atexit = state.setdefault("atexit", [])
        cache_images = 0
        closure_entries: List = []

        while queue:
            dep = queue.pop(0)
            if dep in loaded:
                continue
            loaded.add(dep)

            if cache is not None and cache.contains(dep):
                if not cache_mapped:
                    # Map the entire prelinked cache once, as a shared
                    # submap fork will not copy.
                    machine.charge("dyld_shared_cache_map")
                    process.address_space.map(
                        SHARED_CACHE_VMA,
                        cache.total_bytes,
                        shared_cache=True,
                    )
                    stats.mapped_bytes += cache.total_bytes
                    cache_mapped = True
                    if not self._evictor_registered:
                        self._evictor_registered = True
                        ctx.kernel.pressure_evictors.append(
                            partial(evict_shared_cache, ctx.kernel)
                        )
                lib = cache.get(dep)
                # Prelinked: binding work is already done in the cache.
                machine.charge("dyld_link_per_lib", 0.25)
                stats.from_cache += 1
                cache_images += 1
                closure_entries.append((lib, True))
            else:
                lib = self._walk_filesystem(ctx, dep)
                machine.charge("dyld_lib_map_per_mb", lib.vm_size_mb)
                machine.charge("dyld_link_per_lib")
                process.address_space.map(f"dylib:{lib.name}", lib.vm_size_bytes)
                stats.mapped_bytes += lib.vm_size_bytes
                stats.walked_filesystem += 1
                # Every individually loaded image registers fork and exit
                # callbacks.
                atfork.append(f"atfork:{lib.name}")
                atexit.append(f"atexit:{lib.name}")
                closure_entries.append((lib, False))

            stats.libraries_loaded += 1
            process.loaded_libraries[lib.name] = lib
            process.loaded_libraries[lib.install_name] = lib
            queue.extend(d for d in lib.deps if d not in loaded)

        # Batched handler registration for the prelinked images.
        for batch in range(0, cache_images, CACHE_HANDLER_BATCH):
            atfork.append(f"atfork:cache-batch-{batch}")
            atexit.append(f"atexit:cache-batch-{batch}")
        if self.use_closures:
            self._closures[image.name] = LaunchClosure(
                image,
                self.cache_generation,
                closure_entries,
                cache.total_bytes if cache is not None else 0,
            )
        return stats

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
        cache_images = 0
        for lib, from_cache in closure.entries:
            if from_cache:
                if not cache_mapped:
                    # The cache submap must still be mapped per process.
                    machine.charge("dyld_shared_cache_map")
                    process.address_space.map(
                        SHARED_CACHE_VMA,
                        closure.cache_total_bytes,
                        shared_cache=True,
                    )
                    stats.mapped_bytes += closure.cache_total_bytes
                    cache_mapped = True
                # No per-lib link charge: the closure *is* the
                # prevalidated bind state for prelinked images — the
                # single ``dyld_closure_hit`` validation covered it.
                stats.from_cache += 1
                stats.from_closure += 1
                cache_images += 1
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
        for batch in range(0, cache_images, CACHE_HANDLER_BATCH):
            atfork.append(f"atfork:cache-batch-{batch}")
            atexit.append(f"atexit:cache-batch-{batch}")
        return stats

    def _walk_filesystem(self, ctx: "UserContext", install_name: str) -> BinaryImage:
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
    ) -> BinaryImage:
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
        return node.binary_image
