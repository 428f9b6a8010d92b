"""The virtual filesystem.

An in-memory ramfs with directories, regular files, and device nodes.
Binaries live in the VFS as regular files carrying a parsed
:class:`~repro.binfmt.BinaryImage` (their nominal size is the image's
on-disk size, so dyld's filesystem walk and PassMark's storage tests see
realistic sizes without storing megabytes of bytes).

Path resolution charges ``path_lookup_component`` per component — this is
what makes the Cider prototype's non-prelinked dyld walk expensive
(paper §6.2: "dyld must walk the filesystem to load each library on every
exec").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..binfmt import BinaryImage
from ..sim.clock import ns_to_ps
from .errno import (
    EEXIST,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    SyscallError,
)

if TYPE_CHECKING:
    from ..hw.machine import Machine


class Inode:
    """Base of all filesystem objects.

    The inode tree is among the hottest object populations in the
    simulator (dyld's per-exec 115-library walk touches hundreds of
    dentries), so every class in the hierarchy declares ``__slots__``.
    """

    kind = "inode"

    __slots__ = ("nlink", "ino")

    def __init__(self) -> None:
        self.nlink = 1
        #: Durable identity on the journal device.  0 (the default) means
        #: untracked: part of the boot image the reboot recipe recreates,
        #: not the journal.  Files created while a journal is enabled get
        #: a sequential non-zero ino.
        self.ino = 0

    @property
    def size_bytes(self) -> int:
        return 0


class Directory(Inode):
    kind = "dir"

    __slots__ = ("entries", "generation")

    def __init__(self) -> None:
        super().__init__()
        self.entries: Dict[str, Inode] = {}
        #: Bumped by every :meth:`link` and :meth:`unlink`, the only
        #: ways the tree changes: a lookup through this directory can
        #: resolve differently only after the generation moved
        #: (``repro.ios.dyld`` validates its walk plans with it).
        self.generation = 0

    def lookup(self, name: str) -> Optional[Inode]:
        return self.entries.get(name)

    def link(self, name: str, inode: Inode) -> None:
        if name in self.entries:
            raise SyscallError(EEXIST, name)
        self.entries[name] = inode
        self.generation += 1

    def unlink(self, name: str) -> Inode:
        try:
            inode = self.entries.pop(name)
        except KeyError:
            raise SyscallError(ENOENT, name) from None
        self.generation += 1
        return inode

    def names(self) -> List[str]:
        return sorted(self.entries)


class RegularFile(Inode):
    kind = "file"

    __slots__ = ("data", "binary_image", "storage_reserved", "shared_cache")

    def __init__(
        self,
        data: bytes = b"",
        binary_image: Optional[BinaryImage] = None,
    ) -> None:
        super().__init__()
        self.data = bytearray(data)
        self.binary_image = binary_image
        #: Bytes this inode holds against the machine's storage budget
        #: (charged by :class:`~repro.kernel.files.RegularHandle` writes,
        #: released on unlink/O_TRUNC).
        self.storage_reserved = 0
        #: The prelinked dyld shared cache carried by the cache file
        #: (set by repro.ios.frameworks.install_shared_cache).
        self.shared_cache = None

    @property
    def size_bytes(self) -> int:
        if self.binary_image is not None:
            return max(len(self.data), self.binary_image.vm_size_bytes)
        return len(self.data)

    @property
    def magic(self) -> bytes:
        if self.binary_image is not None:
            return self.binary_image.magic
        return bytes(self.data[:4])


class DeviceNode(Inode):
    kind = "device"

    __slots__ = ("driver",)

    def __init__(self, driver: object) -> None:
        super().__init__()
        self.driver = driver


class SocketNode(Inode):
    """A bound AF_UNIX socket name."""

    kind = "socket"

    __slots__ = ("listener",)

    def __init__(self, listener: object) -> None:
        super().__init__()
        self.listener = listener


#: Approximate kernel-side size of one dentry-cache entry (bytes) — what
#: the pressure evictor reports as released when the cache is dropped
#: (a Linux ``struct dentry`` is ~192 bytes on 32-bit ARM).
DCACHE_ENTRY_BYTES = 192


class VFS:
    """The mounted filesystem tree plus path resolution."""

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine
        self.root = Directory()
        # Hot-path engine: the per-component cost hoisted out of resolve
        # (one float value + its single-component picosecond form, both
        # resolved once at boot instead of a string lookup per call).
        self._lookup_ns = machine.costs["path_lookup_component"]
        self._lookup_ps = machine.cost_ps("path_lookup_component")
        self._dcache_hit_ps = machine.cost_ps("dcache_hit")
        # Per-depth picosecond table: entry ``n`` is the single rounding
        # of ``n`` components' worth of lookup time — exactly what
        # ``clock.charge(_lookup_ns * n)`` computes, hoisted to boot.
        self._lookup_ps_by_depth = [
            ns_to_ps(self._lookup_ns * n) for n in range(33)
        ]
        # Wall-clock memo: path string -> component tuple.  Purely a
        # parsing cache (no inodes, no virtual-time effect) so it needs
        # no invalidation; bounded to keep pathological workloads honest.
        self._split_cache: Dict[str, tuple] = {}
        #: Linux-dcache ablation (off by default: the default
        #: configuration walks every component, which is what makes the
        #: Cider prototype's dyld walk expensive — paper §6.2).
        self.dcache_enabled = False
        self._dcache: Dict[str, Inode] = {}
        #: (hits, misses) counters for tests and EXPERIMENTS rows.
        self.dcache_hits = 0
        self.dcache_misses = 0

    # -- path plumbing --------------------------------------------------------

    @staticmethod
    def split(path: str) -> List[str]:
        return [part for part in path.split("/") if part and part != "."]

    def _charge_lookup(self, components: int) -> None:
        if components <= 1:
            self._machine.clock.charge_ps(self._lookup_ps)
        elif components < 33:
            # Precomputed single rounding of the product — bit-identical
            # to the historical ``charge(name, n)`` float path.
            self._machine.clock.charge_ps(
                self._lookup_ps_by_depth[components]
            )
        else:
            self._machine.clock.charge(self._lookup_ns * components)

    # -- dentry cache (warm-path ablation) ------------------------------------

    def enable_dcache(self, kernel: Optional[object] = None) -> None:
        """Turn on the Linux-style dentry cache (virtual-time ablation).

        Warm absolute lookups charge one ``dcache_hit`` instead of the
        per-component walk.  When ``kernel`` is given, the cache registers
        a pressure evictor so jetsam can drop it before killing anyone
        (the same registry dyld's shared cache uses, PR 3).
        """
        self.dcache_enabled = True
        if kernel is not None:
            kernel.pressure_evictors.append(self.drop_dcache)

    def drop_dcache(self) -> int:
        """Drop every cached dentry; returns the bytes released."""
        released = len(self._dcache) * DCACHE_ENTRY_BYTES
        self._dcache.clear()
        return released

    def invalidate_dcache(self, path: str) -> None:
        """Remove ``path`` and everything under it from the dcache.

        Called on unlink/rename/rmdir: a positive dentry must never
        outlive its directory entry (no negative entries are cached, so
        creations need no invalidation).
        """
        if not self._dcache:
            return
        key = "/" + "/".join(self.split(path))
        prefix = key + "/"
        stale = [
            cached
            for cached in self._dcache
            if cached == key or cached.startswith(prefix)
        ]
        for cached in stale:
            del self._dcache[cached]

    def resolve(self, path: str, cwd: Optional[Directory] = None) -> Inode:
        """Resolve ``path`` to an inode, charging per component.

        A ``kernel.vfs.lookup`` profiling span when observability is on —
        which is how dyld's 115-library filesystem walk shows up as VFS
        time nested under ``ios.dyld.walk`` in the flame table."""
        machine = self._machine
        obs = machine.obs
        span = None
        if obs is not None:
            span = obs.enter_span("kernel.vfs.lookup", path, None)
        try:
            parts = self._split_cache.get(path)
            if parts is None:
                parts = tuple(
                    part for part in path.split("/") if part and part != "."
                )
                if len(self._split_cache) >= 4096:
                    self._split_cache.clear()
                self._split_cache[path] = parts
            absolute = path.startswith("/") or cwd is None
            cache_key: Optional[str] = None
            if self.dcache_enabled and absolute:
                cache_key = "/" + "/".join(parts)
                node = self._dcache.get(cache_key)
                if node is not None:
                    # Warm path: one hash probe replaces the component walk.
                    self.dcache_hits += 1
                    machine.clock.charge_ps(self._dcache_hit_ps)
                    if machine.faults is not None:
                        self._check_lookup_fault(path)
                    return node
                self.dcache_misses += 1
            self._charge_lookup(len(parts))
            if machine.faults is not None:
                self._check_lookup_fault(path)
            node: Inode = self.root if absolute else cwd
            for part in parts:
                if not isinstance(node, Directory):
                    raise SyscallError(ENOTDIR, path)
                child = node.entries.get(part)
                if child is None:
                    raise SyscallError(ENOENT, path)
                node = child
            if cache_key is not None:
                self._dcache[cache_key] = node
            return node
        finally:
            if span is not None:
                obs.exit_span(span)

    def dirs_read(self, path: str) -> List[Directory]:
        """The directories an absolute lookup of ``path`` reads, root
        first, up to the one holding (or missing) its last component.
        Charges nothing."""
        directory = self.root
        dirs = [directory]
        for part in self.split(path)[:-1]:
            child = directory.entries.get(part)
            if not isinstance(child, Directory):
                break
            directory = child
            dirs.append(directory)
        return dirs

    def _check_lookup_fault(self, path: str) -> None:
        if self._machine.faults is None:
            return
        outcome = self._machine.faults.check("vfs.lookup", path=path)
        if outcome is not None:
            if outcome.kind == "delay":
                self._machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
            elif outcome.kind == "errno":
                raise SyscallError(
                    int(outcome.value),  # type: ignore[call-overload]
                    f"fault injected: lookup {path!r}",
                )
            else:  # kern/signal degrade to transient EIO here
                from .errno import EIO

                raise SyscallError(EIO, f"fault injected: lookup {path!r}")

    def resolve_parent(
        self, path: str, cwd: Optional[Directory] = None
    ) -> Tuple[Directory, str]:
        """Resolve all but the last component; return (dir, last_name)."""
        parts = self.split(path)
        if not parts:
            raise SyscallError(ENOENT, path)
        self._charge_lookup(len(parts))
        node: Inode = self.root if path.startswith("/") or cwd is None else cwd
        for part in parts[:-1]:
            if not isinstance(node, Directory):
                raise SyscallError(ENOTDIR, path)
            child = node.lookup(part)
            if child is None:
                raise SyscallError(ENOENT, path)
            node = child
        if not isinstance(node, Directory):
            raise SyscallError(ENOTDIR, path)
        return node, parts[-1]

    def exists(self, path: str, cwd: Optional[Directory] = None) -> bool:
        try:
            self.resolve(path, cwd)
            return True
        except SyscallError:
            return False

    # -- namespace operations ---------------------------------------------------

    def _journal(self, path: str, cwd: Optional[Directory]):
        """The journal device if this operation should be journalled:
        a journal is enabled, we are not inside its own replay, and the
        path is canonicalisable (absolute, or resolved against the root).
        One attribute load + bool tests — charges nothing."""
        journal = self._machine.storage.journal
        if journal is None or journal.replaying:
            return None
        if not (path.startswith("/") or cwd is None):
            return None
        return journal

    def _canon(self, path: str) -> str:
        return "/" + "/".join(self.split(path))

    def mkdir(self, path: str, cwd: Optional[Directory] = None) -> Directory:
        parent, name = self.resolve_parent(path, cwd)
        directory = Directory()
        parent.link(name, directory)
        journal = self._journal(path, cwd)
        if journal is not None:
            journal.log_mkdir(self._canon(path))
        return directory

    def makedirs(self, path: str) -> Directory:
        """mkdir -p."""
        journal = self._journal(path, None)
        node: Inode = self.root
        prefix: List[str] = []
        for part in self.split(path):
            if not isinstance(node, Directory):
                raise SyscallError(ENOTDIR, path)
            prefix.append(part)
            child = node.lookup(part)
            if child is None:
                child = Directory()
                node.link(part, child)
                if journal is not None:
                    journal.log_mkdir("/" + "/".join(prefix))
            node = child
        if not isinstance(node, Directory):
            raise SyscallError(ENOTDIR, path)
        return node

    def create_file(
        self,
        path: str,
        data: bytes = b"",
        binary_image: Optional[BinaryImage] = None,
        cwd: Optional[Directory] = None,
        exist_ok: bool = False,
    ) -> RegularFile:
        parent, name = self.resolve_parent(path, cwd)
        existing = parent.lookup(name)
        if existing is not None:
            if exist_ok and isinstance(existing, RegularFile):
                return existing
            raise SyscallError(EEXIST, path)
        self._machine.charge("file_create")
        inode = RegularFile(data, binary_image)
        parent.link(name, inode)
        journal = self._journal(path, cwd)
        if journal is not None:
            journal.log_create(self._canon(path), inode)
        return inode

    def add_device(self, path: str, driver: object) -> DeviceNode:
        parent, name = self.resolve_parent(path, None)
        node = DeviceNode(driver)
        parent.link(name, node)
        return node

    def bind_socket(self, path: str, listener: object) -> SocketNode:
        parent, name = self.resolve_parent(path, None)
        node = SocketNode(listener)
        parent.link(name, node)
        return node

    def unlink(self, path: str, cwd: Optional[Directory] = None) -> None:
        parent, name = self.resolve_parent(path, cwd)
        target = parent.lookup(name)
        if target is None:
            raise SyscallError(ENOENT, path)
        if isinstance(target, Directory):
            raise SyscallError(EISDIR, path)
        self._machine.charge("file_unlink")
        parent.unlink(name)
        if self.dcache_enabled:
            self.invalidate_dcache(path)
        journal = self._journal(path, cwd)
        if journal is not None:
            journal.log_unlink(self._canon(path), target)
        reserved = getattr(target, "storage_reserved", 0)
        if reserved:
            res = self._machine.resources
            if res is not None:
                res.release_storage(reserved)
            target.storage_reserved = 0  # type: ignore[attr-defined]

    def rmdir(self, path: str, cwd: Optional[Directory] = None) -> None:
        parent, name = self.resolve_parent(path, cwd)
        target = parent.lookup(name)
        if target is None:
            raise SyscallError(ENOENT, path)
        if not isinstance(target, Directory):
            raise SyscallError(ENOTDIR, path)
        if target.entries:
            raise SyscallError(ENOTEMPTY, path)
        parent.unlink(name)
        if self.dcache_enabled:
            self.invalidate_dcache(path)
        journal = self._journal(path, cwd)
        if journal is not None:
            journal.log_rmdir(self._canon(path))

    def rename(
        self,
        old_path: str,
        new_path: str,
        cwd: Optional[Directory] = None,
    ) -> None:
        """rename(2): atomically move ``old_path`` to ``new_path``.

        Replaces an existing non-directory target (releasing its storage
        reservation, like unlink).  Both names — and anything cached
        underneath either of them — drop out of the dcache.
        """
        old_parent, old_name = self.resolve_parent(old_path, cwd)
        source = old_parent.lookup(old_name)
        if source is None:
            raise SyscallError(ENOENT, old_path)
        new_parent, new_name = self.resolve_parent(new_path, cwd)
        existing = new_parent.lookup(new_name)
        if existing is not None:
            if isinstance(existing, Directory):
                if not isinstance(source, Directory):
                    raise SyscallError(EISDIR, new_path)
                if existing.entries:
                    raise SyscallError(ENOTEMPTY, new_path)
            elif isinstance(source, Directory):
                raise SyscallError(ENOTDIR, new_path)
            new_parent.unlink(new_name)
            reserved = getattr(existing, "storage_reserved", 0)
            if reserved:
                res = self._machine.resources
                if res is not None:
                    res.release_storage(reserved)
                existing.storage_reserved = 0  # type: ignore[attr-defined]
        self._machine.charge("file_unlink")
        old_parent.unlink(old_name)
        new_parent.link(new_name, source)
        if self.dcache_enabled:
            self.invalidate_dcache(old_path)
            self.invalidate_dcache(new_path)
        journal = self._journal(old_path, cwd)
        if journal is not None and (new_path.startswith("/") or cwd is None):
            journal.log_rename(
                self._canon(old_path), self._canon(new_path),
                replaced=existing,
            )

    def listdir(self, path: str, cwd: Optional[Directory] = None) -> List[str]:
        node = self.resolve(path, cwd)
        if not isinstance(node, Directory):
            raise SyscallError(ENOTDIR, path)
        return node.names()

    def install_binary(self, path: str, image: BinaryImage) -> RegularFile:
        """Place an executable/dylib into the tree, creating directories.
        Installing over an existing path replaces its image (a copy)."""
        parts = self.split(path)
        if len(parts) > 1:
            self.makedirs("/" + "/".join(parts[:-1]))
        node = self.create_file(path, binary_image=image, exist_ok=True)
        node.binary_image = image
        return node

    def walk(self, path: str = "/") -> List[str]:
        """All file paths under ``path`` (for tests and the installer)."""
        result: List[str] = []

        def _walk(node: Inode, prefix: str) -> None:
            if isinstance(node, Directory):
                for name in node.names():
                    _walk(node.entries[name], f"{prefix}/{name}")
            else:
                result.append(prefix or "/")

        start = self.resolve(path)
        _walk(start, "" if path == "/" else path.rstrip("/"))
        return result
