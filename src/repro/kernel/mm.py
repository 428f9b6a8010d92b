"""Address spaces and memory accounting.

The simulation does not store page contents; it tracks the *structure* of
an address space — the list of mapped regions (VMAs) and their page
counts — because that structure is what the paper's fork measurements
hinge on: an iOS process whose dyld mapped 90 MB across 115 libraries pays
for duplicating every page-table entry on fork (~1 ms of the 3.75 ms
fork+exit time, §6.2), while regions backed by the dyld shared cache are a
shared submap on XNU and are not copied per-process.

A mapping is a value: a :class:`VMA` is never written after it is built,
so a parent and the children it forks, and every process a dyld walk plan
is replayed into, share one VMA object per region.  Everything that
belongs to one process belongs to its :class:`AddressSpace`: the envelope
reservations it holds, the COW pages it has broken, and its running
totals.

Resource accounting: when the machine carries a
:class:`~repro.sim.resources.ResourceEnvelope`, every :meth:`map` /
:meth:`fork_copy` charges the machine-wide RAM budget (shared-cache
regions are charged once, refcounted) and every :meth:`unmap` /
:meth:`unmap_all` releases what the space recorded as held — this is
what lets jetsam and the lowmemorykiller observe real scarcity.
Per-process ``RLIMIT_AS`` is enforced here too.  Both checks cost one
``is None`` test when off and never charge virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from .errno import ENOMEM, SyscallError

if TYPE_CHECKING:
    from ..hw.machine import Machine
    from ..sim.resources import ResourceEnvelope

PAGE_SIZE = 4096


class CowSource:
    """The shared physical pages behind a family of COW mappings.

    Created when :meth:`AddressSpace.fork_copy` runs in COW mode: the
    parent's RAM reservation moves here and both parent and child spaces
    hold a reference — refcounted exactly like shared-cache segments, so
    the underlying bytes are released only when the *last* mapping goes
    (a parent exiting before its child must not free pages the child
    still reads).
    """

    __slots__ = ("size_bytes", "refs", "charged")

    def __init__(self, size_bytes: int, charged: bool) -> None:
        self.size_bytes = size_bytes
        self.refs = 0
        #: True when ``size_bytes`` is held against the RAM budget.
        self.charged = charged


class VMA:
    """One mapped virtual memory region: a value, which nothing may write
    to after it is built.

    Address spaces, their forks and dyld walk plans share VMAs by
    reference, so a VMA holds nothing that belongs to one process: the
    :class:`AddressSpace` that maps it records the reservation and COW
    pages it holds for it.
    """

    __slots__ = ("name", "size_bytes", "writable", "shared_cache", "pages")

    def __init__(
        self,
        name: str,
        size_bytes: int,
        writable: bool = False,
        shared_cache: bool = False,
    ) -> None:
        if size_bytes < 0:
            raise ValueError("negative mapping size")
        self.name = name
        self.size_bytes = size_bytes
        self.writable = writable
        #: Backed by the dyld shared cache: lives in a kernel-shared
        #: submap, so fork does not duplicate its page tables.
        self.shared_cache = shared_cache
        self.pages = (size_bytes + PAGE_SIZE - 1) // PAGE_SIZE

    def __repr__(self) -> str:
        tag = " shared-cache" if self.shared_cache else ""
        return f"<VMA {self.name!r} {self.size_bytes >> 10}KB{tag}>"


class MapBatch:
    """VMAs that map together, in order, with their totals summed once:
    a value, like the VMAs it holds (a dyld walk recording's maps)."""

    __slots__ = ("vmas", "size_bytes", "pages", "fork_pages")

    def __init__(self, vmas: List[VMA]) -> None:
        self.vmas = tuple(vmas)
        self.size_bytes = sum(vma.size_bytes for vma in vmas)
        self.pages = sum(vma.pages for vma in vmas)
        self.fork_pages = sum(vma.pages for vma in vmas if not vma.shared_cache)


class _CowRecord:
    """One space's side of a COW-mapped region: the shared source it
    reads, the page indices it privately re-copied after a write fault
    (each holds one page of RAM), and the bytes those copies charged to
    the RAM budget (released with the mapping)."""

    __slots__ = ("source", "broken", "charged_bytes")

    def __init__(self, source: CowSource) -> None:
        self.source = source
        self.broken: Set[int] = set()
        self.charged_bytes = 0


class AddressSpace:
    """The mappings of one process, and everything it holds for them.

    ``machine`` is optional (tests build bare address spaces); when
    present, :meth:`map` is an ``mm.map`` / ``mm.reserve`` fault-injection
    point so seeded plans can simulate transient allocation failure and
    forced scarcity verdicts (ENOMEM), and the machine's resource
    envelope — when installed — is charged for every mapping.

    VMAs are shared with other spaces, so what this process holds for a
    mapping is recorded here, keyed by the VMA's identity: the mappings
    it holds an envelope reservation for, and one :class:`_CowRecord`
    per COW-mapped region.  Both stay empty unless an envelope is
    installed or a COW fork has happened.  ``total_bytes``,
    ``total_pages`` and ``copied_on_fork_pages`` are running sums over
    the mappings.  Invariant: one VMA object appears at most once in one
    address space.
    """

    __slots__ = (
        "_vmas",
        "_machine",
        "as_limit_bytes",
        "total_bytes",
        "total_pages",
        "copied_on_fork_pages",
        "_reserved",
        "_cow",
    )

    def __init__(self, machine: Optional["Machine"] = None) -> None:
        self._vmas: List[VMA] = []
        self._machine = machine
        #: RLIMIT_AS soft limit in bytes (None = unlimited); kept in sync
        #: by the setrlimit trap.
        self.as_limit_bytes: Optional[int] = None
        self.total_bytes = 0
        self.total_pages = 0
        #: Pages whose PTEs fork must duplicate (shared cache excluded).
        self.copied_on_fork_pages = 0
        self._reserved: Set[VMA] = set()
        self._cow: Dict[VMA, _CowRecord] = {}

    def _envelope(self) -> Optional["ResourceEnvelope"]:
        machine = self._machine
        return machine.resources if machine is not None else None

    def map(
        self,
        name: str,
        size_bytes: int,
        writable: bool = False,
        shared_cache: bool = False,
    ) -> VMA:
        return self.map_vma(VMA(name, size_bytes, writable, shared_cache))

    def map_vma(self, vma: VMA) -> VMA:
        """Map ``vma``, which other spaces may map too (but this one must
        not already)."""
        name = vma.name
        size_bytes = vma.size_bytes
        machine = self._machine
        if machine is not None and machine.faults is not None:
            outcome = machine.faults.check(
                "mm.map", region=name, size_bytes=size_bytes
            )
            if outcome is not None:
                if outcome.kind == "delay":
                    machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
                elif outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        f"fault injected: map {name!r}",
                    )
                else:
                    raise SyscallError(
                        ENOMEM, f"fault injected: map {name!r}"
                    )
            # Forced scarcity verdict: behaves exactly like an exhausted
            # RAM budget, without needing a full envelope.
            outcome = machine.faults.check(
                "mm.reserve", region=name, size_bytes=size_bytes
            )
            if outcome is not None:
                if outcome.kind == "delay":
                    machine.charge_ns(float(outcome.value))  # type: ignore[arg-type]
                elif outcome.kind == "errno":
                    raise SyscallError(
                        int(outcome.value),  # type: ignore[call-overload]
                        f"fault injected: reserve {name!r}",
                    )
                else:
                    raise SyscallError(
                        ENOMEM, f"fault injected: reserve {name!r}"
                    )
        total_bytes = self.total_bytes + size_bytes
        if self.as_limit_bytes is not None and total_bytes > self.as_limit_bytes:
            raise SyscallError(
                ENOMEM, f"RLIMIT_AS: map {name!r} ({size_bytes} bytes)"
            )
        res = self._envelope()
        if res is not None:
            self._reserve(res, vma)
            self._reserved.add(vma)
        self._vmas.append(vma)
        self.total_bytes = total_bytes
        self.total_pages += vma.pages
        if not vma.shared_cache:
            self.copied_on_fork_pages += vma.pages
        return vma

    def map_batch(self, batch: MapBatch) -> bool:
        """Map every VMA of ``batch`` in one step where none of their
        maps can fail: no fault plan, no resource envelope, and
        ``RLIMIT_AS`` unset or covering the space's total plus the
        batch's bytes.  Otherwise map nothing and return False, for the
        caller to map them one by one with :meth:`map_vma`."""
        machine = self._machine
        if machine is not None and (
            machine.faults is not None or machine.resources is not None
        ):
            return False
        total_bytes = self.total_bytes + batch.size_bytes
        if self.as_limit_bytes is not None and total_bytes > self.as_limit_bytes:
            return False
        self._vmas.extend(batch.vmas)
        self.total_bytes = total_bytes
        self.total_pages += batch.pages
        self.copied_on_fork_pages += batch.fork_pages
        return True

    @staticmethod
    def _reserve(res: "ResourceEnvelope", vma: VMA) -> None:
        """Charge one VMA to the envelope, or raise ENOMEM."""
        if vma.shared_cache:
            reserved = res.reserve_shared(vma.name, vma.size_bytes)
        else:
            reserved = res.reserve_ram(vma.size_bytes, owner=vma.name)
        if not reserved:
            raise SyscallError(ENOMEM, f"out of memory: map {vma.name!r}")

    def _release(self, res: Optional["ResourceEnvelope"], vma: VMA) -> None:
        """Drop this space's records for ``vma``, returning to the
        envelope what they hold.

        A COW page source is freed only when the *last* referencing
        mapping goes away — a parent exiting before its child must not
        free pages the child still reads.
        """
        if vma in self._reserved:
            self._reserved.remove(vma)
            if res is not None:
                if vma.shared_cache:
                    res.release_shared(vma.name)
                else:
                    res.release_ram(vma.size_bytes)
        record = self._cow.pop(vma, None)
        if record is None:
            return
        if res is not None and record.charged_bytes:
            res.release_ram(record.charged_bytes)
        source = record.source
        source.refs -= 1
        if source.refs == 0 and source.charged:
            if res is not None:
                res.release_ram(source.size_bytes)
            source.charged = False

    def unmap(self, vma: VMA) -> None:
        self._vmas.remove(vma)
        self.total_bytes -= vma.size_bytes
        self.total_pages -= vma.pages
        if not vma.shared_cache:
            self.copied_on_fork_pages -= vma.pages
        if self._reserved or self._cow:
            self._release(self._envelope(), vma)

    def unmap_all(self) -> None:
        """exec() tears down the old image."""
        if self._reserved or self._cow:
            res = self._envelope()
            for vma in self._vmas:
                self._release(res, vma)
        self._vmas.clear()
        self.total_bytes = self.total_pages = self.copied_on_fork_pages = 0

    def find(self, name: str) -> Optional[VMA]:
        for vma in self._vmas:
            if vma.name == name:
                return vma
        return None

    def fork_copy(self, cow: bool = False) -> "AddressSpace":
        """Duplicate the structure (the copy cost is charged by fork).

        The child maps the parent's VMAs themselves and starts from its
        totals; only the accounting below is per mapping.

        Eager mode (``cow=False``): with a resource envelope installed the
        child's private regions charge the RAM budget (this is why 32 iOS
        personas cost ~2.9 GB in the paper's accounting) and shared-cache
        regions only bump the submap refcount; an exhausted budget makes
        fork fail with ENOMEM, leaving the envelope balanced.

        COW mode (``cow=True``): private regions are not duplicated — the
        parent's reservation moves into a refcounted :class:`CowSource`
        that both sides reference, and the child charges *nothing* at fork
        time.  Each side pays one page of RAM (and ``cow_break_per_page``
        of time) per page it later writes, via :meth:`touch`.  Shared-cache
        regions behave identically in both modes.
        """
        child = AddressSpace(self._machine)
        child.as_limit_bytes = self.as_limit_bytes
        child._vmas = list(self._vmas)
        child.total_bytes = self.total_bytes
        child.total_pages = self.total_pages
        child.copied_on_fork_pages = self.copied_on_fork_pages
        res = self._envelope()
        if not cow and res is None:
            return child
        for index, vma in enumerate(self._vmas):
            if cow and not vma.shared_cache:
                record = self._cow.get(vma)
                if record is None:
                    # First COW fork of this region: the parent's eager
                    # reservation (if any) moves into the shared source.
                    source = CowSource(vma.size_bytes, vma in self._reserved)
                    source.refs = 1
                    self._reserved.discard(vma)
                    record = self._cow[vma] = _CowRecord(source)
                record.source.refs += 1
                child._cow[vma] = _CowRecord(record.source)
            elif res is not None:
                try:
                    self._reserve(res, vma)
                except SyscallError:
                    # Release what the child holds so far: its reservations
                    # and its COW references (each source stays charged,
                    # as the parent still references it).
                    del child._vmas[index:]
                    child.unmap_all()
                    raise SyscallError(
                        ENOMEM, "out of memory: fork address space"
                    ) from None
                child._reserved.add(vma)
        return child

    def touch(self, vma: VMA, page_index: int = 0) -> bool:
        """Simulate the first write to one page of a COW mapping.

        Returns True when the write broke COW for the page (charging one
        page of RAM to the envelope and ``cow_break_per_page`` of virtual
        time); False when the mapping is not COW in this space or the page
        was already broken.  Raises ENOMEM — leaving the envelope
        balanced — when the RAM budget cannot cover the private page copy.
        """
        record = self._cow.get(vma)
        if record is None:
            return False
        if not 0 <= page_index < vma.pages:
            raise ValueError(
                f"page {page_index} out of range for {vma!r}"
            )
        if page_index in record.broken:
            return False
        res = self._envelope()
        if res is not None:
            if not res.reserve_ram(PAGE_SIZE, owner=f"cow:{vma.name}"):
                raise SyscallError(
                    ENOMEM, f"out of memory: COW break {vma.name!r}"
                )
            record.charged_bytes += PAGE_SIZE
        machine = self._machine
        if machine is not None:
            machine.charge("cow_break_per_page")
        record.broken.add(page_index)
        return True

    def touch_range(self, vma: VMA, start_page: int, count: int) -> int:
        """Break COW for ``count`` pages starting at ``start_page``.

        Returns the number of pages newly broken.  A range that leaves a
        COW mapping raises ValueError before any page is broken.  If the
        RAM budget is exhausted mid-range, every page broken *by this
        call* is rolled back (released and un-broken) before the ENOMEM
        propagates, so a failed large write leaves the envelope exactly as
        it found it.
        """
        in_range = 0 <= start_page <= vma.pages - count
        if vma in self._cow and count > 0 and not in_range:
            raise ValueError(f"pages from {start_page} out of range for {vma!r}")
        broken_here: List[int] = []
        try:
            for page in range(start_page, start_page + count):
                if self.touch(vma, page):
                    broken_here.append(page)
        except SyscallError:
            record = self._cow[vma]
            res = self._envelope()
            for page in broken_here:
                record.broken.discard(page)
                if res is not None:
                    res.release_ram(PAGE_SIZE)
                    record.charged_bytes -= PAGE_SIZE
            raise
        return len(broken_here)

    def __iter__(self) -> Iterator[VMA]:
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)

    def summary(self) -> Dict[str, int]:
        return {vma.name: vma.size_bytes for vma in self._vmas}
