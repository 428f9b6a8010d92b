"""Property-based tests (hypothesis) on core data structures and
invariants."""

from itertools import count
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.android.dalvik import DalvikVM, _wrap32, assemble
from repro.compat.signals import SignalTranslator
from repro.hw.display import CELL_H_PX, CELL_W_PX, PixelBuffer
from repro.hw.profiles import nexus7
from repro.kernel.errno import ENOMEM, SyscallError
from repro.kernel.files import FDTable, OpenFile
from repro.kernel.mm import PAGE_SIZE, AddressSpace
from repro.kernel.vfs import VFS
from repro.sim import PSEC_PER_NSEC, CostModel, ResourceEnvelope, VirtualClock
from repro.xnu.ipc import IPCSpace, RIGHT_RECEIVE, RIGHT_SEND


# -- virtual clock --------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e9), max_size=50))
def test_clock_charges_accumulate_exactly(charges):
    # The clock quantises each charge once, to the picosecond, and then
    # accumulates in exact integer arithmetic: totals are the integer sum
    # of the per-charge roundings, independent of charge order/platform.
    clock = VirtualClock()
    for ns in charges:
        clock.charge(ns)
    assert clock.now_ps == sum(round(ns * PSEC_PER_NSEC) for ns in charges)
    assert clock.charged_ps == clock.now_ps
    assert clock.charged_ns == clock.now_ns


@given(
    st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=20)
)
def test_clock_monotonic(charges):
    clock = VirtualClock()
    previous = 0.0
    for ns in charges:
        clock.charge(ns)
        assert clock.now_ns >= previous
        previous = clock.now_ns


# -- cost model --------------------------------------------------------------------


@given(st.floats(min_value=0.1, max_value=100))
def test_scaled_model_scales_only_listed_costs(factor):
    base = CostModel()
    scaled = base.scaled("s", factor, "op_int_mul")
    assert scaled["op_int_mul"] == base["op_int_mul"] * factor
    assert scaled["op_int_div"] == base["op_int_div"]


# -- signal translation ----------------------------------------------------------------


@given(st.integers(min_value=1, max_value=31))
def test_signal_translation_round_trips(signum):
    translator = SignalTranslator()
    assert translator.to_linux(translator.to_xnu(signum)) == signum
    assert translator.to_xnu(translator.to_linux(signum)) == signum


@given(st.sets(st.integers(min_value=1, max_value=31), min_size=2))
def test_signal_translation_is_injective(signums):
    translator = SignalTranslator()
    mapped = {translator.to_xnu(s) for s in signums}
    assert len(mapped) == len(signums)


# -- VFS paths ---------------------------------------------------------------------------

_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1,
    max_size=8,
)


@given(st.lists(_name, min_size=1, max_size=5, unique=True))
def test_vfs_create_resolve_roundtrip(parts):
    vfs = VFS(nexus7().boot())
    path = "/" + "/".join(parts)
    vfs.makedirs(path)
    assert vfs.exists(path)
    file_path = path + "/leaf"
    vfs.create_file(file_path, data=b"x")
    assert vfs.resolve(file_path).size_bytes == 1
    assert file_path in vfs.walk("/")


@given(st.lists(_name, min_size=1, max_size=6))
def test_vfs_split_never_produces_empty_components(parts):
    raw = "//".join(parts) + "///"
    for component in VFS.split(raw):
        assert component
        assert component != "."


# -- address space ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(_name, st.integers(min_value=0, max_value=10 * PAGE_SIZE)),
        max_size=20,
    )
)
def test_address_space_page_accounting(mappings):
    space = AddressSpace()
    for name, size in mappings:
        space.map(name, size)
    expected_pages = sum(
        (size + PAGE_SIZE - 1) // PAGE_SIZE for _name, size in mappings
    )
    assert space.total_pages == expected_pages
    child = space.fork_copy()
    assert child.total_pages == expected_pages


# The parent commit's ``CowSource``, ``VMA`` and ``AddressSpace``, verbatim
# but for their names: the reference model that ``AddressSpace`` must match
# step for step.  Each reference space owns private VMA objects, so a
# mapping's accounting can never leak between spaces here.


class _RefCowSource:
    """The shared physical pages behind a family of COW mappings.

    Created when :meth:`_RefAddressSpace.fork_copy` runs in COW mode: the
    parent's RAM reservation moves here and both parent and child VMAs
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


class _RefVMA:
    """One mapped virtual memory region.

    ``__slots__``: dyld creates ~115 of these per Mach-O exec and fork
    duplicates all of them — the hottest allocation after trace events.
    """

    __slots__ = (
        "name",
        "size_bytes",
        "writable",
        "shared_cache",
        "charged",
        "shared_key",
        "cow_source",
        "cow_broken",
        "cow_charged_bytes",
    )

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
        #: Resource-envelope bookkeeping: True when these bytes were
        #: charged to the machine RAM budget; for shared-cache regions the
        #: refcounted reservation key instead.
        self.charged = False
        self.shared_key: Optional[str] = None
        #: COW: the shared page source this mapping references (None for
        #: eagerly copied/private regions) and the page indices privately
        #: re-copied after a write fault (each holds one page of RAM).
        self.cow_source: Optional[_RefCowSource] = None
        self.cow_broken: Optional[set] = None
        #: Bytes charged to the RAM budget by COW breaks on this mapping
        #: (one page per break); released with the mapping.
        self.cow_charged_bytes = 0

    @property
    def pages(self) -> int:
        return (self.size_bytes + PAGE_SIZE - 1) // PAGE_SIZE

    @property
    def cow_broken_bytes(self) -> int:
        """Bytes privately held by COW-broken pages of this mapping."""
        return len(self.cow_broken) * PAGE_SIZE if self.cow_broken else 0

    def __repr__(self) -> str:
        tag = " shared-cache" if self.shared_cache else ""
        if self.cow_source is not None:
            tag += f" cow({len(self.cow_broken or ())} broken)"
        return f"<_RefVMA {self.name!r} {self.size_bytes >> 10}KB{tag}>"


class _RefAddressSpace:
    """The set of VMAs belonging to one process.

    ``machine`` is optional (tests build bare address spaces); when
    present, :meth:`map` is an ``mm.map`` / ``mm.reserve`` fault-injection
    point so seeded plans can simulate transient allocation failure and
    forced scarcity verdicts (ENOMEM), and the machine's resource
    envelope — when installed — is charged for every mapping.
    """

    def __init__(self, machine: Optional["Machine"] = None) -> None:
        self._vmas: List[_RefVMA] = []
        self._machine = machine
        #: RLIMIT_AS soft limit in bytes (None = unlimited); kept in sync
        #: by the setrlimit trap.
        self.as_limit_bytes: Optional[int] = None

    def _envelope(self) -> Optional["ResourceEnvelope"]:
        machine = self._machine
        return machine.resources if machine is not None else None

    def map(
        self,
        name: str,
        size_bytes: int,
        writable: bool = False,
        shared_cache: bool = False,
    ) -> _RefVMA:
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
        if (
            self.as_limit_bytes is not None
            and self.total_bytes + size_bytes > self.as_limit_bytes
        ):
            raise SyscallError(
                ENOMEM, f"RLIMIT_AS: map {name!r} ({size_bytes} bytes)"
            )
        vma = _RefVMA(name, size_bytes, writable, shared_cache)
        res = self._envelope()
        if res is not None:
            self._reserve(res, vma)
        self._vmas.append(vma)
        return vma

    @staticmethod
    def _reserve(res: "ResourceEnvelope", vma: _RefVMA) -> None:
        """Charge one _RefVMA to the envelope, or raise ENOMEM."""
        if vma.shared_cache:
            if not res.reserve_shared(vma.name, vma.size_bytes):
                raise SyscallError(
                    ENOMEM, f"out of memory: map {vma.name!r}"
                )
            vma.shared_key = vma.name
        else:
            if not res.reserve_ram(vma.size_bytes, owner=vma.name):
                raise SyscallError(
                    ENOMEM, f"out of memory: map {vma.name!r}"
                )
            vma.charged = True

    @staticmethod
    def _release(res: "ResourceEnvelope", vma: _RefVMA) -> None:
        if vma.shared_key is not None:
            res.release_shared(vma.shared_key)
            vma.shared_key = None
        elif vma.charged:
            res.release_ram(vma.size_bytes)
            vma.charged = False
        if vma.cow_charged_bytes:
            res.release_ram(vma.cow_charged_bytes)
            vma.cow_charged_bytes = 0

    @staticmethod
    def _drop_cow_ref(res: Optional["ResourceEnvelope"], vma: _RefVMA) -> None:
        """Release this mapping's reference on its COW page source.

        The source's reservation is freed only when the *last* referencing
        mapping goes away — a parent exiting before its child must not free
        pages the child still reads.
        """
        source = vma.cow_source
        if source is None:
            return
        vma.cow_source = None
        source.refs -= 1
        if source.refs == 0 and source.charged:
            if res is not None:
                res.release_ram(source.size_bytes)
            source.charged = False

    def unmap(self, vma: _RefVMA) -> None:
        self._vmas.remove(vma)
        res = self._envelope()
        if res is not None:
            self._release(res, vma)
        self._drop_cow_ref(res, vma)

    def unmap_all(self) -> None:
        """exec() tears down the old image."""
        res = self._envelope()
        for vma in self._vmas:
            if res is not None:
                self._release(res, vma)
            self._drop_cow_ref(res, vma)
        self._vmas.clear()

    def find(self, name: str) -> Optional[_RefVMA]:
        for vma in self._vmas:
            if vma.name == name:
                return vma
        return None

    @property
    def total_bytes(self) -> int:
        return sum(vma.size_bytes for vma in self._vmas)

    @property
    def total_pages(self) -> int:
        return sum(vma.pages for vma in self._vmas)

    @property
    def copied_on_fork_pages(self) -> int:
        """Pages whose PTEs fork must duplicate (shared cache excluded)."""
        return sum(vma.pages for vma in self._vmas if not vma.shared_cache)

    def fork_copy(self, cow: bool = False) -> "_RefAddressSpace":
        """Duplicate the structure (the copy cost is charged by fork).

        Eager mode (``cow=False``): with a resource envelope installed the
        child's private regions charge the RAM budget (this is why 32 iOS
        personas cost ~2.9 GB in the paper's accounting) and shared-cache
        regions only bump the submap refcount; an exhausted budget makes
        fork fail with ENOMEM, leaving the envelope balanced.

        COW mode (``cow=True``): private regions are not duplicated — the
        parent's reservation moves into a refcounted :class:`_RefCowSource`
        that both sides reference, and the child charges *nothing* at fork
        time.  Each side pays one page of RAM (and ``cow_break_per_page``
        of time) per page it later writes, via :meth:`touch`.  Shared-cache
        regions behave identically in both modes.
        """
        child = _RefAddressSpace(self._machine)
        child.as_limit_bytes = self.as_limit_bytes
        res = self._envelope()
        copied: List[_RefVMA] = []
        for v in self._vmas:
            nv = _RefVMA(v.name, v.size_bytes, v.writable, v.shared_cache)
            if cow and not v.shared_cache:
                source = v.cow_source
                if source is None:
                    # First COW fork of this region: the parent's eager
                    # reservation (if any) moves into the shared source.
                    source = _RefCowSource(v.size_bytes, charged=v.charged)
                    source.refs = 1
                    v.cow_source = source
                    v.charged = False
                    if v.cow_broken is None:
                        v.cow_broken = set()
                source.refs += 1
                nv.cow_source = source
                nv.cow_broken = set()
            elif res is not None:
                try:
                    self._reserve(res, nv)
                except SyscallError:
                    for done in copied:
                        if done.cow_source is not None:
                            # Undo the refcount bump; the source stays
                            # charged (the parent still references it).
                            done.cow_source.refs -= 1
                        else:
                            self._release(res, done)
                    raise SyscallError(
                        ENOMEM, "out of memory: fork address space"
                    ) from None
            copied.append(nv)
        child._vmas = copied
        return child

    def touch(self, vma: _RefVMA, page_index: int = 0) -> bool:
        """Simulate the first write to one page of a COW mapping.

        Returns True when the write broke COW for the page (charging one
        page of RAM to the envelope and ``cow_break_per_page`` of virtual
        time); False when the mapping is not COW or the page was already
        broken.  Raises ENOMEM — leaving the envelope balanced — when the
        RAM budget cannot cover the private page copy.
        """
        if vma.cow_source is None or vma.cow_broken is None:
            return False
        if not 0 <= page_index < vma.pages:
            raise ValueError(
                f"page {page_index} out of range for {vma!r}"
            )
        if page_index in vma.cow_broken:
            return False
        res = self._envelope()
        if res is not None:
            if not res.reserve_ram(PAGE_SIZE, owner=f"cow:{vma.name}"):
                raise SyscallError(
                    ENOMEM, f"out of memory: COW break {vma.name!r}"
                )
            vma.cow_charged_bytes += PAGE_SIZE
        machine = self._machine
        if machine is not None:
            machine.charge("cow_break_per_page")
        vma.cow_broken.add(page_index)
        return True

    def touch_range(self, vma: _RefVMA, start_page: int, count: int) -> int:
        """Break COW for ``count`` pages starting at ``start_page``.

        Returns the number of pages newly broken.  A range that leaves a
        COW mapping raises ValueError before any page is broken.  If the
        RAM budget is exhausted mid-range, every page broken *by this
        call* is rolled back (released and un-broken) before the ENOMEM
        propagates, so a failed large write leaves the envelope exactly as
        it found it.
        """
        cow = vma.cow_source is not None and vma.cow_broken is not None
        if cow and count > 0 and not 0 <= start_page <= vma.pages - count:
            raise ValueError(f"pages from {start_page} out of range for {vma!r}")
        broken_here: List[int] = []
        res = self._envelope()
        try:
            for page in range(start_page, start_page + count):
                if self.touch(vma, page):
                    broken_here.append(page)
        except SyscallError:
            for page in broken_here:
                vma.cow_broken.discard(page)  # type: ignore[union-attr]
                if res is not None:
                    res.release_ram(PAGE_SIZE)
                    vma.cow_charged_bytes -= PAGE_SIZE
            raise
        return len(broken_here)

    def __iter__(self) -> Iterator[_RefVMA]:
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)

    def summary(self) -> Dict[str, int]:
        return {vma.name: vma.size_bytes for vma in self._vmas}


_REGIONS = ("heap", "stack", "dylib:UIKit", "dyld_shared_cache", "tex")
#: Private, writable and shared-cache mappings.
_MAP_KINDS = ({}, {"writable": True}, {"shared_cache": True})
#: Each operation, as often as it is drawn: maps and writes outnumber
#: unmaps, so that spaces fill up, fork and break COW pages.
_MM_OPS = (
    ("map",) * 5
    + ("fork_copy",) * 3
    + ("touch",) * 5
    + ("touch_range",) * 2
    + ("unmap", "unmap_all")
)


def _mm_ops(names):
    """One operation: ``(name, space, pick, number, count)``.

    The space is picked modulo the number of spaces; small indices keep
    most operations on the first spaces and their first forks, so that
    forks of forks happen.  ``pick`` picks a map's region and kind, a
    fork's mode, or a mapping modulo the space's mappings.  ``number`` is
    a map's size, from 0 to past the budget, or a page of the picked
    mapping, from one below it to one past its end.  ``count`` is the
    length of a ``touch_range``.
    """
    return st.tuples(
        st.sampled_from(names),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=3 << 20),
        st.integers(min_value=-1, max_value=300),
    )


#: A program: the RAM budget in MB (None: no envelope), each first
#: space's RLIMIT_AS (None: unlimited), a few maps to start from, then
#: any operations.
_mm_program = st.tuples(
    st.sampled_from((None, 1, 2)),
    st.lists(
        st.one_of(
            st.none(), st.none(), st.integers(min_value=0, max_value=4 << 20)
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(_mm_ops(("map",)), min_size=1, max_size=6),
    st.lists(_mm_ops(_MM_OPS), min_size=10, max_size=40),
)


def _vma_view(vma):
    return (vma.name, vma.size_bytes, vma.writable, vma.shared_cache, vma.pages)


class _MMRun:
    """One implementation of the address-space API on its own booted
    machine, driven by a generated program."""

    def __init__(self, space_class, ram_mb, as_limits):
        self.machine = nexus7().boot()
        if ram_mb is not None:
            self.machine.install_resources(ResourceEnvelope(ram_mb=ram_mb))
        self.spaces = []
        for limit in as_limits:
            space = space_class(self.machine)
            space.as_limit_bytes = limit
            self.spaces.append(space)

    def step(self, op):
        """Run one operation: its result (or errno or exception type)
        and the picoseconds it charged."""
        clock = self.machine.clock
        before = clock.charged_ps
        try:
            result = self._apply(*op)
        except SyscallError as err:
            result = ("errno", err.errno)
        except ValueError:
            result = ("ValueError",)
        return result, clock.charged_ps - before

    def _apply(self, name, which, pick, number, count):
        space = self.spaces[which % len(self.spaces)]
        if name == "map":
            region = _REGIONS[pick % len(_REGIONS)]
            kind = _MAP_KINDS[pick % len(_MAP_KINDS)]
            return _vma_view(space.map(region, number, **kind))
        if name == "unmap_all":
            return space.unmap_all()
        if name == "fork_copy":
            self.spaces.append(space.fork_copy(cow=bool(pick % 2)))
            return len(self.spaces)
        vmas = list(space)
        if not vmas:
            return "empty"
        vma = vmas[pick % len(vmas)]
        if name == "unmap":
            return space.unmap(vma)
        page = number % (vma.pages + 2) - 1
        if name == "touch":
            return space.touch(vma, page)
        return space.touch_range(vma, page, count)

    def observe(self):
        res = self.machine.resources
        envelope = None
        if res is not None:
            shared = tuple(res.shared_refs(region) for region in _REGIONS)
            envelope = (res.ram_used, shared)
        spaces = [
            (
                space.summary(),
                len(space),
                space.total_bytes,
                space.total_pages,
                space.copied_on_fork_pages,
                [_vma_view(vma) for vma in space],
            )
            for space in self.spaces
        ]
        return envelope, spaces


#: An eager fork, then a COW fork of the parent: the eager child's heap
#: must not turn COW with the parent's.
_EAGER_THEN_COW_FORK = (
    None,
    [None],
    [("map", 0, 0, 2 * PAGE_SIZE, 0)],
    [("fork_copy", 0, 0, 0, 0), ("fork_copy", 0, 1, 0, 0)],
)


@settings(max_examples=150, deadline=None)
@given(_mm_program)
@example(_EAGER_THEN_COW_FORK)
def test_address_space_matches_reference_model(program):
    """Programs of maps, unmaps, eager and COW forks (of forks too) and
    COW writes over up to four spaces, with no envelope or one small
    enough to run out: after every step the address space and the
    reference model agree on its result, its charge, the envelope's
    RAM and shared-cache refcounts, and every space's contents and
    totals.

    Only a write shows whether a mapping is COW in a space, so a program
    ends by writing to every mapping of every space twice over.  First
    one page past its end, which raises ValueError exactly when the
    mapping is COW there and changes nothing.  Then page 0, which two
    spaces each break only if neither sees the other's broken pages."""
    ram_mb, as_limits, maps, ops = program
    real = _MMRun(AddressSpace, ram_mb, as_limits)
    model = _MMRun(_RefAddressSpace, ram_mb, as_limits)
    for op in maps + ops:
        assert real.step(op) == model.step(op), op
        assert real.observe() == model.observe(), op
    for past_end in (True, False):
        for which, space in enumerate(real.spaces):
            for index, vma in enumerate(space):
                # ``number`` picks page ``number % (pages + 2) - 1``.
                number = vma.pages + 1 if past_end else 1
                op = ("touch", which, index, number, None)
                assert real.step(op) == model.step(op), op
    assert real.observe() == model.observe()


# -- descriptor tables ------------------------------------------------------------------------

_table = st.integers(min_value=0, max_value=3)
_pick = st.integers(min_value=0, max_value=63)
_fd_program = st.lists(
    st.one_of(
        st.tuples(st.just("open"), _table),
        st.tuples(st.just("close"), _table, _pick),
        st.tuples(st.just("dup"), _table, _pick),
        st.tuples(
            st.just("dup2"), _table, _pick, st.integers(min_value=0, max_value=40)
        ),
        st.tuples(st.just("fork"), _table),
    ),
    max_size=120,
)


def _lowest_free(model):
    return next(fd for fd in count() if fd not in model)


@given(_fd_program)
def test_fd_allocation_matches_scan_from_zero(program):
    """open/close/dup/dup2/fork programs get the fd numbers a reference
    table that scans from 0 on every allocation hands out."""
    tables = [FDTable()]
    models = [{}]
    for op, which, *args in program:
        table = tables[which % len(tables)]
        model = models[which % len(tables)]
        if op == "fork":
            tables.append(table.fork_copy())
            models.append(dict(model))
        elif op == "open":
            expected = _lowest_free(model)
            model[expected] = OpenFile(None)
            assert table.install(model[expected]) == expected
        elif model:
            fd = sorted(model)[args[0] % len(model)]
            if op == "close":
                table.close(fd)
                del model[fd]
            elif op == "dup":
                expected = _lowest_free(model)
                assert table.dup(fd) == expected
                model[expected] = model[fd]
            else:
                newfd = args[1]
                assert table.dup2(fd, newfd) == newfd
                model[newfd] = model[fd]
    for table, model in zip(tables, models):
        assert table.open_fds() == sorted(model)
        assert all(table.get(fd) is model[fd] for fd in model)


# -- Mach IPC name spaces -------------------------------------------------------------------


class _FakeXNU:
    def lck_mtx_alloc(self, name="m"):
        return object()


@given(st.integers(min_value=1, max_value=40))
def test_ipc_names_unique_and_stride_aligned(count):
    space = IPCSpace(_FakeXNU(), task=object())
    names = [space.insert_right(object(), RIGHT_RECEIVE) for _ in range(count)]
    assert len(set(names)) == count
    for name in names:
        assert (name - IPCSpace.FIRST_NAME) % IPCSpace.NAME_STRIDE == 0


@given(st.integers(min_value=2, max_value=20))
def test_ipc_send_rights_coalesce(count):
    space = IPCSpace(_FakeXNU(), task=object())
    port = object()
    names = {space.insert_right(port, RIGHT_SEND) for _ in range(count)}
    assert len(names) == 1
    only = names.pop()
    assert space.lookup(only).refs == count


# -- pixel buffers ------------------------------------------------------------------------------


@given(
    st.integers(min_value=20, max_value=800),
    st.integers(min_value=40, max_value=800),
    st.integers(min_value=0, max_value=799),
    st.integers(min_value=0, max_value=799),
)
def test_pixelbuffer_fill_then_probe(width, height, x, y):
    buffer = PixelBuffer(width, height)
    buffer.fill_rect(0, 0, width, height, "#")
    assert buffer.cell_at(min(x, width - 1), min(y, height - 1)) == "#"


@given(st.integers(min_value=20, max_value=400), st.integers(min_value=40, max_value=400))
def test_pixelbuffer_snapshot_equality(width, height):
    buffer = PixelBuffer(width, height)
    buffer.draw_text(0, 0, "xyz")
    assert buffer.snapshot().to_text() == buffer.to_text()


class _PerCellBuffer:
    """The reference model: the per-cell drawing loops ``PixelBuffer``
    used before it drew by row slices, kept verbatim."""

    def __init__(self, width_px, height_px):
        self.cols = max(1, width_px // CELL_W_PX)
        self.rows = max(1, height_px // CELL_H_PX)
        self._grid = [[" "] * self.cols for _ in range(self.rows)]

    def _cell(self, x_px, y_px):
        col = min(self.cols - 1, max(0, int(x_px // CELL_W_PX)))
        row = min(self.rows - 1, max(0, int(y_px // CELL_H_PX)))
        return col, row

    def clear(self, ch=" "):
        for row in self._grid:
            for col in range(self.cols):
                row[col] = ch

    def fill_rect(self, x, y, w, h, ch):
        c0, r0 = self._cell(x, y)
        c1, r1 = self._cell(x + max(0.0, w - 1), y + max(0.0, h - 1))
        for row in range(r0, r1 + 1):
            for col in range(c0, c1 + 1):
                self._grid[row][col] = ch

    def draw_text(self, x, y, text):
        col, row = self._cell(x, y)
        for offset, ch in enumerate(text):
            if col + offset >= self.cols:
                break
            self._grid[row][col + offset] = ch

    def blit(self, src, x, y):
        c0, r0 = self._cell(x, y)
        for src_row in range(src.rows):
            dst_row = r0 + src_row
            if dst_row >= self.rows:
                break
            for src_col in range(src.cols):
                dst_col = c0 + src_col
                if dst_col >= self.cols:
                    break
                ch = src._grid[src_row][src_col]
                if ch != " ":
                    self._grid[dst_row][dst_col] = ch

    def to_text(self):
        border = "+" + "-" * self.cols + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in self._grid)
        return f"{border}\n{body}\n{border}"


#: Cell strings.  Only ``" "`` is transparent; ``""`` and ``"ab"`` are
#: copied as is, like any other string.
_CELLS = (" ", "#", "X", "", "ab")
_INK = _CELLS[1:]
#: From under one cell to past the 64x20-cell display, in pixels that
#: need not be cell multiples.
_WIDTH_PX = st.integers(min_value=1, max_value=72 * CELL_W_PX)
_HEIGHT_PX = st.integers(min_value=1, max_value=23 * CELL_H_PX)


def _span(extent_px, cell_px):
    """A coordinate or a length, from three cells below 0 to three cells
    past ``extent_px``, as an int or a float."""
    lo, hi = -3 * cell_px, extent_px + 3 * cell_px
    return st.one_of(
        st.integers(min_value=lo, max_value=hi),
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


@st.composite
def _row(draw, kind, cols):
    """One source row: all blank, with no blank cell, or mixed."""
    if kind == "blank":
        return [" "] * cols
    alphabet = _INK if kind == "opaque" else _CELLS
    pattern = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))
    row = [pattern[col % len(pattern)] for col in range(cols)]
    if kind == "mixed":
        blank_at = draw(st.integers(min_value=0, max_value=cols - 1))
        ink_at = (blank_at + draw(st.integers(min_value=1, max_value=cols - 1))) % cols
        row[blank_at] = " "
        row[ink_at] = draw(st.sampled_from(_INK))
    return row


@st.composite
def _blit_source(draw):
    """A buffer of its own size whose rows are blank, opaque or mixed."""
    src = PixelBuffer(draw(_WIDTH_PX), draw(_HEIGHT_PX))
    kinds = ("blank", "opaque", "mixed") if src.cols > 1 else ("blank", "opaque")
    src._grid = [
        draw(_row(draw(st.sampled_from(kinds)), src.cols)) for _ in range(src.rows)
    ]
    return src


@st.composite
def _pixel_program(draw):
    """A buffer size and the drawing operations to run on it."""
    width_px, height_px = draw(_WIDTH_PX), draw(_HEIGHT_PX)
    x, y = _span(width_px, CELL_W_PX), _span(height_px, CELL_H_PX)
    cell = st.sampled_from(_CELLS)
    text = st.one_of(
        st.text(alphabet=" #Xab", max_size=8),
        st.text(alphabet=" #Xab", min_size=73, max_size=80),
    )
    op = st.one_of(
        st.tuples(st.just("clear"), cell),
        st.tuples(st.just("fill_rect"), x, y, x, y, cell),
        st.tuples(st.just("draw_text"), x, y, text),
        st.tuples(st.just("blit"), _blit_source(), x, y),
        st.tuples(st.just("snapshot")),
    )
    return width_px, height_px, draw(st.lists(op, min_size=1, max_size=12))


@settings(max_examples=75, deadline=None)
@given(_pixel_program())
def test_pixelbuffer_matches_per_cell_reference(program):
    """Row-slice drawing leaves exactly the grid the per-cell loops leave,
    after every operation; a snapshot shares no row with its original."""
    width_px, height_px, ops = program
    buffer = PixelBuffer(width_px, height_px)
    model = _PerCellBuffer(width_px, height_px)
    snapshotted = []
    for name, *args in ops:
        if name == "snapshot":
            snapshotted.append((buffer, [list(row) for row in model._grid]))
            buffer = buffer.snapshot()
        else:
            getattr(buffer, name)(*args)
            getattr(model, name)(*args)
        assert buffer._grid == model._grid
        assert buffer.to_text() == model.to_text()
    for original, grid in snapshotted:
        assert original._grid == grid


# -- Dalvik 32-bit arithmetic ----------------------------------------------------------------------


@given(st.integers(), st.integers())
def test_wrap32_matches_c_semantics(a, b):
    result = _wrap32(a + b)
    assert -(2**31) <= result < 2**31
    assert (result - (a + b)) % (2**32) == 0


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_dalvik_arith_matches_python(a, b):
    source = """
    .method add
    .registers 3
        add-int v0, v0, v1
        return v0
    .end method
    .method mul
    .registers 3
        mul-int v0, v0, v1
        return v0
    .end method
    """
    from repro.cider.system import build_vanilla_android
    from helpers import run_elf

    system = build_vanilla_android()
    try:

        def body(ctx):
            vm = DalvikVM(ctx, assemble("t.dex", source))
            return vm.invoke("add", a, b), vm.invoke("mul", a, b)

        added, multiplied = run_elf(system, body)
        assert added == a + b
        assert multiplied == a * b
    finally:
        system.shutdown()


# -- scheduler determinism under random interleavings ---------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["sleep", "yield", "work"]),
            st.integers(min_value=1, max_value=1000),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_scheduler_timeline_reproducible(program, nthreads):
    """Any mix of sleeps, yields and work across N threads produces a
    bit-identical virtual timeline on re-execution."""
    from repro.sim import Scheduler, VirtualClock

    def execute():
        clock = VirtualClock()
        sched = Scheduler(clock)
        timeline = []

        def worker(tag):
            for action, amount in program:
                if action == "sleep":
                    sched.sleep(amount)
                elif action == "yield":
                    sched.yield_control()
                else:
                    clock.charge(amount)
                timeline.append((tag, clock.now_ns))

        for index in range(nthreads):
            sched.spawn(lambda i=index: worker(i), name=f"w{index}")
        sched.run()
        sched.shutdown()
        return timeline

    assert execute() == execute()


_queue = st.integers(min_value=0, max_value=1)
_ns = st.integers(min_value=1, max_value=1000)
_leaf_op = st.one_of(
    st.just(("yield",)),
    st.tuples(st.just("sleep"), _ns),
    st.tuples(st.sampled_from(["block", "wake_one", "wake_all"]), _queue),
    st.tuples(st.just("block_timeout"), _queue, _ns),
    st.tuples(
        st.just("block_any"),
        st.lists(_queue, max_size=2, unique=True).map(tuple),
        st.none() | _ns,
    ),
    st.tuples(st.just("kill"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("charge"), _ns),
    st.just(("raise",)),
)
_thread_op = st.one_of(
    _leaf_op,
    st.tuples(
        st.sampled_from(["spawn_join", "spawn", "spawn_daemon"]),
        st.lists(_leaf_op, max_size=3),
    ),
    st.tuples(st.just("join"), st.integers(min_value=0, max_value=7)),
)
_thread_program = st.lists(
    st.lists(_thread_op, min_size=1, max_size=6), min_size=1, max_size=4
)

#: How ``_run_thread_program`` drives a program: ``run``;
#: ``run_until_done`` of the first thread; ``run_world`` over two
#: schedulers (thread i on scheduler i % 2, wait queues shared); ``run``
#: under a ``SeededRandomPolicy``.
DRIVES = ("run", "until", "world", "policy")
#: None, or ``set_watchdog``'s (budget ns, kill) arguments.
_watchdog = st.none() | st.tuples(
    st.integers(min_value=1, max_value=1500), st.booleans()
)


class _RecordingHB:
    """Stands in for an HBMonitor: logs each scheduler edge with the
    token holder at that moment."""

    def __init__(self, scheduler, log):
        self._sched = scheduler
        self._log = log

    def on_spawn(self, thread):
        self._log.append(("hb.spawn", thread.name, self._sched._current.name))

    def on_wake(self, thread):
        self._log.append(("hb.wake", thread.name, self._sched._current.name))


def _run_thread_program(
    program, mod=None, drive="run", watchdog=None, seed=0, hb=False
):
    """Run one list of ops per thread on fresh schedulers from ``mod`` (a
    scheduler module: ``repro.sim.scheduler`` by default, or the
    reference copy); drive them as ``drive`` names (see ``DRIVES``), then
    shut down, reopen and run the program again the same way.  Return
    everything observable: the event log with clock ps, each pass's
    outcome, and the schedulers' and threads' final state."""
    from repro.sim import SeededRandomPolicy, VirtualClock
    from repro.sim.errors import SimulationError

    if mod is None:
        from repro.sim import scheduler as mod
    machines = 2 if drive == "world" else 1
    scheds = [mod.Scheduler(VirtualClock()) for _ in range(machines)]
    queues = [mod.WaitQueue("q0"), mod.WaitQueue("q1")]
    threads = []
    log = []
    for index, sched in enumerate(scheds):
        if hb:
            sched.hb = _RecordingHB(sched, log)
        sched.trace_hook = lambda category, name, m=index, **detail: (
            log.append((m, category, name, sorted(detail.items())))
        )
        sched.on_watchdog_kill = lambda t: log.append(("kill", t.name))
        if watchdog is not None:
            sched.set_watchdog(*watchdog)
    policies = []
    if drive == "policy":
        policies.append(scheds[0].set_policy(SeededRandomPolicy(seed)))

    def spawn(sched, tag, ops, daemon=False):
        thread = sched.spawn(lambda: interpret(sched, tag, ops), tag, daemon)
        threads.append(thread)
        return thread

    def join(sched, tag, thread):
        try:
            sched.join(thread)
        except ValueError as exc:
            log.append((tag, "joined a raise", str(exc)))

    def interpret(sched, tag, ops):
        clock = sched.clock
        for step, op in enumerate(ops):
            log.append((tag, op[0], clock.now_ps))
            name = op[0]
            if name == "yield":
                sched.yield_control()
            elif name == "sleep":
                sched.sleep(op[1])
            elif name == "block":
                sched.block_on(queues[op[1]])
            elif name == "block_timeout":
                log.append((tag, sched.block_on_timeout(queues[op[1]], op[2])))
            elif name == "block_any":
                woken = sched.block_on_any([queues[q] for q in op[1]], op[2])
                log.append((tag, woken))
            elif name == "wake_one":
                woken = queues[op[1]].wake_one()
                log.append((tag, None if woken is None else woken.name))
            elif name == "wake_all":
                log.append((tag, [t.name for t in queues[op[1]].wake_all()]))
            elif name == "kill":
                victim = threads[op[1] % len(threads)]
                victim._scheduler.kill_thread(victim)
            elif name == "join":
                target = threads[op[1] % len(threads)]
                mine = target._scheduler is sched
                if mine and target is not sched.current_thread():
                    join(sched, tag, target)
            elif name == "charge":
                clock.charge(op[1])
            elif name == "raise":
                raise ValueError(tag)
            else:
                daemon = name == "spawn_daemon"
                child = spawn(sched, f"{tag}.{step}", op[1], daemon)
                if name == "spawn_join":
                    join(sched, tag, child)
        return tag

    def drive_once(first_thread):
        try:
            if drive == "until":
                result = scheds[0].run_until_done(first_thread)
            elif drive == "world":
                systems = [
                    SimpleNamespace(
                        label=f"m{index}",
                        machine=SimpleNamespace(
                            scheduler=sched, crashed=False, panic_reason=None
                        ),
                    )
                    for index, sched in enumerate(scheds)
                ]
                from repro.cider.system import run_world

                # The reference module carries the run_world of its commit.
                run_world = getattr(mod, "run_world", run_world)
                result = run_world(systems, first_thread)
            else:
                scheds[0].run()
                result = None
            return ("ok", result)
        except (SimulationError, ValueError) as exc:
            return (type(exc).__name__, str(exc))

    def observe():
        return [
            (
                sched.switches,
                sched.anr_reports,
                [t.name for t in sched.live_threads()],
                sched.next_timer_deadline(),
                sched.clock.now_ps,
            )
            for sched in scheds
        ] + [
            (t.name, t.state.value, t.result, repr(t.failure)) for t in threads
        ]

    outcomes = []
    for _ in range(2):
        first = None
        for index, ops in enumerate(program):
            thread = spawn(scheds[index % len(scheds)], f"t{index}", ops)
            first = first or thread
        outcomes.append((drive_once(first), observe()))
        for sched in scheds:
            sched.shutdown()
        outcomes.append(observe())
        for sched in scheds:
            sched.reopen()
    return log, outcomes, [policy.choices for policy in policies]


@given(_thread_program)
@settings(max_examples=40, deadline=None)
def test_thread_programs_replay_identically(program):
    """Generated programs of yields, sleeps, blocks with and without
    deadlines, wakeups, kills, nested spawns and joins and raises run
    identically on two fresh schedulers, and either finish or stop with a
    DeadlockError carrying a thread dump."""
    first = _run_thread_program(program)
    assert _run_thread_program(program) == first
    for outcome, _ in first[1][::2]:
        assert outcome == ("ok", None) or (
            outcome[0] == "DeadlockError"
            and outcome[1].startswith(
                "all threads blocked; thread dump:\n  sid="
            )
        )


@given(
    _thread_program,
    _watchdog,
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
# A peer's wakeup must beat a local timer under run_world.
@example([[("sleep", 100), ("wake_one", 0)], [("block", 0)]], None, 0)
# Expiry kills the earliest-blocked thread first.
@example([[("block", 0)], [("sleep", 100), ("block", 1)]], (500, True), 0)
# A report-only ANR for a thread still blocked when the run deadlocks.
@example([[("block", 0)], [("sleep", 1000)]], (500, False), 0)
# Shutdown does not wake the joiners of the threads it kills.
@example([[("block", 0)], [("join", 0)]], None, 0)
# A policy sees only choice points with several candidates.
@example([[("yield",), ("sleep", 5)], [("yield",)]], None, 1)
def test_scheduler_matches_reference(program, watchdog, seed):
    """The scheduler behaves exactly like the reference copy kept in
    ``tests/reference_scheduler.py`` (the one before its drive loops were
    folded into one) under every way of driving it, with a recording HB
    monitor and hooks installed and the watchdog off, reporting or
    killing: same events at the same clock ps, same outcomes and error
    messages, switch counts, ANR reports, hook calls, policy choices and
    final thread states."""
    import reference_scheduler
    from repro.sim import scheduler

    for drive in DRIVES:
        expected = _run_thread_program(
            program, reference_scheduler, drive, watchdog, seed, hb=True
        )
        actual = _run_thread_program(
            program, scheduler, drive, watchdog, seed, hb=True
        )
        assert actual == expected, drive
