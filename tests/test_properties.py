"""Property-based tests (hypothesis) on core data structures and
invariants."""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.dalvik import DalvikVM, _wrap32, assemble
from repro.compat.signals import SignalTranslator
from repro.hw.display import CELL_H_PX, CELL_W_PX, PixelBuffer
from repro.hw.profiles import nexus7
from repro.kernel.files import FDTable, OpenFile
from repro.kernel.mm import PAGE_SIZE, AddressSpace
from repro.kernel.vfs import VFS
from repro.sim import PSEC_PER_NSEC, CostModel, VirtualClock
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


_leaf_op = st.one_of(
    st.just(("yield",)),
    st.tuples(st.just("sleep"), st.integers(min_value=1, max_value=1000)),
    st.tuples(
        st.sampled_from(["block", "wake_one", "wake_all"]),
        st.integers(min_value=0, max_value=1),
    ),
    st.just(("raise",)),
)
_thread_op = st.one_of(
    _leaf_op,
    st.tuples(st.just("spawn_join"), st.lists(_leaf_op, max_size=3)),
)


def _run_thread_program(program):
    """Run one list of ops per thread on a fresh scheduler; return the
    event log, the outcome and the final clock."""
    from repro.sim import DeadlockError, Scheduler, VirtualClock, WaitQueue

    clock = VirtualClock()
    sched = Scheduler(clock)
    queues = [WaitQueue("q0"), WaitQueue("q1")]
    log = []

    def interpret(tag, ops):
        for op in ops:
            log.append((tag, op[0], clock.now_ps))
            if op[0] == "yield":
                sched.yield_control()
            elif op[0] == "sleep":
                sched.sleep(op[1])
            elif op[0] == "block":
                sched.block_on(queues[op[1]])
            elif op[0] == "wake_one":
                queues[op[1]].wake_one()
            elif op[0] == "wake_all":
                queues[op[1]].wake_all()
            elif op[0] == "raise":
                raise ValueError(tag)
            else:
                child_tag = tag + ".c"
                child = sched.spawn(
                    lambda: interpret(child_tag, op[1]), name=child_tag
                )
                try:
                    sched.join(child)
                except ValueError as exc:
                    log.append((tag, "child raised", str(exc)))

    threads = [
        sched.spawn(lambda i=i, ops=ops: interpret(f"t{i}", ops), name=f"t{i}")
        for i, ops in enumerate(program)
    ]
    try:
        sched.run()
        outcome = "ok"
    except DeadlockError as exc:
        outcome = str(exc)
    finally:
        log.extend((t.name, t.state.value, repr(t.failure)) for t in threads)
        sched.shutdown()
    return log, outcome, clock.now_ps


@given(st.lists(st.lists(_thread_op, max_size=5), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_thread_programs_replay_identically(program):
    """Generated programs of yields, sleeps, blocks, wakeups, nested
    spawn+join and raises run identically on two fresh schedulers, and
    either finish or stop with a DeadlockError carrying a thread dump."""
    first = _run_thread_program(program)
    assert _run_thread_program(program) == first
    outcome = first[1]
    assert outcome == "ok" or outcome.startswith(
        "all threads blocked; thread dump:\n  sid="
    )
