"""Outside-in wall-clock tracer and layer probes for the host-time benchmark.

The simulator already has a span profiler, but it measures *virtual*
time.  This module measures *host* time without touching ``src/``: it
replaces public functions at the layer boundaries (``Kernel.trap``,
``VFS.resolve``, ``Scheduler.spawn``, ...) with timing wrappers while a
``--trace`` run is measuring, and restores the originals afterwards.

Simulated threads run on real OS threads that hand one token around, so
each OS thread keeps its own span stack; a span's *self* time is its
duration minus the time its children on the same thread covered.  Spans
whose thread has given the token away (the scheduler's blocking calls
and the controller's run loops) are *wait* spans: their time belongs to
whichever thread ran meanwhile, so they are kept out of the share of
wall time the layers account for.

Spans are aggregated in memory per (thread, layer) and merged when a unit
ends, so a long run keeps a bounded footprint.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import traceback
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: The pure-Python reference loop: integer arithmetic, then small dict,
#: list and str allocations, about 4:1 in time and 5 ms in all on a
#: 2-vCPU x86-64 cloud VM.  Fixed, never calibrated at run time: a unit's
#: wall time divided by this loop's wall time cancels machine-speed drift
#: only while the loop does the same work in every machine state.  The
#: allocation part matters: the simulator slows more than arithmetic
#: does when the host is contended (see README.md).
REF_ARITH_ITERS = 50_000
REF_ALLOC_ITERS = 3_000
REF_NOMINAL_NS = 5_000_000
_REF_SUM = sum(i * i % 7 for i in range(REF_ARITH_ITERS))


def reference_loop_ns() -> int:
    """Run the fixed reference loop once; return its wall time in ns."""
    start = perf_counter_ns()
    acc = 0
    for i in range(REF_ARITH_ITERS):
        acc += i * i % 7
    table = {}
    for i in range(REF_ALLOC_ITERS):
        entry = {"a": i, "b": [i, i + 1], "c": str(i)}
        table[i % 512] = entry
        entry["b"].append(len(entry["c"]))
    elapsed = perf_counter_ns() - start
    if acc != _REF_SUM or len(table) != 512:
        raise RuntimeError("reference loop computed a wrong result")
    return elapsed


Stats = Dict[str, List[int]]  # layer -> [calls, total_ns, self_ns]


class _ThreadSpans:
    __slots__ = ("thread", "stack", "stats")

    def __init__(self, thread: threading.Thread) -> None:
        self.thread = thread
        self.stack: List[List[int]] = []
        self.stats: Stats = {}


def merge_stats(into: Stats, other: Stats) -> Stats:
    for name, (calls, total, own) in other.items():
        stat = into.setdefault(name, [0, 0, 0])
        stat[0] += calls
        stat[1] += total
        stat[2] += own
    return into


class Tracer:
    """Per-thread span stacks over wrapped public functions.

    Wrappers stay in place only between :meth:`install` and
    :meth:`uninstall`; the untraced half of a ``--trace`` run measures
    the original functions, not a disabled wrapper.  Spans are recorded
    only while :attr:`active` is set, i.e. inside a timed unit.
    """

    #: Layers whose time is spent waiting for the token.
    WAIT_LAYERS = ("sim.scheduler.block", "sim.scheduler.run")

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread())
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer._spans()
            stack = spans.stack
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat = spans.stats.get(layer)
                if stat is None:
                    stat = spans.stats[layer] = [0, 0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]

        return traced

    def _count_after(self, fn: Callable, counter: str, amount) -> Callable:
        """Wrap ``fn`` to add ``amount(self_arg)`` to a counter on return
        or unwind (a Mach-O's dyld bootstrap ends by raising exit)."""
        tracer = self

        @functools.wraps(fn)
        def counted(obj, *args, **kwargs):
            try:
                return fn(obj, *args, **kwargs)
            finally:
                if tracer.active:
                    stats = tracer._spans().stats
                    stat = stats.setdefault(counter, [0, 0, 0])
                    stat[0] += amount(obj)

        return counted

    def collect(self) -> Tuple[Stats, int]:
        """Merge and reset every thread's stats.

        Returns the merged stats and the largest per-thread sum of
        non-wait self times, which can never exceed the wall time it was
        recorded in.  (A daemon's wait span may start in one unit and end
        in a later one.)  Call only from the controller between units,
        when no simulated thread holds the token.
        """
        merged: Stats = {}
        max_thread_self = 0
        with self._lock:
            keep = []
            for spans in self._threads:
                max_thread_self = max(
                    max_thread_self,
                    sum(
                        stat[2] for layer, stat in spans.stats.items()
                        if layer not in self.WAIT_LAYERS
                    ),
                )
                merge_stats(merged, spans.stats)
                spans.stats.clear()
                if spans.thread.is_alive():
                    keep.append(spans)
            self._threads = keep
        return merged, max_thread_self

    # -- installing the layer wrappers -------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, module: str, attr: str, layer: str) -> None:
        """Wrap a module-level function wherever ``repro`` bound it (a
        ``from x import f`` keeps its own reference)."""
        original = getattr(sys.modules[module], attr)
        traced = self._wrap(original, layer)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and vars(mod).get(attr) is original:
                self._patch(mod, attr, traced)

    def install(self) -> None:
        from repro.cider.system import System
        from repro.diplomacy.diplomat import Diplomat
        from repro.ios.dyld import Dyld
        from repro.kernel.kernel import Kernel
        from repro.kernel.vfs import VFS
        from repro.net.netstack import NetStack
        from repro.sim.scheduler import Scheduler
        from repro.sim.snapshot import Snapshot
        from repro.xnu.ipc import MachIPC

        methods = [
            (Kernel, "trap", "kernel.trap"),
            (VFS, "resolve", "kernel.vfs.resolve"),
            (Scheduler, "spawn", "sim.scheduler.spawn"),
            (Scheduler, "block_on", "sim.scheduler.block"),
            (Scheduler, "block_on_timeout", "sim.scheduler.block"),
            (Scheduler, "block_on_any", "sim.scheduler.block"),
            (Scheduler, "sleep", "sim.scheduler.block"),
            (Scheduler, "yield_control", "sim.scheduler.block"),
            (Scheduler, "run", "sim.scheduler.run"),
            (Scheduler, "run_until_done", "sim.scheduler.run"),
            (Scheduler, "run_ready", "sim.scheduler.run"),
            (Snapshot, "clone", "sim.snapshot.clone"),
            (System, "reboot", "cider.reboot"),
            (MachIPC, "mach_msg_send", "xnu.ipc.send"),
            (MachIPC, "mach_msg_receive", "xnu.ipc.receive"),
            (Diplomat, "__call__", "diplomacy"),
            (NetStack, "log_segment", "net.segment"),
        ]
        for owner, attr, layer in methods:
            self._patch(owner, attr, self._wrap(vars(owner)[attr], layer))
        for builder in ("build_cider", "build_vanilla_android", "build_ipad_mini"):
            self._patch_function("repro.cider.system", builder, "cider.boot")
        self._patch(
            Dyld,
            "bootstrap",
            self._count_after(
                vars(Dyld)["bootstrap"],
                "ios.dyld.libs_walked",
                lambda dyld: dyld.last_stats.walked_filesystem
                if dyld.last_stats is not None
                else 0,
            ),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Sample(NamedTuple):
    """One timed unit."""

    wall_ns: int
    ref_ns: int
    traps: int
    ok: bool
    stats: Stats
    max_thread_self_ns: int


def measure_unit(
    fn: Callable[[], Tuple[bool, int]], tracer: Optional[Tracer]
) -> Sample:
    """Time the reference loop, then ``fn`` (which returns ``(outputs
    correct, traps)``), recording spans when ``tracer`` is given.  A unit
    that raises is a failed unit, never a skipped one."""
    ref_ns = reference_loop_ns()
    ok, traps = False, 0
    if tracer is not None:
        tracer.active = True
    start = perf_counter_ns()
    try:
        ok, traps = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        wall_ns = perf_counter_ns() - start
        if tracer is not None:
            tracer.active = False
    stats, max_self = tracer.collect() if tracer is not None else ({}, 0)
    return Sample(wall_ns, ref_ns, traps, ok, stats, max_self)


# -- per-layer metrics ----------------------------------------------------------


#: Reported layer -> the span names it sums, and the name of its count.
#: Every workload crosses the first three, so their self time is also
#: given in microseconds per unit; for the rest, a workload that never
#: crosses the layer reports a share of exactly 0.
LAYERS = (
    ("kernel.trap", ("kernel.trap",), "calls"),
    ("kernel.vfs.resolve", ("kernel.vfs.resolve",), "calls"),
    ("sim.scheduler.spawn", ("sim.scheduler.spawn",), "calls"),
    ("xnu.ipc", ("xnu.ipc.send", "xnu.ipc.receive"), "msgs"),
    ("diplomacy", ("diplomacy",), "calls"),
    ("sim.snapshot.clone", ("sim.snapshot.clone",), "calls"),
    ("cider.boot", ("cider.boot",), "calls"),
    ("cider.reboot", ("cider.reboot",), "calls"),
)
UNIVERSAL_LAYERS = ("kernel.trap", "kernel.vfs.resolve", "sim.scheduler.spawn")


def layer_metrics(stats: Stats, units: int, unit_wall_ns: int) -> Dict[str, float]:
    """Per-unit layer metrics from the traced units' merged stats."""

    def column(column: int, *names: str) -> int:
        return sum(stats.get(name, (0, 0, 0))[column] for name in names)

    per_unit = 1.0 / max(units, 1)
    wall = max(unit_wall_ns, 1)
    metrics: Dict[str, float] = {}
    for layer, spans, count in LAYERS:
        # xnu.ipc counts messages: sends, not the receives that match them.
        metrics[f"{layer}.{count}"] = column(0, spans[0]) * per_unit
        metrics[f"{layer}.self_share"] = column(2, *spans) / wall
        if layer in UNIVERSAL_LAYERS:
            metrics[f"{layer}.self_us"] = column(2, *spans) * per_unit / 1e3
    block = "sim.scheduler.block"
    metrics[f"{block}.calls"] = column(0, block) * per_unit
    metrics[f"{block}.wait_share"] = column(1, block) / wall
    metrics["ios.dyld.libs_walked"] = column(0, "ios.dyld.libs_walked") * per_unit
    metrics["net.segments"] = column(0, "net.segment") * per_unit
    attributed = sum(
        stat[2] for name, stat in stats.items() if name not in Tracer.WAIT_LAYERS
    )
    metrics["untraced.self_share"] = 1.0 - attributed / wall
    return metrics


# -- probes ---------------------------------------------------------------------
#
# Fixed microbenchmarks, run untraced after a --trace run's units: each
# isolates one layer cost the end-to-end metrics depend on, and reports
# the median of several batches, since one batch can land in a slow spell.


def _median_ns(batches: int, fn: Callable[[], None]) -> float:
    samples = []
    for _ in range(batches):
        start = perf_counter_ns()
        fn()
        samples.append(perf_counter_ns() - start)
    return statistics.median(samples)


def run_probes() -> Dict[str, float]:
    from repro.binfmt import elf_executable, macho_executable
    from repro.cider.system import build_cider
    from repro.sim.clock import VirtualClock
    from repro.sim.scheduler import Scheduler
    from repro.sim.snapshot import snapshot_systems

    traps = 4_000

    def storm(ctx, argv):
        getpid = ctx.libc.getpid
        for _ in range(traps):
            getpid()
        return 0

    probes: Dict[str, float] = {}
    with build_cider() as system:
        vfs = system.kernel.vfs
        vfs.install_binary("/system/bin/trapstorm", elf_executable("trapstorm", storm))
        vfs.install_binary("/bin/trapstorm-ios", macho_executable("trapstorm-ios", storm))

        def run(path: str) -> Callable[[], None]:
            def go() -> None:
                if system.run_program(path) != 0:
                    raise RuntimeError(f"probe {path} failed")
            return go

        probes["kernel.trap.getpid_linux_ns"] = (
            _median_ns(5, run("/system/bin/trapstorm")) / traps
        )
        probes["kernel.trap.getpid_xnu_ns"] = (
            _median_ns(5, run("/bin/trapstorm-ios")) / traps
        )
        probes["cider.exec_hello_elf_ms"] = _median_ns(9, run("/system/bin/hello")) / 1e6
        probes["ios.dyld.exec_hello_ios_ms"] = _median_ns(9, run("/bin/hello-ios")) / 1e6

        deep = [p for p in vfs.walk("/System") if p.count("/") >= 4][:12]
        lookups = 5_000

        def resolve_storm() -> None:
            for i in range(lookups):
                vfs.resolve(deep[i % len(deep)])

        probes["kernel.vfs.resolve_deep_ns"] = _median_ns(5, resolve_storm) / lookups

    switches = 2_000
    spawns = 300

    def ping_pong() -> None:
        scheduler = Scheduler(VirtualClock())

        def body() -> None:
            for _ in range(switches // 2):
                scheduler.yield_control()

        scheduler.spawn(body, "ping")
        scheduler.spawn(body, "pong")
        scheduler.run()

    def spawn_exit() -> None:
        scheduler = Scheduler(VirtualClock())
        for index in range(spawns):
            scheduler.run_until_done(scheduler.spawn(lambda: 0, f"t{index}"))

    probes["sim.scheduler.switch_us"] = _median_ns(5, ping_pong) / switches / 1e3
    probes["sim.scheduler.spawn_exit_us"] = _median_ns(5, spawn_exit) / spawns / 1e3

    snapshots = []

    def capture() -> None:
        snapshots.append(snapshot_systems(build_cider(start_services=False)))

    probes["sim.snapshot.capture_ms"] = _median_ns(3, capture) / 1e6
    probes["sim.snapshot.clone_ms"] = _median_ns(5, snapshots[0].clone) / 1e6
    return probes
