"""The syscall trap path, pinned byte for byte.

``render_transcript`` runs one fixed syscall script as an ELF and as a
Mach-O program under four regimes: plain, trace events on, an attached
observatory, and a fault plan at ``syscall.enter`` and ``syscall.exit``.
Each run prints every step's result, errno and charged picoseconds, the
per-ABI trap counters, the fault log, the tombstones and a digest of the
trace's syscall events.  The committed ``benchmarks/trap_path_transcript.txt``
must match it exactly, so a change to the trap path that moves a charge,
a trace timestamp, a fault occurrence or an unwind fails here.

The other tests pin the mechanism: a syscall handler's callers are
exactly ``Kernel.trap`` and the C library's trap helper, a trap exit
never returns to a process that stopped running, a trap charges exactly
its entry, dispatch and exit and counts itself once, and four kinds of
trap make a pinned number of Python calls.

Re-record (only for an intentional change to the trap path's output):
``PYTHONPATH=src python -m tests.test_trap_path > benchmarks/trap_path_transcript.txt``
"""

import hashlib
import os
import sys

import pytest

import repro
from repro.binfmt import elf_executable, macho_executable
from repro.cider.system import build_cider
from repro.compat.signals import XNU_SIGUSR1
from repro.kernel.errno import EIO
from repro.kernel.signals import SIGUSR1
from repro.sim.faults import FaultOutcome, FaultPlan

from .helpers import run_elf, run_macho

SRC = os.path.dirname(os.path.dirname(repro.__file__))
ROOT = os.path.dirname(SRC)
TRANSCRIPT = os.path.join(ROOT, "benchmarks", "trap_path_transcript.txt")

#: A trap number no table binds in either ABI (ENOSYS from
#: ``Kernel.trap``), and the number the oops handler is registered at.
UNKNOWN_NR = 99999
OOPS_NR = 900
#: Where the frame-recording and process-finishing handlers are registered.
FRAMES_NR = 901
FINISH_NR = 902

REGIMES = ("plain", "trace", "observatory", "faults")


def _fault_plan(pid):
    """Three outcomes at entry and two at exit, each on its own ``nth``,
    counted over the traps of process ``pid`` only."""
    ours = {"predicate": lambda detail: detail.get("pid") == pid}
    plan = FaultPlan(seed=17)
    rules = (
        ("syscall.enter", "enter-errno", FaultOutcome.errno(EIO), 2),
        ("syscall.enter", "enter-delay", FaultOutcome.delay(7_000), 4),
        ("syscall.enter", "enter-signal", FaultOutcome.signal(SIGUSR1), 16),
        ("syscall.exit", "exit-errno", FaultOutcome.errno(EIO), 9),
        ("syscall.exit", "exit-delay", FaultOutcome.delay(3_000), 11),
    )
    for point, rule_id, outcome, nth in rules:
        plan.rule(point, outcome, rule_id=rule_id, nth=nth, **ours)
    return plan


def _oops(kernel, thread, *args):
    raise RuntimeError("trap-path oops")


def _table(ctx, macho):
    """The calling persona's numbered syscall table: XNU's BSD table for
    a Mach-O program, Linux's one table for an ELF one."""
    abi = ctx.thread.persona.abi
    return abi.bsd if macho else abi.table


def _script(lines, regime, macho):
    """The program body: the fixed syscall script, one line per step."""

    def main(ctx, argv):
        libc = ctx.libc
        clock = ctx.machine.clock
        raw = libc._bsd if macho else libc._trap
        signum = XNU_SIGUSR1 if macho else SIGUSR1
        if regime == "faults":
            ctx.machine.install_fault_plan(_fault_plan(ctx.process.pid))

        def step(name, result):
            lines.append(
                f"  {name:<16} {result!r:<24} errno={libc.errno:<3} "
                f"ps={clock.charged_ps}"
            )
            return result

        step("getpid", libc.getpid())
        step("getppid", libc.getppid())
        fd = step("open /dev/zero", libc.open("/dev/zero"))
        step("read", libc.read(fd, 8))
        step("close", libc.close(fd))
        fd = step("open /dev/null", libc.open("/dev/null", 1))
        step("write", libc.write(fd, b"trap"))
        step("close", libc.close(fd))
        fd = step("creat", libc.creat("/tmp/trap-path"))
        step("write", libc.write(fd, b"0123456789"))
        step("close", libc.close(fd))
        fd = step("open", libc.open("/tmp/trap-path"))
        step("close", libc.close(fd))
        step("unlink", libc.unlink("/tmp/trap-path"))
        step("open missing", libc.open("/tmp/no-such-file"))
        step("unknown trap", raw(UNKNOWN_NR))

        delivered = []

        def handler(hctx, signo, info):
            delivered.append((signo, hctx.libc.getpid()))

        def sender(tctx):
            tctx.libc.kill(tctx.process.pid, signum)
            return 0

        step("sigaction", libc.signal(signum, handler))
        step("pthread_create", libc.pthread_create(sender, "sender"))
        step("sched_yield", libc.sched_yield())
        step("getpid", libc.getpid())
        lines.append(f"  delivered        {delivered!r}")
        _table(ctx, macho).register(OOPS_NR, "trap_path_oops", _oops)
        step("oops", raw(OOPS_NR))  # never returns: SIGSYS
        return 0

    return main


def _install(system, name, main, macho):
    """Install ``main`` as an ELF or a Mach-O program; returns its path."""
    path = f"/bin/{name}" if macho else f"/system/bin/{name}"
    image = (macho_executable if macho else elf_executable)(name, main)
    system.kernel.vfs.install_binary(path, image)
    return path


def _run(regime, macho):
    lines = [f"== {regime} {'macho' if macho else 'elf'}"]
    system = build_cider()
    try:
        kernel = system.kernel
        machine = system.machine
        kernel.contain_crashes = True
        if regime == "trace":
            machine.trace.enabled = True
        obs = machine.install_observatory() if regime == "observatory" else None
        attach_ps = machine.clock.charged_ps
        name = "trapios" if macho else "trapelf"
        path = _install(system, name, _script(lines, regime, macho), macho)
        code = system.run_program(path, [path])
        trace = machine.trace
        lines.append(f"  exit={code} charged_ps={machine.clock.charged_ps}")
        lines.append(
            f"  traps linux={trace.count('syscall', 'linux')} "
            f"xnu={trace.count('syscall', 'xnu')}"
        )
        faults = machine.faults
        if faults is not None:
            lines.append(f"  fault checks {sorted(faults.occurrences.items())}")
            for event in faults.events:
                lines.append(f"  fault {event.format()}")
        for report in kernel.crash_reports:
            lines.append(
                f"  tombstone pid={report.pid} {report.name} "
                f"signal={report.signum} syscall={report.syscall} "
                f"{report.reason}"
            )
        if regime == "trace":
            events = "\n".join(str(event) for event in trace.events("syscall"))
            digest = hashlib.sha256(events.encode()).hexdigest()
            lines.append(f"  syscall events sha256={digest}")
        if obs is not None:
            spans = {
                stat.subsystem: stat.calls
                for stat in obs.profiler.subsystem_table()
            }
            lines.append(
                f"  kernel.trap spans={spans.get('kernel.trap', 0)} "
                f"attributed_ps={obs.profiler.attributed_ps()} "
                f"charged_ps={machine.clock.charged_ps - attach_ps}"
            )
    finally:
        system.shutdown()
    return lines


def render_transcript():
    """The whole transcript: every regime, ELF then Mach-O."""
    lines = []
    for regime in REGIMES:
        for macho in (False, True):
            lines.extend(_run(regime, macho))
    return "\n".join(lines) + "\n"


def test_trap_path_transcript_matches_committed():
    with open(TRANSCRIPT) as fh:
        assert render_transcript() == fh.read()


# -- the mechanism: one kernel frame between the facade and the handler ----------


def _frame_name(frame):
    """``Class.method`` for a method frame, the bare name otherwise (no
    ``co_qualname`` before Python 3.11)."""
    owner = frame.f_locals.get("self")
    name = frame.f_code.co_name
    return f"{type(owner).__name__}.{name}" if owner is not None else name


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observatory"])
@pytest.mark.parametrize("macho", [False, True], ids=["elf", "macho"])
def test_facade_enters_kernel_trap_directly(macho, observed):
    """A syscall handler's caller is ``Kernel.trap``, and its caller is
    the C library's trap helper: no other frame sits between them."""
    system = build_cider()
    try:
        if observed:
            system.machine.install_observatory()
        seen = []

        def body(ctx):
            body_code = sys._getframe().f_code

            def recorder(kernel, thread, *args):
                names = []
                frame = sys._getframe(1)
                while frame is not None and frame.f_code is not body_code:
                    names.append(_frame_name(frame))
                    frame = frame.f_back
                seen.append(names)
                return 0

            _table(ctx, macho).register(FRAMES_NR, "trap_path_frames", recorder)
            libc = ctx.libc
            return (libc._bsd if macho else libc._trap)(FRAMES_NR)

        assert (run_macho if macho else run_elf)(system, body) == 0
        facade = "IOSLibc._bsd" if macho else "Bionic._trap"
        assert seen == [["Kernel.trap", facade]]
    finally:
        system.shutdown()


def _finish(kernel, thread, *args):
    kernel.processes.finalize_process(thread.process, 7)
    return 0


@pytest.mark.parametrize("macho", [False, True], ids=["elf", "macho"])
def test_trap_exit_ends_a_process_that_stopped_running(macho):
    """A handler that ends its own process without a fatal signal still
    ends the program at trap exit: the trap never returns to user code."""
    system = build_cider()
    try:
        after = []

        def main(ctx, argv):
            _table(ctx, macho).register(FINISH_NR, "trap_path_finish", _finish)
            libc = ctx.libc
            (libc._bsd if macho else libc._trap)(FINISH_NR)
            after.append("returned")
            return 0

        path = _install(system, "finishios" if macho else "finishelf", main, macho)
        assert system.run_program(path, [path]) == 7
        assert after == []
    finally:
        system.shutdown()


# -- the trap's own frame: its charges, its counter, its Python calls ------------


def _fixed_ps(machine, persona):
    """A Cider trap's entry (with the persona check), dispatch and exit."""
    dispatch = persona.abi.dispatch_cost_name
    return (
        machine.cost_ps("syscall_entry")
        + machine.cost_ps("cider_persona_check")
        + (machine.cost_ps(dispatch) if dispatch else 0)
        + machine.cost_ps("syscall_exit")
    )


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observatory"])
@pytest.mark.parametrize("macho", [False, True], ids=["elf", "macho"])
def test_a_trap_charges_entry_dispatch_and_exit(macho, observed):
    """``getppid`` charges nothing of its own, so one trap moves the clock
    by exactly entry, dispatch and exit, counts one syscall, and leaves
    every charged picosecond attributed by the profiler."""
    system = build_cider()
    try:
        machine = system.machine
        obs = machine.install_observatory() if observed else None
        clock, trace = machine.clock, machine.trace

        def reading():
            attributed = obs.profiler.attributed_ps() if observed else 0
            return clock.now_ps, clock.charged_ps, trace.count("syscall"), attributed

        def body(ctx):
            before = reading()
            ctx.libc.getppid()
            after = reading()
            moved = [b - a for a, b in zip(before, after)]
            persona = ctx.thread.persona
            return moved, _fixed_ps(machine, persona), persona.abi.dispatch_cost_name

        moved, fixed, dispatch = (run_macho if macho else run_elf)(system, body)
        # Linux dispatches for free; XNU pays its translation.
        assert (dispatch is not None) == macho
        assert moved == [fixed, fixed, 1, fixed if observed else 0]
        if observed:
            assert obs.profiler.conservation_check()
    finally:
        system.shutdown()


#: Python calls per operation from the C-library method down (the
#: ``sys.setprofile`` "call" events), the same in both formats.
CALLS_PER_OPERATION = {"getppid": 5, "read": 10, "open_close": 23, "pipe_close": 35}


def _calls(operation):
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return names[1:]  # the first is ``operation`` itself


@pytest.mark.parametrize("macho", [False, True], ids=["elf", "macho"])
def test_python_calls_per_trap(macho):
    """A trap's fixed work runs in ``Kernel.trap``'s frame, and an open
    file builds no wait queue nothing waits on: ``getppid`` is the libc
    method, its trap helper, ``Kernel.trap``, the handler and the ABI's
    return convention, and nothing else."""
    system = build_cider()
    try:

        def body(ctx):
            libc = ctx.libc
            zero = libc.open("/dev/zero", 0)
            libc.close(libc.creat("/tmp/calls"))

            def open_close():
                libc.close(libc.open("/tmp/calls", 0))

            def pipe_close():
                rfd, wfd = libc.pipe()
                libc.close(rfd)
                libc.close(wfd)

            return {
                "getppid": _calls(lambda: libc.getppid()),
                "read": _calls(lambda: libc.read(zero, 16)),
                "open_close": _calls(open_close),
                "pipe_close": _calls(pipe_close),
            }

        calls = (run_macho if macho else run_elf)(system, body)
        assert {op: len(names) for op, names in calls.items()} == CALLS_PER_OPERATION
        facade = "_bsd" if macho else "_trap"
        assert calls["getppid"] == ["getppid", facade, "trap", "sys_getppid", "success"]
    finally:
        system.shutdown()


if __name__ == "__main__":
    sys.stdout.write(render_transcript())
