"""schedsweep: systematic interleaving search over planted concurrency bugs.

The exploration engine (:mod:`repro.sim.explore`, DESIGN.md §15) claims
that interleaving-dependent bugs hiding outside the default FIFO
schedule are *findable*, that every finding dedupes to one canonical
report with a minimized replayable choice trace, and that the whole
search is deterministic.  This harness proves it on three scenarios,
each a small multi-threaded iOS program run on a snapshot-cloned Cider
world:

* **race** — a producer/consumer pipeline over pipes whose main thread
  has a planted schedule-dependent flush: clean under FIFO, an
  unsynchronized write on schedules where main runs before the consumer
  acked.  The DFS must find exactly one race, dedupe it, and minimize
  the trace to the single deviation that exposes it.
* **lockdep** — two threads taking two psynch mutexes in inverted order
  with a yield in the middle.  The default schedule interleaves them
  straight into a deadlock (reported with the blocked thread set); a
  one-deviation schedule serializes them, never deadlocks, and still
  reports the AB/BA lock-order cycle.
* **clean** — the race scenario's fully synchronized twin: seeded random
  walks must find *nothing* (the no-false-positive control).

The sweep report is byte-comparable with a SHA-256 digest: report lines
come only from choice traces (thread names, never ids), canonical
failure strings and replay outcomes, so two runs — any ``--jobs`` value,
any ``PYTHONHASHSEED`` — must print identical documents (the
``determinism`` CI job diffs them).

Schedules re-execute from one boot snapshot (``repro.sim.snapshot``)
and fan out across fork-server workers (``repro.sim.parallel``):
``--jobs N`` changes wall-clock only.

Run::

    PYTHONPATH=src python -m repro.workloads.schedsweep \
        [budget] [--jobs N] [--timings FILE]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binfmt import macho_executable
from ..kernel.process import UserContext
from ..sim.errors import DeadlockError, MachinePanic
from ..sim.explore import (
    Exploration,
    SchedulePolicy,
    explore,
    schedule_result,
)
from ..sim import sweep
from ..sim.snapshot import Snapshot, SnapshotCache, snapshot_systems

RACER_PATH = "/data/schedsweep/racer"
LOCKER_PATH = "/data/schedsweep/locker"
CLEAN_PATH = "/data/schedsweep/cleanrun"

#: Per-scenario schedule budget (the CLI positional overrides it).
DEFAULT_BUDGET = 64


# -- the planted workloads -----------------------------------------------------


def _tally(ctx: UserContext, var: str, label: str, write: bool = True):
    """Annotate a shared-state access for the happens-before monitor.
    A no-op when no monitor is installed (the zero-cost default)."""
    hb = ctx.machine.hb
    if hb is not None:
        hb.access(var, write, label)


def racer_ios(ctx: UserContext, argv: List[str]) -> int:
    """The planted race: a producer/consumer pipeline over pipes whose
    main thread flushes the tally itself when the consumer has not acked
    by the time its yield returns.  Under FIFO the consumer always runs
    first (clean); any schedule that runs main before the consumer makes
    ``main:flush`` an unsynchronized write against ``consumer:add``."""
    libc = ctx.libc
    data_r, data_w = libc.pipe()
    done_r, done_w = libc.pipe()
    state = {"acked": False}

    def producer(tctx: UserContext) -> int:
        tctx.libc.write(data_w, b"x")
        return 0

    def consumer(tctx: UserContext) -> int:
        tctx.libc.read(data_r, 1)
        _tally(tctx, "race.tally", "consumer:add")
        state["acked"] = True
        tctx.libc.write(done_w, b"k")
        return 0

    libc.pthread_create(producer, "producer")
    libc.pthread_create(consumer, "consumer")
    libc.sched_yield()
    if not state["acked"]:
        _tally(ctx, "race.tally", "main:flush")  # the planted bug
    libc.read(done_r, 1)  # join edge: acquires the consumer's history
    _tally(ctx, "race.tally", "main:check", write=False)
    return 0


def locker_ios(ctx: UserContext, argv: List[str]) -> int:
    """The planted lock-order inversion: ``ab`` locks A then B, ``ba``
    locks B then A, each yielding between its two acquisitions.  FIFO
    interleaves them straight into a deadlock; schedules that serialize
    one thread complete cleanly but still record both lock-order edges —
    the AB/BA cycle lockdep must report without any deadlock."""
    libc = ctx.libc
    mutex_a = libc.pthread_mutex_init()
    mutex_b = libc.pthread_mutex_init()
    done_r, done_w = libc.pipe()

    def ab(tctx: UserContext) -> int:
        tlibc = tctx.libc
        tlibc.pthread_mutex_lock(mutex_a)
        tlibc.sched_yield()
        tlibc.pthread_mutex_lock(mutex_b)
        tlibc.pthread_mutex_unlock(mutex_b)
        tlibc.pthread_mutex_unlock(mutex_a)
        tlibc.write(done_w, b"a")
        return 0

    def ba(tctx: UserContext) -> int:
        tlibc = tctx.libc
        tlibc.pthread_mutex_lock(mutex_b)
        tlibc.sched_yield()
        tlibc.pthread_mutex_lock(mutex_a)
        tlibc.pthread_mutex_unlock(mutex_a)
        tlibc.pthread_mutex_unlock(mutex_b)
        tlibc.write(done_w, b"b")
        return 0

    libc.pthread_create(ab, "ab")
    libc.pthread_create(ba, "ba")
    libc.read(done_r, 1)
    libc.read(done_r, 1)
    return 0


def clean_ios(ctx: UserContext, argv: List[str]) -> int:
    """The race scenario's fully synchronized twin: every tally access
    is ordered by a pipe transfer, so no schedule may report anything."""
    libc = ctx.libc
    data_r, data_w = libc.pipe()
    done_r, done_w = libc.pipe()

    def producer(tctx: UserContext) -> int:
        _tally(tctx, "clean.tally", "producer:seed")
        tctx.libc.write(data_w, b"x")
        return 0

    def consumer(tctx: UserContext) -> int:
        tctx.libc.read(data_r, 1)
        _tally(tctx, "clean.tally", "consumer:add")
        tctx.libc.write(done_w, b"k")
        return 0

    libc.pthread_create(producer, "producer")
    libc.pthread_create(consumer, "consumer")
    libc.read(done_r, 1)
    _tally(ctx, "clean.tally", "main:total")
    return 0


# -- world plumbing ------------------------------------------------------------

#: Boot-snapshot cache: the quiescent Cider world is captured once per
#: process; every explored schedule clones it.  Fork-server workers
#: inherit the populated cache through ``fork``.
_SNAPSHOTS = SnapshotCache()


def _capture_world() -> "Snapshot":
    """Snapshot the quiescent Cider system with the three scenario
    binaries installed — pure data, no simulated thread exists yet."""
    from ..cider.system import build_cider

    system = build_cider(start_services=False)
    vfs = system.kernel.vfs
    vfs.makedirs("/data/schedsweep")
    vfs.install_binary(RACER_PATH, macho_executable("racer", racer_ios))
    vfs.install_binary(LOCKER_PATH, macho_executable("locker", locker_ios))
    vfs.install_binary(CLEAN_PATH, macho_executable("cleanrun", clean_ios))
    return snapshot_systems(system)


def _world_snapshot() -> "Snapshot":
    return _SNAPSHOTS.get_or_capture("schedsweep-world", _capture_world)


def run_scenario_schedule(
    path: str, policy: SchedulePolicy
) -> Dict[str, object]:
    """Execute one scenario under one schedule policy in a fresh cloned
    world; returns the picklable :func:`schedule_result` dict."""
    (system,) = _world_snapshot().clone()
    return run_schedule_on(system, path, policy)


def run_schedule_on(
    system, path: str, policy: SchedulePolicy
) -> Dict[str, object]:
    """Run one scenario binary on ``system`` under ``policy``; consumes
    the system (it is shut down afterwards).

    The system finishes its boot (launchd) *before* the policy installs,
    so boot choices stay FIFO and choice-point ids always start at the
    workload; the monitor installs after boot for the same reason."""
    system.start_services()
    machine = system.machine
    monitor = machine.install_hb_monitor()
    machine.scheduler.set_policy(policy)
    status = "ok"
    deadlocked: List[str] = []
    try:
        code = system.run_program(path, [path])
        if code != 0:
            status = f"error: exit {code}"
    except DeadlockError:
        status = "deadlock"
        deadlocked = sorted(
            thread.name
            for thread in machine.scheduler.live_threads()
            if not thread.daemon
        )
    except MachinePanic as exc:
        status = f"error: panic: {exc}"
    finally:
        machine.scheduler.clear_policy()
        machine.clear_hb_monitor()
    try:
        system.shutdown()
    except Exception:
        pass  # a deadlocked clone is discarded, not recovered
    return schedule_result(policy, status, monitor, deadlocked)


# -- scenario expectations -----------------------------------------------------


def _check_race(result: Exploration) -> Tuple[bool, str]:
    keys = list(result.failures)
    ok = (
        len(keys) == 1
        and keys[0][0] == "race"
        and "main:flush" in keys[0][1]
        and result.failures[keys[0]]["reproduced"]
        and len(result.failures[keys[0]]["minimized"]) <= 1
    )
    return ok, "one deduped race, minimized to <=1 deviation, reproduced"


def _check_lockdep(result: Exploration) -> Tuple[bool, str]:
    kinds = sorted(kind for kind, _detail in result.failures)
    cycles = [k for k in result.failures if k[0] == "lockdep"]
    deadlocks = [k for k in result.failures if k[0] == "deadlock"]
    ok = (
        kinds == ["deadlock", "lockdep"]
        and len(cycles) == 1
        and len(deadlocks) == 1
        and all(rec["reproduced"] for rec in result.failures.values())
    )
    return ok, "one AB/BA cycle + one deadlock, both reproduced"


def _check_clean(result: Exploration) -> Tuple[bool, str]:
    return not result.failures, "no failures on any explored schedule"


#: (name, binary, mode, explore kwargs, expectation checker).
SCENARIOS: Tuple = (
    ("race", RACER_PATH, "dfs",
     dict(depth=12, preemptions=2), _check_race),
    ("lockdep", LOCKER_PATH, "dfs",
     dict(depth=12, preemptions=2), _check_lockdep),
    ("clean", CLEAN_PATH, "random",
     dict(preemptions=3), _check_clean),
)


class SweepReport(sweep.SweepReport):
    """The byte-comparable sweep transcript (one case per scenario)."""

    def __init__(self) -> None:
        super().__init__()
        self.explored = 0


def run_sweep(budget: int = DEFAULT_BUDGET, jobs: int = 1) -> SweepReport:
    """Explore every scenario.  ``jobs > 1`` fans each wave of schedules
    across a fork-server worker pool; the merged report is byte-identical
    to a serial run — report lines never mention ``jobs``."""
    report = SweepReport()
    report.line(
        f"schedsweep: {len(SCENARIOS)} scenario(s), "
        f"budget {budget} schedule(s) each"
    )
    for name, path, mode, kwargs, check in SCENARIOS:
        result = explore(
            lambda policy, _path=path: run_scenario_schedule(_path, policy),
            mode=mode,
            budget=budget,
            jobs=jobs,
            prime=_world_snapshot,
            **kwargs,
        )
        prefix = f"schedsweep[{name}]"
        for line in result.lines(prefix):
            report.line(line)
        ok, expectation = check(result)
        report.case(
            f"{prefix}: expected {expectation} "
            f"-> {'PASS' if ok else 'FAILED'}",
            ok,
        )
        report.explored += result.explored
    report.line(
        f"schedsweep: {report.passed}/{report.cases} scenario(s) "
        f"passed ({report.explored} schedule(s) explored)"
    )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    return sweep.main(
        "schedsweep", run_sweep, DEFAULT_BUDGET, argv, arg="budget"
    )


if __name__ == "__main__":
    raise SystemExit(main())
