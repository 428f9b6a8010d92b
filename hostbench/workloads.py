"""The benchmark's five workloads.

Each workload boots what it needs in :meth:`Workload.setup`, then runs
*batches* of timed units in a closed loop (one client: the next unit
starts only after the previous one ended).  Every unit checks its own
outputs: virtual time is deterministic, so a unit whose charged
picoseconds or trap count differ from the reference is wrong, not slow.

The seed reaches the simulator only as generated inputs: it permutes the
order of the programs inside each ``syscall``, ``ipc`` and ``launch``
unit.
"""

from __future__ import annotations

import json
import math
import os
import random
from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from tracer import Sample, Tracer, measure_unit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_FIG5 = os.path.join(ROOT, "benchmarks", "golden_fig5_virtual_ns.json")

#: Committed sweep transcripts (repro.workloads.partsweep / crashsweep).
PARTSWEEP_SHA256 = "092db166f2af193feca9de011e1d6a1bea1c09072c341baadec6bd96179be1a4"
CRASHSWEEP_SHA256 = "9385e22c81dc2f7afc0e09d316877224ac230bc30539e7b5fcc8da4c07e06492"
SWEEP_JOBS = 2


class TrapMeter:
    """Adds up ``machine.trace.count("syscall")`` of every System that
    shuts down — the traps of machines a workload builds internally."""

    def __init__(self) -> None:
        self.traps = 0

    def install(self) -> None:
        from repro.cider.system import System

        original = System.shutdown
        meter = self

        def shutdown(system) -> None:
            meter.traps += system.machine.trace.count("syscall")
            original(system)

        System.shutdown = shutdown


class Batch(NamedTuple):
    """What one loop iteration produced: its units, its wall time, and the
    wall time of the section that could run the units in parallel,
    ``jobs`` at a time."""

    samples: List[Sample]
    wall_ns: int
    section_ns: int
    jobs: int = 1


class Workload:
    name = ""
    #: Modules the workload imports; their import is timed as set-up.
    modules: Tuple[str, ...] = ()

    def __init__(self, meter: TrapMeter) -> None:
        self.meter = meter

    def setup(self, rng: random.Random) -> None:
        """Boot or capture what the units share."""

    def unit(self, rng: random.Random) -> Tuple[bool, int]:
        """Run one unit; return (outputs correct, traps)."""
        raise NotImplementedError

    def batch(self, rng: random.Random, tracer: Optional[Tracer]) -> Batch:
        sample = measure_unit(lambda: self.unit(rng), tracer)
        return Batch([sample], sample.wall_ns, sample.wall_ns)

    def warmup(self, rng: random.Random, tracer: Optional[Tracer]) -> List[Sample]:
        """The discarded first units: lazy imports and cache fills."""
        return self.batch(rng, tracer).samples


def _canon(value):
    """NaN as the string the golden file stores it as."""
    if isinstance(value, dict):
        return {key: _canon(val) for key, val in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


class Fig5(Workload):
    """``run_figure5(iters=2)``: 4 fresh boots x 22 lmbench metrics."""

    name = "fig5"
    modules = ("repro.workloads.harness",)

    def setup(self, rng: random.Random) -> None:
        with open(GOLDEN_FIG5) as fh:
            self.golden = json.load(fh)["fig5_virtual_ns"]

    def unit(self, rng: random.Random) -> Tuple[bool, int]:
        from repro.workloads.harness import run_figure5

        before = self.meter.traps
        raw = run_figure5(iters=2).raw
        ok = json.loads(json.dumps(_canon(raw))) == self.golden
        return ok, self.meter.traps - before


class _Lmbench(Workload):
    """One booted Cider system per process running lmbench programs in
    both binary formats; each program's (charged ps, traps) must equal
    its first run's."""

    modules = ("repro.cider.system", "repro.workloads.lmbench")
    tests: Tuple[str, ...] = ()
    iters = 0

    def setup(self, rng: random.Random) -> None:
        from repro.cider.system import build_cider
        from repro.workloads.lmbench import install_lmbench

        self.system = build_cider()
        self.programs = [
            path
            for fmt in ("elf", "macho")
            for test, path in install_lmbench(self.system.kernel, fmt).items()
            if test in self.tests
        ]
        self.expected: Dict[str, Tuple[int, int]] = {}

    def unit(self, rng: random.Random) -> Tuple[bool, int]:
        system = self.system
        clock, trace = system.machine.clock, system.machine.trace
        ok, traps = True, 0
        for path in rng.sample(self.programs, len(self.programs)):
            ps, count = clock.charged_ps, trace.count("syscall")
            code = system.run_program(path, [path, {"out": {}, "iters": self.iters}])
            got = (clock.charged_ps - ps, trace.count("syscall") - count)
            traps += got[1]
            ok &= code == 0 and self.expected.setdefault(path, got) == got
        return ok, traps


class Syscall(_Lmbench):
    """~25k traps per unit: kernel.trap, persona dispatch, VFS lookup."""

    name = "syscall"
    tests = ("null_syscall", "read", "write", "open_close")
    iters = 2500


class Ipc(_Lmbench):
    """Scheduler handoffs and spawns: pipe/unix ping-pong, fork, signals."""

    name = "ipc"
    tests = ("pipe", "af_unix", "fork_exit", "signal")
    iters = 100


#: Calculator Pro's keypad (Figure 4b) and the Launcher's first two cells.
_KEYS = {"7": (150, 190), "*": (1000, 300), "6": (700, 300), "=": (700, 520)}
_CALCULATOR_ICON = (100, 120)
_PAPERS_ICON = (400, 120)


class Launch(Workload):
    """Snapshot clone, service start, two .ipa installs and launches
    from the Launcher, and two 115-library dyld walks."""

    name = "launch"
    modules = (
        "repro.cider.system",
        "repro.cider.installer",
        "repro.ios.sampleapps",
        "repro.sim.snapshot",
    )

    def setup(self, rng: random.Random) -> None:
        from repro.cider.installer import decrypt_ipa
        from repro.cider.system import build_cider
        from repro.hw.profiles import iphone3gs
        from repro.ios.sampleapps import calculator_ipa, papers_ipa
        from repro.sim.snapshot import SnapshotCache, snapshot_systems

        self.snapshot = SnapshotCache().get_or_capture(
            "launch",
            lambda: snapshot_systems(
                build_cider(with_framework=True, start_services=False)
            ),
        )
        phone = iphone3gs()
        self.packages = [decrypt_ipa(p(), phone) for p in (calculator_ipa, papers_ipa)]
        self.expected: Dict[str, Tuple[int, int]] = {}

    def unit(self, rng: random.Random) -> Tuple[bool, int]:
        from repro.cider.installer import install_ipa

        before = self.meter.traps
        (system,) = self.snapshot.clone()
        try:
            system.start_services()
            framework = system.android
            for package in self.packages:
                install_ipa(system, package, framework)
            framework.settle()
            machine = system.machine
            ok = True

            def calculator() -> None:
                nonlocal ok
                framework.tap(*_CALCULATOR_ICON)
                for key in "7*6=":
                    framework.tap(*_KEYS[key])
                ok &= "42" in framework.screenshot()

            def papers() -> None:
                framework.tap(*_PAPERS_ICON)

            def hello() -> None:
                nonlocal ok
                ok &= system.run_program("/bin/hello-ios") == 0

            steps: List[Tuple[str, Callable[[], None]]] = [
                ("calculator", calculator),
                ("papers", papers),
                ("hello-1", hello),
                ("hello-2", hello),
            ]
            for label, step in rng.sample(steps, len(steps)):
                ps, traps = machine.clock.charged_ps, machine.trace.count("syscall")
                step()
                framework.home()
                framework.settle()
                got = (machine.clock.charged_ps - ps, machine.trace.count("syscall") - traps)
                ok &= self.expected.setdefault(label, got) == got
        finally:
            system.shutdown()
        return ok, self.meter.traps - before


class Sweep(Workload):
    """``partsweep`` then ``crashsweep`` at ``jobs=2``: 82 cases per
    batch, each timed inside its fork-server worker."""

    name = "sweep"
    modules = ("repro.workloads.partsweep", "repro.workloads.crashsweep")

    def setup(self, rng: random.Random) -> None:
        from repro.workloads import crashsweep, partsweep

        self.tracer: Optional[Tracer] = None
        self.samples: List[Sample] = []
        self.section_ns = 0
        for module in (partsweep, crashsweep):
            module.run_cases = self._timed(module.run_cases)

    def _timed(self, run_cases):
        """Wrap a sweep's ``run_cases`` so each case is measured in the
        worker that runs it; the sample rides back with the case result."""
        workload = self

        def timed_run_cases(count, run_case, jobs=1, prime=None):
            meter, tracer = workload.meter, workload.tracer

            def timed_case(index):
                result = ("", False)

                def one() -> Tuple[bool, int]:
                    nonlocal result
                    before = meter.traps
                    result = run_case(index)
                    return result[1], meter.traps - before

                sample = measure_unit(one, tracer)
                return result, sample

            start = perf_counter_ns()
            results = run_cases(count, timed_case, jobs=jobs, prime=prime)
            workload.section_ns += perf_counter_ns() - start
            workload.samples.extend(sample for _result, sample in results)
            return [result for result, _sample in results]

        return timed_run_cases

    def warmup(self, rng: random.Random, tracer: Optional[Tracer]) -> List[Sample]:
        """Each sweep's clean record pass: captures its boot snapshot and
        runs one case-sized world, without a full 82-case batch."""
        from repro.workloads import crashsweep, partsweep

        return [
            measure_unit(lambda: (bool(partsweep.record_pass()), 0), tracer),
            measure_unit(lambda: (bool(crashsweep.record_sites()), 0), tracer),
        ]

    def batch(self, rng: random.Random, tracer: Optional[Tracer]) -> Batch:
        from repro.workloads import crashsweep, partsweep

        self.tracer, self.samples, self.section_ns = tracer, [], 0
        start = perf_counter_ns()
        part = partsweep.run_sweep(None, jobs=SWEEP_JOBS)
        crash = crashsweep.run_sweep(None, jobs=SWEEP_JOBS)
        ok = (
            part.digest() == PARTSWEEP_SHA256
            and (part.passed, part.cases) == (66, 66)
            and crash.digest() == CRASHSWEEP_SHA256
            and (crash.recovered, crash.sites) == (16, 16)
        )
        wall_ns = perf_counter_ns() - start
        samples = [s._replace(ok=s.ok and ok) for s in self.samples]
        return Batch(samples, wall_ns, self.section_ns, SWEEP_JOBS)


WORKLOADS = {w.name: w for w in (Fig5, Syscall, Ipc, Launch, Sweep)}
