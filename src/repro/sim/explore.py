"""Concurrency exploration engine: schedule policies, interleaving
search, and happens-before race / lock-order detectors.

The deterministic scheduler (:mod:`repro.sim.scheduler`) executes
exactly one interleaving — the strict-FIFO schedule.  That determinism
is what makes every repro run replayable, but a compat layer's
interleaving-dependent bugs live in the schedules FIFO never takes.
This module turns determinism into a *searchable axis*:

* **Schedule policies** — ``Scheduler.set_policy`` installs a
  :class:`SchedulePolicy` consulted at every choice point where more
  than one thread is READY.  :class:`FifoPolicy` reproduces the default
  schedule (and records its trace); :class:`SeededRandomPolicy` walks a
  deterministic PRNG schedule with an optional preemption bound;
  :class:`ReplayPolicy` re-executes a recorded choice trace exactly.
  Policies pick *which* deterministic schedule runs — they never charge
  virtual time, so any policy run is bit-reproducible from its trace.

* **The explorer** — :func:`explore` re-executes a scenario under many
  schedules: seeded random walks, or DFS over deviation prefixes
  (bounded depth and preemption count, in the style of systematic
  concurrency testing).  Scenario executions are independent, so waves
  fan out across :func:`repro.sim.parallel.run_cases` fork workers and
  merge byte-identically.

* **Happens-before monitor** — :class:`HBMonitor` keeps a vector clock
  per simulated thread, advanced at every synchronization edge the
  kernels expose (spawn/join, WaitQueue wakeup, pipe and socket
  transfer, Mach message send→receive, semaphore signal→wait, mutex
  release→acquire, signal delivery).  Workloads register shared-state
  accesses with :meth:`HBMonitor.access`; two accesses to the same
  variable from different threads, at least one a write, with unordered
  vector clocks, are reported as a race *on whichever schedule exposes
  them*.  A lock-order graph over every mutex/semaphore acquisition
  reports AB/BA cycles even on schedules that did not deadlock.

* **Canonical failure reports** — every failure (race, lock cycle,
  deadlock) dedupes to a canonical string plus the schedule signature
  that first exposed it, and its choice trace is greedily minimized to
  the fewest deviations that still reproduce it; the minimized trace is
  verified by one final :class:`ReplayPolicy` run.

Zero-cost-when-off: ``Scheduler._policy`` and ``Scheduler.hb`` /
``Machine.hb`` are ``None`` by default — the FIFO pick and every hook
site pay one ``is None`` test and charge nothing, keeping the default
schedule bit-identical in charged picoseconds (guarded by the golden
Figure-5 capture).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .parallel import run_cases

__all__ = [
    "ExploreError",
    "Exploration",
    "FifoPolicy",
    "HBMonitor",
    "ReplayPolicy",
    "SchedulePolicy",
    "SeededRandomPolicy",
    "deviations",
    "explore",
    "render_choices",
    "schedule_result",
    "trace_signature",
]


class ExploreError(RuntimeError):
    """The exploration harness was misused."""


# -- schedule policies ---------------------------------------------------------


class SchedulePolicy:
    """Base policy: decides which READY thread runs at each choice point.

    The scheduler calls :meth:`choose` only when more than one thread is
    runnable, passing a monotonically increasing choice-point id and the
    candidate thread names in FIFO order (head first).  The return value
    is an index into that tuple.  Every decision is recorded in
    :attr:`choices` as ``(choice_id, names, picked_name)`` — the trace a
    :class:`ReplayPolicy` re-executes and signatures are derived from.
    """

    kind = "policy"

    def __init__(self) -> None:
        #: Recorded decisions: ``(choice_id, names, picked_name)``.
        self.choices: List[Tuple[int, Tuple[str, ...], str]] = []

    def choose(self, choice_id: int, names: Tuple[str, ...]) -> int:
        index = self._pick(choice_id, names)
        if not 0 <= index < len(names):
            index = 0
        self.choices.append((choice_id, names, names[index]))
        return index

    def _pick(self, choice_id: int, names: Tuple[str, ...]) -> int:
        return 0

    def signature(self) -> str:
        return trace_signature(self.choices)


class FifoPolicy(SchedulePolicy):
    """The default schedule, made explicit: always the FIFO head.

    Running under ``FifoPolicy`` executes the exact interleaving the
    bare scheduler runs — and records its choice trace along the way.
    """

    kind = "fifo"


class SeededRandomPolicy(SchedulePolicy):
    """A deterministic PRNG walk over the schedule space.

    ``preemption_bound`` caps how many times the policy may pick a
    thread other than the FIFO head (a *preemption*); once the budget is
    spent every remaining choice falls back to FIFO.  Most
    interleaving bugs need only a handful of preemptions, so a small
    bound concentrates the walk where bugs live.
    """

    kind = "random"

    def __init__(
        self, seed: int, preemption_bound: Optional[int] = None
    ) -> None:
        super().__init__()
        self.seed = seed
        self.preemption_bound = preemption_bound
        self._rng = random.Random(seed)
        self._budget = preemption_bound

    def _pick(self, choice_id: int, names: Tuple[str, ...]) -> int:
        if self._budget is not None and self._budget <= 0:
            return 0
        index = self._rng.randrange(len(names))
        if index != 0 and self._budget is not None:
            self._budget -= 1
        return index


class ReplayPolicy(SchedulePolicy):
    """Re-execute a recorded schedule from its deviations.

    ``decisions`` maps choice-point id → thread name to pick there;
    every unmentioned choice point takes the FIFO head.  Because the
    simulation is deterministic, replaying the deviations of a recorded
    trace (:func:`deviations`) reproduces the recorded schedule — and
    its failure — exactly.  A decision naming a thread that is not
    runnable at that choice point (stale trace) falls back to FIFO and
    is recorded in :attr:`mismatches`.
    """

    kind = "replay"

    def __init__(self, decisions: Optional[Dict[int, str]] = None) -> None:
        super().__init__()
        self.decisions: Dict[int, str] = dict(decisions or {})
        self.mismatches: List[Tuple[int, str, Tuple[str, ...]]] = []

    def _pick(self, choice_id: int, names: Tuple[str, ...]) -> int:
        want = self.decisions.get(choice_id)
        if want is None:
            return 0
        try:
            return names.index(want)
        except ValueError:
            self.mismatches.append((choice_id, want, names))
            return 0


# -- choice traces -------------------------------------------------------------


def render_choices(
    choices: Iterable[Tuple[int, Tuple[str, ...], str]]
) -> List[str]:
    """Canonical one-line-per-decision rendering of a choice trace."""
    return [
        f"choice {cid}: [{', '.join(names)}] -> {picked}"
        for cid, names, picked in choices
    ]


def trace_signature(
    choices: Iterable[Tuple[int, Tuple[str, ...], str]]
) -> str:
    """The schedule signature: a short stable hash of the rendered
    trace.  Two runs that made identical decisions over identical ready
    sets share a signature — the dedup key for explored schedules."""
    blob = "\n".join(render_choices(choices))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def deviations(
    choices: Iterable[Tuple[int, Tuple[str, ...], str]]
) -> Dict[int, str]:
    """The non-FIFO decisions of a trace — the minimal dict a
    :class:`ReplayPolicy` needs to reproduce it (every other choice
    point re-derives the FIFO head deterministically)."""
    return {
        cid: picked
        for cid, names, picked in choices
        if names and picked != names[0]
    }


def format_decisions(decisions: Dict[int, str]) -> str:
    """Deterministic rendering of a deviation dict for reports."""
    if not decisions:
        return "(none: default schedule)"
    return "; ".join(
        f"c{cid}->{decisions[cid]}" for cid in sorted(decisions)
    )


# -- happens-before monitor ----------------------------------------------------


class HBMonitor:
    """Vector-clock happens-before tracking plus a lock-order graph.

    Installed with ``Machine.install_hb_monitor()``; the scheduler and
    every kernel sync path then advance clocks at their synchronization
    edges.  Threads are keyed internally by ``sid`` (the controller is
    key 0; sids are unique per scheduler, and a monitor watches one) but
    every report uses thread *names*, which read better and stay stable
    across runs, clones and fork workers — sids are never rendered.
    """

    def __init__(self, scheduler) -> None:
        self._sched = scheduler
        #: thread key -> vector clock (dict key -> counter).
        self._vc: Dict[int, Dict[int, int]] = {}
        #: id(channel object) -> [strong ref, channel vector clock].
        self._chan: Dict[int, list] = {}
        #: variable -> recent accesses [(key, name, kind, label, vc)].
        self._accesses: Dict[str, List[tuple]] = {}
        #: thread key -> stack of held lock names.
        self._held: Dict[int, List[str]] = {}
        #: lock-order edges: name -> {successor name: witness thread}.
        self._edges: Dict[str, Dict[str, str]] = {}
        self._race_seen: set = set()
        self._races: List[str] = []

    # -- current-thread bookkeeping ---------------------------------------

    def _key(self) -> int:
        return getattr(self._sched._current, "sid", 0)

    def _name(self) -> str:
        return getattr(self._sched._current, "name", "controller")

    def _clock(self, key: int) -> Dict[int, int]:
        vc = self._vc.get(key)
        if vc is None:
            vc = self._vc[key] = {key: 0}
        return vc

    def _tick(self, key: int) -> None:
        vc = self._clock(key)
        vc[key] = vc.get(key, 0) + 1

    @staticmethod
    def _join(dst: Dict[int, int], src: Dict[int, int]) -> None:
        for key, value in src.items():
            if dst.get(key, 0) < value:
                dst[key] = value

    # -- scheduler edges ---------------------------------------------------

    def on_spawn(self, thread) -> None:
        """Fork edge: the child starts with everything the spawner saw."""
        parent = self._key()
        child = self._clock(thread.sid)
        self._join(child, self._clock(parent))
        self._tick(parent)
        self._tick(thread.sid)

    def on_wake(self, thread) -> None:
        """Wakeup edge: whoever makes a thread runnable passes its
        history on (WaitQueue wakeups, joiner release, signal kicks)."""
        waker = self._key()
        self._join(self._clock(thread.sid), self._clock(waker))
        self._tick(waker)

    # -- channel edges (message passing) -----------------------------------

    def release(self, channel: object, label: str = "") -> None:
        """Publish the current thread's history into ``channel`` (pipe
        write, socket send, Mach msg send, semaphore signal, unlock)."""
        key = self._key()
        self._tick(key)
        entry = self._chan.get(id(channel))
        if entry is None:
            entry = self._chan[id(channel)] = [channel, {}]
        self._join(entry[1], self._clock(key))

    def acquire(self, channel: object) -> None:
        """Merge ``channel``'s published history into the current thread
        (pipe read, socket recv, Mach msg receive, semaphore wait,
        lock)."""
        entry = self._chan.get(id(channel))
        if entry is not None:
            self._join(self._clock(self._key()), entry[1])

    # -- lock-order tracking -----------------------------------------------

    def lock_acquire(self, lock: object, name: str) -> None:
        """A mutex/semaphore acquisition: records ``held -> name`` edges
        in the lock-order graph and the release→acquire HB edge."""
        key = self._key()
        held = self._held.setdefault(key, [])
        for prior in held:
            if prior != name:
                self._edges.setdefault(prior, {}).setdefault(
                    name, self._name()
                )
        held.append(name)
        self.acquire(lock)

    def lock_release(self, lock: object, name: str) -> None:
        key = self._key()
        held = self._held.get(key)
        if held:
            for index in range(len(held) - 1, -1, -1):
                if held[index] == name:
                    del held[index]
                    break
        self.release(lock, name)

    # -- shared-state access annotations -----------------------------------

    def access(self, var: str, write: bool, label: str = "") -> None:
        """Register an access to named shared state from the current
        thread.  Flags a race against any recorded access from another
        thread when at least one side is a write and the two vector
        clocks are unordered (no chain of sync edges connects them)."""
        key = self._key()
        name = self._name()
        kind = "write" if write else "read"
        self._tick(key)
        current = self._clock(key)
        records = self._accesses.setdefault(var, [])
        for okey, oname, okind, olabel, ovc in records:
            if okey == key:
                continue
            if okind == "read" and kind == "read":
                continue
            # The earlier access happens-before this one iff this
            # thread has already seen its component of the other clock.
            if current.get(okey, 0) >= ovc[okey]:
                continue
            self._report_race(
                var, (oname, okind, olabel), (name, kind, label)
            )
        # Keep the most recent access per (thread, kind): enough to
        # catch every race against the latest epoch, bounded in memory.
        records[:] = [
            record
            for record in records
            if not (record[0] == key and record[2] == kind)
        ]
        records.append((key, name, kind, label, dict(current)))

    def _report_race(self, var: str, side_a: tuple, side_b: tuple) -> None:
        def render(side: tuple) -> str:
            name, kind, label = side
            return f"{name} {kind}" + (f" @{label}" if label else "")

        first, second = sorted((render(side_a), render(side_b)))
        report = f"race on {var}: {first} vs {second}"
        if report not in self._race_seen:
            self._race_seen.add(report)
            self._races.append(report)

    # -- reports -----------------------------------------------------------

    def race_reports(self) -> List[str]:
        """Canonical, deduplicated, deterministically ordered races."""
        return sorted(self._races)

    def lock_cycles(self) -> List[str]:
        """Every simple cycle in the lock-order graph, canonicalized to
        start at its lexicographically smallest lock — a potential
        deadlock even if this schedule never deadlocked."""
        edges = {src: sorted(dsts) for src, dsts in self._edges.items()}
        cycles: set = set()

        def dfs(start: str, node: str, path: List[str], onpath: set) -> None:
            for succ in edges.get(node, ()):
                if succ == start and len(path) > 1:
                    cycles.add(
                        "lock-order cycle: "
                        + " -> ".join(path + [start])
                    )
                elif succ not in onpath and succ > start:
                    path.append(succ)
                    onpath.add(succ)
                    dfs(start, succ, path, onpath)
                    path.pop()
                    onpath.discard(succ)

        for node in sorted(edges):
            dfs(node, node, [node], {node})
        return sorted(cycles)

    def lock_edges(self) -> List[str]:
        """The observed lock-order edges (diagnostics)."""
        return sorted(
            f"{src} -> {dst} (by {witness})"
            for src, dsts in self._edges.items()
            for dst, witness in dsts.items()
        )


# -- schedule results ----------------------------------------------------------


def schedule_result(
    policy: SchedulePolicy,
    status: str,
    hb: Optional[HBMonitor] = None,
    deadlocked: Sequence[str] = (),
) -> Dict[str, object]:
    """Package one executed schedule into the picklable dict the
    explorer consumes: the choice trace, its signature, the run status
    (``ok`` / ``deadlock`` / ``error: ...``) and the monitor's reports."""
    choices = [
        (cid, tuple(names), picked) for cid, names, picked in policy.choices
    ]
    return {
        "choices": choices,
        "sig": trace_signature(choices),
        "status": status,
        "races": list(hb.race_reports()) if hb is not None else [],
        "cycles": list(hb.lock_cycles()) if hb is not None else [],
        "deadlocked": sorted(deadlocked),
    }


def failure_keys(result: Dict[str, object]) -> List[Tuple[str, str]]:
    """The canonical failure identities a schedule exposed.  Two
    schedules exposing the same race dedupe to the same key no matter
    how they interleaved around it."""
    keys: List[Tuple[str, str]] = []
    for race in result["races"]:  # type: ignore[union-attr]
        keys.append(("race", race))
    for cycle in result["cycles"]:  # type: ignore[union-attr]
        keys.append(("lockdep", cycle))
    status = result["status"]
    if status == "deadlock":
        blocked = "+".join(result["deadlocked"]) or "unknown"
        keys.append(("deadlock", f"deadlock of {blocked}"))
    elif isinstance(status, str) and status.startswith("error"):
        keys.append(("error", status))
    return keys


# -- the explorer --------------------------------------------------------------


class Exploration:
    """The outcome of one :func:`explore` call."""

    def __init__(self, mode: str, budget: int) -> None:
        self.mode = mode
        self.budget = budget
        #: Executed schedules in deterministic exploration order.
        self.schedules: List[Dict[str, object]] = []
        #: Distinct schedule signatures seen.
        self.signatures: List[str] = []
        #: Canonical failure key -> record dict (insertion = discovery
        #: order, which is deterministic).
        self.failures: Dict[Tuple[str, str], Dict[str, object]] = {}
        #: Replays spent on minimization/verification.
        self.replays = 0

    @property
    def explored(self) -> int:
        return len(self.schedules)

    def lines(self, prefix: str = "explore") -> List[str]:
        """Canonical byte-comparable rendering (never mentions jobs)."""
        out = [
            f"{prefix}: mode={self.mode} explored={self.explored} "
            f"distinct={len(self.signatures)} "
            f"failures={len(self.failures)} replays={self.replays}"
        ]
        for index, (key, record) in enumerate(self.failures.items()):
            kind, detail = key
            out.append(
                f"{prefix}: failure[{index}] kind={kind} "
                f"schedule#{record['schedule']} sig={record['sig']}: "
                f"{detail}"
            )
            out.append(
                f"{prefix}:   trace({len(record['minimized'])} "
                f"decision(s)): {format_decisions(record['minimized'])}"
            )
            out.append(
                f"{prefix}:   replay: "
                + ("reproduced" if record["reproduced"] else "NOT reproduced")
            )
        return out


def _expand(
    forced: Dict[int, str],
    choices: List[Tuple[int, Tuple[str, ...], str]],
    depth: int,
    preemptions: int,
) -> List[Dict[int, str]]:
    """Child prefixes of one executed schedule: deviate once at every
    choice point after the last forced decision, bounded by ``depth``
    (how deep in the trace) and ``preemptions`` (total deviations)."""
    if len(forced) >= preemptions:
        return []
    horizon = max(forced) if forced else 0
    children: List[Dict[int, str]] = []
    for cid, names, picked in choices:
        if cid > depth:
            break
        if cid <= horizon:
            continue
        for alt in names:
            if alt == picked:
                continue
            child = dict(forced)
            child[cid] = alt
            children.append(child)
    return children


def explore(
    run_schedule: Callable[[SchedulePolicy], Dict[str, object]],
    mode: str = "dfs",
    budget: int = 200,
    depth: int = 40,
    preemptions: int = 3,
    seeds: Optional[Sequence[int]] = None,
    jobs: int = 1,
    prime: Optional[Callable[[], object]] = None,
    minimize_budget: int = 64,
) -> Exploration:
    """Systematically execute ``run_schedule`` under many interleavings.

    ``run_schedule(policy)`` must boot a fresh (cloned) world, install
    ``policy`` on its scheduler, run the scenario, and return a
    :func:`schedule_result` dict — executions are fully independent, so
    waves fan out across fork workers (``jobs``) and the merged
    exploration is byte-identical to a serial run.

    ``mode="dfs"`` enumerates deviation prefixes breadth-first over the
    recorded choice traces (first the default schedule, then every
    single deviation within ``depth``, then pairs, ... up to
    ``preemptions``), stopping at ``budget`` executed schedules.
    ``mode="random"`` runs one :class:`SeededRandomPolicy` walk per
    seed (default ``range(budget)``).

    Every failure is deduped by its canonical key, its trace is
    greedily minimized (dropping deviations that are not needed to
    reproduce it, up to ``minimize_budget`` replays in total), and the
    minimized trace is verified by one final replay.
    """
    if mode not in ("dfs", "random"):
        raise ExploreError(f"unknown exploration mode {mode!r}")
    result = Exploration(mode, budget)
    seen_sigs: set = set()

    def record_batch(
        batch: List[Tuple[Dict[int, str], Dict[str, object]]]
    ) -> List[Dict[str, object]]:
        fresh = []
        for decisions, out in batch:
            index = len(result.schedules)
            result.schedules.append(out)
            if out["sig"] not in seen_sigs:
                seen_sigs.add(out["sig"])
                result.signatures.append(out["sig"])
                fresh.append(out)
            for key in failure_keys(out):
                if key not in result.failures:
                    result.failures[key] = {
                        "schedule": index,
                        "sig": out["sig"],
                        "decisions": deviations(out["choices"]),
                        "minimized": {},
                        "reproduced": False,
                    }
        return fresh

    if mode == "random":
        walk_seeds = list(seeds if seeds is not None else range(budget))
        walk_seeds = walk_seeds[:budget]
        outs = run_cases(
            len(walk_seeds),
            lambda i: run_schedule(
                SeededRandomPolicy(walk_seeds[i], preemptions)
            ),
            jobs=jobs,
            prime=prime,
        )
        record_batch(
            [(deviations(out["choices"]), out) for out in outs]
        )
    else:
        frontier: List[Dict[int, str]] = [{}]
        seen_prefixes = {()}
        while frontier and result.explored < budget:
            wave = frontier[: budget - result.explored]
            frontier = frontier[len(wave):]
            outs = run_cases(
                len(wave),
                lambda i: run_schedule(ReplayPolicy(wave[i])),
                jobs=jobs,
                prime=prime,
            )
            pairs = list(zip(wave, outs))
            fresh = record_batch(pairs)
            # Expand only schedules whose signature is new — a repeated
            # signature is a schedule already expanded from elsewhere.
            fresh_ids = {id(out) for out in fresh}
            for decisions, out in pairs:
                if id(out) not in fresh_ids:
                    continue
                for child in _expand(
                    decisions, out["choices"], depth, preemptions
                ):
                    prefix_key = tuple(sorted(child.items()))
                    if prefix_key not in seen_prefixes:
                        seen_prefixes.add(prefix_key)
                        frontier.append(child)

    # -- minimize + verify each deduped failure (serial, deterministic) --
    for key, record in result.failures.items():
        current = dict(record["decisions"])  # type: ignore[arg-type]
        for cid in sorted(current, reverse=True):
            if result.replays >= minimize_budget:
                break
            trial = {c: name for c, name in current.items() if c != cid}
            out = run_schedule(ReplayPolicy(trial))
            result.replays += 1
            if key in failure_keys(out):
                current = trial
        record["minimized"] = current
        out = run_schedule(ReplayPolicy(current))
        result.replays += 1
        record["reproduced"] = key in failure_keys(out)
    return result

