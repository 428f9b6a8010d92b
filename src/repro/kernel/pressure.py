"""Memory-pressure kill daemons: jetsam and the lowmemorykiller.

When a machine carries a :class:`~repro.sim.resources.ResourceEnvelope`,
two kernel daemons watch its pressure level and shed load the way each
persona's native OS does:

* **jetsam** (XNU): handles the *iOS* population.  An episode runs in
  three phases — (1) deliver memory warnings to every registered
  listener (UIKit turns these into ``didReceiveMemoryWarning``), (2) run
  kernel cache evictors (dyld's shared-cache eviction registers here),
  and only then (3) kill, lowest jetsam priority band first, largest
  memory footprint first within a band.  Processes in the SYSTEM band
  (launchd) are never killed.
* **lowmemorykiller** (Android): handles everything that is *not* an iOS
  process.  Victims are chosen purely by ``oom_adj`` badness — highest
  adj first, largest footprint within a class — mirroring the driver's
  "no warnings, just SIGKILL" policy.  Negative adj (system_server)
  is never killed.

Both daemons are event-driven: they sleep on a wait queue and are woken
by the envelope's pressure callbacks, so a machine that never crosses the
warning watermark never runs them (zero cost when quiet).  Selection is
completely deterministic — same seed and workload produce byte-identical
kill logs (:meth:`ResourceEnvelope.kill_log`) — because victims are
ordered by (band/adj, footprint, pid) with no randomness and the
cooperative scheduler serialises daemon wakeups FIFO.

Kills follow the watchdog pattern: tombstone via
:meth:`Kernel.report_crash`, then :meth:`finalize_process`, which tears
down the address space and *releases the RAM back to the envelope* — that
is what ends an episode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..sim import WaitQueue
from ..sim.resources import (
    PRESSURE_CRITICAL,
    PRESSURE_NORMAL,
    PRESSURE_WARNING,
    ResourceEnvelope,
)
from .signals import SIGKILL

if TYPE_CHECKING:
    from .kernel import Kernel
    from .process import Process

# -- XNU jetsam priority bands (a compressed version of the real table) ---------
JETSAM_PRIORITY_IDLE = 0
JETSAM_PRIORITY_BACKGROUND = 3
JETSAM_PRIORITY_DEFAULT = 3
JETSAM_PRIORITY_FOREGROUND = 10
#: Never killed (launchd and friends).
JETSAM_PRIORITY_SYSTEM = 18

# -- Android lowmemorykiller oom_adj classes ------------------------------------
#: Never killed (system_server, init).
OOM_ADJ_SYSTEM = -16
OOM_ADJ_FOREGROUND = 0
OOM_ADJ_VISIBLE = 1
OOM_ADJ_BACKGROUND = 8

#: lowmemorykiller minfree-style thresholds: at ``warning`` only cached /
#: background apps (adj >= 8) are fair game; at ``critical`` everything
#: with a non-negative adj is.
_LMK_MIN_ADJ = {PRESSURE_WARNING: OOM_ADJ_BACKGROUND, PRESSURE_CRITICAL: 0}


def _persona_name(process: "Process") -> str:
    try:
        return process.main_thread().persona.name
    except Exception:  # pragma: no cover - threadless corpse
        return "?"


class _PressureDaemon:
    """Shared machinery: an event-driven kernel daemon with a wait queue.

    ``on_pressure`` callbacks run synchronously inside whatever thread
    crossed the watermark; they only set a flag and wake the daemon, so
    the actual episode handling happens in daemon context at the next
    deterministic scheduling point.
    """

    name = "pressure"

    def __init__(self, kernel: "Kernel", envelope: ResourceEnvelope) -> None:
        self.kernel = kernel
        self.envelope = envelope
        self.waitq = WaitQueue(f"{self.name}.pressure")
        self._pending = False
        self.sim_thread: Optional[object] = None
        envelope.on_pressure(self._on_pressure)

    def start(self) -> "_PressureDaemon":
        self.sim_thread = self.kernel.spawn_kernel_daemon(self._run, self.name)
        return self

    # -- wiring ----------------------------------------------------------------

    def _on_pressure(self, level: str) -> None:
        self._pending = True
        self.waitq.wake_all()

    def _run(self) -> None:
        machine = self.kernel.machine
        scheduler = machine.scheduler
        while True:
            if not self._pending:
                scheduler.block_on(self.waitq)
            self._pending = False
            with machine.span(
                f"kernel.pressure.{self.name}", "episode"
            ):
                self.handle_episode()

    def _kill(self, process: "Process", reason: str, **detail: object) -> None:
        """Watchdog-pattern kill: tombstone, finalize, log."""
        with self.kernel.machine.span(
            f"kernel.pressure.{self.name}", "kill",
            pid=process.pid, victim=process.name,
        ):
            self.kernel.report_crash(
                process, SIGKILL, reason, daemon=self.name, **detail
            )
            self.envelope.record_kill(
                self.name,
                process.pid,
                process.name,
                _persona_name(process),
                reason,
                process.address_space.total_bytes,
                **detail,
            )
            process.dying = SIGKILL
            self.kernel.processes.finalize_process(process, 128 + SIGKILL)

    # -- subclass interface -------------------------------------------------------

    def handle_episode(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class JetsamDaemon(_PressureDaemon):
    """XNU's memorystatus/jetsam thread for the iOS population."""

    name = "jetsam"

    def __init__(self, kernel: "Kernel", envelope: ResourceEnvelope) -> None:
        super().__init__(kernel, envelope)
        #: pids warned during the current episode (cleared when the
        #: pressure level returns to normal) — one warning per episode.
        self._warned: set = set()

    # victim ordering: lowest band, then largest footprint, then lowest pid
    def _victims(self) -> List["Process"]:
        candidates = [
            p
            for p in self.kernel.processes.live_processes()
            if _persona_name(p) == "ios"
            and p.jetsam_priority < JETSAM_PRIORITY_SYSTEM
        ]
        candidates.sort(
            key=lambda p: (
                p.jetsam_priority,
                -p.address_space.total_bytes,
                p.pid,
            )
        )
        return candidates

    def _send_warnings(self, level: str) -> int:
        """Phase 1: let apps shed caches before anyone dies."""
        sent = 0
        listeners = self.kernel.memory_pressure_listeners
        for pid in sorted(listeners):
            if pid in self._warned:
                continue
            process = self.kernel.processes.table.get(pid)
            if process is None or not process.alive:
                continue
            self._warned.add(pid)
            callback = listeners.get(pid)
            if callback is None:
                continue
            self.kernel.machine.emit(
                "resource", "memory_warning", pid=pid, level=level
            )
            callback(level)
            sent += 1
        if sent:
            self.kernel.machine.count("resources.memory.warnings", sent)
        return sent

    def _run_evictors(self) -> int:
        """Phase 2: kernel caches (dyld shared cache) give memory back."""
        freed = 0
        for evictor in list(self.kernel.pressure_evictors):
            freed += int(evictor() or 0)
        if freed:
            self.kernel.machine.emit(
                "resource", "evicted", bytes=freed, daemon=self.name
            )
        return freed

    def handle_episode(self) -> None:
        envelope = self.envelope
        level = envelope.pressure_level()
        if level == PRESSURE_NORMAL:
            self._warned.clear()
            return
        self._send_warnings(level)
        # Warnings may have freed enough; re-check before evicting/killing.
        if envelope.pressure_level() == PRESSURE_CRITICAL:
            self._run_evictors()
        while envelope.pressure_level() == PRESSURE_CRITICAL:
            victims = self._victims()
            if not victims:
                break
            victim = victims[0]
            self._kill(
                victim,
                "jetsam: highest memory pressure",
                band=victim.jetsam_priority,
            )
            self.kernel.machine.count("resources.jetsam.kills")
        if envelope.pressure_level() == PRESSURE_NORMAL:
            self._warned.clear()


class LowMemoryKiller(_PressureDaemon):
    """Android's lowmemorykiller for the non-iOS population."""

    name = "lowmemorykiller"

    def _victims(self, min_adj: int) -> List["Process"]:
        candidates = [
            p
            for p in self.kernel.processes.live_processes()
            if _persona_name(p) != "ios" and p.oom_adj >= min_adj
        ]
        # highest badness first, then largest footprint, then lowest pid
        candidates.sort(
            key=lambda p: (-p.oom_adj, -p.address_space.total_bytes, p.pid)
        )
        return candidates

    def handle_episode(self) -> None:
        envelope = self.envelope
        while True:
            level = envelope.pressure_level()
            min_adj = _LMK_MIN_ADJ.get(level)
            if min_adj is None:  # back to normal: episode over
                return
            victims = self._victims(min_adj)
            if not victims:
                return
            victim = victims[0]
            self._kill(
                victim,
                f"lowmemorykiller: adj {victim.oom_adj} at {level} pressure",
                adj=victim.oom_adj,
            )
            self.kernel.machine.count("resources.lmk.kills")


def start_pressure_daemons(
    kernel: "Kernel",
) -> Tuple[JetsamDaemon, LowMemoryKiller]:
    """Spawn both daemons on a kernel whose machine has an envelope.

    jetsam is registered and spawned *first* so that, when one pressure
    event wakes both daemons, jetsam's episode (warnings → eviction →
    iOS kills) runs before the lowmemorykiller looks for Android victims
    — deterministically, by FIFO scheduling order.
    """
    envelope = kernel.machine.resources
    if envelope is None:
        raise ValueError(
            "start_pressure_daemons: install a ResourceEnvelope first "
            "(machine.install_resources())"
        )
    jetsam = JetsamDaemon(kernel, envelope)
    lmk = LowMemoryKiller(kernel, envelope)
    jetsam.start()
    lmk.start()
    return jetsam, lmk
