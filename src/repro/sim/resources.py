"""Finite resource envelopes and per-process resource limits.

The paper's costliest mechanism is memory: ~90 MB of duplicated mappings
per iOS persona (§6.2).  Real devices survive that because XNU ships
jetsam and Android ships the lowmemorykiller; this module gives the
simulated machine the *accounting* those daemons need — a machine-wide
:class:`ResourceEnvelope` (RAM, storage, graphics memory) plus POSIX
:class:`Rlimits` — while the daemons themselves live in
:mod:`repro.kernel.pressure`.

Design constraints (mirroring :mod:`repro.sim.faults`):

* **Zero-cost fast path.**  A machine without an envelope pays exactly one
  ``machine.resources is None`` test at every enforcement site (fd
  allocation, ``AddressSpace.map``, VFS writes).  The envelope itself
  **never charges virtual time** — with a generous, never-exhausted budget
  attached, charged virtual time is bit-identical to a run with no
  envelope at all (asserted in ``tests/test_resources.py``).
* **Determinism.**  All verdicts are pure functions of the reservation
  sequence; kills recorded through :meth:`ResourceEnvelope.record_kill`
  form a byte-comparable log (:meth:`ResourceEnvelope.kill_log`) so the
  same seed + workload yields identical jetsam / lowmemorykiller victim
  sequences (the DiOS reproducible-verdicts discipline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .trace import RESOURCE_CATEGORY

if TYPE_CHECKING:
    from ..hw.machine import Machine

# -- rlimits --------------------------------------------------------------------

#: POSIX resource-limit selectors (Linux numbering).
RLIMIT_NPROC = 6
RLIMIT_NOFILE = 7
RLIMIT_AS = 9

#: "No limit" — large enough that nothing sane reaches it, still an int so
#: getrlimit results render deterministically.
RLIM_INFINITY = 2**63 - 1

_KNOWN_RLIMITS = frozenset({RLIMIT_NPROC, RLIMIT_NOFILE, RLIMIT_AS})


class Rlimits:
    """Per-process soft/hard resource limits.

    Only explicitly set limits are stored; everything else reads as
    ``(RLIM_INFINITY, RLIM_INFINITY)``, which keeps the common no-limit
    process allocation-free and the :meth:`soft` fast path a dict miss.
    """

    __slots__ = ("_limits",)

    def __init__(self) -> None:
        self._limits: Dict[int, Tuple[int, int]] = {}

    def get(self, which: int) -> Tuple[int, int]:
        """getrlimit(2): returns ``(soft, hard)``."""
        if which not in _KNOWN_RLIMITS:
            raise ValueError(f"unknown rlimit {which}")
        return self._limits.get(which, (RLIM_INFINITY, RLIM_INFINITY))

    def set(self, which: int, soft: int, hard: Optional[int] = None) -> None:
        """setrlimit(2).  ``hard`` defaults to the current hard limit;
        raising soft above hard is EINVAL (the caller converts
        ``ValueError`` to the persona's errno convention)."""
        if which not in _KNOWN_RLIMITS:
            raise ValueError(f"unknown rlimit {which}")
        if hard is None:
            hard = self.get(which)[1]
        if soft < 0 or hard < 0:
            raise ValueError("negative rlimit")
        if soft > hard:
            raise ValueError(f"soft limit {soft} exceeds hard limit {hard}")
        self._limits[which] = (soft, hard)

    def soft(self, which: int) -> Optional[int]:
        """The effective soft limit, or None when unlimited (the hot-path
        query enforcement sites use)."""
        entry = self._limits.get(which)
        if entry is None or entry[0] >= RLIM_INFINITY:
            return None
        return entry[0]

    def fork_copy(self) -> "Rlimits":
        child = Rlimits()
        child._limits = dict(self._limits)
        return child

    def __repr__(self) -> str:
        return f"<Rlimits {self._limits!r}>"


# -- kill events ----------------------------------------------------------------


class KillEvent:
    """One pressure-daemon kill, as recorded in the envelope's log."""

    __slots__ = (
        "timestamp_ns",
        "daemon",
        "pid",
        "name",
        "persona",
        "reason",
        "footprint_bytes",
        "detail",
    )

    def __init__(
        self,
        timestamp_ns: float,
        daemon: str,
        pid: int,
        name: str,
        persona: str,
        reason: str,
        footprint_bytes: int,
        detail: Dict[str, object],
    ) -> None:
        self.timestamp_ns = timestamp_ns
        self.daemon = daemon
        self.pid = pid
        self.name = name
        self.persona = persona
        self.reason = reason
        self.footprint_bytes = footprint_bytes
        self.detail = detail

    def format(self) -> str:
        extras = " ".join(f"{k}={self.detail[k]}" for k in sorted(self.detail))
        return (
            f"{self.timestamp_ns:.0f} {self.daemon} pid={self.pid} "
            f"comm={self.name} persona={self.persona} "
            f"footprint={self.footprint_bytes} reason={self.reason}"
            + (f" {extras}" if extras else "")
        )

    def __repr__(self) -> str:
        return f"<KillEvent {self.format()}>"


# -- the envelope ---------------------------------------------------------------

PRESSURE_NORMAL = "normal"
PRESSURE_WARNING = "warning"
PRESSURE_CRITICAL = "critical"

_LEVEL_ORDER = {PRESSURE_NORMAL: 0, PRESSURE_WARNING: 1, PRESSURE_CRITICAL: 2}


class ResourceEnvelope:
    """A machine-wide finite resource budget.

    Attach with :meth:`repro.hw.machine.Machine.install_resources`; the
    machine then exposes the envelope as ``machine.resources`` and every
    enforcement site consults it.  Budgets of ``None`` are unlimited.

    The RAM budget drives :meth:`pressure_level`; shared mappings (the
    dyld shared cache submap) are charged once machine-wide and
    refcounted per mapping (:meth:`reserve_shared`), exactly the property
    that makes the cache cheaper than 115 individual dylib walks.
    Graphics memory bends rather than breaks: exceeding the gralloc
    budget sets :attr:`gralloc_exhausted` (SurfaceFlinger drops frames)
    instead of failing the allocation.
    """

    def __init__(
        self,
        ram_mb: Optional[int] = None,
        storage_mb: Optional[int] = None,
        gralloc_mb: Optional[int] = None,
        warning_fraction: float = 0.75,
        critical_fraction: float = 0.90,
    ) -> None:
        if not 0.0 < warning_fraction <= critical_fraction <= 1.0:
            raise ValueError("pressure thresholds must satisfy 0 < warn <= crit <= 1")
        self.ram_budget_bytes = None if ram_mb is None else ram_mb << 20
        self.storage_budget_bytes = (
            None if storage_mb is None else storage_mb << 20
        )
        self.gralloc_budget_bytes = (
            None if gralloc_mb is None else gralloc_mb << 20
        )
        self.warning_fraction = warning_fraction
        self.critical_fraction = critical_fraction

        self.ram_used = 0
        self.storage_used = 0
        self.gralloc_used = 0
        #: Refcounted machine-wide shared reservations: key -> [bytes, refs].
        self._shared: Dict[str, List[int]] = {}

        self.ram_reserve_failures = 0
        self.storage_reserve_failures = 0
        self.gralloc_exhausted = False
        #: Every pressure-daemon kill, in order (byte-comparable log).
        self.kills: List[KillEvent] = []
        self._pressure_callbacks: List[Callable[[str], None]] = []
        self._last_level = PRESSURE_NORMAL
        self._machine: Optional["Machine"] = None

    # -- attachment --------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        self._machine = machine

    def detach(self) -> None:
        """The machine is off: let go of it and of the pressure listeners
        (its kernel's daemons), each of which leads back to it.  The
        budgets and the kill log stay readable."""
        self._machine = None
        self._pressure_callbacks.clear()

    @property
    def now_ns(self) -> float:
        if self._machine is None:
            return 0.0
        return self._machine.clock.now_ns

    # -- RAM ----------------------------------------------------------------

    def reserve_ram(self, nbytes: int, owner: str = "") -> bool:
        """Charge ``nbytes`` against the RAM budget.  Returns False (and
        notifies pressure listeners) when the budget cannot cover it.
        Charges no virtual time."""
        budget = self.ram_budget_bytes
        if budget is not None and self.ram_used + nbytes > budget:
            self.ram_reserve_failures += 1
            self._emit("ram.exhausted", owner=owner, request=nbytes)
            self._notify(PRESSURE_CRITICAL)
            return False
        self.ram_used += nbytes
        self._level_check()
        return True

    def release_ram(self, nbytes: int) -> None:
        self.ram_used = max(0, self.ram_used - nbytes)
        self._level_check()

    def reserve_shared(self, key: str, nbytes: int) -> bool:
        """Refcounted machine-wide reservation (dyld shared cache): the
        first reference charges the budget, later ones only bump the
        refcount — the submap is mapped once, shared by every process."""
        entry = self._shared.get(key)
        if entry is not None:
            entry[1] += 1
            return True
        if not self.reserve_ram(nbytes, owner=f"shared:{key}"):
            return False
        self._shared[key] = [nbytes, 1]
        return True

    def release_shared(self, key: str) -> int:
        """Drop one reference; frees the budget bytes on the last one.
        Returns the bytes actually released."""
        entry = self._shared.get(key)
        if entry is None:
            return 0
        entry[1] -= 1
        if entry[1] > 0:
            return 0
        del self._shared[key]
        self.release_ram(entry[0])
        return entry[0]

    def shared_refs(self, key: str) -> int:
        entry = self._shared.get(key)
        return 0 if entry is None else entry[1]

    # -- storage -------------------------------------------------------------

    def reserve_storage(self, nbytes: int) -> bool:
        budget = self.storage_budget_bytes
        if budget is not None and self.storage_used + nbytes > budget:
            self.storage_reserve_failures += 1
            self._emit("storage.exhausted", request=nbytes)
            return False
        self.storage_used += nbytes
        return True

    def release_storage(self, nbytes: int) -> None:
        self.storage_used = max(0, self.storage_used - nbytes)

    # -- graphics memory ------------------------------------------------------

    def reserve_gralloc(self, nbytes: int) -> bool:
        """Graphics memory bends, it does not break: the reservation
        always succeeds, but crossing the budget flips
        :attr:`gralloc_exhausted` so the compositor starts dropping
        frames until buffers are released."""
        self.gralloc_used += nbytes
        budget = self.gralloc_budget_bytes
        if budget is not None and self.gralloc_used > budget:
            if not self.gralloc_exhausted:
                self.gralloc_exhausted = True
                self._emit("gralloc.exhausted", used=self.gralloc_used)
            return False
        return True

    def release_gralloc(self, nbytes: int) -> None:
        self.gralloc_used = max(0, self.gralloc_used - nbytes)
        budget = self.gralloc_budget_bytes
        if (
            self.gralloc_exhausted
            and (budget is None or self.gralloc_used <= budget)
        ):
            self.gralloc_exhausted = False
            self._emit("gralloc.recovered", used=self.gralloc_used)

    # -- pressure ------------------------------------------------------------

    def pressure_level(self) -> str:
        """The machine's memory-pressure level, from RAM budget usage."""
        budget = self.ram_budget_bytes
        if budget is None or budget == 0:
            return PRESSURE_NORMAL
        used = self.ram_used
        if used >= budget * self.critical_fraction:
            return PRESSURE_CRITICAL
        if used >= budget * self.warning_fraction:
            return PRESSURE_WARNING
        return PRESSURE_NORMAL

    def on_pressure(self, callback: Callable[[str], None]) -> None:
        """Register a callback fired (in registration order) whenever the
        pressure level rises or a RAM reservation fails — this is how the
        kill daemons are woken without polling."""
        self._pressure_callbacks.append(callback)

    def _level_check(self) -> None:
        level = self.pressure_level()
        if _LEVEL_ORDER[level] > _LEVEL_ORDER[self._last_level]:
            self._last_level = level
            self._emit("pressure." + level, ram_used=self.ram_used)
            self._notify(level)
        elif _LEVEL_ORDER[level] < _LEVEL_ORDER[self._last_level]:
            self._last_level = level

    def _notify(self, level: str) -> None:
        for callback in self._pressure_callbacks:
            callback(level)

    # -- kill bookkeeping -------------------------------------------------------

    def record_kill(
        self,
        daemon: str,
        pid: int,
        name: str,
        persona: str,
        reason: str,
        footprint_bytes: int,
        **detail: object,
    ) -> KillEvent:
        event = KillEvent(
            self.now_ns,
            daemon,
            pid,
            name,
            persona,
            reason,
            footprint_bytes,
            dict(detail),
        )
        self.kills.append(event)
        self._emit(
            daemon + ".kill",
            pid=pid,
            comm=name,
            persona=persona,
            footprint=footprint_bytes,
            reason=reason,
            **detail,
        )
        return event

    def kill_log(self) -> bytes:
        """The canonical, byte-comparable log of every pressure kill.
        Two runs over the same seed + workload produce identical logs."""
        return ("\n".join(e.format() for e in self.kills) + "\n").encode()

    def kills_by(self, daemon: str) -> List[KillEvent]:
        return [e for e in self.kills if e.daemon == daemon]

    # -- tracing -----------------------------------------------------------------

    def _emit(self, name: str, **detail: object) -> None:
        if self._machine is not None:
            self._machine.trace.emit(
                self.now_ns, RESOURCE_CATEGORY, name, **detail
            )

    def __repr__(self) -> str:
        return (
            f"<ResourceEnvelope ram={self.ram_used}/{self.ram_budget_bytes} "
            f"level={self.pressure_level()} kills={len(self.kills)}>"
        )
