"""Virtual time.

All simulated work is accounted against a :class:`VirtualClock` in
nanoseconds.  The clock only moves when the currently running simulated
thread charges time to it, or when the scheduler fast-forwards to the next
timer deadline because every thread is asleep.  Measurements taken from the
clock are therefore exact and perfectly reproducible: running the same
workload twice yields bit-identical timings.

Representation
--------------

The public API speaks float nanoseconds (cost-model entries are fractional
— ``op_int_add`` is 0.8 ns), but internally the clock accumulates integer
**picoseconds**.  Each ``charge(ns)`` is rounded once, to the picosecond,
at the point of entry; from then on all arithmetic is exact integer math.
This guarantees that trace timestamps and accumulated totals are
byte-identical across platforms and immune to float-summation
order-sensitivity, while keeping full fidelity for sub-nanosecond costs
(0.001 ns resolution).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .errors import ClockError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.profiler import Profiler

NSEC_PER_USEC = 1_000
NSEC_PER_MSEC = 1_000_000
NSEC_PER_SEC = 1_000_000_000

#: Internal clock resolution: integer picoseconds per nanosecond.
PSEC_PER_NSEC = 1_000


def ns_to_ps(ns: float) -> int:
    """Round a float nanosecond quantity to integer picoseconds."""
    return round(ns * PSEC_PER_NSEC)


class VirtualClock:
    """A monotonically increasing virtual nanosecond counter.

    :meth:`charge_ps` is the definition of a charge: add the amount to
    the now and charged totals, then tell the attached profiler.  One
    place outside this class applies that definition itself:
    :meth:`repro.kernel.kernel.Kernel.trap` advances the clock by its
    entry, dispatch and exit amounts, which are resolved at boot and
    never negative.  Every simulated syscall pays those three, and as
    calls they were three of a Mach-O null syscall's ten Python calls.
    Everything else charges through the methods.
    """

    __slots__ = ("_now_ps", "_charged_ps", "profiler")

    def __init__(self) -> None:
        self._now_ps: int = 0
        self._charged_ps: int = 0
        #: Observability hook: when a profiler is attached, every charge is
        #: attributed to the innermost open span of the current simulated
        #: thread.  None on the fast path — exactly one test per charge,
        #: the same discipline as ``Machine.faults`` / ``Trace.enabled``.
        self.profiler: Optional["Profiler"] = None

    @property
    def now_ns(self) -> float:
        """Current virtual time in nanoseconds since boot."""
        return self._now_ps / PSEC_PER_NSEC

    @property
    def now_ps(self) -> int:
        """Current virtual time in integer picoseconds (exact)."""
        return self._now_ps

    @property
    def now_ns_int(self) -> int:
        """Current virtual time rounded to integer nanoseconds.

        This is what :class:`~repro.sim.trace.Trace` stamps on events so
        that trace logs render byte-identically on every platform.
        """
        return (self._now_ps + PSEC_PER_NSEC // 2) // PSEC_PER_NSEC

    @property
    def charged_ns(self) -> float:
        """Total time charged through :meth:`charge` (excludes jumps)."""
        return self._charged_ps / PSEC_PER_NSEC

    @property
    def charged_ps(self) -> int:
        """Exact integer-picosecond total charged through :meth:`charge`."""
        return self._charged_ps

    def charge(self, ns: float) -> None:
        """Advance the clock by ``ns`` nanoseconds of simulated work."""
        if ns < 0:
            raise ClockError(f"cannot charge negative time: {ns}")
        ps = round(ns * PSEC_PER_NSEC)
        self._now_ps += ps
        self._charged_ps += ps
        if self.profiler is not None:
            self.profiler.on_charge(ps)

    def charge_ps(self, ps: int) -> None:
        """Advance the clock by an exact, *pre-rounded* picosecond amount.

        This is the hot-path twin of :meth:`charge`: callers that resolved
        a cost name to integer picoseconds once (``Machine`` compiles its
        device cost profile at boot) skip the per-call float multiply and
        rounding entirely.  Bit-identity contract: ``charge_ps(ns_to_ps(x))``
        advances the clock by exactly the same amount as ``charge(x)``.
        """
        if ps < 0:
            raise ClockError(f"cannot charge negative time: {ps}ps")
        self._now_ps += ps
        self._charged_ps += ps
        if self.profiler is not None:
            self.profiler.on_charge(ps)

    def jump_to(self, deadline_ns: float) -> None:
        """Fast-forward to ``deadline_ns`` (scheduler use only)."""
        ps = round(deadline_ns * PSEC_PER_NSEC)
        if ps < self._now_ps:
            # Deadlines are computed in float ns (now_ns + delay); for
            # virtual times beyond 2**53 ps the round-trip through float
            # can land a hair below the exact integer now.  Tolerate that
            # and clamp; reject genuinely backwards jumps.
            if deadline_ns >= self.now_ns:
                ps = self._now_ps
            else:
                raise ClockError(
                    f"cannot jump backwards: now={self.now_ns} "
                    f"target={deadline_ns}"
                )
        self._now_ps = ps


class Stopwatch:
    """Measures elapsed virtual time between two points.

    >>> watch = Stopwatch(clock)
    >>> ... simulated work ...
    >>> elapsed = watch.elapsed_ns()
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._start_ps = clock.now_ps

    def restart(self) -> None:
        self._start_ps = self._clock.now_ps

    def elapsed_ns(self) -> float:
        return (self._clock.now_ps - self._start_ps) / PSEC_PER_NSEC

    def elapsed_us(self) -> float:
        return self.elapsed_ns() / NSEC_PER_USEC

    def elapsed_ms(self) -> float:
        return self.elapsed_ns() / NSEC_PER_MSEC
