"""repro.net.resilience: one client-side fault-tolerance policy engine.

Both persona fetch APIs — iOS's ``NSURLSession`` (CFNetwork) and
Android's ``HttpURLConnection`` (java.net) — delegate their transport
retries to the *same* engine below, the client-side mirror of the
kernel's shared socket implementation: fault-tolerance policy is part of
the pass-through surface, not a per-persona subsystem.  The engine:

* **retries with deterministic exponential backoff** — base delay
  doubling per attempt, plus *seeded* jitter drawn from the engine's own
  ``random.Random`` (per-process state, so the same seed replays the
  same jitter sequence on either persona — byte-identical packet logs);
* **spends a retry budget** — a per-process cap on total extra attempts,
  so a flapping link cannot amplify one workload into a retry storm;
* **runs a per-host circuit breaker** — CLOSED → OPEN after
  ``breaker_threshold`` consecutive failures (further fetches fast-fail
  with ECONNREFUSED, no wire traffic), OPEN → HALF_OPEN after a cooldown
  (exactly one probe request allowed), HALF_OPEN → CLOSED on probe
  success / back to OPEN on probe failure.  Every transition is recorded
  in a byte-comparable ``transitions`` list, emitted as a trace event,
  and linked into the causal graph with a follows-from edge;
* **hedges slow reads** — once ``hedge_min_samples`` latencies are
  recorded per host, a failed attempt that ran longer than the host's
  p95 retries *immediately* (the hedge) instead of paying backoff: the
  cooperative-sim rendering of "fire a second request after a
  p95-derived delay";
* **arms kernel deadlines** — ``request_timeout_ns`` plumbs
  SO_RCVTIMEO/SO_SNDTIMEO onto every request socket via ``http_get``, so
  a partitioned origin surfaces a typed errno in bounded virtual time.

Virtual-time footprint: the happy path adds **zero** charges — policy
checks are dict lookups and clock reads.  Backoff sleeps go through the
persona's own libc (``nanosleep`` / ``sleep_ns``), one trap either way,
so the paper's persona delta stays exactly
``n_xnu_traps x xnu_translate_syscall``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..kernel.errno import ECONNREFUSED
from .http import HTTPD_PORT, http_get

if TYPE_CHECKING:
    from ..kernel.process import UserContext

LIB_STATE_KEY = "repro.net.resilience"

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Latency samples kept per host for the p95 hedge delay.
MAX_SAMPLES = 64


class ResiliencePolicy:
    """Tunable knobs, all virtual-time or count valued (no wall clock)."""

    __slots__ = (
        "max_attempts",
        "backoff_base_ns",
        "backoff_multiplier",
        "jitter",
        "retry_budget",
        "breaker_threshold",
        "breaker_cooldown_ns",
        "hedge_min_samples",
        "request_timeout_ns",
        "seed",
    )

    def __init__(
        self,
        max_attempts: int = 3,
        backoff_base_ns: float = 2_000_000.0,
        backoff_multiplier: float = 2.0,
        jitter: float = 0.1,
        retry_budget: int = 16,
        breaker_threshold: int = 3,
        breaker_cooldown_ns: float = 50_000_000.0,
        hedge_min_samples: int = 8,
        request_timeout_ns: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        self.max_attempts = max_attempts
        self.backoff_base_ns = backoff_base_ns
        self.backoff_multiplier = backoff_multiplier
        self.jitter = jitter
        self.retry_budget = retry_budget
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_ns = breaker_cooldown_ns
        self.hedge_min_samples = hedge_min_samples
        self.request_timeout_ns = request_timeout_ns
        self.seed = seed


class FetchResult:
    """What a resilient fetch resolved to (``status < 0`` == failure,
    with the final errno and how hard the engine tried)."""

    __slots__ = ("status", "body", "errno", "attempts", "hedged", "fastfail")

    def __init__(
        self,
        status: int,
        body: bytes,
        errno: int = 0,
        attempts: int = 0,
        hedged: bool = False,
        fastfail: bool = False,
    ) -> None:
        self.status = status
        self.body = body
        self.errno = errno
        self.attempts = attempts
        self.hedged = hedged
        self.fastfail = fastfail

    @property
    def ok(self) -> bool:
        return self.status >= 0

    def __repr__(self) -> str:
        return (
            f"<FetchResult status={self.status} errno={self.errno}"
            f" attempts={self.attempts}"
            f"{' hedged' if self.hedged else ''}"
            f"{' fastfail' if self.fastfail else ''}>"
        )


class _HostState:
    __slots__ = ("state", "consecutive_failures", "opened_at_ns", "samples")

    def __init__(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_ns = 0.0
        self.samples: List[float] = []


class ResilienceEngine:
    """Per-process policy engine (``ctx.lib_state`` keeps exactly one
    per process, like Bionic/libSystem keep their handler lists)."""

    def __init__(self, policy: Optional[ResiliencePolicy] = None) -> None:
        self.policy = policy or ResiliencePolicy()
        self.rng = random.Random(self.policy.seed)
        self.hosts: Dict[str, _HostState] = {}
        #: Byte-comparable breaker history:
        #: ``(now_ns, host, old_state, new_state, why)``.
        self.transitions: List[Tuple[int, str, str, str, str]] = []
        self.retries_spent = 0
        self.hedges = 0
        self.fastfails = 0

    # -- plumbing -----------------------------------------------------------

    @classmethod
    def shared(
        cls, ctx: "UserContext", policy: Optional[ResiliencePolicy] = None
    ) -> "ResilienceEngine":
        """The process's engine; ``policy`` (when given) replaces it —
        call once at workload start to configure, then everywhere else
        parameterless."""
        state = ctx.lib_state(LIB_STATE_KEY)
        engine = state.get("engine")
        if engine is None or policy is not None:
            engine = state["engine"] = cls(policy)
        return engine

    def _host(self, host: str) -> _HostState:
        hs = self.hosts.get(host)
        if hs is None:
            hs = self.hosts[host] = _HostState()
        return hs

    def _transition(
        self, ctx: "UserContext", host: str, hs: _HostState, new: str, why: str
    ) -> None:
        machine = ctx.machine
        now = int(machine.clock.now_ns)
        old, hs.state = hs.state, new
        if new == OPEN:
            hs.opened_at_ns = machine.clock.now_ns
        self.transitions.append((now, host, old, new, why))
        machine.emit(
            "resilience", "breaker", host=host, old=old, new=new, why=why
        )
        machine.count("resilience.breaker_transitions")
        obs = machine.obs
        if obs is not None and obs.causal is not None:
            obs.causal.follow(f"breaker {host} {old}->{new}")

    def _sleep(self, ctx: "UserContext", ns: float) -> None:
        libc = ctx.libc
        nanosleep = getattr(libc, "nanosleep", None)
        if nanosleep is not None:
            nanosleep(ns)
        else:
            libc.sleep_ns(ns)  # libSystem spelling — one trap either way

    def _p95(self, hs: _HostState) -> Optional[float]:
        if len(hs.samples) < self.policy.hedge_min_samples:
            return None
        ordered = sorted(hs.samples)
        rank = max(0, -(-95 * len(ordered) // 100) - 1)  # nearest-rank
        return ordered[rank]

    # -- the resilient fetch ------------------------------------------------

    def fetch(
        self,
        ctx: "UserContext",
        host: str,
        path: str,
        port: int = HTTPD_PORT,
    ) -> FetchResult:
        policy = self.policy
        machine = ctx.machine
        hs = self._host(host)
        clock = machine.clock
        # Breaker gate: OPEN fast-fails without touching the wire until
        # the cooldown elapses, then HALF_OPEN admits exactly one probe.
        if hs.state == OPEN:
            if clock.now_ns - hs.opened_at_ns >= policy.breaker_cooldown_ns:
                self._transition(ctx, host, hs, HALF_OPEN, "cooldown elapsed")
            else:
                self.fastfails += 1
                machine.count("resilience.fastfails")
                return FetchResult(
                    -1, b"", errno=ECONNREFUSED, attempts=0, fastfail=True
                )
        allowed = 1 if hs.state == HALF_OPEN else policy.max_attempts
        attempt = 0
        hedged = False
        errno = 0
        while True:
            attempt += 1
            start_ns = clock.now_ns
            status, body = http_get(
                ctx, host, path, port, timeout_ns=policy.request_timeout_ns
            )
            elapsed_ns = clock.now_ns - start_ns
            if status >= 0:
                if hs.state == HALF_OPEN:
                    self._transition(ctx, host, hs, CLOSED, "probe succeeded")
                hs.consecutive_failures = 0
                if len(hs.samples) >= MAX_SAMPLES:
                    del hs.samples[0]
                hs.samples.append(elapsed_ns)
                return FetchResult(
                    status, body, attempts=attempt, hedged=hedged
                )
            errno = ctx.libc.errno
            hs.consecutive_failures += 1
            machine.count("resilience.attempt_failures")
            if hs.state == HALF_OPEN:
                self._transition(ctx, host, hs, OPEN, "probe failed")
                break
            if hs.consecutive_failures >= policy.breaker_threshold:
                self._transition(
                    ctx, host, hs, OPEN,
                    f"{hs.consecutive_failures} consecutive failures",
                )
                break
            if attempt >= allowed:
                break
            if self.retries_spent >= policy.retry_budget:
                machine.emit("resilience", "budget_exhausted", host=host)
                break
            self.retries_spent += 1
            obs = machine.obs
            if obs is not None and obs.causal is not None:
                obs.causal.follow(f"retry {host}{path} #{attempt + 1}")
            p95 = self._p95(hs)
            if p95 is not None and elapsed_ns > p95:
                # Hedge: the attempt already overshot the host's p95 —
                # go again immediately instead of backing off further.
                hedged = True
                self.hedges += 1
                machine.count("resilience.hedges")
                continue
            backoff_ns = policy.backoff_base_ns * (
                policy.backoff_multiplier ** (attempt - 1)
            )
            backoff_ns += backoff_ns * policy.jitter * self.rng.random()
            self._sleep(ctx, backoff_ns)
        return FetchResult(
            -1, b"", errno=errno, attempts=attempt, hedged=hedged
        )

    # -- reporting ----------------------------------------------------------

    def transition_log(self) -> List[str]:
        """Human-readable, byte-comparable breaker history."""
        return [
            f"{now}ns {host} {old}->{new} ({why})"
            for now, host, old, new, why in self.transitions
        ]

    def summary(self) -> Dict[str, int]:
        return {
            "retries_spent": self.retries_spent,
            "hedges": self.hedges,
            "fastfails": self.fastfails,
            "breaker_transitions": len(self.transitions),
            "hosts": len(self.hosts),
        }
