"""Deterministic discrete-cost simulation substrate.

This package is OS-agnostic: it provides virtual time, a cooperative
deterministic scheduler, structured tracing and the named cost model that
the simulated kernels and user spaces charge work against.
"""

from .clock import (
    NSEC_PER_MSEC,
    NSEC_PER_SEC,
    NSEC_PER_USEC,
    PSEC_PER_NSEC,
    Stopwatch,
    VirtualClock,
)
from .costs import DEFAULT_COSTS, CostModel, UnknownCostError
from .errors import (
    ClockError,
    DeadlockError,
    MachinePanic,
    SchedulerError,
    SimulationError,
    ThreadKilled,
    TraceDisabledError,
)
from .faults import (
    FAULT_CATEGORY,
    INJECTION_POINTS,
    FaultEvent,
    FaultOutcome,
    FaultPlan,
    FaultRule,
    chaos_plan,
)
from .resources import (
    PRESSURE_CRITICAL,
    PRESSURE_NORMAL,
    PRESSURE_WARNING,
    RESOURCE_CATEGORY,
    RLIM_INFINITY,
    RLIMIT_AS,
    RLIMIT_NOFILE,
    RLIMIT_NPROC,
    KillEvent,
    ResourceEnvelope,
    Rlimits,
)
from .explore import (
    Exploration,
    ExploreError,
    FifoPolicy,
    HBMonitor,
    ReplayPolicy,
    SchedulePolicy,
    SeededRandomPolicy,
    deviations,
    explore,
    trace_signature,
)
from .parallel import (
    WorkerError,
    default_jobs,
    fork_available,
    parse_jobs,
    run_cases,
)
from .scheduler import Scheduler, SimThread, ThreadState, WaitQueue
from .snapshot import (
    Snapshot,
    SnapshotCache,
    SnapshotError,
    assert_quiescent,
    snapshot_systems,
)
from .trace import Trace, TraceEvent

__all__ = [
    "FAULT_CATEGORY",
    "INJECTION_POINTS",
    "FaultEvent",
    "FaultOutcome",
    "FaultPlan",
    "FaultRule",
    "chaos_plan",
    "NSEC_PER_MSEC",
    "NSEC_PER_SEC",
    "NSEC_PER_USEC",
    "PSEC_PER_NSEC",
    "Stopwatch",
    "VirtualClock",
    "DEFAULT_COSTS",
    "CostModel",
    "UnknownCostError",
    "ClockError",
    "DeadlockError",
    "MachinePanic",
    "SchedulerError",
    "SimulationError",
    "ThreadKilled",
    "TraceDisabledError",
    "PRESSURE_CRITICAL",
    "PRESSURE_NORMAL",
    "PRESSURE_WARNING",
    "RESOURCE_CATEGORY",
    "RLIM_INFINITY",
    "RLIMIT_AS",
    "RLIMIT_NOFILE",
    "RLIMIT_NPROC",
    "KillEvent",
    "ResourceEnvelope",
    "Rlimits",
    "Exploration",
    "ExploreError",
    "FifoPolicy",
    "HBMonitor",
    "ReplayPolicy",
    "SchedulePolicy",
    "SeededRandomPolicy",
    "deviations",
    "explore",
    "trace_signature",
    "Scheduler",
    "SimThread",
    "ThreadState",
    "WaitQueue",
    "Snapshot",
    "SnapshotCache",
    "SnapshotError",
    "assert_quiescent",
    "snapshot_systems",
    "WorkerError",
    "default_jobs",
    "fork_available",
    "parse_jobs",
    "run_cases",
    "Trace",
    "TraceEvent",
]
