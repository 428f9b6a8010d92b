"""repro.obs — full-stack telemetry for the Cider simulation.

The observability subsystem (spans, metrics, virtual-time profiler,
exporters).  Install on a machine with::

    obs = machine.install_observatory()
    ... run workload ...
    print(text_report(obs))
    write_chrome_trace(obs, "trace.json")

Each event is counted in one place and every other view reads it: a
finished span lands once in the profiler's flame tree, which the
per-subsystem table and the ``<subsystem>.calls`` metrics sum; token
handoffs are ``Scheduler.switches``, reported since attach as
``sim.sched.switches``; every other named counter is bumped through
``Machine.count``.  The flight recorder keeps its own ring (see
:mod:`repro.obs.flightrec`).

Everything is off by default; instrumented fast paths pay exactly one
``machine.obs is None`` test, and no telemetry code ever charges the
virtual clock — enabling observability cannot perturb measured virtual
time (see ``tests/test_obs.py::TestZeroCostWhenOff``).
"""

from .causal import CausalContext, CausalTracer
from .diff import (
    assemble_trace,
    critical_path,
    format_critical_path,
    format_diff_report,
    load_trace,
    save_trace,
    trace_diff,
    trace_ids,
)
from .flightrec import FlightRecorder
from .metrics import (
    Counter,
    DEFAULT_BUCKET_BOUNDS_NS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .observatory import Observatory
from .profiler import FlameNode, Profiler, SubsystemStat, UNATTRIBUTED
from .spans import NULL_SPAN, NullSpan, Span
from .exporters import (
    chrome_trace,
    chrome_trace_world,
    histogram_report,
    text_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_chrome_trace_world,
)
from .report import artifact_summary, format_summary, run_summary, write_summary

__all__ = [
    "CausalContext",
    "CausalTracer",
    "FlightRecorder",
    "assemble_trace",
    "critical_path",
    "format_critical_path",
    "format_diff_report",
    "load_trace",
    "save_trace",
    "trace_diff",
    "trace_ids",
    "chrome_trace_world",
    "write_chrome_trace_world",
    "artifact_summary",
    "Counter",
    "DEFAULT_BUCKET_BOUNDS_NS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observatory",
    "FlameNode",
    "Profiler",
    "SubsystemStat",
    "UNATTRIBUTED",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "chrome_trace",
    "histogram_report",
    "text_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "format_summary",
    "run_summary",
    "write_summary",
]
