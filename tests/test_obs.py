"""Tests for repro.obs — spans, metrics, virtual-time profiler, exporters.

Covers the acceptance criteria of the observability tentpole:

* zero-cost-when-off: an identical workload charges bit-identical virtual
  time with and without an observatory installed;
* conservation: with observability on, per-subsystem self time plus
  unattributed plus still-open span self time equals the clock's charged
  total *exactly* (integer picoseconds);
* the Chrome trace-event export is well-formed (nested, balanced B/E
  pairs per tid, monotonic timestamps) for a two-persona workload;
* spans never leak open, even when injected faults abort a syscall
  mid-flight;
* Trace ring-buffer overflow keeps counters exact, and reading events
  from a never-enabled trace raises TraceDisabledError.
"""

import json

import pytest

from repro.cider.system import build_cider
from repro.kernel.errno import EIO, ENOENT
from repro.obs import (
    DEFAULT_BUCKET_BOUNDS_NS,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    Observatory,
    Profiler,
    UNATTRIBUTED,
    chrome_trace,
    format_summary,
    histogram_report,
    run_summary,
    text_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Trace, TraceDisabledError
from repro.sim.faults import FaultOutcome, FaultPlan

from .helpers import run_elf, run_macho


# ---------------------------------------------------------------------------
# Profiler unit tests (no machine needed).
# ---------------------------------------------------------------------------


class TestSpanMath:
    def test_nested_self_and_total(self):
        prof = Profiler()
        outer = prof.enter_span("outer", "", None, 0)
        prof.on_charge(100)
        inner = prof.enter_span("inner", "", None, 100)
        prof.on_charge(40)
        prof.exit_span(inner, 140)
        prof.on_charge(10)
        prof.exit_span(outer, 150)

        assert inner.self_ps == 40
        assert inner.total_ps == 40
        assert outer.self_ps == 110
        assert outer.child_ps == 40
        assert outer.total_ps == 150
        assert inner.depth == 1 and outer.depth == 0
        assert inner.path() == ("outer", "inner")

    def test_subsystem_table_aggregates_and_sorts(self):
        prof = Profiler()
        for cost in (5, 7):
            span = prof.enter_span("light", "", None, 0)
            prof.on_charge(cost)
            prof.exit_span(span, cost)
        heavy = prof.enter_span("heavy", "", None, 0)
        prof.on_charge(1000)
        prof.exit_span(heavy, 1000)

        table = prof.subsystem_table()
        assert [s.subsystem for s in table] == ["heavy", "light"]
        light = table[1]
        assert light.calls == 2
        assert light.self_ps == 12
        assert prof.conservation_check()

    def test_unattributed_charges(self):
        prof = Profiler()
        prof.on_charge(33)
        span = prof.enter_span("s", "", None, 33)
        prof.on_charge(7)
        prof.exit_span(span, 40)
        assert prof.unattributed_ps == 33
        assert prof.observed_ps == 40
        assert prof.conservation_check()

    def test_exit_unwinds_abandoned_inner_spans(self):
        """An exception that skips an inner span's close must not leak it:
        closing the outer span force-closes everything above it."""
        prof = Profiler()
        outer = prof.enter_span("outer", "", None, 0)
        inner = prof.enter_span("inner", "", None, 0)
        prof.on_charge(5)
        prof.exit_span(outer, 5)  # inner never closed explicitly
        assert prof.open_span_count() == 0
        assert inner.closed and outer.closed
        assert outer.child_ps == 5
        assert prof.conservation_check()

    def test_exit_is_idempotent(self):
        prof = Profiler()
        span = prof.enter_span("s", "", None, 0)
        prof.exit_span(span, 1)
        prof.exit_span(span, 2)  # second close: no-op
        stat = prof.subsystem_table()[0]
        assert stat.calls == 1

    def test_flame_rows_fold_paths(self):
        prof = Profiler()
        a = prof.enter_span("a", "", None, 0)
        b = prof.enter_span("b", "", None, 0)
        prof.on_charge(4)
        prof.exit_span(b, 4)
        prof.exit_span(a, 4)
        rows = prof.flame_rows()
        assert ("a", 1, 0, 4) in rows
        assert ("a;b", 1, 4, 4) in rows


# ---------------------------------------------------------------------------
# Metrics registry.
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("x.calls").inc()
        reg.counter("x.calls").inc(4)
        reg.gauge("x.bytes").set(90)
        snap = reg.snapshot()
        assert snap["x.calls"]["value"] == 5
        assert snap["x.bytes"]["value"] == 90

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_histogram_percentiles_deterministic(self):
        h = Histogram("lat")
        for ns in (150, 150, 150, 900, 50_000):
            h.record(ns)
        # Percentile = upper bound of the bucket holding the ceil-rank
        # sample, so results are platform-independent integers.
        assert h.percentile(0.50) in DEFAULT_BUCKET_BOUNDS_NS
        assert h.percentile(0.50) >= 150
        assert h.percentile(0.99) >= 50_000
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 150 and snap["max"] == 50_000

    def test_registry_diff(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        before = reg.snapshot()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        after = reg.snapshot()
        diff = MetricsRegistry.diff(before, after)
        assert diff["c"] == {"type": "counter", "delta": 3}
        assert diff["g"] == {"type": "gauge", "value": 7}


# ---------------------------------------------------------------------------
# Whole-system workloads.
# ---------------------------------------------------------------------------


def _two_persona_workload(install_obs):
    """Boot Cider, optionally install an observatory, run one ELF and one
    Mach-O program (two personas), return (charged_ps_delta, obs)."""
    system = build_cider()
    try:
        obs = system.machine.install_observatory() if install_obs else None
        start_ps = system.machine.clock.charged_ps
        assert system.run_program("/system/bin/hello") == 0
        assert system.run_program("/bin/hello-ios") == 0
        delta_ps = system.machine.clock.charged_ps - start_ps
        return delta_ps, obs, system
    except BaseException:
        system.shutdown()
        raise


class TestZeroCostWhenOff:
    def test_observatory_does_not_perturb_virtual_time(self):
        """Bit-identical charged virtual time with telemetry on and off."""
        plain_ps, _, system_a = _two_persona_workload(install_obs=False)
        system_a.shutdown()
        observed_ps, obs, system_b = _two_persona_workload(install_obs=True)
        system_b.shutdown()
        assert obs is not None
        assert plain_ps == observed_ps

    def test_null_span_fast_path(self):
        system = build_cider()
        try:
            machine = system.machine
            assert machine.obs is None
            span_cm = machine.span("anything", "x", k=1)
            assert span_cm is NULL_SPAN
            with span_cm:  # usable as a context manager, does nothing
                pass
            obs = machine.install_observatory()
            assert machine.span("s") is not NULL_SPAN
            machine.clear_observatory()
            assert machine.obs is None
            assert machine.clock.profiler is None
            assert machine.span("s") is NULL_SPAN
            assert obs.profiler.conservation_check()
        finally:
            system.shutdown()


class TestConservation:
    def test_self_time_sums_exactly_to_charged(self):
        delta_ps, obs, system = _two_persona_workload(install_obs=True)
        try:
            prof = obs.profiler
            # Every charged picosecond since attach is observed...
            assert prof.observed_ps == delta_ps
            assert obs.profiled_ps() == delta_ps
            # ...and attributed exactly once: closed-span self time +
            # unattributed + still-open span self time == charged total.
            assert prof.conservation_check()
            closed_self = sum(s.self_ps for s in prof.subsystem_table())
            assert (
                closed_self + prof.unattributed_ps + prof.open_self_ps()
                == delta_ps
            )
        finally:
            system.shutdown()

    def test_expected_subsystems_present(self):
        _, obs, system = _two_persona_workload(install_obs=True)
        try:
            subsystems = {s.subsystem for s in obs.profiler.subsystem_table()}
            for expected in (
                "kernel.trap",
                "kernel.vfs.lookup",
                "ios.dyld.load",
                "ios.dyld.walk",
            ):
                assert expected in subsystems, expected
            # dyld's filesystem walk nests VFS time under it in the flame
            # tree (the §6.2 exec-cost story, now directly visible).
            paths = [row[0] for row in obs.profiler.flame_rows()]
            assert any(
                "ios.dyld.load;ios.dyld.walk;kernel.vfs.lookup" in p
                for p in paths
            )
            counters = obs.metrics.snapshot()
            assert counters["ios.dyld.libs.loaded"]["value"] > 100
            assert counters["sim.sched.switches"]["value"] > 0
            assert counters["kernel.trap.calls"]["value"] > 0
        finally:
            system.shutdown()

    def test_diplomat_call_spans_persona_switches(self):
        """A diplomatic call shows up as a diplomacy.call span with the
        two persona switches nested under it (the paper's Figure 4)."""
        from repro.diplomacy.diplomat import Diplomat

        system = build_cider()
        try:
            obs = system.machine.install_observatory()

            def body(ctx):
                diplomat = Diplomat(
                    "_gralloc_alloc", "libgralloc.so", "gralloc_alloc"
                )
                diplomat(ctx, 8, 8)
                return 0

            run_macho(system, body)
            subsystems = {s.subsystem for s in obs.profiler.subsystem_table()}
            assert "diplomacy.call" in subsystems
            assert "persona.switch" in subsystems
            paths = [row[0] for row in obs.profiler.flame_rows()]
            assert any(
                "diplomacy.call;kernel.trap;persona.switch" in p
                for p in paths
            ), paths
        finally:
            system.shutdown()


class TestChromeTrace:
    def test_repeated_run_exports_identical_trace(self):
        """Thread ids (trace ``tid``) are numbered per machine, so the
        same profiled run done twice in one process exports the same
        Chrome trace byte for byte."""
        blobs = []
        for _ in range(2):
            _, obs, system = _two_persona_workload(install_obs=True)
            try:
                blobs.append(json.dumps(chrome_trace(obs), sort_keys=True))
            finally:
                system.shutdown()
        assert blobs[0] == blobs[1]

    def test_two_persona_trace_is_well_formed(self):
        _, obs, system = _two_persona_workload(install_obs=True)
        try:
            trace = chrome_trace(obs)
            assert validate_chrome_trace(trace) == []
            # Round-trips through JSON (what chrome://tracing loads).
            blob = json.dumps(trace, sort_keys=True)
            again = json.loads(blob)
            assert validate_chrome_trace(again) == []
            names = {
                e["name"]
                for e in again["traceEvents"]
                if e["ph"] == "B" and "name" in e
            }
            # Both personas ran: a Mach-O (xnu ABI) trap and an ELF
            # (linux ABI) trap.
            assert "kernel.trap:xnu" in names
            assert "kernel.trap:linux" in names
            assert any(n.startswith("ios.dyld.load") for n in names)
        finally:
            system.shutdown()

    def test_write_chrome_trace_file(self, tmp_path):
        _, obs, system = _two_persona_workload(install_obs=True)
        try:
            out = tmp_path / "trace.json"
            write_chrome_trace(obs, str(out))
            loaded = json.loads(out.read_text())
            assert validate_chrome_trace(loaded) == []
            assert loaded["otherData"]["droppedSpanEvents"] == 0
        finally:
            system.shutdown()

    def test_validator_catches_imbalance(self):
        bad = {
            "traceEvents": [
                {"ph": "B", "pid": 1, "tid": 1, "ts": 0.0, "name": "x"},
                {"ph": "E", "pid": 1, "tid": 1, "ts": 1.0},
                {"ph": "E", "pid": 1, "tid": 1, "ts": 0.5},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert any("E without open B" in p for p in problems)
        assert any("ts moves backwards" in p for p in problems)


class TestSpanClosureUnderFaults:
    def test_fault_aborted_syscall_closes_spans(self):
        """A fault that aborts a VFS lookup mid-syscall must unwind every
        open span — no leaked open spans, conservation still exact."""
        system = build_cider()
        try:
            obs = system.machine.install_observatory()
            plan = system.machine.install_fault_plan(FaultPlan(seed=3))
            plan.rule(
                "vfs.lookup",
                FaultOutcome.errno(EIO),
                predicate=lambda d: d.get("path") == "/tmp/faulty",
                max_fires=1,
            )

            def body(ctx):
                fd = ctx.libc.open("/tmp/faulty")
                return fd, ctx.libc.errno

            fd, errno = run_elf(system, body)
            assert fd == -1 and errno == EIO
            open_subsystems = {
                s.subsystem for s in obs.profiler.open_spans()
            }
            # Daemon service loops legitimately park inside a receive
            # span; nothing from the aborted syscall path may linger.
            assert "kernel.trap" not in open_subsystems
            assert "kernel.vfs.lookup" not in open_subsystems
            assert obs.profiler.conservation_check()
        finally:
            system.shutdown()

    def test_dyld_fault_during_exec_closes_spans(self):
        """Aborting a library load kills the exec deep inside nested
        dyld/VFS spans; all of them must be closed afterwards."""
        system = build_cider()
        try:
            system.kernel.contain_crashes = True
            obs = system.machine.install_observatory()
            plan = system.machine.install_fault_plan(FaultPlan(seed=5))
            plan.rule(
                "dyld.load",
                FaultOutcome.errno(ENOENT),
                max_fires=1,
            )
            code = system.run_program("/bin/hello-ios")
            assert code != 0  # the exec died
            assert plan.fired == 1
            open_subsystems = {
                s.subsystem for s in obs.profiler.open_spans()
            }
            for forbidden in (
                "kernel.trap",
                "ios.dyld.load",
                "ios.dyld.walk",
                "kernel.vfs.lookup",
            ):
                assert forbidden not in open_subsystems, forbidden
            assert obs.profiler.conservation_check()
        finally:
            system.shutdown()


class TestSpanClosureUnderPressure:
    def test_jetsam_kill_mid_receive_closes_spans(self):
        """jetsam reaping a process parked deep inside a mach receive must
        unwind every one of its open spans; picosecond conservation stays
        exact across the kill."""
        from repro.binfmt import elf_executable, macho_executable
        from repro.sim import ResourceEnvelope

        system = build_cider()
        try:
            obs = system.machine.install_observatory()
            system.machine.install_resources(ResourceEnvelope(ram_mb=512))
            kernel = system.kernel
            kernel.start_pressure_daemons()

            def victim_body(ctx, argv):
                ctx.process.address_space.map(
                    "cache", 64 << 20, writable=True
                )
                _kr, name = ctx.libc.mach_port_allocate()
                ctx.libc.mach_msg_receive(name)  # parks forever
                return 0

            kernel.vfs.install_binary(
                "/bin/victim", macho_executable("victim", victim_body)
            )
            kernel.start_process("/bin/victim", name="victim", daemon=True)

            def hog_body(ctx, argv):
                from repro.kernel.errno import SyscallError

                chunks = 0
                while True:
                    try:
                        ctx.process.address_space.map(
                            f"hog_{chunks}", 8 << 20, writable=True
                        )
                    except SyscallError:
                        break
                    chunks += 1
                for _ in range(4):
                    ctx.libc.nanosleep(1_000_000.0)
                return chunks

            kernel.vfs.install_binary(
                "/system/bin/hog", elf_executable("hog", hog_body)
            )
            hog = kernel.start_process("/system/bin/hog", name="hog")
            system.wait_for(hog)

            envelope = system.machine.resources
            assert [e.name for e in envelope.kills_by("jetsam")] == [
                "victim"
            ]
            # Live daemons legitimately park inside receive spans; nothing
            # belonging to the killed process may remain open.
            victim_spans = [
                s for s in obs.profiler.open_spans()
                if "victim" in s.thread_name
            ]
            assert victim_spans == []
            # Every charged picosecond — including those spent inside the
            # aborted receive — is still attributed exactly once.
            assert obs.profiler.conservation_check()
        finally:
            system.shutdown()


# ---------------------------------------------------------------------------
# Span-event ring buffer + reports.
# ---------------------------------------------------------------------------


class TestSpanEventBuffer:
    def test_overflow_counts_dropped_events(self):
        system = build_cider()
        try:
            obs = system.machine.install_observatory(
                Observatory(max_span_events=8)
            )
            run_macho(system, lambda ctx: 0)
            assert len(obs.span_events) == 8
            assert obs.dropped_span_events > 0
            # Profiler aggregation is unaffected by event drops.
            assert obs.profiler.conservation_check()
        finally:
            system.shutdown()


class TestReports:
    def test_text_and_histogram_reports(self):
        _, obs, system = _two_persona_workload(install_obs=True)
        try:
            report = text_report(obs)
            assert "SUBSYSTEM" in report
            assert "ios.dyld.load" in report
            assert UNATTRIBUTED in report
            hist = histogram_report(obs)
            assert "kernel.trap.ns" in hist
            summary = run_summary(system.machine, obs, label="two-persona")
            assert summary["conservation_ok"] is True
            assert summary["label"] == "two-persona"
            json.dumps(summary, sort_keys=True)  # must be serialisable
            assert "two-persona" in format_summary(summary)
        finally:
            system.shutdown()

    def test_reports_are_deterministic(self):
        _, obs_a, sys_a = _two_persona_workload(install_obs=True)
        text_a = text_report(obs_a)
        snap_a = obs_a.metrics.snapshot()
        sys_a.shutdown()
        _, obs_b, sys_b = _two_persona_workload(install_obs=True)
        text_b = text_report(obs_b)
        snap_b = obs_b.metrics.snapshot()
        sys_b.shutdown()
        assert text_a == text_b
        assert snap_a == snap_b
        assert MetricsRegistry.diff(snap_a, snap_b) == {}


# ---------------------------------------------------------------------------
# Trace satellites: ring-buffer overflow and TraceDisabledError.
# ---------------------------------------------------------------------------


class TestTraceRingBuffer:
    def test_overflow_keeps_counters_exact(self):
        trace = Trace(capacity=8)
        trace.enabled = True
        for i in range(20):
            trace.emit(float(i), "syscall", "open", seq=i)
        assert len(trace) == 8  # ring buffer kept only the newest 8
        assert trace.count("syscall") == 20  # counters never drop
        assert trace.count("syscall", "open") == 20
        kept = trace.events("syscall")
        assert [e.detail["seq"] for e in kept] == list(range(12, 20))

    def test_category_rollup_matches_per_name_counts(self):
        trace = Trace(capacity=4)
        for name in ("a", "b", "a", "c", "a"):
            trace.emit(0.0, "cat", name)
        assert trace.count("cat") == 5
        assert trace.count("cat", "a") == 3
        assert trace.count("other") == 0

    def test_timestamps_are_integers(self):
        trace = Trace()
        trace.enabled = True
        trace.emit(1234.56, "c", "n")
        (event,) = trace.events()
        assert isinstance(event.timestamp_ns, int)
        assert event.timestamp_ns == 1235
        assert str(event).startswith(f"[{1235:14d}]")


class TestTraceDisabledError:
    def test_events_on_never_enabled_trace_raises(self):
        trace = Trace()
        trace.emit(0.0, "c", "n")
        with pytest.raises(TraceDisabledError):
            trace.events()
        with pytest.raises(TraceDisabledError):
            trace.fault_events()
        # Counters still work without enabling.
        assert trace.count("c") == 1

    def test_enable_then_disable_still_readable(self):
        trace = Trace()
        trace.enabled = True
        trace.emit(0.0, "c", "n")
        trace.enabled = False
        assert trace.ever_enabled
        assert len(trace.events()) == 1

    def test_machine_trace_raises_without_enable(self):
        system = build_cider()
        try:
            with pytest.raises(TraceDisabledError):
                system.machine.trace.events()
        finally:
            system.shutdown()
