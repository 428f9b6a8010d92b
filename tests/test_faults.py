"""Deterministic fault injection: unit tests for repro.sim.faults plus
whole-system determinism ("same seed => byte-identical fault log")."""

import pytest

from repro.cider.system import build_cider
from repro.hw.profiles import nexus7
from repro.ios.services import CONFIGD_SERVICE
from repro.kernel.errno import EIO, ENOENT
from repro.sim import NSEC_PER_SEC
from repro.sim.faults import (
    FaultOutcome,
    FaultPlan,
    FaultRule,
    chaos_plan,
)
from repro.xnu.ipc import MACH_PORT_NULL, MachMessage

from .helpers import run_elf


# -- FaultOutcome -----------------------------------------------------------------


def test_outcome_constructors_and_repr():
    assert repr(FaultOutcome.errno(EIO)) == "errno:5"
    assert repr(FaultOutcome.kern(0x10000004)) == f"kern:{0x10000004}"
    assert FaultOutcome.signal(9).kind == "signal"
    assert FaultOutcome.delay(1000.0).value == 1000.0


def test_outcome_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultOutcome("frobnicate", 1)


# -- FaultRule matching -----------------------------------------------------------


def test_exact_point_match_fires():
    plan = FaultPlan(seed=1)
    plan.rule("vfs.open", FaultOutcome.errno(EIO))
    assert plan.check("vfs.open", path="/x") is not None
    assert plan.check("vfs.lookup", path="/x") is None
    assert plan.fired == 1


def test_glob_point_match():
    plan = FaultPlan(seed=1)
    plan.rule("mach.*", FaultOutcome.kern(0x10000004))
    assert plan.check("mach.send") is not None
    assert plan.check("mach.recv") is not None
    assert plan.check("syscall.enter") is None
    assert plan.fires_at("mach.send") == 1
    assert plan.fires_at("mach.recv") == 1


def test_predicate_filters_on_detail():
    plan = FaultPlan(seed=1)
    plan.rule(
        "vfs.open",
        FaultOutcome.errno(EIO),
        predicate=lambda d: d.get("path") == "/dev/flaky",
    )
    assert plan.check("vfs.open", path="/dev/ok") is None
    assert plan.check("vfs.open", path="/dev/flaky") is not None


def test_nth_occurrence_trigger():
    plan = FaultPlan(seed=1)
    plan.rule("syscall.enter", FaultOutcome.errno(EIO), nth=3)
    results = [plan.check("syscall.enter") for _ in range(5)]
    assert [r is not None for r in results] == [
        False, False, True, False, False,
    ]


def test_max_fires_caps_total():
    plan = FaultPlan(seed=1)
    plan.rule("syscall.enter", FaultOutcome.errno(EIO), max_fires=2)
    fired = sum(plan.check("syscall.enter") is not None for _ in range(10))
    assert fired == 2


def test_first_matching_rule_wins():
    plan = FaultPlan(seed=1)
    plan.rule("vfs.*", FaultOutcome.errno(EIO), rule_id="broad")
    plan.rule("vfs.open", FaultOutcome.errno(ENOENT), rule_id="narrow")
    outcome = plan.check("vfs.open")
    assert outcome is not None and outcome.value == EIO
    assert plan.events[0].rule_id == "broad"


def test_rule_validation():
    with pytest.raises(ValueError):
        FaultRule("x", FaultOutcome.errno(EIO), probability=1.5)
    with pytest.raises(ValueError):
        FaultRule("x", FaultOutcome.errno(EIO), nth=0)


def test_occurrences_counted_even_without_rules():
    plan = FaultPlan(seed=1)
    for _ in range(3):
        assert plan.check("syscall.enter") is None
    assert plan.occurrences["syscall.enter"] == 3


# -- probability & determinism ---------------------------------------------------


def _draw_pattern(seed, n=200, p=0.3):
    plan = FaultPlan(seed=seed)
    plan.rule("syscall.enter", FaultOutcome.errno(EIO), probability=p)
    return [plan.check("syscall.enter") is not None for _ in range(n)]


def test_same_seed_same_draws():
    assert _draw_pattern(42) == _draw_pattern(42)


def test_different_seed_different_draws():
    assert _draw_pattern(42) != _draw_pattern(43)


def test_probability_zero_never_fires():
    plan = FaultPlan(seed=7)
    plan.rule("syscall.enter", FaultOutcome.errno(EIO), probability=0.0)
    assert all(plan.check("syscall.enter") is None for _ in range(50))


def test_fault_log_is_byte_identical_for_same_seed():
    def build_log(seed):
        plan = FaultPlan(seed=seed)
        plan.rule(
            "mach.send",
            FaultOutcome.kern(0x10000004),
            rule_id="r",
            probability=0.5,
        )
        for i in range(50):
            plan.check("mach.send", dest=i)
        return plan.fault_log()

    assert build_log(5) == build_log(5)
    assert build_log(5) != build_log(6)
    assert isinstance(build_log(5), bytes)


def test_unnamed_rules_are_numbered_per_plan():
    """An unnamed rule is named by its position in its own plan, so two
    identically built plans log identical bytes in one process."""

    def build_log():
        unnamed = FaultRule("vfs.open", FaultOutcome.errno(EIO))
        plan = FaultPlan(seed=1, rules=[unnamed])
        plan.rule("syscall.enter", FaultOutcome.errno(EIO))
        plan.check("syscall.enter", nr=20)
        return plan.fault_log()

    first = build_log()
    assert first == build_log()
    assert b" rule2 " in first


def test_fault_log_format():
    plan = FaultPlan(seed=1)
    plan.rule("vfs.open", FaultOutcome.errno(EIO), rule_id="rid")
    plan.check("vfs.open", path="/a", pid=3)
    line = plan.fault_log().decode().strip()
    assert line == "0 vfs.open rid errno:5 path=/a pid=3"


# -- virtual-time window (needs an attached machine) -----------------------------


def test_window_ns_uses_machine_clock():
    machine = nexus7().boot()
    plan = machine.install_fault_plan(FaultPlan(seed=1))
    plan.rule(
        "vfs.open",
        FaultOutcome.errno(EIO),
        window_ns=(100.0, 200.0),
    )
    assert plan.check("vfs.open") is None  # t=0: before window
    machine.charge_ns(150.0)
    assert plan.check("vfs.open") is not None  # t=150: inside
    machine.charge_ns(100.0)
    assert plan.check("vfs.open") is None  # t=250: after
    machine.shutdown()


# -- machine attachment & the trace category -------------------------------------


def test_install_and_clear_fault_plan():
    machine = nexus7().boot()
    plan = machine.install_fault_plan(FaultPlan(seed=0))
    assert machine.faults is plan
    machine.clear_fault_plan()
    assert machine.faults is None
    machine.shutdown()


def test_fault_trace_category():
    system = build_cider()
    try:
        system.machine.trace.enabled = True
        plan = system.machine.install_fault_plan(FaultPlan(seed=0))
        plan.rule(
            "vfs.open",
            FaultOutcome.errno(EIO),
            rule_id="devnull-eio",
            predicate=lambda d: d.get("path") == "/dev/null",
            max_fires=1,
        )

        def body(ctx):
            fd = ctx.libc.open("/dev/null")
            return fd, ctx.libc.errno

        fd, observed_errno = run_elf(system, body)
        assert fd == -1 and observed_errno == EIO

        assert system.machine.trace.fault_count() == 1
        (event,) = system.machine.trace.fault_events()
        assert event.category == "fault"
        assert event.name == "vfs.open"
        assert event.detail["rule"] == "devnull-eio"
        assert event.detail["outcome"] == "errno:5"
        assert plan.fired == 1
        assert plan.events[0].point == "vfs.open"
    finally:
        system.shutdown()


# -- zero-cost guarantee ---------------------------------------------------------


def _timed_workload(install_empty_plan):
    system = build_cider()
    try:
        if install_empty_plan:
            system.machine.install_fault_plan(FaultPlan(seed=123))

        def body(ctx):
            libc = ctx.libc
            fd = libc.creat("/tmp/zerocost")
            libc.write(fd, b"x" * 64)
            libc.close(fd)
            return 0

        run_elf(system, body, name="zerocost")
        return system.machine.now_ns
    finally:
        system.shutdown()


def test_empty_plan_charges_no_virtual_time():
    """An attached-but-empty FaultPlan must not perturb any cost."""
    assert _timed_workload(False) == _timed_workload(True)


# -- whole-system chaos determinism ----------------------------------------------


def _run_chaos(seed):
    """One seeded chaos run over a full Cider system: boots clean, then
    installs chaos_plan and launches a small fleet of iOS clients with
    bounded timeouts everywhere (so injected losses degrade, not hang)."""
    system = build_cider()
    try:
        system.kernel.contain_crashes = True
        system.machine.scheduler.set_watchdog(5 * NSEC_PER_SEC, kill=True)
        plan = system.machine.install_fault_plan(
            chaos_plan(seed, probability=0.05)
        )

        from repro.binfmt import macho_executable

        def worker(ctx, argv):
            libc = ctx.libc
            for _ in range(6):
                fd = libc.open("/dev/null")
                if isinstance(fd, int) and fd >= 0:
                    libc.close(fd)
            port = libc.bootstrap_look_up(
                CONFIGD_SERVICE, timeout_ns=1_000_000.0
            )
            if port != MACH_PORT_NULL:
                libc.mach_msg_rpc(
                    port,
                    MachMessage(0x3001, body={"op": "get", "key": "Model"}),
                    1_000_000.0,
                )
            return 0

        codes = []
        for i in range(6):
            name = f"chaos{i}"
            image = macho_executable(name, worker)
            path = f"/bin/{name}"
            system.kernel.vfs.install_binary(path, image)
            process = system.kernel.start_process(path, [path])
            codes.append(system.wait_for(process))
        # Chaos outcomes are transient: most clients must reach main and
        # exit cleanly, not die in dyld before their first syscall.
        assert 2 * codes.count(0) >= len(codes), codes
        return plan.fault_log(), plan.fired, tuple(codes)
    finally:
        system.shutdown()


def test_chaos_run_is_reproducible():
    log_a, fired_a, codes_a = _run_chaos(7)
    log_b, fired_b, codes_b = _run_chaos(7)
    assert fired_a > 0, "a 5% chaos plan over 6 execs must inject something"
    assert log_a == log_b
    assert codes_a == codes_b


def test_chaos_run_diverges_across_seeds():
    log_a, _, _ = _run_chaos(7)
    log_c, _, _ = _run_chaos(8)
    assert log_a != log_c


def test_chaos_plan_covers_every_injection_point_family():
    """Regression for the chaos-plan gap: every family in
    INJECTION_POINTS (syscall, mach, diplomat, dyld, vfs, mm, ipc, net)
    must be matched by at least one chaos rule, so new point families
    cannot silently fall out of the chaos mix again."""
    from repro.sim.faults import INJECTION_POINTS

    plan = chaos_plan(seed=1)
    families = {point.split(".")[0] for point in INJECTION_POINTS}
    covered = set()
    for family in families:
        for point in INJECTION_POINTS:
            if not point.startswith(family + "."):
                continue
            if any(rule._match_point(point) for rule in plan.rules):
                covered.add(family)
                break
    assert covered == families, (
        f"chaos_plan misses families: {sorted(families - covered)}"
    )


def test_chaos_net_rules_fire_and_stay_recoverable():
    """The net.connect / net.send chaos rules are delays (transient
    stalls), never hard errors — a chaos run must still complete."""
    plan = chaos_plan(seed=3, probability=1.0)
    by_id = {rule.rule_id: rule for rule in plan.rules}
    assert by_id["chaos-net-connect"].outcome.kind == "delay"
    assert by_id["chaos-net-send"].outcome.kind == "delay"
    assert by_id["chaos-ipc-qfull"].outcome.kind == "kern"
