"""Parallel deterministic sweep engine (ISSUE 9 tentpole): fork-server
workers, boot-snapshot cache, byte-identical merge.

The contract under test: worker count changes wall-clock only.  A sweep
run at ``--jobs 4`` must render the byte-identical transcript (and
SHA-256 digest) of a serial run, and a world booted from a snapshot
clone must be bit-identical — in charged virtual picoseconds — to a
freshly built one.
"""

import hashlib

import pytest

from repro.cider.system import System, build_cider
from repro.sim.parallel import (
    WorkerError,
    fork_available,
    parse_jobs,
    run_cases,
)
from repro.sim.snapshot import (
    SnapshotError,
    assert_quiescent,
    snapshot_systems,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires os.fork"
)


# -- run_cases: ordering, equivalence, failure propagation ---------------------


def test_run_cases_serial_matches_input_order():
    assert run_cases(5, lambda i: i * i, jobs=1) == [0, 1, 4, 9, 16]


@needs_fork
def test_run_cases_parallel_merges_in_case_order():
    # Uneven per-case work so shards finish out of order.
    def case(i):
        return (i, sum(range((5 - i) * 2000)))

    serial = run_cases(8, case, jobs=1)
    parallel = run_cases(8, case, jobs=4)
    assert parallel == serial
    assert [i for i, _total in parallel] == list(range(8))


@needs_fork
def test_run_cases_prime_runs_once_in_parent():
    calls = []

    def prime():
        calls.append("prime")

    run_cases(6, lambda i: i, jobs=3, prime=prime)
    assert calls == ["prime"]


@needs_fork
def test_run_cases_worker_exception_raises_worker_error():
    def case(i):
        if i == 5:
            raise ValueError("case five exploded")
        return i

    with pytest.raises(WorkerError) as excinfo:
        run_cases(8, case, jobs=4)
    assert "case 5" in str(excinfo.value)
    assert "case five exploded" in str(excinfo.value)


def test_parse_jobs():
    assert parse_jobs("3") == 3
    assert parse_jobs("0") >= 1  # 0 = all cores
    with pytest.raises(ValueError):
        parse_jobs("-1")


# -- snapshots: quiescence rule and bit-identical clones -----------------------


def test_snapshot_refuses_live_threads():
    # A fully booted system has supervised services — live sim threads.
    system = build_cider()
    with pytest.raises(SnapshotError):
        snapshot_systems(system)
    system.shutdown()


def test_pre_service_boot_is_quiescent():
    system = build_cider(start_services=False)
    assert_quiescent(system.machine)  # must not raise
    snapshot_systems(system)


def test_snapshot_clone_boot_bit_identical_to_fresh_boot():
    """Finishing a clone's boot charges exactly the virtual picoseconds
    a fresh full build charges — the determinism contract that makes the
    boot-snapshot cache invisible to every transcript."""
    fresh = build_cider(durable=True)
    snap = snapshot_systems(build_cider(durable=True, start_services=False))
    (cloned,) = snap.clone()
    cloned.start_services()
    assert cloned.machine.clock.charged_ps == fresh.machine.clock.charged_ps
    fresh.shutdown()
    cloned.shutdown()


def test_snapshot_clones_are_independent():
    snap = snapshot_systems(build_cider(start_services=False))
    (a,) = snap.clone()
    (b,) = snap.clone()
    a.start_services()
    a.kernel.vfs.makedirs("/data/only-in-a")
    with pytest.raises(Exception):
        b.kernel.vfs.resolve("/data/only-in-a")
    assert snap.clones == 2


# -- snapshots are immutable images --------------------------------------------


def _vfs_paths(system):
    return sorted(system.kernel.vfs.walk("/"))


def _charged_ps(system):
    return system.machine.clock.charged_ps


def test_clone_ignores_changes_to_the_captured_system():
    system = build_cider(start_services=False)
    snap = snapshot_systems(system)
    (before,) = snap.clone()
    system.kernel.vfs.makedirs("/data/after-capture")
    (after_mkdir,) = snap.clone()
    system.start_services()
    (after_start,) = snap.clone()
    clones = (before, after_mkdir, after_start)
    # Every step below charges virtual time, and equally on each clone.
    for step in (_vfs_paths, System.start_services, _charged_ps):
        results = [step(clone) for clone in clones]
        assert results[1:] == results[:-1]
    assert "/data/after-capture" not in _vfs_paths(after_start)
    for clone in clones:
        clone.shutdown()
    system.shutdown()


def test_snapshot_does_not_keep_captured_systems_alive():
    import gc
    import weakref

    system = build_cider(start_services=False)
    captured = weakref.ref(system)
    snap = snapshot_systems(system)
    del system
    gc.collect()
    assert captured() is None
    (clone,) = snap.clone()
    clone.start_services()
    clone.shutdown()


def test_packet_log_digest_branches_per_clone():
    system = build_cider(start_services=False)
    net = system.machine.net
    net.log_segment("udp", ("127.0.0.1", 5000), ("127.0.0.1", 53), 32)
    snap = snapshot_systems(system)
    (a,) = snap.clone()
    (b,) = snap.clone()
    a.machine.net.log_segment("tcp", ("127.0.0.1", 49152), ("127.0.0.1", 80), 1)
    b.machine.net.log_segment("tcp", ("127.0.0.1", 49153), ("127.0.0.1", 80), 2)
    digests = set()
    for clone in (a, b):
        log = clone.machine.net.packet_log()
        assert log.count("\n") == 2
        digest = clone.machine.net.log_digest()
        assert digest == hashlib.sha256(log.encode()).hexdigest()
        digests.add(digest)
    assert len(digests) == 2
    assert net.log_digest() == hashlib.sha256(net.packet_log().encode()).hexdigest()


def test_unpicklable_payload_raises_snapshot_error_at_capture():
    import threading

    system = build_cider(start_services=False)
    system.machine.stray_lock = threading.Lock()
    with pytest.raises(SnapshotError, match="lock"):
        snapshot_systems(system)


def test_clone_of_a_system_with_a_finished_thread_runs_like_the_original():
    system = build_cider(start_services=False)
    assert system.run_program("/system/bin/hello") == 0
    assert not system.machine.scheduler.live_threads()
    assert system.machine.scheduler._threads  # a finished SimThread
    (clone,) = snapshot_systems(system).clone()
    (tombstone,) = clone.machine.scheduler._threads
    assert tombstone._gate is tombstone._worker is tombstone._body is None
    assert clone.machine.clock.charged_ps == system.machine.clock.charged_ps
    assert clone.run_program("/system/bin/hello") == 0
    assert system.run_program("/system/bin/hello") == 0
    assert clone.machine.clock.charged_ps == system.machine.clock.charged_ps


# -- snapshots: hooks belong to their clone, closures are checked --------------


def _iokit_names(system):
    return {entry.entry_name for entry in system.kernel.iokit.root.iterate()}


def test_device_add_publishes_into_the_clones_own_iokit_registry():
    from repro.kernel.devices import NullDriver

    snap = snapshot_systems(build_cider(start_services=False))
    (a,) = snap.clone()
    a.kernel.add_device("testdev0", NullDriver(), "misc")
    (b,) = snap.clone()
    assert "testdev0" in _iokit_names(a)
    assert "testdev0" not in _iokit_names(b)


def test_dispatch_table_register_invalidates_the_clones_own_persona():
    snap = snapshot_systems(build_cider(start_services=False))
    (a,) = snap.clone()
    assert a.run_program("/system/bin/hello") == 0  # primes the flat cache
    persona = a.kernel.personas.get("android")
    assert persona._flat is not None
    persona.abi.table.register(9999, "testcall", lambda *args: 0)
    assert persona._flat is None


def test_closure_over_system_state_fails_at_capture():
    system = build_cider(start_services=False)
    devices = system.kernel.devices

    def count_devices():
        return len(devices.all_devices())

    system.machine.probe = count_devices
    with pytest.raises(SnapshotError, match="count_devices"):
        snapshot_systems(system)


def test_builtin_method_bound_to_system_state_is_copied_with_it():
    system = build_cider(start_services=False)
    system.machine.notes = []
    system.machine.add_note = system.machine.notes.append
    (a,) = snapshot_systems(system).clone()
    a.machine.add_note("only in a")
    assert a.machine.notes == ["only in a"]
    assert system.machine.notes == []


def test_closure_over_immutable_values_is_shared():
    system = build_cider(start_services=False)
    limit = 3

    def under_limit(n, names=("a", "b")):
        return n < limit and len(names) == 2

    system.machine.probe = under_limit
    (clone,) = snapshot_systems(system).clone()
    assert clone.machine.probe is under_limit


# -- sweep transcripts: --jobs N is byte-invisible -----------------------------


@needs_fork
def test_partsweep_jobs_transcript_byte_identical():
    from repro.workloads.partsweep import run_sweep

    serial = run_sweep(max_cases=8, jobs=1)
    parallel = run_sweep(max_cases=8, jobs=4)
    assert parallel.text() == serial.text()
    assert parallel.digest() == serial.digest()
    assert parallel.cases == serial.cases == 8


@needs_fork
def test_crashsweep_jobs_transcript_byte_identical():
    from repro.workloads.crashsweep import run_sweep

    serial = run_sweep(max_sites=6, jobs=1)
    parallel = run_sweep(max_sites=6, jobs=4)
    assert parallel.text() == serial.text()
    assert parallel.digest() == serial.digest()
    assert parallel.sites == serial.sites == 6


@needs_fork
def test_netbench_replicas_byte_identical():
    from repro.workloads.netbench import format_report, run_netbench

    reports = run_cases(
        2, lambda _i: format_report(run_netbench()), jobs=2
    )
    assert reports[0] == reports[1]


# -- streaming packet-log digest -----------------------------------------------


def test_streaming_packet_log_digest_matches_joined_log():
    from repro.workloads.netbench import ELF_PATH, install_netbench

    system = build_cider(with_httpd=True)
    install_netbench(system)
    assert system.run_program(ELF_PATH, [ELF_PATH, {"out": {}}]) == 0
    net = system.machine.net
    assert net.packet_log()  # the workload logged traffic
    recomputed = hashlib.sha256(net.packet_log().encode()).hexdigest()
    assert net.log_digest() == recomputed
    system.shutdown()


def test_streaming_digest_of_empty_log():
    system = build_cider(start_services=False)
    net = system.machine.net
    assert net.log_digest() == hashlib.sha256(b"").hexdigest()
