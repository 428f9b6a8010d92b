"""Tests for the deterministic cooperative scheduler."""

import gc
import os
import signal
import subprocess
import sys
import threading
import weakref

import pytest

import repro
from repro.sim import (
    DeadlockError,
    Scheduler,
    SchedulerError,
    ThreadState,
    VirtualClock,
    WaitQueue,
)
from repro.sim import scheduler as scheduler_module
from repro.sim.parallel import fork_available


@pytest.fixture
def sched():
    scheduler = Scheduler(VirtualClock())
    yield scheduler
    scheduler.shutdown()


def test_single_thread_runs_to_completion(sched):
    log = []
    sched.spawn(lambda: log.append("ran"), name="t")
    sched.run()
    assert log == ["ran"]


def test_thread_result_via_run_until_done(sched):
    thread = sched.spawn(lambda: 42, name="t")
    assert sched.run_until_done(thread) == 42


def test_thread_exception_propagates_to_controller(sched):
    def boom():
        raise ValueError("bang")

    thread = sched.spawn(boom, name="t")
    with pytest.raises(ValueError, match="bang"):
        sched.run_until_done(thread)


def test_spawn_order_is_fifo(sched):
    log = []
    for i in range(5):
        sched.spawn(lambda i=i: log.append(i), name=f"t{i}")
    sched.run()
    assert log == [0, 1, 2, 3, 4]


def test_yield_interleaves_round_robin(sched):
    log = []

    def worker(tag):
        for _ in range(3):
            log.append(tag)
            sched.yield_control()

    sched.spawn(lambda: worker("a"), name="a")
    sched.spawn(lambda: worker("b"), name="b")
    sched.run()
    assert log == ["a", "b", "a", "b", "a", "b"]


def test_block_and_wake_one(sched):
    waitq = WaitQueue("q")
    log = []

    def waiter():
        log.append("before")
        sched.block_on(waitq)
        log.append("after")

    def waker():
        log.append("waking")
        waitq.wake_one()

    sched.spawn(waiter, name="waiter")
    sched.spawn(waker, name="waker")
    sched.run()
    assert log == ["before", "waking", "after"]


def test_wake_all_releases_every_waiter(sched):
    waitq = WaitQueue("q")
    released = []

    def waiter(tag):
        sched.block_on(waitq)
        released.append(tag)

    for tag in "abc":
        sched.spawn(lambda tag=tag: waiter(tag), name=tag)
    sched.spawn(lambda: waitq.wake_all(), name="waker")
    sched.run()
    assert sorted(released) == ["a", "b", "c"]


def test_deadlock_detected(sched):
    waitq = WaitQueue("never")
    sched.spawn(lambda: sched.block_on(waitq), name="stuck")
    with pytest.raises(DeadlockError):
        sched.run()


def test_daemon_thread_does_not_block_completion(sched):
    waitq = WaitQueue("service")
    sched.spawn(lambda: sched.block_on(waitq), name="svc", daemon=True)
    sched.spawn(lambda: None, name="work")
    sched.run()  # must not raise DeadlockError


def test_sleep_advances_virtual_clock(sched):
    clock = sched.clock

    def sleeper():
        sched.sleep(1_000_000)

    sched.spawn(sleeper, name="s")
    sched.run()
    assert clock.now_ns == 1_000_000


def test_sleep_ordering_between_threads(sched):
    log = []

    def sleeper(tag, ns):
        sched.sleep(ns)
        log.append((tag, sched.clock.now_ns))

    sched.spawn(lambda: sleeper("late", 2000), name="late")
    sched.spawn(lambda: sleeper("early", 1000), name="early")
    sched.run()
    assert log == [("early", 1000), ("late", 2000)]


def test_block_on_timeout_times_out(sched):
    waitq = WaitQueue("q")
    outcome = []

    def waiter():
        outcome.append(sched.block_on_timeout(waitq, 5000))

    sched.spawn(waiter, name="w")
    sched.run()
    assert outcome == [False]
    assert sched.clock.now_ns == 5000


def test_block_on_timeout_woken_in_time(sched):
    waitq = WaitQueue("q")
    outcome = []

    def waiter():
        outcome.append(sched.block_on_timeout(waitq, 5_000_000))

    def waker():
        waitq.wake_one()

    sched.spawn(waiter, name="w")
    sched.spawn(waker, name="k")
    sched.run()
    assert outcome == [True]
    assert sched.clock.now_ns < 5_000_000


def test_join_returns_result(sched):
    results = []

    def parent():
        child = sched.spawn(lambda: "child-result", name="child")
        results.append(sched.join(child))

    sched.spawn(parent, name="parent")
    sched.run()
    assert results == ["child-result"]


def test_join_reraises_child_failure(sched):
    failures = []

    def child_body():
        raise RuntimeError("child died")

    def parent():
        child = sched.spawn(child_body, name="child")
        try:
            sched.join(child)
        except RuntimeError as exc:
            failures.append(str(exc))

    sched.spawn(parent, name="parent")
    sched.run()
    assert failures == ["child died"]


def test_shutdown_kills_blocked_threads(sched):
    waitq = WaitQueue("forever")
    sched.spawn(lambda: sched.block_on(waitq), name="stuck", daemon=True)
    sched.spawn(lambda: None, name="done")
    sched.run()
    sched.shutdown()
    assert list(sched.live_threads()) == []


def test_shutdown_leaves_no_victim_on_its_queue(sched):
    """A thread that shutdown kills in ``block_on`` or ``block_on_any``
    is listed on no queue afterwards, so a queue that outlives the
    shutdown counts no dead waiter in a thread dump."""
    q, q2 = WaitQueue("q"), WaitQueue("q2")
    sched.spawn(lambda: sched.block_on(q), name="single")
    sched.spawn(lambda: sched.block_on_any([q2]), name="any")
    with pytest.raises(DeadlockError):
        sched.run()
    assert (len(q), len(q2)) == (1, 1)
    sched.shutdown()
    assert list(sched.live_threads()) == []
    assert (len(q), len(q2)) == (0, 0)
    assert repr(q) == "<WaitQueue 'q' waiters=0>"


def test_determinism_same_program_same_timeline():
    def program(scheduler):
        waitq = WaitQueue("q")
        order = []

        def ping():
            for _ in range(10):
                scheduler.sleep(100)
                order.append(("ping", scheduler.clock.now_ns))
                waitq.wake_one()

        def pong():
            for _ in range(10):
                scheduler.block_on(waitq)
                order.append(("pong", scheduler.clock.now_ns))

        scheduler.spawn(pong, name="pong")
        scheduler.spawn(ping, name="ping")
        scheduler.run()
        scheduler.shutdown()
        return order

    first = program(Scheduler(VirtualClock()))
    second = program(Scheduler(VirtualClock()))
    assert first == second
    assert len(first) == 20


def test_thread_states_visible(sched):
    waitq = WaitQueue("q")

    def waiter():
        sched.block_on(waitq)

    thread = sched.spawn(waiter, name="w")
    # Not yet run: READY.
    assert thread.state is ThreadState.READY
    with pytest.raises(DeadlockError):
        sched.run()
    assert thread.state is ThreadState.BLOCKED
    waitq.wake_one()
    sched.run()
    assert thread.state is ThreadState.DONE


def test_nested_spawn_from_sim_thread(sched):
    log = []

    def parent():
        log.append("parent")
        child = sched.spawn(lambda: log.append("child"), name="child")
        sched.join(child)
        log.append("joined")

    sched.spawn(parent, name="parent")
    sched.run()
    assert log == ["parent", "child", "joined"]


@pytest.mark.parametrize("drive", ["run", "run_until_done", "run_ready"])
def test_driving_from_a_sim_thread_raises(sched, drive):
    # Only the controller drives.  A simulated thread that tried would
    # leave two OS threads waiting on the controller's gate, and which
    # one the token reached next would be up to the host.
    runs = []
    errors = []

    def parent():
        child = sched.spawn(lambda: runs.append("child"), name="child")
        args = (child,) if drive == "run_until_done" else ()
        try:
            getattr(sched, drive)(*args)
        except SchedulerError as exc:
            errors.append(exc)

    sched.spawn(parent, name="parent")
    sched.run()
    assert len(errors) == 1
    assert runs == ["child"]
    assert list(sched.live_threads()) == []


def test_sids_number_threads_per_scheduler():
    # Thread ids start at 1 on every scheduler, however many threads
    # other schedulers in the process spawned before it.
    for _ in range(2):
        scheduler = Scheduler(VirtualClock())
        threads = [scheduler.spawn(lambda: None, f"t{i}") for i in range(3)]
        scheduler.run()
        assert [t.sid for t in threads] == [1, 2, 3]


# -- the worker pool ---------------------------------------------------------


def _is_idle(worker):
    return worker.task is None and worker in scheduler_module._idle_workers


def test_sequential_spawns_reuse_one_worker(sched):
    before = threading.active_count()
    for index in range(200):
        thread = sched.spawn(lambda i=index: i, "t")
        assert sched.run_until_done(thread) == index
    assert threading.active_count() <= before + 1


def test_thread_killed_before_it_ran_frees_its_worker(sched):
    thread = sched.spawn(lambda: None, name="never-ran")
    worker = thread._worker
    sched.shutdown()
    assert thread.state is ThreadState.KILLED
    assert thread._worker is None
    assert _is_idle(worker)


def test_raising_body_frees_its_worker(sched):
    def boom():
        raise ValueError("bang")

    thread = sched.spawn(boom, name="boom")
    worker = thread._worker
    with pytest.raises(ValueError):
        sched.run_until_done(thread)
    assert _is_idle(worker)


def test_watchdog_killed_thread_frees_its_worker(sched):
    sched.set_watchdog(1_000, kill=True)
    never = WaitQueue("never")
    thread = sched.spawn(lambda: sched.block_on(never), name="stuck")
    worker = thread._worker
    sched.run()
    assert thread.state is ThreadState.KILLED
    assert [r["thread"] for r in sched.anr_reports] == ["stuck"]
    assert _is_idle(worker)


def test_idle_workers_do_not_keep_machines_alive():
    # An idle worker still pointing at its last thread would keep that
    # thread's whole machine reachable for the life of the process.
    from repro.cider.system import build_cider

    refs = []
    for _ in range(3):
        system = build_cider()
        assert system.run_program("/system/bin/hello") == 0
        system.shutdown()
        refs.append(weakref.ref(system.machine))
    del system
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


_FORK_SCRIPT = """
from repro.sim import Scheduler, VirtualClock
from repro.sim.parallel import run_cases

def case(index):
    scheduler = Scheduler(VirtualClock())
    return scheduler.run_until_done(scheduler.spawn(lambda: 2 * index, "t"))

warm = Scheduler(VirtualClock())
warm.run_until_done(warm.spawn(lambda: 0, "warm"))
print(run_cases(4, case, jobs=2))
"""


@pytest.mark.skipif(not fork_available(), reason="requires os.fork")
def test_forked_workers_do_not_bind_inherited_workers():
    # The parent leaves an idle worker behind; its OS thread does not
    # survive into the fork-server children.  Run in a subprocess group
    # so a regression fails on the timeout instead of hanging the suite.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a fork-server child hung on an inherited sim worker")
    assert proc.returncode == 0, err
    assert out.strip() == "[0, 2, 4, 6]"
