"""Tests for the trace facility and remaining scheduler surface."""

import pytest

from repro.sim import Scheduler, Trace, VirtualClock, WaitQueue


class TestTrace:
    def test_counters_always_on(self):
        trace = Trace()
        trace.emit(0, "syscall", "linux")
        trace.emit(1, "syscall", "linux")
        trace.emit(2, "syscall", "xnu")
        assert trace.count("syscall") == 3
        assert trace.count("syscall", "linux") == 2
        assert trace.count("other") == 0

    def test_events_only_when_enabled(self):
        trace = Trace()
        trace.emit(0, "a", "x")
        assert len(trace) == 0
        trace.enabled = True
        trace.emit(1, "a", "y", detail_key=7)
        assert len(trace) == 1
        event = trace.events()[0]
        assert event.timestamp_ns == 1
        assert event.detail == {"detail_key": 7}

    def test_filtering(self):
        trace = Trace()
        trace.enabled = True
        trace.emit(0, "a", "x")
        trace.emit(1, "b", "x")
        trace.emit(2, "a", "y")
        assert len(trace.events(category="a")) == 2
        assert len(trace.events(category="a", name="y")) == 1

    def test_bounded_capacity(self):
        trace = Trace(capacity=3)
        trace.enabled = True
        for index in range(10):
            trace.emit(index, "c", "n")
        assert len(trace) == 3
        assert trace.events()[0].timestamp_ns == 7

    def test_clear(self):
        trace = Trace()
        trace.enabled = True
        trace.emit(0, "a", "x")
        trace.clear()
        assert trace.count("a") == 0
        assert len(trace) == 0

    def test_str_rendering(self):
        trace = Trace()
        trace.enabled = True
        trace.emit(1234, "cat", "name", k="v")
        assert "cat:name" in str(trace.events()[0])


class TestBlockOnAny:
    @pytest.fixture
    def sched(self):
        scheduler = Scheduler(VirtualClock())
        yield scheduler
        scheduler.shutdown()

    def test_woken_by_any_queue(self, sched):
        q1, q2 = WaitQueue("q1"), WaitQueue("q2")
        outcome = []

        def waiter():
            outcome.append(sched.block_on_any([q1, q2]))

        def waker():
            q2.wake_one()

        sched.spawn(waiter, name="w")
        sched.spawn(waker, name="k")
        sched.run()
        assert outcome == [True]
        # The waiter must have been removed from both queues.
        assert len(q1) == 0
        assert len(q2) == 0

    def test_timeout_path(self, sched):
        q1, q2 = WaitQueue("q1"), WaitQueue("q2")
        outcome = []

        def waiter():
            outcome.append(sched.block_on_any([q1, q2], timeout_ns=2000))

        sched.spawn(waiter, name="w")
        sched.run()
        assert outcome == [False]
        assert sched.clock.now_ns == 2000

    def test_double_wake_is_harmless(self, sched):
        q1, q2 = WaitQueue("q1"), WaitQueue("q2")
        log = []

        def waiter():
            sched.block_on_any([q1, q2])
            log.append("woke")

        def waker():
            q1.wake_all()
            q2.wake_all()

        sched.spawn(waiter, name="w")
        sched.spawn(waker, name="k")
        sched.run()
        assert log == ["woke"]


class TestKillThread:
    @pytest.fixture
    def sched(self):
        scheduler = Scheduler(VirtualClock())
        yield scheduler
        scheduler.shutdown()

    def test_kill_blocked_thread(self, sched):
        waitq = WaitQueue("q")
        victim = sched.spawn(lambda: sched.block_on(waitq), name="victim")

        def killer():
            sched.kill_thread(victim)

        sched.spawn(killer, name="killer")
        sched.run()
        assert not victim.alive
        assert len(waitq) == 0

    def test_kill_thread_blocked_on_two_queues(self, sched):
        """A killed ``block_on_any`` victim leaves every queue it waited
        on, not only its wait channel (thread dumps print the counts)."""
        q0, q1 = WaitQueue("q0"), WaitQueue("q1")
        victim = sched.spawn(lambda: sched.block_on_any([q0, q1]), name="victim")

        def killer():
            sched.kill_thread(victim)

        sched.spawn(killer, name="killer")
        sched.run()
        assert victim.state.value == "killed"
        assert (len(q0), len(q1)) == (0, 0)
        assert repr(q1) == "<WaitQueue 'q1' waiters=0>"

    def test_kill_dead_thread_is_noop(self, sched):
        victim = sched.spawn(lambda: None, name="v")
        sched.run()
        sched.kill_thread(victim)  # must not raise
