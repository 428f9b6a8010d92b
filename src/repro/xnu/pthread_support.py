"""XNU kernel-level pthread support — bsd/kern/pthread_support.c.

"iOS pthread support differs substantially from Android in functional
separation between the pthread library and the kernel.  The iOS user
space pthread library makes extensive use of kernel-level support for
mutexes, semaphores, and condition variables, none of which are present
in the Linux kernel ...  Cider uses duct tape to directly compile this
file without modification." (paper §4.2)

The psynch protocol: user space performs the uncontended atomic fast
path; the kernel is entered only on contention, keyed by the user-space
address of the synchroniser (the simulation uses opaque ids the same
way).  Only the XNU kernel API is referenced — zone rules apply.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .api import XNUKernelAPI

PSYNCH_SUCCESS = 0
PSYNCH_TIMEDOUT = 60  # ETIMEDOUT


class _KernelWaitQueue:
    """A psynch kwq: kernel state for one user synchroniser address."""

    def __init__(self) -> None:
        self.locked = False
        self.waiters = 0
        self.event = object()
        self.seq = 0  # signal generation counter (condvars)


class PsynchSupport:
    """The psynch syscall family's kernel half."""

    def __init__(self, xnu: XNUKernelAPI) -> None:
        self.xnu = xnu
        self._kwqs: Dict[Tuple[int, int], _KernelWaitQueue] = {}

    def _kwq(self, task: object, user_addr: int) -> _KernelWaitQueue:
        key = (id(task), user_addr)
        kwq = self._kwqs.get(key)
        if kwq is None:
            kwq = _KernelWaitQueue()
            self._kwqs[key] = kwq
        return kwq

    # -- mutexes ---------------------------------------------------------------

    @staticmethod
    def _mutex_name(task: object, mutex_addr: int) -> str:
        # Named by owning process + user address: stable run to run
        # (addresses are the simulated library's deterministic ids),
        # distinct across tasks that reuse the same address.
        return f"mutex:{getattr(task, 'name', 'task')}@{mutex_addr:#x}"

    def psynch_mutexwait(self, task: object, mutex_addr: int) -> int:
        """Acquire; blocks while another thread holds the mutex."""
        kwq = self._kwq(task, mutex_addr)
        while kwq.locked:
            kwq.waiters += 1
            self.xnu.thread_block(kwq.event)
            kwq.waiters -= 1
        kwq.locked = True
        hb = self.xnu.hb_monitor()
        if hb is not None:
            hb.lock_acquire(kwq, self._mutex_name(task, mutex_addr))
        return PSYNCH_SUCCESS

    def psynch_mutexdrop(self, task: object, mutex_addr: int) -> int:
        kwq = self._kwq(task, mutex_addr)
        hb = self.xnu.hb_monitor()
        if hb is not None:
            hb.lock_release(kwq, self._mutex_name(task, mutex_addr))
        kwq.locked = False
        if kwq.waiters:
            self.xnu.thread_wakeup_one(kwq.event)
        return PSYNCH_SUCCESS

    # -- condition variables -------------------------------------------------------

    def psynch_cvwait(
        self,
        task: object,
        cv_addr: int,
        mutex_addr: int,
        timeout_ns: Optional[float] = None,
    ) -> int:
        """Atomically drop the mutex and wait on the condvar; reacquires
        the mutex before returning."""
        cv = self._kwq(task, cv_addr)
        self.psynch_mutexdrop(task, mutex_addr)
        my_seq = cv.seq
        result = PSYNCH_SUCCESS
        while cv.seq == my_seq:
            cv.waiters += 1
            if timeout_ns is not None:
                woken = self.xnu.thread_block_timeout(cv.event, timeout_ns)
                cv.waiters -= 1
                if not woken:
                    result = PSYNCH_TIMEDOUT
                    break
            else:
                self.xnu.thread_block(cv.event)
                cv.waiters -= 1
        self.psynch_mutexwait(task, mutex_addr)
        return result

    def psynch_cvsignal(self, task: object, cv_addr: int) -> int:
        cv = self._kwq(task, cv_addr)
        cv.seq += 1
        self.xnu.thread_wakeup_one(cv.event)
        return PSYNCH_SUCCESS

    def psynch_cvbroad(self, task: object, cv_addr: int) -> int:
        cv = self._kwq(task, cv_addr)
        cv.seq += 1
        self.xnu.thread_wakeup(cv.event)
        return PSYNCH_SUCCESS


EXPORTS = {
    "PsynchSupport": PsynchSupport,
    "PSYNCH_SUCCESS": PSYNCH_SUCCESS,
    "PSYNCH_TIMEDOUT": PSYNCH_TIMEDOUT,
}
