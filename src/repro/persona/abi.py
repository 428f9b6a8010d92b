"""The kernel ABI interface.

Each persona carries a :class:`KernelABI`: the object that owns the
persona's syscall dispatch tables and its calling/error conventions.  The
kernel's trap path is ABI-agnostic — it charges entry/exit costs and the
ABI's dispatch cost, looks the trap number up in the ABI's ``handlers``
dict, and lets the ABI encode success or failure in its own convention
(Linux returns ``-errno``; XNU raises the carry flag and returns the
positive errno; paper §4.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..kernel.errno import ENOSYS, SyscallError

#: A syscall handler: handler(kernel, kthread, *args) -> value.
SyscallHandler = Callable[..., object]


class KernelABI:
    """Base class for persona ABIs."""

    name = "abi"

    #: Cost charged on every dispatch, a miss included (None for the
    #: domestic ABI, which dispatches for free; XNU charges translation or
    #: native-trap cost).  The kernel resolves this to integer picoseconds
    #: at persona registration so the trap path never does a string lookup.
    dispatch_cost_name: "str | None" = None

    def __init__(self) -> None:
        #: ``{trap number: handler}`` across every table of this ABI: the
        #: kernel's one dispatch route.  Each table writes its entries here
        #: as it registers them.
        self.handlers: Dict[int, SyscallHandler] = {}

    def classify_trap(self, trapno: int) -> str:
        """The trap class of ``trapno`` (Linux has one; XNU has four)."""
        raise NotImplementedError

    # Result conventions -----------------------------------------------------

    def success(self, value: object) -> object:
        raise NotImplementedError

    def failure(self, errno: int) -> object:
        raise NotImplementedError


class DispatchTable:
    """One numbered syscall table of an ABI.

    Every entry also lands in the ABI's ``handlers`` dict, which all of
    the ABI's tables share, so a trap number binds at most once per ABI.
    """

    def __init__(self, name: str, abi: KernelABI) -> None:
        self.name = name
        self._abi_handlers = abi.handlers
        self._handlers: Dict[int, Tuple[str, SyscallHandler]] = {}

    def register(self, number: int, name: str, handler: SyscallHandler) -> None:
        if number in self._abi_handlers:
            raise ValueError(f"{self.name}: syscall {number} already bound")
        self._abi_handlers[number] = handler
        self._handlers[number] = (name, handler)

    def lookup(self, number: int) -> Tuple[str, SyscallHandler]:
        try:
            return self._handlers[number]
        except KeyError:
            raise SyscallError(ENOSYS, f"{self.name}[{number}]") from None

    def names(self):
        return sorted({name for name, _handler in self._handlers.values()})

    def __contains__(self, number: int) -> bool:
        return number in self._handlers

    def __len__(self) -> int:
        return len(self._handlers)
