"""Kernel-managed per-thread personas.

A *persona* is an execution mode assigned to each thread: it selects the
kernel ABI used when the thread traps, and the TLS layout the thread's
user-space code sees (paper §4.3).  Personas are tracked per thread,
inherited on fork/clone, and a process may contain threads of different
personas simultaneously — that is what lets one thread of an iOS app run
Android OpenGL ES code while another processes input as iOS code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .tls import TLSLayout

if TYPE_CHECKING:
    from .abi import KernelABI


class Persona:
    """An execution mode: a kernel ABI plus a TLS layout."""

    __slots__ = (
        "name",
        "abi",
        "tls_layout",
        "_flat",
        "_dispatch_ps",
        "_trace_key",
        "_subscribed",
    )

    def __init__(self, name: str, abi: "KernelABI", tls_layout: TLSLayout) -> None:
        self.name = name
        self.abi = abi
        self.tls_layout = tls_layout
        #: Kernel-maintained hot-path caches (see ``Kernel._prime_persona``):
        #: flattened ``{trapno: handler}`` across the ABI's dispatch tables
        #: (None = not yet primed / invalidated by a table change), the
        #: ABI's per-dispatch cost in integer picoseconds, and the
        #: pre-built ``("syscall", abi.name)`` trace-counter key.
        self._flat = None
        self._dispatch_ps = 0
        self._trace_key = ("syscall", getattr(abi, "name", "abi"))
        self._subscribed = False

    def drop_flat_cache(self) -> None:
        """A dispatch table gained a syscall: the next trap re-primes."""
        self._flat = None

    def __repr__(self) -> str:
        return f"<Persona {self.name!r}>"


class PersonaRegistry:
    """The set of personas a kernel knows how to execute."""

    def __init__(self) -> None:
        self._personas: Dict[str, Persona] = {}
        self.default: Optional[Persona] = None

    def register(self, persona: Persona, default: bool = False) -> Persona:
        self._personas[persona.name] = persona
        if default or self.default is None:
            self.default = persona
        return persona

    def get(self, name: str) -> Persona:
        try:
            return self._personas[name]
        except KeyError:
            raise UnknownPersonaError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._personas

    def names(self):
        return sorted(self._personas)

    def __len__(self) -> int:
        return len(self._personas)


class UnknownPersonaError(Exception):
    """set_persona or a loader referenced a persona the kernel lacks."""
