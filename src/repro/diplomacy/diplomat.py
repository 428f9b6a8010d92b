"""Diplomatic functions (libdiplomat).

A *diplomat* is a function stub that temporarily switches the persona of
the calling thread to execute a domestic function from within a foreign
app (paper §4.3).  The nine-step arbitration process is implemented
literally:

1. first invocation loads the domestic library and caches the entry point;
2. arguments are spilled to the stack;
3. ``set_persona`` switches kernel ABI + TLS pointers to domestic;
4. arguments are restored;
5. the domestic function is invoked through the cached symbol;
6. the return value is saved;
7. ``set_persona`` switches back to the foreign persona;
8. domestic TLS values (errno) are converted into the foreign TLS area;
9. the return value is restored and control returns to foreign code.

Steps 2/4/6/9 are register/stack mechanics whose time is folded into the
``diplomat_overhead`` charge; steps 3 and 7 are real syscalls paying the
full trap cost — which is why per-call diplomat overhead is measurable at
OpenGL ES call frequencies (the 20–37% 3D hit in Fig. 6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..compat.xnu_abi import SYS_set_persona
from ..kernel.errno import ENOENT, SyscallError
from ..kernel.loader import LibrarySearchPath

if TYPE_CHECKING:
    from ..binfmt import BinaryImage
    from ..kernel.process import UserContext

#: Where diplomats look for domestic libraries.
DOMESTIC_SEARCH_DIRS = ["/system/lib", "/vendor/lib"]


def _switch_persona(ctx: "UserContext", persona_name: str) -> None:
    """Invoke set_persona via a raw trap (works from either persona —
    the syscall is registered in every dispatch table on a Cider kernel,
    but the result convention differs)."""
    result = ctx.thread.trap(SYS_set_persona, persona_name)
    if isinstance(result, tuple):  # XNU convention: (value, carry)
        value, carry = result
        if carry:
            raise SyscallError(value, "set_persona failed")
    elif isinstance(result, int) and result < 0:
        raise SyscallError(-result, "set_persona failed")


def _load_domestic_library(ctx: "UserContext", lib_name: str) -> "BinaryImage":
    """Load an Android ELF library into a foreign process.

    This is component (1) of diplomatic function support: "the use of a
    domestic loader compiled as a foreign library" — Cider incorporates
    an Android ELF loader cross-compiled as an iOS library.
    """
    process = ctx.process
    cached = process.loaded_libraries.get(lib_name)
    if cached is not None:
        return cached
    search = LibrarySearchPath(ctx.kernel, DOMESTIC_SEARCH_DIRS)
    image = search.find(lib_name)
    ctx.machine.charge("linker_lib_load")
    process.address_space.map(f"diplomat:{image.name}", image.vm_size_bytes)
    process.loaded_libraries[image.name] = image
    # Recursively satisfy the domestic library's own dependencies.
    for dep in image.deps:
        _load_domestic_library(ctx, dep)
    return image


class Diplomat:
    """One diplomatic function stub."""

    #: A diplomat holds only its configuration (what it resolves, where
    #: it crosses to), never per-process state: that lives in
    #: ``ctx.lib_state``.  Boot-snapshot clones share it with the image
    #: exporting it.
    snapshot_shared = True

    def __init__(
        self,
        foreign_symbol: str,
        domestic_library: str,
        domestic_symbol: str,
        domestic_persona: str = "android",
        foreign_persona: str = "ios",
    ) -> None:
        self.foreign_symbol = foreign_symbol
        self.domestic_library = domestic_library
        self.domestic_symbol = domestic_symbol
        self.domestic_persona = domestic_persona
        self.foreign_persona = foreign_persona
        # Step 1's "locally-scoped static variable" caching the resolved
        # entry point — per-process, since libraries load per-process.
        self._cache_key = f"diplomat:{foreign_symbol}"

    def _resolve(self, ctx: "UserContext") -> Callable:
        cache = ctx.lib_state("libdiplomat")
        fn = cache.get(self._cache_key)
        if fn is None:
            image = _load_domestic_library(ctx, self.domestic_library)
            symbol = image.lookup(self.domestic_symbol)
            if symbol.fn is None:
                raise SyscallError(
                    ENOENT, f"{self.domestic_symbol} is not a function"
                )
            fn = symbol.fn
            cache[self._cache_key] = fn
        return fn

    def __call__(self, ctx: "UserContext", *args: object) -> object:
        """Run the nine-step arbitration.  With observability enabled the
        whole call is one ``diplomacy.call`` span whose children are the
        two ``set_persona`` traps (steps 3/7) and whatever the domestic
        function does — the profiler's reproduction of the paper's
        per-call diplomat overhead breakdown."""
        obs = ctx.machine.obs
        if obs is None:
            return self._call_body(ctx, args)
        span = obs.enter_span("diplomacy.call", self.foreign_symbol, None)
        try:
            return self._call_body(ctx, args)
        finally:
            obs.exit_span(span)

    def _call_body(self, ctx: "UserContext", args: tuple) -> object:
        machine = ctx.machine
        thread = ctx.thread

        fn = self._resolve(ctx)  # step 1
        machine.charge("diplomat_overhead")  # steps 2/4/6/9
        machine.emit("diplomat", self.foreign_symbol)

        if machine.faults is not None:
            outcome = machine.faults.check(
                "diplomat.switch",
                symbol=self.foreign_symbol,
                to=self.domestic_persona,
            )
            injected = ctx.kernel.apply_fault_errno(ctx.process, outcome)
            if injected is not None:
                # The persona switch failed transiently; surface it the
                # way a real stub would — errno in the *foreign* TLS.
                thread.tls().errno = injected
                raise SyscallError(
                    injected,
                    f"diplomat {self.foreign_symbol}: persona switch fault",
                )

        calling_persona = thread.persona.name
        _switch_persona(ctx, self.domestic_persona)  # step 3
        try:
            result = fn(ctx, *args)  # step 5
        finally:
            domestic_errno = thread.tls(
                ctx.kernel.personas.get(self.domestic_persona)
            ).errno
            _switch_persona(ctx, calling_persona)  # step 7
            # Step 8: convert domestic TLS values into the foreign area.
            machine.charge("errno_convert")
            thread.tls().errno = domestic_errno
        return result

    def __repr__(self) -> str:
        return (
            f"<Diplomat {self.foreign_symbol!r} -> "
            f"{self.domestic_library}:{self.domestic_symbol}>"
        )


def run_with_persona(
    ctx: "UserContext", persona_name: str, fn: Callable, *args: object
) -> object:
    """libdiplomat helper: run ``fn`` under another persona (used by
    infrastructure like the eventpump that needs a one-off crossing)."""
    thread = ctx.thread
    previous = thread.persona.name
    if previous == persona_name:
        return fn(ctx, *args)
    _switch_persona(ctx, persona_name)
    try:
        return fn(ctx, *args)
    finally:
        _switch_persona(ctx, previous)
