"""The cross-kernel compilation driver.

Duct-taping a foreign subsystem into the domestic kernel is a three step
process (paper §4.2):

1. **Zone checking** — every module of the subsystem must live in the
   foreign zone and reference only foreign/duct-tape symbols
   (:mod:`repro.ducttape.zones`).
2. **Conflict detection** — the subsystem's exported symbols are compared
   against the domestic kernel's global symbol table; collisions (XNU and
   Linux genuinely both define ``kfree``, ``panic``, ``current_task``...)
   are detected automatically.
3. **Remapping & binding** — conflicting exports are renamed with an
   ``xnu_`` prefix, external foreign references are bound to the
   adaptation environment, and the subsystem is instantiated as a
   first-class member of the domestic kernel.
"""

from __future__ import annotations

import inspect
from types import ModuleType
from typing import Callable, Dict, List, Optional

from ..xnu.api import XNUKernelAPI
from .zones import check_foreign_subsystem

#: A curated slice of the domestic (Linux) kernel's global symbol table —
#: the names `nm vmlinux` would show.  Used for conflict detection.
LINUX_KERNEL_SYMBOLS = frozenset(
    {
        "schedule",
        "wake_up",
        "wake_up_process",
        "mutex_lock",
        "mutex_unlock",
        "kmalloc",
        "kfree",  # collides with XNU's kfree
        "kzalloc",
        "vmalloc",
        "panic",  # collides with XNU's panic
        "printk",
        "current",
        "copy_from_user",
        "copy_to_user",
        "do_fork",
        "sys_call_table",
        "device_add",
        "register_chrdev",
        "current_task",  # x86 Linux percpu symbol; XNU function
        "semaphore",
        "down_interruptible",
        "up",
        "queue_work",
        "ioremap",
    }
)


class SymbolConflictError(Exception):
    """An unexpected, unresolvable symbol conflict."""


class LinkedSubsystem:
    """The result of duct-taping one foreign subsystem."""

    def __init__(
        self,
        name: str,
        instance: object,
        exports: Dict[str, object],
        remapped: Dict[str, str],
        import_report: Dict[str, List[str]],
    ) -> None:
        self.name = name
        self.instance = instance
        #: Final (post-remap) symbol table as seen by the rest of the
        #: domestic kernel.
        self.exports = exports
        #: original name -> remapped name, for every conflict resolved.
        self.remapped = remapped
        self.import_report = import_report

    def symbol(self, name: str) -> object:
        return self.exports[name]

    def __repr__(self) -> str:
        return (
            f"<LinkedSubsystem {self.name!r} exports={len(self.exports)} "
            f"remapped={len(self.remapped)}>"
        )


class DuctTapeLinker:
    """Compiles foreign subsystems into a domestic kernel."""

    def __init__(
        self,
        env: XNUKernelAPI,
        domestic_symbols: Optional[frozenset] = None,
    ) -> None:
        self.env = env
        self.domestic_symbols = domestic_symbols or LINUX_KERNEL_SYMBOLS
        self.linked: Dict[str, LinkedSubsystem] = {}

    def link(
        self,
        name: str,
        modules: List[ModuleType],
        factory: Callable[[XNUKernelAPI], object],
    ) -> LinkedSubsystem:
        """Run the full duct-tape pipeline for one subsystem.

        ``factory`` instantiates the subsystem against the adaptation
        environment (the Python translation of binding unresolved foreign
        externals to duct-tape implementations).
        """
        # Step 1: zone enforcement.
        import_report = check_foreign_subsystem(modules)

        # Step 2: gather the subsystem's exported symbols.
        raw_exports: Dict[str, object] = {}
        for module in modules:
            declared = getattr(module, "EXPORTS", None)
            if declared is None:
                declared = {
                    sym: obj
                    for sym, obj in vars(module).items()
                    if not sym.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and getattr(obj, "__module__", None) == module.__name__
                }
            for sym, obj in declared.items():
                if sym in raw_exports and raw_exports[sym] is not obj:
                    raise SymbolConflictError(
                        f"{name}: duplicate foreign export {sym!r}"
                    )
                raw_exports[sym] = obj

        # Step 3: conflict detection against the domestic symbol table,
        # and remapping to unique names.
        exports: Dict[str, object] = {}
        remapped: Dict[str, str] = {}
        for sym, obj in raw_exports.items():
            final = sym
            if sym in self.domestic_symbols:
                final = f"xnu_{sym}"
                remapped[sym] = final
                if final in raw_exports:
                    raise SymbolConflictError(
                        f"{name}: remap target {final!r} already exported"
                    )
            exports[final] = obj

        instance = factory(self.env)
        linked = LinkedSubsystem(name, instance, exports, remapped, import_report)
        self.linked[name] = linked
        return linked

    def subsystem(self, name: str) -> object:
        return self.linked[name].instance

    def shutdown(self) -> None:
        """The domestic kernel is going down: each linked subsystem with a
        ``shutdown`` lets go of the kernel objects it holds, then the
        environment lets go of the kernel."""
        for linked in self.linked.values():
            shutdown = getattr(linked.instance, "shutdown", None)
            if shutdown is not None:
                shutdown()
        self.env.shutdown()
