"""The C++ runtime added to the Linux kernel for I/O Kit.

I/O Kit is written in a restricted C++ subset (embedded C++: no
exceptions, no multiple inheritance, no templates) on top of libkern's
OSObject/OSMetaClass machinery.  Cider "added a basic C++ runtime to the
Linux kernel based on Android's Bionic" so the iokit sources compile
unmodified (paper §5.1).  This module is that runtime's simulation:
reference-counted :class:`OSObject` roots and an :class:`OSMetaClass`
registry supporting allocation and dynamic casts *by class name* — the
facility I/O Kit's driver matching is built on.

It lives in the duct-tape zone: both the foreign I/O Kit code and the
domestic kernel's glue (driver registration at boot) may reference it.
"""

from __future__ import annotations

from typing import Dict, Optional, Type


class OSMetaClassRegistry:
    """The global metaclass table (one per kernel)."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type["OSObject"]] = {}
        self.constructed = 0

    def register(self, cls: Type["OSObject"]) -> None:
        self._classes[cls.__name__] = cls

    def lookup(self, class_name: str) -> Optional[Type["OSObject"]]:
        return self._classes.get(class_name)

    def alloc_class_with_name(self, class_name: str, *args, **kwargs):
        """OSMetaClass::allocClassWithName."""
        cls = self.lookup(class_name)
        if cls is None:
            return None
        return cls(*args, **kwargs)

    def is_subclass(self, class_name: str, of_name: str) -> bool:
        cls = self.lookup(class_name)
        target = self.lookup(of_name)
        if cls is None or target is None:
            return False
        return issubclass(cls, target)


class OSObject:
    """Root of the libkern object hierarchy: retain/release lifetime."""

    #: Set by the kernel that instantiated the runtime; OSObject
    #: subclasses register themselves here on definition via
    #: ``__init_subclass__`` when a registry is active.
    _active_registry: Optional[OSMetaClassRegistry] = None

    def __init__(self) -> None:
        self._retain_count = 1
        registry = OSObject._active_registry
        if registry is not None:
            registry.constructed += 1

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        registry = OSObject._active_registry
        if registry is not None:
            registry.register(cls)

    # -- lifetime ---------------------------------------------------------

    def retain(self) -> "OSObject":
        self._retain_count += 1
        return self

    def release(self) -> None:
        self._retain_count -= 1
        if self._retain_count == 0:
            self.free()

    @property
    def retain_count(self) -> int:
        return self._retain_count

    def free(self) -> None:
        """Subclass hook (the C++ destructor)."""

    # -- casts ---------------------------------------------------------------

    def meta_cast(self, cls: Type["OSObject"]) -> Optional["OSObject"]:
        """OSDynamicCast."""
        return self if isinstance(self, cls) else None

    def class_name(self) -> str:
        return type(self).__name__


class CxxRuntime:
    """The per-kernel C++ runtime instance.

    Use as a context when defining/loading driver classes so that their
    metaclasses land in this kernel's registry:

    >>> runtime = CxxRuntime(machine)
    >>> with runtime.loading():
    ...     class AppleM2CLCD(IOMobileFramebuffer): ...
    """

    def __init__(self, machine) -> None:
        self._machine = machine
        self.registry = OSMetaClassRegistry()

    def construct(self, cls: Type[OSObject], *args, **kwargs) -> OSObject:
        """Instantiate with constructor cost accounting."""
        self._machine.charge("cxx_construct")
        return cls(*args, **kwargs)

    def loading(self) -> "_LoadContext":
        return _LoadContext(self.registry)

    def register_class(self, cls: Type[OSObject]) -> None:
        self.registry.register(cls)


class _LoadContext:
    """Temporarily routes OSObject subclass definitions to a registry."""

    def __init__(self, registry: OSMetaClassRegistry) -> None:
        self._registry = registry
        self._previous: Optional[OSMetaClassRegistry] = None

    def __enter__(self) -> OSMetaClassRegistry:
        self._previous = OSObject._active_registry
        OSObject._active_registry = self._registry
        return self._registry

    def __exit__(self, *exc_info) -> None:
        OSObject._active_registry = self._previous
