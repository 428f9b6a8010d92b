"""I/O Kit — Apple's driver framework (the XNU ``iokit`` source tree).

Written in restricted C++ over libkern's OSObject runtime; Cider compiled
"the majority of the I/O Kit code without modification" into Linux after
adding a basic C++ runtime to the kernel (paper §5.1).  The simulation's
C++ runtime lives in the duct-tape zone
(:mod:`repro.ducttape.cxx_runtime`) — which this foreign module may
legally reference — and provides the OSMetaClass registry that driver
matching is built on.

Implements: the I/O Registry (a tree of IORegistryEntry objects with
properties), IOService with driver-personality matching and the
probe/start lifecycle, IOUserClient connections with external-method
dispatch, and the IOMobileFramebuffer class interface iOS user space
expects to find for the display.

Omissions mirror the prototype's: IODMAController / IOInterruptController
class families are absent ("primarily used by I/O Kit drivers
communicating directly with hardware", paper footnote 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ducttape.cxx_runtime import CxxRuntime, OSObject
from .api import XNUKernelAPI
from .ipc import KERN_INVALID_ARGUMENT, KERN_INVALID_NAME, KERN_SUCCESS

IO_OBJECT_NULL = 0


class IORegistryEntry(OSObject):
    """A node in the I/O Registry."""

    def __init__(self, name: str, properties: Optional[Dict] = None) -> None:
        super().__init__()
        self.entry_name = name
        self.properties: Dict[str, object] = dict(properties or {})
        self.children: List["IORegistryEntry"] = []
        self.parent: Optional["IORegistryEntry"] = None

    def attach(self, child: "IORegistryEntry") -> None:
        child.parent = self
        self.children.append(child)

    def detach(self, child: "IORegistryEntry") -> None:
        self.children.remove(child)
        child.parent = None

    def get_property(self, key: str) -> object:
        return self.properties.get(key)

    def set_property(self, key: str, value: object) -> None:
        self.properties[key] = value

    def path(self) -> str:
        parts: List[str] = []
        node: Optional[IORegistryEntry] = self
        while node is not None:
            parts.append(node.entry_name)
            node = node.parent
        return "/".join(reversed(parts))

    def iterate(self) -> List["IORegistryEntry"]:
        found = [self]
        for child in self.children:
            found.extend(child.iterate())
        return found


class IOService(IORegistryEntry):
    """A registry entry that participates in matching and has a
    provider/client lifecycle."""

    def __init__(self, name: str, properties: Optional[Dict] = None) -> None:
        super().__init__(name, properties)
        self.provider: Optional[IOService] = None
        self.started = False

    # Driver lifecycle ------------------------------------------------------

    def probe(self, provider: "IOService") -> Optional["IOService"]:
        """Return self to accept the provider, None to decline."""
        return self

    def start(self, provider: "IOService") -> bool:
        self.provider = provider
        self.started = True
        return True

    def stop(self) -> None:
        self.started = False

    # User clients -------------------------------------------------------------

    def new_user_client(self, task: object) -> Optional["IOUserClient"]:
        return IOUserClient(self, task)


class IOUserClient(OSObject):
    """A per-task connection to a service (IOConnect)."""

    def __init__(self, service: IOService, task: object) -> None:
        super().__init__()
        self.service = service
        self.task = task
        self.closed = False

    def external_method(self, selector: int, args: tuple) -> Tuple[int, object]:
        """Dispatch an opaque method call; override in driver clients."""
        method = getattr(self.service, f"ext_method_{selector}", None)
        if method is None:
            return KERN_INVALID_ARGUMENT, None
        return KERN_SUCCESS, method(*args)

    def close(self) -> None:
        self.closed = True


class IOMobileFramebuffer(IOService):
    """The C++ class interface iOS expects for the display (paper §5.1:
    apps interact with a class named AppleM2CLCD deriving from the
    IOMobileFramebuffer interface)."""

    def get_display_info(self) -> Dict[str, int]:
        raise NotImplementedError

    def swap_begin(self) -> int:
        raise NotImplementedError

    def swap_end(self) -> int:
        raise NotImplementedError


class DriverPersonality:
    """One matching dictionary from a driver's Info.plist."""

    def __init__(
        self,
        driver_class: str,
        provider_class: Optional[str] = None,
        match_properties: Optional[Dict[str, object]] = None,
        probe_score: int = 0,
    ) -> None:
        self.driver_class = driver_class
        self.provider_class = provider_class
        self.match_properties = dict(match_properties or {})
        self.probe_score = probe_score

    def matches(self, runtime: CxxRuntime, nub: IORegistryEntry) -> bool:
        if self.provider_class is not None:
            if not runtime.registry.is_subclass(
                type(nub).__name__, self.provider_class
            ) and type(nub).__name__ != self.provider_class:
                # Fall back to the IOClass property for Linux-bridged nubs.
                if nub.get_property("IOClass") != self.provider_class:
                    return False
        for key, value in self.match_properties.items():
            if nub.get_property(key) != value:
                return False
        return True


class IOKitFramework:
    """The I/O Kit instance compiled into a kernel."""

    def __init__(self, xnu: XNUKernelAPI, runtime: CxxRuntime) -> None:
        self.xnu = xnu
        self.runtime = runtime
        self.root = IORegistryEntry("IOService:/")
        self._personalities: List[DriverPersonality] = []
        self._services_by_id: Dict[int, IOService] = {}
        self._connections: Dict[int, IOUserClient] = {}
        self._next_service_id = 0x1001
        self._next_connect_id = 0x5001

    def shutdown(self) -> None:
        """The kernel is going down: take the registry apart (each entry
        and its parent point at each other) and drop every connection
        (each holds its task)."""
        for entry in self.root.iterate():
            entry.children.clear()
        self._connections.clear()

    # -- driver registration -----------------------------------------------------

    def register_personality(self, personality: DriverPersonality) -> None:
        self._personalities.append(personality)
        # Catalogue re-scan: newly registered drivers match existing nubs.
        for entry in list(self.root.iterate()):
            if isinstance(entry, IOService) and not any(
                isinstance(c, IOService) and c.started for c in entry.children
            ):
                self._match_nub(entry, only=personality)

    # -- nub publication -------------------------------------------------------------

    def publish_nub(
        self, nub: IOService, parent: Optional[IORegistryEntry] = None
    ) -> int:
        """registerService(): attach a device nub and run matching."""
        (parent or self.root).attach(nub)
        service_id = self._next_service_id
        self._next_service_id += 1
        nub.set_property("IORegistryEntryID", service_id)
        self._services_by_id[service_id] = nub
        self._match_nub(nub)
        return service_id

    def _match_nub(
        self, nub: IOService, only: Optional[DriverPersonality] = None
    ) -> Optional[IOService]:
        candidates = [only] if only is not None else self._personalities
        best: Optional[Tuple[int, DriverPersonality]] = None
        for personality in candidates:
            if personality is None or not personality.matches(self.runtime, nub):
                continue
            if best is None or personality.probe_score > best[0]:
                best = (personality.probe_score, personality)
        if best is None:
            return None
        personality = best[1]
        driver = self.runtime.registry.alloc_class_with_name(
            personality.driver_class, personality.driver_class
        )
        if driver is None or driver.probe(nub) is None:
            return None
        if not driver.start(nub):
            return None
        nub.attach(driver)
        driver_id = self._next_service_id
        self._next_service_id += 1
        driver.set_property("IORegistryEntryID", driver_id)
        self._services_by_id[driver_id] = driver
        return driver

    # -- user-space interface (reached via opaque Mach IPC) ----------------------------

    def get_matching_service(self, matching: Dict[str, object]) -> int:
        """IOServiceGetMatchingService."""
        self.xnu.charge("iokit_registry_lookup")
        wanted_class = matching.get("IOProviderClass") or matching.get("IOClass")
        for entry in self.root.iterate():
            if not isinstance(entry, IOService):
                continue
            if wanted_class is not None:
                by_type = type(entry).__name__ == wanted_class
                by_subclass = self.runtime.registry.is_subclass(
                    type(entry).__name__, str(wanted_class)
                )
                by_prop = entry.get_property("IOClass") == wanted_class
                if not (by_type or by_subclass or by_prop):
                    continue
            extra = {
                k: v
                for k, v in matching.items()
                if k not in ("IOProviderClass", "IOClass")
            }
            if all(entry.get_property(k) == v for k, v in extra.items()):
                return entry.get_property("IORegistryEntryID") or IO_OBJECT_NULL
        return IO_OBJECT_NULL

    def get_property(self, service_id: int, key: str) -> Tuple[int, object]:
        service = self._services_by_id.get(service_id)
        if service is None:
            return KERN_INVALID_NAME, None
        self.xnu.charge("iokit_registry_lookup")
        return KERN_SUCCESS, service.get_property(key)

    def service_open(self, task: object, service_id: int) -> Tuple[int, int]:
        """IOServiceOpen -> connection id."""
        service = self._services_by_id.get(service_id)
        if service is None:
            return KERN_INVALID_NAME, 0
        client = service.new_user_client(task)
        if client is None:
            return KERN_INVALID_ARGUMENT, 0
        connect_id = self._next_connect_id
        self._next_connect_id += 1
        self._connections[connect_id] = client
        return KERN_SUCCESS, connect_id

    def connect_call_method(
        self, task: object, connect_id: int, selector: int, args: tuple
    ) -> Tuple[int, object]:
        """IOConnectCallMethod: the opaque device-specific entry point."""
        client = self._connections.get(connect_id)
        if client is None or client.closed:
            return KERN_INVALID_NAME, None
        self.xnu.charge("iokit_method_dispatch")
        return client.external_method(selector, args)

    def service_close(self, task: object, connect_id: int) -> int:
        client = self._connections.pop(connect_id, None)
        if client is None:
            return KERN_INVALID_NAME
        client.close()
        return KERN_SUCCESS


EXPORTS = {
    "IORegistryEntry": IORegistryEntry,
    "IOService": IOService,
    "IOUserClient": IOUserClient,
    "IOMobileFramebuffer": IOMobileFramebuffer,
    "DriverPersonality": DriverPersonality,
    "IOKitFramework": IOKitFramework,
}
