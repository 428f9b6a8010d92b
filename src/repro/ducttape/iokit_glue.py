"""Linux ↔ I/O Kit bridging (duct-tape zone: sees both kernels).

Two pieces from paper §5.1:

* "Using a small hook in the Linux device_add function, Cider creates a
  Linux device node I/O Kit registry entry (a device class instance) for
  every registered Linux device" — :class:`LinuxDeviceNub` plus the
  device-add hook installed by :func:`install_iokit_linux_glue`.
* "the Cider prototype added a single C++ file in the Nexus 7 display
  driver's source tree that defines a class named AppleM2CLCD [deriving
  from] the IOMobileFramebuffer C++ class interface ... a thin wrapper
  around the Linux device driver's functionality" — :class:`AppleM2CLCD`.

Also defines the Apple-hardware-only services (``IOSurfaceRoot``,
``IOGraphicsAccelerator2``) published on the XNU-native (iPad mini)
configuration — their *absence* on Cider is what forces the diplomatic
graphics path.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional

from ..kernel.devices import Device, FramebufferDriver
from ..xnu.iokit import (
    DriverPersonality,
    IOKitFramework,
    IOMobileFramebuffer,
    IOService,
    IOUserClient,
)
from .cxx_runtime import CxxRuntime

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel

#: Linux device class -> the IOClass property of the bridged nub.
_DEV_CLASS_TO_IOCLASS = {
    "graphics": "IODisplayNub",
    "input": "IOHIDNub",
    "mem": "IOMemNub",
}


class LinuxDeviceNub(IOService):
    """The registry entry mirroring one Linux device node."""

    def __init__(self, device: Device) -> None:
        ioclass = _DEV_CLASS_TO_IOCLASS.get(device.dev_class, "IOLinuxNub")
        super().__init__(
            device.name,
            {
                "IOClass": ioclass,
                "linux-device": device.name,
                "linux-class": device.dev_class,
            },
        )
        self.linux_driver = device.driver


class AppleM2CLCD(IOMobileFramebuffer):
    """The display driver class iOS user space expects, wrapping the
    Linux framebuffer driver."""

    def __init__(self, name: str = "AppleM2CLCD") -> None:
        super().__init__(name, {"IOClass": "AppleM2CLCD"})
        self.fb: Optional[FramebufferDriver] = None

    def probe(self, provider: IOService) -> Optional[IOService]:
        driver = getattr(provider, "linux_driver", None)
        if not isinstance(driver, FramebufferDriver):
            return None
        return self

    def start(self, provider: IOService) -> bool:
        self.fb = getattr(provider, "linux_driver", None)
        return super().start(provider)

    # -- IOMobileFramebuffer interface ------------------------------------

    def get_display_info(self) -> Dict[str, int]:
        assert self.fb is not None
        return {"width": self.fb.width, "height": self.fb.height, "depth": 32}

    def swap_begin(self) -> int:
        return 0

    def swap_end(self) -> int:
        return 0

    # External methods reachable via IOConnectCallMethod.
    def ext_method_0(self) -> Dict[str, int]:  # get display info
        return self.get_display_info()

    def ext_method_1(self) -> int:  # swap
        self.swap_begin()
        return self.swap_end()


class IOSurfaceRoot(IOService):
    """Apple's surface allocator service (present only on Apple HW)."""

    def __init__(self, name: str = "IOSurfaceRoot") -> None:
        super().__init__(name, {"IOClass": "IOSurfaceRoot"})

    def new_user_client(self, task: object) -> IOUserClient:
        return _IOSurfaceRootUserClient(self, task)

    def ext_method_0(self, width_px: int, height_px: int):
        """Allocate a surface kernel-side."""
        from ..hw.display import PixelBuffer
        from ..ios.iosurface import IOSurface

        return IOSurface(width_px, height_px, PixelBuffer(width_px, height_px))


class _IOSurfaceRootUserClient(IOUserClient):
    pass


class IOGraphicsAccelerator2(IOService):
    """The opaque Apple GPU accelerator service (Apple HW only)."""

    def __init__(self, name: str = "IOGraphicsAccelerator2") -> None:
        super().__init__(name, {"IOClass": "IOGraphicsAccelerator2"})

    def ext_method_0(self) -> int:  # channel setup; opaque to user space
        return 0


def _publish_linux_device(
    iokit: IOKitFramework, runtime: CxxRuntime, device: Device
) -> None:
    """Linux ``device_add`` hook: publish the device as an I/O Kit nub."""
    iokit.publish_nub(runtime.construct(LinuxDeviceNub, device))


def install_iokit_linux_glue(
    kernel: "Kernel", iokit: IOKitFramework, runtime: CxxRuntime
) -> None:
    """Wire Linux device_add into the I/O Kit registry and register the
    bridged driver classes."""
    runtime.register_class(LinuxDeviceNub)
    runtime.register_class(AppleM2CLCD)
    runtime.register_class(IOMobileFramebuffer)

    # A partial, not a closure: a snapshot clone copies it, and with it
    # the clone's own registry and runtime.
    on_device_add = partial(_publish_linux_device, iokit, runtime)
    kernel.devices.device_add_hooks.append(on_device_add)
    # Replay devices registered before the hook existed (kernel boots
    # before Cider is enabled).
    for device in kernel.devices.all_devices():
        on_device_add(device)

    # The "single C++ file in the display driver's source tree".
    iokit.register_personality(
        DriverPersonality("AppleM2CLCD", provider_class="IODisplayNub")
    )


def install_apple_graphics_services(
    kernel: "Kernel", iokit: IOKitFramework, runtime: CxxRuntime
) -> None:
    """Publish the Apple-proprietary graphics services (iPad mini only)."""
    runtime.register_class(IOSurfaceRoot)
    runtime.register_class(IOGraphicsAccelerator2)
    iokit.publish_nub(runtime.construct(IOSurfaceRoot))
    iokit.publish_nub(runtime.construct(IOGraphicsAccelerator2))
