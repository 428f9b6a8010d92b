"""IOSurface: iOS's zero-copy graphics memory abstraction.

"The IOSurface iOS library provides a zero-copy abstraction for all
graphics memory in iOS.  An IOSurface object can be used to render 2D
graphics via CPU-bound drawing routines, efficiently passed to other
processes or apps via Mach IPC, and even used as the backing memory for
OpenGL ES textures" (paper §5.3).

Two variants live here:

* the **native** library (what ships on an iPad): allocates surfaces by
  opening the ``IOSurfaceRoot`` I/O Kit service through opaque Mach IPC.
  On a Cider device that service does not exist — the call fails, which
  is precisely why Cider interposes;
* the **Cider** library: "Cider interposes diplomatic functions on key
  IOSurface API entry points such as IOSurfaceCreate.  These diplomats
  call into Android-specific graphics memory allocation libraries such
  as libgralloc."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..hw.display import PixelBuffer

if TYPE_CHECKING:
    from ..kernel.process import UserContext


class AppleGPUNotPresentError(Exception):
    """The Apple graphics stack's I/O Kit services are missing (i.e. the
    foreign library was run on non-Apple hardware without diplomats)."""


class IOSurface:
    """One surface object as seen by iOS user space."""

    def __init__(self, width_px: int, height_px: int, pixels: PixelBuffer):
        self.width_px = width_px
        self.height_px = height_px
        self._pixels = pixels
        #: Set by the Cider variant: the gralloc buffer backing this
        #: surface (zero-copy sharing with the Android side).
        self.gralloc_buffer = None
        self.lock_count = 0

    @property
    def size_bytes(self) -> int:
        return self._pixels.size_bytes

    def base_address(self) -> PixelBuffer:
        return self._pixels

    def __repr__(self) -> str:
        return f"<IOSurface {self.width_px}x{self.height_px}>"


# -- native library (Apple hardware path) ----------------------------------------


def _native_IOSurfaceCreate(
    ctx: "UserContext", width_px: int, height_px: int
) -> IOSurface:
    """Allocate through the IOSurfaceRoot I/O Kit service."""
    libc = ctx.libc
    state = ctx.lib_state("IOSurface")
    connect = state.get("root_connect")
    if connect is None:
        service = libc.io_service_get_matching_service(
            {"IOClass": "IOSurfaceRoot"}
        )
        if not service:
            raise AppleGPUNotPresentError(
                "IOSurfaceRoot service not found: the proprietary Apple "
                "graphics stack is not present on this device"
            )
        kr, connect = libc.io_service_open(service)
        if kr != 0:
            raise AppleGPUNotPresentError(f"IOSurfaceRoot open failed: {kr}")
        state["root_connect"] = connect
    _kr, surface = libc.io_connect_call_method(connect, 0, width_px, height_px)
    return surface


def _IOSurfaceGetBaseAddress(ctx: "UserContext", surface: IOSurface):
    ctx.machine.charge("native_op", 4)
    return surface.base_address()


def _IOSurfaceLock(ctx: "UserContext", surface: IOSurface) -> int:
    ctx.machine.charge("native_op", 10)
    surface.lock_count += 1
    return 0


def _IOSurfaceUnlock(ctx: "UserContext", surface: IOSurface) -> int:
    ctx.machine.charge("native_op", 10)
    surface.lock_count -= 1
    return 0


def _IOSurfaceGetWidth(ctx: "UserContext", surface: IOSurface) -> int:
    return surface.width_px


def _IOSurfaceGetHeight(ctx: "UserContext", surface: IOSurface) -> int:
    return surface.height_px


def native_iosurface_exports() -> Dict[str, object]:
    return {
        "_IOSurfaceCreate": _native_IOSurfaceCreate,
        "_IOSurfaceGetBaseAddress": _IOSurfaceGetBaseAddress,
        "_IOSurfaceLock": _IOSurfaceLock,
        "_IOSurfaceUnlock": _IOSurfaceUnlock,
        "_IOSurfaceGetWidth": _IOSurfaceGetWidth,
        "_IOSurfaceGetHeight": _IOSurfaceGetHeight,
    }


# -- Cider interposed library ------------------------------------------------------


def _cider_IOSurfaceCreate(
    ctx: "UserContext", width_px: int, height_px: int
) -> IOSurface:
    """The interposed entry point: a diplomatic call into libgralloc."""
    from ..diplomacy.diplomat import Diplomat

    state = ctx.lib_state("IOSurface.cider")
    diplomat = state.get("gralloc_diplomat")
    if diplomat is None:
        diplomat = Diplomat(
            foreign_symbol="_IOSurfaceCreate",
            domestic_library="libgralloc.so",
            domestic_symbol="gralloc_alloc",
        )
        state["gralloc_diplomat"] = diplomat
    buffer = diplomat(ctx, width_px, height_px, "iosurface")
    surface = IOSurface(width_px, height_px, buffer.pixels)
    surface.gralloc_buffer = buffer
    return surface


def cider_iosurface_exports() -> Dict[str, object]:
    """The Cider IOSurface library: IOSurfaceCreate is interposed; the
    accessor entry points are persona-neutral and kept as-is."""
    exports = dict(native_iosurface_exports())
    exports["_IOSurfaceCreate"] = _cider_IOSurfaceCreate
    return exports
