"""The iOS OpenGL ES library: native variant and the Cider replacement.

**Native variant** (ships on Apple hardware): every entry point first
ensures a connection to the proprietary GPU accelerator service
(``IOGraphicsAccelerator2``) through opaque Mach IPC.  On Apple hardware
that service exists and the standardised GL functionality proceeds; on a
Cider device it does not, and the library is unusable — "neither
implementing kernel-level emulation code nor duct taping a piece [of] GPU
driver code ... will solve this problem" (paper §5.3).  Because the
app-facing API is standardised and "typically similar across platforms",
the post-connection behaviour is shared with the Android GL state machine.

**Cider replacement**: "Cider replaces the entire iOS OpenGL ES library
with diplomats" — built by the automated generator for the standard API
(matched against libGLESv2.so's ELF exports) plus hand-written diplomats
for Apple's EAGL extensions targeting libEGLbridge.  The prototype's
broken fence synchronisation (§6.3) lives in the replacement's
``glClientWaitSyncAPPLE`` diplomat, toggleable for the ablation bench.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from ..android import gles as agl
from ..diplomacy.diplomat import Diplomat
from ..diplomacy.generator import GenerationReport, generate_diplomats
from .iosurface import AppleGPUNotPresentError

if TYPE_CHECKING:
    from ..binfmt import BinaryImage
    from ..kernel.process import UserContext

LIB_STATE_KEY = "OpenGLES"


def _require_apple_gpu(ctx: "UserContext") -> None:
    """Connect to the Apple GPU accelerator (first call per process)."""
    state = ctx.lib_state(LIB_STATE_KEY)
    if state.get("agx_connected"):
        return
    libc = ctx.libc
    service = libc.io_service_get_matching_service(
        {"IOClass": "IOGraphicsAccelerator2"}
    )
    if not service:
        raise AppleGPUNotPresentError(
            "IOGraphicsAccelerator2 not found: the Apple GPU stack is not "
            "present on this device"
        )
    kr, connect = libc.io_service_open(service)
    if kr != 0:
        raise AppleGPUNotPresentError(f"accelerator open failed: {kr}")
    state["agx_connected"] = True
    state["agx_connect_id"] = connect


def _wrap_native(gl_fn: Callable) -> Callable:
    def native_entry(ctx: "UserContext", *args: object) -> object:
        _require_apple_gpu(ctx)
        return gl_fn(ctx, *args)

    native_entry.__name__ = f"native_{gl_fn.__name__}"
    return native_entry


# -- native EAGL extensions -----------------------------------------------------


class EAGLContext:
    """The object iOS apps hold; wraps the platform context."""

    def __init__(self, platform_context: object) -> None:
        self.platform_context = platform_context
        self.drawable = None


def _native_EAGLContextCreate(ctx: "UserContext") -> EAGLContext:
    _require_apple_gpu(ctx)
    ctx.machine.charge("gl_call_cpu")
    compositor = ctx.machine.surfaceflinger
    if compositor is None:
        raise AppleGPUNotPresentError("no display compositor is running")
    return EAGLContext(agl.GLContext())


def _native_EAGLContextSetCurrent(
    ctx: "UserContext", context: EAGLContext
) -> bool:
    ctx.machine.charge("gl_call_cpu")
    agl.make_current(ctx, context.platform_context if context else None)
    return True


def _native_EAGLRenderbufferStorageFromDrawable(
    ctx: "UserContext", context: EAGLContext, drawable: object
) -> bool:
    ctx.machine.charge("gl_call_cpu")
    context.drawable = drawable
    return True


def _native_EAGLContextPresentRenderbuffer(
    ctx: "UserContext", context: EAGLContext
) -> bool:
    ctx.machine.charge("gl_call_cpu")
    agl.flush_to_gpu(ctx, context.platform_context)
    drawable = context.drawable
    if drawable is not None and hasattr(drawable, "post"):
        drawable.post()
    return True


def _native_glFenceSyncAPPLE(ctx: "UserContext", *args: object):
    _require_apple_gpu(ctx)
    return agl.glFenceSync(ctx)


def _native_glClientWaitSyncAPPLE(ctx: "UserContext", fence: object):
    _require_apple_gpu(ctx)
    return agl.glClientWaitSync(ctx, fence)


def native_opengles_exports() -> Dict[str, object]:
    """The Mach-O export table of the real iOS OpenGLES framework."""
    exports: Dict[str, object] = {}
    for name, fn in agl.gles_exports().items():
        exports[f"_{name}"] = _wrap_native(fn)
    exports["_glFenceSyncAPPLE"] = _native_glFenceSyncAPPLE
    exports["_glClientWaitSyncAPPLE"] = _native_glClientWaitSyncAPPLE
    exports["_EAGLContextCreate"] = _native_EAGLContextCreate
    exports["_EAGLContextSetCurrent"] = _native_EAGLContextSetCurrent
    exports["_EAGLRenderbufferStorageFromDrawable"] = (
        _native_EAGLRenderbufferStorageFromDrawable
    )
    exports["_EAGLContextPresentRenderbuffer"] = (
        _native_EAGLContextPresentRenderbuffer
    )
    return exports


# -- the Cider replacement library ------------------------------------------------


class _FenceWaitDiplomat(Diplomat):
    """The replacement's fence wait: correct arbitration, but the fence
    primitive mapping is wrong when the prototype bug is enabled."""

    def __call__(self, ctx: "UserContext", fence: object) -> object:
        config = getattr(ctx.kernel, "cider_config", {})
        broken = bool(config.get("fence_bug", False))
        return super().__call__(ctx, fence, broken)


def build_cider_opengles(
    native_library: "BinaryImage",
    domestic_images: Sequence["BinaryImage"],
) -> Tuple["BinaryImage", GenerationReport]:
    """Run the diplomat generator to produce Cider's OpenGL ES library."""
    manual: Dict[str, object] = {
        # Apple EAGL extensions -> the custom libEGLbridge library.
        "_EAGLContextCreate": Diplomat(
            "_EAGLContextCreate", "libEGLbridge.so", "eaglbridge_create_context"
        ),
        "_EAGLContextSetCurrent": Diplomat(
            "_EAGLContextSetCurrent", "libEGLbridge.so", "eaglbridge_set_current"
        ),
        "_EAGLRenderbufferStorageFromDrawable": Diplomat(
            "_EAGLRenderbufferStorageFromDrawable",
            "libEGLbridge.so",
            "eaglbridge_storage_from_drawable",
        ),
        "_EAGLContextPresentRenderbuffer": Diplomat(
            "_EAGLContextPresentRenderbuffer",
            "libEGLbridge.so",
            "eaglbridge_present",
        ),
        # Cider addition: window memory for apps launched without a
        # proxied CiderPress surface (benchmarks, headless tools).
        "_CiderCreateWindowSurface": Diplomat(
            "_CiderCreateWindowSurface",
            "libEGLbridge.so",
            "eaglbridge_create_window",
        ),
        # Apple fence extension: the suffix prevents an automatic match.
        "_glFenceSyncAPPLE": Diplomat(
            "_glFenceSyncAPPLE", "libGLESv2.so", "glFenceSync"
        ),
        "_glClientWaitSyncAPPLE": _FenceWaitDiplomat(
            "_glClientWaitSyncAPPLE", "libGLESv2.so", "glClientWaitSync"
        ),
    }
    return generate_diplomats(native_library, domestic_images, manual)
