"""libEGLbridge: the custom domestic library behind Apple's EAGL.

"Apple-specific EAGL extensions, used to control window memory and
graphics contexts, do not exist on Android ...  Cider uses a custom
domestic Android library, called libEGLbridge, that utilizes Android's
libEGL library and SurfaceFlinger service to provide functionality
corresponding to the missing EAGL functions." (paper §5.3)

Diplomatic EAGL functions in the Cider OpenGL ES replacement library call
into these entry points; everything here runs under the *domestic*
persona.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from . import egl
from .gles import GLContext, current_context, flush_to_gpu, make_current
from .surfaceflinger import Surface

if TYPE_CHECKING:
    from ..kernel.process import UserContext

LIB_STATE_KEY = "libEGLbridge"


class BridgeContext:
    """Domestic state backing one EAGLContext."""

    def __init__(self, gl_context: GLContext) -> None:
        self.gl_context = gl_context
        self.surface: Optional[egl.EGLSurface] = None


def _state(ctx: "UserContext") -> Dict[str, object]:
    return ctx.lib_state(LIB_STATE_KEY)


# -- exported entry points (one per missing EAGL function) ---------------------------


def eaglbridge_create_context(ctx: "UserContext") -> BridgeContext:
    """Backs [[EAGLContext alloc] initWithAPI:]."""
    ctx.machine.charge("eagl_bridge_call")
    display = egl.eglGetDisplay(ctx)
    return BridgeContext(egl.eglCreateContext(ctx, display))


def eaglbridge_set_current(
    ctx: "UserContext", bridge: Optional[BridgeContext]
) -> bool:
    """Backs +[EAGLContext setCurrentContext:]."""
    ctx.machine.charge("eagl_bridge_call")
    if bridge is None:
        make_current(ctx, None)
        return True
    make_current(ctx, bridge.gl_context)
    if bridge.surface is not None:
        bridge.gl_context.draw_surface = bridge.surface
    return True


def eaglbridge_storage_from_drawable(
    ctx: "UserContext", bridge: BridgeContext, window: Surface
) -> bool:
    """Backs -[EAGLContext renderbufferStorage:fromDrawable:] — window
    memory comes from SurfaceFlinger, so the iOS display is managed like
    any Android window."""
    ctx.machine.charge("eagl_bridge_call")
    display = egl.eglGetDisplay(ctx)
    bridge.surface = egl.eglCreateWindowSurface(ctx, display, window)
    bridge.gl_context.draw_surface = bridge.surface
    return True


def eaglbridge_present(ctx: "UserContext", bridge: BridgeContext) -> bool:
    """Backs -[EAGLContext presentRenderbuffer:]."""
    ctx.machine.charge("eagl_bridge_call")
    if bridge.surface is None:
        return False
    display = egl.eglGetDisplay(ctx)
    return egl.eglSwapBuffers(ctx, display, bridge.surface)


def eaglbridge_create_window(
    ctx: "UserContext", name: str, width_px: int, height_px: int, z_order: int = 10
) -> Surface:
    """Allocate window memory from SurfaceFlinger on behalf of a foreign
    app (used when no proxied CiderPress surface was provided)."""
    ctx.machine.charge("eagl_bridge_call")
    flinger = ctx.machine.surfaceflinger
    if flinger is None:
        raise RuntimeError("SurfaceFlinger service is not running")
    return flinger.create_surface(name, width_px, height_px, z_order)


def eaglbridge_exports() -> Dict[str, object]:
    return {
        name: fn
        for name, fn in globals().items()
        if name.startswith("eaglbridge_") and callable(fn)
    }
