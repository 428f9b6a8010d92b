"""libEGL: the Native Platform Graphics Interface on Android.

Binds GL contexts to SurfaceFlinger window surfaces.  Apple replaced EGL
with the EAGL extensions; Cider's libEGLbridge (:mod:`.eglbridge`) maps
EAGL semantics onto this library (paper §5.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .gles import GLContext, current_context, flush_to_gpu, make_current
from .surfaceflinger import Surface, SurfaceFlinger

if TYPE_CHECKING:
    from ..kernel.process import UserContext

LIB_STATE_KEY = "libEGL"


class EGLDisplay:
    """The default display connection."""

    def __init__(self, flinger: SurfaceFlinger) -> None:
        self.flinger = flinger


class EGLSurface:
    """A window-backed EGL surface."""

    def __init__(self, display: EGLDisplay, window: Surface) -> None:
        self.display = display
        self.window = window


def _state(ctx: "UserContext") -> Dict[str, object]:
    return ctx.lib_state(LIB_STATE_KEY)


def _flinger(ctx: "UserContext") -> SurfaceFlinger:
    flinger = getattr(ctx.machine, "surfaceflinger", None)
    if flinger is None:
        raise RuntimeError("SurfaceFlinger service is not running")
    return flinger


# -- exported libEGL entry points -----------------------------------------------------


def eglGetDisplay(ctx: "UserContext") -> EGLDisplay:
    ctx.machine.charge("gl_call_cpu")
    display = _state(ctx).get("display")
    if not isinstance(display, EGLDisplay):
        display = EGLDisplay(_flinger(ctx))
        _state(ctx)["display"] = display
    return display


def eglCreateWindowSurface(
    ctx: "UserContext", display: EGLDisplay, window: Surface
) -> EGLSurface:
    ctx.machine.charge("gl_call_cpu")
    return EGLSurface(display, window)


def eglCreateContext(ctx: "UserContext", display: EGLDisplay) -> GLContext:
    ctx.machine.charge("gl_call_cpu")
    return GLContext()


def eglMakeCurrent(
    ctx: "UserContext",
    display: EGLDisplay,
    surface: Optional[EGLSurface],
    context: Optional[GLContext],
) -> bool:
    ctx.machine.charge("gl_call_cpu")
    if context is not None:
        context.draw_surface = surface
    make_current(ctx, context)
    return True


def eglSwapBuffers(
    ctx: "UserContext", display: EGLDisplay, surface: EGLSurface
) -> bool:
    """Flush GL commands and post the window to the compositor."""
    ctx.machine.charge("gl_call_cpu")
    context = current_context(ctx)
    if context is not None:
        flush_to_gpu(ctx, context)
    surface.window.post()
    return True


def eglDestroySurface(
    ctx: "UserContext", display: EGLDisplay, surface: EGLSurface
) -> bool:
    ctx.machine.charge("gl_call_cpu")
    display.flinger.destroy_surface(surface.window)
    return True


def egl_exports() -> Dict[str, object]:
    return {
        name: fn
        for name, fn in globals().items()
        if name.startswith("egl") and callable(fn)
    }
