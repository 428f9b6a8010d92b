"""libGLESv2: the Android OpenGL ES 2.0 library.

The domestic hardware-managing library.  Each API entry point charges
``gl_call_cpu`` of library-side CPU work (validation, command encoding)
and appends commands to the current context's command buffer; buffers are
flushed to the :class:`~repro.hw.gpu.GPU` on flush/finish/swap.

Its exported symbol table is what Cider's diplomat generator scans for
matches against the iOS OpenGL ES library's exports (paper §5.3): every
function here is exported under its C name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..hw.gpu import Fence, GpuCommand

if TYPE_CHECKING:
    from ..kernel.process import UserContext
    from .egl import EGLSurface

GL_COLOR_BUFFER_BIT = 0x4000
GL_DEPTH_BUFFER_BIT = 0x0100
GL_TRIANGLES = 0x0004
GL_TRIANGLE_STRIP = 0x0005
GL_NO_ERROR = 0
GL_INVALID_OPERATION = 0x0502

LIB_STATE_KEY = "libGLESv2"


class GLContext:
    """One GL rendering context's state."""

    def __init__(self) -> None:
        self.pending: List[GpuCommand] = []
        self.clear_color = (0.0, 0.0, 0.0, 1.0)
        self.draw_surface: Optional["EGLSurface"] = None
        self.bound_texture = 0
        self.bound_buffer = 0
        self.program = 0
        self.viewport = (0, 0, 0, 0)
        self.capabilities: Dict[int, bool] = {}
        self.error = GL_NO_ERROR
        self.next_object_id = 1
        self.fences: List[Fence] = []
        self.draw_calls = 0
        self.vertices_submitted = 0

    def alloc_ids(self, count: int) -> List[int]:
        ids = list(range(self.next_object_id, self.next_object_id + count))
        self.next_object_id += count
        return ids


def _state(ctx: "UserContext") -> Dict[str, object]:
    return ctx.lib_state(LIB_STATE_KEY)


def _current(ctx: "UserContext") -> GLContext:
    current = _state(ctx).get("current")
    if not isinstance(current, GLContext):
        raise GLNoContextError("no current GL context")
    return current


def _call(ctx: "UserContext") -> None:
    ctx.machine.charge("gl_call_cpu")


class GLNoContextError(Exception):
    """An entry point was called without a current context."""


def make_current(ctx: "UserContext", context: Optional[GLContext]) -> None:
    """Internal hook used by EGL/EAGL to bind the thread's context."""
    _state(ctx)["current"] = context


def current_context(ctx: "UserContext") -> Optional[GLContext]:
    current = _state(ctx).get("current")
    return current if isinstance(current, GLContext) else None


def flush_to_gpu(ctx: "UserContext", context: GLContext) -> None:
    if context.pending:
        ctx.machine.gpu.submit(context.pending)
        context.pending = []


# -- exported GL ES 2.0 entry points -----------------------------------------------


def glClearColor(ctx, r, g, b, a):
    _call(ctx)
    _current(ctx).clear_color = (r, g, b, a)


def glClear(ctx, mask):
    _call(ctx)
    context = _current(ctx)
    context.pending.append(GpuCommand("clear", detail={"mask": mask}))


def glViewport(ctx, x, y, width, height):
    _call(ctx)
    _current(ctx).viewport = (x, y, width, height)


def glEnable(ctx, capability):
    _call(ctx)
    _current(ctx).capabilities[capability] = True


def glDisable(ctx, capability):
    _call(ctx)
    _current(ctx).capabilities[capability] = False


def glBlendFunc(ctx, src, dst):
    _call(ctx)
    _current(ctx).pending.append(GpuCommand("state"))


def glGenTextures(ctx, count):
    _call(ctx)
    return _current(ctx).alloc_ids(count)


def glDeleteTextures(ctx, texture_ids):
    _call(ctx)


def glBindTexture(ctx, target, texture_id):
    _call(ctx)
    _current(ctx).bound_texture = texture_id


def glTexImage2D(ctx, target, level, width, height, data_kb=0):
    _call(ctx)
    context = _current(ctx)
    kb = data_kb or max(1, (width * height * 4) // 1024)
    ctx.machine.charge("mem_write_per_kb", kb)
    context.pending.append(GpuCommand("state", detail={"upload_kb": kb}))


def glGenBuffers(ctx, count):
    _call(ctx)
    return _current(ctx).alloc_ids(count)


def glBindBuffer(ctx, target, buffer_id):
    _call(ctx)
    _current(ctx).bound_buffer = buffer_id


def glBufferData(ctx, target, size_kb):
    _call(ctx)
    ctx.machine.charge("mem_write_per_kb", max(1, size_kb))


def glCreateShader(ctx, shader_type):
    _call(ctx)
    return _current(ctx).alloc_ids(1)[0]


def glShaderSource(ctx, shader, source=""):
    _call(ctx)


def glCompileShader(ctx, shader):
    _call(ctx)
    ctx.machine.charge("gl_call_cpu", 20)  # compiler invocation


def glCreateProgram(ctx):
    _call(ctx)
    return _current(ctx).alloc_ids(1)[0]


def glAttachShader(ctx, program, shader):
    _call(ctx)


def glLinkProgram(ctx, program):
    _call(ctx)
    ctx.machine.charge("gl_call_cpu", 30)  # linker invocation


def glUseProgram(ctx, program):
    _call(ctx)
    _current(ctx).program = program


def glUniform4f(ctx, location, x, y, z, w):
    _call(ctx)


def glUniformMatrix4fv(ctx, location, matrix=None):
    _call(ctx)


def glVertexAttribPointer(ctx, index, size, stride=0):
    _call(ctx)


def glEnableVertexAttribArray(ctx, index):
    _call(ctx)


def glDrawArrays(ctx, mode, first, count):
    _call(ctx)
    context = _current(ctx)
    context.draw_calls += 1
    context.vertices_submitted += count
    context.pending.append(
        GpuCommand(
            "draw", vertices=count, fragment_blocks=max(1, count * 2)
        )
    )


def glDrawElements(ctx, mode, count):
    glDrawArrays(ctx, mode, 0, count)


def glGetError(ctx):
    _call(ctx)
    context = _current(ctx)
    error, context.error = context.error, GL_NO_ERROR
    return error


def glFlush(ctx):
    _call(ctx)
    flush_to_gpu(ctx, _current(ctx))


def glFinish(ctx):
    _call(ctx)
    context = _current(ctx)
    flush_to_gpu(ctx, context)


def glFenceSync(ctx):
    """Create a fence and queue its signal operation."""
    _call(ctx)
    context = _current(ctx)
    fence = ctx.machine.gpu.create_fence()
    context.fences.append(fence)
    context.pending.append(GpuCommand("fence", detail={"fence": fence}))
    return fence


def glClientWaitSync(ctx, fence, broken: bool = False):
    """CPU wait on a fence.  ``broken`` models Cider's incorrect fence
    support (injected by the replacement library, never by callers)."""
    _call(ctx)
    context = _current(ctx)
    flush_to_gpu(ctx, context)
    ctx.machine.gpu.wait_fence(fence, broken=broken)
    return True


def gles_exports() -> Dict[str, object]:
    """The ELF export table of libGLESv2.so."""
    return {
        name: fn
        for name, fn in globals().items()
        if name.startswith("gl") and callable(fn)
    }
