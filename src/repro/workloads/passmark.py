"""PassMark PerformanceTest Mobile, both ecosystems' builds.

The paper used "comparable iOS and Android PassMark apps" (§6.3): the
Android version "is written in Java and interpreted through the Dalvik
VM while the iOS version is written in Objective-C and compiled and run
as a native binary" — which is exactly why Cider's native execution of
the iOS build beats the Android build on CPU and memory tests.

Accordingly:

* the **Android build** is an ELF binary hosting a
  :class:`~repro.android.dalvik.DalvikVM`; its CPU and memory test loops
  are real dex bytecode (interpreted, with per-instruction dispatch
  cost), and its storage/graphics tests call native framework libraries
  through a thin interpreted shim — just like the Java app;
* the **iOS build** is a Mach-O binary whose loops charge native
  operation costs directly and whose graphics go through the iOS
  OpenGL ES / CoreGraphics libraries (diplomats on Cider, native on the
  iPad).

Every test reports **operations per second** (higher is better), the
unit Figure 6 normalises.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..android.dalvik import DalvikVM, assemble
from ..binfmt import BinaryImage, elf_executable, macho_executable
from ..kernel.files import O_RDONLY
from ..kernel.process import UserContext
from . import argv_params

#: Figure 6 row order.
PASSMARK_TESTS = [
    "cpu_integer",
    "cpu_float",
    "cpu_primes",
    "cpu_sort",
    "cpu_encryption",
    "cpu_compression",
    "storage_write",
    "storage_read",
    "memory_write",
    "memory_read",
    "gfx2d_solid",
    "gfx2d_trans",
    "gfx2d_complex",
    "gfx2d_image",
    "gfx2d_filter",
    "gfx3d_simple",
    "gfx3d_complex",
]

# Workload sizes (kept small: virtual time is exact, so repetition only
# costs real CPU).
CPU_ITERS = 1500
PRIME_LIMIT = 700
SORT_N = 40
CRYPT_BYTES = 1200
MEM_KB = 384
STORAGE_CHUNK_KB = 64
STORAGE_CHUNKS = 24
GFX2D_PRIMS = 160
IMG_W = IMG_H = 512
GFX3D_FRAMES = 3
GFX3D_SIMPLE_CALLS = 900
GFX3D_COMPLEX_CALLS = 2600
GFX3D_VERTS = 160
FENCE_EVERY = 32

# ---------------------------------------------------------------------------
# Dalvik bytecode for the Android build's interpreted loops.
# ---------------------------------------------------------------------------

_DEX_SOURCE = """
.method cpu_integer
.registers 6
    # v0 = iters; 4 integer ops per iteration
    const v1, 1
    const v2, 3
    const v3, 7
    const v4, 1
:loop
    if-eqz v0, :done
    add-int v1, v1, v2
    mul-int v1, v1, v3
    xor-int v1, v1, v2
    add-int v1, v1, v3
    sub-int v0, v0, v4
    goto :loop
:done
    return v1
.end method

.method cpu_float
.registers 7
    # v0 = iters; 4 double ops per iteration
    const v1, 1.5
    const v2, 0.25
    const v3, 1.01
    const v4, 1
:loop
    if-eqz v0, :done
    add-double v1, v1, v2
    mul-double v1, v1, v3
    mul-double v2, v2, v3
    add-double v1, v1, v2
    sub-int v0, v0, v4
    goto :loop
:done
    return v1
.end method

.method cpu_primes
.registers 10
    # v0 = limit; classic sieve; returns prime count in v1
    new-array v2, v0
    const v1, 0
    const v3, 2       # i
    const v9, 1
:outer
    if-ge v3, v0, :done
    aget v4, v2, v3
    if-nez v4, :next
    add-int v1, v1, v9
    move v5, v3       # j = i
:mark
    if-ge v5, v0, :next
    aput v9, v2, v5
    add-int v5, v5, v3
    goto :mark
:next
    add-int v3, v3, v9
    goto :outer
:done
    return v1
.end method

.method cpu_sort
.registers 12
    # v0 = n; fill array with pseudo-random ints, insertion sort
    new-array v1, v0
    const v2, 0       # i
    const v3, 1664525
    const v4, 1013904223
    const v5, 12345   # seed
    const v9, 1
:fill
    if-ge v2, v0, :sort
    mul-int v5, v5, v3
    add-int v5, v5, v4
    shr-int v6, v5, v9
    aput v6, v1, v2
    add-int v2, v2, v9
    goto :fill
:sort
    const v2, 1       # i
:outer
    if-ge v2, v0, :done
    aget v6, v1, v2
    move v7, v2       # j
:inner
    if-eqz v7, :place
    const v10, 1
    sub-int v8, v7, v10
    aget v10, v1, v8
    if-le v10, v6, :place
    aput v10, v1, v7
    sub-int v7, v7, v9
    goto :inner
:place
    aput v6, v1, v7
    add-int v2, v2, v9
    goto :outer
:done
    return v0
.end method

.method cpu_encryption
.registers 8
    # v0 = bytes; RC4-flavoured xor/rotate stream
    const v1, 0x5A
    const v2, 0x3C
    const v3, 1
    const v4, 5
:loop
    if-eqz v0, :done
    xor-int v1, v1, v2
    shl-int v2, v2, v3
    xor-int v2, v2, v1
    shr-int v2, v2, v3
    sub-int v0, v0, v3
    goto :loop
:done
    return v1
.end method

.method cpu_compression
.registers 8
    # v0 = bytes; RLE-flavoured scan: compare, count, branch
    const v1, 0       # out
    const v2, 0       # run
    const v3, 1
:loop
    if-eqz v0, :done
    and-int v4, v0, v3
    if-eqz v4, :extend
    add-int v1, v1, v3
    const v2, 0
    goto :next
:extend
    add-int v2, v2, v3
:next
    sub-int v0, v0, v3
    goto :loop
:done
    return v1
.end method

.method memory_loop
.registers 8
    # v0 = kb; 16 strided stores per KB (unrolled x1 here), plus the
    # native row touch that performs the actual bandwidth work
    const v2, 1
    const v3, 0
:loop
    if-eqz v0, :done
    const v4, 16
:row
    if-eqz v4, :rownext
    add-int v3, v3, v2
    sub-int v4, v4, v2
    goto :row
:rownext
    invoke-native v5, "mem_touch_kb", v3
    sub-int v0, v0, v2
    goto :loop
:done
    return v3
.end method
"""

#: ops each test "accomplishes", used for the ops/sec score so both
#: builds are scored on identical work.
_OPS = {
    "cpu_integer": CPU_ITERS * 4,
    "cpu_float": CPU_ITERS * 4,
    "cpu_primes": PRIME_LIMIT,
    "cpu_sort": SORT_N * SORT_N // 2,
    "cpu_encryption": CRYPT_BYTES * 4,
    "cpu_compression": CRYPT_BYTES * 3,
    "storage_write": STORAGE_CHUNKS * STORAGE_CHUNK_KB,
    "storage_read": STORAGE_CHUNKS * STORAGE_CHUNK_KB,
    "memory_write": MEM_KB,
    "memory_read": MEM_KB,
    "gfx2d_solid": GFX2D_PRIMS,
    "gfx2d_trans": GFX2D_PRIMS,
    "gfx2d_complex": GFX2D_PRIMS,
    "gfx2d_image": GFX2D_PRIMS,
    "gfx2d_filter": GFX2D_PRIMS,
    "gfx3d_simple": GFX3D_FRAMES,
    "gfx3d_complex": GFX3D_FRAMES,
}


def _score(ctx: UserContext, out: Dict, test: str, run) -> None:
    watch = ctx.machine.stopwatch()
    run()
    elapsed = watch.elapsed_ns()
    out[test] = _OPS[test] / (elapsed / 1e9) if elapsed > 0 else float("inf")


# ---------------------------------------------------------------------------
# Shared native pieces (storage uses libc on both; graphics use the
# platform libraries).
# ---------------------------------------------------------------------------


def _storage_write(ctx: UserContext, path: str) -> None:
    libc = ctx.libc
    fd = libc.creat(path)
    chunk = b"p" * (STORAGE_CHUNK_KB * 1024)
    for _ in range(STORAGE_CHUNKS):
        libc.write(fd, chunk)
    libc.close(fd)


def _storage_read(ctx: UserContext, path: str) -> None:
    libc = ctx.libc
    fd = libc.open(path, O_RDONLY)
    for _ in range(STORAGE_CHUNKS):
        libc.read(fd, STORAGE_CHUNK_KB * 1024)
    libc.close(fd)


# ---------------------------------------------------------------------------
# The Android build.
# ---------------------------------------------------------------------------


def _android_natives(vm: DalvikVM) -> None:
    def mem_touch_kb(ctx: UserContext, _acc: int) -> int:
        ctx.machine.charge("mem_write_per_kb")
        return 0

    vm.register_native("mem_touch_kb", mem_touch_kb)


def _android_gl(ctx: UserContext):
    """EGL context bound to a SurfaceFlinger window (native libs via
    the framework, as the Java app's GLSurfaceView would)."""
    from ..android import egl, gles

    display = egl.eglGetDisplay(ctx)
    flinger = ctx.machine.surfaceflinger
    window = flinger.create_surface("passmark-android", 800, 600, z_order=5)
    surface = egl.eglCreateWindowSurface(ctx, display, window)
    context = egl.eglCreateContext(ctx, display)
    egl.eglMakeCurrent(ctx, display, surface, context)
    return display, surface


def _android_gfx2d(ctx: UserContext, kind: str) -> None:
    from ..android.skia import skia_create_canvas
    from ..hw.display import PixelBuffer

    canvas = skia_create_canvas(ctx, PixelBuffer(800, 600))
    for index in range(GFX2D_PRIMS):
        x = (index * 13) % 700
        if kind == "solid":
            canvas.draw_solid_vector(ctx, x, 10, x + 60, 300, units=600)
        elif kind == "trans":
            canvas.draw_transparent_vector(ctx, x, 10, x + 60, 300, units=600)
        elif kind == "complex":
            points = [(x + i * 3, 20 + (i * 7) % 400) for i in range(12)]
            canvas.draw_complex_vector(ctx, points, units=900)
        elif kind == "image":
            canvas.draw_image(ctx, x, 40, IMG_W, IMG_H)
        elif kind == "filter":
            canvas.apply_filter(ctx, IMG_W, IMG_H)


def _android_gfx3d(ctx: UserContext, calls_per_frame: int) -> None:
    from ..android import egl, gles

    display, surface = _android_gl(ctx)
    draws = max(1, calls_per_frame - 4)
    for _frame in range(GFX3D_FRAMES):
        gles.glClear(ctx, gles.GL_COLOR_BUFFER_BIT)
        for _ in range(draws):
            gles.glDrawArrays(ctx, gles.GL_TRIANGLES, 0, GFX3D_VERTS)
        gles.glFlush(ctx)
        egl.eglSwapBuffers(ctx, display, surface)


def android_passmark_main(ctx: UserContext, argv: List[str]) -> int:
    params = argv_params(argv)
    out = params.get("out", {})
    tests = params.get("tests", PASSMARK_TESTS)
    dex = assemble("passmark.dex", _DEX_SOURCE)
    vm = DalvikVM(ctx, dex)
    _android_natives(vm)

    for test in tests:
        if test == "cpu_integer":
            _score(ctx, out, test, lambda: vm.invoke("cpu_integer", CPU_ITERS))
        elif test == "cpu_float":
            _score(ctx, out, test, lambda: vm.invoke("cpu_float", CPU_ITERS))
        elif test == "cpu_primes":
            _score(ctx, out, test, lambda: vm.invoke("cpu_primes", PRIME_LIMIT))
        elif test == "cpu_sort":
            _score(ctx, out, test, lambda: vm.invoke("cpu_sort", SORT_N))
        elif test == "cpu_encryption":
            _score(
                ctx, out, test, lambda: vm.invoke("cpu_encryption", CRYPT_BYTES)
            )
        elif test == "cpu_compression":
            _score(
                ctx, out, test, lambda: vm.invoke("cpu_compression", CRYPT_BYTES)
            )
        elif test == "storage_write":
            _score(ctx, out, test, lambda: _storage_write(ctx, "/data/pm.dat"))
        elif test == "storage_read":
            _score(ctx, out, test, lambda: _storage_read(ctx, "/data/pm.dat"))
        elif test in ("memory_write", "memory_read"):
            _score(ctx, out, test, lambda: vm.invoke("memory_loop", MEM_KB))
        elif test.startswith("gfx2d_"):
            kind = test.split("_", 1)[1]
            _score(ctx, out, test, lambda k=kind: _android_gfx2d(ctx, k))
        elif test == "gfx3d_simple":
            _score(
                ctx, out, test, lambda: _android_gfx3d(ctx, GFX3D_SIMPLE_CALLS)
            )
        elif test == "gfx3d_complex":
            _score(
                ctx, out, test, lambda: _android_gfx3d(ctx, GFX3D_COMPLEX_CALLS)
            )
    return 0


# ---------------------------------------------------------------------------
# The iOS build (native Objective-C-style code).
# ---------------------------------------------------------------------------


def _ios_cpu_integer(ctx: UserContext) -> None:
    ctx.op("op_int_add", CPU_ITERS * 2)
    ctx.op("op_int_mul", CPU_ITERS)
    ctx.op("op_int_add", CPU_ITERS)  # xor retires like an add


def _ios_cpu_float(ctx: UserContext) -> None:
    ctx.op("op_double_add", CPU_ITERS * 2)
    ctx.op("op_double_mul", CPU_ITERS * 2)


def _ios_cpu_primes(ctx: UserContext) -> None:
    # Sieve cost: ~ limit * ln(ln(limit)) marks + limit scans.
    marks = int(PRIME_LIMIT * 2.2)
    ctx.op("op_int_add", marks)
    ctx.op("op_store", marks)
    ctx.op("op_load", PRIME_LIMIT)
    ctx.op("op_branch", PRIME_LIMIT)


def _ios_cpu_sort(ctx: UserContext) -> None:
    compares = SORT_N * SORT_N // 2
    ctx.op("op_load", compares * 2)
    ctx.op("op_branch", compares)
    ctx.op("op_store", compares)


def _ios_cpu_encryption(ctx: UserContext) -> None:
    ctx.op("op_int_add", CRYPT_BYTES * 4)


def _ios_cpu_compression(ctx: UserContext) -> None:
    ctx.op("op_load", CRYPT_BYTES)
    ctx.op("op_branch", CRYPT_BYTES)
    ctx.op("op_int_add", CRYPT_BYTES)


def _ios_memory(ctx: UserContext, write: bool) -> None:
    cost = "mem_write_per_kb" if write else "mem_read_per_kb"
    for _ in range(MEM_KB):
        ctx.machine.charge(cost)
        ctx.op("op_store" if write else "op_load", 16)


def _ios_gl(ctx: UserContext):
    """EAGL context through the process's OpenGLES library (diplomats on
    Cider, native on the iPad)."""
    eagl_create = ctx.dlsym("OpenGLES", "_EAGLContextCreate")
    eagl_current = ctx.dlsym("OpenGLES", "_EAGLContextSetCurrent")
    eagl_storage = ctx.dlsym(
        "OpenGLES", "_EAGLRenderbufferStorageFromDrawable"
    )
    context = eagl_create()
    eagl_current(context)
    gles_image = ctx.process.loaded_libraries.get("OpenGLES")
    if gles_image is not None and "_CiderCreateWindowSurface" in gles_image.exports:
        window = ctx.dlsym("OpenGLES", "_CiderCreateWindowSurface")(
            "passmark-ios", 800, 600
        )
    else:
        window = ctx.machine.surfaceflinger.create_surface(
            "passmark-ios", 800, 600, z_order=5
        )
    eagl_storage(context, window)
    return context


def _ios_gfx2d(ctx: UserContext, kind: str) -> None:
    from ..hw.display import PixelBuffer

    create = ctx.dlsym("CoreGraphics", "_CGBitmapContextCreate")
    canvas = create(PixelBuffer(800, 600))
    fence_sync = wait_sync = None
    if kind == "image":
        # QuartzCore synchronises image-batch uploads with GL fences;
        # Cider's replacement library gets these wrong (paper §6.3).
        _ios_gl(ctx)
        fence_sync = ctx.dlsym("OpenGLES", "_glFenceSyncAPPLE")
        wait_sync = ctx.dlsym("OpenGLES", "_glClientWaitSyncAPPLE")
    for index in range(GFX2D_PRIMS):
        x = (index * 13) % 700
        if kind == "solid":
            canvas.draw_solid_vector(ctx, x, 10, x + 60, 300, units=600)
        elif kind == "trans":
            canvas.draw_transparent_vector(ctx, x, 10, x + 60, 300, units=600)
        elif kind == "complex":
            points = [(x + i * 3, 20 + (i * 7) % 400) for i in range(12)]
            canvas.draw_complex_vector(ctx, points, units=900)
        elif kind == "image":
            canvas.draw_image(ctx, x, 40, IMG_W, IMG_H)
            if index % FENCE_EVERY == FENCE_EVERY - 1:
                fence = fence_sync()
                wait_sync(fence)
        elif kind == "filter":
            canvas.apply_filter(ctx, IMG_W, IMG_H)


def _ios_gfx3d(ctx: UserContext, calls_per_frame: int) -> None:
    context = _ios_gl(ctx)
    gl_clear = ctx.dlsym("OpenGLES", "_glClear")
    gl_draw = ctx.dlsym("OpenGLES", "_glDrawArrays")
    gl_flush = ctx.dlsym("OpenGLES", "_glFlush")
    present = ctx.dlsym("OpenGLES", "_EAGLContextPresentRenderbuffer")
    draws = max(1, calls_per_frame - 4)
    for _frame in range(GFX3D_FRAMES):
        gl_clear(0x4000)
        for _ in range(draws):
            gl_draw(0x0004, 0, GFX3D_VERTS)
        gl_flush()
        present(context)


def ios_passmark_main(ctx: UserContext, argv: List[str]) -> int:
    params = argv_params(argv)
    out = params.get("out", {})
    tests = params.get("tests", PASSMARK_TESTS)
    runners = {
        "cpu_integer": lambda: _ios_cpu_integer(ctx),
        "cpu_float": lambda: _ios_cpu_float(ctx),
        "cpu_primes": lambda: _ios_cpu_primes(ctx),
        "cpu_sort": lambda: _ios_cpu_sort(ctx),
        "cpu_encryption": lambda: _ios_cpu_encryption(ctx),
        "cpu_compression": lambda: _ios_cpu_compression(ctx),
        "storage_write": lambda: _storage_write(ctx, "/private/var/tmp/pm.dat"),
        "storage_read": lambda: _storage_read(ctx, "/private/var/tmp/pm.dat"),
        "memory_write": lambda: _ios_memory(ctx, write=True),
        "memory_read": lambda: _ios_memory(ctx, write=False),
        "gfx2d_solid": lambda: _ios_gfx2d(ctx, "solid"),
        "gfx2d_trans": lambda: _ios_gfx2d(ctx, "trans"),
        "gfx2d_complex": lambda: _ios_gfx2d(ctx, "complex"),
        "gfx2d_image": lambda: _ios_gfx2d(ctx, "image"),
        "gfx2d_filter": lambda: _ios_gfx2d(ctx, "filter"),
        "gfx3d_simple": lambda: _ios_gfx3d(ctx, GFX3D_SIMPLE_CALLS),
        "gfx3d_complex": lambda: _ios_gfx3d(ctx, GFX3D_COMPLEX_CALLS),
    }
    for test in tests:
        # Objective-C app plumbing around each test (msgSend glue).
        ctx.machine.charge("objc_msgsend", 20)
        _score(ctx, out, test, runners[test])
    return 0


# ---------------------------------------------------------------------------
# Binary images.
# ---------------------------------------------------------------------------


def android_passmark_image() -> BinaryImage:
    """The Google Play build (dex in an ELF app_process host)."""
    return elf_executable(
        "passmark-android",
        android_passmark_main,
        deps=["libc.so", "libGLESv2.so", "libEGL.so", "libskia.so"],
        text_kb=340,
        data_kb=96,
    )


def ios_passmark_image() -> BinaryImage:
    """The App Store build (native Mach-O)."""
    return macho_executable(
        "passmark-ios",
        ios_passmark_main,
        deps=["/usr/lib/libSystem.B.dylib"],
        text_kb=420,
        data_kb=96,
    )


def install_passmark(kernel, which: str) -> str:
    if which == "android":
        path = "/data/app/passmark-android"
        kernel.vfs.makedirs("/data/app")
        kernel.vfs.install_binary(path, android_passmark_image())
    else:
        path = "/var/mobile/Applications/passmark/passmark-ios"
        kernel.vfs.makedirs("/var/mobile/Applications/passmark")
        kernel.vfs.install_binary(path, ios_passmark_image())
    return path
