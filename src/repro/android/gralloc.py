"""libgralloc: Android graphics memory allocation.

Allocates :class:`GraphicBuffer` window memory.  Cider's diplomatic
IOSurface functions call straight into this library — "these diplomats
call into Android-specific graphics memory allocation libraries such as
libgralloc" (paper §5.3) — giving iOS apps zero-copy buffers backed by the
same allocator Android apps use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..hw.display import PixelBuffer

if TYPE_CHECKING:
    from ..kernel.process import UserContext


class GraphicBuffer:
    """One allocation of window memory, numbered per machine."""

    def __init__(
        self, buffer_id: int, width_px: int, height_px: int, usage: str = "texture"
    ):
        self.buffer_id = buffer_id
        self.width_px = width_px
        self.height_px = height_px
        self.usage = usage
        self.pixels = PixelBuffer(width_px, height_px)
        self.locked = False
        #: Bytes charged to the machine's gralloc carveout (0 when no
        #: resource envelope was installed at allocation time).
        self.gralloc_reserved = 0

    @property
    def size_bytes(self) -> int:
        return self.pixels.size_bytes

    def __repr__(self) -> str:
        return (
            f"<GraphicBuffer #{self.buffer_id} "
            f"{self.width_px}x{self.height_px} {self.usage}>"
        )


class GrallocRegistry:
    """Per-machine buffer registry (buffers are shareable by id, the
    simulation's stand-in for passing gralloc handles over binder/IPC)."""

    def __init__(self) -> None:
        self.buffers: Dict[int, GraphicBuffer] = {}

    def register(self, buffer: GraphicBuffer) -> GraphicBuffer:
        self.buffers[buffer.buffer_id] = buffer
        return buffer

    def lookup(self, buffer_id: int) -> Optional[GraphicBuffer]:
        return self.buffers.get(buffer_id)


def _registry(ctx: "UserContext") -> GrallocRegistry:
    machine = ctx.machine
    registry = getattr(machine, "gralloc_registry", None)
    if registry is None:
        registry = GrallocRegistry()
        machine.gralloc_registry = registry  # type: ignore[attr-defined]
    return registry


# -- exported libgralloc entry points (ELF symbols) ------------------------------


def gralloc_alloc(
    ctx: "UserContext", width_px: int, height_px: int, usage: str = "texture"
) -> GraphicBuffer:
    """Allocate a graphic buffer (charges allocator + IOMMU work).

    With a resource envelope installed the buffer's bytes count against
    the machine's gralloc carveout (ION-style).  Allocation itself never
    fails — the carveout overcommits — but once the budget is exceeded
    SurfaceFlinger degrades by dropping frames until buffers are freed.
    """
    buffer_id = ctx.machine.next_id("graphic-buffer")
    buffer = GraphicBuffer(buffer_id, width_px, height_px, usage)
    ctx.machine.charge("gralloc_alloc")
    res = ctx.machine.resources
    if res is not None:
        res.reserve_gralloc(buffer.size_bytes)
        buffer.gralloc_reserved = buffer.size_bytes
    return _registry(ctx).register(buffer)


def gralloc_lock(ctx: "UserContext", buffer: GraphicBuffer) -> PixelBuffer:
    buffer.locked = True
    return buffer.pixels


def gralloc_unlock(ctx: "UserContext", buffer: GraphicBuffer) -> None:
    buffer.locked = False


def gralloc_lookup(ctx: "UserContext", buffer_id: int) -> Optional[GraphicBuffer]:
    return _registry(ctx).lookup(buffer_id)


def gralloc_free(ctx: "UserContext", buffer: GraphicBuffer) -> None:
    """Release a buffer and return its bytes to the gralloc carveout —
    the degradation escape hatch apps use under memory pressure."""
    _registry(ctx).buffers.pop(buffer.buffer_id, None)
    if buffer.gralloc_reserved:
        res = ctx.machine.resources
        if res is not None:
            res.release_gralloc(buffer.gralloc_reserved)
        buffer.gralloc_reserved = 0


def gralloc_exports() -> Dict[str, object]:
    return {
        "gralloc_alloc": gralloc_alloc,
        "gralloc_lock": gralloc_lock,
        "gralloc_unlock": gralloc_unlock,
        "gralloc_lookup": gralloc_lookup,
        "gralloc_free": gralloc_free,
    }
