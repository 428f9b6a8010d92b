"""SurfaceFlinger: Android's rendering engine and display compositor.

Owns the display: apps obtain window memory (surfaces), draw into the
back buffer, and post; SurfaceFlinger composes every visible surface by
z-order using the GPU and pushes the final frame to the panel (paper §2).

Cider routes iOS window memory through here too — "allocating window
memory via the standard Android SurfaceFlinger service also allows Cider
to manage the iOS display in the same manner that all Android app windows
are managed" (§5.3), which is what makes screenshots of iOS apps appear
in Android's recents list.

Simulation note: the real SurfaceFlinger is a separate process reached
over binder; here it is a service object called directly.  The binder hop
cost is folded into the ``composition`` charge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..hw.display import PixelBuffer
from ..hw.gpu import GpuCommand
from .gralloc import GraphicBuffer

if TYPE_CHECKING:
    from ..hw.machine import Machine


class Surface:
    """A double-buffered window surface, numbered per machine."""

    def __init__(
        self,
        flinger: "SurfaceFlinger",
        name: str,
        width_px: int,
        height_px: int,
        z_order: int,
        x: int = 0,
        y: int = 0,
    ) -> None:
        machine = flinger.machine
        self.surface_id = machine.next_id("surface")
        self.flinger = flinger
        self.name = name
        self.width_px = width_px
        self.height_px = height_px
        self.z_order = z_order
        self.x = x
        self.y = y
        self.visible = True
        self.front = GraphicBuffer(
            machine.next_id("graphic-buffer"), width_px, height_px, usage="window"
        )
        self.back = GraphicBuffer(
            machine.next_id("graphic-buffer"), width_px, height_px, usage="window"
        )
        #: Bytes charged against the machine's gralloc carveout budget
        #: (released by :meth:`SurfaceFlinger.destroy_surface`).
        self.gralloc_reserved = 0
        res = machine.resources
        if res is not None:
            nbytes = self.front.size_bytes + self.back.size_bytes
            self.gralloc_reserved = nbytes
            # The allocation itself never fails (the carveout overcommits,
            # like ION); exhaustion instead degrades composition — see
            # SurfaceFlinger.composite.
            res.reserve_gralloc(nbytes)

    def lock_back(self) -> PixelBuffer:
        """The buffer the app draws into."""
        return self.back.pixels

    def post(self) -> None:
        """Swap buffers and trigger composition."""
        self.front, self.back = self.back, self.front
        self.flinger.composite()

    def screenshot(self) -> str:
        return self.front.pixels.to_text()


class SurfaceFlinger:
    """The compositor service."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.surfaces: List[Surface] = []
        #: Surfaces published by id for another process to draw into
        #: (CiderPress hands its window to the iOS app this way).
        self.published: Dict[int, Surface] = {}
        self.compositions = 0

    def shutdown(self) -> None:
        """The system is going down: drop every surface (each points back
        at this compositor)."""
        self.surfaces.clear()
        self.published.clear()

    # -- surface management ------------------------------------------------------

    def create_surface(
        self,
        name: str,
        width_px: int,
        height_px: int,
        z_order: int = 0,
        x: int = 0,
        y: int = 0,
    ) -> Surface:
        surface = Surface(self, name, width_px, height_px, z_order, x, y)
        self.surfaces.append(surface)
        return surface

    def destroy_surface(self, surface: Surface) -> None:
        if surface in self.surfaces:
            self.surfaces.remove(surface)
        if surface.gralloc_reserved:
            res = self.machine.resources
            if res is not None:
                res.release_gralloc(surface.gralloc_reserved)
            surface.gralloc_reserved = 0
        self.composite()

    # -- composition -----------------------------------------------------------------

    def composite(self) -> None:
        """Blend all visible surfaces by z-order onto the panel.

        Graceful degradation: when the gralloc carveout is exhausted the
        compositor cannot stage the frame — it *drops* it (counted,
        observable) instead of crashing or blocking, exactly what a
        missed-vsync frame drop looks like from user space.  Posts keep
        succeeding; pixels simply stop reaching the panel until buffers
        are freed.
        """
        machine = self.machine
        res = machine.resources
        if res is not None and res.gralloc_exhausted:
            machine.count("android.sf.frames.dropped")
            machine.emit(
                "resource", "frame_dropped", compositions=self.compositions
            )
            return
        machine.charge("composition")
        frame = PixelBuffer(
            machine.display.width_px, machine.display.height_px
        )
        visible = sorted(
            (s for s in self.surfaces if s.visible), key=lambda s: s.z_order
        )
        commands = []
        for surface in visible:
            frame.blit(surface.front.pixels, surface.x, surface.y)
            blocks = (surface.width_px * surface.height_px) // 4096
            commands.append(
                GpuCommand("blit", fragment_blocks=max(1, blocks))
            )
        if commands:
            machine.gpu.submit(commands)
        machine.display.post(frame)
        self.compositions += 1

    def screenshot(self) -> str:
        return self.machine.display.screenshot()
