"""GPU model: a command-stream processor.

Graphics libraries build :class:`GpuCommand` lists and submit them.  The
GPU charges virtual time per command, per vertex and per fragment block,
scaled by the device's GPU speed factor (the iPad mini's SGX543MP2 is
faster than the Nexus 7's Tegra 3, which is why 3D PassMark favours the
iPad in Fig. 6).  Fences are modelled so the Cider GLES library's broken
fence synchronisation (paper §6.3/§6.4) has somewhere real to go wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from ..sim import CostModel, VirtualClock


@dataclass(frozen=True)
class GpuCommand:
    """One unit of GPU work."""

    kind: str  # "draw", "clear", "state", "fence", "blit"
    vertices: int = 0
    fragment_blocks: int = 0
    detail: Dict[str, object] = field(default_factory=dict)


class Fence:
    """A GPU-side synchronisation point."""

    def __init__(self) -> None:
        self.signalled = False


class GPU:
    """Executes command buffers, charging time against the machine clock.

    It holds the clock and the cost table, not the machine, so the
    machine and its GPU form no reference cycle."""

    def __init__(
        self, clock: "VirtualClock", costs: "CostModel", speed_factor: float = 1.0
    ) -> None:
        self._clock = clock
        self._costs = costs
        self.speed_factor = speed_factor
        self.commands_executed = 0
        self.vertices_processed = 0
        self.fragment_blocks_shaded = 0

    def submit(self, commands: List[GpuCommand]) -> None:
        """Execute a command buffer synchronously (in virtual time)."""
        costs = self._costs
        total_ns = 0.0
        for cmd in commands:
            total_ns += costs["gpu_cmd"]
            if cmd.vertices:
                total_ns += costs["gpu_per_vertex"] * cmd.vertices
                self.vertices_processed += cmd.vertices
            if cmd.fragment_blocks:
                total_ns += costs["gpu_per_fragment_block"] * cmd.fragment_blocks
                self.fragment_blocks_shaded += cmd.fragment_blocks
            if cmd.kind == "fence":
                fence = cmd.detail.get("fence")
                if isinstance(fence, Fence):
                    fence.signalled = True
            self.commands_executed += 1
        self._clock.charge(total_ns * self.speed_factor)

    def create_fence(self) -> Fence:
        return Fence()

    def wait_fence(self, fence: Fence, broken: bool = False) -> None:
        """CPU-side wait for a fence.

        With a working implementation the fence has already been signalled
        by the submit that queued it, so the wait is nearly free.  The
        Cider prototype's GLES library had incorrect fence support
        (``broken=True``): every wait degenerates into a fixed stall.
        """
        if broken or not fence.signalled:
            self._clock.charge(self._costs["fence_stall"])
            fence.signalled = True

    def __repr__(self) -> str:
        return (
            f"<GPU x{self.speed_factor} cmds={self.commands_executed} "
            f"verts={self.vertices_processed}>"
        )
