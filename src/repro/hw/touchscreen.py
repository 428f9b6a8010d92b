"""Touch panel hardware.

Tests and examples inject :class:`TouchEvent` streams; the kernel's input
driver drains the hardware queue and republishes events through the
evdev-style device node that the Android input subsystem reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass(frozen=True)
class TouchEvent:
    """One multi-touch event as produced by the panel."""

    kind: str  # "down" | "move" | "up"
    x: float
    y: float
    pointer_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("down", "move", "up"):
            raise ValueError(f"bad touch event kind {self.kind!r}")


class TouchScreen:
    """The panel's hardware event FIFO."""

    def __init__(self) -> None:
        self._queue: List[TouchEvent] = []
        self._listener: Optional[Callable[[TouchEvent], None]] = None

    def attach_driver(self, listener: Callable[[TouchEvent], None]) -> None:
        """The kernel driver registers its interrupt handler here."""
        self._listener = listener
        for event in self._queue:
            listener(event)
        self._queue.clear()

    def inject(self, event: TouchEvent) -> None:
        """Hardware-level event injection (the user's finger)."""
        if self._listener is not None:
            self._listener(event)
        else:
            self._queue.append(event)

    # Convenience gestures for tests and examples -------------------------

    def tap(self, x: float, y: float, pointer_id: int = 0) -> None:
        self.inject(TouchEvent("down", x, y, pointer_id))
        self.inject(TouchEvent("up", x, y, pointer_id))

    def swipe(
        self, x0: float, y0: float, x1: float, y1: float, steps: int = 4
    ) -> None:
        self.inject(TouchEvent("down", x0, y0))
        for i in range(1, steps + 1):
            frac = i / steps
            self.inject(
                TouchEvent("move", x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)
            )
        self.inject(TouchEvent("up", x1, y1))

    def pinch(self, cx: float, cy: float, start: float, end: float) -> None:
        """Two-pointer pinch from ``start`` to ``end`` spread."""
        self.inject(TouchEvent("down", cx - start, cy, pointer_id=0))
        self.inject(TouchEvent("down", cx + start, cy, pointer_id=1))
        for spread in (start + (end - start) * f / 3 for f in range(1, 4)):
            self.inject(TouchEvent("move", cx - spread, cy, pointer_id=0))
            self.inject(TouchEvent("move", cx + spread, cy, pointer_id=1))
        self.inject(TouchEvent("up", cx - end, cy, pointer_id=0))
        self.inject(TouchEvent("up", cx + end, cy, pointer_id=1))
