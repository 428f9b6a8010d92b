"""Accelerometer hardware.

CiderPress forwards accelerometer samples to iOS apps alongside touch
input (paper §3).  The model mirrors :class:`TouchScreen`: samples are
injected by tests/examples and drained by the kernel driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass(frozen=True)
class AccelSample:
    """One 3-axis sample in m/s^2."""

    ax: float
    ay: float
    az: float


class Accelerometer:
    """Hardware sample FIFO."""

    def __init__(self) -> None:
        self._queue: List[AccelSample] = []
        self._listener: Optional[Callable[[AccelSample], None]] = None

    def attach_driver(self, listener: Callable[[AccelSample], None]) -> None:
        self._listener = listener
        for sample in self._queue:
            listener(sample)
        self._queue.clear()

    def inject(self, sample: AccelSample) -> None:
        if self._listener is not None:
            self._listener(sample)
        else:
            self._queue.append(sample)

    def tilt(self, ax: float, ay: float, az: float = 9.81) -> None:
        self.inject(AccelSample(ax, ay, az))
