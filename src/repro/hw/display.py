"""Display and pixel buffers.

Real framebuffers hold megabytes of pixels; the simulation represents a
buffer as a coarse character grid onto which drawing primitives render.
This keeps window memory, composition, and "screenshots" (ASCII dumps used
by the examples, standing in for the paper's Figure 4) cheap but fully
observable: tests can assert on what actually reached the panel.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: One character cell covers this many device pixels.
CELL_W_PX = 20
CELL_H_PX = 40


class PixelBuffer:
    """A drawable buffer addressed in device pixels, backed by a char grid.

    The grid is a list of rows, each a list of cell strings.  Drawing
    works one row at a time by slice assignment; only ``blit`` of a row
    that mixes blank and drawn cells goes cell by cell, because a blank
    source cell (``" "``) is transparent.
    """

    def __init__(self, width_px: int, height_px: int) -> None:
        if width_px <= 0 or height_px <= 0:
            raise ValueError("buffer dimensions must be positive")
        self.width_px = width_px
        self.height_px = height_px
        self.cols = max(1, width_px // CELL_W_PX)
        self.rows = max(1, height_px // CELL_H_PX)
        self._grid: List[List[str]] = [[" "] * self.cols for _ in range(self.rows)]

    @property
    def size_bytes(self) -> int:
        """Nominal size of the real buffer (RGBA8888)."""
        return self.width_px * self.height_px * 4

    def _cell(self, x_px: float, y_px: float) -> Tuple[int, int]:
        """The cell under a point, clamped to the edge cell."""
        col = int(x_px // CELL_W_PX)
        row = int(y_px // CELL_H_PX)
        if col < 0:
            col = 0
        elif col >= self.cols:
            col = self.cols - 1
        if row < 0:
            row = 0
        elif row >= self.rows:
            row = self.rows - 1
        return col, row

    def clear(self, ch: str = " ") -> None:
        span = [ch] * self.cols
        for row in self._grid:
            row[:] = span

    def fill_rect(self, x: float, y: float, w: float, h: float, ch: str) -> None:
        c0, r0 = self._cell(x, y)
        c1, r1 = self._cell(x + max(0.0, w - 1), y + max(0.0, h - 1))
        span = [ch] * (c1 - c0 + 1)
        for row in self._grid[r0 : r1 + 1]:
            row[c0 : c1 + 1] = span

    def draw_text(self, x: float, y: float, text: str) -> None:
        """One character per cell from the point on; columns past the
        right edge are dropped."""
        col, row = self._cell(x, y)
        text = text[: self.cols - col]
        self._grid[row][col : col + len(text)] = text

    def blit(self, src: "PixelBuffer", x: float, y: float) -> None:
        """Draw ``src`` with its top-left cell at the point; its blank
        cells leave the destination as it was.  Columns past the right
        edge and rows past the bottom are dropped."""
        c0, r0 = self._cell(x, y)
        width = min(src.cols, self.cols - c0)
        c1 = c0 + width
        blank = [" "] * src.cols
        for src_row, dst_row in zip(src._grid, self._grid[r0:]):
            if " " not in src_row:
                dst_row[c0:c1] = src_row[:width]
            elif src_row != blank:
                for col, ch in enumerate(src_row[:width], c0):
                    if ch != " ":
                        dst_row[col] = ch

    def cell_at(self, x_px: float, y_px: float) -> str:
        col, row = self._cell(x_px, y_px)
        return self._grid[row][col]

    def to_text(self) -> str:
        border = "+" + "-" * self.cols + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in self._grid)
        return f"{border}\n{body}\n{border}"

    def snapshot(self) -> "PixelBuffer":
        copy = object.__new__(PixelBuffer)
        copy.__dict__.update(self.__dict__)
        copy._grid = [row[:] for row in self._grid]
        return copy


class Display:
    """The panel.  SurfaceFlinger posts composed frames here."""

    def __init__(self, width_px: int, height_px: int) -> None:
        self.width_px = width_px
        self.height_px = height_px
        self.frames_posted = 0
        self._front: Optional[PixelBuffer] = None

    def post(self, frame: PixelBuffer) -> None:
        self._front = frame.snapshot()
        self.frames_posted += 1

    @property
    def front_buffer(self) -> Optional[PixelBuffer]:
        return self._front

    def screenshot(self) -> str:
        if self._front is None:
            return "<display off>"
        return self._front.to_text()
