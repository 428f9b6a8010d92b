"""Shared sweep plumbing: the byte-comparable document and the sweep CLI.

Every robustness sweep (partsweep, crashsweep, schedsweep) proves its
claim the same way: it renders a line-oriented transcript whose SHA-256
must not change across runs, hash seeds or ``--jobs`` values.  This
module owns the parts they have in common:

* :class:`Document` — a deterministic line-oriented report with a digest
  (also the base of the kernel's fsck report and recovery log);
* :class:`SweepReport` — a document that counts ``cases`` and ``passed``;
* :func:`main` — the ``[N|all] [--jobs N] [--timings FILE]`` command
  line, the ``sweep sha256:`` footer and the wall-clock timings file.

Each harness still runs its own cases (``repro.sim.parallel.run_cases``);
this module only parses, prints and counts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

from .parallel import parse_jobs

__all__ = ["Document", "SweepReport", "main", "parse_args"]


class Document:
    """A deterministic line-oriented report."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def line(self, text: str) -> None:
        self.lines.append(text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()


class SweepReport(Document):
    """The byte-comparable sweep transcript, counting cases and passes."""

    def __init__(self) -> None:
        super().__init__()
        self.cases = 0
        self.passed = 0

    def case(self, text: str, ok: bool) -> None:
        """Record one case's report line and verdict."""
        self.line(text)
        self.cases += 1
        if ok:
            self.passed += 1


def parse_args(
    args: Sequence[str],
    positional: Optional[Callable[[str], object]] = None,
    default: object = None,
) -> Tuple[object, int, Optional[str]]:
    """Parse ``[ARG] [--jobs N] [--timings FILE]`` into
    ``(arg, jobs, timings_path)``.

    ``positional`` converts the optional positional argument (``None``
    accepts none).  Raises :class:`ValueError` on anything else,
    including a flag missing its value.
    """
    value, jobs, timings_path = default, 1, None
    rest = list(args)
    try:
        while rest:
            arg = rest.pop(0)
            if arg == "--jobs":
                jobs = parse_jobs(rest.pop(0))
            elif arg == "--timings":
                timings_path = rest.pop(0)
            elif positional is not None:
                value = positional(arg)
            else:
                raise ValueError(f"unexpected argument {arg!r}")
    except IndexError:
        raise ValueError("flag is missing its value") from None
    return value, jobs, timings_path


def main(
    name: str,
    run_sweep: Callable[..., SweepReport],
    default: Optional[int],
    argv: Optional[Sequence[str]] = None,
    arg: str = "max_cases|all",
) -> int:
    """``python -m repro.workloads.<name> [ARG] [--jobs N] [--timings FILE]``.

    ``ARG`` (spelled ``arg`` in the usage line) is an int passed to
    ``run_sweep(value, jobs=N)``; when the spelling ends in ``|all``,
    ``all`` passes ``None``.  Prints the transcript and its ``sweep
    sha256:`` footer, writes the timings JSON if asked, and returns 0
    when every case passed, 1 when any failed, 2 on bad argv.
    """
    usage = (
        f"usage: python -m repro.workloads.{name} "
        f"[{arg}] [--jobs N] [--timings FILE]"
    )

    def positional(text: str) -> Optional[int]:
        if text == "all" and arg.endswith("|all"):
            return None
        return int(text)

    try:
        value, jobs, timings_path = parse_args(
            sys.argv[1:] if argv is None else argv, positional, default
        )
    except ValueError:
        print(usage, file=sys.stderr)
        return 2
    start = time.perf_counter()
    report = run_sweep(value, jobs=jobs)
    wall_seconds = time.perf_counter() - start
    print(report.text(), end="")
    print(f"sweep sha256: {report.digest()}")
    if timings_path is not None:
        with open(timings_path, "w") as fh:
            json.dump(
                {
                    "harness": name,
                    "jobs": jobs,
                    "cases": report.cases,
                    "wall_seconds": round(wall_seconds, 3),
                },
                fh,
                sort_keys=True,
            )
            fh.write("\n")
    return 0 if report.passed == report.cases else 1
