"""CPU model and compiler profiles.

The CPU itself is a thin descriptive object — per-operation costs live in
the machine's cost model.  What matters for the evaluation is the
*compiler profile* attached to each synthetic binary: lmbench's basic CPU
operation results (Fig. 5, group 1) differ between the ELF and Mach-O
builds of the same source because GCC 4.4.1 and Xcode 4.2.1 generate
different code, most visibly for integer divide.
"""

from __future__ import annotations

from typing import Dict, Mapping


class CPU:
    """Descriptive CPU model (cores and clock; costs live in the model)."""

    def __init__(self, cores: int, mhz: int) -> None:
        self.cores = cores
        self.mhz = mhz

    def __repr__(self) -> str:
        return f"<CPU {self.cores}x{self.mhz}MHz>"


class CompilerProfile:
    """Per-operation code-quality multipliers for a toolchain.

    A multiplier of 1.0 means the toolchain emits the reference sequence
    for that operation; >1.0 means less optimised code.
    """

    #: Process-wide toolchain constant: boot-snapshot clones share it.
    snapshot_shared = True

    def __init__(self, name: str, multipliers: Mapping[str, float]) -> None:
        self.name = name
        self._multipliers: Dict[str, float] = dict(multipliers)

    def factor(self, op_cost_name: str) -> float:
        return self._multipliers.get(op_cost_name, 1.0)

    def __repr__(self) -> str:
        return f"<CompilerProfile {self.name!r}>"


#: The Linux toolchain used for the ELF lmbench build (paper §6).
GCC_4_4_1 = CompilerProfile("gcc-4.4.1", {})

#: The iOS toolchain used for the Mach-O lmbench build.  The paper observed
#: that "the Linux compiler generated more optimized code than the iOS
#: compiler" for the integer divide test; other basic ops were essentially
#: identical across the three Android-device configurations.
XCODE_4_2_1 = CompilerProfile(
    "xcode-4.2.1",
    {
        "op_int_div": 1.45,
    },
)
