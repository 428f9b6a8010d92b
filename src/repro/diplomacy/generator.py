"""The diplomat generator script.

"Because each of these entry points has a well-defined, standardized
function prototype, the process of creating diplomats was automated by a
script.  This script analyzed exported symbols in the iOS OpenGL ES
Mach-O library, searched through a directory of Android ELF shared
objects for a matching export, and automatically generated diplomats for
each matching function." (paper §5.3)

The generator consumes a foreign Mach-O library image and a collection of
domestic ELF images, matches exports (stripping the Mach-O leading
underscore from C symbols), and emits a replacement Mach-O library whose
matched exports are :class:`~repro.diplomacy.diplomat.Diplomat` stubs.
Unmatched symbols (e.g. Apple's EAGL extensions, which have no ELF
counterpart) are reported so they can be covered by hand-written
diplomats into custom libraries such as libEGLbridge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..binfmt import BinaryImage, macho_dylib
from .diplomat import Diplomat


@dataclass
class GenerationReport:
    """What the script matched and what it could not."""

    matched: Dict[str, str] = field(default_factory=dict)  # foreign -> lib
    unmatched: List[str] = field(default_factory=list)
    manual: List[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        total = len(self.matched) + len(self.unmatched) + len(self.manual)
        if total == 0:
            return 0.0
        return (len(self.matched) + len(self.manual)) / total


def demangle_macho(symbol: str) -> str:
    """Mach-O C symbols carry a leading underscore; ELF ones do not."""
    return symbol[1:] if symbol.startswith("_") else symbol


def generate_diplomats(
    foreign_library: BinaryImage,
    domestic_images: Sequence[BinaryImage],
    manual_diplomats: Optional[Dict[str, Diplomat]] = None,
    foreign_persona: str = "ios",
    domestic_persona: str = "android",
) -> "tuple[BinaryImage, GenerationReport]":
    """Build the replacement library.

    Returns a new Mach-O image with the same name/install name whose
    exports are diplomats, plus the generation report.
    """
    report = GenerationReport()
    functions: Dict[str, Diplomat] = {}
    manual = dict(manual_diplomats or {})

    for foreign_symbol in foreign_library.export_names():
        if foreign_symbol in manual:
            functions[foreign_symbol] = manual.pop(foreign_symbol)
            report.manual.append(foreign_symbol)
            continue
        c_name = demangle_macho(foreign_symbol)
        match = _find_elf_export(domestic_images, c_name)
        if match is None:
            report.unmatched.append(foreign_symbol)
            continue
        functions[foreign_symbol] = Diplomat(
            foreign_symbol=foreign_symbol,
            domestic_library=match.name,
            domestic_symbol=c_name,
            domestic_persona=domestic_persona,
            foreign_persona=foreign_persona,
        )
        report.matched[foreign_symbol] = match.name

    # Manual diplomats for symbols absent from the foreign export table
    # (new entry points the replacement library introduces).
    for name, diplomat in manual.items():
        functions[name] = diplomat
        report.manual.append(name)

    replacement = macho_dylib(
        foreign_library.name,
        functions=functions,
        install_name=foreign_library.install_name,
        text_kb=max(64, len(functions) * 2),
        data_kb=32,
    )
    return replacement, report


def _find_elf_export(
    domestic_images: Sequence[BinaryImage], c_name: str
) -> Optional[BinaryImage]:
    for image in domestic_images:
        if c_name in image.exports:
            return image
    return None
