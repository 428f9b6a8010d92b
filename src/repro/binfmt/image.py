"""Synthetic binary images.

Real Cider loads ARM Mach-O and ELF files.  The simulation represents a
binary as a :class:`BinaryImage`: a structured object carrying everything
the loaders, dynamic linkers, API interposition, and the diplomat
generator need — magic bytes, segments with sizes (they determine the
process's memory footprint and therefore fork cost), an exported symbol
table, declared library dependencies, an entry point, and the compiler
profile that built it (GCC vs Xcode code quality differs; Fig. 5 group 1).

Code is represented by Python callables of the form ``fn(ctx, *args)``
where ``ctx`` is the :class:`repro.kernel.process.UserContext` of the
calling thread.  This is the substitution for machine code: the functions
charge virtual time for the work they model and may only interact with the
system through the context (libc, syscalls, loaded libraries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

from ..hw.cpu import GCC_4_4_1, XCODE_4_2_1, CompilerProfile

#: ELF magic (\x7fELF) — what a Linux kernel's binfmt sniffing looks for.
ELF_MAGIC = b"\x7fELF"
#: 32-bit Mach-O magic (MH_MAGIC, 0xfeedface) in little-endian byte order.
MACHO_MAGIC = b"\xce\xfa\xed\xfe"

KB = 1024
MB = 1024 * KB


class BinaryFormat(Enum):
    ELF = "elf"
    MACHO = "macho"


class BinaryKind(Enum):
    EXECUTABLE = "executable"
    SHARED_LIBRARY = "shared_library"


class Arch(Enum):
    ARMV7 = "armv7"
    X86 = "x86"  # used only by negative tests (wrong-arch rejection)


@dataclass(frozen=True)
class Segment:
    """A loadable segment; size feeds the address-space footprint."""

    name: str  # "__TEXT", "__DATA" / ".text", ".data"
    size_bytes: int
    writable: bool = False

    #: Frozen value object: boot-snapshot clones share it.
    snapshot_shared = True


class Symbol:
    """One exported symbol of a binary image."""

    def __init__(
        self,
        name: str,
        fn: Optional[Callable] = None,
        data: object = None,
    ) -> None:
        self.name = name
        self.fn = fn
        self.data = data

    @property
    def is_function(self) -> bool:
        return self.fn is not None

    def __repr__(self) -> str:
        kind = "func" if self.is_function else "data"
        return f"<Symbol {self.name!r} {kind}>"


class BinaryImage:
    """A synthetic ELF or Mach-O file's parsed form."""

    def __init__(
        self,
        name: str,
        format: BinaryFormat,
        kind: BinaryKind,
        arch: Arch = Arch.ARMV7,
        segments: Optional[Sequence[Segment]] = None,
        exports: Optional[Dict[str, Symbol]] = None,
        deps: Optional[Sequence[str]] = None,
        entry_symbol: Optional[str] = None,
        compiler: Optional[CompilerProfile] = None,
        encrypted: bool = False,
        install_name: Optional[str] = None,
    ) -> None:
        self.name = name
        self.format = format
        self.kind = kind
        self.arch = arch
        self.segments: List[Segment] = list(segments or [])
        self.exports: Dict[str, Symbol] = dict(exports or {})
        self.deps: List[str] = list(deps or [])
        self.entry_symbol = entry_symbol
        self.compiler = compiler or (
            GCC_4_4_1 if format is BinaryFormat.ELF else XCODE_4_2_1
        )
        #: App Store binaries ship encrypted (LC_ENCRYPTION_INFO cryptid=1)
        #: and must be decrypted on a jailbroken device first (§6.1).
        self.encrypted = encrypted
        self.install_name = install_name or name

    # -- structural queries -------------------------------------------------

    @property
    def magic(self) -> bytes:
        return ELF_MAGIC if self.format is BinaryFormat.ELF else MACHO_MAGIC

    @property
    def vm_size_bytes(self) -> int:
        return sum(seg.size_bytes for seg in self.segments)

    @property
    def vm_size_mb(self) -> float:
        return self.vm_size_bytes / MB

    def export_names(self) -> List[str]:
        return sorted(self.exports)

    def lookup(self, symbol_name: str) -> Symbol:
        try:
            return self.exports[symbol_name]
        except KeyError:
            raise UndefinedSymbolError(
                f"{self.name}: undefined symbol {symbol_name!r}"
            ) from None

    @property
    def entry(self) -> Callable:
        if self.entry_symbol is None:
            raise BadBinaryError(f"{self.name}: no entry point")
        symbol = self.lookup(self.entry_symbol)
        if symbol.fn is None:
            raise BadBinaryError(f"{self.name}: entry {symbol.name!r} is data")
        return symbol.fn

    def decrypted_copy(self) -> "BinaryImage":
        """The image with its encrypted text segment decrypted."""
        clone = BinaryImage(
            name=self.name,
            format=self.format,
            kind=self.kind,
            arch=self.arch,
            segments=self.segments,
            exports=self.exports,
            deps=self.deps,
            entry_symbol=self.entry_symbol,
            compiler=self.compiler,
            encrypted=False,
            install_name=self.install_name,
        )
        return clone

    def __repr__(self) -> str:
        return (
            f"<BinaryImage {self.name!r} {self.format.value}/{self.kind.value} "
            f"{self.vm_size_mb:.1f}MB exports={len(self.exports)}>"
        )


class BadBinaryError(Exception):
    """The image is malformed or not executable."""


class UndefinedSymbolError(Exception):
    """Symbol lookup failed during linking or dlsym."""


# -- builders ----------------------------------------------------------------


def _wrap_exports(
    functions: Dict[str, Callable], data: Optional[Dict[str, object]] = None
) -> Dict[str, Symbol]:
    exports = {name: Symbol(name, fn=fn) for name, fn in functions.items()}
    for name, value in (data or {}).items():
        exports[name] = Symbol(name, data=value)
    return exports


def elf_executable(
    name: str,
    entry: Callable,
    deps: Optional[Sequence[str]] = None,
    text_kb: int = 64,
    data_kb: int = 16,
    extra_exports: Optional[Dict[str, Callable]] = None,
    compiler: CompilerProfile = GCC_4_4_1,
) -> BinaryImage:
    """A Linux/Android executable (the lmbench ELF build, hello-world...)."""
    exports = _wrap_exports({"main": entry, **(extra_exports or {})})
    return BinaryImage(
        name=name,
        format=BinaryFormat.ELF,
        kind=BinaryKind.EXECUTABLE,
        segments=[
            Segment(".text", text_kb * KB),
            Segment(".data", data_kb * KB, writable=True),
        ],
        exports=exports,
        deps=list(deps if deps is not None else ["libc.so"]),
        entry_symbol="main",
        compiler=compiler,
    )


def elf_library(
    name: str,
    functions: Optional[Dict[str, Callable]] = None,
    deps: Optional[Sequence[str]] = None,
    text_kb: int = 128,
    data_kb: int = 32,
    data: Optional[Dict[str, object]] = None,
) -> BinaryImage:
    """An Android ELF shared object (libc.so, libGLESv2.so, ...)."""
    return BinaryImage(
        name=name,
        format=BinaryFormat.ELF,
        kind=BinaryKind.SHARED_LIBRARY,
        segments=[
            Segment(".text", text_kb * KB),
            Segment(".data", data_kb * KB, writable=True),
        ],
        exports=_wrap_exports(functions or {}, data),
        deps=list(deps or []),
    )


def macho_executable(
    name: str,
    entry: Callable,
    deps: Optional[Sequence[str]] = None,
    text_kb: int = 96,
    data_kb: int = 24,
    extra_exports: Optional[Dict[str, Callable]] = None,
    compiler: CompilerProfile = XCODE_4_2_1,
    encrypted: bool = False,
) -> BinaryImage:
    """An iOS app binary (Mach-O).  C entry points are underscored."""
    exports = _wrap_exports({"_main": entry, **(extra_exports or {})})
    return BinaryImage(
        name=name,
        format=BinaryFormat.MACHO,
        kind=BinaryKind.EXECUTABLE,
        segments=[
            Segment("__TEXT", text_kb * KB),
            Segment("__DATA", data_kb * KB, writable=True),
        ],
        exports=exports,
        deps=list(
            deps if deps is not None else ["/usr/lib/libSystem.B.dylib"]
        ),
        entry_symbol="_main",
        compiler=compiler,
        encrypted=encrypted,
    )


def macho_dylib(
    name: str,
    functions: Optional[Dict[str, Callable]] = None,
    deps: Optional[Sequence[str]] = None,
    text_kb: int = 256,
    data_kb: int = 64,
    data: Optional[Dict[str, object]] = None,
    install_name: Optional[str] = None,
) -> BinaryImage:
    """An iOS framework dylib (UIKit, Foundation, OpenGLES...)."""
    return BinaryImage(
        name=name,
        format=BinaryFormat.MACHO,
        kind=BinaryKind.SHARED_LIBRARY,
        segments=[
            Segment("__TEXT", text_kb * KB),
            Segment("__DATA", data_kb * KB, writable=True),
        ],
        exports=_wrap_exports(functions or {}, data),
        deps=list(deps or []),
        install_name=install_name,
    )


def sniff_format(magic: bytes) -> Optional[BinaryFormat]:
    """What a kernel's binfmt probe does with the first file bytes."""
    if magic.startswith(ELF_MAGIC):
        return BinaryFormat.ELF
    if magic.startswith(MACHO_MAGIC):
        return BinaryFormat.MACHO
    return None
