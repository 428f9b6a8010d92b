"""Tests for the synthetic binary image formats."""

import pytest

from repro.binfmt import (
    Arch,
    BadBinaryError,
    BinaryFormat,
    BinaryKind,
    ELF_MAGIC,
    MACHO_MAGIC,
    UndefinedSymbolError,
    elf_executable,
    elf_library,
    macho_dylib,
    macho_executable,
    sniff_format,
)


def _entry(ctx, argv):
    return 0


class TestMagic:
    def test_elf_magic(self):
        assert elf_executable("a", _entry).magic == ELF_MAGIC

    def test_macho_magic(self):
        assert macho_executable("a", _entry).magic == MACHO_MAGIC

    def test_sniffing(self):
        assert sniff_format(ELF_MAGIC + b"junk") is BinaryFormat.ELF
        assert sniff_format(MACHO_MAGIC) is BinaryFormat.MACHO
        assert sniff_format(b"#!/bin/sh") is None


class TestStructure:
    def test_executable_kind_and_entry(self):
        image = elf_executable("prog", _entry)
        assert image.kind is BinaryKind.EXECUTABLE
        assert image.entry is _entry

    def test_macho_entry_is_underscored(self):
        image = macho_executable("prog", _entry)
        assert image.entry_symbol == "_main"
        assert image.lookup("_main").fn is _entry

    def test_library_has_no_entry(self):
        lib = elf_library("libx.so")
        with pytest.raises(BadBinaryError):
            lib.entry

    def test_vm_size_from_segments(self):
        image = elf_executable("prog", _entry, text_kb=64, data_kb=16)
        assert image.vm_size_bytes == 80 * 1024

    def test_default_deps(self):
        assert elf_executable("prog", _entry).deps == ("libc.so",)
        assert macho_executable("prog", _entry).deps == (
            "/usr/lib/libSystem.B.dylib",
        )

    def test_lookup_missing_symbol(self):
        with pytest.raises(UndefinedSymbolError):
            elf_library("libx.so").lookup("nothing")

    def test_exports_functions_and_data(self):
        lib = elf_library(
            "libx.so", functions={"fn": _entry}, data={"version": 7}
        )
        assert lib.lookup("fn").is_function
        assert not lib.lookup("version").is_function
        assert lib.lookup("version").data == 7

    def test_install_name_defaults_to_name(self):
        lib = macho_dylib("UIKit")
        assert lib.install_name == "UIKit"
        framework = macho_dylib("UIKit", install_name="/S/L/F/UIKit")
        assert framework.install_name == "/S/L/F/UIKit"

    def test_default_arch_is_armv7(self):
        assert macho_executable("a", _entry).arch is Arch.ARMV7


class TestEncryption:
    def test_app_store_binary_flag(self):
        image = macho_executable("app", _entry, encrypted=True)
        assert image.encrypted

    def test_decrypted_copy(self):
        image = macho_executable("app", _entry, encrypted=True, deps=["d"])
        clear = image.decrypted_copy()
        assert not clear.encrypted
        assert clear.name == image.name
        assert clear.deps == image.deps
        assert clear.entry is image.entry
        assert image.encrypted  # original untouched


class TestCompilers:
    def test_elf_defaults_to_gcc(self):
        assert elf_executable("a", _entry).compiler.name == "gcc-4.4.1"

    def test_macho_defaults_to_xcode(self):
        assert macho_executable("a", _entry).compiler.name == "xcode-4.2.1"
