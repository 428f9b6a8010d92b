"""Base Android system binaries and libraries.

The minimal ELF user space every Android configuration ships: libc, a few
support libraries, ``/system/bin/sh`` (used by lmbench's fork+sh), and a
hello-world (the exec'd child in fork+exec measurements).  Each image is
built once per process: an image is a value, so every boot installs the
same object.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, List

from ..binfmt import BinaryImage, elf_executable, elf_library
from ..kernel.process import UserContext

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel


def sh_main(ctx: UserContext, argv: List[str]) -> int:
    """A minimal POSIX shell: ``sh -c <path> [args...]``.

    Parses its command line, forks, execs the command, and waits —
    charging the interpreter startup work a real shell performs.
    """
    libc = ctx.libc
    ctx.machine.charge("shell_overhead")
    command = [a for a in argv[1:] if a != "-c"]
    if not command:
        return 0

    def child(child_ctx: UserContext) -> int:
        child_ctx.libc.execve(command[0], command)
        return 127  # exec failed

    pid = libc.fork(child)
    if pid == -1:
        return 126
    result = libc.waitpid(pid)
    if result == -1:
        return 126
    _pid, code = result
    return code


def hello_main(ctx: UserContext, argv: List[str]) -> int:
    """hello world: a trivial amount of work plus one write."""
    ctx.work(220)
    fd = ctx.libc.open("/dev/null", 0o1)
    ctx.libc.write(fd, b"hello world\n")
    ctx.libc.close(fd)
    return 0


@cache
def make_libc_image() -> BinaryImage:
    return elf_library("libc.so", text_kb=480, data_kb=64)


@cache
def make_libm_image() -> BinaryImage:
    return elf_library("libm.so", text_kb=220, data_kb=16)


@cache
def make_liblog_image() -> BinaryImage:
    return elf_library("liblog.so", text_kb=40, data_kb=8)


@cache
def make_sh_image() -> BinaryImage:
    return elf_executable("sh", sh_main, text_kb=280, data_kb=32)


@cache
def make_hello_elf_image() -> BinaryImage:
    return elf_executable("hello", hello_main, text_kb=12, data_kb=4)


def install_base_android(kernel: "Kernel") -> None:
    """Populate /system with the base Android user space binaries."""
    vfs = kernel.vfs
    vfs.makedirs("/system/lib")
    vfs.makedirs("/system/bin")
    vfs.makedirs("/vendor/lib")
    vfs.install_binary("/system/lib/libc.so", make_libc_image())
    vfs.install_binary("/system/lib/libm.so", make_libm_image())
    vfs.install_binary("/system/lib/liblog.so", make_liblog_image())
    vfs.install_binary("/system/bin/sh", make_sh_image())
    vfs.install_binary("/system/bin/hello", make_hello_elf_image())
