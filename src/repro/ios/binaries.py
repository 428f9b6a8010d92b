"""Base iOS binaries: service executables, hello world, and a shell.

The Mach-O counterparts of :mod:`repro.android.binaries` — the iOS test
binaries the paper's fork+exec(ios) and fork+sh(ios) measurements spawn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..binfmt import BinaryImage, macho_executable

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel
    from ..kernel.process import UserContext

LIBSYSTEM_DEP = "/usr/lib/libSystem.B.dylib"


def launchd_entry(ctx: "UserContext", argv: List[str]) -> int:
    from .services import launchd_main

    return launchd_main(ctx, argv)


def configd_entry(ctx: "UserContext", argv: List[str]) -> int:
    from .services import configd_main

    return configd_main(ctx, argv)


def notifyd_entry(ctx: "UserContext", argv: List[str]) -> int:
    from .services import notifyd_main

    return notifyd_main(ctx, argv)


def syslogd_entry(ctx: "UserContext", argv: List[str]) -> int:
    from .services import syslogd_main

    return syslogd_main(ctx, argv)


def hello_entry(ctx: "UserContext", argv: List[str]) -> int:
    """hello world, iOS edition."""
    ctx.work(220)
    fd = ctx.libc.open("/dev/null", 0o1)
    ctx.libc.write(fd, b"hello from ios\n")
    ctx.libc.close(fd)
    return 0


def sh_entry(ctx: "UserContext", argv: List[str]) -> int:
    """A minimal iOS shell (for the iPad-side fork+sh measurement)."""
    libc = ctx.libc
    ctx.machine.charge("shell_overhead")
    command = [a for a in argv[1:] if a != "-c"]
    if not command:
        return 0

    pid = libc.posix_spawn(command[0], command)
    if pid == -1:
        return 126
    result = libc.waitpid(pid)
    if result == -1:
        return 126
    _pid, code = result
    return code


def make_launchd_image() -> BinaryImage:
    return macho_executable(
        "launchd", launchd_entry, deps=[LIBSYSTEM_DEP], text_kb=512
    )


def make_configd_image() -> BinaryImage:
    return macho_executable(
        "configd", configd_entry, deps=[LIBSYSTEM_DEP], text_kb=384
    )


def make_notifyd_image() -> BinaryImage:
    return macho_executable(
        "notifyd", notifyd_entry, deps=[LIBSYSTEM_DEP], text_kb=256
    )


def make_syslogd_image() -> BinaryImage:
    return macho_executable(
        "syslogd", syslogd_entry, deps=[LIBSYSTEM_DEP], text_kb=192
    )


def make_hello_macho_image() -> BinaryImage:
    return macho_executable(
        "hello-ios", hello_entry, deps=[LIBSYSTEM_DEP], text_kb=16
    )


def make_sh_macho_image() -> BinaryImage:
    return macho_executable("sh-ios", sh_entry, deps=[LIBSYSTEM_DEP], text_kb=300)


def install_ios_binaries(kernel: "Kernel") -> None:
    vfs = kernel.vfs
    vfs.makedirs("/sbin")
    vfs.makedirs("/usr/libexec")
    vfs.makedirs("/bin")
    vfs.install_binary("/sbin/launchd", make_launchd_image())
    vfs.install_binary("/usr/libexec/configd", make_configd_image())
    vfs.install_binary("/usr/libexec/notifyd", make_notifyd_image())
    vfs.install_binary("/usr/libexec/syslogd", make_syslogd_image())
    vfs.install_binary("/bin/hello-ios", make_hello_macho_image())
    vfs.install_binary("/bin/sh-ios", make_sh_macho_image())
