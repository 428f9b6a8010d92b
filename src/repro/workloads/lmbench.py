"""lmbench 3.0 microbenchmarks, rebuilt for the simulated libc ABI.

The paper compiled lmbench twice — "an ELF Linux binary version, and a
Mach-O iOS binary version, using the standard Linux GCC 4.4.1 and Xcode
4.2.1 compilers" (§6) — and ran four test categories: basic operations,
syscalls and signals, process creation, and local communication and file
operations.  The same source functions below are "compiled" into both
binary formats by :func:`lmbench_suite`; the compiler profile attached to
each image reproduces the toolchain differences (Xcode's integer divide).

Each test binary takes ``argv = [name, params]`` where ``params`` is a
dict carrying iteration counts and an ``out`` dict the binary writes its
measured latencies (ns/op) into — the simulation's stand-in for lmbench's
stdout parsing.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, List

from ..binfmt import BinaryImage, elf_executable, macho_executable
from ..hw.cpu import GCC_4_4_1, XCODE_4_2_1
from ..kernel.files import O_RDONLY, O_WRONLY
from ..kernel.process import UserContext
from ..kernel.signals import SIGUSR1
from ..compat.signals import XNU_SIGUSR1
from . import argv_params

DEFAULT_ITERS = 10

#: Paths the harness installs the two builds under.
ELF_DIR = "/data/lmbench"
MACHO_DIR = "/data/lmbench-ios"


def _report(argv: List[str], key: str, value: float) -> None:
    params = argv_params(argv)
    out = params.get("out")
    if isinstance(out, dict):
        out[key] = value


# -- group 1: basic CPU operations -------------------------------------------------


def bench_ops(ctx: UserContext, argv: List[str]) -> int:
    """lat_ops: integer multiply/divide, double add/multiply, bogomflops."""
    params = argv_params(argv)
    iters = params.get("iters", 200)
    watch = ctx.machine.stopwatch()
    for op_key, cost_name in (
        ("int_mul", "op_int_mul"),
        ("int_div", "op_int_div"),
        ("double_add", "op_double_add"),
        ("double_mul", "op_double_mul"),
    ):
        watch.restart()
        ctx.op(cost_name, iters)
        _report(argv, op_key, watch.elapsed_ns() / iters)
    # bogomflops: mul+add pipeline.
    watch.restart()
    ctx.op("op_double_mul", iters)
    ctx.op("op_double_add", iters)
    _report(argv, "bogomflops", watch.elapsed_ns() / iters)
    return 0


# -- group 2: syscalls and signals ----------------------------------------------------


def bench_null_syscall(ctx: UserContext, argv: List[str]) -> int:
    """lat_syscall null: getppid in a loop."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        libc.getppid()
    _report(argv, "null_syscall", watch.elapsed_ns() / iters)
    return 0


def bench_read(ctx: UserContext, argv: List[str]) -> int:
    """lat_syscall read: one byte from /dev/zero."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    fd = libc.open("/dev/zero", O_RDONLY)
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        libc.read(fd, 1)
    _report(argv, "read", watch.elapsed_ns() / iters)
    libc.close(fd)
    return 0


def bench_write(ctx: UserContext, argv: List[str]) -> int:
    """lat_syscall write: one byte to /dev/null."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    fd = libc.open("/dev/null", O_WRONLY)
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        libc.write(fd, b"x")
    _report(argv, "write", watch.elapsed_ns() / iters)
    libc.close(fd)
    return 0


def bench_open_close(ctx: UserContext, argv: List[str]) -> int:
    """lat_syscall open: open+close an existing file."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    fd = libc.creat("/tmp/lmbench.f")
    libc.close(fd)
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        fd = libc.open("/tmp/lmbench.f", O_RDONLY)
        libc.close(fd)
    _report(argv, "open_close", watch.elapsed_ns() / iters)
    libc.unlink("/tmp/lmbench.f")
    return 0


def bench_signal(ctx: UserContext, argv: List[str]) -> int:
    """lat_sig catch: install a handler and deliver to self."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    hits = []

    def handler(hctx, signum, info):
        hits.append(signum)

    # The source uses SIGUSR1; its number differs per platform headers.
    signum = XNU_SIGUSR1 if type(libc).__name__ == "IOSLibc" else SIGUSR1
    libc.signal(signum, handler)
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        libc.raise_(signum)
    _report(argv, "signal", watch.elapsed_ns() / iters)
    assert len(hits) == iters, f"lost signals: {len(hits)}/{iters}"
    return 0


# -- group 3: process creation ------------------------------------------------------------


def bench_fork_exit(ctx: UserContext, argv: List[str]) -> int:
    """lat_proc fork: fork a child that exits immediately."""
    iters = argv_params(argv).get("iters", 4)
    libc = ctx.libc
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        pid = libc.fork(lambda child_ctx: 0)
        libc.waitpid(pid)
    _report(argv, "fork_exit", watch.elapsed_ns() / iters)
    return 0


def bench_fork_exec(ctx: UserContext, argv: List[str]) -> int:
    """lat_proc exec: fork a child that execs hello-world.

    The child binary's path arrives via params["child"], selecting the
    Linux or the iOS hello world (the four Cider variants of §6.2).
    """
    params = argv_params(argv)
    iters = params.get("iters", 4)
    child_path = params.get("child", "/system/bin/hello")
    libc = ctx.libc
    watch = ctx.machine.stopwatch()
    for _ in range(iters):

        def child(child_ctx: UserContext) -> int:
            child_ctx.libc.execve(child_path, [child_path])
            return 127

        pid = libc.fork(child)
        libc.waitpid(pid)
    _report(argv, "fork_exec", watch.elapsed_ns() / iters)
    return 0


def bench_fork_sh(ctx: UserContext, argv: List[str]) -> int:
    """lat_proc shell: fork a shell that runs hello-world."""
    params = argv_params(argv)
    iters = params.get("iters", 4)
    child_path = params.get("child", "/system/bin/hello")
    shell_path = params.get("shell", "/system/bin/sh")
    libc = ctx.libc
    watch = ctx.machine.stopwatch()
    for _ in range(iters):

        def child(child_ctx: UserContext) -> int:
            child_ctx.libc.execve(
                shell_path, [shell_path, "-c", child_path]
            )
            return 127

        pid = libc.fork(child)
        libc.waitpid(pid)
    _report(argv, "fork_sh", watch.elapsed_ns() / iters)
    return 0


# -- group 4: local communication and file operations -----------------------------------------


def bench_pipe(ctx: UserContext, argv: List[str]) -> int:
    """lat_pipe: token round trip between parent and child."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    r1, w1 = libc.pipe()
    r2, w2 = libc.pipe()

    def child(child_ctx: UserContext) -> int:
        clibc = child_ctx.libc
        # Drop the inherited ends this side does not use, so the parent's
        # close of w1 produces EOF here (as lmbench's child does).
        clibc.close(w1)
        clibc.close(r2)
        while True:
            token = clibc.read(r1, 1)
            if token in (b"", -1):
                return 0
            clibc.write(w2, token)

    pid = libc.fork(child)
    # Warm-up round trips amortise child start-up out of the measurement
    # (lmbench runs thousands of iterations for the same reason).
    for _ in range(2):
        libc.write(w1, b"x")
        libc.read(r2, 1)
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        libc.write(w1, b"x")
        libc.read(r2, 1)
    # One-way latency is half the round trip, as lmbench reports it.
    _report(argv, "pipe", watch.elapsed_ns() / iters / 2)
    libc.close(w1)
    libc.waitpid(pid)
    return 0


def bench_unix_socket(ctx: UserContext, argv: List[str]) -> int:
    """lat_unix: AF_UNIX stream round trip."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    a, b = libc.socketpair()

    def child(child_ctx: UserContext) -> int:
        clibc = child_ctx.libc
        clibc.close(a)  # drop the inherited parent-side endpoint
        while True:
            token = clibc.read(b, 1)
            if token in (b"", -1):
                return 0
            clibc.write(b, token)

    pid = libc.fork(child)
    for _ in range(2):  # warm-up: see bench_pipe
        libc.write(a, b"x")
        libc.read(a, 1)
    watch = ctx.machine.stopwatch()
    for _ in range(iters):
        libc.write(a, b"x")
        libc.read(a, 1)
    _report(argv, "af_unix", watch.elapsed_ns() / iters / 2)
    libc.close(a)
    libc.waitpid(pid)
    return 0


def bench_select(ctx: UserContext, argv: List[str]) -> int:
    """lat_select: poll n pipe descriptors (n in {10, 100, 250})."""
    params = argv_params(argv)
    iters = params.get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    for nfds in params.get("fd_counts", (10, 100, 250)):
        fds = []
        while len(fds) < nfds:
            r, w = libc.pipe()
            fds.extend([r, w][: nfds - len(fds)])
        read_fds = fds[:nfds]
        watch = ctx.machine.stopwatch()
        failed = False
        for _ in range(iters):
            if libc.select(read_fds, [], 0) == -1:
                failed = True
                break
        if failed:
            # The iPad's select "simply failed to complete for 250 file
            # descriptors" (§6.2): report the failure as None.
            _report(argv, f"select_{nfds}", float("nan"))
        else:
            _report(argv, f"select_{nfds}", watch.elapsed_ns() / iters)
        for fd in fds:
            libc.close(fd)
    return 0


def bench_files(ctx: UserContext, argv: List[str]) -> int:
    """lat_fs: create and delete 0KB and 10KB files."""
    iters = argv_params(argv).get("iters", DEFAULT_ITERS)
    libc = ctx.libc
    for size_kb in (0, 10):
        payload = b"d" * (size_kb * 1024)
        watch = ctx.machine.stopwatch()
        for index in range(iters):
            path = f"/tmp/lat_fs_{size_kb}_{index}"
            fd = libc.creat(path)
            if payload:
                libc.write(fd, payload)
            libc.close(fd)
            libc.unlink(path)
        _report(argv, f"file_{size_kb}k", watch.elapsed_ns() / iters)
    return 0


#: test name -> entry function.
LMBENCH_TESTS = {
    "ops": bench_ops,
    "null_syscall": bench_null_syscall,
    "read": bench_read,
    "write": bench_write,
    "open_close": bench_open_close,
    "signal": bench_signal,
    "fork_exit": bench_fork_exit,
    "fork_exec": bench_fork_exec,
    "fork_sh": bench_fork_sh,
    "pipe": bench_pipe,
    "af_unix": bench_unix_socket,
    "select": bench_select,
    "files": bench_files,
}


def lmbench_suite(binary_format: str) -> Dict[str, BinaryImage]:
    """Compile the suite: ``binary_format`` is "elf" or "macho".  Each
    format is compiled once per process (images are values); the dict is
    the caller's own."""
    return dict(_compiled_suite(binary_format))


@cache
def _compiled_suite(binary_format: str) -> Dict[str, BinaryImage]:
    suite: Dict[str, BinaryImage] = {}
    for name, entry in LMBENCH_TESTS.items():
        if binary_format == "elf":
            suite[name] = elf_executable(
                f"lat_{name}", entry, text_kb=96, compiler=GCC_4_4_1
            )
        else:
            suite[name] = macho_executable(
                f"lat_{name}", entry, text_kb=112, compiler=XCODE_4_2_1
            )
    return suite


def install_lmbench(kernel, binary_format: str) -> Dict[str, str]:
    """Install the suite; returns test name -> path."""
    base = ELF_DIR if binary_format == "elf" else MACHO_DIR
    kernel.vfs.makedirs(base)
    paths = {}
    for name, image in lmbench_suite(binary_format).items():
        path = f"{base}/lat_{name}"
        kernel.vfs.install_binary(path, image)
        paths[name] = path
    return paths
