"""Kernel configuration: turning a Linux kernel into Cider, and building
the XNU-native personality for the iPad mini.

This module is the assembly point of the whole compatibility
architecture (paper Fig. 3): personas and dispatch tables, the Mach-O
loader + dyld, the duct-taped subsystems (Mach IPC, psynch, semaphores,
I/O Kit with the Linux device glue), signal translation, the generated
diplomatic OpenGL ES library, IOSurface interposition, the iOS FS
overlay, the framework closure, and the background services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..android.libs import install_android_graphics_libs
from ..android.surfaceflinger import SurfaceFlinger
from ..compat.macho_loader import MachOLoader
from ..compat.signals import SignalTranslator
from ..compat.xnu_abi import SYS_set_persona, XNUABI
from ..ducttape import CxxRuntime, DuctTapeLinker, LinuxDuctTapeEnv
from ..ducttape.iokit_glue import (
    install_apple_graphics_services,
    install_iokit_linux_glue,
)
from ..ios.binaries import install_ios_binaries
from ..ios.dyld import Dyld
from ..ios.frameworks import install_ios_frameworks, install_shared_cache
from ..ios.iosurface import cider_iosurface_exports
from ..ios.libsystem import IOSLibc
from ..ios.opengles import build_cider_opengles
from ..kernel.pressure import JETSAM_PRIORITY_SYSTEM
from ..kernel.syscalls_linux import NR_set_persona, sys_set_persona
from ..persona import IOS_TLS_LAYOUT, Persona
from ..xnu import iokit as xnu_iokit
from ..xnu import ipc as xnu_ipc
from ..xnu import pthread_support as xnu_psynch
from ..xnu import sync_sema as xnu_sema

if TYPE_CHECKING:
    from ..binfmt import BinaryImage
    from ..diplomacy.generator import GenerationReport
    from ..kernel.process import Process
    from .system import System


@dataclass
class IOSRuntime:
    """Handle onto the iOS side of a configured system."""

    launchd: Optional["Process"] = None
    dyld: Optional[Dyld] = None
    gles_report: Optional["GenerationReport"] = None
    linked_subsystems: Dict[str, object] = field(default_factory=dict)


def _link_foreign_subsystems(kernel) -> Dict[str, object]:
    """Duct-tape the three XNU subsystems into the kernel (paper §4.2:
    pthread support, Mach IPC, and I/O Kit)."""
    env = LinuxDuctTapeEnv(kernel)
    linker = DuctTapeLinker(env)
    kernel.ducttape_linker = linker

    ipc = linker.link("mach_ipc", [xnu_ipc], lambda e: xnu_ipc.MachIPC(e))
    kernel.mach_subsystem = ipc.instance

    psynch = linker.link(
        "pthread_support",
        [xnu_psynch],
        lambda e: xnu_psynch.PsynchSupport(e),
    )
    kernel.psynch_subsystem = psynch.instance

    sema = linker.link(
        "sync_sema", [xnu_sema], lambda e: xnu_sema.SyncSema(e)
    )
    kernel.sema_subsystem = sema.instance

    runtime = CxxRuntime(kernel.machine)
    kernel.cxx_runtime = runtime
    iokit = linker.link(
        "iokit",
        [xnu_iokit],
        lambda e: xnu_iokit.IOKitFramework(e, runtime),
    )
    kernel.iokit = iokit.instance
    return {
        "mach_ipc": ipc,
        "pthread_support": psynch,
        "sync_sema": sema,
        "iokit": iokit,
    }


def _register_set_persona(kernel, ios_abi: XNUABI) -> None:
    """set_persona is reachable from every persona (paper §4.3)."""
    android_abi = kernel.personas.get("android").abi if (
        "android" in kernel.personas
    ) else None
    if android_abi is not None and NR_set_persona not in android_abi.table:
        android_abi.table.register(
            NR_set_persona, "set_persona", sys_set_persona
        )
    ios_abi.bsd.register(SYS_set_persona, "set_persona", sys_set_persona)


def _interpose_graphics(kernel) -> "GenerationReport":
    """Replace the iOS OpenGL ES library with generated diplomats and
    interpose the IOSurface entry points (paper §5.3)."""
    vfs = kernel.vfs
    gles_path = "/System/Library/Frameworks/OpenGLES.framework/OpenGLES"
    gles_node = vfs.resolve(gles_path)
    domestic = install_android_graphics_libs(kernel)
    replacement, report = _cider_opengles(
        gles_node.binary_image, tuple(domestic.values())
    )
    gles_node.binary_image = replacement

    iosurface_path = (
        "/System/Library/PrivateFrameworks/IOSurface.framework/IOSurface"
    )
    iosurface_node = vfs.resolve(iosurface_path)
    iosurface_node.binary_image = _cider_iosurface(iosurface_node.binary_image)
    return report


@cache
def _cider_opengles(
    native: "BinaryImage", domestic: Tuple["BinaryImage", ...]
) -> Tuple["BinaryImage", "GenerationReport"]:
    """Cider's OpenGL ES library for these input images (keyed by
    identity), built once per process: images are values, and the
    generation report every boot shares with it is only ever read."""
    return build_cider_opengles(native, list(domestic))


@cache
def _cider_iosurface(native: "BinaryImage") -> "BinaryImage":
    """The interposed IOSurface image, built once per process."""
    return native.interposed(cider_iosurface_exports())


def enable_cider(
    system: "System",
    fence_bug: bool = True,
    shared_cache: bool = False,
    dcache: bool = False,
    launch_closures: bool = False,
    cow_fork: bool = False,
) -> IOSRuntime:
    """Turn the system's Linux kernel into a Cider kernel.

    ``dcache``, ``launch_closures`` and ``cow_fork`` are the warm-path
    ablations (DESIGN.md §9): each changes the *virtual-time* cost of
    repeated lookups / launches / forks and therefore defaults to off so
    that the default configuration reproduces the paper's cold-path
    numbers bit-identically.
    """
    kernel = system.kernel
    machine = system.machine
    kernel.name = "cider"
    kernel.cider_enabled = True
    kernel.cider_config = {
        "fence_bug": fence_bug,
        "shared_cache": shared_cache,
        "dcache": dcache,
        "launch_closures": launch_closures,
        "cow_fork": cow_fork,
    }
    if dcache:
        kernel.vfs.enable_dcache(kernel)
    if cow_fork:
        kernel.cow_fork = True

    # Foreign persona: XNU ABI (translated) + iOS TLS layout.
    ios_abi = XNUABI(native=False)
    ios_persona = Persona("ios", ios_abi, IOS_TLS_LAYOUT)
    kernel.register_persona(ios_persona)
    _register_set_persona(kernel, ios_abi)
    kernel.signal_translator = SignalTranslator()

    linked = _link_foreign_subsystems(kernel)
    install_iokit_linux_glue(kernel, kernel.iokit, kernel.cxx_runtime)

    # Mach-O loading: kernel loader + user-space dyld.
    dyld = Dyld(
        machine.costs, use_shared_cache=shared_cache, use_closures=launch_closures
    )
    kernel.dyld = dyld  # evict_shared_cache invalidates closures through this
    kernel.register_loader(MachOLoader(IOSLibc, dyld))

    # Display service (SurfaceFlinger owns the panel on Android).
    if machine.surfaceflinger is None:
        machine.surfaceflinger = SurfaceFlinger(machine)

    # iOS user space: overlay FS, frameworks, interposition, binaries.
    from .fs_overlay import create_ios_fs_overlay

    create_ios_fs_overlay(kernel)
    install_ios_frameworks(kernel, shared_cache=False)
    report = _interpose_graphics(kernel)
    install_ios_binaries(kernel)
    if shared_cache:
        # Future-work ablation: the prototype lacked this optimisation.
        install_shared_cache(kernel)

    system.ios = IOSRuntime(dyld=dyld, gles_report=report, linked_subsystems=linked)
    return system.ios


def start_launchd(system: "System") -> None:
    """Start launchd and run it to its steady state: the service half of
    an iOS-capable boot, and of every reboot."""
    runtime = system.ios
    runtime.launchd = system.kernel.start_process(
        "/sbin/launchd", name="launchd", daemon=True
    )
    # launchd sits in the SYSTEM jetsam band: never a pressure victim.
    runtime.launchd.jetsam_priority = JETSAM_PRIORITY_SYSTEM
    # Let launchd reach its steady state (bootstrap port published,
    # configd/notifyd registered) before any app can run.
    system.machine.run()


def enable_xnu_native(system: "System") -> IOSRuntime:
    """Configure the iPad-mini kernel: the XNU-native personality.

    The same foreign subsystem *source* is bound in (it is native here);
    only the iOS persona exists — Android/ELF binaries are rejected —
    and the Apple-proprietary graphics services are present, so the
    native OpenGL ES / IOSurface libraries work without diplomats.
    """
    kernel = system.kernel
    machine = system.machine
    kernel.name = "xnu"
    kernel.cider_enabled = False

    ios_abi = XNUABI(native=True)
    ios_persona = Persona("ios", ios_abi, IOS_TLS_LAYOUT)
    kernel.register_persona(ios_persona, default=True)
    kernel.signal_translator = SignalTranslator()

    linked = _link_foreign_subsystems(kernel)
    install_iokit_linux_glue(kernel, kernel.iokit, kernel.cxx_runtime)
    install_apple_graphics_services(kernel, kernel.iokit, kernel.cxx_runtime)

    dyld = Dyld(
        machine.costs,
        use_shared_cache=machine.profile.has_quirk("dyld_shared_cache"),
    )
    kernel.dyld = dyld  # evict_shared_cache invalidates closures through this
    kernel.register_loader(MachOLoader(IOSLibc, dyld))

    # backboardd/SpringBoard composites the display on iOS; the generic
    # compositor model stands in for it.
    machine.surfaceflinger = SurfaceFlinger(machine)

    from .fs_overlay import create_ios_fs_overlay

    create_ios_fs_overlay(kernel)
    install_ios_frameworks(kernel, shared_cache=True)
    install_ios_binaries(kernel)

    system.ios = IOSRuntime(dyld=dyld, linked_subsystems=linked)
    start_launchd(system)
    return system.ios
