"""System configuration builders — the paper's four measured systems.

* :func:`build_vanilla_android` — Linux binaries and Android apps on
  unmodified Android (the normalisation baseline).
* :func:`build_cider` — the Cider kernel on the Nexus 7: Linux ABI plus
  the full XNU compatibility architecture (personas, Mach-O loader,
  duct-taped Mach IPC / psynch / I/O Kit, signal translation,
  ``set_persona``), running Android *and* iOS binaries.
* :func:`build_ipad_mini` — iOS binaries on a jailbroken iPad mini: the
  XNU-native kernel personality on the Apple device profile.

Each builder returns a :class:`System`, the public handle used by tests,
examples and the benchmark harness.

Crash–reboot support: builders pass ``durable=True`` to put a journaled
block device under the VFS (:class:`repro.hw.storage.JournalDevice`) and
always record a *rebuild recipe* — the builder's own userspace
installation steps — so :meth:`System.reboot` can power-cycle the
machine, reinstall the boot image, replay the journal, fsck, and restart
the supervised services, emitting a byte-comparable recovery log.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..android.binaries import install_base_android
from ..android.bionic import Bionic
from ..hw.machine import DeviceProfile, Machine
from ..hw.profiles import ipad_mini, nexus7
from ..kernel.kernel import Kernel
from ..kernel.loader import ElfLoader
from ..kernel.process import Process
from ..kernel.syscalls_linux import LinuxABI
from ..persona import ANDROID_TLS_LAYOUT, IOS_TLS_LAYOUT, Persona


class System:
    """A booted system under test."""

    def __init__(self, machine: Machine, kernel: Kernel, label: str) -> None:
        self.machine = machine
        self.kernel = kernel
        self.label = label
        #: Populated by the Android framework boot (build steps below).
        self.android = None
        #: Populated on Cider/iOS systems.
        self.ios = None
        #: The builder's rebuild recipe (fresh kernel + userspace on the
        #: same machine) and service starter — what :meth:`reboot` runs.
        self._rebuild: Optional[Callable[["System"], None]] = None
        self._start_services_fn: Optional[Callable[["System"], None]] = None
        #: Extra installers (workload binaries, demo apps) re-run on
        #: every boot — register with :meth:`add_boot_task`.
        self.boot_tasks: List[Callable[["System"], None]] = []
        #: The most recent reboot's artifacts.
        self.recovery_log = None
        self.fsck_report = None

    # -- running programs -----------------------------------------------------

    def run_program(
        self, path: str, argv: Optional[List[str]] = None
    ) -> int:
        """Launch ``path`` and run the simulation until it exits."""
        process = self.kernel.start_process(path, argv)
        return self.wait_for(process)

    def wait_for(self, process: Process) -> int:
        thread = process.main_thread()
        result = self.machine.scheduler.run_until_done(thread.sim_thread)
        return result if isinstance(result, int) else 0

    def run_until_idle(self) -> None:
        self.machine.run()

    def start_services(self) -> None:
        """Run the builder's service recipe (launchd, supervised daemons).

        Builders called with ``start_services=False`` stop at a
        *quiescent* point — no simulated thread exists yet — which is the
        only state a boot snapshot (:mod:`repro.sim.snapshot`) may
        capture.  Each snapshot clone calls this to finish its own boot;
        the combined charge is bit-identical to a fresh full build.
        """
        if self._start_services_fn is not None:
            self._start_services_fn(self)

    def shutdown(self) -> None:
        self.machine.shutdown()

    # -- crash recovery --------------------------------------------------------

    def add_boot_task(
        self, task: Callable[["System"], None], run_now: bool = True
    ) -> Callable[["System"], None]:
        """Register an installer re-run on every (re)boot — the way
        workloads keep their binaries present across reboots, exactly
        like a package living on the system image.  Boot tasks run with
        the journal suppressed: the files they install are part of the
        boot image (untracked, ino 0), not user data."""
        self.boot_tasks.append(task)
        if run_now:
            self._run_boot_task(task)
        return task

    def _run_boot_task(self, task: Callable[["System"], None]) -> None:
        journal = self.machine.storage.journal
        if journal is None:
            task(self)
            return
        previous = journal.replaying
        journal.replaying = True
        try:
            task(self)
        finally:
            journal.replaying = previous

    def reboot(self, reason: str = "reboot"):
        """Power-cycle the machine and bring the system back up.

        Tears down every process and socket, reinstalls the boot image
        (the builder's rebuild recipe plus registered boot tasks),
        remounts the filesystem with journal replay, runs the fsck
        invariant checker, restarts the supervised services, and returns
        the byte-comparable :class:`~repro.kernel.recovery.RecoveryLog`
        (also stored as ``self.recovery_log`` / ``self.fsck_report``).
        """
        from ..kernel.recovery import RecoveryLog, format_power_cut, run_fsck

        if self._rebuild is None:
            raise RuntimeError(
                f"{self.label!r} was not built with a rebuild recipe; "
                "reboot is unsupported on this configuration"
            )
        machine = self.machine
        log = RecoveryLog()
        info = machine.reboot(reason)
        generation = info["generation"]
        log.line(f"recovery: begin generation={generation} reason={reason}")
        if info["was_crashed"]:
            log.line(f"recovery: crash cause: {info['panic_reason']}")
            if info["power_cut"] is not None:
                log.line(format_power_cut(info["power_cut"]))
            # The flight recorder's panic-flushed tail (pstore semantics:
            # read once, then gone).  After a power cut the in-RAM ring is
            # conceptually lost, but the panic handler journaled the same
            # tail to the WAL device's pstore region — prefer whichever
            # survived.
            tail = None
            if machine.flightrec is not None:
                tail = machine.flightrec.consume_flushed()
            journal_dev = machine.storage.journal
            if journal_dev is not None:
                if tail is None and journal_dev.pstore:
                    tail = list(journal_dev.pstore)
                journal_dev.pstore = []
            if tail:
                log.line(
                    f"recovery: flight recorder: {len(tail)} "
                    "pre-crash event(s)"
                )
                for entry in tail:
                    log.line(f"recovery: flightrec: {entry}")
        self.android = None
        self.ios = None
        # The rebuild recipe and the boot tasks reinstall the *boot
        # image* — untracked by the journal (ino 0), exactly like the
        # first boot where the journal is enabled only after userspace
        # is installed.
        self._run_boot_task(self._rebuild)
        for task in self.boot_tasks:
            self._run_boot_task(task)
        journal = machine.storage.journal
        fsck = None
        if journal is not None:
            with machine.span(
                "kernel.recovery.replay", str(generation), reason=reason
            ):
                stats = journal.remount(self.kernel.vfs)
                if stats["emergency_pages"]:
                    machine.charge(
                        "storage_flush_per_page", stats["emergency_pages"]
                    )
                if stats["emergency_records"]:
                    machine.charge(
                        "journal_commit_record", stats["emergency_records"]
                    )
                if stats["records_replayed"]:
                    machine.charge(
                        "remount_replay_record", stats["records_replayed"]
                    )
            log.line(
                f"recovery: remount: wrote back {stats['emergency_pages']} "
                f"page(s) + {stats['emergency_records']} record(s), "
                f"replayed {stats['records_replayed']} journal record(s)"
            )
            log.line(
                f"recovery: remount: reclaimed {stats['orphan_blocks']} "
                f"orphan block(s) from {stats['orphan_inodes']} inode(s); "
                f"mounted {stats['files']} file(s), {stats['dirs']} dir(s)"
            )
            with machine.span("kernel.recovery.fsck", str(generation)):
                fsck = run_fsck(self.kernel)
            for line in fsck.lines:
                log.line(line)
        else:
            log.line("recovery: no durable storage; fresh filesystem")
        if self._start_services_fn is not None:
            self._start_services_fn(self)
            log.line("recovery: supervised services restarted")
        log.line(
            f"recovery: complete generation={generation} "
            f"state={machine.state}"
        )
        self.recovery_log = log
        self.fsck_report = fsck
        return log

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"<System {self.label!r} on {self.machine.profile.name!r}>"


def run_world(systems: List["System"], thread) -> object:
    """Drive several machines round-robin until ``thread`` completes.

    ``Scheduler.run_until_done`` declares deadlock the moment its own
    machine has nothing runnable — correct for one machine, wrong for a
    world where the client legitimately idles while the origin machine
    serves its request.  This driver drains each machine's ready work in
    turn (cross-machine wakeups land directly on the peer scheduler's
    ready queue); only when *no* machine can run does it fire the timer
    with the least remaining virtual time, machine order breaking ties —
    fully deterministic.
    """
    from ..sim.errors import DeadlockError, MachinePanic

    machines = [system.machine for system in systems]
    # While the world owns the machines, no scheduler may jump its own
    # clock to a local timer on dispatch: a deadline (SO_RCVTIMEO, a
    # backoff sleep) must only expire once *every* machine is blocked —
    # the packet that would beat it may still be queued on a peer.
    for machine in machines:
        machine.scheduler.world_driven = True
    try:
        while thread.alive:
            progress = False
            for machine in machines:
                if machine.scheduler.run_ready():
                    progress = True
            if progress or not thread.alive:
                continue
            for machine in machines:
                if machine.crashed:
                    raise MachinePanic(
                        machine.panic_reason or "machine panic"
                    )
            nearest = None
            for machine in machines:
                remaining = machine.scheduler.next_timer_deadline()
                if remaining is None:
                    continue
                if nearest is None or remaining < nearest[0]:
                    nearest = (remaining, machine)
            if nearest is None:
                dumps = "\n\n".join(
                    f"== {system.label} ==\n"
                    + system.machine.scheduler.thread_dump()
                    for system in systems
                )
                raise DeadlockError(
                    "every machine in the world is blocked; thread dumps:\n"
                    + dumps
                )
            nearest[1].scheduler.fire_next_timer()
    finally:
        for machine in machines:
            machine.scheduler.world_driven = False
    if thread.failure is not None:
        raise thread.failure
    return thread.result


def _install_linux_userspace(machine: Machine) -> Kernel:
    """Boot a Linux kernel + Android base userspace on ``machine`` — the
    shared half of first boot and every reboot's rebuild recipe."""
    kernel = Kernel(machine, name="linux").boot()
    android_persona = Persona("android", LinuxABI(), ANDROID_TLS_LAYOUT)
    kernel.register_persona(android_persona, default=True)
    kernel.register_loader(ElfLoader(Bionic))
    install_base_android(kernel)
    # The display stack is always present on an Android device: the
    # graphics .so set plus the SurfaceFlinger service.
    from ..android.libs import install_android_graphics_libs
    from ..android.surfaceflinger import SurfaceFlinger

    install_android_graphics_libs(kernel)
    machine.surfaceflinger = SurfaceFlinger(machine)
    return kernel


def _boot_linux_kernel(profile: DeviceProfile, label: str) -> System:
    machine = profile.boot()
    kernel = _install_linux_userspace(machine)
    return System(machine, kernel, label)


def build_vanilla_android(
    profile: Optional[DeviceProfile] = None,
    with_framework: bool = False,
    with_httpd: bool = False,
    durable: bool = False,
    start_services: bool = True,
) -> System:
    """Configuration 1: unmodified Android.

    ``with_httpd`` starts the in-sim HTTP origin (:mod:`repro.net.http`)
    under Android-init style supervision.  ``durable`` enables the
    journaled block device (seeded from the profile) so the system
    survives crash–reboot cycles with consistent storage.
    ``start_services=False`` returns before any simulated thread is
    spawned — the snapshot-safe quiescent point; finish the boot later
    with :meth:`System.start_services`.
    """
    system = _boot_linux_kernel(profile or nexus7(), "vanilla-android")

    def _rebuild(sys_: System) -> None:
        sys_.kernel = _install_linux_userspace(sys_.machine)

    def _services(sys_: System) -> None:
        if with_framework:
            from ..android.framework import boot_android_framework

            sys_.android = boot_android_framework(sys_)
        if with_httpd:
            from ..net.http import start_httpd_android

            start_httpd_android(sys_)
            sys_.run_until_idle()  # let the origin reach its accept loop

    system._rebuild = _rebuild
    system._start_services_fn = _services
    if durable:
        system.machine.storage.enable_journal(system.machine.profile.seed)
    if start_services:
        _services(system)
    return system


def build_cider(
    profile: Optional[DeviceProfile] = None,
    with_framework: bool = False,
    fence_bug: bool = True,
    shared_cache: bool = False,
    dcache: bool = False,
    launch_closures: bool = False,
    cow_fork: bool = False,
    with_httpd: bool = False,
    durable: bool = False,
    start_services: bool = True,
) -> System:
    """Configurations 2 and 3: the Cider kernel on the Nexus 7.

    ``fence_bug`` keeps the prototype's broken GLES fence primitive
    (paper §6.3); ``shared_cache`` enables the dyld shared cache the
    prototype lacked (paper future work).  ``dcache`` (VFS dentry cache),
    ``launch_closures`` (dyld launch closures) and ``cow_fork``
    (copy-on-write fork) are the warm-path ablations of DESIGN.md §9 —
    all toggles default to off so the default configuration reproduces
    the paper's measured prototype.  ``with_httpd`` installs the in-sim
    HTTP origin as a launchd keep-alive job *before* launchd boots
    (:mod:`repro.net.http`), so both personas' clients can fetch from it.
    ``durable`` puts the journaled block device under the VFS (enabled
    after the boot image is installed, so only post-boot files are
    journal-tracked); with it the system survives :meth:`System.reboot`
    after a panic or power loss.  ``start_services=False`` stops at the
    snapshot-safe quiescent point (no launchd, no simulated threads yet);
    finish with :meth:`System.start_services`.
    """
    system = _boot_linux_kernel(profile or nexus7(), "cider")

    def _userspace(sys_: System) -> None:
        if with_httpd:
            from ..net.http import install_httpd_ios

            install_httpd_ios(sys_)
        from .enable import enable_cider

        enable_cider(
            sys_,
            fence_bug=fence_bug,
            shared_cache=shared_cache,
            start_services=False,
            dcache=dcache,
            launch_closures=launch_closures,
            cow_fork=cow_fork,
        )

    def _rebuild(sys_: System) -> None:
        sys_.kernel = _install_linux_userspace(sys_.machine)
        _userspace(sys_)

    def _services(sys_: System) -> None:
        _start_ios_services(sys_)
        if with_framework:
            from ..android.framework import boot_android_framework

            sys_.android = boot_android_framework(sys_)

    _userspace(system)
    system._rebuild = _rebuild
    system._start_services_fn = _services
    if durable:
        system.machine.storage.enable_journal(system.machine.profile.seed)
    if start_services:
        _services(system)
    return system


def _start_ios_services(system: System) -> None:
    """Start launchd and run it to its steady state — the service half
    of ``enable_cider``, shared with the reboot path."""
    from ..kernel.pressure import JETSAM_PRIORITY_SYSTEM

    runtime = system.ios
    runtime.launchd = system.kernel.start_process(
        "/sbin/launchd", name="launchd", daemon=True
    )
    # launchd sits in the SYSTEM jetsam band: never a pressure victim.
    runtime.launchd.jetsam_priority = JETSAM_PRIORITY_SYSTEM
    # Let launchd reach its steady state (bootstrap port published,
    # configd/notifyd registered) before any app can run.
    system.machine.run()


def build_ipad_mini(with_springboard: bool = False) -> System:
    """Configuration 4: iOS binaries on the iPad mini (XNU-native)."""
    machine = ipad_mini().boot()
    kernel = Kernel(machine, name="xnu").boot()
    from .enable import enable_xnu_native

    system = System(machine, kernel, "ipad-mini")
    enable_xnu_native(system, with_springboard=with_springboard)
    return system
