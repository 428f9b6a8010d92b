#!/usr/bin/env python
"""Kill the power mid-write, reboot, and watch the journal hold the line.

Boots a *durable* Cider device (journaled flash under the VFS), runs the
two-persona notes workload — a durable note (``write``+``fsync``), an
atomically rename-committed note, and a careless unsynced draft — and
then pulls the power with a seeded ``power_loss`` fault while the iOS
draft is still in flight.  The machine panics, loses its unflushed
pages, reboots, replays the metadata journal, fscks the mounted tree,
restarts launchd and its services, and re-runs the app.

Everything printed — the fault log, the kernel tombstone, the recovery
log, the fsck report, the surviving file contents and both SHA-256
digests — is reproducible bit-for-bit: the ``determinism`` CI job
runs this script twice under different ``PYTHONHASHSEED`` values and
diffs the transcripts.  (For errno/signal/delay-style chaos instead of
whole-machine crashes, see ``examples/fault_injection.py``.)

Run:  PYTHONPATH=src python examples/crash_recovery.py
"""

from repro.cider.system import build_cider
from repro.kernel.errno import SyscallError
from repro.sim.errors import MachinePanic
from repro.sim.faults import FaultOutcome, FaultPlan, FaultRule
from repro.workloads.crashsweep import (
    ANDROID_DIR,
    ELF_NOTES,
    IOS_DIR,
    MACHO_NOTES,
    install_notes,
)


def run_notes(system):
    rc = system.run_program(ELF_NOTES, [ELF_NOTES])
    rc |= system.run_program(MACHO_NOTES, [MACHO_NOTES])
    return rc


def show_files(system):
    for base in (ANDROID_DIR, IOS_DIR):
        for name in ("synced.txt", "committed.txt", "draft.txt"):
            path = f"{base}/{name}"
            try:
                node = system.kernel.vfs.resolve(path)
            except SyscallError:
                print(f"  {path:<32} MISSING (lost to the crash)")
                continue
            data = bytes(node.data)
            text = data.decode(errors="replace").rstrip() or "(empty)"
            torn = b"\x00" in data
            print(f"  {path:<32} {'TORN ' if torn else ''}{text!r}")


def main():
    print("== boot (durable journaled storage) ==")
    system = build_cider(durable=True)
    system.add_boot_task(install_notes)

    # Arm a single-shot power cut on the workload's 6th vfs.write — the
    # iOS draft, after both personas' fsync'd notes are on the media.
    plan = FaultPlan(seed=0)
    plan.add_rule(
        FaultRule(
            "vfs.write",
            FaultOutcome.power_loss(),
            rule_id="demo-power-cut",
            nth=6,
            max_fires=1,
        )
    )
    system.machine.install_fault_plan(plan)

    print("\n== run the notes app in both personas ==")
    try:
        run_notes(system)
        raise AssertionError("the power cut never fired")
    except MachinePanic as panic:
        print(f"PANIC: {panic}")
    print(f"machine state: {system.machine.state}")
    tombstone = system.kernel.crash_reports[-1]
    print(f"tombstone: pid={tombstone.pid} {tombstone.name} "
          f"power_loss={tombstone.detail['power_loss']}")
    for event in plan.events:
        print(f"fault log: {event.format()}")

    print("\n== reboot: replay journal, fsck, restart services ==")
    log = system.reboot(reason="power loss demo")
    print(log.text(), end="")
    print(f"recovery log sha256: {log.digest()}")
    print(f"fsck sha256: {system.fsck_report.digest()}")

    print("\n== what survived ==")
    show_files(system)

    print("\n== the app runs again on the recovered system ==")
    rc = run_notes(system)
    print(f"notes rerun exit={rc}")
    show_files(system)
    system.shutdown()
    print("done.")


if __name__ == "__main__":
    main()
