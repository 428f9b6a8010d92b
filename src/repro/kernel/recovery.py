"""Remount-time recovery: the fsck invariant checker and recovery log.

After a crash (or clean reboot) ``System.reboot`` rebuilds the kernel,
replays the storage journal into the fresh VFS, and then runs
:func:`run_fsck` — the invariant checker that proves the journal
discipline actually holds:

* the journal was fully consumed by the replay (no pending records);
* every checkpointed namespace entry resolves in the mounted tree with
  the right kind, identity (ino) and link count;
* every ino is referenced by exactly one path (this filesystem has no
  hardlinks, so refcount == nlink == 1);
* no orphan inodes: every durable data block belongs to a referenced
  file, and none lies past the journalled size;
* the volatile caches are empty (nothing dirty at mount time).

Both the :class:`FsckReport` and the :class:`RecoveryLog` are
byte-comparable documents with SHA-256 digests — the crash determinism
tests and the ``crash`` row of the ``determinism`` CI job diff them
across runs.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.sweep import Document
from .errno import SyscallError
from .vfs import Directory, RegularFile


class RecoveryLog(Document):
    """The byte-comparable whole-reboot transcript (System.reboot)."""


class FsckReport(Document):
    def __init__(self) -> None:
        super().__init__()
        self.ok = True
        self.errors: List[str] = []

    def error(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)
        self.line(f"fsck: ERROR {message}")


def run_fsck(kernel, strict: bool = True) -> FsckReport:
    """Check the mounted tree against the journal device's durable state.

    ``strict`` additionally requires the volatile caches to be empty —
    true right after a remount, not once services have started writing
    again.  Charges ``fsck_per_entry`` per checkpointed entry.
    """
    machine = kernel.machine
    report = FsckReport()
    device = machine.storage.journal
    if device is None:
        report.line("fsck: no durable storage device; nothing to check")
        report.line("fsck: clean")
        return report

    entries = sorted(device.media_meta.items())
    machine.charge("fsck_per_entry", max(1, len(entries)))

    if device.media_journal:
        report.error(
            f"journal not consumed: {len(device.media_journal)} record(s)"
        )
    if strict and device.pending_records:
        report.error(
            f"{device.pending_records} uncommitted journal record(s) at mount"
        )
    if strict and device.dirty_pages:
        report.error(f"{device.dirty_pages} dirty page(s) at mount")

    files = dirs = 0
    refs = device.referenced_inos()
    for path, (kind, ino) in entries:
        try:
            node = kernel.vfs.resolve(path)
        except SyscallError:
            report.error(f"{path} missing from mounted tree")
            continue
        if kind == "dir":
            dirs += 1
            if not isinstance(node, Directory):
                report.error(f"{path} expected dir, found {node.kind}")
        else:
            files += 1
            if not isinstance(node, RegularFile):
                report.error(f"{path} expected file, found {node.kind}")
                continue
            if node.ino != ino:
                report.error(
                    f"{path} identity mismatch: ino {node.ino} != {ino}"
                )
            if node.nlink != 1:
                report.error(f"{path} nlink {node.nlink} != 1")

    for ino, paths in sorted(refs.items()):
        if len(paths) != 1:
            report.error(
                f"ino {ino} referenced by {len(paths)} paths: "
                + ", ".join(paths)
            )

    orphans = sorted(set(device.media_blocks) - set(refs))
    if orphans:
        report.error(f"orphan inode(s) with data blocks: {orphans}")
    from ..hw.storage import BLOCK_SIZE

    for ino in sorted(device.media_blocks):
        if ino in orphans:
            continue
        size = device.media_sizes.get(ino, 0)
        limit = -(-size // BLOCK_SIZE)
        stale = sorted(
            block for block in device.media_blocks[ino] if block >= limit
        )
        if stale:
            report.error(
                f"ino {ino} has block(s) {stale} past size {size}"
            )

    report.line(
        f"fsck: {files} file(s), {dirs} dir(s), "
        f"{len(refs)} tracked inode(s), journal pending=0"
    )
    report.line(
        "fsck: clean" if report.ok
        else f"fsck: {len(report.errors)} error(s)"
    )
    return report


def format_power_cut(stats: Optional[dict]) -> str:
    """One deterministic recovery-log line for power_cut statistics."""
    if stats is None:
        return "recovery: power loss with no durable storage device"
    return (
        f"recovery: power cut lost {stats['records_lost']} journal "
        f"record(s) and {stats['pages_lost']} dirty page(s); "
        f"{stats['records_survived']} record(s) and "
        f"{stats['pages_survived']} page(s) reached flash"
    )
