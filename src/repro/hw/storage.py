"""Flash storage model: traffic statistics plus a durable block layer.

Two layers live here:

* :class:`FlashStorage` — the raw eMMC/NAND device.  Byte-transfer costs
  live in the cost model (``storage_read_per_kb`` / ``storage_write_per_kb``);
  this object tracks capacity and usage statistics so tests and the
  PassMark storage workload can assert on the traffic that actually
  reached the device.

* :class:`JournalDevice` — an optional deterministic durability layer
  (``storage.enable_journal(seed)``) modelling what a crash can and
  cannot destroy:

  - a **dirty page cache**: file writes mutate VFS inodes in RAM and mark
    4KB blocks dirty; nothing reaches "flash" until a sync;
  - a **metadata write-ahead journal**: namespace operations
    (create/mkdir/unlink/rmdir/rename/truncate-size) append records to a
    volatile tail which ``fsync``/``fdatasync``/``sync`` commit to the
    durable journal;
  - a **power-cut model**: on ``FaultOutcome.power_loss()`` a seeded,
    reorderable writeback decides which dirty pages and which journal
    tail prefix made it to flash before the lights went out — same seed,
    same workload ⇒ byte-identical loss;
  - **remount with journal replay** and an **fsck invariant checker**
    consumed by :meth:`repro.cider.system.System.reboot`.

Zero-cost-when-off discipline: with the journal enabled but never
synced, the bookkeeping above charges *no* virtual time — only the sync
family, replay and fsck charge (see the durable-storage section of
:data:`repro.sim.costs.DEFAULT_COSTS`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

#: The block layer's page size.  Dirty tracking, flush charges and the
#: power-cut writeback model all work in these units.
BLOCK_SIZE = 4096


class FlashStorage:
    """eMMC/NAND storage device."""

    def __init__(self, capacity_gb: int) -> None:
        self.capacity_gb = capacity_gb
        self.bytes_read = 0
        self.bytes_written = 0
        #: Durable block layer; None (the default) keeps PR 1-5 behaviour:
        #: all file state is RAM-resident and nothing survives a crash.
        self.journal: Optional[JournalDevice] = None

    def enable_journal(self, seed: int = 0) -> "JournalDevice":
        if self.journal is None:
            self.journal = JournalDevice(self, seed)
        return self.journal

    def record_read(self, nbytes: int) -> None:
        self.bytes_read += nbytes

    def record_write(self, nbytes: int) -> None:
        self.bytes_written += nbytes

    def __repr__(self) -> str:
        return (
            f"<FlashStorage {self.capacity_gb}GB r={self.bytes_read} "
            f"w={self.bytes_written}>"
        )


class JournalDevice:
    """Deterministic durable block layer + metadata write-ahead journal.

    State is split by what a power cut destroys:

    *Durable* (survives anything): ``media_meta`` (the last checkpointed
    namespace: canonical path -> ("file", ino) | ("dir", 0)),
    ``media_journal`` (committed, not-yet-replayed records),
    ``media_blocks`` (ino -> {block_index: bytes}), ``media_sizes``
    (ino -> journalled file size).

    *Volatile* (RAM; lost on power cut): ``tail`` (journal records not
    yet committed), ``dirty`` (ino -> set of dirty block indices),
    ``inodes`` (ino -> live ``RegularFile``, the page-cache backref used
    to read bytes at flush time), ``known_sizes`` (size-record
    coalescing state).

    Only files created *after* the journal is enabled are tracked
    (assigned a non-zero ino).  Everything installed before — the boot
    image: /system, /bin, base libraries — has ``ino == 0`` and is
    recreated by the reboot recipe rather than replayed, exactly like a
    read-only system partition.

    Journal record shapes (tuples; first element is the opcode)::

        ("create", path, ino)   ("mkdir", path)
        ("unlink", path)        ("rmdir", path)
        ("rename", old, new)    ("size", ino, nbytes)
    """

    def __init__(self, storage: FlashStorage, seed: int = 0) -> None:
        self.storage = storage
        self.seed = seed
        self.rng = random.Random(seed)
        #: True while remount materialises the tree: VFS hooks must not
        #: re-journal (or charge for) replayed operations.
        self.replaying = False
        self.next_ino = 1
        # -- durable state --------------------------------------------------
        self.media_meta: Dict[str, Tuple[str, int]] = {}
        self.media_journal: List[tuple] = []
        self.media_blocks: Dict[int, Dict[int, bytes]] = {}
        self.media_sizes: Dict[int, int] = {}
        # -- pstore region --------------------------------------------------
        # The flight-recorder tail journaled at panic time.  Like ramoops
        # it sits outside the data path: a power cut destroys the volatile
        # journal tail below but never this region (``power_cut`` does not
        # touch it), so recovery can read the pre-crash event tail back.
        self.pstore: List[str] = []
        # -- volatile state -------------------------------------------------
        self.tail: List[tuple] = []
        self.dirty: Dict[int, Set[int]] = {}
        self.inodes: Dict[int, object] = {}
        self.known_sizes: Dict[int, int] = {}

    # -- ino allocation ----------------------------------------------------

    def assign_ino(self, inode) -> int:
        inode.ino = self.next_ino
        self.next_ino += 1
        return inode.ino

    # -- metadata WAL (volatile tail appends; charge nothing) --------------

    def log_create(self, path: str, inode) -> None:
        ino = inode.ino or self.assign_ino(inode)
        self.inodes[ino] = inode
        self.known_sizes[ino] = len(inode.data)
        self.tail.append(("create", path, ino))

    def log_mkdir(self, path: str) -> None:
        self.tail.append(("mkdir", path))

    def log_unlink(self, path: str, inode=None) -> None:
        self.tail.append(("unlink", path))
        if inode is not None:
            self.forget(inode)

    def log_rmdir(self, path: str) -> None:
        self.tail.append(("rmdir", path))

    def log_rename(self, old: str, new: str, replaced=None) -> None:
        self.tail.append(("rename", old, new))
        if replaced is not None:
            self.forget(replaced)

    def note_size(self, ino: int, size: int) -> None:
        """Journal a size change, coalescing consecutive records for the
        same ino (a loop of appends yields one record, not thousands)."""
        if self.known_sizes.get(ino) == size:
            return
        self.known_sizes[ino] = size
        tail = self.tail
        if tail and tail[-1][0] == "size" and tail[-1][1] == ino:
            tail[-1] = ("size", ino, size)
        else:
            tail.append(("size", ino, size))

    def truncate(self, inode) -> None:
        """O_TRUNC: in-RAM content is gone, so pending dirty pages are
        meaningless; the size record makes the truncation durable once
        synced (stale durable blocks are pruned at replay)."""
        ino = inode.ino
        self.dirty.pop(ino, None)
        self.note_size(ino, 0)

    def forget(self, inode) -> None:
        """Stop write-back for an unlinked/replaced inode.  Its durable
        blocks stay on flash until remount reclaims them as orphans."""
        ino = getattr(inode, "ino", 0)
        if ino:
            self.dirty.pop(ino, None)

    # -- dirty page cache --------------------------------------------------

    def mark_dirty(self, inode, start: int, end: int) -> None:
        ino = inode.ino
        self.inodes[ino] = inode
        blocks = self.dirty.setdefault(ino, set())
        last = max(start, end - 1)
        for block in range(start // BLOCK_SIZE, last // BLOCK_SIZE + 1):
            blocks.add(block)

    @property
    def dirty_pages(self) -> int:
        return sum(len(blocks) for blocks in self.dirty.values())

    @property
    def pending_records(self) -> int:
        return len(self.tail)

    # -- the sync family ---------------------------------------------------

    def fsync(self, ino: int) -> Tuple[int, int]:
        """Flush one file's dirty pages and commit the whole journal tail
        (metadata ordering: a committed create may reference directories
        whose mkdir records precede it).  Returns (pages, records)."""
        pages = self._flush_ino(ino)
        records = self._commit_tail(len(self.tail))
        return pages, records

    def fdatasync(self, ino: int) -> Tuple[int, int]:
        """Flush the file's pages but commit only the tail prefix up to
        the last record mentioning this ino (data + its own metadata, not
        everyone else's — the fdatasync contract)."""
        pages = self._flush_ino(ino)
        upto = 0
        for index, record in enumerate(self.tail):
            if self._touches(record, ino):
                upto = index + 1
        records = self._commit_tail(upto)
        return pages, records

    def sync_all(self) -> Tuple[int, int]:
        pages = 0
        for ino in sorted(self.dirty):
            pages += self._flush_ino(ino)
        records = self._commit_tail(len(self.tail))
        return pages, records

    @staticmethod
    def _touches(record: tuple, ino: int) -> bool:
        op = record[0]
        if op == "create":
            return record[2] == ino
        if op == "size":
            return record[1] == ino
        return False

    def _flush_ino(self, ino: int) -> int:
        blocks = self.dirty.pop(ino, None)
        if not blocks:
            return 0
        inode = self.inodes.get(ino)
        if inode is None:
            return 0
        dest = self.media_blocks.setdefault(ino, {})
        data = inode.data
        flushed = 0
        for block in sorted(blocks):
            chunk = bytes(data[block * BLOCK_SIZE:(block + 1) * BLOCK_SIZE])
            dest[block] = chunk
            self.storage.record_write(len(chunk))
            flushed += 1
        return flushed

    def _commit_tail(self, upto: int) -> int:
        if upto <= 0:
            return 0
        committed = self.tail[:upto]
        del self.tail[:upto]
        self.media_journal.extend(committed)
        return len(committed)

    # -- power loss --------------------------------------------------------

    def power_cut(self) -> Dict[str, int]:
        """The lights go out mid-writeback.

        The journal is sequential, so a seed-determined *prefix* of the
        tail reaches flash; the data writeback is reorderable, so a
        seed-determined shuffled *subset* of dirty pages lands.  All
        remaining volatile state is then lost.  Same seed + same workload
        ⇒ byte-identical survivors.
        """
        rng = self.rng
        tail_len = len(self.tail)
        survived_records = rng.randint(0, tail_len) if tail_len else 0
        self._commit_tail(survived_records)
        records_lost = len(self.tail)
        self.tail = []

        pending = [
            (ino, block)
            for ino in sorted(self.dirty)
            for block in sorted(self.dirty[ino])
        ]
        rng.shuffle(pending)
        survived_pages = rng.randint(0, len(pending)) if pending else 0
        flushed = 0
        for ino, block in pending[:survived_pages]:
            inode = self.inodes.get(ino)
            if inode is None:
                continue
            chunk = bytes(
                inode.data[block * BLOCK_SIZE:(block + 1) * BLOCK_SIZE]
            )
            self.media_blocks.setdefault(ino, {})[block] = chunk
            self.storage.record_write(len(chunk))
            flushed += 1
        pages_lost = len(pending) - flushed
        self.dirty = {}
        self.inodes = {}
        self.known_sizes = {}
        return {
            "records_survived": survived_records,
            "records_lost": records_lost,
            "pages_survived": flushed,
            "pages_lost": pages_lost,
        }

    # -- remount: replay + materialise ------------------------------------

    def remount(self, vfs) -> Dict[str, int]:
        """Bring the durable state back up under a freshly built VFS.

        Clean reboot / plain panic (RAM-preserving): any surviving
        volatile state is written back first (an "emergency sync"), which
        is exactly why power loss — and only power loss — loses data.
        Then the committed journal is applied onto ``media_meta``, fully
        consuming it; orphaned blocks (unlinked files, stale tails past a
        truncation) are reclaimed; and the checkpointed namespace is
        materialised into the live tree.  Caller charges
        ``remount_replay_record`` per record applied.
        """
        emergency_pages, emergency_records = 0, 0
        if self.tail or self.dirty:
            emergency_pages, emergency_records = self.sync_all()
        applied = len(self.media_journal)
        for record in self.media_journal:
            self._apply_meta(record)
        self.media_journal = []
        orphan_inodes, orphan_blocks = self._reclaim()
        files = dirs = 0
        self.inodes = {}
        self.known_sizes = {}
        self.dirty = {}
        self.replaying = True
        try:
            # Lexicographic order visits parents before children ("/a" is
            # a strict prefix of "/a/b").
            for path in sorted(self.media_meta):
                kind, ino = self.media_meta[path]
                if kind == "dir":
                    self._materialize_dir(vfs, path)
                    dirs += 1
                else:
                    self._materialize_file(vfs, path, ino)
                    files += 1
        finally:
            self.replaying = False
        return {
            "records_replayed": applied,
            "emergency_pages": emergency_pages,
            "emergency_records": emergency_records,
            "orphan_inodes": orphan_inodes,
            "orphan_blocks": orphan_blocks,
            "files": files,
            "dirs": dirs,
        }

    def _apply_meta(self, record: tuple) -> None:
        op = record[0]
        meta = self.media_meta
        if op == "create":
            meta[record[1]] = ("file", record[2])
            self.media_sizes.setdefault(record[2], 0)
        elif op == "mkdir":
            meta[record[1]] = ("dir", 0)
        elif op in ("unlink", "rmdir"):
            meta.pop(record[1], None)
        elif op == "rename":
            old, new = record[1], record[2]
            entry = meta.pop(old, None)
            if entry is not None:
                prefix = old + "/"
                moved = [p for p in meta if p.startswith(prefix)]
                for path in moved:
                    meta[new + path[len(old):]] = meta.pop(path)
                meta[new] = entry
        elif op == "size":
            self.media_sizes[record[1]] = record[2]

    def _reclaim(self) -> Tuple[int, int]:
        """Drop blocks no namespace entry references, plus per-file stale
        blocks past the journalled size (fsck's no-orphans invariant)."""
        referenced = {
            ino for kind, ino in self.media_meta.values() if kind == "file"
        }
        orphan_inodes = sorted(set(self.media_blocks) - referenced)
        orphan_blocks = 0
        for ino in orphan_inodes:
            orphan_blocks += len(self.media_blocks.pop(ino))
            self.media_sizes.pop(ino, None)
        for ino in sorted(self.media_blocks):
            size = self.media_sizes.get(ino, 0)
            limit = -(-size // BLOCK_SIZE)
            stale = [b for b in self.media_blocks[ino] if b >= limit]
            for block in stale:
                del self.media_blocks[ino][block]
            orphan_blocks += len(stale)
        for ino in sorted(set(self.media_sizes) - referenced):
            del self.media_sizes[ino]
        return len(orphan_inodes), orphan_blocks

    def _walk_to_parent(self, vfs, path: str):
        """Return (parent_dir, leaf_name), creating intermediate
        directories directly (replay bypasses charging and journaling)."""
        from ..kernel.vfs import Directory

        parts = vfs.split(path)
        node = vfs.root
        for part in parts[:-1]:
            child = node.entries.get(part)
            if child is None:
                child = Directory()
                node.link(part, child)
            node = child
        return node, parts[-1]

    def _materialize_dir(self, vfs, path: str) -> None:
        from ..kernel.vfs import Directory

        parent, name = self._walk_to_parent(vfs, path)
        if name not in parent.entries:
            parent.link(name, Directory())

    def _materialize_file(self, vfs, path: str, ino: int) -> None:
        from ..kernel.vfs import RegularFile

        parent, name = self._walk_to_parent(vfs, path)
        size = self.media_sizes.get(ino, 0)
        data = bytearray(size)
        for block, chunk in self.media_blocks.get(ino, {}).items():
            start = block * BLOCK_SIZE
            take = min(len(chunk), max(0, size - start))
            if take:
                data[start:start + take] = chunk[:take]
        node = parent.entries.get(name)
        if not isinstance(node, RegularFile):
            node = RegularFile()
            parent.link(name, node)
        # A reinstalled boot binary keeps its binary_image; replay only
        # restores the durable byte content and identity.
        node.data = data
        node.ino = ino
        self.inodes[ino] = node
        self.known_sizes[ino] = size
        self.next_ino = max(self.next_ino, ino + 1)

    # -- fsck helpers ------------------------------------------------------

    def referenced_inos(self) -> Dict[int, List[str]]:
        refs: Dict[int, List[str]] = {}
        for path, (kind, ino) in sorted(self.media_meta.items()):
            if kind == "file":
                refs.setdefault(ino, []).append(path)
        return refs

    def __repr__(self) -> str:
        return (
            f"<JournalDevice seed={self.seed} entries={len(self.media_meta)} "
            f"pending={len(self.tail)} dirty={self.dirty_pages}>"
        )
