"""Boot-snapshot cache: clone a booted world instead of re-booting it.

Sweep harnesses (``repro.workloads.partsweep``/``crashsweep``) and the
determinism runs boot a fresh System — or a whole two-machine world —
for every one of their 60+ cases, and the boot dominates each case's
wall-clock.  A :class:`Snapshot` captures the expensive, *thread-free*
part of that boot exactly once as an immutable serialized image, and
every :meth:`Snapshot.clone` is one ``pickle`` load of those bytes.
Each clone then finishes its own boot (launchd, supervised services) on
its private copy, so each case still runs against pristine state while
the kernel build, persona registration, userspace install and framework
trees are paid for once per process.

The quiescence rule
-------------------

Simulated threads are backed by real OS threads (see
``repro.sim.scheduler``), and an OS thread's stack cannot be captured.
A snapshot is therefore only legal at a *quiescent point*: no live
:class:`~repro.sim.scheduler.SimThread` on any captured machine, an
empty ready queue, and the controller holding the token.  The system
builders expose exactly such a point (``build_cider(...,
start_services=False)``); :func:`snapshot_systems` checks it once, at
capture, and raises :class:`SnapshotError` otherwise.  The image is
plain bytes, so nothing can mutate it afterwards: neither the captured
systems (which the snapshot does not keep) nor the clones.  The same
rule is what makes snapshots fork-safe: a fork-server worker
(``repro.sim.parallel``) inherits a captured snapshot through ``fork``
and clones from it without ever touching an OS thread that did not
survive the fork.

Determinism contract
--------------------

A clone is bit-identical simulation state: finishing a clone's boot and
running a workload charges exactly the same virtual picoseconds as
running the same steps on a freshly built system
(``tests/test_parallel.py`` asserts equality of ``clock.charged_ps``).
Every object reachable from the captured systems falls in one of three
groups:

* **Shared** by every clone, as the same object: modules, classes,
  functions, code objects, weakrefs, properties, builtins bound to a
  module (``len``, ``math.sqrt``) and instances of classes that declare
  ``snapshot_shared = True`` (frozen value objects such as
  ``Segment`` and ``CompilerProfile``).  They hold no per-run state.
* **Re-created on load**: a ``hashlib`` object is branched per clone
  with ``.copy()``; a scheduler's controller gets a fresh held gate; a
  finished ``SimThread`` loads as a tombstone with neither gate, worker
  nor body (see ``repro.sim.scheduler``).
* **Copied**: everything else, including a builtin method bound to an
  object (``some_list.append`` is copied with its list) and a bound
  Python method (copied with its ``self``).

The closure rule: a shared function must not smuggle per-system state
into every clone.  Capture raises :class:`SnapshotError`, naming the
function, when a closure cell or default argument holds anything but a
shared object or an immutable value (``None``, numbers, strings, bytes,
enum members, and tuples or frozensets of these).  A hook that must
reach per-system state is an object (a ``functools.partial`` is one) or
a bound method owned by its system, so it is copied with the clone.

The image never leaves the process — fork-server workers inherit it
through ``fork`` — so only bytes this program wrote are ever unpickled.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import weakref
from enum import Enum
from types import BuiltinFunctionType, CodeType, FunctionType, ModuleType
from typing import Callable, Dict, Iterable, List, Tuple


class SnapshotError(RuntimeError):
    """The object graph cannot be captured: it is not quiescent, holds an
    unpicklable object, or shares a function that closes over state."""


def assert_quiescent(machine) -> None:
    """Raise :class:`SnapshotError` unless ``machine`` can be snapshot.

    Quiescent means: no live simulated thread (each would be a real OS
    thread whose stack a clone cannot reproduce), nothing on the ready
    queue, and the scheduler token held by the controller.
    """
    scheduler = machine.scheduler
    live = [t for t in scheduler._threads if t.alive]
    if live:
        names = ", ".join(repr(t.name) for t in live[:8])
        raise SnapshotError(
            f"{machine!r} has {len(live)} live simulated thread(s) "
            f"({names}); snapshot before services start "
            "(build_cider(start_services=False))"
        )
    if scheduler._ready:
        raise SnapshotError(f"{machine!r} has queued ready work")
    if scheduler._current is not scheduler._controller:
        raise SnapshotError(f"{machine!r} is mid-dispatch")


# How an image treats an object: copy it, share it (functions after a
# closure check), or branch it per clone.
_COPY, _SHARE, _FUNCTION, _BRANCH, _BUILTIN = range(5)

#: Every hashlib object type: branched per clone with ``.copy()``.
_HASH_TYPES = frozenset(
    type(hashlib.new(name)) for name in hashlib.algorithms_guaranteed
)

#: Values a shared function's closure cells and defaults may hold
#: (``bool`` is an ``int``).
_IMMUTABLE_TYPES = (type(None), int, float, complex, str, bytes, Enum)

_kinds: Dict[type, int] = {}


def _classify(cls: type) -> int:
    if cls is FunctionType:
        return _FUNCTION
    if cls is BuiltinFunctionType:
        return _BUILTIN
    if cls in _HASH_TYPES:
        return _BRANCH
    if issubclass(cls, (type, ModuleType, CodeType, property, weakref.ref)):
        return _SHARE
    # Opt-in for frozen value objects (``Segment``, ``CompilerProfile``).
    return _SHARE if getattr(cls, "snapshot_shared", False) else _COPY


def _kind(obj: object) -> int:
    cls = type(obj)
    kind = _kinds.get(cls)
    if kind is None:
        kind = _kinds[cls] = _classify(cls)
    if kind is _BUILTIN:
        # Shared when bound to a module (``len``); a method bound to an
        # object (``some_list.append``) is copied with its object.
        owner = obj.__self__
        return _SHARE if owner is None or isinstance(owner, ModuleType) else _COPY
    return kind


def _captured(fn: FunctionType) -> Iterable[object]:
    """The values ``fn``'s closure cells and default arguments hold."""
    for cell in fn.__closure__ or ():
        try:
            yield cell.cell_contents
        except ValueError:  # an empty cell
            pass
    yield from fn.__defaults__ or ()
    yield from (fn.__kwdefaults__ or {}).values()


def _check_closure(fn: FunctionType) -> None:
    """Raise :class:`SnapshotError` if sharing ``fn`` would alias state."""
    pending: List[object] = [fn]
    seen = set()
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) is FunctionType:
            pending.extend(_captured(obj))
        elif isinstance(obj, (tuple, frozenset)):
            pending.extend(obj)
        elif not (isinstance(obj, _IMMUTABLE_TYPES) or _kind(obj) is _SHARE):
            raise SnapshotError(
                f"{fn.__module__}.{fn.__qualname__} closes over "
                f"{type(obj).__qualname__} state every clone would share; "
                "make the hook an object or bound method owned by its system"
            )


class _ImagePickler(pickle.Pickler):
    """Pickles a quiescent payload, replacing shared objects by their
    index in ``atoms``."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.atoms: List[object] = []
        #: Indices of atoms every clone branches with ``.copy()``.
        self.branched: List[int] = []
        self._index: Dict[int, int] = {}

    def persistent_id(self, obj: object):
        kind = _kind(obj)
        if kind is _COPY:
            return None
        index = self._index.get(id(obj))
        if index is None:
            if kind is _FUNCTION:
                _check_closure(obj)
            index = self._index[id(obj)] = len(self.atoms)
            if kind is _BRANCH:
                # A private branch: the captured system may keep hashing.
                self.branched.append(index)
                obj = obj.copy()
            self.atoms.append(obj)
        return index


class Snapshot:
    """An immutable image of one or more quiescent systems.

    Holds only the pickled bytes and the shared atoms, never the
    captured objects, so every :meth:`clone` starts from exactly the
    state at capture no matter what ran before or since.
    """

    def __init__(self, payload: Tuple, machines: Iterable = ()) -> None:
        for machine in machines:
            assert_quiescent(machine)
        buffer = io.BytesIO()
        pickler = _ImagePickler(buffer)
        try:
            pickler.dump(payload)
        except (pickle.PicklingError, TypeError) as exc:
            raise SnapshotError(f"cannot snapshot: {exc}") from exc
        self._image = buffer.getvalue()
        self._atoms = tuple(pickler.atoms)
        self._branched = tuple(pickler.branched)
        #: How many clones were handed out (diagnostics only).
        self.clones = 0

    def clone(self) -> Tuple:
        """A fresh copy of the captured payload, ready to finish booting."""
        atoms = list(self._atoms)
        for index in self._branched:
            atoms[index] = atoms[index].copy()
        unpickler = pickle.Unpickler(io.BytesIO(self._image))
        unpickler.persistent_load = atoms.__getitem__
        self.clones += 1
        return unpickler.load()


def snapshot_systems(*systems) -> Snapshot:
    """Capture one snapshot of ``systems`` (cider ``System`` handles).

    ``clone()`` returns a tuple of the same arity::

        snap = snapshot_systems(client, origin)
        client, origin = snap.clone()
    """
    if not systems:
        raise ValueError("snapshot_systems needs at least one system")
    return Snapshot(
        tuple(systems), machines=[system.machine for system in systems]
    )


class SnapshotCache:
    """Named snapshots, captured once per process.

    Harnesses keep one module-level cache; the first case (or the record
    pass) captures the boot image and every later case — and every
    fork-server worker, which inherits the populated cache through
    ``fork`` — clones from it.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[str, Snapshot] = {}

    def get_or_capture(
        self, key: str, capture: Callable[[], Snapshot]
    ) -> Snapshot:
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            snapshot = self._snapshots[key] = capture()
        return snapshot

    def clear(self) -> None:
        self._snapshots.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._snapshots
