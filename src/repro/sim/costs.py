"""The discrete cost model.

Every simulated operation charges a named cost (in nanoseconds) against the
virtual clock.  A :class:`CostModel` maps cost names to values; hardware
profiles (:mod:`repro.hw.profiles`) derive models for specific devices and
compilers.  The *names* are the mechanism: the Cider persona check is
charged on every syscall entry of a Cider kernel, dyld charges a library
open per dependency it walks, fork charges a page cost per resident page —
so measured ratios emerge from the same causes the paper identifies.

Calibration: baseline magnitudes are anchored to the absolute numbers the
paper quotes (null syscall on a Nexus 7 class device ≈ 0.4 µs; fork+exit of
a small Linux binary ≈ 245 µs; iOS fork+exit ≈ 3.75 ms of which ~1 ms is
page-table duplication and ~2.5 ms is user-space handlers).  Where the
paper gives only relative bars, values were chosen to land inside the bar's
visual range; each override in the profiles cites its source.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional


class UnknownCostError(KeyError):
    """A cost name was charged that the model does not define."""


#: Baseline cost table (nanoseconds).  Roughly a 1.3 GHz in-order ARM SoC
#: of the 2013 era.  Device profiles override entries.
DEFAULT_COSTS: Dict[str, float] = {
    # ---- CPU basic operations (lmbench group 1) --------------------------
    "op_int_add": 0.8,
    "op_int_mul": 3.1,
    "op_int_div": 7.7,
    "op_double_add": 3.8,
    "op_double_mul": 3.9,
    "op_branch": 1.0,
    "op_load": 1.5,
    "op_store": 1.5,
    "op_call": 2.0,
    # Generic "one unit of native application work".
    "native_op": 1.0,
    # Dalvik interpreter: cost to fetch/decode/dispatch one bytecode on top
    # of the work it performs.  Dalvik's interpreter on this class of
    # hardware retires roughly 10-15x fewer application ops/sec than
    # native code (PassMark CPU bars, Fig. 6).
    "dalvik_dispatch": 11.0,
    # Objective-C dynamic dispatch (cached IMP lookup).
    "objc_msgsend": 4.0,

    # ---- Kernel entry/exit and Cider ABI costs ---------------------------
    "syscall_entry": 170.0,
    "syscall_exit": 170.0,
    # Persona checking/handling on every syscall entry of a Cider kernel
    # (paper: +8.5% on a 0.4us null syscall ≈ 30ns).
    "cider_persona_check": 29.0,
    # Translating an XNU trap into the Linux calling convention: argument
    # re-marshalling, CPU-flag error convention, dispatch table hop
    # (paper: iOS null syscall +40% ≈ +135ns over vanilla).
    "xnu_translate_syscall": 107.0,
    # XNU-native kernel trap handling (iPad mini) is slightly costlier than
    # Linux for trivial syscalls.
    "xnu_native_trap": 60.0,

    # ---- Signals ----------------------------------------------------------
    "signal_deliver": 1800.0,
    # Determining the persona of the target thread (Cider, all signals).
    "signal_persona_lookup": 55.0,
    # Translating a Linux signal into the XNU representation and pushing the
    # larger XNU signal frame (paper: +25% for iOS binaries).
    "signal_translate": 200.0,
    "signal_large_frame": 205.0,

    # ---- Process lifecycle -------------------------------------------------
    "fork_base": 190_000.0,
    # Copying one page's worth of page-table entries on fork.  An iOS
    # process maps ~90MB => ~23k 4KB pages => ~1ms extra (paper §6.2).
    "fork_per_page": 43.0,
    # COW fork (ablation, off by default): write-protecting one PTE at
    # fork time instead of duplicating it...
    "cow_fork_per_page": 6.0,
    # ...and servicing the write-protect fault + 4KB page copy when the
    # child (or parent) first writes the page.
    "cow_break_per_page": 640.0,
    "exec_base": 240_000.0,
    "exit_base": 30_000.0,
    "wait_base": 15_000.0,
    "thread_create": 35_000.0,
    "sched_switch": 4_000.0,
    # Shell startup work beyond fork+exec (parsing, rc, pipeline setup).
    "shell_overhead": 2_200_000.0,

    # ---- Binary loading ----------------------------------------------------
    # Android's in-process linker mapping one ELF dependency.
    "linker_lib_load": 6_000.0,
    "elf_load_base": 95_000.0,
    "elf_load_per_mb": 9_000.0,
    "macho_load_base": 105_000.0,
    "macho_load_per_mb": 9_000.0,
    # dyld: locating one dylib by walking the filesystem (open + stat on
    # non-prelinked libraries; the Cider prototype has no shared cache).
    "dyld_lib_open": 16_000.0,
    "dyld_lib_map_per_mb": 2_600.0,
    "dyld_link_per_lib": 7_000.0,
    # Mapping the prelinked shared cache in one go (iPad mini fast path).
    "dyld_shared_cache_map": 260_000.0,
    # dyld3-style launch closure: validating a prebuilt closure against the
    # cache generation (one stat + hash check) instead of re-walking the
    # dependency graph (ablation, off by default).
    "dyld_closure_hit": 21_000.0,
    # Replaying one closure entry: the image is already located and its
    # link edits prevalidated; only the map remains (charged per MB via
    # dyld_lib_map_per_mb) plus this residual fix-up.
    "dyld_closure_lib_replay": 1_100.0,
    # User-space pthread_atfork / dyld exit callbacks: 115 libraries worth
    # of handlers account for ~2.5ms of the iOS fork+exit time (paper §6.2).
    "atfork_handler": 7_200.0,
    "atexit_handler": 7_200.0,

    # ---- VFS / local IPC ---------------------------------------------------
    "path_lookup_component": 350.0,
    # Dentry-cache hit: one hash probe replaces the per-component walk
    # (Linux dcache warm path; ablation, off by default).
    "dcache_hit": 90.0,
    "open_base": 900.0,
    "close_base": 350.0,
    "read_base": 500.0,
    "write_base": 500.0,
    "file_create": 12_000.0,
    "file_unlink": 9_000.0,
    "file_read_per_kb": 120.0,
    "file_write_per_kb": 120.0,
    "pipe_transfer": 2_600.0,
    "sock_transfer": 3_400.0,
    "select_base": 1_400.0,
    "select_per_fd": 95.0,

    # ---- INET networking (repro.net virtual netstack) ----------------------
    # CPU-side costs of the BSD socket layer; the *link* costs (propagation
    # latency, serialisation per KB, MTU segmentation) live in the per-device
    # LinkProfile (repro.hw.profiles) and are charged by the netstack, not
    # by these names.  None of these names is charged unless an INET socket
    # is created, preserving the zero-cost-when-off invariant.
    "net_socket_create": 1_200.0,
    "net_bind": 800.0,
    "net_listen": 600.0,
    # connect()/accept() CPU work excluding handshake flight time.
    "net_connect_cpu": 2_000.0,
    "net_accept_cpu": 1_500.0,
    # Per-segment CPU cost of the TX/RX paths (header build/parse, checksum,
    # queueing); charged once per MTU-sized segment.
    "net_tx_per_segment": 1_800.0,
    "net_rx_per_segment": 1_600.0,
    # Copy in/out of socket buffers.
    "net_tx_per_kb": 220.0,
    "net_rx_per_kb": 200.0,
    # Deterministic stub resolver: encode query + parse answer.
    "net_dns_query_cpu": 4_000.0,
    # HTTP/1.1 request/response head parse (origin server and clients).
    "net_http_parse": 6_000.0,

    # ---- Storage / memory hardware ----------------------------------------
    "storage_op_base": 60_000.0,
    "storage_read_per_kb": 150.0,
    "storage_write_per_kb": 400.0,
    "mem_read_per_kb": 95.0,
    "mem_write_per_kb": 110.0,

    # ---- Durable storage: journal, sync family, crash recovery -------------
    # None of these is charged unless something actually syncs, reboots or
    # fscks — enabling the journal alone preserves zero-cost-when-off.
    # eMMC cache-flush barrier (CMD6 FLUSH_CACHE on 2013-era parts ≈ 1ms).
    "fsync_base": 900_000.0,
    "fdatasync_base": 700_000.0,
    "sync_base": 1_200_000.0,
    # Appending one metadata record to the on-flash journal.
    "journal_commit_record": 5_000.0,
    # Writing back one dirty 4KB page (storage_write_per_kb x 4 + overhead).
    "storage_flush_per_page": 1_700.0,
    # Firmware + kernel bring-up on reboot (the userspace re-install work
    # charges itself through the ordinary cost names).
    "reboot_base": 150_000_000.0,
    # Replaying one committed journal record at remount.
    "remount_replay_record": 8_000.0,
    # fsck: checking one directory entry / inode.
    "fsck_per_entry": 2_000.0,

    # ---- Mach IPC (duct-taped subsystem) ------------------------------------
    "mach_port_alloc": 1_500.0,
    "mach_msg_send": 2_200.0,
    "mach_msg_receive": 2_100.0,
    "mach_ool_per_kb": 15.0,
    # Mach task-state initialisation performed on fork by a Cider kernel.
    "mach_fork_init": 2_000.0,

    # ---- Personas / diplomatic functions ------------------------------------
    # set_persona syscall: swap kernel ABI + TLS pointers.
    "set_persona": 240.0,
    # Diplomat stub body: spill/restore arguments, indirect call, TLS/errno
    # conversion (excludes the two set_persona traps it brackets).
    "diplomat_overhead": 160.0,
    "errno_convert": 25.0,

    # ---- Graphics -----------------------------------------------------------
    # CPU-side cost of one GL ES API call inside the library.
    "gl_call_cpu": 900.0,
    "gpu_cmd": 350.0,
    "gpu_per_vertex": 9.0,
    "gpu_per_fragment_block": 6.0,
    "composition": 450_000.0,
    "eagl_bridge_call": 600.0,
    # Stall injected by the Cider GLES library's broken fence primitive.
    "fence_stall": 95_000.0,
    "gralloc_alloc": 90_000.0,

    # ---- 2D raster libraries (per primitive op) -----------------------------
    # Android's 2D libraries (Skia) are better optimised than the iOS core
    # graphics path for most primitives (Fig. 6), except complex vectors.
    "raster2d_solid_op": 1.0,
    "raster2d_trans_op": 1.4,
    "raster2d_complex_op": 3.2,
    "raster2d_image_op": 1.2,
    "raster2d_filter_op": 2.0,

    # ---- Input --------------------------------------------------------------
    "input_event_read": 2_500.0,
    "input_event_route": 4_000.0,
    "gesture_process": 6_000.0,

    # ---- I/O Kit -------------------------------------------------------------
    "iokit_registry_lookup": 3_000.0,
    "iokit_method_dispatch": 1_200.0,
    "cxx_construct": 300.0,
}


class CostModel:
    """An immutable mapping of cost names to nanosecond values."""

    def __init__(
        self,
        overrides: Optional[Mapping[str, float]] = None,
        base: Optional[Mapping[str, float]] = None,
        name: str = "default",
    ) -> None:
        self.name = name
        self._costs: Dict[str, float] = dict(
            DEFAULT_COSTS if base is None else base
        )
        if overrides:
            for key in overrides:
                if key not in self._costs:
                    raise UnknownCostError(
                        f"override for undefined cost {key!r} in model {name!r}"
                    )
            self._costs.update(overrides)

    def __getitem__(self, cost_name: str) -> float:
        try:
            return self._costs[cost_name]
        except KeyError:
            raise UnknownCostError(
                f"cost {cost_name!r} is not defined by model {self.name!r}"
            ) from None

    def get(self, cost_name: str, default: float = 0.0) -> float:
        return self._costs.get(cost_name, default)

    def __contains__(self, cost_name: str) -> bool:
        return cost_name in self._costs

    def __iter__(self) -> Iterator[str]:
        return iter(self._costs)

    def compile_ps(self) -> Dict[str, int]:
        """The whole table resolved to integer picoseconds, one rounding
        per cost name — the same rounding :meth:`VirtualClock.charge`
        performs per call, hoisted out of the hot path.  ``Machine``
        compiles this once per device at boot (the model is immutable)."""
        from .clock import ns_to_ps

        return {name: ns_to_ps(ns) for name, ns in self._costs.items()}

    def table(self) -> frozenset:
        """The costs as a value: equal for two models that charge the
        same, whatever their names."""
        return frozenset(self._costs.items())

    def derive(self, name: str, **overrides: float) -> "CostModel":
        """A copy of this model with ``overrides`` applied."""
        return CostModel(overrides, base=self._costs, name=name)

    def scaled(self, name: str, factor: float, *cost_names: str) -> "CostModel":
        """A copy with the listed costs multiplied by ``factor``."""
        overrides = {key: self._costs[key] * factor for key in cost_names}
        return CostModel(overrides, base=self._costs, name=name)

    def __repr__(self) -> str:
        return f"<CostModel {self.name!r} ({len(self._costs)} costs)>"
