"""One measuring process of the host-time benchmark.

``run.py`` starts three of these per workload, one after another, each
with its own ``PYTHONHASHSEED``.  A process imports the simulator, sets
the workload up, discards one warm-up unit, then runs units in a closed
loop until its share of ``--seconds`` is spent.  With ``--trace 1`` it
splits that share: an untraced half, then a traced half, then the
probes.  It prints one JSON document as its last line of stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import monotonic_ns, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


#: Peak memory is read once this many units have run: fixed work, so it
#: does not grow with how fast the host happens to be.
RSS_AFTER_UNITS = 20
#: Reference loops timed right after set-up; their median gives the
#: host's speed at the time, to count set-up in nominal seconds.
SETUP_REFS = 3


def peak_rss_kb() -> int:
    """This process's peak, or its largest reaped fork worker's."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_window(workload, rng, tracer, budget_ns: int) -> dict:
    """Closed loop over batches until ``budget_ns`` is spent; a batch is
    started only if it is expected to end before half a batch past it."""
    from tracer import Sample, merge_stats
    from workloads import Batch

    samples, batches, stats = [], [], {}
    rss_kb = None
    start = perf_counter_ns()
    while True:
        batch_start = perf_counter_ns()
        try:
            batch = workload.batch(rng, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            wall = perf_counter_ns() - batch_start
            batch = Batch([Sample(wall, 0, 0, False, {}, 0)], wall, wall)
        now = perf_counter_ns()
        for sample in batch.samples:
            merge_stats(stats, sample.stats)
        samples.extend(batch.samples)
        refs = [s.ref_ns for s in batch.samples if s.ref_ns]
        batches.append([batch.wall_ns, statistics.median(refs) if refs else 0,
                        len(batch.samples), batch.section_ns, batch.jobs])
        if rss_kb is None and len(samples) >= RSS_AFTER_UNITS:
            rss_kb = peak_rss_kb()
        if now - start + (now - batch_start) // 2 >= budget_ns:
            break
    return {
        "units": [[s.wall_ns, s.ref_ns, s.traps, s.ok] for s in samples],
        "batches": batches,
        "rss_kb": rss_kb if rss_kb is not None else peak_rss_kb(),
        "max_thread_self_share": max(
            (s.max_thread_self_ns / s.wall_ns for s in samples if s.wall_ns),
            default=0.0,
        ),
        "stats": stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=int, required=True,
                        help="time.monotonic_ns() when the parent spawned us")
    args = parser.parse_args(argv)

    start = perf_counter_ns()
    from tracer import Tracer, merge_stats, reference_loop_ns, run_probes
    from workloads import WORKLOADS, TrapMeter

    cls = WORKLOADS[args.workload]
    for module in cls.modules:
        importlib.import_module(module)
    import_ns = perf_counter_ns() - start

    rng = random.Random(f"{args.seed}/{args.index}")
    meter = TrapMeter()
    meter.install()
    workload = cls(meter)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    workload.setup(rng)
    if tracer is not None:
        tracer.active = False
    warm = workload.warmup(rng, tracer)
    setup_ns = monotonic_ns() - args.spawned_at
    doc = {
        "setup_s": setup_ns / 1e9,
        "setup_ref_ns": statistics.median(reference_loop_ns() for _ in range(SETUP_REFS)),
        "import_ms": import_ns / 1e6,
        "warmup_ns": [s.wall_ns for s in warm],
        "warmup_ok": all(s.ok for s in warm),
    }
    budget_ns = int(args.seconds * 1e9)
    if tracer is None:
        doc["untraced"] = run_window(workload, rng, None, budget_ns)
    else:
        setup_stats, _ = tracer.collect()
        for sample in warm:
            merge_stats(setup_stats, sample.stats)
        doc["setup_stats"] = setup_stats
        tracer.uninstall()
        doc["untraced"] = run_window(workload, rng, None, budget_ns // 2)
        tracer.install()
        doc["traced"] = run_window(workload, rng, tracer, budget_ns // 2)
        tracer.uninstall()
        doc["probes"] = run_probes()
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
