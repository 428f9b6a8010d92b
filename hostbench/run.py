#!/usr/bin/env python3
"""Host-time benchmark: how long the simulator makes its users wait.

Virtual time is the paper's result and is pinned by
``benchmarks/golden_fig5_virtual_ns.json``; this benchmark measures the
*host* time it takes to produce it.  Each workload runs as a closed loop
with one client in three fresh processes, one after another, with
``PYTHONHASHSEED`` set to 3N, 3N+1 and 3N+2 for ``--seed N``; the three
processes' samples are pooled.  Every unit checks its outputs.

Usage::

    python3 hostbench/run.py                          # all five workloads, 20 s each
    python3 hostbench/run.py --workload fig5 --seed 3 --seconds 10
    python3 hostbench/run.py --trace                  # per-layer metrics instead
    python3 hostbench/run.py --seconds 5 --check --out bench-result.json

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import monotonic, monotonic_ns
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
HISTORY = os.path.join(HERE, "results", "history.jsonl")
WORKLOADS = ("fig5", "syscall", "ipc", "launch", "sweep")
PROCESSES = 3
#: A child that outlives its share of --seconds by this much has hung.
CHILD_GRACE_S = 50.0
#: The percentile reported beside the median needs ten samples beyond it.
P90_MIN_UNITS = 100
#: ``--check`` fails a workload whose ``unit_p50_norm`` exceeds the
#: reference by more than this share.  It is wider than BENCHMARK.json's
#: bound because the gate judges one short run, not a median of ten.
CHECK_TOLERANCE = 0.25

#: Every end-to-end metric and its unit.  ``*_norm`` metrics divide out
#: the reference loop timed before each unit, which cancels most of the
#: host's speed drift, and ``setup_s`` counts set-up in nominal seconds
#: the same way; BENCHMARK.json gates those (and memory), while the raw
#: wall-clock ones are printed for people.
END_TO_END = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "unit_p50_ms": "ms",
    "unit_p90_ms": "ms",
    "unit_p50_norm": "ratio",
    "unit_p90_norm": "ratio",
    "units_per_s": "1/s",
    "units_per_s_norm": "1/s",
    "sim_traps_per_s": "1/s",
    "sim_traps_per_s_norm": "1/s",
    "max_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    """A measuring process crashed or hung: the run has no result."""


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _summary(value: float, values: List[float]) -> dict:
    q1, _median, q3 = _quartiles(values)
    return {"value": value, "q1": q1, "q3": q3, "n": len(values)}


def run_child(workload: str, seed: int, index: int, seconds: float, trace: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str((3 * seed + index) % 2**32))
    cmd = [
        sys.executable, CHILD,
        "--workload", workload,
        "--seed", str(seed),
        "--index", str(index),
        "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
        "--spawned-at", str(monotonic_ns()),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        # Its fork-server workers share its session: take them down too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} process {index} hung")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} process {index} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _pool(docs: List[dict], window: str):
    units = [u for doc in docs for u in doc[window]["units"]]
    walls_ms = [u[0] / 1e6 for u in units]
    norms = [u[0] / u[1] for u in units if u[1]]
    return units, walls_ms, norms


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(docs: List[dict]) -> Dict[str, dict]:
    from tracer import REF_NOMINAL_NS

    units, walls_ms, norms = _pool(docs, "untraced")
    wins = [doc["untraced"] for doc in docs]
    # Per process: units, traps, batch wall seconds, and the same batches
    # in nominal seconds (the median reference loop of the batch's units
    # counted as 5 ms).
    counts = [len(w["units"]) for w in wins]
    traps = [sum(u[2] for u in w["units"]) for w in wins]
    seconds = [sum(b[0] for b in w["batches"]) / 1e9 for w in wins]
    nominal = [
        sum(b[0] * REF_NOMINAL_NS / b[1] for b in w["batches"] if b[1]) / 1e9
        for w in wins
    ]

    def rate(amounts: List[int], spans: List[float]) -> dict:
        return _summary(
            sum(amounts) / sum(spans), [a / s for a, s in zip(amounts, spans)]
        )

    setup_walls = [doc["setup_s"] for doc in docs]
    setups = [doc["setup_s"] * REF_NOMINAL_NS / doc["setup_ref_ns"] for doc in docs]
    rss = [w["rss_kb"] / 1024 for w in wins]
    metrics = {
        "setup_s": _summary(statistics.median(setups), setups),
        "setup_wall_s": _summary(statistics.median(setup_walls), setup_walls),
        "unit_p50_ms": _summary(statistics.median(walls_ms), walls_ms),
        "unit_p90_ms": _summary(_p90(walls_ms), walls_ms),
        "unit_p50_norm": _summary(statistics.median(norms), norms),
        "unit_p90_norm": _summary(_p90(norms), norms),
        "units_per_s": rate(counts, seconds),
        "units_per_s_norm": rate(counts, nominal),
        "sim_traps_per_s": rate(traps, seconds),
        "sim_traps_per_s_norm": rate(traps, nominal),
        "max_rss_mb": _summary(statistics.median(rss), rss),
    }
    return {name: metrics[name] for name in END_TO_END}


def per_layer(docs: List[dict]) -> Dict[str, dict]:
    from tracer import layer_metrics, merge_stats

    stats: dict = {}
    for doc in docs:
        merge_stats(stats, doc["traced"]["stats"])
    units, _walls, traced_norms = _pool(docs, "traced")
    _u, _w, untraced_norms = _pool(docs, "untraced")
    wall_ns = sum(u[0] for u in units)
    metrics = {
        name: {"value": value, "n": len(units)}
        for name, value in layer_metrics(stats, len(units), wall_ns).items()
    }

    def median_of(values: List[float]) -> dict:
        return {"value": statistics.median(values), "n": len(values)}

    metrics["repro.import_ms"] = median_of([doc["import_ms"] for doc in docs])
    metrics["cider.boot_ms"] = median_of(
        [doc["setup_stats"].get("cider.boot", [0, 0, 0])[1] / 1e6 for doc in docs]
    )
    metrics["warmup_extra_ms"] = median_of([
        statistics.mean(doc["warmup_ns"]) / 1e6
        - statistics.median(u[0] for u in doc["untraced"]["units"]) / 1e6
        for doc in docs
    ])
    traced = [doc["traced"] for doc in docs]
    sections = sum(b[3] * b[4] for w in traced for b in w["batches"])
    metrics["sim.parallel.efficiency"] = {"value": wall_ns / sections, "n": len(units)}
    metrics["trace.overhead"] = {
        "value": statistics.median(traced_norms) / statistics.median(untraced_norms) - 1,
        "n": len(units),
    }
    metrics["trace.max_thread_self_share"] = {
        "value": max(w["max_thread_self_share"] for w in traced),
        "n": len(units),
    }
    for name in docs[0]["probes"]:
        metrics[name] = median_of([doc["probes"][name] for doc in docs])
    return metrics


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("share", "efficiency", "overhead")):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in three processes; pool and summarise."""
    docs = [
        run_child(workload, seed, index, seconds / PROCESSES, trace)
        for index in range(PROCESSES)
    ]
    windows = ("untraced", "traced") if trace else ("untraced",)
    units = [u for doc in docs for w in windows for u in doc[w]["units"]]
    failed = sum(1 for u in units if not u[3])
    correct = failed == 0 and all(doc["warmup_ok"] for doc in docs)
    if trace:
        metrics = per_layer(docs)
        units_of = layer_unit
        correct &= metrics["trace.max_thread_self_share"]["value"] <= 1.0
    else:
        metrics = end_to_end(docs)
        units_of = END_TO_END.get
    for name, entry in metrics.items():
        entry["unit"] = units_of(name)
    return {
        "correct": correct,
        "attempted": len(units),
        "failed": failed,
        "fail_ratio": failed / len(units),
        "metrics": metrics,
    }


def print_report(name: str, result: dict, gated: List[str]) -> None:
    """Every metric with its unit and sample count; ``*`` marks the ones
    BENCHMARK.json gates."""
    print(
        f"{name}: {result['attempted']} units, {result['failed']} failed "
        f"(fail_ratio {result['fail_ratio']:.4f}), "
        f"outputs {'correct' if result['correct'] else 'WRONG'}"
    )
    for metric, entry in result["metrics"].items():
        notes = ""
        if "q1" in entry:
            notes = f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
        if "_p90_" in metric and entry["n"] < P90_MIN_UNITS:
            notes += f"  (under {P90_MIN_UNITS} units: fewer than ten beyond it)"
        mark = "*" if metric in gated else " "
        print(
            f" {mark}{metric:<32} {entry['value']:>14.6g} {entry['unit']:<6}"
            f" n={entry['n']}{notes}"
        )


def check(results: Dict[str, dict], reference_path: str) -> List[str]:
    """Regression gate on ``unit_p50_norm``, which cancels machine drift."""
    with open(reference_path) as fh:
        reference = json.load(fh)["unit_p50_norm"]
    failures = []
    for name, result in results.items():
        ref = reference.get(name)
        if ref is None:
            failures.append(f"{name}: missing from {reference_path}")
            continue
        got = result["metrics"]["unit_p50_norm"]["value"]
        limit = ref * (1 + CHECK_TOLERANCE)
        verdict = "ok" if got <= limit else "REGRESSION"
        print(f"check {name}: unit_p50_norm {got:.4f} vs {ref:.4f} (limit {limit:.4f}) {verdict}")
        if got > limit:
            failures.append(f"{name}: unit_p50_norm {got:.4f} > {limit:.4f}")
    return failures


def _commit() -> str:
    try:
        out = subprocess.run(
            # "-dirty" marks a run of uncommitted changes on top of it.
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def append_history(results: Dict[str, dict], seed: int, seconds: float) -> None:
    line = {
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {
            name: {
                metric: {k: entry[k] for k in ("value", "q1", "q3", "n") if k in entry}
                for metric, entry in result["metrics"].items()
            }
            for name, result in results.items()
        },
    }
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload (split over 3 processes)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--json", "--out", dest="out",
                        help="also write the full result document here")
    parser.add_argument("--check", nargs="?", const=REFERENCE, metavar="REFERENCE",
                        help="fail if unit_p50_norm exceeds "
                             f"{1 + CHECK_TOLERANCE:g}x the reference")
    parser.add_argument("--append-history", action="store_true",
                        help=f"append this run's summary to {os.path.relpath(HISTORY, ROOT)}")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.check and args.trace:
        parser.error("--check gates end-to-end metrics; drop --trace")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    gated = [spec["name"] for spec in listed]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results: Dict[str, dict] = {}
    started = monotonic()
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_report(name, results[name], gated)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"total {monotonic() - started:.1f} s")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": bool(args.trace), "workloads": results},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.append_history:
        append_history(results, args.seed, args.seconds)
    failures = check(results, args.check) if args.check else []
    for failure in failures:
        print(f"FAIL: {failure}")

    def flat(name: str, result: dict) -> Dict[str, dict]:
        prefix = "" if len(names) == 1 else f"{name}."
        metrics = result["metrics"]
        return {
            prefix + metric: {
                "value": metrics[metric]["value"], "unit": metrics[metric]["unit"]
            }
            for metric in gated
        }

    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: v for name, r in results.items() for k, v in flat(name, r).items()},
    }
    print(json.dumps(summary))
    return 0 if correct and not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
