#!/usr/bin/env python
"""Profile a two-persona workload and export the telemetry.

Boots a Cider device, installs an :class:`~repro.obs.Observatory`, runs
the same hello-world as an ELF (Android persona) and as a Mach-O (iOS
persona), then exercises one diplomatic call so the persona switches of
the paper's Figure 4 show up in the flame table.  Prints the
``perf report``-style virtual-time profile and latency percentiles, and
writes:

* ``trace.json`` — Chrome trace-event JSON, loadable in
  ``chrome://tracing`` / Perfetto (validated before writing);
* ``summary.json`` — the machine-readable run summary CI diffs between
  same-seed runs (telemetry must be byte-identical run to run).

Everything printed is deterministic: virtual time, fixed-bucket
percentiles, sorted tables.  The ``telemetry`` row of the CI
``determinism`` job runs this script under two hash seeds and requires
identical stdout, ``summary.json`` and ``trace.json``; the tier-1 suite
compares ``summary.json`` with ``benchmarks/profile_run_summary.json``.

Run:  PYTHONPATH=src python examples/profile_run.py [trace.json [summary.json]]
"""

import sys

from repro.binfmt import macho_executable
from repro.cider.system import build_cider
from repro.diplomacy.diplomat import Diplomat
from repro.obs import (
    chrome_trace,
    format_summary,
    histogram_report,
    run_summary,
    text_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_summary,
)


def _diplomat_main(ctx, argv):
    """A tiny iOS program that crosses the persona boundary: allocates a
    gralloc buffer through a diplomatic call (Android code, iOS caller)."""
    diplomat = Diplomat("_gralloc_alloc", "libgralloc.so", "gralloc_alloc")
    diplomat(ctx, 64, 64)
    return 0


def main() -> None:
    trace_path = sys.argv[1] if len(sys.argv) > 1 else "trace.json"
    summary_path = sys.argv[2] if len(sys.argv) > 2 else "summary.json"

    system = build_cider()
    try:
        obs = system.machine.install_observatory()

        code = system.run_program("/system/bin/hello")
        assert code == 0, f"/system/bin/hello exited {code}"
        code = system.run_program("/bin/hello-ios")
        assert code == 0, f"/bin/hello-ios exited {code}"

        image = macho_executable("diplomat-demo", _diplomat_main)
        system.kernel.vfs.install_binary("/bin/diplomat-demo", image)
        code = system.run_program("/bin/diplomat-demo")
        assert code == 0, f"/bin/diplomat-demo exited {code}"

        print(text_report(obs, title="two-persona workload profile"))
        print(histogram_report(obs))

        trace = chrome_trace(obs, process_name="profile-run")
        problems = validate_chrome_trace(trace)
        assert not problems, problems
        write_chrome_trace(obs, trace_path, process_name="profile-run")
        print(
            f"wrote {trace_path}: {len(trace['traceEvents'])} trace events "
            "(chrome://tracing JSON, validated)"
        )

        summary = run_summary(system.machine, obs, label="profile-run")
        assert summary["conservation_ok"], "self-time must sum to charged"
        write_summary(summary, summary_path)
        print(f"wrote {summary_path}")
        print()
        print(format_summary(summary))
    finally:
        system.shutdown()


if __name__ == "__main__":
    main()
