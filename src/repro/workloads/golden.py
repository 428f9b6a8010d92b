"""Golden virtual-time capture.

Charged virtual time is the simulation's *scientific output*: with all
warm-path ablations off it must be bit-identical across platforms, PRs,
and Python versions (the clock is integer picoseconds, one rounding per
charge — see :mod:`repro.sim.clock`).  This module snapshots that output
for the Figure-5 harness plus a cheap two-persona workload so a test and
a CI job can assert byte-identity against the committed golden file.

Record (only when a PR *intends* to change default-config virtual time)::

    PYTHONPATH=src python -m repro.workloads.golden --record

Verify (what ``tests/integration/test_golden_virtual_time.py`` and the
``golden`` row of the ``determinism`` CI job do)::

    PYTHONPATH=src python -m repro.workloads.golden --verify
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict

#: The committed golden file (repo root relative to this module).
GOLDEN_PATH = os.path.normpath(
    os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..", "..", "..", "benchmarks", "golden_fig5_virtual_ns.json",
    )
)

#: Figure-5 iterations used for the golden capture (small but exercises
#: every metric including fork/exec/shell across all four systems).
FIG5_ITERS = 2


def _canon(value):
    """JSON-safe canonical form: NaN becomes the string "NaN" (NaN never
    compares equal to itself, and bare NaN is not strict JSON)."""
    if isinstance(value, dict):
        return {key: _canon(val) for key, val in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def collect() -> Dict[str, object]:
    """Run the golden workloads; returns the canonical result document."""
    from ..cider.system import build_cider
    from .harness import run_figure5

    fig5 = run_figure5(iters=FIG5_ITERS)

    system = build_cider()
    try:
        start_ps = system.machine.clock.charged_ps
        assert system.run_program("/system/bin/hello") == 0
        assert system.run_program("/bin/hello-ios") == 0
        two_persona_ps = system.machine.clock.charged_ps - start_ps
    finally:
        system.shutdown()

    return {
        "schema": 1,
        "fig5_iters": FIG5_ITERS,
        "fig5_virtual_ns": _canon(fig5.raw),
        "two_persona_charged_ps": two_persona_ps,
    }


def roundtrip(document: Dict[str, object]) -> Dict[str, object]:
    """Normalise through JSON so int/float/None types match a loaded file."""
    return json.loads(json.dumps(document, sort_keys=True))


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def record(path: str = GOLDEN_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(collect(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def verify(path: str = GOLDEN_PATH) -> Dict[str, object]:
    """Raise AssertionError on any deviation; returns the diff summary."""
    golden = load_golden(path)
    current = roundtrip(collect())
    mismatches = []
    if current == golden:
        return {"ok": True, "mismatches": []}
    for key in sorted(set(golden) | set(current)):
        if golden.get(key) != current.get(key):
            mismatches.append(key)
            if key == "fig5_virtual_ns":
                for config in sorted(
                    set(golden.get(key, {})) | set(current.get(key, {}))
                ):
                    gold_cfg = golden.get(key, {}).get(config, {})
                    cur_cfg = current.get(key, {}).get(config, {})
                    for metric in sorted(set(gold_cfg) | set(cur_cfg)):
                        if gold_cfg.get(metric) != cur_cfg.get(metric):
                            mismatches.append(
                                f"  {config}.{metric}: "
                                f"{gold_cfg.get(metric)} -> {cur_cfg.get(metric)}"
                            )
    raise AssertionError(
        "golden virtual time deviated (default config must be "
        "bit-identical):\n" + "\n".join(mismatches)
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", action="store_true")
    group.add_argument("--verify", action="store_true")
    parser.add_argument("--path", default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    if args.record:
        record(args.path)
        print(f"recorded golden virtual time -> {args.path}")
        return 0
    verify(args.path)
    print("golden virtual time verified: bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
