"""Pinned outputs must not depend on what ran earlier in the process.

Boots in one process share binary images and dyld recordings, and
hostbench, the tier-1 suite and every sweep worker run many systems per
process.  So each pinned recipe below must leave the same bytes when it
runs a second time in a process, and again after an unrelated workload
(Figure 5), as the first time.  CI also runs this file in a process of
its own, where the first round is the first run of every recipe.
"""

import contextlib
import io
import os
import runpy
import sys

from repro.workloads import netbench, schedsweep
from repro.workloads.harness import run_figure5

from tests.test_trap_path import render_transcript

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _netbench_world(out_dir):
    """The two-machine netbench run: its report and its causal trace."""
    trace = out_dir / "world.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        netbench.main(["--world", "--trace-out", str(trace)])
    return stdout.getvalue(), trace.read_bytes()


def _profile_run(out_dir, monkeypatch):
    """``examples/profile_run.py``: the summary and Chrome trace it
    writes (its stdout names their paths, which differ per round)."""
    trace, summary = out_dir / "trace.json", out_dir / "summary.json"
    monkeypatch.setattr(sys, "argv", ["profile_run.py", str(trace), str(summary)])
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(
            os.path.join(ROOT, "examples", "profile_run.py"), run_name="__main__"
        )
    return summary.read_bytes(), trace.read_bytes()


def test_pinned_recipes_repeat_in_one_process(tmp_path, monkeypatch):
    def run_round(number):
        out_dir = tmp_path / f"round{number}"
        out_dir.mkdir()
        return {
            "netbench world": _netbench_world(out_dir),
            "profile_run": _profile_run(out_dir, monkeypatch),
            "trap path": render_transcript(),
            "schedsweep": schedsweep.run_sweep(schedsweep.DEFAULT_BUDGET).text(),
        }

    first = run_round(1)
    second = run_round(2)
    run_figure5(iters=1)
    third = run_round(3)
    for recipe, output in first.items():
        assert second[recipe] == output, f"{recipe} changed on its second run"
        assert third[recipe] == output, f"{recipe} changed after Figure 5"
