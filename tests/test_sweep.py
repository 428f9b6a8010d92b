"""The shared sweep command line (``repro.sim.sweep.main``).

partsweep, crashsweep and schedsweep all hand their ``run_sweep`` to the
same ``main``; these tests drive it with a stub sweep so the argv
grammar, exit codes, transcript footer and timings file are pinned
without booting a single world.
"""

import hashlib
import json

import pytest

from repro.sim import sweep
from repro.sim.parallel import run_cases

USAGE = (
    "usage: python -m repro.workloads.stubsweep "
    "[max_cases|all] [--jobs N] [--timings FILE]"
)


def stub_sweep(max_cases, jobs=1, failing=()):
    """A sweep of ``max_cases`` cases (5 for ``all``); the cases named in
    ``failing`` fail.  Cases run through ``run_cases`` like the real
    harnesses, so ``jobs`` fans them across fork-server workers."""
    count = 5 if max_cases is None else max_cases
    report = sweep.SweepReport()
    report.line(f"stubsweep: sweeping {count} case(s)")
    results = run_cases(
        count,
        lambda index: (f"stubsweep: case {index}", index not in failing),
        jobs=jobs,
    )
    for line, ok in results:
        report.case(line, ok)
    report.line(f"stubsweep: {report.passed}/{report.cases} case(s) passed")
    return report


def run_main(capsys, argv, run_sweep=stub_sweep, **kwargs):
    code = sweep.main("stubsweep", run_sweep, 3, argv, **kwargs)
    out, err = capsys.readouterr()
    return code, out, err


def test_all_cases_pass_exits_zero_with_footer(capsys):
    code, out, err = run_main(capsys, [])
    assert code == 0
    assert err == ""
    body, footer = out.rsplit("sweep sha256: ", 1)
    assert body.splitlines() == [
        "stubsweep: sweeping 3 case(s)",
        "stubsweep: case 0",
        "stubsweep: case 1",
        "stubsweep: case 2",
        "stubsweep: 3/3 case(s) passed",
    ]
    assert footer == hashlib.sha256(body.encode()).hexdigest() + "\n"


def test_positional_sets_case_count_and_all_passes_none(capsys):
    seen = []

    def recording_sweep(value, jobs=1):
        seen.append((value, jobs))
        return stub_sweep(value, jobs=jobs)

    assert run_main(capsys, ["2"], recording_sweep)[0] == 0
    assert run_main(capsys, ["all", "--jobs", "2"], recording_sweep)[0] == 0
    assert seen == [(2, 1), (None, 2)]


def test_any_failed_case_exits_one(capsys):
    def failing_sweep(value, jobs=1):
        return stub_sweep(value, jobs=jobs, failing=(1,))

    code, out, _err = run_main(capsys, [], failing_sweep)
    assert code == 1
    assert "stubsweep: 2/3 case(s) passed\n" in out
    assert "sweep sha256: " in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--jobs"],
        ["--jobs", "-1"],
        ["--jobs", "many"],
        ["--timings"],
        ["xyz"],
        ["3", "--bogus"],
    ],
)
def test_bad_argv_exits_two_with_usage(capsys, argv):
    def never_run(value, jobs=1):
        raise AssertionError("run_sweep must not run on bad argv")

    code, out, err = run_main(capsys, argv, never_run)
    assert code == 2
    assert out == ""
    assert err == USAGE + "\n"


def test_all_is_rejected_without_the_all_spelling(capsys):
    code, _out, err = run_main(capsys, ["all"], arg="budget")
    assert code == 2
    assert err == (
        "usage: python -m repro.workloads.stubsweep "
        "[budget] [--jobs N] [--timings FILE]\n"
    )


def test_timings_schema(capsys, tmp_path):
    path = tmp_path / "timings.json"
    code, _out, _err = run_main(
        capsys, ["4", "--jobs", "2", "--timings", str(path)]
    )
    assert code == 0
    timings = json.loads(path.read_text())
    assert sorted(timings) == ["cases", "harness", "jobs", "wall_seconds"]
    assert timings["harness"] == "stubsweep"
    assert timings["jobs"] == 2
    assert timings["cases"] == 4
    assert timings["wall_seconds"] >= 0


def test_stdout_identical_across_jobs(capsys):
    serial = run_main(capsys, ["all", "--jobs", "1"])
    parallel = run_main(capsys, ["all", "--jobs", "2"])
    assert serial == parallel
    assert serial[0] == 0
