"""Object ids are numbered per machine, never per process.

Sockets, surfaces, graphic buffers and kqueues take their numbers from
``Machine.next_id``, as pids and thread ids come from their kernel and
scheduler, so a run's outputs do not depend on what ran before it in the
process.
"""

import ast
import json
import pathlib

from repro.binfmt import elf_executable
from repro.cider.system import build_vanilla_android
from repro.net.http import ORIGIN_HOST, http_get
from repro.obs.exporters import chrome_trace

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _fetch(ctx, argv):
    status, _body = http_get(ctx, ORIGIN_HOST, "/hello")
    return 0 if status == 200 else 1


def _observed_fetch():
    """One HTTP fetch on a fresh Android system with an observatory; the
    exported Chrome trace."""
    system = build_vanilla_android(with_httpd=True)
    try:
        obs = system.machine.install_observatory()
        image = elf_executable("fetch", _fetch)
        system.kernel.vfs.install_binary("/system/bin/fetch", image)
        assert system.run_program("/system/bin/fetch") == 0
        return chrome_trace(obs)
    finally:
        system.shutdown()


def test_a_second_run_in_the_process_traces_the_same_sockets():
    first, second = _observed_fetch(), _observed_fetch()
    socks = [
        [
            event["args"]["sock"]
            for event in trace["traceEvents"]
            if event.get("cat", "").startswith("kernel.net.")
            and "sock" in event.get("args", {})
        ]
        for trace in (first, second)
    ]
    assert socks[0] and socks[0] == socks[1]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def _class_counters(tree: ast.Module):
    """``Name.attr += n`` where ``Name`` is a class of the module (or
    ``cls``): a counter every instance in the process shares."""
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    for node in ast.walk(tree):
        target = node.target if isinstance(node, ast.AugAssign) else None
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and (target.value.id in classes or target.value.id == "cls")
        ):
            yield f"{target.value.id}.{target.attr} (line {node.lineno})"


def test_no_class_attribute_counts_across_the_process():
    found = [
        f"{path.relative_to(SRC.parent)}: {counter}"
        for path in sorted(SRC.rglob("*.py"))
        for counter in _class_counters(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_counter_check_sees_a_class_counter():
    tree = ast.parse(
        "class Port:\n    _next = 1\n    def __init__(self):\n        Port._next += 1\n"
    )
    assert list(_class_counters(tree)) == ["Port._next (line 4)"]
