"""Every ``repro`` module imports cleanly when it is the first one loaded.

An import cycle only shows when a cycle member is imported before the
rest of its cycle: ``import repro.net`` used to fail this way, because
``repro.kernel.errno`` ran ``repro/kernel/__init__.py``, whose imports
led back into the half-initialised ``repro.net``.
"""

import os
import subprocess
import sys

import repro

_SCRIPT = """
import importlib
import pkgutil
import sys

import repro

names = ["repro"]
names += [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
print(len(names), "modules")
"""


def test_every_module_imports_first(tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    # Compile each module once, not once per re-import: bytecode goes to
    # a private cache even where the environment disables writing it.
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    *failures, summary = result.stdout.splitlines()
    assert failures == []
    assert int(summary.split()[0]) > 100  # walk_packages found the tree
