"""The simulated domestic kernel (Linux-like core, personality-agnostic).

Import names from their modules (``repro.kernel.kernel.Kernel``).  This
file imports nothing: ``repro.persona`` and ``repro.net`` import the
leaf ``repro.kernel.errno``, which runs this file first, and
``kernel.py`` and ``syscalls_linux.py`` import those packages back.
"""
