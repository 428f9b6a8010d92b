"""Workloads: lmbench and PassMark reimplementations plus the harness."""

from typing import Dict, List


def argv_params(argv: List[str]) -> Dict:
    """The ``params`` dict a workload binary receives as ``argv[1]``
    (empty when it was started without one)."""
    return argv[1] if len(argv) > 1 and isinstance(argv[1], dict) else {}
