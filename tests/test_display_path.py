"""The display path, pinned byte for byte.

``render_transcript`` runs the steps of ``examples/home_screen.py`` (the
Figure 4 reproduction) on one ``build_cider(with_framework=True)``
system: install three decrypted ``.ipa`` packages, settle on the home
screen, launch Calculator and type ``7*6=``, go home and open Papers,
then pinch-zoom and tap to highlight.  After each step it prints the
charged picoseconds, the syscall count, the SurfaceFlinger compositions,
the frames posted to the panel, the GPU's command and fragment counters,
and the screenshot; at the end, the Android recents list.

Every frame crosses ``PixelBuffer`` three times: UIKit's backing-to-window
blit, SurfaceFlinger's composite blit and the panel's copy.  The
committed ``benchmarks/figure4_transcript.txt`` must match the transcript
exactly, so a change to any drawing primitive, to composition order or to
what the display path charges fails here.

Re-record (only for an intentional change to the display path's output):
``PYTHONPATH=src python -m tests.test_display_path > benchmarks/figure4_transcript.txt``
"""

import os
import sys

import repro
from repro.cider.installer import decrypt_ipa, install_ipa
from repro.cider.system import build_cider
from repro.hw.profiles import iphone3gs
from repro.ios.sampleapps import calculator_ipa, papers_ipa, stocks_ipa

SRC = os.path.dirname(os.path.dirname(repro.__file__))
ROOT = os.path.dirname(SRC)
TRANSCRIPT = os.path.join(ROOT, "benchmarks", "figure4_transcript.txt")

#: Where ``examples/home_screen.py`` taps each Calculator key.
KEYS = {"7": (150, 190), "*": (1000, 300), "6": (700, 300), "=": (700, 520)}


def _install_and_settle(system, framework):
    lines = []
    jailbroken_iphone = iphone3gs()
    for package in (calculator_ipa(), papers_ipa(), stocks_ipa()):
        decrypted = decrypt_ipa(package, jailbroken_iphone)
        installed = install_ipa(system, decrypted, framework)
        lines.append(
            f"  installed {installed.display_name!r} ({installed.bundle_id}) "
            f"-> {installed.binary_path}"
        )
    framework.settle()
    return lines


def _type(framework):
    for key in "7*6=":
        framework.tap(*KEYS[key])


def _open_papers(framework):
    framework.home()
    framework.settle()
    framework.tap(400, 120)


def _pinch_and_highlight(system, framework):
    system.machine.touchscreen.pinch(500, 400, 40, 110)
    framework.settle()
    framework.tap(300, 200)


def _state(machine):
    """The counters the display path moves, two to a line."""
    gpu = machine.gpu
    return [
        f"  charged_ps={machine.clock.charged_ps} "
        f"syscalls={machine.trace.count('syscall')}",
        f"  compositions={machine.surfaceflinger.compositions} "
        f"frames_posted={machine.display.frames_posted}",
        f"  gpu commands={gpu.commands_executed} "
        f"fragment_blocks={gpu.fragment_blocks_shaded}",
    ]


def render_transcript():
    """The whole transcript: every Figure 4 step, then the recents list."""
    system = build_cider(with_framework=True)
    try:
        framework = system.android
        machine = system.machine
        steps = (
            (
                "(a) install three .ipa packages, settle on the home screen",
                lambda: _install_and_settle(system, framework),
            ),
            ("(b) tap Calculator", lambda: framework.tap(100, 120)),
            ("(b') tap 7 * 6 =", lambda: _type(framework)),
            ("(c) home, then open Papers", lambda: _open_papers(framework)),
            (
                "(c') pinch-to-zoom, then tap to highlight",
                lambda: _pinch_and_highlight(system, framework),
            ),
        )
        lines = []
        for label, step in steps:
            lines.append(f"== {label}")
            lines.extend(step() or [])
            lines.extend(_state(machine))
            lines.append(framework.screenshot())
        lines.append("== recents")
        lines.extend(
            f"  {entry['name']}" for entry in framework.activity_manager.recents
        )
    finally:
        system.shutdown()
    return "\n".join(lines) + "\n"


def test_display_path_transcript_matches_committed():
    with open(TRANSCRIPT) as fh:
        assert render_transcript() == fh.read()


if __name__ == "__main__":
    sys.stdout.write(render_transcript())
