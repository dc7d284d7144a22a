"""The example scripts run as processes and print their key lines."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_equality_example():
    proc = run_script("equality_example.py")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    for line in (
        "  sharp bound: 36 >= 36 (equality: True)",
        "  equals x2^2 * closure((x1^6, x2^2)): True",
        "  tangent-cone degeneration: [(0, 4), (6, 2)]",
        "  certified upper bound for mu: 3",
    ):
        assert line in out


def test_run_verification():
    proc = run_script("run_verification.py", "--count", "20")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0].startswith("zero-dimensional suite: 20 ideals")
    assert any(line.startswith("two-variable suite: 20 ideals") for line in out)
    assert out.count("  violations: 0") == 2


def test_run_verification_refuses_a_negative_count():
    proc = run_script("run_verification.py", "--count", "-5")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "argument --count: must be at least 0" in proc.stderr
