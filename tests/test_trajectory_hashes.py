"""``tools/trajectory_hashes.py`` runs on this checkout's source tree.

The hash values are not compared here: a change that should leave every
number as it was is checked by diffing the tool's output against its
parent's. This test only keeps the tool working against the package's API.
"""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_one_hash_line_per_item():
    # a subprocess: the tool pins BLAS threads before numpy loads
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "trajectory_hashes.py"),
                           "--src", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    items = [line.split("  ")[1] for line in lines]
    assert len(items) == 61 and len(set(items)) == 61
