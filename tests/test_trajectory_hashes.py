"""``tools/trajectory_hashes.py`` runs on this checkout's source tree, and
its hashes match ``tools/trajectory_hashes.lock``.

The tool runs once, in a subprocess, with ``--check``: it pins BLAS to one
thread before numpy loads, where this process's numpy is already loaded at
the default thread count. A change that moves numbers on purpose rewrites
the lock with ``--write`` under each kernel.
"""
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checked():
    return subprocess.run([sys.executable, str(ROOT / "tools" / "trajectory_hashes.py"),
                           "--src", str(ROOT / "src"), "--check"],
                          capture_output=True, text=True, timeout=300)


def test_prints_one_hash_line_per_item(checked):
    lines = checked.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), checked.stderr
    items = [line.split("  ")[1] for line in lines]
    assert len(items) == 61 and len(set(items)) == 61


def test_hashes_match_the_lock(checked):
    if checked.returncode == 3:  # no lock section for this BLAS identity
        pytest.skip(checked.stderr.strip())
    assert checked.returncode == 0, checked.stderr
