"""The sweep gate: ``scripts/cli_sweep.py`` run as a script, whose
closing stderr line pins the count and the sha256 of every CLI answer in
its grid.  A change that moves any answer moves the digest: it updates
the pin here and lists the moved lines (``scripts/sweep_diff.py`` against
the parent's sweep) in ``CHANGES.md``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = ("6862 invocations, sha256 "
       "4d40dd814b6251392a85baa402c7b305cf8cacd01662ed9fe9aeb70c92c2da3a")


def test_cli_sweep_digest_is_pinned():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_sweep.py")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONIOENCODING": "utf-8"})
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == PIN
