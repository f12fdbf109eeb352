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
PIN = ("6876 invocations, sha256 "
       "1f8045e7b7b672e094745882724e628445b581b0ec2abcd944f32a708a394c54")


def test_cli_sweep_digest_is_pinned():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_sweep.py")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONIOENCODING": "utf-8"})
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == PIN
