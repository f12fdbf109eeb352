"""``scripts/sweep_diff.py``, the comparison of two sweeps, run as a
script on small hand-written sweeps: each kind of changed line, a
differing argv sequence and a usage error, with the printed counts and
the exit status."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_diff.py"


def record(argv, stdout="", stderr="", code=0):
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}


def sweep_diff(tmp_path, *sweeps):
    """Exit status and stdout of the script on ``sweeps``, each a list of
    records written as one JSONL file."""
    paths = []
    for n, records in enumerate(sweeps):
        path = tmp_path / f"sweep-{n}.jsonl"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records), encoding="utf-8")
        paths.append(str(path))
    done = subprocess.run([sys.executable, str(SCRIPT), *paths],
                          capture_output=True, encoding="utf-8",
                          env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    return done.returncode, done.stdout, done.stderr


STUCK = "H_1 = stuck\n"
OLD = [record(["homology", "a"], "H_0 = Z\n"),
       record(["novikov", "b"], STUCK),
       record(["novikov", "c"], "b_0 = 1 (stuck)\n"),
       record(["novikov", "d"], "b_0 = 1\n"),
       record(["validate", "e"], stderr="error: bad\n", code=2)]


def test_identical_sweeps_count_nothing(tmp_path):
    assert sweep_diff(tmp_path, OLD, OLD) == (
        0, "stuck→complete=0 stuck→stuck=0 complete→stuck=0 changed=0\n", "")


def test_every_kind_is_counted(tmp_path):
    new = [record(["homology", "a"], "H_0 = Z^2\n"),
           record(["novikov", "b"], "H_1 = 0\n"),
           record(["novikov", "c"], "b_0 = 2 (stuck)\n"),
           record(["novikov", "d"], stderr="error: stuck\n", code=1),
           OLD[4]]
    code, out, err = sweep_diff(tmp_path, OLD, new)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        '1: changed ["homology", "a"]',
        '2: stuck→complete ["novikov", "b"]',
        '3: stuck→stuck ["novikov", "c"]',
        '4: complete→stuck ["novikov", "d"]',
        "stuck→complete=1 stuck→stuck=1 complete→stuck=1 changed=1"]


def test_stuck_lines_alone_pass(tmp_path):
    # a stuck answer that completes, or whose torsion or status changes,
    # is no regression
    new = [OLD[0], record(["novikov", "b"], "H_1 = 0\n"),
           record(["novikov", "c"], "b_0 = 0 (stuck)\n"), *OLD[3:]]
    code, out, _ = sweep_diff(tmp_path, OLD, new)
    assert code == 0
    assert out.splitlines()[-1] == \
        "stuck→complete=1 stuck→stuck=1 complete→stuck=0 changed=0"


def test_a_changed_exit_status_alone_counts(tmp_path):
    new = [*OLD[:4], record(["validate", "e"], stderr="error: bad\n", code=1)]
    code, out, _ = sweep_diff(tmp_path, OLD, new)
    assert code == 1
    assert out.splitlines()[-1].endswith("changed=1")


def test_differing_argv_sequences(tmp_path):
    for new in (OLD[:-1], [*OLD[:4], record(["validate", "f"])]):
        code, out, _ = sweep_diff(tmp_path, OLD, new)
        assert code == 1
        assert out == f"argv sequences differ (5 and {len(new)} lines)\n"


def test_usage_error(tmp_path):
    for sweeps in ((OLD,), (OLD, OLD, OLD)):
        assert sweep_diff(tmp_path, *sweeps) == (
            2, "", "usage: sweep_diff.py OLD NEW\n")
