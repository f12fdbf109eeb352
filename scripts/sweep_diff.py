#!/usr/bin/env python3
"""Compare two outputs of ``scripts/cli_sweep.py`` line by line.

    PYTHONPATH=../parent/src python scripts/cli_sweep.py > old.jsonl
    PYTHONPATH=src python scripts/cli_sweep.py > new.jsonl
    python scripts/sweep_diff.py old.jsonl new.jsonl

Each changed line is printed as its 1-based line number, its kind and its
argv, then the count of each kind.  The kinds are ``stuck→complete``,
``stuck→stuck`` (a stuck degree's torsion or status changed),
``complete→stuck`` and ``changed`` (a complete answer that differs).  A
line is stuck when its stdout or stderr holds the word ``stuck``, as
every report of a stuck Novikov reduction does.  The exit status is 1 if
the two sweeps do not run the same argv sequence, if any line went from
complete to stuck, or if any complete answer changed; 2 on a usage
error; else 0.  Stdlib only.
"""

import json
import sys
from collections import Counter

KINDS = ("stuck→complete", "stuck→stuck", "complete→stuck", "changed")


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def stuck(record) -> bool:
    return "stuck" in record["stdout"] or "stuck" in record["stderr"]


def kind(old, new) -> str:
    if stuck(old):
        return "stuck→stuck" if stuck(new) else "stuck→complete"
    return "complete→stuck" if stuck(new) else "changed"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: sweep_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (load(path) for path in args)
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        print(f"argv sequences differ ({len(old)} and {len(new)} lines)")
        return 1
    counts = Counter()
    for n, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            counts[kind(a, b)] += 1
            print(f"{n}: {kind(a, b)} {json.dumps(b['argv'])}")
    print(" ".join(f"{k}={counts[k]}" for k in KINDS))
    return 1 if counts["complete→stuck"] or counts["changed"] else 0


if __name__ == "__main__":
    sys.exit(main())
