"""Answer-checked benchmark of the ``morsetwist`` command line.

Usage (from the repository root):

    python3 bench/run.py --workload tri-int --seed 1 --seconds 36 --trace 0

One run is one process, one thread and one closed-loop client: it calls
``morsetwist.cli.main(argv)`` in-process, one solve after the other, on
instance files written during set-up, and compares every solve's stdout and
exit code with the closed-form answer from ``workloads.py``.  Runs repeat
whole passes over the workload's seeded solve list.

Between solves the run times a fixed standard-library reference
(``reference_work``).  On the workloads in ``CALIBRATED`` it reports its
time metrics at the speed where the reference takes ``REF_SECONDS``; on the
others it reports them as measured.  ``results.json`` keeps both (see
``README.md``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced passes for half the time, then traced passes (see ``tracer.py``)
for the other half, at least two of each, and reports the per-layer metrics
of one pass.  Both print one JSON object as the last line of stdout and
write ``results.json`` (plus ``layers.tsv`` and ``spans.jsonl`` when
traced) under ``.bench_out/<workload>-seed<seed>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 9
# Calibrated times are reported at the speed where reference_work() takes
# REF_SECONDS; the reference is timed every REF_EVERY_S seconds between solves.
REF_SECONDS = 0.0125
REF_EVERY_S = 0.5
# Workloads whose gated time metrics are calibrated: on these, calibration
# narrows the run-to-run spread of the time metrics; on tri-int, whose time
# is integer SNF and dense products that the reference does not do, it
# does not (see README.md).
CALIBRATED = ("tri-twisted", "morse-cli")

from tracer import COUNTERS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, stdout_ok  # noqa: E402

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_share": "share",
}


def per_layer_units() -> dict:
    units = {}
    for span in SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    units.update({c: "count" for c in COUNTERS})
    units["trace.overhead"] = "x"
    return units


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def reference_work():
    """Fixed standard-library work of the kind the package does: Fraction
    arithmetic, dict updates and JSON.  It does not touch ``morsetwist``."""
    rng = random.Random(12345)
    acc = {}
    xs = [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(1500)]
    for i in range(1, len(xs)):
        key = (i % 101, xs[i].denominator)
        acc[key] = acc.get(key, 0) + xs[i] * xs[i - 1]
    return json.loads(json.dumps({f"{a}:{b}": str(v) for (a, b), v in acc.items()}))


def time_reference() -> float:
    """Seconds of one ``reference_work()``, with the cyclic collector off so
    that the package's live objects cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def import_package():
    """Import ``morsetwist`` afresh from this checkout's ``src``."""
    if not (SRC / "morsetwist" / "__init__.py").is_file():
        raise BenchError(f"no morsetwist package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "morsetwist" or n.startswith("morsetwist.")]:
        del sys.modules[name]
    pkg = importlib.import_module("morsetwist")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise BenchError(f"morsetwist imported from {pkg.__file__}, not {SRC}")
    return importlib.import_module("morsetwist.cli")


def write_instances(workload, directory: Path) -> dict:
    directory.mkdir(parents=True)
    paths = {}
    for inst in workload.instances:
        path = directory / inst.name
        path.write_text(inst.text)
        paths[inst.name] = str(path)
    return paths


def setup(name: str, seed: int, work: Path):
    """Import the package and generate and write every instance file,
    ``SETUP_REPS`` times; returns the set-up times and the last rep's
    state."""
    shutil.rmtree(work, ignore_errors=True)
    times, refs = [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        cli = import_package()
        workload = WORKLOADS[name](seed)
        paths = write_instances(workload, work / f"rep{rep}")
        times.append(time.perf_counter() - start)
        refs.append(time_reference())
        if rep:
            shutil.rmtree(work / f"rep{rep - 1}")
    return times, refs, cli, workload, paths


def run_solve(cli, solve, paths):
    """One ``cli.main`` call: (seconds, None) or (seconds, failure), where a
    failure records the reason, exit code and the end of stderr."""
    argv = list(solve.argv)
    if solve.instance is not None:
        argv.append(paths[solve.instance])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed solve, not a crash
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    text = out.getvalue()
    if code is None:
        reason = "traceback"
    elif "stuck" in text or "indeterminate" in text:
        reason = "stuck"
    elif code != solve.code:
        reason = "exit code"
    elif not stdout_ok(solve, text):
        reason = "stdout"
    else:
        return seconds, None
    return seconds, {"reason": reason, "code": code,
                     "stderr": err.getvalue()[-2000:]}


class Loop:
    """Closed loop over whole passes; keeps per-solve times, failures and
    the reference times taken between solves."""

    def __init__(self, cli, workload, paths, refs=()):
        self.cli, self.workload, self.paths = cli, workload, paths
        self.pass_walls = []
        self.times = [[] for _ in workload.solves]
        self.failures = []
        self.refs = list(refs)
        self._last_ref = time.perf_counter()

    def _reference(self) -> float:
        """Time the reference when it is due; returns the seconds spent."""
        start = time.perf_counter()
        if start - self._last_ref < REF_EVERY_S:
            return 0.0
        self.refs.append(time_reference())
        self._last_ref = time.perf_counter()
        return self._last_ref - start

    def run_pass(self, tracer=None):
        start = time.perf_counter()
        spent = 0.0
        npass = len(self.pass_walls)
        for i, solve in enumerate(self.workload.solves):
            spent += self._reference()
            if tracer is not None:
                tracer.solve = f"{npass}:{i}"
            seconds, failure = run_solve(self.cli, solve, self.paths)
            self.times[i].append(seconds)
            if failure is not None:
                self.failures.append({"pass": npass, "solve": i, **failure})
        self.pass_walls.append(time.perf_counter() - start - spent)

    def run_for(self, seconds, tracer=None, min_passes=1):
        """Whole passes while the next one is expected to fit in
        ``seconds``; at least ``min_passes``.  Returns the tracer's snapshot
        after each pass (none without a tracer)."""
        start = time.perf_counter()
        snaps = []
        done = 0
        while True:
            self.run_pass(tracer)
            done += 1
            if tracer is not None:
                snaps.append(tracer.snapshot())
            elapsed = time.perf_counter() - start
            if done >= min_passes and elapsed + elapsed / done > seconds:
                return snaps

    @property
    def attempted(self):
        return sum(len(t) for t in self.times)


def window_quantile(values, p: float, half: float = 0.05) -> float:
    """Mean of the sorted values whose rank (r + 1/2)/n lies within
    ``half`` of ``p``; the nearest rank when none does.  Unlike a single
    order statistic it does not jump across a gap between two groups of
    solve times."""
    xs = sorted(values)
    n = len(xs)
    window = [x for r, x in enumerate(xs) if abs((r + 0.5) / n - p) <= half + 1e-9]
    return statistics.fmean(window) if window else xs[min(n - 1, int(p * n))]


def end_to_end(loop: Loop, setup_times) -> dict:
    """Raw end-to-end metrics.  Medians over passes, so that one pass caught
    in a slow phase of a shared machine does not move the result."""
    calls = [t for ts in loop.times for t in ts]
    attempted, failed = loop.attempted, len(loop.failures)
    correct_per_pass = (attempted - failed) / len(loop.pass_walls)
    return {
        "solves_per_s": correct_per_pass / statistics.median(loop.pass_walls),
        "solve_s.p50": window_quantile(calls, 0.5),
        "solve_s.p90": window_quantile(calls, 0.9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_share": (attempted - failed) / attempted,
    }


def calibrate(raw: dict, refs) -> dict:
    """Rescale the time metrics to the speed where the reference takes
    ``REF_SECONDS``.  The speed of a shared machine drifts by tens of
    percent over minutes; the reference, timed in the same process between
    the solves, drifts with it."""
    scale = REF_SECONDS / statistics.median(refs)
    out = dict(raw)
    out["solves_per_s"] = raw["solves_per_s"] / scale
    for name in ("solve_s.p50", "solve_s.p90", "setup_s"):
        out[name] = raw[name] * scale
    return out


def traced_passes(loop: Loop, seconds: float):
    """Traced passes for ``seconds`` (at least two); returns the tracer,
    per-pass snapshots and the pass walls."""
    tracer = Tracer()
    tracer.install()
    try:
        snaps = loop.run_for(seconds, tracer, min_passes=2)
    finally:
        tracer.uninstall()
    return tracer, snaps, loop.pass_walls[-len(snaps):]


def _pass_counts(snap) -> dict:
    """Additive counts of a snapshot: span calls and counters but the max."""
    counts = {f"{k}.calls": v for k, v in snap["calls"].items()}
    counts.update((k, v) for k, v in snap["counters"].items()
                  if k != "linalg.max_terms")
    return counts


def per_layer(tracer, snaps, traced_walls, untraced_walls):
    """Per-pass layer metrics: counts from the first traced pass, self
    seconds averaged over the traced passes.  Also says whether every traced
    pass repeated the first one's counts exactly."""
    passes = len(snaps)
    first = _pass_counts(snaps[0])
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.self_s"] = tracer.self_s.get(span, 0.0) / passes
        metrics[f"{span}.calls"] = first.get(f"{span}.calls", 0)
    for name in COUNTERS:
        metrics[name] = snaps[0]["counters"].get(name, 0)
    metrics["trace.overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls))
    repeat = all(_pass_counts(snap) == {k: v * n for k, v in first.items()}
                 for n, snap in enumerate(snaps, 1))
    return metrics, repeat


def layer_table(metrics) -> str:
    """Per span, then per layer (module): calls, self seconds per pass and
    share of the self time; then the counters."""
    total_self = sum(metrics[f"{s}.self_s"] for s in SPANS) or 1.0
    lines = ["layer\tspan\tcalls\tself_s\tself_pct"]
    totals = {}
    for span in SPANS:
        layer = span.split(".")[0]
        calls, secs = metrics[f"{span}.calls"], metrics[f"{span}.self_s"]
        pct = 100.0 * secs / total_self
        lines.append(f"{layer}\t{span}\t{calls}\t{secs:.6f}\t{pct:.2f}")
        total = totals.setdefault(layer, [0, 0.0, 0.0])
        total[0] += calls
        total[1] += secs
        total[2] += pct
    for layer, (calls, secs, pct) in totals.items():
        lines.append(f"{layer}\t(all)\t{calls}\t{secs:.6f}\t{pct:.2f}")
    for name in COUNTERS:
        lines.append(f"counter\t{name}\t{metrics[name]}\t\t")
    lines.append(f"trace\ttrace.overhead\t\t\t{metrics['trace.overhead']:.3f}")
    return "\n".join(lines) + "\n"


def instance_records(workload, loop: Loop):
    return {
        "instances": [{"name": i.name, "family": i.family, "size": i.size,
                       "cells": list(i.cells)} for i in workload.instances],
        "solves": [{"instance": s.instance, "argv": list(s.argv),
                    "median_s": statistics.median(ts), "times_s": ts}
                   for s, ts in zip(workload.solves, loop.times)],
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    work = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        setup_times, refs, cli, workload, paths = setup(name, seed, work)
        loop = Loop(cli, workload, paths, refs)
        info = {"workload": name, "seed": seed, "trace": int(trace),
                "seconds": seconds, "setup_s": setup_times}
        if not trace:
            loop.run_for(seconds)
            raw = end_to_end(loop, setup_times)
            calibrated = calibrate(raw, loop.refs)
            metrics = calibrated if name in CALIBRATED else raw
            units = END_TO_END_UNITS
            info.update(raw_metrics=raw, calibrated_metrics=calibrated,
                        reference_s=loop.refs)
            info["solve_s.samples"] = loop.attempted
        else:
            loop.run_for(seconds / 2, min_passes=2)
            untraced = list(loop.pass_walls)
            tracer, snaps, traced = traced_passes(loop, seconds / 2)
            metrics, repeat = per_layer(tracer, snaps, traced, untraced)
            units = per_layer_units()
            info.update(traced_passes=len(snaps), counts_repeat=repeat,
                        untraced_pass_s=untraced, traced_pass_s=traced)
            (out_dir / "layers.tsv").write_text(layer_table(metrics))
            with open(out_dir / "spans.jsonl", "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(loop.failures)
    info.update(passes=len(loop.pass_walls), pass_s=loop.pass_walls,
                attempted=loop.attempted, failed=failed,
                failed_share=failed / loop.attempted,
                failures=loop.failures[:50],
                metrics={k: {"value": metrics[k], "unit": units[k]}
                         for k in units},
                **instance_records(workload, loop))
    (out_dir / "results.json").write_text(json.dumps(info, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": loop.attempted,
            "failed": failed, "metrics": info["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
