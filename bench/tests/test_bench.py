"""Tests of the benchmark itself, at the smallest sizes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as W  # noqa: E402

SMALL = {
    "tri-int": lambda seed: W.tri_int(seed, sides=(3, 4)),
    "tri-twisted": lambda seed: W.tri_twisted(seed, sides=((3, 2),)),
    "morse-cli": lambda seed: W.morse_cli(seed, genera=(1, 2, 3), rpn=(1, 2, 3, 4)),
}

# spans that carry load on each workload
LOADED = {
    "tri-int": ["serial.facets_from_text", "cw.from_simplicial",
                "cw.validate_regular", "cw.cw_to_morse", "morse.build_complex",
                "chains.validate_complex", "chains.homology", "linalg.snf_int",
                "cli.main"],
    "tri-twisted": ["serial.load_json", "cw.validate_regular", "cw.cw_to_morse",
                    "morse.build_complex", "morse.build_cochain",
                    "chains.validate_complex", "chains.dualize",
                    "chains.homology", "linalg.rank_expsum",
                    "linalg.nov_reduce", "invariants.novikov_numbers",
                    "cli.main"],
    "morse-cli": ["serial.load_json", "morse.build_complex",
                  "morse.build_cochain", "morse.is_simple",
                  "chains.validate_complex", "chains.dualize",
                  "chains.homology", "linalg.snf_int", "linalg.rank_expsum",
                  "linalg.nov_reduce", "invariants.novikov_numbers",
                  "invariants.hspace_obstruction",
                  "invariants.parallel_form_obstruction", "catalog.run_all",
                  "cli.main"],
}


@pytest.fixture
def small(tmp_path):
    """(cli module, workload, instance paths) for a small workload."""
    def make(name, seed=3):
        workload = SMALL[name](seed)
        cli = run.import_package()
        paths = run.write_instances(workload, tmp_path / f"{name}-{seed}")
        return cli, workload, paths
    return make


def outputs(cli, workload, paths):
    """(exit code, stdout) of every solve of one pass."""
    got = []
    for solve in workload.solves:
        argv = list(solve.argv)
        if solve.instance is not None:
            argv.append(paths[solve.instance])
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        got.append((code, out.getvalue()))
    return got


# --- generators and closed forms ------------------------------------------

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_pure_functions_of_the_seed(name):
    make = W.WORKLOADS[name]
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_full_size_instance_lists():
    assert [(i.family, i.size) for i in W.tri_int(1).instances] == \
        [(f, n) for f in ("torus", "klein") for n in W.TRI_INT_SIDES]
    assert len(W.morse_cli(1).solves) >= 100
    for inst in W.tri_int(1).instances:
        n = inst.size
        assert inst.cells == (n * n, 3 * n * n, 2 * n * n)
        assert len(inst.text.splitlines()) == 1 + 2 * n * n


def test_closed_forms_by_hand():
    assert W.homology_text("H_", "Z", (1, 1, 0), {1: (2,)}) == \
        "H_0 = Z\nH_1 = Z + Z/2\nH_2 = 0\n"
    assert W.homology_text("H^", "R", (0, 2, 0)) == "H^0 = 0\nH^1 = R^2\nH^2 = 0\n"
    cls = (Fraction(1), Fraction(-2, 3))
    assert W.novikov_text(cls, (0, 2, 0), (0, 0, 0), (1, 4, 1)) == (
        "class 1,-2/3\ndegree 0: b=0 q=0\ndegree 1: b=2 q=0\n"
        "degree 2: b=0 q=0\nzero-count bounds: slack 1,2,1 -> pass\n")
    torus = W.tri_int(1, sides=(3,)).solves
    assert {s.stdout for s in torus} == {
        "cells 9,27,18  euler 0\nH_0 = Z\nH_1 = Z^2\nH_2 = Z\n",
        "cells 9,27,18  euler 0\nH_0 = Z\nH_1 = Z + Z/2\nH_2 = 0\n"}
    genus = dict((s.argv[:3], s.stdout) for s in W.genus_solves("g", 2, (0,) * 4, (1, -1, 1, 1)))
    assert genus[("homology", "--system", "unit-rep")] == \
        "H_0 = Z/2\nH_1 = Z^2 + Z/2\nH_2 = 0\n"
    rp3 = dict((s.argv, s.stdout) for s in W.rpn_solves("r", 3, (Fraction(1),)))
    assert rp3[("homology",)] == "H_0 = Z\nH_1 = Z/2\nH_2 = 0\nH_3 = Z\n"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_closed_forms_match_the_program_at_small_sizes(small, name):
    cli, workload, paths = small(name)
    loop = run.Loop(cli, workload, paths)
    loop.run_pass()
    assert loop.failures == []


def test_twisted_torus_squares_to_zero_for_every_class():
    rng = W._rng("test", 0)
    cw = W.twisted_torus(3, rng)
    up = {}
    for rec in cw["incidences"]:
        up.setdefault(rec["upper"], []).append(rec)
    # sum over both paths of a codimension-2 pair of sign * deck translation
    for top in cw["cells"][2]:
        acc = {}
        for r1 in up[top]:
            for r2 in up[r1["lower"]]:
                g = tuple(int(a) + int(b) for a, b in zip(r1["periods"], r2["periods"]))
                key = (r2["lower"], g)
                acc[key] = acc.get(key, 0) + r1["incidence"] * r2["incidence"]
        assert all(v == 0 for v in acc.values())


def test_wrong_expectation_counts_as_failed(small, tmp_path, monkeypatch):
    cli, workload, paths = small("tri-int")
    bad = dataclasses.replace(workload.solves[0], stdout="H_0 = 0\n")
    wrong = dataclasses.replace(workload, solves=(bad,) + workload.solves[1:])
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setitem(run.WORKLOADS, "tri-int", lambda seed: wrong)
    line = run.run("tri-int", 1, 0.01, trace=False)
    assert line["failed"] == 1 and not line["correct"]
    assert line["metrics"]["correct_share"]["value"] == 1 - 1 / line["attempted"]
    info = json.loads((tmp_path / "out" / "tri-int-seed1-trace0" / "results.json").read_text())
    assert info["failed_share"] == 1 / line["attempted"]
    assert info["failures"][0]["reason"] == "stdout"


def test_wrong_exit_code_and_traceback_count_as_failed(small, monkeypatch):
    cli, workload, paths = small("tri-int")
    solve = workload.solves[0]
    _, failure = run.run_solve(cli, dataclasses.replace(solve, code=1), paths)
    assert failure["reason"] == "exit code" and failure["code"] == 0
    monkeypatch.setattr(cli, "main", lambda argv: 1 / 0)
    _, failure = run.run_solve(cli, solve, paths)
    assert failure["reason"] == "traceback"
    assert "ZeroDivisionError" in failure["stderr"]


# --- tracer ---------------------------------------------------------------

def _bindings(originals):
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "morsetwist" or name.startswith("morsetwist."):
            found += [f"{name}.{a}" for a, v in vars(mod).items()
                      if any(v is o for o in originals)]
    return found


def test_tracer_replaces_every_binding_and_restores_them(small):
    small("tri-int")
    originals = [getattr(sys.modules[f"morsetwist.{s.split('.')[0]}"], s.split(".")[1])
                 for s in tracer_mod.SPANS]
    before = _bindings(originals)
    assert "morsetwist.chains.snf_int" in before and "morsetwist.cli.homology" in before
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert _bindings(originals) == []
    finally:
        tr.uninstall()
    assert _bindings(originals) == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_answers_equal_untraced_and_loaded_spans_fire(small, name):
    cli, workload, paths = small(name)
    plain = outputs(cli, workload, paths)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        traced = outputs(cli, workload, paths)
        first = tr.snapshot()
        outputs(cli, workload, paths)
        second = tr.snapshot()
    finally:
        tr.uninstall()
    assert traced == plain
    for span in LOADED[name]:
        assert first["calls"].get(span, 0) > 0, span
    # counters repeat exactly from one pass to the next
    assert {k: 2 * v for k, v in first["calls"].items()} == second["calls"]
    for key in ("linalg.entries", "linalg.nnz", "rings.mul.calls", "rings.add.calls"):
        assert second["counters"].get(key, 0) == 2 * first["counters"].get(key, 0)
    if name == "tri-int":
        assert first["calls"]["chains.validate_complex"] == 3 * len(workload.solves)
    if name == "tri-twisted":
        assert first["counters"]["rings.mul.calls"] > 0
    if name == "morse-cli":
        assert first["counters"]["linalg.max_terms"] == 2  # parallel flows


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tri-twisted", SMALL["tri-twisted"])
    line = run.run("tri-twisted", 2, 0.01, trace=True)
    assert line["correct"]
    assert set(line["metrics"]) == set(run.per_layer_units())
    assert line["metrics"]["trace.overhead"]["value"] > 0
    out = tmp_path / "tri-twisted-seed2-trace1"
    assert (out / "layers.tsv").read_text().startswith("layer\tspan")
    spans = [json.loads(x) for x in (out / "spans.jsonl").read_text().splitlines()]
    assert spans and all(s[2] in tracer_mod.SPANS for s in spans)
    info = json.loads((out / "results.json").read_text())
    assert info["counts_repeat"]
    # at least two untraced and two traced passes, however short the run
    assert info["traced_passes"] >= 2 and len(info["untraced_pass_s"]) >= 2
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["cli.main.self_s"] > 0
    assert metrics["catalog.run_all.self_s"] == 0  # never called here


# --- the command line -----------------------------------------------------

def test_untraced_line_has_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "morse-cli", SMALL["morse-cli"])
    line = run.run("morse-cli", 4, 0.01, trace=False)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in line["metrics"].values())
    info = json.loads((tmp_path / "morse-cli-seed4-trace0" / "results.json").read_text())
    assert info["seed"] == 4 and info["passes"] >= 1 and info["instances"]
    assert len(info["reference_s"]) >= run.SETUP_REPS
    assert set(info["raw_metrics"]) == set(run.END_TO_END_UNITS)
    assert "morse-cli" in run.CALIBRATED
    assert {k: v["value"] for k, v in line["metrics"].items()} == \
        info["calibrated_metrics"]


def test_uncalibrated_workload_reports_raw_times(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tri-int", SMALL["tri-int"])
    line = run.run("tri-int", 4, 0.01, trace=False)
    info = json.loads((tmp_path / "tri-int-seed4-trace0" / "results.json").read_text())
    assert "tri-int" not in run.CALIBRATED
    assert {k: v["value"] for k, v in line["metrics"].items()} == info["raw_metrics"]


def test_calibration_rescales_only_time_metrics():
    raw = {"solves_per_s": 2.0, "solve_s.p50": 1.0, "solve_s.p90": 3.0,
           "setup_s": 0.5, "peak_rss_mb": 20.0, "correct_share": 1.0}
    assert run.calibrate(raw, [run.REF_SECONDS] * 3) == raw
    slow = run.calibrate(raw, [2 * run.REF_SECONDS])
    assert slow == {"solves_per_s": 4.0, "solve_s.p50": 0.5, "solve_s.p90": 1.5,
                    "setup_s": 0.25, "peak_rss_mb": 20.0, "correct_share": 1.0}
    assert run.reference_work() == run.reference_work()
    assert run.time_reference() > 0


def test_window_quantile():
    assert run.window_quantile(range(10), 0.5) == 4.5      # the median
    assert run.window_quantile(range(15), 0.5) == 7
    assert run.window_quantile(range(10), 0.9) == 8.5
    assert run.window_quantile([3], 0.9) == 3
    # 325 values: the mean of the 33 ranked 85%..95%
    assert run.window_quantile(range(325), 0.9) == sum(range(276, 309)) / 33


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tri-int", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
