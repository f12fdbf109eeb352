#!/usr/bin/env python3
"""Run ``morsetwist.cli.main`` in-process over a fixed grid of invocations
and print one JSON line per call: argv, exit code, stdout, stderr.

Two trees answer alike when their sweeps are byte-identical, so comparing
a change with its parent is a plain ``diff``:

    PYTHONPATH=src python scripts/cli_sweep.py > new.jsonl
    PYTHONPATH=../parent/src python scripts/cli_sweep.py > old.jsonl
    diff old.jsonl new.jsonl

The grid covers every catalog entry x command x system x class x
text/json; the same grid on potential-shifted and rescaled copies of the
catalog data (non-integral and negative periods); the ``novikov``
depth x max-iter grid; ``validate``/``homology`` on every example file
and on broken ones; ``from-triangulation``, also on grid tori and Klein
bottles up to 16 x 16, on the facet lists of ``SMALL_FACETS`` (points, a
graph, a bowtie, three triangles on one edge, unused vertices) and on the
Freudenthal 3-torus, and with ``-o`` on a grid torus, then ``validate``
of the written file; ``example list/show/run``; the exponential and
Novikov regimes on twisted triangulated tori up to 8 x 8, whose boundary
entries and reductions carry multi-term sums (the larger grids and tori
fill in heavily during the unit pass), and
on the tori up to 5 x 5 also ``cohomology --system nov``, ``euler`` under
both systems and ``obstructions --system exp``; one torus under a nonzero
class that kills every period, so every transport is 1; a datum whose
integer leftover is a dense block of non-units; and inputs that must end
in ``error:`` (a stuck Novikov circle under ``obstructions``, a short
``--zeros`` list, a malformed deck table); and last, the depth x
max-iter grid on ``cohomology --system nov`` and on the 4 x 4 twisted
torus under non-integral classes; then inputs of thousands of cells:
``from-triangulation`` on the Freudenthal 3-torus n=4 and 4-torus n=3,
and ``homology``/``cohomology --system exp`` and ``novikov`` on the
12 x 12 twisted torus under the zero class and 1,1/3; and the Novikov
commands on the torsion block under the class 1/100, whose unit inverses
run to thousands of terms; and at the very end ``homology`` and
``cohomology``, trivial and under ``exp``/``nov`` with the class 1,0, on
the 3 x 3 twisted torus written as a Morse datum with one flow's sign
flipped, whose ``∂²`` violations have at least two cells at each end of
the composite; after them, two checks that fail on valid input: zero
counts below the Klein bottle's Novikov bounds, and ``validate`` of
``rp2`` with one flow's unit tag flipped; then ``obstructions`` on two
circles whose second one is twisted, and the Novikov commands on a datum
that a depth-16 leaf misreads, at depths 16 and 32, and ``euler`` on it;
and then a sign or incidence number of 2, which no reader
refuses: ``validate`` and ``homology`` of a CW complex with the incidence
number 2 (an ``incidence-value`` violation, exit 1) and ``homology`` of a
datum with the flow sign 2 (exit 2); and last of all
``from-triangulation`` on the 32 x 32 grid torus and Klein bottle,
where the unit pass's pivot order shapes the leftover most.  The torsion block and
``rp2.facets`` are read from ``docs/examples``.  The broken files hold
period values of every JSON type, padded and non-ASCII-digit strings, in
a flow and in a CW incidence, and one flow with both a bad unit tag and a
bad period.
The twisted tori, grid surfaces and Freudenthal tori come from
``tests/spaces.py``, the module the property suites build them from, so
the sweep and the suites check the same spaces.  Files are written to a
temporary directory and named relative to it, so no machine-specific
path reaches the output.  The invocation count and
the sha256 of the whole output go to stderr, on one line.
"""

import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

from morsetwist.catalog import example_names, get_example
from morsetwist.cli import main
from morsetwist.cw import cw_to_morse
from morsetwist.morse import potential_shift, rescale_datum
from morsetwist.serial import dump_json, facets_to_text

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# the spaces the property suites build too; tests/ is not a package
sys.path.insert(0, os.path.join(ROOT, "tests"))
from spaces import (
    false_zero,
    freudenthal_torus_facets,
    grid_facets,
    twisted_torus_cw,
    two_circles,
)

SYSTEMS = ("trivial", "unit-rep", "exp", "nov")
TWISTED = ("homology", "cohomology", "euler", "obstructions")
RPN = (1, 2, 3, 4)
DEPTHS = ("1/2", "1", "4", "16")
MAX_ITERS = ("0", "1", "10", "10000")
TORUS_SIDES = (3, 4, 5, 8)
TORUS_EVERY_COMMAND = (3, 4, 5)
TORUS_CLASSES = ("0,0", "1,0", "1,1/3", "-1/2,2")
GRID_SIDES = (3, 4, 5, 6, 10, 16)
# period values a list holds, valid and not: each takes its own path
# through the file's memo of period strings
PERIOD_VALUES = (("true", True), ("float", 1.0), ("int", 1),
                 ("decimal", "0.5"), ("null", None), ("list", [1]),
                 ("object", {}), ("padded", " 3/4 "),
                 ("arabic", "\u0663/4"), ("arabic-denominator", "\u0663/\u0664"))
# facet lists that take the simplicial boundary's corner cases: facets of
# dimension 0, a graph, non-manifold joins, vertices that no facet uses
SMALL_FACETS = (("points", "vertices 3\n0\n2\n"),
                ("graph", "vertices 5\n0 1\n1 2\n2 0\n2 3\n3 4\n"),
                ("bowtie", "vertices 5\n0 1 2\n0 3 4\n"),
                ("three-on-an-edge", "vertices 5\n0 1 2\n0 1 3\n1 0 4\n"),
                ("unused", "vertices 9\n6 4 1\n4 6 8\n1 8 4\n"))
EXAMPLES = os.path.join(ROOT, "docs", "examples")


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a traceback is an answer too
            code = f"raised {type(exc).__name__}: {exc}"
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def classes(nforms):
    """No class, the zero class, a sparse integral one, a dense one with
    negative and non-integral entries, and one of the wrong length."""
    if nforms == 0:
        return (None, "0")
    dense = ",".join(str(Fraction((-1) ** i * (i + 1), i + 2))
                     for i in range(nforms))
    sparse = ",".join("1" if i == 0 else "0" for i in range(nforms))
    return (None, ",".join("0" * nforms), sparse, dense,
            ",".join("1" * (nforms + 1)))


def grid(source, nforms):
    for cmd in TWISTED:
        for system in SYSTEMS:
            for cls in classes(nforms):
                for fmt in ("text", "json"):
                    argv = [cmd, *source, "--system", system, "--format", fmt]
                    yield argv + ([f"--class={cls}"] if cls is not None else [])
    for cls in classes(nforms):
        for fmt in ("text", "json"):
            argv = ["novikov", *source, "--format", fmt]
            yield argv + ([f"--class={cls}"] if cls is not None else [])


def entries():
    names = [n for n in example_names() if n != "rpn(N)"]
    return [get_example(n) for n in names + [f"rpn({n})" for n in RPN]]


def write(name, text):
    with open(name, "w") as fh:
        fh.write(text)
    return name


def copy_example(name):
    """A file of ``docs/examples``, copied under its own name."""
    with open(os.path.join(EXAMPLES, name)) as fh:
        return write(name, fh.read())


def files():
    """Example files: each datum as given, shifted, and shifted then
    rescaled; each CW complex; broken variants of both."""
    rng = random.Random(20191)
    out = []
    for e in entries():
        d = e.datum
        n = len(d.basis_forms)
        h = {p.id: tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(n)) for p in d.points}
        shifted = potential_shift(d, h)
        scaled = rescale_datum(shifted, Fraction(rng.randint(1, 7),
                                                 rng.randint(1, 5)))
        for tag, datum in (("", d), ("-shift", shifted), ("-scale", scaled)):
            out.append((write(f"{e.name}{tag}.json", dump_json(datum)), n))
        if e.cw is not None:
            out.append((write(f"{e.name}-cw.json", dump_json(e.cw)),
                        len(e.cw.basis_forms)))
    rp2 = json.loads(dump_json(get_example("rp2").datum))
    for label, value in PERIOD_VALUES:
        bad = json.loads(json.dumps(rp2))
        bad["flows"][0]["periods"] = ["1"]
        bad["flows"][-1]["periods"] = [value]
        out.append((write(f"rp2-period-{label}.json", json.dumps(bad)), 1))
    # a bad unit tag and a bad period on one flow: the period is read first
    bad = json.loads(json.dumps(rp2))
    bad["flows"][-1].update(periods=["0.5"], unit_tag="1")
    out.append((write("rp2-period-and-tag.json", json.dumps(bad)), 1))
    circle = json.loads(dump_json(get_example("circle-regular").cw))
    for label, value in PERIOD_VALUES:
        bad = json.loads(json.dumps(circle))
        bad["incidences"][-1]["periods"] = [value]
        out.append((write(f"circle-cw-period-{label}.json", json.dumps(bad)),
                    1))
    flipped = json.loads(json.dumps(rp2))
    flipped["flows"][2]["sign"] = -flipped["flows"][2]["sign"]
    out.append((write("rp2-flipped.json", json.dumps(flipped)), 1))
    cw = get_example("rp2-triangulated").cw
    incs = list(cw.incidences)
    k = next(i for i, inc in enumerate(incs) if inc.frm.count(".") == 2)
    incs[k] = replace(incs[k], sign=-incs[k].sign)
    out.append((write("rp2-cw-flipped.json",
                      dump_json(replace(cw, incidences=tuple(incs)))), 0))
    out.append((write("not-json.json", "{nope"), 0))
    return out


def twisted_tori():
    for n in TORUS_SIDES:
        path = write(f"twisted-torus-{n}.json", dump_json(twisted_torus_cw(n)))
        for cls in TORUS_CLASSES:
            for fmt in ("text", "json"):
                for cmd in ("homology", "cohomology"):
                    yield [cmd, path, "--system", "exp", "--format", fmt,
                           f"--class={cls}"]
                yield ["novikov", path, "--format", fmt, f"--class={cls}"]
                if n in TORUS_EVERY_COMMAND:
                    for cmd, system in (("cohomology", "nov"),
                                        ("euler", "exp"), ("euler", "nov"),
                                        ("obstructions", "exp")):
                        yield [cmd, path, "--system", system, "--format", fmt,
                               f"--class={cls}"]
    # a third basis form that no incidence crosses: the class 0,0,1 is
    # nonzero, but every flow's class period is 0
    cw = twisted_torus_cw(4)
    flat = replace(cw, name="flat-torus-4", basis_forms=("dx", "dy", "dz"),
                   incidences=tuple(replace(i, periods=(*i.periods, 0))
                                    for i in cw.incidences))
    path = write("flat-torus-4.json", dump_json(flat))
    for fmt in ("text", "json"):
        for cmd in TWISTED:
            for system in ("exp", "nov"):
                yield [cmd, path, "--system", system, "--format", fmt,
                       "--class=0,0,1"]
        yield ["novikov", path, "--format", fmt, "--class=0,0,1"]


def flow(frm, to, sign, period):
    return {"from": frm, "to": to, "sign": sign, "periods": [period]}


def error_inputs():
    """Inputs with no answer: each must end in ``error:``, not a verdict
    or a traceback."""
    stuck = {"name": "stuck-circle", "dimension": 1, "basis_forms": ["theta"],
             "points": [{"id": "p", "index": 0}, {"id": "q", "index": 1}],
             "flows": [flow("q", "p", 1, "0"), flow("q", "p", 1, "0"),
                       flow("q", "p", -1, "1")]}
    path = write("stuck-circle.json", json.dumps(stuck))
    for fmt in ("text", "json"):
        yield ["obstructions", path, "--system", "nov", "--class=1",
               "--format", fmt]
    yield ["novikov", "--example", "klein", "--class=0", "--zeros", "1,1"]
    yield ["novikov", "--example", "torus", "--class=1,0", "--zeros", "1,2,1,0"]
    lift = json.loads(dump_json(get_example("rp2-lift").datum))
    for label, table in (("table", [1, 2]), ("row", {"e": 5, "s": {}})):
        lift["deck_group"]["table"] = table
        yield ["homology", write(f"rp2-lift-bad-{label}.json", json.dumps(lift))]


def budget_grid():
    """The depth x max-iter grid beyond ``novikov``: ``cohomology --system
    nov`` on every catalog entry with a basis form, and the three Novikov
    commands on the 4 x 4 twisted torus under its non-integral classes, so
    that stuck results on cochains and on a torus are compared too."""
    budgets = list(itertools.product(DEPTHS, MAX_ITERS))
    for e in entries():
        if e.datum.basis_forms:
            cls = "--class=" + classes(len(e.datum.basis_forms))[3]
            for depth, max_iter in budgets:
                yield ["cohomology", "--example", e.name, "--system", "nov",
                       cls, "--depth", depth, "--max-iter", max_iter]
    path = write("twisted-torus-4.json", dump_json(twisted_torus_cw(4)))
    for cls in TORUS_CLASSES:
        if "/" in cls:
            for cmd in (["novikov"], ["homology", "--system", "nov"],
                        ["cohomology", "--system", "nov"]):
                for depth, max_iter in budgets:
                    yield [cmd[0], path, *cmd[1:], f"--class={cls}",
                           "--depth", depth, "--max-iter", max_iter]


def north_star():
    """Inputs of thousands of cells: ``from-triangulation`` on the
    Freudenthal 3-torus n=4 and 4-torus n=3, and the exponential and
    Novikov commands on the 12 x 12 twisted torus under the zero class and
    a nonzero one."""
    for n, dim in ((4, 3), (3, 4)):
        text = facets_to_text(freudenthal_torus_facets(n, dim))
        yield ["from-triangulation",
               write(f"freudenthal-{dim}-{n}.facets", text)]
    path = write("twisted-torus-12.json", dump_json(twisted_torus_cw(12)))
    for cls in ("0,0", "1,1/3"):
        for cmd in ("homology", "cohomology"):
            yield [cmd, path, "--system", "exp", f"--class={cls}"]
        yield ["novikov", path, f"--class={cls}"]


def long_inverses():
    """The Novikov commands on the torsion block under the class 1/100,
    whose truncated unit inverses run to thousands of terms."""
    for cmd in (["homology", "--system", "nov"],
                ["cohomology", "--system", "nov"], ["novikov"]):
        yield [cmd[0], "torsion-block.json", *cmd[1:], "--class=1/100"]


def flipped_torus():
    """``homology`` and ``cohomology``, trivial and under ``exp``/``nov``
    with the class 1,0, on the 3 x 3 twisted torus as a Morse datum with
    the sign flipped on its first flow that crosses the seam of the first
    period: a chain and a cochain ``∂²`` violation on a complex with 9
    vertices and 18 triangles, whose value carries that flow's transport."""
    d = cw_to_morse(twisted_torus_cw(3))
    k = next(i for i, f in enumerate(d.flows) if f.periods[0])
    flows = list(d.flows)
    flows[k] = replace(flows[k], sign=-flows[k].sign)
    path = write("twisted-torus-3-flipped.json",
                 dump_json(replace(d, flows=tuple(flows))))
    for cmd in ("homology", "cohomology"):
        yield [cmd, path]
        for system in ("exp", "nov"):
            yield [cmd, path, "--system", system, "--class=1,0"]


def failed_checks():
    """Checks that fail on valid input and exit 1: ``novikov --zeros`` on
    the Klein bottle under the zero class, below its bounds, in text and
    JSON; and ``validate`` of ``rp2`` with its second flow's unit tag set
    to 1, whose untwisted ``∂²`` is 0 but whose unit-tag ``∂²`` is not."""
    for fmt in ("text", "json"):
        yield ["novikov", "--example", "klein", "--class=0",
               "--zeros", "1,1,0", "--format", fmt]
    rp2 = json.loads(dump_json(get_example("rp2").datum))
    rp2["flows"][1]["unit_tag"] = 1
    yield ["validate", write("rp2-retagged.json", json.dumps(rp2))]


def hidden_twists():
    """Answers that an incomplete test once hid: ``obstructions`` on two
    circles whose twisted one is listed second, in text and JSON; and
    ``novikov`` and ``homology --system nov`` on a datum whose Novikov leaf
    at the default depth reads a nonzero entry as zero, at that depth and
    at depth 32, then ``euler --system nov`` on it at the default depth,
    in text and JSON."""
    path = write("two-circles.json", json.dumps(two_circles()))
    for fmt in ("text", "json"):
        yield ["obstructions", path, "--system", "exp", "--class=1",
               "--format", fmt]
    path = write("false-zero.json", json.dumps(false_zero()))
    for depth in ([], ["--depth", "32"]):
        yield ["novikov", path, "--class=1", *depth]
        yield ["homology", path, "--system", "nov", "--class=1", *depth]
    for fmt in ([], ["--format", "json"]):
        yield ["euler", path, "--system", "nov", "--class=1", *fmt]


def bad_signs():
    """A sign or incidence number of 2, which each reader lets through:
    ``validate`` and ``homology`` of a CW complex with the incidence number
    2, refused by its regularity check (exit 1), and ``homology`` of a
    datum with the flow sign 2, refused by the datum (exit 2)."""
    cw = {"name": "doubled-incidence", "dimension": 1,
          "cells": [["p", "r"], ["q"]],
          "incidences": [{"upper": "q", "lower": "p", "incidence": -1},
                         {"upper": "q", "lower": "r", "incidence": 2}]}
    path = write("incidence-2.json", json.dumps(cw))
    yield ["validate", path]
    yield ["homology", path]
    datum = {"name": "sign-2", "dimension": 1, "basis_forms": [],
             "points": [{"id": "p", "index": 0}, {"id": "q", "index": 1}],
             "flows": [{"from": "q", "to": "p", "sign": 2, "periods": []}]}
    yield ["homology", write("sign-2.json", json.dumps(datum))]


def large_grids():
    for name, klein in (("torus", False), ("klein", True)):
        yield ["from-triangulation",
               write(f"grid-{name}-32.facets",
                     facets_to_text(grid_facets(32, klein)))]


def invocations():
    for e in entries():
        yield from grid(["--example", e.name], len(e.datum.basis_forms))
    for e in entries():
        if e.datum.basis_forms:
            for depth in DEPTHS:
                for max_iter in MAX_ITERS:
                    yield ["novikov", "--example", e.name,
                           "--class=" + classes(len(e.datum.basis_forms))[3],
                           "--depth", depth, "--max-iter", max_iter]
    for path, nforms in files():
        yield ["validate", path]
        yield ["homology", path]
        if "-shift" in path or "-scale" in path:
            yield from grid([path], nforms)
    copy_example("rp2.facets")
    yield ["from-triangulation", "rp2.facets"]
    yield ["from-triangulation", "rp2.facets", "-o", "rp2-from-facets.json"]
    yield ["validate", "rp2-from-facets.json"]
    for e in entries():
        if e.facets is not None:
            write(f"{e.name}.facets", facets_to_text(e.facets))
            yield ["from-triangulation", f"{e.name}.facets"]
    for n in GRID_SIDES:
        for name, klein in (("torus", False), ("klein", True)):
            yield ["from-triangulation",
                   write(f"grid-{name}-{n}.facets",
                         facets_to_text(grid_facets(n, klein)))]
    for name, text in SMALL_FACETS:
        yield ["from-triangulation", write(f"{name}.facets", text)]
    yield ["from-triangulation", write(
        "freudenthal-3.facets", facets_to_text(freudenthal_torus_facets(3)))]
    yield ["from-triangulation", "grid-torus-4.facets", "-o", "grid-torus-4.json"]
    yield ["validate", "grid-torus-4.json"]
    yield ["from-triangulation", write("bad.facets", "vertices 3\n0 0 1\n")]
    yield ["from-triangulation", "missing.facets"]
    yield ["example", "list"]
    for e in entries():
        yield ["example", "show", e.name]
        yield ["example", "run", e.name]
    yield ["example", "run"]
    yield ["example", "show"]
    yield ["example", "show", "nope"]
    yield ["homology"]
    yield ["homology", "--example", "torus", "--depth", "0"]
    yield from twisted_tori()
    path = copy_example("torsion-block.json")
    yield ["validate", path]
    yield from grid([path], 1)
    yield from error_inputs()
    yield from budget_grid()
    yield from north_star()
    yield from long_inverses()
    yield from flipped_torus()
    yield from failed_checks()
    yield from hidden_twists()
    yield from bad_signs()
    yield from large_grids()


def run():
    count = 0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in invocations():
                line = json.dumps(call(argv), sort_keys=True) + "\n"
                sys.stdout.write(line)
                digest.update(line.encode())
                count += 1
        finally:
            os.chdir(cwd)
    print(f"{count} invocations, sha256 {digest.hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
