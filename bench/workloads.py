"""Seeded workload generators with closed-form expected answers.

Every generator here is a pure function of its seed: the same seed gives the
same instance files, the same solves and the same expected outputs.  The
expected stdout of each solve is derived from the mathematics of the
instance (cell counts, Betti numbers, torsion, Euler numbers), never from
running ``morsetwist``; the rendering follows the output grammar documented
in ``docs/formats.md`` and ``docs/walkthrough.md``.

A *solve* is one ``morsetwist`` command line.  A *pass* is the workload's
solve list, in its seeded order; a benchmark run repeats whole passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction

# Size ladders.  The seed draws labels, orders, classes, holonomy tags,
# potentials and scales; the sizes form a fixed ladder so that the cost of
# a pass does not swing with the seed.
TRI_INT_SIDES = (6, 7, 8, 9, 10)
TRI_TWISTED_SIDES = ((4, 1), (5, 0))  # (side, nonzero classes)
MORSE_GENERA = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
MORSE_RPN = (1, 2, 3, 5, 8, 13, 21, 40)


@dataclass(frozen=True)
class Instance:
    """One input file: its name, what it is, and its text."""

    name: str
    family: str
    size: int
    cells: tuple      # critical points / cells per degree
    text: str


@dataclass(frozen=True)
class Solve:
    """One CLI call: argv (the instance path is appended when ``instance``
    is set) and the exact stdout and exit code it must produce."""

    instance: str | None
    argv: tuple
    stdout: str
    code: int = 0


@dataclass(frozen=True)
class Workload:
    instances: tuple
    solves: tuple     # one pass, in order


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


# --- rendering of closed-form answers ------------------------------------

def group_text(label: str, betti: int, torsion=()) -> str:
    """``Z^2 + Z/2``-style module text, ``0`` for the zero module."""
    parts = []
    if betti == 1:
        parts.append(label)
    elif betti > 1:
        parts.append(f"{label}^{betti}")
    parts.extend(f"{label}/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def homology_text(symbol: str, label: str, betti, torsion=None) -> str:
    torsion = torsion or {}
    return "".join(f"{symbol}{k} = {group_text(label, b, torsion.get(k, ()))}\n"
                   for k, b in enumerate(betti))


def class_text(cls) -> str:
    return ",".join(str(c) for c in cls)


def novikov_text(cls, b, q, zeros=None) -> str:
    lines = [f"class {class_text(cls)}"]
    lines += [f"degree {k}: b={b[k]} q={q[k]}" for k in range(len(b))]
    if zeros is not None:
        slack = [zeros[k] - b[k] - q[k] - (q[k - 1] if k else 0)
                 for k in range(len(b))]
        verdict = "pass" if all(s >= 0 for s in slack) else "FAIL"
        lines.append(f"zero-count bounds: slack {class_text(slack)} -> {verdict}")
    return "".join(line + "\n" for line in lines)


def euler_text(chi: int) -> str:
    return (f"euler (cells) = {chi}\neuler (homology) = {chi}\n"
            f"agree: true\n")


def _nonzero_class(rng: random.Random, length: int, support: int) -> tuple:
    """A class with ``support`` nonzero small rational entries."""
    cls = [F(0)] * length
    for i in rng.sample(range(length), support):
        cls[i] = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    return tuple(cls)


# --- tri-int: integer triangulations --------------------------------------

def grid_facets(n: int, klein: bool):
    """Facets of the n x n grid triangulation of the torus (or of the Klein
    bottle, gluing the top row to the bottom row through i -> -i)."""
    def vertex(i, j):
        if j == n:
            i, j = (-i if klein else i), 0
        return (i % n) * n + j
    facets = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            facets += [(a, b, d), (a, c, d)]
    return facets


def tri_int(seed: int, sides=TRI_INT_SIDES) -> Workload:
    """``from-triangulation`` on seeded relabelings of grid surfaces."""
    rng = _rng("tri-int", seed)
    instances, solves = [], []
    for family, klein in (("torus", False), ("klein", True)):
        for n in sides:
            perm = list(range(n * n))
            rng.shuffle(perm)
            facets = [rng.sample([perm[v] for v in f], 3)
                      for f in grid_facets(n, klein)]
            rng.shuffle(facets)
            text = f"vertices {n * n}\n" + "".join(
                " ".join(map(str, f)) + "\n" for f in facets)
            name = f"{family}-{n}.facets"
            cells = (n * n, 3 * n * n, 2 * n * n)
            header = f"cells {','.join(map(str, cells))}  euler 0\n"
            if klein:
                answer = homology_text("H_", "Z", (1, 1, 0), {1: (2,)})
            else:
                answer = homology_text("H_", "Z", (1, 2, 1))
            instances.append(Instance(name, family, n, cells, text))
            solves.append(Solve(name, ("from-triangulation",), header + answer))
    rng.shuffle(solves)
    return Workload(tuple(instances), tuple(solves))


# --- tri-twisted: the twisted triangulated torus --------------------------

def twisted_torus(n: int, rng: random.Random) -> dict:
    """CW JSON of the n x n torus whose incidences carry deck translations.

    A simplex of the plane triangulation is canonical when its smallest
    vertex lies in [0, n)^2.  Each face of a canonical simplex is g*n plus
    a canonical face, with g in Z^2; g becomes the incidence's periods.
    The plane boundary squares to zero, so the twisted one does for every
    class.
    """
    tops = []
    for i in range(n):
        for j in range(n):
            tops.append(((i, j), (i + 1, j), (i + 1, j + 1)))
            tops.append(((i, j), (i, j + 1), (i + 1, j + 1)))

    def canonical(simplex):
        a, b = min(simplex)
        g = (a // n, b // n)
        return tuple((x - g[0] * n, y - g[1] * n) for x, y in simplex), g

    layers = [set(), set(), set(tops)]
    records = []
    for k in (2, 1):
        for simplex in sorted(layers[k]):
            for drop in range(k + 1):
                face, g = canonical(simplex[:drop] + simplex[drop + 1:])
                layers[k - 1].add(face)
                records.append((simplex, face, (-1) ** drop, g))
    labels = {}
    ordered = []
    for k, prefix in enumerate("vef"):
        layer = sorted(layers[k])
        ids = list(range(len(layer)))
        rng.shuffle(ids)
        for s, i in zip(layer, ids):
            labels[s] = f"{prefix}{i}"
        rng.shuffle(layer)
        ordered.append([labels[s] for s in layer])
    rng.shuffle(records)
    return {
        "name": f"twisted-torus-{n}",
        "dimension": 2,
        "basis_forms": ["dx", "dy"],
        "cells": ordered,
        "incidences": [
            {"upper": labels[s], "lower": labels[f], "incidence": sign,
             "periods": [str(g[0]), str(g[1])]}
            for s, f, sign, g in records],
    }


def tri_twisted(seed: int, sides=TRI_TWISTED_SIDES) -> Workload:
    """Exponential homology/cohomology and Novikov numbers of the twisted
    torus under the zero class and seeded nonzero rational classes."""
    rng = _rng("tri-twisted", seed)
    instances, solves = [], []
    for copy, (n, nonzero) in enumerate(sides):
        name = f"twisted-torus-{n}-{copy}.json"
        cw = twisted_torus(n, rng)
        instances.append(Instance(name, "twisted-torus", n,
                                  (n * n, 3 * n * n, 2 * n * n),
                                  json.dumps(cw) + "\n"))
        classes = [(F(0), F(0))] + [_nonzero_class(rng, 2, rng.choice((1, 2)))
                                    for _ in range(nonzero)]
        for cls in classes:
            zero = not any(cls)
            betti = (1, 2, 1) if zero else (0, 0, 0)
            arg = class_text(cls)
            solves.append(Solve(name, ("homology", "--system", "exp",
                                       f"--class={arg}"),
                                homology_text("H_", "R", betti)))
            solves.append(Solve(name, ("cohomology", "--system", "exp",
                                       f"--class={arg}"),
                                homology_text("H^", "R", betti)))
            solves.append(Solve(name, ("novikov", f"--class={arg}"),
                                novikov_text(cls, betti, (0, 0, 0))))
    rng.shuffle(solves)
    return Workload(tuple(instances), tuple(solves))


# --- morse-cli: many small Morse data -------------------------------------

def genus_flows(g: int, chi: tuple):
    """Flow lines of the genus-g surface: one minimum, 2g saddles, one
    maximum attached along the product of commutators.  ``chi[i]`` is the
    +-1 unit tag carried with the period e_i; period-0 flows carry +1."""
    def e(i):
        return tuple(F(int(j == i)) for j in range(2 * g))
    z = (F(0),) * (2 * g)
    flows = []
    for i in range(2 * g):
        flows += [(f"a{i + 1}", "p0", 1, z, 1), (f"a{i + 1}", "p0", -1, e(i), chi[i])]
    for i in range(0, 2 * g, 2):
        flows += [("P2", f"a{i + 1}", 1, z, 1),
                  ("P2", f"a{i + 1}", -1, e(i + 1), chi[i + 1]),
                  ("P2", f"a{i + 2}", 1, e(i), chi[i]),
                  ("P2", f"a{i + 2}", -1, z, 1)]
    points = [("p0", 0)] + [(f"a{i + 1}", 1) for i in range(2 * g)] + [("P2", 2)]
    return points, flows


def rpn_flows(n: int):
    """Flow lines of RP^n: two per adjacent pair, tags +1 and -1, signs
    equal at even degree and opposite at odd degree."""
    points = [(f"p{k}", k) for k in range(n + 1)]
    flows = []
    for k in range(1, n + 1):
        flows += [(f"p{k}", f"p{k - 1}", 1, (F(0),), 1),
                  (f"p{k}", f"p{k - 1}", 1 if k % 2 == 0 else -1, (F(0),), -1)]
    return points, flows


def potential_shift(points, flows, rng):
    """Shift periods by a seeded rational potential: a flow q -> p gains
    h(q) - h(p), which changes no loop period."""
    width = len(flows[0][3])
    h = {pid: tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                    for _ in range(width)) for pid, _ in points}
    return [(frm, to, sign, tuple(p + a - b for p, a, b in
                                  zip(per, h[frm], h[to])), tag)
            for frm, to, sign, per, tag in flows]


def rescale(flows, s: Fraction):
    return [(frm, to, sign, tuple(p * s for p in per), tag)
            for frm, to, sign, per, tag in flows]


def datum_json(name, dim, forms, points, flows, rng) -> str:
    points = list(points)
    flows = list(flows)
    rng.shuffle(points)
    rng.shuffle(flows)
    return json.dumps({
        "name": name,
        "dimension": dim,
        "basis_forms": list(forms),
        "points": [{"id": pid, "index": k} for pid, k in points],
        "flows": [{"from": frm, "to": to, "sign": sign,
                   "periods": [str(p) for p in per], "unit_tag": tag}
                  for frm, to, sign, per, tag in flows],
    }) + "\n"


def genus_solves(name, g, cls, chi):
    """Closed forms for the genus-g surface.  Untwisted: (Z, Z^2g, Z).  A
    nontrivial +-1 character: H_0 = Z/2, H_1 = Z^(2g-2) + Z/2, H_2 = 0,
    since every boundary entry is 0 or +-2.  A nonzero class: ranks
    (0, 2g-2, 0), and every nonzero entry 1 - t^c is a Novikov unit, so
    q = 0."""
    zero = not any(cls)
    counts = (1, 2 * g, 1)
    chi_cells = 2 - 2 * g
    twisted_betti = (1, 2 * g, 1) if zero else (0, 2 * g - 2, 0)
    if all(c == 1 for c in chi):
        unit = homology_text("H_", "Z", counts)
    else:
        unit = homology_text("H_", "Z", (0, 2 * g - 2, 0), {0: (2,), 1: (2,)})
    arg = class_text(cls)
    verdicts = ["H_SPACE: clear"]
    if not zero and g >= 2:
        verdicts = [
            f"H_SPACE: TRIGGERED (system EXP class {arg} is not simple and "
            f"homology is nonzero in degree(s) [1])",
            f"PARALLEL_FORM: TRIGGERED (twisted cochain cohomology nonzero in "
            f"degree(s) [1] for class {arg}; Euler number {chi_cells} != 0 "
            f"already forces the verdict for every nonzero class)"]
    elif not zero:
        verdicts.append("PARALLEL_FORM: clear")
    verdicts.append(f"rank of class: {0 if zero else 1}")
    return [
        Solve(name, ("homology",), homology_text("H_", "Z", counts)),
        Solve(name, ("homology", "--system", "unit-rep"), unit),
        Solve(name, ("cohomology", "--system", "exp", f"--class={arg}"),
              homology_text("H^", "R", twisted_betti)),
        Solve(name, ("novikov", f"--class={arg}", "--zeros", class_text(counts)),
              novikov_text(cls, twisted_betti, (0, 0, 0), counts)),
        Solve(name, ("obstructions", "--system", "exp", f"--class={arg}"),
              "".join(v + "\n" for v in verdicts)),
        Solve(name, ("euler",), euler_text(chi_cells)),
    ]


def rpn_solves(name, n, cls):
    """Closed forms for RP^n.  The boundary d_k is 1 + (-1)^k untwisted and
    1 - (-1)^k under the sign system; periods are 0 up to a potential, so
    every class gives the rational answer, and the entries 2 are Novikov
    non-units (one torsion generator each)."""
    top = range(n + 1)
    betti_int = tuple(1 if k == 0 or (k == n and n % 2) else 0 for k in top)
    torsion_int = {k: (2,) for k in top if k % 2 == 1 and k < n}
    betti_sign = tuple(1 if k == n and n % 2 == 0 else 0 for k in top)
    torsion_sign = {k: (2,) for k in top if k % 2 == 0 and k < n}
    q = tuple(len(torsion_int.get(k, ())) for k in top)
    ones = (1,) * (n + 1)
    chi = 1 if n % 2 == 0 else 0
    arg = class_text(cls)
    if n % 2 == 0:
        verdicts = [f"H_SPACE: TRIGGERED (system UNIT_REP is not simple and "
                    f"homology is nonzero in degree(s) [{n}])"]
    else:
        verdicts = ["H_SPACE: clear"]
    if any(cls):
        degrees = ", ".join(str(k) for k in top if betti_int[k])
        note = ("; Euler number 1 != 0 already forces the verdict for every "
                "nonzero class") if chi else ""
        verdicts.append(f"PARALLEL_FORM: TRIGGERED (twisted cochain "
                        f"cohomology nonzero in degree(s) [{degrees}] for "
                        f"class {arg}{note})")
    verdicts.append("rank of class: 0")
    return [
        Solve(name, ("homology",), homology_text("H_", "Z", betti_int, torsion_int)),
        Solve(name, ("homology", "--system", "unit-rep"),
              homology_text("H_", "Z", betti_sign, torsion_sign)),
        Solve(name, ("cohomology", "--system", "exp", f"--class={arg}"),
              homology_text("H^", "R", betti_int)),
        Solve(name, ("novikov", f"--class={arg}", "--zeros", class_text(ones)),
              novikov_text(cls, betti_int, q, ones)),
        Solve(name, ("obstructions", "--system", "unit-rep", f"--class={arg}"),
              "".join(v + "\n" for v in verdicts)),
        Solve(name, ("euler",), euler_text(chi)),
    ]


def morse_cli(seed: int, genera=MORSE_GENERA, rpn=MORSE_RPN) -> Workload:
    """Six commands on genus-g surfaces and RP^n, each as given, with a
    potential shift and with a shift plus rescaling; one catalog replay."""
    rng = _rng("morse-cli", seed)
    instances, solves = [], []

    def add(family, size, points, flows, dim, forms, counts, make_solves):
        variants = (("plain", flows),
                    ("shift", potential_shift(points, flows, rng)))
        scale = F(rng.choice((1, 2, 3, 5)), rng.choice((2, 3, 4)))
        variants += (("scale", rescale(variants[1][1], scale)),)
        for tag, fl in variants:
            name = f"{family}-{size}-{tag}.json"
            text = datum_json(f"{family}-{size}-{tag}", dim, forms, points, fl, rng)
            instances.append(Instance(name, family, size, counts, text))
            solves.extend(make_solves(name))

    for idx, g in enumerate(genera):
        chi = tuple(rng.choice((1, -1)) for _ in range(2 * g))
        # half the entries nonzero: the cost of a solve grows with the
        # class's support, so a seeded support would make the pass cost
        # swing with the seed
        cls = (F(0),) * (2 * g) if idx % 3 == 0 else _nonzero_class(rng, 2 * g, g)
        points, flows = genus_flows(g, chi)
        forms = [f"eta{i + 1}" for i in range(2 * g)]
        add("genus", g, points, flows, 2, forms, (1, 2 * g, 1),
            lambda name, g=g, cls=cls, chi=chi: genus_solves(name, g, cls, chi))
    for idx, n in enumerate(rpn):
        cls = (F(0),) if idx % 2 else _nonzero_class(rng, 1, 1)
        points, flows = rpn_flows(n)
        add("rpn", n, points, flows, n, ["eta"], (1,) * (n + 1),
            lambda name, n=n, cls=cls: rpn_solves(name, n, cls))
    rng.shuffle(solves)
    solves.append(Solve(None, ("example", "run"), "", 0))
    return Workload(tuple(instances), tuple(solves))


WORKLOADS = {"tri-int": tri_int, "tri-twisted": tri_twisted,
             "morse-cli": morse_cli}


def stdout_ok(solve: Solve, out: str) -> bool:
    """Exact match, except ``example run``: every line a catalog pass."""
    if solve.argv == ("example", "run"):
        lines = out.splitlines()
        return bool(lines) and all(line.startswith("pass [") for line in lines)
    return out == solve.stdout
