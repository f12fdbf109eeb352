"""Built-in example spaces with pinned flow data and expected invariants.

Each entry is a hand-checked Morse datum (or triangulation) together with
the homology / cohomology / Novikov numbers it must reproduce.  These are
the regression oracles for the whole package: the acceptance suite and the
CLI's ``example run`` command both replay them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import homology
from .cw import FacetList, RegularCW, from_simplicial, cw_to_morse
from .errors import InvalidComplex, UnknownExample
from .invariants import novikov_numbers
from .morse import (
    MAX_DIMENSION,
    CriticalPoint,
    DeckGroup,
    FlowLine,
    LocalSystem,
    MorseDatum,
    build_cochain,
    build_complex,
)

F = Fraction


@dataclass(frozen=True)
class Expectation:
    """One checkable claim about an entry under one coefficient system."""

    provenance: str
    target: str                  # "homology" | "cohomology" | "novikov"
    flavor: str                  # "trivial" | "unit-rep" | "exp" | "nov"
    class_vector: tuple = ()
    betti: tuple = ()
    torsion: dict = field(default_factory=dict)   # degree -> invariant factors
    q: tuple | None = None       # novikov only


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    datum: MorseDatum
    expectations: tuple
    cw: RegularCW | None = None
    facets: FacetList | None = None


# --- the entries ----------------------------------------------------------

def _circle_std() -> CatalogEntry:
    datum = MorseDatum(
        name="circle-std",
        dimension=1,
        basis_forms=("dtheta",),
        points=(CriticalPoint("p", 0), CriticalPoint("q", 1)),
        flows=(
            FlowLine("q", "p", +1, periods=(F(-1, 2),), unit_tag=+1),
            FlowLine("q", "p", -1, periods=(F(1, 2),), unit_tag=-1),
        ),
    )
    ex = (
        Expectation("circle height function, untwisted", "homology",
                    "trivial", betti=(1, 1)),
        Expectation("circle sign representation: orientation double cover",
                    "homology", "unit-rep", betti=(0, 0), torsion={0: (2,)}),
        Expectation("circle with an exact exponential twist", "homology",
                    "exp", class_vector=(F(0),), betti=(1, 1)),
        Expectation("circle with the angular-form exponential twist",
                    "homology", "exp", class_vector=(F(1),), betti=(0, 0)),
        Expectation("circle Novikov numbers, zero class", "novikov",
                    "nov", class_vector=(F(0),), betti=(1, 1), q=(0, 0)),
        Expectation("circle Novikov numbers, angular class", "novikov",
                    "nov", class_vector=(F(1),), betti=(0, 0), q=(0, 0)),
    )
    return CatalogEntry(
        name="circle-std",
        description="Circle with one maximum and one minimum; the two flow "
                    "lines carry opposite half-turn periods and opposite "
                    "orientation tags.",
        datum=datum, expectations=ex)


def _circle_regular() -> CatalogEntry:
    # Two-vertex, two-edge structure: regular, unlike the one-cell circle.
    cw = RegularCW(
        name="circle-regular",
        dimension=1,
        cells=(("p1", "p2"), ("q1", "q2")),
        incidences=(
            FlowLine("q1", "p2", +1, periods=(F(1, 4),), unit_tag=+1),
            FlowLine("q1", "p1", -1, periods=(F(-1, 4),), unit_tag=+1),
            FlowLine("q2", "p2", +1, periods=(F(-1, 4),), unit_tag=+1),
            FlowLine("q2", "p1", -1, periods=(F(1, 4),), unit_tag=+1),
        ),
        basis_forms=("dtheta",),
    )
    datum = cw_to_morse(cw)
    ex = (
        Expectation("two-cell circle, untwisted", "homology", "trivial",
                    betti=(1, 1)),
        Expectation("two-cell circle with the angular exponential twist",
                    "homology", "exp", class_vector=(F(1),), betti=(0, 0)),
    )
    return CatalogEntry(
        name="circle-regular",
        description="Circle as a regular structure: two vertices, two edges; "
                    "also available as a CW complex for the Morse/CW "
                    "agreement checks.",
        datum=datum, expectations=ex, cw=cw)


def _rp2_flows(with_deck=False):
    return (
        FlowLine("r", "q", +1, periods=(F(0),), unit_tag=+1,
                 deck_tag="e" if with_deck else None),
        FlowLine("r", "q", +1, periods=(F(0),), unit_tag=-1,
                 deck_tag="s" if with_deck else None),
        FlowLine("q", "p", +1, periods=(F(0),), unit_tag=+1,
                 deck_tag="s" if with_deck else None),
        FlowLine("q", "p", -1, periods=(F(0),), unit_tag=-1,
                 deck_tag="e" if with_deck else None),
    )


def _rp2() -> CatalogEntry:
    datum = MorseDatum(
        name="rp2",
        dimension=2,
        basis_forms=("eta",),
        points=(CriticalPoint("p", 0), CriticalPoint("q", 1),
                CriticalPoint("r", 2)),
        flows=_rp2_flows(),
    )
    ex = (
        Expectation("projective plane, untwisted", "homology", "trivial",
                    betti=(1, 0, 0), torsion={1: (2,)}),
        Expectation("projective plane, orientation sign system", "homology",
                    "unit-rep", betti=(0, 0, 1), torsion={0: (2,)}),
        Expectation("projective plane, exponential twist (exact class)",
                    "homology", "exp", class_vector=(F(1),), betti=(1, 0, 0)),
    )
    return CatalogEntry(
        name="rp2",
        description="Projective plane with three critical points; the "
                    "orientation sign system flips one line per degree.",
        datum=datum, expectations=ex)


def _rp2_lift() -> CatalogEntry:
    deck = DeckGroup(
        elements=("e", "s"),
        table={("e", "e"): "e", ("e", "s"): "s",
               ("s", "e"): "s", ("s", "s"): "e"})
    datum = MorseDatum(
        name="rp2-lift",
        dimension=2,
        basis_forms=("eta",),
        points=(CriticalPoint("p", 0), CriticalPoint("q", 1),
                CriticalPoint("r", 2)),
        flows=_rp2_flows(with_deck=True),
        deck_group=deck,
    )
    ex = (
        Expectation("projective plane, untwisted (lift input sanity)",
                    "homology", "trivial", betti=(1, 0, 0),
                    torsion={1: (2,)}),
    )
    return CatalogEntry(
        name="rp2-lift",
        description="Projective plane with order-2 deck tags; lifting gives "
                    "the sphere with doubled critical points.",
        datum=datum, expectations=ex)


def _rpn(n: int) -> CatalogEntry:
    points = tuple(CriticalPoint(f"p{k}", k) for k in range(n + 1))
    flows = []
    for k in range(1, n + 1):
        s2 = +1 if k % 2 == 0 else -1  # signs equal at even k, opposite at odd
        flows.append(FlowLine(f"p{k}", f"p{k-1}", +1, periods=(F(0),),
                              unit_tag=+1))
        flows.append(FlowLine(f"p{k}", f"p{k-1}", s2, periods=(F(0),),
                              unit_tag=-1))
    # untwisted: d_k = 2 for even k, 0 for odd; sign system: the opposite
    betti_triv = tuple(1 if k == 0 or (k == n and n % 2 == 1) else 0
                       for k in range(n + 1))
    torsion_triv = {k: (2,) for k in range(1, n) if k % 2 == 1}
    betti_sign = tuple(1 if k == n and n % 2 == 0 else 0 for k in range(n + 1))
    torsion_sign = {k: (2,) for k in range(0, n) if k % 2 == 0}
    ex = (
        Expectation("real projective space, untwisted", "homology", "trivial",
                    betti=betti_triv, torsion=torsion_triv),
        Expectation("real projective space, orientation sign system",
                    "homology", "unit-rep", betti=betti_sign,
                    torsion=torsion_sign),
    )
    datum = MorseDatum(
        name=f"rpn({n})",
        dimension=n,
        basis_forms=("eta",),
        points=points,
        flows=tuple(flows),
    )
    return CatalogEntry(
        name=f"rpn({n})",
        description=f"Real projective {n}-space: one critical point per "
                    "degree, two flow lines per adjacent pair with signs "
                    "equal at even degree and opposite at odd degree.",
        datum=datum, expectations=ex)


def _torus() -> CatalogEntry:
    datum = MorseDatum(
        name="torus",
        dimension=2,
        basis_forms=("dx", "dy"),
        points=(CriticalPoint("p", 0), CriticalPoint("q", 1),
                CriticalPoint("r", 1), CriticalPoint("s", 2)),
        flows=(
            FlowLine("q", "p", +1, periods=(F(-1, 2), F(0))),
            FlowLine("q", "p", -1, periods=(F(1, 2), F(0))),
            FlowLine("r", "p", +1, periods=(F(0), F(-1, 2))),
            FlowLine("r", "p", -1, periods=(F(0), F(1, 2))),
            FlowLine("s", "r", +1, periods=(F(-1, 2), F(0))),
            FlowLine("s", "r", -1, periods=(F(1, 2), F(0))),
            FlowLine("s", "q", -1, periods=(F(0), F(-1, 2))),
            FlowLine("s", "q", +1, periods=(F(0), F(1, 2))),
        ),
    )
    ex = (
        Expectation("torus, untwisted", "homology", "trivial",
                    betti=(1, 2, 1)),
        Expectation("torus, exponential twist along the first loop",
                    "homology", "exp", class_vector=(F(1), F(0)),
                    betti=(0, 0, 0)),
        Expectation("torus Novikov numbers, zero class", "novikov", "nov",
                    class_vector=(F(0), F(0)), betti=(1, 2, 1), q=(0, 0, 0)),
        Expectation("torus Novikov numbers, first-loop class", "novikov",
                    "nov", class_vector=(F(1), F(0)), betti=(0, 0, 0),
                    q=(0, 0, 0)),
    )
    return CatalogEntry(
        name="torus",
        description="Torus with the standard four critical points; the two "
                    "index-1 points carry the two loop directions.",
        datum=datum, expectations=ex)


def _klein() -> CatalogEntry:
    datum = MorseDatum(
        name="klein",
        dimension=2,
        basis_forms=("dy",),
        points=(CriticalPoint("p", 0), CriticalPoint("q", 1),
                CriticalPoint("r", 1), CriticalPoint("s", 2)),
        flows=(
            FlowLine("q", "p", +1, periods=(F(0),)),
            FlowLine("q", "p", -1, periods=(F(0),)),
            FlowLine("r", "p", +1, periods=(F(-1, 2),)),
            FlowLine("r", "p", -1, periods=(F(1, 2),)),
            FlowLine("s", "r", +1, periods=(F(0),)),
            FlowLine("s", "r", -1, periods=(F(0),)),
            FlowLine("s", "q", -1, periods=(F(-1, 2),)),
            FlowLine("s", "q", -1, periods=(F(1, 2),)),
        ),
    )
    ex = (
        Expectation("Klein bottle, untwisted", "homology", "trivial",
                    betti=(1, 1, 0), torsion={1: (2,)}),
        Expectation("Klein bottle Novikov numbers, zero class", "novikov",
                    "nov", class_vector=(F(0),), betti=(1, 1, 0),
                    q=(0, 1, 0)),
        Expectation("Klein bottle Novikov numbers, nonzero class", "novikov",
                    "nov", class_vector=(F(1),), betti=(0, 0, 0),
                    q=(0, 0, 0)),
    )
    return CatalogEntry(
        name="klein",
        description="Klein bottle; the orientation-reversing loop makes the "
                    "top boundary land on 2q for the zero class.",
        datum=datum, expectations=ex)


def _genus2() -> CatalogEntry:
    # One minimum, four saddles for the four loop classes, one maximum.
    # Boundary of the 2-cell follows the octagon relator word
    # a1 a2 a1^-1 a2^-1 a3 a4 a3^-1 a4^-1 via its free-derivative columns.
    e = [tuple(F(1) if j == i else F(0) for j in range(4)) for i in range(4)]
    z = (F(0),) * 4
    datum = MorseDatum(
        name="genus2",
        dimension=2,
        basis_forms=("eta1", "eta2", "eta3", "eta4"),
        points=(CriticalPoint("p0", 0),
                CriticalPoint("a1", 1), CriticalPoint("a2", 1),
                CriticalPoint("a3", 1), CriticalPoint("a4", 1),
                CriticalPoint("P2", 2)),
        flows=(
            # saddles down to the minimum: entries 1 - t^{c_i}
            FlowLine("a1", "p0", +1, periods=z),
            FlowLine("a1", "p0", -1, periods=e[0]),
            FlowLine("a2", "p0", +1, periods=z),
            FlowLine("a2", "p0", -1, periods=e[1]),
            FlowLine("a3", "p0", +1, periods=z),
            FlowLine("a3", "p0", -1, periods=e[2]),
            FlowLine("a4", "p0", +1, periods=z),
            FlowLine("a4", "p0", -1, periods=e[3]),
            # maximum down to the saddles: rows
            # (1 - t^{c2}, t^{c1} - 1, 1 - t^{c4}, t^{c3} - 1)
            FlowLine("P2", "a1", +1, periods=z),
            FlowLine("P2", "a1", -1, periods=e[1]),
            FlowLine("P2", "a2", +1, periods=e[0]),
            FlowLine("P2", "a2", -1, periods=z),
            FlowLine("P2", "a3", +1, periods=z),
            FlowLine("P2", "a3", -1, periods=e[3]),
            FlowLine("P2", "a4", +1, periods=e[2]),
            FlowLine("P2", "a4", -1, periods=z),
        ),
    )
    ex = (
        Expectation("genus-2 surface, untwisted", "homology", "trivial",
                    betti=(1, 4, 1)),
        Expectation("genus-2 surface, exponential twist on the first loop",
                    "homology", "exp", class_vector=(F(1), F(0), F(0), F(0)),
                    betti=(0, 2, 0)),
        Expectation("genus-2 surface cochain, zero class", "cohomology",
                    "exp", class_vector=(F(0),) * 4, betti=(1, 4, 1)),
        Expectation("genus-2 surface cochain, first-loop class",
                    "cohomology", "exp", class_vector=(F(1), F(0), F(0), F(0)),
                    betti=(0, 2, 0)),
        Expectation("genus-2 Novikov numbers, zero class", "novikov", "nov",
                    class_vector=(F(0),) * 4, betti=(1, 4, 1), q=(0, 0, 0)),
        Expectation("genus-2 Novikov numbers, first-loop class", "novikov",
                    "nov", class_vector=(F(1), F(0), F(0), F(0)),
                    betti=(0, 2, 0), q=(0, 0, 0)),
    )
    return CatalogEntry(
        name="genus2",
        description="Genus-2 surface: minimum, four saddles, maximum; the "
                    "2-cell attaches along the octagon commutator word.",
        datum=datum, expectations=ex)


RP2_SIX_VERTEX_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
)


def _rp2_triangulated() -> CatalogEntry:
    facets = FacetList(n_vertices=6, facets=RP2_SIX_VERTEX_FACETS)
    cw = from_simplicial(facets)
    datum = cw_to_morse(cw)
    ex = (
        Expectation("six-vertex projective plane triangulation, untwisted",
                    "homology", "trivial", betti=(1, 0, 0),
                    torsion={1: (2,)}),
    )
    return CatalogEntry(
        name="rp2-triangulated",
        description="The minimal six-vertex triangulation of the projective "
                    "plane, fed through the simplicial-to-CW-to-Morse "
                    "pipeline.",
        datum=datum, expectations=ex, cw=cw, facets=facets)


_BUILDERS = {
    "circle-std": _circle_std,
    "circle-regular": _circle_regular,
    "rp2": _rp2,
    "rp2-lift": _rp2_lift,
    "torus": _torus,
    "klein": _klein,
    "genus2": _genus2,
    "rp2-triangulated": _rp2_triangulated,
}

_RPN_RE = re.compile(r"^rpn\((\d+)\)$")


def example_names():
    return tuple(sorted(_BUILDERS)) + ("rpn(N)",)


def get_example(name: str) -> CatalogEntry:
    m = _RPN_RE.match(name)
    if m:
        digits = m.group(1).lstrip("0") or "0"
        # lengths first: int() refuses a string of thousands of digits
        if (len(digits) > len(str(MAX_DIMENSION))
                or int(digits) > MAX_DIMENSION):
            raise UnknownExample(f"rpn needs n <= {MAX_DIMENSION}, got {digits}")
        n = int(digits)
        if n < 1:
            raise UnknownExample(f"rpn needs n >= 1, got {n}")
        return _rpn(n)
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise UnknownExample(
            f"unknown example {name!r}; known: {', '.join(example_names())}"
        ) from None


@dataclass(frozen=True)
class CheckResult:
    entry: str
    provenance: str
    ok: bool
    detail: str = ""


def check_expectation(entry: CatalogEntry, exp: Expectation,
                      depth=16, max_iter=10000) -> CheckResult:
    sys = LocalSystem.named(exp.flavor, exp.class_vector)
    d = entry.datum
    if exp.target == "novikov":
        nn = novikov_numbers(d, exp.class_vector, depth=depth,
                             max_iter=max_iter)
        ok = nn.complete and nn.b == exp.betti and nn.q == exp.q
        detail = "" if ok else f"got b={nn.b} q={nn.q} status={nn.status}"
        return CheckResult(entry.name, exp.provenance, ok, detail)
    if exp.target == "cohomology":
        cpx = build_cochain(d, sys)
    else:
        cpx = build_complex(d, sys)
    try:
        summary = homology(cpx, depth=depth, max_iter=max_iter)
    except InvalidComplex as exc:
        return CheckResult(entry.name, exp.provenance, False, str(exc))
    ok = summary.betti == exp.betti
    for k, facs in exp.torsion.items():
        ok = ok and summary.torsion(k) == tuple(facs)
    for k, s in enumerate(summary.degrees):
        if k not in exp.torsion:
            ok = ok and s.torsion == ()
    detail = "" if ok else (
        f"got betti={summary.betti} torsion="
        f"{ {k: s.torsion for k, s in enumerate(summary.degrees) if s.torsion} }")
    return CheckResult(entry.name, exp.provenance, ok, detail)


def run_all(depth=16, max_iter=10000, names=None):
    """Replay every pinned expectation; returns a list of CheckResults."""
    results = []
    for name in (names or sorted(_BUILDERS) + ["rpn(3)", "rpn(4)"]):
        entry = get_example(name)
        for exp in entry.expectations:
            results.append(check_expectation(entry, exp, depth=depth,
                                             max_iter=max_iter))
    return results
