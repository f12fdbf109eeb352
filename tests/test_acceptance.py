"""Acceptance gate: the ten headline behaviors, one printed verdict each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also asserts, so a plain pytest run is still a gate.
"""

import random
from fractions import Fraction as F

from conftest import (
    agrees_with,
    from_rows,
    hspace_verdict,
    nov_unit,
    rank_int_bruteforce,
)
from spaces import twisted_torus_cw
from morsetwist.catalog import get_example, run_all
from morsetwist.chains import euler_cells, euler_homology, homology, validate_complex
from morsetwist.cw import FacetList, cw_to_morse, from_simplicial
from morsetwist.invariants import check_inequalities, novikov_numbers
from morsetwist.linalg import _unit_inverse, snf_int
from morsetwist.morse import (
    LocalSystem,
    build_cochain,
    build_complex,
    gauge_transform,
    lift_cover,
    potential_shift,
    rescale_datum,
)
from morsetwist.rings import NovElem


def _verdict(num, label, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def _summaries_equal(a, b):
    return (a.betti == b.betti
            and [d.torsion for d in a.degrees] == [d.torsion for d in b.degrees])


def test_criterion_1_circle_suite():
    d = get_example("circle-std").datum
    s_sign = homology(build_complex(d, LocalSystem.unit_rep()))
    ok = s_sign.betti == (0, 0) and s_sign.torsion(0) == (2,) \
        and s_sign.torsion(1) == ()
    s_zero = homology(build_complex(d, LocalSystem.exp((F(0),))))
    ok = ok and s_zero.betti == (1, 1)
    s_one = homology(build_complex(d, LocalSystem.exp((F(1),))))
    ok = ok and s_one.betti == (0, 0)
    _verdict(1, "circle: sign rep (Z/2, 0); exp class 0 -> (1,1); "
                "class 1 -> (0,0)", ok)


def test_criterion_2_rp2_suite():
    d = get_example("rp2").datum
    s_triv = homology(build_complex(d, LocalSystem.trivial()))
    ok = s_triv.betti == (1, 0, 0) and s_triv.torsion(1) == (2,)
    s_sign = homology(build_complex(d, LocalSystem.unit_rep()))
    ok = ok and s_sign.betti == (0, 0, 1) and s_sign.torsion(0) == (2,)
    rng = random.Random(2)
    for _ in range(5):
        cls = (F(rng.randint(-6, 6), rng.randint(1, 4)),)
        s = homology(build_complex(d, LocalSystem.exp(cls)))
        ok = ok and s.betti == (1, 0, 0)
    _verdict(2, "projective plane: untwisted (Z, Z/2, 0); sign-twisted "
                "(Z/2, 0, Z); exp any class betti (1,0,0)", ok)


def test_criterion_3_lifted_cover():
    lifted = lift_cover(get_example("rp2-lift").datum)
    s = homology(build_complex(lifted, LocalSystem.trivial()))
    ok = s.betti == (1, 0, 1) and all(x.torsion == () for x in s.degrees)
    _verdict(3, "order-2 cover lift of the projective plane gives "
                "(Z, 0, Z)", ok)


def test_criterion_4_cw_morse_agreement():
    # two models of one space, a Morse datum and a regular CW complex,
    # have one homology: the circle with one minimum and one saddle and
    # as two vertices and two edges, the torus with one critical point of
    # each index but 1 and as the n x n triangulated torus
    circle = [(0,), (1,), (F(-2, 3),)]
    torus = [(0, 0), (1, 0), (1, F(1, 3)), (F(-1, 2), 2)]
    models = [(get_example("circle-std").datum,
               get_example("circle-regular").cw, circle),
              *((get_example("torus").datum, twisted_torus_cw(n), torus)
                for n in (3, 4))]
    ok = True
    for d, cw, classes in models:
        cell = cw_to_morse(cw)
        for sys_ in [LocalSystem.trivial(),
                     *(LocalSystem.named(flavor, cls) for cls in classes
                       for flavor in ("exp", "nov"))]:
            ok = ok and _summaries_equal(homology(build_complex(d, sys_)),
                                         homology(build_complex(cell, sys_)))
    _verdict(4, "circle and torus: Morse datum and CW complex agree in "
                "Betti numbers and torsion, trivially and under zero and "
                "nonzero exp/nov classes", ok)


def test_criterion_5_genus2_cochain_suite():
    d = get_example("genus2").datum
    ok = True
    s0 = homology(build_cochain(d, LocalSystem.exp((F(0),) * 4)))
    ok = ok and s0.betti == (1, 4, 1)
    rng = random.Random(5)
    classes = [tuple(F(1) if j == i else F(0) for j in range(4))
               for i in range(4)]
    while len(classes) < 54:
        cls = tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4))
        if any(c != 0 for c in cls):
            classes.append(cls)
    for cls in classes:
        C = build_complex(d, LocalSystem.exp(cls))
        s = homology(build_cochain(d, LocalSystem.exp(cls)))
        ok = ok and s.betti == (0, 2, 0)
        ok = ok and euler_cells(C) == euler_homology(s) == -2
    _verdict(5, "genus-2 cochain: class 0 -> (1,4,1); 4 basis + 50 random "
                "nonzero classes -> (0,2,0); euler -2 throughout", ok)


def test_criterion_6_hspace_obstructions():
    g2 = get_example("genus2").datum
    ok = hspace_verdict(g2, LocalSystem.exp((F(1), F(0), F(0), F(0)))).triggered
    ok = ok and hspace_verdict(get_example("rpn(4)").datum,
                               LocalSystem.unit_rep()).triggered
    ok = ok and not hspace_verdict(get_example("rpn(3)").datum,
                                   LocalSystem.unit_rep()).triggered
    ok = ok and not hspace_verdict(get_example("torus").datum,
                                   LocalSystem.exp((F(1), F(0)))).triggered
    _verdict(6, "H-space verdicts: genus-2 exp and even projective space "
                "triggered; odd projective space and twisted torus clear", ok)


def test_criterion_7_novikov_numbers():
    table = [
        ("circle-std", (F(0),), (1, 1), (0, 0)),
        ("circle-std", (F(1),), (0, 0), (0, 0)),
        ("torus", (F(0), F(0)), (1, 2, 1), (0, 0, 0)),
        ("torus", (F(1), F(0)), (0, 0, 0), (0, 0, 0)),
        ("klein", (F(0),), (1, 1, 0), (0, 1, 0)),
        ("klein", (F(1),), (0, 0, 0), (0, 0, 0)),
        ("genus2", (F(0),) * 4, (1, 4, 1), (0, 0, 0)),
        ("genus2", (F(1), F(0), F(0), F(0)), (0, 2, 0), (0, 0, 0)),
    ]
    ok = True
    for depth in (16, 2):
        for name, cls, b, q in table:
            nn = novikov_numbers(get_example(name).datum, cls, depth=depth)
            ok = ok and nn.complete and nn.b == b and nn.q == q
    _verdict(7, "Novikov numbers: circle/torus/Klein/genus-2 at zero and "
                "nonzero classes, at depth 16 and depth 2", ok)


def test_criterion_8_zero_count_bound():
    nn = novikov_numbers(get_example("genus2").datum,
                         (F(1), F(0), F(0), F(0)))
    rep = check_inequalities((1, 4, 1), nn)
    bound1 = nn.b[1] + nn.q[1] + nn.q[0]
    ok = bound1 == 2 and rep.slack == (1, 2, 1) and rep.passed
    _verdict(8, "genus-2 zero-count bound: index-1 bound 2 met with "
                "slack 2", ok)


def test_criterion_9_property_suites(minors_oracle):
    rng = random.Random(20250825)
    ok = True

    catalog_names = ["circle-std", "circle-regular", "rp2", "torus", "klein",
                     "genus2", "rpn(3)", "rpn(4)"]
    data = {n: get_example(n).datum for n in catalog_names}

    def systems_for(d):
        n = len(d.basis_forms)
        out = [LocalSystem.trivial(),
               LocalSystem.exp(tuple(F(rng.randint(-4, 4), 2) for _ in range(n))),
               LocalSystem.nov(tuple(F(rng.randint(-4, 4), 2) for _ in range(n)))]
        if all(f.unit_tag is not None for f in d.flows) and d.flows:
            out.append(LocalSystem.unit_rep())
        return out

    # boundary/coboundary squared on catalog data + 500 random variants
    variants = 0
    while variants < 500:
        name = rng.choice(catalog_names)
        d = data[name]
        if rng.random() < 0.5 and all(f.unit_tag is not None for f in d.flows):
            g = {p.id: rng.choice([1, -1]) for p in d.points}
            d = gauge_transform(d, g)
        else:
            h = {p.id: tuple(F(rng.randint(-4, 4), 2)
                             for _ in d.basis_forms) for p in d.points}
            d = potential_shift(d, h)
        for sys_ in systems_for(d):
            ok = ok and validate_complex(build_complex(d, sys_)) is None
            ok = ok and validate_complex(build_cochain(d, sys_)) is None
        variants += 1

    # gauge invariance: 100 random gauges per unit-rep datum
    for name in ["circle-std", "rp2", "rpn(3)", "rpn(4)"]:
        d = data[name]
        base = homology(build_complex(d, LocalSystem.unit_rep()))
        for _ in range(100):
            g = {p.id: rng.choice([1, -1]) for p in d.points}
            s = homology(build_complex(gauge_transform(d, g),
                                       LocalSystem.unit_rep()))
            ok = ok and _summaries_equal(base, s)

    # cohomologous invariance: 100 potential shifts per exp/nov datum
    for name in ["circle-std", "torus", "klein", "genus2"]:
        d = data[name]
        n = len(d.basis_forms)
        cls = tuple(F(1) if i == 0 else F(0) for i in range(n))
        base_e = homology(build_complex(d, LocalSystem.exp(cls)))
        base_n = homology(build_complex(d, LocalSystem.nov(cls)))
        for _ in range(100):
            h = {p.id: tuple(F(rng.randint(-4, 4), 2) for _ in range(n))
                 for p in d.points}
            d2 = potential_shift(d, h)
            ok = ok and homology(build_complex(d2, LocalSystem.exp(cls))).betti \
                == base_e.betti
            ok = ok and _summaries_equal(
                homology(build_complex(d2, LocalSystem.nov(cls))), base_n)

    # positive rescaling: 10 scales per datum
    for name in ["circle-std", "torus", "klein", "genus2"]:
        d = data[name]
        n = len(d.basis_forms)
        cls = tuple(F(1) for _ in range(n))
        base = homology(build_complex(d, LocalSystem.exp(cls))).betti
        for _ in range(10):
            s = F(rng.randint(1, 12), rng.randint(1, 12))
            d2 = rescale_datum(d, s)
            ok = ok and homology(build_complex(d2, LocalSystem.exp(cls))).betti \
                == base

    # snf vs minor-expansion oracles on 200 random matrices <= 5x5
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        A = from_rows(rows)
        r = snf_int(A)
        ok = ok and r.rank == rank_int_bruteforce(A)
        ok = ok and (r.rank, r.torsion) == minors_oracle(rows)

    # nov_invert round trip on 200 random units
    exps = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
    made = 0
    while made < 200:
        terms = [(rng.randint(-3, 3), rng.choice(exps))
                 for _ in range(rng.randint(1, 3))]
        u = NovElem(terms)
        if not nov_unit(u):
            continue
        depth = rng.choice([F(3), F(10)])
        ok = ok and agrees_with(u * _unit_inverse(u, depth), NovElem.one())
        made += 1

    # euler identity on every completed catalog run
    for name in catalog_names:
        d = data[name]
        for sys_ in systems_for(d):
            C = build_complex(d, sys_)
            s = homology(C)
            if s.complete:
                ok = ok and euler_cells(C) == euler_homology(s)

    _verdict(9, "property suites: d^2=0 on 500 variants, 100 gauges, "
                "100 shifts, 10 rescales, 200 snf oracles, 200 inversion "
                "round trips, euler identity", ok)


def test_criterion_10_triangulation_pipeline():
    entry = get_example("rp2-triangulated")
    counts = tuple(len(layer) for layer in entry.cw.cells)
    chi = sum((-1) ** k * c for k, c in enumerate(counts))
    s = homology(build_complex(entry.datum, LocalSystem.trivial()))
    ok = chi == 1 and s.betti == (1, 0, 0) and s.torsion(1) == (2,) \
        and s.torsion(0) == () and s.torsion(2) == ()

    tetra = from_simplicial(FacetList(4, ((0, 1, 2), (0, 1, 3),
                                          (0, 2, 3), (1, 2, 3))))
    s2 = homology(build_complex(cw_to_morse(tetra), LocalSystem.trivial()))
    ok = ok and s2.betti == (1, 0, 1) and all(x.torsion == ()
                                              for x in s2.degrees)
    _verdict(10, "triangulation pipeline: six-vertex projective plane "
                 "(euler 1, torsion Z/2) and tetrahedron boundary (Z, 0, Z)",
             ok)


def test_catalog_expectations_all_pass():
    results = run_all()
    bad = [r for r in results if not r.ok]
    assert not bad, bad
