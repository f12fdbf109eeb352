import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from conftest import (
    Disconnected,
    flow_period_vector,
    h0_vector,
    image_complex,
    is_simple_elimination,
    is_simple_vector,
    loop_periods_vector,
    rank_of_class_vector,
)

from morsetwist.catalog import get_example
from morsetwist.chains import euler_cells, homology, validate_complex
from morsetwist.errors import (
    MissingDeckTag,
    MissingUnitTag,
    MorsetwistError,
    NonUnit,
)
from morsetwist.morse import (
    CriticalPoint,
    DeckGroup,
    FlowLine,
    LocalSystem,
    MorseDatum,
    build_cochain,
    build_complex,
    class_support,
    flow_period,
    gauge_transform,
    is_simple,
    lift_cover,
    potential_shift,
    rescale_datum,
)
from morsetwist.rings import NovElem

CIRCLE = get_example("circle-std").datum
RP2 = get_example("rp2").datum
GENUS2 = get_example("genus2").datum
TORUS = get_example("torus").datum
KLEIN = get_example("klein").datum


def test_flow_weight_conventions():
    # one flow of sign +1 and period -1/2: t^(+a) for exp, t^(-a) for nov
    right = replace(CIRCLE, flows=CIRCLE.flows[:1])

    def weight(sys):
        return image_complex(build_complex(right, sys)).diffs[0].entries[0][0]

    assert weight(LocalSystem.exp((F(1),))) == NovElem.monomial(1, F(-1, 2))
    assert weight(LocalSystem.nov((F(1),))) == NovElem.monomial(1, F(1, 2))
    assert weight(LocalSystem.trivial()) == 1
    assert weight(LocalSystem.unit_rep()) == 1


def test_build_complex_circle_exp():
    C = build_complex(CIRCLE, LocalSystem.exp((F(1),)))
    assert image_complex(C).diffs[0].entries[0][0] == \
        NovElem([(1, F(-1, 2)), (-1, F(1, 2))])


def test_build_complex_rp2_sign():
    C = build_complex(RP2, LocalSystem.unit_rep())
    assert C.diffs[0].entries == [[2]]   # d1
    assert C.diffs[1].entries == [[0]]   # d2


def test_build_complex_klein_nov_zero_class():
    C = build_complex(KLEIN, LocalSystem.nov((F(0),)))
    # d2 column: -2 on q, 0 on r
    col = [image_complex(C).diffs[1].entries[i][0] for i in range(2)]
    assert col[0] == NovElem([(-2, 0)])
    assert col[1] == 0


def test_build_complex_stores_no_cancelled_entry():
    # RP^2: untwisted, the two flows into the minimum cancel (d1 = 0);
    # sign-twisted, the two flows out of the maximum cancel (d2 = 0)
    C = build_complex(RP2, LocalSystem.trivial())
    assert [d.data for d in C.diffs] == [[{}], [{0: 2}]]
    C = build_complex(RP2, LocalSystem.unit_rep())
    assert [d.data for d in C.diffs] == [[{0: 2}], [{}]]
    assert C.diffs[1].entries == [[0]]
    # a pair of parallel flows with equal periods and opposite signs
    pair = MorseDatum(
        name="pair", dimension=1, basis_forms=("theta",),
        points=(CriticalPoint("p", 0), CriticalPoint("q", 1)),
        flows=(FlowLine("q", "p", 1, (F(1, 2),), unit_tag=-1),
               FlowLine("q", "p", -1, (F(1, 2),), unit_tag=-1)))
    for sys in (LocalSystem.trivial(), LocalSystem.unit_rep(),
                LocalSystem.exp((F(3),)), LocalSystem.nov((F(-1, 3),))):
        C = build_complex(pair, sys)
        assert C.diffs[0].data == [{}], sys
        image = image_complex(C).diffs[0]
        assert image.data == [{}] and image.entries == [[0]], sys
        assert homology(C).betti == (1, 1), sys


def test_missing_unit_tag():
    with pytest.raises(MissingUnitTag):
        build_complex(TORUS, LocalSystem.unit_rep())


def test_boundary_squared_all_catalog_all_systems():
    for name in ["circle-std", "rp2", "torus", "klein", "genus2", "rpn(4)"]:
        d = get_example(name).datum
        ncls = len(d.basis_forms)
        systems = [LocalSystem.trivial(),
                   LocalSystem.exp((F(1),) * ncls),
                   LocalSystem.nov((F(1, 3),) * ncls)]
        if all(f.unit_tag is not None for f in d.flows):
            systems.append(LocalSystem.unit_rep())
        for sys_ in systems:
            C = build_complex(d, sys_)
            assert validate_complex(C) is None, (name, sys_.flavor)
            D = build_cochain(d, sys_)
            assert validate_complex(D) is None, (name, sys_.flavor)


def test_gauge_transform_identity_and_invariance():
    assert gauge_transform(RP2, {}) == RP2
    rng = random.Random(11)
    base = homology(build_complex(RP2, LocalSystem.unit_rep()))
    for _ in range(25):
        g = {p.id: rng.choice([1, -1]) for p in RP2.points}
        d2 = gauge_transform(RP2, g)
        s = homology(build_complex(d2, LocalSystem.unit_rep()))
        assert s.betti == base.betti
        assert [x.torsion for x in s.degrees] == [x.torsion for x in base.degrees]


def test_gauge_rejects_nonunit():
    with pytest.raises(NonUnit):
        gauge_transform(RP2, {"p": 2})


def test_potential_shift_invariance():
    rng = random.Random(23)
    cls = (F(1), F(0), F(0), F(0))
    base = homology(build_complex(GENUS2, LocalSystem.exp(cls)))
    for _ in range(10):
        h = {p.id: tuple(F(rng.randint(-3, 3), 2) for _ in range(4))
             for p in GENUS2.points}
        d2 = potential_shift(GENUS2, h)
        assert validate_complex(build_complex(d2, LocalSystem.exp(cls))) is None
        s = homology(build_complex(d2, LocalSystem.exp(cls)))
        assert s.betti == base.betti


def test_rescale_invariance():
    cls = (F(1), F(0))
    base = homology(build_complex(TORUS, LocalSystem.exp(cls)))
    for s in [F(1, 3), F(2), F(7, 5)]:
        d2 = rescale_datum(TORUS, s)
        assert homology(build_complex(d2, LocalSystem.exp(cls))).betti == base.betti


def test_lift_cover_rp2():
    d = get_example("rp2-lift").datum
    lifted = lift_cover(d)
    assert len(lifted.points) == 6
    s = homology(build_complex(lifted, LocalSystem.trivial()))
    assert s.betti == (1, 0, 1)
    assert all(x.torsion == () for x in s.degrees)
    assert euler_cells(build_complex(lifted, LocalSystem.trivial())) == 2


def test_lift_cover_trivial_group():
    d = get_example("rp2-lift").datum
    triv = DeckGroup(elements=("e",), table={("e", "e"): "e"})
    flows = tuple(
        FlowLine(f.frm, f.to, f.sign, periods=f.periods, deck_tag="e")
        for f in d.flows)
    lifted = lift_cover(replace(d, flows=flows, deck_group=triv))
    s = homology(build_complex(lifted, LocalSystem.trivial()))
    assert s.betti == (1, 0, 0)
    assert s.torsion(1) == (2,)


def test_deck_group_refuses_a_product_outside_it():
    # checked when the group is built, not when a lift first multiplies
    with pytest.raises(ValueError, match=r"\(s,s\) is not an element: 'x'"):
        DeckGroup(elements=("e", "s"), table={
            ("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "x"})


def test_lift_missing_tags():
    with pytest.raises(MissingDeckTag, match="has no deck tag"):
        lift_cover(replace(RP2, deck_group=DeckGroup(
            elements=("e",), table={("e", "e"): "e"})))


def h0_quotient(d, sys_):
    """H_0 as the fiber modulo the subgroup generated by (1 - loop unit)."""
    return h0_vector(d, sys_, "Z/2")


def h0_cohomology(d, sys_):
    """H^0 as the subgroup of the fiber fixed by every loop unit."""
    return h0_vector(d, sys_, "0")


def test_h0_quotient():
    assert h0_quotient(CIRCLE, LocalSystem.unit_rep()) == "Z/2"
    assert h0_quotient(CIRCLE, LocalSystem.trivial()) == "Z"
    assert h0_quotient(CIRCLE, LocalSystem.exp((F(1),))) == "0"
    assert h0_quotient(CIRCLE, LocalSystem.exp((F(0),))) == "R"
    assert h0_quotient(CIRCLE, LocalSystem.nov((F(1),))) == "0"


def test_h0_cohomology():
    assert h0_cohomology(GENUS2, LocalSystem.exp((F(1), F(0), F(0), F(0)))) == "0"
    assert h0_cohomology(GENUS2, LocalSystem.exp((F(0),) * 4)) == "R"
    assert h0_cohomology(RP2, LocalSystem.unit_rep()) == "0"


def test_h0_matches_engine():
    # the closed-form degree-0 answers agree with the matrix engine: the
    # rank of H_0 and of H^0, and the torsion of H_0
    ranks = {"0": 0, "Z/2": 0, "Z": 1, "R": 1, "Nov": 1}
    checked = 0
    for name in ("circle-std", "rp2", "torus", "klein", "genus2"):
        d = get_example(name).datum
        n = len(d.basis_forms)
        for sys_ in (LocalSystem.trivial(), LocalSystem.unit_rep(),
                     LocalSystem.exp((F(1),) + (F(0),) * (n - 1)),
                     LocalSystem.exp((F(0),) * n),
                     LocalSystem.nov((F(1, 2),) * n)):
            try:
                h0, co = h0_quotient(d, sys_), h0_cohomology(d, sys_)
            except MissingUnitTag:
                continue
            H = homology(build_complex(d, sys_))
            assert H.betti[0] == ranks[h0], (name, sys_)
            assert H.torsion(0) == ((2,) if h0 == "Z/2" else ()), (name, sys_)
            assert homology(build_cochain(d, sys_)).betti[0] == ranks[co]
            checked += 1
    assert checked >= 15, checked


def test_h0_disconnected():
    d = MorseDatum(
        name="two-points", dimension=1, basis_forms=(),
        points=(CriticalPoint("a", 0), CriticalPoint("b", 0)),
        flows=())
    with pytest.raises(Disconnected):
        h0_quotient(d, LocalSystem.trivial())


def test_is_simple():
    assert not is_simple(CIRCLE, LocalSystem.unit_rep())
    assert not is_simple(CIRCLE, LocalSystem.exp((F(1),)))
    assert is_simple(CIRCLE, LocalSystem.exp((F(0),)))
    assert is_simple(TORUS, LocalSystem.trivial())
    assert not is_simple(GENUS2, LocalSystem.exp((F(1), F(0), F(0), F(0))))


def test_datum_validation():
    with pytest.raises(ValueError):
        MorseDatum(name="bad", dimension=1, basis_forms=(),
                   points=(CriticalPoint("a", 0), CriticalPoint("a", 1)),
                   flows=())
    with pytest.raises(ValueError):
        MorseDatum(name="bad", dimension=2, basis_forms=(),
                   points=(CriticalPoint("a", 0), CriticalPoint("b", 2)),
                   flows=(FlowLine("b", "a", 1),))


def _random_rational(rng):
    """Zero, integral, negative or non-integral."""
    return rng.choice((F(0), F(0), F(rng.randint(1, 3)), F(-rng.randint(1, 3)),
                       F(rng.randint(-5, 5), rng.randint(2, 4))))


def _random_datum(rng, nforms):
    """Random index <= 2 data: flows to random lower points, so parallel
    flows, 1-skeleton cycles and disconnected skeleta all occur."""
    counts = (rng.randint(1, 4), rng.randint(0, 5), rng.randint(0, 2))
    points = [CriticalPoint(f"{'vef'[k]}{i}", k)
              for k, n in enumerate(counts) for i in range(n)]
    tagged = rng.random() < 0.7
    flows = []
    for p in points:
        lower = [q.id for q in points if q.index == p.index - 1]
        for _ in range(rng.choice((0, 1, 2, 2, 3)) if lower else 0):
            f = FlowLine(p.id, rng.choice(lower), rng.choice((1, -1)),
                         tuple(_random_rational(rng) for _ in range(nforms)),
                         unit_tag=rng.choice((1, -1)) if tagged else None)
            flows += [f] * rng.choice((1, 1, 2))
    rng.shuffle(flows)
    return MorseDatum(name="random", dimension=2, basis_forms=("x",) * nforms,
                      points=tuple(points), flows=tuple(flows))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MorsetwistError as exc:
        return type(exc).__name__


def test_is_simple_equals_elimination_oracle():
    """The gauge walk agrees with exact elimination of the incidence
    matrix, sees every loop of the parallel flows and the 1-skeleton
    cycles, and its scalar flow periods are the componentwise ones, on
    random data before and after a potential shift and a rescaling, under
    zero, sparse and dense classes."""
    rng = random.Random(777)
    compared = {"loops": 0, "disconnected": 0, "not simple": 0}
    beyond_the_loops = 0  # not simple, though every loop is trivial
    for _ in range(60):
        nforms = rng.randint(0, 3)
        d = _random_datum(rng, nforms)
        h = {p.id: tuple(_random_rational(rng) for _ in range(nforms))
             for p in d.points}
        shifted = potential_shift(d, h)
        variants = (d, shifted, rescale_datum(shifted, F(rng.randint(1, 5),
                                                        rng.randint(1, 4))))
        dense = tuple(F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                      for _ in range(nforms))
        k = rng.randrange(max(nforms, 1))
        sparse = tuple(c if i == k else F(0) for i, c in enumerate(dense))
        classes = {(F(0),) * nforms, sparse, dense}
        for dv in variants:
            compared["loops"] += len(loop_periods_vector(dv, (0,) * nforms))
            compared["disconnected"] += _outcome(
                h0_vector, dv, LocalSystem.trivial(), "") == "Disconnected"
            for cls in classes:
                for f in dv.flows:
                    assert (flow_period(f, class_support(cls))
                            == flow_period_vector(f, cls))
                if rank_of_class_vector(dv, cls):
                    assert not is_simple(dv, LocalSystem.exp(cls))
                for sys_ in (LocalSystem.trivial(), LocalSystem.unit_rep(),
                             LocalSystem.exp(cls), LocalSystem.nov(cls)):
                    simple = _outcome(is_simple, dv, sys_)
                    assert simple == _outcome(is_simple_elimination, dv, sys_)
                    seen = _outcome(is_simple_vector, dv, sys_)
                    if seen is False:
                        assert simple is False
                    compared["not simple"] += simple is False
                    beyond_the_loops += (simple, seen) == (False, True)
    # the data exercise every branch
    assert min(compared.values()) > 30, compared
    assert beyond_the_loops > 10, beyond_the_loops


def test_loop_in_a_later_component():
    # the cycle v2-e0-v1-e1 has period 1/4 and the tag product -1; the
    # first index-0 point, v0, has no flow
    points = tuple(CriticalPoint(p, int(p[0] == "e"))
                   for p in ("v0", "v1", "v2", "e0", "e1"))
    flows = tuple(FlowLine(frm, to, 1, (F(a),), unit_tag=t)
                  for frm, to, a, t in (("e0", "v2", 0, 1), ("e0", "v1", 3, 1),
                                        ("e1", "v2", F(1, 4), -1),
                                        ("e1", "v1", 3, 1)))
    d = MorseDatum("later-loop", 1, ("x",), points, flows)
    for sys_ in (LocalSystem.unit_rep(), LocalSystem.exp((1,)),
                 LocalSystem.nov((1,))):
        assert is_simple_vector(d, sys_)
        assert not is_simple(d, sys_)
        assert not is_simple_elimination(d, sys_)
    assert is_simple(d, LocalSystem.exp((0,)))


def _check_periods(lines, nforms, optional=False):
    """Each line holds a tuple of exact rationals, Fractions or ints (no
    bool, float or str), one per basis form; a CW record may hold none."""
    for f in lines:
        assert type(f.periods) is tuple, f
        assert all(type(p) in (F, int) for p in f.periods), f
        assert len(f.periods) == nforms or optional and not f.periods, f


def test_every_flow_line_the_package_builds_holds_exact_periods():
    # FlowLine keeps the periods it is handed, so every path that builds
    # one must hand it exact rationals: the reader, the CW paths, the
    # catalog, and the datum transforms
    from pathlib import Path

    from spaces import grid_facets, twisted_torus_cw

    from morsetwist.catalog import example_names
    from morsetwist.cw import cw_to_morse, from_simplicial
    from morsetwist.serial import dump_json, facets_from_text, load_json

    def check_datum(d):
        _check_periods(d.flows, len(d.basis_forms))

    def check_cw(cw):
        _check_periods(cw.incidences, len(cw.basis_forms), optional=True)
        check_datum(cw_to_morse(cw))

    examples = Path(__file__).resolve().parent.parent / "docs" / "examples"
    check_datum(load_json((examples / "torsion-block.json").read_text()))
    check_cw(from_simplicial(facets_from_text(
        (examples / "rp2.facets").read_text())))
    for n in (3, 4, 5):
        cw = twisted_torus_cw(n)
        check_cw(cw)
        check_cw(load_json(dump_json(cw)))
        for klein in (False, True):
            check_cw(from_simplicial(grid_facets(n, klein)))
    rng = random.Random(7707)
    names = [n for n in example_names() if n != "rpn(N)"] + ["rpn(3)"]
    for name in names:
        e = get_example(name)
        d = e.datum
        check_datum(d)
        check_datum(load_json(dump_json(d)))
        if e.cw is not None:
            check_cw(e.cw)
            check_cw(load_json(dump_json(e.cw)))
        if e.facets is not None:
            check_cw(from_simplicial(e.facets))
        n = len(d.basis_forms)
        h = {p.id: tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(n)) for p in d.points}
        shifted = potential_shift(d, h)
        check_datum(shifted)
        check_datum(rescale_datum(shifted, F(rng.randint(1, 7),
                                             rng.randint(1, 5))))
        check_datum(rescale_datum(d, rng.randint(1, 3)))
        if d.deck_group is not None:
            check_datum(lift_cover(d))
