import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from spaces import freudenthal_torus_facets, grid_facets, twisted_torus_cw

from morsetwist.catalog import RP2_SIX_VERTEX_FACETS, get_example
from morsetwist.chains import euler_cells, homology, validate_complex
from morsetwist.cw import (
    MAX_FACES,
    FacetList,
    RegularCW,
    cw_to_morse,
    from_simplicial,
    simplicial_boundary,
    validate_regular,
)
from morsetwist.errors import MalformedFacets, MissingUnitTag, NotRegular
from morsetwist.morse import (
    CriticalPoint,
    FlowLine,
    LocalSystem,
    MorseDatum,
    build_complex,
)


def deformed_circle() -> RegularCW:
    return get_example("circle-regular").cw


def test_validate_deformed_circle():
    assert validate_regular(deformed_circle()) is None


def test_one_cell_circle_not_regular():
    # single vertex, single edge: the edge lacks two distinct endpoints
    cw = RegularCW(name="one-cell-circle", dimension=1,
                   cells=(("p",), ("q",)),
                   incidences=(FlowLine("q", "p", +1),
                               FlowLine("q", "p", -1)))
    v = validate_regular(cw)
    assert v is not None
    assert v.kind == "edge-endpoints"
    doubled = RegularCW(name="doubled-incidence", dimension=1,
                        cells=(("p", "r"), ("q",)),
                        incidences=(FlowLine("q", "p", -1),
                                    FlowLine("q", "r", 2)))
    v = validate_regular(doubled)
    assert (v.kind, v.cells) == ("incidence-value", ("q", "r"))


def test_validate_rp2_triangulated():
    cw = from_simplicial(FacetList(6, RP2_SIX_VERTEX_FACETS))
    assert validate_regular(cw) is None


def test_steenrod_deformed_circle_trivial():
    C = build_complex(cw_to_morse(deformed_circle()), LocalSystem.trivial())
    # d1(q1) = d1(q2) = p2 - p1
    assert C.diffs[0].entries == [[-1, -1], [1, 1]]
    assert homology(C).betti == (1, 1)


def test_steenrod_matches_morse_random_unit_rep():
    # the cellular boundary, entry (lower, upper) the sum of incidence
    # times unit tag over the records, is the Morse complex of the datum
    rng = random.Random(1712)
    base_cw = deformed_circle()
    for _ in range(20):
        tags = [rng.choice([1, -1]) for _ in range(4)]
        cw = RegularCW(
            name=base_cw.name, dimension=1, cells=base_cw.cells,
            incidences=tuple(
                replace(i, unit_tag=t)
                for i, t in zip(base_cw.incidences, tags)),
            basis_forms=base_cw.basis_forms)
        lower, upper = cw.cells
        cellular = [[0] * len(upper) for _ in lower]
        for i in cw.incidences:
            cellular[lower.index(i.to)][upper.index(i.frm)] += \
                i.sign * i.unit_tag
        M = build_complex(cw_to_morse(cw), LocalSystem.unit_rep())
        assert M.diffs[0].entries == cellular
    untagged = replace(base_cw, incidences=(
        replace(base_cw.incidences[0], unit_tag=None),
        *base_cw.incidences[1:]))
    with pytest.raises(MissingUnitTag, match="has no unit tag"):
        build_complex(cw_to_morse(untagged), LocalSystem.unit_rep())


def test_cw_to_morse_reuses_the_incidence_records():
    cw = twisted_torus_cw(4)
    d = cw_to_morse(cw)
    assert len(d.flows) == len(cw.incidences)
    assert all(f is i for f, i in zip(d.flows, cw.incidences))
    # one record with no periods under two basis forms: only it is replaced
    incs = list(cw.incidences)
    incs[5] = replace(incs[5], periods=())
    bare = replace(cw, incidences=tuple(incs))
    flows = cw_to_morse(bare).flows
    assert [k for k, (f, i) in enumerate(zip(flows, bare.incidences))
            if f is not i] == [5]
    assert flows[5] == replace(incs[5], periods=(0, 0))
    assert all(type(p) is Fraction for p in flows[5].periods)


def test_a_sign_of_two_is_refused_by_the_datum_not_the_record():
    f = FlowLine("q", "p", 2)
    assert f.sign == 2
    with pytest.raises(ValueError, match=r"flow sign must be \+-1, got 2"):
        MorseDatum(name="two", dimension=1, basis_forms=(),
                   points=(CriticalPoint("p", 0), CriticalPoint("q", 1)),
                   flows=(f,))


def test_nonregular_rejected_by_steenrod():
    cw = RegularCW(name="bad", dimension=1, cells=(("p",), ("q",)),
                   incidences=(FlowLine("q", "p", +1),
                               FlowLine("q", "p", -1)))
    with pytest.raises(NotRegular):
        build_complex(cw_to_morse(cw), LocalSystem.trivial())


def test_from_simplicial_triangle_circle():
    fl = FacetList(3, ((0, 1), (1, 2), (0, 2)))
    cw = from_simplicial(fl)
    assert tuple(len(layer) for layer in cw.cells) == (3, 3)
    s = homology(build_complex(cw_to_morse(cw), LocalSystem.trivial()))
    assert s.betti == (1, 1)
    assert all(x.torsion == () for x in s.degrees)


def test_from_simplicial_tetrahedron_boundary():
    fl = FacetList(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    cw = from_simplicial(fl)
    s = homology(build_complex(cw_to_morse(cw), LocalSystem.trivial()))
    assert s.betti == (1, 0, 1)
    assert all(x.torsion == () for x in s.degrees)


def test_from_simplicial_rp2():
    cw = from_simplicial(FacetList(6, RP2_SIX_VERTEX_FACETS))
    assert tuple(len(layer) for layer in cw.cells) == (6, 15, 10)
    C = build_complex(cw_to_morse(cw), LocalSystem.trivial())
    assert validate_complex(C) is None
    assert euler_cells(C) == 1
    s = homology(C)
    assert s.betti == (1, 0, 0)
    assert s.torsion(1) == (2,)


def _random_facets(rng) -> FacetList:
    """Up to 12 distinct facets of dimension 0..3 on a random vertex pool,
    each listed in a random vertex order, with up to 3 unused vertices."""
    dim = rng.randint(0, 3)
    used = rng.randint(dim + 1, 8)
    n = used + rng.randint(0, 3)
    pool = sorted(rng.sample(range(n), used))
    simplices = list(itertools.combinations(pool, dim + 1))
    chosen = rng.sample(simplices, rng.randint(1, min(len(simplices), 12)))
    return FacetList(n, tuple(tuple(rng.sample(f, len(f))) for f in chosen))


def test_simplicial_boundary_equals_the_cw_round_trip():
    rng = random.Random(15015)
    fixed = [FacetList(3, ((0,), (2,))),
             FacetList(5, ((0, 1, 2), (0, 3, 4))),           # bowtie
             FacetList(5, ((0, 1, 2), (0, 1, 3), (1, 0, 4))),  # three on an edge
             FacetList(6, RP2_SIX_VERTEX_FACETS),
             freudenthal_torus_facets(3)]
    fixed += [grid_facets(n, klein) for n in (3, 4) for klein in (False, True)]
    dims = Counter()
    for fl in fixed + [_random_facets(rng) for _ in range(300)]:
        direct = simplicial_boundary(fl)
        cw = from_simplicial(fl)
        assert validate_regular(cw) is None, fl
        ref = build_complex(cw_to_morse(cw), LocalSystem.trivial())
        assert direct.regime == ref.regime and not direct.ascending
        assert direct.counts() == ref.counts(), fl
        assert tuple(tuple(".".join(map(str, s)) for s in layer)
                     for layer in direct.generators) == ref.generators, fl
        assert direct.diffs == ref.diffs, fl
        assert homology(direct) == homology(ref), fl
        dims[direct.dimension] += 1
    assert min(dims[k] for k in range(4)) >= 50, dims


def test_cw_to_morse_single_vertex():
    cw = RegularCW(name="pt", dimension=0, cells=(("v",),), incidences=())
    d = cw_to_morse(cw)
    assert len(d.points) == 1 and not d.flows


def test_facet_list_validation():
    with pytest.raises(MalformedFacets):
        FacetList(3, ())
    with pytest.raises(MalformedFacets):
        FacetList(3, ((0, 1), (0, 1, 2)))
    with pytest.raises(MalformedFacets):
        FacetList(3, ((0, 0),))
    with pytest.raises(MalformedFacets):
        FacetList(3, ((0, 3),))
    with pytest.raises(MalformedFacets):
        FacetList(3, ((0, 1), (1, 0)))


@pytest.mark.parametrize("n, facets", [
    (3, ((0, 1.9, 2),)),              # was truncated to the facet (0, 1, 2)
    (11, (("0", "1_0", "+2"),)),      # was read as (0, 10, 2)
    (3, ((0, True, 2),)),             # was read as vertex 1
    (3.5, ((0, 1, 2),)),              # was written back as "vertices 3.5"
], ids=["float", "strings", "bool", "float-count"])
def test_facet_list_takes_ints_only(n, facets):
    # only type(v) is int is a vertex or a vertex count, so every facet
    # list there is can be written by facets_to_text and read back
    with pytest.raises(MalformedFacets, match="is not an int vertex or count"):
        FacetList(n, facets)


@pytest.mark.parametrize("facets, message", [
    # the second facet breaks the named rule and every rule checked after
    # it; the third facet breaks a later rule again (a duplicate of the
    # first, or a vertex out of range), too late to win
    (((0, 1, 2), (-1, -1), (2, 1, 0)),
     "facets must all have the same dimension"),
    (((0, 1, 2), (-1, -1, 3), (2, 1, 0)), "facet (-1, -1, 3) repeats a vertex"),
    (((0, 1, 2), (-1, 1, 3), (2, 1, 0)),
     "facet (-1, 1, 3) has a vertex out of range"),
    (((0, 1, 2), (2, 1, 0), (0, 1, 3)), "duplicate facet (2, 1, 0)"),
])
def test_facet_checks_fire_in_order(facets, message):
    # the facets are checked in list order, and each one for its size,
    # then a repeated vertex, then its range, then a duplicate
    with pytest.raises(MalformedFacets) as err:
        FacetList(3, facets)
    assert str(err.value) == message


@pytest.mark.parametrize("facets", [((),), ((), ())])
def test_empty_facet_is_refused(facets):
    # an empty tuple is not a simplex
    with pytest.raises(MalformedFacets, match="a facet has no vertex"):
        FacetList(3, facets)


def test_facet_face_bound_cap():
    # the Freudenthal 4-torus n=4, 6,144 facets of 5 vertices, is the
    # largest list in use; a 20-vertex facet's 2^20 - 1 faces are refused
    fl = freudenthal_torus_facets(4, dim=4)
    assert len(fl.facets) * (2 ** 5 - 1) == 190464 <= MAX_FACES
    assert FacetList(20, (tuple(range(19)),)).facets == (tuple(range(19)),)
    with pytest.raises(MalformedFacets, match="= 1048575 exceeds the cap"):
        FacetList(20, (tuple(range(20)),))


def test_euler_consistency_with_simplex_counts():
    cw = from_simplicial(FacetList(6, RP2_SIX_VERTEX_FACETS))
    counts = tuple(len(layer) for layer in cw.cells)
    assert sum((-1) ** k * c for k, c in enumerate(counts)) == 6 - 15 + 10 == 1


def dense_violation(cw: RegularCW):
    """Reference d.d check: the dense untwisted complex built straight from
    the incidence records, with no regularity check in between."""
    datum = MorseDatum(
        name=cw.name, dimension=cw.dimension, basis_forms=(),
        points=tuple(CriticalPoint(c, k)
                     for k, layer in enumerate(cw.cells) for c in layer),
        flows=cw.incidences)
    return validate_complex(build_complex(datum, LocalSystem.trivial()))


def mutate(cw: RegularCW, rng) -> RegularCW:
    """One to three sign flips, dropped records or duplicated records."""
    incs = list(cw.incidences)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(incs))
        op = rng.choice(["flip", "flip", "drop", "duplicate"])
        if op == "flip":
            incs[k] = FlowLine(incs[k].frm, incs[k].to, -incs[k].sign)
        elif op == "drop":
            del incs[k]
        else:
            incs.insert(rng.randrange(len(incs) + 1), incs[k])
    return RegularCW(cw.name, cw.dimension, cw.cells, tuple(incs))


def test_boundary_squared_agrees_with_dense_reference():
    bases = [from_simplicial(grid_facets(n, klein))
             for n in (3, 4) for klein in (False, True)]
    bases.append(from_simplicial(FacetList(6, RP2_SIX_VERTEX_FACETS)))
    for cw in bases:
        assert validate_regular(cw) is None
        assert dense_violation(cw) is None
    rng = random.Random(1911)
    kinds = Counter()
    for _ in range(300):
        cw = mutate(rng.choice(bases), rng)
        v = validate_regular(cw)
        dense = dense_violation(cw)
        kinds[v and v.kind] += 1
        if dense is not None:
            assert v is not None, cw.incidences
        # past the structural checks, boundary-squared is exactly d.d != 0
        if v is None or v.kind == "boundary-squared":
            assert (v is not None) == (dense is not None), cw.incidences
    # the seeded cases reach the d.d check, not only the structural ones
    assert kinds["boundary-squared"] >= 20 and kinds["diamond"] >= 20, kinds


def test_grid_klein_bottle_homology():
    s = homology(build_complex(
        cw_to_morse(from_simplicial(grid_facets(3, klein=True))),
        LocalSystem.trivial()))
    assert s.betti == (1, 1, 0)
    assert s.torsion(1) == (2,)
