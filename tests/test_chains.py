import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest
from conftest import (
    depth_sensitive_data,
    from_rows,
    homology_per_matrix,
    image_complex,
    random_facet_lists,
    specialise,
)
from spaces import freudenthal_torus_facets, grid_facets, twisted_torus_cw

import morsetwist.chains as chains
import morsetwist.linalg as linalg
from morsetwist.catalog import example_names, get_example
from morsetwist.chains import (
    EXPSUM,
    INT,
    NOV,
    ChainComplex,
    dualize,
    euler_cells,
    euler_homology,
    homology,
    validate_complex,
)
from morsetwist.cw import cw_to_morse, simplicial_boundary
from morsetwist.errors import InvalidComplex, MissingUnitTag
from morsetwist.linalg import (
    Matrix,
    _as_nov,
    _is_unit,
    cancel_units,
    nov_reduce,
    rank_expsum,
)
from morsetwist.morse import (
    CriticalPoint,
    FlowLine,
    LocalSystem,
    MorseDatum,
    build_complex,
)
from morsetwist.rings import NovElem, laurent


def int_complex(gens, mats):
    diffs = tuple(from_rows(m) if m
                  else Matrix(len(gens[k]), len(gens[k + 1]), [{} for _ in gens[k]])
                  for k, m in enumerate(mats))
    return ChainComplex(regime="INT", generators=gens, diffs=diffs)


def test_rp2_twisted_is_a_complex():
    # d2 = 0, d1 = 2: the sign-twisted projective plane
    C = int_complex((("p",), ("q",), ("r",)), ([[2]], [[0]]))
    assert validate_complex(C) is None


def test_single_degree_vacuous():
    C = ChainComplex(regime="INT", generators=(("p", "q"),), diffs=())
    assert validate_complex(C) is None
    s = homology(C)
    assert s.betti == (2,)


def test_violation_detected_and_reported():
    # flipping one degree-1 sign makes d1*d2 = 4, not 0
    C = int_complex((("p",), ("q",), ("r",)), ([[2]], [[2]]))
    v = validate_complex(C)
    assert v is not None
    assert v.degree == 1
    assert v.value == 4
    with pytest.raises(InvalidComplex):
        homology(C)


def test_int_homology_untwisted_rp2():
    C = int_complex((("p",), ("q",), ("r",)), ([[0]], [[2]]))
    s = homology(C)
    assert s.betti == (1, 0, 0)
    assert s.torsion(1) == (2,)
    assert s.torsion(0) == ()


def test_int_homology_sign_twisted_rp2():
    C = int_complex((("p",), ("q",), ("r",)), ([[2]], [[0]]))
    s = homology(C)
    assert s.betti == (0, 0, 1)
    assert s.torsion(0) == (2,)


def test_zero_boundaries_betti_equals_counts():
    gens = (("a", "b"), ("c",), ("d", "e", "f"))
    C = int_complex(gens, (None, None))
    s = homology(C)
    assert s.betti == (2, 1, 3)


def test_expsum_homology_and_dual():
    # t^(-1/2) - t^(1/2) over u = t^(1/2)
    e = laurent(1, -1) - laurent(1, 1)
    C = ChainComplex(regime="EXPSUM", generators=(("p",), ("q",)),
                     diffs=(from_rows([[e]]),), scale=2)
    s = homology(C)
    assert s.betti == (0, 0)
    D = dualize(C)
    assert D.ascending
    assert validate_complex(D) is None
    assert homology(D).betti == (0, 0)
    # transports inverted: exponents negated
    assert D.diffs[0].entries[0][0] == e.invert_exponents()


def test_dual_int_is_plain_transpose():
    C = int_complex((("p",), ("q", "r")), ([[1, -1]],))
    D = dualize(C)
    # delta_0 = [[1], [-1]], stored as its transpose in the boundary's shape
    assert D.diffs[0].entries == [[1, -1]] == C.diffs[0].entries
    assert homology(C).betti == homology(D).betti


def test_dualize_inverts_nonzero_entries_only(monkeypatch):
    C = build_complex(cw_to_morse(twisted_torus_cw(4)),
                      LocalSystem.exp((F(1), F(-1, 3))))
    # the expected dual, built from the dense view of the image: invert
    # all, zeros included, and keep each matrix's shape
    before = [[[_as_nov(e).invert_exponents() for e in row]
               for row in d.entries] for d in image_complex(C).diffs]
    calls = []
    invert = NovElem.invert_exponents
    monkeypatch.setattr(NovElem, "invert_exponents",
                        lambda e: calls.append(e) or invert(e))
    D = dualize(C)
    nonzero = sum(1 for d in C.diffs for row in d.entries for e in row if e)
    assert len(calls) == nonzero < sum(d.rows * d.cols for d in C.diffs)
    assert [d.entries for d in image_complex(D).diffs] == before
    assert all(e for e in calls)


def test_homology_refuses_a_novikov_depth_at_most_zero():
    # nov_reduce refuses the depth on every boundary the unit pass leaves,
    # a unit pivot 1 + u⁻¹ and a lone non-unit 2 alike
    u = laurent(1, 0) + laurent(1, -1)
    for rows in ([[u, 2], [2, 3]], [[2]]):
        gens = (tuple(f"p{i}" for i in range(len(rows))),
                tuple(f"q{j}" for j in range(len(rows[0]))))
        C = ChainComplex(regime="NOV", generators=gens,
                         diffs=(from_rows(rows),), scale=1)
        assert homology(C).complete
        for depth in (0, F(-1)):
            with pytest.raises(ValueError, match="depth must be > 0"):
                homology(C, depth=depth)


def test_nov_homology_with_torsion():
    e = NovElem([(-2, F(0))])
    C = ChainComplex(regime="NOV", generators=(("p",), ("q",)),
                     diffs=(from_rows([[e]]),), scale=1)
    s = homology(C)
    # the map is injective over Nov, so only torsion survives: Nov/2 at 0
    assert s.betti == (0, 0)
    assert s.torsion(0) == (2,)
    assert s.complete


def test_euler():
    C = int_complex((("p",), ("q",), ("r",)), ([[0]], [[2]]))
    assert euler_cells(C) == 1
    assert euler_homology(homology(C)) == 1


def test_euler_indeterminate_on_stuck():
    # a stuck degree's Betti number is exact; only its torsion is unknown
    from morsetwist.chains import DegreeSummary, HomologySummary
    s = HomologySummary(regime="NOV", degrees=(
        DegreeSummary(betti=1), DegreeSummary(betti=3, status="stuck"),
        DegreeSummary(betti=1, status="stuck")))
    assert euler_homology(s) == 1 - 3 + 1


def test_ascending_torsion_bookkeeping():
    # ascending complex with delta_0 = [2]: H^1 has Z/2 torsion
    C = ChainComplex(regime="INT", generators=(("p",), ("q",)),
                     diffs=(from_rows([[2]]),), ascending=True)
    s = homology(C)
    assert s.betti == (0, 0)
    assert s.torsion(1) == (2,)
    assert s.torsion(0) == ()


TORUS = get_example("torus").datum


def _corpus():
    # the catalog, a seeded family whose Novikov answers depend on depth,
    # and twisted tori
    names = [n for n in example_names() if n != "rpn(N)"]
    names += ["rpn(3)", "rpn(4)"]
    return ([get_example(n).datum for n in names]
            + depth_sensitive_data(random.Random(2718), 12)
            + [cw_to_morse(twisted_torus_cw(n)) for n in range(3, 9)])


DEPTHS = (F(1, 2), 1, 4, 16)
MAX_ITERS = (0, 1, 10, 10000)


def test_laurent_assembly_reduces_like_its_image():
    # build_complex returns the ℤ[u, u⁻¹] complex, u = t^(1/scale), and
    # homology reduces it there; specialise reads its image.  The pass
    # there equals the pass on the image entry for entry, rank_expsum
    # gives the image's rank, and every homology summary equals the
    # image's, Novikov chains and cochains over a depth x max_iter grid,
    # stuck results included, and so does the per-matrix reference's;
    # the image of a dual is the dual of the image (u ↦ u⁻¹ then
    # specialise equals specialise then t ↦ t⁻¹)
    rng = random.Random(57721)
    seen = {EXPSUM: 0, NOV: 0, "ints": 0, "stuck": 0, "stuck cochains": 0}
    depth_sensitive = 0  # Novikov complexes whose answer changes with depth
    for d in _corpus():
        n = len(d.basis_forms)
        nonzero = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                        for _ in range(n))
        for flavor in ("trivial", "unit-rep", "exp", "nov"):
            for cls in ((F(0),) * n, nonzero):
                try:
                    chain = build_complex(d, LocalSystem.named(flavor, cls))
                except MissingUnitTag:
                    continue
                assert image_complex(dualize(chain)) == \
                    dualize(image_complex(chain)), (d.name, flavor, cls)
                for C in (chain, dualize(chain)):
                    if C.regime == INT:
                        assert C.scale is None
                        continue
                    image = image_complex(C)
                    grid = [(16, 10000)]
                    if C.regime == NOV:
                        grid = itertools.product(DEPTHS, MAX_ITERS)
                    for U, D in zip(C.diffs, image.diffs, strict=True):
                        pivots, rest = cancel_units(U)
                        assert (pivots, specialise(rest, C.scale)) \
                            == cancel_units(D)
                        if C.regime == EXPSUM:
                            assert rank_expsum(rest) == \
                                rank_expsum(specialise(rest, C.scale))
                    by_depth = set()
                    for depth, max_iter in grid:
                        got = homology(C, depth, max_iter)
                        assert got == homology(image, depth, max_iter), \
                            (d.name, flavor, cls, C.ascending, depth, max_iter)
                        assert homology_per_matrix(C, depth, max_iter) == \
                            homology_per_matrix(image, depth, max_iter)
                        if not got.complete:
                            seen["stuck"] += 1
                            seen["stuck cochains"] += C.ascending
                        if max_iter == 10000:
                            by_depth.add(got)
                    seen[C.regime] += 1
                    seen["ints"] += not any(isinstance(e, NovElem)
                                            for d in C.diffs for row in d.data
                                            for e in row.values())
                    depth_sensitive += len(by_depth) > 1
    assert min(seen.values()) >= 20, seen
    assert depth_sensitive >= 4, depth_sensitive


def test_assembly_dual_and_reduction_hold_exact_entries_only():
    # a truncated series exists only inside the Novikov leaf: every entry
    # that build_complex, dualize and reduce return is an int or a
    # NovElem with no floor, on the catalog, the depth-sensitive family
    # and the twisted tori, under every flavor, zero and nonzero classes
    rng = random.Random(16180)
    seen = 0
    for d in _corpus():
        n = len(d.basis_forms)
        nonzero = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                        for _ in range(n))
        for flavor in ("trivial", "unit-rep", "exp", "nov"):
            for cls in ((F(0),) * n, nonzero):
                try:
                    chain = build_complex(d, LocalSystem.named(flavor, cls))
                except MissingUnitTag:
                    continue
                for C in (chain, dualize(chain)):
                    for D in (C, chains.reduce(C)):
                        for e in (e for m in D.diffs for row in m.data
                                  for e in row.values()):
                            assert type(e) is int or (
                                type(e) is NovElem and e.floor is None), \
                                (d.name, flavor, cls, e)
                            seen += type(e) is NovElem
    assert seen > 1000, seen


def test_novikov_depth_is_counted_in_powers_of_u():
    # the row (−2u⁻¹, 2 − u⁻⁴) over u = t^(1/3): at t-depth 1/2 the
    # Novikov loop completes on the image, and so it does over ℤ[u, u⁻¹]
    # at u-depth 3/2; read as u-depth 1/2 it gets stuck
    flows = ([FlowLine("q", "p", -1, (F(1, 3),))] * 2
             + [FlowLine("r", "p", 1, (F(0),))] * 2
             + [FlowLine("r", "p", -1, (F(4, 3),))])
    points = (CriticalPoint("p", 0), CriticalPoint("q", 1),
              CriticalPoint("r", 1))
    d = MorseDatum("depth", 1, ("x",), points, tuple(flows))
    C = build_complex(d, LocalSystem.nov((1,)))
    assert C.scale == 3
    got = homology(C, depth=F(1, 2))
    assert got == homology(image_complex(C), depth=F(1, 2))
    assert got.complete and got.betti == (0, 1)
    assert nov_reduce(C.diffs[0], depth=F(1, 2)).status == "stuck"


def test_specialised_leftover_has_no_unit():
    # the pass over ℤ[u, u⁻¹] leaves no unit ±u^k, and the units ±t^a of
    # either image are the images of the ±u^k, so a second pass on a
    # specialised leftover would cancel nothing: one pass over ℤ[u, u⁻¹]
    # is the whole unit reduction
    rng = random.Random(57721)
    for d in _corpus():
        n = len(d.basis_forms)
        nonzero = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                        for _ in range(n))
        for flavor in ("exp", "nov"):
            for cls in ((F(0),) * n, nonzero):
                chain = build_complex(d, LocalSystem.named(flavor, cls))
                for C in (chain, dualize(chain)):
                    for U in C.diffs:
                        rest = specialise(cancel_units(U)[1], C.scale)
                        assert not [e for row in rest.data
                                    for e in row.values()
                                    if _is_unit(e)], rest
                        assert cancel_units(rest) == ((), rest)


@pytest.mark.parametrize("flavor", ["exp", "nov"])
@pytest.mark.parametrize("cls", [(1, F(1, 3)), (0, 0)])
def test_one_unit_pass_per_twisted_boundary(monkeypatch, flavor, cls):
    # reduce hands each boundary over ℤ[u, u⁻¹] to the unit pass once,
    # top-down: the top boundary as stored, and the one below it less the
    # cells of their shared degree that the top pass paired, which are
    # its columns for chains and cochains alike; homology runs the pass
    # through reduce only, and its leaves get the reduced boundaries; the
    # pass is counted wherever the package binds it
    assert not hasattr(chains, "specialise")
    calls, leaves = [], []
    original = linalg.cancel_units

    def counted(A):
        calls.append((A, original(A)))
        return calls[-1][1]
    for name, module in list(sys.modules.items()):
        if name.startswith("morsetwist") and \
                getattr(module, "cancel_units", None) is original:
            monkeypatch.setattr(module, "cancel_units", counted)
    for leaf in ("rank_expsum", "nov_reduce"):
        monkeypatch.setattr(chains, leaf, lambda A, *args, _leaf=getattr(
            chains, leaf), **kw: leaves.append(A) or _leaf(A, *args, **kw))
    chain = build_complex(cw_to_morse(twisted_torus_cw(4)),
                          LocalSystem.named(flavor, cls))
    for C in (chain, dualize(chain)):
        calls.clear()
        R = chains.reduce(C)
        assert len(calls) == 2
        calls.clear()
        leaves.clear()
        homology(C)
        lower, top = [d for d in C.diffs if any(d.data)]
        assert len(calls) == 2
        (first, (paired, _)), (second, _) = calls
        assert first is top
        assert paired
        assert (second.rows, second.cols) == \
            (lower.rows, lower.cols - len(paired))
        assert R.counts() == (1, 2, 1)
        assert leaves == [d for d in R.diffs if any(d.data)]
        assert len(leaves) == (2 if any(cls) else 0)


def test_replaced_boundaries_are_read_with_the_complex():
    # a complex whose boundaries are swapped for another's answers as that
    # other complex does: no second copy of the boundaries is left behind
    C = build_complex(TORUS, LocalSystem.exp((1, 0)))
    Z = build_complex(TORUS, LocalSystem.exp((0, 0)))
    X = replace(C, diffs=Z.diffs)
    assert image_complex(X) == image_complex(Z)
    assert homology(X) == homology(Z)
    assert homology(X).betti == (1, 2, 1)
    assert homology(C).betti == (0, 0, 0)
    # boundaries over ℤ[u, u⁻¹] travel with the scale that reads them
    W = build_complex(TORUS, LocalSystem.exp((F(1, 2), 0)))
    assert C.scale != W.scale
    Y = replace(C, diffs=W.diffs, scale=W.scale)
    assert Y == W
    assert homology(Y) == homology(W)
    assert image_complex(replace(C, diffs=W.diffs)) != image_complex(W)
    # an integer complex has no scale, and a twisted one an int scale >= 1
    for regime, scale in ((INT, 1), (EXPSUM, None), (NOV, None), (NOV, 0),
                          (NOV, F(2)), (EXPSUM, True)):
        with pytest.raises(ValueError):
            replace(Z, regime=regime, scale=scale)


@pytest.mark.parametrize("flavor", ["exp", "nov"])
@pytest.mark.parametrize("name, flip, cls", [
    ("rp2", 2, (1,)),                       # every exponent 0: int entries
    ("genus2", 9, (1, F(1, 2), 0, -1)),
])
def test_boundary_squared_over_u_reads_as_its_image(flavor, name, flip, cls):
    # one flipped flow sign: the check over ℤ[u, u⁻¹] reports the image's
    # first violation, with the value as the image shows it
    d = get_example(name).datum
    flows = list(d.flows)
    flows[flip] = replace(flows[flip], sign=-flows[flip].sign)
    C = build_complex(replace(d, flows=tuple(flows)),
                      LocalSystem.named(flavor, cls))
    for X in (C, dualize(C)):
        bad = validate_complex(X)
        assert bad is not None
        assert bad == validate_complex(image_complex(X))


def test_stuck_degree_over_u_reads_as_its_image():
    # the unit q2 -> p2 is cancelled over ℤ[u, u⁻¹]; beside it, 2 - t^(-1)
    # leaves the Novikov leaf stuck, and only degree 0, the one that
    # boundary maps into, is stuck, as in the image's reduction
    points = (CriticalPoint("p", 0), CriticalPoint("p2", 0),
              CriticalPoint("q", 1), CriticalPoint("q2", 1))
    flows = (FlowLine("q", "p", 1, periods=(0,)),
             FlowLine("q", "p", 1, periods=(0,)),
             FlowLine("q", "p", -1, periods=(1,)),
             FlowLine("q2", "p2", 1, periods=(0,)))
    d = MorseDatum("stuck-beside-a-unit", 1, ("theta",), points, flows)
    C = build_complex(d, LocalSystem.nov((1,)))
    S = homology(C)
    assert [s.status for s in S.degrees] == ["stuck", "complete"]
    assert S.betti == (0, 0)
    assert S == homology(image_complex(C))


def _no_worse(got, ref, full):
    # every Betti number is the reference's, since both read exact ranks;
    # a degree that the per-matrix reference completes is completed with
    # the same answer; one it leaves stuck may complete, and then gives the
    # reference's answer at the full budget wherever that one is complete
    moved = 0
    for g, r, f in zip(got.degrees, ref.degrees, full.degrees, strict=True):
        assert g.betti == r.betti == f.betti
        if r.status == "complete":
            assert g == r
        elif g.status == "complete":
            moved += 1
            assert f.status == "stuck" or g == f
    return moved


def test_whole_complex_pass_equals_per_matrix_reference():
    # the unit pass across the whole complex drops from each boundary the
    # cells the boundary above paired; ranks, torsion and statuses equal
    # the reference that reduces every stored boundary on its own, in all
    # four systems, chains and cochains, Novikov over a depth x max_iter
    # grid; a stuck degree may complete, none may get stuck
    rng = random.Random(14142)
    seen = {INT: 0, EXPSUM: 0, NOV: 0, "stuck": 0, "completed": 0,
            "torsion": 0}
    for d in _corpus():
        n = len(d.basis_forms)
        nonzero = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                        for _ in range(n))
        for flavor in ("trivial", "unit-rep", "exp", "nov"):
            for cls in ((F(0),) * n, nonzero):
                try:
                    chain = build_complex(d, LocalSystem.named(flavor, cls))
                except MissingUnitTag:
                    continue
                for C in (chain, dualize(chain)):
                    full = homology_per_matrix(C)
                    grid = [(16, 10000)]
                    if C.regime == NOV:
                        grid = itertools.product(DEPTHS, MAX_ITERS)
                    for depth, max_iter in grid:
                        got = homology(C, depth, max_iter)
                        ref = homology_per_matrix(C, depth, max_iter)
                        seen["completed"] += _no_worse(got, ref, full)
                        seen["stuck"] += not ref.complete
                        seen["torsion"] += any(map(got.torsion,
                                                   range(C.dimension + 1)))
                    seen[C.regime] += 1
    facets = random_facet_lists(random.Random(17320), 300)
    facets += [freudenthal_torus_facets(3), freudenthal_torus_facets(4),
               freudenthal_torus_facets(3, dim=4)]
    for fl in facets:
        chain = simplicial_boundary(fl)
        for C in (chain, dualize(chain)):
            got = homology(C)
            assert got == homology_per_matrix(C), fl
            seen[INT] += 1
    for fl, betti in zip(facets[-3:], [(1, 3, 3, 1)] * 2 + [(1, 4, 6, 4, 1)]):
        assert homology(simplicial_boundary(fl)).betti == betti
    assert min(seen.values()) >= 20, seen


def test_int_universal_coefficients():
    # over ℤ the torsion of H^k is the torsion of H_(k-1), and the free
    # ranks agree: the cochain walk drops rows where the chain walk drops
    # columns, and must land on the same invariant factors
    complexes = []
    for name in [n for n in example_names() if n != "rpn(N)"] + ["rpn(5)"]:
        d = get_example(name).datum
        for flavor in ("trivial", "unit-rep"):
            try:
                complexes.append(build_complex(d, LocalSystem.named(flavor)))
            except MissingUnitTag:
                continue
    facets = random_facet_lists(random.Random(22360), 300)
    facets += [grid_facets(n, klein=True) for n in (3, 5)]
    complexes += [simplicial_boundary(fl) for fl in facets]
    torsion = 0
    for C in complexes:
        assert C.regime == INT
        H, coH = homology(C), homology(dualize(C))
        assert coH.betti == H.betti
        assert coH.torsion(0) == ()
        for k in range(1, C.dimension + 1):
            assert coH.torsion(k) == H.torsion(k - 1), (C.generators, k)
            torsion += bool(H.torsion(k - 1))
    assert torsion >= 5, torsion
