"""Properties of ``chains.reduce``, the one unit pass across a complex:
the reduced complex is a complex, holds no unit, keeps the Euler number,
is its own reduction, has the input's homology (against the reference
that reduces each boundary on its own), and its cell counts bound every
complete Novikov result; reducing commutes with dualizing, which keeps
every matrix's shape; and a complex with no unit is its own reduction."""

import random
from fractions import Fraction as F

import pytest
from conftest import homology_per_matrix, random_facet_lists
from spaces import grid_facets, twisted_torus_cw

from morsetwist import reduce
from morsetwist.catalog import example_names, get_example
from morsetwist.chains import (
    NOV,
    dualize,
    euler_cells,
    homology,
    validate_complex,
)
from morsetwist.cw import cw_to_morse, from_simplicial, simplicial_boundary
from morsetwist.errors import MissingUnitTag
from morsetwist.invariants import check_inequalities, novikov_numbers
from morsetwist.linalg import _is_unit, snf_int
from morsetwist.morse import LocalSystem, build_complex

SYSTEMS = ("trivial", "unit-rep", "exp", "nov")


def _data(rng):
    """The catalog, the data of seeded random facet lists, and twisted tori,
    each with one seeded random class beside the zero class."""
    names = [n for n in example_names() if n != "rpn(N)"] + ["rpn(3)",
                                                             "rpn(4)"]
    data = [get_example(n).datum for n in names]
    data += [cw_to_morse(from_simplicial(fl))
             for fl in random_facet_lists(rng, 40)]
    data += [cw_to_morse(twisted_torus_cw(n)) for n in range(3, 7)]
    for d in data:
        n = len(d.basis_forms)
        yield d, (F(0),) * n
        if n:
            yield d, tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                           for _ in range(n))


def _corpus():
    """(datum or None, class, complex): every datum of ``_data`` in all four
    systems, and the integer boundaries of more random facet lists, each as
    chains and as cochains."""
    rng = random.Random(31337)
    for d, cls in _data(rng):
        for flavor in SYSTEMS:
            try:
                chain = build_complex(d, LocalSystem.named(flavor, cls))
            except MissingUnitTag:
                continue
            yield d, cls, chain
            yield d, cls, dualize(chain)
    for fl in random_facet_lists(rng, 60):
        chain = simplicial_boundary(fl)
        yield None, None, chain
        yield None, None, dualize(chain)


def test_reduced_complex_properties():
    seen = {"INT": 0, "EXPSUM": 0, "NOV": 0, "cochains": 0, "smaller": 0,
            "entries": 0, "inequalities": 0}
    for d, cls, C in _corpus():
        R = reduce(C)
        assert validate_complex(R) is None
        assert (R.regime, R.ascending, R.scale) == \
            (C.regime, C.ascending, C.scale)
        assert all(set(r) <= set(g) for r, g in zip(R.generators,
                                                     C.generators))
        assert not [e for M in R.diffs for row in M.data
                    for e in row.values() if _is_unit(e)], R
        assert euler_cells(R) == euler_cells(C)
        assert reduce(R) == R
        got, ref = homology(C), homology_per_matrix(C)
        for g, r in zip(got.degrees, ref.degrees, strict=True):
            if r.status == "complete":
                assert g == r, (C.generators, cls)
        if C.regime == NOV and not C.ascending:
            nn = novikov_numbers(d, cls)
            if nn.complete:
                assert check_inequalities(R.counts(), nn).passed, \
                    (d.name, cls, R.counts(), nn)
                seen["inequalities"] += 1
        seen[C.regime] += 1
        seen["cochains"] += C.ascending
        seen["smaller"] += R.counts() != C.counts()
        seen["entries"] += any(any(M.data) for M in R.diffs)
    assert min(seen.values()) >= 10, seen


def test_reduce_commutes_with_dualize():
    # u ↦ u⁻¹ is a ring automorphism that maps units to units and keeps
    # every zero, so the unit pass takes the same pivots on a chain complex
    # and on its dual, whose matrices have the chain shapes
    seen = {"INT": 0, "EXPSUM": 0, "NOV": 0, "paired": 0}
    for _, _, C in _corpus():
        if C.ascending:
            continue
        D = dualize(C)
        assert [(M.rows, M.cols) for M in D.diffs] == \
            [(M.rows, M.cols) for M in C.diffs]
        R = reduce(C)
        assert reduce(D) == dualize(R), C.generators
        seen[C.regime] += 1
        seen["paired"] += R is not C
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("name, flavor, cls", [
    ("rpn(4)", "trivial", None),
    ("genus2", "exp", (1, F(1, 2), 0, -1)),
], ids=["rp4-trivial", "genus2-exp"])
def test_unit_free_complex_is_its_own_reduction(name, flavor, cls):
    # entries 0 and ±2 on RP⁴, 1 − t^a on genus 2: no unit, so the pass
    # takes no pivot, builds no leftover, and reduce hands C back
    C = build_complex(get_example(name).datum, LocalSystem.named(flavor, cls))
    assert not [e for M in C.diffs for row in M.data for e in row.values()
                if _is_unit(e)]
    assert any(any(M.data) for M in C.diffs)
    for X in (C, dualize(C)):
        assert reduce(X) is X


@pytest.mark.parametrize("n", [6, 10, 30])
@pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
def test_grid_surfaces_reduce_to_one_two_one(n, klein):
    # the minimal complex of a closed surface of Euler number 0: ∂₁ = 0,
    # and ∂₂ = 0 on the torus; on the Klein bottle ∂₂ holds ±2 only, with
    # the one invariant factor 2
    C = simplicial_boundary(grid_facets(n, klein))
    assert reduce(dualize(C)) == dualize(reduce(C))
    for X in (C, dualize(C)):
        R = reduce(X)
        assert R.counts() == (1, 2, 1)
        assert not any(R.diffs[0].data)
        assert {abs(e) for row in R.diffs[1].data for e in row.values()} \
            == ({2} if klein else set())
        assert snf_int(R.diffs[1]).torsion == ((2,) if klein else ())
        assert homology(R) == homology(X)


@pytest.mark.parametrize("n", [4, 8, 20])
@pytest.mark.parametrize("flavor", ["exp", "nov"])
def test_twisted_torus_reduces_to_one_two_one(n, flavor):
    # every reduced entry is ±(u^a - u^b), zero under the zero class
    d = cw_to_morse(twisted_torus_cw(n))
    for cls in ((1, F(1, 3)), (0, 0), (F(-2, 3), 0)):
        chain = build_complex(d, LocalSystem.named(flavor, cls))
        assert reduce(dualize(chain)) == dualize(reduce(chain))
        for C in (chain, dualize(chain)):
            R = reduce(C)
            assert R.counts() == (1, 2, 1)
            for e in (e for M in R.diffs for row in M.data
                      for e in row.values()):
                assert sorted(c for c, _ in e.terms) == [-1, 1], e
            assert any(any(M.data) for M in R.diffs) == any(cls)
            assert homology(R) == homology(C)
