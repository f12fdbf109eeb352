from fractions import Fraction as F

import pytest
from conftest import twisted_torus_cw

from morsetwist.chains import (
    ChainComplex,
    dualize,
    euler_cells,
    euler_homology,
    homology,
    validate_complex,
)
from morsetwist.cw import steenrod_boundary
from morsetwist.errors import Indeterminate, InvalidComplex
from morsetwist.linalg import Matrix
from morsetwist.morse import LocalSystem
from morsetwist.rings import ExpSum, NovElem


def int_complex(gens, mats):
    diffs = tuple(Matrix.from_rows(m) if m
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
    e = ExpSum([(1, F(-1, 2)), (-1, F(1, 2))])
    C = ChainComplex(regime="EXPSUM", generators=(("p",), ("q",)),
                     diffs=(Matrix.from_rows([[e]]),))
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
    assert D.diffs[0].entries == [[1], [-1]]
    assert homology(C).betti == homology(D).betti


def test_dualize_inverts_nonzero_entries_only(monkeypatch):
    C = steenrod_boundary(twisted_torus_cw(4), LocalSystem.exp((F(1), F(-1, 3))))
    # the expected dual, built from the dense view: transpose, invert all
    before = [[[e.invert_exponents() for e in col] for col in zip(*d.entries)]
              for d in C.diffs]
    calls = []
    invert = ExpSum.invert_exponents
    monkeypatch.setattr(ExpSum, "invert_exponents",
                        lambda e: calls.append(e) or invert(e))
    D = dualize(C)
    nonzero = sum(1 for d in C.diffs for row in d.entries for e in row if e)
    assert len(calls) == nonzero < sum(d.rows * d.cols for d in C.diffs)
    assert [d.entries for d in D.diffs] == before
    assert all(e for e in calls)


def test_nov_homology_with_torsion():
    e = NovElem([(-2, F(0))])
    C = ChainComplex(regime="NOV", generators=(("p",), ("q",)),
                     diffs=(Matrix.from_rows([[e]]),))
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
    from morsetwist.chains import DegreeSummary, HomologySummary
    s = HomologySummary(regime="NOV", degrees=(
        DegreeSummary(betti=1), DegreeSummary(betti=0, status="stuck")))
    with pytest.raises(Indeterminate):
        euler_homology(s)


def test_ascending_torsion_bookkeeping():
    # ascending complex with delta_0 = [2]: H^1 has Z/2 torsion
    C = ChainComplex(regime="INT", generators=(("p",), ("q",)),
                     diffs=(Matrix.from_rows([[2]]),), ascending=True)
    s = homology(C)
    assert s.betti == (0, 0)
    assert s.torsion(1) == (2,)
    assert s.torsion(0) == ()
