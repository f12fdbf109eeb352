"""Closed forms on minimal complexes, whose boundaries hold no unit
incidence, so the unit pass cancels nothing and every boundary reaches
its regime's leaf whole.

Minimal T^d is the product of d copies of ``circle-std``: every entry is
a monomial times ±(u^k − 1).  Its homology is C(d, k) in degree k under the trivial
system and under the zero class.  Under a nonzero class such as
(1, 1/3, 1/5, …) it is 0 in every degree: a circle factor on which the
class is nonzero has boundary u^j·(u^k − 1), k ≠ 0, a unit of the Novikov
ring and of the fraction field, so it has no homology there, and by
Künneth neither has the product.  The cyclic datum's boundary is
(1 − u)·I + 2·P, P the cyclic shift of n points."""

from fractions import Fraction as F
from functools import reduce
from math import comb

import pytest

from spaces import cyclic_datum, product
from morsetwist.catalog import get_example
from morsetwist.chains import homology
from morsetwist.morse import LocalSystem, build_cochain, build_complex

CIRCLE = get_example("circle-std").datum
BUILD = {"chains": build_complex, "cochains": build_cochain}


@pytest.mark.parametrize("side", BUILD)
@pytest.mark.parametrize("d", [3, 4, 5])
def test_minimal_torus_closed_forms(d, side):
    torus = reduce(product, [CIRCLE] * d)
    zero = (F(0),) * d
    generic = tuple(F(1, 2 * i + 1) for i in range(d))
    binomial = tuple(comb(d, k) for k in range(d + 1))
    cases = [(LocalSystem.trivial(), binomial),
             (LocalSystem.exp(zero), binomial),
             (LocalSystem.nov(zero), binomial),
             (LocalSystem.exp(generic), (0,) * (d + 1)),
             (LocalSystem.nov(generic), (0,) * (d + 1))]
    for system, betti in cases:
        s = homology(BUILD[side](torus, system))
        assert s.betti == betti, (system, s)
        assert s.complete and not any(g.torsion for g in s.degrees), \
            (system, s)


def test_cyclic_datum_closed_forms():
    d = cyclic_datum(20)
    s = homology(build_complex(d, LocalSystem.trivial()))
    # u = 1: the boundary is 2·P, so H_0 = (ℤ/2)^20
    assert s.betti == (0, 0) and s.torsion(0) == (2,) * 20 and s.complete
    s = homology(build_complex(d, LocalSystem.exp((F(1),))))
    assert s.betti == (0, 0) and s.complete
    # The determinant (1 − u⁻¹)^20 − 2^20 is nonzero, so b = (0, 0).  Its
    # top coefficient 1 − 2^20 is not ±1, and in the PID that the Novikov
    # ring is over u = t^(1/L), a nonzero non-unit f gives one cyclic
    # summand Nov/(f): q = (1, 0).  That summand is not a monomial times
    # a unit, so the leaf reports degree 0 as stuck.
    s = homology(build_complex(d, LocalSystem.nov((F(1),))))
    assert s.betti == (0, 0)
    assert [g.status for g in s.degrees] == ["stuck", "complete"]
    # cochains: Novikov homology for −ω, whose determinant
    # (1 − u)^20 − 2^20 has top coefficient 1, a unit, so H^* = 0
    s = homology(build_cochain(d, LocalSystem.trivial()))
    assert s.betti == (0, 0) and s.torsion(1) == (2,) * 20 and s.complete
    for system in (LocalSystem.exp((F(1),)), LocalSystem.nov((F(1),))):
        s = homology(build_cochain(d, system))
        assert s.betti == (0, 0) and s.complete
        assert not any(g.torsion for g in s.degrees)
