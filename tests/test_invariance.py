"""Oracles on twisted triangulations and double covers: the trivial Betti
numbers of a ℤ/2 lift are the trivial plus the sign-system Betti numbers
of the base, and homology, cohomology and Novikov numbers of a twisted
torus are unchanged by a gauge transform, a potential shift and a
rescaling of its periods."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from spaces import twisted_torus_cw

from morsetwist.catalog import get_example
from morsetwist.chains import homology
from morsetwist.cw import cw_to_morse
from morsetwist.invariants import novikov_numbers
from morsetwist.morse import (
    DeckGroup,
    LocalSystem,
    build_cochain,
    build_complex,
    gauge_transform,
    lift_cover,
    potential_shift,
    rescale_datum,
)

Z2 = DeckGroup(elements=("e", "s"),
               table={("e", "e"): "e", ("e", "s"): "s",
                      ("s", "e"): "s", ("s", "s"): "e"})
# the homomorphisms ℤ² → ℤ/2 that read a torus period's parity
PARITIES = {"first": lambda a, b: a, "second": lambda a, b: b,
            "sum": lambda a, b: a + b}


def parity_torus(n, parity):
    """The n x n twisted torus as a Morse datum whose flows of odd
    ``parity`` carry deck tag s and unit tag -1, the rest e and +1: one
    ℤ² → ℤ/2 homomorphism of the transports, so both tags are local
    systems, and the one the other lifts."""
    d = cw_to_morse(twisted_torus_cw(n))
    flows = []
    for f in d.flows:
        odd = PARITIES[parity](*f.periods) % 2 == 1
        flows.append(replace(f, unit_tag=-1 if odd else 1,
                             deck_tag="s" if odd else "e"))
    return replace(d, flows=tuple(flows), deck_group=Z2)


def _lift_cases():
    for n in (3, 4, 5):
        for parity in PARITIES:
            yield pytest.param(parity_torus(n, parity),
                               id=f"torus-{n}-{parity}")
    for n in range(1, 7):
        d = get_example(f"rpn({n})").datum
        flows = tuple(replace(f, deck_tag="s" if f.unit_tag == -1 else "e")
                      for f in d.flows)
        yield pytest.param(replace(d, flows=flows, deck_group=Z2),
                           id=f"rpn({n})")
    d = get_example("rp2-lift").datum
    flows = tuple(replace(f, unit_tag=-1 if f.deck_tag == "s" else 1)
                  for f in d.flows)
    yield pytest.param(replace(d, flows=flows), id="rp2-lift")


@pytest.mark.parametrize("d", _lift_cases())
def test_z2_lift_betti_is_trivial_plus_sign_system(d):
    # over ℚ the regular representation of ℤ/2 is the trivial plus the
    # sign representation, so the double cover's rational homology splits
    # degree by degree; torsion does not (2 is not invertible), so only
    # the Betti numbers are compared
    def betti(datum, sys):
        return homology(build_complex(datum, sys)).betti
    base = (betti(d, LocalSystem.trivial()), betti(d, LocalSystem.unit_rep()))
    assert betti(lift_cover(d), LocalSystem.trivial()) == \
        tuple(a + b for a, b in zip(*base)), d.name


def _answers(d, cls):
    nn = novikov_numbers(d, cls)
    return ((homology(build_complex(d, LocalSystem.trivial())),
             homology(build_complex(d, LocalSystem.unit_rep())),
             homology(build_complex(d, LocalSystem.exp(cls))),
             homology(build_cochain(d, LocalSystem.exp(cls)))),
            nn if nn.complete else None)


def test_twisted_torus_answers_survive_gauge_shift_and_rescaling():
    # seeded: random ±1 gauges, random rational potentials and scales, and
    # random classes with denominators up to 4 beside the zero class, on
    # each parity torus of sides 3 and 4; Novikov numbers are compared only
    # where both sides complete
    rng = random.Random(27182)
    seen = {"novikov": 0, "nonzero betti": 0}
    for n in (3, 4):
        for parity in PARITIES:
            d = parity_torus(n, parity)
            ids = [p.id for p in d.points]
            gauge = {p: rng.choice((1, -1)) for p in ids}
            shift = {p: tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(2)) for p in ids}
            scale = F(rng.randint(1, 7), rng.randint(1, 5))
            variants = (gauge_transform(d, gauge), potential_shift(d, shift),
                        rescale_datum(d, scale))
            for cls in [(F(0), F(0))] + [
                    tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                          for _ in range(2)) for _ in range(2)]:
                summaries, nn = _answers(d, cls)
                for v in variants:
                    got, got_nn = _answers(v, cls)
                    assert got == summaries, (n, parity, cls)
                    if nn is not None and got_nn is not None:
                        assert got_nn == nn, (n, parity, cls)
                        seen["novikov"] += 1
                seen["nonzero betti"] += any(s.betti[1] for s in summaries)
    assert min(seen.values()) >= 6, seen
