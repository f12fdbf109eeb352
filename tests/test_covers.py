"""Cyclic covers, the paper's Eilenberg theorem: for a class ω whose flow
periods are all integers and a prime p, tag each flow with its period mod
p and lift the datum with ``lift_cover`` over ℤ/p.  Since
ℚ[ℤ/p] = ℚ × ℚ(ζ_p), the cover's rational homology splits into the
untwisted part and the part where t acts as ζ_p:

    b_k(cover; ℚ) = b_k(M; ℚ) + (p − 1)·b_k^exp(M, ω)

whenever Φ_p divides no nonzero minor of ∂_k and ∂_(k+1) over ℤ[t, t⁻¹].
A minor's exponents span at most the sum of its rows' spans, and a
nonzero Laurent polynomial of span below p − 1 has no root ζ_p, so the
identity holds for every prime p with p − 1 above the sum of the row
exponent spans of ∂_k and ∂_(k+1).  Integer Smith forms on the cover,
p times larger, are checked against exponential ranks on M."""

import random
from dataclasses import replace
from functools import reduce
from math import lcm

import pytest

from spaces import product, twisted_torus_cw
from morsetwist.catalog import get_example
from morsetwist.chains import homology
from morsetwist.cw import cw_to_morse
from morsetwist.morse import (
    DeckGroup,
    LocalSystem,
    build_complex,
    flow_periods,
    lift_cover,
)

SPACES = {
    "torus": get_example("torus").datum,
    "genus2": get_example("genus2").datum,
    "klein": get_example("klein").datum,
    "twisted-torus-4": cw_to_morse(twisted_torus_cw(4)),
    "minimal-T4": reduce(product, [get_example("circle-std").datum] * 4),
}
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def integral_class(rng, d):
    """A seeded class whose every flow period is an integer: small
    integers times the lcm of the period denominators."""
    den = lcm(*(p.denominator for f in d.flows for p in f.periods))
    while True:
        cls = tuple(rng.choice((0, 0, 1, -1, 2)) * den for _ in d.basis_forms)
        if any(cls):
            return cls


def cyclic_cover(d, cls, p):
    """``d`` with each flow tagged by its class period mod p, lifted over
    ℤ/p."""
    tags = [str(a.numerator % p) if a.denominator == 1 else None
            for a in flow_periods(d, cls)]
    assert None not in tags, "the class periods must be integers"
    elements = tuple(map(str, range(p)))
    group = DeckGroup(elements, {(a, b): str((int(a) + int(b)) % p)
                                 for a in elements for b in elements})
    flows = tuple(replace(f, deck_tag=tag) for f, tag in zip(d.flows, tags))
    return lift_cover(replace(d, flows=flows, deck_group=group))


def row_spans(C):
    """The sum of the row exponent spans of each boundary ∂_(k+1) =
    ``C.diffs[k]``; an int entry has exponent 0."""
    def exponents(e):
        return [0] if type(e) is int else [x for _, x in e.terms]
    out = []
    for m in C.diffs:
        total = 0
        for row in m.data:
            xs = [x for e in row.values() for x in exponents(e)]
            total += max(xs) - min(xs) if xs else 0
        out.append(total)
    return out


def bound(spans, k):
    """The sum of the spans of ∂_k and ∂_(k+1), 0 where one is absent."""
    return sum(spans[j] for j in (k - 1, k) if 0 <= j < len(spans))


@pytest.mark.parametrize("name", SPACES)
def test_cyclic_covers_follow_eilenberg(name):
    d = SPACES[name]
    rng = random.Random(f"covers:{name}")
    trivial = homology(build_complex(d, LocalSystem.trivial())).betti
    checked, skipped = 0, []
    for cls in [tuple(0 for _ in d.basis_forms)] + [
            integral_class(rng, d) for _ in range(2)]:
        C = build_complex(d, LocalSystem.exp(cls))
        assert C.scale == 1
        twisted = homology(C).betti
        spans = row_spans(C)
        for p in PRIMES:
            degrees = [k for k in range(d.dimension + 1)
                       if p - 1 > bound(spans, k)]
            skipped += [(cls, p, k) for k in range(d.dimension + 1)
                        if k not in degrees]
            if not degrees:
                continue
            cover = homology(build_complex(cyclic_cover(d, cls, p),
                                           LocalSystem.trivial())).betti
            for k in degrees:
                assert cover[k] == trivial[k] + (p - 1) * twisted[k], \
                    (name, cls, p, k, cover, trivial, twisted)
                checked += 1
    # some degrees are skipped, and exactly those whose bound the prime
    # does not clear
    assert skipped and all(p - 1 <= bound(row_spans(build_complex(
        d, LocalSystem.exp(cls))), k) for cls, p, k in skipped)
    assert checked >= 3 * (d.dimension + 1), (name, checked)


@pytest.mark.parametrize("p", [7, 13])
def test_genus2_cover_is_riemann_hurwitz(p):
    # an unbranched p-fold cover of the genus-2 surface has genus p + 1, so
    # b_1 = 2p + 2 = 4 + (p − 1)·2, with b_1^exp = 2 under a nonzero class
    d = SPACES["genus2"]
    cls = (2, 0, 0, 0)
    assert homology(build_complex(d, LocalSystem.exp(cls))).betti == (0, 2, 0)
    assert p - 1 > bound(row_spans(build_complex(d, LocalSystem.exp(cls))), 1)
    cover = homology(build_complex(cyclic_cover(d, cls, p),
                                   LocalSystem.trivial()))
    assert cover.betti == (1, 2 * p + 2, 1) and cover.complete
