"""Künneth on products of Morse data: the homology of ``spaces.product(a,
b)`` against the homology of its factors.  Over ℤ, H_n(A × B) is the sum
of H_i(A) ⊗ H_j(B) over i + j = n plus Tor(H_i(A), H_j(B)) over
i + j = n − 1, and H^n(A × B) the sum of H^i(A) ⊗ H^j(B) over i + j = n
plus Tor(H^i(A), H^j(B)) over i + j = n + 1; over the fraction field of
the exponential regime, Betti numbers convolve, of chains and of
cochains.  The Novikov ring is a PID, and the Novikov complex of a
product under the joined class is the tensor product of its factors'
over it, so the same Künneth formula holds there, with Nov/c in place of
ℤ/c; it is checked wherever every summary is complete.  Triples are
products of a pair and a third factor.  The grid triangulations fill the
unit pass with units."""

import random
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest

from spaces import grid_facets, product
from morsetwist.catalog import get_example
from morsetwist.chains import homology
from morsetwist.cw import cw_to_morse, from_simplicial
from morsetwist.morse import LocalSystem, build_cochain, build_complex

SMALL = ("circle-std", "rp2", "klein", "torus")  # triples of 64 cells at most
SPACES = {name: get_example(name).datum for name in SMALL}
SPACES.update({f"grid-{kind}-{n}": cw_to_morse(from_simplicial(
    grid_facets(n, kind == "klein")))
    for n in (3, 4) for kind in ("torus", "klein")})

NOV_SPACES = {**SPACES, "genus2": get_example("genus2").datum}
BUILD = {"chains": build_complex, "cochains": build_cochain}
TOR_SHIFT = {"chains": 1, "cochains": -1}


def _prime_powers(q):
    """{p: p^e} over the prime powers of q > 1."""
    out, p = {}, 2
    while q > 1:
        if p * p > q:
            p = q
        while q % p == 0:
            out[p] = out.get(p, 1) * p
            q //= p
        p += 1
    return out


def invariant_factors(orders):
    """The invariant factors d1 | d2 | ..., all above 1, of the sum of the
    cyclic groups ℤ/q over ``orders``, from its primary decomposition."""
    by_prime = {}
    for q in orders:
        for p, power in _prime_powers(q).items():
            by_prime.setdefault(p, []).append(power)
    factors = [1] * max(map(len, by_prime.values()), default=0)
    for powers in by_prime.values():
        for k, power in enumerate(sorted(powers, reverse=True)):
            factors[-1 - k] *= power
    return tuple(factors)


def kunneth_int(ha, hb, shift=1):
    """(betti, invariant factors) per degree of A × B from those of A and
    B, each a list of (betti, torsion) per degree; Tor lands ``shift``
    degrees above i + j (1 for homology, −1 for cohomology)."""
    top = len(ha) + len(hb) - 1
    betti, orders = [0] * top, [[] for _ in range(top)]
    for i, (ba, ta) in enumerate(ha):
        for j, (bb, tb) in enumerate(hb):
            betti[i + j] += ba * bb
            orders[i + j] += list(ta) * bb + list(tb) * ba
            torsion = [gcd(s, t) for s in ta for t in tb]
            orders[i + j] += torsion
            if torsion:
                orders[i + j + shift] += torsion
    return [(b, invariant_factors(q for q in qs if q > 1))
            for b, qs in zip(betti, orders)]


def convolve(ba, bb):
    out = [0] * (len(ba) + len(bb) - 1)
    for i, x in enumerate(ba):
        for j, y in enumerate(bb):
            out[i + j] += x * y
    return out


def groups(d, sys, direction):
    summary = homology(BUILD[direction](d, sys))
    assert summary.complete
    return [(s.betti, s.torsion) for s in summary.degrees]


def random_class(rng, d):
    return tuple(rng.choice([0, 0, 1, -1, F(1, 2), F(-2, 3), 2])
                 for _ in d.basis_forms)


@pytest.mark.parametrize("seed", [1, 2])
def test_products_follow_kunneth(seed):
    rng = random.Random(f"kunneth:{seed}")
    names = sorted(SPACES)
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(8)]
    for na, nb in pairs:
        a, b = SPACES[na], SPACES[nb]
        P = product(a, b)
        ca, cb = random_class(rng, a), random_class(rng, b)
        for direction in BUILD:
            trivial = LocalSystem.trivial()
            assert groups(P, trivial, direction) == kunneth_int(
                groups(a, trivial, direction), groups(b, trivial, direction),
                TOR_SHIFT[direction]), (na, nb, direction)
            betti = [[x for x, _ in groups(d, LocalSystem.exp(c), direction)]
                     for d, c in ((a, ca), (b, cb))]
            assert [x for x, _ in groups(P, LocalSystem.exp(ca + cb),
                                         direction)] == convolve(*betti), \
                (na, nb, ca, cb, direction)


def test_kunneth_oracle_on_known_products():
    # the oracle itself, on groups worked out by hand: RP² × RP² has
    # H_1 = (ℤ/2)², H_2 = ℤ/2 (⊗) and H_3 = ℤ/2 (Tor), and
    # H^2 = (ℤ/2)², H^3 = ℤ/2 (Tor) and H^4 = ℤ/2 (⊗); ℤ/4 ⊕ ℤ/6 is
    # ℤ/2 ⊕ ℤ/12
    rp2 = [(1, ()), (0, (2,)), (0, ())]
    assert kunneth_int(rp2, rp2) == [(1, ()), (0, (2, 2)), (0, (2,)),
                                     (0, (2,)), (0, ())]
    rp2_co = [(1, ()), (0, ()), (0, (2,))]
    assert kunneth_int(rp2_co, rp2_co, -1) == [
        (1, ()), (0, ()), (0, (2, 2)), (0, (2,)), (0, (2,))]
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([]) == ()
    assert groups(product(SPACES["rp2"], SPACES["rp2"]),
                  LocalSystem.trivial(), "chains") == kunneth_int(rp2, rp2)


def kunneth(factors, shift):
    """``kunneth_int`` folded over the groups of each factor in turn."""
    return reduce(lambda h, g: kunneth_int(h, g, shift), factors)


@pytest.mark.parametrize("seed", [1, 2])
def test_triples_follow_kunneth_over_the_integers(seed):
    rng = random.Random(f"kunneth-triples:{seed}")
    trivial = LocalSystem.trivial()
    for _ in range(4):
        names = [rng.choice(SMALL) for _ in range(3)]
        factors = [SPACES[n] for n in names]
        P = reduce(product, factors)
        for direction in BUILD:
            assert groups(P, trivial, direction) == kunneth(
                [groups(x, trivial, direction) for x in factors],
                TOR_SHIFT[direction]), (names, direction)


def nov_groups(d, cls, direction):
    """(betti, torsion) per degree under ``nov``, None when a degree is
    stuck."""
    summary = homology(BUILD[direction](d, LocalSystem.nov(cls)))
    return [(s.betti, s.torsion) for s in summary.degrees] \
        if summary.complete else None


@pytest.mark.parametrize("seed", [1, 2])
def test_products_follow_kunneth_over_the_novikov_ring(seed):
    # pairs may take the genus-2 surface, whose Novikov H_1 has rank 2
    # under a nonzero class; a factor's class is zero one time in three,
    # so that its homology, torsion included, survives into the product
    rng = random.Random(f"kunneth-nov:{seed}")
    complete, torsion, betti = 0, 0, 0
    for arity in (2, 2, 2, 2, 2, 3, 3, 3):
        pool = SMALL + ("genus2",) * (arity == 2)
        names = [rng.choice(pool) for _ in range(arity)]
        factors = [NOV_SPACES[n] for n in names]
        classes = [tuple(0 for _ in x.basis_forms) if rng.random() < 1 / 3
                   else random_class(rng, x) for x in factors]
        P = reduce(product, factors)
        for direction in BUILD:
            parts = [nov_groups(x, c, direction)
                     for x, c in zip(factors, classes)]
            got = nov_groups(P, sum(classes, ()), direction)
            if got is None or None in parts:
                continue
            assert got == kunneth(parts, TOR_SHIFT[direction]), \
                (names, classes, direction)
            complete += 1
            torsion += any(t for _, t in got)
            betti += any(b for b, _ in got)
    assert complete >= 10 and torsion >= 2 and betti >= 4, \
        (complete, torsion, betti)
