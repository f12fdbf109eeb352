"""Identities that link one coefficient regime to another, over the catalog
and twisted triangulated tori under random classes.

ℤ[t^ℚ] lies in the Novikov field, and t ↦ t⁻¹ carries the exponential sign
convention onto the Novikov one, so the Novikov b_k is the exponential
rank of H_k for the same class, at any depth and budget.  A coboundary
is its boundary transposed under the ring automorphism t ↦ t⁻¹, which
keeps every rank, so exponential cohomology has the ranks of homology,
and the parallel-form verdict read off the chain complex is the one read
off the cochain complex.
"""

from fractions import Fraction

from spaces import twisted_torus_cw
from hypothesis import given, settings
from hypothesis import strategies as st

from morsetwist.catalog import example_names, get_example
from morsetwist.chains import euler_cells, euler_homology, homology
from morsetwist.cw import cw_to_morse
from morsetwist.invariants import novikov_numbers, parallel_form_obstruction
from morsetwist.morse import LocalSystem, build_cochain, build_complex

DATA = ([get_example(n).datum for n in example_names() if n != "rpn(N)"]
        + [get_example("rpn(3)").datum]
        + [cw_to_morse(twisted_torus_cw(n)) for n in (2, 3, 4)])

RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def datum_and_class():
    return st.sampled_from(DATA).flatmap(lambda d: st.tuples(
        st.just(d), st.tuples(*[RATIONALS] * len(d.basis_forms))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(datum_and_class())
def test_novikov_b_is_the_exponential_rank(case):
    d, cls = case
    exp = homology(build_complex(d, LocalSystem.exp(cls)))
    # the smallest budget leaves degrees stuck, whose b is compared too
    for budget in ({}, {"depth": 1, "max_iter": 0}):
        nn = novikov_numbers(d, cls, **budget)
        assert nn.b == exp.betti, (d.name, cls, budget, nn.status)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(datum_and_class())
def test_exponential_cohomology_has_the_ranks_of_homology(case):
    d, cls = case
    sys = LocalSystem.exp(cls)
    cochain = build_cochain(d, sys)
    chains = homology(build_complex(d, sys))
    cochains = homology(cochain)
    assert cochains.betti == chains.betti, (d.name, cls)
    if any(cls):
        assert parallel_form_obstruction(cls, chains) == \
            parallel_form_obstruction(cls, cochains), (d.name, cls)
        assert euler_homology(chains) == euler_cells(cochain), (d.name, cls)
