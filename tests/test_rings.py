import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agrees_with, nov, nov_unit, rescale
from morsetwist import rings
from morsetwist.errors import ZeroElement
from morsetwist.linalg import _unit_inverse
from morsetwist.rings import ExpSum, NovElem, laurent, laurent_image


def test_normalize_cancellation():
    assert ExpSum([(1, F(1, 2)), (-1, F(1, 2))]) == ExpSum.zero()


def test_normalize_circle_boundary():
    e = ExpSum([(1, F(-1, 2)), (-1, F(1, 2))])
    assert e.terms == ((F(-1), F(1, 2)), (F(1), F(-1, 2)))


def test_normalize_merges_duplicates():
    # hand merge: 2 + 3 at exponent 0, plus t
    e = ExpSum([(2, 0), (3, 0), (1, 1)])
    assert e == ExpSum([(1, 1), (5, 0)])
    assert e.render() == "t^(1) + 5"


def test_mul_inverse_monomials():
    assert ExpSum.monomial(1, F(1, 2)) * ExpSum.monomial(1, F(-1, 2)) == ExpSum.one()


def test_mul_difference_of_squares():
    t = ExpSum.monomial(1, 1)
    assert (t - 1) * (t + 1) == t * t - 1


def test_mul_symbolic_shift():
    a = F(7, 3)
    lhs = (ExpSum.monomial(1, a) - ExpSum.monomial(1, a + 1)) * ExpSum.monomial(1, -a)
    assert lhs == ExpSum.one() - ExpSum.monomial(1, 1)


def test_nov_top():
    assert NovElem([(1, F(1, 2)), (-1, F(-1, 2))]).top() == (1, F(1, 2))
    assert NovElem([(-2, F(3))]).top() == (-2, F(3))
    assert NovElem([(7, 0)]).top() == (7, 0)
    with pytest.raises(ZeroElement):
        NovElem.zero().top()


def test_nov_is_unit():
    # a top coefficient ±1 is a unit: its truncated inverse multiplies
    # back to 1 above its floor
    units = [NovElem([(1, F(1, 2)), (-1, F(-1, 2))]),
             NovElem([(-1, F(1, 2)), (-1, F(-1, 2))])]
    for u in units:
        assert nov_unit(u)
        assert agrees_with(u * _unit_inverse(u, F(8)), NovElem.one())
    assert not nov_unit(NovElem([(-2, F(3))]))
    assert not nov_unit(NovElem.zero())


def test_nov_invert_geometric_series():
    u = NovElem([(1, F(1, 2)), (-1, F(-1, 2))])
    inv = _unit_inverse(u, F(5))
    assert inv.terms == tuple((1, F(-1, 2) - k) for k in range(5))
    assert inv.floor == F(-11, 2)


def test_nov_invert_one():
    assert _unit_inverse(NovElem.one(), F(7)).terms == ((1, F(0)),)


def test_nov_invert_negative_unit():
    u = NovElem([(-1, F(1, 2)), (-1, F(-1, 2))])
    inv = _unit_inverse(u, F(3))
    assert inv.terms == ((-1, F(-1, 2)), (1, F(-3, 2)), (-1, F(-5, 2)))
    assert inv.floor == F(-7, 2)
    # multiply back: 1 above the product floor
    prod = u * inv
    assert agrees_with(u * inv, NovElem.one())


def test_nov_invert_truncated_input_keeps_its_floor():
    # 1 + t^(-1) + O(t^(<-2)) agrees with the exact 1 + t^(-1) + t^(-3)
    # above -2, so its inverse is known only above -2 as well
    inv = _unit_inverse(nov([(1, 0), (1, -1)], floor=-2), F(8))
    assert inv.floor == -2
    exact = NovElem([(1, 0), (1, -1), (1, -3)])
    assert agrees_with(inv, _unit_inverse(exact, F(8)))
    assert inv.terms == ((1, F(0)), (-1, F(-1)))


def test_nov_product_floor_follows_the_tops():
    # floor = max(top(a) + floor(b), top(b) + floor(a)) over the factors
    # with a floor; one with no known term tops at its floor
    assert nov((), F(-2)) * laurent(3, 1) == nov((), F(-1))
    assert nov((), F(-2)) * nov((), F(-3)) == nov((), F(-5))
    # (t^2 + t + O(t^(<=0))) * (1 + 2t^(-1) + O(t^(<=-3))): max(-1, 0)
    assert (nov([(1, 2), (1, 1)], F(0)) * nov([(1, 0), (2, -1)], F(-3))
            == nov([(1, 2), (3, 1)], F(0)))
    # an exact zero times anything is the exact zero
    assert NovElem.zero() * nov((), F(-2)) == NovElem.zero()


def test_nov_invert_multiplies_back_to_one_above_its_floor():
    # units ±t^a plus lower terms with non-unit coefficients, exact or
    # truncated, whose exponent gaps have mixed denominators, so an inverse
    # runs to many terms: the product is 1 above its floor
    rng = random.Random(1919)
    longest = 0
    for _ in range(300):
        top = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        terms = [(rng.choice([1, -1]), top)]
        terms += [(rng.choice([-4, -3, -2, 2, 3, 5]),
                   top - F(rng.randint(1, 12), rng.choice([1, 2, 3, 5])))
                  for _ in range(rng.randint(1, 4))]
        floor = rng.choice([None, top - F(rng.randint(2, 9), 2)])
        x = nov(terms, floor)
        depth = rng.choice([F(1, 2), F(3), F(17, 3), F(12)])
        inv = _unit_inverse(x, depth)
        assert agrees_with(x * inv, NovElem.one()), (x, depth)
        longest = max(longest, len(inv.terms))
    assert longest > 100


def test_nov_invert_long_series_closed_form():
    # (1 + u⁻¹)⁻¹ = Σ (−1)^k u^(−k) over ℤ[u, u⁻¹], one term per division
    # step, to a u-depth of 20,000
    inv = _unit_inverse(laurent(1, 0) + laurent(1, -1), F(20000))
    assert inv.terms == tuple(((-1) ** k, -k) for k in range(20000))
    assert inv.floor == -20000


def test_rescale():
    e = ExpSum([(1, 1), (-1, -1)])
    assert rescale(e, 2) == ExpSum([(1, 2), (-1, -2)])
    assert rescale(ExpSum.zero(), F(3, 7)) == ExpSum.zero()
    u = NovElem([(1, F(1, 2)), (-1, F(-1, 2))])
    assert nov_unit(rescale(u, 3))


def test_render_text():
    # the zero, the constant, ±1 coefficients and the floor marker each
    # have one written form
    cases = [
        (ExpSum.zero(), "0"),
        (ExpSum([(1, F(-1, 2)), (-1, F(1, 2))]), "-t^(1/2) + t^(-1/2)"),
        (ExpSum([(F(2, 3), F(5, 7)), (-4, 0), (1, -3)]),
         "2/3*t^(5/7) - 4 + t^(-3)"),
        (nov([(3, F(1, 2)), (-1, F(-2, 3))], floor=F(-5)),
         "3*t^(1/2) - t^(-2/3) + O(t^(<-5))"),
    ]
    for e, text in cases:
        assert e.render() == str(e) == repr(e) == text


rationals = st.fractions(max_denominator=8, min_value=-4, max_value=4)


def expsums():
    return st.lists(st.tuples(rationals, rationals), max_size=4).map(ExpSum)


def novelems(coeff_min=-3, coeff_max=3):
    exps = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
    return st.lists(st.tuples(st.integers(coeff_min, coeff_max), exps),
                    max_size=3).map(NovElem)


@given(expsums(), expsums(), expsums())
@settings(max_examples=100)
def test_expsum_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a * ExpSum.one() == a
    assert (a * b) * c == a * (b * c)


@given(novelems(), novelems())
@settings(max_examples=100)
def test_nov_ring_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a * NovElem.one() == a


@given(novelems(coeff_min=-3, coeff_max=3).filter(nov_unit),
       st.sampled_from([F(3), F(10)]))
@settings(max_examples=100)
def test_nov_invert_roundtrip(u, depth):
    inv = _unit_inverse(u, depth)
    assert agrees_with(u * inv, NovElem.one())


@given(novelems())
@settings(max_examples=100)
def test_nov_unit_agrees_with_bruteforce(e):
    # unit iff a truncated inverse at depth 8 multiplies back to 1
    if nov_unit(e):
        assert agrees_with(e * _unit_inverse(e, F(8)), NovElem.one())
    else:
        if not e.terms:
            return
        c, x = e.top()
        # top coefficient not +-1: no w with top coeff 1/c exists over Z
        assert abs(c) != 1


@given(expsums(), expsums(), st.fractions(min_value=F(1, 8), max_value=4,
                                          max_denominator=8))
@settings(max_examples=100)
def test_rescale_is_ring_hom(a, b, s):
    assert rescale(a * b, s) == rescale(a, s) * rescale(b, s)
    assert rescale(a + b, s) == rescale(a, s) + rescale(b, s)


# --- kernels on canonical terms against the validating constructor ---------

small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# half-integers collide often, so sums cancel and products merge
exponents = st.sampled_from([F(k, 2) for k in range(-4, 5)]) | small_rats
floors = st.none() | st.sampled_from([F(-3), F(-1), F(-1, 2), F(0), F(1)])


def raw_terms(coeffs):
    return st.lists(st.tuples(coeffs, exponents), max_size=5)


exp_sums = raw_terms(small_rats | st.integers(-3, 3)).map(ExpSum)
nov_elems = st.builds(nov, raw_terms(st.integers(-3, 3)), floors)
scales = st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6)


def assert_canonical(x):
    """Distinct Fraction exponents strictly descending, no zero coefficient,
    Fraction (ExpSum) or int (NovElem) coefficients, all above the floor."""
    exps = [e for _, e in x.terms]
    assert all(type(e) is F for e in exps), x.terms
    assert all(hi > lo for hi, lo in zip(exps, exps[1:])), x.terms
    want = F if isinstance(x, ExpSum) else int
    assert all(type(c) is want and c != 0 for c, _ in x.terms), x.terms
    if isinstance(x, NovElem) and x.floor is not None:
        assert type(x.floor) is F
        assert all(e > x.floor for e in exps), (x.terms, x.floor)


def neg(terms):
    return [(-c, e) for c, e in terms]


def products(a, b):
    return [(c1 * c2, e1 + e2) for c1, e1 in a for c2, e2 in b]


def check(got, want):
    assert_canonical(got)
    assert got.terms == want.terms and type(got) is type(want)
    if isinstance(got, NovElem):
        assert got.floor == want.floor


@given(exp_sums, exp_sums, st.integers(-3, 3) | small_rats, scales)
@settings(max_examples=300)
def test_expsum_kernels_equal_raw_reference(a, b, k, s):
    A, B = list(a.terms), list(b.terms)
    check(a + b, ExpSum(A + B))
    check(a - b, ExpSum(A + neg(B)))
    check(a * b, ExpSum(products(A, B)))
    check(-a, ExpSum(neg(A)))
    for got in (a + k, k + a):
        check(got, ExpSum(A + [(k, 0)]))
    check(a - k, ExpSum(A + [(-k, 0)]))
    check(k - a, ExpSum(neg(A) + [(k, 0)]))
    for got in (a * k, k * a):
        check(got, ExpSum(products(A, [(k, 0)])))
    check(a.invert_exponents(), ExpSum([(c, -e) for c, e in A]))
    check(ExpSum.monomial(k, s), ExpSum([(k, s)]))


def _floor(a, b):
    return max((f for f in (a, b) if f is not None), default=None)


@given(nov_elems, nov_elems, st.integers(-3, 3), scales)
@settings(max_examples=300)
def test_novelem_kernels_equal_raw_reference(a, b, k, s):
    A, B = list(a.terms), list(b.terms)
    floor = _floor(a.floor, b.floor)
    check(a + b, nov(A + B, floor))
    check(a - b, nov(A + neg(B), floor))
    prod = a * b
    check(prod, nov(products(A, B), prod.floor))
    check(-a, nov(neg(A), a.floor))
    for got in (a + k, k + a):
        check(got, nov(A + [(k, 0)], a.floor))
    check(a - k, nov(A + [(-k, 0)], a.floor))
    check(k - a, nov(neg(A) + [(k, 0)], a.floor))
    for got in (a * k, k * a):
        check(got, nov(products(A, [(k, 0)]), got.floor))
    if a.floor is None:
        check(a.invert_exponents(), NovElem([(c, -e) for c, e in A]))
    check(NovElem.monomial(k, s), NovElem([(k, s)]))


def test_public_novelem_operations_stay_exact():
    # NovElem(raw) has no floor, and neither has anything a public
    # operation makes from exact operands and ints
    rng = random.Random(31337)

    def raw():
        return [(rng.randint(-3, 3), F(rng.randint(-6, 6), rng.choice([1, 2, 3])))
                for _ in range(rng.randint(0, 4))]

    made = []
    for _ in range(300):
        a, b, k = NovElem(raw()), NovElem(raw()), rng.randint(-3, 3)
        c, e = rng.choice([1, -1, 2, -5]), rng.randint(-4, 4)
        made += [a, a + b, a - b, a * b, -a, a + k, k + a, a - k, k - a,
                 a * k, k * a, a.invert_exponents(), NovElem.monomial(c, e),
                 laurent(c, e), laurent_image(laurent(c, e) + k, 3),
                 laurent_image(k or 1, 2)]
    assert all(type(x) is NovElem and x.floor is None for x in made)
    assert sum(bool(x.terms) for x in made) > 4000


def invert_reference(u, depth):
    """The truncated geometric series, every step through NovElem(raw)."""
    n0, e0 = u.terms[0]
    w = [(c * n0, e - e0) for c, e in u.terms[1:]]
    inv = power = [(1, 0)]
    while power:
        power = list(nov([(-c, e) for c, e in products(power, w)],
                         -depth).terms)
        inv = inv + power
    floor = -e0 - depth
    if u.floor is not None:  # unknown terms at or below f move 1/u at f - 2e0
        floor = max(floor, u.floor - 2 * e0)
    return nov([(c * n0, e - e0) for c, e in inv], floor)


@given(nov_elems.filter(nov_unit),
       st.sampled_from([F(1, 2), F(1), F(3), F(8)]))
@settings(max_examples=300)
def test_nov_invert_equals_raw_reference(u, depth):
    check(_unit_inverse(u, depth), invert_reference(u, depth))


def test_arithmetic_on_canonical_operands_never_renormalises(monkeypatch):
    rng = random.Random(8)

    def raw(coeffs):
        return [(rng.choice(coeffs), F(rng.randint(-6, 6), 2))
                for _ in range(rng.randint(0, 4))]

    exps = [ExpSum(raw([1, -1, 2, F(-1, 3)])) for _ in range(20)]
    novs = [nov(raw([1, -1, 2]), rng.choice([None, F(-2), F(0)]))
            for _ in range(20)]
    calls = []
    merge = rings._merge_terms
    monkeypatch.setattr(rings, "_merge_terms",
                        lambda *a: calls.append(a) or merge(*a))
    results = []
    for xs, k in ((exps, F(2, 3)), (novs, -2)):
        for a, b in zip(xs, xs[1:]):
            results += [a + b, a - b, a * b, -a, a + k, k + a, a - k, k - a,
                        a * k, k * a]
        cls = type(xs[0])
        results += [cls.zero(), cls.one(), cls.monomial(-1, F(1, 2))]
    results += [a.invert_exponents() for a in exps + novs
                if getattr(a, "floor", None) is None]
    results += [_unit_inverse(a, F(4)) for a in novs if nov_unit(a)]
    assert calls == [] and len(results) > 400
    ExpSum([(1, 0)])
    assert len(calls) == 1  # the raw constructor still merges and checks


@pytest.mark.parametrize("build", [
    lambda: ExpSum([(0.5, 0)]),
    lambda: ExpSum([(1, 0.5)]),
    lambda: ExpSum.monomial(0.5, 0),
    lambda: ExpSum.monomial(1, 0.5),
    lambda: NovElem([(F(1, 2), 0)]),
    lambda: NovElem.monomial(F(1, 2), 0),
    lambda: NovElem.monomial(1, 0.5),
    lambda: ExpSum.one() + 0.5,
    lambda: NovElem.one() * F(1, 2),
], ids=["expsum-float-coeff", "expsum-float-exp", "expsum-monomial-coeff",
        "expsum-monomial-exp", "nov-fraction-coeff", "nov-monomial-coeff",
        "nov-monomial-exp", "expsum-plus-float", "nov-times-fraction"])
def test_raw_values_are_still_validated(build):
    with pytest.raises(TypeError):
        build()
