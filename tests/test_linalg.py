import random
from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TooLarge,
    from_rows,
    laurent_matrix,
    nov_leaf_reference,
    pass_then_leaf,
    rank_int_bruteforce,
    specialise,
    unit_pass_replay,
)
from spaces import grid_facets, twisted_torus_cw
import morsetwist.linalg as linalg
from morsetwist.cw import cw_to_morse, from_simplicial
from morsetwist.errors import TooManyTerms, ZeroElement
from morsetwist.linalg import (
    Reduction,
    _divisibility_chain,
    _is_unit,
    _nov_leaf,
    bar,
    cancel_units,
    nov_divexact,
    nov_reduce,
    rank_expsum,
    snf_int,
)
from morsetwist.morse import LocalSystem, build_complex
from morsetwist.rings import NovElem, laurent


def M(rows):
    return from_rows(rows)


def test_snf_single_two():
    r = snf_int(M([[2]]))
    assert r.rank == 1
    assert r.torsion == (2,)


def test_snf_zero_matrix():
    r = snf_int(M([[0, 0]] * 3))
    assert r.rank == 0
    assert r.torsion == ()


def test_snf_lifted_circle_boundary():
    r = snf_int(M([[1, -1], [-1, 1]]))
    assert r.rank == 1
    assert r.torsion == ()


def test_snf_known_matrix_divisibility_chain(minors_oracle):
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    r = snf_int(M(rows))
    # d1 = 2, d2 = 4, d3 = |det| = 624
    assert (r.rank, r.torsion) == (3, (2, 2, 156))
    assert minors_oracle(rows) == (3, (2, 2, 156))


def test_snf_vs_bruteforce_random(minors_oracle):
    rng = random.Random(20250825)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        A = M(rows)
        r = snf_int(A)
        assert r.rank == rank_int_bruteforce(A)
        assert (r.rank, r.torsion) == minors_oracle(rows)


def _scramble(diagonal, rng, multiplier, zero, steps=8):
    """A matrix equivalent to diag(diagonal): rows and columns shuffled, then
    random elementary additions of a multiple of one row (or column) to
    another, which are invertible whatever the multiplier."""
    n = len(diagonal)
    rows = [[diagonal[i] if i == j else zero for j in range(n)]
            for i in range(n)]
    rng.shuffle(rows)
    cols = rng.sample(range(n), n)
    rows = [[row[j] for j in cols] for row in rows]
    for _ in range(steps):
        dst, src = rng.sample(range(n), 2)
        c = multiplier(rng)
        if rng.random() < 0.5:
            rows[dst] = [a + c * b for a, b in zip(rows[dst], rows[src])]
        else:
            for row in rows:
                row[dst] = row[dst] + c * row[src]
    return M(rows)


def test_snf_equivalence_oracle():
    # 1 | 2 | 6 | 12 is already a Smith form, so every equivalent matrix
    # must give it back
    rng = random.Random(1212)
    for _ in range(200):
        A = _scramble([1, 2, 6, 12, 0], rng,
                      lambda r: r.choice([-3, -2, -1, 1, 2, 3]), 0)
        r = snf_int(A)
        assert (r.rank, r.torsion) == (4, (2, 6, 12)), A


def test_bruteforce_examples():
    assert rank_int_bruteforce(M([[1, 2], [2, 4]])) == 1
    assert rank_int_bruteforce(M([[0]])) == 0
    with pytest.raises(TooLarge):
        rank_int_bruteforce(M([[0, 0]] * 7))


def test_rank_expsum_nonzero_single():
    # t^(-1/2) - t^(1/2) over u = t^(1/2)
    e = laurent(1, -1) - laurent(1, 1)
    assert rank_expsum(M([[e]])).rank == 1


def test_rank_expsum_formal_cancellation():
    A, scale = laurent_matrix([[[(1, F(5, 3)), (-1, F(5, 3))]]])
    assert scale == 3
    assert rank_expsum(A).rank == 0


def test_rank_expsum_one_by_four():
    # a single row whose entries are 1 - t^{c_i}, only one nonzero
    one = NovElem.one()
    t = laurent(1, 1)
    z = NovElem.zero()
    assert rank_expsum(M([[one - t, z, z, z]])).rank == 1


def test_rank_expsum_matches_snf_on_constants():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        A = M(rows)
        B = M([[NovElem([(x, 0)]) for x in row] for row in rows])
        assert rank_expsum(A).rank == rank_expsum(B).rank == snf_int(A).rank


def test_rank_expsum_dense_random():
    # fraction-free elimination must divide exactly on multi-term entries
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        rows = [[[(rng.randint(-2, 2), F(rng.randint(-2, 2), 2))
                  for _ in range(2)] for _ in range(n)]
                for _ in range(m)]
        A, _ = laurent_matrix(rows)
        r = rank_expsum(A).rank
        assert 0 <= r <= min(m, n)
        # rank of transpose agrees
        assert rank_expsum(M(list(zip(*A.entries)))).rank == r


def test_nov_divexact():
    t = laurent(1, 1)
    a = (t - 1) * (t + 1)
    assert nov_divexact(a, t - 1) == t + 1
    assert nov_divexact(laurent(6, 2) - laurent(4, -1), laurent(-2, 3)) \
        == laurent(-3, -1) + laurent(2, -4)
    assert nov_divexact(NovElem.zero(), t) == 0
    # a top coefficient that does not divide, and quotients that would run
    # below bottom(a) - bottom(b): (t² − 1)/(t − 2), 1/(1 − u⁻¹)
    for x, y in ((laurent(3, 0), laurent(2, 0)), (a, t - 2),
                 (NovElem.one(), 1 - laurent(1, -1))):
        with pytest.raises(ArithmeticError):
            nov_divexact(x, y)
    with pytest.raises(ZeroElement):
        nov_divexact(a, NovElem.zero())


def test_nov_reduce_nonunit_single():
    e = NovElem([(-2, F(3))])
    r = nov_reduce(M([[e]]))
    assert r.status == "complete"
    assert r.rank == 1
    assert r.torsion == (2,)


def test_nov_reduce_unit_single():
    e = NovElem([(1, F(1, 2)), (-1, F(-1, 2))])
    r = nov_reduce(M([[e]]))
    assert r.status == "complete"
    assert r.rank == 1
    assert r.torsion == ()


def test_nov_reduce_identity():
    one = NovElem.one()
    z = NovElem.zero()
    r = nov_reduce(M([[one, z, z], [z, one, z], [z, z, one]]))
    assert (r.rank, r.torsion) == (3, ())
    assert r.status == "complete"


def _nov_rand(rng, max_terms=2):
    terms = [(rng.randint(-3, 3), F(rng.randint(-2, 2), 2))
             for _ in range(rng.randint(0, max_terms))]
    return NovElem(terms)


def test_nov_reduce_soundness_random():
    # Laurent polynomials in t^(1/2) sit inside the Novikov field, so a
    # completed reduction has the rank of the fraction field of ℤ[t^(±1/2)]
    rng = random.Random(424242)
    done = 0
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        rows = [[_nov_rand(rng) for _ in range(n)] for _ in range(m)]
        r = nov_reduce(M(rows))
        if r.status != "complete":
            continue
        done += 1
        assert r.rank == rank_expsum(M(rows)).rank
    assert done >= 50


def _nov_multiplier(rng):
    return NovElem([(rng.choice([-2, -1, 1, 2]),
                     rng.choice([F(-1), F(-1, 2), F(0), F(1, 2), F(1)]))])


def test_nov_reduce_equivalence_oracle():
    # t^(1/2) and -1 are units, 2t and 4t^(-1) give Nov/2 + Nov/4
    diagonal = [NovElem.monomial(1, F(1, 2)), NovElem.monomial(-1, 0),
                NovElem.monomial(2, 1), NovElem.monomial(4, -1), NovElem.zero()]
    rng = random.Random(4242)
    for _ in range(200):
        A = _scramble(diagonal, rng, _nov_multiplier, NovElem.zero())
        r = nov_reduce(A, max_iter=1000)
        assert (r.status, r.rank, r.torsion) == \
            ("complete", 4, (2, 4)), A


def test_nov_reduce_matches_snf_on_integer_constants():
    rng = random.Random(31337)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        s = snf_int(M(rows))
        r = nov_reduce(M([[NovElem([(x, 0)]) for x in row] for row in rows]))
        assert r.status == "complete"
        assert r.rank == s.rank
        assert r.torsion == s.torsion


def _valuation(v, p):
    k = 0
    while v % p == 0:
        v, k = v // p, k + 1
    return k


def test_divisibility_chain_is_the_invariant_factor_form():
    # Z/a + Z/b = Z/gcd + Z/lcm, so the chain keeps the count and each
    # prime's multiset of exponents; with d1 | d2 | ... that fixes it
    rng = random.Random(1998)
    for _ in range(2000):
        values = [2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
                  * 5 ** rng.randint(0, 1) for _ in range(rng.randint(0, 7))]
        chain = _divisibility_chain(values)
        assert len(chain) == len(values)
        assert all(b % a == 0 for a, b in zip(chain, chain[1:])), values
        for p in (2, 3, 5):
            assert sorted(_valuation(v, p) for v in chain) == \
                sorted(_valuation(v, p) for v in values), values


def test_zero_column_never_changes_rank():
    rng = random.Random(5)
    rows_int = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    A = M(rows_int)
    A2 = M([row + [0] for row in rows_int])
    assert snf_int(A).rank == snf_int(A2).rank

    rows_e = [[laurent(x, 1) if x else 0 for x in row] for row in rows_int]
    B = M(rows_e)
    B2 = M([row + [NovElem.zero()] for row in rows_e])
    assert rank_expsum(B).rank == rank_expsum(B2).rank

    rows_n = [[NovElem([(x, 0)]) for x in row] for row in rows_int]
    C = M(rows_n)
    C2 = M([row + [NovElem.zero()] for row in rows_n])
    assert nov_reduce(C).rank == nov_reduce(C2).rank


@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=4),
                min_size=2, max_size=4).filter(
    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=60)
def test_snf_rank_vs_oracle_property(rows):
    A = M(rows)
    assert snf_int(A).rank == rank_int_bruteforce(A)


def _sparse(rng, zero, unit, other, unit_share=0.8, size=12, density=0.35):
    """A random matrix up to size x size: each entry is nonzero with
    probability ``density``, and a nonzero entry a unit with probability
    ``unit_share``."""
    m, n = rng.randint(1, size), rng.randint(1, size)
    return M([[zero if rng.random() > density
               else unit(rng) if rng.random() < unit_share else other(rng)
               for _ in range(n)] for _ in range(m)])


def _halves(rng):
    return F(rng.randint(-3, 3), 2)


def _nov_inexact(rng):
    """c·t^a is not a unit; t^a - t^(a-1) is a Novikov unit, but only with
    a truncated inverse, so the unit pass must leave both to the leaf."""
    a = _halves(rng)
    if rng.random() < 0.5:
        return NovElem.monomial(rng.choice([-2, 2, 3]), a)
    return NovElem([(1, a), (-1, a - 1)])


def test_unit_pass_then_leaf_equals_leaf_alone(minors_oracle):
    # the unit pass replaces A by an equivalent diag(units, leftover), so
    # the pass then a reducer on the leftover answers as the reducer, a
    # leaf loop, does on the whole matrix
    rng = random.Random(60606)
    for _ in range(80):
        A = _sparse(rng, 0, lambda r: r.choice([1, -1]),
                    lambda r: r.choice([-4, -2, 2, 3, 6]))
        s, leaf = pass_then_leaf(A, snf_int), snf_int(A)
        assert leaf.status == "complete", A
        assert (s.rank, s.torsion) == (leaf.rank, leaf.torsion), A
        if A.rows <= 5 and A.cols <= 5:
            assert (s.rank, s.torsion) == minors_oracle(A.entries)

    for _ in range(40):
        A, _ = laurent_matrix(_sparse(
            rng, 0, lambda r: [(r.choice([1, -1, 2, F(-1, 3)]), _halves(r))],
            lambda r: [(r.choice([1, -1, 2]), _halves(r))
                       for _ in range(2)]).entries)
        assert pass_then_leaf(A, rank_expsum).rank == rank_expsum(A).rank, A

    both = 0
    for _ in range(40):
        A = _sparse(rng, NovElem.zero(),
                    lambda r: NovElem.monomial(r.choice([1, -1]), _halves(r)),
                    _nov_inexact, unit_share=0.6)
        r = pass_then_leaf(A, lambda rest: nov_reduce(rest, depth=8))
        leaf = nov_reduce(A, depth=8)
        assert r.rank == leaf.rank, A
        if "stuck" in (r.status, leaf.status):
            continue
        both += 1
        assert r.torsion == leaf.torsion, A
    # 39 of 40 complete both ways; in the other the unit pass's Schur fill
    # widens an entry's exponent span past depth 8, and the leaf's torsion
    # is stuck
    assert both >= 39


def _markowitz_costs(A):
    """(row nnz - 1)·(col nnz - 1) of every unit entry of A, by position."""
    col_len = {}
    for row in A.data:
        for j in row:
            col_len[j] = col_len.get(j, 0) + 1
    return {(i, j): (len(row) - 1) * (col_len[j] - 1)
            for i, row in enumerate(A.data)
            for j, e in row.items() if _is_unit(e)}


def _check_unit_pass(A):
    """Run the unit pass on A and check it against its replay: every pivot
    is a unit when its turn comes, the leftover is the replay's, stores
    nonzero entries only and holds no unit, and the first pivot costs the
    least of A's units.  Returns (pivots, leftover as dense rows)."""
    pivots, rest = cancel_units(A)
    assert all(e for row in rest.data for e in row.values()), A
    assert rest.entries == unit_pass_replay(A, pivots), A
    assert not any(_is_unit(e) for row in rest.data for e in row.values()), A
    if pivots:
        costs = _markowitz_costs(A)
        assert costs[pivots[0]] == min(costs.values()), A
    return list(pivots), rest.entries


def test_unit_pass_replays_to_its_leftover_and_leaves_no_unit():
    # the pass is free to take its units in any order that keeps each pivot
    # a unit: the pivots are checked by replaying them, and the leftover by
    # what the replay leaves; that no unit is left is what chains.reduce
    # relies on, and the first pivot is the cheapest one A offers
    rng = random.Random(31415)
    regimes = [
        (0, lambda r: r.choice([1, -1]), lambda r: r.choice([-3, 2, 4])),
        (NovElem.zero(),
         lambda r: laurent(r.choice([1, -1]), r.randint(-3, 3)),
         lambda r: laurent(1, r.randint(-3, 3)) + laurent(r.choice([1, -2]),
                                                          4)),
        (NovElem.zero(),
         lambda r: NovElem.monomial(r.choice([1, -1]), _halves(r)),
         _nov_inexact),
    ]
    cases = []
    for zero, unit, other in regimes:
        for _ in range(150):
            A = _sparse(rng, zero, unit, other, unit_share=rng.random(),
                        size=14, density=rng.uniform(0.1, 0.6))
            cases.append(A)
    for n in range(8, 13):
        C = build_complex(cw_to_morse(from_simplicial(
            grid_facets(n, klein=True))), LocalSystem.trivial())
        cases += C.diffs
    # boundaries over ℤ[u, u⁻¹] that mix int ±1 with ±u^k
    for n in range(3, 7):
        d = cw_to_morse(twisted_torus_cw(n))
        for system in (LocalSystem.exp, LocalSystem.nov):
            for cls in ((0, 0), (1, F(1, 3))):
                cases += build_complex(d, system(cls)).diffs
    for A in cases:
        _check_unit_pass(A)


def test_unit_pass_drops_an_item_whose_entry_is_gone():
    # the four units cost 2, 2, 1, 1 and are queued in row order, so (1, 1)
    # is popped first: its update cancels (0, 0), whose item is dropped, as
    # are those of (1, 0) and (0, 1), whose row or column it took
    assert _check_unit_pass(M([[1, 1, 2], [1, 1, 0]])) == ([(1, 1)],
                                                           [[0, 2]])
    # here the update overwrites (0, 0) by 1 - (-1) = 2, not a unit
    assert _check_unit_pass(M([[1, 1], [-1, 1]])) == ([(1, 1)], [[2]])


def test_unit_pass_queues_a_unit_whose_column_grew_at_its_new_cost():
    # (0, 0) costs 1·2 and goes first; its fill puts -4 into column 1 at
    # rows 1 and 2, so (3, 1), queued at 3·1, surfaces costing 3·2 and is
    # queued again at 6, after (4, 5), which costs 2·2
    A = M([[1, 2, 0, 0, 0, 0, 0, 0],
           [2, 0, 0, 0, 0, 0, 0, 0],
           [2, 0, 0, 0, 0, 0, 0, 0],
           [0, 1, 2, 2, 2, 0, 0, 0],
           [0, 0, 0, 0, 0, 1, 2, 2],
           [0, 0, 0, 0, 0, 2, 0, 0],
           [0, 0, 0, 0, 0, 2, 0, 0]])
    assert _check_unit_pass(A) == ([(0, 0), (4, 5), (3, 1)],
                                   [[8, 8, 8, 0, 0], [8, 8, 8, 0, 0],
                                    [0, 0, 0, -4, -4], [0, 0, 0, -4, -4]])


def test_unit_pass_takes_a_unit_whose_row_shrank_before_its_old_cost():
    # (0, 0) costs 1 and goes first; its update cancels 6 - 3·2 in row 2,
    # so (2, 2), queued at 3·1 on top of (1, 4), surfaces costing 1·1, is
    # queued again at 1 and taken before (1, 4), which still costs 3
    A = M([[1, 2, 0, 0, 0, 0, 0, 0],
           [0, 0, 0, 0, 1, 2, 2, 2],
           [3, 6, 1, 5, 0, 0, 0, 0],
           [0, 0, 2, 0, 2, 0, 0, 0]])
    assert _check_unit_pass(A) == ([(0, 0), (2, 2), (1, 4)],
                                   [[0, -10, -4, -4, -4]])


def test_unit_free_matrix_is_its_own_leftover():
    # with no unit to take the pass builds nothing and hands A back
    for rows in ([[2, 0], [-2, 4]], [[0, 0]],
                 [[laurent(1, 1) - 1, 3], [0, laurent(2, -1)]]):
        A = M(rows)
        assert cancel_units(A) == ((), A)
        assert cancel_units(A)[1] is A
    pivots, rest = cancel_units(M([[2, 1]]))
    assert pivots == ((0, 1),) and (rest.rows, rest.cols) == (0, 1)


def test_without_drops_rows_and_columns_in_order():
    A = M([[1, 0, 2], [0, 3, 0], [4, 0, 5]])
    assert A.without(rows={1}).entries == [[1, 0, 2], [4, 0, 5]]
    assert A.without(cols={0}).entries == [[0, 2], [3, 0], [0, 5]]
    B = A.without({0, 2}, {1})
    assert (B.rows, B.cols, B.data) == (1, 2, [{}])
    assert A.without() == A


def test_one_unit_rule_for_every_ring():
    # ±1 and the single terms ±t^a are the units, each inverted exactly;
    # c·t^a with |c| ≠ 1 and every sum of two terms are not
    units = [1, -1, NovElem.one(), NovElem.monomial(-1, F(-2, 3)),
             laurent(1, 4), laurent(-1, -2)]
    others = [2, -3, laurent(2, 1), laurent(-3, 0), laurent(1, 1) + 1,
              NovElem.monomial(2, F(1, 2)), NovElem([(1, 0), (-1, -1)]),
              laurent(3, 1)]
    for u in units:
        assert _is_unit(u) and u * bar(u) == 1, u
    for e in others:
        assert not _is_unit(e), e


def test_nov_reduce_refuses_a_depth_at_most_zero_before_any_pivot(
        monkeypatch):
    # a unit pivot 1 + u⁻¹ would need an inverse at that depth and the
    # single non-unit 2 needs none, but both are refused alike
    u = laurent(1, 0) + laurent(1, -1)
    calls = []
    monkeypatch.setattr(linalg, "_nov_leaf", lambda *a: calls.append(a))
    for entries in ([[u, 2], [2, 3]], [[2]]):
        for depth in (0, F(-1, 2)):
            with pytest.raises(ValueError, match="depth must be > 0"):
                nov_reduce(M(entries), depth=depth)
    assert calls == []


def _nov_unit(rng):
    """±t^a, whose inverse is exact, or a unit t^a + c·t^(a-1), whose
    inverse is truncated."""
    a = _halves(rng)
    if rng.random() < 0.5:
        return NovElem.monomial(rng.choice([1, -1]), a)
    return NovElem([(rng.choice([1, -1]), a), (rng.choice([-2, 1, 3]), a - 1)])


def test_nov_reduce_refuses_a_truncated_zero_that_drops_rank():
    # determinant −4t^(−17): at depth 16 the Schur complement's known
    # terms all cancel and the leaf reads rank 1, so its torsion is no
    # answer, while the rank is the fraction field's; at depth 32 the
    # leaf reaches the t^(−17) term
    A = M([[NovElem([(1, 0), (-1, -1)]), 2],
           [2, NovElem([(4, -i) for i in range(17)])]])
    assert rank_expsum(A) == Reduction(2)
    assert _nov_leaf(A, 16, 10000) == Reduction(1)
    assert nov_reduce(A, depth=16) == Reduction(2, status="stuck")
    assert nov_reduce(A, depth=32) == Reduction(2, (4,))


def test_nov_leaf_equals_whole_row_and_column_reference():
    # a unit pivot updates only the trailing block and leaves exact zeros
    # in its row and column; answers, status and op counts stay the old
    # leaf's, stuck runs at small budgets included
    rng = random.Random(27182)
    seen = {"complete": 0, "stuck": 0, "torsion": 0}
    for _ in range(200):
        A = _sparse(rng, 0, lambda r: r.choice([1, -1]),
                    lambda r: r.choice([-4, -2, 2, 3, 6]),
                    unit_share=rng.random(), size=9,
                    density=rng.uniform(0.2, 1))
        budget = rng.choice([0, 1, 3, 10, inf])
        got, want = _nov_leaf(A, 1, budget), nov_leaf_reference(A, 1, budget)
        assert got == want, A
        assert nov_reduce(A, 1, budget).rank == rank_expsum(A).rank, A
        seen[got.status] += 1
        seen["torsion"] += bool(got.torsion)
    for _ in range(300):
        A = _sparse(rng, NovElem.zero(), _nov_unit, _nov_inexact,
                    unit_share=rng.random(), size=7,
                    density=rng.uniform(0.2, 1))
        depth = rng.choice([1, 2, 4, 8])
        budget = rng.choice([0, 1, 2, 5, 10, 30, 1000])
        got = _nov_leaf(A, depth, budget)
        assert got == nov_leaf_reference(A, depth, budget), (A, depth, budget)
        assert nov_reduce(A, depth, budget).rank == rank_expsum(A).rank, A
        seen[got.status] += 1
        seen["torsion"] += bool(got.torsion)
    # rows that are unit multiples or sums of earlier rows: the Schur
    # complement leaves entries whose known terms all cancel, and such a
    # truncated zero must still lower what it is added to
    rng = random.Random(1)
    for _ in range(1200):
        A, depth, budget = _dependent_rows(rng)
        got = _nov_leaf(A, depth, budget)
        assert got == nov_leaf_reference(A, depth, budget), (A, depth, budget)
        assert nov_reduce(A, depth, budget).rank == rank_expsum(A).rank, A
        seen[got.status] += 1
    assert min(seen.values()) >= 40, seen


def _nov_entry(rng):
    a = F(rng.randint(-4, 4), 2)
    kind = rng.random()
    if kind < 0.3:
        return NovElem.monomial(rng.choice([1, -1]), a)
    if kind < 0.6:
        return NovElem([(rng.choice([1, -1]), a),
                        (rng.choice([-2, 1, 3]), a - F(1, 2))])
    if kind < 0.85:
        return NovElem.monomial(rng.choice([2, -2, 3, 4]), a)
    return NovElem([(rng.choice([2, 4]), a), (rng.choice([-2, 2, 1]), a - 1)])


def _dependent_rows(rng):
    """(matrix, depth, max_iter): up to 5x5, where some rows are a unit
    multiple of an earlier row or have one added to them."""
    m, n = rng.randint(2, 5), rng.randint(2, 5)
    rows = [[_nov_entry(rng) if rng.random() < 0.7 else NovElem.zero()
             for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        if rng.random() < 0.5:
            u, src = _nov_entry(rng), rows[rng.randrange(i)]
            rows[i] = ([u * e for e in src] if rng.random() < 0.5
                       else [e + u * f for e, f in zip(rows[i], src)])
    return (M(rows), rng.choice([1, 2, 3, 6]),
            rng.choice([5, 20, 200, 10000]))


def _laurent_sparse(rng, ints):
    """A random sparse matrix over ℤ[u, u⁻¹]: units ±u^k, non-units c·u^k,
    and two-term entries; with ``ints``, every exponent is 0."""
    def k(r):
        return 0 if ints else r.randint(-4, 4)

    def unit(r):
        return r.choice([1, -1]) if ints else laurent(r.choice([1, -1]), k(r))

    def other(r):
        if ints:
            return r.choice([-3, 2, 4])
        if r.random() < 0.5:
            return laurent(r.choice([-3, 2, 4]), k(r))
        return laurent(1, k(r)) + laurent(r.choice([1, -1, 2]), k(r) - 5)

    return _sparse(rng, 0, unit, other, unit_share=rng.uniform(0.3, 1),
                   size=14, density=rng.uniform(0.1, 0.5))


def _short_rows(rng):
    """A matrix over ℤ[u, u⁻¹] whose Novikov answer depends on the depth:
    short rows (−c·u^(−a), c − u^(−b)), c in {2, 3}, whose Euclidean step
    reaches u^(−a−b), below every entry, so a shallow depth stops at the
    work floor; with a unit row (1, u^(−a)) beside them at random."""
    rows = []
    for _ in range(rng.randint(1, 3)):
        a, b, c = rng.randint(1, 4), rng.randint(2, 6), rng.choice([2, 3])
        rows.append([laurent(-c, -a), c - laurent(1, -b)])
    if rng.random() < 0.5:
        rows.append([1, laurent(1, -rng.randint(1, 4))])
    return M(rows)


def test_laurent_pass_specialises_to_the_regime_pass():
    # the units ±u^k map to the units ±t^a and nothing else does, so the
    # pass over ℤ[u, u⁻¹] is the pass over the image, pivots and leftover
    # entry for entry; and each reducer run on the matrix over ℤ[u, u⁻¹]
    # gives its image's answer, nov_reduce at depth·scale, since
    # t ↦ t^scale matches each of its steps: on short rows whose answer
    # depends on the depth, a depth not multiplied by the scale differs
    rng = random.Random(16180)
    leftovers = stuck = by_depth = 0
    for n in range(160):
        A = _laurent_sparse(rng, ints=n % 4 == 0) if n < 120 \
            else _short_rows(rng)
        scale = rng.choice([1, 2, 3, 12]) if n < 120 else rng.choice([2, 3])
        pivots, rest = cancel_units(A)
        leftovers += rest.rows > 0
        assert (pivots, specialise(rest, scale)) == \
            cancel_units(specialise(A, scale)), A
        assert len(pivots) + rank_expsum(specialise(rest, scale)).rank \
            == rank_expsum(specialise(A, scale)).rank \
            == rank_expsum(A).rank, A
        for depth, max_iter in ((F(1, 2), 10), (2, 200)):
            got = nov_reduce(A, depth * scale, max_iter)
            assert got == nov_reduce(specialise(A, scale), depth,
                                     max_iter), (A, depth, max_iter)
            stuck += got.status == "stuck"
            if n >= 120 and got != nov_reduce(A, depth, max_iter):
                by_depth += 1
    assert leftovers >= 50
    assert stuck >= 10
    assert by_depth >= 8, by_depth


def test_nov_depth_past_the_term_cap_is_refused(monkeypatch):
    # a depth above MAX_TERMS, in powers of u, is refused before any
    # inverse is built; at the cap the reduction runs
    A = M([[laurent(1, 0) + laurent(1, -1), laurent(2, 0)]])
    monkeypatch.setattr(linalg, "MAX_TERMS", 12)
    assert nov_reduce(A, depth=12).status == "complete"
    with pytest.raises(TooManyTerms):
        nov_reduce(A, depth=F(25, 2))
