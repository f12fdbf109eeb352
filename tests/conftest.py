"""Answer oracles shared by the linear-algebra tests: integer rank by
exhaustive minor expansion, and integer invariant factors from
determinantal divisors, both independent of any reduction."""

import itertools
from math import gcd

import pytest


def _det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


class TooLarge(Exception):
    """Brute-force oracle invoked beyond its size bound."""


def rank_int_bruteforce(A) -> int:
    """Rank of an integer Matrix by exhaustive minor expansion."""
    m, n = A.rows, A.cols
    if m > 6 or n > 6:
        raise TooLarge(f"brute-force oracle limited to 6x6, got {m}x{n}")
    for r in range(min(m, n), 0, -1):
        for rows in itertools.combinations(A.entries, r):
            for cs in itertools.combinations(range(n), r):
                if _det([[row[j] for j in cs] for row in rows]) != 0:
                    return r
    return 0


def invariant_factors_by_minors(rows):
    """(rank, invariant factors > 1) of an integer matrix: d_k is the gcd of
    all k x k minors, and the k-th invariant factor is d_k / d_(k-1)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                d = gcd(d, _det([[rows[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        divisors.append(d)
    factors = (b // a for a, b in zip(divisors, divisors[1:]))
    return len(divisors) - 1, tuple(f for f in factors if f > 1)


@pytest.fixture
def minors_oracle():
    return invariant_factors_by_minors
