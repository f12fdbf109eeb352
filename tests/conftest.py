"""Answer oracles shared by the tests: integer rank by exhaustive minor
expansion and integer invariant factors from determinantal divisors, both
independent of any reduction; the componentwise (vector) period path that
the scalar loop periods of ``morsetwist.morse`` must agree with; a twisted
triangulated torus; grid triangulations of the torus and the Klein bottle;
and the eagerly re-keyed unit pass that the lazily re-keyed heap of
``morsetwist.linalg._unit_pivots`` must agree with."""

import heapq
import itertools
from fractions import Fraction
from math import gcd

import pytest

from morsetwist.cw import FacetList, Incidence, RegularCW
from morsetwist.errors import Disconnected
from morsetwist.morse import EXP, NOV_SYS, TRIVIAL, UNIT_REP


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


# --- vector reference for the loop periods --------------------------------

def flow_period_vector(f, class_vector):
    return sum((c * p for c, p in zip(class_vector, f.periods)), Fraction(0))


def loop_data_vector(d):
    """(connected, loops) with each loop's full period vector: the
    componentwise period around the loop and the product of its unit tags,
    over parallel flow pairs and the 1-skeleton cycles."""
    zero_vec = (Fraction(0),) * len(d.basis_forms)
    loops = []

    def vec_sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def tag(f):
        return f.unit_tag if f.unit_tag is not None else 1

    by_pair: dict = {}
    for f in d.flows:
        by_pair.setdefault((f.frm, f.to), []).append(f)
    for fams in by_pair.values():
        for other in fams[1:]:
            loops.append((vec_sub(other.periods, fams[0].periods),
                          tag(other) * tag(fams[0])))
    verts = [p.id for p in d.points_of_index(0)]
    edges = []
    for q in d.points_of_index(1):
        down = [f for f in d.flows if f.frm == q.id]
        for f1, f2 in itertools.combinations(down, 2):
            edges.append((f1.to, f2.to, vec_sub(f2.periods, f1.periods),
                          tag(f1) * tag(f2)))
    pot = {}
    if verts:
        pot[verts[0]] = (zero_vec, 1)
        frontier = [verts[0]]
        adj: dict = {}
        for u, v, pv, un in edges:
            adj.setdefault(u, []).append((v, pv, un))
            adj.setdefault(v, []).append((u, tuple(-x for x in pv), un))
        while frontier:
            u = frontier.pop()
            for v, pv, un in adj.get(u, []):
                if v not in pot:
                    base_pv, base_un = pot[u]
                    pot[v] = (tuple(a + b for a, b in zip(base_pv, pv)),
                              base_un * un)
                    frontier.append(v)
        for u, v, pv, un in edges:
            if u in pot and v in pot:
                (pu, uu), (pvv, uv) = pot[u], pot[v]
                loops.append((tuple(a + b - c for a, b, c in zip(pu, pv, pvv)),
                              uu * un * uv))
    connected = all(v in pot for v in verts) if verts else True
    return connected, loops


def _dot(class_vector, pv):
    return sum((Fraction(c) * p for c, p in zip(class_vector, pv)), Fraction(0))


def loop_periods_vector(d, class_vector):
    return [_dot(class_vector, pv) for pv, _ in loop_data_vector(d)[1]]


def is_simple_vector(d, sys):
    sys.check_compatible(d)
    for pv, unit in loop_data_vector(d)[1]:
        if sys.flavor == UNIT_REP and unit != 1:
            return False
        if sys.flavor in (EXP, NOV_SYS) and _dot(sys.class_vector, pv) != 0:
            return False
    return True


def h0_vector(d, sys, sign_loop):
    """The degree-zero group from the vector loops."""
    sys.check_compatible(d)
    connected, loops = loop_data_vector(d)
    if not connected:
        raise Disconnected(d.name)
    if sys.flavor == TRIVIAL:
        return "Z"
    if sys.flavor == UNIT_REP:
        return sign_loop if any(u == -1 for _, u in loops) else "Z"
    if any(_dot(sys.class_vector, pv) != 0 for pv, _ in loops):
        return "0"
    return "R" if sys.flavor == EXP else "Nov"


def rank_of_class_vector(d, class_vector):
    return 1 if any(loop_periods_vector(d, class_vector)) else 0


# --- a twisted triangulated torus ------------------------------------------

def twisted_torus_cw(n):
    """The n x n triangulated torus as the quotient of the triangulated
    plane by Z^2 translations.  A plane simplex is canonical when its
    smallest vertex lies in [0, n)^2; each face of a canonical simplex is a
    canonical face translated by g*n, and g is the incidence's periods."""
    def canonical(simplex):
        a, b = min(simplex)
        g = (a // n, b // n)
        return tuple((x - g[0] * n, y - g[1] * n) for x, y in simplex), g

    layers = [set(), set(), set()]
    for i, j in itertools.product(range(n), repeat=2):
        layers[2].add(((i, j), (i + 1, j), (i + 1, j + 1)))
        layers[2].add(((i, j), (i, j + 1), (i + 1, j + 1)))
    incidences = []
    for k in (2, 1):
        for simplex in sorted(layers[k]):
            for drop in range(k + 1):
                face, g = canonical(simplex[:drop] + simplex[drop + 1:])
                layers[k - 1].add(face)
                incidences.append(Incidence(
                    upper=str(simplex), lower=str(face),
                    incidence=(-1) ** drop, periods=g))
    return RegularCW(name=f"twisted-torus-{n}", dimension=2,
                     cells=[[str(s) for s in sorted(layer)] for layer in layers],
                     incidences=incidences, basis_forms=("dx", "dy"))


def grid_facets(n, klein=False) -> FacetList:
    """The n x n grid triangulation of the torus; for the Klein bottle,
    crossing the seam i = n -> 0 reverses the j direction."""
    def vertex(i, j):
        if i == n:
            i, j = 0, (-j if klein else j)
        return i * n + j % n
    facets = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            facets += [(a, b, d), (a, c, d)]
    return FacetList(n * n, tuple(facets))


# --- the eager unit pass ----------------------------------------------------

def unit_pivots_eager(A, coerce, unit_inverse):
    """``linalg._unit_pivots`` with an eagerly re-keyed heap, read from the
    dense view: after every pivot, every unit of every row and column the
    pivot touched is pushed again at its current cost, so the heap always
    holds each live unit at its cost and stale items are dropped when they
    surface.  Returns (pivots cancelled, leftover as dense rows)."""
    rows = {}       # row -> {col: nonzero entry}
    cols = {}       # col -> set of rows holding a nonzero entry there
    inverses = {}   # (row, col) -> inverse of the unit last written there

    def put(i, j, v):
        rows[i][j] = v
        inv = unit_inverse(v)
        if inv is None:
            inverses.pop((i, j), None)
        else:
            inverses[i, j] = inv

    for i, row in enumerate(A.entries):
        nonzero = [j for j, e in enumerate(row) if e]
        if nonzero:
            rows[i] = {}
            for j in nonzero:
                put(i, j, coerce(row[j]))
                cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(cost(i, j), i, j) for i, j in inverses]
    heapq.heapify(heap)
    count = 0
    while heap:
        key, r, c = heapq.heappop(heap)
        if c not in rows.get(r, ()) or (r, c) not in inverses \
                or key != cost(r, c):
            continue
        inv = inverses[r, c]
        count += 1
        prow = rows.pop(r)
        del prow[c]
        pcol = cols.pop(c)
        pcol.discard(r)
        for j in prow:
            cols[j].discard(r)
        for i in pcol:
            row = rows[i]
            f = row.pop(c) * inv
            for j, x in prow.items():
                v = row[j] - f * x if j in row else -(f * x)
                if v:
                    put(i, j, v)
                    cols[j].add(i)
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        for j in prow:
            if not cols[j]:
                del cols[j]
        for i in pcol:
            for j in rows.get(i, ()):
                if (i, j) in inverses:
                    heapq.heappush(heap, (cost(i, j), i, j))
        for j in prow:
            for i in cols.get(j, ()):
                if (i, j) in inverses:
                    heapq.heappush(heap, (cost(i, j), i, j))

    zero = coerce(0)
    live_cols = sorted(cols)
    return count, [[rows[i].get(j, zero) for j in live_cols]
                   for i in sorted(rows)]
