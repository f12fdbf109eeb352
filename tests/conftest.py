"""Answer oracles shared by the tests: integer rank by exhaustive minor
expansion and integer invariant factors from determinantal divisors, both
independent of any reduction; reference helpers on elements and matrices
(a matrix from dense rows, a truncated series and the unit test as the
Novikov leaf builds and reads them, exponent rescaling, agreement above
a truncation floor, a matrix over ℤ[u, u⁻¹] with the rank of rational
dense rows); the componentwise (vector) loop periods of the parallel
flows and the 1-skeleton cycles, whose every nontrivial loop
``morsetwist.morse.is_simple`` must see, and the degree-zero group read
off them; simplicity by exact elimination of the flows × points
incidence matrix over ℚ and GF(2), which ``is_simple`` must agree with;
the image of a complex over ℤ[u, u⁻¹] in its regime's
ring, which the reduction of the complex itself must agree with;
homology with each boundary reduced on its own, which the unit pass
across the whole complex must agree with; a seeded family of Morse data
whose Novikov answers depend on the depth; seeded random facet lists
(the twisted torus, grid and Freudenthal spaces are in ``spaces.py``);
the unit pass of ``morsetwist.linalg.cancel_units`` replayed eagerly
along its own pivots, whose leftover it must leave; and the Novikov leaf
that cleared a unit pivot's row and column by whole-row and whole-column
operations, which ``morsetwist.linalg._nov_leaf`` must agree with; and
the JSON reader that checked each record's fields by building its name
sets and location text per record, and parsed each period on its own
through ``Fraction(str)``, which ``morsetwist.serial.load_json`` must
agree with; and the H-space verdict of a datum under a system, composed
from its simplicity and its homology as ``obstructions`` composes it."""

import itertools
import json
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from morsetwist.chains import (
    EXPSUM,
    INT,
    ChainComplex,
    DegreeSummary,
    HomologySummary,
    homology,
    validate_complex,
)
from morsetwist.cw import FacetList, RegularCW
from morsetwist.errors import MorsetwistError, ParseError
from morsetwist.invariants import hspace_obstruction
from morsetwist.linalg import (
    Matrix,
    Reduction,
    _as_nov,
    _divisibility_chain,
    _is_unit,
    _unit_inverse,
    bar,
    cancel_units,
    nov_reduce,
    rank_expsum,
    snf_int,
)
from morsetwist.morse import (
    EXP,
    NOV_SYS,
    TRIVIAL,
    UNIT_REP,
    CriticalPoint,
    DeckGroup,
    FlowLine,
    MorseDatum,
    build_complex,
    is_simple,
)
from morsetwist.rings import (
    ExpSum,
    NovElem,
    _cut,
    _make,
    laurent,
    laurent_image,
)


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


# --- reference helpers on elements and matrices -------------------------------

def from_rows(entries):
    """A ``Matrix`` from dense rows of equal length; zeros are not stored."""
    entries = [list(r) for r in entries]
    cols = len(entries[0]) if entries else 0
    if any(len(r) != cols for r in entries):
        raise ValueError("rows of unequal length")
    return Matrix(len(entries), cols,
                  [{j: e for j, e in enumerate(r) if e} for r in entries])


def nov(raw_terms, floor=None):
    """``NovElem(raw_terms)``, truncated at ``floor`` when it is not None:
    its terms at or below the floor are dropped and read as unknown, as in
    a truncated inverse of the Novikov leaf.  No public path makes one."""
    x = NovElem(raw_terms)
    if floor is None:
        return x
    floor = Fraction(floor)
    return _make(NovElem, _cut(x.terms, floor), floor)


def nov_unit(x) -> bool:
    """Whether a ``NovElem`` is a Novikov unit: its top coefficient is ±1,
    the leaf's test for a unit pivot."""
    return bool(x.terms) and abs(x.terms[0][0]) == 1


def rescale(x, s):
    """An ``ExpSum`` or ``NovElem`` under t ↦ t^s, s > 0: every exponent,
    and a truncation floor, times s."""
    terms = [(c, e * s) for c, e in x.terms]
    if isinstance(x, ExpSum):
        return ExpSum(terms)
    return nov(terms, None if x.floor is None else x.floor * s)


def laurent_matrix(rows):
    """(A, L): A over ℤ[u, u⁻¹] with the rank of ``rows``, dense rows whose
    entries are lists of (coefficient, exponent) terms in t, both
    rational (0 for no terms).  Every coefficient is multiplied by the lcm
    of their denominators, a unit of the fraction field, and u = t^(1/L)
    with L the lcm of the exponents' denominators, an injective ring map,
    so no rank changes."""
    terms = [t for row in rows for e in row if e for t in e]
    den = lcm(*(Fraction(c).denominator for c, _ in terms))
    scale = lcm(*(Fraction(e).denominator for _, e in terms))
    return from_rows([[sum((laurent(int(c * den), int(e * scale))
                            for c, e in entry or () if c), 0)
                       for entry in row] for row in rows]), scale


def agrees_with(a, b):
    """Two ``NovElem``s are equal above the coarser of their floors."""
    floor = max((f for f in (a.floor, b.floor) if f is not None), default=None)

    def above(e):
        return [t for t in e.terms if floor is None or t[1] > floor]
    return above(a) == above(b)


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
    verts = [p.id for p in d.points if p.index == 0]
    edges = []
    for q in (p for p in d.points if p.index == 1):
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


class Disconnected(MorsetwistError):
    """Degree-zero closed forms need a connected 1-skeleton."""


def h0_vector(d, sys, sign_loop):
    """The degree-zero group of a connected datum from the vector loops:
    the fiber modulo (1 − loop unit) with ``sign_loop`` "Z/2" for H_0, or
    the fixed part with "0" for H^0, where a ±1 representation has some
    loop unit −1; 1 − t^c is invertible in both twisted rings."""
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


# --- simplicity by exact elimination ----------------------------------------

def _rank_q(rows):
    """Rank over ℚ by Gauss–Jordan elimination on ``Fraction`` rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i, r in enumerate(rows):
            if i != rank and r[c]:
                f = r[c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(r, rows[rank])]
        rank += 1
    return rank


def _rank_gf2(rows):
    """Rank over GF(2) of rows given as int bit masks."""
    basis = {}  # leading bit -> row
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def is_simple_elimination(d, sys):
    """Whether sys is trivial on d, from the flows × points incidence
    matrix (+1 at the source, −1 at the target): the class periods are a
    potential shift of zero iff appending them as a column keeps the rank
    over ℚ, and the unit tags a gauge change of 1 iff appending the tags
    (−1 as 1) keeps the rank of the incidence mod 2 over GF(2)."""
    sys.check_compatible(d)
    if sys.flavor == TRIVIAL:
        return True
    col = {p.id: j for j, p in enumerate(d.points)}
    if sys.flavor == UNIT_REP:
        rows = [1 << col[f.frm] | 1 << col[f.to] for f in d.flows]
        tagged = [r | (f.unit_tag == -1) << len(col)
                  for r, f in zip(rows, d.flows)]
        return _rank_gf2(tagged) == _rank_gf2(rows)
    rows = []
    for f in d.flows:
        r = [0] * (len(col) + 1)
        r[col[f.frm]], r[col[f.to]] = 1, -1
        rows.append(r)
    periods = [r[:-1] + [flow_period_vector(f, sys.class_vector)]
               for r, f in zip(rows, d.flows)]
    return _rank_q(periods) == _rank_q(rows)


def hspace_verdict(d, sys):
    simple = is_simple(d, sys)
    return hspace_obstruction(
        sys, simple, None if simple else homology(build_complex(d, sys)))


# --- the image of a complex over ℤ[u, u⁻¹] ----------------------------------

def specialise(A, scale):
    """The image of a matrix over ℤ[u, u⁻¹] under u ↦ t^(1/scale), entry
    by entry, as ``NovElem``s with rational exponents."""
    return Matrix(A.rows, A.cols,
                  [{j: laurent_image(e, scale) for j, e in row.items()}
                   for row in A.data])


def image_complex(C):
    """A twisted complex with its boundaries read in t, at scale 1; an
    integer complex is its own image."""
    if C.regime == INT:
        return C
    return ChainComplex(C.regime, C.generators,
                        tuple(specialise(d, C.scale) for d in C.diffs),
                        C.ascending, 1)


# --- homology with each boundary reduced on its own ------------------------

def pass_then_leaf(A, leaf):
    """A reducer as it was when it ran its own unit pass: cancel A's units,
    run ``leaf`` on the leftover less its zero rows and columns, and count
    each cancelled pivot as one more rank; every leaf's rank is exact, a
    stuck one's included."""
    pivots, rest = cancel_units(A)
    rows = [row for row in rest.data if row]
    new = {j: n for n, j in enumerate(sorted({j for row in rows for j in row}))}
    r = leaf(Matrix(len(rows), len(new), [{new[j]: e for j, e in row.items()}
                                          for row in rows]))
    return Reduction(len(pivots) + r.rank, r.torsion, r.status)


def homology_per_matrix(C, depth=16, max_iter=10000):
    """``chains.homology`` as it was before the unit pass ran across the
    whole complex: each stored boundary goes through the unit pass and its
    regime's leaf as it is, whatever the boundaries beside it paired.
    Ranks, torsion and status are read off per degree the same way."""
    assert validate_complex(C) is None
    data = []
    for d in C.diffs:
        if not any(d.data):
            data.append(Reduction(0))
        elif C.regime == INT:
            data.append(pass_then_leaf(d, snf_int))
        elif C.regime == EXPSUM:
            data.append(pass_then_leaf(d, rank_expsum))
        else:
            data.append(pass_then_leaf(d, lambda rest: nov_reduce(
                rest, depth=depth * C.scale, max_iter=max_iter)))
    none = Reduction(0)
    degrees = []
    for k, count in enumerate(C.counts()):
        below = data[k - 1] if k else none
        above = data[k] if k < len(data) else none
        into = below if C.ascending else above
        degrees.append(DegreeSummary(count - below.rank - above.rank,
                                     tuple(into.torsion), into.status))
    return HomologySummary(C.regime, tuple(degrees))


# --- Morse data whose Novikov homology depends on the depth ----------------

def depth_sensitive_data(rng, count):
    """Seeded data whose Novikov leaf needs depth: 1-cells q, r, x over one
    0-cell p, with boundaries −c·t^(−a), c − t^(−b) and c·t^(−a) under the
    class 1 (c in {2, 3}), and a 2-cell s with boundary t^(−e)·(q + x).
    The leaf's Euclidean step on the short row (−c·t^(−a), c − t^(−b))
    reaches t^(−a−b), below every input exponent, so a shallow depth
    stops it at the work floor and a deeper one completes it with a
    truncated inverse.  The periods' denominators make the scale L > 1."""
    out = []
    for n in range(count):
        den = rng.choice([2, 3, 4])
        a, b, e = (Fraction(rng.randint(1, 3 * den), den) for _ in range(3))
        c = rng.choice([2, 3])
        flows = ([FlowLine("q", "p", -1, (a,))] * c
                 + [FlowLine("r", "p", 1, (0,))] * c
                 + [FlowLine("r", "p", -1, (b,)),
                    FlowLine("s", "q", 1, (e,)), FlowLine("s", "x", 1, (e,))]
                 + [FlowLine("x", "p", 1, (a,))] * c)
        points = (CriticalPoint("p", 0), CriticalPoint("q", 1),
                  CriticalPoint("r", 1), CriticalPoint("x", 1),
                  CriticalPoint("s", 2))
        out.append(MorseDatum(f"depth-{n}", 2, ("theta",), points,
                              tuple(flows)))
    return out


# --- seeded random facet lists ---------------------------------------------

def random_facet_lists(rng, count):
    """Seeded pure simplicial complexes: 1 to 12 distinct facets of one
    dimension 0..3 on up to 9 vertices, some vertices possibly unused."""
    out = []
    for _ in range(count):
        size = rng.randint(1, 4)
        vertices = rng.randint(size, 9)
        facets = {tuple(rng.sample(range(vertices), size))
                  for _ in range(rng.randint(1, 12))}
        unique = {frozenset(f): f for f in sorted(facets)}
        out.append(FacetList(vertices, tuple(unique.values())))
    return out


# --- the unit pass replayed ------------------------------------------------

def unit_pass_replay(A, pivots):
    """``linalg.cancel_units`` replayed along the given pivots on the dense
    view: each pivot must be a unit, in a row and column that no earlier
    pivot took, when its turn comes, and its row and column go by an
    eager Schur complement with its ``bar`` inverse.  Returns the leftover
    as dense rows over every row and column that no pivot took, zero ones
    included."""
    a = A.entries
    live_rows, live_cols = set(range(A.rows)), set(range(A.cols))
    for r, c in pivots:
        assert r in live_rows and c in live_cols and _is_unit(a[r][c]), \
            (r, c)
        inv = bar(a[r][c])
        live_rows.discard(r)
        live_cols.discard(c)
        prow = [(j, a[r][j]) for j in live_cols if a[r][j]]
        for i in live_rows:
            row = a[i]
            if not row[c]:
                continue
            f = row[c] * inv
            for j, x in prow:
                v = row[j] - f * x if row[j] else -(f * x)
                row[j] = v if v else 0
            row[c] = 0
    return [[a[i][j] for j in sorted(live_cols)] for i in sorted(live_rows)]


# --- the Novikov leaf with whole-row and whole-column unit steps -------------

def _nov_zero(e: NovElem) -> bool:
    """Zero as far as the truncation lets us see."""
    return not e.terms


def nov_leaf_reference(A, depth, max_iter):
    """``linalg._nov_leaf`` as it was before a unit pivot updated only the
    trailing block: a unit pivot clears its column by whole-row operations
    and then its row by whole-column operations.  Legal moves: swaps,
    adding a monomial (or truncated-unit) multiple of a row/column to
    another, and multiplying a row by a truncated unit.  Pivot choice:
    smallest |top coefficient|, ties to the larger top exponent, then
    lowest (row, col).  Unit pivots are cleared with truncated inverses at
    the given depth; a non-unit pivot c·t^a·U first has its unit U divided
    out of its row, then is reduced by integer-Euclidean steps on top
    coefficients.  Runs that exhaust max_iter report status "stuck" and
    rank 0 instead of raising; a truncated entry whose known terms all
    cancelled reads as zero, as in the leaf.
    """
    depth = Fraction(depth)
    m, n = A.rows, A.cols
    a = [[_as_nov(e) for e in row] for row in A.entries]
    ops = 0
    stuck = False
    # Non-unit clearing on exact entries can descend in exponent forever;
    # once a top exponent falls this far below everything in the input we
    # give up early rather than grind through the whole op budget.
    all_exps = [e for row in a for elt in row for _, e in elt.terms]
    work_floor = (min(all_exps) - depth) if all_exps else -depth

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c: NovElem):  # row_dst += c*row_src
        for j in range(n):
            a[dst][j] = a[dst][j] + c * a[src][j]

    def add_col(dst, src, c: NovElem):
        for r in a:
            r[dst] = r[dst] + r[src] * c

    def pick_pivot(k):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                e = a[i][j]
                if _nov_zero(e):
                    continue
                c, x = e.top()
                key = (abs(c), -x, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        return None if best is None else (best[1], best[2])

    k = 0
    while k < min(m, n) and not stuck:
        piv = pick_pivot(k)
        if piv is None:
            break
        if piv[0] != k:
            swap_rows(k, piv[0])
        if piv[1] != k:
            swap_cols(k, piv[1])
        pc, px = a[k][k].top()
        if abs(pc) == 1:
            inv = _unit_inverse(a[k][k], depth)
            for i in range(k + 1, m):
                if not _nov_zero(a[i][k]):
                    add_row(i, k, -(a[i][k] * inv))
                    ops += 1
                    if ops > max_iter:
                        stuck = True
                        break
            if not stuck:
                for j in range(k + 1, n):
                    if not _nov_zero(a[k][j]):
                        add_col(j, k, -(inv * a[k][j]))
                        ops += 1
                        if ops > max_iter:
                            stuck = True
                            break
            if not stuck:
                k += 1
            continue
        # Non-unit pivot c·t^a·U: divide U out of the pivot's row, or the
        # Euclidean steps below only ever cancel top terms and can descend
        # in exponent without end.
        terms = a[k][k].terms
        if len(terms) > 1 and all(ci % pc == 0 for ci, _ in terms):
            inv = _unit_inverse(NovElem([(ci // pc, x - px) for ci, x in terms]),
                                depth)
            a[k] = [e if _nov_zero(e) else e * inv for e in a[k]]
            ops += 1
            if ops > max_iter:
                stuck = True
                break
        # Then Euclidean monomial steps on the top coefficients.
        progressed = False
        restart = False
        for (i, j, is_row) in [(i, k, True) for i in range(k + 1, m)] + \
                              [(k, j, False) for j in range(k + 1, n)]:
            while not _nov_zero(a[i][j]):
                c, x = a[i][j].top()
                if x < work_floor:
                    stuck = True
                    break
                q = c // pc
                if q == 0:
                    # top coefficient now smaller than the pivot's: re-pivot
                    restart = True
                    break
                mono = NovElem.monomial(-q, x - px)
                if is_row:
                    add_row(i, k, mono)
                else:
                    add_col(j, k, mono)
                progressed = True
                ops += 1
                if ops > max_iter:
                    stuck = True
                    break
            if stuck or restart:
                break
        if stuck:
            break
        if restart or progressed:
            continue  # re-select pivot at the same k
        k += 1

    unit_count = 0
    nonunit = []
    if not stuck:
        # off-diagonal residue anywhere means we did not actually finish
        for i in range(m):
            for j in range(n):
                if i != j and not _nov_zero(a[i][j]):
                    stuck = True
    if not stuck:
        for e in (a[i][i] for i in range(min(m, n))):
            if _nov_zero(e):
                continue
            c, x = e.top()
            if abs(c) == 1:
                unit_count += 1
            else:
                # report Nov/|c| only when the entry is (monomial)*(unit),
                # i.e. every coefficient is a multiple of the top one
                if all(ci % c == 0 for ci, _ in e.terms):
                    nonunit.append(abs(c))
                else:
                    stuck = True
                    break
    if stuck:
        return Reduction(0, status="stuck")
    chain = _divisibility_chain(nonunit)
    return Reduction(unit_count + len(chain), tuple(v for v in chain if v > 1))


# --- per-element reference of the JSON reader -------------------------------

def parse_rational_reference(text) -> Fraction:
    s = str(text).strip()
    if not re.match(r"^-?\d+(/[1-9]\d*)?$", s):
        raise ParseError(f"bad rational {text!r}: want p/q with integers")
    return Fraction(s)


def _fields_ref(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    for k in required:
        if k not in obj:
            raise ParseError(f"{where}: missing field {k!r}")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise ParseError(f"{where}: unknown field {k!r}")


def _typed_ref(obj, key, where, kind, name):
    value = obj[key]
    if type(value) is not kind:
        raise ParseError(f"{where}: {key!r} must be {name}, "
                         f"got {json.dumps(value)}")
    return value


def _datum_ref(obj):
    _fields_ref(obj, ["name", "dimension", "basis_forms", "points", "flows"],
                ["deck_group"], "datum")
    points = []
    for i, p in enumerate(_typed_ref(obj, "points", "datum", list, "a list")):
        _fields_ref(p, ["id", "index"], [], f"points[{i}]")
        points.append(CriticalPoint(id=str(p["id"]), index=_typed_ref(
            p, "index", f"points[{i}]", int, "an integer")))
    flows = []
    for i, f in enumerate(_typed_ref(obj, "flows", "datum", list, "a list")):
        where = f"flows[{i}]"
        _fields_ref(f, ["from", "to", "sign", "periods"],
                    ["unit_tag", "deck_tag"], where)
        flows.append(FlowLine(
            frm=str(f["from"]), to=str(f["to"]),
            sign=_typed_ref(f, "sign", where, int, "an integer"),
            periods=tuple(parse_rational_reference(p) for p in _typed_ref(
                f, "periods", where, list, "a list")),
            unit_tag=None if "unit_tag" not in f else _typed_ref(
                f, "unit_tag", where, int, "an integer"),
            deck_tag=None if "deck_tag" not in f else str(f["deck_tag"])))
    deck = None
    if "deck_group" in obj:
        g = obj["deck_group"]
        _fields_ref(g, ["elements", "table"], [], "deck_group")
        elements = tuple(str(e) for e in _typed_ref(
            g, "elements", "deck_group", list, "a list"))
        rows = _typed_ref(g, "table", "deck_group", dict, "an object")
        table = {}
        for a in rows:
            for b, c in _typed_ref(rows, a, "deck_group table", dict,
                                   "an object").items():
                table[(str(a), str(b))] = str(c)
        deck = DeckGroup(elements=elements, table=table)
    return MorseDatum(
        name=str(obj["name"]),
        dimension=_typed_ref(obj, "dimension", "datum", int, "an integer"),
        basis_forms=tuple(str(b) for b in _typed_ref(
            obj, "basis_forms", "datum", list, "a list")),
        points=tuple(points), flows=tuple(flows), deck_group=deck)


def _cw_ref(obj):
    _fields_ref(obj, ["name", "dimension", "cells", "incidences"],
                ["basis_forms"], "cw")
    basis_forms = tuple(str(b) for b in (_typed_ref(
        obj, "basis_forms", "cw", list, "a list")
        if "basis_forms" in obj else ()))
    incidences = []
    for i, rec in enumerate(_typed_ref(obj, "incidences", "cw", list,
                                       "a list")):
        where = f"incidences[{i}]"
        _fields_ref(rec, ["upper", "lower", "incidence"],
                    ["periods", "unit_tag"], where)
        sign = _typed_ref(rec, "incidence", where, int, "an integer")
        periods = tuple(parse_rational_reference(p) for p in (_typed_ref(
            rec, "periods", where, list, "a list") if "periods" in rec else ()))
        if periods and len(periods) != len(basis_forms):
            raise ParseError(f"{where}: {len(periods)} periods for "
                             f"{len(basis_forms)} basis forms")
        incidences.append(FlowLine(
            frm=str(rec["upper"]), to=str(rec["lower"]), sign=sign,
            periods=periods,
            unit_tag=None if "unit_tag" not in rec else _typed_ref(
                rec, "unit_tag", where, int, "an integer")))
    cells = _typed_ref(obj, "cells", "cw", list, "a list")
    return RegularCW(
        name=str(obj["name"]),
        dimension=_typed_ref(obj, "dimension", "cw", int, "an integer"),
        cells=tuple(tuple(str(c) for c in _typed_ref(
            cells, k, "cw cells", list, "a list")) for k in range(len(cells))),
        incidences=tuple(incidences), basis_forms=basis_forms)


def load_json_reference(text):
    """What ``load_json`` returns or raises, one period at a time."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    if "flows" not in obj and "cells" not in obj:
        raise ParseError("object has neither 'flows' nor 'cells'")
    try:
        return _datum_ref(obj) if "flows" in obj else _cw_ref(obj)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
