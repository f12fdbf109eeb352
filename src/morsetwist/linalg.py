"""Exact matrix reduction over the three coefficient regimes.

* ``cancel_units`` — one sparse pass that cancels every entry that is a
  unit under one rule for every ring: ±1, or a single term ±t^a (±u^k
  over ℤ[u, u⁻¹]), whose exact inverse is its ``bar`` image under
  u ↦ u⁻¹ (algebraic Morse reduction).  Pivots come cheapest first by
  Markowitz cost as queued, from one stack per cost; each unit keeps an
  item in some stack, so the pass ends only when no unit is left.
  ``chains.reduce`` runs it once across a whole complex, and nothing
  else calls it.
* ``snf_int`` — Smith normal form over the integers, giving ranks and
  torsion invariant factors.
* ``rank_expsum`` — rank over the fraction field of ℤ[u, u⁻¹].  Distinct
  exponents evaluate to linearly independent reals, so the formal rank
  equals the real one.
* ``nov_reduce`` — torsion by valuation-pivoted diagonalization over the
  Novikov ring, with truncated unit inversion and an explicit iteration
  budget; its rank is ``rank_expsum``'s.  Only its leaf makes truncated
  series, by ``_unit_inverse``; every entry in and out is exact.

The reducers are the leaves of ``chains.homology``, which hands them the
small boundaries of the reduced complex: each returns one ``Reduction``
(rank, torsion, status) and runs no unit pass of its own.  Bareiss
elimination serves ``rank_expsum`` and the rank of ``nov_reduce``; one
Euclidean loop over the Novikov ring, whose exponent-0 part is the
integers, serves ``snf_int`` and the torsion of ``nov_reduce``.  Called
directly on a whole matrix, a reducer is dense, and ``nov_reduce``
charges every pivot, units included, to ``max_iter``.
A twisted complex is assembled over ℤ[u, u⁻¹], u = t^(1/L), and the pass
and the leaves run on it as it is, on ints and int exponents in units of
1/L.  All functions are pure.  ``Matrix`` stores only nonzero entries,
one ``{column: entry}`` map per row, each absent entry 0 in every ring;
the leaves read its dense ``entries`` view.  Chain and cochain boundaries
share one shape, so nothing here asks which way a matrix points.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .errors import TooManyTerms, ZeroElement
from .rings import NovElem, _make, laurent

# The largest depth nov_reduce takes: in powers of u, it bounds the terms of
# a truncated inverse over ℤ[u, u⁻¹] (the sweep's largest has 3,200).
MAX_TERMS = 10**6


class Matrix:
    """Sparse row-major matrix over any ring whose elements support + and *.

    ``data[i]`` maps column -> entry for the nonzero entries of row i only;
    every absent entry is 0, the zero of each ring used here.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows:
            raise ValueError(f"{len(data)} row maps for {rows} rows")
        self.rows = rows
        self.cols = cols
        self.data = data

    @property
    def entries(self):
        """Dense rows filled with 0, built on every read."""
        return [[r.get(j, 0) for j in range(self.cols)] for r in self.data]

    def without(self, rows=(), cols=()) -> "Matrix":
        """This matrix less the rows and columns at the given indices, the
        rest kept in order."""
        data = [row for i, row in enumerate(self.data) if i not in rows]
        if not cols:
            return Matrix(len(data), self.cols, data)
        live = {j: n for n, j in enumerate(sorted(
            set(range(self.cols)).difference(cols)))}
        return Matrix(len(data), len(live), [
            {live[j]: e for j, e in row.items() if j in live} for row in data])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"


def _is_unit(e) -> bool:
    """Whether e is a unit that the pass cancels: ±1, or a single term ±t^a."""
    if type(e) is int:
        return e == 1 or e == -1
    terms = e.terms
    return len(terms) == 1 and terms[0][0] in (1, -1)


def bar(e):
    """The bar involution u ↦ u⁻¹ (t^a ↦ t^(-a)) on an entry: an int is
    fixed, and a unit ±1 or ±t^a goes to its exact inverse."""
    return e if type(e) is int else e.invert_exponents()


def cancel_units(A: Matrix):
    """Cancel every unit entry of A that ``_is_unit`` recognises.

    Returns (pivots, leftover Matrix), the pivots as the (row, col) of A
    that each step pivoted on, in order, and the leftover over every row
    and column of A that no pivot took, in A's order, zero ones included;
    with no unit to take, that is ((), A).  Each step pivots on a unit and
    replaces the matrix by its Schur complement: the pivot's inverse lies
    in the ring, so A is equivalent to diag(pivots, leftover), and rank,
    invariant factors and torsion all come from the leftover.  Only a
    pivot's inverse is built, as its ``bar`` image, when it is taken.  A
    pivot pairs the cells of its row and column; ``chains.reduce`` drops
    them from the generators and the neighbouring boundaries.

    Pivots go cheapest first by the Markowitz cost (row nnz - 1)·(col
    nnz - 1), as queued: one stack per cost holds the packed positions
    row·ncols + col of units, each queued when the pass starts and again
    whenever the Schur update writes it.  ``k`` is the lowest cost whose
    stack may be nonempty.  An item popped from stack k whose entry is
    gone or no longer a unit is dropped; one whose unit now costs other
    than k (its row or column shrank or grew since) is queued again at
    that cost; otherwise its unit is the pivot.  Every unit entry thus
    keeps an item in some stack, so when every stack is empty, no unit is
    left: the pass cancels every unit.
    """
    ncols = A.cols
    rows = {}       # row -> {col: nonzero entry}
    cols = {}       # col -> set of rows holding a nonzero entry there
    stacks = {}     # cost -> packed positions of units queued at that cost
    for i, row in enumerate(A.data):
        if row:
            rows[i] = dict(row)
            for j in row:
                cols.setdefault(j, set()).add(i)
    for i, row in rows.items():
        rk = len(row) - 1
        for j, e in row.items():
            if _is_unit(e):
                stacks.setdefault(rk * (len(cols[j]) - 1), []).append(
                    i * ncols + j)
    if not stacks:
        return (), A

    pivots = []
    k = min(stacks)
    while True:
        stack = stacks[k]
        if not stack:
            del stacks[k]
            if not stacks:
                break
            k = min(stacks)
            continue
        p = stack.pop()
        r, c = divmod(p, ncols)
        prow = rows.get(r)
        if prow is None or c not in prow or not _is_unit(prow[c]):
            continue
        cost = (len(prow) - 1) * (len(cols[c]) - 1)
        if cost != k:
            stacks.setdefault(cost, []).append(p)
            if cost < k:
                k = cost
            continue
        pivots.append((r, c))
        del rows[r]
        inv = bar(prow.pop(c))
        pcol = cols.pop(c)
        pcol.discard(r)
        for j in prow:
            cols[j].discard(r)
        for i in pcol:
            row = rows[i]
            base = i * ncols
            f = row.pop(c) * inv
            for j, x in prow.items():
                col = cols[j]
                if j in row:
                    v = row[j] - f * x
                    if not v:
                        del row[j]
                        col.discard(i)
                        continue
                else:
                    v = -(f * x)
                    if not v:
                        continue
                    col.add(i)
                row[j] = v
                if _is_unit(v):
                    cost = (len(row) - 1) * (len(col) - 1)
                    stacks.setdefault(cost, []).append(base + j)
                    if cost < k:
                        k = cost
            if not row:
                del rows[i]
        for j in prow:
            if not cols[j]:
                del cols[j]

    prows, pcols = map(set, zip(*pivots))
    rest = [rows.get(i, {}) for i in range(A.rows) if i not in prows]
    return tuple(pivots), Matrix(len(rest), ncols, rest).without(cols=pcols)


def _as_nov(e) -> NovElem:
    return e if type(e) is not int else laurent(e, 0) if e else NovElem.zero()


@dataclass(frozen=True)
class Reduction:
    """What a reducer returns in every regime: the rank, the invariant
    factors that are not units (integer torsion, or the orders |c| of
    Novikov cyclic summands), and "complete" or "stuck".  Stuck means the
    torsion is unknown: ``nov_reduce``'s rank is exact all the same, and
    the Novikov leaf it runs reports rank 0 when stuck."""
    rank: int
    torsion: tuple = ()
    status: str = "complete"  # "complete" | "stuck"


def snf_int(A: Matrix) -> Reduction:
    """Rank and invariant factors d1 | d2 | ... of the Smith normal form.

    The integers are the exponent-0 part of the Novikov ring, with units
    ±1 and integer division as the Euclidean step, so the Novikov leaf
    diagonalizes A: every exponent stays 0, its descent floor never fires,
    and the Smith form is unique.  Each step clears an entry or shrinks the
    smallest nonzero |entry|, so the loop ends without an op budget."""
    return _nov_leaf(A, 1, inf)


def nov_divexact(a: NovElem, b: NovElem) -> NovElem:
    """Exact quotient a/b over ℤ[u, u⁻¹] by long division on top terms, each
    of whose coefficients divides exactly, down to bottom(a) − bottom(b);
    ArithmeticError when b does not divide a."""
    if not b.terms:
        raise ZeroElement("division by zero")
    cb, eb = b.terms[0]
    low = a.terms[-1][1] - b.terms[-1][1] if a.terms else 0
    quot, rem = NovElem.zero(), a
    while rem.terms:
        ca, ea = rem.terms[0]
        c, r = divmod(ca, cb)
        if r or ea - eb < low:
            raise ArithmeticError(f"{b.render()} does not divide {a.render()}")
        term = laurent(c, ea - eb)
        quot = quot + term
        rem = rem - term * b
    return quot


def rank_expsum(A: Matrix) -> Reduction:
    """Rank over the fraction field of ℤ[u, u⁻¹] by fraction-free Bareiss
    elimination: every entry stays a minor, so each division by the
    previous pivot is exact."""
    m, n = A.rows, A.cols
    a = [[_as_nov(e) for e in row] for row in A.entries]
    prev, zero = laurent(1, 0), NovElem.zero()
    k = 0
    while k < min(m, n):
        piv = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j].terms:
                    piv = (i, j)
                    break
            if piv is not None:
                break
        if piv is None:
            return Reduction(k)
        if piv[0] != k:
            a[k], a[piv[0]] = a[piv[0]], a[k]
        if piv[1] != k:
            for row in a:
                row[k], row[piv[1]] = row[piv[1]], row[k]
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = nov_divexact(num, prev)
            a[i][k] = zero
        prev = a[k][k]
        k += 1
    return Reduction(k)


def nov_reduce(A: Matrix, depth=16, max_iter=10000) -> Reduction:
    """Rank and torsion over the Novikov ring.  A depth ≤ 0
    (``ValueError``) and a depth above ``MAX_TERMS`` (``TooManyTerms``) are
    refused before any pivot.  The rank is ``rank_expsum``'s: the Novikov
    field extends the fraction field of ℤ[u, u⁻¹], and a field extension
    keeps rank, so it is exact whatever the budget.  The torsion and the
    status come from the leaf, which diagonalizes A at ``depth`` (powers
    of u over ℤ[u, u⁻¹]): the orders |c| of the cyclic summands Nov/c, in
    a divisibility chain.  A leaf whose rank differs from the exact one
    read a truncated entry as zero, so the result is stuck.  Every pivot,
    a unit ±t^a included, is charged against ``max_iter``;
    ``chains.reduce`` cancels those units first, free of charge, so
    ``chains.homology`` budgets the leaf on its leftover only.
    """
    if depth <= 0:
        raise ValueError(f"Novikov depth must be > 0, got {depth}")
    if depth > MAX_TERMS:
        raise TooManyTerms(f"Novikov depth {depth} in powers of u exceeds "
                           f"the cap of {MAX_TERMS} inverse terms")
    leaf = _nov_leaf(A, depth, max_iter)
    rank = rank_expsum(A).rank
    return leaf if leaf.rank == rank else Reduction(rank, status="stuck")


def _unit_inverse(x: NovElem, depth) -> NovElem:
    """Truncated inverse of a Novikov unit x (top coefficient ±1) at a
    depth > 0: its floor is its own top exponent minus depth, or higher
    when x is truncated.  An unknown part at or below x's floor f changes
    the inverse at or below f − 2·e0, where e0 is x's top exponent.  By
    long division: each step moves the remainder's top term into the
    quotient, at one product per term of x."""
    n0, e0 = x.terms[0]
    # x = n0 t^e0 (1 + w) with w strictly below exponent 0; divide 1 by
    # 1 + w down to t^(-depth) or, for a truncated x, its floor shifted to
    # exponent 0.  A step only adds remainder terms below its own, so those
    # at or below the cut are never kept.
    cut = -depth if x.floor is None else max(-depth, x.floor - e0)
    w = [(c * n0, e - e0) for c, e in x.terms[1:]]  # n0 in {1,-1}
    zero = e0 - e0  # 0 in the exponents' type
    rem, heap, quot = {zero: 1}, [zero], []  # heap: negated exponents
    while heap:
        e = -heapq.heappop(heap)
        c = rem.pop(e)
        if c:
            quot.append((c * n0, e - e0))
            for cw, ew in w:
                y = e + ew
                if y > cut:
                    if y not in rem:
                        rem[y] = 0
                        heapq.heappush(heap, -y)
                    rem[y] -= c * cw
    return _make(NovElem, tuple(quot), cut - e0)


def _nov_leaf(A: Matrix, depth, max_iter) -> Reduction:
    """Legal moves: swaps, adding a monomial (or truncated-unit) multiple of
    a row/column to another, and multiplying a row by a truncated unit.
    Pivot choice: smallest |top coefficient|, ties to the larger top
    exponent, then lowest (row, col).  A unit pivot replaces the trailing
    block by its Schur complement, with the pivot's inverse truncated at
    the given depth, and the rest of its row and column by exact zeros; a
    non-unit pivot c·t^a·U first has its unit U divided out of its row,
    then is reduced by integer-Euclidean steps on top coefficients.  Each
    nonzero a unit pivot clears, each unit divided out and each step is
    one op.  The leaf reports status "stuck" instead of raising, at one
    return per cause: the op count passes max_iter at a unit pivot, at a
    unit divided out or at a Euclidean step; a top exponent falls below
    the work floor; off-diagonal residue is left after the loop; or a
    diagonal entry is not a monomial times a unit.  Every stuck exit
    reports rank 0.  An entry whose known terms all cancelled above its
    floor reads as zero, so a complete rank can fall short of the exact
    one; ``nov_reduce`` checks it against ``rank_expsum``.
    """
    depth = Fraction(depth)
    m, n = A.rows, A.cols
    a = [[_as_nov(e) for e in row] for row in A.entries]
    zero = NovElem.zero()
    ops = 0
    # Non-unit clearing on exact entries can descend in exponent forever;
    # once a top exponent falls this far below everything in the input we
    # give up early rather than grind through the whole op budget.
    all_exps = [e for row in a for elt in row for _, e in elt.terms]
    work_floor = (min(all_exps) - depth) if all_exps else -depth

    # An exact zero source adds nothing; a truncated one still raises the
    # floor of its target, so only exact zeros are skipped.
    def add_row(dst, src, c: NovElem):  # row_dst += c*row_src
        rd = a[dst]
        for j, x in enumerate(a[src]):
            if x.terms or x.floor is not None:
                rd[j] = rd[j] + c * x

    def add_col(dst, src, c: NovElem):
        for r in a:
            x = r[src]
            if x.terms or x.floor is not None:
                r[dst] = r[dst] + x * c

    def pick_pivot(k):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                e = a[i][j]
                if not e:
                    continue
                c, x = e.top()
                key = (abs(c), -x, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        return None if best is None else (best[1], best[2])

    k = 0
    while k < min(m, n):
        piv = pick_pivot(k)
        if piv is None:
            break
        if piv[0] != k:
            a[k], a[piv[0]] = a[piv[0]], a[k]
        if piv[1] != k:
            for r in a:
                r[k], r[piv[1]] = r[piv[1]], r[k]
        pc, px = a[k][k].top()
        if abs(pc) == 1:
            row = a[k]
            below = [i for i in range(k + 1, m)
                     if a[i][k].terms or a[i][k].floor is not None]
            right = [j for j in range(k + 1, n)
                     if row[j].terms or row[j].floor is not None]
            ops += sum(1 for i in below if a[i][k].terms)
            ops += sum(1 for j in right if row[j].terms)
            if ops > max_iter:
                return Reduction(0, status="stuck")
            if below and right:
                inv = _unit_inverse(row[k], depth)
                for i in below:
                    ri = a[i]
                    f = ri[k] * inv
                    for j in right:
                        ri[j] = ri[j] - f * row[j]
            for i in below:
                a[i][k] = zero
            for j in right:
                row[j] = zero
            k += 1
            continue
        # Non-unit pivot c·t^a·U: divide U out of the pivot's row, or the
        # Euclidean steps below only ever cancel top terms and can descend
        # in exponent without end.
        terms = a[k][k].terms
        if len(terms) > 1 and all(ci % pc == 0 for ci, _ in terms):
            # U's terms are the pivot's, shifted and divided: still canonical
            unit = tuple([(ci // pc, x - px) for ci, x in terms])
            inv = _unit_inverse(_make(NovElem, unit), depth)
            a[k] = [e * inv if e else e for e in a[k]]
            ops += 1
            if ops > max_iter:
                return Reduction(0, status="stuck")
        # Then Euclidean monomial steps on the top coefficients.
        progressed = False
        restart = False
        for (i, j, is_row) in [(i, k, True) for i in range(k + 1, m)] + \
                              [(k, j, False) for j in range(k + 1, n)]:
            while a[i][j]:
                c, x = a[i][j].top()
                if x < work_floor:
                    return Reduction(0, status="stuck")
                q = c // pc
                if q == 0:
                    # top coefficient now smaller than the pivot's: re-pivot
                    restart = True
                    break
                mono = laurent(-q, x - px)
                if is_row:
                    add_row(i, k, mono)
                else:
                    add_col(j, k, mono)
                progressed = True
                ops += 1
                if ops > max_iter:
                    return Reduction(0, status="stuck")
            if restart:
                break
        if restart or progressed:
            continue  # re-select pivot at the same k
        k += 1

    # off-diagonal residue anywhere means we did not actually finish
    if any(i != j and a[i][j] for i in range(m) for j in range(n)):
        return Reduction(0, status="stuck")
    units = 0
    nonunit = []
    for e in (a[i][i] for i in range(min(m, n))):
        if not e:
            continue
        c, x = e.top()
        if abs(c) == 1:
            units += 1
        elif all(ci % c == 0 for ci, _ in e.terms):
            # report Nov/|c| only when the entry is (monomial)*(unit),
            # i.e. every coefficient is a multiple of the top one
            nonunit.append(abs(c))
        else:
            return Reduction(0, status="stuck")
    chain = _divisibility_chain(nonunit)
    return Reduction(units + len(chain), tuple(v for v in chain if v > 1))


def _divisibility_chain(values):
    """Normalize cyclic-module orders so d1 | d2 | ...: pairing position i
    with each later one replaces the two by their gcd and lcm, so once i
    has met them all it divides every later position.

    Keeps the count: a coprime pair (2,3) becomes (1,6), and the 1 is a
    unit (rank) contribution, not a dropped module."""
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            g = gcd(vals[i], vals[j])
            vals[i], vals[j] = g, vals[i] * vals[j] // g
    return vals
