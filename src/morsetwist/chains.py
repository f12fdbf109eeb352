"""Graded chain complexes over the three coefficient regimes.

A ``ChainComplex`` stores generator labels per degree and one boundary
matrix per composable pair of degrees, rows indexed by the lower degree.
A cochain complex (``ascending=True``) stores each coboundary delta_k as
its transpose, in the shape of the boundary it dualizes, so the check,
the reduction and the leaves never ask which way a complex points; only
the torsion of H^k is read from the other side.  ``reduce`` cancels every
unit incidence across the complex and returns the smaller complex that
is left; ``homology`` reads each degree off that complex with its
regime's leaf reducer.  A twisted (exponential or Novikov) complex holds
its matrices over ℤ[u, u⁻¹], u = t^(1/scale), and is checked, reduced,
dualized and reported there.  Every entry is exact: truncated series
exist only inside the Novikov leaf, ``linalg._nov_leaf``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidComplex
from .linalg import (Matrix, Reduction, bar, cancel_units, check_depth,
                     nov_reduce, rank_expsum, snf_int)
from .rings import laurent_image

INT = "INT"
EXPSUM = "EXPSUM"
NOV = "NOV"


@dataclass(frozen=True)
class ChainComplex:
    """Free graded modules with boundary (or coboundary) matrices.

    diffs[k] has |generators[k]| rows and |generators[k+1]| columns.
    Descending (default), it is the boundary from degree k+1 to degree k;
    ascending, it is the coboundary delta_k from degree k to degree k+1,
    stored as its transpose.  INT entries are ints and ``scale`` is None.
    EXPSUM and NOV entries lie in ℤ[u, u⁻¹], as ints or ``NovElem``s,
    u = t^(1/scale) with an int ``scale`` >= 1 (1 for a complex written
    with t-exponents), so ``scale`` and ``diffs`` are replaced together.
    """

    regime: str
    generators: tuple  # per degree: tuple of labels
    diffs: tuple       # len = len(generators) - 1, Matrix each
    ascending: bool = False
    scale: int | None = None

    def __post_init__(self):
        if self.regime not in (INT, EXPSUM, NOV):
            raise ValueError(f"unknown regime {self.regime!r}")
        kind = int if self.regime != INT else type(None)
        if type(self.scale) is not kind or kind is int and self.scale < 1:
            raise ValueError(f"no scale {self.scale} for a {self.regime} complex")
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "diffs", tuple(self.diffs))
        if len(self.diffs) != max(len(gens) - 1, 0):
            raise ValueError("need exactly one matrix per adjacent degree pair")
        for k, d in enumerate(self.diffs):
            want = (len(gens[k]), len(gens[k + 1]))
            if (d.rows, d.cols) != want:
                raise ValueError(
                    f"matrix {k} is {d.rows}x{d.cols}, expected {want[0]}x{want[1]}")

    @property
    def dimension(self) -> int:
        return len(self.generators) - 1

    def counts(self):
        return tuple(len(g) for g in self.generators)


@dataclass(frozen=True)
class Violation:
    degree: int
    row: int
    col: int
    value: object

    def describe(self) -> str:
        return (f"d.d != 0: composite through degree {self.degree} has entry "
                f"({self.row},{self.col}) = {self.value}")


def validate_complex(C: ChainComplex):
    """None if every composable pair of matrices multiplies to zero,
    else the Violation at the smallest (row, col) of the first nonzero
    composite diffs[k]·diffs[k+1]: a degree-k row and a degree-(k+2)
    column, for cochains too (their composite is the transpose of
    delta_(k+1)·delta_k).  Each row of a composite sums the products of
    the left row's nonzero entries with the nonzero entries of the right
    matrix's matching rows, so the check costs one product per nonzero
    pair.  A twisted complex is checked over ℤ[u, u⁻¹]; a violation shows
    its image in t = u^scale."""
    diffs = C.diffs
    for k in range(len(diffs) - 1):
        below = diffs[k + 1].data
        for i, lrow in enumerate(diffs[k].data):
            comp: dict = {}
            for mid, a in lrow.items():
                for j, b in below[mid].items():
                    comp[j] = comp[j] + a * b if j in comp else a * b
            bad = [j for j, e in comp.items() if e]
            if bad:
                j = min(bad)
                value = comp[j]
                if C.regime != INT:
                    value = laurent_image(value, C.scale)
                return Violation(degree=k + 1, row=i, col=j, value=value)
    return None


@dataclass(frozen=True)
class DegreeSummary:
    betti: int
    torsion: tuple = ()   # invariant factors (INT) / cyclic orders (NOV)
    status: str = "complete"


@dataclass(frozen=True)
class HomologySummary:
    regime: str
    degrees: tuple  # DegreeSummary per degree 0..m

    @property
    def betti(self):
        return tuple(d.betti for d in self.degrees)

    def torsion(self, k):
        return self.degrees[k].torsion

    @property
    def complete(self) -> bool:
        return all(d.status == "complete" for d in self.degrees)


def reduce(C: ChainComplex) -> ChainComplex:
    """The complex that ``cancel_units`` leaves, one pass per boundary,
    top-down: each unit pivot pairs a degree-k row with a degree-(k+1)
    column, the boundary becomes its Schur complement over the unpaired
    cells, and the boundaries above and below lose the paired rows and
    columns.  The pivots form a block invertible over the ring, so for
    ∂∂ = 0 this is the elimination of Kaczynski–Mrozek–Ślusarek: a complex
    with the same homology, regime, ``scale`` and direction, the surviving
    generators in order, and no unit entry.  A complex with no unit is
    returned as it is.  u ↦ u⁻¹ keeps units and zeros, so ``reduce``
    commutes with ``dualize``."""
    gens, diffs = list(C.generators), list(C.diffs)
    for k in reversed(range(len(diffs))):
        pivots, diffs[k] = cancel_units(diffs[k])
        if not pivots:
            continue
        lo, hi = map(set, zip(*pivots))
        gens[k] = [g for i, g in enumerate(gens[k]) if i not in lo]
        gens[k + 1] = [g for i, g in enumerate(gens[k + 1]) if i not in hi]
        if k + 1 < len(diffs):
            diffs[k + 1] = diffs[k + 1].without(rows=hi)
        if k:
            diffs[k - 1] = diffs[k - 1].without(cols=lo)
    if gens == list(C.generators):
        return C
    return ChainComplex(C.regime, gens, diffs, C.ascending, C.scale)


def homology(C: ChainComplex, depth=16, max_iter=10000) -> HomologySummary:
    """Betti ranks plus torsion per degree.  ∂² is checked on C, then the
    regime's leaf runs on each non-empty boundary of ``reduce(C)``:
    ``snf_int``, ``rank_expsum``, or ``nov_reduce`` at ``depth·scale``
    (``depth`` on the image in t; ``check_depth`` refuses it first).  The
    Betti number of degree k is its reduced cell count less the ranks of
    the matrices below and above it, for chains and cochains alike; every
    rank is exact, so every Betti number is.  Torsion and status come from
    the matrix into k, above for chains and below for cochains: a stuck
    degree has an exact Betti number and unknown torsion."""
    if C.regime == NOV:
        check_depth(depth * C.scale)
    bad = validate_complex(C)
    if bad is not None:
        raise InvalidComplex(bad.describe())
    R = reduce(C)
    leaf = {INT: snf_int, EXPSUM: rank_expsum}.get(C.regime) or (
        lambda d: nov_reduce(d, depth=depth * C.scale, max_iter=max_iter))
    data = [Reduction(0), *(leaf(d) if any(d.data) else Reduction(0)
                            for d in R.diffs), Reduction(0)]
    degrees = []
    for k, count in enumerate(R.counts()):
        below, above = data[k], data[k + 1]
        into = below if C.ascending else above
        degrees.append(DegreeSummary(count - below.rank - above.rank,
                                     into.torsion, into.status))
    return HomologySummary(regime=C.regime, degrees=tuple(degrees))


def dualize(C: ChainComplex) -> ChainComplex:
    """Cochain complex: invert every transport of each boundary.

    Inverting a transport negates its exponent (``linalg.bar``, u ↦ u⁻¹
    over ℤ[u, u⁻¹]); the flow-line signs are untouched.  Only the stored
    (nonzero) entries are inverted; zero is its own inverse.  Each matrix
    keeps its shape, so the result, marked ascending, stores delta_k as
    its transpose.
    """
    if C.ascending:
        raise ValueError("dualize expects a descending (chain) complex")
    diffs = [Matrix(d.rows, d.cols, [{j: bar(e) for j, e in row.items()}
                                     for row in d.data])
             for d in C.diffs]
    return ChainComplex(regime=C.regime, generators=C.generators,
                        diffs=diffs, ascending=True, scale=C.scale)


def euler_cells(C: ChainComplex) -> int:
    return sum((-1) ** k * n for k, n in enumerate(C.counts()))


def euler_homology(S: HomologySummary) -> int:
    """The alternating sum of the Betti numbers, exact in every degree,
    stuck ones included."""
    return sum((-1) ** k * d.betti for k, d in enumerate(S.degrees))
