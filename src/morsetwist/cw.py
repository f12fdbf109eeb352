"""Regular CW complexes: validation, simplicial ingestion, and the
correspondence with Morse data, through which a twisted cellular
boundary is ``build_complex(cw_to_morse(cw), sys)``.

Each incidence is held as the ``FlowLine`` it becomes (k-cell ``frm``,
(k-1)-cell ``to``, incidence number ``sign``, and the holonomy of the
pair), and ``cw_to_morse`` passes it on as it is.  Regularity is what
makes a twisted cellular boundary well defined: every incidence number is
+-1, each pair of cells two dimensions apart has exactly two cells
between them, whose incidence products cancel, and each 1-cell has two
distinct endpoint vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .chains import INT, ChainComplex
from .errors import MalformedFacets, NotRegular
from .linalg import Matrix
from .morse import CriticalPoint, FlowLine, MorseDatum, check_dimension


@dataclass(frozen=True)
class RegularCW:
    name: str
    dimension: int
    cells: tuple          # per degree: tuple of cell labels
    incidences: tuple     # one FlowLine per incidence, frm the k-cell
    basis_forms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(tuple(c) for c in self.cells))
        object.__setattr__(self, "incidences", tuple(self.incidences))
        object.__setattr__(self, "basis_forms", tuple(self.basis_forms))
        check_dimension(self.dimension)
        if len(self.cells) != self.dimension + 1:
            raise ValueError("need one cell layer per degree 0..dimension")
        seen = set()
        for layer in self.cells:
            for c in layer:
                if c in seen:
                    raise ValueError(f"duplicate cell label {c!r}")
                seen.add(c)


@dataclass(frozen=True)
class CWViolation:
    kind: str
    cells: tuple
    detail: str

    def describe(self) -> str:
        return f"{self.kind} at {self.cells}: {self.detail}"


def validate_regular(cw: RegularCW):
    """None if regular, else the first violation found."""
    deg = {}
    for k, layer in enumerate(cw.cells):
        for c in layer:
            deg[c] = k
    below: dict = {}
    for inc in cw.incidences:
        if inc.frm not in deg or inc.to not in deg:
            return CWViolation("unknown-cell", (inc.frm, inc.to),
                              "incidence references an undeclared cell")
        if deg[inc.frm] != deg[inc.to] + 1:
            return CWViolation("degree-gap", (inc.frm, inc.to),
                              "incidence must connect adjacent degrees")
        if inc.sign not in (1, -1):
            return CWViolation("incidence-value", (inc.frm, inc.to),
                              f"incidence number {inc.sign} is not +-1")
        below.setdefault(inc.frm, []).append(inc)
    # each 1-cell must have two distinct endpoints with opposite signs
    for e in cw.cells[1] if cw.dimension >= 1 else ():
        faces = below.get(e, [])
        ends = [(i.to, i.sign) for i in faces]
        if len(ends) != 2 or len({v for v, _ in ends}) != 2 \
                or sorted(s for _, s in ends) != [-1, 1]:
            return CWViolation("edge-endpoints", (e,),
                              f"1-cell must have two distinct endpoint "
                              f"vertices with signs -1,+1; got {ends}")
    # diamond property: exactly two intermediate cells per codimension-2
    # pair, whose incidence products cancel.  The summed products are the
    # (bottom, top) entries of the untwisted boundary squared, duplicate
    # records included, so this pass is also the check that d.d = 0.
    squared = None
    for top, faces in below.items():
        count: dict = {}
        total: dict = {}
        for f in faces:
            for g in below.get(f.to, []):
                count[g.to] = count.get(g.to, 0) + 1
                total[g.to] = total.get(g.to, 0) + f.sign * g.sign
        for bottom, c in count.items():
            if c != 2:
                return CWViolation("diamond", (bottom, top),
                                   f"{c} intermediate cells, expected 2")
            if total[bottom] != 0 and squared is None:
                squared = CWViolation(
                    "boundary-squared", (bottom, top),
                    f"incidence products sum to {total[bottom]}, expected 0")
    return squared


def cw_to_morse(cw: RegularCW) -> MorseDatum:
    """One critical point per cell (index = dimension), and the incidence
    records as the flow lines; a record with no periods, under n >= 1
    basis forms, is replaced by one with n zero periods."""
    bad = validate_regular(cw)
    if bad is not None:
        raise NotRegular(bad.describe())
    points = tuple(CriticalPoint(id=c, index=k)
                   for k, layer in enumerate(cw.cells) for c in layer)
    zeros = (Fraction(0),) * len(cw.basis_forms)
    flows = tuple(i if i.periods or not zeros else replace(i, periods=zeros)
                  for i in cw.incidences)
    return MorseDatum(name=cw.name, dimension=cw.dimension,
                      basis_forms=cw.basis_forms, points=points, flows=flows)


MAX_FACES = 10 ** 6


@dataclass(frozen=True)
class FacetList:
    """Facets of a pure simplicial complex, each vertex and the vertex
    count an ``int`` (not a bool, float or string).  A k-vertex facet has
    2^k − 1 faces, so a list whose face bound (facets)·(2^k − 1) exceeds
    ``MAX_FACES`` is refused before any face is enumerated."""

    n_vertices: int
    facets: tuple

    def __post_init__(self):
        facets = tuple(map(tuple, self.facets))
        object.__setattr__(self, "facets", facets)
        bad = [v for f in ((self.n_vertices,), *facets) for v in f
               if type(v) is not int]
        if bad:
            raise MalformedFacets(f"{bad[0]!r} is not an int vertex or count")
        if not facets:
            raise MalformedFacets("no facets given")
        size = len(facets[0])
        if not size:
            raise MalformedFacets("a facet has no vertex")
        bound = len(facets) * (2 ** size - 1)
        if bound > MAX_FACES:
            raise MalformedFacets(f"face bound {len(facets)} x (2^{size} - 1) "
                                  f"= {bound} exceeds the cap {MAX_FACES}")
        n = self.n_vertices
        seen = set()
        for f in facets:
            if len(f) != size:
                raise MalformedFacets("facets must all have the same dimension")
            if len(set(f)) != len(f):
                raise MalformedFacets(f"facet {f} repeats a vertex")
            key = tuple(sorted(f))
            if key and (key[0] < 0 or key[-1] >= n):
                raise MalformedFacets(f"facet {f} has a vertex out of range")
            if key in seen:
                raise MalformedFacets(f"duplicate facet {f}")
            seen.add(key)


def _cell_label(simplex) -> str:
    return ".".join(str(v) for v in simplex)


def _simplices(fl: FacetList) -> list:
    """The sorted simplex tuples of each degree 0..top: every face of every
    facet, each facet sorted once."""
    faces: list[set] = [set() for _ in fl.facets[0]]
    for f in fl.facets:
        s = tuple(sorted(f))
        for k, layer in enumerate(faces):
            layer.update(itertools.combinations(s, k + 1))
    return [sorted(layer) for layer in faces]


def simplicial_boundary(fl: FacetList) -> ChainComplex:
    """The integer simplicial boundary of the facets' complex, equal to the
    untwisted ``build_complex(cw_to_morse(from_simplicial(fl)))``: the
    generators are the ``_simplices`` tuples, and entry (face, simplex) is
    (-1)^i, i the position of the vertex the face drops.  That round trip's
    regularity check cannot fail: a facet holds distinct vertices, so each
    face is a simplex.  An edge (a<b) has the endpoints b (+1) and a (-1);
    a codimension-2 face of a simplex lies in exactly the two faces of it
    that drop one of the two missing vertices, with opposite signs."""
    layers = _simplices(fl)
    diffs = []
    for k in range(1, len(layers)):
        row = {s: r for r, s in enumerate(layers[k - 1])}
        data = [{} for _ in layers[k - 1]]
        # combinations(s, k) drops vertex k - m of s at position m
        signs = [-1 if (k - m) % 2 else 1 for m in range(k + 1)]
        for c, s in enumerate(layers[k]):
            for face, sign in zip(itertools.combinations(s, k), signs):
                data[row[face]][c] = sign
        diffs.append(Matrix(len(layers[k - 1]), len(layers[k]), data))
    return ChainComplex(INT, layers, diffs)


def from_simplicial(fl: FacetList) -> RegularCW:
    """All faces of the facets, with the alternating-sign simplicial boundary
    under sorted-vertex orientation."""
    layers = _simplices(fl)
    label = {s: _cell_label(s) for layer in layers for s in layer}
    cells = tuple(tuple(label[s] for s in layer) for layer in layers)
    incidences = tuple(
        FlowLine(frm=label[s], to=label[s[:i] + s[i + 1:]], sign=(-1) ** i)
        for k in range(1, len(layers)) for s in layers[k]
        for i in range(k + 1))
    return RegularCW(name="simplicial", dimension=len(layers) - 1,
                     cells=cells, incidences=incidences)
