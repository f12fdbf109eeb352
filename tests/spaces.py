"""The test spaces that the property suites and ``scripts/cli_sweep.py``
both build: the twisted triangulated torus, grid triangulations of the
torus and the Klein bottle, Freudenthal tori, and two Morse data in
their JSON form: two circles whose second one is twisted, and a datum
whose Novikov rank a truncated inverse misreads; the product of two
Morse data; and a cyclic datum with no unit incidence.  A plain module,
with no pytest import, so that a script can import it too."""

import itertools
from fractions import Fraction

from morsetwist.cw import FacetList, RegularCW
from morsetwist.morse import CriticalPoint, FlowLine, MorseDatum


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
                incidences.append(FlowLine(
                    frm=str(simplex), to=str(face), sign=(-1) ** drop,
                    periods=g))
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


def freudenthal_torus_facets(n, dim=3) -> FacetList:
    """The Freudenthal triangulation of the dim-torus on the n^dim grid,
    n >= 3: in each unit cube, one simplex per permutation of the axes,
    walking from the cube's low corner to its high corner one axis at a
    time."""
    def vertex(p):
        v = 0
        for x in p:
            v = v * n + x % n
        return v
    facets = []
    for corner in itertools.product(range(n), repeat=dim):
        for order in itertools.permutations(range(dim)):
            p = list(corner)
            simplex = [vertex(p)]
            for axis in order:
                p[axis] += 1
                simplex.append(vertex(p))
            facets.append(tuple(simplex))
    return FacetList(n ** dim, tuple(facets))


def _flow(frm, to, sign, period):
    return {"from": frm, "to": to, "sign": sign, "periods": [period]}


def two_circles():
    """Two disjoint circles: an untwisted one (p, q) listed first, then
    one with two minima a, b and two saddles x, y whose periods ±1/4 add
    up to 1 around it."""
    points = [{"id": p, "index": int(p in "qxy")} for p in "pqabxy"]
    flows = [_flow("q", "p", 1, "0"), _flow("q", "p", -1, "0"),
             _flow("x", "a", 1, "1/4"), _flow("x", "b", -1, "-1/4"),
             _flow("y", "b", 1, "1/4"), _flow("y", "a", -1, "-1/4")]
    return {"name": "two-circles", "dimension": 1, "basis_forms": ["theta"],
            "points": points, "flows": flows}


def false_zero():
    """∂_1 = [[1 − t^(−1), 2], [2, 4·(1 + t^(−1) + … + t^(−16))]] under
    the class 1, with determinant −4t^(−17): rank 2, so b = (0, 0) and
    q = (1, 0).  At depth 16 the leaf's truncated inverse cannot reach
    the t^(−17) term and reads the entry that holds it as zero; at depth
    32 it reaches it."""
    points = [{"id": p, "index": int(p in "xy")} for p in "abxy"]
    flows = [_flow("x", "a", 1, "0"), _flow("x", "a", -1, "1"),
             *[_flow("x", "b", 1, "0")] * 2, *[_flow("y", "a", 1, "0")] * 2,
             *[_flow("y", "b", 1, str(i)) for i in range(17) for _ in range(4)]]
    return {"name": "false-zero", "dimension": 1, "basis_forms": ["theta"],
            "points": points, "flows": flows}


def product(a, b) -> MorseDatum:
    """The product of Morse data a and b: a point (x, y) of index
    ind x + ind y for each pair of points; a flow x -> x' of a gives
    (x, y) -> (x', y) with its sign, and a flow y -> y' of b gives
    (x, y) -> (x, y') with sign (-1)^(ind x) times its own, so the boundary
    is ∂x ⊗ y + (-1)^|x| x ⊗ ∂y.  The periods of a flow are padded with
    zeros for the other factor's forms, so a class on the product is a
    class of a followed by one of b.  Unit and deck tags are dropped."""
    def pid(x, y):
        return f"({x},{y})"
    pad_a = (Fraction(0),) * len(b.basis_forms)
    pad_b = (Fraction(0),) * len(a.basis_forms)
    flows = [FlowLine(pid(f.frm, y.id), pid(f.to, y.id), f.sign,
                      f.periods + pad_a)
             for f in a.flows for y in b.points]
    flows += [FlowLine(pid(x.id, g.frm), pid(x.id, g.to),
                       (-1) ** x.index * g.sign, pad_b + g.periods)
              for x in a.points for g in b.flows]
    return MorseDatum(
        name=f"{a.name} x {b.name}", dimension=a.dimension + b.dimension,
        basis_forms=tuple(f"{f}_1" for f in a.basis_forms)
        + tuple(f"{f}_2" for f in b.basis_forms),
        points=tuple(CriticalPoint(pid(x.id, y.id), x.index + y.index)
                     for x in a.points for y in b.points),
        flows=tuple(flows))


def cyclic_datum(n) -> MorseDatum:
    """Points a_i of index 0 and b_i of index 1, i mod n: each b_i has two
    flows to a_i, sign +1 with period 0 and sign -1 with period 1, and two
    to a_(i+1), sign +1 with period 0.  Its boundary is (1 − u)·I + 2·P,
    with P the cyclic shift, and no entry is a unit of ℤ[u, u⁻¹]."""
    zero, one = (Fraction(0),), (Fraction(1),)
    flows = []
    for i in range(n):
        a, b, a_next = f"a{i}", f"b{i}", f"a{(i + 1) % n}"
        flows += [FlowLine(b, a, 1, zero), FlowLine(b, a, -1, one),
                  FlowLine(b, a_next, 1, zero), FlowLine(b, a_next, 1, zero)]
    return MorseDatum(
        name=f"cyclic-{n}", dimension=1, basis_forms=("theta",),
        points=tuple(CriticalPoint(f"{p}{i}", int(p == "b"))
                     for p in "ab" for i in range(n)),
        flows=tuple(flows))
