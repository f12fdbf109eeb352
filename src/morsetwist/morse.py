"""Morse data: critical points, signed flow lines, local systems, and the
twisted boundary assembly.

A ``MorseDatum`` is the combinatorial shadow of a Morse-Smale pair: indexed
critical points plus signed flow lines.  Each flow line carries a vector of
exact rational periods, one per declared basis 1-form, measured along the
flow direction (index k point -> index k-1 point).  A ``LocalSystem`` turns
those periods (or unit/deck tags) into invertible transports.

Weight conventions, pinned by the catalog oracles:
  * exponential systems multiply by t^{+a} where a = class . periods;
  * Novikov systems multiply by t^{-a} (the series variable counts descent,
    so its integration direction is opposite the exponential one).

Both are assembled over ℤ[u, u⁻¹] with u = t^(1/L), L the lcm of the
denominators of the flows' class periods: a flow of period a weighs
u^(a·L) under EXP and u^(−a·L) under NOV, an int exponent either way.
``build_complex`` returns that assembly with ``scale`` L, and the complex
is reduced there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .chains import EXPSUM, INT, NOV, ChainComplex, dualize
from .errors import (
    MissingDeckTag,
    MissingUnitTag,
    NonUnit,
    ParseError,
    UnknownGroupElement,
)
from .linalg import Matrix
from .rings import laurent

TRIVIAL = "TRIVIAL"
UNIT_REP = "UNIT_REP"
EXP = "EXP"
NOV_SYS = "NOV"
MAX_DIMENSION = 10_000  # the largest top degree a datum or CW complex declares

_FLAVOR_NAMES = {"trivial": TRIVIAL, "unit-rep": UNIT_REP, "exp": EXP,
                 "nov": NOV_SYS}


def check_dimension(dimension):
    """ValueError unless 0 <= dimension <= MAX_DIMENSION."""
    if dimension < 0:
        raise ValueError(f"dimension must be >= 0, got {dimension}")
    if dimension > MAX_DIMENSION:
        raise ValueError(f"dimension must be <= {MAX_DIMENSION}, got {dimension}")


@dataclass(frozen=True)
class CriticalPoint:
    id: str
    index: int


@dataclass(frozen=True)
class FlowLine:
    """A flow line or CW incidence.  ``periods`` is kept as given: exact
    rationals (``Fraction`` or ``int``), one per basis form (or none)."""
    frm: str                 # index-k critical point, or a CW incidence's k-cell
    to: str                  # index-(k-1) critical point, or its (k-1)-cell
    sign: int                # epsilon(nu), or the incidence number
    periods: tuple = ()
    unit_tag: int | None = None
    deck_tag: str | None = None


@dataclass(frozen=True)
class DeckGroup:
    elements: tuple
    table: dict  # (a, b) -> a*b

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        elements = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table:
                    raise ValueError(f"multiplication table missing ({a},{b})")
                if self.table[(a, b)] not in elements:
                    raise ValueError(f"multiplication table ({a},{b}) is not "
                                     f"an element: {self.table[(a, b)]!r}")

    def mul(self, a, b):
        try:
            return self.table[(a, b)]
        except KeyError:
            raise UnknownGroupElement(f"({a},{b}) not in the deck group") from None


@dataclass(frozen=True)
class MorseDatum:
    name: str
    dimension: int
    basis_forms: tuple
    points: tuple
    flows: tuple
    deck_group: DeckGroup | None = None

    def __post_init__(self):
        object.__setattr__(self, "basis_forms", tuple(self.basis_forms))
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "flows", tuple(self.flows))
        check_dimension(self.dimension)
        ids = [p.id for p in self.points]
        if len(set(ids)) != len(ids):
            raise ValueError("critical point ids must be unique")
        index = {p.id: p.index for p in self.points}
        for p in self.points:
            if not 0 <= p.index <= self.dimension:
                raise ValueError(f"index of {p.id} out of range 0..{self.dimension}")
        for f in self.flows:
            if f.sign not in (1, -1):
                raise ValueError(f"flow sign must be +-1, got {f.sign}")
            if f.frm not in index or f.to not in index:
                raise ValueError(f"flow {f.frm}->{f.to} references unknown points")
            if index[f.frm] != index[f.to] + 1:
                raise ValueError(
                    f"flow {f.frm}->{f.to} must drop the index by exactly 1")
            if len(f.periods) != len(self.basis_forms):
                raise ValueError(
                    f"flow {f.frm}->{f.to} carries {len(f.periods)} periods "
                    f"for {len(self.basis_forms)} basis forms")


@dataclass(frozen=True)
class LocalSystem:
    flavor: str
    class_vector: tuple = ()

    def __post_init__(self):
        if self.flavor not in (TRIVIAL, UNIT_REP, EXP, NOV_SYS):
            raise ValueError(f"unknown system flavor {self.flavor!r}")
        object.__setattr__(self, "class_vector",
                           tuple(Fraction(c) for c in self.class_vector))

    @staticmethod
    def trivial() -> "LocalSystem":
        return LocalSystem(TRIVIAL)

    @staticmethod
    def unit_rep() -> "LocalSystem":
        return LocalSystem(UNIT_REP)

    @staticmethod
    def exp(class_vector) -> "LocalSystem":
        return LocalSystem(EXP, tuple(class_vector))

    @staticmethod
    def nov(class_vector) -> "LocalSystem":
        return LocalSystem(NOV_SYS, tuple(class_vector))

    @staticmethod
    def named(name, class_vector=None) -> "LocalSystem":
        """The system a flavor name ("trivial", "unit-rep", "exp", "nov")
        selects; the twisted flavors need a class vector."""
        flavor = _FLAVOR_NAMES.get(name)
        if flavor is None:
            raise ParseError(f"unknown system {name!r}")
        if flavor in (TRIVIAL, UNIT_REP):
            return LocalSystem(flavor)
        if class_vector is None:
            raise ParseError(f"--system {name} requires --class")
        return LocalSystem(flavor, tuple(class_vector))

    @property
    def regime(self) -> str:
        return {TRIVIAL: INT, UNIT_REP: INT, EXP: EXPSUM, NOV_SYS: NOV}[self.flavor]

    def check_compatible(self, d: MorseDatum):
        if self.flavor in (EXP, NOV_SYS):
            if len(self.class_vector) != len(d.basis_forms):
                raise ParseError(
                    f"class vector has {len(self.class_vector)} entries for "
                    f"{len(d.basis_forms)} basis forms")
        if self.flavor == UNIT_REP:
            for f in d.flows:
                if f.unit_tag is None:
                    raise MissingUnitTag(f"flow {f.frm}->{f.to} has no unit tag")
                if f.unit_tag not in (1, -1):
                    raise NonUnit(f"unit tag {f.unit_tag} on {f.frm}->{f.to}")


def class_support(class_vector) -> tuple:
    """(index, numerator, denominator) of each nonzero class entry."""
    return tuple((i, c.numerator, c.denominator)
                 for i, c in enumerate(class_vector) if c)


def flow_period(f: FlowLine, support) -> Fraction:
    """class . periods over the class's ``support`` (``class_support``),
    summed over the nonzero terms as one integer fraction."""
    num, den = 0, 1
    periods = f.periods
    for i, cn, cd in support:
        p = periods[i]
        if p:
            d = cd * p.denominator
            num = num * d + cn * p.numerator * den
            den *= d
    return Fraction(num, den)


def flow_periods(d: MorseDatum, class_vector) -> list:
    """The class period of every flow, in flow order; 0s for a zero class."""
    if any(class_vector):
        support = class_support(class_vector)
        return [flow_period(f, support) for f in d.flows]
    return [0] * len(d.flows)


def build_complex(d: MorseDatum, sys: LocalSystem,
                  periods=None) -> ChainComplex:
    """Twisted boundary assembly: entry (p, q) = sum of sign * weight over
    the flow lines from q down to p.  Only nonzero sums are stored; an
    entry whose flows cancel is dropped.  A flow weighs 1 under TRIVIAL and
    its unit tag under UNIT_REP.  EXP and NOV complexes are assembled over
    ℤ[u, u⁻¹], u = t^(1/L), with ``scale`` L from the flows' class
    ``periods`` (computed when not given): a flow of period k/L weighs
    ±u^k under EXP and ±u^(−k) under NOV, or ±1 when every k is 0."""
    sys.check_compatible(d)
    gens = [[] for _ in range(d.dimension + 1)]
    for p in d.points:
        gens[p.index].append(p.id)
    weights = [f.sign for f in d.flows]
    scale = None
    if sys.flavor == UNIT_REP:
        weights = [f.sign * f.unit_tag for f in d.flows]
    elif sys.flavor != TRIVIAL:
        if periods is None:
            periods = flow_periods(d, sys.class_vector)
        scale = lcm(*(a.denominator for a in periods))
        sign = -1 if sys.flavor == NOV_SYS else 1
        ks = [sign * a.numerator * (scale // a.denominator) for a in periods]
        if any(ks):
            weights = [laurent(w, k) for w, k in zip(weights, ks)]
    return ChainComplex(sys.regime, gens, _assemble(d, gens, weights),
                        scale=scale)


def _assemble(d: MorseDatum, gens, weights):
    """Boundary matrices from one signed weight per flow."""
    pos = {pid: (k, i) for k, layer in enumerate(gens)
           for i, pid in enumerate(layer)}
    mats = [[{} for _ in gens[k - 1]] for k in range(1, d.dimension + 1)]
    for f, w in zip(d.flows, weights):
        k, col = pos[f.frm]
        target = mats[k - 1][pos[f.to][1]]
        v = target[col] + w if col in target else w
        if v:
            target[col] = v
        else:
            del target[col]
    return tuple(Matrix(len(gens[k - 1]), len(gens[k]), mats[k - 1])
                 for k in range(1, d.dimension + 1))


def build_cochain(d: MorseDatum, sys: LocalSystem) -> ChainComplex:
    return dualize(build_complex(d, sys))


def gauge_transform(d: MorseDatum, g: dict) -> MorseDatum:
    """Conjugate every unit tag by a per-point unit: tag' = g(p)*tag*g(q)^-1.

    Units are +-1 (self-inverse), so this is g(to)*tag*g(frm)."""
    for pid in g:
        if g[pid] not in (1, -1):
            raise NonUnit(f"gauge value {g[pid]} at {pid}")
    def gv(pid):
        return g.get(pid, 1)
    flows = tuple(
        replace(f, unit_tag=None if f.unit_tag is None
                else gv(f.to) * f.unit_tag * gv(f.frm))
        for f in d.flows)
    return replace(d, flows=flows)


def potential_shift(d: MorseDatum, h: dict) -> MorseDatum:
    """Shift periods by a per-point rational potential vector: a flow q->p
    gains h(q) - h(p) componentwise.  Loop periods are unchanged, so every
    homology summary must be too."""
    nforms = len(d.basis_forms)
    def hv(pid):
        v = h.get(pid)
        if v is None:
            return (Fraction(0),) * nforms
        return tuple(Fraction(x) for x in v)
    flows = tuple(
        replace(f, periods=tuple(p + a - b for p, a, b
                                 in zip(f.periods, hv(f.frm), hv(f.to))))
        for f in d.flows)
    return replace(d, flows=flows)


def rescale_datum(d: MorseDatum, s) -> MorseDatum:
    """Multiply every period by a positive rational (1-form rescaling)."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("scale must be positive")
    flows = tuple(replace(f, periods=tuple(p * s for p in f.periods))
                  for f in d.flows)
    return replace(d, flows=flows)


def lift_cover(d: MorseDatum) -> MorseDatum:
    """Finite-cover lift over the datum's deck group: points become (point,
    deck element); a flow q->p tagged g lifts to (q,gamma) -> (p, gamma*g)
    with the same sign.  The output is untwisted (no tags, no periods)."""
    group = d.deck_group
    if group is None:
        raise MissingDeckTag("no deck group declared")
    for f in d.flows:
        if f.deck_tag is None:
            raise MissingDeckTag(f"flow {f.frm}->{f.to} has no deck tag")
        if f.deck_tag not in group.elements:
            raise UnknownGroupElement(f"deck tag {f.deck_tag!r} not in the group")
    points = tuple(CriticalPoint(id=f"{p.id}@{g}", index=p.index)
                   for p in d.points for g in group.elements)
    flows = []
    for f in d.flows:
        for g in group.elements:
            flows.append(FlowLine(
                frm=f"{f.frm}@{g}",
                to=f"{f.to}@{group.mul(g, f.deck_tag)}",
                sign=f.sign,
            ))
    return MorseDatum(name=f"{d.name}-lift", dimension=d.dimension,
                      basis_forms=(), points=points, flows=tuple(flows))


# --- simplicity ------------------------------------------------------------

def gauge_walk(d: MorseDatum, per):
    """(periods exact, tags trivial) for the flows' class periods ``per``
    (``flow_periods``) and unit tags (1 when absent).  A spanning forest of
    the flow graph, every component and every index, sets a potential h
    and a sign g at each point, and one pass over the flows checks
    per(f) = h(frm) − h(to) and tag(f) = g(frm)·g(to).  Both hold exactly
    when the periods are a potential shift of zero and the tags a gauge
    change of 1: when the transports are a coboundary."""
    flows = d.flows
    tags = [1 if f.unit_tag is None else f.unit_tag for f in flows]
    touching = {p.id: [] for p in d.points}
    for i, f in enumerate(flows):
        touching[f.frm].append(i)
        touching[f.to].append(i)
    h, g = {}, {}
    for root in touching:
        if root in h:
            continue
        h[root], g[root] = 0, 1
        stack = [root]
        while stack:
            u = stack.pop()
            for i in touching[u]:
                f, a = flows[i], per[i]
                v = f.to if f.frm == u else f.frm
                if v not in h:
                    h[v] = (h[u] if not a else h[u] - a if v == f.to
                            else h[u] + a)
                    g[v] = g[u] * tags[i]
                    stack.append(v)
    exact = all(h[f.frm] == h[f.to] if not a else a == h[f.frm] - h[f.to]
                for f, a in zip(flows, per))
    trivial = all(t == g[f.frm] * g[f.to] for f, t in zip(flows, tags))
    return exact, trivial


def is_simple(d: MorseDatum, sys: LocalSystem, periods=None) -> bool:
    """Whether sys is trivial on the datum: its class periods are a
    potential shift of zero (EXP, NOV) or its unit tags a gauge change of
    1 (UNIT_REP), by ``gauge_walk``.  ``periods`` are the flows' class
    periods, computed when not given."""
    sys.check_compatible(d)
    if sys.flavor == TRIVIAL:
        return True
    if periods is None:
        periods = flow_periods(d, sys.class_vector)
    exact, trivial = gauge_walk(d, periods)
    return trivial if sys.flavor == UNIT_REP else exact
