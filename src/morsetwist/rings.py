"""Exact coefficient arithmetic over ℤ[u, u⁻¹] and the Novikov ring.

Every twisted complex is built, checked and reduced as ints and
``NovElem``s: sums of monomials ``c * u^k`` with int coefficients and,
over ℤ[u, u⁻¹] (``laurent``), int exponents; ``laurent_image`` reads one
in t = u^scale.  ``ExpSum`` holds such sums with rational coefficients;
no reduction computes in it.  A ``NovElem`` from any public path is exact
(``floor`` None): truncated series exist only inside ``linalg._nov_leaf``,
whose unit inverses carry a floor at or below which terms are unknown,
and ``+``, ``−`` and ``·`` keep every result term above it.

Every element holds a canonical term tuple: ``(coeff, exp)`` pairs whose
exponents are distinct exact rationals in strictly descending order, with
no zero coefficient; coefficients are ``int`` in a ``NovElem`` and
``Fraction`` in an ``ExpSum``.  The constructors ``NovElem(raw)``/
``ExpSum(raw)`` (via ``_merge_terms``) and ``monomial`` are the only paths
that accept outside values, and they cast and check every one.  Arithmetic
on two canonical operands builds a canonical result directly
(``_add_terms``, ``_mul_terms``, ``_make``) and never re-normalises it.

All exponents are exact rationals, each read from text once, by
``parse_rational``.  Angular periods are stored after dividing by one full
turn, so a half loop is 1/2; uniform positive rescaling of every exponent
is a ring automorphism and changes no rank, unit status, or torsion.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ZeroElement

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _int_cast(c) -> int:
    if isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1):
        return int(c)  # also turns a bool into an int
    raise TypeError(f"NovElem coefficient must be an integer: {c!r}")


def _merge_terms(raw, coeff_cast):
    """Canonical terms from untrusted pairs: cast every value, merge equal
    exponents, drop zeros, sort exponent-descending."""
    acc: dict[Fraction, object] = {}
    for coeff, exp in raw:
        e = _rat(exp)
        acc[e] = acc.get(e, 0) + coeff_cast(coeff)
    return _descending(acc)


def _descending(acc):
    """Canonical terms from an exponent -> coefficient dict."""
    # exponents are distinct keys, so the sort never compares coefficients
    return tuple([(c, e) for e, c in sorted(acc.items(), reverse=True) if c])


# --- kernels on canonical term tuples --------------------------------------

def _add_terms(a, b):
    """Sum of two canonical term tuples: one merge pass."""
    if not a:
        return b
    if not b:
        return a
    out = []
    push = out.append
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ta, tb = a[i], b[j]
        ea, eb = ta[1], tb[1]
        if ea == eb:
            c = ta[0] + tb[0]
            if c:
                push((c, ea))
            i += 1
            j += 1
        elif ea > eb:
            push(ta)
            i += 1
        else:
            push(tb)
            j += 1
    return (*out, *a[i:], *b[j:])


def _neg_terms(a):
    return tuple([(-c, e) for c, e in a])


def _mul_terms(a, b):
    """Product of two canonical term tuples.  A monomial factor scales the
    coefficients and shifts the exponents of the other, which keeps its
    order; otherwise the products are merged in a dict and sorted once."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return ()
    if len(a) == 1:
        (c, e), = a
        if e:
            return tuple([(c * cb, e + eb) for cb, eb in b])
        if c == 1:
            return b
        return tuple([(c * cb, eb) for cb, eb in b])
    acc = {}
    for c1, e1 in a:
        for c2, e2 in b:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2
    return _descending(acc)


def _cut(terms, floor):
    """The canonical terms strictly above ``floor`` (all when it is None)."""
    if floor is None:
        return terms
    n = len(terms)
    while n and terms[n - 1][1] <= floor:
        n -= 1
    return terms[:n]


class ExpSum:
    """Finite formal sum of c*t^a with rational c and a, exponents distinct."""

    __slots__ = ("terms",)

    def __init__(self, raw_terms=()):
        object.__setattr__(self, "terms", _merge_terms(raw_terms, _rat))

    def __setattr__(self, *a):
        raise AttributeError("ExpSum is immutable")

    @staticmethod
    def zero() -> "ExpSum":
        return _make(ExpSum, ())

    @staticmethod
    def one() -> "ExpSum":
        return _make(ExpSum, ((_ONE, _ZERO),))

    @staticmethod
    def monomial(coeff, exp) -> "ExpSum":
        c, e = _rat(coeff), _rat(exp)
        return _make(ExpSum, ((c, e),) if c else ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, ExpSum):
            return other
        if isinstance(other, (int, Fraction)):
            return ExpSum.monomial(other, _ZERO)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(ExpSum, _add_terms(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return _make(ExpSum, _neg_terms(self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(ExpSum, _add_terms(self.terms, _neg_terms(o.terms)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(ExpSum, _mul_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(("ExpSum", self.terms))

    def __bool__(self):
        return bool(self.terms)

    def leading(self):
        if not self.terms:
            raise ZeroElement("zero ExpSum has no leading term")
        return self.terms[0]

    def invert_exponents(self) -> "ExpSum":
        """The bar involution t^a -> t^(-a); inverts each unit monomial."""
        return _make(ExpSum, tuple([(c, -e) for c, e in reversed(self.terms)]))

    def render(self) -> str:
        return _render_terms(self.terms)

    __repr__ = __str__ = render


class NovElem:
    """Element of the rational-exponent Novikov ring.

    ``floor`` is None for an exact element, the only kind outside the leaf.
    When set, stored terms all have exponent > floor; the rest is unknown.
    """

    __slots__ = ("terms", "floor")

    def __init__(self, raw_terms=()):
        object.__setattr__(self, "terms", _merge_terms(raw_terms, _int_cast))
        object.__setattr__(self, "floor", None)

    def __setattr__(self, *a):
        raise AttributeError("NovElem is immutable")

    @staticmethod
    def zero() -> "NovElem":
        return _make(NovElem, ())

    @staticmethod
    def one() -> "NovElem":
        return _make(NovElem, ((1, _ZERO),))

    @staticmethod
    def monomial(coeff, exp) -> "NovElem":
        c, e = _int_cast(coeff), _rat(exp)
        return _make(NovElem, ((c, e),) if c else ())

    def _coerce(self, other):
        if isinstance(other, NovElem):
            return other
        if isinstance(other, int):
            return NovElem.monomial(other, _ZERO)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        floor = _max_floor(self.floor, o.floor)
        return _make(NovElem, _cut(_add_terms(self.terms, o.terms), floor), floor)

    __radd__ = __add__

    def __neg__(self):
        return _make(NovElem, _neg_terms(self.terms), self.floor)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        floor = _max_floor(self.floor, o.floor)
        terms = _add_terms(self.terms, _neg_terms(o.terms))
        return _make(NovElem, _cut(terms, floor), floor)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        sf, of = self.floor, o.floor
        if sf is None and of is None:
            return _make(NovElem, _mul_terms(self.terms, o.terms))
        if (sf is None and not self.terms) or (of is None and not o.terms):
            return NovElem.zero()
        # Unknown tails only pollute the product below top(a)+floor(b) and
        # top(b)+floor(a); everything above both is exact.  A factor with
        # no known term tops at its floor.
        top_s = self.terms[0][1] if self.terms else sf
        top_o = o.terms[0][1] if o.terms else of
        floor = _max_floor(None if of is None else top_s + of,
                           None if sf is None else top_o + sf)
        return _make(NovElem, _cut(_mul_terms(self.terms, o.terms), floor), floor)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms and self.floor == o.floor

    def __hash__(self):
        return hash(("NovElem", self.terms, self.floor))

    def __bool__(self):
        return bool(self.terms)

    def top(self):
        if not self.terms:
            raise ZeroElement("zero NovElem has no top term")
        c, e = self.terms[0]
        return c, e

    def invert_exponents(self) -> "NovElem":
        return _make(NovElem, tuple([(c, -e) for c, e in reversed(self.terms)]))

    def render(self) -> str:
        body = _render_terms(self.terms)
        if self.floor is None:
            return body
        tail = f"O(t^(<{self.floor}))"
        if not self.terms:
            return tail
        return f"{body} + {tail}"

    __repr__ = __str__ = render


# Slot setters, so building a result skips attribute lookup.
_EXP_TERMS = ExpSum.__dict__["terms"].__set__
_NOV_TERMS = NovElem.__dict__["terms"].__set__
_NOV_FLOOR = NovElem.__dict__["floor"].__set__


def _make(cls, terms, floor=None):
    """An ``ExpSum``/``NovElem`` over canonical ``terms``, unchecked.  A
    ``NovElem``'s terms must already lie above ``floor``."""
    obj = object.__new__(cls)
    if cls is ExpSum:
        _EXP_TERMS(obj, terms)
    else:
        _NOV_TERMS(obj, terms)
        _NOV_FLOOR(obj, floor)
    return obj


def laurent(c, k) -> NovElem:
    """c·u^k in ℤ[u, u⁻¹], for ints c ≠ 0 and k."""
    return _make(NovElem, ((c, k),))


def laurent_image(e, scale) -> NovElem:
    """Image of e in ℤ[u, u⁻¹] (an int, or a ``NovElem`` with int
    exponents) under u ↦ t^(1/scale), an injective ring homomorphism: a
    rescale of every exponent."""
    terms = ((e, 0),) if type(e) is int else e.terms
    return _make(NovElem, tuple([(c, Fraction(k, scale)) for c, k in terms]))


def _max_floor(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _render_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for c, e in terms:
        if e == 0:
            s = str(c)
        elif c == 1:
            s = f"t^({e})"
        elif c == -1:
            s = f"-t^({e})"
        else:
            s = f"{c}*t^({e})"
        parts.append(s)
    out = parts[0]
    for s in parts[1:]:
        if s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text) -> Fraction:
    """Strict "p/q" (or "n") rationals: decimals would smuggle in rounding."""
    s = str(text).strip()
    if not _RAT_RE.match(s):
        raise ParseError(f"bad rational {text!r}: want p/q with integers")
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))
