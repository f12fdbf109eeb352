"""Exception hierarchy shared across the package."""


class MorsetwistError(Exception):
    """Base class for all library errors."""


class ParseError(MorsetwistError):
    """Malformed input (rational, JSON, facet file, option) or file I/O."""


class ZeroElement(MorsetwistError):
    """Operation undefined on the zero element."""


class InvalidComplex(MorsetwistError):
    """Chain complex failed the boundary-squared check."""


class TooManyTerms(MorsetwistError):
    """A truncated Novikov inverse would exceed ``linalg.MAX_TERMS`` terms."""


class Indeterminate(MorsetwistError):
    """A result depends on a degree whose reduction got stuck."""


class MissingUnitTag(MorsetwistError):
    """Unit-representation system bound to a flow line without a unit tag."""


class NonUnit(MorsetwistError):
    """Gauge value or unit tag outside {+1, -1}."""


class MissingDeckTag(MorsetwistError):
    """Cover lift requested but some flow line carries no deck tag."""


class UnknownGroupElement(MorsetwistError):
    """Deck tag not an element of the declared deck group."""


class NotRegular(MorsetwistError):
    """CW complex failed a regularity check."""


class MalformedFacets(ParseError):
    """Facet list is not a pure simplicial complex."""


class UnknownExample(MorsetwistError):
    """Catalog lookup for a name not in the registry."""


class ZeroClass(MorsetwistError):
    """Obstruction check requires a nonzero twisting class."""
