"""File formats: the JSON envelope for Morse data and CW complexes, and the
line-oriented facet list for triangulations.

Rationals are serialized as "p/q" strings (or "n" when integral) so files
stay exact.  Unknown fields are rejected rather than ignored: silently
dropping a typo'd "period" key would change the mathematics.  Flows and CW
incidences are read by one loop, ``_flow_lines``, and ``load_json`` raises
a constructor's ``ValueError`` as ``ParseError``.
"""

from __future__ import annotations

import functools
import json

from .cw import FacetList, RegularCW
from .errors import ParseError
from .morse import CriticalPoint, DeckGroup, FlowLine, MorseDatum
from .rings import parse_rational


@functools.cache
def _key_sets(required, optional) -> tuple:
    """(required, allowed) keys, built once per layout of six literal pairs."""
    return frozenset(required), frozenset(required + optional)


def _at(where) -> str:
    """An error location: a str, or a (list name, index) pair, which is
    formatted only when an error is raised."""
    return where if type(where) is str else f"{where[0]}[{where[1]}]"


def _check_fields(obj: dict, required: tuple, optional: tuple, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{_at(where)}: expected an object")
    for k in required:
        if k not in obj:
            raise ParseError(f"{_at(where)}: missing field {k!r}")
    allowed = _key_sets(required, optional)[1]
    if not allowed.issuperset(obj):
        k = next(k for k in obj if k not in allowed)
        raise ParseError(f"{_at(where)}: unknown field {k!r}")


_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _typed(kind, obj, key, where):
    """A JSON field of exactly ``kind`` (int, list or dict): an integer
    field rejects bool, str, null and float."""
    value = obj[key]
    if type(value) is not kind:
        raise ParseError(f"{_at(where)}: {key!r} must be {_KINDS[kind]}, "
                         f"got {json.dumps(value)}")
    return value


_int = functools.partial(_typed, int)
_list = functools.partial(_typed, list)
_object = functools.partial(_typed, dict)


def _rational_parser():
    """A period-list parser: one pass through a memo of parsed strings,
    which on a miss parses the list's new strings once, in list order.  The
    memo is keyed on the str itself: 1, True and 1.0 share one hash, so a
    list holding any other value is parsed (and rejected) element by
    element, past the memo."""
    memo: dict = {}
    get = memo.__getitem__

    def parse_periods(values) -> tuple:
        try:
            return tuple(map(get, values))
        except (KeyError, TypeError):
            pass
        if set(map(type, values)) != {str}:
            return tuple(map(parse_rational, values))
        for value in dict.fromkeys(values):
            if value not in memo:
                memo[value] = parse_rational(value)
        return tuple(map(get, values))
    return parse_periods


def datum_to_dict(d: MorseDatum) -> dict:
    out = {
        "name": d.name,
        "dimension": d.dimension,
        "basis_forms": list(d.basis_forms),
        "points": [{"id": p.id, "index": p.index} for p in d.points],
        "flows": [],
    }
    for f in d.flows:
        rec = {"from": f.frm, "to": f.to, "sign": f.sign,
               "periods": list(map(str, f.periods))}
        if f.unit_tag is not None:
            rec["unit_tag"] = f.unit_tag
        if f.deck_tag is not None:
            rec["deck_tag"] = f.deck_tag
        out["flows"].append(rec)
    if d.deck_group is not None:
        out["deck_group"] = {
            "elements": list(d.deck_group.elements),
            "table": {a: {b: d.deck_group.table[(a, b)]
                          for b in d.deck_group.elements}
                      for a in d.deck_group.elements},
        }
    return out


_FLOW = ("from", "to", "sign", "periods"), ("unit_tag", "deck_tag")
_INCIDENCE = ("upper", "lower", "incidence"), ("periods", "unit_tag")


def _flow_lines(records, name, layout, forms=None) -> tuple:
    """The records of list ``name``, keyed as ``layout`` says, as
    ``FlowLine``s.  Key-set and type tests pass a record, or its field,
    sign, periods and unit tag checks, in that order, build its first error.
    ``forms`` (CW only) checks the period count here; a datum checks it."""
    (frm, to, sign, *_), _ = layout
    need, known = _key_sets(*layout)
    parse = _rational_parser()
    lines = []
    for i, rec in enumerate(records):
        if not (type(rec) is dict and need <= rec.keys() <= known
                and type(rec[sign]) is int
                and type(rec.get("periods", [])) is list):
            _check_fields(rec, *layout, (name, i))
            _int(rec, sign, (name, i))
            _list(rec, "periods", (name, i))
        periods = parse(rec.get("periods", ()))
        if forms is not None and periods and len(periods) != forms:
            raise ParseError(f"{_at((name, i))}: {len(periods)} "
                             f"periods for {forms} basis forms")
        unit_tag = rec.get("unit_tag")
        if type(unit_tag) is not int and "unit_tag" in rec:
            _int(rec, "unit_tag", (name, i))
        lines.append(FlowLine(
            str(rec[frm]), str(rec[to]), rec[sign], periods, unit_tag,
            str(rec["deck_tag"]) if "deck_tag" in rec else None))
    return tuple(lines)


def datum_from_dict(obj: dict) -> MorseDatum:
    """A sign other than +-1 is left to the datum's own checks."""
    _check_fields(obj, ("name", "dimension", "basis_forms", "points", "flows"),
                  ("deck_group",), "datum")
    points = []
    for i, p in enumerate(_list(obj, "points", "datum")):
        where = ("points", i)
        _check_fields(p, ("id", "index"), (), where)
        points.append(CriticalPoint(id=str(p["id"]),
                                    index=_int(p, "index", where)))
    flows = _flow_lines(_list(obj, "flows", "datum"), "flows", _FLOW)
    deck = None
    if "deck_group" in obj:
        g = obj["deck_group"]
        _check_fields(g, ("elements", "table"), (), "deck_group")
        elements = tuple(str(e) for e in _list(g, "elements", "deck_group"))
        rows = _object(g, "table", "deck_group")
        table = {}
        for a in rows:
            for b, c in _object(rows, a, "deck_group table").items():
                table[(str(a), str(b))] = str(c)
        deck = DeckGroup(elements=elements, table=table)
    return MorseDatum(
        name=str(obj["name"]), dimension=_int(obj, "dimension", "datum"),
        basis_forms=tuple(str(b) for b in _list(obj, "basis_forms", "datum")),
        points=tuple(points), flows=flows, deck_group=deck)


def cw_to_dict(cw: RegularCW) -> dict:
    out = {
        "name": cw.name,
        "dimension": cw.dimension,
        "basis_forms": list(cw.basis_forms),
        "cells": [list(layer) for layer in cw.cells],
        "incidences": [],
    }
    for i in cw.incidences:
        rec = {"upper": i.frm, "lower": i.to, "incidence": i.sign}
        if i.periods:
            rec["periods"] = list(map(str, i.periods))
        if i.unit_tag is not None:
            rec["unit_tag"] = i.unit_tag
        out["incidences"].append(rec)
    return out


def cw_from_dict(obj: dict) -> RegularCW:
    """Incidence records are read as flows are, into ``FlowLine``s (upper,
    lower, incidence); an incidence number other than +-1 is left to
    ``validate_regular``."""
    _check_fields(obj, ("name", "dimension", "cells", "incidences"),
                  ("basis_forms",), "cw")
    basis_forms = tuple(str(b) for b in (
        _list(obj, "basis_forms", "cw") if "basis_forms" in obj else ()))
    incidences = _flow_lines(_list(obj, "incidences", "cw"), "incidences",
                             _INCIDENCE, len(basis_forms))
    cells = _list(obj, "cells", "cw")
    return RegularCW(
        name=str(obj["name"]), dimension=_int(obj, "dimension", "cw"),
        cells=tuple(tuple(str(c) for c in _list(cells, k, "cw cells"))
                    for k in range(len(cells))),
        incidences=incidences, basis_forms=basis_forms)


def load_json(text: str):
    """Dispatch on the envelope layout: flows -> MorseDatum, cells ->
    RegularCW; a constructor's ``ValueError`` is raised as ``ParseError``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    if "flows" not in obj and "cells" not in obj:
        raise ParseError("object has neither 'flows' nor 'cells'")
    try:
        return datum_from_dict(obj) if "flows" in obj else cw_from_dict(obj)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def dump_json(value) -> str:
    if isinstance(value, MorseDatum):
        obj = datum_to_dict(value)
    elif isinstance(value, RegularCW):
        obj = cw_to_dict(value)
    else:
        obj = value
    return json.dumps(obj, indent=2) + "\n"


def facets_to_text(fl: FacetList) -> str:
    lines = [f"vertices {fl.n_vertices}"]
    for f in fl.facets:
        lines.append(" ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


def decimals(tokens) -> tuple:
    """The integers that ``tokens`` spell in decimal digits only (no sign,
    ``_``, whitespace or empty token; non-ASCII digits count, as in a
    period), else ValueError: every integer of a facet file or option."""
    tokens = tuple(tokens)
    if not all(tokens) or not "".join(tokens).isdecimal():
        raise ValueError(f"not decimal digits: {tokens}")
    return tuple(map(int, tokens))


def facets_from_text(text: str) -> FacetList:
    lines = [ln for ln in map(str.strip, text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vertices "):
        raise ParseError("facet file must start with 'vertices N'")
    try:  # exactly "vertices N"
        n, = decimals(lines[0].split()[1:])
    except ValueError:
        raise ParseError(f"bad vertex count line {lines[0]!r}") from None
    facets = []
    for ln in lines[1:]:
        try:
            facets.append(decimals(ln.split()))
        except ValueError:
            raise ParseError(f"bad facet line {ln!r}") from None
    return FacetList(n_vertices=n, facets=tuple(facets))
