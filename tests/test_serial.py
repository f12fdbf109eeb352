import json
from fractions import Fraction

import pytest

import morsetwist.serial as serial
from morsetwist.catalog import RP2_SIX_VERTEX_FACETS, get_example
from morsetwist.cw import FacetList
from morsetwist.errors import ParseError
from morsetwist.serial import (
    cw_from_dict,
    cw_to_dict,
    datum_from_dict,
    datum_to_dict,
    dump_json,
    facets_from_text,
    facets_to_text,
    load_json,
)


def test_datum_json_roundtrip():
    d = get_example("rp2-lift").datum
    text = dump_json(d)
    assert load_json(text) == d


def test_cw_json_roundtrip():
    cw = get_example("circle-regular").cw
    text = dump_json(cw)
    assert load_json(text) == cw


def test_rationals_as_strings():
    d = get_example("circle-std").datum
    obj = datum_to_dict(d)
    assert obj["flows"][0]["periods"] == ["-1/2"]
    assert datum_from_dict(obj) == d


def test_unknown_field_rejected():
    obj = datum_to_dict(get_example("circle-std").datum)
    obj["metric"] = "round"
    with pytest.raises(ParseError):
        datum_from_dict(obj)
    obj2 = datum_to_dict(get_example("circle-std").datum)
    obj2["flows"][0]["period"] = ["-1/2"]  # typo'd key must not be dropped
    with pytest.raises(ParseError):
        datum_from_dict(obj2)


def test_unknown_field_rejected_cw():
    obj = cw_to_dict(get_example("circle-regular").cw)
    obj["faces"] = []
    with pytest.raises(ParseError):
        cw_from_dict(obj)


def test_missing_field_rejected():
    with pytest.raises(ParseError):
        load_json('{"name": "x"}')
    with pytest.raises(ParseError):
        load_json("not json at all")


def test_irrational_period_rejected():
    obj = datum_to_dict(get_example("circle-std").datum)
    obj["flows"][0]["periods"] = ["3.14159"]
    with pytest.raises(ParseError):
        datum_from_dict(obj)


def test_facets_text_roundtrip():
    fl = FacetList(6, RP2_SIX_VERTEX_FACETS)
    text = facets_to_text(fl)
    assert text.splitlines()[0] == "vertices 6"
    assert facets_from_text(text) == fl


def test_facets_text_errors():
    with pytest.raises(ParseError):
        facets_from_text("")
    with pytest.raises(ParseError):
        facets_from_text("vertices x\n0 1")
    with pytest.raises(ParseError):
        facets_from_text("vertices 3\n0 one")


def test_each_distinct_period_string_parsed_once(monkeypatch):
    calls = []
    parse = serial.parse_rational
    monkeypatch.setattr(serial, "parse_rational",
                        lambda v: calls.append(v) or parse(v))
    d = get_example("genus2").datum
    text = dump_json(d)
    assert load_json(text) == d
    strings = {p for f in json.loads(text)["flows"] for p in f["periods"]}
    assert sorted(calls) == sorted(strings)
    calls.clear()
    cw = get_example("circle-regular").cw
    assert load_json(dump_json(cw)) == cw
    assert len(calls) == len(set(calls))


def test_parsed_periods_are_kept_not_rebuilt():
    d = load_json(dump_json(get_example("genus2").datum))
    one = [p for f in d.flows for p in f.periods if p == 1]
    assert len(one) > 1 and all(p is one[0] for p in one)
    assert all(type(p) is Fraction for f in d.flows for p in f.periods)
