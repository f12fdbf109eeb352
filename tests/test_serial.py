import copy
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from conftest import load_json_reference, parse_rational_reference

import morsetwist.serial as serial
from morsetwist.catalog import RP2_SIX_VERTEX_FACETS, example_names, get_example
from morsetwist.cli import main
from morsetwist.cw import FacetList
from morsetwist.errors import ParseError
from morsetwist.rings import _RAT_RE, parse_rational
from morsetwist.serial import (
    cw_from_dict,
    cw_to_dict,
    datum_from_dict,
    datum_to_dict,
    decimals,
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


@pytest.mark.parametrize("header", ["vertices 3 junk", "vertices -2",
                                    "vertices 3.0", "vertices +3",
                                    "vertices " + "9" * 5000])
def test_facet_header_is_exactly_vertices_n(header):
    # trailing tokens are rejected, not ignored, and a bad count is blamed
    # on the header rather than on a facet
    with pytest.raises(ParseError) as err:
        facets_from_text(f"# comment\n  {header}  \n0 1 2\n")
    assert str(err.value) == f"bad vertex count line {header!r}"


@pytest.mark.parametrize("tokens", [["+2"], ["1_0"], ["-1"], [""], ["1 2"],
                                    [" 1"], [], ["3.0"], ["0x1"], ["\u00b2"],
                                    ["1", "2", "x"]])
def test_decimals_take_decimal_digits_only(tokens):
    # no sign, no underscore, no whitespace, no empty or superscript token;
    # non-ASCII decimal digits count, as they do in a period
    assert decimals(["0", "12", "\u0661\u0661", "007"]) == (0, 12, 11, 7)
    with pytest.raises(ValueError):
        decimals(tokens)


def test_facet_lines_read_decimal_digits_only():
    # 1_0 and +2 are not vertices; the header and the facets share one rule
    with pytest.raises(ParseError) as err:
        facets_from_text("vertices 11\n0 1_0 +2\n")
    assert str(err.value) == "bad facet line '0 1_0 +2'"
    fl = facets_from_text("vertices \u0661\u0661\n0 \u0661 10\n")
    assert (fl.n_vertices, fl.facets) == (11, ((0, 1, 10),))


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


_REPLACEMENTS = (True, 1.0, 1, 10 ** 30, None, "0.5", [1], {}, " 3/4 ", "",
                 "-0", "007/2", "-2/3", "\u0663/4")


def _nodes(value, path=()):
    """Every (path, value) below the document root, containers included."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _mutate(doc, rng):
    """One seeded edit: replace a value, delete or add a key, or duplicate
    a list item."""
    nodes = list(_nodes(doc))
    periods = [n for n in nodes if len(n[0]) > 1 and n[0][-2] == "periods"]
    path, value = rng.choice(periods if periods and rng.random() < 0.5
                             else nodes)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.randrange(4)
    if kind == 0:
        parent[path[-1]] = copy.deepcopy(rng.choice(_REPLACEMENTS))
    elif kind == 1 and isinstance(parent, dict):
        del parent[path[-1]]
    elif kind == 2:
        dicts = [v for _, v in nodes if isinstance(v, dict)] + [doc]
        rng.choice(dicts)["extra"] = 1
    else:
        lists = [v for _, v in nodes if isinstance(v, list) and v]
        if lists:
            target = rng.choice(lists)
            target.insert(rng.randrange(len(target) + 1),
                          copy.deepcopy(rng.choice(target)))


def _outcome(fn, text):
    try:
        return "ok", fn(text)
    except ParseError as exc:
        return "ParseError", str(exc)


def _mutants(docs, rng):
    """100 seeded mutants of each document, then each document with its
    ``dimension`` replaced by each of the replacement values."""
    for doc in docs:
        for _ in range(100):
            mutant = copy.deepcopy(doc)
            for _ in range(1 if rng.random() < 0.7 else rng.randint(2, 3)):
                _mutate(mutant, rng)
            yield mutant
    for doc in docs:
        for value in _REPLACEMENTS:
            yield dict(doc, dimension=value)


def test_mutated_files_parse_like_the_per_element_reader(tmp_path):
    names = [n for n in example_names() if n != "rpn(N)"] + ["rpn(3)"]
    entries = [get_example(n) for n in names]
    docs = [json.loads(dump_json(x)) for e in entries
            for x in (e.datum, e.cw) if x is not None]
    rng = random.Random(13013)
    path = tmp_path / "mutant.json"
    seen = {"ok": 0, "ParseError": 0}
    for mutant in _mutants(docs, rng):
        text = json.dumps(mutant)
        got = _outcome(load_json, text)
        assert got == _outcome(load_json_reference, text), text
        seen[got[0]] += 1
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["homology", str(path)])
        assert code in (0, 1, 2), text
        if code:
            assert err.getvalue().startswith("error: "), text
    assert min(seen.values()) > 100, seen


def _rational_strings(rng):
    """Strings that match the rational grammar, with leading zeros, signed
    zeros, surrounding whitespace and non-ASCII decimal digits."""
    digits = "0123456789" + "\u0660\u0663\u0669\u09e7\uff15\U0001d7d1"
    for _ in range(400):
        num = "".join(rng.choice(digits) for _ in range(rng.randint(1, 6)))
        text = rng.choice(("", "-")) + num
        if rng.random() < 0.6:
            text += "/" + rng.choice("123456789") + "".join(
                rng.choice(digits) for _ in range(rng.randint(0, 4)))
        pad = rng.choice(("", " ", "\t", " \n"))
        yield pad + text + pad[::-1]
    yield from ("-0", "0/7", "-0/3", "000", "0012/0034".replace("/0", "/1"),
                " 3/4 ", "\u0663/4", "1/1\u0663")


@pytest.mark.parametrize("text", ["\u0663/\u0664", "007/010", "3.5", "1e3",
                                  "1/0", "+1", "", " ", "1/-2", "1 / 2",
                                  "\u00b3/4", "--1", "1//2", "0x10", None,
                                  True, 1.0, [1], "1_000"])
def test_parse_rational_rejects_like_the_reference(text):
    with pytest.raises(ParseError) as got:
        parse_rational(text)
    with pytest.raises(ParseError) as want:
        parse_rational_reference(text)
    assert str(got.value) == str(want.value)


def test_parse_rational_equals_fraction_of_the_stripped_string():
    strings = list(_rational_strings(random.Random(561)))
    assert any(not s.isascii() for s in strings)
    for s in strings:
        assert _RAT_RE.match(s.strip()), s
        q = parse_rational(s)
        assert type(q) is Fraction and q == Fraction(s.strip()), s


@pytest.mark.parametrize("record", [
    {"from": "a", "to": "p", "sign": 2, "periods": ["x"], "unit_tag": "1"},
    {"from": "a", "to": "p", "sign": 1, "periods": ["x"], "unit_tag": "1"},
    {"from": "a", "to": "p", "sign": 1, "periods": [True, "x"],
     "unit_tag": "1"},
    {"from": "a", "to": "p", "sign": 1, "periods": ["1/2", [1]]},
    {"from": "a", "to": "p", "sign": 1, "periods": "1", "unit_tag": 1.5},
    {"from": "a", "to": "p", "sign": "1", "periods": {}},
    {"from": "a", "sign": 1, "periods": ["1"], "zeta": 1, "alpha": 2},
    {"from": "a", "to": "p", "sign": 1, "periods": ["1"], "zeta": 1,
     "alpha": 2},
    [],
], ids=["sign", "periods", "non-str-first", "unhashable", "periods-list",
        "sign-str", "missing", "unknown", "not-object"])
def test_first_error_of_a_malformed_flow_is_the_reference_one(record):
    """Field checks, then the sign's type, then the periods, then the unit
    tag; a sign of 2 is no read error, so a bad period is the first."""
    obj = {"name": "x", "dimension": 1, "basis_forms": ["t"],
           "points": [{"id": "p", "index": 0}, {"id": "a", "index": 1}],
           "flows": [{"from": "a", "to": "p", "sign": 1, "periods": ["1"]},
                     record]}
    text = json.dumps(obj)
    want = _outcome(load_json_reference, text)
    assert want[0] == "ParseError"
    assert _outcome(load_json, text) == want


def test_sign_two_is_reported_after_every_record_is_read(tmp_path, capsys):
    """The datum checks a sign of 2 with its other per-flow checks, after
    the reader: a bad period on a later flow is the first error."""
    flows = [{"from": "a", "to": "p", "sign": 2, "periods": ["1"]},
             {"from": "a", "to": "p", "sign": 1, "periods": ["x"]}]
    obj = {"name": "x", "dimension": 1, "basis_forms": ["t"],
           "points": [{"id": "p", "index": 0}, {"id": "a", "index": 1}],
           "flows": flows}
    want = ("ParseError", "bad rational 'x': want p/q with integers")
    assert _outcome(load_json, json.dumps(obj)) == want
    assert _outcome(load_json_reference, json.dumps(obj)) == want
    path = tmp_path / "sign-2.json"
    path.write_text(json.dumps(obj))
    assert main(["homology", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {want[1]}\n"
    flows[1]["periods"] = ["1"]
    path.write_text(json.dumps(obj))
    assert main(["homology", str(path)]) == 2
    assert capsys.readouterr().err == "error: flow sign must be +-1, got 2\n"


@pytest.mark.parametrize("name", ["circle-regular", "rp2-triangulated"])
def test_cw_records_of_any_incidence_parse_like_the_reference(name):
    """An incidence number of 0, 2 or -2 is read, not refused, and a
    record's periods may be absent, empty or full, with or without basis
    forms."""
    doc = json.loads(dump_json(get_example(name).cw))
    nforms = len(doc.get("basis_forms", []))
    for number, periods in itertools.product(
            (1, 0, 2, -2), (None, [], ["1/3"] * nforms)):
        mutant = copy.deepcopy(doc)
        rec = mutant["incidences"][1]
        rec["incidence"] = number
        rec.pop("periods", None)
        if periods is not None:
            rec["periods"] = periods
        text = json.dumps(mutant)
        got = _outcome(load_json, text)
        assert got[0] == "ok", text
        assert got == _outcome(load_json_reference, text), text
        assert got[1].incidences[1].sign == number
