import io
import json
import re
import sys
import tempfile
from contextlib import chdir, redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from spaces import (
    false_zero,
    freudenthal_torus_facets,
    grid_facets,
    twisted_torus_cw,
    two_circles,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import morsetwist.cli as cli
import morsetwist.linalg as linalg
from morsetwist.cli import main
from morsetwist.serial import dump_json, facets_to_text
from morsetwist.catalog import RP2_SIX_VERTEX_FACETS, get_example
from morsetwist.cw import FacetList, cw_to_morse, from_simplicial


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one in-process CLI call; an argparse
    usage error's exit code is read from its SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run(capsys, *argv, code=0):
    """(stdout, stderr) of a CLI call that must exit with ``code``; when it
    does not, the failure shows the exit code and stderr it saw."""
    got, out, err = _call(capsys, argv)
    assert got == code, f"exit {got}, expected {code}; stderr:\n{err}"
    return out, err


def test_homology_example_rp2_unit_rep(capsys):
    out, _ = run(capsys, "homology", "--example", "rp2",
                 "--system", "unit-rep")
    assert out.splitlines() == ["H_0 = Z/2", "H_1 = 0", "H_2 = Z"]


def test_homology_genus2_exp(capsys):
    out, _ = run(capsys, "homology", "--example", "genus2",
                 "--system", "exp", "--class", "1,0,0,0")
    assert out.splitlines() == ["H_0 = 0", "H_1 = R^2", "H_2 = 0"]


def test_homology_circle_exact_class(capsys):
    out, _ = run(capsys, "homology", "--example", "circle-std",
                 "--system", "exp", "--class", "0")
    assert out.splitlines() == ["H_0 = R", "H_1 = R"]


def test_cohomology_genus2_zero_class(capsys):
    out, _ = run(capsys, "cohomology", "--example", "genus2",
                 "--system", "exp", "--class", "0,0,0,0")
    assert out.splitlines() == ["H^0 = R", "H^1 = R^4", "H^2 = R"]


def test_novikov_with_zeros(capsys):
    out, _ = run(capsys, "novikov", "--example", "genus2",
                 "--class", "1,0,0,0", "--zeros", "1,4,1")
    assert "degree 1: b=2 q=0" in out
    assert "slack 1,2,1 -> pass" in out
    # a bound that fails is a math failure, in text and in JSON
    klein = ("novikov", "--example", "klein", "--class=0", "--zeros", "1,1,0")
    out, _ = run(capsys, *klein, code=1)
    assert out.splitlines()[-1] == "zero-count bounds: slack 0,-1,-1 -> FAIL"
    out, _ = run(capsys, *klein, "--format", "json", code=1)
    obj = json.loads(out)
    assert obj["slack"] == [0, -1, -1] and obj["pass"] is False


def test_euler(capsys):
    out, _ = run(capsys, "euler", "--example", "genus2")
    assert "euler (cells) = -2" in out


def test_obstructions(capsys):
    out, _ = run(capsys, "obstructions", "--example", "torus",
                 "--system", "exp", "--class", "1,0")
    assert "H_SPACE: clear" in out
    assert "PARALLEL_FORM: clear" in out
    assert "rank of class: 1" in out


def test_json_output_roundtrips_canonically(capsys):
    out, _ = run(capsys, "homology", "--example", "rp2",
                 "--system", "trivial", "--format", "json")
    obj = json.loads(out)
    assert json.dumps(obj, indent=2) + "\n" == out
    assert obj["betti"] == [1, 0, 0]
    assert obj["torsion"] == [[], [2], []]


def test_validate_ok_and_fail(tmp_path, capsys):
    good = tmp_path / "rp2.json"
    good.write_text(dump_json(get_example("rp2").datum))
    out, _ = run(capsys, "validate", str(good))
    assert out.strip() == "ok"

    # flip one degree-1 flow sign: boundary squared becomes nonzero
    import dataclasses
    d = get_example("rp2").datum
    flows = list(d.flows)
    flows[2] = dataclasses.replace(flows[2], sign=-flows[2].sign)
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(dataclasses.replace(d, flows=tuple(flows))))
    out, _ = run(capsys, "validate", str(bad), code=1)
    assert "FAIL" in out

    # retag the second flow: the untwisted d1.d2 is still 0*2 = 0, but the
    # unit-tag composite is 2*2
    flows = list(d.flows)
    flows[1] = dataclasses.replace(flows[1], unit_tag=1)
    tagged = tmp_path / "tagged.json"
    tagged.write_text(dump_json(dataclasses.replace(d, flows=tuple(flows))))
    out, _ = run(capsys, "validate", str(tagged), code=1)
    assert out.splitlines() == ["FAIL unit-tag complex: d.d != 0: composite "
                                "through degree 1 has entry (0,0) = 4"]

    ugly = tmp_path / "ugly.json"
    ugly.write_text("{nope")
    run(capsys, "validate", str(ugly), code=2)


def test_missing_class_is_parse_error(capsys):
    _, err = run(capsys, "homology", "--example", "torus",
                 "--system", "exp", code=2)
    assert "requires --class" in err


def test_unknown_example_exit(capsys):
    run(capsys, "homology", "--example", "nope", code=1)


@pytest.mark.parametrize("n", ["0", "10001", "20000", "99999999999",
                               "9" * 5000],
                         ids=["0", "max+1", "20000", "11-digits",
                              "5000-digits"])
def test_rpn_out_of_range_is_unknown_before_building(capsys, monkeypatch, n):
    # rpn(N) past morse.MAX_DIMENSION is an unknown example, as rpn(0) is:
    # error and exit 1 before any point is built (int() refuses a string
    # of thousands of digits, so the length is read first)
    import morsetwist.catalog as catalog

    def never(k):
        raise AssertionError(f"_rpn({k}) was called")
    monkeypatch.setattr(catalog, "_rpn", never)
    out, err = run(capsys, "homology", "--example", f"rpn({n})", code=1)
    assert out == ""
    assert err.startswith("error: rpn needs n ") and err.count("\n") == 1


def test_from_triangulation(tmp_path, capsys):
    facets = tmp_path / "rp2.facets"
    facets.write_text(facets_to_text(FacetList(6, RP2_SIX_VERTEX_FACETS)))
    out_json = tmp_path / "rp2cw.json"
    out, _ = run(capsys, "from-triangulation", str(facets),
                 "-o", str(out_json))
    assert "euler 1" in out
    assert "H_1 = Z/2" in out
    assert out_json.exists()
    run(capsys, "validate", str(out_json))


def test_from_triangulation_three_torus(tmp_path, capsys):
    facets = tmp_path / "t3.facets"
    facets.write_text(facets_to_text(freudenthal_torus_facets(3)))
    out, _ = run(capsys, "from-triangulation", str(facets))
    assert out.splitlines() == ["cells 27,189,324,162  euler 0", "H_0 = Z",
                                "H_1 = Z^3", "H_2 = Z^3", "H_3 = Z"]


def test_example_subcommands(tmp_path, capsys):
    out, _ = run(capsys, "example", "list")
    assert "genus2" in out

    out, err = run(capsys, "example", "show", "circle-std")
    obj = json.loads(out)
    assert obj["name"] == "circle-std"
    assert "circle-std" in err  # description goes to stderr

    out, _ = run(capsys, "example", "run", "circle-std")
    assert all(line.startswith("pass") for line in out.splitlines())


def test_homology_from_file_with_system(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(dump_json(get_example("torus").datum))
    out, _ = run(capsys, "homology", str(path), "--system", "nov",
                 "--class", "1,0")
    assert out.splitlines() == ["H_0 = 0", "H_1 = 0", "H_2 = 0"]


@pytest.mark.parametrize("system, chain, cochain", [
    ("trivial", "2", "2"), ("exp", "2*t^(1)", "2*t^(-1)"),
    ("nov", "2*t^(-1)", "2*t^(1)")])
def test_flipped_flow_names_one_violation_for_chains_and_cochains(
        tmp_path, capsys, system, chain, cochain):
    # the 3 x 3 twisted torus with the sign flipped on its first flow across
    # the seam of the first period: the composite of diffs[0] and diffs[1]
    # is nonzero at (vertex 0, triangle 13), and a cochain complex, stored
    # in the chain shape, names that same (degree-0 row, degree-2 column),
    # with the transport inverted
    d = cw_to_morse(twisted_torus_cw(3))
    k = next(i for i, f in enumerate(d.flows) if f.periods[0])
    flows = list(d.flows)
    flows[k] = replace(flows[k], sign=-flows[k].sign)
    path = tmp_path / "flipped.json"
    path.write_text(dump_json(replace(d, flows=tuple(flows))))
    for cmd, shown in (("homology", chain), ("cohomology", cochain)):
        out, err = run(capsys, cmd, str(path), "--system", system,
                       "--class=1,0", code=1)
        assert out == ""
        assert err == ("error: d.d != 0: composite through degree 1 has "
                       f"entry (0,13) = {shown}\n")


def test_cw_with_flipped_two_cell_incidence(tmp_path, capsys):
    # one 2-cell record flipped: every diamond keeps two cells, d.d != 0
    cw = get_example("rp2-triangulated").cw
    incs = list(cw.incidences)
    k = next(i for i, inc in enumerate(incs) if inc.frm.count(".") == 2)
    incs[k] = replace(incs[k], sign=-incs[k].sign)
    path = tmp_path / "flipped.json"
    path.write_text(dump_json(replace(cw, incidences=tuple(incs))))

    out, _ = run(capsys, "validate", str(path), code=1)
    assert out.startswith("FAIL regularity: boundary-squared ")

    out, err = run(capsys, "homology", str(path), code=1)
    assert out == ""
    assert err.startswith("error: boundary-squared ")


def test_a_sign_or_incidence_of_two_keeps_its_error(tmp_path, capsys):
    """A CW complex refuses the incidence number 2 by its regularity check
    (exit 1), a datum the flow sign 2 by its own checks (exit 2)."""
    cw = {"name": "doubled-incidence", "dimension": 1,
          "cells": [["p", "r"], ["q"]],
          "incidences": [{"upper": "q", "lower": "p", "incidence": -1},
                         {"upper": "q", "lower": "r", "incidence": 2}]}
    path = tmp_path / "incidence-2.json"
    path.write_text(json.dumps(cw))
    why = "incidence-value at ('q', 'r'): incidence number 2 is not +-1"
    out, _ = run(capsys, "validate", str(path), code=1)
    assert out == f"FAIL regularity: {why}\n"
    out, err = run(capsys, "homology", str(path), code=1)
    assert (out, err) == ("", f"error: {why}\n")
    datum = {"name": "sign-2", "dimension": 1, "basis_forms": [],
             "points": [{"id": "p", "index": 0}, {"id": "q", "index": 1}],
             "flows": [{"from": "q", "to": "p", "sign": 2, "periods": []}]}
    path = tmp_path / "sign-2.json"
    path.write_text(json.dumps(datum))
    out, err = run(capsys, "homology", str(path), code=2)
    assert (out, err) == ("", "error: flow sign must be +-1, got 2\n")


@pytest.mark.parametrize("argv", [
    ["novikov", "--example", "torus", "--class=1,0", "--depth", "0"],
    ["novikov", "--example", "torus", "--class=1,0", "--depth=-1"],
    ["novikov", "--example", "torus", "--class=1,0", "--max-iter=-1"],
    ["novikov", "--example", "torus", "--class=1,0", "--max-iter", "1_000"],
    ["novikov", "--example", "torus", "--class=1,0", "--max-iter", "+5"],
    ["example", "run", "torus", "--depth", "0"],
])
def test_out_of_range_budget_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err
    assert "Traceback" not in err


def _flipped_rp2_cw():
    cw = get_example("rp2-triangulated").cw
    incs = list(cw.incidences)
    k = next(i for i, inc in enumerate(incs) if inc.frm.count(".") == 2)
    incs[k] = replace(incs[k], sign=-incs[k].sign)
    return replace(cw, incidences=tuple(incs))


def test_one_regularity_pass_per_command(tmp_path, capsys, monkeypatch):
    import morsetwist.cw as cw_module
    calls = []
    original = cw_module.validate_regular
    monkeypatch.setattr(cw_module, "validate_regular",
                        lambda cw: calls.append(cw) or original(cw))
    good = tmp_path / "rp2cw.json"
    good.write_text(dump_json(get_example("rp2-triangulated").cw))
    bad = tmp_path / "flipped.json"
    bad.write_text(dump_json(_flipped_rp2_cw()))
    facets = tmp_path / "rp2.facets"
    facets.write_text(facets_to_text(FacetList(6, RP2_SIX_VERTEX_FACETS)))
    # from-triangulation builds its boundary straight from the facets,
    # with no CW complex to check
    for argv, want, passes in [(["validate", str(good)], 0, 1),
                               (["validate", str(bad)], 1, 1),
                               (["from-triangulation", str(facets)], 0, 0)]:
        calls.clear()
        run(capsys, *argv, code=want)
        assert len(calls) == passes, argv


def test_cw_period_count_mismatch_is_parse_error(tmp_path, capsys):
    obj = json.loads(dump_json(get_example("rp2-triangulated").cw))
    obj["basis_forms"] = ["x"]
    obj["incidences"][0]["periods"] = ["1", "2"]
    path = tmp_path / "periods.json"
    path.write_text(json.dumps(obj))
    out, err = run(capsys, "homology", str(path), code=2)
    assert out == ""
    assert err == "error: incidences[0]: 2 periods for 1 basis forms\n"


def test_malformed_facets_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text("vertices 3\n0 0 1\n")
    out, err = run(capsys, "from-triangulation", str(path), code=2)
    assert out == ""
    assert err == "error: facet (0, 0, 1) repeats a vertex\n"


def test_facet_header_with_trailing_tokens_is_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.facets"
    path.write_text("vertices 3 junk\n0 1 2\n")
    out, err = run(capsys, "from-triangulation", str(path), code=2)
    assert out == ""
    assert err == "error: bad vertex count line 'vertices 3 junk'\n"


_FACET_FILES = [
    [ln.split() for ln in facets_to_text(fl).splitlines()]
    for fl in (FacetList(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
               FacetList(6, RP2_SIX_VERTEX_FACETS), grid_facets(3),
               FacetList(3, ((0, 1), (1, 2), (0, 2))))]
_TOKENS = ["0", "1", "2", "5", "9", "-1", "-0", "+2", "1.5", "x", "#",
           "vertices", "99999999999999999999", "٣"]


@st.composite
def mutated_facet_files(draw):
    """A small facet file after a few token and line edits: inserted and
    deleted tokens, swapped lines, a garbled header, negated vertices and
    comments; at most 31 lines of at most 6 tokens."""
    lines = [list(ln) for ln in draw(st.sampled_from(_FACET_FILES))]
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(1, len(lines) - 1))  # a facet line
        line = lines[i]
        k = draw(st.integers(0, len(line)))
        op = draw(st.sampled_from(["insert", "delete", "swap", "header",
                                   "negate", "comment"]))
        if op == "insert":
            line.insert(k, draw(st.sampled_from(_TOKENS)))
        elif op == "delete" and k < len(line):
            del line[k]
        elif op == "swap":
            j = draw(st.integers(1, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif op == "header":
            lines[0] = draw(st.lists(st.sampled_from(_TOKENS), max_size=3))
            if draw(st.integers(0, 3)):
                lines[0].insert(0, "vertices")
        elif op == "negate" and k < len(line):
            line[k] = "-" + line[k]
        elif op == "comment":
            lines.insert(i, ["#"] + draw(st.lists(st.sampled_from(_TOKENS),
                                                  max_size=2)))
    return "\n".join(" ".join(ln[:6]) for ln in lines[:31]) + "\n"


@given(text=mutated_facet_files())
@settings(max_examples=200, deadline=None)
def test_mutated_facet_files_fail_cleanly(tmp_path_factory, text):
    # every edit of a valid facet file is answered or refused with one
    # error line and exit code 1 or 2, never with a traceback
    path = tmp_path_factory.getbasetemp() / "mutated.facets"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["from-triangulation", str(path)])
    assert code in (0, 1, 2), (code, text)
    assert "Traceback" not in err.getvalue(), text
    if code:
        assert err.getvalue().startswith("error: ") \
            and err.getvalue().count("\n") == 1, (err.getvalue(), text)


def test_facet_face_bound_over_the_cap_is_parse_error(tmp_path, capsys,
                                                      monkeypatch):
    # one 30-vertex facet has 2^30 - 1 faces: the 92-byte file is refused
    # while it is read, before any face is enumerated
    import morsetwist.cw as cw

    def enumerate_faces(fl):
        raise AssertionError("faces enumerated")
    monkeypatch.setattr(cw, "_simplices", enumerate_faces)
    path = tmp_path / "big.facets"
    path.write_text("vertices 30\n" + " ".join(map(str, range(30))) + "\n")
    assert path.stat().st_size == 92
    out, err = run(capsys, "from-triangulation", str(path), code=2)
    assert out == ""
    assert err == ("error: face bound 1 x (2^30 - 1) = 1073741823 exceeds "
                   "the cap 1000000\n")


def _set(*path_and_value):
    *path, last, value = path_and_value

    def edit(obj):
        for key in path:
            obj = obj[key]
        obj[last] = value
    return edit


@pytest.mark.parametrize("example, edit, extra", [
    ("rp2", _set("flows", 0, "sign", "abc"), []),
    ("rp2", _set("flows", 0, "sign", True), []),
    ("rp2", _set("flows", 0, "sign", 2), []),
    ("rp2", _set("flows", 0, "unit_tag", True), []),
    ("rp2", _set("points", 0, "index", "x"), []),
    ("rp2", _set("dimension", None), []),
    ("rp2-triangulated", _set("incidences", 0, "incidence", 1.0), []),
    ("rp2-triangulated", _set("incidences", 0, "unit_tag", "1"), []),
    ("rp2-triangulated", _set("dimension", 2.0), []),
    ("torus", None, ["--system", "exp", "--class", "0.5,0"]),
    ("torus", None, ["--system", "exp", "--class", "1e3,0"]),
    ("torus", None, ["--system", "nov", "--class", "1,0", "--depth", "0.5"]),
], ids=["sign-str", "sign-bool", "sign-2", "unit_tag-bool", "index-str",
        "dimension-null", "incidence-float", "cw-unit_tag-str",
        "cw-dimension-float", "class-decimal", "class-exponent",
        "depth-decimal"])
def test_non_integer_or_decimal_input_is_parse_error(tmp_path, capsys, example,
                                                     edit, extra):
    entry = get_example(example)
    obj = json.loads(dump_json(entry.cw if entry.cw is not None else entry.datum))
    if edit is not None:
        edit(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    _, err = run(capsys, "homology", str(path), *extra, code=2)
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("example, edit, want", [
    ("rp2", _set("points", 5), "datum: 'points' must be a list, got 5"),
    ("rp2", _set("flows", 7), "datum: 'flows' must be a list, got 7"),
    ("rp2", _set("basis_forms", 3),
     "datum: 'basis_forms' must be a list, got 3"),
    ("rp2", _set("flows", 0, "periods", "0"),
     "flows[0]: 'periods' must be a list, got \"0\""),
    ("rp2-triangulated", _set("cells", {}), "cw: 'cells' must be a list, got {}"),
    ("rp2-triangulated", _set("incidences", None),
     "cw: 'incidences' must be a list, got null"),
    ("rp2-lift", _set("deck_group", "table", [1, 2]),
     "deck_group: 'table' must be an object, got [1, 2]"),
    ("rp2-lift", _set("deck_group", "table", "e", 5),
     "deck_group table: 'e' must be an object, got 5"),
], ids=["points", "flows", "basis_forms", "periods", "cells", "incidences",
        "deck-table", "deck-table-row"])
def test_non_list_field_is_parse_error(tmp_path, capsys, example, edit, want):
    entry = get_example(example)
    obj = json.loads(dump_json(entry.cw if entry.cw is not None else entry.datum))
    edit(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "homology", str(path), code=2) == ("", f"error: {want}\n")


def test_zero_count_list_of_wrong_length_is_parse_error(capsys):
    out, err = run(capsys, "novikov", "--example", "klein",
                   "--class", "0", "--zeros", "1,1", code=2)
    assert out == ""
    assert err == "error: bad zero counts '1,1': 2 counts for 3 degrees\n"


@pytest.mark.parametrize("zeros", ["1,+1,0", "1,1_0,0", "1,,0", "1,1 0,0"])
def test_zero_counts_are_decimal_digits_only(capsys, zeros):
    # a zero count is read like a facet vertex; space around it is allowed
    out, _ = run(capsys, "novikov", "--example", "klein", "--class", "0",
                 "--zeros", " 1, 2 ,\u0661")
    assert out.endswith("zero-count bounds: slack 0,0,0 -> pass\n")
    out, err = run(capsys, "novikov", "--example", "klein",
                   "--class", "0", "--zeros", zeros, code=2)
    assert out == ""
    assert err.startswith(f"error: bad zero counts {zeros!r}: ")


def test_max_iter_reads_decimal_digits():
    assert cli._max_iter(" 1000 ") == cli._max_iter("\u0661\u0660\u0660\u0660") \
        == 1000


@pytest.mark.parametrize("argv", [
    ["homology", "--example", "circle-std", "--system", "nov", "--class=1/7"],
    ["novikov", "--example", "circle-std", "--class=1/7"],
])
def test_novikov_depth_past_the_term_cap_is_math_error(capsys, monkeypatch,
                                                       argv):
    # depth 16 under u = t^(1/14) is 224 powers of u: past a cap of 100 the
    # command fails with one error line and exit 1 before any inverse is
    # built; at depth 7, 98 powers, it runs
    monkeypatch.setattr(linalg, "MAX_TERMS", 100)
    out, err = run(capsys, *argv, code=1)
    assert out == ""
    assert err == ("error: Novikov depth 224 in powers of u exceeds the cap "
                   "of 100 inverse terms\n")
    run(capsys, *argv, "--depth", "7")


@pytest.mark.parametrize("argv", [
    ["homology", "--example", "torus", "--system", "nov", "--class=0,0"],
    ["novikov", "--example", "torus", "--class=0,0"],
])
def test_novikov_depth_past_the_term_cap_is_refused_on_any_complex(capsys,
                                                                    argv):
    # under the zero class every torus boundary is cancelled by the unit
    # pass, so no Novikov leaf runs; the depth is refused all the same
    out, err = run(capsys, *argv, "--depth", "2000000", code=1)
    assert out == ""
    assert err == ("error: Novikov depth 2000000 in powers of u exceeds the "
                   "cap of 1000000 inverse terms\n")


def test_deck_table_product_outside_the_group_is_parse_error(tmp_path, capsys):
    obj = json.loads(dump_json(get_example("rp2-lift").datum))
    obj["deck_group"]["table"]["s"]["s"] = "x"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "homology", str(path), code=2) == (
        "", "error: multiplication table (s,s) is not an element: 'x'\n")


def test_hspace_verdict_on_a_stuck_degree_is_indeterminate(tmp_path, capsys):
    # boundary 2 - t^(-1) under class 1: not c·t^a times a unit, so the
    # torsion of H_0 is unknown and no verdict can be read; H_1 is 0, the
    # exact rank 1 of the boundary leaving no cycle
    flows = [{"from": "q", "to": "p", "sign": sign, "periods": [period]}
             for sign, period in ((1, "0"), (1, "0"), (-1, "1"))]
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps({
        "name": "stuck-circle", "dimension": 1, "basis_forms": ["theta"],
        "points": [{"id": "p", "index": 0}, {"id": "q", "index": 1}],
        "flows": flows}))
    out, _ = run(capsys, "homology", str(path), "--system", "nov",
                 "--class", "1", code=1)
    assert out.splitlines() == ["H_0 = torsion unknown (reduction stuck)",
                                "H_1 = 0"]
    out, err = run(capsys, "obstructions", str(path), "--system", "nov",
                   "--class", "1", code=1)
    assert out == ""
    assert err == ("error: a degree's reduction is stuck; "
                   "H-space verdict unknown\n")


def test_twisted_circle_listed_second_is_not_simple(tmp_path, capsys):
    # the class has period 1 around the second circle, so the system is
    # not simple and the class has rank 1
    path = tmp_path / "two-circles.json"
    path.write_text(json.dumps(two_circles()))
    out, _ = run(capsys, "obstructions", str(path), "--system", "exp",
                 "--class=1")
    lines = out.splitlines()
    assert lines[0].startswith("H_SPACE: TRIGGERED")
    assert lines[-1] == "rank of class: 1"


def test_novikov_rank_past_the_depth_is_stuck(tmp_path, capsys):
    # the determinant of ∂_1 is −4t^(−17): b is the rank over the fraction
    # field, 2, at every depth; at depth 16 the leaf reads rank 1, so the
    # torsion of degree 0 is unknown, and at depth 32 it reads rank 2
    path = tmp_path / "false-zero.json"
    path.write_text(json.dumps(false_zero()))
    out, _ = run(capsys, "novikov", str(path), "--class=1", code=1)
    assert out.splitlines()[1:] == ["degree 0: b=0 q=0 (stuck)",
                                    "degree 1: b=0 q=0"]
    out, _ = run(capsys, "novikov", str(path), "--class=1", "--depth", "32")
    assert out.splitlines()[1:] == ["degree 0: b=0 q=1", "degree 1: b=0 q=0"]
    out, _ = run(capsys, "homology", str(path), "--system", "nov",
                 "--class=1", "--depth", "32")
    assert out.splitlines() == ["H_0 = Nov/4", "H_1 = 0"]


def test_novikov_unit_pivots_are_not_charged_to_max_iter(capsys):
    # every pivot of this input is an exact unit ±t^a, so the op budget
    # is never touched; the answer is the one an unbudgeted run gives
    out, _ = run(capsys, "novikov", "--example", "circle-regular",
                 "--class=-2/3", "--max-iter=0")
    assert out.splitlines() == ["class -2/3", "degree 0: b=0 q=0",
                                "degree 1: b=0 q=0"]


@pytest.mark.parametrize("value", [True, 1.0, "1.0", None],
                         ids=["true", "float", "decimal", "null"])
def test_period_memo_does_not_admit_non_strings(tmp_path, capsys, value):
    # "1" and 1 are parsed first; True and 1.0 hash like 1 but must still fail
    obj = json.loads(dump_json(get_example("rp2").datum))
    obj["flows"][0]["periods"] = ["1"]
    obj["flows"][1]["periods"] = [1]
    obj["flows"][-1]["periods"] = [value]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    out, err = run(capsys, "homology", str(path), code=2)
    assert out == ""
    assert err.startswith("error: bad rational ")


def test_parser_is_built_once_and_reused_alike(capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    argvs = [["homology", "--example", "rp2", "--system", "unit-rep"],
             ["novikov", "--example", "torus", "--class=1,0", "--depth", "0"],
             ["cohomology", "--example", "genus2", "--system", "exp",
              "--class=1,0,0,0", "--format", "json"],
             ["homology", "--example", "rp2", "--system", "unit-rep"]]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_call(capsys, argv))
    assert fresh[1][0] == 2 and "error: argument --depth" in fresh[1][2]
    cli._parser.cache_clear()
    calls.clear()
    assert [_call(capsys, argv) for argv in argvs] == fresh
    assert len(calls) == 1


def test_validate_cw_skips_the_untwisted_product(tmp_path, capsys, monkeypatch):
    # regularity already proves d.d = 0 for the untwisted complex of a CW
    # file; only the unit-tag complex still needs the product
    calls = []
    check = cli.validate_complex
    monkeypatch.setattr(cli, "validate_complex",
                        lambda c: calls.append(c) or check(c))
    files = [("rp2cw.json", get_example("rp2-triangulated").cw, 0, "ok\n", 0),
             ("circle.json", get_example("circle-regular").cw, 0, "ok\n", 1),
             ("rp2.json", get_example("rp2").datum, 0, "ok\n", 2),
             ("flipped.json", _flipped_rp2_cw(), 1,
              "FAIL regularity: boundary-squared at ('2', '0.1.2'): incidence "
              "products sum to -2, expected 0\n", 0)]
    for name, value, want_code, want_out, want_calls in files:
        path = tmp_path / name
        path.write_text(dump_json(value))
        calls.clear()
        assert run(capsys, "validate", str(path), code=want_code) \
            == (want_out, ""), name
        assert len(calls) == want_calls, name


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("example, cls", [("circle-regular", "-2/3"),
                                          ("torus", "-1,0"),
                                          ("torus", "-1/2,3")])
@pytest.mark.parametrize("command", ["homology", "cohomology", "novikov",
                                     "obstructions"])
def test_negative_class_as_separate_argument(capsys, command, example, cls, fmt):
    # argparse reads "-2/3" as an option; "--class V" must mean "--class=V"
    system = [] if command == "novikov" else ["--system", "exp"]
    argv = [command, "--example", example, *system, "--format", fmt]
    joined = _call(capsys, argv + [f"--class={cls}"])
    assert joined[0] == 0 and joined[2] == ""
    assert _call(capsys, argv + ["--class", cls]) == joined
    assert _call(capsys, [command, "--class", cls, "--example", example,
                          *system, "--format", fmt]) == joined


@pytest.mark.parametrize("argv", [
    ["homology", "--example", "torus", "--system", "exp", "--class"],
    ["novikov", "--example", "torus", "--class", "-x"],
])
def test_class_without_a_value_is_usage_error(capsys, argv):
    out, err = run(capsys, *argv, code=2)
    assert out == ""
    assert "error: argument --class: expected one argument" in err


@pytest.mark.parametrize("example,system,cls,flows,counts", [
    pytest.param("genus2", "exp", "1,1/2,0,-1", 16, (1, 1, 2, 1), id="exp"),
    pytest.param("genus2", "nov", "1,1/2,0,-1", 16, (2, 2, 4, 1), id="nov"),
    pytest.param("genus2", "trivial", "1,1/2,0,-1", 16, (1, 1, 2, 1),
                 id="trivial"),
    pytest.param("rp2", "unit-rep", "1", 4, (2, 2, 4, 1), id="rp2-unit-rep"),
])
def test_obstructions_compute_each_flow_period_once(capsys, monkeypatch,
                                                    example, system, cls,
                                                    flows, counts):
    # the simplicity test, both obstruction complexes and the rank of the
    # class all read one class period per flow.  Each system's complex is
    # built, checked and reduced (one unit pass per boundary, 2 boundaries)
    # once, and the exponential one serves the parallel-form verdict too;
    # one gauge walk gives the unit verdict and the period verdict, which
    # serve the simplicity of the system and the rank of the class.
    # Calls are counted wherever the package binds each function.
    import morsetwist.morse as morse_module
    calls = []
    original = morse_module.flow_period
    monkeypatch.setattr(morse_module, "flow_period",
                        lambda f, cv: calls.append(f) or original(f, cv))
    import morsetwist.chains as chains
    homes = {"build_complex": morse_module, "validate_complex": chains,
             "cancel_units": linalg, "gauge_walk": morse_module}
    counted = {name: [] for name in homes}
    for name, seen in counted.items():
        fn = getattr(homes[name], name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("morsetwist") and \
                    getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, lambda *a, _fn=fn, _seen=seen,
                                    **kw: _seen.append(a) or _fn(*a, **kw))
    out, _ = run(capsys, "obstructions", "--example", example,
                 "--system", system, f"--class={cls}")
    assert "PARALLEL_FORM: TRIGGERED" in out
    assert len(calls) == flows
    assert tuple(len(seen) for seen in counted.values()) == counts


@pytest.mark.parametrize("command", ["homology", "validate",
                                     "from-triangulation"])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff")
    out, err = run(capsys, command, str(path), code=2)
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec ")


def test_unwritable_output_is_parse_error(tmp_path, capsys):
    facets = tmp_path / "rp2.facets"
    facets.write_text(facets_to_text(FacetList(6, RP2_SIX_VERTEX_FACETS)))
    target = tmp_path / "missing" / "x.json"
    out, err = run(capsys, "from-triangulation", str(facets), "-o", str(target),
                   code=2)
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("obj", [
    {"name": "x", "dimension": -1, "basis_forms": [], "points": [],
     "flows": []},
    {"name": "x", "dimension": -1, "cells": [], "incidences": []},
], ids=["datum", "cw"])
@pytest.mark.parametrize("command", ["homology", "euler", "validate"])
def test_negative_dimension_is_parse_error(tmp_path, capsys, obj, command):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(obj))
    out, err = run(capsys, command, str(path), code=2)
    assert out == ""
    assert err.endswith("dimension must be >= 0, got -1\n")


@pytest.mark.parametrize("text", [
    '{"name":"big","dimension":%d,"basis_forms":[],"points":[],"flows":[]}'
    % 10 ** 30,
    json.dumps({"name": "big", "dimension": 10001,
                "cells": [[]] * 10002, "incidences": []}),
], ids=["datum", "cw"])
@pytest.mark.parametrize("command", ["homology", "validate"])
def test_enormous_dimension_is_parse_error(tmp_path, capsys, text, command):
    path = tmp_path / "big.json"
    path.write_text(text)
    dim = json.loads(text)["dimension"]
    out, err = run(capsys, command, str(path), code=2)
    assert out == ""
    assert err.endswith(f"dimension must be <= 10000, got {dim}\n")



@pytest.mark.parametrize("obj", [
    {"name": "pt", "dimension": 0, "basis_forms": ["x"],
     "points": [{"id": "p", "index": 0}], "flows": []},
    {"name": "pt", "dimension": 0, "basis_forms": ["x"], "cells": [["v"]],
     "incidences": []},
], ids=["datum", "cw"])
@pytest.mark.parametrize("argv, first", [
    (["homology", "--system", "exp"], "H_0 = R"),
    (["homology", "--system", "nov"], "H_0 = Nov"),
    (["cohomology", "--system", "exp"], "H^0 = R"),
    (["cohomology", "--system", "nov"], "H^0 = Nov"),
    (["euler", "--system", "exp"], "euler (cells) = 1"),
    (["euler", "--system", "nov"], "euler (cells) = 1"),
    (["novikov"], "class 1"),
    (["obstructions", "--system", "exp"], "H_SPACE: clear"),
    (["obstructions", "--system", "nov"], "H_SPACE: clear"),
], ids=["homology-exp", "homology-nov", "cohomology-exp", "cohomology-nov",
        "euler-exp", "euler-nov", "novikov", "obstructions-exp",
        "obstructions-nov"])
def test_point_under_a_twisted_system(tmp_path, capsys, obj, argv, first):
    # a point has no boundary matrix, so a twisted complex of it holds no
    # matrix over ℤ[u, u⁻¹] to take a zero from
    path = tmp_path / "point.json"
    path.write_text(json.dumps(obj))
    out, err = run(capsys, argv[0], str(path), *argv[1:], "--class", "1")
    assert err == ""
    assert out.splitlines()[0] == first


@pytest.mark.parametrize("argv, line", [
    (["homology"], "H_{k} = Z"),
    (["homology", "--system", "exp", "--class", "1"], "H_{k} = R"),
    (["cohomology", "--system", "nov", "--class", "1"], "H^{k} = Nov"),
    (["novikov", "--class", "1"], "degree {k}: b=1 q=0"),
], ids=["homology", "homology-exp", "cohomology-nov", "novikov"])
def test_empty_boundaries_are_not_reduced(tmp_path, capsys, monkeypatch,
                                          argv, line):
    # one point per degree and no flow: every boundary is a 1x1 matrix with
    # no stored entry, whose rank 0 needs no leaf; the unit pass sees each
    # boundary once, takes no pivot and hands it back as it is, building
    # nothing; the pass and the leaves are counted wherever the package
    # binds them (chains imports them by name)
    import morsetwist.linalg as linalg
    calls, leaves = [], []
    originals = {name: getattr(linalg, name) for name in
                 ("snf_int", "rank_expsum", "nov_reduce")}
    original = linalg.cancel_units

    def counted(A):
        calls.append((A, original(A)))
        return calls[-1][1]
    for name, module in list(sys.modules.items()):
        if not name.startswith("morsetwist"):
            continue
        if getattr(module, "cancel_units", None) is original:
            monkeypatch.setattr(module, "cancel_units", counted)
        for leaf, fn in originals.items():
            if getattr(module, leaf, None) is fn:
                monkeypatch.setattr(module, leaf, lambda *a, _fn=fn, **kw:
                                    leaves.append(a) or _fn(*a, **kw))
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "name": "empty", "dimension": 50, "basis_forms": ["x"],
        "points": [{"id": f"p{k}", "index": k} for k in range(51)],
        "flows": []}))
    out, _ = run(capsys, argv[0], str(path), *argv[1:])
    lines = out.splitlines()
    assert lines[-51:] == [line.format(k=k) for k in range(51)]
    assert len(calls) == 50
    assert all(A.data == [{}] and result[0] == () and result[1] is A
               for A, result in calls)
    assert leaves == []


@pytest.mark.parametrize("system", ["exp", "nov", "trivial"])
@pytest.mark.parametrize("cls, n", [("1,0,1", 3), ("1", 1), ("0", 1),
                                    ("0,0,0", 3)])
def test_obstructions_class_of_the_wrong_length(capsys, system, cls, n):
    # the class is checked against the basis forms before any period is
    # read; a zero class is refused as well, also where no system reads it
    out, err = run(capsys, "obstructions", "--example", "torus",
                   "--system", system, f"--class={cls}", code=2)
    assert out == ""
    assert err == f"error: class vector has {n} entries for 2 basis forms\n"


def test_obstructions_check_the_class_before_the_complex(capsys, tmp_path):
    # rp2 with its second flow's unit tag set to 1: its unit-tag complex
    # fails ∂², which a class of the right length reaches and one of the
    # wrong length does not
    rp2 = json.loads(dump_json(get_example("rp2").datum))
    rp2["flows"][1]["unit_tag"] = 1
    path = tmp_path / "rp2-retagged.json"
    path.write_text(json.dumps(rp2))
    out, err = run(capsys, "obstructions", str(path), "--system", "unit-rep",
                   "--class=1,2", code=2)
    assert (out, err) == ("", "error: class vector has 2 entries for 1 "
                              "basis forms\n")
    out, err = run(capsys, "obstructions", str(path), "--system", "unit-rep",
                   "--class=1", code=1)
    assert (out, err) == ("", "error: d.d != 0: composite through degree 1 "
                              "has entry (0,0) = 4\n")


@pytest.mark.parametrize("system, walks", [("trivial", 0), ("unit-rep", 1)])
def test_obstructions_without_a_class_walk_only_for_units(capsys, monkeypatch,
                                                          system, walks):
    import morsetwist.morse as morse_module
    seen = []
    original = morse_module.gauge_walk
    monkeypatch.setattr(morse_module, "gauge_walk",
                        lambda *a: seen.append(a) or original(*a))
    run(capsys, "obstructions", "--example", "rp2", "--system", system)
    assert len(seen) == walks


# --- random argv ------------------------------------------------------------

# Free text holds no digit and no "/": every number comes from a bounded
# strategy below (depth <= 64, rpn(N) with N <= 50, class denominators <= 4),
# and no path leaves the temporary directory the call runs in.
_FREE = st.text(alphabet="abexyzAZ-_=,.:;()+* éßλ", max_size=6)
_FILES = ["rp2.json", "cw.json", "rp2.facets", "broken.json", "bad.facets",
          "empty.txt", "dir", "missing.json"]


def _argv_files(root: Path):
    """The input files that random argv names, written under ``root``."""
    facets = FacetList(6, RP2_SIX_VERTEX_FACETS)
    (root / "rp2.json").write_text(dump_json(get_example("rp2").datum))
    (root / "cw.json").write_text(dump_json(from_simplicial(facets)))
    (root / "rp2.facets").write_text(facets_to_text(facets))
    (root / "broken.json").write_text('{"name": "x", "flows": [')
    (root / "bad.facets").write_text("vertices 3\n0 1 9\n")
    (root / "empty.txt").write_text("")
    (root / "dir").mkdir()


def _joined(items):
    return st.lists(items, min_size=1, max_size=4).map(",".join)


def _mostly(valid, junk):
    """``valid`` four times in five, else one of the ``junk`` strings."""
    return st.integers(0, 4).flatmap(
        lambda n: valid if n else st.sampled_from(junk))


_RATIONAL = st.builds(lambda p, q: f"{p}/{q}" if q > 1 else str(p),
                      st.integers(-4, 4), st.integers(1, 4))
_VALUES = {
    "--example": _mostly(st.one_of(
        st.sampled_from(["circle-regular", "circle-std", "genus2", "klein",
                         "rp2", "rp2-lift", "rp2-triangulated", "torus"]),
        st.integers(1, 50).map(lambda n: f"rpn({n})")),
        ["rpn(N)", "rpn()", "rpn(0)", "rpn(-1)", "nope"]),
    "--system": _mostly(st.sampled_from(["trivial", "unit-rep", "exp", "nov"]),
                        ["z", ""]),
    "--class": _mostly(_joined(_RATIONAL), ["", ",", "1,,2", "1/0", "x"]),
    "--format": _mostly(st.sampled_from(["text", "json"]), ["xml"]),
    "--depth": _mostly(st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 64),
                                 st.integers(1, 3)),
                       ["0", "-1", "1/0", "x", "1e3"]),
    "--max-iter": _mostly(st.integers(0, 10000).map(str),
                          ["-1", "1_0", "+3", "١", ""]),
    "--zeros": _mostly(_joined(st.integers(0, 5).map(str)), ["", "-1", "a,b"]),
    "-o": st.sampled_from(["out.json", "out.json", "dir", "missing/out.json"]),
}
_TOKEN = st.one_of(
    st.sampled_from(sorted(_VALUES) + _FILES + [
        "--output", "-h", "--", "--bogus", "list", "show", "run"]),
    *_VALUES.values(), _FREE)


_COMMON = ["--system", "--class", "--format", "--depth", "--max-iter"]
_OPTIONS = {
    "validate": [], "homology": _COMMON, "cohomology": _COMMON,
    "euler": _COMMON, "obstructions": _COMMON,
    "novikov": ["--class", "--format", "--depth", "--max-iter", "--zeros"],
    "from-triangulation": ["-o"], "example": ["--depth", "--max-iter"],
}


@st.composite
def random_argv(draw):
    """A command with its input and some of its options, each option with
    a value drawn for it, given as two tokens or joined by "="; then up to
    two edits that insert, delete or replace a token at random."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command == "example":
        argv += draw(st.sampled_from([["list"], ["show"], ["run"]]))
        if draw(st.booleans()):
            argv.append(draw(_VALUES["--example"]))
    elif command in ("validate", "from-triangulation") or draw(st.booleans()):
        good = (["rp2.facets"] if command == "from-triangulation"
                else ["rp2.json", "cw.json"])
        argv.append(draw(_mostly(st.sampled_from(good), _FILES)))
    else:
        argv += ["--example", draw(_VALUES["--example"])]
    options = _OPTIONS[command]
    for option in draw(st.lists(st.sampled_from(options), max_size=4,
                                unique=True)) if options else ():
        value = draw(_VALUES[option])
        argv += ([f"{option}={value}"] if draw(st.booleans())
                 else [option, value])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit != "insert" and i < len(argv):
            del argv[i]
        if edit != "delete":
            argv.insert(i, draw(_TOKEN))
    return argv


@given(argv=random_argv())
@settings(max_examples=400, deadline=None)
def test_random_argv_exits_cleanly(argv):
    # any argv exits 0, 1 or 2 and never shows a traceback; a nonzero exit
    # shows one error: line, or argparse's usage and its error line, on
    # stderr, or else a documented FAIL or stuck report on stdout
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root, chdir(root):
        _argv_files(Path(root))
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code:
        lines = err.splitlines()
        one_error = len(lines) == 1 and lines[0].startswith("error: ")
        usage = err.startswith("usage: ") and re.match(
            r"morsetwist( [a-z-]+)?: error: ", lines[-1])
        report = not err and ("FAIL" in out or "stuck" in out)
        assert one_error or usage or report, (argv, code, out, err)
