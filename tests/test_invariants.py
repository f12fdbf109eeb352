import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import hspace_verdict
from morsetwist.catalog import get_example
from morsetwist.chains import homology
from morsetwist.cli import main
from morsetwist.errors import Indeterminate, ParseError, ZeroClass
from morsetwist.invariants import (
    check_inequalities,
    hspace_obstruction,
    novikov_numbers,
    parallel_form_obstruction,
)
from morsetwist.morse import LocalSystem, build_complex, is_simple
from morsetwist.serial import load_json

CIRCLE = get_example("circle-std").datum
TORUS = get_example("torus").datum
KLEIN = get_example("klein").datum
GENUS2 = get_example("genus2").datum
RP2 = get_example("rp2").datum


def test_novikov_numbers_torus():
    nn = novikov_numbers(TORUS, (F(1), F(0)))
    assert nn.b == (0, 0, 0) and nn.q == (0, 0, 0) and nn.complete
    nn0 = novikov_numbers(TORUS, (F(0), F(0)))
    assert nn0.b == (1, 2, 1) and nn0.q == (0, 0, 0)


def test_novikov_numbers_klein():
    nn0 = novikov_numbers(KLEIN, (F(0),))
    assert nn0.b == (1, 1, 0) and nn0.q == (0, 1, 0)
    nn = novikov_numbers(KLEIN, (F(2, 3),))
    assert nn.b == (0, 0, 0) and nn.q == (0, 0, 0)


def test_check_inequalities_genus2():
    nn = novikov_numbers(GENUS2, (F(1), F(0), F(0), F(0)))
    rep = check_inequalities((1, 4, 1), nn)
    assert rep.slack == (1, 2, 1)
    assert rep.passed


def test_check_inequalities_circle_and_failure():
    nn = novikov_numbers(CIRCLE, (F(1),))
    rep = check_inequalities((1, 1), nn)
    assert rep.slack == (1, 1) and rep.passed

    nn0 = novikov_numbers(TORUS, (F(0), F(0)))
    rep = check_inequalities((0, 2, 1), nn0)
    assert not rep.passed
    assert rep.slack[0] < 0
    with pytest.raises(ValueError, match="2 zero counts for 3 degrees"):
        check_inequalities((0, 2), nn0)

    stuck = novikov_numbers(TORUS, (F(2, 3), F(2, 3)), max_iter=0)
    assert not stuck.complete
    with pytest.raises(Indeterminate):
        check_inequalities((1, 2, 1), stuck)


def test_hspace_obstruction_matrix():
    assert hspace_verdict(GENUS2, LocalSystem.exp((F(1), F(0), F(0), F(0)))).triggered
    assert hspace_verdict(RP2, LocalSystem.unit_rep()).triggered
    assert not hspace_verdict(TORUS, LocalSystem.exp((F(1), F(0)))).triggered
    assert not hspace_verdict(TORUS, LocalSystem.trivial()).triggered
    assert hspace_verdict(get_example("rpn(4)").datum,
                          LocalSystem.unit_rep()).triggered
    assert not hspace_verdict(get_example("rpn(3)").datum,
                              LocalSystem.unit_rep()).triggered


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_hspace_verdict_with_a_stuck_degree(capsys):
    # torsion-block under class 1: H_0 = Nov is exact and the torsion of
    # H_1 is stuck, so b_0 > 0 witnesses the verdict and the witness names
    # the degree whose torsion is unknown
    path = EXAMPLES / "torsion-block.json"
    assert main(["obstructions", str(path), "--system", "nov",
                 "--class=1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "H_SPACE: TRIGGERED (system NOV class 1 is not simple and homology "
        "is nonzero in degree(s) [0]; torsion unknown in degree(s) [1])")
    # the stuck circle: b = 0 in every degree and the torsion of H_0 is
    # unknown, so nothing witnesses the verdict and none is read
    flows = [{"from": "q", "to": "p", "sign": sign, "periods": [period]}
             for sign, period in ((1, "0"), (1, "0"), (-1, "1"))]
    d = load_json(json.dumps({
        "name": "stuck-circle", "dimension": 1, "basis_forms": ["theta"],
        "points": [{"id": "p", "index": 0}, {"id": "q", "index": 1}],
        "flows": flows}))
    sys = LocalSystem.nov((F(1),))
    summary = homology(build_complex(d, sys))
    assert [s.status for s in summary.degrees] == ["stuck", "complete"]
    with pytest.raises(Indeterminate):
        hspace_obstruction(sys, is_simple(d, sys), summary)


def test_hspace_never_triggered_for_trivial():
    for name in ["circle-std", "rp2", "torus", "klein", "genus2"]:
        d = get_example(name).datum
        assert not hspace_verdict(d, LocalSystem.trivial()).triggered


def exp_summary(d, cls):
    return homology(build_complex(d, LocalSystem.exp(cls)))


def test_parallel_form_obstruction():
    cls = (F(1), F(0), F(0), F(0))
    v = parallel_form_obstruction(cls, exp_summary(GENUS2, cls))
    assert v.triggered
    assert "Euler" in v.witness
    cls = (F(1), F(0))
    assert not parallel_form_obstruction(cls, exp_summary(TORUS, cls)).triggered
    with pytest.raises(ZeroClass):
        parallel_form_obstruction((F(0),), exp_summary(RP2, (F(0),)))


def test_rank_of_class():
    # the rank of a class is 1 exactly when its exponential system is not
    # simple
    assert not is_simple(CIRCLE, LocalSystem.exp((F(1),)))
    assert is_simple(CIRCLE, LocalSystem.exp((F(0),)))
    assert not is_simple(GENUS2, LocalSystem.exp((F(1), F(1), F(0), F(0))))
    # a zero class of the wrong length is refused like a nonzero one
    for cls in ((F(0),), (F(0),) * 3, (F(1),)):
        with pytest.raises(ParseError, match=f"has {len(cls)} entries for 2"):
            is_simple(TORUS, LocalSystem.exp(cls))


def test_novikov_euler_identity():
    from morsetwist.chains import euler_cells
    from morsetwist.morse import build_complex
    for name, cls in [("circle-std", (F(1),)), ("torus", (F(1), F(2))),
                      ("klein", (F(1),)),
                      ("genus2", (F(1), F(-2), F(1, 3), F(0)))]:
        d = get_example(name).datum
        nn = novikov_numbers(d, cls)
        assert nn.complete
        chi = euler_cells(build_complex(d, LocalSystem.trivial()))
        assert sum((-1) ** k * b for k, b in enumerate(nn.b)) == chi


def test_prop_zero_class_matches_int_homology():
    from morsetwist.chains import homology
    from morsetwist.morse import build_complex
    for name in ["circle-std", "rp2", "torus", "klein", "genus2"]:
        d = get_example(name).datum
        zero = (F(0),) * len(d.basis_forms)
        nn = novikov_numbers(d, zero)
        s = homology(build_complex(d, LocalSystem.trivial()))
        assert nn.b == s.betti
        assert nn.q == tuple(len(x.torsion) for x in s.degrees)
