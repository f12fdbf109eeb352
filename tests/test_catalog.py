from dataclasses import replace
from fractions import Fraction as F

import pytest

from morsetwist.catalog import check_expectation, example_names, get_example, run_all
from morsetwist.chains import validate_complex
from morsetwist.errors import UnknownExample
from morsetwist.morse import LocalSystem, build_complex


def test_registry_names():
    names = example_names()
    for required in ["circle-std", "circle-regular", "rp2", "rp2-lift",
                     "torus", "klein", "genus2", "rp2-triangulated"]:
        assert required in names


def test_unknown_example():
    with pytest.raises(UnknownExample):
        get_example("moebius")


def test_rpn_parameterized():
    e = get_example("rpn(4)")
    assert len(e.datum.points) == 5
    assert len(e.datum.flows) == 8


def test_run_all_default_depth():
    results = run_all()
    assert results
    bad = [r for r in results if not r.ok]
    assert not bad, bad


def test_run_all_shallow_depth():
    # the catalog instances need almost no series depth
    results = run_all(depth=2)
    bad = [r for r in results if not r.ok]
    assert not bad, bad


def test_mutation_flipped_sign_is_caught():
    entry = get_example("genus2")
    d = entry.datum
    flows = list(d.flows)
    # flip one saddle-to-minimum sign
    flows[0] = replace(flows[0], sign=-flows[0].sign)
    broken = replace(d, flows=tuple(flows))
    # pick a class with every component nonzero so no cancellation hides it
    C = build_complex(broken, LocalSystem.exp((F(1), F(2), F(3), F(4))))
    assert validate_complex(C) is not None


def test_check_expectation_reports_nonzero_boundary_squared():
    entry = get_example("rp2")
    flows = list(entry.datum.flows)
    flows[2] = replace(flows[2], sign=-flows[2].sign)
    broken = replace(entry, datum=replace(entry.datum, flows=tuple(flows)))
    result = check_expectation(broken, entry.expectations[0])
    assert not result.ok
    assert result.detail.startswith("d.d != 0")


def test_entries_export_roundtrip():
    from morsetwist.serial import datum_from_dict, datum_to_dict
    for name in ["circle-std", "rp2", "rp2-lift", "torus", "klein", "genus2"]:
        d = get_example(name).datum
        assert datum_from_dict(datum_to_dict(d)) == d
