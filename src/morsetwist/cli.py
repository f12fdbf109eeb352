"""Command-line front door.

Exit codes: 0 success, 1 mathematical failure (validation violation, stuck
reduction, triggered precondition), 2 input/parse failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .catalog import example_names, get_example, run_all
from .chains import (
    INT,
    HomologySummary,
    euler_cells,
    euler_homology,
    homology,
    validate_complex,
)
from .cw import RegularCW, cw_to_morse, from_simplicial, simplicial_boundary
from .errors import MorsetwistError, NotRegular, ParseError
from .invariants import (
    check_inequalities,
    hspace_obstruction,
    novikov_numbers,
    parallel_form_obstruction,
)
from .morse import (
    UNIT_REP,
    LocalSystem,
    MorseDatum,
    build_cochain,
    build_complex,
    flow_periods,
    gauge_walk,
    is_simple,
)
from .rings import parse_rational
from .serial import decimals, dump_json, facets_from_text, load_json

EXIT_OK = 0
EXIT_MATH = 1
EXIT_IO = 2


def _parse_class(text):
    if text is None:
        return None
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except ParseError as exc:
        raise ParseError(f"bad class vector {text!r}: {exc}") from exc


def _parse_zeros(text, degrees):
    if text is None:
        return None
    try:
        zeros = decimals(part.strip() for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad zero counts {text!r}: {exc}") from exc
    if len(zeros) != degrees:
        raise ParseError(f"bad zero counts {text!r}: {len(zeros)} counts "
                         f"for {degrees} degrees")
    return zeros


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_datum(args) -> MorseDatum:
    if getattr(args, "example", None):
        return get_example(args.example).datum
    if not getattr(args, "input", None):
        raise ParseError("need an input file or --example NAME")
    value = load_json(_read_text(args.input))
    if isinstance(value, RegularCW):
        return cw_to_morse(value)
    return value


_REGIME_LABEL = {"INT": "Z", "EXPSUM": "R", "NOV": "Nov"}


def _degree_text(regime, betti, torsion, status="complete"):
    label = _REGIME_LABEL[regime]
    parts = []
    if betti == 1:
        parts.append(label)
    elif betti > 1:
        parts.append(f"{label}^{betti}")
    if status != "complete":
        parts.append("torsion unknown (reduction stuck)")
    for t in torsion:
        parts.append(f"{label}/{t}")
    return " + ".join(parts) if parts else "0"


def _summary_dict(summary: HomologySummary):
    return {
        "regime": summary.regime,
        "degrees": list(range(len(summary.degrees))),
        "betti": [d.betti for d in summary.degrees],
        "torsion": [list(d.torsion) for d in summary.degrees],
        "status": [d.status for d in summary.degrees],
    }


def _emit(obj, args, text_lines):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _print_summary(summary: HomologySummary, args, symbol):
    lines = []
    for k, d in enumerate(summary.degrees):
        lines.append(f"{symbol}{k} = "
                     f"{_degree_text(summary.regime, d.betti, d.torsion, d.status)}")
    _emit(_summary_dict(summary), args, lines)
    return EXIT_OK if summary.complete else EXIT_MATH


def cmd_validate(args) -> int:
    value = load_json(_read_text(args.input))
    problems = []
    from_cw = isinstance(value, RegularCW)
    if from_cw:
        try:
            value = cw_to_morse(value)
        except NotRegular as exc:
            problems.append(f"regularity: {exc}")
    if isinstance(value, MorseDatum):
        # a regular CW complex has d.d = 0 already: its diamond sums vanish
        bad = None if from_cw else validate_complex(
            build_complex(value, LocalSystem.trivial()))
        if bad is not None:
            problems.append(f"untwisted complex: {bad.describe()}")
        if all(f.unit_tag is not None for f in value.flows) and value.flows:
            bad = validate_complex(build_complex(value, LocalSystem.unit_rep()))
            if bad is not None:
                problems.append(f"unit-tag complex: {bad.describe()}")
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return EXIT_MATH
    print("ok")
    return EXIT_OK


def _complex(args, build):
    """``build`` (``build_complex`` or ``build_cochain``) applied to the
    datum and the system that ``args`` name."""
    d = _load_datum(args)
    return build(d, LocalSystem.named(args.system,
                                      _parse_class(args.class_vector)))


def _homology(cpx, args) -> HomologySummary:
    return homology(cpx, depth=args.depth, max_iter=args.max_iter)


def cmd_homology(args) -> int:
    return _print_summary(_homology(_complex(args, build_complex), args),
                          args, "H_")


def cmd_cohomology(args) -> int:
    return _print_summary(_homology(_complex(args, build_cochain), args),
                          args, "H^")


def cmd_novikov(args) -> int:
    d = _load_datum(args)
    cls = _parse_class(args.class_vector)
    if cls is None:
        raise ParseError("novikov requires --class")
    nn = novikov_numbers(d, cls, depth=args.depth, max_iter=args.max_iter)
    obj = {
        "class": [str(c) for c in nn.class_vector],
        "degrees": list(range(len(nn.b))),
        "b": list(nn.b),
        "q": list(nn.q),
        "status": list(nn.status),
    }
    lines = [f"class {','.join(str(c) for c in nn.class_vector)}"]
    for k in range(len(nn.b)):
        lines.append(f"degree {k}: b={nn.b[k]} q={nn.q[k]}"
                     + ("" if nn.status[k] == "complete" else " (stuck)"))
    zeros = _parse_zeros(args.zeros, len(nn.b))
    if zeros is not None:
        rep = check_inequalities(zeros, nn)
        obj["zeros"] = list(zeros)
        obj["slack"] = list(rep.slack)
        obj["pass"] = rep.passed
        lines.append(f"zero-count bounds: slack "
                     f"{','.join(str(s) for s in rep.slack)} -> "
                     f"{'pass' if rep.passed else 'FAIL'}")
    _emit(obj, args, lines)
    if not nn.complete:
        return EXIT_MATH
    if zeros is not None and not rep.passed:
        return EXIT_MATH
    return EXIT_OK


def cmd_euler(args) -> int:
    cpx = _complex(args, build_complex)
    chi_cells = euler_cells(cpx)
    chi_hom = euler_homology(_homology(cpx, args))
    obj = {"cells": chi_cells, "homology": chi_hom,
           "agree": chi_cells == chi_hom}
    _emit(obj, args, [f"euler (cells) = {chi_cells}",
                      f"euler (homology) = {chi_hom}",
                      f"agree: {str(chi_cells == chi_hom).lower()}"])
    return EXIT_OK if chi_cells == chi_hom else EXIT_MATH


def cmd_obstructions(args) -> int:
    d = _load_datum(args)
    cls = _parse_class(args.class_vector)
    sys_ = LocalSystem.named(args.system, cls)
    exp = None if cls is None else LocalSystem.exp(cls)
    # both systems are checked before any period is computed; one class
    # period per flow, one gauge walk and one reduction per system serve
    # every verdict below
    sys_.check_compatible(d)
    if exp is not None:
        exp.check_compatible(d)
    periods = flow_periods(d, cls or ())
    if sys_.flavor == UNIT_REP and exp is not None:
        # the unit verdict and the class rank read two facts of one walk
        exact, simple = gauge_walk(d, periods)
    else:
        simple = is_simple(d, sys_, periods)
        # exp and nov under one class read the same periods
        exact = None if exp is None else (
            simple if sys_.regime != INT else is_simple(d, exp, periods))
    summary = None if simple else _homology(build_complex(d, sys_, periods),
                                            args)
    verdicts = [hspace_obstruction(sys_, simple, summary)]
    rank = None
    if exp is not None:
        if any(cls):
            if sys_ != exp or simple:
                summary = _homology(build_complex(d, exp, periods), args)
            verdicts.append(parallel_form_obstruction(cls, summary))
        rank = int(not exact)
    obj = {"verdicts": [
        {"kind": v.kind, "triggered": v.triggered, "witness": v.witness}
        for v in verdicts]}
    lines = [f"{v.kind}: {'TRIGGERED' if v.triggered else 'clear'}"
             + (f" ({v.witness})" if v.witness else "") for v in verdicts]
    if rank is not None:
        obj["rank_of_class"] = rank
        lines.append(f"rank of class: {rank}")
    _emit(obj, args, lines)
    return EXIT_OK


def cmd_from_triangulation(args) -> int:
    facets = facets_from_text(_read_text(args.input))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dump_json(from_simplicial(facets)))
        except OSError as exc:
            raise ParseError(f"cannot write {args.output}: {exc}") from exc
    cpx = simplicial_boundary(facets)
    summary = homology(cpx)
    print(f"cells {','.join(str(c) for c in cpx.counts())}  "
          f"euler {euler_cells(cpx)}")
    for k, deg in enumerate(summary.degrees):
        print(f"H_{k} = {_degree_text('INT', deg.betti, deg.torsion)}")
    return EXIT_OK


def cmd_example(args) -> int:
    if args.action == "list":
        for name in example_names():
            print(name)
        return EXIT_OK
    if args.action == "show":
        if not args.name:
            raise ParseError("example show needs a NAME")
        entry = get_example(args.name)
        # description on stderr so stdout stays valid JSON for piping
        print(f"{entry.name}: {entry.description}", file=sys.stderr)
        sys.stdout.write(dump_json(entry.datum))
        return EXIT_OK
    # run
    names = [args.name] if args.name else None
    results = run_all(depth=args.depth, max_iter=args.max_iter, names=names)
    ok = True
    for r in results:
        status = "pass" if r.ok else "FAIL"
        extra = f" ({r.detail})" if r.detail else ""
        print(f"{status} [{r.entry}] {r.provenance}{extra}")
        ok = ok and r.ok
    return EXIT_OK if ok else EXIT_MATH


def _depth(text) -> Fraction:
    try:
        depth = parse_rational(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    if depth <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return depth


def _max_iter(text) -> int:
    try:
        max_iter, = decimals([text.strip()])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a count in decimal digits: {text!r}") from None
    return max_iter


def _add_budget(p):
    p.add_argument("--depth", type=_depth, default=Fraction(16),
                   help="Novikov inversion depth (default 16)")
    p.add_argument("--max-iter", type=_max_iter, default=10000)


def _add_common(p, with_system=True):
    p.add_argument("input", nargs="?", help="input JSON file")
    p.add_argument("--example", help="use a built-in example instead of a file")
    if with_system:
        p.add_argument("--system", choices=["trivial", "unit-rep", "exp", "nov"],
                       default="trivial")
    p.add_argument("--class", dest="class_vector", metavar="C1,C2,...",
                   help="rational class vector in the datum's form basis")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_budget(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="morsetwist",
        description="Twisted Morse / cellular chain complexes with local "
                    "coefficients: integer homology with torsion, "
                    "exponential-twist cohomology, and Novikov numbers.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a datum or CW file")
    p.add_argument("input")

    p = sub.add_parser("homology", help="twisted homology of a datum")
    _add_common(p)

    p = sub.add_parser("cohomology", help="twisted cochain cohomology")
    _add_common(p)

    p = sub.add_parser("novikov", help="Novikov numbers b_k, q_k")
    _add_common(p, with_system=False)
    p.add_argument("--zeros", metavar="C0,C1,...",
                   help="per-degree zero counts to test against the bounds")

    p = sub.add_parser("euler", help="Euler number, cells vs homology")
    _add_common(p)

    p = sub.add_parser("obstructions",
                       help="H-space and parallel-form obstruction verdicts")
    _add_common(p)

    p = sub.add_parser("from-triangulation",
                       help="facet list -> regular CW complex")
    p.add_argument("input", help="facet list file")
    p.add_argument("-o", "--output", help="write the CW complex JSON here")

    p = sub.add_parser("example", help="list, show, or replay the catalog")
    p.add_argument("action", choices=["list", "show", "run"])
    p.add_argument("name", nargs="?")
    _add_budget(p)

    return ap


_DISPATCH = {
    "validate": cmd_validate,
    "homology": cmd_homology,
    "cohomology": cmd_cohomology,
    "novikov": cmd_novikov,
    "euler": cmd_euler,
    "obstructions": cmd_obstructions,
    "from-triangulation": cmd_from_triangulation,
    "example": cmd_example,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def _join_class_values(argv):
    """``--class V`` -> ``--class=V`` when V starts with ``-`` and a digit:
    argparse would read ``-2/3`` or ``-1,0`` as an option, not a value."""
    out = list(argv)
    end = out.index("--") if "--" in out else len(out)
    for i in reversed(range(end - 1)):
        v = out[i + 1]
        if out[i] == "--class" and v[:1] == "-" and v[1:2].isdigit():
            out[i:i + 2] = [f"--class={v}"]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_class_values(argv))
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MorsetwistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
