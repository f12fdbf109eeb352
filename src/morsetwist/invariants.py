"""Derived quantities: Novikov numbers, Morse/Novikov inequalities, and the
H-space / parallel-1-form obstructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import EXPSUM, euler_cells, homology
from .errors import Indeterminate, ZeroClass
from .morse import (
    UNIT_REP,
    LocalSystem,
    MorseDatum,
    build_complex,
    build_cochain,
    is_simple,
)


@dataclass(frozen=True)
class NovikovNumbers:
    class_vector: tuple
    b: tuple       # rank of twisted homology per degree
    q: tuple       # minimal torsion generator count per degree
    status: tuple  # "complete" | "stuck" per degree

    @property
    def complete(self) -> bool:
        return all(s == "complete" for s in self.status)


def novikov_numbers(d: MorseDatum, class_vector, depth=16,
                    max_iter=10000) -> NovikovNumbers:
    sys = LocalSystem.nov(class_vector)
    summary = homology(build_complex(d, sys), depth=depth, max_iter=max_iter)
    return NovikovNumbers(
        class_vector=tuple(Fraction(c) for c in class_vector),
        b=tuple(s.betti for s in summary.degrees),
        q=tuple(len(s.torsion) for s in summary.degrees),
        status=tuple(s.status for s in summary.degrees),
    )


@dataclass(frozen=True)
class InequalityReport:
    slack: tuple
    passed: bool


def check_inequalities(c, n: NovikovNumbers) -> InequalityReport:
    """Zero-count bounds c_k >= b_k + q_k + q_{k-1} (with q_{-1} = 0)."""
    if not n.complete:
        raise Indeterminate("Novikov numbers have a stuck degree")
    c = tuple(int(x) for x in c)
    if len(c) != len(n.b):
        raise ValueError(f"{len(c)} zero counts for {len(n.b)} degrees")
    slack = tuple(
        c[k] - n.b[k] - n.q[k] - (n.q[k - 1] if k > 0 else 0)
        for k in range(len(c)))
    return InequalityReport(slack=slack, passed=all(s >= 0 for s in slack))


@dataclass(frozen=True)
class ObstructionVerdict:
    kind: str  # "H_SPACE" | "PARALLEL_FORM"
    triggered: bool
    witness: str = ""

    def __post_init__(self):
        if self.triggered and not self.witness:
            raise ValueError("a triggered verdict needs a witness")


def hspace_obstruction(d: MorseDatum, sys: LocalSystem, depth=16,
                       max_iter=10000, periods=None) -> ObstructionVerdict:
    """Triggered when the system is not simple AND some degree of twisted
    homology is nonzero — which rules out an associative H-space structure.
    ``periods`` are the flows' class periods, computed when not given."""
    simple = is_simple(d, sys, periods)
    if simple:
        return ObstructionVerdict("H_SPACE", False)
    summary = homology(build_complex(d, sys, periods), depth=depth,
                       max_iter=max_iter)
    if not summary.complete:
        raise Indeterminate("a degree's reduction is stuck; "
                            "H-space verdict unknown")
    # a unit-representation run counts only free rank, so an all-torsion
    # degree does not get silently promoted to nonzero
    torsion = sys.regime != EXPSUM and sys.flavor != UNIT_REP
    nonzero = [k for k, s in enumerate(summary.degrees)
               if s.betti > 0 or (torsion and s.torsion)]
    if not nonzero:
        return ObstructionVerdict("H_SPACE", False)
    cls_txt = (" class " + ",".join(str(c) for c in sys.class_vector)
               if sys.class_vector else "")
    return ObstructionVerdict(
        "H_SPACE", True,
        witness=(f"system {sys.flavor}{cls_txt} is not simple and homology "
                 f"is nonzero in degree(s) {nonzero}"))


def parallel_form_obstruction(d: MorseDatum, class_vector, depth=16,
                              max_iter=10000,
                              periods=None) -> ObstructionVerdict:
    """Triggered when the exponentially twisted cochain cohomology is nonzero
    in some degree — which blocks any metric making the form parallel.
    ``periods`` are the flows' class periods, computed when not given."""
    cv = tuple(Fraction(c) for c in class_vector)
    if all(c == 0 for c in cv):
        raise ZeroClass("parallel-form obstruction needs a nonzero class")
    sys = LocalSystem.exp(cv)
    cochain = build_cochain(d, sys, periods)
    summary = homology(cochain, depth=depth, max_iter=max_iter)
    nonzero = [k for k, s in enumerate(summary.degrees) if s.betti > 0]
    if not nonzero:
        return ObstructionVerdict("PARALLEL_FORM", False)
    chi = euler_cells(cochain)
    note = ""
    if chi != 0:
        note = (f"; Euler number {chi} != 0 already forces the verdict for "
                f"every nonzero class")
    return ObstructionVerdict(
        "PARALLEL_FORM", True,
        witness=(f"twisted cochain cohomology nonzero in degree(s) "
                 f"{nonzero} for class {','.join(str(c) for c in cv)}{note}"))


def rank_of_class(d: MorseDatum, class_vector, periods=None) -> int:
    """Rank of the subgroup of Q generated by the detectable loop periods:
    0 when every loop period vanishes, that is when the class's
    exponential system is simple, else 1 (rational periods).  A class
    with more or fewer entries than basis forms is refused, even a zero
    one."""
    return int(not is_simple(d, LocalSystem.exp(class_vector), periods))
