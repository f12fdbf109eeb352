"""Derived quantities: Novikov numbers, Morse/Novikov inequalities, and the
H-space / parallel-1-form obstructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import EXPSUM, HomologySummary, euler_homology, homology
from .errors import Indeterminate, ZeroClass
from .morse import UNIT_REP, LocalSystem, MorseDatum, build_complex


@dataclass(frozen=True)
class NovikovNumbers:
    class_vector: tuple
    b: tuple       # rank of twisted homology per degree
    q: tuple       # minimal torsion generator count per degree
    status: tuple  # "complete" | "stuck" (q unknown) per degree

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


def hspace_obstruction(sys: LocalSystem, simple: bool,
                       summary: HomologySummary | None) -> ObstructionVerdict:
    """Triggered when the system is not ``simple`` AND some degree of its
    twisted homology ``summary`` is nonzero — which rules out an associative
    H-space structure.  ``summary`` may be None only for a simple system.
    Betti numbers are exact, so a stuck degree (torsion unknown) witnesses
    by its b > 0 and its torsion is named as unknown in the witness; with
    no witness and a stuck degree the verdict is ``Indeterminate``."""
    if simple:
        return ObstructionVerdict("H_SPACE", False)
    # a unit-representation run counts only free rank, so an all-torsion
    # degree does not get silently promoted to nonzero
    torsion = sys.regime != EXPSUM and sys.flavor != UNIT_REP
    nonzero = [k for k, s in enumerate(summary.degrees)
               if s.betti > 0 or (torsion and s.torsion)]
    unknown = [k for k, s in enumerate(summary.degrees)
               if s.status == "stuck"]
    if not nonzero:
        if unknown:
            raise Indeterminate("a degree's reduction is stuck; "
                                "H-space verdict unknown")
        return ObstructionVerdict("H_SPACE", False)
    cls_txt = (" class " + ",".join(str(c) for c in sys.class_vector)
               if sys.class_vector else "")
    note = f"; torsion unknown in degree(s) {unknown}" if unknown else ""
    return ObstructionVerdict(
        "H_SPACE", True,
        witness=(f"system {sys.flavor}{cls_txt} is not simple and homology "
                 f"is nonzero in degree(s) {nonzero}{note}"))


def parallel_form_obstruction(class_vector,
                              summary: HomologySummary) -> ObstructionVerdict:
    """Triggered when the exponentially twisted cochain cohomology is nonzero
    in some degree — which blocks any metric making the form parallel.
    ``summary`` is the homology of the class's exponential chain complex:
    u ↦ u⁻¹ is a ring automorphism and a transpose keeps rank, so the
    cochain complex has its Betti numbers and its Euler number."""
    cv = tuple(Fraction(c) for c in class_vector)
    if all(c == 0 for c in cv):
        raise ZeroClass("parallel-form obstruction needs a nonzero class")
    nonzero = [k for k, s in enumerate(summary.degrees) if s.betti > 0]
    if not nonzero:
        return ObstructionVerdict("PARALLEL_FORM", False)
    chi = euler_homology(summary)
    note = ""
    if chi != 0:
        note = (f"; Euler number {chi} != 0 already forces the verdict for "
                f"every nonzero class")
    return ObstructionVerdict(
        "PARALLEL_FORM", True,
        witness=(f"twisted cochain cohomology nonzero in degree(s) "
                 f"{nonzero} for class {','.join(str(c) for c in cv)}{note}"))
