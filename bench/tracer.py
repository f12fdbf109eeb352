"""Layer tracer: spans around the public functions of each ``morsetwist``
layer, plus deterministic work counters.

The package's modules import each other's functions by name
(``from .linalg import snf_int``), so a function object is bound in many
module namespaces.  ``Tracer.install`` replaces every binding of each target
function object in every loaded ``morsetwist.*`` module, and wraps the
``ExpSum``/``NovElem`` arithmetic operators with call counters.
``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# "<module>.<function>" for every traced function
SPANS = (
    "serial.facets_from_text",
    "serial.load_json",
    "cw.from_simplicial",
    "cw.validate_regular",
    "cw.cw_to_morse",
    "morse.build_complex",
    "morse.build_cochain",
    "morse.is_simple",
    "chains.validate_complex",
    "chains.dualize",
    "chains.homology",
    "linalg.snf_int",
    "linalg.rank_expsum",
    "linalg.nov_reduce",
    "invariants.novikov_numbers",
    "invariants.hspace_obstruction",
    "invariants.parallel_form_obstruction",
    "catalog.run_all",
    "cli.main",
)

COUNTERS = (
    "linalg.entries",
    "linalg.nnz",
    "linalg.max_terms",
    "linalg.nov_reduce.stuck",
    "rings.mul.calls",
    "rings.add.calls",
)

_RING_OPS = {"__mul__": "rings.mul.calls", "__rmul__": "rings.mul.calls",
             "__add__": "rings.add.calls", "__radd__": "rings.add.calls",
             "__sub__": "rings.add.calls"}


def _terms(entry) -> int:
    terms = getattr(entry, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if entry != 0 else 0


class Tracer:
    """Collects spans and counters while installed.

    Per span name: ``calls`` and ``self_s`` (duration minus the time of the
    spans it directly contains).  ``spans`` keeps every raw span as
    ``(id, parent_id, name, solve, start_s, end_s)``.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.spans = []
        self.solve = None          # tag of the solve in progress
        self._stack = []           # per open span: [span id, child seconds]
        self._undo = []
        self._epoch = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "morsetwist"
                                         or name.startswith("morsetwist."))]
        for span in SPANS:
            mod, func = span.split(".")
            original = getattr(sys.modules[f"morsetwist.{mod}"], func)
            wrapper = self._wrap(span, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, original))
                        setattr(m, attr, wrapper)
        rings = sys.modules["morsetwist.rings"]
        for cls in (rings.ExpSum, rings.NovElem):
            for op, key in _RING_OPS.items():
                original = cls.__dict__[op]
                self._undo.append((cls, op, original))
                setattr(cls, op, self._count(key, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args):
            counters[key] += 1
            return fn(*args)
        return counted

    def _wrap(self, span, fn):
        linalg = span.startswith("linalg.")
        stuck = span == "linalg.nov_reduce"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.calls[span] += 1
                self.self_s[span] += (end - start) - frame[1]
                self.spans[sid] = (sid, parent[0] if parent else None, span,
                                   self.solve, start - self._epoch,
                                   end - self._epoch)
                if parent is not None:
                    parent[1] += end - start
            if linalg:
                # read outside the span; the parent's self time excludes it
                self._matrix_counters(args[0])
                if stuck and result.status == "stuck":
                    self.counters["linalg.nov_reduce.stuck"] += 1
                if parent is not None:
                    parent[1] += clock() - end
            return result
        return traced

    def _matrix_counters(self, matrix):
        c = self.counters
        c["linalg.entries"] += matrix.rows * matrix.cols
        sizes = [_terms(e) for row in matrix.entries for e in row]
        c["linalg.nnz"] += sum(1 for s in sizes if s)
        c["linalg.max_terms"] = max(c["linalg.max_terms"], max(sizes, default=0))

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Calls, self time and counters accumulated so far."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}
