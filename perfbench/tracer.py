"""In-memory spans around quantperm's public functions, and self times.

A traced run replaces each function named in TRACED with a wrapper that
records one span (name, start, end, parent, op id, tau1 queries made
inside it).  The wrapper is bound wherever a caller resolves the
function: every quantperm module attribute that holds the original
object is patched, so a call from indexing.enum_b to beta_fast is seen
just like a call from the benchmark.  ExactScalar's arithmetic and
comparison methods are patched on the class; only calls entering
exactnum from outside become spans (cmp calls __sub__ internally, and
that inner call belongs to the outer span).

Spans live in flat integer arrays so a few hundred thousand of them
cost a few megabytes; they are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (module, function): the layer boundaries the per-layer metrics name.
TRACED = (
    ("outcomes", "builtin_model"),
    ("outcomes", "load_model"),
    ("multinomial", "build_value_table"),
    ("indexing", "beta_fast"),
    ("indexing", "enum_b"),
    ("indexing", "weight_classes"),
    ("indexing", "decoded_vectors"),
    ("permutations", "f_perm"),
    ("permutations", "inv_f"),
    ("permutations", "make_admissible"),
    ("permutations", "admissibility_failure"),
    ("representation", "representation_from_perm"),
    ("representation", "representation_failure"),
    ("bench", "table_checks"),
    ("cli", "main"),
)
EXACT_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")
EXACT_CMP = ("cmp", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")

NO_PARENT = -1


def quantperm_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "quantperm" or name.startswith("quantperm."))
    ]


class Patches:
    """Replace a function at every quantperm module attribute bound to it."""

    def __init__(self):
        self._undo = []

    def everywhere(self, orig, replacement):
        for mod in quantperm_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))

    def on(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


class Tracer:
    """Span recorder; install() patches the modules of one quantperm import."""

    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.tau1 = array("q")
        self._stack = [NO_PARENT]
        self._op = NO_PARENT
        self._in_exact = False
        self._patches = Patches()

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self.tau1.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def run_op(self, op_id: int, name: str, fn, *args):
        """Run fn(*args) as the root span of one op (op id < 0 for set-up)."""
        self._op = op_id
        idx = self._open(self._intern(name))
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, perf_counter_ns())
            self._op = NO_PARENT

    def wrap(self, name: str, fn, table_type=None):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            table = args[0] if args and isinstance(args[0], table_type or ()) else None
            q0 = table.stats.tau1_queries if table is not None else 0
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                if table is not None:
                    self.tau1[idx] = table.stats.tau1_queries - q0
                self._close(idx, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def wrap_exact(self, name: str, fn):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            if self._in_exact:
                return fn(*args, **kwargs)
            self._in_exact = True
            idx = self._open(nid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._close(idx, t0, t1)
                self._in_exact = False

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self, mods):
        """Wrap every TRACED function and the ExactScalar methods of mods."""
        table_type = mods.multinomial.ValueTable
        for modname, attr in TRACED:
            orig = getattr(getattr(mods, modname), attr)
            self._patches.everywhere(orig, self.wrap(f"{modname}.{attr}", orig, table_type))
        cls = mods.exactnum.ExactScalar
        for attr in EXACT_ARITH + EXACT_CMP:
            kind = "arith" if attr in EXACT_ARITH else "cmp"
            self._patches.on(cls, attr, self.wrap_exact(f"exactnum.{kind}.{attr}", vars(cls)[attr]))

    def uninstall(self):
        self._patches.undo()

    # -- output --------------------------------------------------------------

    def write(self, path):
        """All spans as gzipped CSV; times in ns from the first span's start."""
        base = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op,tau1\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - base},"
                    f"{self.end[i] - base},{self.parent[i]},{self.op[i]},{self.tau1[i]}\n"
                )


def self_times(start, end, parent):
    """Each span's duration minus the part of it that its children cover.

    Children may arrive in any order and may overlap one another; the
    covered part is the union of their intervals clipped to the parent.
    """
    order = sorted(range(len(start)), key=lambda i: start[i])
    covered = [0] * len(start)
    reach: dict = {}
    for i in order:
        p = parent[i]
        if p == NO_PARENT:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def per_op_totals(tracer: Tracer):
    """{op id: {name: [calls, self ns, tau1]}} over every recorded span."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for i, nid in enumerate(tracer.name):
        acc = out[tracer.op[i]][tracer.names[nid]]
        acc[0] += 1
        acc[1] += selfs[i]
        acc[2] += tracer.tau1[i]
    return out
