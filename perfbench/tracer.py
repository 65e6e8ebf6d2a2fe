"""Spans around the entry points of torvoa's layers, installed from outside.

The tracer replaces module and class attributes of an imported torvoa with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Spans live in flat arrays until the run ends.
Self time is a span's duration minus the durations of its direct children,
summed per name.  Python's garbage collector is timed through
``gc.callbacks``.
"""

from __future__ import annotations

import gc
import json
import time
from array import array

# (module, owner attribute or None, function attribute, span name); a
# function imported by name into several modules is wrapped under each name
ENTRY_POINTS = [
    ("cli", None, "build_context", "cli.build_context"),
    ("algebra_core", None, "bracket_symbols", "algebra_core.bracket"),
    ("algebra_core", None, "_plain_to_tilde", "algebra_core.bracket"),
    ("toroidal_realization", None, "bracket_symbols", "algebra_core.bracket"),
    ("toroidal_realization", None, "_plain_to_tilde", "algebra_core.bracket"),
    ("toroidal_realization", "RealizationModule", "g_act_symbol",
     "toroidal_realization.g_act"),
    ("toroidal_realization", "RealizationModule", "_term_ordered",
     "toroidal_realization.term_ordered"),
    ("lattice_fock", None, "_exp_term", "lattice_fock.exp_term"),
    ("toroidal_realization", None, "_exp_term", "lattice_fock.exp_term"),
    ("lattice_fock", None, "heis_act_gen", "lattice_fock.oscillator"),
    ("lattice_fock", None, "hyp_virasoro_mode", "lattice_fock.oscillator"),
    ("toroidal_realization", None, "heis_act_gen", "lattice_fock.oscillator"),
    ("toroidal_realization", None, "hyp_virasoro_mode",
     "lattice_fock.oscillator"),
    ("lattice_fock", None, "state_mode", "lattice_fock.state_mode"),
    ("lattice_fock", None, "_term_apply", "lattice_fock.term_apply"),
    ("virasoro_affine", None, "sugawara_mode",
     "virasoro_affine.sugawara_mode"),
    ("virasoro_affine", "FModule", "apply_sym", "virasoro_affine.apply_sym"),
    ("virasoro_affine", None, "singular_vectors",
     "virasoro_affine.singular_vectors"),
    ("characters", None, "singular_vectors",
     "virasoro_affine.singular_vectors"),
    ("virasoro_affine", None, "nullspace", "linalg.nullspace"),
    ("linalg", None, "nullspace", "linalg.nullspace"),
    ("linalg", None, "invert", "linalg.invert"),
    ("finite_lie_data", None, "invert", "linalg.invert"),
    ("finite_lie_data", "ReductiveF", "quadratic_pairs",
     "finite_lie_data.quadratic_pairs"),
    ("characters", None, "enumerate_weight_spaces", "characters"),
    ("characters", None, "product_formula_char", "characters"),
]


def _nullspace_size(rows, ncols):
    """Cells and nonzero entries of the matrix handed to linalg.nullspace."""
    return len(rows) * ncols, sum(len(r) if isinstance(r, dict)
                                  else sum(1 for x in r if x) for r in rows)


class Tracer:
    """Records spans for every call to the wrapped entry points."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._open = [-1]
        self._restore = []
        self.apply_sym_lookups = 0
        self.nullspace_cells = 0
        self.nullspace_nonzeros = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = None

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, original, name):
        nid = self._name_id(name)
        clock = time.perf_counter
        names, starts = self.span_name, self.span_start
        ends, parents, stack = self.span_end, self.span_parent, self._open
        before = None
        if name == "linalg.nullspace":
            def before(args):
                cells, nonzeros = _nullspace_size(*args[:2])
                self.nullspace_cells += cells
                self.nullspace_nonzeros += nonzeros
        elif name == "virasoro_affine.apply_sym":
            def before(args):
                # central symbols return before the memo table is consulted
                if args[1][0] != "C":
                    self.apply_sym_lookups += 1

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = original
        return wrapper

    def install(self, package):
        """Wrap every entry point of the imported ``package`` (torvoa)."""
        for modname, owner_name, attr, name in ENTRY_POINTS:
            module = getattr(package, modname)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._restore.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def summary(self):
        """Per name: calls and self seconds, computed from the spans."""
        n = len(self.span_start)
        self_s = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                self_s[p] -= self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            total[nid] += self_s[i]
        return {name: {"calls": calls[k], "self_s": total[k]}
                for k, name in enumerate(self.names)}

    def write(self, path):
        """Spans as JSON: the name table and one [name, start, end, parent]
        row per span, times relative to the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names) + ', "spans": [')
            for i in range(len(self.span_start)):
                fh.write("%s[%d,%.7f,%.7f,%d]" % (
                    "," if i else "", self.span_name[i],
                    self.span_start[i] - t0, self.span_end[i] - t0,
                    self.span_parent[i]))
            fh.write("]}\n")


def memo_entries(modules):
    """Entries in the four memo tables reachable from realization modules
    (the module, its vacuum companion, their induced modules and lattices)."""
    seen = {id(m): m for mod in modules
            for m in (mod, mod._vacuum_companion) if m is not None}.values()
    lattices = {id(m.lat): m.lat for m in seen}.values()
    return {
        "toroidal_realization": sum(len(m._term_cache) for m in seen),
        "virasoro_affine": sum(len(m.fmod._cache) for m in seen),
        "lattice_fock": sum(len(lat._exp_cache) + len(lat._field_cache)
                            for lat in lattices),
    }
