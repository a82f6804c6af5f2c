"""Spans around the calls into each layer of ``c2mackey``, for traced runs.

The library is not instrumented.  ``Tracer.install`` wraps each public
function named in ``TARGETS`` and rebinds the wrapper under every name that
held the original in a ``c2mackey`` module namespace (the modules import
each other with ``from .x import y``, so every importer holds its own
binding).  ``FMatrix`` methods are wrapped on the class; ``FMatrix.get``
and ``FMatrix.set`` are left alone because they are per-entry accessors
whose wrapping would cost more than the work.  ``uninstall`` puts every
original back, so untraced passes run the library exactly as shipped.

Each span records its name, start, end, parent span and op id in parallel
arrays, which stay in memory until ``summary`` reduces them when a traced
pass ends.  Self time is a span's duration minus its children's: the
program is single-threaded, so children nest and never overlap.  Counts
that only a boundary can see (moves returned, rref cells, lattice
points, cells per script, certificate lengths) are recorded by hooks at
the same wrappers.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# span name -> "module.attribute" under c2mackey; "gf2core.FMatrix.x" is a
# method wrapped on the class
TARGETS = {
    "gf2core.rref": "gf2core.FMatrix.rref",
    "gf2core.mul": "gf2core.FMatrix.mul",
    "gf2core.kernel_basis": "gf2core.FMatrix.kernel_basis",
    "gf2core.solve_many": "gf2core.FMatrix.solve_many",
    "gf2core.from_rows": "gf2core.FMatrix.from_rows",
    "gf2core.hstack": "gf2core.FMatrix.hstack",
    "gf2core.vstack": "gf2core.FMatrix.vstack",
    "gf2core.submatrix": "gf2core.FMatrix.submatrix",
    "gf2core.transpose": "gf2core.FMatrix.transpose",
    "gf2core.kron": "gf2core.FMatrix.kron",
    "mackey.classify": "mackey.classify",
    "mackey.box": "mackey.box",
    "mackey.internal_hom": "mackey.internal_hom",
    "mackey.validate_module": "mackey.validate_module",
    "complexes.realize": "complexes.realize",
    "complexes.homology_counts": "complexes.homology_counts",
    "complexes.validate_complex": "complexes.validate_complex",
    "complexes.box_complex": "complexes.box_complex",
    "complexes.cotens_H": "complexes.cotens_H",
    "complexes.hom_delta": "complexes.hom_delta",
    "complexes.cone": "complexes.cone",
    "complexes.validate_chain_map": "complexes.validate_chain_map",
    "split.split": "split.split",
    "split.apply_move": "split.apply_move",
    "split.random_legal_moves": "split.random_legal_moves",
    "split.verify_certificate": "split.verify_certificate",
    "split.certificate_isos": "split.certificate_isos",
    "split.split_odd_mackey": "split.split_odd_mackey",
    "derived.cohomology_window": "derived.cohomology_window",
    "kronholm.kronholm_split": "kronholm.kronholm_split",
    "cli.main": "cli.main",
}

OP = "op"          # root span of one benchmark operation


def _rref_name(args) -> str:
    return "gf2core.rref" if args[0].ell == 2 else "gf2core.rref_odd"


def _hook_rref(counts, args, result):
    m = args[0]
    if m.ell == 2:
        counts["gf2core.rref.cells"] += m.nrows * m.ncols


def _hook_split(counts, args, result):
    counts["split.certificate_moves"] += len(result.certificate)


def _hook_moves(counts, args, result):
    counts["split.random_legal_moves.requested"] += args[2]
    counts["split.random_legal_moves.moves"] += len(result)


def _hook_window(counts, args, result):
    _, p0, p1, q0, q1 = args
    counts["derived.cohomology_window.lattice_points"] += \
        (p1 - p0 + 1) * (q1 - q0 + 1)


def _hook_script(counts, args, result):
    counts["kronholm.cells"] += len(args[0].cells)


HOOKS = {
    "gf2core.rref": _hook_rref,
    "split.split": _hook_split,
    "split.random_legal_moves": _hook_moves,
    "derived.cohomology_window": _hook_window,
    "kronholm.kronholm_split": _hook_script,
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.op_id = -1
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans and counts."""
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as operation ``op_id`` under a root span."""
        self.op_id = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if name == "gf2core.rref":
            ids = {n: self._id(n) for n in ("gf2core.rref", "gf2core.rref_odd")}

            def pick(args):
                return ids[_rref_name(args)]
        else:
            nid = self._id(name)

            def pick(args):
                return nid

        def wrapper(*args, **kwargs):
            idx = self._open(pick(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "c2mackey" or name.startswith("c2mackey.")}
        originals = {}
        for span, path in TARGETS.items():
            modname, _, attr = path.partition(".")
            mod = mods["c2mackey." + modname]
            if attr.startswith("FMatrix."):
                cls = mod.FMatrix
                meth = attr.split(".", 1)[1]
                raw = cls.__dict__[meth]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                setattr(cls, meth, wrapped)
                self._installed.append((cls, meth, raw))
            else:
                fn = getattr(mod, attr)
                originals[id(fn)] = self._wrap(span, fn)
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None and wrapper.__wrapped__ is val:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, val))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    # -- reduction ------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], Counter]:
        """(self seconds per span name, calls per span name) for the spans
        recorded since the last ``clear``, plus derived nesting counts:
        ``realize_in_homology`` and ``split_in_kronholm``."""
        n = len(self.start)
        names, parents = self.name, self.parent
        child = [0.0] * n
        dur = [0.0] * n
        for i in range(n):
            d = self.end[i] - self.start[i]
            dur[i] = d
            p = parents[i]
            if p >= 0:
                child[p] += d
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        hc = self._ids.get("complexes.homology_counts", -2)
        ks = self._ids.get("kronholm.kronholm_split", -2)
        realize = self._ids.get("complexes.realize", -2)
        split = self._ids.get("split.split", -2)
        in_hc = [False] * n
        in_ks = [False] * n
        for i in range(n):
            nm = self.names[names[i]]
            self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
            calls[nm] += 1
            p = parents[i]
            if p >= 0:
                in_hc[i] = in_hc[p] or names[p] == hc
                in_ks[i] = in_ks[p] or names[p] == ks
            if names[i] == realize and in_hc[i]:
                calls["realize_in_homology"] += 1
            if names[i] == split and in_ks[i]:
                calls["split_in_kronholm"] += 1
        return self_s, calls
