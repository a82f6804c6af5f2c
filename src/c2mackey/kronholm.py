"""Representation-cell chain complexes and the freeness pipeline.

A representation cell (m, q) with 0 <= q <= m stands for the complex
Sigma^m H(q): F's in degrees m down to m-q+1 and an H in degree m-q.  A
build script attaches cells one at a time, in nondecreasing topological
dimension (ties by weight), each along a chain map from Sigma^{m-1}H(q)
into the running complex; a cell with a null attachment is adjoined as a
direct summand.  An attaching map is *spacelike* when the cone it builds
splits without B-type strands.

``kronholm_split`` runs a script, re-splits after every attachment, and
checks the freeness conclusions as it goes: every summand is again a
cell Sigma^k H(r) with 0 <= r <= k, dimension multiset and total weight
are conserved, and each attachment of an (m, q) cell only produces
dimension-m cells of weight <= q.  The final report pairs input and
output cells dimension by dimension (sorted by weight) to expose the
weight shifts.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from . import _schema as schema
from .complexes import (ChainMap, FreeComplex, _HomComplex,
                        arrows_from_json, arrows_to_json, cone,
                        validate_chain_map)
from .split import DISK_KINDS, Decomposition, Strand, split, strand_complex

log = logging.getLogger("c2mackey.kronholm")


class ScriptError(ValueError):
    """A build script is malformed or degenerate: bad cell order, invalid
    attaching data, a non-spacelike attachment, or an attachment that
    annihilates existing cells."""


@dataclass(frozen=True, order=True)
class RepCell:
    m: int    # topological dimension
    q: int    # weight

    def check(self) -> None:
        if not 0 <= self.q <= self.m:
            raise ScriptError(f"cell ({self.m}, {self.q}) violates "
                              f"0 <= weight <= dimension")

    def to_json(self) -> dict:
        return {"m": self.m, "q": self.q}

    @classmethod
    def from_json(cls, data: dict) -> "RepCell":
        data = schema.obj(data, "a cell")
        return cls(schema.integer(data, "m"), schema.integer(data, "q"))


# attach data: components of the attaching map keyed by source degree,
# entries as arrow names ("0", "1", "t", "1+t", "p") against the
# canonical bases of Sigma^{m-1}H(q) and the running complex
AttachData = dict[int, list[list[str]]]


@dataclass
class RepBuildScript:
    cells: list[tuple[RepCell, AttachData | None]]

    def to_json(self) -> dict:
        return {"cells": [
            {**cell.to_json(), "attach": None if attach is None else
             {str(d): [list(row) for row in mat] for d, mat in attach.items()}}
            for cell, attach in self.cells]}

    @classmethod
    def from_json(cls, data: dict) -> "RepBuildScript":
        data = schema.obj(data, "a build script")
        cells = []
        for entry in schema.items(data.get("cells"), dict, "cells"):
            cell, raw = RepCell.from_json(entry), entry.get("attach")
            cells.append((cell, None if raw is None else {
                d: schema.rows_of(mat, str, f"attach at degree {d}")
                for d, mat in schema.degree_keyed(raw, "attach").items()}))
        return cls(cells)


# the first cell attaches to the zero complex by the zero map, whose
# cofiber is the cell itself
_ZERO = FreeComplex(0, [[]], [])


def attach_source(cell: RepCell) -> FreeComplex:
    return strand_complex(Strand("Hn", cell.q, cell.m - 1))


def attach_map(y: FreeComplex, cell: RepCell,
               attach: AttachData | None) -> ChainMap:
    """The attaching map of a cell against the running complex (zero map
    for a null attachment), validated."""
    src = attach_source(cell)
    try:
        comps = {d: arrows_from_json(mat, src.gens_at(d), y.gens_at(d),
                                     f"attach component at degree {d}")
                 for d, mat in (attach or {}).items()}
    except ValueError as exc:
        raise ScriptError(str(exc)) from exc
    f = ChainMap(src, y, comps, 0)
    errs = validate_chain_map(f)
    if errs:
        raise ScriptError("invalid attaching map: " + "; ".join(errs))
    return f


def is_spacelike(f: ChainMap) -> bool:
    """Whether the cofiber of f splits without B-type strands."""
    errs = validate_chain_map(f)
    if errs:
        raise ValueError("invalid chain map: " + "; ".join(errs))
    return _verdict(f)[3] is None


def _verdict(f: ChainMap, cells: list[RepCell] | None = None):
    """Cone an attaching map once, split the cofiber once, and check in
    order: no B strand; then, against ``cells`` (every cell attached so
    far, the new one last), every summand is a cell Sigma^k H(r) with
    0 <= r <= k and the dimension multiset and the total weight are
    conserved.  Without ``cells`` only the first check runs.  Returns
    (cofiber, decomposition, output cells, failure), where failure is
    None or the error that rejects the attachment."""
    y = cone(f)
    dec = split(y, validate=False)
    where = (f"cell {len(cells) - 1} = ({cells[-1].m}, {cells[-1].q}): "
             if cells else "")
    if any(s.kind == "B" for s in dec.strands):
        return y, dec, [], ScriptError(where + "attaching map is not "
                                       "spacelike")
    if not cells:
        return y, dec, [], None
    out = []
    for s in dec.strands:
        if s.kind in DISK_KINDS:
            continue
        if s.kind != "Hn" or not 0 <= s.param <= s.shift:
            return y, dec, [], RuntimeError(
                "freeness failed: decomposition contains a non-cell "
                f"summand {s} (full list: {dec.strands})")
        out.append(RepCell(s.shift, s.param))
    if Counter(c.m for c in out) != Counter(c.m for c in cells):
        return y, dec, out, ScriptError(
            where + "attachment annihilates existing cells (dimension "
            "multiset not conserved)")
    if sum(c.q for c in out) != sum(c.q for c in cells):
        return y, dec, out, ScriptError(where + "total weight not conserved")
    return y, dec, out, None


@dataclass
class ShiftReport:
    input_cells: list[RepCell]
    output_cells: list[RepCell]
    # per dimension: [(q_in, q_out)] paired by sorted weight
    deltas: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def total_weight_in(self) -> int:
        return sum(c.q for c in self.input_cells)

    @property
    def total_weight_out(self) -> int:
        return sum(c.q for c in self.output_cells)

    def to_json(self) -> dict:
        return {
            "input_cells": [c.to_json() for c in self.input_cells],
            "output_cells": [c.to_json() for c in self.output_cells],
            "deltas": {str(m): [[qi, qo, qo - qi] for qi, qo in pairs]
                       for m, pairs in sorted(self.deltas.items())},
            "total_weight": self.total_weight_in,
        }


def _make_report(inp: list[RepCell], outp: list[RepCell]) -> ShiftReport:
    by_dim_in: dict[int, list[int]] = defaultdict(list)
    by_dim_out: dict[int, list[int]] = defaultdict(list)
    for c in inp:
        by_dim_in[c.m].append(c.q)
    for c in outp:
        by_dim_out[c.m].append(c.q)
    deltas = {}
    for m in sorted(by_dim_in):
        deltas[m] = list(zip(sorted(by_dim_in[m]), sorted(by_dim_out[m])))
    return ShiftReport(sorted(inp), sorted(outp), deltas)


def kronholm_split(script: RepBuildScript) -> tuple[Decomposition, ShiftReport]:
    """Run a build script: attach cells in order, re-split after every
    step, enforce spacelikeness, conservation, and the weight bound, and
    return the final decomposition with the weight-shift report."""
    if not script.cells:
        raise ScriptError("empty script")
    order = [cell for cell, _ in script.cells]
    if order != sorted(order):
        raise ScriptError("cells must be attached in nondecreasing "
                          "(dimension, weight) order")
    y = _ZERO
    seen: list[RepCell] = []
    for idx, (cell, attach) in enumerate(script.cells):
        cell.check()
        if not seen and attach:
            raise ScriptError("the first cell has nothing to attach to")
        seen.append(cell)
        y, dec, out_cells, failure = _verdict(attach_map(y, cell, attach),
                                              seen)
        if failure is not None:
            raise failure
        log.debug("cell %d = (%d, %d): %d live summands", idx, cell.m,
                  cell.q, len(out_cells))
        for oc in out_cells:
            if oc.m == cell.m and oc.q > cell.q:
                raise RuntimeError(
                    f"weight bound failed after cell {idx}: output cell "
                    f"({oc.m}, {oc.q}) exceeds attached weight {cell.q} "
                    f"(full list: {out_cells})")
    return dec, _make_report(seen, out_cells)


# -- fuzzing -------------------------------------------------------------------

def random_spacelike_script(rng, max_cells: int = 8,
                            max_dim: int = 5) -> RepBuildScript:
    """A random sorted script whose attachments are random spacelike,
    non-annihilating mapping-complex cocycles (null when none is found)."""
    n = rng.randint(1, max_cells)
    cells = sorted(RepCell(m, rng.randint(0, m))
                   for m in (rng.randint(0, max_dim) for _ in range(n)))
    script: list[tuple[RepCell, AttachData | None]] = []
    y = _ZERO
    seen: list[RepCell] = []
    for cell in cells:
        attach: AttachData | None = None
        if seen and rng.random() < 0.7:
            src = attach_source(cell)
            hom = _HomComplex(src, y)
            kern = hom.delta(0).kernel_basis()
            for _ in range(6):
                if not kern.ncols:
                    break
                vec = kern.mul_vec([int(rng.random() < 0.5)
                                    for _ in range(kern.ncols)])
                if not any(vec):
                    continue
                f = hom.chain_map(0, vec)
                cofiber, _, _, failure = _verdict(f, seen + [cell])
                if failure is not None:
                    continue
                attach = {d: arrows_to_json(mat, src.gens_at(d), y.gens_at(d))
                          for d, mat in f.components.items()
                          if src.gens_at(d) and y.gens_at(d)}
                break
        script.append((cell, attach))
        seen.append(cell)
        # an accepted map's cofiber is the cone _verdict built
        y = cofiber if attach else cone(attach_map(y, cell, None))
    return RepBuildScript(script)
