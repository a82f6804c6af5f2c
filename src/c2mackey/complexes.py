"""Bounded complexes of free Mackey modules over GF(2), symbol-level.

A ``FreeComplex`` stores, per homological degree, a list of generator
kinds ("F" = free orbit generator, "H" = fixed generator) and, between
adjacent degrees, a matrix of *arrow codes*.  The possible arrows are

    F -> F : 0, 1, t, 1+t     (codes 0..3, bit 0 = coeff of 1, bit 1 = t)
    F -> H : 0, p             (codes 0, 1)
    H -> F : 0, p             (codes 0, 1)
    H -> H : 0, 1             (codes 0, 1)

which are exactly the maps that exist between the two free module types.
An arrow is its free-orbit block (``theta_block``), a GF(2) matrix that
no other arrow between the same kinds shares, and every other arrow
table is read off the blocks: a composite is the arrow whose block is
the product of the blocks, a box product's arrows come from their
Kronecker product, and the fixed level of ``realize`` from the block's
first row.  So an arrow matrix is its free-orbit level: ``orbit_matrix``
writes it as one GF(2) matrix over the free-orbit coordinates, and
``arrow_matrix`` reads it back.  Differentials decrease degree.
``realize`` expands a symbol complex into honest Mackey modules and maps
over GF(l) (the arrow alphabet is the l = 2 one, but every arrow has a
canonical lift mod l, which is what the odd-modulus splitter consumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate, product

from . import _schema as schema
from .gf2core import FMatrix
from .mackey import (MackeyMap, MackeyModule, counts_of_ranks, direct_sum,
                     indecomposable, zero_module)

U = 3  # the arrow 1 + t

# the arrow names between two kinds, indexed by arrow code
_ARROW_NAMES = {("F", "F"): ("0", "1", "t", "1+t"), ("F", "H"): ("0", "p"),
                ("H", "F"): ("0", "p"), ("H", "H"): ("0", "1")}


def entry_name(ka: str, kb: str, e: int) -> str:
    return _ARROW_NAMES[ka, kb][e]


def entry_code(ka: str, kb: str, name: str) -> int:
    names = _ARROW_NAMES[ka, kb]
    if name not in names:
        raise ValueError(f"arrow {name!r} is not one of {', '.join(names)} "
                         f"for {ka}->{kb}")
    return names.index(name)


def entry_ok(ka: str, kb: str, e: int) -> bool:
    return isinstance(e, int) and 0 <= e < len(_ARROW_NAMES[ka, kb])


def theta_block(ka: str, kb: str, e: int, ell: int = 2) -> FMatrix:
    """The free-orbit-level matrix of an arrow, over GF(l)."""
    if ka == "F" and kb == "F":
        a, b = e & 1, e >> 1
        return FMatrix.from_rows([[a, b], [b, a]], ell)
    if ka == "F":       # F -> H
        return FMatrix.from_rows([[e, e]], ell)
    if kb == "F":       # H -> F
        return FMatrix.from_rows([[e], [e]], ell)
    return FMatrix.from_rows([[e]], ell)


def orbit_starts(kinds: list[str]) -> list[int]:
    """The first free-orbit coordinate of each generator of a sum of
    ``kinds`` (two for an F, one for an H), then the number of
    coordinates."""
    out = [0]
    for k in kinds:
        out.append(out[-1] + (2 if k == "F" else 1))
    return out


def arrow_matrix(theta: FMatrix, src_kinds: list[str],
                 tgt_kinds: list[str]) -> list[list[int]]:
    """The arrow matrix whose free-orbit level over GF(2) is ``theta``,
    which must be C2-equivariant, as ``orbit_matrix`` and every basis
    move keep it.  Each arrow is read off the first row of its block, at
    its source's first coordinate (``orbit_starts``): from an F to an F
    the two bits there are the coefficients of 1 and t, and every other
    block's first row is zero or all ones."""
    sstarts = orbit_starts(src_kinds)
    # the (shift, mask) of each source's arrow into an F, and into an H
    to_f = ([(j, 3 if k == "F" else 1) for j, k in zip(sstarts, src_kinds)]
            if "F" in tgt_kinds else None)
    to_h = [(j, 1) for j in sstarts[:-1]] if "H" in tgt_kinds else None
    out, start = [], 0
    for kt in tgt_kinds:
        if kt == "F":
            out.append(theta.row_fields(start, to_f))
            start += 2
        else:
            out.append(theta.row_fields(start, to_h))
            start += 1
    return out


# (ka, kb, kc, e_ab, e_bc) -> the arrow whose block is the product of the
# blocks of e_bc and e_ab
_COMPOSITES = {
    (ka, kb, kc, e1, e2): arrow_matrix(
        theta_block(kb, kc, e2).mul(theta_block(ka, kb, e1)), [ka], [kc])[0][0]
    for ka, kb, kc in product("FH", repeat=3)
    for e1 in range(len(_ARROW_NAMES[ka, kb]))
    for e2 in range(len(_ARROW_NAMES[kb, kc]))}


def ecompose(ka: str, kb: str, kc: str, e_ab: int, e_bc: int) -> int:
    """Arrow code of (b->c) composed after (a->b)."""
    return _COMPOSITES[ka, kb, kc, e_ab, e_bc]


def zero_matrix(nrows: int, ncols: int) -> list[list[int]]:
    return [[0] * ncols for _ in range(nrows)]


def _placed_arrows(nrows: int, ncols: int, blocks) -> list[list[int]]:
    """The nrows x ncols arrow matrix that holds each arrow matrix of
    ``blocks``, an iterable of (i0, j0, block) triples, with its top left
    corner at (i0, j0), and zero arrows elsewhere."""
    out = zero_matrix(nrows, ncols)
    for i0, j0, b in blocks:
        for i, row in enumerate(b, i0):
            out[i][j0:j0 + len(row)] = row
    return out


@dataclass
class FreeComplex:
    """A bounded complex of sums of F's and H's.

    ``gens[i]`` lists the generator kinds in degree ``min_degree + i``;
    ``diffs[i]`` is the arrow matrix of d : degree min+i+1 -> min+i with
    rows indexed by targets and columns by sources.
    """

    min_degree: int
    gens: list[list[str]]
    diffs: list[list[list[int]]] = field(default_factory=list)

    # -- shape helpers --------------------------------------------------

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.gens) - 1

    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def gens_at(self, d: int) -> list[str]:
        i = d - self.min_degree
        return self.gens[i] if 0 <= i < len(self.gens) else []

    def diff(self, d: int) -> list[list[int]]:
        """Matrix of d : degree d -> d - 1; outside the stored range (out of
        the bottom degree, into the top, or further out) the zero matrix of
        shape len(gens_at(d - 1)) x len(gens_at(d)), never None."""
        i = d - self.min_degree - 1
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return zero_matrix(len(self.gens_at(d - 1)), len(self.gens_at(d)))

    def num_gens(self) -> int:
        return sum(len(g) for g in self.gens)

    def is_zero(self) -> bool:
        return self.num_gens() == 0

    def copy(self) -> "FreeComplex":
        return FreeComplex(self.min_degree,
                           [list(g) for g in self.gens],
                           [[row[:] for row in m] for m in self.diffs])

    def __eq__(self, other):
        if not isinstance(other, FreeComplex):
            return NotImplemented
        a, b = _trimmed(self), _trimmed(other)
        return (a.min_degree == b.min_degree and a.gens == b.gens
                and a.diffs == b.diffs)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"ell": 2, "min_degree": self.min_degree,
                "generators": [list(g) for g in self.gens],
                "differentials": [arrows_to_json(m, self.gens[i + 1],
                                                 self.gens[i])
                                  for i, m in enumerate(self.diffs)]}

    @classmethod
    def from_json(cls, data: dict) -> "FreeComplex":
        data = schema.obj(data, "a complex")
        min_degree = schema.integer(data, "min_degree")
        if schema.integer(data, "ell", 2) != 2:
            raise ValueError("symbol complexes are stored over l = 2")
        gens = [[schema.name(k, ("F", "H"), "generator kind") for k in g]
                for g in schema.rows_of(data.get("generators"), str,
                                     "generators")]
        raw = schema.items(data.get("differentials", []), list,
                           "differentials")
        if len(raw) != max(len(gens) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair "
                             "of degrees")
        return cls(min_degree, gens,
                   [arrows_from_json(m, gens[i + 1], gens[i],
                                     f"differential {i}")
                    for i, m in enumerate(raw)])


def arrows_to_json(m: list[list[int]], sk: list[str],
                   tk: list[str]) -> list[list[str]]:
    """Arrow names of the arrow-code matrix ``m`` from generators of kinds
    ``sk`` (columns) to ``tk`` (rows)."""
    return [[entry_name(sk[c], tk[r], m[r][c]) for c in range(len(sk))]
            for r in range(len(tk))]


def arrows_from_json(names, sk: list[str], tk: list[str],
                     what: str) -> list[list[int]]:
    """Inverse of ``arrows_to_json``; raises ValueError for anything but a
    ``len(tk) x len(sk)`` list of rows of legal arrow names."""
    schema.rows_of(names, str, what)
    if len(names) != len(tk) or any(len(row) != len(sk) for row in names):
        raise ValueError(f"{what} must be {len(tk)} x {len(sk)}")
    try:
        return [[entry_code(sk[c], tk[r], names[r][c])
                 for c in range(len(sk))] for r in range(len(tk))]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _trimmed(c: FreeComplex) -> FreeComplex:
    gens = [list(g) for g in c.gens]
    diffs = [[row[:] for row in m] for m in c.diffs]
    lo = 0
    while len(gens) > 1 and not gens[0]:
        gens.pop(0)
        diffs.pop(0)
        lo += 1
    while len(gens) > 1 and not gens[-1]:
        gens.pop()
        diffs.pop()
    return FreeComplex(c.min_degree + lo, gens, diffs)


def arrow_mul(later: list[list[int]], earlier: list[list[int]],
              src_kinds: list[str], mid_kinds: list[str],
              tgt_kinds: list[str]) -> list[list[int]]:
    """The arrow matrix of ``later`` after ``earlier``, where ``earlier``
    goes from generators of kinds ``src_kinds`` to ``mid_kinds`` and
    ``later`` from ``mid_kinds`` to ``tgt_kinds``.  Only pairs of nonzero
    arrows are composed."""
    out = zero_matrix(len(tgt_kinds), len(src_kinds))
    # into[q]: the nonzero arrows (source, arrow) of earlier into q
    into = [[(s, e) for s, e in enumerate(row) if e] for row in earlier]
    for kt, row, acc in zip(tgt_kinds, later, out):
        for q, e2 in enumerate(row):
            if e2:
                kq = mid_kinds[q]
                for s, e1 in into[q]:
                    acc[s] ^= ecompose(src_kinds[s], kq, kt, e1, e2)
    return out


def _require_complexes(*cs: FreeComplex) -> None:
    """Raise ValueError naming the first violation of the first of ``cs``
    that ``validate_complex`` refuses, checking a repeated complex once."""
    for k, c in enumerate(cs):
        bad = [] if any(c is b for b in cs[:k]) else validate_complex(c)
        if bad:
            raise ValueError(f"not a valid complex: {bad[0]}")


def validate_complex(c: FreeComplex) -> list[str]:
    """An integer min_degree, arrow legality, matrix shapes, and d*d = 0;
    returns violations."""
    if type(c.min_degree) is not int:
        return [f"min_degree must be an integer, not {c.min_degree!r}"]
    out = []
    if len(c.diffs) != max(len(c.gens) - 1, 0):
        return ["number of differentials does not match number of degrees"]
    for g in c.gens:
        for k in g:
            if k not in ("F", "H"):
                return [f"unknown generator kind {k!r}"]
    theta = []      # the free-orbit level of each differential
    for i, m in enumerate(c.diffs):
        tk, sk = c.gens[i], c.gens[i + 1]
        if len(m) != len(tk) or any(len(row) != len(sk) for row in m):
            out.append(f"differential into degree {c.min_degree + i} has the "
                       f"wrong shape")
            continue
        bad = [illegal_arrow(ks, kt, e, c.min_degree + i)
               for kt, row in zip(tk, m) for ks, e in zip(sk, row)
               if (e or type(e) is not int) and not entry_ok(ks, kt, e)]
        if bad:
            out += bad
        elif not out:
            theta.append(orbit_matrix(m, sk, tk))
    if out:
        return out
    # d*d = 0 exactly when the product of the free-orbit levels is zero
    for i in range(len(c.diffs) - 1):
        dd = theta[i].mul(theta[i + 1])
        if dd.is_zero():
            continue
        dd = arrow_matrix(dd, c.gens[i + 2], c.gens[i])
        out += [f"d*d != 0 from degree {c.min_degree + i + 2} generator {s} "
                f"to degree {c.min_degree + i} generator {r}"
                for r, row in enumerate(dd) for s, v in enumerate(row) if v]
    return out


# -- canonical construction helpers -------------------------------------

def _canonical_perm(kinds: list[str]) -> list[int]:
    """Stable F-before-H permutation: perm[new_slot] = old_slot."""
    return ([i for i, k in enumerate(kinds) if k == "F"]
            + [i for i, k in enumerate(kinds) if k == "H"])


def _canonicalize(c: FreeComplex) -> FreeComplex:
    c = _trimmed(c)
    perms = [_canonical_perm(g) for g in c.gens]
    gens = [[g[p] for p in perm] for g, perm in zip(c.gens, perms)]
    diffs = []
    for i, m in enumerate(c.diffs):
        tp, sp = perms[i], perms[i + 1]
        diffs.append([[m[tr][sc] for sc in sp] for tr in tp])
    return FreeComplex(c.min_degree, gens, diffs)


# the generator kinds of each strand and disk, top first, for a param
# that ``strand_param_ok`` accepts
STRAND_SHAPES = {
    "A": lambda k: "F" * (k + 1),
    "Hn": lambda n: "F" * n + "H" if n >= 0 else "H" + "F" * -n,
    "B": lambda r: "H" + "F" * (r + 1) + "H",
    "DiskF": lambda _: "FF",
    "DiskH": lambda _: "HH",
}


def strand_param_ok(kind: str, param: int) -> bool:
    """Whether a strand of ``kind`` takes ``param``: A and B a length
    >= 0, Hn a weight of either sign, the points and disks only 0."""
    if kind in ("A", "B"):
        return param >= 0
    return kind == "Hn" or param == 0


def check_strand_param(kind: str, param: int) -> None:
    """Raise ValueError unless a strand of ``kind`` takes ``param``."""
    if not strand_param_ok(kind, param):
        need = ">= 0" if kind in ("A", "B") else "0"
        raise ValueError(f"a {kind} strand needs param {need}, not {param}")


def strand_edge(ka: str, kb: str, disk: bool) -> int:
    """The arrow between adjacent generators of a canonical strand."""
    return U if ka == kb == "F" and not disk else 1


def strand_top(seq: str, disk: bool) -> int:
    """The top degree of the canonical strand with generator kinds ``seq``
    (top first): a strand ending in an H has its top in degree 0, a disk
    or any other strand has its bottom there."""
    return 0 if seq[-1] == "H" and not disk else len(seq) - 1


def strand(kind: str, param: int = 0) -> FreeComplex:
    """The fundamental strands and disks in their canonical positions."""
    shape = STRAND_SHAPES.get(kind)
    if shape is None:
        raise ValueError(f"unknown strand kind {kind!r}")
    check_strand_param(kind, param)
    seq, disk = shape(param), kind.startswith("Disk")
    up = seq[::-1]
    return FreeComplex(strand_top(seq, disk) - (len(seq) - 1),
                       [[k] for k in up],
                       [[[strand_edge(a, b, disk)]] for a, b in zip(up, up[1:])])


def shift_complex(c: FreeComplex, s: int) -> FreeComplex:
    out = c.copy()
    out.min_degree += s
    return out


def direct_sum_complexes(parts: list[FreeComplex]) -> FreeComplex:
    """The direct sum of ``parts`` in canonical order: in each degree the
    F generators of the parts, part by part, then their H generators,
    between the lowest and the highest degree that holds a generator."""
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        return FreeComplex(0, [[]], [])
    lo = min(p.min_degree + next(i for i, k in enumerate(p.gens) if k)
             for p in parts)
    hi = max(p.max_degree - next(i for i, k in enumerate(p.gens[::-1]) if k)
             for p in parts)
    nf = [0] * (hi - lo + 1)
    for p in parts:
        for li, kinds in enumerate(p.gens, p.min_degree - lo):
            if kinds:
                nf[li] += kinds.count("F")
    # each part's generators, per degree, at their places in the sum
    fnext, hnext, places = [0] * len(nf), nf[:], []
    for p in parts:
        at = []
        for li, kinds in enumerate(p.gens, p.min_degree - lo):
            row = []
            for k in kinds:
                if k == "F":
                    row.append(fnext[li])
                    fnext[li] += 1
                else:
                    row.append(hnext[li])
                    hnext[li] += 1
            at.append(row)
        places.append(at)
    gens = [["F"] * f + ["H"] * (n - f) for f, n in zip(nf, hnext)]
    diffs = [zero_matrix(len(tk), len(sk)) for tk, sk in zip(gens, gens[1:])]
    for p, at in zip(parts, places):
        off = p.min_degree - lo
        for i, m in enumerate(p.diffs):
            if not 0 <= i + off < len(diffs):
                continue        # into or out of a degree with no generator
            out = diffs[i + off]
            for r, row in zip(at[i], m):
                dst = out[r]
                for s, e in zip(at[i + 1], row):
                    if e:
                        dst[s] = e
    return FreeComplex(lo, gens, diffs)


# -- chain maps ----------------------------------------------------------

@dataclass
class ChainMap:
    """A degree-n map of symbol complexes; components keyed by source degree.

    ``components[d]`` is an arrow matrix from the source generators in
    degree d to the target generators in degree d + degree.
    """

    source: FreeComplex
    target: FreeComplex
    components: dict[int, list[list[int]]]
    degree: int = 0

    def component(self, d: int) -> list[list[int]]:
        m = self.components.get(d)
        if m is not None:
            return m
        return zero_matrix(len(self.target.gens_at(d + self.degree)),
                           len(self.source.gens_at(d)))

    def to_json(self) -> dict:
        return {"source": self.source.to_json(),
                "target": self.target.to_json(),
                "degree": self.degree,
                "components": {
                    str(d): arrows_to_json(self.components[d],
                                           self.source.gens_at(d),
                                           self.target.gens_at(d + self.degree))
                    for d in sorted(self.components)}}

    @classmethod
    def from_json(cls, data: dict) -> "ChainMap":
        data = schema.obj(data, "a chain map")
        deg = schema.integer(data, "degree", 0)
        src = FreeComplex.from_json(data.get("source"))
        tgt = FreeComplex.from_json(data.get("target"))
        comps = {d: arrows_from_json(m, src.gens_at(d), tgt.gens_at(d + deg),
                                     f"component at degree {d}")
                 for d, m in schema.degree_keyed(data.get("components", {}),
                                                 "components").items()}
        return cls(src, tgt, comps, deg)


def validate_chain_map(f: ChainMap) -> list[str]:
    """Violations of f: first those of its source and target (one check
    when they are the same complex) and a degree that is not an integer,
    then component shapes and arrows, then d f = f d."""
    out = []
    for what, c in (("source", f.source), ("target", f.target)):
        if what == "source" or c is not f.source:
            out += [f"{what} is not a valid complex: {v}"
                    for v in validate_complex(c)]
    if type(f.degree) is not int:
        out.append(f"degree {f.degree!r} is not an integer")
    if out:
        return out
    for d, m in f.components.items():
        sk = f.source.gens_at(d)
        tk = f.target.gens_at(d + f.degree)
        if len(m) != len(tk) or any(len(row) != len(sk) for row in m):
            out.append(f"component at degree {d} has the wrong shape")
            continue
        for r in range(len(tk)):
            for c in range(len(sk)):
                if not entry_ok(sk[c], tk[r], m[r][c]):
                    out.append(f"illegal arrow in component at degree {d}")
    if out:
        return out
    lo = min(f.source.min_degree, f.target.min_degree - f.degree) - 1
    hi = max(f.source.max_degree, f.target.max_degree - f.degree) + 1
    for d in range(lo, hi + 1):
        # d_target . f_d vs f_{d-1} . d_source  (no signs over GF(2))
        sk, sk1 = f.source.gens_at(d), f.source.gens_at(d - 1)
        tk, tk1 = (f.target.gens_at(d + f.degree),
                   f.target.gens_at(d + f.degree - 1))
        if (arrow_mul(f.target.diff(d + f.degree), f.component(d), sk, tk, tk1)
                != arrow_mul(f.component(d - 1), f.source.diff(d), sk, sk1,
                             tk1)):
            out.append(f"does not commute with d at source degree {d}")
    return out


def identity_chain_map(c: FreeComplex) -> ChainMap:
    comps = {}
    for d in c.degrees():
        ks = c.gens_at(d)
        m = zero_matrix(len(ks), len(ks))
        for i in range(len(ks)):
            m[i][i] = 1
        comps[d] = m
    return ChainMap(c, c, comps, 0)


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f (degrees add)."""
    comps = {}
    for d in f.source.degrees():
        sk = f.source.gens_at(d)
        mk = f.target.gens_at(d + f.degree)
        tk = g.target.gens_at(d + f.degree + g.degree)
        if sk and tk:
            comps[d] = arrow_mul(g.component(d + f.degree), f.component(d),
                                 sk, mk, tk)
    return ChainMap(f.source, g.target, comps, f.degree + g.degree)


def cone(f: ChainMap) -> FreeComplex:
    """Mapping cone of a degree-0 chain map (generators reordered
    canonically: shifted-source generators first, then target, then the
    F-before-H normalization)."""
    if f.degree != 0:
        raise ValueError("cones are taken of degree-0 maps")
    X, Y = f.source, f.target
    lo = min(X.min_degree + 1, Y.min_degree)
    hi = max(X.max_degree + 1, Y.max_degree)
    gens = []
    for d in range(lo, hi + 1):
        gens.append(list(X.gens_at(d - 1)) + list(Y.gens_at(d)))
    diffs = []
    for d in range(lo + 1, hi + 1):
        nxs, nxt = len(X.gens_at(d - 1)), len(X.gens_at(d - 2))
        diffs.append(_placed_arrows(
            len(gens[d - lo - 1]), len(gens[d - lo]),
            [(0, 0, X.diff(d - 1)), (nxt, 0, f.component(d - 1)),
             (nxt, nxs, Y.diff(d))]))
    return _canonicalize(FreeComplex(lo, gens, diffs))


# -- realization and homology --------------------------------------------

def realize(c: FreeComplex, ell: int = 2) -> tuple[list[MackeyModule], list[MackeyMap]]:
    """Expand a symbol complex into Mackey modules and maps over GF(l); an
    arrow code that its slot does not have raises ValueError naming it."""
    mods = [realize_term(g, ell) for g in c.gens]
    maps = []
    for i, m in enumerate(c.diffs):
        try:
            maps.append(realize_map(c.gens[i + 1], c.gens[i], m, ell,
                                    mods[i + 1], mods[i]))
        except KeyError as exc:     # the block tables hold every legal arrow
            raise ValueError(illegal_arrow(*exc.args[0],
                                           c.min_degree + i)) from None
    return mods, maps


def _realize_with_ends(c: FreeComplex, ell: int):
    """``realize`` of ``c`` padded with an empty degree at both ends, less
    the two zero modules: ``maps[i]`` leaves ``mods[i]`` and ``maps[i + 1]``
    enters it, a zero map out of the bottom degree and into the top."""
    ends = range(c.min_degree, c.max_degree + 2)
    mods, maps = realize(FreeComplex(c.min_degree - 1, [[], *c.gens, []],
                                     [c.diff(d) for d in ends]), ell)
    return mods[1:-1], maps


def realize_term(kinds: list[str], ell: int = 2) -> MackeyModule:
    """The direct sum of the free modules F and H named by ``kinds``."""
    if not kinds:
        return zero_module(ell)
    summand = {k: indecomposable(k, ell) for k in set(kinds)}
    return direct_sum(*[summand[k] for k in kinds])


def realize_map(src_kinds: list[str], tgt_kinds: list[str],
                entries: list[list[int]], ell: int,
                src: MackeyModule | None = None,
                tgt: MackeyModule | None = None) -> MackeyMap:
    if src is None:
        src = realize_term(src_kinds, ell)
    if tgt is None:
        tgt = realize_term(tgt_kinds, ell)
    arrows = _nonzero_arrows(entries, src_kinds, tgt_kinds)
    blocks = _block_table(ell)
    sstarts, tstarts = orbit_starts(src_kinds), orbit_starts(tgt_kinds)
    return MackeyMap(
        src, tgt,
        FMatrix.placed(ell, tstarts[-1], sstarts[-1],
                       [(tstarts[r], sstarts[s], blocks[arrow][0])
                        for r, s, arrow in arrows]),
        FMatrix.placed(ell, tgt.dim_dot, src.dim_dot,
                       [(r, s, blocks[arrow][1]) for r, s, arrow in arrows]))


# -- the free-orbit codec (its reader, ``arrow_matrix``, sits by theta_block)

def illegal_arrow(ks: str, kt: str, e, degree: int) -> str:
    """The violation of an arrow code ``e`` that its slot ks -> kt of the
    differential into ``degree`` does not have."""
    return (f"illegal arrow {e!r} in slot ({ks}->{kt}) of the differential "
            f"into degree {degree}")


def _nonzero_arrows(m: list[list[int]], src_kinds: list[str],
                    tgt_kinds: list[str]) -> list[tuple[int, int, tuple]]:
    """(target, source, (source kind, target kind, code)) for each nonzero
    arrow of the arrow matrix ``m``, row by row."""
    return [(r, s, (src_kinds[s], kt, e))
            for r, (kt, row) in enumerate(zip(tgt_kinds, m))
            for s, e in enumerate(row) if e]


@lru_cache(maxsize=8)
def _block_table(ell: int) -> dict[tuple, tuple[FMatrix, FMatrix]]:
    """(source kind, target kind, code) -> (free-orbit block, 1 x 1
    fixed-level block) over GF(l), for every nonzero arrow; callers place
    the blocks and never change them.  The source's
    fixed generator restricts to the all-ones orbit vector and the
    target's to a vector with first coordinate 1, so the fixed-level
    entry is the sum of the free-orbit block's first row."""
    out = {}
    for (ks, kt), names in _ARROW_NAMES.items():
        for e in range(1, len(names)):
            theta = theta_block(ks, kt, e, ell)
            out[ks, kt, e] = theta, FMatrix.from_rows([[sum(theta.row(0))]],
                                                      ell)
    return out


# _block_table(2)'s free-orbit blocks as target kind -> source kind ->
# code -> block, the bit patterns the codec adds into place
_ORBIT_BLOCKS = {kt: {ks: {e: theta for (a, b, e), (theta, _)
                          in _block_table(2).items() if (a, b) == (ks, kt)}
                     for ks in "FH"}
                for kt in "FH"}


def orbit_matrix(m: list[list[int]], src_kinds: list[str],
                 tgt_kinds: list[str]) -> FMatrix:
    """The free-orbit level over GF(2) of the arrow matrix ``m`` from
    generators of kinds ``src_kinds`` to ``tgt_kinds``: its rows and
    columns are the free-orbit coordinates (``orbit_starts``), and each
    arrow sits there as its ``theta_block``.  ``arrow_matrix`` reads it
    back.  An arrow code that its slot does not have raises
    KeyError((source kind, target kind, code))."""
    sstarts, tstarts = orbit_starts(src_kinds), orbit_starts(tgt_kinds)
    blocks, theta = [], _ORBIT_BLOCKS
    try:
        for kt, t0, row in zip(tgt_kinds, tstarts, m):
            for s, e in enumerate(row):
                if e:
                    blocks.append((t0, sstarts[s], theta[kt][src_kinds[s]][e]))
    except KeyError:
        raise KeyError((src_kinds[s], kt, e)) from None
    return FMatrix.from_blocks(tstarts[-1], sstarts[-1], blocks)


def _subquotient(mod: MackeyModule, d_out: MackeyMap, d_in: MackeyMap,
                 ell: int) -> MackeyModule:
    """Homology of modules at one degree: ker(d_out)/im(d_in), with the
    induced Mackey structure on chosen representatives."""

    def level_data(dim, out_m, in_m):
        K = out_m.kernel_basis()
        Bi = in_m.submatrix(list(range(dim)), in_m.column_space_pivots())
        comb = FMatrix.hstack([Bi, K])
        pivots = comb.column_space_pivots()
        qcols = [p - Bi.ncols for p in pivots if p >= Bi.ncols]
        Q = K.submatrix(list(range(dim)), qcols)
        rep = FMatrix.hstack([Bi, Q])
        return Q, rep, Bi.ncols

    nt, nd = mod.dim_theta, mod.dim_dot
    Qt, rep_t, bt = level_data(nt, d_out.f_theta, d_in.f_theta)
    Qd, rep_d, bd = level_data(nd, d_out.f_dot, d_in.f_dot)

    def induced(mat, Qsrc, rep_tgt, boundary_cols):
        img = mat.mul(Qsrc)
        X = rep_tgt.solve_many(img)
        if X is None:
            raise AssertionError("structure map left the kernel")
        rows = list(range(boundary_cols, rep_tgt.ncols))
        return X.submatrix(rows, list(range(X.ncols)))

    t_h = induced(mod.t, Qt, rep_t, bt)
    up_h = induced(mod.p_up, Qd, rep_t, bt)
    down_h = induced(mod.p_down, Qt, rep_d, bd)
    return MackeyModule(ell, t_h, up_h, down_h)


def _check_dd(maps: list[MackeyMap], i: int, ell: int, lo: int) -> None:
    """Raise ValueError unless d*d = 0 through degree ``lo + i`` of a
    complex realized by ``_realize_with_ends``.  The theta level decides
    the arrows, so it decides d*d = 0 too."""
    if not maps[i].f_theta.mul(maps[i + 1].f_theta).is_zero():
        raise ValueError(f"d*d != 0 mod {ell} between degrees "
                         f"{lo + i + 1} and {lo + i - 1}")


def homology(c: FreeComplex, d: int, ell: int = 2) -> MackeyModule:
    """The homology module of ``c`` at degree ``d`` over GF(l), with its
    structure maps on chosen representatives; ``homology_counts`` gives
    only its classification.  A d*d != 0 through ``d`` raises ValueError
    naming the degrees, and a non-integer min_degree one naming it."""
    _require_int(c.min_degree, "min_degree")
    if not c.gens_at(d):
        return zero_module(ell)
    mods, maps = _realize_with_ends(c, ell)
    i = d - c.min_degree
    _check_dd(maps, i, ell, c.min_degree)
    return _subquotient(mods[i], maps[i], maps[i + 1], ell)


def homology_counts(c: FreeComplex, ell: int = 2) -> dict[int, dict[str, int]]:
    """Classified homology of ``c`` over GF(l), keyed by degree; zero
    degrees omitted.

    The counts are read off ranks; no homology module is built.  At each
    degree let Z be the kernel of the differential out and B the image of
    the one in, on each level.  Then dim H = dim Z - rank B, and a
    structure map f of the module induces on H a map of rank
    rank[f Z | B'] - rank B', with B' the image in f's target level.
    Over l = 2 the ranks of 1 + t, p_down and p_up fix the five counts
    (``counts_of_ranks``); at odd l the two dimensions do.  A d*d != 0
    raises ValueError naming the degrees, and a non-integer min_degree one
    naming it.
    """
    _require_int(c.min_degree, "min_degree")
    mods, maps = _realize_with_ends(c, ell)
    lo, out = c.min_degree, {}
    for i, mod in enumerate(mods):
        d_out, d_in = maps[i], maps[i + 1]
        _check_dd(maps, i, ell, lo)
        bt, bd = d_in.f_theta, d_in.f_dot
        rt, rd = bt.rank(), bd.rank()
        if ell != 2:
            counts = counts_of_ranks(ell, d_out.f_theta.nullity() - rt,
                                     d_out.f_dot.nullity() - rd)
        else:
            zt = d_out.f_theta.kernel_basis()
            zd = d_out.f_dot.kernel_basis()
            ht, hd = zt.ncols - rt, zd.ncols - rd
            counts = counts_of_ranks(
                2, ht, hd,
                FMatrix.hstack([mod.t.mul(zt).add(zt), bt]).rank() - rt,
                ht - (FMatrix.hstack([mod.p_down.mul(zt), bd]).rank() - rd),
                hd - (FMatrix.hstack([mod.p_up.mul(zd), bt]).rank() - rt))
        if counts:
            out[lo + i] = counts
    return out


# -- box products ---------------------------------------------------------

def _pair_gens(ka: str, kb: str) -> list[str]:
    """Kinds of the product generators of a single (ka, kb) pair."""
    if ka == "F" and kb == "F":
        return ["F", "F"]
    if ka == "H" and kb == "H":
        return ["H"]
    return ["F"]


def _pair_basis(ka: str, kb: str) -> FMatrix:
    """Columns: the free-orbit basis of the product generators, expressed
    in Kronecker coordinates of the two free-orbit levels."""
    if ka == "F" and kb == "F":
        # e1, t e1, e2, t e2  =  g(x)g, tg(x)tg, g(x)tg, tg(x)g
        return FMatrix.from_rows(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], 2
        ).transpose()
    n = 2 if "F" in (ka, kb) else 1
    return FMatrix.identity(n, 2)


@cache
def _pair_block(ka: str, ka2: str, ea: int, kb: str, kb2: str, eb: int):
    """The nonzero arrows (target, source, arrow) of (map ea (x) map eb)
    between product generators."""
    K = theta_block(ka, ka2, ea).kron(theta_block(kb, kb2, eb))
    N = _pair_basis(ka2, kb2).invert().mul(K).mul(_pair_basis(ka, kb))
    arrows = arrow_matrix(N, _pair_gens(ka, kb), _pair_gens(ka2, kb2))
    return tuple((r, s, e) for r, row in enumerate(arrows)
                 for s, e in enumerate(row) if e)


def _box_layout(x: FreeComplex, y: FreeComplex):
    """Per total degree: the kinds of the product generators (i, a, b, s),
    the s-th generator of x_i[a] (x) y_j[b], in canonical F-before-H
    order, and a dict from (i, a, b, s) to position."""
    raw: dict[int, list[tuple]] = {}
    for i in x.degrees():
        xg = x.gens_at(i)
        if not xg:
            continue
        for j in y.degrees():
            yg = y.gens_at(j)
            if not yg:
                continue
            bucket = raw.setdefault(i + j, [])
            for a, ka in enumerate(xg):
                for b, kb in enumerate(yg):
                    for s, kind in enumerate(_pair_gens(ka, kb)):
                        bucket.append((kind, (i, a, b, s)))
    layout = {}
    for d, bucket in raw.items():
        order = [bucket[p] for p in _canonical_perm([k for k, _ in bucket])]
        layout[d] = ([k for k, _ in order],
                     {key: pos for pos, (_, key) in enumerate(order)})
    return layout


def _nonzero_columns(m: list[list[int]], ncols: int) -> list[list[tuple]]:
    """Per column of the arrow matrix ``m``: its nonzero (row, arrow)."""
    return [[(r, row[c]) for r, row in enumerate(m) if row[c]]
            for c in range(ncols)]


def _box_components(pairs: list[tuple[ChainMap, ChainMap]], slayout,
                    tlayout, deg: int) -> dict[int, list[list[int]]]:
    """Per source degree, the arrow matrix of the sum of f (x) g over the
    (f, g) of ``pairs``, each of total degree ``deg``, from the product
    generators of ``slayout`` to those of ``tlayout``."""
    comps = {d: zero_matrix(len(tlayout[d + deg][0]), len(skinds))
             for d, (skinds, _) in slayout.items() if d + deg in tlayout}
    for f, g in pairs:
        fcols = {i: _nonzero_columns(m, len(f.source.gens_at(i)))
                 for i, m in f.components.items()}
        gcols = {j: _nonzero_columns(m, len(g.source.gens_at(j)))
                 for j, m in g.components.items()}
        for i, j in product(fcols, gcols):
            m = comps.get(i + j)
            if m is None or not fcols[i] or not gcols[j]:
                continue
            sindex, tindex = slayout[i + j][1], tlayout[i + j + deg][1]
            xk, yk = f.source.gens_at(i), g.source.gens_at(j)
            i2, j2 = i + f.degree, j + g.degree
            xk2, yk2 = f.target.gens_at(i2), g.target.gens_at(j2)
            for a, b in product(range(len(xk)), range(len(yk))):
                for (a2, ea), (b2, eb) in product(fcols[i][a], gcols[j][b]):
                    for s2, s, e in _pair_block(xk[a], xk2[a2], ea,
                                                yk[b], yk2[b2], eb):
                        m[tindex[i2, a2, b2, s2]][sindex[i, a, b, s]] ^= e
    return comps


def _diff_map(c: FreeComplex) -> ChainMap:
    """The differential of ``c`` as a degree -1 map from ``c`` to itself."""
    return ChainMap(c, c, {d: c.diff(d)
                           for d in range(c.min_degree + 1, c.max_degree + 1)},
                    -1)


def box_complex(x: FreeComplex, y: FreeComplex) -> FreeComplex:
    """The monoidal product of two symbol complexes: its differential is
    d_x (x) 1 + 1 (x) d_y."""
    layout = _box_layout(x, y)
    if not layout:
        return FreeComplex(0, [[]], [])
    lo, hi = min(layout), max(layout)
    gens = [layout[d][0] if d in layout else [] for d in range(lo, hi + 1)]
    comps = _box_components([(_diff_map(x), identity_chain_map(y)),
                             (identity_chain_map(x), _diff_map(y))],
                            layout, layout, -1)
    return FreeComplex(lo, gens, [
        comps[d] if d in comps
        else zero_matrix(len(gens[d - lo - 1]), len(gens[d - lo]))
        for d in range(lo + 1, hi + 1)])


def box_chain_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g on box products (all degrees; GF(2) kills the signs)."""
    deg = f.degree + g.degree
    comps = _box_components([(f, g)], _box_layout(f.source, g.source),
                            _box_layout(f.target, g.target), deg)
    return ChainMap(box_complex(f.source, g.source),
                    box_complex(f.target, g.target), comps, deg)


# -- duality ----------------------------------------------------------------

def cotens_H(c: FreeComplex) -> FreeComplex:
    """The arrow-reversal dual: degrees negate, differentials transpose,
    restriction and transfer arrows trade roles."""
    # every arrow is its own dual (the two p's trade places), so each
    # differential is the transpose of the one it reverses
    gens = c.gens
    diffs = [[[m[r][j] for r in range(len(gens[i]))]
              for j in range(len(gens[i + 1]))]
             for i, m in enumerate(c.diffs)]
    return _canonicalize(FreeComplex(-c.max_degree, gens[::-1], diffs[::-1]))


# -- the hom complex -------------------------------------------------------

def _require_int(value, what: str) -> None:
    """Raise ValueError naming ``what`` unless ``value`` is an int."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")


def _hom_degrees(x: FreeComplex, y: FreeComplex, n: int) -> range:
    """The degrees i in which both x_i and y_(i+n) may have generators."""
    return range(max(x.min_degree, y.min_degree - n),
                 min(x.max_degree, y.max_degree - n) + 1)


class _HomComplex:
    """The mapping complex Hom(x, y) of two complexes the caller has
    validated, with the tables of x and y built once for every degree.

    Hom_n has an element (i, s, t, w) per generator s of x_i, t of y_(i+n)
    and arrow 1 << w between them, so an arrow's coordinates are the bits
    of its code.  It sits at ``starts[i][s] + slots[i + n][x_i[s]][t] + w``
    (``_starts(n)``), where slots[j]["F"][t] is t plus the F's before y_j[t]
    and slots[j]["H"][t] is t; each slot list ends with its length."""

    def __init__(self, x: FreeComplex, y: FreeComplex):
        self.x, self.y = x, y
        self._xk = xk = {i: x.gens_at(i)
                         for i in range(x.min_degree, x.max_degree + 2)}
        self._yk = yk = {j: y.gens_at(j)
                         for j in range(y.min_degree - 1, y.max_degree + 1)}
        self._slots = slots = {
            j: {"F": [0, *accumulate(1 + (k == "F") for k in kinds)],
                "H": range(len(kinds) + 1)} for j, kinds in yk.items()}
        # xin[i][s][kt, a]: for the basis arrow a from x_i[s] to a kt, its
        # nonzero composites (s2, x_(i+1)[s2] is an F, v) after d
        self._xin = xin = {}
        for i in range(x.min_degree, x.max_degree + 1):
            k2 = xk[i + 1]
            xin[i] = rows = []
            for ks, row in zip(xk[i], x.diff(i + 1)):
                arrows = [(s2, e) for s2, e in enumerate(row) if e]
                rows.append({(kt, a): [(s2, k2[s2] == "F", v)
                                       for s2, e in arrows
                                       if (v := ecompose(k2[s2], ks, kt, e, a))]
                             for kt in "FH"
                             for a in ((1, 2) if ks == kt == "F" else (1,))})
        # yout[j][t][ks, a]: d y after the basis arrow a from a ks to
        # y_j[t], as a bitset over that generator's slots in y_(j-1)
        self._yout = yout = {}
        for j in range(y.min_degree, y.max_degree + 1):
            k1, s1 = yk[j - 1], slots[j - 1]
            yout[j] = pats = []
            for kt, arrows in zip(yk[j],
                                  _nonzero_columns(y.diff(j), len(yk[j]))):
                pat = {}
                for ks in "FH":
                    for a in ((1, 2) if ks == kt == "F" else (1,)):
                        bits = 0
                        for t2, e in arrows:
                            bits |= ecompose(ks, kt, k1[t2], a, e) << s1[ks][t2]
                        pat[ks, a] = bits
                pats.append(pat)

    def _starts(self, n: int) -> tuple[int, dict[int, list[int]]]:
        """dim Hom_n, and per degree i where each generator's elements start."""
        starts, pos = {}, 0
        for i in _hom_degrees(self.x, self.y, n):
            slots = self._slots[i + n]
            starts[i] = row = []
            for ks in self._xk[i]:
                row.append(pos)
                pos += slots[ks][-1]
        return pos, starts

    def _columns(self, n0: int, n1: int) -> list[tuple[int, list[int]]]:
        """For n = n0..n1, Hom_n -> Hom_(n-1) as (number of rows, its
        columns as GF(2) bitsets); a composite arrow enters at its w = 0.
        d y lands in the block of degree i of Hom_(n-1) and d x in that of
        i + 1, and nothing lands in a block that Hom_(n-1) lacks."""
        nrows, below = self._starts(n0 - 1)
        out = []
        for n in range(n0, n1 + 1):
            cols, here = [], {}
            for i in _hom_degrees(self.x, self.y, n):
                j = i + n
                xs, ts, tf = self._xk[i], self._yk[j], self._slots[j]["F"]
                ypats, xrows = self._yout[j], self._xin[i]
                ystart = below.get(i) or [0] * len(xs)
                xstart = below.get(i + 1)
                # columns come in Hom_n's order: their count is _starts(n)
                here[i] = starts = []
                for s, (ks, by) in enumerate(zip(xs, ystart)):
                    starts.append(len(cols))
                    for t, kt in enumerate(ts):
                        for a in ((1, 2) if ks == kt == "F" else (1,)):
                            col = ypats[t][ks, a] << by
                            for s2, f2, v in xrows[s][kt, a]:
                                col |= v << (xstart[s2] + (tf[t] if f2 else t))
                            cols.append(col)
            out.append((nrows, cols))
            nrows, below = len(cols), here
        return out

    def delta(self, n: int) -> FMatrix:
        """The differential Hom_n -> Hom_(n-1), f |-> d f + f d."""
        nrows, cols = self._columns(n, n)[0]
        return FMatrix.from_bits(cols, nrows).transpose()

    def homology(self, n0: int, n1: int) -> list[int]:
        """dim H_n for n = n0..n1, from one rank per differential."""
        deltas = self._columns(n0, n1 + 1)
        ranks = [FMatrix.from_bits(cols, nrows).rank()
                 for nrows, cols in deltas]
        return [len(cols) - r - r1
                for (_, cols), r, r1 in zip(deltas, ranks, ranks[1:])]

    def vector(self, f: ChainMap) -> list[int]:
        """The coordinates of a valid map f: x -> y in Hom_(f.degree)."""
        size, starts = self._starts(f.degree)
        vec = [0] * size
        for i, row in starts.items():
            slots = self._slots[i + f.degree]
            for t, arrows in enumerate(f.component(i)):
                for ks, p, e in zip(self._xk[i], row, arrows):
                    for w in range(e.bit_length()):
                        vec[p + slots[ks][t] + w] = e >> w & 1
        return vec

    def chain_map(self, n: int, vec: list[int]) -> ChainMap:
        """The degree-n map x -> y with coordinates ``vec``, the int 0 or 1
        per element of Hom_n; any other vector raises ValueError."""
        size, starts = self._starts(n)
        if len(vec) != size or {*map(type, vec)} - {int} or {*vec} - {0, 1}:
            raise ValueError(f"a vector of Hom_{n} is {size} entries, each 0 or 1")
        comps = {}
        for i, row in starts.items():
            slots = self._slots[i + n]
            m = [[vec[p + slots[ks][t]]
                  | (vec[p + slots[ks][t] + 1] << 1 if ks == kt == "F" else 0)
                  for ks, p in zip(self._xk[i], row)]
                 for t, kt in enumerate(self._yk[i + n])]
            if any(map(any, m)):
                comps[i] = m
        return ChainMap(self.x, self.y, comps, n)


def hom_delta(x: FreeComplex, y: FreeComplex, n: int) -> FMatrix:
    """The differential Hom(x, y)_n -> Hom(x, y)_{n-1}, f |-> d f + f d;
    a non-complex or a non-integer n raises ValueError naming it."""
    _require_complexes(x, y)
    _require_int(n, "n")
    return _HomComplex(x, y).delta(n)


def hom_complex_dim(x: FreeComplex, y: FreeComplex, n: int) -> int:
    """dim of the degree-n homology of the hom complex: the group of
    degree-n maps x -> y up to homotopy; a non-complex or a non-integer n
    raises ValueError naming it."""
    _require_complexes(x, y)
    _require_int(n, "n")
    return _HomComplex(x, y).homology(n, n)[0]


def chain_map_from_vector(x: FreeComplex, y: FreeComplex, n: int,
                          vec: list[int]) -> ChainMap:
    """The degree-n map x -> y with coordinates ``vec`` in Hom(x, y)_n; a
    non-complex, a non-integer n or a vector that is not the int 0 or 1
    per element raises ValueError."""
    _require_complexes(x, y)
    _require_int(n, "n")
    return _HomComplex(x, y).chain_map(n, vec)


def null_homotopy(f: ChainMap) -> ChainMap | None:
    """A degree-(n+1) map h with f = d h + h d, or None if f is not a
    boundary in the mapping complex; a map that fails
    ``validate_chain_map`` raises ValueError listing its violations."""
    errs = validate_chain_map(f)
    if errs:
        raise ValueError("not a chain map: " + "; ".join(errs))
    hom = _HomComplex(f.source, f.target)
    sol = hom.delta(f.degree + 1).solve(hom.vector(f))
    return None if sol is None else hom.chain_map(f.degree + 1, sol)


def is_null_homotopic(f: ChainMap) -> bool:
    """Whether a chain map bounds: f = d h + h d for some h."""
    return null_homotopy(f) is not None
