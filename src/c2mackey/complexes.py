"""Bounded complexes of free Mackey modules over GF(2), symbol-level.

A ``FreeComplex`` stores, per homological degree, a list of generator
kinds ("F" = free orbit generator, "H" = fixed generator) and, between
adjacent degrees, a matrix of *arrow codes*.  The possible arrows are

    F -> F : 0, 1, t, 1+t     (codes 0..3, bit 0 = coeff of 1, bit 1 = t)
    F -> H : 0, p             (codes 0, 1)
    H -> F : 0, p             (codes 0, 1)
    H -> H : 0, 1             (codes 0, 1)

which are exactly the maps that exist between the two free module types.
Differentials decrease degree.  ``realize`` expands a symbol complex into
honest Mackey modules and maps over GF(l) (the arrow alphabet is the
l = 2 one, but every arrow has a canonical lift mod l, which is what the
odd-modulus splitter consumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _schema as schema
from .gf2core import FMatrix
from .mackey import (MackeyMap, MackeyModule, classify, direct_sum,
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


def ecompose(ka: str, kb: str, kc: str, e_ab: int, e_bc: int) -> int:
    """Arrow code of (b->c) composed after (a->b)."""
    if e_ab == 0 or e_bc == 0:
        return 0
    if kb == "F":
        if ka == "F":
            a1, b1 = e_ab & 1, e_ab >> 1
            if kc == "F":
                a2, b2 = e_bc & 1, e_bc >> 1
                return ((a1 & a2) ^ (b1 & b2)) | ((((a1 & b2) ^ (b1 & a2)) & 1) << 1)
            return (a1 ^ b1) & e_bc            # F -> F -> H
        # ka == "H"
        if kc == "F":
            a2, b2 = e_bc & 1, e_bc >> 1
            return e_ab & (a2 ^ b2)            # H -> F -> F, result code for p
        return 0                               # H -> F -> H is 2 = 0 mod 2
    # kb == "H"
    if ka == "F" and kc == "F":
        return U if (e_ab & e_bc) else 0       # p then p is 1 + t
    return e_ab & e_bc


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


def zero_matrix(nrows: int, ncols: int) -> list[list[int]]:
    return [[0] * ncols for _ in range(nrows)]


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

    def in_range(self, d: int) -> bool:
        return self.min_degree <= d <= self.max_degree

    def gens_at(self, d: int) -> list[str]:
        return self.gens[d - self.min_degree] if self.in_range(d) else []

    def diff(self, d: int):
        """Matrix of d : degree d -> d - 1, or None when either end is empty."""
        i = d - self.min_degree - 1
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return None

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


def validate_complex(c: FreeComplex) -> list[str]:
    """Arrow legality, matrix shapes, and d*d = 0; returns violations."""
    out = []
    if len(c.diffs) != max(len(c.gens) - 1, 0):
        return ["number of differentials does not match number of degrees"]
    for g in c.gens:
        for k in g:
            if k not in ("F", "H"):
                return [f"unknown generator kind {k!r}"]
    # cols[i][s]: the nonzero entries of column s of diffs[i], as
    # (target, arrow) in target order
    cols = []
    for i, m in enumerate(c.diffs):
        tk, sk = c.gens[i], c.gens[i + 1]
        if len(m) != len(tk) or any(len(row) != len(sk) for row in m):
            out.append(f"differential into degree {c.min_degree + i} has the "
                       f"wrong shape")
            continue
        nonzero = [[] for _ in sk]
        for r, row in enumerate(m):
            kt = tk[r]
            for s, e in enumerate(row):
                if e == 0 and type(e) is int:     # the common, legal case
                    continue
                if not entry_ok(sk[s], kt, e):
                    out.append(
                        f"illegal arrow {e!r} in slot "
                        f"({sk[s]}->{kt}) of the differential into degree "
                        f"{c.min_degree + i}")
                elif e:
                    nonzero[s].append((r, e))
        cols.append(nonzero)
    if out:
        return out
    # d*d from the nonzero entries only: source s, its arrows into q, then
    # the arrows out of q; bad holds (degree offset, target, source)
    bad = []
    for i in range(len(c.diffs) - 1):
        lowk, midk, topk = c.gens[i], c.gens[i + 1], c.gens[i + 2]
        d1cols = cols[i]
        for s, into in enumerate(cols[i + 1]):
            if not into:
                continue
            ks, acc = topk[s], {}
            for q, e2 in into:
                kq = midk[q]
                for r, e1 in d1cols[q]:
                    acc[r] = acc.get(r, 0) ^ ecompose(ks, kq, lowk[r], e2, e1)
            for r, v in acc.items():
                if v:
                    bad.append((i, r, s))
    return [f"d*d != 0 from degree {c.min_degree + i + 2} generator {s} "
            f"to degree {c.min_degree + i} generator {r}"
            for i, r, s in sorted(bad)]


# -- canonical construction helpers -------------------------------------

def _canonical_perm(kinds: list[str]) -> list[int]:
    """Stable F-before-H permutation: perm[new_slot] = old_slot."""
    return ([i for i, k in enumerate(kinds) if k == "F"]
            + [i for i, k in enumerate(kinds) if k == "H"])


def canonicalize(c: FreeComplex) -> FreeComplex:
    c = _trimmed(c)
    perms = [_canonical_perm(g) for g in c.gens]
    gens = [[g[p] for p in perm] for g, perm in zip(c.gens, perms)]
    diffs = []
    for i, m in enumerate(c.diffs):
        tp, sp = perms[i], perms[i + 1]
        diffs.append([[m[tr][sc] for sc in sp] for tr in tp])
    return FreeComplex(c.min_degree, gens, diffs)


def strand(kind: str, param: int = 0) -> FreeComplex:
    """The fundamental strands and disks in their canonical positions."""
    if kind == "A":
        if param < 0:
            raise ValueError("A-strands need a length >= 0")
        gens = [["F"] for _ in range(param + 1)]
        diffs = [[[U]] for _ in range(param)]
        return FreeComplex(0, gens, diffs)
    if kind == "Hn":
        n = param
        if n == 0:
            return FreeComplex(0, [["H"]], [])
        if n > 0:
            gens = [["H"]] + [["F"] for _ in range(n)]
            diffs = [[[1]]] + [[[U]] for _ in range(n - 1)]
            return FreeComplex(-n, gens, diffs)
        j = -n
        gens = [["F"] for _ in range(j)] + [["H"]]
        diffs = [[[U]] for _ in range(j - 1)] + [[[1]]]
        return FreeComplex(0, gens, diffs)
    if kind == "B":
        r = param
        if r < 0:
            raise ValueError("B-strands need a width >= 0")
        gens = [["H"]] + [["F"] for _ in range(r + 1)] + [["H"]]
        diffs = [[[1]]] + [[[U]] for _ in range(r)] + [[[1]]]
        return FreeComplex(-(r + 2), gens, diffs)
    if kind == "DiskF":
        return FreeComplex(0, [["F"], ["F"]], [[[1]]])
    if kind == "DiskH":
        return FreeComplex(0, [["H"], ["H"]], [[[1]]])
    raise ValueError(f"unknown strand kind {kind!r}")


def shift_complex(c: FreeComplex, s: int) -> FreeComplex:
    out = c.copy()
    out.min_degree += s
    return out


def direct_sum_complexes(parts: list[FreeComplex]) -> FreeComplex:
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        return FreeComplex(0, [[]], [])
    lo = min(p.min_degree for p in parts)
    hi = max(p.max_degree for p in parts)
    gens = [[] for _ in range(hi - lo + 1)]
    offsets = []
    for p in parts:
        offs = {}
        for d in p.degrees():
            offs[d] = len(gens[d - lo])
            gens[d - lo].extend(p.gens_at(d))
        offsets.append(offs)
    diffs = [zero_matrix(len(gens[i]), len(gens[i + 1]))
             for i in range(len(gens) - 1)]
    for p, offs in zip(parts, offsets):
        for d in p.degrees():
            m = p.diff(d)
            if m is None:
                continue
            ro, co = offs[d - 1], offs[d]
            big = diffs[d - 1 - lo]
            for r in range(len(m)):
                for cidx in range(len(m[0]) if m else 0):
                    if m[r][cidx]:
                        big[ro + r][co + cidx] = m[r][cidx]
    return canonicalize(FreeComplex(lo, gens, diffs))


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
    out = []
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
        tk, tk1 = f.target.gens_at(d + f.degree), f.target.gens_at(d + f.degree - 1)
        for s in range(len(sk)):
            for r in range(len(tk1)):
                acc = 0
                dt = f.target.diff(d + f.degree)
                if dt is not None:
                    fm = f.component(d)
                    for q in range(len(tk)):
                        acc ^= ecompose(sk[s], tk[q], tk1[r], fm[q][s], dt[r][q])
                ds = f.source.diff(d)
                if ds is not None:
                    fm1 = f.component(d - 1)
                    for q in range(len(sk1)):
                        acc ^= ecompose(sk[s], sk1[q], tk1[r], ds[q][s], fm1[r][q])
                if acc:
                    out.append(f"does not commute with d at source degree {d}")
                    break
            else:
                continue
            break
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
        if not sk or not tk:
            continue
        fm = f.component(d)
        gm = g.component(d + f.degree)
        out = zero_matrix(len(tk), len(sk))
        for s in range(len(sk)):
            for r in range(len(tk)):
                acc = 0
                for q in range(len(mk)):
                    acc ^= ecompose(sk[s], mk[q], tk[r], fm[q][s], gm[r][q])
                out[r][s] = acc
        comps[d] = out
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
        xs, ys = X.gens_at(d - 1), Y.gens_at(d)
        xt, yt = X.gens_at(d - 2), Y.gens_at(d - 1)
        m = zero_matrix(len(xt) + len(yt), len(xs) + len(ys))
        dx = X.diff(d - 1)
        if dx is not None:
            for r in range(len(xt)):
                for c in range(len(xs)):
                    m[r][c] = dx[r][c]
        fm = f.component(d - 1)
        for r in range(len(yt)):
            for c in range(len(xs)):
                m[len(xt) + r][c] = fm[r][c]
        dy = Y.diff(d)
        if dy is not None:
            for r in range(len(yt)):
                for c in range(len(ys)):
                    m[len(xt) + r][len(xs) + c] = dy[r][c]
        diffs.append(m)
    return canonicalize(FreeComplex(lo, gens, diffs))


# -- realization and homology --------------------------------------------

def realize(c: FreeComplex, ell: int = 2) -> tuple[list[MackeyModule], list[MackeyMap]]:
    """Expand a symbol complex into Mackey modules and maps over GF(l)."""
    mods = [realize_term(g, ell) for g in c.gens]
    maps = []
    for i, m in enumerate(c.diffs):
        maps.append(realize_map(c.gens[i + 1], c.gens[i], m, ell,
                                mods[i + 1], mods[i]))
    return mods, maps


def realize_term(kinds: list[str], ell: int = 2) -> MackeyModule:
    """The direct sum of the free modules F and H named by ``kinds``."""
    if not kinds:
        return zero_module(ell)
    summand = {k: indecomposable(k, ell) for k in set(kinds)}
    return direct_sum(*[summand[k] for k in kinds])


def _theta_offsets(kinds: list[str]) -> list[int]:
    offs, off = [], 0
    for k in kinds:
        offs.append(off)
        off += 2 if k == "F" else 1
    return offs


def realize_map(src_kinds: list[str], tgt_kinds: list[str],
                entries: list[list[int]], ell: int,
                src: MackeyModule | None = None,
                tgt: MackeyModule | None = None) -> MackeyMap:
    if src is None:
        src = realize_term(src_kinds, ell)
    if tgt is None:
        tgt = realize_term(tgt_kinds, ell)
    soffs, toffs = _theta_offsets(src_kinds), _theta_offsets(tgt_kinds)
    arrows: dict[tuple[str, str, int], tuple[FMatrix, FMatrix]] = {}
    theta, dot = [], []
    for r, (kt, row) in enumerate(zip(tgt_kinds, entries)):
        for s, e in enumerate(row):
            if not e:
                continue
            key = (src_kinds[s], kt, e)
            blocks = arrows.get(key)
            if blocks is None:
                blocks = arrows[key] = _arrow_blocks(*key, ell)
            theta.append((toffs[r], soffs[s], blocks[0]))
            dot.append((r, s, blocks[1]))
    return MackeyMap(
        src, tgt,
        FMatrix.placed(ell, tgt.dim_theta, src.dim_theta, theta),
        FMatrix.placed(ell, tgt.dim_dot, src.dim_dot, dot))


def _arrow_blocks(ks: str, kt: str, e: int, ell: int) -> tuple[FMatrix, FMatrix]:
    """An arrow's free-orbit block and its 1 x 1 fixed-level block: the
    sum of the two coefficients for F -> F, the transfer 2 for F -> H,
    and 1 otherwise."""
    if ks == "F" and kt == "F":
        v = (e & 1) + (e >> 1)
    else:
        v = 2 if ks == "F" else 1
    return theta_block(ks, kt, e, ell), FMatrix.from_rows([[v]], ell)


def _subquotient(mod: MackeyModule, d_out: MackeyMap | None,
                 d_in: MackeyMap | None, ell: int) -> MackeyModule:
    """Homology of modules at one degree: ker(d_out)/im(d_in), with the
    induced Mackey structure on chosen representatives (None stands for a
    zero map)."""

    def level_data(dim, out_m, in_m):
        if out_m is None:
            K = FMatrix.identity(dim, ell)
        else:
            K = out_m.kernel_basis()
        if in_m is None:
            Bi = FMatrix.zeros(dim, 0, ell)
        else:
            piv = in_m.column_space_pivots()
            Bi = in_m.submatrix(list(range(dim)), piv)
        comb = FMatrix.hstack([Bi, K])
        pivots = comb.column_space_pivots()
        qcols = [p - Bi.ncols for p in pivots if p >= Bi.ncols]
        Q = K.submatrix(list(range(dim)), qcols)
        rep = FMatrix.hstack([Bi, Q])
        return Q, rep, Bi.ncols

    nt, nd = mod.dim_theta, mod.dim_dot
    Qt, rep_t, bt = level_data(nt, d_out.f_theta if d_out else None,
                               d_in.f_theta if d_in else None)
    Qd, rep_d, bd = level_data(nd, d_out.f_dot if d_out else None,
                               d_in.f_dot if d_in else None)

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


def _homology_at(mods: list[MackeyModule], maps: list[MackeyMap], i: int,
                 ell: int) -> MackeyModule:
    """Homology at ``mods[i]`` of a realized complex, where ``maps[i]``
    goes from ``mods[i + 1]`` to ``mods[i]``."""
    return _subquotient(mods[i], maps[i - 1] if i - 1 >= 0 else None,
                        maps[i] if i < len(maps) else None, ell)


def homology(c: FreeComplex, d: int, ell: int = 2) -> MackeyModule:
    if not c.in_range(d) or not c.gens_at(d):
        return zero_module(ell)
    return _homology_at(*realize(c, ell), d - c.min_degree, ell)


def _classified_homology(mods: list[MackeyModule], maps: list[MackeyMap],
                         ell: int, min_degree: int) -> dict[int, dict[str, int]]:
    """Classified homology of a realized complex, keyed by degree; zero
    degrees omitted."""
    out = {}
    for i in range(len(mods)):
        counts = classify(_homology_at(mods, maps, i, ell))
        if counts:
            out[min_degree + i] = counts
    return out


def homology_counts(c: FreeComplex, ell: int = 2) -> dict[int, dict[str, int]]:
    mods, maps = realize(c, ell)
    return _classified_homology(mods, maps, ell, c.min_degree)


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


_BLOCK_CACHE: dict = {}


def _pair_block(ka: str, ka2: str, ea: int, kb: str, kb2: str, eb: int):
    """Arrow matrix of (map ea (x) map eb) between product generators."""
    key = (ka, ka2, ea, kb, kb2, eb)
    hit = _BLOCK_CACHE.get(key)
    if hit is not None:
        return hit
    K = theta_block(ka, ka2, ea).kron(theta_block(kb, kb2, eb))
    Ps = _pair_basis(ka, kb)
    Pt = _pair_basis(ka2, kb2)
    N = Pt.invert().mul(K).mul(Ps)
    sg = _pair_gens(ka, kb)
    tg = _pair_gens(ka2, kb2)
    sslots = _theta_offsets(sg)
    tslots = _theta_offsets(tg)
    out = zero_matrix(len(tg), len(sg))
    for r, kt in enumerate(tg):
        for s, ks in enumerate(sg):
            i0, j0 = tslots[r], sslots[s]
            if ks == "F" and kt == "F":
                a, b = N.get(i0, j0), N.get(i0 + 1, j0)
                if N.get(i0, j0 + 1) != b or N.get(i0 + 1, j0 + 1) != a:
                    raise AssertionError("non-equivariant block in box product")
                out[r][s] = a | (b << 1)
            elif ks == "F":
                a = N.get(i0, j0)
                if N.get(i0, j0 + 1) != a:
                    raise AssertionError("non-equivariant block in box product")
                out[r][s] = a
            elif kt == "F":
                a = N.get(i0, j0)
                if N.get(i0 + 1, j0) != a:
                    raise AssertionError("non-equivariant block in box product")
                out[r][s] = a
            else:
                out[r][s] = N.get(i0, j0)
    _BLOCK_CACHE[key] = out
    return out


def _box_layout(x: FreeComplex, y: FreeComplex):
    """Per total degree: list of product generators (i, a, b, s, kind)."""
    layout: dict[int, list[tuple]] = {}
    for i in x.degrees():
        xg = x.gens_at(i)
        if not xg:
            continue
        for j in y.degrees():
            yg = y.gens_at(j)
            if not yg:
                continue
            bucket = layout.setdefault(i + j, [])
            for a, ka in enumerate(xg):
                for b, kb in enumerate(yg):
                    for s, kind in enumerate(_pair_gens(ka, kb)):
                        bucket.append((i, a, b, s, kind))
    return layout


def box_complex(x: FreeComplex, y: FreeComplex) -> FreeComplex:
    """The monoidal product of two symbol complexes."""
    layout = _box_layout(x, y)
    if not layout:
        return FreeComplex(0, [[]], [])
    lo, hi = min(layout), max(layout)
    gens = [[g[4] for g in layout.get(d, [])] for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo + 1, hi + 1):
        srcs = layout.get(d, [])
        tgts = layout.get(d - 1, [])
        m = zero_matrix(len(tgts), len(srcs))
        for ci, (i, a, b, s, ks) in enumerate(srcs):
            xg, yg = x.gens_at(i), y.gens_at(d - i)
            dx = x.diff(i)
            if dx is not None:
                xg2 = x.gens_at(i - 1)
                for a2 in range(len(xg2)):
                    e = dx[a2][a]
                    if not e:
                        continue
                    blk = _pair_block(xg[a], xg2[a2], e, yg[b], yg[b], 1)
                    for ri, (i2, a3, b3, s2, kt) in enumerate(tgts):
                        if i2 == i - 1 and a3 == a2 and b3 == b:
                            m[ri][ci] ^= blk[s2][s]
            dy = y.diff(d - i)
            if dy is not None:
                yg2 = y.gens_at(d - i - 1)
                for b2 in range(len(yg2)):
                    e = dy[b2][b]
                    if not e:
                        continue
                    blk = _pair_block(xg[a], xg[a], 1, yg[b], yg2[b2], e)
                    for ri, (i2, a3, b3, s2, kt) in enumerate(tgts):
                        if i2 == i and a3 == a and b3 == b2:
                            m[ri][ci] ^= blk[s2][s]
        diffs.append(m)
    return canonicalize(FreeComplex(lo, gens, diffs))


def box_chain_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g on box products (all degrees; GF(2) kills the signs)."""
    src = box_complex(f.source, g.source)
    tgt = box_complex(f.target, g.target)
    slayout = _box_layout(f.source, g.source)
    tlayout = _box_layout(f.target, g.target)
    deg = f.degree + g.degree
    comps = {}
    for d, srcs in slayout.items():
        tgts = tlayout.get(d + deg, [])
        if not srcs or not tgts:
            continue
        m = zero_matrix(len(tgts), len(srcs))
        for ci, (i, a, b, s, ks) in enumerate(srcs):
            xg = f.source.gens_at(i)
            yg = g.source.gens_at(d - i)
            fx = f.component(i)
            gyd = g.component(d - i)
            xg2 = f.target.gens_at(i + f.degree)
            yg2 = g.target.gens_at(d - i + g.degree)
            for a2 in range(len(xg2)):
                ea = fx[a2][a]
                if not ea:
                    continue
                for b2 in range(len(yg2)):
                    eb = gyd[b2][b]
                    if not eb:
                        continue
                    blk = _pair_block(xg[a], xg2[a2], ea, yg[b], yg2[b2], eb)
                    for ri, (i2, a3, b3, s2, kt) in enumerate(tgts):
                        if i2 == i + f.degree and a3 == a2 and b3 == b2:
                            m[ri][ci] ^= blk[s2][s]
        comps[d] = m
    # rewrite through the canonical generator order of the two box complexes
    return _relayout_map(src, tgt, slayout, tlayout, comps, deg)


def _relayout_map(src, tgt, slayout, tlayout, comps, deg) -> ChainMap:
    """Map matrices above are in raw layout order; permute them into the
    canonical order used by box_complex."""
    out = {}
    for d, m in comps.items():
        sperm = _canonical_perm([g[4] for g in slayout.get(d, [])])
        tperm = _canonical_perm([g[4] for g in tlayout.get(d + deg, [])])
        out[d] = [[m[tr][sc] for sc in sperm] for tr in tperm]
    return ChainMap(src, tgt, out, deg)


# -- duality ----------------------------------------------------------------

def cotens_H(c: FreeComplex) -> FreeComplex:
    """The arrow-reversal dual: degrees negate, differentials transpose,
    restriction and transfer arrows trade roles."""
    gens = []
    diffs = []
    lo, hi = c.min_degree, c.max_degree
    for e in range(-hi, -lo + 1):
        gens.append(list(c.gens_at(-e)))
    for e in range(-hi + 1, -lo + 1):
        dorig = c.diff(-e + 1)      # original map -e+1 -> -e
        sk = c.gens_at(-e)          # new sources in degree e
        tk = c.gens_at(-e + 1)      # new targets in degree e-1
        m = zero_matrix(len(tk), len(sk))
        if dorig is not None:
            for r in range(len(sk)):
                for cx in range(len(tk)):
                    # every arrow is its own dual (the two p's trade places)
                    m[cx][r] = dorig[r][cx]
        diffs.append(m)
    return canonicalize(FreeComplex(-hi, gens, diffs))


# -- the hom complex -------------------------------------------------------

def hom_basis(x: FreeComplex, y: FreeComplex, n: int) -> list[tuple]:
    """Basis of Hom(x, y)_n: elements (i, src, tgt, w) with w indexing the
    arrow basis (F->F has the two-element basis {1, t})."""
    out = []
    for i in x.degrees():
        xg = x.gens_at(i)
        yg = y.gens_at(i + n)
        for s, ks in enumerate(xg):
            for t_, kt in enumerate(yg):
                if ks == "F" and kt == "F":
                    out.append((i, s, t_, 0))
                    out.append((i, s, t_, 1))
                else:
                    out.append((i, s, t_, 0))
    return out


def _arrow_of_basis(ks: str, kt: str, w: int) -> int:
    if ks == "F" and kt == "F":
        return 1 if w == 0 else 2
    return 1


def _coords_of_arrow(ks: str, kt: str, e: int):
    """Yield (w, coeff) pairs expressing an arrow in the hom basis."""
    if ks == "F" and kt == "F":
        if e & 1:
            yield (0, 1)
        if e & 2:
            yield (1, 1)
    elif e:
        yield (0, 1)


def hom_delta(x: FreeComplex, y: FreeComplex, n: int) -> FMatrix:
    """The differential Hom(x, y)_n -> Hom(x, y)_{n-1}."""
    src_basis = hom_basis(x, y, n)
    tgt_basis = hom_basis(x, y, n - 1)
    tindex = {b: k for k, b in enumerate(tgt_basis)}
    delta = FMatrix.zeros(len(tgt_basis), len(src_basis), 2)
    for col, (i, s, t_, w) in enumerate(src_basis):
        ks = x.gens_at(i)[s]
        kt = y.gens_at(i + n)[t_]
        e = _arrow_of_basis(ks, kt, w)
        dy = y.diff(i + n)
        if dy is not None:
            yk2 = y.gens_at(i + n - 1)
            for t2 in range(len(yk2)):
                comp = ecompose(ks, kt, yk2[t2], e, dy[t2][t_])
                for w2, cf in _coords_of_arrow(ks, yk2[t2], comp):
                    r = tindex[(i, s, t2, w2)]
                    delta.set(r, col, delta.get(r, col) ^ cf)
        dx = x.diff(i + 1)
        if dx is not None:
            xk2 = x.gens_at(i + 1)
            for s2 in range(len(xk2)):
                comp = ecompose(xk2[s2], ks, kt, dx[s][s2], e)
                for w2, cf in _coords_of_arrow(xk2[s2], kt, comp):
                    r = tindex[(i + 1, s2, t_, w2)]
                    delta.set(r, col, delta.get(r, col) ^ cf)
    return delta


def hom_complex_dim(x: FreeComplex, y: FreeComplex, n: int) -> int:
    """dim of the degree-n homology of the hom complex: the group of
    degree-n maps x -> y up to homotopy."""
    dn = hom_delta(x, y, n)
    dn1 = hom_delta(x, y, n + 1)
    return dn.nullity() - dn1.rank()


def chain_map_vector(f: ChainMap) -> tuple[list[tuple], list[int]]:
    basis = hom_basis(f.source, f.target, f.degree)
    vec = [0] * len(basis)
    index = {b: k for k, b in enumerate(basis)}
    for d, m in f.components.items():
        sk = f.source.gens_at(d)
        tk = f.target.gens_at(d + f.degree)
        for t_ in range(len(tk)):
            for s in range(len(sk)):
                for w, cf in _coords_of_arrow(sk[s], tk[t_], m[t_][s]):
                    vec[index[(d, s, t_, w)]] ^= cf
    return basis, vec


def chain_map_from_vector(x: FreeComplex, y: FreeComplex, n: int,
                          vec: list[int]) -> ChainMap:
    basis = hom_basis(x, y, n)
    comps: dict[int, list[list[int]]] = {}
    for val, (i, s, t_, w) in zip(vec, basis):
        if not val:
            continue
        m = comps.setdefault(i, zero_matrix(len(y.gens_at(i + n)),
                                            len(x.gens_at(i))))
        ks = x.gens_at(i)[s]
        kt = y.gens_at(i + n)[t_]
        m[t_][s] ^= _arrow_of_basis(ks, kt, w)
    return ChainMap(x, y, comps, n)


def null_homotopy(f: ChainMap) -> ChainMap | None:
    """A degree-(n+1) map h with f = d h + h d, or None if f is not a
    boundary in the mapping complex."""
    _, vec = chain_map_vector(f)
    if not any(vec):
        return ChainMap(f.source, f.target, {}, f.degree + 1)
    delta = hom_delta(f.source, f.target, f.degree + 1)
    sol = delta.solve(vec)
    if sol is None:
        return None
    return chain_map_from_vector(f.source, f.target, f.degree + 1, sol)


def is_null_homotopic(f: ChainMap) -> bool:
    """Whether a chain map bounds: f = d h + h d for some h."""
    return null_homotopy(f) is not None
