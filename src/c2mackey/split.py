"""Strand splitting for perfect symbol complexes, with replayable
certificates.

Every bounded complex of F/H sums over GF(2) is isomorphic to a direct
sum of strands (A_k, H(n), B_r) and contractible disks.  ``split``
finds such a decomposition by sweeping levels bottom-up.  A ``_Sweep``
runs one named step after another at each level: ``disks`` (identity
disks), ``b_strands``, ``h_minus`` and ``h_plus`` (B-strands and the two
H(n) families), ``a_strands`` (A-extensions) and ``close_level`` (new
strands at the generators left over); ``strands`` then reads off the
strand of each generator path.  Each basis change is recorded as a
``BasisMove``; replaying the certificate on the input complex reproduces
the literal direct sum, which is what ``verify_certificate`` checks.

Over an odd prime the category is semisimple: ``split_odd_mackey`` reads
points and disks off two ranks per differential, after refusing any
module that breaks the Mackey relations, any differential that is not a
Mackey map and any d*d != 0.

The move vocabulary: for generators i, j in one degree, ``add*`` moves
replace the inclusion of generator i by (iota_i + iota_j . phi) for an
arrow phi: kind_i -> kind_j, namely

    add       phi = 1   (F to F)      add_dot    phi = 1 (H to H)
    add_t     phi = t   (F to F)      add_pup    phi = p (F to H)
    add_u     phi = 1+t (F to F)      add_pdown  phi = p (H to F)

and ``twist_t`` (with j = i) replaces an F generator by its involution
image, which is what normalizes t-valued disk entries to literal 1's.
As t . iota_i = iota_i + iota_i . (1+t), ``twist_t`` is add_u with j = i.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import NamedTuple

from . import _schema as schema
from .complexes import (STRAND_SHAPES, ChainMap, FreeComplex, arrow_matrix,
                        check_strand_param, direct_sum_complexes, ecompose,
                        entry_ok, has_shape, illegal_arrow, orbit_matrix,
                        orbit_starts, realize, strand, strand_edge,
                        strand_param_ok, strand_top, theta_block,
                        validate_complex, wrong_shape)
from .gf2core import FMatrix, is_prime, random_invertible
from .mackey import (MackeyMap, MackeyModule, conjugate, counts_of_ranks,
                     direct_sum, indecomposable, validate_module, zero_module)

log = logging.getLogger("c2mackey.split")


class SplitError(RuntimeError):
    """Internal invariant of the splitting sweep violated (a bug, or an
    input that is not a valid complex)."""


@dataclass(frozen=True, order=True)
class Strand:
    kind: str     # "A" | "Hn" | "B" | "DiskF" | "DiskH" (+ odd-modulus kinds)
    param: int
    shift: int

    def to_json(self) -> dict:
        return {"kind": self.kind, "param": self.param, "shift": self.shift}

    @classmethod
    def from_json(cls, data: dict) -> "Strand":
        data = schema.obj(data, "a strand")
        kind = schema.name(data.get("kind"), _STRAND_KINDS, "strand kind")
        param = schema.integer(data, "param")
        check_strand_param(kind, param)
        return cls(kind, param, schema.integer(data, "shift"))


DISK_KINDS = ("DiskF", "DiskH", "DiskSTheta")
# the mod 2 strands, the odd-modulus points, then the disks
_STRAND_KINDS = ("A", "Hn", "B", "PtH", "PtSTheta") + DISK_KINDS


class BasisMove(NamedTuple):
    """One certificate move: ``variant`` on generators i and j of
    ``degree``.  A named tuple, so it is immutable, hashable and equal to
    the plain tuple (degree, variant, i, j)."""

    degree: int
    variant: str
    i: int
    j: int

    def to_json(self) -> dict:
        return {"degree": self.degree, "variant": self.variant,
                "i": self.i, "j": self.j}

    @classmethod
    def from_json(cls, data: dict) -> "BasisMove":
        data = schema.obj(data, "a basis move")
        mv = cls(schema.integer(data, "degree"),
                 schema.name(data.get("variant"), _MOVE_NAMES,
                             "move variant"),
                 schema.integer(data, "i"), schema.integer(data, "j"))
        if mv.i < 0 or mv.j < 0:
            raise ValueError("move indices must be >= 0")
        if mv.variant == "twist_t" and mv.j != mv.i:
            raise ValueError("a twist_t move has j = i")
        return mv


# variant -> (kind_i, kind_j, arrow code); twist_t is add_u with j = i, and
# comes last because the order of _MOVE_NAMES is part of the draw stream
_VARIANTS = {
    "add": ("F", "F", 1),
    "add_t": ("F", "F", 2),
    "add_u": ("F", "F", 3),
    "add_dot": ("H", "H", 1),
    "add_pup": ("F", "H", 1),
    "add_pdown": ("H", "F", 1),
    "twist_t": ("F", "F", 3),
}
_MOVE_NAMES = tuple(_VARIANTS)
_VARIANT_OF = {rule: name for name, rule in _VARIANTS.items()
               if name != "twist_t"}


def _variant_for(ki: str, kj: str, phi: int) -> str:
    variant = _VARIANT_OF.get((ki, kj, phi))
    if variant is None:
        raise SplitError(f"no move variant for arrow {phi} : {ki} -> {kj}")
    return variant


def _shape(seq: str) -> tuple[str, int] | None:
    """(kind, param) of the strand whose generator kinds, top first, are
    ``seq``; None if no strand has that shape (disks aside).  The inverse
    of ``STRAND_SHAPES`` over the four strands with ``len(seq)`` kinds."""
    n = len(seq)
    for kind, param in (("A", n - 1), ("Hn", n - 1), ("Hn", 1 - n),
                        ("B", n - 3)):
        if strand_param_ok(kind, param) and STRAND_SHAPES[kind](param) == seq:
            return kind, param
    return None


def _path_strand(seq: str, top: int, disk: bool) -> Strand | None:
    """The strand (or, if ``disk``, the disk) with generator kinds ``seq``
    (top first) and top degree ``top``, or None if the kinds form no
    strand."""
    shape = ("Disk" + seq[0], 0) if disk else _shape(seq)
    if shape is None:
        return None
    return Strand(*shape, top - strand_top(seq, disk))


def strand_complex(s: Strand) -> FreeComplex:
    """The canonical complex of one strand or disk, in its place."""
    c = strand(s.kind, s.param)
    c.min_degree += s.shift     # a new complex, so no copy to shift
    return c


@dataclass
class Decomposition:
    strands: list[Strand]
    certificate: list[BasisMove] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"strands": [s.to_json() for s in self.strands],
                "certificate": [m.to_json() for m in self.certificate]}

    @classmethod
    def from_json(cls, data: dict) -> "Decomposition":
        data = schema.obj(data, "a decomposition")
        strands = schema.items(data.get("strands"), dict, "strands")
        moves = schema.items(data.get("certificate", []), dict, "certificate")
        return cls([Strand.from_json(s) for s in strands],
                   [BasisMove.from_json(m) for m in moves])


def _move_level(c: FreeComplex, mv: BasisMove) -> int:
    """The level of ``c`` that ``mv`` acts on; raises ValueError if the
    move is not legal there."""
    variant, i, j = mv.variant, mv.i, mv.j
    if type(mv.degree) is not int or type(i) is not int or type(j) is not int:
        raise ValueError(f"move degree and indices must be integers: {mv}")
    li = mv.degree - c.min_degree
    if not 0 <= li < len(c.gens):
        raise ValueError(f"move degree {mv.degree} outside the complex")
    kinds = c.gens[li]
    n = len(kinds)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("move indices out of range")
    rule = _VARIANTS.get(variant)
    if rule is None:
        raise ValueError(f"unknown move variant {variant!r}")
    ki, kj, _ = rule
    if variant == "twist_t":
        if i != j:
            raise ValueError("a twist_t move has j = i")
    elif i == j:
        raise ValueError("add moves need distinct generators")
    if kinds[i] != ki or kinds[j] != kj:
        raise ValueError(f"{variant} needs kinds ({ki}, {kj}) at "
                         f"degree {mv.degree}")
    return li


def apply_move(c: FreeComplex, mv: BasisMove) -> None:
    """Apply one basis move in place (differential bookkeeping only).  An
    illegal move raises ValueError, and so does an arrow code that its
    slot does not have among the arrows the move reads: those into
    generator i and those out of generator j.  The arrows it writes gain
    legal codes by XOR, which keeps an illegal code illegal."""
    li = _move_level(c, mv)
    d, i, j = mv.degree, mv.i, mv.j
    rows, above, cols, below = (c.diff(d + 1), c.gens_at(d + 1), c.diff(d),
                                c.gens_at(d - 1))
    ki, kj = c.gens[li][i], c.gens[li][j]
    for ks, e in zip(above, rows[i]):
        if e and not entry_ok(ks, ki, e):
            raise ValueError(illegal_arrow(ks, ki, e, d))
    for kt, row in zip(below, cols):
        if row[j] and not entry_ok(kj, kt, row[j]):
            raise ValueError(illegal_arrow(kj, kt, row[j], d - 1))
    _move_arrows(_MOVE_CODES[mv.variant], i, j, rows, above, cols, below)


# variant -> (column codes, row codes) of its arrow phi : kind_i -> kind_j,
# each a map from a kind k to the tuple, indexed by arrow code e, of a
# composite: e : kind_j -> k after phi for the columns, and phi after
# e : k -> kind_i for the rows
_MOVE_CODES = {
    name: ({k: tuple(ecompose(ki, kj, k, phi, e)
                     for e in range(4 if kj == k == "F" else 2))
            for k in "FH"},
           {k: tuple(ecompose(k, ki, kj, e, phi)
                     for e in range(4 if k == ki == "F" else 2))
            for k in "FH"})
    for name, (ki, kj, phi) in _VARIANTS.items()}


def _move_arrows(codes, i: int, j: int, rows, row_kinds, cols,
                 col_kinds) -> None:
    """The arrow updates of one basis move on generators i, j of a degree:
    ``rows`` is an arrow matrix whose rows are that degree's generators
    (its columns of kinds ``row_kinds``), ``cols`` one whose columns are
    (its rows of kinds ``col_kinds``).  ``codes`` is the move's
    ``_MOVE_CODES`` entry, so each composite is one lookup: column i
    gains column j composed with the move's arrow, and row j gains row
    i.  Each entry is read before it is written, so i = j (twist_t)
    works too.  The kernel of ``apply_move`` and of the sweep's twists;
    the sweep's runs of other moves make the same updates."""
    col_codes, row_codes = codes
    for row, k in zip(cols, col_kinds):
        e = row[j]
        if e:
            row[i] ^= col_codes[k][e]
    dst = rows[j]
    for s, e in enumerate(rows[i]):
        if e:
            dst[s] ^= row_codes[row_kinds[s]][e]


def _check_move(kinds: list[str], level: int, variant: str, i: int,
                j: int) -> None:
    """Refuse a sweep move that a wrong step would make: the kinds at i and
    j (``kinds`` are the level's) not the variant's, or i = j for another
    variant than twist_t.  The sweep draws its moves from its own state,
    so the bounds ``apply_move`` checks are not checked."""
    ki, kj, _ = _VARIANTS[variant]
    if kinds[i] != ki or kinds[j] != kj or (i == j) != (variant == "twist_t"):
        raise SplitError(f"illegal move {variant} on generators {i}, {j} "
                         f"at level {level}")


# variant -> (kind_i, kind_j, whether i = j, its row additions (row of
# j's slots, row of i's slots)), one addition per nonzero entry of its
# arrow's free-orbit block; twist_t's block would add i's slots to
# themselves, so it is their swap, as three additions
_SWAP = ((0, 1), (1, 0), (0, 1))
_MOVE_RULES = {
    name: (ki, kj, name == "twist_t", _SWAP if name == "twist_t" else tuple(
        (a, b) for a, row in enumerate(theta_block(ki, kj, phi).to_rows())
        for b, v in enumerate(row) if v))
    for name, (ki, kj, phi) in _VARIANTS.items()}


def _replay_orbits(c: FreeComplex, certificate: list[BasisMove],
                   with_isos: bool = False):
    """Replay ``certificate`` on the free-orbit levels of ``c`` (see
    ``orbit_matrix``), refusing its first illegal move as ``apply_move``
    does, then any differential of the wrong shape, and then any arrow
    code that its slot does not have in a differential a move acts on.

    A move on generators i, j at level L is the basis change P = 1 + N,
    where N holds its arrow's block at (slots of j, slots of i), or for
    twist_t the swap of i's two slots; either way P = P^-1 (N^2 = 0).  It
    sends the differential D_L into L to P D_L, a row operation: each row
    of j's slots gains the rows of i's slots its block names, or two rows
    swap.  It sends D_(L-1) out of L to D_(L-1) P, a column operation,
    which is not applied but gathered into U_L, the product of the
    level's P's in move order: the same row operations, applied to the
    identity in reverse order.  Row and column operations commute, so the
    replayed differential out of L is the row-operated D_(L-1) times U_L:
    one product per differential.  A differential between levels no move
    acts on is copied as it is.

    Returns (replayed complex, vs, us): when ``with_isos``, per level L,
    ``us[L]`` is U_L and ``vs[L]`` its inverse, the row operations applied
    to the identity in move order, both free-orbit matrices; otherwise
    both are None."""
    gens, lo = c.gens, c.min_degree
    starts = [orbit_starts(kinds) for kinds in gens]
    # per level, its moves, each as (first row of j's slots, first row of
    # i's slots, the row additions of its block); per degree, each
    # generator's first slot by kind, against which every move is checked
    # as _move_level checks it (dicts match 1.0 to 1, so the types too)
    ops: list[list[tuple]] = [[] for _ in gens]
    levels = {}
    for d, kinds, level_starts, level_ops in zip(c.degrees(), gens, starts,
                                                 ops):
        slots: dict[str, dict[int, int]] = {"F": {}, "H": {}}
        for g, (k, start) in enumerate(zip(kinds, level_starts)):
            if k in slots:
                slots[k][g] = start
        levels[d] = slots, level_ops
    for mv in certificate:
        degree, variant, i, j = mv
        level, rule = levels.get(degree), _MOVE_RULES.get(variant)
        if (level is not None and rule is not None
                and type(degree) is type(i) is type(j) is int):
            slots, level_ops = level
            si, sj = slots[rule[0]].get(i), slots[rule[1]].get(j)
            if si is not None and sj is not None and (i == j) == rule[2]:
                level_ops.append((sj, si, rule[3]))
                continue
        _move_level(c, mv)      # raises the move's ValueError
        raise SplitError(f"replay refused the legal move {mv}")

    def on_identity(li, level_ops):
        m = FMatrix.identity(starts[li][-1])
        m.add_row_blocks(level_ops)
        return m

    us = [on_identity(li, reversed(level_ops)) if level_ops or with_isos
          else None for li, level_ops in enumerate(ops)]
    diffs = []
    for li, m in enumerate(c.diffs):
        sk, tk = gens[li + 1], gens[li]
        if not has_shape(m, len(tk), len(sk)):
            raise ValueError(wrong_shape(lo + li))
        if not ops[li] and not ops[li + 1]:
            diffs.append([row[:] for row in m])
            continue
        try:
            d = orbit_matrix(m, sk, tk)
        except KeyError as exc:     # orbit_matrix refused an arrow code
            raise ValueError(illegal_arrow(*exc.args[0], lo + li)) from None
        d.add_row_blocks(ops[li])
        if ops[li + 1]:
            d = d.mul(us[li + 1])
        diffs.append(arrow_matrix(d, sk, tk))
    out = FreeComplex(lo, [list(k) for k in gens], diffs)
    if not with_isos:
        return out, None, None
    return out, [on_identity(li, level_ops)
                 for li, level_ops in enumerate(ops)], us


def replay(c: FreeComplex, certificate: list[BasisMove]) -> FreeComplex:
    """The complex a certificate's moves turn ``c`` into (``c`` itself is
    left alone); the first illegal move raises ValueError."""
    return _replay_orbits(c, certificate)[0]


# -- the sweep -----------------------------------------------------------

def split(c: FreeComplex, validate: bool = True) -> Decomposition:
    """Decompose a complex into strands and disks, with a certificate.

    Deterministic; raises ValueError on an invalid complex and SplitError
    if an internal invariant breaks (which would be a bug).  With
    ``validate=False`` only the shape of each differential is checked (a
    wrong one raises ValueError): an illegal arrow code that the sweep
    trips over raises ValueError naming the violations, and on any other
    invalid complex ``split`` raises SplitError or returns a decomposition
    that ``verify_certificate`` rejects.
    """
    if validate:
        _refuse_invalid(c)
    else:
        # the generators of each degree, none past the top (see diff)
        sizes = [*map(len, c.gens), *repeat(0, len(c.diffs) + 1)]
        for li, m in enumerate(c.diffs):
            if not has_shape(m, sizes[li], sizes[li + 1]):
                raise ValueError(wrong_shape(c.min_degree + li))
    sweep = _Sweep(c)
    try:
        for li in range(1, len(sweep.work.gens)):
            sweep.start_level(li)
            sweep.disks()
            sweep.b_strands()
            sweep.h_minus()
            sweep.h_plus()
            sweep.a_strands()
            sweep.close_level()
    except (IndexError, KeyError, TypeError):
        # an unvalidated complex is checked only once the sweep trips
        if not validate:
            _refuse_invalid(c)
        raise
    strands = sweep.strands()
    log.debug("split: %d generators -> %d strands in %d moves",
              c.num_gens(), len(strands), len(sweep.moves))
    return Decomposition(strands, sweep.moves)


def _refuse_invalid(c: FreeComplex) -> None:
    """Raise ValueError naming every violation ``validate_complex`` finds
    in ``c``, if it finds any."""
    bad = validate_complex(c)
    if bad:
        raise ValueError("not a valid complex: " + "; ".join(bad)) from None


class _Sweep:
    """The state of one ``split``: a working copy of the complex, the moves
    applied to it, and the strands built so far, each a list of (level,
    generator) pairs, top first.  Level ``li`` is the current one: its
    generators are the sources of the differential into level ``li - 1``,
    whose generators are the tops of the strands below.

    The moves of one placement come in runs that share a generator: a run
    of ``_clear_row`` adds the pivot source's column into other columns, a
    run of ``_clear_column`` or of one cascade step adds one row into other
    rows, and no move of a run writes what it shares.  ``_moves_onto`` and
    ``_moves_from`` apply a run, reading the shared column or row once:
    most of it is zero at large sizes.  A ``twist_t`` is one move, made by
    ``_move_arrows`` as ``apply_move`` makes it."""

    def __init__(self, c: FreeComplex):
        self.work = c.copy()
        self.moves: list[BasisMove] = []
        self.members: dict[int, list[tuple[int, int]]] = {}
        self.strand_of: dict[tuple[int, int], int] = {}
        self.disk_sids: set[int] = set()
        w = self.work
        # per level, the arguments of _move_arrows after its move's
        # generators: (d_in, kinds above, d_out, kinds below); the moves
        # change the differentials in place
        self.levels = [(w.diff(d + 1), w.gens_at(d + 1), w.diff(d),
                        w.gens_at(d - 1)) for d in w.degrees()]
        for g in range(len(w.gens[0]) if w.gens else 0):
            self.new_strand([(0, g)])

    def new_strand(self, elems: list[tuple[int, int]]) -> None:
        sid = len(self.members)
        self.members[sid] = elems
        for e in elems:
            self.strand_of[e] = sid

    def _moves_onto(self, level: int, j: int,
                    run: list[tuple[str, int]]) -> None:
        """Apply and record the moves (variant, i, j) at ``level`` of
        ``run``, a non-empty list of (variant, i) pairs, in order.  Each
        move adds column j of the differential out of the level into its
        column i, and row i of the differential into the level into row j
        (see ``_move_arrows``).  No move writes column j, so its nonzeros
        are read once for the run."""
        rows, row_kinds, cols, col_kinds = self.levels[level]
        kinds, degree = self.work.gens[level], self.work.min_degree + level
        shared = [(row, k, row[j]) for row, k in zip(cols, col_kinds)
                  if row[j]]
        dst = rows[j]
        for variant, i in run:
            _check_move(kinds, level, variant, i, j)
            col_codes, row_codes = _MOVE_CODES[variant]
            for row, k, e in shared:
                row[i] ^= col_codes[k][e]
            for s, e in enumerate(rows[i]):
                if e:
                    dst[s] ^= row_codes[row_kinds[s]][e]
            self.moves.append(BasisMove(degree, variant, i, j))

    def _moves_from(self, level: int, i: int,
                    run: list[tuple[str, int]]) -> None:
        """Apply and record the moves (variant, i, j) at ``level`` of
        ``run``, a non-empty list of (variant, j) pairs, in order, as
        ``_moves_onto`` does.  No move writes row i of the differential
        into the level, so its nonzeros are read once for the run."""
        rows, row_kinds, cols, col_kinds = self.levels[level]
        kinds, degree = self.work.gens[level], self.work.min_degree + level
        shared = [(s, row_kinds[s], e) for s, e in enumerate(rows[i]) if e]
        for variant, j in run:
            _check_move(kinds, level, variant, i, j)
            col_codes, row_codes = _MOVE_CODES[variant]
            for row, k in zip(cols, col_kinds):
                e = row[j]
                if e:
                    row[i] ^= col_codes[k][e]
            dst = rows[j]
            for s, k, e in shared:
                dst[s] ^= row_codes[k][e]
            self.moves.append(BasisMove(degree, variant, i, j))

    def start_level(self, li: int) -> None:
        self.li = li
        self.D = self.work.diffs[li - 1]
        self.src = self.work.gens[li]
        self.tgt = self.work.gens[li - 1]
        self.assigned = [False] * len(self.src)
        self.of_kind = {"F": [], "H": []}    # the sources, by kind
        for a, k in enumerate(self.src):
            self.of_kind[k].append(a)

    # -- step 1 ----------------------------------------------------------

    def disks(self) -> None:
        """Pair every source with an iso entry (H -> H by 1, then F -> F by
        1 or t) into a disk with its first such target, clearing the rest
        of the disk's row and column, in one pass over the H sources and
        then the F sources.  A disk only adds to another source's column
        the disk's column composed with p or 1 + t, never an iso, so no
        source the pass has left gains an iso entry; a last scan checks."""
        D, li = self.D, self.li
        for alpha in self.of_kind["H"] + self.of_kind["F"]:
            beta = self._first_iso(alpha)
            if beta is None:
                continue
            sid = self.strand_of[(li - 1, beta)]
            if self.members[sid] != [(li - 1, beta)] or sid in self.disk_sids:
                raise SplitError("iso entry into a non-singleton generator")
            if D[beta][alpha] == 2:
                _check_move(self.src, li, "twist_t", alpha, alpha)
                _move_arrows(_MOVE_CODES["twist_t"], alpha, alpha,
                             *self.levels[li])
                self.moves.append(BasisMove(self.work.min_degree + li,
                                            "twist_t", alpha, alpha))
            if D[beta][alpha] != 1:
                raise SplitError("disk entry failed to normalize")
            self._clear_row(alpha, beta, 1)
            self._clear_column(alpha, beta)
            if any(D[r][alpha] != (r == beta) for r in range(len(self.tgt))):
                raise SplitError("disk column not clean")
            self.members[sid] = [(li, alpha), (li - 1, beta)]
            self.strand_of[(li, alpha)] = sid
            self.disk_sids.add(sid)
            self.assigned[alpha] = True
        if any(not placed and self._first_iso(a) is not None
               for a, placed in enumerate(self.assigned)):
            raise SplitError("a source kept an iso entry past the disk pass")

    def _first_iso(self, a: int) -> int | None:
        """The first target that source a reaches by an iso (1, or t from
        an F), or None."""
        D, kind = self.D, self.src[a]
        isos = (1,) if kind == "H" else (1, 2)
        for r, kr in enumerate(self.tgt):
            if kr == kind and D[r][a] in isos:
                return r
        return None

    # -- steps 2..5: strand extensions -----------------------------------

    def b_strands(self) -> None:
        """An H source closes an F..F H strand into a B strand."""
        self._extend_all("H", ("HEND",), longest=False)

    def h_minus(self) -> None:
        """An H source closes an A strand into an H(-n), longest first."""
        self._extend_all("H", ("A",), longest=True)

    def h_plus(self) -> None:
        """An F source extends an H(n) with n >= 0, shortest first."""
        self._extend_all("F", ("HEND", "H0"), longest=False)

    def a_strands(self) -> None:
        """An F source extends an A strand, longest first."""
        self._extend_all("F", ("A",), longest=True)

    def _extend_all(self, src_kind: str, tgt_types: tuple[str, ...],
                    longest: bool) -> None:
        """Place sources of ``src_kind`` one at a time onto strands whose
        top type is in ``tgt_types``: each time the (length, target,
        source) least pair, with length negated when ``longest``.

        ``best`` keeps each unplaced source's least key.  Placing a on r
        changes only the columns of D that ``_clear_row`` moves (the
        cascade's moves at level li - 1 then add row r, which holds only
        a, so they change column a alone) and the top of r's strand, at
        which no unplaced source keeps an entry.  So only those columns
        are rescanned, and the least key in ``best`` is the pair a scan of
        every source would pick."""
        D, src, assigned = self.D, self.src, self.assigned
        top_info = self._top_info
        lengths = {}    # per target: its signed length, or None if not one
        best = {}
        todo = self.of_kind[src_kind]
        while True:
            for a in todo:
                if assigned[a] or src[a] != src_kind:
                    continue
                key = None
                for r, row in enumerate(D):
                    if not row[a]:
                        continue
                    if r in lengths:
                        n = lengths[r]
                    else:
                        info = top_info(r)
                        n = lengths[r] = (
                            None if info is None or info[0] not in tgt_types
                            else -info[1] if longest else info[1])
                    if n is not None and (key is None or n < key[0]):
                        key = (n, r, a)
                if key is None:
                    best.pop(a, None)
                else:
                    best[a] = key
            if not best:
                return
            _, r, a = min(best.values())
            del best[a]
            del lengths[r]
            todo = self._extend(a, r)

    def _top_info(self, r: int) -> tuple[str, int] | None:
        """(type, n) of the strand whose top is target r, where n + 1 is
        its length, or None if r cannot absorb a new element: a disk, or
        an H on top of more generators (a completed B or H(-n)).  Every
        step keeps a strand shape, so its top and bottom kinds tell it:
        F's only are A_n, F's over an H are H(n) (H0 for the lone H)."""
        top = (self.li - 1, r)
        sid = self.strand_of[top]
        if sid in self.disk_sids:
            return None
        mem = self.members[sid]
        if mem[0] != top:
            raise SplitError("level generator is not a strand top")
        n = len(mem) - 1
        if self.tgt[r] == "H":
            return None if n else ("H0", 0)
        L, g = mem[-1]
        return ("A", n) if self.work.gens[L][g] == "F" else ("HEND", n)

    def _extend(self, alpha: int, beta: int) -> list[int]:
        """Put source alpha on top of the strand whose top is target beta;
        returns the other sources whose columns changed."""
        li = self.li
        moved = self._clear_row(alpha, beta, self.D[beta][alpha])
        sid = self.strand_of[(li - 1, beta)]
        self._absorb_cascade(alpha, self.members[sid])
        self.members[sid] = [(li, alpha)] + self.members[sid]
        self.strand_of[(li, alpha)] = sid
        self.assigned[alpha] = True
        return moved

    # -- the basis moves of one placement ---------------------------------

    def _clear_row(self, alpha: int, beta: int, e0: int) -> list[int]:
        """Clear every other source entry into the pivot target beta,
        by adding to it a phi-multiple of alpha with e0 . phi matching
        the stray entry; returns the sources so changed.  Each move
        changes one stray source's column of D and no entry of row beta
        but its own, so the strays and their arrows are read off row beta
        first and cleared by one run of ``_moves_onto``."""
        src = self.src
        ka, kb, row = src[alpha], self.tgt[beta], self.D[beta]
        run = []
        for c2, e2 in enumerate(row):
            if c2 == alpha or not e2:
                continue
            kc = src[c2]
            if kc == "H" and ka == "F" and not (kb == "F" and e0 == 1):
                # only a literal F-F disk pivot can absorb an H source;
                # in steps 4-5 the H pivots have already been exhausted
                raise SplitError("H source entry survived past the "
                                 "H-pivot steps")
            phi = e2 if kc == ka == kb == "F" and e0 == 1 else 1
            run.append((_variant_for(kc, ka, phi), c2))
        if not run:
            return run
        self._moves_onto(self.li, alpha, run)
        moved = [c2 for _, c2 in run]
        for c2 in moved:
            if row[c2]:
                raise SplitError("phase A failed to clear a source")
        return moved

    def _clear_column(self, alpha: int, beta: int) -> None:
        """Clear every other target entry of the disk source alpha by
        adding to its pivot target beta the stray arrow (alpha and beta
        have one kind, and the pivot entry is 1).  Each move changes one
        stray target's row of D and no other entry of column alpha, so
        one run of ``_moves_from`` clears them all."""
        D, tgt = self.D, self.tgt
        kb = tgt[beta]
        run = [(_variant_for(kb, tgt[r2], row[alpha]), r2)
               for r2, row in enumerate(D) if r2 != beta and row[alpha]]
        if run:
            self._moves_from(self.li - 1, beta, run)
            for _, r2 in run:
                if D[r2][alpha]:
                    raise SplitError("disk phase B failed to clear a "
                                     "target")

    def _absorb_cascade(self, alpha: int, mem: list[tuple[int, int]]) -> None:
        """Walk down the strand that alpha now tops, clearing every entry
        from each member's predecessor into a generator parallel to it:
        at each member, one run of ``_moves_from`` that adds the member's
        row to each parallel's."""
        gens, diffs = self.work.gens, self.work.diffs
        pred = alpha
        for (L, cur) in mem:
            Dm = diffs[L]
            if not Dm[cur][pred]:
                raise SplitError("cascade lost the strand entry")
            kinds = gens[L]
            k_cur = kinds[cur]
            run = []
            for r, row in enumerate(Dm):
                if r == cur or not row[pred]:
                    continue
                if k_cur == "F" and kinds[r] != "F":
                    raise SplitError("a parallel strand ends above "
                                     "the selected one")
                run.append((_variant_for(k_cur, kinds[r], 1), r))
            if run:
                self._moves_from(L, cur, run)
                for _, r in run:
                    if Dm[r][pred]:
                        raise SplitError("cascade failed to clear a "
                                         "parallel")
            pred = cur

    # -- closing a level, and the sweep ---------------------------------------

    def close_level(self) -> None:
        """Start a new strand at every source that no step placed."""
        D, li = self.D, self.li
        for a, placed in enumerate(self.assigned):
            if placed:
                continue
            if any(row[a] for row in D):
                raise SplitError("unassigned generator still has "
                                 "differential entries")
            self.new_strand([(li, a)])

    def strands(self) -> list[Strand]:
        lo, gens = self.work.min_degree, self.work.gens
        out = []
        for sid, mem in self.members.items():
            seq = "".join(gens[L][g] for (L, g) in mem)
            s = _path_strand(seq, lo + mem[0][0], sid in self.disk_sids)
            if s is None:
                raise SplitError(f"generator path {seq} is not a strand shape")
            out.append(s)
        out.sort()
        return out


# -- verification -----------------------------------------------------------

def strand_paths(c: FreeComplex) -> list[tuple[Strand, list[tuple[int, int]]]] | None:
    """Parse a complex as a literal disjoint sum of strands and disks,
    keeping the generator path of each piece (as (level, index) pairs,
    top first).  None if the complex is not in literal split form.
    """
    if not all(map(isinstance, chain.from_iterable(chain.from_iterable(
            c.diffs)), repeat(int))):
        return None                 # an arrow code is an int (entry_ok)
    out_edge: dict[tuple[int, int], tuple[int, int, int]] = {}
    in_deg: dict[tuple[int, int], int] = {}
    for li, m in enumerate(c.diffs):
        for r, row in enumerate(m):
            for s in compress(range(len(row)), row):
                src, tgt = (li + 1, s), (li, r)
                if src in out_edge or in_deg.get(tgt):
                    return None
                out_edge[src] = (li, r, row[s])
                in_deg[tgt] = 1
    pieces = []
    for li in range(len(c.gens)):
        for g in range(len(c.gens[li])):
            node = (li, g)
            if in_deg.get(node):
                continue            # not a path top
            nodes, edges = [node], []
            while nodes[-1] in out_edge:
                l2, g2, e = out_edge[nodes[-1]]
                nodes.append((l2, g2))
                edges.append(e)
            seq = "".join(c.gens[L][k] for L, k in nodes)
            s = _parse_path(seq, edges, c.min_degree + li)
            if s is None:
                return None
            pieces.append((s, nodes))
    return pieces


def _components_of(c: FreeComplex) -> list[Strand] | None:
    """The strand multiset of a complex in literal split form (sorted),
    or None if it is not such a sum."""
    pieces = strand_paths(c)
    return None if pieces is None else sorted(s for s, _ in pieces)


def _parse_path(seq: str, edges: list[int], top: int) -> Strand | None:
    # two generators of one kind joined by 1 form a disk
    disk = len(seq) == 2 and edges == [1] and seq[0] == seq[1]
    if any(e != strand_edge(a, b, disk)
           for a, b, e in zip(seq, seq[1:], edges)):
        return None
    return _path_strand(seq, top, disk)


def verify_certificate(c: FreeComplex, dec: Decomposition) -> bool:
    """Replay the certificate and check the result is literally the listed
    sum of strands and disks (up to generator numbering)."""
    try:
        final = replay(c, dec.certificate)
    except ValueError:
        return False
    got = _components_of(final)
    if got is None:
        return False
    return Counter(got) == Counter(dec.strands)


def certificate_isos(c: FreeComplex,
                     certificate: list[BasisMove]) -> tuple[ChainMap, ChainMap]:
    """The inverse isomorphisms (V : c -> replayed, U : replayed -> c)
    realized by a certificate, as degree-0 chain maps: per degree, V is
    the product of its moves' row operations and U that of their column
    operations (see ``_replay_orbits``)."""
    work, vs, us = _replay_orbits(c, certificate, with_isos=True)
    V, U = {}, {}
    for d, kinds, v, u in zip(c.degrees(), c.gens, vs, us):
        V[d] = arrow_matrix(v, kinds, kinds)
        U[d] = arrow_matrix(u, kinds, kinds)
    return ChainMap(c, work, V, 0), ChainMap(work, c, U, 0)


def decomposition_sum(strands: list[Strand]) -> FreeComplex:
    """The canonical complex realizing a strand multiset."""
    return direct_sum_complexes([strand_complex(s) for s in strands])


# -- random generation -------------------------------------------------------

_RANDOM_KINDS = ("A", "Hn", "B", "DiskF", "DiskH")


def random_strand(rng, max_param: int) -> Strand:
    """A strand or disk of a kind drawn from ``_RANDOM_KINDS``, with a
    param up to ``max_param`` and a shift in -4..4."""
    kind = rng.choice(_RANDOM_KINDS)
    if kind == "A" or kind == "B":
        param = rng.randint(0, max_param)
    elif kind == "Hn":
        param = rng.randint(-max_param, max_param)
    else:
        param = 0
    return Strand(kind, param, rng.randint(-4, 4))


def random_legal_moves(c: FreeComplex, rng, count: int) -> list[BasisMove]:
    """Draw up to ``count`` random moves that are legal on ``c`` (kinds
    never change under moves, so each stays legal after the ones before
    it).  Nothing is applied; the caller replays the moves.  Fewer than
    ``count`` come back when the draws run out, after 50 attempts per
    requested move, for example when ``c`` has no legal move at all.

    The draw order (degree, variant, i, j) is part of the contract.  Each
    attempt picks, as ``rng.choice`` would: a nonempty degree (in
    increasing order), a variant (``_MOVE_NAMES``: the add variants, then
    twist_t), i and then j among that degree's generators of the variant's
    kinds, in generator order (twist_t draws only i).  When the degree has
    no generator of a kind the variant needs, the attempt draws neither i
    nor j.  Each pick among n items is the loop ``Random.choice`` runs
    (``Random._randbelow_with_getrandbits``): ``getrandbits(n.bit_length())``
    until the result is below n, written inline here.  So a seed gives the
    same moves, and leaves ``rng`` in the same state, from one version to
    the next: ``gen`` output and every seeded corpus depend on it.  An
    ``rng`` whose class picks another way (a ``random.Random`` subclass
    that overrides only ``random()``, say) raises TypeError before any
    draw."""
    cls = type(rng)
    if (getattr(cls, "_randbelow", None)
            is not random.Random._randbelow_with_getrandbits
            or getattr(cls, "choice", None) is not random.Random.choice):
        raise TypeError(
            "random_legal_moves needs a random.Random whose choice() draws "
            f"by getrandbits rejection; {cls.__name__} does not")
    # one row per nonempty degree, one slot per move name: None where the
    # degree lacks a kind the variant needs, else what its draws need
    table = []
    for d, kinds in zip(c.degrees(), c.gens):
        if not kinds:
            continue
        by_kind = {k: [i for i, ki in enumerate(kinds) if ki == k]
                   for k in ("F", "H")}
        row = []
        for variant in _MOVE_NAMES:
            if variant == "twist_t":  # draws only i
                si, sj = by_kind["F"], None
            else:
                ki, kj, _ = _VARIANTS[variant]
                si, sj = by_kind[ki], by_kind[kj]
            if si and sj != []:
                nj = len(sj) if sj else 0
                row.append((d, variant, si, len(si), len(si).bit_length(),
                            sj, nj, nj.bit_length()))
            else:
                row.append(None)
        table.append(row)
    nd, nv = len(table), len(_MOVE_NAMES)
    kd, kv = nd.bit_length(), nv.bit_length()
    getrandbits = rng.getrandbits
    moves = []
    wanted = count      # the moves still to draw
    for _ in repeat(None, count * 50 if table else 0):
        r = getrandbits(kd)
        while r >= nd:
            r = getrandbits(kd)
        row = table[r]
        r = getrandbits(kv)
        while r >= nv:
            r = getrandbits(kv)
        slot = row[r]
        if slot is None:
            continue
        d, variant, si, ni, bi, sj, nj, bj = slot
        r = getrandbits(bi)
        while r >= ni:
            r = getrandbits(bi)
        j = i = si[r]
        if sj is not None:      # not twist_t, which draws only i
            r = getrandbits(bj)
            while r >= nj:
                r = getrandbits(bj)
            j = sj[r]
            if i == j:
                continue
        moves.append(BasisMove(d, variant, i, j))
        wanted -= 1
        if not wanted:
            break
    return moves


def random_scrambled_complex(rng, max_strands: int = 8, max_param: int = 6,
                             max_moves: int = 200):
    """(complex, planted multiset): a random strand sum hit with random
    legal moves."""
    n = rng.randint(1, max_strands)
    planted = [random_strand(rng, max_param) for _ in range(n)]
    c = decomposition_sum(planted)
    moves = random_legal_moves(c, rng, rng.randint(0, max_moves))
    scrambled = replay(c, moves)
    return scrambled, Counter(planted)


# -- odd modulus --------------------------------------------------------------

def split_odd(c: FreeComplex, ell: int) -> list[Strand]:
    """Decompose a symbol complex mod an odd prime: points and disks.

    ``split_odd_mackey`` splits the canonical lift of the symbol arrows,
    refusing it with ValueError where d*d != 0 mod l (which can happen
    even when the mod-2 complex is valid), or where l is not an odd prime.
    """
    return split_odd_mackey(*realize(c, ell), ell, c.min_degree)


def split_odd_mackey(mods: list[MackeyModule], maps: list[MackeyMap],
                     ell: int, min_degree: int) -> list[Strand]:
    """Semisimple splitting of a Mackey chain complex over an odd prime:
    ``mods[i]`` sits in degree ``min_degree + i``, and ``maps[i]`` goes
    from ``mods[i + 1]`` to ``mods[i]``.

    Away from 2 a module is a sum of H and STheta, told apart by the
    dimensions of its two levels, so two ranks per differential give the
    answer: its image is one DiskH per unit of dot rank and one DiskSTheta
    per further unit of theta rank, and the homology at each degree (on
    each level, dim - rank out - rank in) gives PtH and PtSTheta points
    alike.  A modulus that is not an odd prime raises ValueError naming
    it; a module over another modulus, a module that breaks the Mackey
    relations, a differential that is not a map of Mackey modules, or
    d*d != 0, raises ValueError naming the degree.
    """
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"the modulus {ell} is not an odd prime")
    if len(maps) != max(len(mods) - 1, 0):
        raise ValueError(f"{len(mods)} modules need {len(mods) - 1} "
                         f"differentials, not {len(maps)}")
    for i, m in enumerate(mods):
        bad = ([f"it is over GF({m.ell}), not GF({ell})"] if m.ell != ell
               else validate_module(m))
        if bad:
            raise ValueError(f"the module in degree {min_degree + i} is not "
                             f"a Mackey module: {bad[0]}")
    ranks = [(0, 0)]        # ranks[i + 1]: (theta, dot) rank of maps[i]
    for i, f in enumerate(maps):
        src, tgt, ft, fd = mods[i + 1], mods[i], f.f_theta, f.f_dot
        d = min_degree + i
        if not ((ft.nrows, ft.ncols, fd.nrows, fd.ncols)
                == (tgt.dim_theta, src.dim_theta, tgt.dim_dot, src.dim_dot)
                and ft.mul(src.t) == tgt.t.mul(ft)
                and ft.mul(src.p_up) == tgt.p_up.mul(fd)
                and fd.mul(src.p_down) == tgt.p_down.mul(ft)):
            raise ValueError(f"the differential from degree {d + 1} to {d} "
                             f"is not a map of Mackey modules")
        if i + 1 < len(maps):
            comp = f.compose(maps[i + 1])
            if not (comp.f_theta.is_zero() and comp.f_dot.is_zero()):
                raise ValueError(f"d*d != 0 mod {ell} between degrees "
                                 f"{d + 2} and {d}")
        ranks.append((ft.rank(), fd.rank()))
    ranks.append((0, 0))
    strands: list[Strand] = []
    for i, m in enumerate(mods):
        (out_t, out_d), (in_t, in_d) = ranks[i], ranks[i + 1]
        for prefix, theta, dot in (("Pt", m.dim_theta - out_t - in_t,
                                    m.dim_dot - out_d - in_d),
                                   ("Disk", in_t, in_d)):
            for kind, n in counts_of_ranks(ell, theta, dot).items():
                strands += [Strand(prefix + kind, 0, min_degree + i)] * n
    strands.sort()
    return strands


# random_odd_complex plants 1 to 6 points and 0 to 4 disks in degrees -4..4
_ODD_POINTS, _ODD_DISKS, _ODD_SPAN = 6, 4, 4


def random_odd_complex(rng, ell: int):
    """(modules, differentials, planted multiset, min_degree) for the odd
    splitter fuzz: planted points and disks conjugated by arbitrary
    levelwise basis changes."""
    span = _ODD_SPAN
    pts = [(rng.choice(("PtH", "PtSTheta")), rng.randint(-span, span))
           for _ in range(rng.randint(1, _ODD_POINTS))]
    disks = [(rng.choice(("DiskH", "DiskSTheta")), rng.randint(-span, span - 1))
             for _ in range(rng.randint(0, _ODD_DISKS))]
    planted = Counter([Strand(k, 0, d) for k, d in pts]
                      + [Strand(k, 0, s) for k, s in disks])
    lo = min([d for _, d in pts] + [s for _, s in disks])
    hi = max([d for _, d in pts] + [s + 1 for _, s in disks])

    # the module kinds at each degree, and the (theta, dot) identity blocks
    # of each differential: a disk at s joins its top in degree s + 1 to its
    # bottom in degree s, at their offsets within the two levels
    slots: list[list[str]] = [[] for _ in range(hi - lo + 1)]
    for kind, d in pts:
        slots[d - lo].append(kind.removeprefix("Pt"))
    one = FMatrix.identity(1, ell)
    blocks: list[tuple[list, list]] = [([], []) for _ in range(hi - lo)]
    for kind, s in disks:
        mk = kind.removeprefix("Disk")
        top, bot = slots[s + 1 - lo], slots[s - lo]
        blocks[s - lo][0].append((len(bot), len(top), one))
        if mk == "H":
            blocks[s - lo][1].append((bot.count("H"), top.count("H"), one))
        top.append(mk)
        bot.append(mk)

    mods = [direct_sum(*[indecomposable(mk, ell) for mk in level])
            if level else zero_module(ell) for level in slots]
    gts = [random_invertible(m.dim_theta, ell, rng) for m in mods]
    gds = [random_invertible(m.dim_dot, ell, rng) for m in mods]
    new_mods = [conjugate(m, gt, gd) for m, gt, gd in zip(mods, gts, gds)]

    def moved(g, i, level_blocks):
        """A level B of the planted differential out of degree lo + i + 1,
        in the changed bases: g[i] . B . g[i + 1]^-1."""
        planted_map = FMatrix.from_blocks(ell, g[i].nrows, g[i + 1].nrows,
                                          level_blocks)
        return g[i].mul(planted_map).mul(g[i + 1].invert())

    new_maps = [MackeyMap(new_mods[i + 1], new_mods[i], moved(gts, i, bt),
                          moved(gds, i, bd))
                for i, (bt, bd) in enumerate(blocks)]
    return new_mods, new_maps, planted, lo
