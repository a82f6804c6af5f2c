"""Derived-category operations on strand decompositions.

Everything here works with multisets of ``Strand`` records (what
``split`` produces, disks discarded) and, for the honest computational
routes, with the chain-level machinery: box products of complexes,
mapping complexes, and explicit chain-map witnesses.  Each binary
operation comes in two flavors that the tests play against each other:

* a computed route (build the complexes, take the box/cotensor, split,
  drop the contractible disks), and
* a closed-form route (the strand-pair multiplication tables).

The closed forms rest on one box table and one dual, ``_dual``, the strand
of ``cotens_H``.  Every perfect complex X is dualizable, F(X, Z) = DX box
Z, so the cotensor closed form is the box closed form on the dual; the
opposite dual is the dual boxed with H(-2).

On top of these sit the bigraded cohomology windows, the closed model
of the cohomology ring of the unit, the three-fold bracket witness,
invertibility/Picard bookkeeping, support, and the twisted duality
check.  Ring products and the bracket's maps compose transported
classes: each the one nonzero class of a one-dimensional group of maps
between two twists of the unit.
"""

from __future__ import annotations

from collections import Counter

from .complexes import (ChainMap, FreeComplex, _HomComplex,
                        _require_complexes, _require_int, box_complex,
                        compose_chain_maps, cotens_H, hom_complex_dim,
                        is_null_homotopic, null_homotopy)
from .split import DISK_KINDS, Strand, split, strand_complex


# -- duality -----------------------------------------------------------------

TWIST = Strand("Hn", -2, 0)


def _dual(s: Strand) -> Strand:
    """The strand of ``cotens_H`` of the strand ``s``."""
    if s.kind == "A":
        return Strand("A", s.param, -s.shift - s.param)
    if s.kind == "Hn":
        return Strand("Hn", -s.param, -s.shift)
    if s.kind == "B":
        return Strand("B", s.param, s.param + 2 - s.shift)
    if s.kind in ("DiskF", "DiskH"):
        return Strand(s.kind, 0, -s.shift - 1)
    raise ValueError(f"no dual for strand kind {s.kind!r}")


def _op_dual_strand(s: Strand) -> Strand:
    """The opposite dual, strandwise: the dual boxed with the twist."""
    d = _dual(s)
    return d if d.kind in DISK_KINDS else dbox_formula_pair(d, TWIST)[0]


def op_dual_decomp(strands: list[Strand]) -> list[Strand]:
    return sorted(_op_dual_strand(s) for s in strands)


# -- box and cotensor: computed routes ----------------------------------------

def _pairwise(pair, xs: list[Strand], ys: list[Strand]) -> list[Strand]:
    """The sorted union of ``pair(x, y)`` over every pair of summands."""
    return sorted(s for sx in xs for sy in ys for s in pair(sx, sy))


def _split_drop_disks(c: FreeComplex) -> list[Strand]:
    return [s for s in split(c, validate=False).strands
            if s.kind not in DISK_KINDS]


def dbox_pair(sx: Strand, sy: Strand) -> list[Strand]:
    """Derived box of two strands, via an explicit box complex."""
    return sorted(_split_drop_disks(
        box_complex(strand_complex(sx), strand_complex(sy))))


def dbox(xs: list[Strand], ys: list[Strand]) -> list[Strand]:
    return _pairwise(dbox_pair, xs, ys)


def dcotens_pair(sx: Strand, sz: Strand) -> list[Strand]:
    """Derived cotensor (maps-out variable first), via the arrow-reversal
    dual on the first argument."""
    return sorted(_split_drop_disks(
        box_complex(cotens_H(strand_complex(sx)), strand_complex(sz))))


def dcotens(xs: list[Strand], zs: list[Strand]) -> list[Strand]:
    return _pairwise(dcotens_pair, xs, zs)


# -- box and cotensor: closed forms -------------------------------------------

def dbox_formula_pair(sx: Strand, sy: Strand) -> list[Strand]:
    if sx.kind in DISK_KINDS or sy.kind in DISK_KINDS:
        return []
    kx, ky = sx.kind, sy.kind
    # the table is symmetric: read it with the kinds in sorted order
    sx, sy = sorted((sx, sy))
    a, b = sx.shift, sy.shift
    kinds = (sx.kind, sy.kind)
    if kinds == ("A", "B"):
        return []
    if kinds == ("A", "A"):
        k, l = sorted((sx.param, sy.param))
        return sorted([Strand("A", k, a + b), Strand("A", k, a + b + l)])
    if kinds == ("A", "Hn"):
        return [Strand("A", sx.param, a + b)]
    if kinds == ("B", "B"):
        r, l = sorted((sx.param, sy.param))
        return sorted([Strand("B", r, a + b - l - 2), Strand("B", r, a + b)])
    if kinds == ("B", "Hn"):
        return [Strand("B", sx.param, a + b - sy.param)]
    if kinds == ("Hn", "Hn"):
        return [Strand("Hn", sx.param + sy.param, a + b)]
    raise ValueError(f"no box rule for {kx}, {ky}")


def dbox_formula(xs: list[Strand], ys: list[Strand]) -> list[Strand]:
    return _pairwise(dbox_formula_pair, xs, ys)


def dcotens_formula_pair(sx: Strand, sz: Strand) -> list[Strand]:
    """F(X, Z) = DX box Z, strandwise."""
    if sx.kind in DISK_KINDS or sz.kind in DISK_KINDS:
        return []
    return dbox_formula_pair(_dual(sx), sz)


def dcotens_formula(xs: list[Strand], zs: list[Strand]) -> list[Strand]:
    return _pairwise(dcotens_formula_pair, xs, zs)


# -- twisted duality -----------------------------------------------------------

def serre_check(xs: list[Strand], ys: list[Strand]) -> dict:
    """Natural equivalence: maps X -> Y twisted by Hn(-2) against the
    dual of maps Y -> X, both by the computed route."""
    lhs = dcotens(xs, dbox(ys, [TWIST]))
    rhs = op_dual_decomp(dcotens(ys, xs))
    return {"lhs": lhs, "rhs": rhs, "ok": Counter(lhs) == Counter(rhs)}


# -- bigraded cohomology --------------------------------------------------------

def m2_dim(p: int, q: int) -> int:
    """Cohomology of the unit at bidegree (p, q): an upper cone of
    monomials and a disjoint lower cone of divided classes."""
    if 0 <= p <= q:
        return 1
    if p <= 0 and q <= p - 2:
        return 1
    return 0


def _strand_cohomology_dim(s: Strand, p: int, q: int) -> int:
    """Closed-form bigraded cohomology of one strand."""
    if s.kind in DISK_KINDS:
        return 0
    if s.kind == "A":
        return 1 if s.shift <= p <= s.shift + s.param else 0
    if s.kind == "Hn":
        return m2_dim(p - s.shift, q - s.param)
    if s.kind == "B":
        return 1 if 0 <= q - p + s.shift <= s.param else 0
    raise ValueError(f"no cohomology rule for strand kind {s.kind!r}")


def cohomology_formula(strands: list[Strand], p0: int, p1: int,
                       q0: int, q1: int) -> list[list[int]]:
    """dims[i][j] = total dimension at (p0 + i, q0 + j)."""
    return [[sum(_strand_cohomology_dim(s, p, q) for s in strands)
             for q in range(q0, q1 + 1)]
            for p in range(p0, p1 + 1)]


def cohomology_window(c: FreeComplex, p0: int, p1: int,
                      q0: int, q1: int) -> list[list[int]]:
    """dims[i][j] = dim of maps from the complex into the (p, q) twist of
    the unit, computed from mapping complexes; a non-complex or a
    non-integer bound raises ValueError naming it.

    Maps into the p-fold shift of H(q) are the degree -p maps into H(q)
    itself, basis for basis, so one hom complex per weight q gives a
    whole column of the window."""
    _require_complexes(c)
    for bound, what in ((p0, "p0"), (p1, "p1"), (q0, "q0"), (q1, "q1")):
        _require_int(bound, what)
    cols = [_HomComplex(c, strand_complex(Strand("Hn", q, 0))).homology(
        -p1, -p0) for q in range(q0, q1 + 1)]
    return [[col[p1 - p] for col in cols] for p in range(p0, p1 + 1)]


def sufficient_window(strands: list[Strand]) -> tuple[int, int, int, int]:
    """A display window guaranteed to contain every feature corner of the
    given strands' cohomology (their support may be unbounded)."""
    if not strands:
        return (0, 0, 0, 0)
    live = [s for s in strands if s.kind not in DISK_KINDS] or strands
    ps, qs = [0], [0]
    for s in live:
        ps += [s.shift, s.shift + max(s.param, 0)]
        if s.kind == "Hn":
            qs += [s.param - 2, s.param + 2]
        else:
            qs += [s.shift - s.param - 2, s.shift + s.param + 2]
    pad = 2
    return (min(ps) - pad, max(ps) + pad, min(qs) - pad, max(qs) + pad)


# -- the cohomology ring of the unit, with witnesses ---------------------------

def _class_rep(p: int, q: int) -> ChainMap:
    """An explicit cocycle representing the basis class at (p, q): a chain
    map from the unit to its (p, q) twist.  Raises if the group is zero."""
    if not m2_dim(p, q):
        raise ValueError(f"the cohomology of the unit vanishes at ({p}, {q})")
    unit = strand_complex(Strand("Hn", 0, 0))
    tw = strand_complex(Strand("Hn", q, p))
    return _transported_class(unit, tw)


def _m2_product_map(p1: int, q1: int, p2: int, q2: int) -> ChainMap:
    """The composite witness for the product of the classes at (p1, q1)
    and (p2, q2): the first class, unit -> S1, followed by the second
    class acting at S1, a chain map from the unit to the (p1+p2, q1+q2)
    twist.  Twisting by S1 is invertible, so maps S1 -> S12 are the
    second class's one-dimensional group; a vanishing class raises."""
    f = _class_rep(p1, q1)
    if not m2_dim(p2, q2):
        raise ValueError(f"the cohomology of the unit vanishes at ({p2}, {q2})")
    s12 = strand_complex(Strand("Hn", q1 + q2, p1 + p2))
    return compose_chain_maps(_transported_class(f.target, s12), f)


def m2_product_nonzero(p1: int, q1: int, p2: int, q2: int) -> bool:
    """Honest product: nonzero iff the composite witness is not a
    boundary."""
    return not is_null_homotopic(_m2_product_map(p1, q1, p2, q2))


def _lower_cone(p: int, q: int) -> bool:
    """Whether (p, q) is in the lower cone of divided classes."""
    return p <= 0 and q <= p - 2


def m2_product_rule(p1: int, q1: int, p2: int, q2: int) -> bool:
    """Closed-form product: upper-cone classes multiply freely; a product
    with one lower-cone class survives exactly when it lands in the lower
    cone; two lower-cone classes annihilate."""
    if not (m2_dim(p1, q1) and m2_dim(p2, q2)):
        return False
    lower = _lower_cone(p1, q1) + _lower_cone(p2, q2)
    return lower == 0 or lower == 1 and _lower_cone(p1 + p2, q1 + q2)


# -- the three-fold bracket witness --------------------------------------------

def toda_witness() -> dict:
    """The bracket < tau, theta, rho > on the unit: strict vanishing of
    theta.rho, an explicit homotopy for tau.theta, and the resulting
    composite, which is the identity class with zero indeterminacy."""
    unit = strand_complex(Strand("Hn", 0, 0))
    s_up = strand_complex(Strand("Hn", 1, 1))      # (1,1) twist
    s_dn = strand_complex(Strand("Hn", -1, 1))     # (1,-1) twist
    s_unit1 = strand_complex(Strand("Hn", 0, 1))

    rho = _class_rep(1, 1)                         # unit -> s_up
    # theta as a map s_up -> s_dn: the (0,-2) class acting at weight 1
    theta = _transported_class(s_up, s_dn)
    # tau as a map s_dn -> shifted unit: the (0,1) class acting at weight -1
    tau = _transported_class(s_dn, s_unit1)

    comp_theta_rho = compose_chain_maps(theta, rho)
    strictly_zero = all(not any(v for row in m for v in row)
                        for m in comp_theta_rho.components.values())

    comp_tau_theta = compose_chain_maps(tau, theta)
    h = null_homotopy(comp_tau_theta)
    bracket = compose_chain_maps(h, rho) if h is not None else None
    bracket_nonzero = bracket is not None and not is_null_homotopic(bracket)

    # degree-one mapping groups whose images are the bracket's ambiguity
    indet_left = hom_complex_dim(s_up, s_unit1, 1)     # postcompose with tau
    indet_right = hom_complex_dim(unit, s_dn, 1)       # precompose with rho
    return {
        "theta_rho_strictly_zero": strictly_zero,
        "tau_theta_null_homotopic": h is not None,
        "bracket_nonzero": bracket_nonzero,
        "indeterminacy_dims": (indet_left, indet_right),
        "zero_indeterminacy": indet_left == 0 and indet_right == 0,
        "maps": {"rho": rho, "theta": theta, "tau": tau, "homotopy": h,
                 "bracket": bracket},
    }


def _transported_class(src: FreeComplex, tgt: FreeComplex) -> ChainMap:
    """A degree-zero chain map src -> tgt that is a cocycle but not a
    boundary, for mapping groups known to be one-dimensional."""
    hom = _HomComplex(src, tgt)
    delta0, delta1 = hom.delta(0), hom.delta(1)
    if delta0.nullity() - delta1.rank() != 1:
        raise RuntimeError("transported class is not one-dimensional")
    kern = delta0.kernel_basis()
    for j in range(kern.ncols):
        vec = kern.col(j)
        if any(vec) and delta1.solve(vec) is None:
            return hom.chain_map(0, vec)
    raise RuntimeError("no nonzero cocycle found")


# -- invertibles, Picard, support ------------------------------------------------

def invertible_class(strands: list[Strand]) -> tuple[int, int] | None:
    """(shift, weight) if the strand list is a single weight strand (hence
    box-invertible), else None."""
    live = [s for s in strands if s.kind not in DISK_KINDS]
    if len(live) == 1 and live[0].kind == "Hn":
        return (live[0].shift, live[0].param)
    return None


def is_invertible(strands: list[Strand]) -> bool:
    return invertible_class(strands) is not None


def balmer_support(strands: list[Strand]) -> list[str]:
    """Support of an object in the tensor-triangular spectrum: the primes
    that do NOT contain it.  Weight strands avoid all three; an A strand
    avoids <B>; a B strand avoids <A>."""
    live = [s for s in strands if s.kind not in DISK_KINDS]
    has_a = any(s.kind == "A" for s in live)
    has_b = any(s.kind == "B" for s in live)
    has_h = any(s.kind == "Hn" for s in live)
    out = []
    if has_b or has_h:
        out.append("<A>")
    if has_a or has_h:
        out.append("<B>")
    if has_h:
        out.append("<A,B>")
    return out
