"""Mackey modules for the group of order two over GF(l).

A module M here is a pair of GF(l) vector spaces M_theta (the free-orbit
level, carrying an involution t) and M_dot (the fixed level), connected
by a transfer p_down : M_theta -> M_dot and a restriction
p_up : M_dot -> M_theta subject to

    t * t = 1,      t * p_up = p_up,      p_down * t = p_down,
    p_up * p_down = 1 + t,                p_down * p_up = 2.

Everything is matrix-level and exact: ``validate_module`` checks all five
relations, ``classify`` returns the multiset of indecomposable summands,
and ``box`` / ``internal_hom`` construct the monoidal product and its
adjoint concretely.  Each writes its linear system whole with
``FMatrix.kron_sum``, in one pass, as block rows of scaled Kronecker
products of the structure maps (1 (x) p_down^T, t^T (x) t^T, ...): a
box's dot level is the quotient by its Frobenius relations, a hom's dot
level the kernel of the Mackey-map equations.  No lookup tables on this
route; the tables live in ``ext``/``tor``, where the spectral answer is
a finite dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _schema as schema
from .gf2core import FMatrix, is_prime, random_invertible

KINDS = ("H", "F", "Hop", "SDot", "STheta")


@dataclass
class MackeyModule:
    ell: int
    t: FMatrix        # theta -> theta
    p_up: FMatrix     # dot -> theta (restriction)
    p_down: FMatrix   # theta -> dot (transfer)

    @property
    def dim_theta(self) -> int:
        return self.t.nrows

    @property
    def dim_dot(self) -> int:
        return self.p_down.nrows

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "dim_theta": self.dim_theta,
            "dim_dot": self.dim_dot,
            "t": self.t.to_rows(),
            "p_up": self.p_up.to_rows(),
            "p_down": self.p_down.to_rows(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MackeyModule":
        data = schema.obj(data, "a module")
        ell, nt, nd = (schema.integer(data, key)
                       for key in ("ell", "dim_theta", "dim_dot"))
        if ell < 2:
            raise ValueError(f"modulus {ell} is not prime")
        t, p_up, p_down = (schema.rows_of(data.get(key), int, key)
                           for key in ("t", "p_up", "p_down"))
        t = FMatrix.from_rows(t, ell, ncols=nt)
        p_up = FMatrix.from_rows(p_up, ell, ncols=nd)
        p_down = FMatrix.from_rows(p_down, ell, ncols=nt)
        if t.nrows != nt or p_up.nrows != nt or p_down.nrows != nd:
            raise ValueError("matrix shapes disagree with stated dimensions")
        return cls(ell, t, p_up, p_down)


@dataclass
class MackeyMap:
    """A map of Mackey modules, given by its two level components."""
    source: MackeyModule
    target: MackeyModule
    f_theta: FMatrix
    f_dot: FMatrix

    def compose(self, earlier: "MackeyMap") -> "MackeyMap":
        """self after earlier."""
        return MackeyMap(earlier.source, self.target,
                         self.f_theta.mul(earlier.f_theta),
                         self.f_dot.mul(earlier.f_dot))


def validate_module(m: MackeyModule) -> list[str]:
    """All five relations (and shape sanity); returns human-readable violations."""
    out = []
    try:
        prime = is_prime(m.ell)
    except ValueError as exc:
        return [str(exc)]
    if not prime:
        return [f"modulus {m.ell} is not prime"]
    nt, nd = m.dim_theta, m.dim_dot
    if m.t.nrows != nt or m.t.ncols != nt:
        out.append("t is not square on the theta level")
    if m.p_up.nrows != nt or m.p_up.ncols != nd:
        out.append("p_up must map the dot level to the theta level")
    if m.p_down.nrows != nd or m.p_down.ncols != nt:
        out.append("p_down must map the theta level to the dot level")
    if out:
        return out
    idt = FMatrix.identity(nt, m.ell)
    if m.t.mul(m.t) != idt:
        out.append("t*t != 1")
    if m.t.mul(m.p_up) != m.p_up:
        out.append("t*p_up != p_up")
    if m.p_down.mul(m.t) != m.p_down:
        out.append("p_down*t != p_down")
    if m.p_up.mul(m.p_down) != idt.add(m.t):
        out.append("p_up*p_down != 1 + t")
    two = FMatrix.identity(nd, m.ell).scale(2)
    if m.p_down.mul(m.p_up) != two:
        out.append("p_down*p_up != 2")
    return out


# kind -> rows of (t, p_up, p_down) over the integers, read mod l
_SMALL = {
    "H": ([[1]], [[1]], [[2]]),
    "F": ([[0, 1], [1, 0]], [[1], [1]], [[1, 1]]),
    "Hop": ([[1]], [[2]], [[1]]),
    "SDot": ([], [], [[]]),
    "STheta": ([[-1]], [[]], []),
}


def require_prime(ell: int) -> None:
    """The modulus gate of the module builders: ValueError unless ``ell``
    is a prime int below 2^64 (see ``is_prime``)."""
    if not is_prime(ell):
        raise ValueError(f"modulus must be prime, got {ell}")


def indecomposable(kind: str, ell: int = 2) -> MackeyModule:
    """The standard small modules: H, F, Hop, SDot (l=2 only), STheta."""
    require_prime(ell)
    if kind not in _SMALL:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "SDot" and ell != 2:
        raise ValueError("SDot only exists for l = 2")
    t, p_up, p_down = _SMALL[kind]
    nt, nd = len(t), len(p_down)
    return MackeyModule(ell, FMatrix.from_rows(t, ell, ncols=nt),
                        FMatrix.from_rows(p_up, ell, ncols=nd),
                        FMatrix.from_rows(p_down, ell, ncols=nt))


def direct_sum(*mods: MackeyModule) -> MackeyModule:
    if not mods:
        raise ValueError("empty direct sum (pass the zero module explicitly)")
    ell = mods[0].ell
    if any(m.ell != ell for m in mods):
        raise ValueError("mixed moduli in direct sum")

    def blockdiag(mats, nr, nc):
        blocks, ro, co = [], 0, 0
        for mat, r, c in zip(mats, nr, nc):
            blocks.append((ro, co, mat))
            ro += r
            co += c
        return FMatrix.from_blocks(ell, ro, co, blocks)

    nts = [m.dim_theta for m in mods]
    nds = [m.dim_dot for m in mods]
    return MackeyModule(
        ell,
        blockdiag([m.t for m in mods], nts, nts),
        blockdiag([m.p_up for m in mods], nts, nds),
        blockdiag([m.p_down for m in mods], nds, nts),
    )


def zero_module(ell: int = 2) -> MackeyModule:
    require_prime(ell)
    return MackeyModule(ell, FMatrix.zeros(0, 0, ell),
                        FMatrix.zeros(0, 0, ell), FMatrix.zeros(0, 0, ell))


def classify(m: MackeyModule) -> dict[str, int]:
    """Multiset of indecomposable summands, as a kind -> count dict.

    Rank-based: over l = 2 the five counts are determined by
    dim M_theta, dim M_dot, rank(1 + t), dim ker p_down and
    dim ker p_up; for odd l the category is semisimple on H and STheta.
    Zero counts are omitted.
    """
    nt, nd = m.dim_theta, m.dim_dot
    if m.ell != 2:
        return counts_of_ranks(m.ell, nt, nd)
    return counts_of_ranks(2, nt, nd,
                           m.t.add(FMatrix.identity(nt, 2)).rank(),
                           m.p_down.nullity(), m.p_up.nullity())


def counts_of_ranks(ell: int, dim_theta: int, dim_dot: int,
                    rank_1t: int = 0, ker_down: int = 0,
                    ker_up: int = 0) -> dict[str, int]:
    """The kind -> count dict (zero counts omitted) of the module with
    these level dimensions and, at l = 2, rank(1 + t), dim ker p_down and
    dim ker p_up (unused at odd l).  Numbers that no module has raise
    ValueError."""
    nt, nd, f, kd, ku = dim_theta, dim_dot, rank_1t, ker_down, ker_up
    if ell != 2:
        counts = {"H": nd, "STheta": nt - nd}
    else:
        counts = {
            "F": f,
            "Hop": nt - f - kd,
            "H": nd - ku - f,
            "SDot": ku - nt + f + kd,
            "STheta": kd - nd + ku,
        }
    if any(v < 0 for v in counts.values()):
        raise ValueError("rank data is not consistent with any module "
                         "(is the input a valid Mackey module?)")
    return {k: v for k, v in counts.items() if v}


def module_of_counts(counts: dict[str, int], ell: int = 2) -> MackeyModule:
    """The canonical direct sum realizing a classification dict."""
    parts = []
    for kind in KINDS:
        parts.extend(indecomposable(kind, ell) for _ in range(counts.get(kind, 0)))
    if not parts:
        return zero_module(ell)
    return direct_sum(*parts)


def conjugate(m: MackeyModule, g_theta: FMatrix, g_dot: FMatrix) -> MackeyModule:
    """Transport of structure along an arbitrary levelwise basis change."""
    gti = g_theta.invert()
    gdi = g_dot.invert()
    return MackeyModule(m.ell,
                        g_theta.mul(m.t).mul(gti),
                        g_theta.mul(m.p_up).mul(gdi),
                        g_dot.mul(m.p_down).mul(gti))


def random_scrambled_module(counts: dict[str, int], ell: int, rng) -> MackeyModule:
    m = module_of_counts(counts, ell)
    g_theta = random_invertible(m.dim_theta, ell, rng)
    g_dot = random_invertible(m.dim_dot, ell, rng)
    return conjugate(m, g_theta, g_dot)


# -- monoidal structure ------------------------------------------------

def box(m: MackeyModule, n: MackeyModule) -> MackeyModule:
    """The monoidal (box) product, built as an explicit quotient.

    The theta level is M_theta (x) N_theta.  The dot level is the quotient
    of (M_dot (x) N_dot) + (M_theta (x) N_theta) by the Frobenius
    relations

        m . p_down(n)   ~  [p_up(m) (x) n],
        p_down(m) . n   ~  [m (x) p_up(n)],
        [t m (x) t n]   ~  [m (x) n],

    with p_down the projection of the theta-theta block and p_up induced
    by (p_up (x) p_up, 1 + t (x) t) on the two blocks.
    """
    if m.ell != n.ell:
        raise ValueError("mixed moduli in box")
    ell = m.ell
    mt, md = m.dim_theta, m.dim_dot
    nt, nd = n.dim_theta, n.dim_dot
    dd = md * nd            # dot-dot block, index i*nd + j
    tt = mt * nt            # theta-theta block, index a*nt + b
    kron_sum = FMatrix.kron_sum
    t_box = kron_sum(ell, tt, tt, [(0, 0, 1, m.t, n.t)])
    # one relation per row: [dot-dot part | theta-theta part], the block
    # rows [1 (x) n.p_down^T | -m.p_up^T (x) 1],
    # [m.p_down^T (x) 1 | -1 (x) n.p_up^T] and [0 | t^T (x) t^T - 1]
    r2, r3 = md * nt, md * nt + mt * nd
    rels = kron_sum(ell, r3 + tt, dd + tt, [
        (0, 0, 1, md, n.p_down.transpose()),
        (0, dd, -1, m.p_up.transpose(), nt),
        (r2, 0, 1, m.p_down.transpose(), nd),
        (r2, dd, -1, mt, n.p_up.transpose()),
        (r3, dd, 1, m.t.transpose(), n.t.transpose()),
        (r3, dd, -1, tt, 1),
    ])
    proj, free = _quotient(rels)
    # [p_up (x) p_up | 1 + t (x) t], read at the quotient's basis
    a_up = kron_sum(ell, tt, dd + tt, [(0, 0, 1, m.p_up, n.p_up),
                                       (0, dd, 1, tt, 1),
                                       (0, dd, 1, m.t, n.t)])
    return MackeyModule(ell, t_box,
                        a_up.submatrix(list(range(tt)), free),
                        proj.submatrix(list(range(proj.nrows)),
                                       list(range(dd, dd + tt))))


def _quotient(R: FMatrix) -> tuple[FMatrix, list[int]]:
    """The projection onto the quotient by the row space of R, in the
    basis of the non-pivot columns of R's echelon form, and those
    columns (the quotient's basis vectors, lifted)."""
    red, pivots = R.rref()
    pivset = set(pivots)
    free = [c for c in range(R.ncols) if c not in pivset]
    # in the column order free + pivots the projection is [1 | -C^T]
    nf = len(free)
    C = red.submatrix(list(range(len(pivots))), free)
    wide = FMatrix.kron_sum(R.ell, nf, R.ncols, [
        (0, 0, 1, nf, 1), (0, nf, -1, C.transpose(), 1)])
    order = free + pivots
    return (wide.submatrix(list(range(nf)),
                           sorted(range(R.ncols), key=order.__getitem__)),
            free)


def internal_hom(m: MackeyModule, n: MackeyModule) -> MackeyModule:
    """The hom object: dot level = Mackey maps m -> n, theta level =
    plain linear maps between the theta levels."""
    if m.ell != n.ell:
        raise ValueError("mixed moduli in internal_hom")
    ell = m.ell
    mt, md = m.dim_theta, m.dim_dot
    nt, nd = n.dim_theta, n.dim_dot
    dim_th = nt * mt    # vec(f_theta), row-major
    dim_dt = nd * md    # vec(f_dot)
    kron_sum = FMatrix.kron_sum
    m_tT, m_upT, m_downT = (x.transpose() for x in (m.t, m.p_up, m.p_down))

    # constraint rows acting on (vec f_theta, vec f_dot): the block rows
    # [n.t (x) 1 - 1 (x) m.t^T | 0] (f commutes with t),
    # [1 (x) m.p_up^T | -n.p_up (x) 1] (with p_up) and
    # [-n.p_down (x) 1 | 1 (x) m.p_down^T] (with p_down)
    e2, e3 = dim_th, dim_th + nt * md
    system = kron_sum(ell, e3 + nd * mt, dim_th + dim_dt, [
        (0, 0, 1, n.t, mt),
        (0, 0, -1, nt, m_tT),
        (e2, 0, 1, nt, m_upT),
        (e2, dim_th, -1, n.p_up, md),
        (e3, 0, -1, n.p_down, mt),
        (e3, dim_th, 1, nd, m_downT),
    ])
    K = system.kernel_basis()   # columns = Mackey maps

    t_h = kron_sum(ell, dim_th, dim_th, [(0, 0, 1, n.t, m_tT)])
    p_up_h = K.submatrix(list(range(dim_th)), list(range(K.ncols)))

    # p_down sends phi to the Mackey map (phi + t phi t, p_down phi p_up):
    # solve K X = [1 + n.t (x) m.t^T ; n.p_down (x) m.p_up^T]
    stacked = kron_sum(ell, dim_th + dim_dt, dim_th, [
        (0, 0, 1, dim_th, 1),
        (0, 0, 1, n.t, m_tT),
        (dim_th, 0, 1, n.p_down, m_upT),
    ])
    p_down_h = K.solve_many(stacked)
    if p_down_h is None:
        raise AssertionError("norm of a linear map failed to be a Mackey map")
    return MackeyModule(ell, t_h, p_up_h, p_down_h)


# -- derived functors (finite tables, classification does the work) ----

def _counts_mul(ca: dict[str, int], cb: dict[str, int],
                table: dict[tuple[str, str], dict[str, int]]) -> dict[str, int]:
    out: dict[str, int] = {}
    for ka, va in ca.items():
        for kb, vb in cb.items():
            for kr, vr in table.get((ka, kb), {}).items():
                out[kr] = out.get(kr, 0) + va * vb * vr
    return {k: v for k, v in out.items() if v}


def _sym(d: dict[tuple[str, str], dict[str, int]]):
    out = dict(d)
    for (a, b), v in d.items():
        out.setdefault((b, a), v)
    return out


_HOM0 = {
    ("H", "H"): {"H": 1}, ("H", "F"): {"F": 1}, ("H", "Hop"): {"Hop": 1},
    ("H", "SDot"): {"SDot": 1}, ("H", "STheta"): {"STheta": 1},
    ("F", "H"): {"F": 1}, ("F", "F"): {"F": 2}, ("F", "Hop"): {"F": 1},
    ("F", "SDot"): {}, ("F", "STheta"): {"F": 1},
    ("Hop", "H"): {"H": 1}, ("Hop", "F"): {"F": 1}, ("Hop", "Hop"): {"H": 1},
    ("Hop", "SDot"): {}, ("Hop", "STheta"): {"H": 1},
    ("SDot", "H"): {}, ("SDot", "F"): {}, ("SDot", "Hop"): {"SDot": 1},
    ("SDot", "SDot"): {"SDot": 1}, ("SDot", "STheta"): {},
    ("STheta", "H"): {"H": 1}, ("STheta", "F"): {"F": 1},
    ("STheta", "Hop"): {"STheta": 1}, ("STheta", "SDot"): {},
    ("STheta", "STheta"): {"H": 1},
}

_EXT = {
    0: _HOM0,
    1: {("Hop", "H"): {"SDot": 1}, ("Hop", "STheta"): {"SDot": 1},
        ("STheta", "H"): {"SDot": 1}, ("STheta", "SDot"): {"SDot": 1},
        ("SDot", "STheta"): {"SDot": 1}},
    2: {("Hop", "H"): {"SDot": 1}, ("Hop", "SDot"): {"SDot": 1},
        ("SDot", "H"): {"SDot": 1}, ("SDot", "SDot"): {"SDot": 1}},
}

_BOX0 = _sym({
    ("H", "H"): {"H": 1}, ("H", "F"): {"F": 1}, ("H", "Hop"): {"Hop": 1},
    ("H", "SDot"): {"SDot": 1}, ("H", "STheta"): {"STheta": 1},
    ("F", "F"): {"F": 2}, ("F", "Hop"): {"F": 1}, ("F", "SDot"): {},
    ("F", "STheta"): {"F": 1},
    ("Hop", "Hop"): {"Hop": 1}, ("Hop", "SDot"): {}, ("Hop", "STheta"): {"Hop": 1},
    ("SDot", "SDot"): {"SDot": 1}, ("SDot", "STheta"): {},
    ("STheta", "STheta"): {"Hop": 1},
})

_TOR = {
    0: _BOX0,
    1: _sym({("Hop", "Hop"): {"SDot": 1}, ("Hop", "STheta"): {"SDot": 1},
             ("STheta", "SDot"): {"SDot": 1}}),
    2: _sym({("Hop", "Hop"): {"SDot": 1}, ("Hop", "SDot"): {"SDot": 1},
             ("SDot", "SDot"): {"SDot": 1}}),
}

# at odd l both degree-0 tables agree, and everything above degree 0 vanishes
_ODD = {0: {
    ("H", "H"): {"H": 1}, ("H", "STheta"): {"STheta": 1},
    ("STheta", "H"): {"STheta": 1}, ("STheta", "STheta"): {"H": 1},
}}


def _derived(name: str, tables: dict, a: MackeyModule, b: MackeyModule,
             i: int) -> dict[str, int]:
    """The classification dict of a derived functor from its table for
    degree i (``tables`` at l = 2, ``_ODD`` otherwise)."""
    if i < 0:
        raise ValueError(f"{name} degree must be >= 0")
    ca, cb = classify(a), classify(b)
    if a.ell != b.ell:
        raise ValueError(f"mixed moduli in {name}")
    return _counts_mul(ca, cb, (tables if a.ell == 2 else _ODD).get(i, {}))


def ext(a: MackeyModule, b: MackeyModule, i: int) -> dict[str, int]:
    """uExt^i(a, b) as a classification dict (vanishes for i >= 3)."""
    return _derived("ext", _EXT, a, b, i)


def tor(a: MackeyModule, b: MackeyModule, i: int) -> dict[str, int]:
    """uTor_i(a, b) as a classification dict (vanishes for i >= 3)."""
    return _derived("tor", _TOR, a, b, i)
