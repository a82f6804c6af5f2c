"""Derived-category layer: box/cotensor formulas, cohomology windows,
the bigraded ring of the unit, Toda witness, Picard classes, and support."""

import itertools
import random
from collections import Counter

import pytest

from c2mackey.complexes import box_complex, cotens_H, validate_chain_map
from c2mackey.derived import (
    _class_rep,
    _dual,
    _op_dual_strand,
    balmer_support,
    cohomology_formula,
    cohomology_window,
    dbox,
    dbox_formula,
    dbox_formula_pair,
    dbox_pair,
    dcotens_formula,
    dcotens_formula_pair,
    dcotens_pair,
    invertible_class,
    is_invertible,
    m2_dim,
    m2_product_nonzero,
    m2_product_rule,
    serre_check,
    sufficient_window,
    toda_witness,
)
from c2mackey.split import (DISK_KINDS, Strand, decomposition_sum, split,
                            strand_complex)

PARAMS = 4

STRANDS = (
    [Strand("A", k, s) for k in range(PARAMS + 1) for s in (-2, 0, 1)]
    + [Strand("Hn", n, s) for n in range(-PARAMS, PARAMS + 1) for s in (-1, 0, 2)]
    + [Strand("B", r, s) for r in range(PARAMS + 1) for s in (0, -3)]
)

BASE = [
    Strand(kind, param, 0)
    for kind, param in [
        ("A", 0),
        ("A", 2),
        ("Hn", -3),
        ("Hn", -1),
        ("Hn", 0),
        ("Hn", 2),
        ("B", 0),
        ("B", 2),
    ]
]


def _pairs():
    rng = random.Random(7)
    pairs = [(rng.choice(STRANDS), rng.choice(STRANDS)) for _ in range(60)]
    pairs += list(itertools.product(BASE, BASE))
    return pairs


PAIRS = _pairs()


def test_dbox_computed_matches_formula():
    for sx, sy in PAIRS:
        got = dbox_pair(sx, sy)
        want = sorted(dbox_formula_pair(sx, sy))
        assert got == want, (sx, sy, got, want)


def test_dbox_symmetric_and_unital():
    for sx, sy in PAIRS[:40]:
        assert Counter(dbox_pair(sx, sy)) == Counter(dbox_pair(sy, sx))
    unit = Strand("Hn", 0, 0)
    for s in BASE:
        assert dbox_pair(unit, s) == [s]


def test_dcotens_computed_matches_formula():
    for sx, sy in PAIRS:
        got = dcotens_pair(sx, sy)
        want = sorted(dcotens_formula_pair(sx, sy))
        assert got == want, (sx, sy, got, want)


def test_sum_formulas_match_pairs_and_split_products():
    """dbox_formula and dcotens_formula on strand sums: the union of the
    pair formulas, and the live strands of the split product complex."""
    rng = random.Random(11)
    pool = STRANDS + [Strand("DiskF", 0, 0), Strand("DiskH", 0, 1)]
    for _ in range(6):
        xs = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        ys = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        x, y = decomposition_sum(xs), decomposition_sum(ys)
        for formula, pair, product in (
                (dbox_formula, dbox_formula_pair, box_complex(x, y)),
                (dcotens_formula, dcotens_formula_pair,
                 box_complex(cotens_H(x), y))):
            got = formula(xs, ys)
            assert got == sorted(s for sx in xs for sy in ys
                                 for s in pair(sx, sy)), (xs, ys)
            live = sorted(s for s in split(product).strands
                          if s.kind not in DISK_KINDS)
            assert got == live, (formula.__name__, xs, ys)


def test_dual_is_the_strand_of_the_cotensor_dual():
    disks = [Strand(k, 0, s) for k in ("DiskF", "DiskH") for s in (-1, 0, 2)]
    for s in STRANDS + disks:
        assert cotens_H(strand_complex(s)) == strand_complex(_dual(s)), s


def test_op_dual_is_an_involution_on_strands():
    for s in STRANDS:
        assert _op_dual_strand(_op_dual_strand(s)) == s


def test_serre_twist_relation_holds_on_pairs():
    for sx, sy in PAIRS[:50]:
        rep = serre_check([sx], [sy])
        assert rep["ok"], (sx, sy, rep)


WINDOW = (-5, 5, -5, 5)


def test_cohomology_formula_matches_honest_window_per_strand():
    extra = [Strand("A", 1, -2), Strand("Hn", -2, 1), Strand("B", 1, 2)]
    for s in BASE + extra:
        c = decomposition_sum([s])
        honest = cohomology_window(c, *WINDOW)
        formula = cohomology_formula([s], *WINDOW)
        assert honest == formula, (s, honest, formula)


def test_cohomology_window_is_additive_over_strands():
    two = [Strand("A", 2, -1), Strand("B", 1, 0)]
    c2 = decomposition_sum(two)
    assert cohomology_window(c2, *WINDOW) == cohomology_formula(two, *WINDOW)


def test_unit_ring_labels():
    # 1, tau, rho, theta, theta/tau, theta/rho live where named; (1, 0)
    # holds nothing
    for p, q in ((0, 0), (0, 1), (1, 1), (0, -2), (0, -3), (-1, -3)):
        assert m2_dim(p, q) == 1, (p, q)
    assert m2_dim(1, 0) == 0
    # the ring is nonzero exactly at the monomials tau^a rho^b, in
    # (b, a + b), and the divided classes theta/(tau^a rho^b), in
    # (-b, -2 - a - b), one class each
    named = {(b, a + b) for a in range(9) for b in range(9)}
    named |= {(-b, -2 - a - b) for a in range(9) for b in range(9)}
    for p in range(-3, 4):
        for q in range(-4, 5):
            assert m2_dim(p, q) == ((p, q) in named), (p, q)


def test_unit_ring_products_match_rule():
    nonzero = [
        (p, q) for p in range(-4, 5) for q in range(-6, 7) if m2_dim(p, q)
    ]
    # every ordered pair of classes in the patch, tau and rho among them;
    # theta * tau^2 and theta/rho * tau^2 rho land in the upper cone and
    # vanish
    assert len(nonzero) ** 2 == 1600
    assert not m2_product_rule(0, -2, 0, 2)
    assert not m2_product_rule(-1, -3, 1, 3)
    for p1, q1 in nonzero:
        for p2, q2 in nonzero:
            got = m2_product_nonzero(p1, q1, p2, q2)
            want = m2_product_rule(p1, q1, p2, q2)
            assert got == want, ((p1, q1), (p2, q2), got, want)


def test_unit_ring_product_edge_cases():
    # the negative-cone generator squares to zero
    assert not m2_product_nonzero(0, -2, 0, -2)
    # lower * lower dies
    assert not m2_product_nonzero(-1, -3, 0, -2)
    # upper * lower landing back in the lower cone survives
    assert m2_product_nonzero(0, 1, 0, -3)
    # upper * lower landing in the gap between the cones dies
    assert not m2_product_nonzero(1, 1, 0, -2)


def test_class_representatives_are_chain_maps():
    for p, q in [(0, 0), (0, 1), (1, 1), (2, 5), (0, -2), (-2, -5)]:
        f = _class_rep(p, q)
        assert validate_chain_map(f) == [], (p, q)


def test_toda_witness_report():
    rep = toda_witness()
    assert rep["theta_rho_strictly_zero"]
    assert rep["tau_theta_null_homotopic"]
    assert rep["bracket_nonzero"]
    assert rep["zero_indeterminacy"]
    assert rep["indeterminacy_dims"] == (0, 0)


def test_invertible_classes():
    assert invertible_class([Strand("Hn", 3, -2)]) == (-2, 3)
    # contractible summands do not change the class
    assert invertible_class([Strand("Hn", 3, -2), Strand("DiskF", 0, 5)]) == (-2, 3)
    assert invertible_class([Strand("A", 0, 0)]) is None
    assert not is_invertible([Strand("Hn", 1, 0), Strand("Hn", 2, 0)])


@pytest.mark.parametrize(
    "first,second",
    [((0, 1), (2, -3)), ((1, 1), (1, 1)), ((-2, 4), (3, -4))],
)
def test_picard_group_law(first, second):
    (m1, n1), (m2, n2) = first, second
    prod = dbox([Strand("Hn", n1, m1)], [Strand("Hn", n2, m2)])
    assert invertible_class(prod) == (m1 + m2, n1 + n2)


def test_balmer_support():
    assert balmer_support([Strand("Hn", 0, 0)]) == ["<A>", "<B>", "<A,B>"]
    assert balmer_support([Strand("A", 2, 1)]) == ["<B>"]
    assert balmer_support([Strand("B", 0, 0)]) == ["<A>"]
    assert balmer_support([Strand("A", 1, 0), Strand("B", 1, 0)]) == ["<A>", "<B>"]
    assert balmer_support([Strand("DiskF", 0, 0)]) == []


def test_disjoint_support_strands_box_to_zero():
    assert dbox([Strand("A", 2, 0)], [Strand("B", 3, 0)]) == []


def test_sufficient_window_is_nondegenerate():
    for s in [Strand("B", 2, 1), Strand("Hn", -3, 2)]:
        p0, p1, q0, q1 = sufficient_window([s])
        assert p0 < p1 and q0 < q1
