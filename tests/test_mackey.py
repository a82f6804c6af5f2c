import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2mackey.mackey import (KINDS, MackeyModule, box, classify,
                             conjugate, direct_sum, ext, indecomposable,
                             internal_hom, module_of_counts,
                             random_scrambled_module, tor, validate_module,
                             zero_module)

ODD_KINDS = ("H", "STheta")


def test_indecomposables_satisfy_axioms():
    for kind in KINDS:
        m = indecomposable(kind, 2)
        assert validate_module(m) == [], kind
    for kind in ODD_KINDS:
        for ell in (3, 5):
            assert validate_module(indecomposable(kind, ell)) == [], (kind, ell)


def test_classify_indecomposables():
    for kind in KINDS:
        assert classify(indecomposable(kind, 2)) == {kind: 1}
    for ell in (3, 5):
        for kind in ODD_KINDS:
            assert classify(indecomposable(kind, ell)) == {kind: 1}
        # the free orbit module splits off the fixed part for odd moduli
        f = indecomposable("F", ell)
        assert classify(f) == {"H": 1, "STheta": 1}


def test_classify_direct_sums():
    a = direct_sum(indecomposable("H", 2), indecomposable("SDot", 2))
    b = direct_sum(a, indecomposable("F", 2))
    assert classify(b) == {"H": 1, "SDot": 1, "F": 1}
    assert classify(zero_module(2)) == {}


def test_validate_catches_broken_transfer_relation():
    from c2mackey.gf2core import FMatrix
    m = MackeyModule(2,
                     FMatrix.identity(1, 2),
                     FMatrix.from_rows([[1]], 2),
                     FMatrix.from_rows([[1]], 2))
    errs = validate_module(m)
    # both composition relations fail for these maps
    assert len(errs) == 2


def test_scrambled_classification_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        counts = {k: rng.randint(0, 2) for k in KINDS}
        m = random_scrambled_module(counts, 2, rng)
        assert validate_module(m) == []
        want = {k: v for k, v in counts.items() if v}
        assert classify(m) == want


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 30), st.sampled_from([3, 5, 257]))
def test_odd_classification_by_dimensions(seed, ell):
    rng = random.Random(seed)
    counts = {k: rng.randint(0, 3) for k in ODD_KINDS}
    m = random_scrambled_module(counts, ell, rng)
    got = classify(m)
    assert got == {k: v for k, v in counts.items() if v}
    assert got.get("H", 0) == m.dim_dot
    assert got.get("STheta", 0) == m.dim_theta - m.dim_dot


def test_conjugation_preserves_class():
    from c2mackey.gf2core import random_invertible
    rng = random.Random(17)
    base = module_of_counts({"Hop": 2, "STheta": 1}, 2)
    for _ in range(10):
        gt = random_invertible(base.dim_theta, 2, rng)
        gd = random_invertible(base.dim_dot, 2, rng)
        m = conjugate(base, gt, gd)
        assert validate_module(m) == []
        assert classify(m) == {"Hop": 2, "STheta": 1}


# frozen tables on indecomposable pairs: kind pairs -> classification
HOM0 = {
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

BOX0 = {
    ("H", "H"): {"H": 1}, ("H", "F"): {"F": 1}, ("H", "Hop"): {"Hop": 1},
    ("H", "SDot"): {"SDot": 1}, ("H", "STheta"): {"STheta": 1},
    ("F", "F"): {"F": 2}, ("F", "Hop"): {"F": 1}, ("F", "SDot"): {},
    ("F", "STheta"): {"F": 1},
    ("Hop", "Hop"): {"Hop": 1}, ("Hop", "SDot"): {}, ("Hop", "STheta"): {"Hop": 1},
    ("SDot", "SDot"): {"SDot": 1}, ("SDot", "STheta"): {},
    ("STheta", "STheta"): {"Hop": 1},
}

EXT1 = {("Hop", "H"), ("Hop", "STheta"), ("STheta", "H"),
        ("STheta", "SDot"), ("SDot", "STheta")}
EXT2 = {("Hop", "H"), ("Hop", "SDot"), ("SDot", "H"), ("SDot", "SDot")}
TOR1 = {("Hop", "Hop"), ("Hop", "STheta"), ("STheta", "Hop"),
        ("STheta", "SDot"), ("SDot", "STheta")}
TOR2 = {("Hop", "Hop"), ("Hop", "SDot"), ("SDot", "Hop"), ("SDot", "SDot")}

MODS = {k: indecomposable(k, 2) for k in KINDS}


def test_internal_hom_matches_table():
    for (a, b), want in HOM0.items():
        got = classify(internal_hom(MODS[a], MODS[b]))
        assert got == want, (a, b, got, want)


def test_box_matches_table_and_is_symmetric():
    for a in KINDS:
        for b in KINDS:
            want = BOX0.get((a, b), BOX0.get((b, a)))
            got = classify(box(MODS[a], MODS[b]))
            assert got == want, (a, b, got, want)


def test_ext_tor_tables():
    for a in KINDS:
        for b in KINDS:
            assert ext(MODS[a], MODS[b], 0) == HOM0[(a, b)]
            assert ext(MODS[a], MODS[b], 1) == \
                ({"SDot": 1} if (a, b) in EXT1 else {})
            assert ext(MODS[a], MODS[b], 2) == \
                ({"SDot": 1} if (a, b) in EXT2 else {})
            assert tor(MODS[a], MODS[b], 1) == \
                ({"SDot": 1} if (a, b) in TOR1 else {})
            assert tor(MODS[a], MODS[b], 2) == \
                ({"SDot": 1} if (a, b) in TOR2 else {})
            for i in (3, 4, 7):
                assert ext(MODS[a], MODS[b], i) == {}
                assert tor(MODS[a], MODS[b], i) == {}


def test_ext_tor_respect_op_duality():
    # in positive degrees ext^i(a, b) = dual of ext^i(dual b, dual a)
    # (degree 0 is excluded: the internal hom twists by the dualizing object);
    # tor is symmetric in every degree
    opk = {"H": "Hop", "Hop": "H", "F": "F", "SDot": "SDot",
           "STheta": "STheta"}
    for a in KINDS:
        for b in KINDS:
            for i in (1, 2):
                left = ext(MODS[a], MODS[b], i)
                right = ext(MODS[opk[b]], MODS[opk[a]], i)
                assert left == {opk[k]: v for k, v in right.items()}, (a, b, i)
            for i in range(3):
                assert tor(MODS[a], MODS[b], i) == tor(MODS[b], MODS[a], i)


def test_box_bilinear_on_sums():
    a = module_of_counts({"Hop": 1, "F": 1}, 2)
    b = module_of_counts({"STheta": 2}, 2)
    got = classify(box(a, b))
    # (Hop + F) box 2 STheta = 2 Hop + 2 F
    assert got == {"Hop": 2, "F": 2}


def test_odd_hom_and_box():
    for ell in (3, 5):
        h = indecomposable("H", ell)
        s = indecomposable("STheta", ell)
        assert classify(box(h, h)) == {"H": 1}
        assert classify(box(s, s)) == {"H": 1}
        assert classify(box(h, s)) == {"STheta": 1}
        assert classify(internal_hom(s, s)) == {"H": 1}
        assert classify(internal_hom(s, h)) == {"STheta": 1}
        assert classify(internal_hom(h, s)) == {"STheta": 1}
        assert ext(h, s, 1) == {} and tor(h, s, 1) == {}


def _op_dual(m: MackeyModule) -> MackeyModule:
    """Levelwise dual with restriction and transfer swapped."""
    return MackeyModule(m.ell, m.t.transpose(),
                        m.p_down.transpose(), m.p_up.transpose())


def test_op_dual_swaps_transfer_roles():
    h = indecomposable("H", 2)
    assert classify(_op_dual(h)) == {"Hop": 1}
    assert classify(_op_dual(_op_dual(h))) == {"H": 1}
    for kind in ("F", "SDot", "STheta"):
        m = indecomposable(kind, 2)
        assert classify(_op_dual(m)) == {kind: 1}, kind


def test_json_roundtrip():
    m = module_of_counts({"F": 1, "SDot": 2}, 2)
    again = MackeyModule.from_json(json.loads(json.dumps(m.to_json())))
    assert classify(again) == {"F": 1, "SDot": 2}
    assert validate_module(again) == []


def test_box_and_hom_outputs_are_pinned():
    """box and internal_hom on seeded scrambled pairs at l = 2, 3, 5 and
    on every pair of the zero module and the indecomposables at l = 2, 3,
    digested: the quotient basis of a box and the kernel basis of a hom
    are part of every module output built on them."""
    pairs = []
    for ell in (2, 3, 5):
        rng = random.Random(f"module-pin:{ell}")
        kinds = KINDS if ell == 2 else ODD_KINDS
        for _ in range(10):
            pairs.append([random_scrambled_module(
                {k: rng.randint(0, 2) for k in kinds}, ell, rng)
                for _ in "ab"])
    for ell in (2, 3):
        small = [zero_module(ell)] + [indecomposable(k, ell) for k in KINDS
                                      if ell == 2 or k != "SDot"]
        pairs += [(a, b) for a in small for b in small]
    digest = hashlib.sha256()
    for a, b in pairs:
        outs = [box(a, b).to_json(), internal_hom(a, b).to_json()]
        digest.update(json.dumps(outs, sort_keys=True).encode())
    assert digest.hexdigest() == ("4b3747535e92601ce74c352a1f016a85"
                                  "78ba07ac1c90a0885869048057f7044e")


# digests of box and internal_hom on seeded pairs at odd l, taken before
# odd-l elimination walked the pivot row's support: the rref is unique, so
# the bases it picks must not move
_ODD_MODULE_PINS = {
    3: "a193e6d3c91f1d6666721ba6b6a1bcf30cd447ffe92a42615d2f4de0bc9a56e7",
    5: "60354e6da045dd0d27aa66584c7a1ebded6971c3abb5c0f70358a121487962be",
    257: "6957a299a60eb33a7186206f8e57d4694b4f638e498b4548ac1131e8ede9e101",
    2 ** 61 - 1:
        "c9d615ca6ca0de5abc04460bf5ffbaea22ed307ca93797fa8f8061062201076c",
}


@pytest.mark.parametrize("ell", sorted(_ODD_MODULE_PINS))
def test_odd_box_and_hom_bases_are_pinned(ell):
    """box and internal_hom on four seeded pairs of scrambled 5-summand
    modules at l, digested module by module."""
    rng = random.Random(f"module-pins:{ell}")
    kinds = ("H", "F", "Hop", "STheta")
    digest = hashlib.sha256()
    for _ in range(4):
        a, b = (random_scrambled_module(
            dict(Counter(rng.choice(kinds) for _ in range(5))), ell, rng)
            for _ in "ab")
        for m in (box(a, b), internal_hom(a, b)):
            digest.update(json.dumps(m.to_json()).encode())
    assert digest.hexdigest() == _ODD_MODULE_PINS[ell]


def test_box_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        box(indecomposable("H", 2), indecomposable("H", 3))
