import ast
import hashlib
import importlib
import itertools
import json
import pathlib
import random
import re
import types
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c2mackey.complexes as complexes_module
from c2mackey.complexes import (U, ChainMap, FreeComplex, _ARROW_NAMES,
                                _HomComplex, _hom_degrees,
                                _nonzero_columns, _trimmed,
                                arrow_matrix, arrow_mul, box_chain_map, box_complex,
                                compose_chain_maps, cone, cotens_H,
                                direct_sum_complexes, ecompose, entry_ok,
                                hom_complex_dim, hom_delta,
                                homology,
                                homology_counts,
                                identity_chain_map, is_null_homotopic,
                                null_homotopy, orbit_matrix, orbit_starts,
                                realize, realize_map, realize_term,
                                shift_complex, strand, theta_block,
                                validate_chain_map, validate_complex,
                                zero_matrix)
from c2mackey.gf2core import FMatrix
from c2mackey.mackey import classify, direct_sum, indecomposable
from c2mackey.kronholm import is_spacelike
from c2mackey.derived import (_class_rep, _op_dual_strand, cohomology_window,
                              dcotens_formula_pair, m2_dim, sufficient_window)
from c2mackey.split import (_RANDOM_KINDS, Strand, _shape, certificate_isos,
                            decomposition_sum, random_scrambled_complex,
                            random_strand, strand_complex)
from c2mackey.split import split as split_complex


# -- arrow algebra ---------------------------------------------------------

def test_arrow_composition_identities():
    # u . u = 0, p . u = 0, u . p = 0 in both F/H windings
    assert ecompose("F", "F", "F", U, U) == 0
    assert ecompose("F", "F", "H", U, 1) == 0
    assert ecompose("H", "F", "F", 1, U) == 0
    # p . p through H is u; through F (up then down) it is 2 = 0
    assert ecompose("F", "H", "F", 1, 1) == U
    assert ecompose("H", "F", "H", 1, 1) == 0
    # t is an involution and t . u = u
    assert ecompose("F", "F", "F", 2, 2) == 1
    assert ecompose("F", "F", "F", U, 2) == U
    assert ecompose("F", "F", "F", 2, U) == U


@settings(max_examples=80, deadline=None)
@given(st.sampled_from("FH"), st.sampled_from("FH"), st.sampled_from("FH"),
       st.sampled_from("FH"), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
def test_arrow_composition_associative(ka, kb, kc, kd, e1, e2, e3):
    def clip(ks, kt, e):
        return e if (ks == "F" and kt == "F") else (e & 1)
    e1, e2, e3 = clip(ka, kb, e1), clip(kb, kc, e2), clip(kc, kd, e3)
    left = ecompose(ka, kc, kd, ecompose(ka, kb, kc, e1, e2), e3)
    right = ecompose(ka, kb, kd, e1, ecompose(kb, kc, kd, e2, e3))
    assert left == right


def test_arrow_tables_are_pinned():
    """Every composite and every box-product block, for all kinds and
    arrow codes, digested: both tables are read off ``theta_block`` and
    must equal the hand-derived bit formulas they replaced.  The box
    blocks also equal the basis-change route of ``_reference_pair_block``."""
    def codes(ks, kt):
        return range(4 if ks == kt == "F" else 2)

    comps = [[ka, kb, kc, e1, e2, ecompose(ka, kb, kc, e1, e2)]
             for ka, kb, kc in itertools.product("FH", repeat=3)
             for e1 in codes(ka, kb) for e2 in codes(kb, kc)]
    # the box-product table holds the nonzero arrows; a zero one has none
    table = complexes_module._box_blocks()
    boxes = [[ka, ka2, ea, kb, kb2, eb,
              [list(t) for t in table.get((ka, ka2, ea), {}).get(
                  (kb, kb2, eb), ())]]
             for ka, ka2, kb, kb2 in itertools.product("FH", repeat=4)
             for ea in codes(ka, ka2) for eb in codes(kb, kb2)]
    assert (len(comps), len(boxes)) == (52, 100)
    assert all(box[-1] == [list(t) for t in _reference_pair_block(*box[:6])]
               for box in boxes)
    assert hashlib.sha256(json.dumps([comps, boxes]).encode()).hexdigest() == (
        "b41d770bbe137feaab48fd69f1d1e8dcef9db94a993a7288b5bff19ee11fbe9d")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arrow_mul_realizes_as_the_product(data):
    """Both levels of the realization are multiplicative: composing arrow
    matrices and then realizing equals realizing and then multiplying."""
    kinds = st.lists(st.sampled_from("FH"), max_size=4)
    sk, mk, tk = data.draw(kinds), data.draw(kinds), data.draw(kinds)

    def arrows(src, tgt):
        return [[data.draw(st.integers(0, 3 if a == b == "F" else 1))
                 for a in src] for b in tgt]

    earlier, later = arrows(sk, mk), arrows(mk, tk)
    sm, mm, tm = (realize_term(k, 2) for k in (sk, mk, tk))
    prod = realize_map(sk, tk, arrow_mul(later, earlier, sk, mk, tk), 2,
                       sm, tm)
    comp = realize_map(mk, tk, later, 2, mm, tm).compose(
        realize_map(sk, mk, earlier, 2, sm, mm))
    assert prod.f_theta == comp.f_theta
    assert prod.f_dot == comp.f_dot


def test_arrow_products_go_through_arrow_mul():
    """One sparse product composes arrow matrices; only the hom-complex
    differential and the basis moves' composite tables, built at import,
    compose single arrows themselves."""
    pkg = pathlib.Path(complexes_module.__file__).resolve().parent

    def callers(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "ecompose" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                yield where
            inner = (child.name if isinstance(child, ast.FunctionDef)
                     else where)
            yield from callers(child, inner)

    found = {f"{path.stem}.{fn}" for path in sorted(pkg.glob("*.py"))
             for fn in callers(ast.parse(path.read_text()), "<module>")}
    assert found == {"complexes.arrow_mul", "complexes.__init__",
                     "split.<module>"}


def test_box_and_hom_outputs_are_pinned():
    """Box complexes, box chain maps, the box with a cotensor dual and
    hom-complex differentials on a fixed seeded set, digested: the
    placement of product generators and the Hom-basis order are part of
    every output built on them."""
    digest = hashlib.sha256()
    for i in range(60):
        rng = random.Random(f"pin:{i}")
        x, _ = random_scrambled_complex(rng, max_strands=3)
        y, _ = random_scrambled_complex(rng, max_strands=3)
        v, _ = certificate_isos(y, split_complex(y).certificate)
        outs = [box_complex(x, y).to_json(),
                box_complex(cotens_H(x), y).to_json(),
                box_chain_map(identity_chain_map(x), v).to_json()]
        outs += [hom_delta(x, y, n).to_rows() for n in (-1, 0, 1)]
        digest.update(json.dumps(outs, sort_keys=True).encode())
    assert digest.hexdigest() == ("c74df9422e1bc9bbcbbd0f0731c3be10"
                                  "31e19f38669fa543fc00f840fe8c44d6")


# -- canonical strands -------------------------------------------------------

def test_strand_shapes():
    a2 = strand("A", 2)
    assert a2.min_degree == 0 and a2.gens == [["F"], ["F"], ["F"]]
    assert a2.diffs == [[[U]], [[U]]]
    h2 = strand("Hn", 2)
    assert h2.min_degree == -2 and h2.gens == [["H"], ["F"], ["F"]]
    hm2 = strand("Hn", -2)
    assert hm2.min_degree == 0 and hm2.gens == [["F"], ["F"], ["H"]]
    b0 = strand("B", 0)
    assert b0.min_degree == -2 and b0.gens == [["H"], ["F"], ["H"]]
    for c in (a2, h2, hm2, b0):
        assert validate_complex(c) == []


@pytest.mark.parametrize("kind,param", [("DiskF", 3), ("DiskH", -1),
                                        ("A", -1), ("B", -1)])
def test_strand_refuses_params_outside_its_domain(kind, param):
    """``strand`` and ``Strand.from_json`` refuse the same params, with
    the same message."""
    with pytest.raises(ValueError) as built:
        strand(kind, param)
    with pytest.raises(ValueError) as loaded:
        Strand.from_json({"kind": kind, "param": param, "shift": 0})
    assert str(built.value) == str(loaded.value)


def test_strand_facts_are_pinned():
    """The canonical strands, the inverse of their shape table on every
    F/H sequence, and the cotensor and opposite-dual closed forms,
    digested: each is stated once and the others derived from it."""
    grid = ([("A", k) for k in range(8)] + [("B", r) for r in range(8)]
            + [("Hn", n) for n in range(-8, 9)] + [("DiskF", 0), ("DiskH", 0)])
    strands = ([Strand("A", k, s) for k in range(5) for s in (-2, 0, 1)]
               + [Strand("Hn", n, s) for n in range(-4, 5) for s in (-1, 0, 2)]
               + [Strand("B", r, s) for r in range(5) for s in (0, -3)])
    outs = [strand(kind, param).to_json() for kind, param in grid]
    outs += [_shape("".join(seq)) for n in range(1, 9)
             for seq in itertools.product("FH", repeat=n)]
    outs += [_op_dual_strand(s).to_json() for s in strands]
    outs += [[t.to_json() for t in dcotens_formula_pair(x, z)]
             for x in strands for z in strands]
    digest = hashlib.sha256(json.dumps(outs).encode()).hexdigest()
    assert digest == ("24cd8be7dcdad12c4a79712fb36d9c76"
                      "9494ce4e6b6f9b0040148d1f96734b27")


def test_validate_rejects_broken_differential():
    c = FreeComplex(0, [["F"], ["F"], ["F"]], [[[1]], [[1]]])
    errs = validate_complex(c)
    assert any("d*d" in e for e in errs)


def dense_dd_violations(c):
    """The d*d = 0 check as a dense triple loop over (target, source,
    middle generator): the reference for the sparse check."""
    out = []
    for i in range(len(c.diffs) - 1):
        lowk, midk, topk = c.gens[i], c.gens[i + 1], c.gens[i + 2]
        d1, d2 = c.diffs[i], c.diffs[i + 1]
        for r in range(len(lowk)):
            for s in range(len(topk)):
                acc = 0
                for q in range(len(midk)):
                    acc ^= ecompose(topk[s], midk[q], lowk[r],
                                    d2[q][s], d1[r][q])
                if acc:
                    out.append(f"d*d != 0 from degree {c.min_degree + i + 2} "
                               f"generator {s} to degree {c.min_degree + i} "
                               f"generator {r}")
    return out


def test_validate_complex_matches_dense_dd_check():
    rng = random.Random(5)
    broken = 0
    for i in range(150):
        c, _ = random_scrambled_complex(random.Random(f"dd:{i}"),
                                        max_strands=8)
        for _ in range(rng.randint(0, 4)):
            j = rng.randrange(len(c.diffs)) if c.diffs else None
            if j is None or not c.diffs[j] or not c.diffs[j][0]:
                break
            m = c.diffs[j]
            r, s = rng.randrange(len(m)), rng.randrange(len(m[0]))
            both_f = c.gens[j][r] == c.gens[j + 1][s] == "F"
            m[r][s] = rng.randrange(4 if both_f else 2)
        want = dense_dd_violations(c)
        broken += bool(want)
        assert validate_complex(c) == want, i
    assert broken > 50


def test_shift_and_sum():
    c = direct_sum_complexes([shift_complex(strand("A", 1), 2), strand("B", 0)])
    assert validate_complex(c) == []
    assert c.min_degree == -2 and c.max_degree == 3
    assert c.num_gens() == 2 + 3


def _placed_arrows(nrows, ncols, blocks):
    """The nrows x ncols arrow matrix that holds each arrow matrix of
    ``blocks``, an iterable of (i0, j0, block) triples, with its top left
    corner at (i0, j0), and zero arrows elsewhere."""
    out = zero_matrix(nrows, ncols)
    for i0, j0, b in blocks:
        for i, row in enumerate(b, i0):
            out[i][j0:j0 + len(row)] = row
    return out


def _canonical_perm(kinds):
    """Stable F-before-H permutation: perm[new_slot] = old_slot."""
    return ([i for i, k in enumerate(kinds) if k == "F"]
            + [i for i, k in enumerate(kinds) if k == "H"])


def _canonicalize(c):
    """``c`` trimmed to the degrees between its first and last generator,
    with the F generators of each degree moved before its H's."""
    c = _trimmed(c)
    perms = [_canonical_perm(g) for g in c.gens]
    gens = [[g[p] for p in perm] for g, perm in zip(c.gens, perms)]
    diffs = []
    for i, m in enumerate(c.diffs):
        tp, sp = perms[i], perms[i + 1]
        diffs.append([[m[tr][sc] for sc in sp] for tr in tp])
    return FreeComplex(c.min_degree, gens, diffs)


def _build_trim_permute_sum(parts):
    """``direct_sum_complexes`` the way it was first written: lay the
    parts side by side in each degree, then trim the empty end degrees and
    move the F generators before the H's with ``_canonicalize``."""
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
    diffs = [_placed_arrows(len(gens[d - 1 - lo]), len(gens[d - lo]),
                            [(offs[d - 1], offs[d], p.diff(d))
                             for p, offs in zip(parts, offsets)
                             if p.min_degree < d <= p.max_degree])
             for d in range(lo + 1, hi + 1)]
    return _canonicalize(FreeComplex(lo, gens, diffs))


def _padded(c, below, above):
    """``c`` with ``below`` and ``above`` empty degrees added at its
    ends."""
    return FreeComplex(c.min_degree - below,
                       [[]] * below + [list(k) for k in c.gens] + [[]] * above,
                       [c.diff(d) for d in range(c.min_degree - below + 1,
                                                 c.max_degree + above + 1)])


def _random_part(rng):
    """A zero complex of 1-3 empty degrees, a scrambled sum or a strand,
    the last two with up to two empty degrees added at each end."""
    roll = rng.random()
    if roll < 0.15:
        lo, n = rng.randint(-3, 3), rng.randint(1, 3)
        return FreeComplex(lo, [[]] * n, [[]] * (n - 1))
    if roll < 0.5:
        c, _ = random_scrambled_complex(rng, max_strands=3)
    else:
        c = strand_complex(random_strand(rng, 4))
    return _padded(c, rng.randint(0, 2), rng.randint(0, 2))


def test_direct_sum_matches_build_trim_permute():
    """The sum built in canonical order at once equals the one built side
    by side and then trimmed and permuted, on random parts: strands,
    scrambled sums, zero complexes and parts with empty end degrees."""
    rng = random.Random("direct-sum")
    for trial in range(300):
        parts = [_random_part(rng) for _ in range(rng.randint(0, 5))]
        assert all(validate_complex(p) == [] for p in parts), trial
        got = direct_sum_complexes(parts)
        want = _build_trim_permute_sum(parts)
        assert (got.min_degree, got.gens, got.diffs) == (
            want.min_degree, want.gens, want.diffs), trial


def test_canonicalize_orders_f_before_h():
    c = FreeComplex(0, [["H", "F"]], [])
    assert _canonicalize(c).gens == [["F", "H"]]


def _reference_cone(f):
    """``cone`` the way it was first written: in each degree the shifted
    source's generators, then the target's, the three blocks of the
    differential placed side by side, then trimmed and permuted with
    ``_canonicalize``."""
    X, Y = f.source, f.target
    lo = min(X.min_degree + 1, Y.min_degree)
    hi = max(X.max_degree + 1, Y.max_degree)
    gens = [list(X.gens_at(d - 1)) + list(Y.gens_at(d))
            for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo + 1, hi + 1):
        nxs, nxt = len(X.gens_at(d - 1)), len(X.gens_at(d - 2))
        diffs.append(_placed_arrows(
            len(gens[d - lo - 1]), len(gens[d - lo]),
            [(0, 0, X.diff(d - 1)), (nxt, 0, f.component(d - 1)),
             (nxt, nxs, Y.diff(d))]))
    return _canonicalize(FreeComplex(lo, gens, diffs))


def _reference_cotens_H(c):
    """``cotens_H`` the way it was first written: reverse the degrees,
    transpose each differential, then ``_canonicalize``."""
    gens = c.gens
    diffs = [[[m[r][j] for r in range(len(gens[i]))]
              for j in range(len(gens[i + 1]))]
             for i, m in enumerate(c.diffs)]
    return _canonicalize(FreeComplex(-c.max_degree, gens[::-1], diffs[::-1]))


def _same_layout(got, want):
    """Whether ``got`` is ``want`` generator for generator; the layout puts
    a zero complex in degree 0, where the reference leaves it anywhere."""
    if want.is_zero():
        return got == want and (got.min_degree, got.gens, got.diffs) == (
            0, [[]], [])
    return (got.min_degree, got.gens, got.diffs) == (
        want.min_degree, want.gens, want.diffs)


def test_cone_and_cotens_match_their_first_layouts():
    """``cone`` and ``cotens_H`` lay out through the canonical sum and
    equal their first versions, on random cocycles and identities between
    random parts: scrambles, strands, zero complexes, parts with empty end
    degrees, and maps with a zero source or target or no common degree."""
    rng = random.Random("cone-layout")
    one_sided = 0
    for trial in range(300):
        x, y = _random_part(rng), _random_part(rng)
        cycles = hom_delta(x, y, 0).kernel_basis()
        vec = cycles.mul_vec([rng.randrange(2) for _ in range(cycles.ncols)])
        f = _HomComplex(x, y).chain_map(0, vec)
        one_sided += not f.components
        for g in (f, identity_chain_map(x)):
            assert _same_layout(cone(g), _reference_cone(g)), trial
        assert _same_layout(cotens_H(x), _reference_cotens_H(x)), trial
    assert one_sided > 30


def test_every_zero_complex_is_equal():
    """Complexes with no generator are equal whatever their degrees, and
    none equals a complex with a generator."""
    zeros = [FreeComplex(6, [[]], []), FreeComplex(0, [[]], []),
             FreeComplex(6, [[], []], [[]]), FreeComplex(0, [], []),
             FreeComplex(-5, [[], [], []], [[], []])]
    for a in zeros:
        assert all(a == b for b in zeros)
        assert a != strand("A", 0) and strand("A", 0) != a
    x = FreeComplex(6, [[]], [])
    assert cone(identity_chain_map(x)) == cotens_H(x) == x


def test_complex_json_roundtrip():
    c = direct_sum_complexes([strand("Hn", -3), shift_complex(strand("A", 2), 1)])
    again = FreeComplex.from_json(json.loads(json.dumps(c.to_json())))
    assert again == c


# -- the free-orbit codec -------------------------------------------------------

_LEGAL = st.sampled_from([(ks, kt, e) for (ks, kt), names in _ARROW_NAMES.items()
                          for e in range(len(names))])


@st.composite
def _arrow_matrices(draw):
    """(arrow matrix, source kinds, target kinds): each slot holds a legal
    code of its kind pair, zero more often than not; either side may be
    empty."""
    sk = draw(st.lists(st.sampled_from("FH"), max_size=6))
    tk = draw(st.lists(st.sampled_from("FH"), max_size=6))
    m = [[draw(st.integers(0, len(_ARROW_NAMES[ks, kt]) - 1))
          if draw(st.booleans()) else 0 for ks in sk] for kt in tk]
    return m, sk, tk


@settings(max_examples=200, deadline=None)
@given(_arrow_matrices(), _LEGAL)
def test_orbit_codec_matches_block_placement(case, legal):
    """The codec ORs each arrow's theta_block pattern into its slot: the
    same matrix as ``FMatrix.kron_sum`` writes with one term per arrow,
    its block times the 1 x 1 identity, and ``arrow_matrix`` reads the
    arrows back.  ``legal`` makes every kind pair and code come up as a
    lone 1 x 1 matrix too."""
    ks, kt, e = legal
    for m, sk, tk in (case, ([[e]], [ks], [kt])):
        ss, ts = orbit_starts(sk), orbit_starts(tk)
        want = FMatrix.kron_sum(2, ts[-1], ss[-1], [
            (ts[r], ss[s], 1, 1, theta_block(sk[s], tk[r], m[r][s]))
            for r in range(len(tk)) for s in range(len(sk)) if m[r][s]])
        theta = orbit_matrix(m, sk, tk)
        assert theta == want
        assert arrow_matrix(theta, sk, tk) == m


def test_orbit_codec_refuses_codes_its_slot_lacks():
    """A code past the slot's alphabet, a negative one or one that is not
    an int is a KeyError naming the slot and the code, at every l, never
    a pattern from another code."""
    for (ks, kt), names in _ARROW_NAMES.items():
        for e in (len(names), 5, -1, -len(names), 1.0, 0.0, None, "1"):
            m = [[0, 0], [0, e]]
            for ell in (2, 3):
                with pytest.raises(KeyError) as info:
                    orbit_matrix(m, ["H", ks], ["F", kt], ell)
                assert info.value.args[0] == (ks, kt, e)


# -- realization and homology -------------------------------------------------

def test_realize_differentials_square_to_zero():
    from c2mackey.mackey import validate_module
    for s, p in (("A", 3), ("Hn", 2), ("Hn", -3), ("B", 2)):
        c = strand(s, p)
        mods, maps = realize(c, 2)
        assert all(validate_module(m) == [] for m in mods)
        for i in range(len(maps) - 1):
            comp = maps[i].compose(maps[i + 1])
            assert comp.f_theta.is_zero() and comp.f_dot.is_zero()


def per_entry_realize_map(src_kinds, tgt_kinds, entries, ell):
    """(f_theta, f_dot) of a symbol map, entry by entry from theta_block
    and the fixed-level arrow: the reference for realize_map."""
    def offsets(kinds):
        offs, off = [], 0
        for k in kinds:
            offs.append(off)
            off += 2 if k == "F" else 1
        return offs, off
    soffs, nts = offsets(src_kinds)
    toffs, ntt = offsets(tgt_kinds)
    f_theta = FMatrix.zeros(ntt, nts, ell)
    f_dot = FMatrix.zeros(len(tgt_kinds), len(src_kinds), ell)
    for r, kt in enumerate(tgt_kinds):
        for s, ks in enumerate(src_kinds):
            e = entries[r][s]
            if not e:
                continue
            tb = theta_block(ks, kt, e, ell)
            for i in range(tb.nrows):
                for j in range(tb.ncols):
                    f_theta.set(toffs[r] + i, soffs[s] + j, tb.get(i, j))
            if ks == "F" and kt == "F":
                dot = (e & 1) + (e >> 1)
            elif ks == "F":             # the transfer: multiplication by 2
                dot = 2 * e
            else:
                dot = e
            f_dot.set(r, s, dot)
    return f_theta, f_dot


@pytest.mark.parametrize("ell", [2, 3, 257, 2 ** 61 - 1])
def test_realize_map_matches_per_entry_reference(ell):
    for ks in "FH":
        for kt in "FH":
            for e in range(1, 4):
                if not entry_ok(ks, kt, e):
                    continue
                f = realize_map([ks], [kt], [[e]], ell,
                                realize_term([ks], ell),
                                realize_term([kt], ell))
                assert (f.f_theta, f.f_dot) == per_entry_realize_map(
                    [ks], [kt], [[e]], ell), (ks, kt, e)
    for i in range(30):
        c, _ = random_scrambled_complex(random.Random(f"rm:{i}"),
                                        max_strands=8)
        mods, maps = realize(c, ell)
        for k, f in enumerate(maps):
            want = per_entry_realize_map(c.gens[k + 1], c.gens[k],
                                         c.diffs[k], ell)
            assert (f.f_theta, f.f_dot) == want, (i, k)
        for kinds, m in zip(c.gens, mods):
            if kinds:
                assert m == direct_sum(*[indecomposable(k, ell)
                                         for k in kinds])
            else:
                assert (m.dim_theta, m.dim_dot) == (0, 0)


def test_homology_counts_realizes_once(monkeypatch):
    c, _ = random_scrambled_complex(random.Random(3), max_strands=8)
    assert len(c.gens) > 2
    want = homology_counts(c)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return realize(*args, **kwargs)
    monkeypatch.setattr(complexes_module, "realize", counting)
    assert homology_counts(c) == want
    assert len(calls) == 1


def test_homology_counts_refuses_non_complexes():
    # F -> F -> F by 1 and 1: d*d is the identity
    ff = FreeComplex(0, [["F"], ["F"], ["F"]], [[[1]], [[1]]])
    with pytest.raises(ValueError, match="mod 2 between degrees 2 and 0"):
        homology_counts(ff)
    # the unsigned lifts of these strands square to nonzero mod 3
    for kind, param in (("A", 2), ("B", 0), ("Hn", 2)):
        c = strand(kind, param)
        with pytest.raises(ValueError, match="d\\*d != 0 mod 3"):
            homology_counts(c, 3)
        assert homology_counts(c, 2)



def test_homology_refuses_non_complexes():
    """``homology`` checks d*d = 0 through its degree with the check, and
    the message, of ``homology_counts``."""
    ff = FreeComplex(0, [["F"], ["F"], ["F"]], [[[1]], [[1]]])
    with pytest.raises(ValueError, match="mod 2 between degrees 2 and 0"):
        homology(ff, 1)
    a2 = strand("A", 2)
    with pytest.raises(ValueError, match="mod 3 between degrees 2 and 0"):
        homology(a2, 1, 3)
    # the ends of the F chain have no composite through them
    assert homology(ff, 0).dim_theta == 0
    assert classify(homology(a2, 1)) == {"SDot": 1}


# an F -> F -> F chain with d*d != 0, and an H -> F arrow with a code no
# slot has
_FF = FreeComplex(0, [["F"], ["F"], ["F"]], [[[1]], [[1]]])
_BAD = FreeComplex(0, [["H"], ["F"]], [[[5]]])
_FF_ERR = "not a valid complex: d.d != 0 from degree 2 generator 0"
_BAD_ERR = r"illegal arrow 5 in slot \(F->H\) of the differential into degree 0"


def test_diff_outside_the_range_is_a_zero_matrix():
    """Out of the bottom degree, into the top and further out, ``diff``
    is the zero matrix of shape len(gens_at(d - 1)) x len(gens_at(d))."""
    c = FreeComplex(-1, [["F", "H"], [], ["H", "F", "F"]],
                    [zero_matrix(2, 0), zero_matrix(0, 3)])
    assert c.diff(-1) == []
    assert c.diff(2) == [[], [], []]
    assert c.diff(0) is c.diffs[0] and c.diff(1) is c.diffs[1]
    for d in (-40, -2, 3, 40):
        assert c.diff(d) == []
    a1 = strand("A", 1)
    assert a1.diff(a1.min_degree) == zero_matrix(0, 1)
    assert a1.diff(a1.max_degree + 1) == zero_matrix(1, 0)
    for empty in (FreeComplex(0, [], []), FreeComplex(3, [[]], [])):
        for d in (-5, 0, 3, 4, 9):
            assert empty.diff(d) == []


def test_hom_complex_dim_refuses_non_complexes():
    with pytest.raises(ValueError, match=_FF_ERR):
        hom_complex_dim(_FF, strand("Hn", 0), -1)
    with pytest.raises(ValueError, match=_BAD_ERR):
        hom_complex_dim(_BAD, strand("Hn", 1), 0)
    with pytest.raises(ValueError, match=_BAD_ERR):
        hom_complex_dim(strand("Hn", 1), _BAD, 0)
    x = strand("A", 1)
    for n in (0.5, 0.0, "0", None, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            hom_complex_dim(x, x, n)


def test_hom_delta_refuses_non_complexes():
    with pytest.raises(ValueError, match=_FF_ERR):
        hom_delta(_FF, strand("Hn", 0), -1)
    with pytest.raises(ValueError, match=_BAD_ERR):
        hom_delta(strand("Hn", 1), _BAD, 0)
    x = strand("A", 1)
    for n in (0.5, 1.0, None):
        with pytest.raises(ValueError, match="n must be an integer"):
            hom_delta(x, x, n)


def test_null_homotopy_refuses_non_complexes():
    with pytest.raises(ValueError, match=_FF_ERR):
        null_homotopy(identity_chain_map(_FF))
    with pytest.raises(ValueError, match=_BAD_ERR):
        is_null_homotopic(identity_chain_map(_BAD))
    x = strand("A", 1)
    for n in (0.5, 1.0, "0"):
        f = ChainMap(x, x, {}, n)
        assert validate_chain_map(f) == [f"degree {n!r} is not an integer"]
        with pytest.raises(ValueError, match="degree .* is not an integer"):
            null_homotopy(f)
    y = strand("Hn", 0)
    for key in (0.0, "0", True):
        f = ChainMap(y, y, {key: [[1]]})
        assert validate_chain_map(f) == [
            f"component degree {key!r} is not an integer"]
        for call in (null_homotopy, is_null_homotopic, is_spacelike):
            with pytest.raises(ValueError, match="component degree"):
                call(f)


def test_cohomology_window_refuses_non_integer_bounds():
    """Each bound of the window is an integer, named when it is not."""
    c = strand("A", 1)
    for k, what in enumerate(("p0", "p1", "q0", "q1")):
        for bad in (0.5, 1.0, None):
            bounds = [0, 1, 0, 1]
            bounds[k] = bad
            with pytest.raises(ValueError, match=f"{what} must be an integer"):
                cohomology_window(c, *bounds)


def test_validate_complex_refuses_a_non_integer_min_degree():
    for bad in (0.5, 1.0, True, "0", None):
        c = FreeComplex(bad, [["H"]], [])
        assert validate_complex(c) == [
            f"min_degree must be an integer, not {bad!r}"]


# each public entry point that takes a complex, called on one
_MIN_DEGREE_CALLS = {
    "split": split_complex,
    "hom_delta": lambda c: hom_delta(c, strand("Hn", 0), 0),
    "hom_complex_dim": lambda c: hom_complex_dim(strand("Hn", 0), c, 0),
    "null_homotopy": lambda c: null_homotopy(ChainMap(c, c, {}, 0)),
    "cohomology_window": lambda c: cohomology_window(c, 0, 1, 0, 1),
    "homology": lambda c: homology(c, 0),
    "homology_counts": homology_counts,
}


@pytest.mark.parametrize("entry", sorted(_MIN_DEGREE_CALLS))
def test_entry_points_refuse_a_non_integer_min_degree(entry):
    """A float or bool min_degree is a ValueError naming it, never a
    TypeError from deep inside; ``homology`` and ``homology_counts`` check
    its type alone, without validating the complex."""
    for bad in (0.5, True):
        with pytest.raises(ValueError,
                           match=f"min_degree must be an integer, not {bad}"):
            _MIN_DEGREE_CALLS[entry](FreeComplex(bad, [["H"]], []))


def test_hom_entry_points_validate_each_input_once(monkeypatch):
    """A public entry point checks each complex it is given once (a
    complex given twice, once); the hom complex behind it trusts them, and
    the private ``_transported_class`` is only fed strands."""
    calls = []
    real = complexes_module.validate_complex
    monkeypatch.setattr(complexes_module, "validate_complex",
                        lambda c: calls.append(c) or real(c))
    x, y = strand("A", 1), strand("Hn", 2)
    disk = identity_chain_map(cone(identity_chain_map(x)))
    for k, (call, want) in enumerate((
            (lambda: hom_delta(x, y, 0), 2),
            (lambda: hom_delta(x, x, 0), 1),
            (lambda: hom_complex_dim(x, y, 1), 2),
            (lambda: null_homotopy(disk), 1),
            (lambda: cohomology_window(y, -3, 3, -3, 3), 1),
            (lambda: _class_rep(1, 1), 0))):
        calls.clear()
        call()
        assert len(calls) == want, k


def test_hom_chain_map_refuses_wrong_vectors():
    """On strand("A", 1), whose degree-0 Hom basis has 4 elements, a
    vector of another length or with an entry other than the int 0 or 1
    is refused with the length it needs, not read as some chain map."""
    x = strand("A", 1)
    hom = _HomComplex(x, x)
    assert hom.chain_map(0, [1, 0, 1, 0]) == identity_chain_map(x)
    for vec in ([1] * 9, [1], [], [2, 0, 0, 0], [-1, 0, 0, 0],
                [1.0, 0, 1, 0], [True, 0, 1, 0], [1, 0, None, 0]):
        with pytest.raises(ValueError, match="Hom_0 is 4 entries"):
            hom.chain_map(0, vec)


def test_validate_chain_map_checks_source_and_target_first():
    """A source or target that is not a complex is reported as such, not
    a KeyError or an empty list, and a map from a complex to itself
    validates that complex once."""
    bad_arrow = "illegal arrow 5 in slot (F->H) of the differential into degree 0"
    assert validate_chain_map(identity_chain_map(_BAD)) == [
        f"source is not a valid complex: {bad_arrow}"]
    assert validate_chain_map(ChainMap(strand("Hn", 0), _BAD, {}, 0)) == [
        f"target is not a valid complex: {bad_arrow}"]
    errs = validate_chain_map(ChainMap(_FF, _BAD, {}, 0))
    assert errs[0].startswith("source is not a valid complex: d*d != 0")
    assert errs[-1] == f"target is not a valid complex: {bad_arrow}"
    seen = []

    def counting(c):
        seen.append(c)
        return validate_complex(c)

    a2 = strand("A", 2)
    try:
        complexes_module.validate_complex = counting
        assert validate_chain_map(identity_chain_map(a2)) == []
        assert seen == [a2]
        assert validate_chain_map(ChainMap(a2, strand("Hn", 0), {}, 0)) == []
        assert len(seen) == 3
    finally:
        complexes_module.validate_complex = validate_complex


def test_homology_counts_refuses_an_illegal_arrow():
    with pytest.raises(ValueError, match=_BAD_ERR):
        homology_counts(_BAD)
    with pytest.raises(ValueError, match=_BAD_ERR):
        homology_counts(_BAD, 3)


def test_homology_refuses_an_illegal_arrow():
    for d in (0, 1):
        with pytest.raises(ValueError, match=_BAD_ERR):
            homology(_BAD, d)


def a_homology(k):
    if k == 0:
        return {0: {"F": 1}}
    if k == 1:
        return {1: {"H": 1}, 0: {"Hop": 1}}
    out = {k: {"H": 1}, 0: {"Hop": 1}}
    for i in range(1, k):
        out[i] = {"SDot": 1}
    return out


def hn_homology(n):
    if n == 0:
        return {0: {"H": 1}}
    if n > 0:
        out = {0: {"H": 1}}
        for i in range(-n, 0):
            out[i] = {"SDot": 1}
        return out
    j = -n
    if j == 1:
        return {0: {"STheta": 1}}
    if j == 2:
        return {0: {"Hop": 1}}
    out = {0: {"Hop": 1}}
    for i in range(1, j - 1):
        out[i] = {"SDot": 1}
    return out


def b_homology(r):
    return {i: {"SDot": 1} for i in range(-(r + 2), -1)}


def test_strand_homology_all_families():
    for k in range(0, 7):
        assert homology_counts(strand("A", k)) == a_homology(k), ("A", k)
    for n in range(-7, 8):
        assert homology_counts(strand("Hn", n)) == hn_homology(n), ("Hn", n)
    for r in range(0, 7):
        assert homology_counts(strand("B", r)) == b_homology(r), ("B", r)


def test_homology_shift_invariance():
    c = strand("B", 1)
    shifted = homology_counts(shift_complex(c, 3))
    assert shifted == {d + 3: v for d, v in homology_counts(c).items()}


def test_cone_of_identity_is_acyclic():
    for s, p in (("A", 2), ("Hn", -2), ("B", 0)):
        c = cone(identity_chain_map(strand(s, p)))
        assert validate_complex(c) == []
        assert homology_counts(c) == {}


# -- chain maps ---------------------------------------------------------------

def test_chain_map_validation_and_composition():
    a1 = strand("A", 1)
    f = identity_chain_map(a1)
    assert validate_chain_map(f) == []
    g = compose_chain_maps(f, f)
    assert g.components == f.components
    # a non-commuting assignment is rejected
    bad = ChainMap(strand("Hn", 0), strand("Hn", 1), {0: [[0], [1]]}, 0)
    assert bad.components[0] == [[0], [1]] and validate_chain_map(bad)
    # f_1 = 1 and f_0 = 0 on A(1): d f_1 is the arrow of d, f_0 d is zero
    assert validate_chain_map(ChainMap(a1, a1, {0: [[0]], 1: [[1]]})) == [
        "does not commute with d at source degree 1"]
    with pytest.raises(ValueError, match="degree-0 maps"):
        cone(ChainMap(a1, a1, {}, 1))


def test_validate_chain_map_names_each_illegal_arrow_once():
    """Each arrow code that its slot lacks is named once, with its code,
    its slot and its degree; an int 1 and a bool pass, 1.0 and 0.0 do
    not."""
    ff, hh = FreeComplex(0, [["F", "F"]], []), FreeComplex(0, [["H", "H"]], [])
    where = "in slot (F->H) of the component at degree 0"
    assert validate_chain_map(ChainMap(ff, hh, {0: [[5, 7], [1, 9]]})) == [
        f"illegal arrow {e} {where}" for e in (5, 7, 9)]
    assert validate_chain_map(ChainMap(ff, hh, {0: [[1.0, True], [0, 0.0]]})
                              ) == [f"illegal arrow {e} {where}"
                                    for e in (1.0, 0.0)]


def test_chain_map_json_roundtrip():
    c = strand("Hn", 1)
    f = identity_chain_map(c)
    again = ChainMap.from_json(json.loads(json.dumps(f.to_json())))
    assert again.components == f.components
    assert again.source == c and again.target == c
    for bad in ([f.to_json()], {**f.to_json(), "degree": 0.0},
                {**f.to_json(), "degree": "0"}, {**f.to_json(), "degree": False},
                {**f.to_json(), "components": [[["1"]]]},
                {**f.to_json(), "components": {" 0 ": [["1"]]}},
                {**f.to_json(), "components": {"0": [["1"]], "00": [["1"]]}}):
        with pytest.raises(ValueError):
            ChainMap.from_json(bad)


def test_null_homotopy_witness():
    # the identity of a disk is null-homotopic: dh + hd = f
    disk = cone(identity_chain_map(strand("A", 0)))
    f = identity_chain_map(disk)
    h = null_homotopy(f)
    assert h is not None and h.degree == 1
    for d in disk.degrees():
        ks = disk.gens_at(d)
        acc = [[0] * len(ks) for _ in ks]
        # d . h at degree d
        dn, hm, up = disk.diff(d + 1), h.component(d), disk.gens_at(d + 1)
        for r in range(len(ks)):
            for c in range(len(ks)):
                for q in range(len(up)):
                    acc[r][c] ^= ecompose(ks[c], up[q], ks[r],
                                          hm[q][c], dn[r][q])
        # h . d at degree d
        dd, hm1, dn1 = disk.diff(d), h.component(d - 1), disk.gens_at(d - 1)
        for r in range(len(ks)):
            for c in range(len(ks)):
                for q in range(len(dn1)):
                    acc[r][c] ^= ecompose(ks[c], dn1[q], ks[r],
                                          dd[q][c], hm1[r][q])
        assert acc == f.component(d), d
    assert is_null_homotopic(f)
    assert not is_null_homotopic(identity_chain_map(strand("Hn", 0)))
    assert null_homotopy(identity_chain_map(strand("Hn", 0))) is None


def test_homotopy_functions_refuse_invalid_maps():
    # an illegal arrow code and a wrong-shape component are violations,
    # not an IndexError or a silent answer
    a = strand("A", 0)
    for bad, violation in ((ChainMap(a, a, {0: [[5]]}, 0), "illegal arrow"),
                           (ChainMap(a, a, {0: [[1, 1]]}, 0), "wrong shape")):
        for fn in (null_homotopy, is_null_homotopic):
            with pytest.raises(ValueError, match=violation):
                fn(bad)


def test_hom_group_dimensions():
    unit = strand("Hn", 0)
    assert hom_complex_dim(unit, unit, 0) == 1
    assert hom_complex_dim(unit, strand("Hn", -1), 0) == 0
    assert hom_complex_dim(unit, shift_complex(strand("Hn", 1), 1), 0) == 1
    a0 = strand("A", 0)
    # endomorphisms of F: spanned by 1 and t
    assert hom_complex_dim(a0, a0, 0) == 2


# -- the hom complex against the per-entry and per-point references -------

def _bits(e):
    """The Hom-basis coordinates w of the arrow code ``e``."""
    return ((), (0,), (1,), (0, 1))[e]


def hom_basis(x, y, n):
    """Basis of Hom(x, y)_n: elements (i, src, tgt, w) whose arrow is
    1 << w, so that an arrow's coordinates are the bits of its code (F->F
    has the two-element basis {1, t}).  The layout ``_HomComplex`` places
    without listing it, kept as its reference."""
    out = []
    for i in _hom_degrees(x, y, n):
        for s, ks in enumerate(x.gens_at(i)):
            for t_, kt in enumerate(y.gens_at(i + n)):
                out += [(i, s, t_, w)
                        for w in range(2 if ks == kt == "F" else 1)]
    return out


def _reference_hom_size(x, y, n):
    """len(hom_basis(x, y, n)), counted without building the basis."""
    size = 0
    for i in _hom_degrees(x, y, n):
        xk, yk = x.gens_at(i), y.gens_at(i + n)
        size += len(xk) * len(yk) + xk.count("F") * yk.count("F")
    return size


def _reference_hom_delta(x, y, n):
    """The differential Hom(x, y)_n -> Hom(x, y)_{n-1}, f |-> d f + f d,
    written entry by entry at the positions of ``hom_basis``: the
    builder ``hom_delta`` replaced, kept as its reference."""
    tindex = {b: k for k, b in enumerate(hom_basis(x, y, n - 1))}
    delta = FMatrix.zeros(len(tindex), _reference_hom_size(x, y, n), 2)
    col = 0
    for i in _hom_degrees(x, y, n):
        xk, yk = x.gens_at(i), y.gens_at(i + n)
        if not xk or not yk:
            continue
        xk2, yk2 = x.gens_at(i + 1), y.gens_at(i + n - 1)
        dy, dx = y.diff(i + n), x.diff(i + 1)
        # the nonzero arrows of d out of each yk, and into each xk
        dyc = _nonzero_columns(dy, len(yk))
        dxr = [[(s2, e) for s2, e in enumerate(row) if e] for row in dx]
        for s, ks in enumerate(xk):
            for t_, kt in enumerate(yk):
                for w in range(2 if ks == kt == "F" else 1):
                    # the two parts write to different degrees i and i + 1,
                    # so every entry is written once
                    for t2, e in dyc[t_]:
                        v = ecompose(ks, kt, yk2[t2], 1 << w, e)
                        for w2 in _bits(v):
                            delta.set(tindex[i, s, t2, w2], col, 1)
                    for s2, e in dxr[s]:
                        v = ecompose(xk2[s2], ks, kt, e, 1 << w)
                        for w2 in _bits(v):
                            delta.set(tindex[i + 1, s2, t_, w2], col, 1)
                    col += 1
    return delta


def _reference_hom_complex_dim(x, y, n):
    dn = _reference_hom_delta(x, y, n)
    dn1 = _reference_hom_delta(x, y, n + 1)
    return dn.nullity() - dn1.rank()


def _reference_cohomology_window(c, p0, p1, q0, q1):
    """The per-point window: two hom differentials of c against the
    (p, q) twist of the unit at every lattice point."""
    return [[_reference_hom_complex_dim(c, strand_complex(Strand("Hn", q, p)),
                                        0)
             for q in range(q0, q1 + 1)]
            for p in range(p0, p1 + 1)]


EMPTY = FreeComplex(0, [[]], [])


def _near_strand(rng):
    """A strand drawn the way ``random_strand(rng, 3)`` draws one, with
    its shift in -2..2 instead of -4..4."""
    kind = rng.choice(_RANDOM_KINDS)
    if kind in ("A", "B"):
        param = rng.randint(0, 3)
    else:
        param = rng.randint(-3, 3) if kind == "Hn" else 0
    return Strand(kind, param, rng.randint(-2, 2))


def _cocycle_cone(rng):
    """The cone of a random degree-0 cocycle between two sums of 1-3
    random strands, as ``test_split`` draws its cones."""
    x, y = (decomposition_sum([_near_strand(rng)
                               for _ in range(rng.randint(1, 3))])
            for _ in range(2))
    cycles = hom_delta(x, y, 0).kernel_basis()
    vec = cycles.mul_vec([rng.randrange(2) for _ in range(cycles.ncols)])
    return cone(_HomComplex(x, y).chain_map(0, vec))


def _hom_pairs():
    """Scrambles, boxes, cotensor duals, cones and the empty complex."""
    rng = random.Random("hom-reference")
    pairs = []
    for _ in range(12):
        x, _ = random_scrambled_complex(rng, max_strands=3)
        y, _ = random_scrambled_complex(rng, max_strands=3)
        x2, _ = random_scrambled_complex(rng, max_strands=2)
        pairs += [(x, y), (box_complex(x2, y), x), (cotens_H(x), y),
                  (y, cotens_H(x)), (_cocycle_cone(rng), y),
                  (x, _cocycle_cone(rng))]
    return pairs + [(EMPTY, pairs[0][1]), (pairs[0][0], EMPTY),
                    (EMPTY, EMPTY)]


def test_hom_delta_matches_the_per_entry_reference():
    """Every row index and shift of the column builder lands where the
    per-entry builder writes, in every degree from -2 to 2, and each hom
    group has the reference's dimension."""
    for k, (x, y) in enumerate(_hom_pairs()):
        for n in range(-2, 3):
            assert hom_delta(x, y, n) == _reference_hom_delta(x, y, n), (k, n)
            assert hom_complex_dim(x, y, n) == _reference_hom_complex_dim(
                x, y, n), (k, n)


def _reference_vector(f):
    """f's coordinates in the hom complex, at the positions of
    ``hom_basis``."""
    index = {b: k for k, b in enumerate(hom_basis(f.source, f.target,
                                                   f.degree))}
    vec = [0] * len(index)
    for d, m in f.components.items():
        for t_, row in enumerate(m):
            for s, e in enumerate(row):
                for w in _bits(e):
                    vec[index[d, s, t_, w]] = 1
    return vec


def test_hom_vectors_round_trip_at_the_reference_positions():
    """A vector of Hom(x, y)_n read as a chain map puts each coordinate
    where ``hom_basis`` lists it, and reads back to itself: vector b has
    bit b of each position's index there, so together they tell every
    position apart."""
    for k, (x, y) in enumerate(_hom_pairs()):
        hom = _HomComplex(x, y)
        for n in range(-2, 3):
            size = _reference_hom_size(x, y, n)
            for b in range(size.bit_length()):
                vec = [j >> b & 1 for j in range(size)]
                f = hom.chain_map(n, vec)
                assert _reference_vector(f) == vec, (k, n, b)
                assert hom.vector(f) == vec, (k, n, b)


def test_hom_chain_maps_are_pinned():
    """The cocycles ``_class_rep`` picks for the unit's cohomology classes
    in a window and the null-homotopies of identities of contractible
    cones, digested: the Hom-basis order and the solver choose these maps,
    so the maps are pinned, not only the dimensions."""
    digest = hashlib.sha256()
    reps = 0
    for p in range(-3, 4):
        for q in range(-4, 5):
            if m2_dim(p, q):
                reps += 1
                digest.update(json.dumps(_class_rep(p, q).to_json(),
                                         sort_keys=True).encode())
    for kind, param in (("A", 0), ("A", 2), ("Hn", 0), ("Hn", 2), ("Hn", -2),
                        ("B", 1)):
        disk = cone(identity_chain_map(strand(kind, param)))
        h = null_homotopy(identity_chain_map(disk))
        digest.update(json.dumps(h.to_json(), sort_keys=True).encode())
    assert reps == 20
    assert digest.hexdigest() == ("2330a8f0242fcff74afbee2c03efaee6"
                                  "eb0db841d264865edc987989083f0a1c")


def test_hom_delta_of_a_shift_is_a_degree_shift():
    """Hom(x, y shifted by p)_n is Hom(x, y)_(n-p) basis for basis, the
    identity a cohomology window reads one weight's column off."""
    rng = random.Random("hom-shift")
    for _ in range(10):
        x, _ = random_scrambled_complex(rng, max_strands=3)
        y, _ = random_scrambled_complex(rng, max_strands=2)
        for p in range(-3, 4):
            for n in range(-2, 3):
                assert (hom_delta(x, shift_complex(y, p), n)
                        == hom_delta(x, y, n - p)), (p, n)


def test_cohomology_window_matches_the_per_point_reference():
    """Whole windows, one-row and one-column windows, windows outside the
    complex's degrees and the empty complex, against two hom
    differentials per lattice point."""
    rng = random.Random("window-reference")
    for trial in range(8):
        c, planted = random_scrambled_complex(rng, max_strands=4)
        p0, p1, q0, q1 = sufficient_window(planted)
        lo, hi = c.min_degree, c.max_degree
        windows = [(p0, p1, q0, q1), (p0 + 1, p0 + 1, q0, q1),
                   (p0, p1, q1 - 1, q1 - 1), (p1, p1, q0, q0),
                   (hi + 4, hi + 6, -2, 2), (lo - 9, lo - 7, 5, 7)]
        for w in windows:
            assert cohomology_window(c, *w) == _reference_cohomology_window(
                c, *w), (trial, w)
    for w in ((-2, 2, -2, 2), (0, 0, 0, 0), (3, 3, -1, 1)):
        assert cohomology_window(EMPTY, *w) == _reference_cohomology_window(
            EMPTY, *w) == [[0] * (w[3] - w[2] + 1)] * (w[1] - w[0] + 1)


def test_cohomology_window_refuses_d_squared_nonzero():
    """F -> F -> F by 1 and 1 is refused with its violation, not given
    negative dimensions."""
    ff = FreeComplex(0, [["F"], ["F"], ["F"]], [[[1]], [[1]]])
    with pytest.raises(ValueError, match=r"not a valid complex: d\*d != 0"):
        cohomology_window(ff, -2, 2, -2, 2)


def test_cohomology_window_refuses_illegal_arrows():
    """An arrow code outside the F -> H alphabet is refused with its
    violation, not an internal lookup error."""
    bad = FreeComplex(0, [["H"], ["F"]], [[[5]]])
    with pytest.raises(ValueError,
                       match=r"not a valid complex: illegal arrow 5 in "
                             r"slot \(F->H\)"):
        cohomology_window(bad, -2, 2, -2, 2)


# -- box products -------------------------------------------------------------

@cache
def _reference_pair_block(ka, ka2, ea, kb, kb2, eb):
    """The nonzero arrows (target, source, arrow) of (map ea (x) map eb)
    between product generators, by the change of basis from the Kronecker
    coordinates: the route ``_box_blocks`` replaced, kept as its
    reference."""
    def basis(ka, kb):
        # columns: e1, t e1, e2, t e2 = g(x)g, tg(x)tg, g(x)tg, tg(x)g
        if ka == kb == "F":
            return FMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 1],
                                      [0, 1, 0, 0], [0, 0, 1, 0]],
                                     2).transpose()
        return FMatrix.identity(2 if "F" in (ka, kb) else 1, 2)

    def kinds(ka, kb):
        return ["F", "F"] if ka == kb == "F" else ["H"] if ka == kb else ["F"]

    K = theta_block(ka, ka2, ea).kron(theta_block(kb, kb2, eb))
    N = basis(ka2, kb2).invert().mul(K).mul(basis(ka, kb))
    arrows = arrow_matrix(N, kinds(ka, kb), kinds(ka2, kb2))
    return tuple((r, s, e) for r, row in enumerate(arrows)
                 for s, e in enumerate(row) if e)


def _reference_box_layout(x, y):
    """Per total degree: the kinds of the product generators (i, a, b, s),
    the s-th generator of x_i[a] (x) y_j[b], in F-before-H order, and a
    dict from (i, a, b, s) to position."""
    raw = {}
    for i in x.degrees():
        for j in y.degrees():
            for a, ka in enumerate(x.gens_at(i)):
                for b, kb in enumerate(y.gens_at(j)):
                    kinds = ("FF" if ka == kb == "F" else "H" if ka == kb
                             else "F")
                    raw.setdefault(i + j, []).extend(
                        (k, (i, a, b, s)) for s, k in enumerate(kinds))
    layout = {}
    for d, bucket in raw.items():
        order = [bucket[p] for p in _canonical_perm([k for k, _ in bucket])]
        layout[d] = ([k for k, _ in order],
                     {key: pos for pos, (_, key) in enumerate(order)})
    return layout


def _reference_box_components(pairs, slayout, tlayout, deg):
    """Per source degree, the arrow matrix of the sum of f (x) g over the
    chain maps (f, g) of ``pairs``, written one ``_reference_pair_block``
    entry at a time through the dict layouts: the writer ``box_complex``
    and ``box_chain_map`` replaced, kept as their reference."""
    comps = {d: zero_matrix(len(tlayout[d + deg][0]), len(skinds))
             for d, (skinds, _) in slayout.items() if d + deg in tlayout}
    for f, g in pairs:
        for (i, fm), (j, gm) in itertools.product(f.components.items(),
                                                  g.components.items()):
            m = comps.get(i + j)
            if m is None:
                continue
            i2, j2 = i + f.degree, j + g.degree
            xk, yk = f.source.gens_at(i), g.source.gens_at(j)
            xk2, yk2 = f.target.gens_at(i2), g.target.gens_at(j2)
            for (a2, row_f), (b2, row_g) in itertools.product(
                    enumerate(fm), enumerate(gm)):
                for (a, ea), (b, eb) in itertools.product(
                        enumerate(row_f), enumerate(row_g)):
                    if not (ea and eb):
                        continue
                    for s2, s, e in _reference_pair_block(
                            xk[a], xk2[a2], ea, yk[b], yk2[b2], eb):
                        m[tlayout[i2 + j2][1][i2, a2, b2, s2]][
                            slayout[i + j][1][i, a, b, s]] ^= e
    return comps


def _reference_box_complex(x, y):
    layout = _reference_box_layout(x, y)
    if not layout:
        return FreeComplex(0, [[]], [])
    lo, hi = min(layout), max(layout)
    gens = [layout[d][0] if d in layout else [] for d in range(lo, hi + 1)]
    d_x, d_y = (ChainMap(c, c, {d: c.diff(d) for d in c.degrees()}, -1)
                for c in (x, y))
    comps = _reference_box_components(
        [(d_x, identity_chain_map(y)), (identity_chain_map(x), d_y)],
        layout, layout, -1)
    return FreeComplex(lo, gens, [
        comps[d] if d in comps
        else zero_matrix(len(gens[d - lo - 1]), len(gens[d - lo]))
        for d in range(lo + 1, hi + 1)])


def _reference_box_chain_map(f, g):
    deg = f.degree + g.degree
    comps = _reference_box_components(
        [(f, g)], _reference_box_layout(f.source, g.source),
        _reference_box_layout(f.target, g.target), deg)
    return ChainMap(_reference_box_complex(f.source, g.source),
                    _reference_box_complex(f.target, g.target), comps, deg)


def _box_inputs(rng):
    """A random complex for a box product: a scramble, the same with its
    degrees pulled apart by an empty stretch, or the zero complex."""
    x, _ = random_scrambled_complex(rng, max_strands=3, max_moves=40)
    pick = rng.random()
    if pick < 0.25:
        return direct_sum_complexes(
            [x, shift_complex(x, x.max_degree - x.min_degree
                              + rng.randint(2, 4))])
    if pick < 0.3:
        return FreeComplex(0, [[]], [])
    return x


def _as_stored(obj):
    """Everything ``to_json`` writes of a complex or a chain map, exactly
    as stored (``==`` on complexes trims and forgives empty ends)."""
    if isinstance(obj, FreeComplex):
        return obj.min_degree, obj.gens, obj.diffs
    return (_as_stored(obj.source), _as_stored(obj.target), obj.degree,
            obj.components)


def test_box_writer_matches_per_entry_reference():
    """``box_complex``, the box with a cotensor dual and ``box_chain_map``
    (of isomorphisms, and of maps of degree -1 and 1 read off random Hom
    vectors) equal the per-entry reference on random scramble pairs, with
    empty degrees inside a factor and zero factors among them."""
    for i in range(100):
        rng = random.Random(f"box-writer:{i}")
        x, y = _box_inputs(rng), _box_inputs(rng)
        for a in (x, cotens_H(x)):
            assert (_as_stored(box_complex(a, y))
                    == _as_stored(_reference_box_complex(a, y))), i
        maps = [identity_chain_map(x)]
        if not y.is_zero():
            maps.append(certificate_isos(y, split_complex(y).certificate)[0])
        for n in (-1, 1):
            hom = _HomComplex(x, y)
            maps.append(hom.chain_map(n, [rng.randint(0, 1)
                                          for _ in range(hom._starts(n)[0])]))
        f, g = rng.choice(maps), rng.choice(maps)
        assert (_as_stored(box_chain_map(f, g))
                == _as_stored(_reference_box_chain_map(f, g))), i


@pytest.mark.parametrize("code", [5, 1.0, 2, -1, 0.0])
def test_box_products_refuse_illegal_codes(code):
    """An arrow code its slot does not have, on either side of a box
    product or in either factor of a box of chain maps, raises ValueError
    naming the slot and the degree, as ``validate_complex`` and
    ``validate_chain_map`` do; it is never rewritten to a legal arrow."""
    bad = FreeComplex(0, [["H"], ["F"]], [[[code]]])
    unit = strand("Hn", 0)
    want = (f"illegal arrow {code!r} in slot (F->H) of the differential "
            f"into degree 0")
    assert validate_complex(bad) == [want]
    for args in ((bad, unit), (unit, bad), (bad, bad), (cotens_H(unit), bad)):
        with pytest.raises(ValueError, match=re.escape(want)):
            box_complex(*args)
    f = ChainMap(unit, strand("Hn", 1), {0: [[code]]})     # H -> F at 0
    want = f"illegal arrow {code!r} in slot (H->F) of the component at degree 0"
    assert validate_chain_map(f) == [want]
    for args in ((f, identity_chain_map(unit)), (identity_chain_map(unit), f)):
        with pytest.raises(ValueError, match=re.escape(want)):
            box_chain_map(*args)


def test_box_products_refuse_wrong_shapes():
    """A differential or a component of the wrong shape is refused in the
    wording of the validators, not read as far as it goes."""
    short = FreeComplex(0, [["H"], ["F", "F"]], [[[1]]])
    with pytest.raises(ValueError, match="differential into degree 0 has "
                                         "the wrong shape"):
        box_complex(strand("Hn", 0), short)
    unit = strand("Hn", 0)
    f = ChainMap(unit, unit, {0: [[1], [1]]})
    with pytest.raises(ValueError, match="component at degree 0 has the "
                                         "wrong shape"):
        box_chain_map(identity_chain_map(unit), f)


def test_box_with_unit():
    unit = strand("Hn", 0)
    for s, p in (("A", 2), ("Hn", 3), ("Hn", -2), ("B", 1)):
        c = strand(s, p)
        prod = box_complex(c, unit)
        assert validate_complex(prod) == []
        assert homology_counts(prod) == homology_counts(c), (s, p)


def test_box_symmetric_dimensions():
    x, y = strand("A", 1), strand("B", 0)
    xy, yx = box_complex(x, y), box_complex(y, x)
    assert [len(g) for g in xy.gens] == [len(g) for g in yx.gens]
    assert homology_counts(xy) == homology_counts(yx)


def test_box_chain_map_functorial():
    x = strand("A", 1)
    idx = identity_chain_map(x)
    f = box_chain_map(idx, idx)
    assert f.source == box_complex(x, x) == f.target
    assert validate_chain_map(f) == []
    assert not is_null_homotopic(f)


def test_cotens_inspection_formulas():
    for k in range(0, 5):
        assert cotens_H(strand("A", k)) == shift_complex(strand("A", k), -k)
    for n in range(-5, 6):
        assert cotens_H(strand("Hn", n)) == strand("Hn", -n)
    for r in range(0, 5):
        assert cotens_H(strand("B", r)) == shift_complex(strand("B", r), r + 2)


def test_cotens_is_an_involution_on_strands():
    for s, p in (("A", 3), ("Hn", 2), ("B", 1)):
        c = strand(s, p)
        assert cotens_H(cotens_H(c)) == c


# -- file formats and the package surface ------------------------------------

def test_every_import_is_used():
    """A module of the package uses each name it imports (the package's
    ``__init__`` imports only to re-export)."""
    pkg = pathlib.Path(complexes_module.__file__).resolve().parent
    unused = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {name}"
                           for name in (a.asname or a.name.split(".")[0]
                                        for a in node.names)
                           if name not in used]
    assert unused == []


def test_every_definition_is_used():
    """Each top-level function and class of the package is public (in
    ``__all__``), named by package code outside its own definition, or
    mentioned in ``bench/``, whose tracer names functions in strings: a
    change deletes what it makes dead."""
    import c2mackey
    pkg = pathlib.Path(complexes_module.__file__).resolve().parent
    bench = "\n".join(path.read_text() for path in sorted(
        (pkg.parents[1] / "bench").iterdir()) if path.is_file())
    tops = [(path.name, top) for path in sorted(pkg.glob("*.py"))
            for top in ast.parse(path.read_text()).body]
    # the identifiers each top-level statement names
    names = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(top)
              if isinstance(node, (ast.Name, ast.Attribute))}
             for _, top in tops]
    dead = [f"{file}:{top.name}" for k, (file, top) in enumerate(tops)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and top.name not in c2mackey.__all__
            and not any(top.name in used
                        for j, used in enumerate(names) if j != k)
            and not re.search(rf"\b{top.name}\b", bench)]
    assert dead == []


def test_every_trace_target_exists():
    """Each name the benchmark's tracer wraps resolves in the package:
    a module function, or a method in ``FMatrix.__dict__``, so deleting
    or renaming one fails here and not only in a traced benchmark run."""
    root = pathlib.Path(complexes_module.__file__).resolve().parents[2]
    tree = ast.parse((root / "bench" / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    missing = []
    for path in targets.values():
        modname, _, attr = path.partition(".")
        mod = importlib.import_module("c2mackey." + modname)
        if attr.startswith("FMatrix."):
            found = attr.removeprefix("FMatrix.") in mod.FMatrix.__dict__
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(path)
    assert targets and missing == []


def test_file_formats_go_through_one_schema():
    """Only ``_schema`` decides what a well-formed file is: no other
    ``from_json`` checks a type itself, and one codec pair alone turns
    arrow-code matrices into arrow names and back."""
    pkg = pathlib.Path(complexes_module.__file__).resolve().parent
    offenders, callers = [], {"entry_code": set(), "entry_name": set()}
    for path in sorted(pkg.glob("*.py")):
        if path.name == "_schema.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "id", getattr(node.func, "attr",
                                                          None))
                if fn.name == "from_json" and called in ("isinstance", "type"):
                    offenders.append(f"{path.name}:{node.lineno}")
                if called in callers:
                    callers[called].add(f"{path.stem}.{fn.name}")
    assert offenders == []
    assert callers == {"entry_code": {"complexes.arrows_from_json"},
                       "entry_name": {"complexes.arrows_to_json"}}


def test_public_names_resolve_and_none_is_a_module():
    """Every public name resolves to a non-module, and the README's
    "Public API" section lists exactly ``__all__``, in its order."""
    import c2mackey
    assert len(set(c2mackey.__all__)) == len(c2mackey.__all__)
    for public in c2mackey.__all__:
        assert not isinstance(getattr(c2mackey, public), types.ModuleType), \
            public
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)` — ", section, re.M) == c2mackey.__all__
