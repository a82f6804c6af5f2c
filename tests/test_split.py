import functools
import hashlib
import itertools
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2mackey.complexes import (FreeComplex, _HomComplex, _subquotient,
                                box_complex, compose_chain_maps,
                                cone, cotens_H,
                                direct_sum_complexes, hom_complex_dim,
                                hom_delta, homology, homology_counts, realize,
                                shift_complex, strand, validate_chain_map,
                                validate_complex, zero_matrix)
from c2mackey.derived import balmer_support
from c2mackey.gf2core import FMatrix
from c2mackey.kronholm import kronholm_split, random_spacelike_script
from c2mackey.mackey import (MackeyMap, MackeyModule, classify, direct_sum,
                             indecomposable, module_of_counts,
                             validate_module, zero_module)
from c2mackey.split import (_MOVE_CODES, _MOVE_NAMES, _RANDOM_KINDS,
                            _VARIANTS, BasisMove, Decomposition, SplitError,
                            Strand, _components_of, _move_arrows, _Sweep,
                            apply_move, certificate_isos, decomposition_sum, random_odd_complex,
                            random_legal_moves, random_scrambled_complex,
                            random_strand, replay, split,
                            split_odd, split_odd_mackey, verify_certificate)

ALL_SHAPES = ([("A", k) for k in range(7)] + [("Hn", n) for n in range(-6, 7)]
             + [("B", r) for r in range(7)] + [("DiskF", 0), ("DiskH", 0)])


def test_identity_recovery_on_canonical_strands():
    for kind, param in ALL_SHAPES:
        for shift in (-3, 0, 2):
            c = shift_complex(strand(kind, param), shift)
            dec = split(c)
            assert dec.strands == [Strand(kind, param, shift)], (kind, param)
            assert dec.certificate == []
            assert verify_certificate(c, dec)


def test_twist_normalizes_t_disk():
    c = FreeComplex(min_degree=0, gens=[["F"], ["F"]], diffs=[[[2]]])
    assert validate_complex(c) == []
    dec = split(c)
    assert dec.strands == [Strand("DiskF", 0, 0)]
    assert any(m.variant == "twist_t" for m in dec.certificate)
    assert verify_certificate(c, dec)


# a five-level complex mixing all four peel steps: expected strands
# {B_1 @ 0, H(3) @ 0, A_1 @ -2, H(3) @ -1}
FIXTURE = FreeComplex(
    min_degree=-4,
    gens=[["H"], ["H", "H", "F"], ["F", "F", "F", "F"],
          ["F", "F", "F", "F"], ["H", "F"]],
    diffs=[
        [[0, 0, 1]],
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]],
        [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
        [[1, 0], [1, 0], [1, 3], [1, 3]],
    ])


def test_worked_fixture_decomposition():
    assert validate_complex(FIXTURE) == []
    dec = split(FIXTURE)
    assert Counter(dec.strands) == Counter(
        [Strand("B", 1, 0), Strand("Hn", 3, 0),
         Strand("A", 1, -2), Strand("Hn", 3, -1)])
    assert verify_certificate(FIXTURE, dec)


def _assert_identity(comp, shape):
    for d in shape.degrees():
        m = comp.component(d)
        n = len(shape.gens_at(d))
        for i in range(n):
            for j in range(n):
                assert m[i][j] == (1 if i == j else 0), (d, i, j)


def test_certificate_isos_are_mutually_inverse():
    dec = split(FIXTURE)
    v, u = certificate_isos(FIXTURE, dec.certificate)
    assert validate_chain_map(v) == []
    assert validate_chain_map(u) == []
    _assert_identity(compose_chain_maps(u, v), FIXTURE)
    _assert_identity(compose_chain_maps(v, u), v.target)


def test_scramble_roundtrips():
    rng = random.Random(20260818)
    for trial in range(150):
        c, planted = random_scrambled_complex(rng, max_strands=6, max_param=5,
                                              max_moves=60)
        dec = split(c)
        assert Counter(dec.strands) == planted, trial
        assert verify_certificate(c, dec), trial


def test_scramble_preserves_homology():
    rng = random.Random(7)
    for trial in range(40):
        c, _ = random_scrambled_complex(rng, max_strands=5, max_param=4,
                                        max_moves=50)
        dec = split(c)
        live = [s for s in dec.strands if not s.kind.startswith("Disk")]
        assert homology_counts(c) == homology_counts(
            decomposition_sum(live)), trial


def _value_or_error(fn, *args):
    """What ``fn(*args)`` returns, or the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3))
def test_padding_with_empty_degrees_changes_nothing(seed, below, above):
    """A complex and the same complex with empty degrees added below and
    above it are equal, and every route reads them alike: out of the
    bottom degree and into the top, ``diff`` is a zero matrix either way."""
    rng = random.Random(seed)
    c, _ = random_scrambled_complex(rng, max_strands=4, max_param=3,
                                    max_moves=30)
    pad = FreeComplex(
        c.min_degree - below,
        [[] for _ in range(below)] + [list(g) for g in c.gens]
        + [[] for _ in range(above)],
        [[] for _ in range(below - 1)] + [zero_matrix(0, len(c.gens[0]))]
        + [[row[:] for row in m] for m in c.diffs]
        + [zero_matrix(len(c.gens[-1]), 0)] + [[] for _ in range(above - 1)])
    assert validate_complex(pad) == [] and pad == c
    for ell in (2, 3):
        assert (_value_or_error(homology_counts, pad, ell)
                == _value_or_error(homology_counts, c, ell))
    for d in pad.degrees():
        assert homology(pad, d) == homology(c, d), d
    dp, dc = split(pad), split(c)
    assert dp.strands == dc.strands
    assert verify_certificate(pad, dc) and verify_certificate(c, dp)
    pc, cc = pad.copy(), c.copy()
    for mv in random_legal_moves(c, rng, 20):
        apply_move(pc, mv)
        apply_move(cc, mv)
        assert pc == cc, mv
    for q, n in itertools.product((-1, 0, 1), repeat=2):
        y = strand("Hn", q)
        assert hom_complex_dim(pad, y, n) == hom_complex_dim(c, y, n)
        assert hom_complex_dim(y, pad, n) == hom_complex_dim(y, c, n)


def test_certificate_isos_on_scrambles():
    rng = random.Random(99)
    for trial in range(20):
        c, _ = random_scrambled_complex(rng, max_strands=4, max_param=4,
                                        max_moves=40)
        dec = split(c)
        v, u = certificate_isos(c, dec.certificate)
        assert validate_chain_map(v) == [], trial
        assert validate_chain_map(u) == [], trial
        _assert_identity(compose_chain_maps(u, v), c)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_scramble_roundtrip_property(seed):
    rng = random.Random(seed)
    c, planted = random_scrambled_complex(rng, max_strands=4, max_param=4,
                                          max_moves=30)
    dec = split(c)
    assert Counter(dec.strands) == planted
    assert verify_certificate(c, dec)


_TWIST = BasisMove(1, "twist_t", 0, 0)

# the entry points that read an arrow matrix through orbit_matrix, each
# called on a complex with one F in degree 1
_ARROW_READERS = {
    "homology_counts": homology_counts,
    "homology": lambda c: homology(c, 0),
    "realize": realize,
    "realize_l3": lambda c: realize(c, 3),
    "split_odd_l3": lambda c: split_odd(c, 3),
    "replay": lambda c: replay(c, [_TWIST]),
    "certificate_isos": lambda c: certificate_isos(c, [_TWIST]),
}


@pytest.mark.parametrize("code", [1.0, 0.0])
@pytest.mark.parametrize("slot", ["F->H", "F->F"])
@pytest.mark.parametrize("entry", sorted(_ARROW_READERS))
def test_arrow_readers_refuse_non_int_codes(entry, slot, code):
    """A float arrow code is refused as ``validate_complex`` words it, not
    read as the int it equals."""
    c = FreeComplex(0, [[slot[-1]], ["F"]], [[[code]]])
    want = (f"illegal arrow {code!r} in slot ({slot}) of the differential "
            f"into degree 0")
    assert validate_complex(c) == [want]
    with pytest.raises(ValueError, match=re.escape(want)):
        _ARROW_READERS[entry](c)


@pytest.mark.parametrize("code", [1.0, 0.0])
@pytest.mark.parametrize("slot", ["F->H", "F->F"])
@pytest.mark.parametrize("below", [[], ["F"]])
def test_verify_certificate_refuses_non_int_codes(below, slot, code):
    """A certificate that verifies on the int codes does not verify on
    the float codes equal to them."""
    gens = [[slot[-1], *below], ["F"]]
    c = FreeComplex(0, gens, [[[code]] + [[0] for _ in below]])
    same = FreeComplex(0, gens, [[[int(code)]] + [[0] for _ in below]])
    dec = Decomposition(split(same).strands, [_TWIST, _TWIST])
    assert verify_certificate(same, dec)
    assert not verify_certificate(c, dec)


# a differential into degree 0 with a row missing, and one with a row
# too long
_WRONG_SHAPES = {
    "row_missing": FreeComplex(0, [["H", "H"], ["F"]], [[[1]]]),
    "row_too_long": FreeComplex(0, [["H"], ["F"]], [[[1, 1]]]),
}


@pytest.mark.parametrize("shape", sorted(_WRONG_SHAPES))
@pytest.mark.parametrize("entry", sorted(_ARROW_READERS))
def test_arrow_readers_refuse_wrong_shapes(entry, shape):
    """A differential of the wrong shape is refused as ``validate_complex``
    words it, not read with its missing entries as zeros or crashed on,
    and no certificate verifies on it."""
    c = _WRONG_SHAPES[shape]
    want = "differential into degree 0 has the wrong shape"
    assert validate_complex(c) == [want]
    with pytest.raises(ValueError, match=want):
        _ARROW_READERS[entry](c)
    with pytest.raises(ValueError, match=want):
        replay(c, [])
    for certificate in ([], [_TWIST]):
        assert not verify_certificate(c, Decomposition([], certificate))


@pytest.mark.parametrize("how", ["row_dropped", "row_lengthened",
                                 "row_shortened"])
def test_unvalidated_split_refuses_a_wrong_shape(how):
    """``split(c, validate=False)`` checks the shape of each differential
    before its sweep: one row of a scramble's differential dropped,
    lengthened or shortened is refused as ``validate_complex`` words it,
    not crashed on inside the sweep or split as if it fit."""
    c = _large_scramble("shape", 8)
    li = len(c.diffs) // 2
    m = c.diffs[li]
    if how == "row_dropped":
        del m[0]
    elif how == "row_lengthened":
        m[0].append(1)
    else:
        m[0].pop()
    want = f"differential into degree {c.min_degree + li} has the wrong shape"
    assert validate_complex(c) == [want]
    with pytest.raises(ValueError, match=want):
        split(c, validate=False)


def test_unvalidated_split_never_verifies_an_invalid_complex():
    """What ``split(c, validate=False)`` promises on a complex that is
    invalid but of the right shape: SplitError, a decomposition that
    ``verify_certificate`` rejects, or, where the sweep trips over an
    illegal arrow code, a ValueError naming it.  Scrambles with one arrow
    changed to another legal one, most of them no longer complexes
    (d*d != 0), and scrambles with one slot set to a code that may be
    illegal there (5, -1, 1.0 or 2); every outcome occurs."""
    outcomes = Counter()
    for i in range(2100):
        legal = i < 1500
        rng = random.Random(f"invalid:{i}" if legal else f"ill:{i - 1500}")
        c = random_scrambled_complex(rng, max_strands=8)[0]
        if not c.diffs:
            continue
        j = rng.randrange(len(c.diffs))
        m = c.diffs[j]
        if not m or not m[0]:
            continue
        r, s = rng.randrange(len(m)), rng.randrange(len(m[0]))
        both_f = c.gens[j][r] == c.gens[j + 1][s] == "F"
        m[r][s] = ((m[r][s] + 1) % (4 if both_f else 2) if legal
                   else rng.choice([5, -1, 1.0, 2]))
        valid = not validate_complex(c)
        if legal and valid:
            continue
        try:
            dec = split(c, validate=False)
        except SplitError:
            outcomes["refused"] += 1
            continue
        except ValueError as exc:
            assert not legal and "illegal arrow" in str(exc), (i, exc)
            outcomes["named"] += 1
            continue
        assert verify_certificate(c, dec) == valid, i
        outcomes["verified" if valid else "unverified"] += 1
    assert outcomes["refused"] > 100 and outcomes["unverified"] > 10, outcomes
    assert outcomes["named"] > 50 and outcomes["verified"], outcomes


def _near_strand(rng):
    """A strand drawn the way ``random_strand(rng, 3)`` draws one, with
    its shift in -2..2 instead of -4..4."""
    kind = rng.choice(_RANDOM_KINDS)
    if kind in ("A", "B"):
        param = rng.randint(0, 3)
    else:
        param = rng.randint(-3, 3) if kind == "Hn" else 0
    return Strand(kind, param, rng.randint(-2, 2))


def _strand_sums(rng, count):
    """``count`` lists of 1-3 random strands."""
    return [[_near_strand(rng) for _ in range(rng.randint(1, 3))]
            for _ in range(count)]


def _random_cone(rng):
    """(cone of a random cocycle from x to y, x, y) for x and y random
    sums of 1-3 strands."""
    x, y = _strand_sums(rng, 2)
    cx, cy = decomposition_sum(x), decomposition_sum(y)
    cycles = hom_delta(cx, cy, 0).kernel_basis()
    vec = cycles.mul_vec([rng.randrange(2) for _ in range(cycles.ncols)])
    return cone(_HomComplex(cx, cy).chain_map(0, vec)), x, y


def test_split_cones_of_random_cocycles():
    """Cones of chain maps between strand sums: inputs the scramble
    generator never makes."""
    rng = random.Random("cones")
    for trial in range(150):
        c, x, y = _random_cone(rng)
        dec = split(c)
        assert verify_certificate(c, dec), trial
        assert homology_counts(c) == homology_counts(
            decomposition_sum(dec.strands)), trial
        v, u = certificate_isos(c, dec.certificate)
        _assert_identity(compose_chain_maps(u, v), c)
        assert set(balmer_support(dec.strands)) <= set(
            balmer_support(x) + balmer_support(y)), trial


def _zero_map(src, tgt, ell):
    return MackeyMap(src, tgt, FMatrix.zeros(tgt.dim_theta, src.dim_theta, ell),
                     FMatrix.zeros(tgt.dim_dot, src.dim_dot, ell))


def _classified_homology(mods, maps, ell, min_degree):
    """Classified homology of a realized complex, keyed by degree; zero
    degrees omitted.  This is the module route: it builds each homology
    module (``_subquotient``) and classifies it, the oracle for the counts
    that ``homology_counts`` reads off ranks.  ``maps[i]`` goes from
    ``mods[i + 1]`` to ``mods[i]``; a zero map is added out of the bottom
    degree and into the top, so that ``maps[i]`` leaves ``mods[i]`` and
    ``maps[i + 1]`` enters it."""
    zero = zero_module(ell)
    ends = [zero, *mods, zero]
    maps = [_zero_map(ends[1], zero, ell), *maps,
            _zero_map(zero, ends[-2], ell)]
    out = {}
    for i, mod in enumerate(mods):
        counts = classify(_subquotient(mod, maps[i], maps[i + 1], ell))
        if counts:
            out[min_degree + i] = counts
    return out


def _module_route(c, ell=2):
    return _classified_homology(*realize(c, ell), ell, c.min_degree)


def test_homology_counts_match_module_route():
    """The counts read off ranks equal the classified homology modules."""
    rng = random.Random("rank-route")
    inputs = [random_scrambled_complex(rng, max_strands=5, max_param=4,
                                       max_moves=40)[0] for _ in range(200)]
    inputs += [_random_cone(rng)[0] for _ in range(60)]
    for _ in range(30):
        x, y = (decomposition_sum(s) for s in _strand_sums(rng, 2))
        inputs += [box_complex(x, y), cotens_H(x),
                   box_complex(cotens_H(x), y)]
    for trial, c in enumerate(inputs):
        assert homology_counts(c) == _module_route(c), trial
    for ell in (3, 257):
        for trial in range(40):
            c = decomposition_sum([Strand(*rng.choice(_LIFT_AT_3),
                                          rng.randint(-2, 2))
                                   for _ in range(rng.randint(1, 4))])
            assert homology_counts(c, ell) == _module_route(c, ell), (ell,
                                                                      trial)


def test_verify_rejects_wrong_answers():
    dec = split(FIXTURE)
    assert not verify_certificate(FIXTURE, Decomposition(dec.strands[:-1],
                                                         dec.certificate))
    assert dec.certificate  # the fixture needs genuine moves
    assert not verify_certificate(FIXTURE, Decomposition(dec.strands,
                                                         dec.certificate[:-1]))


def test_replay_matches_components():
    dec = split(FIXTURE)
    final = replay(FIXTURE, dec.certificate)
    assert Counter(_components_of(final)) == Counter(dec.strands)


def test_components_of_rejects_one_altered_edge():
    # a canonical strand has 1+t on each F -> F edge and 1 on every other
    # edge; any other arrow on one edge leaves literal split form, except
    # that F -> F by 1 is a disk and by 1+t an A strand
    for kind, param in ALL_SHAPES:
        base = strand(kind, param)
        for li in range(len(base.diffs)):
            for arrow in (1, 2, 3):
                if arrow == base.diffs[li][0][0] or (
                        base.gens == [["F"], ["F"]] and arrow in (1, 3)):
                    continue
                c = base.copy()
                c.diffs[li][0][0] = arrow
                assert _components_of(c) is None, (kind, param, li, arrow)


def test_arrow_codes_that_are_not_ints_are_not_split_form():
    """An arrow code is an int, as ``entry_ok`` has it: a 1.0 does not
    pass for the 1 of an Hn strand, nor a 0.0 for the 0 between two
    strands, so ``verify_certificate`` says False."""
    for code, kept in ((1.0, 1), (0.0, 0)):
        c = FreeComplex(0, [["H"], ["F"]], [[[code]]])
        dec = split(FreeComplex(0, [["H"], ["F"]], [[[kept]]]))
        assert validate_complex(c), code
        assert _components_of(c) is None, code
        assert not verify_certificate(c, dec), code


def test_random_legal_moves_on_empty_complex():
    assert random_legal_moves(FreeComplex(0, [[]], []), random.Random(1), 3) == []


def _sha256(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def _moves_json(moves) -> list:
    return [m.to_json() for m in moves]


def test_random_legal_moves_stream_is_pinned():
    """The draws of a seed are part of the generator's contract: ``gen``
    output, seeded corpora and scrambled inputs stay byte-identical across
    versions, and a shared ``rng`` is left in the same state."""
    # (a) the scrambles `gen --seed 0` and the fuzz corpus are made of
    assert _sha256(
        random_scrambled_complex(random.Random(f"0:{i}"), max_strands=8)[0]
        .to_json() for i in range(200)) == (
        "0d1f250764985a123f81bef29e36a4df8b1345121e81436d0b79b3c179933b90")
    # (b) no legal move: every attempt is spent, nothing comes back
    rng = random.Random("none")
    assert random_legal_moves(strand("DiskH", 0), rng, 5) == []
    assert rng.random() == 0.7743337803961441
    # (c) one rng shared by many calls
    design, rng = random.Random("design"), random.Random("shared")
    calls = []
    for _ in range(100):
        base = decomposition_sum([random_strand(design, 6)
                                  for _ in range(design.randint(1, 8))])
        calls.append(_moves_json(
            random_legal_moves(base, rng, rng.randint(0, 200))))
    assert sum(map(len, calls)) == 9746
    assert _sha256(calls) == (
        "953ad9df12d376fc5158eca312349ee0a09455581197601500725e7cbd1a9bd6")
    assert rng.random() == 0.5055896824359041
    # (d) a large strand sum
    design = random.Random("pin")
    big = decomposition_sum([random_strand(design, 6) for _ in range(256)])
    assert big.num_gens() == 992
    rng = random.Random("pin:moves")
    moves = random_legal_moves(big, rng, 25 * 256)
    assert len(moves) == 25 * 256
    assert _sha256([_moves_json(moves)]) == (
        "fc29bd6e0247fde409b4fd58e41bf3bb582ed022cafc5a129c331b952bbd9ec5")
    assert rng.random() == 0.9449849583801412


def _reference_random_legal_moves(c, rng, count):
    """The generator as it stood before its draws were written inline:
    one ``rng.choice`` per pick.  Kept verbatim as the reference the
    library's generator must match move for move and state for state."""
    # kinds never change under moves: index each degree's F and H
    # generators once, not on every attempt
    degrees = []
    index = {}
    for d, kinds in zip(c.degrees(), c.gens):
        if kinds:
            degrees.append(d)
            index[d] = {k: [i for i, ki in enumerate(kinds) if ki == k]
                        for k in ("F", "H")}
    choice = rng.choice
    moves = []
    attempts = 0
    while degrees and len(moves) < count and attempts < count * 50:
        attempts += 1
        d = choice(degrees)
        by_kind = index[d]
        variant = choice(_MOVE_NAMES)
        if variant == "twist_t":
            fs = by_kind["F"]
            if not fs:
                continue
            i = choice(fs)
            moves.append(BasisMove(d, variant, i, i))
            continue
        ki, kj, _ = _VARIANTS[variant]
        si, sj = by_kind[ki], by_kind[kj]
        if not si or not sj:
            continue
        i, j = choice(si), choice(sj)
        if i == j:
            continue
        moves.append(BasisMove(d, variant, i, j))
    return moves


def _discrete(min_degree, gens):
    """The complex with generators ``gens`` and every differential zero."""
    return FreeComplex(min_degree, gens,
                       [[[0] * len(src) for _ in tgt]
                        for tgt, src in zip(gens, gens[1:])])


def _generator_cases():
    """(complex, count) pairs: the edge cases, then 2,000 strand sums."""
    design = random.Random("pin")
    big = decomposition_sum([random_strand(design, 6) for _ in range(256)])
    assert big.num_gens() == 992
    # one degree in 21 has a legal move (add_dot, i != j): the 50-attempt
    # budget ends the draw long before 100 moves
    starved = _discrete(0, [["H"]] * 20 + [["H", "H"]])
    cases = [
        (FreeComplex(0, [[]], []), 5),                       # no generators
        (_discrete(-2, [["F", "H"], [], [], ["H", "F", "F"]]), 40),
        (strand("DiskH", 0), 5),                             # no legal move
        (_discrete(0, [["H"]]), 10),                         # one H
        (_discrete(3, [["H", "H", "H"]]), 10),               # H's only
        (decomposition_sum([Strand("A", 3, 0)]), 0),         # count 0
        (starved, 100),
        (big, 25 * 256),
    ]
    design, counts = random.Random("reference"), random.Random("counts")
    for _ in range(2000):
        c = decomposition_sum([random_strand(design, 6)
                               for _ in range(design.randint(1, 8))])
        cases.append((c, counts.randint(0, 60)))
    return cases


def test_random_legal_moves_matches_choice_reference():
    """The inline getrandbits draws against the ``rng.choice`` generator
    they replace: equal moves, and an ``rng`` left in the same state,
    call after call on one shared stream."""
    ref_rng, rng = random.Random("shared"), random.Random("shared")
    short = 0
    for trial, (c, count) in enumerate(_generator_cases()):
        want = _reference_random_legal_moves(c, ref_rng, count)
        assert random_legal_moves(c, rng, count) == want, trial
        assert rng.getstate() == ref_rng.getstate(), trial
        short += len(want) < count
    assert short >= 4  # no generators, DiskH, one H and the starved one


def test_random_legal_moves_refuses_other_draws():
    """An rng class whose ``choice`` does not draw by getrandbits
    rejection is refused before any draw; SystemRandom draws that way."""

    class OnlyRandom(random.Random):
        def random(self):
            return super().random()

    c = decomposition_sum([Strand("A", 2, 0), Strand("B", 1, 1)])
    rng = OnlyRandom("guard")
    state = rng.getstate()
    with pytest.raises(TypeError, match="getrandbits rejection"):
        random_legal_moves(c, rng, 10)
    assert rng.getstate() == state
    moves = random_legal_moves(c, random.SystemRandom(), 10)
    assert len(moves) == 10
    assert replay(c, moves).gens == c.gens


def _large_scramble(tag: str, strands: int = 64):
    """A scramble made the way the large-complex benchmark makes its
    inputs: ``strands`` strands of ``random_strand(rng, 6)`` and 25 legal
    moves per strand, replayed."""
    rng = random.Random(tag)
    base = decomposition_sum([random_strand(rng, 6) for _ in range(strands)])
    return replay(base, random_legal_moves(base, rng, 25 * strands))


# violations of small broken complexes, in the order validate_complex
# reports them
_BROKEN = [
    # an F -> F slot holding a code past 1+t, and an H -> H slot holding t
    (FreeComplex(0, [["F", "H"], ["F", "H"]], [[[4, 0], [0, 2]]]),
     ["illegal arrow 4 in slot (F->F) of the differential into degree 0",
      "illegal arrow 2 in slot (H->H) of the differential into degree 0"]),
    # d*d != 0 out of degree 2 (into both generators of degree 0) and out
    # of degree 3 (into the F of degree 1)
    (FreeComplex(0, [["F", "H"], ["F"], ["F"], ["H"]],
                 [[[1], [1]], [[1]], [[1]]]),
     ["d*d != 0 from degree 2 generator 0 to degree 0 generator 0",
      "d*d != 0 from degree 2 generator 0 to degree 0 generator 1",
      "d*d != 0 from degree 3 generator 0 to degree 1 generator 0"]),
]


def test_certificates_replays_and_isos_are_pinned():
    """``split``'s certificates, ``replay``'s complexes, both
    ``certificate_isos`` maps and ``validate_complex``'s verdicts, digested
    over seeded scrambles (100 small ones and three of 64 strands) and over
    broken complexes: any route that replays certificates must reproduce
    them byte for byte."""
    docs = []
    inputs = [random_scrambled_complex(random.Random(f"pin:{i}"))[0]
              for i in range(100)]
    inputs += [_large_scramble(f"pin:large:{k}") for k in range(3)]
    for c in inputs:
        dec = split(c)
        v, u = certificate_isos(c, dec.certificate)
        docs += [dec.to_json(), replay(c, dec.certificate).to_json(),
                 v.to_json(), u.to_json(), validate_complex(c)]
    rng = random.Random("pin:broken")
    for c in inputs:
        # one arrow changed to another legal one: mostly d*d != 0
        c = c.copy()
        j = rng.randrange(len(c.diffs)) if c.diffs else None
        if j is not None and c.diffs[j] and c.diffs[j][0]:
            m = c.diffs[j]
            r, s = rng.randrange(len(m)), rng.randrange(len(m[0]))
            both_f = c.gens[j][r] == c.gens[j + 1][s] == "F"
            m[r][s] = (m[r][s] + 1) % (4 if both_f else 2)
        docs.append(validate_complex(c))
    for c, want in _BROKEN:
        assert validate_complex(c) == want
        docs.append(validate_complex(c))
    assert _sha256(docs) == (
        "985cc6a64d6c0e806405538c491b960d1efa54ef9ca45e68fc39c96ce1790e18")


def test_cascade_heavy_certificate_is_pinned():
    """The 256-strand scramble of ROADMAP's table: 956 generators split
    by 16,107 moves, most of them cascade moves, which the CI pin at
    1,576 generators (57 moves) hardly makes."""
    c = _large_scramble("s256", 256)
    assert c.num_gens() == 956
    dec = split(c)
    assert len(dec.certificate) == 16107
    assert _sha256([dec.to_json()]) == (
        "383e6b550bed767812f51554d3d347613aeb02ab5ab669d55a269e026caa917c")


def _small_scramble(rng, strands: int):
    """``strands`` strands of ``random_strand(rng, 3)``, scrambled by up
    to 60 legal moves."""
    base = decomposition_sum([random_strand(rng, 3)
                              for _ in range(strands)])
    return replay(base, random_legal_moves(base, rng, rng.randint(0, 60)))


def test_certificates_with_many_disks_are_pinned():
    """``split``'s decompositions, digested over inputs whose sweeps place
    many disks, which scrambles rarely do: box products of scrambles, the
    same with a cotensor, cones of random cocycles and the last split of
    random cell scripts."""
    rng = random.Random("pin:disks")
    docs = []
    for k in range(64):
        x = _small_scramble(rng, 1 + k % 4)
        y = _small_scramble(rng, 1 + k // 4 % 4)
        docs.append(split(box_complex(x, y)).to_json())
        docs.append(split(box_complex(cotens_H(x), y)).to_json())
    for _ in range(100):
        docs.append(split(_random_cone(rng)[0]).to_json())
    for _ in range(20):
        dec, report = kronholm_split(random_spacelike_script(rng))
        docs += [dec.to_json(), report.to_json()]
    assert _sha256(docs) == (
        "0e88275c7954507a63f73a21ccaec00e93abd96a7ed0560cba6b3dd5f7d5c4d4")


def _reference_extend_all(self, src_kind: str, tgt_types: tuple[str, ...],
                          longest: bool) -> None:
    """``_Sweep._extend_all`` before its candidate index, verbatim: a scan
    of every (unplaced source, target) pair before each placement."""
    D, assigned, top_info = self.D, self.assigned, self._top_info
    targets = range(len(self.tgt))
    while True:
        best = None
        infos = {}    # top_info per target; no move happens in a scan
        for a in self.of_kind[src_kind]:
            if assigned[a]:
                continue
            for r in targets:
                if not D[r][a]:
                    continue
                if r not in infos:
                    infos[r] = top_info(r)
                info = infos[r]
                if info is None or info[0] not in tgt_types:
                    continue
                key = ((-info[1] if longest else info[1]), r, a)
                if best is None or key < best:
                    best = key
        if best is None:
            return
        _, r, a = best
        self._extend(a, r)


def _least_keys(sweep, src_kind, tgt_types, longest) -> dict:
    """Each unplaced source's least (length, target, source) key, by a
    scan of its whole column."""
    keys = {}
    for a in sweep.of_kind[src_kind]:
        if sweep.assigned[a]:
            continue
        for r, row in enumerate(sweep.D):
            info = sweep._top_info(r) if row[a] else None
            if info is not None and info[0] in tgt_types:
                key = (-info[1] if longest else info[1], r, a)
                keys[a] = min(keys.get(a, key), key)
    return keys


def _counting_reference(changed: list):
    """The reference ``_extend_all``, counting in ``changed[0]`` the
    placements after which another source's least key differs."""
    def extend_all(self, src_kind, tgt_types, longest):
        place = self._extend

        def counted(a, r):
            before = _least_keys(self, src_kind, tgt_types, longest)
            place(a, r)
            after = _least_keys(self, src_kind, tgt_types, longest)
            if any(after.get(b) != key for b, key in before.items()
                   if b != a):
                changed[0] += 1

        self._extend = counted
        try:
            _reference_extend_all(self, src_kind, tgt_types, longest)
        finally:
            del self._extend
    return extend_all


@functools.cache
def _sweep_inputs() -> tuple:
    """Scrambles small and large, box and cotensor products and cones: the
    inputs on which the sweep's shortcuts are checked against their
    references (``split`` copies its input, so they are shared)."""
    inputs = [random_scrambled_complex(random.Random(f"index:{i}"))[0]
              for i in range(300)]
    inputs += [_large_scramble(f"index:large:{n}", n) for n in (128, 256)]
    rng = random.Random("index:products")
    for k in range(64):
        x = _small_scramble(rng, 1 + k % 4)
        y = _small_scramble(rng, 1 + k // 4 % 4)
        inputs += [box_complex(x, y), box_complex(cotens_H(x), y)]
    inputs += [_random_cone(rng)[0] for _ in range(60)]
    return tuple(inputs)


def test_candidate_index_matches_full_rescan(monkeypatch):
    """``_Sweep._extend_all`` rescans only the columns a placement's moves
    change; it must place the same pairs as a rescan of every pair, on
    scrambles small and large, box and cotensor products and cones,
    where placements do change other sources' least keys."""
    inputs = _sweep_inputs()
    indexed = [split(c).to_json() for c in inputs]
    changed = [0]
    monkeypatch.setattr(_Sweep, "_extend_all", _counting_reference(changed))
    assert [split(c).to_json() for c in inputs] == indexed
    assert changed[0] > 0


def _reference_moves_onto(self, level, j, run):
    """``_Sweep._moves_onto`` as one ``_move_arrows`` per move, each move
    reading the shared column j afresh."""
    for variant, i in run:
        _move_arrows(_MOVE_CODES[variant], i, j, *self.levels[level])
        self.moves.append(
            BasisMove(self.work.min_degree + level, variant, i, j))


def _reference_moves_from(self, level, i, run):
    """``_Sweep._moves_from`` as one ``_move_arrows`` per move, each move
    reading the shared row i afresh."""
    for variant, j in run:
        _move_arrows(_MOVE_CODES[variant], i, j, *self.levels[level])
        self.moves.append(
            BasisMove(self.work.min_degree + level, variant, i, j))


def test_run_kernels_match_move_by_move_reference(monkeypatch):
    """``_Sweep._moves_onto`` and ``_moves_from`` read the row or column a
    run of moves shares once for the run; the sweep must make the same
    moves and strands as with one ``_move_arrows`` per move."""
    inputs = _sweep_inputs()
    batched = [split(c).to_json() for c in inputs]
    monkeypatch.setattr(_Sweep, "_moves_onto", _reference_moves_onto)
    monkeypatch.setattr(_Sweep, "_moves_from", _reference_moves_from)
    assert [split(c).to_json() for c in inputs] == batched


def _replay_by_moves(c, moves):
    """Replay move by move with ``apply_move``: the reference for the
    batch kernel behind ``replay``."""
    out = c.copy()
    for mv in moves:
        apply_move(out, mv)
    return out


def _outcome(fn, c, moves):
    try:
        return "ok", fn(c, moves).to_json()
    except ValueError as exc:
        return "refused", str(exc)


def _corrupt(c, mv, how):
    """``mv`` made illegal on ``c`` in the way ``how`` names."""
    kinds = c.gens_at(mv.degree)
    n = len(kinds)
    if how == "degree":
        return BasisMove(c.max_degree + 1 + mv.i, mv.variant, mv.i, mv.j)
    if how == "index":
        return BasisMove(mv.degree, mv.variant, mv.i, n + mv.j)
    if how == "same":
        variant = "add" if kinds[mv.i] == "F" else "add_dot"
        return BasisMove(mv.degree, variant, mv.i, mv.i)
    if how == "kinds":
        # an add variant whose source kind is not generator i's
        variant = "add_dot" if kinds[mv.i] == "F" else "add"
        return BasisMove(mv.degree, variant, mv.i, (mv.i + 1) % n)
    if how == "twist_h":
        h = kinds.index("H")
        return BasisMove(mv.degree, "twist_t", h, h)
    return BasisMove(mv.degree, "spin", mv.i, mv.j)


def test_replay_matches_move_by_move_reference():
    """``replay`` (row operations, with the column operations gathered
    into one product per differential) against one ``apply_move`` after
    another: the same complex on legal certificates, and on a certificate
    with one illegal move the same ValueError, which also makes
    ``certificate_isos`` refuse it and ``verify_certificate`` say False."""
    rng = random.Random("batch-replay")
    refused = Counter()
    for trial in range(200):
        c, _ = random_scrambled_complex(rng, max_strands=rng.choice((3, 8)))
        moves = random_legal_moves(c, rng, rng.randint(0, 60))
        assert _outcome(replay, c, moves) == _outcome(_replay_by_moves, c,
                                                      moves), trial
        if not moves:
            continue
        v, u = certificate_isos(c, moves)
        assert v.target.to_json() == replay(c, moves).to_json(), trial
        _assert_identity(compose_chain_maps(u, v), c)
        k = rng.randrange(len(moves))
        kinds = c.gens_at(moves[k].degree)
        hows = ["degree", "index", "kinds", "variant"]
        if len(kinds) > 1:
            hows.append("same")
        if "H" in kinds:
            hows.append("twist_h")
        how = rng.choice(hows)
        bad = moves[:k] + [_corrupt(c, moves[k], how)] + moves[k + 1:]
        got = _outcome(replay, c, bad)
        assert got[0] == "refused" and got == _outcome(_replay_by_moves, c,
                                                       bad), (trial, how)
        with pytest.raises(ValueError, match=re.escape(got[1])):
            certificate_isos(c, bad)
        assert not verify_certificate(c, Decomposition([], bad)), trial
        refused[how] += 1
    assert set(refused) == {"degree", "index", "same", "kinds", "twist_h",
                            "variant"}


def test_apply_move_bounds_checking():
    c = strand("A", 1)
    with pytest.raises(ValueError):
        apply_move(c, BasisMove(5, "add", 0, 0))
    with pytest.raises(ValueError):
        apply_move(c, BasisMove(0, "add", 0, 3))
    with pytest.raises(ValueError):
        apply_move(strand("Hn", 0), BasisMove(0, "twist_t", 0, 0))


def test_illegal_arrows_are_refused_on_the_replay_path():
    """An arrow code that its slot does not have (5, or a negative one, in
    an F -> H slot) is refused with a ValueError naming the slot by
    ``apply_move``, ``replay`` and ``certificate_isos`` on a legal move,
    and ``verify_certificate`` says False."""
    for e in (5, -1):
        bad = FreeComplex(0, [["H"], ["F"]], [[[e]]])
        want = re.escape(f"illegal arrow {e} in slot (F->H) of the "
                         f"differential into degree 0")
        moves = [BasisMove(1, "twist_t", 0, 0)]
        for fn in (replay, certificate_isos):
            with pytest.raises(ValueError, match=want):
                fn(bad, moves)
        with pytest.raises(ValueError, match=want):
            apply_move(bad.copy(), moves[0])
        assert verify_certificate(bad, Decomposition([], moves)) is False
        # and in the row of the move's generator, the arrows into it
        into = FreeComplex(0, [["F"], ["H"]], [[[e]]])
        with pytest.raises(ValueError, match=re.escape(
                f"illegal arrow {e} in slot (H->F) of the differential "
                f"into degree 0")):
            apply_move(into.copy(), BasisMove(0, "twist_t", 0, 0))


def test_moves_with_non_integer_fields_are_refused():
    """A move whose degree or index only equals an integer (1.0 == 1) is
    refused with one ValueError by ``apply_move``, ``replay`` and
    ``certificate_isos``, though a dict would match it to the integer's
    generator, and ``verify_certificate`` says False."""
    dec = split(FIXTURE)
    assert dec.certificate and verify_certificate(FIXTURE, dec)
    for k, mv in enumerate(dec.certificate[:3]):
        for name in ("degree", "i", "j"):
            bad = mv._replace(**{name: float(getattr(mv, name))})
            moves = dec.certificate[:k] + [bad] + dec.certificate[k + 1:]
            want = re.escape(f"move degree and indices must be integers: "
                             f"{bad}")
            with pytest.raises(ValueError, match=want):
                apply_move(FIXTURE.copy(), bad)
            for fn in (replay, certificate_isos):
                with pytest.raises(ValueError, match=want):
                    fn(FIXTURE, moves)
            assert not verify_certificate(FIXTURE,
                                          Decomposition(dec.strands, moves))


def test_basis_move_is_an_immutable_hashable_tuple():
    mv = BasisMove(2, "add_t", 0, 1)
    with pytest.raises(AttributeError):
        mv.i = 3
    assert hash(mv) == hash(BasisMove(2, "add_t", 0, 1))
    assert len({mv, BasisMove(2, "add_t", 0, 1), BasisMove(2, "add", 0, 1)}) == 2
    assert mv == (2, "add_t", 0, 1) and tuple(mv) == (2, "add_t", 0, 1)
    assert repr(mv) == "BasisMove(degree=2, variant='add_t', i=0, j=1)"
    assert mv.to_json() == {"degree": 2, "variant": "add_t", "i": 0, "j": 1}
    again = BasisMove.from_json(json.loads(json.dumps(mv.to_json())))
    assert again == mv and type(again) is BasisMove


def test_decomposition_json_roundtrip():
    import json
    dec = split(FIXTURE)
    again = Decomposition.from_json(json.loads(json.dumps(dec.to_json())))
    assert again.strands == dec.strands
    assert again.certificate == dec.certificate
    assert verify_certificate(FIXTURE, again)
    strand_ = {"kind": "A", "param": 1, "shift": 0}
    move = {"degree": 2, "variant": "add", "i": 0, "j": 1}
    for bad_strand, bad_move in (({**strand_, "param": 1.9}, move),
                                 ({**strand_, "shift": True}, move),
                                 (strand_, {**move, "degree": "2"}),
                                 (strand_, {**move, "variant": 5}),
                                 (strand_, {**move, "i": 0.5}),
                                 (strand_, {**move, "i": -1}),
                                 (strand_, {**move, "j": -2}),
                                 (strand_, {**move, "variant": "twist_t",
                                            "i": 0, "j": 1}),
                                 ({**strand_, "kind": "C"}, move),
                                 ({**strand_, "param": -1}, move),
                                 ({**strand_, "kind": "B", "param": -1}, move),
                                 ({**strand_, "kind": "DiskF"}, move),
                                 ({**strand_, "kind": "PtH", "param": 2},
                                  move)):
        doc = {"strands": [bad_strand], "certificate": [move, bad_move]}
        with pytest.raises(ValueError):
            Decomposition.from_json(doc)
    assert Decomposition.from_json(
        {"strands": [strand_], "certificate": [move]}).strands == [
            Strand("A", 1, 0)]


# -- odd modulus ----------------------------------------------------------------

def test_odd_mackey_fuzz():
    rng = random.Random(20260818)
    for trial in range(50):
        ell = rng.choice((3, 5, 7))
        mods, maps, planted, lo = random_odd_complex(rng, ell)
        got = Counter(split_odd_mackey(mods, maps, ell, lo))
        assert got == planted, (trial, ell)


def _odd_complex_json(rng, ell) -> dict:
    mods, maps, planted, lo = random_odd_complex(rng, ell)
    return {"mods": [m.to_json() for m in mods],
            "maps": [[f.f_theta.to_rows(), f.f_dot.to_rows()] for f in maps],
            "lo": lo,
            "planted": [[s.to_json(), n] for s, n in sorted(planted.items())],
            "after": rng.random()}


def test_random_odd_complex_stream_is_pinned():
    """The odd generator's draws are part of its contract: the odd fuzz
    and the odd bench inputs are made of them, and the caller's ``rng``
    is left in the same state."""
    pins = {
        3: "731bb1bc0150e5eb7e519fb03df80d9b3b9c726b71fecea6a384ee428bf569f7",
        5: "2ea55e6e22ce3d23e2eb304b320d94c1fde285eb83be69d261cf5b4e349ca0e7",
        257: "d015f0d763c3fd9681fc90922d11c32cfc5293f908a076a7e4ad60d7466c5e7d",
    }
    for ell, digest in pins.items():
        assert _sha256(_odd_complex_json(random.Random(f"odd:{ell}:{i}"), ell)
                       for i in range(100)) == digest, ell


def test_odd_symbol_splits():
    # the free orbit splits into a fixed point and a sign point
    assert Counter(split_odd(strand("A", 0), 3)) == Counter(
        [Strand("PtH", 0, 0), Strand("PtSTheta", 0, 0)])
    assert Counter(split_odd(strand("DiskF", 0), 5)) == Counter(
        [Strand("DiskH", 0, 0), Strand("DiskSTheta", 0, 0)])
    # 1 + t is invertible on the fixed summand away from 2
    assert Counter(split_odd(strand("A", 1), 3)) == Counter(
        [Strand("DiskH", 0, 0), Strand("PtSTheta", 0, 0),
         Strand("PtSTheta", 0, 1)])
    assert Counter(split_odd(strand("Hn", 1), 3)) == Counter(
        [Strand("DiskH", 0, -1), Strand("PtSTheta", 0, 0)])


def _assert_odd_split(strands, mods, maps, ell, lo):
    """The points are the classified homology, and at each degree the
    points and disks there fill the module's two levels."""
    points: dict[int, Counter] = {}
    dims: Counter = Counter()
    for s in strands:
        is_point = s.kind.startswith("Pt")
        kind = s.kind.removeprefix("Pt" if is_point else "Disk")
        if is_point:
            points.setdefault(s.shift, Counter())[kind] += 1
        for d in (s.shift,) if is_point else (s.shift, s.shift + 1):
            dims[d, "theta"] += 1
            dims[d, "dot"] += kind == "H"
    assert {d: dict(c) for d, c in points.items()} == _classified_homology(
        mods, maps, ell, lo)
    want = Counter()
    for d, m in enumerate(mods, lo):
        want[d, "theta"], want[d, "dot"] = m.dim_theta, m.dim_dot
    assert +dims == +want


# the strands whose symbol arrows square to zero mod 3
_LIFT_AT_3 = [("A", 0), ("A", 1), ("Hn", -1), ("Hn", 0), ("Hn", 1),
              ("DiskF", 0), ("DiskH", 0)]


def test_odd_splitter_matches_homology_oracle():
    rng = random.Random("odd-oracle")
    for ell in (3, 5, 257):
        for trial in range(40):
            mods, maps, _, lo = random_odd_complex(rng, ell)
            _assert_odd_split(split_odd_mackey(mods, maps, ell, lo),
                              mods, maps, ell, lo)
    for trial in range(60):
        c = decomposition_sum([Strand(*rng.choice(_LIFT_AT_3),
                                      rng.randint(-2, 2))
                               for _ in range(rng.randint(1, 4))])
        _assert_odd_split(split_odd(c, 3), *realize(c, 3), 3, c.min_degree)


def _odd_map(src, tgt, f_theta, f_dot):
    return MackeyMap(src, tgt,
                     FMatrix.from_rows(f_theta, 3, ncols=src.dim_theta),
                     FMatrix.from_rows(f_dot, 3, ncols=src.dim_dot))


_H, _S = indecomposable("H", 3), indecomposable("STheta", 3)
_HS = direct_sum(_H, _S)


@pytest.mark.parametrize("mods, maps", [
    # d*d = 1
    ([_H, _H, _H], [_odd_map(_H, _H, [[1]], [[1]])] * 2),
    # f_theta does not commute with t
    ([_S, _H], [_odd_map(_H, _S, [[1]], [])]),
    ([_H, _S], [_odd_map(_S, _H, [[1]], [[]])]),
    # theta lands in the STheta slot, dot in the H slot
    ([_HS, _H], [_odd_map(_H, _HS, [[0], [1]], [[1]])]),
    # f_theta p_up != p_up f_dot
    ([_H, _H], [_odd_map(_H, _H, [[1]], [[0]])]),
    # a lone module with p_up p_down != 1 + t and p_down p_up != 2
    ([MackeyModule(3, FMatrix.from_rows([[1]], 3),
                   FMatrix.from_rows([[1]], 3),
                   FMatrix.from_rows([[0]], 3))], []),
], ids=["d-squared", "H-to-STheta", "STheta-to-H", "H-to-H+STheta",
        "dot-dropped", "not-a-module"])
def test_odd_splitter_refuses_non_complexes(mods, maps):
    with pytest.raises(ValueError, match="degree"):
        split_odd_mackey(mods, maps, 3, 0)


def test_odd_rejects_unliftable_differentials():
    # composable nonzero arrows never square to zero mod an odd prime
    for kind, param in (("A", 2), ("Hn", 2), ("B", 0)):
        with pytest.raises(ValueError):
            split_odd(strand(kind, param), 3)
    with pytest.raises(ValueError):
        split_odd(strand("A", 1), 4)   # modulus must be an odd prime
    with pytest.raises(ValueError, match="differentials"):
        split_odd_mackey([_H, _H], [], 3, 0)


def test_split_odd_refuses_an_illegal_arrow():
    bad = FreeComplex(0, [["H"], ["F"]], [[[5]]])
    with pytest.raises(ValueError, match=r"illegal arrow 5 in slot \(F->H\) "
                                         r"of the differential into degree 0"):
        split_odd(bad, 3)


def test_odd_splitter_checks_the_modulus():
    """A modulus of 2 or a composite one, or modules over another
    modulus, is refused by a message that names the modulus."""
    for ell in (2, 9):
        with pytest.raises(ValueError, match=f"modulus {ell} is not an odd "
                                             f"prime"):
            split_odd_mackey(*realize(strand("A", 0), 2), ell, 0)
    with pytest.raises(ValueError, match=r"over GF\(3\), not GF\(5\)"):
        split_odd_mackey(*realize(strand("A", 0), 3), 5, 0)
    with pytest.raises(ValueError, match="modulus 2"):
        split_odd(strand("A", 0), 2)


# each entry point that takes a modulus, called with one
_MODULUS_CALLS = {
    "indecomposable": lambda ell: indecomposable("STheta", ell),
    "validate_module": lambda ell: validate_module(
        MackeyModule(ell, _H.t, _H.p_up, _H.p_down)),
    "realize": lambda ell: realize(strand("Hn", 0), ell),
    "homology_counts": lambda ell: homology_counts(strand("Hn", 2), ell),
    "split_odd": lambda ell: split_odd(strand("Hn", 0), ell),
    "split_odd_mackey": lambda ell: split_odd_mackey([_H], [], ell, 0),
    # nothing to build: no summand, or no degree, reaches indecomposable
    "zero_module": zero_module,
    "module_of_counts_empty": lambda ell: module_of_counts({}, ell),
    "realize_empty": lambda ell: realize(FreeComplex(0, [], []), ell),
    "homology_counts_empty": lambda ell: homology_counts(
        FreeComplex(0, [], []), ell),
}
# the refusals of the composite modulus 4 that are not the gate's own
_COMPOSITE_REFUSALS = {"validate_module": "modulus 4 is not prime",
                       "split_odd_mackey": "the modulus 4 is not an odd prime"}


@pytest.mark.parametrize("ell", [2.0, 3.0, 4])
@pytest.mark.parametrize("entry", sorted(_MODULUS_CALLS))
def test_entry_points_refuse_a_non_integer_modulus(entry, ell):
    """A float modulus equal to a prime is refused by ``is_prime``, the
    modulus gate, not read as that prime or failing deep inside; so is the
    composite 4, by the gate or the entry point's own check.  The empty
    module and the empty complex are refused too."""
    msg = (f"modulus must be an integer, not {ell}" if type(ell) is float
           else _COMPOSITE_REFUSALS.get(entry, "modulus must be prime, got 4"))
    if entry == "validate_module":
        assert _MODULUS_CALLS[entry](ell) == [msg]
    else:
        with pytest.raises(ValueError, match=msg):
            _MODULUS_CALLS[entry](ell)
