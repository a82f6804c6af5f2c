"""Freeness pipeline: representation cells, attachment classification,
build scripts, spacelike guards, and weight-shift reports."""

import hashlib
import json
import random
from collections import Counter

import pytest

from c2mackey.complexes import ChainMap, cone, hom_complex_dim, shift_complex, strand
from c2mackey.kronholm import (
    RepBuildScript,
    RepCell,
    ScriptError,
    attach_source,
    is_spacelike,
    kronholm_split,
    random_spacelike_script,
)
from c2mackey.split import Strand, split, strand_complex


def test_cell_complexes():
    # a one-cell script splits into its cell, Sigma^m H(q)
    for m, q in ((0, 0), (1, 0), (3, 2)):
        dec, _ = kronholm_split(RepBuildScript([(RepCell(m, q), None)]))
        assert dec.strands == [Strand("Hn", q, m)]
    c32 = strand_complex(Strand("Hn", 2, 3))
    assert c32.min_degree == 1
    assert c32.gens == [["H"], ["F"], ["F"]]
    # a cell attaches along Sigma^{m-1} H(q)
    assert attach_source(RepCell(3, 2)) == shift_complex(strand("Hn", 2), 2)


def test_invalid_cell_rejected():
    with pytest.raises(ScriptError):
        RepCell(2, 3).check()


def _attach_dim(a, b, s, t):
    """dim of the degree-0 maps Sigma^{a-1}H(b) -> Sigma^s H(t)."""
    return hom_complex_dim(shift_complex(strand("Hn", b), a - 1),
                           shift_complex(strand("Hn", t), s), 0)


def test_classify_worked_examples():
    # the identity class, the lower band twice, the upper band, and a
    # pair with only the zero map
    for a, b, s, t, dim in ((2, 1, 1, 1, 1), (5, 5, 3, 2, 1), (2, 2, 1, 0, 1),
                            (2, 0, 1, 1, 1), (1, 0, 3, 2, 0)):
        assert _attach_dim(a, b, s, t) == dim, (a, b, s, t)


def test_classify_bands_match_mapping_group_dimensions():
    # nontrivial classes exist exactly when the degree-0 mapping group
    # of the attaching sphere into the cell is nonzero (and it is then a
    # line): the identity class (dimension and coweight both match), the
    # upper band (weight raise) and the lower band (weight drop by at
    # least two)
    for a in range(0, 6):
        for b in range(0, a + 1):
            for s in range(0, 6):
                for t in range(0, s + 1):
                    band = ((a - 1 == s and b == t)
                            or (t - b >= 0 and -(t - b) <= a - 1 - s <= 0)
                            or (t - b <= -2
                                and 0 <= a - 1 - s <= -(t - b) - 2))
                    dim = _attach_dim(a, b, s, t)
                    assert dim == band, (a, b, s, t, band, dim)


def test_twisted_two_cell_script_shifts_weight():
    script = RepBuildScript(
        [(RepCell(1, 0), None), (RepCell(2, 2), {1: [["p"]]})]
    )
    dec, report = kronholm_split(script)
    assert sorted(report.output_cells) == [RepCell(1, 1), RepCell(2, 1)]
    assert report.deltas == {1: [(0, 1)], 2: [(2, 1)]}
    assert report.total_weight_in == report.total_weight_out == 2

    # JSON round trip reproduces the same split
    again = RepBuildScript.from_json(json.loads(json.dumps(script.to_json())))
    assert again.cells == script.cells
    _, report2 = kronholm_split(again)
    assert report2.output_cells == report.output_cells


def test_null_script_returns_its_own_cells():
    cells = [RepCell(0, 0), RepCell(2, 1), RepCell(2, 2), RepCell(4, 0)]
    script = RepBuildScript([(c, None) for c in cells])
    _, report = kronholm_split(script)
    assert report.input_cells == report.output_cells == sorted(cells)
    assert all(qi == qo for pairs in report.deltas.values() for qi, qo in pairs)


def test_twisted_circle_attachment_is_not_spacelike():
    y = shift_complex(strand("Hn", 1), 1)
    src = shift_complex(strand("Hn", 0), 1)
    f = ChainMap(src, y, {1: [[1]]}, 0)
    assert not is_spacelike(f)
    d = split(cone(f), validate=False)
    assert [(s.kind, s.param, s.shift) for s in d.strands] == [("B", 0, 2)]

    bad = RepBuildScript(
        [(RepCell(1, 1), None), (RepCell(2, 0), {1: [["p"]]})]
    )
    with pytest.raises(ScriptError) as exc:
        kronholm_split(bad)
    assert "spacelike" in str(exc.value)
    assert "cell 1" in str(exc.value)


def test_unsorted_script_rejected():
    script = RepBuildScript([(RepCell(2, 0), None), (RepCell(1, 0), None)])
    with pytest.raises(ScriptError) as exc:
        kronholm_split(script)
    assert "order" in str(exc.value)


def test_annihilating_attachment_rejected():
    # an identity-class attachment cancels the cell it hits
    script = RepBuildScript(
        [(RepCell(1, 1), None), (RepCell(2, 1), {0: [["1"]], 1: [["1"]]})]
    )
    with pytest.raises(ScriptError) as exc:
        kronholm_split(script)
    assert "annihilates" in str(exc.value)


def test_random_spacelike_scripts_conserve_cells_and_weight():
    rng = random.Random(20260818)
    nontrivial = 0
    for _ in range(60):
        script = random_spacelike_script(rng, max_cells=6, max_dim=5)
        _, report = kronholm_split(script)
        inp, outp = report.input_cells, report.output_cells
        assert Counter(c.m for c in inp) == Counter(c.m for c in outp)
        assert sum(c.q for c in inp) == sum(c.q for c in outp)
        for c in outp:
            assert 0 <= c.q <= c.m
        if any(att is not None for _, att in script.cells):
            nontrivial += 1
        again = RepBuildScript.from_json(
            json.loads(json.dumps(script.to_json()))
        )
        _, report2 = kronholm_split(again)
        assert report2.output_cells == report.output_cells
    assert nontrivial >= 20, nontrivial


def test_kronholm_split_splits_once_per_cell(monkeypatch):
    rng = random.Random(4)
    scripts = [random_spacelike_script(rng, max_cells=12, max_dim=5)
               for _ in range(10)]
    calls = []

    def counting_split(c, validate=True):
        calls.append(c)
        return split(c, validate)

    monkeypatch.setattr("c2mackey.kronholm.split", counting_split)
    for script in scripts:
        calls.clear()
        kronholm_split(script)
        assert len(calls) == len(script.cells)
    assert max(len(s.cells) for s in scripts) >= 8


def test_random_spacelike_scripts_are_pinned():
    """The scripts drawn through ``mul_vec`` on a hom-complex kernel,
    digested; the digest was computed before ``mul_vec`` read whole rows."""
    digest = hashlib.sha256()
    attached = 0
    for i in range(80):
        script = random_spacelike_script(random.Random(f"ms:{i}"),
                                         max_cells=12, max_dim=5)
        attached += sum(att is not None for _, att in script.cells)
        digest.update(json.dumps(script.to_json(), sort_keys=True).encode())
    assert attached >= 100, attached
    assert digest.hexdigest() == ("d0225c27ccdde899ab70ffa70625312f"
                                  "ceee90fea754d9616077805a26d289f0")
