"""Command-line interface: exit codes, JSON/text output, determinism,
and logging control."""

import argparse
import json
import logging
import os
import pathlib
import subprocess
import sys
import time

import pytest

import c2mackey.cli as cli_module
from c2mackey.cli import main
from c2mackey.complexes import (FreeComplex, shift_complex, strand,
                                validate_complex)
from c2mackey.mackey import indecomposable
from c2mackey.split import Strand, decomposition_sum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(strand("Hn", 0).to_json()))
    return str(path)


def test_validate_ok(capsys, unit_file):
    code, out = run(capsys, "validate", unit_file)
    payload = json.loads(out)
    assert code == 0
    assert payload == {"ok": True, "violations": []}


def test_validate_reports_violations_with_exit_1(capsys, tmp_path):
    bad = FreeComplex(0, [["F"], ["F"], ["F"]], [[[1]], [[1]]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out = run(capsys, "validate", str(path))
    payload = json.loads(out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["violations"]


def test_validate_accepts_module_files(capsys, tmp_path):
    path = tmp_path / "hop.json"
    path.write_text(json.dumps(indecomposable("Hop", 2).to_json()))
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_split_text(capsys, unit_file):
    code, out = run(capsys, "split", "--format", "text", unit_file)
    assert code == 0
    assert out == "H(0) @ 0\nmoves: 0\n"


def test_split_json_round_trips_certificate(capsys, tmp_path):
    c = decomposition_sum([Strand("A", 1, -2), Strand("B", 0, 1)])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(c.to_json()))
    code, out = run(capsys, "split", str(path))
    assert code == 0
    payload = json.loads(out)
    kinds = sorted((s["kind"], s["param"], s["shift"])
                   for s in payload["strands"])
    assert kinds == [("A", 1, -2), ("B", 0, 1)]
    assert "certificate" in payload


def test_cohomology_window_text_chart(capsys, unit_file):
    code, out = run(capsys, "cohomology", "--window", "-3", "3", "-3", "3",
                    "--format", "text", unit_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "   q"
    assert lines[1] == " 3 |  .  .  .  1  1  1  1"
    assert lines[4] == " 0 |  .  .  .  1  .  .  ."
    assert lines[5] == "-1 |  .  .  .  .  .  .  ."
    assert lines[7] == "-3 |  .  .  1  1  .  .  ."
    assert lines[-1].endswith("p")


def test_cohomology_json_dims(capsys, unit_file):
    code, out = run(capsys, "cohomology", "--window", "0", "1", "0", "1",
                    unit_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["p0"] == 0 and payload["q1"] == 1
    # dims[i][j] holds the rank at (p0 + i, q0 + j)
    assert payload["dims"] == [[1, 1], [0, 1]]


@pytest.mark.parametrize("window", [
    [],                                     # the default, about 900k points
    ["--window", "0", "3000", "0", "3000"],
])
def test_cohomology_refuses_windows_past_the_cap(capsys, monkeypatch,
                                                 tmp_path, window):
    """A window above MAX_WINDOW_POINTS, given or default, is a violation
    raised before any Hom complex is built; one at the cap is computed."""
    def no_window(*args):
        raise AssertionError("cohomology_window was called")

    monkeypatch.setattr(cli_module, "cohomology_window", no_window)
    path = tmp_path / "far.json"
    path.write_text(json.dumps(shift_complex(strand("Hn", 0), 100000)
                               .to_json()))
    start = time.perf_counter()
    code, out = run(capsys, "cohomology", *window, str(path))
    assert time.perf_counter() - start < 5
    assert code == 1
    (violation,) = json.loads(out)["violations"]
    assert "lattice points" in violation
    assert str(cli_module.MAX_WINDOW_POINTS) in violation

    monkeypatch.setattr(cli_module, "cohomology_window",
                        lambda c, p0, p1, q0, q1:
                        [[0] * (q1 - q0 + 1)] * (p1 - p0 + 1))
    code, out = run(capsys, "cohomology", "--window", "1", "100", "1",
                    str(cli_module.MAX_WINDOW_POINTS // 100), str(path))
    assert code == 0
    assert len(json.loads(out)["dims"]) == 100


def test_box_cotens_dual_subcommands(capsys, tmp_path):
    a = tmp_path / "a1.json"
    a.write_text(json.dumps(strand("A", 1).to_json()))
    h = tmp_path / "h2.json"
    h.write_text(json.dumps(strand("Hn", 2).to_json()))

    code, out = run(capsys, "box", str(a), str(h))
    assert code == 0
    strands = json.loads(out)["strands"]
    assert sorted((s["kind"], s["param"], s["shift"]) for s in strands) == [
        ("A", 1, 0)
    ]

    code, out = run(capsys, "cotens", str(h), str(h))
    assert code == 0
    strands = json.loads(out)["strands"]
    assert [(s["kind"], s["param"], s["shift"]) for s in strands] == [
        ("Hn", 0, 0)
    ]

    code, out = run(capsys, "dual", str(a))
    assert code == 0
    strands = json.loads(out)["strands"]
    assert [(s["kind"], s["param"], s["shift"]) for s in strands] == [
        ("A", 1, -1)
    ]


def test_invertible_and_support(capsys, tmp_path, unit_file):
    code, out = run(capsys, "invertible", unit_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["invertible"] is True
    assert payload["class"] == {"shift": 0, "weight": 0}

    b = tmp_path / "b0.json"
    b.write_text(json.dumps(strand("B", 0).to_json()))
    code, out = run(capsys, "support", str(b))
    assert code == 0
    assert json.loads(out)["support"] == ["<A>"]


def test_empty_complex_splits_to_nothing(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"min_degree": 0, "generators": []}))
    code, out = run(capsys, "split", str(path))
    assert code == 0
    assert json.loads(out) == {"strands": [], "certificate": []}
    code, out = run(capsys, "invertible", str(path))
    assert code == 0
    assert json.loads(out)["invertible"] is False
    code, out = run(capsys, "homology", "--format", "text", str(path))
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"min_degree": 1.7, "generators": [["H"]]},
    {"min_degree": "2", "generators": [["H"]]},
    {"min_degree": True, "generators": [["H"]]},
    {"min_degree": 0, "generators": [["F"], "FH"],
     "differentials": [[["0", "0"]]]},
    {"min_degree": 0, "generators": [["H"], ["H"]], "differentials": [["1"]]},
    {"min_degree": 0, "generators": [["H"], ["H"]], "differentials": [[[1]]]},
    {"min_degree": 0},
    {"ell": 2.0, "min_degree": 0, "generators": [["H"]]},
    {"min_degree": 0, "generators": [["H"], ["F"]], "differentials": [[[" p"]]]},
], ids=["not-an-object", "float-degree", "string-degree", "bool-degree",
        "string-generator-row", "string-differential-row", "int-arrow",
        "no-generators", "float-ell", "padded-arrow"])
def test_malformed_complex_is_a_violation(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("homology", "split", "validate"):
        code, out = run(capsys, command, str(path))
        payload = json.loads(out)
        assert code == 1 and payload["ok"] is False, command
        assert payload["violations"][0].startswith(f"{path}: "), command
        assert "Error" not in payload["violations"][0], command


_H3 = {"ell": 3, "dim_theta": 1, "dim_dot": 1,
       "t": [[1]], "p_up": [[1]], "p_down": [[2]]}


@pytest.mark.parametrize("doc", [
    [1, 2],
    {**_H3, "ell": 3.9},
    {**_H3, "ell": True},
    {**_H3, "ell": 0},
    {**_H3, "dim_theta": "1"},
    {**_H3, "dim_dot": 1.0},
    {**_H3, "t": [[1.0]]},
    {**_H3, "p_down": "2"},
], ids=["not-an-object", "float-ell", "bool-ell", "zero-ell",
        "string-dim-theta", "float-dim-dot", "float-entry", "string-matrix"])
def test_malformed_module_is_a_violation(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (("module", "classify"), ("validate",)):
        code, out = run(capsys, *argv, str(path))
        payload = json.loads(out)
        assert code == 1 and payload["ok"] is False, argv
        assert payload["violations"][0].startswith(f"{path}: "), argv
        assert "Error" not in payload["violations"][0], argv


def test_huge_modulus_is_answered_or_refused_quickly(capsys, tmp_path):
    ell = 10 ** 18 + 3
    path = tmp_path / "big.json"
    data = {"ell": ell, "dim_theta": 1, "dim_dot": 1,
            "t": [[1]], "p_up": [[1]], "p_down": [[2]]}
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out = run(capsys, "module", "classify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["counts"] == {"H": 1}

    data["ell"] = 2 ** 64 + 13
    path.write_text(json.dumps(data))
    code, out = run(capsys, "module", "classify", str(path))
    assert code == 1
    assert "2^64" in json.loads(out)["violations"][0]


def test_serre_exit_codes(capsys, tmp_path, unit_file):
    h = tmp_path / "h2.json"
    h.write_text(json.dumps(strand("Hn", 2).to_json()))
    code, out = run(capsys, "serre", unit_file, str(h))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_toda(capsys):
    code, out = run(capsys, "toda")
    payload = json.loads(out)
    assert code == 0
    assert payload["bracket_nonzero"] is True
    assert payload["zero_indeterminacy"] is True


def test_module_classify_and_ext(capsys, tmp_path):
    hop = tmp_path / "hop.json"
    hop.write_text(json.dumps(indecomposable("Hop", 2).to_json()))
    h = tmp_path / "h.json"
    h.write_text(json.dumps(indecomposable("H", 2).to_json()))

    code, out = run(capsys, "module", "classify", str(hop))
    assert code == 0
    assert json.loads(out)["counts"] == {"Hop": 1}

    code, out = run(capsys, "module", "ext", "-i", "1", str(hop), str(h))
    assert code == 0
    assert json.loads(out)["counts"] == {"SDot": 1}

    code, out = run(capsys, "module", "ext", str(hop), str(h))
    assert code == 0
    assert json.loads(out)["ext"] == {
        "0": {"H": 1},
        "1": {"SDot": 1},
        "2": {"SDot": 1},
    }


@pytest.mark.parametrize("mop, name", [("box", "box"),
                                       ("hom", "internal_hom"),
                                       ("ext", "ext"), ("tor", "tor")])
def test_module_commands_call_the_name_bound_now(capsys, tmp_path,
                                                 monkeypatch, mop, name):
    """``module box|hom|ext|tor`` look their function up per call, so a
    wrapper bound over the name afterwards (as bench/tracing.py binds
    one) is the one that runs."""
    h = tmp_path / "h.json"
    h.write_text(json.dumps(indecomposable("H", 3).to_json()))
    real, calls = getattr(cli_module, name), []

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli_module, name, wrapped)
    code, _ = run(capsys, "module", mop, "--ell", "3", str(h), str(h))
    assert code == 0
    assert len(calls) == (3 if mop in ("ext", "tor") else 1)


def test_module_ell_mismatch_fails(capsys, tmp_path):
    h3 = tmp_path / "h3.json"
    h3.write_text(json.dumps(indecomposable("H", 3).to_json()))
    code, out = run(capsys, "module", "classify", "--ell", "2", str(h3))
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_kronholm_script(capsys, tmp_path):
    script = {
        "cells": [
            {"m": 1, "q": 0, "attach": None},
            {"m": 2, "q": 2, "attach": {"1": [["p"]]}},
        ]
    }
    path = tmp_path / "rp2tw.json"
    path.write_text(json.dumps(script))
    code, out = run(capsys, "kronholm", str(path))
    assert code == 0
    payload = json.loads(out)
    cells = sorted((c["m"], c["q"]) for c in payload["report"]["output_cells"])
    assert cells == [(1, 1), (2, 1)]


def test_kronholm_rejects_non_spacelike(capsys, tmp_path):
    script = {
        "cells": [
            {"m": 1, "q": 1, "attach": None},
            {"m": 2, "q": 0, "attach": {"1": [["p"]]}},
        ]
    }
    path = tmp_path / "badscript.json"
    path.write_text(json.dumps(script))
    code, out = run(capsys, "kronholm", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any("spacelike" in v for v in payload["violations"])


_CELL = {"m": 1, "q": 0, "attach": None}


@pytest.mark.parametrize("doc", [
    [1],
    {"cells": {"0": _CELL}},
    {},
    {"cells": [[1, 0]]},
    {"cells": [{**_CELL, "m": 1.9}]},
    {"cells": [{**_CELL, "q": "0"}]},
    {"cells": [{**_CELL, "m": True}]},
    {"cells": [{"q": 0}]},
    {"cells": [_CELL, {"m": 2, "q": 2, "attach": {"x": [["p"]]}}]},
    {"cells": [_CELL, {"m": 2, "q": 2, "attach": {"1.0": [["p"]]}}]},
    {"cells": [_CELL, {"m": 2, "q": 2, "attach": {"1": [[1]]}}]},
    {"cells": [_CELL, {"m": 2, "q": 2, "attach": {"1": "p"}}]},
    {"cells": [_CELL, {"m": 2, "q": 2, "attach": [["p"]]}]},
    {"cells": [_CELL, {"m": 2, "q": 2, "attach": {"1": [["p", "p"]]}}]},
], ids=["not-an-object", "cells-not-a-list", "no-cells", "cell-not-an-object",
        "float-m", "string-q", "bool-m", "missing-m", "word-key", "float-key",
        "int-entry", "string-matrix", "attach-not-an-object",
        "attach-wrong-shape"])
def test_malformed_build_script_is_a_violation(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "kronholm", str(path))
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert payload["violations"][0].startswith(f"{path}: ")
    assert "Error" not in payload["violations"][0]


@pytest.mark.parametrize("argv", [
    ("fuzz", "--count", "-1"),
    ("gen", "--count", "-2"),
    ("fuzz", "--max-strands", "0"),
    ("gen", "--max-strands", "-3"),
    ("gen", "--count", "two"),
])
def test_gen_and_fuzz_bounds_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err


def test_gen_and_fuzz_accept_their_bounds(capsys):
    code, out = run(capsys, "gen", "--count", "0")
    assert (code, json.loads(out)) == (0, {"instances": []})
    code, out = run(capsys, "fuzz", "--count", "2", "--max-strands", "1")
    assert (code, out) == (0, "2/2 recovered\n")


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_and_fuzz_refuse_counts_past_the_cap(capsys, monkeypatch,
                                                 command):
    """A --count above MAX_COUNT is a violation raised before any instance
    is drawn; one at the cap runs.  The cap keeps the documented corpora
    (gen --count 200, fuzz --count 1000) legal."""
    assert cli_module.MAX_COUNT >= 1000
    monkeypatch.setattr(cli_module, "MAX_COUNT", 3)
    code, out = run(capsys, command, "--count", "3", "--max-strands", "2",
                    "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert (len(payload["instances"]) if command == "gen"
            else payload["recovered"]) == 3

    def no_draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli_module, "random_scrambled_complex", no_draw)
    code, out = run(capsys, command, "--count", "4", "--format", "json")
    assert code == 1
    (violation,) = json.loads(out)["violations"]
    assert violation.startswith("--count 4 is more than the cap of 3")


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_and_fuzz_refuse_max_strands_past_the_cap(capsys, monkeypatch,
                                                      command):
    """A --max-strands above MAX_STRANDS is a violation raised before any
    instance is drawn; one at the cap runs.  CI fuzzes at 32."""
    cap = cli_module.MAX_STRANDS
    assert cap >= 32

    def no_draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli_module, "random_scrambled_complex", no_draw)
    code, out = run(capsys, command, "--count", "1", "--max-strands",
                    "100000000", "--format", "json")
    assert code == 1
    (violation,) = json.loads(out)["violations"]
    assert violation.startswith(f"--max-strands 100000000 is more than the "
                                f"cap of {cap}")
    monkeypatch.undo()
    monkeypatch.setattr(cli_module, "MAX_STRANDS", 2)
    code, out = run(capsys, command, "--count", "2", "--max-strands", "2",
                    "--format", "json")
    assert code == 0


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_and_fuzz_refuse_products_past_the_cap(capsys, monkeypatch,
                                                   command):
    """--count times --max-strands above MAX_COUNT times the default
    --max-strands (8) is a violation raised before any instance is drawn;
    one at that cap runs, and so do the corpora CI runs."""
    assert cli_module.MAX_COUNT * 8 >= max(1000 * 8, 50 * 32, 200 * 8)
    monkeypatch.setattr(cli_module, "MAX_COUNT", 3)

    def no_draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    with monkeypatch.context() as m:
        m.setattr(cli_module, "random_scrambled_complex", no_draw)
        code, out = run(capsys, command, "--count", "3", "--max-strands",
                        "9", "--format", "json")
    assert code == 1
    (violation,) = json.loads(out)["violations"]
    assert violation.startswith("--count 3 times --max-strands 9 is more "
                                "than the cap of 24")
    code, out = run(capsys, command, "--count", "3", "--max-strands", "8",
                    "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert (len(payload["instances"]) if command == "gen"
            else payload["recovered"]) == 3


@pytest.mark.parametrize("argv", [
    ("validate", "X"), ("split", "X"), ("homology", "X"), ("cohomology", "X"),
    ("cohomology", "--window", "0", "1", "0", "1", "X"), ("box", "X", "Y"),
    ("cotens", "X", "Y"), ("dual", "X"), ("invertible", "X"),
    ("support", "X"), ("serre", "X", "Y"),
], ids=["validate", "split", "homology", "cohomology", "cohomology-window",
        "box", "cotens", "dual", "invertible", "support", "serre"])
def test_each_input_file_is_validated_once(capsys, monkeypatch, tmp_path,
                                           argv):
    """A command validates a complex once, when it reads the file; the
    split it runs after that does not validate again."""
    paths = {}
    for name, s in (("X", Strand("Hn", 2, 0)), ("Y", Strand("A", 1, -1))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(
            decomposition_sum([s, Strand("B", 1, 1)]).to_json()))
    calls = []

    def counted(c):
        calls.append(c)
        return validate_complex(c)

    monkeypatch.setattr(cli_module, "validate_complex", counted)
    monkeypatch.setattr(sys.modules["c2mackey.split"], "validate_complex",
                        counted)
    code, _ = run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 0
    assert len(calls) == len([a for a in argv if a in paths])


def test_gen_is_deterministic(capsys):
    code1, out1 = run(capsys, "gen", "--seed", "5", "--count", "3",
                      "--max-strands", "4")
    code2, out2 = run(capsys, "gen", "--seed", "5", "--count", "3",
                      "--max-strands", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["instances"]) == 3
    # instance i depends only on (seed, i): a longer run extends, not reshuffles
    _, out4 = run(capsys, "gen", "--seed", "5", "--count", "4",
                  "--max-strands", "4")
    longer = json.loads(out4)["instances"]
    assert longer[:3] == payload["instances"]
    # different seed gives a different corpus
    _, out3 = run(capsys, "gen", "--seed", "6", "--count", "3",
                  "--max-strands", "4")
    assert out3 != out1


def test_fuzz_defaults_to_text(capsys):
    code, out = run(capsys, "fuzz", "--seed", "11", "--count", "8",
                    "--max-strands", "4")
    assert code == 0
    assert out == "8/8 recovered\n"


def test_fuzz_json(capsys):
    code, out = run(capsys, "fuzz", "--seed", "11", "--count", "5",
                    "--max-strands", "4", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["recovered"] == payload["count"] == 5
    assert payload["failures"] == []


def test_gen_output_feeds_split(capsys, tmp_path):
    # a count of 1 emits the single instance directly
    code, out = run(capsys, "gen", "--seed", "3", "--count", "1",
                    "--max-strands", "4")
    instance = json.loads(out)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(instance["complex"]))
    code, out = run(capsys, "split", str(path))
    assert code == 0
    got = sorted((s["kind"], s["param"], s["shift"])
                 for s in json.loads(out)["strands"])
    want = sorted((s["kind"], s["param"], s["shift"])
                  for s in instance["planted"])
    assert got == want


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["split"]) == 2  # missing file argument
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_repeated_calls_leak_no_state(capsys, tmp_path, unit_file,
                                      monkeypatch):
    """``main`` called again and again in one process answers each call
    exactly as a fresh process does, and builds its parser at most once."""
    hop = tmp_path / "hop.json"
    hop.write_text(json.dumps(indecomposable("Hop", 2).to_json()))
    h = tmp_path / "h.json"
    h.write_text(json.dumps(indecomposable("H", 2).to_json()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        FreeComplex(0, [["F"], ["F"], ["F"]], [[[1]], [[1]]]).to_json()))
    calls = [
        ("module", "classify"),                  # missing file: usage error
        ("module", "classify", "--format", "text", str(hop)),
        ("module", "classify", str(hop)),
        ("module", "ext", "-i", "1", str(hop), str(h)),
        ("module", "ext", str(hop), str(h)),
        ("gen", "--count", "3"),
        ("gen",),
        ("validate", str(bad)),
        ("validate", unit_file),
    ]
    monkeypatch.delenv("MACKEY_LOG", raising=False)
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "c2mackey":
            builds.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    got = []
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    assert len(builds) <= 1

    codes = [code for code, _, _ in got]
    assert codes == [2, 0, 0, 0, 0, 0, 0, 1, 0]
    assert got[1][1] == "Hop\n"
    assert json.loads(got[2][1]) == {"counts": {"Hop": 1}}
    assert json.loads(got[4][1])["ext"].keys() == {"0", "1", "2"}
    assert len(json.loads(got[5][1])["instances"]) == 3
    assert "complex" in json.loads(got[6][1])

    for argv, answer in zip(calls, got):
        fresh = subprocess.run([sys.executable, "-m", "c2mackey.cli", *argv],
                               capture_output=True, text=True,
                               env=_subprocess_env())
        assert answer == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _subprocess_env() -> dict:
    """The environment of a fresh CLI process: this checkout's ``src``
    first on the path, and no log level."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "MACKEY_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_closed_pipe_ends_quietly_with_exit_1():
    """A reader that closes the pipe early (``| head -c 10``) gets no
    traceback on stderr; the output (81 kB) is larger than a pipe holds,
    so the write fails and the command exits 1."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "c2mackey.cli", "gen", "--seed", "0",
         "--count", "200", "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_subprocess_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err


def test_missing_file_is_reported_not_raised(capsys):
    code, out = run(capsys, "split", "/nonexistent/path.json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert "FileNotFoundError" in payload["violations"][0]


def test_log_env_controls_logger(capsys, unit_file, monkeypatch, caplog):
    monkeypatch.setenv("MACKEY_LOG", "DEBUG")
    with caplog.at_level(logging.DEBUG, logger="c2mackey"):
        code, _ = run(capsys, "split", unit_file)
    assert code == 0
    assert any(r.name.startswith("c2mackey") for r in caplog.records)


def test_readme_examples_match_the_cli(capsys):
    """Each README example on a file under ``examples/`` prints exactly
    the output the README shows."""
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    chunks = [chunk.splitlines()
              for block in readme.split("```sh\n")[1:]
              for chunk in block.split("```")[0].strip().split("\n\n")]
    examples = [c for c in chunks
                if c[0].startswith("$ c2mackey") and "examples/" in c[0]]
    assert len(examples) == 3
    for command, *expected in examples:
        argv = [str(root / a) if a.startswith("examples/") else a
                for a in command.split()[2:]]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == expected, command
