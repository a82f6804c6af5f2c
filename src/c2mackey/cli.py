"""Command-line front end.

One subcommand per pipeline; JSON in, JSON out (``--format text`` switches
to a human rendering, including ASCII dot charts for bigraded windows).
Exit codes: 0 success, 1 validation or computation failure (with a
machine-readable violation list), 2 usage errors.  Set MACKEY_LOG to a
level name (or number) for diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import random
import sys
from collections import Counter

from . import _schema as schema
from .complexes import FreeComplex, homology_counts, validate_complex
from .derived import (balmer_support, cohomology_window, dbox, dcotens,
                      invertible_class, op_dual_decomp, serre_check,
                      sufficient_window, toda_witness)
from .kronholm import RepBuildScript, ScriptError, kronholm_split
from .mackey import (KINDS, MackeyModule, box, classify, ext, internal_hom,
                     tor, validate_module)
from .split import (DISK_KINDS, random_scrambled_complex, split,
                    verify_certificate)

log = logging.getLogger("c2mackey.cli")


class Failure(Exception):
    """A reportable failure: carries the machine-readable payload."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


# -- text renderings -----------------------------------------------------------

def strand_text(s) -> str:
    if s.kind in DISK_KINDS:
        return f"{s.kind} @ {s.shift}"
    name = f"H({s.param})" if s.kind == "Hn" else f"{s.kind}({s.param})"
    return f"{name} @ {s.shift}"


def strands_text(strands) -> str:
    return "\n".join(strand_text(s) for s in strands) if strands else "0"


def counts_text(counts: dict) -> str:
    parts = []
    for kind in KINDS:
        n = counts.get(kind, 0)
        if n == 1:
            parts.append(kind)
        elif n > 1:
            parts.append(f"{n}{kind}")
    return " + ".join(parts) if parts else "0"


def render_window(dims: list[list[int]], p0: int, p1: int,
                  q0: int, q1: int) -> str:
    """ASCII dot chart: one glyph per lattice point (``.`` for zero,
    digits for small dimensions, ``*`` past 9), p across, q up."""
    ps = list(range(p0, p1 + 1))
    qs = list(range(q0, q1 + 1))
    width = max([len(str(p)) for p in ps] + [1]) + 1
    qw = max([len(str(q)) for q in qs] + [1])
    lines = [" " * qw + " q"]
    for q in reversed(qs):
        cells = []
        for p in ps:
            d = dims[p - p0][q - q0]
            glyph = "." if d == 0 else (str(d) if d < 10 else "*")
            cells.append(glyph.rjust(width))
        lines.append(str(q).rjust(qw) + " |" + "".join(cells))
    lines.append(" " * qw + " +" + "-" * (width * len(ps) + 2))
    lines.append(" " * qw + "  "
                 + "".join(str(p).rjust(width) for p in ps) + "  p")
    return "\n".join(lines)


# -- input helpers -------------------------------------------------------------

def _read(path: str, cls):
    """``cls.from_json`` of the JSON file at ``path``; a malformed file is
    a violation."""
    try:
        with open(path) as fh:
            return cls.from_json(json.load(fh))
    except ValueError as exc:
        raise Failure([f"{path}: {exc}"]) from exc


class _ComplexOrModule:
    """What ``validate`` reads: a module when the object has ``dim_theta``,
    a complex otherwise."""

    @staticmethod
    def from_json(data):
        is_module = "dim_theta" in schema.obj(data, "a complex or a module")
        return (MackeyModule if is_module else FreeComplex).from_json(data)


def _load(path: str, cls, ell: int | None = None):
    """A complex or module read from ``path`` that passes validation (and
    has modulus ``ell`` when one is given)."""
    x = _read(path, cls)
    errs = (validate_module(x) if isinstance(x, MackeyModule)
            else validate_complex(x))
    if not errs and ell is not None and x.ell != ell:
        errs = [f"modulus is {x.ell}, expected {ell}"]
    if errs:
        raise Failure([f"{path}: {e}" for e in errs])
    return x


def _split_file(path: str):
    return split(_load(path, FreeComplex), validate=False)


# -- subcommand handlers: each returns (payload, text, exit_code) ---------------

def cmd_validate(args):
    _load(args.file, _ComplexOrModule)
    return {"ok": True, "violations": []}, "ok", 0


def cmd_split(args):
    dec = _split_file(args.file)
    text = strands_text(dec.strands) + f"\nmoves: {len(dec.certificate)}"
    return dec.to_json(), text, 0


def cmd_homology(args):
    c = _load(args.file, FreeComplex)
    hom = homology_counts(c)
    payload = {"homology": {str(d): hom[d] for d in sorted(hom)}}
    text = "\n".join(f"degree {d}: {counts_text(hom[d])}"
                     for d in sorted(hom)) or "0"
    return payload, text, 0


# a cohomology window costs one Hom complex of the input per weight q, with
# one differential and one rank per degree p, so its cost still grows with
# its lattice points: larger windows are refused rather than left to run
MAX_WINDOW_POINTS = 10_000


def cmd_cohomology(args):
    c = _load(args.file, FreeComplex)
    if args.window:
        p0, p1, q0, q1 = args.window
    else:
        p0, p1, q0, q1 = sufficient_window(split(c, validate=False).strands)
    if p0 > p1 or q0 > q1:
        raise Failure([f"empty window ({p0}..{p1}) x ({q0}..{q1})"])
    points = (p1 - p0 + 1) * (q1 - q0 + 1)
    if points > MAX_WINDOW_POINTS:
        raise Failure([f"window ({p0}..{p1}) x ({q0}..{q1}) has {points} "
                       f"lattice points, more than the cap of "
                       f"{MAX_WINDOW_POINTS}; pass a smaller --window"])
    dims = cohomology_window(c, p0, p1, q0, q1)
    payload = {"p0": p0, "p1": p1, "q0": q0, "q1": q1, "dims": dims}
    return payload, render_window(dims, p0, p1, q0, q1), 0


def cmd_box(args):
    xs = _split_file(args.file).strands
    ys = _split_file(args.other).strands
    out = dbox(xs, ys)
    return {"strands": [s.to_json() for s in out]}, strands_text(out), 0


def cmd_cotens(args):
    xs = _split_file(args.file).strands
    zs = _split_file(args.other).strands
    out = dcotens(xs, zs)
    return {"strands": [s.to_json() for s in out]}, strands_text(out), 0


def cmd_dual(args):
    out = op_dual_decomp(_split_file(args.file).strands)
    return {"strands": [s.to_json() for s in out]}, strands_text(out), 0


def cmd_invertible(args):
    cls = invertible_class(_split_file(args.file).strands)
    payload = {"invertible": cls is not None,
               "class": None if cls is None else {"shift": cls[0],
                                                  "weight": cls[1]}}
    text = ("not invertible" if cls is None
            else f"invertible: Sigma^{cls[0]} H({cls[1]})")
    return payload, text, 0


def cmd_support(args):
    supp = balmer_support(_split_file(args.file).strands)
    return {"support": supp}, " ".join(supp) if supp else "(empty)", 0


def cmd_serre(args):
    xs = _split_file(args.file).strands
    ys = _split_file(args.other).strands
    res = serre_check(xs, ys)
    payload = {"ok": res["ok"],
               "lhs": [s.to_json() for s in res["lhs"]],
               "rhs": [s.to_json() for s in res["rhs"]]}
    return payload, "ok" if res["ok"] else "MISMATCH", 0 if res["ok"] else 1


def cmd_toda(args):
    w = toda_witness()
    bracket = w["maps"]["bracket"]
    payload = {
        "theta_rho_strictly_zero": w["theta_rho_strictly_zero"],
        "tau_theta_null_homotopic": w["tau_theta_null_homotopic"],
        "bracket_nonzero": w["bracket_nonzero"],
        "indeterminacy_dims": list(w["indeterminacy_dims"]),
        "zero_indeterminacy": w["zero_indeterminacy"],
        "bracket": None if bracket is None
        else bracket.to_json()["components"],
    }
    text = "\n".join(f"{k}: {payload[k]}" for k in
                     ("theta_rho_strictly_zero", "tau_theta_null_homotopic",
                      "bracket_nonzero", "indeterminacy_dims"))
    return payload, text, 0


def cmd_module(args):
    a = _load(args.file, MackeyModule, args.ell)
    if args.mop == "classify":
        counts = classify(a)
    else:
        b = _load(args.other, MackeyModule, args.ell)
        # the subcommand's function, looked up per call so that a later
        # rebinding of these names (bench/tracing.py wraps them) is seen
        fn = {"box": box, "hom": internal_hom, "ext": ext,
              "tor": tor}[args.mop]
        if args.mop in ("box", "hom"):
            counts = classify(fn(a, b))
        elif args.degree is not None:
            counts = fn(a, b, args.degree)
        else:
            table = {str(i): fn(a, b, i) for i in range(3)}
            text = "\n".join(f"{args.mop}^{i}: {counts_text(table[str(i)])}"
                             for i in ("0", "1", "2"))
            return {args.mop: table}, text, 0
    return {"counts": counts}, counts_text(counts), 0


def cmd_kronholm(args):
    try:
        dec, report = kronholm_split(_read(args.file, RepBuildScript))
    except ScriptError as exc:
        raise Failure([f"{args.file}: {exc}"]) from exc
    payload = dec.to_json()
    payload["report"] = report.to_json()
    cells = " ".join(f"({c.m},{c.q})" for c in report.output_cells)
    text = (strands_text(dec.strands)
            + f"\ncells: {cells}\ntotal weight: {report.total_weight_in}")
    return payload, text, 0


# gen holds its whole corpus in memory (about 20 kB an instance at the
# default --max-strands) and fuzz runs one split per instance, so larger
# counts are refused rather than left to run out of memory or time; an
# instance holds up to --max-strands strands, so that is capped too, and
# so is the product, at the count cap times the default --max-strands
MAX_COUNT = 10_000
MAX_STRANDS = 1_000
_DEFAULT_STRANDS = 8


def _check_caps(args) -> None:
    """Refuse a --count, a --max-strands or their product above its cap,
    before any draw."""
    if args.count > MAX_COUNT:
        raise Failure([f"--count {args.count} is more than the cap of "
                       f"{MAX_COUNT}; run several seeds instead"])
    if args.max_strands > MAX_STRANDS:
        raise Failure([f"--max-strands {args.max_strands} is more than the "
                       f"cap of {MAX_STRANDS}"])
    cap = MAX_COUNT * _DEFAULT_STRANDS
    if args.count * args.max_strands > cap:
        raise Failure([f"--count {args.count} times --max-strands "
                       f"{args.max_strands} is more than the cap of {cap}; "
                       f"run several seeds instead"])


def cmd_gen(args):
    _check_caps(args)
    instances = []
    for i in range(args.count):
        rng = random.Random(f"{args.seed}:{i}")
        c, planted = random_scrambled_complex(rng, max_strands=args.max_strands)
        instances.append({"complex": c.to_json(),
                          "planted": [s.to_json()
                                      for s in sorted(planted.elements())]})
    payload = instances[0] if args.count == 1 else {"instances": instances}
    text = "\n".join(json.dumps(inst["complex"]) for inst in instances)
    return payload, text, 0


def cmd_fuzz(args):
    _check_caps(args)
    recovered, failures = 0, []
    for i in range(args.count):
        rng = random.Random(f"{args.seed}:{i}")
        c, planted = random_scrambled_complex(rng, max_strands=args.max_strands)
        try:
            dec = split(c)
            ok = (Counter(dec.strands) == planted
                  and verify_certificate(c, dec))
        except Exception as exc:        # a fuzz failure is a report, not a crash
            log.info("instance %d raised: %s", i, exc)
            ok = False
        if ok:
            recovered += 1
        else:
            failures.append(i)
            log.info("instance %d not recovered", i)
    payload = {"count": args.count, "recovered": recovered,
               "failures": failures[:20], "ok": recovered == args.count}
    text = f"{recovered}/{args.count} recovered"
    return payload, text, 0 if recovered == args.count else 1


HANDLERS = {
    "validate": cmd_validate, "split": cmd_split, "homology": cmd_homology,
    "cohomology": cmd_cohomology, "box": cmd_box, "cotens": cmd_cotens,
    "dual": cmd_dual, "invertible": cmd_invertible, "support": cmd_support,
    "serre": cmd_serre, "toda": cmd_toda, "module": cmd_module,
    "kronholm": cmd_kronholm, "gen": cmd_gen, "fuzz": cmd_fuzz,
}


# -- argument parsing ------------------------------------------------------------

def _int_at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, "
                                             f"got {value}")
        return value
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after:
    parsing keeps no state in it, and building it costs more than most
    commands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=None,
                        help="output rendering (default json; fuzz: text)")

    p = argparse.ArgumentParser(
        prog="c2mackey",
        description="Exact algebra for modules and perfect complexes over "
                    "the constant Mackey ring of the group of order two.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, **kw):
        sp = sub.add_parser(name, parents=[common], help=help_, **kw)
        return sp

    sp = add("validate", "check a complex or module file")
    sp.add_argument("file")
    sp = add("split", "decompose a complex into strands with a certificate")
    sp.add_argument("file")
    sp = add("homology", "classified homology of a complex, per degree")
    sp.add_argument("file")
    sp = add("cohomology", "bigraded cohomology window of a complex")
    sp.add_argument("file")
    sp.add_argument("--window", nargs=4, type=int,
                    metavar=("P0", "P1", "Q0", "Q1"))
    for name, help_ in (("box", "derived product of two complexes"),
                        ("cotens", "derived cotensor of two complexes"),
                        ("serre", "check the duality identity on two files")):
        sp = add(name, help_)
        sp.add_argument("file")
        sp.add_argument("other")
    for name, help_ in (("dual", "opposite dual of a complex"),
                        ("invertible", "test for box-invertibility"),
                        ("support", "tensor-triangular support")):
        sp = add(name, help_)
        sp.add_argument("file")
    add("toda", "three-fold bracket witness on the unit")
    sp = add("module", "module-level operations")
    msub = sp.add_subparsers(dest="mop", required=True)
    for mop, nargs_ in (("classify", 1), ("box", 2), ("hom", 2),
                        ("ext", 2), ("tor", 2)):
        mp = msub.add_parser(mop, parents=[common])
        mp.add_argument("file")
        if nargs_ == 2:
            mp.add_argument("other")
        if mop in ("ext", "tor"):
            mp.add_argument("-i", "--degree", type=int, default=None)
        mp.add_argument("--ell", type=int, default=None,
                        help="expected modulus of the input modules")
    sp = add("kronholm", "run a cell build script and report weight shifts")
    sp.add_argument("file")
    for name, help_, count in (
            ("gen", "emit random scrambled complexes", 1),
            ("fuzz", "construct-scramble-recover campaign", 100)):
        sp = add(name, help_)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--count", type=_int_at_least(0), default=count)
        sp.add_argument("--max-strands", type=_int_at_least(1),
                        default=_DEFAULT_STRANDS)
    return p


def _configure_logging() -> None:
    level = os.environ.get("MACKEY_LOG")
    if not level:
        return
    try:
        value = int(level)
    except ValueError:
        value = level.upper()
    logging.basicConfig(level=value, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); point stdout at the
        # null device, so that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    fmt = args.format or ("text" if args.command == "fuzz" else "json")
    log.debug("command %s", args.command)
    try:
        payload, text, code = HANDLERS[args.command](args)
    except Failure as exc:
        _emit(fmt, {"ok": False, "violations": exc.violations},
              "error: " + "; ".join(exc.violations))
        return 1
    except Exception as exc:  # noqa: BLE001 - report, never a traceback
        msg = f"{type(exc).__name__}: {exc}"
        _emit(fmt, {"ok": False, "violations": [msg]}, "error: " + msg)
        return 1
    _emit(fmt, payload, text)
    return code


def _emit(fmt: str, payload, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main(argv=None))
