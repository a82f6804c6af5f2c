"""The benchmark's four workloads.

Each workload turns the seed into inputs, runs one operation at a time
(a closed loop with one client), and checks every output with an oracle:
the planted input, a closed form, or another route through the library.
Library calls go through the module objects (``S.split``,
``C.homology_counts``, ...) so that a traced run sees them through the
tracer's rebound names.

Why each workload exists is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path

C = importlib.import_module("c2mackey.complexes")
S = importlib.import_module("c2mackey.split")
M = importlib.import_module("c2mackey.mackey")
D = importlib.import_module("c2mackey.derived")
K = importlib.import_module("c2mackey.kronholm")
CLI = importlib.import_module("c2mackey.cli")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strands_repr(strands) -> list:
    return sorted((s.kind, s.param, s.shift) for s in strands)


def complex_repr(c) -> str:
    return json.dumps(c.to_json(), sort_keys=True)


class Workload:
    """One workload at one seed.

    ``setup`` generates the inputs and warms caches; ``op(i)`` runs
    operation ``i`` on input ``i % len(self)`` (a timed run makes whole
    passes over the inputs); ``oracle(i, out)`` checks its output.
    ``trace_ops`` is the fixed prefix of operations a traced pass runs, so
    that counts repeat exactly.

    The inputs must be many enough that the median, the 11th slowest
    input (``op_tail_ms``) and the summed time barely change from seed to
    seed, and few enough that a run makes at least two passes.  The tail
    of ``fuzz_corpus`` is set by its slow inputs (no legal move, so the
    move generator burns its whole budget of draws); their times pile up
    below a ceiling, and at 4000 inputs the 11th slowest sits near it.
    """

    name = ""
    trace_ops = 0

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self._verified: dict[int, str] = {}

    def __len__(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def oracle(self, i: int, out) -> bool:
        raise NotImplementedError

    def input_repr(self, i: int, out) -> str:
        raise NotImplementedError

    def output_repr(self, out) -> str:
        raise NotImplementedError

    def generators(self, i: int, out) -> int:
        """Generators of the complexes the operation received."""
        return 0

    def sizes(self) -> dict:
        return {}

    def check(self, i: int, out) -> bool:
        """Oracle verdict for operation ``i``.  An input seen before must
        give the output already verified for it (compared by digest),
        which keeps repeated expensive oracles out of the run."""
        k = i % len(self)
        seen = self._verified.get(k)
        got = digest(self.output_repr(out))
        if seen is not None:
            return got == seen
        if self.oracle(i, out):
            self._verified[k] = got
            return True
        return False


# -- fuzz_corpus ----------------------------------------------------------

class FuzzCorpus(Workload):
    """construct - scramble - recover, as ``c2mackey fuzz`` runs it."""

    name = "fuzz_corpus"
    INPUTS = 4000
    trace_ops = 300
    WARM_OPS = 50
    MAX_STRANDS = 8

    def __len__(self) -> int:
        return self.INPUTS

    def setup(self) -> None:
        # the same warm-up at every seed, so that set-up time does not
        # depend on which inputs the seed draws
        for j in range(self.WARM_OPS):
            self._run(random.Random(f"warm:{j}"))

    def _run(self, rng):
        c, planted = S.random_scrambled_complex(rng, max_strands=self.MAX_STRANDS)
        dec = S.split(c)
        return c, planted, dec, S.verify_certificate(c, dec)

    def op(self, i: int):
        return self._run(random.Random(f"{self.seed}:{i % len(self)}"))

    def oracle(self, i: int, out) -> bool:
        c, planted, dec, verified = out
        return verified is True and Counter(dec.strands) == planted

    def input_repr(self, i: int, out) -> str:
        c, planted, _, _ = out
        return complex_repr(c) + repr(strands_repr(planted.elements()))

    def output_repr(self, out) -> str:
        _, _, dec, verified = out
        return json.dumps([dec.to_json(), verified], sort_keys=True)

    def generators(self, i: int, out) -> int:
        return out[0].num_gens()

    def sizes(self) -> dict:
        return {"max_strands": self.MAX_STRANDS, "max_param": 6,
                "max_moves": 200}


# -- large_complex ---------------------------------------------------------

def shifted_homology(table: dict, strands) -> dict:
    """Homology of a strand sum from per-strand homology of the canonical
    strands: shift each degree, add the counts."""
    out: dict[int, Counter] = {}
    for s in strands:
        for d, counts in table[(s.kind, s.param)].items():
            out.setdefault(d + s.shift, Counter()).update(counts)
    return {d: dict(c) for d, c in out.items() if c}


def identity_after(first, second, kinds_at) -> bool:
    """Whether second . first is the identity in every degree, where both
    are degree-0 chain maps between complexes with the same generator
    kinds (sparse product over the arrow algebra)."""
    for d, fm in first.components.items():
        kinds = kinds_at(d)
        gm = second.components.get(d)
        n = len(kinds)
        if gm is None:
            if n:
                return False
            continue
        gcols = [[(r, gm[r][q]) for r in range(n) if gm[r][q]]
                 for q in range(n)]
        for s in range(n):
            acc = [0] * n
            ks = kinds[s]
            for q in range(n):
                e = fm[q][s]
                if not e:
                    continue
                kq = kinds[q]
                for r, e2 in gcols[q]:
                    acc[r] ^= C.ecompose(ks, kq, kinds[r], e, e2)
            for r in range(n):
                if acc[r] != (1 if r == s else 0):
                    return False
    return True


def draw_strands(rng, generators: int) -> list:
    """Random strands (the library's strand distribution) whose complexes
    have exactly ``generators`` generators in total: a draw that would
    overshoot is thrown back."""
    out, total = [], 0
    while total < generators:
        s = S.random_strand(rng, 6)
        n = C.strand(s.kind, s.param).num_gens()
        if total + n <= generators:
            out.append(s)
            total += n
    return out


class LargeComplex(Workload):
    """A ladder of large scrambled strand sums, each run through the whole
    single-complex pipeline."""

    name = "large_complex"
    RUNGS = (240, 480, 960)         # generators; about 64, 128, 256 strands
    MOVES_PER_STRAND = 25
    trace_ops = len(RUNGS)

    def __len__(self) -> int:
        return len(self.RUNGS)

    def setup(self) -> None:
        table: dict = {}
        self.inputs = []
        for gens in self.RUNGS:
            # the planted strands (and so the sizes of every degree and an
            # op's cost) are the same at every seed; the seed draws the
            # scramble
            planted = draw_strands(random.Random(f"large:design:{gens}"), gens)
            rng = random.Random(f"{self.seed}:large:{gens}")
            base = S.decomposition_sum(planted)
            moves = S.random_legal_moves(
                base, rng, self.MOVES_PER_STRAND * len(planted))
            c = S.replay(base, moves)
            for s in planted:
                if (s.kind, s.param) not in table:
                    table[(s.kind, s.param)] = C.homology_counts(
                        C.strand(s.kind, s.param))
            self.inputs.append((c, Counter(planted),
                                shifted_homology(table, planted), len(moves)))

    def op(self, i: int):
        c = self.inputs[i % len(self)][0]
        errs = C.validate_complex(c)
        dec = S.split(c, validate=False)
        verified = S.verify_certificate(c, dec)
        v, u = S.certificate_isos(c, dec.certificate)
        return errs, dec, verified, v, u, C.homology_counts(c)

    def oracle(self, i: int, out) -> bool:
        c, planted, homology, _ = self.inputs[i % len(self)]
        errs, dec, verified, v, u, h = out
        return (errs == [] and verified is True
                and Counter(dec.strands) == planted and h == homology
                and identity_after(v, u, c.gens_at)
                and identity_after(u, v, c.gens_at))

    def input_repr(self, i: int, out) -> str:
        c, planted, _, _ = self.inputs[i % len(self)]
        return complex_repr(c) + repr(strands_repr(planted.elements()))

    def output_repr(self, out) -> str:
        errs, dec, verified, v, u, h = out
        return json.dumps([errs, dec.to_json(), verified,
                           v.to_json(), u.to_json(),
                           sorted((d, sorted(c.items())) for d, c in h.items())],
                          sort_keys=True)

    def generators(self, i: int, out) -> int:
        return self.inputs[i % len(self)][0].num_gens()

    def sizes(self) -> dict:
        return {"generators": [c.num_gens() for c, *_ in self.inputs],
                "strands": [sum(p.values()) for _, p, _, _ in self.inputs],
                "moves": [m for *_, m in self.inputs]}


# -- derived_products -------------------------------------------------------

def _interleave(groups: list[list]) -> list:
    """Merge op lists so that every prefix holds each kind in proportion."""
    keyed = [((j + 0.5) / len(g), gi, item)
             for gi, g in enumerate(groups) for j, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def scrambled(design, rng, strands: int):
    """(complex, sorted planted strands): ``random_scrambled_complex`` with
    a given number of strands drawn from ``design`` and the moves drawn
    from ``rng``.  The benchmark passes a design that is the same at every
    seed, so the planted sizes, and with them a pass's cost, do not change
    with the seed; the seed draws the scramble."""
    planted = [S.random_strand(design, 6) for _ in range(strands)]
    base = S.decomposition_sum(planted)
    moves = S.random_legal_moves(base, rng, rng.randint(0, 200))
    return S.replay(base, moves), sorted(planted)


def _live(strands) -> list:
    return sorted(s for s in strands if s.kind not in S.DISK_KINDS)


def _cells_conserved(script, report) -> bool:
    cells_in = [cell for cell, _ in script.cells]
    return (sorted(report.input_cells) == sorted(cells_in)
            and Counter(c.m for c in report.output_cells)
            == Counter(c.m for c in cells_in)
            and sum(c.q for c in report.output_cells)
            == sum(c.q for c in cells_in)
            and all(0 <= c.q <= c.m for c in report.output_cells))


class DerivedProducts(Workload):
    """Many small products, cotensors, hom-complex windows and cell
    pipelines."""

    name = "derived_products"
    PAIRS = 160            # each pair is used once by box, once by cotens
    WINDOWS = 48
    SCRIPTS = 12
    CELLS = 12
    trace_ops = 120

    def __len__(self) -> int:
        return len(self.ops)

    def setup(self) -> None:
        cache = getattr(C, "_BLOCK_CACHE", None)
        if cache is not None:           # each set-up warms it from empty
            cache.clear()
        rng = random.Random(f"{self.seed}:derived")
        design = random.Random("derived:design")
        pairs = []
        for j in range(self.PAIRS):         # strand counts 1..4 x 1..4
            x, px = scrambled(design, rng, 1 + j % 4)
            y, py = scrambled(design, rng, 1 + j // 4 % 4)
            pairs.append((x, px, y, py))
        windows = []
        for j in range(self.WINDOWS):       # strand counts 1..6
            c, planted = scrambled(design, rng, 1 + j % 6)
            windows.append(("window", c, planted,
                            D.sufficient_window(planted)))
        scripts = []
        for j in range(self.SCRIPTS):
            # the first draw of random_spacelike_script is its cell count
            n = 0
            while random.Random(f"{self.seed}:cells:{j}:{n}").randint(
                    1, self.CELLS) != self.CELLS:
                n += 1
            script = K.random_spacelike_script(
                random.Random(f"{self.seed}:cells:{j}:{n}"),
                max_cells=self.CELLS, max_dim=5)
            scripts.append(("kronholm", script))
        self.ops = _interleave([[("box",) + p for p in pairs],
                                [("cotens",) + p for p in pairs],
                                windows, scripts])
        for i, spec in enumerate(self.ops):      # warm the block cache
            if spec[0] == "box":
                self.op(i)
                break

    def op(self, i: int):
        spec = self.ops[i % len(self)]
        kind = spec[0]
        if kind == "box":
            return S.split(C.box_complex(spec[1], spec[3]), validate=False)
        if kind == "cotens":
            return S.split(C.box_complex(C.cotens_H(spec[1]), spec[3]),
                           validate=False)
        if kind == "window":
            return D.cohomology_window(spec[1], *spec[3])
        return K.kronholm_split(spec[1])

    def oracle(self, i: int, out) -> bool:
        spec = self.ops[i % len(self)]
        kind = spec[0]
        if kind == "box":
            return _live(out.strands) == D.dbox_formula(spec[2], spec[4])
        if kind == "cotens":
            return _live(out.strands) == D.dcotens_formula(spec[2], spec[4])
        if kind == "window":
            return out == D.cohomology_formula(spec[2], *spec[3])
        return _cells_conserved(spec[1], out[1])

    def input_repr(self, i: int, out) -> str:
        spec = self.ops[i % len(self)]
        if spec[0] in ("box", "cotens"):
            return spec[0] + complex_repr(spec[1]) + complex_repr(spec[3])
        if spec[0] == "window":
            return "window" + complex_repr(spec[1]) + repr(spec[3])
        return "kronholm" + json.dumps(spec[1].to_json(), sort_keys=True)

    def output_repr(self, out) -> str:
        if isinstance(out, S.Decomposition):
            return json.dumps(out.to_json(), sort_keys=True)
        if isinstance(out, list):
            return json.dumps(out)
        dec, report = out
        return json.dumps([dec.to_json(), report.to_json()], sort_keys=True)

    def generators(self, i: int, out) -> int:
        spec = self.ops[i % len(self)]
        if spec[0] in ("box", "cotens"):
            return spec[1].num_gens() + spec[3].num_gens()
        if spec[0] == "window":
            return spec[1].num_gens()
        return 0

    def sizes(self) -> dict:
        kinds = Counter(spec[0] for spec in self.ops)
        return {"ops": dict(kinds), "max_strands": {"box": 4, "window": 6},
                "cells_per_script": self.CELLS}


# -- modules_odd --------------------------------------------------------------

ODD_KINDS = ("H", "STheta")        # the indecomposables at odd l


class ModulesOdd(Workload):
    """Module-file commands through ``cli.main`` at l = 2, 3, 5, and the
    odd splitter mod 3."""

    name = "modules_odd"
    ELLS = (2, 3, 5)
    PAIRS = 30              # module pairs per modulus
    SUMMANDS = 5            # indecomposable summands per module
    ODD_COMPLEXES = 100
    COMMANDS = ("classify", "box", "hom", "ext", "tor")
    trace_ops = 200

    def __len__(self) -> int:
        return len(self.ops)

    def setup(self) -> None:
        self.close()
        self.workdir = Path(tempfile.mkdtemp(prefix=".work-",
                                             dir=self.root / "bench"))
        rng = random.Random(f"{self.seed}:modules")
        # the summands (and so the dimensions and a pass's cost) come from
        # a design that is the same at every seed; the seed draws the
        # basis changes that scramble them
        design = random.Random("modules:design")
        self.dims: dict[int, list] = {}
        groups = []
        for ell in self.ELLS:
            kinds = M.KINDS if ell == 2 else ODD_KINDS
            cmds = []
            for j in range(self.PAIRS):
                paths, planted = [], []
                for side in "ab":
                    counts = Counter(design.choice(kinds)
                                     for _ in range(self.SUMMANDS))
                    m = M.random_scrambled_module(dict(counts), ell, rng)
                    path = self.workdir / f"l{ell}-{j}{side}.json"
                    path.write_text(json.dumps(m.to_json()))
                    paths.append(str(path))
                    planted.append(counts)
                    self.dims.setdefault(ell, []).append(
                        (m.dim_theta, m.dim_dot))
                a, b = (M.module_of_counts(dict(p), ell) for p in planted)
                want = {
                    "classify": {"counts": dict(planted[0])},
                    "box": {"counts": M.tor(a, b, 0)},
                    "hom": {"counts": M.ext(a, b, 0)},
                    "ext": {"ext": {str(i): M.ext(a, b, i) for i in range(3)}},
                    "tor": {"tor": {str(i): M.tor(a, b, i) for i in range(3)}},
                }
                for cmd in self.COMMANDS:
                    argv = ["module", cmd, "--ell", str(ell), paths[0]]
                    if cmd != "classify":
                        argv.append(paths[1])
                    cmds.append(("cli", argv, want[cmd], ell))
            groups.append(cmds)
        odd = []
        for _ in range(self.ODD_COMPLEXES):
            mods, maps, planted, lo = S.random_odd_complex(rng, 3)
            odd.append(("odd", mods, maps, lo, planted))
        groups.append(odd)
        self.ops = _interleave(groups)
        for i in range(len(self.ELLS) * len(self.COMMANDS)):   # warm-up
            self.op(i)

    def close(self) -> None:
        workdir = getattr(self, "workdir", None)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            self.workdir = None

    def op(self, i: int):
        spec = self.ops[i % len(self)]
        if spec[0] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = CLI.main(spec[1])
            return code, buf.getvalue()
        _, mods, maps, lo, _ = spec
        return S.split_odd_mackey(mods, maps, 3, lo)

    def oracle(self, i: int, out) -> bool:
        spec = self.ops[i % len(self)]
        if spec[0] == "cli":
            code, text = out
            return code == 0 and json.loads(text) == spec[2]
        return Counter(out) == spec[4]

    def input_repr(self, i: int, out) -> str:
        spec = self.ops[i % len(self)]
        if spec[0] == "cli":
            files = [Path(p).read_text() for p in spec[1][4:]]
            return repr(spec[1][:4]) + "".join(files)
        _, mods, maps, lo, _ = spec
        return json.dumps([lo, [m.to_json() for m in mods],
                           [[f.f_theta.to_rows(), f.f_dot.to_rows()]
                            for f in maps]])

    def output_repr(self, out) -> str:
        if isinstance(out, tuple):
            return repr(out)
        return repr(strands_repr(out))

    def sizes(self) -> dict:
        return {"ells": list(self.ELLS),
                "summands_per_module": self.SUMMANDS,
                "mean_dim_theta_dot": {
                    str(ell): [round(sum(d[k] for d in v) / len(v), 2)
                               for k in (0, 1)]
                    for ell, v in self.dims.items()},
                "odd_complexes_mod_3": self.ODD_COMPLEXES}


WORKLOADS = {cls.name: cls for cls in
             (FuzzCorpus, LargeComplex, DerivedProducts, ModulesOdd)}
