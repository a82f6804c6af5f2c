"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out FILE] [--replay I]

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` times a closed loop of operations (one client) for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the workload's fixed trace prefix and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before
it, prefixed ``bench-meta``, records the environment, seed, input sizes,
tail percentile and sample count, and the ``seed:index`` of every failed
operation; ``--replay I`` re-runs operation I alone and reports its
verdict.  ``--out FILE`` appends the whole record to a JSON-lines file for
``bench/compare.py``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_PASSES = 2
IMPORT_REPEATS = 5
PROBE_S = 0.05          # wall time between two host-speed probes
CAL_NOMINAL_S = 0.0017  # a typical calibrate() time on the reference host

GF2 = ("rref", "mul", "kernel_basis", "solve_many", "from_rows", "hstack",
       "vstack", "submatrix", "transpose", "kron")
SELF_MS = ([f"gf2core.{f}" for f in GF2] + [
    "gf2core.rref_odd",
    "complexes.realize", "complexes.validate_complex",
    "complexes.box_complex", "complexes.cotens_H", "complexes.hom_delta",
    "complexes.cone", "complexes.validate_chain_map",
    "split.split", "split.random_legal_moves", "split.verify_certificate",
    "split.certificate_isos", "split.split_odd_mackey",
    "mackey.classify", "mackey.box", "mackey.internal_hom",
    "mackey.validate_module",
    "derived.cohomology_window", "kronholm.kronholm_split", "cli.main"])
CALLS = ([f"gf2core.{f}" for f in GF2]
         + ["complexes.realize", "split.split", "split.apply_move"])


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum (p100)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now, with the collector off.

    The loop does what the library does most (dict updates, big-int xor,
    tuple sorting) and nothing of the library itself, so a change to the
    library cannot change it; its time tracks the speed the host lends
    the process at this moment (bench/README.md, *Host noise*)."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    rows: list[tuple[int, int]] = []
    acc = 0
    for i in range(3000):
        k = (i * 7919) % 1031
        d[k] = d.get(k, 0) ^ (1 << (i % 61))
        rows.append((k, i & 7))
        if len(rows) > 64:
            rows.sort()
            acc ^= sum(r[0] for r in rows[:8])
            rows = rows[32:]
    for v in d.values():
        acc ^= v.bit_length() + bin(v).count("1")
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class HostClock:
    """Wall times scaled to the host's speed at the time they were taken.

    Inside ``with HostClock() as clock:`` a ``SIGALRM`` timer runs
    ``calibrate()`` every ``PROBE_S`` of wall time, in the main thread
    between two bytecodes of whatever runs then, and records when it
    started and how long it took.  ``record(key, t0, t1)`` keeps one
    interval of ``time.perf_counter()``; ``scaled()`` turns each into its
    wall time less the probes run inside it, multiplied by
    ``CAL_NOMINAL_S`` over the mean probe time from the last probe before
    it to the first after it.  A time then reads what it would have taken
    had the host run at the calibration loop's nominal speed, however long
    the interval and however the host's speed moved during it."""

    def __init__(self):
        self.probe_t: list[float] = []
        self.probe_s: list[float] = []
        self.intervals: list = []
        self._busy = False
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()                   # an alarm still pending runs here
        signal.signal(signal.SIGALRM, self._old)

    def _probe(self, *_):
        if self._busy:                  # a late alarm during a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        self.probe_s.append(calibrate())
        self.probe_t.append(t0)
        self._busy = False

    def record(self, key, t0: float, t1: float) -> None:
        self.intervals.append((key, t0, t1))

    def scaled(self) -> dict:
        """{key: [scaled seconds of each of its intervals]}."""
        cum = [0.0]
        for dt in self.probe_s:
            cum.append(cum[-1] + dt)
        out: dict = {}
        last = len(self.probe_t)
        for key, t0, t1 in self.intervals:
            i = bisect.bisect_left(self.probe_t, t0)
            j = bisect.bisect_left(self.probe_t, t1)
            lo, hi = max(i - 1, 0), min(j + 1, last)
            speed = (cum[hi] - cum[lo]) / (hi - lo)
            own = t1 - t0 - (cum[j] - cum[i])
            out.setdefault(key, []).append(own * CAL_NOMINAL_S / speed)
        return out


def run_setup(cls, seed: int):
    """Build the workload ``SETUP_REPEATS`` times from the seed; returns the
    last instance and the median scaled set-up time."""
    wl = None
    with HostClock() as clock:
        for r in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            t0 = time.perf_counter()
            wl = cls(seed, ROOT)
            wl.setup()
            clock.record(r, t0, time.perf_counter())
    return wl, statistics.median(s for (s,) in clock.scaled().values())


def attempt(wl, i: int, call):
    """Run op i through ``call`` and check it; returns (start, end, output,
    ok, error text), the op's start and end by ``time.perf_counter()``.
    Exceptions are counted, never raised."""
    t0 = time.perf_counter()
    try:
        out = call(wl.op, i)
    except Exception:                  # noqa: BLE001 - a failure is a count
        return t0, time.perf_counter(), None, False, traceback.format_exc()
    t1 = time.perf_counter()
    try:
        ok = wl.check(i, out)
    except Exception:                  # noqa: BLE001
        return t0, t1, out, False, traceback.format_exc()
    return t0, t1, out, ok, None if ok else "oracle rejected the output"


def _direct(fn, i):
    return fn(i)


def timed_run(wl, seconds: float, seed: int):
    """Closed loop over whole passes of the workload's inputs: the next op
    starts when the previous one is checked.  Passes go on while another
    one fits in ``seconds`` (at least ``MIN_PASSES``).  Op times are
    scaled to the host's speed while they ran (``HostClock``), because
    that speed swings by tens of percent (bench/README.md), and each
    input's time is the median of its passes; a failure makes the input's
    time infinite, so it misses every latency limit."""
    n = len(wl)
    bad: set[int] = set()
    failures, gens = [], [0] * n
    with HostClock() as clock:
        t_start = time.perf_counter()
        i = last = 0
        while (i < MIN_PASSES * n
               or time.perf_counter() - t_start + last <= seconds):
            t_pass = time.perf_counter()
            for k in range(n):
                t0, t1, out, ok, err = attempt(wl, i, _direct)
                if ok:
                    clock.record(k, t0, t1)
                    gens[k] = wl.generators(i, out)
                else:
                    bad.add(k)
                    failures.append(f"{seed}:{i}")
                    print(f"op {seed}:{i} failed: {err}", file=sys.stderr)
                i += 1
            last = time.perf_counter() - t_pass
    samples = clock.scaled()
    per_input = [math.inf if k in bad else statistics.median(samples[k])
                 for k in range(n)]
    ok_times = [x for x in per_input if x != math.inf]
    p_tail, pct = tail(per_input)
    metrics = {
        "op_p50_ms": metric(statistics.median(per_input) * 1e3, "ms"),
        "op_tail_ms": metric(p_tail * 1e3, "ms"),
        "ops_per_s": metric(len(ok_times) / sum(ok_times) if ok_times else 0.0,
                            "1/s"),
        "ops_ok_ratio": metric(len(ok_times) / n, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0, "MB"),
    }
    info = {"inputs": n, "passes": i / n, "tail_percentile": pct,
            "generators_per_op": statistics.mean(gens)}
    return i, failures, metrics, info


def import_ms() -> float:
    """Median wall time of a fresh interpreter importing ``c2mackey.cli``,
    minus that of a bare interpreter."""
    pre = f"import sys; sys.path.insert(0, {str(SRC)!r})"
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for code, acc in ((pre, bare), (pre + "; import c2mackey.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
            acc.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def layer_metrics(self_s: dict, calls, counts, n: int) -> dict:
    """Per-layer metrics of one traced pass of n operations."""
    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = metric(self_s.get(name, 0.0) * 1e3 / n, "ms/op")
    for name in CALLS:
        out[f"{name}.calls"] = metric(calls[name], "count")
    hc = calls["complexes.homology_counts"]
    cells = counts["kronholm.cells"]
    moves = counts["split.random_legal_moves.moves"]
    requested = counts["split.random_legal_moves.requested"]
    rlm_s = self_s.get("split.random_legal_moves", 0.0)
    out.update({
        "gf2core.rref.cells": metric(counts["gf2core.rref.cells"], "count"),
        "complexes.realize.calls_per_homology": metric(
            calls["realize_in_homology"] / hc if hc else 0.0, "ratio"),
        "split.certificate_moves_per_op": metric(
            counts["split.certificate_moves"] / n, "count/op"),
        "split.random_legal_moves.moves": metric(moves, "count"),
        "split.random_legal_moves.us_per_move": metric(
            rlm_s * 1e6 / moves if moves else 0.0, "us"),
        "split.random_legal_moves.yield": metric(
            moves / requested if requested else 0.0, "ratio"),
        "derived.cohomology_window.lattice_points": metric(
            counts["derived.cohomology_window.lattice_points"], "count"),
        "kronholm.splits_per_cell": metric(
            calls["split_in_kronholm"] / cells if cells else 0.0, "ratio"),
    })
    return out


EXACT = ("calls", "cells", "calls_per_homology", "generators_per_op",
         "certificate_moves_per_op", "moves", "yield", "lattice_points",
         "splits_per_cell")


def traced_run(wl, seconds: float, seed: int):
    """Alternate an untraced and a traced pass over the trace prefix while
    another pair fits in ``seconds`` (at least one pair).  Times are raw
    wall time, the best over the passes; counts must repeat exactly in
    every pass."""
    from tracing import Tracer

    tracer = Tracer()

    def traced_call(fn, i):
        return tracer.run_op(i, fn, i)

    n = wl.trace_ops
    untraced, traced, per_pass = [], [], []
    failures, unstable, attempted = [], [], 0
    inputs = hashlib.sha256()
    outputs = hashlib.sha256()
    gens = 0
    t_start = time.perf_counter()
    first = True
    last = 0.0
    while first or time.perf_counter() - t_start + last <= seconds:
        t_pair = time.perf_counter()
        for tracing in (False, True):
            if tracing:
                tracer.clear()
                tracer.install()
            call = traced_call if tracing else _direct
            total = 0.0
            try:
                for i in range(n):
                    t0, t1, out, ok, err = attempt(wl, i, call)
                    attempted += 1
                    total += t1 - t0
                    if not ok:
                        failures.append(f"{seed}:{i}")
                        print(f"op {seed}:{i} failed: {err}", file=sys.stderr)
                    elif tracing and first:
                        inputs.update(wl.input_repr(i, out).encode())
                        outputs.update(wl.output_repr(out).encode())
                        gens += wl.generators(i, out)
            finally:
                if tracing:
                    tracer.uninstall()
            (traced if tracing else untraced).append(total)
        self_s, calls = tracer.summary()
        per_pass.append(layer_metrics(self_s, calls, tracer.counts, n))
        first = False
        last = time.perf_counter() - t_pair
    metrics = {}
    for name, m in per_pass[0].items():
        values = [p[name]["value"] for p in per_pass]
        if name.rsplit(".", 1)[-1] in EXACT:
            if len(set(values)) != 1:
                unstable.append(name)
            metrics[name] = m
        else:
            metrics[name] = metric(min(values), m["unit"])
    metrics["complexes.generators_per_op"] = metric(gens / n, "count/op")
    metrics["cli.import_ms"] = metric(import_ms(), "ms")
    metrics["trace.overhead_ratio"] = metric(
        min(traced) / min(untraced), "ratio")
    info = {"trace_ops": n, "passes": len(traced),
            "input_digest": inputs.hexdigest()[:16],
            "output_digest": outputs.hexdigest()[:16],
            "counts_changed_between_passes": unstable}
    return attempted, failures, metrics, info


def listed_metrics(workload: str, trace: int) -> set[str] | None:
    """Names of the metrics ``BENCHMARK.json`` lists for this kind of run,
    or None when it does not run this workload (every metric is printed
    then: ``large_complex`` reports the layers only it reaches)."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def replay(wl, index: int, seed: int) -> int:
    t0, t1, out, ok, err = attempt(wl, index, _direct)
    print(json.dumps({"op": f"{seed}:{index}", "ok": ok, "seconds": t1 - t0,
                      "input": wl.input_repr(index, out)[:2000]
                      if out is not None else None}))
    if err:
        print(err, file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result record to this file")
    p.add_argument("--replay", type=int, metavar="I",
                   help="run operation I alone and report its verdict")
    args = p.parse_args(argv)

    if not (SRC / "c2mackey" / "__init__.py").is_file():
        print(f"error: no c2mackey sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl, setup_s = run_setup(cls, args.seed)
    try:
        if args.replay is not None:
            return replay(wl, args.replay, args.seed)
        if args.trace:
            attempted, failures, metrics, info = traced_run(
                wl, args.seconds, args.seed)
        else:
            attempted, failures, metrics, info = timed_run(
                wl, args.seconds, args.seed)
            metrics["setup_s"] = metric(setup_s, "s")
    finally:
        wl.close()
    listed = listed_metrics(args.workload, args.trace)
    if listed is not None:
        metrics = {k: v for k, v in metrics.items() if k in listed}
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": wl.sizes(), **info, "failures": failures,
    }
    for m in metrics.values():          # a failed input's infinite time
        if not math.isfinite(m["value"]):
            m["value"] = sys.float_info.max
    correct = not failures and not info.get("counts_changed_between_passes")
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"meta": meta, **result}) + "\n")
    print("bench-meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
