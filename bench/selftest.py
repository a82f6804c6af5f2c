"""Determinism self-test of the benchmark.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

For every workload, two traced runs at one seed must report the same
input digest, the same output digest (every operation of the traced pass
gave the same output) and the same count metrics; a run at another seed
must report a different input digest.  The corpus counts
``split.random_legal_moves.moves`` and ``complexes.generators_per_op`` at
seed 1 are pinned in ``PINNED``: a change to the random generators that
shifts the corpus fails here, and has to update the pins and say so.
A full run takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import EXACT  # noqa: E402

WORKLOADS = ("fuzz_corpus", "large_complex", "derived_products", "modules_odd")

PINNED = {
    # workload: (split.random_legal_moves.moves, complexes.generators_per_op)
    # at seed 1; only fuzz_corpus runs the generator inside its operations
    "fuzz_corpus": (28945, 17.433333333333334),
    "large_complex": (0, 560.0),
    "derived_products": (0, 17.133333333333333),
    "modules_odd": (0, 0.0),
}


@lru_cache(maxsize=None)
def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """(meta, metrics) of a traced run with one pass pair."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, check=True)
    lines = proc.stdout.splitlines()
    meta = json.loads(lines[-2].removeprefix("bench-meta "))
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return meta, result["metrics"]


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if k.rsplit(".", 1)[-1] in EXACT}


def check_workload(name: str) -> None:
    meta1, m1 = traced(name, 1)
    meta2, m2 = traced(name, 1)
    meta3, _ = traced(name, 2)
    assert meta1["input_digest"] == meta2["input_digest"], name
    assert meta1["output_digest"] == meta2["output_digest"], name
    assert counts(m1) == counts(m2), name
    assert meta1["input_digest"] != meta3["input_digest"], name
    pinned = (m1["split.random_legal_moves.moves"]["value"],
              m1["complexes.generators_per_op"]["value"])
    assert pinned == PINNED[name], (name, pinned, PINNED[name])


def test_fuzz_corpus():
    check_workload("fuzz_corpus")


def test_large_complex():
    check_workload("large_complex")


def test_derived_products():
    check_workload("derived_products")


def test_modules_odd():
    check_workload("modules_odd")


if __name__ == "__main__":
    for wl in WORKLOADS:
        check_workload(wl)
        print(f"{wl}: deterministic")
