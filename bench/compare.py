"""Compare two sets of benchmark results.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds records appended by ``bench/run.py --out``.  For every
(metric, workload) pair present in both, the script prints the median of
each side, the relative delta, and a flag: ``WORSE`` when an end-to-end
metric got worse by more than its bound in ``BENCHMARK.json``, ``CHANGED``
when a per-layer count that must repeat exactly differs.  Every record of
NEW that failed an operation or is not ``correct`` is flagged ``FAILED``.
Exit status 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import EXACT  # noqa: E402


def load(path: str) -> tuple[dict[tuple[str, str], list[float]], list[str]]:
    """(metric values per (metric, workload), failed records as
    ``workload seed``)."""
    out: dict[tuple[str, str], list[float]] = {}
    failed = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            wl = rec["meta"]["workload"]
            if rec["failed"] or not rec["correct"]:
                failed.append(f"{wl} seed {rec['meta']['seed']}")
            for name, m in rec["metrics"].items():
                out.setdefault((name, wl), []).append(m["value"])
    return out, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    old, _ = load(argv[0])
    new, failed = load(argv[1])
    for rec in failed:
        print(f"FAILED {rec}: an operation failed or a count changed")
    flagged = len(failed)
    print(f"{'metric':45s} {'workload':17s} {'old':>12s} {'new':>12s} "
          f"{'delta':>8s}")
    for key in sorted(old.keys() & new.keys()):
        name, wl = key
        a, b = statistics.median(old[key]), statistics.median(new[key])
        delta = (b - a) / a if a else (0.0 if a == b else float("inf"))
        flag = ""
        if name in e2e:
            worse = delta if e2e[name]["better"] == "lower" else -delta
            if worse > e2e[name]["bound"]:
                flag = "WORSE"
        elif (name in layer and name.rsplit(".", 1)[-1] in EXACT
              and a != b):
            flag = "CHANGED"
        flagged += bool(flag)
        print(f"{name:45s} {wl:17s} {a:12.4g} {b:12.4g} {delta:+8.1%} {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
