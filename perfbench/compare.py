"""Compare the saved results of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records that ``perfbench/run.py`` wrote to
``.perfbench_out/`` for one commit.  For every workload and metric the
script prints the median of each side and, for end-to-end metrics, the
change as a share of the base median against the bound in
BENCHMARK.json.  It lists seeds whose digests differ, and refuses to
compare results taken with different rational backends.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-t[01].json"))]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["provenance"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"error: results from different rational backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    values = defaultdict(lambda: ([], []))
    digests = defaultdict(lambda: (set(), set()))
    for side, records in enumerate((base, new)):
        for r in records:
            prov = r["provenance"]
            digests[prov["workload"], prov["seed"]][side].add(r["digest"])
            if not r["correct"]:
                print(f"warning: incorrect run {prov['workload']} seed {prov['seed']} "
                      f"side {'base new'.split()[side]}")
            for name, metric in r["metrics"].items():
                values[prov["workload"], name][side].append(metric["value"])
    print(f"backend {backends.pop()}")
    for (workload, name), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        line = f"{workload:13s} {name:28s} base {ma:12.6g} ({len(a)})  new {mb:12.6g} ({len(b)})"
        if name in bounds and ma:
            better, bound = bounds[name]
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            verdict = "REGRESSION" if worse > bound else "ok"
            line += f"  worse by {worse:+.1%} (bound {bound:.0%}) {verdict}"
        print(line)
    for (workload, seed), (a, b) in sorted(digests.items()):
        if a and b and a != b:
            print(f"digest differs: {workload} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
