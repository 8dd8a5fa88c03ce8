"""Compare the gmpy2 and fractions rational backends on engine and
oracle workloads.

The backend is chosen at import time via TAPLAB_RATIONAL, so each
measurement runs in a subprocess, which imports taplab from this
checkout's ``src``.

    python3 benchmarks/bench_backends.py [--repeat 3]
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_WORKLOAD = r"""
import json, time
from taplab.adversary import GenParams, gen_random
from taplab.engine import EngineConfig, simulate
from taplab.oracle import opt_awake_exhaustive
from taplab.rationals import BACKEND
from taplab.sched_mrt import CScheduler
from taplab.rationals import Rat

taps = [
    gen_random(GenParams(p=16, n=12, ratio_distribution="pow2",
                         arrival_pattern="bursty", seed=s))
    for s in range(20)
]

t0 = time.perf_counter()
for tap in taps:
    simulate(tap, CScheduler(),
             EngineConfig(processor_budget=Rat(4 * tap.p)))
engine_s = time.perf_counter() - t0

small = [
    gen_random(GenParams(p=8, n=9, ratio_distribution="uniform",
                         arrival_pattern="poisson", seed=s))
    for s in range(10)
]
t0 = time.perf_counter()
for tap in small:
    opt_awake_exhaustive(tap)
oracle_s = time.perf_counter() - t0

print(json.dumps({"backend": BACKEND, "engine_s": engine_s,
                  "oracle_s": oracle_s}))
"""


def run_once(backend: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _WORKLOAD],
        env={"TAPLAB_RATIONAL": backend, "PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    for backend in ("gmpy2", "fractions"):
        best = None
        try:
            for _ in range(args.repeat):
                result = run_once(backend)
                if best is None or result["engine_s"] < best["engine_s"]:
                    best = result
        except subprocess.CalledProcessError as exc:
            print(f"{backend:9}  unavailable: {exc.stderr.strip().splitlines()[-1]}")
            continue
        print(
            f"{backend:9}  engine {best['engine_s']*1000:8.1f} ms"
            f"  oracle {best['oracle_s']*1000:8.1f} ms"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
