"""Self-test of the benchmark, on every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that the digest repeats across fresh set-ups and under tracing,
that a clean run has no failed rows, and that a deliberately corrupted
trace is counted as a failed row.  Exits 0 when every check holds.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracing import Tracer
from workloads import WORKLOADS


def _corrupt_first_trace(tl):
    """Make the next simulated trace give one task twice its rate in one
    slice, which breaks work conservation; returns an undo function."""
    original = tl.engine.simulate
    state = {"done": False}

    def simulate(*args, **kwargs):
        trace = original(*args, **kwargs)
        if not state["done"]:
            for i, (t0, t1, alloc) in enumerate(trace.slices):
                if alloc:
                    tid = min(alloc)
                    trace.slices[i] = (t0, t1, {**alloc, tid: 2 * alloc[tid]})
                    state["done"] = True
                    break
        return trace

    tl.engine.simulate = tl.cli.simulate = simulate

    def undo():
        tl.engine.simulate = tl.cli.simulate = original
    return undo


def check(name, workdir: Path) -> list:
    workload = WORKLOADS[name](tiny=True)
    errors = []
    digests = []
    for k in range(2):
        _, tl, units = run.set_up(workload, 5, workdir / f"plain{k}")
        plain = run.measure(workload, tl, units, 0)
        digests.append(plain.digest)
        if plain.failed or plain.problems:
            errors.append(f"{name}: clean run failed {plain.failed} rows: {plain.problems[:3]}")
    tracer = Tracer(tl)
    tracer.install()
    try:
        traced = run.measure(workload, tl, units, 0, tracer.set_row)
    finally:
        tracer.uninstall()
    digests.append(traced.digest)
    if len(set(digests)) != 1:
        errors.append(f"{name}: digests differ: {digests}")
    if not tracer.metrics()["engine.slices"]:
        errors.append(f"{name}: the traced pass recorded no slices")
    undo = _corrupt_first_trace(tl)
    try:
        corrupted = run.measure(workload, tl, units, 0)
    finally:
        undo()
    if corrupted.failed < 1:
        errors.append(f"{name}: a corrupted trace was not counted as a failed row")
    print(f"{name}: digest {digests[0][:16]} rows {plain.rows} "
          f"corrupted-run failures {corrupted.failed}")
    return errors


def main() -> int:
    if not (run.SRC / "taplab" / "__init__.py").is_file():
        print(f"error: no taplab source under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        errors = [e for name in WORKLOADS for e in check(name, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    for error in errors:
        print("FAIL " + error)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
