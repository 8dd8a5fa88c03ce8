"""taplab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-awake --seed 1 --seconds 60 --trace 0

With ``--trace 0`` the run repeats the workload's units for ``--seconds``,
sets the workload up again several times in between, and reports the
end-to-end metrics.
With ``--trace 1`` it alternates an untraced and a traced pass over the
units and reports the per-layer metrics.  Every row is checked exactly;
the first pass's exact results are hashed into a digest that depends on
the seed and the code only.  The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also saves a record with its provenance under
``.perfbench_out/``, which ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import COUNTS, LAYER_METRICS, Tracer
from workloads import WORKLOADS, UnitResult, no_row

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
MODULES = ("rationals", "core", "engine", "sched_awake", "sched_mrt", "dtap",
           "oracle", "adversary", "cli")
SETUPS = 11


def import_taplab() -> SimpleNamespace:
    """Import taplab from this checkout's ``src`` afresh."""
    for name in [m for m in sys.modules if m == "taplab" or m.startswith("taplab.")]:
        del sys.modules[name]
    tl = SimpleNamespace(**{m: importlib.import_module(f"taplab.{m}") for m in MODULES})
    if Path(tl.core.__file__).resolve().parent != SRC / "taplab":
        raise ImportError(f"taplab imported from {tl.core.__file__}, not from {SRC}")
    return tl


def set_up(workload, seed, workdir: Path) -> tuple:
    """(seconds, taplab, units) of one set-up: a fresh taplab import and
    the workload's instances, with their JSON files where it reads files."""
    t0 = time.perf_counter()
    tl = import_taplab()
    units = workload.build(tl, seed, str(workdir))
    return time.perf_counter() - t0, tl, units


@dataclass
class Pass:
    digest: str = ""
    rows: int = 0  # attempted, over every repetition
    failed: int = 0
    busy_s: float = 0.0
    unit_s: list = field(default_factory=list)  # fastest time of each unit
    unit_rows: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)  # fastest time of each row
    problems: list = field(default_factory=list)


def measure(workload, tl, units, seconds, set_row=no_row, tick=None) -> Pass:
    """Run every unit once, then keep cycling through the units until
    ``seconds`` have passed; a repeated unit must repeat its results.

    Each unit and row keeps its fastest repetition: on a shared machine,
    other processes only ever add time.  ``tick(elapsed)`` runs between
    units, outside the unit times."""
    n = len(units)
    first = [None] * n
    out = Pass(unit_s=[math.inf] * n, unit_rows=[0] * n)
    fastest = [None] * n
    start = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - start < seconds:
        k = i % n
        t0 = time.perf_counter()
        res: UnitResult = workload.run_unit(tl, units[k], set_row)
        took = time.perf_counter() - t0
        out.busy_s += took
        out.unit_s[k] = min(out.unit_s[k], took)
        out.unit_rows[k] = res.rows
        fastest[k] = res.latencies_ms if fastest[k] is None else [
            min(a, b) for a, b in zip(fastest[k], res.latencies_ms)]
        if first[k] is None:
            first[k] = res.text
        elif res.text != first[k]:
            res.failed = res.rows
            res.problems.append(f"unit {k}: results differ from the first pass")
        out.rows += res.rows
        out.failed += res.failed
        out.problems += res.problems
        i += 1
        if tick is not None:
            tick(time.perf_counter() - start)
    out.latencies_ms = [x for lat in fastest for x in lat]
    out.digest = hashlib.sha256("".join(first).encode()).hexdigest()
    return out


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def git_revision() -> str:
    """HEAD of the checkout's git repository, read without running git."""
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
    return "unknown"


def provenance(tl, args) -> dict:
    return {
        "backend": tl.rationals.BACKEND,
        "python": platform.python_version(),
        "git": git_revision(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def end_to_end(workload, tl, units, setup_s, args, workdir: Path) -> tuple:
    """Measure for ``--seconds``; the other set-ups are spread over the run
    so that their median samples the machine as the measurement does."""
    setups = [setup_s]

    def tick(elapsed):
        if len(setups) < SETUPS and elapsed >= len(setups) * args.seconds / SETUPS:
            rep_dir = workdir / f"setup{len(setups)}"
            setups.append(set_up(workload, args.seed, rep_dir)[0])
            shutil.rmtree(rep_dir, ignore_errors=True)

    run = measure(workload, tl, units, args.seconds, tick=tick)
    while len(setups) < SETUPS:
        tick(math.inf)
    lat = run.latencies_ms
    beyond = len(lat) - math.ceil(0.99 * len(lat))
    print(f"# row latency: median {statistics.median(lat):.6g} ms, p99 {percentile(lat, 99):.6g} ms "
          f"({len(lat)} samples, {beyond} beyond p99; not a bounded metric)")
    rows, busy = sum(run.unit_rows), sum(run.unit_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "rows_per_s": (rows / busy, "1/s",
                       f"{rows} rows in {busy:.3f} s, fastest repetition of each unit"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "ru_maxrss of the run"),
    }
    return run, [run.digest], metrics


def per_layer(workload, tl, units, args, workdir: Path) -> tuple:
    """Untraced and traced passes in pairs while another pair fits in
    ``seconds``; times are medians over the pairs, counts must repeat
    exactly."""
    pairs = []
    first_tracer = None
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start) * (len(pairs) + 1) / len(pairs) <= args.seconds:
        plain = measure(workload, tl, units, 0)
        tracer = Tracer(tl)
        tracer.install()
        try:
            tracer.set_row("setup")
            traced_units = workload.build(tl, args.seed, str(workdir / f"traced{len(pairs)}"))
            traced = measure(workload, tl, traced_units, 0, tracer.set_row)
        finally:
            tracer.uninstall()
        first_tracer = first_tracer or tracer
        pairs.append((plain, traced, tracer.metrics()))
    OUT.mkdir(exist_ok=True)
    first_tracer.write(OUT / f"{args.workload}-s{args.seed}-spans.jsonl.gz")
    run = Pass()
    digests = []
    for plain, traced, _ in pairs:
        for one in (plain, traced):
            run.rows += one.rows
            run.failed += one.failed
            run.problems += one.problems
            digests.append(one.digest)
    layers = [m for _, _, m in pairs]
    for name in COUNTS:
        if any(m[name] != layers[0][name] for m in layers):
            run.problems.append(f"count {name} differs between traced passes")
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [m[name] for m in layers]
        metrics[name] = (values[0] if name in COUNTS else statistics.median(values),
                         unit, f"{len(values)} traced passes")
    plain_s = [plain.busy_s for plain, _, _ in pairs]
    overhead = [traced.busy_s - plain.busy_s for plain, traced, _ in pairs]
    metrics["trace.pass_s"] = (statistics.median(plain_s), "s", "untraced pass")
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s",
                                   "traced minus untraced pass")
    return run, digests, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "taplab" / "__init__.py").is_file():
        print(f"error: no taplab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, tl, units = set_up(workload, args.seed, workdir / "setup0")
        if args.trace:
            run, digests, metrics = per_layer(workload, tl, units, args, workdir)
        else:
            run, digests, metrics = end_to_end(workload, tl, units, setup_s, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if len(set(digests)) != 1:
        run.problems.append("digests differ between passes")
    correct = run.failed == 0 and not run.problems
    prov = provenance(tl, args)
    print("# provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# digest sha256={digests[0]}")
    print(f"# rows attempted={run.rows} failed={run.failed} "
          f"error_rate={run.failed / max(run.rows, 1):.6f}")
    for problem in run.problems[:20]:
        print(f"# problem {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} ({note})")
    record = {
        "provenance": prov, "digest": digests[0], "correct": correct,
        "attempted": run.rows, "failed": run.failed, "problems": run.problems[:20],
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": run.rows, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
