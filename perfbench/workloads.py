"""The benchmark workloads: instance generation and checked rows.

A row is one (instance, scheduler) pair: simulate, ``validate_trace``,
``metrics_from_trace`` and the oracle or bound columns, as one row of
``taplab sweep``.  Every row is checked exactly; a row fails on an
exception, a validator violation, an unfinished task or a broken bound.

Each workload is built from the seed alone into a list of units, the
steps of the measured loop.  Everything taplab-specific is reached through ``tl``, a namespace of the
imported taplab modules, so that set-up can import taplab afresh.
"""

from __future__ import annotations

import csv
import io
import os
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

PS = (4, 8, 16)
DISTS = ("uniform", "extremes", "pow2")
ARRIVALS = ("batch", "poisson", "bursty")

#: scheduler -> (module, class, processor budget as a multiple of p, cancel);
#: the workloads name their own budgets rather than rely on where taplab
#: keeps its scheduler registry
SCHEDULERS = {
    "bal": ("sched_awake", "BalScheduler", 1, False),
    "unk": ("sched_awake", "UnkScheduler", 1, False),
    "equi": ("sched_mrt", "EquiScheduler", 1, False),
    "rigid": ("sched_mrt", "RigidScheduler", 1, False),
    "sss": ("sched_mrt", "SssScheduler", 2, False),
    "canc": ("sched_mrt", "CancScheduler", 2, True),
    "bsched": ("sched_mrt", "BScheduler", 2, True),
    "csched": ("sched_mrt", "CScheduler", 4, False),
    "turtle": ("dtap", "TurtleScheduler", 1, False),
}
#: competitive bound on awake time over the exhaustive optimum
AWAKE_RATIO = {"bal": 3, "unk": 6}


@dataclass
class UnitResult:
    text: str  # exact results, hashed into the workload digest
    rows: int
    failed: int
    latencies_ms: list
    problems: list = field(default_factory=list)


def no_row(row) -> None:
    pass


def _gen(tl, seed, p, n, dist, arrival):
    return tl.adversary.gen_random(tl.adversary.GenParams(
        p=p, n=n, seed=seed, ratio_distribution=dist, arrival_pattern=arrival))


def run_row(tl, label, tap, sched) -> tuple:
    """(exact result text, problems) of one checked row."""
    module, cls, factor, cancel = SCHEDULERS[sched]
    rat_str = tl.rationals.rat_str
    config = tl.engine.EngineConfig(
        processor_budget=tl.rationals.Rat(factor * tap.p), allow_cancel=cancel)
    scheduler = getattr(getattr(tl, module), cls)()
    trace = tl.engine.simulate(tap, scheduler, config)
    report = tl.engine.validate_trace(trace, tap, config)
    metrics = tl.core.metrics_from_trace(trace, tap)
    problems = list(report.violations)
    if set(trace.completions) != {t.id for t in tap.tasks}:
        problems.append("unfinished tasks")
    lb = "-"
    if not tap.has_deps:
        bound = tl.oracle.opt_trt_lower(tap)
        lb = rat_str(bound)
        if metrics.trt < bound:
            problems.append(f"trt {rat_str(metrics.trt)} < lower bound {lb}")
    done = ",".join(f"{tid}:{rat_str(at)}" for tid, at in sorted(trace.completions.items()))
    text = f"{label}|{sched}|{rat_str(metrics.awake)}|{rat_str(metrics.trt)}|{lb}|{done}\n"
    return text, problems


def _timed_rows(tl, rows, set_row) -> UnitResult:
    result = UnitResult("", 0, 0, [])
    for label, tap, sched in rows:
        set_row(f"{label}/{sched}")
        t0 = time.perf_counter()
        try:
            text, problems = run_row(tl, label, tap, sched)
        except Exception as exc:  # a failed row is counted, the run goes on
            traceback.print_exc()
            text, problems = f"{label}|{sched}|error\n", [f"{type(exc).__name__}: {exc}"]
        result.latencies_ms.append(1000 * (time.perf_counter() - t0))
        result.text += text
        result.rows += 1
        if problems:
            result.failed += 1
            result.problems.append(f"{label}/{sched}: {problems[0]}")
    return result


# --- sweep-awake ----------------------------------------------------------------

class SweepAwake:
    """In-process ``taplab sweep --dir <dir> --schedulers bal,unk
    --oracle both --jobs 2`` over an A2-style random corpus.

    The corpus is six batches of one instance of every n in 1..10; over
    the batches every n meets each p, ratio distribution and arrival
    pattern twice.  The seed sets the works and arrivals.  Each instance
    sits in its own directory and is one sweep call, so that units are
    short and their fastest repetitions are taken at a fine grain.
    """

    name = "sweep-awake"
    schedulers = ("bal", "unk")

    def __init__(self, tiny=False):
        self.batches = 1 if tiny else 6
        self.ns = range(1, 5) if tiny else range(1, 11)

    def build(self, tl, seed, workdir) -> list:
        units = []
        for b in range(self.batches):
            for n in self.ns:
                tap = _gen(tl, seed * 1_000_003 + b * 100 + n,
                           PS[(n + b) % 3], n,
                           DISTS[(n + 2 * b) % 3], ARRIVALS[(n + b // 2) % 3])
                inst_dir = os.path.join(workdir, f"b{b:02d}-n{n:02d}")
                os.makedirs(inst_dir)
                label = f"i{n:02d}.json"
                with open(os.path.join(inst_dir, label), "w") as fh:
                    fh.write(tl.core.tap_to_json(tap))
                units.append((inst_dir, [label]))
        return units

    def run_unit(self, tl, unit, set_row=no_row) -> UnitResult:
        sweep_dir, labels = unit
        out = sweep_dir + ".csv"
        expected = [(label, s) for label in labels for s in self.schedulers]
        t0 = time.perf_counter()
        try:
            code = tl.cli.main([
                "sweep", "--dir", sweep_dir, "--schedulers", ",".join(self.schedulers),
                "--oracle", "both", "--jobs", "2", "-o", out,
            ])
            with open(out) as fh:
                text = fh.read()
        except Exception as exc:  # the whole sweep call failed
            traceback.print_exc()
            n = len(expected)
            return UnitResult(f"{sweep_dir}|error\n", n, n, [],
                              [f"{os.path.basename(sweep_dir)}: {type(exc).__name__}: {exc}"])
        elapsed_ms = 1000 * (time.perf_counter() - t0)
        problems = [] if code == 0 else [f"sweep exit code {code}"]
        rows = list(csv.DictReader(io.StringIO(text)))
        if [(r.get("instance"), r.get("scheduler")) for r in rows] != expected:
            problems.append("sweep rows do not match the instances")
        failed = 0
        for row in rows:
            bad = check_sweep_row(row)
            if bad:
                failed += 1
                problems.append(f"{row.get('instance')}/{row.get('scheduler')}: {bad}")
        if problems and not failed:
            failed = len(expected)
        return UnitResult(text, len(expected), failed, [elapsed_ms / len(expected)], problems)


def check_sweep_row(row) -> str | None:
    """First broken check of one sweep CSV row, or None."""
    try:
        if row["violations"]:
            return row["violations"]
        awake, opt = Fraction(row["awake"]), Fraction(row["opt_awake"])
        trt, lb = Fraction(row["trt"]), Fraction(row["trt_lb"])
    except (KeyError, ValueError):
        return "missing result column"
    if awake < opt:
        return f"awake {awake} below the optimum {opt}"
    ratio = AWAKE_RATIO.get(row["scheduler"])
    if ratio is not None and awake > ratio * opt:
        return f"awake {awake} above {ratio} x optimum {opt}"
    if trt < lb:
        return f"trt {trt} below the lower bound {lb}"
    return None


# --- corpus-small ----------------------------------------------------------------

class CorpusSmall:
    """Many short rows, where per-run fixed costs dominate: 300
    power-of-two instances (n <= 12) under six MRT schedulers, and 100
    random DTAPs under turtle.  The only workload with cancellations and
    dependency gating."""

    name = "corpus-small"
    schedulers = ("canc", "bsched", "csched", "sss", "rigid", "equi")

    def __init__(self, tiny=False):
        self.count = 12 if tiny else 300

    def build(self, tl, seed, workdir) -> list:
        units = []
        for i in range(self.count):
            tap = _gen(tl, seed * 2_000_003 + i, PS[(i // 12) % 3], 1 + i % 12,
                       "pow2", ARRIVALS[(i // 36) % 3])
            units.append([(f"pow2-{i}", tap, s) for s in self.schedulers])
            if i % 3 == 2:
                k = i // 3
                dtap = tl.adversary.gen_random_dtap(tl.adversary.GenParams(
                    p=(4, 16)[k % 2], n=1 + k % 8, seed=seed * 3_000_017 + k))
                units.append([(f"dtap-{k}", dtap, "turtle")])
        return units

    def run_unit(self, tl, unit, set_row=no_row) -> UnitResult:
        return _timed_rows(tl, unit, set_row)


WORKLOADS = {w.name: w for w in (SweepAwake, CorpusSmall)}
