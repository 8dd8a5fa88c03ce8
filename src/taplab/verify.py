"""The scheduler registry, the one run path, and the acceptance battery.

:func:`run` simulates a registry scheduler (or a scheduler instance) on a
TAP, replays what an adversary injected and validates the trace; the
CLI and the battery make every run through it.

The battery has twelve named criteria covering the oracles, the
awake-time and mean-response-time schedulers, the lower-bound families,
the dependency-aware scheduler, and end-to-end determinism.  A criterion
function returns one ``(name, title, failures, summary)`` per criterion
it decides, and :func:`_decide` turns each into a :class:`CriterionResult`
carrying a pass/fail flag, a human-readable detail line, and a digest of
all numeric outcomes so that a re-run can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from functools import cached_property

from .adversary import (
    GenParams,
    GoldenAdversary,
    NonPreemptiveAdversary,
    c_trigger_corpus,
    gen_dtap_levels,
    gen_geometric,
    gen_mrt_cheap_expensive,
    gen_random,
    gen_random_dtap,
)
from . import engine
from .core import (Decision, InvalidArgumentError, Metrics, TAP, Task,
                   metrics_from_trace)
from .dtap import TurtleScheduler, dtap_opt_upper_levels, turtle_parallel_work_bound
from .engine import EngineConfig, SchedCommands, Scheduler, Trace, validate_trace
from .oracle import (
    opt_awake_exhaustive,
    opt_awake_given_decisions,
    opt_trt_lower,
    grid_opt,
)
from .rationals import Rat, ZERO, ONE, PHI, EPS, rat_str
from .sched_awake import (
    AllParallelScheduler,
    AllSerialScheduler,
    BalScheduler,
    GoldenAlg,
    UnkScheduler,
)
from .sched_mrt import (
    BScheduler,
    CScheduler,
    CancScheduler,
    EquiScheduler,
    RigidScheduler,
    SssScheduler,
)


def default_seed() -> int:
    """``TAPLAB_SEED``, or 0 when it is not set."""
    text = os.environ.get("TAPLAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"TAPLAB_SEED must be an integer, got {text!r}") from None


# --- scheduler registry (shared with the CLI) -------------------------------

#: name -> scheduler class; each class declares its run configuration and
#: input class (see ``engine.Scheduler``)
SCHEDULERS = {cls.name: cls for cls in (
    BalScheduler, UnkScheduler, AllSerialScheduler, AllParallelScheduler, GoldenAlg,
    EquiScheduler, RigidScheduler, SssScheduler, CancScheduler, BScheduler, CScheduler,
    TurtleScheduler,
)}


def make_scheduler(name: str) -> Scheduler:
    if name not in SCHEDULERS:
        raise InvalidArgumentError(f"unknown scheduler {name!r}")
    return SCHEDULERS[name]()


def run_config(name: str, p: int, factor=None, speed=ONE) -> EngineConfig:
    """The engine configuration of a registry scheduler on p processors:
    a budget of ``factor`` (default: the class's ``budget_factor``) times
    p, and cancellation exactly when the class ``cancels``."""
    cls = SCHEDULERS[name]
    factor = cls.budget_factor if factor is None else factor
    return EngineConfig(speed=speed, processor_budget=Rat(factor) * p,
                        allow_cancel=cls.cancels)


# --- one run ----------------------------------------------------------------

@dataclass
class Run:
    """One simulated run.  ``tap`` is the TAP that was played: the given
    tasks followed by every task an adversary injected."""

    tap: TAP
    scheduler: Scheduler
    config: EngineConfig
    trace: Trace

    @cached_property
    def violations(self) -> list:
        """The validator's findings, computed when first read."""
        return validate_trace(self.trace, self.tap, self.config).violations

    @property
    def complete(self) -> bool:
        """Every task of the played TAP finished."""
        return all(t.id in self.trace.completions for t in self.tap.tasks)

    def metrics(self) -> Metrics:
        """Awake time, TRT and MRT; ``IncompleteTraceError`` unless complete."""
        return metrics_from_trace(self.trace, self.tap)


def run(scheduler, tap: TAP, factor=None, speed=ONE, adversary=None) -> Run:
    """Simulate ``scheduler`` on ``tap``, against ``adversary`` if given.

    A registry name runs on its :func:`run_config` under ``factor`` and
    ``speed``; a :class:`Scheduler` instance runs on ``EngineConfig()``.
    """
    if isinstance(scheduler, str):
        name = scheduler
        scheduler = make_scheduler(name)
        config = run_config(name, tap.p, factor, speed)
    else:
        config = EngineConfig()
    # read off the engine module at call time, so that a wrapper put on
    # ``engine.simulate`` sees every run
    trace = engine.simulate(tap, scheduler, config, adversary)
    if trace.injected:
        tap = TAP(tap.p, tap.tasks + tuple(trace.injected))
    return Run(tap, scheduler, config, trace)


# --- battery plumbing --------------------------------------------------------

@dataclass
class CriterionResult:
    name: str
    title: str
    passed: bool
    detail: str
    elapsed: float
    digest: str


@dataclass
class _Ctx:
    """Shared state for one battery pass: the outcome digest, and the
    validated traces and their violations that A12 reports."""

    seed: int
    hasher: object = None
    traces: int = 0
    violations: int = 0

    def __post_init__(self):
        self.hasher = hashlib.sha256()

    def note(self, *parts) -> None:
        for part in parts:
            self.hasher.update(str(part).encode())
            self.hasher.update(b"|")

    def run(self, scheduler, tap, bad: list, *label, **kw) -> Run:
        """:func:`run`, counted; an invalid trace appends
        ``(*label, "invalid trace")`` to ``bad``."""
        done = run(scheduler, tap, **kw)
        self.count(done.violations, bad, *label)
        return done

    def count(self, violations: list, bad: list, *label) -> None:
        """Count one validated trace and its violations."""
        self.traces += 1
        self.violations += len(violations)
        if violations:
            bad.append((*label, "invalid trace"))

    def digest(self) -> str:
        return self.hasher.hexdigest()


def _decide(ctx: _Ctx, fn) -> list:
    """The CriterionResults of one criterion function: its time split
    evenly among the criteria it decides, each detail line followed by
    up to three failures, each stamped with the pass's digest so far."""
    t0 = time.time()
    decided = fn(ctx)
    elapsed = (time.time() - t0) / len(decided)
    digest = ctx.digest()
    return [
        CriterionResult(
            name, title, not bad,
            summary + (": " + "; ".join(str(w) for w in bad[:3]) if bad else ""),
            elapsed, digest,
        )
        for name, title, bad, summary in decided
    ]


# --- corpora -----------------------------------------------------------------

def _awake_corpus(seed: int, count: int = 1000):
    """Random TAPs with n <= 10, p in {4,8,16}, mixed arrival patterns."""
    for i in range(count):
        rng = random.Random((seed, "awake", i).__repr__())
        yield gen_random(
            GenParams(
                p=rng.choice([4, 8, 16]),
                n=rng.randint(1, 10),
                ratio_distribution=rng.choice(["uniform", "extremes", "pow2"]),
                arrival_pattern=rng.choice(["batch", "poisson", "bursty"]),
                seed=seed * 1_000_003 + i,
            )
        )


def _grid_corpus(seed: int, count: int = 100):
    """Tiny TAPs (n <= 3, p <= 4, integer works and arrivals) that the grid
    oracle solves exactly on the 1/p grid."""
    for i in range(count):
        rng = random.Random((seed, "a1", i).__repr__())
        p = rng.choice([2, 3, 4])
        tasks = []
        for tid in range(rng.randint(1, 3)):
            sigma = rng.randint(1, 8)
            pi = rng.randint(sigma, 8)
            tasks.append(Task(tid, Rat(sigma), Rat(pi), Rat(rng.randint(0, 4))))
        yield TAP(p, tuple(tasks))


def _pow2_corpus(seed: int, count: int = 1000):
    """Random power-of-two-rounded TAPs with n <= 12."""
    for i in range(count):
        rng = random.Random((seed, "pow2", i).__repr__())
        yield gen_random(
            GenParams(
                p=rng.choice([4, 8, 16]),
                n=rng.randint(1, 12),
                ratio_distribution="pow2",
                arrival_pattern=rng.choice(["batch", "poisson", "bursty"]),
                seed=seed * 2_000_003 + i,
            )
        )


# --- criteria ----------------------------------------------------------------
#
# A criterion function returns one (name, title, failures, summary) per
# criterion it decides; see _decide.

def crit_a1(ctx: _Ctx) -> list:
    """Exhaustive oracle equals the discretized brute-force oracle."""
    bad = []
    count = 0
    for i, tap in enumerate(_grid_corpus(ctx.seed), start=1):
        exact, _ = opt_awake_exhaustive(tap)
        gridded = grid_opt(tap, "awake", Rat(1, tap.p))
        ctx.note("a1", i, rat_str(exact), rat_str(gridded))
        if exact != gridded:
            bad.append((i, rat_str(exact), rat_str(gridded)))
        count += 1
    return [("A1", "oracle cross-validation", bad,
             f"{count} instances, {len(bad)} mismatches")]


def crit_a2_a3(ctx: _Ctx) -> list:
    """Balance-test scheduler ratio <= 3 with its invariant; oblivious
    scheduler ratio <= 6 plus the half-awake unsaturated-time bound."""
    bad2, bad3 = [], []
    n_sub = 0
    for idx, tap in enumerate(_awake_corpus(ctx.seed)):
        opt, _ = opt_awake_exhaustive(tap)
        bal = ctx.run("bal", tap, bad2, idx)
        awake = bal.metrics().awake
        if awake > 3 * opt:
            bad2.append((idx, "ratio", rat_str(awake / opt)))
        if not all(flag for _, flag in bal.scheduler.balanced):
            bad2.append((idx, "balance broken"))
        ctx.note("a2", idx, rat_str(awake), rat_str(opt))

        unk = ctx.run("unk", tap, bad3, idx)
        uawake = unk.metrics().awake
        if uawake > 6 * opt:
            bad3.append((idx, "ratio", rat_str(uawake / opt)))
        ctx.note("a3", idx, rat_str(uawake))
        # never-idle sub-corpus: tasks present from 0 to the last completion
        end = max(unk.trace.completions.values())
        if min(t.arrival for t in tap.tasks) == 0 and uawake == end:
            n_sub += 1
            unsat = sum(
                (b - a for a, b, alloc in unk.trace.slices
                 if sum(alloc.values(), ZERO) < tap.p),
                ZERO,
            )
            if 2 * unsat > uawake:
                bad3.append((idx, "unsaturated", rat_str(unsat), rat_str(uawake)))
    return [
        ("A2", "balance-test scheduler ratio <= 3", bad2,
         f"1000 instances, {len(bad2)} failures"),
        ("A3", "oblivious scheduler ratio <= 6", bad3,
         f"1000 instances ({n_sub} never-idle), {len(bad3)} failures"),
    ]


def crit_a4(ctx: _Ctx) -> list:
    """Adaptive golden-ratio adversary forces ratio >= phi - 1/p."""
    p = 100
    bound = PHI - Rat(1, p) - Rat(1, 100)
    bad = []
    for name in ("bal", "unk", "mwf-all-serial", "mwf-all-parallel"):
        adv = GoldenAdversary(p)
        done = ctx.run(name, TAP(p, ()), bad, name, adversary=adv)
        awake = done.metrics().awake
        opt = opt_awake_given_decisions(done.tap, adv.witness_decisions())
        ratio = awake / opt
        ctx.note("a4", name, rat_str(ratio))
        if ratio < bound:
            bad.append((name, rat_str(ratio)))
    return [("A4", "golden-ratio lower bound at p=100", bad,
             f"4 schedulers, bound {float(bound):.4f}")]


def crit_a5(ctx: _Ctx) -> list:
    """Geometric-instance arithmetic at p=16."""
    p = 16
    tap = gen_geometric(p)
    k = p.bit_length() - 1
    n = tap.n
    bad = []
    for j in range(1, k + 1):
        prefix = TAP(p, tap.tasks[:j])
        opt, _ = opt_awake_exhaustive(prefix)
        bound = (1 + Rat(2, p)) * Rat(2) ** (j - 1) + n * EPS
        ctx.note("a5", j, rat_str(opt))
        if opt > bound:
            bad.append((j, rat_str(opt), rat_str(bound)))
    awake = ctx.run("mwf-all-parallel", tap, bad, "all-parallel").metrics().awake
    lower = Rat(2) ** k * (2 - Rat(k, p)) - 1 - n * EPS
    ctx.note("a5", "allpar", rat_str(awake))
    if awake < lower:
        bad.append(("all-parallel", rat_str(awake), rat_str(lower)))
    return [("A5", "geometric instance arithmetic at p=16", bad,
             f"{k} prefixes + all-parallel tail")]


def crit_a6_a7(ctx: _Ctx) -> list:
    """Cancelling scheduler completeness and pool-age exactness; the
    concentrated variant's one-per-type and fast-parallel guarantees."""
    bad6, bad7 = [], []
    for idx, tap in enumerate(_pow2_corpus(ctx.seed)):
        canc = ctx.run("canc", tap, bad6, idx)
        if not canc.complete:
            bad6.append((idx, "missing completions"))
        for tid, age in canc.scheduler.pool_ages:
            if age != tap.task(tid).sigma:
                bad6.append((idx, "pool age", tid, rat_str(age)))
        ctx.note("a6", idx, len(canc.trace.cancellations),
                 rat_str(max(canc.trace.completions.values(), default=ZERO)))

        btrace = ctx.run("bsched", tap, bad7, idx).trace
        types = {t.id: (t.sigma, t.pi) for t in tap.tasks}
        for a, b, alloc in btrace.slices:
            seen = set()
            for tid in alloc:
                if tid in btrace.decisions and btrace.decisions[tid][0] is Decision.PARALLEL:
                    ttype = types[tid]
                    if ttype in seen:
                        bad7.append((idx, "two parallel of one type", ttype))
                    seen.add(ttype)
        for tid, finish in btrace.completions.items():
            if btrace.decisions[tid][0] is Decision.PARALLEL:
                if finish - tap.task(tid).arrival > tap.task(tid).sigma:
                    bad7.append((idx, "slow parallel completion", tid))
        ctx.note("a7", idx, rat_str(max(btrace.completions.values(), default=ZERO)))
    return [
        ("A6", "cancelling scheduler properties", bad6,
         f"1000 instances, {len(bad6)} failures"),
        ("A7", "one-per-type concentration properties", bad7,
         f"1000 instances, {len(bad7)} failures"),
    ]


def _run_c(tap, ctx, bad, idx) -> Run:
    """Run csched on ``tap`` and check its ballistic machinery."""
    done = ctx.run("csched", tap, bad, idx)
    if done.trace.cancellations:
        bad.append((idx, "cancellation"))
    if not done.complete:
        bad.append((idx, "missing completions"))
    records = done.scheduler.mode_records
    stolen = done.scheduler.stolen
    intervals = []
    for rec in records:
        task = tap.task(rec.task_id)
        if rec.mode == "ballistic":
            if rec.exited is None or rec.exited - rec.entered > 2 * task.sigma:
                bad.append((idx, "ballistic episode too long", rec.task_id))
            intervals.append((rec, task))
        if rec.trigger == "inner-completed" and stolen.get(rec.task_id, ZERO) < 2 * task.pi:
            bad.append((idx, "stolen below threshold", rec.task_id))
    # concurrently-ballistic same-class tasks must have distinct sigma,
    # and the per-class reserves must stay within 2p
    for i, (ra, ta) in enumerate(intervals):
        for rb, tb in intervals[i + 1 :]:
            if ra.exited <= rb.entered or rb.exited <= ra.entered:
                continue
            if ta.pi / ta.sigma == tb.pi / tb.sigma and ta.sigma == tb.sigma:
                bad.append((idx, "same-size concurrent ballistic", ra.task_id, rb.task_id))
    points = sorted({r.entered for r, _ in intervals})
    for t in points:
        classes = {
            ta.pi / ta.sigma
            for ra, ta in intervals
            if ra.entered <= t < ra.exited
        }
        if sum(classes, ZERO) > 2 * tap.p:
            bad.append((idx, "reserve over budget", rat_str(t)))
    return done


def crit_a8(ctx: _Ctx) -> list:
    """Non-cancelling scheduler properties plus the crafted trigger corpus."""
    bad = []
    n_modes = n_bal = n_semi = 0
    crafted = c_trigger_corpus()
    for idx, tap in enumerate(crafted):
        done = _run_c(tap, ctx, bad, ("crafted", idx))
        records = done.scheduler.mode_records
        if records:
            n_modes += 1
        n_bal += sum(1 for r in records if r.mode == "ballistic")
        n_semi += sum(1 for r in records if r.mode == "semi-ballistic")
        ctx.note("a8", idx, len(records), rat_str(max(done.trace.completions.values())))
    if n_modes < 20:
        bad.append(("crafted corpus", "only", n_modes, "instances with mode records"))
    if n_bal == 0 or n_semi == 0:
        bad.append(("crafted corpus", "missing a mode", n_bal, n_semi))
    for idx, tap in enumerate(_pow2_corpus(ctx.seed, count=300)):
        done = _run_c(tap, ctx, bad, ("random", idx))
        ctx.note("a8r", idx, rat_str(max(done.trace.completions.values(), default=ZERO)))
    return [("A8", "non-cancelling scheduler properties", bad,
             f"{len(crafted)} crafted ({n_bal} ballistic, {n_semi} semi-ballistic entries)"
             f" + 300 random, {len(bad)} failures")]


class _CheapExpensiveWitness(Scheduler):
    """Serial-aware witness: fully-scalable unit tasks run in parallel
    under an equal split, unscalable ones serially on one processor."""

    name = "cheap-expensive-witness"

    def on_arrival(self, view, task):
        decision = Decision.PARALLEL if task.pi == task.sigma else Decision.SERIAL
        return SchedCommands(starts={task.id: decision})

    def allocate(self, view) -> dict:
        serial = [
            tid for tid in view.running_ids()
            if view.decision(tid) is Decision.SERIAL
        ]
        parallel = [
            tid for tid in view.running_ids()
            if view.decision(tid) is Decision.PARALLEL
        ]
        alloc = {tid: ONE for tid in serial}
        left = view.budget - len(serial)
        if parallel and left > 0:
            share = left / len(parallel)
            for tid in parallel:
                alloc[tid] = share
        return alloc


def crit_a9(ctx: _Ctx) -> list:
    """Serial-awareness separation for total response time.

    On the cheap/expensive family with p = q^4 (q^2 tasks with
    sigma = pi = 1 and q tasks with sigma = 1, pi = p, all at time 0)
    the outcomes have exact closed forms, checked with equality:

    - EQUI:        TRT = q^2 + 1 + 2/q  (cheap tasks end at (q^2+q)/p,
      then each expensive task does p - 1 more work at rate q^3);
    - lower bound: opt_trt_lower = q + 1/q^2  (the duration sum; the
      relaxed-SRPT term is smaller for q >= 2);
    - witness:     TRT = q + q^3/(q^3 - 1)  (expensive tasks serial,
      cheap tasks share the other p - q processors).

    Hence EQUI / lower bound = q + q/(q^2 - q + 1) lies in (q, q + 1],
    and EQUI / witness > q - 1, so EQUI is more than p^(1/4) - 1 times
    OPT: the Theta(p^(1/4)) gap of an oblivious scheduler.
    """
    bad = []
    equi_ratios = []
    for q in (2, 4, 8):
        p = q ** 4
        tap = gen_mrt_cheap_expensive(p, seed=ctx.seed)
        lb = opt_trt_lower(tap)
        wtrt = ctx.run(_CheapExpensiveWitness(), tap, bad, p, "witness").metrics().trt
        if wtrt > 4 * lb:
            bad.append((p, "witness ratio", rat_str(wtrt / lb)))
        etrt = ctx.run("equi", tap, bad, p, "equi").metrics().trt
        equi_ratios.append(etrt / lb)
        ctx.note("a9", p, rat_str(wtrt / lb), rat_str(etrt / lb))
        for label, got, want in (
            ("equi trt", etrt, q * q + 1 + Rat(2, q)),
            ("lower bound", lb, q + Rat(1, q * q)),
            ("witness trt", wtrt, q + Rat(q ** 3, q ** 3 - 1)),
        ):
            if got != want:
                bad.append((p, label, rat_str(got), "expected", rat_str(want)))
        if not q < etrt / lb <= q + 1:
            bad.append((p, "equi/lb outside (q, q+1]", rat_str(etrt / lb)))
        if etrt / wtrt <= q - 1:
            bad.append((p, "equi/witness not above q-1", rat_str(etrt / wtrt)))
    return [("A9", "serial-awareness separation", bad,
             "equi ratios " + ", ".join(f"{float(r):.2f}" for r in equi_ratios))]


def crit_a10(ctx: _Ctx) -> list:
    """Preemption separation: the zero-work flood hurts only the rigid
    baseline."""
    # large p keeps the injected flood negligible for the lower bound and
    # for any preemptive scheduler, isolating the non-preemption penalty
    probe = TAP(100, (Task(0, ONE, Rat(100), ZERO),))
    h = opt_trt_lower(probe)
    bad = []
    ratios = {}
    for name in ("rigid", "equi"):
        for R in (10, 100):
            adv = NonPreemptiveAdversary(R, probe, h)
            done = ctx.run(name, probe, bad, name, R, adversary=adv)
            ratios[(name, R)] = done.metrics().trt / opt_trt_lower(done.tap)
            ctx.note("a10", name, R, rat_str(ratios[(name, R)]))
    if ratios[("rigid", 100)] < 5 * ratios[("rigid", 10)]:
        bad.append(("rigid growth", rat_str(ratios[("rigid", 100)] / ratios[("rigid", 10)])))
    lo, hi = sorted([ratios[("equi", 10)], ratios[("equi", 100)]])
    if hi > 2 * lo:
        bad.append(("equi drift", rat_str(hi / lo)))
    return [("A10", "preemption separation", bad,
             f"rigid {float(ratios[('rigid', 10)]):.1f}->{float(ratios[('rigid', 100)]):.1f}, "
             f"equi {float(ratios[('equi', 10)]):.2f}->{float(ratios[('equi', 100)]):.2f}")]


def crit_a11(ctx: _Ctx) -> list:
    """Dependency-aware bounds: level witness <= 2 and the square-root
    envelope for the two-bucket scheduler."""
    bad = []
    import math

    for p in (16, 64, 256):
        tap = gen_dtap_levels(p, seed=ctx.seed)
        wtrace, upper = dtap_opt_upper_levels(tap)
        ctx.count(validate_trace(wtrace, tap).violations, bad, p, "witness")
        if upper > 2:
            bad.append((p, "witness awake", rat_str(upper)))
        ratio = ctx.run("turtle", tap, bad, p).metrics().awake / upper
        s = math.isqrt(p)
        if not (Rat(s, 8) <= ratio <= 3 * s):
            bad.append((p, "ratio outside envelope", rat_str(ratio)))
        ctx.note("a11", p, rat_str(upper), rat_str(ratio))
    n_ok = 0
    for i in range(200):
        rng = random.Random((ctx.seed, "a11", i).__repr__())
        tap = gen_random_dtap(
            GenParams(
                p=rng.choice([4, 16]),
                n=rng.randint(1, 8),
                seed=ctx.seed * 3_000_017 + i,
            )
        )
        if not turtle_parallel_work_bound(tap):
            bad.append(("dtap", i, "parallel-work inequality"))
        done = ctx.run("turtle", tap, bad, "dtap", i)
        if done.complete:
            n_ok += 1
        ctx.note("a11r", i, rat_str(max(done.trace.completions.values(), default=ZERO)))
    if n_ok < 200:
        bad.append(("dtap corpus", "incomplete runs", 200 - n_ok))
    return [("A11", "dependency-aware bounds", bad,
             f"3 level instances + 200 random, {len(bad)} failures")]


_CRITERIA = [
    ("A1", crit_a1),
    ("A2+A3", crit_a2_a3),
    ("A4", crit_a4),
    ("A5", crit_a5),
    ("A6+A7", crit_a6_a7),
    ("A8", crit_a8),
    ("A9", crit_a9),
    ("A10", crit_a10),
    ("A11", crit_a11),
]


def run_battery(seed: int | None = None, only: str | None = None):
    """Run the acceptance battery; returns a list of CriterionResult.

    The determinism criterion repeats the entire battery with the same
    seed and compares outcome digests byte for byte, so a full run costs
    two passes.  ``only`` restricts to a single criterion name (no
    determinism re-run in that case, so A12 is not one).
    """
    seed = default_seed() if seed is None else seed
    if only is not None:
        wanted = only.upper()
        if wanted == "A12":
            raise InvalidArgumentError("A12 compares two full battery passes, "
                                       "so it needs the full battery")
        for label, fn in _CRITERIA:
            if wanted in label.split("+"):
                return [r for r in _decide(_Ctx(seed), fn) if r.name == wanted]
        raise InvalidArgumentError(f"unknown criterion {only!r}")
    t0 = time.time()
    ctx = _Ctx(seed)
    results = [r for _, fn in _CRITERIA for r in _decide(ctx, fn)]
    ctx2 = _Ctx(seed)
    for _, fn in _CRITERIA:
        fn(ctx2)
    deterministic = ctx.digest() == ctx2.digest()
    clean = ctx.violations == 0 and ctx2.violations == 0
    results.append(
        CriterionResult(
            "A12", "determinism and validation", deterministic and clean,
            f"{ctx.traces + ctx2.traces} traces, {ctx.violations + ctx2.violations} "
            f"violations, digests {'match' if deterministic else 'DIFFER'}",
            time.time() - t0, ctx.digest(),
        )
    )
    return results


def format_results(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:4} {status}  {r.title}: {r.detail}  [{r.elapsed:.1f}s]")
    return "\n".join(lines)
