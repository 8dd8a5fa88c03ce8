"""Acceptance battery: twelve named criteria covering the oracles, the
awake-time and mean-response-time schedulers, the lower-bound families,
the dependency-aware scheduler, and end-to-end determinism.

Every criterion returns a :class:`CriterionResult` carrying a pass/fail
flag, a human-readable detail line, and a digest of all numeric outcomes
so that a re-run can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass

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
from .core import Decision, InvalidArgumentError, TAP, Task, metrics_from_trace
from .dtap import TurtleScheduler, dtap_opt_upper_levels, turtle_parallel_work_bound
from .engine import EngineConfig, SchedCommands, Scheduler, simulate, validate_trace
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
    return int(os.environ.get("TAPLAB_SEED", "0"))


# --- scheduler registry (shared with the CLI) -------------------------------

def _golden_oracle(tasks, p):
    return opt_awake_exhaustive(TAP(p, tuple(tasks)))[0]


#: name -> (factory, default budget factor, needs allow_cancel)
SCHEDULERS = {
    "bal": (BalScheduler, 1, False),
    "unk": (UnkScheduler, 1, False),
    "mwf-all-serial": (AllSerialScheduler, 1, False),
    "mwf-all-parallel": (AllParallelScheduler, 1, False),
    "golden": (lambda: GoldenAlg(_golden_oracle), 1, False),
    "equi": (EquiScheduler, 1, False),
    "rigid": (RigidScheduler, 1, False),
    "sss": (SssScheduler, 2, False),
    "canc": (CancScheduler, 2, True),
    "bsched": (BScheduler, 2, True),
    "csched": (CScheduler, 4, False),
    "turtle": (TurtleScheduler, 1, False),
}


def make_scheduler(name: str) -> Scheduler:
    if name not in SCHEDULERS:
        raise InvalidArgumentError(f"unknown scheduler {name!r}")
    return SCHEDULERS[name][0]()


def run_config(name: str, p: int, factor=None, speed=ONE) -> EngineConfig:
    """The engine configuration of a registry scheduler on p processors:
    a budget of ``factor`` (default: the registry's) times p, and
    cancellation exactly when the scheduler needs it."""
    _, default_factor, needs_cancel = SCHEDULERS[name]
    factor = default_factor if factor is None else factor
    return EngineConfig(speed=speed, processor_budget=Rat(factor) * p,
                        allow_cancel=needs_cancel)


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
    """Shared state for one battery pass."""

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

    def validated(self, trace, tap, config=None) -> bool:
        report = validate_trace(trace, tap, config)
        self.traces += 1
        self.violations += len(report.violations)
        return report.ok

    def digest(self) -> str:
        return self.hasher.hexdigest()


def _fail(lines: list, limit: int = 3) -> str:
    return "; ".join(str(w) for w in lines[:limit])


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

def crit_a1(ctx: _Ctx) -> CriterionResult:
    """Exhaustive oracle equals the discretized brute-force oracle."""
    t0 = time.time()
    bad = []
    count = 0
    for i, tap in enumerate(_grid_corpus(ctx.seed), start=1):
        exact, _ = opt_awake_exhaustive(tap)
        gridded = grid_opt(tap, "awake", Rat(1, tap.p))
        ctx.note("a1", i, rat_str(exact), rat_str(gridded))
        if exact != gridded:
            bad.append((i, rat_str(exact), rat_str(gridded)))
        count += 1
    return CriterionResult(
        "A1", "oracle cross-validation", not bad,
        f"{count} instances, {len(bad)} mismatches" + (": " + _fail(bad) if bad else ""),
        time.time() - t0, ctx.digest(),
    )


def crit_a2_a3(ctx: _Ctx):
    """Balance-test scheduler ratio <= 3 with its invariant; oblivious
    scheduler ratio <= 6 plus the half-awake unsaturated-time bound."""
    t0 = time.time()
    bad2, bad3 = [], []
    n_sub = 0
    for idx, tap in enumerate(_awake_corpus(ctx.seed)):
        opt, _ = opt_awake_exhaustive(tap)
        bal = BalScheduler()
        trace = simulate(tap, bal)
        if not ctx.validated(trace, tap):
            bad2.append((idx, "invalid trace"))
        awake = metrics_from_trace(trace, tap).awake
        if awake > 3 * opt:
            bad2.append((idx, "ratio", rat_str(awake / opt)))
        if not all(flag for _, flag in bal.balanced):
            bad2.append((idx, "balance broken"))
        ctx.note("a2", idx, rat_str(awake), rat_str(opt))

        utrace = simulate(tap, UnkScheduler())
        if not ctx.validated(utrace, tap):
            bad3.append((idx, "invalid trace"))
        uawake = metrics_from_trace(utrace, tap).awake
        if uawake > 6 * opt:
            bad3.append((idx, "ratio", rat_str(uawake / opt)))
        ctx.note("a3", idx, rat_str(uawake))
        # never-idle sub-corpus: tasks present from 0 to the last completion
        end = max(utrace.completions.values())
        if min(t.arrival for t in tap.tasks) == 0 and uawake == end:
            n_sub += 1
            unsat = sum(
                (b - a for a, b, alloc in utrace.slices
                 if sum(alloc.values(), ZERO) < tap.p),
                ZERO,
            )
            if 2 * unsat > uawake:
                bad3.append((idx, "unsaturated", rat_str(unsat), rat_str(uawake)))
    elapsed = time.time() - t0
    r2 = CriterionResult(
        "A2", "balance-test scheduler ratio <= 3", not bad2,
        f"1000 instances, {len(bad2)} failures" + (": " + _fail(bad2) if bad2 else ""),
        elapsed / 2, ctx.digest(),
    )
    r3 = CriterionResult(
        "A3", "oblivious scheduler ratio <= 6", not bad3,
        f"1000 instances ({n_sub} never-idle), {len(bad3)} failures"
        + (": " + _fail(bad3) if bad3 else ""),
        elapsed / 2, ctx.digest(),
    )
    return r2, r3


def crit_a4(ctx: _Ctx) -> CriterionResult:
    """Adaptive golden-ratio adversary forces ratio >= phi - 1/p."""
    t0 = time.time()
    p = 100
    bound = PHI - Rat(1, p) - Rat(1, 100)
    bad = []
    for name in ("bal", "unk", "mwf-all-serial", "mwf-all-parallel"):
        adv = GoldenAdversary(p)
        trace = simulate(TAP(p, ()), make_scheduler(name), adversary=adv)
        tap = TAP(p, tuple(trace.injected))
        if not ctx.validated(trace, tap):
            bad.append((name, "invalid trace"))
        awake = metrics_from_trace(trace, tap).awake
        opt = opt_awake_given_decisions(tap, adv.witness_decisions())
        ratio = awake / opt
        ctx.note("a4", name, rat_str(ratio))
        if ratio < bound:
            bad.append((name, rat_str(ratio)))
    return CriterionResult(
        "A4", "golden-ratio lower bound at p=100", not bad,
        f"4 schedulers, bound {float(bound):.4f}"
        + (": " + _fail(bad) if bad else ""),
        time.time() - t0, ctx.digest(),
    )


def crit_a5(ctx: _Ctx) -> CriterionResult:
    """Geometric-instance arithmetic at p=16."""
    t0 = time.time()
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
    trace = simulate(tap, AllParallelScheduler())
    if not ctx.validated(trace, tap):
        bad.append(("all-parallel", "invalid trace"))
    awake = metrics_from_trace(trace, tap).awake
    lower = Rat(2) ** k * (2 - Rat(k, p)) - 1 - n * EPS
    ctx.note("a5", "allpar", rat_str(awake))
    if awake < lower:
        bad.append(("all-parallel", rat_str(awake), rat_str(lower)))
    return CriterionResult(
        "A5", "geometric instance arithmetic at p=16", not bad,
        f"{k} prefixes + all-parallel tail" + (": " + _fail(bad) if bad else ""),
        time.time() - t0, ctx.digest(),
    )


def crit_a6_a7(ctx: _Ctx):
    """Cancelling scheduler completeness and pool-age exactness; the
    concentrated variant's one-per-type and fast-parallel guarantees."""
    t0 = time.time()
    bad6, bad7 = [], []
    for idx, tap in enumerate(_pow2_corpus(ctx.seed)):
        cfg = run_config("canc", tap.p)
        canc = CancScheduler()
        trace = simulate(tap, canc, cfg)
        if not ctx.validated(trace, tap, cfg):
            bad6.append((idx, "invalid trace"))
        if set(trace.completions) != {t.id for t in tap.tasks}:
            bad6.append((idx, "missing completions"))
        for tid, age in canc.pool_ages:
            if age != tap.task(tid).sigma:
                bad6.append((idx, "pool age", tid, rat_str(age)))
        ctx.note("a6", idx, len(trace.cancellations),
                 rat_str(max(trace.completions.values(), default=ZERO)))

        bcfg = run_config("bsched", tap.p)
        btrace = simulate(tap, BScheduler(), bcfg)
        if not ctx.validated(btrace, tap, bcfg):
            bad7.append((idx, "invalid trace"))
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
    elapsed = time.time() - t0
    r6 = CriterionResult(
        "A6", "cancelling scheduler properties", not bad6,
        f"1000 instances, {len(bad6)} failures" + (": " + _fail(bad6) if bad6 else ""),
        elapsed / 2, ctx.digest(),
    )
    r7 = CriterionResult(
        "A7", "one-per-type concentration properties", not bad7,
        f"1000 instances, {len(bad7)} failures" + (": " + _fail(bad7) if bad7 else ""),
        elapsed / 2, ctx.digest(),
    )
    return r6, r7


def _run_c(tap, ctx, bad, idx):
    """Run csched on ``tap`` and check its ballistic machinery; returns
    (trace, mode records)."""
    sched = CScheduler()
    config = run_config("csched", tap.p)
    trace = simulate(tap, sched, config)
    if not ctx.validated(trace, tap, config):
        bad.append((idx, "invalid trace"))
    if trace.cancellations:
        bad.append((idx, "cancellation"))
    if set(trace.completions) != {t.id for t in tap.tasks}:
        bad.append((idx, "missing completions"))
    records = sched.mode_records
    stolen = sched.stolen
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
    return trace, records


def crit_a8(ctx: _Ctx) -> CriterionResult:
    """Non-cancelling scheduler properties plus the crafted trigger corpus."""
    t0 = time.time()
    bad = []
    n_modes = n_bal = n_semi = 0
    crafted = c_trigger_corpus()
    for idx, tap in enumerate(crafted):
        trace, records = _run_c(tap, ctx, bad, ("crafted", idx))
        if records:
            n_modes += 1
        n_bal += sum(1 for r in records if r.mode == "ballistic")
        n_semi += sum(1 for r in records if r.mode == "semi-ballistic")
        ctx.note("a8", idx, len(records), rat_str(max(trace.completions.values())))
    if n_modes < 20:
        bad.append(("crafted corpus", "only", n_modes, "instances with mode records"))
    if n_bal == 0 or n_semi == 0:
        bad.append(("crafted corpus", "missing a mode", n_bal, n_semi))
    for idx, tap in enumerate(_pow2_corpus(ctx.seed, count=300)):
        trace, _ = _run_c(tap, ctx, bad, ("random", idx))
        ctx.note("a8r", idx, rat_str(max(trace.completions.values(), default=ZERO)))
    return CriterionResult(
        "A8", "non-cancelling scheduler properties", not bad,
        f"{len(crafted)} crafted ({n_bal} ballistic, {n_semi} semi-ballistic entries)"
        f" + 300 random, {len(bad)} failures" + (": " + _fail(bad) if bad else ""),
        time.time() - t0, ctx.digest(),
    )


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


def crit_a9(ctx: _Ctx) -> CriterionResult:
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
    t0 = time.time()
    bad = []
    equi_ratios = []
    for q in (2, 4, 8):
        p = q ** 4
        tap = gen_mrt_cheap_expensive(p, seed=ctx.seed)
        lb = opt_trt_lower(tap)
        wtrace = simulate(tap, _CheapExpensiveWitness())
        if not ctx.validated(wtrace, tap):
            bad.append((p, "invalid witness trace"))
        wtrt = metrics_from_trace(wtrace, tap).trt
        if wtrt > 4 * lb:
            bad.append((p, "witness ratio", rat_str(wtrt / lb)))
        etrace = simulate(tap, EquiScheduler())
        if not ctx.validated(etrace, tap):
            bad.append((p, "invalid equi trace"))
        etrt = metrics_from_trace(etrace, tap).trt
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
    return CriterionResult(
        "A9", "serial-awareness separation", not bad,
        "equi ratios " + ", ".join(f"{float(r):.2f}" for r in equi_ratios)
        + (": " + _fail(bad) if bad else ""),
        time.time() - t0, ctx.digest(),
    )


def crit_a10(ctx: _Ctx) -> CriterionResult:
    """Preemption separation: the zero-work flood hurts only the rigid
    baseline."""
    t0 = time.time()
    # large p keeps the injected flood negligible for the lower bound and
    # for any preemptive scheduler, isolating the non-preemption penalty
    probe = TAP(100, (Task(0, ONE, Rat(100), ZERO),))
    h = opt_trt_lower(probe)
    bad = []
    ratios = {}
    for name in ("rigid", "equi"):
        for R in (10, 100):
            adv = NonPreemptiveAdversary(R, probe, h)
            trace = simulate(probe, make_scheduler(name), adversary=adv)
            tap = TAP(probe.p, probe.tasks + tuple(trace.injected))
            if not ctx.validated(trace, tap):
                bad.append((name, R, "invalid trace"))
            trt = metrics_from_trace(trace, tap).trt
            ratios[(name, R)] = trt / opt_trt_lower(tap)
            ctx.note("a10", name, R, rat_str(ratios[(name, R)]))
    if ratios[("rigid", 100)] < 5 * ratios[("rigid", 10)]:
        bad.append(("rigid growth", rat_str(ratios[("rigid", 100)] / ratios[("rigid", 10)])))
    lo, hi = sorted([ratios[("equi", 10)], ratios[("equi", 100)]])
    if hi > 2 * lo:
        bad.append(("equi drift", rat_str(hi / lo)))
    return CriterionResult(
        "A10", "preemption separation", not bad,
        f"rigid {float(ratios[('rigid', 10)]):.1f}->{float(ratios[('rigid', 100)]):.1f}, "
        f"equi {float(ratios[('equi', 10)]):.2f}->{float(ratios[('equi', 100)]):.2f}"
        + (": " + _fail(bad) if bad else ""),
        time.time() - t0, ctx.digest(),
    )


def crit_a11(ctx: _Ctx) -> CriterionResult:
    """Dependency-aware bounds: level witness <= 2 and the square-root
    envelope for the two-bucket scheduler."""
    t0 = time.time()
    bad = []
    import math

    for p in (16, 64, 256):
        tap = gen_dtap_levels(p, seed=ctx.seed)
        wtrace, upper = dtap_opt_upper_levels(tap)
        if not ctx.validated(wtrace, tap):
            bad.append((p, "invalid witness trace"))
        if upper > 2:
            bad.append((p, "witness awake", rat_str(upper)))
        trace = simulate(tap, TurtleScheduler())
        if not ctx.validated(trace, tap):
            bad.append((p, "invalid trace"))
        awake = metrics_from_trace(trace, tap).awake
        ratio = awake / upper
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
        trace = simulate(tap, TurtleScheduler())
        if not ctx.validated(trace, tap):
            bad.append(("dtap", i, "invalid trace"))
        if set(trace.completions) == {t.id for t in tap.tasks}:
            n_ok += 1
        ctx.note("a11r", i, rat_str(max(trace.completions.values(), default=ZERO)))
    if n_ok < 200:
        bad.append(("dtap corpus", "incomplete runs", 200 - n_ok))
    return CriterionResult(
        "A11", "dependency-aware bounds", not bad,
        f"3 level instances + 200 random, {len(bad)} failures"
        + (": " + _fail(bad) if bad else ""),
        time.time() - t0, ctx.digest(),
    )


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


def _run_pass(seed: int):
    ctx = _Ctx(seed)
    results = []
    for _, fn in _CRITERIA:
        out = fn(ctx)
        results.extend(out if isinstance(out, tuple) else (out,))
    return ctx, results


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
        ctx = _Ctx(seed)
        for label, fn in _CRITERIA:
            if wanted in label.split("+"):
                out = fn(ctx)
                results = list(out if isinstance(out, tuple) else (out,))
                return [r for r in results if r.name == wanted] or results
        raise InvalidArgumentError(f"unknown criterion {only!r}")
    t0 = time.time()
    ctx, results = _run_pass(seed)
    ctx2, _ = _run_pass(seed)
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
