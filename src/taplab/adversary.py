"""Instance generators and adaptive adversaries.

Seeded random corpora plus the hand-built lower-bound families: the
golden-ratio adaptive adversary, geometric decide-on-arrival instances,
randomized two-block instances, the cheap/expensive MRT family,
level-structured DTAPs, and the zero-work flood adversary against
non-preemptive schedulers.  Every generator is a pure function of its
parameters and seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .core import Decision, InvalidArgumentError, TAP, Task, normalize_tap
from .engine import Adversary
from .oracle import opt_trt_lower
from .rationals import Rat, ZERO, ONE, PHI, SQRT3, EPS, is_power_of_two


@dataclass(frozen=True)
class GenParams:
    p: int
    n: int
    ratio_distribution: str = "uniform"  # uniform | extremes | pow2
    arrival_pattern: str = "batch"  # batch | poisson | bursty
    seed: int = 0


def _rand_rat(rng: random.Random, lo: Rat, hi: Rat) -> Rat:
    """Uniform-ish rational in [lo, hi] on a 1/8 grid."""
    lo, hi = Rat(lo), Rat(hi)
    steps = int((hi - lo) * 8)
    return lo + Rat(rng.randint(0, max(steps, 0)), 8)


def gen_random(params: GenParams) -> TAP:
    """Seeded random normalized TAP, serial works in [1, 16]."""
    lo, hi = ONE, Rat(16)
    rng = random.Random(params.seed)
    p = params.p
    raw = []
    now = ZERO
    for _ in range(params.n):
        if params.ratio_distribution == "pow2":
            sigma = Rat(2) ** rng.randint(0, 4)  # 1 .. 16
            ratio = Rat(2) ** rng.randint(0, (p - 1).bit_length() - 1 if p > 1 else 0)
        elif params.ratio_distribution == "extremes":
            sigma = _rand_rat(rng, lo, hi)
            ratio = Rat(p) if rng.random() < Rat(1, 2) else ONE
        elif params.ratio_distribution == "uniform":
            sigma = _rand_rat(rng, lo, hi)
            ratio = _rand_rat(rng, ONE, Rat(p))
        else:
            raise InvalidArgumentError(
                f"unknown ratio distribution {params.ratio_distribution!r}"
            )
        pi = sigma * ratio
        if params.arrival_pattern == "batch":
            arrival = ZERO
        elif params.arrival_pattern == "poisson":
            now += _rand_rat(rng, ZERO, Rat(4))
            arrival = now
        elif params.arrival_pattern == "bursty":
            if rng.random() < 0.3:
                now += Rat(rng.randint(1, 8))
            arrival = now
        else:
            raise InvalidArgumentError(
                f"unknown arrival pattern {params.arrival_pattern!r}"
            )
        raw.append((arrival, sigma, pi))
    raw.sort(key=lambda r: r[0])
    tasks = tuple(
        Task(i, sigma, pi, arrival) for i, (arrival, sigma, pi) in enumerate(raw)
    )
    tap = normalize_tap(TAP(p, tasks))
    tap.validate()
    return tap


# --- golden-ratio adaptive adversary ----------------------------------------

def golden_probe(p: int) -> TAP:
    """The golden-ratio probe: one task (sigma=phi, pi=p) at time 0."""
    return TAP(p, (Task(0, PHI, Rat(p), ZERO),))


class GoldenAdversary(Adversary):
    """Forces ratio >= phi - 1/p against any deterministic scheduler.

    Plays on ``golden_probe(p)``.  If the scheduler starts task 0 in
    parallel at some t0 < 1/phi, p-1 unparallelizable tasks of serial
    work phi - t0 arrive at that very instant; the offline witness then
    runs everything serially.
    """

    def __init__(self, p: int):
        self.p = p
        self.injected = False

    def on_event(self, view):
        if self.injected:
            return []
        if view.decision(0) is not Decision.PARALLEL:
            return []
        if view.now >= ONE / PHI:
            return []
        t0 = view.now
        self.injected = True
        sigma = PHI - t0
        return [
            Task(i, sigma, self.p * sigma, t0) for i in range(1, self.p)
        ]

    def witness_decisions(self) -> dict:
        """Decisions achieving the offline optimum for the emitted TAP."""
        if self.injected:
            return {i: Decision.SERIAL for i in range(self.p)}
        return {0: Decision.PARALLEL}


# --- fixed lower-bound families ---------------------------------------------

def gen_geometric(p: int) -> TAP:
    """Geometrically growing tasks that punish decide-on-arrival schedulers.

    k = floor(log2 p) tasks (sigma=2^i, pi=2^(i-1) p) at near-simultaneous
    arrivals i*eps, then p-k tasks (sigma=2^k, pi=2^k p) one eps later.
    """
    if p < 4:
        raise InvalidArgumentError(f"p must be >= 4, got {p}")
    k = p.bit_length() - 1
    tasks = []
    for i in range(1, k + 1):
        tasks.append(
            Task(i - 1, Rat(2) ** i, Rat(2) ** (i - 1) * p, i * EPS)
        )
    tail_arrival = (k + 1) * EPS
    for m in range(p - k):
        tasks.append(Task(k + m, Rat(2) ** k, Rat(2) ** k * p, tail_arrival))
    return TAP(p, tuple(tasks))


def gen_randlb(p: int, n_blocks: int, seed: int = 0) -> TAP:
    """Randomized two-variant blocks at times 10i.

    Each block is either a lone task (sigma=sqrt3+1, pi=2p) or the same
    task followed one unit later by p-1 tasks (sigma=sqrt3, pi=p*sqrt3).
    """
    if p < 4:
        raise InvalidArgumentError(f"p must be >= 4, got {p}")
    rng = random.Random(seed)
    tasks = []
    tid = 0
    for block in range(n_blocks):
        t = Rat(10 * block)
        tasks.append(Task(tid, SQRT3 + 1, Rat(2 * p), t))
        tid += 1
        if rng.random() < 0.5:  # variant B
            for _ in range(p - 1):
                tasks.append(Task(tid, SQRT3, p * SQRT3, t + 1))
                tid += 1
    return TAP(p, tuple(tasks))


def gen_mrt_cheap_expensive(p: int, seed: int = 0) -> TAP:
    """sqrt(p) cheap tasks (sigma=pi=1) and p^(1/4) expensive tasks
    (sigma=1, pi=p), all at time 0, order shuffled by seed."""
    q = math.isqrt(math.isqrt(max(p, 0)))  # floor(p^(1/4))
    if p < 16 or q ** 4 != p:
        raise InvalidArgumentError(f"p must be a fourth power >= 16, got {p}")
    rng = random.Random(seed)
    kinds = ["cheap"] * (q * q) + ["expensive"] * q
    rng.shuffle(kinds)
    tasks = tuple(
        Task(i, ONE, ONE if kind == "cheap" else Rat(p), ZERO)
        for i, kind in enumerate(kinds)
    )
    return TAP(p, tasks)


def gen_dtap_levels(p: int, seed: int = 0) -> TAP:
    """Level-structured DTAP: floor(sqrt(p)) levels of floor(sqrt(p)) tasks
    (sigma=1, pi=sqrt(p)); one seeded spawner per level is the sole
    dependency of the entire next level.  Requires a perfect-square p so
    that pi = sqrt(p) is exact."""
    s = math.isqrt(max(p, 0))
    if s * s != p or p < 4:
        raise InvalidArgumentError(f"p must be a perfect square >= 4, got {p}")
    rng = random.Random(seed)
    tasks = []
    prev_spawner = None
    for level in range(s):
        level_ids = list(range(level * s, (level + 1) * s))
        deps = frozenset() if prev_spawner is None else frozenset({prev_spawner})
        for tid in level_ids:
            tasks.append(Task(tid, ONE, Rat(s), ZERO, deps))
        prev_spawner = rng.choice(level_ids)
    tap = TAP(p, tuple(tasks))
    tap.validate()
    return tap


def gen_random_dtap(params: GenParams) -> TAP:
    """Seeded random DTAP: random works plus a random acyclic dependency
    graph (edges only from earlier ids, simultaneous arrivals)."""
    base = gen_random(replace(params, arrival_pattern="batch"))
    rng = random.Random(params.seed ^ 0x9E3779B9)
    tasks = []
    for i, t in enumerate(base.tasks):
        deps = frozenset()
        if i > 0 and rng.random() < 0.4:
            k = min(i, rng.randint(1, 2))
            deps = frozenset(rng.sample(range(i), k))
        tasks.append(Task(t.id, t.sigma, t.pi, t.arrival, deps))
    tap = TAP(base.p, tuple(tasks))
    tap.validate()
    return tap


# --- crafted triggers for the non-cancelling scheduler's exception modes ----

def gen_c_trigger(p: int, sigma_t, with_candidate: bool = True) -> TAP:
    """Instance forcing the non-cancelling scheduler into its exception modes.

    A target task (sigma_t, 4 sigma_t) shares the nested parallel budget
    with p/2 - 1 equal tasks (sigma_t, sigma_t), so every stand-in gets
    rate 1 and the target's stand-in is cancelled at age 3 sigma_t with
    the target still unfinished: one ballistic episode.  With the
    candidate, a tiny same-class task (sigma_t/32, sigma_t/8) arrives just
    inside the emergency window; its stand-in then owns the whole nested
    budget and parallel-completes before vesting resumes, forcing a
    semi-ballistic entry as well.
    """
    if p < 8 or p & (p - 1):
        raise InvalidArgumentError(f"p must be a power of two >= 8, got {p}")
    st = Rat(sigma_t)
    if not is_power_of_two(st):
        raise InvalidArgumentError(f"sigma_t must be a power of two, got {st}")
    tasks = [Task(0, st, 4 * st, ZERO)]
    tid = 1
    for _ in range(p // 2 - 1):
        tasks.append(Task(tid, st, st, ZERO))
        tid += 1
    if with_candidate:
        tasks.append(Task(tid, st / 32, st / 8, 3 * st + st / 64))
    return TAP(p, tuple(tasks))


def gen_c_trigger_mixed(p: int, sigma_t, ratio: int, fill_sigma) -> TAP:
    """Ballistic-only variant with distinct-size ratio-1 fillers.

    Target (sigma_t, ratio * sigma_t) plus three fillers of serial work
    fill_sigma * 2^i, each with pi = sigma.
    """
    st = Rat(sigma_t)
    tasks = [Task(0, st, st * ratio, ZERO)]
    for i in range(3):
        s = Rat(fill_sigma) * 2 ** i
        tasks.append(Task(i + 1, s, s, ZERO))
    return TAP(p, tuple(tasks))


def c_trigger_corpus() -> list:
    """At least 20 crafted instances with nonempty exception-mode logs;
    the first eight exhibit both ballistic and semi-ballistic entries,
    and in the last the nested run completes a vested task first (a
    ballistic ``inner-completed`` entry)."""
    corpus = []
    for p in (8, 16):
        for st in (2, 4, 8, 16):
            corpus.append(gen_c_trigger(p, st, with_candidate=True))
    for p in (8, 16):
        for st in (2, 4, 8, 16):
            corpus.append(gen_c_trigger(p, st, with_candidate=False))
    for st in (2, 4):
        for ratio in (4, 8):
            for fill in (2, 4):
                corpus.append(gen_c_trigger_mixed(8, st, ratio, fill))
    # a task of the target's class arriving inside its emergency
    base = gen_c_trigger(16, 2, with_candidate=False)
    corpus.append(TAP(16, base.tasks + (Task(8, Rat(1, 16), Rat(1, 4), Rat(25, 4)),)))
    return corpus


# --- zero-work flood against non-preemptive schedulers ----------------------

def flood_probe(p: int) -> TAP:
    """The default flood probe: one task (sigma=1, pi=p) at time 0."""
    return TAP(p, (Task(0, ONE, Rat(p), ZERO),))


class NonPreemptiveAdversary(Adversary):
    """Floods a busy non-preemptive scheduler with near-zero-work tasks.

    Watches the run of a probe TAP; at the first instant when every
    running task still has remaining work >= 1 and the busy-processor
    count is the largest seen so far, injects ceil(R*h) tasks of work
    1/1024, where h = opt_trt_lower(probe) > 0; the work is a power of
    two, so csched accepts the flood too.  ``busy`` is read over the
    slice that just ended: ``on_event`` runs before the instant's
    allocation, so at the first instant it is 0.
    """

    tiny = Rat(1, 1024)

    def __init__(self, R: int, probe: TAP):
        probe.validate()  # the lower bound assumes a valid TAP
        h = opt_trt_lower(probe)
        if h <= 0:
            raise InvalidArgumentError("the flood needs a probe with at least one task")
        self.count = math.ceil(Rat(R) * h)
        self.triggered = False
        self.max_busy = ZERO
        self.base_id = max(t.id for t in probe.tasks) + 1

    def on_event(self, view):
        busy = sum(
            (view.current_rate(tid) for tid in view.running_ids()), ZERO
        )
        self.max_busy = max(self.max_busy, busy)
        if self.triggered or self.count == 0:
            return []
        running = view.running_ids()
        if not running or busy < self.max_busy:
            return []
        if any(view.remaining(tid) < 1 for tid in running):
            return []
        self.triggered = True
        now = view.now
        return [
            Task(self.base_id + i, self.tiny, self.tiny, now)
            for i in range(self.count)
        ]
