"""Dependency-aware TAPs: the TURTLE scheduler and the level-DTAP
witness schedule.

A task is fairly-parallel when pi/p < sigma/sqrt(p); TURTLE runs
fairly-parallel tasks one at a time on all p processors (preempting
serial work) and everything else serially, most-work-first.  All sqrt(p)
comparisons are done in squared form, exactly.
"""

from __future__ import annotations

from .core import Decision, TAP, TapError
from .engine import SchedCommands, Scheduler, simulate
from .rationals import Rat, ZERO
from .sched_awake import _MwfMixin, most_work_first_alloc

FAIRLY_PARALLEL = "fairly-parallel"
NOT_VERY_PARALLEL = "not-very-parallel"


def turtle_classify(task, p: int) -> str:
    """fairly-parallel iff pi/p < sigma/sqrt(p), tested as pi^2 p < sigma^2 p^2."""
    if task.pi ** 2 * p < task.sigma ** 2 * p * p:
        return FAIRLY_PARALLEL
    return NOT_VERY_PARALLEL


class TurtleScheduler(Scheduler):
    """O(sqrt(p))-competitive DTAP scheduler.

    Whenever a fairly-parallel task is available it gets all p processors
    (lowest id first); otherwise the min(p, k) available not-very-parallel
    tasks with the largest remaining serial work get one processor each.
    """

    name = "turtle"

    def on_arrival(self, view, task):
        decision = (
            Decision.PARALLEL
            if turtle_classify(task, view.p) == FAIRLY_PARALLEL
            else Decision.SERIAL
        )
        return SchedCommands(starts={task.id: decision})

    def allocate(self, view) -> dict:
        fp = []
        nvp = []
        for tid in view.running_ids():
            if view.decision(tid) is Decision.PARALLEL:
                fp.append(tid)
            else:
                nvp.append(tid)
        if fp:
            return {min(fp): Rat(view.p)}
        return most_work_first_alloc(
            {tid: view.remaining(tid) for tid in nvp}, (), view.p
        )


def turtle_parallel_work_bound(tap: TAP) -> bool:
    """Exact check of sum over fairly-parallel tasks of pi/p <=
    (1/sqrt(p)) * sum of all sigma, in squared form."""
    p = tap.p
    fp_pi = sum(
        (t.pi for t in tap.tasks if turtle_classify(t, p) == FAIRLY_PARALLEL),
        ZERO,
    )
    all_sigma = sum((t.sigma for t in tap.tasks), ZERO)
    # fp_pi / p <= all_sigma / sqrt(p)  <=>  fp_pi^2 * p <= all_sigma^2 * p^2
    return fp_pi ** 2 * p <= all_sigma ** 2 * p * p


# --- witness schedule for level DTAPs ---------------------------------------

def _level_structure(tap: TAP):
    """Validate a level DTAP and return (s, levels, spawners).

    Expects s = sqrt(p) levels of s tasks with sigma=1, pi=s, arrivals 0,
    each level past the first depending on exactly one task (its spawner)
    from the previous level.
    """
    import math

    s = math.isqrt(tap.p)
    if s * s != tap.p:
        raise TapError("not a level DTAP: p is not a perfect square")
    if tap.n != s * s:
        raise TapError(f"not a level DTAP: expected {s * s} tasks, got {tap.n}")
    for t in tap.tasks:
        if t.sigma != 1 or t.pi != s or t.arrival != 0:
            raise TapError(f"not a level DTAP: task {t.id} has wrong shape")
        if len(t.deps) > 1:
            raise TapError(f"not a level DTAP: task {t.id} has {len(t.deps)} deps")
    levels = [list(range(level * s, (level + 1) * s)) for level in range(s)]
    spawners = []
    for level in range(1, s):
        deps = {next(iter(tap.task(tid).deps)) for tid in levels[level]}
        if len(deps) != 1:
            raise TapError(f"not a level DTAP: level {level} has mixed deps")
        spawner = deps.pop()
        if spawner not in levels[level - 1]:
            raise TapError("not a level DTAP: spawner outside previous level")
        spawners.append(spawner)
    for tid in levels[0]:
        if tap.task(tid).deps:
            raise TapError("not a level DTAP: level 0 has dependencies")
    return s, levels, spawners


class _LevelWitnessScheduler(_MwfMixin, Scheduler):
    """Scripted schedule: run the spawner chain in parallel first, then
    everything else serially, one processor each.  It never runs serial
    and parallel tasks together, and at most p serial tasks, so
    most-work-first gives a running spawner the whole budget and each
    serial task one processor."""

    name = "level-witness"

    def __init__(self, spawners: set):
        self.spawners = spawners

    def on_arrival(self, view, task):
        if task.id in self.spawners:
            return SchedCommands(starts={task.id: Decision.PARALLEL})
        return self._start_serial_phase(view)

    def _start_serial_phase(self, view):
        done = set(view.completed_ids())
        if any(tid not in done for tid in self.spawners):
            return None
        starts = {
            tid: Decision.SERIAL
            for tid in view.unstarted_ids()
            if tid not in self.spawners
        }
        return SchedCommands(starts=starts) if starts else None

    def on_completion(self, view, tid):
        commands = SchedCommands()
        # late spawners become available as their level arrives
        for uid in view.unstarted_ids():
            if uid in self.spawners:
                commands.starts[uid] = Decision.PARALLEL
        tail = self._start_serial_phase(view)
        if tail:
            commands.starts.update(tail.starts)
        return commands if commands.starts else None


def dtap_opt_upper_levels(tap: TAP):
    """(witness trace, exact awake time) for a level DTAP.

    The witness runs the spawner chain back-to-back in parallel, then all
    remaining tasks serially; its awake time is at most 2.
    """
    s, levels, spawners = _level_structure(tap)
    # the last level has no spawner; schedule all of its tasks serially
    scheduler = _LevelWitnessScheduler(set(spawners))
    trace = simulate(tap, scheduler)
    from .core import metrics_from_trace

    metrics = metrics_from_trace(trace, tap)
    return trace, metrics.awake
