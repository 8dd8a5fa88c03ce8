"""Dependency-aware TAPs: the TURTLE scheduler and the level-DTAP
witness schedule.

A task is fairly-parallel when pi/p < sigma/sqrt(p); TURTLE runs
fairly-parallel tasks one at a time on the whole budget (preempting
serial work) and everything else serially, most-work-first.  All sqrt(p)
comparisons are done in squared form, exactly.
"""

from __future__ import annotations

from .core import Decision, TAP
from .engine import SchedCommands, Scheduler
from .rationals import ZERO
from .sched_awake import _MwfMixin, most_work_first_alloc


def fairly_parallel(task, p: int) -> bool:
    """pi/p < sigma/sqrt(p), tested as pi^2 p < sigma^2 p^2."""
    return task.pi ** 2 * p < task.sigma ** 2 * p * p


class TurtleScheduler(Scheduler):
    """O(sqrt(p))-competitive DTAP scheduler.

    Whenever a fairly-parallel task is available it gets the whole budget
    (lowest id first); otherwise the available not-very-parallel tasks
    with the largest remaining serial work get one processor each, as many
    as the budget holds.
    """

    name = "turtle"

    def on_arrival(self, view, task):
        decision = Decision.PARALLEL if fairly_parallel(task, view.p) else Decision.SERIAL
        return SchedCommands(starts={task.id: decision})

    def allocate(self, view) -> dict:
        fp = view.running_ids(Decision.PARALLEL)
        if fp:
            return {fp[0]: view.budget}
        serial = {tid: view.remaining(tid) for tid in view.running_ids(Decision.SERIAL)}
        return most_work_first_alloc(serial, (), view.budget)


def turtle_parallel_work_bound(tap: TAP) -> bool:
    """Exact check of sum over fairly-parallel tasks of pi/p <=
    (1/sqrt(p)) * sum of all sigma, in squared form."""
    p = tap.p
    fp_pi = sum((t.pi for t in tap.tasks if fairly_parallel(t, p)), ZERO)
    all_sigma = sum((t.sigma for t in tap.tasks), ZERO)
    # fp_pi / p <= all_sigma / sqrt(p)  <=>  fp_pi^2 * p <= all_sigma^2 * p^2
    return fp_pi ** 2 * p <= all_sigma ** 2 * p * p


# --- witness schedule for level DTAPs ---------------------------------------

class LevelWitness(_MwfMixin, Scheduler):
    """Offline witness for a DTAP: run the spawners (the tasks some task
    depends on) in parallel as they arrive, then everything else
    serially, one processor each.  On a level DTAP it never runs serial
    and parallel tasks together, and at most p serial tasks, so
    most-work-first gives a running spawner the whole budget and each
    serial task one processor; its awake time there is at most 2."""

    name = "level-witness"

    def __init__(self, tap: TAP):
        self.spawners = {d for t in tap.tasks for d in t.deps}

    def on_arrival(self, view, task):
        if task.id in self.spawners:
            return SchedCommands(starts={task.id: Decision.PARALLEL})
        return self._start_serial_phase(view)

    def on_completion(self, view, tid):
        return self._start_serial_phase(view)

    def _start_serial_phase(self, view):
        done = view.trace.completions
        if any(tid not in done for tid in self.spawners):
            return None
        starts = {
            tid: Decision.SERIAL
            for tid in view.unstarted_ids()
            if tid not in self.spawners
        }
        return SchedCommands(starts=starts) if starts else None
