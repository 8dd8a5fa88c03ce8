"""Awake-time schedulers.

* most-work-first allocation: up to p serial jobs with the largest
  remaining work get one processor each, leftover goes to parallel work;
* BAL: decide-on-arrival via the balance test (serial unless that would
  make the system jagged);
* UNK: parallel-work-oblivious; a task that has waited longer than its
  serial work runs serially, otherwise it may run as the single parallel
  task; it acts only at arrivals and completions;
* two uniform baselines (always-serial / always-parallel);
* GoldenAlg: experimental oracle-driven pool migration.
"""

from __future__ import annotations

from .core import Decision, TAP, TapError, awake_time
from .engine import SchedCommands, Scheduler
from .oracle import opt_awake_exhaustive
from .rationals import Rat, ZERO, ONE, PHI


# --- balance test -----------------------------------------------------------

def balanced(serial_max, total, p: int) -> bool:
    """True iff the present jobs can keep all p processors busy until they
    are all complete.

    A wrap-around placement of the serial jobs within makespan W/p exists
    iff no serial job exceeds W/p, and parallel work exactly fills the
    residual capacity, so the test is max(serial) <= total/p.
    """
    return serial_max * p <= total


# --- most-work-first allocation --------------------------------------------

def most_work_first_alloc(serial: dict, parallel, budget) -> dict:
    """Rate 1 to the serial jobs with the largest remaining work (ties by
    ascending id), all leftover budget to the lowest-id parallel job.

    ``serial`` maps job id to remaining work; ``parallel`` holds job ids
    only, so a parallel job's remaining work is never read.  The split of
    leftover among parallel jobs does not affect awake time.
    """
    budget = Rat(budget)
    if budget < 0:
        raise TapError(f"negative budget {budget}")
    alloc: dict[int, Rat] = {}
    cap = min(len(serial), int(budget))
    order = sorted(serial, key=lambda tid: (-serial[tid], tid))
    for tid in order[:cap]:
        alloc[tid] = ONE
    leftover = budget - cap
    if leftover > 0 and parallel:
        alloc[min(parallel)] = leftover
    return alloc


class _MwfMixin:
    """Most-work-first allocation on the whole budget, shared by the
    decide-on-arrival schedulers, UNK and the level-DTAP witness."""

    def allocate(self, view) -> dict:
        serial = {tid: view.remaining(tid) for tid in view.running_ids(Decision.SERIAL)}
        return most_work_first_alloc(serial, view.running_ids(Decision.PARALLEL), view.budget)


class BalScheduler(_MwfMixin, Scheduler):
    """Decide-on-arrival scheduler that stays balanced (3-competitive)."""

    name = "bal"

    def __init__(self):
        self.balanced: list[bool] = []  # balanced after the decision, per arrival

    def on_arrival(self, view, task):
        serial_max = total = ZERO  # over the running tasks' remaining work
        for tid in view.running_ids():
            rem = view.remaining(tid)
            total += rem
            if view.decision(tid) is Decision.SERIAL and rem > serial_max:
                serial_max = rem
        # serial unless taking the serial implementation would break balance
        if balanced(max(serial_max, task.sigma), total + task.sigma, view.p):
            decision = Decision.SERIAL
            self.balanced.append(True)
        else:
            decision = Decision.PARALLEL
            self.balanced.append(balanced(serial_max, total + task.pi, view.p))
        return SchedCommands(starts={task.id: decision})


class AllSerialScheduler(_MwfMixin, Scheduler):
    name = "mwf-all-serial"

    def on_arrival(self, view, task):
        return SchedCommands(starts={task.id: Decision.SERIAL})


class AllParallelScheduler(_MwfMixin, Scheduler):
    name = "mwf-all-parallel"

    def on_arrival(self, view, task):
        return SchedCommands(starts={task.id: Decision.PARALLEL})


class UnkScheduler(_MwfMixin, Scheduler):
    """Parallel-work-oblivious scheduler (6-competitive).

    Never reads any pi (the engine view hides them).  A not-yet-started
    task that has waited strictly more than sigma since it became
    available (its arrival, on a plain TAP) runs serially; otherwise
    it may start as the single parallel task.  Starts happen only when no
    parallel task is running and fewer than p serial tasks are running;
    a running parallel task absorbs every leftover processor, so there is
    never idle capacity next to it.  After each ``_try_starts`` no task
    waits, a parallel task runs, or p serial tasks run; only an arrival or
    a completion changes that, so UNK acts only then and sets no timer.
    """

    name = "unk"
    oblivious = True

    def _try_starts(self, view) -> SchedCommands | None:
        if view.running_ids(Decision.PARALLEL):
            return None
        running_serial = len(view.running_ids(Decision.SERIAL))
        if running_serial >= view.p:
            return None
        parallel_running = False
        starts: dict[int, Decision] = {}
        for tid in view.unstarted_ids():
            task = view.task(tid)
            if view.now - view.trace.arrivals[tid] > task.sigma:
                if running_serial < view.p:
                    starts[tid] = Decision.SERIAL
                    running_serial += 1
            elif not parallel_running:
                starts[tid] = Decision.PARALLEL
                parallel_running = True
        return SchedCommands(starts=starts) if starts else None

    def on_arrival(self, view, task):
        return self._try_starts(view)

    def on_completion(self, view, tid):
        return self._try_starts(view)


class GoldenAlg(_MwfMixin, Scheduler):
    """Experimental scheduler built around the golden-ratio conjecture.

    New tasks join a parallel pool; at each arrival the exhaustive oracle
    recomputes the offline-optimal awake time of the tasks arrived so far
    (so it runs on plain TAPs of at most ``max_plain_n`` tasks), and every
    not-yet-started pool task whose sigma plus incurred awake time is
    below phi times that optimum migrates to the serial pool.
    """

    name = "golden"
    max_plain_n = 15

    def on_arrival(self, view, task):
        starts: dict[int, Decision] = {}
        arrived = tuple(view.task(tid) for tid in view.trace.arrivals)
        opt, _ = opt_awake_exhaustive(TAP(view.p, arrived), bound=self.max_plain_n)
        threshold = PHI * opt - awake_time(view.trace, view.now)
        kept = []  # the parallel pool: undecided tasks, arrival order
        for tid in view.unstarted_ids():
            if view.task(tid).sigma < threshold:
                starts[tid] = Decision.SERIAL
            else:
                kept.append(tid)
        if kept and not view.running_ids(Decision.PARALLEL):
            starts[kept[0]] = Decision.PARALLEL
        return SchedCommands(starts=starts)

    def on_completion(self, view, tid):
        # one running parallel task, earliest arrival first
        pool = view.unstarted_ids()
        if not pool or view.running_ids(Decision.PARALLEL):
            return None
        return SchedCommands(starts={pool[0]: Decision.PARALLEL})
