"""Awake-time schedulers.

* most-work-first allocation: up to p serial jobs with the largest
  remaining work get one processor each, leftover goes to parallel work;
* BAL: decide-on-arrival via the balance test (serial unless that would
  make the system jagged);
* UNK: parallel-work-oblivious; a task that has waited longer than its
  serial work runs serially, otherwise it may run as the single parallel
  task;
* two uniform baselines (always-serial / always-parallel);
* GoldenAlg: experimental oracle-driven pool migration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Decision, TAP, Task, TapError
from .engine import SchedCommands, Scheduler
from .oracle import opt_awake_exhaustive
from .rationals import Rat, ZERO, ONE, PHI


# --- balance test -----------------------------------------------------------

@dataclass
class BalanceState:
    """Remaining-work summary used by the balance test."""

    serial_remaining: list  # multiset of remaining serial works
    total_remaining: Rat  # serial plus parallel remaining work
    p: int


def is_balanced(state: BalanceState) -> bool:
    """True iff the present jobs can keep all p processors busy until they
    are all complete.

    A wrap-around placement of the serial jobs within makespan W/p exists
    iff no serial job exceeds W/p, and parallel work exactly fills the
    residual capacity, so the test is max(serial) <= total/p.
    """
    if not state.serial_remaining:
        return True
    return max(state.serial_remaining) * state.p <= state.total_remaining


def bal_decide(state: BalanceState, task: Task) -> Decision:
    """Serial unless taking the serial implementation would break balance;
    updates the state with the chosen work."""
    s_max = max(state.serial_remaining + [task.sigma])
    if s_max * state.p <= state.total_remaining + task.sigma:
        state.serial_remaining.append(task.sigma)
        state.total_remaining += task.sigma
        return Decision.SERIAL
    state.total_remaining += task.pi
    return Decision.PARALLEL


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
        serial: dict[int, Rat] = {}
        parallel: list[int] = []
        for tid in view.running_ids():
            if view.decision(tid) is Decision.SERIAL:
                serial[tid] = view.remaining(tid)
            else:
                parallel.append(tid)
        return most_work_first_alloc(serial, parallel, view.budget)


class BalScheduler(_MwfMixin, Scheduler):
    """Decide-on-arrival scheduler that stays balanced (3-competitive)."""

    name = "bal"

    def __init__(self):
        self.balanced: list = []  # (time, balanced after the decision), per arrival

    def _state(self, view) -> BalanceState:
        serial = []
        total = ZERO
        for tid in view.running_ids():
            rem = view.remaining(tid)
            total += rem
            if view.decision(tid) is Decision.SERIAL:
                serial.append(rem)
        return BalanceState(serial, total, view.p)

    def on_arrival(self, view, task):
        state = self._state(view)
        decision = bal_decide(state, task)
        self.balanced.append((view.now, is_balanced(state)))
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
    never idle capacity next to it.
    """

    name = "unk"
    oblivious = True

    def _try_starts(self, view) -> SchedCommands | None:
        running_serial = 0
        parallel_running = False
        for tid in view.running_ids():
            if view.decision(tid) is Decision.SERIAL:
                running_serial += 1
            else:
                parallel_running = True
        if parallel_running or running_serial >= view.p:
            return None
        starts: dict[int, Decision] = {}
        for tid in view.unstarted_ids():
            task = view.task(tid)
            if view.now - view.avail_time(tid) > task.sigma:
                if running_serial < view.p:
                    starts[tid] = Decision.SERIAL
                    running_serial += 1
            elif not parallel_running:
                starts[tid] = Decision.PARALLEL
                parallel_running = True
        return SchedCommands(starts=starts) if starts else None

    def on_arrival(self, view, task):
        commands = self._try_starts(view) or SchedCommands()
        if task.id not in commands.starts:
            # the serial option activates right after age sigma
            aged_at = view.avail_time(task.id) + task.sigma
            commands.timers.append((aged_at, ("aged", task.id)))
        return commands

    def on_completion(self, view, tid):
        return self._try_starts(view)

    def on_timer(self, view, tag):
        return self._try_starts(view)


class GoldenAlg(_MwfMixin, Scheduler):
    """Experimental scheduler built around the golden-ratio conjecture.

    New tasks join a parallel pool; at each arrival the exhaustive oracle
    recomputes the offline-optimal awake time of the tasks seen so far
    (so it runs on plain TAPs of at most ``max_plain_n`` tasks), and every
    not-yet-started pool task whose sigma plus incurred awake time is
    below phi times that optimum migrates to the serial pool.
    """

    name = "golden"
    max_plain_n = 15

    def __init__(self):
        self.seen: list[Task] = []
        self.parallel_pool: list[int] = []  # undecided, arrival order

    def _commands(self, view) -> SchedCommands:
        starts: dict[int, Decision] = {}
        opt, _ = opt_awake_exhaustive(TAP(view.p, tuple(self.seen)))
        threshold = PHI * opt
        kept = []
        for tid in self.parallel_pool:
            if view.task(tid).sigma + view.awake_so_far < threshold:
                starts[tid] = Decision.SERIAL
            else:
                kept.append(tid)
        self.parallel_pool = kept
        # one running parallel task, earliest arrival first
        parallel_running = any(
            view.decision(tid) is Decision.PARALLEL for tid in view.running_ids()
        )
        if not parallel_running and self.parallel_pool:
            tid = self.parallel_pool.pop(0)
            starts[tid] = Decision.PARALLEL
        return SchedCommands(starts=starts)

    def on_arrival(self, view, task):
        self.seen.append(task)
        self.parallel_pool.append(task.id)
        return self._commands(view)

    def on_completion(self, view, tid):
        if not self.parallel_pool:
            return None
        parallel_running = any(
            view.decision(t) is Decision.PARALLEL for t in view.running_ids()
        )
        if parallel_running:
            return None
        return SchedCommands(starts={self.parallel_pool.pop(0): Decision.PARALLEL})
