"""Deterministic fluid event-driven simulator.

Between events the allocation is piecewise constant; remaining works
decrease at exact rational rates, so completion instants are exact and
simultaneous events are resolved by a fixed tie order: completions, then
arrivals (each by ascending id), then timers (in the order set), each kind
collected already in this order; an adversary injects at a quiet instant.

The engine supports incremental advancement (``advance_to``) so that a
scheduler may drive a nested inner simulation from its own callbacks; the
MRT schedulers B and C rely on this.  A nested engine is advanced only when
its next event is due, so between its events its clock may lag the outer
one: its allocation, decisions and next event time do not change in
between.  ``Trace.log``
lists each start, cancellation and completion as applied: one cursor reads it.
A task's decision is kept once, in ``Trace.decisions`` (its last start).
There is no awake-time accumulator: ``core.awake_time`` reads awake time
off ``Trace.arrivals`` (availability times) and ``Trace.completions``.

The event loop's fast paths rely on these invariants:

* ``alloc`` holds only positive rates of running tasks, and a serial
  task's rate is at most 1 (``_set_allocation`` rejects anything else);
  ``speed`` is positive (the constructor rejects anything else);
* the next completion time ``now + remaining/(speed*rate)`` is invariant
  while the allocation holds, so it is computed once per allocation and
  cached until the allocation changes (a completion, a cancellation, or
  an allocation with other rates: one equal to the rates in force keeps
  the cached time), which ``next_event_time`` reads without a call unless
  it is stale; the least ``remaining/rate`` is found on integer
  cross-products, with one division;
* the clock step is one ``rationals.sub_mul`` per rated task, and there
  is no clock step to the time the clock already reads;
* each pending task (not arrived, every dependency finished) is in the
  heap ``_pending`` exactly once, keyed by (availability, id): the next
  arrival is its top, and an instant's arrivals are popped in ascending
  id order when the instant's batch is collected, before its completions
  are processed;
* a task's remaining work reaches 0 only in the clock step, so the clock
  step collects the ids that reach it (``_due``) and the instant's event
  batch reads them instead of scanning ``alloc``;
* ``_dependents`` is the reverse of ``_deps_done``: a completion unlocks
  only the tasks waiting on it;
* ``_alive`` (arrived, not finished) and ``_running`` (started, not
  cancelled or finished) are the task lifecycle: a task in neither has
  finished if ``trace.completions`` holds it and has not arrived
  otherwise, so no query scans every task.

Simultaneous events are never merged, and an instant is processed even
when the allocation does not change: both would change the slice splits.
"""

from __future__ import annotations

import heapq
from math import gcd
from dataclasses import dataclass, field

from .core import Decision, InstanceTooLargeError, InvalidInstanceError, TAP, Task, TapError
from .rationals import Rat, ZERO, ONE, is_power_of_two, rat_str, rat_sum, sub_mul

CANCELLED, COMPLETED = "cancelled", "completed"  # ``Trace.log`` kinds besides a Decision

#: events one run may dispatch before it is stopped as a runaway
MAX_EVENTS = 1_000_000


class FeasibilityError(TapError):
    """The scheduler returned an infeasible allocation."""


class ContractError(TapError):
    """A scheduler command violated the engine contract."""


class RunawayError(TapError):
    """Event count exceeded ``MAX_EVENTS``, or no progress is possible."""


class ObliviousnessError(TapError):
    """A parallel-work-oblivious scheduler tried to read a hidden pi."""


@dataclass
class EngineConfig:
    speed: Rat = ONE
    processor_budget: Rat | None = None  # defaults to p
    allow_cancel: bool = False


def _budget(tap: TAP, config: EngineConfig) -> Rat:
    """The processor budget of a run: the configured one, else p."""
    budget = config.processor_budget
    return Rat(tap.p if budget is None else budget)


@dataclass
class Trace:
    """Full execution record of one simulation run.  A start is not
    stamped: it is the first slice at or after the task's ``decided_at``
    that gives it a rate."""

    slices: list = field(default_factory=list)  # (t0, t1, {id: rate})
    decisions: dict = field(default_factory=dict)  # id -> (Decision, decided_at) of its last start
    completions: dict = field(default_factory=dict)  # id -> time
    cancellations: list = field(default_factory=list)  # (id, time)
    arrivals: dict = field(default_factory=dict)  # id -> availability time
    injected: list = field(default_factory=list)  # tasks ``Adversary.on_event`` emitted, in order
    log: list = field(default_factory=list)  # (Decision | CANCELLED | COMPLETED, id), as applied


@dataclass
class SchedCommands:
    """Commands returned by a scheduler callback."""

    starts: dict = field(default_factory=dict)  # id -> Decision
    cancels: set = field(default_factory=set)  # ids to cancel (back to undecided)
    timers: list = field(default_factory=list)  # (time, tag)


class Scheduler:
    """Callback contract: the engine owns all task state; schedulers read it
    through the view and issue start/cancel/timer commands plus allocations.
    The class constants declare the registry's run configuration and the
    input class, which the engine enforces before a run or a task reaches
    the scheduler."""

    name = "scheduler"
    oblivious = False  # True hides pi from the view (parallel-work-oblivious)
    budget_factor = 1  # default processor budget, as a multiple of p
    cancels = False  # may cancel a running parallel task
    min_budget_factor = 1  # input class: least processor budget, as a multiple of p
    pow2_works = False  # input class: every sigma and pi a power of two
    max_plain_n: int | None = None  # input class: at most this many tasks, no dependencies

    @classmethod
    def engine_config(cls, p: int, factor=None, speed=ONE) -> EngineConfig:
        """The configuration this class declares on p processors: a budget
        of ``factor`` (default: ``budget_factor``) times p, ``speed``, and
        cancellation exactly when the class ``cancels``."""
        factor = cls.budget_factor if factor is None else factor
        return EngineConfig(speed=speed, processor_budget=Rat(factor) * p,
                            allow_cancel=cls.cancels)

    def setup(self, view) -> SchedCommands | None:
        return None

    def on_arrival(self, view, task) -> SchedCommands | None:
        return None

    def on_completion(self, view, tid) -> SchedCommands | None:
        return None

    def on_timer(self, view, tag) -> SchedCommands | None:
        return None

    def allocate(self, view) -> dict:
        return {}


class _ObliviousTask:
    """Task view whose parallel work is unreadable."""

    __slots__ = ("id", "sigma", "arrival", "deps")

    def __init__(self, task: Task):
        self.id, self.sigma, self.arrival, self.deps = task.id, task.sigma, task.arrival, task.deps

    @property
    def pi(self):
        raise ObliviousnessError(f"scheduler attempted to read pi of task {self.id}")


class EngineView:
    """Read-only window into the engine state for schedulers and adversaries."""

    def __init__(self, engine: "Engine"):
        self._e = engine

    @property
    def now(self) -> Rat:
        return self._e.now

    @property
    def p(self) -> int:
        return self._e.p

    @property
    def budget(self) -> Rat:
        return self._e.budget

    def task(self, tid: int):
        task = self._e.tasks[tid]
        return _ObliviousTask(task) if self._e.scheduler.oblivious else task

    def alive_ids(self) -> list[int]:
        """Arrived-or-running task ids, ascending."""
        return sorted(self._e._alive)

    def unstarted_ids(self) -> list[int]:
        """Arrived, not-yet-started ids in (availability, id) order."""
        avail = self._e.trace.arrivals
        return sorted(self._e._alive - self._e._running, key=lambda t: (avail[t], t))

    def running_ids(self, decision: Decision | None = None) -> list[int]:
        """Running task ids, ascending; only those run as ``decision`` when
        one is given."""
        running = self._e._running
        if not running:
            return []
        if decision is not None:
            decided = self._e.trace.decisions
            running = [tid for tid in running if decided[tid][0] is decision]
        return sorted(running)

    def decision(self, tid: int) -> Decision | None:
        """The decision of a running or finished task; None otherwise
        (also between a cancellation and a restart)."""
        e = self._e
        if tid in e._running or tid in e.trace.completions:
            return e.trace.decisions[tid][0]
        return None

    def remaining(self, tid: int) -> Rat:
        return self._e.remaining[tid]

    def current_rate(self, tid: int) -> Rat:
        return self._e.alloc.get(tid, ZERO)

    @property
    def trace(self) -> Trace:
        return self._e.trace


class Adversary:
    """Adaptive adversary: observes a run of the TAP it plays on and may
    inject tasks."""

    def on_event(self, view: EngineView) -> list[Task]:
        return []


class Engine:
    """One deterministic simulation run."""

    def __init__(
        self,
        tap: TAP,
        scheduler: Scheduler,
        config: EngineConfig | None = None,
        adversary: Adversary | None = None,
    ):
        self.config = config or EngineConfig()
        self.speed = Rat(self.config.speed)
        if self.speed <= 0:
            raise ContractError(f"speed must be positive, got {self.speed}")
        tap.validate()  # p >= 2 before the budget check divides by it
        self.p = tap.p
        self.budget = _budget(tap, self.config)
        least = scheduler.min_budget_factor
        if self.budget < least * tap.p:
            raise ContractError(
                f"{scheduler.name} needs a processor budget of at least {least}p = "
                f"{least * tap.p}, got {rat_str(self.budget)} "
                f"(budget factor {rat_str(self.budget / tap.p)})")
        self.scheduler = scheduler
        self.adversary = adversary
        self.now = ZERO
        self.tasks: dict[int, Task] = {}
        self.remaining: dict[int, Rat] = {}
        self.alloc: dict[int, Rat] = {}
        self.trace = Trace()
        self._timers: list = []  # heap of (time, seq, tag)
        self._timer_seq = 0
        self._event_count = 0
        self._deps_done: dict[int, set] = {}  # id -> unfinished dependencies
        self._dependents: dict[int, list] = {}  # id -> ids waiting on it
        self._pending: list = []  # heap of (availability, id) of tasks not yet arrived
        self._alive: set[int] = set()
        self._running: set[int] = set()
        self._finish: Rat | None = None  # next completion under ``alloc``
        self._finish_stale = False
        self._due: list[int] = []  # ids whose work the last clock step finished
        self.view = EngineView(self)
        self._started = False
        for task in tap.tasks:
            self._add_task(task)

    # -- task intake --------------------------------------------------------

    def _admit(self, task: Task) -> None:
        """Refuse a task outside the scheduler's declared input class (the
        budget is checked once, when the engine is built)."""
        sched = self.scheduler
        if sched.pow2_works and not (is_power_of_two(task.sigma) and is_power_of_two(task.pi)):
            raise InvalidInstanceError(
                f"{sched.name} needs power-of-two works, task {task.id} has sigma "
                f"{rat_str(task.sigma)} and pi {rat_str(task.pi)}: apply round_pow2")
        if sched.max_plain_n is not None:  # the bound of the awake oracle it calls
            if task.deps:
                raise TapError("awake oracle requires a plain TAP (no dependencies)")
            if len(self.tasks) >= sched.max_plain_n:
                raise InstanceTooLargeError(
                    f"n={len(self.tasks) + 1} exceeds oracle bound {sched.max_plain_n}")

    def _add_task(self, task: Task) -> None:
        if task.id in self.tasks:
            raise ContractError(f"duplicate task id {task.id}")
        self._admit(task)
        self.tasks[task.id] = task
        self.remaining[task.id] = ZERO
        missing = {d for d in task.deps if d not in self.trace.completions} if task.deps else set()
        self._deps_done[task.id] = missing
        for d in missing:
            self._dependents.setdefault(d, []).append(task.id)
        if not missing:  # available at its release: no task arrives in the past
            heapq.heappush(self._pending, (task.arrival, task.id))

    def inject_task(self, task: Task) -> None:
        """Add a task during the run (adversaries, nested feeding)."""
        if task.arrival < self.now:
            raise ContractError(
                f"injected task {task.id} arrives in the past ({task.arrival} < {self.now})"
            )
        self._add_task(task)

    # -- event queries -------------------------------------------------------

    def _next_completion(self) -> Rat | None:
        if self._finish_stale:
            self._finish_stale = False
            # the least remaining/rate as an integer pair n/d, compared by
            # cross-multiplication (every denominator is positive), then
            # one division, by the speed too
            remaining = self.remaining
            n = d = None
            for tid, rate in self.alloc.items():
                left = remaining[tid]
                ln = left._numerator * rate._denominator
                ld = left._denominator * rate._numerator
                if n is None or ln * d < n * ld:
                    n, d = ln, ld
            first = None
            if n is not None:
                speed = self.speed
                first = self.now + Rat(n * speed._denominator, d * speed._numerator)
            self._finish = first
        return self._finish

    def next_event_time(self) -> Rat | None:
        best = self._next_completion() if self._finish_stale else self._finish
        if self._pending:
            t = self._pending[0][0]
            if best is None or t < best:
                best = t
        if self._timers:
            t = self._timers[0][0]
            if best is None or t < best:
                best = t
        return best

    @property
    def done(self) -> bool:
        return not self._pending and not self._alive

    # -- time advancement ----------------------------------------------------

    def _advance_clock(self, t: Rat) -> None:
        if t <= self.now:
            if t < self.now:
                raise ContractError(f"time going backwards: {t} < {self.now}")
            return
        work = (t - self.now) * self.speed
        remaining = self.remaining
        for tid, rate in self.alloc.items():
            left = sub_mul(remaining[tid], rate, work)
            if left._numerator <= 0:
                if left._numerator < 0:
                    raise RunawayError(f"task {tid} overshot completion (remaining {left})")
                self._due.append(tid)
            remaining[tid] = left
        self.trace.slices.append((self.now, t, dict(self.alloc)))
        self.now = t

    # -- event processing ----------------------------------------------------

    def _apply_commands(self, commands: SchedCommands | None) -> None:
        if commands is None:
            return
        cancels, starts, timers = commands.cancels, commands.starts, commands.timers
        for tid in sorted(cancels) if cancels else ():
            if not self.config.allow_cancel:
                raise ContractError(f"cancellation of task {tid} with allow_cancel=false")
            if tid not in self._running:
                raise ContractError(f"cannot cancel task {tid}: not running")
            if self.trace.decisions[tid][0] is not Decision.PARALLEL:
                raise ContractError(f"cannot cancel serial task {tid}")
            if self.remaining[tid] == 0:  # its completion is due at this instant
                raise ContractError(f"cannot cancel task {tid}: its work is done")
            self._running.discard(tid)
            self.remaining[tid] = ZERO
            self.alloc.pop(tid, None)
            self._finish_stale = True
            self.trace.cancellations.append((tid, self.now))
            self.trace.log.append((CANCELLED, tid))
        for tid in sorted(starts) if starts else ():
            decision = starts[tid]
            if tid in self._running or tid not in self._alive:
                why = ("already running" if tid in self._running else
                       "finished" if tid in self.trace.completions else "not arrived")
                raise ContractError(f"cannot start task {tid}: {why}")
            self._running.add(tid)
            self.remaining[tid] = self.tasks[tid].work(decision)
            self.trace.decisions[tid] = (decision, self.now)
            self.trace.log.append((decision, tid))
        for time_, tag in timers:
            if type(time_) is not Rat:
                time_ = Rat(time_)
            if time_ < self.now:
                raise ContractError(f"timer in the past: {time_} < {self.now}")
            heapq.heappush(self._timers, (time_, self._timer_seq, tag))
            self._timer_seq += 1

    def _complete(self, tid: int) -> None:
        self._alive.discard(tid)
        self._running.discard(tid)
        self.alloc.pop(tid, None)
        self._finish_stale = True
        self.trace.completions[tid] = self.now
        self.trace.log.append((COMPLETED, tid))
        for other in self._dependents.pop(tid, ()):
            missing = self._deps_done[other]
            missing.discard(tid)
            if not missing:
                heapq.heappush(self._pending, (max(self.tasks[other].arrival, self.now), other))
        self._apply_commands(self.scheduler.on_completion(self.view, tid))

    def _arrive(self, tid: int) -> None:
        self._alive.add(tid)
        self.trace.arrivals[tid] = self.now
        self._apply_commands(self.scheduler.on_arrival(self.view, self.view.task(tid)))

    def _set_allocation(self) -> None:
        raw = self.scheduler.allocate(self.view)
        if raw == self.alloc:
            # the rates in force: checked when they were set, and the
            # cached finish time still holds
            return
        alloc: dict[int, Rat] = {}
        running, decisions = self._running, self.trace.decisions
        for tid, rate in raw.items():
            if type(rate) is not Rat:
                rate = Rat(rate)
            if rate._numerator <= 0:
                if rate._numerator < 0:
                    raise FeasibilityError(f"negative rate for task {tid}")
                continue
            if tid not in running:
                raise FeasibilityError(
                    f"rate for task {tid} which is not started/unfinished"
                )
            if rate._numerator > rate._denominator and decisions[tid][0] is Decision.SERIAL:
                raise FeasibilityError(f"serial task {tid} rate {rate} > 1")
            alloc[tid] = rate
        total = rat_sum(alloc.values())
        if total > self.budget:
            raise FeasibilityError(
                f"allocation total {total} exceeds budget {self.budget}"
            )
        self.alloc = alloc
        self._finish_stale = True

    def _process_instant(self) -> None:
        """Process every event at the current clock time, batch by batch (what
        a batch unlocks or sets is in the next), then re-allocate."""
        now = self.now
        pending, timers = self._pending, self._timers
        while True:
            due = self._due
            if due:
                self._due = []
                due.sort()
            arriving = tags = ()
            if pending and pending[0][0] == now:
                arriving = [heapq.heappop(pending)[1]]
                while pending and pending[0][0] == now:
                    arriving.append(heapq.heappop(pending)[1])
            if timers and timers[0][0] == now:
                tags = [heapq.heappop(timers)[2]]
                while timers and timers[0][0] == now:
                    tags.append(heapq.heappop(timers)[2])
            if not (due or arriving or tags):
                if self.adversary is not None:
                    injected = self.adversary.on_event(self.view)
                    if injected:
                        for task in injected:
                            self.inject_task(task)
                        self.trace.injected.extend(injected)
                        if pending and pending[0][0] == now:
                            self._event_count += 1  # injection counts as an event
                            continue
                break
            self._event_count += len(due) + len(arriving) + len(tags)
            if self._event_count > MAX_EVENTS:
                raise RunawayError(f"event count exceeded bound {MAX_EVENTS}")
            for tid in due:
                self._complete(tid)
            for tid in arriving:
                self._arrive(tid)
            for tag in tags:
                self._apply_commands(self.scheduler.on_timer(self.view, tag))
        self._set_allocation()

    # -- driving -------------------------------------------------------------

    def _startup(self) -> None:
        if not self._started:
            self._started = True
            self._apply_commands(self.scheduler.setup(self.view))
            self._process_instant()

    def advance_to(self, t: Rat) -> Rat | None:
        """Process all events with time <= t and move the clock to t; the
        next event time after that."""
        if type(t) is not Rat:
            t = Rat(t)
        self._startup()
        while True:
            nxt = self.next_event_time()
            if nxt is None or nxt > t:
                break
            self._advance_clock(nxt)
            self._process_instant()
        if t != self.now:
            self._advance_clock(t)
        return nxt

    def run(self) -> Trace:
        self._startup()
        while not self.done:
            nxt = self.next_event_time()
            if nxt is None:
                raise RunawayError(
                    "alive tasks but no future events: scheduler made no progress"
                )
            self._advance_clock(nxt)
            self._process_instant()
        return self.trace


def simulate(
    tap: TAP,
    scheduler: Scheduler,
    config: EngineConfig | None = None,
    adversary: Adversary | None = None,
) -> Trace:
    """Run one simulation to completion and return its trace."""
    return Engine(tap, scheduler, config, adversary).run()


# --- trace validation -------------------------------------------------------

@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_trace(trace: Trace, tap: TAP, config: EngineConfig | None = None) -> ValidationReport:
    """Check every trace invariant; violations are data, not exceptions.

    One pass over the slices; a task's final run starts at its last
    cancellation.  A serial task's rate is capped at 1 over its final run,
    and a completed task's work is accumulated over it.  A task of ``tap``
    is available at max(release, dependency completions)."""
    config = config or EngineConfig()
    report = ValidationReport()
    budget = _budget(tap, config)
    tasks = {t.id: t for t in tap.tasks}
    # extra tasks may have been injected by an adversary; trust trace arrivals
    cancel_times: dict[int, Rat] = {}
    for tid, at in trace.cancellations:
        cancel_times[tid] = max(at, cancel_times.get(tid, ZERO))
    # id -> (decision, availability, completion, last cancellation), read once
    known: dict[int, tuple] = {}
    work: dict[int, Rat] = {}  # completed id -> rate x time over its final run
    serial_cap_violated: set[int] = set()
    prev_end, serial = None, Decision.SERIAL
    for t0, t1, alloc in trace.slices:
        empty = t1 <= t0
        if empty:
            report.violations.append(f"slice [{t0},{t1}] is empty or reversed")
        if prev_end is not None and t0 != prev_end:
            report.violations.append(f"slice gap/overlap at {t0} (previous end {prev_end})")
        prev_end = t1
        neg_span = t0 - t1  # negated: work + rate*length is sub_mul(work, rate, -length)
        after_zero = t0 >= 0  # a task never cancelled counts from time 0
        n, d = 0, 1  # the total rate n/d, over the least common denominator
        for tid, rate in alloc.items():
            rn, rd = rate._numerator, rate._denominator
            if rd == d:
                n += rn
            else:
                g = gcd(d, rd)
                n, d = n * (rd // g) + rn * (d // g), d * (rd // g)
            if rn < 0:
                report.violations.append(f"negative rate for task {tid} at {t0}")
            facts = known.get(tid)
            if facts is None:
                decided = trace.decisions.get(tid)
                facts = known[tid] = (
                    decided and decided[0], trace.arrivals.get(tid),
                    trace.completions.get(tid), cancel_times.get(tid))
            decision, arrival, done, start = facts
            if decision is None:
                report.violations.append(f"rate for undecided task {tid} at {t0}")
                continue
            if arrival is None:
                report.violations.append(f"rate for unavailable task {tid} at {t0}")
            elif t0 < arrival:
                report.violations.append(f"task {tid} runs before arrival at {t0}")
            late = done is not None and t1 > done
            if late:
                report.violations.append(f"task {tid} runs after completion at {t0}")
            if not late and (after_zero if start is None else t0 >= start):
                if empty:
                    continue
                neg_length = neg_span  # the whole slice counts
            else:
                a = max(t0, ZERO if start is None else start)
                b = done if late else t1
                if b <= a:
                    continue
                neg_length = a - b
            if decision is serial and rate > 1:
                serial_cap_violated.add(tid)
                rate = ONE
            if done is not None:
                work[tid] = sub_mul(work.get(tid, ZERO), rate, neg_length)
        if n * budget._denominator > budget._numerator * d:
            report.violations.append(
                f"budget violation at {t0}: total {Rat(n, d)} > {budget}"
            )
    if not config.allow_cancel and trace.cancellations:
        report.violations.append("cancellations present with allow_cancel=false")
    speed = Rat(config.speed)
    for tid in trace.completions:
        if tid not in trace.arrivals:
            report.violations.append(f"task {tid} completed without being available")
        if tid not in trace.decisions:
            report.violations.append(f"task {tid} completed without a decision")
            continue
        if tid in serial_cap_violated:
            report.violations.append(f"serial task {tid} allocated rate > 1")
        task = tasks.get(tid)
        if task is not None:
            did = speed * work.get(tid, ZERO)
            expected = task.work(trace.decisions[tid][0])
            if did != expected:
                report.violations.append(
                    f"work conservation: task {tid} did {did}, expected {expected}"
                )
    for tid in sorted(serial_cap_violated.difference(trace.completions)):
        report.violations.append(f"serial task {tid} allocated rate > 1")
    for tid, avail in trace.arrivals.items():
        task = tasks.get(tid)
        if task is None:
            continue
        expected = task.arrival
        for dep in task.deps:
            done = trace.completions.get(dep)
            if done is None:
                report.violations.append(
                    f"task {tid} available at {avail} before dependency {dep} completed")
                break
            expected = max(expected, done)
        else:
            if avail != expected:
                report.violations.append(
                    f"task {tid} available at {avail}, expected {expected}")
        decided = trace.decisions.get(tid)
        if decided is not None and decided[1] < avail:
            report.violations.append(
                f"task {tid} decided at {decided[1]} before it is available at {avail}")
    return report
