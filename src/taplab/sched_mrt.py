"""Mean-response-time schedulers.

* ``equi_alloc`` / ``EquiScheduler``: equal division of the budget;
* SSS: silly/serious two-mode scheduler for serial-only instances;
* CANC: cancelling scheduler driven by a relaxed-job EQUI simulation;
* B: CANC with all per-type parallel work concentrated on one task of
  each type (power-of-two types), cancelling stand-ins and fake serial
  tasks as needed;
* C: non-cancelling; runs B on a 3x-scaled copy of the input inside a
  nested simulation and mirrors its allocations, with ballistic /
  semi-ballistic / emergency machinery for tasks whose mirrored work was
  stolen.

B and C share the lockstep plumbing of a nested run (``_Nested``).  CANC
and B spend half the budget on the parallel pool and half on the serial
pool: p + p on their default budget 2p, p/2 + p/2 inside C's nested run
on a quarter of C's budget (p at its default 4p).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Decision, TAP, Task, TapError
from .engine import Engine, EngineConfig, SchedCommands, Scheduler
from .rationals import Rat, ZERO, ONE


class MrtInvariantError(TapError):
    """A scheduler-internal invariant failed (indicates a real bug)."""


def equi_alloc(ids, budget, serial_cap: bool) -> dict:
    """budget/k to each of k jobs; with serial_cap each rate is capped at 1
    and the surplus is not redistributed (flat-curve jobs gain nothing)."""
    ids = list(ids)
    if not ids:
        return {}
    share = Rat(budget) / len(ids)
    if serial_cap:
        share = min(share, ONE)
    return {tid: share for tid in ids}


@dataclass
class RelaxedJob:
    """Surrogate job with work 2*sigma and a threshold speedup curve."""

    task_id: int
    total_work: Rat  # 2 sigma
    threshold: Rat  # pi / sigma
    progress: Rat = ZERO


def relaxed_rate(job: RelaxedJob, x) -> Rat:
    """Progress rate on x processors: 0 at x=0, 1 below the threshold,
    x/threshold at or above it."""
    x = Rat(x)
    if x == 0:
        return ZERO
    if x < job.threshold:
        return ONE
    return x / job.threshold


def _task_class(sigma, pi) -> Rat:
    return Rat(pi) / Rat(sigma)


# --- EQUI baseline ----------------------------------------------------------

class EquiScheduler(Scheduler):
    """Oblivious baseline: every task runs in parallel under EQUI."""

    name = "equi"

    def on_arrival(self, view, task):
        return SchedCommands(starts={task.id: Decision.PARALLEL})

    def allocate(self, view) -> dict:
        return equi_alloc(view.running_ids(), view.budget, serial_cap=False)


class RigidScheduler(Scheduler):
    """Non-preemptive baseline: one task at a time, all p processors,
    FCFS, never preempted."""

    name = "rigid"

    def __init__(self):
        self.queue: list[int] = []
        self.current: int | None = None

    def _start_next(self, view):
        if self.current is not None or not self.queue:
            return None
        self.current = self.queue.pop(0)
        return SchedCommands(starts={self.current: Decision.PARALLEL})

    def on_arrival(self, view, task):
        self.queue.append(task.id)
        return self._start_next(view)

    def on_completion(self, view, tid):
        if tid == self.current:
            self.current = None
        return self._start_next(view)

    def allocate(self, view) -> dict:
        if self.current is None:
            return {}
        return {self.current: Rat(view.p)}


# --- SSS --------------------------------------------------------------------

class SssScheduler(Scheduler):
    """Two-mode scheduler for serial-only instances (budget at least 2p).

    It runs every task serially, on any input.  Whether it should declare
    a serial-only input class, and refuse other instances, is an open
    decision for the repository's owner (ROADMAP item 2).

    Silly mode (< p alive jobs): every job gets its own processor.
    Serious mode (>= p alive): the jobs carried over from the silly
    interval keep dedicated processors from the first half of the budget;
    jobs arriving during the serious interval (including at the switch
    instant) are "scary" and share the second half under EQUI with the
    serial cap.
    """

    name = "sss"
    budget_factor = min_budget_factor = 2

    def __init__(self):
        self.mode = "silly"
        self.half = ZERO  # of the budget: the scary jobs' share
        self.scary: set[int] = set()
        self.modes: list = []  # (time, mode entered), per switch

    def setup(self, view):
        self.half = view.budget / 2
        return None

    def _update_mode(self, view, arriving: int | None = None):
        alive = view.alive_ids()
        if self.mode == "silly" and len(alive) >= view.p:
            self.mode = "serious"
            # everything arriving at the switch instant counts as scary
            self.scary = {
                tid for tid in alive if view.avail_time(tid) == view.now
            }
            self.modes.append((view.now, "serious"))
        elif self.mode == "serious":
            if arriving is not None:
                self.scary.add(arriving)
            if len(alive) < view.p:
                self.mode = "silly"
                self.scary = set()
                self.modes.append((view.now, "silly"))

    def on_arrival(self, view, task):
        commands = SchedCommands(starts={task.id: Decision.SERIAL})
        self._update_mode(view, arriving=task.id)
        return commands

    def on_completion(self, view, tid):
        self.scary.discard(tid)
        self._update_mode(view)
        return None

    def allocate(self, view) -> dict:
        running = view.running_ids()
        if self.mode == "silly":
            return {tid: ONE for tid in running}
        alloc = {tid: ONE for tid in running if tid not in self.scary}
        alloc.update(
            equi_alloc(
                [tid for tid in running if tid in self.scary], self.half, serial_cap=True
            )
        )
        return alloc


# --- CANC -------------------------------------------------------------------

class CancScheduler(Scheduler):
    """Cancelling MRT scheduler (default budget 2p: p parallel + p serial).

    Arriving tasks enter the parallel pool, which runs EQUI over the
    relaxed jobs on half the budget; each real task receives exactly the
    processor rate of its relaxed job.  A task still alive when its pool
    age reaches sigma is cancelled and restarted serially; the serial
    pool runs EQUI with the serial cap on the other half.
    """

    name = "canc"
    budget_factor, cancels = 2, True

    def __init__(self):
        self.half = ZERO  # of the budget: the parallel and the serial pool's
        self.relaxed: dict[int, RelaxedJob] = {}
        self.pool_entry: dict[int, Rat] = {}
        self.par_shares: dict[int, Rat] = {}
        self.last_sync = ZERO
        self.pool_ages: list = []  # (id, pool age), per cancellation

    def setup(self, view):
        self.half = view.budget / 2
        return None

    def _sync(self, view):
        dt = view.now - self.last_sync
        if dt > 0:
            for tid, job in self.relaxed.items():
                job.progress += relaxed_rate(job, self.par_shares.get(tid, ZERO)) * dt
        self.last_sync = view.now
        for tid, job in self.relaxed.items():
            if (
                job.progress >= job.total_work
                and view.status(tid) == "running"
                and view.remaining(tid) > 0
            ):
                raise MrtInvariantError(
                    f"relaxed job {tid} finished ({job.progress} >= "
                    f"{job.total_work}) before the real task"
                )

    def on_arrival(self, view, task):
        self._sync(view)
        self.relaxed[task.id] = RelaxedJob(
            task.id, 2 * task.sigma, _task_class(task.sigma, task.pi)
        )
        self.pool_entry[task.id] = view.now
        return SchedCommands(
            starts={task.id: Decision.PARALLEL},
            timers=[(view.now + task.sigma, ("canc", task.id))],
        )

    def on_completion(self, view, tid):
        self._sync(view)
        self.relaxed.pop(tid, None)
        self.par_shares.pop(tid, None)
        return None

    def on_timer(self, view, tag):
        self._sync(view)
        kind, tid = tag
        if kind != "canc" or tid not in self.relaxed:
            return None
        # completion is checked first; only strictly-alive tasks cancel
        if view.status(tid) != "running" or view.remaining(tid) == 0:
            return None
        age = view.now - self.pool_entry[tid]
        if age != view.task(tid).sigma:  # pragma: no cover
            raise MrtInvariantError(f"cancel timer for {tid} at pool age {age}")
        del self.relaxed[tid]
        self.par_shares.pop(tid, None)
        self.pool_ages.append((tid, age))
        return SchedCommands(cancels={tid}, starts={tid: Decision.SERIAL})

    def allocate(self, view) -> dict:
        parallel = [
            tid for tid in self.relaxed if view.status(tid) == "running"
        ]
        alloc = equi_alloc(parallel, self.half, serial_cap=False)
        self.par_shares = dict(alloc)
        serial = [
            tid
            for tid in view.running_ids()
            if view.decision(tid) is Decision.SERIAL
        ]
        alloc.update(equi_alloc(serial, self.half, serial_cap=True))
        return alloc


# --- nested runs ------------------------------------------------------------

class _Nested(Scheduler):
    """Runs a scheduler in a nested engine, in lockstep with this one: each
    arrival is fed in with its works times ``scale``, every callback catches
    the nested run up to the outer clock (``_sync``), and a timer wakes this
    scheduler at the nested run's next event."""

    scale = ONE  # work scale of the nested run

    def __init__(self):
        self.inner: Engine | None = None
        self.last_sync = ZERO
        self.completions_read = 0
        self.cancellations_read = 0
        self.timer_times: set = set()

    def _nest(self, view, scheduler, budget) -> None:
        config = EngineConfig(processor_budget=budget, allow_cancel=scheduler.cancels)
        self.inner = Engine(TAP(view.p, ()), scheduler, config)

    def _feed(self, view, task) -> None:
        scale = self.scale
        self.inner.inject_task(Task(task.id, task.sigma * scale, task.pi * scale, view.now))

    def _catch_up(self, view) -> Rat:
        """Advance the nested run to the outer clock; the time since the last call."""
        self.inner.advance_to(view.now)
        dt, self.last_sync = view.now - self.last_sync, view.now
        return dt

    def _new_completions(self) -> list:
        """Ids the nested run completed since the last call, in completion order."""
        new = list(self.inner.trace.completions)[self.completions_read:]
        self.completions_read += len(new)
        return new

    def _new_cancellations(self) -> list:
        """Ids the nested run cancelled since the last call, in cancellation order."""
        new = self.inner.trace.cancellations[self.cancellations_read:]
        self.cancellations_read += len(new)
        return [tid for tid, _ in new]

    def _wake_at(self, commands, t, tag) -> None:
        """A timer at ``t``, unless one was already set for ``t``."""
        if t not in self.timer_times:
            self.timer_times.add(t)
            commands.timers.append((t, tag))

    def on_timer(self, view, tag):
        return self._sync(view)


# --- B ----------------------------------------------------------------------

@dataclass(eq=False)
class _TypeState:
    key: tuple  # (sigma, pi)
    members: list = field(default_factory=list)  # arrival order; head is runner


def _unstarted(view, tid, commands) -> bool:
    return view.decision(tid) is None and tid not in commands.starts


def _cancellable(view, tid) -> bool:
    # a runner whose remaining work is 0 completes in this very batch and
    # must not be cancelled out from under the engine
    return (
        view.decision(tid) is Decision.PARALLEL
        and view.status(tid) == "running"
        and view.remaining(tid) > 0
    )


def _movable(view, tid, commands) -> bool:
    return _unstarted(view, tid, commands) or _cancellable(view, tid)


class BScheduler(_Nested):
    """Concentrates CANC's per-type parallel work onto one task per type.

    Runs CANC inside a nested simulation fed the same arrivals and, at
    every instant, gives one running task per power-of-two type the sum of
    the rates CANC gives that type.  The nested CANC runs on this
    scheduler's budget, and the serial pool here gets half of it, as
    CANC's does.  When CANC cancels a task of a type, a
    not-yet-started task of the type is serialized (most recent arrival
    first), else the running one is cancelled, else a fake serial task of
    the type's serial work takes an EQUI share of the serial pool.
    A type is a distinct (sigma, pi), so B runs on any input (C feeds it
    works scaled by 3); power-of-two rounding only bounds the number of
    types.
    """

    name = "bsched"
    budget_factor, cancels = 2, True

    def __init__(self):
        super().__init__()
        self.half = ZERO  # of the budget: the serial pool's
        self.types: dict[tuple, _TypeState] = {}  # by (sigma, pi), in first-arrival order
        self.type_of: dict[int, _TypeState] = {}  # task id -> its type
        self.fakes: list[Rat] = []  # remaining work of each fake serial task
        self.fake_share = ZERO

    def setup(self, view):
        self.half = view.budget / 2
        self._nest(view, CancScheduler(), view.budget)
        return None

    # -- nested-simulation bookkeeping --------------------------------------

    def _serialize(self, view, state, tid, commands) -> None:
        """Evict a member of ``state`` to the serial pool."""
        state.members.remove(tid)
        if _cancellable(view, tid):
            commands.cancels.add(tid)
        commands.starts[tid] = Decision.SERIAL

    def _handle_inner_cancel(self, view, inner_tid, commands):
        state = self.type_of[inner_tid]
        members = state.members
        # Prefer the very task whose stand-in was cancelled: this way a
        # runner is cancelled no later than its own pool age sigma, which
        # is what makes every parallel completion finish within sigma of
        # arrival.  Fall back to the most recent never-started member,
        # then the runner, then a fake serial task.
        if inner_tid in members and _movable(view, inner_tid, commands):
            victim = inner_tid
        else:
            victim = next(
                (m for m in reversed(members) if _unstarted(view, m, commands)), None
            )
            if victim is None:
                victim = next((m for m in members if _cancellable(view, m)), None)
        if victim is not None:
            self._serialize(view, state, victim, commands)
        else:
            # every real task of the type is already done: fake serial task
            self.fakes.append(state.key[0])  # sigma of the type

    def _sync(self, view) -> SchedCommands:
        dt = self._catch_up(view)
        if dt > 0 and self.fakes:
            done = self.fake_share * dt
            self.fakes = [work - done for work in self.fakes if work > done]
        commands = SchedCommands()
        for inner_tid in self._new_cancellations():
            self._handle_inner_cancel(view, inner_tid, commands)
        for inner_tid in self._new_completions():
            # CANC serializes a task only by cancelling it, and at that
            # cancel B evicts the task or it completes, so a serial nested
            # completion is never a member here
            state = self.type_of[inner_tid]
            if inner_tid in state.members and _movable(view, inner_tid, commands):
                # the nested run finished this task's stand-in but the task
                # itself is still behind (a runner cancellation discarded
                # concentrated work): evict it to the serial pool so the
                # parallel slot retires here too
                self._serialize(view, state, inner_tid, commands)
        # make sure each type's runner is started
        for state in self.types.values():
            if state.members and _unstarted(view, state.members[0], commands):
                commands.starts[state.members[0]] = Decision.PARALLEL
        nxt = self.inner.next_event_time()
        if nxt is not None:
            self._wake_at(commands, nxt, ("inner",))
        if self.fakes and self.fake_share > 0:
            due = view.now + min(self.fakes) / self.fake_share
            self._wake_at(commands, due, ("fake",))
        return commands

    # -- engine callbacks ----------------------------------------------------

    def on_arrival(self, view, task):
        key = (task.sigma, task.pi)
        state = self.types.setdefault(key, _TypeState(key))
        self.type_of[task.id] = state
        state.members.append(task.id)
        self._feed(view, task)
        return self._sync(view)

    def on_completion(self, view, tid):
        members = self.type_of[tid].members
        if tid in members:
            members.remove(tid)
        return self._sync(view)

    def allocate(self, view) -> dict:
        alloc: dict[int, Rat] = {}
        # concentrated parallel rates
        type_rate: dict[_TypeState, Rat] = {}
        for inner_tid, rate in self.inner.alloc.items():
            if self.inner.decision.get(inner_tid) is Decision.PARALLEL:
                state = self.type_of[inner_tid]
                type_rate[state] = type_rate.get(state, ZERO) + rate
        for state, rate in type_rate.items():
            if not state.members:
                continue  # all real tasks of the type already finished
            runner = state.members[0]
            if (
                view.status(runner) == "running"
                and view.decision(runner) is Decision.PARALLEL
            ):
                alloc[runner] = rate
        # serial pool: real serialized tasks plus fakes, EQUI with cap
        serial = [
            tid
            for tid in view.running_ids()
            if view.decision(tid) is Decision.SERIAL
        ]
        k = len(serial) + len(self.fakes)
        share = min(ONE, self.half / k) if k else ZERO
        for tid in serial:
            alloc[tid] = share
        self.fake_share = share
        return alloc


# --- C ----------------------------------------------------------------------

@dataclass
class _ModeRecord:
    task_id: int
    mode: str  # ballistic | semi-ballistic
    entered: Rat
    trigger: str  # serialized | inner-completed
    exited: Rat | None = None


class CScheduler(_Nested):
    """Non-cancelling MRT scheduler (budget at least 4p, power-of-two works).

    Works in units of a quarter of the budget (p at the default 4p).
    Simulates B on a copy of the input with all works scaled by 3 on one
    unit, and mirrors B's allocations onto its own tasks.  A task
    is vested once it receives parallel rate here.  When the nested B
    serializes or parallel-completes a vested task this scheduler has not
    finished, the task goes ballistic: its parallelism class enters
    emergency, all the class's mirrored parallel rate is redirected to the
    class's smallest-sigma ballistic task (recorded in the stolen-work
    ledger), the class reserve joins in, and vesting pauses for the class.
    A task the nested B parallel-completes before vesting goes
    semi-ballistic and runs serially under EQUI on a second unit.
    """

    name = "csched"
    budget_factor = min_budget_factor = 4
    pow2_works = True
    scale = Rat(3)  # work scale of the nested B run

    def __init__(self):
        super().__init__()
        self.unit = ZERO  # a quarter of the budget
        self.task_info: dict[int, Task] = {}
        self.task_class: dict[int, Rat] = {}  # fixed at arrival
        self.vested: set[int] = set()
        self.ballistic: set[int] = set()
        self.semibal: set[int] = set()
        self.stolen: dict[int, Rat] = {}
        self.flows: list = []  # (victim tid, rate) active over the last slice
        self.seen_decisions: dict[int, Decision] = {}
        self.mode_records: list[_ModeRecord] = []

    def setup(self, view):
        # a unit each for the mirror and the semi-ballistic pool, up to two
        # for the class reserves
        self.unit = view.budget / 4
        self._nest(view, BScheduler(), self.unit)
        return None

    def _emergency_classes(self):
        """Classes with a ballistic task; an empty tuple while none is."""
        return {self.task_class[tid] for tid in self.ballistic} if self.ballistic else ()

    def _smallest_ballistic(self, cls) -> int:
        candidates = [
            tid for tid in self.ballistic if self.task_class[tid] == cls
        ]
        candidates.sort(key=lambda tid: (self.task_info[tid].sigma, tid))
        if len(candidates) >= 2 and (
            self.task_info[candidates[0]].sigma
            == self.task_info[candidates[1]].sigma
        ):
            raise MrtInvariantError(
                f"two concurrently-ballistic tasks of class {cls} share "
                f"serial work {self.task_info[candidates[0]].sigma}"
            )
        return candidates[0]

    def _enter_ballistic(self, view, tid, trigger):
        cls = self.task_class[tid]
        sigma = self.task_info[tid].sigma
        for other in self.ballistic:
            if self.task_class[other] == cls and self.task_info[other].sigma == sigma:
                raise MrtInvariantError(
                    f"tasks {other} and {tid} are concurrently ballistic with "
                    f"equal serial work in class {cls}"
                )
        self.ballistic.add(tid)
        self.mode_records.append(
            _ModeRecord(tid, "ballistic", view.now, trigger)
        )

    def _enter_semibal(self, view, tid, trigger, commands):
        self.semibal.add(tid)
        commands.starts[tid] = Decision.SERIAL
        self.mode_records.append(
            _ModeRecord(tid, "semi-ballistic", view.now, trigger)
        )

    def _sync(self, view) -> SchedCommands:
        dt = self._catch_up(view)
        if dt > 0:
            for victim, rate in self.flows:
                self.stolen[victim] = self.stolen.get(victim, ZERO) + rate * dt
        commands = SchedCommands()
        outer_done = view.trace.completions
        # transitions driven by the nested B run
        for tid, (dec, _, _) in self.inner.trace.decisions.items():
            if self.seen_decisions.get(tid) is dec:
                continue
            self.seen_decisions[tid] = dec
            if dec is Decision.SERIAL:
                # B serialized the task (cancelled it, or never ran it parallel)
                if tid in self.vested and tid not in outer_done:
                    if tid not in self.ballistic:
                        self._enter_ballistic(view, tid, "serialized")
                elif view.decision(tid) is None and tid not in self.semibal:
                    commands.starts[tid] = Decision.SERIAL
            # None -> PARALLEL transitions are handled by the vesting scan
        for tid in self._new_completions():
            if self.seen_decisions.get(tid) is not Decision.PARALLEL:
                continue  # serial completion inside the nested run
            if tid in outer_done:
                continue
            if tid in self.vested:
                if tid not in self.ballistic:
                    self._enter_ballistic(view, tid, "inner-completed")
            elif tid not in self.semibal:
                self._enter_semibal(view, tid, "inner-completed", commands)
        # vesting: nested B runs the task in parallel and its class is calm
        emergency = self._emergency_classes()
        for tid in self.inner.alloc:
            if self.inner.decision.get(tid) is not Decision.PARALLEL:
                continue
            if tid in self.vested or tid in outer_done or tid in self.semibal:
                continue
            if view.decision(tid) is not None:
                continue
            if emergency and self.task_class[tid] in emergency:
                continue  # vesting paused for the class
            self.vested.add(tid)
            commands.starts[tid] = Decision.PARALLEL
        # redirect flows for the next slice
        self.flows = [
            (tid, rate)
            for tid, rate in self.inner.alloc.items()
            if self.inner.decision.get(tid) is Decision.PARALLEL
            and self.task_class[tid] in emergency
        ] if emergency else []
        nxt = self.inner.next_event_time()
        if nxt is not None:
            self._wake_at(commands, nxt, ("inner",))
        return commands

    # -- engine callbacks ----------------------------------------------------

    def on_arrival(self, view, task):
        self.task_info[task.id] = task
        self.task_class[task.id] = _task_class(task.sigma, task.pi)
        self._feed(view, task)
        return self._sync(view)

    def on_completion(self, view, tid):
        if tid in self.ballistic:
            self.ballistic.discard(tid)
            for rec in self.mode_records:
                if rec.task_id == tid and rec.mode == "ballistic" and rec.exited is None:
                    rec.exited = view.now
        self.semibal.discard(tid)
        return self._sync(view)

    def allocate(self, view) -> dict:
        alloc: dict[int, Rat] = {}

        def add(tid, rate):
            if rate > 0:
                alloc[tid] = alloc.get(tid, ZERO) + rate

        emergency = self._emergency_classes()
        outer_done = view.trace.completions
        # mirror of the nested B allocation on the first unit
        for tid, rate in self.inner.alloc.items():
            dec = self.inner.decision.get(tid)
            if dec is Decision.PARALLEL:
                if emergency and (cls := self.task_class[tid]) in emergency:
                    add(self._smallest_ballistic(cls), rate)
                elif (
                    tid not in outer_done
                    and view.decision(tid) is Decision.PARALLEL
                ):
                    add(tid, rate)
                # otherwise the mirror processors idle
            else:  # serial mirror
                if (
                    tid not in outer_done
                    and tid not in self.ballistic
                    and tid not in self.semibal
                    and view.decision(tid) is Decision.SERIAL
                ):
                    add(tid, rate)
        # class reserves for ballistic tasks: class ratio 2^j times unit/p
        # each (2^j processors at the default budget)
        for cls in emergency:
            add(self._smallest_ballistic(cls), cls * self.unit / view.p)
        # semi-ballistic pool: EQUI with the serial cap on the second unit
        semibal_running = [
            tid
            for tid in self.semibal
            if view.status(tid) == "running"
        ]
        for tid, share in equi_alloc(
            semibal_running, self.unit, serial_cap=True
        ).items():
            add(tid, share)
        return alloc
