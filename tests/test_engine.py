import hashlib
import json
import re
from dataclasses import is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab import engine as engine_mod, sched_mrt
from taplab.adversary import (
    GenParams,
    GoldenAdversary,
    NonPreemptiveAdversary,
    flood_probe,
    gen_random,
    gen_random_dtap,
    golden_probe,
)
from taplab.core import Decision, TAP, Task, metrics_from_trace, scale_tap
from taplab.engine import (
    CANCELLED,
    COMPLETED,
    Adversary,
    ContractError,
    Engine,
    EngineConfig,
    FeasibilityError,
    RunawayError,
    SchedCommands,
    Scheduler,
    Trace,
    simulate,
    validate_trace,
)
from taplab.rationals import Rat, ZERO, ONE, rat_str
from taplab.sched_awake import BalScheduler
from taplab.verify import _awake_corpus, make_scheduler, run, run_config

from conftest import small_dtaps, small_taps


def T(tid, sigma, pi, arrival=0, deps=()):
    return Task(tid, Rat(sigma), Rat(pi), Rat(arrival), frozenset(deps))


class _Fixed(Scheduler):
    """Start every task immediately with a fixed decision; give each
    serial task rate 1 and split the rest evenly over parallel tasks."""

    def __init__(self, decision):
        self.decision = decision

    def on_arrival(self, view, task):
        return SchedCommands(starts={task.id: self.decision})

    def allocate(self, view):
        serial = [t for t in view.running_ids() if view.decision(t) is Decision.SERIAL]
        parallel = [t for t in view.running_ids() if view.decision(t) is Decision.PARALLEL]
        alloc = {tid: ONE for tid in serial}
        left = view.budget - len(serial)
        if parallel and left > 0:
            for tid in parallel:
                alloc[tid] = left / len(parallel)
        return alloc


class _Rogue(_Fixed):
    """``_Fixed`` serially, except that ``arrival(view, task)``,
    ``completion(view, tid)`` and ``alloc(view)``, when given, replace its
    arrival commands, its completion commands and its allocation."""

    def __init__(self, arrival=None, alloc=None, completion=None):
        super().__init__(Decision.SERIAL)
        self.arrival, self.alloc, self.completion = arrival, alloc, completion

    def on_arrival(self, view, task):
        return self.arrival(view, task) if self.arrival else super().on_arrival(view, task)

    def on_completion(self, view, tid):
        return self.completion(view, tid) if self.completion else None

    def allocate(self, view):
        return self.alloc(view) if self.alloc else super().allocate(view)


class _Injector(Adversary):
    """Injects ``tasks`` at every quiet instant after time ``after``."""

    def __init__(self, tasks, after=-1):
        self.tasks, self.after = tasks, after

    def on_event(self, view):
        return self.tasks if view.now > self.after else []


ONE_TASK = TAP(2, (T(0, 1, 2),))
LATE_SECOND = TAP(2, (T(0, 1, 2), T(1, 1, 2, arrival=5)))
#: (id, tap, scheduler, adversary, allow_cancel, error, message): one broken
#: contract each
MISBEHAVIOURS = [
    ("duplicate-injected-id", ONE_TASK, _Rogue(), _Injector([T(0, 1, 2)]), False,
     ContractError, "duplicate task id 0"),
    ("injected-in-the-past", ONE_TASK, _Rogue(), _Injector([T(5, 1, 2)], after=0), False,
     ContractError, "injected task 5 arrives in the past (0 < 1)"),
    ("cancel-not-running", LATE_SECOND,
     _Rogue(arrival=lambda view, task: SchedCommands(starts={0: Decision.SERIAL},
                                                     cancels={1})),
     None, True, ContractError, "cannot cancel task 1: not running"),
    ("cancel-serial", TAP(2, (T(0, 1, 2), T(1, 1, 2))),
     _Rogue(arrival=lambda view, task: SchedCommands(
         starts={0: Decision.SERIAL}) if task.id == 0 else SchedCommands(cancels={0})),
     None, True, ContractError, "cannot cancel serial task 0"),
    # both finish at time 1; task 0's completion comes first and must not
    # restart task 1, whose completion is already due
    ("cancel-finished", TAP(4, (T(0, 1, 2), T(1, 1, 2))),
     _Rogue(arrival=lambda view, task: SchedCommands(starts={task.id: Decision.PARALLEL}),
            completion=lambda view, tid: SchedCommands(
                cancels={1}, starts={1: Decision.SERIAL}) if tid == 0 else None),
     None, True, ContractError, "cannot cancel task 1: its work is done"),
    ("start-not-arrived", LATE_SECOND,
     _Rogue(arrival=lambda view, task: SchedCommands(
         starts={0: Decision.SERIAL, 1: Decision.SERIAL})),
     None, False, ContractError, "cannot start task 1: not arrived"),
    ("start-running", TAP(2, (T(0, 1, 2), T(1, 1, 2))),
     _Rogue(arrival=lambda view, task: SchedCommands(
         starts={0: Decision.SERIAL, task.id: Decision.SERIAL})),
     None, False, ContractError, "cannot start task 0: already running"),
    ("start-finished", LATE_SECOND,
     _Rogue(arrival=lambda view, task: SchedCommands(
         starts={0: Decision.SERIAL, task.id: Decision.SERIAL})),
     None, False, ContractError, "cannot start task 0: finished"),
    ("timer-in-the-past", ONE_TASK,
     _Rogue(arrival=lambda view, task: SchedCommands(timers=[(-1, "late")])),
     None, False, ContractError, "timer in the past: -1 < 0"),
    ("negative-rate", ONE_TASK, _Rogue(alloc=lambda view: {0: Rat(-1)}),
     None, False, FeasibilityError, "negative rate for task 0"),
    ("rate-not-running", LATE_SECOND, _Rogue(alloc=lambda view: {0: ONE, 1: ONE}),
     None, False, FeasibilityError, "rate for task 1 which is not started/unfinished"),
    ("serial-rate-above-1", ONE_TASK, _Rogue(alloc=lambda view: {0: Rat(2)}),
     None, False, FeasibilityError, "serial task 0 rate 2 > 1"),
    ("no-progress", ONE_TASK, _Rogue(arrival=lambda view, task: None),
     None, False, RunawayError, "alive tasks but no future events: scheduler made no progress"),
]


@pytest.mark.parametrize("tap, scheduler, adversary, allow_cancel, error, message",
                         [pytest.param(*row[1:], id=row[0]) for row in MISBEHAVIOURS])
def test_engine_refuses_a_broken_contract(tap, scheduler, adversary, allow_cancel, error,
                                          message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        simulate(tap, scheduler, EngineConfig(allow_cancel=allow_cancel), adversary)


class TestSingleTask:
    def test_serial_rate_one(self):
        tap = TAP(2, (T(0, 1, 2),))
        trace = simulate(tap, _Fixed(Decision.SERIAL))
        assert trace.completions[0] == 1

    def test_parallel_full_budget(self):
        tap = TAP(2, (T(0, 1, 2),))
        trace = simulate(tap, _Fixed(Decision.PARALLEL))
        assert trace.completions[0] == 1

    def test_speed_augmentation_halves_time(self):
        tap = TAP(2, (T(0, 1, 2),))
        trace = simulate(tap, _Fixed(Decision.PARALLEL), EngineConfig(speed=Rat(2)))
        assert trace.completions[0] == Rat(1, 2)

    def test_serial_cap(self):
        # a serial task never progresses faster than rate 1 even with
        # budget to spare
        tap = TAP(4, (T(0, 2, 8),))
        trace = simulate(tap, _Fixed(Decision.SERIAL))
        assert trace.completions[0] == 2


class TestContracts:
    def test_cancel_requires_flag(self):
        class Canceller(_Fixed):
            def on_timer(self, view, tag):
                return SchedCommands(cancels={0})

            def on_arrival(self, view, task):
                cmds = super().on_arrival(view, task)
                cmds.timers.append((Rat(1, 2), ("boom",)))
                return cmds

        with pytest.raises(ContractError):
            simulate(TAP(2, (T(0, 2, 4),)), Canceller(Decision.PARALLEL))

    def test_overspend_rejected(self):
        class Greedy(_Fixed):
            def allocate(self, view):
                return {0: Rat(view.p + 1)}

        with pytest.raises(FeasibilityError):
            simulate(TAP(2, (T(0, 1, 2),)), Greedy(Decision.PARALLEL))

    @pytest.mark.parametrize("speed", [0, -1, Rat(-1, 2)])
    def test_speed_must_be_positive(self, speed):
        with pytest.raises(ContractError, match="speed must be positive"):
            Engine(TAP(2, (T(0, 1, 2),)), _Fixed(Decision.SERIAL), EngineConfig(speed=speed))

    def test_event_bound(self, monkeypatch):
        # four arrivals and four completions: eight events
        tap = TAP(2, tuple(T(i, 1, 2, arrival=i) for i in range(4)))
        monkeypatch.setattr(engine_mod, "MAX_EVENTS", 8)
        assert len(simulate(tap, _Fixed(Decision.SERIAL)).completions) == 4
        monkeypatch.setattr(engine_mod, "MAX_EVENTS", 7)
        with pytest.raises(RunawayError, match="event count exceeded bound 7"):
            simulate(tap, _Fixed(Decision.SERIAL))

    def test_allocation_is_normalised(self):
        # an int rate becomes a Rat and a zero rate is dropped
        def first_only(view):
            running = view.running_ids()
            return {tid: int(tid == running[0]) for tid in running}

        tap = TAP(2, (T(0, 1, 2), T(1, 1, 2)))
        trace = simulate(tap, _Rogue(alloc=first_only))
        assert [alloc for _, _, alloc in trace.slices] == [{0: ONE}, {1: ONE}]
        assert all(type(rate) is Rat for _, _, alloc in trace.slices for rate in alloc.values())

    def test_dependency_gates_arrival(self):
        tap = TAP(2, (T(0, 1, 2), T(1, 1, 2, deps=(0,))))
        trace = simulate(tap, _Fixed(Decision.SERIAL))
        assert trace.arrivals[1] == 1
        assert trace.completions[1] == 2


class TestValidate:
    def _base(self):
        tap = TAP(4, (T(0, 1, 4),))
        return tap

    def test_engine_traces_clean(self):
        tap = self._base()
        trace = simulate(tap, _Fixed(Decision.SERIAL))
        assert validate_trace(trace, tap).ok

    def test_serial_cap_violation(self):
        tap = self._base()
        trace = Trace(
            slices=[(ZERO, Rat(1, 2), {0: Rat(2)})],
            decisions={0: (Decision.SERIAL, ZERO)},
            completions={0: Rat(1, 2)},
            arrivals={0: ZERO},
        )
        report = validate_trace(trace, tap)
        assert any("serial" in v for v in report.violations)

    def test_budget_violation(self):
        tap = self._base()
        trace = Trace(
            slices=[(ZERO, Rat(4, 5), {0: Rat(5)})],
            decisions={0: (Decision.PARALLEL, ZERO)},
            completions={0: Rat(4, 5)},
            arrivals={0: ZERO},
        )
        report = validate_trace(trace, tap)
        assert any("budget" in v for v in report.violations)

    def test_rate_before_arrival(self):
        tap = TAP(4, (T(0, 1, 1, arrival=1),))
        trace = Trace(
            slices=[(ZERO, ONE, {0: ONE})],
            decisions={0: (Decision.PARALLEL, ZERO)},
            completions={0: ONE},
            arrivals={0: ONE},
        )
        violations = validate_trace(trace, tap).violations
        assert violations == reference_validate(trace, tap) == [
            "task 0 runs before arrival at 0",
            "task 0 decided at 0 before it is available at 1",
        ]

    @pytest.mark.parametrize("tasks, slices, decided, completions, arrivals, expected", [
        # task 1 depends on task 0 but runs alongside it on [0, 1]
        ((T(0, 1, 1), T(1, 1, 1, deps=(0,))), [(0, 1, (0, 1))], 0, {0: 1, 1: 1},
         {0: 0, 1: 0}, ["task 1 available at 0, expected 1"]),
        # a dependency that never completed
        ((T(0, 2, 2), T(1, 1, 1, deps=(0,))), [(0, 1, (0, 1))], 0, {1: 1},
         {0: 0, 1: 0}, ["task 1 available at 0 before dependency 0 completed"]),
        # released at 5, recorded as available at 0
        ((T(0, 1, 1, arrival=5),), [(0, 1, (0,))], 0, {0: 1}, {0: 0},
         ["task 0 available at 0, expected 5"]),
        # a rate and a completion, but no availability record
        ((T(0, 1, 1),), [(0, 1, (0,))], 0, {0: 1}, {},
         ["rate for unavailable task 0 at 0", "task 0 completed without being available"]),
        # decided at 0, available only at 5
        ((T(0, 1, 1, arrival=5),), [(5, 6, (0,))], 0, {0: 6}, {0: 5},
         ["task 0 decided at 0 before it is available at 5"]),
    ], ids=["runs-beside-dependency", "dependency-unfinished", "available-before-release",
            "no-availability", "decided-before-available"])
    def test_availability(self, tasks, slices, decided, completions, arrivals, expected):
        tap = TAP(4, tasks)
        trace = Trace(
            slices=[(Rat(a), Rat(b), {tid: ONE for tid in ids}) for a, b, ids in slices],
            decisions={t.id: (Decision.SERIAL, Rat(decided)) for t in tasks},
            completions={tid: Rat(at) for tid, at in completions.items()},
            arrivals={tid: Rat(at) for tid, at in arrivals.items()},
        )
        violations = validate_trace(trace, tap).violations
        assert violations == reference_validate(trace, tap) == expected

    def test_unfinished_task_has_no_work_check(self):
        # task 0 gets half its serial work and never completes
        tap = TAP(4, (T(0, 2, 4),))
        trace = Trace(
            slices=[(ZERO, ONE, {0: ONE})],
            decisions={0: (Decision.SERIAL, ZERO)},
            arrivals={0: ZERO},
        )
        assert validate_trace(trace, tap).violations == reference_validate(trace, tap) == []

    def test_work_conservation_violation(self):
        tap = self._base()
        trace = Trace(
            slices=[(ZERO, ONE, {0: ONE})],
            decisions={0: (Decision.PARALLEL, ZERO)},
            completions={0: ONE},
            arrivals={0: ZERO},
        )
        report = validate_trace(trace, tap)
        assert any("conservation" in v for v in report.violations)


class TestProperties:
    @given(small_taps())
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, tap):
        a = simulate(tap, BalScheduler())
        b = simulate(tap, BalScheduler())
        assert a.slices == b.slices
        assert a.completions == b.completions
        assert a.decisions == b.decisions

    @given(small_taps(), st.sampled_from([2, 3, Rat(3, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_speed_augmentation_equivalence(self, tap, c):
        base = simulate(tap, BalScheduler())
        scaled = simulate(scale_tap(tap, c), BalScheduler(), EngineConfig(speed=Rat(c)))
        assert base.completions == scaled.completions

    @given(small_taps())
    @settings(max_examples=40, deadline=None)
    def test_metrics_sanity(self, tap):
        trace = simulate(tap, BalScheduler())
        assert validate_trace(trace, tap).ok
        if tap.n == 0:
            return
        m = metrics_from_trace(trace, tap)
        assert m.awake <= m.trt or tap.n == 1
        assert m.mrt * tap.n == m.trt
        fastest = max(min(t.sigma, t.pi / tap.p) for t in tap.tasks)
        assert m.awake >= fastest


# --- fast paths against the scanning references ------------------------------
#
# The engine caches the next completion time per allocation, keeps live
# alive/running index sets, collects completions in the clock step, unlocks
# dependents through a reverse index and validates a trace in one pass.  The
# scanning versions below are the references the fast paths must agree with
# exactly; the lifecycle references derive each task's state from the trace
# alone, independently of the index sets they check.

MRT = ("equi", "rigid", "sss", "canc", "bsched", "csched")

#: SHA-256 of the exact traces of ``_corpus()``, recorded with the scanning
#: engine; a fast path that changes any trace changes it.  Re-pinned when
#: each decision dropped its start time (the first slice that rates the
#: task holds it): the old digest recomputed with every decision cut to
#: (decision, decided_at)
CORPUS_TRACES_SHA256 = "6f4b543059adca4af00a58288c0e90f7a8563d04a47b3636b78c7837cbbc65ac"
#: SHA-256 of the diagnostic records the schedulers keep over the same runs;
#: re-pinned when C came to read nested serial decisions in the order the
#: nested engine applied them (same records, reordered within an instant)
CORPUS_RECORDS_SHA256 = "80439c8cea704940871b3be6691d2b4b99777410f335f9fd952481afbbcacb57"
#: the same two digests over ``_wide_corpus()``; the traces were recorded
#: before the MRT schedulers dropped their copies of engine state, the
#: records re-pinned with ``CORPUS_RECORDS_SHA256`` and the traces with
#: ``CORPUS_TRACES_SHA256``
WIDE_TRACES_SHA256 = "58a186b4f36183e65cea920e2608c67c7455d63cb22674d2c620f75a030164c8"
WIDE_RECORDS_SHA256 = "a253aca6e91841333b105cbe88762ec8a5a20a1f97b100a200de772d746fa369"
#: SHA-256 of the schedules of the awake schedulers on ``_awake_corpus(0,
#: 200)``: slices with adjacent equal rates merged (an instant at which
#: nothing happens does not show), decisions, completions and arrivals;
#: recorded while UNK still set aging timers that split its slices
AWAKE_SCHEDULES_SHA256 = "844e28e8e911d931afcf959cf562804753eb7470c861398a7ae8fa9b2e5655e5"
AWAKE = ("bal", "unk", "golden", "mwf-all-serial", "mwf-all-parallel")


def _corpus():
    """(tap, scheduler name) runs: pow2 instances under every MRT
    scheduler, random DTAPs under turtle."""
    runs = []
    for i in range(36):
        tap = gen_random(GenParams(
            p=(4, 8, 16)[i % 3], n=1 + i % 12, ratio_distribution="pow2",
            arrival_pattern=("batch", "poisson", "bursty")[i // 12], seed=7000 + i))
        runs += [(tap, name) for name in MRT]
    for k in range(12):
        runs.append((gen_random_dtap(GenParams(p=(4, 16)[k % 2], n=1 + k % 8,
                                               seed=8000 + k)), "turtle"))
    return runs


def _wide_corpus():
    """Every MRT scheduler on larger pow2 instances at p=32, where C's
    emergency classes overlap: an order change there (in the allocation's
    keys, say) shows on these and not on ``_corpus()``."""
    runs = []
    for n, arrivals, seed in ((25, "bursty", 50122), (26, "batch", 50247),
                              (33, "poisson", 50263), (40, "poisson", 50300),
                              (36, "bursty", 50301), (30, "batch", 50302)):
        tap = gen_random(GenParams(p=32, n=n, ratio_distribution="pow2",
                                   arrival_pattern=arrivals, seed=seed))
        runs += [(tap, name) for name in MRT]
    return runs


def _plain(x):
    """Backend-independent, order-preserving JSON form of trace data."""
    if isinstance(x, dict):
        return [[_plain(k), _plain(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if is_dataclass(x):
        return _plain(vars(x))
    if isinstance(x, Decision):
        return x.name
    if x is None or isinstance(x, (int, str)):
        return x
    return rat_str(x)


def _records(name, sched, trace) -> list:
    """The diagnostic records a registry scheduler kept over its run, in
    the form they were pinned in: CANC's (id, pool age) per cancellation,
    and each C mode record with its ``exited``, the completion time for a
    ballistic record and None for a semi-ballistic one, read off the
    trace."""
    if name == "canc":
        return [[(tid, at - trace.arrivals[tid]) for tid, at in trace.cancellations]]
    if name == "csched":
        return [[{**vars(r), "exited": trace.completions.get(r.task_id)
                  if r.mode == "ballistic" else None} for r in sched.mode_records],
                sched.stolen]
    return [sched.modes] if name == "sss" else []


def _trace_text(trace) -> str:
    return json.dumps(_plain([trace.slices, trace.decisions, trace.completions,
                              trace.cancellations, trace.arrivals]))


def reference_running(e) -> list:
    """Running task ids, ascending: those whose last log entry is a start."""
    last = {tid: kind for kind, tid in e.trace.log}
    return sorted(tid for tid, kind in last.items() if isinstance(kind, Decision))


def reference_pending(e) -> dict:
    """Tasks not yet arrived and with no unfinished dependency, each with
    its availability (its arrival or its last dependency's completion,
    whichever is later), by scanning every task."""
    done = e.trace.completions
    return {tid: max([task.arrival] + [done[d] for d in task.deps])
            for tid, task in e.tasks.items()
            if tid not in e.trace.arrivals and all(d in done for d in task.deps)}


def reference_next_event_time(e):
    best = None
    running = reference_running(e)
    for tid, rate in e.alloc.items():
        if rate <= 0 or tid not in running:
            continue
        eff = min(rate, ONE) if e.trace.decisions[tid][0] is Decision.SERIAL else rate
        if eff <= 0:
            continue
        t = e.now + e.remaining[tid] / (e.config.speed * eff)
        if best is None or t < best:
            best = t
    candidates = [] if best is None else [best]
    candidates += reference_pending(e).values()
    if e._timers:
        candidates.append(e._timers[0][0])
    return min(candidates) if candidates else None


def reference_ids(e) -> tuple:
    """(alive, unstarted, running, running serially, running in parallel)
    from the trace alone: a task is alive from its arrival to its
    completion, and running while its last log entry is a start."""
    trace = e.trace
    alive = sorted(tid for tid in trace.arrivals if tid not in trace.completions)
    running = reference_running(e)
    return (
        alive,
        sorted((tid for tid in alive if tid not in running),
               key=lambda t: (trace.arrivals[t], t)),
        running,
        [tid for tid in running if trace.decisions[tid][0] is Decision.SERIAL],
        [tid for tid in running if trace.decisions[tid][0] is Decision.PARALLEL],
    )


def _indexed_ids(e) -> tuple:
    v = e.view
    return (v.alive_ids(), v.unstarted_ids(), v.running_ids(),
            v.running_ids(Decision.SERIAL), v.running_ids(Decision.PARALLEL))


def reference_unlocked(e, tid) -> set:
    """Tasks not yet arrived whose last unfinished dependency is ``tid``,
    by scanning every task's ``_deps_done`` set."""
    return {other for other, missing in e._deps_done.items()
            if missing == {tid} and other not in e.trace.arrivals}


class _CheckedEngine(Engine):
    """Asserts after every callback's commands, at every event-time query,
    around every instant's processing and at every completion that the fast
    paths agree with the references.  The pending heap, ``done`` and the
    next event time are checked at the event-time queries, which come
    between instants: an instant's arrivals leave the heap before its
    completions are processed."""

    checks = 0
    unlocks = 0

    def _check(self):
        assert _indexed_ids(self) == reference_ids(self)
        # the log holds the completions and cancellations in their order,
        # and each decided task's last start is its recorded decision
        trace = self.trace
        assert [tid for kind, tid in trace.log if kind == COMPLETED] == list(trace.completions)
        assert [tid for kind, tid in trace.log if kind == CANCELLED] == [
            tid for tid, _ in trace.cancellations]
        last_start = {tid: kind for kind, tid in trace.log if isinstance(kind, Decision)}
        assert last_start == {tid: dec for tid, (dec, _) in trace.decisions.items()}
        _CheckedEngine.checks += 1

    def next_event_time(self):
        self._check()
        # the heap holds each pending task once, at its availability
        pending = reference_pending(self)
        assert sorted(self._pending) == sorted((t, tid) for tid, t in pending.items())
        assert self.done == (not pending and not reference_ids(self)[0])
        nxt = super().next_event_time()
        assert nxt == reference_next_event_time(self)
        return nxt

    def _due_matches_scan(self):
        # the completions the clock step collected, against a scan of alloc
        return self._due == [tid for tid in self.alloc if self.remaining[tid] == 0]

    def _process_instant(self):
        assert self._due_matches_scan()
        super()._process_instant()
        assert self._due == [] and self._due_matches_scan()

    def _complete(self, tid):
        unlocked = reference_unlocked(self, tid)
        before = {other for _, other in self._pending}
        super()._complete(tid)
        assert not any(tid in missing for missing in self._deps_done.values())
        assert {other for _, other in self._pending} - before == unlocked
        _CheckedEngine.unlocks += len(unlocked)

    def _apply_commands(self, commands):
        super()._apply_commands(commands)
        self._check()


class _CancelIdleRestart(_Fixed):
    """Runs both tasks in parallel, cancels task 0 at 1/2 and leaves it
    unstarted until 1, then restarts it serially; ``idle`` is task 0's
    decision as the view reads it at the restart, before it applies."""

    idle = Decision.PARALLEL

    def on_arrival(self, view, task):
        cmds = super().on_arrival(view, task)
        if task.id == 0:
            cmds.timers += [(Rat(1, 2), "cancel"), (ONE, "restart")]
        return cmds

    def on_timer(self, view, tag):
        if tag == "cancel":
            return SchedCommands(cancels={0})
        self.idle = view.decision(0)
        return SchedCommands(starts={0: Decision.SERIAL})


def reference_validate(trace: Trace, tap: TAP, config: EngineConfig | None = None) -> list:
    """Violations of the two-loop validator: every slice is rescanned for
    every completed task."""
    config = config or EngineConfig()
    violations = []
    budget = Rat(config.processor_budget) if config.processor_budget is not None else Rat(tap.p)
    speed = Rat(config.speed)
    tasks = {t.id: t for t in tap.tasks}
    prev_end = None
    for t0, t1, alloc in trace.slices:
        if t1 <= t0:
            violations.append(f"slice [{t0},{t1}] is empty or reversed")
        if prev_end is not None and t0 != prev_end:
            violations.append(f"slice gap/overlap at {t0} (previous end {prev_end})")
        prev_end = t1
        total = ZERO
        for tid, rate in alloc.items():
            if rate < 0:
                violations.append(f"negative rate for task {tid} at {t0}")
            total += rate
            if tid not in trace.decisions:
                violations.append(f"rate for undecided task {tid} at {t0}")
                continue
            arrival = trace.arrivals.get(tid)
            if arrival is None:
                violations.append(f"rate for unavailable task {tid} at {t0}")
            elif t0 < arrival:
                violations.append(f"task {tid} runs before arrival at {t0}")
            done = trace.completions.get(tid)
            if done is not None and t1 > done:
                violations.append(f"task {tid} runs after completion at {t0}")
        if total > budget:
            violations.append(f"budget violation at {t0}: total {total} > {budget}")
    if not config.allow_cancel and trace.cancellations:
        violations.append("cancellations present with allow_cancel=false")
    cancel_times: dict = {}
    for tid, at in trace.cancellations:
        cancel_times[tid] = max(at, cancel_times.get(tid, ZERO))
    for tid, f in trace.completions.items():
        if tid not in trace.arrivals:
            violations.append(f"task {tid} completed without being available")
        if tid not in trace.decisions:
            violations.append(f"task {tid} completed without a decision")
            continue
        decision, _ = trace.decisions[tid]
        start_after = cancel_times.get(tid, ZERO)
        work = ZERO
        serial_cap_violated = False
        for t0, t1, alloc in trace.slices:
            rate = alloc.get(tid)
            if rate is None or t1 <= start_after or t0 >= f:
                continue
            a, b = max(t0, start_after), min(t1, f)
            if b <= a:
                continue
            if decision is Decision.SERIAL and rate > 1:
                serial_cap_violated = True
            eff = min(rate, ONE) if decision is Decision.SERIAL else rate
            work += speed * eff * (b - a)
        if serial_cap_violated:
            violations.append(f"serial task {tid} allocated rate > 1")
        task = tasks.get(tid)
        if task is not None:
            expected = task.work(decision)
            if work != expected:
                violations.append(
                    f"work conservation: task {tid} did {work}, expected {expected}"
                )
    for tid, avail in trace.arrivals.items():
        task = tasks.get(tid)
        if task is None:
            continue
        missing = [d for d in task.deps if d not in trace.completions]
        if missing:
            violations.append(
                f"task {tid} available at {avail} before dependency {missing[0]} completed")
        else:
            expected = max([task.arrival] + [trace.completions[d] for d in task.deps])
            if avail != expected:
                violations.append(f"task {tid} available at {avail}, expected {expected}")
        if tid in trace.decisions and trace.decisions[tid][1] < avail:
            violations.append(f"task {tid} decided at {trace.decisions[tid][1]} "
                              f"before it is available at {avail}")
    return violations


def _digests(runs) -> tuple:
    """SHA-256 of the traces and of the scheduler records of ``runs``."""
    digest, records = hashlib.sha256(), hashlib.sha256()
    for tap, name in runs:
        sched = make_scheduler(name)
        trace = simulate(tap, sched, run_config(name, tap.p))
        digest.update(_trace_text(trace).encode())
        records.update(json.dumps(_plain(_records(name, sched, trace))).encode())
    return digest.hexdigest(), records.hexdigest()


def _merged_slices(slices) -> list:
    """``slices`` with each run of adjacent slices at equal rates merged."""
    merged = []
    for t0, t1, alloc in slices:
        if merged and merged[-1][2] == alloc:
            t0, _, alloc = merged.pop()
        merged.append((t0, t1, alloc))
    return merged


def _schedules_digest(runs) -> str:
    """SHA-256 of the schedules of ``runs``, blind to null slice boundaries."""
    digest = hashlib.sha256()
    for tap, name in runs:
        trace = simulate(tap, make_scheduler(name), run_config(name, tap.p))
        digest.update(json.dumps(_plain([_merged_slices(trace.slices), trace.decisions,
                                         trace.completions, trace.arrivals])).encode())
    return digest.hexdigest()


class TestFastPaths:
    def test_corpus_traces_unchanged(self):
        assert _digests(_corpus()) == (CORPUS_TRACES_SHA256, CORPUS_RECORDS_SHA256)

    def test_wide_corpus_traces_unchanged(self):
        assert _digests(_wide_corpus()) == (WIDE_TRACES_SHA256, WIDE_RECORDS_SHA256)

    def test_awake_schedules_unchanged(self):
        runs = [(tap, name) for tap in _awake_corpus(0, 200) for name in AWAKE]
        assert _schedules_digest(runs) == AWAKE_SCHEDULES_SHA256

    def test_cached_times_and_indexes_match_scans(self, monkeypatch):
        # nested engines (bsched inside csched, canc inside bsched) too
        monkeypatch.setattr(engine_mod, "Engine", _CheckedEngine)
        monkeypatch.setattr(sched_mrt, "Engine", _CheckedEngine)
        _CheckedEngine.checks = _CheckedEngine.unlocks = 0
        for tap, name in _corpus():
            config = run_config(name, tap.p)
            trace = simulate(tap, make_scheduler(name), config)
            assert validate_trace(trace, tap, config).violations == reference_validate(trace, tap, config)
        assert _CheckedEngine.checks > 5000
        assert _CheckedEngine.unlocks > 0  # the DTAP runs unlock dependents

    def test_injected_tasks_match_scans(self, monkeypatch):
        # an adversary injects at a quiet instant (the golden duel, the
        # flood); bsched and csched feed the flood to their nested engines
        monkeypatch.setattr(engine_mod, "Engine", _CheckedEngine)
        monkeypatch.setattr(sched_mrt, "Engine", _CheckedEngine)
        runs = [(name, golden_probe(8), GoldenAdversary(8)) for name in ("mwf-all-parallel", "unk")]
        runs += [(name, flood_probe(8), NonPreemptiveAdversary(10, flood_probe(8)))
                 for name in ("rigid", "equi", "bsched", "csched")]
        for name, tap, adversary in runs:
            done = run(name, tap, adversary=adversary)
            assert done.trace.injected and done.complete and done.violations == []

    def test_cancel_without_restart(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "Engine", _CheckedEngine)
        tap = TAP(4, (T(0, 2, 8), T(1, 2, 8)))
        config = EngineConfig(allow_cancel=True)
        sched = _CancelIdleRestart(Decision.PARALLEL)
        trace = simulate(tap, sched, config)
        assert sched.idle is None  # cancelled, not yet restarted: undecided
        assert trace.decisions[0] == (Decision.SERIAL, ONE)
        assert trace.cancellations == [(0, Rat(1, 2))]
        assert trace.completions == {1: Rat(8, 3), 0: Rat(3)}
        assert validate_trace(trace, tap, config).violations == reference_validate(trace, tap, config) == []

    @given(small_taps(pow2=True), st.sampled_from(MRT), st.data())
    @settings(max_examples=300, deadline=None)
    def test_validator_matches_reference_on_corrupted_traces(self, tap, name, data):
        config = run_config(name, tap.p)
        trace = simulate(tap, make_scheduler(name), config)
        trace = _corrupt(trace, data)
        assert validate_trace(trace, tap, config).violations == reference_validate(trace, tap, config)


def reference_awake(trace) -> Rat:
    """Awake time slice by slice: the total length of the slices during
    which some task has arrived (``trace.arrivals``) and not finished."""
    alive = [(at, trace.completions[tid]) for tid, at in trace.arrivals.items()]
    return sum((t1 - t0 for t0, t1, _ in trace.slices
                if any(at <= t0 and t1 <= done for at, done in alive)), ZERO)


def _assert_awake_matches_reference(tap, name, factor=None):
    trace = simulate(tap, make_scheduler(name), run_config(name, tap.p, factor))
    assert metrics_from_trace(trace, tap).awake == reference_awake(trace)


class TestAwakeTime:
    def test_corpus(self):
        for tap, name in _corpus():
            _assert_awake_matches_reference(tap, name)

    @given(small_dtaps(), st.sampled_from(["turtle", "bal", "unk", "equi"]))
    @settings(max_examples=60, deadline=None)
    def test_random_dtaps(self, tap, name):
        _assert_awake_matches_reference(tap, name)

    @given(small_taps(), st.sampled_from(["bal", "unk", "mwf-all-parallel", "equi", "sss"]),
           st.sampled_from([None, 2]))
    @settings(max_examples=60, deadline=None)
    def test_small_taps(self, tap, name, factor):
        _assert_awake_matches_reference(tap, name, factor)


CORRUPTIONS = ("scale", "negate", "zero", "shift", "reverse", "drop",
               "move_completion", "drop_decision", "add_cancellation", "none")


def _corrupt(trace, data) -> Trace:
    """A copy of ``trace`` with one corruption drawn by hypothesis."""
    slices = [(t0, t1, dict(alloc)) for t0, t1, alloc in trace.slices]
    decisions = dict(trace.decisions)
    completions = dict(trace.completions)
    cancellations = list(trace.cancellations)
    kind = data.draw(st.sampled_from(CORRUPTIONS))
    delta = data.draw(st.sampled_from([Rat(1, 3), Rat(1, 2), ONE, Rat(-1, 4)]))
    rated = [(i, tid) for i, (_, _, alloc) in enumerate(slices) for tid in alloc]
    if kind in ("scale", "negate", "zero") and rated:
        i, tid = data.draw(st.sampled_from(rated))
        factor = {"scale": data.draw(st.sampled_from([Rat(2), Rat(1, 2), Rat(5, 4)])),
                  "negate": -ONE, "zero": ZERO}[kind]
        slices[i][2][tid] *= factor
    elif kind in ("shift", "reverse", "drop") and slices:
        i = data.draw(st.integers(0, len(slices) - 1))
        t0, t1, alloc = slices[i]
        if kind == "shift":
            slices[i] = (t0 + delta, t1 + delta, alloc)
        elif kind == "reverse":
            slices[i] = (t1, t0, alloc)
        else:
            del slices[i]
    elif kind == "move_completion" and completions:
        tid = data.draw(st.sampled_from(sorted(completions)))
        completions[tid] += delta
    elif kind == "drop_decision" and decisions:
        del decisions[data.draw(st.sampled_from(sorted(decisions)))]
    elif kind == "add_cancellation" and decisions:
        tid = data.draw(st.sampled_from(sorted(decisions)))
        cancellations.append((tid, data.draw(st.sampled_from([ZERO, Rat(1, 2), Rat(3)]))))
    return Trace(slices=slices, decisions=decisions, completions=completions,
                 cancellations=cancellations, arrivals=dict(trace.arrivals))
