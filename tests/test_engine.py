import hashlib
import json
from dataclasses import is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab import engine as engine_mod, sched_mrt
from taplab.adversary import GenParams, gen_random, gen_random_dtap
from taplab.core import Decision, TAP, Task, metrics_from_trace, scale_tap
from taplab.engine import (
    ContractError,
    Engine,
    EngineConfig,
    FeasibilityError,
    SchedCommands,
    Scheduler,
    Trace,
    simulate,
    validate_trace,
)
from taplab.rationals import Rat, ZERO, ONE, rat_str
from taplab.sched_awake import BalScheduler
from taplab.verify import SCHEDULERS, make_scheduler

from conftest import small_taps


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
            decisions={0: (Decision.SERIAL, ZERO, ZERO)},
            completions={0: Rat(1, 2)},
            arrivals={0: ZERO},
        )
        report = validate_trace(trace, tap)
        assert any("serial" in v for v in report.violations)

    def test_budget_violation(self):
        tap = self._base()
        trace = Trace(
            slices=[(ZERO, Rat(4, 5), {0: Rat(5)})],
            decisions={0: (Decision.PARALLEL, ZERO, ZERO)},
            completions={0: Rat(4, 5)},
            arrivals={0: ZERO},
        )
        report = validate_trace(trace, tap)
        assert any("budget" in v for v in report.violations)

    def test_work_conservation_violation(self):
        tap = self._base()
        trace = Trace(
            slices=[(ZERO, ONE, {0: ONE})],
            decisions={0: (Decision.PARALLEL, ZERO, ZERO)},
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
# scanning versions below are the code those fast paths replaced; they stay
# here as the references the fast paths must agree with exactly.

MRT = ("equi", "rigid", "sss", "canc", "bsched", "csched")
_LIVE = ("arrived", "running")

#: SHA-256 of the exact traces of ``_corpus()``, recorded with the scanning
#: engine; a fast path that changes any trace changes it
CORPUS_TRACES_SHA256 = "2e3ca1b1eb6b73d1bb3cbfad2123de45ae1ab3fa0b42cfd42a8bae7389782a1c"


def _run_config(name, p):
    _, factor, cancel = SCHEDULERS[name]
    return EngineConfig(processor_budget=Rat(factor * p), allow_cancel=cancel)


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


def _trace_text(trace) -> str:
    return json.dumps(_plain([trace.slices, trace.decisions, trace.completions,
                              trace.cancellations, trace.arrivals, trace.aux]))


def reference_next_event_time(e):
    best = None
    for tid, rate in e.alloc.items():
        if rate <= 0 or e.status[tid] != "running":
            continue
        eff = min(rate, ONE) if e.decision[tid] is Decision.SERIAL else rate
        if eff <= 0:
            continue
        t = e.now + e.remaining[tid] / (e.config.speed * eff)
        if best is None or t < best:
            best = t
    candidates = [] if best is None else [best]
    if e._ready_at:
        candidates.append(min(e._ready_at.values()))
    if e._timers:
        candidates.append(e._timers[0][0])
    return min(candidates) if candidates else None


def reference_ids(e) -> tuple:
    """(alive, unstarted, running, completed, done) by scanning ``status``."""
    st = e.status
    return (
        sorted(tid for tid, s in st.items() if s in _LIVE),
        sorted((tid for tid, s in st.items() if s == "arrived"),
               key=lambda t: (e.trace.arrivals[t], t)),
        sorted(tid for tid, s in st.items() if s == "running"),
        sorted(tid for tid, s in st.items() if s == "done"),
        not e._ready_at and not any(s in _LIVE for s in st.values()),
    )


def _indexed_ids(e) -> tuple:
    v = e.view
    return (v.alive_ids(), v.unstarted_ids(), v.running_ids(), v.completed_ids(), e.done)


def reference_unlocked(e, tid) -> set:
    """Pending tasks whose last unfinished dependency is ``tid``, by
    scanning every task's ``_deps_done`` set."""
    return {other for other, missing in e._deps_done.items()
            if missing == {tid} and e.status[other] == "pending"}


class _CheckedEngine(Engine):
    """Asserts after every event, at every event-time query and at every
    instant's event collection that the fast paths agree with the
    references."""

    checks = 0
    unlocks = 0

    def _check(self):
        assert _indexed_ids(self) == reference_ids(self)
        assert Engine.next_event_time(self) == reference_next_event_time(self)
        _CheckedEngine.checks += 1

    def next_event_time(self):
        self._check()
        return super().next_event_time()

    def _events_at(self, t):
        # the completions the clock step collected, against a scan of alloc
        assert self._due == [tid for tid in self.alloc if self.remaining[tid] == 0]
        return super()._events_at(t)

    def _dispatch(self, kind, key, tag):
        if kind != engine_mod._COMPLETION:
            super()._dispatch(kind, key, tag)
            self._check()
            return
        unlocked = reference_unlocked(self, key)
        before = set(self._ready_at)
        super()._dispatch(kind, key, tag)
        assert not any(key in missing for missing in self._deps_done.values())
        assert set(self._ready_at) - before == unlocked
        _CheckedEngine.unlocks += len(unlocked)
        self._check()


class _CancelIdleRestart(_Fixed):
    """Runs both tasks in parallel, cancels task 0 at 1/2 and leaves it
    unstarted until 1, then restarts it serially."""

    def on_arrival(self, view, task):
        cmds = super().on_arrival(view, task)
        if task.id == 0:
            cmds.timers += [(Rat(1, 2), "cancel"), (ONE, "restart")]
        return cmds

    def on_timer(self, view, tag):
        if tag == "cancel":
            return SchedCommands(cancels={0})
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
            if arrival is not None and t0 < arrival:
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
        if tid not in trace.decisions:
            violations.append(f"task {tid} completed without a decision")
            continue
        decision, _, _ = trace.decisions[tid]
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
    return violations


class TestFastPaths:
    def test_corpus_traces_unchanged(self):
        digest = hashlib.sha256()
        for tap, name in _corpus():
            trace = simulate(tap, make_scheduler(name), _run_config(name, tap.p))
            digest.update(_trace_text(trace).encode())
        assert digest.hexdigest() == CORPUS_TRACES_SHA256

    def test_cached_times_and_indexes_match_scans(self, monkeypatch):
        # nested engines (bsched inside csched, canc inside bsched) too
        monkeypatch.setattr(engine_mod, "Engine", _CheckedEngine)
        monkeypatch.setattr(sched_mrt, "Engine", _CheckedEngine)
        _CheckedEngine.checks = _CheckedEngine.unlocks = 0
        for tap, name in _corpus():
            config = _run_config(name, tap.p)
            trace = simulate(tap, make_scheduler(name), config)
            assert validate_trace(trace, tap, config).violations == reference_validate(trace, tap, config)
        assert _CheckedEngine.checks > 5000
        assert _CheckedEngine.unlocks > 0  # the DTAP runs unlock dependents

    def test_cancel_without_restart(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "Engine", _CheckedEngine)
        tap = TAP(4, (T(0, 2, 8), T(1, 2, 8)))
        config = EngineConfig(allow_cancel=True)
        trace = simulate(tap, _CancelIdleRestart(Decision.PARALLEL), config)
        assert trace.cancellations == [(0, Rat(1, 2))]
        assert trace.completions == {1: Rat(8, 3), 0: Rat(3)}
        assert validate_trace(trace, tap, config).violations == reference_validate(trace, tap, config) == []

    @given(small_taps(pow2=True), st.sampled_from(MRT), st.data())
    @settings(max_examples=300, deadline=None)
    def test_validator_matches_reference_on_corrupted_traces(self, tap, name, data):
        config = _run_config(name, tap.p)
        trace = simulate(tap, make_scheduler(name), config)
        trace = _corrupt(trace, data)
        assert validate_trace(trace, tap, config).violations == reference_validate(trace, tap, config)


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
