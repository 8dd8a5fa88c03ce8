import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab.adversary import GenParams, gen_random_dtap
from taplab.core import Decision, TAP, Task, TapError, metrics_from_trace
from taplab.engine import Engine, ObliviousnessError, simulate, validate_trace
from taplab.oracle import InstanceTooLargeError, opt_awake_exhaustive
from taplab.rationals import Rat, ZERO, ONE
from taplab.sched_awake import (
    AllParallelScheduler,
    AllSerialScheduler,
    BalScheduler,
    GoldenAlg,
    UnkScheduler,
    balanced,
    most_work_first_alloc,
)
from taplab.verify import run_config

from conftest import small_dtaps, small_taps, started_at

S, P = Decision.SERIAL, Decision.PARALLEL


def T(tid, sigma, pi, arrival=0):
    return Task(tid, Rat(sigma), Rat(pi), Rat(arrival))


def reference_unk_alloc(view) -> dict:
    """UNK's allocation written out on its own: one processor per serial
    task, the rest of the budget to the parallel task."""
    alloc = {}
    used = ZERO
    parallel_tid = None
    for tid in view.running_ids():
        if view.decision(tid) is S:
            alloc[tid] = ONE
            used += 1
        else:
            parallel_tid = tid
    if parallel_tid is not None and used < view.budget:
        alloc[parallel_tid] = view.budget - used
    return alloc


class _ParallelWorkHidden:
    """Engine view whose ``remaining`` raises for a parallel task."""

    def __init__(self, view):
        self._view = view

    def __getattr__(self, name):
        return getattr(self._view, name)

    def remaining(self, tid):
        if self._view.decision(tid) is P:
            raise ObliviousnessError(f"read remaining work of parallel task {tid}")
        return self._view.remaining(tid)


class _CheckedUnk(UnkScheduler):
    """UNK on views that hide parallel remaining work; every allocation
    is checked against ``reference_unk_alloc``."""

    def on_arrival(self, view, task):
        return super().on_arrival(_ParallelWorkHidden(view), task)

    def on_completion(self, view, tid):
        return super().on_completion(_ParallelWorkHidden(view), tid)

    def allocate(self, view) -> dict:
        alloc = super().allocate(_ParallelWorkHidden(view))
        assert alloc == reference_unk_alloc(view)
        return alloc


def null_boundaries(trace) -> list:
    """Slice boundaries that mark no arrival, completion, decision or rate
    change."""
    events = {*trace.arrivals.values(), *trace.completions.values(),
              *(at for _, at in trace.decisions.values())}
    return [t for (_, t, before), (_, _, after) in zip(trace.slices, trace.slices[1:])
            if before == after and t not in events]


def bal_decisions(tap) -> tuple:
    """(each task's decision, ``balanced`` per arrival) of a bal run."""
    sched = BalScheduler()
    trace = simulate(tap, sched)
    return {tid: d for tid, (d, _) in trace.decisions.items()}, sched.balanced


class TestBalanceTest:
    def test_empty_balanced(self):
        assert balanced(ZERO, ZERO, 4)

    def test_saturated_serial(self):
        assert balanced(ONE, Rat(4), 4)

    def test_lone_serial_jagged(self):
        assert not balanced(Rat(2), Rat(2), 4)

    def test_decide_empty_goes_parallel(self):
        assert bal_decisions(TAP(4, (T(0, 2, 8),))) == ({0: P}, [True])

    def test_decide_joins_saturated_pool(self):
        # task 0 runs parallel, so task 1 arrives to remaining work 4 = p
        # ahead of it: serial keeps max(1) * 4 <= 4 + 1
        tap = TAP(4, (T(0, 1, 4), T(1, 1, 4)))
        assert bal_decisions(tap) == ({0: P, 1: S}, [True, True])

    def test_decide_empty_p2(self):
        assert bal_decisions(TAP(2, (T(0, 1, 1),))) == ({0: P}, [True])

    def test_decide_updates_parallel_work(self):
        # task 0 adds its pi = 8, not its sigma = 2: task 1 then goes serial
        # (2 * 4 <= 8 + 2); on a total of 2 + 2 it would go parallel
        tap = TAP(4, (T(0, 2, 8), T(1, 2, 8)))
        assert bal_decisions(tap) == ({0: P, 1: S}, [True, True])


class TestMostWorkFirst:
    def test_top_p_serial(self):
        alloc = most_work_first_alloc({0: Rat(3), 1: Rat(2), 2: ONE}, (), 2)
        assert alloc == {0: ONE, 1: ONE}

    def test_leftover_to_parallel(self):
        alloc = most_work_first_alloc({0: ONE}, [1], 4)
        assert alloc == {0: ONE, 1: Rat(3)}

    def test_empty(self):
        assert most_work_first_alloc({}, (), 4) == {}

    def test_negative_budget(self):
        with pytest.raises(TapError):
            most_work_first_alloc({}, (), -1)


class TestUnk:
    def test_idle_system_starts_parallel(self):
        trace = simulate(TAP(2, (T(0, 1, 2),)), UnkScheduler())
        assert trace.decisions[0][0] is P
        assert trace.completions[0] == 1

    def test_aged_task_starts_serial(self):
        # task 1 waits behind the parallel task past its own sigma
        tap = TAP(2, (T(0, 3, 3), T(1, 1, 2)))
        trace = simulate(tap, UnkScheduler())
        assert trace.decisions[1][0] is S
        assert started_at(trace, 1) == Rat(3, 2)

    def test_age_boundary_still_parallel(self):
        # at age exactly sigma the parallel option is still taken
        tap = TAP(2, (T(0, 1, 1), T(1, Rat(1, 2), 1)))
        trace = simulate(tap, UnkScheduler())
        assert trace.decisions[1][0] is P
        assert started_at(trace, 1) == Rat(1, 2)

    def test_dependency_instances_age_from_availability(self):
        # a task that becomes available after its arrival ages from then
        # (``trace.arrivals``), not from its release time
        for seed in range(20):
            tap = gen_random_dtap(GenParams(p=4, n=8, seed=seed))
            trace = simulate(tap, UnkScheduler())
            assert validate_trace(trace, tap).ok
            assert set(trace.completions) == {t.id for t in tap.tasks}

    @given(st.one_of(small_taps(), small_dtaps()), st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_acts_only_at_arrivals_and_completions(self, tap, factor):
        trace = simulate(tap, UnkScheduler(), run_config("unk", tap.p, factor))
        events = {*trace.arrivals.values(), *trace.completions.values()}
        assert {at for _, at in trace.decisions.values()} <= events
        assert null_boundaries(trace) == []

    def test_parallel_remaining_hidden_by_guard(self):
        engine = Engine(TAP(2, (T(0, 1, 2),)), UnkScheduler())
        engine.advance_to(ZERO)
        assert engine.view.decision(0) is P
        with pytest.raises(ObliviousnessError):
            _ParallelWorkHidden(engine.view).remaining(0)

    @given(small_taps(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_allocation_matches_reference(self, tap):
        # most-work-first equals UNK's own rule: UNK runs at most p serial
        # tasks and at most one parallel task, whose remaining work it
        # never reads
        assert simulate(tap, _CheckedUnk()) == simulate(tap, UnkScheduler())

    def test_hidden_pi_read_rejected(self):
        class Peeker(UnkScheduler):
            def on_arrival(self, view, task):
                task.pi
                return super().on_arrival(view, task)

        with pytest.raises(ObliviousnessError):
            simulate(TAP(2, (T(0, 1, 2),)), Peeker())

    @given(small_taps(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_oblivious_to_serial_side_pi(self, tap):
        # pi of a task UNK runs serially never enters the dynamics, so
        # replacing it (in range) reproduces the trace exactly
        a = simulate(tap, UnkScheduler())
        serial_ids = {tid for tid, d in a.decisions.items() if d[0] is S}
        blinded = TAP(
            tap.p,
            tuple(
                Task(t.id, t.sigma, t.sigma * tap.p, t.arrival, t.deps)
                if t.id in serial_ids
                else t
                for t in tap.tasks
            ),
        )
        b = simulate(blinded, UnkScheduler())
        assert a.decisions == b.decisions
        assert a.slices == b.slices
        assert a.completions == b.completions


class TestBal:
    @given(small_taps(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_always_balanced(self, tap):
        sched = BalScheduler()
        simulate(tap, sched)
        assert all(sched.balanced)

    @given(small_taps(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_three_competitive(self, tap):
        if tap.n == 0:
            return
        trace = simulate(tap, BalScheduler())
        opt, _ = opt_awake_exhaustive(tap)
        assert metrics_from_trace(trace, tap).awake <= 3 * opt

    @given(small_taps(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_unk_six_competitive(self, tap):
        if tap.n == 0:
            return
        trace = simulate(tap, UnkScheduler())
        opt, _ = opt_awake_exhaustive(tap)
        assert metrics_from_trace(trace, tap).awake <= 6 * opt


class TestBaselines:
    def test_all_serial_runs_everything_at_rate_one(self):
        tap = TAP(2, (T(0, 1, 2), T(1, 1, 2), T(2, 1, 2)))
        trace = simulate(tap, AllSerialScheduler())
        assert sorted(trace.completions.values()) == [1, 1, 2]

    def test_all_parallel_shares_budget(self):
        tap = TAP(4, (T(0, 1, 4),))
        trace = simulate(tap, AllParallelScheduler())
        assert trace.completions[0] == 1

    @given(small_taps(max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_baseline_traces_validate(self, tap):
        for sched in (AllSerialScheduler(), AllParallelScheduler()):
            assert validate_trace(simulate(tap, sched), tap).ok


class TestGoldenAlg:
    def test_matches_bal_on_single_parallel_leaning_task(self):
        tap = TAP(4, (T(0, 2, 2),))
        golden = simulate(tap, GoldenAlg())
        bal = simulate(tap, BalScheduler())
        assert golden.decisions[0][0] is bal.decisions[0][0]

    def test_migrates_cheap_serial_task(self):
        # sigma well below phi * opt: migrated to the serial pool
        tap = TAP(4, (T(0, 1, 4), T(1, 4, 16)))
        trace = simulate(tap, GoldenAlg())
        assert trace.decisions[0][0] is S

    def test_oracle_size_limit(self):
        tap = TAP(4, tuple(T(i, 1, 4) for i in range(16)))
        with pytest.raises(InstanceTooLargeError):
            simulate(tap, GoldenAlg())

    def test_single_parallel_task_at_a_time(self):
        tap = TAP(4, tuple(T(i, 1, 2) for i in range(4)))
        trace = simulate(tap, GoldenAlg())
        for t0, t1, rates in trace.slices:
            running_parallel = [
                tid for tid in rates
                if trace.decisions[tid][0] is P and rates[tid] > 0
            ]
            assert len(running_parallel) <= 1
