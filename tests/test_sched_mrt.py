from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab import sched_mrt
from taplab.core import Decision, TAP, Task, metrics_from_trace, round_pow2
from taplab.engine import CANCELLED, COMPLETED, ObliviousnessError, simulate, validate_trace
from taplab.adversary import GenParams, c_trigger_corpus, gen_c_trigger, gen_random
from taplab.rationals import Rat, ZERO, ONE
from taplab.verify import SCHEDULERS, run, run_config
from taplab.sched_mrt import (
    BScheduler,
    CancScheduler,
    CScheduler,
    EquiScheduler,
    MrtInvariantError,
    RelaxedJob,
    RigidScheduler,
    SssScheduler,
    equi_alloc,
    relaxed_rate,
)

from conftest import small_taps, started_at
from test_engine import _corpus, _wide_corpus

S, P = Decision.SERIAL, Decision.PARALLEL


def T(tid, sigma, pi, arrival=0):
    return Task(tid, Rat(sigma), Rat(pi), Rat(arrival))


def _coalesce(slices):
    """Merge adjacent slices with identical rates (schedulers may insert
    extra event boundaries without changing the allocation function)."""
    out = []
    for t0, t1, rates in slices:
        rates = {tid: r for tid, r in rates.items() if r > 0}
        if out and out[-1][1] == t0 and out[-1][2] == rates:
            out[-1] = (out[-1][0], t1, rates)
        else:
            out.append((t0, t1, rates))
    return out


class TestEquiAlloc:
    def test_even_split(self):
        assert equi_alloc([0, 1], Rat(4), False) == {0: Rat(2), 1: Rat(2)}

    def test_oversubscribed(self):
        alloc = equi_alloc(list(range(8)), Rat(4), False)
        assert all(r == Rat(1, 2) for r in alloc.values())

    def test_serial_cap_no_redistribution(self):
        assert equi_alloc([0, 1], Rat(4), True) == {0: ONE, 1: ONE}

    def test_empty(self):
        assert equi_alloc([], Rat(4), False) == {}


class TestRelaxedRate:
    def test_below_threshold(self):
        job = RelaxedJob(Rat(2), Rat(4), ZERO)
        assert relaxed_rate(job, Rat(2)) == 1

    def test_at_threshold(self):
        job = RelaxedJob(Rat(2), Rat(4), ZERO)
        assert relaxed_rate(job, Rat(4)) == 1

    def test_above_threshold(self):
        job = RelaxedJob(Rat(2), Rat(4), ZERO)
        assert relaxed_rate(job, Rat(8)) == 2

    def test_zero(self):
        job = RelaxedJob(Rat(2), Rat(4), ZERO)
        assert relaxed_rate(job, ZERO) == 0


class TestEqui:
    def test_even_split_two_tasks(self):
        tap = TAP(4, (T(0, 1, 4), T(1, 1, 4)))
        trace = simulate(tap, EquiScheduler())
        assert trace.completions == {0: Rat(2), 1: Rat(2)}

    def test_rigid_is_nonpreemptive_fcfs(self):
        tap = TAP(4, (T(0, 1, 4), T(1, 1, 4)))
        trace = simulate(tap, RigidScheduler())
        assert sorted(trace.completions.values()) == [1, 2]

    def test_oblivious_set(self):
        assert {name for name, cls in SCHEDULERS.items() if cls.oblivious} == {"unk", "equi"}

    def test_hidden_pi_read_rejected(self):
        class Peeker(EquiScheduler):
            def on_arrival(self, view, task):
                task.pi
                return super().on_arrival(view, task)

        with pytest.raises(ObliviousnessError):
            simulate(TAP(2, (T(0, 1, 2),)), Peeker())


class TestSss:
    def test_pure_silly(self):
        # p-1 simultaneous unit jobs: one processor each, never serious
        tap = TAP(4, tuple(T(i, 1, 4) for i in range(3)))
        sched = SssScheduler()
        trace = simulate(tap, sched, run_config("sss", tap.p))
        m = metrics_from_trace(trace, tap)
        assert m.trt == 3
        assert sched.modes == []

    def test_all_scary_serious(self):
        tap = TAP(4, tuple(T(i, 1, 4) for i in range(4)))
        sched = SssScheduler()
        trace = simulate(tap, sched, run_config("sss", tap.p))
        assert (ZERO, "serious") in sched.modes
        # serial-capped EQUI on the second pool: all done at 1
        assert all(c == 1 for c in trace.completions.values())

    def test_empty(self):
        tap = TAP(4, ())
        trace = simulate(tap, SssScheduler(), run_config("sss", tap.p))
        assert trace.slices == []

    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize("k", [6, 12])
    def test_scary_jobs_share_half_the_budget(self, factor, k):
        # k > p jobs arrive together, so all are scary: each gets
        # min(1, (factor p / 2) / k)
        tap = TAP(4, tuple(T(i, 1, 4) for i in range(k)))
        done = run("sss", tap, factor)
        share = min(ONE, Rat(factor * tap.p, 2 * k))
        assert done.trace.slices[0][2] == {i: share for i in range(k)}
        assert done.violations == [] and done.complete

    @given(small_taps(max_n=8))
    @settings(max_examples=25, deadline=None)
    def test_validates_and_completes(self, tap):
        trace = simulate(tap, SssScheduler(), run_config("sss", tap.p))
        assert validate_trace(trace, tap, run_config("sss", tap.p)).ok
        assert set(trace.completions) == {t.id for t in tap.tasks}


class TestCanc:
    def test_lone_parallel_task(self):
        tap = TAP(4, (T(0, 1, 4),))
        trace = simulate(tap, CancScheduler(), run_config("canc", tap.p))
        assert trace.completions[0] == 1
        assert trace.cancellations == []

    def test_crowd_all_cancelled(self):
        tap = TAP(4, tuple(T(i, 1, 4) for i in range(5)))
        trace = simulate(tap, CancScheduler(), run_config("canc", tap.p))
        assert [t for _, t in trace.cancellations] == [ONE] * 5
        assert all(c == Rat(9, 4) for c in trace.completions.values())

    def test_empty(self):
        tap = TAP(4, ())
        trace = simulate(tap, CancScheduler(), run_config("canc", tap.p))
        assert trace.slices == []

    @given(small_taps(max_n=6, pow2=True))
    @settings(max_examples=25, deadline=None)
    def test_completes_everything(self, tap):
        cfg = run_config("canc", tap.p)
        trace = simulate(tap, CancScheduler(), cfg)
        assert validate_trace(trace, tap, cfg).ok
        assert set(trace.completions) == {t.id for t in tap.tasks}
        # a task stays in the parallel pool for at most its serial work
        sigma = {t.id: t.sigma for t in tap.tasks}
        for tid, at in trace.cancellations:
            assert at - trace.arrivals[tid] <= sigma[tid]


class _ShortRelaxed(CancScheduler):
    """CANC whose relaxed jobs need only an eighth of their work, so a job
    finishes before its task."""

    def on_arrival(self, view, task):
        commands = super().on_arrival(view, task)
        self.relaxed[task.id].total_work /= 8
        return commands


class TestCancInvariant:
    def test_relaxed_job_finishing_first_is_an_error(self):
        # task 0's job runs at rate 1 on the pool's 4 processors; by task
        # 1's arrival at 1/2 it has progress 1/2 >= 2 sigma / 8 = 1/4,
        # while task 0 still has work left
        tap = TAP(4, (T(0, 1, 4), T(1, 1, 4, arrival=Rat(1, 2))))
        with pytest.raises(MrtInvariantError) as caught:
            simulate(tap, _ShortRelaxed(), run_config("canc", tap.p))
        assert str(caught.value) == "relaxed job 0 finished (1/2 >= 1/4) before the real task"


class TestB:
    def test_distinct_types_match_canc(self):
        tap = TAP(8, (T(0, 1, 2), T(1, 1, 4), T(2, 2, 8)))
        cfg = run_config("bsched", tap.p)
        canc = simulate(tap, CancScheduler(), cfg)
        b = simulate(tap, BScheduler(), cfg)
        assert b.completions == canc.completions
        assert b.cancellations == canc.cancellations
        assert _coalesce(b.slices) == _coalesce(canc.slices)

    def test_same_type_pair_serialized(self):
        tap = TAP(4, (T(0, 1, 4), T(1, 1, 4)))
        trace = simulate(tap, BScheduler(), run_config("bsched", tap.p))
        assert sorted(trace.completions.values()) == [1, 2]

    @given(small_taps(max_n=6, pow2=True))
    @settings(max_examples=25, deadline=None)
    def test_one_parallel_per_type_and_fast(self, tap):
        tap = round_pow2(tap)
        cfg = run_config("bsched", tap.p)
        trace = simulate(tap, BScheduler(), cfg)
        assert validate_trace(trace, tap, cfg).ok
        by_id = {t.id: t for t in tap.tasks}

        def ttype(t):
            return (t.sigma, t.pi)

        for t0, t1, rates in trace.slices:
            types = [
                ttype(by_id[tid])
                for tid, r in rates.items()
                if r > 0 and trace.decisions[tid][0] is P and tid in by_id
            ]
            assert len(types) == len(set(types))
        cancelled = {tid for tid, _ in trace.cancellations}
        for tid, done in trace.completions.items():
            if tid in by_id and tid not in cancelled:
                if trace.decisions[tid][0] is P:
                    assert done - by_id[tid].arrival <= by_id[tid].sigma


class TestC:
    def test_quiet_instance_no_modes(self):
        tap = TAP(8, (T(0, 1, 2), T(1, 2, 8)))
        cfg = run_config("csched", tap.p)
        sched = CScheduler()
        trace = simulate(tap, sched, cfg)
        assert trace.cancellations == []
        assert sched.mode_records == []
        assert set(trace.completions) == {0, 1}

    def test_crafted_ballistic_episode(self):
        tap = gen_c_trigger(8, Rat(2), with_candidate=False)
        cfg = run_config("csched", tap.p)
        sched = CScheduler()
        trace = simulate(tap, sched, cfg)
        records = sched.mode_records
        ballistic = [r for r in records if r.mode == "ballistic"]
        assert ballistic
        sigma = {t.id: t.sigma for t in tap.tasks}
        for r in ballistic:  # each episode ends at its task's completion
            assert trace.completions[r.task_id] - r.entered <= 2 * sigma[r.task_id]
        assert trace.cancellations == []

    def test_crafted_semi_ballistic(self):
        tap = gen_c_trigger(8, Rat(2), with_candidate=True)
        cfg = run_config("csched", tap.p)
        sched = CScheduler()
        trace = simulate(tap, sched, cfg)
        records = sched.mode_records
        assert any(r.mode == "semi-ballistic" for r in records)
        semis = [r for r in records if r.mode == "semi-ballistic"]
        for r in semis:
            assert trace.decisions[r.task_id][0] is S
        assert trace.cancellations == []

    def test_crafted_inner_completed_ballistic(self):
        """The nested B parallel-completes a vested task this scheduler has
        not finished.  Task 8 (class 4, like the target) arrives at 25/4,
        inside the target's emergency, so its mirrored rate goes to the
        target until the target finishes at 19/3; task 8 vests then, and
        the nested B completes its copy at 203/32, before task 8 finishes
        here.  It is the last instance of A8's crafted corpus."""
        tap = c_trigger_corpus()[-1]
        assert tap.tasks[:8] == gen_c_trigger(16, Rat(2), with_candidate=False).tasks
        assert tap.tasks[8] == T(8, Rat(1, 16), Rat(1, 4), Rat(25, 4))
        done = run("csched", tap)
        assert done.complete and done.violations == []
        assert done.trace.decisions[8] == (P, Rat(19, 3))
        assert started_at(done.trace, 8) == Rat(19, 3)
        assert [(r.task_id, r.mode, r.trigger, r.entered, done.trace.completions[r.task_id])
                for r in done.scheduler.mode_records] == [
            (0, "ballistic", "serialized", Rat(6), Rat(19, 3)),
            (8, "ballistic", "inner-completed", Rat(203, 32), Rat(613, 96)),
        ]
        # A8's checks on the episode: stolen work at least 2 pi, and the
        # episode no longer than 2 sigma
        assert done.scheduler.stolen == {8: Rat(2, 3)}
        assert done.scheduler.stolen[8] >= 2 * tap.task(8).pi
        assert Rat(613, 96) - Rat(203, 32) <= 2 * tap.task(8).sigma

    @given(small_taps(max_n=6, pow2=True))
    @settings(max_examples=20, deadline=None)
    def test_never_cancels_and_completes(self, tap):
        tap = round_pow2(tap)
        cfg = run_config("csched", tap.p)
        trace = simulate(tap, CScheduler(), cfg)
        assert validate_trace(trace, tap, cfg).ok
        assert trace.cancellations == []
        assert set(trace.completions) == {t.id for t in tap.tasks}


# The nested schedulers read what their nested run did through one cursor
# over its trace's log.  The scans below are the bookkeeping it replaced (a
# seen set over every completion, a second cursor over the cancellations,
# and C's rescan of every nested decision at every sync); they stay here as
# the references the cursor must agree with exactly.  B needs no test for a
# serial nested completion: CANC serializes only by cancelling, and such a
# task has always left its type by the time its nested run completes.

_real_new_events = sched_mrt._Nested._new_events
_real_catch_up = sched_mrt._Nested._catch_up


def _acts_on(view, tid) -> bool:
    """Whether C acts on a nested serial decision of ``tid``: it is not
    finished here, and undecided or vested here."""
    return tid not in view.trace.completions and view.decision(tid) in (None, Decision.PARALLEL)


def _reference_rescan(c, view) -> list:
    """The ids C's old rescan of every nested decision acted on: serial
    there, and acted on but not yet ballistic here."""
    return [tid for tid, (dec, _) in c.inner.trace.decisions.items()
            if dec is Decision.SERIAL and _acts_on(view, tid) and tid not in c.ballistic]


def _run_checked(runs) -> Counter:
    """Run each (tap, registry name) with a ``_new_events`` that asserts
    agreement with the references, and that B's serial nested completions
    are of tasks no longer in their type; the entries checked, by (run,
    scheduler class), and the serial completions."""
    checks = Counter()
    name = None

    def new_events(self):
        new = _real_new_events(self)
        ref = self.__dict__.setdefault("_reference", {"seen": set(), "cancellations": 0})
        completed = []
        for tid in self.inner.trace.completions:
            if tid not in ref["seen"]:
                ref["seen"].add(tid)
                completed.append(tid)
        assert [tid for kind, tid in new if kind == COMPLETED] == completed
        cancelled = self.inner.trace.cancellations[ref["cancellations"]:]
        ref["cancellations"] += len(cancelled)
        assert [tid for kind, tid in new if kind == CANCELLED] == [tid for tid, _ in cancelled]
        if isinstance(self, CScheduler):
            # the cursor acts on each serial decision once, on the ones the
            # rescan acted on at this sync, and never on a ballistic task
            acted = [tid for kind, tid in new
                     if kind is Decision.SERIAL and _acts_on(self.outer_view, tid)]
            assert sorted(acted) == sorted(_reference_rescan(self, self.outer_view))
            assert not self.ballistic.intersection(acted)
            checks["rescan"] += len(acted)
        if isinstance(self, BScheduler):
            cancelled = {tid for tid, _ in self.inner.trace.cancellations}
            for tid in completed:
                serial = self.inner.trace.decisions[tid][0] is Decision.SERIAL
                assert serial == (tid in cancelled)
                if serial:
                    assert tid not in self.type_of[tid].members
                checks["serial"] += serial
        checks[name, type(self).__name__] += len(new)
        return new

    def catch_up(self, view):
        self.outer_view = view  # the view this sync reads
        return _real_catch_up(self, view)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sched_mrt._Nested, "_new_events", new_events)
        mp.setattr(sched_mrt._Nested, "_catch_up", catch_up)
        for tap, name in runs:
            done = run(name, tap)
            assert done.complete and done.violations == []
    return checks


class TestNestedBookkeeping:
    def test_cursor_and_serial_test_match_scans_on_corpus(self):
        checks = _run_checked(
            (tap, name) for tap, name in _corpus() if name in ("bsched", "csched")
        )
        # B on its own, C, and the B nested in C each read log entries,
        # some nested completions were serial, and C acted on nested
        # serial decisions
        assert checks["bsched", "BScheduler"] > 100
        assert checks["csched", "CScheduler"] > 100
        assert checks["csched", "BScheduler"] > 100
        assert checks["serial"] > 0
        assert checks["rescan"] > 0

    @given(small_taps(max_n=8, pow2=True), st.sampled_from(["bsched", "csched"]))
    @settings(max_examples=40, deadline=None)
    def test_cursor_and_serial_test_match_scans(self, tap, name):
        _run_checked([(tap, name)])


# A nested run is stepped only at its own events; in between, its clock
# lags the outer one.  The lockstep stepping it replaced, which advanced
# the nested run at every outer callback, stays here as the reference:
# the outer and nested runs and the schedulers' records must be identical,
# and only the nested slice lists may be shorter.

class _Lockstep(sched_mrt._Nested):
    def _catch_up(self, view):
        dt = view.now - self.inner.now
        return dt, self.inner.advance_to(view.now)


class _LockstepB(_Lockstep, BScheduler):
    pass


class _LockstepC(_Lockstep, CScheduler):
    nested = _LockstepB  # the nested B in lockstep too


def _nested_observed(tap, name, sched) -> tuple:
    """(what a run of ``sched`` shows, its nested clock steps): the outer
    trace, each nested engine's log, decisions, completions, cancellations
    and arrivals, C's B and B's CANC included (a nested B that got no task
    never started its CANC), and C's records."""
    trace = simulate(tap, sched, run_config(name, tap.p))
    shown = [trace.slices, trace.decisions, trace.completions, trace.cancellations,
             trace.arrivals]
    steps = 0
    while isinstance(sched, sched_mrt._Nested) and sched.inner is not None:
        inner = sched.inner.trace
        shown += [inner.log, inner.decisions, inner.completions, inner.cancellations,
                  inner.arrivals]
        if isinstance(sched, CScheduler):
            shown += [sched.mode_records, sched.stolen]
        steps += len(inner.slices)
        sched = sched.inner.scheduler
    return shown, steps


def _assert_matches_lockstep(tap, name) -> tuple:
    """The nested clock steps of the run and of the lockstep reference."""
    lockstep = {"bsched": _LockstepB, "csched": _LockstepC}[name]
    shown, steps = _nested_observed(tap, name, SCHEDULERS[name]())
    reference, reference_steps = _nested_observed(tap, name, lockstep())
    assert shown == reference
    assert steps <= reference_steps
    return steps, reference_steps


class TestEventDrivenNesting:
    def test_matches_lockstep_on_corpus(self):
        steps = reference_steps = 0
        for tap, name in _corpus() + _wide_corpus():
            if name in ("bsched", "csched"):
                a, b = _assert_matches_lockstep(tap, name)
                steps, reference_steps = steps + a, reference_steps + b
        assert steps < reference_steps

    @given(small_taps(max_n=8, pow2=True), st.sampled_from(["bsched", "csched"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_lockstep(self, tap, name):
        _assert_matches_lockstep(tap, name)


class TestCUnit:
    @pytest.mark.parametrize("factor", [4, 8])
    def test_unit_is_a_quarter_of_the_budget(self, factor):
        taps = [gen_c_trigger(8, 4)] + [
            gen_random(GenParams(p=(4, 8, 16)[i % 3], n=2 + i, ratio_distribution="pow2",
                                 arrival_pattern=("batch", "poisson", "bursty")[i % 3],
                                 seed=500 + i))
            for i in range(9)
        ]
        for tap in taps:
            done = run("csched", tap, factor)
            assert done.scheduler.inner.budget == Rat(factor * tap.p, 4)
            assert done.violations == [] and done.complete
