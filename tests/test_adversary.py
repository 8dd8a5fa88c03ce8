import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab.adversary import (
    GenParams,
    GoldenAdversary,
    NonPreemptiveAdversary,
    c_trigger_corpus,
    gen_c_trigger,
    gen_dtap_levels,
    gen_geometric,
    gen_mrt_cheap_expensive,
    gen_obliv_two_task,
    gen_oblivious_pair,
    gen_random,
    gen_randlb,
)
from taplab.core import (
    Decision,
    InvalidArgumentError,
    TAP,
    Task,
    metrics_from_trace,
)
from taplab.dtap import _level_structure
from taplab.engine import EngineConfig, SchedCommands, Scheduler, simulate, validate_trace
from taplab.oracle import opt_awake_exhaustive, opt_awake_given_decisions, opt_trt_lower
from taplab.rationals import EPS, PHI, Rat, ZERO, ONE, is_power_of_two
from taplab.sched_awake import AllParallelScheduler, AllSerialScheduler, BalScheduler
from taplab.sched_mrt import CScheduler, EquiScheduler, RigidScheduler
from taplab.verify import _CheapExpensiveWitness

S, P = Decision.SERIAL, Decision.PARALLEL


def _params(seed, n=6, p=8, **kw):
    defaults = dict(
        p=p,
        n=n,
        ratio_distribution="uniform",
        arrival_pattern="poisson",
        seed=seed,
    )
    defaults.update(kw)
    return GenParams(**defaults)


class TestGenRandom:
    def test_empty(self):
        assert gen_random(_params(0, n=0)).tasks == ()

    def test_deterministic(self):
        assert gen_random(_params(42)) == gen_random(_params(42))

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_always_valid(self, seed):
        tap = gen_random(_params(seed))
        tap.validate()
        for t in tap.tasks:
            assert t.sigma <= t.pi <= tap.p * t.sigma

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_pow2_mode(self, seed):
        tap = gen_random(_params(seed, ratio_distribution="pow2"))
        for t in tap.tasks:
            assert is_power_of_two(t.sigma)
            assert is_power_of_two(t.pi)


class TestGoldenAdversary:
    def test_serial_scheduler_no_injection(self):
        adv = GoldenAdversary(8)
        trace = simulate(TAP(8, ()), AllSerialScheduler(), adversary=adv)
        assert not adv.injected
        awake = max(trace.completions.values())
        assert awake == PHI  # against witness value 1

    def test_patient_parallel_not_punished(self):
        class Patient(Scheduler):
            # start the task in parallel only after 1/phi has passed
            def on_arrival(self, view, task):
                return SchedCommands(timers=[(ONE / PHI, ("go",))])

            def on_timer(self, view, tag):
                starts = {tid: P for tid in view.unstarted_ids()}
                return SchedCommands(starts=starts)

            def allocate(self, view):
                return {tid: Rat(view.p) for tid in view.running_ids()[:1]}

        adv = GoldenAdversary(8)
        simulate(TAP(8, ()), Patient(), adversary=adv)
        assert not adv.injected

    def test_eager_parallel_gets_flooded(self):
        adv = GoldenAdversary(8)
        trace = simulate(TAP(8, ()), AllParallelScheduler(), adversary=adv)
        assert adv.injected
        # the initial task, then p - 1 tasks of serial work phi - t0 at t0 = 0
        assert trace.injected == [Task(0, PHI, Rat(8), ZERO)] + [
            Task(i, PHI, 8 * PHI, ZERO) for i in range(1, 8)
        ]
        assert len(trace.completions) == 8

    def test_bal_ratio_large_p(self):
        p = 100
        adv = GoldenAdversary(p)
        trace = simulate(TAP(p, ()), BalScheduler(), adversary=adv)
        tap = TAP(p, tuple(trace.injected))
        opt = opt_awake_given_decisions(tap, adv.witness_decisions())
        awake = metrics_from_trace(trace, tap).awake
        assert awake / opt >= PHI - Rat(1, p) - Rat(1, 100)


class TestGeometric:
    def test_p4_shape(self):
        tap = gen_geometric(4)
        shapes = [(t.sigma, t.pi) for t in tap.tasks]
        assert shapes == [(2, 4), (4, 8), (4, 16), (4, 16)]
        assert tap.tasks[0].arrival == EPS
        assert tap.tasks[1].arrival == 2 * EPS

    def test_prefix_opt_within_bound(self):
        tap = gen_geometric(4)
        prefix = TAP(4, tap.tasks[:2])
        opt, _ = opt_awake_exhaustive(prefix)
        assert Rat(5, 2) <= opt <= Rat(5, 2) + 2 * EPS
        assert opt <= (1 + Rat(2, 4)) * 2

    def test_all_parallel_pays(self):
        tap = gen_geometric(4)
        trace = simulate(tap, AllParallelScheduler())
        awake = metrics_from_trace(trace, tap).awake
        # 2^k (2 - k/p) - 1 with k=2, p=4
        assert awake >= Rat(5) - tap.n * EPS


class TestRandlb:
    def test_deterministic(self):
        assert gen_randlb(4, 5, seed=9) == gen_randlb(4, 5, seed=9)

    def test_block_structure(self):
        tap = gen_randlb(4, 3, seed=1)
        tap.validate()
        sqrt3 = Rat(26, 15)
        block_starts = {t.arrival for t in tap.tasks if t.arrival % 10 == 0}
        assert block_starts <= {0, 10, 20}
        for t in tap.tasks:
            if t.arrival % 10 == 0:
                assert (t.sigma, t.pi) == (sqrt3 + 1, 2 * tap.p)
            else:
                assert t.arrival % 10 == 1
                assert (t.sigma, t.pi) == (sqrt3, tap.p * sqrt3)

    def test_both_coins_appear(self):
        sizes = {gen_randlb(4, 1, seed=s).n for s in range(16)}
        assert sizes == {1, 4}


class TestObliviousFamilies:
    def test_pair_shape(self):
        a, b = gen_oblivious_pair(16)
        assert a.n == b.n == 4
        assert {(t.sigma, t.pi) for t in a.tasks} == {(ONE, ONE)}
        assert {(t.sigma, t.pi) for t in b.tasks} == {(ONE, Rat(16))}
        # identical serial projections
        assert [(t.sigma, t.arrival) for t in a.tasks] == [
            (t.sigma, t.arrival) for t in b.tasks
        ]

    def test_pair_forces_sqrt_p_gap(self):
        a, b = gen_oblivious_pair(16)
        # a decide-on-arrival oblivious scheduler picks one decision for
        # both instances; either way some instance is sqrt(p)/4 off
        for sched_cls in (AllSerialScheduler, AllParallelScheduler):
            worst = ZERO
            for tap in (a, b):
                trace = simulate(tap, sched_cls())
                awake = metrics_from_trace(trace, tap).awake
                opt, _ = opt_awake_exhaustive(tap)
                worst = max(worst, awake / opt)
            assert worst >= Rat(4, 4)  # sqrt(16)/4

    def test_two_task_family(self):
        x = Rat(1, 2)
        tap = gen_obliv_two_task(16, x)
        assert [(t.sigma, t.pi) for t in tap.tasks] == [
            (ONE, 16 * (x + Rat(1, 16))),
            (ONE, ONE),
        ]
        hard = gen_obliv_two_task(16, x, unparallelizable_second=True)
        assert hard.tasks[1].pi == 16


class TestCheapExpensive:
    def test_counts(self):
        tap = gen_mrt_cheap_expensive(16, seed=0)
        shapes = sorted((t.sigma, t.pi) for t in tap.tasks)
        assert shapes == [(ONE, ONE)] * 4 + [(ONE, Rat(16))] * 2

    def test_rejects_non_fourth_power(self):
        with pytest.raises(InvalidArgumentError):
            gen_mrt_cheap_expensive(64)

    @pytest.mark.parametrize("p", [-5, -16, 0, 1])
    def test_rejects_p_below_16(self, p):
        # 0 and 1 are fourth powers, but no valid TAP has p < 2
        with pytest.raises(InvalidArgumentError):
            gen_mrt_cheap_expensive(p)

    def test_seed_shuffles_positions(self):
        layouts = {
            tuple(t.pi for t in gen_mrt_cheap_expensive(16, seed=s).tasks)
            for s in range(10)
        }
        assert len(layouts) > 1

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_closed_forms(self, q, seed):
        # the exact outcomes that criterion A9 relies on, with p = q^4
        tap = gen_mrt_cheap_expensive(q ** 4, seed=seed)
        equi = metrics_from_trace(simulate(tap, EquiScheduler()), tap).trt
        witness = metrics_from_trace(simulate(tap, _CheapExpensiveWitness()), tap).trt
        assert equi == q * q + 1 + Rat(2, q)
        assert witness == q + Rat(q ** 3, q ** 3 - 1)
        assert opt_trt_lower(tap) == q + Rat(1, q * q)


class TestDtapLevels:
    def test_p16_shape(self):
        tap = gen_dtap_levels(16)
        assert tap.n == 16
        assert all((t.sigma, t.pi) == (ONE, Rat(4)) for t in tap.tasks)
        assert all(t.arrival == 0 for t in tap.tasks)

    def test_tree_depth(self):
        tap = gen_dtap_levels(16, seed=2)
        _, _, spawners = _level_structure(tap)
        assert len(spawners) == 3
        # the spawners are exactly the tasks some task depends on
        assert set(spawners) == {d for t in tap.tasks for d in t.deps}
        # level i+1 depends on exactly its spawner in level i
        for level in range(1, 4):
            deps = {
                next(iter(tap.task(tid).deps))
                for tid in range(level * 4, (level + 1) * 4)
            }
            assert deps == {spawners[level - 1]}

    def test_rejects_non_square(self):
        with pytest.raises(InvalidArgumentError):
            gen_dtap_levels(8)

    @pytest.mark.parametrize("p", [-4, -1, 0, 1])
    def test_rejects_p_below_4(self, p):
        with pytest.raises(InvalidArgumentError):
            gen_dtap_levels(p)


class TestCTriggerCorpus:
    def test_corpus_valid_and_pow2(self):
        corpus = c_trigger_corpus()
        assert len(corpus) >= 20
        for tap in corpus:
            tap.validate()
            for t in tap.tasks:
                assert is_power_of_two(t.sigma)
                assert is_power_of_two(t.pi)

    def test_single_trigger_shape(self):
        tap = gen_c_trigger(8, Rat(2), with_candidate=False)
        target = tap.tasks[0]
        assert target.pi == 4 * target.sigma


class TestNonPreemptiveFlood:
    def _probe(self):
        return TAP(100, (Task(0, ONE, Rat(100), ZERO),))

    def test_r0_no_injection(self):
        probe = self._probe()
        adv = NonPreemptiveAdversary(0, probe, ONE)
        simulate(probe, RigidScheduler(), adversary=adv)
        assert not adv.triggered

    def test_ratio_grows_with_r(self):
        probe = self._probe()
        ratios = []
        for R in (1, 10, 100):
            adv = NonPreemptiveAdversary(R, probe, ONE)
            trace = simulate(probe, RigidScheduler(), adversary=adv)
            assert adv.triggered
            ratios.append(sum(trace.completions.values(), ZERO))
        assert ratios[1] >= 5 * ratios[0] / 2
        assert ratios[2] >= 5 * ratios[1]

    def test_preemptive_scheduler_shrugs(self):
        probe = self._probe()
        adv = NonPreemptiveAdversary(100, probe, ONE)
        trace = simulate(probe, EquiScheduler(), adversary=adv)
        if adv.triggered:
            floods = [
                done - trace.arrivals[tid]
                for tid, done in trace.completions.items()
                if tid != 0
            ]
            assert max(floods) <= Rat(1, 2)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(InvalidArgumentError):
            NonPreemptiveAdversary(1, self._probe(), ZERO)


class TestReplay:
    """``Trace.injected`` holds every task an adversary emitted, so the TAP
    it played is the base TAP plus those tasks."""

    def _flood(self, R):
        probe = TAP(100, (Task(0, ONE, Rat(100), ZERO),))
        h = opt_trt_lower(probe)
        adv = NonPreemptiveAdversary(R, probe, h)
        return probe, h, simulate(probe, RigidScheduler(), adversary=adv)

    def test_flood_emits_ceil_rh_tasks_at_the_trigger(self):
        R = 10
        probe, h, trace = self._flood(R)
        assert len(trace.injected) == math.ceil(R * h) == 10
        # rigid starts the probe at once with all its work left: the trigger
        trigger = trace.injected[0].arrival
        assert trigger == ZERO
        assert [t.id for t in trace.injected] == list(range(1, 11))
        for t in trace.injected:
            assert (t.sigma, t.pi, t.arrival) == (Rat(1, 1000), Rat(1, 1000), trigger)
            assert trace.arrivals[t.id] == trigger

    @pytest.mark.parametrize("replay", ["golden", "flood"])
    def test_replayed_tap_validates(self, replay):
        if replay == "golden":
            base = TAP(8, ())
            trace = simulate(base, AllParallelScheduler(), adversary=GoldenAdversary(8))
        else:
            base, _, trace = self._flood(10)
        tap = TAP(base.p, base.tasks + tuple(trace.injected))
        tap.validate()
        # every completed task is in the replayed TAP, so the validator
        # checks work conservation for each injected task too
        assert {t.id for t in tap.tasks} == set(trace.completions)
        assert validate_trace(trace, tap).violations == []
        last = trace.injected[-1]
        wrong = Task(last.id, 2 * last.sigma, 2 * last.pi, last.arrival)
        bad = TAP(tap.p, tap.tasks[:-1] + (wrong,))
        assert any(
            v.startswith(f"work conservation: task {last.id}")
            for v in validate_trace(trace, bad).violations
        )

    def test_nested_engines_record_no_injections(self):
        tap = gen_c_trigger(8, Rat(2))
        sched = CScheduler()
        trace = simulate(tap, sched, EngineConfig(processor_budget=Rat(4 * tap.p)))
        b_engine = sched.inner
        canc_engine = b_engine.scheduler.inner
        # both nested engines were fed every task, by inject_task
        assert set(b_engine.tasks) == set(canc_engine.tasks) == {t.id for t in tap.tasks}
        assert trace.injected == b_engine.trace.injected == canc_engine.trace.injected == []
