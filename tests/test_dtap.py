import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab.adversary import GenParams, gen_dtap_levels, gen_random, gen_random_dtap
from taplab.core import Decision, TAP, Task, metrics_from_trace
from taplab.dtap import LevelWitness, TurtleScheduler, fairly_parallel, turtle_parallel_work_bound
from taplab.engine import simulate, validate_trace
from taplab.rationals import Rat, ONE
from taplab.verify import run

S, P = Decision.SERIAL, Decision.PARALLEL


def T(tid, sigma, pi, arrival=0, deps=()):
    return Task(tid, Rat(sigma), Rat(pi), Rat(arrival), frozenset(deps))


def reference_turtle_alloc(view) -> dict:
    """TURTLE's allocation written out on its own: all p processors to
    the lowest-id fairly-parallel task, else one each to the p
    not-very-parallel tasks with the most remaining work."""
    fp = []
    nvp = []
    for tid in view.running_ids():
        if view.decision(tid) is P:
            fp.append(tid)
        else:
            nvp.append(tid)
    if fp:
        return {min(fp): Rat(view.p)}
    nvp.sort(key=lambda tid: (-view.remaining(tid), tid))
    return {tid: ONE for tid in nvp[: view.p]}


def reference_level_witness_alloc(view) -> dict:
    """The level witness's allocation written out on its own: all p
    processors to the lowest-id running spawner, else one each to the
    lowest-id p running tasks."""
    parallel = [tid for tid in view.running_ids() if view.decision(tid) is P]
    if parallel:
        return {min(parallel): Rat(view.p)}
    return {tid: ONE for tid in view.running_ids()[: view.p]}


class _CheckedTurtle(TurtleScheduler):
    def allocate(self, view) -> dict:
        alloc = super().allocate(view)
        assert alloc == reference_turtle_alloc(view)
        return alloc


class _CheckedWitness(LevelWitness):
    def allocate(self, view) -> dict:
        alloc = super().allocate(view)
        assert alloc == reference_level_witness_alloc(view)
        return alloc


class TestClassify:
    def test_fairly_parallel(self):
        assert fairly_parallel(T(0, 10, 50), 100)

    def test_not_very_parallel(self):
        assert not fairly_parallel(T(0, 10, 200), 100)

    def test_boundary_strict(self):
        # pi/p equal to sigma/sqrt(p) is not fairly parallel
        assert not fairly_parallel(T(0, 10, 100), 100)


class TestTurtle:
    def test_chain_runs_back_to_back(self):
        tap = TAP(4, (T(0, 1, 2), T(1, 1, 2, deps=(0,)), T(2, 1, 2, deps=(1,))))
        trace = simulate(tap, TurtleScheduler())
        assert metrics_from_trace(trace, tap).awake == 3

    def test_fairly_parallel_preempts_serial(self):
        # task 1 (fairly parallel on p=16) takes the whole machine at its
        # arrival, freezing the serial task until it completes
        tap = TAP(16, (T(0, 4, 64), T(1, 4, 8, arrival=1)))
        trace = simulate(tap, TurtleScheduler())
        assert trace.decisions[1][0] is P
        busy = {
            tid: rates.get(tid)
            for t0, t1, rates in trace.slices
            if t0 == 1
            for tid in rates
        }
        assert busy.get(1) == 16
        assert busy.get(0) in (None, 0)

    def test_cyclic_rejected(self):
        tap = TAP(4, (T(0, 1, 2, deps=(1,)), T(1, 1, 2, deps=(0,))))
        with pytest.raises(Exception, match="cyclic"):
            simulate(tap, TurtleScheduler())

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_random_dtaps_complete_cleanly(self, seed):
        rng = random.Random(seed)
        tap = gen_random_dtap(
            GenParams(
                p=rng.choice([4, 16]),
                n=rng.randrange(1, 8),
                ratio_distribution="uniform",
                arrival_pattern="bursty",
                seed=seed,
            )
        )
        trace = simulate(tap, TurtleScheduler())
        assert validate_trace(trace, tap).ok
        assert set(trace.completions) == {t.id for t in tap.tasks}
        assert turtle_parallel_work_bound(tap)
        # no task progresses before its dependencies finish
        for t in tap.tasks:
            for dep in t.deps:
                assert trace.completions[dep] <= trace.arrivals[t.id]

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_allocation_matches_reference(self, seed):
        rng = random.Random(seed)
        tap = gen_random_dtap(
            GenParams(
                p=rng.choice([4, 16]),
                n=rng.randrange(1, 10),
                ratio_distribution=rng.choice(["uniform", "extremes"]),
                arrival_pattern=rng.choice(["batch", "poisson", "bursty"]),
                seed=seed,
            )
        )
        assert simulate(tap, _CheckedTurtle()) == simulate(tap, TurtleScheduler())


def witness_awake(tap) -> Rat:
    return run(LevelWitness(tap), tap).metrics().awake


class TestLevelWitness:
    def test_p16_exact_value(self):
        assert witness_awake(gen_dtap_levels(16)) == Rat(7, 4)

    def test_p4_exact_value(self):
        assert witness_awake(gen_dtap_levels(4)) == Rat(3, 2)

    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_upper_bound_two(self, p):
        tap = gen_dtap_levels(p, seed=3)
        done = run(LevelWitness(tap), tap)
        assert done.metrics().awake <= 2
        assert done.violations == [] and done.complete

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_allocation_matches_reference(self, p, seed):
        # most-work-first equals the witness's own rule: it never runs
        # serial and parallel tasks together, nor more than p serial tasks
        tap = gen_dtap_levels(p, seed=seed)
        assert simulate(tap, _CheckedWitness(tap)) == simulate(tap, LevelWitness(tap))

    @pytest.mark.parametrize("tap", [
        # spawners 0, 1 and 2 (two of them at once), then a late joint dependent
        TAP(4, (T(0, 1, 2), T(1, 1, 2, deps=(0,)), T(2, 2, 4, deps=(0,)),
                T(3, 1, 4, arrival=1, deps=(1, 2)), T(4, 2, 2, arrival=3))),
        TAP(4, (T(0, 1, 2), T(1, 1, 2), T(2, 3, 3, arrival=1))),
    ], ids=["non-level-dtap", "plain-tap"])
    def test_valid_and_complete_beyond_level_dtaps(self, tap):
        done = run(LevelWitness(tap), tap)
        assert done.violations == [] and done.complete

    @given(st.integers(min_value=0, max_value=2**32), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_valid_and_complete_on_random_instances(self, seed, deps):
        rng = random.Random(seed)
        params = GenParams(
            p=rng.choice([4, 16]),
            n=rng.randrange(1, 10),
            arrival_pattern=rng.choice(["batch", "poisson", "bursty"]),
            seed=seed,
        )
        tap = gen_random_dtap(params) if deps else gen_random(params)
        done = run(LevelWitness(tap), tap)
        assert done.violations == [] and done.complete

    @pytest.mark.parametrize("p", [16, 64])
    def test_turtle_gap_on_levels(self, p):
        # TURTLE treats every level task as not-very-parallel and pays
        # about sqrt(p) while the witness stays at most 2
        import math

        tap = gen_dtap_levels(p, seed=1)
        trace = simulate(tap, TurtleScheduler())
        awake = metrics_from_trace(trace, tap).awake
        upper = witness_awake(tap)
        s = math.isqrt(p)
        assert Rat(s, 8) * upper <= awake <= 3 * s * upper
