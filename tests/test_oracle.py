import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab.adversary import gen_geometric
from taplab.core import Decision, TAP, Task, TapError, metrics_from_trace
from taplab.engine import simulate
from taplab.oracle import (
    InstanceTooLargeError,
    grid_opt,
    opt_awake_exhaustive,
    opt_awake_given_decisions,
    opt_trt_lower,
)
from taplab.rationals import Rat, ZERO, ONE, PHI
from taplab.sched_awake import BalScheduler, UnkScheduler
from taplab.verify import _awake_corpus, _grid_corpus

from conftest import small_taps

S, P = Decision.SERIAL, Decision.PARALLEL


def T(tid, sigma, pi, arrival=0):
    return Task(tid, Rat(sigma), Rat(pi), Rat(arrival))


def golden_tap(p):
    return TAP(p, (T(0, PHI, p),))


class TestGivenDecisions:
    def test_golden_parallel(self):
        assert opt_awake_given_decisions(golden_tap(4), {0: P}) == 1

    def test_golden_serial(self):
        assert opt_awake_given_decisions(golden_tap(4), {0: S}) == PHI

    def test_geometric_prefix(self):
        tap = TAP(4, (T(0, 2, 4), T(1, 4, 8)))
        assert opt_awake_given_decisions(tap, {0: S, 1: P}) == Rat(5, 2)

    def test_empty(self):
        assert opt_awake_given_decisions(TAP(4, ()), {}) == 0

    def test_gap_between_bursts(self):
        tap = TAP(4, (T(0, 1, 4), T(1, 1, 4, arrival=10)))
        assert opt_awake_given_decisions(tap, {0: S, 1: S}) == 2


class TestExhaustive:
    def test_golden(self):
        value, decisions = opt_awake_exhaustive(golden_tap(4))
        assert value == 1
        assert decisions == {0: P}

    def test_geometric_prefix(self):
        tap = TAP(4, (T(0, 2, 4), T(1, 4, 8)))
        value, decisions = opt_awake_exhaustive(tap)
        assert value == Rat(5, 2)
        assert decisions == {0: S, 1: P}

    def test_indifferent_single_task(self):
        value, _ = opt_awake_exhaustive(TAP(4, (T(0, 1, 4),)))
        assert value == 1

    def test_size_bound(self):
        tap = TAP(4, tuple(T(i, 1, 1) for i in range(5)))
        with pytest.raises(InstanceTooLargeError):
            opt_awake_exhaustive(tap, bound=4)

    def test_dependencies_rejected(self):
        tap = TAP(4, (T(0, 1, 4), Task(1, ONE, Rat(4), ZERO, frozenset({0}))))
        with pytest.raises(TapError, match="no dependencies"):
            opt_awake_exhaustive(tap)

    def test_empty(self):
        assert opt_awake_exhaustive(TAP(4, ())) == (0, {})


# --- the search against a reference enumerator ---------------------------------

def reference_exhaustive(tap):
    """Re-simulate every one of the 2^n decision vectors in ``tap.tasks``
    order, Serial first, keeping the first strict improvement."""
    ids = [t.id for t in tap.tasks]
    best = best_vec = None
    for vec in itertools.product((S, P), repeat=tap.n):
        decisions = dict(zip(ids, vec))
        value = opt_awake_given_decisions(tap, decisions)
        if best is None or value < best:
            best, best_vec = value, decisions
    return best, best_vec


def assert_matches_reference(tap):
    assert opt_awake_exhaustive(tap) == reference_exhaustive(tap), tap


@st.composite
def tie_heavy_taps(draw, max_n=6):
    """Plain TAPs with shuffled ids, simultaneous arrivals, idle gaps,
    sigma == pi ties, p = 1 and n = 0."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = rng.choice([1, 2, 3, 4])
    n = draw(st.integers(min_value=0, max_value=max_n))
    arrivals = sorted(rng.choice([0, 0, 1, 2, 9]) for _ in range(n))
    ids = list(range(n))
    rng.shuffle(ids)
    tasks = []
    for tid, arrival in zip(ids, arrivals):
        sigma = Rat(rng.randint(1, 3))
        pi = sigma * rng.choice([1, 1, rng.randint(1, p)])
        tasks.append(Task(tid, sigma, pi, Rat(arrival)))
    return TAP(p, tuple(tasks))


@st.composite
def spread_taps(draw, max_n=8):
    """Plain TAPs with one or two tasks per arrival time, shuffled ids
    (so tap.tasks order and id order differ inside a pair), sigma == pi
    ties and gaps that are short, long, or drain-to-empty: a gap of the
    total work so far outlasts all of it, as work drains at rate >= 1."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p = rng.choice([2, 3, 4])
    n = rng.randint(1, max_n)
    ids = list(range(n))
    rng.shuffle(ids)
    tasks = []
    arrival = total = ZERO
    while len(tasks) < n:
        for _ in range(min(rng.choice([1, 2]), n - len(tasks))):
            sigma = Rat(rng.randint(1, 4))
            pi = sigma * rng.choice([1, 1, rng.randint(1, p), p])
            tasks.append(Task(ids[len(tasks)], sigma, pi, arrival))
            total += pi
        arrival += rng.choice([Rat(1, 2), ONE, Rat(3), total])
    return TAP(p, tuple(tasks))


class TestSearchMatchesReference:
    """Same (value, decision vector) as re-simulating all 2^n vectors."""

    def test_a1_corpus(self):
        for tap in _grid_corpus(0):
            assert_matches_reference(tap)

    def test_a2_corpus_head(self):
        for tap in _awake_corpus(0, count=100):
            assert_matches_reference(tap)

    def test_a5_prefixes(self):
        # criterion A5 takes the prefixes of 1..log2(p) tasks
        tap = gen_geometric(16)
        for j in range(1, 5):
            assert_matches_reference(TAP(16, tap.tasks[:j]))

    @given(tie_heavy_taps())
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy(self, tap):
        assert_matches_reference(tap)

    @given(spread_taps())
    @settings(max_examples=200, deadline=None)
    def test_spread_arrivals(self, tap):
        # many arrival boundaries, where dominated prefixes are dropped
        assert_matches_reference(tap)

    def test_dominated_prefix_holding_a_tied_optimum(self):
        # {2: P, 0: S, 3: S, 1: S} is optimal too, but at time 2 its state
        # (serial work 1 left) equals that of {2: S, 0: S}, whose key is
        # smaller, and {2: S, 0: P} (nothing left) dominates it; the
        # incumbent {2: S, 0: P, 3: S, 1: S} is not optimal
        tap = TAP(2, (T(2, 1, 2), T(0, 3, 3), T(3, 1, 2, 2), T(1, 3, 6, 4)))
        assert_matches_reference(tap)
        assert opt_awake_exhaustive(tap) == (6, {2: S, 0: S, 3: S, 1: S})

    def test_dominance_compares_keys_not_visit_order(self):
        # {3: P, 1: S} and {3: S, 1: P} reach time 2 in the same state;
        # the latter has the smaller key in tap.tasks order, so the search
        # meets it first, keeps it, and it is the answer
        tap = TAP(3, (T(2, 1, 2), T(3, 3, 3), T(1, 3, 3), T(0, 3, 6, 2)))
        assert_matches_reference(tap)
        assert opt_awake_exhaustive(tap) == (
            Rat(13, 3), {2: S, 3: S, 1: P, 0: P})

    def test_ids_out_of_arrival_order(self):
        # ids are not in tap.tasks order, and the tie-break follows
        # tap.tasks order, not ids: an id-ordered search that dropped tied
        # leaves (pruning on >=, or not comparing ties) would return the
        # first optimum it met, {2: P, 1: S, 0: P}
        tap = TAP(3, (T(2, 2, 2, 1), T(1, 2, 2, 1), T(0, 2, 2, 2)))
        assert_matches_reference(tap)
        assert opt_awake_exhaustive(tap) == (2, {2: S, 1: P, 0: P})


    def test_tied_batch_incumbent_with_larger_key(self):
        # value 8 with task 5 Serial whatever the other seven do: 128
        # vectors tie, among them the incumbent (the seven on pi/p, with a
        # larger key); only the all-Serial key may be returned
        ids = [5, 2, 7, 0, 3, 6, 1, 4]
        tap = TAP(4, tuple(T(i, 8, 32) if i == 5 else T(i, 1, 1) for i in ids))
        assert_matches_reference(tap)
        assert opt_awake_exhaustive(tap) == (8, dict.fromkeys(ids, S))

    def test_later_group_task_over_the_serial_cap(self):
        # the incumbent, all Parallel, scores 23/4, so at time 1 the room
        # is 19/4 and task 2 (sigma 6) can only run parallel
        tap = TAP(4, (T(0, 4, 8), T(2, 6, 12, 1), T(1, 3, 3, 2)))
        assert_matches_reference(tap)
        assert opt_awake_exhaustive(tap) == (Rat(11, 2), {0: S, 2: P, 1: S})


class TestClosedForm:
    """All work present at once: most-work-first takes
    max(largest serial work, total work / p) (McNaughton's rule)."""

    @given(st.one_of(small_taps(max_n=8), tie_heavy_taps(max_n=8)))
    @settings(max_examples=150, deadline=None)
    def test_batch_optimum(self, tap):
        # the optimum of a batch: with serial works capped at M, serial
        # whatever is shorter that way; M ranges over 0 and every sigma
        tasks = tuple(Task(t.id, t.sigma, t.pi, Rat(3)) for t in tap.tasks)
        tap = TAP(tap.p, tasks)
        caps = [ZERO] + [t.sigma for t in tasks]
        assert opt_awake_exhaustive(tap)[0] == min(
            max(cap, sum((min(t.sigma, t.pi) if t.sigma <= cap else t.pi
                          for t in tasks), ZERO) / tap.p)
            for cap in caps)

    @given(st.one_of(small_taps(max_n=8), tie_heavy_taps(max_n=8)),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_batch_awake(self, tap, rng):
        tasks = tuple(Task(t.id, t.sigma, t.pi, Rat(3)) for t in tap.tasks)
        tap = TAP(tap.p, tasks)
        decisions = {t.id: rng.choice((S, P)) for t in tasks}
        serial = [t.sigma for t in tasks if decisions[t.id] is S]
        total = sum(serial, ZERO) + sum(
            (t.pi for t in tasks if decisions[t.id] is P), ZERO)
        assert opt_awake_given_decisions(tap, decisions) == max(
            max(serial, default=ZERO), total / tap.p)


class TestGridOpt:
    def test_golden(self):
        assert grid_opt(golden_tap(4), "awake", Rat(1, 4)) == 1

    def test_ratio_one_task_still_splits(self):
        assert grid_opt(TAP(4, (T(0, 2, 2),)), "awake", Rat(1, 4)) == Rat(1, 2)

    def test_misaligned_arrival_rejected(self):
        tap = TAP(4, (T(0, 1, 2, arrival=Rat(1, 3)),))
        with pytest.raises(Exception, match="grid"):
            grid_opt(tap, "awake", Rat(1, 2))

    def test_trt_objective(self):
        # two unit serial tasks on p=2: both finish at 1, trt 2
        tap = TAP(2, (T(0, 1, 2), T(1, 1, 2)))
        assert grid_opt(tap, "trt", ONE) == 2


class TestTrtLower:
    def test_single_task(self):
        assert opt_trt_lower(TAP(4, (T(0, 1, 4),))) == 1

    def test_cheap_expensive_p16(self):
        tasks = [T(i, 1, 1) for i in range(4)] + [T(4 + i, 1, 16) for i in range(2)]
        tap = TAP(16, tuple(Task(t.id, t.sigma, t.pi, t.arrival) for t in tasks))
        assert opt_trt_lower(tap) == Rat(9, 4)

    def test_identical_tasks_duration_bound(self):
        # lb is the max of the duration sum and the relaxed-SRPT bound;
        # here every task needs at least min(1, 4/4) = 1
        tap = TAP(4, tuple(T(i, 1, 4) for i in range(5)))
        assert opt_trt_lower(tap) == 5

    def test_identical_tasks_sequential_bound(self):
        # three ratio-1 tasks of work 4: SRPT completes them at 1, 2, 3
        tap = TAP(4, tuple(T(i, 4, 4) for i in range(3)))
        assert opt_trt_lower(tap) == 6


class TestAdmissibility:
    @given(small_taps(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_lower_bounds_every_schedule(self, tap):
        if tap.n == 0:
            return
        opt, _ = opt_awake_exhaustive(tap)
        lb = opt_trt_lower(tap)
        for scheduler in (BalScheduler(), UnkScheduler()):
            trace = simulate(tap, scheduler)
            m = metrics_from_trace(trace, tap)
            assert opt <= m.awake
            assert lb <= m.trt

    @given(small_taps(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_tasks(self, tap):
        if tap.n < 2:
            return
        smaller = TAP(tap.p, tap.tasks[:-1])
        assert opt_awake_exhaustive(smaller)[0] <= opt_awake_exhaustive(tap)[0]

    @given(small_taps(max_n=4), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_scaling_batch_instances(self, tap, c):
        from taplab.core import scale_tap

        if tap.n == 0 or any(t.arrival != 0 for t in tap.tasks):
            return
        assert (
            opt_awake_exhaustive(scale_tap(tap, c))[0]
            == c * opt_awake_exhaustive(tap)[0]
        )
