import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taplab.core import (
    Decision,
    IncompleteTraceError,
    InvalidArgumentError,
    InvalidInstanceError,
    TAP,
    Task,
    awake_time,
    instance_hash,
    interval_union_measure,
    metrics_from_trace,
    normalize_tap,
    normalize_task,
    round_pow2,
    scale_tap,
    tap_from_json,
    tap_to_json,
)
from taplab.engine import Engine
from taplab.rationals import Rat, ZERO, ONE, PHI, is_power_of_two
from taplab.sched_awake import BalScheduler

from conftest import small_taps


def T(tid, sigma, pi, arrival=0, deps=()):
    return Task(tid, Rat(sigma), Rat(pi), Rat(arrival), frozenset(deps))


class TestNormalize:
    def test_serial_replaced_by_parallel(self):
        out = normalize_task(T(0, 2, 1), 4)
        assert (out.sigma, out.pi) == (1, 1)

    def test_pi_clamped_to_p_sigma(self):
        out = normalize_task(T(0, 1, 8), 4)
        assert (out.sigma, out.pi) == (1, 4)

    def test_in_range_unchanged(self):
        task = T(0, 1, 2)
        assert normalize_task(task, 4) is task

    def test_nonpositive_work_rejected(self):
        with pytest.raises(InvalidInstanceError):
            normalize_task(T(0, 0, 1), 4)

    @given(small_taps())
    def test_idempotent(self, tap):
        assert normalize_tap(tap) == normalize_tap(normalize_tap(tap))


class TestScale:
    def test_identity(self):
        tap = TAP(4, (T(0, 1, 2),))
        assert scale_tap(tap, 1) == tap

    def test_triples(self):
        out = scale_tap(TAP(4, (T(0, 1, 2),)), 3)
        assert (out.tasks[0].sigma, out.tasks[0].pi) == (3, 6)
        assert out.tasks[0].arrival == 0

    def test_rejects_shrinking(self):
        with pytest.raises(InvalidArgumentError):
            scale_tap(TAP(4, (T(0, 1, 2),)), Rat(1, 2))

    @given(small_taps(), st.integers(min_value=1, max_value=5))
    def test_scale_normalize_commute(self, tap, c):
        assert scale_tap(normalize_tap(tap), c) == normalize_tap(scale_tap(tap, c))


class TestRoundPow2:
    def test_examples(self):
        tap = TAP(8, (T(0, 3, 5),))
        out = round_pow2(tap)
        assert (out.tasks[0].sigma, out.tasks[0].pi) == (4, 8)
        assert round_pow2(TAP(8, (T(0, 4, 4),))).tasks[0].sigma == 4

    @given(small_taps())
    def test_bounds(self, tap):
        out = round_pow2(tap)
        for before, after in zip(tap.tasks, out.tasks):
            assert before.sigma <= after.sigma < 2 * before.sigma
            assert after.pi <= 2 * before.pi
            assert is_power_of_two(after.sigma)
            assert is_power_of_two(after.pi)
            assert 1 <= after.pi / after.sigma <= tap.p


class TestValidate:
    def test_cyclic_rejected(self):
        tap = TAP(4, (T(0, 1, 1, deps=(1,)), T(1, 1, 1, deps=(0,))))
        with pytest.raises(InvalidInstanceError, match="cyclic"):
            tap.validate()

    def test_decreasing_arrivals_rejected(self):
        tap = TAP(4, (T(0, 1, 1, arrival=2), T(1, 1, 1, arrival=1)))
        with pytest.raises(InvalidInstanceError):
            tap.validate()

    def test_small_p_rejected(self):
        with pytest.raises(InvalidInstanceError):
            TAP(1, ()).validate()

    @given(small_taps())
    def test_generated_instances_valid(self, tap):
        tap.validate()


def test_interval_union_measure():
    assert interval_union_measure([(ZERO, ONE), (Rat(2), Rat(3))]) == 2
    assert interval_union_measure([(ZERO, Rat(2)), (ONE, Rat(3))]) == 3
    assert interval_union_measure([]) == 0


class TestAwakeTime:
    def test_from_availability_to_now(self):
        # task 0 waits on task 1, released at 5 and done at 21/4
        tap = TAP(4, (T(0, 1, 1, deps=(1,)), T(1, 1, 1, arrival=5)))
        engine = Engine(tap, BalScheduler())
        engine.advance_to(Rat(43, 8))
        assert awake_time(engine.trace, engine.now) == Rat(3, 8)
        with pytest.raises(IncompleteTraceError, match=r"\[0\]"):
            metrics_from_trace(engine.trace, tap)
        engine.run()
        assert awake_time(engine.trace) == metrics_from_trace(engine.trace, tap).awake == Rat(1, 2)

    def test_unfinished_injected_task(self):
        # every task of the TAP finished, but an injected one has not
        tap = TAP(4, (T(0, 1, 4),))
        engine = Engine(tap, BalScheduler())
        engine.inject_task(T(1, 1, 4, arrival=1))
        engine.advance_to(Rat(3, 2))
        with pytest.raises(IncompleteTraceError, match=r"\[1\]"):
            metrics_from_trace(engine.trace, tap)


class TestJson:
    def test_format(self):
        tap = TAP(4, (T(0, Rat(3, 2), 2, arrival=1),))
        text = tap_to_json(tap)
        assert '"sigma":"3/2"' in text
        assert '"version":1' in text
        assert tap_from_json(text) == tap

    def test_deps_roundtrip(self):
        tap = TAP(4, (T(0, 1, 1), T(1, 1, 2, deps=(0,))))
        assert tap_from_json(tap_to_json(tap)) == tap

    @given(small_taps())
    def test_roundtrip(self, tap):
        assert tap_from_json(tap_to_json(tap)) == tap

    @given(small_taps())
    def test_hash_stable(self, tap):
        assert instance_hash(tap) == instance_hash(tap_from_json(tap_to_json(tap)))

    def test_malformed(self):
        with pytest.raises(InvalidInstanceError):
            tap_from_json("{nope")

    @pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
    def test_not_an_object(self, text):
        with pytest.raises(InvalidInstanceError, match="expected a JSON object"):
            tap_from_json(text)

    @pytest.mark.parametrize("field, value", [
        ("p", 4.7), ("p", 4.0), ("p", True), ("p", "4"), ("p", None),
        ("id", 1.9), ("id", False), ("id", "1"),
        ("deps", [1.5]), ("deps", [True]), ("deps", ["0"]),
    ])
    def test_non_integer_numbers_rejected(self, field, value):
        # a float is never truncated and a bool never read as 0 or 1
        data = {"version": 1, "p": 4, "tasks": [
            {"id": 0, "sigma": "1", "pi": "2", "arrival": "0"},
            {"id": 1, "sigma": "1", "pi": "2", "arrival": "0"},
        ]}
        if field == "p":
            data["p"] = value
        else:
            data["tasks"][1][field] = value
        with pytest.raises(InvalidInstanceError, match="must be an integer"):
            tap_from_json(json.dumps(data))
