"""The one run path, ``taplab.verify.run``, and the registry matrix: every
scheduler on every generator and on hypothesis-drawn instances, at its
default budget and at factor 1, finishes or refuses exactly as its
declared input class predicts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taplab.verify as verify
from taplab.adversary import (
    GenParams,
    GoldenAdversary,
    NonPreemptiveAdversary,
    gen_c_trigger,
    gen_dtap_levels,
    gen_geometric,
    gen_mrt_cheap_expensive,
    gen_random,
    gen_random_dtap,
)
from taplab.core import (TAP, Task, InstanceTooLargeError, InvalidArgumentError,
                         InvalidInstanceError, TapError)
from taplab.engine import ContractError, EngineConfig
from taplab.oracle import opt_trt_lower
from taplab.rationals import Rat, ZERO, ONE, is_power_of_two
from taplab.sched_awake import BalScheduler
from taplab.verify import SCHEDULERS, run

RATIOS = ("uniform", "extremes", "pow2")
ARRIVALS = ("batch", "poisson", "bursty")
INSTANCES = {
    **{
        f"random-{ratio}-{arrival}": gen_random(GenParams(
            p=4, n=6, ratio_distribution=ratio, arrival_pattern=arrival, seed=1))
        for ratio in RATIOS
        for arrival in ARRIVALS
    },
    "dtap-random": gen_random_dtap(GenParams(p=4, n=6, seed=1)),
    "dtap-levels": gen_dtap_levels(16),
    "geometric": gen_geometric(4),
    "cheap-expensive": gen_mrt_cheap_expensive(16),
    "c-trigger": gen_c_trigger(8, 4),
    "plain-16": gen_random(GenParams(p=4, n=16, ratio_distribution="pow2", seed=1)),
}


def predicted_refusal(cls, factor, tap):
    """The error the declaration of ``cls`` predicts for a run on ``tap``
    at budget ``factor`` (None: the class's default), or None."""
    if (cls.budget_factor if factor is None else factor) < cls.min_budget_factor:
        return ContractError
    if cls.pow2_works and not all(
        is_power_of_two(t.sigma) and is_power_of_two(t.pi) for t in tap.tasks
    ):
        return InvalidInstanceError
    if cls.max_plain_n is not None:
        if tap.has_deps:
            return TapError
        if tap.n > cls.max_plain_n:
            return InstanceTooLargeError
    return None


def outcome(name, tap, factor):
    """The type of the error a run raises, None for a run that finishes
    valid and complete, and "invalid or incomplete" for any other run."""
    try:
        done = run(name, tap, factor)
    except TapError as exc:
        return type(exc)
    return None if done.violations == [] and done.complete else "invalid or incomplete"


@pytest.mark.parametrize("factor", [None, 1], ids=["default", "factor-1"])
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_scheduler_finishes_or_refuses(name, factor):
    got = {label: outcome(name, tap, factor) for label, tap in INSTANCES.items()}
    cls = SCHEDULERS[name]
    assert got == {label: predicted_refusal(cls, factor, tap)
                   for label, tap in INSTANCES.items()}


def test_the_matrix_meets_every_refusal():
    """Each kind of refusal is predicted somewhere in the matrix, so the
    matrix checks both directions for all of them."""
    predicted = {
        predicted_refusal(cls, factor, tap)
        for cls in SCHEDULERS.values() for factor in (None, 1) for tap in INSTANCES.values()
    }
    assert predicted == {None, ContractError, InvalidInstanceError, TapError,
                         InstanceTooLargeError}


@st.composite
def drawn_taps(draw):
    """Plain TAPs and DTAPs with power-of-two or raw works, n <= 8."""
    params = GenParams(
        p=draw(st.sampled_from([2, 4, 8])),
        n=draw(st.integers(min_value=0, max_value=8)),
        ratio_distribution=draw(st.sampled_from(RATIOS)),
        arrival_pattern=draw(st.sampled_from(ARRIVALS)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
    return gen_random_dtap(params) if draw(st.booleans()) else gen_random(params)


@settings(max_examples=40, deadline=None)
@given(drawn_taps())
def test_declarations_predict_every_refusal(tap):
    for name, cls in SCHEDULERS.items():
        for factor in (None, 1):
            assert outcome(name, tap, factor) == predicted_refusal(cls, factor, tap), (
                name, factor)


@pytest.mark.parametrize("adversary", ["golden", "flood"])
def test_run_replays_the_injected_tasks(adversary):
    if adversary == "golden":
        name, base, adv = "bal", TAP(8, ()), GoldenAdversary(8)
    else:
        name, base = "rigid", TAP(100, (Task(0, ONE, Rat(100), ZERO),))
        adv = NonPreemptiveAdversary(10, base, opt_trt_lower(base))
    done = run(name, base, adversary=adv)
    assert done.trace.injected
    assert done.tap.tasks == base.tasks + tuple(done.trace.injected)
    assert done.violations == [] and done.complete


def test_run_unknown_scheduler():
    with pytest.raises(InvalidArgumentError, match="unknown scheduler 'bogus'"):
        run("bogus", TAP(4, ()))


def test_run_scheduler_instance_on_default_config():
    tap = TAP(4, (Task(0, ONE, Rat(4), ZERO),))
    scheduler = BalScheduler()
    done = run(scheduler, tap)
    assert done.scheduler is scheduler and done.tap is tap
    assert done.config == EngineConfig()
    assert done.metrics().awake == 1


def test_run_validates_when_read(monkeypatch):
    calls = []
    real = verify.validate_trace

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "validate_trace", counted)
    done = run("equi", INSTANCES["geometric"])
    assert calls == []
    assert done.violations == []
    assert done.violations == []  # read twice, validated once
    assert len(calls) == 1
