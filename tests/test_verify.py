"""The one run path, ``taplab.verify.run``, and the registry matrix: every
scheduler on every generator, at its default budget and at factor 1."""

import pytest

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
from taplab.core import TAP, Task, InvalidArgumentError, InvalidInstanceError, TapError
from taplab.engine import ContractError, EngineConfig
from taplab.oracle import opt_trt_lower
from taplab.rationals import Rat, ZERO, ONE
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
}
NOT_POW2 = {f"random-{ratio}-{arrival}"
            for ratio in ("uniform", "extremes") for arrival in ARRIVALS} | {"dtap-random"}
DTAPS = {"dtap-random", "dtap-levels"}


def _refusal(name, factor, label):
    """The error a run raises, or None where it finishes."""
    if name in ("sss", "csched") and factor == 1:
        return ContractError  # below the 2p and 4p budgets their rules assume
    if name == "csched" and label in NOT_POW2:
        return InvalidInstanceError  # power-of-two works only
    if name == "golden" and label in DTAPS:
        return TapError  # its awake oracle needs a plain TAP
    return None


@pytest.mark.parametrize("factor", [None, 1], ids=["default", "factor-1"])
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_scheduler_finishes_or_refuses(name, factor):
    got = {}
    for label, tap in INSTANCES.items():
        try:
            done = run(name, tap, factor)
        except TapError as exc:
            got[label] = type(exc)
        else:
            assert done.violations == [] and done.complete, label
            got[label] = None
    assert got == {label: _refusal(name, factor, label) for label in INSTANCES}


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
