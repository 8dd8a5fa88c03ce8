import random

from hypothesis import strategies as st

from taplab.adversary import GenParams, gen_random, gen_random_dtap
from taplab.rationals import Rat


@st.composite
def rationals(draw, min_value=0, max_value=64, max_denominator=16):
    f = draw(
        st.fractions(
            min_value=min_value, max_value=max_value, max_denominator=max_denominator
        )
    )
    return Rat(f.numerator, f.denominator)


@st.composite
def small_taps(draw, max_n=6, pow2=False):
    seed = draw(st.integers(min_value=0, max_value=2**32))
    rng = random.Random(seed)
    return gen_random(
        GenParams(
            p=rng.choice([4, 8, 16]),
            n=draw(st.integers(min_value=0, max_value=max_n)),
            ratio_distribution="pow2" if pow2 else rng.choice(["uniform", "extremes"]),
            arrival_pattern=rng.choice(["batch", "poisson", "bursty"]),
            seed=seed,
        )
    )


@st.composite
def small_dtaps(draw, max_n=8):
    return gen_random_dtap(GenParams(
        p=draw(st.sampled_from([4, 8, 16])),
        n=draw(st.integers(min_value=1, max_value=max_n)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    ))


def started_at(trace, tid):
    """When a task's last start began to run: the first slice at or after
    its decision that gives it a rate."""
    decided = trace.decisions[tid][1]
    return next(t0 for t0, _, alloc in trace.slices if t0 >= decided and tid in alloc)
