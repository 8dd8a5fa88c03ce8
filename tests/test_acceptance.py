"""Acceptance battery: one test per criterion.

The battery is computed once per session; each test prints its
criterion's one-line outcome and asserts it.  Run with ``-s`` (or read
the failure output) to see the lines.  Every criterion's outcome digest
is pinned, so a change that alters any battery outcome fails here.
"""

import pytest

from taplab.verify import run_battery


@pytest.fixture(scope="module")
def battery():
    results = run_battery(seed=0)
    return {r.name: r for r in results}


#: ``run_battery(seed=0)`` outcome digests; criteria computed together
#: (A2+A3, A6+A7) share one, and A12 carries the first pass's last
DIGESTS = {
    "A1": "c67e5f3780144a26be3156280282b6b9b8a29c0cd23cd058fc0980d16183fe76",
    "A2": "4bdd1e8a16cbac2e63bd1e4d9bfd1ce942da510fc540b4bfde6afe7ef649fdd9",
    "A3": "4bdd1e8a16cbac2e63bd1e4d9bfd1ce942da510fc540b4bfde6afe7ef649fdd9",
    "A4": "9ecc8da654d3d645481b4a399904fed449c12e97501f6f4fb83094e55e065be8",
    "A5": "42e17aae1f9ede26180fd2f6b392a5dfc73480b59bcfd5480e0340d16bc94a25",
    "A6": "705c7c838568e9bb531808f82ab2e0c6de49c310c2a54d14fd7a91d2343ae8bd",
    "A7": "705c7c838568e9bb531808f82ab2e0c6de49c310c2a54d14fd7a91d2343ae8bd",
    "A8": "2cbe536fbb603c2d0533049a1a0bad18ea8f7a1ee67edaeffb7f2c8f51f643e5",
    "A9": "52a1cef7664ed8eab68210ae7308ceb60bc3f7932571001cc59938f7ea5d5bc6",
    "A10": "2b17d1f986285a2f10a7f3b508d5f523f292906da16615328c78fccdf1c2eed8",
    "A11": "ab4df15aedf26af50eff37a9dbc8366e3ec3d0aea234458414965e4f52ad9e4f",
    "A12": "ab4df15aedf26af50eff37a9dbc8366e3ec3d0aea234458414965e4f52ad9e4f",
}


#: ``run_battery(seed=0, only="A7")`` digest: a pass of A6+A7 alone, so
#: it covers fewer notes than the full pass's A7 digest
ONLY_A7_DIGEST = "5669b63bd31cc8d91246b66ce3196951eec2bea67183d0649f9d5824f84c46b8"


def _check(battery, name):
    result = battery[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"{name} {status}  {result.title}: {result.detail}")
    assert result.passed, f"{result.title}: {result.detail}"


def test_a1_exhaustive_oracle_agrees_with_grid(battery):
    _check(battery, "A1")


def test_a2_bal_three_competitive_and_balanced(battery):
    _check(battery, "A2")


def test_a3_unk_six_competitive_and_saturated(battery):
    _check(battery, "A3")


def test_a4_golden_ratio_lower_bound(battery):
    _check(battery, "A4")


def test_a5_geometric_family_bounds(battery):
    _check(battery, "A5")


def test_a6_canc_completes_within_pool_ages(battery):
    _check(battery, "A6")


def test_a7_b_one_per_type_fast_parallel(battery):
    _check(battery, "A7")


def test_a8_c_ballistic_machinery(battery):
    _check(battery, "A8")


def test_a9_oblivious_trt_gap_trend(battery):
    _check(battery, "A9")


def test_a10_nonpreemptive_flood_gap(battery):
    _check(battery, "A10")


def test_a11_turtle_sqrt_p_band(battery):
    _check(battery, "A11")


def test_a12_battery_deterministic(battery):
    _check(battery, "A12")


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outcome_digest_pinned(battery, name):
    assert battery[name].digest == DIGESTS[name]


def test_only_one_criterion_of_a_pair():
    results = run_battery(seed=0, only="A7")
    assert [r.name for r in results] == ["A7"]
    assert results[0].passed
    assert results[0].digest == ONLY_A7_DIGEST
