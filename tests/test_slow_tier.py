import slow_tier
from conftest import (avoidance_sweep, census_sweep, compare_sweep, legality_sweep,
                      pinned_sweep, reverse_sweep, round_trip_sweep, symmetry_sweep)

# the largest size tier-1 runs each check at: acceptance 03, 02, 04 and 05,
# TestCompare, test_reverse.py, and TestSequence's symmetries and census
TIER_1_LARGEST = {
    legality_sweep: 8,
    round_trip_sweep: 7,
    avoidance_sweep: 6,
    pinned_sweep: 7,
    compare_sweep: 5,
    reverse_sweep: 5,
    symmetry_sweep: 6,
    census_sweep: 5,
}


def test_every_slow_row_runs_a_check_past_tier_1():
    assert {check for _, check, *_ in slow_tier.ROWS} == set(TIER_1_LARGEST)
    for what, check, size, *_ in slow_tier.ROWS:
        assert size > TIER_1_LARGEST[check], what.format(size)
