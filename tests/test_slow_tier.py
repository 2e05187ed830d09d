import slow_tier
from conftest import (avoidance_sweep, compare_sweep, legality_sweep, reverse_sweep,
                      round_trip_sweep, symmetry_sweep)

# the largest size tier-1 runs each check at: acceptance 03, 02 and 04,
# TestCompare, test_reverse.py, TestSequence's symmetries and its pinned
# counts
TIER_1_LARGEST = {
    legality_sweep: 8,
    round_trip_sweep: 7,
    avoidance_sweep: 6,
    compare_sweep: 5,
    reverse_sweep: 5,
    symmetry_sweep: 6,
    slow_tier.pinned_count: 7,
}


def test_every_slow_row_runs_a_check_past_tier_1():
    assert {check for _, check, *_ in slow_tier.ROWS} == set(TIER_1_LARGEST)
    for what, check, size, *_ in slow_tier.ROWS:
        assert size > TIER_1_LARGEST[check], what.format(size)
