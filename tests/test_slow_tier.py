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

# the most recorded seconds one worker may be handed when the tier runs on
# two cores, the fewest it is planned for; CI's job limit is 15 minutes
WORKER_BUDGET = 12 * 60


def test_every_slow_row_runs_a_check_past_tier_1():
    assert {check for _, _, check, *_ in slow_tier.ROWS} == set(TIER_1_LARGEST)
    for _, what, check, size, *_ in slow_tier.ROWS:
        assert size > TIER_1_LARGEST[check], what.format(size)


def test_every_slow_row_records_its_time():
    for seconds, what, _, size, *_ in slow_tier.ROWS:
        assert seconds > 0, what.format(size)


def test_two_workers_each_stay_under_the_budget():
    # the rows largest first, each to the less-loaded of two workers
    loads = [0.0, 0.0]
    for seconds in sorted((row[0] for row in slow_tier.ROWS), reverse=True):
        loads[loads.index(min(loads))] += seconds
    assert max(loads) < WORKER_BUDGET, loads
