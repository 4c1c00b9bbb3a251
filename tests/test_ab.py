import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # quartiles 12.25, 16.75


@pytest.mark.parametrize("shift, wins, holds", [
    (-5.0, 10, True),  # every pair lower, by more than the parent's IQR of 4.5
    (-4.0, 10, False),  # every pair lower, by less than the IQR
    (0.0, 0, False),  # ties count for neither side
])
def test_claim_needs_nine_of_ten_wins_and_a_gap_beyond_the_parents_iqr(shift, wins, holds):
    c = ab.compare(PARENT, [p + shift for p in PARENT], lower_is_better=True)
    assert c["parent"] == (12.25, 14.5, 16.75)
    assert (c["wins"], c["holds"]) == (wins, holds)


def test_nine_wins_hold_and_eight_do_not():
    change = [p - 6.0 for p in PARENT]
    change[0] = PARENT[0] + 1.0
    assert ab.compare(PARENT, change, lower_is_better=True)["holds"]
    change[1] = PARENT[1]
    assert not ab.compare(PARENT, change, lower_is_better=True)["holds"]


def test_higher_is_better_counts_wins_upward():
    c = ab.compare(PARENT, [p + 5.0 for p in PARENT], lower_is_better=False)
    assert (c["wins"], c["holds"]) == (10, True)
    assert c["rel"] == pytest.approx(5.0 / 14.5)
