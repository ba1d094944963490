"""The seeded draw, `dataset._seeded_shuffle`, on fixed inputs.

Every dataset byte rests on this one function, so its output is pinned here
as literal lists: a change to the draw must show up as a failure here, not
only as new file digests. The draw takes no randomness from Python's
`random`, and neither do these tests.
"""
from collections import Counter

import pytest

import handmcq.dataset
from handmcq.dataset import _seeded_shuffle

# The 0.999 quantiles of the chi-square distribution with 23 and 68 degrees
# of freedom. The inputs are fixed, so each statistic is one fixed number,
# not a flaky sample.
CHI2_999_DF23 = 49.73
CHI2_999_DF68 = 109.79


def test_dataset_does_not_import_random():
    assert "random" not in vars(handmcq.dataset)


@pytest.mark.parametrize("n,parts,expected", [
    # a 4-option order, as `assemble_mcq` draws it
    (4, (0, "img000", "options", "angle:14"), [0, 2, 1, 3]),
    (4, (-12345, "img000", "options", "angle:14"), [1, 2, 3, 0]),
    # a kind's 23-target pool, as `_image_lines` draws it
    (23, (0, "img000", "sample", "distance"),
     [4, 15, 7, 16, 3, 21, 13, 19, 12, 10, 22, 8, 14, 6, 9, 17, 11, 0, 18, 5, 20, 2, 1]),
    (23, (0, "héllo✋", "sample", "distance"),
     [17, 5, 15, 12, 19, 18, 20, 2, 1, 6, 10, 11, 7, 0, 8, 9, 13, 14, 4, 21, 3, 16, 22]),
    # 69 items, as many as the three relpos catalogs hold together
    (69, (0, "img000", "sample", "relpos_x"),
     [34, 49, 29, 27, 14, 52, 16, 24, 35, 7, 58, 48, 3, 63, 68, 26, 10, 41, 25, 0, 22, 46,
      45, 43, 50, 17, 55, 18, 42, 13, 20, 64, 57, 66, 12, 47, 9, 37, 19, 23, 65, 39, 33, 54,
      59, 62, 8, 44, 40, 67, 11, 15, 51, 38, 61, 28, 56, 5, 32, 21, 31, 30, 36, 1, 4, 6, 53,
      60, 2]),
], ids=["options", "options_negative_seed", "distance_pool", "distance_pool_non_ascii_id",
        "69_items"])
def test_draw_is_pinned(n, parts, expected):
    assert _seeded_shuffle(range(n), *parts) == expected
    letters = [f"t{i}" for i in range(n)]
    assert _seeded_shuffle(letters, *parts) == [letters[i] for i in expected]


def _chi2(counts: Counter, cells: int, draws: int) -> float:
    expected = draws / cells
    return (sum((c - expected) ** 2 for c in counts.values())
            + (cells - len(counts)) * expected ** 2) / expected


def test_option_orders_are_uniform():
    draws = 24_000
    orders = Counter(tuple(_seeded_shuffle(range(4), 0, f"img{i:05d}", "options", "angle:14"))
                     for i in range(draws))
    assert len(orders) == 24
    assert _chi2(orders, 24, draws) < CHI2_999_DF23


def test_first_pick_of_69_items_is_uniform():
    draws = 69 * 200
    firsts = Counter(_seeded_shuffle(range(69), 0, f"img{i:05d}", "sample", "relpos_x")[0]
                     for i in range(draws))
    assert _chi2(firsts, 69, draws) < CHI2_999_DF68
