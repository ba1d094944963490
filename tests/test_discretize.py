import random

import numpy as np
import pytest

from handmcq.discretize import (
    ALIGNED,
    ANGLE_LABELS,
    DISTANCE_LABELS,
    LABELS_BY_KIND,
    RELPOS_LABELS,
    Category,
    ThresholdConfig,
    categorize,
)
from handmcq.errors import OutOfRange


def test_angle_bins():
    assert categorize("angle", 100.0).label == "bent completely inward"
    assert categorize("angle", 104.999).label == "bent completely inward"
    assert categorize("angle", 105.0).label == "bent inward"
    assert categorize("angle", 149.999).label == "bent inward"
    assert categorize("angle", 150.0).label == "bent slightly inward"
    assert categorize("angle", 169.999).label == "bent slightly inward"
    assert categorize("angle", 170.0).label == "straight"
    assert categorize("angle", 0.0).label == "bent completely inward"
    assert categorize("angle", 180.0).label == "straight"


def test_angle_out_of_range():
    with pytest.raises(OutOfRange):
        categorize("angle", -0.001)
    with pytest.raises(OutOfRange):
        categorize("angle", 180.001)


def test_distance_bins():
    assert categorize("distance", 0.05).label == "close to"
    assert categorize("distance", 0.1).label == "spread from"
    assert categorize("distance", 0.299).label == "spread from"
    assert categorize("distance", 0.3).label == "spread wide from"
    assert categorize("distance", 0.0).label == "close to"
    assert categorize("distance", 5.0).label == "spread wide from"


def test_distance_out_of_range():
    with pytest.raises(OutOfRange):
        categorize("distance", -1e-9)


def test_offset_bins_per_axis():
    assert categorize("relpos_x", -0.2).label == "at the left of"
    assert categorize("relpos_x", 0.0).label == ALIGNED
    assert categorize("relpos_x", 0.2).label == "at the right of"
    assert categorize("relpos_y", -0.2).label == "below"
    assert categorize("relpos_y", 0.0).label == ALIGNED
    assert categorize("relpos_y", 0.2).label == "above"
    assert categorize("relpos_z", -0.2).label == "behind"
    assert categorize("relpos_z", 0.15).label == "in front of"
    assert categorize("relpos_z", -0.15).label == ALIGNED


def test_boundary_convention_every_cut():
    # Lower bound inclusive: a value exactly on a cut belongs to the upper
    # category; one ulp below belongs to the lower.
    eps = 1e-12
    cfg = ThresholdConfig()
    for cut, below, at in [
        (105.0, ANGLE_LABELS[0], ANGLE_LABELS[1]),
        (150.0, ANGLE_LABELS[1], ANGLE_LABELS[2]),
        (170.0, ANGLE_LABELS[2], ANGLE_LABELS[3]),
    ]:
        assert categorize("angle", cut - eps, cfg).label == below
        assert categorize("angle", cut, cfg).label == at
    for cut, below, at in [
        (0.1, DISTANCE_LABELS[0], DISTANCE_LABELS[1]),
        (0.3, DISTANCE_LABELS[1], DISTANCE_LABELS[2]),
    ]:
        assert categorize("distance", cut - eps, cfg).label == below
        assert categorize("distance", cut, cfg).label == at
    for axis in "xyz":
        low, mid, high = RELPOS_LABELS[f"relpos_{axis}"]
        assert categorize(f"relpos_{axis}", -0.15 - eps, cfg).label == low
        assert categorize(f"relpos_{axis}", -0.15, cfg).label == mid
        assert categorize(f"relpos_{axis}", 0.15 - eps, cfg).label == mid
        assert categorize(f"relpos_{axis}", 0.15, cfg).label == high


def test_totality_and_monotonicity_bulk():
    # Exhaustive half-open partition: every in-range value maps to exactly
    # one category, with rank non-decreasing in the continuous value.
    rng = random.Random(42)
    n = 1_000_000
    domains = {
        "angle": lambda: rng.uniform(0.0, 180.0),
        "distance": lambda: rng.uniform(0.0, 1.5),
        "relpos_x": lambda: rng.uniform(-1.0, 1.0),
        "relpos_y": lambda: rng.uniform(-1.0, 1.0),
        "relpos_z": lambda: rng.uniform(-1.0, 1.0),
    }
    for kind, draw in domains.items():
        values = sorted(draw() for _ in range(n))
        labels = LABELS_BY_KIND[kind]
        last_rank = 0
        for v in values:
            cat = categorize(kind, v)
            rank = labels.index(cat.label)
            assert rank >= last_rank
            last_rank = rank
        assert last_rank == len(labels) - 1  # the domain reaches the top bin


def test_custom_thresholds():
    cfg = ThresholdConfig(angle_cuts=(90.0, 120.0, 160.0), distance_cuts=(0.05, 0.5),
                          relpos_band=0.25)
    assert categorize("angle", 100.0, cfg).label == "bent inward"
    assert categorize("distance", 0.3, cfg).label == "spread from"
    assert categorize("relpos_x", 0.2, cfg).label == ALIGNED


def test_threshold_validation():
    with pytest.raises(ValueError):
        ThresholdConfig(angle_cuts=(150.0, 105.0, 170.0))
    with pytest.raises(ValueError):
        ThresholdConfig(distance_cuts=(0.3, 0.3))
    with pytest.raises(ValueError):
        ThresholdConfig(relpos_band=0.0)
    # A config file's `thresholds` object could hold none of these.
    for fields in ({"angle_cuts": ("105", "150", "170")}, {"relpos_band": True},
                   {"distance_cuts": np.array([0.1, 0.3])}):
        key = next(iter(fields))
        with pytest.raises(ValueError, match=f"thresholds: {key} has the wrong type"):
            ThresholdConfig(**fields)


def test_threshold_config_id_and_round_trip():
    a = ThresholdConfig()
    b = ThresholdConfig.from_dict(a.to_dict())
    assert a == b
    assert a.config_id() == b.config_id()
    c = ThresholdConfig(angle_cuts=(100.0, 150.0, 170.0))
    assert c.config_id() != a.config_id()


def test_category_position():
    assert Category("relpos_y", ALIGNED).is_aligned
    assert not Category("relpos_y", "above").is_aligned


def test_categorize_dispatch_unknown_kind():
    with pytest.raises(KeyError):
        categorize("altitude", 1.0)
