"""Map continuous descriptor values onto discrete category labels.

Every kind partitions its value range into half-open intervals, lower
bound inclusive: a value exactly on a cut belongs to the upper category.
The relative-position kinds share a symmetric 'aligned' band around zero;
aligned instances are never turned into questions.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass

from .errors import OutOfRange

ANGLE_LABELS = (
    "bent completely inward",
    "bent inward",
    "bent slightly inward",
    "straight",
)
DISTANCE_LABELS = ("close to", "spread from", "spread wide from")
RELPOS_LABELS = {
    "relpos_x": ("at the left of", "aligned", "at the right of"),
    "relpos_y": ("below", "aligned", "above"),
    "relpos_z": ("behind", "aligned", "in front of"),
}

ALIGNED = "aligned"

# kind -> labels ordered by increasing continuous value
LABELS_BY_KIND: dict[str, tuple[str, ...]] = {
    "angle": ANGLE_LABELS,
    "distance": DISTANCE_LABELS,
    **RELPOS_LABELS,
}

# kind -> labels eligible as MCQ options (aligned excluded)
OPTION_LABELS_BY_KIND: dict[str, tuple[str, ...]] = {
    kind: tuple(lb for lb in labels if lb != ALIGNED)
    for kind, labels in LABELS_BY_KIND.items()
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A float, or an int (not a bool) that `float` can convert."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _is_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_number, v))


_THRESHOLD_FIELDS = {"angle_cuts": _is_numbers, "distance_cuts": _is_numbers,
                     "relpos_band": _is_number}


def check_fields(d, what: str, checks: dict) -> None:
    """Check a config object: a dict whose keys all appear in `checks` and
    whose values pass the key's check. Raises ValueError naming the key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    for key, value in d.items():
        if key not in checks:
            raise ValueError(f"{what}: unknown key {key!r}")
        if not checks[key](value):
            raise ValueError(f"{what}: {key} has the wrong type: {value!r}")


@dataclass(frozen=True)
class Category:
    """A discrete label for one descriptor kind."""

    kind: str
    label: str

    @property
    def is_aligned(self) -> bool:
        return self.label == ALIGNED


@dataclass(frozen=True)
class ThresholdConfig:
    """Cut points between categories.

    Defaults: angle bins split at 105/150/170 degrees, distance bins at
    0.1/0.3, and the relative-position aligned band is [-0.15, 0.15).
    Raises ValueError unless the cuts are lists or tuples of finite, strictly
    increasing numbers and relpos_band a finite positive number (no bools).
    """

    angle_cuts: tuple[float, float, float] = (105.0, 150.0, 170.0)
    distance_cuts: tuple[float, float] = (0.1, 0.3)
    relpos_band: float = 0.15

    def __post_init__(self):
        check_fields(vars(self), "thresholds", _THRESHOLD_FIELDS)
        # `+ 0.0` spells a -0.0 cut as 0.0, which it equals: equal configs
        # must share one config_id.
        object.__setattr__(self, "angle_cuts", tuple(float(c) + 0.0 for c in self.angle_cuts))
        object.__setattr__(self, "distance_cuts",
                           tuple(float(c) + 0.0 for c in self.distance_cuts))
        object.__setattr__(self, "relpos_band", float(self.relpos_band))
        if len(self.angle_cuts) != 3 or len(self.distance_cuts) != 2:
            raise ValueError("angle_cuts needs 3 cuts and distance_cuts 2")
        if not all(map(math.isfinite, (*self.angle_cuts, *self.distance_cuts, self.relpos_band))):
            raise ValueError("every cut and relpos_band must be finite")
        if list(self.angle_cuts) != sorted(set(self.angle_cuts)):
            raise ValueError("angle_cuts must be strictly increasing")
        if list(self.distance_cuts) != sorted(set(self.distance_cuts)):
            raise ValueError("distance_cuts must be strictly increasing")
        if self.relpos_band <= 0:
            raise ValueError("relpos_band must be positive")

    def config_id(self) -> str:
        """Short stable identifier embedded in dataset provenance."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ThresholdConfig":
        """Raises ValueError for a non-object, an unknown key or a wrongly
        typed value; missing keys take their defaults."""
        check_fields(d, "thresholds", _THRESHOLD_FIELDS)
        return cls(**d)


DEFAULT_THRESHOLDS = ThresholdConfig()

# kind -> interned categories in value order: categorization is the
# hottest call in generation.
_CATEGORIES: dict[str, tuple[Category, ...]] = {
    kind: tuple(Category(kind, label) for label in labels)
    for kind, labels in LABELS_BY_KIND.items()
}


def categorize(kind: str, value: float, cfg: ThresholdConfig = DEFAULT_THRESHOLDS) -> Category:
    """Bin a descriptor value: cuts split the kind's labels, lower bound
    inclusive, and the relative-position cuts are (-band, band). Raises
    OutOfRange for an angle outside [0, 180] or a negative distance, and
    KeyError for an unknown kind."""
    if kind == "angle":
        if not 0.0 <= value <= 180.0:
            raise OutOfRange(f"angle {value} outside [0, 180]")
        cuts = cfg.angle_cuts
    elif kind == "distance":
        if value < 0.0:
            raise OutOfRange(f"distance {value} is negative")
        cuts = cfg.distance_cuts
    elif kind in RELPOS_LABELS:
        cuts = (-cfg.relpos_band, cfg.relpos_band)
    else:
        raise KeyError(f"unknown descriptor kind {kind!r}")
    return _CATEGORIES[kind][bisect_right(cuts, value)]
