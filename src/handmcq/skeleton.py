"""Canonical 21-joint hand skeleton and the fixed descriptor catalogs.

Joint index order: wrist = 0, thumb CMC..Tip = 1..4, index MCP..Tip = 5..8,
middle = 9..12, ring = 13..16, little = 17..20. Dataset adapters are
expected to remap their native joint order into this one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnAngleJoint

WRIST = 0
NUM_JOINTS = 21

FINGERS = ("thumb", "index", "middle", "ring", "little")

# Joint slots along each finger chain, base to tip. The thumb has no PIP/DIP;
# its chain is CMC -> MCP -> IP -> Tip. All other fingers run MCP -> PIP ->
# DIP -> Tip.
_THUMB_SLOTS = ("cmc", "mcp", "ip", "tip")
_FINGER_SLOTS = ("mcp", "pip", "dip", "tip")

_SLOT_PHRASE = {
    "cmc": "carpometacarpal",
    "mcp": "metacarpophalangeal",
    "ip": "interphalangeal",
    "pip": "proximal interphalangeal",
    "dip": "distal interphalangeal",
    "tip": "tip",
}

# index -> (finger, slot); wrist handled separately
_JOINT_INFO: dict[int, tuple[str, str]] = {}
for _f, _finger in enumerate(FINGERS):
    _slots = _THUMB_SLOTS if _finger == "thumb" else _FINGER_SLOTS
    for _s, _slot in enumerate(_slots):
        _JOINT_INFO[1 + 4 * _f + _s] = (_finger, _slot)

JOINT_NAMES = tuple(
    "wrist" if i == WRIST else f"{_JOINT_INFO[i][0]}_{_JOINT_INFO[i][1]}"
    for i in range(NUM_JOINTS)
)

KINDS = ("angle", "distance", "relpos_x", "relpos_y", "relpos_z")
PAIR_KINDS = ("distance", "relpos_x", "relpos_y", "relpos_z")


def joint_display_name(j: int) -> str:
    """Human-readable anatomical name, e.g.

    'distal interphalangeal joint of the middle finger'. The wrist maps to
    plain 'wrist'. Names are unique across all 21 joints.
    """
    _check_joint(j)
    if j == WRIST:
        return "wrist"
    finger, slot = _JOINT_INFO[j]
    finger_phrase = "thumb" if finger == "thumb" else f"{finger} finger"
    return f"{_SLOT_PHRASE[slot]} joint of the {finger_phrase}"


def _check_joint(j: int) -> None:
    if not 0 <= j < NUM_JOINTS:
        raise KeyError(f"joint index {j} outside [0, {NUM_JOINTS - 1}]")


@dataclass(frozen=True)
class AngleTriplet:
    """The two kinematic neighbors used to measure bending at a joint."""

    prev: int
    center: int
    next: int


def angle_triplet(j: int) -> AngleTriplet:
    """Neighbors of j along its finger chain; the wrist anchors CMC/MCP joints.

    Raises NotAnAngleJoint for the wrist and the five fingertips, which have
    no two neighbors to bend between.
    """
    _check_joint(j)
    if j == WRIST:
        raise NotAnAngleJoint("the wrist has no bending angle")
    finger, slot = _JOINT_INFO[j]
    if slot == "tip":
        raise NotAnAngleJoint(f"{JOINT_NAMES[j]} is a fingertip")
    base = 1 + 4 * FINGERS.index(finger)
    offset = j - base
    prev = WRIST if offset == 0 else j - 1
    return AngleTriplet(prev=prev, center=j, next=j + 1)


@dataclass(frozen=True)
class DescriptorTarget:
    """One catalog entry: a single joint (angle) or an ordered joint pair.

    Pair sentences always phrase `subject` relative to `object`, in the
    order the catalog lists them.
    """

    kind: str
    subject: int
    object: int | None = None

    def key(self) -> str:
        """Stable string identity used for hashing and provenance."""
        if self.object is None:
            return f"{self.kind}:{self.subject}"
        return f"{self.kind}:{self.subject}-{self.object}"


_j = JOINT_NAMES.index


# The 15 joints with a bending angle, in catalog order.
ANGLE_JOINTS: tuple[int, ...] = tuple(
    _j(n)
    for n in (
        "thumb_mcp",
        "index_pip",
        "middle_pip",
        "ring_pip",
        "little_pip",
        "thumb_ip",
        "index_dip",
        "middle_dip",
        "ring_dip",
        "little_dip",
        "little_mcp",
        "ring_mcp",
        "middle_mcp",
        "index_mcp",
        "thumb_cmc",
    )
)

# The 23 ordered joint pairs shared by the distance kind and all three
# relative-position kinds. Mostly adjacent-finger pairs plus the thumb
# against every finger; includes one same-finger pair (index MCP vs DIP)
# and two one-finger-apart tip pairs.
JOINT_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (_j(a), _j(b))
    for a, b in (
        ("thumb_mcp", "index_pip"),
        ("index_pip", "middle_pip"),
        ("middle_pip", "ring_pip"),
        ("ring_pip", "little_pip"),
        ("thumb_tip", "index_tip"),
        ("index_tip", "middle_tip"),
        ("middle_tip", "ring_tip"),
        ("ring_tip", "little_tip"),
        ("thumb_tip", "index_dip"),
        ("thumb_tip", "middle_dip"),
        ("thumb_tip", "ring_dip"),
        ("thumb_tip", "little_dip"),
        ("thumb_tip", "index_mcp"),
        ("thumb_tip", "middle_mcp"),
        ("thumb_tip", "ring_mcp"),
        ("thumb_tip", "little_mcp"),
        ("index_mcp", "index_dip"),
        ("index_dip", "middle_dip"),
        ("middle_dip", "ring_dip"),
        ("ring_dip", "little_dip"),
        ("thumb_tip", "middle_tip"),
        ("middle_tip", "little_tip"),
        ("index_tip", "ring_tip"),
    )
)

_CATALOGS: dict[str, tuple[DescriptorTarget, ...]] = {
    "angle": tuple(DescriptorTarget("angle", j) for j in ANGLE_JOINTS)
}
for _kind in PAIR_KINDS:
    _CATALOGS[_kind] = tuple(
        DescriptorTarget(_kind, a, b) for a, b in JOINT_PAIRS
    )


def catalog(kind: str) -> tuple[DescriptorTarget, ...]:
    """The fixed, ordered target list for one descriptor kind."""
    try:
        return _CATALOGS[kind]
    except KeyError:
        raise KeyError(f"unknown descriptor kind {kind!r}") from None


def catalog_all() -> tuple[DescriptorTarget, ...]:
    """All 107 targets, ordered by kind then catalog position."""
    return tuple(t for kind in KINDS for t in _CATALOGS[kind])


# (kind, subject, object) -> the catalog's own target
_BY_FIELDS = {(t.kind, t.subject, t.object): t for t in catalog_all()}


def target_from_fields(kind: str, subject: int, object: int | None) -> DescriptorTarget:
    """The catalog target with these serialized fields. Raises KeyError when
    there is none, including for joints that are not ints (a bool, a float)."""
    t = _BY_FIELDS.get((kind, subject, object))
    if t is None or type(subject) is not int or not (object is None or type(object) is int):
        raise KeyError(f"{DescriptorTarget(kind, subject, object).key()} is not a catalog target")
    return t
