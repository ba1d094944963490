import pytest

from handmcq.errors import NotAnAngleJoint
from handmcq.skeleton import (
    ANGLE_JOINTS,
    FINGERS,
    JOINT_NAMES,
    JOINT_PAIRS,
    KINDS,
    NUM_JOINTS,
    WRIST,
    angle_triplet,
    catalog,
    catalog_all,
    joint_display_name,
    target_from_fields,
)


def finger_of(j):
    return None if j == WRIST else JOINT_NAMES[j].split("_")[0]


def test_catalog_cardinalities():
    assert len(catalog("angle")) == 15
    assert len(catalog("distance")) == 23
    for axis in "xyz":
        assert len(catalog(f"relpos_{axis}")) == 23
    assert len(catalog_all()) == 15 + 23 + 3 * 23 == 107


def test_catalog_unknown_kind():
    with pytest.raises(KeyError):
        catalog("angles")


def test_display_name_examples():
    assert joint_display_name(JOINT_NAMES.index("middle_dip")) == (
        "distal interphalangeal joint of the middle finger"
    )
    assert joint_display_name(JOINT_NAMES.index("thumb_tip")) == "tip joint of the thumb"
    assert joint_display_name(WRIST) == "wrist"
    for j in (-1, NUM_JOINTS):
        with pytest.raises(KeyError, match=f"joint index {j} outside"):
            joint_display_name(j)


def test_display_names_injective():
    names = [joint_display_name(j) for j in range(NUM_JOINTS)]
    assert len(set(names)) == NUM_JOINTS


def test_angle_triplet_examples():
    t = angle_triplet(JOINT_NAMES.index("index_pip"))
    assert (t.prev, t.center, t.next) == (
        JOINT_NAMES.index("index_mcp"),
        JOINT_NAMES.index("index_pip"),
        JOINT_NAMES.index("index_dip"),
    )
    t = angle_triplet(JOINT_NAMES.index("thumb_cmc"))
    assert (t.prev, t.center, t.next) == (
        WRIST,
        JOINT_NAMES.index("thumb_cmc"),
        JOINT_NAMES.index("thumb_mcp"),
    )


def test_angle_triplet_rejects_tips_and_wrist():
    with pytest.raises(NotAnAngleJoint):
        angle_triplet(JOINT_NAMES.index("index_tip"))
    with pytest.raises(NotAnAngleJoint):
        angle_triplet(WRIST)
    for finger in FINGERS:
        with pytest.raises(NotAnAngleJoint):
            angle_triplet(JOINT_NAMES.index(f"{finger}_tip"))


def test_angle_triplet_chain_structure():
    # prev/next lie on the same finger chain as the center (wrist may anchor)
    for j in ANGLE_JOINTS:
        t = angle_triplet(j)
        assert t.center == j
        finger = finger_of(j)
        assert t.prev == WRIST or finger_of(t.prev) == finger
        assert finger_of(t.next) == finger


def test_angle_catalog_order_matches_fixed_table():
    assert catalog("angle")[0].subject == JOINT_NAMES.index("thumb_mcp")
    assert catalog("angle")[1].subject == JOINT_NAMES.index("index_pip")
    assert catalog("angle")[-1].subject == JOINT_NAMES.index("thumb_cmc")
    assert [t.subject for t in catalog("angle")].count(WRIST) == 0


def test_pair_catalog_contents():
    pairs = JOINT_PAIRS
    assert pairs[0] == (JOINT_NAMES.index("thumb_mcp"), JOINT_NAMES.index("index_pip"))
    # the one same-finger pair in the table
    assert pairs[16] == (JOINT_NAMES.index("index_mcp"), JOINT_NAMES.index("index_dip"))
    assert pairs[-1] == (JOINT_NAMES.index("index_tip"), JOINT_NAMES.index("ring_tip"))
    assert len(set(pairs)) == 23
    for a, b in pairs:
        assert a != b
        assert WRIST not in (a, b)


def test_pair_catalog_finger_structure():
    # All but one pair are cross-finger; the thumb may pair with any finger,
    # and two tip pairs skip one finger.
    same_finger = [
        (a, b) for a, b in JOINT_PAIRS if finger_of(a) == finger_of(b)
    ]
    assert same_finger == [(JOINT_NAMES.index("index_mcp"), JOINT_NAMES.index("index_dip"))]
    order = {f: i for i, f in enumerate(FINGERS)}
    non_adjacent = [
        (a, b)
        for a, b in JOINT_PAIRS
        if finger_of(a) != finger_of(b)
        and "thumb" not in (finger_of(a), finger_of(b))
        and abs(order[finger_of(a)] - order[finger_of(b)]) > 1
    ]
    assert sorted(non_adjacent) == sorted(
        [
            (JOINT_NAMES.index("middle_tip"), JOINT_NAMES.index("little_tip")),
            (JOINT_NAMES.index("index_tip"), JOINT_NAMES.index("ring_tip")),
        ]
    )


def test_pair_kinds_share_the_pair_list():
    distance_pairs = [(t.subject, t.object) for t in catalog("distance")]
    for axis in "xyz":
        assert [(t.subject, t.object) for t in catalog(f"relpos_{axis}")] == distance_pairs


def test_catalog_ordering_stable():
    assert catalog("distance") == catalog("distance")
    assert catalog_all() == catalog_all()
    kinds_seen = [t.kind for t in catalog_all()]
    assert kinds_seen == sorted(kinds_seen, key=list(KINDS).index)


def test_target_from_fields_round_trip():
    for t in catalog_all():
        assert target_from_fields(t.kind, t.subject, t.object) == t
    with pytest.raises(KeyError):
        target_from_fields("distance", 0, 1)  # wrist pairs are not in the catalog
    with pytest.raises(KeyError):
        target_from_fields("angle", JOINT_NAMES.index("index_tip"), None)


def test_target_from_fields_returns_the_catalog_instance():
    for t in catalog_all():
        assert target_from_fields(t.kind, t.subject, t.object) is t


@pytest.mark.parametrize("subject,obj", [
    (True, None),  # a bool is not joint 1
    (1.0, None),
    ("1", None),
    (float(JOINT_PAIRS[0][0]), JOINT_PAIRS[0][1]),
    (JOINT_PAIRS[0][0], float(JOINT_PAIRS[0][1])),
])
def test_target_from_fields_rejects_joints_that_are_not_ints(subject, obj):
    kind = "angle" if obj is None else "distance"
    with pytest.raises(KeyError):
        target_from_fields(kind, subject, obj)

