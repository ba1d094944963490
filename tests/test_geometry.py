import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aligned_free_joints, random_joints, random_rotation
from handmcq.errors import DegenerateBone, DegeneratePose
from handmcq.geometry import (
    NormalizedPose,
    RawPose,
    descriptor_value,
    joint_angle,
    joint_distance,
    normalize_pose,
    relative_offset,
)
from handmcq.skeleton import ANGLE_JOINTS, JOINT_PAIRS, angle_triplet, catalog


def pose_with_points(assignments: dict[int, tuple]) -> NormalizedPose:
    """A pose built directly from coordinates, bypassing normalization."""
    joints = np.zeros((21, 3))
    for j, coords in assignments.items():
        joints[j] = coords
    return NormalizedPose(joints=joints)


def test_raw_pose_validation():
    with pytest.raises(ValueError):
        RawPose(joints=np.zeros((20, 3)))
    bad = np.zeros((21, 3))
    bad[3, 1] = float("nan")
    with pytest.raises(ValueError):
        RawPose(joints=bad)
    with pytest.raises(ValueError):
        RawPose(joints=np.zeros((21, 3)), mesh_vertices=np.zeros((2, 3)))


def test_normalize_joints_only_scale():
    # x spans 2 units (the largest extent), so the scale factor is 1/2
    joints = np.zeros((21, 3))
    joints[0] = (-1.0, 0.0, 0.0)
    joints[1] = (1.0, 0.0, 0.0)
    joints[2] = (0.0, 1.0, 0.0)
    joints[3] = (0.0, 0.0, 1.0)
    for j in range(4, 21):
        joints[j] = (0.0, 0.5, 0.5)
    norm = normalize_pose(RawPose(joints=joints))
    out = np.asarray(norm.joints)
    assert norm.mode == "joints"
    x_extent = out[:, 0].max() - out[:, 0].min()
    assert abs(x_extent - 1.0) < 1e-12
    max_extent = (out.max(axis=0) - out.min(axis=0)).max()
    assert abs(max_extent - 1.0) < 1e-12
    assert np.linalg.norm(out.mean(axis=0)) < 1e-12


def test_normalize_coincident_joints_degenerate():
    with pytest.raises(DegeneratePose):
        normalize_pose(RawPose(joints=np.full((21, 3), 3.7)))


def test_normalize_with_mesh_reference():
    # Hand-computed: mesh centroid (0,0,0); extents (2,1,0) -> scale 1/2.
    # Joints span only 1 unit in x, so after scaling their extent is 0.5.
    mesh = np.asarray([(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, -0.5, 0.0)])
    joints = np.zeros((21, 3))
    joints[:, 0] = np.linspace(-0.5, 0.5, 21)
    joints[:, 1] = 0.25
    joints[:, 2] = 0.25
    norm = normalize_pose(RawPose(joints=joints, mesh_vertices=mesh))
    assert norm.mode == "mesh"
    out = np.asarray(norm.joints)
    assert abs((out[:, 0].max() - out[:, 0].min()) - 0.5) < 1e-12
    np.testing.assert_allclose(out[0], (-0.25, 0.125, 0.125), atol=1e-12)
    np.testing.assert_allclose(out[20], (0.25, 0.125, 0.125), atol=1e-12)


def test_normalize_degenerate_mesh_even_with_spread_joints():
    mesh = np.full((5, 3), 2.0)
    joints = random_joints(random.Random(1))
    with pytest.raises(DegeneratePose):
        normalize_pose(RawPose(joints=joints, mesh_vertices=mesh))


def test_normalize_idempotent_for_joints_only():
    rng = random.Random(5)
    for _ in range(25):
        norm1 = normalize_pose(RawPose(joints=random_joints(rng)))
        norm2 = normalize_pose(RawPose(joints=norm1.joints))
        np.testing.assert_allclose(norm2.joints, norm1.joints, atol=1e-9)


def test_normalized_centroid_and_extent_bounds():
    rng = random.Random(9)
    for _ in range(50):
        norm = normalize_pose(RawPose(joints=random_joints(rng, scale=rng.uniform(0.1, 50))))
        joints = np.asarray(norm.joints)
        assert np.linalg.norm(joints.mean(axis=0)) < 1e-9
        extent = (joints.max(axis=0) - joints.min(axis=0)).max()
        assert abs(extent - 1.0) < 1e-9


def _triplet_pose(prev_xyz, center_xyz, next_xyz, j=6):
    t = angle_triplet(j)
    return pose_with_points({t.prev: prev_xyz, t.center: center_xyz, t.next: next_xyz}), j


def test_joint_angle_orthogonal():
    pose, j = _triplet_pose((1, 0, 0), (0, 0, 0), (0, 1, 0))
    assert abs(joint_angle(pose, j) - 90.0) < 1e-9


def test_joint_angle_collinear_opposite():
    pose, j = _triplet_pose((-0.4, 0, 0), (0, 0, 0), (0.7, 0, 0))
    assert joint_angle(pose, j) == 180.0


def test_joint_angle_45_degrees():
    # cos = dot((1,0,0), (1,1,0)) / (1 * sqrt(2)) = 1/sqrt(2) -> 45 degrees
    pose, j = _triplet_pose((1, 0, 0), (0, 0, 0), (1, 1, 0))
    assert abs(joint_angle(pose, j) - 45.0) < 1e-9


def test_joint_angle_zero_when_same_side():
    pose, j = _triplet_pose((0.5, 0, 0), (0, 0, 0), (0.9, 0, 0))
    assert joint_angle(pose, j) == 0.0


def test_joint_angle_degenerate_bone():
    pose, j = _triplet_pose((0, 0, 0), (0, 0, 0), (1, 0, 0))
    with pytest.raises(DegenerateBone):
        joint_angle(pose, j)


def test_joint_angle_range_on_random_poses():
    rng = random.Random(2)
    for _ in range(30):
        pose = normalize_pose(RawPose(joints=random_joints(rng)))
        for j in ANGLE_JOINTS:
            theta = joint_angle(pose, j)
            assert 0.0 <= theta <= 180.0


def test_joint_distance_examples():
    pair = JOINT_PAIRS[0]
    i, k = pair
    pose = pose_with_points({i: (0.5, 0.5, 0.5), k: (0.5, 0.5, 0.5)})
    assert joint_distance(pose, pair) == 0.0
    pose = pose_with_points({i: (0.1, 0, 0), k: (0, 0, 0)})
    assert abs(joint_distance(pose, pair) - 0.1) < 1e-12
    pose = pose_with_points({i: (0.3, 0.4, 0.0), k: (0, 0, 0)})
    assert abs(joint_distance(pose, pair) - 0.5) < 1e-12


def test_relative_offset_examples():
    pair = JOINT_PAIRS[4]
    i, k = pair
    pose = pose_with_points({i: (0.2, 0, 0), k: (0, 0, 0)})
    assert relative_offset(pose, pair, "x") == pytest.approx(0.2, abs=1e-12)
    pose = pose_with_points({i: (0.1, 0.1, 0.1), k: (0.1, 0.1, 0.1)})
    for axis in "xyz":
        assert relative_offset(pose, pair, axis) == 0.0
    pose = pose_with_points({i: (0, -0.16, 0), k: (0, 0, 0)})
    assert relative_offset(pose, pair, "y") == pytest.approx(-0.16, abs=1e-12)


@given(st.integers(0, 22), st.sampled_from("xyz"), st.integers())
@settings(max_examples=60, deadline=None)
def test_relative_offset_antisymmetric(pair_index, axis, seed):
    rng = random.Random(seed)
    pose = NormalizedPose(joints=random_joints(rng))
    i, k = JOINT_PAIRS[pair_index]
    forward = relative_offset(pose, (i, k), axis)
    assert relative_offset(pose, (k, i), axis) == -forward


def test_angle_invariant_under_rotation_and_scale():
    rng = random.Random(17)
    base = aligned_free_joints(rng)
    reference = {
        j: joint_angle(normalize_pose(RawPose(joints=base)), j) for j in ANGLE_JOINTS
    }
    for _ in range(20):
        R = random_rotation(rng)
        scale = rng.uniform(0.05, 40.0)
        transformed = (base @ R.T) * scale
        pose = normalize_pose(RawPose(joints=transformed))
        for j, expected in reference.items():
            assert abs(joint_angle(pose, j) - expected) < 1e-6


def test_distance_and_offset_invariant_under_translation():
    rng = random.Random(23)
    base = random_joints(rng)
    pose = normalize_pose(RawPose(joints=base))
    shifted = normalize_pose(RawPose(joints=base + np.asarray([3.0, -7.0, 11.0])))
    for pair in JOINT_PAIRS:
        assert joint_distance(shifted, pair) == pytest.approx(
            joint_distance(pose, pair), abs=1e-9
        )
        for axis in "xyz":
            assert abs(relative_offset(shifted, pair, axis)) == pytest.approx(
                abs(relative_offset(pose, pair, axis)), abs=1e-9
            )


def test_descriptor_value_matches_primitives():
    rng = random.Random(31)
    pose = normalize_pose(RawPose(joints=random_joints(rng)))
    for t in catalog("angle"):
        assert descriptor_value(pose, t) == joint_angle(pose, t.subject)
    for t in catalog("distance"):
        assert descriptor_value(pose, t) == joint_distance(pose, (t.subject, t.object))
    for axis in "xyz":
        for t in catalog(f"relpos_{axis}"):
            assert descriptor_value(pose, t) == relative_offset(
                pose, (t.subject, t.object), axis
            )
