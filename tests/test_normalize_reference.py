"""The pure-Python normalization against the numpy formula it replaced, bit
for bit.

numpy is a test-only reference here. The formula is the one `normalize_pose`
and `normalized_pose_for` used while poses were numpy arrays: flip joints
and mesh by the sign vector (unless it is all ones), take the reference's
`mean(axis=0)` as centroid and its centered per-axis `max - min` as
extents, and divide the centered joints by the largest extent.
"""
import itertools
import random

import numpy as np
import pytest

from handmcq.dataset import GenerationConfig, PoseRecord, normalized_pose_for
from handmcq.errors import DegeneratePose
from handmcq.geometry import EPS, RawPose

FLIPS = list(itertools.product((1, -1), repeat=3))


def numpy_normalize(joints, mesh, flips):
    """Normalized joints as numpy computed them, or None for a degenerate
    reference."""
    joints = np.asarray(joints, dtype=np.float64)
    reference = None if mesh is None else np.asarray(mesh, dtype=np.float64)
    if flips != (1, 1, 1):
        signs = np.asarray(flips, dtype=np.float64)
        joints = joints * signs
        reference = None if reference is None else reference * signs
    if reference is None:
        reference = joints
    centroid = reference.mean(axis=0)
    centered = reference - centroid
    extent = float((centered.max(axis=0) - centered.min(axis=0)).max())
    if extent <= EPS:
        return None
    return ((joints - centroid) / extent).tolist()


def _floats(rng, n):
    return [[rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(n)]


def _ints(rng, n):
    # Small integers: columns often sum to exactly zero with mixed signs.
    return [[rng.randint(-3, 3) for _ in range(3)] for _ in range(n)]


def _signed_zeros(rng, n):
    return [[rng.choice((-0.0, 0.0, 0.0, 1.0, -1.0, 0.5)) for _ in range(3)]
            for _ in range(n)]


POINTS = {"floats": _floats, "ints": _ints, "signed_zeros": _signed_zeros}


def _cases():
    rng = random.Random(20260)
    for name, points in POINTS.items():
        for mesh_size in (None, 3, 50, 778):
            for i in range(4 if mesh_size == 778 else 12):
                mesh = None if mesh_size is None else points(rng, mesh_size)
                yield f"{name}-{mesh_size or 'joints'}-{i}", points(rng, 21), mesh
    # A column that sums to +0.0, as its mirror image does: the flipped
    # centroid is not minus the centroid there.
    column = [-1.0, 1.0] + [0.0] * 19
    yield "zero_sum_column", [[x, 0.5 * j, 1.0] for j, x in enumerate(column)], None
    # numpy sums a column of -0.0 to +0.0: its sum starts from +0.0.
    joints = [[0.25 * j, 1.0 - j, -0.0] for j in range(21)]
    yield "negative_zero_column", joints, None
    yield "negative_zero_mesh_column", joints, [[float(i), 2.0 * i, -0.0] for i in range(5)]


CASES = list(_cases())


def _hex(points):
    return [float.hex(v) for point in points for v in point]


@pytest.mark.parametrize("flips", FLIPS, ids=["".join("+-"[s < 0] for s in f) for f in FLIPS])
def test_normalization_matches_the_numpy_formula_bit_for_bit(flips):
    checked = 0
    for name, joints, mesh in CASES:
        expected = numpy_normalize(joints, mesh, flips)
        record = PoseRecord(name, RawPose(joints=joints, mesh_vertices=mesh), axis_flips=flips)
        if expected is None:
            with pytest.raises(DegeneratePose):
                normalized_pose_for(record, GenerationConfig())
            continue
        pose = normalized_pose_for(record, GenerationConfig())
        assert pose.mode == ("joints" if mesh is None else "mesh")
        assert _hex(pose.joints) == _hex(expected), name
        checked += 1
    assert checked > len(CASES) // 2
