"""Pose normalization and continuous descriptor computation.

All descriptor math runs on normalized poses: joints centered on the
reference centroid and isotropically scaled so the largest axis extent of
the reference (mesh vertices when available, else the joints themselves)
equals 1. Angles are reported in degrees; distances and offsets are
dimensionless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBone, DegeneratePose
from .skeleton import NUM_JOINTS, DescriptorTarget, angle_triplet

# Below this, extents and bone lengths are treated as zero. Far under the
# annotation precision of any real capture setup.
EPS = 1e-9

_AXIS_COL = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class RawPose:
    """21 joints in arbitrary consistent units, plus an optional hand mesh."""

    joints: np.ndarray
    mesh_vertices: np.ndarray | None = None

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=np.float64)
        if joints.shape != (NUM_JOINTS, 3):
            raise ValueError(f"expected ({NUM_JOINTS}, 3) joints, got {joints.shape}")
        if not np.isfinite(joints).all():
            raise ValueError("joint coordinates must be finite")
        object.__setattr__(self, "joints", joints)
        if self.mesh_vertices is not None:
            mesh = np.asarray(self.mesh_vertices, dtype=np.float64)
            if mesh.ndim != 2 or mesh.shape[1] != 3 or mesh.shape[0] < 3:
                raise ValueError("mesh_vertices must be an (M >= 3, 3) array")
            if not np.isfinite(mesh).all():
                raise ValueError("mesh coordinates must be finite")
            object.__setattr__(self, "mesh_vertices", mesh)


@dataclass(frozen=True)
class NormalizedPose:
    """Joints in centered, isotropically scaled coordinates.

    `mode` records which reference was used for centering and scaling:
    'mesh' or 'joints'.
    """

    joints: np.ndarray
    mode: str = "joints"
    # Flat (x0, y0, z0, x1, ...) copy for fast scalar indexing in hot loops.
    _flat: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._flat is None:
            object.__setattr__(self, "_flat", tuple(self.joints.reshape(-1).tolist()))

    def point(self, j: int) -> tuple[float, float, float]:
        f = self._flat
        k = 3 * j
        return (f[k], f[k + 1], f[k + 2])


def normalize_pose(raw: RawPose) -> NormalizedPose:
    """Center and isotropically scale a raw pose.

    With a mesh: subtract the mesh centroid from the joints and divide by
    the largest mesh axis extent. Without one: same, using the joints as
    their own reference. Raises DegeneratePose when all reference points
    coincide (zero extent on every axis).
    """
    if raw.mesh_vertices is not None:
        reference = raw.mesh_vertices
        mode = "mesh"
    else:
        reference = raw.joints
        mode = "joints"
    centroid = reference.mean(axis=0)
    centered_ref = reference - centroid
    extent = float((centered_ref.max(axis=0) - centered_ref.min(axis=0)).max())
    if extent <= EPS:
        raise DegeneratePose(f"{mode} reference has zero extent")
    joints = (raw.joints - centroid) / extent
    return NormalizedPose(joints=joints, mode=mode)


def joint_angle(pose: NormalizedPose, j: int) -> float:
    """Bending angle at joint j in degrees, in [0, 180].

    The angle between the two bone vectors pointing from j to its chain
    neighbors. The cosine is clamped to [-1, 1] so collinear bones yield
    exactly 0 or 180 instead of NaN.
    """
    triplet = angle_triplet(j)
    cx, cy, cz = pose.point(triplet.center)
    ax, ay, az = pose.point(triplet.prev)
    bx, by, bz = pose.point(triplet.next)
    ux, uy, uz = ax - cx, ay - cy, az - cz
    vx, vy, vz = bx - cx, by - cy, bz - cz
    nu = math.sqrt(ux * ux + uy * uy + uz * uz)
    nv = math.sqrt(vx * vx + vy * vy + vz * vz)
    if nu <= EPS or nv <= EPS:
        raise DegenerateBone(f"zero-length bone at joint {j}")
    cos = (ux * vx + uy * vy + uz * vz) / (nu * nv)
    cos = max(-1.0, min(1.0, cos))
    return math.degrees(math.acos(cos))


def joint_distance(pose: NormalizedPose, pair: tuple[int, int]) -> float:
    """Euclidean distance between two joints."""
    i, k = pair
    ix, iy, iz = pose.point(i)
    kx, ky, kz = pose.point(k)
    dx, dy, dz = ix - kx, iy - ky, iz - kz
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def relative_offset(pose: NormalizedPose, pair: tuple[int, int], axis: str) -> float:
    """Signed offset of the subject joint relative to the object joint
    along one axis."""
    col = _AXIS_COL[axis]
    i, k = pair
    return pose._flat[3 * i + col] - pose._flat[3 * k + col]


def descriptor_value(pose: NormalizedPose, target: DescriptorTarget) -> float:
    """Continuous value of any catalog target against a normalized pose."""
    kind = target.kind
    if kind == "angle":
        return joint_angle(pose, target.subject)
    pair = (target.subject, target.object)
    if kind == "distance":
        return joint_distance(pose, pair)
    return relative_offset(pose, pair, kind[-1])
