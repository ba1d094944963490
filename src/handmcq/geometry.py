"""Pose normalization and continuous descriptor computation.

All descriptor math runs on normalized poses: joints centered on the
reference centroid and isotropically scaled so the largest axis extent of
the reference (mesh vertices when available, else the joints themselves)
equals 1. Angles are reported in degrees; distances and offsets are
dimensionless.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import chain
from typing import Sequence

from .errors import DegenerateBone, DegeneratePose
from .skeleton import NUM_JOINTS, DescriptorTarget, angle_triplet

# Below this, extents and bone lengths are treated as zero. Far under the
# annotation precision of any real capture setup.
EPS = 1e-9

_AXIS_COL = {"x": 0, "y": 1, "z": 2}

Point = tuple[float, float, float]


@dataclass(frozen=True)
class RawPose:
    """21 joints in arbitrary consistent units, as float triples, and the
    frame that normalizes them: the centroid and largest axis extent of the
    mesh when `mesh_vertices` is given (`mode` 'mesh'), else of the joints.

    Joints may be any 21 x 3 sequence and the mesh any M x 3 (M >= 3) one,
    numpy arrays included; the mesh is not kept. Raises ValueError for a
    wrong shape, a coordinate, centroid or extent that is not finite, or
    joints too far from a mesh for their normalized bones to be measured.
    """

    joints: tuple[Point, ...]
    mesh_vertices: InitVar[Sequence | None] = None
    mode: str = field(init=False)
    centroid: Point = field(init=False)
    # The centroid of the reference with every axis negated: -centroid but
    # for the sign of a zero. Negating an axis leaves the extent as it is.
    mirrored_centroid: Point = field(init=False)
    extent: float = field(init=False)

    def __post_init__(self, mesh_vertices):
        joints = tuple((float(x), float(y), float(z)) for x, y, z in self.joints)
        if len(joints) != NUM_JOINTS:
            raise ValueError(f"expected {NUM_JOINTS} joints, got {len(joints)}")
        if not all(map(math.isfinite, chain.from_iterable(joints))):
            raise ValueError("joint coordinates must be finite")
        mode, reference = ("joints", joints) if mesh_vertices is None else ("mesh", mesh_vertices)
        try:
            columns = tuple(zip(*reference, strict=True))
            centroid, mirrored, extents = zip(*map(_column_frame, columns))
        except (TypeError, ValueError):
            columns = ()
        if len(columns) != 3 or len(columns[0]) < 3:
            raise ValueError("mesh_vertices must be an (M >= 3, 3) array of numbers")
        extent = max(extents)
        if not all(map(math.isfinite, (*centroid, extent))):
            raise ValueError(f"{mode} reference: its centroid and extent must be finite")
        if mode == "mesh" and extent > EPS:
            # Normalized coordinates lie within +-span, so a squared bone
            # length (three squared differences) is at most 12 span^2.
            span = max(abs(v - c) for joint in joints for v, c in zip(joint, centroid)) / extent
            if not math.isfinite(12 * span * span):
                raise ValueError("joints lie too far from the mesh reference to measure")
        vars(self).update(joints=joints, mode=mode, centroid=centroid,
                          mirrored_centroid=mirrored, extent=extent)


def _column_frame(column: Sequence[float]) -> tuple[float, float, float]:
    """(centroid, centroid of the negated column, extent) of one axis. The
    sum runs left to right from +0.0, as numpy's axis-0 sum does (`sum()` is
    compensated from Python 3.12 on), so a zero sum is +0.0 either way up
    and any other sum negates exactly."""
    total = 0.0
    for v in column:
        total += v
    centroid = float(total / len(column))
    mirrored = -centroid if total else centroid
    return centroid, mirrored, float((max(column) - centroid) - (min(column) - centroid))


@dataclass(frozen=True)
class NormalizedPose:
    """Joints in centered, isotropically scaled coordinates.

    `mode` records which reference was used for centering and scaling:
    'mesh' or 'joints'.
    """

    joints: tuple[Point, ...]
    mode: str = "joints"


def normalize_pose(raw: RawPose, flips: tuple[int, int, int] = (1, 1, 1)) -> NormalizedPose:
    """Center and isotropically scale a raw pose, mirrored first on each
    axis whose entry in `flips` is -1.

    With a mesh: subtract the mesh centroid from the joints and divide by
    the largest mesh axis extent. Without one: same, using the joints as
    their own reference. Raises DegeneratePose when all reference points
    coincide (zero extent on every axis).
    """
    e = raw.extent
    if e <= EPS:
        raise DegeneratePose(f"{raw.mode} reference has zero extent")
    sx, sy, sz = flips
    cx, cy, cz = (c if s == 1 else m
                  for s, c, m in zip(flips, raw.centroid, raw.mirrored_centroid))
    joints = tuple(((sx * x - cx) / e, (sy * y - cy) / e, (sz * z - cz) / e)
                   for x, y, z in raw.joints)
    return NormalizedPose(joints=joints, mode=raw.mode)


def joint_angle(pose: NormalizedPose, j: int) -> float:
    """Bending angle at joint j in degrees, in [0, 180].

    The angle between the two bone vectors pointing from j to its chain
    neighbors. The cosine is clamped to [-1, 1] so collinear bones yield
    exactly 0 or 180 instead of NaN.
    """
    triplet = angle_triplet(j)
    cx, cy, cz = pose.joints[triplet.center]
    ax, ay, az = pose.joints[triplet.prev]
    bx, by, bz = pose.joints[triplet.next]
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
    ix, iy, iz = pose.joints[i]
    kx, ky, kz = pose.joints[k]
    dx, dy, dz = ix - kx, iy - ky, iz - kz
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def relative_offset(pose: NormalizedPose, pair: tuple[int, int], axis: str) -> float:
    """Signed offset of the subject joint relative to the object joint
    along one axis."""
    col = _AXIS_COL[axis]
    i, k = pair
    return pose.joints[i][col] - pose.joints[k][col]


def descriptor_value(pose: NormalizedPose, target: DescriptorTarget) -> float:
    """Continuous value of any catalog target against a normalized pose."""
    kind = target.kind
    if kind == "angle":
        return joint_angle(pose, target.subject)
    pair = (target.subject, target.object)
    if kind == "distance":
        return joint_distance(pose, pair)
    return relative_offset(pose, pair, kind[-1])
