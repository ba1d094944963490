"""Shared synthetic-pose builders and file helpers."""
from __future__ import annotations

import contextlib
import json
import math
import random
import warnings

import numpy as np
import pytest

# A failing Hypothesis test makes its plugin import this module, which
# imports libcst, whose use of `mypy_extensions.TypedDict` warns. Under
# `-W error` that warning turned the failure report into an INTERNALERROR;
# importing the module once here, with the warning ignored, keeps the
# falsifying example readable.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# One slot value per joint, reused on all three axes. Chosen so that every
# catalog joint pair differs by at least 0.25 after normalization (the
# extent is exactly 1), i.e. no relative-position target is ever aligned,
# and every chain bone has length > 0: a pose that always yields the full
# question budget. Verified by brute force in test_dataset.
ALIGNED_FREE_SLOTS = (
    0.98, 0.15, 0.4, 0.6, 0.0,   # wrist, thumb cmc..tip
    0.25, 0.05, 0.5, 0.45,       # index mcp..tip
    0.35, 0.65, 0.75, 0.7,       # middle
    0.55, 0.9, 1.0, 0.95,        # ring
    0.85, 0.1, 0.3, 0.2,         # little
)

# Keeps the worst-case normalized pair gap above 0.20, still clear of the
# 0.15 aligned band.
SAFE_JITTER = 0.02


def aligned_free_joints(rng: random.Random | None = None, jitter: float = SAFE_JITTER) -> np.ndarray:
    """A 21x3 pose guaranteed to produce 25 MCQs (no aligned, no degenerate)."""
    joints = np.tile(np.asarray(ALIGNED_FREE_SLOTS)[:, None], (1, 3))
    if rng is not None and jitter:
        noise = np.asarray(
            [[rng.uniform(-jitter, jitter) for _ in range(3)] for _ in range(21)]
        )
        joints = joints + noise
    return joints


def random_joints(rng: random.Random, scale: float = 1.0) -> np.ndarray:
    """Uniform random joints in a cube; aligned cases occur naturally."""
    return np.asarray(
        [[rng.uniform(0.0, scale) for _ in range(3)] for _ in range(21)]
    )


def straight_finger_joints() -> np.ndarray:
    """Wrist at origin, each finger a straight ray: every angle is 180 degrees."""
    directions = np.asarray(
        [
            [1.0, 0.2, 0.1],
            [0.8, 1.0, -0.2],
            [0.1, 1.0, 0.3],
            [-0.5, 1.0, -0.1],
            [-1.0, 0.6, 0.25],
        ]
    )
    joints = np.zeros((21, 3))
    for f in range(5):
        d = directions[f] / np.linalg.norm(directions[f])
        for s in range(4):
            joints[1 + 4 * f + s] = d * (s + 1)
    return joints


def random_rotation(rng: random.Random) -> np.ndarray:
    """Uniform random 3D rotation matrix from a random unit quaternion."""
    while True:
        q = np.asarray([rng.gauss(0, 1) for _ in range(4)])
        n = np.linalg.norm(q)
        if n > 1e-6:
            break
    w, x, y, z = q / n
    return np.asarray(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def write_manifest(path, joints_by_image: dict[str, np.ndarray], **extra_fields) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, joints in joints_by_image.items():
            record = {"image_id": image_id, "joints": np.asarray(joints).tolist()}
            record.update(extra_fields)
            fh.write(json.dumps(record) + "\n")


def synthetic_manifest(path, n_images: int, seed: int = 0, kind: str = "aligned_free") -> None:
    """Write n_images synthetic poses. kind: aligned_free | random."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_images):
            if kind == "aligned_free":
                joints = aligned_free_joints(rng)
            else:
                joints = random_joints(rng)
            fh.write(
                json.dumps({"image_id": f"img{i:06d}", "joints": joints.tolist()}) + "\n"
            )


@pytest.fixture
def tiny_manifest(tmp_path):
    """Four aligned-free poses on disk."""
    path = tmp_path / "manifest.jsonl"
    synthetic_manifest(path, 4, seed=11)
    return path


def assert_close(a: float, b: float, tol: float = 1e-9) -> None:
    assert math.isfinite(a) and abs(a - b) <= tol, f"{a} != {b} (tol {tol})"
