"""Deterministic generation and scoring of multiple-choice spatial-reasoning
questions about 3D hand poses.

The pipeline: normalize 21-joint hand annotations, compute geometric
descriptors (bending angles, inter-joint distances, signed axis offsets),
discretize them into linguistic categories, render templated statements,
and assemble seeded multiple-choice questions. The evaluation side scores
model answers with per-kind accuracy, ordinal MAE, confusion matrices,
random baselines, and calibration analysis.
"""
from ._version import __version__
from .dataset import (
    GenerationConfig,
    GenerationSummary,
    Mcq,
    PoseRecord,
    generate_dataset,
    generate_image_mcqs,
    iter_dataset,
    label_stats,
    load_manifest,
)
from .discretize import (
    Category,
    ThresholdConfig,
    categorize,
)
from .evaluate import (
    MetricsReport,
    PredictionRecord,
    load_predictions,
    ordinal_index,
    parse_answer,
    random_baseline,
    score,
)
from .geometry import (
    NormalizedPose,
    RawPose,
    joint_angle,
    joint_distance,
    normalize_pose,
    relative_offset,
)
from .oracle import ValidationReport, answer_mcq, validate_dataset
from .skeleton import (
    DescriptorTarget,
    angle_triplet,
    catalog,
    joint_display_name,
)
from .textgen import render_statement

__all__ = [
    "__version__",
    "GenerationConfig",
    "GenerationSummary",
    "Mcq",
    "PoseRecord",
    "generate_dataset",
    "generate_image_mcqs",
    "iter_dataset",
    "label_stats",
    "load_manifest",
    "Category",
    "ThresholdConfig",
    "categorize",
    "MetricsReport",
    "PredictionRecord",
    "load_predictions",
    "ordinal_index",
    "parse_answer",
    "random_baseline",
    "score",
    "NormalizedPose",
    "RawPose",
    "joint_angle",
    "joint_distance",
    "normalize_pose",
    "relative_offset",
    "ValidationReport",
    "answer_mcq",
    "validate_dataset",
    "DescriptorTarget",
    "angle_triplet",
    "catalog",
    "joint_display_name",
    "render_statement",
]
