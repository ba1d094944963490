"""Ground-truth answerer and end-to-end dataset auditor.

The oracle never trusts stored continuous values or categories: it
recomputes every answer from the raw joints through normalization,
descriptor math, and categorization, then matches the resulting sentence
against the question's options. This catches serialization drift and
threshold-config mismatches, not just categorization bugs. It shares no
target selection or question assembly code with the generator it checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

from .dataset import Mcq, iter_dataset, load_manifest, normalized_pose_for, read_config
from .discretize import DEFAULT_THRESHOLDS, ThresholdConfig, categorize
from .errors import (
    AlignedTruth,
    DegenerateBone,
    DegeneratePose,
    MissingPose,
    NoMatchingOption,
)
from .geometry import NormalizedPose, descriptor_value
from .textgen import decode_statement, render_statement


def answer_mcq(
    pose: NormalizedPose, mcq: Mcq, thresholds: ThresholdConfig = DEFAULT_THRESHOLDS
) -> int:
    """Answer a question directly from the joints.

    Recomputes the continuous value, categorizes it, and returns the index
    of the option stating that category. Raises AlignedTruth when a
    relative-position truth falls inside the aligned band, NoMatchingOption
    when no option states the recomputed category (a corrupted option set),
    and DegenerateBone when the geometry is unmeasurable.
    """
    value = descriptor_value(pose, mcq.target)
    category = categorize(mcq.kind, value, thresholds)
    truth_text = render_statement(mcq.target, category)
    for i, option in enumerate(mcq.options):
        if option == truth_text:
            return i
    raise NoMatchingOption(mcq.question_id, category)


@dataclass
class ValidationReport:
    total: int = 0
    mismatches: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "mismatch_count": len(self.mismatches),
            "mismatches": self.mismatches,
            "skipped": self.skipped,
        }


def validate_dataset(
    manifest_path, dataset_path, thresholds: ThresholdConfig | None = None
) -> ValidationReport:
    """Replay every question against the manifest poses.

    Thresholds default to the ones recorded in the dataset header; passing
    a different config reveals how many questions the change would flip. A
    question whose stored answer disagrees with the oracle becomes a
    mismatch entry; aligned or degenerate recomputations land in skipped.
    """
    cfg = read_config(dataset_path)
    if thresholds is None:
        thresholds = cfg.thresholds
    records = {rec.image_id: rec for rec in load_manifest(manifest_path)}
    report = ValidationReport()
    for image_id, mcqs in groupby(iter_dataset(dataset_path), key=attrgetter("image_id")):
        record = records.get(image_id)
        if record is None:
            raise MissingPose(f"image_id {image_id!r} not in manifest")
        try:
            pose = normalized_pose_for(record, cfg)
        except DegeneratePose as e:
            pose, pose_error = None, str(e)
        for mcq in mcqs:
            report.total += 1
            if pose is None:
                report.skipped.append({"question_id": mcq.question_id,
                                       "reason": "degenerate_pose", "detail": pose_error})
                continue
            try:
                oracle_index = answer_mcq(pose, mcq, thresholds)
            except AlignedTruth:
                report.skipped.append({"question_id": mcq.question_id, "reason": "aligned_truth"})
                continue
            except DegenerateBone as e:
                report.skipped.append({"question_id": mcq.question_id,
                                       "reason": "degenerate_bone", "detail": str(e)})
                continue
            except NoMatchingOption as e:
                oracle = e.category
            else:
                if oracle_index == mcq.correct_index:
                    continue
                oracle = decode_statement(mcq.target, mcq.options[oracle_index])
            report.mismatches.append({
                "question_id": mcq.question_id,
                "expected_category": mcq.category.label,
                "oracle_category": oracle.label,
            })
    return report
