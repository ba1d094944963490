"""Byte-identity contract of the read-side reports.

`score`, `random_baseline` and `validate_dataset` reduce a gold dataset to
reports whose JSON form and text are what users and scripts read. These
tests pin sha256 digests of `json.dumps(report.to_dict(), sort_keys=True)`
and of `format_text()` for seeded inputs, so a refactor of the readers
must keep every count, mean and float spelling as it was.
"""
import hashlib
import json
import random

import pytest

from conftest import random_joints
from handmcq.dataset import GenerationConfig, generate_dataset, iter_dataset
from handmcq.discretize import ThresholdConfig
from handmcq.evaluate import PredictionRecord, random_baseline, score
from handmcq.oracle import validate_dataset

# Thresholds away from the generation defaults: some stored answers flip
# (mismatches) and the wider band turns some relative positions aligned
# (skips).
SHIFTED = ThresholdConfig(angle_cuts=(100.0, 140.0, 175.0), distance_cuts=(0.15, 0.35),
                          relpos_band=0.3)

DIGESTS = {
    "score_letters_calibrated": (
        "4c6fd15b7e37c1cde5757b5c9a2aae1373f805e8ba8b6f8d924782991875bbd2",
        "10a2895be4ea5ad0ebbc4e3ba4b3529e9f45fa673ae8f2fa7ef828c92928b584",
    ),
    "score_option_confidences": (
        "199fdce57bfce307f30d484ee42cccd91408f96459899ae3905ed42cfd5e0345",
        "d91e118b01fe9d67317a60d608ea650cd37d6af72347f7cf273c404c5eee52f3",
    ),
    "score_free_text": (
        "bc532a7b2643c73566a6435d13d218a66ed8c901a254b0e8c8cbdceb51275fce",
        "3f0adb28d15dd352ecfaad6f828b87a9ea59132b804516dd75e28ff3867488a8",
    ),
    "baseline_trials_1": (
        "87e957f9015c9435d6ce85894f7d55ddb54ca34e7ebeca3c6612b7f1017daf04",
        "9cd6d1e93dc40634deb94d7d1d3711fcfc4fdeb699376b7585e9c784956cfbc4",
    ),
    "baseline_trials_3": (
        "af15d7e99e4ab7c13a0f10abefa6dd4708d7a86a9045d182c5594214f36b98b5",
        "7e5ac060bc78142ec9cdc968b92bab8cf84f1d5eb30f9f0f6eb223e576e8236b",
    ),
    "validate_shifted": "719f613da68d65b8c694cb987b48718ecf1c99bdd66aec30c30403fa8ac04af1",
}


@pytest.fixture(scope="module")
def gold(tmp_path_factory):
    """A seeded manifest of random poses and the dataset generated from it."""
    tmp = tmp_path_factory.mktemp("gold")
    rng = random.Random(2024)
    manifest, dataset = tmp / "m.jsonl", tmp / "d.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        for i in range(12):
            fh.write(json.dumps({"image_id": f"img{i:02d}",
                                 "joints": random_joints(rng).tolist()}) + "\n")
    generate_dataset(manifest, GenerationConfig(seed=9), dataset, jobs=1)
    return manifest, dataset, list(iter_dataset(dataset))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(report) -> tuple[str, str]:
    return _sha(json.dumps(report.to_dict(), sort_keys=True)), _sha(report.format_text())


def _letter_predictions(mcqs):
    rng = random.Random(1)
    for mcq in mcqs:
        letter = "abcd"[rng.randrange(len(mcq.options))]
        raw = rng.choice([f"({letter})", letter.upper(), f"{letter}. because",
                          f"the answer is ({letter})", "no idea"])
        yield PredictionRecord(mcq.question_id, raw_answer=raw,
                               confidence=rng.choice([0.0, 0.05, 0.5, 0.95, 1.0, rng.random()]))


def _option_confidence_predictions(mcqs):
    rng = random.Random(2)
    for mcq in mcqs:
        # Extra entries past the option count are ignored; ties go to the first.
        n = len(mcq.options) + rng.choice([0, 0, 1])
        confs = [rng.choice([0.0, 0.25, rng.random()]) for _ in range(n)]
        confs[rng.randrange(len(mcq.options))] += 0.1
        yield PredictionRecord(mcq.question_id, option_confidences=tuple(confs))


def _free_text_predictions(mcqs):
    rng = random.Random(3)
    for mcq in mcqs:
        option = rng.choice(mcq.options)
        raw = rng.choice([option, f"  {option.upper()} ", "  ".join(option.split()),
                          "the hand is open"])
        yield PredictionRecord(mcq.question_id, raw_answer=raw)


@pytest.mark.parametrize("name,make,bins", [
    ("score_letters_calibrated", _letter_predictions, 10),
    ("score_option_confidences", _option_confidence_predictions, None),
    ("score_free_text", _free_text_predictions, None),
])
def test_score_report_digest(gold, name, make, bins):
    _, dataset, mcqs = gold
    report = score(dataset, make(mcqs), calibration_bins=bins)
    assert _digests(report) == DIGESTS[name]


@pytest.mark.parametrize("trials", [1, 3])
def test_baseline_report_digest(gold, trials):
    _, dataset, _ = gold
    report = random_baseline(dataset, seed=4, trials=trials)
    assert _digests(report) == DIGESTS[f"baseline_trials_{trials}"]


def test_validation_report_digest(gold):
    manifest, dataset, _ = gold
    report = validate_dataset(manifest, dataset, thresholds=SHIFTED)
    assert report.mismatches and report.skipped
    assert _sha(json.dumps(report.to_dict(), sort_keys=True)) == DIGESTS["validate_shifted"]
