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
        "ea07bb2ace5ca4229fc97ad7e6655a5d7d03daa2802e62ebd95a2feff2cd43f3",
        "7c5dd31a2fd69bad40c8d332ea0b254477992bef351b6b024ed4085443def536",
    ),
    "score_option_confidences": (
        "381ee518c28b27b6c7aa2c8784c7f9cd1bd651a8cb2065e03204f217edba6257",
        "125fc4ae89143ee702c603dac3f13769ae01d9e0cad649419866780ef95fe576",
    ),
    "score_free_text": (
        "28663e18013e674b22ef2c1ff38e52e29fbccbbdd9e6e77f35ae738072b3e31f",
        "d95d9e5e8edf148251c758cb6477301a15ef0d8f900c3fc829617f63a49f372a",
    ),
    "baseline_trials_1": (
        "0da5a0a44530f4559b9ab7877d2ae472ae899228bd209e20cb203e3455639253",
        "3e911f22b20c3733059becafd2c9f8b93e5020e6879d7b383becf796502d8e7b",
    ),
    "baseline_trials_3": (
        "dbad919675299bb61c93aeb341f7d7040834b00b167fbe5cbfafc74b01771e7f",
        "6076caa537cc970260377fcf6adda7ee70cd4000d483f0cbf7bb390632e48b6d",
    ),
    "validate_shifted": "5baf7e0f51d5b6eb88afd29cefece395a6ae765cdc3847cdc039663af83c7a2a",
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
