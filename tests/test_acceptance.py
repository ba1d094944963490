"""Acceptance suite: one test per release criterion, each printing a
pass line with its measured numbers (run with -s to see them).

The heavyweight artifacts (a 10,000-pose manifest and its 250k-question
dataset) are generated once per session and shared between the round-trip
and throughput criteria.
"""
import json
import math
import os
import random
import time

import numpy as np
import pytest

from conftest import aligned_free_joints, random_joints, random_rotation, synthetic_manifest
from handmcq.dataset import (
    GenerationConfig,
    generate_dataset,
    generate_image_mcqs,
    iter_dataset,
)
from handmcq.discretize import (
    ANGLE_LABELS,
    DISTANCE_LABELS,
    RELPOS_LABELS,
    ThresholdConfig,
    categorize,
)
from handmcq.evaluate import PredictionRecord, random_baseline, score
from handmcq.geometry import RawPose, joint_angle, normalize_pose
from handmcq.oracle import validate_dataset
from handmcq.skeleton import ANGLE_JOINTS, KINDS, catalog, catalog_all
from test_evaluate import brute_force_reference, letter_pred, make_gold

JOBS = os.cpu_count() or 1


def passed(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """10,000 synthetic poses -> 250,000 questions, generated once."""
    root = tmp_path_factory.mktemp("big")
    manifest = root / "manifest.jsonl"
    synthetic_manifest(manifest, 10_000, seed=77)
    dataset = root / "dataset.jsonl"
    start = time.perf_counter()
    summary = generate_dataset(manifest, GenerationConfig(seed=7), dataset, jobs=JOBS)
    elapsed = time.perf_counter() - start
    return manifest, dataset, summary, elapsed


def test_criterion_01_catalog_constants():
    start = time.perf_counter()
    assert len(catalog("angle")) == 15
    assert len(catalog("distance")) == 23
    for axis in "xyz":
        assert len(catalog(f"relpos_{axis}")) == 23
    assert len(catalog_all()) == 107
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(1, f"catalogs 15/23/23/23/23 = 107 targets ({elapsed:.3f}s)")


def test_criterion_02_per_image_budget(tmp_path):
    start = time.perf_counter()
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 100, seed=78)
    dataset = tmp_path / "d.jsonl"
    summary = generate_dataset(manifest, GenerationConfig(seed=8), dataset, jobs=JOBS)
    assert summary.images == 100
    assert summary.total_mcqs == 2500
    assert summary.skips == {}
    per_image = {}
    for mcq in iter_dataset(dataset):
        per_image[mcq.image_id] = per_image.get(mcq.image_id, 0) + 1
    assert set(per_image.values()) == {25}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passed(2, f"100 poses -> exactly 25 MCQs each ({elapsed:.2f}s)")


def test_criterion_03_threshold_boundaries():
    start = time.perf_counter()
    eps = 1e-12
    cfg = ThresholdConfig()
    angle_cases = [
        (105.0, ANGLE_LABELS[0], ANGLE_LABELS[1]),
        (150.0, ANGLE_LABELS[1], ANGLE_LABELS[2]),
        (170.0, ANGLE_LABELS[2], ANGLE_LABELS[3]),
    ]
    for cut, lower, upper in angle_cases:
        assert categorize("angle", cut, cfg).label == upper
        assert categorize("angle", cut - eps, cfg).label == lower
    distance_cases = [
        (0.1, DISTANCE_LABELS[0], DISTANCE_LABELS[1]),
        (0.3, DISTANCE_LABELS[1], DISTANCE_LABELS[2]),
    ]
    for cut, lower, upper in distance_cases:
        assert categorize("distance", cut, cfg).label == upper
        assert categorize("distance", cut - eps, cfg).label == lower
    boundaries = len(angle_cases) + len(distance_cases)
    for axis in "xyz":
        low, mid, high = RELPOS_LABELS[f"relpos_{axis}"]
        assert categorize(f"relpos_{axis}", -0.15, cfg).label == mid
        assert categorize(f"relpos_{axis}", -0.15 - eps, cfg).label == low
        assert categorize(f"relpos_{axis}", 0.15, cfg).label == high
        assert categorize(f"relpos_{axis}", 0.15 - eps, cfg).label == mid
        boundaries += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(3, f"{boundaries} cut values: at-cut -> upper bin, cut-1e-12 -> lower ({elapsed:.3f}s)")


def test_criterion_04_oracle_round_trip(big_run):
    manifest, dataset, summary, _ = big_run
    start = time.perf_counter()
    report = validate_dataset(manifest, dataset)
    elapsed = time.perf_counter() - start
    assert summary.images == 10_000
    assert report.total == summary.total_mcqs
    assert report.mismatches == []
    assert report.skipped == []
    assert elapsed < 60.0
    passed(4, f"{report.total:,} questions from 10,000 poses replayed with "
              f"0 mismatches ({elapsed:.1f}s)")


def test_criterion_05_geometry_invariance():
    start = time.perf_counter()
    rng = random.Random(79)
    base = aligned_free_joints(rng)
    reference = {
        j: joint_angle(normalize_pose(RawPose(joints=base)), j) for j in ANGLE_JOINTS
    }
    worst = 0.0
    for _ in range(1000):
        rotation = random_rotation(rng)
        scale = rng.uniform(0.01, 100.0)
        pose = normalize_pose(RawPose(joints=(base @ rotation.T) * scale))
        for j, expected in reference.items():
            worst = max(worst, abs(joint_angle(pose, j) - expected))
    assert worst < 1e-6
    for _ in range(200):
        norm = normalize_pose(RawPose(joints=random_joints(rng)))
        joints = np.asarray(norm.joints)
        assert float(np.linalg.norm(joints.mean(axis=0))) < 1e-9
        extent = float((joints.max(axis=0) - joints.min(axis=0)).max())
        assert abs(extent - 1.0) < 1e-9
    elapsed = time.perf_counter() - start
    passed(5, f"1000 rotations+scalings: max angle deviation {worst:.2e} deg; "
              f"centroid/extent within 1e-9 ({elapsed:.1f}s)")


def test_criterion_06_metric_correctness():
    start = time.perf_counter()
    rng = random.Random(80)
    kinds = list(KINDS)
    for trial in range(50):
        gold, indices = [], []
        for i in range(rng.randrange(4, 101)):
            kind = rng.choice(kinds)
            labels = {
                "angle": ANGLE_LABELS,
                "distance": DISTANCE_LABELS,
            }.get(kind) or tuple(
                lb for lb in RELPOS_LABELS[kind] if lb != "aligned"
            )
            gold.append(make_gold(kind, rng.choice(labels), f"t{trial}q{i}"))
            indices.append(None if rng.random() < 0.15 else rng.randrange(len(labels)))
        preds = [
            PredictionRecord(m.question_id, raw_answer="??")
            if idx is None else letter_pred(m.question_id, idx)
            for m, idx in zip(gold, indices)
        ]
        report = score(gold, preds)
        counts, accuracy, maes, confusion, unparseable = brute_force_reference(gold, indices)
        assert report.unparseable == unparseable
        for kind, stats in counts.items():
            assert report.per_kind[kind].count == stats["count"]
            assert report.per_kind[kind].accuracy == accuracy[kind]
        assert report.angle_mae == maes["angle"]
        assert report.distance_mae == maes["distance"]
        for kind, matrix in confusion.items():
            for g, row in matrix.items():
                for p, count in row.items():
                    assert report.confusion[kind][g][p] == count
    # the worked ordinal example: gold [0, 3] vs predictions [3, 3]
    gold = [make_gold("angle", ANGLE_LABELS[0], "h0"), make_gold("angle", ANGLE_LABELS[3], "h1")]
    report = score(gold, [letter_pred("h0", 3), letter_pred("h1", 3)])
    assert report.per_kind["angle"].accuracy == 50.0
    assert report.angle_mae == 1.5
    elapsed = time.perf_counter() - start
    passed(6, f"50 random sets match the brute-force scorer exactly; "
              f"[0,3] vs [3,3] -> MAE 1.5 ({elapsed:.1f}s)")


def test_criterion_07_random_baseline_anchors(tmp_path):
    start = time.perf_counter()
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 2000, seed=81)
    dataset = tmp_path / "d.jsonl"
    summary = generate_dataset(manifest, GenerationConfig(seed=9), dataset, jobs=JOBS)
    assert summary.total_mcqs == 50_000
    report = random_baseline(dataset, seed=3, trials=1)
    anchors = {"angle": 0.25, "distance": 1 / 3,
               "relpos_x": 0.5, "relpos_y": 0.5, "relpos_z": 0.5}
    details = []
    for kind, p in anchors.items():
        n = report.per_kind[kind].count
        assert n == 10_000
        band = 3.0 * math.sqrt(p * (1 - p) / n) * 100.0
        gap = abs(report.per_kind[kind].accuracy - p * 100.0)
        assert gap <= band, f"{kind}: {gap:.3f} > 3SE {band:.3f}"
        details.append(f"{kind} {report.per_kind[kind].accuracy:.2f}%")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(7, f"50k-question baseline within 3 SE of anchors: "
              f"{', '.join(details)} ({elapsed:.1f}s)")


def test_criterion_08_determinism(tmp_path):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 50, seed=82, kind="random")
    outputs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", JOBS + 1)):
        out = tmp_path / f"{name}.jsonl"
        generate_dataset(manifest, GenerationConfig(seed=10), out, jobs=jobs)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "same seed must give identical bytes"
    assert outputs[0] == outputs[2], "parallelism degree must not change bytes"
    passed(8, f"byte-identical output across reruns and jobs=1 vs jobs={JOBS + 1}")


def test_criterion_09_calibration():
    start = time.perf_counter()
    rng = random.Random(83)
    gold, preds = [], []
    for i in range(100_000):
        label = "behind" if rng.random() < 0.5 else "in front of"
        mcq = make_gold("relpos_z", label, f"q{i}")
        gold.append(mcq)
        confidence = rng.uniform(0.5, 1.0)
        index = mcq.correct_index if rng.random() < confidence else 1 - mcq.correct_index
        preds.append(letter_pred(mcq.question_id, index, confidence=confidence))
    table = score(gold, preds, calibration_bins=10).calibration
    assert table.total == 100_000
    assert table.ece < 0.01
    wrong = [letter_pred(m.question_id, 1 - m.correct_index, confidence=1.0) for m in gold[:5000]]
    worst = score(gold[:5000], wrong, calibration_bins=10).calibration
    assert worst.ece == 1.0
    elapsed = time.perf_counter() - start
    passed(9, f"calibrated predictor ECE {table.ece:.4f} < 0.01 over 100k; "
              f"always-wrong ECE == 1.0 exactly ({elapsed:.1f}s)")


def test_criterion_10_throughput(big_run):
    manifest, dataset, summary, elapsed = big_run
    assert summary.images == 10_000
    assert summary.total_mcqs == 250_000
    with open(dataset) as fh:
        line_count = sum(1 for _ in fh)
    assert line_count == 250_001  # header + one line per question
    assert elapsed < 120.0
    passed(10, f"10,000 poses -> 250,000 questions in {elapsed:.1f}s "
               f"with {JOBS} workers (streaming, bounded memory)")
