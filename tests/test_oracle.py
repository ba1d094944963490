import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import handmcq.dataset
import handmcq.oracle
from conftest import aligned_free_joints, random_joints, synthetic_manifest, write_manifest
from handmcq.dataset import (
    GenerationConfig,
    Mcq,
    PoseRecord,
    generate_dataset,
    generate_image_mcqs,
    iter_dataset,
    load_manifest,
    normalized_pose_for,
)
from handmcq.discretize import ThresholdConfig
from handmcq.errors import AlignedTruth, MissingPose, NoMatchingOption
from handmcq.geometry import RawPose
from handmcq.oracle import answer_mcq, validate_dataset
from handmcq.skeleton import JOINT_PAIRS, angle_triplet
from handmcq.textgen import decode_statement


def make_record(joints, image_id="img0"):
    return PoseRecord(image_id=image_id, raw_pose=RawPose(joints=np.asarray(joints)))


def test_answer_matches_generated_correct_index():
    rng = random.Random(41)
    record = make_record(random_joints(rng))
    cfg = GenerationConfig(seed=1)
    mcqs, _ = generate_image_mcqs(record, cfg)
    pose = normalized_pose_for(record, cfg)
    for mcq in mcqs:
        assert answer_mcq(pose, mcq, cfg.thresholds) == mcq.correct_index


def test_answer_round_trip_many_random_poses():
    # The primary self-consistency oracle: full generation then direct
    # answering from joints must agree on every question.
    rng = random.Random(43)
    cfg = GenerationConfig(seed=2)
    checked = 0
    for i in range(1000):
        record = make_record(random_joints(rng), image_id=f"img{i}")
        mcqs, _ = generate_image_mcqs(record, cfg)
        pose = normalized_pose_for(record, cfg)
        for mcq in mcqs:
            assert answer_mcq(pose, mcq, cfg.thresholds) == mcq.correct_index
            checked += 1
    assert checked > 20_000


def test_answer_missing_option():
    record = make_record(aligned_free_joints(random.Random(44)))
    cfg = GenerationConfig(seed=3)
    mcqs, _ = generate_image_mcqs(record, cfg)
    pose = normalized_pose_for(record, cfg)
    mcq = mcqs[0]
    truncated = replace(
        mcq,
        options=tuple(
            opt for i, opt in enumerate(mcq.options) if i != mcq.correct_index
        ),
        correct_index=0,
    )
    with pytest.raises(NoMatchingOption) as exc:
        answer_mcq(pose, truncated, cfg.thresholds)
    assert exc.value.category == decode_statement(mcq.target, mcq.options[mcq.correct_index])
    assert str(exc.value) == f"{mcq.question_id}: no option states {exc.value.category.label!r}"


def test_answer_aligned_truth():
    joints = aligned_free_joints()
    record = make_record(joints)
    cfg = GenerationConfig(seed=4)
    mcqs, _ = generate_image_mcqs(record, cfg)
    relpos_mcq = next(m for m in mcqs if m.kind == "relpos_x")
    flattened = joints.copy()
    flattened[:, 0] = 0.3  # every pair aligned on x
    flat_pose = normalized_pose_for(make_record(flattened), cfg)
    with pytest.raises(AlignedTruth):
        answer_mcq(flat_pose, relpos_mcq, cfg.thresholds)


def test_oracle_shares_no_generator_code():
    # The oracle checks the generator, so it must not select or assemble
    # questions with the generator's own code.
    generator_names = {"measure", "build_mcqs", "SkipNote", "_image_lines",
                       "assemble_mcq", "generate_image_mcqs", "_seeded_shuffle"}
    assert generator_names.isdisjoint(vars(handmcq.oracle))


def test_enumerate_counts_cover_catalog_for_any_pose():
    rng = random.Random(46)
    cfg = GenerationConfig(seed=6, per_type_samples=23)
    for i in range(25):
        record = make_record(random_joints(rng), image_id=f"img{i}")
        mcqs, skips = generate_image_mcqs(record, cfg)
        assert len(mcqs) + sum(s.reason != "pool_exhausted" for s in skips) == 107


def test_enumerate_with_three_aligned_z_pairs():
    # Joints 2, 17 and 9 each appear in exactly one catalog pair, so pinning
    # their z to the partner's creates exactly three aligned z pairs.
    joints = aligned_free_joints()
    joints[2, 2] = joints[6, 2]   # thumb_mcp vs index_pip
    joints[17, 2] = joints[4, 2]  # thumb_tip vs little_mcp
    joints[9, 2] = joints[4, 2]   # thumb_tip vs middle_mcp
    record = make_record(joints)
    cfg = GenerationConfig(seed=7, per_type_samples=23)
    pose = normalized_pose_for(record, cfg)
    aligned_z = [
        (a, b)
        for a, b in JOINT_PAIRS
        if abs(pose.joints[a][2] - pose.joints[b][2]) < cfg.thresholds.relpos_band
    ]
    assert len(aligned_z) == 3
    mcqs, skips = generate_image_mcqs(record, cfg)
    assert len(mcqs) == 104
    assert sorted(s.reason for s in skips) == ["aligned"] * 3 + ["pool_exhausted"]
    assert {s.kind for s in skips} == {"relpos_z"}


# ------------------------------------------------------------- validation

@pytest.fixture
def generated(tmp_path):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 20, seed=51, kind="random")
    dataset = tmp_path / "d.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=9), dataset)
    return manifest, dataset


def test_validate_fresh_dataset_clean(generated):
    manifest, dataset = generated
    report = validate_dataset(manifest, dataset)
    assert report.ok
    assert report.total == sum(1 for _ in iter_dataset(dataset))
    assert report.mismatches == []
    assert report.skipped == []


def test_validate_is_pure(generated):
    manifest, dataset = generated
    a = validate_dataset(manifest, dataset)
    b = validate_dataset(manifest, dataset)
    assert a.to_dict() == b.to_dict()


def test_validate_detects_flipped_answer(generated, tmp_path):
    manifest, dataset = generated
    lines = dataset.read_text().splitlines()
    record = json.loads(lines[7])
    record["correct_index"] = (record["correct_index"] + 1) % len(record["options"])
    lines[7] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    report = validate_dataset(manifest, tampered)
    assert len(report.mismatches) == 1
    assert report.mismatches[0]["question_id"] == record["question_id"]


def test_validate_reports_stored_and_oracle_labels(generated, tmp_path):
    # One question whose stored answer points at a wrong option, one whose
    # true option is gone (the oracle finds no option to answer with).
    manifest, dataset = generated
    lines = dataset.read_text().splitlines()
    flipped, dropped = json.loads(lines[7]), json.loads(lines[12])
    flipped["correct_index"] = (flipped["correct_index"] + 1) % len(flipped["options"])
    del dropped["options"][dropped["correct_index"]]
    dropped["correct_index"] = 0
    lines[7], lines[12] = json.dumps(flipped), json.dumps(dropped)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")

    def entry(record):
        mcq = Mcq.from_dict(record)
        stored = decode_statement(mcq.target, mcq.options[mcq.correct_index])
        return {"question_id": mcq.question_id, "expected_category": stored.label,
                "oracle_category": record["provenance"]["category"]}

    report = validate_dataset(manifest, tampered)
    assert report.mismatches == [entry(flipped), entry(dropped)]


def test_validate_missing_pose(generated, tmp_path):
    manifest, dataset = generated
    kept = [
        line
        for line in manifest.read_text().splitlines()
        if json.loads(line)["image_id"] != "img000003"
    ]
    shrunk = tmp_path / "shrunk.jsonl"
    shrunk.write_text("\n".join(kept) + "\n")
    with pytest.raises(MissingPose):
        validate_dataset(shrunk, dataset)


def test_validate_under_shifted_thresholds(tmp_path):
    # Generate with the default angle cuts, validate with the middle cut
    # moved from 150 to 145: exactly the angle questions whose recomputed
    # value lies in [145, 150) flip category. Counted by brute force with
    # test-local arccos math.
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 150, seed=52, kind="random")
    dataset = tmp_path / "d.jsonl"
    cfg = GenerationConfig(seed=10)
    generate_dataset(manifest, cfg, dataset)

    records = {r.image_id: r for r in load_manifest(manifest)}
    expected_flips = set()
    for mcq in iter_dataset(dataset):
        if mcq.kind != "angle":
            continue
        raw = np.asarray(records[mcq.image_id].raw_pose.joints)
        centered = raw - raw.mean(axis=0)
        extent = (centered.max(axis=0) - centered.min(axis=0)).max()
        pts = centered / extent
        t = angle_triplet(mcq.target.subject)
        u = pts[t.prev] - pts[t.center]
        v = pts[t.next] - pts[t.center]
        cos = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        theta = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
        if 145.0 <= theta < 150.0:
            expected_flips.add(mcq.question_id)
    assert expected_flips, "construction should produce some near-boundary angles"

    shifted = ThresholdConfig(angle_cuts=(105.0, 145.0, 170.0))
    report = validate_dataset(manifest, dataset, thresholds=shifted)
    assert {m["question_id"] for m in report.mismatches} == expected_flips


def test_validate_decodes_each_stored_answer_once(tmp_path, monkeypatch):
    # One decode per stored answer as it is read, plus one per mismatch for
    # the option the oracle picked; a mismatch's stored answer is not
    # decoded again.
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 40, seed=52, kind="random")
    dataset = tmp_path / "d.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=10), dataset)
    calls = []
    for module in (handmcq.dataset, handmcq.oracle):
        decode = module.decode_statement
        monkeypatch.setattr(module, "decode_statement",
                            lambda target, text, decode=decode: calls.append(text)
                            or decode(target, text))
    shifted = ThresholdConfig(angle_cuts=(105.0, 145.0, 170.0))
    report = validate_dataset(manifest, dataset, thresholds=shifted)
    assert report.mismatches
    assert len(calls) == report.total + len(report.mismatches)


def test_validate_skips_degenerate_pose_and_bone(tmp_path):
    # Generate from five random poses, then replay against a manifest in
    # which img0 collapses to one point and img1's joint 2 sits on joint 1.
    rng = random.Random(53)
    joints = {f"img{i}": random_joints(rng) for i in range(5)}
    manifest, dataset = tmp_path / "m.jsonl", tmp_path / "d.jsonl"
    write_manifest(manifest, joints)
    generate_dataset(manifest, GenerationConfig(per_type_samples=23), dataset)
    joints["img0"] = np.full((21, 3), 0.25)
    joints["img1"][2] = joints["img1"][1]
    write_manifest(manifest, joints)
    report = validate_dataset(manifest, dataset)
    img0_ids = {m.question_id for m in iter_dataset(dataset) if m.image_id == "img0"}
    pose_skips = [s for s in report.skipped if s["reason"] == "degenerate_pose"]
    assert {s["question_id"] for s in pose_skips} == img0_ids
    assert {s["detail"] for s in pose_skips} == {"joints reference has zero extent"}
    bone_details = [s["detail"] for s in report.skipped if s["reason"] == "degenerate_bone"]
    assert sorted(bone_details) == ["zero-length bone at joint 1", "zero-length bone at joint 2"]


def test_validate_reports_aligned_skips_under_wider_band(generated):
    manifest, dataset = generated
    widened = ThresholdConfig(relpos_band=0.45)
    report = validate_dataset(manifest, dataset, thresholds=widened)
    # Questions generated outside the 0.15 band but inside 0.45 now decode
    # as aligned and are skipped rather than mismatched.
    assert all(s["reason"] == "aligned_truth" for s in report.skipped)
    assert report.skipped
