import dataclasses
import json
import multiprocessing
import os
import random
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (
    ALIGNED_FREE_SLOTS,
    aligned_free_joints,
    random_joints,
    straight_finger_joints,
    synthetic_manifest,
    write_manifest,
)
from handmcq import dataset as dataset_module
from handmcq.dataset import (
    GenerationConfig,
    Mcq,
    PoseRecord,
    SkipNote,
    dataset_header,
    generate_dataset,
    generate_image_mcqs,
    iter_dataset,
    label_stats,
    load_manifest,
    measure,
    normalized_pose_for,
    question_id,
    read_config,
    read_jsonl,
)
from handmcq.discretize import Category, ThresholdConfig, categorize
from handmcq.errors import DuplicateImageId, ParseError
from handmcq.evaluate import load_predictions
from handmcq.geometry import RawPose, descriptor_value
from handmcq.skeleton import JOINT_PAIRS, KINDS, catalog, catalog_all
from handmcq.textgen import decode_statement, render_statement


def make_record(joints, image_id="img0", **kwargs) -> PoseRecord:
    return PoseRecord(image_id=image_id, raw_pose=RawPose(joints=np.asarray(joints)), **kwargs)


# ---------------------------------------------------------------- manifest

def test_load_manifest_well_formed(tmp_path):
    path = tmp_path / "m.jsonl"
    rng = random.Random(0)
    write_manifest(path, {f"img{i}": random_joints(rng) for i in range(3)})
    records = list(load_manifest(path))
    assert [r.image_id for r in records] == ["img0", "img1", "img2"]
    assert all(np.asarray(r.raw_pose.joints).shape == (21, 3) for r in records)


def test_load_manifest_rejects_wrong_joint_count(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"image_id": "a", "joints": [[0, 0, 0]] * 20}) + "\n")
    with pytest.raises(ParseError):
        list(load_manifest(path))


def test_load_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "m.jsonl"
    rng = random.Random(1)
    line = json.dumps({"image_id": "a", "joints": random_joints(rng).tolist()})
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(DuplicateImageId):
        list(load_manifest(path))


def test_load_manifest_rejects_bad_json_and_nonfinite(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ParseError):
        list(load_manifest(path))
    joints = [[0.0, 0.0, 0.0]] * 21
    joints[5] = [float("inf"), 0.0, 0.0]
    path.write_text(json.dumps({"image_id": "a", "joints": joints}) + "\n")
    with pytest.raises(ParseError):
        list(load_manifest(path))


@pytest.mark.parametrize("loader", [load_manifest, iter_dataset, load_predictions])
@pytest.mark.parametrize("line", ["[1, 2]", "5", '"text"', "null"],
                         ids=["list", "number", "string", "null"])
def test_loaders_reject_a_line_that_is_not_an_object_alike(tmp_path, loader, line):
    path = tmp_path / "f.jsonl"
    path.write_text(f"\n  \n{line}\n")
    with pytest.raises(ParseError) as exc:
        list(loader(path))
    assert (exc.value.line_no, exc.value.reason) == (3, "record must be a JSON object")


@pytest.mark.parametrize("loader", [load_manifest, iter_dataset, load_predictions])
def test_loaders_reject_json_nested_too_deep_to_parse(tmp_path, loader):
    path = tmp_path / "f.jsonl"
    path.write_text("\n" + "[" * 100_000 + "\n")
    with pytest.raises(ParseError) as exc:
        list(loader(path))
    assert exc.value.line_no == 2
    assert exc.value.reason.startswith("invalid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("field,value", [
    ("joint", True),
    ("joint", False),
    ("joint", "0.5"),
    ("image_path", {"file": "a.jpg"}),
    ("image_path", 5),
    ("axis_flips", [True, -1, 1]),
    ("axis_flips", [1, -1.0, 1]),
], ids=["true_coordinate", "false_coordinate", "string_coordinate", "dict_image_path",
        "int_image_path", "true_axis_flip", "float_axis_flip"])
def test_load_manifest_takes_only_json_numbers_and_a_string_path(tmp_path, field, value):
    rng = random.Random(3)
    good = {"image_id": "a", "joints": random_joints(rng).tolist(), "image_path": "a.jpg"}
    bad = {"image_id": "b", "joints": random_joints(rng).tolist()}
    if field == "joint":
        bad["joints"][7][1] = value
    else:
        bad[field] = value
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ParseError) as exc:
        list(load_manifest(path))
    assert exc.value.line_no == 2


@pytest.mark.parametrize("loader", [load_manifest, iter_dataset, load_predictions])
def test_loaders_name_the_line_that_is_not_utf8(tmp_path, loader):
    path = tmp_path / "f.jsonl"
    path.write_bytes(b'\n{"question_id": "a\xff"}\n')
    with pytest.raises(ParseError) as exc:
        list(loader(path))
    assert exc.value.line_no == 2
    assert "UTF-8" in exc.value.reason


def test_read_jsonl_splits_and_numbers_lines_as_text_mode_does(tmp_path):
    # \r and \r\n end lines; \x85, \u2028 and form feed do not.
    path = tmp_path / "f.jsonl"
    path.write_bytes(b'{"n":1}\r{"n":2}\r\n\r\n{"n":"\xc2\x85\xe2\x80\xa8"}\x0c\n \t\n{"n":4}')
    assert [(line_no, obj["n"]) for line_no, obj in read_jsonl(path)] == [
        (1, 1), (2, 2), (4, "\x85\u2028"), (6, 4)]


def test_load_manifest_rejects_bad_axis_flips_and_mesh(tmp_path):
    path = tmp_path / "m.jsonl"
    rng = random.Random(2)
    joints = random_joints(rng).tolist()
    path.write_text(json.dumps({"image_id": "a", "joints": joints, "axis_flips": [1, 0, 1]}) + "\n")
    with pytest.raises(ParseError):
        list(load_manifest(path))
    path.write_text(
        json.dumps({"image_id": "a", "joints": joints, "mesh_vertices": [[0, 0, 0]]}) + "\n"
    )
    with pytest.raises(ParseError):
        list(load_manifest(path))


def test_manifest_mesh_drives_normalization(tmp_path):
    path = tmp_path / "m.jsonl"
    rng = random.Random(3)
    joints = random_joints(rng)
    mesh = (random_joints(rng) * 4.0).tolist()
    path.write_text(
        json.dumps({"image_id": "a", "joints": joints.tolist(), "mesh_vertices": mesh}) + "\n"
    )
    record = next(load_manifest(path))
    pose = normalized_pose_for(record, GenerationConfig())
    assert pose.mode == "mesh"


# ------------------------------------------------------------- generation

def test_generate_image_mcqs_default_budget():
    record = make_record(aligned_free_joints(random.Random(5)))
    mcqs, skips = generate_image_mcqs(record, GenerationConfig(seed=1))
    assert len(mcqs) == 25
    assert skips == []
    by_kind = Counter(m.kind for m in mcqs)
    assert by_kind == {k: 5 for k in KINDS}


def test_generate_image_mcqs_full_catalog():
    record = make_record(aligned_free_joints(random.Random(6)))
    mcqs, skips = generate_image_mcqs(record, GenerationConfig(seed=1, per_type_samples=23))
    assert len(mcqs) == 107
    assert skips == []
    by_kind = Counter(m.kind for m in mcqs)
    assert by_kind == {"angle": 15, "distance": 23, "relpos_x": 23, "relpos_y": 23, "relpos_z": 23}


def test_planar_pose_exhausts_relpos_x():
    # Every joint shares one x coordinate, so all 23 pairs are aligned on x.
    # Brute-force check first, then the generator's behavior.
    joints = aligned_free_joints()
    joints[:, 0] = 0.3
    record = make_record(joints)
    cfg = GenerationConfig(seed=2)
    pose = normalized_pose_for(record, cfg)
    aligned_x = [
        (a, b)
        for a, b in JOINT_PAIRS
        if abs(pose.joints[a][0] - pose.joints[b][0]) < cfg.thresholds.relpos_band
    ]
    assert len(aligned_x) == 23
    mcqs, skips = generate_image_mcqs(record, cfg)
    by_kind = Counter(m.kind for m in mcqs)
    assert by_kind["relpos_x"] == 0
    assert by_kind["angle"] == by_kind["distance"] == 5
    assert by_kind["relpos_y"] == by_kind["relpos_z"] == 5
    reasons = Counter((s.kind, s.reason) for s in skips)
    assert reasons[("relpos_x", "aligned")] == 23
    assert reasons[("relpos_x", "pool_exhausted")] == 1
    assert sum(v for (kind, _), v in reasons.items() if kind != "relpos_x") == 0


def test_no_resampling_when_disabled():
    joints = aligned_free_joints()
    joints[:, 0] = 0.3
    record = make_record(joints)
    cfg = GenerationConfig(seed=2, resample_on_aligned=False)
    mcqs, skips = generate_image_mcqs(record, cfg)
    by_kind = Counter(m.kind for m in mcqs)
    assert by_kind["relpos_x"] == 0
    reasons = Counter((s.kind, s.reason) for s in skips)
    assert reasons[("relpos_x", "aligned")] == 5  # only the first five draws
    assert ("relpos_x", "pool_exhausted") not in reasons


def test_measure_value_category_or_skip_note():
    cfg = GenerationConfig()
    pose = normalized_pose_for(make_record(aligned_free_joints()), cfg)
    for target in catalog_all():
        value, category = measure("img0", pose, target, cfg.thresholds)
        assert value == descriptor_value(pose, target)
        assert category == categorize(target.kind, value, cfg.thresholds)
    joints = aligned_free_joints()
    joints[:, 0] = 0.3
    flat = normalized_pose_for(make_record(joints), cfg)
    target = catalog("relpos_x")[0]
    assert measure("img1", flat, target, cfg.thresholds) == SkipNote(
        "img1", "relpos_x", target.key(), "aligned")
    joints = aligned_free_joints()
    target = catalog("angle")[0]
    joints[target.subject] = joints[target.subject + 1]  # zero-length bone
    note = measure("img2", normalized_pose_for(make_record(joints), cfg), target, cfg.thresholds)
    assert (note.image_id, note.kind, note.target_key, note.reason) == (
        "img2", "angle", target.key(), "degenerate_bone")


def test_degenerate_pose_skips_whole_image():
    record = make_record(np.full((21, 3), 1.0))
    mcqs, skips = generate_image_mcqs(record, GenerationConfig())
    assert mcqs == []
    assert {s.reason for s in skips} == {"degenerate_pose"}
    assert {s.kind for s in skips} == set(KINDS)


def test_sampled_targets_distinct_within_kind():
    rng = random.Random(9)
    for i in range(20):
        record = make_record(random_joints(rng), image_id=f"img{i}")
        mcqs, _ = generate_image_mcqs(record, GenerationConfig(seed=4))
        for kind in KINDS:
            keys = [m.target.key() for m in mcqs if m.kind == kind]
            assert len(keys) == len(set(keys))


def test_provenance_matches_recomputation():
    rng = random.Random(10)
    record = make_record(random_joints(rng))
    cfg = GenerationConfig(seed=5)
    mcqs, _ = generate_image_mcqs(record, cfg)
    pose = normalized_pose_for(record, cfg)
    for m in mcqs:
        value = descriptor_value(pose, m.target)
        category = categorize(m.kind, value, cfg.thresholds)
        assert m.provenance["continuous_value"] == value
        assert m.provenance["category"] == category.label
        assert decode_statement(m.target, m.options[m.correct_index]) == category
        assert m.provenance["threshold_config_id"] == cfg.thresholds.config_id()
        assert m.provenance["norm_mode"] == "joints"
        assert m.question_id == question_id(m.image_id, m.target)


def test_option_order_stable_per_image_and_seed():
    record = make_record(aligned_free_joints(random.Random(12)))
    cfg = GenerationConfig(seed=6)
    first, _ = generate_image_mcqs(record, cfg)
    second, _ = generate_image_mcqs(record, cfg)
    assert first == second
    other_seed, _ = generate_image_mcqs(record, GenerationConfig(seed=7))
    assert [m.target for m in first] != [m.target for m in other_seed] or any(
        a.options != b.options for a, b in zip(first, other_seed)
    )


def test_axis_flip_swaps_relpos_labels():
    joints = aligned_free_joints(random.Random(13))
    plain = make_record(joints)
    flipped = make_record(joints, image_id="img0", axis_flips=(-1, 1, 1))
    cfg = GenerationConfig(seed=8)
    labels = {}
    for name, record in (("plain", plain), ("flipped", flipped)):
        mcqs, _ = generate_image_mcqs(record, cfg)
        labels[name] = {
            m.target.key(): m.provenance["category"] for m in mcqs if m.kind == "relpos_x"
        }
    swap = {"at the left of": "at the right of", "at the right of": "at the left of"}
    assert labels["flipped"] == {k: swap[v] for k, v in labels["plain"].items()}


def test_config_level_axis_flips_and_record_override():
    joints = aligned_free_joints(random.Random(14))
    cfg_flip = GenerationConfig(seed=8, axis_flips=(1, -1, 1))
    record_plain = make_record(joints)
    record_override = make_record(joints, axis_flips=(1, 1, 1))
    flipped_pose = normalized_pose_for(record_plain, cfg_flip)
    override_pose = normalized_pose_for(record_override, cfg_flip)
    base_pose = normalized_pose_for(record_plain, GenerationConfig(seed=8))
    np.testing.assert_allclose(override_pose.joints, base_pose.joints)
    np.testing.assert_allclose(np.asarray(flipped_pose.joints)[:, 1],
                               -np.asarray(base_pose.joints)[:, 1])


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(per_type_samples=0)
    with pytest.raises(ValueError):
        GenerationConfig(per_type_samples=24)
    with pytest.raises(ValueError):
        GenerationConfig(axis_flips=(2, 1, 1))
    for seed in (True, 1.0, "1"):  # each equals or spells like the int 1
        with pytest.raises(ValueError, match="seed"):
            GenerationConfig(seed=seed)
    # Each would write a header `validate` rejects, or fail in generation.
    for fields in ({"per_type_samples": 5.0}, {"resample_on_aligned": 1},
                   {"thresholds": {"relpos_band": 0.2}},
                   {"per_type_samples": 5.0, "resample_on_aligned": False}):
        with pytest.raises(ValueError, match=f"config: {next(iter(fields))} has the wrong type"):
            GenerationConfig(**fields)
    cfg = GenerationConfig.from_dict(GenerationConfig(seed=3).to_dict())
    assert cfg == GenerationConfig(seed=3)


def test_equal_configs_write_equal_run_fragments():
    # The run-wide part of a question line is cached per config, so each
    # run's lines must carry its own header's threshold_config_id even
    # after an equal config spelled another way ran in the same process.
    record = make_record(aligned_free_joints(random.Random(3)))
    for cuts in [(0.0, 150.0, 170.0), (-0.0, 150.0, 170.0)]:
        cfg = GenerationConfig(thresholds=ThresholdConfig(angle_cuts=cuts))
        mcqs, _ = generate_image_mcqs(record, cfg)
        assert {m.provenance["threshold_config_id"] for m in mcqs} == {
            dataset_header(cfg)["__header__"]["threshold_config_id"]}


@pytest.mark.parametrize("flips", [(), (1, -1), (1, 1, 1, 1), (1.0, 1, 1)])
def test_generation_config_needs_three_axis_flips(flips):
    with pytest.raises(ValueError, match="axis_flips"):
        GenerationConfig(axis_flips=flips)


# ------------------------------------------------------------ whole files

def test_generate_dataset_counts(tmp_path, tiny_manifest):
    out = tmp_path / "d.jsonl"
    summary = generate_dataset(tiny_manifest, GenerationConfig(seed=1), out)
    assert summary.images == 4
    assert summary.total_mcqs == 100
    assert summary.mcqs_by_kind == {k: 20 for k in KINDS}
    lines = out.read_text().splitlines()
    assert len(lines) == 101  # header + one line per question
    assert json.loads(lines[0])["__header__"]["tool"] == "handmcq"
    assert read_config(out) == GenerationConfig(seed=1)
    mcqs = list(iter_dataset(out))
    assert len(mcqs) == 100
    assert summary.skips == {}
    # records ordered by (manifest position, kind, sample index)
    image_order = [r.image_id for r in load_manifest(tiny_manifest)]
    seen_images = list(dict.fromkeys(m.image_id for m in mcqs))
    assert seen_images == image_order
    kind_rank = {k: i for i, k in enumerate(KINDS)}
    for image_id in image_order:
        kinds = [kind_rank[m.kind] for m in mcqs if m.image_id == image_id]
        assert kinds == sorted(kinds)


def test_generate_dataset_deterministic_bytes(tmp_path, tiny_manifest):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    generate_dataset(tiny_manifest, GenerationConfig(seed=9), out1)
    generate_dataset(tiny_manifest, GenerationConfig(seed=9), out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_dataset_parallel_identical(tmp_path):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 30, seed=21, kind="random")
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=2), serial, jobs=1)
    generate_dataset(manifest, GenerationConfig(seed=2), parallel, jobs=3)
    assert serial.read_bytes() == parallel.read_bytes()


def test_generate_dataset_threads_keep_their_own_config(tmp_path):
    # Two in-process runs at jobs=1 with different seeds, side by side,
    # must each write the bytes of the same run made alone.
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 400, seed=23, kind="random")
    for seed in (1, 2):
        generate_dataset(manifest, GenerationConfig(seed=seed), tmp_path / f"serial{seed}.jsonl")
    barrier = threading.Barrier(2, timeout=60)

    def run(seed):
        barrier.wait()
        generate_dataset(manifest, GenerationConfig(seed=seed), tmp_path / f"thread{seed}.jsonl")

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(run, (1, 2), timeout=120))
    for seed in (1, 2):
        assert ((tmp_path / f"thread{seed}.jsonl").read_bytes()
                == (tmp_path / f"serial{seed}.jsonl").read_bytes())


def test_generate_dataset_parallel_propagates_parse_error(tmp_path):
    # A malformed line mid-file must surface as ParseError from the worker
    # pool, not hang the task feeder (exceptions cross process boundaries).
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 5, seed=22)
    with open(manifest, "a") as fh:
        fh.write('{"image_id": "broken", "joints": [[0,0,0]]}\n')
    out = tmp_path / "d.jsonl"
    with pytest.raises(ParseError):
        generate_dataset(manifest, GenerationConfig(seed=2), out, jobs=2)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched parser")
def test_generate_parses_the_manifest_only_in_its_workers(tmp_path, monkeypatch):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 40, seed=23, kind="random")
    serial = tmp_path / "serial.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=2), serial)
    parent = os.getpid()
    parse = dataset_module._parse_manifest_line

    def parse_outside_the_parent(line_no, obj):
        if os.getpid() == parent:
            raise AssertionError(f"the parent process parsed manifest line {line_no}")
        return parse(line_no, obj)

    monkeypatch.setattr(dataset_module, "_parse_manifest_line", parse_outside_the_parent)
    pooled = tmp_path / "pooled.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=2), pooled, jobs=2)
    assert pooled.read_bytes() == serial.read_bytes()


def test_generate_dataset_empty_manifest(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("")
    out = tmp_path / "d.jsonl"
    summary = generate_dataset(manifest, GenerationConfig(), out)
    assert summary.images == 0
    assert summary.total_mcqs == 0
    assert list(iter_dataset(out)) == []


@pytest.mark.parametrize("spelling", ["same_path", "symlink"])
def test_generate_dataset_refuses_to_replace_its_manifest(tmp_path, tiny_manifest, spelling):
    before = tiny_manifest.read_bytes()
    out = tiny_manifest
    if spelling == "symlink":
        out = tmp_path / "link.jsonl"
        out.symlink_to(tiny_manifest)
    with pytest.raises(OSError, match=f"output would replace the input {tiny_manifest}"):
        generate_dataset(tiny_manifest, GenerationConfig(), out)
    assert tiny_manifest.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_mcq_round_trip_through_file(tmp_path, tiny_manifest):
    out = tmp_path / "d.jsonl"
    generate_dataset(tiny_manifest, GenerationConfig(seed=3), out)
    for mcq in iter_dataset(out):
        assert Mcq.from_dict(mcq.to_dict()) == mcq


def test_iter_dataset_rejects_corrupt_line(tmp_path, tiny_manifest):
    out = tmp_path / "d.jsonl"
    generate_dataset(tiny_manifest, GenerationConfig(seed=3), out)
    lines = out.read_text().splitlines()
    record = json.loads(lines[1])
    record["correct_index"] = 99
    lines[1] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        list(iter_dataset(out))


def _first_line_of_kind(lines, kind):
    return next(i for i, line in enumerate(lines) if json.loads(line).get("kind") == kind)


@pytest.mark.parametrize("kind,field,value", [
    ("distance", "subject", float),
    ("angle", "subject", lambda s: True),  # equal to joint 1, the thumb CMC
    ("distance", "object", float),
    ("distance", "options", lambda opts: "abc"),
    ("distance", "options", lambda opts: [*opts[:2], 3]),
    ("angle", "question_id", lambda q: 5),
    ("angle", "image_id", lambda i: None),
    ("angle", "correct_index", lambda c: True),
    ("angle", "correct_index", str),
], ids=["float_subject", "bool_subject", "float_object", "string_options",
        "int_option", "int_question_id", "null_image_id", "bool_index", "string_index"])
def test_iter_dataset_rejects_mistyped_fields(tmp_path, tiny_manifest, kind, field, value):
    out = tmp_path / "d.jsonl"
    generate_dataset(tiny_manifest, GenerationConfig(seed=3), out)
    lines = out.read_text().splitlines()
    i = _first_line_of_kind(lines, kind)
    record = json.loads(lines[i])
    if field in ("subject", "object"):
        record["target"][field] = value(record["target"][field])
    else:
        record[field] = value(record[field])
    lines[i] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        list(iter_dataset(out))
    assert exc.value.line_no == i + 1


def _edit_correct_option(record):
    record["options"][record["correct_index"]] += "!"


def _add_correct_option(record):
    record["options"].append("The hand is open.")
    record["correct_index"] = len(record["options"]) - 1


@pytest.mark.parametrize("tamper", [
    lambda record: record.update(prompt=5),
    lambda record: record.update(prompt=None),
    _edit_correct_option,
    _add_correct_option,
    lambda record: record.update(provenance=5),
    lambda record: record.update(provenance=[]),
], ids=["int_prompt", "null_prompt", "edited_correct_option", "added_correct_option",
        "int_provenance", "list_provenance"])
def test_iter_dataset_rejects_a_bad_prompt_or_correct_option(tmp_path, tiny_manifest, tamper):
    out = tmp_path / "d.jsonl"
    generate_dataset(tiny_manifest, GenerationConfig(seed=3), out)
    lines = out.read_text().splitlines()
    i = _first_line_of_kind(lines, "angle")
    record = json.loads(lines[i])
    tamper(record)
    lines[i] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        list(iter_dataset(out))
    assert exc.value.line_no == i + 1


# ------------------------------------------------------------ label stats

def test_label_stats_sum_for_single_image(tmp_path):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 1, seed=31)
    out = tmp_path / "d.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=4), out)
    stats = label_stats(out)
    assert sum(sum(row.values()) for row in stats.values()) == 25
    assert set(stats) == set(KINDS)
    assert "aligned" not in stats["relpos_x"]


def test_label_stats_all_straight_pose(tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, {"img0": straight_finger_joints()})
    out = tmp_path / "d.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=5), out)
    stats = label_stats(out)
    angle_row = stats["angle"]
    assert angle_row["straight"] == sum(angle_row.values()) == 5


def test_label_stats_distance_skew_on_random_poses(tmp_path):
    # Independent Monte-Carlo oracle: normalize 10k uniform poses by the
    # stated formula (centroid, max axis extent) and bin the 23 catalog
    # pair distances with plain numpy. Uniform poses mostly land in the
    # widest bin.
    rng = np.random.default_rng(99)
    poses = rng.uniform(0.0, 1.0, size=(10_000, 21, 3))
    centered = poses - poses.mean(axis=1, keepdims=True)
    extents = (centered.max(axis=1) - centered.min(axis=1)).max(axis=1)
    normalized = centered / extents[:, None, None]
    a = np.asarray([p[0] for p in JOINT_PAIRS])
    b = np.asarray([p[1] for p in JOINT_PAIRS])
    distances = np.linalg.norm(normalized[:, a, :] - normalized[:, b, :], axis=2)
    close = int((distances < 0.1).sum())
    spread = int(((distances >= 0.1) & (distances < 0.3)).sum())
    wide = int((distances >= 0.3).sum())
    assert wide > spread > close

    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 300, seed=7, kind="random")
    out = tmp_path / "d.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=6), out)
    row = label_stats(out)["distance"]
    assert row["spread wide from"] > row["spread from"] > row["close to"]


def test_label_stats_decodes_each_question_once(tmp_path, monkeypatch):
    manifest = tmp_path / "m.jsonl"
    synthetic_manifest(manifest, 12, seed=8, kind="random")
    out = tmp_path / "d.jsonl"
    generate_dataset(manifest, GenerationConfig(seed=2), out)
    decode = dataset_module.decode_statement
    calls = []
    monkeypatch.setattr(dataset_module, "decode_statement",
                        lambda target, text: calls.append(text) or decode(target, text))
    stats = label_stats(out)
    assert len(calls) == sum(sum(row.values()) for row in stats.values()) == 12 * 25


def test_an_mcq_carries_the_category_of_its_correct_option():
    target = catalog("distance")[0]
    options = tuple(render_statement(target, Category("distance", label))
                    for label in ("close to", "spread from", "spread wide from"))
    fields = dict(question_id="q7", image_id="img", target=target,
                  prompt="", options=options)
    assert Mcq(**fields, correct_index=1).category == Category("distance", "spread from")
    unrendered = {**fields, "options": (*options[:2], "The hand is closed.")}
    with pytest.raises(ValueError, match="q7: correct option is not a rendered statement"):
        Mcq(**unrendered, correct_index=2)
    with pytest.raises(ValueError, match="options must be a list of strings"):
        Mcq(**{**fields, "options": list(options)}, correct_index=1)
    with pytest.raises(ValueError, match="question_id and image_id must be strings"):
        Mcq(**{**fields, "question_id": 5}, correct_index=1)


@pytest.mark.parametrize("correct_index", [-1, 3, True])
def test_an_mcq_needs_an_int_index_into_its_options(correct_index):
    target = catalog("distance")[0]
    options = tuple(render_statement(target, Category("distance", label))
                    for label in ("close to", "spread from", "spread wide from"))
    with pytest.raises(ValueError, match=f"correct_index {correct_index!r} out of range"):
        Mcq("q7", "img", target, "", options, correct_index)


def test_an_mcq_takes_its_kind_from_its_target():
    target = catalog("relpos_x")[0]
    options = tuple(render_statement(target, Category("relpos_x", label))
                    for label in ("at the left of", "at the right of"))
    mcq = Mcq("q7", "img", target, "", options, 0)
    assert mcq.kind == target.kind == "relpos_x"
    assert "kind" not in {f.name for f in dataclasses.fields(Mcq)}
    with pytest.raises(TypeError):
        Mcq("q7", "img", target, "", options, 0, kind="angle")


@pytest.mark.parametrize("fields", [
    {"axis_flips": (2, 1, 1)},
    {"axis_flips": (0, 1, 1)},
    {"axis_flips": (True, 1, 1)},
    {"image_id": ""},
    {"image_id": 7},
    {"image_path": 5},
], ids=["doubling_flip", "zero_flip", "bool_flip", "empty_image_id", "int_image_id",
        "int_image_path"])
def test_a_pose_record_checks_its_fields(fields):
    raw = RawPose(joints=aligned_free_joints())
    with pytest.raises(ValueError):
        PoseRecord(**{"image_id": "img", "raw_pose": raw, **fields})


def test_slot_construction_brute_force():
    # The shared aligned-free pose really has no aligned pair on any axis
    # and no degenerate bone, checked against the raw slot table.
    joints = aligned_free_joints()
    record = make_record(joints)
    pose = normalized_pose_for(record, GenerationConfig())
    for a, b in JOINT_PAIRS:
        for axis in range(3):
            gap = abs(pose.joints[a][axis] - pose.joints[b][axis])
            assert gap >= 0.2
    for kind in KINDS:
        for target in catalog(kind):
            descriptor_value(pose, target)  # must not raise
    assert len(set(ALIGNED_FREE_SLOTS)) == 21
