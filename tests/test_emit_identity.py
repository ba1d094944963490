"""Byte-identity contract of the dataset encoder.

Every question line is the canonical encoding of `Mcq.to_dict()`:
`json.dumps(..., sort_keys=True, separators=(",", ":"))` with ASCII escapes
and `repr` floats. The generator splices lines from cached fragments, so
these tests pin whole-file digests (taken from the reference encoder) and
compare every emitted line with that encoding of the `Mcq` the library API
builds for the same record. The library parses back the generator's lines,
so a last test derives every field of those records again from the pose,
the config and the text templates, without the generator's own code.
"""
import hashlib
import json
import random

import numpy as np
import pytest

from conftest import aligned_free_joints, random_joints
from handmcq.dataset import (
    PROMPT_QUESTION,
    GenerationConfig,
    generate_dataset,
    generate_image_mcqs,
    load_manifest,
    normalized_pose_for,
)
from handmcq.discretize import OPTION_LABELS_BY_KIND, ThresholdConfig, categorize
from handmcq.geometry import descriptor_value
from handmcq.skeleton import target_from_fields
from handmcq.textgen import decode_statement

ODD_IDS = ("héllo✋", 'quo"te', "back\\slash", "new\nline", "hand\U0001f590\ttab")


def _records(kind: str, n: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    make = aligned_free_joints if kind == "aligned_free" else random_joints
    return [{"image_id": f"img{i:03d}", "joints": make(rng).tolist()} for i in range(n)]


def _mesh_records() -> list[dict]:
    rng = random.Random(3)
    out = []
    for i, flips in enumerate(([1, 1, 1], [-1, 1, 1], [1, -1, -1], None)):
        rec = {"image_id": f"mesh{i}", "joints": random_joints(rng).tolist(),
               "mesh_vertices": (random_joints(rng) * 1.5 - 0.2).tolist()}
        if flips is not None:
            rec["axis_flips"] = flips
        out.append(rec)
    return out


def _degenerate_records() -> list[dict]:
    rng = random.Random(4)
    bone = aligned_free_joints(rng)
    bone[2] = bone[1]  # zero-length thumb bone: its angle targets are skipped
    return [
        {"image_id": "flat", "joints": [[0.5, 0.5, 0.5]] * 21},
        {"image_id": "bone", "joints": bone.tolist()},
        *_records("random", 2, 9),
    ]


def _odd_id_records() -> list[dict]:
    rng = random.Random(6)
    return [{"image_id": image_id, "joints": random_joints(rng).tolist()} for image_id in ODD_IDS]


# name -> (manifest records, config)
CASES = {
    "default": (_records("aligned_free", 4, 11), GenerationConfig()),
    "random": (_records("random", 6, 5), GenerationConfig(seed=1)),
    "full_catalog": (_records("random", 3, 7), GenerationConfig(seed=2, per_type_samples=23)),
    "no_resample": (_records("random", 5, 8),
                    GenerationConfig(seed=3, resample_on_aligned=False)),
    "thresholds": (_records("random", 4, 10), GenerationConfig(
        seed=4, thresholds=ThresholdConfig(angle_cuts=(30.0, 90.0, 160.0),
                                           distance_cuts=(0.2, 0.5), relpos_band=0.05))),
    "config_flips": (_records("random", 4, 12), GenerationConfig(seed=5, axis_flips=(-1, 1, -1))),
    "mesh_record_flips": (_mesh_records(), GenerationConfig(seed=6, axis_flips=(1, 1, -1))),
    "degenerate": (_degenerate_records(), GenerationConfig(seed=7)),
    "negative_seed": (_records("random", 3, 13), GenerationConfig(seed=-12345)),
    "big_seed": (_records("aligned_free", 3, 14), GenerationConfig(seed=2**40)),
    "odd_image_ids": (_odd_id_records(), GenerationConfig(seed=8)),
}

# sha256 of the generated dataset file, recorded from the reference encoder
# (`json.dumps` of each `Mcq.to_dict()`).
DIGESTS = {
    "big_seed": "5c6e8f405db01820325b9e820a5a547e087c37a997f876e1469e4fc52f3ec321",
    "config_flips": "bf91b982e8a3affcaaf86ea22f8f059b6aaa1a919acc30903219d81770458535",
    "default": "cdc59bd483d2b7c8b026ad046271f855793001662b4db61c35ecff197bfb36b2",
    "degenerate": "1ede90de55dd808cdc637d14b718e8e7af9a21fe3ecf15532c05e5c0fc7708bf",
    "full_catalog": "337bfe170ad4e6655a9cb81ec17c2014b0cc02aba8f4333a4851c55b0398b7ae",
    "mesh_record_flips": "2122e2077f781fc7a8958ebeaffc05628bdc897d074f96db4aaa707f2df1d598",
    "negative_seed": "f6fef8610e5bf2c8646e5d24b7869939423a78e9b803269704d2707bf91455a8",
    "no_resample": "28ceca3cd77d30771e8a0bb7747fdca3e7456301f981238d88801078ee95df0d",
    "odd_image_ids": "2e21cabe0484f957cac42ba202e0dd93dbbd0fa909825f8f70b7128ddf65fcd1",
    "random": "f5088b5d811c4913d41fb2f69cc79c19ead3e69ba6a190ead53e07cf1ce8be63",
    "thresholds": "65b049da15ea51d8c46c31c33b26363157339433a38ae63ab2da3e9295d9509a",
}


def _write_manifest(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _reference_line(mcq) -> str:
    return json.dumps(mcq.to_dict(), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_bytes_match_golden_digest(tmp_path, name):
    records, cfg = CASES[name]
    manifest, out = tmp_path / "m.jsonl", tmp_path / "d.jsonl"
    _write_manifest(manifest, records)
    generate_dataset(manifest, cfg, out, jobs=1)
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]

    lines = data.decode("ascii").split("\n")
    assert lines[-1] == ""
    expected = [_reference_line(mcq)
                for record in load_manifest(manifest)
                for mcq in generate_image_mcqs(record, cfg)[0]]
    assert lines[1:-1] == expected


@pytest.mark.parametrize("name", ["degenerate", "odd_image_ids"])
def test_parallel_bytes_match_golden_digest(tmp_path, name):
    records, cfg = CASES[name]
    manifest, out = tmp_path / "m.jsonl", tmp_path / "d.jsonl"
    _write_manifest(manifest, records)
    generate_dataset(manifest, cfg, out, jobs=2)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def test_nonfinite_value_uses_json_spelling():
    from handmcq.dataset import _float_json

    for value in (0.1, -0.0, 1e-300, 2.5e22, 180.0, np.float64(0.3),
                  float("nan"), float("inf"), float("-inf")):
        assert _float_json(value) == json.dumps(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_records_match_an_independent_derivation(tmp_path, name):
    records, cfg = CASES[name]
    manifest = tmp_path / "m.jsonl"
    _write_manifest(manifest, records)
    asked = 0
    for record in load_manifest(manifest):
        mcqs, _ = generate_image_mcqs(record, cfg)
        if not mcqs:
            continue
        pose = normalized_pose_for(record, cfg)
        for mcq in mcqs:
            target = mcq.target
            assert target_from_fields(target.kind, target.subject, target.object) is target
            value = descriptor_value(pose, target)
            category = categorize(target.kind, value, cfg.thresholds)
            labels = OPTION_LABELS_BY_KIND[target.kind]
            permutation = [labels.index(decode_statement(target, text).label)
                           for text in mcq.options]
            assert sorted(permutation) == list(range(len(labels)))
            prompt = "\n".join([PROMPT_QUESTION, *(f"({letter}) {text}" for letter, text
                                                   in zip("abcd", mcq.options))])
            qid = hashlib.blake2b(f"{record.image_id}\x1f{target.key()}".encode(),
                                  digest_size=8).hexdigest()
            assert mcq.to_dict() == {
                "question_id": qid,
                "image_id": record.image_id,
                "kind": target.kind,
                "target": {"subject": target.subject, "object": target.object},
                "prompt": prompt,
                "options": list(mcq.options),
                "correct_index": permutation.index(labels.index(category.label)),
                "provenance": {"continuous_value": value, "category": category.label,
                               "threshold_config_id": cfg.thresholds.config_id(),
                               "seed": cfg.seed, "permutation": permutation,
                               "norm_mode": pose.mode},
            }
            assert mcq.category == category
            asked += 1
    assert asked
