"""Byte-identity contract of the dataset encoder.

Every question line is the canonical encoding of `Mcq.to_dict()`:
`json.dumps(..., sort_keys=True, separators=(",", ":"))` with ASCII escapes
and `repr` floats. The generator splices lines from cached fragments, so
these tests pin whole-file digests (taken from the reference encoder) and
compare every emitted line with that encoding of the `Mcq` the library API
builds for the same record.
"""
import hashlib
import json
import random

import numpy as np
import pytest

from conftest import aligned_free_joints, random_joints
from handmcq.dataset import (
    GenerationConfig,
    generate_dataset,
    generate_image_mcqs,
    load_manifest,
)
from handmcq.discretize import ThresholdConfig

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
    "big_seed": "bfff489e0371091f847d62926782a5f3e73c9aacb672cf4fb7c449cedeb7d62f",
    "config_flips": "b77ed518abaaaee87d938bb08920b4d77e4500d036d195a9960002ab06a14668",
    "default": "6114317df04fd807a68513e41f4c66cc66f34c5c35d27ceef49dda872cc82f3a",
    "degenerate": "ae09f834202d8d60d36eb724d1872a3c976568089315ae7a567e61454dfe69b8",
    "full_catalog": "ce3c3d1ded83085f7ed27f8f7cf66b2a83f1f70c2bddadd043d23eaf956c8d6b",
    "mesh_record_flips": "a4e0fccdf8b8535a0b3b9b52d9b71fa62579bf4e8f08131c2a84a875d96fb7c4",
    "negative_seed": "3b32b51a6303eb1ab351fa7a36fb373cef61c962b79760e37dc17e541f83bcf3",
    "no_resample": "755a007f8e2ec19cc25307a0e25b972d9c1ac06b154efe2995c27bb8c6c241fd",
    "odd_image_ids": "1d173f656c23e6112b070cf3bd3cd5030f74a05421bc83d7954526fe7dbcb4a4",
    "random": "ffc6db33a91e4c44eef6233a42ebb04071399de9d7fb84caab0456695a19d012",
    "thresholds": "d7487383f46b07cc3746e0f89692b1527e11d89f829ea38eddc3258d78d5c1c0",
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
