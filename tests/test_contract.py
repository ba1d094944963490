"""One property test of the whole generation contract.

Hypothesis draws a manifest of 1-8 poses (random, collapsed to a point,
with coincident joints, clustered so that many offsets are aligned, and
meshes with per-record axis flips, under ids that include non-ASCII ones)
and a valid config, generates the dataset, and checks every promise the
generator makes about it at once:

- every line is the canonical encoding of its record, and each record's
  provenance agrees with its options and with the config;
- each option order is the seeded draw of (seed, image_id, target);
- `validate_dataset` finds no mismatch and no skip, and counts every line;
- `label_stats` sums equal the summary's counts per kind;
- per image and kind, the questions and the skip notes reconcile with the
  budget and with the seeded target order, with and without
  `resample_on_aligned`;
- question ids are unique and each image's lines are contiguous, in
  manifest order;
- answers from `answer_mcq` score 100% with no unparseable answer;
- on a few draws, `jobs=2` writes the same bytes as `jobs=1`.
"""
from __future__ import annotations

import json
import random
import tempfile
import zlib
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_joints
from handmcq.dataset import (
    OPTION_LETTERS,
    GenerationConfig,
    Mcq,
    _canonical_json,
    _seeded_shuffle,
    dataset_header,
    generate_dataset,
    generate_image_mcqs,
    iter_dataset,
    label_stats,
    load_manifest,
    normalized_pose_for,
)
from handmcq.discretize import OPTION_LABELS_BY_KIND, ThresholdConfig, categorize
from handmcq.evaluate import PredictionRecord, score
from handmcq.oracle import answer_mcq, validate_dataset
from handmcq.skeleton import KINDS, catalog
from handmcq.textgen import options_in_order

POSE_SHAPES = ("random", "point", "coincident", "clustered", "mesh")


def _pose(shape: str, rng: random.Random) -> dict:
    """The manifest fields of one pose of `shape`, built from `rng`."""
    if shape == "point":
        return {"joints": [[rng.uniform(-1, 1) for _ in range(3)]] * 21}
    if shape == "clustered":
        # Few coordinate levels, so that many joint pairs share a level on
        # some axis (an aligned offset) and some joints coincide.
        levels = [rng.uniform(-1, 1) for _ in range(3)]
        return {"joints": [[rng.choice(levels) + rng.uniform(0, 0.01) for _ in range(3)]
                           for _ in range(21)]}
    joints = random_joints(rng).tolist()
    if shape == "coincident":
        j = rng.randrange(20)
        joints[j + 1] = joints[j]
        return {"joints": joints}
    if shape == "mesh":
        record = {"joints": joints,
                  "mesh_vertices": (random_joints(rng)[:rng.randrange(3, 21)] * 1.4 - 0.2)
                  .tolist()}
        if rng.random() < 0.7:
            record["axis_flips"] = [rng.choice((-1, 1)) for _ in range(3)]
        return record
    return {"joints": joints}


image_ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
poses = st.tuples(st.sampled_from(POSE_SHAPES), st.integers(0, 2**32))
manifests = st.lists(st.tuples(image_ids, poses), min_size=1, max_size=8,
                     unique_by=lambda entry: entry[0])


@st.composite
def thresholds(draw) -> ThresholdConfig:
    angle = sorted(draw(st.lists(st.floats(1.0, 179.0), min_size=3, max_size=3, unique=True)))
    distance = sorted(draw(st.lists(st.floats(0.01, 1.5), min_size=2, max_size=2, unique=True)))
    return ThresholdConfig(angle_cuts=angle, distance_cuts=distance,
                           relpos_band=draw(st.floats(0.001, 0.6)))


configs = st.builds(
    GenerationConfig,
    seed=st.integers(-2**63, 2**63),
    per_type_samples=st.integers(1, 23),
    thresholds=st.just(ThresholdConfig()) | thresholds(),
    axis_flips=st.tuples(*[st.sampled_from((-1, 1))] * 3),
    resample_on_aligned=st.booleans(),
)


def _check_lines(lines: list[str], cfg: GenerationConfig) -> None:
    """Canonical lines whose provenance agrees with their options and config,
    and whose option order is the seeded draw."""
    assert lines[0] == _canonical_json(dataset_header(cfg))
    threshold_id = cfg.thresholds.config_id()
    for line in lines[1:]:
        mcq = Mcq.from_dict(json.loads(line))
        assert line == _canonical_json(mcq.to_dict())
        labels = OPTION_LABELS_BY_KIND[mcq.kind]
        prov = mcq.provenance
        permutation = tuple(prov["permutation"])
        assert permutation == tuple(_seeded_shuffle(range(len(labels)), cfg.seed,
                                                    mcq.image_id, "options", mcq.target.key()))
        assert mcq.options == options_in_order(mcq.target, permutation)
        assert prov["category"] == mcq.category.label == labels[permutation[mcq.correct_index]]
        assert categorize(mcq.kind, prov["continuous_value"], cfg.thresholds) == mcq.category
        assert (prov["seed"], prov["threshold_config_id"]) == (cfg.seed, threshold_id)


def _check_image(record, cfg: GenerationConfig, lines: list[str]) -> list:
    """The image's lines are those `generate_image_mcqs` returns, and its
    questions and skip notes reconcile with each kind's budget and seeded
    target order. Returns the image's skip notes."""
    mcqs, skips = generate_image_mcqs(record, cfg)
    assert [_canonical_json(m.to_dict()) for m in mcqs] == lines
    if any(s.reason == "degenerate_pose" for s in skips):
        assert not mcqs
        assert [(s.kind, s.reason) for s in skips] == [(k, "degenerate_pose") for k in KINDS]
        return skips
    for kind in KINDS:
        asked = [m.target.key() for m in mcqs if m.kind == kind]
        skipped = [s.target_key for s in skips if s.kind == kind and s.target_key]
        exhausted = [s for s in skips if s.kind == kind and s.reason == "pool_exhausted"]
        pool = [t.key() for t in _seeded_shuffle(catalog(kind), cfg.seed, record.image_id,
                                                 "sample", kind)]
        budget = min(cfg.per_type_samples, len(pool))
        drawn = pool[:len(asked) + len(skipped)]
        # Every drawn target was asked or skipped, once, in the seeded order.
        assert sorted(drawn) == sorted(asked + skipped)
        assert asked == [key for key in drawn if key in asked]
        if not cfg.resample_on_aligned:
            assert len(drawn) == budget and not exhausted
        elif len(asked) == budget:
            assert drawn[-1] == asked[-1] and not exhausted
        else:
            assert drawn == pool
            assert [s.detail for s in exhausted] == [f"emitted {len(asked)} of {budget}"]
    return skips


@given(manifest=manifests, cfg=configs)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generation_keeps_its_whole_contract(manifest, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path, out = Path(tmp) / "m.jsonl", Path(tmp) / "d.jsonl"
        manifest_path.write_text("".join(
            json.dumps({"image_id": image_id, **_pose(shape, random.Random(seed))},
                       ensure_ascii=False) + "\n"
            for image_id, (shape, seed) in manifest), encoding="utf-8")
        summary = generate_dataset(manifest_path, cfg, out)
        data = out.read_bytes()
        lines = data.decode().splitlines()
        _check_lines(lines, cfg)

        records = list(load_manifest(manifest_path))
        questions = [json.loads(line) for line in lines[1:]]
        assert len({q["question_id"] for q in questions}) == len(questions)
        order = [image_id for i, image_id in enumerate(q["image_id"] for q in questions)
                 if i == 0 or questions[i - 1]["image_id"] != image_id]
        assert order == [r.image_id for r in records if r.image_id in order]

        skip_reasons = Counter()
        for record in records:
            image_lines = [line for line, q in zip(lines[1:], questions)
                           if q["image_id"] == record.image_id]
            skip_reasons.update(s.reason for s in _check_image(record, cfg, image_lines))
        assert summary.images == len(records)
        assert summary.skips == dict(skip_reasons)
        assert summary.total_mcqs == len(questions)

        report = validate_dataset(manifest_path, out)
        assert (report.total, report.mismatches, report.skipped) == (len(questions), [], [])
        assert {k: sum(v.values()) for k, v in label_stats(out).items()} == summary.mcqs_by_kind

        poses = {r.image_id: normalized_pose_for(r, cfg) for r in records if r.image_id in order}
        predictions = []
        for mcq in iter_dataset(out):
            index = answer_mcq(poses[mcq.image_id], mcq, cfg.thresholds)
            predictions.append(PredictionRecord(mcq.question_id, f"({OPTION_LETTERS[index]})"))
        scored = score(out, predictions)
        assert scored.unparseable == 0
        assert {k: (m.count, m.correct) for k, m in scored.per_kind.items()} == {
            k: (n, n) for k, n in summary.mcqs_by_kind.items() if n}

        # A 2-process pool on about one draw in twelve, chosen by the
        # manifest so that a replayed example compares again.
        if zlib.crc32(manifest_path.read_bytes()) % 12 == 0:
            pooled = Path(tmp) / "d2.jsonl"
            generate_dataset(manifest_path, cfg, pooled, jobs=2)
            assert pooled.read_bytes() == data
