"""Seeded workload builders for the handmcq benchmark.

Each workload is a pose manifest plus, once a reference dataset has been
generated from it, a prediction file with a known number of planted correct
answers per kind. Everything is derived from the workload seed; the program
under test only ever sees the files written here.

Pose counts are a tenth (clean-25, catalog-107) and a fifth (mesh-aligned)
of the sizes the workloads were first sized at (10k / 2k / 3.5k poses), so
that one pass over all subcommands takes three to five seconds and a run
can report the median of seven to eleven passes.
"""
from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass

KINDS = ("angle", "distance", "relpos_x", "relpos_y", "relpos_z")

# One slot value per joint, reused on all three axes. Every catalog joint
# pair differs by at least 0.25 after normalization and every chain bone
# has nonzero length, so no target is ever aligned or degenerate and each
# image yields the full 25-question budget. Copied from the test suite's
# builders so the benchmark does not depend on the tests.
ALIGNED_FREE_SLOTS = (
    0.98, 0.15, 0.4, 0.6, 0.0,   # wrist, thumb cmc..tip
    0.25, 0.05, 0.5, 0.45,       # index mcp..tip
    0.35, 0.65, 0.75, 0.7,       # middle
    0.55, 0.9, 1.0, 0.95,        # ring
    0.85, 0.1, 0.3, 0.2,         # little
)
# Keeps the worst-case normalized pair gap above 0.20, clear of the 0.15
# aligned band.
SAFE_JITTER = 0.02

MESH_VERTICES = 778
LETTERS = "abcd"
# Share of planted answers that pick the correct option.
P_CORRECT = 0.6


@dataclass(frozen=True)
class Workload:
    """A workload's inputs and config; BENCHMARK.json says why each exists."""

    name: str
    poses: int
    pose_kind: str           # aligned_free | random | random_mesh
    samples_per_type: int
    answer_form: str         # letter | option_confidences | free_text
    calibration_bins: int | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean-25", 1000, "aligned_free", 5, "letter", 10),
        Workload("mesh-aligned", 400, "random_mesh", 5, "option_confidences", 10),
        Workload("catalog-107", 350, "random", 23, "free_text", None),
    )
}


def _pose_records(workload: Workload, seed: int, n: int):
    import numpy as np  # only here: see main()

    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    slots = np.tile(np.asarray(ALIGNED_FREE_SLOTS)[:, None], (1, 3))
    for i in range(n):
        record = {"image_id": f"img{i:06d}"}
        if workload.pose_kind == "aligned_free":
            joints = slots + rng.uniform(-SAFE_JITTER, SAFE_JITTER, size=(21, 3))
            record["joints"] = joints.tolist()
        elif workload.pose_kind == "random":
            record["joints"] = rng.uniform(0.0, 1.0, size=(21, 3)).tolist()
        else:
            # Joints fill the middle half of the mesh's unit cube, so after
            # normalizing by the mesh extent many pair offsets fall in the
            # aligned band: resampling and pool exhaustion are common.
            record["joints"] = rng.uniform(0.25, 0.75, size=(21, 3)).tolist()
            record["mesh_vertices"] = rng.uniform(0.0, 1.0, size=(MESH_VERTICES, 3)).tolist()
            record["axis_flips"] = rng.choice([-1, 1], size=3).tolist()
        yield record


def pose_count(workload: Workload, scale: float) -> int:
    return max(4, round(workload.poses * scale))


def write_manifest(workload: Workload, seed: int, path, scale: float = 1.0) -> int:
    """Write the workload's manifest; returns the number of poses."""
    n = pose_count(workload, scale)
    with open(path, "w", encoding="utf-8") as fh:
        for record in _pose_records(workload, seed, n):
            fh.write(json.dumps(record) + "\n")
    return n


def _answer(workload: Workload, rng: random.Random, options: list[str], chosen: int) -> dict:
    if workload.answer_form == "letter":
        return {"raw_answer": f"({LETTERS[chosen]})", "confidence": round(rng.random(), 4)}
    if workload.answer_form == "option_confidences":
        confs = [round(rng.uniform(0.05, 0.45), 4) for _ in options]
        confs[chosen] = round(rng.uniform(0.5, 1.0), 4)
        return {"option_confidences": confs}
    if rng.random() < 0.5:
        return {"raw_answer": options[chosen]}
    return {"raw_answer": f"The answer is ({LETTERS[chosen]})."}


def write_predictions(workload: Workload, seed: int, dataset_path, path) -> dict:
    """Plant one answer per gold question, correct with probability P_CORRECT.

    Reads the dataset as plain JSON, independent of the program. Returns the
    gold question count and the planted correct count per kind, which the
    scores reported by the program must reproduce exactly.
    """
    rng = random.Random(f"{workload.name}/{seed}/predictions")
    gold = {k: 0 for k in KINDS}
    planted = {k: 0 for k in KINDS}
    with open(dataset_path, encoding="utf-8") as src, \
            open(path, "w", encoding="utf-8") as out:
        for line in src:
            obj = json.loads(line)
            if "__header__" in obj:
                continue
            options, correct = obj["options"], obj["correct_index"]
            if rng.random() < P_CORRECT:
                chosen = correct
            else:
                chosen = rng.choice([i for i in range(len(options)) if i != correct])
            gold[obj["kind"]] += 1
            planted[obj["kind"]] += chosen == correct
            record = {"question_id": obj["question_id"]}
            record.update(_answer(workload, rng, options, chosen))
            out.write(json.dumps(record) + "\n")
    return {"gold_by_kind": gold, "planted_correct_by_kind": planted}


def main(argv=None) -> None:
    """Write a manifest. A separate process does this, so that the benchmark
    process never imports numpy: a child's peak RSS as os.wait4 reports it
    includes the RSS of the process that started it."""
    parser = argparse.ArgumentParser(description="write a workload's pose manifest")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_manifest(WORKLOADS[args.workload], args.seed, args.out, args.scale)


if __name__ == "__main__":
    main()
