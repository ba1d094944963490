"""Property tests of the three JSONL loaders on lines of arbitrary JSON.

Each loader must yield every record, in order, or stop with a ParseError
naming the line of the first record it rejects; and the CLI commands that
read the file must exit 0, 3, 4 or 5, never with a traceback. A generation
config built in Python must either read back from the header it writes or
be refused with a ValueError.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_joints
from handmcq import __version__
from handmcq.cli import main
from handmcq.dataset import (
    GenerationConfig,
    PoseRecord,
    dataset_header,
    generate_image_mcqs,
    iter_dataset,
    load_manifest,
    read_config,
)
from handmcq.discretize import ThresholdConfig
from handmcq.errors import DuplicateImageId, ParseError
from handmcq.evaluate import load_predictions
from handmcq.geometry import RawPose

ALLOWED_EXITS = {0, 3, 4, 5}
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_rng = random.Random(5)
MANIFEST_RECORDS = [{"image_id": f"img{i}", "joints": random_joints(_rng).tolist()}
                    for i in range(3)]
_CFG = GenerationConfig(seed=4, per_type_samples=1)
HEADER = dataset_header(_CFG)
MCQ_RECORDS = [
    mcq.to_dict()
    for rec in MANIFEST_RECORDS
    for mcq in generate_image_mcqs(
        PoseRecord(rec["image_id"], RawPose(joints=np.asarray(rec["joints"]))), _CFG)[0]
]
QUESTION_IDS = [m["question_id"] for m in MCQ_RECORDS]

# Any JSON value Python's json module writes, including NaN, infinities and
# integers too large for a float.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024)
    | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

noise_lines = st.sampled_from(["", "   ", "\t", "{", "nonsense", "[1,", "{}"])


@st.composite
def mutated(draw, records: list[dict], extra_keys: tuple[str, ...] = ()):
    """A record from `records` with one key (old or new) set to any JSON value."""
    record = dict(draw(st.sampled_from(records)))
    key = draw(st.sampled_from(sorted(record) + list(extra_keys)))
    record[key] = draw(json_values)
    return record


def lines_of(records: list[dict], *extra_keys: str):
    record = st.sampled_from(records) | mutated(records, extra_keys) | json_values
    return st.lists(record.map(_dumps) | noise_lines, max_size=8)


def _run_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _load(loader, path, key):
    """(ids of the records yielded, line the loader rejected or None)."""
    yielded = []
    try:
        for record in loader(path):
            yielded.append(getattr(record, key))
    except ParseError as e:
        return yielded, e.line_no
    except DuplicateImageId as e:
        return yielded, int(str(e).rsplit("line ", 1)[1].rstrip(")"))
    return yielded, None


def _check_records(lines, yielded, failed_at, key, skip=0):
    """Records after the first `skip` non-blank lines are yielded in order
    until the one on the rejected line, or all of them."""
    numbered = [(i, line) for i, line in enumerate(lines, start=1) if line.strip()][skip:]
    if failed_at is None:
        assert len(yielded) == len(numbered)
    else:
        assert failed_at == numbered[len(yielded)][0]
    for qid, (_, line) in zip(yielded, numbered):
        assert qid == json.loads(line)[key]


@FUZZ
@given(lines=lines_of([*MANIFEST_RECORDS, {**MANIFEST_RECORDS[0], "axis_flips": [1, -1, 1]}],
                      "mesh_vertices", "axis_flips"))
@example(lines=[_dumps(MANIFEST_RECORDS[0]),
                _dumps({**MANIFEST_RECORDS[1], "joints": [[2**1024, 0, 0]] * 21})])
def test_fuzz_load_manifest(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "m.jsonl", lines)
        yielded, failed_at = _load(load_manifest, path, "image_id")
        _check_records(lines, yielded, failed_at, "image_id")
        out = Path(tmp) / "d.jsonl"
        code = _run_cli("generate", "--manifest", path, "--out", out, "--jobs", 1)
        assert code == (0 if failed_at is None else 3)
        if code == 0:
            assert _run_cli("validate", "--manifest", path, "--dataset", out) in ALLOWED_EXITS


def _is_header(line: str) -> bool:
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    header = obj.get("__header__") if isinstance(obj, dict) else None
    if not (isinstance(header, dict) and "config" in header
            and header.get("tool") == "handmcq" and header.get("version") == __version__):
        return False
    try:
        GenerationConfig.from_dict(header["config"])
    except ValueError:
        return False
    return True


@FUZZ
@given(header=st.sampled_from([_dumps(HEADER)]) | mutated([HEADER]).map(_dumps) | noise_lines,
       lines=lines_of(MCQ_RECORDS, "__header__"))
def test_fuzz_iter_dataset(header, lines):
    lines = [header, *lines]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "d.jsonl", lines)
        yielded, failed_at = _load(iter_dataset, path, "question_id")
        first = next((i for i, line in enumerate(lines, start=1) if line.strip()), None)
        if first is None or not _is_header(lines[first - 1]):
            assert (yielded, failed_at) == ([], first or 1)
        else:
            _check_records(lines, yielded, failed_at, "question_id", skip=1)
        manifest = _write(Path(tmp) / "m.jsonl", [_dumps(r) for r in MANIFEST_RECORDS])
        empty = _write(Path(tmp) / "p.jsonl", [])
        for argv in (("validate", "--manifest", manifest, "--dataset", path),
                     ("score", "--gold", path, "--pred", empty),
                     ("baseline", "--gold", path),
                     ("stats", "--dataset", path)):
            code = _run_cli(*argv)
            assert code in ALLOWED_EXITS
            if failed_at is not None:
                assert code == 3


PREDICTION_RECORDS = [
    {"question_id": QUESTION_IDS[0], "raw_answer": "(a)", "confidence": 0.5},
    {"question_id": QUESTION_IDS[1], "raw_answer": "b"},
    {"question_id": QUESTION_IDS[2], "option_confidences": [0.2, 0.5, 0.3, 0.1]},
]


@FUZZ
@given(lines=lines_of(PREDICTION_RECORDS, "confidence", "option_confidences", "raw_answer"))
@example(lines=[_dumps({**PREDICTION_RECORDS[0], "confidence": 2**1024})])
@example(lines=["", _dumps({**PREDICTION_RECORDS[2], "option_confidences": [2**1024, 1]})])
def test_fuzz_load_predictions(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "p.jsonl", lines)
        yielded, failed_at = _load(load_predictions, path, "question_id")
        _check_records(lines, yielded, failed_at, "question_id")
        gold = _write(Path(tmp) / "d.jsonl", [_dumps(HEADER), *map(_dumps, MCQ_RECORDS)])
        for bins in ((), ("--calibration-bins", 10)):
            code = _run_cli("score", "--gold", gold, "--pred", path, *bins)
            assert code in ALLOWED_EXITS
            if failed_at is not None:
                assert code == 3


def _cuts(n: int):
    """Mostly valid cuts, sometimes of the wrong length or type."""
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
    return (st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted)
            | st.lists(finite, max_size=n + 1).map(tuple) | json_values)


threshold_fields = st.fixed_dictionaries({}, optional={
    "angle_cuts": _cuts(3),
    "distance_cuts": _cuts(2),
    "relpos_band": st.floats(0, 10) | st.integers(0, 3) | json_values,
})
config_fields = st.fixed_dictionaries({}, optional={
    "seed": st.integers() | json_values,
    "per_type_samples": st.integers(0, 24) | json_values,
    "axis_flips": st.lists(st.sampled_from([-1, 1, 1, 0, 1.0, True]), min_size=2, max_size=4)
    | json_values,
    "resample_on_aligned": st.booleans() | json_values,
    "thresholds": json_values,
})


@FUZZ
@given(fields=config_fields, thresholds=st.none() | threshold_fields)
def test_a_config_that_constructs_reads_back_from_its_header(fields, thresholds):
    try:
        if thresholds is not None:
            fields = {**fields, "thresholds": ThresholdConfig(**thresholds)}
        cfg = GenerationConfig(**fields)
    except ValueError:
        return  # refused, as a header or config file holding these values would be
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "d.jsonl", [_dumps(dataset_header(cfg))])
        assert read_config(path) == cfg
