import json
import os
import random
import stat
import subprocess
import sys

import pytest

from conftest import random_joints, synthetic_manifest
from handmcq.cli import main
from handmcq.dataset import iter_dataset, read_config
from handmcq.discretize import OPTION_LABELS_BY_KIND
from handmcq.evaluate import parse_answer


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "manifest.jsonl"
    synthetic_manifest(path, 6, seed=61)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_generate_validate_round_trip(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", manifest, "--out", dataset, "--seed", 1) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["images"] == 6
    assert summary["mcqs"] == 150
    assert run("validate", "--manifest", manifest, "--dataset", dataset) == 0


def test_generate_deterministic(tmp_path, manifest):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run("generate", "--manifest", manifest, "--out", a, "--seed", 3) == 0
    assert run("generate", "--manifest", manifest, "--out", b, "--seed", 3) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    assert run("generate", "--manifest", manifest, "--out", c, "--seed", 3, "--jobs", 2) == 0
    assert a.read_bytes() == c.read_bytes()


def test_validate_tampered_dataset_exits_nonzero(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    run("generate", "--manifest", manifest, "--out", dataset, "--seed", 1)
    lines = dataset.read_text().splitlines()
    record = json.loads(lines[3])
    record["correct_index"] = (record["correct_index"] + 1) % len(record["options"])
    lines[3] = json.dumps(record)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("validate", "--manifest", manifest, "--dataset", dataset) == 4
    out = capsys.readouterr().out
    assert "mismatches: 1" in out
    assert record["question_id"] in out


def test_score_report_shape(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    run("generate", "--manifest", manifest, "--out", dataset, "--seed", 2)
    rng = random.Random(1)
    pred_path = tmp_path / "p.jsonl"
    with open(pred_path, "w") as fh:
        for mcq in iter_dataset(dataset):
            index = rng.randrange(len(mcq.options))
            fh.write(json.dumps(
                {"question_id": mcq.question_id, "raw_answer": f"({'abcd'[index]})"}
            ) + "\n")
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    assert run("score", "--gold", dataset, "--pred", pred_path, "--report", report_path) == 0
    out = capsys.readouterr().out
    for kind in ("angle", "distance", "relpos_x", "relpos_y", "relpos_z"):
        assert kind in out
    assert "angle MAE:" in out
    assert "distance MAE:" in out
    report = json.loads(report_path.read_text())
    assert set(report["per_kind"]) == {"angle", "distance", "relpos_x", "relpos_y", "relpos_z"}
    assert report["angle_mae"] is not None
    assert "confusion" in report


def test_baseline_subcommand(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    run("generate", "--manifest", manifest, "--out", dataset, "--seed", 2)
    capsys.readouterr()
    assert run("baseline", "--gold", dataset, "--seed", 5, "--trials", 3) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    # Each confusion row reads as its gold label and one number per column,
    # even where a 3-trial mean such as 7.33333 is as wide as a short label.
    blocks = out.split("\nconfusion [")[1:]
    assert [block[:block.index("]")] for block in blocks] == sorted(OPTION_LABELS_BY_KIND)
    for block in blocks:
        labels = OPTION_LABELS_BY_KIND[block[:block.index("]")]]
        rows = block.splitlines()[2:2 + len(labels)]
        cells = []
        for label, row in zip(labels, rows):
            assert row.strip().startswith(label)
            cells.append([float(cell) for cell in row.strip()[len(label):].split()])
        assert [len(row) for row in cells] == [len(labels)] * len(labels)
        assert sum(map(sum, cells)) == pytest.approx(6 * 5, abs=1e-3)


def test_stats_subcommand(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    run("generate", "--manifest", manifest, "--out", dataset, "--seed", 2)
    capsys.readouterr()
    assert run("stats", "--dataset", dataset, "--json") == 0
    stats = json.loads(capsys.readouterr().out)
    assert sum(sum(row.values()) for row in stats.values()) == 150
    assert run("stats", "--dataset", dataset) == 0
    text = capsys.readouterr().out
    assert "angle" in text and "(" in text


def test_catalog_dump(capsys):
    assert run("catalog-dump") == 0
    out = capsys.readouterr().out
    assert "total targets: 107" in out
    assert "distal interphalangeal joint of the middle finger" in out


def test_config_file_overrides_flags(tmp_path, manifest):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 42, "per_type_samples": 2}))
    dataset = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", manifest, "--out", dataset,
               "--seed", 1, "--samples-per-type", 5, "--config", config) == 0
    cfg = read_config(dataset)
    assert cfg.seed == 42
    assert cfg.per_type_samples == 2
    assert sum(1 for _ in iter_dataset(dataset)) == 6 * 5 * 2


def test_usage_errors_exit_2(manifest):
    with pytest.raises(SystemExit) as exc:
        run("generate", "--manifest", manifest, "--frobnicate", "x")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_data_error_exit_3(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"image_id": "a", "joints": [[0,0,0]]}\n')
    out = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", bad, "--out", out) == 3


def test_bad_config_value_exit_3(tmp_path, manifest):
    out = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", manifest, "--out", out,
               "--samples-per-type", 99) == 3


def test_io_error_exit_5(tmp_path):
    out = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", tmp_path / "missing.jsonl", "--out", out) == 5


def test_validate_with_threshold_config(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    run("generate", "--manifest", manifest, "--out", dataset, "--seed", 1)
    config = tmp_path / "thresholds.json"
    for payload, codes in [
        ({"thresholds": {"angle_cuts": [30.0, 90.0, 120.0]}}, (0, 4)),  # shifted cuts usually flip
        ({"seed": 0, "per_type_samples": 5}, (0,)),  # any config `generate` accepts
    ]:
        config.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run("validate", "--manifest", manifest, "--dataset", dataset, "--config", config)
        out = capsys.readouterr().out
        assert code in codes
        assert "questions: 150" in out


def test_parse_answer_reexported_for_harnesses():
    # sanity: public API parses the letter format the prompts advertise
    assert parse_answer("(a)", ["first", "second"]) == 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("existing", [None, "previous dataset\n"])
def test_failed_generate_leaves_out_as_it_was(tmp_path, manifest, jobs, existing):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(manifest.read_text() + '{"image_id": "z", "joints": [[0, 0, 0]]}\n')
    out = tmp_path / "out" / "d.jsonl"
    out.parent.mkdir()
    if existing is not None:
        out.write_text(existing)
    assert run("generate", "--manifest", bad, "--out", out, "--jobs", jobs) == 3
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text() == existing
    assert [p.name for p in out.parent.iterdir()] == ([] if existing is None else ["d.jsonl"])


def _with_blank_lines_before(good_lines, *bad_lines) -> bytes:
    """A manifest whose first bad line is line 6, after three blank ones."""
    return b"\n".join([good_lines[0], b"", good_lines[1], b" ", b"\t", *bad_lines,
                       *good_lines[2:]]) + b"\n"


def _manifest_line(**fields) -> bytes:
    rng = random.Random(9)
    record = {"image_id": "bad", "joints": random_joints(rng).tolist(), **fields}
    return json.dumps(record).encode()


_MALFORMED_MANIFESTS = {
    "not_utf8": ((b'{"image_id": "a\xff"}',), "line 6: not UTF-8"),
    "nested_too_deep": ((b"[" * 100_000,), "line 6: invalid JSON"),
    "not_an_object": ((b"[1, 2, 3]",), "line 6: record must be a JSON object"),
    "true_coordinate": ((_manifest_line(joints=[[True, 0, 0]] + [[1, 2, 3]] * 20),),
                        "line 6: joint coordinates must be numbers"),
    "twenty_joints": ((_manifest_line(joints=[[0, 1, 2]] * 20),),
                      "line 6: expected 21 joints, got 20"),
    "mesh_of_1e308_rows": ((_manifest_line(mesh_vertices=[[1e308] * 3] * 50),),
                           "line 6: mesh reference"),
    # An ASCII line whose escaped id holds a lone surrogate, which UTF-8 cannot encode.
    "lone_surrogate_id": ((_manifest_line(image_id="bad\udc80id"),),
                          "line 6: image_id 'bad\\udc80id' is not valid UTF-8"),
    "duplicate_before_malformed": ((_manifest_line(image_id="img000000"), b"", b"[1]"),
                                   "DuplicateImageId: image_id 'img000000' (line 6)"),
    "malformed_before_duplicate": ((b"[1]", _manifest_line(image_id="img000000")),
                                   "line 6: record must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_MANIFESTS))
def test_malformed_manifest_fails_alike_at_every_jobs(tmp_path, manifest, capsys, case):
    bad_lines, expected = _MALFORMED_MANIFESTS[case]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(_with_blank_lines_before(manifest.read_bytes().splitlines(), *bad_lines))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    errors = []
    for jobs in (1, 2):
        capsys.readouterr()
        assert run("generate", "--manifest", bad, "--out", out_dir / "d.jsonl",
                   "--jobs", jobs) == 3
        errors.append(capsys.readouterr().err)
        assert list(out_dir.iterdir()) == []
    assert errors[0] == errors[1]
    assert expected in errors[0]


def test_generate_refuses_to_replace_its_manifest(tmp_path, manifest, capsys):
    before = manifest.read_bytes()
    capsys.readouterr()
    assert run("generate", "--manifest", manifest, "--out", manifest, "--jobs", 2) == 5
    assert "output would replace the input" in capsys.readouterr().err
    assert manifest.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.jsonl"]


def test_generate_refuses_an_out_that_is_not_a_regular_file(tmp_path, manifest):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A child process, so that a generator that opens the FIFO for writing
    # blocks only until the timeout.
    done = subprocess.run(
        [sys.executable, "-m", "handmcq.cli", "generate", "--manifest", str(manifest),
         "--out", str(fifo)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, timeout=60)
    assert done.returncode == 5
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert run("generate", "--manifest", manifest, "--out", tmp_path) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "manifest.jsonl"]


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_calibration_bins_must_be_positive(tmp_path, bins):
    with pytest.raises(SystemExit) as exc:
        run("score", "--gold", tmp_path / "d.jsonl", "--pred", tmp_path / "p.jsonl",
            "--calibration-bins", bins)
    assert exc.value.code == 2


@pytest.fixture
def gold(tmp_path, manifest):
    dataset = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", manifest, "--out", dataset, "--seed", 1) == 0
    return list(iter_dataset(dataset)), dataset


def _score_inputs(tmp_path, gold):
    mcqs, dataset = gold
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"question_id": mcqs[0].question_id, "raw_answer": "(a)"}) + "\n")
    return {"--gold": dataset, "--pred": pred}


@pytest.mark.parametrize("named", ["--gold", "--pred"])
def test_score_refuses_a_report_that_replaces_an_input(tmp_path, gold, capsys, named):
    inputs = _score_inputs(tmp_path, gold)
    before = {flag: path.read_bytes() for flag, path in inputs.items()}
    # Another spelling of the same file.
    report = f"{inputs[named].parent}{os.sep}.{os.sep}{inputs[named].name}"
    capsys.readouterr()
    assert run("score", "--gold", inputs["--gold"], "--pred", inputs["--pred"],
               "--report", report) == 5
    assert "output would replace the input" in capsys.readouterr().err
    assert {flag: path.read_bytes() for flag, path in inputs.items()} == before


def test_baseline_refuses_a_report_that_replaces_its_gold(tmp_path, gold, capsys):
    _, dataset = gold
    before = dataset.read_bytes()
    capsys.readouterr()
    assert run("baseline", "--gold", dataset, "--report", dataset) == 5
    assert "output would replace the input" in capsys.readouterr().err
    assert dataset.read_bytes() == before


@pytest.mark.parametrize("command", ["score", "baseline"])
def test_a_directory_report_exits_before_any_input_is_read(tmp_path, gold, capsys, command):
    inputs = _score_inputs(tmp_path, gold)
    # A gold file that would exit 3 if it were read.
    inputs["--gold"].write_text("not json\n")
    argv = [command, "--gold", inputs["--gold"], "--report", tmp_path]
    if command == "score":
        argv += ["--pred", inputs["--pred"]]
    capsys.readouterr()
    assert run(*argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{tmp_path}: output is not a regular file" in captured.err


@pytest.mark.parametrize("command", ["score", "baseline"])
def test_a_failed_report_write_keeps_the_previous_report(tmp_path, gold, capsys, monkeypatch,
                                                          command):
    inputs = _score_inputs(tmp_path, gold)
    report = tmp_path / "out" / "report.json"
    report.parent.mkdir()
    report.write_text("previous report")

    def dump_half(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:100])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_half)
    argv = [command, "--gold", inputs["--gold"], "--report", report]
    if command == "score":
        argv += ["--pred", inputs["--pred"]]
    capsys.readouterr()
    assert run(*argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No space left on device" in captured.err
    assert report.read_text() == "previous report"
    assert [p.name for p in report.parent.iterdir()] == ["report.json"]


def test_outputs_are_written_through_a_symlink(tmp_path, manifest, gold):
    _, dataset = gold
    for argv in (["generate", "--manifest", manifest, "--out"],
                 ["baseline", "--gold", dataset, "--report"]):
        target = tmp_path / f"{argv[0]}_target"
        target.write_text("old")
        link = tmp_path / f"{argv[0]}_link"
        link.symlink_to(target)
        assert run(*argv, link) == 0
        assert link.is_symlink()
        assert target.read_text() != "old"


@pytest.mark.parametrize("bad_fields", [
    {"raw_answer": 5},
    {"raw_answer": "(a)", "confidence": "high"},
    {"option_confidences": [float("nan"), 0.5, 0.2, 0.1]},
    {"option_confidences": "0.9"},
], ids=["int_answer", "word_confidence", "nan_option_confidence", "string_option_confidences"])
def test_score_rejects_bad_prediction_with_line_number(tmp_path, gold, capsys, bad_fields):
    mcqs, dataset = gold
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"question_id": mcqs[0].question_id, "raw_answer": "(a)"}) + "\n"
                    + json.dumps({"question_id": mcqs[1].question_id, **bad_fields}) + "\n")
    capsys.readouterr()
    assert run("score", "--gold", dataset, "--pred", pred) == 3
    assert "line 2:" in capsys.readouterr().err


def test_score_rejects_confidences_without_mass_on_the_options(tmp_path, gold, capsys):
    mcqs, dataset = gold
    relpos = next(m for m in mcqs if len(m.options) == 2)
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"question_id": relpos.question_id,
                                "option_confidences": [0.0, 0.0, 0.3, 0.7]}) + "\n")
    capsys.readouterr()
    assert run("score", "--gold", dataset, "--pred", pred) == 3
    assert relpos.question_id in capsys.readouterr().err


@pytest.mark.parametrize("command,config,named", [
    ("generate", {"threshold": {"relpos_band": 0.2}}, "'threshold'"),
    ("generate", {"resample_on_aligned": "no"}, "resample_on_aligned"),
    ("generate", [1, 2], "JSON object"),
    ("generate", {"per_type_samples": None}, "per_type_samples"),
    ("generate", {"thresholds": 5}, "thresholds"),
    ("generate", {"axis_flips": 5}, "axis_flips"),
    ("generate", {"seed": True}, "seed"),
    ("generate", {"thresholds": {"angle_cuts": "abc"}}, "angle_cuts"),
    ("generate", {"thresholds": {"relpos_band": 0.2, "band": 0.1}}, "'band'"),
    ("generate", {"thresholds": {"relpos_band": float("nan")}}, "relpos_band"),
    ("generate", {"thresholds": {"angle_cuts": [100, 150, float("inf")]}}, "finite"),
    ("validate", [1, 2], "JSON object"),
    ("validate", {"thresholds": 5}, "thresholds"),
    ("validate", {"relpos_band": "wide"}, "relpos_band"),
    ("validate", {"thresholds": {"relpos_band": 0.2}, "typo": 1}, "'typo'"),
    ("validate", {"thresholds": {"relpos_band": 0.2}, "seed": "x"}, "seed"),
    ("generate", b'{"seed": "\xff"}', "cfg.json: 'utf-8' codec can't decode byte 0xff"),
    ("generate", b'{"seed": 1,', "cfg.json: Expecting property name"),
    ("validate", b'{"relpos_band": 0.2\xff}', "cfg.json: 'utf-8' codec can't decode byte 0xff"),
    ("validate", b"{'relpos_band': 0.2}", "cfg.json: Expecting property name"),
    ("generate", b"[" * 100_000, "cfg.json: maximum recursion depth exceeded"),
    ("generate", {"thresholds": {"angle_cuts": [100, 150]}}, "angle_cuts needs 3 cuts"),
], ids=["typo_key", "string_bool", "top_level_list", "null_samples", "int_thresholds",
        "int_axis_flips", "bool_seed", "string_cuts", "typo_threshold_key", "nan_band", "inf_cut",
        "validate_top_level_list", "validate_int_thresholds", "validate_string_band",
        "validate_typo_key_beside_thresholds", "validate_string_seed_beside_thresholds",
        "not_utf8", "invalid_json", "validate_not_utf8", "validate_invalid_json",
        "deep_nesting", "two_angle_cuts"])
def test_bad_config_exits_3(tmp_path, manifest, capsys, command, config, named):
    config_path = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        config_path.write_bytes(config)
    else:
        config_path.write_text(json.dumps(config))
    dataset = tmp_path / "d.jsonl"
    if command == "generate":
        argv = ("generate", "--manifest", manifest, "--out", dataset, "--config", config_path)
    else:
        assert run("generate", "--manifest", manifest, "--out", dataset) == 0
        argv = ("validate", "--manifest", manifest, "--dataset", dataset, "--config", config_path)
    capsys.readouterr()
    assert run(*argv) == 3
    assert named in capsys.readouterr().err
    assert dataset.exists() == (command == "validate")


def _set_header(header, payload):
    header["__header__"] = payload


def _set_thresholds(header, payload):
    header["__header__"]["config"]["thresholds"] = payload


def _set_field(header, payload):
    key, value = payload
    header["__header__"][key] = value


def _drop_field(header, payload):
    del header["__header__"][payload]


@pytest.mark.parametrize("tamper,payload", [
    (_set_header, 5),
    (_set_header, ["tool", "handmcq"]),
    (_set_field, ("config", "default")),
    (_set_thresholds, 5),
    (_set_thresholds, {"relpos_band": "wide"}),
    (_drop_field, "config"),
    (_set_field, ("tool", "othertool")),
    (_drop_field, "version"),
    (_set_field, ("version", "999.0.0")),
], ids=["int_header", "list_header", "string_config", "int_thresholds", "string_band",
        "no_config", "wrong_tool", "no_version", "unknown_version"])
def test_validate_rejects_bad_dataset_header(tmp_path, manifest, capsys, tamper, payload):
    dataset = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", manifest, "--out", dataset) == 0
    lines = dataset.read_text().splitlines()
    header = json.loads(lines[0])
    tamper(header, payload)
    dataset.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    pred = tmp_path / "p.jsonl"
    pred.write_text("")
    for command in ("validate", "score", "baseline", "stats"):
        capsys.readouterr()
        assert run(*_read_side_argv(command, manifest, dataset, pred)) == 3, command
        assert "line 1:" in capsys.readouterr().err, command


def test_validate_rejects_float_joint_in_dataset(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", manifest, "--out", dataset) == 0
    lines = dataset.read_text().splitlines()
    record = json.loads(lines[1])
    record["target"]["subject"] = float(record["target"]["subject"])
    lines[1] = json.dumps(record)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("validate", "--manifest", manifest, "--dataset", dataset) == 3
    assert "line 2:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "baseline"])
def test_duplicate_gold_question_id_exits_3(tmp_path, gold, capsys, command):
    mcqs, dataset = gold
    lines = dataset.read_text().splitlines()
    dataset.write_text("\n".join([*lines, lines[7]]) + "\n")
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"question_id": mcqs[0].question_id, "raw_answer": "(a)"}) + "\n")
    capsys.readouterr()
    if command == "score":
        assert run("score", "--gold", dataset, "--pred", pred) == 3
    else:
        assert run("baseline", "--gold", dataset) == 3
    err = capsys.readouterr().err
    assert "DuplicateQuestionId" in err
    assert mcqs[6].question_id in err


def test_stats_count_the_correct_option_not_the_provenance(tmp_path, manifest, capsys):
    dataset = tmp_path / "d.jsonl"
    assert run("generate", "--manifest", manifest, "--out", dataset, "--seed", 2) == 0
    capsys.readouterr()
    assert run("stats", "--dataset", dataset, "--json") == 0
    expected = json.loads(capsys.readouterr().out)
    lines = dataset.read_text().splitlines()
    record = json.loads(lines[1])
    stored = record["provenance"]["category"]
    record["provenance"]["category"] = next(
        label for label in OPTION_LABELS_BY_KIND[record["kind"]] if label != stored)
    lines[1] = json.dumps(record)
    record = json.loads(lines[2])
    record["provenance"] = {}
    lines[2] = json.dumps(record)
    dataset.write_text("\n".join(lines) + "\n")
    assert run("stats", "--dataset", dataset, "--json") == 0
    assert json.loads(capsys.readouterr().out) == expected


def _read_side_argv(command, manifest, dataset, pred):
    return {"validate": ("validate", "--manifest", manifest, "--dataset", dataset),
            "score": ("score", "--gold", dataset, "--pred", pred),
            "baseline": ("baseline", "--gold", dataset),
            "stats": ("stats", "--dataset", dataset)}[command]


@pytest.mark.parametrize("command", ["validate", "score", "baseline", "stats"])
def test_headerless_dataset_exits_3(tmp_path, manifest, gold, capsys, command):
    mcqs, dataset = gold
    dataset.write_text("\n".join(dataset.read_text().splitlines()[1:]) + "\n")
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"question_id": mcqs[0].question_id, "raw_answer": "(a)"}) + "\n")
    capsys.readouterr()
    assert run(*_read_side_argv(command, manifest, dataset, pred)) == 3
    assert "line 1:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "score", "baseline", "stats"])
def test_misplaced_dataset_header_exits_3(tmp_path, manifest, gold, capsys, command):
    mcqs, dataset = gold
    lines = dataset.read_text().splitlines()
    # Blank lines before the header are allowed; a second header is not.
    dataset.write_text("\n".join(["", *lines[:3], lines[0], *lines[3:]]) + "\n")
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"question_id": mcqs[0].question_id, "raw_answer": "(a)"}) + "\n")
    capsys.readouterr()
    assert run(*_read_side_argv(command, manifest, dataset, pred)) == 3
    assert "line 5:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("generate", "--jobs", "0"),
    ("generate", "--jobs", "-4"),
    ("baseline", "--trials", "0"),
], ids=["jobs_0", "jobs_negative", "trials_0"])
def test_jobs_and_trials_must_be_positive(tmp_path, manifest, argv):
    command, *flag = argv
    out = tmp_path / "d.jsonl"
    paths = (("--manifest", manifest, "--out", out) if command == "generate"
             else ("--gold", out))
    with pytest.raises(SystemExit) as exc:
        run(command, *paths, *flag)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_jobs_defaults_to_the_cpus_the_process_may_use():
    code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from handmcq.cli import _build_parser; "
            "print(_build_parser().parse_args(['generate', '--manifest', 'm', '--out', 'o']).jobs)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "1")


@pytest.mark.parametrize("command", ["validate", "score", "baseline", "stats"])
@pytest.mark.parametrize("tamper", ["edited_correct_option", "int_prompt", "int_provenance"])
def test_dataset_record_rules_name_the_line_in_every_reader(
        tmp_path, manifest, gold, capsys, command, tamper):
    mcqs, dataset = gold
    lines = dataset.read_text().splitlines()
    record = json.loads(lines[4])
    if tamper == "int_prompt":
        record["prompt"] = 5
    elif tamper == "int_provenance":
        record["provenance"] = 5
    else:
        record["options"][record["correct_index"]] += "!"
    lines[4] = json.dumps(record)
    dataset.write_text("\n".join(lines) + "\n")
    pred = tmp_path / "p.jsonl"
    pred.write_text(json.dumps({"question_id": mcqs[0].question_id, "raw_answer": "(a)"}) + "\n")
    capsys.readouterr()
    assert run(*_read_side_argv(command, manifest, dataset, pred)) == 3
    assert "line 5:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "score"])
def test_non_utf8_input_names_its_line(tmp_path, manifest, gold, capsys, command):
    _, dataset = gold
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n" + b'{"question_id": "a\xff"}\n')
    argv = (("generate", "--manifest", bad, "--out", tmp_path / "out.jsonl")
            if command == "generate" else ("score", "--gold", dataset, "--pred", bad))
    capsys.readouterr()
    assert run(*argv) == 3
    assert "line 2: not UTF-8" in capsys.readouterr().err


def test_boolean_joint_coordinate_exits_3(tmp_path, manifest, capsys):
    lines = manifest.read_text().splitlines()
    record = json.loads(lines[2])
    record["joints"][4][0] = True
    lines[2] = json.dumps(record)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("generate", "--manifest", manifest, "--out", tmp_path / "d.jsonl") == 3
    assert "line 3:" in capsys.readouterr().err


def test_threshold_too_large_for_a_float_exits_3(tmp_path, manifest, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"thresholds": {"relpos_band": 1' + "0" * 400 + "}}")
    capsys.readouterr()
    assert run("generate", "--manifest", manifest, "--out", tmp_path / "d.jsonl",
               "--config", config) == 3
    assert "relpos_band" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "validate"])
@pytest.mark.parametrize("field", ["joints", "mesh_vertices", "far_joints"])
def test_coordinates_whose_frame_overflows_exit_3(tmp_path, manifest, gold, capsys,
                                                 command, field):
    # Finite coordinates whose sum overflows: the centroid is not finite, so
    # every value of the pose would be NaN or a clamped angle. Joints far
    # outside a tiny mesh overflow the same way once normalized.
    _, dataset = gold
    rng = random.Random(7)
    record = {"image_id": "huge", "joints": random_joints(rng).tolist()}
    if field == "joints":
        record["joints"] = [[rng.uniform(0, 1e308) for _ in range(3)] for _ in range(21)]
    elif field == "mesh_vertices":
        record["mesh_vertices"] = [[1e308, 1e308, 1e308]] * 3
    else:
        record["joints"] = [[rng.uniform(0, 1e300) for _ in range(3)] for _ in range(21)]
        record["mesh_vertices"] = [[rng.uniform(0, 1e-6) for _ in range(3)] for _ in range(10)]
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    argv = (("generate", "--manifest", manifest, "--out", tmp_path / "out.jsonl")
            if command == "generate"
            else ("validate", "--manifest", manifest, "--dataset", dataset))
    capsys.readouterr()
    assert run(*argv) == 3
    assert "line 7:" in capsys.readouterr().err
