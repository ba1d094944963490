"""The README's "Library use" example runs as written."""
import random
import re
from pathlib import Path

from conftest import random_joints, synthetic_manifest
from handmcq.dataset import GenerationConfig, generate_dataset, iter_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    synthetic_manifest(tmp_path / "poses.jsonl", 4, seed=71)
    generate_dataset(tmp_path / "poses.jsonl", GenerationConfig(seed=0), tmp_path / "dataset.jsonl")
    (tmp_path / "predictions.jsonl").write_text("".join(
        f'{{"question_id": "{mcq.question_id}", "raw_answer": "(a)", "confidence": 0.6}}\n'
        for mcq in iter_dataset(tmp_path / "dataset.jsonl")))
    monkeypatch.chdir(tmp_path)
    exec(library_use_block(), {"joints_21x3": random_joints(random.Random(7))})
    out = capsys.readouterr().out
    assert "bent inward" in out
    assert "expected calibration error" in out
    assert "'ece'" in out
