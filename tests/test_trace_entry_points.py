"""The benchmark's per-layer trace (`perfbench/stages.py`) wraps layer entry
points by rebinding names in the package's modules. Installing and removing
it here makes a renamed or dropped entry point fail this suite, not only
the benchmark's smoke run."""
import importlib
import importlib.util
from pathlib import Path

STAGES_PY = Path(__file__).resolve().parents[1] / "perfbench" / "stages.py"


def _load_stages():
    spec = importlib.util.spec_from_file_location("perfbench_stages", STAGES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(path: str):
    module_name, attr = path.rsplit(".", 1)
    return vars(importlib.import_module(module_name)).get(attr)


def test_trace_installs_on_every_entry_point_and_removes_cleanly():
    stages = _load_stages()
    paths = [path for _, stage_paths in stages.STAGES.values() for path in stage_paths]
    before = {path: _bound(path) for path in paths}
    tracer = stages.Tracer()
    tracer.install()
    try:
        assert all(_bound(path) is not before[path] for path in paths)
    finally:
        tracer.remove()
    assert {path: _bound(path) for path in paths} == before
