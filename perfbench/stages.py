"""Per-layer tracing of handmcq from outside its source tree.

Each stage wraps one layer entry point by rebinding the name in the
namespace of the module that calls it (for example
`handmcq.dataset.descriptor_value`), so the program's own files stay
untouched. Spans are aggregated on the fly: a parent stack carries each open
span's child time, so a stage's self time is its span time minus the spans
nested inside it.

Wrapping fails loudly when a rebound name is missing, and `check_calls`
fails when a stage recorded no call, so a refactor that moves an entry
point breaks the trace visibly instead of reporting 0 s.
"""
from __future__ import annotations

import builtins
import importlib
import tracemalloc
from multiprocessing.reduction import ForkingPickler
from time import perf_counter

# stage -> (how it is wrapped, names rebound in their calling modules).
# "call" times each call; "iter" times each record a generator yields.
STAGES = {
    "parse": ("call", ["handmcq.dataset._parse_manifest_line"]),
    "normalize": ("call", ["handmcq.dataset.normalized_pose_for",
                           "handmcq.oracle.normalized_pose_for"]),
    "descriptors": ("call", ["handmcq.dataset.descriptor_value",
                             "handmcq.oracle.descriptor_value"]),
    "categorize": ("call", ["handmcq.dataset.categorize", "handmcq.oracle.categorize"]),
    "assemble": ("call", ["handmcq.dataset.assemble_mcq"]),
    "encode": ("call", ["handmcq.dataset._dump_line"]),
    # Output writes: the generator opens its output file itself, so `open`
    # is shadowed in its module and writable files come back wrapped.
    "write": ("open", ["handmcq.dataset.open"]),
    "read": ("iter", ["handmcq.oracle.iter_dataset", "handmcq.evaluate.iter_dataset"]),
    "target_lookup": ("call", ["handmcq.dataset.target_from_fields"]),
    "oracle": ("call", ["handmcq.oracle.answer_mcq"]),
    "decode": ("call", ["handmcq.oracle.decode_statement",
                        "handmcq.evaluate.decode_statement"]),
    "predictions": ("iter", ["handmcq.cli.load_predictions"]),
    "resolve": ("call", ["handmcq.evaluate.resolve_prediction"]),
    "reduce": ("call", ["handmcq.evaluate._score_resolved"]),
}


class TraceError(RuntimeError):
    """The trace no longer matches the program's layer entry points."""


def _split(path: str):
    module_name, attr = path.rsplit(".", 1)
    return importlib.import_module(module_name), attr


class Tracer:
    """Installs the stage wrappers and accumulates calls and self time."""

    def __init__(self):
        # stage -> [calls, self seconds]; one list per stage, captured by
        # its wrappers so a span costs no dictionary lookup.
        self.cells = {stage: [0, 0.0] for stage in STAGES}
        self.write_bytes = 0
        # Child time of each open span; the bottom entry collects top-level
        # spans and is never popped.
        self._stack = [0.0]
        self._saved = []

    # -- wrappers -------------------------------------------------------

    def _wrap_call(self, cell, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                cell[0] += 1
                cell[1] += dur - stack.pop()
                stack[-1] += dur
        return traced

    def _wrap_iter(self, cell, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                t0 = perf_counter()
                stack.append(0.0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    cell[1] += dur - stack.pop()
                    stack[-1] += dur
                cell[0] += 1
                yield item
        return traced

    def _wrap_open(self, cell, _unused):
        tracer = self
        wrap_write = self._wrap_call

        class _TracedFile:
            def __init__(self, fh):
                self._fh = fh
                raw_write = wrap_write(cell, fh.write)

                def write(s):
                    # The encoder escapes non-ASCII, so characters are bytes.
                    tracer.write_bytes += len(s)
                    return raw_write(s)
                self.write = write

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def __getattr__(self, name):
                return getattr(self._fh, name)

        def traced_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return _TracedFile(fh) if ("w" in mode or "a" in mode) else fh
        return traced_open

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        wrappers = {"call": self._wrap_call, "iter": self._wrap_iter, "open": self._wrap_open}
        try:
            for stage, (how, paths) in STAGES.items():
                for path in paths:
                    module, attr = _split(path)
                    if how == "open":
                        original = None
                    elif not hasattr(module, attr):
                        raise TraceError(f"stage {stage!r}: {path} no longer exists")
                    else:
                        original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrappers[how](self.cells[stage], original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            if original is None:
                delattr(module, attr)
            else:
                setattr(module, attr, original)

    def take(self) -> dict:
        """Per-stage {calls, self_s} since the last take; resets the cells."""
        out = {}
        for stage, cell in self.cells.items():
            out[stage] = {"calls": cell[0], "self_s": cell[1]}
            cell[0], cell[1] = 0, 0.0
        return out


def check_calls(totals: dict, workload: str) -> None:
    """Every stage is on the path of every workload: each runs generate,
    validate, score and baseline. A stage with no call means the trace
    lost track of its entry point."""
    silent = [stage for stage, t in totals.items() if t["calls"] == 0]
    if silent:
        raise TraceError(f"{workload}: stages recorded no calls: {', '.join(silent)}")


# -- counts that need their own pass -------------------------------------

def gold_index_peak_mb(dataset_path) -> float:
    """tracemalloc peak while `evaluate._gold_index` builds the gold index."""
    from handmcq import evaluate
    if not hasattr(evaluate, "_gold_index"):
        raise TraceError("handmcq.evaluate._gold_index no longer exists")
    tracemalloc.start()
    try:
        index = evaluate._gold_index(str(dataset_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del index
    return peak / 2**20


def manifest_index_peak_mb(manifest_path, dataset_path) -> float:
    """tracemalloc peak of `validate_dataset` from its start until it first
    asks for a dataset record, by which time its manifest index is built."""
    from handmcq import oracle
    if not hasattr(oracle, "iter_dataset"):
        raise TraceError("handmcq.oracle.iter_dataset no longer exists")
    original = oracle.iter_dataset
    peak = []

    def probe(path):
        if not peak:
            peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return original(path)

    oracle.iter_dataset = probe
    tracemalloc.start()
    try:
        oracle.validate_dataset(str(manifest_path), str(dataset_path))
    finally:
        oracle.iter_dataset = original
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    if not peak:
        raise TraceError("validate_dataset never read the dataset")
    return peak[0] / 2**20


def ipc_bytes_per_image(manifest_path) -> float:
    """Mean pickled size of the records `generate` hands to `pool.imap`."""
    from handmcq import dataset
    sizes = [len(ForkingPickler.dumps(rec)) for rec in dataset.load_manifest(str(manifest_path))]
    return sum(sizes) / len(sizes)
