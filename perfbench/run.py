"""handmcq benchmark: subcommand throughput and memory, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload clean-25 --seed 1 --seconds 30 --trace 0

Workloads are built from --seed (see workloads.py). Set-up writes the
manifest, generates a reference dataset with the real CLI and plants
predictions against it.

--trace 0 is a closed loop with one client. A pass runs `catalog-dump`
(the set-up cost every subcommand pays: `setup_s`), `generate --jobs 1`,
`generate --jobs N` twice (N = usable CPUs), `validate`, `score` and
`baseline --trials 3`, each in its own child process, the next one starting
when the previous exits. Passes repeat for --seconds; every end-to-end
metric is the median of its samples. qps is questions in the dataset
divided by the child's wall time; peak RSS comes from os.wait4.

--trace 1 runs the same subcommands in this process at jobs 1, with the stage
wrappers of stages.py installed, alternating with untraced `generate` runs
for the tracing overhead; it prints the per-layer metrics.

Every output is checked. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the run's provenance. Exit status: 0 when every check passed, 1 when one
failed, 2 when the program's sources are not there.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

# This process must not import numpy or handmcq while it measures the peak
# RSS of its children: see workloads.main.
import stages
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
IMPORT_REPS = 7
MIN_PASSES = 3
BASELINE_TRIALS = 3
CHILD_TIMEOUT_S = 120

_VALIDATE_LINE = re.compile(r"questions: (\d+)\s+mismatches: (\d+)\s+skipped: (\d+)")


@dataclass
class Run:
    """One subcommand invocation."""

    code: int
    wall_s: float
    stdout: str
    stderr: str
    rss_mb: float | None = None


@dataclass
class Inputs:
    manifest: Path
    predictions: Path
    questions: int
    summary: dict
    sha256: str
    gold_by_kind: dict
    planted_correct_by_kind: dict


class Ledger:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"CHECK FAILED {what}: {p}", file=sys.stderr)
        return not problems


# -- running the program ---------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_python(argv: list[str], work: Path) -> Run:
    """Run `python <argv>` to completion; wall time and peak RSS of the child."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, out_path.read_text(), err_path.read_text(),
               usage.ru_maxrss / 1024)


def run_cli(args: list[str], work: Path) -> Run:
    return run_python(["-m", "handmcq.cli", *args], work)


def run_in_process(args: list[str]) -> Run:
    """Run the CLI entry point in this process, capturing its output."""
    from handmcq import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except Exception:
            traceback.print_exc()
            code = 1
    return Run(code, perf_counter() - t0, out.getvalue(), err.getvalue())


def generate_args(w, seed: int, manifest: Path, out: Path, jobs: int) -> list[str]:
    """Arguments of one `generate` run. Removes the previous output first:
    overwriting a large, freshly written file makes the file system flush
    it, and that wait would be timed as part of `generate`."""
    out.unlink(missing_ok=True)
    return ["generate", "--manifest", str(manifest), "--out", str(out), "--seed", str(seed),
            "--samples-per-type", str(w.samples_per_type), "--jobs", str(jobs)]


def validate_args(inputs: Inputs, dataset: Path) -> list[str]:
    return ["validate", "--manifest", str(inputs.manifest), "--dataset", str(dataset)]


def score_args(w, inputs: Inputs, dataset: Path, report: Path) -> list[str]:
    args = ["score", "--gold", str(dataset), "--pred", str(inputs.predictions),
            "--report", str(report)]
    if w.calibration_bins:
        args += ["--calibration-bins", str(w.calibration_bins)]
    return args


def baseline_args(seed: int, dataset: Path, report: Path) -> list[str]:
    return ["baseline", "--gold", str(dataset), "--seed", str(seed),
            "--trials", str(BASELINE_TRIALS), "--report", str(report)]


# -- checks ----------------------------------------------------------------

def file_digest(path: Path) -> tuple[str, int]:
    """(sha256, line count) of a file."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def _exit_problems(run: Run) -> list[str]:
    if run.code == 0:
        return []
    return [f"exit {run.code}: {run.stderr.strip()[-500:]}"]


def check_generate(run: Run, out: Path, inputs: Inputs | None) -> tuple[list[str], dict | None]:
    """Exit 0, lines = summary mcqs + 1 (header), and, once a reference
    exists, the reference's summary and bytes."""
    problems = _exit_problems(run)
    if problems:
        return problems, None
    try:
        summary = json.loads(run.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [f"unreadable summary {run.stdout[-200:]!r}"], None
    sha, lines = file_digest(out)
    if lines != summary["mcqs"] + 1:
        problems.append(f"{lines} lines for {summary['mcqs']} questions")
    if inputs is not None:
        if summary != inputs.summary:
            problems.append(f"summary {summary} differs from the reference")
        if sha != inputs.sha256:
            problems.append("dataset bytes differ from the reference dataset")
    return problems, summary


def check_validate(run: Run, inputs: Inputs) -> list[str]:
    problems = _exit_problems(run)
    if problems:
        return problems
    m = _VALIDATE_LINE.search(run.stdout)
    if m is None:
        return [f"no summary line in {run.stdout[:200]!r}"]
    total, mismatches = int(m.group(1)), int(m.group(2))
    if total != inputs.questions:
        problems.append(f"validated {total} of {inputs.questions} questions")
    if mismatches:
        problems.append(f"{mismatches} mismatches")
    return problems


def _per_kind(report_path: Path, field: str) -> dict:
    report = json.loads(report_path.read_text())
    return {kind: m[field] for kind, m in report["per_kind"].items()}


def check_score(run: Run, report: Path, inputs: Inputs) -> list[str]:
    problems = _exit_problems(run)
    if problems:
        return problems
    planted = {k: v for k, v in inputs.planted_correct_by_kind.items() if inputs.gold_by_kind[k]}
    got = _per_kind(report, "correct")
    if got != planted:
        problems.append(f"correct per kind {got}, planted {planted}")
    return problems


def check_baseline(run: Run, report: Path, inputs: Inputs) -> list[str]:
    problems = _exit_problems(run)
    if problems:
        return problems
    gold = {k: v for k, v in inputs.gold_by_kind.items() if v}
    got = _per_kind(report, "count")
    if got != gold:
        problems.append(f"questions per kind {got}, gold {gold}")
    return problems


# -- set-up ----------------------------------------------------------------

def build_inputs(w, seed: int, scale: float, work: Path, ledger: Ledger) -> Inputs | None:
    """Manifest, reference dataset (generate --jobs 1) and planted predictions."""
    manifest = work / "manifest.jsonl"
    run = run_python([str(Path(workloads.__file__)), "--workload", w.name, "--seed", str(seed),
                      "--scale", str(scale), "--out", str(manifest)], work)
    if not ledger.record("manifest", _exit_problems(run)):
        return None
    reference = work / "reference.jsonl"
    run = run_cli(generate_args(w, seed, manifest, reference, 1), work)
    problems, summary = check_generate(run, reference, None)
    if not ledger.record("reference generate", problems):
        return None
    predictions = work / "predictions.jsonl"
    planted = workloads.write_predictions(w, seed, reference, predictions)
    gold = {k: v for k, v in planted["gold_by_kind"].items() if v}
    if not ledger.record("reference dataset", [] if gold == summary["mcqs_by_kind"] else
                         [f"dataset holds {gold}, summary says {summary['mcqs_by_kind']}"]):
        return None
    return Inputs(manifest=manifest, predictions=predictions, questions=summary["mcqs"],
                  summary=summary, sha256=file_digest(reference)[0], **planted)


def walls_of(argv: list[str], reps: int, work: Path, ledger: Ledger, what: str) -> list[float]:
    walls = []
    for _ in range(reps):
        run = run_python(argv, work)
        ledger.record(what, _exit_problems(run))
        walls.append(run.wall_s)
    return walls


def setup_wall(work: Path, ledger: Ledger) -> float:
    """Wall time of `catalog-dump`: interpreter start, imports and the
    import-time catalog and statement tables that every subcommand pays."""
    run = run_cli(["catalog-dump"], work)
    problems = _exit_problems(run)
    if not problems and "total targets: 107" not in run.stdout:
        problems.append("catalog-dump did not list 107 targets")
    ledger.record("catalog-dump", problems)
    return run.wall_s


# -- the untraced closed loop ------------------------------------------------

def untraced_pass(w, seed: int, jobs: int, inputs: Inputs, work: Path, ledger: Ledger) -> dict:
    """One closed-loop pass; returns the samples it took, by metric.

    `generate --jobs N` runs twice: with N workers on N cores it is the
    noisiest step, and the extra sample steadies its median."""
    q = inputs.questions
    out = {"setup_s": [setup_wall(work, ledger)]}

    def sample(name, value):
        out.setdefault(name, []).append(value)

    j1, jn = work / "j1.jsonl", work / "jN.jsonl"
    run = run_cli(generate_args(w, seed, inputs.manifest, j1, 1), work)
    ledger.record("generate --jobs 1", check_generate(run, j1, inputs)[0])
    sample("generate_j1_qps", q / run.wall_s)
    sample("generate_j1_rss_mb", run.rss_mb)

    # Every output must equal the reference, so jobs=N bytes equal jobs=1.
    for _ in range(2):
        run = run_cli(generate_args(w, seed, inputs.manifest, jn, jobs), work)
        ledger.record(f"generate --jobs {jobs}", check_generate(run, jn, inputs)[0])
        sample("generate_jN_qps", q / run.wall_s)

    run = run_cli(validate_args(inputs, j1), work)
    ledger.record("validate", check_validate(run, inputs))
    sample("validate_qps", q / run.wall_s)
    sample("validate_rss_mb", run.rss_mb)

    report = work / "score.json"
    run = run_cli(score_args(w, inputs, j1, report), work)
    ledger.record("score", check_score(run, report, inputs))
    sample("score_qps", q / run.wall_s)
    sample("score_rss_mb", run.rss_mb)

    report = work / "baseline.json"
    run = run_cli(baseline_args(seed, j1, report), work)
    ledger.record("baseline", check_baseline(run, report, inputs))
    sample("baseline_qps", q / run.wall_s)
    sample("baseline_rss_mb", run.rss_mb)
    return out


def repeat_passes(seconds: float, one_pass, ledger: Ledger) -> list:
    """Run passes until the next one would overrun `seconds` (at least
    MIN_PASSES), stopping early after a failed check."""
    results, durations = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        failed_before = ledger.failed
        results.append(one_pass(len(results)))
        durations.append(perf_counter() - t0)
        if ledger.failed > failed_before:
            break
        left = seconds - (perf_counter() - t_start)
        if len(results) >= MIN_PASSES and left < statistics.median(durations):
            break
    return results


def measure_untraced(w, seed, seconds, jobs, inputs, work, ledger) -> tuple[dict, dict]:
    """End-to-end metrics (medians) and the samples they are the medians of.

    `setup_s` is sampled before the passes and once in each, so that its
    samples spread over the whole run."""
    samples = {"setup_s": [setup_wall(work, ledger) for _ in range(SETUP_REPS)]}
    passes = repeat_passes(
        seconds, lambda _: untraced_pass(w, seed, jobs, inputs, work, ledger), ledger)
    for p in passes:
        for name, values in p.items():
            samples.setdefault(name, []).extend(values)
    return {name: statistics.median(v) for name, v in samples.items()}, samples


# -- the traced in-process run ----------------------------------------------

PHASES = ("generate", "validate", "score", "baseline")


def traced_pass(i: int, w, seed, inputs: Inputs, work: Path, ledger: Ledger) -> dict:
    """Untraced and traced `generate` (order alternating by pass), then the
    traced read side. Returns wall times and per-phase stage totals."""
    untraced_out, traced_out = work / "untraced.jsonl", work / "traced.jsonl"
    result = {}

    def untraced():
        run = run_in_process(generate_args(w, seed, inputs.manifest, untraced_out, 1))
        ledger.record("untraced generate", check_generate(run, untraced_out, inputs)[0])
        result["untraced_generate_s"] = run.wall_s

    def traced():
        tracer = stages.Tracer()
        tracer.install()
        phases = {}
        try:
            run = run_in_process(generate_args(w, seed, inputs.manifest, traced_out, 1))
            phases["generate"] = tracer.take()
            problems = check_generate(run, traced_out, inputs)[0]
            if tracer.write_bytes != traced_out.stat().st_size:
                problems.append(f"write.bytes {tracer.write_bytes} != "
                                f"dataset size {traced_out.stat().st_size}")
            ledger.record("traced generate", problems)
            walls = {"generate": run.wall_s}

            run = run_in_process(validate_args(inputs, traced_out))
            phases["validate"] = tracer.take()
            ledger.record("traced validate", check_validate(run, inputs))
            walls["validate"] = run.wall_s

            report = work / "traced_score.json"
            run = run_in_process(score_args(w, inputs, traced_out, report))
            phases["score"] = tracer.take()
            ledger.record("traced score", check_score(run, report, inputs))
            walls["score"] = run.wall_s

            report = work / "traced_baseline.json"
            run = run_in_process(baseline_args(seed, traced_out, report))
            phases["baseline"] = tracer.take()
            ledger.record("traced baseline", check_baseline(run, report, inputs))
            walls["baseline"] = run.wall_s
        finally:
            tracer.remove()
        result.update(phases=phases, walls=walls, write_bytes=tracer.write_bytes)

    for step in ((untraced, traced) if i % 2 == 0 else (traced, untraced)):
        step()
    return result


def stage_totals(phases: dict) -> dict:
    totals = {stage: {"calls": 0, "self_s": 0.0} for stage in stages.STAGES}
    for per_stage in phases.values():
        for stage, t in per_stage.items():
            totals[stage]["calls"] += t["calls"]
            totals[stage]["self_s"] += t["self_s"]
    return totals


def print_breakdown(passes: list) -> None:
    """Median self time of each stage per phase, as a share of the phase."""
    for phase in PHASES:
        wall = statistics.median(p["walls"][phase] for p in passes)
        print(f"{phase}: {wall:.3f} s")
        for stage in stages.STAGES:
            calls = passes[0]["phases"][phase][stage]["calls"]
            if calls:
                s = statistics.median(p["phases"][phase][stage]["self_s"] for p in passes)
                print(f"  {stage:<14}{calls:>10} calls {s:9.4f} s {100 * s / wall:6.1f}%")


def measure_traced(w, seed, seconds, inputs, work, ledger) -> tuple[dict, dict]:
    """Per-layer metrics and the generate wall times behind the overhead."""
    sys.path.insert(0, str(SRC))
    import_walls = walls_of(
        ["-c", "import time; t = time.perf_counter(); import handmcq"],
        IMPORT_REPS, work, ledger, "import handmcq")
    passes = repeat_passes(
        seconds, lambda i: traced_pass(i, w, seed, inputs, work, ledger), ledger)
    for p in passes:
        p["totals"] = stage_totals(p["phases"])
    first = passes[0]
    calls = {stage: t["calls"] for stage, t in first["totals"].items()}
    for p in passes[1:]:
        again = {stage: t["calls"] for stage, t in p["totals"].items()}
        ledger.record("traced calls repeat", [] if again == calls else
                      [f"calls {again} differ from the first pass {calls}"])
    print_breakdown(passes)

    metrics = {}
    for stage in stages.STAGES:
        metrics[f"{stage}.calls"] = calls[stage]
        metrics[f"{stage}.self_s"] = statistics.median(
            p["totals"][stage]["self_s"] for p in passes)
    metrics["write.bytes"] = first["write_bytes"]
    metrics["sample.emit_ratio"] = (
        inputs.questions / first["phases"]["generate"]["descriptors"]["calls"])
    metrics["gold_index.peak_mb"] = stages.gold_index_peak_mb(work / "traced.jsonl")
    metrics["manifest_index.peak_mb"] = stages.manifest_index_peak_mb(
        inputs.manifest, work / "traced.jsonl")
    metrics["ipc.bytes_per_image"] = stages.ipc_bytes_per_image(inputs.manifest)
    samples = {"import_s": import_walls,
               "traced_generate_s": [p["walls"]["generate"] for p in passes],
               "untraced_generate_s": [p["untraced_generate_s"] for p in passes]}
    metrics["import.s"] = statistics.median(import_walls)
    metrics["trace.overhead_frac"] = (statistics.median(samples["traced_generate_s"])
                                      / statistics.median(samples["untraced_generate_s"]) - 1)
    stages.check_calls(first["totals"], w.name)
    return metrics, samples


# -- provenance --------------------------------------------------------------

def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(w, seed: int, scale: float, jobs: int, inputs: Inputs | None, passes: int) -> dict:
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    # A checkout that is not a repository of its own has no commit, even
    # when it sits inside another repository.
    top = _git("rev-parse", "--show-toplevel")
    commit = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "workload": w.name,
        "seed": seed,
        "poses": workloads.pose_count(w, scale),
        "questions": inputs.questions if inputs else None,
        "samples_per_type": w.samples_per_type,
        "answer_form": w.answer_form,
        "calibration_bins": w.calibration_bins,
        "passes": passes,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs_n": jobs,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source.hexdigest(),
    }


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's pose count (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "handmcq" / "cli.py").is_file():
        print(f"error: no handmcq sources under {SRC}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = len(os.sched_getaffinity(0))
    ledger = Ledger()
    metrics, samples = {}, {}
    inputs = build_inputs(w, args.seed, args.scale, work, ledger)
    if inputs is not None:
        try:
            if args.trace:
                metrics, samples = measure_traced(
                    w, args.seed, args.seconds, inputs, work, ledger)
            else:
                metrics, samples = measure_untraced(
                    w, args.seed, args.seconds, jobs, inputs, work, ledger)
        except stages.TraceError as e:
            ledger.record("trace", [str(e)])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics:
        missing = [name for name in units if name not in metrics]
        ledger.record("metrics", [f"not measured: {', '.join(missing)}"] if missing else [])
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    passes = len(samples.get("generate_j1_qps", samples.get("traced_generate_s", ())))
    prov = provenance(w, args.seed, args.scale, jobs, inputs, passes)
    for path in work.iterdir():
        path.unlink()
    (work / "result.json").write_text(
        json.dumps({"provenance": prov, **result, "samples": samples}, indent=2))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
