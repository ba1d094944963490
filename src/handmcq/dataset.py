"""Manifest ingestion, per-image target sampling, MCQ assembly, and
dataset serialization.

File formats (all JSONL, one JSON object per line, split by `_jsonl_lines`
and parsed by `_parse_jsonl_line`; blank lines are skipped and errors name
their line):

Manifest record:
    {"image_id": str, "image_path": str?, "joints": [[x,y,z] * 21],
     "mesh_vertices": [[x,y,z] * M]?, "axis_flips": [sx,sy,sz]?}

Dataset: first a header record {"__header__": {...generation config, tool
version}}, then one MCQ per line:
    {"question_id": str, "image_id": str, "kind": str,
     "target": {"subject": int, "object": int|null}, "prompt": str,
     "options": [str], "correct_index": int, "provenance": {...}}

Every dataset line is the canonical JSON encoding of its record, that of
`json.dumps(record, sort_keys=True, separators=(",", ":"))`: keys sorted,
no whitespace, every non-ASCII character escaped as \\uXXXX, floats in
`repr` spelling (NaN, Infinity and -Infinity as `json` writes them). The
question line `_dump_line` splices from pre-encoded fragments is the one
definition of a question: `generate` writes it and `generate_image_mcqs`
parses it back. `Mcq.to_dict` is the reference encoding the tests compare
it with byte for byte.

Generation is deterministic for a fixed (manifest, config, version): its one
draw, `_seeded_shuffle` of each kind's targets and each question's options,
is taken from a blake2b digest of (seed, image_id, ...), so inserting or
removing one image never perturbs another image's questions, and the output
bytes are independent of the parallelism degree.

`generate_dataset` splits the work so: its workers parse each manifest line
and generate that image's questions; the parent only reads the manifest's
text lines, checks image ids for duplicates in manifest order and writes
the output.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterator

from ._version import __version__
from .discretize import (
    DEFAULT_THRESHOLDS,
    OPTION_LABELS_BY_KIND,
    Category,
    ThresholdConfig,
    _is_int,
    categorize,
    check_fields,
)
from .errors import AlignedTruth, DegenerateBone, DegeneratePose, DuplicateImageId, ParseError
from .geometry import NormalizedPose, RawPose, descriptor_value, normalize_pose
from .skeleton import KINDS, DescriptorTarget, catalog, target_from_fields
from .textgen import decode_statement, options_in_order

PROMPT_QUESTION = "Which of the following statements about the hand in the image is correct?"
OPTION_LETTERS = "abcd"

_SEP = "\x1f"


def _digest(*parts, size: int = 64) -> int:
    """The `size`-byte blake2b digest of `parts`, joined by `_SEP`, read as
    one big-endian integer: the source of every seeded value."""
    payload = _SEP.join(map(str, parts)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=size).digest(), "big")


def _seeded_shuffle(items, *parts) -> list:
    """`items` as a list in the order drawn from `parts`: every random
    choice generation makes. A Fisher-Yates walk takes its swap indices from
    the 64-byte `_digest` of the parts; for a kind's pool of at most 23
    targets the modulo bias is below 2**-437."""
    items = list(items)
    x = _digest(*parts)
    for i in range(len(items) - 1, 0, -1):
        x, j = divmod(x, i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def question_id(image_id: str, target: DescriptorTarget) -> str:
    return hashlib.blake2b(f"{image_id}{_SEP}{target.key()}".encode(), digest_size=8).hexdigest()


def _axis_flips(flips) -> tuple[int, int, int]:
    """`flips` as a tuple. Raises ValueError unless it is a list or tuple of
    three ints (not bools), each -1 or 1."""
    if isinstance(flips, (list, tuple)) and len(flips) == 3 and all(
            _is_int(s) and s in (-1, 1) for s in flips):
        return tuple(flips)
    raise ValueError("axis_flips must be three integers from {-1, 1}")


@dataclass(frozen=True)
class PoseRecord:
    """One manifest entry: an image id and its raw pose annotation. Raises
    ValueError for an empty image_id or one that UTF-8 cannot encode, a
    non-string image_path or bad flips."""

    image_id: str
    raw_pose: RawPose
    image_path: str | None = None
    axis_flips: tuple[int, int, int] | None = None

    def __post_init__(self):
        if not isinstance(self.image_id, str) or not self.image_id:
            raise ValueError("missing or empty image_id")
        try:
            self.image_id.encode()
        except UnicodeEncodeError:
            raise ValueError(f"image_id {self.image_id!r} is not valid UTF-8") from None
        if self.image_path is not None and not isinstance(self.image_path, str):
            raise ValueError("image_path must be a string")
        if self.axis_flips is not None:
            object.__setattr__(self, "axis_flips", _axis_flips(self.axis_flips))


_CONFIG_FIELDS = {"seed": _is_int, "per_type_samples": _is_int,
                  "thresholds": lambda v: isinstance(v, ThresholdConfig),
                  "axis_flips": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                  "resample_on_aligned": lambda v: isinstance(v, bool)}


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs controlling dataset generation.

    per_type_samples is capped per kind by that kind's catalog size, so 23
    enumerates every pair target and still yields only 15 angle questions.
    resample_on_aligned keeps the per-image budget by drawing a replacement
    target whenever one is skipped (aligned relative position or degenerate
    geometry); disabled, only the first per_type_samples draws are used.
    A field of the wrong type (a bool is no int) or out of range raises ValueError.
    """

    seed: int = 0
    per_type_samples: int = 5
    thresholds: ThresholdConfig = DEFAULT_THRESHOLDS
    axis_flips: tuple[int, int, int] = (1, 1, 1)
    resample_on_aligned: bool = True

    def __post_init__(self):
        # Equal configs must spell equally: `_run_json` is cached on the
        # config, and True == 1 == 1.0 would share one entry.
        check_fields(vars(self), "config", _CONFIG_FIELDS)
        max_pool = max(len(catalog(k)) for k in KINDS)
        if not 1 <= self.per_type_samples <= max_pool:
            raise ValueError(f"per_type_samples must be in [1, {max_pool}]")
        object.__setattr__(self, "axis_flips", _axis_flips(self.axis_flips))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GenerationConfig":
        """Raises ValueError for a non-object, an unknown key or a wrongly
        typed value; missing keys take their defaults."""
        if isinstance(d, dict) and isinstance(d.get("thresholds"), dict):
            d = {**d, "thresholds": ThresholdConfig.from_dict(d["thresholds"])}
        check_fields(d, "config", _CONFIG_FIELDS)
        return cls(**d)


@dataclass(frozen=True)
class Mcq:
    """One question, with the `category` its correct option states. Raises
    ValueError for a mistyped field or a `correct_index` outside `options`."""

    question_id: str
    image_id: str
    target: DescriptorTarget
    prompt: str
    options: tuple[str, ...]
    correct_index: int
    provenance: dict = field(default_factory=dict)
    category: Category = field(init=False, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return self.target.kind

    def __post_init__(self):
        if not isinstance(self.question_id, str) or not isinstance(self.image_id, str):
            raise ValueError("question_id and image_id must be strings")
        if not isinstance(self.prompt, str):
            raise ValueError("prompt must be a string")
        options = self.options
        if not isinstance(options, tuple) or not all(isinstance(o, str) for o in options):
            raise ValueError("options must be a list of strings")
        if not isinstance(self.provenance, dict):
            raise ValueError("provenance must be a JSON object")
        if not _is_int(self.correct_index) or not 0 <= self.correct_index < len(options):
            raise ValueError(f"correct_index {self.correct_index!r} out of range")
        category = decode_statement(self.target, options[self.correct_index])
        if category is None:
            raise ValueError(f"{self.question_id}: correct option is not a rendered statement")
        object.__setattr__(self, "category", category)

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "image_id": self.image_id,
            "kind": self.kind,
            "target": {"subject": self.target.subject, "object": self.target.object},
            "prompt": self.prompt,
            "options": list(self.options),
            "correct_index": self.correct_index,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mcq":
        """Raises KeyError, TypeError or ValueError for a record with a
        missing or mistyped field, or whose correct option is not a
        rendered statement of its target."""
        target = target_from_fields(
            d["kind"], d["target"]["subject"], d["target"].get("object")
        )
        options = d["options"]
        return cls(d["question_id"], d["image_id"], target, d["prompt"],
                   tuple(options) if isinstance(options, list) else options,
                   d["correct_index"], d.get("provenance", {}))


@dataclass(frozen=True)
class SkipNote:
    """Why a target (or a whole kind's budget) produced no question."""

    image_id: str
    kind: str
    target_key: str | None
    reason: str  # aligned | degenerate_bone | degenerate_pose | pool_exhausted
    detail: str = ""


@dataclass
class GenerationSummary:
    images: int = 0
    mcqs_by_kind: dict = field(default_factory=dict)
    skips: dict = field(default_factory=dict)

    @property
    def total_mcqs(self) -> int:
        return sum(self.mcqs_by_kind.values())

    def to_dict(self) -> dict:
        return {
            "images": self.images,
            "mcqs": self.total_mcqs,
            "mcqs_by_kind": dict(self.mcqs_by_kind),
            "skips": dict(self.skips),
        }


# What "surrogateescape" decodes a byte that is not UTF-8 to.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _jsonl_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) for each non-blank line of a JSONL
    file, numbered as text mode splits lines."""
    # Bytes that are not UTF-8 are decoded to lone surrogates, which
    # `_parse_jsonl_line` rejects naming the line.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield line_no, line


def _parse_jsonl_line(line_no: int, line: str) -> dict:
    """The JSON object on one `_jsonl_lines` line. Raises ParseError naming
    the line for bytes that are not UTF-8, invalid JSON (nesting too deep
    to parse included), or a value that is not a JSON object."""
    # `isascii` is O(1), so ASCII lines cost nothing extra.
    if not line.isascii() and (bad := _NOT_UTF8.search(line)):
        raise ParseError(line_no, f"not UTF-8: byte {ord(bad[0]) - 0xDC00:#04x}")
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise ParseError(line_no, f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError(line_no, "record must be a JSON object")
    return obj


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file, the
    one reader of every input file but the manifest `generate` hands to
    its workers line by line. Raises ParseError as `_parse_jsonl_line`."""
    for line_no, line in _jsonl_lines(path):
        yield line_no, _parse_jsonl_line(line_no, line)


def _parse_manifest_line(line_no: int, obj: dict) -> PoseRecord:
    joints = obj.get("joints")
    try:
        raw = RawPose(joints=joints, mesh_vertices=obj.get("mesh_vertices"))
        record = PoseRecord(obj.get("image_id"), raw, obj.get("image_path"), obj.get("axis_flips"))
    except (ValueError, TypeError, OverflowError) as e:
        raise ParseError(line_no, str(e)) from None
    # `float` reads true as 1.0 and "1" as 1.0: only JSON numbers may pass.
    if not {type(c) for joint in joints for c in joint} <= {int, float}:
        raise ParseError(line_no, "joint coordinates must be numbers")
    return record


def _check_new_image_id(seen: set[str], image_id: str, line_no: int) -> None:
    """Add `image_id` to the ids seen so far. Raises DuplicateImageId when
    an earlier manifest line has it."""
    if image_id in seen:
        raise DuplicateImageId(f"image_id {image_id!r} (line {line_no})")
    seen.add(image_id)


def load_manifest(path) -> Iterator[PoseRecord]:
    """Stream pose records from a manifest file, validating as it goes.

    Raises ParseError on a malformed line and DuplicateImageId when two
    records share an id. Blank lines are ignored.
    """
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path):
        record = _parse_manifest_line(line_no, obj)
        _check_new_image_id(seen, record.image_id, line_no)
        yield record


def normalized_pose_for(record: PoseRecord, cfg: GenerationConfig) -> NormalizedPose:
    """Apply axis flips (record-level overrides config-level) and normalize."""
    flips = record.axis_flips if record.axis_flips is not None else cfg.axis_flips
    return normalize_pose(record.raw_pose, flips)


# At most 636 entries: 15 angle targets x 4! orders + 23 distance x 3! +
# 69 relpos x 2!.
@functools.cache
def _render(target: DescriptorTarget, permutation: tuple[int, ...]) -> tuple[str, str, str]:
    """The canonical JSON fragments one (target, option order) puts into a
    question line: ',"kind":...,"options":[...],"prompt":...,"provenance":
    {"category":', ',"permutation":[...]' and '","target":{...}}' after the
    question_id."""
    options = options_in_order(target, permutation)
    lines = [PROMPT_QUESTION]
    for i, text in enumerate(options):
        lines.append(f"({OPTION_LETTERS[i]}) {text}")
    prompt = "\n".join(lines)
    target_json = _canonical_json({"object": target.object, "subject": target.subject})
    return (f',"kind":{_canonical_json(target.kind)},"options":{_canonical_json(options)}'
            f',"prompt":{_canonical_json(prompt)},"provenance":{{"category":',
            f',"permutation":{_canonical_json(permutation)}',
            f'","target":{target_json}}}')


# label -> its JSON string, for every option label of every kind
_LABEL_JSON = {label: _canonical_json(label)
               for labels in OPTION_LABELS_BY_KIND.values() for label in labels}


def assemble_mcq(
    image_id: str, target: DescriptorTarget, category: Category, seed
) -> tuple[tuple[int, ...], int]:
    """Draw one question's seeded option order: the permutation of the
    kind's labels it displays and the display index of the true option.
    Raises AlignedTruth for an aligned category, which is never asked."""
    if category.is_aligned:
        raise AlignedTruth(f"{target.key()} truth is aligned")
    labels = OPTION_LABELS_BY_KIND[target.kind]
    permutation = tuple(_seeded_shuffle(range(len(labels)),
                                        seed, image_id, "options", target.key()))
    return permutation, permutation.index(labels.index(category.label))


def measure(
    image_id: str, pose: NormalizedPose, target: DescriptorTarget, thresholds: ThresholdConfig
) -> tuple[float, Category] | SkipNote:
    """A target's value and category on a pose, or the note that skips it:
    a degenerate bone or an aligned truth."""
    try:
        value = descriptor_value(pose, target)
    except DegenerateBone as e:
        return SkipNote(image_id, target.kind, target.key(), "degenerate_bone", str(e))
    category = categorize(target.kind, value, thresholds)
    if category.is_aligned:
        return SkipNote(image_id, target.kind, target.key(), "aligned")
    return value, category


def _float_json(value: float) -> str:
    """A float as `json.dumps` spells it."""
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _dump_line(
    target: DescriptorTarget,
    permutation: tuple[int, ...],
    correct_index: int,
    category: Category,
    value: float,
    qid: str,
    image_json: str,
    norm_json: str,
    run_json: str,
) -> str:
    """One question line: the one definition of a question, spliced from
    `_render`'s cached fragments to equal the canonical encoding of its
    `Mcq.to_dict()`, the reference the tests compare it with (see the
    module docstring)."""
    head, permutation_json, tail = _render(target, permutation)
    return (f'{{"correct_index":{correct_index},"image_id":{image_json}{head}'
            f'{_LABEL_JSON[category.label]},"continuous_value":{_float_json(value)}'
            f'{norm_json}{permutation_json}{run_json}{qid}{tail}\n')


# One entry per config a process generates with: a lookup only hashes the
# config, where `config_id` runs `asdict`, `json.dumps` and blake2b.
@functools.cache
def _run_json(cfg: GenerationConfig) -> str:
    """The fragment every question line of a run shares:
    ',"seed":...,"threshold_config_id":...},"question_id":"'."""
    return (f',"seed":{_canonical_json(cfg.seed)},"threshold_config_id":'
            f'{_canonical_json(cfg.thresholds.config_id())}}},"question_id":"')


def _image_lines(record: PoseRecord, cfg: GenerationConfig
                 ) -> tuple[list[str], list[str], list[SkipNote]]:
    """One image's question lines, the kind of each, and its skip notes:
    the seeded selection `generate_image_mcqs` describes, each pick measured
    and written as it is drawn."""
    image_id = record.image_id
    try:
        pose = normalized_pose_for(record, cfg)
    except DegeneratePose as e:
        return [], [], [SkipNote(image_id, kind, None, "degenerate_pose", str(e))
                        for kind in KINDS]
    image_json = _canonical_json(image_id)
    norm_json = f',"norm_mode":{_canonical_json(pose.mode)}'
    run_json = _run_json(cfg)
    lines: list[str] = []
    kinds: list[str] = []
    skips: list[SkipNote] = []
    for kind in KINDS:
        pool = _seeded_shuffle(catalog(kind), cfg.seed, image_id, "sample", kind)
        budget = min(cfg.per_type_samples, len(pool))
        if not cfg.resample_on_aligned:
            pool = pool[:budget]
        emitted = 0
        for target in pool:
            if emitted == budget:
                break
            measured = measure(image_id, pose, target, cfg.thresholds)
            if isinstance(measured, SkipNote):
                skips.append(measured)
                continue
            value, category = measured
            permutation, correct_index = assemble_mcq(image_id, target, category, cfg.seed)
            lines.append(_dump_line(target, permutation, correct_index, category, value,
                                    question_id(image_id, target), image_json, norm_json,
                                    run_json))
            emitted += 1
        kinds += [kind] * emitted
        if cfg.resample_on_aligned and emitted < budget:
            skips.append(SkipNote(image_id, kind, None, "pool_exhausted",
                                  f"emitted {emitted} of {budget}"))
    return lines, kinds, skips


def generate_image_mcqs(
    record: PoseRecord, cfg: GenerationConfig
) -> tuple[list[Mcq], list[SkipNote]]:
    """All MCQs for one image: per kind, a seeded uniform sample of distinct
    catalog targets, each with its seeded option order. These are the lines
    `generate_dataset` writes for the record, parsed back, so the two cannot
    disagree; per_type_samples=23 asks every catalog target.

    Aligned relative-position truths and degenerate targets never become
    questions; with resample_on_aligned they are replaced by further draws
    until the budget is met or the kind's catalog is exhausted (which adds a
    pool_exhausted note). A degenerate pose skips the whole image, one note
    per kind, without raising.
    """
    lines, _, skips = _image_lines(record, cfg)
    return [Mcq.from_dict(json.loads(line)) for line in lines], skips


def _generate_lines(cfg: GenerationConfig, numbered_line: tuple[int, str]
                    ) -> tuple[int, str, str, list[str], list[str]] | ParseError:
    """Worker body: parse one `_jsonl_lines` manifest line and return its
    line number, image id and output lines, joined, plus the kinds emitted
    and the skip reasons.

    A malformed line's ParseError is returned, not raised: a raise fails
    the worker's whole chunk, and the lines before it in that chunk would
    never reach the parent's in-order duplicate-id check."""
    line_no, line = numbered_line
    try:
        record = _parse_manifest_line(line_no, _parse_jsonl_line(line_no, line))
    except ParseError as e:
        return e
    lines, kinds, skips = _image_lines(record, cfg)
    return line_no, record.image_id, "".join(lines), kinds, [s.reason for s in skips]


def dataset_header(cfg: GenerationConfig) -> dict:
    return {
        "__header__": {
            "tool": "handmcq",
            "version": __version__,
            "config": cfg.to_dict(),
            "threshold_config_id": cfg.thresholds.config_id(),
        }
    }


def _check_output(out_path, *inputs) -> None:
    """The rule every output path obeys, checked before any input is read.
    Raises OSError when an existing `out_path` names the same file as one of
    `inputs` (None and missing inputs are skipped) or is not a regular file."""
    if os.path.exists(out_path):
        for path in filter(None, inputs):
            if os.path.exists(path) and os.path.samefile(out_path, path):
                raise OSError(f"{out_path}: output would replace the input {path}")
        if not os.path.isfile(out_path):
            raise OSError(f"{out_path}: output is not a regular file")


@contextlib.contextmanager
def _replacing(out_path, *inputs) -> Iterator[str]:
    """Yield a temporary path beside `out_path` that replaces it when the
    block succeeds and is removed when it fails. Raises OSError on entry
    as `_check_output(out_path, *inputs)` does."""
    _check_output(out_path, *inputs)
    out_path = os.path.realpath(out_path)  # a symlink is written through, as by open()
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    try:
        yield tmp_path
        os.replace(tmp_path, out_path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)
        raise


def generate_dataset(
    manifest_path, cfg: GenerationConfig, out_path, jobs: int = 1
) -> GenerationSummary:
    """Write a full dataset to out_path; returns reconciling counts.

    Output bytes depend only on (manifest, cfg): records appear in manifest
    order, MCQs within an image ordered by kind then sample index,
    regardless of the parallelism degree. The dataset is written through
    `_replacing`, so a failed run leaves out_path as it was, and an out_path
    naming the manifest or not a regular file raises OSError before it is read.

    Each worker parses the manifest lines it is handed and returns a bad
    line's ParseError; results come back in manifest order, where the
    parent raises that error or checks for a duplicate image id, so the
    first bad line wins at any `jobs`.
    """
    kind_counts: Counter = Counter()
    skip_counts: Counter = Counter()
    work = functools.partial(_generate_lines, cfg)
    lines = _jsonl_lines(manifest_path)
    seen: set[str] = set()
    with _replacing(out_path, manifest_path) as tmp_path, \
            open(tmp_path, "w", encoding="utf-8", newline="\n") as out, \
            (contextlib.nullcontext() if jobs == 1 else multiprocessing.Pool(jobs)) as pool:
        out.write(_canonical_json(dataset_header(cfg)) + "\n")
        results = map(work, lines) if pool is None else pool.imap(work, lines, chunksize=16)
        for result in results:
            if isinstance(result, ParseError):
                raise result
            line_no, image_id, text, kinds, skip_reasons = result
            _check_new_image_id(seen, image_id, line_no)
            out.write(text)
            kind_counts.update(kinds)
            skip_counts.update(skip_reasons)
    return GenerationSummary(len(seen), {k: kind_counts[k] for k in KINDS}, dict(skip_counts))


def _read_header(records: Iterator[tuple[int, dict]]) -> GenerationConfig:
    """Take the first of a dataset's `read_jsonl` records, which must be its
    header, and return the generation config the header records. The header
    must name this tool and exactly this reader's version."""
    first = next(records, None)
    if first is None:
        raise ParseError(1, "empty dataset: no __header__ record")
    line_no, obj = first
    if "__header__" not in obj:
        raise ParseError(line_no, "a dataset must start with its __header__ record")
    header = obj["__header__"]
    if not isinstance(header, dict):
        raise ParseError(line_no, "__header__ must be a JSON object")
    if header.get("tool") != "handmcq":
        raise ParseError(line_no, f"dataset header tool {header.get('tool')!r} is not 'handmcq'")
    if header.get("version") != __version__:
        raise ParseError(line_no, f"dataset header version {header.get('version')!r} "
                                  f"is not this reader's {__version__!r}")
    if "config" not in header:
        raise ParseError(line_no, "dataset header has no config")
    try:
        return GenerationConfig.from_dict(header["config"])
    except ValueError as e:
        raise ParseError(line_no, f"dataset header: {e}") from None


def read_config(path) -> GenerationConfig:
    """The generation config recorded in the dataset's header. Raises
    ParseError when the first record is not a header, names another tool or
    version, or its config is missing or malformed."""
    return _read_header(read_jsonl(path))


def iter_dataset(path) -> Iterator[Mcq]:
    """Stream MCQs from a dataset file: every record after the header.
    Raises ParseError when the first record is not a valid header or a
    later one is a header."""
    records = read_jsonl(path)
    _read_header(records)
    for line_no, obj in records:
        if "__header__" in obj:
            raise ParseError(line_no, "__header__ record after the first record")
        try:
            yield Mcq.from_dict(obj)
        except (KeyError, ValueError, TypeError) as e:
            raise ParseError(line_no, f"bad MCQ record: {e}") from None


def label_stats(dataset_path) -> dict[str, dict[str, int]]:
    """Counts of the labels the correct options state, per kind,
    zero-filled over every non-aligned label, in value order."""
    stats: dict[str, Counter] = {k: Counter() for k in KINDS}
    for mcq in iter_dataset(dataset_path):
        stats[mcq.kind][mcq.category.label] += 1
    return {kind: {label: stats[kind][label] for label in OPTION_LABELS_BY_KIND[kind]}
            for kind in KINDS}
