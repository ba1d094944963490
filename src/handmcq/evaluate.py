"""Score model prediction files against a gold dataset.

Reports per-kind accuracy, ordinal mean absolute error for the angle and
distance kinds, gold-by-predicted confusion matrices, a random-guess
baseline, and (for confidence-tagged predictions) reliability bins with
expected calibration error.

Policy for answers that cannot be parsed to an option: they count as
incorrect for accuracy, are excluded from MAE and the confusion matrix,
and are tallied separately.
"""
from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .dataset import OPTION_LETTERS, _digest, iter_dataset, read_jsonl
from .discretize import LABELS_BY_KIND, OPTION_LABELS_BY_KIND, Category, _is_int, _is_number
from .errors import (
    DuplicatePrediction,
    DuplicateQuestionId,
    MissingConfidence,
    NotOrdinal,
    ParseError,
    UnknownQuestionId,
    ZeroConfidenceMass,
)
from .skeleton import KINDS, DescriptorTarget
from .textgen import decode_statement

ORDINAL_KINDS = ("angle", "distance")


def _left_sum(values: Iterable[float]) -> float:
    """Sum left to right from 0.0. `sum()` of floats is compensated from
    Python 3.12 on, which would make reports differ between versions."""
    total = 0.0
    for v in values:
        total += v
    return total


def ordinal_index(category: Category) -> int:
    """Class index of an angle or distance label, ordered by magnitude.

    Angle: 0..3 from bent completely inward to straight. Distance: 0..2
    from close to spread wide. Relative-position kinds have no ordinal
    metric and raise NotOrdinal.
    """
    if category.kind not in ORDINAL_KINDS:
        raise NotOrdinal(f"{category.kind} has no ordinal index")
    return LABELS_BY_KIND[category.kind].index(category.label)


@dataclass(frozen=True)
class PredictionRecord:
    """One model answer, keyed to a gold question.

    Either a raw answer string (optionally with a scalar confidence for the
    stated answer) or per-option confidences, whose argmax defines the
    prediction after renormalizing to sum to 1. Raises ValueError unless the
    id and answer are strings, a confidence is a number (a bool is none) in
    [0, 1], and option_confidences a list or tuple of finite, non-negative
    numbers with a positive sum; numbers are kept as floats.
    """

    question_id: str
    raw_answer: str = ""
    confidence: float | None = None
    option_confidences: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.question_id, str):
            raise ValueError("missing or non-string question_id")
        if not isinstance(self.raw_answer, str):
            raise ValueError("raw_answer must be a string")
        if self.confidence is not None:
            if not _is_number(self.confidence):
                raise ValueError(f"confidence value {self.confidence!r} is not a number")
            object.__setattr__(self, "confidence", float(self.confidence))
            if not 0.0 <= self.confidence <= 1.0:
                raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.option_confidences is not None:
            if not isinstance(self.option_confidences, (list, tuple)):
                raise ValueError("option_confidences must be a list")
            for c in self.option_confidences:
                if not _is_number(c):
                    raise ValueError(f"option_confidences value {c!r} is not a number")
            per_option = tuple(map(float, self.option_confidences))
            if not all(math.isfinite(c) and c >= 0 for c in per_option) or sum(per_option) <= 0:
                raise ValueError("option_confidences must be finite and "
                                 "non-negative with positive sum")
            object.__setattr__(self, "option_confidences", per_option)


def load_predictions(path) -> Iterator[PredictionRecord]:
    """Stream prediction records from a JSONL file. Raises ParseError
    naming the line of a record that is not a JSON object or that
    `PredictionRecord` refuses."""
    for line_no, obj in read_jsonl(path):
        try:
            record = PredictionRecord(obj.get("question_id"), obj.get("raw_answer", ""),
                                      obj.get("confidence"), obj.get("option_confidences"))
        except ValueError as e:
            raise ParseError(line_no, str(e)) from None
        yield record


# option letter, either case -> option index
_LETTER_INDEX = {c: i for i, letter in enumerate(OPTION_LETTERS) for c in (letter, letter.upper())}
_LETTER_CLASS = f"[{''.join(_LETTER_INDEX)}]"
# Leading option letter: "(b) ...", "b) ...", "b. ...", "B: ...", or just "b".
_LEADING_LETTER = re.compile(rf"^\(?({_LETTER_CLASS})(?:[\).:,]\s*|\)\s*|\s*$)")
# Parenthesized letter anywhere: "the answer is (c)".
_PAREN_LETTER = re.compile(rf"\(({_LETTER_CLASS})\)")


def parse_answer(raw: str, options: Iterable[str]) -> int | None:
    """Resolve a raw answer string to an option index, or None if unparseable.

    Tries, in order: a leading option letter (with or without parentheses
    or trailing punctuation), a single unambiguous parenthesized letter
    anywhere in the text, then an exact whitespace-normalized match against
    the full option text.
    """
    options = list(options)
    normalized = " ".join(raw.split())
    if not normalized:
        return None
    m = _LEADING_LETTER.match(normalized)
    if m:
        index = _LETTER_INDEX[m.group(1)]
        if index < len(options):
            return index
    indexes = {_LETTER_INDEX[c] for c in _PAREN_LETTER.findall(normalized)}
    if len(indexes) == 1:
        index = indexes.pop()
        if index < len(options):
            return index
    for i, option in enumerate(options):
        if normalized == " ".join(option.split()):
            return i
    return None


def resolve_prediction(pred: PredictionRecord, options) -> tuple[int | None, float | None]:
    """(option index or None, confidence or None) for one prediction."""
    if pred.option_confidences is not None:
        confs = pred.option_confidences[: len(options)]
        total = _left_sum(confs)
        if total <= 0:
            raise ZeroConfidenceMass(
                f"{pred.question_id}: option_confidences put no mass on its "
                f"{len(options)} options")
        index = max(range(len(confs)), key=lambda i: confs[i])
        return index, confs[index] / total
    return parse_answer(pred.raw_answer, options), pred.confidence


@dataclass
class KindMetrics:
    count: int = 0
    correct: int = 0
    unparseable: int = 0

    @property
    def accuracy(self) -> float:
        """Percent correct; unparseable answers count as incorrect."""
        if self.count == 0:
            return 0.0
        return 100.0 * self.correct / self.count


@dataclass
class CalibrationBin:
    lo: float
    hi: float
    count: int = 0
    confidence_sum: float = 0.0
    correct: int = 0

    @property
    def mean_confidence(self) -> float:
        return self.confidence_sum / self.count if self.count else 0.0

    @property
    def accuracy(self) -> float:
        return self.correct / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "count": self.count,
            "mean_confidence": self.mean_confidence,
            "accuracy": self.accuracy,
        }


@dataclass
class CalibrationTable:
    bins: list[CalibrationBin]
    total: int = 0

    @property
    def ece(self) -> float:
        """Expected calibration error: count-weighted mean |accuracy - confidence|."""
        if self.total == 0:
            return 0.0
        return _left_sum(
            b.count / self.total * abs(b.accuracy - b.mean_confidence)
            for b in self.bins
        )

    def to_dict(self) -> dict:
        return {"bins": [b.to_dict() for b in self.bins],
                "total": self.total, "ece": self.ece}


@dataclass
class MetricsReport:
    per_kind: dict[str, KindMetrics] = field(default_factory=dict)
    angle_mae: float | None = None
    distance_mae: float | None = None
    confusion: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    unparseable: int = 0
    calibration: CalibrationTable | None = None

    def to_dict(self) -> dict:
        return {
            "per_kind": {
                kind: {
                    "count": m.count,
                    "correct": m.correct,
                    "unparseable": m.unparseable,
                    "accuracy": m.accuracy,
                }
                for kind, m in self.per_kind.items()
            },
            "angle_mae": self.angle_mae,
            "distance_mae": self.distance_mae,
            "confusion": self.confusion,
            "unparseable": self.unparseable,
            "calibration": self.calibration.to_dict() if self.calibration else None,
        }

    def format_text(self) -> str:
        lines = [f"{'kind':<10} {'questions':>9} {'accuracy':>9}"]
        for kind in KINDS:
            m = self.per_kind.get(kind)
            if m is None:
                continue
            lines.append(f"{kind:<10} {m.count:>9} {m.accuracy:>8.2f}%")
        for kind, mae in (("angle", self.angle_mae), ("distance", self.distance_mae)):
            lines.append(f"{kind} MAE: {'n/a' if mae is None else f'{mae:.4f}'}")
        lines.append(f"unparseable answers: {self.unparseable:g}")
        if self.calibration is not None:
            lines.append(f"expected calibration error: {self.calibration.ece:.4f}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class _Gold:
    """The scoring facts of a gold question. Every question with the same
    (target, options, correct_index) shares one record, so a record hashes
    and compares by identity."""

    target: DescriptorTarget
    options: tuple[str, ...]
    correct_index: int
    category: Category


def _gold_index(gold) -> dict[str, _Gold]:
    """Index a dataset path or an iterable of Mcq by question_id.

    Each id maps to a shared `_Gold` record; the prompt, provenance and
    the question's own option strings are not kept, so the index costs one
    dict entry per question plus one record per distinct (target, options,
    correct_index). Raises DuplicateQuestionId when two questions share an id.
    """
    if isinstance(gold, (str, bytes)) or hasattr(gold, "__fspath__"):
        gold = iter_dataset(gold)
    records: dict[tuple, _Gold] = {}
    index: dict[str, _Gold] = {}
    for mcq in gold:
        if mcq.question_id in index:
            raise DuplicateQuestionId(f"question_id {mcq.question_id!r}")
        key = (mcq.target, mcq.options, mcq.correct_index)
        record = records.get(key)
        if record is None:
            record = records[key] = _Gold(*key, mcq.category)
        index[mcq.question_id] = record
    return index


def _score_resolved(counts: dict[tuple[_Gold, int | None], int]) -> MetricsReport:
    """Derive every metric but calibration from a count table: the number
    of questions per (gold record, option index or None for an unparseable
    answer) pair. The gold label comes from the record, decoded once when
    its question was read; each distinct pair is decoded once here. Kinds
    appear in `per_kind` and `confusion` in the order of their first pair.
    """
    report = MetricsReport()
    abs_err = {kind: 0 for kind in ORDINAL_KINDS}
    err_n = {kind: 0 for kind in ORDINAL_KINDS}
    for (record, index), n in counts.items():
        kind = record.target.kind
        metric = report.per_kind.setdefault(kind, KindMetrics())
        metric.count += n
        if index is None:
            metric.unparseable += n
            report.unparseable += n
            continue
        if index == record.correct_index:
            metric.correct += n
        pred = decode_statement(record.target, record.options[index])
        if pred is not None:
            matrix = report.confusion.get(kind)
            if matrix is None:
                labels = OPTION_LABELS_BY_KIND[kind]
                matrix = report.confusion[kind] = {g: {p: 0 for p in labels} for g in labels}
            matrix[record.category.label][pred.label] += n
            if kind in ORDINAL_KINDS:
                abs_err[kind] += n * abs(ordinal_index(pred) - ordinal_index(record.category))
                err_n[kind] += n
    if err_n["angle"]:
        report.angle_mae = abs_err["angle"] / err_n["angle"]
    if err_n["distance"]:
        report.distance_mae = abs_err["distance"] / err_n["distance"]
    return report


def score(
    gold, predictions: Iterable[PredictionRecord], calibration_bins: int | None = None
) -> MetricsReport:
    """Score predictions against gold questions.

    `gold` is a dataset path or an iterable of Mcq. Raises
    UnknownQuestionId for a prediction without a gold question and
    DuplicatePrediction for a repeated question_id, before resolving the
    repeat's answer. When calibration_bins is set, it must be an int (a
    bool is none) of at least 1 (ValueError otherwise), every parseable
    prediction must carry a confidence (MissingConfidence otherwise), and
    the report's `calibration` holds that many equal-width reliability
    bins over [0, 1] with their expected calibration error.
    """
    if calibration_bins is not None and (not _is_int(calibration_bins) or calibration_bins < 1):
        raise ValueError(f"calibration_bins must be an int >= 1, not {calibration_bins!r}")
    index = _gold_index(gold)
    counts = Counter()
    calib = None if calibration_bins is None else CalibrationTable(
        [CalibrationBin(lo=i / calibration_bins, hi=(i + 1) / calibration_bins)
         for i in range(calibration_bins)])
    for pred in predictions:
        qid = pred.question_id
        record = index.get(qid)
        if record is None:
            raise (DuplicatePrediction if qid in index else UnknownQuestionId)(qid)
        # An answered id stays in the index with its entry set to None.
        index[qid] = None
        opt_index, confidence = resolve_prediction(pred, record.options)
        counts[record, opt_index] += 1
        if calib is not None and opt_index is not None:
            if confidence is None:
                raise MissingConfidence(qid)
            b = calib.bins[min(int(confidence * calibration_bins), calibration_bins - 1)]
            b.count += 1
            b.confidence_sum += confidence
            b.correct += int(opt_index == record.correct_index)
            calib.total += 1
    report = _score_resolved(counts)
    report.calibration = calib
    return report


def random_baseline(gold, seed: int = 0, trials: int = 1) -> MetricsReport:
    """Metrics of a uniform random guesser, averaged over trials.

    Anchors: 25% accuracy on 4-option angle questions, 33.3% on 3-option
    distance, 50% on binary relative position. The draws of all trials
    fill one count table. With trials > 1, every count but `count` is
    that table's count divided by `trials`, correctly rounded, so the
    confusion cells and unparseable counts are means, not integers; MAE
    is taken over all trials' answers. Raises ValueError unless `trials`
    is an int (a bool is none) of at least 1.
    """
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be an int >= 1, not {trials!r}")
    records = _gold_index(gold).values()
    counts = Counter()
    for trial in range(trials):
        rng = random.Random(_digest("baseline", seed, trial, size=8))
        counts.update((record, rng.randrange(len(record.options))) for record in records)
    report = _score_resolved(counts)
    if trials > 1:
        # Every trial answers every question, so the pooled MAE is
        # already the mean of the per-trial MAEs.
        for m in report.per_kind.values():
            m.count //= trials
            m.correct /= trials
            m.unparseable /= trials
        report.unparseable /= trials
        for matrix in report.confusion.values():
            for row in matrix.values():
                for p in row:
                    row[p] /= trials
    return report
