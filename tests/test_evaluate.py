import importlib.util
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import synthetic_manifest
from handmcq import dataset, evaluate
from handmcq.dataset import Mcq
from handmcq.discretize import Category, OPTION_LABELS_BY_KIND
from handmcq.errors import (
    DuplicatePrediction,
    DuplicateQuestionId,
    MissingConfidence,
    NotOrdinal,
    ParseError,
    UnknownQuestionId,
    ZeroConfidenceMass,
)
from handmcq.evaluate import (
    PredictionRecord,
    load_predictions,
    ordinal_index,
    parse_answer,
    random_baseline,
    resolve_prediction,
    score,
)
from handmcq.skeleton import catalog
from handmcq.textgen import decode_statement, render_statement

KIND_TARGETS = {kind: catalog(kind)[0] for kind in OPTION_LABELS_BY_KIND}


def make_gold(kind: str, label: str, qid: str, image_id: str = "img") -> Mcq:
    """A gold question with options in canonical label order (no shuffle)."""
    target = KIND_TARGETS[kind]
    labels = OPTION_LABELS_BY_KIND[kind]
    options = tuple(render_statement(target, Category(kind, lb)) for lb in labels)
    return Mcq(
        question_id=qid,
        image_id=image_id,
        target=target,
        prompt="",
        options=options,
        correct_index=labels.index(label),
    )


def letter_pred(qid: str, index: int, confidence=None) -> PredictionRecord:
    return PredictionRecord(qid, raw_answer=f"({'abcd'[index]})", confidence=confidence)


# ----------------------------------------------------------------- pieces

def test_ordinal_index_values():
    assert ordinal_index(Category("angle", "bent completely inward")) == 0
    assert ordinal_index(Category("angle", "bent inward")) == 1
    assert ordinal_index(Category("angle", "bent slightly inward")) == 2
    assert ordinal_index(Category("angle", "straight")) == 3
    assert ordinal_index(Category("distance", "close to")) == 0
    assert ordinal_index(Category("distance", "spread from")) == 1
    assert ordinal_index(Category("distance", "spread wide from")) == 2
    with pytest.raises(NotOrdinal):
        ordinal_index(Category("relpos_y", "above"))


def test_parse_answer_letter_forms():
    options = ["alpha text", "beta text", "gamma text", "delta text"]
    assert parse_answer("(b)", options) == 1
    assert parse_answer("b", options) == 1
    assert parse_answer("B.", options) == 1
    assert parse_answer("(c) gamma text", options) == 2
    assert parse_answer("c) something", options) == 2
    assert parse_answer("The answer is (d).", options) == 3
    assert parse_answer("  a  ", options) == 0


def test_parse_answer_full_text_and_unparseable():
    options = ["The tip joint of the thumb is above the tip joint of the index finger."]
    assert parse_answer(options[0], options) == 0
    assert parse_answer("  " + options[0].replace(" ", "  ") + " ", options) == 0
    assert parse_answer("I am not sure", options) is None
    assert parse_answer("", options) is None
    assert parse_answer("A straight answer without a letter", options) is None
    assert parse_answer("(a) and also (b)", ["x", "y"]) == 0  # leading letter wins


def test_parse_answer_respects_option_count():
    assert parse_answer("(d)", ["only", "two"]) is None
    assert parse_answer("The answer is (c) or (d)", ["x", "y", "z", "w"]) is None


def test_resolve_prediction_per_option_confidences():
    options = ("one", "two", "three")
    pred = PredictionRecord("q", option_confidences=(1.0, 3.0, 1.0))
    index, confidence = resolve_prediction(pred, options)
    assert index == 1
    assert confidence == pytest.approx(0.6)
    scalar = PredictionRecord("q", raw_answer="(a)", confidence=0.75)
    assert resolve_prediction(scalar, options) == (0, 0.75)
    # A prediction file's list could hold no such value.
    for confs in [(-1.0, 2.0, 0, 0), np.array([1.0, 3.0, 1.0])]:
        with pytest.raises(ValueError, match="option_confidences"):
            PredictionRecord("q", option_confidences=confs)


def test_float_sums_run_left_to_right_from_zero():
    # `sum()` is compensated from Python 3.12 on and would give 0.5 and
    # 0.6; reports must not depend on the Python version.
    pred = PredictionRecord("q", option_confidences=(0.1, 0.2, 0.3))
    assert resolve_prediction(pred, ("one", "two", "three")) == (2, 0.4999999999999999)
    # Terms 0.1, 0.2, 0.3 and 0: each of the first three bins is all
    # correct at confidence 0, the last all wrong at confidence 0.
    table = evaluate.CalibrationTable(
        [evaluate.CalibrationBin(lo=i / 4, hi=(i + 1) / 4, count=n, correct=n * (i < 3))
         for i, n in enumerate((1, 2, 3, 4))], total=10)
    assert table.ece == 0.6000000000000001


def test_resolve_prediction_rejects_zero_mass_on_visible_options():
    pred = PredictionRecord("q", option_confidences=(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ZeroConfidenceMass, match="q"):
        resolve_prediction(pred, ("one", "two"))


# ---------------------------------------------------------------- scoring

def test_score_mae_hand_example():
    # gold ordinals [0, 3], predictions [3, 3] -> accuracy 50%, MAE 1.5
    gold = [
        make_gold("angle", "bent completely inward", "q0"),
        make_gold("angle", "straight", "q1"),
    ]
    preds = [letter_pred("q0", 3), letter_pred("q1", 3)]
    report = score(gold, preds)
    assert report.per_kind["angle"].accuracy == 50.0
    assert report.angle_mae == 1.5


def test_score_perfect_predictions():
    gold = [
        make_gold("angle", "bent inward", "q0"),
        make_gold("distance", "spread from", "q1"),
        make_gold("relpos_z", "behind", "q2"),
    ]
    preds = [letter_pred(m.question_id, m.correct_index) for m in gold]
    report = score(gold, preds)
    for kind in ("angle", "distance", "relpos_z"):
        assert report.per_kind[kind].accuracy == 100.0
    assert report.angle_mae == 0.0
    assert report.distance_mae == 0.0
    assert report.unparseable == 0


def test_score_always_close_answerer():
    # 10% close / 40% spread / 50% spread wide; always answering "close to"
    # scores 10% with MAE 0.4*1 + 0.5*2 = 1.4
    gold = (
        [make_gold("distance", "close to", "q0")]
        + [make_gold("distance", "spread from", f"q{i}") for i in range(1, 5)]
        + [make_gold("distance", "spread wide from", f"q{i}") for i in range(5, 10)]
    )
    close_index = 0  # canonical order puts "close to" first
    preds = [letter_pred(m.question_id, close_index) for m in gold]
    report = score(gold, preds)
    assert report.per_kind["distance"].accuracy == pytest.approx(10.0)
    assert report.distance_mae == pytest.approx(1.4)


def test_score_unparseable_policy():
    gold = [
        make_gold("angle", "straight", "q0"),
        make_gold("angle", "straight", "q1"),
    ]
    preds = [
        letter_pred("q0", gold[0].correct_index),
        PredictionRecord("q1", raw_answer="no idea at all"),
    ]
    report = score(gold, preds)
    assert report.per_kind["angle"].count == 2
    assert report.per_kind["angle"].accuracy == 50.0  # unparseable counts wrong
    assert report.angle_mae == 0.0  # but does not pollute the ordinal metric
    assert report.unparseable == 1
    assert report.per_kind["angle"].unparseable == 1


def test_score_confusion_structure():
    gold = [
        make_gold("distance", "close to", "q0"),
        make_gold("distance", "spread from", "q1"),
        make_gold("distance", "spread from", "q2"),
    ]
    preds = [letter_pred("q0", 1), letter_pred("q1", 1), letter_pred("q2", 2)]
    report = score(gold, preds)
    matrix = report.confusion["distance"]
    assert matrix["close to"]["spread from"] == 1
    assert matrix["spread from"]["spread from"] == 1
    assert matrix["spread from"]["spread wide from"] == 1
    assert sum(matrix["spread from"].values()) == 2
    trace = sum(matrix[lb][lb] for lb in OPTION_LABELS_BY_KIND["distance"])
    assert trace / 3 * 100 == pytest.approx(report.per_kind["distance"].accuracy)


def test_score_mae_attains_bound():
    gold = [make_gold("angle", "bent completely inward", f"q{i}") for i in range(5)]
    preds = [letter_pred(m.question_id, 3) for m in gold]
    report = score(gold, preds)
    assert report.angle_mae == 3.0


def test_score_errors():
    gold = [make_gold("angle", "straight", "q0")]
    with pytest.raises(UnknownQuestionId):
        score(gold, [letter_pred("missing", 0)])
    with pytest.raises(DuplicatePrediction):
        score(gold, [letter_pred("q0", 0), letter_pred("q0", 1)])


def test_score_rejects_nonpositive_calibration_bins():
    gold = [make_gold("angle", "straight", "q0")]
    for bins in (0, -2, 2.5, "3", True):
        with pytest.raises(ValueError, match="calibration_bins"):
            score(gold, [letter_pred("q0", 3, confidence=0.9)], calibration_bins=bins)


def test_score_order_invariant():
    rng = random.Random(3)
    labels = OPTION_LABELS_BY_KIND["angle"]
    gold = [make_gold("angle", rng.choice(labels), f"q{i}") for i in range(40)]
    preds = [letter_pred(m.question_id, rng.randrange(4)) for m in gold]
    forward = score(gold, preds)
    shuffled = list(preds)
    rng.shuffle(shuffled)
    backward = score(gold, shuffled)
    assert forward.to_dict() == backward.to_dict()


def brute_force_reference(gold, prediction_indices):
    """Independent scorer: plain loops, no shared code with the package."""
    per_kind = {}
    confusion = {}
    mae_sums = {"angle": 0, "distance": 0}
    mae_counts = {"angle": 0, "distance": 0}
    unparseable = 0
    for mcq, pred_index in zip(gold, prediction_indices):
        kind = mcq.kind
        stats = per_kind.setdefault(kind, {"count": 0, "correct": 0, "unparseable": 0})
        stats["count"] += 1
        if pred_index is None:
            stats["unparseable"] += 1
            unparseable += 1
            continue
        labels = OPTION_LABELS_BY_KIND[kind]
        gold_label = labels[mcq.correct_index]  # canonical order by construction
        pred_label = labels[pred_index]
        if pred_index == mcq.correct_index:
            stats["correct"] += 1
        confusion.setdefault(kind, {}).setdefault(gold_label, {}).setdefault(pred_label, 0)
        confusion[kind][gold_label][pred_label] += 1
        if kind in ("angle", "distance"):
            mae_sums[kind] += abs(labels.index(pred_label) - labels.index(gold_label))
            mae_counts[kind] += 1
    accuracy = {
        kind: 100.0 * stats["correct"] / stats["count"] for kind, stats in per_kind.items()
    }
    maes = {
        kind: (mae_sums[kind] / mae_counts[kind] if mae_counts[kind] else None)
        for kind in ("angle", "distance")
    }
    return per_kind, accuracy, maes, confusion, unparseable


def test_score_matches_brute_force_reference():
    rng = random.Random(7)
    kinds = list(OPTION_LABELS_BY_KIND)
    for trial in range(10):
        gold = []
        pred_indices = []
        for i in range(rng.randrange(5, 100)):
            kind = rng.choice(kinds)
            labels = OPTION_LABELS_BY_KIND[kind]
            gold.append(make_gold(kind, rng.choice(labels), f"t{trial}q{i}"))
            pred_indices.append(
                None if rng.random() < 0.1 else rng.randrange(len(labels))
            )
        preds = [
            PredictionRecord(m.question_id, raw_answer="???")
            if idx is None
            else letter_pred(m.question_id, idx)
            for m, idx in zip(gold, pred_indices)
        ]
        report = score(gold, preds)
        ref_counts, ref_acc, ref_maes, ref_conf, ref_unparseable = brute_force_reference(
            gold, pred_indices
        )
        assert report.unparseable == ref_unparseable
        for kind, stats in ref_counts.items():
            assert report.per_kind[kind].count == stats["count"]
            assert report.per_kind[kind].correct == stats["correct"]
            assert report.per_kind[kind].accuracy == ref_acc[kind]
        assert report.angle_mae == ref_maes["angle"]
        assert report.distance_mae == ref_maes["distance"]
        for kind, matrix in ref_conf.items():
            for g, row in matrix.items():
                for p, count in row.items():
                    assert report.confusion[kind][g][p] == count


# --------------------------------------------------------------- baseline

def test_random_baseline_anchors():
    rng = random.Random(11)
    gold = []
    for i in range(900):
        kind = ("angle", "distance", "relpos_x")[i % 3]
        labels = OPTION_LABELS_BY_KIND[kind]
        gold.append(make_gold(kind, rng.choice(labels), f"q{i}"))
    report = random_baseline(gold, seed=1, trials=200)
    assert report.per_kind["angle"].accuracy == pytest.approx(25.0, abs=2.0)
    assert report.per_kind["distance"].accuracy == pytest.approx(100 / 3, abs=2.5)
    assert report.per_kind["relpos_x"].accuracy == pytest.approx(50.0, abs=3.0)
    again = random_baseline(gold, seed=1, trials=200)
    assert report.to_dict() == again.to_dict()


def test_duplicate_gold_question_id_rejected():
    gold = [make_gold("angle", "straight", "q0"), make_gold("distance", "close to", "q1"),
            make_gold("angle", "bent inward", "q0")]
    with pytest.raises(DuplicateQuestionId, match="'q0'"):
        score(gold, [letter_pred("q1", 0)])
    with pytest.raises(DuplicateQuestionId, match="'q0'"):
        random_baseline(gold)
    with pytest.raises(DuplicateQuestionId):
        random_baseline([gold[0], gold[0]])


def test_random_baseline_validates_trials():
    for trials in (0, -1, 2.5, "3", True):
        with pytest.raises(ValueError, match="trials"):
            random_baseline([make_gold("angle", "straight", "q0")], seed=0, trials=trials)


@pytest.mark.parametrize("trials", [3, 7])
def test_baseline_means_are_exact(catalog_dataset, trials):
    # Each trial's draws, as `random_baseline` makes them, summed exactly.
    records = evaluate._gold_index(catalog_dataset).values()
    count, correct, cells = Counter(), Counter(), Counter()
    abs_err, answers = Counter(), Counter()
    for trial in range(trials):
        rng = random.Random(dataset._digest("baseline", 0, trial, size=8))
        for record in records:
            index = rng.randrange(len(record.options))
            kind = record.target.kind
            count[kind] += 1
            correct[kind] += index == record.correct_index
            pred = decode_statement(record.target, record.options[index])
            cells[kind, record.category.label, pred.label] += 1
            if kind in evaluate.ORDINAL_KINDS:
                abs_err[kind] += abs(ordinal_index(pred) - ordinal_index(record.category))
                answers[kind] += 1

    def mean(total):
        return float(Fraction(total, trials))

    report = random_baseline(catalog_dataset, trials=trials)
    assert set(report.per_kind) == set(count)
    for kind, metric in report.per_kind.items():
        assert type(metric.count) is int and metric.count * trials == count[kind]
        assert (metric.correct, metric.unparseable) == (mean(correct[kind]), 0.0)
    assert report.unparseable == 0.0
    got = {(kind, g, p): v for kind, matrix in report.confusion.items()
           for g, row in matrix.items() for p, v in row.items()}
    assert got == {cell: mean(cells[cell]) for cell in got} and set(cells) <= set(got)
    assert report.angle_mae == float(Fraction(abs_err["angle"], answers["angle"]))
    assert report.distance_mae == float(Fraction(abs_err["distance"], answers["distance"]))


# ------------------------------------------------------------- gold index

@pytest.fixture(scope="module")
def catalog_dataset(tmp_path_factory):
    """Every catalog target on each of 20 aligned-free poses: 2,140 questions."""
    tmp = tmp_path_factory.mktemp("catalog")
    synthetic_manifest(tmp / "m.jsonl", 20, seed=7)
    path = tmp / "d.jsonl"
    dataset.generate_dataset(tmp / "m.jsonl", dataset.GenerationConfig(seed=3, per_type_samples=23),
                             path)
    return path


def test_gold_index_shares_one_record_per_target_options_and_answer():
    index = evaluate._gold_index([
        make_gold("angle", "straight", "q0"),
        make_gold("angle", "straight", "q1", image_id="other"),
        make_gold("angle", "bent inward", "q2"),
    ])
    assert index["q0"] is index["q1"]
    assert index["q2"] is not index["q0"]
    assert index["q0"].category == Category("angle", "straight")


def test_gold_index_keeps_under_512_bytes_per_question(catalog_dataset):
    n = sum(1 for _ in dataset.iter_dataset(catalog_dataset))
    assert n >= 2000
    tracemalloc.start()
    try:
        index = evaluate._gold_index(catalog_dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(index) == n
    assert peak / n < 512


def test_score_and_baseline_decode_each_gold_record_once(catalog_dataset, monkeypatch):
    index = evaluate._gold_index(catalog_dataset)
    n, records = len(index), len({id(r) for r in index.values()})
    read_calls, reduce_calls, in_reduce = [], [], []
    for module, calls in ((dataset, read_calls), (evaluate, reduce_calls)):
        decode = getattr(module, "decode_statement")
        monkeypatch.setattr(module, "decode_statement",
                            lambda *a, calls=calls, decode=decode: calls.append(a) or decode(*a))
    reduce = evaluate._score_resolved

    def counted_reduce(counts):
        before = len(reduce_calls)
        report = reduce(counts)
        in_reduce.append((len(reduce_calls) - before, len(counts)))
        return report

    monkeypatch.setattr(evaluate, "_score_resolved", counted_reduce)
    random_baseline(catalog_dataset, trials=3)
    # One decode per question read, one per distinct gold record.
    assert len(read_calls) <= n + records
    score(catalog_dataset, [letter_pred(qid, 0) for qid in index])
    assert len(in_reduce) == 2
    # Reduce decodes each distinct (record, option index) pair at most once.
    assert all(decodes <= pairs < n for decodes, pairs in in_reduce)


def test_score_keeps_no_copy_of_the_predicted_ids(catalog_dataset):
    # Each prediction brings its own id string, as one read from a file does.
    qids = list(evaluate._gold_index(catalog_dataset))
    peaks = []
    for run in (lambda: evaluate._gold_index(catalog_dataset),
                lambda: score(catalog_dataset,
                              (letter_pred((" " + qid)[1:], 0) for qid in qids))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / len(qids) < 40


def test_score_reports_a_repeated_id_before_resolving_its_answer():
    gold = [make_gold("angle", "straight", "q0")]
    # Positive sum, but no mass on the 4 options the question shows.
    no_mass = PredictionRecord("q0", option_confidences=(0.0, 0.0, 0.0, 0.0, 1.0))
    with pytest.raises(DuplicatePrediction, match="q0"):
        score(gold, [letter_pred("q0", 0), no_mass])


def test_missing_confidence_names_its_question_when_gold_records_are_shared():
    gold = [make_gold("angle", "straight", "q0"), make_gold("angle", "straight", "q1")]
    preds = [letter_pred("q0", 3, confidence=0.9), letter_pred("q1", 3)]
    with pytest.raises(MissingConfidence, match="^q1$"):
        score(gold, preds, calibration_bins=10)


def test_score_and_baseline_read_a_path_and_a_list_of_mcq_alike(catalog_dataset):
    mcqs = list(dataset.iter_dataset(catalog_dataset))
    rng = random.Random(5)
    preds = [letter_pred(m.question_id, rng.randrange(len(m.options)), confidence=rng.random())
             for m in mcqs]
    assert (score(catalog_dataset, preds, calibration_bins=10).to_dict()
            == score(mcqs, preds, calibration_bins=10).to_dict())
    assert (random_baseline(catalog_dataset, seed=2, trials=3).to_dict()
            == random_baseline(mcqs, seed=2, trials=3).to_dict())


def reference_score_resolved(resolved, calibration_bins=None):
    """The reduction as a plain per-question loop, kept as a reference."""
    report = evaluate.MetricsReport()
    abs_err = {"angle": 0, "distance": 0}
    err_n = {"angle": 0, "distance": 0}
    calib = None
    if calibration_bins is not None:
        calib = evaluate.CalibrationTable(bins=[
            evaluate.CalibrationBin(lo=i / calibration_bins, hi=(i + 1) / calibration_bins)
            for i in range(calibration_bins)])
    for qid, record, index, confidence in resolved:
        kind = record.target.kind
        metric = report.per_kind.setdefault(kind, evaluate.KindMetrics())
        metric.count += 1
        if index is None:
            metric.unparseable += 1
            report.unparseable += 1
            continue
        correct = index == record.correct_index
        if correct:
            metric.correct += 1
        pred = evaluate.decode_statement(record.target, record.options[index])
        if pred is not None:
            labels = OPTION_LABELS_BY_KIND[kind]
            matrix = report.confusion.setdefault(kind, {g: {p: 0 for p in labels} for g in labels})
            matrix[record.category.label][pred.label] += 1
            if kind in abs_err:
                abs_err[kind] += abs(ordinal_index(pred) - ordinal_index(record.category))
                err_n[kind] += 1
        if calib is not None:
            if confidence is None:
                raise MissingConfidence(qid)
            slot = min(int(confidence * calibration_bins), calibration_bins - 1)
            b = calib.bins[slot]
            b.count += 1
            b.confidence_sum += confidence
            b.correct += int(correct)
            calib.total += 1
    if err_n["angle"]:
        report.angle_mae = abs_err["angle"] / err_n["angle"]
    if err_n["distance"]:
        report.distance_mae = abs_err["distance"] / err_n["distance"]
    report.calibration = calib
    return report


def random_records(rng, n):
    """Shared gold records of n random questions, one target per kind."""
    gold = []
    for i in range(n):
        kind = rng.choice(list(OPTION_LABELS_BY_KIND))
        gold.append(make_gold(kind, rng.choice(OPTION_LABELS_BY_KIND[kind]), f"g{i}"))
    return list(evaluate._gold_index(gold).values())


def random_stream(rng, records, length, missing_confidence=0.0):
    stream = []
    for i in range(length):
        record = rng.choice(records)
        index = None if rng.random() < 0.1 else rng.randrange(len(record.options))
        confidence = None if rng.random() < missing_confidence else rng.random()
        stream.append((f"q{i}", record, index, confidence))
    return stream


def score_stream(stream, calibration_bins=None):
    """`score` on one gold question and one prediction per stream tuple,
    whose answer and confidence resolve to the tuple's."""
    gold = [Mcq(qid, "img", record.target, "", record.options, record.correct_index)
            for qid, record, _, _ in stream]
    preds = [PredictionRecord(qid, "unsure" if index is None else f"({'abcd'[index]})",
                              confidence)
             for qid, _, index, confidence in stream]
    return score(gold, preds, calibration_bins)


def test_score_resolved_matches_the_per_question_reference():
    rng = random.Random(17)
    covered = set()
    for trial in range(40):
        records = random_records(rng, rng.randrange(1, 12))
        # A record whose wrong options state nothing its target can decode.
        base = rng.choice(records)
        options = tuple(text if i == base.correct_index else f"no statement {i}"
                        for i, text in enumerate(base.options))
        records.append(evaluate._Gold(base.target, options, base.correct_index, base.category))
        stream = random_stream(rng, records, rng.randrange(1, 300))
        covered.update(name for name, hit in (
            ("shared", len({id(r) for _, r, _, _ in stream}) < len(stream)),
            ("unparseable", any(i is None for _, _, i, _ in stream)),
            ("undecodable", any(r is records[-1] and i not in (None, r.correct_index)
                                for _, r, i, _ in stream)),
        ) if hit)
        for bins in (None, rng.randrange(1, 12)):
            got = score_stream(stream, bins).to_dict()
            want = reference_score_resolved(iter(stream), bins).to_dict()
            assert json.dumps(got) == json.dumps(want)
    assert covered == {"shared", "unparseable", "undecodable"}


def test_score_resolved_raises_missing_confidence_where_the_reference_does():
    rng = random.Random(23)
    raised = 0
    for trial in range(40):
        records = random_records(rng, rng.randrange(1, 6))
        stream = random_stream(rng, records, rng.randrange(1, 60), missing_confidence=0.05)
        outcomes = []
        for reduce in (score_stream, reference_score_resolved):
            try:
                outcomes.append(json.dumps(reduce(stream, 10).to_dict()))
            except MissingConfidence as exc:
                outcomes.append(("MissingConfidence", str(exc)))
        assert outcomes[0] == outcomes[1]
        raised += isinstance(outcomes[0], tuple)
    assert 0 < raised < 40


# ------------------------------------------------------------ calibration

def test_reliability_perfectly_confident_correct():
    gold = [make_gold("relpos_y", "above", f"q{i}") for i in range(50)]
    preds = [letter_pred(m.question_id, m.correct_index, confidence=1.0) for m in gold]
    table = score(gold, preds, calibration_bins=10).calibration
    populated = [b for b in table.bins if b.count]
    assert len(populated) == 1
    assert populated[0].accuracy == 1.0
    assert populated[0].mean_confidence == 1.0
    assert table.ece == 0.0


def test_reliability_always_confident_always_wrong():
    gold = [make_gold("relpos_y", "above", f"q{i}") for i in range(50)]
    wrong = [letter_pred(m.question_id, 1 - m.correct_index, confidence=1.0) for m in gold]
    table = score(gold, wrong, calibration_bins=10).calibration
    assert table.ece == 1.0


def test_reliability_calibrated_predictor_low_ece():
    rng = random.Random(13)
    gold = []
    preds = []
    for i in range(10_000):
        mcq = make_gold("relpos_z", "behind" if rng.random() < 0.5 else "in front of", f"q{i}")
        gold.append(mcq)
        confidence = rng.uniform(0.5, 1.0)
        correct = rng.random() < confidence
        index = mcq.correct_index if correct else 1 - mcq.correct_index
        preds.append(letter_pred(mcq.question_id, index, confidence=confidence))
    table = score(gold, preds, calibration_bins=10).calibration
    assert table.ece < 0.03


def test_reliability_missing_confidence():
    gold = [make_gold("angle", "straight", "q0")]
    with pytest.raises(MissingConfidence):
        score(gold, [letter_pred("q0", 0)], calibration_bins=10)


def test_reliability_ignores_unparseable():
    gold = [make_gold("angle", "straight", "q0"), make_gold("angle", "straight", "q1")]
    preds = [
        letter_pred("q0", gold[0].correct_index, confidence=1.0),
        PredictionRecord("q1", raw_answer="cannot tell"),
    ]
    table = score(gold, preds, calibration_bins=10).calibration
    assert table.total == 1
    assert table.ece == 0.0


def test_score_with_calibration_attaches_table():
    gold = [make_gold("distance", "spread from", "q0")]
    preds = [letter_pred("q0", gold[0].correct_index, confidence=0.9)]
    report = score(gold, preds, calibration_bins=5)
    assert report.calibration is not None
    assert report.calibration.total == 1


# ------------------------------------------------------- prediction files

def test_load_predictions_round_trip(tmp_path):
    path = tmp_path / "p.jsonl"
    rows = [
        {"question_id": "q0", "raw_answer": "(a)"},
        {"question_id": "q1", "raw_answer": "b", "confidence": 0.25},
        {"question_id": "q2", "option_confidences": [0.2, 0.8]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    preds = list(load_predictions(path))
    assert preds[0] == PredictionRecord("q0", raw_answer="(a)")
    assert preds[1].confidence == 0.25
    assert preds[2].option_confidences == (0.2, 0.8)


def test_load_predictions_rejects_bad_rows(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"raw_answer": "(a)"}) + "\n")
    with pytest.raises(ParseError):
        list(load_predictions(path))
    path.write_text(json.dumps({"question_id": "q0", "confidence": 1.5}) + "\n")
    with pytest.raises(ParseError):
        list(load_predictions(path))
    path.write_text(json.dumps({"question_id": "q0", "option_confidences": [0.0, 0.0]}) + "\n")
    with pytest.raises(ParseError):
        list(load_predictions(path))
    path.write_text("nonsense\n")
    with pytest.raises(ParseError):
        list(load_predictions(path))


@pytest.mark.parametrize("bad", [
    {"question_id": "q1", "raw_answer": 5},
    {"question_id": "q1", "raw_answer": None},
    {"question_id": "q1", "raw_answer": "(a)", "confidence": "high"},
    {"question_id": "q1", "raw_answer": "(a)", "confidence": [0.5]},
    {"question_id": "q1", "raw_answer": "(a)", "confidence": 1.5},
    {"question_id": "q1", "option_confidences": [-1.0, 2.0, 0, 0]},
    {"question_id": "q1", "option_confidences": [float("nan"), 0.5, 0.2, 0.1]},
    {"question_id": "q1", "option_confidences": [float("inf"), 0.5]},
    {"question_id": "q1", "option_confidences": "1"},
    {"question_id": "q1", "option_confidences": 0.7},
    {"question_id": "q1", "option_confidences": ["x", 0.5]},
    {"question_id": 7, "raw_answer": "(a)"},
    {"question_id": ["q1"], "raw_answer": "(a)"},
], ids=["int_answer", "null_answer", "word_confidence", "list_confidence",
        "confidence_above_one", "negative_option_confidence", "nan_option_confidence",
        "inf_option_confidence", "string_option_confidences",
        "scalar_option_confidences", "word_option_confidence", "int_question_id",
        "list_question_id"])
def test_load_predictions_rejects_malformed_values_with_line_number(tmp_path, bad):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"question_id": "q0", "raw_answer": "(a)"}) + "\n"
                    + json.dumps(bad) + "\n")
    with pytest.raises(ParseError) as exc:
        list(load_predictions(path))
    assert exc.value.line_no == 2
    # A record built in Python meets the same rule with the same message.
    with pytest.raises(ValueError) as built:
        PredictionRecord(**bad)
    assert str(built.value) == exc.value.reason


@pytest.mark.parametrize("bad", [
    {"question_id": "q1", "raw_answer": "(a)", "confidence": True},
    {"question_id": "q1", "raw_answer": "(a)", "confidence": False},
    {"question_id": "q1", "raw_answer": "(a)", "confidence": "0.5"},
    {"question_id": "q1", "option_confidences": [0.2, True]},
    {"question_id": "q1", "option_confidences": [False, 0.5]},
    {"question_id": "q1", "option_confidences": ["0.5", 0.5]},
], ids=["true_confidence", "false_confidence", "numeric_string_confidence",
        "true_option_confidence", "false_option_confidence", "numeric_string_option_confidence"])
def test_load_predictions_takes_only_json_numbers_as_confidences(tmp_path, bad):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"question_id": "q0", "raw_answer": "(a)"}) + "\n"
                    + json.dumps(bad) + "\n")
    with pytest.raises(ParseError) as exc:
        list(load_predictions(path))
    assert exc.value.line_no == 2
    with pytest.raises(ValueError) as built:
        PredictionRecord(**bad)
    assert str(built.value) == exc.value.reason


def test_parse_answer_reads_the_letters_from_option_letters(monkeypatch):
    # A copy of the module, loaded while the dataset's letters are "wxyz",
    # must read those letters and no others.
    monkeypatch.setattr(dataset, "OPTION_LETTERS", "wxyz")
    spec = importlib.util.spec_from_file_location("handmcq._letters_probe", evaluate.__file__)
    probe = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, probe)
    spec.loader.exec_module(probe)
    options = ["first", "second", "third", "fourth"]
    assert probe.parse_answer("(x) second", options) == 1
    assert probe.parse_answer("Z.", options) == 3
    assert probe.parse_answer("the answer is (W)", options) == 0
    assert probe.parse_answer("(b)", options) is None
    assert parse_answer("(b)", options) == 1
