from collections import namedtuple

import pytest

from handmcq.dataset import assemble_mcq
from handmcq.discretize import ALIGNED, OPTION_LABELS_BY_KIND, Category
from handmcq.errors import AlignedTruth
from handmcq.skeleton import JOINT_NAMES, DescriptorTarget, catalog
from handmcq.textgen import decode_statement, options_in_order, render_statement

Options = namedtuple("Options", "options correct_index permutation")


def target_of(kind, subject, obj=None):
    index = JOINT_NAMES.index
    return DescriptorTarget(kind, index(subject), None if obj is None else index(obj))


def draw_options(target, truth, seed):
    permutation, correct_index = assemble_mcq("img", target, truth, seed)
    return Options(options_in_order(target, permutation), correct_index, permutation)


def test_render_pair_worked_example():
    stmt = render_statement(
        target_of("distance", "middle_dip", "ring_dip"),
        Category("distance", "close to"),
    )
    assert stmt == (
        "The distal interphalangeal joint of the middle finger is close to "
        "the distal interphalangeal joint of the ring finger."
    )


def test_render_angle_example():
    stmt = render_statement(
        target_of("angle", "index_pip"), Category("angle", "straight")
    )
    assert stmt == (
        "The proximal interphalangeal joint of the index finger is straight."
    )


def test_render_relpos_example():
    stmt = render_statement(
        target_of("relpos_y", "thumb_tip", "index_tip"),
        Category("relpos_y", "above"),
    )
    assert stmt == (
        "The tip joint of the thumb is above the tip joint of the index finger."
    )


def test_render_aligned_refused():
    with pytest.raises(AlignedTruth):
        render_statement(
            target_of("relpos_x", "index_pip", "middle_pip"),
            Category("relpos_x", ALIGNED),
        )


def test_render_kind_mismatch():
    with pytest.raises(ValueError):
        render_statement(
            target_of("distance", "middle_dip", "ring_dip"),
            Category("angle", "straight"),
        )


def test_statements_injective_and_decodable():
    seen = set()
    for kind, labels in OPTION_LABELS_BY_KIND.items():
        for target in catalog(kind):
            for label in labels:
                text = render_statement(target, Category(kind, label))
                assert text not in seen
                seen.add(text)
                decoded = decode_statement(target, text)
                assert decoded == Category(kind, label)
    assert len(seen) == 15 * 4 + 23 * 3 + 3 * 23 * 2  # 267 distinct sentences


def test_decode_unknown_text():
    target = target_of("distance", "middle_dip", "ring_dip")
    assert decode_statement(target, "The hand is closed.") is None


def test_option_counts_by_kind():
    cases = [
        (target_of("angle", "ring_pip"), Category("angle", "bent inward"), 4),
        (target_of("distance", "index_tip", "middle_tip"), Category("distance", "spread from"), 3),
        (target_of("relpos_x", "index_pip", "middle_pip"), Category("relpos_x", "at the left of"), 2),
        (target_of("relpos_y", "thumb_tip", "index_dip"), Category("relpos_y", "below"), 2),
        (target_of("relpos_z", "middle_tip", "ring_tip"), Category("relpos_z", "in front of"), 2),
    ]
    for target, truth, expected_count in cases:
        opts = draw_options(target, truth, 3)
        assert len(opts.options) == expected_count
        assert len(set(opts.options)) == expected_count
        assert 0 <= opts.correct_index < expected_count
        assert decode_statement(target, opts.options[opts.correct_index]) == truth


def test_option_round_trip_every_target_and_label():
    for kind, labels in OPTION_LABELS_BY_KIND.items():
        for target in catalog(kind):
            for label in labels:
                truth = Category(kind, label)
                opts = draw_options(target, truth, 0)
                assert decode_statement(target, opts.options[opts.correct_index]) == truth


def test_aligned_ground_truth_rejected():
    with pytest.raises(AlignedTruth):
        draw_options(
            target_of("relpos_x", "index_pip", "middle_pip"),
            Category("relpos_x", ALIGNED),
            1,
        )


def test_option_shuffle_determinism():
    target = target_of("distance", "ring_tip", "little_tip")
    truth = Category("distance", "spread from")
    a = draw_options(target, truth, 7)
    b = draw_options(target, truth, 7)
    assert a == b
    c = draw_options(target, truth, 8)
    assert sorted(c.options) == sorted(a.options)
    assert decode_statement(target, c.options[c.correct_index]) == truth


def test_permutation_records_display_order():
    target = target_of("angle", "thumb_ip")
    truth = Category("angle", "straight")
    opts = draw_options(target, truth, 11)
    labels = OPTION_LABELS_BY_KIND["angle"]
    for pos, label_index in enumerate(opts.permutation):
        expected = render_statement(target, Category("angle", labels[label_index]))
        assert opts.options[pos] == expected
