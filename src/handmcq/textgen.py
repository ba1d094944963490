"""Deterministic sentence templates and MCQ option construction.

Single-joint targets render as "The <joint name> is <label>." and pair
targets as "The <subject name> is <label> the <object name>." The label
carries its own preposition ("close to", "at the left of", ...). Every
(target, category) renders to a unique sentence, so sentences can be
decoded back to their category by exact match.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .discretize import ALIGNED, OPTION_LABELS_BY_KIND, Category
from .errors import AlignedGroundTruth, AlignedNotRenderable
from .skeleton import KINDS, DescriptorTarget, catalog, joint_display_name


@dataclass(frozen=True)
class Statement:
    text: str
    target: DescriptorTarget
    category: Category


@dataclass(frozen=True)
class OptionSet:
    """Ordered option sentences with the index of the true one.

    `permutation[pos]` is the canonical label index (within the kind's
    option labels) shown at display position `pos`.
    """

    options: tuple[str, ...]
    correct_index: int
    permutation: tuple[int, ...]


def _render_text(target: DescriptorTarget, label: str) -> str:
    subject_name = joint_display_name(target.subject)
    if target.object is None:
        return f"The {subject_name} is {label}."
    object_name = joint_display_name(target.object)
    return f"The {subject_name} is {label} the {object_name}."


# (target, label) -> text for every renderable combination; 267 entries.
_STATEMENT_TEXT: dict[tuple[DescriptorTarget, str], str] = {}
# target -> {text -> label} for decoding
_DECODE: dict[DescriptorTarget, dict[str, str]] = {}
for _kind in KINDS:
    for _target in catalog(_kind):
        back = {}
        for _label in OPTION_LABELS_BY_KIND[_kind]:
            text = _render_text(_target, _label)
            _STATEMENT_TEXT[(_target, _label)] = text
            back[text] = _label
        _DECODE[_target] = back


def render_statement(target: DescriptorTarget, category: Category) -> Statement:
    """Fill the target's template with the category label.

    Raises AlignedNotRenderable for the aligned category, which never
    appears in questions.
    """
    if category.kind != target.kind:
        raise ValueError(
            f"category kind {category.kind!r} does not match target kind {target.kind!r}"
        )
    if category.label == ALIGNED:
        raise AlignedNotRenderable(f"{target.key()} is aligned")
    return Statement(
        text=_STATEMENT_TEXT[(target, category.label)],
        target=target,
        category=category,
    )


def decode_statement(target: DescriptorTarget, text: str) -> Category | None:
    """Recover the category a rendered sentence states, or None."""
    label = _DECODE[target].get(text)
    if label is None:
        return None
    return Category(target.kind, label)


def draw_permutation(
    target: DescriptorTarget, true_category: Category, rng: random.Random
) -> tuple[tuple[int, ...], int]:
    """Seeded display order of a target's option labels, and the display
    position of the true one.

    `permutation[pos]` is the canonical label index (within the kind's
    option labels) shown at position `pos`. Raises AlignedGroundTruth when
    the truth itself is aligned; the caller must skip or resample that
    target.
    """
    if true_category.label == ALIGNED:
        raise AlignedGroundTruth(f"{target.key()} truth is aligned")
    labels = OPTION_LABELS_BY_KIND[target.kind]
    if true_category.label not in labels:
        raise ValueError(f"label {true_category.label!r} not valid for {target.kind}")
    permutation = list(range(len(labels)))
    rng.shuffle(permutation)
    return tuple(permutation), permutation.index(labels.index(true_category.label))


def options_in_order(target: DescriptorTarget, permutation: tuple[int, ...]) -> tuple[str, ...]:
    """The target's option sentences in the display order `permutation`."""
    labels = OPTION_LABELS_BY_KIND[target.kind]
    return tuple(_STATEMENT_TEXT[(target, labels[i])] for i in permutation)


def build_options(
    target: DescriptorTarget, true_category: Category, rng: random.Random
) -> OptionSet:
    """One statement per eligible category, shuffled, with the true index.

    Angle targets get 4 options, distance 3, relative position 2 (the two
    non-aligned sides). Raises AlignedGroundTruth when the truth itself is
    aligned; the caller must skip or resample that target.
    """
    permutation, correct_index = draw_permutation(target, true_category, rng)
    return OptionSet(
        options=options_in_order(target, permutation),
        correct_index=correct_index,
        permutation=permutation,
    )
