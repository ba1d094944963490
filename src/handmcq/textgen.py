"""Deterministic sentence templates and MCQ option construction.

Single-joint targets render as "The <joint name> is <label>." and pair
targets as "The <subject name> is <label> the <object name>." The label
carries its own preposition ("close to", "at the left of", ...). Every
(target, category) renders to a unique sentence, so sentences can be
decoded back to their category by exact match.
"""
from __future__ import annotations

import random

from .discretize import _CATEGORIES, OPTION_LABELS_BY_KIND, Category
from .errors import AlignedTruth
from .skeleton import KINDS, DescriptorTarget, catalog, joint_display_name


def _render_text(target: DescriptorTarget, label: str) -> str:
    subject_name = joint_display_name(target.subject)
    if target.object is None:
        return f"The {subject_name} is {label}."
    object_name = joint_display_name(target.object)
    return f"The {subject_name} is {label} the {object_name}."


# (target, label) -> text for every renderable combination; 267 entries.
_STATEMENT_TEXT: dict[tuple[DescriptorTarget, str], str] = {}
# target -> {text -> category} for decoding, to the interned categories
_DECODE: dict[DescriptorTarget, dict[str, Category]] = {}
for _kind in KINDS:
    for _target in catalog(_kind):
        back = {}
        for _category in _CATEGORIES[_kind]:
            if not _category.is_aligned:
                text = _render_text(_target, _category.label)
                _STATEMENT_TEXT[(_target, _category.label)] = text
                back[text] = _category
        _DECODE[_target] = back


def render_statement(target: DescriptorTarget, category: Category) -> str:
    """Fill the target's template with the category label.

    Raises AlignedTruth for the aligned category, which never appears in
    questions.
    """
    if category.kind != target.kind:
        raise ValueError(
            f"category kind {category.kind!r} does not match target kind {target.kind!r}"
        )
    if category.is_aligned:
        raise AlignedTruth(f"{target.key()} is aligned")
    return _STATEMENT_TEXT[(target, category.label)]


def decode_statement(target: DescriptorTarget, text: str) -> Category | None:
    """Recover the category a rendered sentence states, or None."""
    return _DECODE[target].get(text)


def draw_permutation(
    target: DescriptorTarget, true_category: Category, rng: random.Random
) -> tuple[tuple[int, ...], int]:
    """Seeded display order of a target's option labels, and the display
    position of the true one.

    `permutation[pos]` is the canonical label index (within the kind's
    option labels) shown at position `pos`. Raises AlignedTruth when
    the truth itself is aligned; the caller must skip or resample that
    target.
    """
    if true_category.is_aligned:
        raise AlignedTruth(f"{target.key()} truth is aligned")
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

