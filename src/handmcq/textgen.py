"""Deterministic sentence templates: rendering option sentences and
decoding them back. Nothing here is random; the seeded option order is
drawn in `dataset`.

Single-joint targets render as "The <joint name> is <label>." and pair
targets as "The <subject name> is <label> the <object name>." The label
carries its own preposition ("close to", "at the left of", ...). Every
(target, category) renders to a unique sentence, so sentences can be
decoded back to their category by exact match.
"""
from __future__ import annotations

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


def options_in_order(target: DescriptorTarget, permutation: tuple[int, ...]) -> tuple[str, ...]:
    """The target's option sentences in the display order `permutation`."""
    labels = OPTION_LABELS_BY_KIND[target.kind]
    return tuple(_STATEMENT_TEXT[(target, labels[i])] for i in permutation)

