"""Exception types shared across the toolkit."""


class HandMcqError(Exception):
    """Base class for all toolkit errors."""


class NotAnAngleJoint(HandMcqError):
    """Raised when a bending angle is requested at the wrist or a fingertip."""


class DegeneratePose(HandMcqError):
    """Raised when a pose cannot be normalized (zero extent on every axis)."""


class DegenerateBone(HandMcqError):
    """Raised when a bone vector is too short to define an angle."""


class OutOfRange(HandMcqError):
    """Raised when a continuous value lies outside its categorizable domain."""


class AlignedTruth(HandMcqError):
    """Raised for an 'aligned' relative-position truth. Its visual cue is
    ambiguous, so it is never rendered or asked: callers skip or resample."""


class ParseError(HandMcqError):
    """A malformed line in a manifest, dataset, or prediction file."""

    def __init__(self, line_no: int, reason: str):
        # args must mirror the signature so the exception survives pickling
        # across multiprocessing workers.
        super().__init__(line_no, reason)
        self.line_no = line_no
        self.reason = reason

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.reason}"


class DuplicateImageId(HandMcqError):
    """Two manifest records share the same image_id."""


class DuplicateQuestionId(HandMcqError):
    """Two gold questions share the same question_id."""


class NoMatchingOption(HandMcqError):
    """The true category's statement is missing from an option set."""

    def __init__(self, question_id: str, category):
        super().__init__(question_id, category)
        self.question_id = question_id
        self.category = category

    def __str__(self) -> str:
        return f"{self.question_id}: no option states {self.category.label!r}"


class MissingPose(HandMcqError):
    """A dataset question references an image_id absent from the manifest."""


class NotOrdinal(HandMcqError):
    """Ordinal index requested for a kind without an ordinal metric."""


class UnknownQuestionId(HandMcqError):
    """A prediction references a question_id absent from the gold dataset."""


class DuplicatePrediction(HandMcqError):
    """Two predictions share the same question_id."""


class MissingConfidence(HandMcqError):
    """A calibration computation encountered a prediction without confidence."""


class ZeroConfidenceMass(HandMcqError):
    """Per-option confidences put no mass on any option of their question."""
