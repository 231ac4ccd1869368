"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`CodecInfillError`
so callers (and the CLI) can map failure classes to distinct exit codes.
:func:`require_positive` is the one check the configs share for values
that count or divide; :func:`require_at_least` with 0 is the one for
seeds, which numpy's generators take only when non-negative, and for
the other values a negative would break.
"""


class CodecInfillError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CodecInfillError):
    """An argument violates an operation's precondition."""


def require_positive(config, *fields: str) -> None:
    """Raise InvalidInputError naming the first of ``fields`` of ``config`` below 1."""
    require_at_least(1, config, *fields)


def require_at_least(least: int, config, *fields: str) -> None:
    """Raise InvalidInputError naming the first of ``fields`` of ``config`` below ``least``."""
    for name in fields:
        value = getattr(config, name)
        if value < least:
            raise InvalidInputError(f"{name} must be >= {least}, not {value!r}")


class InvalidSpanError(InvalidInputError):
    """Spans overlap, are unsorted, or fall outside the frame range."""


class StructureError(CodecInfillError):
    """A rearranged or stacked sequence violates the layout grammar.

    Carries ``item_index``, the first offending item position.
    """

    def __init__(self, message: str, item_index: int):
        super().__init__(f"{message} (item {item_index})")
        self.item_index = item_index


class VocabularyError(CodecInfillError):
    """A token or symbol id is outside its vocabulary."""


class CapacityError(CodecInfillError):
    """A sequence exceeds the model's position capacity."""


class AlignmentError(CodecInfillError):
    """An edit operation references a word with no alignment entry."""


class ConfigError(CodecInfillError):
    """A configuration value is missing or invalid; names the field."""


class NumericalError(CodecInfillError):
    """Training or evaluation produced a non-finite value."""


class NonFiniteLossError(NumericalError):
    """The training loss became NaN/Inf; carries the offending batch id."""

    def __init__(self, message: str, batch_id: str):
        super().__init__(f"{message} (batch {batch_id})")
        self.batch_id = batch_id
