"""Exception hierarchy shared across the package, and the one check of config bounds.

Every error raised by library code derives from :class:`CodecInfillError`
so callers (and the CLI) can map failure classes to distinct exit codes.
A config field declares its bound in its type, as ``Annotated[int,
Range(1)]`` or an alias below, and its ``__post_init__`` calls
:func:`check_bounds`; the rules that span fields stay in the ``__post_init__``.
"""

import functools
import typing


class CodecInfillError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CodecInfillError):
    """An argument violates an operation's precondition."""


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


class Range(typing.NamedTuple):
    """The bound ``lo <= value <= hi`` of a field; either end may be open, and ``hi`` may be absent."""

    lo: float
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False


Count = typing.Annotated[int, Range(1)]  # a size, count or divisor
Natural = typing.Annotated[int, Range(0)]  # a seed (numpy's generators take no negative one), or an amount
Positive = typing.Annotated[float, Range(0, lo_open=True)]
NonNegative = typing.Annotated[float, Range(0)]
Unit = typing.Annotated[float, Range(0, 1, hi_open=True)]  # an AdamW decay: at 1 its bias correction divides by 0
Share = typing.Annotated[float, Range(0, 1, lo_open=True)]


@functools.cache
def declared_bounds(cls) -> dict[str, tuple[Range, bool]]:
    """Each bounded field of ``cls``: its Range, and whether the Range bounds every item of a tuple."""
    bounds = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        each = typing.get_origin(hint) is tuple
        if typing.get_origin(hint) in (tuple, typing.Union):  # tuple[X, ...], or X | None with X annotated
            hint = typing.get_args(hint)[0]
        if typing.get_origin(hint) is typing.Annotated:
            bounds[name] = (hint.__metadata__[0], each)
    return bounds


def check_bounds(obj) -> None:
    """Raise InvalidInputError naming the first field of ``obj`` outside its declared Range; NaN is outside all."""
    for name, ((lo, hi, lo_open, hi_open), each) in declared_bounds(type(obj)).items():
        value = getattr(obj, name)
        for item in value if each else () if value is None else (value,):
            if not (item > lo if lo_open else item >= lo):
                rule = f"{'>' if lo_open else '>='} {lo}"
            elif hi is not None and not (item < hi if hi_open else item <= hi):
                rule = f"{'<' if hi_open else '<='} {hi}"
            else:
                continue
            raise InvalidInputError(f"{name} must {'all ' if each else ''}be {rule}, not {value!r}")
