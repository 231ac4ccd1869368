"""Core token containers: codec matrices, spans, word alignments, special markers, dumps.

The currency of the whole system is the T-by-K codec matrix: T temporal
frames, each holding one token id per residual codebook.  Frames are kept
as an integer numpy array; all transforms in :mod:`codec_infill.rearrange`
operate on these exact integers, never on floats.  An
:class:`Alignment` maps each word of a transcript to its frame span,
checked by :func:`validate_spans`; editing reads it, and the toy codec
builds the exact one.

The on-disk dump format is line-delimited JSON, one utterance per line:

    {"id": ..., "frame_rate": ..., "codebook_sizes": [...],
     "frames": [[k ids] per frame], "spans": [[start, end], ...]}

``spans`` is optional.  All values are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Count, InvalidInputError, InvalidSpanError, check_bounds
from .jsonio import check_keys, get_field, read_json_lines, write_json_lines

# Filler id occupying stacked slots that the delay pattern leaves without a
# real token.  Never appears inside a CodecMatrix or a rearranged sequence.
EMPTY = -1


@dataclass(frozen=True)
class SpecialToken:
    """Marker token: mask(i) introducing span i, end-of-span, end-of-utterance.

    Mask indices are 1-based and assigned left-to-right, so the leftmost
    masked span always carries mask index 1.
    """

    kind: str  # "mask" | "eos" | "eou"
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("mask", "eos", "eou"):
            raise InvalidInputError(f"unknown special token kind {self.kind!r}")
        if self.kind == "mask" and self.index < 1:
            raise InvalidInputError("mask token indices are 1-based")

    def __str__(self):
        if self.kind == "mask":
            return f"<M{self.index}>"
        return self.kind.upper()


EOS = SpecialToken("eos")
EOU = SpecialToken("eou")


def mask_marker(index: int) -> SpecialToken:
    return SpecialToken("mask", index)


@dataclass(frozen=True)
class Span:
    """Half-open frame range [start, end) within a codec matrix."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise InvalidSpanError(f"span [{self.start}, {self.end}) is empty or negative")

    def __len__(self):
        return self.end - self.start


def validate_spans(spans: list[Span], num_frames: int) -> None:
    """Check that spans are sorted, pairwise disjoint, and within [0, T)."""
    prev_end = 0
    for s in spans:
        if s.start < prev_end:
            raise InvalidSpanError(f"span [{s.start}, {s.end}) overlaps or is out of order")
        if s.end > num_frames:
            raise InvalidSpanError(f"span [{s.start}, {s.end}) exceeds frame count {num_frames}")
        prev_end = s.end


@dataclass
class Alignment:
    """Frame span of every original word, plus the total frame count."""

    word_spans: list[Span]
    total_frames: int

    def __post_init__(self):
        validate_spans(self.word_spans, self.total_frames)


@dataclass
class CodecMatrix:
    """T x K matrix of codec token ids plus vocabulary metadata."""

    frames: np.ndarray  # (T, K) integer array
    frame_rate: Count = 50
    codebook_sizes: tuple[Count, ...] = (256, 256, 256, 256)

    def __post_init__(self):
        check_bounds(self)
        self.frames = np.asarray(self.frames, dtype=np.int64)
        if self.frames.ndim != 2:
            if self.frames.size == 0:
                self.frames = self.frames.reshape(0, len(self.codebook_sizes))
            else:
                raise InvalidInputError("frames must be a (T, K) array")
        if self.frames.shape[1] != len(self.codebook_sizes):
            raise InvalidInputError(
                f"frames have {self.frames.shape[1]} codebooks, "
                f"expected {len(self.codebook_sizes)}"
            )
        if self.num_codebooks < 1:
            raise InvalidInputError("need at least one codebook")
        if self.num_frames:
            bad = (self.frames.min(axis=0) < 0) | (self.frames.max(axis=0) >= self.codebook_sizes)
            if bad.any():
                k = int(np.argmax(bad))
                raise InvalidInputError(f"codebook {k + 1} token out of range [0, {self.codebook_sizes[k]})")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_codebooks(self) -> int:
        return len(self.codebook_sizes)

    def __eq__(self, other):
        return (
            isinstance(other, CodecMatrix)
            and self.frame_rate == other.frame_rate
            and self.codebook_sizes == other.codebook_sizes
            and self.frames.shape == other.frames.shape
            and bool(np.array_equal(self.frames, other.frames))
        )


# ---------------------------------------------------------------------------
# Line-delimited token dumps
# ---------------------------------------------------------------------------


@dataclass
class TokenDumpRecord:
    id: str
    matrix: CodecMatrix
    spans: list[Span] = field(default_factory=list)


def _record_payload(record: TokenDumpRecord) -> dict:
    payload = {
        "id": record.id,
        "frame_rate": record.matrix.frame_rate,
        "codebook_sizes": list(record.matrix.codebook_sizes),
        "frames": record.matrix.frames.tolist(),
    }
    if record.spans:
        payload["spans"] = [[s.start, s.end] for s in record.spans]
    return payload


def _record_from_payload(payload: dict) -> TokenDumpRecord:
    check_keys(payload, {"id", "frame_rate", "codebook_sizes", "frames", "spans"})
    sizes = get_field(payload, "codebook_sizes", [int], convert=tuple)
    frames = get_field(payload, "frames", [[int]], convert=lambda v: np.asarray(v, dtype=np.int64))
    matrix = CodecMatrix(frames, frame_rate=get_field(payload, "frame_rate", int), codebook_sizes=sizes)
    spans = get_field(payload, "spans", [[int]], [], convert=lambda v: [Span(a, b) for a, b in v])
    return TokenDumpRecord(get_field(payload, "id", str), matrix, spans)


def write_token_dump(path, records) -> None:
    write_json_lines(path, (_record_payload(record) for record in records))


def read_token_dump(path) -> list[TokenDumpRecord]:
    """Records of a dump file; a malformed line or a repeated id raises ``ConfigError`` naming it."""
    return read_json_lines(path, _record_from_payload, id_of=lambda record: record.id)
