"""Two-step token rearrangement: span relocation and per-codebook delay.

Step 1 (``causal_mask``) relocates masked spans to the sequence tail so a
left-to-right model can condition on both sides of every masked region:

    X = (X1 .. XT),  masked spans S1..Sn   -->
    Y = U1 <M1> U2 <M2> ... U_{n+1} EOU <M1> D1 EOS <M2> D2 EOS ...

where Ui are the unmasked segments (possibly empty), Di the relocated
masked spans, <Mi> the mask marker of the i-th span in left-to-right
order, EOU terminates the unmasked region and every relocated span ends
with EOS.

Step 2 (``delay_stack``) shifts codebook k of every span by k-1 steps so
one decoding step emits K tokens while codebook k still appears after
codebook k-1 of the same physical frame.  A span of L frames becomes
L + K - 1 stacked steps; stacked step t holds, at codebook k (1-based),
the span's token at frame t - k + 1 when that frame exists and the EMPTY
filler otherwise.  Special markers are never delayed; an empty span
contributes K - 1 all-EMPTY steps, keeping the length formula uniform.

Both steps have exact inverses (``uncausal_mask``, ``unstack``) that parse
the layout grammar and raise :class:`StructureError` naming the first
violating item on malformed input.

All functions are pure; randomness enters only through an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, StructureError
from .tokens import EMPTY, EOS, EOU, CodecMatrix, Span, SpecialToken, mask_marker, validate_spans

FrameTuple = tuple[int, ...]


@dataclass
class RearrangedSequence:
    """Span-relocated sequence: frame tuples interleaved with markers.

    After :func:`delay_stack` the frame tuples are stacked steps, K-tuples
    over token ids plus the EMPTY filler (-1).
    """

    items: list  # FrameTuple (stacked: with EMPTY entries) | SpecialToken
    frame_rate: int
    codebook_sizes: tuple[int, ...]

    @property
    def num_codebooks(self) -> int:
        return len(self.codebook_sizes)


# ---------------------------------------------------------------------------
# Span sampling
# ---------------------------------------------------------------------------


@dataclass
class MaskSamplingConfig:
    """Training-time span sampler settings.

    The span count is Poisson(rate) truncated to [min_spans, max_spans];
    each span length is uniform on [1, min(max_span_len, T)].  The
    full-scale length cap is 600 frames; the desk-scale default is 60.
    """

    rate: float = 1.0
    min_spans: int = 1
    max_spans: int = 3
    max_span_len: int = 60

    def __post_init__(self):
        if not (1 <= self.min_spans <= self.max_spans):
            raise InvalidInputError("need 1 <= min_spans <= max_spans")
        if self.max_span_len < 1:
            raise InvalidInputError("max_span_len must be >= 1")
        if self.rate <= 0:
            raise InvalidInputError("rate must be positive")


@functools.lru_cache(maxsize=16)
def truncated_poisson_pmf(rate: float, lo: int, hi: int) -> np.ndarray:
    """Pmf of Poisson(rate) conditioned on lo <= n <= hi.

    Cached, since every sampled utterance asks for the same one; the
    array is read-only because every caller shares it.
    """
    ns = np.arange(lo, hi + 1)
    weights = np.array([rate**n / math.factorial(n) for n in ns], dtype=np.float64)
    pmf = weights / weights.sum()
    pmf.setflags(write=False)
    return pmf


def sample_span_count(cfg: MaskSamplingConfig, rng: np.random.Generator) -> int:
    pmf = truncated_poisson_pmf(cfg.rate, cfg.min_spans, cfg.max_spans)
    return int(rng.choice(np.arange(cfg.min_spans, cfg.max_spans + 1), p=pmf))


def place_spans(num_frames: int, lengths: list[int], rng: np.random.Generator) -> list[Span]:
    """Place spans of the given lengths uniformly among all disjoint layouts.

    The slack T - sum(lengths) is split over the n + 1 gaps around the
    spans by a uniform stars-and-bars draw, which induces the uniform
    distribution over ordered non-overlapping placements.
    """
    n = len(lengths)
    if n == 0:
        return []
    if any(l < 1 for l in lengths):
        raise InvalidInputError("span lengths must be >= 1")
    slack = num_frames - sum(lengths)
    if slack < 0:
        raise InvalidInputError("spans do not fit in the sequence")
    bars = np.sort(rng.choice(slack + n, size=n, replace=False))
    spans = []
    cursor = 0
    prev_bar = -1
    for i in range(n):
        gap = int(bars[i]) - prev_bar - 1
        start = cursor + gap
        spans.append(Span(start, start + lengths[i]))
        cursor = start + lengths[i]
        prev_bar = int(bars[i])
    return spans


def sample_mask_spans(
    num_frames: int, cfg: MaskSamplingConfig, rng: np.random.Generator
) -> list[Span]:
    """Draw the training-time mask spans for a T-frame utterance.

    If the sampled lengths cannot all fit, spans are dropped from the end
    of the draw until the remainder fits (a single span always fits since
    its length is capped at T).
    """
    if num_frames < 1:
        raise InvalidInputError("cannot sample spans for an empty sequence")
    max_len = min(cfg.max_span_len, num_frames)
    n = sample_span_count(cfg, rng)
    lengths = [int(v) for v in rng.integers(1, max_len + 1, size=n)]
    while n > 1 and sum(lengths[:n]) > num_frames:
        n -= 1
    return place_spans(num_frames, lengths[:n], rng)


# ---------------------------------------------------------------------------
# Causal masking and its inverse
# ---------------------------------------------------------------------------


def _frame_tuples(matrix: CodecMatrix) -> list[FrameTuple]:
    return list(map(tuple, matrix.frames.tolist()))


def causal_mask(matrix: CodecMatrix, spans: list[Span]) -> RearrangedSequence:
    """Relocate the masked spans of X to the tail of the sequence."""
    validate_spans(spans, matrix.num_frames)
    frames = _frame_tuples(matrix)
    edges = [0, *(edge for span in spans for edge in (span.start, span.end)), matrix.num_frames]
    unmasked = [frames[start:end] for start, end in zip(edges[::2], edges[1::2])]
    items = _join_runs(unmasked, [frames[span.start:span.end] for span in spans])
    return RearrangedSequence(items, matrix.frame_rate, matrix.codebook_sizes)


def _parse_layout(items: list, on_run):
    """Parse the layout grammar shared by Y and Z into its runs.

    ``U1 <M1> U2 ... <Mn> U_{n+1} EOU <M1> D1 EOS ... <Mn> Dn EOS``: the runs
    are the unmasked segments Ui and the relocated spans Di, frames in Y and
    stacked steps in Z.  ``on_run(run, offset, mask_index)`` is called on
    every run in item order, with ``offset`` the index of the run's first
    item (where it would be, for an empty run) and ``mask_index`` 0 for an
    unmasked segment and i for relocated span i; it may raise, and its
    result stands in for the run.  Returns (unmasked results, relocated
    results).  Raises StructureError with the index of the first violating
    item.
    """
    unmasked: list = []
    run: list = []
    offset = 0
    pos = 0
    n_markers = 0
    while True:
        if pos >= len(items):
            raise StructureError("missing EOU terminator", len(items) - 1 if items else 0)
        item = items[pos]
        if isinstance(item, SpecialToken):
            if item.kind == "eos":
                raise StructureError("EOS before EOU", pos)
            if item.kind == "mask" and item.index != n_markers + 1:
                raise StructureError(
                    f"mask marker {item.index} out of order (expected {n_markers + 1})", pos
                )
            unmasked.append(on_run(run, offset, 0))
            run, offset = [], pos + 1
            pos += 1
            if item.kind == "eou":
                break
            n_markers += 1
        else:
            run.append(item)
            pos += 1

    relocated: list = []
    for i in range(1, n_markers + 1):
        if pos >= len(items):
            raise StructureError(f"dangling mask marker {i}: relocated span missing", pos - 1)
        marker = items[pos]
        if not (isinstance(marker, SpecialToken) and marker.kind == "mask" and marker.index == i):
            raise StructureError(f"expected relocated marker <M{i}>", pos)
        pos += 1
        run, offset = [], pos
        while True:
            if pos >= len(items):
                raise StructureError(f"relocated span {i} missing EOS", pos - 1)
            item = items[pos]
            if isinstance(item, SpecialToken):
                if item.kind == "eos":
                    break
                raise StructureError(f"unexpected {item} inside relocated span {i}", pos)
            run.append(item)
            pos += 1
        relocated.append(on_run(run, offset, i))
        pos += 1
    if pos != len(items):
        if isinstance(items[pos], SpecialToken) and items[pos].kind == "eos":
            raise StructureError("unmatched EOS", pos)
        raise StructureError("trailing items after final relocated span", pos)
    return unmasked, relocated


def _frame_run(run: list, offset: int, mask_index: int) -> list:
    """``on_run`` for Y: a relocated span must hold at least one frame."""
    if mask_index and not run:
        raise StructureError(f"relocated span {mask_index} is empty", offset)
    return run


def uncausal_mask(seq: RearrangedSequence) -> tuple[CodecMatrix, list[Span]]:
    """Exact inverse of :func:`causal_mask`."""
    segments, relocated = _parse_layout(seq.items, _frame_run)
    frames: list[FrameTuple] = []
    spans: list[Span] = []
    for i, segment in enumerate(segments):
        frames.extend(segment)
        if i < len(relocated):
            start = len(frames)
            frames.extend(relocated[i])
            spans.append(Span(start, len(frames)))
    arr = np.array(frames, dtype=np.int64) if frames else np.zeros((0, seq.num_codebooks), dtype=np.int64)
    matrix = CodecMatrix(arr, frame_rate=seq.frame_rate, codebook_sizes=seq.codebook_sizes)
    return matrix, spans


# ---------------------------------------------------------------------------
# Delayed stacking and its inverse
# ---------------------------------------------------------------------------


def stack_span(frames: list[FrameTuple], num_codebooks: int) -> list[FrameTuple]:
    """Apply the delay pattern to one span: L frames -> L + K - 1 steps.

    Step t carries, at codebook k (1-based), the token of frame t - k + 1;
    coordinates outside [0, L) hold the EMPTY filler.
    """
    k_count = num_codebooks
    length = len(frames)
    steps = []
    for t in range(length + k_count - 1):
        step = []
        for k in range(1, k_count + 1):
            f = t - k + 1
            step.append(frames[f][k - 1] if 0 <= f < length else EMPTY)
        steps.append(tuple(step))
    return steps


def unstack_span(steps: list[FrameTuple], num_codebooks: int, item_offset: int = 0) -> list[FrameTuple]:
    """Invert :func:`stack_span`, verifying the forced-EMPTY pattern.

    ``item_offset`` locates the run inside a larger item list so structure
    errors can name the absolute index of the offending step.
    """
    k_count = num_codebooks
    length = len(steps) - (k_count - 1)
    if length < 0:
        raise StructureError("stacked run shorter than the delay tail", item_offset)
    frames = [[0] * k_count for _ in range(length)]
    for t, step in enumerate(steps):
        if len(step) != k_count:
            raise StructureError(f"stacked step has {len(step)} slots, expected {k_count}", item_offset + t)
        for k in range(1, k_count + 1):
            f = t - k + 1
            token = step[k - 1]
            if 0 <= f < length:
                if token == EMPTY:
                    raise StructureError(
                        f"EMPTY at real coordinate (frame {f}, codebook {k})", item_offset + t
                    )
                frames[f][k - 1] = token
            elif token != EMPTY:
                raise StructureError(
                    f"real token at forced-EMPTY coordinate (step {t}, codebook {k})",
                    item_offset + t,
                )
    return [tuple(f) for f in frames]


def _join_runs(unmasked: list, relocated: list) -> list:
    """Lay runs out as ``U1 <M1> U2 ... EOU <M1> D1 EOS ...``."""
    items: list = []
    for i, run in enumerate(unmasked):
        items.extend(run)
        if i < len(relocated):
            items.append(mask_marker(i + 1))
    items.append(EOU)
    for i, run in enumerate(relocated):
        items.append(mask_marker(i + 1))
        items.extend(run)
        items.append(EOS)
    return items


def delay_stack(seq: RearrangedSequence) -> RearrangedSequence:
    """Apply the delay pattern to every span of Y; markers pass through."""
    k_count = seq.num_codebooks

    def stack(run, offset, mask_index):
        return stack_span(_frame_run(run, offset, mask_index), k_count)

    items = _join_runs(*_parse_layout(seq.items, stack))
    return RearrangedSequence(items, seq.frame_rate, seq.codebook_sizes)


def unstack(seq: RearrangedSequence) -> RearrangedSequence:
    """Exact inverse of :func:`delay_stack`; EMPTY fillers are discarded."""
    k_count = seq.num_codebooks

    def unstack_run(run, offset, mask_index):
        return unstack_span(run, k_count, item_offset=offset)

    items = _join_runs(*_parse_layout(seq.items, unstack_run))
    return RearrangedSequence(items, seq.frame_rate, seq.codebook_sizes)


# ---------------------------------------------------------------------------
# Splicing generated spans back into the source matrix
# ---------------------------------------------------------------------------


def splice(matrix: CodecMatrix, spans: list[Span], generated: list[np.ndarray]) -> CodecMatrix:
    """Replace each span's frames with the corresponding generated frames.

    Generated lengths may differ from the original span lengths (an empty
    replacement deletes the span).  Frames outside the spans are copied
    bit-identically.
    """
    validate_spans(spans, matrix.num_frames)
    if len(spans) != len(generated):
        raise InvalidInputError(
            f"{len(spans)} spans but {len(generated)} generated sequences"
        )
    pieces = []
    cursor = 0
    for span, gen in zip(spans, generated):
        pieces.append(matrix.frames[cursor:span.start])
        gen = np.asarray(gen, dtype=np.int64).reshape(-1, matrix.num_codebooks)
        pieces.append(gen)
        cursor = span.end
    pieces.append(matrix.frames[cursor:])
    frames = np.concatenate(pieces, axis=0) if pieces else matrix.frames
    return CodecMatrix(frames, frame_rate=matrix.frame_rate, codebook_sizes=matrix.codebook_sizes)


def format_items(items: list) -> str:
    """Human-readable rendering of a Y or Z item list (debugging aid)."""
    parts = []
    for item in items:
        if isinstance(item, SpecialToken):
            parts.append(str(item))
        else:
            parts.append("(" + ",".join("_" if v == EMPTY else str(v) for v in item) + ")")
    return " ".join(parts)
