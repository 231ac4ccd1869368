"""Editing and continuation pipelines over a trained infilling model.

Editing works by diffing the original and target transcripts, mapping the
changed words to frame spans through the word alignment, widening each
span by a margin (in seconds) to absorb co-articulation at the
boundaries, regenerating the masked spans conditioned on the target
transcript plus the unmasked context, and splicing the generations back.
The margin is swept over a schedule, the longest candidates are
discarded, and one survivor is chosen at random (seeded).

Continuation from a voice prompt is the degenerate case: a single mask
marker after the whole prompt, shortest-of-N selection.

Decoding contract
-----------------
Generation happens in stacked space, one step t at a time: codebook k
(0-based) of step t holds frame t - k, and a coordinate outside
[0, L) is EMPTY.  While the span's frame count L is open, only the
leading forced-EMPTY coordinates exist; everything else is sampled with
the marker/EMPTY ids structurally banned, so fed-back inputs always look
like training data.  When the first codebook emits the EOS id (or the
step cap is reached) L is fixed, the steps run on to t = L + K - 2,
sampling only the coordinates the delay pattern marks real, and a full
EOS marker step closes the span.  The collected steps therefore always
unstack cleanly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, InvalidInputError
from .model import ModelConfig
from .rearrange import causal_mask, delay_stack, splice, stack_span, unstack_span
from .tokens import EMPTY, EOS, EOU, CodecMatrix, Span, mask_marker, validate_spans

# ---------------------------------------------------------------------------
# Transcript diffing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EditOp:
    """One contiguous change: original word range -> replacement word range."""

    kind: str  # "insertion" | "deletion" | "substitution"
    orig_start: int
    orig_end: int
    repl_start: int
    repl_end: int


@dataclass
class EditScript:
    ops: list[EditOp] = field(default_factory=list)

    def __bool__(self):
        return bool(self.ops)


def diff_transcripts(original: list, target: list) -> EditScript:
    """Minimal word-level edit script (unit costs), adjacent changes merged.

    The dynamic program prefers matches, then substitutions, then
    deletions, then insertions on ties, which yields a deterministic
    backtrace; runs of non-match steps collapse into single ops.
    """
    n, m = len(original), len(target)
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[:, 0] = np.arange(n + 1)
    cost[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = original[i - 1] == target[j - 1]
            cost[i, j] = min(
                cost[i - 1, j - 1] + (0 if same else 1),
                cost[i - 1, j] + 1,
                cost[i, j - 1] + 1,
            )
    # backtrace into (op, i, j) steps
    steps = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and original[i - 1] == target[j - 1] and cost[i, j] == cost[i - 1, j - 1]:
            steps.append(("match", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and cost[i, j] == cost[i - 1, j - 1] + 1:
            steps.append(("sub", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and cost[i, j] == cost[i - 1, j] + 1:
            steps.append(("del", i - 1, j))
            i = i - 1
        else:
            steps.append(("ins", i, j - 1))
            j = j - 1
    steps.reverse()

    ops: list[EditOp] = []
    block = None  # [orig_start, orig_end, repl_start, repl_end]
    for kind, oi, tj in steps:
        if kind == "match":
            if block is not None:
                ops.append(_classify_block(*block))
                block = None
            continue
        o_lo, o_hi = (oi, oi + 1) if kind in ("sub", "del") else (oi, oi)
        t_lo, t_hi = (tj, tj + 1) if kind in ("sub", "ins") else (tj, tj)
        if block is None:
            block = [o_lo, o_hi, t_lo, t_hi]
        else:
            block[1] = max(block[1], o_hi)
            block[3] = max(block[3], t_hi)
    if block is not None:
        ops.append(_classify_block(*block))
    return EditScript(ops)


def _classify_block(o_lo, o_hi, t_lo, t_hi) -> EditOp:
    if o_lo == o_hi:
        kind = "insertion"
    elif t_lo == t_hi:
        kind = "deletion"
    else:
        kind = "substitution"
    return EditOp(kind, o_lo, o_hi, t_lo, t_hi)


def apply_script(script: EditScript, original: list, target_words: list) -> list:
    """Replay the script against the original; used to verify minimality."""
    out = []
    cursor = 0
    for op in script.ops:
        out.extend(original[cursor:op.orig_start])
        out.extend(target_words[op.repl_start:op.repl_end])
        cursor = op.orig_end
    out.extend(original[cursor:])
    return out


# ---------------------------------------------------------------------------
# Alignment and span selection
# ---------------------------------------------------------------------------


@dataclass
class Alignment:
    """Frame span of every original word, plus the total frame count."""

    word_spans: list[Span]
    total_frames: int

    def __post_init__(self):
        validate_spans(self.word_spans, self.total_frames)


def select_edit_spans(
    script: EditScript, align: Alignment, epsilon: float, frame_rate: int
) -> list[Span]:
    """Frame spans to mask for an edit, with an epsilon-second margin.

    Substitutions and deletions mask the changed words' frames extended
    by floor(epsilon * frame_rate) on both sides; insertions mask a
    window of width 2 * margin centred on the boundary between the two
    neighbouring words (clamped to at least one frame per side so the
    insertion point is generatable).  Overlapping spans merge.
    """
    margin = int(np.floor(epsilon * frame_rate))
    total = align.total_frames
    spans = align.word_spans
    raw: list[tuple[int, int]] = []
    for op in script.ops:
        if op.kind == "insertion":
            if op.orig_start > len(spans):
                raise AlignmentError(
                    f"insertion at word boundary {op.orig_start} with no alignment"
                )
            if op.orig_start == 0:
                boundary = spans[0].start if spans else 0
            elif op.orig_start == len(spans):
                boundary = spans[-1].end
            else:
                boundary = (spans[op.orig_start - 1].end + spans[op.orig_start].start) // 2
            half = max(margin, 1)  # a zero-width mask cannot host a marker
            lo, hi = boundary - half, boundary + half
        else:
            if op.orig_end > len(spans):
                raise AlignmentError(
                    f"edit references word {op.orig_end - 1} with no alignment"
                )
            lo = spans[op.orig_start].start - margin
            hi = spans[op.orig_end - 1].end + margin
        raw.append((max(0, lo), min(total, hi)))
    raw.sort()
    merged: list[list[int]] = []
    for lo, hi in raw:
        if merged and lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [Span(lo, hi) for lo, hi in merged if hi > lo]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass
class SamplingConfig:
    top_p: float = 0.8
    temperature: float = 1.0
    repetition_gamma: float = 0.5
    max_generated_steps: int = 200  # cap on generated frames per span
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.top_p <= 1.0):
            raise InvalidInputError("top_p must be in (0, 1]")
        if self.temperature <= 0:
            raise InvalidInputError("temperature must be positive")
        if self.repetition_gamma < 0:
            raise InvalidInputError("repetition_gamma must be >= 0")


@dataclass
class EditConfig:
    margin_schedule: tuple[float, ...] = tuple(round(0.05 + 0.01 * i, 2) for i in range(10))
    num_candidates: int = 10
    num_discard_longest: int = 4
    tts_num_samples: int = 5

    def __post_init__(self):
        if self.num_discard_longest >= self.num_candidates:
            raise InvalidInputError("num_discard_longest must be < num_candidates")
        if len(self.margin_schedule) != self.num_candidates:
            raise InvalidInputError("margin_schedule length must equal num_candidates")


@dataclass
class RunState:
    """Consecutive-run tracker for one codebook head."""

    token: int | None = None
    length: int = 0

    def update(self, token: int):
        if token == self.token:
            self.length += 1
        else:
            self.token = token
            self.length = 1


def nucleus_distribution(logits, cfg: SamplingConfig, run_state: RunState, allowed=None):
    """Token ids and renormalized probabilities of the top-p nucleus.

    Applies temperature, subtracts repetition_gamma * run_length from the
    running token's logit, optionally restricts to ``allowed`` ids, then
    keeps the smallest probability-sorted prefix with cumulative mass
    >= top_p (ties by token id; the crossing token is included).
    """
    z = np.asarray(logits, dtype=np.float64) / cfg.temperature
    if run_state.token is not None and cfg.repetition_gamma > 0:
        z = z.copy()
        z[run_state.token] -= cfg.repetition_gamma * run_state.length
    if allowed is not None:
        masked = np.full_like(z, -np.inf)
        masked[allowed] = z[allowed]
        z = masked
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    order = np.lexsort((np.arange(len(probs)), -probs))
    cumulative = np.cumsum(probs[order])
    # tolerance guards float roundoff when the boundary lands exactly on p
    cut = int(np.searchsorted(cumulative, cfg.top_p - 1e-12, side="left"))
    cut = min(cut, len(order) - 1)
    ids = order[: cut + 1]
    kept = probs[ids]
    return ids, kept / kept.sum()


def sample_token(logits, cfg: SamplingConfig, run_state: RunState, rng, allowed=None) -> int:
    """Nucleus-sample one token id; the caller updates ``run_state``."""
    ids, probs = nucleus_distribution(logits, cfg, run_state, allowed)
    return int(ids[rng.choice(len(ids), p=probs)])


# ---------------------------------------------------------------------------
# Span generation
# ---------------------------------------------------------------------------


@dataclass
class GenerationResult:
    spans: list[np.ndarray]  # one (L, K) frame array per mask
    truncated: list[bool]


def build_infill_context(matrix: CodecMatrix, spans: list[Span]) -> list:
    """Stacked context items: unmasked spans with markers, through EOU."""
    stacked = delay_stack(causal_mask(matrix, spans))
    eou_index = stacked.items.index(EOU)
    return stacked.items[: eou_index + 1]


def generate_infill(
    decoder,
    model_cfg: ModelConfig,
    text_ids: list[int],
    context_items: list,
    num_masks: int,
    cfg: SamplingConfig,
    rng: np.random.Generator,
) -> GenerationResult:
    """Autoregressively fill each mask marker in order.

    ``decoder`` provides ``new_session(text_ids, items)`` returning a
    session with ``logits`` (K next-item vectors) and ``append(item)``.
    Returns one (L, K) frame array per mask; spans whose frame budget ran
    out before the first codebook emitted EOS are flagged truncated.
    """
    if num_masks == 0:
        return GenerationResult([], [])
    if num_masks > model_cfg.max_mask_spans:
        raise InvalidInputError(
            f"{num_masks} masks exceed the model's {model_cfg.max_mask_spans} mask markers"
        )
    k_count = model_cfg.num_codebooks
    eos_ids = [model_cfg.special_output_id(k, "eos") for k in range(k_count)]
    real_allowed = [np.arange(model_cfg.codebook_sizes[k]) for k in range(k_count)]
    head1_allowed = np.concatenate([real_allowed[0], [eos_ids[0]]])

    session = decoder.new_session(text_ids, context_items)
    spans_out: list[np.ndarray] = []
    truncated_flags: list[bool] = []
    for mask_index in range(1, num_masks + 1):
        session.append(mask_marker(mask_index))
        run_states = [RunState() for _ in range(k_count)]
        steps: list[tuple[int, ...]] = []
        truncated = False
        length = None
        for t in itertools.count():
            if length is None:
                if t >= cfg.max_generated_steps:
                    length, truncated = t, True
                else:
                    head1 = sample_token(session.logits[0], cfg, run_states[0], rng, head1_allowed)
                    if head1 == eos_ids[0]:
                        length = t
            if length is not None and t == length + k_count - 1:
                break
            # codebook k holds frame t - k; coordinates outside [0, length) are EMPTY
            step = []
            for k in range(k_count):
                frame = t - k
                if frame < 0 or (length is not None and frame >= length):
                    step.append(EMPTY)
                    continue
                token = head1 if k == 0 else sample_token(
                    session.logits[k], cfg, run_states[k], rng, real_allowed[k]
                )
                run_states[k].update(token)
                step.append(token)
            steps.append(tuple(step))
            session.append(tuple(step))
        session.append(EOS)
        frames = unstack_span(steps, k_count)
        arr = (
            np.array(frames, dtype=np.int64)
            if frames
            else np.zeros((0, k_count), dtype=np.int64)
        )
        spans_out.append(arr)
        truncated_flags.append(truncated)
    return GenerationResult(spans_out, truncated_flags)


# ---------------------------------------------------------------------------
# Editing pipeline
# ---------------------------------------------------------------------------


@dataclass
class CandidateReport:
    epsilon: float
    length: int
    truncated: bool


@dataclass
class EditReport:
    candidate_lengths: list[int]
    chosen_index: int
    candidates: list[CandidateReport]
    identity: bool = False


def discard_longest(lengths: list[int], num_discard: int) -> list[int]:
    """Indices that survive after dropping the num_discard longest outputs.

    Ties break toward keeping earlier candidates.
    """
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    keep = order[: len(lengths) - num_discard]
    return sorted(keep)


def edit_speech(
    decoder,
    model_cfg: ModelConfig,
    matrix: CodecMatrix,
    words: list,
    target_words: list,
    align: Alignment,
    edit_cfg: EditConfig,
    sampling_cfg: SamplingConfig,
) -> tuple[CodecMatrix, EditReport]:
    """Regenerate the edited regions of an utterance to match the target.

    Runs one candidate per margin value, discards the longest outputs,
    and picks one survivor uniformly at random (seeded).  Frames outside
    the widest margin's spans are bit-identical to the input.
    """
    script = diff_transcripts(words, target_words)
    if not script:
        report = EditReport([], 0, [], identity=True)
        return matrix, report

    candidates: list[CodecMatrix] = []
    reports: list[CandidateReport] = []
    for i, epsilon in enumerate(edit_cfg.margin_schedule):
        spans = select_edit_spans(script, align, epsilon, matrix.frame_rate)
        context = build_infill_context(matrix, spans)
        rng = np.random.default_rng([sampling_cfg.seed, i])
        result = generate_infill(
            decoder, model_cfg, list(target_words), context, len(spans), sampling_cfg, rng
        )
        candidate = splice(matrix, spans, result.spans)
        candidates.append(candidate)
        reports.append(
            CandidateReport(epsilon, candidate.num_frames, any(result.truncated))
        )
    lengths = [c.num_frames for c in candidates]
    survivors = discard_longest(lengths, edit_cfg.num_discard_longest)
    selector = np.random.default_rng([sampling_cfg.seed, 0x5E1EC7])
    chosen = int(survivors[selector.integers(0, len(survivors))])
    report = EditReport(lengths, chosen, reports)
    return candidates[chosen], report


# ---------------------------------------------------------------------------
# Zero-shot continuation
# ---------------------------------------------------------------------------


@dataclass
class TtsReport:
    candidate_lengths: list[int]
    chosen_index: int
    truncated: list[bool]
    identity: bool = False


def zero_shot_tts(
    decoder,
    model_cfg: ModelConfig,
    prompt_tokens: CodecMatrix,
    prompt_text: list[int],
    target_text: list[int],
    edit_cfg: EditConfig,
    sampling_cfg: SamplingConfig,
) -> tuple[CodecMatrix, TtsReport]:
    """Continue a voice prompt so it reads the target text.

    A single mask marker follows the whole prompt (a terminal insertion);
    of ``tts_num_samples`` seeded generations the shortest wins, ties
    going to the lowest seed index.  The prompt frames are preserved
    verbatim at the front of the result.
    """
    if not target_text:
        return prompt_tokens, TtsReport([], 0, [], identity=True)
    k_count = model_cfg.num_codebooks
    prompt_frames = [tuple(int(v) for v in row) for row in prompt_tokens.frames]
    context = (
        stack_span(prompt_frames, k_count)
        + [mask_marker(1)]
        + stack_span([], k_count)
        + [EOU]
    )
    text_ids = list(prompt_text) + list(target_text)
    generations: list[np.ndarray] = []
    truncated: list[bool] = []
    for s in range(edit_cfg.tts_num_samples):
        rng = np.random.default_rng([sampling_cfg.seed, s])
        result = generate_infill(decoder, model_cfg, text_ids, context, 1, sampling_cfg, rng)
        generations.append(result.spans[0])
        truncated.append(result.truncated[0])
    lengths = [len(g) for g in generations]
    chosen = int(np.argmin(lengths))  # first occurrence wins ties
    frames = np.concatenate([prompt_tokens.frames, generations[chosen]], axis=0)
    out = CodecMatrix(
        frames, frame_rate=prompt_tokens.frame_rate, codebook_sizes=prompt_tokens.codebook_sizes
    )
    return out, TtsReport(lengths, chosen, truncated)
