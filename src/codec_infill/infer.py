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

The candidates of one request decode together as the rows of one
session: every step appends one item to each row still decoding (its
next mask marker, a frame step, or the EOS closing a span), so rows
with different numbers of masks, or whose spans end at different steps,
simply leave the batch once their last span is closed.  Each row draws
from its own generator (candidate i of an edit uses
``default_rng([seed, i])``), one draw per sampled coordinate, head 1
first and then heads 2..K in order, exactly the draws the row would make
decoded alone.  A row's output therefore depends on the other rows only
through the rounding of the batched forward pass.  Every coordinate of a
step, across heads and rows, is drawn in one :func:`sample_token` call
(one per run of consecutive heads of equal vocabulary size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, Count, InvalidInputError, Natural, NonNegative, Positive, Share, check_bounds
from .metrics import edit_distance_table
from .model import ModelConfig
from .rearrange import causal_mask, delay_stack, splice, stack_span, unstack_span
from .tokens import EMPTY, EOS, EOU, Alignment, CodecMatrix, Span, mask_marker

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


def diff_transcripts(original: list, target: list) -> list[EditOp]:
    """Minimal word-level edit script (unit costs), adjacent changes merged.

    The dynamic program prefers matches, then substitutions, then
    deletions, then insertions on ties, which yields a deterministic
    backtrace; runs of non-match steps collapse into single ops.
    """
    cost = edit_distance_table(original, target)
    # backtrace into (op, i, j) steps
    steps = []
    i, j = len(original), len(target)
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
    return ops


def _classify_block(o_lo, o_hi, t_lo, t_hi) -> EditOp:
    if o_lo == o_hi:
        kind = "insertion"
    elif t_lo == t_hi:
        kind = "deletion"
    else:
        kind = "substitution"
    return EditOp(kind, o_lo, o_hi, t_lo, t_hi)


# ---------------------------------------------------------------------------
# Span selection
# ---------------------------------------------------------------------------


def select_edit_spans(
    script: list[EditOp], align: Alignment, epsilon: float, frame_rate: int
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
    for op in script:
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
    top_p: Share = 0.8
    temperature: Positive = 1.0
    repetition_gamma: NonNegative = 0.5
    max_generated_steps: Count = 200  # cap on generated frames per span
    seed: Natural = 0

    def __post_init__(self):
        check_bounds(self)


@dataclass
class EditConfig:
    margin_schedule: tuple[NonNegative, ...] = tuple(round(0.05 + 0.01 * i, 2) for i in range(10))  # < 0 selects no span
    num_discard_longest: Natural = 4
    tts_num_samples: Count = 5

    def __post_init__(self):
        check_bounds(self)
        if self.num_discard_longest >= len(self.margin_schedule):
            raise InvalidInputError("num_discard_longest must be < the number of margins")


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


def sample_token(logits, cfg: SamplingConfig, runs, rngs, allowed) -> np.ndarray:
    """Nucleus-sample one token id for each row of ``logits`` (rows, V).

    Row r applies temperature, subtracts repetition_gamma * run length
    from the logit of its running token ``runs[r]`` (the caller updates
    the runs), restricts to the ids where the boolean keep-mask
    ``allowed`` is true (shape (V,) or (rows, V); it broadcasts against
    the logits), then keeps the smallest probability-sorted prefix with
    cumulative mass >= top_p (ties by token id; the crossing token is
    included).  It draws from the renormalized nucleus with one
    ``rngs[r].random()``, which picks exactly what
    ``rngs[r].choice(n, p=nucleus)`` would.  The generators are drawn in
    row order, so a generator that holds several rows is drawn for them
    top to bottom.
    """
    z = np.asarray(logits, dtype=np.float64) / cfg.temperature
    held = [(r, run.token, run.length) for r, run in enumerate(runs) if run.token is not None]
    if cfg.repetition_gamma > 0 and held:
        r, token, length = np.array(held).T
        z[r, token] -= cfg.repetition_gamma * length
    z = np.where(allowed, z, -np.inf)
    z -= z.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    # values only: a stable argsort would rank ties by id directly, but it costs
    # ~100 us against ~12 us on 10 rows of 257 ids, ~30 ms of an `eval` record
    ranked = -np.sort(-probs, axis=1)  # each row's probabilities, largest first
    cumulative = np.cumsum(ranked, axis=1)
    # tolerance guards float roundoff when the boundary lands exactly on p
    sizes = np.minimum((cumulative < cfg.top_p - 1e-12).sum(axis=1), z.shape[1] - 1) + 1
    rows = np.arange(len(z))
    # each row's nucleus is one contiguous run of the reduction, so it is summed
    # pairwise, bit for bit as a 1-D ``ranked[r, :n].sum()``
    mass = np.add.reduce(ranked, axis=1, where=np.arange(z.shape[1]) < sizes[:, None])
    cdf = np.cumsum(ranked / mass[:, None], axis=1)
    cdf /= cdf[rows, sizes - 1][:, None]
    draws = np.array([rng.random() for rng in rngs])
    # past the nucleus the cdf is >= 1.0 and a draw is < 1, so only nucleus steps count
    picks = (cdf <= draws[:, None]).sum(axis=1)
    # the token at rank `pick`: among the ids of its probability, by id, the
    # one at its offset past the ids of larger probability
    value = ranked[rows, picks][:, None]
    nth = picks - (probs > value).sum(axis=1)
    return np.argmax(np.cumsum(probs == value, axis=1) > nth[:, None], axis=1)


# ---------------------------------------------------------------------------
# Span generation
# ---------------------------------------------------------------------------


@dataclass
class GenerationResult:
    spans: list[np.ndarray]  # one (L, K) frame array per mask, every row's masks in row order
    truncated: list[bool]
    row_masks: list[int]     # masks of each row; row r owns the next row_masks[r] spans
    prefill_positions: int = 0
    decode_steps: int = 0    # batched appends

    def by_row(self) -> list[tuple[list[np.ndarray], list[bool]]]:
        """(spans, truncation flags) of each row."""
        out, first = [], 0
        for n in self.row_masks:
            out.append((self.spans[first : first + n], self.truncated[first : first + n]))
            first += n
        return out


def build_infill_context(matrix: CodecMatrix, spans: list[Span]) -> list:
    """Stacked context items: unmasked spans with markers, through EOU."""
    stacked = delay_stack(causal_mask(matrix, spans))
    eou_index = stacked.items.index(EOU)
    return stacked.items[: eou_index + 1]


class _InfillRow:
    """Where one row of :func:`generate_infill` stands."""

    def __init__(self, num_masks: int, rng, k_count: int):
        self.num_masks, self.rng, self.k_count = num_masks, rng, k_count
        self.mask = 0   # masks begun so far
        self.t = None   # step within the current span; None while a mask marker is due
        self.spans: list[np.ndarray] = []
        self.truncated: list[bool] = []

    def open_span(self):
        self.mask += 1
        self.t, self.length, self.cut = 0, None, False
        self.runs = [RunState() for _ in range(self.k_count)]
        self.steps: list[tuple[int, ...]] = []

    def closing(self) -> bool:
        return self.length is not None and self.t == self.length + self.k_count - 1

    def has_frame(self, k: int) -> bool:
        # codebook k holds frame t - k; coordinates outside [0, length) are EMPTY
        frame = self.t - k
        return frame >= 0 and (self.length is None or frame < self.length)

    def close_span(self):
        frames = unstack_span(self.steps, self.k_count)
        self.spans.append(
            np.array(frames, dtype=np.int64) if frames else np.zeros((0, self.k_count), dtype=np.int64)
        )
        self.truncated.append(self.cut)
        self.t = None

    @property
    def done(self) -> bool:
        return self.t is None and self.mask == self.num_masks


def generate_infill(
    decoder,
    model_cfg: ModelConfig,
    rows: list,
    cfg: SamplingConfig,
    rngs: list,
) -> GenerationResult:
    """Autoregressively fill the mask markers of several contexts at once.

    ``rows`` holds one ``(text_ids, context_items, num_masks)`` per row and
    ``rngs`` one generator per row.  The rows with masks decode together
    in one ``decoder.new_session(contexts)``, a session with
    ``logits`` (one (rows, V_k) array per codebook head, each head a
    two-layer FFN block), ``append(items)`` (one item per row),
    ``keep(rows)`` and ``prefill_positions``.  Rows that share their
    ``text_ids`` and context objects share one prefill.  A row leaves the
    session once its last span is closed.  Returns one (L, K)
    frame array per mask, every row's masks in row order; spans whose
    frame budget ran out before the first codebook emitted EOS are
    flagged truncated.

    Each step draws head 1 of the rows whose length is open and heads
    2..K of the rows that hold their frame in one :func:`sample_token`
    call, its rows ordered head-major so that every generator is drawn in
    head order.  Heads whose vocabulary sizes differ draw in one call per
    run of consecutive equal sizes.  Head 1 may emit EOS; the other heads
    keep only real ids.
    """
    if len(rngs) != len(rows):
        raise InvalidInputError(f"{len(rows)} rows need {len(rows)} generators, got {len(rngs)}")
    for _, _, num_masks in rows:
        if num_masks > model_cfg.max_mask_spans:
            raise InvalidInputError(
                f"{num_masks} masks exceed the model's {model_cfg.max_mask_spans} mask markers"
            )
    k_count = model_cfg.num_codebooks
    eos_id = model_cfg.special_output_id(0, "eos")
    keep = [np.arange(model_cfg.head_vocab_size(k)) < model_cfg.codebook_sizes[k] for k in range(k_count)]
    keep[0][eos_id] = True  # head 1 may also end the span
    # one draw per run of consecutive heads of equal width: padding to a common
    # width would change the softmax sums
    groups: list[list[int]] = []
    for k in range(k_count):
        if groups and len(keep[k]) == len(keep[k - 1]):
            groups[-1].append(k)
        else:
            groups.append([k])
    group_keep = [np.array([keep[k] for k in heads]) for heads in groups]

    states = [_InfillRow(n, rng, k_count) for (_, _, n), rng in zip(rows, rngs)]
    active = [state for state in states if state.num_masks > 0]
    prefill_positions = decode_steps = 0
    if active:
        session = decoder.new_session([(t, c) for t, c, n in rows if n > 0])
        prefill_positions = session.prefill_positions

    while active:
        spanning = [j for j, row in enumerate(active) if row.t is not None]
        for j in spanning:
            row = active[j]
            if row.length is None and row.t >= cfg.max_generated_steps:
                row.length, row.cut = row.t, True
        # the rows each head draws for, fixed before drawing: a head-1 EOS at step t sets
        # length = t, which changes neither has_frame(k >= 1) nor, when K > 1, closing() at t
        need = [[j for j in spanning if active[j].length is None]] + [
            [j for j in spanning if active[j].has_frame(k)] for k in range(1, k_count)
        ]
        frames = []  # (row, head, id) of every drawn id but head 1's EOS
        for heads, masks in zip(groups, group_keep):
            order = [(j, k) for k in heads for j in need[k]]  # head-major: each row's heads in order
            if not order:
                continue
            tokens = sample_token(
                np.concatenate([session.logits[k][need[k]] for k in heads]), cfg,
                [active[j].runs[k] for j, k in order], [active[j].rng for j, _ in order],
                np.repeat(masks, [len(need[k]) for k in heads], axis=0),
            )
            for (j, k), token in zip(order, tokens.tolist()):
                if k == 0 and token == eos_id:
                    active[j].length = active[j].t
                else:
                    frames.append((j, k, token))
        # every row appends one item: a mask marker, a frame step or the EOS closing its span
        items = [mask_marker(row.mask + 1) if row.t is None else EOS for row in active]
        framing = [j for j in spanning if not active[j].closing()]
        steps = {j: [EMPTY] * k_count for j in framing}
        for j, k, token in frames:
            steps[j][k] = token
            active[j].runs[k].update(token)
        for j in framing:
            items[j] = tuple(steps[j])
            active[j].steps.append(items[j])
        session.append(items)
        decode_steps += 1
        for j, row in enumerate(active):
            if row.t is None:
                row.open_span()
            elif j in steps:
                row.t += 1
            else:
                row.close_span()
        keep = [j for j, row in enumerate(active) if not row.done]
        if len(keep) < len(active):
            active = [active[j] for j in keep]
            if active:
                session.keep(keep)
    return GenerationResult(
        [span for state in states for span in state.spans],
        [flag for state in states for flag in state.truncated],
        [state.num_masks for state in states],
        prefill_positions,
        decode_steps,
    )


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
    prefill_positions: int = 0  # positions the decode prefill ran
    decode_steps: int = 0       # batched appends of the decode


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

    Decodes one candidate per margin value, all as the rows of one
    batch (candidate i draws from ``default_rng([seed, i])``), discards
    the longest outputs, and picks one survivor uniformly at random
    (seeded).  Frames outside the widest margin's spans are bit-identical
    to the input.
    """
    script = diff_transcripts(words, target_words)
    if not script:
        report = EditReport([], 0, [], identity=True)
        return matrix, report

    margins = edit_cfg.margin_schedule
    span_sets = [tuple(select_edit_spans(script, align, eps, matrix.frame_rate)) for eps in margins]
    # one context object per distinct span set: margins that give the same spans share a prefill
    contexts = {spans: build_infill_context(matrix, spans) for spans in set(span_sets)}
    text_ids = list(target_words)
    rows = [(text_ids, contexts[spans], len(spans)) for spans in span_sets]
    rngs = [np.random.default_rng([sampling_cfg.seed, i]) for i in range(len(margins))]
    result = generate_infill(decoder, model_cfg, rows, sampling_cfg, rngs)
    candidates: list[CodecMatrix] = []
    reports: list[CandidateReport] = []
    for epsilon, spans, (generated, truncated) in zip(margins, span_sets, result.by_row()):
        candidate = splice(matrix, spans, generated)
        candidates.append(candidate)
        reports.append(CandidateReport(epsilon, candidate.num_frames, any(truncated)))
    lengths = [c.num_frames for c in candidates]
    survivors = discard_longest(lengths, edit_cfg.num_discard_longest)
    selector = np.random.default_rng([sampling_cfg.seed, 0x5E1EC7])
    chosen = int(survivors[selector.integers(0, len(survivors))])
    report = EditReport(
        lengths, chosen, reports,
        prefill_positions=result.prefill_positions, decode_steps=result.decode_steps,
    )
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
    prefill_positions: int = 0  # positions the decode prefill ran
    decode_steps: int = 0       # batched appends of the decode


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
    of ``tts_num_samples`` seeded generations, decoded as the rows of one
    batch from one shared prefill, the shortest wins, ties going to the
    lowest seed index.  The prompt frames are preserved verbatim at the
    front of the result.
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
    samples = edit_cfg.tts_num_samples
    rngs = [np.random.default_rng([sampling_cfg.seed, s]) for s in range(samples)]
    result = generate_infill(decoder, model_cfg, [(text_ids, context, 1)] * samples, sampling_cfg, rngs)
    lengths = [len(g) for g in result.spans]
    chosen = int(np.argmin(lengths))  # first occurrence wins ties
    frames = np.concatenate([prompt_tokens.frames, result.spans[chosen]], axis=0)
    out = CodecMatrix(
        frames, frame_rate=prompt_tokens.frame_rate, codebook_sizes=prompt_tokens.codebook_sizes
    )
    report = TtsReport(
        lengths, chosen, result.truncated,
        prefill_positions=result.prefill_positions, decode_steps=result.decode_steps,
    )
    return out, report
