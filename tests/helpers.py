"""Shared test utilities: randomized-case generators and stub decoders."""

import numpy as np

from codec_infill.model import ModelConfig, distinct_rows, encode_batch
from codec_infill.tokens import EMPTY, CodecMatrix, Span, SpecialToken


def random_matrix(rng, num_frames, num_codebooks, vocab=64):
    frames = rng.integers(0, vocab, size=(num_frames, num_codebooks))
    return CodecMatrix(frames, codebook_sizes=(vocab,) * num_codebooks)


def random_spans(rng, num_frames, max_spans=3):
    """Random sorted disjoint spans, biased to hit boundary/adjacent cases."""
    n = int(rng.integers(0, max_spans + 1))
    spans = []
    cursor = 0
    for _ in range(n):
        remaining = num_frames - cursor
        if remaining < 1:
            break
        gap_choices = [0, int(rng.integers(0, remaining))]
        gap = int(rng.choice(gap_choices))
        start = cursor + gap
        if start >= num_frames:
            break
        length = int(rng.integers(1, num_frames - start + 1))
        if bool(rng.random() < 0.5):
            length = min(length, max(1, (num_frames - start) // 2))
        spans.append(Span(start, start + length))
        cursor = start + length
    return spans


def random_rearrangement_case(rng):
    """A (matrix, spans) pair covering small T, K in 1..4, edge placements."""
    num_frames = int(rng.integers(1, 41))
    num_codebooks = int(rng.integers(1, 5))
    matrix = random_matrix(rng, num_frames, num_codebooks)
    spans = random_spans(rng, num_frames)
    return matrix, spans


def distinct_matrix(num_frames, num_codebooks):
    """Matrix whose token values are globally unique (searchable)."""
    frames = np.arange(num_frames * num_codebooks).reshape(num_frames, num_codebooks)
    vocab = num_frames * num_codebooks
    return CodecMatrix(frames, codebook_sizes=(vocab,) * num_codebooks)


def next_item_targets_oracle(text_ids, items, cfg: ModelConfig):
    """Per-item reference for ``next_item_targets`` over one [text; items] stream."""
    stream = list(text_ids) + list(items)
    k_count = cfg.num_codebooks
    targets = np.zeros((len(stream), k_count), dtype=np.int64)
    mask = np.zeros((len(stream), k_count), dtype=bool)
    for t in range(len(stream) - 1):
        nxt = stream[t + 1]
        if t + 1 < len(text_ids):
            continue  # conditioning text carries no loss
        if isinstance(nxt, SpecialToken):
            for k in range(k_count):
                targets[t, k] = cfg.special_output_id(k, nxt.kind, nxt.index)
            if nxt.kind in ("eos", "eou"):
                mask[t, :] = True
        else:
            for k in range(k_count):
                if nxt[k] == EMPTY:
                    targets[t, k] = cfg.special_output_id(k, "empty")
                else:
                    targets[t, k] = nxt[k]
                    mask[t, k] = True
    return targets, mask


def nucleus_distribution(logits, cfg, run_state, allowed=None):
    """Per-row reference for the nucleus inside ``infer.sample_token``.

    Token ids and renormalized probabilities of the top-p nucleus: applies
    temperature, subtracts repetition_gamma * run_length from the running
    token's logit, optionally restricts to ``allowed`` ids, then keeps the
    smallest probability-sorted prefix with cumulative mass >= top_p (ties
    by token id; the crossing token is included).
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
    cut = int(np.searchsorted(cumulative, cfg.top_p - 1e-12, side="left"))
    cut = min(cut, len(order) - 1)
    ids = order[: cut + 1]
    kept = probs[ids]
    return ids, kept / kept.sum()


def sample_token_oracle(logits, cfg, run_state, rng, allowed=None) -> int:
    """Per-row reference for ``infer.sample_token``: one row, one ``rng.choice``."""
    ids, probs = nucleus_distribution(logits, cfg, run_state, allowed)
    return int(ids[rng.choice(len(ids), p=probs)])


class StubSession:
    """Deterministic decoder session: each row follows a script of head-1 ids.

    Row r's head 1 emits ``plans[r][cursor]`` (EOS once the plan is spent)
    and head k > 1 a fixed function of the cursor, which counts the frame
    steps the row was given.  ``appended[r]`` records row r's items,
    also after it left the session.
    """

    def __init__(self, cfg: ModelConfig, contexts, plans):
        self.cfg = cfg
        self.plans = [list(p) for p in plans]
        self.cursors = [0] * len(plans)
        self.appended = [[] for _ in plans]
        self.rows = list(range(len(plans)))  # original index of each current row
        batch = encode_batch(contexts, cfg)
        self.prefill_positions = len(distinct_rows(batch)[0]) * batch.max_length
        self.position = batch.max_length
        self.logits = self._make_logits()

    def _concentrated(self, k, token):
        v = np.full(self.cfg.head_vocab_size(k), -40.0)
        v[token] = 40.0
        return v

    def _row_logits(self, r):
        cursor, plan = self.cursors[r], self.plans[r]
        eos = self.cfg.special_output_id(0, "eos")
        out = [self._concentrated(0, plan[cursor] if cursor < len(plan) else eos)]
        for k in range(1, self.cfg.num_codebooks):
            out.append(self._concentrated(k, (7 * cursor + k) % self.cfg.codebook_sizes[k]))
        return out

    def _make_logits(self):
        rows = [self._row_logits(r) for r in self.rows]
        return [np.array([row[k] for row in rows]) for k in range(self.cfg.num_codebooks)]

    def append(self, items):
        assert len(items) == len(self.rows)
        for r, item in zip(self.rows, items):
            self.appended[r].append(item)
            if isinstance(item, tuple):
                self.cursors[r] += 1
        self.position += 1
        self.logits = self._make_logits()
        return self.logits

    def keep(self, rows):
        self.rows = [self.rows[j] for j in rows]
        self.logits = self._make_logits()


class StubDecoder:
    """Emits ``span_length`` frames then EOS on head 1, for every mask.

    A list of lengths is handed out one per row, in turn, across sessions.
    """

    def __init__(self, cfg: ModelConfig, span_length):
        self.cfg = cfg
        self.span_length = span_length
        self.sessions = 0
        self.rows = 0

    def plan(self, row):
        """Head-1 script of the ``row``-th row handed out."""
        length = (
            self.span_length[row % len(self.span_length)]
            if isinstance(self.span_length, (list, tuple))
            else self.span_length
        )
        return [i % self.cfg.codebook_sizes[0] for i in range(length)]

    def new_session(self, contexts):
        plans = [self.plan(self.rows + r) for r in range(len(contexts))]
        self.rows += len(contexts)
        self.sessions += 1
        return StubSession(self.cfg, contexts, plans)


class PlannedDecoder(StubDecoder):
    """Hands out the given head-1 scripts, one per row, in turn."""

    def __init__(self, cfg: ModelConfig, plans):
        super().__init__(cfg, 0)
        self.plans = plans

    def plan(self, row):
        return self.plans[row]


def mask_plan(lengths, cap, cfg: ModelConfig):
    """Head-1 script under which a stub row's consecutive masks run ``lengths`` frames.

    A mask of length n < cap reads n ids, then EOS, then K - 2 ids the
    delay tail steps pass over; a mask of n >= cap is truncated at cap
    and its cap + K - 1 steps read cap ids and K - 1 fillers.  Needs
    K >= 2 (the cursor advances once per frame step).
    """
    k_count, eos = cfg.num_codebooks, cfg.special_output_id(0, "eos")
    plan = []
    for n in lengths:
        ids = [(5 * i + n) % cfg.codebook_sizes[0] for i in range(min(n, cap))]
        plan += ids + ([eos] + [0] * (k_count - 2) if n < cap else [0] * (k_count - 1))
    return plan
