"""Shared test utilities: randomized-case generators and stub decoders."""

import numpy as np

from codec_infill.model import ModelConfig
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


class StubSession:
    """Deterministic decoder session: a script of head-1 ids per step."""

    def __init__(self, cfg: ModelConfig, plan):
        self.cfg = cfg
        self.plan = list(plan)
        self.cursor = 0
        self.appended = []
        self.logits = self._make_logits()

    def _concentrated(self, k, token):
        v = np.full(self.cfg.head_vocab_size(k), -40.0)
        v[token] = 40.0
        return v

    def _make_logits(self):
        eos = self.cfg.special_output_id(0, "eos")
        head1 = self.plan[self.cursor] if self.cursor < len(self.plan) else eos
        out = [self._concentrated(0, head1)]
        for k in range(1, self.cfg.num_codebooks):
            out.append(self._concentrated(k, (7 * self.cursor + k) % self.cfg.codebook_sizes[k]))
        return out

    def append(self, item):
        self.appended.append(item)
        if isinstance(item, tuple):
            self.cursor += 1
        self.logits = self._make_logits()
        return self.logits


class StubDecoder:
    """Emits ``span_length`` frames then EOS on head 1, for every mask."""

    def __init__(self, cfg: ModelConfig, span_length):
        self.cfg = cfg
        self.span_length = span_length
        self.sessions = 0

    def new_session(self, text_ids, items):
        length = (
            self.span_length[self.sessions % len(self.span_length)]
            if isinstance(self.span_length, (list, tuple))
            else self.span_length
        )
        self.sessions += 1
        return StubSession(self.cfg, [i % self.cfg.codebook_sizes[0] for i in range(length)])
