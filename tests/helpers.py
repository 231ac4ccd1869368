"""Shared test utilities: randomized-case generators and stub decoders."""

import numpy as np

from codec_infill.metrics import (
    F0_RANGE_HZ,
    ROUNDING_ENERGY,
    VOICING_THRESHOLD,
    WINDOW_LENGTH,
    _as_feature_matrix,
    _frame_signal,
    _pairwise_euclidean,
)
from codec_infill.model import (
    ModelConfig,
    encode_batch,
    encode_sequence,
    next_item_targets,
    parameter_shapes,
)
from codec_infill.tokens import EMPTY, EOU, CodecMatrix, Span, SpecialToken


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
    """Per-item reference for ``next_item_targets`` over one [text; items] stream.

    Head 1 predicts EOS, with loss, before the first delay-tail step of
    every span after EOU: the step at which decoding fixes a span's length.
    """
    stream = list(text_ids) + list(items)
    k_count = cfg.num_codebooks
    targets = np.zeros((len(stream), k_count), dtype=np.int64)
    mask = np.zeros((len(stream), k_count), dtype=bool)
    after_eou = False
    for t in range(len(stream) - 1):
        item, nxt = stream[t], stream[t + 1]
        after_eou = after_eou or nxt == EOU
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
            in_tail = isinstance(item, tuple) and item[0] == EMPTY
            if after_eou and nxt[0] == EMPTY and not in_tail:
                targets[t, 0] = cfg.special_output_id(0, "eos")
                mask[t, 0] = True
    return targets, mask


def embed_backward_oracle(streams, d_emb, cfg: ModelConfig) -> dict:
    """Per-item reference for ``model._embed_backward``: the gradient of every embedding table.

    ``streams`` are a batch's ``(text_ids, items)`` rows and ``d_emb`` the
    gradient of their packed input vectors, one row per item, row-major.
    A text item adds its row to ``text_emb`` and a marker to its
    ``marker_emb`` row; a frame step adds it to its token's row of each
    ``codebook_emb_k``, or to ``empty_emb`` for each EMPTY slot.
    """
    shapes = parameter_shapes(cfg)
    names = ["text_emb", *(f"codebook_emb_{k}" for k in range(cfg.num_codebooks)), "marker_emb", "empty_emb"]
    grads = {name: np.zeros(shapes[name]) for name in names}
    rows = iter(d_emb)
    for text_ids, items in streams:
        for t in text_ids:
            grads["text_emb"][t] += next(rows)
        for item in items:
            g = next(rows)
            if isinstance(item, SpecialToken):
                grads["marker_emb"][cfg.special_index(item.kind, item.index)] += g
                continue
            for k, v in enumerate(item):
                if v == EMPTY:
                    grads["empty_emb"][0] += g
                else:
                    grads[f"codebook_emb_{k}"][v] += g
    assert next(rows, None) is None, "more gradient rows than items"
    return grads


def loss_gradient_oracle(logits, targets, loss_mask, weights):
    """Reference for ``loss_gradient``: computes each head's softmax from the logits itself."""
    d_logits = []
    for k, logit_k in enumerate(logits):
        mask = loss_mask[..., k]
        d_k = np.zeros_like(logit_k)
        n = int(mask.sum())
        if n > 0:
            lk = logit_k[mask].astype(np.float64)
            lk -= lk.max(axis=-1, keepdims=True)
            p = np.exp(lk)
            p /= p.sum(axis=-1, keepdims=True)
            tk = targets[..., k][mask]
            p[np.arange(n), tk] -= 1.0
            d_k[mask] = (p * (weights[k] / n)).astype(logit_k.dtype)
        d_logits.append(d_k)
    return d_logits


def adamw_oracle(params: dict, grad_steps: list, lrs: list, cfg) -> dict:
    """Element-by-element reference for ``train.AdamW``: one step per (grads, lr), as Python floats.

    Decoupled weight decay (Loshchilov & Hutter): each step moves a
    parameter by lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p).
    """
    out = {}
    for name, p in params.items():
        values = []
        for index in np.ndindex(p.shape):
            x, m, v = float(p[index]), 0.0, 0.0
            for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
                g = float(grads[name][index])
                m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
                v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
                m_hat = m / (1.0 - cfg.beta1**t)
                v_hat = v / (1.0 - cfg.beta2**t)
                x -= lr * (m_hat / (v_hat**0.5 + cfg.adam_eps) + cfg.weight_decay * x)
            values.append(x)
        out[name] = np.array(values).reshape(p.shape)
    return out


def levenshtein_oracle(ref, hyp) -> int:
    """Rolling-row, cell-by-cell reference for ``metrics.levenshtein``."""
    n, m = len(ref), len(hyp)
    row = np.arange(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        prev = row.copy()
        row[0] = i
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            row[j] = min(prev[j - 1] + (0 if same else 1), prev[j] + 1, row[j - 1] + 1)
    return int(row[m])


def dtw_align_oracle(a, b) -> tuple[list[tuple[int, int]], float]:
    """Cell-by-cell reference for ``metrics.dtw_align``: the same path and a bit-equal cost."""
    a_mat, b_mat = _as_feature_matrix(a), _as_feature_matrix(b)
    n, m = len(a_mat), len(b_mat)
    local = _pairwise_euclidean(a_mat, b_mat)
    cost = np.full((n, m), np.inf)
    cost[0, 0] = local[0, 0]
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            best = np.inf
            if i > 0 and j > 0:
                best = cost[i - 1, j - 1]
            if i > 0:
                best = min(best, cost[i - 1, j])
            if j > 0:
                best = min(best, cost[i, j - 1])
            cost[i, j] = local[i, j] + best
    path = []
    i, j = n - 1, m - 1
    while True:
        path.append((i, j))
        if i == 0 and j == 0:
            break
        moves = []
        if i > 0 and j > 0:
            moves.append((cost[i - 1, j - 1], (i - 1, j - 1)))
        if i > 0:
            moves.append((cost[i - 1, j], (i - 1, j)))
        if j > 0:
            moves.append((cost[i, j - 1], (i, j - 1)))
        i, j = min(moves, key=lambda t: t[0])[1]
    path.reverse()
    return path, float(cost[n - 1, m - 1])


def f0_track_oracle(wav, sample_rate: int) -> np.ndarray:
    """Frame-by-frame reference for ``metrics.f0_track``: one ``np.correlate`` per frame."""
    f_min, f_max = F0_RANGE_HZ
    frames = _frame_signal(wav)
    lag_min = int(np.ceil(sample_rate / f_max))
    lag_max = min(int(np.floor(sample_rate / f_min)), WINDOW_LENGTH - 1)
    out = np.zeros(len(frames))
    for i, signal in enumerate(frames):
        frame = signal - signal.mean()
        energy = float(frame @ frame)
        if energy <= ROUNDING_ENERGY * float(signal @ signal):
            continue  # silence, or the rounding residue of a constant offset
        raw = np.correlate(frame, frame, mode="full")[WINDOW_LENGTH - 1 :]
        forward = np.concatenate([[0.0], np.cumsum(frame * frame)])
        tail = energy - forward  # sum of squares from each lag onward
        lags = np.arange(lag_min, lag_max + 1)
        e1 = tail[0] - tail[WINDOW_LENGTH - lags]  # first WINDOW_LENGTH - lag samples
        e2 = tail[lags]
        denom = np.sqrt(e1 * e2)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 0, raw[lags] / denom, 0.0)
        peak = float(r.max())
        if peak < VOICING_THRESHOLD:
            continue
        left = np.concatenate([[-np.inf], r[:-1]])
        right = np.concatenate([r[1:], [-np.inf]])
        is_local_max = (r >= left) & (r >= right)
        candidates = np.nonzero(is_local_max & (r >= max(VOICING_THRESHOLD, 0.95 * peak)))[0]
        best_lag = int(lags[candidates[0]])
        out[i] = sample_rate / best_lag
    return out


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
        self.prefill_positions = len({(id(t), id(i)) for t, i in contexts}) * batch.max_length
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


class TeacherSession:
    """Session whose every row reads one-hot logits of its stream's training targets.

    Row r stands at ``lengths[r]`` items into its stream; head k's logits
    peak at the ``next_item_targets`` id of the last of them, whatever
    items were appended.
    """

    def __init__(self, cfg: ModelConfig, targets, lengths):
        self.cfg = cfg
        self.targets, self.lengths = list(targets), list(lengths)
        self.prefill_positions = len(lengths) * max(lengths)
        self.logits = self._make_logits()

    def _make_logits(self):
        out = []
        for k in range(self.cfg.num_codebooks):
            v = np.full((len(self.lengths), self.cfg.head_vocab_size(k)), -40.0)
            for r, (targets, n) in enumerate(zip(self.targets, self.lengths)):
                v[r, targets[min(n, len(targets)) - 1, k]] = 40.0
            out.append(v)
        return out

    def append(self, items):
        assert len(items) == len(self.lengths)
        self.lengths = [n + 1 for n in self.lengths]
        self.logits = self._make_logits()
        return self.logits

    def keep(self, rows):
        self.targets = [self.targets[j] for j in rows]
        self.lengths = [self.lengths[j] for j in rows]
        self.logits = self._make_logits()


class TeacherDecoder:
    """Decodes as a model that has learned its training targets exactly.

    Built from whole ``(text_ids, items)`` training streams.  A session
    context must be the start of one of them; its row then predicts that
    stream's next item at every step (:class:`TeacherSession`).
    """

    def __init__(self, cfg: ModelConfig, streams):
        self.cfg = cfg
        self.streams = [
            (list(text), list(items), next_item_targets(encode_sequence(text, items, cfg), cfg)[0][0])
            for text, items in streams
        ]

    def new_session(self, contexts):
        rows = []
        for text, items in contexts:
            found = [
                targets for t, i, targets in self.streams
                if t == list(text) and i[: len(items)] == list(items)
            ]
            assert found, "the context starts no known stream"
            rows.append((found[0], len(text) + len(items)))
        return TeacherSession(self.cfg, *zip(*rows))
