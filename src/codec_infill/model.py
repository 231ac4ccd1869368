"""Decoder-only transformer over [text; stacked tokens] with K output heads.

The model consumes one position stream: the transcript tokens followed by
the delay-stacked codec items.  A frame step embeds as the sum of its K
codebook embeddings (EMPTY slots draw one shared learned vector), marker
steps draw a single learned vector each, and a shared sinusoidal position
encoding is added over the whole concatenation.  The final hidden state
at every position feeds K separate MLP heads, one per codebook, whose
vocabularies append the marker/EMPTY ids so targets can be scored
uniformly.  The special-id layout is defined once,
:meth:`ModelConfig.special_index`: it is both a marker's embedding row
and, offset by the codebook size, its id in every head.

Every encoded form is an :class:`EncodedBatch`; one utterance is a
one-row batch.  Each position's training target is the item at the next
position of that batch (:func:`next_item_targets`).  Training minimizes
sum_k alpha_k * L_k where L_k is the mean masked cross-entropy of head
k; positions whose target is a mask marker or the EMPTY filler carry no
loss.

Everything is plain numpy with hand-written reverse-mode gradients; the
forward pass records the intermediates the backward pass needs.  All
functions are deterministic given their inputs.

``forward`` is the only implementation of the network.  Training runs it
over right-padded batches.  A :class:`DecodeSession` decodes several rows
at once: it runs ``forward`` over their left-padded contexts (prefill,
once per distinct context) and then over one appended item per row,
passing a :class:`KVCache` so every call continues each row's positions.

Architecture choices not pinned elsewhere, recorded here: pre-norm
blocks, exact (erf-based) GELU in the FFN and heads, LayerNorm eps 1e-5,
normal(0, init_scale) weight init with zero biases, no dropout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import CapacityError, InvalidInputError, VocabularyError
from .tokens import EMPTY, SpecialToken

# position-stream kinds
KIND_PAD = 0
KIND_TEXT = 1
KIND_FRAME = 2
KIND_MARKER = 3

_LN_EPS = 1e-5
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass
class ModelConfig:
    num_layers: int = 2
    hidden_dim: int = 128
    ffn_dim: int = 512
    num_heads: int = 4
    num_codebooks: int = 4
    codebook_sizes: tuple[int, ...] = (256, 256, 256, 256)
    text_vocab_size: int = 30
    max_positions: int = 2048
    loss_weights: tuple[float, ...] = (5.0, 1.0, 0.5, 0.1)
    head_mlp_layers: int = 2
    max_mask_spans: int = 3
    init_scale: float = 0.02
    dtype: str = "float32"

    def __post_init__(self):
        self.codebook_sizes = tuple(self.codebook_sizes)
        self.loss_weights = tuple(self.loss_weights)
        if self.num_codebooks < 1:
            raise InvalidInputError("num_codebooks must be >= 1")
        if len(self.codebook_sizes) != self.num_codebooks:
            raise InvalidInputError("codebook_sizes length must equal num_codebooks")
        if len(self.loss_weights) != self.num_codebooks:
            raise InvalidInputError("loss_weights length must equal num_codebooks")
        if any(w <= 0 for w in self.loss_weights):
            raise InvalidInputError("loss_weights must all be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidInputError("hidden_dim must be divisible by num_heads")
        if self.head_mlp_layers < 1:
            raise InvalidInputError("head_mlp_layers must be >= 1")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def head_vocab_size(self, k: int) -> int:
        return self.codebook_sizes[k] + self.special_index("empty") + 1

    def special_index(self, kind: str, index: int = 0) -> int:
        """The one index of a marker/EMPTY, shared by its embedding and output ids.

        With M = max_mask_spans: mask i -> i - 1, EOS -> M, EOU -> M + 1 and
        EMPTY -> M + 2.  A marker's row in ``marker_emb`` is this index, and
        head k's output id is ``codebook_sizes[k]`` plus it.
        """
        m = self.max_mask_spans
        if kind == "mask":
            if not (1 <= index <= m):
                raise VocabularyError(f"mask index {index} exceeds max_mask_spans")
            return index - 1
        if kind == "eos":
            return m
        if kind == "eou":
            return m + 1
        if kind == "empty":
            return m + 2
        raise VocabularyError(f"unknown special kind {kind!r}")

    def special_output_id(self, k: int, kind: str, index: int = 0) -> int:
        """Id of a marker/EMPTY token inside head k's output vocabulary."""
        return self.codebook_sizes[k] + self.special_index(kind, index)


@dataclass
class ModelState:
    """Parameters plus the configuration that shapes them."""

    params: dict
    config: ModelConfig
    step: int = 0


def parameter_names(cfg: ModelConfig) -> list[str]:
    """Canonical parameter order; checkpoints serialize tensors this way."""
    names = ["text_emb"]
    names += [f"codebook_emb_{k}" for k in range(cfg.num_codebooks)]
    names += ["empty_emb", "marker_emb"]
    for i in range(cfg.num_layers):
        names += [
            f"layer{i}.ln1.gain", f"layer{i}.ln1.bias",
            f"layer{i}.attn.wq", f"layer{i}.attn.bq",
            f"layer{i}.attn.wk", f"layer{i}.attn.bk",
            f"layer{i}.attn.wv", f"layer{i}.attn.bv",
            f"layer{i}.attn.wo", f"layer{i}.attn.bo",
            f"layer{i}.ln2.gain", f"layer{i}.ln2.bias",
            f"layer{i}.ffn.w1", f"layer{i}.ffn.b1",
            f"layer{i}.ffn.w2", f"layer{i}.ffn.b2",
        ]
    names += ["final_ln.gain", "final_ln.bias"]
    for k in range(cfg.num_codebooks):
        for j in range(cfg.head_mlp_layers):
            names += [f"head{k}.w{j}", f"head{k}.b{j}"]
    return names


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    d, f = cfg.hidden_dim, cfg.ffn_dim
    dt = cfg.np_dtype
    s = cfg.init_scale

    def w(*shape):
        return (rng.standard_normal(shape) * s).astype(dt)

    def zeros(*shape):
        return np.zeros(shape, dtype=dt)

    params: dict[str, np.ndarray] = {}
    params["text_emb"] = w(cfg.text_vocab_size, d)
    for k in range(cfg.num_codebooks):
        params[f"codebook_emb_{k}"] = w(cfg.codebook_sizes[k], d)
    params["empty_emb"] = w(1, d)
    params["marker_emb"] = w(cfg.max_mask_spans + 2, d)
    for i in range(cfg.num_layers):
        p = f"layer{i}"
        params[f"{p}.ln1.gain"] = np.ones(d, dtype=dt)
        params[f"{p}.ln1.bias"] = zeros(d)
        params[f"{p}.attn.wq"] = w(d, d)
        params[f"{p}.attn.bq"] = zeros(d)
        params[f"{p}.attn.wk"] = w(d, d)
        params[f"{p}.attn.bk"] = zeros(d)
        params[f"{p}.attn.wv"] = w(d, d)
        params[f"{p}.attn.bv"] = zeros(d)
        params[f"{p}.attn.wo"] = w(d, d)
        params[f"{p}.attn.bo"] = zeros(d)
        params[f"{p}.ln2.gain"] = np.ones(d, dtype=dt)
        params[f"{p}.ln2.bias"] = zeros(d)
        params[f"{p}.ffn.w1"] = w(d, f)
        params[f"{p}.ffn.b1"] = zeros(f)
        params[f"{p}.ffn.w2"] = w(f, d)
        params[f"{p}.ffn.b2"] = zeros(d)
    params["final_ln.gain"] = np.ones(d, dtype=dt)
    params["final_ln.bias"] = zeros(d)
    for k in range(cfg.num_codebooks):
        dims = [d] * cfg.head_mlp_layers + [cfg.head_vocab_size(k)]
        for j in range(cfg.head_mlp_layers):
            params[f"head{k}.w{j}"] = w(dims[j], dims[j + 1])
            params[f"head{k}.b{j}"] = zeros(dims[j + 1])
    assert list(params) == parameter_names(cfg)
    return params


def new_model(cfg: ModelConfig, seed: int = 0) -> ModelState:
    return ModelState(init_params(cfg, np.random.default_rng(seed)), cfg)


# ---------------------------------------------------------------------------
# Position encoding and input encoding
# ---------------------------------------------------------------------------


def sinusoidal_positions(length: int, dim: int, dtype=np.float64, start=0) -> np.ndarray:
    """Classic sin/cos rows for positions start .. start + length - 1.

    Row j encodes position p = start + j: pe[j, 2i] = sin(p * r_i),
    pe[j, 2i+1] = cos(p * r_i).  ``start`` may be one offset per row of a
    batch, giving a (rows, length, dim) table.
    """
    positions = (np.asarray(start)[..., None] + np.arange(length)).astype(np.float64)[..., None]
    half = np.arange(dim // 2, dtype=np.float64)
    rates = np.power(10000.0, -2.0 * half / dim)
    angles = positions * rates
    pe = np.zeros(angles.shape[:-1] + (dim,), dtype=np.float64)
    pe[..., 0::2] = np.sin(angles)
    pe[..., 1::2] = np.cos(angles)
    return pe.astype(dtype)


@dataclass
class EncodedBatch:
    """[text; stacked items] streams as padded parallel id arrays, one row each."""

    kind: np.ndarray        # (B, L) int8
    text_ids: np.ndarray    # (B, L) int64
    frame_ids: np.ndarray   # (B, L, K) int64, EMPTY slots hold -1
    marker_ids: np.ndarray  # (B, L) int64, ``special_index`` of each marker
    lengths: np.ndarray     # (B,)

    @property
    def batch_size(self):
        return self.kind.shape[0]

    @property
    def max_length(self):
        return self.kind.shape[1]

    def rows(self, index) -> "EncodedBatch":
        """The batch made of the given rows, in the given order."""
        return EncodedBatch(
            self.kind[index], self.text_ids[index], self.frame_ids[index],
            self.marker_ids[index], self.lengths[index],
        )


_ID_TYPES = (int, np.integer)


def encode_batch(contexts, cfg: ModelConfig) -> EncodedBatch:
    """Encode ``(text_ids, items)`` streams as the rows of one decode batch.

    Rows are left-padded to the longest, so that every row ends in the
    last column.
    """
    lengths = np.array([len(text) + len(items) for text, items in contexts], dtype=np.int64)
    if lengths.size and lengths.max() > cfg.max_positions:
        raise CapacityError(
            f"sequence length {lengths.max()} exceeds max_positions {cfg.max_positions}"
        )
    b, width, k_count = len(contexts), int(lengths.max(initial=0)), cfg.num_codebooks
    kind = np.zeros((b, width), dtype=np.int8)
    text = np.zeros((b, width), dtype=np.int64)
    frames = np.full((b, width, k_count), EMPTY, dtype=np.int64)
    markers = np.zeros((b, width), dtype=np.int64)
    for row, (text_ids, items) in enumerate(contexts):
        first = int(width - lengths[row])
        for pos, t in enumerate(text_ids, start=first):
            if not (isinstance(t, _ID_TYPES) and 0 <= t < cfg.text_vocab_size):
                raise VocabularyError(f"text id {t!r} out of range")
            kind[row, pos] = KIND_TEXT
            text[row, pos] = t
        first += len(text_ids)
        for pos, item in enumerate(items, start=first):
            if isinstance(item, SpecialToken):
                kind[row, pos] = KIND_MARKER
                markers[row, pos] = cfg.special_index(item.kind, item.index)
                continue
            if not isinstance(item, (tuple, list, np.ndarray)) or len(item) != k_count:
                raise InvalidInputError(
                    f"item {pos - first} ({item!r}) is neither a marker nor a frame step of {k_count} slots"
                )
            kind[row, pos] = KIND_FRAME
            for k, v in enumerate(item):
                if not (isinstance(v, _ID_TYPES) and (v == EMPTY or 0 <= v < cfg.codebook_sizes[k])):
                    raise VocabularyError(f"codebook {k + 1} token {v!r} out of range")
                frames[row, pos, k] = v
    return EncodedBatch(kind, text, frames, markers, lengths)


def encode_sequence(text_ids, items, cfg: ModelConfig) -> EncodedBatch:
    """Turn transcript ids plus stacked items into a one-row batch."""
    return encode_batch([(text_ids, items)], cfg)


def distinct_rows(batch: EncodedBatch) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct stream, index of each row's stream among them)."""
    index: dict[bytes, int] = {}
    firsts: list[int] = []
    inverse = np.empty(batch.batch_size, dtype=np.int64)
    for row in range(batch.batch_size):
        key = b"".join(
            a[row].tobytes() for a in (batch.kind, batch.text_ids, batch.frame_ids, batch.marker_ids)
        )
        if key not in index:
            index[key] = len(firsts)
            firsts.append(row)
        inverse[row] = index[key]
    return np.array(firsts, dtype=np.int64), inverse


def pad_sequences(rows: list[EncodedBatch], cfg: ModelConfig) -> EncodedBatch:
    """Stack one-row batches, padding each to the longest."""
    if not rows:
        raise InvalidInputError("cannot batch zero sequences")
    b = len(rows)
    length = max(r.max_length for r in rows)
    kind = np.zeros((b, length), dtype=np.int8)
    text = np.zeros((b, length), dtype=np.int64)
    frames = np.full((b, length, cfg.num_codebooks), EMPTY, dtype=np.int64)
    markers = np.zeros((b, length), dtype=np.int64)
    for i, r in enumerate(rows):
        n = r.max_length
        kind[i, :n] = r.kind[0]
        text[i, :n] = r.text_ids[0]
        frames[i, :n] = r.frame_ids[0]
        markers[i, :n] = r.marker_ids[0]
    return EncodedBatch(kind, text, frames, markers, np.concatenate([r.lengths for r in rows]))


def next_item_targets(batch: EncodedBatch, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Head targets and loss mask of a batch: position t predicts the item at t + 1.

    A real frame slot's target is its token, with loss; an EMPTY slot's is
    the EMPTY id, a mask marker's its marker id, both without loss; EOS and
    EOU are targets with loss.  Where the next item is text or padding (and
    at each row's last position) the target is 0, without loss.
    """

    def shifted(ids, fill):
        out = np.full_like(ids, fill)
        out[:, :-1] = ids[:, 1:]
        return out

    kind = shifted(batch.kind, KIND_PAD)
    frames = shifted(batch.frame_ids, EMPTY)
    markers = shifted(batch.marker_ids, 0)
    is_frame = (kind == KIND_FRAME)[:, :, None]
    is_marker = (kind == KIND_MARKER)[:, :, None]
    real = is_frame & (frames != EMPTY)
    special = np.where(is_marker, markers[:, :, None], cfg.special_index("empty"))
    sizes = np.asarray(cfg.codebook_sizes, dtype=np.int64)
    targets = np.where(real, frames, np.where(is_frame | is_marker, sizes + special, 0))
    loss_mask = real | (is_marker & (markers >= cfg.special_index("eos"))[:, :, None])
    return targets, loss_mask


def _embed_batch(params: dict, cfg: ModelConfig, batch: EncodedBatch, start=0) -> np.ndarray:
    """Input vectors of a batch whose first column sits at position ``start``.

    ``start`` is one position for every row, or one per row.

    Text and marker items draw one learned vector each.  A frame step sums
    its K codebook embeddings, and every EMPTY slot adds the shared EMPTY
    vector.  The sinusoidal encoding of the absolute position is added.
    """
    b, length = batch.kind.shape
    d = cfg.hidden_dim
    emb = np.zeros((b, length, d), dtype=cfg.np_dtype)
    text_mask = batch.kind == KIND_TEXT
    if text_mask.any():
        emb[text_mask] = params["text_emb"][batch.text_ids[text_mask]]
    frame_mask = batch.kind == KIND_FRAME
    if frame_mask.any():
        real = frame_mask[:, :, None] & (batch.frame_ids >= 0)  # (B, L, K)
        ids = np.maximum(batch.frame_ids, 0)
        for k in range(cfg.num_codebooks):
            table = params[f"codebook_emb_{k}"]
            np.add(emb, table[ids[:, :, k]], out=emb, where=real[:, :, k, None])
        empty_count = (frame_mask[:, :, None] & ~real).sum(axis=2)
        emb += empty_count[:, :, None].astype(cfg.np_dtype) * params["empty_emb"][0]
    marker_mask = batch.kind == KIND_MARKER
    if marker_mask.any():
        emb[marker_mask] = params["marker_emb"][batch.marker_ids[marker_mask]]
    emb += sinusoidal_positions(length, d, cfg.np_dtype, start)
    return emb


def _embed_backward(params: dict, cfg: ModelConfig, batch: EncodedBatch, d_emb, grads: dict):
    text_mask = batch.kind == KIND_TEXT
    if text_mask.any():
        np.add.at(grads["text_emb"], batch.text_ids[text_mask], d_emb[text_mask])
    frame_mask = batch.kind == KIND_FRAME
    if frame_mask.any():
        for k in range(cfg.num_codebooks):
            ids = batch.frame_ids[:, :, k]
            real = frame_mask & (ids >= 0)
            if real.any():
                np.add.at(grads[f"codebook_emb_{k}"], ids[real], d_emb[real])
        empty_count = ((batch.frame_ids < 0) & frame_mask[:, :, None]).sum(axis=2)
        grads["empty_emb"][0] += (empty_count[:, :, None] * d_emb).sum(axis=(0, 1))
    marker_mask = batch.kind == KIND_MARKER
    if marker_mask.any():
        np.add.at(grads["marker_emb"], batch.marker_ids[marker_mask], d_emb[marker_mask])


# ---------------------------------------------------------------------------
# Primitive layers (forward saves what backward needs)
# ---------------------------------------------------------------------------


def _gelu_forward(x):
    """Exact GELU x * Phi(x); returns the CDF so backward can reuse it."""
    phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0).astype(x.dtype)))
    return x * phi, phi


def _gelu_grad(x, phi, d_out):
    pdf = np.exp(-0.5 * x * x) / x.dtype.type(_SQRT_2PI)
    return d_out * (phi + x * pdf)


def _mean_last(x):
    """``x.mean(axis=-1, keepdims=True)``, bit for bit, without its Python-level overhead."""
    total = x.sum(axis=-1, keepdims=True)
    total /= x.shape[-1]
    return total


def _layer_norm(x, gain, bias):
    mean = _mean_last(x)
    centered = x - mean
    var = _mean_last(centered * centered)
    inv_std = 1.0 / np.sqrt(var + np.asarray(_LN_EPS, dtype=x.dtype))
    normed = centered * inv_std
    return normed * gain + bias, (normed, inv_std)


def _layer_norm_backward(d_out, gain, cache):
    normed, inv_std = cache
    d_gain = (d_out * normed).sum(axis=tuple(range(d_out.ndim - 1)))
    d_bias = d_out.sum(axis=tuple(range(d_out.ndim - 1)))
    d_normed = d_out * gain
    n = normed.shape[-1]
    # d_x for y = (x - mean) / std: project out the mean and the normed direction
    d_x = inv_std * (
        d_normed
        - d_normed.mean(axis=-1, keepdims=True)
        - normed * (d_normed * normed).mean(axis=-1, keepdims=True)
    )
    return d_x, d_gain, d_bias


def _causal_bias(key_ok: np.ndarray, length: int, dtype) -> np.ndarray:
    """Additive attention bias of ``length`` queries, the last of the keys.

    ``key_ok`` (B, P) marks the keys that hold a real position (padding
    does not).  A query sees the real keys at or before it, and always
    itself.
    """
    past = key_ok.shape[1] - length
    query = np.arange(past, past + length)[:, None]
    key = np.arange(past + length)
    allow = ((key <= query) & key_ok[:, None, :]) | (key == query)
    bias = np.where(allow, dtype.type(0.0), dtype.type(-np.inf))
    return bias[:, None, :, :]  # (B, 1, L, P)


def _attention_forward(params, prefix, x, bias, cfg, kv=None):
    """Multi-head self-attention; ``kv`` is this layer's (keys, values, column).

    With a cache, this call's keys/values are written into the cache
    buffers at ``column`` and attention runs over every column up to
    them, so the next call sees every position.
    """
    b, length, d = x.shape
    h, dh = cfg.num_heads, cfg.hidden_dim // cfg.num_heads
    q = x @ params[f"{prefix}.wq"] + params[f"{prefix}.bq"]
    k = x @ params[f"{prefix}.wk"] + params[f"{prefix}.bk"]
    v = x @ params[f"{prefix}.wv"] + params[f"{prefix}.bv"]
    q = q.reshape(b, length, h, dh).transpose(0, 2, 1, 3)
    k = k.reshape(b, length, h, dh).transpose(0, 2, 1, 3)
    v = v.reshape(b, length, h, dh).transpose(0, 2, 1, 3)
    if kv is not None:
        keys, values, past = kv
        end = past + length
        keys[:, :, past:end] = k
        values[:, :, past:end] = v
        k, v = keys[:, :, :end], values[:, :, :end]
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.asarray(np.sqrt(dh), dtype=x.dtype)
    scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    context = weights @ v
    merged = context.transpose(0, 2, 1, 3).reshape(b, length, d)
    out = merged @ params[f"{prefix}.wo"] + params[f"{prefix}.bo"]
    return out, (x, q, k, v, weights, merged)


def _attention_backward(params, prefix, d_out, cache, cfg, grads):
    x, q, k, v, weights, merged = cache
    b, length, d = x.shape
    h, dh = cfg.num_heads, d // cfg.num_heads
    flat = lambda a: a.reshape(-1, a.shape[-1])

    grads[f"{prefix}.wo"] += flat(merged).T @ flat(d_out)
    grads[f"{prefix}.bo"] += d_out.sum(axis=(0, 1))
    d_merged = d_out @ params[f"{prefix}.wo"].T
    d_context = d_merged.reshape(b, length, h, dh).transpose(0, 2, 1, 3)

    d_weights = d_context @ v.transpose(0, 1, 3, 2)
    d_v = weights.transpose(0, 1, 3, 2) @ d_context
    # softmax jacobian: dS = W * (dW - sum(dW * W))
    d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
    d_scores /= np.asarray(np.sqrt(dh), dtype=x.dtype)
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 1, 3, 2) @ q

    def unsplit(a):
        return a.transpose(0, 2, 1, 3).reshape(b, length, d)

    d_q, d_k, d_v = unsplit(d_q), unsplit(d_k), unsplit(d_v)
    d_x = np.zeros_like(x)
    for name, dval in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
        grads[f"{prefix}.{name}"] += flat(x).T @ flat(dval)
        grads[f"{prefix}.b{name[1]}"] += dval.sum(axis=(0, 1))
        d_x += dval @ params[f"{prefix}.{name}"].T
    return d_x


def _ffn_forward(params, prefix, x):
    pre = x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"]
    act, phi = _gelu_forward(pre)
    out = act @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]
    return out, (x, pre, phi, act)


def _ffn_backward(params, prefix, d_out, cache, grads):
    x, pre, phi, act = cache
    flat = lambda a: a.reshape(-1, a.shape[-1])
    grads[f"{prefix}.w2"] += flat(act).T @ flat(d_out)
    grads[f"{prefix}.b2"] += d_out.sum(axis=(0, 1))
    d_act = d_out @ params[f"{prefix}.w2"].T
    d_pre = _gelu_grad(pre, phi, d_act)
    grads[f"{prefix}.w1"] += flat(x).T @ flat(d_pre)
    grads[f"{prefix}.b1"] += d_pre.sum(axis=(0, 1))
    return d_pre @ params[f"{prefix}.w1"].T


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------


def forward(
    params: dict, cfg: ModelConfig, batch: EncodedBatch, want_cache: bool = False, kv_cache=None
):
    """Run the network; returns (logits per codebook, cache or None).

    ``logits[k]`` has shape (B, L, head_vocab_k); position i's logits are
    computed from positions <= i only.

    ``kv_cache`` (decoding only) is a :class:`KVCache` over the same
    rows: the batch continues its columns, each row at its own position,
    and its own keys/values are written into it.  Decoding needs only the
    next-item logits, so with a cache the heads run at the last column
    alone (L = 1 in ``logits``).  The gradient cache (``want_cache``)
    covers no cached keys.
    """
    key_ok = batch.kind != KIND_PAD
    start = past = 0
    if kv_cache is not None:
        past = kv_cache.extend(key_ok)
        start = past - kv_cache.pad
        key_ok = kv_cache.valid[:, : past + batch.max_length]
    emb = _embed_batch(params, cfg, batch, start=start)
    bias = _causal_bias(key_ok, batch.max_length, emb.dtype)
    x = emb
    layer_caches = []
    for i in range(cfg.num_layers):
        p = f"layer{i}"
        normed1, ln1_cache = _layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        kv = None if kv_cache is None else (kv_cache.keys[i], kv_cache.values[i], past)
        attn_out, attn_cache = _attention_forward(params, f"{p}.attn", normed1, bias, cfg, kv)
        x = x + attn_out
        normed2, ln2_cache = _layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        ffn_out, ffn_cache = _ffn_forward(params, f"{p}.ffn", normed2)
        x = x + ffn_out
        if want_cache:  # otherwise each layer's intermediates are freed as it ends
            layer_caches.append((ln1_cache, attn_cache, ln2_cache, ffn_cache))
    if kv_cache is not None:
        x = x[:, -1:]
    hidden, final_cache = _layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])

    logits = []
    head_caches = []
    for k in range(cfg.num_codebooks):
        h = hidden
        cache_k = []
        for j in range(cfg.head_mlp_layers):
            pre = h @ params[f"head{k}.w{j}"] + params[f"head{k}.b{j}"]
            if j < cfg.head_mlp_layers - 1:
                act, phi = _gelu_forward(pre)
                cache_k.append((h, pre, phi))
                h = act
            else:
                cache_k.append((h, None, None))
                h = pre
        logits.append(h)
        head_caches.append(cache_k)

    cache = None
    if want_cache:
        cache = {
            "batch": batch,
            "layer_caches": layer_caches,
            "final_cache": final_cache,
            "head_caches": head_caches,
        }
    return logits, cache


def backward(params: dict, cfg: ModelConfig, cache: dict, d_logits: list) -> dict:
    """Gradients of a scalar whose logit-gradients are ``d_logits``."""
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    batch = cache["batch"]

    d_hidden = None
    for k in range(cfg.num_codebooks):
        d_x = np.asarray(d_logits[k], dtype=cfg.np_dtype)
        for j in reversed(range(cfg.head_mlp_layers)):
            h_in, pre, phi = cache["head_caches"][k][j]
            # non-last layers applied GELU after the affine map
            d_pre = d_x if pre is None else _gelu_grad(pre, phi, d_x)
            flat_in = h_in.reshape(-1, h_in.shape[-1])
            flat_d = d_pre.reshape(-1, d_pre.shape[-1])
            grads[f"head{k}.w{j}"] += flat_in.T @ flat_d
            grads[f"head{k}.b{j}"] += d_pre.sum(axis=tuple(range(d_pre.ndim - 1)))
            d_x = d_pre @ params[f"head{k}.w{j}"].T
        d_hidden = d_x if d_hidden is None else d_hidden + d_x

    d_x, d_gain, d_bias = _layer_norm_backward(d_hidden, params["final_ln.gain"], cache["final_cache"])
    grads["final_ln.gain"] += d_gain
    grads["final_ln.bias"] += d_bias

    for i in reversed(range(cfg.num_layers)):
        p = f"layer{i}"
        ln1_cache, attn_cache, ln2_cache, ffn_cache = cache["layer_caches"][i]
        d_ffn_out = d_x
        d_normed2 = _ffn_backward(params, f"{p}.ffn", d_ffn_out, ffn_cache, grads)
        d_mid, d_gain, d_bias = _layer_norm_backward(d_normed2, params[f"{p}.ln2.gain"], ln2_cache)
        grads[f"{p}.ln2.gain"] += d_gain
        grads[f"{p}.ln2.bias"] += d_bias
        d_x = d_x + d_mid
        d_attn_out = d_x
        d_normed1 = _attention_backward(params, f"{p}.attn", d_attn_out, attn_cache, cfg, grads)
        d_in, d_gain, d_bias = _layer_norm_backward(d_normed1, params[f"{p}.ln1.gain"], ln1_cache)
        grads[f"{p}.ln1.gain"] += d_gain
        grads[f"{p}.ln1.bias"] += d_bias
        d_x = d_x + d_in

    _embed_backward(params, cfg, batch, d_x, grads)
    return grads


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def weighted_loss(logits: list, targets: np.ndarray, loss_mask: np.ndarray, weights):
    """Weighted masked cross-entropy: L = sum_k alpha_k * mean-CE_k.

    ``logits[k]`` is (..., V_k); ``targets``/``loss_mask`` are (..., K).
    Returns (total, per-codebook components, all_masked_warning).
    Accumulation runs in float64 regardless of model dtype.
    """
    per_k = []
    all_masked = True
    for k, logit_k in enumerate(logits):
        mask = loss_mask[..., k]
        n = int(mask.sum())
        if n == 0:
            per_k.append(0.0)
            continue
        all_masked = False
        lk = logit_k[mask].astype(np.float64)
        tk = targets[..., k][mask]
        m = lk.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(lk - m).sum(axis=-1)) + m[:, 0]
        ce = lse - lk[np.arange(n), tk]
        per_k.append(float(ce.mean()))
    total = float(sum(w * l for w, l in zip(weights, per_k)))
    return total, per_k, all_masked


def loss_gradient(logits: list, targets: np.ndarray, loss_mask: np.ndarray, weights):
    """d(total loss)/d(logits): softmax minus one-hot, scaled by alpha_k / N_k."""
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


# ---------------------------------------------------------------------------
# Incremental decoding with a key/value cache
# ---------------------------------------------------------------------------


class KVCache:
    """Keys/values of every layer for the rows of a decode session.

    ``keys[i]``/``values[i]`` are (rows, H, capacity, head_dim) buffers
    whose first ``length`` columns are filled; they start at the context
    width and at least double when a call needs more columns.  Rows are
    left-padded: the first ``pad[r]`` columns of row r hold no position
    (``valid`` is false there), and column c of row r holds position
    c - pad[r].
    """

    def __init__(self, cfg: ModelConfig, pad, capacity: int):
        shape = (len(pad), cfg.num_heads, capacity, cfg.hidden_dim // cfg.num_heads)
        self.keys = [np.empty(shape, dtype=cfg.np_dtype) for _ in range(cfg.num_layers)]
        self.values = [np.empty(shape, dtype=cfg.np_dtype) for _ in range(cfg.num_layers)]
        self.valid = np.zeros((len(pad), capacity), dtype=bool)
        self.pad = np.asarray(pad, dtype=np.int64)
        self.length = 0

    def extend(self, valid: np.ndarray) -> int:
        """Claim columns for a call whose (rows, n) positions are ``valid``; returns the first."""
        past, n = self.length, valid.shape[1]
        capacity = self.valid.shape[1]
        if past + n > capacity:
            extra = max(capacity, past + n - capacity)
            grow = ((0, 0), (0, 0), (0, extra), (0, 0))
            self.keys = [np.pad(a, grow) for a in self.keys]
            self.values = [np.pad(a, grow) for a in self.values]
            self.valid = np.pad(self.valid, ((0, 0), (0, extra)))
        self.valid[:, past : past + n] = valid
        self.length = past + n
        return past

    def keep(self, rows) -> None:
        """Keep only the given rows, in the given order."""
        self.keys = [a[rows] for a in self.keys]
        self.values = [a[rows] for a in self.values]
        self.valid = self.valid[rows]
        self.pad = self.pad[rows]


class DecodeSession:
    """Decodes several rows in step, one item per row per call, with a KV cache.

    Each row starts from its own ``(text_ids, items)`` context.  Contexts
    are left-padded so that every row ends in the same column; a row's
    positions count from its own first item and its padding is never
    attended to.  Identical contexts are prefilled once and their cache
    rows repeated; ``prefill_positions`` counts the positions the prefill
    ran (distinct contexts times the padded width).

    ``position`` is the number of columns run so far, and ``logits[k]``
    holds head k's next-item logits of every row, shape (rows, V_k).
    :meth:`append` extends every row by one item; :meth:`keep` lets rows
    that are done leave.  The prefill and every append run the same
    batched ``forward``, so scored prefixes and incrementally decoded
    prefixes agree.
    """

    def __init__(self, state: ModelState, contexts):
        self.state = state
        cfg = state.config
        batch = encode_batch(contexts, cfg)
        if batch.batch_size == 0 or batch.lengths.min() == 0:
            raise InvalidInputError("every decode context must contain at least one item")
        firsts, inverse = distinct_rows(batch)
        width = batch.max_length
        self._kv = KVCache(cfg, width - batch.lengths[firsts], width)
        self.position = 0
        self._run(batch.rows(firsts))
        self.prefill_positions = len(firsts) * width
        if len(firsts) < batch.batch_size:
            self.keep(inverse)

    def _run(self, batch: EncodedBatch) -> list[np.ndarray]:
        """Run ``batch`` after the cached columns; keep the logits at its end."""
        logits, _ = forward(self.state.params, self.state.config, batch, kv_cache=self._kv)
        self.position += batch.max_length
        self.logits = [l[:, -1] for l in logits]
        return self.logits

    def append(self, items) -> list[np.ndarray]:
        """Extend row r by ``items[r]``; returns the new next-item logits."""
        cfg = self.state.config
        if not items or len(items) != len(self._kv.pad):
            raise InvalidInputError(f"append takes one item for each of the {len(self._kv.pad)} rows")
        if self.position - self._kv.pad.min() >= cfg.max_positions:
            raise CapacityError("decode context exceeded max_positions")
        return self._run(encode_batch([((), [item]) for item in items], cfg))

    def keep(self, rows) -> None:
        """Continue with the given rows only (indices among the current rows)."""
        self._kv.keep(rows)
        self.logits = [l[rows] for l in self.logits]


class TransformerDecoder:
    """Thin session factory satisfying the decoding protocol used by
    the inference pipelines (stub models in tests implement the same)."""

    def __init__(self, state: ModelState):
        self.state = state

    def new_session(self, contexts) -> DecodeSession:
        return DecodeSession(self.state, contexts)


def score_sequence(state: ModelState, text_ids, items):
    """Full-context forward for one utterance; logits at every position."""
    logits, _ = forward(state.params, state.config, encode_sequence(text_ids, items, state.config))
    return [l[0] for l in logits]
