"""Decoder-only transformer over [text; stacked tokens] with K output heads.

The model consumes one position stream: the transcript tokens followed by
the delay-stacked codec items.  Every codec item is K ids in one id
space, slot k holding the id head k predicts for it: a real token is
itself, and a marker or EMPTY is ``codebook_sizes[k]`` plus its
:meth:`ModelConfig.special_index`, the one special-id layout.  Slot k's
input table is [codebook_emb_k; marker_emb; empty_emb], the
``head_vocab_size(k)`` rows of head k's vocabulary.  A frame step embeds
as the sum of its K slots' rows (so each EMPTY slot adds one shared
learned vector), a marker draws its row of slot 0's table, and a text
item its ``text_emb`` row; a shared sinusoidal position encoding is added
over the whole concatenation.  The final hidden state feeds K separate
heads, one per codebook, at the positions the caller asks for (training:
those that carry loss; decoding: each row's last).  Each head is a
two-layer FFN block, Linear -> GELU -> Linear, the same block as a
layer's FFN but ending in head k's vocabulary.  One FFN implementation
runs both: it runs K blocks over the same rows, their first layers
stacked as one product and one GELU, and a layer's FFN is the one-block
case.

Every encoded form is an :class:`EncodedBatch`; one utterance is a
one-row batch.  Each position's training targets are the ids of the
item at the next position of that batch (:func:`next_item_targets`).
Training minimizes sum_k alpha_k * L_k where L_k is the mean
masked cross-entropy of head k; positions whose target is a mask marker
or the EMPTY filler carry no loss.

Everything is plain numpy with hand-written reverse-mode gradients.  A
training forward saves, block by block, only the arrays its backward
reads (an FFN keeps the GELU's input and CDF, and backward recomputes
its output as their product).  ``backward`` consumes that cache: each
block's backward adds its own parameters' gradients, returns the
gradient of its input, and its saved arrays are dropped as soon as it
returns.  The large elementwise stages write their results in place, in
the same order of operations, so a step holds few temporaries.  All
functions are deterministic given their inputs.

``forward`` is the only implementation of the network.  It keeps the
real positions of a batch packed as one (N, d) array, so padding costs
only its share of the attention core.  Training runs it over
right-padded batches.  A :class:`DecodeSession` decodes several rows
at once: it runs ``forward`` over their left-padded contexts (prefill,
once per context object) and then over one appended item per row,
passing a :class:`KVCache` so every call continues each row's positions.

Architecture choices not pinned elsewhere, recorded here: pre-norm
blocks, exact (erf-based) GELU in the FFN and heads, LayerNorm eps 1e-5,
normal(0, init_scale) weight init with zero biases, no dropout.  The
key projection has no bias: a key bias b adds q . b to every score of
query q, a shift the softmax cancels, so its gradient is zero in exact
arithmetic and it could only drift on rounding noise.  The query, value
and output projections keep theirs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erf

from .errors import CapacityError, InvalidInputError, VocabularyError, require_positive
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
    max_mask_spans: int = 3
    init_scale: float = 0.02
    dtype: str = "float32"

    def __post_init__(self):
        require_positive(
            self, "num_layers", "hidden_dim", "ffn_dim", "num_heads", "num_codebooks", "max_positions",
            "text_vocab_size",
        )
        if len(self.codebook_sizes) != self.num_codebooks:
            raise InvalidInputError("codebook_sizes length must equal num_codebooks")
        if len(self.loss_weights) != self.num_codebooks:
            raise InvalidInputError("loss_weights length must equal num_codebooks")
        if any(w <= 0 for w in self.loss_weights):
            raise InvalidInputError("loss_weights must all be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidInputError("hidden_dim must be divisible by num_heads")
        try:
            floating = np.issubdtype(np.dtype(self.dtype), np.floating)
        except TypeError:
            floating = False
        if not floating:
            raise InvalidInputError(f"dtype '{self.dtype}' is not a numpy float type")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def head_vocab_size(self, k: int) -> int:
        return self.codebook_sizes[k] + self.special_index("empty") + 1

    def special_index(self, kind: str, index: int = 0) -> int:
        """The one index of a marker/EMPTY, shared by its embedding and output ids.

        With M = max_mask_spans: mask i -> i - 1, EOS -> M, EOU -> M + 1 and
        EMPTY -> M + 2.  A marker's row in ``marker_emb`` is this index, and
        its id in slot k, as input and as head k's output, is
        ``codebook_sizes[k]`` plus it.
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


@functools.lru_cache(maxsize=16)
def _layer_ffn(i: int) -> tuple[str, ...]:
    """The parameters of layer i's FFN block: (w1, b1, w2, b2).  Cached: a decode step reads it per layer."""
    return tuple(f"layer{i}.ffn.{n}" for n in ("w1", "b1", "w2", "b2"))


@functools.lru_cache(maxsize=16)
def _head_ffns(num_codebooks: int) -> tuple[tuple[str, ...], ...]:
    """The parameters of each head's FFN block, in the same roles.  Cached like :func:`_layer_ffn`."""
    return tuple(tuple(f"head{k}.{n}" for n in ("w0", "b0", "w1", "b1")) for k in range(num_codebooks))


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the canonical order checkpoints serialize."""
    d, f = cfg.hidden_dim, cfg.ffn_dim
    shapes = {"text_emb": (cfg.text_vocab_size, d)}
    for k in range(cfg.num_codebooks):
        shapes[f"codebook_emb_{k}"] = (cfg.codebook_sizes[k], d)
    shapes["empty_emb"] = (1, d)
    shapes["marker_emb"] = (cfg.max_mask_spans + 2, d)
    for i in range(cfg.num_layers):
        p = f"layer{i}"
        shapes[f"{p}.ln1.gain"] = shapes[f"{p}.ln1.bias"] = (d,)
        for name in ("q", "k", "v", "o"):
            shapes[f"{p}.attn.w{name}"] = (d, d)
            if name != "k":  # no key bias (see the module docstring)
                shapes[f"{p}.attn.b{name}"] = (d,)
        shapes[f"{p}.ln2.gain"] = shapes[f"{p}.ln2.bias"] = (d,)
        shapes.update(zip(_layer_ffn(i), [(d, f), (f,), (f, d), (d,)]))
    shapes["final_ln.gain"] = shapes["final_ln.bias"] = (d,)
    for k, names in enumerate(_head_ffns(cfg.num_codebooks)):
        v = cfg.head_vocab_size(k)
        shapes.update(zip(names, [(d, d), (d,), (d, v), (v,)]))
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    """Unit LayerNorm gains, zero biases, normal(0, init_scale) weights and embeddings.

    Weights are drawn in the canonical parameter order.
    """
    dt = cfg.np_dtype
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            params[name] = np.ones(shape, dtype=dt)
        elif leaf.startswith("b"):  # bias, attention bq/bv/bo, FFN and head b<j>
            params[name] = np.zeros(shape, dtype=dt)
        else:
            params[name] = (rng.standard_normal(shape) * cfg.init_scale).astype(dt)
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


@functools.lru_cache(maxsize=8)
def _position_table(length: int, dim: int, dtype) -> np.ndarray:
    """Read-only ``sinusoidal_positions(length, dim, dtype)``, built once per shape and dtype."""
    table = sinusoidal_positions(length, dim, dtype)
    table.setflags(write=False)
    return table


@dataclass
class EncodedBatch:
    """[text; stacked items] streams as padded id arrays, one row each.

    Every item holds K slots in one id space, the output vocabulary of the
    head of the same slot: a real codec token is itself, and an EMPTY slot
    or a marker holds ``special_output_id(k, ...)``, so slot k of the next
    item is head k's target.  A text item's id sits in slot 0; padding and
    the other slots of text hold 0.
    """

    kind: np.ndarray     # (B, L) int8
    ids: np.ndarray      # (B, L, K) int64
    lengths: np.ndarray  # (B,)

    @property
    def batch_size(self):
        return self.kind.shape[0]

    @property
    def max_length(self):
        return self.kind.shape[1]


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
    sizes = np.asarray(cfg.codebook_sizes, dtype=np.int64)
    empty = sizes + cfg.special_index("empty")
    kind = np.zeros((b, width), dtype=np.int8)
    ids = np.zeros((b, width, k_count), dtype=np.int64)
    for row, (text_ids, items) in enumerate(contexts):
        first = int(width - lengths[row])
        for pos, t in enumerate(text_ids, start=first):
            if not (isinstance(t, _ID_TYPES) and 0 <= t < cfg.text_vocab_size):
                raise VocabularyError(f"text id {t!r} out of range")
            kind[row, pos] = KIND_TEXT
            ids[row, pos, 0] = t
        first += len(text_ids)
        for pos, item in enumerate(items, start=first):
            if isinstance(item, SpecialToken):
                kind[row, pos] = KIND_MARKER
                ids[row, pos] = sizes + cfg.special_index(item.kind, item.index)
                continue
            if not isinstance(item, (tuple, list, np.ndarray)) or len(item) != k_count:
                raise InvalidInputError(
                    f"item {pos - first} ({item!r}) is neither a marker nor a frame step of {k_count} slots"
                )
            kind[row, pos] = KIND_FRAME
            for k, v in enumerate(item):
                if not (isinstance(v, _ID_TYPES) and (v == EMPTY or 0 <= v < cfg.codebook_sizes[k])):
                    raise VocabularyError(f"codebook {k + 1} token {v!r} out of range")
                ids[row, pos, k] = empty[k] if v == EMPTY else v
    return EncodedBatch(kind, ids, lengths)


def encode_sequence(text_ids, items, cfg: ModelConfig) -> EncodedBatch:
    """Turn transcript ids plus stacked items into a one-row batch."""
    return encode_batch([(text_ids, items)], cfg)


def pad_sequences(rows: list[EncodedBatch], cfg: ModelConfig) -> EncodedBatch:
    """Stack one-row batches, padding each to the longest."""
    if not rows:
        raise InvalidInputError("cannot batch zero sequences")
    b = len(rows)
    length = max(r.max_length for r in rows)
    kind = np.zeros((b, length), dtype=np.int8)
    ids = np.zeros((b, length, cfg.num_codebooks), dtype=np.int64)
    for i, r in enumerate(rows):
        n = r.max_length
        kind[i, :n] = r.kind[0]
        ids[i, :n] = r.ids[0]
    return EncodedBatch(kind, ids, np.concatenate([r.lengths for r in rows]))


def next_item_targets(batch: EncodedBatch, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Head targets and loss mask of a batch: position t predicts the item at t + 1.

    A frame or marker item's ids are the targets.  Real tokens, EOS and
    EOU carry loss; EMPTY and mask markers do not.  Where the next item is
    text or padding (and at each row's last position) the target is 0,
    without loss.

    One exception ends the relocated spans: where the next item is the
    first delay-tail step of a span after EOU (the first frame step whose
    codebook-1 slot is EMPTY), head 1's target is EOS, with loss.  That is
    the step at which decoding reads head 1's EOS to fix the span's length.
    """
    kind = np.full_like(batch.kind, KIND_PAD)
    kind[:, :-1] = batch.kind[:, 1:]
    item = (kind == KIND_FRAME) | (kind == KIND_MARKER)
    targets = np.zeros_like(batch.ids)
    targets[:, :-1] = batch.ids[:, 1:]
    targets[~item] = 0
    special = targets - np.asarray(cfg.codebook_sizes)  # special_index of EMPTY and markers
    eos, eou = cfg.special_index("eos"), cfg.special_index("eou")
    loss_mask = item[:, :, None] & ((special < 0) | (special == eos) | (special == eou))
    # the next item opens a delay tail after EOU, and this item is no tail step
    head1, empty = targets[:, :, 0], cfg.special_output_id(0, "empty")
    after_eou = np.cumsum(head1 == cfg.special_output_id(0, "eou"), axis=1) > 0
    in_tail = (batch.kind == KIND_FRAME) & (batch.ids[:, :, 0] == empty)
    ends = after_eou & (head1 == empty) & ~in_tail
    targets[ends, 0] = cfg.special_output_id(0, "eos")
    loss_mask[ends, 0] = True
    return targets, loss_mask


def _slot_tables(params: dict, cfg: ModelConfig) -> list[np.ndarray]:
    """Slot k's input table [codebook_emb_k; marker_emb; empty_emb]: row i embeds head k's id i."""
    specials = np.concatenate([params["marker_emb"], params["empty_emb"]])
    return [np.concatenate([params[f"codebook_emb_{k}"], specials]) for k in range(cfg.num_codebooks)]


class FixedTables(NamedTuple):
    """Arrays ``forward`` derives from the parameters alone.

    ``slots`` are the K slot tables (:func:`_slot_tables`); ``head_w0``
    (K, d, d) and ``head_b0`` (K, 1, d) stack the K heads' first layers so
    they run as one product.  They are copies: they go stale when the
    parameters change.
    """

    slots: list
    head_w0: np.ndarray
    head_b0: np.ndarray


def _fixed_tables(params: dict, cfg: ModelConfig) -> FixedTables:
    heads = range(cfg.num_codebooks)
    return FixedTables(
        _slot_tables(params, cfg),
        np.stack([params[f"head{k}.w0"] for k in heads]),
        np.stack([params[f"head{k}.b0"] for k in heads])[:, None, :],
    )


def _embed_batch(params: dict, cfg: ModelConfig, batch: EncodedBatch, start=0, slots=None) -> np.ndarray:
    """Input vectors of the real positions of a batch, packed row-major: (N, d).

    The batch's first column sits at position ``start``, one position for
    every row or one per row.  Padding gets no vector.

    A text item draws its ``text_emb`` row and a marker its row of slot
    0's table (:func:`_slot_tables`, or ``slots`` when given).  A frame
    step sums the rows of its K ids in their slots' tables, so each EMPTY
    slot adds ``empty_emb``.  The sinusoidal encoding of the absolute
    position is added, read from one table of ``max_positions`` rows.
    """
    real = batch.kind != KIND_PAD
    kind, ids = batch.kind[real], batch.ids[real]
    tables = _slot_tables(params, cfg) if slots is None else slots
    text = kind == KIND_TEXT
    emb = np.empty((kind.size, cfg.hidden_dim), dtype=cfg.np_dtype)
    emb[text] = params["text_emb"][ids[text, 0]]
    emb[~text] = tables[0][ids[~text, 0]]
    frame = kind == KIND_FRAME
    for k in range(1, cfg.num_codebooks):
        np.add(emb, tables[k][ids[:, k]], out=emb, where=frame[:, None])
    positions = np.asarray(start)[..., None] + np.arange(batch.max_length)
    emb += _position_table(cfg.max_positions, cfg.hidden_dim, cfg.np_dtype)[
        np.broadcast_to(positions, real.shape)[real]
    ]
    return emb


def _embed_backward(params: dict, cfg: ModelConfig, batch: EncodedBatch, d_emb, grads: dict):
    """Add the gradient of the packed input vectors ``d_emb`` to the embedding tables."""
    real = batch.kind != KIND_PAD
    kind, ids = batch.kind[real], batch.ids[real]
    text = kind == KIND_TEXT
    np.add.at(grads["text_emb"], ids[text, 0], d_emb[text])
    frame = kind == KIND_FRAME
    for k in range(cfg.num_codebooks):
        drawn = ~text if k == 0 else frame
        d_table = np.zeros((cfg.head_vocab_size(k), cfg.hidden_dim), dtype=d_emb.dtype)
        np.add.at(d_table, ids[drawn, k], d_emb[drawn])
        size = cfg.codebook_sizes[k]
        grads[f"codebook_emb_{k}"] += d_table[:size]
        grads["marker_emb"] += d_table[size:-1]
        grads["empty_emb"] += d_table[-1:]


# ---------------------------------------------------------------------------
# Primitive layers (forward saves what backward reads)
# ---------------------------------------------------------------------------


def _gelu_cdf(x):
    """Phi(x), the standard normal CDF: exact GELU is x * Phi(x)."""
    phi = x / np.sqrt(2.0).astype(x.dtype)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def _gelu_grad(x, phi, d_out):
    """d_out * GELU'(x) for ``phi`` = Phi(x), written over ``d_out``."""
    pdf = -0.5 * x
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf /= x.dtype.type(_SQRT_2PI)
    pdf *= x
    pdf += phi
    d_out *= pdf
    return d_out


def _affine(x, w, b):
    """x @ w + b, the bias added in place."""
    out = x @ w
    out += b
    return out


def _mean_last(x):
    """``x.mean(axis=-1, keepdims=True)``, bit for bit, without its Python-level overhead."""
    total = x.sum(axis=-1, keepdims=True)
    total /= x.shape[-1]
    return total


def _layer_norm(params, prefix, x):
    """LayerNorm of the rows ``x`` with the gain and bias named ``prefix``; returns (out, cache)."""
    normed = x - _mean_last(x)
    var = _mean_last(normed * normed)
    inv_std = 1.0 / np.sqrt(var + np.asarray(_LN_EPS, dtype=x.dtype))
    normed *= inv_std
    out = normed * params[f"{prefix}.gain"]
    out += params[f"{prefix}.bias"]
    return out, (normed, inv_std)


def _layer_norm_backward(params, prefix, d_out, cache, grads):
    """Add the gain and bias gradients to ``grads``; returns d_x.  Overwrites the cached ``normed``."""
    normed, inv_std = cache
    grads[f"{prefix}.gain"] += (d_out * normed).sum(axis=0)
    grads[f"{prefix}.bias"] += d_out.sum(axis=0)
    d_x = d_out * params[f"{prefix}.gain"]
    # d_x for y = (x - mean) / std: project out the mean and the normed direction
    mean = d_x.mean(axis=-1, keepdims=True)
    normed *= (d_x * normed).mean(axis=-1, keepdims=True)
    d_x -= mean
    d_x -= normed
    d_x *= inv_std
    return d_x


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


def _split_heads(a, real, cfg):
    """Packed (N, d) rows -> (B, H, L, head_dim) at their batch columns, zero at padding."""
    b, length = real.shape
    if len(a) == real.size:  # no padding: the packed rows are the columns, row-major
        full = a.reshape(b, length, cfg.hidden_dim)
    else:
        full = np.zeros((b, length, cfg.hidden_dim), dtype=a.dtype)
        full[real] = a
    return full.reshape(b, length, cfg.num_heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(a, real):
    """(B, H, L, head_dim) -> the packed (N, d) rows of the real positions."""
    columns = a.transpose(0, 2, 1, 3)
    if not real.all():
        columns = columns[real]
    return columns.reshape(-1, a.shape[1] * a.shape[3])


def _attention_forward(params, prefix, x, real, bias, cfg, kv=None):
    """Multi-head self-attention over packed rows ``x``; ``kv`` is this layer's (keys, values, column).

    Only the attention core runs in the (B, H, L, head_dim) layout of the
    batch columns; the projections run on the packed rows.  With a cache,
    this call's keys/values are written into the cache buffers at
    ``column`` and attention runs over every column up to them, so the
    next call sees every position.
    """
    dh = cfg.hidden_dim // cfg.num_heads
    q = _split_heads(_affine(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"]), real, cfg)
    k = _split_heads(x @ params[f"{prefix}.wk"], real, cfg)
    v = _split_heads(_affine(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"]), real, cfg)
    if kv is not None:
        keys, values, past = kv
        end = past + real.shape[1]
        keys[:, :, past:end] = k
        values[:, :, past:end] = v
        k, v = keys[:, :, :end], values[:, :, :end]
    weights = q @ k.transpose(0, 1, 3, 2)
    weights /= np.asarray(np.sqrt(dh), dtype=x.dtype)
    weights += bias
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = _merge_heads(weights @ v, real)
    out = _affine(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    return out, (x, real, q, k, v, weights, merged)


def _attention_backward(params, prefix, d_out, cache, cfg, grads):
    x, real, q, k, v, weights, merged = cache
    dh = cfg.hidden_dim // cfg.num_heads

    grads[f"{prefix}.wo"] += merged.T @ d_out
    grads[f"{prefix}.bo"] += d_out.sum(axis=0)
    d_context = _split_heads(d_out @ params[f"{prefix}.wo"].T, real, cfg)

    d_weights = d_context @ v.transpose(0, 1, 3, 2)
    d_v = weights.transpose(0, 1, 3, 2) @ d_context
    # softmax jacobian: dS = W * (dW - sum(dW * W)), written over dW
    d_scores = d_weights
    d_scores -= (d_weights * weights).sum(axis=-1, keepdims=True)
    d_scores *= weights
    d_scores /= np.asarray(np.sqrt(dh), dtype=x.dtype)
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 1, 3, 2) @ q

    d_x = np.zeros_like(x)
    for name, dval in (("q", d_q), ("k", d_k), ("v", d_v)):
        dval = _merge_heads(dval, real)
        grads[f"{prefix}.w{name}"] += x.T @ dval
        if name != "k":
            grads[f"{prefix}.b{name}"] += dval.sum(axis=0)
        d_x += dval @ params[f"{prefix}.w{name}"].T
    return d_x


def _ffn_forward(params, blocks, x, w1, b1):
    """K Linear -> GELU -> Linear blocks over the same rows ``x``; returns (K outputs, cache).

    ``blocks`` are the blocks' parameter names, (w1, b1, w2, b2) each.
    Their first layers run stacked, as one product of ``w1`` (K, d, f)
    and ``b1`` (K, 1, f) and one GELU; the second layers run one per
    block, since their widths may differ.  A layer's FFN is the one-block
    case, ``params[w1][None]``.  The cache keeps the GELU's input and CDF,
    not its output: backward recomputes that as their product.
    """
    pre = _affine(x, w1, b1)
    phi = _gelu_cdf(pre)
    act = pre * phi
    out = [_affine(act[k], params[w2], params[b2]) for k, (_, _, w2, b2) in enumerate(blocks)]
    return out, (x, pre, phi, w1)


def _ffn_backward(params, blocks, d_out, cache, grads):
    """Mirror of :func:`_ffn_forward` for the K output gradients ``d_out``; returns d_x."""
    x, pre, phi, w1 = cache
    act = pre * phi  # the GELU output; block k's rows are overwritten by their gradient once read
    for k, ((_, _, w2, b2), d_k) in enumerate(zip(blocks, d_out)):
        grads[w2] += act[k].T @ d_k
        grads[b2] += d_k.sum(axis=0)
        np.matmul(d_k, params[w2].T, out=act[k])
    d_pre = _gelu_grad(pre, phi, act)
    for k, (w1_name, b1_name, _, _) in enumerate(blocks):
        grads[w1_name] += x.T @ d_pre[k]  # one 2-D product per block: broadcast over K it is slower
        grads[b1_name] += d_pre[k].sum(axis=0)
    return sum(d_pre[k] @ w1[k].T for k in range(len(blocks)))


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------


def forward(
    params: dict,
    cfg: ModelConfig,
    batch: EncodedBatch,
    heads_at: np.ndarray,
    want_cache: bool = False,
    kv_cache=None,
    tables: FixedTables | None = None,
):
    """Run the network; returns (logits per codebook, cache or None).

    The residual stream holds the real positions of the batch
    (``kind != PAD``) packed row-major into one (N, d) array: the
    embedding, the LayerNorms, the attention projections, the FFN and the
    residual adds run on those N rows, and only the attention core
    (scores, softmax, context) places them at their (B, L) columns.
    Padding costs nothing outside that core.

    The heads (final LayerNorm and the K head FFN blocks) run only at the
    positions the (B, L) boolean ``heads_at`` marks, which must be real
    positions: ``logits[k]`` has shape (heads_at.sum(), V_k), one row per
    marked position in row-major order.  A position's logits are
    computed from positions <= it only.

    ``kv_cache`` (decoding only) is a :class:`KVCache` over the same
    rows: the batch continues its columns, each row at its own position,
    and its own keys/values are written into it.  The cache knows which
    columns hold keys from its pads alone, so the first call's padding
    must be its left pads and every later batch must hold no padding.

    With ``want_cache`` the second value is the cache :func:`backward`
    takes: the batch, the rows the heads ran at and, for each block in
    the order it ran, the arrays its backward reads.  It covers no keys
    of a ``kv_cache``, and one ``backward`` consumes it.

    ``tables`` are :func:`_fixed_tables` of ``params``, built here when not
    given; a decode session passes the ones it built once.
    """
    if tables is None:
        tables = _fixed_tables(params, cfg)
    real = batch.kind != KIND_PAD
    key_ok = real
    start = past = 0
    if kv_cache is not None:
        past = kv_cache.extend(batch.max_length)
        start = past - kv_cache.pad
        key_ok = np.arange(past + batch.max_length) >= kv_cache.pad[:, None]
    x = _embed_batch(params, cfg, batch, start=start, slots=tables.slots)
    bias = _causal_bias(key_ok, batch.max_length, x.dtype)
    saved = []  # each block's backward cache, in the order the blocks ran
    for i in range(cfg.num_layers):
        p = f"layer{i}"
        normed1, ln1_cache = _layer_norm(params, f"{p}.ln1", x)
        kv = None if kv_cache is None else (kv_cache.keys[i], kv_cache.values[i], past)
        attn_out, attn_cache = _attention_forward(params, f"{p}.attn", normed1, real, bias, cfg, kv)
        x += attn_out
        normed2, ln2_cache = _layer_norm(params, f"{p}.ln2", x)
        ffn = _layer_ffn(i)
        (ffn_out,), ffn_cache = _ffn_forward(params, [ffn], normed2, params[ffn[0]][None], params[ffn[1]])
        x += ffn_out
        if want_cache:  # otherwise each layer's intermediates are freed as it ends
            saved += [ln1_cache, attn_cache, ln2_cache, ffn_cache]
    heads = heads_at[real]  # (N,) packed rows the heads run at
    hidden, final_cache = _layer_norm(params, "final_ln", x[heads])
    logits, head_cache = _ffn_forward(params, _head_ffns(cfg.num_codebooks), hidden, tables.head_w0, tables.head_b0)

    cache = None
    if want_cache:
        cache = {"batch": batch, "heads": heads, "saved": saved + [final_cache, head_cache]}
    return logits, cache


def backward(params: dict, cfg: ModelConfig, cache: dict, d_logits: list) -> dict:
    """Gradients of a scalar whose logit-gradients are ``d_logits`` (rows as ``forward``'s logits).

    Consumes ``cache``: each block's saved arrays are dropped, some
    overwritten first, as soon as its gradients are taken, so the memory
    a step holds shrinks as backward goes, and ``cache`` ends empty.  A
    cache serves one backward.
    """
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    saved = cache.pop("saved")
    d_logits = [np.asarray(d_k, dtype=cfg.np_dtype) for d_k in d_logits]
    d_hidden = _ffn_backward(params, _head_ffns(cfg.num_codebooks), d_logits, saved.pop(), grads)
    heads = cache.pop("heads")
    d_x = np.zeros((heads.size, cfg.hidden_dim), dtype=d_hidden.dtype)
    d_x[heads] = _layer_norm_backward(params, "final_ln", d_hidden, saved.pop(), grads)

    for i in reversed(range(cfg.num_layers)):
        p = f"layer{i}"
        d_normed2 = _ffn_backward(params, [_layer_ffn(i)], [d_x], saved.pop(), grads)
        d_x += _layer_norm_backward(params, f"{p}.ln2", d_normed2, saved.pop(), grads)
        d_normed1 = _attention_backward(params, f"{p}.attn", d_x, saved.pop(), cfg, grads)
        d_x += _layer_norm_backward(params, f"{p}.ln1", d_normed1, saved.pop(), grads)

    _embed_backward(params, cfg, cache.pop("batch"), d_x, grads)
    return grads


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def weighted_loss(logits: list, targets: np.ndarray, loss_mask: np.ndarray, weights):
    """Weighted masked cross-entropy: L = sum_k alpha_k * mean-CE_k.

    ``logits[k]`` is (..., V_k); ``targets``/``loss_mask`` are (..., K).
    Returns (total, per-codebook components, probs):
    ``probs[k]`` is head k's softmax at its loss rows, (N_k, V_k) float64
    in the row order of ``logits[k][loss_mask[..., k]]``, which
    :func:`loss_gradient` takes so the softmax is computed once per step.
    Accumulation runs in float64 regardless of model dtype.
    """
    per_k, probs = [], []
    for k, logit_k in enumerate(logits):
        mask = loss_mask[..., k]
        lk = logit_k[mask].astype(np.float64)
        n = len(lk)
        if n == 0:
            per_k.append(0.0)
            probs.append(lk)
            continue
        picked = lk[np.arange(n), targets[..., k][mask]]
        m = lk.max(axis=-1, keepdims=True)
        lk -= m
        p = np.exp(lk, out=lk)
        sums = p.sum(axis=-1)
        ce = np.log(sums) + m[:, 0] - picked
        per_k.append(float(ce.mean()))
        p /= sums[:, None]
        probs.append(p)
    total = float(sum(w * l for w, l in zip(weights, per_k)))
    return total, per_k, probs


def loss_gradient(logits: list, targets: np.ndarray, loss_mask: np.ndarray, weights, probs: list):
    """d(total loss)/d(logits): softmax minus one-hot, scaled by alpha_k / N_k.

    ``probs`` is the softmax :func:`weighted_loss` returned for the same
    logits and mask; it is overwritten with the gradient's loss rows.
    """
    d_logits = []
    for k, logit_k in enumerate(logits):
        mask = loss_mask[..., k]
        d_k = np.zeros_like(logit_k)
        p = probs[k]
        n = len(p)
        if n > 0:
            p[np.arange(n), targets[..., k][mask]] -= 1.0
            p *= weights[k] / n
            d_k[mask] = p
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
    left-padded: the first ``pad[r]`` columns of row r hold no position,
    and column c of row r holds position c - pad[r].  The prefill
    left-pads and every later call gives every row one real item, so the
    pads alone say which columns hold a key: those with c >= pad[r].
    """

    def __init__(self, cfg: ModelConfig, pad, capacity: int):
        shape = (len(pad), cfg.num_heads, capacity, cfg.hidden_dim // cfg.num_heads)
        self.keys = [np.empty(shape, dtype=cfg.np_dtype) for _ in range(cfg.num_layers)]
        self.values = [np.empty(shape, dtype=cfg.np_dtype) for _ in range(cfg.num_layers)]
        self.capacity = capacity
        self.pad = np.asarray(pad, dtype=np.int64)
        self.length = 0

    def extend(self, n: int) -> int:
        """Claim ``n`` columns for a call; returns the first."""
        past = self.length
        if past + n > self.capacity:
            extra = max(self.capacity, past + n - self.capacity)
            grow = ((0, 0), (0, 0), (0, extra), (0, 0))
            self.keys = [np.pad(a, grow) for a in self.keys]
            self.values = [np.pad(a, grow) for a in self.values]
            self.capacity += extra
        self.length = past + n
        return past

    def keep(self, rows) -> None:
        """Keep only the given rows, in the given order."""
        self.keys = [a[rows] for a in self.keys]
        self.values = [a[rows] for a in self.values]
        self.pad = self.pad[rows]


class DecodeSession:
    """Decodes several rows in step, one item per row per call, with a KV cache.

    Each row starts from its own ``(text_ids, items)`` context.  Contexts
    are left-padded so that every row ends in the same column; a row's
    positions count from its own first item and its padding is never
    attended to.  Rows given the same context object (the same
    ``text_ids`` and ``items`` objects, as in ``[context] * n``) share
    one prefill, whose cache row is repeated; ``prefill_positions``
    counts the positions the prefill ran (distinct context objects times
    the padded width).  Equal contexts passed as different objects are
    prefilled separately.

    ``position`` is the number of columns run so far, and ``logits[k]``
    holds the next-item logits of every row from head k, a two-layer FFN
    block over the final hidden state, shape (rows, V_k).
    :meth:`append` extends every row by one item; :meth:`keep` lets rows
    that are done leave.  The prefill and every append run the same
    batched ``forward``, so scored prefixes and incrementally decoded
    prefixes agree.

    The session builds the tables ``forward`` derives from the parameters
    (:class:`FixedTables`) once, so ``state.params`` must not change while
    it decodes.
    """

    def __init__(self, state: ModelState, contexts):
        self.state = state
        cfg = state.config
        self._tables = _fixed_tables(state.params, cfg)
        unique = {(id(text_ids), id(items)): (text_ids, items) for text_ids, items in contexts}
        batch = encode_batch(list(unique.values()), cfg)
        if batch.batch_size == 0 or batch.lengths.min() == 0:
            raise InvalidInputError("every decode context must contain at least one item")
        width = batch.max_length
        self._kv = KVCache(cfg, width - batch.lengths, width)
        self._run(batch)
        self.prefill_positions = len(unique) * width
        if len(unique) < len(contexts):  # repeat each shared prefill's cache row
            row = {key: r for r, key in enumerate(unique)}
            self.keep([row[id(text_ids), id(items)] for text_ids, items in contexts])

    def _run(self, batch: EncodedBatch) -> list[np.ndarray]:
        """Run ``batch`` after the cached columns; keep the logits of its last column."""
        heads_at = np.zeros(batch.kind.shape, dtype=bool)
        heads_at[:, -1] = True  # every row ends in the last column
        self.logits, _ = forward(
            self.state.params, self.state.config, batch, heads_at, kv_cache=self._kv, tables=self._tables
        )
        return self.logits

    @property
    def position(self) -> int:
        """Columns run so far: the cache's length."""
        return self._kv.length

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
    """Full-context forward for one utterance; logits (L, V_k) at every position."""
    batch = encode_sequence(text_ids, items, state.config)
    logits, _ = forward(state.params, state.config, batch, batch.kind != KIND_PAD)
    return logits
