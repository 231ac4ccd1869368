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
runs both: it runs K blocks over the same rows, one block at a time, its
first layer, its GELU (one erf call), written over its input, and its
second layer; backward rebuilds one block's GELU input at a time too, so
in either direction one block's GELU input, output and gradient exist at
a time.  A layer's FFN is the one-block case.

Every encoded form is an :class:`EncodedBatch`; one utterance is a
one-row batch.  Each position's training targets are the ids of the
item at the next position of that batch (:func:`next_item_targets`).
Training minimizes sum_k alpha_k * L_k where L_k is the mean
masked cross-entropy of head k; positions whose target is a mask marker
or the EMPTY filler carry no loss.

Everything is plain numpy with hand-written reverse-mode gradients.
Every block is pre-norm: a LayerNorm, then attention, an FFN or the
heads.  A training forward saves, block by block, only what its backward
cannot rebuild for a few cheap operations: the LayerNorm's normalized
rows and inverse deviations, but not its output; the attention's softmax
weights, but not q, k, v nor the merged context; each FFN block's GELU
CDF, but not the GELU's input or output.  ``backward`` rebuilds the
LayerNorm output from the normalized rows by the forward's own two
operations, q, k and v from that by the same projections, the merged
context by the forward's own product of the weights and v, each FFN
block's GELU input by the block's first-layer product and bias add, and
the GELU output as the product of its input and CDF, so every rebuilt
array equals the forward's bit for bit.  It consumes the cache and the
logit gradients: each block's backward adds its own parameters'
gradients and returns the gradient of its input, dropping each saved
array after its last read (the attention's weights once the softmax
Jacobian has read them, each FFN block's CDF once that block is done),
and each head's logit gradient as soon as that head's block has read
it.  The large elementwise stages write their results in place, in the
same order of operations, so a step holds few temporaries.  All
functions are deterministic given their inputs.

``forward`` is the only implementation of the network.  It keeps the
real positions of a batch packed as one (N, d) array, so padding costs
only its share of the attention core, and after the last attention it
keeps only the rows the heads read: the last FFN, like the heads, runs
at those rows alone.  Training runs it over right-padded batches.  A
:class:`DecodeSession` decodes several rows at once: it runs
``forward`` over their left-padded contexts (prefill, once per context
object) and then over one appended item per row, passing a
:class:`KVCache` so every call continues each row's positions.

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

import numpy as np
from scipy.special import erf

from .errors import CapacityError, Count, InvalidInputError, Positive, VocabularyError, check_bounds
from .tokens import EMPTY, SpecialToken

# position-stream kinds
KIND_PAD = 0
KIND_TEXT = 1
KIND_FRAME = 2
KIND_MARKER = 3

_LN_EPS = 1e-5
# float16 rounds AdamW's eps to 0 and scipy's erf has no long double loop
_DTYPES = ("float32", "float64")
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# products per block of rows in the softmax Jacobian's row sums
_ROW_BLOCK_CELLS = 2**16


@dataclass
class ModelConfig:
    num_layers: Count = 2
    hidden_dim: Count = 128
    ffn_dim: Count = 512
    num_heads: Count = 4
    num_codebooks: Count = 4
    codebook_sizes: tuple[Count, ...] = (256, 256, 256, 256)
    text_vocab_size: Count = 30
    max_positions: Count = 2048
    loss_weights: tuple[Positive, ...] = (5.0, 1.0, 0.5, 0.1)
    max_mask_spans: Count = 3
    init_scale: Positive = 0.02  # the standard deviation of the initial weights
    dtype: str = "float32"

    def __post_init__(self):
        check_bounds(self)
        if not len(self.codebook_sizes) == len(self.loss_weights) == self.num_codebooks:
            raise InvalidInputError("codebook_sizes and loss_weights must each hold num_codebooks entries")
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidInputError("hidden_dim must be divisible by num_heads")
        if self.dtype not in _DTYPES:
            raise InvalidInputError(f"dtype '{self.dtype}' is not one of {', '.join(_DTYPES)}")

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


def sinusoidal_positions(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Classic sin/cos rows for positions 0 .. length - 1.

    Row p encodes position p: pe[p, 2i] = sin(p * r_i), pe[p, 2i+1] = cos(p * r_i).
    """
    positions = np.arange(length, dtype=np.float64)[:, None]
    half = np.arange(dim // 2, dtype=np.float64)
    rates = np.power(10000.0, -2.0 * half / dim)
    angles = positions * rates
    pe = np.zeros((length, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
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


def _embed_batch(params: dict, cfg: ModelConfig, batch: EncodedBatch, slots, start) -> np.ndarray:
    """Input vectors of the real positions of a batch, packed row-major: (N, d).

    The batch's first column sits at position ``start``, one position for
    every row or one per row.  Padding gets no vector.

    A text item draws its ``text_emb`` row and a marker its row of slot
    0's table in ``slots`` (:func:`_slot_tables`).  A frame step sums the
    rows of its K ids in their slots' tables, so each EMPTY slot adds
    ``empty_emb``.  The sinusoidal encoding of the absolute
    position is added, read from one table of ``max_positions`` rows.
    """
    real = batch.kind != KIND_PAD
    kind, ids = batch.kind[real], batch.ids[real]
    text = kind == KIND_TEXT
    emb = np.empty((kind.size, cfg.hidden_dim), dtype=cfg.np_dtype)
    emb[text] = params["text_emb"][ids[text, 0]]
    emb[~text] = slots[0][ids[~text, 0]]
    frame = kind == KIND_FRAME
    for k in range(1, cfg.num_codebooks):
        np.add(emb, slots[k][ids[:, k]], out=emb, where=frame[:, None])
    positions = np.asarray(start)[..., None] + np.arange(batch.max_length)
    emb += _position_table(cfg.max_positions, cfg.hidden_dim, cfg.np_dtype)[
        np.broadcast_to(positions, real.shape)[real]
    ]
    return emb


def _add_rows(table, ids, rows):
    """``np.add.at(table, ids, rows)`` by one stable sort of ``ids`` and one ``np.add.reduceat``.

    Each id's rows are summed in their order, then added to its row of
    ``table`` once; ``np.add.at`` is several times slower.
    """
    if not len(ids):
        return
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    table[ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def _embed_backward(params: dict, cfg: ModelConfig, batch: EncodedBatch, d_emb, grads: dict):
    """Add the gradient of the packed input vectors ``d_emb`` to the embedding tables."""
    real = batch.kind != KIND_PAD
    kind, ids = batch.kind[real], batch.ids[real]
    text = kind == KIND_TEXT
    _add_rows(grads["text_emb"], ids[text, 0], d_emb[text])
    frame = kind == KIND_FRAME
    for k in range(cfg.num_codebooks):
        drawn = ~text if k == 0 else frame
        d_table = np.zeros((cfg.head_vocab_size(k), cfg.hidden_dim), dtype=d_emb.dtype)
        _add_rows(d_table, ids[drawn, k], d_emb[drawn])
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
    """LayerNorm of the rows ``x`` with the gain and bias named ``prefix``; returns (out, cache).

    The cache is (normed, inv_std), not the output: :func:`_layer_norm_output`
    rebuilds that from ``normed``.
    """
    normed = x - _mean_last(x)
    var = _mean_last(normed * normed)
    inv_std = 1.0 / np.sqrt(var + np.asarray(_LN_EPS, dtype=x.dtype))
    normed *= inv_std
    return _layer_norm_output(params, prefix, normed), (normed, inv_std)


def _layer_norm_output(params, prefix, normed):
    """``normed * gain + bias`` by the forward's own two operations, so a rebuilt output equals it bit for bit."""
    out = normed * params[f"{prefix}.gain"]
    out += params[f"{prefix}.bias"]
    return out


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


def _attention_projections(params, prefix, x, real, cfg):
    """Queries, keys and values of the packed rows ``x``, each (B, H, L, head_dim) at their batch columns."""
    q = _split_heads(_affine(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"]), real, cfg)
    k = _split_heads(x @ params[f"{prefix}.wk"], real, cfg)
    v = _split_heads(_affine(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"]), real, cfg)
    return q, k, v


def _attention_forward(params, ln, prefix, x, real, bias, cfg, kv=None):
    """LayerNorm ``ln``, then multi-head self-attention, over packed rows ``x``; returns (out, cache).

    ``kv`` is this layer's (keys, values, column).  Only the attention
    core runs in the (B, H, L, head_dim) layout of the batch columns; the
    projections run on the packed rows.  With a KV cache, this call's
    keys/values are written into the cache buffers at ``column`` and
    attention runs over every column up to them, so the next call sees
    every position.  The cache keeps the LayerNorm's own cache and the
    softmax weights, not the block's input, q, k, v nor the merged
    context: backward rebuilds them, the context by the same product of
    the weights and v.
    """
    dh = cfg.hidden_dim // cfg.num_heads
    normed, ln_cache = _layer_norm(params, ln, x)
    q, k, v = _attention_projections(params, prefix, normed, real, cfg)
    del normed
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
    out = _affine(_merge_heads(weights @ v, real), params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    return out, (ln_cache, real, weights)


def _row_dot(a, b):
    """``(a * b).sum(axis=-1, keepdims=True)`` of two C-contiguous arrays, a bounded block of rows at a time.

    Each row is the same pairwise sum of its own products, so the result
    equals the whole-array expression bit for bit, without an ``a``-sized
    temporary.
    """
    width = a.shape[-1]
    a_rows, b_rows = a.reshape(-1, width), b.reshape(-1, width)
    out = np.empty((len(a_rows), 1), dtype=a.dtype)
    step = max(1, _ROW_BLOCK_CELLS // width)
    for lo in range(0, len(a_rows), step):
        rows = slice(lo, lo + step)
        np.sum(a_rows[rows] * b_rows[rows], axis=-1, keepdims=True, out=out[rows])
    return out.reshape(*a.shape[:-1], 1)


def _attention_backward(params, ln, prefix, d_out, cache, cfg, grads):
    """Mirror of :func:`_attention_forward`; returns the gradient of its input ``x``.

    Consumes ``cache``: the context gradient and v are dropped once the
    gradient of v is taken, and the weights once the softmax Jacobian has
    read them.
    """
    ln_cache, real, weights = cache
    del cache
    dh = cfg.hidden_dim // cfg.num_heads

    x = _layer_norm_output(params, ln, ln_cache[0])
    q, k, v = _attention_projections(params, prefix, x, real, cfg)
    merged = _merge_heads(weights @ v, real)  # the forward's context, by the forward's own product
    grads[f"{prefix}.wo"] += merged.T @ d_out
    del merged
    grads[f"{prefix}.bo"] += d_out.sum(axis=0)
    d_context = _split_heads(d_out @ params[f"{prefix}.wo"].T, real, cfg)
    d_weights = d_context @ v.transpose(0, 1, 3, 2)
    d_v = weights.transpose(0, 1, 3, 2) @ d_context
    del d_context, v
    # softmax jacobian: dS = W * (dW - sum(dW * W)), written over dW
    d_scores = d_weights
    d_scores -= _row_dot(d_weights, weights)
    d_scores *= weights
    del weights
    d_scores /= np.asarray(np.sqrt(dh), dtype=x.dtype)
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 1, 3, 2) @ q
    del q, k, d_scores, d_weights

    d_x = np.zeros_like(x)
    for name, dval in (("q", d_q), ("k", d_k), ("v", d_v)):
        dval = _merge_heads(dval, real)
        grads[f"{prefix}.w{name}"] += x.T @ dval
        if name != "k":
            grads[f"{prefix}.b{name}"] += dval.sum(axis=0)
        d_x += dval @ params[f"{prefix}.w{name}"].T
    del x, d_q, d_k, d_v
    return _layer_norm_backward(params, ln, d_x, ln_cache, grads)


def _ffn_forward(params, ln, blocks, x):
    """LayerNorm ``ln``, then K Linear -> GELU -> Linear blocks, over the same rows ``x``; returns (K outputs, cache).

    ``blocks`` are the blocks' parameter names, (w1, b1, w2, b2) each, and
    a layer's FFN is the one-block case.  Each block runs its first layer,
    its GELU, with one GELU CDF (erf) call, and its second layer before
    the next block starts, so one block's GELU input exists at a time; the
    GELU output is written over its input.  The cache keeps the
    LayerNorm's own cache and the list of the K blocks' CDFs, not the
    block's input, the GELU's input nor its output: backward rebuilds the
    input from the LayerNorm's ``normed``, the GELU's input from that by
    the block's first-layer product, and its output as the product of the
    two.
    """
    normed, ln_cache = _layer_norm(params, ln, x)
    out, phi = [], []
    for w1, b1, w2, b2 in blocks:
        pre = _affine(normed, params[w1], params[b1])
        phi.append(_gelu_cdf(pre))
        pre *= phi[-1]  # the GELU output
        out.append(_affine(pre, params[w2], params[b2]))
        del pre
    return out, (ln_cache, phi)


def _ffn_backward(params, ln, blocks, d_out, cache, grads):
    """Mirror of :func:`_ffn_forward` for the K output gradients ``d_out``; returns the gradient of ``x``.

    Rebuilds the block input from the LayerNorm's ``normed`` once, then
    takes one block at a time: its GELU input, by the forward's own
    first-layer product and bias add into one (rows, f) buffer, its GELU
    output as the product of that input and the cached CDF ``phi[k]``,
    which the gradient through its second layer then overwrites, that
    gradient through the GELU, and the block's share of the input
    gradient, added in block order.  Consumes ``d_out`` and the cached
    CDFs: entry k of each is set to ``None`` once block k has read it, so
    one block's temporaries and the output gradients and CDFs not yet read
    are what it holds.
    """
    ln_cache, phi = cache
    x = _layer_norm_output(params, ln, ln_cache[0])
    d_x = np.zeros_like(x)
    pre = np.empty(phi[0].shape, dtype=x.dtype)
    for k, (w1, b1, w2, b2) in enumerate(blocks):
        np.matmul(x, params[w1], out=pre)  # the block's GELU input, as the forward built it
        pre += params[b1]
        act = pre * phi[k]  # the block's GELU output, overwritten by its gradient once read
        grads[w2] += act.T @ d_out[k]
        grads[b2] += d_out[k].sum(axis=0)
        np.matmul(d_out[k], params[w2].T, out=act)
        d_out[k] = None
        d_pre = _gelu_grad(pre, phi[k], act)
        phi[k] = None
        grads[w1] += x.T @ d_pre
        grads[b1] += d_pre.sum(axis=0)
        d_x += d_pre @ params[w1].T
    del x, pre, act, d_pre
    return _layer_norm_backward(params, ln, d_x, ln_cache, grads)


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
    slots: list | None = None,
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
    computed from positions <= it only.  Nothing reads the last layer's
    other rows after its attention, so its LayerNorm and FFN run at the
    marked rows only: the rows that carry loss in training, each row's
    last column in a decode prefill.  The attention still runs a query
    at every row.

    ``kv_cache`` (decoding only) is a :class:`KVCache` over the same
    rows: the batch continues its columns, each row at its own position,
    and its own keys/values are written into it.  The cache knows which
    columns hold keys from its pads alone, so the first call's padding
    must be its left pads and every later batch must hold no padding.

    With ``want_cache`` the second value is the cache :func:`backward`
    takes: the batch, the rows the heads ran at and, for each block in
    the order it ran, the arrays its backward cannot rebuild (see the
    module docstring): no LayerNorm output, no q, k, v or merged context
    and no GELU input.  It covers no keys of a ``kv_cache``, and one
    ``backward`` consumes it.

    ``slots`` are the K slot tables, :func:`_slot_tables` of ``params``,
    built here when not given; a decode session passes the ones it built
    once.
    """
    if slots is None:
        slots = _slot_tables(params, cfg)
    real = batch.kind != KIND_PAD
    key_ok = real
    start = past = 0
    if kv_cache is not None:
        past = kv_cache.extend(batch.max_length)
        start = past - kv_cache.pad
        key_ok = np.arange(past + batch.max_length) >= kv_cache.pad[:, None]
    x = _embed_batch(params, cfg, batch, slots, start)
    bias = _causal_bias(key_ok, batch.max_length, x.dtype)
    heads = heads_at[real]  # (N,) packed rows the heads run at
    saved = []  # each block's backward cache, in the order the blocks ran
    for i in range(cfg.num_layers):
        p = f"layer{i}"
        kv = None if kv_cache is None else (kv_cache.keys[i], kv_cache.values[i], past)
        attn_out, attn_cache = _attention_forward(params, f"{p}.ln1", f"{p}.attn", x, real, bias, cfg, kv)
        x += attn_out
        del attn_out
        if i == cfg.num_layers - 1:
            del bias  # the last attention has run
            if not heads.all():  # nothing reads the last FFN's other rows
                x = x[heads]
        (ffn_out,), ffn_cache = _ffn_forward(params, f"{p}.ln2", [_layer_ffn(i)], x)
        x += ffn_out
        del ffn_out
        if want_cache:  # otherwise each layer's intermediates are freed as it ends
            saved += [attn_cache, ffn_cache]
    logits, head_cache = _ffn_forward(params, "final_ln", _head_ffns(cfg.num_codebooks), x)

    cache = None
    if want_cache:
        cache = {"batch": batch, "heads": heads, "saved": saved + [head_cache]}
    return logits, cache


def backward(params: dict, cfg: ModelConfig, cache: dict, d_logits: list) -> dict:
    """Gradients of a scalar whose logit-gradients are ``d_logits`` (rows as ``forward``'s logits).

    Consumes ``cache``: each block's saved arrays are dropped, some
    overwritten first, as soon as its gradients are taken, so the memory
    a step holds shrinks as backward goes, and ``cache`` ends empty.  A
    cache serves one backward.  Consumes ``d_logits`` too: each entry is
    replaced in the given list by its array in the model dtype, which
    head k's backward reads and then drops, so the list holds only
    ``None`` when backward returns; a caller that passes the list
    :func:`loss_gradient` returned holds its logits no longer than
    backward needs them.  Each block rebuilds what its forward
    did not save: its input, from its LayerNorm's ``normed``, before that
    LayerNorm's backward overwrites it, the attention's q, k and v, from
    that input, its merged context, from the weights and v, and each FFN
    block's GELU input, by its first-layer product.  The gradient of the
    last layer's residual rows covers the heads' rows only until that
    layer's attention, where it is scattered into every row, zero at the
    others.
    """
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    saved = cache.pop("saved")
    heads = cache.pop("heads")
    for k, d_k in enumerate(d_logits):
        d_logits[k] = np.asarray(d_k, dtype=cfg.np_dtype)
    d_x = _ffn_backward(params, "final_ln", _head_ffns(cfg.num_codebooks), d_logits, saved.pop(), grads)

    for i in reversed(range(cfg.num_layers)):
        p = f"layer{i}"
        d_x += _ffn_backward(params, f"{p}.ln2", [_layer_ffn(i)], [d_x], saved.pop(), grads)
        if len(d_x) < heads.size:  # the last layer's FFN ran at the heads' rows only
            every_row = np.zeros((heads.size, cfg.hidden_dim), dtype=d_x.dtype)
            every_row[heads] = d_x
            d_x = every_row
        d_x += _attention_backward(params, f"{p}.ln1", f"{p}.attn", d_x, saved.pop(), cfg, grads)

    _embed_backward(params, cfg, cache.pop("batch"), d_x, grads)
    return grads


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def weighted_loss(logits: list, targets: np.ndarray, loss_mask: np.ndarray, weights):
    """Weighted masked cross-entropy: L = sum_k alpha_k * mean-CE_k.

    ``logits[k]`` is (..., V_k); ``targets``/``loss_mask`` are (..., K).
    Returns (total, per-codebook components).  Consumes the logits: head
    k's loss rows are overwritten with dL/dlogits, softmax minus one-hot
    scaled by alpha_k / N_k, before head k+1's softmax is taken, so one
    head's float64 softmax exists at a time; :func:`loss_gradient`
    finishes the gradient.  Accumulation runs in float64 regardless of
    model dtype.
    """
    per_k = []
    for k, logit_k in enumerate(logits):
        mask = loss_mask[..., k]
        lk = logit_k[mask].astype(np.float64)
        n = len(lk)
        if n == 0:
            per_k.append(0.0)
            continue
        rows = np.arange(n), targets[..., k][mask]
        picked = lk[rows]
        m = lk.max(axis=-1, keepdims=True)
        lk -= m
        p = np.exp(lk, out=lk)
        sums = p.sum(axis=-1)
        ce = np.log(sums) + m[:, 0] - picked
        per_k.append(float(ce.mean()))
        p /= sums[:, None]
        p[rows] -= 1.0
        p *= weights[k] / n
        logit_k[mask] = p
        del lk, p  # before the next head's softmax is allocated
    total = float(sum(w * l for w, l in zip(weights, per_k)))
    return total, per_k


def loss_gradient(logits: list, loss_mask: np.ndarray):
    """d(total loss)/d(logits), from the logits :func:`weighted_loss` consumed.

    Zeroes each head's rows outside its loss mask, where the loss does not
    depend on the logits, and returns the logits, which now hold the gradient.
    """
    for k, logit_k in enumerate(logits):
        logit_k[~loss_mask[..., k]] = 0
    return logits


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

    The session builds the K slot tables (:func:`_slot_tables`) once, so
    ``state.params`` must not change while it decodes.
    """

    def __init__(self, state: ModelState, contexts):
        self.state = state
        cfg = state.config
        self._slots = _slot_tables(state.params, cfg)
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
            self.state.params, self.state.config, batch, heads_at, kv_cache=self._kv, slots=self._slots
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
