"""Training loop: span sampling, batching by position budget, Eden schedule.

Each utterance is rearranged fresh every epoch (spans resampled), stacked,
and packed with others until the batch budget is reached.  The budget
counts transformer positions, i.e. transcript tokens plus stacked items.
No random generator lives across batches: a batch is a function of the
seed and its data cursor (epoch, offset), see :func:`batch_stream`.

The learning rate follows the Eden rule

    lr(t) = base * ((t^2 + s^2) / s^2)^-0.25
                 * ((e^2 + p^2) / p^2)^-0.25
                 * linear(start, warmup, t)

with e the pseudo-epoch floor(t / steps_per_pseudo_epoch) and linear(.)
ramping from ``start`` to 1 over ``warmup`` steps, holding at 1 after.
The optimizer is AdamW (decoupled weight decay) with a single global
gradient-norm clip.

Training is deterministic given the seed: same seed, same batches, same
parameter trajectory.  The parameters, the step, the cursor and AdamW's
moments are the whole state of a run, and every checkpoint a run writes
holds all of them, so resuming from one gives the parameters training
without a break would have, bit for bit.
"""

from __future__ import annotations

import ctypes
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import TrainingState, save_checkpoint
from .errors import (
    ConfigError, Count, InvalidInputError, Natural, NonFiniteLossError, NonNegative, Positive, Share, Unit, check_bounds,
)
from .jsonio import append_json_line, write_json
from .model import (
    EncodedBatch,
    ModelConfig,
    ModelState,
    backward,
    encode_sequence,
    forward,
    loss_gradient,
    next_item_targets,
    pad_sequences,
    weighted_loss,
)
from .rearrange import MaskSamplingConfig, causal_mask, delay_stack, sample_mask_spans

log = logging.getLogger(__name__)

# glibc's mallopt parameters, and the fixed values :func:`_retain_heap` sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # the largest glibc takes, and the ceiling of its adaptive threshold
_TRIM_THRESHOLD = 1 << 30


def _retain_heap() -> None:
    """Keep freed memory on the process heap from one training step to the next (glibc only).

    A step allocates and frees ~100 MB of arrays at desk scale.  glibc's
    adaptive thresholds hand the top of the heap back to the kernel when
    more than twice the mmap threshold is free there, as it often is
    after a step, and the next step faults those pages in again (~4000
    minor faults and ~16 ms of kernel time a desk step, a cost that
    grows with the machine's load).  Fixed thresholds keep arrays up to
    32 MiB on the heap and the heap at its high-water mark, which is the
    process's peak resident set either way.  The setting is process-wide.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc other than glibc
        glibc = None
    if not glibc:
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@dataclass
class SchedulerConfig:
    base_lr: Positive = 0.05
    step_const: Positive = 3000.0
    epoch_const: Positive = 4.0
    warmup_start: Share = 0.5  # the ramp rises to 1; from above 1 it would fall below 0
    warmup_steps: Count = 500
    steps_per_pseudo_epoch: Count = 3000

    def __post_init__(self):
        check_bounds(self)


def eden_lr(t: int, e: int, cfg: SchedulerConfig) -> float:
    """Learning rate at step t, pseudo-epoch e."""
    step_factor = ((t * t + cfg.step_const**2) / cfg.step_const**2) ** -0.25
    epoch_factor = ((e * e + cfg.epoch_const**2) / cfg.epoch_const**2) ** -0.25
    linear = min(1.0, cfg.warmup_start + (1.0 - cfg.warmup_start) * t / cfg.warmup_steps)
    return cfg.base_lr * step_factor * epoch_factor * linear


def pseudo_epoch(t: int, cfg: SchedulerConfig) -> int:
    # the epoch index enters the formula as an integer floor
    return t // cfg.steps_per_pseudo_epoch


@dataclass
class TrainConfig:
    batch_frame_budget: Count = 4096
    total_steps: Count = 2000
    beta1: Unit = 0.9
    beta2: Unit = 0.98
    adam_eps: Positive = 1e-9
    weight_decay: NonNegative = 0.0
    grad_clip: NonNegative = 1.0
    seed: Natural = 0
    checkpoint_every: Count = 500
    mask: MaskSamplingConfig = field(default_factory=MaskSamplingConfig)

    def __post_init__(self):
        check_bounds(self)


# ---------------------------------------------------------------------------
# Batch construction
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Padded model inputs with next-step targets and the loss mask.

    The targets are the next position of the encoded batch
    (:func:`~codec_infill.model.next_item_targets`): ``targets[b, t, k]``
    is head k's id for the item at position t + 1, in the special-id
    layout :meth:`ModelConfig.special_index` defines once.  The mask is
    False at padding, where the next item is text, and wherever the target
    is a mask marker or EMPTY (true elsewhere, including EOS, EOU, and
    unmasked-span frames).  ``consumed`` counts how many input utterances
    were examined (packed or skipped as overlong).  ``cursor`` is the
    (epoch, offset) a :func:`batch_stream` batch starts at.
    """

    inputs: EncodedBatch
    targets: np.ndarray    # (B, L, K)
    loss_mask: np.ndarray  # (B, L, K) bool
    utterance_ids: list[str]
    consumed: int = 0
    cursor: tuple[int, int] | None = None


def build_training_example(transcript, matrix, model_cfg: ModelConfig, spans) -> EncodedBatch:
    """Rearrange one utterance into its one-row encoded stream."""
    return encode_sequence(list(transcript), delay_stack(causal_mask(matrix, spans)).items, model_cfg)


def make_batch(utterances, model_cfg: ModelConfig, train_cfg: TrainConfig, rng) -> Batch:
    """Pack utterances (spans sampled per utterance) up to the budget."""
    if not utterances:
        raise InvalidInputError("empty corpus slice")
    rows, ids = [], []
    used = 0
    consumed = 0
    limit = min(train_cfg.batch_frame_budget, model_cfg.max_positions)
    for utt in utterances:
        spans = sample_mask_spans(utt.tokens.num_frames, train_cfg.mask, rng)
        row = build_training_example(utt.transcript, utt.tokens, model_cfg, spans)
        length = row.max_length
        if length > limit:
            log.warning("utterance %s (%d positions) exceeds the budget; skipped", utt.id, length)
            consumed += 1
            continue
        if used + length > train_cfg.batch_frame_budget and rows:
            break
        rows.append(row)
        ids.append(utt.id)
        used += length
        consumed += 1
    if not rows:
        raise InvalidInputError("no utterance fits the batch budget")
    inputs = pad_sequences(rows, model_cfg)
    targets, loss_mask = next_item_targets(inputs, model_cfg)
    return Batch(inputs, targets, loss_mask, ids, consumed)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer."""

    def __init__(self, params: dict, cfg: TrainConfig, t: int = 0):
        """Zero moments after ``t`` steps; the bias correction counts on from ``t``."""
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = t

    def step(self, params: dict, grads: dict, lr: float) -> None:
        c = self.cfg
        self.t += 1
        b1c = 1.0 - c.beta1**self.t
        b2c = 1.0 - c.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            self.m[name] = c.beta1 * self.m[name] + (1.0 - c.beta1) * g
            self.v[name] = c.beta2 * self.v[name] + (1.0 - c.beta2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            update = m_hat / (np.sqrt(v_hat) + c.adam_eps)
            if c.weight_decay > 0:
                update = update + c.weight_decay * p
            p -= (lr * update).astype(p.dtype)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    total = float(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return float(norm)


# ---------------------------------------------------------------------------
# Loop
# ---------------------------------------------------------------------------


WINDOW = 256  # utterances of an epoch's order sorted by frame count together


def batch_stream(utterances, model_cfg, train_cfg, cursor=(0, 0)):
    """Endless batch iterator starting at the data cursor ``(epoch, offset)``.

    Epoch e orders the utterances by a permutation drawn from
    ``default_rng([seed, e])``, then sorts each window of 256 by frame
    count so the padded batches are nearly rectangular.  The batch at
    offset o of that order packs utterances from o to the end of o's
    window, draws their spans from ``default_rng([seed, e, o])`` and
    carries ``cursor == (e, o)``, so every batch is a function of the seed
    and its cursor.  An offset at or past the end of an epoch starts the
    next one.
    """
    epoch, offset = cursor
    while True:
        permutation = np.random.default_rng([train_cfg.seed, epoch]).permutation(len(utterances))
        order = []
        for start in range(0, len(permutation), WINDOW):
            window = [utterances[i] for i in permutation[start : start + WINDOW]]
            order += sorted(window, key=lambda u: (u.tokens.num_frames, u.id))
        while offset < len(order):
            rng = np.random.default_rng([train_cfg.seed, epoch, offset])
            batch = make_batch(order[offset : (offset // WINDOW + 1) * WINDOW], model_cfg, train_cfg, rng)
            batch.cursor = (epoch, offset)
            offset += batch.consumed
            yield batch
        epoch, offset = epoch + 1, 0


def train_loop(
    utterances,
    state: ModelState,
    train_cfg: TrainConfig,
    sched_cfg: SchedulerConfig,
    run_dir=None,
    training: TrainingState | None = None,
) -> tuple[ModelState, list[dict]]:
    """Optimize until total_steps; returns the state and per-step metrics.

    Each metrics entry holds the step, learning rate, loss, per-codebook
    losses, the gradient's global norm before clipping (``grad_norm``)
    and whether it was clipped, and where the step went: the real
    ``positions`` of its batch, the ``head_positions`` the heads ran at
    (those with any loss), their ``pad_fraction``, ``batch_size`` (rows)
    and the step's wall time ``step_ms``.  Writes ``metrics.jsonl`` and
    periodic checkpoints, each with the run's training state, under
    ``run_dir`` when given.  Aborts on a non-finite loss, dumping the
    offending batch's step, cursor and utterance ids to
    ``nonfinite_batch.json``.  ``training`` continues a run from a
    checkpoint's cursor and moments, and is advanced in place as
    ``state`` is; without it the run starts at cursor (0, 0) with zero
    moments.  AdamW's bias correction counts from ``state.step`` either
    way.  A mask sampler that can draw more spans than the model has mask
    markers is a ConfigError before the first step.
    """
    if not utterances:
        raise InvalidInputError("empty corpus")
    _retain_heap()
    if train_cfg.mask.max_spans > state.config.max_mask_spans:
        raise ConfigError(
            f"train.mask.max_spans {train_cfg.mask.max_spans} exceeds "
            f"model.max_mask_spans {state.config.max_mask_spans}"
        )
    optimizer = AdamW(state.params, train_cfg, t=state.step)
    if training is None:
        training = TrainingState((0, 0), optimizer.m, optimizer.v)
    optimizer.m, optimizer.v = training.m, training.v
    stream = batch_stream(utterances, state.config, train_cfg, training.cursor)
    metrics: list[dict] = []
    run_path = Path(run_dir) if run_dir is not None else None
    if run_path is not None:
        run_path.mkdir(parents=True, exist_ok=True)
    while state.step < train_cfg.total_steps:
        started = time.perf_counter()
        t = state.step
        lr = eden_lr(t, pseudo_epoch(t, sched_cfg), sched_cfg)
        batch = next(stream)
        heads = batch.loss_mask.any(axis=-1)
        targets, loss_mask = batch.targets[heads], batch.loss_mask[heads]
        logits, cache = forward(state.params, state.config, batch.inputs, heads, want_cache=True)
        loss_value, loss_k = weighted_loss(logits, targets, loss_mask, state.config.loss_weights)
        if not np.isfinite(loss_value):
            batch_id = batch.utterance_ids[0] if batch.utterance_ids else "?"
            if run_path is not None:
                dump = {"step": t, "cursor": list(batch.cursor), "utterances": batch.utterance_ids}
                write_json(run_path / "nonfinite_batch.json", dump)
            raise NonFiniteLossError(f"non-finite loss {loss_value} at step {t}", batch_id)
        grads = backward(state.params, state.config, cache, loss_gradient(logits, loss_mask))
        training.cursor = (batch.cursor[0], batch.cursor[1] + batch.consumed)
        grad_norm = clip_global_norm(grads, train_cfg.grad_clip)
        optimizer.step(state.params, grads, lr)
        state.step += 1
        clipped = bool(train_cfg.grad_clip > 0 and grad_norm > train_cfg.grad_clip)
        positions = int(batch.inputs.lengths.sum())
        entry = {
            "step": t, "lr": lr, "loss": loss_value, "loss_k": loss_k,
            "grad_norm": grad_norm, "clipped": clipped,
            "positions": positions, "head_positions": int(heads.sum()),
            "pad_fraction": 1.0 - positions / batch.inputs.kind.size, "batch_size": batch.inputs.batch_size,
            "step_ms": (time.perf_counter() - started) * 1e3,
        }
        del batch, heads, targets, loss_mask, logits, grads  # so nothing of this step is held through the next
        metrics.append(entry)
        if run_path is not None:
            append_json_line(run_path / "metrics.jsonl", entry)
            if state.step % train_cfg.checkpoint_every == 0:
                save_checkpoint(run_path / f"ckpt_{state.step:06d}.bin", state, training)
    if run_path is not None:
        save_checkpoint(run_path / "ckpt_final.bin", state, training)
    return state, metrics
