"""Training loop: span sampling, batching by position budget, Eden schedule.

Each utterance is rearranged fresh every epoch (spans resampled), stacked,
and packed with others until the batch budget is reached.  The budget
counts transformer positions, i.e. transcript tokens plus stacked items.

The learning rate follows the Eden rule

    lr(t) = base * ((t^2 + s^2) / s^2)^-0.25
                 * ((e^2 + p^2) / p^2)^-0.25
                 * linear(start, warmup, t)

with e the pseudo-epoch floor(t / steps_per_pseudo_epoch) and linear(.)
ramping from ``start`` to 1 over ``warmup`` steps, holding at 1 after.
The optimizer is AdamW (decoupled weight decay) with a single global
gradient-norm clip.

Training is deterministic given the seed: same seed, same batches, same
parameter trajectory.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .errors import InvalidInputError, NonFiniteLossError
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


@dataclass
class SchedulerConfig:
    base_lr: float = 0.05
    step_const: float = 3000.0
    epoch_const: float = 4.0
    warmup_start: float = 0.5
    warmup_steps: int = 500
    steps_per_pseudo_epoch: int = 3000

    def __post_init__(self):
        for name in ("base_lr", "step_const", "epoch_const", "warmup_start"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")
        if self.warmup_steps < 1:
            raise InvalidInputError("warmup_steps must be >= 1")


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
    batch_frame_budget: int = 4096
    total_steps: int = 2000
    grad_accum: int = 1
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    seed: int = 0
    checkpoint_every: int = 500
    mask: MaskSamplingConfig = field(default_factory=MaskSamplingConfig)

    def __post_init__(self):
        if self.batch_frame_budget < 1 or self.total_steps < 1 or self.grad_accum < 1:
            raise InvalidInputError("budgets must be positive")


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
    were examined (packed or skipped as overlong).
    """

    inputs: EncodedBatch
    targets: np.ndarray    # (B, L, K)
    loss_mask: np.ndarray  # (B, L, K) bool
    utterance_ids: list[str]
    consumed: int = 0


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

    def __init__(self, params: dict, cfg: TrainConfig):
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

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


def batch_stream(utterances, model_cfg, train_cfg, rng):
    """Endless deterministic batch iterator; reshuffles every epoch.

    Each shuffle window is ordered by frame count before packing so the
    padded batches are nearly rectangular.
    """
    while True:
        order = rng.permutation(len(utterances))
        for start in range(0, len(order), 256):
            window = [utterances[i] for i in order[start : start + 256]]
            window.sort(key=lambda u: (u.tokens.num_frames, u.id))
            while window:
                batch = make_batch(window, model_cfg, train_cfg, rng)
                window = window[batch.consumed :]
                yield batch


def evaluation_loss(state: ModelState, batch: Batch) -> float:
    logits, _ = forward(state.params, state.config, batch.inputs)
    total, _, _ = weighted_loss(logits, batch.targets, batch.loss_mask, state.config.loss_weights)
    return total


def train_loop(
    utterances,
    state: ModelState,
    train_cfg: TrainConfig,
    sched_cfg: SchedulerConfig,
    run_dir=None,
    rng_state: dict | None = None,
) -> tuple[ModelState, list[dict]]:
    """Optimize until total_steps; returns the state and per-step metrics.

    Each metrics entry holds the step, learning rate, loss, per-codebook
    losses, the gradient's global norm before clipping (``grad_norm``)
    and whether it was clipped.  Writes ``metrics.jsonl`` and periodic
    checkpoints under ``run_dir`` when given.  Aborts on a non-finite loss, dumping the offending batch
    id.  Deterministic given the seed (or a restored rng state).
    """
    if not utterances:
        raise InvalidInputError("empty corpus")
    rng = np.random.default_rng(train_cfg.seed)
    if rng_state is not None:
        rng.bit_generator.state = rng_state
    optimizer = AdamW(state.params, train_cfg)
    stream = batch_stream(utterances, state.config, train_cfg, rng)
    metrics: list[dict] = []
    run_path = Path(run_dir) if run_dir is not None else None
    metrics_fh = None
    if run_path is not None:
        run_path.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(run_path / "metrics.jsonl", "a", encoding="utf-8")
    try:
        while state.step < train_cfg.total_steps:
            t = state.step
            lr = eden_lr(t, pseudo_epoch(t, sched_cfg), sched_cfg)
            grads_sum = None
            total = 0.0
            per_k = None
            batch = None
            for _ in range(train_cfg.grad_accum):
                batch = next(stream)
                logits, cache = forward(state.params, state.config, batch.inputs, want_cache=True)
                loss_value, loss_k, _ = weighted_loss(
                    logits, batch.targets, batch.loss_mask, state.config.loss_weights
                )
                if not np.isfinite(loss_value):
                    batch_id = batch.utterance_ids[0] if batch.utterance_ids else "?"
                    if run_path is not None:
                        with open(run_path / "nonfinite_batch.json", "w", encoding="utf-8") as fh:
                            json.dump({"step": t, "utterances": batch.utterance_ids}, fh)
                    raise NonFiniteLossError(f"non-finite loss {loss_value} at step {t}", batch_id)
                d_logits = loss_gradient(logits, batch.targets, batch.loss_mask, state.config.loss_weights)
                grads = backward(state.params, state.config, cache, d_logits)
                if grads_sum is None:
                    grads_sum = grads
                else:
                    for name in grads_sum:
                        grads_sum[name] += grads[name]
                total += loss_value / train_cfg.grad_accum
                per_k = loss_k if per_k is None else [a + b for a, b in zip(per_k, loss_k)]
            if train_cfg.grad_accum > 1:
                for name in grads_sum:
                    grads_sum[name] /= train_cfg.grad_accum
                per_k = [v / train_cfg.grad_accum for v in per_k]
            grad_norm = clip_global_norm(grads_sum, train_cfg.grad_clip)
            optimizer.step(state.params, grads_sum, lr)
            state.step += 1
            clipped = bool(train_cfg.grad_clip > 0 and grad_norm > train_cfg.grad_clip)
            entry = {
                "step": t, "lr": lr, "loss": total, "loss_k": per_k,
                "grad_norm": grad_norm, "clipped": clipped,
            }
            metrics.append(entry)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(entry, sort_keys=True) + "\n")
            if run_path is not None and state.step % train_cfg.checkpoint_every == 0:
                save_checkpoint(
                    run_path / f"ckpt_{state.step:06d}.bin", state, rng.bit_generator.state
                )
        if run_path is not None:
            save_checkpoint(run_path / "ckpt_final.bin", state, rng.bit_generator.state)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return state, metrics
