"""Schedule, batching, training-loop, and checkpoint tests."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codec_infill
from codec_infill import train
from codec_infill.checkpoint import load_checkpoint, save_checkpoint
from codec_infill.errors import InvalidInputError, NonFiniteLossError
from codec_infill.jsonio import read_json
from codec_infill.model import (
    ModelConfig,
    encode_sequence,
    new_model,
    next_item_targets,
    pad_sequences,
    parameter_shapes,
)
from codec_infill.rearrange import causal_mask, delay_stack
from codec_infill.synthcodec import ToyCodecConfig, gen_corpus
from codec_infill.tokens import EMPTY, EOU, CodecMatrix, SpecialToken, Span, mask_marker
from codec_infill.train import (
    AdamW,
    Batch,
    SchedulerConfig,
    TrainConfig,
    batch_stream,
    build_training_example,
    eden_lr,
    make_batch,
    pseudo_epoch,
    train_loop,
)

from helpers import (
    adamw_oracle,
    checkpoint_header,
    evaluation_loss,
    flip_byte,
    next_item_targets_oracle,
    random_matrix,
    random_spans,
    random_training_state,
    with_checkpoint_header,
)


def small_model_config(codec: ToyCodecConfig, **overrides):
    base = dict(
        num_layers=1,
        hidden_dim=64,
        ffn_dim=128,
        num_heads=4,
        num_codebooks=codec.num_codebooks,
        codebook_sizes=codec.codebook_sizes,
        text_vocab_size=codec.alphabet_size,
        max_positions=512,
        loss_weights=(5.0, 1.0, 0.5, 0.1),
        dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


CODEC = ToyCodecConfig()


class TestEdenSchedule:
    def test_initial_step_value(self):
        cfg = SchedulerConfig()
        assert eden_lr(0, 0, cfg) == pytest.approx(0.025, rel=1e-12)

    def test_step_3000_epoch_1(self):
        """Direct evaluation: 0.05 * 2^-0.25 * (17/16)^-0.25."""
        cfg = SchedulerConfig()
        expected = 0.05 * 2.0**-0.25 * (17.0 / 16.0) ** -0.25
        assert eden_lr(3000, 1, cfg) == pytest.approx(expected, rel=1e-9)
        assert eden_lr(3000, 1, cfg) == pytest.approx(0.041412, abs=5e-7)

    def test_warmup_saturates_at_one(self):
        cfg = SchedulerConfig()
        for t in (cfg.warmup_steps, cfg.warmup_steps + 1, 10 * cfg.warmup_steps):
            base = cfg.base_lr
            step_f = ((t * t + cfg.step_const**2) / cfg.step_const**2) ** -0.25
            assert eden_lr(t, 0, cfg) == pytest.approx(base * step_f, rel=1e-12)

    def test_positive_and_monotone_after_warmup(self):
        cfg = SchedulerConfig()
        values = [eden_lr(t, pseudo_epoch(t, cfg), cfg) for t in range(0, 8000, 25)]
        assert all(v > 0 for v in values)
        after = [v for t, v in zip(range(0, 8000, 25), values) if t >= cfg.warmup_steps]
        assert all(b <= a for a, b in zip(after, after[1:]))

    def test_pseudo_epoch_floor(self):
        cfg = SchedulerConfig()
        assert pseudo_epoch(2999, cfg) == 0
        assert pseudo_epoch(3000, cfg) == 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        cfg=st.builds(
            SchedulerConfig,
            base_lr=st.floats(1e-6, 10.0),
            step_const=st.floats(1.0, 1e6),
            epoch_const=st.floats(0.1, 100.0),
            warmup_start=st.floats(1e-3, 1.0),
            warmup_steps=st.integers(1, 10**6),
            steps_per_pseudo_epoch=st.integers(1, 10**6),
        ),
        t=st.integers(0, 10**7),
    )
    def test_rate_is_positive_and_at_most_base(self, cfg, t):
        """Each factor of the rate lies in (0, 1]; the ranges keep the product clear of float underflow."""
        assert 0 < eden_lr(t, pseudo_epoch(t, cfg), cfg) <= cfg.base_lr


class TestBatchConstruction:
    def test_six_frame_example_targets_are_shifted_stack(self):
        """Targets at each position equal the next stacked item, per head, except that
        head 1 predicts EOS where the relocated span's delay tail begins."""
        corpus = gen_corpus(1, (6, 6), ToyCodecConfig(frames_per_symbol=1), seed=0)
        utt = corpus[0]
        model_cfg = small_model_config(ToyCodecConfig(frames_per_symbol=1))
        spans = [Span(1, 4)]
        row = build_training_example(utt.transcript, utt.tokens, model_cfg, spans)
        targets, mask = (a[0] for a in next_item_targets(row, model_cfg))
        stacked = delay_stack(causal_mask(utt.tokens, spans))
        stream = list(utt.transcript) + stacked.items
        n_text = len(utt.transcript)
        # the span's 3 frames follow EOU and its marker; its first tail step is 3 later
        span_end = stream.index(EOU) + 1 + 3
        assert stream[span_end][0] != EMPTY and stream[span_end + 1][0] == EMPTY
        assert targets[span_end, 0] == model_cfg.special_output_id(0, "eos") and mask[span_end, 0]
        for t in range(len(stream) - 1):
            nxt = stream[t + 1]
            if t + 1 < n_text:
                assert not mask[t].any()
                continue
            for k in range(model_cfg.num_codebooks):
                if (t, k) == (span_end, 0):
                    continue
                if isinstance(nxt, SpecialToken):
                    assert targets[t, k] == model_cfg.special_output_id(k, nxt.kind, nxt.index)
                    assert mask[t, k] == (nxt.kind in ("eos", "eou"))
                elif nxt[k] == EMPTY:
                    assert targets[t, k] == model_cfg.special_output_id(k, "empty")
                    assert not mask[t, k]
                else:
                    assert targets[t, k] == nxt[k]
                    assert mask[t, k]
        # the final position predicts nothing
        assert not mask[len(stream) - 1].any()

    def test_loss_mask_false_exactly_at_mask_or_empty_targets(self):
        corpus = gen_corpus(4, (5, 9), CODEC, seed=1)
        model_cfg = small_model_config(CODEC)
        rng = np.random.default_rng(2)
        batch = make_batch(corpus, model_cfg, TrainConfig(batch_frame_budget=512), rng)
        empties = {model_cfg.special_output_id(k, "empty") for k in range(4)}
        masks = {
            model_cfg.special_output_id(k, "mask", i)
            for k in range(4)
            for i in range(1, model_cfg.max_mask_spans + 1)
        }
        flagged = batch.loss_mask
        for b in range(batch.inputs.batch_size):
            length = int(batch.inputs.lengths[b])
            for t in range(length - 1):
                for k in range(4):
                    tid = batch.targets[b, t, k]
                    if flagged[b, t, k]:
                        assert tid not in empties and tid not in masks

    def test_empty_corpus_slice_rejected(self):
        with pytest.raises(InvalidInputError):
            make_batch([], small_model_config(CODEC), TrainConfig(), np.random.default_rng(0))

    def test_budget_respected(self):
        corpus = gen_corpus(30, (5, 9), CODEC, seed=3)
        model_cfg = small_model_config(CODEC)
        cfg = TrainConfig(batch_frame_budget=200)
        batch = make_batch(corpus, model_cfg, cfg, np.random.default_rng(4))
        total = int(batch.inputs.lengths.sum())
        assert total <= 200
        assert len(batch.utterance_ids) >= 1


def check_targets_against_oracle(streams, cfg):
    """next_item_targets of the padded rows equals the per-item oracle, row by row.

    Returns what the checked positions were followed by: the item kinds of
    the streams ("mask", "eos", "eou", "empty", "text", "frame"), "span end"
    for the first delay-tail step of a relocated span, "pad" for padding
    after a shorter row, and "end" for the last position.
    """
    batch = pad_sequences([encode_sequence(text, items, cfg) for text, items in streams], cfg)
    targets, mask = next_item_targets(batch, cfg)
    assert targets.shape == mask.shape == batch.ids.shape
    seen = set()
    for b, (text, items) in enumerate(streams):
        want_targets, want_mask = next_item_targets_oracle(text, items, cfg)
        n = len(want_targets)
        np.testing.assert_array_equal(targets[b, :n], want_targets)
        np.testing.assert_array_equal(mask[b, :n], want_mask)
        assert not targets[b, n - 1:].any() and not mask[b, n - 1:].any()
        stream = list(text) + list(items)
        for t, nxt in enumerate(stream[1:]):
            if isinstance(nxt, SpecialToken):
                seen.add(nxt.kind)
            elif isinstance(nxt, tuple):
                seen.add("empty" if EMPTY in nxt else "frame")
                if want_targets[t, 0] == cfg.special_output_id(0, "eos"):
                    seen.add("span end")
            else:
                seen.add("text")
        seen.add("pad" if n < batch.max_length else "end")
    return seen


@st.composite
def target_streams(draw):
    """Model config plus 1-4 [transcript; stacked items] streams of mixed lengths."""
    k_count = draw(st.integers(1, 4))
    max_spans = draw(st.integers(1, 3))
    cfg = small_model_config(
        ToyCodecConfig(), num_codebooks=k_count, codebook_sizes=(64,) * k_count,
        loss_weights=(1.0,) * k_count, max_mask_spans=max_spans,
    )
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        matrix = random_matrix(rng, draw(st.integers(1, 12)), k_count)
        spans = random_spans(rng, matrix.num_frames, max_spans=max_spans)
        text = draw(st.lists(st.integers(0, cfg.text_vocab_size - 1), max_size=5))
        streams.append((text, delay_stack(causal_mask(matrix, spans)).items))
    return streams, cfg


class TestNextItemTargets:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(target_streams())
    def test_matches_per_item_oracle(self, case):
        streams, cfg = case
        check_targets_against_oracle(streams, cfg)

    def test_covers_every_kind_of_next_item(self):
        """One fixed batch whose positions are followed by every kind of item."""
        cfg = small_model_config(CODEC)
        frames = np.arange(12 * 4).reshape(12, 4) % CODEC.codebook_size

        def stacked(num_frames, spans):
            matrix = CodecMatrix(frames[:num_frames], codebook_sizes=CODEC.codebook_sizes)
            return delay_stack(causal_mask(matrix, spans)).items

        long = stacked(12, [Span(5, 7), Span(9, 11)])
        short = stacked(3, [Span(0, 2)])
        seen = check_targets_against_oracle([([3, 4, 5], long), ([6], short)], cfg)
        assert seen == {"mask", "eos", "eou", "empty", "text", "frame", "span end", "pad", "end"}
        assert mask_marker(2) in long


class TestTrainLoop:
    def run_small(self, tmp_path=None, steps=10, utts=5, seed=0, base_lr=3e-3):
        corpus = gen_corpus(utts, (5, 7), CODEC, seed=10)
        model_cfg = small_model_config(CODEC)
        state = new_model(model_cfg, seed=seed)
        tcfg = TrainConfig(batch_frame_budget=512, total_steps=steps, seed=seed, checkpoint_every=5)
        scfg = SchedulerConfig(base_lr=base_lr)
        return train_loop(corpus, state, tcfg, scfg, run_dir=tmp_path), tcfg, scfg

    def test_logged_lrs_match_schedule(self):
        (state, metrics), tcfg, scfg = self.run_small(steps=50, utts=20)
        assert len(metrics) == 50
        for entry in metrics:
            t = entry["step"]
            assert entry["lr"] == pytest.approx(eden_lr(t, pseudo_epoch(t, scfg), scfg), rel=1e-12)

    def test_same_seed_identical_trajectory(self):
        (_, m1), _, _ = self.run_small(steps=8)
        (_, m2), _, _ = self.run_small(steps=8)
        assert [e["loss"] for e in m1] == [e["loss"] for e in m2]

    def test_memorization_smoke(self):
        """200 steps on 5 utterances shrinks the loss by at least 80%."""
        (state, metrics), _, _ = self.run_small(steps=200, utts=5, base_lr=6e-3)
        first, last = metrics[0]["loss"], metrics[-1]["loss"]
        assert last <= 0.2 * first, f"loss {first} -> {last}"

    def test_metrics_record_grad_norm_and_clipping(self, tmp_path):
        """``clipped`` is set exactly on the steps whose pre-clip norm exceeds grad_clip."""
        corpus = gen_corpus(5, (5, 7), CODEC, seed=10)
        model_cfg = small_model_config(CODEC)

        def run(grad_clip, run_dir=None):
            tcfg = TrainConfig(batch_frame_budget=512, total_steps=12, seed=0, grad_clip=grad_clip)
            state = new_model(model_cfg, seed=0)
            return train_loop(corpus, state, tcfg, SchedulerConfig(base_lr=6e-3), run_dir=run_dir)[1]

        unclipped = run(0.0)
        assert not any(e["clipped"] for e in unclipped)
        norms = sorted(e["grad_norm"] for e in unclipped)
        grad_clip = norms[len(norms) // 2]
        metrics = run(grad_clip, tmp_path)
        assert [e["clipped"] for e in metrics] == [e["grad_norm"] > grad_clip for e in metrics]
        assert 0 < sum(e["clipped"] for e in metrics) < len(metrics)
        logged = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [(e["grad_norm"], e["clipped"]) for e in logged] == [
            (e["grad_norm"], e["clipped"]) for e in metrics
        ]

    def test_pinned_float32_trajectory(self):
        """Eight steps of the float32 small model follow the recorded losses; only float
        rounding may differ (rtol 1e-6).  Recorded when batches were first drawn from
        the data cursor (seed, epoch, offset)."""
        corpus = gen_corpus(12, (5, 7), CODEC, seed=10)
        state = new_model(small_model_config(CODEC, dtype="float32"), seed=0)
        tcfg = TrainConfig(batch_frame_budget=512, total_steps=8, seed=0)
        _, metrics = train_loop(corpus, state, tcfg, SchedulerConfig(base_lr=3e-3))
        pinned = [
            36.76050691331475, 36.68661201164507, 36.61415748990108, 36.50541234259889,
            36.420611588171155, 36.115720475087286, 36.115204810621634, 35.605134707724964,
        ]
        np.testing.assert_allclose([e["loss"] for e in metrics], pinned, rtol=1e-6)

    def test_metrics_say_where_the_step_went(self, tmp_path, monkeypatch):
        batches = []
        real_make_batch = train.make_batch

        def make_batch(*args, **kwargs):
            batches.append(real_make_batch(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(train, "make_batch", make_batch)
        (_, metrics), _, _ = self.run_small(tmp_path, steps=4, utts=12)
        assert len(batches) == len(metrics) == 4
        logged = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        for entry, line, batch in zip(metrics, logged, batches):
            assert entry["positions"] == batch.inputs.lengths.sum()
            assert entry["head_positions"] == batch.loss_mask.any(-1).sum()
            assert entry["head_positions"] < entry["positions"]
            assert entry["batch_size"] == batch.inputs.batch_size
            assert entry["pad_fraction"] == 1 - entry["positions"] / batch.inputs.kind.size
            assert entry["step_ms"] > 0
            assert {k: line[k] for k in entry} == entry

    def test_step_calls_each_training_layer_once(self, monkeypatch):
        """The benchmark's trace times these four names; a step must call each through ``train``."""
        calls = dict.fromkeys(("forward", "weighted_loss", "loss_gradient", "backward"), 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(train, name, counted(name, getattr(train, name)))
        self.run_small(steps=1)
        assert calls == dict.fromkeys(calls, 1)

    def test_a_step_holds_nothing_of_the_step_before(self, monkeypatch):
        """Each step's forward starts near step 1's traced memory: the last step's logits and gradients are gone.

        Each step's own batch and Python's free lists move it by ~20 KiB
        (7 and 18 KiB measured here); keeping the last step's logits and
        gradient dict held ~3 MB more.
        """
        self.run_small(steps=3)  # the same three steps, untraced: fill caches first
        entered = []
        real_forward = train.forward

        def forward(*args, **kwargs):
            entered.append(tracemalloc.get_traced_memory()[0])
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(train, "forward", forward)
        tracemalloc.start()
        try:
            self.run_small(steps=3)
        finally:
            tracemalloc.stop()
        assert len(entered) == 3
        assert max(entered[1:]) - entered[0] < 64 * 1024, entered

    def test_nonfinite_loss_aborts_with_batch_id(self, tmp_path):
        corpus = gen_corpus(3, (5, 6), CODEC, seed=11)
        model_cfg = small_model_config(CODEC)
        state = new_model(model_cfg, seed=0)
        state.params["text_emb"][:] = np.nan
        with pytest.raises(NonFiniteLossError) as err:
            train_loop(
                corpus,
                state,
                TrainConfig(batch_frame_budget=512, total_steps=2),
                SchedulerConfig(),
                run_dir=tmp_path,
            )
        assert err.value.batch_id.startswith("utt")
        dump = read_json(tmp_path / "nonfinite_batch.json")
        assert dump["step"] == 0 and dump["cursor"] == [0, 0] and dump["utterances"][0] == err.value.batch_id

    def test_nonfinite_batch_dump_rebuilds_the_aborted_batch(self, tmp_path, monkeypatch):
        """The dumped cursor restarts a stream at the aborted batch: same utterances, inputs, targets and mask."""
        corpus = gen_corpus(12, (5, 7), CODEC, seed=10)
        model_cfg = small_model_config(CODEC)
        tcfg = TrainConfig(batch_frame_budget=150, total_steps=6, seed=4)
        batches = recording_make_batch(monkeypatch)
        real_weighted_loss = train.weighted_loss

        def weighted_loss(*args):
            total, *rest = real_weighted_loss(*args)
            return (np.nan if len(batches) == 5 else total, *rest)

        monkeypatch.setattr(train, "weighted_loss", weighted_loss)
        with pytest.raises(NonFiniteLossError):
            train_loop(corpus, new_model(model_cfg, seed=0), tcfg, SchedulerConfig(), run_dir=tmp_path)
        dump = read_json(tmp_path / "nonfinite_batch.json")
        aborted = batches[-1]
        assert len(batches) == 5 and dump["step"] == 4 and dump["utterances"] == aborted.utterance_ids
        assert dump["cursor"] != [0, 0]
        assert_same_batch(next(batch_stream(corpus, model_cfg, tcfg, dump["cursor"])), aborted)


class TestOptimizerStep:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_adamw_matches_the_scalar_reference(self, weight_decay):
        rng = np.random.default_rng(40)
        params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
        start = {name: p.copy() for name, p in params.items()}
        cfg = TrainConfig(weight_decay=weight_decay)
        grad_steps = [{name: rng.standard_normal(p.shape) for name, p in params.items()} for _ in range(4)]
        grad_steps[2]["b"][:] = 0.0  # a step where only the moments and the decay move ``b``
        lrs = [0.01, 0.02, 0.015, 0.005]
        optimizer = AdamW(params, cfg)
        for grads, lr in zip(grad_steps, lrs):
            optimizer.step(params, grads, lr)
        want = adamw_oracle(start, grad_steps, lrs, cfg)
        for name in params:
            np.testing.assert_allclose(params[name], want[name], rtol=1e-12, atol=1e-15, err_msg=name)

    def test_weight_decay_alone_shrinks_by_one_minus_lr_times_decay(self):
        params = {"w": np.array([1.5, -2.0, 0.25])}
        optimizer = AdamW(params, TrainConfig(weight_decay=0.1))
        for lr in (0.5, 0.2):
            optimizer.step(params, {"w": np.zeros(3)}, lr)
        np.testing.assert_allclose(params["w"], np.array([1.5, -2.0, 0.25]) * (1 - 0.05) * (1 - 0.02), rtol=1e-15)


class TestCheckpoint:
    def test_save_twice_byte_identical(self, tmp_path):
        state = new_model(small_model_config(CODEC), seed=5)
        training = random_training_state(state, np.random.default_rng(1))
        save_checkpoint(tmp_path / "a.bin", state, training)
        save_checkpoint(tmp_path / "b.bin", state, training)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_training_state_round_trip(self, tmp_path):
        """The cursor and every moment load as saved, beside parameters that hold parameters only."""
        state = new_model(small_model_config(CODEC), seed=5)
        training = random_training_state(state, np.random.default_rng(1), cursor=(4, 11))
        save_checkpoint(tmp_path / "t.bin", state, training)
        loaded, got = load_checkpoint(tmp_path / "t.bin")
        assert list(loaded.params) == list(parameter_shapes(state.config))
        assert got.cursor == (4, 11)
        for kind in ("m", "v"):
            assert list(getattr(got, kind)) == list(loaded.params)
            for name, want in getattr(training, kind).items():
                np.testing.assert_array_equal(getattr(got, kind)[name], want, err_msg=f"{kind} {name}")

    def test_round_trip_preserves_evaluation_loss_exactly(self, tmp_path):
        corpus = gen_corpus(4, (5, 7), CODEC, seed=12)
        model_cfg = small_model_config(CODEC)
        state = new_model(model_cfg, seed=6)
        batch = make_batch(corpus, model_cfg, TrainConfig(batch_frame_budget=512), np.random.default_rng(7))
        before = evaluation_loss(state, batch)
        save_checkpoint(tmp_path / "m.bin", state, None)
        loaded, training = load_checkpoint(tmp_path / "m.bin")
        assert training is None
        assert loaded.config == model_cfg
        after = evaluation_loss(loaded, batch)
        assert after == before  # bit-identical

    def test_interrupted_save_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that raises partway through its writes keeps the old file's bytes and leaves no other file."""
        state = new_model(small_model_config(CODEC), seed=5)
        path = tmp_path / "ckpt_000001.bin"
        save_checkpoint(path, state, None)
        before = path.read_bytes()
        state.step = 2

        class FullDisk:
            """A file whose third write raises, as on a full disk."""

            def __init__(self, *args):
                self.file, self.writes = open(*args), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("No space left on device")
                return self.file.write(data)

        monkeypatch.setattr("codec_infill.checkpoint.open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, state, None)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        monkeypatch.undo()
        save_checkpoint(path, state, None)
        assert load_checkpoint(path)[0].step == 2
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_file_of_format_version_1_is_rejected(self, tmp_path):
        state = new_model(small_model_config(CODEC), seed=5)
        save_checkpoint(tmp_path / "m.bin", state, None)
        data = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "v1.bin").write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:])
        with pytest.raises(InvalidInputError, match="unsupported checkpoint version 1"):
            load_checkpoint(tmp_path / "v1.bin")

    def test_step_counter_round_trip(self, tmp_path):
        state = new_model(small_model_config(CODEC), seed=8)
        state.step = 137
        save_checkpoint(tmp_path / "s.bin", state, None)
        loaded, _ = load_checkpoint(tmp_path / "s.bin")
        assert loaded.step == 137

    @pytest.mark.parametrize(
        "damage",
        [
            "magic", "version", "header_length", "header", "header_json", "first_tensor", "last_tensor", "extra",
            "config_num_layers_a_string", "config_dtype_unknown", "config_heads_of_three_layers", "tensor_object_dtype",
            "step_a_string", "step_a_float", "step_negative", "header_crc", "first_tensor_crc", "last_tensor_crc",
            "cursor_a_string", "cursor_one_number", "cursor_negative", "cursor_a_float", "cursor_null_beside_moments",
            "moment_missing", "moment_of_another_shape", "moment_of_another_dtype",
        ],
    )
    def test_malformed_file_raises_invalid_input(self, tmp_path, damage):
        state = new_model(small_model_config(CODEC), seed=5)
        save_checkpoint(tmp_path / "m.bin", state, random_training_state(state, np.random.default_rng(1)))
        data = (tmp_path / "m.bin").read_bytes()
        _, header_end = checkpoint_header(data)
        first = state.params["text_emb"].nbytes
        last = state.params[list(state.params)[-1]].nbytes

        def with_header(change):
            """The file with valid-JSON header that ``change`` edited in place."""
            return with_checkpoint_header(data, change)

        def with_config(**changes):
            return with_header(lambda header: header["config"].update(changes))

        damaged = {
            "magic": data[:2],
            "version": data[:6],
            "header_length": data[:12],
            "header": data[:header_end - 5],
            "header_json": data[:20] + b"x" + data[21:],
            "first_tensor": data[:header_end + first // 2],
            "last_tensor": data[:len(data) - last // 2],
            "extra": data + b"\x00",
            "config_num_layers_a_string": with_config(num_layers="1"),
            "config_dtype_unknown": with_config(dtype="float99"),
            "config_heads_of_three_layers": with_config(head_mlp_layers=3),
            "tensor_object_dtype": with_header(lambda header: header["tensors"][-1].update(dtype="|O")),
            "step_a_string": with_header(lambda header: header.update(step="5")),
            "step_a_float": with_header(lambda header: header.update(step=3.7)),
            "step_negative": with_header(lambda header: header.update(step=-1)),
            "header_crc": flip_byte(data, 16),
            "first_tensor_crc": flip_byte(data, header_end),
            "last_tensor_crc": flip_byte(data, len(data) - 1),
            "cursor_a_string": with_header(lambda header: header.update(cursor="2,7")),
            "cursor_one_number": with_header(lambda header: header.update(cursor=[2])),
            "cursor_negative": with_header(lambda header: header.update(cursor=[2, -7])),
            "cursor_a_float": with_header(lambda header: header.update(cursor=[2.0, 7])),
            "cursor_null_beside_moments": with_header(lambda header: header.update(cursor=None)),
            "moment_missing": with_header(lambda header: header["tensors"].pop())[:len(data) - last],
            "moment_of_another_shape": with_header(lambda header: header["tensors"][-1].update(shape=[1, 1])),
            "moment_of_another_dtype": with_header(lambda header: header["tensors"][-1].update(dtype="float32")),
        }[damage]
        (tmp_path / "bad.bin").write_bytes(damaged)
        with pytest.raises(InvalidInputError):
            load_checkpoint(tmp_path / "bad.bin")

    @pytest.mark.parametrize("part", ["header", "tensor text_emb", "tensor adamw.m.text_emb", "tensor adamw.v.text_emb"])
    def test_a_flipped_byte_is_named(self, tmp_path, part):
        """A byte flipped in the header or in a tensor fails that part's CRC, and the error names the part."""
        state = new_model(small_model_config(CODEC), seed=5)
        save_checkpoint(tmp_path / "m.bin", state, random_training_state(state, np.random.default_rng(1)))
        data = (tmp_path / "m.bin").read_bytes()
        header, offset = checkpoint_header(data)
        if part == "header":
            offset = (20 + offset) // 2  # the middle of the header
        else:
            for spec in header["tensors"]:
                if part == f"tensor {spec['name']}":
                    break
                offset += int(np.prod(spec["shape"])) * np.dtype(spec["dtype"]).itemsize
        (tmp_path / "bad.bin").write_bytes(flip_byte(data, offset + 3, 0x40))
        with pytest.raises(InvalidInputError, match=f"its {part} fails its CRC-32 check"):
            load_checkpoint(tmp_path / "bad.bin")

    @pytest.mark.parametrize("fault", ["shape", "dtype"])
    def test_mis_shaped_tensor_raises_invalid_input(self, tmp_path, fault):
        state = new_model(small_model_config(CODEC), seed=5)
        if fault == "shape":
            state.params["layer0.ffn.w1"] = state.params["layer0.ffn.w1"][:, :-4]
        else:
            state.params["text_emb"] = state.params["text_emb"].astype(np.float32)
        save_checkpoint(tmp_path / "bad.bin", state, None)
        with pytest.raises(InvalidInputError):
            load_checkpoint(tmp_path / "bad.bin")

    def test_training_writes_checkpoints(self, tmp_path):
        corpus = gen_corpus(5, (5, 7), CODEC, seed=13)
        model_cfg = small_model_config(CODEC)
        state = new_model(model_cfg, seed=9)
        train_loop(
            corpus,
            state,
            TrainConfig(batch_frame_budget=512, total_steps=6, checkpoint_every=5),
            SchedulerConfig(base_lr=1e-3),
            run_dir=tmp_path,
        )
        assert (tmp_path / "ckpt_000005.bin").exists()
        assert (tmp_path / "ckpt_final.bin").exists()
        assert (tmp_path / "metrics.jsonl").exists()


@pytest.fixture(scope="class")
def training_checkpoint(tmp_path_factory):
    """A small format 2 training checkpoint's bytes, and the path damaged copies are written to."""
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.bin"
    state = new_model(small_model_config(CODEC, hidden_dim=8, ffn_dim=16, num_heads=2), seed=3)
    save_checkpoint(path, state, random_training_state(state, np.random.default_rng(4)))
    return path.read_bytes(), path.with_name("damaged.bin")


class TestCheckpointFuzz:
    """Any truncation or single-byte flip of a training checkpoint raises InvalidInputError and nothing else."""

    @staticmethod
    def positions(data):
        """Anywhere in the file, or anywhere up to the end of the header, where damage is most varied."""
        return st.integers(0, len(data) - 1) | st.integers(0, checkpoint_header(data)[1])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(draw=st.data())
    def test_truncation(self, training_checkpoint, draw):
        data, damaged = training_checkpoint
        damaged.write_bytes(data[:draw.draw(self.positions(data))])
        with pytest.raises(InvalidInputError):
            load_checkpoint(damaged)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(draw=st.data())
    def test_single_byte_flip(self, training_checkpoint, draw):
        data, damaged = training_checkpoint
        damaged.write_bytes(flip_byte(data, draw.draw(self.positions(data)), draw.draw(st.integers(1, 255))))
        with pytest.raises(InvalidInputError):
            load_checkpoint(damaged)


def assert_same_batch(got: Batch, want: Batch) -> None:
    assert (got.cursor, got.consumed, got.utterance_ids) == (want.cursor, want.consumed, want.utterance_ids)
    for field in ("kind", "ids", "lengths"):
        np.testing.assert_array_equal(getattr(got.inputs, field), getattr(want.inputs, field), err_msg=field)
    np.testing.assert_array_equal(got.targets, want.targets)
    np.testing.assert_array_equal(got.loss_mask, want.loss_mask)


def recording_make_batch(monkeypatch) -> list:
    """Route ``train.make_batch`` through a recorder; returns the list every batch built is appended to."""
    batches = []
    real_make_batch = train.make_batch

    def make_batch(*args, **kwargs):
        batches.append(real_make_batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(train, "make_batch", make_batch)
    return batches


class TestDataCursor:
    """Every batch is a function of (seed, cursor), so a run resumes from any checkpoint as if unbroken."""

    corpus = gen_corpus(12, (5, 7), CODEC, seed=10)

    def test_stream_from_any_cursor_is_the_tail_of_the_stream_from_the_start(self):
        model_cfg = small_model_config(CODEC)
        tcfg = TrainConfig(batch_frame_budget=120, seed=3)
        stream = batch_stream(self.corpus, model_cfg, tcfg)
        batches = [next(stream)]
        while batches[-1].cursor[0] < 3:
            batches.append(next(stream))
        for e in range(3):
            ids = [u for b in batches if b.cursor[0] == e for u in b.utterance_ids]
            assert sorted(ids) == sorted(u.id for u in self.corpus), f"epoch {e} reads every utterance once"
        starts = [next(b for b in batches if b.cursor == (e, 0)) for e in range(3)]
        assert len({b.inputs.ids.tobytes() for b in starts}) == 3, "each epoch draws its own spans"
        for i, batch in enumerate(batches):
            tail = batch_stream(self.corpus, model_cfg, tcfg, batch.cursor)
            for want in batches[i:]:
                assert_same_batch(next(tail), want)
        # a cursor at the end of an epoch starts the next one
        assert_same_batch(next(batch_stream(self.corpus, model_cfg, tcfg, (1, len(self.corpus)))), starts[2])

    def test_resume_from_each_periodic_checkpoint_equals_the_unbroken_run(self, tmp_path, monkeypatch):
        """N + M steps in one run equal N steps plus M resumed from ``ckpt_00000N.bin``, bit for bit (float64)."""
        tcfg = TrainConfig(batch_frame_budget=200, total_steps=6, seed=1, checkpoint_every=2)
        sched = SchedulerConfig(base_lr=3e-3)
        batches = recording_make_batch(monkeypatch)
        straight, _ = train_loop(self.corpus, new_model(small_model_config(CODEC), seed=2), tcfg, sched, tmp_path / "a")
        assert batches[2].cursor[0] != batches[3].cursor[0], "the steps resumed from ckpt_000002.bin cross an epoch"
        for n in (2, 4):
            state, training = load_checkpoint(tmp_path / "a" / f"ckpt_{n:06d}.bin")
            assert state.step == n and training is not None
            resumed, _ = train_loop(self.corpus, state, tcfg, sched, tmp_path / f"from{n}", training)
            assert resumed.step == straight.step == 6
            for name, value in straight.params.items():
                np.testing.assert_array_equal(resumed.params[name], value, err_msg=name)


class TestBenchmarkContract:
    """What ``perfbench`` relies on: it times a step from its ``eden_lr`` call, counts the positions of every
    ``make_batch``, and re-saves every checkpoint a run writes to check its bytes."""

    def test_each_step_calls_eden_lr_then_make_batch_once(self, monkeypatch):
        calls = []
        real_eden_lr, real_make_batch = train.eden_lr, train.make_batch
        monkeypatch.setattr(train, "eden_lr", lambda *args: calls.append("eden_lr") or real_eden_lr(*args))
        monkeypatch.setattr(train, "make_batch", lambda *args: calls.append("make_batch") or real_make_batch(*args))
        corpus = gen_corpus(12, (5, 7), CODEC, seed=10)
        tcfg = TrainConfig(batch_frame_budget=150, total_steps=3, seed=0)
        train_loop(corpus, new_model(small_model_config(CODEC), seed=0), tcfg, SchedulerConfig())
        assert calls == ["eden_lr", "make_batch"] * 3

    def test_every_checkpoint_of_a_run_re_saves_to_identical_bytes(self, tmp_path):
        corpus = gen_corpus(12, (5, 7), CODEC, seed=10)
        state = new_model(small_model_config(CODEC, dtype="float32"), seed=0)
        tcfg = TrainConfig(batch_frame_budget=150, total_steps=3, seed=0, checkpoint_every=2)
        trained, _ = train_loop(corpus, state, tcfg, SchedulerConfig(), run_dir=tmp_path)
        paths = sorted(tmp_path.glob("ckpt_*.bin"))
        assert [p.name for p in paths] == ["ckpt_000002.bin", "ckpt_final.bin"]
        for path in paths:
            loaded, training = load_checkpoint(path)
            assert training is not None and list(loaded.params) == list(trained.params)
            save_checkpoint(tmp_path / "resave.bin", loaded, training)
            assert (tmp_path / "resave.bin").read_bytes() == path.read_bytes(), path.name


# Eight 8 MiB arrays made and freed four times; prints the minor page faults of the last round.
HEAP_ROUNDS = """
import resource
import numpy as np
from codec_infill import train
train._retain_heap()
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 21, dtype=np.float32) for _ in range(8)]
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not hasattr(os, "confstr") or "glibc" not in (os.confstr("CS_GNU_LIBC_VERSION") or ""), reason="glibc only"
)
def test_retained_heap_serves_a_repeated_step_without_new_pages():
    """After ``_retain_heap`` a round of 64 MiB of arrays reuses the pages the previous round freed.

    glibc's adaptive thresholds would trim the 64 MiB freed at the top of
    the heap and fault all 16,384 pages back in on the next round.  A fresh
    interpreter runs the rounds, since the setting lasts for the process;
    numpy's huge-page advice is off there so each page counts as a fault.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(codec_infill.__file__).parents[1]), "NUMPY_MADVISE_HUGEPAGE": "0"}
    out = subprocess.run([sys.executable, "-c", HEAP_ROUNDS], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 200
