"""Schedule, batching, training-loop, and checkpoint tests."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_infill import train
from codec_infill.checkpoint import load_checkpoint, save_checkpoint
from codec_infill.errors import InvalidInputError, NonFiniteLossError
from codec_infill.jsonio import read_json
from codec_infill.model import (
    ModelConfig,
    ModelState,
    encode_sequence,
    new_model,
    next_item_targets,
    pad_sequences,
    parameter_shapes,
    score_sequence,
)
from codec_infill.rearrange import MaskSamplingConfig, causal_mask, delay_stack
from codec_infill.synthcodec import ToyCodecConfig, gen_corpus
from codec_infill.tokens import EMPTY, EOU, CodecMatrix, SpecialToken, Span, mask_marker
from codec_infill.train import (
    AdamW,
    Batch,
    SchedulerConfig,
    TrainConfig,
    build_training_example,
    eden_lr,
    evaluation_loss,
    make_batch,
    pseudo_epoch,
    train_loop,
)

from helpers import adamw_oracle, next_item_targets_oracle, random_matrix, random_spans


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
        rounding may differ (rtol 1e-6).  Recorded when head 1 first learned EOS at the
        start of each span's delay tail."""
        corpus = gen_corpus(12, (5, 7), CODEC, seed=10)
        state = new_model(small_model_config(CODEC, dtype="float32"), seed=0)
        tcfg = TrainConfig(batch_frame_budget=512, total_steps=8, seed=0)
        _, metrics = train_loop(corpus, state, tcfg, SchedulerConfig(base_lr=3e-3))
        pinned = [
            36.76228123128371, 36.71163859319388, 36.60361156540264, 36.54810703141119,
            36.425406727392065, 36.1579681892603, 36.13735688212185, 35.687337006327844,
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
        assert dump["step"] == 0 and dump["utterances"][0] == err.value.batch_id


class TestOptimizerStep:
    def test_grad_accum_applies_the_mean_of_its_batches_gradients(self, monkeypatch):
        """With grad_accum=2 one step reads two batches and hands AdamW their mean gradient."""
        corpus = gen_corpus(12, (5, 7), CODEC, seed=10)
        state = new_model(small_model_config(CODEC), seed=0)
        tcfg = TrainConfig(batch_frame_budget=96, total_steps=1, seed=0, grad_accum=2, grad_clip=0.0)
        batch_grads, losses, stepped, batches = [], [], [], []
        real_backward, real_weighted_loss, real_make_batch = train.backward, train.weighted_loss, train.make_batch
        real_step = AdamW.step

        def backward(*args):
            grads = real_backward(*args)
            batch_grads.append({name: g.copy() for name, g in grads.items()})
            return grads

        def weighted_loss(*args):
            out = real_weighted_loss(*args)
            losses.append(out[:2])
            return out

        def make_batch(*args, **kwargs):
            batches.append(real_make_batch(*args, **kwargs))
            return batches[-1]

        def step(self, params, grads, lr):
            stepped.append({name: g.copy() for name, g in grads.items()})
            return real_step(self, params, grads, lr)

        monkeypatch.setattr(train, "backward", backward)
        monkeypatch.setattr(train, "weighted_loss", weighted_loss)
        monkeypatch.setattr(train, "make_batch", make_batch)
        monkeypatch.setattr(AdamW, "step", step)
        _, metrics = train_loop(corpus, state, tcfg, SchedulerConfig(base_lr=3e-3))
        assert len(batch_grads) == len(losses) == 2 and len(stepped) == 1
        assert batches[0].utterance_ids != batches[1].utterance_ids
        first, second = batch_grads
        mean = {name: (first[name] + second[name]) / 2 for name in first}
        assert any(not np.array_equal(first[name], second[name]) for name in first)
        for name, g in stepped[0].items():
            np.testing.assert_allclose(g, mean[name], rtol=1e-15, atol=0, err_msg=name)
        (loss_a, per_k_a), (loss_b, per_k_b) = losses
        (entry,) = metrics
        assert entry["loss"] == pytest.approx((loss_a + loss_b) / 2, rel=1e-15)
        np.testing.assert_allclose(entry["loss_k"], (np.array(per_k_a) + np.array(per_k_b)) / 2, rtol=1e-15)
        norm = np.sqrt(sum(float((g**2).sum()) for g in mean.values()))
        assert entry["grad_norm"] == pytest.approx(norm, rel=1e-12)
        assert entry["positions"] == sum(int(b.inputs.lengths.sum()) for b in batches)
        assert entry["batch_size"] == sum(b.inputs.batch_size for b in batches)

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


def mt19937_state() -> dict:
    """A JSON form of an MT19937 state: valid for that generator, not for the PCG64 training draws from."""
    state = np.random.MT19937(0).state
    state["state"]["key"] = state["state"]["key"].tolist()
    return state


class TestCheckpoint:
    def test_save_twice_byte_identical(self, tmp_path):
        state = new_model(small_model_config(CODEC), seed=5)
        rng_state = np.random.default_rng(1).bit_generator.state
        save_checkpoint(tmp_path / "a.bin", state, rng_state)
        save_checkpoint(tmp_path / "b.bin", state, rng_state)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_round_trip_preserves_evaluation_loss_exactly(self, tmp_path):
        corpus = gen_corpus(4, (5, 7), CODEC, seed=12)
        model_cfg = small_model_config(CODEC)
        state = new_model(model_cfg, seed=6)
        batch = make_batch(corpus, model_cfg, TrainConfig(batch_frame_budget=512), np.random.default_rng(7))
        before = evaluation_loss(state, batch)
        save_checkpoint(tmp_path / "m.bin", state, None)
        loaded, rng_state = load_checkpoint(tmp_path / "m.bin")
        assert rng_state is None
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
            "step_a_string", "step_a_float", "step_negative", "rng_state_an_int", "rng_state_pcg64_state_a_string",
            "rng_state_mt19937",
        ],
    )
    def test_malformed_file_raises_invalid_input(self, tmp_path, damage):
        state = new_model(small_model_config(CODEC), seed=5)
        save_checkpoint(tmp_path / "m.bin", state, None)
        data = (tmp_path / "m.bin").read_bytes()
        header_end = 16 + int.from_bytes(data[8:16], "little")
        first = state.params["text_emb"].nbytes
        last = state.params[list(state.params)[-1]].nbytes

        def with_header(change):
            """The file with valid-JSON header that ``change`` edited in place."""
            header = json.loads(data[16:header_end])
            change(header)
            head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
            return data[:8] + len(head).to_bytes(8, "little") + head + data[header_end:]

        def with_config(**changes):
            return with_header(lambda header: header["config"].update(changes))

        damaged = {
            "magic": data[:2],
            "version": data[:6],
            "header_length": data[:12],
            "header": data[:header_end - 5],
            "header_json": data[:16] + b"x" + data[17:],
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
            "rng_state_an_int": with_header(lambda header: header.update(rng_state=5)),
            "rng_state_pcg64_state_a_string": with_header(lambda header: header.update(rng_state={
                "bit_generator": "PCG64", "state": "x", "has_uint32": 0, "uinteger": 0,
            })),
            "rng_state_mt19937": with_header(lambda header: header.update(rng_state=mt19937_state())),
        }[damage]
        (tmp_path / "bad.bin").write_bytes(damaged)
        with pytest.raises(InvalidInputError):
            load_checkpoint(tmp_path / "bad.bin")

    def test_file_with_key_bias_loads_and_scores_as_written(self):
        """A checkpoint written while attention still had a key bias loads without it.

        The fixture is a 2-layer float64 model trained six AdamW steps by the
        code that still had ``layer<i>.attn.bk``, whose key biases were then
        set to normal(0, 0.5) draws; beside it are the logits that code gave
        on the stream below.  The softmax cancels a key bias, so dropping it
        leaves the logits unchanged.
        """
        fixtures = Path(__file__).parent / "fixtures"
        state, rng_state = load_checkpoint(fixtures / "checkpoint_with_key_bias.bin")
        assert rng_state is None and state.step == 6
        assert not any(name.endswith(".attn.bk") for name in state.params)
        assert list(state.params) == list(parameter_shapes(state.config))
        frames = np.array([[0, 1], [2, 3], [4, 0], [1, 2], [3, 4], [0, 0], [2, 1]])
        matrix = CodecMatrix(frames, codebook_sizes=(5, 5))
        items = delay_stack(causal_mask(matrix, [Span(2, 4), Span(5, 6)])).items
        logits = score_sequence(state, [6, 0, 3, 1], items)
        recorded = np.load(fixtures / "checkpoint_with_key_bias_logits.npz")
        assert len(recorded.files) == len(logits) == state.config.num_codebooks
        for k, got in enumerate(logits):
            np.testing.assert_allclose(got, recorded[f"head{k}"], rtol=1e-5)

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
