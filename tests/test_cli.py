"""End-to-end command-line tests (driven in-process through main())."""

import inspect
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import codec_infill
from codec_infill.checkpoint import load_checkpoint, save_checkpoint
from codec_infill import metrics
from codec_infill.cli import _report_header, main
from codec_infill.errors import Range, declared_bounds
from codec_infill.evaluate import EvalRecord, load_manifest, synthesize_manifest
from codec_infill.infer import EditConfig, SamplingConfig
from codec_infill.jsonio import config_from_json
from codec_infill.model import ModelConfig, new_model
from codec_infill.rearrange import MaskSamplingConfig
from codec_infill.synthcodec import CorpusConfig, ToyCodecConfig, gen_corpus, load_corpus, write_corpus
from codec_infill.tokens import (
    CodecMatrix,
    TokenDumpRecord,
    read_token_dump,
    write_token_dump,
)
from codec_infill.train import SchedulerConfig, TrainConfig

from helpers import checkpoint_header, flip_byte, identity_records, random_training_state, save_manifest, with_checkpoint_header

CODEC = ToyCodecConfig()


def small_model_config():
    return ModelConfig(
        num_layers=1,
        hidden_dim=32,
        ffn_dim=64,
        num_heads=2,
        num_codebooks=CODEC.num_codebooks,
        codebook_sizes=CODEC.codebook_sizes,
        text_vocab_size=CODEC.alphabet_size,
        max_positions=512,
        loss_weights=(5.0, 1.0, 0.5, 0.1),
        dtype="float32",
    )


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus"
    write_corpus(path, gen_corpus(20, (5, 9), CODEC, seed=0, num_validation=4), CODEC)
    return path


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(path, new_model(small_model_config(), seed=0), None)
    return path


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def test_the_cli_loads_no_scipy_subpackage_but_special_and_fft():
    """Importing the CLI loads of scipy only ``special`` and ``fft``; ``scipy.signal`` would nearly double its memory.

    A fresh interpreter imports the CLI, since this process may already
    hold ``scipy.signal`` from other tests.  Private modules
    (``scipy._lib`` and the like) and ``scipy.version`` are not counted.
    """
    script = "import sys, codec_infill.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(codec_infill.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    loaded = {name.split(".")[1] for name in out.split() if name.startswith("scipy.")}
    public = {name for name in loaded if not name.startswith("_") and name != "version"}
    assert "special" in public and public <= {"special", "fft"}


class TestGenData:
    def test_default_counts(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", {"corpus": {"min_symbols": 5, "max_symbols": 8}})
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "corpus")])
        assert code == 0
        assert "1000 train / 100 validation" in capsys.readouterr().out
        utts, _ = load_corpus(tmp_path / "corpus")
        assert len(utts) == 1100

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_json(
            tmp_path / "gen.json",
            {"corpus": {"num_utterances": 12, "num_validation": 2, "min_symbols": 5, "max_symbols": 6}},
        )
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        for name in ("manifest.jsonl", "tokens.jsonl", "codec_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_field_named_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", {"codec": {"frames_per_sym": 4}})
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "frames_per_sym" in capsys.readouterr().err

    def test_invalid_value_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", {"codec": {"frames_per_symbol": 0}})
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "codec" in capsys.readouterr().err


class TestTrainCommand:
    def train_config(self, corpus_dir, steps=6):
        return {
            "data_dir": str(corpus_dir),
            "model": {
                "num_layers": 1,
                "hidden_dim": 32,
                "ffn_dim": 64,
                "num_heads": 2,
                "max_positions": 512,
                "dtype": "float32",
            },
            "scheduler": {"base_lr": 0.002},
            "train": {"batch_frame_budget": 512, "total_steps": steps, "checkpoint_every": 5},
        }

    def test_smoke_run_writes_checkpoint(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "train.json", self.train_config(corpus_dir))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run" / "ckpt_final.bin").exists()
        assert (tmp_path / "run" / "ckpt_000005.bin").exists()
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 6

    def test_resume_continues_step_counter(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "train.json", self.train_config(corpus_dir, steps=4))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        state, _ = load_checkpoint(tmp_path / "run" / "ckpt_final.bin")
        assert state.step == 4
        cfg2 = write_json(tmp_path / "train2.json", self.train_config(corpus_dir, steps=7))
        code = main(
            [
                "train", "--config", str(cfg2), "--out", str(tmp_path / "run2"),
                "--resume", str(tmp_path / "run" / "ckpt_final.bin"),
            ]
        )
        assert code == 0
        resumed, _ = load_checkpoint(tmp_path / "run2" / "ckpt_final.bin")
        assert resumed.step == 7

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda header: header.update(cursor=[3]), "cursor [3]"),
            (lambda header: header.update(cursor=[0, "7"]), "cursor [0, '7']"),
            (lambda header: header["tensors"][-1].update(shape=[2, 2]), "adamw.v.head3.b1"),
            (lambda header: header["tensors"].pop(), "adamw.v.head3.b1"),
        ],
        ids=["cursor_one_number", "cursor_a_string_offset", "moment_of_another_shape", "moment_missing"],
    )
    def test_resume_from_a_malformed_training_state_exits_1(self, tmp_path, corpus_dir, capsys, change, named):
        payload = self.train_config(corpus_dir, steps=2)
        cfg = write_json(tmp_path / "train.json", payload)
        model_cfg = ModelConfig(
            **payload["model"], num_codebooks=CODEC.num_codebooks, codebook_sizes=CODEC.codebook_sizes,
            text_vocab_size=CODEC.alphabet_size,
        )
        state = new_model(model_cfg, seed=0)
        save_checkpoint(tmp_path / "good.bin", state, random_training_state(state, np.random.default_rng(0)))
        (tmp_path / "bad.bin").write_bytes(with_checkpoint_header((tmp_path / "good.bin").read_bytes(), change))
        code = main(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--resume", str(tmp_path / "bad.bin")]
        )
        err = capsys.readouterr().err
        assert code == 1, err
        assert "Traceback" not in err
        assert named in err

    def test_resume_from_a_flipped_tensor_byte_exits_1(self, tmp_path, corpus_dir, capsys):
        cfg = write_json(tmp_path / "train.json", self.train_config(corpus_dir, steps=2))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        data = (tmp_path / "run" / "ckpt_final.bin").read_bytes()
        (tmp_path / "flipped.bin").write_bytes(flip_byte(data, checkpoint_header(data)[1] + 5))
        code = main(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "run2"), "--resume", str(tmp_path / "flipped.bin")]
        )
        err = capsys.readouterr().err
        assert code == 1, err
        assert "Traceback" not in err
        assert "tensor text_emb fails its CRC-32 check" in err

    def test_resume_from_a_model_only_checkpoint_starts_fresh_moments(self, tmp_path, corpus_dir, capsys):
        """A file saved without a training state resumes at its step, from cursor (0, 0) with zero moments, and says so."""
        payload = self.train_config(corpus_dir, steps=8)
        state = new_model(config_from_json(ModelConfig, payload["model"], "model"), seed=0)
        state.step = 6
        save_checkpoint(tmp_path / "model.bin", state, None)
        cfg = write_json(tmp_path / "train.json", payload)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--resume", str(tmp_path / "model.bin")])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed from" in out and "at step 6" in out
        assert "no data cursor or AdamW moments" in out and "fresh moments at cursor (0, 0)" in out
        state, training = load_checkpoint(tmp_path / "run" / "ckpt_final.bin")
        assert state.step == 8 and training is not None

    def test_resume_equals_training_without_a_break(self, tmp_path, corpus_dir):
        """6 steps in one run and 3 steps plus 3 resumed steps end in the same parameters, bit for bit."""
        def run(out, steps, *resume):
            payload = self.train_config(corpus_dir, steps=steps)
            payload["model"]["dtype"] = "float64"
            cfg = write_json(tmp_path / f"{out}.json", payload)
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / out), *resume]) == 0
            return tmp_path / out / "ckpt_final.bin"

        straight, _ = load_checkpoint(run("straight", 6))
        resumed, _ = load_checkpoint(run("resumed", 6, "--resume", str(run("first", 3))))
        assert resumed.step == straight.step == 6
        for name, value in straight.params.items():
            np.testing.assert_array_equal(resumed.params[name], value, err_msg=name)

    def test_mask_spans_beyond_the_model_markers_exit_2_before_training(self, tmp_path, corpus_dir, capsys):
        payload = self.train_config(corpus_dir)
        payload["train"]["mask"] = {"max_spans": 5}
        cfg = write_json(tmp_path / "train.json", payload)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "train.mask.max_spans 5" in err and "model.max_mask_spans 3" in err
        assert not list((tmp_path / "run").glob("ckpt_*.bin"))
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_nan_abort_exit_4(self, tmp_path, corpus_dir, capsys):
        state = new_model(
            ModelConfig(
                num_layers=1, hidden_dim=32, ffn_dim=64, num_heads=2,
                max_positions=512, dtype="float32",
                num_codebooks=CODEC.num_codebooks, codebook_sizes=CODEC.codebook_sizes,
                text_vocab_size=CODEC.alphabet_size,
            ),
            seed=0,
        )
        state.params["text_emb"][:] = np.nan
        poisoned = tmp_path / "poisoned.bin"
        save_checkpoint(poisoned, state, None)
        cfg = write_json(tmp_path / "train.json", self.train_config(corpus_dir, steps=3))
        code = main(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--resume", str(poisoned)]
        )
        assert code == 4
        assert "utt" in capsys.readouterr().err


class TestReportHeader:
    def test_constants_are_the_metrics_constants(self):
        constants = _report_header({}, 0)["constants"]
        assert constants == {
            "dtw_steps": [[1, 0], [0, 1], [1, 1]],
            "dtw_local_distance": "euclidean",
            "mcd_scale": metrics.MCD_SCALE,
            "window_length": metrics.WINDOW_LENGTH,
            "hop": metrics.HOP,
            "fft_size": metrics.FFT_SIZE,
            "mel_bands": metrics.MEL_BANDS,
            "mfcc_order": metrics.MFCC_ORDER,
            "f0_range_hz": list(metrics.F0_RANGE_HZ),
            "voicing_threshold": metrics.VOICING_THRESHOLD,
            "log_floor": metrics.LOG_FLOOR,
        }

    def test_written_constants_are_pinned(self):
        assert json.dumps(_report_header({}, 0)["constants"], sort_keys=True) == (
            '{"dtw_local_distance": "euclidean", "dtw_steps": [[1, 0], [0, 1], [1, 1]], '
            '"f0_range_hz": [80, 600], "fft_size": 1024, "hop": 160, "log_floor": 1e-10, '
            '"mcd_scale": 4.3429448190325175, "mel_bands": 40, "mfcc_order": 13, '
            '"voicing_threshold": 0.3, "window_length": 640}'
        )


class TestEditCommand:
    def test_identity_edit_round_trips_tokens(self, tmp_path, corpus_dir, tiny_checkpoint):
        utts, _ = load_corpus(corpus_dir)
        utt = utts[0]
        request = write_json(
            tmp_path / "request.json",
            {"id": utt.id, "corpus_dir": str(corpus_dir), "target": utt.transcript},
        )
        code = main(["edit", str(tiny_checkpoint), str(request), "--out", str(tmp_path / "edit")])
        assert code == 0
        records = read_token_dump(tmp_path / "edit" / "edited_tokens.jsonl")
        assert np.array_equal(records[0].matrix.frames, utt.tokens.frames)
        report = json.loads((tmp_path / "edit" / "report.json").read_text())
        assert report["identity"] is True
        assert (tmp_path / "edit" / "edited.wav").exists()

    def test_truncated_checkpoint_is_a_pipeline_error(self, tmp_path, corpus_dir, tiny_checkpoint, capsys):
        utts, _ = load_corpus(corpus_dir)
        request = write_json(
            tmp_path / "request.json",
            {"id": utts[0].id, "corpus_dir": str(corpus_dir), "target": utts[0].transcript},
        )
        data = tiny_checkpoint.read_bytes()
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(data[: len(data) - 7])
        code = main(["edit", str(truncated), str(request), "--out", str(tmp_path / "edit")])
        assert code == 1
        err = capsys.readouterr().err
        assert "truncated" in err
        assert "Traceback" not in err

    def test_mis_shaped_checkpoint_is_a_pipeline_error(self, tmp_path, corpus_dir, capsys):
        utts, _ = load_corpus(corpus_dir)
        request = write_json(
            tmp_path / "request.json",
            {"id": utts[0].id, "corpus_dir": str(corpus_dir), "target": utts[0].transcript},
        )
        state = new_model(small_model_config(), seed=0)
        state.params["layer0.ffn.w1"] = state.params["layer0.ffn.w1"][:, :-4]
        save_checkpoint(tmp_path / "bad.bin", state, None)
        code = main(["edit", str(tmp_path / "bad.bin"), str(request), "--out", str(tmp_path / "edit")])
        assert code == 1
        err = capsys.readouterr().err
        assert "layer0.ffn.w1" in err
        assert "Traceback" not in err

    def test_substitution_reports_ten_candidates(self, tmp_path, corpus_dir, tiny_checkpoint):
        utts, _ = load_corpus(corpus_dir)
        utt = utts[1]
        target = list(utt.transcript)
        target[2] = (target[2] + 1) % CODEC.alphabet_size
        request = write_json(
            tmp_path / "request.json",
            {
                "id": utt.id,
                "corpus_dir": str(corpus_dir),
                "target": target,
                "sampling": {"max_generated_steps": 6, "seed": 3},
            },
        )
        code = main(["edit", str(tiny_checkpoint), str(request), "--out", str(tmp_path / "edit")])
        assert code == 0
        report = json.loads((tmp_path / "edit" / "report.json").read_text())
        assert len(report["candidate_lengths"]) == 10
        assert 0 <= report["chosen_index"] < 10
        assert [c["epsilon"] for c in report["candidates"]] == [
            0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11, 0.12, 0.13, 0.14
        ]

    def test_report_counts_the_batched_decode(self, tmp_path, corpus_dir, tiny_checkpoint):
        utts, _ = load_corpus(corpus_dir)
        utt = utts[1]
        target = list(utt.transcript)
        target[2] = (target[2] + 1) % CODEC.alphabet_size
        request = write_json(
            tmp_path / "request.json",
            {"id": utt.id, "corpus_dir": str(corpus_dir), "target": target,
             "sampling": {"max_generated_steps": 6, "seed": 3}},
        )
        assert main(["edit", str(tiny_checkpoint), str(request), "--out", str(tmp_path / "edit")]) == 0
        report = json.loads((tmp_path / "edit" / "report.json").read_text())
        # one batched decode: a mask marker, at most 6 + K - 1 frame steps and EOS
        assert 0 < report["decode_steps"] <= 1 + 6 + CODEC.num_codebooks
        assert report["prefill_positions"] > 0


class TestTtsCommand:
    def test_prompt_preserved_and_five_candidates(self, tmp_path, corpus_dir, tiny_checkpoint):
        utts, _ = load_corpus(corpus_dir)
        utt = utts[2]
        half = len(utt.transcript) // 2
        frames = utt.tokens.frames[: CODEC.frames_per_symbol * half]
        dump = tmp_path / "prompt.jsonl"
        write_token_dump(
            dump,
            [TokenDumpRecord(utt.id, CodecMatrix(frames, CODEC.frame_rate, CODEC.codebook_sizes))],
        )
        prompt_text = " ".join(str(s) for s in utt.transcript[:half])
        target_text = " ".join(str(s) for s in utt.transcript[half:])
        code = main(
            [
                "tts", str(tiny_checkpoint), str(dump), prompt_text, target_text,
                "--codec-config", str(corpus_dir / "codec_config.json"),
                "--out", str(tmp_path / "tts"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "tts" / "report.json").read_text())
        assert len(report["candidate_lengths"]) == 5
        assert report["chosen_index"] == int(np.argmin(report["candidate_lengths"]))
        out = read_token_dump(tmp_path / "tts" / "tts_tokens.jsonl")[0].matrix
        assert np.array_equal(out.frames[: len(frames)], frames)

    def test_report_counts_one_shared_prefill(self, tmp_path, corpus_dir, tiny_checkpoint):
        utts, _ = load_corpus(corpus_dir)
        utt = utts[2]
        half = len(utt.transcript) // 2
        frames = utt.tokens.frames[: CODEC.frames_per_symbol * half]
        dump = tmp_path / "prompt.jsonl"
        write_token_dump(
            dump,
            [TokenDumpRecord(utt.id, CodecMatrix(frames, CODEC.frame_rate, CODEC.codebook_sizes))],
        )
        code = main(
            [
                "tts", str(tiny_checkpoint), str(dump),
                " ".join(str(s) for s in utt.transcript[:half]),
                " ".join(str(s) for s in utt.transcript[half:]),
                "--codec-config", str(corpus_dir / "codec_config.json"),
                "--out", str(tmp_path / "tts"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "tts" / "report.json").read_text())
        # the five samples share one context, prefilled once: the transcript, the stacked
        # prompt (F + K - 1 steps), the marker, an empty stacked span (K - 1 steps) and EOU
        k = CODEC.num_codebooks
        assert report["prefill_positions"] == len(utt.transcript) + (len(frames) + k - 1) + 1 + (k - 1) + 1
        # the longest sample's marker, its frames plus K - 1 delay steps, and EOS
        assert report["decode_steps"] == 1 + max(report["candidate_lengths"]) + k


class TestRearrangeCommand:
    def test_prints_canonical_layout(self, tmp_path, capsys):
        frames = np.array([[10 * i + c for c in range(4)] for i in range(1, 7)])
        dump = tmp_path / "six.jsonl"
        write_token_dump(
            dump, [TokenDumpRecord("six", CodecMatrix(frames, 50, (2048,) * 4))]
        )
        code = main(["rearrange", str(dump), "--spans", "1:4", "--roundtrip"])
        assert code == 0
        out = capsys.readouterr().out
        y_line = next(line for line in out.splitlines() if line.startswith("Y:"))
        assert y_line == (
            "Y: (10,11,12,13) <M1> (50,51,52,53) (60,61,62,63) EOU "
            "<M1> (20,21,22,23) (30,31,32,33) (40,41,42,43) EOS"
        )
        assert "Z:" in out
        assert "round-trip OK" in out

    def test_single_codebook_stack_unchanged(self, tmp_path, capsys):
        frames = np.arange(3).reshape(3, 1)
        dump = tmp_path / "k1.jsonl"
        write_token_dump(dump, [TokenDumpRecord("k1", CodecMatrix(frames, 50, (8,)))])
        code = main(["rearrange", str(dump)])
        assert code == 0
        out = capsys.readouterr().out
        y_line = next(line for line in out.splitlines() if line.startswith("Y:"))
        z_line = next(line for line in out.splitlines() if line.startswith("Z:"))
        assert y_line[2:] == z_line[2:]


def dedupe_by_utterance(records):
    """Keep the first record of each utterance."""
    seen = set()
    out = []
    for r in records:
        if r.utterance not in seen:
            seen.add(r.utterance)
            out.append(r)
    return out


class TestEvalCommand:
    def test_identity_manifest_zero_everywhere_and_counts(self, tmp_path, tiny_checkpoint):
        corpus = gen_corpus(10, (5, 9), CODEC, seed=22)
        corpus_path = tmp_path / "corpus"
        write_corpus(corpus_path, corpus, CODEC)
        rng = np.random.default_rng(23)
        records = dedupe_by_utterance(identity_records(corpus, rng, 4))
        manifest = tmp_path / "manifest.jsonl"
        save_manifest(manifest, records)
        code = main(
            ["eval", str(tiny_checkpoint), str(corpus_path), str(manifest), "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        summary = json.loads((tmp_path / "ev" / "eval_summary.json").read_text())
        strata = summary["strata"]
        assert strata["identity"]["count"] == len(records)
        for row in strata.values():
            assert row["mean_ser"] == 0.0
            assert row["mean_mcd"] == 0.0

    def test_corruption_raises_only_its_stratum(self, tmp_path, tiny_checkpoint):
        corpus = gen_corpus(10, (5, 9), CODEC, seed=24)
        corpus_path_a = tmp_path / "clean"
        corpus_path_b = tmp_path / "corrupt"
        write_corpus(corpus_path_a, corpus, CODEC)
        rng = np.random.default_rng(25)
        identity = identity_records(corpus, rng, 2)
        edits = synthesize_manifest(corpus, CODEC, rng, 2, max_span_words=2)
        records = dedupe_by_utterance(identity + edits)
        manifest = tmp_path / "manifest.jsonl"
        save_manifest(manifest, records)

        # corrupted copy: shift one identity record's tokens
        corrupted_id = next(r.utterance for r in records if not r.edit_types)
        mutated = []
        for u in corpus:
            if u.id == corrupted_id:
                frames = (u.tokens.frames + 101) % CODEC.codebook_size
                u = type(u)(u.id, u.transcript, CodecMatrix(frames, CODEC.frame_rate, CODEC.codebook_sizes), u.split)
            mutated.append(u)
        write_corpus(corpus_path_b, mutated, CODEC)

        args_tail = [
            str(manifest), "--set", "sampling.max_generated_steps=4", "--set", "sampling.seed=11",
        ]
        assert main(["eval", str(tiny_checkpoint), str(corpus_path_a), *args_tail, "--out", str(tmp_path / "a")]) == 0
        assert main(["eval", str(tiny_checkpoint), str(corpus_path_b), *args_tail, "--out", str(tmp_path / "b")]) == 0
        clean = json.loads((tmp_path / "a" / "eval_summary.json").read_text())["strata"]
        dirty = json.loads((tmp_path / "b" / "eval_summary.json").read_text())["strata"]
        assert dirty["identity"]["mean_ser"] > clean["identity"]["mean_ser"]
        for key in clean:
            if key in ("identity", "all|total"):
                continue
            assert dirty[key] == clean[key]  # untouched strata are bit-identical

    def test_synthesized_manifest_evaluates_every_record(self, tmp_path, tiny_checkpoint):
        """Records keyed caseNNNN_<utt> find their utterance's tokens, duplicates included."""
        corpus = gen_corpus(3, (5, 8), CODEC, seed=27)
        corpus_path = tmp_path / "corpus"
        write_corpus(corpus_path, corpus, CODEC)
        records = identity_records(corpus, np.random.default_rng(28), 4)
        assert len({r.utterance for r in records}) < len(records)
        manifest = tmp_path / "manifest.jsonl"
        save_manifest(manifest, records)
        code = main(
            ["eval", str(tiny_checkpoint), str(corpus_path), str(manifest), "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        summary = json.loads((tmp_path / "ev" / "eval_summary.json").read_text())
        assert summary["skipped"] == 0
        assert summary["strata"]["identity"]["count"] == len(records)
        rows = (tmp_path / "ev" / "eval_report.jsonl").read_text().splitlines()[1:]
        assert sorted(json.loads(row)["id"] for row in rows) == sorted(r.id for r in records)

    def test_manifest_utterance_defaults_to_id(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            '{"id": "utt00001", "original": [1, 2], "edited": [1, 2]}\n'
            '{"id": "case7", "utterance": "utt00002", "original": [3], "edited": [3]}\n'
        )
        records = load_manifest(manifest)
        assert [(r.id, r.utterance) for r in records] == [("utt00001", "utt00001"), ("case7", "utt00002")]
        assert EvalRecord("x", [1], [1]).utterance == "x"

    @pytest.mark.parametrize(
        "line, named",
        [
            ('{"id": "a", "original": [1]}', "'edited'"),
            ("{not json", "not valid JSON"),
            ('[1, 2, 3]', "list"),
            ('{"id": "a", "original": [1], "edited": 5}', "'edited'"),
            ('{"id": "a", "original": [1], "edited": [2], "edit_types": [1, "x"], "num_spans": 1}', "edit_types"),
        ],
    )
    def test_malformed_manifest_line_is_a_config_error(self, tmp_path, tiny_checkpoint, capsys, line, named):
        corpus = gen_corpus(2, (5, 8), CODEC, seed=29)
        write_corpus(tmp_path / "corpus", corpus, CODEC)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"id": "ok", "original": [1, 2], "edited": [1, 2]}\n\n' + line + "\n")
        code = main(
            ["eval", str(tiny_checkpoint), str(tmp_path / "corpus"), str(manifest), "--out", str(tmp_path / "ev")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "line 3" in err and named in err

    def test_missing_dump_skipped(self, tmp_path, tiny_checkpoint):
        corpus = gen_corpus(6, (5, 8), CODEC, seed=26)
        corpus_path = tmp_path / "corpus"
        write_corpus(corpus_path, corpus, CODEC)
        records = [
            EvalRecord("missing00", [1, 2, 3], [1, 2, 3]),
            EvalRecord(corpus[0].id, corpus[0].transcript, corpus[0].transcript),
        ]
        manifest = tmp_path / "manifest.jsonl"
        save_manifest(manifest, records)
        code = main(
            ["eval", str(tiny_checkpoint), str(corpus_path), str(manifest), "--out", str(tmp_path / "ev")]
        )
        assert code == 0
        summary = json.loads((tmp_path / "ev" / "eval_summary.json").read_text())
        assert summary["skipped"] == 1



MALFORMED = {}


def malformed(case):
    """Register a case: it builds its inputs and returns the argv and the strings stderr must name."""
    MALFORMED[case.__name__] = case
    return case


def dump_with_line(tmp_path, line: bytes):
    dump = tmp_path / "dump.jsonl"
    good = b'{"codebook_sizes": [8], "frame_rate": 50, "frames": [[1], [2]], "id": "ok"}'
    dump.write_bytes(good + b"\n" + line + b"\n")
    return ["rearrange", str(dump)], [str(dump), "line 2"]


def corpus_with(tmp_path, corpus_dir, name, text):
    """A copy of the corpus whose file ``name`` holds ``text``."""
    copy = tmp_path / "corpus"
    copy.mkdir()
    for path in corpus_dir.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    (copy / name).write_text(text)
    return copy


def tts_with_codec_config(tmp_path, corpus_dir, checkpoint, text):
    """tts reading the codec config ``my_codec.json``; a valid codec_config.json sits beside it."""
    config = corpus_with(tmp_path, corpus_dir, "my_codec.json", text) / "my_codec.json"
    argv = ["tts", str(checkpoint), str(corpus_dir / "tokens.jsonl"), "1 2", "3", "--codec-config", str(config)]
    return argv + ["--out", str(tmp_path / "tts")], [str(config)]


def tts_with_seed(tmp_path, corpus_dir, checkpoint, seed: str):
    argv = ["tts", str(checkpoint), str(corpus_dir / "tokens.jsonl"), "1 2", "3", "--seed", seed]
    return argv + ["--out", str(tmp_path / "tts")], ["--seed"]


def edit_with_request(tmp_path, corpus_dir, checkpoint, **fields):
    request = write_json(tmp_path / "request.json", {"id": "utt00001", "corpus_dir": str(corpus_dir), **fields})
    return ["edit", str(checkpoint), str(request), "--out", str(tmp_path / "edit")], [str(request)]


def gen_data_with_config(tmp_path, payload, *overrides):
    config = write_json(tmp_path / "gen.json", payload)
    argv = ["gen-data", "--config", str(config), "--out", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    return argv, [str(config)]


def train_with_config(tmp_path, corpus_dir, *overrides):
    config = write_json(tmp_path / "train.json", {
        "data_dir": str(corpus_dir),
        "model": {"num_layers": 1, "hidden_dim": 32, "ffn_dim": 64, "num_heads": 2, "max_positions": 512},
        "train": {"batch_frame_budget": 512, "total_steps": 1},
    })
    argv = ["train", "--config", str(config), "--out", str(tmp_path / "run")]
    for item in overrides:
        argv += ["--set", item]
    return argv, [str(config)]


def eval_with_set(tmp_path, corpus_dir, checkpoint, item):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"id": "utt00000", "original": [1], "edited": [1]}\n')
    argv = ["eval", str(checkpoint), str(corpus_dir), str(manifest), "--set", item, "--out", str(tmp_path / "ev")]
    return argv, ["--set"]


@malformed
def dump_line_not_json(tmp_path, corpus_dir, checkpoint):
    argv, names = dump_with_line(tmp_path, b"{not json")
    return argv, names + ["not valid JSON"]


@malformed
def dump_line_not_utf8(tmp_path, corpus_dir, checkpoint):
    argv, names = dump_with_line(tmp_path, b'{"id": "\xff"}')
    return argv, names + ["utf-8"]


@malformed
def dump_line_a_list(tmp_path, corpus_dir, checkpoint):
    argv, names = dump_with_line(tmp_path, b"[1, 2]")
    return argv, names + ["list"]


@malformed
def dump_line_without_frames(tmp_path, corpus_dir, checkpoint):
    argv, names = dump_with_line(tmp_path, b'{"id": "x", "frame_rate": 50, "codebook_sizes": [8]}')
    return argv, names + ["'frames'"]


@malformed
def dump_frames_not_t_by_k(tmp_path, corpus_dir, checkpoint):
    argv, names = dump_with_line(tmp_path, b'{"id": "x", "frame_rate": 50, "codebook_sizes": [8], "frames": [1, 2]}')
    return argv, names + ["(T, K)"]


@malformed
def dump_frames_ragged(tmp_path, corpus_dir, checkpoint):
    line = b'{"id": "x", "frame_rate": 50, "codebook_sizes": [8, 8], "frames": [[1, 2], [3]]}'
    argv, names = dump_with_line(tmp_path, line)
    return argv, names + ["'frames'"]


def dump_with_fields(tmp_path, named, **fields):
    """A dump whose line 2 is a valid record with ``fields`` set; stderr must also name ``named``."""
    record = {"codebook_sizes": [8], "frame_rate": 50, "frames": [[1], [2]], "id": "x", **fields}
    argv, names = dump_with_line(tmp_path, json.dumps(record).encode())
    return argv, names + [named]


@malformed
def dump_frames_floats(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "'frames'", frames=[[1.7], [2.2]])


@malformed
def dump_frames_strings(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "'frames'", frames=[["1"], ["2"]])


@malformed
def dump_frames_bools(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "'frames'", frames=[[1], [True]])


@malformed
def dump_token_equal_to_its_codebook_size(tmp_path, corpus_dir, checkpoint):
    named = "codebook 2 token out of range [0, 4)"
    return dump_with_fields(tmp_path, named, codebook_sizes=[8, 4], frames=[[1, 3], [2, 4]])


@malformed
def dump_token_negative(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "codebook 1 token out of range [0, 8)", frames=[[1], [-1]])


@malformed
def dump_frame_rate_a_float(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "'frame_rate'", frame_rate=50.9)


@malformed
def dump_frame_rate_a_string(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "'frame_rate'", frame_rate="50")


@malformed
def dump_codebook_sizes_floats(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "'codebook_sizes'", codebook_sizes=[8.5])


@malformed
def dump_codebook_size_zero(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "codebook_sizes must all be >= 1, not (0,)", codebook_sizes=[0], frames=[])


@malformed
def dump_codebook_size_negative(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "codebook_sizes must all be >= 1, not (8, -3)", codebook_sizes=[8, -3], frames=[])


@malformed
def dump_frame_rate_negative(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "frame_rate must be >= 1, not -5", frame_rate=-5)


@malformed
def dump_line_unknown_key(tmp_path, corpus_dir, checkpoint):
    return dump_with_fields(tmp_path, "'frame_rates'", frame_rates=50)


def corpus_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, change):
    """edit over a copy of the corpus whose manifest line 2 ``change`` edited in place."""
    lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(lines[1])
    change(entry)
    corpus = corpus_with(tmp_path, corpus_dir, "manifest.jsonl", "\n".join([lines[0], json.dumps(entry), *lines[2:]]))
    argv, _ = edit_with_request(tmp_path, corpus, checkpoint, target=[1])
    return argv, [str(corpus / "manifest.jsonl"), "line 2"]


@malformed
def corpus_manifest_line_without_dump(tmp_path, corpus_dir, checkpoint):
    argv, names = corpus_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, lambda entry: entry.pop("dump"))
    return argv, names + ["'dump'"]


@malformed
def corpus_manifest_transcript_floats(tmp_path, corpus_dir, checkpoint):
    argv, names = corpus_manifest_with_line_2(
        tmp_path, corpus_dir, checkpoint, lambda entry: entry.update(transcript=[1.5, 2])
    )
    return argv, names + ["'transcript'"]


@malformed
def corpus_manifest_transcript_strings(tmp_path, corpus_dir, checkpoint):
    argv, names = corpus_manifest_with_line_2(
        tmp_path, corpus_dir, checkpoint, lambda entry: entry.update(transcript=[1, "2"])
    )
    return argv, names + ["'transcript'"]


@malformed
def corpus_manifest_unknown_key(tmp_path, corpus_dir, checkpoint):
    argv, names = corpus_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, lambda entry: entry.update(splits="x"))
    return argv, names + ["'splits'"]


def corpus_with_a_repeat_of_utt00000(tmp_path, corpus_dir, checkpoint, name):
    """edit over a copy of the corpus whose file ``name`` ends in line 3's entry renamed utt00000."""
    lines = (corpus_dir / name).read_text().splitlines()
    entry = json.loads(lines[2])
    entry["id"] = "utt00000"
    corpus = corpus_with(tmp_path, corpus_dir, name, "\n".join([*lines, json.dumps(entry)]) + "\n")
    argv, _ = edit_with_request(tmp_path, corpus, checkpoint, target=[1])
    return argv, [str(corpus / name), f"line {len(lines) + 1}", "'utt00000'", "line 1"]


@malformed
def corpus_manifest_repeated_id(tmp_path, corpus_dir, checkpoint):
    """The repeat once gave utt00000 utt00002's transcript beside its own tokens."""
    return corpus_with_a_repeat_of_utt00000(tmp_path, corpus_dir, checkpoint, "manifest.jsonl")


@malformed
def corpus_dump_repeated_id(tmp_path, corpus_dir, checkpoint):
    """The repeat once gave utt00000 utt00002's tokens beside its own transcript."""
    return corpus_with_a_repeat_of_utt00000(tmp_path, corpus_dir, checkpoint, "tokens.jsonl")


def eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, named, **fields):
    """eval of a manifest whose line 2 is a valid identity record with ``fields`` set."""
    manifest = tmp_path / "manifest.jsonl"
    record = {"id": "utt00001", "original": [1], "edited": [1], **fields}
    manifest.write_text('{"id": "utt00000", "original": [1], "edited": [1]}\n' + json.dumps(record) + "\n")
    argv = ["eval", str(checkpoint), str(corpus_dir), str(manifest), "--out", str(tmp_path / "ev")]
    return argv, [str(manifest), "line 2", named]


@malformed
def eval_manifest_repeated_id(tmp_path, corpus_dir, checkpoint):
    """Records are keyed by id: two records named alike once both edited the second one's utterance."""
    argv, names = eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'utt00000'", id="utt00000")
    return argv, names + ["line 1"]


@malformed
def eval_manifest_original_a_float(tmp_path, corpus_dir, checkpoint):
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'original'", original=[1.9], edited=[1])


@malformed
def eval_manifest_original_a_string(tmp_path, corpus_dir, checkpoint):
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'original'", original=["2"], edited=[2])


@malformed
def eval_manifest_original_a_bool(tmp_path, corpus_dir, checkpoint):
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'original'", original=[True], edited=[1])


@malformed
def eval_manifest_utterance_null(tmp_path, corpus_dir, checkpoint):
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'utterance'", utterance=None)


@malformed
def eval_manifest_identity_bucket_an_int(tmp_path, corpus_dir, checkpoint):
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'bucket'", bucket=5)


@malformed
def eval_manifest_identity_bucket_a_string(tmp_path, corpus_dir, checkpoint):
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "bucket must be null", bucket="1-2")


@malformed
def eval_manifest_edit_bucket_a_list(tmp_path, corpus_dir, checkpoint):
    edit = dict(edited=[2], edit_types=["substitution"], num_spans=1, bucket=["1-2"])
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'bucket'", **edit)


@malformed
def eval_manifest_unknown_key(tmp_path, corpus_dir, checkpoint):
    return eval_manifest_with_line_2(tmp_path, corpus_dir, checkpoint, "'utterence'", utterence="utt00002")


@malformed
def codec_config_unknown_field(tmp_path, corpus_dir, checkpoint):
    argv, names = tts_with_codec_config(tmp_path, corpus_dir, checkpoint, json.dumps({"bogus": 1}))
    return argv, names + ["codec.bogus"]


@malformed
def codec_config_not_an_object(tmp_path, corpus_dir, checkpoint):
    argv, names = tts_with_codec_config(tmp_path, corpus_dir, checkpoint, "[4, 2]")
    return argv, names + ["list"]


@malformed
def edit_target_not_ids(tmp_path, corpus_dir, checkpoint):
    argv, names = edit_with_request(tmp_path, corpus_dir, checkpoint, target=[1, "a"])
    return argv, names + ["'target'"]


@malformed
def edit_target_a_float(tmp_path, corpus_dir, checkpoint):
    argv, names = edit_with_request(tmp_path, corpus_dir, checkpoint, target=[3.7])
    return argv, names + ["'target'"]


@malformed
def edit_target_a_string(tmp_path, corpus_dir, checkpoint):
    argv, names = edit_with_request(tmp_path, corpus_dir, checkpoint, target=["4"])
    return argv, names + ["'target'"]


@malformed
def edit_target_a_bool(tmp_path, corpus_dir, checkpoint):
    argv, names = edit_with_request(tmp_path, corpus_dir, checkpoint, target=[False])
    return argv, names + ["'target'"]


@malformed
def edit_id_an_int(tmp_path, corpus_dir, checkpoint):
    request = write_json(tmp_path / "request.json", {"id": 7, "corpus_dir": str(corpus_dir), "target": [1]})
    return ["edit", str(checkpoint), str(request), "--out", str(tmp_path / "edit")], [str(request), "'id'"]


@malformed
def edit_num_candidates_removed(tmp_path, corpus_dir, checkpoint):
    argv, names = edit_with_request(tmp_path, corpus_dir, checkpoint, target=[1], edit={"num_candidates": 10})
    return argv, names + ["edit.num_candidates"]


@malformed
def config_top_level_a_list(tmp_path, corpus_dir, checkpoint):
    argv, names = gen_data_with_config(tmp_path, [{"codec": {}}])
    return argv, names + ["list"]


@malformed
def config_codec_sample_rate_aliases(tmp_path, corpus_dir, checkpoint):
    argv, names = gen_data_with_config(tmp_path, {"codec": {"sample_rate": 8000}})
    return argv, names + ["codec", "alias"]


@malformed
def config_override_into_a_scalar(tmp_path, corpus_dir, checkpoint):
    argv, names = gen_data_with_config(tmp_path, {}, "codec=3", "codec.alphabet_size=10")
    return argv, names + ["codec.alphabet_size=10"]


@malformed
def config_train_mask_seed_removed(tmp_path, corpus_dir, checkpoint):
    config = write_json(tmp_path / "train.json", {
        "data_dir": str(corpus_dir),
        "model": {"num_layers": 1, "hidden_dim": 32, "ffn_dim": 64, "num_heads": 2, "max_positions": 512},
        "train": {"batch_frame_budget": 512, "total_steps": 1, "mask": {"seed": 1}},
    })
    return ["train", "--config", str(config), "--out", str(tmp_path / "run")], [str(config), "train.mask.seed"]


@malformed
def config_corpus_num_utterances_a_string(tmp_path, corpus_dir, checkpoint):
    argv, names = gen_data_with_config(tmp_path, {"corpus": {"num_utterances": "5"}})
    return argv, names + ["corpus.num_utterances", "str"]


@malformed
def config_model_dtype_unknown(tmp_path, corpus_dir, checkpoint):
    config = write_json(tmp_path / "train.json", {
        "data_dir": str(corpus_dir),
        "model": {"num_layers": 1, "hidden_dim": 32, "ffn_dim": 64, "num_heads": 2, "dtype": "float99"},
        "train": {"batch_frame_budget": 512, "total_steps": 1},
    })
    return ["train", "--config", str(config), "--out", str(tmp_path / "run")], [str(config), "'model'", "dtype 'float99'"]


# numpy float types the model cannot train in: float16 once failed its second step blaming a batch (AdamW's
# eps rounds to 0), and longdouble a traceback from scipy's erf
@malformed
def config_model_dtype_float16(tmp_path, corpus_dir, checkpoint):
    argv, names = train_with_config(tmp_path, corpus_dir, "model.dtype=float16")
    return argv, names + ["'model'", "dtype 'float16'"]


@malformed
def config_model_dtype_longdouble(tmp_path, corpus_dir, checkpoint):
    argv, names = train_with_config(tmp_path, corpus_dir, "model.dtype=longdouble")
    return argv, names + ["'model'", "dtype 'longdouble'"]


@malformed
def config_train_without_data_dir(tmp_path, corpus_dir, checkpoint):
    config = write_json(tmp_path / "train.json", {"train": {"total_steps": 1}})
    return ["train", "--config", str(config), "--out", str(tmp_path / "run")], [str(config), "'data_dir'"]


@malformed
def eval_set_value_of_the_wrong_type(tmp_path, corpus_dir, checkpoint):
    argv, names = eval_with_set(tmp_path, corpus_dir, checkpoint, "sampling.seed=x")
    return argv, names + ["sampling.seed", "str"]


@malformed
def config_gen_data_unknown_top_level_key(tmp_path, corpus_dir, checkpoint):
    argv, names = gen_data_with_config(tmp_path, {"modle": {}})
    return argv, names + ["'modle'"]


@malformed
def config_train_unknown_top_level_key(tmp_path, corpus_dir, checkpoint):
    config = write_json(tmp_path / "train.json", {"data_dir": str(corpus_dir), "schedular": {"base_lr": 0.1}})
    return ["train", "--config", str(config), "--out", str(tmp_path / "run")], [str(config), "'schedular'"]


@malformed
def config_override_adds_unknown_top_level_key(tmp_path, corpus_dir, checkpoint):
    argv, names = gen_data_with_config(tmp_path, {}, "corpuss.seed=3")
    return argv, names + ["'corpuss'"]


@malformed
def edit_request_unknown_top_level_key(tmp_path, corpus_dir, checkpoint):
    argv, names = edit_with_request(tmp_path, corpus_dir, checkpoint, target=[1], sampeling={"seed": 3})
    return argv, names + ["'sampeling'"]


@malformed
def edit_request_top_level_margin_schedule(tmp_path, corpus_dir, checkpoint):
    """The margin schedule is set under ``edit`` only."""
    argv, names = edit_with_request(tmp_path, corpus_dir, checkpoint, target=[1], margin_schedule=[0.05, 0.06])
    return argv, names + ["'margin_schedule'"]


@malformed
def config_model_head_mlp_layers_removed(tmp_path, corpus_dir, checkpoint):
    config = write_json(tmp_path / "train.json", {
        "data_dir": str(corpus_dir),
        "model": {"num_layers": 1, "hidden_dim": 32, "ffn_dim": 64, "num_heads": 2, "head_mlp_layers": 2},
        "train": {"batch_frame_budget": 512, "total_steps": 1},
    })
    return ["train", "--config", str(config), "--out", str(tmp_path / "run")], [str(config), "model.head_mlp_layers"]


@malformed
def config_train_base_lr_nan(tmp_path, corpus_dir, checkpoint):
    """A NaN learning rate once trained to a checkpoint whose every parameter was NaN."""
    argv, names = train_with_config(tmp_path, corpus_dir, "scheduler.base_lr=NaN")
    return argv, names + ["scheduler.base_lr", "must be finite"]


@malformed
def eval_set_temperature_infinite(tmp_path, corpus_dir, checkpoint):
    argv, names = eval_with_set(tmp_path, corpus_dir, checkpoint, "sampling.temperature=Infinity")
    return argv, names + ["sampling.temperature", "must be finite"]


@malformed
def config_model_codebook_size_negative(tmp_path, corpus_dir, checkpoint):
    """A negative codebook size once ended in a numpy traceback from ``init_params``."""
    argv, names = train_with_config(tmp_path, corpus_dir, "model.codebook_sizes=[-4,256,256,256]")
    return argv, names + ["'model'", "codebook_sizes must all be >= 1"]


@malformed
def eval_set_outside_sampling_and_edit(tmp_path, corpus_dir, checkpoint):
    argv, names = eval_with_set(tmp_path, corpus_dir, checkpoint, "seed=3")
    return argv, names + ["'seed'"]


@malformed
def rearrange_spans_not_start_end(tmp_path, corpus_dir, checkpoint):
    return ["rearrange", str(corpus_dir / "tokens.jsonl"), "--spans", "1:4,6"], ["--spans", "'1:4,6'"]


@malformed
def tts_text_not_ids(tmp_path, corpus_dir, checkpoint):
    codec = str(corpus_dir / "codec_config.json")
    argv = ["tts", str(checkpoint), str(corpus_dir / "tokens.jsonl"), "1 x", "3", "--codec-config", codec]
    return argv + ["--out", str(tmp_path / "tts")], ["prompt_text", "'1 x'"]


def corpus_of_codec(tmp_path, **fields):
    """A six-utterance corpus written by a codec with ``fields`` set, and its codec config file."""
    path = tmp_path / "other_corpus"
    codec = ToyCodecConfig(**fields)
    write_corpus(path, gen_corpus(6, (5, 9), codec, seed=0, num_validation=1), codec)
    return path, path / "codec_config.json"


# An input of another codec than the checkpoint's once decoded in full, then failed with exit 1, or ended in a traceback.
@malformed
def edit_corpus_of_another_codebook_size(tmp_path, corpus_dir, checkpoint):
    corpus, config = corpus_of_codec(tmp_path, codebook_size=128)
    argv, _ = edit_with_request(tmp_path, corpus, checkpoint, target=[1, 2])
    return argv, [str(checkpoint), str(config), "codebook_sizes are [128, 128, 128, 128], the model's [256, 256, 256, 256]"]


@malformed
def edit_corpus_of_a_larger_alphabet(tmp_path, corpus_dir, checkpoint):
    corpus, config = corpus_of_codec(tmp_path, alphabet_size=40)
    argv, _ = edit_with_request(tmp_path, corpus, checkpoint, target=[1, 2])
    return argv, [str(checkpoint), str(config), "alphabet_size 40 exceeds the model's text_vocab_size 30"]


@malformed
def tts_prompt_of_three_codebooks(tmp_path, corpus_dir, checkpoint):
    dump = tmp_path / "prompt.jsonl"
    frames = np.arange(24).reshape(8, 3) % 5
    write_token_dump(dump, [TokenDumpRecord("p", CodecMatrix(frames, codebook_sizes=(256,) * 3))])
    codec = str(corpus_dir / "codec_config.json")
    argv = ["tts", str(checkpoint), str(dump), "1 2", "3", "--codec-config", codec, "--out", str(tmp_path / "tts")]
    return argv, [str(checkpoint), str(dump), "num_codebooks is 3, the model's 4"]


@malformed
def tts_codec_config_of_another_codebook_size(tmp_path, corpus_dir, checkpoint):
    _, config = corpus_of_codec(tmp_path, codebook_size=128)
    argv = ["tts", str(checkpoint), str(corpus_dir / "tokens.jsonl"), "1 2", "3", "--codec-config", str(config)]
    return argv + ["--out", str(tmp_path / "tts")], [str(checkpoint), str(config), "codebook_sizes"]


@malformed
def eval_corpus_of_another_codebook_size(tmp_path, corpus_dir, checkpoint):
    corpus, config = corpus_of_codec(tmp_path, codebook_size=128)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"id": "utt00000", "original": [1], "edited": [1]}\n')
    argv = ["eval", str(checkpoint), str(corpus), str(manifest), "--out", str(tmp_path / "ev")]
    return argv, [str(checkpoint), str(config), "codebook_sizes"]


def count_below_one(dotted: str, value: int):
    """Register a case setting the count or divisor ``dotted`` to ``value``; stderr names its section and field."""
    section, field = dotted.split(".")

    def case(tmp_path, corpus_dir, checkpoint):
        item = f"{dotted}={value}"
        if section == "codec":
            argv, names = gen_data_with_config(tmp_path, {}, item)
        elif section in ("sampling", "edit"):
            argv, names = eval_with_set(tmp_path, corpus_dir, checkpoint, item)
        else:
            argv, names = train_with_config(tmp_path, corpus_dir, item)
        return argv, names + [f"'{section}'", f"{field} must be >= 1, not {value}"]

    case.__name__ = f"config_{section}_{field}_{'zero' if value == 0 else 'negative'}"
    malformed(case)


for dotted, value in [
    ("codec.frame_rate", 0),
    ("codec.sample_rate", 0),
    ("codec.alphabet_size", 0),
    ("codec.codebook_size", 0),
    ("codec.num_codebooks", 0),
    ("model.num_layers", -1),
    ("model.hidden_dim", 0),
    ("model.ffn_dim", 0),
    ("model.num_heads", 0),
    ("model.max_positions", 0),
    ("model.text_vocab_size", 0),
    ("model.max_mask_spans", 0),
    ("train.checkpoint_every", 0),
    ("scheduler.steps_per_pseudo_epoch", 0),
    ("sampling.max_generated_steps", 0),
    ("sampling.max_generated_steps", -3),
    ("edit.tts_num_samples", 0),
]:
    count_below_one(dotted, value)


def negative_seed(name: str, build):
    """Register a case in which ``build`` sets the seed ``name`` to -1; stderr names it and its bound."""

    def case(tmp_path, corpus_dir, checkpoint):
        argv, names = build(tmp_path, corpus_dir, checkpoint)
        return argv, names + [f"{name.split('.')[-1]} must be >= 0, not -1"]

    case.__name__ = f"seed_{name.replace('.', '_')}_negative"
    malformed(case)


for name, build in [
    ("corpus.seed", lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "corpus.seed=-1")),
    ("codec.table_seed", lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "codec.table_seed=-1")),
    ("codec.jitter_seed", lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "codec.jitter_seed=-1")),
    ("train.seed", lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "train.seed=-1")),
    ("init_seed", lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "init_seed=-1")),
    ("edit.sampling.seed", lambda tmp, corpus, ckpt: edit_with_request(tmp, corpus, ckpt, target=[1], sampling={"seed": -1})),
    ("tts.sampling.seed", lambda tmp, corpus, ckpt: tts_with_seed(tmp, corpus, ckpt, "-1")),
    ("eval.sampling.seed", lambda tmp, corpus, ckpt: eval_with_set(tmp, corpus, ckpt, "sampling.seed=-1")),
]:
    negative_seed(name, build)


def out_of_range(name: str, message: str, build):
    """Register a case in which ``build`` sets ``name`` outside its range; stderr names its section and ``message``."""

    def case(tmp_path, corpus_dir, checkpoint):
        argv, names = build(tmp_path, corpus_dir, checkpoint)
        return argv, names + [f"'{name.split('.')[0]}'", message]

    case.__name__ = f"config_{name.replace('.', '_')}_out_of_range"
    malformed(case)


# Each of these once trained or edited without complaint, or failed later, blaming a batch.
for name, message, build in [
    ("train.beta1", "beta1 must be < 1, not 1.0", lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "train.beta1=1.0")),
    ("train.beta2", "beta2 must be >= 0, not -0.5", lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "train.beta2=-0.5")),
    ("train.adam_eps", "adam_eps must be > 0, not 0.0", lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "train.adam_eps=0.0")),
    (
        "train.weight_decay", "weight_decay must be >= 0, not -0.5",
        lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "train.weight_decay=-0.5"),
    ),
    ("train.grad_clip", "grad_clip must be >= 0, not -1", lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "train.grad_clip=-1")),
    (
        "scheduler.warmup_start", "warmup_start must be <= 1, not 2.0",
        lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "scheduler.warmup_start=2.0"),
    ),
    (
        "edit.margin_schedule", "margin_schedule must all be >= 0, not (-0.03, ",
        lambda tmp, corpus, ckpt: edit_with_request(
            tmp, corpus, ckpt, target=[1], edit={"margin_schedule": [-0.03, 0.05, 0.06, 0.07, 0.08]}
        ),
    ),
    (
        "edit.num_discard_longest", "num_discard_longest must be >= 0, not -1",
        lambda tmp, corpus, ckpt: edit_with_request(tmp, corpus, ckpt, target=[1], edit={"num_discard_longest": -1}),
    ),
    # the corpus bounds once exited 1 naming no field
    (
        "corpus.min_symbols", "min_symbols must be >= 1, not 0",
        lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "corpus.min_symbols=0"),
    ),
    (
        "corpus.max_symbols", "min_symbols must be <= max_symbols, not 5 > 2",
        lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "corpus.max_symbols=2"),
    ),
    (
        "corpus.num_utterances", "num_utterances must be >= 1, not 0",
        lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "corpus.num_utterances=0"),
    ),
    # a negative jitter once applied no jitter, and a negative validation count wrote no validation split
    (
        "codec.jitter_amount", "jitter_amount must be >= 0, not -1",
        lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "codec.jitter_seed=1", "codec.jitter_amount=-1"),
    ),
    (
        "corpus.num_validation", "num_validation must be >= 0, not -1",
        lambda tmp, corpus, ckpt: gen_data_with_config(tmp, {}, "corpus.num_validation=-1"),
    ),
    # init_scale is a standard deviation; a negative one once trained without complaint
    (
        "model.init_scale", "init_scale must be > 0, not -0.02",
        lambda tmp, corpus, ckpt: train_with_config(tmp, corpus, "model.init_scale=-0.02"),
    ),
]:
    out_of_range(name, message, build)


@malformed
def config_corpus_num_validation_not_below_num_utterances(tmp_path, corpus_dir, checkpoint):
    argv, names = gen_data_with_config(tmp_path, {}, "corpus.num_validation=1100")
    return argv, names + ["'corpus'", "num_validation must be < num_utterances, not 1100 >= 1100"]


# Every config section the commands read, by the dotted name their errors carry.
CONFIG_SECTIONS = {
    "codec": ToyCodecConfig,
    "corpus": CorpusConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "train.mask": MaskSamplingConfig,
    "scheduler": SchedulerConfig,
    "sampling": SamplingConfig,
    "edit": EditConfig,
}

# Numeric fields that declare no bound, and why none is needed.
UNBOUNDED = {
    "codec.render_gains": "a negative gain inverts its tone, which still renders",
}


def field_kind(cls, name):
    """The item type of field ``name``: int or float for ``X``, ``tuple[X, ...]`` and ``X | None``, else the hint."""
    hint = typing.get_type_hints(cls)[name]
    return (typing.get_args(hint) or (hint,))[0]


def just_outside(bound: Range, kind) -> list:
    """The ``kind`` values just beyond each end of ``bound``: an open end itself, else one int or float step past it."""

    def beyond(end, is_open, direction):
        if is_open:
            return kind(end)
        return end + direction if kind is int else math.nextafter(end, direction * math.inf)

    ends = [beyond(bound.lo, bound.lo_open, -1)]
    if bound.hi is not None:
        ends.append(beyond(bound.hi, bound.hi_open, 1))
    return ends


def bound_cases():
    for section, cls in CONFIG_SECTIONS.items():
        for name, (bound, each) in declared_bounds(cls).items():
            for value in just_outside(bound, field_kind(cls, name)):
                if each:  # one item outside, the rest the default's
                    value = [value, *getattr(cls(), name)[1:]]
                yield pytest.param(section, name, value, id=f"{section}.{name}={json.dumps(value)}")


def numeric_fields(cls):
    """The fields of ``cls`` that hold an int or a float, alone, in a tuple or beside None."""
    return [name for name in typing.get_type_hints(cls) if field_kind(cls, name) in (int, float)]


class TestDeclaredBounds:
    @pytest.mark.parametrize("section, name, value", bound_cases())
    def test_value_just_outside_exits_2_naming_the_field(
        self, tmp_path, corpus_dir, tiny_checkpoint, capsys, section, name, value
    ):
        item = f"{section}.{name}={json.dumps(value)}"
        if section in ("codec", "corpus"):
            argv, _ = gen_data_with_config(tmp_path, {}, item)
        elif section in ("sampling", "edit"):
            argv, _ = eval_with_set(tmp_path, corpus_dir, tiny_checkpoint, item)
        else:  # fails while reading the config, before any step
            argv, _ = train_with_config(tmp_path, corpus_dir, item)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        assert f"'{section}'" in err and f"{name} must" in err

    def test_every_numeric_field_declares_a_bound(self):
        unbounded = {
            f"{section}.{name}"
            for section, cls in CONFIG_SECTIONS.items()
            for name in numeric_fields(cls)
            if name not in declared_bounds(cls)
        }
        assert unbounded == set(UNBOUNDED)

    def test_every_config_class_is_a_section(self):
        configs = {
            cls
            for module in vars(codec_infill).values()
            if inspect.ismodule(module)
            for name, cls in vars(module).items()
            if name.endswith("Config") and inspect.isclass(cls) and cls.__module__ == module.__name__
        }
        assert configs == set(CONFIG_SECTIONS.values())


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_fails_typed_and_names_the_input(self, tmp_path, corpus_dir, tiny_checkpoint, capsys, case):
        argv, names = MALFORMED[case](tmp_path, corpus_dir, tiny_checkpoint)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        for name in names:
            assert name in err

    def test_failed_round_trip_is_a_pipeline_error(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setattr("codec_infill.cli.unstack", lambda z: None)
        code = main(["rearrange", str(corpus_dir / "tokens.jsonl"), "--spans", "1:4", "--roundtrip"])
        assert code == 1
        assert "round-trip of" in capsys.readouterr().err
