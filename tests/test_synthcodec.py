"""Toy codec tests: invertibility, alignment, rendering, corpus generation."""

import hashlib
import json

import numpy as np
import pytest

from codec_infill.errors import InvalidInputError, VocabularyError
from codec_infill.synthcodec import (
    RENDER_AMPLITUDE,
    ToyCodecConfig,
    _encode,
    codebook_tables,
    decode_tokens,
    encode_transcript,
    exact_alignment,
    frequency_tables,
    gen_corpus,
    load_corpus,
    render_waveform,
    write_corpus,
    write_wav,
)
from codec_infill.tokens import CodecMatrix
from helpers import decode_tokens_oracle


CFG = ToyCodecConfig()


def corpus_digest(utterances) -> str:
    """Digest of every utterance's id, split, transcript and token matrix, in order."""
    h = hashlib.sha256()
    for u in utterances:
        meta = [u.id, u.split, [int(s) for s in u.transcript], u.tokens.frame_rate, list(u.tokens.codebook_sizes)]
        h.update(json.dumps(meta).encode())
        h.update(u.tokens.frames.astype("<i8").tobytes())
    return h.hexdigest()[:16]


class TestEncodeDecode:
    def test_empty_transcript(self):
        tokens = encode_transcript([], CFG)
        assert tokens.frames.shape == (0, CFG.num_codebooks)
        align = exact_alignment(0, CFG)
        assert align.word_spans == [] and align.total_frames == 0
        assert decode_tokens(tokens, CFG) == []

    def test_single_symbol_block_and_alignment(self):
        tokens = encode_transcript([7], CFG)
        assert tokens.num_frames == CFG.frames_per_symbol
        align = exact_alignment(1, CFG)
        assert align.word_spans[0].start == 0
        assert align.word_spans[0].end == align.total_frames == tokens.num_frames

    def test_alignment_is_exact_per_symbol(self):
        tokens = encode_transcript([1, 2, 3, 4, 5], CFG)
        align = exact_alignment(5, CFG)
        assert align.total_frames == tokens.num_frames
        f = CFG.frames_per_symbol
        assert [(span.start, span.end) for span in align.word_spans] == [(f * i, f * (i + 1)) for i in range(5)]

    def test_round_trip_identity_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            transcript = list(rng.integers(0, CFG.alphabet_size, size=rng.integers(1, 25)))
            tokens = encode_transcript(transcript, CFG)
            assert decode_tokens(tokens, CFG) == transcript

    def test_round_trip_with_jitter_still_exact(self):
        """Jitter only touches texture codebooks; codebooks 1-2 stay clean."""
        rng = np.random.default_rng(1)
        transcript = list(rng.integers(0, CFG.alphabet_size, size=12))
        clean = encode_transcript(transcript, CFG)
        jittered = _encode(transcript, CFG, codebook_tables(CFG), np.random.default_rng(5))
        assert np.array_equal(clean.frames[:, :2], jittered.frames[:, :2])
        assert decode_tokens(jittered, CFG) == transcript

    def test_unknown_symbol_rejected(self):
        with pytest.raises(VocabularyError):
            encode_transcript([CFG.alphabet_size], CFG)

    def test_single_frame_corruption_costs_at_most_one_symbol(self):
        rng = np.random.default_rng(2)
        transcript = list(rng.integers(0, CFG.alphabet_size, size=10))
        tokens = encode_transcript(transcript, CFG)
        for frame in range(tokens.num_frames):
            corrupted = tokens.frames.copy()
            corrupted[frame] = (corrupted[frame] + 97) % CFG.codebook_size
            out = decode_tokens(CodecMatrix(corrupted, CFG.frame_rate, CFG.codebook_sizes), CFG)
            errors = sum(1 for a, b in zip(out, transcript) if a != b)
            assert errors <= 1

    def test_partial_tail_is_decoded(self):
        tokens = encode_transcript([3, 4], CFG)
        cut = CodecMatrix(tokens.frames[:-1], CFG.frame_rate, CFG.codebook_sizes)
        assert decode_tokens(cut, CFG) == [3, 4]  # 3 of 4 frames still out-vote any imposter

    def test_invertible_tables_are_injective(self):
        tables = codebook_tables(CFG)
        for k in range(2):
            flat = tables[k].ravel()
            assert len(set(flat.tolist())) == flat.size


class TestDecodeMatchesTheBlockLoop:
    """``decode_tokens`` equals the block-by-block vote on any frames."""

    CONFIGS = {
        "default": CFG,
        "three_frames_per_symbol": ToyCodecConfig(frames_per_symbol=3),
        "one_codebook": ToyCodecConfig(num_codebooks=1, render_gains=(1.0,)),
        # 6 symbols over 20 ids: random frames often match, so scores tie
        "small_tables": ToyCodecConfig(
            alphabet_size=6, frames_per_symbol=3, codebook_size=20, num_codebooks=2, render_gains=(1.0, 0.25)
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fuzz_against_the_oracle(self, name):
        cfg = self.CONFIGS[name]
        rng = np.random.default_rng(sorted(self.CONFIGS).index(name))
        kinds = set()
        for case in range(500):
            if case % 2:  # a corrupted encoding, maybe cut inside its last block
                transcript = rng.integers(0, cfg.alphabet_size, size=int(rng.integers(0, 9))).tolist()
                frames = encode_transcript(transcript, cfg).frames
                frames = frames[: max(0, len(frames) - int(rng.integers(0, cfg.frames_per_symbol)))]
                hit = rng.random(frames.shape) < rng.random()
                frames[hit] = rng.integers(0, cfg.codebook_size, size=int(hit.sum()))
            else:
                frames = rng.integers(0, cfg.codebook_size, size=(int(rng.integers(0, 25)), cfg.num_codebooks))
            tokens = CodecMatrix(frames, cfg.frame_rate, cfg.codebook_sizes)
            want = decode_tokens_oracle(tokens, cfg)
            assert decode_tokens(tokens, cfg) == want, (case, frames.tolist())
            tail = len(frames) % cfg.frames_per_symbol
            kinds.add("zero_frames" if len(frames) == 0 else "short_tail" if tail else "whole")
        assert kinds == {"zero_frames", "short_tail", "whole"}

    def test_ties_go_to_the_lowest_symbol(self):
        cfg = self.CONFIGS["small_tables"]
        tables = codebook_tables(cfg)
        frames = np.zeros((3, 2), dtype=np.int64)
        frames[:, 0] = tables[0][4]  # codebook 1 votes for symbol 4
        frames[:, 1] = tables[1][2]  # codebook 2 votes for symbol 2
        tokens = CodecMatrix(frames, cfg.frame_rate, cfg.codebook_sizes)
        assert decode_tokens(tokens, cfg) == decode_tokens_oracle(tokens, cfg) == [2]


class TestRender:
    def test_empty_matrix_empty_waveform(self):
        assert len(render_waveform(encode_transcript([], CFG), CFG)) == 0

    def test_single_frame_pure_sinusoid(self):
        """With other codebooks silenced, one frame renders one sinusoid."""
        cfg = ToyCodecConfig(render_gains=(1.0, 0.0, 0.0, 0.0))
        freq_table = frequency_tables(cfg)[0]
        token = int(np.nonzero(freq_table == 220.0)[0][0])
        frames = np.zeros((1, 4), dtype=np.int64)
        frames[0, 0] = token
        wav = render_waveform(CodecMatrix(frames, cfg.frame_rate, cfg.codebook_sizes), cfg)
        assert len(wav) == cfg.samples_per_frame
        t = np.arange(cfg.samples_per_frame) / cfg.sample_rate
        np.testing.assert_allclose(wav, RENDER_AMPLITUDE * np.sin(2 * np.pi * 220.0 * t), atol=1e-12)

    def test_codebook_one_band_is_80_to_600(self):
        freqs = frequency_tables(CFG)[0]
        assert freqs.min() >= 80.0 and freqs.max() <= 600.0

    def test_sample_rate_that_would_alias_rejected(self):
        """Nyquist must lie above the highest tone of every codebook that renders."""
        assert max(t.max() for t in frequency_tables(CFG)) == 5340.0
        for rate in (8000, 10000, 10650):
            with pytest.raises(InvalidInputError, match="alias"):
                ToyCodecConfig(sample_rate=rate)
        with pytest.raises(InvalidInputError, match="alias"):  # Nyquist exactly at the top tone
            ToyCodecConfig(sample_rate=10680, frame_rate=40)
        for rate in (10700, 16000, 24000, 48000):
            assert ToyCodecConfig(sample_rate=rate).sample_rate == rate
        # a fifth codebook's 256 tones reach 5755 Hz; a silenced codebook renders nothing
        ToyCodecConfig(sample_rate=11000)
        with pytest.raises(InvalidInputError, match="alias"):
            ToyCodecConfig(num_codebooks=5, sample_rate=11000, render_gains=(1.0, 0.25, 0.15, 0.1, 0.1))
        ToyCodecConfig(sample_rate=8000, render_gains=(1.0, 0.25, 0.15, 0.0))

    def test_determinism(self):
        tokens = encode_transcript([1, 2, 3], CFG)
        a = render_waveform(tokens, CFG)
        b = render_waveform(tokens, CFG)
        assert np.array_equal(a, b)

    def test_wav_writing_round_trip(self, tmp_path):
        import wave

        tokens = encode_transcript([5, 6], CFG)
        wav = render_waveform(tokens, CFG)
        path = tmp_path / "out.wav"
        write_wav(path, wav, CFG.sample_rate)
        with wave.open(str(path), "rb") as fh:
            assert fh.getframerate() == CFG.sample_rate
            assert fh.getnchannels() == 1
            assert fh.getnframes() == len(wav)


class TestCorpus:
    def test_determinism(self):
        a = gen_corpus(20, (5, 10), CFG, seed=3, num_validation=5)
        b = gen_corpus(20, (5, 10), CFG, seed=3, num_validation=5)
        assert [u.transcript for u in a] == [u.transcript for u in b]
        assert all(np.array_equal(x.tokens.frames, y.tokens.frames) for x, y in zip(a, b))

    def test_lengths_within_range(self):
        corpus = gen_corpus(200, (5, 20), CFG, seed=4)
        assert all(5 <= len(u.transcript) <= 20 for u in corpus)

    def test_split_disjoint_by_id(self):
        corpus = gen_corpus(50, (5, 8), CFG, seed=5, num_validation=10)
        train_ids = {u.id for u in corpus if u.split == "train"}
        val_ids = {u.id for u in corpus if u.split == "val"}
        assert len(train_ids) == 40 and len(val_ids) == 10
        assert not (train_ids & val_ids)

    def test_write_and_load_round_trip(self, tmp_path):
        corpus = gen_corpus(12, (5, 8), CFG, seed=6, num_validation=3)
        write_corpus(tmp_path / "corpus", corpus, CFG)
        loaded, cfg = load_corpus(tmp_path / "corpus")
        assert cfg == CFG
        by_id = {u.id: u for u in loaded}
        for u in corpus:
            v = by_id[u.id]
            assert v.transcript == u.transcript
            assert v.split == u.split
            assert np.array_equal(v.tokens.frames, u.tokens.frames)

    # (seed, jitter_seed) -> digests of the generated corpus and of the three files it writes
    DIGESTS = {
        (3, None): ("57fa5b2536882603", "f12c3616f87a003c"),
        (3, 11): ("decc72c62c1dcb0d", "260163864ceee88c"),
        (8, None): ("ef529c209b14e155", "8b615c4897e24a1b"),
        (8, 11): ("77ad9685f0fee093", "d38a6778cc7f9d96"),
    }

    @pytest.mark.parametrize("seed, jitter_seed", sorted(DIGESTS, key=str))
    def test_pinned_digests(self, tmp_path, seed, jitter_seed):
        """Generation, writing and loading back are pinned byte for byte, jitter on and off."""
        cfg = ToyCodecConfig(jitter_seed=jitter_seed)
        corpus = gen_corpus(40, (5, 20), cfg, seed=seed, num_validation=5)
        write_corpus(tmp_path, corpus, cfg)
        files = hashlib.sha256()
        for name in ("codec_config.json", "manifest.jsonl", "tokens.jsonl"):
            files.update((tmp_path / name).read_bytes())
        assert (corpus_digest(corpus), files.hexdigest()[:16]) == self.DIGESTS[(seed, jitter_seed)]
        loaded, loaded_cfg = load_corpus(tmp_path)
        assert loaded_cfg == cfg and corpus_digest(loaded) == corpus_digest(corpus)

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = gen_corpus(8, (5, 8), CFG, seed=7)
        write_corpus(tmp_path / "a", corpus, CFG)
        write_corpus(tmp_path / "b", corpus, CFG)
        for name in ("manifest.jsonl", "tokens.jsonl", "codec_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
