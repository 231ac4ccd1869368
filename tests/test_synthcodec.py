"""Toy codec tests: invertibility, alignment, rendering, corpus generation."""

import numpy as np
import pytest

from codec_infill.errors import InvalidInputError, VocabularyError
from codec_infill.synthcodec import (
    RENDER_AMPLITUDE,
    ToyCodecConfig,
    codebook_tables,
    decode_tokens,
    encode_transcript,
    frequency_tables,
    gen_corpus,
    load_corpus,
    render_waveform,
    write_corpus,
    write_wav,
)
from codec_infill.tokens import CodecMatrix


CFG = ToyCodecConfig()


class TestEncodeDecode:
    def test_empty_transcript(self):
        tokens, align = encode_transcript([], CFG)
        assert tokens.num_frames == 0
        assert align.word_spans == [] and align.total_frames == 0
        assert decode_tokens(tokens, CFG).symbols == []

    def test_single_symbol_block_and_alignment(self):
        tokens, align = encode_transcript([7], CFG)
        assert tokens.num_frames == CFG.frames_per_symbol
        assert align.word_spans[0].start == 0
        assert align.word_spans[0].end == CFG.frames_per_symbol

    def test_alignment_is_exact_per_symbol(self):
        _, align = encode_transcript([1, 2, 3, 4, 5], CFG)
        f = CFG.frames_per_symbol
        for i, span in enumerate(align.word_spans):
            assert (span.start, span.end) == (f * i, f * (i + 1))

    def test_round_trip_identity_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            transcript = list(rng.integers(0, CFG.alphabet_size, size=rng.integers(1, 25)))
            tokens, _ = encode_transcript(transcript, CFG)
            assert decode_tokens(tokens, CFG).symbols == transcript

    def test_round_trip_with_jitter_still_exact(self):
        """Jitter only touches texture codebooks; codebooks 1-2 stay clean."""
        rng = np.random.default_rng(1)
        transcript = list(rng.integers(0, CFG.alphabet_size, size=12))
        clean, _ = encode_transcript(transcript, CFG)
        jittered, _ = encode_transcript(transcript, CFG, np.random.default_rng(5))
        assert np.array_equal(clean.frames[:, :2], jittered.frames[:, :2])
        assert decode_tokens(jittered, CFG).symbols == transcript

    def test_unknown_symbol_rejected(self):
        with pytest.raises(VocabularyError):
            encode_transcript([CFG.alphabet_size], CFG)

    def test_single_frame_corruption_costs_at_most_one_symbol(self):
        rng = np.random.default_rng(2)
        transcript = list(rng.integers(0, CFG.alphabet_size, size=10))
        tokens, _ = encode_transcript(transcript, CFG)
        for frame in range(tokens.num_frames):
            corrupted = tokens.frames.copy()
            corrupted[frame] = (corrupted[frame] + 97) % CFG.codebook_size
            out = decode_tokens(
                CodecMatrix(corrupted, CFG.frame_rate, CFG.codebook_sizes), CFG
            ).symbols
            errors = sum(1 for a, b in zip(out, transcript) if a != b)
            assert errors <= 1

    def test_partial_tail_flagged(self):
        tokens, _ = encode_transcript([3, 4], CFG)
        cut = CodecMatrix(tokens.frames[:-1], CFG.frame_rate, CFG.codebook_sizes)
        result = decode_tokens(cut, CFG)
        assert result.partial_tail
        assert result.symbols == [3, 4]  # 3 of 4 frames still out-vote any imposter

    def test_invertible_tables_are_injective(self):
        tables = codebook_tables(CFG)
        for k in range(2):
            flat = tables[k].ravel()
            assert len(set(flat.tolist())) == flat.size


class TestRender:
    def test_empty_matrix_empty_waveform(self):
        tokens, _ = encode_transcript([], CFG)
        assert len(render_waveform(tokens, CFG)) == 0

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
        tokens, _ = encode_transcript([1, 2, 3], CFG)
        a = render_waveform(tokens, CFG)
        b = render_waveform(tokens, CFG)
        assert np.array_equal(a, b)

    def test_wav_writing_round_trip(self, tmp_path):
        import wave

        tokens, _ = encode_transcript([5, 6], CFG)
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

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = gen_corpus(8, (5, 8), CFG, seed=7)
        write_corpus(tmp_path / "a", corpus, CFG)
        write_corpus(tmp_path / "b", corpus, CFG)
        for name in ("manifest.jsonl", "tokens.jsonl", "codec_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
