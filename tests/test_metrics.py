"""Metric tests against closed forms and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_infill.errors import InvalidInputError
from codec_infill.infer import apply_script, diff_transcripts
from codec_infill.metrics import (
    MCD_SCALE,
    aligned_distance,
    dtw_align,
    energy_track,
    f0_track,
    levenshtein,
    mcd,
    mfcc,
    symbol_error_rate,
)
from codec_infill.synthcodec import ToyCodecConfig, encode_transcript, frequency_tables, render_waveform
from codec_infill.tokens import CodecMatrix

from helpers import levenshtein_oracle

SR = 16000


def sinusoid(freq, seconds=0.5, amp=1.0):
    t = np.arange(int(SR * seconds)) / SR
    return amp * np.sin(2 * np.pi * freq * t)


def brute_force_dtw(local):
    """Exhaustive enumeration of all monotone paths (oracle)."""
    n, m = local.shape
    best = [np.inf]

    def walk(i, j, acc):
        acc += local[i, j]
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


class TestDtw:
    def test_identical_sequences_diagonal_zero(self):
        a = np.arange(12, dtype=float).reshape(6, 2)
        path, cost = dtw_align(a, a)
        assert cost == 0.0
        assert path == [(i, i) for i in range(6)]

    def test_single_frame_expansion(self):
        path, cost = dtw_align(np.zeros(1), np.zeros(3))
        assert cost == 0.0
        assert path == [(0, 0), (0, 1), (0, 2)]

    def test_random_5x7_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.standard_normal((5, 3))
            b = rng.standard_normal((7, 3))
            _, cost = dtw_align(a, b)
            local = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
            assert cost == pytest.approx(brute_force_dtw(local), rel=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            dtw_align(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_cost_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((6, 2)), rng.standard_normal((9, 2))
        _, cab = dtw_align(a, b)
        _, cba = dtw_align(b, a)
        assert cab == pytest.approx(cba, rel=1e-12)


class TestMfcc:
    def test_zero_signal_hits_log_floor(self):
        out = mfcc(np.zeros(SR // 4), SR)
        assert out.shape[1] == 13
        # log of the constant floor has zero energy outside coefficient 0
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_amplitude_scaling_leaves_coefficients_1_to_13(self):
        """Scaling shifts only the excluded gain coefficient: log(c*M) = log c + log M."""
        rng = np.random.default_rng(2)
        wav = rng.standard_normal(SR // 2)  # noise keeps all mel bands off the floor
        base = mfcc(wav, SR)
        scaled = mfcc(3.7 * wav, SR)
        np.testing.assert_allclose(scaled, base, atol=1e-6)

    def test_stationary_sinusoid_is_stationary(self):
        # 200 Hz advances an integer number of cycles per 160-sample hop,
        # so the framed signal is exactly stationary
        out = mfcc(sinusoid(200.0), SR)
        deltas = np.abs(np.diff(out[1:], axis=0)).max()
        assert deltas < 1e-3

    def test_too_short_input_rejected(self):
        with pytest.raises(InvalidInputError):
            mfcc(np.zeros(100), SR)


class TestMcd:
    def test_identity_is_zero(self):
        m = np.random.default_rng(3).standard_normal((20, 13))
        assert mcd(m, m) == 0.0

    def test_constant_offset_closed_form(self):
        """Offset 1 in all 13 coefficients: (10/ln 10) * sqrt(13/2)."""
        base = np.tile(np.linspace(-1, 1, 13), (15, 1))
        value = mcd(base, base + 1.0)
        assert value == pytest.approx((10 / np.log(10)) * np.sqrt(13 / 2), abs=1e-9)

    def test_offset_linearity(self):
        base = np.tile(np.linspace(-1, 1, 13), (15, 1))
        one = mcd(base, base + 1.0)
        two = mcd(base, base + 2.0)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((9, 13)), rng.standard_normal((12, 13))
        assert mcd(a, b) == pytest.approx(mcd(b, a), rel=1e-12)

    def test_monotone_under_noise_amplitude(self):
        """Mean MCD increases strictly along a 5-level noise ladder."""
        rng = np.random.default_rng(5)
        base = rng.standard_normal((30, 13))
        means = []
        for level in [0.05, 0.1, 0.2, 0.4, 0.8]:
            trials = [
                mcd(base, base + level * rng.standard_normal(base.shape)) for _ in range(20)
            ]
            means.append(np.mean(trials))
        assert all(b > a for a, b in zip(means, means[1:]))


class TestF0:
    @pytest.mark.parametrize("freq", [100.0, 220.0, 300.0, 500.0])
    def test_sinusoid_within_3_percent(self, freq):
        track = f0_track(sinusoid(freq), SR)
        voiced = track[track > 0]
        assert len(voiced) == len(track)
        assert np.all(np.abs(voiced - freq) <= 0.03 * freq)

    def test_zero_signal_unvoiced(self):
        track = f0_track(np.zeros(SR // 4), SR)
        np.testing.assert_array_equal(track, 0.0)

    @pytest.mark.parametrize("sample_rate", [16000, 24000, 48000])
    def test_rendered_codebook_1_tone_within_3_percent_at_the_codec_rate(self, sample_rate):
        """Frames of one repeated token render the codebook-1 tone alone; the rate comes from the codec."""
        codec = ToyCodecConfig(sample_rate=sample_rate, render_gains=(1.0, 0.0, 0.0, 0.0))
        tokens, _ = encode_transcript([0, 7, 29], codec)
        for frame in tokens.frames:
            matrix = CodecMatrix(np.tile(frame, (12, 1)), codec.frame_rate, codec.codebook_sizes)
            tone = frequency_tables(codec)[0][frame[0]]
            track = f0_track(render_waveform(matrix, codec), codec.sample_rate)
            assert np.all(np.abs(track - tone) <= 0.03 * tone), (tone, track)

    def test_rate_with_nyquist_at_or_below_the_f0_range_rejected(self):
        with pytest.raises(InvalidInputError, match="Nyquist"):
            f0_track(np.zeros(SR // 4), 1200)
        np.testing.assert_array_equal(f0_track(np.zeros(SR // 4), 1250), 0.0)

    def test_aligned_f0_distance_constant_offset(self):
        a = np.full(40, 220.0)
        b = np.full(40, 230.0)
        assert aligned_distance(a, b) == pytest.approx(10.0, abs=1e-6)


class TestEnergy:
    def test_zero_signal_all_zero(self):
        np.testing.assert_array_equal(energy_track(np.zeros(SR // 4)), 0.0)

    def test_amplitude_linearity(self):
        wav = sinusoid(220.0)
        one = energy_track(wav)
        two = energy_track(2.0 * wav)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-6)

    def test_stationary_sinusoid_constant_interior(self):
        e = energy_track(sinusoid(220.0))[1:-1]
        assert (e.max() - e.min()) / e.mean() < 0.01


class TestAlignedDistance:
    def test_identical_tracks_zero(self):
        t = np.linspace(0, 1, 30)
        assert aligned_distance(t, t) == 0.0

    def test_matches_brute_force_dtw_mean(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(5), rng.standard_normal(7)
        value = aligned_distance(a, b)
        local = np.abs(a[:, None] - b[None, :])
        path, cost = dtw_align(a, b)
        assert value == pytest.approx(np.mean([local[i, j] for i, j in path]), rel=1e-12)
        assert cost == pytest.approx(brute_force_dtw(local), rel=1e-12)

    def test_path_gather_equals_the_per_pair_loop(self):
        """Both distances read off the path as arrays equal the pair-by-pair sums bit for bit."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            dims = int(rng.integers(1, 14))
            a = rng.standard_normal((int(rng.integers(1, 12)), dims))
            b = rng.standard_normal((int(rng.integers(1, 12)), dims))
            path, _ = dtw_align(a, b)
            squared = [float(((a[i] - b[j]) ** 2).sum()) for i, j in path]
            assert aligned_distance(a, b) == np.mean([np.sqrt(v) for v in squared])
            assert mcd(a, b) == np.mean([MCD_SCALE * np.sqrt(0.5 * v) for v in squared])
            x, y = a[:, 0], b[:, 0]
            path, _ = dtw_align(x, y)
            assert aligned_distance(x, y) == np.mean([np.linalg.norm(x[i] - y[j]) for i, j in path])


class TestSymbolErrorRate:
    def test_identity(self):
        assert symbol_error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_substitution(self):
        assert symbol_error_rate(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(1 / 3)

    def test_empty_reference(self):
        assert symbol_error_rate([], [1, 2]) == 2.0

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            ref = list(rng.integers(0, 5, size=rng.integers(0, 12)))
            hyp = list(rng.integers(0, 5, size=rng.integers(0, 12)))
            assert levenshtein(ref, hyp) == levenshtein_oracle(ref, hyp)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        a=st.lists(st.sampled_from("abc"), max_size=12),
        b=st.lists(st.sampled_from("abc"), max_size=12),
    )
    def test_one_table_serves_distance_and_script(self, a, b):
        """Three symbols make ties between the edit steps common."""
        assert levenshtein(a, b) == levenshtein_oracle(a, b)
        assert apply_script(diff_transcripts(a, b), a, b) == b
