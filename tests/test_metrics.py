"""Metric tests against closed forms and brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import rfft
from scipy.signal import get_window

from codec_infill import metrics
from codec_infill.errors import InvalidInputError
from codec_infill.infer import diff_transcripts
from codec_infill.metrics import (
    FFT_SIZE,
    MCD_SCALE,
    WINDOW_LENGTH,
    aligned_distance,
    dtw_align,
    energy_track,
    f0_track,
    levenshtein,
    magnitude_spectrogram,
    mcd,
    mfcc,
    symbol_error_rate,
)
from codec_infill.synthcodec import ToyCodecConfig, encode_transcript, frequency_tables, render_waveform
from codec_infill.tokens import CodecMatrix

from helpers import apply_script, dtw_align_oracle, f0_track_oracle, levenshtein_oracle

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


@st.composite
def feature_pair(draw):
    """Two (length, dims) tracks of 1..40 frames; small integers make equal costs, so ties, common."""
    dims = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = st.integers(0, 3).map(float)
    else:
        values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    tracks = [
        draw(st.lists(st.lists(values, min_size=dims, max_size=dims), min_size=1, max_size=40))
        for _ in range(2)
    ]
    return [np.array(t) for t in tracks]


class TestDtwWavefront:
    """The anti-diagonal fill against the cell-by-cell loop it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(pair=feature_pair())
    def test_path_and_cost_equal_the_cell_loop(self, pair):
        a, b = pair
        path, cost = dtw_align(a, b)
        expected_path, expected_cost = dtw_align_oracle(a, b)
        assert path == expected_path
        assert cost == expected_cost and type(cost) is float

    def test_tie_between_up_and_left_steps_up(self):
        """At (2, 2) the diagonal predecessor costs 5 and the other two cost 3 each."""
        path, cost = dtw_align([3.0, 0.0, 3.0], [1.0, 3.0, 1.0])
        assert path == [(0, 0), (0, 1), (1, 2), (2, 2)]
        assert cost == 5.0
        assert (path, cost) == dtw_align_oracle([3.0, 0.0, 3.0], [1.0, 3.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        """Comparisons with NaN would steer the backtrack off the matrix; no metric input holds one."""
        with pytest.raises(InvalidInputError, match="not finite"):
            dtw_align([0.0, bad, 1.0], [0.0, 1.0])
        with pytest.raises(InvalidInputError, match="not finite"):
            dtw_align(np.zeros((2, 2)), [[0.0, 1.0], [bad, 0.0]])

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (9, 1), (2, 3), (3, 2)])
    def test_single_row_and_column_shapes(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        a, b = rng.integers(0, 2, (n, 2)).astype(float), rng.integers(0, 2, (m, 2)).astype(float)
        assert dtw_align(a, b) == dtw_align_oracle(a, b)

    @pytest.mark.parametrize(
        "n,m,dims",
        [
            (300, 257, 13),  # 9 rows a block, 34 blocks
            (600, 600, 1),  # 54 rows a block, 12 blocks
            (1, 3000, 13),  # one row, wider than a block
            (3000, 1, 13),  # 2520 rows a block, 2 blocks
            (710, 650, None),  # 1-D tracks, 50 rows a block, 15 blocks
        ],
    )
    @pytest.mark.parametrize("values", ["normal", "small integers"])
    def test_block_fill_equals_the_cube(self, n, m, dims, values):
        """Local distances filled block by block give the oracle's path and cost, the last block short."""
        block = max(1, metrics.DTW_BLOCK_CELLS // (m * (dims or 1)))
        assert n == 1 or n % block != 0
        rng = np.random.default_rng(n + m)
        shape_a, shape_b = ((n, dims), (m, dims)) if dims else ((n,), (m,))
        if values == "normal":
            a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        else:
            a, b = rng.integers(0, 3, shape_a).astype(float), rng.integers(0, 3, shape_b).astype(float)
        assert dtw_align(a, b) == dtw_align_oracle(a, b)

    @pytest.mark.parametrize("dims", [13, 1])
    def test_peak_memory_is_the_cost_matrix_plus_a_block(self, dims):
        """No (n, m, dims) cube: a 600 x 600 alignment peaks under 1.5 x its skewed cost matrix."""
        rng = np.random.default_rng(dims)
        a, b = rng.standard_normal((600, dims)), rng.standard_normal((600, dims))
        cost_bytes = (600 + 600 - 1) * (600 + 1) * 8
        tracemalloc.start()
        try:
            dtw_align(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * cost_bytes


class TestHannWindow:
    """The window is built with numpy, and scipy's ``get_window`` is its oracle."""

    def test_window_is_scipys_bit_for_bit(self):
        want = get_window("hann", WINDOW_LENGTH, fftbins=True)
        assert metrics._HANN.dtype == want.dtype
        assert np.array_equal(metrics._HANN.view(np.uint64), want.view(np.uint64))

    def test_window_is_read_only(self):
        assert not metrics._HANN.flags.writeable
        with pytest.raises(ValueError):
            metrics._HANN[0] = 1.0

    def test_spectrogram_equals_one_with_scipys_window(self):
        rng = np.random.default_rng(11)
        wav = sinusoid(220.0) + 0.1 * rng.standard_normal(int(SR * 0.5))
        window = get_window("hann", WINDOW_LENGTH, fftbins=True)
        want = np.abs(rfft(metrics._frame_signal(wav) * window, n=FFT_SIZE, axis=1))
        got = magnitude_spectrogram(wav)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
        tokens = encode_transcript([0, 7, 29], codec)
        for frame in tokens.frames:
            matrix = CodecMatrix(np.tile(frame, (12, 1)), codec.frame_rate, codec.codebook_sizes)
            tone = frequency_tables(codec)[0][frame[0]]
            track = f0_track(render_waveform(matrix, codec), codec.sample_rate)
            assert np.all(np.abs(track - tone) <= 0.03 * tone), (tone, track)

    @pytest.mark.parametrize("level", [0.1, 0.7, 123.456])
    def test_tone_on_a_constant_offset_keeps_its_pitch(self, level):
        track = f0_track(sinusoid(220.0, amp=0.01) + level, SR)
        assert np.all(np.abs(track - 220.0) <= 0.03 * 220.0)

    def test_rate_with_nyquist_at_or_below_the_f0_range_rejected(self):
        with pytest.raises(InvalidInputError, match="Nyquist"):
            f0_track(np.zeros(SR // 4), 1200)
        np.testing.assert_array_equal(f0_track(np.zeros(SR // 4), 1250), 0.0)

    def test_aligned_f0_distance_constant_offset(self):
        a = np.full(40, 220.0)
        b = np.full(40, 230.0)
        assert aligned_distance(a, b) == pytest.approx(10.0, abs=1e-6)


def _segment(draw, sample_rate, length):
    """``length`` samples of silence or a sum of tones, white noise, a constant offset and a rendering."""
    wav = np.zeros(length)
    t = np.arange(length) / sample_rate
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for part in draw(st.lists(st.sampled_from(["tone", "noise", "offset", "render"]), max_size=3)):
        amp = draw(st.floats(0.01, 1.0))
        if part == "tone":
            wav += amp * np.sin(2 * np.pi * draw(st.floats(40.0, 1000.0)) * t + draw(st.floats(0.0, 6.3)))
        elif part == "noise":
            wav += amp * rng.standard_normal(length)
        elif part == "offset":
            wav += amp
        else:
            codec = ToyCodecConfig(sample_rate=sample_rate)
            symbols = draw(st.lists(st.integers(0, codec.alphabet_size - 1), min_size=1, max_size=8))
            tokens = encode_transcript(symbols, codec)
            rendering = render_waveform(tokens, codec)
            wav += np.resize(rendering, length)
    return wav


@st.composite
def mixed_signal(draw, sample_rate):
    lengths = draw(st.lists(st.integers(1, sample_rate // 4), min_size=1, max_size=4))
    wav = np.concatenate([_segment(draw, sample_rate, n) for n in lengths])
    return np.pad(wav, (0, max(0, WINDOW_LENGTH - len(wav))))


class TestF0AllFrames:
    """The all-frames analysis against the frame-by-frame loop it replaced."""

    @pytest.mark.parametrize("sample_rate", [16000, 24000])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_tracks_equal_the_frame_loop(self, sample_rate, data):
        wav = data.draw(mixed_signal(sample_rate))
        np.testing.assert_array_equal(f0_track(wav, sample_rate), f0_track_oracle(wav, sample_rate))

    def test_constant_offset_equals_the_frame_loop(self):
        """A constant offset reads unvoiced in both: mean removal leaves it only rounding residue,
        whose flat autocorrelation would otherwise read as the top of the range."""
        for sample_rate in (16000, 24000):
            for level in (0.1, 0.3, 1 / 3, 0.7, 123.456, -2.2, 0.5):
                wav = np.full(4000, level)
                np.testing.assert_array_equal(f0_track(wav, sample_rate), 0.0)
                np.testing.assert_array_equal(f0_track_oracle(wav, sample_rate), 0.0)

    def test_too_short_input_rejected(self):
        with pytest.raises(InvalidInputError, match="shorter than one window"):
            f0_track(np.zeros(WINDOW_LENGTH - 1), SR)

    @pytest.mark.xfail(strict=True, reason="f0_track reads a subharmonic of four-codebook renderings")
    def test_four_codebook_rendering_reads_the_codebook_1_tone(self):
        """Constant-token renderings of all 120 (symbol, phase) frames of symbols 0-29 at 16 kHz."""
        codec = ToyCodecConfig(sample_rate=SR)
        tokens = encode_transcript(list(range(codec.alphabet_size)), codec)
        misses = []
        for frame in tokens.frames:
            matrix = CodecMatrix(np.tile(frame, (12, 1)), codec.frame_rate, codec.codebook_sizes)
            tone = frequency_tables(codec)[0][frame[0]]
            track = f0_track(render_waveform(matrix, codec), codec.sample_rate)
            if not np.all(np.abs(track - tone) <= 0.03 * tone):
                misses.append((tone, float(np.median(track))))
        assert not misses, f"{len(misses)} of {len(tokens.frames)} frames miss the tone: {misses[:5]}"


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
