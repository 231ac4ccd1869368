"""Objective signal metrics: DTW alignment, MCD, F0 and energy distances.

Generated and reference signals can differ in length, so every distance
first time-aligns the two feature tracks with dynamic time warping
(symmetric step set {(1,0), (0,1), (1,1)}, Euclidean local distance) and
then averages the pointwise measure over the pairs of the alignment path.

The constants below are the one copy of the analysis settings: Hann
window of 640 samples, hop 160, FFT 1024, 40 HTK-spaced triangular mel
bands, log floor 1e-10, cepstral coefficients 1..13 (the gain coefficient
0 is excluded), and an F0 search by normalized autocorrelation over
80..600 Hz with a 0.3 voicing threshold; energy is the RMS of the
magnitude spectrogram per frame.  Window, hop and FFT size count samples;
the sample rate is an argument of each function whose result depends on
it, and evaluation passes the codec's.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct, rfft
from scipy.signal import get_window

from .errors import InvalidInputError

WINDOW_LENGTH = 640
HOP = 160
FFT_SIZE = 1024
MEL_BANDS = 40
MFCC_ORDER = 13
LOG_FLOOR = 1e-10
F0_RANGE_HZ = (80, 600)
VOICING_THRESHOLD = 0.3
MCD_SCALE = 10.0 / np.log(10.0)


# ---------------------------------------------------------------------------
# Dynamic time warping
# ---------------------------------------------------------------------------


def _pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _as_feature_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return x


def dtw_align(a, b) -> tuple[list[tuple[int, int]], float]:
    """Minimal-cost monotone alignment of two feature sequences.

    The local distance is Euclidean.  Returns the path as (i, j) pairs
    from (0, 0) to (n-1, m-1), and its total cost.  Backtracking prefers
    the diagonal step on ties, so identical sequences align along the
    diagonal.
    """
    a_mat, b_mat = _as_feature_matrix(a), _as_feature_matrix(b)
    n, m = len(a_mat), len(b_mat)
    if n == 0 or m == 0:
        raise InvalidInputError("cannot align an empty sequence")
    local = _pairwise_euclidean(a_mat, b_mat)
    cost = np.full((n, m), np.inf)
    cost[0, 0] = local[0, 0]
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            best = np.inf
            if i > 0 and j > 0:
                best = cost[i - 1, j - 1]
            if i > 0:
                best = min(best, cost[i - 1, j])
            if j > 0:
                best = min(best, cost[i, j - 1])
            cost[i, j] = local[i, j] + best
    path = []
    i, j = n - 1, m - 1
    while True:
        path.append((i, j))
        if i == 0 and j == 0:
            break
        moves = []
        if i > 0 and j > 0:
            moves.append((cost[i - 1, j - 1], (i - 1, j - 1)))
        if i > 0:
            moves.append((cost[i - 1, j], (i - 1, j)))
        if j > 0:
            moves.append((cost[i, j - 1], (i, j - 1)))
        i, j = min(moves, key=lambda t: t[0])[1]
    path.reverse()
    return path, float(cost[n - 1, m - 1])


# ---------------------------------------------------------------------------
# Spectral front-end
# ---------------------------------------------------------------------------


def _frame_signal(wav) -> np.ndarray:
    wav = np.asarray(wav, dtype=np.float64)
    if len(wav) < WINDOW_LENGTH:
        raise InvalidInputError(f"signal shorter than one window ({WINDOW_LENGTH} samples)")
    count = 1 + (len(wav) - WINDOW_LENGTH) // HOP
    idx = np.arange(WINDOW_LENGTH)[None, :] + HOP * np.arange(count)[:, None]
    return wav[idx]


def magnitude_spectrogram(wav) -> np.ndarray:
    """(frames, bins) magnitudes of the Hann-windowed short-time FFT."""
    window = get_window("hann", WINDOW_LENGTH, fftbins=True)
    return np.abs(rfft(_frame_signal(wav) * window, n=FFT_SIZE, axis=1))


def mel_filterbank(sample_rate: int) -> np.ndarray:
    """HTK-style triangular filters up to Nyquist, (MEL_BANDS, fft bins)."""
    nyquist = sample_rate / 2.0
    mels = np.linspace(0.0, 2595.0 * np.log10(1.0 + nyquist / 700.0), MEL_BANDS + 2)
    points = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    lo, mid, hi = points[:-2, None], points[1:-1, None], points[2:, None]
    freqs = np.linspace(0.0, nyquist, FFT_SIZE // 2 + 1)
    return np.clip(np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)), 0.0, None)


def mfcc(wav, sample_rate: int) -> np.ndarray:
    """Cepstral coefficients 1..MFCC_ORDER per frame, (frames, order)."""
    mel = magnitude_spectrogram(wav) @ mel_filterbank(sample_rate).T
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    ceps = dct(logmel, type=2, norm="ortho", axis=1)
    return ceps[:, 1 : MFCC_ORDER + 1]


def energy_track(wav) -> np.ndarray:
    """Per-frame RMS over the frequency bins of the magnitude spectrogram."""
    mag = magnitude_spectrogram(wav)
    return np.sqrt((mag * mag).mean(axis=1))


def f0_track(wav, sample_rate: int) -> np.ndarray:
    """Per-frame fundamental frequency; 0 marks unvoiced frames.

    Normalized autocorrelation over the lag range for F0_RANGE_HZ;
    frames whose peak falls below the voicing threshold report 0.  Among
    the local maxima of the autocorrelation that come within 5% of the
    global peak, the smallest lag wins, which resolves period multiples
    to the fundamental.  A rate whose Nyquist frequency is not above the
    top of the range raises InvalidInputError.
    """
    f_min, f_max = F0_RANGE_HZ
    if not f_max < sample_rate / 2:
        raise InvalidInputError(
            f"sample rate {sample_rate} Hz puts Nyquist at or below the {f_max} Hz top of the F0 range"
        )
    frames = _frame_signal(wav)
    lag_min = int(np.ceil(sample_rate / f_max))
    lag_max = min(int(np.floor(sample_rate / f_min)), WINDOW_LENGTH - 1)
    out = np.zeros(len(frames))
    for i, frame in enumerate(frames):
        frame = frame - frame.mean()
        energy = float(frame @ frame)
        if energy <= 0.0:
            continue
        raw = np.correlate(frame, frame, mode="full")[WINDOW_LENGTH - 1 :]
        forward = np.concatenate([[0.0], np.cumsum(frame * frame)])
        tail = energy - forward  # sum of squares from each lag onward
        lags = np.arange(lag_min, lag_max + 1)
        e1 = tail[0] - tail[WINDOW_LENGTH - lags]  # first WINDOW_LENGTH - lag samples
        e2 = tail[lags]
        denom = np.sqrt(e1 * e2)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 0, raw[lags] / denom, 0.0)
        peak = float(r.max())
        if peak < VOICING_THRESHOLD:
            continue
        left = np.concatenate([[-np.inf], r[:-1]])
        right = np.concatenate([r[1:], [-np.inf]])
        is_local_max = (r >= left) & (r >= right)
        candidates = np.nonzero(is_local_max & (r >= max(VOICING_THRESHOLD, 0.95 * peak)))[0]
        best_lag = int(lags[candidates[0]])
        out[i] = sample_rate / best_lag
    return out


# ---------------------------------------------------------------------------
# Path-aggregated distances
# ---------------------------------------------------------------------------


def _squared_path_distances(feat_ref, feat_gen) -> np.ndarray:
    """Squared Euclidean distance between the tracks' frames at each pair of their DTW path."""
    ref, gen = _as_feature_matrix(feat_ref), _as_feature_matrix(feat_gen)
    path, _ = dtw_align(ref, gen)
    i, j = np.array(path).T
    diff = ref[i] - gen[j]
    return (diff * diff).sum(axis=1)


def aligned_distance(feat_ref, feat_gen) -> float:
    """DTW-align two tracks, then mean Euclidean distance over the path."""
    return float(np.mean(np.sqrt(_squared_path_distances(feat_ref, feat_gen))))


def mcd(mfcc_ref, mfcc_gen) -> float:
    """Mel-cepstral distortion averaged along the DTW path.

    Per aligned pair: (10 / ln 10) * sqrt(0.5 * sum_i (m_g_i - m_r_i)^2)
    over the kept cepstral coefficients.
    """
    return float(np.mean(MCD_SCALE * np.sqrt(0.5 * _squared_path_distances(mfcc_ref, mfcc_gen))))


def f0_distance(wav_ref, wav_gen, sample_rate: int) -> float:
    return aligned_distance(f0_track(wav_ref, sample_rate), f0_track(wav_gen, sample_rate))


def energy_distance(wav_ref, wav_gen) -> float:
    return aligned_distance(energy_track(wav_ref), energy_track(wav_gen))


def mcd_distance(wav_ref, wav_gen, sample_rate: int) -> float:
    return mcd(mfcc(wav_ref, sample_rate), mfcc(wav_gen, sample_rate))


# ---------------------------------------------------------------------------
# Edit distance
# ---------------------------------------------------------------------------


def edit_distance_table(ref, hyp) -> np.ndarray:
    """Unit-cost edit distance of every prefix pair, (len(ref) + 1, len(hyp) + 1).

    Each row follows from the one above in array operations: the
    substitution and deletion steps elementwise, then the chain of
    insertions along the row as a running minimum of ``row[j] - j``.
    """
    n, m = len(ref), len(hyp)
    cols = np.arange(m + 1, dtype=np.int64)
    mismatch = np.array([[r != h for h in hyp] for r in ref], dtype=np.int64).reshape(n, m)
    table = np.empty((n + 1, m + 1), dtype=np.int64)
    table[0] = cols
    for i in range(1, n + 1):
        above = table[i - 1]
        row = table[i]
        row[0] = i
        row[1:] = np.minimum(above[:-1] + mismatch[i - 1], above[1:] + 1)
        table[i] = np.minimum.accumulate(row - cols) + cols
    return table


def levenshtein(ref, hyp) -> int:
    return int(edit_distance_table(ref, hyp)[-1, -1])


def symbol_error_rate(ref, hyp) -> float:
    """Edit distance between transcripts over max(1, |ref|)."""
    return levenshtein(ref, hyp) / max(1, len(ref))
