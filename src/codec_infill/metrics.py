"""Objective signal metrics: DTW alignment, MCD, F0 and energy distances.

Generated and reference signals can differ in length, so every distance
first time-aligns the two feature tracks with dynamic time warping
(symmetric step set {(1,0), (0,1), (1,1)}, Euclidean local distance) and
then averages the pointwise measure over the pairs of the alignment path.
The local distances go into the cost matrix one bounded block of rows at
a time, so an alignment holds the cost matrix plus one block, whatever
the length of the clips.

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

from .errors import InvalidInputError

WINDOW_LENGTH = 640
HOP = 160
FFT_SIZE = 1024
MEL_BANDS = 40
MFCC_ORDER = 13
LOG_FLOOR = 1e-10
F0_RANGE_HZ = (80, 600)
VOICING_THRESHOLD = 0.3
# a frame's energy after mean removal at or below this share of its energy before is rounding residue
ROUNDING_ENERGY = (WINDOW_LENGTH * np.finfo(np.float64).eps) ** 2
MCD_SCALE = 10.0 / np.log(10.0)
# feature differences per block of rows in the DTW local-distance fill
DTW_BLOCK_CELLS = 2**15


def _hann_window() -> np.ndarray:
    """The periodic Hann window of WINDOW_LENGTH samples, read-only.

    The same operations in the same order as scipy's
    ``get_window("hann", WINDOW_LENGTH, fftbins=True)``, so the values
    are bit-equal to it, without importing ``scipy.signal``.
    """
    fac = np.linspace(-np.pi, np.pi, WINDOW_LENGTH + 1)
    w = np.zeros(WINDOW_LENGTH + 1)
    w += 0.5 * np.cos(0 * fac)
    w += 0.5 * np.cos(fac)
    w = w[:-1]
    w.flags.writeable = False
    return w


_HANN = _hann_window()


# ---------------------------------------------------------------------------
# Dynamic time warping
# ---------------------------------------------------------------------------


def _as_feature_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return x


def dtw_align(a, b) -> tuple[list[tuple[int, int]], float]:
    """Minimal-cost monotone alignment of two feature sequences.

    The local distance is Euclidean.  Returns the path as (i, j) pairs
    from (0, 0) to (n-1, m-1), and its total cost.  An empty sequence or
    a NaN or infinite feature raises InvalidInputError.  Backtracking prefers
    the diagonal step on ties, then (i-1, j), then (i, j-1), so identical
    sequences align along the diagonal.

    The accumulated cost fills one anti-diagonal d = i + j at a time
    (Sakoe & Chiba 1978): a cell needs only the two diagonals before its
    own.  The matrix is stored skewed: with i indexing the shorter
    sequence (``a`` unless ``b`` is shorter) and j the other, cell (i, j)
    sits at ``cost[i + j, i + 1]``, with inf in column 0 and in every slot
    outside the matrix, so the three predecessors of a whole diagonal are
    three contiguous slices, and the matrix is ``(n + m - 1) x (min(n, m)
    + 1)``.  Each cell is the same ``local + min(predecessors)`` as in a
    cell-by-cell fill, so the cost is bit-equal to that fill's; when i
    indexes ``b``, the backtrack breaks an up/left tie the other way, so
    it takes the same path.

    The local distances go into the skewed matrix one block of rows of
    the shorter sequence at a time, at most DTW_BLOCK_CELLS feature
    differences (or one row) per block, so the fill holds the cost matrix
    plus one bounded block, never an (n, m, dims) cube.  Each cell is
    still one sum over its own ``dims`` squared differences, bit-equal to
    the all-pairs expression.
    """
    a_mat, b_mat = _as_feature_matrix(a), _as_feature_matrix(b)
    n, m = len(a_mat), len(b_mat)
    if n == 0 or m == 0:
        raise InvalidInputError("cannot align an empty sequence")
    if not (np.isfinite(a_mat).all() and np.isfinite(b_mat).all()):
        raise InvalidInputError("cannot align features that are not finite")
    swapped = n > m
    if swapped:  # i runs along b, j along a
        a_mat, b_mat, n, m = b_mat, a_mat, m, n
    cost = np.full((n + m - 1, n + 1), np.inf)
    block = max(1, DTW_BLOCK_CELLS // (m * a_mat.shape[1]))
    for lo in range(0, n, block):
        diff = a_mat[lo : lo + block, None, :] - b_mat[None, :, :]
        for i, row in enumerate(np.sqrt((diff * diff).sum(axis=-1)), start=lo):
            cost[i : i + m, i + 1] = row  # local distances of row i, skewed
    best = np.empty(n)
    for d in range(1, n + m - 1):
        # (i, j-1) and (i-1, j) lie on diagonal d-1, (i-1, j-1) on d-2
        np.minimum(cost[d - 1, 1:], cost[d - 1, :-1], out=best)
        if d > 1:
            np.minimum(best, cost[d - 2, :-1], out=best)
        np.add(cost[d, 1:], best, out=cost[d, 1:])
    # a memoryview reads one cell as a Python float without converting the whole matrix
    flat, width = cost.ravel().data, n + 1
    path = []
    i, j = n - 1, m - 1
    while True:
        path.append((j, i) if swapped else (i, j))
        if i == 0 and j == 0:
            break
        up = (i + j - 1) * width + i  # (i-1, j); (i, j-1) is the next slot of the same diagonal
        diagonal = flat[up - width] if i + j > 1 else np.inf
        if diagonal <= flat[up] and diagonal <= flat[up + 1]:
            i, j = i - 1, j - 1
        elif flat[up] < flat[up + 1] or (flat[up] == flat[up + 1] and not swapped):  # a tie steps back along a
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path, flat[(n + m - 2) * width + n]


# ---------------------------------------------------------------------------
# Spectral front-end
# ---------------------------------------------------------------------------


def _frame_signal(wav) -> np.ndarray:
    wav = np.asarray(wav, dtype=np.float64)
    if len(wav) < WINDOW_LENGTH:
        raise InvalidInputError(f"signal shorter than one window ({WINDOW_LENGTH} samples)")
    return np.lib.stride_tricks.sliding_window_view(wav, WINDOW_LENGTH)[::HOP]  # read-only view


def magnitude_spectrogram(wav) -> np.ndarray:
    """(frames, bins) magnitudes of the Hann-windowed short-time FFT."""
    return np.abs(rfft(_frame_signal(wav) * _HANN, n=FFT_SIZE, axis=1))


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

    A frame is unvoiced, too, when its energy after mean removal is at
    most ``ROUNDING_ENERGY`` times its energy before: the rounding error
    of a mean over one window.  A constant offset leaves only that
    residue, a near-constant whose normalized autocorrelation is ~1 at
    every lag, so it would read as voiced at the top of the range.

    All frames are analysed at once as (frames, lags) arrays.  Each lag's
    autocorrelation, and each frame's energy, is one dot product per
    frame through ``matmul``, the same BLAS dot that ``np.correlate`` and
    ``frame @ frame`` run on one frame, so every value, and with it every
    decision, equals the frame-by-frame analysis.  An FFT autocorrelation
    is cheaper but differs by rounding, which flips the lag on flat
    autocorrelations such as a constant offset.

    Known limitation: on the codec's default four-codebook renderings the
    summed tones often repeat at a common sub-multiple of the codebook-1
    tone, and the track reads that subharmonic (e.g. 392 Hz as 195 Hz).
    """
    f_min, f_max = F0_RANGE_HZ
    if not f_max < sample_rate / 2:
        raise InvalidInputError(
            f"sample rate {sample_rate} Hz puts Nyquist at or below the {f_max} Hz top of the F0 range"
        )
    signal = _frame_signal(wav)
    frames = signal - signal.mean(axis=1, keepdims=True)
    lag_min = int(np.ceil(sample_rate / f_max))
    lag_max = min(int(np.floor(sample_rate / f_min)), WINDOW_LENGTH - 1)
    lags = np.arange(lag_min, lag_max + 1)
    rows = frames[:, None, :]
    energy = (rows @ frames[:, :, None])[:, 0, 0]
    signal_energy = (signal[:, None, :] @ signal[:, :, None])[:, 0, 0]
    raw = np.stack([(rows[:, :, lag:] @ frames[:, : WINDOW_LENGTH - lag, None])[:, 0, 0] for lag in lags], axis=1)
    forward = np.concatenate([np.zeros((len(frames), 1)), np.cumsum(frames * frames, axis=1)], axis=1)
    tail = energy[:, None] - forward  # sum of squares from each lag onward
    e1 = tail[:, :1] - tail[:, WINDOW_LENGTH - lags]  # first WINDOW_LENGTH - lag samples
    e2 = tail[:, lags]
    denom = np.sqrt(e1 * e2)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, raw / denom, 0.0)
    peak = r.max(axis=1)
    edge = np.full((len(r), 1), -np.inf)
    is_local_max = (r >= np.hstack([edge, r[:, :-1]])) & (r >= np.hstack([r[:, 1:], edge]))
    candidates = is_local_max & (r >= np.maximum(VOICING_THRESHOLD, 0.95 * peak)[:, None])
    voiced = (energy > ROUNDING_ENERGY * signal_energy) & (peak >= VOICING_THRESHOLD)
    return np.where(voiced, sample_rate / lags[candidates.argmax(axis=1)], 0.0)


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
