"""Signal metrics: DTW alignment, mel-cepstral distortion, F0, energy.

Generated speech rarely has the same length as the reference, so every
distance first aligns the two feature tracks with dynamic time warping
and then averages pointwise differences along the alignment path.
The sample rate is an argument of every feature that depends on it
(MFCC, F0); evaluation passes the codec's.
"""

import numpy as np

from codec_infill import (
    aligned_distance,
    dtw_align,
    energy_track,
    f0_track,
    mcd,
    mfcc,
    symbol_error_rate,
)

SR = 16000  # the rate the tones below are sampled at


def sinusoid(freq, seconds=0.5):
    t = np.arange(int(SR * seconds)) / SR
    return np.sin(2 * np.pi * freq * t)


# --- DTW stretches time monotonically ---------------------------------------
a = np.array([0.0, 1.0, 2.0, 3.0])
b = np.array([0.0, 1.0, 1.0, 2.0, 3.0])  # middle value lingers
path, cost = dtw_align(a, b)
print("DTW path:", path, "cost:", cost)

# --- MCD: zero iff identical, closed form under constant offsets ------------
m = np.tile(np.linspace(-1, 1, 13), (20, 1))
print("\nMCD(x, x) =", mcd(m, m))
print("MCD(x, x + 1) =", round(mcd(m, m + 1.0), 4), "(closed form 11.0724)")

# --- F0 tracking on pure tones ----------------------------------------------
print("\nF0 estimates:")
for freq in (100, 220, 300, 500):
    track = f0_track(sinusoid(freq), SR)
    print(f"  {freq:3d} Hz tone -> median {np.median(track[track > 0]):7.2f} Hz")
print("  silence      ->", f0_track(np.zeros(SR // 4), SR).max(), "(unvoiced)")
tone_24k = np.sin(2 * np.pi * 220 * np.arange(12000) / 24000)
print(f"  220 Hz tone sampled at 24 kHz -> median {np.median(f0_track(tone_24k, 24000)):.2f} Hz")

# --- energy doubles with amplitude ------------------------------------------
wav = sinusoid(220)
e1, e2 = energy_track(wav).mean(), energy_track(2 * wav).mean()
print(f"\nmean frame energy: {e1:.3f} -> {e2:.3f} after doubling amplitude")

# --- DTW-aligned track distances ---------------------------------------------
f_ref = np.full(40, 220.0)
f_gen = np.full(46, 230.0)  # longer AND offset
print("aligned F0 distance (+10 Hz, different lengths):",
      round(aligned_distance(f_ref, f_gen), 3))

# --- the desk-scale intelligibility stand-in ----------------------------------
print("\nsymbol error rate('a b c' vs 'a x c') =", round(symbol_error_rate(list("abc"), list("axc")), 3))
print("MFCC of a 1-second tone has shape", mfcc(sinusoid(200, 1.0), SR).shape)
