"""The synthetic invertible codec that makes every pipeline stage checkable.

Real neural codecs are learned and lossy, so "did the edit preserve the
rest of the utterance?" is hard to verify.  The toy codec replaces the
tokenizer with a deterministic, exactly invertible mapping: each
transcript symbol becomes a fixed block of frames, word alignments are
exact by construction, and decoding recovers the transcript perfectly --
so editing correctness reduces to exact symbol comparisons.
"""

import numpy as np

from codec_infill import ToyCodecConfig, decode_tokens, encode_transcript, render_waveform
from codec_infill.synthcodec import exact_alignment, gen_corpus, write_wav
from codec_infill.tokens import CodecMatrix

cfg = ToyCodecConfig()
print(f"alphabet {cfg.alphabet_size}, {cfg.frames_per_symbol} frames/symbol, "
      f"{cfg.num_codebooks} codebooks of {cfg.codebook_size}")

# --- encode / decode is the identity ---------------------------------------
transcript = [4, 17, 2, 29, 8, 8, 13]
tokens = encode_transcript(transcript, cfg)
print("\ntranscript:", transcript)
print("tokens shape:", tokens.frames.shape)
alignment = exact_alignment(len(transcript), cfg)
print("word alignment:", [(s.start, s.end) for s in alignment.word_spans])
decoded = decode_tokens(tokens, cfg)
print("decoded:  ", decoded, "(exact)" if decoded == transcript else "(MISMATCH)")

# --- corruption stays local to one symbol block -----------------------------
corrupted = tokens.frames.copy()
corrupted[9] = (corrupted[9] + 111) % cfg.codebook_size
out = decode_tokens(CodecMatrix(corrupted, cfg.frame_rate, cfg.codebook_sizes), cfg)
errors = sum(a != b for a, b in zip(out, transcript))
print(f"\ncorrupting one frame: {errors} symbol error(s) "
      "(majority vote inside the 4-frame block absorbs it)")

# --- rendering gives real waveforms for the signal metrics ------------------
wav = render_waveform(tokens, cfg)
print(f"\nrendered {len(wav)} samples at {cfg.sample_rate} Hz "
      f"({len(wav) / cfg.sample_rate:.2f} s)")
write_wav("demo_utterance.wav", wav, cfg.sample_rate)
print("wrote demo_utterance.wav")

# --- corpora are deterministic given the seed --------------------------------
corpus = gen_corpus(5, (5, 10), cfg, seed=42, num_validation=1)
for u in corpus:
    print(f"  {u.id} [{u.split}] {u.transcript}")
