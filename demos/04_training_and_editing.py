"""Train a small infilling model, then edit an utterance and continue one.

The model sees [transcript; stacked tokens] and learns next-step
prediction over all K codebooks at once.  Editing then works by masking
the frames of the changed words (with a margin), letting the model
regenerate them conditioned on the TARGET transcript, and splicing the
result back.  Because the toy codec is invertible we can check the edit
by decoding the output tokens and comparing symbol sequences exactly.

Runs in a couple of minutes on a laptop-class CPU.
"""

import numpy as np

from codec_infill import (
    EditConfig,
    ModelConfig,
    SamplingConfig,
    TrainConfig,
    SchedulerConfig,
    ToyCodecConfig,
    TransformerDecoder,
    decode_tokens,
    edit_speech,
    new_model,
    train_loop,
    zero_shot_tts,
)
from codec_infill.synthcodec import exact_alignment, gen_corpus
from codec_infill.tokens import CodecMatrix

codec = ToyCodecConfig()
corpus = gen_corpus(120, (5, 12), codec, seed=3, num_validation=20)
train_utts = [u for u in corpus if u.split == "train"]

model_cfg = ModelConfig(
    num_layers=2, hidden_dim=96, ffn_dim=384, num_heads=4,
    codebook_sizes=codec.codebook_sizes, text_vocab_size=codec.alphabet_size,
    dtype="float32",
)
state = new_model(model_cfg, seed=0)
print(f"model: {sum(p.size for p in state.params.values()):,} parameters")

state, metrics = train_loop(
    train_utts,
    state,
    TrainConfig(batch_frame_budget=2048, total_steps=400, seed=0),
    SchedulerConfig(base_lr=4e-3),
)
print(f"trained 400 steps: loss {metrics[0]['loss']:.2f} -> {metrics[-1]['loss']:.3f}")

decoder = TransformerDecoder(state)
sampling = SamplingConfig(seed=1, max_generated_steps=80)

# --- speech editing: substitute one word ------------------------------------
utt = train_utts[3]
target = list(utt.transcript)
target[2] = (target[2] + 5) % codec.alphabet_size
align = exact_alignment(len(utt.transcript), codec)
edited, report = edit_speech(
    decoder, model_cfg, utt.tokens, utt.transcript, target, align,
    EditConfig(), sampling,
)
print("\nediting", utt.id)
print("  original:", utt.transcript)
print("  target:  ", target)
print("  decoded: ", decode_tokens(edited, codec))
print("  candidate lengths:", report.candidate_lengths, "-> chose", report.chosen_index)

# --- zero-shot continuation: prompt + target text ----------------------------
utt = train_utts[5]
half = len(utt.transcript) // 2
prompt = CodecMatrix(
    utt.tokens.frames[: codec.frames_per_symbol * half], codec.frame_rate, codec.codebook_sizes
)
out, tts_report = zero_shot_tts(
    decoder, model_cfg, prompt, utt.transcript[:half], utt.transcript[half:],
    EditConfig(), sampling,
)
print("\ncontinuation of", utt.id)
print("  full transcript:  ", utt.transcript)
print("  decoded output:   ", decode_tokens(out, codec))
print("  sample lengths:", tts_report.candidate_lengths, "-> shortest is", tts_report.chosen_index)
