"""Token-infilling codec language model toolkit.

A desk-scale system for editing and continuing discrete codec token
sequences: the causal-masking + delayed-stacking rearrangement algebra,
a small numpy decoder-only transformer with per-codebook heads, an
Eden-scheduled training loop, margin-swept editing and shortest-of-N
continuation pipelines, DTW-aligned signal metrics, and a synthetic,
exactly invertible toy codec that makes every pipeline stage verifiable
against exact oracles.
"""

from .tokens import EMPTY, EOS, EOU, Alignment, CodecMatrix, Span, SpecialToken, mask_marker
from .rearrange import (
    MaskSamplingConfig,
    RearrangedSequence,
    causal_mask,
    delay_stack,
    place_spans,
    sample_mask_spans,
    splice,
    stack_span,
    uncausal_mask,
    unstack,
    unstack_span,
)
from .model import ModelConfig, ModelState, TransformerDecoder, new_model
from .train import SchedulerConfig, TrainConfig, eden_lr, make_batch, train_loop
from .checkpoint import load_checkpoint, save_checkpoint
from .infer import (
    EditConfig,
    EditOp,
    SamplingConfig,
    diff_transcripts,
    edit_speech,
    generate_infill,
    sample_token,
    select_edit_spans,
    zero_shot_tts,
)
from .synthcodec import (
    ToyCodecConfig,
    ToyUtterance,
    decode_tokens,
    encode_transcript,
    gen_corpus,
    render_waveform,
)
from .metrics import (
    aligned_distance,
    dtw_align,
    energy_track,
    f0_track,
    mcd,
    mfcc,
    symbol_error_rate,
)

__version__ = "0.1.0"
