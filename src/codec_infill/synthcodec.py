"""Deterministic, exactly invertible toy codec and toy vocoder.

Each transcript symbol maps to a fixed block of ``frames_per_symbol``
frames of K tokens drawn from seeded per-codebook tables.  The first two
codebooks use injective (symbol, phase) -> token permutations, so decoding
is exact on clean data and majority voting over a block localizes any
corruption to that block.  Codebooks three and up are "texture": their
base tables may be perturbed by bounded jitter without harming
invertibility.  Encoding is one table gather per codebook and decoding
one phase-indexed match array summed per block; symbol i's word
alignment is frames [f*i, f*(i+1)), which :func:`exact_alignment`
builds where an edit needs it.  The module imports only the errors,
JSON I/O and token containers.

The toy vocoder renders each frame as a sum of one sinusoid per codebook
(frequency looked up from the token id; codebook 1 stays inside
80..600 Hz) so the signal metrics operate on real waveforms.  Everything
is a pure function of its inputs.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, Count, InvalidInputError, Natural, VocabularyError, check_bounds
from .jsonio import (
    check_keys, config_from_json, config_to_json, get_field, read_json, read_json_lines, write_json, write_json_lines,
)
from .tokens import Alignment, CodecMatrix, Span, TokenDumpRecord, read_token_dump, write_token_dump

# per-codebook sinusoid bands: (base Hz, top Hz, step Hz per token id)
_BANDS = [
    (80.0, 600.0, 2.0),
    (620.0, 1640.0, 4.0),
    (1700.0, 3230.0, 6.0),
    (3300.0, 5340.0, 8.0),
]
RENDER_AMPLITUDE = 0.2


@dataclass
class ToyCodecConfig:
    alphabet_size: Count = 30
    frames_per_symbol: Count = 4
    num_codebooks: Count = 4
    codebook_size: Count = 256
    frame_rate: Count = 50
    sample_rate: Count = 16000
    table_seed: Natural = 1234
    jitter_seed: Natural | None = None
    jitter_amount: Natural = 2
    render_gains: tuple[float, ...] = (1.0, 0.25, 0.15, 0.1)  # unbounded: a negative gain inverts a tone

    def __post_init__(self):
        check_bounds(self)
        if self.alphabet_size * self.frames_per_symbol > self.codebook_size:
            raise InvalidInputError(
                "codebook_size too small for an injective (symbol, phase) table"
            )
        if self.sample_rate % self.frame_rate != 0:
            raise InvalidInputError("sample_rate must be a multiple of frame_rate")
        if len(self.render_gains) < self.num_codebooks:
            raise InvalidInputError("render_gains must cover every codebook")
        top = max(
            (float(t.max(initial=0.0)) for t, g in zip(frequency_tables(self), self.render_gains) if g != 0.0),
            default=0.0,
        )
        if self.sample_rate / 2 <= top:
            raise InvalidInputError(
                f"sample_rate {self.sample_rate} Hz would alias: its Nyquist frequency "
                f"{self.sample_rate / 2:g} Hz is not above the {top:g} Hz its codebooks render"
            )

    @property
    def codebook_sizes(self) -> tuple[int, ...]:
        return (self.codebook_size,) * self.num_codebooks

    @property
    def samples_per_frame(self) -> int:
        return self.sample_rate // self.frame_rate


def codebook_tables(cfg: ToyCodecConfig) -> list[np.ndarray]:
    """Fixed seeded (alphabet, frames_per_symbol) token tables per codebook.

    Codebooks 1-2 are injective over (symbol, phase); later codebooks are
    unconstrained texture tables.
    """
    rng = np.random.default_rng(cfg.table_seed)
    a, f = cfg.alphabet_size, cfg.frames_per_symbol
    tables = []
    for k in range(cfg.num_codebooks):
        if k < 2:
            perm = rng.permutation(cfg.codebook_size)[: a * f]
            tables.append(perm.reshape(a, f).astype(np.int64))
        else:
            tables.append(rng.integers(0, cfg.codebook_size, size=(a, f), dtype=np.int64))
    return tables


def exact_alignment(num_symbols: int, cfg: ToyCodecConfig) -> Alignment:
    f = cfg.frames_per_symbol
    return Alignment(
        [Span(f * i, f * (i + 1)) for i in range(num_symbols)], f * num_symbols
    )


def _encode(symbols, cfg: ToyCodecConfig, tables: list[np.ndarray], rng: np.random.Generator | None) -> CodecMatrix:
    """``encode_transcript`` with the codebook tables already built.

    When an rng is supplied, texture codebooks (3 and up) receive bounded
    jitter; codebooks 1-2 are never perturbed, preserving invertibility.
    """
    ids = np.asarray(symbols, dtype=np.int64)
    outside = ids[(ids < 0) | (ids >= cfg.alphabet_size)]
    if outside.size:
        raise VocabularyError(f"symbol {outside[0]} outside alphabet of {cfg.alphabet_size}")
    frames = np.stack([table[ids].reshape(-1) for table in tables], axis=1)
    if rng is not None and cfg.jitter_amount > 0:
        for k in range(2, cfg.num_codebooks):
            delta = rng.integers(-cfg.jitter_amount, cfg.jitter_amount + 1, size=frames.shape[0])
            frames[:, k] = np.clip(frames[:, k] + delta, 0, cfg.codebook_size - 1)
    return CodecMatrix(frames, frame_rate=cfg.frame_rate, codebook_sizes=cfg.codebook_sizes)


def encode_transcript(symbols, cfg: ToyCodecConfig) -> CodecMatrix:
    """Map symbols to frames_per_symbol frames each via the fixed tables, without jitter."""
    return _encode(symbols, cfg, codebook_tables(cfg), None)


def decode_tokens(tokens: CodecMatrix, cfg: ToyCodecConfig) -> list[int]:
    """Nearest-table-entry decoding on the invertible codebooks.

    Each frames_per_symbol block votes for the symbol matching the most
    (frame, codebook) cells on codebooks 1-2; ties go to the lowest symbol
    id.  A trailing block shorter than frames_per_symbol is decoded the
    same way.  Exact on unjittered data.
    """
    tables = codebook_tables(cfg)
    frames = tokens.frames
    phase = np.arange(len(frames)) % cfg.frames_per_symbol
    # matches[a, t]: how many invertible codebooks hold symbol a's token for t's phase at frame t
    matches = sum(
        (tables[k][:, phase] == frames[:, k]).astype(np.int64) for k in range(min(2, cfg.num_codebooks))
    )
    scores = np.add.reduceat(matches, np.arange(0, len(frames), cfg.frames_per_symbol), axis=1)
    return np.argmax(scores, axis=0).tolist()


# ---------------------------------------------------------------------------
# Toy vocoder
# ---------------------------------------------------------------------------


def frequency_tables(cfg: ToyCodecConfig) -> list[np.ndarray]:
    """Token id -> sinusoid frequency, one fixed table per codebook."""
    tables = []
    for k in range(cfg.num_codebooks):
        if k < len(_BANDS):
            base, top, step = _BANDS[k]
        else:
            base, top, step = 5500.0 + 700.0 * (k - len(_BANDS)), 7800.0, 1.0
        size = int((top - base) / step) + 1
        ids = np.arange(cfg.codebook_size) % size
        tables.append(base + step * ids)
    return tables


def render_waveform(tokens: CodecMatrix, cfg: ToyCodecConfig) -> np.ndarray:
    """One sinusoid per codebook per frame, summed; deterministic."""
    spf = cfg.samples_per_frame
    total = tokens.num_frames * spf
    if total == 0:
        return np.zeros(0, dtype=np.float64)
    tables = frequency_tables(cfg)
    t = np.arange(total, dtype=np.float64) / cfg.sample_rate
    wav = np.zeros(total, dtype=np.float64)
    for k in range(cfg.num_codebooks):
        gain = cfg.render_gains[k]
        if gain == 0.0:
            continue
        freqs = np.repeat(tables[k][tokens.frames[:, k]], spf)
        wav += RENDER_AMPLITUDE * gain * np.sin(2.0 * np.pi * freqs * t)
    return wav


def write_wav(path, samples: np.ndarray, sample_rate: int = 16000) -> None:
    """16-bit mono PCM; samples are clipped to [-1, 1]."""
    pcm = np.clip(samples, -1.0, 1.0)
    pcm = (pcm * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


@dataclass
class ToyUtterance:
    id: str
    transcript: list[int]
    tokens: CodecMatrix
    split: str = "train"


def _bigram_sampler(cfg: ToyCodecConfig, rng: np.random.Generator):
    """Order-2 symbol process: each symbol prefers a few successors."""
    a = cfg.alphabet_size
    preferred = np.array([rng.permutation(a)[:4] for _ in range(a)])

    def draw(prev: int | None) -> int:
        if prev is None:
            return int(rng.integers(0, a))
        if rng.random() < 0.7:
            return int(preferred[prev][rng.integers(0, 4)])
        return int(rng.integers(0, a))

    return draw


@dataclass
class CorpusConfig:
    num_utterances: Count = 1100
    num_validation: Natural = 100
    min_symbols: Count = 5
    max_symbols: Count = 20
    seed: Natural = 0

    def __post_init__(self):
        check_bounds(self)
        if self.min_symbols > self.max_symbols:
            raise InvalidInputError(f"min_symbols must be <= max_symbols, not {self.min_symbols} > {self.max_symbols}")
        if self.num_validation >= self.num_utterances:
            raise InvalidInputError(
                f"num_validation must be < num_utterances, not {self.num_validation} >= {self.num_utterances}"
            )


def gen_corpus(
    num_utterances: int,
    length_range: tuple[int, int],
    cfg: ToyCodecConfig,
    seed: int,
    num_validation: int = 0,
) -> list[ToyUtterance]:
    """Deterministic corpus: bigram transcripts, encoded tokens, split tags.

    The last ``num_validation`` utterances carry split "val"; ids are
    globally unique so the splits are disjoint by construction.
    """
    CorpusConfig(num_utterances, num_validation, *length_range, seed)  # an argument out of bounds raises, naming it
    rng = np.random.default_rng(seed)
    draw = _bigram_sampler(cfg, rng)
    tables = codebook_tables(cfg)
    utterances = []
    for i in range(num_utterances):
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        transcript = []
        prev = None
        for _ in range(length):
            s = draw(prev)
            transcript.append(s)
            prev = s
        jitter_rng = (
            np.random.default_rng([cfg.jitter_seed, i]) if cfg.jitter_seed is not None else None
        )
        split = "val" if i >= num_utterances - num_validation else "train"
        utterances.append(ToyUtterance(f"utt{i:05d}", transcript, _encode(transcript, cfg, tables, jitter_rng), split))
    return utterances


# ---------------------------------------------------------------------------
# Corpus on disk: manifest + token dump + codec config
# ---------------------------------------------------------------------------


def write_corpus(out_dir, utterances: list[ToyUtterance], cfg: ToyCodecConfig) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_name = "tokens.jsonl"
    write_token_dump(out / dump_name, [TokenDumpRecord(u.id, u.tokens) for u in utterances])
    write_json_lines(
        out / "manifest.jsonl",
        ({"id": u.id, "transcript": u.transcript, "dump": dump_name, "split": u.split} for u in utterances),
    )
    write_json(out / "codec_config.json", config_to_json(cfg))


def load_codec_config(path) -> ToyCodecConfig:
    """The codec config file at ``path`` (a corpus's ``codec_config.json``)."""
    return read_json(path, lambda payload: config_from_json(ToyCodecConfig, payload, "codec"))


def _manifest_entry(payload: dict) -> tuple[str, list[int], str, str]:
    check_keys(payload, {"id", "transcript", "dump", "split"})
    return (
        get_field(payload, "id", str),
        get_field(payload, "transcript", [int]),
        get_field(payload, "dump", str),
        get_field(payload, "split", str),
    )


def load_corpus(corpus_dir) -> tuple[list[ToyUtterance], ToyCodecConfig]:
    corpus_dir = Path(corpus_dir)
    cfg = load_codec_config(corpus_dir / "codec_config.json")
    manifest = corpus_dir / "manifest.jsonl"
    entries = read_json_lines(manifest, _manifest_entry, id_of=lambda entry: entry[0])
    dumps = {}
    for _, _, name, _ in entries:
        if name not in dumps:
            dumps[name] = {rec.id: rec for rec in read_token_dump(corpus_dir / name)}
    utterances = []
    for rid, transcript, name, split in entries:
        if rid not in dumps[name]:
            raise ConfigError(f"{manifest}: utterance '{rid}' is not in dump {name}")
        utterances.append(ToyUtterance(rid, transcript, dumps[name][rid].matrix, split))
    return utterances, cfg
