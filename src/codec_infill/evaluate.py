"""Evaluation manifests, stratified editing evaluation, reconstruction eval.

A manifest is a line-delimited JSON file of editing test cases: record
id, the id of the corpus utterance it edits (``utterance``, defaulting to
the record id), original and edited transcripts, the edit taxonomy
(insertion / deletion / substitution, one or two spans), and the
span-length bucket (1-2, 3-6, or 7-12 words).  Records are validated
against their own transcripts: the stored taxonomy must match a fresh
diff.

The stratified report mirrors the taxonomy grid: per (bucket x type)
means over single-span records, per-type totals, a two-span row (a
two-span record counts under each of its edit types), and an overall
row.  Metrics per record: symbol error rate of the decoded output
against the edited transcript, plus MCD / F0 / energy distances between
the rendered output and the rendered ground-truth encoding, analysed at
the codec's sample rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .infer import EditConfig, SamplingConfig, build_infill_context, diff_transcripts, edit_speech, generate_infill
from .jsonio import check_keys, get_field, read_json_lines, write_json_lines
from .metrics import WINDOW_LENGTH, energy_distance, f0_distance, levenshtein, mcd_distance, symbol_error_rate
from .model import ModelConfig
from .rearrange import splice
from .synthcodec import (
    ToyCodecConfig,
    ToyUtterance,
    decode_tokens,
    encode_transcript,
    exact_alignment,
    render_waveform,
)
from .tokens import CodecMatrix, Span

BUCKETS = (("1-2", 1, 2), ("3-6", 3, 6), ("7-12", 7, 12))
EDIT_TYPES = ("insertion", "deletion", "substitution")


def bucket_for(word_count: int) -> str:
    for name, lo, hi in BUCKETS:
        if lo <= word_count <= hi:
            return name
    raise ConfigError(f"span of {word_count} words fits no bucket")


def op_word_count(op) -> int:
    return max(op.orig_end - op.orig_start, op.repl_end - op.repl_start)


@dataclass
class EvalRecord:
    id: str
    original: list[int]
    edited: list[int]
    edit_types: list[str] = field(default_factory=list)
    num_spans: int = 0
    bucket: str | None = None
    utterance: str | None = None  # corpus utterance the record edits; defaults to ``id``

    def __post_init__(self):
        if self.utterance is None:
            self.utterance = self.id


def validate_record(record: EvalRecord) -> None:
    """Check taxonomy consistency against the record's own transcripts."""
    script = diff_transcripts(record.original, record.edited)
    if bool(script) != bool(record.edit_types):
        raise ConfigError(
            f"record {record.id}: edit_types inconsistent with transcripts"
        )
    if not script:
        if record.num_spans != 0:
            raise ConfigError(f"record {record.id}: num_spans must be 0 for identity edits")
        if record.bucket is not None:
            raise ConfigError(f"record {record.id}: bucket must be null for identity edits")
        return
    kinds = [op.kind for op in script]
    if sorted(kinds) != sorted(record.edit_types):
        raise ConfigError(
            f"record {record.id}: edit_types {record.edit_types} but diff gives {kinds}"
        )
    if record.num_spans != len(script):
        raise ConfigError(
            f"record {record.id}: num_spans {record.num_spans} but diff gives {len(script)}"
        )
    expected_bucket = bucket_for(max(op_word_count(op) for op in script))
    if record.bucket != expected_bucket:
        raise ConfigError(
            f"record {record.id}: bucket {record.bucket} but spans give {expected_bucket}"
        )


def save_manifest(path, records: list[EvalRecord]) -> None:
    write_json_lines(path, (asdict(r) for r in records))


def _record_from_payload(payload: dict) -> EvalRecord:
    check_keys(payload, {"id", "original", "edited", "edit_types", "num_spans", "bucket", "utterance"})
    record = EvalRecord(
        id=get_field(payload, "id", str),
        original=get_field(payload, "original", [int]),
        edited=get_field(payload, "edited", [int]),
        edit_types=get_field(payload, "edit_types", [str], []),
        num_spans=get_field(payload, "num_spans", int, 0),
        bucket=None if payload.get("bucket") is None else get_field(payload, "bucket", str),
        utterance=get_field(payload, "utterance", str, None),
    )
    validate_record(record)
    return record


def load_manifest(path) -> list[EvalRecord]:
    """Records of a manifest file; a malformed line raises ``ConfigError`` naming it."""
    return read_json_lines(path, _record_from_payload)


def synthesize_manifest(
    utterances: list[ToyUtterance],
    codec_cfg: ToyCodecConfig,
    rng: np.random.Generator,
    num_records: int,
    identity: bool = False,
    max_span_words: int = 5,
) -> list[EvalRecord]:
    """RealEdit-style records over toy utterances (for tests and demos)."""
    records = []
    attempts = 0
    while len(records) < num_records and attempts < num_records * 50:
        attempts += 1
        utt = utterances[int(rng.integers(0, len(utterances)))]
        words = list(utt.transcript)
        if identity:
            records.append(EvalRecord(f"case{len(records):04d}_{utt.id}", words, words, utterance=utt.id))
            continue
        kind = EDIT_TYPES[int(rng.integers(0, 3))]
        span_words = int(rng.integers(1, max_span_words + 1))
        edited = list(words)
        if kind == "substitution":
            if span_words >= len(words):
                continue
            start = int(rng.integers(0, len(words) - span_words + 1))
            replacement = [int(rng.integers(0, codec_cfg.alphabet_size)) for _ in range(span_words)]
            edited[start : start + span_words] = replacement
        elif kind == "deletion":
            if span_words >= len(words):
                continue
            start = int(rng.integers(0, len(words) - span_words + 1))
            edited[start : start + span_words] = []
        else:
            start = int(rng.integers(0, len(words) + 1))
            insertion = [int(rng.integers(0, codec_cfg.alphabet_size)) for _ in range(span_words)]
            edited[start:start] = insertion
        script = diff_transcripts(words, edited)
        if len(script) != 1 or script[0].kind != kind:
            continue  # random symbols occasionally collapse the edit
        record = EvalRecord(
            f"case{len(records):04d}_{utt.id}",
            words,
            edited,
            edit_types=[kind],
            num_spans=1,
            bucket=bucket_for(op_word_count(script[0])),
            utterance=utt.id,
        )
        records.append(record)
    if len(records) < num_records:
        raise InvalidInputError("could not synthesize enough distinct edit records")
    return records


# ---------------------------------------------------------------------------
# Stratified editing evaluation
# ---------------------------------------------------------------------------


def _scored_waveform(tokens: CodecMatrix, codec_cfg: ToyCodecConfig) -> np.ndarray:
    """Rendered waveform, padded with silence to at least one analysis window.

    An edit can come out shorter than a window (a span closed at once);
    it is scored as that sound followed by silence rather than rejected.
    """
    wav = render_waveform(tokens, codec_cfg)
    return np.pad(wav, (0, max(0, WINDOW_LENGTH - len(wav))))


def _strata_keys(record: EvalRecord) -> list[str]:
    if not record.edit_types:
        return ["identity", "all|total"]
    keys = ["all|total"]
    if record.num_spans == 1:
        kind = record.edit_types[0]
        keys.append(f"{record.bucket}|{kind}")
        keys.append(f"1span|{kind}")
        keys.append("1span|total")
    else:
        for kind in set(record.edit_types):
            keys.append(f"2span|{kind}")
        keys.append("2span|total")
    return keys


@dataclass
class EvalOutcome:
    reports: list[dict]
    strata: dict
    skipped: int


def run_eval(
    decoder,
    model_cfg: ModelConfig,
    records: list[EvalRecord],
    dumps: dict[str, CodecMatrix],
    codec_cfg: ToyCodecConfig,
    edit_cfg: EditConfig,
    sampling_cfg: SamplingConfig,
) -> EvalOutcome:
    """Run the edit pipeline per record and aggregate per-stratum means.

    Records whose token dump is missing are skipped and counted.  Ground
    truth is the deterministic encoding of the edited transcript.
    """
    reports = []
    accum: dict[str, dict] = {}
    skipped = 0
    for record in sorted(records, key=lambda r: r.id):
        matrix = dumps.get(record.id)
        if matrix is None:
            skipped += 1
            continue
        align = exact_alignment(len(record.original), codec_cfg)
        out, edit_report = edit_speech(
            decoder, model_cfg, matrix, record.original, record.edited, align,
            edit_cfg, sampling_cfg,
        )
        truth = encode_transcript(record.edited, codec_cfg)
        ser = symbol_error_rate(record.edited, decode_tokens(out, codec_cfg))
        wav_out = _scored_waveform(out, codec_cfg)
        wav_truth = _scored_waveform(truth, codec_cfg)
        row = {
            "id": record.id,
            "ser": ser,
            "mcd": mcd_distance(wav_truth, wav_out, codec_cfg.sample_rate),
            "f0_dist": f0_distance(wav_truth, wav_out, codec_cfg.sample_rate),
            "energy_dist": energy_distance(wav_truth, wav_out),
            "edit_types": record.edit_types,
            "num_spans": record.num_spans,
            "bucket": record.bucket,
            "chosen_candidate": edit_report.chosen_index,
            "candidate_lengths": edit_report.candidate_lengths,
        }
        reports.append(row)
        for key in _strata_keys(record):
            slot = accum.setdefault(key, {"count": 0, "ser": 0.0, "mcd": 0.0, "f0_dist": 0.0, "energy_dist": 0.0})
            slot["count"] += 1
            for metric in ("ser", "mcd", "f0_dist", "energy_dist"):
                slot[metric] += row[metric]
    strata = {}
    for key, slot in sorted(accum.items()):
        strata[key] = {"count": slot["count"]}
        for metric in ("ser", "mcd", "f0_dist", "energy_dist"):
            strata[key][f"mean_{metric}"] = slot[metric] / slot["count"]
    return EvalOutcome(reports, strata, skipped)


# ---------------------------------------------------------------------------
# Masked-reconstruction evaluation (exact oracle via the toy codec)
# ---------------------------------------------------------------------------


@dataclass
class ReconstructionCase:
    utterance_id: str
    symbol_start: int
    symbol_end: int


@dataclass
class ReconstructionOutcome:
    cases: list[dict]
    region_error_rate: float          # pooled over symbols
    unedited_intact_count: int
    num_cases: int


def sample_reconstruction_cases(
    utterances: list[ToyUtterance],
    rng: np.random.Generator,
    num_cases: int,
    max_span_symbols: int = 5,
) -> list[ReconstructionCase]:
    cases = []
    for _ in range(num_cases):
        utt = utterances[int(rng.integers(0, len(utterances)))]
        n = len(utt.transcript)
        width = int(rng.integers(1, min(max_span_symbols, n) + 1))
        start = int(rng.integers(0, n - width + 1))
        cases.append(ReconstructionCase(utt.id, start, start + width))
    return cases


def masked_reconstruction_eval(
    decoder,
    model_cfg: ModelConfig,
    codec_cfg: ToyCodecConfig,
    utterances_by_id: dict[str, ToyUtterance],
    cases: list[ReconstructionCase],
    sampling_cfg: SamplingConfig,
) -> ReconstructionOutcome:
    """Mask a symbol-aligned span, regenerate it, decode, and score.

    The edited-region error rate pools symbol errors over all cases; the
    unedited regions are compared bit-for-bit.
    """
    f = codec_cfg.frames_per_symbol
    rows = []
    total_errors = 0
    total_symbols = 0
    intact = 0
    for i, case in enumerate(cases):
        utt = utterances_by_id[case.utterance_id]
        span = Span(f * case.symbol_start, f * case.symbol_end)
        context = build_infill_context(utt.tokens, [span])
        rng = np.random.default_rng([sampling_cfg.seed, 7000 + i])
        result = generate_infill(
            decoder, model_cfg, [(list(utt.transcript), context, 1)], sampling_cfg, [rng]
        )
        out = splice(utt.tokens, [span], result.spans)
        gen_len = len(result.spans[0])
        region = out.frames[span.start : span.start + gen_len]
        region_matrix = CodecMatrix(region, codec_cfg.frame_rate, codec_cfg.codebook_sizes)
        reference = utt.transcript[case.symbol_start : case.symbol_end]
        errors = levenshtein(reference, decode_tokens(region_matrix, codec_cfg))
        prefix_ok = np.array_equal(out.frames[:span.start], utt.tokens.frames[:span.start])
        suffix_ok = np.array_equal(out.frames[span.start + gen_len :], utt.tokens.frames[span.end :])
        rows.append(
            {
                "id": utt.id,
                "span": [case.symbol_start, case.symbol_end],
                "errors": errors,
                "symbols": len(reference),
                "generated_frames": gen_len,
                "expected_frames": len(span),
                "unedited_intact": bool(prefix_ok and suffix_ok),
                "truncated": result.truncated[0],
            }
        )
        total_errors += errors
        total_symbols += len(reference)
        intact += int(prefix_ok and suffix_ok)
    rate = total_errors / max(1, total_symbols)
    return ReconstructionOutcome(rows, rate, intact, len(cases))
