"""Command-line surface: gen-data, train, edit, tts, rearrange, eval.

All configuration lives in JSON files; repeated ``--set section.key=value``
flags override file values.  Output goes under ``--out`` when given, else
under the directory named by the ``CODEC_INFILL_OUT`` environment
variable (default: the current directory).  Report files carry a header
recording the effective config hash, the seed, and metric constants.

Exit codes: 0 success, 2 configuration errors, 3 I/O errors,
4 numerical failures, 1 any other pipeline error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .errors import CodecInfillError, ConfigError, NumericalError
from .evaluate import load_manifest, run_eval
from .infer import EditConfig, SamplingConfig, edit_speech, zero_shot_tts
from .metrics import MCD_SCALE
from .model import ModelConfig, TransformerDecoder, new_model
from .rearrange import MaskSamplingConfig, causal_mask, delay_stack, format_items, uncausal_mask, unstack
from .synthcodec import (
    ToyCodecConfig,
    decode_tokens,
    exact_alignment,
    gen_corpus,
    load_codec_config,
    load_corpus,
    render_waveform,
    write_corpus,
    write_wav,
)
from .tokens import Span, TokenDumpRecord, read_token_dump, write_token_dump
from .train import SchedulerConfig, TrainConfig, train_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_PIPELINE = 1


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_TUPLE_FIELDS = {"codebook_sizes", "loss_weights", "render_gains", "margin_schedule"}


def _build_section(cls, payload: dict, section: str):
    names = {f.name for f in dataclasses.fields(cls)}
    clean = {}
    for key, value in payload.items():
        if key not in names:
            raise ConfigError(f"unknown config field '{section}.{key}'")
        clean[key] = tuple(value) if key in _TUPLE_FIELDS and isinstance(value, list) else value
    try:
        return cls(**clean)
    except CodecInfillError as err:
        raise ConfigError(f"invalid config section '{section}': {err}") from err
    except TypeError as err:
        raise ConfigError(f"invalid config section '{section}': {err}") from err


def _load_config(path, overrides) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = payload
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return payload


def _config_hash(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()[:16]


def _report_header(payload, seed) -> dict:
    return {
        "config_hash": _config_hash(payload),
        "seed": seed,
        "constants": {
            "dtw_steps": [[1, 0], [0, 1], [1, 1]],
            "dtw_local_distance": "euclidean",
            "mcd_scale": MCD_SCALE,
            "window_length": 640,
            "hop": 160,
            "fft_size": 1024,
            "mel_bands": 40,
            "mfcc_order": 13,
            "f0_range_hz": [80, 600],
            "voicing_threshold": 0.3,
            "log_floor": 1e-10,
        },
    }


def _out_dir(args, default_name: str) -> Path:
    if args.out is not None:
        path = Path(args.out)
    else:
        path = Path(os.environ.get("CODEC_INFILL_OUT", ".")) / default_name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sampling_from(payload: dict) -> SamplingConfig:
    return _build_section(SamplingConfig, payload, "sampling")


def _edit_cfg_from(payload: dict) -> EditConfig:
    return _build_section(EditConfig, payload, "edit")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    payload = _load_config(args.config, args.set)
    codec = _build_section(ToyCodecConfig, payload.get("codec", {}), "codec")
    corpus_payload = dict(payload.get("corpus", {}))
    defaults = {
        "num_utterances": 1100,
        "num_validation": 100,
        "min_symbols": 5,
        "max_symbols": 20,
        "seed": 0,
    }
    for key in corpus_payload:
        if key not in defaults:
            raise ConfigError(f"unknown config field 'corpus.{key}'")
    merged = {**defaults, **corpus_payload}
    out = _out_dir(args, "corpus")
    utterances = gen_corpus(
        merged["num_utterances"],
        (merged["min_symbols"], merged["max_symbols"]),
        codec,
        merged["seed"],
        merged["num_validation"],
    )
    write_corpus(out, utterances, codec)
    n_train = sum(1 for u in utterances if u.split == "train")
    n_val = len(utterances) - n_train
    print(f"wrote {n_train} train / {n_val} validation utterances to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    payload = _load_config(args.config, args.set)
    if "data_dir" not in payload:
        raise ConfigError("missing config field 'data_dir'")
    corpus, codec = load_corpus(payload["data_dir"])
    train_utts = [u for u in corpus if u.split == "train"]
    model_payload = dict(payload.get("model", {}))
    model_payload.setdefault("num_codebooks", codec.num_codebooks)
    model_payload.setdefault("codebook_sizes", codec.codebook_sizes)
    model_payload.setdefault("text_vocab_size", codec.alphabet_size)
    model_cfg = _build_section(ModelConfig, model_payload, "model")
    sched_cfg = _build_section(SchedulerConfig, payload.get("scheduler", {}), "scheduler")
    train_payload = dict(payload.get("train", {}))
    mask_payload = train_payload.pop("mask", {})
    train_cfg = _build_section(TrainConfig, train_payload, "train")
    train_cfg.mask = _build_section(MaskSamplingConfig, mask_payload, "train.mask")
    out = _out_dir(args, "run")

    rng_state = None
    if args.resume:
        state, rng_state = load_checkpoint(args.resume)
        if state.config != model_cfg:
            raise ConfigError("resume checkpoint config differs from the requested model")
        print(f"resumed from {args.resume} at step {state.step}")
    else:
        state = new_model(model_cfg, seed=int(payload.get("init_seed", 0)))
    with open(out / "train_header.json", "w", encoding="utf-8") as fh:
        json.dump(_report_header(payload, train_cfg.seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
    state, metrics = train_loop(train_utts, state, train_cfg, sched_cfg, run_dir=out, rng_state=rng_state)
    print(f"trained to step {state.step}; final loss {metrics[-1]['loss']:.4f}" if metrics else "no steps run")
    print(f"checkpoints and metrics under {out}")
    return EXIT_OK


def cmd_edit(args) -> int:
    with open(args.request, "r", encoding="utf-8") as fh:
        request = json.load(fh)
    for field in ("id", "corpus_dir", "target"):
        if field not in request:
            raise ConfigError(f"edit request is missing field '{field}'")
    corpus, codec = load_corpus(request["corpus_dir"])
    by_id = {u.id: u for u in corpus}
    if request["id"] not in by_id:
        raise ConfigError(f"utterance '{request['id']}' not found in the corpus")
    utt = by_id[request["id"]]
    original = [int(v) for v in request.get("original", utt.transcript)]
    target = [int(v) for v in request["target"]]
    sampling = _sampling_from(request.get("sampling", {}))
    edit_payload = dict(request.get("edit", {}))
    if "margin_schedule" in request:
        edit_payload["margin_schedule"] = tuple(request["margin_schedule"])
        edit_payload.setdefault("num_candidates", len(edit_payload["margin_schedule"]))
    edit_cfg = _edit_cfg_from(edit_payload)

    state, _ = load_checkpoint(args.checkpoint)
    decoder = TransformerDecoder(state)
    align = exact_alignment(len(original), codec)
    out_matrix, report = edit_speech(
        decoder, state.config, utt.tokens, original, target, align, edit_cfg, sampling
    )
    out = _out_dir(args, "edit")
    write_token_dump(out / "edited_tokens.jsonl", [TokenDumpRecord(f"{utt.id}_edited", out_matrix)])
    write_wav(out / "edited.wav", render_waveform(out_matrix, codec), codec.sample_rate)
    payload = {
        "header": _report_header(request, sampling.seed),
        "id": utt.id,
        "identity": report.identity,
        "candidate_lengths": report.candidate_lengths,
        "chosen_index": report.chosen_index,
        "candidates": [dataclasses.asdict(c) for c in report.candidates],
        "prefill_positions": report.prefill_positions,
        "decode_steps": report.decode_steps,
        "decoded_transcript": decode_tokens(out_matrix, codec).symbols,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"edited tokens, waveform, and report under {out}")
    return EXIT_OK


def cmd_tts(args) -> int:
    records = read_token_dump(args.prompt_dump)
    if not records:
        raise ConfigError(f"{args.prompt_dump} holds no token records")
    record = records[0]
    if args.id is not None:
        matches = [r for r in records if r.id == args.id]
        if not matches:
            raise ConfigError(f"record '{args.id}' not found in {args.prompt_dump}")
        record = matches[0]
    codec_path = args.codec_config or str(Path(args.prompt_dump).parent / "codec_config.json")
    codec = load_codec_config(Path(codec_path).parent if codec_path.endswith(".json") else codec_path)
    prompt_text = [int(v) for v in args.prompt_text.split()]
    target_text = [int(v) for v in args.target_text.split()]
    sampling = SamplingConfig(seed=args.seed)
    edit_cfg = EditConfig()
    state, _ = load_checkpoint(args.checkpoint)
    decoder = TransformerDecoder(state)
    out_matrix, report = zero_shot_tts(
        decoder, state.config, record.matrix, prompt_text, target_text, edit_cfg, sampling
    )
    out = _out_dir(args, "tts")
    write_token_dump(out / "tts_tokens.jsonl", [TokenDumpRecord(f"{record.id}_tts", out_matrix)])
    write_wav(out / "tts.wav", render_waveform(out_matrix, codec), codec.sample_rate)
    payload = {
        "header": _report_header({"prompt": prompt_text, "target": target_text}, sampling.seed),
        "id": record.id,
        "identity": report.identity,
        "candidate_lengths": report.candidate_lengths,
        "chosen_index": report.chosen_index,
        "truncated": report.truncated,
        "prefill_positions": report.prefill_positions,
        "decode_steps": report.decode_steps,
        "decoded_transcript": decode_tokens(out_matrix, codec).symbols,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"continuation tokens, waveform, and report under {out}")
    return EXIT_OK


def _parse_spans(text: str) -> list[Span]:
    spans = []
    if text:
        for chunk in text.split(","):
            lo, hi = chunk.split(":")
            spans.append(Span(int(lo), int(hi)))
    return spans


def cmd_rearrange(args) -> int:
    records = read_token_dump(args.dump)
    if not records:
        raise ConfigError(f"{args.dump} holds no token records")
    record = records[0]
    if args.id is not None:
        matches = [r for r in records if r.id == args.id]
        if not matches:
            raise ConfigError(f"record '{args.id}' not found in {args.dump}")
        record = matches[0]
    spans = _parse_spans(args.spans) if args.spans is not None else record.spans
    y = causal_mask(record.matrix, spans)
    z = delay_stack(y)
    print(f"utterance {record.id}: T={record.matrix.num_frames}, K={record.matrix.num_codebooks}, "
          f"spans={[(s.start, s.end) for s in spans]}")
    print("Y:", format_items(y.items))
    print("Z:", format_items(z.items))
    if args.roundtrip:
        back, back_spans = uncausal_mask(y)
        assert back == record.matrix and back_spans == spans, "causal round-trip failed"
        assert unstack(z) == y, "stacking round-trip failed"
        print("round-trip OK")
    return EXIT_OK


def cmd_eval(args) -> int:
    corpus, codec = load_corpus(args.corpus_dir)
    tokens = {u.id: u.tokens for u in corpus}
    records = load_manifest(args.manifest)
    dumps = {r.id: tokens[r.utterance] for r in records if r.utterance in tokens}
    state, _ = load_checkpoint(args.checkpoint)
    decoder = TransformerDecoder(state)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    sampling = _sampling_from(
        {k.split(".", 1)[1]: v for k, v in overrides.items() if k.startswith("sampling.")}
    )
    edit_cfg = _edit_cfg_from(
        {k.split(".", 1)[1]: v for k, v in overrides.items() if k.startswith("edit.")}
    )
    outcome = run_eval(decoder, state.config, records, dumps, codec, edit_cfg, sampling)
    out = _out_dir(args, "eval")
    header = _report_header({"manifest": str(args.manifest), "overrides": overrides}, sampling.seed)
    with open(out / "eval_report.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for row in outcome.reports:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    summary = {"header": header, "strata": outcome.strata, "skipped": outcome.skipped}
    with open(out / "eval_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"evaluated {len(outcome.reports)} records ({outcome.skipped} skipped)")
    for key, row in outcome.strata.items():
        print(
            f"  {key:24s} n={row['count']:4d} ser={row['mean_ser']:.4f} "
            f"mcd={row['mean_mcd']:.3f} f0={row['mean_f0_dist']:.2f} "
            f"energy={row['mean_energy_dist']:.4f}"
        )
    print(f"reports under {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codec-infill",
        description="Token-infilling codec language model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a toy corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the infilling model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None, metavar="CHECKPOINT")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("edit", help="edit an utterance to match a target transcript")
    p.add_argument("checkpoint")
    p.add_argument("request")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("tts", help="continue a voice prompt to read a target text")
    p.add_argument("checkpoint")
    p.add_argument("prompt_dump")
    p.add_argument("prompt_text", help="space-separated symbol ids of the prompt")
    p.add_argument("target_text", help="space-separated symbol ids to synthesize")
    p.add_argument("--id", default=None, help="record id inside the prompt dump")
    p.add_argument("--codec-config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tts)

    p = sub.add_parser("rearrange", help="print the rearranged and stacked forms")
    p.add_argument("dump")
    p.add_argument("--id", default=None)
    p.add_argument("--spans", default=None, help='e.g. "1:4,6:8"')
    p.add_argument("--roundtrip", action="store_true")
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("eval", help="stratified evaluation over a manifest")
    p.add_argument("checkpoint")
    p.add_argument("corpus_dir")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CodecInfillError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
