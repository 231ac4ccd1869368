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
import contextlib
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
from .jsonio import check_keys, config_from_json, get_field, read_json, write_json, write_json_lines
from .metrics import F0_RANGE_HZ, FFT_SIZE, HOP, LOG_FLOOR, MCD_SCALE, MEL_BANDS, MFCC_ORDER, VOICING_THRESHOLD, WINDOW_LENGTH
from .model import ModelConfig, TransformerDecoder, new_model
from .rearrange import causal_mask, delay_stack, format_items, uncausal_mask, unstack
from .synthcodec import (
    CorpusConfig,
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


def _apply_overrides(payload: dict, overrides) -> dict:
    """``payload`` with each ``section.key=value`` override set; a value that is not JSON is a string."""
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
            if not isinstance(node, dict):
                raise ConfigError(f"override '{item}' sets a key inside '{key}', which is not an object")
        node[keys[-1]] = value
    return payload


def _load_config(path, overrides, known) -> dict:
    """The config file at ``path`` with the overrides set; a top-level key outside ``known`` raises ConfigError."""
    return read_json(path, lambda payload: check_keys(_apply_overrides(payload, overrides), known))


@contextlib.contextmanager
def _naming(where):
    """A ConfigError raised inside names ``where``, the file or flag its values came from."""
    try:
        yield
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from err


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
            "window_length": WINDOW_LENGTH,
            "hop": HOP,
            "fft_size": FFT_SIZE,
            "mel_bands": MEL_BANDS,
            "mfcc_order": MFCC_ORDER,
            "f0_range_hz": list(F0_RANGE_HZ),
            "voicing_threshold": VOICING_THRESHOLD,
            "log_floor": LOG_FLOOR,
        },
    }


def _out_dir(args, default_name: str) -> Path:
    if args.out is not None:
        path = Path(args.out)
    else:
        path = Path(os.environ.get("CODEC_INFILL_OUT", ".")) / default_name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _symbol_ids(text: str, argument: str) -> list[int]:
    try:
        return [int(v) for v in text.split()]
    except ValueError as err:
        raise ConfigError(f"{argument} '{text}' is not space-separated symbol ids") from err


def _dump_record(path, record_id) -> TokenDumpRecord:
    """The record ``record_id`` of a token dump, or its first record when no id is given."""
    records = read_token_dump(path)
    if not records:
        raise ConfigError(f"{path} holds no token records")
    for record in records:
        if record_id is None or record.id == record_id:
            return record
    raise ConfigError(f"record '{record_id}' not found in {path}")


def _check_codec(checkpoint, cfg: ModelConfig, source, codec) -> None:
    """Raise ConfigError unless ``codec``, read from ``source``, is the codec of the model in ``checkpoint``.

    ``codec`` is a codec config or a token matrix.  Its codebook count and
    sizes must equal the model's, and a codec config's alphabet must fit
    the model's text vocabulary.  ``edit``, ``tts`` and ``eval`` run this
    on each input after loading the checkpoint, before any decode.
    """
    if codec.num_codebooks != cfg.num_codebooks:
        found = f"num_codebooks is {codec.num_codebooks}, the model's {cfg.num_codebooks}"
    elif tuple(codec.codebook_sizes) != tuple(cfg.codebook_sizes):
        found = f"codebook_sizes are {list(codec.codebook_sizes)}, the model's {list(cfg.codebook_sizes)}"
    elif isinstance(codec, ToyCodecConfig) and codec.alphabet_size > cfg.text_vocab_size:
        found = f"alphabet_size {codec.alphabet_size} exceeds the model's text_vocab_size {cfg.text_vocab_size}"
    else:
        return
    raise ConfigError(f"{source} does not fit checkpoint {checkpoint}: {found}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    payload = _load_config(args.config, args.set, {"codec", "corpus"})
    with _naming(args.config):
        codec = config_from_json(ToyCodecConfig, payload.get("codec", {}), "codec")
        corpus = config_from_json(CorpusConfig, payload.get("corpus", {}), "corpus")
    out = _out_dir(args, "corpus")
    utterances = gen_corpus(
        corpus.num_utterances,
        (corpus.min_symbols, corpus.max_symbols),
        codec,
        corpus.seed,
        corpus.num_validation,
    )
    write_corpus(out, utterances, codec)
    n_train = sum(1 for u in utterances if u.split == "train")
    n_val = len(utterances) - n_train
    print(f"wrote {n_train} train / {n_val} validation utterances to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    payload = _load_config(args.config, args.set, {"data_dir", "init_seed", "model", "scheduler", "train"})
    with _naming(args.config):
        data_dir = get_field(payload, "data_dir", str)
    corpus, codec = load_corpus(data_dir)
    train_utts = [u for u in corpus if u.split == "train"]
    model_payload = payload.get("model", {})
    if isinstance(model_payload, dict):  # config_from_json rejects any other value
        model_payload = {
            "num_codebooks": codec.num_codebooks,
            "codebook_sizes": codec.codebook_sizes,
            "text_vocab_size": codec.alphabet_size,
            **model_payload,
        }
    with _naming(args.config):
        model_cfg = config_from_json(ModelConfig, model_payload, "model")
        sched_cfg = config_from_json(SchedulerConfig, payload.get("scheduler", {}), "scheduler")
        train_cfg = config_from_json(TrainConfig, payload.get("train", {}), "train")
        init_seed = get_field(payload, "init_seed", int, 0)
        if init_seed < 0:
            raise ConfigError(f"init_seed must be >= 0, not {init_seed}")
    out = _out_dir(args, "run")

    training = None
    if args.resume:
        state, training = load_checkpoint(args.resume)
        if state.config != model_cfg:
            raise ConfigError("resume checkpoint config differs from the requested model")
        print(f"resumed from {args.resume} at step {state.step}")
        if training is None:
            print(f"{args.resume} holds no data cursor or AdamW moments (a model-only file); "
                  "training starts fresh moments at cursor (0, 0)")
    else:
        state = new_model(model_cfg, seed=init_seed)
    write_json(out / "train_header.json", _report_header(payload, train_cfg.seed))
    state, metrics = train_loop(train_utts, state, train_cfg, sched_cfg, run_dir=out, training=training)
    print(f"trained to step {state.step}; final loss {metrics[-1]['loss']:.4f}" if metrics else "no steps run")
    print(f"checkpoints and metrics under {out}")
    return EXIT_OK


def _edit_request(request: dict) -> tuple:
    """(request, id, corpus_dir, original or None, target, sampling, edit config) of an edit request."""
    check_keys(request, {"id", "corpus_dir", "original", "target", "sampling", "edit"})
    return (
        request,
        get_field(request, "id", str),
        get_field(request, "corpus_dir", str),
        get_field(request, "original", [int], None),
        get_field(request, "target", [int]),
        config_from_json(SamplingConfig, request.get("sampling", {}), "sampling"),
        config_from_json(EditConfig, request.get("edit", {}), "edit"),
    )


def _write_outputs(out: Path, name: str, utt_id: str, matrix, codec, report, header: dict, **extra) -> None:
    """``<name>_tokens.jsonl`` (record ``<id>_<name>``), ``<name>.wav`` and ``report.json`` under ``out``.

    The report holds the header, the decode outcome and the transcript
    decoded from ``matrix``; ``extra`` adds the command's own keys.
    """
    write_token_dump(out / f"{name}_tokens.jsonl", [TokenDumpRecord(f"{utt_id}_{name}", matrix)])
    write_wav(out / f"{name}.wav", render_waveform(matrix, codec), codec.sample_rate)
    write_json(out / "report.json", {
        "header": header,
        "id": utt_id,
        "identity": report.identity,
        "candidate_lengths": report.candidate_lengths,
        "chosen_index": report.chosen_index,
        "prefill_positions": report.prefill_positions,
        "decode_steps": report.decode_steps,
        "decoded_transcript": decode_tokens(matrix, codec),
        **extra,
    })


def cmd_edit(args) -> int:
    request, utt_id, corpus_dir, original, target, sampling, edit_cfg = read_json(args.request, _edit_request)
    corpus, codec = load_corpus(corpus_dir)
    by_id = {u.id: u for u in corpus}
    if utt_id not in by_id:
        raise ConfigError(f"utterance '{utt_id}' not found in the corpus")
    utt = by_id[utt_id]
    if original is None:
        original = list(utt.transcript)

    state, _ = load_checkpoint(args.checkpoint)
    _check_codec(args.checkpoint, state.config, Path(corpus_dir) / "codec_config.json", codec)
    _check_codec(args.checkpoint, state.config, f"utterance '{utt.id}' of {corpus_dir}", utt.tokens)
    decoder = TransformerDecoder(state)
    align = exact_alignment(len(original), codec)
    out_matrix, report = edit_speech(
        decoder, state.config, utt.tokens, original, target, align, edit_cfg, sampling
    )
    out = _out_dir(args, "edit")
    _write_outputs(
        out, "edited", utt.id, out_matrix, codec, report, _report_header(request, sampling.seed),
        candidates=[dataclasses.asdict(c) for c in report.candidates],
    )
    print(f"edited tokens, waveform, and report under {out}")
    return EXIT_OK


def cmd_tts(args) -> int:
    record = _dump_record(args.prompt_dump, args.id)
    codec_path = args.codec_config or Path(args.prompt_dump).parent / "codec_config.json"
    codec = load_codec_config(codec_path)
    prompt_text = _symbol_ids(args.prompt_text, "prompt_text")
    target_text = _symbol_ids(args.target_text, "target_text")
    with _naming("--seed"):
        sampling = config_from_json(SamplingConfig, {"seed": args.seed}, "sampling")
    edit_cfg = EditConfig()
    state, _ = load_checkpoint(args.checkpoint)
    _check_codec(args.checkpoint, state.config, codec_path, codec)
    _check_codec(args.checkpoint, state.config, f"record '{record.id}' of {args.prompt_dump}", record.matrix)
    decoder = TransformerDecoder(state)
    out_matrix, report = zero_shot_tts(
        decoder, state.config, record.matrix, prompt_text, target_text, edit_cfg, sampling
    )
    out = _out_dir(args, "tts")
    header = _report_header({"prompt": prompt_text, "target": target_text}, sampling.seed)
    _write_outputs(out, "tts", record.id, out_matrix, codec, report, header, truncated=report.truncated)
    print(f"continuation tokens, waveform, and report under {out}")
    return EXIT_OK


def _parse_spans(text: str) -> list[Span]:
    try:
        return [Span(*map(int, chunk.split(":"))) for chunk in text.split(",")] if text else []
    except (TypeError, ValueError) as err:
        raise ConfigError(f"--spans '{text}' is not a comma-separated list of start:end") from err


def cmd_rearrange(args) -> int:
    record = _dump_record(args.dump, args.id)
    spans = _parse_spans(args.spans) if args.spans is not None else record.spans
    y = causal_mask(record.matrix, spans)
    z = delay_stack(y)
    print(f"utterance {record.id}: T={record.matrix.num_frames}, K={record.matrix.num_codebooks}, "
          f"spans={[(s.start, s.end) for s in spans]}")
    print("Y:", format_items(y.items))
    print("Z:", format_items(z.items))
    if args.roundtrip:
        if uncausal_mask(y) != (record.matrix, spans) or unstack(z) != y:
            raise CodecInfillError(f"round-trip of {record.id} failed")
        print("round-trip OK")
    return EXIT_OK


def cmd_eval(args) -> int:
    corpus, codec = load_corpus(args.corpus_dir)
    tokens = {u.id: u.tokens for u in corpus}
    records = load_manifest(args.manifest)
    dumps = {r.id: tokens[r.utterance] for r in records if r.utterance in tokens}
    with _naming("--set"):
        overrides = check_keys(_apply_overrides({}, args.set), {"sampling", "edit"})
        sampling = config_from_json(SamplingConfig, overrides.get("sampling", {}), "sampling")
        edit_cfg = config_from_json(EditConfig, overrides.get("edit", {}), "edit")
    state, _ = load_checkpoint(args.checkpoint)
    _check_codec(args.checkpoint, state.config, Path(args.corpus_dir) / "codec_config.json", codec)
    for utt_id in sorted({r.utterance for r in records if r.utterance in tokens}):
        _check_codec(args.checkpoint, state.config, f"utterance '{utt_id}' of {args.corpus_dir}", tokens[utt_id])
    decoder = TransformerDecoder(state)
    outcome = run_eval(decoder, state.config, records, dumps, codec, edit_cfg, sampling)
    out = _out_dir(args, "eval")
    header = _report_header({"manifest": str(args.manifest), "overrides": overrides}, sampling.seed)
    write_json_lines(out / "eval_report.jsonl", [{"header": header}, *outcome.reports])
    write_json(out / "eval_summary.json", {"header": header, "strata": outcome.strata, "skipped": outcome.skipped})
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
    p.add_argument("--codec-config", default=None, help="codec config file (default: codec_config.json beside the dump)")
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
