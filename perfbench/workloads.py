"""The benchmark's workloads: train, eval and tts_long.

Each workload makes its inputs from the seed, sets up (corpus generation
and its write/load round trip, model build or checkpoint load, one warm-up
operation), then runs operations in a closed loop with one client until
the deadline.  Every operation's output is checked against an exact
oracle; an operation that raises or fails its check counts as failed.

Calls that a traced run should see go through module attributes
(``train.train_loop``, ``evaluate.run_eval``, ``infer.zero_shot_tts``),
so the tracer's wrappers are on the path.  Checks run with the tracer
paused.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from codec_infill import checkpoint, evaluate, infer, synthcodec, train
from codec_infill.errors import CodecInfillError
from codec_infill.infer import EditConfig, SamplingConfig
from codec_infill.model import ModelConfig, TransformerDecoder, new_model
from codec_infill.synthcodec import ToyCodecConfig
from codec_infill.tokens import CodecMatrix
from codec_infill.train import SchedulerConfig, TrainConfig

from perfbench.tracer import patched

INIT_SEED = 7  # fixed model init: every seed decodes with the same weights
WARMUP_STEPS = 8  # generation cap of the warm-up operation in set-up


@dataclass(frozen=True)
class Scale:
    """Sizes the workloads run at; the defaults are the benchmark's."""

    num_utterances: int = 1100
    num_validation: int = 100
    symbols: tuple[int, int] = (5, 20)
    num_layers: int = 2
    hidden_dim: int = 128
    ffn_dim: int = 512
    num_heads: int = 4
    batch_frame_budget: int = 4096
    base_lr: float = 0.003
    checkpoint_every: int = 10
    loss_steps: tuple[int, int] = (15, 20)  # train_loss_final averages steps [lo, hi)
    max_span_words: int = 5
    prompt_frames: tuple[int, int] = (400, 1120)
    target_symbols: tuple[int, int] = (5, 10)
    max_generated_steps: int = 60
    setup_repeats: int = 5

    def model_config(self, codec: ToyCodecConfig) -> ModelConfig:
        return ModelConfig(
            num_layers=self.num_layers,
            hidden_dim=self.hidden_dim,
            ffn_dim=self.ffn_dim,
            num_heads=self.num_heads,
            num_codebooks=codec.num_codebooks,
            codebook_sizes=codec.codebook_sizes,
            text_vocab_size=codec.alphabet_size,
            dtype="float32",
        )


@dataclass
class OpResult:
    """One operation: its main call's time, the time and work counted for throughput."""

    ms: float        # train step / edit_speech call / zero_shot_tts call
    total_ms: float  # train step / whole eval record / zero_shot_tts call
    work: float      # real positions / records / requests
    failure: str | None = None


@dataclass
class RunResult:
    ops: list[OpResult]
    digest: str          # pinned-seed outputs of the first operations; information only
    notes: dict          # further printed values, by name


def _paused(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def _operation(tracer, call):
    """Run one operation: (result or None, error text or None, ms)."""
    result, error = None, None
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter_ns()
    try:
        result = call()
    except CodecInfillError as err:
        error = f"{type(err).__name__}: {err}"
    finally:
        ms = (time.perf_counter_ns() - start) / 1e6
        if tracer is not None:
            tracer.end_op()
    return result, error, ms


def _deadline_passed(deadline_ns, count, done) -> bool:
    if count is not None:
        return done >= count
    return done > 0 and time.perf_counter_ns() >= deadline_ns


class Workload:
    name = ""
    op_metric = ""    # printed name of OpResult.ms
    work_metric = ""  # printed name of the throughput

    def __init__(self, seed: int, scale: Scale, work_dir: Path):
        self.seed = seed
        self.scale = scale
        self.work_dir = Path(work_dir)
        self.codec = ToyCodecConfig()
        self.model_cfg = scale.model_config(self.codec)
        self._runs = 0

    def _fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def _corpus(self):
        """Generate the seed's corpus and round-trip it through disk."""
        s = self.scale
        corpus = synthcodec.gen_corpus(
            s.num_utterances, s.symbols, self.codec, self.seed, s.num_validation
        )
        corpus_dir = self._fresh_dir("corpus")
        synthcodec.write_corpus(corpus_dir, corpus, self.codec)
        utterances, self.codec = synthcodec.load_corpus(corpus_dir)
        return utterances

    def _decoder(self):
        """The fixed-init model, saved and reloaded through a checkpoint."""
        path = self._fresh_dir("model") / "model.bin"
        checkpoint.save_checkpoint(path, new_model(self.model_cfg, seed=INIT_SEED))
        state, _ = checkpoint.load_checkpoint(path)
        return TransformerDecoder(state)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds=None, count=None, tracer=None, min_ops=None) -> RunResult:
        """Operations until ``seconds`` pass (and at least ``min_ops`` ran), or
        exactly ``count`` of them.  Every run starts from the same inputs."""
        raise NotImplementedError


def _van_der_corput(i: int) -> float:
    """i-th point of the base-2 van der Corput sequence in [0, 1)."""
    value, scale = 0.0, 0.5
    while i:
        value += scale * (i & 1)
        i >>= 1
        scale /= 2
    return value


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """``train_loop`` on the seed's corpus; one operation is one optimizer step."""

    name = "train"
    op_metric = "train_step_ms"
    work_metric = "train_positions_per_s"

    def _train_cfg(self, total_steps: int) -> TrainConfig:
        s = self.scale
        return TrainConfig(
            batch_frame_budget=s.batch_frame_budget,
            total_steps=total_steps,
            seed=self.seed,
            checkpoint_every=s.checkpoint_every,
        )

    def setup(self) -> None:
        self.utterances = [u for u in self._corpus() if u.split == "train"]
        self.sched = SchedulerConfig(base_lr=self.scale.base_lr)
        state = new_model(self.model_cfg, seed=INIT_SEED)
        train.train_loop(
            self.utterances, state, self._train_cfg(1), self.sched, run_dir=self._fresh_dir("warmup")
        )

    def run(self, seconds=None, count=None, tracer=None, min_ops=None) -> RunResult:
        s = self.scale
        # by default, run at least through the steps train_loss_final averages
        min_ops = s.loss_steps[1] if min_ops is None else min_ops
        state = new_model(self.model_cfg, seed=INIT_SEED)
        train_cfg = self._train_cfg(count if count is not None else 1 << 30)
        run_dir = self._fresh_dir(f"run{self._runs}")
        self._runs += 1
        starts: list[int] = []
        positions: list[int] = []
        real_eden_lr, real_make_batch = train.eden_lr, train.make_batch
        deadline = time.perf_counter_ns() + int((seconds or 0) * 1e9)

        def step_start(t, e, cfg):
            # the first call of every step: mark it, and end the loop once time is up
            if tracer is not None:
                if tracer.in_op:
                    tracer.end_op()
                tracer.begin_op()
            starts.append(time.perf_counter_ns())
            if count is None and t + 1 >= min_ops and _deadline_passed(deadline, None, t + 1):
                train_cfg.total_steps = t + 1
            return real_eden_lr(t, e, cfg)

        def batch_made(*args, **kwargs):
            batch = real_make_batch(*args, **kwargs)
            positions.append(int(batch.inputs.lengths.sum()))
            return batch

        log, error = [], None
        with patched([(train, "eden_lr", step_start), (train, "make_batch", batch_made)]):
            try:
                state, log = train.train_loop(
                    self.utterances, state, train_cfg, self.sched, run_dir=run_dir
                )
            except CodecInfillError as err:
                error = f"{type(err).__name__}: {err}"
            finally:
                end = time.perf_counter_ns()
                if tracer is not None and tracer.in_op:
                    tracer.end_op()

        bounds = starts + [end]
        ops = [
            OpResult((b - a) / 1e6, (b - a) / 1e6, float(p))
            for a, b, p in zip(bounds, bounds[1:], positions)
        ]
        if error is not None and ops:
            ops[-1].failure = error
        with _paused(tracer):
            self._check(ops, log, state, run_dir)
        losses = [entry["loss"] for entry in log]
        lo, hi = s.loss_steps
        window = losses[lo:hi] if len(losses) >= hi else losses[-(hi - lo):]
        notes = {"train_loss_final": (float(np.mean(window)) if window else float("nan"), "loss")}
        return RunResult(ops, _digest(losses[:hi]), notes)

    def _check(self, ops, log, state, run_dir: Path) -> None:
        """Finite losses, and every checkpoint written reloads bit-identically."""
        for op, entry in zip(ops, log):
            if op.failure is None and not math.isfinite(entry["loss"]):
                op.failure = f"non-finite loss {entry['loss']}"
        resave = run_dir / "resave.bin"
        for path in sorted(run_dir.glob("ckpt_*.bin")):
            loaded, rng_state = checkpoint.load_checkpoint(path)
            checkpoint.save_checkpoint(resave, loaded, rng_state)
            problem = None
            if resave.read_bytes() != path.read_bytes():
                problem = f"{path.name} does not re-save to identical bytes"
            elif path.name == "ckpt_final.bin" and not _same_params(loaded, state):
                problem = f"{path.name} differs from the trained parameters"
            index = loaded.step - 1
            if problem is not None and 0 <= index < len(ops) and ops[index].failure is None:
                ops[index].failure = problem


def _same_params(a, b) -> bool:
    return a.step == b.step and list(a.params) == list(b.params) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a.params.values(), b.params.values())
    )


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _utterance_of(record) -> str:
    """Utterance id inside a ``caseNNNN_<utt>`` record id."""
    return record.id.split("_", 1)[1]


class EvalWorkload(Workload):
    """``run_eval`` over one synthesized manifest record per operation."""

    name = "eval"
    op_metric = "edit_ms"
    work_metric = "eval_records_per_s"

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        self.edit_cfg = EditConfig()
        self._inputs: list = []

    def setup(self) -> None:
        corpus = self._corpus()
        self.by_id = {u.id: u for u in corpus}
        self.validation = [u for u in corpus if u.split == "val"]
        self.decoder = self._decoder()
        self._manifest_rng = np.random.default_rng([self.seed, 2])
        self._inputs = []
        warm_rng = np.random.default_rng([self.seed, 9])
        (warm,) = evaluate.synthesize_manifest(
            self.validation, self.codec, warm_rng, 1, max_span_words=self.scale.max_span_words
        )
        self._run_record(warm, 0, max_steps=WARMUP_STEPS)

    def _input(self, i: int):
        """The i-th (record, sampling seed); records are synthesized in chunks."""
        while len(self._inputs) <= i:
            chunk = evaluate.synthesize_manifest(
                self.validation, self.codec, self._manifest_rng, 16,
                max_span_words=self.scale.max_span_words,
            )
            for record in chunk:
                record.id = f"case{len(self._inputs):04d}_{_utterance_of(record)}"
                self._inputs.append((record, int(self._manifest_rng.integers(0, 2**31))))
        return self._inputs[i]

    def _run_record(self, record, sampling_seed: int, max_steps=None):
        # the record maps to its dump explicitly, by the record's own id
        dumps = {record.id: self.by_id[_utterance_of(record)].tokens}
        sampling = SamplingConfig(
            seed=sampling_seed, max_generated_steps=max_steps or self.scale.max_generated_steps
        )
        return evaluate.run_eval(
            self.decoder, self.model_cfg, [record], dumps, self.codec, self.edit_cfg, sampling
        )

    def run(self, seconds=None, count=None, tracer=None, min_ops=None) -> RunResult:
        deadline = time.perf_counter_ns() + int((seconds or 0) * 1e9)
        real_edit = evaluate.edit_speech
        edits: list = []

        def edit_probe(*args, **kwargs):
            start = time.perf_counter_ns()
            result = real_edit(*args, **kwargs)
            edits.append(((time.perf_counter_ns() - start) / 1e6, result))
            return result

        ops: list[OpResult] = []
        digest_parts: list = []
        truncated = candidates = 0
        with patched([(evaluate, "edit_speech", edit_probe)]):
            while not _deadline_passed(deadline, count, len(ops)):
                i = len(ops)
                record, seed = self._input(i)
                edits.clear()
                outcome, error, total_ms = _operation(tracer, lambda: self._run_record(record, seed))
                edit_ms = edits[0][0] if edits else total_ms
                op = OpResult(edit_ms, total_ms, 1.0, error)
                ops.append(op)
                if error is None:
                    with _paused(tracer):
                        op.failure = self._check(record, outcome, edits)
                if edits:
                    out, report = edits[0][1]
                    truncated += sum(c.truncated for c in report.candidates)
                    candidates += len(report.candidates)
                    if i < 5:
                        digest_parts += [out.frames.tobytes(), report.chosen_index]
        notes = {"infer.truncated_fraction": (truncated / max(1, candidates), "fraction")}
        return RunResult(ops, _digest(digest_parts), notes)

    def _check(self, record, outcome, edits) -> str | None:
        if outcome.skipped or len(outcome.reports) != 1:
            return f"record {record.id} skipped by run_eval"
        row = outcome.reports[0]
        for key in ("ser", "mcd", "f0_dist", "energy_dist"):
            if not math.isfinite(row[key]):
                return f"{key} is {row[key]}"
        if len(edits) != 1:
            return f"{len(edits)} edit_speech calls in one record"
        out, report = edits[0][1]
        original = self.by_id[_utterance_of(record)].tokens
        widest = infer.select_edit_spans(
            infer.diff_transcripts(record.original, record.edited),
            synthcodec.exact_alignment(len(record.original), self.codec),
            max(self.edit_cfg.margin_schedule),
            original.frame_rate,
        )
        if widest:
            head, tail = widest[0].start, original.num_frames - widest[-1].end
            if out.num_frames < head + tail:
                return "output shorter than the frames outside the widest spans"
            if not np.array_equal(out.frames[:head], original.frames[:head]):
                return "frames before the widest spans changed"
            if not np.array_equal(out.frames[out.num_frames - tail:], original.frames[original.num_frames - tail:]):
                return "frames after the widest spans changed"
        lengths = report.candidate_lengths
        chosen = report.chosen_index
        longer = sum(1 for j, n in enumerate(lengths) if (n, j) > (lengths[chosen], chosen))
        if longer < self.edit_cfg.num_discard_longest:
            return f"chosen candidate {chosen} is among the {self.edit_cfg.num_discard_longest} longest"
        if lengths[chosen] != out.num_frames:
            return "output is not the chosen candidate"
        return None


# ---------------------------------------------------------------------------
# tts_long
# ---------------------------------------------------------------------------


class TtsWorkload(Workload):
    """``zero_shot_tts`` on long prompts; one operation is one call."""

    name = "tts_long"
    op_metric = "tts_ms"
    work_metric = "tts_requests_per_s"

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        self.edit_cfg = EditConfig()
        self._inputs: list = []

    def setup(self) -> None:
        self.train_utts = [u for u in self._corpus() if u.split == "train"]
        self.decoder = self._decoder()
        self._input_rng = np.random.default_rng([self.seed, 3])
        self._inputs = []
        warm = self._make_input(np.random.default_rng([self.seed, 9]), 1)
        self._call(*warm, max_steps=WARMUP_STEPS)

    def _make_input(self, rng, goal: int):
        """Consecutive corpus utterances concatenated to at least ``goal`` frames."""
        i = int(rng.integers(0, len(self.train_utts)))
        frames, text = [], []
        while sum(len(f) for f in frames) < goal:
            utt = self.train_utts[i % len(self.train_utts)]
            frames.append(utt.tokens.frames)
            text += utt.transcript
            i += 1
        prompt = CodecMatrix(np.concatenate(frames), self.codec.frame_rate, self.codec.codebook_sizes)
        t_lo, t_hi = self.scale.target_symbols
        target = [int(v) for v in rng.integers(0, self.codec.alphabet_size, int(rng.integers(t_lo, t_hi + 1)))]
        return prompt, text, target, int(rng.integers(0, 2**31))

    def _input(self, i: int):
        """The i-th request.  Prompt lengths follow a van der Corput sequence,
        the same for every seed, so the requests of any run, however many,
        spread evenly over the length range and the median request has the
        same length whatever the seed."""
        lo, hi = self.scale.prompt_frames
        while len(self._inputs) <= i:
            u = _van_der_corput(len(self._inputs) + 1)
            goal = lo + int((hi - lo) * u)
            self._inputs.append(self._make_input(self._input_rng, goal))
        return self._inputs[i]

    def _call(self, prompt, text, target, seed, max_steps=None):
        sampling = SamplingConfig(seed=seed, max_generated_steps=max_steps or self.scale.max_generated_steps)
        return infer.zero_shot_tts(
            self.decoder, self.model_cfg, prompt, text, target, self.edit_cfg, sampling
        )

    def run(self, seconds=None, count=None, tracer=None, min_ops=None) -> RunResult:
        deadline = time.perf_counter_ns() + int((seconds or 0) * 1e9)
        ops: list[OpResult] = []
        digest_parts: list = []
        truncated = candidates = 0
        while not _deadline_passed(deadline, count, len(ops)):
            i = len(ops)
            request = self._input(i)
            result, error, ms = _operation(tracer, lambda: self._call(*request))
            op = OpResult(ms, ms, 1.0, error)
            ops.append(op)
            if result is not None:
                out, report = result
                op.failure = self._check(request[0], out, report)
                truncated += sum(report.truncated)
                candidates += len(report.truncated)
                if i < 3:
                    digest_parts += [out.frames.tobytes(), report.chosen_index]
        notes = {"infer.truncated_fraction": (truncated / max(1, candidates), "fraction")}
        return RunResult(ops, _digest(digest_parts), notes)

    def _check(self, prompt, out, report) -> str | None:
        p = prompt.num_frames
        if out.num_frames < p or not np.array_equal(out.frames[:p], prompt.frames):
            return "prompt frames not preserved at the front"
        lengths = report.candidate_lengths
        if len(lengths) != self.edit_cfg.tts_num_samples:
            return f"{len(lengths)} samples, expected {self.edit_cfg.tts_num_samples}"
        if max(lengths) > self.scale.max_generated_steps:
            return f"a sample of {max(lengths)} frames exceeds the cap"
        if lengths[report.chosen_index] != min(lengths) or out.num_frames != p + min(lengths):
            return "the chosen sample is not the shortest"
        return None


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, TtsWorkload)}

