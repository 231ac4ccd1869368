"""Span tracer for the benchmark's traced run.

The tracer wraps the public names each ``codec_infill`` layer calls
through: module attributes such as ``codec_infill.train.forward`` (the
name ``train_loop`` looks up at call time) and methods such as
``DecodeSession.append``.  Every call made while the tracer is active
records a span with its name, start and end (``perf_counter_ns``), the
span that was open when it started, and the operation id.  Spans stay in
memory; the caller writes them out when the run ends.  ``patched``
restores every wrapped name on exit, also when the run raises.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread and nest strictly, so children never
overlap and the self times of a root's subtree sum to the root's
duration exactly (integer nanoseconds).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

OP = "op"  # name of the synthetic root span of one operation


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, end, parent, op, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into Tracer.spans, -1 when nothing was open
        self.op = op          # operation id, -1 outside operations (set-up)
        self.info = info      # layer-specific count noted from the call

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.info]


class Tracer:
    """In-memory span recorder; inactive until ``active`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0  # operations begun so far; the next one's id

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0, 0, parent, self._op))
        self._stack.append(index)
        return index

    def begin_op(self) -> None:
        self._op = self._ops
        self._ops += 1
        self.spans[self._open(OP)].start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        index = self._stack.pop()
        self.spans[index].end = end
        self._op = -1

    @property
    def in_op(self) -> bool:
        return self._op >= 0

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(args, result)`` sets its info."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                span = tracer.spans[index]
                span.start, span.end = start, end
            if note is not None:
                span.info = note(args, result)
            return result

        return traced


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples for the block, then restore them."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------


def _note_batch(args, batch):
    """(real positions, padded positions, positions with any loss)."""
    padded = batch.inputs.kind.size
    return (int(batch.inputs.lengths.sum()), padded, int(batch.loss_mask.any(axis=-1).sum()))


def _note_position(args, result):
    # DecodeSession.__init__ / append: the session's context length after the call
    return args[0].position


def _note_generation(args, result):
    """(frames generated, spans truncated, spans generated)."""
    return (sum(len(s) for s in result.spans), sum(result.truncated), len(result.truncated))


def _note_cells(args, result):
    return len(args[0]) * len(args[1])


def layer_targets():
    """(owner, attribute, span name, note) for every wrapped public name.

    Names are patched where the caller looks them up, so a layer's span
    is recorded on the path the workloads actually take.
    """
    from codec_infill import checkpoint, evaluate, infer, metrics, model, synthcodec, train

    return [
        # training step
        (train, "make_batch", "train.make_batch", _note_batch),
        (train, "build_training_example", "train.build_training_example", None),
        (train, "sample_mask_spans", "rearrange.sample_mask_spans", None),
        (train, "causal_mask", "rearrange.causal_mask", None),
        (train, "delay_stack", "rearrange.delay_stack", None),
        (train, "encode_sequence", "model.encode_sequence", None),
        (train, "pad_sequences", "model.pad_sequences", None),
        (train, "forward", "model.forward", None),
        (train, "weighted_loss", "model.weighted_loss", None),
        (train, "loss_gradient", "model.loss_gradient", None),
        (train, "backward", "model.backward", None),
        (train, "clip_global_norm", "train.clip_global_norm", None),
        (train.AdamW, "step", "train.adamw_step", None),
        (train, "save_checkpoint", "checkpoint.save_checkpoint", None),
        # decoding
        (model.DecodeSession, "__init__", "model.prefill", _note_position),
        (model.DecodeSession, "append", "model.append", _note_position),
        (infer, "diff_transcripts", "infer.diff_transcripts", None),
        (infer, "select_edit_spans", "infer.select_edit_spans", None),
        (infer, "build_infill_context", "infer.build_infill_context", None),
        (infer, "generate_infill", "infer.generate_infill", _note_generation),
        (infer, "sample_token", "infer.sample_token", None),
        (infer, "discard_longest", "infer.discard_longest", None),
        (infer, "causal_mask", "rearrange.causal_mask", None),
        (infer, "delay_stack", "rearrange.delay_stack", None),
        (infer, "splice", "rearrange.splice", None),
        (infer, "stack_span", "rearrange.stack_span", None),
        (infer, "unstack_span", "rearrange.unstack_span", None),
        (infer, "zero_shot_tts", "infer.zero_shot_tts", None),
        # evaluation record
        (evaluate, "run_eval", "evaluate.run_eval", None),
        (evaluate, "edit_speech", "infer.edit_speech", None),
        (evaluate, "exact_alignment", "synthcodec.exact_alignment", None),
        (evaluate, "encode_transcript", "synthcodec.encode_transcript", None),
        (evaluate, "decode_tokens", "synthcodec.decode_tokens", None),
        (evaluate, "render_waveform", "synthcodec.render_waveform", None),
        (evaluate, "symbol_error_rate", "metrics.symbol_error_rate", None),
        (evaluate, "mcd_distance", "metrics.mcd_distance", None),
        (evaluate, "f0_distance", "metrics.f0_distance", None),
        (evaluate, "energy_distance", "metrics.energy_distance", None),
        (metrics, "mfcc", "metrics.mfcc", None),
        (metrics, "mcd", "metrics.mcd", None),
        (metrics, "f0_track", "metrics.f0_track", None),
        (metrics, "energy_track", "metrics.energy_track", None),
        (metrics, "aligned_distance", "metrics.aligned_distance", None),
        (metrics, "dtw_align", "metrics.dtw_align", _note_cells),
        # set-up calls the benchmark makes itself
        (synthcodec, "gen_corpus", "synthcodec.gen_corpus", None),
        (synthcodec, "write_corpus", "synthcodec.write_corpus", None),
        (synthcodec, "load_corpus", "synthcodec.load_corpus", None),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
    ]


def instrument(tracer: Tracer):
    """Replacements for ``patched`` that route every layer target through ``tracer``."""
    return [
        (owner, attr, tracer.wrap(name, owner.__dict__[attr], note))
        for owner, attr, name, note in layer_targets()
    ]


# ---------------------------------------------------------------------------
# Self times and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Nanoseconds of each span not covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


SELF_MS = (
    "rearrange.causal_mask", "rearrange.delay_stack", "rearrange.splice", "rearrange.unstack_span",
    "train.make_batch", "train.build_training_example", "train.clip_global_norm", "train.adamw_step",
    "model.forward", "model.backward", "model.weighted_loss", "model.loss_gradient",
    "model.prefill", "model.append",
    "infer.diff_transcripts", "infer.select_edit_spans", "infer.build_infill_context",
    "infer.generate_infill", "infer.sample_token",
    "synthcodec.encode_transcript", "synthcodec.decode_tokens", "synthcodec.render_waveform",
    "metrics.dtw_align", "metrics.mfcc", "metrics.f0_track", "metrics.energy_track",
    "metrics.symbol_error_rate",
)
CALLS = ("model.append", "infer.sample_token")
PER_CALL_MS = (
    "synthcodec.gen_corpus", "synthcodec.write_corpus", "synthcodec.load_corpus",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
)
# bins of the context length an append extends, as (label, lowest, highest)
APPEND_BINS = (("ctx_0-511", 0, 511), ("ctx_512-1023", 512, 1023), ("ctx_1024-2047", 1024, 2047))


def per_layer_metrics(spans: list[Span], overhead_fraction: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}; 0 where a layer is not called."""
    own = self_times(spans)
    ops = sorted({s.op for s in spans if s.name == OP})
    index = {op: i for i, op in enumerate(ops)}

    def per_op():
        return [0.0] * len(ops)

    self_ns = {name: per_op() for name in SELF_MS}
    calls = {name: per_op() for name in CALLS}
    prefill_positions, dtw_cells, generated = per_op(), per_op(), per_op()
    real, padded, lossy = per_op(), per_op(), per_op()
    truncated = spans_generated = 0
    call_ms = {name: [] for name in PER_CALL_MS}
    append_ms = {label: [] for label, _, _ in APPEND_BINS}
    root_ns = root_self_ns = 0

    for span, own_ns in zip(spans, own):
        name = span.name
        if name in call_ms:
            call_ms[name].append((span.end - span.start) / 1e6)
        if span.op not in index:
            continue
        i = index[span.op]
        if name == OP:
            root_ns += span.end - span.start
            root_self_ns += own_ns
            continue
        if name in self_ns:
            self_ns[name][i] += own_ns
        if name in calls:
            calls[name][i] += 1
        if span.info is None:  # no note, or the call raised
            continue
        if name == "model.prefill":
            prefill_positions[i] += span.info
        elif name == "model.append":
            context = span.info - 1  # length before the appended item
            for label, lo, hi in APPEND_BINS:
                if lo <= context <= hi:
                    append_ms[label].append((span.end - span.start) / 1e6)
        elif name == "metrics.dtw_align":
            dtw_cells[i] += span.info
        elif name == "infer.generate_infill":
            generated[i] += span.info[0]
            truncated += span.info[1]
            spans_generated += span.info[2]
        elif name == "train.make_batch":
            real[i] += span.info[0]
            padded[i] += span.info[1]
            lossy[i] += span.info[2]

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    def mean(values):
        return float(sum(values) / len(values)) if values else 0.0

    def ratio_median(num, den):
        return median([n / d for n, d in zip(num, den) if d > 0])

    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (median([v / 1e6 for v in self_ns[name]]), "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (mean(calls[name]), "count")
    for name in PER_CALL_MS:
        out[f"{name}.ms"] = (median(call_ms[name]), "ms")
    for label, _, _ in APPEND_BINS:
        out[f"model.append.call_ms.{label}"] = (median(append_ms[label]), "ms")
    out["model.prefill.positions"] = (mean(prefill_positions), "count")
    out["metrics.dtw_cells"] = (mean(dtw_cells), "count")
    out["infer.decode_steps"] = (mean(generated), "count")
    out["infer.truncated_fraction"] = (truncated / spans_generated if spans_generated else 0.0, "fraction")
    out["train.pad_fraction"] = (ratio_median([p - r for p, r in zip(padded, real)], padded), "fraction")
    out["model.loss_position_fraction"] = (ratio_median(lossy, padded), "fraction")
    out["trace.unattributed_fraction"] = (root_self_ns / root_ns if root_ns else 0.0, "fraction")
    out["trace.overhead_fraction"] = (overhead_fraction, "fraction")
    return out
