"""Tests of the benchmark harness itself, at a tiny scale.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from codec_infill import evaluate, train  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.tracer import OP, Tracer, instrument, layer_targets, patched, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Scale  # noqa: E402

TINY = Scale(
    num_utterances=40,
    num_validation=8,
    symbols=(3, 6),
    num_layers=1,
    hidden_dim=16,
    ffn_dim=32,
    num_heads=2,
    batch_frame_budget=256,
    checkpoint_every=2,
    loss_steps=(1, 3),
    max_span_words=2,
    prompt_frames=(20, 60),
    max_generated_steps=6,
    setup_repeats=1,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
# names the workloads patch for their own timing, on top of the tracer's
PROBES = [(train, "eden_lr"), (train, "make_batch"), (evaluate, "edit_speech")]


def _workload(name, tmp_path):
    return WORKLOADS[name](3, TINY, tmp_path / "work")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_smoke(name, tmp_path):
    metrics, attempted, failed, lines = run.end_to_end(_workload(name, tmp_path), 0.2)
    assert attempted >= 1 and failed == 0, lines
    assert set(metrics) == END_TO_END
    for value, _unit in metrics.values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize(
    "name, exercised",
    [
        ("train", ["model.forward.self_ms", "train.adamw_step.self_ms", "model.loss_position_fraction"]),
        ("eval", ["metrics.dtw_align.self_ms", "metrics.dtw_cells", "infer.sample_token.calls"]),
        ("tts_long", ["model.prefill.positions", "model.append.call_ms.ctx_0-511"]),
    ],
)
def test_traced_smoke(name, exercised, tmp_path):
    out = tmp_path / "trace.json"
    metrics, attempted, failed, lines = run.traced(_workload(name, tmp_path), 0.2, out)
    assert failed == 0, lines
    assert set(metrics) == PER_LAYER
    for metric in exercised:
        assert metrics[metric][0] > 0, metric
    assert json.loads(out.read_text())["spans"]


def _busy(ms):
    end = time.perf_counter() + ms / 1e3
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_span_durations():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(1))
    mid = tracer.wrap("mid", lambda: (_busy(1), leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf(), _busy(1)))
    tracer.active = True
    for _ in range(3):
        tracer.begin_op()
        top()
        mid()
        tracer.end_op()
    own = self_times(tracer.spans)
    assert all(v >= 0 for v in own)
    for root_index, root in enumerate(tracer.spans):
        if root.name != OP:
            continue
        subtree = [i for i, s in enumerate(tracer.spans) if s.op == root.op]
        assert root_index in subtree
        assert sum(own[i] for i in subtree) == root.end - root.start
    # every span's own time plus its children's durations is its duration
    for i, span in enumerate(tracer.spans):
        children = [s for s in tracer.spans if s.parent == i]
        assert own[i] + sum(c.end - c.start for c in children) == span.end - span.start


def test_self_times_sum_on_a_traced_run(tmp_path):
    workload = _workload("eval", tmp_path)
    workload.setup()
    tracer = Tracer()
    with patched(instrument(tracer)):
        tracer.active = True
        workload.run(count=2, tracer=tracer)
    own = self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.name == OP]
    assert len(roots) == 2
    for root in roots:
        in_op = [o for s, o in zip(tracer.spans, own) if s.op == root.op]
        assert sum(in_op) == root.end - root.start


def _snapshot():
    targets = [(owner, attr) for owner, attr, _, _ in layer_targets()] + PROBES
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr in targets}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_leaves_codec_infill_unpatched(name, tmp_path):
    before = _snapshot()
    run.traced(_workload(name, tmp_path), 0.2, tmp_path / "trace.json")
    assert _snapshot() == before


def test_patched_restores_after_an_error():
    before = _snapshot()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(instrument(tracer)):
            assert train.forward is not before[(id(train), "forward")]
            raise RuntimeError("boom")
    assert _snapshot() == before


def test_tail_has_ten_samples_beyond_and_never_undercuts_the_median():
    values = list(range(1, 41))
    value, pct, beyond = run.tail(values)
    assert value == 30 and pct == 75.0 and beyond == 10
    assert sum(1 for v in values if v > value) == 10
    value, pct, beyond = run.tail(list(range(1, 16)))
    assert (value, pct, beyond) == (8, 50.0, 7)
