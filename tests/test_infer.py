"""Inference pipeline tests: diffing, span selection, sampling, generation.

Model-dependent behaviour is exercised with seeded stub decoders that
implement the session protocol (``new_session`` -> object with ``logits``
and ``append``); learned-behaviour checks live in the acceptance suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_infill.errors import InvalidInputError
from codec_infill.infer import (
    Alignment,
    EditConfig,
    RunState,
    SamplingConfig,
    apply_script,
    build_infill_context,
    diff_transcripts,
    discard_longest,
    edit_speech,
    generate_infill,
    sample_token,
    select_edit_spans,
    zero_shot_tts,
)
from codec_infill.model import ModelConfig, TransformerDecoder, new_model
from codec_infill.rearrange import stack_span
from codec_infill.tokens import EMPTY, EOS, EOU, CodecMatrix, Span, SpecialToken, mask_marker

from helpers import (
    PlannedDecoder,
    StubDecoder,
    mask_plan,
    nucleus_distribution,
    random_matrix,
    sample_token_oracle,
)


MODEL_CFG = ModelConfig(
    num_codebooks=4,
    codebook_sizes=(64, 64, 64, 64),
    text_vocab_size=30,
    loss_weights=(5.0, 1.0, 0.5, 0.1),
)


def word_alignment(num_words, frames_per_word=10):
    return Alignment(
        [Span(frames_per_word * i, frames_per_word * (i + 1)) for i in range(num_words)],
        frames_per_word * num_words,
    )


class TestDiff:
    def test_identity_empty_script(self):
        assert not diff_transcripts(["a", "b", "c"], ["a", "b", "c"])

    def test_single_substitution(self):
        script = diff_transcripts(["a", "b", "c"], ["a", "x", "c"])
        assert len(script.ops) == 1
        op = script.ops[0]
        assert op.kind == "substitution"
        assert (op.orig_start, op.orig_end) == (1, 2)
        assert (op.repl_start, op.repl_end) == (1, 2)

    def test_two_word_insertion_merges(self):
        script = diff_transcripts(["a", "b"], ["a", "x", "y", "b"])
        assert len(script.ops) == 1
        op = script.ops[0]
        assert op.kind == "insertion"
        assert (op.orig_start, op.orig_end) == (1, 1)
        assert (op.repl_start, op.repl_end) == (1, 3)

    def test_deletion(self):
        script = diff_transcripts(["a", "b", "c", "d"], ["a", "d"])
        assert [op.kind for op in script.ops] == ["deletion"]
        assert (script.ops[0].orig_start, script.ops[0].orig_end) == (1, 3)

    def brute_force_cost(self, a, b):
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def go(i, j):
            if i == len(a):
                return len(b) - j
            if j == len(b):
                return len(a) - i
            best = go(i + 1, j + 1) + (a[i] != b[j])
            best = min(best, go(i + 1, j) + 1, go(i, j + 1) + 1)
            return best

        return go(0, 0)

    def test_scripts_are_minimal_and_reproduce_target(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = [int(v) for v in rng.integers(0, 5, size=rng.integers(0, 9))]
            b = [int(v) for v in rng.integers(0, 5, size=rng.integers(0, 9))]
            script = diff_transcripts(a, b)
            assert apply_script(script, a, b) == b
            cost = sum(
                max(op.orig_end - op.orig_start, op.repl_end - op.repl_start)
                for op in script.ops
            )
            assert cost == self.brute_force_cost(tuple(a), tuple(b))

    def test_ops_sorted_and_disjoint(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = [int(v) for v in rng.integers(0, 4, size=10)]
            b = [int(v) for v in rng.integers(0, 4, size=10)]
            ops = diff_transcripts(a, b).ops
            for x, y in zip(ops, ops[1:]):
                assert x.orig_end <= y.orig_start


class TestSelectEditSpans:
    def test_substitution_margin(self):
        """Word 2 at [20, 30), margin 0.04 s at 50 fps = 2 frames."""
        align = word_alignment(5)
        script = diff_transcripts(list("abcde"), list("abXde"))
        spans = select_edit_spans(script, align, 0.04, 50)
        assert spans == [Span(18, 32)]

    def test_zero_margin_deletion_is_word_span(self):
        align = word_alignment(3)
        script = diff_transcripts(list("abc"), list("bc"))
        spans = select_edit_spans(script, align, 0.0, 50)
        assert spans == [Span(0, 10)]

    def test_insertion_centered_on_boundary(self):
        """Insert between words 1 and 2 (boundary frame 20), 0.04 s margin."""
        align = word_alignment(4)
        script = diff_transcripts(list("abcd"), list("abXcd"))
        assert script.ops[0].kind == "insertion"
        spans = select_edit_spans(script, align, 0.04, 50)
        assert spans == [Span(18, 22)]

    def test_overlapping_spans_merge(self):
        align = word_alignment(4)
        script = diff_transcripts(list("abcd"), list("aXYd"))
        # substitutions of words 1 and 2 merge into one op already; widen
        # a two-op case instead
        script = diff_transcripts(list("abcd"), list("XbcY"))
        spans = select_edit_spans(script, align, 0.3, 50)  # 15-frame margin
        assert spans == [Span(0, 40)]

    def test_clipped_to_bounds(self):
        align = word_alignment(2)
        script = diff_transcripts(list("ab"), list("Xb"))
        spans = select_edit_spans(script, align, 1.0, 50)
        assert spans == [Span(0, 20)]


class TestSampling:
    def test_nucleus_hand_example(self):
        """Probs (0.5, 0.3, 0.15, 0.05) with p=0.8 keep the top two."""
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        ids, probs = nucleus_distribution(logits, SamplingConfig(top_p=0.8), RunState())
        assert ids.tolist() == [0, 1]
        np.testing.assert_allclose(probs, [0.625, 0.375], rtol=1e-12)

    def test_full_nucleus_is_plain_softmax(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal(10)
        cfg = SamplingConfig(top_p=1.0, temperature=1.0, repetition_gamma=0.0)
        ids, probs = nucleus_distribution(logits, cfg, RunState())
        reference = np.exp(logits - logits.max())
        reference /= reference.sum()
        assert sorted(ids.tolist()) == list(range(10))
        np.testing.assert_allclose(probs[np.argsort(ids)], reference, rtol=1e-10)

    def test_repetition_damping_formula(self):
        """Run of 2 for a token with logit 3.0 and gamma 0.5: effective 2.0."""
        logits = np.array([3.0, 1.0])
        state = RunState(token=0, length=2)
        cfg = SamplingConfig(top_p=1.0, repetition_gamma=0.5)
        ids, probs = nucleus_distribution(logits, cfg, state)
        expected = np.exp([2.0, 1.0])
        expected /= expected.sum()
        np.testing.assert_allclose(probs[np.argsort(ids)], expected, rtol=1e-12)

    def test_damping_monotone_in_run_length(self):
        logits = np.array([3.0, 1.0, 0.5])
        cfg = SamplingConfig(top_p=1.0, repetition_gamma=0.5)
        last = 1.0
        for run in range(1, 8):
            ids, probs = nucleus_distribution(logits, cfg, RunState(token=0, length=run))
            p0 = probs[ids.tolist().index(0)]
            assert p0 < last
            last = p0

    def test_nucleus_minimal_prefix_with_ties(self):
        """Equal probabilities break ties by token id."""
        logits = np.zeros(4)  # uniform 0.25 each
        ids, _ = nucleus_distribution(logits, SamplingConfig(top_p=0.5), RunState())
        assert ids.tolist() == [0, 1]

    def test_sample_token_respects_allowed_set(self):
        rng = np.random.default_rng(3)
        logits = np.array([10.0, 0.0, 0.0, 0.0])
        cfg = SamplingConfig(top_p=1.0)
        allowed = np.array([1, 2, 3])
        for _ in range(50):
            assert sample_token(logits[None], cfg, [RunState()], [rng], allowed)[0] in (1, 2, 3)


@st.composite
def sampling_cases(draw):
    """Logits of 1-10 rows (small integers make exact ties common), runs, allowed ids, seeds."""
    rows = draw(st.integers(1, 10))
    vocab = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        logits = rng.integers(-3, 4, size=(rows, vocab)).astype(np.float64)
    else:
        logits = rng.normal(0.0, 3.0, size=(rows, vocab)).astype(np.float32)
    cfg = SamplingConfig(
        top_p=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
        temperature=draw(st.sampled_from([1.0, 0.7, 1.3])),
        repetition_gamma=draw(st.sampled_from([0.0, 0.5, 2.0])),
    )
    runs = [
        RunState(int(rng.integers(0, vocab)), int(rng.integers(1, 5))) if rng.random() < 0.6 else RunState()
        for _ in range(rows)
    ]
    allowed = None
    if draw(st.booleans()):
        allowed = np.flatnonzero(rng.random(vocab) < 0.6)
        allowed = allowed if allowed.size else np.array([int(rng.integers(0, vocab))])
    seeds = rng.integers(0, 2**32, size=rows).tolist()
    return logits, cfg, runs, allowed, seeds


class TestVectorizedSampling:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sampling_cases())
    def test_rows_match_per_row_oracle(self, case):
        """Every row draws the oracle's id from its own stream, call after call."""
        logits, cfg, runs, allowed, seeds = case
        batched = [np.random.default_rng(s) for s in seeds]
        alone = [np.random.default_rng(s) for s in seeds]
        for _ in range(3):
            ids = sample_token(logits, cfg, runs, batched, allowed)
            expected = [
                sample_token_oracle(logits[r], cfg, runs[r], alone[r], allowed)
                for r in range(len(logits))
            ]
            assert ids.tolist() == expected
        # each stream was advanced by exactly one draw per call
        assert [g.random() for g in batched] == [g.random() for g in alone]

    def test_draws_at_the_cdf_steps(self):
        """Draws one ulp below and exactly at each step of the nucleus cdf.

        The first row has probabilities (0.15, 0.3, 0.05, 0.3, 0.2): with
        p = 0.75 the nucleus is ids 1, 3 (a tie, by id), 4 with cdf steps
        0.375, 0.75, 1.  Twelve more rows have 64 seeded logits and
        p = 0.95.  A draw u picks the first id whose cdf step exceeds u,
        as ``Generator.choice`` does, so a slip in the nucleus or the tie
        order moves a pick, and so does a rounding change in its mass or
        its cdf on some of the seeded rows.
        """

        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        cases = [(np.log([0.15, 0.3, 0.05, 0.3, 0.2]), 0.75)] + [
            (np.random.default_rng(seed).normal(0.0, 2.0, size=64), 0.95) for seed in range(12)
        ]
        for r, (row, top_p) in enumerate(cases):
            cfg = SamplingConfig(top_p=top_p, repetition_gamma=0.0)
            ids, probs = nucleus_distribution(row, cfg, RunState())
            cdf = np.cumsum(probs)
            cdf /= cdf[-1]  # the cdf Generator.choice searches
            if r == 0:
                assert ids.tolist() == [1, 3, 4]
                np.testing.assert_allclose(cdf, [0.375, 0.75, 1.0], rtol=1e-12)
            else:
                assert 3 < len(ids) < 64
            draws = [0.0, np.nextafter(1.0, 0.0)]
            expected = [ids[0], ids[-1]]
            for i, step in enumerate(cdf[:-1]):
                draws += [np.nextafter(step, 0.0), step]
                expected += [ids[i], ids[i + 1]]
            got = [sample_token(row[None], cfg, [RunState()], [Fixed(u)])[0] for u in draws]
            assert got == expected

    def test_ties_break_by_token_id(self):
        """Four equal logits and p = 0.5: the nucleus is ids 0 and 1 in every row."""
        cfg = SamplingConfig(top_p=0.5)
        rngs = [np.random.default_rng(s) for s in range(40)]
        ids = sample_token(np.zeros((40, 4)), cfg, [RunState()] * 40, rngs)
        assert set(ids.tolist()) == {0, 1}


class TestGenerateInfill:
    def test_zero_masks(self):
        decoder = StubDecoder(MODEL_CFG, 3)
        out = generate_infill(
            decoder, MODEL_CFG, [([1, 2], [EOU], 0)], SamplingConfig(), [np.random.default_rng(0)]
        )
        assert out.spans == [] and out.truncated == []

    def test_stub_echo_span(self):
        """A model that deterministically emits a known span reproduces it."""
        decoder = StubDecoder(MODEL_CFG, 5)
        out = generate_infill(
            decoder, MODEL_CFG, [([1, 2], [mask_marker(1), EOU], 1)], SamplingConfig(seed=1),
            [np.random.default_rng(1)],
        )
        assert len(out.spans) == 1
        span = out.spans[0]
        assert span.shape == (5, 4)
        assert not out.truncated[0]
        np.testing.assert_array_equal(span[:, 0], np.arange(5) % 64)

    def test_generated_steps_unstack_cleanly(self):
        """The decode loop forces the delay pattern, so frames are valid ids."""
        decoder = StubDecoder(MODEL_CFG, 7)
        out = generate_infill(
            decoder, MODEL_CFG, [([0], [mask_marker(1), EOU], 1)], SamplingConfig(seed=2),
            [np.random.default_rng(2)],
        )
        span = out.spans[0]
        assert np.all(span >= 0)
        assert np.all(span < 64)

    def test_session_sees_grammar_markers(self):
        decoder = StubDecoder(MODEL_CFG, 2)
        session_holder = []
        orig = decoder.new_session

        def capture(contexts):
            s = orig(contexts)
            session_holder.append(s)
            return s

        decoder.new_session = capture
        generate_infill(
            decoder, MODEL_CFG, [([0], [EOU], 2)], SamplingConfig(seed=3), [np.random.default_rng(3)]
        )
        appended = session_holder[0].appended[0]
        markers = [it for it in appended if isinstance(it, SpecialToken)]
        assert markers == [mask_marker(1), EOS, mask_marker(2), EOS]
        # every appended frame step has the leading delay pattern respected
        steps = [it for it in appended if isinstance(it, tuple)]
        span_steps = steps[: 2 + MODEL_CFG.num_codebooks - 1]
        for t, step in enumerate(span_steps):
            for k in range(1, MODEL_CFG.num_codebooks + 1):
                f = t - k + 1
                if f < 0 or f >= 2:
                    assert step[k - 1] == EMPTY
                else:
                    assert step[k - 1] != EMPTY

    def test_truncation_flag_on_budget(self):
        decoder = StubDecoder(MODEL_CFG, 500)
        out = generate_infill(
            decoder, MODEL_CFG, [([0], [mask_marker(1), EOU], 1)],
            SamplingConfig(seed=4, max_generated_steps=6), [np.random.default_rng(4)],
        )
        assert out.truncated == [True]
        assert len(out.spans[0]) == 6

    def test_too_many_masks_rejected(self):
        decoder = StubDecoder(MODEL_CFG, 2)
        with pytest.raises(InvalidInputError):
            generate_infill(
                decoder, MODEL_CFG, [([0], [EOU], MODEL_CFG.max_mask_spans + 1)],
                SamplingConfig(), [np.random.default_rng(5)],
            )


def infill_rows(masks, cfg=MODEL_CFG, seed=0):
    """(text, context, masks) rows over random 30-frame matrices with ``masks[r]`` spans."""
    rng = np.random.default_rng(seed)
    rows = []
    for r, count in enumerate(masks):
        matrix = random_matrix(rng, 30, cfg.num_codebooks, vocab=cfg.codebook_sizes[0])
        spans = [Span(2 + 9 * i, 4 + 9 * i + r % 3) for i in range(count)]
        text = [int(v) for v in rng.integers(0, cfg.text_vocab_size, size=1 + r)]
        rows.append((text, build_infill_context(matrix, spans), count))
    return rows


class TestBatchedRows:
    # mask lengths per row: EOS at different steps, one span truncated at the cap of 6
    LENGTHS = [[3], [0, 5], [6, 2, 1], [8], [1, 4], [2, 2, 9]]

    def test_each_row_matches_the_row_decoded_alone(self):
        """Rows with 1-3 masks leave the batch at different steps; outputs are unchanged."""
        cap = 6
        cfg = SamplingConfig(seed=5, max_generated_steps=cap)
        rows = infill_rows([len(lengths) for lengths in self.LENGTHS])
        plans = [mask_plan(lengths, cap, MODEL_CFG) for lengths in self.LENGTHS]
        rngs = [np.random.default_rng([5, r]) for r in range(len(rows))]
        batched = generate_infill(PlannedDecoder(MODEL_CFG, plans), MODEL_CFG, rows, cfg, rngs)
        assert batched.row_masks == [len(lengths) for lengths in self.LENGTHS]
        for r, ((spans, flags), lengths) in enumerate(zip(batched.by_row(), self.LENGTHS)):
            alone = generate_infill(
                PlannedDecoder(MODEL_CFG, [plans[r]]), MODEL_CFG, [rows[r]], cfg,
                [np.random.default_rng([5, r])],
            )
            assert [s.tolist() for s in spans] == [s.tolist() for s in alone.spans]
            assert flags == alone.truncated == [n >= cap for n in lengths]
            assert [len(s) for s in spans] == [min(n, cap) for n in lengths]
        # a mask takes its marker, n + K - 1 frame steps and EOS; the longest row sets the count
        k = MODEL_CFG.num_codebooks
        assert batched.decode_steps == max(
            sum(min(n, cap) + k + 1 for n in lengths) for lengths in self.LENGTHS
        )

    def test_rows_without_masks_take_no_part(self):
        decoder = StubDecoder(MODEL_CFG, [4, 2])
        rows = infill_rows([0, 1, 0, 1])
        rngs = [np.random.default_rng(r) for r in range(4)]
        out = generate_infill(decoder, MODEL_CFG, rows, SamplingConfig(), rngs)
        assert decoder.rows == 2 and decoder.sessions == 1
        assert [len(s) for s in out.spans] == [4, 2]
        assert [len(spans) for spans, _ in out.by_row()] == [0, 1, 0, 1]
        none = generate_infill(decoder, MODEL_CFG, infill_rows([0, 0]), SamplingConfig(), rngs[:2])
        assert none.spans == [] and none.decode_steps == none.prefill_positions == 0
        assert decoder.sessions == 1

    def test_real_model_rows_match_rows_decoded_alone(self):
        """A float64 model gives every row the frames it gets in a one-row session."""
        sizes = (5, 5, 5)
        cfg = ModelConfig(
            num_layers=1, hidden_dim=8, ffn_dim=16, num_heads=2, num_codebooks=3,
            codebook_sizes=sizes, text_vocab_size=7, max_positions=512,
            loss_weights=(1.0,) * 3, dtype="float64",
        )
        decoder = TransformerDecoder(new_model(cfg, seed=3))
        rows = infill_rows([1, 2, 1, 3, 2], cfg, seed=4)
        sampling = SamplingConfig(max_generated_steps=12)
        rngs = [np.random.default_rng([9, r]) for r in range(len(rows))]
        batched = generate_infill(decoder, cfg, rows, sampling, rngs)
        for r, (spans, flags) in enumerate(batched.by_row()):
            alone = generate_infill(decoder, cfg, [rows[r]], sampling, [np.random.default_rng([9, r])])
            assert [s.tolist() for s in spans] == [s.tolist() for s in alone.spans]
            assert flags == alone.truncated
        assert sum(len(s) for s in batched.spans) > 0


def pinned_generation(k_count, cap, spans):
    """generate_infill on a tiny seeded model: K codebooks of 5 tokens, a step cap."""
    sizes = (5,) * k_count
    cfg = ModelConfig(
        num_layers=1, hidden_dim=8, ffn_dim=16, num_heads=2, num_codebooks=k_count,
        codebook_sizes=sizes, text_vocab_size=7, max_positions=512,
        loss_weights=(1.0,) * k_count, dtype="float64",
    )
    state = new_model(cfg, seed=k_count)
    frames = np.random.default_rng(k_count).integers(0, 5, size=(8, k_count))
    context = build_infill_context(CodecMatrix(frames, codebook_sizes=sizes), spans)
    rng = np.random.default_rng([cap, len(spans)])
    return generate_infill(
        TransformerDecoder(state), cfg, [([1, 2, 3], context, len(spans))],
        SamplingConfig(max_generated_steps=cap), [rng],
    )


ONE_SPAN = [Span(2, 5)]
TWO_SPANS = [Span(1, 3), Span(5, 7)]

# recorded from the implementation with separate open-length and tail loops
PINNED_GENERATIONS = [
    (1, 3, ONE_SPAN, [True], [[[0], [3], [1]]]),
    (1, 3, TWO_SPANS, [False, False], [[], [[2]]]),
    (1, 60, ONE_SPAN, [False], [[]]),
    (1, 60, TWO_SPANS, [False, False], [[[2], [0]], [[3], [0], [2], [4]]]),
    (2, 3, ONE_SPAN, [False], [[[2, 3], [1, 4]]]),
    (2, 3, TWO_SPANS, [True, False], [[[2, 3], [4, 1], [1, 0]], [[3, 1]]]),
    (2, 60, ONE_SPAN, [False], [[]]),
    (2, 60, TWO_SPANS, [False, False], [[[0, 3], [2, 1], [0, 2], [2, 0], [1, 2]], [[1, 4], [0, 1]]]),
    (4, 3, ONE_SPAN, [False], [[]]),
    (4, 3, TWO_SPANS, [True, False], [[[3, 0, 4, 0], [4, 1, 0, 3], [3, 4, 4, 2]], [[2, 2, 4, 1]]]),
    (4, 60, ONE_SPAN, [False], [[
        [1, 0, 4, 1], [4, 1, 0, 2], [1, 3, 3, 0], [3, 4, 4, 3],
        [0, 1, 0, 1], [1, 3, 4, 3], [4, 2, 3, 2], [0, 3, 0, 1],
    ]]),
    (4, 60, TWO_SPANS, [False, False], [
        [[4, 0, 0, 0], [3, 1, 2, 2], [2, 0, 3, 3], [4, 2, 2, 4], [3, 0, 4, 2], [1, 3, 2, 3], [0, 0, 3, 2]],
        [[1, 4, 2, 4], [4, 3, 1, 1], [3, 0, 3, 3], [4, 3, 2, 0], [3, 0, 1, 4], [2, 1, 4, 0]],
    ]),
]


@pytest.mark.parametrize("k_count, cap, spans, truncated, frames", PINNED_GENERATIONS)
def test_generate_infill_pinned_outputs(k_count, cap, spans, truncated, frames):
    """Frames and truncation flags of a real model, K in {1, 2, 4}, caps 3 and 60."""
    result = pinned_generation(k_count, cap, spans)
    assert result.truncated == truncated
    assert [s.tolist() for s in result.spans] == frames
    for s in result.spans:
        assert s.shape[1:] == (k_count,) and len(s) <= cap


class TestEditPipeline:
    def test_discard_longest_forced_example(self):
        lengths = list(range(100, 110))
        survivors = discard_longest(lengths, 4)
        assert survivors == [0, 1, 2, 3, 4, 5]
        assert [lengths[i] for i in survivors] == [100, 101, 102, 103, 104, 105]

    def test_identity_edit_returns_input(self):
        rng = np.random.default_rng(6)
        x = random_matrix(rng, 40, 4)
        x = CodecMatrix(x.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        align = word_alignment(4)
        decoder = StubDecoder(MODEL_CFG, 3)
        words = [1, 2, 3, 4]
        out, report = edit_speech(
            decoder, MODEL_CFG, x, words, words, align, EditConfig(), SamplingConfig(seed=7)
        )
        assert out == x
        assert report.identity
        assert decoder.sessions == 0  # pipeline short-circuits

    def test_ten_candidates_discard_and_report(self):
        rng = np.random.default_rng(8)
        x = random_matrix(rng, 40, 4)
        x = CodecMatrix(x.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        align = word_alignment(4)
        decoder = StubDecoder(MODEL_CFG, 6)
        out, report = edit_speech(
            decoder, MODEL_CFG, x, [1, 2, 3, 4], [1, 9, 3, 4], align,
            EditConfig(), SamplingConfig(seed=9),
        )
        assert len(report.candidate_lengths) == 10
        assert [c.epsilon for c in report.candidates] == [
            0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11, 0.12, 0.13, 0.14
        ]
        survivors = discard_longest(report.candidate_lengths, 4)
        assert report.chosen_index in survivors

    def test_decode_counters(self):
        """Ten margins, six distinct contexts: one prefill of those, one batched decode."""
        rng = np.random.default_rng(8)
        x = random_matrix(rng, 40, 4)
        x = CodecMatrix(x.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        align = word_alignment(4)
        decoder = StubDecoder(MODEL_CFG, 6)
        words, target = [1, 2, 3, 4], [1, 9, 3, 4]
        _, report = edit_speech(
            decoder, MODEL_CFG, x, words, target, align, EditConfig(), SamplingConfig(seed=9)
        )
        script = diff_transcripts(words, target)
        # margins of 2, 3, 3, 4, 4, 5, 5, 6, 6 and 7 frames around word 1
        spans = [select_edit_spans(script, align, eps, 50) for eps in EditConfig().margin_schedule]
        assert len({tuple(s) for s in spans}) == 6
        # the longest context (2-frame margin, span [8, 22)): 8 + 3 stacked steps,
        # the marker, 18 + 3 stacked steps and EOU; each row also holds 4 target words
        assert max(len(build_infill_context(x, s)) for s in spans) == 11 + 1 + 21 + 1
        assert report.prefill_positions == 6 * (4 + 34)
        # the mask marker, 6 + K - 1 frame steps and EOS
        assert report.decode_steps == 1 + 6 + 3 + 1
        assert decoder.sessions == 1 and decoder.rows == 10

    def test_unedited_frames_bit_identical(self):
        rng = np.random.default_rng(10)
        x = random_matrix(rng, 40, 4)
        x = CodecMatrix(x.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        align = word_alignment(4)
        decoder = StubDecoder(MODEL_CFG, 4)
        words, target = [1, 2, 3, 4], [1, 9, 3, 4]
        out, report = edit_speech(
            decoder, MODEL_CFG, x, words, target, align, EditConfig(), SamplingConfig(seed=11)
        )
        # widest margin 0.14 s at 50 fps = 7 frames around word 1's [10, 20)
        script = diff_transcripts(words, target)
        widest = select_edit_spans(script, align, 0.14, x.frame_rate)
        lo, hi = widest[0].start, widest[0].end
        chosen_eps = report.candidates[report.chosen_index].epsilon
        spans = select_edit_spans(script, align, chosen_eps, x.frame_rate)
        s = spans[0]
        gen_len = report.candidate_lengths[report.chosen_index] - (x.num_frames - len(s))
        np.testing.assert_array_equal(out.frames[:lo], x.frames[:lo])
        np.testing.assert_array_equal(
            out.frames[s.start + gen_len + (hi - s.end):], x.frames[hi:]
        )


class TestZeroShotTts:
    def test_empty_target_returns_prompt(self):
        rng = np.random.default_rng(12)
        prompt = random_matrix(rng, 12, 4)
        prompt = CodecMatrix(prompt.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        decoder = StubDecoder(MODEL_CFG, 4)
        out, report = zero_shot_tts(
            decoder, MODEL_CFG, prompt, [1, 2], [], EditConfig(), SamplingConfig(seed=13)
        )
        assert out == prompt and report.identity

    def test_shortest_of_five_first_occurrence(self):
        """Stub lengths (12, 9, 15, 9, 20): candidate 1 wins."""
        rng = np.random.default_rng(14)
        prompt = random_matrix(rng, 10, 4)
        prompt = CodecMatrix(prompt.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        decoder = StubDecoder(MODEL_CFG, [12, 9, 15, 9, 20])
        out, report = zero_shot_tts(
            decoder, MODEL_CFG, prompt, [1, 2], [3, 4], EditConfig(), SamplingConfig(seed=15)
        )
        assert report.candidate_lengths == [12, 9, 15, 9, 20]
        assert report.chosen_index == 1
        assert out.num_frames == prompt.num_frames + 9

    def test_five_identical_contexts_prefill_once(self):
        rng = np.random.default_rng(14)
        prompt = random_matrix(rng, 10, 4)
        prompt = CodecMatrix(prompt.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        decoder = StubDecoder(MODEL_CFG, [12, 9, 15, 9, 20])
        _, report = zero_shot_tts(
            decoder, MODEL_CFG, prompt, [1, 2], [3, 4], EditConfig(), SamplingConfig(seed=15)
        )
        # 4 text ids, 10 + 3 stacked prompt steps, the marker, 3 empty-span steps, EOU
        assert report.prefill_positions == 4 + 13 + 1 + 3 + 1
        # the longest sample: its marker, 20 + K - 1 frame steps and EOS
        assert report.decode_steps == 1 + 20 + 3 + 1
        assert decoder.sessions == 1

    def test_prompt_frames_preserved_verbatim(self):
        rng = np.random.default_rng(16)
        prompt = random_matrix(rng, 10, 4)
        prompt = CodecMatrix(prompt.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        decoder = StubDecoder(MODEL_CFG, 6)
        out, _ = zero_shot_tts(
            decoder, MODEL_CFG, prompt, [1], [2, 3], EditConfig(), SamplingConfig(seed=17)
        )
        np.testing.assert_array_equal(out.frames[:10], prompt.frames)

    def test_context_matches_training_layout(self):
        rng = np.random.default_rng(18)
        prompt = random_matrix(rng, 6, 4)
        prompt = CodecMatrix(prompt.frames, codebook_sizes=MODEL_CFG.codebook_sizes)
        captured = []

        class Capture(StubDecoder):
            def new_session(self, contexts):
                captured.append((list(contexts[0][0]), list(contexts[0][1])))
                return super().new_session(contexts)

        decoder = Capture(MODEL_CFG, 3)
        zero_shot_tts(
            decoder, MODEL_CFG, prompt, [1, 2], [3], EditConfig(), SamplingConfig(seed=19)
        )
        text_ids, items = captured[0]
        assert text_ids == [1, 2, 3]
        frames = [tuple(int(v) for v in row) for row in prompt.frames]
        expected = stack_span(frames, 4) + [mask_marker(1)] + stack_span([], 4) + [EOU]
        assert items == expected
