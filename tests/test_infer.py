"""Inference pipeline tests: diffing, span selection, sampling, generation.

Model-dependent behaviour is exercised with seeded stub decoders that
implement the session protocol (``new_session`` -> object with ``logits``
and ``append``); learned-behaviour checks live in the acceptance suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_infill import infer
from codec_infill.errors import InvalidInputError
from codec_infill.infer import (
    EditConfig,
    RunState,
    SamplingConfig,
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
from codec_infill.rearrange import causal_mask, delay_stack, place_spans, stack_span
from codec_infill.tokens import EMPTY, EOS, EOU, Alignment, CodecMatrix, Span, SpecialToken, mask_marker

from helpers import (
    PlannedDecoder,
    StubDecoder,
    StubSession,
    TeacherDecoder,
    apply_script,
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
        assert len(script) == 1
        op = script[0]
        assert op.kind == "substitution"
        assert (op.orig_start, op.orig_end) == (1, 2)
        assert (op.repl_start, op.repl_end) == (1, 2)

    def test_two_word_insertion_merges(self):
        script = diff_transcripts(["a", "b"], ["a", "x", "y", "b"])
        assert len(script) == 1
        op = script[0]
        assert op.kind == "insertion"
        assert (op.orig_start, op.orig_end) == (1, 1)
        assert (op.repl_start, op.repl_end) == (1, 3)

    def test_deletion(self):
        script = diff_transcripts(["a", "b", "c", "d"], ["a", "d"])
        assert [op.kind for op in script] == ["deletion"]
        assert (script[0].orig_start, script[0].orig_end) == (1, 3)

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
                for op in script
            )
            assert cost == self.brute_force_cost(tuple(a), tuple(b))

    def test_ops_sorted_and_disjoint(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = [int(v) for v in rng.integers(0, 4, size=10)]
            b = [int(v) for v in rng.integers(0, 4, size=10)]
            ops = diff_transcripts(a, b)
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
        assert script[0].kind == "insertion"
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
        allowed = np.array([False, True, True, True])
        for _ in range(50):
            assert sample_token(logits[None], cfg, [RunState()], [rng], allowed)[0] in (1, 2, 3)


@st.composite
def sampling_cases(draw):
    """Logits of 1-10 rows (small integers make exact ties common), runs, a keep-mask, seeds."""
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
        allowed = np.isin(np.arange(vocab), allowed if allowed.size else int(rng.integers(0, vocab)))
    seeds = rng.integers(0, 2**32, size=rows).tolist()
    return logits, cfg, runs, allowed, seeds


class TestVectorizedSampling:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sampling_cases())
    def test_rows_match_per_row_oracle(self, case):
        """Every row draws the oracle's id from its own stream, call after call."""
        logits, cfg, runs, allowed, seeds = case
        keep = np.ones(logits.shape[1], dtype=bool) if allowed is None else allowed  # the oracle keeps all on None
        batched = [np.random.default_rng(s) for s in seeds]
        alone = [np.random.default_rng(s) for s in seeds]
        for _ in range(3):
            ids = sample_token(logits, cfg, runs, batched, keep)
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
        p = 0.95, and twelve are at the toy codec's head width, 262 ids
        (256 real and 6 specials) of normal(0, 0.3) logits with p = 0.8,
        whose nuclei of ~185 ids run past numpy's 128-element pairwise
        block.  A draw u picks the first id whose cdf step exceeds u, as
        ``Generator.choice`` does, so a slip in the nucleus or the tie
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
        ] + [(np.random.default_rng(seed).normal(0.0, 0.3, size=262), 0.8) for seed in range(12)]
        for r, (row, top_p) in enumerate(cases):
            cfg = SamplingConfig(top_p=top_p, repetition_gamma=0.0)
            ids, probs = nucleus_distribution(row, cfg, RunState())
            cdf = np.cumsum(probs)
            cdf /= cdf[-1]  # the cdf Generator.choice searches
            if r == 0:
                assert ids.tolist() == [1, 3, 4]
                np.testing.assert_allclose(cdf, [0.375, 0.75, 1.0], rtol=1e-12)
            elif row.size == 64:
                assert 3 < len(ids) < 64
            else:
                assert 128 < len(ids) < 262
            draws = [0.0, np.nextafter(1.0, 0.0)]
            expected = [ids[0], ids[-1]]
            for i, step in enumerate(cdf[:-1]):
                draws += [np.nextafter(step, 0.0), step]
                expected += [ids[i], ids[i + 1]]
            everything = np.ones(row.size, dtype=bool)
            got = [sample_token(row[None], cfg, [RunState()], [Fixed(u)], everything)[0] for u in draws]
            assert got == expected

    def test_ties_break_by_token_id(self):
        """Four equal logits and p = 0.5: the nucleus is ids 0 and 1 in every row."""
        cfg = SamplingConfig(top_p=0.5)
        rngs = [np.random.default_rng(s) for s in range(40)]
        ids = sample_token(np.zeros((40, 4)), cfg, [RunState()] * 40, rngs, np.ones(4, dtype=bool))
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


def teacher_config(k_count):
    return ModelConfig(
        num_codebooks=k_count, codebook_sizes=(16,) * k_count, text_vocab_size=30,
        loss_weights=(1.0,) * k_count, max_mask_spans=3,
    )


class TestSpansEnd:
    """A decoder that predicts exactly its training targets reproduces the masked frames.

    Decoding fixes a span's length when head 1 emits EOS at the first step
    whose codebook-1 slot is EMPTY, so that is where training must teach it.
    """

    @pytest.mark.parametrize("k_count", [1, 2, 3, 4])
    def test_edit_layout_spans_come_back_exactly(self, k_count):
        cfg = teacher_config(k_count)
        rng = np.random.default_rng(40 + k_count)
        rows, streams, expected = [], [], []
        for case in range(9):
            num_masks = 1 + case % 3
            matrix = random_matrix(rng, int(rng.integers(8, 20)), k_count, vocab=16)
            lengths = [int(v) for v in rng.integers(1, 5, size=num_masks)]
            spans = place_spans(matrix.num_frames, lengths, rng)
            text = [int(v) for v in rng.integers(0, 30, size=3)]
            stream = delay_stack(causal_mask(matrix, spans)).items
            rows.append((text, build_infill_context(matrix, spans), num_masks))
            streams.append((text, stream))
            expected.append([matrix.frames[s.start : s.end] for s in spans])
        rngs = [np.random.default_rng(case) for case in range(len(rows))]
        out = generate_infill(TeacherDecoder(cfg, streams), cfg, rows, SamplingConfig(), rngs)
        for (spans, truncated), want in zip(out.by_row(), expected):
            assert truncated == [False] * len(want)
            assert [s.tolist() for s in spans] == [w.tolist() for w in want]

    @pytest.mark.parametrize("k_count", [1, 2, 3, 4])
    def test_tts_layout_continuation_comes_back_exactly(self, k_count):
        cfg = teacher_config(k_count)
        rng = np.random.default_rng(50 + k_count)
        matrix = random_matrix(rng, 14, k_count, vocab=16)
        prompt = CodecMatrix(matrix.frames[:9], codebook_sizes=matrix.codebook_sizes)
        stream = delay_stack(causal_mask(matrix, [Span(9, 14)])).items
        decoder = TeacherDecoder(cfg, [([1, 2, 3, 4], stream)])
        out, report = zero_shot_tts(
            decoder, cfg, prompt, [1, 2], [3, 4], EditConfig(), SamplingConfig(seed=5)
        )
        assert report.truncated == [False] * EditConfig().tts_num_samples
        assert report.candidate_lengths == [5] * EditConfig().tts_num_samples
        np.testing.assert_array_equal(out.frames, matrix.frames)


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


class HeadIdSession(StubSession):
    """Head 1 emits id 0 (EOS where its plan does) and head k > 1 emits id k - 1: an id names its head."""

    def _row_logits(self, r):
        eos = self.cfg.special_output_id(0, "eos")
        head1 = eos if super()._row_logits(r)[0].argmax() == eos else 0
        return [self._concentrated(0, head1)] + [
            self._concentrated(k, k) for k in range(1, self.cfg.num_codebooks)
        ]


class HeadIdDecoder(PlannedDecoder):
    def new_session(self, contexts):
        self.session = HeadIdSession(self.cfg, contexts, self.plans)
        return self.session


class TestDrawOrder:
    """Each row's generator is drawn in head order, step after step, in one call per width."""

    LENGTHS = TestBatchedRows.LENGTHS
    CAP = 6

    def expected_heads(self, lengths, k_count):
        """The heads a row whose masks run ``lengths`` frames draws, at each step that draws."""
        steps = []
        for n in lengths:
            length = min(n, self.CAP)
            for t in range(length + k_count - 1):
                steps.append(
                    [0] * (t <= n and t < self.CAP)  # head 1 draws until EOS or the cap
                    + [k for k in range(1, k_count) if 0 <= t - k < length]
                )
        return [heads for heads in steps if heads]

    @pytest.mark.parametrize("sizes", [(64, 64, 64, 64), (5, 6, 5, 7)])
    def test_generators_drawn_in_head_order(self, monkeypatch, sizes):
        cfg = ModelConfig(
            num_codebooks=4, codebook_sizes=sizes, text_vocab_size=30, loss_weights=(1.0,) * 4
        )
        eos = cfg.special_output_id(0, "eos")
        decoder = HeadIdDecoder(cfg, [mask_plan(lengths, self.CAP, cfg) for lengths in self.LENGTHS])
        draws, calls = [], []  # the row of every draw; (step, [(row, head), ...]) of every call

        class Recorder:
            def __init__(self, row):
                self.row, self.rng = row, np.random.default_rng(row)

            def random(self):
                draws.append(self.row)
                return self.rng.random()

        sample = infer.sample_token

        def recording(logits, sampling, runs, rngs, allowed=None):
            first = len(draws)
            tokens = sample(logits, sampling, runs, rngs, allowed)
            rows = [rng.row for rng in rngs]
            assert draws[first:] == rows  # one draw per row of the call, in its row order
            heads = [0 if token == eos else int(token) for token in tokens]
            calls.append((decoder.session.position, list(zip(rows, heads))))
            return tokens

        monkeypatch.setattr(infer, "sample_token", recording)
        rows = infill_rows([len(lengths) for lengths in self.LENGTHS], cfg)
        out = generate_infill(
            decoder, cfg, rows, SamplingConfig(max_generated_steps=self.CAP),
            [Recorder(r) for r in range(len(rows))],
        )
        assert [len(s) for s in out.spans] == [min(n, self.CAP) for lengths in self.LENGTHS for n in lengths]

        steps = {}
        for step, pairs in calls:
            steps.setdefault(step, []).append(pairs)
        for r, lengths in enumerate(self.LENGTHS):
            drawn = [[h for pairs in step for row, h in pairs if row == r] for step in steps.values()]
            assert [heads for heads in drawn if heads] == self.expected_heads(lengths, 4)
        for step in steps.values():
            heads = {h for pairs in step for _, h in pairs}
            assert len(step) == (1 if len(set(sizes)) == 1 else len(heads))


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


def pinned_pipelines(sizes, seed):
    """``edit_speech`` and ``zero_shot_tts`` on a tiny float32 model; frames as digit strings.

    Returns, for the edit and then the continuation, the output frames
    (one string of K digits per frame), the chosen index and the
    candidate lengths.
    """
    k_count = len(sizes)
    cfg = ModelConfig(
        num_layers=1, hidden_dim=8, ffn_dim=16, num_heads=2, num_codebooks=k_count,
        codebook_sizes=sizes, text_vocab_size=7, max_positions=512,
        loss_weights=(1.0,) * k_count, init_scale=0.5,
    )
    decoder = TransformerDecoder(new_model(cfg, seed=7))
    frames = np.random.default_rng(11).integers(0, min(sizes), size=(16, k_count))
    align = Alignment([Span(4 * i, 4 * i + 4) for i in range(4)], 16)
    sampling = SamplingConfig(seed=seed, max_generated_steps=10)
    edited, edit = edit_speech(
        decoder, cfg, CodecMatrix(frames, codebook_sizes=sizes), [1, 2, 3, 4], [1, 5, 3, 4],
        align, EditConfig(), sampling,
    )
    prompt = CodecMatrix(frames[:6], codebook_sizes=sizes)
    spoken, tts = zero_shot_tts(decoder, cfg, prompt, [1, 2], [3, 4], EditConfig(), sampling)

    def digits(matrix):
        return " ".join("".join(str(v) for v in row) for row in matrix.frames.tolist())

    return (
        (digits(edited), edit.chosen_index, edit.candidate_lengths),
        (digits(spoken), tts.chosen_index, tts.candidate_lengths),
    )


# recorded from the implementation that called sample_token once per head per step
PINNED_PIPELINES = [
    ((5, 5, 5, 5), 1, ("3400 4440 3231", 7, [8, 9, 12, 14, 5, 7, 6, 3, 7, 1]),
     ("0032 2330 2024 2020 3443 4102 0401 0412", 0, [2, 3, 4, 3, 5])),
    ((5, 5, 5, 5), 2, ("3124 4440 3231", 5, [9, 8, 12, 7, 4, 3, 13, 5, 10, 6]),
     ("0032 2330 2024 2020 3443 4102", 1, [8, 0, 0, 9, 8])),
    ((5, 5, 5, 5), 3, ("3400 4440 3231", 7, [9, 11, 9, 7, 12, 5, 7, 3, 4, 11]),
     ("0032 2330 2024 2020 3443 4102", 4, [2, 7, 10, 5, 0])),
    ((5, 6, 5, 7), 1, ("0045 4040 1234 3545 3124 4440 3231", 6, [11, 10, 11, 9, 5, 9, 7, 3, 9, 9]),
     ("0032 2330 2024 2020 3443 4102 3225", 0, [1, 10, 8, 2, 8])),
    ((5, 6, 5, 7), 2, ("3124 4440 3231", 6, [14, 11, 15, 10, 6, 5, 3, 4, 11, 3]),
     ("0032 2330 2024 2020 3443 4102 2222", 1, [8, 1, 1, 6, 9])),
    ((5, 6, 5, 7), 3, (
        "3225 2215 0541 4033 3430 2202 1033 4440 3231", 8, [15, 11, 14, 10, 9, 11, 9, 3, 9, 8]
    ), ("0032 2330 2024 2020 3443 4102 3010 0042 0244", 3, [10, 7, 10, 3, 4])),
]


@pytest.mark.parametrize("sizes, seed, edit, tts", PINNED_PIPELINES)
def test_pipelines_pinned_outputs(sizes, seed, edit, tts):
    """Edit and continuation outputs of a real model, equal and unequal codebook sizes."""
    assert pinned_pipelines(sizes, seed) == (edit, tts)


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
