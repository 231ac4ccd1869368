"""Exactness tests for the span-relocation and delay-stacking algebra."""

import numpy as np
import pytest

from codec_infill.errors import InvalidInputError, InvalidSpanError, StructureError
from codec_infill.rearrange import (
    MaskSamplingConfig,
    RearrangedSequence,
    _parse_layout,
    causal_mask,
    delay_stack,
    place_spans,
    sample_mask_spans,
    stack_span,
    truncated_poisson_pmf,
    uncausal_mask,
    unstack,
)
from codec_infill.tokens import EMPTY, EOS, EOU, CodecMatrix, Span, mask_marker
from codec_infill.rearrange import splice

from helpers import distinct_matrix, random_rearrangement_case


def frame(i, k=4):
    """Recognizable frame tuple standing in for X_i (1-based, like X1..XT)."""
    return tuple(10 * i + c for c in range(k))


def matrix_of(n, k=4):
    return CodecMatrix(np.array([frame(i, k) for i in range(1, n + 1)]), codebook_sizes=(2048,) * k)


class TestCausalMask:
    def test_six_frame_single_span_layout(self):
        """Masking X2..X4 of a 6-frame sequence yields the canonical layout."""
        x = matrix_of(6)
        y = causal_mask(x, [Span(1, 4)])
        expected = [
            frame(1), mask_marker(1), frame(5), frame(6), EOU,
            mask_marker(1), frame(2), frame(3), frame(4), EOS,
        ]
        assert y.items == expected

    def test_empty_span_list_is_identity_plus_eou(self):
        x = matrix_of(4)
        y = causal_mask(x, [])
        assert y.items == [frame(1), frame(2), frame(3), frame(4), EOU]

    def test_two_span_layout(self):
        """T=10, spans [1,4) and [6,8), laid out by hand."""
        x = matrix_of(10)
        y = causal_mask(x, [Span(1, 4), Span(6, 8)])
        expected = [
            frame(1), mask_marker(1), frame(5), frame(6), mask_marker(2),
            frame(9), frame(10), EOU,
            mask_marker(1), frame(2), frame(3), frame(4), EOS,
            mask_marker(2), frame(7), frame(8), EOS,
        ]
        assert y.items == expected

    def test_full_sequence_mask(self):
        """Masking everything leaves an empty unmasked region before EOU."""
        x = matrix_of(3)
        y = causal_mask(x, [Span(0, 3)])
        assert y.items == [
            mask_marker(1), EOU, mask_marker(1), frame(1), frame(2), frame(3), EOS,
        ]

    def test_overlapping_spans_rejected(self):
        x = matrix_of(6)
        with pytest.raises(InvalidSpanError):
            causal_mask(x, [Span(1, 4), Span(3, 5)])

    def test_out_of_range_span_rejected(self):
        x = matrix_of(6)
        with pytest.raises(InvalidSpanError):
            causal_mask(x, [Span(4, 7)])

    def test_frame_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, spans = random_rearrangement_case(rng)
            y = causal_mask(x, spans)
            frames_y = sorted(it for it in y.items if isinstance(it, tuple))
            frames_x = sorted(tuple(int(v) for v in row) for row in x.frames)
            assert frames_y == frames_x


class TestUncausalMask:
    def test_round_trip_of_paper_example(self):
        x = matrix_of(6)
        spans = [Span(1, 4)]
        back, back_spans = uncausal_mask(causal_mask(x, spans))
        assert back == x
        assert back_spans == spans

    def test_no_span_round_trip(self):
        x = matrix_of(6)
        back, back_spans = uncausal_mask(causal_mask(x, []))
        assert back == x and back_spans == []

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x, spans = random_rearrangement_case(rng)
            back, back_spans = uncausal_mask(causal_mask(x, spans))
            assert back == x
            assert back_spans == spans

    def test_missing_eou(self):
        y = causal_mask(matrix_of(4), [Span(1, 2)])
        y.items = [it for it in y.items if it != EOU]
        with pytest.raises(StructureError):
            uncausal_mask(y)

    def test_dangling_mask_marker(self):
        y = causal_mask(matrix_of(4), [Span(1, 2)])
        y.items = y.items[:5]  # cut before the relocated section
        with pytest.raises(StructureError) as err:
            uncausal_mask(y)
        assert "dangling" in str(err.value)

    def test_empty_relocated_span(self):
        y = causal_mask(matrix_of(4), [Span(1, 2)])
        y.items = y.items[:6] + [EOS]  # <M1> directly followed by EOS
        for invert in (uncausal_mask, delay_stack):
            with pytest.raises(StructureError) as err:
                invert(y)
            assert "relocated span 1 is empty" in str(err.value)
            assert err.value.item_index == 6

    def test_unmatched_eos(self):
        y = causal_mask(matrix_of(4), [])
        y.items = y.items + [EOS]
        with pytest.raises(StructureError) as err:
            uncausal_mask(y)
        assert err.value.item_index == 5


class TestDelayStack:
    def test_single_codebook_is_unchanged(self):
        x = CodecMatrix(np.array([[3], [4], [5]]), codebook_sizes=(8,))
        y = causal_mask(x, [])
        z = delay_stack(y)
        assert z.items == [(3,), (4,), (5,), EOU]

    def test_two_codebook_span(self):
        """(a1,a2,a3) over codebook 1 and (b1,b2,b3) over codebook 2."""
        steps = stack_span([(11, 21), (12, 22), (13, 23)], 2)
        assert steps == [
            (11, EMPTY), (12, 21), (13, 22), (EMPTY, 23),
        ]

    def test_four_codebooks_single_frame_is_diagonal(self):
        steps = stack_span([(1, 2, 3, 4)], 4)
        assert len(steps) == 4
        for t, step in enumerate(steps):
            non_empty = [(k, v) for k, v in enumerate(step) if v != EMPTY]
            assert non_empty == [(t, t + 1)]

    def test_stacked_length_and_empty_count(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, spans = random_rearrangement_case(rng)
            k = x.num_codebooks
            z = delay_stack(causal_mask(x, spans))
            unmasked, relocated = _parse_layout(z.items, lambda run, offset, mask_index: run)
            bounds = [0] + [b for span in spans for b in (span.start, span.end)] + [x.num_frames]
            lengths = [hi - lo for lo, hi in zip(bounds[0::2], bounds[1::2])]
            lengths += [len(span) for span in spans]
            assert len(unmasked + relocated) == len(lengths)
            for run, length in zip(unmasked + relocated, lengths):
                assert len(run) == length + k - 1
                empties = sum(1 for step in run for v in step if v == EMPTY)
                assert empties == k * (k - 1)

    def test_markers_pass_through_in_order(self):
        x = matrix_of(10)
        y = causal_mask(x, [Span(1, 4), Span(6, 8)])
        z = delay_stack(y)
        y_specials = [it for it in y.items if not isinstance(it, tuple)]
        z_specials = [it for it in z.items if not isinstance(it, tuple)]
        assert y_specials == z_specials

    def test_delay_order_invariant(self):
        """Every coordinate (frame, k>=2) is stacked strictly after (frame, k-1).

        Uses globally-unique token values so stacked positions can be
        recovered by search, independent of the stacking formula.
        """
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            k = int(rng.integers(1, 5))
            length = int(rng.integers(1, 30))
            x = distinct_matrix(length, k)
            steps = stack_span([tuple(int(v) for v in row) for row in x.frames], k)
            for f in range(length):
                positions = []
                for cb in range(k):
                    token = int(x.frames[f, cb])
                    hits = [
                        (t, slot)
                        for t, step in enumerate(steps)
                        for slot, v in enumerate(step)
                        if v == token
                    ]
                    assert len(hits) == 1, "token must appear at exactly one coordinate"
                    assert hits[0][1] == cb
                    positions.append(hits[0][0])
                assert all(b > a for a, b in zip(positions, positions[1:]))
            checked += 1


class TestSequenceEquality:
    def test_every_field_counts(self):
        seq = RearrangedSequence([(1, 2), EOU], 50, (8, 8))
        assert seq == RearrangedSequence([(1, 2), EOU], 50, (8, 8))
        assert seq != RearrangedSequence([(1, 3), EOU], 50, (8, 8))
        assert seq != RearrangedSequence([(1, 2), EOU], 25, (8, 8))
        assert seq != RearrangedSequence([(1, 2), EOU], 50, (8, 9))


class TestUnstack:
    def test_round_trip_two_codebooks(self):
        x = CodecMatrix(np.array([[11, 21], [12, 22], [13, 23]]), codebook_sizes=(64, 64))
        y = causal_mask(x, [Span(0, 2)])
        assert unstack(delay_stack(y)) == y

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            x, spans = random_rearrangement_case(rng)
            y = causal_mask(x, spans)
            assert unstack(delay_stack(y)) == y

    def test_forced_empty_violation(self):
        x = CodecMatrix(np.array([[1, 2], [3, 4]]), codebook_sizes=(8, 8))
        z = delay_stack(causal_mask(x, []))
        # step 0 codebook 2 is forced EMPTY by the delay pattern
        assert z.items[0][1] == EMPTY
        z.items[0] = (z.items[0][0], 5)
        with pytest.raises(StructureError):
            unstack(z)

    def test_error_names_the_absolute_item_index(self):
        """A bad step inside the relocated run is reported at its index in Z."""
        x = CodecMatrix(np.array([[1, 2], [3, 4], [5, 6]]), codebook_sizes=(8, 8))
        z = delay_stack(causal_mask(x, [Span(1, 2)]))
        bad = len(z.items) - 2  # last step of the relocated run, forced EMPTY at codebook 1
        assert z.items[bad][0] == EMPTY
        z.items[bad] = (7, z.items[bad][1])
        with pytest.raises(StructureError) as err:
            unstack(z)
        assert err.value.item_index == bad

    def test_missing_eou(self):
        z = delay_stack(causal_mask(matrix_of(4), []))
        z.items = [it for it in z.items if it != EOU]
        with pytest.raises(StructureError) as err:
            unstack(z)
        assert "missing EOU" in str(err.value)
        assert err.value.item_index == len(z.items) - 1

    def test_dangling_mask_marker(self):
        z = delay_stack(causal_mask(matrix_of(4), [Span(1, 2)]))
        eou = z.items.index(EOU)
        z.items = z.items[:eou + 1]  # cut before the relocated section
        with pytest.raises(StructureError) as err:
            unstack(z)
        assert "dangling" in str(err.value)
        assert err.value.item_index == eou

    def test_unmatched_eos(self):
        z = delay_stack(causal_mask(matrix_of(4), []))
        z.items = z.items + [EOS]
        with pytest.raises(StructureError) as err:
            unstack(z)
        assert "unmatched EOS" in str(err.value)
        assert err.value.item_index == len(z.items) - 1

    def test_empty_at_real_coordinate_rejected(self):
        x = CodecMatrix(np.array([[1, 2], [3, 4]]), codebook_sizes=(8, 8))
        z = delay_stack(causal_mask(x, []))
        z.items[0] = (EMPTY, EMPTY)
        with pytest.raises(StructureError):
            unstack(z)


class TestSplice:
    def test_identity_splice(self):
        x = matrix_of(6)
        out = splice(x, [Span(1, 4)], [x.frames[1:4]])
        assert out == x

    def test_length_changing_replacement(self):
        x = matrix_of(6)
        gen = np.array([frame(90), frame(91)])
        out = splice(x, [Span(1, 4)], [gen])
        assert out.num_frames == 5
        expected = np.vstack([x.frames[0:1], gen, x.frames[4:6]])
        assert np.array_equal(out.frames, expected)

    def test_empty_replacement_deletes(self):
        x = matrix_of(6)
        empty = np.zeros((0, 4), dtype=np.int64)
        out = splice(x, [Span(0, 1), Span(3, 5)], [x.frames[0:1], empty])
        expected = np.vstack([x.frames[0:3], x.frames[5:6]])
        assert np.array_equal(out.frames, expected)

    def test_count_mismatch(self):
        x = matrix_of(6)
        with pytest.raises(InvalidInputError):
            splice(x, [Span(1, 2)], [])


class TestSampling:
    def test_single_frame_forces_single_span(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spans = sample_mask_spans(1, MaskSamplingConfig(), rng)
            assert spans == [Span(0, 1)]

    def test_zero_frames_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_mask_spans(0, MaskSamplingConfig(), np.random.default_rng(0))

    def test_truncated_poisson_pmf_values(self):
        """Poisson(1) truncated to {1,2,3}: weights (1, 1/2, 1/6) normalized."""
        pmf = truncated_poisson_pmf(1.0, 1, 3)
        np.testing.assert_allclose(pmf, [0.6, 0.3, 0.1], atol=1e-12)

    def test_span_count_frequencies(self):
        rng = np.random.default_rng(5)
        cfg = MaskSamplingConfig(max_span_len=5)
        counts = np.zeros(4)
        draws = 20000
        for _ in range(draws):
            counts[len(sample_mask_spans(10_000, cfg, rng))] += 1
        freq = counts / draws
        np.testing.assert_allclose(freq[1:], [0.6, 0.3, 0.1], atol=0.02)

    def test_placement_is_feasible(self):
        """Brute-force feasibility: disjoint, sorted, in-bounds, right lengths."""
        rng = np.random.default_rng(9)
        spans = place_spans(10, [3, 2], rng)
        assert len(spans) == 2
        assert [len(s) for s in spans] == [3, 2]
        assert spans[0].end <= spans[1].start
        assert spans[0].start >= 0 and spans[1].end <= 10

    def test_placement_uniform_over_enumeration(self):
        """Placements of lengths (2,1) in T=5 hit all brute-force layouts."""
        feasible = set()
        for s1 in range(0, 4):
            for s2 in range(s1 + 2, 5):
                feasible.add(((s1, s1 + 2), (s2, s2 + 1)))
        rng = np.random.default_rng(13)
        seen = {}
        draws = 12000
        for _ in range(draws):
            spans = place_spans(5, [2, 1], rng)
            key = tuple((s.start, s.end) for s in spans)
            assert key in feasible
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) == feasible
        for count in seen.values():
            assert abs(count / draws - 1 / len(feasible)) < 0.02

    def test_span_length_uniformity(self):
        rng = np.random.default_rng(17)
        cfg = MaskSamplingConfig(min_spans=1, max_spans=1, max_span_len=10)
        counts = np.zeros(11)
        draws = 20000
        for _ in range(draws):
            (span,) = sample_mask_spans(1000, cfg, rng)
            counts[len(span)] += 1
        freq = counts[1:] / draws
        np.testing.assert_allclose(freq, np.full(10, 0.1), atol=0.02)

    def test_infeasible_lengths_reduce_span_count(self):
        rng = np.random.default_rng(23)
        cfg = MaskSamplingConfig(max_span_len=4)
        for _ in range(200):
            spans = sample_mask_spans(4, cfg, rng)
            assert 1 <= len(spans) <= 3
            assert sum(len(s) for s in spans) <= 4
