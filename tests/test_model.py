"""Model tests: embeddings, causality, loss masking, gradients."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from codec_infill import model
from codec_infill.errors import CapacityError, InvalidInputError, VocabularyError
from codec_infill.model import (
    _LN_EPS,
    KIND_PAD,
    DecodeSession,
    ModelConfig,
    ModelState,
    _embed_batch,
    encode_batch,
    encode_sequence,
    forward,
    backward,
    init_params,
    loss_gradient,
    new_model,
    next_item_targets,
    pad_sequences,
    sinusoidal_positions,
    weighted_loss,
)
from codec_infill.rearrange import causal_mask, delay_stack
from codec_infill.tokens import EMPTY, EOS, EOU, CodecMatrix, Span, mask_marker

from helpers import embed_backward_oracle, loss_gradient_oracle, random_matrix, score_sequence, step_phase_peaks


# two layers and four heads of unequal vocabularies
FOUR_HEADS = dict(num_layers=2, num_codebooks=4, codebook_sizes=(5, 6, 5, 7), loss_weights=(1.0, 0.5, 0.25, 0.125))


def tiny_config(**overrides):
    base = dict(
        num_layers=1,
        hidden_dim=8,
        ffn_dim=16,
        num_heads=2,
        num_codebooks=2,
        codebook_sizes=(5, 5),
        text_vocab_size=7,
        max_positions=64,
        loss_weights=(1.0, 1.0),
        dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_context(rng, cfg, num_frames=6):
    """Text ids plus a stacked item stream exercising every embedding kind."""
    x = random_matrix(rng, num_frames, cfg.num_codebooks, vocab=cfg.codebook_sizes[0])
    x = CodecMatrix(x.frames, codebook_sizes=cfg.codebook_sizes)
    spans = [Span(1, min(3, num_frames))]
    items = delay_stack(causal_mask(x, spans)).items
    text = [int(v) for v in rng.integers(0, cfg.text_vocab_size, size=3)]
    return text, items


def random_batch(rng, cfg, batch_size=2):
    seqs, targets, masks = [], [], []
    for _ in range(batch_size):
        text, items = random_context(rng, cfg, num_frames=int(rng.integers(4, 8)))
        seqs.append(encode_sequence(text, items, cfg))
    batch = pad_sequences(seqs, cfg)
    b, length = batch.kind.shape
    targets = np.stack(
        [
            rng.integers(0, cfg.head_vocab_size(k), size=(b, length))
            for k in range(cfg.num_codebooks)
        ],
        axis=-1,
    )
    loss_mask = rng.random((b, length, cfg.num_codebooks)) < 0.6
    loss_mask &= (batch.kind > 0)[:, :, None]
    return batch, targets, loss_mask


def embed_one(params, cfg, item, pos):
    """Embedding of one item (text id, frame step or marker) at position pos."""
    if isinstance(item, (int, np.integer)):
        seq = encode_sequence([item], [], cfg)
    else:
        seq = encode_sequence([], [item], cfg)
    return _embed_batch(params, cfg, pad_sequences([seq], cfg), model._slot_tables(params, cfg), pos)[0]


class TestEmbedding:
    def test_position_zero_encoding(self):
        """At position 0 the sinusoid gives 0 on even dims and 1 on odd dims."""
        pe = sinusoidal_positions(1, 8)
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_position_rows_come_from_one_read_only_table(self, dtype):
        """Per-row starts read each real position's sinusoid, up to max_positions - 1."""
        cfg = tiny_config(dtype=dtype, max_positions=16)
        params = {name: np.zeros_like(p) for name, p in new_model(cfg).params.items()}
        batch = encode_batch([([1], []), ([1, 2, 3], []), ([1, 2], [])], cfg)  # pads 2, 0, 1
        top = cfg.max_positions - 1
        emb = _embed_batch(params, cfg, batch, model._slot_tables(params, cfg), np.array([top - 2, 5, -1]))
        pe = sinusoidal_positions(cfg.max_positions, cfg.hidden_dim, cfg.np_dtype)
        expected = np.concatenate([pe[s : s + n] for n, s in ((1, top), (3, 5), (2, 0))])
        assert emb.dtype == cfg.np_dtype and np.array_equal(emb, expected)
        table = model._position_table(cfg.max_positions, cfg.hidden_dim, cfg.np_dtype)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        # the longest row fills positions 0..15 in three appends; a fourth is refused
        session = DecodeSession(
            new_model(cfg, seed=15), [([1, 2, 3], [(0, EMPTY)] * 10), ([1], [mask_marker(1)])]
        )
        for _ in range(3):
            session.append([(1, 2), (1, 2)])
        with pytest.raises(CapacityError):
            session.append([(1, 2), (1, 2)])

    def test_all_empty_step(self):
        cfg = tiny_config(num_codebooks=4, codebook_sizes=(5,) * 4, loss_weights=(1,) * 4)
        params = init_params(cfg, np.random.default_rng(0))
        pos = 3
        out = embed_one(params, cfg, (EMPTY,) * 4, pos)
        pe = sinusoidal_positions(pos + 1, cfg.hidden_dim)[pos]
        np.testing.assert_allclose(out, 4 * params["empty_emb"][0] + pe, rtol=1e-12)

    def test_two_codebook_step_scalar_oracle(self):
        """Each hidden dim equals Emb1[a][d] + Emb2[b][d] + PE[pos][d]."""
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(1))
        a, b, pos = 2, 4, 5
        out = embed_one(params, cfg, (a, b), pos)
        pe = sinusoidal_positions(pos + 1, cfg.hidden_dim)[pos]
        for d in range(cfg.hidden_dim):
            expected = (
                float(params["codebook_emb_0"][a, d])
                + float(params["codebook_emb_1"][b, d])
                + float(pe[d])
            )
            assert out[d] == pytest.approx(expected, rel=1e-12)

    def test_embedding_at_offset_matches_batched_row(self):
        """One item embedded at offset pos equals row pos of the whole stream's embedding."""
        cfg = tiny_config()
        state = new_model(cfg, seed=2)
        text, items = random_context(np.random.default_rng(3), cfg)
        seq = encode_sequence(text, items, cfg)
        batch = pad_sequences([seq], cfg)
        emb = _embed_batch(state.params, cfg, batch, model._slot_tables(state.params, cfg), 0)
        stream = list(text) + list(items)
        for pos, item in enumerate(stream):
            np.testing.assert_allclose(emb[pos], embed_one(state.params, cfg, item, pos), rtol=1e-12)


class TestEncoding:
    def test_special_index_is_one_layout(self):
        """mask i, EOS, EOU, EMPTY -> i - 1, M, M + 1, M + 2: embedding rows and head ids alike."""
        cfg = tiny_config(codebook_sizes=(5, 6), max_mask_spans=3)
        layout = {("mask", 1): 0, ("mask", 3): 2, ("eos", 0): 3, ("eou", 0): 4, ("empty", 0): 5}
        for (kind, index), expected in layout.items():
            assert cfg.special_index(kind, index) == expected
            for k in range(cfg.num_codebooks):
                assert cfg.special_output_id(k, kind, index) == cfg.codebook_sizes[k] + expected
        for k in range(cfg.num_codebooks):
            assert cfg.head_vocab_size(k) == cfg.special_output_id(k, "empty") + 1
        row = encode_sequence([1], [mask_marker(3), (0, EMPTY), EOU, EOS], cfg)
        assert row.lengths.tolist() == [5]
        # each slot holds its head's id: text 1, mask 3, (0, EMPTY), EOU, EOS
        assert row.ids.tolist() == [[[1, 0], [7, 8], [0, 11], [9, 10], [8, 9]]]
        with pytest.raises(VocabularyError):
            encode_sequence([], [mask_marker(4)], cfg)

    def test_every_id_is_a_row_of_its_slot_table(self):
        """Ids index slot k's table of head_vocab_size(k) rows; no sentinel is left in them."""
        cfg = tiny_config(num_codebooks=4, codebook_sizes=(5, 6, 5, 7), loss_weights=(1.0,) * 4)
        rng = np.random.default_rng(26)
        batch = encode_batch([random_context(rng, cfg, num_frames=n) for n in (3, 6)], cfg)
        for k in range(cfg.num_codebooks):
            assert 0 <= batch.ids[..., k].min() and batch.ids[..., k].max() < cfg.head_vocab_size(k)
        assert (batch.ids[batch.kind == model.KIND_FRAME] >= np.array(cfg.codebook_sizes)).any()  # EMPTY slots

    @pytest.mark.parametrize("item", [5, None, "ab", (1,), (1, 2, 3)])
    def test_item_neither_marker_nor_step_is_invalid_input(self, item):
        with pytest.raises(InvalidInputError):
            encode_sequence([], [item], tiny_config())

    @pytest.mark.parametrize("text_id", ["a", 1.0, None, 7, -1])
    def test_bad_text_id_is_vocabulary_error(self, text_id):
        with pytest.raises(VocabularyError):
            encode_sequence([text_id], [], tiny_config())

    @pytest.mark.parametrize("step", [("a", 1), (1.0, 1), (1, None), (5, 0), (0, -2)])
    def test_bad_frame_slot_is_vocabulary_error(self, step):
        with pytest.raises(VocabularyError):
            encode_sequence([], [step], tiny_config())

    def test_append_of_a_bare_id_is_invalid_input(self):
        session = DecodeSession(new_model(tiny_config(), seed=16), [([1], [mask_marker(1)])])
        with pytest.raises(InvalidInputError):
            session.append([5])
        assert session.position == 2


class TestForward:
    def test_causality_exact(self):
        """Changing a future item leaves logits at earlier positions bit-identical."""
        cfg = tiny_config()
        state = new_model(cfg, seed=4)
        text, items = random_context(np.random.default_rng(5), cfg, num_frames=6)
        logits_a = score_sequence(state, text, items)
        mutated = list(items)
        for i in range(len(mutated) - 1, -1, -1):
            if isinstance(mutated[i], tuple) and mutated[i][0] not in (EMPTY,):
                mutated[i] = ((mutated[i][0] + 1) % cfg.codebook_sizes[0],) + mutated[i][1:]
                changed = len(text) + i
                break
        logits_b = score_sequence(state, text, mutated)
        for k in range(cfg.num_codebooks):
            assert np.array_equal(logits_a[k][:changed], logits_b[k][:changed])
            assert not np.array_equal(logits_a[k][changed:], logits_b[k][changed:])

    def test_single_position_hand_rolled(self):
        """One text token in, logits out, recomputed with bare numpy."""
        cfg = tiny_config(num_heads=1)
        params = init_params(cfg, np.random.default_rng(6))
        t = 3
        logits = score_sequence(ModelState(params, cfg), [t], [])

        def layer_norm(x, g, b):
            mean = x.mean()
            var = ((x - mean) ** 2).mean()
            return (x - mean) / np.sqrt(var + _LN_EPS) * g + b

        def gelu(x):
            return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))

        x0 = params["text_emb"][t] + sinusoidal_positions(1, cfg.hidden_dim)[0]
        n1 = layer_norm(x0, params["layer0.ln1.gain"], params["layer0.ln1.bias"])
        v = n1 @ params["layer0.attn.wv"] + params["layer0.attn.bv"]
        # a single position attends only to itself: the context is v
        x1 = x0 + v @ params["layer0.attn.wo"] + params["layer0.attn.bo"]
        n2 = layer_norm(x1, params["layer0.ln2.gain"], params["layer0.ln2.bias"])
        x2 = x1 + gelu(n2 @ params["layer0.ffn.w1"] + params["layer0.ffn.b1"]) @ params[
            "layer0.ffn.w2"
        ] + params["layer0.ffn.b2"]
        hid = layer_norm(x2, params["final_ln.gain"], params["final_ln.bias"])
        for k in range(cfg.num_codebooks):
            out = gelu(hid @ params[f"head{k}.w0"] + params[f"head{k}.b0"])
            out = out @ params[f"head{k}.w1"] + params[f"head{k}.b1"]
            np.testing.assert_allclose(logits[k][0], out, rtol=1e-9)

    def test_head_shapes_match_codebook_sizes(self):
        cfg = tiny_config(codebook_sizes=(5, 9))
        state = new_model(cfg, seed=7)
        text, items = random_context(np.random.default_rng(8), cfg)
        logits = score_sequence(state, text, items)
        assert len(logits) == cfg.num_codebooks
        for k, l in enumerate(logits):
            assert l.shape[-1] == cfg.head_vocab_size(k)
            assert l.shape[-1] == cfg.codebook_sizes[k] + cfg.max_mask_spans + 3

    def test_softmax_normalization(self):
        cfg = tiny_config()
        state = new_model(cfg, seed=9)
        text, items = random_context(np.random.default_rng(10), cfg)
        logits = score_sequence(state, text, items)
        for l in logits:
            p = np.exp(l - l.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_heads_share_state_but_not_outputs(self):
        """Perturbing head k's parameters changes only head k's logits."""
        cfg = tiny_config()
        state = new_model(cfg, seed=11)
        text, items = random_context(np.random.default_rng(12), cfg)
        base = score_sequence(state, text, items)
        state.params["head1.w1"] = state.params["head1.w1"] + 0.5
        after = score_sequence(state, text, items)
        assert np.array_equal(base[0], after[0])
        assert not np.array_equal(base[1], after[1])

    def test_incremental_decode_matches_batched_forward(self):
        cfg = tiny_config()
        state = new_model(cfg, seed=13)
        text, items = random_context(np.random.default_rng(14), cfg, num_frames=5)
        session = DecodeSession(state, [(text, items[:3])])
        for item in items[3:]:
            session.append([item])
        reference = score_sequence(state, text, items)
        for k in range(cfg.num_codebooks):
            np.testing.assert_allclose(session.logits[k][0], reference[k][-1], rtol=1e-9)

    @pytest.mark.parametrize("with_text", [False, True])
    def test_incremental_decode_matches_batched_forward_at_every_split(self, with_text):
        """Every prefill length, then one append per item, tracks the batched forward.

        The stream holds mask markers, EOU, EOS and delay steps with EMPTY
        slots; logits are compared after the prefill and after every append.
        """
        cfg = tiny_config()
        state = new_model(cfg, seed=13)
        text, items = random_context(np.random.default_rng(14), cfg, num_frames=5)
        text = text if with_text else []
        assert all(token in items for token in (mask_marker(1), EOU, EOS))
        assert any(isinstance(it, tuple) and EMPTY in it for it in items)
        reference = score_sequence(state, text, items)
        for split in range(0 if text else 1, len(items) + 1):
            session = DecodeSession(state, [(text, items[:split])])
            for j in range(split, len(items) + 1):
                if j > split:
                    session.append([items[j - 1]])
                assert session.position == len(text) + j
                for k in range(cfg.num_codebooks):
                    np.testing.assert_allclose(
                        session.logits[k][0], reference[k][len(text) + j - 1], rtol=1e-9
                    )

    def test_rows_match_one_row_sessions_at_every_step(self):
        """Rows of different text and context lengths (one repeated) track one-row sessions.

        The rows are left-padded to one width; every row's logits must equal
        its own one-row session's after the prefill and after every append,
        also after rows leave the batch.
        """
        cfg = tiny_config()
        state = new_model(cfg, seed=17)
        rng = np.random.default_rng(18)
        contexts = []
        for text_len, frames in [(3, 6), (0, 2), (1, 7), (2, 4)]:
            text, items = random_context(rng, cfg, num_frames=frames)
            contexts.append((text[:text_len], items))
        contexts.append(contexts[2])
        contexts.append(([4], [mask_marker(1)]))
        widths = [len(t) + len(i) for t, i in contexts]
        batched = DecodeSession(state, contexts)
        assert batched.position == max(widths)
        assert batched.prefill_positions == 5 * max(widths)  # the repeated context runs once
        alone = [DecodeSession(state, [c]) for c in contexts]
        rows = list(range(len(contexts)))
        steps = [(int(rng.integers(0, 5)), EMPTY) if s % 3 else EOS for s in range(8)]
        for s in range(9):
            if s:
                items = [steps[s - 1] if r % 2 else (s % 5, r % 5) for r in rows]
                batched.append(items)
                for r, item in zip(rows, items):
                    alone[r].append([item])
            if s == 4:
                rows = [5, 0, 3]  # rows 1, 2 and 4 leave; the rest change order
                batched.keep([5, 0, 3])
            assert batched.position == max(widths) + s
            for j, r in enumerate(rows):
                assert alone[r].position == widths[r] + s
                for k in range(cfg.num_codebooks):
                    np.testing.assert_allclose(batched.logits[k][j], alone[r].logits[k][0], rtol=1e-9)

    def test_identical_contexts_prefill_once(self, monkeypatch):
        cfg = tiny_config()
        state = new_model(cfg, seed=19)
        text, items = random_context(np.random.default_rng(20), cfg)
        encoded = []
        real_encode_batch = model.encode_batch

        def encode_batch(contexts, cfg):
            encoded.append(len(contexts))
            return real_encode_batch(contexts, cfg)

        monkeypatch.setattr(model, "encode_batch", encode_batch)
        session = DecodeSession(state, [(text, items)] * 5)
        assert encoded == [1]  # the one context object is encoded once
        assert session.prefill_positions == len(text) + len(items)
        assert all(np.array_equal(l, np.repeat(l[:1], 5, axis=0)) for l in session.logits)
        with pytest.raises(InvalidInputError):
            session.append([(1, 2)] * 4)  # one item per row

    def test_append_at_capacity_raises(self):
        cfg = tiny_config(max_positions=8)
        state = new_model(cfg, seed=15)
        session = DecodeSession(state, [([1, 2, 3], [(0, EMPTY), mask_marker(1), EOU, EOS])])
        session.append([(1, 2)])
        assert session.position == cfg.max_positions
        with pytest.raises(CapacityError):
            session.append([(1, 2)])
        assert session.position == cfg.max_positions


class TestPackedPositions:
    """Padding takes no part in the packed forward, and the heads' rows do not change the math."""

    def case(self, seed):
        """Three rows of different lengths, alone and padded into one batch."""
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        rows = [encode_sequence(*random_context(rng, cfg, num_frames=n), cfg) for n in (4, 7, 5)]
        batch = pad_sequences(rows, cfg)
        targets, mask = next_item_targets(batch, cfg)
        return cfg, params, rows, batch, targets, mask

    def loss_and_grads(self, params, cfg, batch, targets, mask, heads_at):
        logits, cache = forward(params, cfg, batch, heads_at, want_cache=True)
        targets, mask = targets[heads_at], mask[heads_at]
        total, _ = weighted_loss(logits, targets, mask, cfg.loss_weights)
        return total, backward(params, cfg, cache, loss_gradient(logits, mask))

    def assert_same_grads(self, got, want):
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, err_msg=name)

    def test_padding_is_inert(self):
        """Each row of a padded batch gives the logits and loss gradients of that row run alone."""
        cfg, params, rows, batch, targets, mask = self.case(30)
        assert (batch.kind == KIND_PAD).any()
        logits, _ = forward(params, cfg, batch, batch.kind != KIND_PAD)
        assert [l.shape[0] for l in logits] == [batch.lengths.sum()] * cfg.num_codebooks
        ends = np.cumsum(batch.lengths)
        for r, row in enumerate(rows):
            n = row.max_length
            alone, _ = forward(params, cfg, row, row.kind != KIND_PAD)
            for k in range(cfg.num_codebooks):
                np.testing.assert_allclose(logits[k][ends[r] - n : ends[r]], alone[k], rtol=1e-10)
            only_r = mask.copy()
            only_r[np.arange(len(rows)) != r] = False
            loss_b, grads_b = self.loss_and_grads(params, cfg, batch, targets, only_r, only_r.any(-1))
            row_targets, row_mask = targets[r : r + 1, :n], mask[r : r + 1, :n]
            loss_a, grads_a = self.loss_and_grads(params, cfg, row, row_targets, row_mask, row_mask.any(-1))
            assert loss_b == pytest.approx(loss_a, rel=1e-10)
            self.assert_same_grads(grads_b, grads_a)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_logits_at_head_rows_equal_those_rows_of_a_full_forward(self, dtype):
        """The last layer runs its FFN at the heads' rows only, and changes no bit of their logits.

        Checked for a training loss mask and for a prefill's last column of
        left-padded rows.  The products run on fewer rows, so this holds
        where BLAS rounds each row the same whatever the row count, as it
        does at these widths; at the desk model's, OpenBLAS rounds a
        product of one row (gemv) or of a few rows (its small-matrix
        kernel) differently.
        """
        cfg = tiny_config(**FOUR_HEADS, dtype=dtype)
        params = init_params(cfg, np.random.default_rng(34))
        rng = np.random.default_rng(35)
        batch, _, _ = random_batch(rng, cfg, batch_size=3)
        _, loss_mask = next_item_targets(batch, cfg)
        prefill = encode_batch([random_context(rng, cfg, num_frames=n) for n in (3, 6, 4)], cfg)
        last = np.zeros(prefill.kind.shape, dtype=bool)
        last[:, -1] = True
        for case, heads_at in ((batch, loss_mask.any(axis=-1)), (prefill, last)):
            real = case.kind != KIND_PAD
            assert 1 < heads_at.sum() < real.sum()
            got, _ = forward(params, cfg, case, heads_at)
            every, _ = forward(params, cfg, case, real)
            for k in range(cfg.num_codebooks):
                np.testing.assert_array_equal(got[k], every[k][heads_at[real]])

    def test_heads_at_loss_rows_equal_heads_at_every_real_position(self):
        cfg, params, _, batch, targets, mask = self.case(32)
        lossy, real = mask.any(axis=-1), batch.kind != KIND_PAD
        assert lossy.sum() < real.sum()
        loss_a, grads_a = self.loss_and_grads(params, cfg, batch, targets, mask, lossy)
        loss_b, grads_b = self.loss_and_grads(params, cfg, batch, targets, mask, real)
        assert loss_a == pytest.approx(loss_b, rel=1e-10)
        self.assert_same_grads(grads_a, grads_b)


class TestLoss:
    def test_uniform_logits_analytic_value(self):
        """Uniform logits over 256 with weights (5,1,0.5,0.1): 6.6 ln 256."""
        rng = np.random.default_rng(15)
        n = 40
        logits = [np.zeros((n, 256)) for _ in range(4)]
        targets = rng.integers(0, 256, size=(n, 4))
        mask = np.ones((n, 4), dtype=bool)
        total, per_k = weighted_loss(logits, targets, mask, (5.0, 1.0, 0.5, 0.1))
        expected = 6.6 * np.log(256.0)
        assert total == pytest.approx(expected, rel=1e-12)
        for lk in per_k:
            assert lk == pytest.approx(np.log(256.0), rel=1e-12)

    def test_concentrated_logits_drive_loss_to_zero(self):
        n = 8
        targets = np.arange(n).reshape(n, 1) % 5
        logits = [np.zeros((n, 5))]
        for i in range(n):
            logits[0][i, targets[i, 0]] = 1000.0
        total, _ = weighted_loss(logits, targets, np.ones((n, 1), bool), (1.0,))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_masked_positions_contribute_nothing(self):
        rng = np.random.default_rng(16)
        n = 30
        logits = [rng.standard_normal((n, 9)) for _ in range(2)]
        targets = rng.integers(0, 9, size=(n, 2))
        mask = rng.random((n, 2)) < 0.5
        poked = [l.copy() for l in logits]  # before weighted_loss writes the gradient over the loss rows
        for k in range(2):
            poked[k][~mask[:, k]] = rng.standard_normal(((~mask[:, k]).sum(), 9)) * 50
        base, _ = weighted_loss(logits, targets, mask, (2.0, 1.0))
        after, _ = weighted_loss(poked, targets, mask, (2.0, 1.0))
        assert after == base  # exactly zero change

    def test_all_masked_batch_is_zero(self):
        logits = [np.ones((4, 6))]
        targets = np.zeros((4, 1), dtype=np.int64)
        mask = np.zeros((4, 1), dtype=bool)
        total, per_k = weighted_loss(logits, targets, mask, (1.0,))
        assert total == 0.0 and per_k == [0.0]


class TestGradientOverTheLogits:
    """``weighted_loss`` writes the loss gradient over the logits and ``loss_gradient`` finishes it, bit for bit."""

    def case(self, seed, dtype, masked_heads=()):
        rng = np.random.default_rng(seed)
        n, sizes = 23, (11, 7, 5, 9)
        logits = [(rng.standard_normal((n, v)) * 4).astype(dtype) for v in sizes]
        targets = np.stack([rng.integers(0, v, size=n) for v in sizes], axis=-1)
        mask = rng.random((n, len(sizes))) < 0.6
        mask[:, list(masked_heads)] = False
        return logits, targets, mask, (5.0, 1.0, 0.5, 0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked_heads", [(), (2,), (0, 1, 2, 3)])
    def test_gradient_equals_the_oracle(self, dtype, masked_heads):
        for seed in range(5):
            logits, targets, mask, weights = self.case(seed, dtype, masked_heads)
            want = loss_gradient_oracle(logits, targets, mask, weights)  # before weighted_loss consumes the logits
            total, per_k = weighted_loss(logits, targets, mask, weights)
            got = loss_gradient(logits, mask)
            for k in range(4):
                assert got[k] is logits[k]
                assert got[k].dtype == want[k].dtype == dtype
                assert np.array_equal(got[k], want[k])
                assert not got[k][~mask[:, k]].any()
            for k in masked_heads:
                assert per_k[k] == 0.0

    def test_softmax_rows_are_the_loss_rows(self):
        """The oracle's gradient, unscaled and plus the one-hot, is a softmax whose target terms give per_k.

        Subtracting the one-hot rounds a small target probability to an
        absolute 2**-53, so the cross-entropy is matched to 1e-9, not 1e-12.
        """
        logits, targets, mask, weights = self.case(9, np.float64)
        want = loss_gradient_oracle(logits, targets, mask, weights)
        total, per_k = weighted_loss(logits, targets, mask, weights)
        for k, (w, d_k) in enumerate(zip(weights, want)):
            n = int(mask[:, k].sum())
            p = d_k[mask[:, k]] * (n / w)
            rows = np.arange(n), targets[mask[:, k], k]
            p[rows] += 1.0
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)
            assert per_k[k] == pytest.approx(-np.log(p[rows]).mean(), rel=1e-9)
        assert total == pytest.approx(sum(w * l for w, l in zip(weights, per_k)), rel=1e-15)


class TestGradients:
    def loss_fn(self, params, cfg, batch, targets, mask, weights):
        heads = mask.any(axis=-1)
        logits, _ = forward(params, cfg, batch, heads)
        total, _ = weighted_loss(logits, targets[heads], mask[heads], weights)
        return total

    def analytic_grads(self, params, cfg, batch, targets, mask, weights):
        heads = mask.any(axis=-1)
        logits, cache = forward(params, cfg, batch, heads, want_cache=True)
        targets, mask = targets[heads], mask[heads]
        weighted_loss(logits, targets, mask, weights)
        return backward(params, cfg, cache, loss_gradient(logits, mask))

    def test_finite_difference_agreement(self):
        """Central differences (h=1e-3) on two float64 models: 1 layer with K = 2, and FOUR_HEADS.

        Each parameter tensor is checked at its largest-magnitude gradient
        coordinate, so every embedding table, LayerNorm, attention
        projection, layer FFN and head is checked.
        """
        for cfg in (tiny_config(), tiny_config(**FOUR_HEADS)):
            params = init_params(cfg, np.random.default_rng(17))
            batch, targets, mask = random_batch(np.random.default_rng(18), cfg)
            weights = cfg.loss_weights
            grads = self.analytic_grads(params, cfg, batch, targets, mask, weights)
            for name, grad in grads.items():
                idx = np.unravel_index(np.argmax(np.abs(grad)), grad.shape)
                an = grad[idx]
                assert an != 0.0, f"{name} gets no gradient"
                h = 1e-3
                original = params[name][idx]
                params[name][idx] = original + h
                up = self.loss_fn(params, cfg, batch, targets, mask, weights)
                params[name][idx] = original - h
                down = self.loss_fn(params, cfg, batch, targets, mask, weights)
                params[name][idx] = original
                fd = (up - down) / (2 * h)
                rel = abs(an - fd) / max(abs(an), abs(fd))
                assert rel < 1e-4, f"{name}{idx}: analytic {an} vs fd {fd}"

    # sha256 prefixes recorded from the implementation with separate head and layer FFN code;
    # "grads" re-recorded when the embedding gradient moved from np.add.at to a sorted np.add.reduceat
    PINNED = {
        "logits": "a123662a767558e8",
        "loss": "46630ec8e5b32c9a",
        "grads": "560cce74821fb422",
        "decode": "92c41cd231fbcc83",
    }

    def test_logits_gradients_and_decode_steps_are_pinned(self):
        """The bytes of a seeded float32 FOUR_HEADS model's outputs, recorded once.

        One training step's logits, loss and every gradient, and the
        prefill plus five appended steps of a two-row decode, hashed
        with sha256.  A refactor of the network must leave every byte
        as it was; a change of arithmetic (or of numpy/BLAS build, whose
        kernels may round differently) shows here first.
        """
        cfg = tiny_config(**FOUR_HEADS, dtype="float32")
        params = init_params(cfg, np.random.default_rng(31))
        batch, targets, mask = random_batch(np.random.default_rng(32), cfg, batch_size=3)

        def digest(arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()[:16]

        heads = mask.any(axis=-1)
        logits, cache = forward(params, cfg, batch, heads, want_cache=True)
        logits_digest = digest(logits)  # before weighted_loss writes the gradient over them
        targets, mask = targets[heads], mask[heads]
        total, _ = weighted_loss(logits, targets, mask, cfg.loss_weights)
        grads = backward(params, cfg, cache, loss_gradient(logits, mask))
        rng = np.random.default_rng(33)
        session = DecodeSession(ModelState(params, cfg), [random_context(rng, cfg) for _ in range(2)])
        steps = [session.logits]
        for _ in range(5):
            items = [tuple(int(rng.integers(0, n)) for n in cfg.codebook_sizes) for _ in range(2)]
            steps.append(session.append(items))

        got = {
            "logits": logits_digest,
            "loss": digest([np.float64(total)]),
            "grads": digest(grads[name] for name in params),
            "decode": digest(l for step in steps for l in step),
        }
        assert got == self.PINNED

    @pytest.mark.parametrize("left_padded", [False, True])
    def test_embedding_gradient_equals_the_per_item_oracle(self, left_padded):
        """Every embedding table's gradient, exactly.

        The embedding is linear: its gradient adds each item's input
        gradient to the rows that item drew.  The finite-difference test
        samples a few coordinates; this checks every row of every table,
        ``marker_emb`` and ``empty_emb`` included.  Integer-valued input
        gradients make every sum exact in any order.
        """
        cfg = tiny_config(num_codebooks=4, codebook_sizes=(5, 6, 5, 7), loss_weights=(1.0,) * 4)
        params = init_params(cfg, np.random.default_rng(24))
        rng = np.random.default_rng(25)
        streams = [random_context(rng, cfg, num_frames=n) for n in (4, 7, 5)]
        x = CodecMatrix(random_matrix(rng, 7, 4, vocab=5).frames, codebook_sizes=cfg.codebook_sizes)
        streams.append(([], delay_stack(causal_mask(x, [Span(1, 3), Span(4, 6)])).items))
        if left_padded:
            batch = encode_batch(streams, cfg)
        else:
            batch = pad_sequences([encode_sequence(t, i, cfg) for t, i in streams], cfg)
        d_emb = rng.integers(-8, 9, size=(int(batch.lengths.sum()), cfg.hidden_dim)).astype(np.float64)
        grads = {name: np.zeros_like(p) for name, p in params.items()}
        model._embed_backward(params, cfg, batch, d_emb, grads)
        want = embed_backward_oracle(streams, d_emb, cfg)
        for name, got in grads.items():
            if name in want:
                assert want[name].any(), f"{name} is never drawn"
                np.testing.assert_array_equal(got, want[name], err_msg=name)
            else:
                assert not got.any(), name

    def test_gradient_scales_linearly_in_loss_weight(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(20))
        batch, targets, mask = random_batch(np.random.default_rng(21), cfg)
        g1 = self.analytic_grads(params, cfg, batch, targets, mask, (1.0, 1.0))
        g2 = self.analytic_grads(params, cfg, batch, targets, mask, (3.0, 1.0))
        np.testing.assert_allclose(3.0 * g1["head0.w1"], g2["head0.w1"], rtol=1e-10)
        np.testing.assert_allclose(g1["head1.w1"], g2["head1.w1"], rtol=1e-12)

    def test_zero_weight_head_gets_zero_gradient(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(22))
        batch, targets, mask = random_batch(np.random.default_rng(23), cfg)
        grads = self.analytic_grads(params, cfg, batch, targets, mask, (1.0, 0.0))
        assert np.all(grads["head1.w0"] == 0.0)
        assert np.all(grads["head1.w1"] == 0.0)
        assert np.any(grads["head0.w1"] != 0.0)


class TestStepMemory:
    """A training step saves only what backward reads, and backward frees it as it goes."""

    def case(self, **overrides):
        """A float32 FOUR_HEADS model at d=32, f=128 (or as ``overrides`` set) and eight padded rows of 53 columns."""
        sizes = dict(hidden_dim=32, ffn_dim=128, num_heads=4, dtype="float32", max_positions=256)
        cfg = tiny_config(**{**FOUR_HEADS, **sizes, **overrides})
        params = init_params(cfg, np.random.default_rng(41))
        rng = np.random.default_rng(42)
        rows = [encode_sequence(*random_context(rng, cfg, num_frames=int(n)), cfg) for n in rng.integers(20, 40, 8)]
        batch = pad_sequences(rows, cfg)
        targets, mask = next_item_targets(batch, cfg)
        return cfg, params, batch, targets, mask

    def step(self, cfg, params, batch, targets, mask):
        """forward, loss and backward as ``train_loop`` runs them; returns what backward consumed: (cache, d_logits)."""
        heads = mask.any(axis=-1)
        logits, cache = forward(params, cfg, batch, heads, want_cache=True)
        targets, mask = targets[heads], mask[heads]
        weighted_loss(logits, targets, mask, cfg.loss_weights)
        d_logits = loss_gradient(logits, mask)
        backward(params, cfg, cache, d_logits)
        return cache, d_logits

    def traced_peak(self, run) -> int:
        """Peak bytes ``run()`` allocates above what was allocated before it."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    def saved_arrays(self, entry) -> list:
        """Every array in a cache entry's nested tuples and lists."""
        if isinstance(entry, np.ndarray):
            return [entry]
        if isinstance(entry, (tuple, list)):
            return [a for part in entry for a in self.saved_arrays(part)]
        return []

    def test_backward_consumes_the_cache(self):
        cache, _ = self.step(*self.case())
        assert cache == {}

    def test_backward_consumes_the_logit_gradients(self):
        """Each head's logit gradient is dropped from the list once its block has used it."""
        _, d_logits = self.step(*self.case())
        assert d_logits == [None] * 4

    def test_phase_peaks_cover_every_block_and_the_step_peak(self):
        """The per-phase probe names each block's forward and backward, and its largest phase is the step's peak."""
        case = cfg, params, batch, targets, mask = self.case()
        self.step(*case)
        peaks = step_phase_peaks(params, cfg, batch, targets, mask)
        blocks = [f"L{i} {block}" for i in range(cfg.num_layers) for block in ("attention", "FFN")] + ["heads"]
        between = {"loss", "embed backward", "forward", "backward", "step"}
        assert set(peaks) == {f"{block} {way}" for block in blocks for way in ("forward", "backward")} | between
        whole = self.traced_peak(lambda: self.step(*case))
        assert whole <= max(peaks.values()) < whole + 64 * 1024  # the profile hook's own frames and entries

    def test_peak_allocation_of_a_step(self):
        """numpy reports its allocations to tracemalloc, so the peak repeats exactly.

        This implementation measured 2,106,364 bytes above the step's
        inputs (numpy 2.4, Python 3.11), in the last layer's attention
        backward; the one that cached each attention's merged context,
        ran all K heads' first layers before their second and kept the
        causal bias and the last attention's output through the heads
        measured 2,405,664, the one that cached each FFN block's GELU
        input 2,592,279, the one that held all K heads' GELU outputs at
        once and kept the logit gradients until backward returned
        2,636,847, the one that saved the LayerNorm outputs and q, k and
        v and ran the last layer's FFN at every row 3,244,649, and the one
        that kept every intermediate, and the GELU output, until backward
        returned 4,753,072.
        """
        case = self.case()
        self.step(*case)  # fill the cached name and position tables
        assert self.traced_peak(lambda: self.step(*case)) < 2_200_000

    def test_peak_allocation_of_a_step_in_the_heads(self):
        """With head vocabularies wide against ``hidden_dim``, the step peaks in the heads' backward.

        At d=64 and four heads of 134 ids, this implementation measured
        3,550,526 bytes above the step's inputs (numpy 2.4, Python 3.11):
        the heads' backward rebuilds one block's GELU input, holds its
        output and gradient one block at a time and drops each head's
        logit gradient and GELU CDF once it has used them.  The one that
        cached each attention's merged context and ran all K heads' first
        layers before their second measured 3,736,601, the one that cached
        all K blocks' GELU inputs 4,337,945, and the one that also held
        all K blocks' GELU outputs and gradients and kept the logit
        gradients until backward returned 4,717,717, all three in the
        heads' backward.
        """
        case = self.case(hidden_dim=64, codebook_sizes=(128,) * 4)
        self.step(*case)
        assert self.traced_peak(lambda: self.step(*case)) < 3_650_000

    def test_cache_holds_no_layer_norm_output_and_no_projection(self, monkeypatch):
        """Backward rebuilds every LayerNorm output and the attention's q, k and v; the cache keeps none."""
        made = []

        def recorded(fn, pick):
            def call(*args):
                out = fn(*args)
                made.extend(pick(out))
                return out

            return call

        monkeypatch.setattr(model, "_layer_norm", recorded(model._layer_norm, lambda out: out[:1]))
        monkeypatch.setattr(model, "_attention_projections", recorded(model._attention_projections, list))
        cfg, params, batch, targets, mask = self.case()
        _, cache = forward(params, cfg, batch, mask.any(axis=-1), want_cache=True)
        assert len(made) == 2 * cfg.num_layers + 1 + 3 * cfg.num_layers  # LN1 and LN2 per layer, final LN; q, k, v
        saved = self.saved_arrays(cache["saved"])
        assert saved
        for a in made:
            assert not any(np.may_share_memory(a, s) for s in saved)

    def test_cache_holds_no_merged_context(self, monkeypatch):
        """Backward rebuilds each attention's merged context from the cached weights and the rebuilt v."""
        merged, merge_heads = [], model._merge_heads

        def recorded(a, real):
            merged.append(merge_heads(a, real))
            return merged[-1]

        monkeypatch.setattr(model, "_merge_heads", recorded)
        cfg, params, batch, targets, mask = self.case()
        _, cache = forward(params, cfg, batch, mask.any(axis=-1), want_cache=True)
        assert len(merged) == cfg.num_layers
        saved = self.saved_arrays(cache["saved"])
        assert saved
        for a in merged:
            assert not any(np.may_share_memory(a, s) for s in saved)

    def test_cache_holds_no_ffn_pre_activation(self, monkeypatch):
        """Backward rebuilds each FFN block's GELU input by its first-layer product; the cache keeps only the CDFs."""
        gelu_inputs, gelu_cdf = [], model._gelu_cdf

        def recorded(x):
            gelu_inputs.append(x)
            return gelu_cdf(x)

        monkeypatch.setattr(model, "_gelu_cdf", recorded)
        cfg, params, batch, targets, mask = self.case()
        _, cache = forward(params, cfg, batch, mask.any(axis=-1), want_cache=True)
        assert len(gelu_inputs) == cfg.num_layers + cfg.num_codebooks  # each layer's FFN, then each head
        saved = self.saved_arrays(cache["saved"])
        assert saved
        for a in gelu_inputs:
            assert not any(np.may_share_memory(a, s) for s in saved)

    def loss_case(self):
        """Four float32 heads of 400 x 256, 409,600 bytes each, and a loss mask at ~60% of rows."""
        rng = np.random.default_rng(43)
        n, sizes = 400, (256,) * 4
        logits = [rng.standard_normal((n, v)).astype(np.float32) for v in sizes]
        targets = np.stack([rng.integers(0, v, size=n) for v in sizes], axis=-1)
        mask = rng.random((n, len(sizes))) < 0.6
        return logits, targets, mask, (5.0, 1.0, 0.5, 0.1)

    def test_weighted_loss_holds_one_softmax_at_a_time(self):
        """Head k's gradient is written over its logits before head k+1's float64 softmax is taken.

        The largest head's softmax here is 507,904 bytes.  This
        implementation's peak above its inputs measured 774,852 bytes
        (numpy 2.4, Python 3.11): one softmax and its float32 gather; the
        one that returned all four softmaxes measured 2,256,025.
        """
        logits, targets, mask, weights = self.loss_case()
        softmax = int(mask.sum(axis=0).max()) * 256 * np.dtype(np.float64).itemsize
        assert self.traced_peak(lambda: weighted_loss(logits, targets, mask, weights)) < 2 * softmax

    def test_loss_gradient_allocates_no_logit_sized_array(self):
        """The gradient is already written over the logits; ``loss_gradient`` only zeroes the rows without loss.

        This implementation's peak above its inputs measured 5,268 bytes
        (numpy 2.4, Python 3.11); the one that wrote into fresh arrays
        measured 1,648,320.
        """
        logits, targets, mask, weights = self.loss_case()
        weighted_loss(logits, targets, mask, weights)
        peak = self.traced_peak(lambda: loss_gradient(logits, mask))
        assert peak < logits[0].nbytes // 10
