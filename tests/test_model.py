"""Model tests: embeddings, causality, loss masking, gradients."""

import numpy as np
import pytest
from scipy.special import erf

from codec_infill.errors import CapacityError, InvalidInputError, VocabularyError
from codec_infill.model import (
    _LN_EPS,
    DecodeSession,
    EncodedBatch,
    ModelConfig,
    ModelState,
    _embed_batch,
    encode_sequence,
    forward,
    backward,
    init_params,
    loss_gradient,
    new_model,
    pad_sequences,
    score_sequence,
    sinusoidal_positions,
    weighted_loss,
)
from codec_infill.rearrange import causal_mask, delay_stack
from codec_infill.tokens import EMPTY, EOS, EOU, CodecMatrix, Span, mask_marker

from helpers import random_matrix


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
    return _embed_batch(params, cfg, pad_sequences([seq], cfg), start=pos)[0, 0]


class TestEmbedding:
    def test_position_zero_encoding(self):
        """At position 0 the sinusoid gives 0 on even dims and 1 on odd dims."""
        pe = sinusoidal_positions(1, 8)
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

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
        emb = _embed_batch(state.params, cfg, batch)[0]
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
        assert row.marker_ids.tolist() == [[0, 2, 0, 4, 3]]
        with pytest.raises(VocabularyError):
            encode_sequence([], [mask_marker(4)], cfg)

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

    def test_identical_contexts_prefill_once(self):
        cfg = tiny_config()
        state = new_model(cfg, seed=19)
        text, items = random_context(np.random.default_rng(20), cfg)
        session = DecodeSession(state, [(text, items)] * 5)
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


class TestLoss:
    def test_uniform_logits_analytic_value(self):
        """Uniform logits over 256 with weights (5,1,0.5,0.1): 6.6 ln 256."""
        rng = np.random.default_rng(15)
        n = 40
        logits = [np.zeros((n, 256)) for _ in range(4)]
        targets = rng.integers(0, 256, size=(n, 4))
        mask = np.ones((n, 4), dtype=bool)
        total, per_k, warning = weighted_loss(logits, targets, mask, (5.0, 1.0, 0.5, 0.1))
        assert not warning
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
        total, _, _ = weighted_loss(logits, targets, np.ones((n, 1), bool), (1.0,))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_masked_positions_contribute_nothing(self):
        rng = np.random.default_rng(16)
        n = 30
        logits = [rng.standard_normal((n, 9)) for _ in range(2)]
        targets = rng.integers(0, 9, size=(n, 2))
        mask = rng.random((n, 2)) < 0.5
        base, _, _ = weighted_loss(logits, targets, mask, (2.0, 1.0))
        poked = [l.copy() for l in logits]
        for k in range(2):
            poked[k][~mask[:, k]] = rng.standard_normal(((~mask[:, k]).sum(), 9)) * 50
        after, _, _ = weighted_loss(poked, targets, mask, (2.0, 1.0))
        assert after == base  # exactly zero change

    def test_all_masked_batch_is_zero_with_warning(self):
        logits = [np.ones((4, 6))]
        targets = np.zeros((4, 1), dtype=np.int64)
        mask = np.zeros((4, 1), dtype=bool)
        total, per_k, warning = weighted_loss(logits, targets, mask, (1.0,))
        assert total == 0.0 and per_k == [0.0] and warning


class TestGradients:
    def loss_fn(self, params, cfg, batch, targets, mask, weights):
        logits, _ = forward(params, cfg, batch)
        total, _, _ = weighted_loss(logits, targets, mask, weights)
        return total

    def analytic_grads(self, params, cfg, batch, targets, mask, weights):
        logits, cache = forward(params, cfg, batch, want_cache=True)
        d_logits = loss_gradient(logits, targets, mask, weights)
        return backward(params, cfg, cache, d_logits)

    def test_finite_difference_agreement(self):
        """Central differences (h=1e-3) on a 1-layer dim-8 float64 model.

        Coordinates whose gradient magnitude is below 1e-4 are skipped:
        there the h^2 truncation error of central differences swamps the
        value itself, so a relative comparison is meaningless.
        """
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(17))
        batch, targets, mask = random_batch(np.random.default_rng(18), cfg)
        weights = cfg.loss_weights
        grads = self.analytic_grads(params, cfg, batch, targets, mask, weights)
        rng = np.random.default_rng(19)
        names = [n for n in params if params[n].size > 0]
        checked = 0
        while checked < 12:
            name = names[rng.integers(0, len(names))]
            flat_index = int(rng.integers(0, params[name].size))
            idx = np.unravel_index(flat_index, params[name].shape)
            an = grads[name][idx]
            if abs(an) < 1e-4:
                continue
            h = 1e-3
            original = params[name][idx]
            params[name][idx] = original + h
            up = self.loss_fn(params, cfg, batch, targets, mask, weights)
            params[name][idx] = original - h
            down = self.loss_fn(params, cfg, batch, targets, mask, weights)
            params[name][idx] = original
            fd = (up - down) / (2 * h)
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            assert rel < 1e-4, f"{name}{idx}: analytic {an} vs fd {fd}"
            checked += 1

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
