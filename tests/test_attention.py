"""Interaction matrix and both attention directions, against hand oracles.

The layer is batched; most cases run one document as a batch of one and
read row 0 of each output.
"""

import numpy as np
import pytest

from faet import autograd as ag
from faet.autograd import ShapeError
from faet.attention import (
    CoarseAttentionParams, FineAttentionParams, coarse_attention,
    emoji_to_text, fine_attention, interaction_matrix, text_to_emoji,
    word_emoji_attention,
)
from oracles import coarse_attention_doc, fine_attention_doc, sum_along

SOFTMAX_2_0 = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()  # [0.8808, 0.1192]


def rand_states(n, m, feat, seed):
    """One document's (1, n, feat) text and (1, m, feat) emoji states."""
    rng = np.random.default_rng(seed)
    return (ag.constant(rng.uniform(-1, 1, (1, n, feat))),
            ag.constant(rng.uniform(-1, 1, (1, m, feat))))


def full(states):
    """Every position of a (B, k, f) batch of states is valid."""
    return np.ones(states.shape[:2], dtype=bool)


class TestInteractionMatrix:
    def test_zero_weights_zero_matrix(self):
        text, emoji = rand_states(3, 2, 4, 0)
        u = interaction_matrix(text, emoji, ag.constant(np.zeros(12)))
        np.testing.assert_array_equal(u.data[0], np.zeros((3, 2)))

    def test_one_by_one_matches_definition(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(-1, 1, 4)
        e = rng.uniform(-1, 1, 4)
        w = rng.uniform(-1, 1, 12)
        u = interaction_matrix(ag.constant(t[None, None]),
                               ag.constant(e[None, None]), ag.constant(w))
        expected = w @ np.concatenate([e, t, e * t])
        np.testing.assert_allclose(u.data[0], [[expected]], atol=1e-12)

    def test_zero_emoji_column_leaves_text_segment_only(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(-1, 1, (3, 4))
        e = np.vstack([rng.uniform(-1, 1, 4), np.zeros(4)])
        w = rng.uniform(-1, 1, 12)
        u = interaction_matrix(ag.constant(t[None]), ag.constant(e[None]),
                               ag.constant(w))
        # zeroed emoji kills the emoji and product segments of the features
        expected_col = t @ w[4:8]
        np.testing.assert_allclose(u.data[0, :, 1], expected_col, atol=1e-12)

    def test_weight_length_must_be_6d(self):
        text, emoji = rand_states(2, 2, 4, 3)
        with pytest.raises(ShapeError, match="3\\*features"):
            interaction_matrix(text, emoji, ag.constant(np.zeros(8)))


class TestEmojiToText:
    def test_single_emoji_gets_full_weight(self):
        text, emoji = rand_states(3, 1, 4, 4)
        u = interaction_matrix(text, emoji,
                               ag.constant(np.random.default_rng(5).uniform(-1, 1, 12)))
        weights, summary = emoji_to_text(u, emoji, full(text), full(emoji))
        np.testing.assert_array_equal(weights.data[0], [1.0])
        np.testing.assert_array_equal(summary.data[0], emoji.data[0, 0])

    def test_constant_shift_invariance(self):
        text, emoji = rand_states(4, 3, 4, 6)
        u = interaction_matrix(
            text, emoji, ag.constant(np.random.default_rng(7).uniform(-1, 1, 12)))
        w1, _ = emoji_to_text(u, emoji, full(text), full(emoji))
        w2, _ = emoji_to_text(ag.add(u, ag.constant(3.7)), emoji, full(text),
                              full(emoji))
        np.testing.assert_allclose(w1.data, w2.data, atol=1e-12)

    def test_column_maxima_two_and_zero(self):
        # two emojis whose column maxima are 2 and 0 -> softmax([2, 0])
        u = ag.constant(np.array([[[2.0, -1.0], [0.5, 0.0]]]))
        emoji = ag.constant(np.eye(2)[None])
        weights, summary = emoji_to_text(u, emoji, full(emoji), full(emoji))
        np.testing.assert_allclose(weights.data[0], SOFTMAX_2_0, atol=1e-9)
        np.testing.assert_allclose(summary.data[0], SOFTMAX_2_0, atol=1e-9)


class TestTextToEmoji:
    def test_single_text_word(self):
        text, emoji = rand_states(1, 2, 4, 8)
        u = interaction_matrix(
            text, emoji, ag.constant(np.random.default_rng(9).uniform(-1, 1, 12)))
        weights, summary = text_to_emoji(u, text, full(text), full(emoji))
        np.testing.assert_array_equal(weights.data[0], [1.0])
        np.testing.assert_array_equal(summary.data[0], text.data[0, 0])

    def test_all_equal_scores_uniform(self):
        text, emoji = rand_states(5, 2, 4, 10)
        u = ag.constant(np.full((1, 5, 2), 0.3))
        weights, _ = text_to_emoji(u, text, full(text), full(emoji))
        np.testing.assert_allclose(weights.data[0], 0.2, atol=1e-12)

    def test_fuzzed_distributions(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n, m = rng.integers(1, 6), rng.integers(1, 5)
            u = ag.constant(rng.uniform(-5, 5, (1, n, m)))
            text = ag.constant(rng.uniform(-1, 1, (1, n, 3)))
            with ag.no_grad():
                weights, _ = text_to_emoji(u, text, full(text),
                                           np.ones((1, m), dtype=bool))
            assert np.all(weights.data >= 0)
            np.testing.assert_allclose(weights.data.sum(), 1.0, atol=1e-9)


class TestWordEmojiAttention:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(12)
        beta = word_emoji_attention(ag.constant(rng.uniform(-4, 4, (1, 6, 3))),
                                    np.ones((1, 3), dtype=bool))
        np.testing.assert_allclose(beta.data[0].sum(axis=1), 1.0, atol=1e-9)

    def test_single_emoji_rows_all_one(self):
        beta = word_emoji_attention(ag.constant(np.array([[[0.4], [-2.0]]])),
                                    np.ones((1, 1), dtype=bool))
        np.testing.assert_array_equal(beta.data[0], [[1.0], [1.0]])

    def test_row_two_zero(self):
        beta = word_emoji_attention(ag.constant(np.array([[[2.0, 0.0]]])),
                                    np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(beta.data[0, 0], SOFTMAX_2_0, atol=1e-9)


class TestFineAttentionEndToEnd:
    def test_emoji_permutation_equivariance(self):
        params = FineAttentionParams(hidden=4, rng=np.random.default_rng(14))
        text, emoji = rand_states(4, 3, 4, 15)
        out = fine_attention(text, emoji, params, [4], [3])
        perm = [2, 0, 1]
        out_p = fine_attention(text, ag.constant(emoji.data[:, perm]), params,
                               [4], [3])
        np.testing.assert_allclose(out_p.emoji_weights.data,
                                   out.emoji_weights.data[:, perm], atol=1e-12)
        np.testing.assert_allclose(out_p.word_emoji_weights.data,
                                   out.word_emoji_weights.data[:, :, perm],
                                   atol=1e-12)
        np.testing.assert_allclose(out_p.fused.data, out.fused.data,
                                   atol=1e-12)

    def test_single_emoji_summary_is_that_state_exactly(self):
        params = FineAttentionParams(hidden=3, rng=np.random.default_rng(16))
        text, emoji = rand_states(5, 1, 3, 17)
        out = fine_attention(text, emoji, params, [5], [1])
        np.testing.assert_array_equal(out.fused.data[0, 3:], emoji.data[0, 0])

    def test_no_emoji_fallback(self):
        params = FineAttentionParams(hidden=3, rng=np.random.default_rng(18))
        text = ag.constant(np.random.default_rng(19).uniform(-1, 1, (1, 4, 3)))
        # an emoji-free row: one padded emoji column, emoji length 0
        out = fine_attention(text, ag.constant(np.ones((1, 1, 3))), params,
                             [4], [0])
        np.testing.assert_array_equal(out.fused.data[0, 3:], np.zeros(3))
        assert out.emoji_weights.data[0, :0].shape == (0,)
        np.testing.assert_array_equal(out.emoji_weights.data, [[0.0]])
        np.testing.assert_allclose(out.fused.data[0, :3],
                                   text.data[0].mean(axis=0), atol=1e-12)

    def test_chain_gradients_match_finite_differences(self):
        rng = np.random.default_rng(20)
        params = FineAttentionParams(hidden=3, rng=rng)
        text = ag.param(rng.uniform(-1, 1, (3, 3)))
        emoji = ag.param(rng.uniform(-1, 1, (2, 3)))
        groups = {"text": text, "emoji": emoji,
                  "interaction_w": params.interaction_w}

        def f():
            out = fine_attention(ag.reshape(text, (1, 3, 3)),
                                 ag.reshape(emoji, (1, 2, 3)), params,
                                 [3], [2])
            return sum_along(ag.tanh(out.fused))

        report = ag.finite_difference_check(f, groups, samples_per_group=6)
        assert max(report.values()) < 1e-4


class TestCoarseAttention:
    def test_single_emoji_returns_it(self):
        params = CoarseAttentionParams(hidden=4, rng=np.random.default_rng(21))
        text, emoji = rand_states(3, 1, 4, 22)
        context, weights = coarse_attention(text, emoji, params, [3], [1])
        np.testing.assert_array_equal(weights.data[0], [1.0])
        np.testing.assert_array_equal(context.data[0], emoji.data[0, 0])

    def test_zero_params_average_emojis(self):
        params = CoarseAttentionParams(hidden=4, rng=np.random.default_rng(23))
        params.w.data[...] = 0.0
        params.v.data[...] = 0.0
        text, emoji = rand_states(3, 4, 4, 24)
        context, weights = coarse_attention(text, emoji, params, [3], [4])
        np.testing.assert_allclose(weights.data, 0.25, atol=1e-12)
        np.testing.assert_allclose(context.data[0], emoji.data[0].mean(axis=0),
                                   atol=1e-12)

    def test_context_is_convex_combination(self):
        params = CoarseAttentionParams(hidden=3, rng=np.random.default_rng(25))
        text, emoji = rand_states(2, 5, 3, 26)
        context, _ = coarse_attention(text, emoji, params, [2], [5])
        lo, hi = emoji.data[0].min(axis=0), emoji.data[0].max(axis=0)
        assert np.all(context.data >= lo - 1e-12)
        assert np.all(context.data <= hi + 1e-12)


class TestBatchedAgainstOracle:
    """Padded batches against the per-document pair-form oracle.

    Padding holds random states, not zeros, so a leak through the masks
    would show in the values."""

    @staticmethod
    def batch(rng, feat=4):
        docs = [(rng.uniform(-1, 1, (rng.integers(1, 13), feat)),
                 rng.uniform(-1, 1, (rng.integers(0, 6), feat)))
                for _ in range(rng.integers(1, 6))]
        n = np.array([len(t) for t, _ in docs])
        m = np.array([len(e) for _, e in docs])
        text = rng.uniform(-1, 1, (len(docs), n.max(), feat))
        emoji = rng.uniform(-1, 1, (len(docs), max(1, m.max()), feat))
        for b, (t, e) in enumerate(docs):
            text[b, :n[b]], emoji[b, :m[b]] = t, e
        return docs, n, m, ag.constant(text), ag.constant(emoji)

    def test_fine_matches_per_document_oracle(self):
        rng = np.random.default_rng(27)
        params = FineAttentionParams(hidden=4, rng=rng)
        emoji_free = 0
        for _ in range(40):
            docs, n, m, text, emoji = self.batch(rng)
            out = fine_attention(text, emoji, params, n, m)
            for b, (t, e) in enumerate(docs):
                u, emoji_w, text_w, beta, fused = fine_attention_doc(
                    t, e, params.interaction_w.data)
                n_b, m_b = n[b], m[b]
                for got, want in (
                        (out.interaction.data[b, :n_b, :m_b], u),
                        (out.emoji_weights.data[b, :m_b], emoji_w),
                        (out.text_weights.data[b, :n_b], text_w),
                        (out.word_emoji_weights.data[b, :n_b, :m_b], beta),
                        (out.fused.data[b], fused)):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                assert np.all(out.emoji_weights.data[b, m_b:] == 0.0)
                assert np.all(out.text_weights.data[b, n_b:] == 0.0)
                emoji_free += m_b == 0
        assert emoji_free > 0

    def test_padding_and_emoji_free_rows_pass_no_gradient(self):
        rng = np.random.default_rng(29)
        params = FineAttentionParams(hidden=3, rng=rng)
        text = ag.param(rng.uniform(-1, 1, (2, 4, 3)))
        emoji = ag.param(rng.uniform(-1, 1, (2, 2, 3)))
        # row 0: two words, no emoji; row 1: four words, two emojis
        out = fine_attention(text, emoji, params, [2, 4], [0, 2])
        sum_along(ag.tanh(out.fused)).backward()
        assert np.all(emoji.grad[0] == 0.0)
        assert np.all(text.grad[0, 2:] == 0.0)
        # uniform weights on row 0 do not depend on the scorer, so its
        # gradient comes from row 1 alone
        alone = FineAttentionParams(hidden=3, rng=np.random.default_rng(29))
        row = fine_attention(ag.constant(text.data[1:]),
                             ag.constant(emoji.data[1:]), alone, [4], [2])
        sum_along(ag.tanh(row.fused)).backward()
        np.testing.assert_allclose(params.interaction_w.grad,
                                   alone.interaction_w.grad, rtol=0,
                                   atol=1e-12)

    def test_coarse_matches_per_document_oracle(self):
        rng = np.random.default_rng(28)
        params = CoarseAttentionParams(hidden=4, rng=rng)
        for _ in range(40):
            docs, n, m, text, emoji = self.batch(rng)
            context, weights = coarse_attention(text, emoji, params, n, m)
            for b, (t, e) in enumerate(docs):
                want_context, want_weights = coarse_attention_doc(
                    t, e, params.w.data, params.v.data)
                np.testing.assert_allclose(context.data[b], want_context,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(weights.data[b, :m[b]],
                                           want_weights, rtol=0, atol=1e-12)
                assert np.all(weights.data[b, m[b]:] == 0.0)
