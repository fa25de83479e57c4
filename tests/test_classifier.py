"""TextCNN head behavior and label decisions."""

import tracemalloc

import numpy as np

from faet import autograd as ag
from faet import classifier
from faet.classifier import TextCnnParams, predict_label, textcnn_forward_batch


def make_params(hidden, summary_dim, n_filters=3, widths=(2, 3, 4), seed=0):
    return TextCnnParams(hidden, summary_dim, n_filters,
                         np.random.default_rng(seed), widths=widths)


def rand_inputs(length, hidden_dim, fused_dim, seed):
    rng = np.random.default_rng(seed)
    return (ag.constant(rng.uniform(-1, 1, (length, hidden_dim))),
            ag.constant(rng.uniform(-1, 1, fused_dim)))


def textcnn_forward(hidden, fused, params, **kwargs):
    """One document through the batched head: (L, 2d) states + (4d,)
    fused vector -> ((2,) probs, (2,) logits), the probabilities
    softmaxed as the model softmaxes them."""
    logits = textcnn_forward_batch(
        ag.reshape(hidden, (1,) + hidden.shape),
        ag.reshape(fused, (1, fused.shape[0])), params, [hidden.shape[0]],
        **kwargs)
    return (ag.constant(ag.softmax_array(logits.data, 1)[0]),
            ag.reshape(logits, (2,)))


class TestForward:
    def test_all_zero_params_give_half_half(self):
        params = make_params(6, 4)
        for p in params.parameters().values():
            p.data[...] = 0.0
        hidden, fused = rand_inputs(5, 6, 4, seed=1)
        probs, logits = textcnn_forward(hidden, fused, params)
        np.testing.assert_allclose(probs.data, [0.5, 0.5], atol=1e-15)
        np.testing.assert_array_equal(logits.data, [0.0, 0.0])

    def test_prob_sums_on_fuzzed_inputs(self):
        rng = np.random.default_rng(2)
        params = make_params(5, 3, seed=3)
        for _ in range(200):
            length = int(rng.integers(1, 8))
            hidden = ag.constant(rng.uniform(-2, 2, (length, 5)))
            fused = ag.constant(rng.uniform(-2, 2, 3))
            with ag.no_grad():
                probs, _ = textcnn_forward(hidden, fused, params)
            assert np.all(probs.data >= 0)
            np.testing.assert_allclose(probs.data.sum(), 1.0, atol=1e-9)

    def test_width_one_kernels_are_permutation_invariant(self):
        params = make_params(4, 3, widths=(1,), seed=4)
        hidden, fused = rand_inputs(6, 4, 3, seed=5)
        probs, _ = textcnn_forward(hidden, fused, params)
        perm = np.random.default_rng(6).permutation(6)
        probs_p, _ = textcnn_forward(ag.constant(hidden.data[perm]), fused, params)
        np.testing.assert_allclose(probs.data, probs_p.data, atol=1e-12)

    def test_logit_shift_invariance(self):
        params = make_params(5, 3, seed=9)
        hidden, fused = rand_inputs(5, 5, 3, seed=10)
        probs, _ = textcnn_forward(hidden, fused, params)
        params.out_b.data += 11.5  # same constant on both logits
        probs_shifted, _ = textcnn_forward(hidden, fused, params)
        np.testing.assert_allclose(probs.data, probs_shifted.data, atol=1e-12)

    def test_dropout_only_when_training(self):
        params = make_params(5, 3, seed=13)
        hidden, fused = rand_inputs(4, 5, 3, seed=14)
        base, _ = textcnn_forward(hidden, fused, params)
        dropped, _ = textcnn_forward(hidden, fused, params, dropout_rate=0.5,
                                     dropout_rng=np.random.default_rng(0))
        assert np.any(base.data != dropped.data)

    def test_positive_rate_without_generator_is_rate_zero(self):
        params = make_params(4, 4, seed=13)
        rng = np.random.default_rng(14)
        states = ag.constant(rng.uniform(-1, 1, (3, 5, 4)))
        summaries = ag.constant(rng.uniform(-1, 1, (3, 4)))
        base = textcnn_forward_batch(states, summaries, params, [5, 2, 4])
        rated = textcnn_forward_batch(states, summaries, params, [5, 2, 4],
                                      0.5)
        np.testing.assert_array_equal(rated.data, base.data)


class TestScoringMemory:
    def test_no_grad_call_builds_no_all_position_products(self):
        # stock width (2d = 400, 4d = 800, F = 64) at B 64, L 28: the
        # time-major state copy, then per width a running window sum and one
        # shift's product, both (L - w + 1, B, F); the margin, one more
        # window buffer, holds the per-row summary terms, the validity mask
        # and the pooled maxima.  All-position products of width 4 alone,
        # (L, B, F, 4), would overrun it
        batch, length, hidden, summary_dim, f = 64, 28, 400, 800, 64
        rng = np.random.default_rng(0)
        params = make_params(hidden, summary_dim, n_filters=f, seed=1)
        states = ag.constant(rng.uniform(-1, 1, (batch, length, hidden)))
        summaries = ag.constant(rng.uniform(-1, 1, (batch, summary_dim)))
        lengths = rng.integers(1, length + 1, batch)
        lengths[0] = length
        tracemalloc.start()
        try:
            with ag.no_grad():
                textcnn_forward_batch(states, summaries, params, lengths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        steps = batch * length * hidden * 8
        window = (length - 1) * batch * f * 8
        assert peak < steps + 3 * window


def test_form_per_width_is_pinned():
    # the backward's form; the forward always runs per shift
    assert [classifier._shift_products(4, w) for w in (2, 3, 4)] == \
        [True, True, True]                  # stock rows
    # at exactly 3/4 of the products reached, per shift
    assert [classifier._shift_products(4 * (w - 1), w) for w in (2, 3, 4)] \
        == [True, True, True]
    assert [classifier._shift_products(4 * (w - 1) + 1, w)
            for w in (2, 3, 4)] == [False, False, False]
    assert [classifier._shift_products(7, w) for w in (2, 3, 4)] == \
        [False, True, True]                 # mid-length rows mix forms
    assert [classifier._shift_products(54, w) for w in (2, 3, 4)] == \
        [False, False, False]               # long rows


class TestPredictLabel:
    def test_positive(self):
        assert predict_label(np.array([0.4, 0.6])) == 1

    def test_negative(self):
        assert predict_label(np.array([0.6, 0.4])) == 0

    def test_exact_tie_is_negative(self):
        assert predict_label(np.array([0.5, 0.5])) == 0
