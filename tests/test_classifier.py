"""TextCNN head behavior and label decisions."""

import numpy as np
import pytest

from oracles import conv1d_direct, full_width_filter

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
    fused vector -> ((2,) probs, (2,) logits)."""
    probs, logits = textcnn_forward_batch(
        ag.reshape(hidden, (1,) + hidden.shape),
        ag.reshape(fused, (1, fused.shape[0])), params, [hidden.shape[0]],
        **kwargs)
    return ag.reshape(probs, (2,)), ag.reshape(logits, (2,))


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

    def test_short_sequence_widths_contribute_zeros(self):
        params = make_params(4, 2, widths=(1, 3), seed=7)
        hidden, fused = rand_inputs(1, 4, 2, seed=8)  # too short for width 3
        probs, logits = textcnn_forward(hidden, fused, params)
        # manually: only the width-1 branch contributes pooled features
        per_pos = np.concatenate([hidden.data, fused.data[None]], axis=1)
        conv = np.maximum(conv1d_direct(per_pos, full_width_filter(params, 1),
                                        params.filter_bias[1].data, width=1),
                          0.0)
        feats = np.concatenate([np.max(conv, axis=0), np.zeros(3)])
        expected = feats @ params.out_w.data + params.out_b.data
        np.testing.assert_allclose(logits.data, expected, atol=1e-12)

    def test_logit_shift_invariance(self):
        params = make_params(5, 3, seed=9)
        hidden, fused = rand_inputs(5, 5, 3, seed=10)
        probs, _ = textcnn_forward(hidden, fused, params)
        params.out_b.data += 11.5  # same constant on both logits
        probs_shifted, _ = textcnn_forward(hidden, fused, params)
        np.testing.assert_allclose(probs.data, probs_shifted.data, atol=1e-12)

    def test_deterministic_without_dropout(self):
        params = make_params(5, 3, seed=11)
        hidden, fused = rand_inputs(4, 5, 3, seed=12)
        a, _ = textcnn_forward(hidden, fused, params)
        b, _ = textcnn_forward(hidden, fused, params)
        np.testing.assert_array_equal(a.data, b.data)

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
        base, _ = textcnn_forward_batch(states, summaries, params, [5, 2, 4])
        rated, _ = textcnn_forward_batch(states, summaries, params, [5, 2, 4],
                                         0.5)
        np.testing.assert_array_equal(rated.data, base.data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        params = make_params(4, 2, n_filters=2, seed=16)
        hidden = ag.param(rng.uniform(-1, 1, (5, 4)))
        fused = ag.param(rng.uniform(-1, 1, 2))
        groups = {"hidden": hidden, "fused": fused}
        groups.update(params.parameters())

        def f():
            probs, _ = textcnn_forward(hidden, fused, params)
            return ag.mul(ag.log(ag.matmul(probs, ag.constant([0.0, 1.0]))),
                          -1.0)

        report = ag.finite_difference_check(f, groups, samples_per_group=5)
        assert max(report.values()) < 1e-4


class TestBatchedRows:
    """Padded batches with per-row lengths, including rows shorter than
    the widest filter."""

    LENGTHS = np.array([5, 1, 3, 7, 2])     # 7 is the full padded length

    # each width's state products, forced into one form; None keeps the
    # rule, which at L = 7 mixes both forms (width 2 one GEMM, 3 and 4
    # per shift)
    FORMS = {"one_gemm": lambda length, width: False,
             "per_shift": lambda length, width: True,
             None: classifier._shift_products}
    # a width longer than the padded length 7 pools every row to 0
    WIDE = (2, 3, 4, 8)

    def make_case(self, seed=20, widths=(2, 3, 4)):
        rng = np.random.default_rng(seed)
        params = make_params(4, 3, seed=seed + 1, widths=widths)
        for bias in params.filter_bias.values():
            bias.data[...] = rng.uniform(-0.5, 0.5, bias.shape)
        states = rng.uniform(-1, 1, (len(self.LENGTHS), 7, 4))
        summaries = rng.uniform(-1, 1, (len(self.LENGTHS), 3))
        return params, states, summaries

    def test_each_row_equals_that_row_alone(self):
        params, states, summaries = self.make_case()
        _, logits = textcnn_forward_batch(
            ag.constant(states), ag.constant(summaries), params,
            lengths=self.LENGTHS)
        for b, n in enumerate(self.LENGTHS):
            _, alone = textcnn_forward(ag.constant(states[b, :n]),
                                       ag.constant(summaries[b]), params)
            np.testing.assert_allclose(logits.data[b], alone.data,
                                       rtol=0, atol=1e-12)
            # and against windows built one at a time
            per_pos = np.concatenate(
                [states[b, :n], np.tile(summaries[b], (n, 1))], axis=1)
            feats = np.concatenate([
                np.maximum(conv1d_direct(per_pos, full_width_filter(params, w),
                                         params.filter_bias[w].data, w),
                           0.0).max(axis=0) if n >= w else np.zeros(3)
                for w in params.widths])
            np.testing.assert_allclose(
                logits.data[b], feats @ params.out_w.data + params.out_b.data,
                rtol=0, atol=1e-12)

    def test_padding_never_reaches_an_output(self):
        params, states, summaries = self.make_case()
        _, logits = textcnn_forward_batch(
            ag.constant(states), ag.constant(summaries), params,
            lengths=self.LENGTHS)
        pad = np.arange(states.shape[1]) >= self.LENGTHS[:, None]
        states[pad] = np.random.default_rng(21).uniform(-5, 5,
                                                         states[pad].shape)
        _, changed = textcnn_forward_batch(
            ag.constant(states), ag.constant(summaries), params,
            lengths=self.LENGTHS)
        np.testing.assert_array_equal(logits.data, changed.data)

    def test_gradients_match_finite_differences(self):
        params, states, summaries = self.make_case(seed=22)
        states, summaries = ag.param(states), ag.param(summaries)
        labels = np.eye(2)[[0, 1, 1, 0, 1]]
        groups = {"states": states, "summaries": summaries}
        groups.update(params.parameters())

        def f():
            probs, _ = textcnn_forward_batch(states, summaries, params,
                                             lengths=self.LENGTHS)
            return ag.sum_along(ag.mul(ag.log(probs), ag.constant(-labels)))

        report = ag.finite_difference_check(f, groups, samples_per_group=24)
        assert max(report.values()) < 1e-4

    def test_no_grad_forward_is_bitwise_the_grad_forward(self):
        params, states, summaries = self.make_case()
        probs, logits = textcnn_forward_batch(
            ag.param(states), ag.param(summaries), params,
            lengths=self.LENGTHS)
        assert probs.requires_grad
        with ag.no_grad():
            probs_ng, logits_ng = textcnn_forward_batch(
                ag.param(states), ag.param(summaries), params,
                lengths=self.LENGTHS)
        assert not probs_ng.requires_grad
        np.testing.assert_array_equal(probs.data, probs_ng.data)
        np.testing.assert_array_equal(logits.data, logits_ng.data)

    def test_form_per_width_is_pinned(self):
        assert [classifier._shift_products(4, w) for w in (2, 3, 4)] == \
            [False, True, True]                 # stock rows
        assert [classifier._shift_products(54, w) for w in (2, 3, 4)] == \
            [False, False, False]               # long rows
        assert [classifier._shift_products(7, w) for w in self.WIDE[:3]] \
            == [False, True, True]              # this class's batches

    def forward_and_grads(self, monkeypatch, form):
        monkeypatch.setattr(classifier, "_shift_products", self.FORMS[form])
        params, states, summaries = self.make_case(seed=23, widths=self.WIDE)
        states, summaries = ag.param(states), ag.param(summaries)
        groups = {"states": states, "summaries": summaries,
                  **params.parameters()}
        probs, logits = textcnn_forward_batch(states, summaries, params,
                                              lengths=self.LENGTHS)
        labels = np.eye(2)[[1, 0, 1, 1, 0]]
        ag.sum_along(ag.mul(ag.log(probs), ag.constant(-labels))).backward()
        return logits.data, {k: p.grad for k, p in groups.items()}

    def test_forms_agree_in_forward_and_every_gradient(self, monkeypatch):
        logits, grads = self.forward_and_grads(monkeypatch, "one_gemm")
        assert np.any(logits != 0.0)
        for form in ("per_shift", None):
            other, other_grads = self.forward_and_grads(monkeypatch, form)
            np.testing.assert_allclose(other, logits, rtol=0, atol=1e-12)
            assert other_grads.keys() == grads.keys()
            for name, grad in grads.items():
                np.testing.assert_allclose(other_grads[name], grad, rtol=0,
                                           atol=1e-12, err_msg=name)
        # padding and the too-wide filter and its summary rows get no
        # gradient
        pad = np.arange(7) >= self.LENGTHS[:, None]
        assert not np.any(grads["states"][pad])
        assert not np.any(grads["cnn.filters_w8"])
        assert not np.any(grads["cnn.summary"][9:])

    @pytest.mark.parametrize("form", ["one_gemm", "per_shift"])
    def test_each_form_matches_finite_differences(self, monkeypatch, form):
        monkeypatch.setattr(classifier, "_shift_products", self.FORMS[form])
        params, states, summaries = self.make_case(seed=24, widths=self.WIDE)
        states, summaries = ag.param(states), ag.param(summaries)
        labels = np.eye(2)[[1, 1, 0, 0, 1]]
        groups = {"states": states, "summaries": summaries}
        groups.update(params.parameters())

        def f():
            probs, _ = textcnn_forward_batch(states, summaries, params,
                                             lengths=self.LENGTHS)
            return ag.sum_along(ag.mul(ag.log(probs), ag.constant(-labels)))

        report = ag.finite_difference_check(f, groups, samples_per_group=24)
        assert max(report.values()) < 1e-4


class TestPredictLabel:
    def test_positive(self):
        assert predict_label(np.array([0.4, 0.6])) == 1

    def test_negative(self):
        assert predict_label(np.array([0.6, 0.4])) == 0

    def test_exact_tie_is_negative(self):
        assert predict_label(np.array([0.5, 0.5])) == 0
