"""Cross-entropy and alignment loss values, bounds, and gradients."""

import math

import numpy as np
import pytest

from oracles import alignment_composite, cross_entropy_rows, softmax_direct

from faet import autograd as ag
from faet.attention import FineAttentionParams, fine_attention
from faet.corpus import TokenizedDoc, build_vocab, make_batches
from faet.model import Model, TrainConfig
from faet.objective import alignment_loss, cross_entropy


class TestCrossEntropy:
    # uniform rows under either label, a confident right row, a confident
    # wrong row (clamped at 1e-12) and a row for the smoothed target
    PROBS = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0],
                      [0.25, 0.75]])
    LABELS = [0, 1, 1, 1, 1]
    # logits for uniform rows under either label, a confident right row
    # and the smoothed row, none so confident that the oracle's clamp acts
    LOGITS = np.array([[0.0, 0.0], [1.5, 1.5], [-5.0, 5.0],
                       [0.0, np.log(3.0)]])
    LOGIT_LABELS = np.array([0, 1, 1, 1])

    def test_oracle_rows_are_the_known_values(self):
        rows, _ = cross_entropy_rows(self.PROBS, self.LABELS, 0.0)
        np.testing.assert_allclose(
            rows, [np.log(2.0), np.log(2.0), 0.0, -np.log(1e-12),
                   -np.log(0.75)], rtol=0, atol=1e-12)
        rows, _ = cross_entropy_rows(self.PROBS, self.LABELS, 0.2)
        np.testing.assert_allclose(
            rows[4], -(0.9 * np.log(0.75) + 0.1 * np.log(0.25)), atol=1e-12)

    @pytest.mark.parametrize("smoothing", [0.0, 0.2])
    def test_batch_matches_the_per_row_oracle(self, smoothing):
        z, labels = self.LOGITS, self.LOGIT_LABELS
        logits = ag.param(z)
        loss = cross_entropy(logits, labels, smoothing)
        loss.backward()
        p = np.array([softmax_direct(row) for row in z])
        want, d_p = cross_entropy_rows(p, labels, smoothing)
        assert loss.shape == ()
        np.testing.assert_allclose(float(loss.data), math.fsum(want),
                                   rtol=0, atol=1e-12)
        # row b's gradient is row b's own, through the softmax's Jacobian
        d_z = p * (d_p - (d_p * p).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(logits.grad, d_z, rtol=0, atol=1e-12)
        for b, row in enumerate(want):
            one = cross_entropy(ag.constant(z[b:b + 1]), labels[b:b + 1],
                                smoothing)
            np.testing.assert_allclose(float(one.data), row, atol=1e-12)

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("gap", [30.0, 40.0, 60.0])
    def test_a_confidently_wrong_row_keeps_its_gradient(self, gap,
                                                        smoothing):
        # the clamped log of the label's probability gave 0.094 at a gap
        # of 30, 4.2e-6 at 40 and 8.8e-15 at 60, and capped the loss at
        # -log(1e-12); unclamped, the gradient is p - t, which is
        # +-(1 - s/2) here, and the loss gap * (1 - s/2)
        logits = ag.param([[gap / 2.0, -gap / 2.0]])
        loss = cross_entropy(logits, [1], smoothing)
        loss.backward()
        keep = 1.0 - smoothing / 2.0
        np.testing.assert_allclose(logits.grad, [[keep, -keep]], rtol=0,
                                   atol=1e-9)
        np.testing.assert_allclose(float(loss.data), gap * keep, rtol=1e-12)
        assert float(loss.data) > -np.log(1e-12)

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_gradients_match_finite_differences(self, smoothing):
        rng = np.random.default_rng(9)
        logits = ag.param(rng.uniform(-2, 2, (5, 2)))
        report = ag.finite_difference_check(
            lambda: cross_entropy(logits, [0, 1, 1, 0, 1], smoothing),
            {"logits": logits}, samples_per_group=8)
        assert max(report.values()) < 1e-4


class TestAlignmentLoss:
    def test_single_word_is_zero(self):
        loss = alignment_loss(ag.constant(np.ones((1, 3)) / 3.0),
                              ag.constant(np.zeros((1, 4))),
                              ag.constant(np.zeros(8)))
        assert float(loss.data) == 0.0

    def test_identical_rows_zero(self):
        beta = ag.constant(np.tile([0.3, 0.7], (4, 1)))
        text = ag.constant(np.random.default_rng(0).normal(size=(4, 3)))
        loss = alignment_loss(beta, text, ag.constant(np.zeros(6)))
        np.testing.assert_allclose(float(loss.data), 0.0, atol=1e-15)

    def test_hand_case_minus_one(self):
        # two words, opposite one-hot attention, zero distance weights:
        # d = 0.5 and sum of squared differences = 2, so loss = -1
        beta = ag.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        text = ag.constant(np.random.default_rng(1).normal(size=(2, 3)))
        loss = alignment_loss(beta, text, ag.constant(np.zeros(6)))
        np.testing.assert_allclose(float(loss.data), -1.0, atol=1e-9)

    def test_bounded_by_pair_count(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            raw = rng.uniform(0, 1, (n, m)) + 1e-9
            beta = ag.constant(raw / raw.sum(axis=1, keepdims=True))
            text = ag.constant(rng.normal(size=(n, 4)))
            w = ag.constant(rng.normal(size=8))
            with ag.no_grad():
                loss = float(alignment_loss(beta, text, w).data)
            assert loss <= 0.0
            assert abs(loss) <= 2.0 * n * (n - 1) / 2.0 + 1e-9

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 1, (5, 3)) + 1e-9
        beta = raw / raw.sum(axis=1, keepdims=True)
        text = rng.normal(size=(5, 4))
        w = ag.constant(rng.normal(size=8))
        base = float(alignment_loss(ag.constant(beta), ag.constant(text),
                                    w).data)
        perm = rng.permutation(5)
        permuted = float(alignment_loss(ag.constant(beta[perm]),
                                        ag.constant(text[perm]), w).data)
        np.testing.assert_allclose(base, permuted, atol=1e-12)

    def test_weights_read_through_a_column_view(self):
        # `Model.doc_losses` passes each row's weights as a column view
        rng = np.random.default_rng(11)
        for n, m, h in [(1, 3, 2), (2, 1, 3)] + [
                rng.integers(1, (49, 7, 6)) for _ in range(20)]:
            raw = rng.uniform(0, 1, (n, m)) + 1e-9
            beta = raw / raw.sum(axis=1, keepdims=True)
            text, w = rng.normal(size=(n, h)), rng.normal(size=2 * h)
            results = []
            for loss_fn in (alignment_loss, alignment_composite):
                wide = ag.param(np.concatenate([beta, beta], 1))
                loss = loss_fn(ag.narrow(wide, 1, 0, m), ag.constant(text),
                               ag.constant(w))
                loss.backward()
                results.append((loss.data, wide.grad))
            (got, grad), (want, wants) = results
            assert got == want and not np.any(grad[:, m:]), (n, m, h)
            np.testing.assert_allclose(grad, wants, rtol=1e-12,
                                       atol=1e-12 * np.abs(wants).max())


class TestTotalLoss:
    @staticmethod
    def batch_losses(lambda_align):
        """`Model.batch_loss` over two documents whose alignment term is
        nonzero, with their mean cross-entropy and mean alignment."""
        docs = [TokenizedDoc(["good", "day", "here"], ["E_S", "E_C"], 1),
                TokenizedDoc(["bad", "day"], ["E_C", "E_S"], 0)]
        config = TrainConfig(d=4, d_w=5, n_filters=3, widths=(2,),
                             lambda_align=lambda_align, seed=0)
        model = Model(config, build_vocab(docs))
        (batch,) = make_batches(docs, model.vocab, 2, max_len=20,
                                shuffle=False)
        ce, align = model.doc_losses(model.forward_docs(batch.rows),
                                     batch.labels)
        inv = 1.0 / len(batch)
        return (float(model.batch_loss(batch).data), float(ce.data) * inv,
                float(align.data) * inv)

    def test_zero_lambda_is_pure_ce(self):
        loss, ce, align = self.batch_losses(0.0)
        assert align < 0.0
        assert loss == ce

    def test_arithmetic(self):
        loss, ce, align = self.batch_losses(1.0)
        assert align < 0.0
        assert loss == ce + align

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_align=-0.1)

    def test_end_to_end_differentiable(self):
        rng = np.random.default_rng(5)
        attn = FineAttentionParams(hidden=3, rng=rng)
        text = ag.param(rng.uniform(-1, 1, (3, 3)))
        emoji = ag.param(rng.uniform(-1, 1, (2, 3)))

        def f():
            out = fine_attention(ag.reshape(text, (1, 3, 3)),
                                 ag.reshape(emoji, (1, 2, 3)), attn, [3], [2])
            fused = ag.reshape(out.fused, (6,))
            logits = ag.reshape(ag.narrow(fused, 0, 0, 2), (1, 2))
            ce = cross_entropy(logits, [1], 0.0)
            align = alignment_loss(ag.reshape(out.word_emoji_weights, (3, 2)),
                                   text, attn.distance_w)
            return ag.add(ce, ag.mul(align, 0.5))

        groups = {"text": text, "emoji": emoji}
        groups.update(attn.parameters())
        report = ag.finite_difference_check(f, groups, samples_per_group=6)
        assert max(report.values()) < 1e-4

    def test_gradient_step_on_interaction_weights_decreases_alignment(self):
        # frozen toy instance: one descent step along d(align)/d(w_u)
        rng = np.random.default_rng(6)
        attn = FineAttentionParams(hidden=3, rng=rng)
        text = ag.constant(rng.uniform(-1, 1, (4, 3)))
        emoji = ag.constant(rng.uniform(-1, 1, (3, 3)))

        def align_value():
            out = fine_attention(ag.reshape(text, (1, 4, 3)),
                                 ag.reshape(emoji, (1, 3, 3)), attn, [4], [3])
            return alignment_loss(ag.reshape(out.word_emoji_weights, (4, 3)),
                                  text, attn.distance_w)

        before = align_value()
        attn.interaction_w.zero_grad()
        before.backward()
        grad = attn.interaction_w.grad.copy()
        assert np.any(grad != 0)
        attn.interaction_w.data -= 0.05 * grad
        after = align_value()
        assert float(after.data) < float(before.data)
