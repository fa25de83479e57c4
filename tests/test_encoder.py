"""LSTM cell analytics and BiLSTM sequence encoding."""

import tracemalloc

import numpy as np
import pytest

from oracles import LstmState, gate_slice, initial_state, lstm_step

from faet import autograd as ag
from faet.autograd import ShapeError
from faet.encoder import LstmParams, bilstm_encode_batch


def zero_params(d, d_in):
    p = LstmParams(d, d_in, np.random.default_rng(0))
    p.w_in.data[...] = 0.0
    p.w_rec.data[...] = 0.0
    p.bias.data[...] = 0.0
    return p


def step(x, prev, p):
    """The oracle's cell update with `p`'s weights."""
    return lstm_step(x, prev, p.w_in.data, p.w_rec.data, p.bias.data)


def encode(x, fwd, bwd):
    """One (L, d_in) sequence through the batched BiLSTM -> (L, 2d)."""
    return bilstm_encode_batch(ag.constant(x[None]), fwd, bwd,
                               [len(x)]).data[0]


class TestLstmStepAnalytic:
    def test_all_zero_gives_zero_state(self):
        p = zero_params(d=3, d_in=2)
        out = step(np.ones(2), initial_state(3), p)
        np.testing.assert_allclose(out.c, 0.0, atol=1e-15)
        np.testing.assert_allclose(out.h, 0.0, atol=1e-15)
        fused = bilstm_encode_batch(ag.constant(np.ones((1, 1, 2))), p, p,
                                    [1]).data
        np.testing.assert_allclose(fused, 0.0, atol=1e-15)

    def test_carry_cell_two(self):
        # zero params, c0 = 2, d = 1: gates are 0.5, candidate 0, so
        # c1 = 0.5*2 = 1 and h1 = 0.5*tanh(1)
        p = zero_params(d=1, d_in=1)
        prev = LstmState(np.zeros(1), np.array([2.0]))
        out = step(np.zeros(1), prev, p)
        np.testing.assert_allclose(out.c, [1.0], atol=1e-12)
        np.testing.assert_allclose(out.h, [0.5 * np.tanh(1.0)], atol=1e-12)

    def test_gate_ranges_and_hidden_bound(self):
        rng = np.random.default_rng(1)
        p = LstmParams(4, 3, rng)
        hidden = bilstm_encode_batch(
            ag.constant(rng.uniform(-3, 3, (1, 6, 3))), p, p, [6]).data
        assert np.all(np.abs(hidden) < 1.0)

    def test_forget_bias_initialized_to_one(self):
        p = LstmParams(4, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(p.bias.data[gate_slice("forget", 4)],
                                      np.ones(4))
        np.testing.assert_array_equal(p.bias.data[gate_slice("input", 4)],
                                      np.zeros(4))

    def test_cell_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        p, other = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
        x = np.array([[[0.4, -0.7]]])  # one sequence of one step

        def f():
            enc = bilstm_encode_batch(ag.constant(x), p, other, [1])
            return ag.sum_along(ag.tanh(ag.narrow(enc, 2, 0, 3)))

        report = ag.finite_difference_check(f, p.parameters("cell"))
        assert max(report.values()) < 1e-4


class TestBilstmEncode:
    def test_output_feature_dimension_is_2d(self):
        d = 5
        rng = np.random.default_rng(3)
        fwd, bwd = LstmParams(d, 3, rng), LstmParams(d, 3, rng)
        out = bilstm_encode_batch(
            ag.constant(rng.normal(size=(2, 4, 3))), fwd, bwd, [4, 4])
        assert out.shape == (2, 4, 2 * d)

    def test_single_step_equals_lstm_step_halves(self):
        rng = np.random.default_rng(4)
        fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
        x = rng.normal(size=(1, 2))
        out = encode(x, fwd, bwd)
        step_f = step(x[0], initial_state(3), fwd)
        step_b = step(x[0], initial_state(3), bwd)
        np.testing.assert_allclose(out[0, :3], step_f.h, atol=1e-15)
        np.testing.assert_allclose(out[0, 3:], step_b.h, atol=1e-15)

    def test_sequence_matches_folded_lstm_step(self):
        # the fused sequence op must agree with folding the cell manually
        rng = np.random.default_rng(40)
        params = LstmParams(4, 3, rng)
        x = rng.normal(size=(6, 3))
        fused = encode(x, params, params)
        state_f = initial_state(4)
        state_b = initial_state(4)
        hs_f, hs_b = [], [None] * 6
        for t in range(6):
            state_f = step(x[t], state_f, params)
            hs_f.append(state_f.h)
        for t in reversed(range(6)):
            state_b = step(x[t], state_b, params)
            hs_b[t] = state_b.h
        manual = np.hstack([np.vstack(hs_f), np.vstack(hs_b)])
        np.testing.assert_allclose(fused, manual, atol=1e-14)

    def test_swap_params_and_reverse_input_mirrors_output(self):
        rng = np.random.default_rng(5)
        a, b = LstmParams(4, 3, rng), LstmParams(4, 3, rng)
        x = rng.normal(size=(6, 3))
        out = encode(x, a, b)
        mirrored = encode(x[::-1].copy(), b, a)
        np.testing.assert_allclose(out[:, :4], mirrored[::-1, 4:], atol=1e-12)
        np.testing.assert_allclose(out[:, 4:], mirrored[::-1, :4], atol=1e-12)

    def test_batched_rows_match_single_doc_encoding(self):
        rng = np.random.default_rng(50)
        fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
        x = rng.normal(size=(5, 4, 2))
        batched = bilstm_encode_batch(ag.constant(x), fwd, bwd, [4] * 5).data
        for b in range(5):
            single = encode(x[b], fwd, bwd)
            np.testing.assert_allclose(batched[b], single, atol=1e-14)

    def test_batched_gradient_check(self):
        rng = np.random.default_rng(51)
        fwd, bwd = LstmParams(2, 2, rng), LstmParams(2, 2, rng)
        seq = ag.param(rng.uniform(-1, 1, (3, 4, 2)))
        params = {"seq": seq}
        params.update(fwd.parameters("fwd"))
        params.update(bwd.parameters("bwd"))

        def f():
            return ag.sum_along(ag.tanh(bilstm_encode_batch(seq, fwd, bwd,
                                                            [4] * 3)))

        report = ag.finite_difference_check(f, params, samples_per_group=6)
        assert max(report.values()) < 1e-4

    def test_four_step_gradient_check(self):
        rng = np.random.default_rng(8)
        fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
        seq = ag.param(rng.uniform(-1, 1, (1, 4, 2)))
        params = {"seq": seq}
        params.update(fwd.parameters("fwd"))
        params.update(bwd.parameters("bwd"))

        def f():
            enc = bilstm_encode_batch(seq, fwd, bwd, [4])
            return ag.sum_along(ag.tanh(enc))

        report = ag.finite_difference_check(f, params, samples_per_group=4)
        assert max(report.values()) < 1e-4


class TestPerRowLengths:
    """Rows of one padded batch, each valid on its own prefix."""

    LENGTHS = np.array([5, 1, 3, 7, 2, 7])   # a length-1 and full-length row

    def batch(self, seed, d=3, d_in=2):
        rng = np.random.default_rng(seed)
        fwd, bwd = LstmParams(d, d_in, rng), LstmParams(d, d_in, rng)
        x = rng.normal(size=(len(self.LENGTHS), self.LENGTHS.max(), d_in))
        return rng, fwd, bwd, x

    def test_each_row_equals_its_own_unpadded_encoding(self):
        _, fwd, bwd, x = self.batch(60)
        batched = bilstm_encode_batch(ag.constant(x), fwd, bwd,
                                      self.LENGTHS).data
        for b, n in enumerate(self.LENGTHS):
            alone = encode(x[b, :n], fwd, bwd)
            np.testing.assert_allclose(batched[b, :n], alone, atol=1e-14)

    def test_padding_values_do_not_reach_valid_outputs(self):
        rng, fwd, bwd, x = self.batch(61)
        noisy = x.copy()
        pad = np.arange(x.shape[1]) >= self.LENGTHS[:, None]
        noisy[pad] = rng.uniform(-50, 50, (pad.sum(), x.shape[2]))
        clean = bilstm_encode_batch(ag.constant(x), fwd, bwd, self.LENGTHS)
        moved = bilstm_encode_batch(ag.constant(noisy), fwd, bwd, self.LENGTHS)
        np.testing.assert_array_equal(moved.data[~pad], clean.data[~pad])

    def test_gradient_check_with_mixed_lengths(self):
        _, fwd, bwd, x = self.batch(62, d=2)
        seq = ag.param(x)
        params = {"seq": seq}
        params.update(fwd.parameters("fwd"))
        params.update(bwd.parameters("bwd"))

        def f():
            enc = bilstm_encode_batch(seq, fwd, bwd, self.LENGTHS)
            return ag.sum_along(ag.tanh(enc))

        report = ag.finite_difference_check(f, params, samples_per_group=6)
        assert len(report) == 7
        assert max(report.values()) < 1e-4

    def test_no_grad_forward_equals_grad_forward_bitwise(self):
        _, fwd, bwd, x = self.batch(63)
        seq = ag.param(x)
        with_grad = bilstm_encode_batch(seq, fwd, bwd, self.LENGTHS)
        assert with_grad.requires_grad
        with ag.no_grad():
            scored = bilstm_encode_batch(seq, fwd, bwd, self.LENGTHS)
        assert not scored.requires_grad
        np.testing.assert_array_equal(scored.data, with_grad.data)

    # equal lengths, one row, all length 1, ties with a length-1 row first
    CASES = [[4, 4, 4], [6], [1, 1, 1], [1, 5, 2, 5, 5, 3]]

    def encode_case(self, lengths, seed, grad, perm=None):
        """Encode a seeded batch with `lengths`, its rows taken in the
        order `perm`, and with `grad` backward a seeded upstream gradient
        (padding included) -> (output, gradients by group)."""
        rng = np.random.default_rng(seed)
        fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
        lengths = np.array(lengths)
        x = rng.normal(size=(len(lengths), lengths.max(), 2))
        upstream = rng.normal(size=x.shape[:2] + (6,))
        if perm is not None:
            lengths, x, upstream = lengths[perm], x[perm], upstream[perm]
        seq = ag.param(x)
        if not grad:
            with ag.no_grad():
                return bilstm_encode_batch(seq, fwd, bwd, lengths).data, {}
        out = bilstm_encode_batch(seq, fwd, bwd, lengths)
        ag.sum_along(ag.mul(out, ag.constant(upstream))).backward()
        params = {"seq": seq, **fwd.parameters("fwd"),
                  **bwd.parameters("bwd")}
        return out.data, {k: v.grad for k, v in params.items()}

    @pytest.mark.parametrize("lengths", CASES + [LENGTHS.tolist()])
    @pytest.mark.parametrize("grad", [True, False])
    def test_padding_is_zero_and_rows_match_their_own_encoding(
            self, lengths, grad):
        rng = np.random.default_rng(64)
        fwd, bwd = LstmParams(3, 2, rng), LstmParams(3, 2, rng)
        x = rng.normal(size=(len(lengths), max(lengths), 2))
        seq = ag.param(x)
        if grad:
            out = bilstm_encode_batch(seq, fwd, bwd, lengths).data
        else:
            with ag.no_grad():
                out = bilstm_encode_batch(seq, fwd, bwd, lengths).data
        for b, n in enumerate(lengths):
            assert np.all(out[b, n:] == 0.0)
            np.testing.assert_allclose(out[b, :n], encode(x[b, :n], fwd, bwd),
                                       atol=1e-14)

    @pytest.mark.parametrize("lengths", CASES)
    def test_no_grad_forward_equals_grad_forward_bitwise_per_case(
            self, lengths):
        scored, _ = self.encode_case(lengths, 65, grad=False)
        with_grad, _ = self.encode_case(lengths, 65, grad=True)
        np.testing.assert_array_equal(scored, with_grad)

    @pytest.mark.parametrize("lengths", CASES[:1] + CASES[3:] +
                             [LENGTHS.tolist()])
    def test_permuting_rows_permutes_outputs_and_gradients(self, lengths):
        perm = np.random.default_rng(66).permutation(len(lengths))
        out, grads = self.encode_case(lengths, 67, grad=True)
        moved, moved_grads = self.encode_case(lengths, 67, grad=True,
                                              perm=perm)
        np.testing.assert_allclose(moved, out[perm], rtol=0, atol=1e-12)
        grads["seq"] = grads["seq"][perm]
        for name, g in grads.items():
            np.testing.assert_allclose(moved_grads[name], g, rtol=0,
                                       atol=1e-12, err_msg=name)

    def test_gradient_check_with_ties_and_longest_row_not_first(self):
        lengths = np.array([1, 4, 2, 4, 3])
        rng = np.random.default_rng(68)
        fwd, bwd = LstmParams(2, 2, rng), LstmParams(2, 2, rng)
        seq = ag.param(rng.uniform(-1, 1, (5, 4, 2)))
        weights = ag.constant(rng.normal(size=(5, 4, 4)))
        params = {"seq": seq, **fwd.parameters("fwd"),
                  **bwd.parameters("bwd")}

        def f():
            enc = bilstm_encode_batch(seq, fwd, bwd, lengths)
            return ag.sum_along(ag.mul(ag.tanh(enc), weights))

        report = ag.finite_difference_check(f, params, samples_per_group=8)
        assert max(report.values()) < 1e-4

    @pytest.mark.parametrize("lengths", [
        [5, 2],                 # past the padded length 4
        [2],                    # one entry for two rows
        [-1, 3], [0, 3],        # below 1
        [[2, 3]],               # not a vector
        [2.0, 3.0],             # not integers
        [True, True],
    ])
    def test_bad_lengths_raise_shape_error(self, lengths):
        rng = np.random.default_rng(69)
        fwd, bwd = LstmParams(2, 2, rng), LstmParams(2, 2, rng)
        seq = ag.constant(rng.normal(size=(2, 4, 2)))
        with pytest.raises(ShapeError, match="lengths"):
            bilstm_encode_batch(seq, fwd, bwd, np.array(lengths))


class TestScoringMemory:
    def test_no_grad_call_keeps_no_history(self):
        # scoring writes each step's c, tanh(c) and h into that step's spent
        # gate columns; the training histories would take 3 * (2, total, d)
        batch, length, d_in, d = 32, 40, 32, 64
        rng = np.random.default_rng(70)
        lengths = rng.integers(1, length + 1, batch)
        lengths[0] = length
        fwd, bwd = LstmParams(d, d_in, rng), LstmParams(d, d_in, rng)
        seq = ag.constant(rng.normal(size=(batch, length, d_in)))
        total = int(lengths.sum())
        assert total < batch * length
        tracemalloc.start()
        try:
            with ag.no_grad():
                out = bilstm_encode_batch(seq, fwd, bwd, lengths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gates = 2 * total * 4 * d * 8
        histories = 3 * 2 * total * d * 8
        assert peak < gates + out.data.nbytes + histories / 2
