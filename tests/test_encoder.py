"""LSTM cell analytics and BiLSTM sequence encoding."""

import tracemalloc

import numpy as np

from oracles import LstmState, gate_slice, initial_state, lstm_step

from faet import autograd as ag
from faet.encoder import LstmParams, bilstm_encode_batch


def zero_params(d, d_in):
    p = LstmParams(d, d_in, np.random.default_rng(0))
    p.w_in.data[...] = 0.0
    p.w_rec.data[...] = 0.0
    p.bias.data[...] = 0.0
    return p


def step(x, prev, p):
    """The oracle's cell update with `p`'s weights -> (h, c) arrays."""
    out = lstm_step(ag.constant(x), prev, p.w_in, p.w_rec, p.bias)
    return out.h.data, out.c.data


def encode(x, fwd, bwd):
    """One (L, d_in) sequence through the batched BiLSTM -> (L, 2d)."""
    return bilstm_encode_batch(ag.constant(x[None]), fwd, bwd,
                               [len(x)]).data[0]


class TestLstmStepAnalytic:
    def test_all_zero_gives_zero_state(self):
        p = zero_params(d=3, d_in=2)
        h, c = step(np.ones(2), initial_state(3), p)
        np.testing.assert_allclose(c, 0.0, atol=1e-15)
        np.testing.assert_allclose(h, 0.0, atol=1e-15)
        fused = bilstm_encode_batch(ag.constant(np.ones((1, 1, 2))), p, p,
                                    [1]).data
        np.testing.assert_allclose(fused, 0.0, atol=1e-15)

    def test_carry_cell_two(self):
        # zero params, c0 = 2, d = 1: gates are 0.5, candidate 0, so
        # c1 = 0.5*2 = 1 and h1 = 0.5*tanh(1)
        p = zero_params(d=1, d_in=1)
        prev = LstmState(ag.constant(np.zeros(1)), ag.constant([2.0]))
        h, c = step(np.zeros(1), prev, p)
        np.testing.assert_allclose(c, [1.0], atol=1e-12)
        np.testing.assert_allclose(h, [0.5 * np.tanh(1.0)], atol=1e-12)

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


class TestBilstmEncode:
    def test_swap_params_and_reverse_input_mirrors_output(self):
        rng = np.random.default_rng(5)
        a, b = LstmParams(4, 3, rng), LstmParams(4, 3, rng)
        x = rng.normal(size=(6, 3))
        out = encode(x, a, b)
        mirrored = encode(x[::-1].copy(), b, a)
        np.testing.assert_allclose(out[:, :4], mirrored[::-1, 4:], atol=1e-12)
        np.testing.assert_allclose(out[:, 4:], mirrored[::-1, :4], atol=1e-12)


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
