"""BiLSTM over the embedded sequence [x_1..x_n, e_1..e_m].

Emoji positions are encoded in-sequence after the text positions; each
output row is the concatenation [forward hidden ; backward hidden], so the
feature size is 2d.  A batch is zero-padded to its longest row; per-row
lengths keep each row's backward direction on its own prefix.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import autograd as ag
from .autograd import Value


class LstmParams:
    """One direction's gate parameters.

    The four gates are packed column-wise as [input | forget | output |
    cell], so one input and one recurrent matmul give all four
    pre-activations.  Weights are seeded uniform in
    [-1/sqrt(d), 1/sqrt(d)] and the forget-gate bias block starts at 1.0
    for stable early training.
    """

    def __init__(self, d: int, d_in: int, rng: np.random.Generator):
        self.d = d
        self.d_in = d_in
        scale = 1.0 / np.sqrt(d)
        self.w_in = ag.param(rng.uniform(-scale, scale, (d_in, 4 * d)))
        self.w_rec = ag.param(rng.uniform(-scale, scale, (d, 4 * d)))
        bias = np.zeros(4 * d)
        bias[d:2 * d] = 1.0
        self.bias = ag.param(bias)

    def parameters(self, prefix: str) -> dict[str, Value]:
        return {f"{prefix}.w_in": self.w_in,
                f"{prefix}.w_rec": self.w_rec,
                f"{prefix}.bias": self.bias}


def lstm_batch(seq: Value, p: LstmParams, reverse: bool = False,
               lengths=None) -> Value:
    """Run one direction over a (B, L, d_in) batch as a single fused node.

    Rows advance in lockstep, so each time step costs one matrix product
    against the recurrent weights.  Row b is valid on its first
    `lengths[b]` positions (all L when None) and the reverse direction
    starts at its last valid one, so padding never reaches a valid output.
    Each step is the standard cell update: sigmoid input/forget/output
    gates, tanh candidate, c' = f*c + i*g, h' = o*tanh(c').  The backward
    rule is hand-rolled BPTT, checked against a per-step reference and
    central differences by the test suite.
    """
    d = p.d
    batch, length, _ = seq.shape
    if reverse:
        # each row's valid prefix back to front, padding in place; the
        # permutation is its own inverse, so it also maps outputs back
        steps = np.arange(length)
        valid = np.reshape(length if lengths is None else lengths, (-1, 1))
        order = np.where(steps < valid, valid - 1 - steps, steps)[:, :, None]

    def flip(a: np.ndarray) -> np.ndarray:
        return np.take_along_axis(a, order, axis=1) if reverse else a

    x = flip(seq.data)                                  # (B, L, d_in)
    w_in, w_rec, bias = p.w_in.data, p.w_rec.data, p.bias.data

    pre = x @ w_in + bias                               # (B, L, 4d)
    gates = np.empty((batch, length, 4 * d))
    cells = np.empty((batch, length, d))
    tanh_c = np.empty((batch, length, d))
    hidden = np.empty((batch, length, d))
    h = np.zeros((batch, d))
    c = np.zeros((batch, d))
    for t in range(length):
        z = pre[:, t] + h @ w_rec                       # (B, 4d)
        z[:, :3 * d] = _stable_sigmoid_inplace(z[:, :3 * d])
        z[:, 3 * d:] = np.tanh(z[:, 3 * d:])
        i, f, o = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d]
        g = z[:, 3 * d:]
        c = f * c + i * g
        gates[:, t] = z
        cells[:, t] = c
        tanh_c[:, t] = np.tanh(c)
        hidden[:, t] = o * tanh_c[:, t]
        h = hidden[:, t]

    out = ag.make_node(flip(hidden), (seq, p.w_in, p.w_rec, p.bias),
                       "lstm_batch")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            d_hidden = flip(out.grad)                   # (B, L, d)
            d_pre = np.empty((batch, length, 4 * d))
            dh_rec = np.zeros((batch, d))
            dc_rec = np.zeros((batch, d))
            w_rec_t = w_rec.T
            for t in range(length - 1, -1, -1):
                z = gates[:, t]
                i, f, o = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d]
                g = z[:, 3 * d:]
                tc = tanh_c[:, t]
                dh = d_hidden[:, t] + dh_rec
                do = dh * tc
                dc = dh * o * (1.0 - tc * tc) + dc_rec
                c_prev = cells[:, t - 1] if t > 0 else np.zeros((batch, d))
                blk = d_pre[:, t]
                blk[:, :d] = dc * g * i * (1.0 - i)
                blk[:, d:2 * d] = dc * c_prev * f * (1.0 - f)
                blk[:, 2 * d:3 * d] = do * o * (1.0 - o)
                blk[:, 3 * d:] = dc * i * (1.0 - g * g)
                dc_rec = dc * f
                dh_rec = blk @ w_rec_t                  # (B, d)
            flat_pre = d_pre.reshape(batch * length, 4 * d)
            if p.w_in.requires_grad:
                p.w_in.grad += x.reshape(batch * length, -1).T @ flat_pre
            if p.w_rec.requires_grad:
                h_prev = np.concatenate(
                    [np.zeros((batch, 1, d)), hidden[:, :-1]], axis=1)
                p.w_rec.grad += h_prev.reshape(batch * length, d).T @ flat_pre
            if p.bias.requires_grad:
                p.bias.grad += flat_pre.sum(axis=0)
            if seq.requires_grad:
                dx = d_pre @ w_in.T                     # (B, L, d_in)
                seq.grad += flip(dx)
        out._backward = _bw
    return out


def _stable_sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    pos = z >= 0
    z[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    z[~pos] = ez / (1.0 + ez)
    return z


def bilstm_encode_batch(seq: Value, fwd: LstmParams, bwd: LstmParams,
                        lengths=None) -> Value:
    """(B, L, d_in) padded batch with per-row `lengths` (None: all L) ->
    (B, L, 2d) features."""
    return ag.concat([lstm_batch(seq, fwd),
                      lstm_batch(seq, bwd, reverse=True, lengths=lengths)],
                     axis=2)
